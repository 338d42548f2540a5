//! The paper's analytical bandwidth model (§III, Eq. 1–7).
//!
//! `t[i]` is the execution time of step S(i+1) for one sub-task of length
//! `l` bytes. The model predicts compaction bandwidth (bytes/second) for
//! each procedure and bounds the achievable parallel speedups. The `model`
//! bench harness cross-validates these closed forms against both the
//! discrete-event simulator and the real executors.

/// Per-sub-task step times in seconds, `t[0] == t_S1 … t[6] == t_S7`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTimes {
    pub t: [f64; 7],
}

impl StepTimes {
    /// Wraps measured step times.
    pub fn new(t: [f64; 7]) -> StepTimes {
        assert!(t.iter().all(|&x| x >= 0.0), "step times must be non-negative");
        StepTimes { t }
    }

    /// t_S1: read time.
    pub fn read(&self) -> f64 {
        self.t[0]
    }

    /// Σ t_S2..t_S6: the compute stage.
    pub fn compute(&self) -> f64 {
        self.t[1..6].iter().sum()
    }

    /// t_S7: write time.
    pub fn write(&self) -> f64 {
        self.t[6]
    }

    /// Σ all seven steps.
    pub fn total(&self) -> f64 {
        self.t.iter().sum()
    }

    /// max{t_S1, t_S7}: the slower I/O step.
    pub fn max_io(&self) -> f64 {
        self.read().max(self.write())
    }
}

/// Which resource limits the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// An I/O stage is the longest (HDD-like configurations).
    Io,
    /// The compute stage is the longest (SSD-like configurations).
    Cpu,
}

/// Classifies the PCP bottleneck stage (paper §III-B, Fig. 6).
pub fn classify(times: &StepTimes) -> Bottleneck {
    if times.compute() >= times.max_io() {
        Bottleneck::Cpu
    } else {
        Bottleneck::Io
    }
}

/// Eq. 1 — SCP bandwidth: `l / Σ t_Si`.
pub fn b_scp(l: f64, times: &StepTimes) -> f64 {
    l / times.total()
}

/// Eq. 2 — PCP bandwidth: `l / max{t_S1, Σ t_S2..6, t_S7}`.
pub fn b_pcp(l: f64, times: &StepTimes) -> f64 {
    l / times
        .read()
        .max(times.compute())
        .max(times.write())
}

/// Eq. 3 — ideal PCP speedup over SCP.
pub fn pcp_speedup(times: &StepTimes) -> f64 {
    b_pcp(1.0, times) / b_scp(1.0, times)
}

/// Eq. 4 — S-PPCP bandwidth with `k` disks:
/// `l / max{t_S1/k, Σ t_S2..6, t_S7/k}`.
pub fn b_sppcp(l: f64, times: &StepTimes, k: usize) -> f64 {
    let k = k as f64;
    l / (times.read() / k)
        .max(times.compute())
        .max(times.write() / k)
}

/// Eq. 5 — ideal S-PPCP speedup over PCP. Bounded by
/// `min{k, max{t_S1, t_S7} / Σ t_S2..6}`.
pub fn sppcp_speedup(times: &StepTimes, k: usize) -> f64 {
    b_sppcp(1.0, times, k) / b_pcp(1.0, times)
}

/// The cap on Eq. 5's speedup.
pub fn sppcp_speedup_bound(times: &StepTimes, k: usize) -> f64 {
    (k as f64).min(times.max_io() / times.compute())
}

/// Eq. 6 — C-PPCP bandwidth with `k` compute workers:
/// `l / max{t_S1, Σ t_S2..6 / k, t_S7}`.
pub fn b_cppcp(l: f64, times: &StepTimes, k: usize) -> f64 {
    l / times
        .read()
        .max(times.compute() / k as f64)
        .max(times.write())
}

/// Eq. 7 — ideal C-PPCP speedup over PCP. Bounded by
/// `min{k, Σ t_S2..6 / max{t_S1, t_S7}}`.
pub fn cppcp_speedup(times: &StepTimes, k: usize) -> f64 {
    b_cppcp(1.0, times, k) / b_pcp(1.0, times)
}

/// The cap on Eq. 7's speedup.
pub fn cppcp_speedup_bound(times: &StepTimes, k: usize) -> f64 {
    (k as f64).min(times.compute() / times.max_io())
}

/// Smallest disk count that turns an I/O-bound pipeline CPU-bound
/// (paper §III-C1: `k > max{t_S1, t_S7} / Σ t_S2..6`).
pub fn disks_to_cpu_bound(times: &StepTimes) -> usize {
    (times.max_io() / times.compute()).ceil().max(1.0) as usize
}

/// Smallest compute-worker count that turns a CPU-bound pipeline I/O-bound
/// (paper §III-C2: `k > Σ t_S2..6 / max{t_S1, t_S7}`).
pub fn cpus_to_io_bound(times: &StepTimes) -> usize {
    (times.compute() / times.max_io()).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// HDD-like: read dominates (seek-heavy), write buffered and cheap.
    fn hdd() -> StepTimes {
        StepTimes::new([0.40, 0.02, 0.01, 0.20, 0.12, 0.02, 0.15])
    }

    /// SSD-like: compute dominates, write slower than read.
    fn ssd() -> StepTimes {
        StepTimes::new([0.08, 0.02, 0.01, 0.20, 0.15, 0.02, 0.12])
    }

    #[test]
    fn classification_matches_fig6() {
        assert_eq!(classify(&hdd()), Bottleneck::Io);
        assert_eq!(classify(&ssd()), Bottleneck::Cpu);
    }

    #[test]
    fn pcp_always_at_least_as_fast_as_scp() {
        for times in [hdd(), ssd()] {
            assert!(b_pcp(1.0, &times) >= b_scp(1.0, &times));
            let s = pcp_speedup(&times);
            assert!(s >= 1.0);
            // Bounded by 3 (the pipeline depth).
            assert!(s <= 3.0 + 1e-9);
        }
    }

    #[test]
    fn eq2_matches_bottleneck_stage() {
        let times = hdd();
        // Bottleneck is read at 0.40s for l=1.
        assert!((b_pcp(1.0, &times) - 1.0 / 0.40).abs() < 1e-9);
        let times = ssd();
        // Bottleneck is compute at 0.40s.
        assert!((b_pcp(1.0, &times) - 1.0 / 0.40).abs() < 1e-9);
    }

    #[test]
    fn sppcp_saturates_when_cpu_becomes_bottleneck() {
        let times = hdd(); // compute = 0.37, read = 0.40
        let b1 = b_sppcp(1.0, &times, 1);
        let b2 = b_sppcp(1.0, &times, 2);
        let b8 = b_sppcp(1.0, &times, 8);
        assert!(b2 > b1);
        // With k=2, read/k = 0.20 < compute 0.37: already CPU-bound.
        assert!((b8 - b2).abs() < 1e-9, "extra disks can't help a CPU-bound pipeline");
        assert!((b8 - 1.0 / times.compute()).abs() < 1e-9);
    }

    #[test]
    fn cppcp_saturates_when_io_becomes_bottleneck() {
        let times = ssd(); // compute 0.40, write 0.12
        let b1 = b_cppcp(1.0, &times, 1);
        let b4 = b_cppcp(1.0, &times, 4);
        let b16 = b_cppcp(1.0, &times, 16);
        assert!(b4 > b1);
        // compute/4 = 0.10 < write 0.12: I/O-bound at k=4.
        assert!((b16 - b4).abs() < 1e-9);
        assert!((b16 - 1.0 / times.write()).abs() < 1e-9);
    }

    #[test]
    fn speedup_bounds_hold() {
        for times in [hdd(), ssd()] {
            for k in 1..=16 {
                assert!(
                    sppcp_speedup(&times, k) <= sppcp_speedup_bound(&times, k).max(1.0) + 1e-9,
                    "S-PPCP bound violated at k={k}"
                );
                assert!(
                    cppcp_speedup(&times, k) <= cppcp_speedup_bound(&times, k).max(1.0) + 1e-9,
                    "C-PPCP bound violated at k={k}"
                );
                // Eq. 6 never loses to Eq. 2: why the default is C-PPCP.
                let speedup = cppcp_speedup(&times, k);
                assert!(speedup >= 1.0, "C-PPCP slower than PCP at k={k}");
            }
        }
    }

    #[test]
    fn transformation_thresholds() {
        let times = hdd();
        let k = disks_to_cpu_bound(&times);
        // With k disks, the pipeline must be CPU-bound.
        assert!(times.max_io() / k as f64 <= times.compute() + 1e-12);
        let times = ssd();
        let k = cpus_to_io_bound(&times);
        assert!(times.compute() / k as f64 <= times.max_io() + 1e-12);
    }

    #[test]
    fn helpers_consistent() {
        let t = StepTimes::new([1.0, 0.1, 0.2, 0.3, 0.4, 0.5, 2.0]);
        assert!((t.compute() - 1.5).abs() < 1e-12);
        assert!((t.total() - 4.5).abs() < 1e-12);
        assert!((t.max_io() - 2.0).abs() < 1e-12);
    }
}
