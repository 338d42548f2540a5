//! The paper's four procedures mapped onto the tandem engine.

use crate::tandem::{simulate_tandem, StageSpec, TandemReport};
use std::time::Duration;

/// Per-sub-task stage costs (S1 | S2–S6 | S7 aggregated, matching the
/// paper's three-stage pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubTaskCost {
    pub read: Duration,
    pub compute: Duration,
    pub write: Duration,
}

impl SubTaskCost {
    /// Uniform costs for `n` identical sub-tasks.
    pub fn uniform(read: Duration, compute: Duration, write: Duration) -> SubTaskCost {
        SubTaskCost {
            read,
            compute,
            write,
        }
    }

    /// Sum of all three stages.
    pub fn total(&self) -> Duration {
        self.read + self.compute + self.write
    }
}

/// Which procedure to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Procedure {
    /// Sequential Compaction Procedure: no overlap at all.
    Scp,
    /// (Parallel) Pipelined Compaction Procedure.
    Pcp {
        /// Compute-stage servers (1 = plain PCP, k = C-PPCP).
        compute_workers: usize,
        /// Read-lane count (k = S-PPCP over k disks).
        read_lanes: usize,
        /// Write-lane count (S-PPCP spreads S7 over the same k disks).
        write_lanes: usize,
        /// Bounded queue capacity between read and compute stages.
        queue_depth: usize,
    },
}

impl Procedure {
    /// Plain PCP.
    pub fn pcp() -> Procedure {
        Procedure::Pcp {
            compute_workers: 1,
            read_lanes: 1,
            write_lanes: 1,
            queue_depth: 4,
        }
    }

    /// C-PPCP with `k` compute workers.
    pub fn c_ppcp(k: usize) -> Procedure {
        Procedure::Pcp {
            compute_workers: k,
            read_lanes: 1,
            write_lanes: 1,
            queue_depth: 4,
        }
    }

    /// S-PPCP with `k` disks serving both S1 and S7.
    pub fn s_ppcp(k: usize) -> Procedure {
        Procedure::Pcp {
            compute_workers: 1,
            read_lanes: k,
            write_lanes: k,
            queue_depth: 4,
        }
    }
}

/// Simulation result for one compaction.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub makespan: Duration,
    /// Busy time of the read / compute / write stages.
    pub stage_busy: [Duration; 3],
    /// Blocked (back-pressure) time per stage.
    pub stage_blocked: [Duration; 3],
    pub subtasks: usize,
}

impl SimReport {
    /// Compaction bandwidth for `bytes` of data moved.
    pub fn bandwidth(&self, bytes: u64) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            bytes as f64 / secs
        } else {
            0.0
        }
    }
}

/// Simulates one compaction of `costs.len()` sub-tasks under `proc`.
pub fn simulate(proc: Procedure, costs: &[SubTaskCost]) -> SimReport {
    match proc {
        Procedure::Scp => {
            // Strictly sequential: one implicit resource runs everything.
            let makespan: Duration = costs.iter().map(|c| c.total()).sum();
            SimReport {
                makespan,
                stage_busy: [
                    costs.iter().map(|c| c.read).sum(),
                    costs.iter().map(|c| c.compute).sum(),
                    costs.iter().map(|c| c.write).sum(),
                ],
                stage_blocked: [Duration::ZERO; 3],
                subtasks: costs.len(),
            }
        }
        Procedure::Pcp {
            compute_workers,
            read_lanes,
            write_lanes,
            queue_depth,
        } => {
            let stages = vec![
                StageSpec {
                    name: "read",
                    servers: read_lanes,
                    buffer: usize::MAX,
                    in_order: false,
                },
                StageSpec {
                    name: "compute",
                    servers: compute_workers,
                    buffer: queue_depth,
                    in_order: false,
                },
                StageSpec {
                    name: "write",
                    servers: write_lanes,
                    // The resequencer buffers out-of-order sub-tasks
                    // without bound (a BTreeMap in the real writer).
                    buffer: usize::MAX,
                    in_order: true,
                },
            ];
            let rows: Vec<Vec<Duration>> = costs
                .iter()
                .map(|c| vec![c.read, c.compute, c.write])
                .collect();
            let r: TandemReport = simulate_tandem(&stages, &rows);
            SimReport {
                makespan: r.makespan,
                stage_busy: [r.stage_busy[0], r.stage_busy[1], r.stage_busy[2]],
                stage_blocked: [r.stage_blocked[0], r.stage_blocked[1], r.stage_blocked[2]],
                subtasks: costs.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_core::model::{b_cppcp, b_pcp, b_scp, b_sppcp, StepTimes};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Converts three-stage costs to the 7-step model's shape (compute
    /// lumped into S4; S2,S3,S5,S6 zero).
    fn step_times(c: SubTaskCost) -> StepTimes {
        StepTimes::new([
            c.read.as_secs_f64(),
            0.0,
            0.0,
            c.compute.as_secs_f64(),
            0.0,
            0.0,
            c.write.as_secs_f64(),
        ])
    }

    /// Relative error between DES steady-state bandwidth and a closed form.
    fn assert_matches_model(des_makespan: Duration, model_bandwidth: f64, n: usize, l: f64) {
        let des_bw = n as f64 * l / des_makespan.as_secs_f64();
        let rel = (des_bw - model_bandwidth).abs() / model_bandwidth;
        assert!(
            rel < 0.10,
            "DES {des_bw:.1} vs model {model_bandwidth:.1} ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn scp_matches_eq1_exactly() {
        let c = SubTaskCost::uniform(ms(10), ms(25), ms(15));
        let n = 40;
        let r = simulate(Procedure::Scp, &vec![c; n]);
        assert_eq!(r.makespan, ms(50 * n as u64));
        let t = step_times(c);
        assert_matches_model(r.makespan, b_scp(1.0, &t), n, 1.0);
    }

    #[test]
    fn pcp_matches_eq2_in_steady_state() {
        // HDD-like: read-bound.
        let hdd = SubTaskCost::uniform(ms(17), ms(12), ms(6));
        // SSD-like: compute-bound.
        let ssd = SubTaskCost::uniform(ms(4), ms(12), ms(7));
        let n = 200;
        for c in [hdd, ssd] {
            let r = simulate(Procedure::pcp(), &vec![c; n]);
            let t = step_times(c);
            assert_matches_model(r.makespan, b_pcp(1.0, &t), n, 1.0);
        }
    }

    #[test]
    fn cppcp_matches_eq6_and_saturates() {
        let ssd = SubTaskCost::uniform(ms(4), ms(20), ms(7));
        let n = 300;
        let t = step_times(ssd);
        for k in [1usize, 2, 3, 4, 8] {
            let r = simulate(Procedure::c_ppcp(k), &vec![ssd; n]);
            assert_matches_model(r.makespan, b_cppcp(1.0, &t, k), n, 1.0);
        }
        // Saturation at the I/O bound: k=4 and k=8 roughly equal.
        let r4 = simulate(Procedure::c_ppcp(4), &vec![ssd; n]);
        let r8 = simulate(Procedure::c_ppcp(8), &vec![ssd; n]);
        let rel = (r8.makespan.as_secs_f64() - r4.makespan.as_secs_f64()).abs()
            / r4.makespan.as_secs_f64();
        assert!(rel < 0.05, "beyond the I/O bound more cores do nothing");
    }

    #[test]
    fn sppcp_matches_eq4_and_goes_cpu_bound() {
        let hdd = SubTaskCost::uniform(ms(20), ms(10), ms(8));
        let n = 300;
        let t = step_times(hdd);
        for k in [1usize, 2, 4] {
            let r = simulate(Procedure::s_ppcp(k), &vec![hdd; n]);
            assert_matches_model(r.makespan, b_sppcp(1.0, &t, k), n, 1.0);
        }
        // k=2: read/k = 10 == compute: from here on CPU-bound.
        let r2 = simulate(Procedure::s_ppcp(2), &vec![hdd; n]);
        let r8 = simulate(Procedure::s_ppcp(8), &vec![hdd; n]);
        let rel = (r8.makespan.as_secs_f64() - r2.makespan.as_secs_f64()).abs()
            / r2.makespan.as_secs_f64();
        assert!(rel < 0.05);
    }

    #[test]
    fn fill_drain_overhead_shrinks_with_subtask_count() {
        // Fig. 11(b): PCP efficiency grows with compaction size.
        let c = SubTaskCost::uniform(ms(10), ms(10), ms(10));
        let bw = |n: usize| {
            let r = simulate(Procedure::pcp(), &vec![c; n]);
            n as f64 / r.makespan.as_secs_f64()
        };
        let small = bw(2);
        let medium = bw(6);
        let large = bw(50);
        assert!(small < medium && medium < large);
        // Ideal rate = 1/10ms = 100/s.
        assert!(large > 95.0);
        assert!(small < 80.0);
    }

    #[test]
    fn report_bandwidth_helper() {
        let c = SubTaskCost::uniform(ms(10), ms(10), ms(10));
        let r = simulate(Procedure::Scp, &vec![c; 10]);
        let bw = r.bandwidth(300 * 1024 * 1024);
        // 300 MiB over 0.3 s = 1000 MiB/s.
        assert!((bw - 1000.0 * 1024.0 * 1024.0).abs() < 1e6, "got {bw}");
    }
}
