//! Per-step time accounting.
//!
//! Every executor records how long each of the seven compaction steps took
//! and how many bytes/blocks/entries flowed through. The Fig. 5/8/9
//! harnesses read these to print execution-time breakdowns, and the
//! measured per-byte costs calibrate both the analytical model (Eq. 1–7)
//! and the discrete-event simulator.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// The seven compaction steps of paper Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// S1 — read input blocks from the device.
    Read = 0,
    /// S2 — verify block checksums.
    Checksum = 1,
    /// S3 — decompress block contents.
    Decompress = 2,
    /// S4 — merge-sort entries and drop shadowed versions.
    Sort = 3,
    /// S5 — compress output blocks.
    Compress = 4,
    /// S6 — checksum output blocks.
    ReChecksum = 5,
    /// S7 — write output blocks to the device.
    Write = 6,
}

impl Step {
    /// All steps in execution order.
    pub const ALL: [Step; 7] = [
        Step::Read,
        Step::Checksum,
        Step::Decompress,
        Step::Sort,
        Step::Compress,
        Step::ReChecksum,
        Step::Write,
    ];

    /// Short name used in reports ("read", "crc", "decomp", …), matching
    /// the paper's figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            Step::Read => "read",
            Step::Checksum => "crc",
            Step::Decompress => "decomp",
            Step::Sort => "sort",
            Step::Compress => "comp",
            Step::ReChecksum => "re-crc",
            Step::Write => "write",
        }
    }

    /// True for the steps that use the I/O resource (S1, S7).
    pub fn is_io(&self) -> bool {
        matches!(self, Step::Read | Step::Write)
    }
}

/// Per-resource busy-time fractions for one compaction — the quantity of
/// the paper's Fig. 5 (and the x-axis intuition behind Figs. 8–12): how
/// much of the compaction's wall time each resource spent working.
///
/// `read` and `write` share the disk; `compute` covers S2–S6 on the CPU.
/// Under SCP the three fractions sum to ≤ 1.0 (one resource busy at a
/// time); under PCP each fraction individually approaches 1.0 on the
/// bottleneck resource while the others overlap it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Occupancy {
    /// Fraction of wall time the read stage (S1) was busy.
    pub read: f64,
    /// Fraction of wall time the compute steps (S2–S6) were busy.
    pub compute: f64,
    /// Fraction of wall time the write stage (S7) was busy.
    pub write: f64,
    /// The wall time the fractions are relative to.
    pub wall: Duration,
}

/// Thread-safe accumulator shared by all pipeline stages of one (or many)
/// compactions.
#[derive(Debug, Default)]
pub struct CompactionProfile {
    step_nanos: [AtomicU64; 7],
    input_bytes: AtomicU64,
    output_bytes: AtomicU64,
    raw_bytes: AtomicU64,
    blocks: AtomicU64,
    entries_in: AtomicU64,
    entries_out: AtomicU64,
    subtasks: AtomicU64,
    /// Stored input bytes of every sub-task planned and read.
    subtask_bytes: Arc<pcp_obs::Histogram>,
    compactions: AtomicU64,
    wall_nanos: AtomicU64,
    /// read/compute/write fractions of the most recent compaction, as f64
    /// bits (see [`CompactionProfile::set_last_occupancy`]).
    last_occ: [AtomicU64; 3],
}

impl CompactionProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to step `s`.
    pub fn record(&self, s: Step, d: Duration) {
        self.step_nanos[s as usize].fetch_add(d.as_nanos() as u64, Relaxed);
    }

    /// Adds compressed bytes read by S1.
    pub fn add_input_bytes(&self, n: u64) {
        self.input_bytes.fetch_add(n, Relaxed);
    }

    /// Adds compressed bytes written by S7.
    pub fn add_output_bytes(&self, n: u64) {
        self.output_bytes.fetch_add(n, Relaxed);
    }

    /// Adds uncompressed bytes through the compute stage.
    pub fn add_raw_bytes(&self, n: u64) {
        self.raw_bytes.fetch_add(n, Relaxed);
    }

    /// Adds data blocks processed.
    pub fn add_blocks(&self, n: u64) {
        self.blocks.fetch_add(n, Relaxed);
    }

    /// Adds entries merged in.
    pub fn add_entries_in(&self, n: u64) {
        self.entries_in.fetch_add(n, Relaxed);
    }

    /// Adds entries surviving to the output.
    pub fn add_entries_out(&self, n: u64) {
        self.entries_out.fetch_add(n, Relaxed);
    }

    /// Adds sub-tasks executed.
    pub fn add_subtasks(&self, n: u64) {
        self.subtasks.fetch_add(n, Relaxed);
    }

    /// Records the stored input bytes one sub-task lists.
    pub fn add_subtask_bytes(&self, bytes: u64) {
        self.subtask_bytes.record(bytes);
    }

    /// The largest sub-task read so far, in stored input bytes.
    pub fn max_subtask_bytes(&self) -> u64 {
        self.subtask_bytes.max()
    }

    /// Records one whole-compaction wall time.
    pub fn add_compaction(&self, wall: Duration) {
        self.compactions.fetch_add(1, Relaxed);
        self.wall_nanos.fetch_add(wall.as_nanos() as u64, Relaxed);
    }

    /// Publishes the occupancy of the most recent compaction (executors
    /// call this with the per-compaction snapshot delta's
    /// [`ProfileSnapshot::occupancy`]), exported as the
    /// `pcp_compaction_last_occupancy` gauge — the operator's Fig. 5
    /// readout. Nothing in the engine decides on it.
    pub fn set_last_occupancy(&self, occ: &Occupancy) {
        self.last_occ[0].store(occ.read.to_bits(), Relaxed);
        self.last_occ[1].store(occ.compute.to_bits(), Relaxed);
        self.last_occ[2].store(occ.write.to_bits(), Relaxed);
    }

    /// Registers every accumulator of this profile in `registry` under the
    /// `pcp_compaction_*` namespace, labelled `exec="<exec>"` (the
    /// executor name, so SCP and PCP profiles can coexist in one
    /// registry). The registration is by closure collector: the profile
    /// keeps its own atomics and the registry reads them at scrape time.
    pub fn register_metrics(self: &Arc<Self>, registry: &pcp_obs::Registry, exec: &str) {
        let base = vec![("exec".to_string(), exec.to_string())];
        for s in Step::ALL {
            let p = Arc::clone(self);
            let mut labels = base.clone();
            labels.push(("step".to_string(), s.label().to_string()));
            registry.register_fn_counter(
                "pcp_compaction_step_busy_nanoseconds_total",
                "accumulated busy time per compaction step S1-S7 (paper Fig. 2)",
                labels,
                move || p.step_nanos[s as usize].load(Relaxed),
            );
        }
        type Getter = fn(&CompactionProfile) -> u64;
        let counters: [(&str, &str, Getter); 8] = [
            ("pcp_compaction_input_bytes_total", "compressed bytes read by S1", |p| p.input_bytes.load(Relaxed)),
            ("pcp_compaction_output_bytes_total", "compressed bytes written by S7", |p| p.output_bytes.load(Relaxed)),
            ("pcp_compaction_raw_bytes_total", "uncompressed bytes through the compute stage", |p| p.raw_bytes.load(Relaxed)),
            ("pcp_compaction_blocks_total", "data blocks processed", |p| p.blocks.load(Relaxed)),
            ("pcp_compaction_entries_in_total", "entries merged in", |p| p.entries_in.load(Relaxed)),
            ("pcp_compaction_entries_out_total", "entries surviving to the output", |p| p.entries_out.load(Relaxed)),
            ("pcp_compaction_subtasks_total", "sub-tasks executed", |p| p.subtasks.load(Relaxed)),
            ("pcp_compactions_total", "compactions completed", |p| p.compactions.load(Relaxed)),
        ];
        for (name, help, get) in counters {
            let p = Arc::clone(self);
            registry.register_fn_counter(name, help, base.clone(), move || get(&p));
        }
        {
            let p = Arc::clone(self);
            registry.register_fn_counter(
                "pcp_compaction_wall_nanoseconds_total",
                "wall time summed over completed compactions",
                base.clone(),
                move || p.wall_nanos.load(Relaxed),
            );
        }
        registry.register_histogram(
            "pcp_compaction_subtask_bytes",
            "stored input bytes per sub-task (the pipeline's unit of work)",
            base.clone(),
            Arc::clone(&self.subtask_bytes),
        );
        for (stage, idx) in [("read", 0usize), ("compute", 1), ("write", 2)] {
            let p = Arc::clone(self);
            let mut labels = base.clone();
            labels.push(("stage".to_string(), stage.to_string()));
            registry.register_fn_gauge(
                "pcp_compaction_last_occupancy",
                "per-resource busy-time fraction of the most recent compaction (paper Fig. 5)",
                labels,
                move || f64::from_bits(p.last_occ[idx].load(Relaxed)),
            );
        }
    }

    /// Plain-data snapshot.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            step_time: std::array::from_fn(|i| {
                Duration::from_nanos(self.step_nanos[i].load(Relaxed))
            }),
            input_bytes: self.input_bytes.load(Relaxed),
            output_bytes: self.output_bytes.load(Relaxed),
            raw_bytes: self.raw_bytes.load(Relaxed),
            blocks: self.blocks.load(Relaxed),
            entries_in: self.entries_in.load(Relaxed),
            entries_out: self.entries_out.load(Relaxed),
            subtasks: self.subtasks.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
            wall_time: Duration::from_nanos(self.wall_nanos.load(Relaxed)),
        }
    }
}

/// Immutable view of a [`CompactionProfile`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileSnapshot {
    /// Accumulated time per step, indexed by [`Step`] discriminant.
    pub step_time: [Duration; 7],
    /// Compressed bytes read (step S1 volume).
    pub input_bytes: u64,
    /// Compressed bytes written (step S7 volume).
    pub output_bytes: u64,
    /// Uncompressed bytes that flowed through the compute stage.
    pub raw_bytes: u64,
    /// Data blocks processed.
    pub blocks: u64,
    /// Entries merged in.
    pub entries_in: u64,
    /// Entries surviving to the output.
    pub entries_out: u64,
    /// Sub-tasks executed.
    pub subtasks: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Total wall time across compactions.
    pub wall_time: Duration,
}

impl ProfileSnapshot {
    /// Time for one step.
    pub fn time(&self, s: Step) -> Duration {
        self.step_time[s as usize]
    }

    /// Σ all seven steps.
    pub fn total_step_time(&self) -> Duration {
        self.step_time.iter().sum()
    }

    /// Fraction of total step time spent in `s` (0 when nothing ran).
    pub fn fraction(&self, s: Step) -> f64 {
        let total = self.total_step_time().as_secs_f64();
        if total > 0.0 {
            self.time(s).as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// Per-resource busy-time fractions relative to wall time — the
    /// paper's Fig. 5 quantity. Meaningful on a per-compaction snapshot
    /// (or a [`ProfileSnapshot::delta`] spanning one compaction): `read`
    /// is S1 busy / wall, `compute` is S2–S6 busy / wall, `write` is S7
    /// busy / wall. All-zero when no wall time was recorded.
    pub fn occupancy(&self) -> Occupancy {
        let wall = self.wall_time.as_secs_f64();
        if wall <= 0.0 {
            return Occupancy::default();
        }
        let compute: Duration = [
            Step::Checksum,
            Step::Decompress,
            Step::Sort,
            Step::Compress,
            Step::ReChecksum,
        ]
        .iter()
        .map(|s| self.time(*s))
        .sum();
        Occupancy {
            read: self.time(Step::Read).as_secs_f64() / wall,
            compute: compute.as_secs_f64() / wall,
            write: self.time(Step::Write).as_secs_f64() / wall,
            wall: self.wall_time,
        }
    }

    /// Aggregate read / compute / write split (Fig. 5's three parts).
    pub fn three_part_split(&self) -> (f64, f64, f64) {
        let read = self.fraction(Step::Read);
        let write = self.fraction(Step::Write);
        (read, 1.0 - read - write, write)
    }

    /// Compaction bandwidth in bytes/second: total data moved
    /// (input + output) over wall time — the paper's headline metric.
    pub fn bandwidth(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            (self.input_bytes + self.output_bytes) as f64 / secs
        } else {
            0.0
        }
    }

    /// Per-sub-task mean step times in seconds, for the analytical model.
    pub fn mean_step_seconds(&self) -> [f64; 7] {
        let n = self.subtasks.max(1) as f64;
        std::array::from_fn(|i| self.step_time[i].as_secs_f64() / n)
    }

    /// Counter-wise difference (for per-phase measurements).
    pub fn delta(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            step_time: std::array::from_fn(|i| {
                self.step_time[i].saturating_sub(earlier.step_time[i])
            }),
            input_bytes: self.input_bytes - earlier.input_bytes,
            output_bytes: self.output_bytes - earlier.output_bytes,
            raw_bytes: self.raw_bytes - earlier.raw_bytes,
            blocks: self.blocks - earlier.blocks,
            entries_in: self.entries_in - earlier.entries_in,
            entries_out: self.entries_out - earlier.entries_out,
            subtasks: self.subtasks - earlier.subtasks,
            compactions: self.compactions - earlier.compactions,
            wall_time: self.wall_time.saturating_sub(earlier.wall_time),
        }
    }
}

/// Times a closure, recording the elapsed time under step `s`.
#[inline]
pub fn timed<T>(profile: &CompactionProfile, s: Step, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    profile.record(s, t0.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let p = CompactionProfile::new();
        for (i, s) in Step::ALL.iter().enumerate() {
            p.record(*s, Duration::from_millis(10 * (i as u64 + 1)));
        }
        let snap = p.snapshot();
        let total: f64 = Step::ALL.iter().map(|s| snap.fraction(*s)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let (r, c, w) = snap.three_part_split();
        assert!((r + c + w - 1.0).abs() < 1e-9);
        assert!(c > r && c > w, "S2-S6 dominate this synthetic profile");
    }

    #[test]
    fn bandwidth_accounts_input_plus_output() {
        let p = CompactionProfile::new();
        p.add_input_bytes(100 << 20);
        p.add_output_bytes(100 << 20);
        p.add_compaction(Duration::from_secs(2));
        let bw = p.snapshot().bandwidth();
        assert!((bw - 100.0 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn timed_records_something() {
        let p = CompactionProfile::new();
        let v = timed(&p, Step::Sort, || {
            std::hint::black_box((0..10_000).sum::<u64>())
        });
        assert_eq!(v, 49_995_000);
        assert!(p.snapshot().time(Step::Sort) > Duration::ZERO);
    }

    #[test]
    fn delta_subtracts() {
        let p = CompactionProfile::new();
        p.add_input_bytes(10);
        let a = p.snapshot();
        p.add_input_bytes(7);
        p.record(Step::Read, Duration::from_micros(3));
        let d = p.snapshot().delta(&a);
        assert_eq!(d.input_bytes, 7);
        assert_eq!(d.time(Step::Read), Duration::from_micros(3));
    }

    #[test]
    fn occupancy_splits_resources_against_wall_time() {
        let p = CompactionProfile::new();
        p.record(Step::Read, Duration::from_millis(200));
        p.record(Step::Sort, Duration::from_millis(500));
        p.record(Step::Checksum, Duration::from_millis(100));
        p.record(Step::Write, Duration::from_millis(300));
        p.add_compaction(Duration::from_secs(1));
        let occ = p.snapshot().occupancy();
        assert!((occ.read - 0.2).abs() < 1e-9);
        assert!((occ.compute - 0.6).abs() < 1e-9);
        assert!((occ.write - 0.3).abs() < 1e-9);
        assert_eq!(occ.wall, Duration::from_secs(1));
        // Empty profile → all-zero occupancy, no division by zero.
        assert_eq!(CompactionProfile::new().snapshot().occupancy(), Occupancy::default());
    }

    #[test]
    fn register_metrics_exports_every_accumulator() {
        let p = Arc::new(CompactionProfile::new());
        p.record(Step::Read, Duration::from_millis(3));
        p.add_input_bytes(1234);
        p.add_compaction(Duration::from_millis(10));
        p.set_last_occupancy(&p.snapshot().occupancy());
        let registry = pcp_obs::Registry::new();
        p.register_metrics(&registry, "scp");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(
                "pcp_compaction_step_busy_nanoseconds_total",
                &[("exec", "scp"), ("step", "read")]
            ),
            3_000_000
        );
        assert_eq!(
            snap.counter("pcp_compaction_input_bytes_total", &[("exec", "scp")]),
            1234
        );
        assert_eq!(snap.counter("pcp_compactions_total", &[("exec", "scp")]), 1);
        let read_occ = snap.gauge(
            "pcp_compaction_last_occupancy",
            &[("exec", "scp"), ("stage", "read")],
        );
        assert!((read_occ - 0.3).abs() < 0.05, "read occupancy {read_occ}");
        // Two executors can share a registry thanks to the exec label.
        Arc::new(CompactionProfile::new()).register_metrics(&registry, "pcp");
        pcp_obs::validate_exposition(&registry.render_prometheus()).unwrap();
    }

    #[test]
    fn step_labels_match_paper() {
        let labels: Vec<&str> = Step::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["read", "crc", "decomp", "sort", "comp", "re-crc", "write"]
        );
        assert!(Step::Read.is_io() && Step::Write.is_io());
        assert!(!Step::Sort.is_io());
    }
}
