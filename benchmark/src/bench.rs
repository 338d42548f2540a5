//! What the four workloads share: the run's configuration, the correctness
//! checker, store construction, and the metrics every workload reports the
//! same way.

use crate::gen;
use crate::json::Json;
use crate::stats;
use crate::trace::{Kind, TracedEnv, TracedExec, Tracer, SAMPLE_EVERY};
use pcp::lsm::{Db, Options};
use pcp::obs::Registry;
use pcp::storage::{BlockDevice, Env, HddModel, SimDevice, SimEnv, SsdModel};
use std::io;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FillHdd,
    FillSsd,
    ReadmixSsd,
    ServeSsd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FillHdd,
        Workload::FillSsd,
        Workload::ReadmixSsd,
        Workload::ServeSsd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FillHdd => "fill_hdd",
            Workload::FillSsd => "fill_ssd",
            Workload::ReadmixSsd => "readmix_ssd",
            Workload::ServeSsd => "serve_ssd",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal length of the timed phase. Every workload is a closed loop
    /// over a fixed number of operations, so that both sides of a
    /// comparison do the same work; the number is this many seconds' worth
    /// at the rate the seed commit reached on the 2-core box that sized it.
    pub seconds: f64,
    pub trace: bool,
    /// Self-test: expect a wrong value for one key that the run reads, so
    /// the run must report a failed operation.
    pub corrupt: bool,
}

impl Config {
    pub fn count(&self, per_second: f64) -> u64 {
        ((per_second * self.seconds).round() as u64).max(1)
    }
}

/// What one run hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the result file.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context that is not a metric: sizes, the op-stream hash.
    pub info: Vec<(&'static str, Json)>,
    /// The traced run's spans, for `main` to write out.
    pub tracer: Option<Arc<Tracer>>,
}

/// Counts operations attempted and failed, and knows the value every key
/// must hold.
#[derive(Clone, Debug)]
pub struct Checker {
    seed: u64,
    corrupt_key: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(seed: u64, corrupt_key: Option<u64>) -> Checker {
        Checker {
            seed,
            corrupt_key,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn expected(&self, idx: u64) -> [u8; gen::VALUE_LEN] {
        let mut v = gen::value(idx, self.seed);
        if self.corrupt_key == Some(idx) {
            v[0] ^= 0xff;
        }
        v
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    /// Counts one operation; a returned error is a failure.
    pub fn op<T>(&mut self, what: &str, result: io::Result<T>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| self.fail(|| format!("{what}: {e}")))
            .ok()
    }

    /// Checks what a read of key `idx` returned (as part of an operation
    /// already counted).
    pub fn value(&mut self, idx: u64, got: Option<&[u8]>) {
        if got != Some(&self.expected(idx)[..]) {
            self.fail(|| format!("key {idx}: wrong or missing value"));
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }
}

/// One simulated device with the filesystem on it, as the engine sees it
/// (`env`, wrapped when tracing) and as the benchmark reads its counters.
pub struct Store {
    pub device: Arc<dyn BlockDevice>,
    pub env: Arc<dyn Env>,
}

pub fn sim_store(name: &str, hdd: bool, tracer: Option<&Arc<Tracer>>) -> Store {
    // 1 TB at real time: the size every harness in this repository uses,
    // and the one the HDD model normalizes seek distance by.
    let device: Arc<dyn BlockDevice> = if hdd {
        Arc::new(SimDevice::new(name, HddModel::default(), 1 << 40, 1.0))
    } else {
        Arc::new(SimDevice::new(name, SsdModel::default(), 1 << 40, 1.0))
    };
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&device)));
    let env = match tracer {
        Some(t) => Arc::new(TracedEnv::new(env, Arc::clone(t))),
        None => env,
    };
    Store { device, env }
}

/// The engine as shipped: `Options::default()` with the block cache size
/// the workload states, and when tracing the default executor inside a
/// timing wrapper.
pub fn options(block_cache_bytes: usize, tracer: Option<&Arc<Tracer>>) -> Options {
    let mut opts = Options {
        block_cache_bytes,
        ..Options::default()
    };
    if let Some(t) = tracer {
        opts.executor = Arc::new(TracedExec::new(Arc::clone(&opts.executor), Arc::clone(t)));
    }
    opts
}

/// A registry holding `db`'s series and those of its executor (a `Db`
/// registers only the engine's own). The collectors keep the engine's state
/// alive: a `Db` closes its WAL only once it and this registry are dropped.
pub fn engine_registry(db: &Db, opts: &Options) -> Registry {
    let registry = Registry::new();
    db.register_metrics(&registry, &[]);
    opts.executor.register_metrics(&registry);
    registry
}

/// Runs `setup` several times and keeps the last result; the time is the
/// median, because a later change is held to it.
pub fn median_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, f64)> {
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("repeats >= 1"), stats::median(&seconds)))
}

/// Times one client operation; when tracing it is also a span, kept in full
/// for one operation of its kind in `SAMPLE_EVERY` (`nth` counts the kind).
/// Returns the result and the nanoseconds it took.
pub fn client_op<T>(
    tracer: Option<&Arc<Tracer>>,
    kind: Kind,
    index: u64,
    nth: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tracer {
        Some(t) => {
            let (out, d) = t.parent_span(kind, index + 1, nth.is_multiple_of(SAMPLE_EVERY), f);
            (out, d.as_nanos() as u64)
        }
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_nanos() as u64)
        }
    }
}

/// User + system CPU seconds of this process so far, all threads, from
/// `/proc/self/stat` (clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name, field 2, may hold spaces; fields count from the
    // closing parenthesis.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Write and space amplification of the stores a run ends with, over their
/// whole life: on the fill workloads that is the timed phase, elsewhere the
/// preload is included.
pub fn store_metrics(
    stores: &[Store],
    user_bytes_put: u64,
    live_keys: u64,
) -> io::Result<[(&'static str, f64); 2]> {
    let (mut written, mut stored) = (0u64, 0u64);
    for store in stores {
        written += store.device.stats().write_bytes();
        for name in store.env.list()? {
            stored += store.env.size(&name)?;
        }
    }
    Ok([
        ("write_amp", written as f64 / user_bytes_put as f64),
        (
            "space_amp",
            stored as f64 / (live_keys * gen::ENTRY_BYTES) as f64,
        ),
    ])
}

/// Reads `db` from first key to last, checking that keys ascend, that
/// `member` admits each one and that each holds its value. Returns the
/// entries seen and the seconds taken; the caller knows how many to expect.
pub fn verify_scan(db: &Db, check: &mut Checker, member: impl Fn(u64) -> bool) -> (u64, f64) {
    check.attempted += 1;
    let t0 = Instant::now();
    let mut it = db.iter();
    it.seek_to_first();
    let (mut entries, mut previous) = (0u64, None);
    while it.valid() {
        match gen::key_index(it.key()) {
            Some(idx) if previous < Some(idx) && member(idx) => {
                check.value(idx, Some(it.value()));
                previous = Some(idx);
            }
            _ => check.fail(|| {
                format!(
                    "scan: unexpected or out-of-order key {:?}",
                    String::from_utf8_lossy(it.key())
                )
            }),
        }
        entries += 1;
        it.next();
    }
    (entries, t0.elapsed().as_secs_f64())
}

/// `verify_integrity` must find every table of `db` healthy.
pub fn verify_integrity(db: &Db, check: &mut Checker) {
    if let Some(report) = check.op("verify_integrity", db.verify_integrity()) {
        if !report.is_healthy() {
            check.fail(|| format!("verify_integrity: {}", report.errors.join("; ")));
        }
    }
}
