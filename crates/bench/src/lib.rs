//! Shared machinery for the figure-regeneration harnesses.
//!
//! Every `benches/figN.rs` target uses this crate to build compaction
//! fixtures on simulated devices, run executors, calibrate the DES cost
//! model from real measurements, and print paper-style tables (also
//! mirrored as TSV under `bench_results/`).

#![forbid(unsafe_code)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "harness tooling, never on the measured engine path: it crashes on a failed \
              setup (the measurement is void anyway) and writes its reports with std::fs"
)]

use pcp_compaction::filename::table_file;
use pcp_core::{CompactionProfile, PipelinedExec};
use pcp_lsm::{CompactionExec, CompactionRequest, FileMetadata, TableCache};
use pcp_sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
use pcp_sstable::{CompressionKind, TableBuilder, TableBuilderOptions, TableReader};
use pcp_storage::{DeviceRef, EnvRef, HddModel, Raid0, SimDevice, SimEnv, SsdModel};
use pcp_workload::ValueGen;
use std::io::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paper defaults (§IV-A).
pub const KEY_LEN: usize = 16;
pub const VALUE_LEN: usize = 100;
pub const BLOCK_BYTES: usize = 4096;
pub const SSTABLE_BYTES: u64 = 2 << 20;
pub const MEMTABLE_BYTES: usize = 4 << 20;
pub const SUBTASK_BYTES: u64 = 512 << 10;
/// Compressible fraction giving snappy-like ~2x on the value corpus.
pub const VALUE_COMPRESSIBILITY: f64 = 0.5;

/// An in-memory (latency-free) filesystem.
pub fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(8 << 30))))
}

/// A filesystem on one simulated 7200 RPM disk.
pub fn hdd_env(time_scale: f64) -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::new(
        "hdd0",
        HddModel::default(),
        1 << 40,
        time_scale,
    ))))
}

/// A filesystem on one simulated X25-M-class SSD.
pub fn ssd_env(time_scale: f64) -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::new(
        "ssd0",
        SsdModel::default(),
        1 << 40,
        time_scale,
    ))))
}

/// A filesystem on RAID0 over `k` simulated disks (the paper's md setup
/// for S-PPCP). Members use the physical 7200 RPM model — the S-PPCP
/// experiment studies disk-count scaling, so the device itself should be
/// the paper's actual hardware class.
pub fn raid_hdd_env(k: usize, time_scale: f64) -> EnvRef {
    let members: Vec<DeviceRef> = (0..k)
        .map(|i| {
            Arc::new(SimDevice::new(
                format!("hdd{i}"),
                HddModel::sata_7200(),
                1 << 40,
                time_scale,
            )) as DeviceRef
        })
        .collect();
    Arc::new(SimEnv::new(Arc::new(Raid0::new(
        "md0",
        members,
        SUBTASK_BYTES,
    ))))
}

/// Table options used by every experiment (4 KB blocks, LZ on).
pub fn table_opts() -> TableBuilderOptions {
    TableBuilderOptions {
        block_size: BLOCK_BYTES,
        restart_interval: 16,
        compression: CompressionKind::Lz,
        bloom_bits_per_key: 10,
    }
}

/// A compaction fixture: one upper-component table set overlapping one
/// lower-component table set, both on `env`.
pub struct Fixture {
    pub env: EnvRef,
    pub upper: Vec<Arc<TableReader>>,
    pub lower: Vec<Arc<TableReader>>,
    /// Total stored input bytes.
    pub input_bytes: u64,
}

/// Builds a fixture with ≈`upper_bytes` in one upper run and
/// ≈`2 × upper_bytes` in the overlapping lower run (LevelDB's typical
/// 1:2 overlap), with `value_len`-byte values.
pub fn build_fixture(env: EnvRef, upper_bytes: u64, value_len: usize, seed: u64) -> Fixture {
    build_fixture_ratio(env, upper_bytes, 2.0, value_len, seed)
}

/// Builds a fixture with an explicit lower:upper size ratio.
pub fn build_fixture_ratio(
    env: EnvRef,
    upper_bytes: u64,
    lower_ratio: f64,
    value_len: usize,
    seed: u64,
) -> Fixture {
    // Entry count targeting the stored size (≈2x compression on the value
    // corpus at the default compressibility).
    let stored_per_entry = (KEY_LEN + value_len + 12) as f64 * 0.62;
    let upper_n = (upper_bytes as f64 / stored_per_entry) as usize;
    let lower_n = (upper_n as f64 * lower_ratio) as usize;

    // Interleave key spaces: lower holds even keys, upper a strided subset
    // rewritten with newer sequences — every upper block overlaps lower.
    let total_span = (upper_n + lower_n).max(1) as u64;
    let mut upper_tables = Vec::new();
    let mut lower_tables = Vec::new();
    let mut input_bytes = 0u64;

    let build = |name: &str, n: usize, stride: u64, offset: u64, seq0: u64, vseed: u64| {
        let file = env.create(name).unwrap();
        let mut b = TableBuilder::new(file, table_opts());
        let mut values = ValueGen::new(value_len, VALUE_COMPRESSIBILITY, vseed);
        let mut value = Vec::new();
        for i in 0..n {
            let k = (i as u64 * stride + offset) % (total_span * 2);
            let ik = make_internal_key(
                format!("{k:016}").as_bytes(),
                seq0 + i as u64,
                ValueType::Value,
            );
            values.next_value(&mut value);
            b.add(&ik, &value).unwrap();
        }
        b.finish().unwrap().stats()
    };

    // Lower: dense even keys.
    let stats = build("lower.sst", lower_n.max(1), 2, 0, 1, seed);
    input_bytes += stats.file_size;
    lower_tables.push(Arc::new(
        TableReader::open(env.open("lower.sst").unwrap()).unwrap(),
    ));
    // Upper: newer rewrites spread across the same range.
    let stride = ((lower_n.max(1) as u64 * 2) / upper_n.max(1) as u64).max(1);
    let stats = build(
        "upper.sst",
        upper_n.max(1),
        stride,
        1,
        1_000_000_000,
        seed ^ 0xFF,
    );
    input_bytes += stats.file_size;
    upper_tables.push(Arc::new(
        TableReader::open(env.open("upper.sst").unwrap()).unwrap(),
    ));

    Fixture {
        env,
        upper: upper_tables,
        lower: lower_tables,
        input_bytes,
    }
}

impl Fixture {
    /// Builds a compaction request over this fixture.
    pub fn request(&self) -> CompactionRequest {
        CompactionRequest {
            tables: Arc::new(TableCache::new(Arc::clone(&self.env))),
            upper: self.upper.clone(),
            lower: self.lower.clone(),
            output_level: 2,
            bottom_level: true,
            smallest_snapshot: MAX_SEQUENCE,
            file_numbers: Arc::new(AtomicU64::new(10_000)),
            table_opts: table_opts(),
            max_output_bytes: SSTABLE_BYTES,
            grant: pcp_lsm::ResourceGrant::unlimited(),
        }
    }

    /// Deletes this fixture's outputs so the next run starts clean.
    pub fn clean_outputs(&self, outputs: &[Arc<FileMetadata>]) {
        for f in outputs {
            let _ = self.env.delete(&table_file(f.number));
        }
    }
}

/// One timed executor run over a fixture. Returns (wall, moved bytes,
/// bandwidth B/s).
pub fn run_once(fixture: &Fixture, exec: &dyn CompactionExec) -> (Duration, u64, f64) {
    let req = fixture.request();
    let t0 = Instant::now();
    let outputs = exec.compact(&req).expect("compaction");
    let wall = t0.elapsed();
    let out_bytes: u64 = outputs.iter().map(|f| f.size).sum();
    let moved = fixture.input_bytes + out_bytes;
    fixture.clean_outputs(&outputs);
    (wall, moved, moved as f64 / wall.as_secs_f64())
}

/// Median bandwidth of three [`run_once`] repetitions (the host CPU is
/// noisy; medians stabilize the figure tables).
pub fn run_median3(fixture: &Fixture, exec: &dyn CompactionExec) -> f64 {
    let mut bws: Vec<f64> = (0..3).map(|_| run_once(fixture, exec).2).collect();
    bws.sort_by(|a, b| a.partial_cmp(b).unwrap());
    bws[1]
}

/// Measures the compute rate of S2–S6 on this host: runs one real SCP
/// compaction on latency-free devices and reads the step profile.
/// Returns (seconds per stored input byte, mean step times per sub-task).
pub fn calibrate_compute(subtask_bytes: u64) -> (f64, [f64; 7]) {
    let env = mem_env();
    let fixture = build_fixture(env, 4 << 20, VALUE_LEN, 42);
    let exec = PipelinedExec::scp(subtask_bytes);
    let profile = exec.profile();
    let req = fixture.request();
    let outputs = exec.compact(&req).expect("calibration compaction");
    fixture.clean_outputs(&outputs);
    let snap = profile.snapshot();
    let compute: Duration = [
        pcp_core::Step::Checksum,
        pcp_core::Step::Decompress,
        pcp_core::Step::Sort,
        pcp_core::Step::Compress,
        pcp_core::Step::ReChecksum,
    ]
    .iter()
    .map(|s| snap.time(*s))
    .sum();
    let per_byte = compute.as_secs_f64() / snap.input_bytes.max(1) as f64;
    (per_byte, snap.mean_step_seconds())
}

/// Extracts the profile snapshot of an executor run (for breakdowns).
pub fn profiled_run(
    fixture: &Fixture,
    exec: &dyn CompactionExec,
    profile: &CompactionProfile,
) -> pcp_core::ProfileSnapshot {
    let before = profile.snapshot();
    let req = fixture.request();
    let outputs = exec.compact(&req).expect("compaction");
    fixture.clean_outputs(&outputs);
    profile.snapshot().delta(&before)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Formats bytes/second in MB/s.
pub fn mbps(bytes_per_sec: f64) -> String {
    format!("{:8.2}", bytes_per_sec / (1024.0 * 1024.0))
}

/// Prints an aligned table and mirrors it as TSV in `bench_results/`.
pub struct Report {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report called `name` (also the TSV file stem).
    pub fn new(name: &str, headers: &[&str]) -> Report {
        Report {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Prints to stdout and writes `bench_results/<name>.tsv`.
    pub fn finish(self, caption: &str) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("\n## {} — {caption}", self.name);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for r in &self.rows {
            line(r);
        }

        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.tsv", self.name));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(f, "{}", self.headers.join("\t"));
            for r in &self.rows {
                let _ = writeln!(f, "{}", r.join("\t"));
            }
        }
    }
}

/// Writes `registry`'s full snapshot as machine-readable JSON to
/// `bench_results/BENCH_obs_<name>.json` and returns the path. This is
/// the bench-side consumer of the observability layer: every harness
/// that registers its profiles/devices can mirror the figures' TSV
/// tables with the raw counters, occupancy gauges, and latency
/// histograms behind them (see `OBSERVABILITY.md`).
pub fn write_obs_json(name: &str, registry: &pcp_obs::Registry) -> std::path::PathBuf {
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("BENCH_obs_{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(registry.snapshot().to_json().as_bytes());
        let _ = f.write_all(b"\n");
    }
    path
}

/// Where reports go, relative to the workspace root (or CWD as fallback):
/// the committed `bench_results/` for full-size runs, `target/bench_results/`
/// for quick ones, so that a quick run never rewrites committed numbers.
pub fn results_dir() -> std::path::PathBuf {
    let results = if quick_mode() {
        "target/bench_results"
    } else {
        "bench_results"
    };
    let mut dir = std::env::current_dir().unwrap_or_default();
    // Walk up to the workspace root (contains DESIGN.md).
    for _ in 0..4 {
        if dir.join("DESIGN.md").exists() {
            return dir.join(results);
        }
        if !dir.pop() {
            break;
        }
    }
    std::path::PathBuf::from(results)
}

/// True when the harness should shrink workloads; `PCP_BENCH_FULL=1`
/// selects the full-size runs behind the committed tables.
pub fn quick_mode() -> bool {
    std::env::var("PCP_BENCH_FULL")
        .map(|v| v != "1")
        .unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_core::PipelinedExec;

    #[test]
    fn fixture_builds_overlapping_components() {
        let f = build_fixture(mem_env(), 1 << 20, VALUE_LEN, 1);
        assert_eq!(f.upper.len(), 1);
        assert_eq!(f.lower.len(), 1);
        let us = f.upper[0].stats();
        let ls = f.lower[0].stats();
        assert!(us.entries > 1000);
        assert!(ls.entries > us.entries, "lower should be ~2x upper");
        // Sizes in the right ballpark (±50%).
        assert!(us.file_size > 512 << 10 && us.file_size < (2 << 20));
        assert!(f.input_bytes == us.file_size + ls.file_size);
    }

    #[test]
    fn run_once_reports_positive_bandwidth() {
        let f = build_fixture(mem_env(), 1 << 20, VALUE_LEN, 2);
        let (wall, moved, bw) = run_once(&f, &PipelinedExec::pcp(128 << 10));
        assert!(wall > Duration::ZERO);
        assert!(moved > f.input_bytes);
        assert!(bw > 0.0);
    }

    #[test]
    fn calibration_returns_sane_compute_rate() {
        let (per_byte, steps) = calibrate_compute(256 << 10);
        // Between 1 GB/s and 1 MB/s of aggregate compute bandwidth.
        assert!(per_byte > 1e-9 && per_byte < 1e-3, "rate {per_byte}");
        assert!(steps.iter().sum::<f64>() > 0.0);
    }
}
