//! The per-layer metrics of a traced run. Everything here is read from
//! outside the engine: the tracer's wrappers and spans, and the counters
//! the crates already publish (`Db::metrics`, a metrics `Registry`,
//! `DeviceStats`, the compaction limiter).
//!
//! A [`Probe`] brackets the timed phase: it notes every counter when the
//! phase starts and reports differences when it ends, so set-up (a preload)
//! and verification stay out of the numbers.

use crate::bench::Store;
use crate::gen;
use crate::stats;
use crate::trace::{call_overhead_seconds, self_times, Kind, Totals, Tracer};
use pcp::lsm::{CompactionLimiter, Db};
use pcp::obs::registry::{MetricsSnapshot, SampleValue};
use pcp::obs::Registry;
use pcp::storage::stats::StatsSnapshot;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latencies and counts the workload's client threads collected in the
/// timed phase. Latency slices are sorted ascending, in nanoseconds.
#[derive(Default)]
pub struct ClientSide<'a> {
    pub wall_s: f64,
    /// Time in the closing `wait_idle`, for the fill workloads.
    pub drain_s: f64,
    pub put_ns: &'a [u64],
    pub get_ns: &'a [u64],
    pub scan_ns: &'a [u64],
    pub request_ns: &'a [u64],
    /// User bytes the scans returned.
    pub scan_bytes: u64,
}

#[derive(Default)]
struct EngineCounters {
    puts: u64,
    stall: Duration,
    stall_events: u64,
    slowdown_events: u64,
    flush_count: u64,
    flush_bytes: u64,
    trivial_moves: u64,
    group_commits: u64,
}

impl EngineCounters {
    fn read(dbs: &[&Db]) -> EngineCounters {
        let mut c = EngineCounters::default();
        for m in dbs.iter().map(|db| db.metrics()) {
            c.puts += m.puts;
            c.stall += m.stall_time;
            c.stall_events += m.stall_events;
            c.slowdown_events += m.slowdown_events;
            c.flush_count += m.flush_count;
            c.flush_bytes += m.flush_bytes;
            c.trivial_moves += m.trivial_moves;
            c.group_commits += m.group_commits;
        }
        c
    }
}

pub struct Probe<'a> {
    tracer: &'a Arc<Tracer>,
    registry: &'a Registry,
    dbs: Vec<&'a Db>,
    stores: &'a [Store],
    limiter: Option<&'a CompactionLimiter>,
    registry_before: MetricsSnapshot,
    engine_before: EngineCounters,
    devices_before: Vec<StatsSnapshot>,
    steals_before: u64,
    loadavg_start: f64,
}

impl<'a> Probe<'a> {
    /// Notes every counter and switches the tracer on.
    pub fn start(
        tracer: &'a Arc<Tracer>,
        registry: &'a Registry,
        dbs: Vec<&'a Db>,
        stores: &'a [Store],
        limiter: Option<&'a CompactionLimiter>,
    ) -> Probe<'a> {
        let probe = Probe {
            tracer,
            registry,
            stores,
            limiter,
            registry_before: registry.snapshot(),
            engine_before: EngineCounters::read(&dbs),
            devices_before: stores.iter().map(|s| s.device.stats().snapshot()).collect(),
            steals_before: limiter.map_or(0, |l| l.steals()),
            loadavg_start: loadavg(),
            dbs,
        };
        tracer.set_enabled(true);
        probe
    }

    /// Switches the tracer off and derives every per-layer metric.
    pub fn finish(self, client: ClientSide<'_>) -> Vec<(&'static str, f64)> {
        self.tracer.set_enabled(false);
        let t = self.tracer;
        let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(96);
        let ratio = |a: f64, b: f64| if b != 0.0 { a / b } else { 0.0 };
        let pct = |a: f64, b: f64| 100.0 * ratio(a, b);
        let us = |ns: u64| ns as f64 / 1e3;

        let snapshot_t0 = Instant::now();
        let after = self.registry.snapshot();
        let snapshot_ms = snapshot_t0.elapsed().as_secs_f64() * 1e3;
        let delta = |name: &str, label: Option<(&str, &str)>| {
            total(&after, name, label) - total(&self.registry_before, name, label)
        };

        // shard: the service front end (only `serve_ssd` has one).
        let requests = delta("pcp_service_requests_total", None);
        out.extend([
            (
                "shard.request_us_mean",
                stats::mean(client.request_ns) / 1e3,
            ),
            (
                "shard.request_p50_us",
                us(stats::percentile(client.request_ns, 50.0)),
            ),
            (
                "shard.request_p99_us",
                us(stats::percentile(client.request_ns, 99.0)),
            ),
            (
                "shard.worker_busy_us_per_op",
                ratio(
                    delta("pcp_service_worker_busy_nanoseconds_total", None) / 1e3,
                    requests,
                ),
            ),
            (
                "shard.wakeups_per_op",
                ratio(delta("pcp_service_reactor_wakeups_total", None), requests),
            ),
            (
                "shard.dispatch_depth_p50",
                histogram_quantile(&after, "pcp_service_dispatch_queue_depth", 0.5),
            ),
            (
                "shard.backpressure_pauses",
                delta("pcp_service_backpressure_pauses_total", None),
            ),
            ("shard.errors", delta("pcp_service_errors_total", None)),
        ]);

        // lsm: the engine's public calls and its own counters.
        let spans = t.spans();
        let (tail_pct, tail_ns) = stats::supported_tail(client.put_ns).unwrap_or((0.0, 0));
        let scan_spans = self_times(&spans, Kind::LsmScan);
        let entries_per_scan = ratio(
            ratio(client.scan_bytes as f64, gen::ENTRY_BYTES as f64),
            client.scan_ns.len() as f64,
        );
        let engine = EngineCounters::read(&self.dbs);
        let before = &self.engine_before;
        out.extend([
            ("lsm.put_p50_us", us(stats::percentile(client.put_ns, 50.0))),
            ("lsm.put_p99_us", us(stats::percentile(client.put_ns, 99.0))),
            ("lsm.put_ptail_us", us(tail_ns)),
            ("lsm.put_ptail_pct", tail_pct),
            ("lsm.get_p50_us", us(stats::percentile(client.get_ns, 50.0))),
            ("lsm.get_p99_us", us(stats::percentile(client.get_ns, 99.0))),
            (
                "lsm.scan_p99_ms",
                us(stats::percentile(client.scan_ns, 99.0)) / 1e3,
            ),
            (
                "lsm.put_self_us_mean",
                stats::mean(&self_times(&spans, Kind::LsmPut)) / 1e3,
            ),
            (
                "lsm.get_self_us_mean",
                stats::mean(&self_times(&spans, Kind::LsmGet)) / 1e3,
            ),
            (
                "lsm.scan_self_us_per_entry",
                ratio(stats::mean(&scan_spans) / 1e3, entries_per_scan),
            ),
            ("lsm.drain_s", client.drain_s),
            (
                "lsm.stall_pct",
                pct((engine.stall - before.stall).as_secs_f64(), client.wall_s),
            ),
            (
                "lsm.stall_events",
                (engine.stall_events - before.stall_events) as f64,
            ),
            (
                "lsm.slowdown_events",
                (engine.slowdown_events - before.slowdown_events) as f64,
            ),
            (
                "lsm.flush_count",
                (engine.flush_count - before.flush_count) as f64,
            ),
            (
                "lsm.flush_mb",
                (engine.flush_bytes - before.flush_bytes) as f64 / 1e6,
            ),
            (
                "lsm.trivial_moves",
                (engine.trivial_moves - before.trivial_moves) as f64,
            ),
            (
                "lsm.group_commits_per_put",
                ratio(
                    (engine.group_commits - before.group_commits) as f64,
                    (engine.puts - before.puts) as f64,
                ),
            ),
        ]);

        // core: the compaction executor, through the timing wrapper and the
        // step profile it publishes.
        let compact = t.totals(Kind::CoreCompact);
        let output_mb = t.compaction_output_bytes() as f64 / 1e6;
        let step = |label: &str| {
            delta(
                "pcp_compaction_step_busy_nanoseconds_total",
                Some(("step", label)),
            ) / 1e9
        };
        let steps = ["read", "crc", "decomp", "sort", "comp", "re-crc", "write"].map(step);
        let step_sum: f64 = steps.iter().sum();
        let codec_busy = steps[1] + steps[2] + steps[4] + steps[5];
        let choice =
            |label: &str| delta("pcp_sched_executor_choice_total", Some(("choice", label)));
        out.extend([
            ("core.compactions", compact.calls as f64),
            ("core.compact_busy_s", compact.seconds()),
            ("core.input_mb", compact.mb()),
            ("core.output_mb", output_mb),
            (
                "core.mbps",
                ratio(compact.mb() + output_mb, compact.seconds()),
            ),
            ("core.step_s1_read_s", steps[0]),
            ("core.step_s2_crc_s", steps[1]),
            ("core.step_s3_decomp_s", steps[2]),
            ("core.step_s4_sort_s", steps[3]),
            ("core.step_s5_comp_s", steps[4]),
            ("core.step_s6_recrc_s", steps[5]),
            ("core.step_s7_write_s", steps[6]),
            ("core.read_pct", pct(steps[0], step_sum)),
            (
                "core.compute_pct",
                pct(step_sum - steps[0] - steps[6], step_sum),
            ),
            ("core.write_pct", pct(steps[6], step_sum)),
            ("core.overlap_ratio", ratio(step_sum, compact.seconds())),
            ("core.choice_simple", choice("simple")),
            ("core.choice_pcp", choice("pcp")),
            ("core.choice_cppcp", choice("c-ppcp")),
            ("core.choice_sppcp", choice("s-ppcp")),
        ]);

        // compaction: the cross-shard scheduler (only a sharded engine has one).
        out.extend([
            (
                "compaction.peak_concurrent",
                self.limiter.map_or(0, |l| l.peak()) as f64,
            ),
            (
                "compaction.steals",
                self.limiter.map_or(0, |l| l.steals() - self.steals_before) as f64,
            ),
        ]);

        // sstable: block cache and scan readahead.
        let get_reads = t.totals(Kind::StorageGetRead);
        let scan_reads = t.totals(Kind::StorageScanRead);
        let readahead = t.totals(Kind::StorageReadahead);
        let cache_hits = delta("pcp_engine_block_cache_shard_hits", None);
        let cache_misses = delta("pcp_engine_block_cache_shard_misses", None);
        let readahead_hits = delta("pcp_scan_readahead_hits_total", None);
        let sync_blocks = delta("pcp_scan_sync_blocks_total", None);
        out.extend([
            (
                "sstable.cache_hit_pct",
                pct(cache_hits, cache_hits + cache_misses),
            ),
            (
                "sstable.readahead_hit_pct",
                pct(readahead_hits, readahead_hits + sync_blocks),
            ),
            (
                "sstable.readahead_wasted_pct",
                pct(
                    delta("pcp_scan_readahead_wasted_total", None),
                    delta("pcp_scan_readahead_blocks_total", None),
                ),
            ),
            ("sstable.sync_block_loads", sync_blocks),
            (
                "sstable.frames_decoded",
                delta("pcp_scan_frames_decoded_total", None),
            ),
            (
                "sstable.device_reads_per_get",
                ratio(get_reads.device_calls as f64, client.get_ns.len() as f64),
            ),
            (
                "sstable.device_bytes_per_scan_byte",
                ratio(
                    (scan_reads.bytes + readahead.bytes) as f64,
                    client.scan_bytes as f64,
                ),
            ),
        ]);

        // storage: the Env wrapper's classes, and the devices' own counters.
        let wal = t.totals(Kind::StorageWal);
        let table = t.totals(Kind::StorageTableWrite);
        let bg_reads = t.totals(Kind::StorageBgRead);
        let sum = |parts: &[Totals], f: fn(&Totals) -> f64| parts.iter().map(f).sum::<f64>();
        let mut device = StatsSnapshot::default();
        for (store, earlier) in self.stores.iter().zip(&self.devices_before) {
            let d = store.device.stats().snapshot().delta(earlier);
            device.busy += d.busy;
            device.seek_time += d.seek_time;
        }
        out.extend([
            ("storage.wal_append_s", wal.seconds()),
            ("storage.wal_appends", (wal.calls - wal.device_calls) as f64),
            ("storage.wal_mb", wal.mb()),
            ("storage.wal_syncs", t.wal_syncs() as f64),
            ("storage.table_write_s", table.seconds()),
            ("storage.table_write_mb", table.mb()),
            ("storage.table_write_ops", table.device_calls as f64),
            (
                "storage.fg_read_s",
                sum(&[get_reads, scan_reads], Totals::seconds),
            ),
            (
                "storage.fg_read_ops",
                (get_reads.device_calls + scan_reads.device_calls) as f64,
            ),
            (
                "storage.bg_read_s",
                sum(&[bg_reads, readahead], Totals::seconds),
            ),
            (
                "storage.bg_read_ops",
                (bg_reads.device_calls + readahead.device_calls) as f64,
            ),
            (
                "storage.read_mb",
                sum(&[get_reads, scan_reads, bg_reads, readahead], Totals::mb),
            ),
            ("storage.readahead_mb", readahead.mb()),
            (
                "storage.manifest_s",
                t.totals(Kind::StorageManifest).seconds(),
            ),
            (
                "storage.device_busy_pct",
                pct(
                    device.busy.as_secs_f64(),
                    client.wall_s * self.stores.len() as f64,
                ),
            ),
            ("storage.seek_s", device.seek_time.as_secs_f64()),
            // Callers' time in calls that reach a device, beyond the time
            // the devices were busy: waiting behind one another.
            (
                "storage.queue_wait_s",
                t.device_call_seconds() - device.busy.as_secs_f64(),
            ),
        ]);

        // codec: the three primitives, timed directly, and the share of
        // compaction spent in them.
        let codec = codec_speeds();
        out.extend([
            ("codec.crc32c_gbps", codec[0]),
            ("codec.lz_compress_mbps", codec[1]),
            ("codec.lz_decompress_mbps", codec[2]),
            ("codec.compaction_busy_s", codec_busy),
        ]);

        // obs: what keeping the registry costs.
        out.extend([
            ("obs.series", after.samples.len() as f64),
            ("obs.snapshot_ms", snapshot_ms),
        ]);

        // bench: the tracer itself. `main` replaces the overhead estimate
        // with the measured difference when it has the untraced run of the
        // same seed to compare with.
        let instrumented: u64 = Kind::ALL.iter().map(|&k| t.totals(k).calls).sum();
        out.extend([
            (
                "bench.trace_overhead_pct",
                pct(instrumented as f64 * call_overhead_seconds(), client.wall_s),
            ),
            ("bench.spans", spans.len() as f64),
            ("bench.loadavg_start", self.loadavg_start),
        ]);
        out
    }
}

/// Sum of the counter or gauge series called `name`, over every label set
/// that holds `label` (per-shard, per-worker and per-executor series add
/// up).
fn total(snap: &MetricsSnapshot, name: &str, label: Option<(&str, &str)>) -> f64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v)))
        .map(|s| match &s.value {
            SampleValue::Counter(c) => *c as f64,
            SampleValue::Gauge(g) => *g,
            SampleValue::Histogram(_) => 0.0,
        })
        .sum()
}

fn histogram_quantile(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    match snap.get(name).map(|s| &s.value) {
        Some(SampleValue::Histogram(h)) => h.quantile(q) as f64,
        _ => 0.0,
    }
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// CRC-32C in GB/s, LZ compression and decompression in MB/s of
/// uncompressed bytes, over 256 blocks of 4 KiB made of this benchmark's
/// own entries (half compressible), each block on its own as the table
/// format does it.
fn codec_speeds() -> [f64; 3] {
    const BLOCK: usize = 4096;
    const BLOCKS: usize = 256;
    const ROUNDS: usize = 8;
    let mut corpus = Vec::with_capacity(BLOCK * BLOCKS + gen::ENTRY_BYTES as usize);
    let mut idx = 0;
    while corpus.len() < BLOCK * BLOCKS {
        corpus.extend_from_slice(&gen::key(idx));
        corpus.extend_from_slice(&gen::value(idx, 0));
        idx += 1;
    }
    corpus.truncate(BLOCK * BLOCKS);
    let bytes = (corpus.len() * ROUNDS) as f64;

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for block in corpus.chunks(BLOCK) {
            black_box(pcp::codec::crc32c(black_box(block)));
        }
    }
    let crc_s = t0.elapsed().as_secs_f64();

    let mut compressed: Vec<Vec<u8>> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        compressed.clear();
        for block in corpus.chunks(BLOCK) {
            let mut out = Vec::new();
            pcp::codec::compress(black_box(block), &mut out);
            compressed.push(out);
        }
    }
    let compress_s = t0.elapsed().as_secs_f64();

    let mut raw = Vec::with_capacity(BLOCK);
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for block in &compressed {
            raw.clear();
            black_box(pcp::codec::decompress(black_box(block), &mut raw).is_ok());
        }
    }
    let decompress_s = t0.elapsed().as_secs_f64();

    [
        bytes / 1e9 / crc_s,
        bytes / 1e6 / compress_s,
        bytes / 1e6 / decompress_s,
    ]
}
