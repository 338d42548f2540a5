//! Group-commit write-path benchmark: N concurrent writers on a
//! simulated SSD, sync and async WAL modes.
//!
//! Emits `bench_results/write_concurrency.tsv` (Report table) and
//! `bench_results/BENCH_group_commit.json` with per-config throughput
//! and WAL sync counts. The acceptance is a count, not a timing ratio:
//! at 8 sync writers one sync must cover at least two writes.

use pcp_bench::{quick_mode, results_dir, ssd_env, Report};
use pcp_lsm::{Db, Options};
use std::io::Write as _;
use std::sync::Barrier;
use std::time::Instant;

const VALUE_LEN: usize = 100;

struct Run {
    threads: usize,
    sync: bool,
    ops_per_sec: f64,
    wall_secs: f64,
    wal_syncs: u64,
    group_commits: u64,
    syncs_per_write: f64,
}

fn run_config(threads: usize, writes_per_thread: usize, sync: bool) -> Run {
    let db = Db::open(
        ssd_env(1.0),
        Options {
            sync_writes: sync,
            // Large memtable: measure the write path, not flush/compaction.
            memtable_bytes: 64 << 20,
            ..Default::default()
        },
    )
    .unwrap();

    let barrier = Barrier::new(threads);
    let value = vec![0xA5u8; VALUE_LEN];
    // Each writer reports its own (start, end) span; the wall clock is
    // max(end) - min(start). Measuring from the coordinating thread would
    // race its own barrier wakeup against the writers on small hosts.
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = &db;
                let barrier = &barrier;
                let value = &value;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for j in 0..writes_per_thread {
                        db.put(format!("key-{t:02}-{j:08}").as_bytes(), value)
                            .unwrap();
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let t0 = spans.iter().map(|(s, _)| *s).min().unwrap();
    let t1 = spans.iter().map(|(_, e)| *e).max().unwrap();
    let wall = t1 - t0;

    let m = db.metrics();
    let total = (threads * writes_per_thread) as f64;
    assert_eq!(m.puts as f64, total);
    Run {
        threads,
        sync,
        ops_per_sec: total / wall.as_secs_f64(),
        wall_secs: wall.as_secs_f64(),
        wal_syncs: m.wal_syncs,
        group_commits: m.group_commits,
        syncs_per_write: m.wal_syncs as f64 / total,
    }
}

/// Syncs per write allowed at 8 sync writers (committed value: 0.21).
const MAX_SYNCS_PER_WRITE: f64 = 0.5;

fn main() {
    let writes_per_thread = if quick_mode() { 300 } else { 2000 };
    let mut runs: Vec<Run> = Vec::new();
    let mut report = Report::new(
        "write_concurrency",
        &["threads", "mode", "kops/s", "syncs/write"],
    );

    for &sync in &[false, true] {
        for &threads in &[1usize, 2, 4, 8] {
            let r = run_config(threads, writes_per_thread, sync);
            report.row(&[
                threads.to_string(),
                if sync { "sync" } else { "async" }.to_string(),
                format!("{:.1}", r.ops_per_sec / 1000.0),
                format!("{:.3}", r.syncs_per_write),
            ]);
            runs.push(r);
        }
    }
    report.finish("group-commit write path (simulated SSD)");

    write_json(&runs, writes_per_thread);
}

/// Hand-rolled JSON (no serde in the tree). The headline is
/// `sync_8_threads_syncs_per_write`: how far one leader's sync is
/// amortized over the writers queued behind it.
fn write_json(runs: &[Run], writes_per_thread: usize) {
    let headline = runs
        .iter()
        .find(|r| r.threads == 8 && r.sync)
        .expect("8 sync writers were run")
        .syncs_per_write;

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"group_commit\",\n");
    out.push_str("  \"device\": \"sim-ssd\",\n");
    out.push_str(&format!(
        "  \"writes_per_thread\": {writes_per_thread},\n  \"value_len\": {VALUE_LEN},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"sync\": {}, \
             \"ops_per_sec\": {:.1}, \"wall_secs\": {:.4}, \"wal_syncs\": {}, \
             \"group_commits\": {}, \"syncs_per_write\": {:.4}}}{}\n",
            r.threads,
            r.sync,
            r.ops_per_sec,
            r.wall_secs,
            r.wal_syncs,
            r.group_commits,
            r.syncs_per_write,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"acceptance\": {{\"sync_8_threads_syncs_per_write\": {:.4}, \"required_max\": {MAX_SYNCS_PER_WRITE}, \"pass\": {}}}\n",
        headline,
        headline <= MAX_SYNCS_PER_WRITE
    ));
    out.push_str("}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_group_commit.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_group_commit.json");
    f.write_all(out.as_bytes()).expect("write json");
    println!("\nwrote {}", path.display());
    println!(
        "headline: syncs per write at 8 sync writers = {headline:.3} (required <= {MAX_SYNCS_PER_WRITE})"
    );
}
