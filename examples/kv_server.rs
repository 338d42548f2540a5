//! KV service demo: a range-sharded engine behind the TCP front end (one
//! thread per connection, `DESIGN.md` §14).
//!
//! Opens a [`pcp::shard::ShardedDb`] over in-memory simulated devices,
//! starts the [`pcp::shard::KvServer`] on an ephemeral localhost port,
//! drives it through the wire with [`pcp::shard::KvClient`], and prints
//! per-shard throughput plus the service's counters and latencies.
//!
//! ```sh
//! cargo run --release --example kv_server
//! # or serve on a fixed address with real files:
//! cargo run --release --example kv_server -- 127.0.0.1:4700 /tmp/pcp-kv
//! ```
//!
//! With an address argument the server stays up until Ctrl-C so external
//! clients can connect; without one it runs the scripted demo and exits.
//!
//! Each shard compacts with the production default, C-PPCP
//! (`Options::default()`), as wide as the shared cross-shard scheduler's
//! grant — see `DESIGN.md` §15.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "example: drives the server over a raw TcpStream"
)]

use pcp::lsm::Options;
use pcp::obs::SampleValue;
use pcp::shard::{HashRouter, KvClient, KvServer, ShardedDb};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;

fn open_engine(dir: Option<&str>) -> Arc<ShardedDb> {
    let router = Arc::new(HashRouter::new(SHARDS));
    match dir {
        Some(dir) => {
            // Real files: one subdirectory per shard under `dir`.
            Arc::new(ShardedDb::open(dir, Options::default(), router).unwrap())
        }
        None => {
            let envs: Vec<EnvRef> = (0..SHARDS)
                .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30)))) as EnvRef)
                .collect();
            Arc::new(ShardedDb::open_with_envs(envs, Options::default(), router).unwrap())
        }
    }
}

fn print_shard_throughput(db: &ShardedDb, wall_secs: f64) {
    println!("per-shard throughput:");
    for (i, m) in db.shard_metrics().iter().enumerate() {
        println!(
            "  shard {i}: {:>8} puts ({:>9.0} put/s)  {:>7} gets  {} flushes  {} compactions",
            m.puts,
            m.puts as f64 / wall_secs,
            m.gets,
            m.flush_count,
            m.compaction_count,
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next();
    let dir = args.next();

    let db = open_engine(dir.as_deref());
    let bind = addr.as_deref().unwrap_or("127.0.0.1:0");
    let mut server = KvServer::start(Arc::clone(&db), bind).unwrap();
    println!(
        "pcp-kv: {SHARDS} shards, serving on {} ({})",
        server.local_addr(),
        dir.as_deref().unwrap_or("in-memory simulated devices"),
    );

    if addr.is_some() {
        // Serve until interrupted.
        println!("press Ctrl-C to stop");
        loop {
            #[expect(
                clippy::disallowed_methods,
                reason = "the server runs on its own threads; main idles until Ctrl-C"
            )]
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }

    // Through the wire: a client does puts, a get and a scan.
    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let t0 = Instant::now();
    for i in 0..5_000u32 {
        client
            .put(
                format!("wire-{i:06}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
    }
    let wire_wall = t0.elapsed();
    assert_eq!(
        client.get(b"wire-004242").unwrap(),
        Some(b"value-4242".to_vec())
    );
    let page = client.scan(b"wire-004990", 100).unwrap();
    println!(
        "wire: 5000 puts in {:.2?} ({:.0} op/s), scan from wire-004990 returned {} keys",
        wire_wall,
        5_000.0 / wire_wall.as_secs_f64(),
        page.len()
    );

    db.wait_idle().unwrap();
    print_shard_throughput(&db, t0.elapsed().as_secs_f64());

    // The service counters and latencies, from the registry METRICS
    // serves (the per-shard engine counters are printed above).
    let snap = server.registry().snapshot();
    let p99_us = |name: &str| match snap.get(name).map(|s| &s.value) {
        Some(SampleValue::Histogram(h)) => h.quantile(0.99) as f64 / 1e3,
        _ => 0.0,
    };
    println!(
        "service: {} ops, {} errors, read p99 {:.1} µs, write p99 {:.1} µs",
        snap.counter("pcp_service_requests_total", &[]),
        snap.counter("pcp_service_errors_total", &[]),
        p99_us("pcp_service_read_latency_nanoseconds"),
        p99_us("pcp_service_write_latency_nanoseconds"),
    );
    println!("health: {:?}", db.health());

    // Observability: the same registry backs the METRICS wire op and the
    // machine-readable JSON snapshot (metric contract: OBSERVABILITY.md).
    let exposition = client.metrics_text().unwrap();
    let sample_lines = pcp::obs::validate_exposition(&exposition).unwrap();
    println!("metrics: {sample_lines} samples over the wire; service series:");
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("pcp_service_") && !l.contains("_bucket"))
        .take(6)
    {
        println!("  {line}");
    }
    let json = server.registry().snapshot().to_json();
    let json_path = std::env::temp_dir().join("pcp_kv_server_obs.json");
    std::fs::write(&json_path, format!("{json}\n")).unwrap();
    println!(
        "metrics: full JSON snapshot ({} bytes) written to {}",
        json.len(),
        json_path.display()
    );

    drop(client);
    server.shutdown();
    println!("server drained and stopped");
}
