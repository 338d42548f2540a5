//! End-to-end test of the TCP KV service: a real server on an ephemeral
//! localhost port, a real client, a few thousand mixed operations
//! mirrored in an in-process model, scans, the service and engine
//! counters, error surfaces, and graceful shutdown.

use pcp_lsm::{CompactionPolicy, Options};
use pcp_obs::{MetricsSnapshot, SampleValue};
use pcp_shard::{BatchItem, HashRouter, KvClient, KvServer, Request, Response, ShardedDb};
use pcp_storage::{EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv};
use std::collections::BTreeMap;
use std::sync::Arc;

fn sharded(n: usize) -> Arc<ShardedDb> {
    let envs: Vec<EnvRef> = (0..n)
        .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))) as EnvRef)
        .collect();
    let opts = Options {
        memtable_bytes: 32 << 10,
        sstable_bytes: 32 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 128 << 10,
            level_multiplier: 10,
        },
        ..Options::default()
    };
    Arc::new(ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(n))).unwrap())
}

/// The value of `name` in a Prometheus exposition's unlabelled sample.
fn exposed(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Every shard's value of the per-shard engine counter `name`.
fn per_shard(snap: &MetricsSnapshot, name: &str) -> Vec<u64> {
    snap.samples
        .iter()
        .filter(|s| s.name == name && s.labels.iter().any(|(k, _)| k == "shard"))
        .map(|s| match s.value {
            SampleValue::Counter(c) => c,
            ref other => panic!("{name} is not a counter: {other:?}"),
        })
        .collect()
}

/// splitmix64 for a deterministic mixed-op stream.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn kv_service_end_to_end() {
    let db = sharded(4);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "ephemeral port must be resolved");

    let mut client = KvClient::connect(addr).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = 0x5EED_u64;
    let mut reads = 0u64;

    // ≥1000 mixed operations, every read checked against the model.
    for i in 0..1500u64 {
        let k = mix(&mut rng) % 400;
        let key = format!("user{k:05}").into_bytes();
        match mix(&mut rng) % 10 {
            0..=4 => {
                let value = format!("payload-{i}-{k}").into_bytes();
                client.put(&key, &value).unwrap();
                model.insert(key, value);
            }
            5 => {
                client.delete(&key).unwrap();
                model.remove(&key);
            }
            6 => {
                // Multi-key batch: spans shards under the hash router.
                let key2 = format!("user{:05}", mix(&mut rng) % 400).into_bytes();
                let del = format!("user{:05}", mix(&mut rng) % 400).into_bytes();
                let value = format!("batched-{i}").into_bytes();
                client
                    .batch(vec![
                        BatchItem::Put(key.clone(), value.clone()),
                        BatchItem::Put(key2.clone(), value.clone()),
                        BatchItem::Delete(del.clone()),
                    ])
                    .unwrap();
                // Mirror in the same order the engine applies them.
                model.insert(key, value.clone());
                model.insert(key2, value);
                model.remove(&del);
            }
            _ => {
                reads += 1;
                assert_eq!(
                    client.get(&key).unwrap(),
                    model.get(&key).cloned(),
                    "divergence at op {i}"
                );
            }
        }
    }
    assert!(reads > 100, "op mix degenerate: only {reads} reads");

    // Full scan over the wire equals the model, in key order.
    let entries = client.scan(b"", 100_000).unwrap();
    let expect: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(entries, expect, "remote scan diverged from model");

    // Bounded scan from a mid-keyspace start respects start and limit.
    let bounded = client.scan(b"user00200", 10).unwrap();
    let expect_bounded: Vec<(Vec<u8>, Vec<u8>)> = model
        .range(b"user00200".to_vec()..)
        .take(10)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(bounded, expect_bounded);

    // METRICS carries the service counters over the wire.
    let text = client.metrics_text().unwrap();
    let ops = exposed(&text, "pcp_service_requests_total");
    assert!(ops >= 1500, "server counted {ops} ops");
    assert_eq!(exposed(&text, "pcp_service_errors_total"), 0);

    // The registry carries the engine counters per shard.
    let snap = server.registry().snapshot();
    let puts = per_shard(&snap, "pcp_engine_puts_total");
    assert_eq!(puts.len(), 4);
    assert!(
        puts.iter().all(|&p| p > 0),
        "hash routing left a shard idle: {puts:?}"
    );
    assert_eq!(
        puts.iter().sum::<u64>(),
        db.metrics().puts,
        "per-shard puts must sum to the aggregate"
    );
    let gets: u64 = per_shard(&snap, "pcp_engine_gets_total").iter().sum();
    assert!(gets > 0);
    // Latency capture is live, and the server-side scrape counts at least
    // what the client saw.
    let read_latency = snap.get("pcp_service_read_latency_nanoseconds").unwrap();
    match &read_latency.value {
        SampleValue::Histogram(h) => assert!(h.count > 0, "no read latency recorded"),
        other => panic!("read latency is not a histogram: {other:?}"),
    }
    assert!(snap.counter("pcp_service_requests_total", &[]) >= ops);

    drop(client);
    server.shutdown();
    // After shutdown the port no longer accepts work.
    assert!(
        KvClient::connect(addr)
            .and_then(|mut c| c.get(b"user00001"))
            .is_err(),
        "server still serving after shutdown"
    );

    // The engine survives the service: data is intact underneath.
    for (k, v) in model.iter().take(50) {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
    // And a dropped service lets go of it.
    drop(server);
    assert_eq!(Arc::strong_count(&db), 1, "server leaked its engine handle");
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn kv_service_concurrent_clients() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..4u8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = KvClient::connect(addr).unwrap();
                for i in 0..250u32 {
                    let key = format!("c{t}-{i:04}").into_bytes();
                    client.put(&key, format!("v{t}-{i}").as_bytes()).unwrap();
                }
                for i in 0..250u32 {
                    let key = format!("c{t}-{i:04}").into_bytes();
                    assert_eq!(
                        client.get(&key).unwrap(),
                        Some(format!("v{t}-{i}").into_bytes())
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut client = KvClient::connect(addr).unwrap();
    let text = client.metrics_text().unwrap();
    assert!(exposed(&text, "pcp_service_requests_total") >= 2000);
    assert_eq!(exposed(&text, "pcp_service_errors_total"), 0);
    let all = client.scan(b"", 100_000).unwrap();
    assert_eq!(all.len(), 1000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
    server.shutdown();
}

/// METRICS round-trips over TCP, the exposition parses line by line, and
/// the series it carries agree with the server-side registry and render.
#[test]
fn kv_service_metrics_exposition() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();

    for i in 0..500u32 {
        let key = format!("m{i:05}").into_bytes();
        client.put(&key, format!("v{i}").as_bytes()).unwrap();
    }
    for i in 0..100u32 {
        let key = format!("m{i:05}").into_bytes();
        assert!(client.get(&key).unwrap().is_some());
    }

    let text = client.metrics_text().unwrap();
    // Every line is well-formed Prometheus text exposition.
    let samples = pcp_obs::validate_exposition(&text).unwrap();
    assert!(
        samples > 50,
        "suspiciously small exposition: {samples} samples"
    );

    // Service series are present and consistent with a later server-side
    // scrape.
    let served = exposed(&text, "pcp_service_requests_total");
    let snap = server.registry().snapshot();
    let later = snap.counter("pcp_service_requests_total", &[]);
    assert!(
        served >= 601 && served <= later,
        "served {served} vs a later scrape's {later}"
    );
    assert!(text.contains("pcp_service_read_latency_nanoseconds_bucket"));
    assert!(text.contains("pcp_service_active_connections"));

    // Engine series carry per-shard labels for every shard.
    for shard in 0..2 {
        assert!(
            text.contains(&format!("pcp_engine_puts_total{{shard=\"{shard}\"}}")),
            "missing per-shard puts for shard {shard}"
        );
    }
    // Shared limiter gauges ride along.
    assert!(text.contains("pcp_engine_compaction_permits"));

    // The wire text is the same render the server exposes locally, modulo
    // counters that moved between the two scrapes.
    let local = server.metrics_text();
    pcp_obs::validate_exposition(&local).unwrap();
    assert_eq!(
        text.lines().filter(|l| l.starts_with("# TYPE")).count(),
        local.lines().filter(|l| l.starts_with("# TYPE")).count(),
        "wire and local expositions expose different series"
    );

    server.shutdown();
}

#[test]
fn kv_service_error_and_edge_paths() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();

    // Missing key.
    assert_eq!(client.get(b"absent").unwrap(), None);
    // Empty value round-trips.
    client.put(b"empty-val", b"").unwrap();
    assert_eq!(client.get(b"empty-val").unwrap(), Some(Vec::new()));
    // Delete of a missing key succeeds (LSM tombstone semantics).
    client.delete(b"never-existed").unwrap();
    // Scan limit zero returns nothing.
    assert!(client.scan(b"", 0).unwrap().is_empty());
    // An oversized scan limit is clamped server-side, not an error.
    client.put(b"one", b"1").unwrap();
    assert!(!client.scan(b"", u64::MAX).unwrap().is_empty());
    // A raw malformed request yields Response::Err, and the connection
    // keeps working afterwards.
    match client.request(&Request::Get(Vec::new())).unwrap() {
        Response::NotFound | Response::Err(_) => {}
        other => panic!("empty-key get: unexpected {other:?}"),
    }
    assert_eq!(client.get(b"one").unwrap(), Some(b"1".to_vec()));

    server.shutdown();
}

/// A SCAN the engine could not complete gets the error response, not the
/// entries it happened to reach: over the wire a short `Entries` cannot be
/// told from "that is all there is".
#[test]
fn scan_over_a_shard_that_cannot_read_gets_an_error_response() {
    let mem = || Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20)))) as EnvRef;
    let fault = FaultEnv::new(mem(), 1);
    let envs = vec![Arc::new(fault.clone()) as EnvRef, mem()];
    let router = Arc::new(HashRouter::new(2));
    let db = Arc::new(ShardedDb::open_with_envs(envs, Options::default(), router).unwrap());
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..200 {
        client
            .put(format!("user{i:05}").as_bytes(), b"value")
            .unwrap();
    }
    db.flush().unwrap();
    assert_eq!(client.scan(b"", 1000).unwrap().len(), 200);

    fault
        .set_probability(FaultOp::ReadAt, 1.0)
        .set_probabilistic_kind(FaultKind::Permanent)
        .set_file_filter(".sst");
    let scan = Request::Scan {
        start: Vec::new(),
        limit: 1000,
    };
    match client.request(&scan).unwrap() {
        Response::Err(msg) => assert!(msg.contains("injected permanent fault"), "{msg}"),
        other => panic!("expected an error response, got {other:?}"),
    }
    server.shutdown();
}
