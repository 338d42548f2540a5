//! ShardedDb acceptance tests: observable equivalence to a single `Db`,
//! snapshot atomicity of cross-shard batches, per-shard health
//! attribution under injected faults, compaction admission capping, and
//! real-filesystem open/reopen through `ShardedDb::open`.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test harness: checks `ShardedDb::open` against the real filesystem"
)]

use pcp_lsm::{CompactionLimiter, CompactionPolicy, Db, Options, WriteBatch};
use pcp_shard::{HashRouter, RangeRouter, Router, ShardedDb, ShardedHealth};
use pcp_storage::{EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20))))
}

/// Small thresholds so a few thousand writes exercise flushes and
/// compactions, not just the memtable.
fn small_opts() -> Options {
    Options {
        memtable_bytes: 16 << 10,
        sstable_bytes: 16 << 10,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 64 << 10,
            level_multiplier: 10,
        },
        ..Options::default()
    }
}

fn sharded(router: Arc<dyn Router>, opts: Options) -> ShardedDb {
    let envs = (0..router.shards()).map(|_| mem_env()).collect();
    ShardedDb::open_with_envs(envs, opts, router).unwrap()
}

fn full_scan(db: &ShardedDb) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    out
}

fn full_scan_single(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    out
}

/// splitmix64 — the tests' private op-stream generator.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Router-independent linearized model: under any interleaving of
    /// put/delete/get/scan, a sharded engine (any shard count, either
    /// router) is observably identical to one `Db` fed the same ops.
    #[test]
    fn sharded_is_observably_a_single_db(seed in any::<u64>(), n_ops in 300usize..600) {
        for n_shards in [1usize, 2, 4] {
            let routers: Vec<Arc<dyn Router>> = vec![
                Arc::new(HashRouter::new(n_shards)),
                Arc::new(RangeRouter::uniform(n_shards)),
            ];
            for router in routers {
                let reference = Db::open(mem_env(), small_opts()).unwrap();
                let shardeddb = sharded(router, small_opts());
                let mut rng = seed;
                for _ in 0..n_ops {
                    let k = mix(&mut rng) % 150;
                    let key = format!("key-{k:04}").into_bytes();
                    match mix(&mut rng) % 10 {
                        // 60 % puts, 20 % deletes, 20 % point reads.
                        0..=5 => {
                            let value =
                                format!("v{}-{}", k, mix(&mut rng) % 1000).into_bytes();
                            reference.put(&key, &value).unwrap();
                            shardeddb.put(&key, &value).unwrap();
                        }
                        6..=7 => {
                            reference.delete(&key).unwrap();
                            shardeddb.delete(&key).unwrap();
                        }
                        _ => {
                            prop_assert_eq!(
                                reference.get(&key).unwrap(),
                                shardeddb.get(&key).unwrap()
                            );
                        }
                    }
                }
                // Full scans agree in content *and* order.
                prop_assert_eq!(full_scan_single(&reference), full_scan(&shardeddb));
                // Partial scans from a mid-keyspace seek agree too.
                let mut it = shardeddb.iter();
                it.seek(b"key-0075");
                let mut sit = reference.iter();
                sit.seek(b"key-0075");
                while sit.valid() {
                    prop_assert!(it.valid());
                    prop_assert_eq!(sit.key(), it.key());
                    prop_assert_eq!(sit.value(), it.value());
                    sit.next();
                    it.next();
                }
                prop_assert!(!it.valid());
                shardeddb.wait_idle().unwrap();
            }
        }
    }
}

/// A multi-shard `WriteBatch` is atomic with respect to snapshots: a
/// snapshot taken at any moment sees either all of a batch or none of it.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn cross_shard_batch_never_torn_by_snapshot() {
    // Four range shards with one known key each.
    let router = Arc::new(RangeRouter::new(vec![
        b"b".to_vec(),
        b"c".to_vec(),
        b"d".to_vec(),
    ]));
    let keys: [&[u8]; 4] = [b"a-key", b"b-key", b"c-key", b"d-key"];
    let db = Arc::new(sharded(router, small_opts()));
    for key in keys {
        let s = db.shard_of(key);
        assert_eq!(usize::from(key[0] - b'a'), s, "fixture routing");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut version = 0u64;
            while !stop.load(Ordering::Relaxed) {
                version += 1;
                let mut batch = WriteBatch::new();
                for key in keys {
                    batch.put(key, version.to_string().as_bytes());
                }
                db.write(batch).unwrap();
            }
        })
    };

    // The reader, not the scheduler, ends the run: it stops the writer
    // after `SNAPSHOTS` snapshots that saw a batch, so every one of them
    // was taken while the writer was still writing.
    const SNAPSHOTS: u32 = 200;
    let mut observed = 0;
    while observed < SNAPSHOTS && !writer.is_finished() {
        let snap = db.snapshot();
        let reads: Vec<Option<Vec<u8>>> =
            keys.iter().map(|k| db.get_at(k, &snap).unwrap()).collect();
        // Pre-first-batch: all four absent. Afterwards: all four present
        // and equal — any mixture is a torn batch.
        let present: Vec<&Vec<u8>> = reads.iter().flatten().collect();
        if present.is_empty() {
            continue;
        }
        assert_eq!(present.len(), 4, "snapshot saw a partial batch: {reads:?}");
        assert!(
            present.iter().all(|v| *v == present[0]),
            "snapshot mixed two batches: {reads:?}"
        );
        observed += 1;
    }
    stop.store(true, Ordering::Relaxed);
    // A writer that finished early panicked; this surfaces its message.
    writer.join().unwrap();

    // The merged iterator at a snapshot shows the same atomicity.
    let snap = db.snapshot();
    let mut it = db.iter_at(&snap);
    it.seek_to_first();
    let mut seen = Vec::new();
    while it.valid() {
        seen.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    assert_eq!(seen.len(), 4);
    assert!(
        seen.windows(2).all(|w| w[0].0 < w[1].0),
        "merged scan order"
    );
    assert!(seen.iter().all(|(_, v)| v == &seen[0].1));
}

/// Aggregated health points at the wedged shard, and healthy shards keep
/// serving.
/// `ShardedDb::compact_range` hands the bounds to every shard: the bounded
/// pick must leave each shard's newer versions on top (the single-`Db`
/// case is `bounded_compact_range_keeps_newer_versions_on_top`).
#[test]
fn bounded_compact_range_keeps_newer_versions_on_top() {
    // Shard 0 holds keys below "n", shard 1 the rest.
    let db = sharded(
        Arc::new(RangeRouter::new(vec![b"n".to_vec()])),
        Options::default(),
    );
    db.put(b"b", b"old").unwrap();
    db.put(b"p", b"old").unwrap();
    db.flush().unwrap();
    db.put(b"b", b"new").unwrap();
    db.put(b"m", b"x").unwrap();
    db.put(b"p", b"new").unwrap();
    db.put(b"z", b"x").unwrap();
    db.flush().unwrap();
    // In each shard only the newer table overlaps the range.
    db.compact_range(Some(b"m"), Some(b"z")).unwrap();
    assert_eq!(db.get(b"b").unwrap(), Some(b"new".to_vec()));
    assert_eq!(db.get(b"p").unwrap(), Some(b"new".to_vec()));
}

#[test]
fn health_reports_first_wedged_shard_with_index() {
    let router = Arc::new(RangeRouter::new(vec![b"m".to_vec()]));
    let good = mem_env();
    let faulty = Arc::new(FaultEnv::new(mem_env(), 0xBAD5EED));
    // Wedge shard 1's first SSTable write (flush → create "NNNNNN.sst").
    faulty.schedule_on_file(FaultOp::Create, 1, FaultKind::Permanent, ".sst");
    let envs: Vec<EnvRef> = vec![good, faulty];
    let db = ShardedDb::open_with_envs(envs, small_opts(), router).unwrap();
    assert!(db.health().is_ok());

    // Writes below "m" land on shard 0, above on shard 1.
    for i in 0..500u32 {
        db.put(format!("a{i:05}").as_bytes(), &[7u8; 64]).unwrap();
        // Shard 1 writes stop succeeding once its flush failure latches.
        let _ = db.put(format!("z{i:05}").as_bytes(), &[7u8; 64]);
    }
    let _ = db.shard(1).flush();

    match db.health() {
        ShardedHealth::ShardError { shard, error } => {
            assert_eq!(shard, 1, "the wedged shard must be identified");
            assert!(!error.is_empty());
        }
        ShardedHealth::Ok => panic!("injected permanent fault never latched"),
    }
    // Shard 0 is unaffected: still healthy, still writable, still readable.
    assert!(db.shard(0).health().is_ok());
    db.put(b"a-final", b"ok").unwrap();
    assert_eq!(db.get(b"a-final").unwrap(), Some(b"ok".to_vec()));
}

/// The shared limiter really serializes compactions across shards: with
/// one permit, the concurrent-compaction high-water mark stays at one
/// even with four shards under load.
#[test]
fn compaction_limiter_caps_concurrent_shards() {
    let limiter = CompactionLimiter::new(1);
    let mut opts = small_opts();
    opts.compaction_limiter = Some(Arc::clone(&limiter));
    let db = sharded(Arc::new(HashRouter::new(4)), opts);
    assert_eq!(db.limiter().permits(), 1);

    for i in 0..6000u64 {
        let key = format!("spread-{:08}", (i * 2654435761) % 100_000);
        db.put(key.as_bytes(), &[b'x'; 100]).unwrap();
    }
    db.wait_idle().unwrap();

    let m = db.metrics();
    assert!(m.flush_count > 0, "load must reach the flush path");
    assert!(
        m.compaction_count > 0,
        "load must reach the compaction path: {m:?}"
    );
    assert!(
        limiter.peak() <= 1,
        "compactions overlapped past the cap: peak {}",
        limiter.peak()
    );
    // Every shard took part.
    for (i, sm) in db.shard_metrics().iter().enumerate() {
        assert!(sm.puts > 0, "shard {i} received no writes");
    }
    // And the merged state is intact.
    assert_eq!(full_scan(&db).len(), {
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..6000u64 {
            distinct.insert((i * 2654435761) % 100_000);
        }
        distinct.len()
    });
}

/// `ShardedDb::open`: per-shard subdirectories of its directory on a real
/// filesystem, surviving close and reopen.
#[test]
fn open_with_dir_persists_across_reopen() {
    let dir = std::env::temp_dir().join(format!("pcp-shard-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut model = BTreeMap::new();
    {
        let db = ShardedDb::open(
            &dir,
            Options {
                sync_writes: true,
                ..Options::default()
            },
            Arc::new(HashRouter::new(3)),
        )
        .unwrap();
        for i in 0..300u32 {
            let key = format!("persist-{i:04}").into_bytes();
            let value = format!("value-{i}").into_bytes();
            db.put(&key, &value).unwrap();
            model.insert(key, value);
        }
        db.flush().unwrap();
    }
    for i in 0..3 {
        assert!(
            dir.join(format!("shard-{i:03}")).is_dir(),
            "missing per-shard subdirectory {i}"
        );
    }
    {
        let db = ShardedDb::open(&dir, Options::default(), Arc::new(HashRouter::new(3))).unwrap();
        let scanned: BTreeMap<Vec<u8>, Vec<u8>> = full_scan(&db).into_iter().collect();
        assert_eq!(scanned, model, "reopened engine lost or mangled data");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequence-vector snapshots isolate reads from later writes on every
/// shard.
#[test]
fn snapshot_sequence_vector_isolates_reads() {
    let db = sharded(Arc::new(HashRouter::new(4)), small_opts());
    for i in 0..50u32 {
        db.put(format!("s{i}").as_bytes(), b"before").unwrap();
    }
    let snap = db.snapshot();
    assert_eq!(snap.sequences().len(), 4);
    for i in 0..50u32 {
        db.put(format!("s{i}").as_bytes(), b"after").unwrap();
    }
    db.put(b"s-new", b"after").unwrap();
    for i in 0..50u32 {
        let key = format!("s{i}");
        assert_eq!(
            db.get_at(key.as_bytes(), &snap).unwrap(),
            Some(b"before".to_vec()),
            "snapshot read of {key} leaked a later write"
        );
        assert_eq!(db.get(key.as_bytes()).unwrap(), Some(b"after".to_vec()));
    }
    assert_eq!(db.get_at(b"s-new", &snap).unwrap(), None);
    let mut it = db.iter_at(&snap);
    it.seek_to_first();
    let mut n = 0;
    while it.valid() {
        assert_eq!(it.value(), b"before");
        n += 1;
        it.next();
    }
    assert_eq!(n, 50);
}

/// A sharded scan is one merge over every shard's sources, and each source
/// is read at its own shard's sequence. The shards' sequences here differ
/// a hundredfold, and later versions sit in memtables and level-0 tables
/// alike, so a merge that read every source at one sequence would show
/// the snapshot later writes or hide earlier ones.
#[test]
fn one_merge_reads_each_shard_at_its_own_sequence() {
    let db = sharded(
        Arc::new(RangeRouter::new(vec![b"m".to_vec()])),
        small_opts(),
    );
    let mut model = BTreeMap::new();
    let put = |model: &mut BTreeMap<Vec<u8>, Vec<u8>>, key: String, value: String| {
        db.put(key.as_bytes(), value.as_bytes()).unwrap();
        model.insert(key.into_bytes(), value.into_bytes());
    };
    for i in 0..1000u32 {
        put(&mut model, format!("a{i:04}"), format!("a-before-{i}"));
    }
    for i in 0..10u32 {
        put(&mut model, format!("z{i:02}"), format!("z-before-{i}"));
    }
    let before = model.clone();
    let snap = db.snapshot();
    let seqs = snap.sequences();
    assert!(seqs[0] >= 100 * seqs[1], "sequences {seqs:?}");

    for i in (0..1000u32).step_by(7) {
        put(&mut model, format!("a{i:04}"), format!("a-after-{i}"));
    }
    for i in 0..5u32 {
        put(&mut model, format!("z{i:02}"), format!("z-after-{i}"));
        put(&mut model, format!("z{:02}", 20 + i), format!("z-new-{i}"));
        put(
            &mut model,
            format!("a{:04}", 2000 + i),
            format!("a-new-{i}"),
        );
    }
    for key in ["a0003", "a0500", "z07", "z08"] {
        db.delete(key.as_bytes()).unwrap();
        model.remove(key.as_bytes());
    }
    db.flush().unwrap();
    put(&mut model, "a0001".into(), "a-in-memtable".into());
    put(&mut model, "z09".into(), "z-in-memtable".into());
    assert!(
        db.level_summary()[0].0 > 0,
        "no level-0 table holds a later write"
    );

    let from = |it: &mut pcp_shard::ShardedIter, start: Option<&[u8]>| {
        match start {
            Some(key) => it.seek(key),
            None => it.seek_to_first(),
        }
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().unwrap();
        out
    };
    let tail = |m: &BTreeMap<Vec<u8>, Vec<u8>>, start: &[u8]| -> Vec<(Vec<u8>, Vec<u8>)> {
        m.range(start.to_vec()..)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    let mut it = db.iter_at(&snap);
    assert_eq!(
        from(&mut it, None),
        tail(&before, b""),
        "full scan at the snapshot"
    );
    for start in [&b"a0500"[..], b"z05"] {
        assert_eq!(
            from(&mut it, Some(start)),
            tail(&before, start),
            "seek to {:?} at the snapshot",
            String::from_utf8_lossy(start)
        );
    }
    assert_eq!(
        full_scan(&db),
        tail(&model, b""),
        "full scan after the writes"
    );
    let mut it = db.iter();
    assert_eq!(from(&mut it, Some(b"z05")), tail(&model, b"z05"));
}

/// Constructor misuse is rejected, not mis-sharded.
#[test]
fn constructor_validation() {
    let err = ShardedDb::open_with_envs(
        vec![mem_env()],
        Options::default(),
        Arc::new(HashRouter::new(2)),
    )
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// The insert driver replays unchanged against the sharded engine through
/// the `KvStore` backend trait.
#[test]
fn workload_drivers_run_against_sharded_backend() {
    use pcp_workload::{run_inserts, WorkloadConfig};
    let db = sharded(Arc::new(HashRouter::new(2)), small_opts());
    let report = run_inserts(
        &db,
        &WorkloadConfig {
            entries: 3000,
            ..WorkloadConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.entries, 3000);
    assert!(report.iops > 0.0);
    assert!(report.flush_count > 0);

    // Per-shard throughput is observable for reporting.
    let per_shard = db.shard_metrics();
    assert_eq!(per_shard.len(), 2);
    assert!(per_shard.iter().all(|m| m.puts > 0));
}
