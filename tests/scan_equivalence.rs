//! Scan fast-path equivalence: span readahead must be a pure performance
//! change. With or without a block cache (a cached block skips the span),
//! over compressed or verbatim blocks (whose stored sizes — what the span
//! reads slice by — differ), a scan must produce exactly what a `BTreeMap`
//! model predicts: for full scans, for short-range seeks landing mid-table,
//! and for the sharded engine's merged cursor. And every read a scan issues
//! is a span read on the scanning thread: a short seek reads one per run.
//!
//! A block cache starts warm after writes — a flushed or merged table's
//! blocks enter it as the table is written — so the `Db` case scans once
//! more after a reopen, with the cache cold, to keep the miss and
//! readahead path covered under a cache too.

use bytes::Bytes;
use pcp::lsm::{CompactionPolicy, Db, Options};
use pcp::shard::{HashRouter, ShardedDb};
use pcp::storage::{Env, EnvRef, RandomReadFile, ReadClass, SimDevice, SimEnv, WritableFile};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// Without a block cache, and with one the corpus fits in.
const BLOCK_CACHE_BYTES: [usize; 2] = [0, 64 << 10];

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))))
}

/// Tiny thresholds so even small corpora span several tables, and tiny
/// blocks so every table spans many blocks and a scan reads several spans.
fn scan_opts(compression: bool, block_cache_bytes: usize) -> Options {
    Options {
        memtable_bytes: 16 << 10,
        sstable_bytes: 8 << 10,
        block_bytes: 256,
        compression,
        block_cache_bytes,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 32 << 10,
            level_multiplier: 10,
        },
        ..Default::default()
    }
}

/// Key/value corpus with enough locality that delta encoding gets
/// exercised.
fn corpus_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    prop::collection::vec(
        (
            (0u32..2000).prop_map(|k| format!("key-{k:06}").into_bytes()),
            prop::collection::vec(any::<u8>(), 0..120),
        ),
        1..250,
    )
}

fn full_scan_db(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    it.status().unwrap();
    out
}

fn range_scan_db(db: &Db, start: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek(start);
    let mut out = Vec::new();
    while it.valid() && out.len() < limit {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    out
}

fn model_range(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    start: &[u8],
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .range(start.to_vec()..)
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Full scans and mid-table short-range seeks agree with the model
    /// for every (block encoding, block cache) combination.
    #[test]
    fn db_scans_match_model_across_encodings_and_block_cache(
        corpus in corpus_strategy(),
        start_sel in any::<prop::sample::Index>(),
        limit in 1usize..20,
    ) {
        let mut model = BTreeMap::new();
        for (k, v) in &corpus {
            model.insert(k.clone(), v.clone());
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let start = corpus[start_sel.index(corpus.len())].0.clone();
        let expected_range = model_range(&model, &start, limit);

        for compression in [false, true] {
            for cache in BLOCK_CACHE_BYTES {
                let env = mem_env();
                let mut db = Db::open(Arc::clone(&env), scan_opts(compression, cache)).unwrap();
                for (k, v) in &corpus {
                    db.put(k, v).unwrap();
                }
                db.flush().unwrap();
                for pass in ["written", "reopened"] {
                    if pass == "reopened" {
                        drop(db);
                        db = Db::open(Arc::clone(&env), scan_opts(compression, cache)).unwrap();
                    }
                    prop_assert_eq!(
                        &full_scan_db(&db), &expected,
                        "full scan diverged (compression={}, cache={}, {})", compression, cache, pass
                    );
                    prop_assert_eq!(
                        &range_scan_db(&db, &start, limit), &expected_range,
                        "range scan diverged (compression={}, cache={}, {})", compression, cache, pass
                    );
                }
            }
        }
    }

    /// The sharded engine's merged cursor sees the same equivalence: the
    /// scan fast path lives below the shard router, so it must be
    /// invisible through it too.
    #[test]
    fn sharded_scans_match_model_across_encodings_and_block_cache(
        corpus in corpus_strategy(),
        start_sel in any::<prop::sample::Index>(),
        limit in 1usize..20,
    ) {
        const SHARDS: usize = 2;
        let mut model = BTreeMap::new();
        for (k, v) in &corpus {
            model.insert(k.clone(), v.clone());
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let start = corpus[start_sel.index(corpus.len())].0.clone();
        let expected_range = model_range(&model, &start, limit);

        for compression in [false, true] {
            for cache in BLOCK_CACHE_BYTES {
                let envs: Vec<EnvRef> = (0..SHARDS).map(|_| mem_env()).collect();
                let db = ShardedDb::open_with_envs(
                    envs,
                    scan_opts(compression, cache),
                    Arc::new(HashRouter::new(SHARDS)),
                )
                .unwrap();
                for (k, v) in &corpus {
                    db.put(k, v).unwrap();
                }
                db.flush().unwrap();
                let got = db.scan(b"", usize::MAX).unwrap();
                prop_assert_eq!(
                    &got, &expected,
                    "sharded full scan diverged (compression={}, cache={})", compression, cache
                );
                let got_range = db.scan(&start, limit).unwrap();
                prop_assert_eq!(
                    &got_range, &expected_range,
                    "sharded range scan diverged (compression={}, cache={})", compression, cache
                );
            }
        }
    }
}

type ReadLog = Arc<Mutex<Vec<(ThreadId, ReadClass)>>>;

/// An env whose files log the thread and class of every read.
#[derive(Debug)]
struct ReadLogEnv {
    inner: EnvRef,
    log: ReadLog,
}

struct LoggedFile {
    inner: Arc<dyn RandomReadFile>,
    log: ReadLog,
}

impl RandomReadFile for LoggedFile {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.read_at_class(offset, len, ReadClass::Foreground)
    }

    fn read_at_class(&self, offset: u64, len: usize, class: ReadClass) -> io::Result<Bytes> {
        self.log
            .lock()
            .unwrap()
            .push((thread::current().id(), class));
        self.inner.read_at_class(offset, len, class)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for ReadLogEnv {
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        self.inner.create(name)
    }

    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>> {
        let inner = self.inner.open(name)?;
        Ok(Arc::new(LoggedFile {
            inner,
            log: Arc::clone(&self.log),
        }))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.inner.size(name)
    }
}

/// A store over a `ReadLogEnv` with no block cache whose keys span three
/// levels, one table staying in level 0 (its trigger is two), and its
/// model.
fn three_level_store(log: &ReadLog) -> (Db, BTreeMap<Vec<u8>, Vec<u8>>) {
    let env: EnvRef = Arc::new(ReadLogEnv {
        inner: mem_env(),
        log: Arc::clone(log),
    });
    let db = Db::open(env, scan_opts(true, 0)).unwrap();
    let mut model = BTreeMap::new();
    let mut put = |k: String, v: Vec<u8>| {
        db.put(k.as_bytes(), &v).unwrap();
        model.insert(k.into_bytes(), v);
    };
    for i in 0..4000u32 {
        put(
            format!("key-{:06}", (i * 7919) % 4000),
            format!("v{i}-{}", "z".repeat(60)).into(),
        );
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    for i in 0..20u32 {
        put(format!("key-{:06}", i * 200), b"newer".to_vec());
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let levels = db
        .level_summary()
        .iter()
        .filter(|(files, _)| *files > 0)
        .count();
    assert!(levels >= 3, "want three levels: {:?}", db.level_summary());
    (db, model)
}

/// Readahead has no thread of its own: a full scan over three levels
/// issues every read — the spans included — from the thread that scans.
#[test]
fn every_read_of_a_scan_runs_on_the_scanning_thread() {
    let log = ReadLog::default();
    let (db, model) = three_level_store(&log);

    log.lock().unwrap().clear();
    assert_eq!(full_scan_db(&db), model.into_iter().collect::<Vec<_>>());
    let reads = std::mem::take(&mut *log.lock().unwrap());
    let me = thread::current().id();
    assert!(
        reads.iter().all(|(thread, _)| *thread == me),
        "a read ran on another thread"
    );
    assert!(
        reads
            .iter()
            .any(|(_, class)| *class == ReadClass::Readahead),
        "no span was read"
    );
}

/// A seek reads each run once: with no block cache, a seek and a scan
/// that stays in the first block of every run issue exactly one span read
/// per run (level-0 table or deeper level) and no read of a single block;
/// a longer scan still reads only spans.
#[test]
fn a_seek_reads_each_run_with_one_span() {
    let log = ReadLog::default();
    let (db, _) = three_level_store(&log);
    let summary = db.level_summary();
    let runs = summary[0].0 + summary[1..].iter().filter(|(files, _)| *files > 0).count();
    full_scan_db(&db);

    // Every run holds keys from `key-000000` on, and a 256-byte block holds
    // at least three entries of these sizes, so two keys and the step past
    // the second keep every run's cursor in the first block it loaded: one
    // table entered per run, one span read each.
    log.lock().unwrap().clear();
    assert_eq!(range_scan_db(&db, b"key-000000", 2).len(), 2);
    let classes: Vec<_> = log
        .lock()
        .unwrap()
        .drain(..)
        .map(|(_, class)| class)
        .collect();
    assert_eq!(classes, vec![ReadClass::Readahead; runs], "{summary:?}");

    assert_eq!(range_scan_db(&db, b"key-001000", 500).len(), 500);
    let reads = std::mem::take(&mut *log.lock().unwrap());
    assert!(
        reads
            .iter()
            .all(|(_, class)| *class == ReadClass::Readahead),
        "a block read alone"
    );
}
