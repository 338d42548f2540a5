//! Scan fast-path equivalence: the pipelined-readahead iterator must be a
//! pure performance change. With readahead on or off, over compressed or
//! verbatim blocks (whose stored sizes — what the span reads slice by —
//! differ), a scan must produce exactly what a `BTreeMap` model predicts:
//! for full scans, for short-range seeks landing mid-table, and for the
//! sharded engine's merged cursor.

use pcp::lsm::{CompactionPolicy, Db, Options};
use pcp::shard::{HashRouter, ShardedDb};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))))
}

/// Tiny thresholds so even small corpora span several tables, and tiny
/// blocks so every table spans enough blocks for the sequential-run
/// trigger to actually start the readahead pipeline.
fn scan_opts(compression: bool, readahead: bool) -> Options {
    Options {
        memtable_bytes: 16 << 10,
        sstable_bytes: 8 << 10,
        block_bytes: 256,
        compression,
        readahead,
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
    /// for every (block encoding, readahead) combination.
    #[test]
    fn db_scans_match_model_across_encodings_and_readahead(
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
            for readahead in [false, true] {
                let db = Db::open(mem_env(), scan_opts(compression, readahead)).unwrap();
                for (k, v) in &corpus {
                    db.put(k, v).unwrap();
                }
                db.flush().unwrap();
                prop_assert_eq!(
                    &full_scan_db(&db), &expected,
                    "full scan diverged (compression={}, readahead={})", compression, readahead
                );
                prop_assert_eq!(
                    &range_scan_db(&db, &start, limit), &expected_range,
                    "range scan diverged (compression={}, readahead={})", compression, readahead
                );
            }
        }
    }

    /// The sharded engine's merged cursor sees the same equivalence: the
    /// scan fast path lives below the shard router, so it must be
    /// invisible through it too.
    #[test]
    fn sharded_scans_match_model_across_encodings_and_readahead(
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
            for readahead in [false, true] {
                let envs: Vec<EnvRef> = (0..SHARDS).map(|_| mem_env()).collect();
                let db = ShardedDb::open_with_envs(
                    envs,
                    scan_opts(compression, readahead),
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
                    "sharded full scan diverged (compression={}, readahead={})", compression, readahead
                );
                let got_range = db.scan(&start, limit).unwrap();
                prop_assert_eq!(
                    &got_range, &expected_range,
                    "sharded range scan diverged (compression={}, readahead={})", compression, readahead
                );
            }
        }
    }
}
