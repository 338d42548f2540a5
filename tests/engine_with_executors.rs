//! End-to-end engine runs under every compaction executor: a mixed
//! put/overwrite/delete workload checked against a BTreeMap oracle,
//! including across restarts, on latency-free and latency-modeled devices.

use pcp::compaction::SimpleMergeExec;
use pcp::core::PipelinedExec;
use pcp::lsm::{CompactionExec, CompactionPolicy, Db, Options};
use pcp::storage::{EnvRef, SimDevice, SimEnv, SsdModel};
use std::collections::BTreeMap;
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))))
}

fn small_opts(executor: Arc<dyn CompactionExec>) -> Options {
    Options {
        memtable_bytes: 64 << 10,
        sstable_bytes: 32 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 128 << 10,
            level_multiplier: 10,
        },
        executor,
        ..Default::default()
    }
}

/// Deterministic mixed workload; returns the oracle of final state.
fn apply_workload(db: &Db, ops: u64, seed: u64) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut oracle: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    let mut x = seed | 1;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("key{:05}", x % 3000).into_bytes();
        if x.is_multiple_of(11) {
            db.delete(&key).unwrap();
            oracle.insert(key, None);
        } else {
            let value = format!("v{i}-{}", "d".repeat((x % 90) as usize)).into_bytes();
            db.put(&key, &value).unwrap();
            oracle.insert(key, Some(value));
        }
    }
    oracle
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect()
}

fn check_against_oracle(db: &Db, oracle: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Full scan equals oracle.
    let mut it = db.iter();
    it.seek_to_first();
    let mut scanned = BTreeMap::new();
    while it.valid() {
        scanned.insert(it.key().to_vec(), it.value().to_vec());
        it.next();
    }
    assert_eq!(&scanned, oracle, "scan mismatch");
    // Spot gets (present and absent).
    for (k, v) in oracle.iter().take(50) {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
    assert_eq!(db.get(b"key99999").unwrap(), None);
}

fn executors() -> Vec<(&'static str, Arc<dyn CompactionExec>)> {
    vec![
        ("simple", Arc::new(SimpleMergeExec)),
        ("scp", Arc::new(PipelinedExec::scp(16 << 10))),
        ("pcp", Arc::new(PipelinedExec::pcp(16 << 10))),
        ("c-ppcp", Arc::new(PipelinedExec::c_ppcp(16 << 10, 3))),
        ("s-ppcp", Arc::new(PipelinedExec::s_ppcp(16 << 10, 2))),
    ]
}

#[test]
fn mixed_workload_correct_under_every_executor() {
    for (name, exec) in executors() {
        let db = Db::open(mem_env(), small_opts(exec)).unwrap();
        let oracle = apply_workload(&db, 20_000, 0xAB + name.len() as u64);
        db.wait_idle().unwrap();
        let m = db.metrics();
        assert!(
            m.compaction_count + m.trivial_moves > 0,
            "{name}: workload must trigger compactions"
        );
        check_against_oracle(&db, &oracle);
    }
}

#[test]
fn recovery_preserves_state_under_pipelined_executor() {
    let env = mem_env();
    let oracle = {
        let db = Db::open(
            Arc::clone(&env),
            small_opts(Arc::new(PipelinedExec::pcp(16 << 10))),
        )
        .unwrap();
        let oracle = apply_workload(&db, 15_000, 0x77);
        // Drop mid-flight: no explicit flush; WAL must carry the tail.
        oracle
    };
    let db = Db::open(env, small_opts(Arc::new(PipelinedExec::pcp(16 << 10)))).unwrap();
    check_against_oracle(&db, &oracle);
}

#[test]
fn pipelined_compaction_on_latency_modeled_ssd() {
    // Same correctness on a device with real (scaled) latencies. The
    // 0.02 time-scale keeps the test fast while exercising timed I/O.
    let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::new(
        "ssd0",
        SsdModel::default(),
        1 << 40,
        0.02,
    ))));
    let db = Db::open(env, small_opts(Arc::new(PipelinedExec::pcp(16 << 10)))).unwrap();
    let oracle = apply_workload(&db, 10_000, 0x99);
    db.compact_range(None, None).unwrap();
    check_against_oracle(&db, &oracle);
    // After full compaction everything sits in one level.
    let populated: Vec<usize> = db
        .level_summary()
        .iter()
        .enumerate()
        .filter(|(_, (files, _))| *files > 0)
        .map(|(l, _)| l)
        .collect();
    assert_eq!(populated.len(), 1, "levels: {:?}", db.level_summary());
}

#[test]
fn executor_swap_between_restarts() {
    // Data written under SCP must be readable under PCP and vice versa
    // (the on-disk format is executor-independent).
    let env = mem_env();
    let oracle = {
        let db = Db::open(
            Arc::clone(&env),
            small_opts(Arc::new(PipelinedExec::scp(16 << 10))),
        )
        .unwrap();
        let oracle = apply_workload(&db, 12_000, 0x55);
        db.wait_idle().unwrap();
        oracle
    };
    let db = Db::open(
        Arc::clone(&env),
        small_opts(Arc::new(PipelinedExec::c_ppcp(16 << 10, 2))),
    )
    .unwrap();
    check_against_oracle(&db, &oracle);
    // Write more under the new executor, verify again.
    let db2_oracle = apply_workload(&db, 8_000, 0x56);
    db.wait_idle().unwrap();
    let mut it = db.iter();
    it.seek_to_first();
    assert!(it.valid());
    for (k, v) in db2_oracle.iter().take(25) {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
}
