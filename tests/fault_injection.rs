//! End-to-end fault-injection acceptance tests: the engine must survive
//! injected I/O failures without panicking, without leaking orphan files,
//! and without diverging across compaction executors.
//!
//! * A **permanent** failure during background compaction aborts the
//!   compaction, sweeps its partial outputs, latches a background error
//!   that stalls writes, and is surfaced through [`Db::health`] — reads
//!   keep working.
//! * A **transient** failure is retried by the background lane it hit and the
//!   final state is byte-identical across SCP / PCP / C-PPCP / S-PPCP and
//!   a fault-free run.
//! * At the executor level, compaction under an arbitrary injected fault
//!   — on its input reads or its output writes — is **atomic**: either it
//!   returns the same output as a clean run, or it fails leaving nothing
//!   but the input files on disk.
//! * A **scan** that cannot read a table stops there and says so through
//!   `status()`: what it yielded is a prefix of the data, never the data
//!   with a hole in it.
//! * A transient fault on a table open keeps its `ErrorKind` through every
//!   layer: a compaction and `repair` retry it, a `get` returns it. A
//!   latched background error keeps its kind too: corruption a merge meets
//!   stays `InvalidData` for every caller the latch turns away.

use pcp::compaction::filename::table_file;
use pcp::compaction::SimpleMergeExec;
use pcp::core::PipelinedExec;
use pcp::lsm::{
    CompactionExec, CompactionPolicy, CompactionRequest, Db, DbHealth, FileMetadata, Options,
    TableCache, VersionEdit, WalReader, WalWriter,
};
use pcp::shard::{HashRouter, ShardedDb};
use pcp::sstable::key::{make_internal_key, ValueType};
use pcp::sstable::readahead::MAX_SPAN_BLOCKS;
use pcp::sstable::{KvIter, Result as TableResult, TableBuilder, TableBuilderOptions, TableReader};
use pcp::storage::env::read_string_file;
use pcp::storage::{EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(512 << 20))))
}

fn small_opts(executor: Arc<dyn CompactionExec>) -> Options {
    Options {
        memtable_bytes: 16 << 10,
        sstable_bytes: 16 << 10,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 64 << 10,
            level_multiplier: 10,
        },
        executor,
        ..Options::default()
    }
}

fn dump(db: &Db) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut out = BTreeMap::new();
    while it.valid() {
        out.insert(it.key().to_vec(), it.value().to_vec());
        it.next();
    }
    it.status().unwrap();
    out
}

fn sst_files(env: &EnvRef) -> Vec<String> {
    let mut files: Vec<String> = env
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .collect();
    files.sort();
    files
}

/// An executor that arms permanent write faults the moment the compaction
/// lane hands it a compaction — so earlier flushes run clean and the
/// failure lands deterministically inside the compaction itself.
struct ArmOnCompact {
    inner: PipelinedExec,
    fault: FaultEnv,
}

impl CompactionExec for ArmOnCompact {
    fn name(&self) -> &'static str {
        "arm-on-compact"
    }

    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
        self.fault
            .set_probability(FaultOp::Flush, 1.0)
            .set_probability(FaultOp::Sync, 1.0)
            .set_probabilistic_kind(FaultKind::Permanent)
            .set_file_filter(".sst");
        self.inner.compact(req)
    }
}

#[test]
fn permanent_compaction_failure_latches_error_and_sweeps_orphans() {
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 0xdead);
    let env: EnvRef = Arc::new(fault.clone());
    let mut opts = small_opts(Arc::new(ArmOnCompact {
        inner: PipelinedExec::pcp(4 << 10),
        fault: fault.clone(),
    }));
    // Large enough that the memtable never rotates on its own: L0 reaches
    // the compaction trigger only at the second explicit flush, after all
    // setup writes have been accepted.
    opts.memtable_bytes = 256 << 10;
    let db = Db::open(env, opts).unwrap();

    // Two overlapping L0 tables: enough to trigger a real (non-trivial)
    // background compaction after the second flush.
    for batch in 0..2u32 {
        for i in 0..100u32 {
            let k = format!("k{i:03}").into_bytes();
            let v = format!("value-{batch}-{i}-{}", "x".repeat(80)).into_bytes();
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
    }

    // The compaction must fail, latch a background error, and never panic.
    assert!(db.wait_idle().is_err(), "background error must surface");
    assert!(
        matches!(db.health(), DbHealth::BackgroundError(_)),
        "health must report the latched error, got {:?}",
        db.health()
    );
    assert!(fault.stats().permanent >= 1, "a permanent fault must fire");

    // Writes stall: every new write is rejected with the latched error.
    // (flush() on the now-empty memtable stays a no-op by design.)
    assert!(db.put(b"new-key", b"new-value").is_err());

    // Reads still serve the data that made it in before the failure.
    let got = db.get(b"k000").unwrap();
    assert_eq!(
        got.as_deref(),
        Some(format!("value-1-0-{}", "x".repeat(80)).as_bytes())
    );

    // No orphans: every .sst on disk is referenced by the live version
    // (the aborted compaction's partial outputs were deleted).
    let live: usize = db.level_summary().iter().map(|(files, _)| *files).sum();
    let on_disk = sst_files(db.env());
    assert_eq!(
        on_disk.len(),
        live,
        "orphan outputs left behind: disk={on_disk:?} live={live}"
    );

    // Clean shutdown with a latched error must not hang (Drop joins both
    // background lanes).
    drop(db);
}

/// Runs a fixed workload against one executor; when `arm` is set, four
/// transient faults are scheduled on table writes with a fixed seed.
/// Returns the final user-visible state.
fn run_workload(executor: Arc<dyn CompactionExec>, arm: bool) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 0xfa17);
    if arm {
        fault
            .schedule_on_file(FaultOp::Flush, 1, FaultKind::Transient, ".sst")
            .schedule_on_file(FaultOp::Flush, 3, FaultKind::Transient, ".sst")
            .schedule_on_file(FaultOp::Sync, 2, FaultKind::Transient, ".sst")
            .schedule_on_file(FaultOp::Append, 10, FaultKind::Transient, ".sst");
    }
    let env: EnvRef = Arc::new(fault.clone());
    let db = Db::open(env, small_opts(executor)).unwrap();
    for batch in 0..3u32 {
        for i in 0..120u32 {
            let k = format!("k{:03}", (i * 7 + batch) % 90).into_bytes();
            let v = format!("v{batch}-{i}-{}", "y".repeat(40)).into_bytes();
            db.put(&k, &v).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_idle().unwrap();
    assert!(db.health().is_ok(), "transient faults must not latch");
    if arm {
        // All scheduled faults target .sst writes, which only happen in
        // background flush/compaction — so the retry counter must move.
        assert!(fault.stats().transient >= 1, "no transient fault fired");
        assert!(db.metrics().bg_retries >= 1, "no background lane retried");
    }
    dump(&db)
}

#[test]
fn transient_faults_retry_and_executors_stay_equivalent() {
    let reference = run_workload(Arc::new(PipelinedExec::pcp(4 << 10)), false);
    assert!(!reference.is_empty());
    for (name, exec) in [
        (
            "scp",
            Arc::new(PipelinedExec::scp(4 << 10)) as Arc<dyn CompactionExec>,
        ),
        ("pcp", Arc::new(PipelinedExec::pcp(4 << 10))),
        ("c-ppcp", Arc::new(PipelinedExec::c_ppcp(4 << 10, 3))),
        ("s-ppcp", Arc::new(PipelinedExec::s_ppcp(4 << 10, 2))),
    ] {
        let got = run_workload(exec, true);
        assert_eq!(
            got, reference,
            "{name} under transient faults diverged from the clean run"
        );
    }
}

/// Regression: a permanently failed background flush leaves the immutable
/// memtable in place and parks the flush lane. A later `flush()` that needs to
/// rotate must observe the latched error and return — not sleep forever on
/// a condvar nobody will signal again.
#[test]
fn flush_after_latched_flush_failure_errors_instead_of_hanging() {
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 3);
    let env: EnvRef = Arc::new(fault.clone());
    let mut opts = small_opts(Arc::new(PipelinedExec::pcp(4 << 10)));
    // Small memtable so the put loop itself forces a rotation (and with it
    // the failing background flush) before the explicit flush call.
    opts.memtable_bytes = 8 << 10;
    let db = Db::open(env, opts).unwrap();
    fault
        .set_probability(FaultOp::Flush, 1.0)
        .set_probability(FaultOp::Sync, 1.0)
        .set_probabilistic_kind(FaultKind::Permanent)
        .set_file_filter(".sst");
    for i in 0..400u32 {
        let k = format!("k{i:03}").into_bytes();
        let v = format!("v{i}-{}", "w".repeat(40)).into_bytes();
        if db.put(&k, &v).is_err() {
            break; // background error latched mid-loop
        }
    }
    // Must return the latched error promptly in every combination of
    // (memtable non-empty, imm stuck, lane parked).
    assert!(db.flush().is_err());
    assert!(db.wait_idle().is_err());
    assert!(matches!(db.health(), DbHealth::BackgroundError(_)));
}

type Entry = (Vec<u8>, u64, ValueType, Vec<u8>);

fn atomicity_input(half: u64, seq_base: u64) -> Vec<Entry> {
    (0..400u64)
        .map(|i| {
            let key = format!("key{:03}", (i * 7 + half) % 150).into_bytes();
            let t = if i % 9 == 0 {
                ValueType::Deletion
            } else {
                ValueType::Value
            };
            (key, seq_base + i, t, format!("val-{half}-{i}").into_bytes())
        })
        .collect()
}

/// Small blocks, so that even the serial merge reads each input in dozens
/// of device reads for a scheduled read fault to land in.
fn build_table(env: &EnvRef, name: &str, entries: &[Entry]) {
    let mut sorted: Vec<(Vec<u8>, Vec<u8>)> = entries
        .iter()
        .map(|(k, seq, t, v)| (make_internal_key(k, *seq, *t), v.clone()))
        .collect();
    sorted.sort_by(|a, b| pcp::sstable::internal_key_cmp(&a.0, &b.0));
    sorted.dedup_by(|a, b| a.0 == b.0);
    let opts = TableBuilderOptions {
        block_size: 512,
        ..Default::default()
    };
    let mut b = TableBuilder::new(env.create(name).unwrap(), opts);
    for (ik, v) in &sorted {
        b.add(ik, v).unwrap();
    }
    b.finish().unwrap();
}

fn read_outputs(env: &EnvRef, outputs: &[Arc<FileMetadata>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut all = Vec::new();
    for meta in outputs {
        let t = Arc::new(TableReader::open(env.open(&table_file(meta.number)).unwrap()).unwrap());
        let mut it = t.iter();
        it.seek_to_first();
        while it.valid() {
            all.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
    }
    all
}

type CompactOutcome = (Vec<Arc<FileMetadata>>, Vec<(Vec<u8>, Vec<u8>)>);

/// The input tables of the atomicity test, the level-0 shape: four upper
/// tables over one key space and a lower level split in two, one overlap
/// cluster that the pipelined executors cut into sub-tasks by key.
const UPPERS: [&str; 4] = ["u0.sst", "u1.sst", "u2.sst", "u3.sst"];
const LOWERS: [&str; 2] = ["l0.sst", "l1.sst"];

/// Compacts the fixed inputs with `exec`. The inputs are built through
/// the *inner* env, then opened, read and merged through `req_env`, so a
/// fault wrapper layered on top sees the compaction's input reads as well
/// as its output writes.
fn compact_inputs(
    inner: &EnvRef,
    req_env: EnvRef,
    exec: &dyn CompactionExec,
) -> TableResult<CompactOutcome> {
    for (i, name) in UPPERS.iter().enumerate() {
        build_table(
            inner,
            name,
            &atomicity_input(1 + i as u64, 10_000 * (1 + i as u64)),
        );
    }
    let (low, high): (Vec<Entry>, Vec<Entry>) = atomicity_input(0, 1)
        .into_iter()
        .partition(|e| e.0.as_slice() < b"key075".as_slice());
    build_table(inner, LOWERS[0], &low);
    build_table(inner, LOWERS[1], &high);
    let open = |names: &[&str]| -> TableResult<Vec<Arc<TableReader>>> {
        names
            .iter()
            .map(|name| Ok(Arc::new(TableReader::open(req_env.open(name)?)?)))
            .collect()
    };
    let req = CompactionRequest {
        tables: Arc::new(TableCache::new(Arc::clone(&req_env))),
        upper: open(&UPPERS)?,
        lower: open(&LOWERS)?,
        output_level: 1,
        bottom_level: true,
        smallest_snapshot: pcp::sstable::key::MAX_SEQUENCE,
        file_numbers: Arc::new(AtomicU64::new(100)),
        table_opts: TableBuilderOptions::default(),
        max_output_bytes: 8 << 10,
        grant: pcp_lsm::ResourceGrant::unlimited(),
    };
    let outputs = exec.compact(&req)?;
    let entries = read_outputs(inner, &outputs);
    Ok((outputs, entries))
}

/// Every executor the engine can run, plus the reference merge.
fn executors() -> Vec<(&'static str, Box<dyn CompactionExec>)> {
    vec![
        ("simple-merge", Box::new(SimpleMergeExec)),
        ("scp", Box::new(PipelinedExec::scp(2 << 10))),
        ("pcp", Box::new(PipelinedExec::pcp(2 << 10))),
        ("c-ppcp", Box::new(PipelinedExec::c_ppcp(2 << 10, 2))),
        ("s-ppcp", Box::new(PipelinedExec::s_ppcp(2 << 10, 2))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Compaction under an injected fault is atomic: it either produces
    /// exactly the clean output, or fails leaving only the inputs on disk.
    #[test]
    fn compaction_under_faults_is_atomic(
        nth in 1u64..40,
        transient in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let clean_env = mem_env();
        let (_, clean) =
            compact_inputs(&clean_env, Arc::clone(&clean_env), &SimpleMergeExec).unwrap();
        // The fixture is the shape it claims: its one cluster is cut by key.
        let scp = PipelinedExec::scp(2 << 10);
        compact_inputs(&clean_env, Arc::clone(&clean_env), &scp).unwrap();
        prop_assert!(scp.profile().snapshot().subtasks > 4);

        let kind = if transient { FaultKind::Transient } else { FaultKind::Permanent };
        let inputs: Vec<String> = LOWERS.iter().chain(&UPPERS).map(|n| n.to_string()).collect();

        for (name, exec) in executors() {
            // ReadAt only ever hits the inputs, the other three the outputs.
            for op in [FaultOp::ReadAt, FaultOp::Append, FaultOp::Flush, FaultOp::Sync] {
                let inner = mem_env();
                let fault = FaultEnv::new(Arc::clone(&inner), seed);
                fault.schedule_on_file(op, nth, kind, ".sst");
                match compact_inputs(&inner, Arc::new(fault.clone()), &*exec) {
                    Ok((outputs, entries)) => {
                        prop_assert_eq!(
                            &entries, &clean,
                            "{} under a {:?} fault returned Ok with different contents", name, op
                        );
                        let mut want: Vec<String> = outputs
                            .iter()
                            .map(|m| table_file(m.number))
                            .chain(inputs.iter().cloned())
                            .collect();
                        want.sort();
                        prop_assert_eq!(sst_files(&inner), want);
                    }
                    // Aborted: every partial output must have been swept.
                    Err(_) => prop_assert_eq!(
                        &sst_files(&inner), &inputs,
                        "{} left orphan outputs after a {:?} fault", name, op
                    ),
                }
            }
        }
    }
}

/// A scan issues its reads in one fixed order on the scanning thread,
/// spans included, which is what lets a scheduled fault land
/// deterministically.
fn scan_opts() -> Options {
    small_opts(Arc::new(SimpleMergeExec))
}

/// Loads 2000 keys through `env` into several levels of small tables and
/// closes the store, so that the next open starts with no table cached.
/// Returns the keys in order.
fn load_and_close(env: &EnvRef) -> Vec<Vec<u8>> {
    let db = Db::open(Arc::clone(env), scan_opts()).unwrap();
    for i in 0..2000u32 {
        let k = format!("k{:05}", (i * 7919) % 2000).into_bytes();
        db.put(&k, format!("v{i}-{}", "z".repeat(60)).as_bytes())
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let tables: Vec<usize> = db.level_summary().iter().map(|(files, _)| *files).collect();
    assert!(
        tables[1..].iter().sum::<usize>() >= 3,
        "want tables below level 0: {tables:?}"
    );
    dump(&db).into_keys().collect()
}

/// Flips one bit in the middle (a data block) of every table in `env`.
fn flip_a_bit_in_every_table(env: &EnvRef) {
    for name in sst_files(env) {
        let f = env.open(&name).unwrap();
        let mut bytes = f.read_at(0, f.len() as usize).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let mut w = env.create(&name).unwrap();
        w.append(&bytes).unwrap();
        w.sync().unwrap();
    }
}

/// The three ways a table can be unreadable — a failed device read, a
/// flipped bit (checksum mismatch), a failed open — end a `Db::iter()`
/// scan the same way: `!valid()`, `status()` is the error, and the keys
/// yielded so far are a strict prefix of the data. A `ShardedDb` scan is
/// one merge over every shard's runs, so a failed read on one shard ends
/// it the same way, and `ShardedDb::scan` returns the error. A span read
/// booked ahead of the cursor that fails ends the scan only where that
/// span starts.
#[test]
fn scan_over_an_unreadable_table_yields_a_prefix_and_an_error() {
    type Arm = fn(&FaultEnv, &EnvRef);
    let cases: [(&str, Arm); 3] = [
        ("read error", |fault, _| {
            // Each of the three or more tables the scan enters costs two
            // open reads and at least one span, so the ninth read is the
            // scan's.
            fault.schedule_on_file(FaultOp::ReadAt, 9, FaultKind::Permanent, ".sst");
        }),
        ("bit flip", |_, inner| flip_a_bit_in_every_table(inner)),
        ("failed open", |fault, _| {
            fault.schedule_on_file(FaultOp::Open, 3, FaultKind::Permanent, ".sst");
        }),
    ];
    for (what, arm) in cases {
        let inner = mem_env();
        let fault = FaultEnv::new(Arc::clone(&inner), 7);
        let env: EnvRef = Arc::new(fault.clone());
        let model = load_and_close(&env);
        arm(&fault, &inner);

        let db = Db::open(env, scan_opts()).unwrap();
        let mut it = db.iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push(it.key().to_vec());
            it.next();
        }
        assert!(
            it.status().is_err(),
            "{what}: scan ended cleanly after {} of {} keys",
            got.len(),
            model.len()
        );
        assert!(got.len() < model.len(), "{what}: nothing was missing");
        assert_eq!(got[..], model[..got.len()], "{what}: not a prefix");
        // The next seek starts over; a one-shot fault is gone by then.
        if what != "bit flip" {
            it.seek_to_first();
            assert!(
                it.valid() && it.status().is_ok(),
                "{what}: error survived a seek"
            );
        }
    }

    // A failed booked span. One level-0 table of many small blocks: its
    // cold scan reads the footer, the metadata, a first span of
    // `MAX_SPAN_BLOCKS` blocks and — before it decodes any of them — books
    // the next span, the fourth read. That read's error surfaces only when
    // the cursor reaches the booked span, after every entry of the first.
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 11);
    let env: EnvRef = Arc::new(fault.clone());
    let opts = Options {
        memtable_bytes: 1 << 20,
        sstable_bytes: 4 << 20,
        block_bytes: 256,
        ..scan_opts()
    };
    let model: Vec<Vec<u8>> = {
        let db = Db::open(Arc::clone(&env), opts.clone()).unwrap();
        for i in 0..2000u32 {
            let k = format!("k{:05}", (i * 7919) % 2000).into_bytes();
            db.put(&k, format!("v{i}-{}", "z".repeat(60)).as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.wait_idle().unwrap();
        let tables: usize = db.level_summary().iter().map(|(files, _)| files).sum();
        assert_eq!(tables, 1, "{:?}", db.level_summary());
        dump(&db).into_keys().collect()
    };
    let table = TableReader::open(inner.open(&sst_files(&inner)[0]).unwrap()).unwrap();
    let blocks = table.block_metas().unwrap();
    assert!(
        blocks.len() > 2 * MAX_SPAN_BLOCKS,
        "{} blocks",
        blocks.len()
    );
    let first_span: u64 = blocks[..MAX_SPAN_BLOCKS].iter().map(|b| b.entries).sum();
    let db = Db::open(env, opts).unwrap();
    fault.schedule_on_file(FaultOp::ReadAt, 4, FaultKind::Permanent, ".sst");
    let mut it = db.iter();
    it.seek_to_first();
    let mut got = Vec::new();
    while it.valid() {
        got.push(it.key().to_vec());
        it.next();
    }
    assert!(
        it.status().is_err(),
        "booked span: scan ended cleanly after {} keys",
        got.len()
    );
    assert_eq!(
        got.len() as u64,
        first_span,
        "booked span: not every entry before the span"
    );
    assert_eq!(got[..], model[..got.len()], "booked span: not a prefix");
    it.seek_to_first();
    got.clear();
    while it.valid() {
        got.push(it.key().to_vec());
        it.next();
    }
    assert!(
        it.status().is_ok() && got == model,
        "booked span: the next seek did not start clean"
    );

    // Two shards, keys spread over both; only shard 1 reads through the
    // fault env.
    let fault = FaultEnv::new(mem_env(), 9);
    let envs: Vec<EnvRef> = vec![mem_env(), Arc::new(fault.clone())];
    let router = Arc::new(HashRouter::new(2));
    let open = || ShardedDb::open_with_envs(envs.clone(), scan_opts(), router.clone()).unwrap();
    let model: Vec<Vec<u8>> = {
        let db = open();
        for i in 0..2000u32 {
            let k = format!("k{:05}", (i * 7919) % 2000).into_bytes();
            db.put(&k, format!("v{i}-{}", "z".repeat(60)).as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.wait_idle().unwrap();
        db.scan(b"", usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    };
    assert_eq!(model.len(), 2000);
    let db = open();
    // Shard 1's three tables cost two open reads and one span each.
    fault.schedule_on_file(FaultOp::ReadAt, 9, FaultKind::Permanent, ".sst");
    let mut it = db.iter();
    it.seek_to_first();
    let mut got = Vec::new();
    while it.valid() {
        got.push(it.key().to_vec());
        it.next();
    }
    assert!(
        it.status().is_err(),
        "sharded: scan ended cleanly after {} keys",
        got.len()
    );
    assert!(got.len() < model.len(), "sharded: nothing was missing");
    assert_eq!(got[..], model[..got.len()], "sharded: not a prefix");
    fault.schedule_on_file(FaultOp::ReadAt, 1, FaultKind::Permanent, ".sst");
    assert!(
        db.scan(b"", usize::MAX).is_err(),
        "sharded: a short scan came back Ok"
    );
}

/// An install writes its MANIFEST edit between building the next version
/// and installing it, with the state lock released. A crash inside that
/// window — the edit appended, its sync torn — recovers to a consistent
/// version that holds every acked write; and a failed append still
/// latches, with reads served from the last installed version.
#[test]
fn manifest_failure_between_append_and_install_recovers_and_latches() {
    let mut opts = small_opts(Arc::new(SimpleMergeExec));
    opts.memtable_bytes = 256 << 10;
    opts.sync_writes = true;
    let load = |db: &Db, round: u32| -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut model = BTreeMap::new();
        for i in 0..100u32 {
            let (k, v) = (
                format!("k{i:03}").into_bytes(),
                format!("v{round}-{i}").into_bytes(),
            );
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        model
    };

    // The flush's edit is appended and its sync torn: the power goes out
    // before the install.
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 21);
    let db = Db::open(Arc::new(fault.clone()), opts.clone()).unwrap();
    let model = load(&db, 0);
    fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::TornSync, "MANIFEST");
    assert!(db.flush().is_err());
    assert!(fault.crashed());
    assert_eq!(db.level_summary()[0].0, 0, "a torn edit was installed");
    drop(db);
    let db = Db::open(Arc::clone(&inner), opts.clone()).unwrap();
    db.wait_idle().unwrap();
    assert_eq!(dump(&db), model, "an acked write was lost");
    let report = db.verify_integrity().unwrap();
    assert!(report.is_healthy(), "{:?}", report.errors);
    assert_eq!(
        sst_files(&inner).len(),
        db.level_summary()[0].0,
        "orphan tables left"
    );
    drop(db);

    // The append itself fails for good: the error latches, later writes
    // are refused, and reads keep the version the failed edit never
    // replaced.
    let fault = FaultEnv::new(mem_env(), 22);
    let db = Db::open(Arc::new(fault.clone()), opts).unwrap();
    let mut model = load(&db, 1);
    db.flush().unwrap();
    model.extend(load(&db, 2));
    fault.schedule_on_file(FaultOp::Append, 1, FaultKind::Permanent, "MANIFEST");
    assert!(db.flush().is_err());
    assert!(matches!(db.health(), DbHealth::BackgroundError(_)));
    assert!(db.put(b"late", b"refused").is_err());
    assert_eq!(db.level_summary()[0].0, 1);
    assert_eq!(dump(&db), model);
}

/// Rewrites the store's MANIFEST with 1 MiB of empty edits ahead of its
/// own records, so the edits that name its tables lie in its last span.
fn pad_manifest(env: &EnvRef) {
    let name = read_string_file(&**env, "CURRENT").unwrap();
    let mut reader = WalReader::open(&**env, name.trim()).unwrap();
    let records: Vec<Vec<u8>> = std::iter::from_fn(|| reader.next_record().unwrap()).collect();
    let mut manifest = WalWriter::create(&**env, name.trim()).unwrap();
    let empty = VersionEdit::default().encode();
    while manifest.len() < 1 << 20 {
        manifest.add_record(&empty).unwrap();
    }
    for record in &records {
        manifest.add_record(record).unwrap();
    }
    manifest.sync().unwrap();
}

/// A read error while a log replays fails `Db::open` with that error: the
/// store never opens on the records before it. The fault fires on the
/// second span of a multi-span log, the one booked as replay enters the
/// first — of a WAL, and of a MANIFEST whose edits naming tables lie past
/// it.
#[test]
fn a_read_error_during_replay_fails_the_open() {
    for file in [".log", "MANIFEST-"] {
        let env = mem_env();
        let mut model = BTreeMap::new();
        {
            let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
            for i in 0..6000u32 {
                let k = format!("k{i:05}").into_bytes();
                let v = format!("v{i}-{}", "x".repeat(100)).into_bytes();
                db.put(&k, &v).unwrap();
                model.insert(k, v);
                if i == 2999 {
                    db.flush().unwrap();
                }
            }
        }
        if file == "MANIFEST-" {
            pad_manifest(&env);
        }
        let bytes: u64 = (env.list().unwrap().iter())
            .filter(|n| n.contains(file))
            .map(|n| env.size(n).unwrap())
            .sum();
        assert!(bytes > 256 << 10, "{file}: {bytes} bytes is one span");

        let fault = FaultEnv::new(Arc::clone(&env), 31);
        fault.schedule_on_file(FaultOp::ReadAt, 2, FaultKind::Permanent, file);
        let Err(err) = Db::open(Arc::new(fault.clone()), Options::default()) else {
            panic!("{file}: the open replayed past a read error");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "{file}: {err}");
        assert_eq!(fault.stats().permanent, 1, "{file}");
        let db = Db::open(env, Options::default()).unwrap();
        assert_eq!(dump(&db), model, "{file}: the failed open lost a write");
    }
}

/// Three rounds of 2000 puts on 64 KiB memtables, each round flushed, on
/// `env`; the store is closed, so the next open finds every table cold.
/// Returns the keys.
fn fill_and_close(env: &EnvRef) -> Vec<Vec<u8>> {
    let opts = Options {
        memtable_bytes: 64 << 10,
        ..Options::default()
    };
    let db = Db::open(Arc::clone(env), opts).unwrap();
    let mut keys = Vec::new();
    for round in 0..3u32 {
        for i in 0..2000u32 {
            let k = format!("k{round}-{:05}", (i * 7919) % 2000).into_bytes();
            db.put(&k, format!("v{i}-{}", "z".repeat(60)).as_bytes())
                .unwrap();
            keys.push(k);
        }
        db.flush().unwrap();
    }
    db.wait_idle().unwrap();
    keys
}

/// A cold store on a fault env whose next `.sst` open fails once,
/// transiently.
fn cold_db_with_one_transient_open() -> (Db, FaultEnv, Vec<Vec<u8>>) {
    let fault = FaultEnv::new(mem_env(), 31);
    let env: EnvRef = Arc::new(fault.clone());
    let keys = fill_and_close(&env);
    let db = Db::open(
        env,
        Options {
            memtable_bytes: 64 << 10,
            ..Options::default()
        },
    )
    .unwrap();
    fault.schedule_on_file(FaultOp::Open, 1, FaultKind::Transient, ".sst");
    (db, fault, keys)
}

/// A transient fault on opening a compaction input keeps its kind up to
/// the compaction lane, which retries the merge like any other transient
/// failure instead of latching a background error.
#[test]
fn transient_open_of_a_compaction_input_is_retried() {
    let (db, fault, keys) = cold_db_with_one_transient_open();
    db.compact_range(None, None).unwrap();
    assert_eq!(fault.stats().transient, 1, "the fault never fired");
    assert!(matches!(db.health(), DbHealth::Ok), "{:?}", db.health());
    assert_eq!(dump(&db).into_keys().count(), keys.len());
}

/// A transient fault on a `get`'s table open reaches the caller with its
/// kind, so the caller can tell it from corruption and retry.
#[test]
fn transient_open_on_a_get_keeps_its_kind() {
    let (db, _fault, keys) = cold_db_with_one_transient_open();
    let err = db.get(&keys[0]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "{err}");
    assert!(db.get(&keys[0]).unwrap().is_some());
}

/// `repair` retries a table whose open fails transiently instead of
/// quarantining a healthy table.
#[test]
fn repair_retries_a_transient_open() {
    let fault = FaultEnv::new(mem_env(), 32);
    let env: EnvRef = Arc::new(fault.clone());
    let keys = fill_and_close(&env);
    let tables = sst_files(&env).len();
    fault.schedule_on_file(FaultOp::Open, 1, FaultKind::Transient, ".sst");
    let report = pcp::lsm::repair(Arc::clone(&env)).unwrap();
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.recovered_tables as usize, tables);
    assert_eq!(fault.stats().transient, 1, "the fault never fired");
    let db = Db::open(env, Options::default()).unwrap();
    assert_eq!(dump(&db).into_keys().count(), keys.len());
}

/// A latched background error keeps its kind: a merge that meets a corrupt
/// table fails with `InvalidData`, and so does every write the latch turns
/// away afterwards, as a caller that tells corruption from a device fault
/// needs.
#[test]
fn a_latched_corruption_keeps_its_kind() {
    let env = mem_env();
    fill_and_close(&env);
    flip_a_bit_in_every_table(&env);
    let db = Db::open(
        env,
        Options {
            memtable_bytes: 64 << 10,
            ..Options::default()
        },
    )
    .unwrap();
    let err = db.compact_range(None, None).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        matches!(db.health(), DbHealth::BackgroundError(_)),
        "{:?}",
        db.health()
    );
    let err = db.put(b"k", b"v").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}
