//! The two background lanes (DESIGN.md §12 "Background lanes"), driven
//! deterministically: a gate executor parks a merge with its outputs
//! written but not installed, a gate env parks the flush lane before it
//! creates its table or inside the MANIFEST sync of its install, and every
//! test steps the lanes through one chosen interleaving. Nothing here sleeps to synchronise; where a test has to
//! wait for the engine it waits on a gate or on a counter the engine
//! publishes.

use pcp::compaction::SimpleMergeExec;
use pcp::lsm::{
    CompactionExec, CompactionPolicy, CompactionRequest, Db, DbHealth, FileMetadata, Options,
};
use pcp::sstable::Result as TableResult;
use pcp::storage::{
    Env, EnvRef, FaultEnv, FaultKind, FaultOp, RandomReadFile, SimDevice, SimEnv, WritableFile,
};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Condvar, Mutex};

/// A turnstile: while armed, the first thread to call [`Gate::pass`] parks
/// there until the [`Armed`] guard is dropped; others walk past it.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: bool,
    parked: usize,
}

/// An armed gate. Dropping it releases the gate, so a test that fails with
/// a lane parked still lets `Db::drop` join that lane.
struct Armed<'a>(&'a Gate);

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap().armed = false;
        self.0.cv.notify_all();
    }
}

impl Gate {
    /// Declare the result after the `Db` it gates, so it drops first.
    fn arm(&self) -> Armed<'_> {
        self.state.lock().unwrap().armed = true;
        Armed(self)
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        if st.armed && st.parked == 0 {
            st.parked += 1;
            self.cv.notify_all();
            st = self.cv.wait_while(st, |st| st.armed).unwrap();
            st.parked -= 1;
        }
    }

    /// Blocks until a thread is parked at the gate.
    fn wait_parked(&self) {
        let st = self.state.lock().unwrap();
        drop(self.cv.wait_while(st, |st| st.parked == 0).unwrap());
    }
}

/// Wraps any executor: runs the merge, then parks at the gate with every
/// output table written and none installed — the state in which another
/// lane's sweep could do the most damage. Also records how many merges
/// were ever inside `compact` at once.
struct GateExec {
    inner: Arc<dyn CompactionExec>,
    gate: Gate,
    /// (inside `compact` now, most ever at once)
    inside: Mutex<(usize, usize)>,
}

impl GateExec {
    fn new(inner: impl CompactionExec + 'static) -> Arc<GateExec> {
        Arc::new(GateExec {
            inner: Arc::new(inner),
            gate: Gate::default(),
            inside: Mutex::new((0, 0)),
        })
    }

    fn peak(&self) -> usize {
        self.inside.lock().unwrap().1
    }
}

impl CompactionExec for GateExec {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
        {
            let mut inside = self.inside.lock().unwrap();
            inside.0 += 1;
            inside.1 = inside.1.max(inside.0);
        }
        let outputs = self.inner.compact(req);
        self.gate.pass();
        self.inside.lock().unwrap().0 -= 1;
        outputs
    }
}

/// Parks the flush lane at `gate` just before it creates its table, and
/// at `manifest_sync` inside the MANIFEST sync of its install.
#[derive(Debug)]
struct GateEnv {
    inner: EnvRef,
    gate: Gate,
    manifest_sync: Arc<Gate>,
}

impl GateEnv {
    fn new(inner: EnvRef) -> Arc<GateEnv> {
        Arc::new(GateEnv {
            inner,
            gate: Gate::default(),
            manifest_sync: Arc::default(),
        })
    }
}

fn on_flush_lane() -> bool {
    std::thread::current().name() == Some("pcp-lsm-flush")
}

/// A MANIFEST whose sync passes the gate first.
struct GatedManifest {
    inner: Box<dyn WritableFile>,
    gate: Arc<Gate>,
}

impl WritableFile for GatedManifest {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.inner.append(data)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> io::Result<()> {
        if on_flush_lane() {
            self.gate.pass();
        }
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gate")
    }
}

impl Env for GateEnv {
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        if name.ends_with(".sst") && on_flush_lane() {
            self.gate.pass();
        }
        let file = self.inner.create(name)?;
        if !name.starts_with("MANIFEST") {
            return Ok(file);
        }
        Ok(Box::new(GatedManifest {
            inner: file,
            gate: Arc::clone(&self.manifest_sync),
        }))
    }
    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>> {
        self.inner.open(name)
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

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20))))
}

/// Two level-0 tables make a compaction; a memtable holds one `fill`.
fn opts(executor: Arc<dyn CompactionExec>) -> Options {
    Options {
        memtable_bytes: 16 << 10,
        sstable_bytes: 16 << 10,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 1 << 20,
            level_multiplier: 10,
        },
        executor,
        ..Options::default()
    }
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// One batch of 80 overlapping keys, about 9 KiB: less than a memtable,
/// so level-0 tables appear only where a test calls `flush`.
fn fill(db: &Db, model: &mut Model, batch: u32) {
    for i in 0..80u32 {
        let k = format!("k{:03}", (i * 7 + batch) % 120).into_bytes();
        let v = format!("b{batch}-{i}-{}", "v".repeat(90)).into_bytes();
        db.put(&k, &v).unwrap();
        model.insert(k, v);
    }
}

fn full_stream(db: &Db) -> Model {
    let mut it = db.iter();
    it.seek_to_first();
    let mut out = Model::new();
    while it.valid() {
        out.insert(it.key().to_vec(), it.value().to_vec());
        it.next();
    }
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

fn live_tables(db: &Db) -> usize {
    db.level_summary().iter().map(|(files, _)| *files).sum()
}

/// Waits for a counter another thread is about to move: progress, not
/// elapsed time, ends the wait.
fn spin_until(cond: impl Fn() -> bool) {
    while !cond() {
        std::thread::yield_now();
    }
}

/// Two flushed batches: the compaction lane picks them up and parks at
/// the gate with its outputs on disk.
fn park_a_merge<'a>(db: &Db, gate: &'a GateExec, model: &mut Model) -> Armed<'a> {
    let parked = gate.gate.arm();
    for batch in 0..2 {
        fill(db, model, batch);
        db.flush().unwrap();
    }
    gate.gate.wait_parked();
    parked
}

/// Invariant 1 (in-flight outputs survive GC) and invariant 2 (a pick
/// stays valid while the flush lane adds level-0 tables).
#[test]
fn flush_and_its_sweep_run_beside_a_parked_merge() {
    let env = mem_env();
    let gate = GateExec::new(SimpleMergeExec);
    let db = Db::open(Arc::clone(&env), opts(gate.clone())).unwrap();
    let mut model = Model::new();
    let parked = park_a_merge(&db, &gate, &mut model);
    let with_partial_outputs = sst_files(&env);
    assert!(
        with_partial_outputs.len() > 2,
        "two inputs plus uninstalled outputs: {with_partial_outputs:?}"
    );

    // A whole flush — table, MANIFEST edit, obsolete-file sweep — while
    // the merge is parked; `flush` returns once the sweep is done.
    fill(&db, &mut model, 2);
    db.flush().unwrap();
    let after_flush = sst_files(&env);
    assert_eq!(after_flush.len(), with_partial_outputs.len() + 1);
    assert!(
        with_partial_outputs.iter().all(|f| after_flush.contains(f)),
        "the sweep deleted an in-flight table: {with_partial_outputs:?} -> {after_flush:?}"
    );
    assert_eq!(db.level_summary()[0].0, 3, "the new table is installed");
    assert_eq!(db.get(b"k002").unwrap().as_ref(), model.get(&b"k002"[..]));
    assert_eq!(full_stream(&db), model);

    drop(parked);
    db.wait_idle().unwrap();
    let report = db.verify_integrity().unwrap();
    assert!(report.is_healthy(), "{:?}", report.errors);
    assert_eq!(
        db.level_summary()[0].0,
        1,
        "only the picked tables were merged"
    );
    assert_eq!(full_stream(&db), model);
    assert_eq!(
        sst_files(&env).len(),
        live_tables(&db),
        "inputs swept, nothing else"
    );
    assert_eq!(db.metrics().gc_delete_errors, 0);
}

/// The tree left at idle does not depend on how the lanes interleaved:
/// level-0 picks take whole batches of `l0_trigger` tables, so seven
/// flushes leave one table in level 0 whether every merge ran as soon as
/// it could or the first one was held until all seven were in.
#[test]
fn level_0_at_idle_is_the_same_however_the_lanes_interleaved() {
    const FLUSHES: u32 = 7;
    let l0_at_idle = |hold_first_merge: bool| {
        let gate = GateExec::new(SimpleMergeExec);
        let db = Db::open(mem_env(), opts(gate.clone())).unwrap();
        let mut model = Model::new();
        let held = hold_first_merge.then(|| gate.gate.arm());
        for batch in 0..FLUSHES {
            fill(&db, &mut model, batch);
            db.flush().unwrap();
            if held.is_none() {
                db.wait_idle().unwrap();
            }
        }
        if held.is_some() {
            gate.gate.wait_parked();
            assert_eq!(db.level_summary()[0].0, FLUSHES as usize);
        }
        drop(held);
        db.wait_idle().unwrap();
        assert_eq!(full_stream(&db), model);
        assert!(db.verify_integrity().unwrap().is_healthy());
        db.level_summary()[0].0
    };
    assert_eq!(l0_at_idle(false), 1);
    assert_eq!(l0_at_idle(true), 1, "five tables waiting: four taken");
}

/// Invariant 3 (one compaction at a time, manual or background). At the
/// parent commit the background thread joins the parked manual merge and
/// both install into level 1.
#[test]
fn compact_range_and_the_compaction_lane_never_overlap() {
    let gate = GateExec::new(SimpleMergeExec);
    let db = Db::open(mem_env(), opts(gate.clone())).unwrap();
    let mut model = Model::new();
    fill(&db, &mut model, 0);
    db.flush().unwrap();

    let parked = gate.gate.arm();
    std::thread::scope(|s| {
        let manual = s.spawn(|| db.compact_range(None, None));
        gate.gate.wait_parked();
        // Rotate twice: level 0 reaches the trigger, which is all the
        // background compaction needs to want the same tables.
        let flushed = db.metrics().flush_count;
        let mut batch = 1;
        while db.metrics().flush_count < flushed + 2 {
            fill(&db, &mut model, batch);
            batch += 1;
        }
        drop(parked);
        manual.join().unwrap().unwrap();
    });
    db.wait_idle().unwrap();
    assert_eq!(gate.peak(), 1, "two merges ran in one Db at once");
    let report = db.verify_integrity().unwrap();
    assert!(report.is_healthy(), "{:?}", report.errors);
    assert_eq!(full_stream(&db), model);
}

/// Invariant 4 (either lane's failure latches once and parks both; drop
/// joins both).
#[test]
fn flush_failure_beside_a_merge_latches_once_and_abandons_the_merge() {
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 7);
    let gate = GateExec::new(SimpleMergeExec);
    let db = Db::open(Arc::new(fault.clone()), opts(gate.clone())).unwrap();
    let mut model = Model::new();
    let parked = park_a_merge(&db, &gate, &mut model);
    let inputs: Vec<String> = sst_files(&inner).into_iter().take(2).collect();

    fault
        .set_probability(FaultOp::Append, 1.0)
        .set_probability(FaultOp::Flush, 1.0)
        .set_probability(FaultOp::Sync, 1.0)
        .set_probabilistic_kind(FaultKind::Permanent)
        .set_file_filter(".sst");
    fill(&db, &mut model, 2);
    assert!(db.flush().is_err(), "the flush lane's failure must surface");
    let DbHealth::BackgroundError(latched) = db.health() else {
        panic!("no error latched");
    };
    assert!(latched.contains("injected permanent fault"), "{latched}");
    assert!(db.put(b"late", b"write").is_err());

    // The device is healthy again, so only the latch keeps the merge from
    // installing; its own failure to install must not re-latch.
    fault.reset();
    drop(parked);
    assert_eq!(db.health(), DbHealth::BackgroundError(latched.clone()));
    assert_eq!(
        full_stream(&db),
        model,
        "reads serve memtables and the last version"
    );
    drop(db);
    assert_eq!(Arc::strong_count(&gate), 1, "a lane outlived drop");
    assert_eq!(
        sst_files(&inner),
        inputs,
        "merge outputs and the failed table are gone"
    );

    let db = Db::open(inner, opts(Arc::new(SimpleMergeExec))).unwrap();
    assert_eq!(
        full_stream(&db),
        model,
        "every acked write is in a table or a WAL"
    );
}

fn durable(opts: Options) -> Options {
    Options {
        sync_writes: true,
        ..opts
    }
}

fn reopen_and_check(image: EnvRef, model: &Model) {
    let db = Db::open(Arc::clone(&image), opts(Arc::new(SimpleMergeExec))).unwrap();
    // The reopened lanes compact what recovery left in level 0; a reader
    // beside them would pin the inputs past their sweep.
    db.wait_idle().unwrap();
    assert_eq!(&full_stream(&db), model, "an acked write was lost");
    let report = db.verify_integrity().unwrap();
    assert!(report.is_healthy(), "{:?}", report.errors);
    assert_eq!(
        sst_files(&image).len(),
        live_tables(&db),
        "the torn job's tables are swept"
    );
}

/// Invariant 2 across a crash: the flush's edit is in the MANIFEST, the
/// merge's edit is torn.
#[test]
fn crash_with_flush_installed_and_merge_torn_recovers_every_acked_write() {
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 11);
    let gate = GateExec::new(SimpleMergeExec);
    let db = Db::open(Arc::new(fault.clone()), durable(opts(gate.clone()))).unwrap();
    let mut model = Model::new();
    let parked = park_a_merge(&db, &gate, &mut model);
    fill(&db, &mut model, 2);
    db.flush().unwrap();
    fill(&db, &mut model, 3); // acked into the WAL only

    fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::TornSync, "MANIFEST");
    drop(parked);
    spin_until(|| fault.crashed());
    drop(db);
    reopen_and_check(inner, &model);
}

/// The mirror image: the merge installs while the flush lane is parked
/// before its table, then the flush's table is torn mid-sync.
#[test]
fn crash_with_merge_installed_and_flush_torn_recovers_every_acked_write() {
    let inner = mem_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 13);
    let env = GateEnv::new(Arc::new(fault.clone()));
    let gate = GateExec::new(SimpleMergeExec);
    let db = Db::open(env.clone(), durable(opts(gate.clone()))).unwrap();
    let mut model = Model::new();
    let parked = park_a_merge(&db, &gate, &mut model);

    let flush_parked = env.gate.arm();
    fill(&db, &mut model, 2);
    std::thread::scope(|s| {
        let flush = s.spawn(|| db.flush());
        env.gate.wait_parked();
        drop(parked);
        spin_until(|| db.metrics().compaction_count >= 1);
        // Only the flush lane writes tables from here on.
        fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::TornSync, ".sst");
        drop(flush_parked);
        assert!(
            flush.join().unwrap().is_err(),
            "the torn flush must surface"
        );
    });
    assert!(fault.crashed());
    drop(db);
    reopen_and_check(inner, &model);
}

/// Invariant 4, the lost-wakeup class: a lane that misses the shutdown
/// notification hangs its join.
#[test]
fn open_put_drop_loops_on_four_threads_finish() {
    std::thread::scope(|s| {
        for t in 0..4u32 {
            s.spawn(move || {
                let env = mem_env();
                let mut model = Model::new();
                for round in 0..150u32 {
                    let db = Db::open(Arc::clone(&env), opts(Arc::new(SimpleMergeExec))).unwrap();
                    // Every few rounds leave both lanes work to be shut
                    // down in the middle of.
                    fill(&db, &mut model, t * 1000 + round);
                    if round % 3 == 0 {
                        fill(&db, &mut model, t * 1000 + round + 500);
                    }
                }
                let db = Db::open(env, opts(Arc::new(SimpleMergeExec))).unwrap();
                assert_eq!(full_stream(&db), model);
            });
        }
    });
}

fn stall_causes(db: &Db) -> Vec<u64> {
    db.trace()
        .events()
        .iter()
        .filter(|e| e.kind == "write_stall")
        .map(|e| e.fields.iter().find(|(k, _)| *k == "cause").unwrap().1)
        .collect()
}

/// Below the stop (3× `l0_trigger`, here 6 tables) writes go through
/// while the compaction lane is parked, with no stall; at the stop a writer
/// that needs a new memtable stops, says why, and goes on when the merge
/// installs.
#[test]
fn writes_below_the_l0_stop_are_not_delayed_and_the_stop_waits_for_the_merge() {
    let gate = GateExec::new(SimpleMergeExec);
    let db = Db::open(mem_env(), opts(gate.clone())).unwrap();
    let mut model = Model::new();
    let parked = park_a_merge(&db, &gate, &mut model);
    for batch in 2..4 {
        fill(&db, &mut model, batch);
        db.flush().unwrap();
    }
    assert_eq!(db.level_summary()[0].0, 4);

    for batch in 4..6 {
        fill(&db, &mut model, batch); // 80 writes at 4 and 5 tables
        db.flush().unwrap();
    }
    assert_eq!(db.metrics().stall_events, 0);
    assert!(
        stall_causes(&db).is_empty(),
        "no write_stall event below the stop"
    );

    assert_eq!(db.level_summary()[0].0, 6);
    fill(&db, &mut model, 6); // at the stop, but the memtable has room
    assert_eq!(db.metrics().stall_events, 0);
    std::thread::scope(|s| {
        // A second batch overflows the memtable: the rotation has to wait.
        let writer = s.spawn(|| {
            let mut written = Model::new();
            fill(&db, &mut written, 7);
            written
        });
        spin_until(|| db.metrics().stall_events >= 1);
        drop(parked);
        model.extend(writer.join().unwrap());
    });
    db.wait_idle().unwrap();
    assert_eq!(stall_causes(&db)[0], 1, "cause 1 = l0_stop");
    assert_eq!(full_stream(&db), model);
}

/// The other cause: the memtable fills while the previous one is still
/// being flushed.
#[test]
fn stall_behind_a_pending_flush_says_imm_pending() {
    let env = GateEnv::new(mem_env());
    let db = Db::open(env.clone(), opts(Arc::new(SimpleMergeExec))).unwrap();
    let flush_parked = env.gate.arm();
    let mut model = Model::new();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut written = Model::new();
            for batch in 0..4 {
                fill(&db, &mut written, batch);
            }
            written
        });
        env.gate.wait_parked();
        spin_until(|| db.metrics().stall_events >= 1);
        drop(flush_parked);
        model.extend(writer.join().unwrap());
    });
    db.wait_idle().unwrap();
    assert_eq!(stall_causes(&db)[0], 0, "cause 0 = imm_pending");
    assert_eq!(full_stream(&db), model);
}

/// An install appends and syncs its MANIFEST edit with the state lock
/// released: while the flush lane is parked inside that sync, a `get`, an
/// iterator build and a `put` each complete against the old version, and
/// the table appears only once the sync returns.
#[test]
fn reads_and_writes_complete_while_an_install_syncs_the_manifest() {
    let env = GateEnv::new(mem_env());
    let db = Db::open(env.clone(), opts(Arc::new(SimpleMergeExec))).unwrap();
    let mut model = Model::new();
    fill(&db, &mut model, 0);
    let sync_parked = env.manifest_sync.arm();
    std::thread::scope(|s| {
        let flush = s.spawn(|| db.flush());
        env.manifest_sync.wait_parked();
        assert_eq!(db.level_summary()[0].0, 0, "installed before the sync");
        assert_eq!(db.get(b"k002").unwrap().as_ref(), model.get(&b"k002"[..]));
        let mut it = db.iter();
        it.seek_to_first();
        assert!(it.valid());
        drop(it);
        db.put(b"fresh", b"value").unwrap();
        model.insert(b"fresh".to_vec(), b"value".to_vec());
        drop(sync_parked);
        flush.join().unwrap().unwrap();
    });
    assert_eq!(db.level_summary()[0].0, 1);
    assert_eq!(full_stream(&db), model);
}
