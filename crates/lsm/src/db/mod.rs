//! The database: [`Db`], its shared state, open and recovery, and the
//! public API; the jobs behind it live one per submodule.
//!
//! The moving parts follow LevelDB's architecture:
//!
//! * Writers queue; the one at the queue front appends the group's WAL
//!   record and inserts into the skiplist memtable. When the memtable
//!   reaches its threshold (paper default: 4 MB) that writer moves it and
//!   its log into the immutable slot, with no I/O under the lock, and a
//!   background flush syncs the log and dumps the memtable into a level-0
//!   SSTable (`write`).
//! * Two background lanes share the state lock and the version set: the
//!   flush lane turns the immutable memtable into a level-0 table, the
//!   compaction lane runs every compaction, one at a time and
//!   [`Db::compact_range`]'s among them, so a full memtable is flushed
//!   while a merge is in flight (`lanes`; DESIGN.md §12 "Background
//!   lanes"). Compactions are picked by
//!   [`crate::version_set::VersionSet::pick_compaction`] and executed by
//!   the configured [`CompactionExec`] — this is where the paper's
//!   SCP/PCP/PPCP executors plug in.
//! * When compaction cannot keep up, level 0 grows: writers first get
//!   slowed (one millisecond per write once L0 reaches twice the
//!   compaction trigger), then stalled outright at three times it (the
//!   paper's *write pauses*), which is precisely the coupling that makes
//!   compaction bandwidth determine system throughput (Fig. 10: IOPS vs
//!   compaction bandwidth).
//! * Reads capture memtables and version under one lock acquisition and
//!   search them newest first (`read`); `options`, `batch` and `metrics`
//!   hold the configuration, the atomic write unit and the counters.

mod batch;
mod lanes;
mod metrics;
mod options;
mod read;
mod write;

pub use batch::{BatchOp, WriteBatch};
pub use metrics::{LevelCompaction, Metrics, MetricsSnapshot};
pub use options::Options;

use crate::edit::VersionEdit;
use crate::memtable::Memtable;
use crate::version::{FileMetadata, NUM_LEVELS};
use crate::version_set::VersionSet;
use crate::wal::{WalReader, WalWriter};
use parking_lot::{Condvar, Mutex};
use pcp_compaction::filename::{parse_file_name, wal_file, FileKind};
use pcp_compaction::{CompactionExec, OutputSink, TableCache};
use pcp_sstable::key::SequenceNumber;
use pcp_sstable::KvIter;
use pcp_storage::{EnvRef, RetryPolicy};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;
use write::PendingWrite;

/// Writes `mem` as one level-0 table through an [`OutputSink`] with
/// rotation off — the path every table the engine writes takes — numbered
/// from `file_numbers`, and puts its reader into `cache`. `None` for an
/// empty memtable; a failed write leaves neither file nor reader.
fn write_level0(
    cache: &TableCache,
    file_numbers: &AtomicU64,
    opts: &Options,
    mem: &Arc<Memtable>,
) -> io::Result<Option<Arc<FileMetadata>>> {
    let mut sink = OutputSink::new(cache, file_numbers, opts.table_opts(), u64::MAX);
    let mut it = mem.iter();
    it.seek_to_first();
    let mut write = || {
        while it.valid() {
            let (key, value) = (it.key(), it.value());
            sink.append(key, key, |b| b.add(key, value))?;
            it.next();
        }
        sink.finish()
    };
    match write() {
        Ok(mut tables) => Ok(tables.pop()),
        Err(e) => {
            sink.abort();
            Err(e)
        }
    }
}

/// Retry policy for transient I/O failures in the WAL, the background
/// flush/compaction paths and [`crate::repair`]. Non-transient failures are
/// never retried; they latch the background-error state (see
/// [`Db::health`]).
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff: Duration::from_millis(1),
    max_backoff: Duration::from_millis(50),
};

struct State {
    mem: Arc<Memtable>,
    imm: Option<Arc<Memtable>>,
    /// The log numbered `wal_number`; `None` while a group leader holds it
    /// inside the unlocked I/O window, and from a rotation until the first
    /// group after it creates the log.
    wal: Option<WalWriter>,
    wal_number: u64,
    /// The log holding `imm`'s records, until the flush lane has synced it.
    imm_wal: Option<WalWriter>,
    versions: VersionSet,
    /// In-progress marker of the flush lane: `Some(floor)` from the moment
    /// it claims `imm` until its obsolete-file sweep is done. `floor` is
    /// the file-number counter at the claim, so every file the job creates
    /// is numbered at or above it — what [`State::gc_plan`] keeps out of
    /// the other lane's sweep.
    flushing: Option<u64>,
    /// The same marker for the one compaction a `Db` runs at a time, the
    /// compaction lane's.
    compacting: Option<u64>,
    /// The install turn: held by the lane whose MANIFEST write is in
    /// flight with the lock released, so installs stay one at a time.
    installing: bool,
    /// A [`Db::compact_range`] level the compaction lane runs ahead of its
    /// own picks; its poster clears it once `done`.
    manual: Option<ManualCompaction>,
    /// The first non-transient background failure; every later caller
    /// gets a copy of its kind and message.
    bg_error: Option<io::Error>,
    snapshots: BTreeMap<u64, usize>,
    /// FIFO of writers awaiting commit; the front entry's owner is the
    /// group leader.
    write_queue: std::collections::VecDeque<PendingWrite>,
    /// Results for completed followers, keyed by ticket: each a copy of
    /// the group's outcome.
    write_results: std::collections::HashMap<u64, io::Result<()>>,
    next_ticket: u64,
}

struct ManualCompaction {
    level: usize,
    lo: Option<Vec<u8>>,
    hi: Option<Vec<u8>>,
    done: bool,
}

/// What one obsolete-file sweep may delete, captured under the state lock
/// so the listing and the deletes can run after it is released. Nothing
/// captured here can turn live later: a table becomes live only through
/// the install of a job that created it, and every such table is numbered
/// at or above `floor`.
struct GcPlan {
    live: HashSet<u64>,
    /// Lowest file number an in-flight job (or any job started after this
    /// capture) may create; tables at or above it are left alone.
    floor: u64,
    log_number: u64,
    wal_number: u64,
}

impl State {
    fn gc_plan(&self) -> GcPlan {
        GcPlan {
            live: self.versions.live_files(),
            floor: [self.flushing, self.compacting]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or_else(|| self.versions.next_file_number()),
            log_number: self.versions.log_number(),
            wal_number: self.wal_number,
        }
    }
}

struct DbInner {
    opts: Options,
    env: EnvRef,
    cache: Arc<TableCache>,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Wakes queued writers: followers whose result arrived and the next
    /// queue front after a turn completes.
    writers_cv: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    /// Writers merged per commit group (the `pcp_engine_group_commit_batches`
    /// histogram).
    group_commit_writers: Arc<pcp_obs::Histogram>,
    /// Lifecycle event ring: flushes, compactions, trivial moves, stalls.
    trace: Arc<pcp_obs::TraceLog>,
}

/// An open database.
pub struct Db {
    inner: Arc<DbInner>,
    /// The flush lane and the compaction lane, joined on drop.
    lanes: Vec<std::thread::JoinHandle<()>>,
}

/// Result of [`Db::health`]: whether background maintenance is alive.
///
/// Once a flush or compaction fails with a non-transient error (after the
/// configured retries), the database latches that error RocksDB-style:
/// background work stops, every subsequent write is rejected with the same
/// error, and reads continue from the last consistent version. The latch
/// clears only on reopen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbHealth {
    /// Background maintenance is running normally.
    Ok,
    /// A background error is latched; writes are rejected until reopen.
    BackgroundError(String),
}

impl DbHealth {
    /// True when no background error is latched.
    pub fn is_ok(&self) -> bool {
        matches!(self, DbHealth::Ok)
    }
}

/// A consistent read view; reads at this snapshot ignore later writes.
pub struct Snapshot {
    inner: Arc<DbInner>,
    /// The sequence number this snapshot reads at.
    pub sequence: SequenceNumber,
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock();
        if let Some(count) = st.snapshots.get_mut(&self.sequence) {
            *count -= 1;
            if *count == 0 {
                st.snapshots.remove(&self.sequence);
            }
        }
    }
}

impl Db {
    /// Opens (creating or recovering) a database on `env`.
    pub fn open(env: EnvRef, opts: Options) -> io::Result<Db> {
        let mut versions = VersionSet::open(Arc::clone(&env))?;
        let mem = Arc::new(Memtable::new());
        let mut max_seq = versions.last_sequence();

        let on_disk: Vec<(FileKind, u64)> = env
            .list()?
            .iter()
            .filter_map(|n| parse_file_name(n))
            .collect();
        for (_, num) in &on_disk {
            versions.mark_file_number_used(*num);
        }
        // Replay WALs newer than the manifest's log number.
        let mut logs: Vec<u64> = on_disk
            .iter()
            .filter(|(kind, num)| *kind == FileKind::Wal && *num >= versions.log_number())
            .map(|(_, num)| *num)
            .collect();
        logs.sort_unstable();
        let mut tail_corruptions = 0u64;
        for log in &logs {
            let mut reader = WalReader::open(&*env, &wal_file(*log))?;
            while let Some(record) = reader.next_record()? {
                let (seq, batch) = WriteBatch::decode(&record)?;
                let next = mem.insert_batch(seq, batch.entry_refs());
                max_seq = max_seq.max(next - 1);
            }
            if reader.corruption_detected() {
                tail_corruptions += 1;
            }
        }
        versions.set_last_sequence(max_seq);

        // Start a fresh WAL; flush any replayed data straight to L0 so the
        // old logs become obsolete.
        let wal_number = versions.allocate_file_number();
        let wal = WalWriter::create(&*env, &wal_file(wal_number))?;
        let block_cache = if opts.block_cache_bytes > 0 {
            Some(pcp_sstable::BlockCache::new(opts.block_cache_bytes))
        } else {
            None
        };
        let cache = Arc::new(TableCache::with_block_cache(Arc::clone(&env), block_cache));

        let replayed = write_level0(&cache, &versions.file_number_counter(), &opts, &mem)?;
        versions.log_and_apply(VersionEdit {
            log_number: Some(wal_number),
            new_files: replayed.map(|meta| (0, meta)).into_iter().collect(),
            ..Default::default()
        })?;

        let inner = Arc::new(DbInner {
            opts,
            env,
            cache,
            state: Mutex::new(State {
                mem: Arc::new(Memtable::new()),
                imm: None,
                wal: Some(wal),
                wal_number,
                imm_wal: None,
                versions,
                flushing: None,
                compacting: None,
                installing: false,
                manual: None,
                bg_error: None,
                snapshots: BTreeMap::new(),
                write_queue: std::collections::VecDeque::new(),
                write_results: std::collections::HashMap::new(),
                next_ticket: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            writers_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::default(),
            group_commit_writers: Arc::new(pcp_obs::Histogram::new()),
            trace: Arc::new(pcp_obs::TraceLog::new(1024)),
        });
        if tail_corruptions > 0 {
            // A crash tore the tail of one or more logs; replay stopped at
            // the committed prefix (the durability contract), but the event
            // must be visible outside the process.
            inner
                .metrics
                .wal_tail_corruptions
                .store(tail_corruptions, AtomicOrdering::Relaxed);
            inner.trace.record(
                pcp_obs::TraceKind::WalTailCorruption,
                &[("logs", tail_corruptions)],
            );
        }
        let plan = inner.state.lock().gc_plan();
        inner.delete_obsolete_files(&plan);

        // Built first so a failed second spawn drops it and joins the first.
        let mut db = Db {
            inner,
            lanes: Vec::with_capacity(2),
        };
        type Lane = fn(&DbInner);
        for (name, lane) in [
            ("pcp-lsm-flush", DbInner::flush_lane as Lane),
            ("pcp-lsm-compact", DbInner::compaction_lane),
        ] {
            let inner = Arc::clone(&db.inner);
            db.lanes.push(
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn(move || lane(&inner))?,
            );
        }
        Ok(db)
    }

    /// Registers a snapshot at the current sequence.
    pub fn snapshot(&self) -> Snapshot {
        let mut st = self.inner.state.lock();
        let seq = st.versions.last_sequence();
        *st.snapshots.entry(seq).or_insert(0) += 1;
        Snapshot {
            inner: Arc::clone(&self.inner),
            sequence: seq,
        }
    }

    /// Forces the current memtable out to level 0 and waits.
    pub fn flush(&self) -> io::Result<()> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        if st.mem.is_empty() && st.imm.is_none() {
            return Ok(());
        }
        // Only the writer queue's front rotates.
        inner.queue(&mut st, None)?;
        // Until the flush lane has installed the table and swept.
        while st.imm.is_some() || st.flushing.is_some() {
            inner.check_bg_error(&st)?;
            inner.done_cv.wait(&mut st);
        }
        Ok(())
    }

    /// Blocks until no flush or compaction work remains: no immutable
    /// memtable, no compaction to pick, neither lane running.
    pub fn wait_idle(&self) -> io::Result<()> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        loop {
            inner.check_bg_error(&st)?;
            let busy = st.imm.is_some()
                || st.flushing.is_some()
                || st.compacting.is_some()
                || st.manual.as_ref().is_some_and(|m| !m.done)
                || st.versions.pick_compaction(&inner.opts.policy).is_some();
            if !busy {
                return Ok(());
            }
            inner.done_cv.wait(&mut st);
        }
    }

    /// Synchronously compacts every level containing data in `[lo, hi]`
    /// (unbounded when `None`), top down: the compaction lane runs one
    /// manual pick per level while this caller waits.
    pub fn compact_range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> io::Result<()> {
        self.flush()?;
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        for level in 0..NUM_LEVELS - 1 {
            // Another caller's request holds the slot until it clears it.
            while st.manual.is_some() {
                inner.check_bg_error(&st)?;
                inner.done_cv.wait(&mut st);
            }
            inner.check_bg_error(&st)?;
            st.manual = Some(ManualCompaction {
                level,
                lo: lo.map(<[u8]>::to_vec),
                hi: hi.map(<[u8]>::to_vec),
                done: false,
            });
            inner.work_cv.notify_all();
            // A latched error ends the wait; none is posted after it.
            while !st.manual.as_ref().is_some_and(|m| m.done) && st.bg_error.is_none() {
                inner.done_cv.wait(&mut st);
            }
            st.manual = None;
            inner.done_cv.notify_all();
            inner.check_bg_error(&st)?;
        }
        Ok(())
    }

    /// Reports whether background maintenance is healthy or a background
    /// error has been latched (see [`DbHealth`]).
    pub fn health(&self) -> DbHealth {
        match &self.inner.state.lock().bg_error {
            Some(e) => DbHealth::BackgroundError(e.to_string()),
            None => DbHealth::Ok,
        }
    }

    /// The engine's lifecycle trace: one [`pcp_obs::TraceEvent`] per
    /// flush, merge compaction, trivial move, and write stall, in a
    /// bounded ring (most recent 1024 events).
    pub fn trace(&self) -> &Arc<pcp_obs::TraceLog> {
        &self.inner.trace
    }

    /// The compaction executor this database runs. In a sharded engine
    /// every shard holds a clone of the same `Arc`, so executor-owned
    /// metrics ([`CompactionExec::register_metrics`]) should be registered
    /// once per engine, not once per shard.
    pub fn executor(&self) -> &Arc<dyn CompactionExec> {
        &self.inner.opts.executor
    }

    /// Per-level (file count, bytes) summary.
    pub fn level_summary(&self) -> Vec<(usize, u64)> {
        let st = self.inner.state.lock();
        let v = st.versions.current();
        (0..NUM_LEVELS)
            .map(|l| (v.level_files(l), v.level_bytes(l)))
            .collect()
    }

    /// The environment this database lives on.
    pub fn env(&self) -> &EnvRef {
        &self.inner.env
    }

    /// Estimates the on-disk bytes holding user keys in `[lo, hi]`
    /// (unbounded when `None`), from table metadata: full size for tables
    /// entirely inside the range, half for tables straddling an edge. The
    /// live memtable is not counted.
    pub fn approximate_size(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> u64 {
        let version = {
            let st = self.inner.state.lock();
            st.versions.current()
        };
        let inside =
            |k: &[u8]| -> bool { lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k <= hi) };
        let mut total = 0u64;
        for files in &version.levels {
            for f in files {
                if !f.overlaps_user_range(lo, hi) {
                    continue;
                }
                let fully_inside = inside(pcp_sstable::key::user_key(&f.smallest))
                    && inside(pcp_sstable::key::user_key(&f.largest));
                total += if fully_inside { f.size } else { f.size / 2 };
            }
        }
        total
    }

    /// Walks every live table, verifying file-level metadata, block
    /// checksums (the S2 step, applied offline), decompression, entry
    /// ordering, and level disjointness. Each table is opened afresh from
    /// the device and its data blocks read front to back in spans, past the
    /// block cache ([`pcp_sstable::TableReader::data_spans`]), so what is
    /// checked is what is on disk, not what the table cache holds. Every bad
    /// block is reported with its offset, and a failed span read against
    /// each block it covered. Returns a report; `errors` is empty on a
    /// healthy store.
    pub fn verify_integrity(&self) -> io::Result<IntegrityReport> {
        let version = {
            let st = self.inner.state.lock();
            st.versions.current()
        };
        let mut report = IntegrityReport::default();
        if let Err(e) = version.check_invariants() {
            report.errors.push(format!("level invariants: {e}"));
        }
        for (level, files) in version.levels.iter().enumerate() {
            for meta in files {
                report.tables += 1;
                let table = match self.inner.cache.open_uncached(meta.number) {
                    Ok(t) => Arc::new(t),
                    Err(e) => {
                        report
                            .errors
                            .push(format!("L{level} table {}: open failed: {e}", meta.number));
                        continue;
                    }
                };
                let stats = table.stats();
                if stats.entries != meta.entries {
                    report.errors.push(format!(
                        "L{level} table {}: manifest says {} entries, table says {}",
                        meta.number, meta.entries, stats.entries
                    ));
                }
                match table.block_metas() {
                    Err(e) => report
                        .errors
                        .push(format!("L{level} table {}: index: {e}", meta.number)),
                    Ok(metas) => {
                        let mut spans = table.data_spans();
                        for bm in &metas {
                            report.blocks += 1;
                            report.entries += bm.entries;
                            let at = bm.handle.offset;
                            let result = spans
                                .read(at..at + bm.stored_size())
                                .and_then(|raw| {
                                    let (payload, kind) = pcp_sstable::table::verify_block(&raw)?;
                                    pcp_sstable::table::decompress_block(payload, kind)
                                })
                                .map(|_| ());
                            if let Err(e) = result {
                                report.errors.push(format!(
                                    "L{level} table {} block @{}: {e}",
                                    meta.number, bm.handle.offset
                                ));
                            }
                        }
                        for w in metas.windows(2) {
                            if pcp_sstable::internal_key_cmp(&w[0].last_key, &w[1].first_key)
                                != std::cmp::Ordering::Less
                            {
                                report.errors.push(format!(
                                    "L{level} table {}: blocks out of order",
                                    meta.number
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    /// Human-readable engine summary (levels, counters) for diagnostics.
    pub fn debug_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let m = self.metrics();
        let summary = self.level_summary();
        let _ = writeln!(out, "=== pcp-lsm engine state ===");
        for (level, (files, bytes)) in summary.iter().enumerate() {
            if *files > 0 {
                let _ = writeln!(
                    out,
                    "  L{level}: {files:4} files  {:10.2} MB",
                    *bytes as f64 / 1048576.0
                );
            }
        }
        let _ = writeln!(
            out,
            "  writes: {} puts, {} stalls ({:.1} ms)",
            m.puts,
            m.stall_events,
            m.stall_time.as_secs_f64() * 1e3,
        );
        let _ = writeln!(
            out,
            "  flushes: {} ({:.2} MB)   compactions: {} (+{} moves), {:.2} MB at {:.1} MB/s",
            m.flush_count,
            m.flush_bytes as f64 / 1048576.0,
            m.compaction_count,
            m.trivial_moves,
            (m.compaction_input_bytes + m.compaction_output_bytes) as f64 / 1048576.0,
            m.compaction_bandwidth() / 1048576.0,
        );
        let _ = writeln!(
            out,
            "  gc: {} deleted, {} delete errors   bg retries: {}   health: {:?}",
            m.gc_deleted_files,
            m.gc_delete_errors,
            m.bg_retries,
            self.health(),
        );
        out
    }
}

/// Result of [`Db::verify_integrity`].
#[derive(Debug, Default)]
pub struct IntegrityReport {
    /// Tables inspected.
    pub tables: u64,
    /// Data blocks whose checksums were verified.
    pub blocks: u64,
    /// Entries accounted by block metadata.
    pub entries: u64,
    /// Problems found (empty = healthy).
    pub errors: Vec<String>,
}

impl IntegrityReport {
    /// True when no corruption or inconsistency was found.
    pub fn is_healthy(&self) -> bool {
        self.errors.is_empty()
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, AtomicOrdering::SeqCst);
        // Each lane checks the flag and parks under the state lock. Pass
        // through the lock before notifying: a lane has then either not
        // yet checked (and will see the flag) or is already parked (and
        // gets the wakeup) — never in between, where it would miss both
        // and its join would hang.
        drop(self.inner.state.lock());
        self.inner.work_cv.notify_all();
        for lane in self.lanes.drain(..) {
            let _ = pcp_storage::blocking::wait("thread join", || lane.join());
        }
    }
}

impl DbInner {
    fn check_bg_error(&self, st: &State) -> io::Result<()> {
        match &st.bg_error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }

    /// Latches the first non-transient failure — later ones keep it — and
    /// wakes everyone waiting for background progress that will not come.
    fn latch_error(&self, st: &mut State, e: io::Error) {
        st.bg_error.get_or_insert(e);
        self.done_cv.notify_all();
    }

    /// A failed WAL append or sync means the log can no longer be trusted
    /// to hold this (or any later) record durably: latch the error so
    /// every subsequent write is rejected instead of silently diverging
    /// from the log.
    fn latch_wal_failure(&self, st: &mut State, e: &io::Error) {
        self.latch_error(
            st,
            io::Error::new(e.kind(), format!("wal write failed: {e}")),
        );
    }
}
