//! The database: write path, read path, background maintenance.
//!
//! The moving parts follow LevelDB's architecture:
//!
//! * Writers append to the WAL and insert into the skiplist memtable under
//!   one mutex. When the memtable reaches its threshold (paper default:
//!   4 MB) it becomes immutable and a background flush dumps it into a
//!   level-0 SSTable.
//! * Two background lanes share the state lock and the version set: the
//!   flush lane turns the immutable memtable into a level-0 table, the
//!   compaction lane runs one compaction at a time, so a full memtable is
//!   flushed while a merge is in flight (DESIGN.md §12 "Background
//!   lanes"). Compactions are picked by
//!   [`crate::version_set::VersionSet::pick_compaction`] and executed by
//!   the configured [`CompactionExec`] — this is where the paper's
//!   SCP/PCP/PPCP executors plug in.
//! * When compaction cannot keep up, level 0 grows: writers first get
//!   slowed (one millisecond per write once L0 reaches
//!   `l0_slowdown_files`), then stalled outright at `l0_stop_files` (the
//!   paper's *write pauses*), which is precisely the coupling that makes
//!   compaction bandwidth determine system throughput (Fig. 10: IOPS vs
//!   compaction bandwidth).

use crate::compact::{CompactionExec, CompactionRequest, ResourceGrant};
use crate::filename::{parse_file_name, table_file, wal_file, FileKind};
use crate::iter::{DbIter, LevelIter};
use crate::memtable::Memtable;
use crate::table_cache::TableCache;
use crate::version::{FileMetadata, Version, NUM_LEVELS};
use crate::version_set::{CompactionPick, CompactionPolicy, VersionSet};
use crate::wal::{WalReader, WalWriter};
use crate::edit::VersionEdit;
use parking_lot::{Condvar, Mutex, MutexGuard};
use pcp_sstable::key::{
    lookup_key, parse_internal_key, SequenceNumber, ValueType,
};
use pcp_sstable::{
    internal_key_cmp, CompressionKind, KvIter, MergingIter, TableBuilder,
    TableBuilderOptions,
};
use pcp_storage::{is_transient, EnvRef, RetryPolicy};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry policy for transient I/O failures in the WAL and the background
/// flush/compaction paths. Non-transient failures are never retried; they
/// latch the background-error state (see [`Db::health`]).
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff: Duration::from_millis(1),
    max_backoff: Duration::from_millis(50),
};

/// Engine configuration. Defaults mirror the paper's experimental setup.
#[derive(Clone)]
pub struct Options {
    /// Memtable threshold before rotation (paper: 4 MB).
    pub memtable_bytes: usize,
    /// Output SSTable rotation size (paper: 2 MB).
    pub sstable_bytes: u64,
    /// Data-block size (paper: 4 KB).
    pub block_bytes: usize,
    /// Compress data blocks (paper: snappy on).
    pub compression: bool,
    /// Bloom bits per key (0 disables).
    pub bloom_bits_per_key: usize,
    /// Compaction trigger thresholds.
    pub policy: CompactionPolicy,
    /// L0 file count that slows writers by 1 ms each.
    pub l0_slowdown_files: usize,
    /// L0 file count that stops writers until compaction catches up.
    pub l0_stop_files: usize,
    /// Sync the WAL on every write.
    pub sync_writes: bool,
    /// Decoded-block cache budget for the read path; 0 disables it (the
    /// paper's direct-I/O semantics — compaction always bypasses it).
    pub block_cache_bytes: usize,
    /// Pipelined scan readahead: iterators that detect sequential access
    /// prefetch, verify and decompress blocks on a background stage (the
    /// paper's S1‖S3/S4 overlap applied to the read path). Random access
    /// is unaffected.
    pub readahead: bool,
    /// The compaction algorithm. Defaults to the adaptive pipelined
    /// executor ([`pcp_core::AdaptiveExec`]), which picks PCP / C-PPCP /
    /// S-PPCP per compaction from the published occupancy gauges; set this
    /// field to pin one shape (e.g. [`crate::SimpleMergeExec`], the
    /// reference serial merge).
    pub executor: Arc<dyn CompactionExec>,
    /// Directory this database lives in, for constructors that build their
    /// own [`pcp_storage::StdFsEnv`] (e.g. a sharded engine stamping one
    /// subdirectory per shard). [`Db::open`] itself takes an explicit env
    /// and treats this field as advisory.
    pub dir: Option<std::path::PathBuf>,
    /// Shared admission gate bounding how many databases compact at once
    /// (see [`crate::CompactionLimiter`]). `None` means ungated. Flushes
    /// are never gated — delaying a flush turns directly into writer
    /// stalls.
    pub compaction_limiter: Option<Arc<crate::CompactionLimiter>>,
    /// Replication tap: observes every committed WAL record after its
    /// append (and sync, when `sync_writes`) succeeded, receiving the
    /// exact record bytes plus its sequence span (see [`crate::WalTap`]). The
    /// tap must not fail the write — the record is already locally
    /// durable when it fires. `None` disables the tap entirely.
    pub wal_tap: Option<Arc<dyn crate::WalTap>>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 4 << 20,
            sstable_bytes: 2 << 20,
            block_bytes: 4096,
            compression: true,
            bloom_bits_per_key: 10,
            policy: CompactionPolicy::default(),
            l0_slowdown_files: 8,
            l0_stop_files: 12,
            sync_writes: false,
            block_cache_bytes: 0,
            readahead: true,
            executor: Arc::new(pcp_core::AdaptiveExec::default()),
            dir: None,
            compaction_limiter: None,
            wal_tap: None,
        }
    }
}

impl Options {
    /// Default options rooted at `dir` (see [`Options::dir`]).
    pub fn with_dir(dir: impl Into<std::path::PathBuf>) -> Options {
        Options {
            dir: Some(dir.into()),
            ..Options::default()
        }
    }

    /// A copy of these options rebased into the subdirectory `name` of
    /// [`Options::dir`] — how a sharded engine stamps per-shard
    /// directories without hand-cloning every field.
    ///
    /// # Panics
    /// Panics if `dir` is unset.
    pub fn in_subdir(&self, name: impl AsRef<std::path::Path>) -> Options {
        let base = self.dir.as_ref().expect("Options::dir is unset");
        Options {
            dir: Some(base.join(name)),
            ..self.clone()
        }
    }

    fn table_opts(&self) -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: self.block_bytes,
            restart_interval: 16,
            compression: if self.compression {
                CompressionKind::Lz
            } else {
                CompressionKind::None
            },
            bloom_bits_per_key: self.bloom_bits_per_key,
        }
    }

    /// The scan-path context [`Db::open`] hands every table reader.
    fn scan_context(&self) -> pcp_sstable::ScanContext {
        let mut ctx = pcp_sstable::ScanContext::default();
        ctx.opts.enabled = self.readahead;
        ctx
    }
}

/// A set of writes applied atomically (one WAL record).
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    entries: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
}

/// One operation of a [`WriteBatch`], as yielded by [`WriteBatch::ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert `key → value`.
    Put {
        /// Key to insert.
        key: &'a [u8],
        /// Value to store.
        value: &'a [u8],
    },
    /// Remove `key`.
    Delete {
        /// Key to tombstone.
        key: &'a [u8],
    },
}

impl<'a> BatchOp<'a> {
    /// The key this operation touches.
    pub fn key(&self) -> &'a [u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Delete { key } => key,
        }
    }
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queues a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.entries
            .push((ValueType::Value, key.to_vec(), value.to_vec()));
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.entries
            .push((ValueType::Deletion, key.to_vec(), Vec::new()));
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The queued operations, in insertion order — how a layer above
    /// (e.g. a sharded engine fanning a batch out to sub-databases)
    /// inspects a batch without re-encoding it.
    pub fn ops(&self) -> impl Iterator<Item = BatchOp<'_>> + '_ {
        self.entries.iter().map(|(t, k, v)| match t {
            ValueType::Value => BatchOp::Put { key: k, value: v },
            ValueType::Deletion => BatchOp::Delete { key: k },
        })
    }

    /// Approximate encoded size, used to cap how many batches one group
    /// leader merges into a single WAL record.
    fn approximate_bytes(&self) -> usize {
        12 + self
            .entries
            .iter()
            .map(|(_, k, v)| k.len() + v.len() + 19)
            .sum::<usize>()
    }

    /// The entries as `(type, key, value)` borrows, for memtable insertion.
    pub(crate) fn entry_refs(
        &self,
    ) -> impl Iterator<Item = (ValueType, &[u8], &[u8])> + '_ {
        self.entries
            .iter()
            .map(|(t, k, v)| (*t, k.as_slice(), v.as_slice()))
    }

    /// Appends the entry encodings (no header) to `out` — the group leader
    /// concatenates several batches' entries under one record header.
    fn encode_entries(&self, out: &mut Vec<u8>) {
        for (t, k, v) in &self.entries {
            out.push(*t as u8);
            pcp_codec::put_u64(out, k.len() as u64);
            out.extend_from_slice(k);
            pcp_codec::put_u64(out, v.len() as u64);
            out.extend_from_slice(v);
        }
    }

    fn decode(record: &[u8]) -> io::Result<(SequenceNumber, WriteBatch)> {
        let corrupt = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        if record.len() < 12 {
            return Err(corrupt("batch record too short"));
        }
        let seq = pcp_codec::read_u64_le(record, 0)
            .ok_or_else(|| corrupt("batch record too short for sequence"))?;
        let count = pcp_codec::read_u32_le(record, 8)
            .ok_or_else(|| corrupt("batch record too short for count"))?;
        let mut batch = WriteBatch::new();
        let mut input = &record[12..];
        for _ in 0..count {
            let (&tag, rest) = input
                .split_first()
                .ok_or_else(|| corrupt("truncated batch entry"))?;
            let t = ValueType::from_u8(tag).ok_or_else(|| corrupt("bad value type"))?;
            let (klen, n) =
                pcp_codec::decode_u64(rest).map_err(|_| corrupt("bad key length"))?;
            let rest = &rest[n..];
            if rest.len() < klen as usize {
                return Err(corrupt("truncated key"));
            }
            let (key, rest) = rest.split_at(klen as usize);
            let (vlen, n) =
                pcp_codec::decode_u64(rest).map_err(|_| corrupt("bad value length"))?;
            let rest = &rest[n..];
            if rest.len() < vlen as usize {
                return Err(corrupt("truncated value"));
            }
            let (value, rest) = rest.split_at(vlen as usize);
            batch.entries.push((t, key.to_vec(), value.to_vec()));
            input = rest;
        }
        Ok((seq, batch))
    }
}

/// Monotone engine counters (the atomics behind `pcp_engine_*` metrics;
/// see `OBSERVABILITY.md`).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Write operations accepted.
    pub puts: AtomicU64,
    /// Point lookups served.
    pub gets: AtomicU64,
    /// Writes stopped waiting for compaction.
    pub stall_events: AtomicU64,
    /// Total time writers spent stalled, nanoseconds.
    pub stall_nanos: AtomicU64,
    /// Writes delayed by the L0 slowdown trigger.
    pub slowdown_events: AtomicU64,
    /// Memtable flushes completed.
    pub flush_count: AtomicU64,
    /// SSTable bytes written by flushes.
    pub flush_bytes: AtomicU64,
    /// Merge compactions completed.
    pub compaction_count: AtomicU64,
    /// Bytes read by compactions.
    pub compaction_input_bytes: AtomicU64,
    /// Bytes written by compactions.
    pub compaction_output_bytes: AtomicU64,
    /// Wall time inside compactions, nanoseconds.
    pub compaction_nanos: AtomicU64,
    /// Files moved down a level without rewrite.
    pub trivial_moves: AtomicU64,
    /// Obsolete files removed by the GC sweep.
    pub gc_deleted_files: AtomicU64,
    /// GC deletes that failed (retried next sweep).
    pub gc_delete_errors: AtomicU64,
    /// Background attempts retried after transient I/O errors.
    pub bg_retries: AtomicU64,
    /// WAL sync (fsync) operations issued. With group commit, one sync
    /// covers every writer merged into the group, so this grows slower
    /// than `puts` under concurrency — the amortization the write path is
    /// built around.
    pub wal_syncs: AtomicU64,
    /// Commit groups formed by write leaders (each is one WAL record).
    pub group_commits: AtomicU64,
    /// WAL logs whose replay at open stopped at a torn or corrupt tail
    /// (the committed prefix was recovered; the tail was discarded).
    pub wal_tail_corruptions: AtomicU64,
    /// Merge compactions picked per source level (trivial moves excluded).
    pub level_compactions: [AtomicU64; NUM_LEVELS],
    /// Compaction input bytes per source level.
    pub level_compaction_input_bytes: [AtomicU64; NUM_LEVELS],
    /// Compaction output bytes per source level (written to `level + 1`).
    pub level_compaction_output_bytes: [AtomicU64; NUM_LEVELS],
}

/// Per-source-level compaction tallies inside [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCompaction {
    /// Merge compactions whose source was this level.
    pub count: u64,
    /// Bytes read from this level's compactions (both input components).
    pub input_bytes: u64,
    /// Bytes written by this level's compactions (into `level + 1`).
    pub output_bytes: u64,
}

/// Plain-data snapshot of [`Metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSnapshot {
    /// Write operations accepted.
    pub puts: u64,
    /// Point lookups served.
    pub gets: u64,
    /// Writes stopped waiting for compaction.
    pub stall_events: u64,
    /// Total time writers spent stalled.
    pub stall_time: Duration,
    /// Writes delayed by the L0 slowdown trigger.
    pub slowdown_events: u64,
    /// Memtable flushes completed.
    pub flush_count: u64,
    /// SSTable bytes written by flushes.
    pub flush_bytes: u64,
    /// Merge compactions completed.
    pub compaction_count: u64,
    /// Bytes read by compactions.
    pub compaction_input_bytes: u64,
    /// Bytes written by compactions.
    pub compaction_output_bytes: u64,
    /// Wall time inside compactions.
    pub compaction_time: Duration,
    /// Files moved down a level without rewrite.
    pub trivial_moves: u64,
    /// Obsolete files removed by the GC sweep.
    pub gc_deleted_files: u64,
    /// GC deletes that failed (the file stays until the next sweep).
    pub gc_delete_errors: u64,
    /// Background flush/compaction attempts retried after transient I/O
    /// errors.
    pub bg_retries: u64,
    /// WAL sync operations issued (one per commit group, not per writer).
    pub wal_syncs: u64,
    /// Commit groups formed by write leaders.
    pub group_commits: u64,
    /// WAL logs that hit a torn/corrupt tail during replay at open.
    pub wal_tail_corruptions: u64,
    /// Per-source-level merge-compaction tallies (index = source level;
    /// trivial moves are counted in [`MetricsSnapshot::trivial_moves`]
    /// only).
    pub levels: [LevelCompaction; NUM_LEVELS],
}

impl MetricsSnapshot {
    /// Compaction bandwidth in bytes/second: (input + output) / busy time —
    /// the paper's primary metric.
    pub fn compaction_bandwidth(&self) -> f64 {
        let bytes = self.compaction_input_bytes + self.compaction_output_bytes;
        let secs = self.compaction_time.as_secs_f64();
        if secs > 0.0 {
            bytes as f64 / secs
        } else {
            0.0
        }
    }
}

/// One queued writer. The batch is `Some` until a leader claims it into a
/// commit group; the entry itself stays in the queue until the group
/// completes, so the queue front always identifies the active leader.
struct PendingWrite {
    ticket: u64,
    batch: Option<WriteBatch>,
}

struct State {
    mem: Arc<Memtable>,
    imm: Option<Arc<Memtable>>,
    /// `None` exactly while a group leader holds the WAL inside the
    /// unlocked I/O window; [`DbInner::rotate_memtable`] waits for it to
    /// return before swapping logs.
    wal: Option<WalWriter>,
    wal_number: u64,
    versions: VersionSet,
    /// In-progress marker of the flush lane: `Some(floor)` from the moment
    /// it claims `imm` until its obsolete-file sweep is done. `floor` is
    /// the file-number counter at the claim, so every file the job creates
    /// is numbered at or above it — what [`State::gc_plan`] keeps out of
    /// the other lane's sweep.
    flushing: Option<u64>,
    /// The same marker for the one compaction a `Db` runs at a time, taken
    /// by the compaction lane and by [`Db::compact_range`] alike.
    compacting: Option<u64>,
    bg_error: Option<String>,
    snapshots: BTreeMap<u64, usize>,
    /// FIFO of writers awaiting commit; the front entry's owner is the
    /// group leader.
    write_queue: std::collections::VecDeque<PendingWrite>,
    /// Results for completed followers, keyed by ticket. `Err` carries the
    /// message of the group's WAL failure (io::Error is not Clone).
    write_results: std::collections::HashMap<u64, Result<(), String>>,
    next_ticket: u64,
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

/// Why [`DbInner::make_room_for_write`] stopped a writer — the `cause`
/// field of the `write_stall` trace event.
#[derive(Clone, Copy)]
enum StallCause {
    /// The previous memtable is still being flushed.
    ImmPending = 0,
    /// Level 0 holds `l0_stop_files` tables.
    L0Stop = 1,
}

struct DbInner {
    opts: Options,
    env: EnvRef,
    cache: Arc<TableCache>,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Wakes queued writers: followers whose result arrived, the next
    /// leader after a group completes, and WAL-rotation waiters.
    writers_cv: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    /// Writers merged per commit group (the `pcp_engine_group_commit_batches`
    /// histogram).
    group_commit_writers: Arc<pcp_obs::Histogram>,
    /// Lifecycle event ring: flushes, compactions, trivial moves, stalls.
    trace: Arc<pcp_obs::TraceLog>,
    /// This database's slot in [`Options::compaction_limiter`], registered
    /// at open so the scheduler can weight grants by per-shard debt.
    sched_slot: Option<usize>,
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
        let cache = Arc::new(TableCache::with_scan_context(
            Arc::clone(&env),
            block_cache,
            opts.scan_context(),
        ));

        let (mem, flush_edit) = if mem.is_empty() {
            (mem, None)
        } else {
            let number = versions.allocate_file_number();
            let meta = Self::write_memtable_to_table(&env, &opts, &mem, number)?;
            let edit = VersionEdit {
                log_number: Some(wal_number),
                new_files: vec![(0, meta)],
                ..Default::default()
            };
            (Arc::new(Memtable::new()), Some(edit))
        };
        let edit = flush_edit.unwrap_or(VersionEdit {
            log_number: Some(wal_number),
            ..Default::default()
        });
        versions.log_and_apply(edit)?;

        let sched_slot = opts.compaction_limiter.as_ref().map(|l| l.register());
        let inner = Arc::new(DbInner {
            opts,
            env,
            cache,
            state: Mutex::new(State {
                mem,
                imm: None,
                wal: Some(wal),
                wal_number,
                versions,
                flushing: None,
                compacting: None,
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
            sched_slot,
        });
        if tail_corruptions > 0 {
            // A crash tore the tail of one or more logs; replay stopped at
            // the committed prefix (the durability contract), but the event
            // must be visible outside the process — a replica promoting over
            // a torn tail shows up here.
            inner
                .metrics
                .wal_tail_corruptions
                .store(tail_corruptions, AtomicOrdering::Relaxed);
            inner
                .trace
                .record("wal_tail_corruption", &[("logs", tail_corruptions)]);
        }
        let plan = inner.state.lock().gc_plan();
        inner.delete_obsolete_files(&plan);
        if let Some(tap) = &inner.opts.wal_tap {
            // Seed the tap's replication horizon before the first write can
            // race it.
            tap.attach(max_seq + 1);
        }

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

    fn write_memtable_to_table(
        env: &EnvRef,
        opts: &Options,
        mem: &Arc<Memtable>,
        number: u64,
    ) -> io::Result<Arc<FileMetadata>> {
        let file = env.create(&table_file(number))?;
        let mut builder = TableBuilder::new(file, opts.table_opts());
        let mut it = mem.iter();
        it.seek_to_first();
        let mut smallest = Vec::new();
        let mut largest = Vec::new();
        while it.valid() {
            if smallest.is_empty() {
                smallest = it.key().to_vec();
            }
            largest.clear();
            largest.extend_from_slice(it.key());
            builder.add(it.key(), it.value())?;
            it.next();
        }
        let stats = builder.finish()?;
        Ok(Arc::new(FileMetadata {
            number,
            size: stats.file_size,
            entries: stats.entries,
            smallest,
            largest,
        }))
    }

    /// Inserts `key → value`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch)
    }

    /// Deletes `key`.
    pub fn delete(&self, key: &[u8]) -> io::Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(batch)
    }

    /// Applies a batch atomically.
    ///
    /// Concurrent callers are merged LevelDB-style: each writer enqueues
    /// its batch and either becomes the *leader* — the queue front, which
    /// merges every pending batch up to a size cap into one WAL record,
    /// appends and (when `sync_writes`) syncs it with the state lock
    /// released, then republishes the memtable inserts and sequence bump —
    /// or blocks until its leader reports the shared outcome. A WAL
    /// failure latches the background error and is returned to **every**
    /// writer whose batch rode in the failed group.
    pub fn write(&self, batch: WriteBatch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.write_queue.push_back(PendingWrite {
            ticket,
            batch: Some(batch),
        });
        loop {
            if let Some(result) = st.write_results.remove(&ticket) {
                // A leader committed (or failed) our batch for us.
                return result.map_err(io::Error::other);
            }
            if st.write_queue.front().is_some_and(|w| w.ticket == ticket) {
                break; // queue front: we lead the next group
            }
            inner.writers_cv.wait(&mut st);
        }
        inner.commit_group(&mut st, ticket)
    }

    /// Reads the newest visible value for `key`.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        // One lock acquisition captures the sequence *and* the component
        // refs (they must come from the same instant anyway for the read
        // to be consistent).
        let (seq, mem, imm, version) = self.inner.read_view();
        self.inner.get_in_view(&mem, imm.as_ref(), &version, key, seq)
    }

    /// Reads `key` at an explicit sequence.
    pub fn get_at(&self, key: &[u8], snapshot: SequenceNumber) -> io::Result<Option<Vec<u8>>> {
        let (_, mem, imm, version) = self.inner.read_view();
        self.inner
            .get_in_view(&mem, imm.as_ref(), &version, key, snapshot)
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

    /// Scan cursor at the latest sequence.
    pub fn iter(&self) -> DbIter {
        let (seq, mem, imm, version) = self.inner.read_view();
        self.build_iter(mem, imm, version, seq)
    }

    /// Scan cursor at an explicit sequence.
    pub fn iter_at(&self, snapshot: SequenceNumber) -> DbIter {
        let (_, mem, imm, version) = self.inner.read_view();
        self.build_iter(mem, imm, version, snapshot)
    }

    fn build_iter(
        &self,
        mem: Arc<Memtable>,
        imm: Option<Arc<Memtable>>,
        version: Arc<Version>,
        snapshot: SequenceNumber,
    ) -> DbIter {
        let inner = &*self.inner;
        let mut children: Vec<Box<dyn KvIter>> = Vec::new();
        children.push(Box::new(mem.iter()));
        if let Some(imm) = imm {
            children.push(Box::new(imm.iter()));
        }
        // Level-0 tables overlap, so each is a run of its own; either way
        // the `LevelIter` opens tables lazily and keeps an open error.
        let level0 = version.levels[0].iter().map(|f| vec![Arc::clone(f)]);
        let deeper = version.levels[1..].iter().filter(|l| !l.is_empty()).cloned();
        for run in level0.chain(deeper) {
            children.push(Box::new(LevelIter::new(run, Arc::clone(&inner.cache))));
        }
        DbIter::new(
            MergingIter::new(children, internal_key_cmp),
            snapshot,
        )
        .pin_version(version)
    }

    /// Forces the current memtable out to level 0 and waits.
    pub fn flush(&self) -> io::Result<()> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        if st.mem.is_empty() && st.imm.is_none() {
            return Ok(());
        }
        if !st.mem.is_empty() {
            // Rotate, waiting for any previous imm first. A failed flush
            // leaves `imm` in place with the lane parked; the latch wakes
            // this wait, so check the error on every turn.
            while st.imm.is_some() {
                inner.check_bg_error(&st)?;
                inner.done_cv.wait(&mut st);
            }
            inner.check_bg_error(&st)?;
            inner.rotate_memtable(&mut st)?;
        }
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
                || st.versions.pick_compaction(&inner.opts.policy).is_some();
            if !busy {
                return Ok(());
            }
            inner.done_cv.wait(&mut st);
        }
    }

    /// Synchronously compacts every level containing data in `[lo, hi]`
    /// (unbounded when `None`), top down.
    pub fn compact_range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> io::Result<()> {
        self.flush()?;
        let inner = &*self.inner;
        for level in 0..NUM_LEVELS - 1 {
            // One pass per level, each under the compaction marker the
            // background lane also takes: never two merges in one `Db`.
            let mut st = inner.state.lock();
            while st.compacting.is_some() {
                inner.done_cv.wait(&mut st);
            }
            inner.check_bg_error(&st)?;
            if let Some(pick) = st.versions.pick_range(level, lo, hi) {
                st.compacting = Some(st.versions.next_file_number());
                // Manual compactions bypass the scheduler: the caller asked
                // for this work explicitly, so it runs unpaced.
                let result = inner.run_compaction(&mut st, pick, None);
                st.compacting = None;
                inner.done_cv.notify_all();
                inner.work_cv.notify_all();
                drop(st);
                result?;
            }
        }
        Ok(())
    }

    /// The sequence number of the most recent committed write — the
    /// replication offset a replica of this database must reach to be
    /// caught up.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.inner.state.lock().versions.last_sequence()
    }

    /// Applies one replicated WAL record — the replica half of the
    /// [`crate::WalTap`] contract.
    ///
    /// `record` must be the exact payload a primary's tap observed (a
    /// `WriteBatch` encoding carrying its own base sequence). The record
    /// is appended to this database's *own* WAL first — so a replica
    /// restart replays it with the original sequence numbers — then
    /// published through the same `Memtable::insert_batch` path the write
    /// path uses.
    ///
    /// Sequence contiguity is enforced: a record entirely at or below the
    /// applied horizon is a duplicate (idempotent resend after a
    /// reconnect) and is skipped with `Ok`; a record starting anywhere
    /// but exactly one past the horizon is rejected with
    /// `InvalidData` **before** any side effect, so an out-of-order or
    /// gapped stream can never tear the replica's state.
    ///
    /// Returns the new last applied sequence.
    pub fn apply_replicated(&self, record: &[u8]) -> io::Result<SequenceNumber> {
        let (first_seq, batch) = WriteBatch::decode(record)?;
        if batch.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "replicated record carries no entries",
            ));
        }
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        inner.check_bg_error(&st)?;
        let applied = st.versions.last_sequence();
        let batch_last = first_seq + batch.len() as u64 - 1;
        if batch_last <= applied {
            return Ok(applied); // duplicate resend — already applied
        }
        if first_seq != applied + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "out-of-sequence replicated record: starts at {first_seq}, \
                     applied horizon is {applied}"
                ),
            ));
        }
        inner.make_room_for_write(&mut st)?;
        // Admission and rotation can release the lock; a concurrent group
        // leader may also hold the WAL inside its I/O window. Wait for the
        // WAL to be resident and re-check the horizon under the re-acquired
        // lock before touching anything.
        while st.wal.is_none() {
            inner.writers_cv.wait(&mut st);
        }
        let applied = st.versions.last_sequence();
        if batch_last <= applied {
            return Ok(applied);
        }
        if first_seq != applied + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "out-of-sequence replicated record: starts at {first_seq}, \
                     applied horizon is {applied}"
                ),
            ));
        }
        let wal = st.wal.as_mut().expect("wal open");
        if let Err(e) = inner.log_record(wal, record) {
            inner.latch_wal_failure(&mut st, &e);
            return Err(e);
        }
        let next = st.mem.insert_batch(first_seq, batch.entry_refs());
        debug_assert_eq!(next - 1, batch_last);
        st.versions.set_last_sequence(next - 1);
        inner
            .metrics
            .puts
            .fetch_add(batch.len() as u64, AtomicOrdering::Relaxed);
        Ok(next - 1)
    }

    /// Reports whether background maintenance is healthy or a background
    /// error has been latched (see [`DbHealth`]).
    pub fn health(&self) -> DbHealth {
        match &self.inner.state.lock().bg_error {
            Some(e) => DbHealth::BackgroundError(e.clone()),
            None => DbHealth::Ok,
        }
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let m = &self.inner.metrics;
        MetricsSnapshot {
            puts: m.puts.load(AtomicOrdering::Relaxed),
            gets: m.gets.load(AtomicOrdering::Relaxed),
            stall_events: m.stall_events.load(AtomicOrdering::Relaxed),
            stall_time: Duration::from_nanos(m.stall_nanos.load(AtomicOrdering::Relaxed)),
            slowdown_events: m.slowdown_events.load(AtomicOrdering::Relaxed),
            flush_count: m.flush_count.load(AtomicOrdering::Relaxed),
            flush_bytes: m.flush_bytes.load(AtomicOrdering::Relaxed),
            compaction_count: m.compaction_count.load(AtomicOrdering::Relaxed),
            compaction_input_bytes: m
                .compaction_input_bytes
                .load(AtomicOrdering::Relaxed),
            compaction_output_bytes: m
                .compaction_output_bytes
                .load(AtomicOrdering::Relaxed),
            compaction_time: Duration::from_nanos(
                m.compaction_nanos.load(AtomicOrdering::Relaxed),
            ),
            trivial_moves: m.trivial_moves.load(AtomicOrdering::Relaxed),
            gc_deleted_files: m.gc_deleted_files.load(AtomicOrdering::Relaxed),
            gc_delete_errors: m.gc_delete_errors.load(AtomicOrdering::Relaxed),
            bg_retries: m.bg_retries.load(AtomicOrdering::Relaxed),
            wal_syncs: m.wal_syncs.load(AtomicOrdering::Relaxed),
            group_commits: m.group_commits.load(AtomicOrdering::Relaxed),
            wal_tail_corruptions: m.wal_tail_corruptions.load(AtomicOrdering::Relaxed),
            levels: std::array::from_fn(|l| LevelCompaction {
                count: m.level_compactions[l].load(AtomicOrdering::Relaxed),
                input_bytes: m.level_compaction_input_bytes[l].load(AtomicOrdering::Relaxed),
                output_bytes: m.level_compaction_output_bytes[l]
                    .load(AtomicOrdering::Relaxed),
            }),
        }
    }

    /// The engine's lifecycle trace: one [`pcp_obs::TraceEvent`] per
    /// flush, merge compaction, trivial move, and write stall, in a
    /// bounded ring (most recent 1024 events).
    pub fn trace(&self) -> &Arc<pcp_obs::TraceLog> {
        &self.inner.trace
    }

    /// The slot this database registered with its
    /// [`Options::compaction_limiter`] at open, or `None` when no limiter
    /// is configured. The sharded engine uses it to read per-shard
    /// scheduler gauges ([`crate::CompactionLimiter::granted_tokens`] etc.).
    pub fn scheduler_slot(&self) -> Option<usize> {
        self.inner.sched_slot
    }

    /// The compaction executor this database runs. In a sharded engine
    /// every shard holds a clone of the same `Arc`, so executor-owned
    /// metrics ([`CompactionExec::register_metrics`]) should be registered
    /// once per engine, not once per shard.
    pub fn executor(&self) -> &Arc<dyn CompactionExec> {
        &self.inner.opts.executor
    }

    /// Registers the engine's counters in `registry` under the
    /// `pcp_engine_*` namespace (closure collectors over the atomics this
    /// database already keeps — see `OBSERVABILITY.md` for the contract).
    /// `extra_labels` is attached to every series; the sharded engine
    /// passes `shard="<id>"` so per-shard series coexist. The collectors
    /// hold the database weakly: a registry that outlives it pins nothing
    /// (memtable, table cache, WAL handle all close with the `Db`) and its
    /// engine series scrape as 0 from then on.
    ///
    /// Per-level series carry a `level` label: cumulative compaction
    /// traffic (`pcp_engine_level_*_total`, from the per-level counters)
    /// and the current shape of the tree (`pcp_engine_level_files` /
    /// `pcp_engine_level_bytes` gauges, read from the live version at
    /// scrape time).
    pub fn register_metrics(&self, registry: &pcp_obs::Registry, extra_labels: &[(&str, &str)]) {
        let base: Vec<(String, String)> = extra_labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        type Getter = fn(&Metrics) -> u64;
        let counters: [(&str, &str, Getter); 18] = [
            ("pcp_engine_puts_total", "write operations accepted", |m| {
                m.puts.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_gets_total", "point lookups served", |m| {
                m.gets.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_stall_events_total", "writes stopped waiting for compaction", |m| {
                m.stall_events.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_stall_nanoseconds_total", "time writers spent stalled", |m| {
                m.stall_nanos.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_slowdown_events_total", "writes delayed by the L0 slowdown trigger", |m| {
                m.slowdown_events.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_flushes_total", "memtable flushes completed", |m| {
                m.flush_count.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_flush_bytes_total", "SSTable bytes written by flushes", |m| {
                m.flush_bytes.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compactions_total", "merge compactions completed", |m| {
                m.compaction_count.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compaction_input_bytes_total", "bytes read by compactions", |m| {
                m.compaction_input_bytes.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compaction_output_bytes_total", "bytes written by compactions", |m| {
                m.compaction_output_bytes.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compaction_nanoseconds_total", "wall time inside compactions", |m| {
                m.compaction_nanos.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_trivial_moves_total", "files moved down without rewrite", |m| {
                m.trivial_moves.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_gc_deleted_files_total", "obsolete files removed by GC", |m| {
                m.gc_deleted_files.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_gc_delete_errors_total", "GC deletes that failed", |m| {
                m.gc_delete_errors.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_bg_retries_total", "background attempts retried after transient errors", |m| {
                m.bg_retries.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_wal_sync_total", "WAL sync operations issued (one per commit group)", |m| {
                m.wal_syncs.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_group_commits_total", "commit groups formed by write leaders", |m| {
                m.group_commits.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_wal_tail_corruptions_total", "WAL logs with a torn/corrupt tail at replay", |m| {
                m.wal_tail_corruptions.load(AtomicOrdering::Relaxed)
            }),
        ];
        for (name, help, get) in counters {
            let inner = Arc::downgrade(&self.inner);
            registry.register_fn_counter(name, help, base.clone(), move || {
                inner.upgrade().map_or(0, |inner| get(&inner.metrics))
            });
        }
        registry.register_histogram(
            "pcp_engine_group_commit_batches",
            "writers merged per commit group",
            base.clone(),
            Arc::clone(&self.inner.group_commit_writers),
        );
        {
            type ScanGetter = fn(&pcp_sstable::ScanStats) -> u64;
            let scan_counters: [(&str, &str, ScanGetter); 5] = [
                ("pcp_scan_readahead_spans_total", "span reads issued by scan readahead workers", |s| {
                    s.spans()
                }),
                ("pcp_scan_readahead_blocks_total", "blocks decoded ahead of scan cursors", |s| {
                    s.blocks_prefetched()
                }),
                ("pcp_scan_readahead_hits_total", "block loads served from a prefetch window", |s| {
                    s.hits()
                }),
                ("pcp_scan_readahead_wasted_total", "prefetched blocks never consumed", |s| {
                    s.wasted()
                }),
                ("pcp_scan_sync_blocks_total", "data blocks loaded synchronously on the caller", |s| {
                    s.sync_blocks()
                }),
            ];
            for (name, help, get) in scan_counters {
                let stats = Arc::clone(&self.inner.cache.scan_context().stats);
                registry.register_fn_counter(name, help, base.clone(), move || get(&stats));
            }
            let stats = Arc::clone(&self.inner.cache.scan_context().stats);
            registry.register_fn_gauge(
                "pcp_scan_window_bytes",
                "decoded bytes currently parked in prefetch windows",
                base.clone(),
                move || stats.window_bytes() as f64,
            );
        }
        if let Some(cache) = self.inner.cache.block_cache() {
            for shard in 0..cache.num_shards() {
                let with_shard = {
                    let mut labels = base.clone();
                    labels.push(("cache_shard".to_string(), shard.to_string()));
                    labels
                };
                let c = Arc::clone(cache);
                registry.register_fn_gauge(
                    "pcp_engine_block_cache_shard_hits",
                    "block-cache hits per shard",
                    with_shard.clone(),
                    move || c.shard_stats(shard).0 as f64,
                );
                let c = Arc::clone(cache);
                registry.register_fn_gauge(
                    "pcp_engine_block_cache_shard_misses",
                    "block-cache misses per shard",
                    with_shard,
                    move || c.shard_stats(shard).1 as f64,
                );
            }
        }
        for level in 0..NUM_LEVELS {
            let with_level = |base: &[(String, String)]| {
                let mut labels = base.to_vec();
                labels.push(("level".to_string(), level.to_string()));
                labels
            };
            type LevelGetter = fn(&Metrics, usize) -> u64;
            let per_level: [(&str, &str, LevelGetter); 3] = [
                ("pcp_engine_level_compactions_total", "merge compactions per source level", |m, l| {
                    m.level_compactions[l].load(AtomicOrdering::Relaxed)
                }),
                ("pcp_engine_level_compaction_input_bytes_total", "compaction input bytes per source level", |m, l| {
                    m.level_compaction_input_bytes[l].load(AtomicOrdering::Relaxed)
                }),
                ("pcp_engine_level_compaction_output_bytes_total", "compaction output bytes per source level", |m, l| {
                    m.level_compaction_output_bytes[l].load(AtomicOrdering::Relaxed)
                }),
            ];
            for (name, help, get) in per_level {
                let inner = Arc::downgrade(&self.inner);
                registry.register_fn_counter(name, help, with_level(&base), move || {
                    inner.upgrade().map_or(0, |inner| get(&inner.metrics, level))
                });
            }
            type VersionGetter = fn(&Version, usize) -> f64;
            let shape: [(&str, &str, VersionGetter); 2] = [
                ("pcp_engine_level_files", "live tables per level", |v, l| {
                    v.level_files(l) as f64
                }),
                ("pcp_engine_level_bytes", "live bytes per level", |v, l| {
                    v.level_bytes(l) as f64
                }),
            ];
            for (name, help, get) in shape {
                let inner = Arc::downgrade(&self.inner);
                registry.register_fn_gauge(name, help, with_level(&base), move || {
                    inner.upgrade().map_or(0.0, |inner| {
                        let st = inner.state.lock();
                        get(&st.versions.current(), level)
                    })
                });
            }
        }
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
        let inside = |k: &[u8]| -> bool {
            lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k <= hi)
        };
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
    /// ordering, and level disjointness. Returns a report; `errors` is
    /// empty on a healthy store.
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
                let table = match self.inner.cache.get(meta.number) {
                    Ok(t) => t,
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
                        for bm in &metas {
                            report.blocks += 1;
                            report.entries += bm.entries;
                            let result = table
                                .read_raw_block(bm.handle)
                                .and_then(|raw| {
                                    let (payload, kind) =
                                        pcp_sstable::table::verify_block(&raw)?;
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
            "  writes: {} puts, {} stalls ({:.1} ms), {} slowdowns",
            m.puts,
            m.stall_events,
            m.stall_time.as_secs_f64() * 1e3,
            m.slowdown_events
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
            let _ = lane.join();
        }
        // After the compaction lane is gone no further grants can be
        // requested, so the scheduler slot can be retired (its debt stops
        // counting toward other shards' shares).
        if let (Some(limiter), Some(slot)) =
            (&self.inner.opts.compaction_limiter, self.inner.sched_slot)
        {
            limiter.unregister(slot);
        }
    }
}

/// Hard ceiling on one commit group's merged payload (LevelDB's 1 MB).
const MAX_GROUP_BYTES: usize = 1 << 20;
/// When the leader's own batch is small, cap the group lower so one tiny
/// write is never stuck behind a megabyte of followers' latency.
const SMALL_BATCH_BYTES: usize = 128 << 10;

impl DbInner {
    fn check_bg_error(&self, st: &State) -> io::Result<()> {
        match &st.bg_error {
            Some(e) => Err(io::Error::other(e.clone())),
            None => Ok(()),
        }
    }

    /// Latches the first non-transient failure — later ones keep it — and
    /// wakes everyone waiting for background progress that will not come.
    fn latch_error(&self, st: &mut State, message: String) {
        st.bg_error.get_or_insert(message);
        self.done_cv.notify_all();
    }

    /// A failed WAL append or sync means the log can no longer be trusted
    /// to hold this (or any later) record durably: latch the error so
    /// every subsequent write is rejected instead of silently diverging
    /// from the log.
    fn latch_wal_failure(&self, st: &mut State, e: &io::Error) {
        self.latch_error(st, format!("wal write failed: {e}"));
    }

    /// Leader path of [`Db::write`]: called by the writer at the queue
    /// front with the state lock held. Merges the pending batches into one
    /// group, commits it through the WAL with the lock released, then
    /// publishes and distributes the outcome.
    fn commit_group(&self, st: &mut MutexGuard<'_, State>, leader_ticket: u64) -> io::Result<()> {
        if let Err(e) = self.make_room_for_write(st) {
            // The leader's own admission failed (latched error). Followers
            // stay queued: the next one becomes leader and observes the
            // same latch itself.
            let w = st.write_queue.pop_front().expect("leader at queue front");
            debug_assert_eq!(w.ticket, leader_ticket);
            self.writers_cv.notify_all();
            return Err(e);
        }

        // Claim batches from the queue front up to the cap. Entries stay
        // queued (their tickets mark group membership and keep this leader
        // at the front); only the payloads move.
        let leader_bytes = st
            .write_queue
            .front()
            .and_then(|w| w.batch.as_ref())
            .map_or(0, |b| b.approximate_bytes());
        let cap = if leader_bytes <= SMALL_BATCH_BYTES {
            leader_bytes + SMALL_BATCH_BYTES
        } else {
            MAX_GROUP_BYTES
        };
        let mut group: Vec<(u64, WriteBatch)> = Vec::new();
        let mut group_bytes = 0usize;
        for w in st.write_queue.iter_mut() {
            let size = w.batch.as_ref().expect("queued batch unclaimed").approximate_bytes();
            if !group.is_empty() && group_bytes + size > cap {
                break;
            }
            group_bytes += size;
            group.push((w.ticket, w.batch.take().expect("queued batch unclaimed")));
        }
        debug_assert_eq!(group[0].0, leader_ticket);

        let first_seq = st.versions.last_sequence() + 1;
        let count: u64 = group.iter().map(|(_, b)| b.len() as u64).sum();
        let mut record = Vec::with_capacity(group_bytes + 12);
        record.extend_from_slice(&first_seq.to_le_bytes());
        record.extend_from_slice(&(count as u32).to_le_bytes());
        for (_, b) in &group {
            b.encode_entries(&mut record);
        }

        // The I/O window: take the WAL out of the state (rotation waits
        // for it to return) and run the append + single amortized sync
        // with the lock released, so arriving writers enqueue and the
        // background lanes keep flushing/compacting meanwhile. New
        // arrivals see this leader's ticket still at the queue front and
        // block; no second leader can enter the WAL.
        let mut wal = st.wal.take().expect("wal open");
        let wal_result = MutexGuard::unlocked(st, || {
            self.log_record(&mut wal, &record).inspect(|()| {
                // Replication tap, still inside the I/O window: the record
                // is durable here, and windows serialize (the next leader
                // waits for `st.wal` to return), so taps observe records in
                // sequence order without holding the state lock.
                if let Some(tap) = &self.opts.wal_tap {
                    tap.on_record(first_seq, first_seq + count - 1, &record);
                }
            })
        });
        st.wal = Some(wal);

        if let Err(e) = wal_result {
            // Every writer in the failed group gets the error.
            self.latch_wal_failure(st, &e);
            self.finish_group(st, &group, leader_ticket, Err(e.to_string()));
            return Err(e);
        }
        // Publish: memtable inserts and the sequence bump happen back under
        // the lock, so rotation/flush can never split a group between a
        // logged WAL and a flushed memtable.
        let mut seq = first_seq;
        for (_, b) in &group {
            seq = st.mem.insert_batch(seq, b.entry_refs());
        }
        debug_assert_eq!(seq, first_seq + count);
        st.versions.set_last_sequence(first_seq + count - 1);
        self.metrics.puts.fetch_add(count, AtomicOrdering::Relaxed);
        self.metrics
            .group_commits
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.group_commit_writers.record(group.len() as u64);
        self.finish_group(st, &group, leader_ticket, Ok(()));
        Ok(())
    }

    /// The WAL step of every commit (a group leader's I/O window, a
    /// replica's [`Db::apply_replicated`]): append `record`, then sync it
    /// when `sync_writes`, retrying transient failures; a completed sync
    /// is counted.
    fn log_record(&self, wal: &mut WalWriter, record: &[u8]) -> io::Result<()> {
        pcp_storage::with_retry(&RETRY, || wal.add_record(record))?;
        if self.opts.sync_writes {
            pcp_storage::with_retry(&RETRY, || wal.sync())?;
            self.metrics.wal_syncs.fetch_add(1, AtomicOrdering::Relaxed);
        }
        Ok(())
    }

    /// Pops the completed group off the queue, files each follower's
    /// result, and wakes both the followers and the next leader.
    fn finish_group(
        &self,
        st: &mut MutexGuard<'_, State>,
        group: &[(u64, WriteBatch)],
        leader_ticket: u64,
        result: Result<(), String>,
    ) {
        for (ticket, _) in group {
            let w = st.write_queue.pop_front().expect("group member queued");
            debug_assert_eq!(w.ticket, *ticket);
            if *ticket != leader_ticket {
                st.write_results.insert(*ticket, result.clone());
            }
        }
        self.writers_cv.notify_all();
    }

    /// Ensures the memtable has room, applying slowdown/stall policy.
    fn make_room_for_write(&self, st: &mut MutexGuard<'_, State>) -> io::Result<()> {
        let mut slowdown_done = false;
        loop {
            self.check_bg_error(st)?;
            let l0_files = st.versions.current().level_files(0);
            if !slowdown_done
                && l0_files >= self.opts.l0_slowdown_files
                && l0_files < self.opts.l0_stop_files
            {
                // Gentle backpressure: hand the compaction lane 1 ms of
                // this writer's time, once per write.
                slowdown_done = true;
                self.metrics
                    .slowdown_events
                    .fetch_add(1, AtomicOrdering::Relaxed);
                MutexGuard::unlocked(st, || std::thread::sleep(Duration::from_millis(1)));
                continue;
            }
            if st.mem.approximate_bytes() < self.opts.memtable_bytes {
                return Ok(());
            }
            if st.imm.is_some() {
                // Previous memtable still flushing: write pause.
                self.stall_wait(st, StallCause::ImmPending);
                continue;
            }
            if l0_files >= self.opts.l0_stop_files {
                self.stall_wait(st, StallCause::L0Stop);
                continue;
            }
            self.rotate_memtable(st)?;
        }
    }

    fn stall_wait(&self, st: &mut MutexGuard<'_, State>, cause: StallCause) {
        self.metrics
            .stall_events
            .fetch_add(1, AtomicOrdering::Relaxed);
        let t0 = Instant::now();
        self.done_cv.wait(st);
        let waited = t0.elapsed();
        self.metrics
            .stall_nanos
            .fetch_add(waited.as_nanos() as u64, AtomicOrdering::Relaxed);
        self.trace.record(
            "write_stall",
            &[
                ("stall_nanos", waited.as_nanos() as u64),
                ("cause", cause as u64),
            ],
        );
    }

    fn rotate_memtable(&self, st: &mut MutexGuard<'_, State>) -> io::Result<()> {
        debug_assert!(st.imm.is_none());
        // A group leader may hold the WAL inside its unlocked I/O window
        // (`st.wal` is `None` exactly then). Rotating underneath it would
        // strand the group's record in a log older than the manifest's log
        // number, so wait for the leader to put the WAL back.
        while st.wal.is_none() {
            self.writers_cv.wait(st);
        }
        // The wait released the state lock, so another thread may have
        // rotated in the meantime (e.g. the next group leader via
        // make_room_for_write racing a parked flush()). Overwriting that
        // fresh `imm` would drop an unflushed memtable; both callers
        // re-evaluate, so just report success.
        if st.imm.is_some() {
            return Ok(());
        }
        let new_wal_number = st.versions.allocate_file_number();
        let new_wal = pcp_storage::with_retry(&RETRY, || {
            WalWriter::create(&*self.env, &wal_file(new_wal_number))
        })?;
        if let Some(mut old) = st.wal.replace(new_wal) {
            pcp_storage::with_retry(&RETRY, || old.sync())?;
        }
        st.wal_number = new_wal_number;
        st.imm = Some(std::mem::replace(&mut st.mem, Arc::new(Memtable::new())));
        self.work_cv.notify_all();
        Ok(())
    }

    /// Captures a consistent read view — the published sequence plus the
    /// live memtable/imm/version refs — under a single lock acquisition.
    #[allow(clippy::type_complexity)]
    fn read_view(
        &self,
    ) -> (
        SequenceNumber,
        Arc<Memtable>,
        Option<Arc<Memtable>>,
        Arc<Version>,
    ) {
        let st = self.state.lock();
        (
            st.versions.last_sequence(),
            st.mem.clone(),
            st.imm.clone(),
            st.versions.current(),
        )
    }

    /// Point lookup against an already-captured view.
    fn get_in_view(
        &self,
        mem: &Memtable,
        imm: Option<&Arc<Memtable>>,
        version: &Version,
        key: &[u8],
        snapshot: SequenceNumber,
    ) -> io::Result<Option<Vec<u8>>> {
        self.metrics.gets.fetch_add(1, AtomicOrdering::Relaxed);
        if let Some(hit) = mem.get(key, snapshot) {
            return Ok(hit);
        }
        if let Some(imm) = imm {
            if let Some(hit) = imm.get(key, snapshot) {
                return Ok(hit);
            }
        }
        self.search_tables(version, key, snapshot)
    }

    fn search_tables(
        &self,
        version: &Version,
        key: &[u8],
        snapshot: SequenceNumber,
    ) -> io::Result<Option<Vec<u8>>> {
        let target = lookup_key(key, snapshot);
        // L0: newest first; files may overlap.
        for f in &version.levels[0] {
            if !f.overlaps_user_range(Some(key), Some(key)) {
                continue;
            }
            if let Some(found) = self.search_one_table(f.number, &target, key)? {
                return Ok(found);
            }
        }
        for level in 1..NUM_LEVELS {
            let Some(f) = version.file_for_key(level, key) else {
                continue;
            };
            if let Some(found) = self.search_one_table(f.number, &target, key)? {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Returns `Some(outcome)` when this table decides the lookup:
    /// `Some(Some(v))` live value, `Some(None)` tombstone.
    fn search_one_table(
        &self,
        number: u64,
        target: &[u8],
        key: &[u8],
    ) -> io::Result<Option<Option<Vec<u8>>>> {
        let table = self
            .cache
            .get(number)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let hit = table
            .get(target)
            .map_err(|e| io::Error::other(e.to_string()))?;
        if let Some((ikey, value)) = hit {
            let parsed = parse_internal_key(&ikey)
                .ok_or_else(|| io::Error::other("malformed key in table"))?;
            if parsed.user_key == key {
                return Ok(Some(match parsed.value_type {
                    ValueType::Value => Some(value),
                    ValueType::Deletion => None,
                }));
            }
        }
        Ok(None)
    }

    // -- background lanes -------------------------------------------------
    //
    // Both lanes hold the state lock except inside the unlocked windows of
    // their jobs, and park on `work_cv`. Every change a waiter can be
    // waiting for (`imm` cleared, a marker cleared, a version installed, an
    // error latched) notifies `done_cv` where it happens; every change that
    // creates work (`imm` set, a level-0 table added, the compaction marker
    // given back) notifies `work_cv`.

    /// The flush lane: `imm` → level-0 table → MANIFEST edit. Never waits
    /// for the compaction lane.
    fn flush_lane(&self) {
        let mut st = self.state.lock();
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            // With an error latched, retrying a dead disk in a hot loop
            // helps nobody: stay parked until shutdown.
            if st.imm.is_none() || st.bg_error.is_some() {
                self.work_cv.wait(&mut st);
                continue;
            }
            st.flushing = Some(st.versions.next_file_number());
            let result = self.retry_transient(&mut st, |st| self.run_flush(st));
            st.flushing = None;
            self.job_done(&mut st, result);
        }
    }

    /// The compaction lane: pick → grant → `executor.compact` → MANIFEST
    /// edit, one at a time and never beside a [`Db::compact_range`] merge.
    fn compaction_lane(&self) {
        let mut st = self.state.lock();
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            let pick = if st.compacting.is_some() || st.bg_error.is_some() {
                None
            } else {
                st.versions.pick_compaction(&self.opts.policy)
            };
            let Some(pick) = pick else {
                self.work_cv.wait(&mut st);
                continue;
            };
            // Taken before the lock is released to queue for a grant. The
            // pick stays valid across that wait and across the merge: the
            // flush lane only ever adds level-0 tables, all newer than the
            // picked ones, and nothing else edits the version set while
            // the marker is held.
            st.compacting = Some(st.versions.next_file_number());
            let result = self.compact_with_grant(&mut st, pick);
            st.compacting = None;
            self.job_done(&mut st, result);
        }
    }

    /// Latches a failed job's error and wakes both sides: waiters see the
    /// marker gone (or the error), the other lane sees the new level-0
    /// table (or the error).
    fn job_done(&self, st: &mut MutexGuard<'_, State>, result: io::Result<()>) {
        if let Err(e) = result {
            self.latch_error(st, e.to_string());
        }
        self.done_cv.notify_all();
        self.work_cv.notify_all();
    }

    /// Runs `pick`, under a grant from the shared cross-database admission
    /// gate when one is configured (flushes are never gated).
    fn compact_with_grant(
        &self,
        st: &mut MutexGuard<'_, State>,
        pick: CompactionPick,
    ) -> io::Result<()> {
        let limiter = self.opts.compaction_limiter.as_deref();
        let grant = match limiter {
            None => None,
            Some(limiter) => {
                if let Some(slot) = self.sched_slot {
                    // Publish this shard's compaction debt (the max level
                    // score) so the scheduler can weight the grant: hot
                    // shards borrow pipeline width from idle ones.
                    limiter.set_debt(slot, st.versions.max_score(&self.opts.policy));
                }
                let acquired = MutexGuard::unlocked(st, || {
                    limiter.acquire_grant(self.sched_slot, &|| {
                        self.shutdown.load(AtomicOrdering::SeqCst)
                    })
                });
                // `None`: shutdown began while queued; the lane's loop
                // sees the flag.
                let Some(grant) = acquired else { return Ok(()) };
                Some(grant)
            }
        };
        // A failure may have latched while queued for the grant.
        let result = self.check_bg_error(st).and_then(|()| {
            self.retry_transient(st, |st| self.run_compaction(st, pick.clone(), grant.clone()))
        });
        if let (Some(limiter), Some(grant)) = (limiter, &grant) {
            limiter.release_grant(grant);
        }
        result
    }

    /// Runs one flush or compaction attempt, retrying transient I/O
    /// failures under `RETRY` with the backoff sleeps taken *outside* the
    /// state lock so writers and the other lane are not blocked behind a
    /// backoff.
    fn retry_transient(
        &self,
        st: &mut MutexGuard<'_, State>,
        mut attempt: impl FnMut(&mut MutexGuard<'_, State>) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut backoff = RETRY.base_backoff;
        let mut attempts = 0;
        loop {
            attempts += 1;
            match attempt(st) {
                Err(e) if is_transient(&e) && attempts < RETRY.max_attempts => {
                    self.metrics.bg_retries.fetch_add(1, AtomicOrdering::Relaxed);
                    MutexGuard::unlocked(st, || std::thread::sleep(backoff));
                    backoff = (backoff * 2).min(RETRY.max_backoff);
                }
                result => return result,
            }
        }
    }

    /// Deletes obsolete files with the lock released: the other lane and
    /// every writer wait behind it otherwise.
    fn sweep(&self, st: &mut MutexGuard<'_, State>) {
        let plan = st.gc_plan();
        MutexGuard::unlocked(st, || self.delete_obsolete_files(&plan));
    }

    fn run_flush(&self, st: &mut MutexGuard<'_, State>) -> io::Result<()> {
        let imm = st.imm.as_ref().expect("imm present").clone();
        let number = st.versions.allocate_file_number();
        let wal_number = st.wal_number;

        let meta = if imm.is_empty() {
            None
        } else {
            // Build the table without holding the lock: this is real
            // (simulated) I/O plus compression work.
            let built = MutexGuard::unlocked(st, || {
                Db::write_memtable_to_table(&self.env, &self.opts, &imm, number).inspect_err(|_| {
                    // This attempt's orphan; don't leave it to a sweep.
                    let _ = self.env.delete(&table_file(number));
                })
            })?;
            Some(built)
        };

        let mut edit = VersionEdit {
            log_number: Some(wal_number),
            ..Default::default()
        };
        if let Some(meta) = &meta {
            edit.new_files.push((0, Arc::clone(meta)));
        }
        st.versions.log_and_apply(edit)?;
        st.imm = None;
        // Writers paused on `imm` go on while this lane sweeps.
        self.done_cv.notify_all();
        let (sst_bytes, entries) = meta.map_or((0, 0), |m| (m.size, m.entries));
        self.metrics
            .flush_bytes
            .fetch_add(sst_bytes, AtomicOrdering::Relaxed);
        self.metrics
            .flush_count
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.trace
            .record("flush_done", &[("sst_bytes", sst_bytes), ("entries", entries)]);
        self.sweep(st);
        Ok(())
    }

    fn run_compaction(
        &self,
        st: &mut MutexGuard<'_, State>,
        pick: CompactionPick,
        grant: Option<ResourceGrant>,
    ) -> io::Result<()> {
        match pick {
            CompactionPick::TrivialMove { level, file } => {
                let edit = VersionEdit {
                    deleted_files: vec![(level, file.number)],
                    new_files: vec![(level + 1, Arc::clone(&file))],
                    compact_pointers: vec![(level, file.largest.clone())],
                    ..Default::default()
                };
                st.versions.log_and_apply(edit)?;
                self.metrics
                    .trivial_moves
                    .fetch_add(1, AtomicOrdering::Relaxed);
                self.trace.record(
                    "trivial_move",
                    &[("level", level as u64), ("bytes", file.size)],
                );
                Ok(())
            }
            CompactionPick::Merge {
                level,
                inputs_upper,
                inputs_lower,
                pointer_key,
            } => {
                let output_level = level + 1;
                let bottom_level = {
                    let version = st.versions.current();
                    ((output_level + 1)..NUM_LEVELS)
                        .all(|l| version.levels[l].is_empty())
                };
                let smallest_snapshot = st
                    .snapshots
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or_else(|| st.versions.last_sequence());
                let file_numbers = st.versions.file_number_counter();
                self.trace.record(
                    "compaction_picked",
                    &[
                        ("level", level as u64),
                        ("inputs_upper", inputs_upper.len() as u64),
                        ("inputs_lower", inputs_lower.len() as u64),
                    ],
                );
                let open = |metas: &[Arc<FileMetadata>]| -> io::Result<Vec<_>> {
                    metas
                        .iter()
                        .map(|m| {
                            self.cache
                                .get(m.number)
                                .map_err(|e| io::Error::other(e.to_string()))
                        })
                        .collect()
                };
                // The unlocked window: input-table opens (device reads on a
                // cache miss) and the merge itself. The request, and with
                // it the input readers, is gone before any sweep. On
                // failure the executor has already swept its partial
                // outputs; the error kind survives so transient faults can
                // be retried.
                let (outputs, elapsed) = MutexGuard::unlocked(st, || -> io::Result<_> {
                    let req = CompactionRequest {
                        env: Arc::clone(&self.env),
                        upper: open(&inputs_upper)?,
                        lower: open(&inputs_lower)?,
                        output_level,
                        bottom_level,
                        smallest_snapshot,
                        file_numbers,
                        table_opts: self.opts.table_opts(),
                        max_output_bytes: self.opts.sstable_bytes,
                        grant: grant.unwrap_or_default(),
                    };
                    let t0 = Instant::now();
                    let outputs = self.opts.executor.compact(&req)?;
                    Ok((outputs, t0.elapsed()))
                })?;

                let input_bytes: u64 = inputs_upper
                    .iter()
                    .chain(inputs_lower.iter())
                    .map(|f| f.size)
                    .sum();
                let output_bytes: u64 = outputs.iter().map(|f| f.size).sum();
                let edit = VersionEdit {
                    deleted_files: inputs_upper
                        .iter()
                        .map(|f| (level, f.number))
                        .chain(inputs_lower.iter().map(|f| (output_level, f.number)))
                        .collect(),
                    new_files: outputs
                        .iter()
                        .map(|f| (output_level, Arc::clone(f)))
                        .collect(),
                    compact_pointers: vec![(level, pointer_key)],
                    ..Default::default()
                };
                // An error latched while the merge ran (the flush lane, a
                // WAL failure): background work has stopped and reads serve
                // the last installed version, so this merge is abandoned.
                let installed = self
                    .check_bg_error(st)
                    .and_then(|()| st.versions.log_and_apply(edit));
                if let Err(e) = installed {
                    // The new tables were written but never installed:
                    // delete them now so a retry (which re-runs the merge
                    // with fresh file numbers) doesn't accumulate orphans.
                    MutexGuard::unlocked(st, || {
                        for f in &outputs {
                            self.cache.evict(f.number);
                            let _ = self.env.delete(&table_file(f.number));
                        }
                    });
                    return Err(e);
                }
                // Writers stopped on a full level 0 go on while this lane
                // sweeps.
                self.done_cv.notify_all();
                self.metrics
                    .compaction_count
                    .fetch_add(1, AtomicOrdering::Relaxed);
                self.metrics
                    .compaction_input_bytes
                    .fetch_add(input_bytes, AtomicOrdering::Relaxed);
                self.metrics
                    .compaction_output_bytes
                    .fetch_add(output_bytes, AtomicOrdering::Relaxed);
                self.metrics
                    .compaction_nanos
                    .fetch_add(elapsed.as_nanos() as u64, AtomicOrdering::Relaxed);
                self.metrics.level_compactions[level].fetch_add(1, AtomicOrdering::Relaxed);
                self.metrics.level_compaction_input_bytes[level]
                    .fetch_add(input_bytes, AtomicOrdering::Relaxed);
                self.metrics.level_compaction_output_bytes[level]
                    .fetch_add(output_bytes, AtomicOrdering::Relaxed);
                self.trace.record(
                    "compaction_installed",
                    &[
                        ("level", level as u64),
                        ("input_bytes", input_bytes),
                        ("output_bytes", output_bytes),
                        ("outputs", outputs.len() as u64),
                        ("wall_nanos", elapsed.as_nanos() as u64),
                    ],
                );
                self.sweep(st);
                Ok(())
            }
        }
    }

    /// Deletes files no longer referenced: tables below the plan's floor
    /// and absent from its live set, and WALs older than the manifest's
    /// log number. Called with the state lock released.
    fn delete_obsolete_files(&self, plan: &GcPlan) {
        let Ok(names) = self.env.list() else { return };
        for name in names {
            match parse_file_name(&name) {
                Some((FileKind::Table, num)) if num < plan.floor && !plan.live.contains(&num) => {
                    self.cache.evict(num);
                    self.count_gc_delete(&name);
                }
                Some((FileKind::Wal, num))
                    if num < plan.log_number && num != plan.wal_number =>
                {
                    self.count_gc_delete(&name);
                }
                _ => {}
            }
        }
    }

    /// Deletes one obsolete file, counting the outcome. A failed delete is
    /// not an error — the file is merely still on disk and the next sweep
    /// retries it — but a rising error counter is how an operator notices
    /// a filesystem that has stopped honouring deletes. A file the other
    /// lane's concurrent sweep removed first is neither.
    fn count_gc_delete(&self, name: &str) {
        let counter = match self.env.delete(name) {
            Ok(()) => &self.metrics.gc_deleted_files,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return,
            Err(_) => &self.metrics.gc_delete_errors,
        };
        counter.fetch_add(1, AtomicOrdering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_storage::{Env, RandomReadFile, SimDevice, SimEnv, WritableFile};
    // The gate is test scaffolding outside the engine's lock graph.
    use std::sync::{mpsc, Mutex};

    #[test]
    fn registry_outliving_db_pins_nothing() {
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let registry = pcp_obs::Registry::new();
        let puts = |r: &pcp_obs::Registry| r.snapshot().counter("pcp_engine_puts_total", &[]);

        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        db.register_metrics(&registry, &[]);
        db.put(b"k", b"v").unwrap();
        assert_eq!(puts(&registry), 1);
        let inner = Arc::downgrade(&db.inner);
        drop(db);
        assert!(inner.upgrade().is_none(), "collectors kept DbInner alive");
        // Scraping a closed database is harmless and reads 0.
        assert_eq!(puts(&registry), 0);
        assert!(registry.render_prometheus().contains("pcp_engine_level_files"));

        // The same env reopens while the registry is still alive.
        let db = Db::open(env, Options::default()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    /// The two ends a parked `sync()` holds: it reports in on the first and
    /// waits on the second.
    type Turnstile = (mpsc::Sender<()>, mpsc::Receiver<()>);

    /// Parks the first WAL `sync()` issued once `gate` holds a turnstile.
    struct GateEnv {
        inner: EnvRef,
        gate: Arc<Mutex<Option<Turnstile>>>,
    }

    impl std::fmt::Debug for GateEnv {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("GateEnv")
        }
    }

    struct GateWal {
        inner: Box<dyn WritableFile>,
        gate: Arc<Mutex<Option<Turnstile>>>,
    }

    impl WritableFile for GateWal {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.inner.append(data)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
        fn sync(&mut self) -> io::Result<()> {
            let turnstile = self.gate.lock().unwrap().take();
            if let Some((parked, release)) = turnstile {
                parked.send(()).unwrap();
                // A test that failed drops its end, which releases too.
                let _ = release.recv();
            }
            self.inner.sync()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    impl Env for GateEnv {
        fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
            let inner = self.inner.create(name)?;
            Ok(if name.ends_with(".log") {
                Box::new(GateWal { inner, gate: Arc::clone(&self.gate) })
            } else {
                inner
            })
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

    /// Group commit, by a fixed interleaving: while the first leader is
    /// parked inside its WAL sync, seven more writers queue up; the next
    /// leader must merge all seven into one record and one sync.
    #[test]
    fn writers_queued_behind_a_sync_commit_as_one_group() {
        const FOLLOWERS: usize = 7;
        let inner: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let gate = Arc::new(Mutex::new(None));
        let env: EnvRef = Arc::new(GateEnv {
            inner: Arc::clone(&inner),
            gate: Arc::clone(&gate),
        });
        let opts = Options {
            sync_writes: true,
            ..Options::default()
        };
        let db = Db::open(env, opts.clone()).unwrap();
        let key = |i: usize| format!("k{i}").into_bytes();

        std::thread::scope(|s| {
            let db = &db;
            let (parked_tx, parked) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            *gate.lock().unwrap() = Some((parked_tx, release_rx));
            s.spawn(move || db.put(&key(0), b"v").unwrap());
            parked.recv().unwrap();
            for i in 1..=FOLLOWERS {
                s.spawn(move || db.put(&key(i), b"v").unwrap());
            }
            // The parked leader's entry stays at the queue front.
            while db.inner.state.lock().write_queue.len() < 1 + FOLLOWERS {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
        });

        let m = db.metrics();
        assert_eq!(m.puts, 1 + FOLLOWERS as u64, "every writer was acknowledged");
        assert_eq!(m.wal_syncs, 2, "one sync for the leader, one for all who queued behind it");
        assert_eq!(m.group_commits, 2);
        // The series behind `pcp_engine_group_commit_batches`.
        assert_eq!(db.inner.group_commit_writers.max(), FOLLOWERS as u64);

        drop(db);
        let db = Db::open(inner, opts).unwrap();
        for i in 0..=FOLLOWERS {
            assert_eq!(db.get(&key(i)).unwrap(), Some(b"v".to_vec()), "k{i} after reopen");
        }
    }
}
