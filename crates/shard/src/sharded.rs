//! The range-sharded multi-database engine.
//!
//! [`ShardedDb`] partitions the keyspace across N independent
//! [`pcp_lsm::Db`] instances through a pluggable [`Router`]. Because the
//! shards' key ranges are disjoint, every shard runs its own memtable,
//! WAL, flush, and compaction pipeline with zero cross-shard coordination
//! — the paper's "disjoint sub-key ranges have no data dependencies"
//! argument applied at engine scale. Two places *do* coordinate:
//!
//! * **Snapshots.** A [`ShardSnapshot`] is a vector of per-shard sequence
//!   numbers taken under a lock that excludes in-flight cross-shard
//!   batches, so a multi-shard [`WriteBatch`] is either entirely visible
//!   or entirely invisible to any snapshot (writers share the lock;
//!   only snapshot and scan-cursor acquisition is exclusive, and only for
//!   the microseconds it takes to read N sequence counters or capture N
//!   cursors).
//! * **Compaction admission.** All shards share one
//!   [`pcp_lsm::CompactionLimiter`] capping concurrently compacting
//!   shards to the available cores — the C-PPCP resource argument across
//!   shards: more simultaneous compactions than cores just interleave
//!   their compute stages.

use crate::router::Router;
use parking_lot::RwLock;
use pcp_lsm::{
    BatchOp, CompactionLimiter, Db, DbHealth, DbIter, MetricsSnapshot, Options, Snapshot,
    WriteBatch, NUM_LEVELS,
};
use pcp_storage::{EnvRef, StdFsEnv};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Aggregated health over every shard (see [`pcp_lsm::DbHealth`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardedHealth {
    /// Every shard's background maintenance is running normally.
    Ok,
    /// At least one shard has latched a background error; `shard` is the
    /// lowest-numbered wedged shard, so an operator knows which
    /// subdirectory / device to inspect.
    ShardError { shard: usize, error: String },
}

impl ShardedHealth {
    /// True when no shard has latched an error.
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardedHealth::Ok)
    }
}

/// A consistent cross-shard read view: one registered snapshot per shard,
/// taken atomically with respect to cross-shard batches.
pub struct ShardSnapshot {
    shards: Vec<Snapshot>,
}

impl ShardSnapshot {
    /// The per-shard sequence vector this snapshot reads at.
    pub fn sequences(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.sequence).collect()
    }
}

/// Snapshot-consistent scan cursor over every shard, in global key order:
/// one [`DbIter`] merging every shard's sources.
pub type ShardedIter = DbIter;

/// A keyspace partitioned over N independent [`Db`] instances.
pub struct ShardedDb {
    shards: Vec<Db>,
    router: Arc<dyn Router>,
    /// Writers hold `read` while applying a batch; snapshot and cursor
    /// acquisition hold `write` while reading every shard. See module docs.
    /// The one engine lock held across blocking work (DESIGN.md §8, §11).
    snap_lock: RwLock<()>,
    limiter: Arc<CompactionLimiter>,
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shards.len())
            .field("router", &self.router)
            .finish_non_exhaustive()
    }
}

impl ShardedDb {
    /// Opens (creating or recovering) one database per shard in
    /// subdirectories `shard-000`, `shard-001`, … of `dir`, on real files
    /// ([`StdFsEnv`]).
    pub fn open(
        dir: impl AsRef<Path>,
        base: Options,
        router: Arc<dyn Router>,
    ) -> io::Result<ShardedDb> {
        let envs = (0..router.shards())
            .map(|i| {
                let shard_dir = dir.as_ref().join(format!("shard-{i:03}"));
                Ok(Arc::new(StdFsEnv::new(shard_dir)?) as EnvRef)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Self::open_with_envs(envs, base, router)
    }

    /// Opens one database per environment in `envs` (`envs.len()` must
    /// equal `router.shards()`). This is the constructor for simulated or
    /// fault-injected shards.
    pub fn open_with_envs(
        envs: Vec<EnvRef>,
        base: Options,
        router: Arc<dyn Router>,
    ) -> io::Result<ShardedDb> {
        let n = router.shards();
        if n == 0 || envs.len() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("router wants {n} shards, got {} environments", envs.len()),
            ));
        }
        // One admission gate for the whole engine; a caller-provided
        // limiter (shared wider still, or sized for a test) wins.
        let limiter = base
            .compaction_limiter
            .clone()
            .unwrap_or_else(|| CompactionLimiter::for_shards(n));
        let shards = envs
            .into_iter()
            .map(|env| {
                let mut opts = base.clone();
                opts.compaction_limiter = Some(Arc::clone(&limiter));
                Db::open(env, opts)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ShardedDb {
            shards,
            router,
            snap_lock: RwLock::held_across_blocking(
                (),
                "a shard's whole write, WAL I/O and stall waits included, runs under the read \
                 side, so that a snapshot, which takes the write side, is a consistent cut",
            ),
            limiter,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let s = self.router.shard_of(key);
        debug_assert!(s < self.shards.len(), "router returned {s}");
        s.min(self.shards.len() - 1)
    }

    /// The shared compaction admission gate.
    pub fn limiter(&self) -> &Arc<CompactionLimiter> {
        &self.limiter
    }

    /// Direct access to one shard's database (diagnostics and tests).
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    // -- write path -------------------------------------------------------

    /// Inserts `key → value` on the owning shard.
    pub fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let _g = self.snap_lock.read();
        self.shards[self.shard_of(key)].put(key, value)
    }

    /// Deletes `key` on the owning shard.
    pub fn delete(&self, key: &[u8]) -> io::Result<()> {
        let _g = self.snap_lock.read();
        self.shards[self.shard_of(key)].delete(key)
    }

    /// Applies a batch, fanning entries out to their owning shards. Each
    /// sub-batch is atomic within its shard (one WAL record), and the
    /// whole batch is atomic with respect to [`ShardedDb::snapshot`]: no
    /// snapshot can observe some sub-batches applied and others not.
    ///
    /// Atomicity under *failure* is per shard: if one shard's WAL rejects
    /// its sub-batch mid-fan-out, earlier sub-batches stay applied and the
    /// error is returned (and latched in that shard's health).
    pub fn write(&self, batch: WriteBatch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut subs: Vec<WriteBatch> = vec![WriteBatch::new(); self.shards.len()];
        for op in batch.ops() {
            match op {
                BatchOp::Put { key, value } => subs[self.shard_of(key)].put(key, value),
                BatchOp::Delete { key } => subs[self.shard_of(key)].delete(key),
            }
        }
        let _g = self.snap_lock.read();
        for (shard, sub) in self.shards.iter().zip(subs) {
            if !sub.is_empty() {
                shard.write(sub)?;
            }
        }
        Ok(())
    }

    // -- read path --------------------------------------------------------

    /// Reads the newest visible value for `key` from its owning shard.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Registers a consistent cross-shard snapshot.
    pub fn snapshot(&self) -> ShardSnapshot {
        let _g = self.snap_lock.write();
        ShardSnapshot {
            shards: self.shards.iter().map(|db| db.snapshot()).collect(),
        }
    }

    /// Reads `key` at a [`ShardSnapshot`].
    pub fn get_at(&self, key: &[u8], snapshot: &ShardSnapshot) -> io::Result<Option<Vec<u8>>> {
        let s = self.shard_of(key);
        self.shards[s].get_at(key, snapshot.shards[s].sequence)
    }

    /// Scan cursor over every shard at the latest consistent view: each
    /// shard's cursor is captured inside the same exclusive hold that
    /// [`ShardedDb::snapshot`] takes, so no cross-shard batch is half in it.
    pub fn iter(&self) -> ShardedIter {
        let _g = self.snap_lock.write();
        DbIter::merge(self.shards.iter().map(Db::iter).collect())
    }

    /// Scan cursor at an explicit snapshot: one internal-key merge over
    /// every shard's sources, each read at its own shard's sequence (see
    /// [`DbIter::merge`]; shards' user keys are disjoint by construction).
    pub fn iter_at(&self, snapshot: &ShardSnapshot) -> ShardedIter {
        DbIter::merge(
            self.shards
                .iter()
                .zip(&snapshot.shards)
                .map(|(db, snap)| db.iter_at(snap.sequence))
                .collect(),
        )
    }

    /// Collects up to `limit` live entries with key `>= start`, in key
    /// order across all shards; an error when a shard could not be read,
    /// never a short result.
    pub fn scan(&self, start: &[u8], limit: usize) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter();
        it.seek(start);
        let mut out = Vec::new();
        while it.valid() && out.len() < limit {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status()?;
        Ok(out)
    }

    // -- maintenance and observability ------------------------------------

    /// Forces every shard's memtable out to level 0 and waits.
    pub fn flush(&self) -> io::Result<()> {
        for db in &self.shards {
            db.flush()?;
        }
        Ok(())
    }

    /// Blocks until no shard has flush or compaction work remaining.
    pub fn wait_idle(&self) -> io::Result<()> {
        for db in &self.shards {
            db.wait_idle()?;
        }
        Ok(())
    }

    /// Synchronously compacts `[lo, hi]` on every shard overlapping it.
    pub fn compact_range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> io::Result<()> {
        for db in &self.shards {
            db.compact_range(lo, hi)?;
        }
        Ok(())
    }

    /// Aggregated health: [`ShardedHealth::Ok`], or the first latched
    /// background error tagged with its shard index.
    pub fn health(&self) -> ShardedHealth {
        for (i, db) in self.shards.iter().enumerate() {
            if let DbHealth::BackgroundError(error) = db.health() {
                return ShardedHealth::ShardError { shard: i, error };
            }
        }
        ShardedHealth::Ok
    }

    /// Engine counters summed over every shard.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for db in &self.shards {
            merge_metrics(&mut total, &db.metrics());
        }
        total
    }

    /// Per-shard engine counters, indexed by shard.
    pub fn shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards.iter().map(|db| db.metrics()).collect()
    }

    /// Registers every shard's engine metrics in `registry`, each series
    /// labelled `shard="<index>"`, plus the shared compaction-limiter
    /// gauges (`pcp_engine_compaction_permits`,
    /// `pcp_engine_compactions_in_use`, `pcp_engine_compactions_peak`),
    /// the cross-shard scheduler's token budget and tokens in use
    /// (`pcp_sched_stage_tokens`, `pcp_sched_tokens_in_use`; see
    /// `OBSERVABILITY.md` §2.2), and the shared executor's own series
    /// (its step profile and occupancy gauges). Scrapes read live
    /// atomics or take the scheduler's short state lock — registration is
    /// one-time, snapshotting never blocks compactions for long.
    pub fn register_metrics(&self, registry: &pcp_obs::Registry) {
        for (i, db) in self.shards.iter().enumerate() {
            db.register_metrics(registry, &[("shard", &i.to_string())]);
        }
        type Getter = fn(&CompactionLimiter) -> usize;
        let gauges: [(&str, &str, Getter); 5] = [
            (
                "pcp_engine_compaction_permits",
                "size of the shared compaction admission pool",
                |l| l.permits(),
            ),
            (
                "pcp_engine_compactions_in_use",
                "compaction permits currently held",
                |l| l.in_use(),
            ),
            (
                "pcp_engine_compactions_peak",
                "high-water mark of simultaneously held permits",
                |l| l.peak(),
            ),
            (
                "pcp_sched_stage_tokens",
                "total stage-worker token budget shared by all shards",
                |l| l.stage_tokens(),
            ),
            (
                "pcp_sched_tokens_in_use",
                "stage-worker tokens currently granted across all shards",
                |l| l.tokens_out(),
            ),
        ];
        for (name, help, get) in gauges {
            let limiter = Arc::clone(&self.limiter);
            registry.register_fn_gauge(name, help, Vec::new(), move || get(&limiter) as f64);
        }

        // Every shard shares one executor Arc (the base options are cloned
        // per shard), so its series register once, unlabelled.
        self.shards[0].executor().register_metrics(registry);
    }

    /// Per-level (file count, bytes) summed over every shard.
    pub fn level_summary(&self) -> Vec<(usize, u64)> {
        let mut total = vec![(0usize, 0u64); NUM_LEVELS];
        for db in &self.shards {
            for (level, (files, bytes)) in db.level_summary().into_iter().enumerate() {
                total[level].0 += files;
                total[level].1 += bytes;
            }
        }
        total
    }

    /// Estimated on-disk bytes for `[lo, hi]`, summed over every shard.
    pub fn approximate_size(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> u64 {
        self.shards
            .iter()
            .map(|db| db.approximate_size(lo, hi))
            .sum()
    }

    /// Human-readable multi-shard summary for diagnostics.
    pub fn debug_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== pcp-shard engine: {} shards, {} compaction permits (peak {}) ===",
            self.shards.len(),
            self.limiter.permits(),
            self.limiter.peak(),
        );
        for (i, db) in self.shards.iter().enumerate() {
            let m = db.metrics();
            let _ = writeln!(
                out,
                "  shard {i:3}: {:8} puts {:8} gets  {:3} flushes {:3} compactions  health {:?}",
                m.puts, m.gets, m.flush_count, m.compaction_count, db.health(),
            );
        }
        out
    }
}

fn merge_metrics(total: &mut MetricsSnapshot, m: &MetricsSnapshot) {
    total.puts += m.puts;
    total.gets += m.gets;
    total.stall_events += m.stall_events;
    total.stall_time += m.stall_time;
    total.flush_count += m.flush_count;
    total.flush_bytes += m.flush_bytes;
    total.compaction_count += m.compaction_count;
    total.compaction_input_bytes += m.compaction_input_bytes;
    total.compaction_output_bytes += m.compaction_output_bytes;
    total.compaction_time += m.compaction_time;
    total.trivial_moves += m.trivial_moves;
    total.gc_deleted_files += m.gc_deleted_files;
    total.gc_delete_errors += m.gc_delete_errors;
    total.bg_retries += m.bg_retries;
    total.wal_syncs += m.wal_syncs;
    total.group_commits += m.group_commits;
    total.wal_tail_corruptions += m.wal_tail_corruptions;
    for (t, l) in total.levels.iter_mut().zip(m.levels.iter()) {
        t.count += l.count;
        t.input_bytes += l.input_bytes;
        t.output_bytes += l.output_bytes;
    }
}

impl pcp_workload::KvStore for ShardedDb {
    fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        ShardedDb::put(self, key, value)
    }

    fn wait_idle(&self) -> io::Result<()> {
        ShardedDb::wait_idle(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardedDb::metrics(self)
    }
}
