//! The two background lanes: flush and compaction jobs, the scheduler grant
//! around a merge, transient-error retry and the obsolete-file sweep.

use super::{write_level0, DbInner, GcPlan, State, RETRY};
use crate::edit::VersionEdit;
use crate::version::{FileMetadata, NUM_LEVELS};
use crate::version_set::CompactionPick;
use crate::wal::WalWriter;
use parking_lot::MutexGuard;
use pcp_compaction::filename::{parse_file_name, FileKind};
use pcp_compaction::{CompactionRequest, ResourceGrant};
use pcp_storage::is_transient;
use std::io;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::Instant;

impl DbInner {
    // Both lanes hold the state lock except inside the unlocked windows of
    // their jobs, and park on `work_cv`. Every change a waiter can be
    // waiting for (`imm` cleared, a marker cleared, a version installed, an
    // error latched) notifies `done_cv` where it happens; every change that
    // creates work (`imm` set, a level-0 table added, the compaction marker
    // given back) notifies `work_cv`.

    /// The flush lane: `imm` → level-0 table → MANIFEST edit. Never waits
    /// for the compaction lane.
    pub(super) fn flush_lane(&self) {
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
    /// edit, one at a time — the only place a `Db` merges. A posted
    /// [`Db::compact_range`] level goes first, ungated: the caller asked
    /// for this work explicitly, so it waits for no permit — but it runs
    /// no wider than the limiter's share.
    pub(super) fn compaction_lane(&self) {
        let mut st = self.state.lock();
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            let manual = (st.manual.as_ref()).filter(|m| !m.done).map(|m| {
                st.versions
                    .pick_range(m.level, m.lo.as_deref(), m.hi.as_deref())
            });
            let is_manual = manual.is_some();
            let pick = manual.unwrap_or_else(|| st.versions.pick_compaction(&self.opts.policy));
            // With an error latched, stay parked as the flush lane does.
            if st.bg_error.is_some() || (!is_manual && pick.is_none()) {
                self.work_cv.wait(&mut st);
                continue;
            }
            // Taken before the lock is released to queue for a grant. The
            // pick stays valid across that wait and across the merge: the
            // flush lane only ever adds level-0 tables, all newer than the
            // picked ones, and nothing else edits the version set while
            // the marker is held.
            st.compacting = Some(st.versions.next_file_number());
            let result = match pick {
                Some(pick) => self.compact_with_grant(&mut st, pick, !is_manual),
                None => Ok(()), // a manual level with nothing in range
            };
            st.compacting = None;
            if let Some(m) = st.manual.as_mut().filter(|_| is_manual) {
                m.done = true;
            }
            self.job_done(&mut st, result);
        }
    }

    /// Latches a failed job's error and wakes both sides: waiters see the
    /// marker gone (or the error), the other lane sees the new level-0
    /// table (or the error).
    fn job_done(&self, st: &mut MutexGuard<'_, State>, result: io::Result<()>) {
        if let Err(e) = result {
            self.latch_error(st, e);
        }
        self.done_cv.notify_all();
        self.work_cv.notify_all();
    }

    /// Runs `pick`, under a grant from the shared cross-database admission
    /// gate when one is configured (flushes are never gated). An ungated
    /// pick — a manual one — skips the permit queue but still runs on one
    /// share of the token budget.
    fn compact_with_grant(
        &self,
        st: &mut MutexGuard<'_, State>,
        pick: CompactionPick,
        gated: bool,
    ) -> io::Result<()> {
        let configured = self.opts.compaction_limiter.as_deref();
        let limiter = configured.filter(|_| gated);
        let grant = match limiter {
            None => configured.map(|limiter| limiter.share_grant()),
            Some(limiter) => {
                let acquired = MutexGuard::unlocked(st, || {
                    limiter.acquire_grant(&|| self.shutdown.load(AtomicOrdering::SeqCst))
                });
                // `None`: shutdown began while queued; the lane's loop
                // sees the flag.
                let Some(grant) = acquired else { return Ok(()) };
                Some(grant)
            }
        };
        // A failure may have latched while queued for the grant.
        let result = self.check_bg_error(st).and_then(|()| {
            self.retry_transient(st, |st| {
                self.run_compaction(st, pick.clone(), grant.clone())
            })
        });
        if let Some(limiter) = limiter {
            // The engine lock is never held across the scheduler's.
            MutexGuard::unlocked(st, || limiter.release_grant());
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
                    self.metrics
                        .bg_retries
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    MutexGuard::unlocked(st, || pcp_storage::blocking::sleep(backoff));
                    backoff = (backoff * 2).min(RETRY.max_backoff);
                }
                result => return result,
            }
        }
    }

    /// Logs `edit` to the MANIFEST and installs the version it builds. The
    /// lane takes the install turn, and the version set builds the next
    /// version and encodes the record, under the state lock; the append and
    /// sync run with it released, so readers and writers go on with the
    /// old version meanwhile and the other lane waits for the turn, not for
    /// the device. A failed write abandons the manifest: the next install,
    /// inside its own turn, rolls a fresh one.
    fn install(&self, st: &mut MutexGuard<'_, State>, edit: VersionEdit) -> io::Result<()> {
        while st.installing {
            self.done_cv.wait(st);
        }
        st.installing = true;
        let pending = st.versions.prepare(edit);
        let logged = MutexGuard::unlocked(st, || pending.write());
        st.installing = false;
        self.done_cv.notify_all();
        st.versions.install(logged?);
        Ok(())
    }

    /// Deletes obsolete files with the lock released: the other lane and
    /// every writer wait behind it otherwise.
    fn sweep(&self, st: &mut MutexGuard<'_, State>) {
        let plan = st.gc_plan();
        MutexGuard::unlocked(st, || self.delete_obsolete_files(&plan));
    }

    #[expect(
        clippy::expect_used,
        reason = "the flush lane calls this only with `imm` set, checked under the same \
                  state-lock hold, and nothing else clears it"
    )]
    fn run_flush(&self, st: &mut MutexGuard<'_, State>) -> io::Result<()> {
        let imm = st.imm.as_ref().expect("imm present").clone();
        let mut imm_wal = st.imm_wal.take();
        let wal_bytes = imm_wal.as_ref().map_or(0, |wal| wal.len());
        let wal_number = st.wal_number;
        // Level 0 is ordered by file number: the table's is drawn from the
        // shared counter, at or above the `flushing` floor, and flushes are
        // serialized.
        let file_numbers = st.versions.file_number_counter();

        // Without holding the lock, sync the retired log — with
        // `sync_writes` off its records reach the device here, before any
        // later log's can — then build the table: real (simulated) I/O
        // plus compression work. A failed attempt keeps the log for the
        // next; a successful one closes it here, since closing is I/O too.
        let written = MutexGuard::unlocked(st, || -> io::Result<_> {
            let t0 = Instant::now();
            imm_wal.as_mut().map_or(Ok(()), WalWriter::sync)?;
            let wal_sync_nanos = t0.elapsed().as_nanos() as u64;
            let meta = write_level0(&self.cache, &file_numbers, &self.opts, &imm)?;
            imm_wal = None;
            Ok((meta, wal_sync_nanos))
        });
        let (meta, wal_sync_nanos) = written.inspect_err(|_| st.imm_wal = imm_wal.take())?;

        let mut edit = VersionEdit {
            log_number: Some(wal_number),
            ..Default::default()
        };
        if let Some(meta) = &meta {
            edit.new_files.push((0, Arc::clone(meta)));
        }
        if let Err(e) = self.install(st, edit) {
            // Written but never installed: the reader and the file go now
            // (a latched error stops every sweep).
            if let Some(meta) = &meta {
                MutexGuard::unlocked(st, || self.cache.discard(meta.number));
            }
            return Err(e);
        }
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
        self.trace.record(
            pcp_obs::TraceKind::FlushDone,
            &[
                ("sst_bytes", sst_bytes),
                ("entries", entries),
                ("wal_bytes", wal_bytes),
                ("wal_sync_nanos", wal_sync_nanos),
            ],
        );
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
                self.install(st, edit)?;
                self.metrics
                    .trivial_moves
                    .fetch_add(1, AtomicOrdering::Relaxed);
                self.trace.record(
                    pcp_obs::TraceKind::TrivialMove,
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
                    ((output_level + 1)..NUM_LEVELS).all(|l| version.levels[l].is_empty())
                };
                let smallest_snapshot = st
                    .snapshots
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or_else(|| st.versions.last_sequence());
                let file_numbers = st.versions.file_number_counter();
                self.trace.record(
                    pcp_obs::TraceKind::CompactionPicked,
                    &[
                        ("level", level as u64),
                        ("inputs_upper", inputs_upper.len() as u64),
                        ("inputs_lower", inputs_lower.len() as u64),
                    ],
                );
                let open = |metas: &[Arc<FileMetadata>]| -> io::Result<Vec<_>> {
                    metas.iter().map(|m| self.cache.get(m.number)).collect()
                };
                // The unlocked window: input-table opens (device reads only
                // for a table found at open) and the merge itself, whose
                // outputs enter the table cache as they finish. The
                // request, and with it the input readers, is gone before
                // any sweep. On failure the executor has already evicted
                // and swept its partial outputs; the error kind survives so
                // transient faults can be retried.
                let (outputs, elapsed) = MutexGuard::unlocked(st, || -> io::Result<_> {
                    let req = CompactionRequest {
                        tables: Arc::clone(&self.cache),
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
                    .and_then(|()| self.install(st, edit));
                if let Err(e) = installed {
                    // The new tables were written but never installed:
                    // evict and delete them now so a retry (which re-runs
                    // the merge with fresh file numbers) doesn't accumulate
                    // readers or orphans.
                    MutexGuard::unlocked(st, || {
                        for f in &outputs {
                            self.cache.discard(f.number);
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
                    pcp_obs::TraceKind::CompactionInstalled,
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
    pub(super) fn delete_obsolete_files(&self, plan: &GcPlan) {
        let Ok(names) = self.env.list() else { return };
        for name in names {
            match parse_file_name(&name) {
                Some((FileKind::Table, num)) if num < plan.floor && !plan.live.contains(&num) => {
                    self.cache.evict(num);
                    self.count_gc_delete(&name);
                }
                Some((FileKind::Wal, num)) if num < plan.log_number && num != plan.wal_number => {
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
    use crate::db::{Db, Options};
    use crate::version_set::CompactionPolicy;
    use pcp_compaction::{CompactionExec, SimpleMergeExec};
    use pcp_sstable::Result as TableResult;
    use pcp_storage::{EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv};
    use std::sync::atomic::AtomicUsize;

    /// Makes every later MANIFEST write fail for good.
    fn fail_manifest_writes(fault: &FaultEnv) {
        fault
            .set_probability(FaultOp::Append, 1.0)
            .set_probability(FaultOp::Sync, 1.0)
            .set_probabilistic_kind(FaultKind::Permanent)
            .set_file_filter("MANIFEST");
    }

    /// Merges, notes how many readers the cache then holds, and breaks the
    /// MANIFEST, so the install that follows fails.
    struct FailInstall(FaultEnv, AtomicUsize);

    impl CompactionExec for FailInstall {
        fn name(&self) -> &'static str {
            "fail-install"
        }

        fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
            let outputs = SimpleMergeExec.compact(req)?;
            self.1.store(req.tables.len(), AtomicOrdering::SeqCst);
            fail_manifest_writes(&self.0);
            Ok(outputs)
        }
    }

    fn open(executor: Arc<dyn CompactionExec>, fault: &FaultEnv) -> Db {
        let opts = Options {
            memtable_bytes: 1 << 20,
            policy: CompactionPolicy {
                l0_trigger: 2,
                ..Default::default()
            },
            executor,
            ..Default::default()
        };
        Db::open(Arc::new(fault.clone()), opts).unwrap()
    }

    fn fault_env() -> FaultEnv {
        let inner: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        FaultEnv::new(inner, 7)
    }

    fn put_and_flush(db: &Db, round: u32) -> io::Result<()> {
        for i in 0..200u32 {
            db.put(
                format!("key{i:04}").as_bytes(),
                format!("v{round}-{i}").as_bytes(),
            )?;
        }
        db.flush()
    }

    /// A compaction whose install fails leaves the cache holding its inputs
    /// and none of its outputs.
    #[test]
    fn compaction_whose_install_fails_leaves_no_output_reader() {
        let fault = fault_env();
        let exec = Arc::new(FailInstall(fault.clone(), AtomicUsize::new(0)));
        let db = open(exec.clone(), &fault);
        put_and_flush(&db, 0).unwrap();
        put_and_flush(&db, 1).unwrap();
        assert!(db.wait_idle().is_err(), "the install must fail");
        assert_eq!(db.level_summary()[0].0, 2);
        assert!(
            exec.1.load(AtomicOrdering::SeqCst) > 2,
            "the outputs were handed over"
        );
        assert_eq!(
            db.inner.cache.len(),
            2,
            "only the two level-0 inputs stay cached"
        );
    }

    /// With a block cache every table fits in, and four flushed rounds
    /// under a level-0 trigger of 2 so that the lanes merge: every block of
    /// every live table — flushed or merged — sits in the block cache under
    /// its hand-off reader's id, and equals what a cold reader of the same
    /// file decodes.
    #[test]
    fn every_admitted_block_equals_a_cold_decode() {
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let opts = Options {
            memtable_bytes: 1 << 20,
            block_cache_bytes: 32 << 20,
            policy: CompactionPolicy {
                l0_trigger: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let db = Db::open(env, opts).unwrap();
        for round in 0..4u32 {
            for i in 0..2000u32 {
                let key = format!("key{:05}", (i * 7 + round) % 2000);
                db.put(key.as_bytes(), format!("v{round}-{i:060}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_idle().unwrap();
        assert!(db.metrics().compaction_count > 0, "no merge ran");
        let block_cache = db.inner.cache.block_cache().unwrap();
        let live = db.inner.state.lock().versions.current();
        let mut checked = 0;
        for number in live.levels.iter().flatten().map(|f| f.number) {
            let handed_off = db.inner.cache.get(number).unwrap();
            let id = handed_off.cache_id().unwrap();
            let cold = db.inner.cache.open_uncached(number).unwrap();
            for bm in cold.block_metas().unwrap() {
                let raw = cold.read_raw_block(bm.handle).unwrap();
                let (payload, kind) = pcp_sstable::table::verify_block(&raw).unwrap();
                let decoded = pcp_sstable::table::decompress_block(payload, kind).unwrap();
                let cached = block_cache.get(id, bm.handle.offset);
                assert_eq!(
                    cached.as_ref().map(|b| b.data()),
                    Some(&decoded[..]),
                    "table {number}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    /// A flush whose install fails leaves neither a reader nor a file for
    /// its table: the latched error stops every sweep, so nothing else
    /// would delete it before a reopen.
    #[test]
    fn flush_whose_install_fails_leaves_no_reader() {
        let fault = fault_env();
        let db = open(Arc::new(SimpleMergeExec), &fault);
        fail_manifest_writes(&fault);
        assert!(put_and_flush(&db, 0).is_err(), "the flush must fail");
        assert!(db.inner.cache.is_empty());
        let names = db.inner.env.list().unwrap();
        let orphans: Vec<_> = names.iter().filter(|n| n.ends_with(".sst")).collect();
        assert!(orphans.is_empty(), "orphans left: {orphans:?}");
    }
}
