//! The write path: group commit through the WAL, write back-pressure
//! (slowdown, stall) and memtable rotation.

use super::{Db, DbInner, State, WriteBatch, RETRY};
use crate::filename::wal_file;
use crate::memtable::Memtable;
use crate::wal::WalWriter;
use parking_lot::MutexGuard;
use std::io;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One queued writer. The batch is `Some` until a leader claims it into a
/// commit group; the entry itself stays in the queue until the group
/// completes, so the queue front always identifies the active leader.
pub(super) struct PendingWrite {
    ticket: u64,
    batch: Option<WriteBatch>,
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

/// Hard ceiling on one commit group's merged payload (LevelDB's 1 MB).
const MAX_GROUP_BYTES: usize = 1 << 20;
/// When the leader's own batch is small, cap the group lower so one tiny
/// write is never stuck behind a megabyte of followers' latency.
const SMALL_BATCH_BYTES: usize = 128 << 10;

impl Db {
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
}

impl DbInner {
    /// Leader path of [`Db::write`]: called by the writer at the queue
    /// front with the state lock held. Merges the pending batches into one
    /// group, commits it through the WAL with the lock released, then
    /// publishes and distributes the outcome.
    #[expect(
        clippy::expect_used,
        reason = "group-commit invariants, each held under the state lock: the leader is the \
                  queue front, a queued batch stays unclaimed until its leader takes it, and \
                  `st.wal` is resident whenever no leader is inside its I/O window"
    )]
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
        let wal_result = MutexGuard::unlocked(st, || self.log_record(&mut wal, &record));
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

    /// The WAL step of a group leader's I/O window: append `record`, then
    /// sync it when `sync_writes`, retrying transient failures; a completed
    /// sync is counted.
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
    #[expect(
        clippy::expect_used,
        reason = "every group member stays queued until its leader finishes the group, under \
                  the state lock"
    )]
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
    pub(super) fn make_room_for_write(&self, st: &mut MutexGuard<'_, State>) -> io::Result<()> {
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

    pub(super) fn rotate_memtable(&self, st: &mut MutexGuard<'_, State>) -> io::Result<()> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Options;
    use pcp_storage::{Env, EnvRef, RandomReadFile, SimDevice, SimEnv, WritableFile};
    // The gate is test scaffolding outside the engine's lock graph.
    use std::sync::{mpsc, Mutex};

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
