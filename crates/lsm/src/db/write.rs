//! The write path: group commit through the WAL, write back-pressure
//! (the stall) and memtable rotation — every one of them the turn of
//! the writer at the queue front.

use super::{Db, DbInner, State, WriteBatch, RETRY};
use crate::memtable::Memtable;
use crate::wal::WalWriter;
use parking_lot::MutexGuard;
use pcp_compaction::filename::wal_file;
use std::io;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::Instant;

/// One queued writer. The batch is `Some` until a leader claims it into a
/// commit group, and `None` from the start for a forced rotation
/// ([`Db::flush`]), which no group takes; the entry itself stays in the
/// queue until its turn completes, so the queue front always identifies
/// the active leader.
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
    /// Level 0 holds three times `l0_trigger` tables.
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
        self.inner.queue(&mut self.inner.state.lock(), Some(batch))
    }
}

impl DbInner {
    /// Queues `batch` — `None` asks for a forced rotation — and returns its
    /// outcome: filed by the leader whose group carried it, or produced by
    /// this thread's own turn at the queue front.
    pub(super) fn queue(
        &self,
        st: &mut MutexGuard<'_, State>,
        batch: Option<WriteBatch>,
    ) -> io::Result<()> {
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let force = batch.is_none();
        st.write_queue.push_back(PendingWrite { ticket, batch });
        loop {
            if let Some(result) = st.write_results.remove(&ticket) {
                // A leader committed (or failed) our batch for us.
                return result;
            }
            if st.write_queue.front().is_some_and(|w| w.ticket == ticket) {
                break; // queue front: our turn
            }
            self.writers_cv.wait(st);
        }
        let room = self.make_room_for_write(st, force);
        if room.is_err() || force {
            // A failed admission (latched error) or a finished rotation
            // ends the turn. Followers stay queued: the next one takes the
            // front and observes the same latch itself.
            st.write_queue.pop_front();
            self.writers_cv.notify_all();
            return room;
        }
        self.commit_group(st, ticket)
    }

    /// Leader path of [`Db::write`]: called by the writer at the queue
    /// front with the state lock held, once its memtable has room. Merges
    /// the pending batches into one group, commits it through the WAL with
    /// the lock released, then publishes and distributes the outcome.
    #[expect(
        clippy::expect_used,
        reason = "group-commit invariants, each held under the state lock: the leader is the \
                  queue front, and a queued batch stays unclaimed until its leader takes it"
    )]
    fn commit_group(&self, st: &mut MutexGuard<'_, State>, leader_ticket: u64) -> io::Result<()> {
        // Claim batches from the queue front up to the cap, or up to a
        // forced rotation, which takes its own turn. Entries stay queued
        // (their tickets mark group membership and keep this leader at the
        // front); only the payloads move.
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
            let Some(size) = w.batch.as_ref().map(WriteBatch::approximate_bytes) else {
                break;
            };
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

        // The I/O window: take the WAL out of the state and run the append
        // + single amortized sync — after a rotation, the log's creation
        // first — with the lock released, so arriving writers enqueue and
        // the background lanes keep flushing/compacting meanwhile. New
        // arrivals see this leader's ticket still at the queue front and
        // block; neither a second leader nor a rotation can touch the WAL.
        let (mut wal, number) = (st.wal.take(), st.wal_number);
        let wal_result = MutexGuard::unlocked(st, || {
            let wal = match &mut wal {
                Some(wal) => wal,
                None => wal.insert(pcp_storage::with_retry(&RETRY, || {
                    WalWriter::create(&*self.env, &wal_file(number))
                })?),
            };
            self.log_record(wal, &record)
        });
        st.wal = wal;

        if let Err(e) = wal_result {
            // Every writer in the failed group gets the error.
            self.latch_wal_failure(st, &e);
            let failed = Err(e);
            self.finish_group(st, &group, leader_ticket, &failed);
            return failed;
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
        self.finish_group(st, &group, leader_ticket, &Ok(()));
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
        result: &io::Result<()>,
    ) {
        for (ticket, _) in group {
            let w = st.write_queue.pop_front().expect("group member queued");
            debug_assert_eq!(w.ticket, *ticket);
            if *ticket != leader_ticket {
                st.write_results
                    .insert(*ticket, pcp_sstable::copy_status(result));
            }
        }
        self.writers_cv.notify_all();
    }

    /// Ensures the memtable has room, stopping a writer that needs a new
    /// memtable while the previous one is still flushing or while level 0
    /// holds three times `l0_trigger` tables (LevelDB's 12 for 4); the
    /// flush or install that frees it wakes it. A forced rotation
    /// ([`Db::flush`]) is not stopped: it waits out a pending `imm` without
    /// counting a stall and rotates a non-empty memtable.
    fn make_room_for_write(&self, st: &mut MutexGuard<'_, State>, force: bool) -> io::Result<()> {
        loop {
            self.check_bg_error(st)?;
            let full = st.mem.approximate_bytes() >= self.opts.memtable_bytes;
            if st.mem.is_empty() || !(force || full) {
                return Ok(());
            }
            if st.imm.is_some() {
                // Previous memtable still flushing: write pause. A failed
                // flush leaves `imm` in place; the latch wakes this wait.
                if force {
                    self.done_cv.wait(st);
                } else {
                    self.stall_wait(st, StallCause::ImmPending);
                }
                continue;
            }
            if !force && st.versions.current().level_files(0) >= 3 * self.opts.policy.l0_trigger {
                self.stall_wait(st, StallCause::L0Stop);
                continue;
            }
            self.rotate_memtable(st);
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
            pcp_obs::TraceKind::WriteStall,
            &[
                ("stall_nanos", waited.as_nanos() as u64),
                ("cause", cause as u64),
            ],
        );
    }

    /// Moves `mem` and its log into the `imm` slot and numbers the next
    /// log, which the first group to write creates in its I/O window; the
    /// flush lane syncs the retired one. Only the queue front rotates, so
    /// no leader's window is open meanwhile.
    fn rotate_memtable(&self, st: &mut State) {
        debug_assert!(st.imm.is_none() && st.imm_wal.is_none());
        st.imm_wal = st.wal.take();
        st.wal_number = st.versions.allocate_file_number();
        st.imm = Some(std::mem::replace(&mut st.mem, Arc::new(Memtable::new())));
        self.work_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbHealth, Options};
    use pcp_storage::{
        Env, EnvRef, FaultEnv, FaultKind, FaultOp, RandomReadFile, SimDevice, SimEnv, WritableFile,
    };
    use std::time::Duration;
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
                Box::new(GateWal {
                    inner,
                    gate: Arc::clone(&self.gate),
                })
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
        assert_eq!(
            m.puts,
            1 + FOLLOWERS as u64,
            "every writer was acknowledged"
        );
        assert_eq!(
            m.wal_syncs, 2,
            "one sync for the leader, one for all who queued behind it"
        );
        assert_eq!(m.group_commits, 2);
        // The series behind `pcp_engine_group_commit_batches`.
        assert_eq!(db.inner.group_commit_writers.max(), FOLLOWERS as u64);

        drop(db);
        let db = Db::open(inner, opts).unwrap();
        for i in 0..=FOLLOWERS {
            assert_eq!(
                db.get(&key(i)).unwrap(),
                Some(b"v".to_vec()),
                "k{i} after reopen"
            );
        }
    }

    fn mem_env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))))
    }

    /// A small memtable, so a few dozen puts of [`VALUE`] rotate.
    fn small_memtable() -> Options {
        Options {
            memtable_bytes: 64 << 10,
            ..Options::default()
        }
    }

    const VALUE: [u8; 100] = [b'v'; 100];

    fn key(i: usize) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    /// Reopens `image` and checks that it holds a prefix of the first
    /// `acked` keys, each with [`VALUE`], and no later key; returns the
    /// prefix length.
    fn recovered_prefix(image: EnvRef, acked: usize, written: usize) -> usize {
        let db = Db::open(image, small_memtable()).unwrap();
        let present = |i: usize| db.get(&key(i)).unwrap().is_some_and(|v| v == VALUE);
        let prefix = (0..acked).take_while(|&i| present(i)).count();
        for i in prefix..written {
            assert_eq!(
                db.get(&key(i)).unwrap(),
                None,
                "key {i} recovered past a hole at {prefix}"
            );
        }
        prefix
    }

    /// With every `.log` sync failing for good, the flush lane's sync of
    /// the first retired log latches the error: later puts get it, no put
    /// creates a log of its own, and the image holds a prefix of the
    /// acknowledged puts.
    #[test]
    fn a_failed_sync_of_the_retired_log_latches_and_leaks_no_log() {
        const PUTS: usize = 6000;
        let inner = mem_env();
        let fault = FaultEnv::new(Arc::clone(&inner), 3);
        fault
            .set_probability(FaultOp::Sync, 1.0)
            .set_probabilistic_kind(FaultKind::Permanent)
            .set_file_filter(".log");
        let db = Db::open(Arc::new(fault), small_memtable()).unwrap();
        let results: Vec<io::Result<()>> = (0..PUTS).map(|i| db.put(&key(i), &VALUE)).collect();
        let acked = results.iter().take_while(|r| r.is_ok()).count();
        assert!(acked < PUTS, "no put failed");

        let DbHealth::BackgroundError(latched) = db.health() else {
            panic!("the failed log sync was not latched");
        };
        assert!(latched.contains("injected permanent fault"), "{latched}");
        for (i, r) in results.iter().enumerate().skip(acked) {
            let e = r.as_ref().expect_err("a put went through after one failed");
            assert_eq!(e.to_string(), latched, "put {i}");
        }
        let logs = inner
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .count();
        assert!(logs <= 2, "{logs} logs on disk");

        drop(db);
        recovered_prefix(inner, acked, PUTS);
    }

    /// While the flush lane is parked in the retired log's sync, a `get`,
    /// an iterator and a `put` that needs no rotation all complete.
    #[test]
    fn a_parked_sync_of_the_retired_log_blocks_nobody() {
        // 100 puts of 1 KiB: one rotation, and room in the next memtable.
        const PUTS: usize = 100;
        let value = [b'w'; 1024];
        let gate = Arc::new(Mutex::new(None));
        let env: EnvRef = Arc::new(GateEnv {
            inner: mem_env(),
            gate: Arc::clone(&gate),
        });
        // `sync_writes` is off: the only log sync is the flush lane's.
        let db = Db::open(env, small_memtable()).unwrap();

        std::thread::scope(|s| {
            let db = &db;
            let (parked_tx, parked) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            *gate.lock().unwrap() = Some((parked_tx, release_rx));
            s.spawn(move || (0..PUTS).for_each(|i| db.put(&key(i), &value).unwrap()));
            parked.recv().unwrap();
            let (done_tx, done) = mpsc::channel();
            s.spawn(move || {
                assert_eq!(db.get(&key(0)).unwrap().as_deref(), Some(&value[..]));
                let mut it = db.iter();
                it.seek_to_first();
                assert!(it.valid() && it.key() == key(0));
                db.put(b"late", b"write").unwrap();
                done_tx.send(()).unwrap();
            });
            // The timeout only turns a hang into a failure: a passing run
            // never waits for it.
            let finished = done.recv_timeout(Duration::from_secs(30));
            release.send(()).unwrap();
            assert!(
                finished.is_ok(),
                "a reader or a writer waited for the parked log sync"
            );
        });

        db.flush().unwrap();
        assert_eq!(db.metrics().flush_count, 2);
        for i in 0..PUTS {
            assert_eq!(
                db.get(&key(i)).unwrap().as_deref(),
                Some(&value[..]),
                "key {i}"
            );
        }
        assert_eq!(db.get(b"late").unwrap(), Some(b"write".to_vec()));
    }

    /// A crash in the retired log's sync: the image holds the flushed table
    /// and, after it, a prefix of the acknowledged puts — nothing past a
    /// hole.
    #[test]
    fn a_crash_in_the_retired_log_sync_recovers_a_prefix() {
        const FLUSHED: usize = 100;
        const PUTS: usize = 3000;
        let inner = mem_env();
        let fault = FaultEnv::new(Arc::clone(&inner), 5);
        let db = Db::open(Arc::new(fault.clone()), small_memtable()).unwrap();
        for i in 0..FLUSHED {
            db.put(&key(i), &VALUE).unwrap();
        }
        db.flush().unwrap();

        fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::Crash, ".log");
        // The crash latches, so a put fails before the memtables run out.
        let acked = FLUSHED
            + (FLUSHED..PUTS)
                .take_while(|&i| db.put(&key(i), &VALUE).is_ok())
                .count();
        assert!(
            acked < PUTS && fault.crashed(),
            "the crash did not stop the writes"
        );
        drop(db);
        let prefix = recovered_prefix(inner, acked, PUTS);
        assert!(
            prefix >= FLUSHED,
            "the flushed table lost keys: prefix {prefix}"
        );
    }
}
