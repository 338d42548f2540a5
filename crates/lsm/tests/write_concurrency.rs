//! Concurrent-writer tests for the group-commit write path.
//!
//! The write path merges concurrent writers into leader-committed groups
//! (one WAL record, one amortized sync). These tests pin down the three
//! properties that matter: the final database state equals a serial
//! model with batch atomicity preserved, every commit group issues exactly
//! one sync under contention (that groups *merge* is held by the
//! fixed-interleaving test in `db.rs`,
//! `writers_queued_behind_a_sync_commit_as_one_group`), and a WAL failure
//! inside a merged group is latched and reported to every writer that
//! rode in it.

use pcp_lsm::{Db, Options, WriteBatch};
use pcp_storage::{
    EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv, SsdModel,
};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const BATCHES_PER_THREAD: usize = 40;
const SHARED_KEYS: usize = 6;

fn ram_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))))
}

/// A filesystem whose device realizes SSD-class write/sync latency in
/// real time — enough service time per WAL sync that concurrent writers
/// pile up behind a leader and groups actually form.
fn ssd_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::new(
        "ssd0",
        SsdModel::default(),
        1 << 30,
        1.0,
    ))))
}

fn own_key(t: usize, j: usize) -> String {
    format!("own-{t}-{j:03}")
}

/// Runs the N-thread workload: every batch writes the thread's own key
/// plus ALL shared keys under one tag, so any interleaving *within* a
/// batch would leave the shared keys disagreeing.
fn run_writers(db: &Db) {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for j in 0..BATCHES_PER_THREAD {
                    let mut batch = WriteBatch::new();
                    batch.put(own_key(t, j).as_bytes(), format!("v{t}:{j}").as_bytes());
                    let tag = format!("tag-{t}-{j:03}");
                    for i in 0..SHARED_KEYS {
                        batch.put(format!("shared-{i}").as_bytes(), tag.as_bytes());
                    }
                    db.write(batch).unwrap();
                }
            });
        }
    });
}

/// Checks the serial model: every thread's own keys hold their final
/// values, and the shared keys all carry one (atomic) tag that belongs to
/// some thread's last batch — the only batches that can be newest in
/// sequence order.
fn check_model(db: &Db) {
    for t in 0..THREADS {
        for j in 0..BATCHES_PER_THREAD {
            assert_eq!(
                db.get(own_key(t, j).as_bytes()).unwrap(),
                Some(format!("v{t}:{j}").into_bytes()),
                "own key {t}/{j} lost or corrupted"
            );
        }
    }
    let first = db
        .get(b"shared-0")
        .unwrap()
        .expect("shared key must exist");
    for i in 1..SHARED_KEYS {
        assert_eq!(
            db.get(format!("shared-{i}").as_bytes()).unwrap().as_ref(),
            Some(&first),
            "batch interleaved: shared keys disagree"
        );
    }
    let last = BATCHES_PER_THREAD - 1;
    let finals: Vec<Vec<u8>> = (0..THREADS)
        .map(|t| format!("tag-{t}-{last:03}").into_bytes())
        .collect();
    assert!(
        finals.contains(&first),
        "shared tag {:?} is not any thread's final batch",
        String::from_utf8_lossy(&first)
    );
}

#[test]
fn concurrent_writers_match_serial_model_and_replay() {
    let env = ram_env();
    let opts = Options {
        // Small memtable so WAL rotation and flushes race the writer
        // queue during the run.
        memtable_bytes: 32 << 10,
        ..Default::default()
    };
    let db = Db::open(Arc::clone(&env), opts.clone()).unwrap();
    run_writers(&db);
    check_model(&db);

    let m = db.metrics();
    let total_entries = (THREADS * BATCHES_PER_THREAD * (1 + SHARED_KEYS)) as u64;
    assert_eq!(m.puts, total_entries);
    assert!(m.group_commits >= 1, "leaders must have formed groups");
    assert_eq!(m.wal_syncs, 0, "sync_writes off: no write-path syncs");

    // Crash-shaped check: reopen from the same files and replay the WAL.
    // Merged group records must decode back to exactly the same state.
    drop(db);
    let db = Db::open(env, opts).unwrap();
    check_model(&db);
}

/// How many groups form here depends on thread timing, so this asserts
/// only what holds for every interleaving.
#[test]
fn every_commit_group_syncs_exactly_once_under_contention() {
    let writes_per_thread = 25;
    let db = Db::open(
        ssd_env(),
        Options {
            sync_writes: true,
            ..Default::default()
        },
    )
    .unwrap();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for j in 0..writes_per_thread {
                    db.put(
                        format!("k{t}-{j:04}").as_bytes(),
                        format!("value-{t}-{j}").as_bytes(),
                    )
                    .unwrap();
                }
            });
        }
    });
    let total_writes = (THREADS * writes_per_thread) as u64;
    let m = db.metrics();
    assert_eq!(m.puts, total_writes);
    assert!((1..=total_writes).contains(&m.group_commits));
    assert_eq!(m.wal_syncs, m.group_commits);
    for t in 0..THREADS {
        for j in 0..writes_per_thread {
            assert!(db.get(format!("k{t}-{j:04}").as_bytes()).unwrap().is_some());
        }
    }
}

/// Regression test for the flush-vs-leader rotation race: a flush()
/// thread that parks in `rotate_memtable` waiting for a group leader's
/// unlocked WAL window must not overwrite an `imm` installed by the next
/// leader's `make_room_for_write` while it slept — that would silently
/// drop an unflushed memtable. Writers with a tiny memtable keep leaders
/// in the WAL window and rotating constantly while flushers hammer the
/// same path; every acknowledged write must survive, live and across a
/// reopen.
#[test]
fn concurrent_flushes_race_group_leaders_without_losing_data() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let env = ssd_env();
    let opts = Options {
        sync_writes: true,
        // Rotate every handful of writes so flush() and leaders race on
        // rotate_memtable continuously.
        memtable_bytes: 8 << 10,
        ..Default::default()
    };
    let db = Db::open(Arc::clone(&env), opts.clone()).unwrap();
    let writers = 4;
    let puts_per_writer = 60;
    let value = vec![0xAB; 256];
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let db = &db;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    db.flush().unwrap();
                }
            });
        }
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let db = &db;
                let value = &value;
                s.spawn(move || {
                    for j in 0..puts_per_writer {
                        db.put(format!("race-{t}-{j:03}").as_bytes(), value)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    db.flush().unwrap();
    for t in 0..writers {
        for j in 0..puts_per_writer {
            assert!(
                db.get(format!("race-{t}-{j:03}").as_bytes())
                    .unwrap()
                    .is_some(),
                "acknowledged write race-{t}-{j:03} lost (rotation race)"
            );
        }
    }
    // A dropped memtable would also vanish from the recovered state.
    drop(db);
    let db = Db::open(env, opts).unwrap();
    for t in 0..writers {
        for j in 0..puts_per_writer {
            assert!(
                db.get(format!("race-{t}-{j:03}").as_bytes())
                    .unwrap()
                    .is_some(),
                "write race-{t}-{j:03} lost across reopen"
            );
        }
    }
}

#[test]
fn wal_failure_in_group_latches_and_fails_every_writer() {
    let inner: EnvRef = ssd_env();
    let fault = FaultEnv::new(Arc::clone(&inner), 0x6f0c);
    // The warm-up write consumes the first WAL sync; the second — the one
    // covering the merged group below — fails permanently.
    fault.schedule_on_file(FaultOp::Sync, 2, FaultKind::Permanent, ".log");
    let env: EnvRef = Arc::new(fault.clone());
    let db = Db::open(
        env,
        Options {
            sync_writes: true,
            ..Default::default()
        },
    )
    .unwrap();
    db.put(b"warmup", b"ok").unwrap();

    let barrier = Barrier::new(THREADS);
    let results: Vec<std::io::Result<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &db;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    db.put(format!("doomed-{t}").as_bytes(), b"v")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every writer must see the failure: the leader and its group members
    // get the injected sync error, later leaders observe the latched
    // background error (which wraps the same message). Nobody hangs, and
    // nobody "succeeds" into a log that lost their record.
    for (t, r) in results.iter().enumerate() {
        let err = r.as_ref().expect_err("writer must not report success");
        assert!(
            err.to_string().contains("injected permanent fault"),
            "writer {t}: unexpected error {err}"
        );
    }
    match db.health() {
        pcp_lsm::DbHealth::BackgroundError(msg) => {
            assert!(msg.contains("wal write failed"), "latched: {msg}")
        }
        pcp_lsm::DbHealth::Ok => panic!("background error must be latched"),
    }
    // The latch rejects all subsequent writes; reads still serve the last
    // consistent state.
    assert!(db.put(b"after", b"x").is_err());
    assert_eq!(db.get(b"warmup").unwrap(), Some(b"ok".to_vec()));
    assert!(db.metrics().puts >= 1);
}
