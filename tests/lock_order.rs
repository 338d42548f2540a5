//! End-to-end checks of the `lock_order` runtime witness (DESIGN.md §11).
//!
//! Built only with `--features lock_order`, the CI lane that runs the
//! whole workspace under the vendored parking_lot shim's witness. These
//! tests pin down its contract: consistent ordering stays silent, an
//! inversion panics naming both lock sites; `Env` I/O under a lock panics
//! naming where the lock was taken, and stays silent once the lock is
//! released or is an `RwLock` built `held_across_blocking`; a condvar wait
//! panics if it holds any lock besides the one it waits on.

#![cfg(feature = "lock_order")]

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use pcp::storage::{Env, SimDevice, SimEnv};
use std::sync::Arc;
use std::time::Duration;

fn sim_env() -> SimEnv {
    SimEnv::new(Arc::new(SimDevice::mem(1 << 20)))
}

/// Runs `f` on a fresh thread with panic output silenced, returning the
/// panic message if it panicked.
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::thread::spawn(f).join();
    std::panic::set_hook(prev_hook);
    match outcome {
        Ok(()) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic payload>".to_string()),
        ),
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn inverted_mutex_order_on_two_threads_fires_with_both_sites() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));

    // Thread 1 establishes the order a -> b.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _ga = a.lock();
            let _gb = b.lock();
        })
        .join()
        .expect("consistent order must not fire the witness");
    }

    // Thread 2 takes b -> a: the witness must panic at the second lock.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let message = panic_message_of(move || {
        let _gb = b2.lock();
        let _ga = a2.lock();
    })
    .expect("inverted order must fire the lock-order witness");

    assert!(
        message.contains("lock-order inversion"),
        "unexpected panic: {message}"
    );
    // Both the inverting acquisition sites and the previously established
    // order's sites live in this file: the message must name it for each
    // of the four acquisitions.
    assert!(
        message.matches("lock_order.rs").count() >= 4,
        "expected both lock sites of both orders in: {message}"
    );
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn consistent_order_across_many_threads_stays_silent() {
    let outer = Arc::new(Mutex::new(())); // always taken first
    let inner = Arc::new(RwLock::new(0u64));
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let (outer, inner) = (Arc::clone(&outer), Arc::clone(&inner));
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let _g = outer.lock();
                    if i % 2 == 0 {
                        *inner.write() += 1;
                    } else {
                        let _ = *inner.read();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join()
            .expect("consistent order must not fire the witness");
    }
    assert_eq!(*inner.read(), 400);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn rwlock_participates_in_the_order_graph() {
    let m = Arc::new(Mutex::new(()));
    let rw = Arc::new(RwLock::new(()));

    // Establish m -> rw.
    {
        let (m, rw) = (Arc::clone(&m), Arc::clone(&rw));
        std::thread::spawn(move || {
            let _g = m.lock();
            let _r = rw.read();
        })
        .join()
        .expect("consistent order must not fire the witness");
    }

    // rw (write) -> m inverts it, even though the first hold was a read.
    let message = panic_message_of(move || {
        let _w = rw.write();
        let _g = m.lock();
    })
    .expect("read-vs-write inversion must fire the lock-order witness");
    assert!(message.contains("lock-order inversion"));
}

#[test]
fn env_io_under_a_lock_fires_naming_where_the_lock_was_taken() {
    let env = sim_env();
    let state = Arc::new(Mutex::new(()));
    let (state2, taken_at) = (Arc::clone(&state), Arc::new(Mutex::new(0)));
    let taken_at2 = Arc::clone(&taken_at);
    let message = panic_message_of(move || {
        let (_g, line) = (state2.lock(), line!());
        *taken_at2.try_lock().unwrap() = line;
        let _ = env.create("000001.log");
    })
    .expect("Env I/O under a lock must fire the witness");
    assert!(
        message.contains("blocking under a lock"),
        "unexpected panic: {message}"
    );
    assert!(
        message.contains("Env::create"),
        "the call is not named: {message}"
    );
    let site = format!("tests/lock_order.rs:{}", *taken_at.lock());
    assert!(
        message.contains(&site),
        "expected the acquisition at {site} in: {message}"
    );
}

#[test]
fn env_io_after_unlocking_or_under_an_exempt_lock_stays_silent() {
    let env = sim_env();
    let state = Mutex::new(0u32);
    let mut guard = state.lock();
    MutexGuard::unlocked(&mut guard, || {
        let mut f = env.create("000001.log").unwrap();
        f.append(b"record").unwrap();
        f.sync().unwrap();
    });
    *guard += 1;
    drop(guard);

    let snapshot = RwLock::held_across_blocking((), "the test's consistent cut");
    let _s = snapshot.read();
    let f = env.open("000001.log").unwrap();
    assert_eq!(&f.read_at(0, 6).unwrap()[..], b"record");
    pcp::storage::blocking::sleep(Duration::ZERO);
}

#[test]
fn condvar_wait_holding_a_second_lock_fires() {
    let message = panic_message_of(|| {
        let (outer, inner, cv) = (Mutex::new(()), Mutex::new(()), Condvar::new());
        let _o = outer.lock();
        let mut g = inner.lock();
        cv.wait_for(&mut g, Duration::from_millis(1));
    })
    .expect("a condvar wait under a second lock must fire the witness");
    assert!(
        message.contains("blocking under a lock: condvar wait"),
        "unexpected panic: {message}"
    );
}

#[test]
fn condvar_wait_on_its_own_lock_alone_stays_silent() {
    let (m, cv) = (Mutex::new(()), Condvar::new());
    let mut g = m.lock();
    assert!(
        cv.wait_for(&mut g, Duration::from_millis(1)),
        "nobody notifies"
    );
    drop(g);
    // So is a wait under an exempt lock taken first, as a sharded write
    // waits out a stall under the snapshot lock.
    let cut = RwLock::held_across_blocking((), "the test's consistent cut");
    let _c = cut.read();
    let mut g = m.lock();
    assert!(cv.wait_for(&mut g, Duration::from_millis(1)));
}
