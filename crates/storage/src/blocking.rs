//! The one door to blocking outside I/O. A sleep, a thread join or a
//! channel receive goes through here, and asks the lock witness first
//! ([`parking_lot::check_blocking`]): under the `lock_order` feature a
//! thread that blocks while holding a lock then panics, naming where the
//! lock was acquired (DESIGN.md §11); otherwise the check costs nothing.
//! The `Env` implementations of this crate ask the witness at the top of
//! every filesystem and file method, so all engine I/O is checked too.

use std::time::{Duration, Instant};

/// Runs `f`, a call that blocks on `what` (a thread join, a channel
/// receive), after asking the witness.
#[track_caller]
#[inline]
pub fn wait<R>(what: &str, f: impl FnOnce() -> R) -> R {
    parking_lot::check_blocking(what);
    f()
}

/// Sleeps for `duration`: the one library sleep site, for backoffs and the
/// device model's service time.
#[track_caller]
pub fn sleep(duration: Duration) {
    parking_lot::check_blocking("sleep");
    #[expect(
        clippy::disallowed_methods,
        reason = "the library's one sleep: backoff and modelled device time, each checked by \
                  the witness above"
    )]
    std::thread::sleep(duration);
}

/// Sleeps until `deadline`, if it is still ahead: how a caller waits out a
/// device request it booked earlier ([`crate::BlockDevice::submit_read`]).
#[track_caller]
pub fn sleep_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        sleep(left);
    }
}
