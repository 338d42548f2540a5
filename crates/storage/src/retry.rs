//! Bounded retry with exponential backoff for transient I/O errors.
//!
//! The compaction driver, WAL, and MANIFEST writers all face the same
//! question on an `io::Error`: is this worth retrying? The answer here is
//! the RocksDB one — retry only errors the kernel itself reports as
//! retryable, a bounded number of times with growing sleeps, and hand
//! everything else (or the last failure) to the caller to latch as a
//! background error.

use std::io;
use std::time::Duration;

/// How many times to attempt an op and how long to wait between attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Ceiling on any single sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — for contexts that must fail fast.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }
}

/// True for errors where retrying the same op can plausibly succeed.
///
/// `Interrupted` is the classic case (EINTR, and what
/// [`crate::FaultEnv`] uses for injected transient faults);
/// `WouldBlock`/`TimedOut` cover overloaded devices.
pub fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` under `policy`: transient failures are retried with
/// exponential backoff, the first non-transient failure (or the last
/// transient one once attempts are exhausted) is returned.
pub fn with_retry<T, F>(policy: &RetryPolicy, mut op: F) -> io::Result<T>
where
    F: FnMut() -> io::Result<T>,
{
    let mut backoff = policy.base_backoff;
    let mut attempt = 0;
    loop {
        attempt += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < policy.max_attempts => {
                if backoff > Duration::ZERO {
                    crate::blocking::sleep(backoff.min(policy.max_backoff));
                }
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn transient() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "transient")
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let out = with_retry(&RetryPolicy::default(), || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(transient())
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn permanent_error_fails_immediately() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = with_retry(&RetryPolicy::default(), || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::other("dead disk"))
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let out: io::Result<()> = with_retry(&policy, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(transient())
        });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn no_retry_policy_is_single_shot() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = with_retry(&RetryPolicy::none(), || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(transient())
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
