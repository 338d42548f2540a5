//! The compaction scheduler: the [`CompactionLimiter`] that admits
//! compactions across databases and the [`ResourceGrant`] it hands each one.
//!
//! The paper's C-PPCP argument is that compute stages should be replicated
//! only up to the core count — more concurrency than the hardware has
//! merely adds contention. A sharded engine (N independent `Db`s, one
//! compaction lane each) re-creates exactly that hazard one level up: N
//! simultaneous compactions each running a pipeline of their own. The
//! limiter bounds *whole compactions* with a counting semaphore and gives
//! every admitted compaction the same fixed **share** of a global
//! stage-token budget — how many parallel stage workers (C-PPCP compute
//! workers, S-PPCP read lanes) may exist across all concurrent
//! compactions: `share = budget / permits`, at least 1.
//!
//! The compaction lane brackets each compaction with
//! [`CompactionLimiter::acquire_grant`] / [`CompactionLimiter::
//! release_grant`]. The grant travels inside the `CompactionRequest`, so
//! every executor consults the same allowance:
//! [`ResourceGrant::stage_tokens`] caps how many parallel workers the
//! widest pipeline stage may run. A default ([`ResourceGrant::unlimited`])
//! grant changes nothing; standalone `Db`s without a scheduler run on it.
//!
//! Invariants (tested):
//!
//! * permits in use never exceed the permit count;
//! * the sum of granted stage tokens never exceeds the token budget — by
//!   construction, `permits × share ≤ budget`;
//! * every admitted compaction holds at least one token, so it always
//!   makes progress.
//!
//! Flushes are never gated: delaying a flush turns directly into writer
//! stalls. The wait loop polls with a short timeout instead of relying on
//! a wakeup, so a `Db` dropped while queued still observes its shutdown
//! flag promptly.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// One compaction's resource allowance, attached by the scheduler to the
/// `CompactionRequest`.
#[derive(Debug, Clone, Default)]
pub struct ResourceGrant {
    /// Stage-worker token count; `None` means unlimited.
    stage_tokens: Option<usize>,
}

impl ResourceGrant {
    /// A grant that imposes no limits — the default for compactions that
    /// run without a scheduler (standalone `Db`, unit tests, benches).
    pub fn unlimited() -> ResourceGrant {
        ResourceGrant::default()
    }

    /// A grant of `stage_tokens` parallel-stage workers, clamped to at
    /// least 1.
    pub fn new(stage_tokens: usize) -> Self {
        ResourceGrant {
            stage_tokens: Some(stage_tokens.max(1)),
        }
    }

    /// How many parallel workers the widest pipeline stage may run.
    /// Unlimited grants report `usize::MAX`.
    pub fn stage_tokens(&self) -> usize {
        self.stage_tokens.unwrap_or(usize::MAX)
    }

    /// Clamps a desired per-stage worker count to this grant (at least 1 —
    /// an admitted compaction always makes progress).
    pub fn clamp_workers(&self, want: usize) -> usize {
        want.min(self.stage_tokens()).max(1)
    }
}

struct SchedState {
    /// Compactions currently admitted.
    in_use: usize,
    /// High-water mark of `in_use`, for tests and diagnostics.
    peak: usize,
}

/// A cross-shard compaction scheduler: bounds concurrent compactions and
/// grants each one an equal share of a stage-worker token budget.
///
/// Created once and stamped into every shard's `Options`
/// (`ShardedDb` does this automatically); a standalone `Db` without one
/// simply runs unlimited.
pub struct CompactionLimiter {
    permits: usize,
    stage_tokens: usize,
    /// Tokens every grant carries: `stage_tokens / permits`, at least 1.
    share: usize,
    state: Mutex<SchedState>,
    released: Condvar,
}

impl std::fmt::Debug for CompactionLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CompactionLimiter")
            .field("permits", &self.permits)
            .field("stage_tokens", &self.stage_tokens)
            .field("share", &self.share)
            .field("in_use", &st.in_use)
            .field("peak", &st.peak)
            .finish()
    }
}

impl CompactionLimiter {
    /// A scheduler with `permits` concurrent compaction slots (min 1) and
    /// a stage-token budget sized to the host's cores.
    pub fn new(permits: usize) -> Arc<CompactionLimiter> {
        Self::with_budget(permits, available_cores())
    }

    /// A scheduler sized to the host: `min(shards, cores)` concurrent
    /// compactions sharing `cores` stage-worker tokens.
    pub fn for_shards(shards: usize) -> Arc<CompactionLimiter> {
        let cores = available_cores();
        Self::with_budget(shards.min(cores).max(1), cores)
    }

    /// Full control: `permits` concurrent compactions sharing
    /// `stage_tokens` stage workers (clamped up to `permits`, so every
    /// admitted compaction can hold a token). Each grant carries
    /// `stage_tokens / permits` tokens.
    pub fn with_budget(permits: usize, stage_tokens: usize) -> Arc<CompactionLimiter> {
        let permits = permits.max(1);
        let stage_tokens = stage_tokens.max(permits);
        Arc::new(CompactionLimiter {
            permits,
            stage_tokens,
            share: (stage_tokens / permits).max(1),
            state: Mutex::new(SchedState { in_use: 0, peak: 0 }),
            released: Condvar::new(),
        })
    }

    /// Blocks until a permit is free, then admits the compaction and
    /// returns its grant of one share of the token budget.
    ///
    /// Returns `None` without admitting once `should_abort` reports true.
    pub fn acquire_grant(&self, should_abort: &dyn Fn() -> bool) -> Option<ResourceGrant> {
        let mut st = self.state.lock();
        while st.in_use == self.permits {
            if should_abort() {
                return None;
            }
            self.released.wait_for(&mut st, Duration::from_millis(5));
        }
        st.in_use += 1;
        st.peak = st.peak.max(st.in_use);
        Some(self.share_grant())
    }

    /// The grant every admitted compaction carries — one share of the
    /// token budget — without taking a permit: what a manual
    /// `compact_range`, which skips the permit queue, runs on.
    pub fn share_grant(&self) -> ResourceGrant {
        ResourceGrant::new(self.share)
    }

    /// Returns the permit taken by [`CompactionLimiter::acquire_grant`].
    pub fn release_grant(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.in_use > 0, "release_grant without acquire_grant");
        st.in_use = st.in_use.saturating_sub(1);
        self.released.notify_one();
    }

    /// Total permits (max concurrent compactions).
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Permits currently held.
    pub fn in_use(&self) -> usize {
        self.state.lock().in_use
    }

    /// The most permits ever held at once.
    pub fn peak(&self) -> usize {
        self.state.lock().peak
    }

    /// The global stage-token budget.
    pub fn stage_tokens(&self) -> usize {
        self.stage_tokens
    }

    /// Stage tokens currently granted across all running compactions.
    pub fn tokens_out(&self) -> usize {
        self.in_use() * self.share
    }

    /// Always 0: every grant is an equal share, so none borrows width from
    /// another. Kept only because the benchmark's `compaction.steals` row
    /// reads it.
    pub fn steals(&self) -> u64 {
        0
    }
}

/// `available_parallelism` with a floor of 1.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn unlimited_grant_imposes_nothing() {
        let g = ResourceGrant::unlimited();
        assert_eq!(g.stage_tokens(), usize::MAX);
        assert_eq!(g.clamp_workers(8), 8);
    }

    #[test]
    fn tokens_clamp_workers_but_never_to_zero() {
        let g = ResourceGrant::new(2);
        assert_eq!(g.stage_tokens(), 2);
        assert_eq!(g.clamp_workers(8), 2);
        assert_eq!(g.clamp_workers(1), 1);
        let zero = ResourceGrant::new(0);
        assert_eq!(zero.stage_tokens(), 1, "zero tokens rounds up to one");
    }

    #[test]
    fn caps_concurrency_and_tracks_peak() {
        let limiter = CompactionLimiter::new(2);
        let never = || false;
        limiter.acquire_grant(&never).unwrap();
        limiter.acquire_grant(&never).unwrap();
        assert_eq!(limiter.in_use(), 2);
        // Third acquire must wait; abort it instead.
        let aborted = AtomicBool::new(true);
        assert!(limiter
            .acquire_grant(&|| aborted.load(Ordering::SeqCst))
            .is_none());
        limiter.release_grant();
        limiter.release_grant();
        assert_eq!(limiter.in_use(), 0);
        assert_eq!(limiter.peak(), 2);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test threads, joined before returning"
    )]
    fn contended_acquires_never_exceed_permits() {
        let limiter = CompactionLimiter::new(3);
        let live = Arc::new(AtomicUsize::new(0));
        let worst = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let limiter = Arc::clone(&limiter);
                let live = Arc::clone(&live);
                let worst = Arc::clone(&worst);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        limiter.acquire_grant(&|| false).unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        worst.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        limiter.release_grant();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(worst.load(Ordering::SeqCst) <= 3);
        assert_eq!(limiter.in_use(), 0);
        assert!(limiter.peak() <= 3);
    }

    #[test]
    fn zero_permits_clamps_to_one() {
        let limiter = CompactionLimiter::new(0);
        assert_eq!(limiter.permits(), 1);
        limiter.acquire_grant(&|| false).unwrap();
        limiter.release_grant();
    }

    /// (permits, budget) → the grant of each concurrent admission, up to
    /// the permit count; one more admission must wait.
    #[test]
    fn every_grant_is_an_equal_share_of_the_budget() {
        let rows: [(usize, usize, &[usize]); 5] = [
            (2, 2, &[1, 1]), // `for_shards(2)` on a 2-core host
            (1, 4, &[4]),
            (2, 8, &[4, 4]),
            (4, 6, &[1, 1, 1, 1]),
            (3, 2, &[1, 1, 1]),
        ];
        for (permits, budget, want) in rows {
            let limiter = CompactionLimiter::with_budget(permits, budget);
            let got: Vec<usize> = (0..permits)
                .map(|_| limiter.acquire_grant(&|| false).unwrap().stage_tokens())
                .collect();
            assert_eq!(got, want, "({permits}, {budget})");
            assert_eq!(limiter.tokens_out(), want.iter().sum::<usize>());
            assert!(limiter.tokens_out() <= limiter.stage_tokens());
            assert!(
                limiter.acquire_grant(&|| true).is_none(),
                "({permits}, {budget})"
            );
            for _ in 0..permits {
                limiter.release_grant();
            }
            assert_eq!(limiter.tokens_out(), 0);
            assert_eq!(limiter.steals(), 0);
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test threads, joined before returning"
    )]
    fn token_budget_never_oversubscribed_under_concurrency() {
        let limiter = CompactionLimiter::with_budget(4, 6);
        let held = Arc::new(AtomicUsize::new(0));
        let worst = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let limiter = Arc::clone(&limiter);
                let held = Arc::clone(&held);
                let worst = Arc::clone(&worst);
                std::thread::spawn(move || {
                    for _ in 0..40 {
                        let g = limiter.acquire_grant(&|| false).unwrap();
                        assert!(g.stage_tokens() >= 1);
                        let now =
                            held.fetch_add(g.stage_tokens(), Ordering::SeqCst) + g.stage_tokens();
                        worst.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        held.fetch_sub(g.stage_tokens(), Ordering::SeqCst);
                        limiter.release_grant();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            worst.load(Ordering::SeqCst) <= 6,
            "held {} tokens against a budget of 6",
            worst.load(Ordering::SeqCst)
        );
        assert_eq!(limiter.tokens_out(), 0);
        assert_eq!(limiter.in_use(), 0);
    }
}
