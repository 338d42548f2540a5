//! The compaction scheduler: the [`CompactionLimiter`] that admits
//! compactions across databases and the [`ResourceGrant`] it hands each one.
//!
//! The paper's C-PPCP argument is that compute stages should be replicated
//! only up to the core count — more concurrency than the hardware has
//! merely adds contention. A sharded engine (N independent `Db`s, one
//! compaction lane each) re-creates exactly that hazard one level up: N
//! simultaneous compactions each running a pipeline of their own. The
//! limiter bounds *whole compactions* with a counting semaphore and divides
//! a global **stage-token budget** *inside* that cap — how many parallel
//! stage workers (C-PPCP compute workers, S-PPCP read lanes) may exist
//! across all concurrent compactions. Tokens are granted per compaction,
//! weighted by each shard's pending-compaction **debt** (its max level
//! score), so a hot shard borrows pipeline width from idle ones instead of
//! every shard independently saturating the cores.
//!
//! Shards participate by registering a **slot** ([`CompactionLimiter::
//! register`]) and keeping its debt fresh ([`CompactionLimiter::set_debt`]);
//! the compaction lane brackets each compaction with
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
//! * the sum of granted stage tokens never exceeds the token budget —
//!   admission waits until at least one token is free, and a grant leaves
//!   one token per still-admittable compaction behind when it can;
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
    /// Scheduler slot this grant was issued to, if any.
    slot: Option<usize>,
    /// Stage-worker token count; `None` means unlimited.
    stage_tokens: Option<usize>,
}

impl ResourceGrant {
    /// A grant that imposes no limits — the default for compactions that
    /// run without a scheduler (standalone `Db`, unit tests, benches).
    pub fn unlimited() -> ResourceGrant {
        ResourceGrant::default()
    }

    /// A grant of `stage_tokens` parallel-stage workers, issued to
    /// scheduler slot `slot`. Token counts are clamped to at least 1.
    pub fn new(slot: Option<usize>, stage_tokens: usize) -> Self {
        ResourceGrant {
            slot,
            stage_tokens: Some(stage_tokens.max(1)),
        }
    }

    /// The scheduler slot the grant was issued to (`None` for anonymous or
    /// unlimited grants).
    pub fn slot(&self) -> Option<usize> {
        self.slot
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

/// Per-registered-shard scheduler bookkeeping.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// Slot is live (between `register` and `unregister`).
    registered: bool,
    /// Pending-compaction debt, normally the shard's max level score
    /// (≥ 1.0 means compaction work is due).
    debt: f64,
    /// Stage tokens held by this slot's running compaction (0 if idle).
    granted_tokens: usize,
}

struct SchedState {
    /// Compactions currently admitted.
    in_use: usize,
    /// High-water mark of `in_use`, for tests and diagnostics.
    peak: usize,
    /// Stage tokens currently granted across all compactions.
    tokens_out: usize,
    /// Times a grant exceeded its holder's equal share — i.e. a hot shard
    /// borrowed pipeline width from idle ones.
    steals: u64,
    /// Slot table, indexed by the id `register` hands out.
    slots: Vec<SlotState>,
}

/// A cross-shard compaction scheduler: bounds concurrent compactions and
/// divides a stage-worker token budget among them, weighted by per-shard
/// compaction debt.
///
/// Created once and stamped into every shard's `Options`
/// (`ShardedDb` does this automatically); a standalone `Db` without one
/// simply runs unlimited.
pub struct CompactionLimiter {
    permits: usize,
    stage_tokens: usize,
    state: Mutex<SchedState>,
    released: Condvar,
}

impl std::fmt::Debug for CompactionLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CompactionLimiter")
            .field("permits", &self.permits)
            .field("stage_tokens", &self.stage_tokens)
            .field("in_use", &st.in_use)
            .field("peak", &st.peak)
            .field("tokens_out", &st.tokens_out)
            .field("steals", &st.steals)
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
    /// admitted compaction can hold a token).
    pub fn with_budget(permits: usize, stage_tokens: usize) -> Arc<CompactionLimiter> {
        let permits = permits.max(1);
        Arc::new(CompactionLimiter {
            permits,
            stage_tokens: stage_tokens.max(permits),
            state: Mutex::new(SchedState {
                in_use: 0,
                peak: 0,
                tokens_out: 0,
                steals: 0,
                slots: Vec::new(),
            }),
            released: Condvar::new(),
        })
    }

    /// Registers a shard with the scheduler and returns its slot id.
    /// `Db::open` calls this when the options carry a limiter; the slot
    /// feeds debt in and lets metrics attribute grants per shard.
    pub fn register(&self) -> usize {
        let mut st = self.state.lock();
        if let Some(free) = st.slots.iter().position(|s| !s.registered) {
            st.slots[free] = SlotState {
                registered: true,
                ..SlotState::default()
            };
            return free;
        }
        st.slots.push(SlotState {
            registered: true,
            ..SlotState::default()
        });
        st.slots.len() - 1
    }

    /// Releases a slot taken by [`CompactionLimiter::register`] (called on
    /// `Db` shutdown). The id may be reused by a later `register`.
    pub fn unregister(&self, slot: usize) {
        let mut st = self.state.lock();
        if let Some(s) = st.slots.get_mut(slot) {
            s.registered = false;
            s.debt = 0.0;
        }
    }

    /// Updates a slot's pending-compaction debt. The engine reports its
    /// max level score here on every background-work pass; the next
    /// [`CompactionLimiter::acquire_grant`] divides tokens proportionally
    /// to these values.
    pub fn set_debt(&self, slot: usize, debt: f64) {
        let mut st = self.state.lock();
        if let Some(s) = st.slots.get_mut(slot) {
            if s.registered {
                s.debt = if debt.is_finite() { debt.max(0.0) } else { 0.0 };
            }
        }
    }

    /// Blocks until both a permit and at least one stage token are free,
    /// then admits the compaction and returns its resource grant: a
    /// debt-weighted share of the token budget (never less than 1, never
    /// more than what leaves one token per still-admittable compaction
    /// when possible).
    ///
    /// `slot` attributes the grant to a registered shard; `None` (or an
    /// unregistered id) is anonymous and simply takes the available room.
    /// Returns `None` without admitting once `should_abort` reports true.
    pub fn acquire_grant(
        &self,
        slot: Option<usize>,
        should_abort: &dyn Fn() -> bool,
    ) -> Option<ResourceGrant> {
        let mut st = self.state.lock();
        loop {
            if st.in_use < self.permits && st.tokens_out < self.stage_tokens {
                st.in_use += 1;
                st.peak = st.peak.max(st.in_use);
                return Some(self.grant_locked(&mut st, slot));
            }
            if should_abort() {
                return None;
            }
            self.released.wait_for(&mut st, Duration::from_millis(5));
        }
    }

    /// Returns a grant taken by [`CompactionLimiter::acquire_grant`]:
    /// frees the permit, the stage tokens, and the slot's running-grant
    /// bookkeeping.
    pub fn release_grant(&self, grant: &ResourceGrant) {
        let mut st = self.state.lock();
        let tokens = grant.stage_tokens();
        if tokens != usize::MAX {
            st.tokens_out = st.tokens_out.saturating_sub(tokens);
        }
        if let Some(s) = grant.slot().and_then(|i| st.slots.get_mut(i)) {
            s.granted_tokens = 0;
        }
        debug_assert!(st.in_use > 0, "release_grant without acquire_grant");
        st.in_use = st.in_use.saturating_sub(1);
        self.released.notify_all();
    }

    /// Computes one admission's token grant. Caller holds the
    /// state lock and has already incremented `in_use`.
    fn grant_locked(&self, st: &mut SchedState, slot: Option<usize>) -> ResourceGrant {
        let avail = self.stage_tokens - st.tokens_out; // ≥ 1: admission waited for it
        let reserve = self.permits - st.in_use; // compactions still admittable
        let max_take = avail.saturating_sub(reserve).clamp(1, avail);

        let live = slot.filter(|&i| st.slots.get(i).is_some_and(|s| s.registered));
        let (want, fair_share) = match live {
            Some(i) => {
                let shards = st.slots.iter().filter(|s| s.registered).count().max(1);
                let fair = (self.stage_tokens / shards).max(1);
                let total_debt: f64 = st
                    .slots
                    .iter()
                    .filter(|s| s.registered)
                    .map(|s| s.debt)
                    .sum();
                let want = if total_debt > f64::EPSILON {
                    let share = self.stage_tokens as f64 * st.slots[i].debt / total_debt;
                    share.round() as usize
                } else {
                    fair
                };
                (want.max(1), fair)
            }
            // Anonymous grants have no debt signal: take the room.
            None => (max_take, max_take),
        };

        let granted = want.clamp(1, max_take);
        if granted > fair_share {
            st.steals += 1;
        }
        st.tokens_out += granted;
        if let Some(s) = live.and_then(|i| st.slots.get_mut(i)) {
            s.granted_tokens = granted;
        }
        ResourceGrant::new(live, granted)
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
        self.state.lock().tokens_out
    }

    /// How many grants exceeded their holder's equal share — each one is a
    /// hot shard borrowing pipeline width from idle ones.
    pub fn steals(&self) -> u64 {
        self.state.lock().steals
    }

    /// Stage tokens currently held by `slot`'s running compaction (0 when
    /// idle or unknown).
    pub fn granted_tokens(&self, slot: usize) -> usize {
        self.state
            .lock()
            .slots
            .get(slot)
            .map_or(0, |s| s.granted_tokens)
    }

    /// The debt last reported for `slot` (0.0 when unknown).
    pub fn debt(&self, slot: usize) -> f64 {
        self.state.lock().slots.get(slot).map_or(0.0, |s| s.debt)
    }

    /// Number of currently registered shard slots.
    pub fn registered(&self) -> usize {
        self.state
            .lock()
            .slots
            .iter()
            .filter(|s| s.registered)
            .count()
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
        assert_eq!(g.slot(), None);
    }

    #[test]
    fn tokens_clamp_workers_but_never_to_zero() {
        let g = ResourceGrant::new(Some(3), 2);
        assert_eq!(g.slot(), Some(3));
        assert_eq!(g.stage_tokens(), 2);
        assert_eq!(g.clamp_workers(8), 2);
        assert_eq!(g.clamp_workers(1), 1);
        let zero = ResourceGrant::new(None, 0);
        assert_eq!(zero.stage_tokens(), 1, "zero tokens rounds up to one");
    }

    #[test]
    fn caps_concurrency_and_tracks_peak() {
        let limiter = CompactionLimiter::new(2);
        let never = || false;
        let g1 = limiter.acquire_grant(None, &never).unwrap();
        let g2 = limiter.acquire_grant(None, &never).unwrap();
        assert_eq!(limiter.in_use(), 2);
        // Third acquire must wait; abort it instead.
        let aborted = AtomicBool::new(true);
        assert!(limiter
            .acquire_grant(None, &|| aborted.load(Ordering::SeqCst))
            .is_none());
        limiter.release_grant(&g1);
        limiter.release_grant(&g2);
        assert_eq!(limiter.in_use(), 0);
        assert_eq!(limiter.peak(), 2);
    }

    #[test]
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
                        let g = limiter.acquire_grant(None, &|| false).unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        worst.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        limiter.release_grant(&g);
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
        let g = limiter.acquire_grant(None, &|| false).unwrap();
        limiter.release_grant(&g);
    }

    #[test]
    fn anonymous_grant_takes_available_room_minus_reserve() {
        let limiter = CompactionLimiter::with_budget(2, 8);
        let g1 = limiter.acquire_grant(None, &|| false).unwrap();
        // One more compaction is admittable, so one token stays behind.
        assert_eq!(g1.stage_tokens(), 7);
        let g2 = limiter.acquire_grant(None, &|| false).unwrap();
        assert_eq!(g2.stage_tokens(), 1);
        assert_eq!(limiter.tokens_out(), 8);
        limiter.release_grant(&g1);
        limiter.release_grant(&g2);
        assert_eq!(limiter.tokens_out(), 0);
        assert_eq!(limiter.in_use(), 0);
    }

    #[test]
    fn debt_weighting_gives_hot_shards_more_tokens() {
        let limiter = CompactionLimiter::with_budget(4, 8);
        let hot = limiter.register();
        let idle: Vec<usize> = (0..3).map(|_| limiter.register()).collect();
        limiter.set_debt(hot, 6.0);
        for &s in &idle {
            limiter.set_debt(s, 0.5);
        }
        // Hot shard's share: 8 × 6.0/7.5 = 6.4 → 6, clamped by the reserve
        // (3 still-admittable compactions): max_take = 8 − 3 = 5.
        let g = limiter.acquire_grant(Some(hot), &|| false).unwrap();
        assert_eq!(g.stage_tokens(), 5);
        assert_eq!(limiter.granted_tokens(hot), 5);
        assert!(limiter.steals() >= 1, "grant above fair share is a steal");
        // An idle shard still gets its guaranteed single token.
        let g2 = limiter.acquire_grant(Some(idle[0]), &|| false).unwrap();
        assert_eq!(g2.stage_tokens(), 1);
        limiter.release_grant(&g);
        limiter.release_grant(&g2);
    }

    #[test]
    fn equal_debts_split_evenly_without_steals() {
        let limiter = CompactionLimiter::with_budget(4, 8);
        let slots: Vec<usize> = (0..4).map(|_| limiter.register()).collect();
        for &s in &slots {
            limiter.set_debt(s, 2.0);
        }
        let grants: Vec<ResourceGrant> = slots
            .iter()
            .map(|&s| limiter.acquire_grant(Some(s), &|| false).unwrap())
            .collect();
        for g in &grants {
            assert_eq!(g.stage_tokens(), 2, "8 tokens / 4 equal shards");
        }
        assert_eq!(limiter.steals(), 0);
        for g in &grants {
            limiter.release_grant(g);
        }
    }

    #[test]
    fn token_budget_never_oversubscribed_under_concurrency() {
        let limiter = CompactionLimiter::with_budget(4, 6);
        let slots: Vec<usize> = (0..8).map(|_| limiter.register()).collect();
        let held = Arc::new(AtomicUsize::new(0));
        let worst = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = slots
            .into_iter()
            .map(|slot| {
                let limiter = Arc::clone(&limiter);
                let held = Arc::clone(&held);
                let worst = Arc::clone(&worst);
                std::thread::spawn(move || {
                    for round in 0..40 {
                        limiter.set_debt(slot, (slot + round) as f64);
                        let g = limiter.acquire_grant(Some(slot), &|| false).unwrap();
                        assert!(g.stage_tokens() >= 1);
                        let now = held.fetch_add(g.stage_tokens(), Ordering::SeqCst)
                            + g.stage_tokens();
                        worst.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        held.fetch_sub(g.stage_tokens(), Ordering::SeqCst);
                        limiter.release_grant(&g);
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

    #[test]
    fn slots_are_reused_after_unregister() {
        let limiter = CompactionLimiter::new(2);
        let a = limiter.register();
        let b = limiter.register();
        assert_ne!(a, b);
        limiter.unregister(a);
        assert_eq!(limiter.registered(), 1);
        let c = limiter.register();
        assert_eq!(c, a, "freed slot id is recycled");
        assert_eq!(limiter.debt(c), 0.0, "recycled slot starts clean");
    }
}
