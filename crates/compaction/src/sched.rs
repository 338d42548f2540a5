//! Resource grants: the per-compaction allowance a scheduler hands to an
//! executor.
//!
//! The scheduler side (the engine's `CompactionLimiter`) decides *how much*
//! pipeline width one compaction may use; this module defines the token it
//! hands over. A [`ResourceGrant`] travels inside the `CompactionRequest`,
//! so every executor can consult the same allowance:
//! [`ResourceGrant::stage_tokens`] caps how many parallel workers the
//! widest pipeline stage may run (C-PPCP compute workers, S-PPCP read
//! lanes).
//!
//! A default ([`ResourceGrant::unlimited`]) grant changes nothing: no
//! worker clamp. Standalone `Db`s without a scheduler run on it.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
