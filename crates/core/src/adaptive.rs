//! The adaptive shape's width rule: how wide the compute stage of the next
//! compaction runs, from the occupancy the previous one published.
//!
//! The paper fixes the pipeline shape per experiment — plain PCP, C-PPCP
//! with k compute workers, or S-PPCP with k read lanes — and shows each
//! wins on a different device/workload point (Fig. 7–9). Pome ("Parallel-
//! izing I/Os and Computations for Efficient LSM-tree-based Data Storage",
//! PAPERS.md) argues the shape must be chosen *at runtime*, per
//! compaction, from resources that exist.
//! [`PipelinedExec::adaptive`](crate::PipelinedExec::adaptive) does that
//! with the signal the paper itself proposes: the per-resource
//! **occupancy** of the previous compaction (the Fig. 5 quantity, published
//! through [`crate::CompactionProfile::last_occupancy`]).
//!
//! Decision table (see DESIGN.md §15.1 for the rationale):
//!
//! | condition (checked in order)                   | choice (width)  |
//! |------------------------------------------------|-----------------|
//! | no occupancy history yet (first compaction)    | PCP (1)         |
//! | compute ≥ read, write and ≥ threshold, k > 1   | C-PPCP(k)       |
//! | otherwise                                      | PCP (1)         |
//!
//! where `k` is the smaller of the scheduler's stage-token grant and the
//! executor's worker bound, and the threshold is an occupancy of 0.7. The
//! read stage is never widened: S-PPCP needs k devices (Eq. 4–5), an `Env`
//! does not say how many it stripes over, and S-PPCP(k) on one spindle
//! measures as PCP (EXPERIMENTS.md "Adaptive executor ablation"). It stays
//! a shape to pin with [`PipelinedExec::s_ppcp`](crate::PipelinedExec::s_ppcp).

use crate::profile::Occupancy;

/// The compute stage's occupancy must reach this fraction before it is
/// widened, so the shape only changes when compute is clearly the
/// bottleneck.
const PARALLEL_THRESHOLD: f64 = 0.7;

/// Labels of the two choices: index 0 is a compute width of 1, index 1 any
/// wider one. Index-aligned with the executor's choice counters and with
/// the `adaptive_choice` trace event's `choice` field.
pub const CHOICE_LABELS: [&str; 2] = ["pcp", "c-ppcp"];

/// The width rule — a pure function of its inputs. `occ` is the previous
/// compaction's occupancy (zero `wall` when there is none), `stage_tokens`
/// the scheduler's grant for this compaction (`usize::MAX` when unlimited),
/// `max_workers` the executor's own bound.
pub fn compute_width(occ: &Occupancy, stage_tokens: usize, max_workers: usize) -> usize {
    let k = stage_tokens.min(max_workers).max(1);
    // No history yet: start with the paper's baseline pipeline and let its
    // occupancy steer the next pick.
    let compute_bound = !occ.wall.is_zero()
        && occ.compute >= occ.read
        && occ.compute >= occ.write
        && occ.compute >= PARALLEL_THRESHOLD;
    if compute_bound {
        k
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn occ(read: f64, compute: f64, write: f64) -> Occupancy {
        Occupancy { read, compute, write, wall: Duration::from_millis(100) }
    }

    #[test]
    fn first_compaction_defaults_to_pcp() {
        let none = Occupancy { wall: Duration::ZERO, ..occ(0.0, 0.95, 0.0) };
        assert_eq!(compute_width(&none, usize::MAX, 4), 1);
    }

    #[test]
    fn compute_bound_widens_to_c_ppcp() {
        assert_eq!(compute_width(&occ(0.4, 0.95, 0.3), usize::MAX, 4), 4);
    }

    #[test]
    fn balanced_or_write_bound_stays_pcp() {
        for (history, why) in [
            (occ(0.5, 0.5, 0.5), "no stage is clearly the bottleneck"),
            (occ(0.3, 0.4, 0.95), "a write bottleneck cannot be widened: S7 owns table rotation"),
            (occ(0.95, 0.4, 0.3), "a read bottleneck needs k devices, which an Env does not promise"),
        ] {
            assert_eq!(compute_width(&history, usize::MAX, 4), 1, "{why}");
        }
    }

    #[test]
    fn grant_caps_the_worker_count() {
        assert_eq!(compute_width(&occ(0.4, 0.95, 0.3), 2, 4), 2);
        // A single token means no parallel stage is possible at all.
        assert_eq!(compute_width(&occ(0.4, 0.95, 0.3), 1, 4), 1);
    }

    #[test]
    fn choice_is_deterministic_for_a_fixed_snapshot() {
        let snapshot = occ(0.2, 0.85, 0.4);
        for _ in 0..100 {
            assert_eq!(compute_width(&snapshot, 3, 4), 3);
        }
    }
}
