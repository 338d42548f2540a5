//! Runtime executor selection: pick the pipeline shape per compaction
//! from the occupancy the previous compaction published.
//!
//! The paper fixes the pipeline shape per experiment — plain PCP, C-PPCP
//! with k compute workers, or S-PPCP with k read lanes — and shows each
//! wins on a different device/workload point (Fig. 7–9). Pome ("Parallel-
//! izing I/Os and Computations for Efficient LSM-tree-based Data Storage",
//! PAPERS.md) argues the shape must be chosen *at runtime*, per
//! compaction. [`AdaptiveExec`] does exactly that, using the signal the
//! paper itself proposes: the per-resource **occupancy** of the previous
//! compaction (the Fig. 5 quantity, published by every executor through
//! [`CompactionProfile::last_occupancy`]).
//!
//! Decision table (see DESIGN.md §15 for the rationale):
//!
//! | condition (checked in order)                   | choice          |
//! |------------------------------------------------|-----------------|
//! | no occupancy history yet (first compaction)    | PCP             |
//! | compute ≥ read, write and ≥ threshold, k > 1   | C-PPCP(k)       |
//! | read ≥ write and ≥ threshold, k > 1            | S-PPCP(k)       |
//! | otherwise                                      | PCP             |
//!
//! where `k` is the smaller of the scheduler's stage-token grant and
//! [`AdaptiveConfig::max_workers`], and the threshold is an occupancy of
//! 0.7. All shapes share one [`CompactionProfile`], so the occupancy
//! history is continuous across shape switches and the selection is a pure
//! function of (occupancy, grant) — deterministic and unit-testable.

use crate::pipeline::{PipelineConfig, PipelinedExec};
use crate::profile::{CompactionProfile, Occupancy};
use pcp_compaction::{CompactionExec, CompactionRequest, FileMetadata};
use pcp_obs::TraceLog;
use pcp_sstable::Result as TableResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stage's occupancy must reach this fraction before the pipeline is
/// widened toward it (C-PPCP / S-PPCP instead of plain PCP), so the shape
/// only changes when a stage is clearly the bottleneck.
const PARALLEL_THRESHOLD: f64 = 0.7;

/// Bounded-queue capacity between the stages of every delegate pipeline.
const QUEUE_DEPTH: usize = 4;

/// Tuning knobs for [`AdaptiveExec`]. Defaults follow the paper's best
/// settings (512 KB sub-tasks, Fig. 11a).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sub-task size handed to the pipelined shapes.
    pub subtask_bytes: u64,
    /// Upper bound on parallel-stage workers regardless of the grant
    /// (defaults to the host's cores — the paper's C-PPCP argument).
    pub max_workers: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            subtask_bytes: 512 << 10,
            max_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// The pipeline shape [`AdaptiveExec::choose`] settled on for one
/// compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecChoice {
    /// Plain 3-stage pipeline (1 read lane, 1 compute worker).
    Pcp,
    /// k compute workers with a resequencer — compute-bound inputs.
    CPpcp(usize),
    /// k read lanes — read-bound inputs (RAID-style envs).
    SPpcp(usize),
}

impl ExecChoice {
    /// Stable label for metrics and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ExecChoice::Pcp => "pcp",
            ExecChoice::CPpcp(_) => "c-ppcp",
            ExecChoice::SPpcp(_) => "s-ppcp",
        }
    }

    fn index(&self) -> usize {
        match self {
            ExecChoice::Pcp => 0,
            ExecChoice::CPpcp(_) => 1,
            ExecChoice::SPpcp(_) => 2,
        }
    }
}

/// Labels of the three choices, index-aligned with the internal counters
/// and with the `adaptive_choice` trace event's `choice` field.
pub const CHOICE_LABELS: [&str; 3] = ["pcp", "c-ppcp", "s-ppcp"];

/// An executor that picks the pipeline shape per compaction from the
/// previous compaction's occupancy and the scheduler's stage-token grant —
/// the engine's production default.
///
/// Output equivalence is unaffected: every shape it delegates to produces
/// byte-identical tables for identical inputs (the repo-wide executor
/// invariant), so switching shapes between compactions is invisible to
/// correctness.
pub struct AdaptiveExec {
    cfg: AdaptiveConfig,
    /// One profile shared by every delegate shape, so occupancy history
    /// survives shape switches.
    profile: Arc<CompactionProfile>,
    trace: Option<Arc<TraceLog>>,
    /// Per-choice pick counts, indexed like [`CHOICE_LABELS`]. Behind an
    /// `Arc` so metric-scrape closures can hold them without holding the
    /// executor itself.
    choices: Arc<[AtomicU64; 3]>,
}

impl Default for AdaptiveExec {
    fn default() -> Self {
        AdaptiveExec::new(AdaptiveConfig::default())
    }
}

impl AdaptiveExec {
    /// Builds the executor with explicit tuning.
    pub fn new(cfg: AdaptiveConfig) -> AdaptiveExec {
        AdaptiveExec {
            cfg,
            profile: Arc::new(CompactionProfile::new()),
            trace: None,
            choices: Arc::default(),
        }
    }

    /// Attaches a trace log; every compaction emits an `adaptive_choice`
    /// event (plus the delegate's usual lifecycle events).
    pub fn with_trace(mut self, trace: Arc<TraceLog>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The shared step profile (all delegate shapes account into it).
    pub fn profile(&self) -> Arc<CompactionProfile> {
        Arc::clone(&self.profile)
    }

    /// The tuning in effect.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The pure selection function — deterministic in its inputs, used by
    /// [`AdaptiveExec::compact`] and tested directly. `stage_tokens` is
    /// the scheduler's grant for this compaction (`usize::MAX` when
    /// unlimited).
    pub fn choose(cfg: &AdaptiveConfig, occ: &Occupancy, stage_tokens: usize) -> ExecChoice {
        let k = stage_tokens.min(cfg.max_workers).max(1);
        if occ.wall.is_zero() {
            // No history yet: start with the paper's baseline pipeline and
            // let its occupancy steer the next pick.
            return ExecChoice::Pcp;
        }
        if k > 1
            && occ.compute >= occ.read
            && occ.compute >= occ.write
            && occ.compute >= PARALLEL_THRESHOLD
        {
            return ExecChoice::CPpcp(k);
        }
        if k > 1 && occ.read >= occ.write && occ.read >= PARALLEL_THRESHOLD {
            return ExecChoice::SPpcp(k);
        }
        ExecChoice::Pcp
    }

    /// Registers the shared profile (as `exec="adaptive"`) plus the
    /// `pcp_sched_executor_choice_total{choice=...}` counters. Also
    /// reachable through [`CompactionExec::register_metrics`] on the trait
    /// object, which is how engine-level code registers an executor it
    /// only knows as `Arc<dyn CompactionExec>`.
    pub fn register_metrics(&self, registry: &pcp_obs::Registry) {
        self.profile.register_metrics(registry, "adaptive");
        for (idx, label) in CHOICE_LABELS.iter().enumerate() {
            let counts = Arc::clone(&self.choices);
            registry.register_fn_counter(
                "pcp_sched_executor_choice_total",
                "compactions per pipeline shape picked by the adaptive executor",
                vec![("choice".to_string(), label.to_string())],
                move || counts[idx].load(Ordering::Relaxed),
            );
        }
    }

    /// Builds the delegate pipeline for one compaction, sharing this
    /// executor's profile and trace.
    fn pipelined(&self, read_workers: usize, compute_workers: usize) -> PipelinedExec {
        let exec = PipelinedExec::new(PipelineConfig {
            subtask_bytes: self.cfg.subtask_bytes,
            compute_workers,
            read_workers,
            queue_depth: QUEUE_DEPTH,
            deep_compute: false,
        })
        .with_profile(Arc::clone(&self.profile));
        match &self.trace {
            Some(t) => exec.with_trace(Arc::clone(t)),
            None => exec,
        }
    }
}

impl CompactionExec for AdaptiveExec {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn register_metrics(&self, registry: &pcp_obs::Registry) {
        AdaptiveExec::register_metrics(self, registry);
    }

    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
        let occ = self.profile.last_occupancy();
        let tokens = req.grant.stage_tokens();
        let choice = Self::choose(&self.cfg, &occ, tokens);
        self.choices[choice.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.record(
                "adaptive_choice",
                &[
                    ("choice", choice.index() as u64), // index into CHOICE_LABELS
                    ("input_bytes", req.input_bytes()),
                    (
                        "stage_tokens",
                        if tokens == usize::MAX { 0 } else { tokens as u64 },
                    ),
                    ("bottleneck_ppm", (occ.bottleneck() * 1e6) as u64),
                ],
            );
        }
        match choice {
            ExecChoice::Pcp => self.pipelined(1, 1).compact(req),
            ExecChoice::CPpcp(k) => self.pipelined(1, k).compact(req),
            ExecChoice::SPpcp(k) => self.pipelined(k, 1).compact(req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn occ(read: f64, compute: f64, write: f64) -> Occupancy {
        Occupancy {
            read,
            compute,
            write,
            wall: Duration::from_millis(100),
        }
    }

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            max_workers: 4,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn first_compaction_defaults_to_pcp() {
        let c = cfg();
        let none = Occupancy {
            read: 0.0,
            compute: 0.0,
            write: 0.0,
            wall: Duration::ZERO,
        };
        assert_eq!(
            AdaptiveExec::choose(&c, &none, usize::MAX),
            ExecChoice::Pcp
        );
    }

    #[test]
    fn compute_bound_widens_to_c_ppcp() {
        let c = cfg();
        assert_eq!(
            AdaptiveExec::choose(&c, &occ(0.4, 0.95, 0.3), usize::MAX),
            ExecChoice::CPpcp(4)
        );
    }

    #[test]
    fn read_bound_widens_to_s_ppcp() {
        let c = cfg();
        assert_eq!(
            AdaptiveExec::choose(&c, &occ(0.95, 0.4, 0.3), usize::MAX),
            ExecChoice::SPpcp(4)
        );
    }

    #[test]
    fn balanced_or_write_bound_stays_pcp() {
        let c = cfg();
        assert_eq!(
            AdaptiveExec::choose(&c, &occ(0.5, 0.5, 0.5), usize::MAX),
            ExecChoice::Pcp
        );
        assert_eq!(
            AdaptiveExec::choose(&c, &occ(0.3, 0.4, 0.95), usize::MAX),
            ExecChoice::Pcp,
            "a write bottleneck cannot be widened: S7 owns table rotation"
        );
    }

    #[test]
    fn grant_caps_the_worker_count() {
        let c = cfg();
        assert_eq!(
            AdaptiveExec::choose(&c, &occ(0.4, 0.95, 0.3), 2),
            ExecChoice::CPpcp(2)
        );
        // A single token means no parallel stage is possible at all.
        assert_eq!(
            AdaptiveExec::choose(&c, &occ(0.4, 0.95, 0.3), 1),
            ExecChoice::Pcp
        );
    }

    #[test]
    fn choice_is_deterministic_for_a_fixed_snapshot() {
        let c = cfg();
        let snapshot = occ(0.2, 0.85, 0.4);
        let first = AdaptiveExec::choose(&c, &snapshot, 3);
        for _ in 0..100 {
            assert_eq!(AdaptiveExec::choose(&c, &snapshot, 3), first);
        }
        assert_eq!(first, ExecChoice::CPpcp(3));
    }
}
