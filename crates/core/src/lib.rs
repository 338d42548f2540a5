//! # pcp-core
//!
//! The paper's contribution: **Pipelined Compaction for the LSM-tree**
//! (Zhang et al., IPDPS 2014), implemented as one drop-in
//! [`pcp_compaction::CompactionExec`] executor plus the supporting machinery.
//!
//! One compaction merges the key-value entries of a key range spanning two
//! adjacent components. The work decomposes into seven steps per unit of
//! data (Fig. 2):
//!
//! | step | name        | resource |
//! |------|-------------|----------|
//! | S1   | READ        | disk     |
//! | S2   | CHECKSUM    | CPU      |
//! | S3   | DECOMPRESS  | CPU      |
//! | S4   | SORT/MERGE  | CPU      |
//! | S5   | COMPRESS    | CPU      |
//! | S6   | RE-CHECKSUM | CPU      |
//! | S7   | WRITE       | disk     |
//!
//! * [`planner`] — partitions the compaction key range into disjoint
//!   sub-key ranges ("sub-tasks") of about one target's worth of blocks
//!   each, cut at user keys so no version chain is split, and groups them
//!   into the read units S1 fetches.
//! * [`steps`] — the seven steps as individually timed functions.
//! * [`pipeline`] — [`PipelinedExec`], the one compaction driver, whose
//!   shape is data: sequential (SCP, the baseline), a 3-stage
//!   read|compute|write pipeline of fixed widths (PCP, C-PPCP — k compute
//!   workers with a resequencer, the production default at the host's core
//!   count — and S-PPCP — k read lanes over RAID0).
//! * [`model`] — the closed-form bandwidth equations Eq. 1–7.
//! * [`profile`] — per-step time accounting used by the paper's breakdown
//!   figures (Fig. 5/8/9).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod model;
pub mod pipeline;
pub mod planner;
pub mod profile;
pub mod steps;

pub use model::{Bottleneck, StepTimes};
pub use pcp_sstable::SealedBlock;
pub use pipeline::{PipelineConfig, PipelinedExec, SealedWriter};
pub use planner::{check_plan, plan_subtasks, read_units, KeyRange, RunBlocks, SubTask};
pub use profile::{CompactionProfile, Occupancy, ProfileSnapshot, Step};
pub use steps::{compute_subtask, read_unit, ComputeConfig, ComputedSubTask, SubTaskData};
