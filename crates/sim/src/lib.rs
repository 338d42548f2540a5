//! # pcp-sim
//!
//! A discrete-event simulator of the compaction pipeline.
//!
//! The host running this reproduction has two vCPUs, shared with the
//! writer and the engine's other threads, so wall-clock measurements
//! cannot show C-PPCP's scaling past two workers. This simulator fills
//! that gap (documented as a substitution in `DESIGN.md`): it schedules
//! sub-tasks over *modeled* resources — k read lanes, k compute
//! servers, write lanes, bounded inter-stage queues, an in-order write
//! stage — and reports makespan and per-stage utilization. Per-sub-task
//! stage costs come either from the paper-calibrated device models
//! ([`costs`]) or from real measured step times (`pcp-core`'s profiler),
//! so the simulated shapes track the real implementation.
//!
//! * [`tandem`] — the generic engine: FIFO tandem stages with multi-server
//!   stages, finite buffers (blocking-after-service), and optional
//!   in-order service (the write stage's resequencer).
//! * [`procedures`] — SCP / PCP / C-PPCP / S-PPCP mapped onto the engine.
//! * [`costs`] — sub-task cost synthesis from device models + measured
//!   compute rates.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod costs;
pub mod procedures;
pub mod tandem;

pub use costs::{CostParams, DeviceKind};
pub use procedures::{simulate, Procedure, SimReport, SubTaskCost};
pub use tandem::{simulate_tandem, StageSpec, TandemReport};
