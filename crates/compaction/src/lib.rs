//! # pcp-compaction
//!
//! The compaction interface shared by the LSM engine (`pcp-lsm`) and the
//! paper's pipelined executors (`pcp-core`). Extracting it into its own
//! crate breaks the dependency cycle that would otherwise stop the engine
//! from *defaulting* to a pipelined executor: `pcp-core` implements
//! [`CompactionExec`] against this crate, and `pcp-lsm` consumes both.
//!
//! Contents:
//!
//! * [`CompactionExec`] / [`CompactionRequest`] — the executor contract.
//!   Every executor must produce **identical output tables** for the same
//!   input; the integration tests enforce this byte-for-byte.
//! * [`SimpleMergeExec`] — the entry-at-a-time reference implementation.
//! * [`OutputSink`] — the one table writer: every executor's size-rotated
//!   outputs and every flush's level-0 table (rotation off) go through it,
//!   handed to the [`TableCache`] as each one finishes, and discarded when
//!   the job fails.
//! * [`TableCache`] — the engine's open table readers, which a request's
//!   inputs come from and its outputs go into.
//! * [`VersionKeepFilter`] — LSM version-visibility rules (step S4's
//!   semantic half).
//! * [`FileMetadata`] — immutable description of one SSTable.
//! * [`filename`] — on-disk naming conventions.
//! * [`sched`] — the scheduler: [`CompactionLimiter`] admits compactions
//!   across databases and attaches a [`ResourceGrant`] (stage-worker
//!   tokens) to each, honored by the pipelined executors.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod filename;
pub mod sched;

mod exec;
mod meta;
mod sink;
mod table_cache;

pub use exec::{CompactionExec, CompactionRequest, SimpleMergeExec, VersionKeepFilter};
pub use meta::FileMetadata;
pub use sched::{CompactionLimiter, ResourceGrant};
pub use sink::OutputSink;
pub use table_cache::TableCache;
