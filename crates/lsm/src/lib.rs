//! # pcp-lsm
//!
//! A LevelDB-class LSM-tree storage engine, built from scratch as the
//! substrate for the paper's pipelined compaction procedures.
//!
//! Architecture (paper Fig. 1(a)):
//!
//! * **C0** — [`memtable::Memtable`], an arena-style skiplist with a single
//!   writer and lock-free readers, fed through a checksummed
//!   [`wal::WalWriter`].
//! * **C1..Ck** — SSTables tracked by [`version::Version`] /
//!   [`version_set::VersionSet`], with level sizes bounded by an
//!   exponentially growing budget. Structural changes are version edits in
//!   a MANIFEST log.
//! * **Background maintenance** — a flush lane turns immutable memtables
//!   into L0 tables beside a compaction lane that runs compactions picked
//!   round-robin over key ranges. The merge
//!   itself is delegated to a [`CompactionExec`]: `pcp-core`'s
//!   executor in one of the paper's shapes (SCP/PCP/C-PPCP/S-PPCP, or PCP /
//!   C-PPCP chosen per compaction, the default).
//! * **Backpressure** — writers stall when level 0 outgrows compaction
//!   (at three times the compaction trigger), reproducing the *write
//!   pauses* that tie system throughput to compaction bandwidth (the
//!   paper's central coupling).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod db;
pub mod edit;
pub mod iter;
pub mod memtable;
pub mod repair;
pub mod version;
pub mod version_set;
pub mod wal;

// The compaction interface (executor trait, reference merge, file naming,
// the scheduler and its grants, the table cache a request reads from and
// writes into) lives in `pcp-compaction` so `pcp-core`'s executors can
// implement it without a dependency cycle.
pub use db::{
    BatchOp, Db, DbHealth, IntegrityReport, LevelCompaction, Metrics, MetricsSnapshot, Options,
    Snapshot, WriteBatch,
};
pub use edit::VersionEdit;
pub use iter::{DbIter, LevelIter};
pub use memtable::{Memtable, MemtableIter};
pub use pcp_compaction::{
    CompactionExec, CompactionLimiter, CompactionRequest, ResourceGrant, TableCache,
    VersionKeepFilter,
};
pub use repair::{repair, RepairReport};
pub use version::{FileMetadata, Version, NUM_LEVELS};
pub use version_set::{CompactionPick, CompactionPolicy, VersionSet};
pub use wal::{WalReader, WalWriter};
