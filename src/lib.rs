//! # pcp — Pipelined Compaction for the LSM-tree
//!
//! A full-system Rust reproduction of *"Pipelined Compaction for the
//! LSM-tree"* (Zhang, Yue, He, Xiong, Chen, Zhang, Sun — IEEE IPDPS 2014):
//! a LevelDB-class storage engine whose background compactions run as a
//! three-stage pipeline — **stage-read | stage-compute | stage-write** —
//! over independent sub-key ranges, plus the paper's parallel variants
//! (C-PPCP, S-PPCP), analytical model, and every experiment of its
//! evaluation section.
//!
//! ## Quick start
//!
//! ```
//! use pcp::lsm::{Db, Options};
//! use pcp::storage::{SimDevice, SimEnv};
//! use std::sync::Arc;
//!
//! // An in-memory simulated filesystem (swap in an HDD/SSD latency model
//! // or StdFsEnv for real files).
//! let env = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))));
//!
//! // The default executor is C-PPCP: a read | compute | write pipeline
//! // whose compute stage runs as many workers as the host has cores.
//! let db = Db::open(env, Options::default()).unwrap();
//! db.put(b"key", b"value").unwrap();
//! assert_eq!(db.get(b"key").unwrap(), Some(b"value".to_vec()));
//! ```
//!
//! To pin the paper's plain PCP shape instead (512 KB sub-tasks):
//!
//! ```
//! # use pcp::lsm::Options;
//! # use pcp::core::PipelinedExec;
//! # use std::sync::Arc;
//! let opts = Options {
//!     executor: Arc::new(PipelinedExec::pcp(512 << 10)),
//!     ..Default::default()
//! };
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`codec`] | `pcp-codec` | CRC-32C, LZ block compression, varints (steps S2/S3/S5/S6) |
//! | [`storage`] | `pcp-storage` | simulated HDD/SSD devices, RAID0, `Env` filesystems (steps S1/S7) |
//! | [`sstable`] | `pcp-sstable` | block/table formats, bloom filters, merging iterators |
//! | [`compaction`] | `pcp-compaction` | `CompactionExec` interface, resource grants, the cross-shard scheduler |
//! | [`lsm`] | `pcp-lsm` | memtable, WAL, versions, leveled compaction, the `Db` |
//! | [`core`] | `pcp-core` | **the paper's contribution**: sub-task planner, the one executor in its SCP/PCP/C-PPCP/S-PPCP shapes, Eq. 1–7, step profiler |
//! | [`sim`] | `pcp-sim` | discrete-event pipeline simulator |
//! | [`workload`] | `pcp-workload` | key/value generators and the insert driver |
//! | [`shard`] | `pcp-shard` | range-sharded multi-DB engine and the TCP KV service (one epoll event loop per core) |
//! | [`obs`] | `pcp-obs` | metrics registry, Prometheus exposition, pipeline event traces |
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use pcp_codec as codec;
pub use pcp_compaction as compaction;
pub use pcp_core as core;
pub use pcp_lsm as lsm;
pub use pcp_obs as obs;
pub use pcp_shard as shard;
pub use pcp_sim as sim;
pub use pcp_sstable as sstable;
pub use pcp_storage as storage;
pub use pcp_workload as workload;

/// Convenience prelude for applications.
pub mod prelude {
    pub use pcp_core::{PipelineConfig, PipelinedExec};
    pub use pcp_lsm::{CompactionLimiter, CompactionPolicy, Db, DbHealth, Options, WriteBatch};
    pub use pcp_obs::{MetricsSnapshot, Registry, TraceLog};
    pub use pcp_shard::{HashRouter, KvClient, KvServer, RangeRouter, ShardedDb, ShardedHealth};
    pub use pcp_storage::{
        Env, FaultEnv, FaultKind, FaultOp, HddModel, Raid0, SimDevice, SimEnv, SsdModel, StdFsEnv,
    };
    pub use pcp_workload::{run_inserts, KeyOrder, KvStore, WorkloadConfig};
}
