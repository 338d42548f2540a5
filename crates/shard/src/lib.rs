//! # pcp-shard
//!
//! The scale-out layer over `pcp-lsm`: a range-sharded multi-database
//! engine and a TCP KV service in front of it.
//!
//! The paper's central observation — disjoint sub-key ranges have no
//! data dependencies, so their compaction work parallelizes freely —
//! holds one level above a single tree: partition the keyspace into N
//! disjoint shards and N whole databases run their memtables, WALs,
//! flushes, and compaction pipelines in parallel. This crate supplies:
//!
//! * [`Router`] with [`HashRouter`] / [`RangeRouter`] placements,
//! * [`ShardedDb`] — cross-shard batches that are atomic w.r.t.
//!   snapshots, sequence-vector [`ShardSnapshot`]s, a merged cross-shard
//!   [`ShardedIter`], aggregated metrics/health/level summaries, and a
//!   shared [`pcp_lsm::CompactionLimiter`] capping concurrently
//!   compacting shards to the core count (the C-PPCP resource argument
//!   applied across shards),
//! * a length-prefixed, CRC-32C-checksummed binary protocol
//!   ([`proto`]) with GET/PUT/DELETE/BATCH/SCAN/METRICS,
//! * [`KvServer`] — a TCP service with graceful shutdown, per-op latency
//!   capture, and Prometheus text exposition of the full `pcp-obs`
//!   registry, served by the event-driven [`reactor`] (one epoll
//!   event loop per core running each request to completion, request
//!   pipelining, bounded output queues with read backpressure) — plus the
//!   blocking [`KvClient`] and its pipelined `send`/`recv` window for
//!   many in-flight ops per connection.

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod client;
pub mod proto;
pub mod reactor;
pub mod router;
pub mod server;
pub mod sharded;

pub use client::KvClient;
pub use proto::{BatchItem, Request, Response};
pub use reactor::{FrameDecoder, ReactorConfig};
pub use router::{HashRouter, RangeRouter, Router};
pub use server::KvServer;
pub use sharded::{ShardSnapshot, ShardedDb, ShardedHealth, ShardedIter};
