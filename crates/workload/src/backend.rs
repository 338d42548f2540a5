//! The storage backend the insert driver runs against.
//!
//! [`KvStore`] lifts the surface [`crate::run_inserts`] uses of
//! [`pcp_lsm::Db`] into a trait so the same load replays unchanged against
//! any engine — a single `Db` or a range-sharded multi-`Db` engine — and
//! its reports stay comparable across backends.

use pcp_lsm::{Db, MetricsSnapshot};
use std::io;

/// A key-value engine the insert driver can load.
///
/// `metrics` aggregates whatever the backend considers its engine
/// counters; a sharded backend reports the sum over its shards.
pub trait KvStore: Send + Sync {
    /// Inserts `key → value`.
    fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()>;

    /// Blocks until no background flush or compaction work remains.
    fn wait_idle(&self) -> io::Result<()>;

    /// Aggregated engine counters.
    fn metrics(&self) -> MetricsSnapshot;
}

impl KvStore for Db {
    fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        Db::put(self, key, value)
    }

    fn wait_idle(&self) -> io::Result<()> {
        Db::wait_idle(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Db::metrics(self)
    }
}
