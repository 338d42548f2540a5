//! Engine configuration: [`Options`] and the table-builder settings
//! derived from it.

use crate::version_set::CompactionPolicy;
use pcp_compaction::CompactionExec;
use pcp_sstable::{CompressionKind, TableBuilderOptions};
use std::sync::Arc;

/// Bloom-filter bits per key in every table the engine writes (LevelDB's
/// default; ≈ 1 % false positives).
const BLOOM_BITS_PER_KEY: usize = 10;

/// Engine configuration. Defaults mirror the paper's experimental setup.
#[derive(Clone)]
pub struct Options {
    /// Memtable threshold before rotation (paper: 4 MB).
    pub memtable_bytes: usize,
    /// Output SSTable rotation size (paper: 2 MB).
    pub sstable_bytes: u64,
    /// Data-block size (paper: 4 KB).
    pub block_bytes: usize,
    /// Compress data blocks (paper: snappy on).
    pub compression: bool,
    /// Compaction trigger thresholds. Level 0 at three times `l0_trigger`
    /// tables also stops a writer that needs a new memtable until
    /// compaction catches up, the only level-0 back-pressure.
    pub policy: CompactionPolicy,
    /// Sync the WAL on every write.
    pub sync_writes: bool,
    /// Decoded-block cache budget for the read path; 0 disables it (the
    /// paper's direct-I/O semantics — compaction always bypasses it).
    pub block_cache_bytes: usize,
    /// The compaction algorithm. Defaults to [`pcp_core::PipelinedExec`]'s
    /// C-PPCP as wide as the host has cores, each compaction narrowed to
    /// its scheduler grant; set this field to pin another shape (e.g.
    /// `PipelinedExec::pcp`, or `PipelinedExec::s_ppcp` over a striped
    /// env).
    pub executor: Arc<dyn CompactionExec>,
    /// Shared admission gate bounding how many databases compact at once
    /// and handing each admitted compaction an equal share of the
    /// stage-worker budget (see [`crate::CompactionLimiter`]). `None` means
    /// ungated and an unlimited grant. Flushes are never gated — delaying a
    /// flush turns directly into writer stalls.
    pub compaction_limiter: Option<Arc<crate::CompactionLimiter>>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 4 << 20,
            sstable_bytes: 2 << 20,
            block_bytes: 4096,
            compression: true,
            policy: CompactionPolicy::default(),
            sync_writes: false,
            block_cache_bytes: 0,
            executor: Arc::new(pcp_core::PipelinedExec::default()),
            compaction_limiter: None,
        }
    }
}

impl Options {
    pub(super) fn table_opts(&self) -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: self.block_bytes,
            restart_interval: 16,
            compression: if self.compression {
                CompressionKind::Lz
            } else {
                CompressionKind::None
            },
            bloom_bits_per_key: BLOOM_BITS_PER_KEY,
        }
    }
}
