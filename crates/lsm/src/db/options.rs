//! Engine configuration: [`Options`] and the table-builder and scan-path
//! settings derived from it.

use crate::compact::CompactionExec;
use crate::version_set::CompactionPolicy;
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
    /// Compaction trigger thresholds.
    pub policy: CompactionPolicy,
    /// L0 file count that slows writers by 1 ms each.
    pub l0_slowdown_files: usize,
    /// L0 file count that stops writers until compaction catches up.
    pub l0_stop_files: usize,
    /// Sync the WAL on every write.
    pub sync_writes: bool,
    /// Decoded-block cache budget for the read path; 0 disables it (the
    /// paper's direct-I/O semantics — compaction always bypasses it).
    pub block_cache_bytes: usize,
    /// Pipelined scan readahead: iterators that detect sequential access
    /// prefetch, verify and decompress blocks on a background stage (the
    /// paper's S1‖S3/S4 overlap applied to the read path). Random access
    /// is unaffected.
    pub readahead: bool,
    /// The compaction algorithm. Defaults to the adaptive shape of
    /// [`pcp_core::PipelinedExec`], which runs each compaction as PCP or
    /// C-PPCP(k) by the occupancy the previous one published; set this
    /// field to pin one shape (e.g. `PipelinedExec::pcp`, or
    /// `PipelinedExec::s_ppcp` over a striped env).
    pub executor: Arc<dyn CompactionExec>,
    /// Directory this database lives in, for constructors that build their
    /// own [`pcp_storage::StdFsEnv`] (e.g. a sharded engine stamping one
    /// subdirectory per shard). [`Db::open`](super::Db::open) itself takes
    /// an explicit env and treats this field as advisory.
    pub dir: Option<std::path::PathBuf>,
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
            l0_slowdown_files: 8,
            l0_stop_files: 12,
            sync_writes: false,
            block_cache_bytes: 0,
            readahead: true,
            executor: Arc::new(pcp_core::PipelinedExec::default()),
            dir: None,
            compaction_limiter: None,
        }
    }
}

impl Options {
    /// Default options rooted at `dir` (see [`Options::dir`]).
    pub fn with_dir(dir: impl Into<std::path::PathBuf>) -> Options {
        Options {
            dir: Some(dir.into()),
            ..Options::default()
        }
    }

    /// A copy of these options rebased into the subdirectory `name` of
    /// [`Options::dir`] — how a sharded engine stamps per-shard
    /// directories without hand-cloning every field.
    ///
    /// # Panics
    /// Panics if `dir` is unset.
    #[expect(clippy::expect_used, reason = "the documented `# Panics` contract")]
    pub fn in_subdir(&self, name: impl AsRef<std::path::Path>) -> Options {
        let base = self.dir.as_ref().expect("Options::dir is unset");
        Options {
            dir: Some(base.join(name)),
            ..self.clone()
        }
    }

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

    /// The scan-path context [`Db::open`] hands every table reader.
    pub(super) fn scan_context(&self) -> pcp_sstable::ScanContext {
        let mut ctx = pcp_sstable::ScanContext::default();
        ctx.opts.enabled = self.readahead;
        ctx
    }
}
