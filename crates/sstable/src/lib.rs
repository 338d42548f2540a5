//! # pcp-sstable
//!
//! The on-disk table format of the LSM-tree, following the layout in the
//! paper's Fig. 1(b): a sequence of data blocks holding sorted key-value
//! pairs, plus an index block recording the start key, end key and offset of
//! every data block, a bloom-filter block, and a fixed-size footer.
//!
//! Every data block is individually compressed ([`pcp_codec::lz`]) and
//! carries a masked CRC-32C trailer — these are the objects that flow
//! through the seven compaction steps (S1 read block, S2 verify CRC, S3
//! decompress, S4 merge, S5 compress, S6 re-CRC, S7 write block).
//!
//! Modules:
//!
//! * [`key`] — internal keys: user key + (sequence, type) trailer, ordered
//!   user-key-ascending then sequence-descending.
//! * [`block`] — block builder/reader with restart-point prefix
//!   compression, and [`BlockCutter`], the one rule for where a data block
//!   ends.
//! * [`readahead`] — scan readahead: a cursor reads each block-cache miss
//!   as one span of consecutive blocks, on the caller's thread, and a long
//!   scan books its next span on the device while it decodes the current.
//! * [`bloom`] — per-table bloom filter.
//! * [`table`] — [`TableBuilder`] / [`TableReader`]. A builder takes
//!   entries or sealed blocks, and appends both as sealed blocks; a reader
//!   serves keys, scans and the raw blocks compaction reads.
//! * [`iter`] — the [`KvIter`] trait and the merging iterator used by
//!   compaction step S4 and by scans.
//!
//! Errors are [`std::io::Error`]s: the device's, passed through with their
//! kind so the engine can tell a transient fault from a permanent one, or
//! the layer's own [`corruption`] (`ErrorKind::InvalidData`), which step S2
//! and every decoder return for bytes they cannot trust.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod block;
pub mod bloom;
pub mod cache;
pub mod iter;
pub mod key;
pub mod readahead;
pub mod table;

pub use block::{Block, BlockBuilder, BlockCutter, BlockIter, CutBlock};
pub use bloom::BloomFilter;
pub use cache::BlockCache;
pub use iter::{KvIter, MergingIter, VecIter};
pub use key::{
    append_internal_key, internal_key_cmp, parse_internal_key, InternalKey, ParsedKey,
    SequenceNumber, ValueType, MAX_SEQUENCE,
};
pub use readahead::ScanStats;
pub use table::{
    BlockHandle, CompressionKind, SealedBlock, TableBuilder, TableBuilderOptions, TableIter,
    TableMeta, TableReader, TableStats,
};

/// Result alias for table operations. The table layer's errors are the
/// device's [`std::io::Error`]s, kind intact, so the engine decides
/// whether to retry one from its kind alone; a table the layer cannot
/// decode is a [`corruption`].
pub type Result<T> = std::io::Result<T>;

/// A table the layer cannot decode — a failed checksum (step S2), an
/// unknown kind byte, a bad handle, a short read: `ErrorKind::InvalidData`,
/// never retried, with the message prefixed `corruption: `.
pub fn corruption(what: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corruption: {what}"),
    )
}

/// A copy of a cursor's stored status. `io::Error` is not `Clone`; the copy
/// keeps the kind and the message, which is all [`KvIter::status`] has to
/// report more than once.
pub fn copy_status(status: &Result<()>) -> Result<()> {
    match status {
        Ok(()) => Ok(()),
        Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
    }
}
