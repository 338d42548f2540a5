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
//! * [`readahead`] — scan readahead: once a cursor runs sequentially, it
//!   reads its next blocks in one growing span on its own thread.
//! * [`bloom`] — per-table bloom filter.
//! * [`table`] — [`TableBuilder`] / [`TableReader`]. A builder takes
//!   entries or sealed blocks, and appends both as sealed blocks; a reader
//!   serves keys, scans and the raw blocks compaction reads.
//! * [`iter`] — the [`KvIter`] trait and the merging iterator used by
//!   compaction step S4 and by scans.

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

/// Errors from decoding table structures.
#[derive(Debug)]
pub enum TableError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// A block failed its CRC check (step S2 would reject it).
    Corruption(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Io(e) => write!(f, "io error: {e}"),
            TableError::Corruption(m) => write!(f, "corruption: {m}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}

/// Keeps the `ErrorKind` of an I/O failure — retry classification depends
/// on it surviving the executor and iterator boundaries.
impl From<TableError> for std::io::Error {
    fn from(e: TableError) -> Self {
        match e {
            TableError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        }
    }
}

/// `io::Error` is not `Clone`; the copy keeps its kind and message, which
/// is all an iterator's [`KvIter::status`] has to report more than once.
impl Clone for TableError {
    fn clone(&self) -> Self {
        match self {
            TableError::Io(e) => TableError::Io(std::io::Error::new(e.kind(), e.to_string())),
            TableError::Corruption(m) => TableError::Corruption(m.clone()),
        }
    }
}

/// Result alias for table operations.
pub type Result<T> = std::result::Result<T, TableError>;
