//! # pcp-codec
//!
//! The computation substrate of the pipelined-compaction LSM-tree: every CPU
//! cycle the paper attributes to compaction steps S2 (CHECKSUM), S3
//! (DECOMPRESS), S5 (COMPRESS) and S6 (RE-CHECKSUM) is spent inside this
//! crate.
//!
//! Contents:
//!
//! * [`crc32c`](mod@crc32c) — CRC-32C (Castagnoli) in software using the slicing-by-8
//!   technique, plus the masked-CRC convention used in block trailers.
//! * [`lz`] — a from-scratch byte-oriented LZ77 compressor in the Snappy
//!   format class (varint length header, literal/copy tags, greedy hash-table
//!   matching). Compression is deliberately the most expensive computation
//!   step and decompression the cheapest, matching the paper's profile.
//! * [`varint`] — LEB128-style unsigned varints shared by the block format,
//!   the WAL and the manifest.
//! * [`le`] — bounds-checked little-endian integer reads shared by every
//!   wire format (WAL, SSTable trailers, service frames).
//!
//! All functions are pure and allocation-conscious: the hot paths take
//! `&mut Vec<u8>` outputs so buffers can be reused across pipeline stages.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod crc32c;
pub mod le;
pub mod lz;
pub mod varint;

pub use crc32c::{crc32c, mask_crc, unmask_crc, Crc32c};
pub use le::{read_u32_le, read_u64_le};
pub use lz::{compress, decompress, decompressed_len, max_compressed_len, LzError};
pub use varint::{
    decode_u32, decode_u64, encode_u32, encode_u64, encoded_len_u64, put_u32, put_u64, VarintError,
};
