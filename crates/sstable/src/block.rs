//! Data/index block format with restart-point prefix compression.
//!
//! ```text
//! entry*   := varint(shared) varint(non_shared) varint(value_len)
//!             key_delta[non_shared] value[value_len]
//! restarts := u32le * num_restarts     (offsets of full-key entries)
//! trailer  := u32le num_restarts
//! ```
//!
//! Keys within a block share prefixes with their predecessor except at
//! *restart points*, where the full key is stored; binary search over the
//! restart array gives `O(log r + interval)` seeks.
//!
//! [`BlockCutter`] decides where a table's data blocks end; every table
//! writer cuts its blocks through it.

use crate::bloom::BloomFilter;
use crate::key::{internal_key_cmp, user_key};
use crate::{corruption, Result};
use bytes::Bytes;
use std::cmp::Ordering;

/// Builds one block. Keys must be added in strictly increasing
/// internal-key order (the builder only checks non-decreasing byte order
/// of full keys at restart boundaries in debug builds).
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    counter: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    /// Creates a builder with the given restart interval (LevelDB uses 16).
    pub fn new(restart_interval: usize) -> Self {
        assert!(restart_interval >= 1);
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval,
            counter: 0,
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Appends an entry. `key` must sort after every previously added key.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let shared = if self.counter < self.restart_interval {
            common_prefix(&self.last_key, key)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.counter = 0;
            0
        };
        let non_shared = key.len() - shared;
        pcp_codec::put_u32(&mut self.buf, shared as u32);
        pcp_codec::put_u32(&mut self.buf, non_shared as u32);
        pcp_codec::put_u32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.entries += 1;
    }

    /// Serialized size if finished now.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Key of the most recently added entry.
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Serializes the block and resets the builder for reuse.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        for &r in &self.restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.entries = 0;
        out
    }
}

/// One data block as step S4 leaves it: its uncompressed contents and what
/// the table's index and filter need of it.
#[derive(Debug, Clone)]
pub struct CutBlock {
    /// The finished block, not yet compressed.
    pub contents: Vec<u8>,
    pub first_key: Vec<u8>,
    pub last_key: Vec<u8>,
    pub entries: u64,
    /// Bloom hashes of the block's user keys.
    pub bloom_hashes: Vec<u64>,
}

/// The one place a data block ends. Entries go in, in internal-key order;
/// a block comes out with the entry that takes it to `block_size`, and the
/// partial block at [`BlockCutter::finish`].
pub struct BlockCutter {
    builder: BlockBuilder,
    block_size: usize,
    first_key: Vec<u8>,
    bloom_hashes: Vec<u64>,
}

impl BlockCutter {
    /// A cutter for blocks of `block_size` uncompressed bytes.
    pub fn new(block_size: usize, restart_interval: usize) -> Self {
        BlockCutter {
            builder: BlockBuilder::new(restart_interval),
            block_size,
            first_key: Vec::new(),
            bloom_hashes: Vec::new(),
        }
    }

    /// Adds an entry; returns the block it completes, if it completes one.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Option<CutBlock> {
        if self.builder.is_empty() {
            self.first_key = ikey.to_vec();
        }
        self.bloom_hashes
            .push(BloomFilter::hash_key(user_key(ikey)));
        self.builder.add(ikey, value);
        (self.builder.size_estimate() >= self.block_size).then(|| self.cut())
    }

    /// The partial block, if entries are pending.
    pub fn finish(&mut self) -> Option<CutBlock> {
        (!self.builder.is_empty()).then(|| self.cut())
    }

    fn cut(&mut self) -> CutBlock {
        let last_key = self.builder.last_key().to_vec();
        let entries = self.builder.entries() as u64;
        CutBlock {
            contents: self.builder.finish(),
            first_key: std::mem::take(&mut self.first_key),
            last_key,
            entries,
            bloom_hashes: std::mem::take(&mut self.bloom_hashes),
        }
    }

    /// Serialized size of the pending block if it were cut now.
    pub(crate) fn size_estimate(&self) -> usize {
        self.builder.size_estimate()
    }

    /// Key of the last pending entry; `None` when no entry is pending.
    pub(crate) fn last_key(&self) -> Option<&[u8]> {
        (!self.builder.is_empty()).then(|| self.builder.last_key())
    }
}

#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// An immutable, decoded block.
#[derive(Debug, Clone)]
pub struct Block {
    data: Bytes,
    /// Offset where the restart array begins.
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Wraps serialized block contents (uncompressed, trailer-free).
    pub fn new(data: Bytes) -> Result<Block> {
        if data.len() < 4 {
            return Err(corruption("block shorter than trailer"));
        }
        let n = pcp_codec::read_u32_le(&data, data.len() - 4)
            .ok_or_else(|| corruption("block shorter than trailer"))? as usize;
        let restarts_offset = data
            .len()
            .checked_sub(4 + n * 4)
            .ok_or_else(|| corruption("restart array overruns block"))?;
        if n == 0 {
            return Err(corruption("block with zero restarts"));
        }
        Ok(Block {
            data,
            restarts_offset,
            num_restarts: n,
        })
    }

    fn restart_point(&self, i: usize) -> usize {
        let off = self.restarts_offset + i * 4;
        // The restart array was bounds-validated in `new`; a read past the
        // end means a caller-side index bug, surfaced as restart offset 0.
        debug_assert!(off + 4 <= self.data.len(), "restart index out of range");
        pcp_codec::read_u32_le(&self.data, off).unwrap_or(0) as usize
    }

    /// Iterator over the block's entries, in internal-key order.
    pub fn iter(&self) -> BlockIter {
        BlockIter {
            block: self.clone(),
            offset: 0,
            key: Vec::new(),
            value_range: (0, 0),
            valid: false,
        }
    }

    /// The serialized contents (uncompressed, trailer-free).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Serialized length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.restarts_offset == 0
    }
}

/// Cursor over a [`Block`].
#[derive(Clone)]
pub struct BlockIter {
    block: Block,
    /// Offset of the *next* entry to decode.
    offset: usize,
    key: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl BlockIter {
    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current entry's key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// Current entry's value.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.block.data[self.value_range.0..self.value_range.1]
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        self.offset = 0;
        self.key.clear();
        self.valid = false;
        self.parse_next();
    }

    /// Advances to the next entry; invalidates at the end.
    pub fn next(&mut self) {
        debug_assert!(self.valid);
        self.parse_next();
    }

    /// Positions at the first entry with `key >= target` in internal-key
    /// order.
    pub fn seek(&mut self, target: &[u8]) {
        // Binary search restart points for the last full key < target.
        let (mut lo, mut hi) = (0usize, self.block.num_restarts - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let key = self.full_key_at_restart(mid);
            if internal_key_cmp(&key, target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.offset = self.block.restart_point(lo);
        self.key.clear();
        self.valid = false;
        loop {
            self.parse_next();
            if !self.valid || internal_key_cmp(&self.key, target) != Ordering::Less {
                return;
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "`BlockBuilder` starts every restart point with a full entry header, and \
                  blocks reach a cursor only after their checksum verified"
    )]
    fn full_key_at_restart(&self, i: usize) -> Vec<u8> {
        let mut off = self.block.restart_point(i);
        let data = &self.block.data[..self.block.restarts_offset];
        // shared is 0 at a restart point by construction.
        let (shared, n1) = pcp_codec::decode_u32(&data[off..]).expect("restart entry");
        debug_assert_eq!(shared, 0);
        off += n1;
        let (non_shared, n2) = pcp_codec::decode_u32(&data[off..]).expect("restart entry");
        off += n2;
        let (_vlen, n3) = pcp_codec::decode_u32(&data[off..]).expect("restart entry");
        off += n3;
        data[off..off + non_shared as usize].to_vec()
    }

    fn parse_next(&mut self) {
        let data = &self.block.data[..self.block.restarts_offset];
        if self.offset >= data.len() {
            self.valid = false;
            return;
        }
        let mut off = self.offset;
        let (shared, n1) = match pcp_codec::decode_u32(&data[off..]) {
            Ok(v) => v,
            Err(_) => {
                self.valid = false;
                return;
            }
        };
        off += n1;
        let (non_shared, n2) = match pcp_codec::decode_u32(&data[off..]) {
            Ok(v) => v,
            Err(_) => {
                self.valid = false;
                return;
            }
        };
        off += n2;
        let (vlen, n3) = match pcp_codec::decode_u32(&data[off..]) {
            Ok(v) => v,
            Err(_) => {
                self.valid = false;
                return;
            }
        };
        off += n3;
        let (shared, non_shared, vlen) = (shared as usize, non_shared as usize, vlen as usize);
        if shared > self.key.len() || off + non_shared + vlen > data.len() {
            self.valid = false;
            return;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&data[off..off + non_shared]);
        off += non_shared;
        self.value_range = (off, off + vlen);
        self.offset = off + vlen;
        self.valid = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{lookup_key, make_internal_key, ValueType, MAX_SEQUENCE};

    /// `user` at sequence 1.
    fn ik(user: &[u8]) -> Vec<u8> {
        make_internal_key(user, 1, ValueType::Value)
    }

    /// A seek target before every version of `user`.
    fn at(user: &[u8]) -> Vec<u8> {
        lookup_key(user, MAX_SEQUENCE)
    }

    fn build(entries: &[(&[u8], &[u8])]) -> Block {
        let mut b = BlockBuilder::new(4);
        for (k, v) in entries {
            b.add(k, v);
        }
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    fn collect(block: &Block) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut it = block.iter();
        let mut out = Vec::new();
        it.seek_to_first();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        out
    }

    #[test]
    fn roundtrip_preserves_order_and_content() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
            .map(|i| {
                (
                    ik(format!("key{:04}", i).as_bytes()),
                    format!("value{i}").into_bytes(),
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let block = build(&refs);
        assert_eq!(collect(&block), entries);
    }

    #[test]
    fn prefix_compression_shrinks_shared_keys() {
        let long_prefix = b"a-very-long-shared-prefix-";
        let mut with_prefix = BlockBuilder::new(16);
        let mut sizes = 0;
        for i in 0..64 {
            let k = [&long_prefix[..], format!("{i:04}").as_bytes()].concat();
            sizes += k.len() + 5;
            with_prefix.add(&k, b"v");
        }
        let encoded = with_prefix.finish();
        assert!(
            encoded.len() < sizes * 2 / 3,
            "prefix compression should save >1/3: {} vs {}",
            encoded.len(),
            sizes
        );
    }

    #[test]
    fn seek_finds_exact_and_successor() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| (ik(format!("k{:03}", i * 2).as_bytes()), vec![i as u8]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let block = build(&refs);
        let mut it = block.iter();

        it.seek(&at(b"k010"));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"k010");

        it.seek(&at(b"k011")); // between k010 and k012
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"k012");

        it.seek(&at(b"k000"));
        assert_eq!(user_key(it.key()), b"k000");

        it.seek(&at(b"zzz"));
        assert!(!it.valid(), "seek past end invalidates");
    }

    #[test]
    fn seek_to_first_on_single_entry() {
        let block = build(&[(ik(b"only").as_slice(), b"one".as_slice())]);
        let mut it = block.iter();
        it.seek_to_first();
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"only");
        assert_eq!(it.value(), b"one");
        it.next();
        assert!(!it.valid());
    }

    #[test]
    fn restart_interval_one_disables_sharing() {
        let mut b = BlockBuilder::new(1);
        b.add(&ik(b"aaaa1"), b"v");
        b.add(&ik(b"aaaa2"), b"v");
        let block = Block::new(Bytes::from(b.finish())).unwrap();
        assert_eq!(block.num_restarts, 2);
        let mut it = block.iter();
        it.seek(&at(b"aaaa2"));
        assert_eq!(user_key(it.key()), b"aaaa2");
    }

    #[test]
    fn empty_values_roundtrip() {
        let (a, b) = (ik(b"a"), ik(b"b"));
        let block = build(&[(a.as_slice(), b"".as_slice()), (&b, b"")]);
        let got = collect(&block);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(_, v)| v.is_empty()));
    }

    #[test]
    fn corrupt_trailer_is_rejected() {
        assert!(Block::new(Bytes::from_static(&[0, 0])).is_err());
        // num_restarts too large for the data.
        assert!(Block::new(Bytes::from_static(&[0xFF, 0xFF, 0xFF, 0x7F])).is_err());
        // zero restarts.
        assert!(Block::new(Bytes::from_static(&[0, 0, 0, 0])).is_err());
    }

    #[test]
    fn size_estimate_tracks_finish() {
        let mut b = BlockBuilder::new(8);
        for i in 0..20 {
            b.add(format!("key{i:02}").as_bytes(), b"value");
        }
        let est = b.size_estimate();
        let actual = b.finish().len();
        assert_eq!(est, actual);
    }

    #[test]
    fn builder_reuse_after_finish() {
        let mut b = BlockBuilder::new(4);
        b.add(&ik(b"x"), b"1");
        let first = b.finish();
        assert!(b.is_empty());
        b.add(&ik(b"y"), b"2");
        let second = b.finish();
        let b1 = Block::new(Bytes::from(first)).unwrap();
        let b2 = Block::new(Bytes::from(second)).unwrap();
        assert_eq!(collect(&b1), vec![(ik(b"x"), b"1".to_vec())]);
        assert_eq!(collect(&b2), vec![(ik(b"y"), b"2".to_vec())]);
    }

    #[test]
    fn seek_with_internal_key_comparator() {
        let mut b = BlockBuilder::new(4);
        // Same user key, sequences 9,5,2 (descending order = sorted order).
        for seq in [9u64, 5, 2] {
            b.add(&make_internal_key(b"k", seq, ValueType::Value), b"v");
        }
        let block = Block::new(Bytes::from(b.finish())).unwrap();
        let mut it = block.iter();
        // Seek to snapshot 6: should land on seq 5 (first with seq <= 6).
        it.seek(&make_internal_key(b"k", 6, ValueType::Value));
        assert!(it.valid());
        let p = crate::key::parse_internal_key(it.key()).unwrap();
        assert_eq!(p.sequence, 5);
    }

    /// A block ends with the entry that takes it to `block_size`, and
    /// carries that block's keys, count and bloom hashes; `finish` returns
    /// the remainder once, then nothing.
    #[test]
    fn cutter_ends_a_block_at_the_entry_that_fills_it() {
        let keys: Vec<Vec<u8>> = (0..10u64)
            .map(|i| make_internal_key(format!("k{i}").as_bytes(), i + 1, ValueType::Value))
            .collect();
        let mut cutter = BlockCutter::new(100, 4);
        let mut blocks = Vec::new();
        for k in &keys {
            let cut = cutter.add(k, &[b'v'; 20]);
            // The entry that completes a block leaves nothing pending.
            assert_eq!(
                cutter.last_key(),
                if cut.is_some() { None } else { Some(&k[..]) }
            );
            blocks.extend(cut);
        }
        blocks.extend(cutter.finish());
        assert!(cutter.finish().is_none());
        assert!(blocks.len() > 2);
        let mut next = 0;
        for (i, b) in blocks.iter().enumerate() {
            let n = b.entries as usize;
            let block = Block::new(Bytes::from(b.contents.clone())).unwrap();
            let got: Vec<Vec<u8>> = collect(&block).into_iter().map(|(k, _)| k).collect();
            assert_eq!(got, keys[next..next + n]);
            assert_eq!(
                (&b.first_key, &b.last_key),
                (&keys[next], &keys[next + n - 1])
            );
            assert_eq!(b.bloom_hashes.len(), n);
            // Every block but the last is the first to reach the size.
            let full = b.contents.len() >= 100;
            assert_eq!(full, i + 1 < blocks.len(), "block {i}");
            next += n;
        }
        assert_eq!(next, keys.len());
    }
}
