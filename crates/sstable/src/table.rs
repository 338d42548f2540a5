//! SSTable builder and reader.
//!
//! On-disk layout (paper Fig. 1(b), LevelDB-style):
//!
//! ```text
//! [data block 0][trailer] … [data block n-1][trailer]
//! [bloom-filter block][trailer]
//! [index block][trailer]
//! [properties block][trailer]
//! [footer: filter/index/props handles + padding + magic]
//! ```
//!
//! Each block trailer is `[compression kind: u8][masked crc32c: u32le]`
//! over the (possibly compressed) payload plus kind byte. Those five bytes
//! are what compaction steps S2 (verify) and S6 (re-checksum) work on.
//!
//! Filter, index and properties sit back to back in front of the footer,
//! so [`TableMeta::read`] opens a table in two reads: the footer, then one
//! span over the three. A table this process wrote needs no read at all:
//! [`TableBuilder::finish`] returns the same [`TableMeta`] it just wrote —
//! with the decoded data blocks its writer asked it to keep, which
//! [`TableReader::new`] admits to the block cache.
//!
//! The *index block* maps each data block's **last** internal key to a
//! value of `BlockHandle ++ first_key ++ entry_count` — exactly the "start
//! key, end key and offset of each data block" the paper describes, which
//! is also what the compaction sub-task planner consumes.
//!
//! A data block is cut in one place, [`BlockCutter`], sealed (S5 compress,
//! S6 trailer) into a [`SealedBlock`], and appended by
//! [`TableBuilder::add_sealed_block`] — step S7, pure I/O.
//! [`TableBuilder::add`] runs the three for one entry; the compaction
//! pipeline runs them as separate, separately timed stages.

use crate::block::{Block, BlockBuilder, BlockCutter, BlockIter, CutBlock};
use crate::bloom::BloomFilter;
use crate::cache::BlockCache;
use crate::iter::KvIter;
use crate::key::user_key;
use crate::readahead::{Booked, ScanStats, Span, MAX_SPAN_BLOCKS};
use crate::{copy_status, corruption, Result};
use bytes::Bytes;
use pcp_codec::{lz, mask_crc, unmask_crc};
use pcp_storage::{RandomReadFile, ReadClass, WritableFile};
use std::sync::Arc;
use std::time::Instant;

/// Bytes appended after every block payload: kind byte + masked CRC.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Fixed footer size: three varint handles (≤ 60 bytes) padded, + magic.
pub const FOOTER_SIZE: usize = 68;

const TABLE_MAGIC: u64 = 0x7063_7074_626c_3134; // "pcptbl14"

/// How a block payload is encoded. Kind byte `2` belonged to a retired
/// encoding and is never reused (DESIGN.md §16.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionKind {
    /// Stored verbatim.
    None = 0,
    /// [`pcp_codec::lz`] compressed as one stream.
    Lz = 1,
}

impl CompressionKind {
    /// Decodes the trailer kind byte.
    pub fn from_u8(v: u8) -> Option<CompressionKind> {
        match v {
            0 => Some(CompressionKind::None),
            1 => Some(CompressionKind::Lz),
            _ => None,
        }
    }
}

/// Location of a block within the table file (size excludes the trailer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    pub offset: u64,
    pub size: u64,
}

impl BlockHandle {
    /// Appends the varint encoding to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        pcp_codec::put_u64(out, self.offset);
        pcp_codec::put_u64(out, self.size);
    }

    /// Decodes a handle, returning it and the bytes consumed.
    pub fn decode(input: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, n1) = pcp_codec::decode_u64(input)
            .map_err(|e| corruption(format!("bad handle: {e}")))?;
        let (size, n2) = pcp_codec::decode_u64(&input[n1..])
            .map_err(|e| corruption(format!("bad handle: {e}")))?;
        Ok((BlockHandle { offset, size }, n1 + n2))
    }

    /// File offset just past the block's trailer; `None` on overflow (a
    /// corrupt handle).
    pub(crate) fn stored_end(&self) -> Option<u64> {
        self.offset
            .checked_add(self.size)?
            .checked_add(BLOCK_TRAILER_SIZE as u64)
    }
}

/// Per-data-block metadata decoded from the index block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    pub handle: BlockHandle,
    /// First internal key in the block.
    pub first_key: Vec<u8>,
    /// Last internal key in the block (the index key itself).
    pub last_key: Vec<u8>,
    /// Number of entries in the block.
    pub entries: u64,
}

impl BlockMeta {
    /// On-disk size of payload + trailer. Saturates on a corrupt handle,
    /// which index decoding refuses.
    pub fn stored_size(&self) -> u64 {
        self.handle.size.saturating_add(BLOCK_TRAILER_SIZE as u64)
    }
}

/// Table construction knobs (paper defaults: 4 KB blocks, snappy-class
/// compression).
#[derive(Debug, Clone)]
pub struct TableBuilderOptions {
    /// Uncompressed data-block size threshold.
    pub block_size: usize,
    /// Restart interval for data blocks.
    pub restart_interval: usize,
    /// Payload compression.
    pub compression: CompressionKind,
    /// Bloom bits per key; 0 disables the filter.
    pub bloom_bits_per_key: usize,
}

impl Default for TableBuilderOptions {
    fn default() -> Self {
        TableBuilderOptions {
            block_size: 4096,
            restart_interval: 16,
            compression: CompressionKind::Lz,
            bloom_bits_per_key: 10,
        }
    }
}

/// Summary written into the properties block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Total entries across data blocks.
    pub entries: u64,
    /// Number of data blocks.
    pub data_blocks: u64,
    /// Uncompressed data bytes.
    pub raw_bytes: u64,
    /// Final file size (available after `finish`).
    pub file_size: u64,
}

/// What a [`TableReader`] holds besides its file: the decoded index block,
/// the bloom filter (if the table has one) and the stats.
/// [`TableBuilder::finish`] hands over the state it built; [`TableMeta::read`]
/// decodes the same state from a table's tail.
///
/// A builder's hand-off also carries the decoded data blocks its writer
/// kept (`(offset, block)`; see [`TableBuilder::keep_blocks`] and
/// [`CutBlock::contents`]), for [`TableReader::new`] to admit to the
/// block cache. A cold read carries none.
#[derive(Debug)]
pub struct TableMeta {
    index: Block,
    bloom: Option<BloomFilter>,
    stats: TableStats,
    blocks: Vec<(u64, Block)>,
}

impl TableMeta {
    /// The table's stats.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Data blocks carried for admission to the block cache.
    pub fn kept_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Reads and verifies a table's metadata in two reads: the footer, then
    /// the one span that holds filter ‖ index ‖ properties.
    pub fn read(file: &dyn RandomReadFile) -> Result<TableMeta> {
        let len = file.len();
        let footer_at = len
            .checked_sub(FOOTER_SIZE as u64)
            .ok_or_else(|| corruption("file shorter than footer"))?;
        let footer = file.read_at(footer_at, FOOTER_SIZE)?;
        if footer.len() != FOOTER_SIZE {
            return Err(corruption("short footer read"));
        }
        let magic = pcp_codec::read_u64_le(&footer, FOOTER_SIZE - 8)
            .ok_or_else(|| corruption("short footer read"))?;
        if magic != TABLE_MAGIC {
            return Err(corruption(format!("bad table magic {magic:#x}")));
        }
        let (filter_handle, n1) = BlockHandle::decode(&footer)?;
        let (index_handle, n2) = BlockHandle::decode(&footer[n1..])?;
        let (props_handle, _) = BlockHandle::decode(&footer[n1 + n2..])?;

        let has_filter = filter_handle.size > 0;
        let start = if has_filter { filter_handle.offset } else { index_handle.offset };
        let end = props_handle
            .stored_end()
            .filter(|&end| start <= end && end <= footer_at)
            .ok_or_else(|| corruption("metadata handles outside the table"))?;
        let tail = file.read_at(start, (end - start) as usize)?;
        if tail.len() as u64 != end - start {
            return Err(corruption("short metadata read"));
        }
        // Steps S2+S3 on one block of the span.
        let block = |h: BlockHandle| -> Result<Vec<u8>> {
            let raw = (h.offset.checked_sub(start))
                .zip(h.stored_end())
                .and_then(|(from, to)| tail.get(from as usize..(to - start) as usize))
                .ok_or_else(|| corruption("metadata block outside its span"))?;
            TableReader::decode_raw(raw)
        };

        let index = Block::new(Bytes::from(block(index_handle)?))?;
        let bloom = if has_filter {
            Some(
                BloomFilter::decode(&block(filter_handle)?)
                    .ok_or_else(|| corruption("undecodable bloom filter"))?,
            )
        } else {
            None
        };
        let props = block(props_handle)?;
        let prop = |at: usize| {
            pcp_codec::decode_u64(&props[at..])
                .map_err(|e| corruption(format!("props: {e}")))
        };
        let (entries, n1) = prop(0)?;
        let (data_blocks, n2) = prop(n1)?;
        let (raw_bytes, _) = prop(n1 + n2)?;
        let stats = TableStats { entries, data_blocks, raw_bytes, file_size: len };
        Ok(TableMeta { index, bloom, stats, blocks: Vec::new() })
    }
}

// ---------------------------------------------------------------------------
// Block sealing helpers: the individual compaction steps S5/S6 (build side)
// and S2/S3 (read side), exposed as free functions so the pipeline can
// execute — and time — them separately.
// ---------------------------------------------------------------------------

/// Step S5 (COMPRESS): encodes block contents per `kind`. Falls back to
/// `None` when compression does not shrink the payload (LevelDB behaviour).
pub fn compress_block(contents: &[u8], kind: CompressionKind) -> (Vec<u8>, CompressionKind) {
    match kind {
        CompressionKind::None => (contents.to_vec(), CompressionKind::None),
        CompressionKind::Lz => {
            let mut out = Vec::new();
            lz::compress(contents, &mut out);
            if out.len() < contents.len() {
                (out, CompressionKind::Lz)
            } else {
                (contents.to_vec(), CompressionKind::None)
            }
        }
    }
}

/// Step S6 (RE-CHECKSUM): builds the 5-byte trailer for a sealed payload.
pub fn make_trailer(payload: &[u8], kind: CompressionKind) -> [u8; BLOCK_TRAILER_SIZE] {
    let mut crc = pcp_codec::Crc32c::new();
    crc.update(payload);
    crc.update(&[kind as u8]);
    let masked = mask_crc(crc.finalize());
    let mut t = [0u8; BLOCK_TRAILER_SIZE];
    t[0] = kind as u8;
    t[1..5].copy_from_slice(&masked.to_le_bytes());
    t
}

/// Step S2 (CHECKSUM): verifies a raw block (payload ++ trailer), returning
/// the payload slice and its compression kind.
pub fn verify_block(raw: &[u8]) -> Result<(&[u8], CompressionKind)> {
    if raw.len() < BLOCK_TRAILER_SIZE {
        return Err(corruption("block shorter than trailer"));
    }
    let (payload, trailer) = raw.split_at(raw.len() - BLOCK_TRAILER_SIZE);
    let kind = CompressionKind::from_u8(trailer[0])
        .ok_or_else(|| corruption(format!("bad kind byte {}", trailer[0])))?;
    let stored = unmask_crc(
        pcp_codec::read_u32_le(trailer, 1)
            .ok_or_else(|| corruption("block trailer too short"))?,
    );
    let mut crc = pcp_codec::Crc32c::new();
    crc.update(payload);
    crc.update(&[kind as u8]);
    if crc.finalize() != stored {
        return Err(corruption("block checksum mismatch"));
    }
    Ok((payload, kind))
}

/// Step S3 (DECOMPRESS): restores block contents from a verified payload.
pub fn decompress_block(payload: &[u8], kind: CompressionKind) -> Result<Vec<u8>> {
    match kind {
        CompressionKind::None => Ok(payload.to_vec()),
        CompressionKind::Lz => {
            let mut out = Vec::new();
            lz::decompress(payload, &mut out)
                .map_err(|e| corruption(format!("decompress: {e}")))?;
            Ok(out)
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// One data block after steps S5/S6, ready for a pure-I/O append by
/// [`TableBuilder::add_sealed_block`].
#[derive(Debug, Clone)]
pub struct SealedBlock {
    /// payload ++ 5-byte trailer.
    pub raw: Vec<u8>,
    /// The block `raw` seals; its contents go to a builder that keeps its
    /// blocks ([`TableBuilder::keep_blocks`]).
    pub block: CutBlock,
}

/// Writes one SSTable to a [`WritableFile`].
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    opts: TableBuilderOptions,
    /// Cuts the blocks of [`TableBuilder::add`].
    cutter: BlockCutter,
    /// (last_key, encoded index value) per data block.
    index_entries: Vec<(Vec<u8>, Vec<u8>)>,
    bloom_hashes: Vec<u64>,
    offset: u64,
    stats: TableStats,
    finished: bool,
    /// Whether the data blocks are kept for the hand-off.
    keep_blocks: bool,
    /// Decoded data blocks kept for the hand-off, by offset.
    kept: Vec<(u64, Block)>,
}

impl TableBuilder {
    /// Starts a table at the beginning of `file`.
    pub fn new(file: Box<dyn WritableFile>, opts: TableBuilderOptions) -> Self {
        TableBuilder {
            file,
            cutter: BlockCutter::new(opts.block_size, opts.restart_interval),
            opts,
            index_entries: Vec::new(),
            bloom_hashes: Vec::new(),
            offset: 0,
            stats: TableStats::default(),
            finished: false,
            keep_blocks: false,
            kept: Vec::new(),
        }
    }

    /// Keeps every data block this builder writes — by
    /// [`TableBuilder::add`] or [`TableBuilder::add_sealed_block`] — decoded,
    /// in the [`TableMeta`] that `finish` returns, so the table enters the
    /// block cache as it is handed over.
    pub fn keep_blocks(mut self) -> Self {
        self.keep_blocks = true;
        self
    }

    /// Appends an entry. `ikey` must sort after all previous keys under
    /// [`internal_key_cmp`](crate::key::internal_key_cmp).
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(!self.finished);
        match self.cutter.add(ikey, value) {
            Some(block) => self.seal_and_add(block),
            None => Ok(()),
        }
    }

    /// Steps S5 and S6 on one cut block, then its append.
    fn seal_and_add(&mut self, block: CutBlock) -> Result<()> {
        let (mut raw, kind) = compress_block(&block.contents, self.opts.compression);
        let trailer = make_trailer(&raw, kind);
        raw.extend_from_slice(&trailer);
        self.add_sealed_block(SealedBlock { raw, block })
    }

    fn write_raw(&mut self, payload: &[u8], trailer: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: self.offset,
            size: payload.len() as u64,
        };
        self.file.append(payload)?;
        self.file.append(trailer)?;
        self.offset += (payload.len() + trailer.len()) as u64;
        Ok(handle)
    }

    /// Writes one filter, index or properties block with its trailer.
    fn write_meta_block(&mut self, payload: &[u8], kind: CompressionKind) -> Result<BlockHandle> {
        self.write_raw(payload, &make_trailer(payload, kind))
    }

    /// Appends a sealed data block — the one way a data block enters the
    /// table — and records its index entry, bloom hashes, stats and, for a
    /// builder that keeps its blocks, its contents.
    pub fn add_sealed_block(&mut self, sealed: SealedBlock) -> Result<()> {
        debug_assert!(!self.finished);
        debug_assert!(self.cutter.last_key().is_none(), "mixing add() and sealed blocks mid-block");
        let SealedBlock { raw, block } = sealed;
        let CutBlock { contents, first_key, last_key, entries, bloom_hashes } = block;
        debug_assert!(raw.len() >= BLOCK_TRAILER_SIZE);
        let payload_len = raw.len() - BLOCK_TRAILER_SIZE;
        let handle = self.write_raw(&raw[..payload_len], &raw[payload_len..])?;
        let mut value = Vec::with_capacity(first_key.len() + 24);
        handle.encode_to(&mut value);
        pcp_codec::put_u64(&mut value, first_key.len() as u64);
        value.extend_from_slice(&first_key);
        pcp_codec::put_u64(&mut value, entries);
        self.index_entries.push((last_key, value));
        self.bloom_hashes.extend_from_slice(&bloom_hashes);
        self.stats.data_blocks += 1;
        self.stats.entries += entries;
        self.stats.raw_bytes += contents.len() as u64;
        if self.keep_blocks {
            self.kept.push((handle.offset, Block::new(Bytes::from(contents))?));
        }
        Ok(())
    }

    /// Pushes buffered bytes to the device: one call = one step-S7 I/O.
    pub fn flush_io(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }

    /// Estimated final file size if finished now.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.cutter.size_estimate() as u64
    }

    /// Last internal key added (empty before any add).
    pub fn last_key(&self) -> &[u8] {
        self.cutter
            .last_key()
            .or_else(|| self.index_entries.last().map(|(k, _)| k.as_slice()))
            .unwrap_or(&[])
    }

    /// Completes the table: writes filter, index, properties and footer,
    /// then syncs the file. Returns the reader-side state it wrote, so the
    /// table opens without reading any of it back.
    pub fn finish(mut self) -> Result<TableMeta> {
        if let Some(block) = self.cutter.finish() {
            self.seal_and_add(block)?;
        }
        self.finished = true;

        // Bloom-filter block.
        let bloom = (self.opts.bloom_bits_per_key > 0).then(|| {
            BloomFilter::build_from_hashes(&self.bloom_hashes, self.opts.bloom_bits_per_key)
        });
        let filter_handle = match &bloom {
            Some(filter) => self.write_meta_block(&filter.encode(), CompressionKind::None)?,
            None => BlockHandle { offset: 0, size: 0 },
        };

        // Index block (restart interval 1: every entry is a restart point).
        let mut ib = BlockBuilder::new(1);
        for (k, v) in &self.index_entries {
            ib.add(k, v);
        }
        let contents = ib.finish();
        let (payload, kind) = compress_block(&contents, self.opts.compression);
        let index_handle = self.write_meta_block(&payload, kind)?;

        // Properties block.
        let mut props = Vec::new();
        pcp_codec::put_u64(&mut props, self.stats.entries);
        pcp_codec::put_u64(&mut props, self.stats.data_blocks);
        pcp_codec::put_u64(&mut props, self.stats.raw_bytes);
        let props_handle = self.write_meta_block(&props, CompressionKind::None)?;

        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        filter_handle.encode_to(&mut footer);
        index_handle.encode_to(&mut footer);
        props_handle.encode_to(&mut footer);
        assert!(footer.len() <= FOOTER_SIZE - 8, "footer handles overflow");
        footer.resize(FOOTER_SIZE - 8, 0);
        footer.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        self.file.append(&footer)?;
        self.offset += FOOTER_SIZE as u64;
        self.file.sync()?;

        self.stats.file_size = self.offset;
        Ok(TableMeta {
            index: Block::new(Bytes::from(contents))?,
            bloom,
            stats: self.stats,
            blocks: self.kept,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Read-side handle to one immutable SSTable.
pub struct TableReader {
    file: Arc<dyn RandomReadFile>,
    index: Block,
    bloom: Option<BloomFilter>,
    stats: TableStats,
    /// Optional decoded-block cache and this table's namespace in it.
    cache: Option<(Arc<BlockCache>, u64)>,
    /// Scan-path counters (shared database-wide by the LSM).
    scan: Arc<ScanStats>,
}

impl std::fmt::Debug for TableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableReader")
            .field("stats", &self.stats)
            .finish()
    }
}

impl TableReader {
    /// The reader of `file`, whose metadata is `meta` — from
    /// [`TableBuilder::finish`] for a table just written, from
    /// [`TableMeta::read`] otherwise. Data blocks are read through `cache`
    /// when one is given (the compaction path's raw-span reads always
    /// bypass it — direct I/O), and the blocks `meta` carries are admitted
    /// to it now; `scan` is the scan-path stats sink (the LSM passes one
    /// for the whole database).
    pub fn new(
        file: Arc<dyn RandomReadFile>,
        meta: TableMeta,
        cache: Option<Arc<BlockCache>>,
        scan: Arc<ScanStats>,
    ) -> TableReader {
        let TableMeta { index, bloom, stats, blocks } = meta;
        let cache = cache.map(|c| {
            let id = c.new_id();
            for (offset, block) in blocks {
                c.insert(id, offset, block);
            }
            (c, id)
        });
        TableReader { file, index, bloom, stats, cache, scan }
    }

    /// Cold open: [`TableMeta::read`] then [`TableReader::new`], with no
    /// block cache.
    pub fn open(file: Arc<dyn RandomReadFile>) -> Result<TableReader> {
        let meta = TableMeta::read(&*file)?;
        Ok(Self::new(file, meta, None, Arc::default()))
    }

    /// Steps S2+S3 on one raw block: verifies the trailer and restores the
    /// contents.
    pub(crate) fn decode_raw(raw: &[u8]) -> Result<Vec<u8>> {
        let (payload, kind) = verify_block(raw)?;
        decompress_block(payload, kind)
    }

    /// Table statistics from the properties block.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Step S1 (READ): fetches one raw block (payload ++ trailer) without
    /// verification or decompression.
    pub fn read_raw_block(&self, handle: BlockHandle) -> Result<Bytes> {
        self.read_raw_span(handle, handle)
    }

    /// Step S1 at sub-task granularity: fetches the contiguous byte span
    /// covering blocks `first..=last` (payloads and trailers) in **one**
    /// device read — the paper sizes compaction I/O by sub-task, not by
    /// block. Slice individual raw blocks out with [`BlockHandle`] offsets
    /// relative to `first.offset`.
    pub fn read_raw_span(&self, first: BlockHandle, last: BlockHandle) -> Result<Bytes> {
        let len = Self::span_len(first, last)?;
        let raw = self
            .file
            .read_at_class(first.offset, len, ReadClass::Foreground)?;
        Self::check_len(raw, len)
    }

    /// A scan's [`read_raw_span`](TableReader::read_raw_span): tagged
    /// [`ReadClass::Readahead`] and booked on the device without waiting
    /// for it — the raw bytes and the instant the read completes.
    pub(crate) fn submit_raw_span(
        &self,
        first: BlockHandle,
        last: BlockHandle,
    ) -> Result<(Bytes, Instant)> {
        let len = Self::span_len(first, last)?;
        let (raw, ready) = self
            .file
            .submit_read_class(first.offset, len, ReadClass::Readahead)?;
        Ok((Self::check_len(raw, len)?, ready))
    }

    /// Bytes from `first`'s offset to the end of `last`'s trailer.
    fn span_len(first: BlockHandle, last: BlockHandle) -> Result<usize> {
        last.stored_end()
            .and_then(|end| end.checked_sub(first.offset))
            .and_then(|len| usize::try_from(len).ok())
            .ok_or_else(|| corruption("block span ends before it starts"))
    }

    fn check_len(raw: Bytes, len: usize) -> Result<Bytes> {
        if raw.len() != len {
            return Err(corruption("short block read"));
        }
        Ok(raw)
    }

    /// This reader's namespace in its block cache, if it has one.
    pub fn cache_id(&self) -> Option<u64> {
        self.cache.as_ref().map(|(_, id)| *id)
    }

    /// The block at `handle`, if the attached block cache holds it.
    fn cached(&self, handle: BlockHandle) -> Option<Block> {
        let (cache, id) = self.cache.as_ref()?;
        cache.get(*id, handle.offset)
    }

    /// Steps S2+S3 on the raw block at `handle`, then admission to the
    /// attached block cache, if any.
    fn decode_block(&self, handle: BlockHandle, raw: &[u8]) -> Result<Block> {
        let block = Block::new(Bytes::from(Self::decode_raw(raw)?))?;
        if let Some((cache, id)) = &self.cache {
            cache.insert(*id, handle.offset, block.clone());
        }
        Ok(block)
    }

    /// Loads one data block on the calling thread, as a point lookup does:
    /// from the block cache when one is attached and holds it, else with one
    /// read (S1+S2+S3 and admission), counted as a sync block.
    pub fn read_block(&self, handle: BlockHandle) -> Result<Block> {
        if let Some(block) = self.cached(handle) {
            return Ok(block);
        }
        let block = self.decode_block(handle, &self.read_raw_block(handle)?)?;
        self.scan.add_sync_block();
        Ok(block)
    }

    /// Decodes the index into per-block metadata, in key order.
    pub fn block_metas(&self) -> Result<Vec<BlockMeta>> {
        let mut out = Vec::with_capacity(self.stats.data_blocks as usize);
        let mut it = self.index.iter();
        it.seek_to_first();
        while it.valid() {
            out.push(Self::decode_index_value(it.key(), it.value())?);
            it.next();
        }
        Ok(out)
    }

    fn decode_index_value(last_key: &[u8], value: &[u8]) -> Result<BlockMeta> {
        let corrupt = |what: &str| corruption(format!("index value: {what}"));
        let (handle, n) = BlockHandle::decode(value)?;
        handle
            .stored_end()
            .ok_or_else(|| corrupt("block handle overflows"))?;
        let (fk_len, m) =
            pcp_codec::decode_u64(&value[n..]).map_err(|e| corrupt(&e.to_string()))?;
        let fk_start = n + m;
        let fk_end = usize::try_from(fk_len)
            .ok()
            .and_then(|len| fk_start.checked_add(len))
            .filter(|&end| end <= value.len())
            .ok_or_else(|| corrupt("first key overruns"))?;
        let (entries, _) =
            pcp_codec::decode_u64(&value[fk_end..]).map_err(|e| corrupt(&e.to_string()))?;
        Ok(BlockMeta {
            handle,
            first_key: value[fk_start..fk_end].to_vec(),
            last_key: last_key.to_vec(),
            entries,
        })
    }

    /// Point lookup: returns the first entry with internal key `>= target`
    /// that lives in the block the index points at, or `None`. The caller
    /// (the LSM read path) checks the user key and sequence visibility.
    pub fn get(&self, target: &[u8]) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(user_key(target)) {
                return Ok(None);
            }
        }
        let mut idx = self.index.iter();
        idx.seek(target);
        if !idx.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode(idx.value())?;
        let mut bit = self.read_block(handle)?.iter();
        bit.seek(target);
        Ok(bit
            .valid()
            .then(|| (bit.key().to_vec(), bit.value().to_vec())))
    }

    /// Whole-table cursor: its spans start at [`MAX_SPAN_BLOCKS`].
    pub fn iter(self: &Arc<Self>) -> TableIter {
        self.iter_with_span(MAX_SPAN_BLOCKS)
    }

    /// Cursor whose first span after each seek is `first_span` blocks (at
    /// least 1, at most [`MAX_SPAN_BLOCKS`]): the length of the run this
    /// table belongs to ([`crate::readahead::first_span_blocks`]).
    pub fn iter_with_span(self: &Arc<Self>, first_span: usize) -> TableIter {
        let first_span = first_span.clamp(1, MAX_SPAN_BLOCKS);
        TableIter {
            reader: Arc::clone(self),
            index_iter: self.index.iter(),
            block_iter: None,
            status: Ok(()),
            span: None,
            booked: None,
            ahead: None,
            first_span,
            span_blocks: first_span,
            book_in: 1,
        }
    }
}

/// Two-level cursor: index block → data block. Every block-cache miss
/// reads a span on the cursor's own thread, and a continuing cursor books
/// the span after it (`readahead.rs`); a seek drops both spans and
/// restarts the span length.
pub struct TableIter {
    reader: Arc<TableReader>,
    index_iter: BlockIter,
    /// Cursor in the current data block; `None` at the end of the table
    /// and after a failed load.
    block_iter: Option<BlockIter>,
    /// Why the cursor stopped short of the table's end, until the next seek.
    status: Result<()>,
    /// Raw blocks read ahead of the cursor by the span it is in.
    span: Option<Span>,
    /// The span after `span`, booked on the device before the cursor
    /// needs it.
    booked: Option<Booked>,
    /// Index cursor on the first block after the newest span; `None` when
    /// that span reached the table's end.
    ahead: Option<BlockIter>,
    /// Blocks the first span after a seek asks for.
    first_span: usize,
    /// Blocks the next span read asks for.
    span_blocks: usize,
    /// Spans the cursor still enters before it books the next one as it
    /// enters a span: 1 after `seek_to_first`, 2 after `seek`, so a short
    /// positioned scan books nothing it will not read.
    book_in: usize,
}

impl TableIter {
    /// Clears the error, drops both spans — their unread blocks counted as
    /// wasted — and restarts the span length (called on seeks); the cursor
    /// books ahead from its `book_in`-th span on.
    fn reset(&mut self, book_in: usize) {
        self.status = Ok(());
        self.span = None;
        self.booked = None;
        self.ahead = None;
        self.span_blocks = self.first_span;
        self.book_in = book_in;
    }

    /// Books the span of `span_blocks` blocks that starts at the block `at`
    /// points at — one device read, not waited for — and doubles the next
    /// span's length. Leaves `ahead` on the block after the span.
    fn submit_span(&mut self, mut at: BlockIter) -> Result<Booked> {
        let first = BlockHandle::decode(at.value())?.0;
        let (mut last, mut blocks) = (first, 1);
        at.next();
        while blocks < self.span_blocks && at.valid() {
            last = BlockHandle::decode(at.value())?.0;
            blocks += 1;
            at.next();
        }
        self.span_blocks = self.span_blocks.saturating_mul(2);
        self.ahead = at.valid().then_some(at);
        let range = first.offset..last.stored_end().unwrap_or(u64::MAX);
        let read = (self.reader.submit_raw_span(first, last))
            .map(|(raw, ready)| Span::new(first.offset, raw, blocks, ready, &self.reader.scan));
        Ok(Booked { range, read })
    }

    /// Makes the span that holds `handle` — the booked one when it covers
    /// `handle`, else a new one read from the index cursor — the current
    /// span; a continuing cursor then books the span after it.
    fn enter_span(&mut self, handle: BlockHandle) -> Result<()> {
        let booked = self
            .booked
            .take()
            .filter(|b| b.range.contains(&handle.offset));
        let Booked { read, .. } = match booked {
            Some(booked) => booked,
            None => self.submit_span(self.index_iter.clone())?,
        };
        self.span = Some(read?);
        self.book_in = self.book_in.saturating_sub(1);
        if self.book_in == 0 {
            // A handle that does not decode books nothing: the cursor meets
            // the same error when it reaches that block.
            if let Some(at) = self.ahead.take() {
                self.booked = self.submit_span(at).ok();
            }
        }
        Ok(())
    }

    /// Loads the block the index cursor points at (`None` past its end):
    /// from the block cache, else from the current span, else from the next.
    fn load_block(&mut self) -> Result<Option<Block>> {
        if !self.index_iter.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode(self.index_iter.value())?;
        if let Some(block) = self.reader.cached(handle) {
            return Ok(Some(block));
        }
        let raw = match self.span.as_mut().and_then(|span| span.take(handle)) {
            Some(raw) => raw,
            None => {
                self.enter_span(handle)?;
                (self.span.as_mut().and_then(|span| span.take(handle)))
                    .ok_or_else(|| corruption("block outside its span"))?
            }
        };
        self.reader.decode_block(handle, &raw).map(Some)
    }

    /// Enters the block the index cursor points at and positions the block
    /// cursor with `position`. The block load is the only fallible step of
    /// the cursor: when it fails the iterator is `!valid()` with the error
    /// in `status` — it does not carry on with the next block, which would
    /// silently drop this block's keys.
    fn enter_block(&mut self, position: impl FnOnce(&mut BlockIter)) {
        self.block_iter = match self.load_block() {
            Ok(block) => block.map(|b| {
                let mut it = b.iter();
                position(&mut it);
                it
            }),
            Err(e) => {
                self.status = Err(e);
                None
            }
        };
    }

    /// Advances past exhausted blocks.
    fn skip_forward(&mut self) {
        while !self.valid() && self.status.is_ok() && self.index_iter.valid() {
            self.index_iter.next();
            self.enter_block(BlockIter::seek_to_first);
        }
    }
}

impl KvIter for TableIter {
    fn valid(&self) -> bool {
        self.block_iter.as_ref().is_some_and(|it| it.valid())
    }

    fn seek_to_first(&mut self) {
        self.reset(1);
        self.index_iter.seek_to_first();
        self.enter_block(BlockIter::seek_to_first);
        self.skip_forward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.reset(2);
        self.index_iter.seek(target);
        self.enter_block(|it| it.seek(target));
        self.skip_forward();
    }

    fn next(&mut self) {
        if let Some(it) = &mut self.block_iter {
            it.next();
        }
        self.skip_forward();
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the key only when `valid()`, which implies a block iterator"
    )]
    fn key(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid iterator").key()
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the value only when `valid()`, which implies a block iterator"
    )]
    fn value(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid iterator").value()
    }

    fn status(&self) -> Result<()> {
        copy_status(&self.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{internal_key_cmp, make_internal_key, ValueType};
    use pcp_storage::{Env, SimDevice, SimEnv};
    use std::io;
    use std::sync::mpsc::{self, Receiver};

    fn test_env() -> SimEnv {
        SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))
    }

    /// The `n` entries `build_table` writes, in order: mildly compressible
    /// values.
    fn model(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let ikey = make_internal_key(
                    format!("key{i:08}").as_bytes(),
                    i as u64 + 1,
                    ValueType::Value,
                );
                (
                    ikey,
                    format!("value-{i:08}-{}", "x".repeat(80)).into_bytes(),
                )
            })
            .collect()
    }

    fn build_table(
        env: &SimEnv,
        name: &str,
        n: usize,
        opts: TableBuilderOptions,
    ) -> Arc<TableReader> {
        let file = env.create(name).unwrap();
        let mut b = TableBuilder::new(file, opts);
        for (ikey, value) in model(n) {
            b.add(&ikey, &value).unwrap();
        }
        assert_eq!(b.finish().unwrap().stats().entries, n as u64);
        let file = env.open(name).unwrap();
        Arc::new(TableReader::open(file).unwrap())
    }

    #[test]
    fn build_and_scan_roundtrip() {
        let env = test_env();
        let n = 5000;
        let reader = build_table(&env, "t.sst", n, TableBuilderOptions::default());
        assert_eq!(reader.stats().entries, n as u64);
        assert!(reader.stats().data_blocks > 1);

        let mut it = reader.iter();
        it.seek_to_first();
        let mut count = 0usize;
        let mut prev: Option<Vec<u8>> = None;
        while it.valid() {
            if let Some(p) = &prev {
                assert!(
                    internal_key_cmp(p, it.key()) == std::cmp::Ordering::Less,
                    "keys must be strictly increasing"
                );
            }
            prev = Some(it.key().to_vec());
            count += 1;
            it.next();
        }
        assert_eq!(count, n);
        assert!(it.status().is_ok());
    }

    #[test]
    fn point_get_hits_and_misses() {
        let env = test_env();
        let reader = build_table(&env, "t.sst", 1000, TableBuilderOptions::default());
        // Hit: lookup key at max sequence finds the entry.
        let target = make_internal_key(b"key00000500", u64::MAX >> 8, ValueType::Value);
        let (k, v) = reader.get(&target).unwrap().expect("hit");
        assert_eq!(user_key(&k), b"key00000500");
        assert!(v.starts_with(b"value-00000500"));
        // Miss: absent user key (bloom or block search rejects).
        let target = make_internal_key(b"nope", u64::MAX >> 8, ValueType::Value);
        let got = reader.get(&target).unwrap();
        if let Some((k, _)) = got {
            assert_ne!(user_key(&k), b"nope");
        }
    }

    #[test]
    fn seek_positions_across_blocks() {
        let env = test_env();
        let reader = build_table(&env, "t.sst", 2000, TableBuilderOptions::default());
        let mut it = reader.iter();
        let target = make_internal_key(b"key00001234", u64::MAX >> 8, ValueType::Value);
        it.seek(&target);
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key00001234");
        // Seek between keys lands on the successor.
        let target = make_internal_key(b"key00001234a", u64::MAX >> 8, ValueType::Value);
        it.seek(&target);
        assert_eq!(user_key(it.key()), b"key00001235");
        // Seek past the end invalidates.
        let target = make_internal_key(b"zzz", u64::MAX >> 8, ValueType::Value);
        it.seek(&target);
        assert!(!it.valid());
    }

    #[test]
    fn block_metas_cover_whole_key_range_in_order() {
        let env = test_env();
        let n = 3000;
        let reader = build_table(&env, "t.sst", n, TableBuilderOptions::default());
        let metas = reader.block_metas().unwrap();
        assert_eq!(metas.len() as u64, reader.stats().data_blocks);
        let total: u64 = metas.iter().map(|m| m.entries).sum();
        assert_eq!(total, n as u64);
        for w in metas.windows(2) {
            assert!(
                internal_key_cmp(&w[0].last_key, &w[1].first_key)
                    == std::cmp::Ordering::Less,
                "blocks must be disjoint and ordered"
            );
        }
        assert_eq!(user_key(&metas[0].first_key), b"key00000000");
        assert_eq!(
            user_key(&metas.last().unwrap().last_key),
            format!("key{:08}", n - 1).as_bytes()
        );
    }

    #[test]
    fn raw_block_path_matches_decoded_path() {
        let env = test_env();
        let reader = build_table(&env, "t.sst", 500, TableBuilderOptions::default());
        for meta in reader.block_metas().unwrap() {
            let raw = reader.read_raw_block(meta.handle).unwrap();
            let (payload, kind) = verify_block(&raw).unwrap();
            let contents = decompress_block(payload, kind).unwrap();
            let direct = reader.read_block(meta.handle).unwrap();
            assert_eq!(contents.len(), direct.len());
        }
    }

    #[test]
    fn corrupt_block_fails_checksum() {
        let env = test_env();
        let reader = build_table(&env, "t.sst", 200, TableBuilderOptions::default());
        let metas = reader.block_metas().unwrap();
        let raw = reader.read_raw_block(metas[0].handle).unwrap();
        let mut corrupt = raw.to_vec();
        corrupt[0] ^= 0x01;
        let err = verify_block(&corrupt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Flipping a trailer bit is also caught.
        let mut corrupt = raw.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x80;
        assert!(verify_block(&corrupt).is_err());
    }

    #[test]
    fn uncompressed_tables_work() {
        let env = test_env();
        let opts = TableBuilderOptions {
            compression: CompressionKind::None,
            ..Default::default()
        };
        let reader = build_table(&env, "t.sst", 300, opts);
        let mut it = reader.iter();
        it.seek_to_first();
        let mut n = 0;
        while it.valid() {
            n += 1;
            it.next();
        }
        assert_eq!(n, 300);
    }

    #[test]
    fn no_bloom_filter_still_gets() {
        let env = test_env();
        let opts = TableBuilderOptions {
            bloom_bits_per_key: 0,
            ..Default::default()
        };
        let reader = build_table(&env, "t.sst", 100, opts);
        let target = make_internal_key(b"key00000042", u64::MAX >> 8, ValueType::Value);
        assert!(reader.get(&target).unwrap().is_some());
    }

    #[test]
    fn sealed_block_path_roundtrip() {
        // Simulate the pipeline: build block contents manually, seal them,
        // feed them through add_sealed_block, and read everything back.
        let env = test_env();
        let file = env.create("sealed.sst").unwrap();
        let mut tb = TableBuilder::new(file, TableBuilderOptions::default());

        let mut cutter = BlockCutter::new(usize::MAX, 16);
        for i in 0..100 {
            let ik = make_internal_key(
                format!("k{i:05}").as_bytes(),
                i + 1,
                ValueType::Value,
            );
            assert!(cutter.add(&ik, b"sealed-value").is_none());
        }
        let block = cutter.finish().unwrap();
        let (mut raw, kind) = compress_block(&block.contents, CompressionKind::Lz);
        let trailer = make_trailer(&raw, kind);
        raw.extend_from_slice(&trailer);

        tb.add_sealed_block(SealedBlock { raw, block }).unwrap();
        let meta = tb.finish().unwrap();
        assert_eq!(meta.stats().entries, 100);
        assert_eq!(meta.stats().data_blocks, 1);
        assert_eq!(meta.kept_blocks(), 0, "a builder that keeps no blocks kept one");

        let reader =
            Arc::new(TableReader::open(env.open("sealed.sst").unwrap()).unwrap());
        let mut it = reader.iter();
        it.seek_to_first();
        let mut n = 0;
        while it.valid() {
            assert_eq!(it.value(), b"sealed-value");
            n += 1;
            it.next();
        }
        assert_eq!(n, 100);
        let target = make_internal_key(b"k00050", u64::MAX >> 8, ValueType::Value);
        assert!(reader.get(&target).unwrap().is_some());
    }

    /// A block a `keep_blocks` builder wrote — by `add` or as a sealed
    /// block — is in the block cache the moment the reader exists, and
    /// equals what a cold read decodes; a reader with no cache drops them.
    #[test]
    fn kept_blocks_are_cached_at_hand_off_and_equal_cold_decodes() {
        let env = test_env();
        let mut b = TableBuilder::new(env.create("t.sst").unwrap(), TableBuilderOptions::default())
            .keep_blocks();
        for (ikey, value) in model(2000) {
            b.add(&ikey, &value).unwrap();
        }
        let meta = b.finish().unwrap();
        assert_eq!(meta.kept_blocks() as u64, meta.stats().data_blocks);
        let cache = BlockCache::new(64 << 20);
        let file = env.open("t.sst").unwrap();
        let (reader, reads) = {
            let (file, reads) = RecordingFile::new(file, usize::MAX);
            (Arc::new(TableReader::new(file, meta, Some(cache.clone()), Arc::default())), reads)
        };
        let id = reader.cache_id().unwrap();
        let blocks = reader.block_metas().unwrap();
        assert_eq!(cache.len(), blocks.len());
        for bm in &blocks {
            let cold = TableReader::decode_raw(&reader.read_raw_block(bm.handle).unwrap()).unwrap();
            assert_eq!(cache.get(id, bm.handle.offset).unwrap().data(), &cold[..]);
        }
        reads.try_iter().count();
        assert_eq!(collect_all(&reader), model(2000));
        assert_eq!(reads.try_iter().count(), 0, "a kept block was read back");

        // The same blocks resealed.
        let mut sealed = TableBuilder::new(env.create("s.sst").unwrap(), TableBuilderOptions::default())
            .keep_blocks();
        for bm in &blocks {
            let raw = reader.read_raw_block(bm.handle).unwrap().to_vec();
            let contents = TableReader::decode_raw(&raw).unwrap();
            sealed
                .add_sealed_block(SealedBlock {
                    raw,
                    block: CutBlock {
                        contents,
                        first_key: bm.first_key.clone(),
                        last_key: bm.last_key.clone(),
                        entries: bm.entries,
                        bloom_hashes: Vec::new(),
                    },
                })
                .unwrap();
        }
        let meta = sealed.finish().unwrap();
        assert_eq!(meta.kept_blocks(), blocks.len());
        let file = env.open("s.sst").unwrap();
        let resealed = TableReader::new(file, meta, Some(cache.clone()), Arc::default());
        let resealed_id = resealed.cache_id().unwrap();
        for bm in &blocks {
            let (kept, cold) = (cache.get(resealed_id, bm.handle.offset), cache.get(id, bm.handle.offset));
            assert_eq!(kept.unwrap().data(), cold.unwrap().data());
        }

        let mut b = TableBuilder::new(env.create("u.sst").unwrap(), TableBuilderOptions::default())
            .keep_blocks();
        b.add(&model(1)[0].0, b"v").unwrap();
        let meta = b.finish().unwrap();
        let uncached = TableReader::new(env.open("u.sst").unwrap(), meta, None, Arc::default());
        assert_eq!(uncached.cache_id(), None);
    }

    #[test]
    fn open_rejects_truncated_and_garbage_files() {
        let env = test_env();
        let mut f = env.create("bad").unwrap();
        f.append(b"not a table").unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(TableReader::open(env.open("bad").unwrap()).is_err());

        let mut f = env.create("garbage").unwrap();
        f.append(&[0xAB; 200]).unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(TableReader::open(env.open("garbage").unwrap()).is_err());
    }

    #[test]
    fn single_entry_table() {
        let env = test_env();
        let reader = build_table(&env, "one.sst", 1, TableBuilderOptions::default());
        let mut it = reader.iter();
        it.seek_to_first();
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key00000000");
        it.next();
        assert!(!it.valid());
    }

    fn collect_all(reader: &Arc<TableReader>) -> Vec<(Vec<u8>, Vec<u8>)> {
        drain(reader.iter())
    }

    /// Every entry of `it` from its first, with a clean status.
    fn drain(mut it: TableIter) -> Vec<(Vec<u8>, Vec<u8>)> {
        it.seek_to_first();
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().unwrap();
        out
    }

    /// One read a [`RecordingFile`] saw: offset, length, class.
    type Read = (u64, usize, ReadClass);

    /// Sends every read issued against a file to its receiver, and fails
    /// those longer than `fail_over` bytes.
    struct RecordingFile {
        inner: Arc<dyn RandomReadFile>,
        reads: mpsc::Sender<Read>,
        fail_over: usize,
    }

    impl RecordingFile {
        fn new(inner: Arc<dyn RandomReadFile>, fail_over: usize) -> (Arc<Self>, Receiver<Read>) {
            let (reads, rx) = mpsc::channel();
            (Arc::new(RecordingFile { inner, reads, fail_over }), rx)
        }
    }

    impl RandomReadFile for RecordingFile {
        fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
            self.read_at_class(offset, len, ReadClass::Foreground)
        }

        fn read_at_class(&self, offset: u64, len: usize, class: ReadClass) -> io::Result<Bytes> {
            self.reads.send((offset, len, class)).unwrap();
            if len > self.fail_over {
                return Err(io::Error::other("read longer than one block"));
            }
            self.inner.read_at(offset, len)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    /// A table of `model(n)`, reopened over a [`RecordingFile`] that fails
    /// reads longer than `fail_over(blocks)` bytes, with `cache` attached;
    /// its blocks; and the receiver of its reads (the tail read not among
    /// them).
    fn recorded(
        n: usize,
        fail_over: fn(&[BlockMeta]) -> usize,
        cache: Option<Arc<BlockCache>>,
    ) -> (Arc<TableReader>, Vec<BlockMeta>, Receiver<Read>) {
        let env = test_env();
        let blocks = build_table(&env, "t.sst", n, TableBuilderOptions::default()).block_metas();
        let (blocks, plain) = (blocks.unwrap(), env.open("t.sst").unwrap());
        let meta = TableMeta::read(&*plain).unwrap();
        let (file, reads) = RecordingFile::new(plain, fail_over(&blocks));
        (Arc::new(TableReader::new(file, meta, cache, Arc::default())), blocks, reads)
    }

    /// The blocks each readahead-class read covers, as index ranges into
    /// `blocks`, in the order they were made.
    fn span_ranges(blocks: &[BlockMeta], reads: &Receiver<Read>) -> Vec<std::ops::Range<usize>> {
        let spans = reads.try_iter().filter(|r| r.2 == ReadClass::Readahead);
        let index = |at: u64| blocks.partition_point(|b| b.handle.offset < at);
        spans
            .map(|(at, len, _)| index(at)..index(at + len as u64))
            .collect()
    }

    /// How many of `blocks` each readahead-class read covers, in the order they were made.
    fn span_lengths(blocks: &[BlockMeta], reads: &Receiver<Read>) -> Vec<usize> {
        span_ranges(blocks, reads).iter().map(|r| r.len()).collect()
    }

    /// A full scan reads every block once, from spans that start at the
    /// cursor's first length and double to the table's end, none of their
    /// blocks unread; and it books span n+1 as it enters span n — at that
    /// span's first block, and never more than one span ahead.
    #[test]
    fn full_scan_books_each_span_as_it_enters_the_one_before() {
        let n = 10_000;
        for first in [1, MAX_SPAN_BLOCKS] {
            let (reader, blocks, reads) = recorded(n, |_| usize::MAX, None);
            let mut it = reader.iter_with_span(first);
            it.seek_to_first();
            let (mut spans, mut got) = (Vec::new(), Vec::new());
            while it.valid() {
                spans.extend(span_ranges(&blocks, &reads));
                let at =
                    blocks.partition_point(|b| internal_key_cmp(&b.last_key, it.key()).is_lt());
                let entered = spans.iter().position(|s| s.contains(&at)).unwrap();
                let booked = usize::from(spans[entered].end < blocks.len());
                assert_eq!(
                    spans.len(),
                    entered + 1 + booked,
                    "in block {at}: {spans:?}"
                );
                got.push((it.key().to_vec(), it.value().to_vec()));
                it.next();
            }
            it.status().unwrap();
            assert_eq!(got, model(n));
            assert!(spans.len() >= 3, "{spans:?}");
            assert!(
                spans.windows(2).all(|w| w[0].end == w[1].start),
                "{spans:?}"
            );
            assert_eq!(
                (spans[0].start, spans[spans.len() - 1].end),
                (0, blocks.len())
            );
            let lens: Vec<_> = spans.iter().map(|s| s.len()).collect();
            let (tail, full) = lens.split_last().unwrap();
            let want: Vec<_> = (0..full.len()).map(|i| first << i).collect();
            assert!(full == want && *tail <= first << full.len(), "{lens:?}");
            let stats = &reader.scan;
            assert_eq!(stats.sync_blocks(), 0, "a block was read outside a span");
            assert_eq!(
                (stats.spans(), stats.hits()),
                (spans.len() as u64, stats.blocks_prefetched())
            );
            assert_eq!(stats.wasted(), 0);
        }
    }

    /// A positioned seek books nothing while it stays in its first span,
    /// reads its second span when it gets there, and from then on books
    /// one span ahead.
    #[test]
    fn a_seek_books_ahead_only_from_its_second_span() {
        let (reader, blocks, reads) = recorded(10_000, |_| usize::MAX, None);
        let mut it = reader.iter_with_span(2);
        it.seek(&make_internal_key(
            b"key00000000",
            u64::MAX >> 8,
            ValueType::Value,
        ));
        it.next();
        assert_eq!(
            span_lengths(&blocks, &reads),
            [2],
            "a short seek booked ahead"
        );
        let in_first_span = blocks[0].entries + blocks[1].entries;
        for _ in 1..in_first_span {
            it.next();
        }
        assert_eq!(
            span_lengths(&blocks, &reads),
            [4, 8],
            "the second span and the booked third"
        );
        assert!(it.valid() && it.status().is_ok());
    }

    #[test]
    fn seek_ends_the_run_and_restarts_the_span_length() {
        let n = 3000;
        let (reader, blocks, reads) = recorded(n, |_| usize::MAX, None);
        let mut it = reader.iter_with_span(2);
        it.seek_to_first();
        // Scan deep enough to grow the span...
        for _ in 0..n / 2 {
            it.next();
        }
        let grown = span_lengths(&blocks, &reads);
        assert_eq!(grown[..3], [2, 4, 8]);
        // ...then seek back to the start: the span is dropped unread, the
        // scan stays correct, and the next span is short again.
        it.seek(&make_internal_key(b"key00000000", u64::MAX >> 8, ValueType::Value));
        assert!(reader.scan.wasted() > 0, "the dropped span's unread blocks");
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert!(count == n && it.status().is_ok());
        assert_eq!(span_lengths(&blocks, &reads)[..2], [2, 4]);
    }

    #[test]
    fn cursor_over_cached_blocks_reads_nothing() {
        let n = 3000;
        let (reader, _, reads) = recorded(n, |_| usize::MAX, Some(BlockCache::new(64 << 20)));
        assert_eq!(collect_all(&reader), model(n));
        assert!(reads.try_iter().count() > 0);
        // Every block is cached now.
        assert_eq!(collect_all(&reader), model(n));
        assert_eq!(reads.try_iter().count(), 0);
    }

    /// A span read that fails ends the scan with its error; nothing falls
    /// back to reading the block on its own.
    #[test]
    fn failed_span_read_ends_the_scan_after_a_prefix() {
        let n = 3000;
        let largest_block: fn(&[BlockMeta]) -> usize =
            |blocks| blocks.iter().map(|b| b.stored_size() as usize).max().unwrap();
        let (reader, _, _reads) = recorded(n, largest_block, None);
        // A one-block first span succeeds; the two-block span after it fails.
        let mut it = reader.iter_with_span(1);
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        assert!(it.status().is_err(), "scan ended cleanly after {} of {n} entries", got.len());
        assert!(!got.is_empty() && got.len() < n, "{} entries", got.len());
        assert_eq!(got[..], model(n)[..got.len()]);
    }

    #[test]
    fn index_value_lengths_are_checked() {
        for (offset, first_key_len) in [(0, u64::MAX), (u64::MAX, 0)] {
            let mut value = Vec::new();
            BlockHandle { offset, size: 10 }.encode_to(&mut value);
            pcp_codec::put_u64(&mut value, first_key_len);
            pcp_codec::put_u64(&mut value, 1);
            let err = TableReader::decode_index_value(b"k", &value).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    /// Footer, then one span over filter ‖ index ‖ properties (or index ‖
    /// properties) — and what the two reads decode is what the builder
    /// handed over.
    #[test]
    fn cold_open_reads_the_tail_in_two_reads() {
        for bloom_bits_per_key in [10, 0] {
            let env = test_env();
            let opts = TableBuilderOptions { bloom_bits_per_key, ..Default::default() };
            let mut b = TableBuilder::new(env.create("t.sst").unwrap(), opts);
            for i in 0..2000u64 {
                let ikey = make_internal_key(format!("k{i:06}").as_bytes(), i + 1, ValueType::Value);
                b.add(&ikey, b"value").unwrap();
            }
            let built = b.finish().unwrap();
            let (file, reads) = RecordingFile::new(env.open("t.sst").unwrap(), usize::MAX);
            let cold = TableMeta::read(&*file).unwrap();
            assert_eq!(reads.try_iter().count(), 2);
            assert_eq!(cold.stats, built.stats);
            assert_eq!(cold.bloom, built.bloom);
            assert_eq!(cold.bloom.is_some(), bloom_bits_per_key > 0);
            let reader = |meta| TableReader::new(file.clone(), meta, None, Arc::default());
            assert_eq!(reader(cold).block_metas().unwrap(), reader(built).block_metas().unwrap());
        }
    }

    #[test]
    fn cold_open_rejects_metadata_handles_outside_the_table() {
        let env = test_env();
        build_table(&env, "t.sst", 100, TableBuilderOptions::default());
        let f = env.open("t.sst").unwrap();
        let mut bytes = f.read_at(0, f.len() as usize).unwrap().to_vec();
        // Point the footer's first handle (the filter) far past the end,
        // keeping the other two.
        let footer_at = bytes.len() - FOOTER_SIZE;
        let (_, n) = BlockHandle::decode(&bytes[footer_at..]).unwrap();
        let mut footer = Vec::new();
        BlockHandle { offset: u64::MAX - 2, size: 1 }.encode_to(&mut footer);
        footer.extend_from_slice(&bytes[footer_at + n..]);
        footer.truncate(FOOTER_SIZE - 8);
        footer.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        bytes.splice(footer_at.., footer);
        let mut w = env.create("bad.sst").unwrap();
        w.append(&bytes).unwrap();
        w.sync().unwrap();
        let err = TableReader::open(env.open("bad.sst").unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn compression_actually_shrinks_file() {
        let env = test_env();
        let n = 2000;
        let c = build_table(&env, "c.sst", n, TableBuilderOptions::default());
        let u = build_table(
            &env,
            "u.sst",
            n,
            TableBuilderOptions {
                compression: CompressionKind::None,
                ..Default::default()
            },
        );
        assert!(
            c.stats().file_size < u.stats().file_size * 3 / 4,
            "lz file {} vs raw file {}",
            c.stats().file_size,
            u.stats().file_size
        );
        assert_eq!(c.stats().raw_bytes, u.stats().raw_bytes);
    }
}
