//! Scan readahead: the paper's sizing of I/O by the span rather than by the
//! block, and its overlap of device and CPU, applied to the read path on
//! the cursor's own thread.
//!
//! Every block-cache miss of a [`crate::TableIter`] reads a span: the raw
//! bytes of the wanted block and the blocks after it, in one device read
//! tagged [`ReadClass::Readahead`](pcp_storage::ReadClass). The cursor
//! verifies, decompresses and admits each block of the span only when it
//! reaches it. A cursor never loads a block outside a span.
//!
//! The first span after a seek is as long as the cursor's run was given
//! ([`first_span_blocks`]: the run's share of the read view, so a seek reads
//! each run once); each further span doubles, up to the table's end — a
//! span never leaves its table. A whole-table cursor
//! ([`crate::TableReader::iter`]) starts at [`MAX_SPAN_BLOCKS`].
//!
//! A *continuing* cursor — one started by `seek_to_first`, or positioned by
//! `seek` and already two spans in — books its next span on the device
//! ([`RandomReadFile::submit_read_class`](pcp_storage::RandomReadFile::submit_read_class))
//! before it decodes the current one, and on reaching it sleeps only for
//! what is left of the booked time. A long scan is then bound by the slower
//! of device and decode, not their sum. A cursor holds at most two spans,
//! the current one and the booked one, both within its table. A booked read
//! that failed keeps its error until the cursor reaches its range.

use crate::table::BlockHandle;
use bytes::Bytes;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The longest first span: 256 KiB of 4 KiB blocks, which a striped device
/// serves for about the price of one block. The spans after it double
/// without a cap.
pub const MAX_SPAN_BLOCKS: usize = 64;

/// The first span, in blocks, of a run of `run_bytes` in a read view whose
/// largest run has `largest_run_bytes`: [`MAX_SPAN_BLOCKS`] scaled by the
/// run's share, rounded up, at least 1. Over evenly spread keys a scan
/// takes entries from each run in proportion to its bytes.
pub fn first_span_blocks(run_bytes: u64, largest_run_bytes: u64) -> usize {
    let scaled = (MAX_SPAN_BLOCKS as u128 * u128::from(run_bytes))
        .div_ceil(u128::from(largest_run_bytes.max(1)));
    scaled.clamp(1, MAX_SPAN_BLOCKS as u128) as usize
}

/// Monotone scan-path counters, shared by every iterator of a table (and,
/// through the LSM table cache, by every table of a database). Relaxed
/// atomics: tallies read at scrape time, no ordering needed.
#[derive(Debug, Default)]
pub struct ScanStats {
    spans: AtomicU64,
    blocks_prefetched: AtomicU64,
    hits: AtomicU64,
    wasted: AtomicU64,
    sync_blocks: AtomicU64,
}

impl ScanStats {
    /// Span reads issued by scan cursors.
    pub fn spans(&self) -> u64 {
        self.spans.load(Relaxed)
    }

    /// Blocks those span reads fetched.
    pub fn blocks_prefetched(&self) -> u64 {
        self.blocks_prefetched.load(Relaxed)
    }

    /// Block loads served from a span.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Span blocks the cursor never reached.
    pub fn wasted(&self) -> u64 {
        self.wasted.load(Relaxed)
    }

    /// Blocks loaded one read each on the caller's thread: a point lookup's
    /// block-cache misses. A scan cursor reads only spans, so none of these
    /// are a scan's.
    pub fn sync_blocks(&self) -> u64 {
        self.sync_blocks.load(Relaxed)
    }

    pub(crate) fn add_sync_block(&self) {
        self.sync_blocks.fetch_add(1, Relaxed);
    }
}

/// The raw blocks (payloads and trailers) one span read fetched, ahead of
/// the cursor, and the instant the device completes that read.
pub(crate) struct Span {
    /// File offset of `raw[0]`.
    offset: u64,
    raw: Bytes,
    /// When the read completes; `None` once waited out.
    ready: Option<Instant>,
    /// Blocks not yet taken; counted as wasted when the span goes.
    unread: u64,
    stats: Arc<ScanStats>,
}

impl Span {
    /// The span of `blocks` blocks read as `raw` from `offset`, whose read
    /// completes at `ready`.
    pub(crate) fn new(
        offset: u64,
        raw: Bytes,
        blocks: usize,
        ready: Instant,
        stats: &Arc<ScanStats>,
    ) -> Span {
        stats.spans.fetch_add(1, Relaxed);
        stats.blocks_prefetched.fetch_add(blocks as u64, Relaxed);
        Span {
            offset,
            raw,
            ready: Some(ready),
            unread: blocks as u64,
            stats: Arc::clone(stats),
        }
    }

    /// The raw block at `handle`, if the span holds it — once the span's
    /// read has completed: the first block taken sleeps for what is left
    /// of it.
    pub(crate) fn take(&mut self, handle: BlockHandle) -> Option<Bytes> {
        let from = handle.offset.checked_sub(self.offset)?;
        let to = handle.stored_end()?.checked_sub(self.offset)?;
        if to > self.raw.len() as u64 {
            return None;
        }
        if let Some(ready) = self.ready.take() {
            pcp_storage::blocking::sleep_until(ready);
        }
        self.unread = self.unread.saturating_sub(1);
        self.stats.hits.fetch_add(1, Relaxed);
        Some(self.raw.slice(from as usize..to as usize))
    }
}

/// A span read booked ahead of the cursor: the file range it covers and
/// what the read returned, kept until the cursor reaches the range.
pub(crate) struct Booked {
    pub(crate) range: Range<u64>,
    pub(crate) read: std::io::Result<Span>,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.stats.wasted.fetch_add(self.unread, Relaxed);
    }
}
