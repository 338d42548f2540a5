//! Scan readahead: a table cursor reads each block-cache miss as a span of
//! consecutive blocks ([`pcp_storage::SpanReader`]), tagged
//! [`ReadClass::Readahead`](pcp_storage::ReadClass), and verifies,
//! decompresses and admits each block only when it reaches it. This module
//! says where a table's spans end ([`BlockSpans`]), how long the first is,
//! and what the cursors count ([`ScanStats`]; log replay and the integrity
//! check read the same way but count nothing here).
//!
//! The first span after a seek is the run's share of the read view
//! ([`first_span_blocks`], so a seek reads each run once); a whole-table
//! cursor and the integrity check start at [`MAX_SPAN_BLOCKS`]. Spans
//! double to the table's end. A cursor started by `seek_to_first`, or
//! positioned by `seek` and two spans in, books its next span while it
//! decodes the current one, so a long scan costs the slower of device and
//! decode, not their sum.

use crate::table::TableReader;
use pcp_storage::SpanEnds;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

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

/// Where a table's spans end: after whole data blocks, from its index, so
/// a block is a slice of its span, never a copy. Also a cursor's tally.
pub struct BlockSpans {
    table: Arc<TableReader>,
    /// Whether the table's [`ScanStats`] count these spans: a cursor's do,
    /// the integrity check's do not.
    counted: bool,
    /// Blocks the spans fetched that the cursor has not taken.
    unread: u64,
}

impl BlockSpans {
    pub(crate) fn new(table: Arc<TableReader>, counted: bool) -> BlockSpans {
        BlockSpans {
            table,
            counted,
            unread: 0,
        }
    }

    fn stats(&self) -> Option<&ScanStats> {
        self.counted.then_some(&self.table.scan)
    }

    /// The cursor took a block from a span.
    pub(crate) fn took_block(&mut self) {
        self.unread = self.unread.saturating_sub(1);
        if let Some(stats) = self.stats() {
            stats.hits.fetch_add(1, Relaxed);
        }
    }

    /// The cursor left its spans (a seek, or its drop): the blocks it did
    /// not take are wasted.
    pub(crate) fn leave(&mut self) {
        if let Some(stats) = self.stats().filter(|_| self.unread > 0) {
            stats.wasted.fetch_add(self.unread, Relaxed);
        }
        self.unread = 0;
    }
}

impl SpanEnds for BlockSpans {
    fn span_end(&mut self, start: u64, blocks: usize) -> std::io::Result<u64> {
        let ends = self.table.block_ends();
        let first = ends.partition_point(|&end| end <= start);
        let last = first.saturating_add(blocks).min(ends.len());
        if last <= first {
            return Ok(start);
        }
        let blocks = (last - first) as u64;
        if let Some(stats) = self.stats() {
            stats.spans.fetch_add(1, Relaxed);
            stats.blocks_prefetched.fetch_add(blocks, Relaxed);
        }
        self.unread += blocks;
        Ok(ends[last - 1])
    }
}

impl Drop for BlockSpans {
    fn drop(&mut self) {
        self.leave();
    }
}
