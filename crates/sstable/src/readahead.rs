//! Pipelined scan readahead: the paper's S1‖(S3/S4) overlap, applied to
//! the read path.
//!
//! Compaction already overlaps its READ stage with CHECKSUM/DECOMPRESS/
//! MERGE compute; iterators historically fetched and decompressed every
//! block synchronously on the calling thread. This module adds the
//! missing stage: once [`crate::TableIter`] observes a sequential run of
//! block loads, it spawns one background worker that
//!
//! 1. issues **span reads** (several blocks per device I/O, like the
//!    compaction sub-task reads) tagged [`ReadClass::Readahead`],
//! 2. verifies and decompresses each block ahead of the cursor, and
//! 3. parks the decoded blocks in a bounded in-order *window* the cursor
//!    drains, admitting them to the shared block cache on the way.
//!
//! Backpressure: the worker blocks once the window holds `window_bytes`
//! of decoded blocks (it always may park one oversized block so progress
//! never deadlocks); the consumer blocks only while the window is empty
//! and the worker still running. A seek tears the window down — random
//! access degrades to the synchronous path, and whatever was prefetched
//! but never consumed is counted as wasted work.

use crate::block::Block;
use crate::table::{BlockMeta, TableReader, BLOCK_TRAILER_SIZE};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use pcp_storage::ReadClass;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Consecutive sequential block loads before the pipeline starts.
pub(crate) const TRIGGER_BLOCKS: usize = 3;
/// Blocks fetched per span read (the readahead "sub-task" size).
const SPAN_BLOCKS: usize = 8;
/// Decoded-block budget of each iterator's prefetch window.
const WINDOW_BYTES: usize = 1 << 20;

/// Scan readahead switch (per table reader, set through the LSM options).
#[derive(Debug, Clone)]
pub struct ReadaheadOpts {
    /// Disabled readers always use the synchronous path.
    pub enabled: bool,
    /// `WINDOW_BYTES`, except in the unit tests that force back-pressure.
    pub(crate) window_bytes: usize,
}

impl Default for ReadaheadOpts {
    fn default() -> Self {
        ReadaheadOpts {
            enabled: true,
            window_bytes: WINDOW_BYTES,
        }
    }
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
    /// Current decoded bytes parked across all live windows (a gauge).
    window_bytes: AtomicU64,
}

impl ScanStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Span reads issued by readahead workers.
    pub fn spans(&self) -> u64 {
        self.spans.load(Relaxed)
    }

    /// Blocks decoded ahead of a cursor.
    pub fn blocks_prefetched(&self) -> u64 {
        self.blocks_prefetched.load(Relaxed)
    }

    /// Block loads served from a prefetch window.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Prefetched blocks that were never consumed.
    pub fn wasted(&self) -> u64 {
        self.wasted.load(Relaxed)
    }

    /// Blocks loaded synchronously on the caller's thread (cache misses
    /// outside any readahead window).
    pub fn sync_blocks(&self) -> u64 {
        self.sync_blocks.load(Relaxed)
    }

    /// Current decoded bytes held in prefetch windows.
    pub fn window_bytes(&self) -> u64 {
        self.window_bytes.load(Relaxed)
    }

    pub(crate) fn add_span(&self) {
        self.spans.fetch_add(1, Relaxed);
    }

    pub(crate) fn add_block_prefetched(&self) {
        self.blocks_prefetched.fetch_add(1, Relaxed);
    }

    pub(crate) fn add_hit(&self) {
        self.hits.fetch_add(1, Relaxed);
    }

    pub(crate) fn add_wasted(&self, n: u64) {
        self.wasted.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_sync_block(&self) {
        self.sync_blocks.fetch_add(1, Relaxed);
    }

    fn window_add(&self, bytes: u64) {
        self.window_bytes.fetch_add(bytes, Relaxed);
    }

    fn window_sub(&self, bytes: u64) {
        // Saturating: the gauge never wraps even if teardown races a push.
        let mut cur = self.window_bytes.load(Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .window_bytes
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

/// Everything the scan fast path needs from its owner: knobs plus the
/// stats sink. One context is shared by all readers of a database.
#[derive(Debug, Clone, Default)]
pub struct ScanContext {
    pub opts: ReadaheadOpts,
    pub stats: Arc<ScanStats>,
}

struct Slot {
    offset: u64,
    block: Block,
    bytes: usize,
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<Slot>,
    bytes: usize,
    producer_done: bool,
    consumer_gone: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Consumer waits here for the producer (blocks available / done).
    avail: Condvar,
    /// Producer waits here for the consumer (window space / teardown).
    space: Condvar,
    capacity: usize,
    stats: Arc<ScanStats>,
}

/// Producer side of the window, owned by the worker thread.
struct Producer {
    shared: Arc<Shared>,
}

impl Producer {
    /// Parks a decoded block; blocks while the window is over budget.
    /// Returns `false` once the consumer is gone (worker should stop).
    /// An empty window always accepts one block regardless of size, so an
    /// oversized block cannot deadlock producer against consumer.
    fn push(&self, offset: u64, block: Block) -> bool {
        let bytes = block.len();
        let mut g = self.shared.inner.lock();
        while !g.consumer_gone
            && !g.queue.is_empty()
            && g.bytes + bytes > self.shared.capacity
        {
            self.shared.space.wait(&mut g);
        }
        if g.consumer_gone {
            return false;
        }
        g.bytes += bytes;
        g.queue.push_back(Slot {
            offset,
            block,
            bytes,
        });
        self.shared.stats.window_add(bytes as u64);
        self.shared.avail.notify_one();
        true
    }

    fn close(&self) {
        let mut g = self.shared.inner.lock();
        g.producer_done = true;
        drop(g);
        self.shared.avail.notify_all();
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Result of asking the window for the block at a given file offset.
pub(crate) enum Take {
    /// The window had it (already verified + decompressed).
    Hit(Block),
    /// The pipeline is done or skipped it — load synchronously.
    Miss,
}

/// Consumer handle held by the iterator; dropping it tears the pipeline
/// down without joining the worker (the worker notices and exits).
pub(crate) struct ReadaheadState {
    shared: Arc<Shared>,
}

impl ReadaheadState {
    /// Takes the block at file offset `wanted`, waiting while the worker
    /// is still ahead of it. Entries below `wanted` (seeked past) are
    /// discarded as wasted work.
    pub(crate) fn take(&self, wanted: u64) -> Take {
        let stats = &self.shared.stats;
        let mut g = self.shared.inner.lock();
        loop {
            while g.queue.front().is_some_and(|s| s.offset < wanted) {
                if let Some(s) = g.queue.pop_front() {
                    g.bytes -= s.bytes;
                    stats.add_wasted(1);
                    stats.window_sub(s.bytes as u64);
                }
                self.shared.space.notify_one();
            }
            match g.queue.front() {
                Some(s) if s.offset == wanted => {
                    if let Some(s) = g.queue.pop_front() {
                        g.bytes -= s.bytes;
                        stats.add_hit();
                        stats.window_sub(s.bytes as u64);
                        self.shared.space.notify_one();
                        return Take::Hit(s.block);
                    }
                }
                // The worker started past `wanted` (or skipped it): let
                // the caller load synchronously without disturbing the
                // rest of the window.
                Some(_) => return Take::Miss,
                None if g.producer_done => return Take::Miss,
                None => self.shared.avail.wait(&mut g),
            }
        }
    }
}

impl Drop for ReadaheadState {
    fn drop(&mut self) {
        let stats = Arc::clone(&self.shared.stats);
        let mut g = self.shared.inner.lock();
        g.consumer_gone = true;
        let leftover = g.queue.len() as u64;
        let bytes = g.bytes as u64;
        g.queue.clear();
        g.bytes = 0;
        drop(g);
        stats.add_wasted(leftover);
        stats.window_sub(bytes);
        self.shared.space.notify_all();
    }
}

/// Starts the readahead pipeline over `metas` (the blocks strictly after
/// the cursor, in file order) and returns the consumer handle. The worker
/// thread is detached: teardown is signalled through the window, never by
/// joining.
pub(crate) fn spawn_readahead(
    reader: Arc<TableReader>,
    metas: Vec<BlockMeta>,
    ctx: &ScanContext,
) -> ReadaheadState {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner::default()),
        avail: Condvar::new(),
        space: Condvar::new(),
        capacity: ctx.opts.window_bytes,
        stats: Arc::clone(&ctx.stats),
    });
    let producer = Producer {
        shared: Arc::clone(&shared),
    };
    let stats = Arc::clone(&ctx.stats);
    std::thread::spawn(move || run_worker(&reader, &metas, &stats, &producer));
    ReadaheadState { shared }
}

fn run_worker(
    reader: &Arc<TableReader>,
    metas: &[BlockMeta],
    stats: &ScanStats,
    producer: &Producer,
) {
    for chunk in metas.chunks(SPAN_BLOCKS) {
        let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
            break;
        };
        // One device read per chunk, tagged as readahead. On error the
        // worker simply stops: the cursor's synchronous fallback hits the
        // same error (or succeeds on a transient one) and reports it
        // through the iterator's status.
        let raw = match reader.read_raw_span_class(
            first.handle,
            last.handle,
            ReadClass::Readahead,
        ) {
            Ok(raw) => raw,
            Err(_) => break,
        };
        stats.add_span();
        let base = first.handle.offset;
        for meta in chunk {
            let off = (meta.handle.offset - base) as usize;
            let end = off + meta.handle.size as usize + BLOCK_TRAILER_SIZE;
            if end > raw.len() {
                return;
            }
            let decoded = TableReader::decode_raw(&raw[off..end])
                .and_then(|contents| Block::new(Bytes::from(contents)));
            let Ok(block) = decoded else { return };
            if !producer.push(meta.handle.offset, block.clone()) {
                return;
            }
            stats.add_block_prefetched();
            reader.admit(meta.handle.offset, block);
        }
    }
    // Producer's Drop marks the window done.
}
