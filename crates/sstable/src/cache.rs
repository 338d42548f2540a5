//! Decoded-block LRU cache for the read path.
//!
//! The paper profiles compaction with direct I/O — the compaction
//! executors therefore read raw spans from the device, never through this
//! cache. Point reads and scans, however, benefit from caching decoded
//! blocks exactly like LevelDB's block cache; it is off by default and
//! enabled via `Options::block_cache_bytes`.
//!
//! The cache is split into a power-of-two number of independently locked
//! **shards**, selected by an FNV-1a hash of the `(id, offset)` key, so
//! read-side threads hitting different blocks do not contend on one
//! mutex. Each shard owns `capacity / shards` of the byte budget and its
//! own LRU state; `stats()`, `used_bytes()`, and `len()` aggregate across
//! shards. Small caches collapse to one shard so the budget is never
//! fragmented below a useful working size.
//!
//! Sharding narrows the admission bound: a block is cacheable only when
//! it fits a *shard's* budget (`capacity / num_shards`), not the whole
//! cache — see [`BlockCache::insert`]. With the default scaling (one
//! shard per 128 KiB, capped at 16) the per-shard floor is 128 KiB,
//! comfortably above any realistic decoded block, so this only bites
//! blocks in the multi-MiB range against large caches.
//!
//! Eviction is lazy LRU per shard: a use-tick per entry plus a FIFO of
//! (key, tick) observations; eviction pops observations and drops entries
//! whose tick is stale (classic amortized-O(1) approximation, no
//! intrusive lists). A shard that never fills compacts its FIFO instead
//! once it holds more than twice as many observations as entries, so hits
//! on a cache under budget cost no memory.
//!
//! Blocks enter on a read-side miss and, for a table the engine writes,
//! when its writer hands the table over: every block a flush or a merge
//! writes enters decoded, so nothing the engine just wrote is read back
//! (DESIGN.md §12 "Sharded block cache"). Blocks leave only by eviction: a
//! deleted table's blocks are never used again and age out.

use crate::block::Block;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Key: (table cache-id, block offset).
type Key = (u64, u64);

/// Ceiling on the shard count; beyond this the per-shard budget shrinks
/// faster than contention falls.
const MAX_SHARDS: usize = 16;
/// Minimum useful per-shard budget (≈32 default 4 KB blocks). Capacities
/// below `shards × MIN_SHARD_BYTES` get fewer shards instead.
const MIN_SHARD_BYTES: usize = 128 << 10;
/// Observations a shard's queue may hold beyond twice its entries before
/// the stale ones are dropped.
const QUEUE_SLACK: usize = 64;

struct Entry {
    block: Block,
    charge: usize,
    tick: u64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    /// (key, tick-at-push) observations, oldest first.
    queue: VecDeque<(Key, u64)>,
    used: usize,
}

/// One independently locked slice of the cache.
struct Shard {
    capacity: usize,
    inner: Mutex<Inner>,
    next_tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                queue: VecDeque::new(),
                used: 0,
            }),
            next_tick: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get(&self, key: Key) -> Option<Block> {
        let tick = self.next_tick.fetch_add(1, Relaxed);
        let mut inner = self.inner.lock();
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                let block = e.block.clone();
                inner.observe(key, tick);
                self.hits.fetch_add(1, Relaxed);
                Some(block)
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: Key, block: Block) {
        let charge = block.len();
        if charge > self.capacity {
            return; // larger than the whole shard: never cache
        }
        let tick = self.next_tick.fetch_add(1, Relaxed);
        let mut inner = self.inner.lock();
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                block,
                charge,
                tick,
            },
        ) {
            inner.used -= old.charge;
        }
        inner.used += charge;
        inner.observe(key, tick);
        // Evict: pop observations; drop entries whose latest tick matches
        // (i.e. not touched since this observation).
        while inner.used > self.capacity {
            let Some((key, obs_tick)) = inner.queue.pop_front() else {
                break;
            };
            let stale = inner
                .map
                .get(&key)
                .is_some_and(|e| e.tick == obs_tick);
            if stale {
                if let Some(e) = inner.map.remove(&key) {
                    inner.used -= e.charge;
                }
            }
        }
    }
}

impl Inner {
    /// Queues a use of `key` at `tick`. Only eviction pops the queue, so a
    /// shard under budget would grow it by one per hit forever: past twice
    /// the live entries (plus slack) it keeps only each entry's latest
    /// observation, which is amortized O(1) per push.
    fn observe(&mut self, key: Key, tick: u64) {
        self.queue.push_back((key, tick));
        if self.queue.len() > 2 * self.map.len() + QUEUE_SLACK {
            let map = &self.map;
            self.queue.retain(|(k, t)| map.get(k).is_some_and(|e| e.tick == *t));
        }
    }
}

/// A shared, thread-safe decoded-block cache with a byte budget, sharded
/// to keep concurrent readers off one lock.
pub struct BlockCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is always a power of two.
    mask: usize,
    next_id: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("used", &self.used_bytes())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

impl BlockCache {
    /// A cache bounded to ≈`capacity_bytes` of decoded block data, with a
    /// shard count scaled to the capacity (1 shard per 128 KiB, capped at
    /// 16, always a power of two).
    pub fn new(capacity_bytes: usize) -> Arc<BlockCache> {
        let ideal = (capacity_bytes / MIN_SHARD_BYTES).clamp(1, MAX_SHARDS);
        // Round *down* to a power of two so per-shard budgets never drop
        // below the minimum the divisor implies.
        let shards = if ideal.is_power_of_two() {
            ideal
        } else {
            ideal.next_power_of_two() / 2
        };
        Self::with_shards(capacity_bytes, shards)
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two). The byte budget is split evenly across shards.
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Arc<BlockCache> {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity_bytes / n;
        Arc::new(BlockCache {
            shards: (0..n).map(|_| Shard::new(per_shard)).collect(),
            mask: n - 1,
            next_id: AtomicU64::new(1),
        })
    }

    /// FNV-1a over the key bytes; low bits select the shard.
    fn shard(&self, id: u64, offset: u64) -> &Shard {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id.to_le_bytes().into_iter().chain(offset.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) & self.mask]
    }

    /// Allocates a unique namespace id for one table reader.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Looks up the decoded block at (`id`, `offset`).
    pub fn get(&self, id: u64, offset: u64) -> Option<Block> {
        self.shard(id, offset).get((id, offset))
    }

    /// Inserts a decoded block, evicting least-recently-used entries from
    /// its shard to stay within the shard's budget.
    ///
    /// Admission is bounded per shard, not per cache: a block larger than
    /// `capacity() / num_shards()` is dropped without caching, even if it
    /// would fit the total budget. (Admitting it would pin more than one
    /// shard's worth of memory behind a single entry and let the total
    /// overshoot its budget by up to `num_shards()` oversized blocks.)
    /// Reads of such blocks always miss and fall through to the table
    /// reader.
    pub fn insert(&self, id: u64, offset: u64, block: Block) {
        self.shard(id, offset).insert((id, offset), block);
    }

    /// (hits, misses) counters, aggregated across shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            (h + s.hits.load(Relaxed), m + s.misses.load(Relaxed))
        })
    }

    /// (hits, misses) of one shard — the per-shard observability series.
    ///
    /// # Panics
    /// Panics if `shard >= num_shards()`.
    pub fn shard_stats(&self, shard: usize) -> (u64, u64) {
        let s = &self.shards[shard];
        (s.hits.load(Relaxed), s.misses.load(Relaxed))
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total byte budget across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    /// Bytes currently cached, aggregated across shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().used).sum()
    }

    /// Number of cached blocks, aggregated across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use bytes::Bytes;

    fn block(tag: u8, bytes: usize) -> Block {
        let mut b = BlockBuilder::new(16);
        let value = vec![tag; bytes];
        b.add(&[tag, 0, 0, 0, 0, 0, 0, 0, 1], &value);
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn hit_after_insert() {
        let c = BlockCache::new(1 << 20);
        let id = c.new_id();
        assert!(c.get(id, 0).is_none());
        c.insert(id, 0, block(1, 100));
        assert!(c.get(id, 0).is_some());
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    /// Hits on a cache that never fills do not grow its recency queue:
    /// each shard keeps at most twice its entries plus the slack.
    #[test]
    fn hits_under_budget_keep_the_queue_bounded() {
        let c = BlockCache::new(1 << 20);
        let id = c.new_id();
        for i in 0..10u64 {
            c.insert(id, i * 4096, block(i as u8, 100));
        }
        for n in 0..200_000u64 {
            assert!(c.get(id, (n % 10) * 4096).is_some());
        }
        assert_eq!(c.len(), 10);
        for s in c.shards.iter() {
            let inner = s.inner.lock();
            assert!(
                inner.queue.len() <= 2 * inner.map.len() + QUEUE_SLACK,
                "{} observations for {} entries",
                inner.queue.len(),
                inner.map.len()
            );
        }
        // Recency survives the compaction: the block touched last outlives
        // one touched long ago once the shard must evict.
        let c = BlockCache::new(3000);
        let id = c.new_id();
        c.insert(id, 0, block(0, 900));
        c.insert(id, 1, block(1, 900));
        for _ in 0..1000 {
            assert!(c.get(id, 1).is_some());
        }
        assert!(c.get(id, 0).is_some());
        c.insert(id, 2, block(2, 900));
        c.insert(id, 3, block(3, 900));
        assert!(c.get(id, 1).is_none());
        assert!(c.get(id, 0).is_some(), "most recently used entry evicted");
    }

    #[test]
    fn namespaces_do_not_collide() {
        let c = BlockCache::new(1 << 20);
        let a = c.new_id();
        let b = c.new_id();
        c.insert(a, 0, block(1, 100));
        assert!(c.get(b, 0).is_none());
        assert!(c.get(a, 0).is_some());
    }

    #[test]
    fn eviction_respects_budget_and_recency() {
        // 3000 bytes → a single shard, so eviction order is global.
        let c = BlockCache::new(3000);
        assert_eq!(c.num_shards(), 1);
        let id = c.new_id();
        for i in 0..4u64 {
            c.insert(id, i, block(i as u8, 900));
        }
        assert!(c.used_bytes() <= 3000);
        // The most recent insert must survive.
        assert!(c.get(id, 3).is_some());
    }

    #[test]
    fn touched_entries_survive_eviction() {
        let c = BlockCache::new(3000);
        let id = c.new_id();
        c.insert(id, 0, block(0, 900));
        c.insert(id, 1, block(1, 900));
        c.insert(id, 2, block(2, 900));
        // Touch 0 so it is newer than 1.
        assert!(c.get(id, 0).is_some());
        c.insert(id, 3, block(3, 900)); // forces eviction
        assert!(c.used_bytes() <= 3000);
        assert!(c.get(id, 0).is_some(), "recently used entry evicted");
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(100);
        let id = c.new_id();
        c.insert(id, 0, block(1, 900));
        assert!(c.is_empty());
    }

    #[test]
    fn admission_is_bounded_per_shard_not_per_cache() {
        // 4 shards × 2000 B: a 3000 B block fits the total budget but not
        // one shard, so it is not admitted (documented on `insert`).
        let c = BlockCache::with_shards(8000, 4);
        let id = c.new_id();
        c.insert(id, 0, block(1, 3000));
        assert!(c.is_empty());
        assert!(c.get(id, 0).is_none());
        // A block within the shard budget is admitted as usual.
        c.insert(id, 1, block(2, 1000));
        assert!(c.get(id, 1).is_some());
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        assert_eq!(BlockCache::new(100).num_shards(), 1);
        assert_eq!(BlockCache::new(256 << 10).num_shards(), 2);
        assert_eq!(BlockCache::new(1 << 20).num_shards(), 8);
        assert_eq!(BlockCache::new(64 << 20).num_shards(), 16);
        // Explicit counts round up to a power of two.
        assert_eq!(BlockCache::with_shards(1 << 20, 3).num_shards(), 4);
        assert_eq!(BlockCache::with_shards(1 << 20, 0).num_shards(), 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let c = BlockCache::with_shards(4 << 20, 4);
        let id = c.new_id();
        for i in 0..64u64 {
            c.insert(id, i * 4096, block((i & 0xFF) as u8, 500));
        }
        assert_eq!(c.len(), 64);
        let populated = (0..c.num_shards())
            .filter(|&s| {
                // Shard population is visible through per-shard stats after
                // a full sweep of gets.
                let before = c.shard_stats(s);
                (0..64u64).for_each(|i| {
                    let _ = c.get(id, i * 4096);
                });
                c.shard_stats(s).0 > before.0
            })
            .count();
        assert!(populated >= 2, "hash should spread over shards");
    }

    #[test]
    fn aggregated_stats_sum_shards() {
        let c = BlockCache::with_shards(4 << 20, 4);
        let id = c.new_id();
        for i in 0..16u64 {
            c.insert(id, i * 4096, block(i as u8, 500));
        }
        for i in 0..16u64 {
            assert!(c.get(id, i * 4096).is_some());
        }
        for i in 100..110u64 {
            assert!(c.get(id, i * 4096).is_none());
        }
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (16, 10));
        let per_shard: (u64, u64) = (0..c.num_shards()).fold((0, 0), |(h, m), s| {
            let (sh, sm) = c.shard_stats(s);
            (h + sh, m + sm)
        });
        assert_eq!(per_shard, (hits, misses));
    }

    #[test]
    fn sharded_budget_is_respected_under_churn() {
        let cap = 64 << 10;
        let c = BlockCache::with_shards(cap, 4);
        let id = c.new_id();
        for i in 0..256u64 {
            c.insert(id, i * 4096, block((i & 0xFF) as u8, 1000));
        }
        assert!(c.used_bytes() <= cap, "used {} > cap {cap}", c.used_bytes());
        assert!(!c.is_empty());
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let c = BlockCache::with_shards(1 << 20, 8);
        let id = c.new_id();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let off = (t * 1000 + i) * 4096;
                        c.insert(id, off, block((i & 0xFF) as u8, 512));
                        assert!(c.get(id, off).is_some() || c.used_bytes() <= 1 << 20);
                    }
                });
            }
        });
        let (hits, misses) = c.stats();
        assert_eq!(hits + misses, 4000);
        assert!(c.used_bytes() <= 1 << 20);
    }
}
