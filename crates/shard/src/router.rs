//! Key → shard placement.
//!
//! The paper's pipelined compaction exploits that *disjoint sub-key
//! ranges have no data dependencies*; a router applies the same fact one
//! level up, partitioning the whole keyspace so N databases can flush and
//! compact with zero coordination. Two placements are provided:
//!
//! * [`HashRouter`] — FNV-1a over the key. Spreads any workload evenly.
//! * [`RangeRouter`] — a boundary table of split keys. Keeps each shard a
//!   contiguous key range, so shard-local SSTables stay range-clustered.
//!
//! Under either placement a range scan seeks every shard: it is one merge
//! over every shard's runs (`ShardedDb::iter_at`).

use std::fmt;

/// Maps keys to shard indices in `0..shards()`.
///
/// Implementations must be pure: the same key always routes to the same
/// shard, or data written through one route becomes unreadable through
/// another.
pub trait Router: Send + Sync + fmt::Debug {
    /// Number of shards this router partitions the keyspace into.
    fn shards(&self) -> usize;

    /// The shard owning `key`; must be `< shards()`.
    fn shard_of(&self, key: &[u8]) -> usize;
}

/// FNV-1a hash placement over a fixed shard count.
#[derive(Debug, Clone)]
pub struct HashRouter {
    shards: usize,
}

impl HashRouter {
    /// A hash router over `shards` shards (min 1).
    pub fn new(shards: usize) -> HashRouter {
        HashRouter {
            shards: shards.max(1),
        }
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, and well-mixed for short keys.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Router for HashRouter {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.shards as u64) as usize
    }
}

/// Boundary-table placement: shard `i` owns keys in
/// `[boundaries[i-1], boundaries[i])` (first shard unbounded below, last
/// unbounded above).
#[derive(Debug, Clone)]
pub struct RangeRouter {
    /// Strictly increasing split keys; `len() + 1` shards.
    boundaries: Vec<Vec<u8>>,
}

impl RangeRouter {
    /// A router from strictly increasing split keys.
    ///
    /// # Panics
    /// Panics if the boundaries are not strictly increasing.
    pub fn new(boundaries: Vec<Vec<u8>>) -> RangeRouter {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "range boundaries must be strictly increasing"
        );
        RangeRouter { boundaries }
    }

    /// An `n`-shard router splitting uniformly on the first key byte —
    /// a sensible default when keys are roughly uniform (hashed IDs,
    /// random tokens).
    pub fn uniform(n: usize) -> RangeRouter {
        let n = n.max(1);
        let boundaries = (1..n).map(|i| vec![((i * 256) / n) as u8]).collect();
        RangeRouter::new(boundaries)
    }

    /// The split keys (shard `i` starts at `boundaries()[i - 1]`).
    pub fn boundaries(&self) -> &[Vec<u8>] {
        &self.boundaries
    }
}

impl Router for RangeRouter {
    fn shards(&self) -> usize {
        self.boundaries.len() + 1
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        // First boundary > key ⇒ the shard below it owns the key.
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_router_is_stable_and_in_range() {
        let r = HashRouter::new(4);
        for key in [b"a".as_slice(), b"hello", b"", b"\xff\xff"] {
            let s = r.shard_of(key);
            assert!(s < 4);
            assert_eq!(s, r.shard_of(key), "routing must be pure");
        }
    }

    #[test]
    fn hash_router_spreads_keys() {
        let r = HashRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[r.shard_of(format!("user-{i}").as_bytes())] += 1;
        }
        for c in counts {
            assert!((600..1400).contains(&c), "skewed spread: {counts:?}");
        }
    }

    #[test]
    fn range_router_respects_boundaries() {
        let r = RangeRouter::new(vec![b"g".to_vec(), b"p".to_vec()]);
        assert_eq!(r.shards(), 3);
        assert_eq!(r.shard_of(b""), 0);
        assert_eq!(r.shard_of(b"f"), 0);
        assert_eq!(r.shard_of(b"g"), 1, "boundary key belongs to upper shard");
        assert_eq!(r.shard_of(b"o"), 1);
        assert_eq!(r.shard_of(b"p"), 2);
        assert_eq!(r.shard_of(b"zzz"), 2);
    }

    #[test]
    fn uniform_router_covers_byte_space() {
        let r = RangeRouter::uniform(4);
        assert_eq!(r.shards(), 4);
        assert_eq!(r.shard_of(&[0x00]), 0);
        assert_eq!(r.shard_of(&[0x40]), 1);
        assert_eq!(r.shard_of(&[0x80]), 2);
        assert_eq!(r.shard_of(&[0xc0]), 3);
        assert_eq!(r.shard_of(&[0xff, 0xff]), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_rejected() {
        RangeRouter::new(vec![b"p".to_vec(), b"g".to_vec()]);
    }

    #[test]
    fn single_shard_routers() {
        assert_eq!(HashRouter::new(0).shards(), 1);
        let r = RangeRouter::uniform(1);
        assert_eq!(r.shards(), 1);
        assert_eq!(r.shard_of(b"anything"), 0);
    }
}
