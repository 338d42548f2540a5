//! First-fit extent allocator with free-list coalescing.
//!
//! [`crate::SimEnv`] uses this to place file segments on the block device.
//! Because files are created and deleted continually (SSTables come and go
//! with every compaction), allocations fragment over time — which is
//! precisely the paper's observation that "the SSTables are dynamically
//! allocated; as a result the data can not be placed on disk sequentially",
//! the source of HDD seek overhead during compaction reads.

use std::collections::BTreeMap;

/// A contiguous byte range on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub offset: u64,
    pub len: u64,
}

impl Extent {
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Allocation failure: the device is full (or too fragmented for the
/// requested contiguous extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSpace {
    pub requested: u64,
    pub largest_free: u64,
}

impl std::fmt::Display for OutOfSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of space: requested {} contiguous bytes, largest free extent {}",
            self.requested, self.largest_free
        )
    }
}

impl std::error::Error for OutOfSpace {}

/// First-fit allocator over `[0, capacity)`.
#[derive(Debug)]
pub struct ExtentAllocator {
    /// Free extents keyed by offset; invariant: non-empty entries, no two
    /// adjacent entries touch (always coalesced), values are lengths.
    free: BTreeMap<u64, u64>,
    capacity: u64,
    allocated: u64,
}

impl ExtentAllocator {
    /// Creates an allocator managing `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        ExtentAllocator {
            free,
            capacity,
            allocated: 0,
        }
    }

    /// Total managed capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Allocates `len` contiguous bytes, first-fit.
    pub fn allocate(&mut self, len: u64) -> Result<Extent, OutOfSpace> {
        assert!(len > 0, "zero-length allocation");
        let found = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= len)
            .map(|(&off, &flen)| (off, flen));
        match found {
            Some((off, flen)) => {
                self.free.remove(&off);
                if flen > len {
                    self.free.insert(off + len, flen - len);
                }
                self.allocated += len;
                Ok(Extent { offset: off, len })
            }
            None => Err(OutOfSpace {
                requested: len,
                largest_free: self.free.values().copied().max().unwrap_or(0),
            }),
        }
    }

    /// Returns an extent to the free pool, coalescing with neighbours.
    ///
    /// # Panics
    /// Panics (in debug builds) on overlapping or out-of-range frees, which
    /// indicate allocator misuse.
    pub fn free(&mut self, extent: Extent) {
        if extent.len == 0 {
            return;
        }
        debug_assert!(extent.end() <= self.capacity, "free beyond capacity");
        let mut off = extent.offset;
        let mut len = extent.len;

        // Coalesce with the predecessor if it touches.
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            debug_assert!(poff + plen <= off, "double free (predecessor overlap)");
            if poff + plen == off {
                self.free.remove(&poff);
                off = poff;
                len += plen;
            }
        }
        // Coalesce with the successor if it touches.
        if let Some((&soff, &slen)) = self.free.range(off + len..).next() {
            if soff == off + len {
                self.free.remove(&soff);
                len += slen;
            }
        }
        debug_assert!(
            self.free.range(off..off + len).next().is_none(),
            "double free (range overlap)"
        );
        self.free.insert(off, len);
        self.allocated = self.allocated.saturating_sub(extent.len);
    }

    /// Number of fragments in the free list (fragmentation metric).
    pub fn free_fragments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_first_fit_in_order() {
        let mut a = ExtentAllocator::new(1000);
        let e1 = a.allocate(100).unwrap();
        let e2 = a.allocate(200).unwrap();
        assert_eq!(
            e1,
            Extent {
                offset: 0,
                len: 100
            }
        );
        assert_eq!(
            e2,
            Extent {
                offset: 100,
                len: 200
            }
        );
        assert_eq!(a.allocated(), 300);
    }

    #[test]
    fn freeing_coalesces_both_sides() {
        let mut a = ExtentAllocator::new(300);
        let e1 = a.allocate(100).unwrap();
        let e2 = a.allocate(100).unwrap();
        let e3 = a.allocate(100).unwrap();
        a.free(e1);
        a.free(e3);
        assert_eq!(a.free_fragments(), 2);
        a.free(e2); // merges with both neighbours
        assert_eq!(a.free_fragments(), 1);
        assert_eq!(a.allocated(), 0);
        // The whole range is allocatable again.
        assert_eq!(
            a.allocate(300).unwrap(),
            Extent {
                offset: 0,
                len: 300
            }
        );
    }

    #[test]
    fn out_of_space_reports_largest_fragment() {
        let mut a = ExtentAllocator::new(300);
        let e1 = a.allocate(100).unwrap();
        let _e2 = a.allocate(100).unwrap();
        let _e3 = a.allocate(100).unwrap();
        a.free(e1);
        let err = a.allocate(150).unwrap_err();
        assert_eq!(err.requested, 150);
        assert_eq!(err.largest_free, 100);
    }

    #[test]
    fn reuses_freed_holes() {
        let mut a = ExtentAllocator::new(1000);
        let e1 = a.allocate(100).unwrap();
        let _keep = a.allocate(100).unwrap();
        a.free(e1);
        // First-fit places the next small allocation into the hole.
        let e = a.allocate(50).unwrap();
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn fragmentation_accumulates_under_churn() {
        let mut a = ExtentAllocator::new(1 << 20);
        let mut live = Vec::new();
        // Alternate alloc/free in a pattern that leaves holes.
        for i in 0..100 {
            let e = a.allocate(1000 + (i % 7) * 64).unwrap();
            if i % 3 == 0 {
                a.free(e);
            } else {
                live.push(e);
            }
        }
        assert!(a.allocated() > 0);
        // Invariant: everything still allocatable after freeing all.
        for e in live {
            a.free(e);
        }
        assert_eq!(a.allocated(), 0);
        assert_eq!(a.free_fragments(), 1, "full coalescing restores one extent");
    }

    #[test]
    fn zero_capacity_always_fails() {
        let mut a = ExtentAllocator::new(0);
        assert!(a.allocate(1).is_err());
    }
}
