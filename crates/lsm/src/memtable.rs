//! The in-memory component C0: an arena skiplist keyed by internal key.
//!
//! Concurrency discipline is LevelDB's: **one writer at a time** (the DB's
//! state lock serializes inserts) with **lock-free concurrent readers**.
//! A node is fully written before it is published by a `Release` store
//! into its predecessors' next pointers; readers traverse with `Acquire`
//! loads, so a reachable node is always fully initialized (see *Rust
//! Atomics and Locks*, ch. 5–6, for the publish pattern).
//!
//! **Node layout.** Each node is one record bump-allocated from the
//! memtable's arena: a `Node` header `{height, user_key_len, value_len}`,
//! then the tower of `height` `AtomicPtr` next links, then the internal key
//! (user key and 8-byte trailer), then the value, so a search step reads
//! one record.
//!
//! **Arena.** Records are cut from 64 KiB chunks (`CHUNK_BYTES`) the
//! memtable owns; a record that does not fit gets a fresh chunk of at least
//! its own size. Bytes are taken with a compare-exchange on the chunk's fill
//! offset and a new chunk is installed with a compare-exchange on the chunk
//! list, so the arena takes no lock and two callers never get overlapping
//! bytes: `insert` is memory-safe even when two threads call it at once (the
//! skiplist links still need the single writer to come out right).
//!
//! Nodes are never unlinked or freed while the memtable lives — deletion is
//! an LSM-level concept (tombstones) — so readers need no epoch/hazard
//! machinery; `Drop` frees the chunks.

use pcp_sstable::key::{SequenceNumber, ValueType};
use pcp_sstable::KvIter;
use std::cmp::Ordering;
use std::mem::{size_of, MaybeUninit};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

const MAX_HEIGHT: usize = 12;
const BRANCHING: u32 = 4;

/// Bytes per arena chunk.
const CHUNK_BYTES: usize = 64 << 10;

/// What each entry adds to [`Memtable::approximate_bytes`] beyond its
/// internal key and value: the size of the node this memtable kept before
/// the arena (two `Vec` headers and a boxed tower). The rotation point —
/// and with it flush sizes, table counts and write / space amplification —
/// stays where it was.
const ACCOUNTED_NODE_OVERHEAD: usize = 64;

/// Length of the internal key's trailer, `(sequence << 8) | type`.
const TRAILER: usize = 8;

/// The header of a node record; the tower, the internal key and the value
/// follow it in the same allocation.
#[repr(C)]
struct Node {
    height: usize,
    user_key_len: usize,
    value_len: usize,
}

// Every accessor below works on `*const Node` and never on `&Node`: a
// reference to the header would not cover the bytes that follow it.
impl Node {
    /// Bytes of a record, rounded up to the arena's 8-byte alignment.
    fn record_bytes(height: usize, user_key_len: usize, value_len: usize) -> usize {
        let bytes = size_of::<Node>()
            + height * size_of::<AtomicPtr<Node>>()
            + user_key_len
            + TRAILER
            + value_len;
        bytes.next_multiple_of(8)
    }

    /// Writes a record with a null tower into `record`.
    ///
    /// # Safety
    /// `record` is 8-aligned, spans `record_bytes(height, user_key.len(),
    /// value.len())` bytes, and no other thread can reach it yet.
    unsafe fn write(
        record: *mut u8,
        height: usize,
        user_key: &[u8],
        trailer: u64,
        value: &[u8],
    ) -> *mut Node {
        let node = record.cast::<Node>();
        // SAFETY: the caller hands over `record_bytes(…)` fresh, aligned
        // bytes: the header, `height` links, the key, the trailer and the
        // value each land inside them, in that order, and nothing reads
        // them before the node is published.
        unsafe {
            node.write(Node {
                height,
                user_key_len: user_key.len(),
                value_len: value.len(),
            });
            let tower = node.add(1).cast::<AtomicPtr<Node>>();
            for level in 0..height {
                tower.add(level).write(AtomicPtr::new(ptr::null_mut()));
            }
            let key = tower.add(height).cast::<u8>();
            ptr::copy_nonoverlapping(user_key.as_ptr(), key, user_key.len());
            let trailer_at = key.add(user_key.len());
            ptr::copy_nonoverlapping(trailer.to_le_bytes().as_ptr(), trailer_at, TRAILER);
            ptr::copy_nonoverlapping(value.as_ptr(), trailer_at.add(TRAILER), value.len());
        }
        node
    }

    /// The tower link at `level`.
    ///
    /// # Safety
    /// `node` is the head or a written node of a memtable that outlives
    /// `'a`, and `level < height`.
    unsafe fn link<'a>(node: *const Node, level: usize) -> &'a AtomicPtr<Node> {
        // SAFETY: the tower follows the header and holds `height` links
        // (`Node::write`); the caller keeps `level` below the height.
        unsafe {
            debug_assert!(level < (*node).height);
            &*node.add(1).cast::<AtomicPtr<Node>>().add(level)
        }
    }

    /// # Safety
    /// As [`Node::link`].
    #[inline]
    unsafe fn next(node: *const Node, level: usize) -> *mut Node {
        // SAFETY: forwarded to the caller.
        unsafe { Node::link(node, level) }.load(AtomicOrdering::Acquire)
    }

    /// # Safety
    /// As [`Node::link`].
    #[inline]
    unsafe fn set_next(node: *const Node, level: usize, next: *mut Node) {
        // SAFETY: forwarded to the caller.
        unsafe { Node::link(node, level) }.store(next, AtomicOrdering::Release);
    }

    /// The internal key: user key, then trailer.
    ///
    /// # Safety
    /// `node` is the head or a written node of a memtable that outlives `'a`.
    #[inline]
    unsafe fn ikey<'a>(node: *const Node) -> &'a [u8] {
        // SAFETY: the key follows the tower (`Node::write`) and is never
        // written again once the node is published.
        unsafe {
            let height = (*node).height;
            let key = node
                .add(1)
                .cast::<AtomicPtr<Node>>()
                .add(height)
                .cast::<u8>();
            std::slice::from_raw_parts(key, (*node).user_key_len + TRAILER)
        }
    }

    /// # Safety
    /// As [`Node::ikey`].
    #[inline]
    unsafe fn value<'a>(node: *const Node) -> &'a [u8] {
        // SAFETY: forwarded to the caller; the value follows the key.
        unsafe {
            let ikey = Node::ikey(node);
            std::slice::from_raw_parts(ikey.as_ptr().add(ikey.len()), (*node).value_len)
        }
    }
}

/// An internal key split into `(user key, trailer)`, the form searches
/// compare in.
struct SplitKey<'a> {
    user_key: &'a [u8],
    trailer: u64,
}

impl<'a> SplitKey<'a> {
    /// Splits an internal key. A key too short to hold a trailer (no node
    /// key is; a seek target could be) is taken whole as a user key,
    /// placed before every version of it.
    fn of(ikey: &'a [u8]) -> SplitKey<'a> {
        match ikey.split_last_chunk::<TRAILER>() {
            Some((user_key, trailer)) => SplitKey {
                user_key,
                trailer: u64::from_le_bytes(*trailer),
            },
            None => SplitKey {
                user_key: ikey,
                trailer: u64::MAX,
            },
        }
    }

    /// `internal_key_cmp`'s order: user key ascending, then trailer
    /// (sequence, type) descending.
    #[inline]
    fn sorts_before(&self, other: &SplitKey<'_>) -> bool {
        match self.user_key.cmp(other.user_key) {
            Ordering::Less => true,
            Ordering::Equal => self.trailer > other.trailer,
            Ordering::Greater => false,
        }
    }
}

/// The header of an arena chunk, at the start of the chunk's own bytes.
#[repr(C)]
struct Chunk {
    /// The chunk pushed before this one on the same list.
    prev: *mut Chunk,
    /// The chunk's size in 8-byte words, header included.
    words: usize,
    /// Offset of the first free byte from the chunk's start.
    fill: AtomicUsize,
}

impl Chunk {
    /// Allocates a chunk of at least `bytes` whose first `fill` bytes
    /// (header included) are taken.
    fn allocate(bytes: usize, fill: usize, prev: *mut Chunk) -> *mut Chunk {
        let words = bytes.div_ceil(8);
        let chunk = Box::into_raw(Box::<[u64]>::new_uninit_slice(words)).cast::<Chunk>();
        // SAFETY: the slice is `words * 8 >= size_of::<Chunk>()` bytes,
        // 8-aligned, and ours alone.
        unsafe {
            chunk.write(Chunk {
                prev,
                words,
                fill: AtomicUsize::new(fill),
            })
        };
        chunk
    }

    /// Frees `chunk`, returning the one before it.
    ///
    /// # Safety
    /// `chunk` came from [`Chunk::allocate`], nothing points into it any
    /// more, and it is freed once.
    unsafe fn free(chunk: *mut Chunk) -> *mut Chunk {
        // SAFETY: the header is live until the slice is rebuilt and dropped
        // with the length `allocate` gave it.
        unsafe {
            let Chunk { prev, words, .. } = chunk.read();
            let slice = ptr::slice_from_raw_parts_mut(chunk.cast::<MaybeUninit<u64>>(), words);
            drop(Box::from_raw(slice));
            prev
        }
    }

    /// Takes `size` bytes (a multiple of 8) from `chunk`, if they fit.
    ///
    /// # Safety
    /// `chunk` is a live chunk.
    unsafe fn take(chunk: *mut Chunk, size: usize) -> Option<*mut u8> {
        // SAFETY: the header of a live chunk is initialized, and `fill` is
        // only touched atomically.
        let (fill, words) = unsafe { (&(*chunk).fill, (*chunk).words) };
        let mut start = fill.load(AtomicOrdering::Relaxed);
        loop {
            let end = start.checked_add(size).filter(|&end| end <= words * 8)?;
            // The compare-exchange hands `start..end` to exactly one caller;
            // the bytes are published later by the skiplist's Release store.
            match fill.compare_exchange_weak(
                start,
                end,
                AtomicOrdering::Relaxed,
                AtomicOrdering::Relaxed,
            ) {
                // SAFETY: `end` is within the chunk, so `start` is too.
                Ok(_) => return Some(unsafe { chunk.cast::<u8>().add(start) }),
                Err(now) => start = now,
            }
        }
    }
}

/// The bump allocator behind a memtable's node records.
struct Arena {
    /// The chunk records are cut from; the chunks it replaced hang off its
    /// `prev`.
    current: AtomicPtr<Chunk>,
    /// Bytes of every chunk on the list.
    bytes: AtomicUsize,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            current: AtomicPtr::new(Chunk::allocate(
                CHUNK_BYTES,
                size_of::<Chunk>(),
                ptr::null_mut(),
            )),
            bytes: AtomicUsize::new(CHUNK_BYTES),
        }
    }

    /// Returns `size` (a multiple of 8) fresh, 8-aligned bytes that no
    /// other call returns and that live until the arena drops.
    fn alloc(&self, size: usize) -> *mut u8 {
        let header = size_of::<Chunk>();
        let bytes = CHUNK_BYTES.max(header + size);
        loop {
            let chunk = self.current.load(AtomicOrdering::Acquire);
            // SAFETY: `current` always holds a live chunk.
            if let Some(record) = unsafe { Chunk::take(chunk, size) } {
                return record;
            }
            let fresh = Chunk::allocate(bytes, header, chunk);
            match self.current.compare_exchange(
                chunk,
                fresh,
                AtomicOrdering::AcqRel,
                AtomicOrdering::Acquire,
            ) {
                Ok(_) => {
                    self.bytes.fetch_add(bytes, AtomicOrdering::Relaxed);
                }
                // Another caller installed a chunk first; ours was never
                // published.
                // SAFETY: `fresh` came from `allocate` and nothing points
                // into it.
                Err(_) => drop(unsafe { Chunk::free(fresh) }),
            }
        }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        let mut chunk = *self.current.get_mut();
        while !chunk.is_null() {
            // SAFETY: `&mut self` proves no reader or writer is live; every
            // chunk sits on the list once, so each is freed once.
            chunk = unsafe { Chunk::free(chunk) };
        }
    }
}

/// A sorted in-memory run of `(internal key, value)` entries.
pub struct Memtable {
    arena: Arena,
    head: *mut Node,
    max_height: AtomicUsize,
    approximate_bytes: AtomicUsize,
    entries: AtomicUsize,
    /// xorshift state for height selection; mutated only by the single
    /// writer, so a plain Cell-like relaxed atomic suffices.
    rng: AtomicUsize,
}

// SAFETY: nodes are immutable after publication except for their atomic
// links, live in the arena the memtable owns, and are freed only by `Drop`.
unsafe impl Send for Memtable {}
// SAFETY: the arena hands out disjoint bytes under compare-exchange, so
// concurrent inserts cannot overlap; every `prevs` slot an insert links
// through is the head or a published node tall enough for its level; readers
// only follow `Acquire`-loaded pointers to published nodes.
unsafe impl Sync for Memtable {}

impl Default for Memtable {
    fn default() -> Self {
        Self::new()
    }
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Memtable {
        let arena = Arena::new();
        let record = arena.alloc(Node::record_bytes(MAX_HEIGHT, 0, 0));
        // SAFETY: fresh bytes of exactly that record's size, unpublished.
        let head = unsafe { Node::write(record, MAX_HEIGHT, &[], 0, &[]) };
        Memtable {
            arena,
            head,
            max_height: AtomicUsize::new(1),
            approximate_bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            rng: AtomicUsize::new(0x9E3779B97F4A7C15),
        }
    }

    fn random_height(&self) -> usize {
        let mut x = self.rng.load(AtomicOrdering::Relaxed);
        let mut height = 1;
        while height < MAX_HEIGHT {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !(x as u32).is_multiple_of(BRANCHING) {
                break;
            }
            height += 1;
        }
        self.rng.store(x, AtomicOrdering::Relaxed);
        height
    }

    /// Finds the first node that does not sort before `target`, filling
    /// `prevs` (when provided) with the rightmost node before `target` at
    /// every level.
    fn find_greater_or_equal(
        &self,
        target: &SplitKey<'_>,
        mut prevs: Option<&mut [*mut Node; MAX_HEIGHT]>,
    ) -> *mut Node {
        let mut level = self.max_height.load(AtomicOrdering::Relaxed) - 1;
        let mut node = self.head;
        loop {
            // SAFETY: `node` is head or a published node; published nodes
            // are fully written, at least as tall as the level that reached
            // them, and never freed while `self` lives.
            let next = unsafe { Node::next(node, level) };
            // SAFETY: `next` is non-null, so it is a published node too.
            if !next.is_null() && SplitKey::of(unsafe { Node::ikey(next) }).sorts_before(target) {
                node = next;
            } else {
                if let Some(p) = prevs.as_deref_mut() {
                    p[level] = node;
                }
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }

    /// Inserts an entry.
    ///
    /// # Concurrency contract
    /// Callers must serialize `insert` externally (the DB state lock does
    /// this) for the skiplist to keep every entry, in order; concurrent
    /// readers are always safe. Two concurrent inserts are memory-safe —
    /// each writes its own arena bytes and links only through published
    /// nodes — but may unlink or misorder entries.
    pub fn insert(
        &self,
        user_key_bytes: &[u8],
        sequence: SequenceNumber,
        value_type: ValueType,
        value: &[u8],
    ) {
        let target = SplitKey {
            user_key: user_key_bytes,
            trailer: (sequence << 8) | value_type as u64,
        };
        let height = self.random_height();
        let record = self.arena.alloc(Node::record_bytes(
            height,
            user_key_bytes.len(),
            value.len(),
        ));
        // SAFETY: fresh arena bytes of exactly this record's size, reachable
        // by no one until the links below publish them.
        let node = unsafe { Node::write(record, height, user_key_bytes, target.trailer, value) };

        // The head is `MAX_HEIGHT` tall, so levels the search did not reach
        // (above the height it started from) link behind the head.
        let mut prevs = [self.head; MAX_HEIGHT];
        let existing = self.find_greater_or_equal(&target, Some(&mut prevs));
        debug_assert!(
            existing.is_null()
                // SAFETY: `existing` is non-null, so a published node.
                || unsafe { Node::ikey(existing) } != unsafe { Node::ikey(node) },
            "duplicate internal key (sequence reuse)"
        );

        // Publication ordering is irrelevant here: a reader seeing the old
        // height simply searches from a lower level.
        self.max_height.fetch_max(height, AtomicOrdering::Relaxed);

        for (level, &prev) in prevs.iter().enumerate().take(height) {
            // SAFETY: `prev` is head or a published node at least `level + 1`
            // tall, `node` is `height` tall. A concurrent insert can only
            // swap in another published node, so every link stays valid.
            unsafe {
                Node::set_next(node, level, Node::next(prev, level));
                Node::set_next(prev, level, node);
            }
        }
        self.approximate_bytes.fetch_add(
            user_key_bytes.len() + TRAILER + value.len() + ACCOUNTED_NODE_OVERHEAD,
            AtomicOrdering::Relaxed,
        );
        self.entries.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Inserts a run of entries under consecutive sequence numbers
    /// starting at `first_sequence`, returning the sequence after the last
    /// one. This is the publication step of a write batch (and of a whole
    /// commit group: the leader calls it once per member batch), and the
    /// single place where the entry↔sequence assignment is defined — WAL
    /// replay uses it too, so recovery reproduces exactly the sequences
    /// the write path handed out.
    ///
    /// # Concurrency contract
    /// Same as [`Memtable::insert`]: one batching writer at a time.
    pub fn insert_batch<'a>(
        &self,
        first_sequence: SequenceNumber,
        entries: impl IntoIterator<Item = (ValueType, &'a [u8], &'a [u8])>,
    ) -> SequenceNumber {
        let mut sequence = first_sequence;
        for (value_type, key, value) in entries {
            self.insert(key, sequence, value_type, value);
            sequence += 1;
        }
        sequence
    }

    /// Looks up `user_key_bytes` at snapshot `sequence`. Returns:
    /// * `Some(Some(value))` — a live value is visible,
    /// * `Some(None)` — a tombstone is visible (definitely deleted),
    /// * `None` — this memtable has no visible entry (check older sources).
    pub fn get(&self, user_key_bytes: &[u8], sequence: SequenceNumber) -> Option<Option<Vec<u8>>> {
        let target = SplitKey {
            user_key: user_key_bytes,
            trailer: (sequence << 8) | ValueType::Value as u64,
        };
        let node = self.find_greater_or_equal(&target, None);
        if node.is_null() {
            return None;
        }
        // SAFETY: published node, see above.
        let found = SplitKey::of(unsafe { Node::ikey(node) });
        if found.user_key != user_key_bytes {
            return None;
        }
        if found.trailer & 0xFF == ValueType::Deletion as u64 {
            return Some(None);
        }
        // SAFETY: published node, see above.
        Some(Some(unsafe { Node::value(node) }.to_vec()))
    }

    /// Approximate footprint of stored entries: each entry's internal key
    /// and value plus a fixed per-node overhead. This is what rotation
    /// compares with `Options::memtable_bytes`.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes.load(AtomicOrdering::Relaxed)
    }

    /// Bytes of the arena chunks this memtable holds: its real memory.
    pub fn arena_bytes(&self) -> usize {
        self.arena.bytes.load(AtomicOrdering::Relaxed)
    }

    /// Number of entries (all versions, including tombstones).
    pub fn len(&self) -> usize {
        self.entries.load(AtomicOrdering::Relaxed)
    }

    /// True when no entry has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cursor over the memtable. The iterator shares ownership, so it stays
    /// valid even after the memtable is rotated out of the write path.
    pub fn iter(self: &Arc<Self>) -> MemtableIter {
        MemtableIter {
            mt: Arc::clone(self),
            node: ptr::null(),
        }
    }
}

/// A [`KvIter`] over a memtable snapshot.
pub struct MemtableIter {
    mt: Arc<Memtable>,
    node: *const Node,
}

// SAFETY: the raw pointer refers into the arena of the Arc-kept memtable,
// whose nodes are immutable once published and never freed before it.
unsafe impl Send for MemtableIter {}

impl KvIter for MemtableIter {
    fn valid(&self) -> bool {
        !self.node.is_null()
    }

    fn seek_to_first(&mut self) {
        // SAFETY: `head` lives as long as the Arc held by this iterator.
        self.node = unsafe { Node::next(self.mt.head, 0) };
    }

    fn seek(&mut self, target: &[u8]) {
        self.node = self.mt.find_greater_or_equal(&SplitKey::of(target), None);
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        // SAFETY: `valid()` means `node` is a published node kept alive by
        // the Arc-held memtable; published nodes are never freed before it.
        self.node = unsafe { Node::next(self.node, 0) };
    }

    fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        // SAFETY: as in `next` — a valid cursor points at a published node.
        unsafe { Node::ikey(self.node) }
    }

    fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        // SAFETY: as in `next` — a valid cursor points at a published node.
        unsafe { Node::value(self.node) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::iter::collect_remaining;
    use pcp_sstable::key::{internal_key_cmp, make_internal_key, user_key, MAX_SEQUENCE};

    impl Memtable {
        /// Chunks records were cut from.
        fn chunks(&self) -> usize {
            let mut chunk = self.arena.current.load(AtomicOrdering::Acquire);
            let mut n = 0;
            while !chunk.is_null() {
                n += 1;
                // SAFETY: chunks on the list live as long as `self`.
                chunk = unsafe { (*chunk).prev };
            }
            n
        }
    }

    #[test]
    fn insert_and_get_newest_version() {
        let mt = Memtable::new();
        mt.insert(b"k", 1, ValueType::Value, b"v1");
        mt.insert(b"k", 5, ValueType::Value, b"v5");
        mt.insert(b"k", 3, ValueType::Value, b"v3");
        assert_eq!(mt.get(b"k", MAX_SEQUENCE), Some(Some(b"v5".to_vec())));
        assert_eq!(mt.get(b"k", 4), Some(Some(b"v3".to_vec())));
        assert_eq!(mt.get(b"k", 1), Some(Some(b"v1".to_vec())));
        assert_eq!(mt.get(b"k", 0), None, "nothing visible before seq 1");
    }

    #[test]
    fn tombstone_shadows_value() {
        let mt = Memtable::new();
        mt.insert(b"k", 1, ValueType::Value, b"v");
        mt.insert(b"k", 2, ValueType::Deletion, b"");
        assert_eq!(mt.get(b"k", MAX_SEQUENCE), Some(None), "deleted");
        assert_eq!(mt.get(b"k", 1), Some(Some(b"v".to_vec())));
    }

    #[test]
    fn absent_key_returns_none() {
        let mt = Memtable::new();
        mt.insert(b"aa", 1, ValueType::Value, b"v");
        assert_eq!(mt.get(b"ab", MAX_SEQUENCE), None);
        assert_eq!(mt.get(b"a", MAX_SEQUENCE), None);
        assert_eq!(mt.get(b"", MAX_SEQUENCE), None);
    }

    #[test]
    fn iteration_is_sorted_by_internal_key() {
        let mt = Arc::new(Memtable::new());
        let keys = [b"delta", b"alpha", b"omega", b"gamma", b"kappa"];
        for (i, k) in keys.iter().enumerate() {
            mt.insert(*k, i as u64 + 1, ValueType::Value, b"v");
        }
        let mut it = mt.iter();
        it.seek_to_first();
        let got = collect_remaining(&mut it);
        assert_eq!(got.len(), keys.len());
        assert!(got
            .windows(2)
            .all(|w| internal_key_cmp(&w[0].0, &w[1].0) == Ordering::Less));
        assert_eq!(user_key(&got[0].0), b"alpha");
        assert_eq!(user_key(&got.last().unwrap().0), b"omega");
    }

    #[test]
    fn iterator_seek() {
        let mt = Arc::new(Memtable::new());
        for i in 0..100u64 {
            mt.insert(format!("k{i:03}").as_bytes(), i + 1, ValueType::Value, b"v");
        }
        let mut it = mt.iter();
        it.seek(&make_internal_key(b"k050", MAX_SEQUENCE, ValueType::Value));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"k050");
        it.seek(&make_internal_key(b"k0505", MAX_SEQUENCE, ValueType::Value));
        assert_eq!(user_key(it.key()), b"k051");
        it.seek(&make_internal_key(b"zzz", MAX_SEQUENCE, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn bytes_and_len_track_inserts() {
        let mt = Memtable::new();
        assert!(mt.is_empty());
        mt.insert(b"key", 1, ValueType::Value, &vec![0u8; 1000]);
        assert_eq!(mt.len(), 1);
        assert!(mt.approximate_bytes() >= 1000);
    }

    /// Rotation compares `approximate_bytes` with `memtable_bytes`, so the
    /// accounting fixes the rotation point: the paper's 16 B keys and 100 B
    /// values fill the default 4 MiB memtable at exactly 22,311 entries.
    #[test]
    fn accounting_pins_the_rotation_point() {
        let budget = crate::db::Options::default().memtable_bytes;
        assert_eq!(budget, 4 << 20);
        let mt = Memtable::new();
        let value = [7u8; 100];
        let mut sequence = 0;
        while mt.approximate_bytes() < budget {
            sequence += 1;
            mt.insert(
                format!("{sequence:016}").as_bytes(),
                sequence,
                ValueType::Value,
                &value,
            );
        }
        assert_eq!(mt.len(), 22_311);
        assert_eq!(mt.approximate_bytes(), 22_311 * (16 + 8 + 100 + 64));
        assert!(mt.arena_bytes() <= budget, "arena {} B", mt.arena_bytes());
    }

    #[test]
    fn value_larger_than_a_chunk_round_trips() {
        let mt = Arc::new(Memtable::new());
        let big: Vec<u8> = (0..2 * CHUNK_BYTES + 3).map(|i| i as u8).collect();
        let mid = vec![9u8; CHUNK_BYTES / 4];
        mt.insert(b"a", 1, ValueType::Value, b"small");
        mt.insert(b"b", 2, ValueType::Value, &big);
        mt.insert(b"c", 3, ValueType::Value, &mid);
        mt.insert(b"d", 4, ValueType::Value, b"after");
        assert_eq!(mt.get(b"b", MAX_SEQUENCE), Some(Some(big.clone())));
        assert_eq!(mt.get(b"c", MAX_SEQUENCE), Some(Some(mid.clone())));
        assert_eq!(mt.get(b"d", MAX_SEQUENCE), Some(Some(b"after".to_vec())));
        let mut it = mt.iter();
        it.seek_to_first();
        let got = collect_remaining(&mut it);
        let values: Vec<&[u8]> = got.iter().map(|(_, v)| v.as_slice()).collect();
        assert_eq!(values, [&b"small"[..], &big, &mid, b"after"]);
        assert!(mt.arena_bytes() > CHUNK_BYTES + big.len() + mid.len());
    }

    #[test]
    fn iterator_survives_memtable_handle_drop() {
        let mt = Arc::new(Memtable::new());
        mt.insert(b"a", 1, ValueType::Value, b"1");
        let mut it = mt.iter();
        drop(mt);
        it.seek_to_first();
        assert!(it.valid());
        assert_eq!(it.value(), b"1");
    }

    /// A scan keeps its memtable's arena: the engine rotates the memtable
    /// out, flushes it and drops its handle, the database closes, and the
    /// cursor still reads every entry it was opened on.
    #[test]
    fn iterator_outlives_handle_and_rotation() {
        use crate::db::{Db, Options};
        use pcp_storage::{EnvRef, SimDevice, SimEnv};
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let db = Db::open(
            env,
            Options {
                memtable_bytes: 64 << 10,
                ..Default::default()
            },
        )
        .unwrap();
        let key = |i: u32| format!("key{i:05}").into_bytes();
        for i in 0..200 {
            db.put(&key(i), format!("old{i:0100}").as_bytes()).unwrap();
        }
        let mut it = db.iter();
        for i in 0..2_000 {
            db.put(&key(i), format!("new{i:0100}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert!(
            db.metrics().flush_count >= 2,
            "the scanned memtable was not rotated out"
        );
        drop(db);
        it.seek_to_first();
        for i in 0..200 {
            assert!(it.valid(), "entry {i} missing");
            assert_eq!(it.key(), key(i));
            assert_eq!(it.value(), format!("old{i:0100}").as_bytes());
            it.next();
        }
        assert!(!it.valid());
        it.status().unwrap();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test threads, joined before returning"
    )]
    fn concurrent_readers_during_writes() {
        // One writer inserting; several readers scanning concurrently.
        // Readers must always observe a sorted prefix of the inserts.
        let mt = Arc::new(Memtable::new());
        let writer = {
            let mt = Arc::clone(&mt);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    mt.insert(
                        format!("key{:08}", (i * 2654435761) % 100_000).as_bytes(),
                        i + 1,
                        ValueType::Value,
                        b"v",
                    );
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let mt = Arc::clone(&mt);
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        let mut it = mt.iter();
                        it.seek_to_first();
                        let mut prev: Option<Vec<u8>> = None;
                        let mut n = 0usize;
                        while it.valid() {
                            if let Some(p) = &prev {
                                assert_eq!(
                                    internal_key_cmp(p, it.key()),
                                    Ordering::Less,
                                    "reader saw out-of-order keys"
                                );
                            }
                            prev = Some(it.key().to_vec());
                            n += 1;
                            it.next();
                        }
                        let _ = n;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(mt.len(), 20_000);
        assert!(
            mt.chunks() > 8,
            "crossed only {} chunk boundaries",
            mt.chunks() - 1
        );
    }

    /// Two unserialised writers may lose or misorder entries, but never
    /// memory: each node lands in its own arena bytes, every link points at
    /// the head or a published node, and a scan ends. Run under the ASan
    /// lane, this is the check of `insert`'s memory-safety claim. Each
    /// round starts on a fresh memtable, where `max_height` still rises
    /// under the other writer's searches, and crosses chunk boundaries.
    #[test]
    fn concurrent_inserts_are_memory_safe() {
        let per_thread = 256u64;
        for round in 0..200u64 {
            let mt = Memtable::new();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let (mt, start) = (&mt, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..per_thread {
                            let n = (round * 2 + t) * per_thread + i;
                            let key = format!("key{:08}", (n * 2654435761) % 100_000_000);
                            let value = format!("{key:<300}");
                            mt.insert(key.as_bytes(), n + 1, ValueType::Value, value.as_bytes());
                        }
                    });
                }
            });
            assert_eq!(mt.len(), 2 * per_thread as usize);
            assert!(
                mt.chunks() > 2,
                "round {round} crossed {} chunk boundaries",
                mt.chunks() - 1
            );
            let mt = Arc::new(mt);
            let mut it = mt.iter();
            it.seek_to_first();
            let mut seen = 0;
            while it.valid() {
                assert!(
                    it.value().starts_with(user_key(it.key())),
                    "a node's key and value came apart"
                );
                seen += 1;
                assert!(seen <= mt.len(), "the scan revisits nodes");
                it.next();
            }
            assert!(seen > 0);
        }
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let mt = Memtable::new();
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut seq = 0u64;
        let mut x = 0x1234_5678u64;
        for _ in 0..12_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = format!("k{:03}", x % 500).into_bytes();
            seq += 1;
            if x.is_multiple_of(5) {
                mt.insert(&key, seq, ValueType::Deletion, b"");
                model.insert(key, None);
            } else {
                let value = format!("v{seq}").into_bytes();
                mt.insert(&key, seq, ValueType::Value, &value);
                model.insert(key, Some(value));
            }
        }
        assert!(
            mt.chunks() > 8,
            "crossed only {} chunk boundaries",
            mt.chunks() - 1
        );
        for (key, want) in &model {
            let got = mt.get(key, MAX_SEQUENCE).expect("key was written");
            assert_eq!(&got, want, "mismatch at {key:?}");
        }
    }
}
