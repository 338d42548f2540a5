//! The in-memory component C0: a skiplist keyed by internal key.
//!
//! Concurrency discipline is LevelDB's: **one writer at a time** (the DB's
//! write mutex serializes inserts) with **lock-free concurrent readers**.
//! A node is fully constructed before it is published by a `Release` store
//! into its predecessors' next pointers; readers traverse with `Acquire`
//! loads, so a reachable node is always fully initialized (see *Rust
//! Atomics and Locks*, ch. 5–6, for the publish pattern).
//!
//! Nodes are never unlinked or freed while the memtable lives — deletion is
//! an LSM-level concept (tombstones) — so readers need no epoch/hazard
//! machinery; the whole structure is torn down at `Drop`.

use pcp_sstable::key::{
    internal_key_cmp, make_internal_key, parse_internal_key, SequenceNumber,
    ValueType,
};
use pcp_sstable::KvIter;
use std::cmp::Ordering;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

const MAX_HEIGHT: usize = 12;
const BRANCHING: u32 = 4;

struct Node {
    ikey: Vec<u8>,
    value: Vec<u8>,
    nexts: Box<[AtomicPtr<Node>]>,
}

impl Node {
    fn new(ikey: Vec<u8>, value: Vec<u8>, height: usize) -> *mut Node {
        let nexts = (0..height)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Node { ikey, value, nexts }))
    }

    #[inline]
    fn next(&self, level: usize) -> *mut Node {
        self.nexts[level].load(AtomicOrdering::Acquire)
    }

    #[inline]
    fn set_next(&self, level: usize, node: *mut Node) {
        self.nexts[level].store(node, AtomicOrdering::Release);
    }
}

/// A sorted in-memory run of `(internal key, value)` entries.
pub struct Memtable {
    head: *mut Node,
    max_height: AtomicUsize,
    approximate_bytes: AtomicUsize,
    entries: AtomicUsize,
    /// xorshift state for height selection; mutated only by the single
    /// writer, so a plain Cell-like relaxed atomic suffices.
    rng: AtomicUsize,
}

// SAFETY: nodes are immutable after publication; the single-writer /
// multi-reader protocol above makes shared access sound.
unsafe impl Send for Memtable {}
// SAFETY: `insert` is serialized by the caller (the DB write lock), and
// readers only follow `Acquire`-loaded pointers to published nodes.
unsafe impl Sync for Memtable {}

impl Default for Memtable {
    fn default() -> Self {
        Self::new()
    }
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Memtable {
        Memtable {
            head: Node::new(Vec::new(), Vec::new(), MAX_HEIGHT),
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

    /// Finds the first node whose key is `>= target`, filling `prevs` (when
    /// provided) with the rightmost node before `target` at every level.
    fn find_greater_or_equal(
        &self,
        target: &[u8],
        mut prevs: Option<&mut [*mut Node; MAX_HEIGHT]>,
    ) -> *mut Node {
        let mut level = self.max_height.load(AtomicOrdering::Relaxed) - 1;
        let mut node = self.head;
        loop {
            // SAFETY: `node` is head or a published node; published nodes
            // are fully initialized and never freed while `self` lives.
            let next = unsafe { (*node).next(level) };
            let advance = !next.is_null()
                // SAFETY: `next` is non-null, so it is a published node too.
                && internal_key_cmp(unsafe { &(*next).ikey }, target) == Ordering::Less;
            if advance {
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
    /// Callers must serialize `insert` externally (the DB write lock does
    /// this); concurrent readers are always safe.
    pub fn insert(
        &self,
        user_key_bytes: &[u8],
        sequence: SequenceNumber,
        value_type: ValueType,
        value: &[u8],
    ) {
        let ikey = make_internal_key(user_key_bytes, sequence, value_type);
        let mut prevs = [ptr::null_mut(); MAX_HEIGHT];
        let existing = self.find_greater_or_equal(&ikey, Some(&mut prevs));
        debug_assert!(
            existing.is_null()
                // SAFETY: `existing` is non-null, so a published node; those
                // are fully initialized and never freed while `self` lives.
                || internal_key_cmp(unsafe { &(*existing).ikey }, &ikey) != Ordering::Equal,
            "duplicate internal key (sequence reuse)"
        );

        let height = self.random_height();
        let current_max = self.max_height.load(AtomicOrdering::Relaxed);
        if height > current_max {
            for p in prevs.iter_mut().take(height).skip(current_max) {
                *p = self.head;
            }
            // Publication ordering is irrelevant here: a reader seeing the
            // old height simply searches from a lower level.
            self.max_height.store(height, AtomicOrdering::Relaxed);
        }

        let bytes = ikey.len() + value.len() + std::mem::size_of::<Node>();
        let node = Node::new(ikey, value.to_vec(), height);
        for (level, &prev) in prevs.iter().enumerate().take(height) {
            // SAFETY: prev is head or a published node. Single writer: no
            // concurrent structural mutation.
            unsafe {
                (*node).set_next(level, (*prev).next(level));
                (*prev).set_next(level, node);
            }
        }
        self.approximate_bytes
            .fetch_add(bytes, AtomicOrdering::Relaxed);
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
    #[expect(
        clippy::expect_used,
        reason = "every node key was built by `make_internal_key` in `insert`"
    )]
    pub fn get(
        &self,
        user_key_bytes: &[u8],
        sequence: SequenceNumber,
    ) -> Option<Option<Vec<u8>>> {
        let lookup = make_internal_key(user_key_bytes, sequence, ValueType::Value);
        let node = self.find_greater_or_equal(&lookup, None);
        if node.is_null() {
            return None;
        }
        // SAFETY: published node, see above.
        let node = unsafe { &*node };
        let parsed = parse_internal_key(&node.ikey).expect("well-formed internal key");
        if parsed.user_key != user_key_bytes {
            return None;
        }
        match parsed.value_type {
            ValueType::Value => Some(Some(node.value.clone())),
            ValueType::Deletion => Some(None),
        }
    }

    /// Approximate heap footprint of stored entries.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes.load(AtomicOrdering::Relaxed)
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

impl Drop for Memtable {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves exclusive access — no reader or writer
        // is live — so walking the level-0 chain and freeing each node
        // (every node is reachable at level 0 exactly once) is sound.
        let mut node = unsafe { (*self.head).next(0) };
        while !node.is_null() {
            // SAFETY: `node` is non-null, was allocated by `Box::into_raw`
            // in `insert`, and is unlinked from the walk before being freed.
            let next = unsafe { (*node).next(0) };
            // SAFETY: as above; `next` was read first, and nothing else
            // points at `node` once the walk has left it.
            drop(unsafe { Box::from_raw(node) });
            node = next;
        }
        // SAFETY: the head node was allocated by `Box::into_raw` in `new`
        // and is freed exactly once, here.
        drop(unsafe { Box::from_raw(self.head) });
    }
}

/// A [`KvIter`] over a memtable snapshot.
pub struct MemtableIter {
    mt: Arc<Memtable>,
    node: *const Node,
}

// SAFETY: the raw pointer refers into the Arc-kept skiplist whose nodes are
// immutable once published and never freed before the Arc drops.
unsafe impl Send for MemtableIter {}

impl KvIter for MemtableIter {
    fn valid(&self) -> bool {
        !self.node.is_null()
    }

    fn seek_to_first(&mut self) {
        // SAFETY: `head` lives as long as the Arc held by this iterator.
        self.node = unsafe { (*self.mt.head).next(0) };
    }

    fn seek(&mut self, target: &[u8]) {
        self.node = self.mt.find_greater_or_equal(target, None);
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        // SAFETY: `valid()` means `node` is a published node kept alive by
        // the Arc-held skiplist; published nodes are never freed before it.
        self.node = unsafe { (*self.node).next(0) };
    }

    fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        // SAFETY: as in `next` — a valid cursor points at a published node.
        unsafe { &(*self.node).ikey }
    }

    fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        // SAFETY: as in `next` — a valid cursor points at a published node.
        unsafe { &(*self.node).value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::iter::collect_remaining;
    use pcp_sstable::key::{user_key, MAX_SEQUENCE};

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

    #[test]
    #[expect(clippy::disallowed_methods, reason = "test threads, joined before returning")]
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
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let mt = Memtable::new();
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut seq = 0u64;
        let mut x = 0x1234_5678u64;
        for _ in 0..5_000 {
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
        for (key, want) in &model {
            let got = mt.get(key, MAX_SEQUENCE).expect("key was written");
            assert_eq!(&got, want, "mismatch at {key:?}");
        }
    }
}
