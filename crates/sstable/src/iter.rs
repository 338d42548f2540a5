//! Key-value cursors and the merging iterator.
//!
//! [`MergingIter`] is the heart of compaction step S4 (SORT/MERGE): it
//! yields the union of its children's entries in internal-key order. It is
//! also the scan path's way of unifying every shard's memtables, level-0
//! tables and leveled runs into one sorted stream.

use crate::key::internal_key_cmp;
use crate::{copy_status, Result};
use std::cmp::Ordering;

/// A positional cursor over sorted key-value entries.
///
/// The iteration protocol matches LevelDB: position with `seek*`, test
/// `valid`, read `key`/`value`, advance with `next`. A cursor that cannot
/// read its source turns `!valid()` and stays there until the next
/// `seek*`, so a caller that drains one must ask [`KvIter::status`]
/// whether it reached the end or an error.
pub trait KvIter: Send {
    /// True if positioned on an entry.
    fn valid(&self) -> bool;
    /// Positions at the first entry.
    fn seek_to_first(&mut self);
    /// Positions at the first entry whose key is `>= target`.
    fn seek(&mut self, target: &[u8]);
    /// Advances one entry. Requires `valid()`.
    fn next(&mut self);
    /// Current key. Requires `valid()`.
    fn key(&self) -> &[u8];
    /// Current value. Requires `valid()`.
    fn value(&self) -> &[u8];
    /// The error that ended iteration early, if one did. In-memory
    /// sources never fail.
    fn status(&self) -> Result<()> {
        Ok(())
    }
}

/// An iterator over an owned entry vector, for tests: a source with no
/// table or memtable behind it. The entries must already be sorted by
/// internal key.
pub struct VecIter {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
}

impl VecIter {
    /// Wraps `entries`, which must be strictly increasing internal keys.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| internal_key_cmp(&w[0].0, &w[1].0) == Ordering::Less));
        let pos = entries.len();
        VecIter { entries, pos }
    }
}

impl KvIter for VecIter {
    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }

    fn seek_to_first(&mut self) {
        self.pos = 0;
    }

    fn seek(&mut self, target: &[u8]) {
        self.pos = self
            .entries
            .partition_point(|(k, _)| internal_key_cmp(k, target) == Ordering::Less);
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        self.pos += 1;
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

/// Merges N children, each sorted by internal key, into one stream in
/// internal-key order.
///
/// Ties go to the child with the lowest index, so callers should order
/// children newest-first when duplicate keys are possible (internal keys
/// never tie, since sequence numbers are unique).
///
/// Child counts in this system are small (a handful of tables per
/// compaction; shards × runs per scan, about 8 per shard), so the
/// smallest-child search is a linear scan — measurably faster than a
/// binary heap at these widths and free of per-advance allocation.
///
/// A merge with a failed child would silently miss that child's remaining
/// keys, so the first child error ends the merge: it turns `!valid()` and
/// reports the error through [`KvIter::status`] until the next `seek*`.
pub struct MergingIter {
    children: Vec<Box<dyn KvIter>>,
    current: Option<usize>,
    status: Result<()>,
}

impl MergingIter {
    /// Builds a merging iterator over `children`.
    pub fn new(children: Vec<Box<dyn KvIter>>) -> Self {
        MergingIter {
            children,
            current: None,
            status: Ok(()),
        }
    }

    /// The index of the child the current entry comes from; `None` when
    /// `!valid()`.
    pub fn current_child(&self) -> Option<usize> {
        self.current
    }

    /// Gives the children back, in their original order.
    pub fn into_children(self) -> Vec<Box<dyn KvIter>> {
        self.children
    }

    /// Records why `child` just turned invalid, if it was an error. Only
    /// called when a child runs out, so entries cost no status check.
    fn note_end_of(&mut self, child: usize) {
        if self.status.is_ok() && !self.children[child].valid() {
            self.status = self.children[child].status();
        }
    }

    fn find_smallest(&mut self) {
        if self.status.is_err() {
            self.current = None;
            return;
        }
        let mut best: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    if internal_key_cmp(child.key(), self.children[b].key()) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        self.current = best;
    }
}

impl KvIter for MergingIter {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) {
        self.status = Ok(());
        for i in 0..self.children.len() {
            self.children[i].seek_to_first();
            self.note_end_of(i);
        }
        self.find_smallest();
    }

    fn seek(&mut self, target: &[u8]) {
        self.status = Ok(());
        for i in 0..self.children.len() {
            self.children[i].seek(target);
            self.note_end_of(i);
        }
        self.find_smallest();
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` advances only when `valid()`, which is `current.is_some()`"
    )]
    fn next(&mut self) {
        let cur = self.current.expect("next on invalid iterator");
        self.children[cur].next();
        self.note_end_of(cur);
        self.find_smallest();
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the key only when `valid()`, which is `current.is_some()`"
    )]
    fn key(&self) -> &[u8] {
        self.children[self.current.expect("key on invalid iterator")].key()
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the value only when `valid()`, which is `current.is_some()`"
    )]
    fn value(&self) -> &[u8] {
        self.children[self.current.expect("value on invalid iterator")].value()
    }

    fn status(&self) -> Result<()> {
        copy_status(&self.status)
    }
}

/// Drains `it` from its current position into a vector (test helper and
/// small-scan convenience).
pub fn collect_remaining(it: &mut dyn KvIter) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{lookup_key, make_internal_key, user_key, ValueType, MAX_SEQUENCE};
    use crate::corruption;

    /// One version of each user key, all at sequence 1.
    fn entries(pairs: &[(&str, &str)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        pairs
            .iter()
            .map(|(k, v)| {
                let ikey = make_internal_key(k.as_bytes(), 1, ValueType::Value);
                (ikey, v.as_bytes().to_vec())
            })
            .collect()
    }

    /// A seek target before every version of `user`.
    fn at(user: &str) -> Vec<u8> {
        lookup_key(user.as_bytes(), MAX_SEQUENCE)
    }

    #[test]
    fn vec_iter_seek_semantics() {
        let mut it = VecIter::new(entries(&[("b", "1"), ("d", "2"), ("f", "3")]));
        it.seek(&at("c"));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"d");
        it.seek(&at("d"));
        assert_eq!(user_key(it.key()), b"d");
        it.seek(&at("g"));
        assert!(!it.valid());
        it.seek_to_first();
        assert_eq!(user_key(it.key()), b"b");
    }

    #[test]
    fn merge_two_interleaved_streams() {
        let a = VecIter::new(entries(&[("a", "1"), ("c", "3"), ("e", "5")]));
        let b = VecIter::new(entries(&[("b", "2"), ("d", "4"), ("f", "6")]));
        let mut m = MergingIter::new(vec![Box::new(a), Box::new(b)]);
        m.seek_to_first();
        let got = collect_remaining(&mut m);
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| user_key(k)).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c", b"d", b"e", b"f"]);
    }

    #[test]
    fn merge_ties_prefer_lowest_index() {
        // Both children hold the same internal key, k@1: a true tie.
        let newer = VecIter::new(entries(&[("k", "new")]));
        let older = VecIter::new(entries(&[("k", "old")]));
        let mut m = MergingIter::new(vec![Box::new(newer), Box::new(older)]);
        m.seek_to_first();
        assert_eq!(m.value(), b"new");
        m.next();
        // The duplicate from the older child still appears.
        assert!(m.valid());
        assert_eq!(m.value(), b"old");
    }

    #[test]
    fn merge_seek_positions_all_children() {
        let a = VecIter::new(entries(&[("a", "1"), ("z", "9")]));
        let b = VecIter::new(entries(&[("m", "5")]));
        let mut m = MergingIter::new(vec![Box::new(a), Box::new(b)]);
        m.seek(&at("b"));
        assert_eq!(user_key(m.key()), b"m");
        m.next();
        assert_eq!(user_key(m.key()), b"z");
        m.next();
        assert!(!m.valid());
    }

    /// Yields its entries, then fails — a table whose next block cannot
    /// be read.
    struct FailsAtEnd(VecIter);

    impl KvIter for FailsAtEnd {
        fn valid(&self) -> bool {
            self.0.valid()
        }
        fn seek_to_first(&mut self) {
            self.0.seek_to_first()
        }
        fn seek(&mut self, target: &[u8]) {
            self.0.seek(target)
        }
        fn next(&mut self) {
            self.0.next()
        }
        fn key(&self) -> &[u8] {
            self.0.key()
        }
        fn value(&self) -> &[u8] {
            self.0.value()
        }
        fn status(&self) -> Result<()> {
            if self.0.valid() {
                Ok(())
            } else {
                Err(corruption("unreadable"))
            }
        }
    }

    #[test]
    fn merge_ends_at_the_first_child_error() {
        let good = VecIter::new(entries(&[("a", "1"), ("c", "3"), ("e", "5")]));
        let bad = FailsAtEnd(VecIter::new(entries(&[("b", "2"), ("d", "4")])));
        let mut m = MergingIter::new(vec![Box::new(good), Box::new(bad)]);
        m.seek_to_first();
        assert!(m.status().is_ok());
        // "e" is withheld: the failed child may have held keys before it.
        let keys: Vec<Vec<u8>> = collect_remaining(&mut m)
            .into_iter()
            .map(|(k, _)| user_key(&k).to_vec())
            .collect();
        assert_eq!(keys, [b"a", b"b", b"c", b"d"]);
        assert_eq!(m.status().unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        // The error lasts until the next seek.
        m.seek(&at("a"));
        assert!(m.valid() && m.status().is_ok());
        m.seek(&at("e"));
        assert!(!m.valid() && m.status().is_err());
    }

    #[test]
    fn merge_with_empty_children() {
        let a = VecIter::new(Vec::new());
        let b = VecIter::new(entries(&[("x", "1")]));
        let c = VecIter::new(Vec::new());
        let mut m = MergingIter::new(vec![Box::new(a), Box::new(b), Box::new(c)]);
        m.seek_to_first();
        assert_eq!(collect_remaining(&mut m).len(), 1);
    }

    #[test]
    fn merge_of_nothing_is_invalid() {
        let mut m = MergingIter::new(Vec::new());
        m.seek_to_first();
        assert!(!m.valid());
        m.seek(&at("anything"));
        assert!(!m.valid());
    }

    #[test]
    fn merge_many_children_order() {
        // 8 children with strided keys; result must be globally sorted.
        let mut children: Vec<Box<dyn KvIter>> = Vec::new();
        for c in 0..8 {
            let ents: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
                .map(|i| {
                    let user = format!("{:05}", i * 8 + c);
                    (make_internal_key(user.as_bytes(), 1, ValueType::Value), vec![c as u8])
                })
                .collect();
            children.push(Box::new(VecIter::new(ents)));
        }
        let mut m = MergingIter::new(children);
        m.seek_to_first();
        let got = collect_remaining(&mut m);
        assert_eq!(got.len(), 400);
        assert!(got
            .windows(2)
            .all(|w| internal_key_cmp(&w[0].0, &w[1].0) == Ordering::Less));
    }
}
