//! The read path: one consistent view per call, point lookups through
//! memtables and tables newest first, and scan cursors.

use super::{Db, DbInner};
use crate::iter::{DbIter, LevelIter};
use crate::memtable::Memtable;
use crate::version::{Version, NUM_LEVELS};
use pcp_sstable::key::{lookup_key, parse_internal_key, SequenceNumber, ValueType};
use pcp_sstable::readahead::first_span_blocks;
use pcp_sstable::KvIter;
use std::io;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

impl Db {
    /// Reads the newest visible value for `key`.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        // One lock acquisition captures the sequence *and* the component
        // refs (they must come from the same instant anyway for the read
        // to be consistent).
        let (seq, mem, imm, version) = self.inner.read_view();
        self.inner
            .get_in_view(&mem, imm.as_ref(), &version, key, seq)
    }

    /// Reads `key` at an explicit sequence.
    pub fn get_at(&self, key: &[u8], snapshot: SequenceNumber) -> io::Result<Option<Vec<u8>>> {
        let (_, mem, imm, version) = self.inner.read_view();
        self.inner
            .get_in_view(&mem, imm.as_ref(), &version, key, snapshot)
    }

    /// Scan cursor at the latest sequence.
    pub fn iter(&self) -> DbIter {
        let (seq, mem, imm, version) = self.inner.read_view();
        self.build_iter(mem, imm, version, seq)
    }

    /// Scan cursor at an explicit sequence.
    pub fn iter_at(&self, snapshot: SequenceNumber) -> DbIter {
        let (_, mem, imm, version) = self.inner.read_view();
        self.build_iter(mem, imm, version, snapshot)
    }

    fn build_iter(
        &self,
        mem: Arc<Memtable>,
        imm: Option<Arc<Memtable>>,
        version: Arc<Version>,
        snapshot: SequenceNumber,
    ) -> DbIter {
        let inner = &*self.inner;
        let mut children: Vec<Box<dyn KvIter>> = Vec::new();
        children.push(Box::new(mem.iter()));
        if let Some(imm) = imm {
            children.push(Box::new(imm.iter()));
        }
        // Level-0 tables overlap, so each is a run of its own; either way
        // the `LevelIter` opens tables lazily and keeps an open error.
        let level0 = version.levels[0].iter().map(|f| vec![Arc::clone(f)]);
        let deeper = version.levels[1..]
            .iter()
            .filter(|l| !l.is_empty())
            .cloned();
        let runs: Vec<_> = level0
            .chain(deeper)
            .map(|run| (run.iter().map(|f| f.size).sum::<u64>(), run))
            .collect();
        // A seek reads each run once: its first span is the run's share of
        // the view, the largest run's being the cap.
        let largest = runs.iter().map(|(bytes, _)| *bytes).max().unwrap_or(0);
        for (bytes, run) in runs {
            let first_span = first_span_blocks(bytes, largest);
            children.push(Box::new(LevelIter::new(
                run,
                Arc::clone(&inner.cache),
                first_span,
            )));
        }
        DbIter::new(children, snapshot).pin_version(version)
    }
}

impl DbInner {
    /// Captures a consistent read view — the published sequence plus the
    /// live memtable/imm/version refs — under a single lock acquisition.
    #[allow(clippy::type_complexity)]
    fn read_view(
        &self,
    ) -> (
        SequenceNumber,
        Arc<Memtable>,
        Option<Arc<Memtable>>,
        Arc<Version>,
    ) {
        let st = self.state.lock();
        (
            st.versions.last_sequence(),
            st.mem.clone(),
            st.imm.clone(),
            st.versions.current(),
        )
    }

    /// Point lookup against an already-captured view.
    fn get_in_view(
        &self,
        mem: &Memtable,
        imm: Option<&Arc<Memtable>>,
        version: &Version,
        key: &[u8],
        snapshot: SequenceNumber,
    ) -> io::Result<Option<Vec<u8>>> {
        self.metrics.gets.fetch_add(1, AtomicOrdering::Relaxed);
        if let Some(hit) = mem.get(key, snapshot) {
            return Ok(hit);
        }
        if let Some(imm) = imm {
            if let Some(hit) = imm.get(key, snapshot) {
                return Ok(hit);
            }
        }
        self.search_tables(version, key, snapshot)
    }

    fn search_tables(
        &self,
        version: &Version,
        key: &[u8],
        snapshot: SequenceNumber,
    ) -> io::Result<Option<Vec<u8>>> {
        let target = lookup_key(key, snapshot);
        // L0: newest first; files may overlap.
        for f in &version.levels[0] {
            if !f.overlaps_user_range(Some(key), Some(key)) {
                continue;
            }
            if let Some(found) = self.search_one_table(f.number, &target, key)? {
                return Ok(found);
            }
        }
        for level in 1..NUM_LEVELS {
            let Some(f) = version.file_for_key(level, key) else {
                continue;
            };
            if let Some(found) = self.search_one_table(f.number, &target, key)? {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Returns `Some(outcome)` when this table decides the lookup:
    /// `Some(Some(v))` live value, `Some(None)` tombstone.
    fn search_one_table(
        &self,
        number: u64,
        target: &[u8],
        key: &[u8],
    ) -> io::Result<Option<Option<Vec<u8>>>> {
        if let Some((ikey, value)) = self.cache.get(number)?.get(target)? {
            let parsed = parse_internal_key(&ikey)
                .ok_or_else(|| pcp_sstable::corruption("malformed key in table"))?;
            if parsed.user_key == key {
                return Ok(Some(match parsed.value_type {
                    ValueType::Value => Some(value),
                    ValueType::Deletion => None,
                }));
            }
        }
        Ok(None)
    }
}
