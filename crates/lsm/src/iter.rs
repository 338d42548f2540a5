//! Read-path iterators: per-level concatenation and the user-facing
//! snapshot-consistent scan cursor.

use crate::version::{FileMetadata, Version};
use pcp_compaction::TableCache;
use pcp_sstable::key::{
    internal_key_cmp, lookup_key, parse_internal_key, SequenceNumber, ValueType, MAX_SEQUENCE,
};
use pcp_sstable::{copy_status, KvIter, MergingIter, TableIter};
use std::cmp::Ordering;
use std::io;
use std::sync::Arc;

/// Concatenating iterator over one sorted, disjoint run of tables (a
/// level ≥ 1, or a single level-0 table): walks the file list, opening one
/// table at a time through the cache.
///
/// The run's first span length goes to every table it enters, so crossing
/// into the next table costs one span read of that length, and the table's
/// cursor books the span after it at once (`seek_to_first`).
pub struct LevelIter {
    files: Vec<Arc<FileMetadata>>,
    cache: Arc<TableCache>,
    /// Blocks in a table cursor's first span after it is positioned.
    first_span: usize,
    /// Index of the file the current cursor is in.
    index: usize,
    table_iter: Option<TableIter>,
    /// A table that could not be opened ends the run here, like a failed
    /// block load ends a [`TableIter`].
    opened: io::Result<()>,
}

impl LevelIter {
    /// Builds a cursor over `files`, which must be sorted by smallest key
    /// and disjoint (a version's level ≥ 1 file list), whose table cursors
    /// read `first_span` blocks in their first span
    /// ([`pcp_sstable::readahead::first_span_blocks`]).
    pub fn new(
        files: Vec<Arc<FileMetadata>>,
        cache: Arc<TableCache>,
        first_span: usize,
    ) -> LevelIter {
        let index = files.len();
        LevelIter {
            files,
            cache,
            first_span,
            index,
            table_iter: None,
            opened: Ok(()),
        }
    }

    /// Opens the table at `self.index` and positions its cursor with
    /// `position`; past the last file there is no cursor.
    fn enter_table(&mut self, position: impl FnOnce(&mut TableIter)) {
        self.opened = Ok(());
        self.table_iter = self.files.get(self.index).and_then(|meta| {
            match self.cache.get(meta.number) {
                Ok(reader) => {
                    let mut t = reader.iter_with_span(self.first_span);
                    position(&mut t);
                    Some(t)
                }
                Err(e) => {
                    self.opened = Err(e);
                    None
                }
            }
        });
    }

    /// Moves on from exhausted tables — not from a failed one, whose keys
    /// would go missing.
    fn skip_to_valid(&mut self) {
        while !self.valid() && self.status().is_ok() && self.index < self.files.len() {
            self.index += 1;
            self.enter_table(TableIter::seek_to_first);
        }
    }
}

impl KvIter for LevelIter {
    fn valid(&self) -> bool {
        self.table_iter.as_ref().is_some_and(|t| t.valid())
    }

    fn seek_to_first(&mut self) {
        self.index = 0;
        self.enter_table(TableIter::seek_to_first);
        self.skip_to_valid();
    }

    fn seek(&mut self, target: &[u8]) {
        // First file whose largest key >= target.
        self.index = self
            .files
            .partition_point(|f| internal_key_cmp(&f.largest, target) == Ordering::Less);
        self.enter_table(|t| t.seek(target));
        self.skip_to_valid();
    }

    fn next(&mut self) {
        if let Some(t) = &mut self.table_iter {
            t.next();
        }
        self.skip_to_valid();
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the key only when `valid()`, which implies a table iterator"
    )]
    fn key(&self) -> &[u8] {
        self.table_iter.as_ref().expect("valid").key()
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the value only when `valid()`, which implies a table iterator"
    )]
    fn value(&self) -> &[u8] {
        self.table_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> io::Result<()> {
        copy_status(&self.opened)?;
        self.table_iter.as_ref().map_or(Ok(()), |t| t.status())
    }
}

/// User-facing scan cursor: one internal-key merge over every source,
/// then snapshot visibility (each source's entries at sequence ≤ its read
/// sequence), per-user-key version collapse, and tombstone suppression.
/// Yields **user** keys and live values only.
///
/// One database's sources all read at one sequence. [`DbIter::merge`]
/// joins the cursors of several databases whose user keys are disjoint —
/// the shards of one keyspace — into a single merge in which each source
/// keeps its own database's sequence.
pub struct DbIter {
    merged: MergingIter,
    /// The read sequence of each child of `merged`, by child index.
    sequences: Vec<SequenceNumber>,
    current_key: Vec<u8>,
    current_value: Vec<u8>,
    valid: bool,
    /// Keeps the source versions alive so file GC cannot delete (and the
    /// simulated filesystem cannot reuse the extents of) tables this
    /// cursor still reads. See `VersionSet::live_files`.
    pinned: Vec<Arc<Version>>,
}

impl DbIter {
    /// Merges `sources` (sorted by internal key, newest first on ties) and
    /// reads them all at `snapshot`.
    pub fn new(sources: Vec<Box<dyn KvIter>>, snapshot: SequenceNumber) -> DbIter {
        DbIter {
            sequences: vec![snapshot; sources.len()],
            merged: MergingIter::new(sources),
            current_key: Vec::new(),
            current_value: Vec::new(),
            valid: false,
            pinned: Vec::new(),
        }
    }

    /// Pins `version` for this cursor's lifetime (required when the
    /// sources include on-disk tables of a live database).
    pub fn pin_version(mut self, version: Arc<Version>) -> DbIter {
        self.pinned.push(version);
        self
    }

    /// One cursor over every part's sources, taking over their sources,
    /// read sequences and pinned versions. The parts' user keys must be
    /// disjoint: a user key's versions then all come from one part, so
    /// reading each source at its own part's sequence yields exactly what
    /// the parts would yield one after another, in one key order.
    pub fn merge(parts: Vec<DbIter>) -> DbIter {
        let mut all = DbIter::new(Vec::new(), 0);
        let mut sources = Vec::new();
        for part in parts {
            sources.extend(part.merged.into_children());
            all.sequences.extend(part.sequences);
            all.pinned.extend(part.pinned);
        }
        all.merged = MergingIter::new(sources);
        all
    }

    /// True if positioned on a live user entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// The read error that ended the scan early, if one did: a cursor that
    /// is `!valid()` has seen every live key only when this is `Ok`.
    pub fn status(&self) -> io::Result<()> {
        self.merged.status()
    }

    /// Current user key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.current_key
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.current_value
    }

    /// Positions at the first live user key.
    pub fn seek_to_first(&mut self) {
        self.merged.seek_to_first();
        self.find_next_user_entry(false);
    }

    /// Positions at the first live user key `>= target`.
    pub fn seek(&mut self, target: &[u8]) {
        // Before every version of `target`: the sources read at different
        // sequences, so the visibility check below does the skipping.
        self.merged.seek(&lookup_key(target, MAX_SEQUENCE));
        self.find_next_user_entry(false);
    }

    /// Advances to the next live user key.
    pub fn next(&mut self) {
        debug_assert!(self.valid);
        self.find_next_user_entry(true);
    }

    /// Scans forward for the newest visible version of the next user key,
    /// skipping tombstoned keys and, when `skipping`, every further
    /// version of `current_key`. Allocates nothing per step: the key it
    /// skips is `current_key` itself.
    #[expect(
        clippy::expect_used,
        reason = "every source yields internal keys: memtable keys from `make_internal_key`, \
                  table keys out of checksum-verified blocks this engine wrote"
    )]
    fn find_next_user_entry(&mut self, mut skipping: bool) {
        self.valid = false;
        while let Some(child) = self.merged.current_child() {
            let parsed = parse_internal_key(self.merged.key()).expect("well-formed internal key");
            if parsed.sequence > self.sequences[child]
                || (skipping && parsed.user_key == self.current_key.as_slice())
            {
                self.merged.next();
                continue;
            }
            self.current_key.clear();
            self.current_key.extend_from_slice(parsed.user_key);
            match parsed.value_type {
                ValueType::Deletion => {
                    // Key is dead at this snapshot; skip all its versions.
                    skipping = true;
                    self.merged.next();
                }
                ValueType::Value => {
                    self.current_value.clear();
                    self.current_value.extend_from_slice(self.merged.value());
                    self.valid = true;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod level_iter_tests {
    use super::*;
    use pcp_compaction::filename::table_file;
    use pcp_sstable::key::{make_internal_key, user_key, MAX_SEQUENCE};
    use pcp_sstable::readahead::MAX_SPAN_BLOCKS;
    use pcp_sstable::{TableBuilder, TableBuilderOptions};
    use pcp_storage::{EnvRef, SimDevice, SimEnv};

    /// Builds a level of three disjoint tables covering key ranges
    /// [0,99], [200,299], [400,499], in blocks of `block_size` bytes.
    fn level_fixture(block_size: usize) -> (Arc<TableCache>, Vec<Arc<FileMetadata>>) {
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let mut files = Vec::new();
        for (number, base) in [(1u64, 0u64), (2, 200), (3, 400)] {
            let f = env.create(&table_file(number)).unwrap();
            let opts = TableBuilderOptions { block_size, ..Default::default() };
            let mut b = TableBuilder::new(f, opts);
            let mut smallest = Vec::new();
            let mut largest = Vec::new();
            for i in 0..100u64 {
                let ik = make_internal_key(
                    format!("k{:04}", base + i).as_bytes(),
                    i + 1,
                    ValueType::Value,
                );
                if smallest.is_empty() {
                    smallest = ik.clone();
                }
                largest = ik.clone();
                b.add(&ik, format!("v{}", base + i).as_bytes()).unwrap();
            }
            let stats = b.finish().unwrap().stats();
            files.push(Arc::new(FileMetadata {
                number,
                size: stats.file_size,
                entries: stats.entries,
                smallest,
                largest,
            }));
        }
        (Arc::new(TableCache::new(env)), files)
    }

    #[test]
    fn full_scan_concatenates_all_files() {
        let (cache, files) = level_fixture(4096);
        let mut it = LevelIter::new(files, cache, MAX_SPAN_BLOCKS);
        it.seek_to_first();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while it.valid() {
            if let Some(p) = &prev {
                assert_eq!(
                    internal_key_cmp(p, it.key()),
                    Ordering::Less,
                    "ordering across file boundaries"
                );
            }
            prev = Some(it.key().to_vec());
            count += 1;
            it.next();
        }
        assert_eq!(count, 300);
    }

    #[test]
    fn seek_lands_within_and_between_files() {
        let (cache, files) = level_fixture(4096);
        let mut it = LevelIter::new(files, cache, MAX_SPAN_BLOCKS);
        // Inside the second file.
        it.seek(&make_internal_key(b"k0250", MAX_SEQUENCE, ValueType::Value));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"k0250");
        // In the gap between files 1 and 2: lands on file 2's first key.
        it.seek(&make_internal_key(b"k0150", MAX_SEQUENCE, ValueType::Value));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"k0200");
        // Before everything.
        it.seek(&make_internal_key(b"a", MAX_SEQUENCE, ValueType::Value));
        assert_eq!(user_key(it.key()), b"k0000");
        // Past everything.
        it.seek(&make_internal_key(b"z", MAX_SEQUENCE, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn next_crosses_file_boundary() {
        let (cache, files) = level_fixture(4096);
        let mut it = LevelIter::new(files, cache, MAX_SPAN_BLOCKS);
        it.seek(&make_internal_key(b"k0099", MAX_SEQUENCE, ValueType::Value));
        assert_eq!(user_key(it.key()), b"k0099");
        it.next();
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"k0200", "crossed into the next file");
    }

    /// Crossing into the next table costs one span read at the run's
    /// length, not a ramp that starts over, and books the span after it,
    /// twice as long or to the table's end.
    #[test]
    fn next_table_is_entered_with_a_span_of_the_runs_length_and_books_the_next() {
        let (cache, files) = level_fixture(256);
        let stats = Arc::clone(cache.scan_stats());
        let blocks = cache.get(2).unwrap().stats().data_blocks;
        assert!(blocks > 3, "{blocks} blocks");
        let mut it = LevelIter::new(files, cache, 3);
        it.seek(&make_internal_key(b"k0099", MAX_SEQUENCE, ValueType::Value));
        assert_eq!(user_key(it.key()), b"k0099");
        let (spans, prefetched) = (stats.spans(), stats.blocks_prefetched());
        it.next();
        assert_eq!(user_key(it.key()), b"k0200", "crossed into the next file");
        let read = (
            stats.spans() - spans,
            stats.blocks_prefetched() - prefetched,
        );
        assert_eq!(
            read,
            (2, 3 + (blocks - 3).min(6)),
            "(spans, blocks) read on entering the table"
        );
        assert_eq!(stats.sync_blocks(), 0);
    }

    #[test]
    fn empty_level_is_always_invalid() {
        let (cache, _) = level_fixture(4096);
        let mut it = LevelIter::new(Vec::new(), cache, MAX_SPAN_BLOCKS);
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(b"anything-with-trailerXX");
        assert!(!it.valid());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;
    use pcp_sstable::key::make_internal_key;
    use pcp_sstable::VecIter;

    fn source(entries: Vec<(&[u8], u64, ValueType, &[u8])>) -> Box<dyn KvIter> {
        let mut v: Vec<(Vec<u8>, Vec<u8>)> = entries
            .into_iter()
            .map(|(k, s, t, val)| (make_internal_key(k, s, t), val.to_vec()))
            .collect();
        v.sort_by(|a, b| internal_key_cmp(&a.0, &b.0));
        Box::new(VecIter::new(v))
    }

    fn db_iter(sources: Vec<Box<dyn KvIter>>, snapshot: u64) -> DbIter {
        DbIter::new(sources, snapshot)
    }

    fn drain(it: &mut DbIter) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        out
    }

    #[test]
    fn newest_version_wins() {
        let s = source(vec![
            (b"k", 1, ValueType::Value, b"old"),
            (b"k", 9, ValueType::Value, b"new"),
        ]);
        let mut it = db_iter(vec![s], 100);
        it.seek_to_first();
        assert_eq!(drain(&mut it), vec![(b"k".to_vec(), b"new".to_vec())]);
    }

    #[test]
    fn tombstoned_keys_are_invisible() {
        let s = source(vec![
            (b"a", 1, ValueType::Value, b"va"),
            (b"b", 2, ValueType::Value, b"vb"),
            (b"b", 5, ValueType::Deletion, b""),
            (b"c", 3, ValueType::Value, b"vc"),
        ]);
        let mut it = db_iter(vec![s], 100);
        it.seek_to_first();
        let got = drain(&mut it);
        assert_eq!(
            got.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
            vec![b"a".as_slice(), b"c"]
        );
    }

    #[test]
    fn snapshot_hides_later_writes_and_deletes() {
        let s = source(vec![
            (b"k", 3, ValueType::Value, b"v3"),
            (b"k", 7, ValueType::Deletion, b""),
            (b"k", 9, ValueType::Value, b"v9"),
        ]);
        // Snapshot 5: only seq-3 value visible.
        let mut it = db_iter(
            vec![source(vec![
                (b"k", 3, ValueType::Value, b"v3"),
                (b"k", 7, ValueType::Deletion, b""),
                (b"k", 9, ValueType::Value, b"v9"),
            ])],
            5,
        );
        it.seek_to_first();
        assert_eq!(drain(&mut it), vec![(b"k".to_vec(), b"v3".to_vec())]);
        // Snapshot 8: delete at 7 is visible → key gone.
        let mut it = db_iter(vec![s], 8);
        it.seek_to_first();
        assert!(drain(&mut it).is_empty());
    }

    #[test]
    fn seek_lands_on_live_successor() {
        let s = source(vec![
            (b"a", 1, ValueType::Value, b"1"),
            (b"b", 2, ValueType::Deletion, b""),
            (b"c", 3, ValueType::Value, b"3"),
        ]);
        let mut it = db_iter(vec![s], 100);
        it.seek(b"b");
        assert!(it.valid());
        assert_eq!(it.key(), b"c");
        it.seek(b"a");
        assert_eq!(it.key(), b"a");
        it.seek(b"d");
        assert!(!it.valid());
    }

    #[test]
    fn merge_across_sources_prefers_newest() {
        // Memtable-like source shadows table-like source.
        let newer = source(vec![(b"k", 9, ValueType::Value, b"mem")]);
        let older = source(vec![
            (b"k", 2, ValueType::Value, b"disk"),
            (b"z", 1, ValueType::Value, b"zz"),
        ]);
        let mut it = db_iter(vec![newer, older], 100);
        it.seek_to_first();
        assert_eq!(
            drain(&mut it),
            vec![
                (b"k".to_vec(), b"mem".to_vec()),
                (b"z".to_vec(), b"zz".to_vec())
            ]
        );
    }

    /// Two arena memtables with disjoint user keys, like two shards, each
    /// read at its own sequence in one merge. The parts' own handles are
    /// gone before the cursor drains: the merged cursor keeps the arenas.
    #[test]
    fn merge_reads_each_part_at_its_own_sequence() {
        let left = Arc::new(Memtable::new());
        for i in 0..100u64 {
            left.insert(format!("a{i:02}").as_bytes(), i + 1, ValueType::Value, b"old");
        }
        left.insert(b"a05", 101, ValueType::Value, b"new");
        left.insert(b"a06", 102, ValueType::Deletion, b"");
        let right = Arc::new(Memtable::new());
        for i in 0..5u64 {
            right.insert(format!("b{i}").as_bytes(), i + 1, ValueType::Value, b"old");
        }
        right.insert(b"b0", 6, ValueType::Value, b"new");
        right.insert(b"b1", 7, ValueType::Deletion, b"");
        right.insert(b"b9", 8, ValueType::Value, b"new");

        let at = |mem: &Arc<Memtable>, seq| DbIter::new(vec![Box::new(mem.iter())], seq);
        let mut it = DbIter::merge(vec![at(&left, 100), at(&right, 5)]);
        drop((left, right));

        it.seek_to_first();
        let got = drain(&mut it);
        let want: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
            .map(|i| format!("a{i:02}"))
            .chain((0..5).map(|i| format!("b{i}")))
            .map(|k| (k.into_bytes(), b"old".to_vec()))
            .collect();
        assert_eq!(got, want, "a source was read at the other part's sequence");

        it.seek(b"a99");
        assert_eq!(
            drain(&mut it).into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            [&b"a99"[..], b"b0", b"b1", b"b2", b"b3", b"b4"]
        );
    }
}
