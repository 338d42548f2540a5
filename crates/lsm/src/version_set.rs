//! The version chain, the MANIFEST log, and compaction picking.
//!
//! Every structural change (flush, compaction) is a [`VersionEdit`] applied
//! to the current [`Version`] and appended to the MANIFEST; on open, the
//! manifest named by `CURRENT` is replayed to rebuild the level structure.
//!
//! Compaction picking follows LevelDB: level 0 triggers on file count,
//! deeper levels on total bytes against an exponentially growing budget;
//! within a level, a round-robin *compact pointer* walks the key space so
//! successive compactions cover different key ranges (paper §II-A: "the
//! compaction procedure picks T22 in C2 and the overlapping T32, T33 in
//! C3").

use crate::edit::VersionEdit;
use crate::version::{compaction_score, l0_batch, FileMetadata, Version, NUM_LEVELS};
use crate::wal::{WalReader, WalWriter};
use pcp_compaction::filename::{manifest_file, CURRENT};
use pcp_sstable::key::{internal_key_cmp, user_key};
use pcp_storage::env::{read_string_file, write_string_file};
use pcp_storage::{Env, EnvRef};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Weak};

/// Thresholds steering when and what to compact.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// L0 file count that makes level 0 eligible; at three times it,
    /// writers stop until a merge drains level 0.
    pub l0_trigger: usize,
    /// Byte budget of level 1.
    pub base_level_bytes: u64,
    /// Per-level budget multiplier (C_{i+1} = multiplier × C_i).
    pub level_multiplier: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 10 << 20,
            level_multiplier: 10,
        }
    }
}

/// What the picker decided.
#[derive(Debug, Clone)]
pub enum CompactionPick {
    /// A single upper file with no lower overlap: just re-link it one level
    /// down — no I/O, no computation.
    TrivialMove {
        level: usize,
        file: Arc<FileMetadata>,
    },
    /// A real merge of `inputs_upper` (level `level`) with `inputs_lower`
    /// (level `level + 1`).
    Merge {
        level: usize,
        inputs_upper: Vec<Arc<FileMetadata>>,
        inputs_lower: Vec<Arc<FileMetadata>>,
        /// Value to store as the level's compact pointer once done.
        pointer_key: Vec<u8>,
    },
}

/// Owns the current version, the counters, and the manifest log.
pub struct VersionSet {
    env: EnvRef,
    current: Arc<Version>,
    next_file: Arc<AtomicU64>,
    last_sequence: u64,
    log_number: u64,
    /// The manifest edits are appended to; `None` from open until the
    /// first edit rolls one, and after a failed write abandoned it.
    manifest: Option<WalWriter>,
    /// The manifest `CURRENT` names, which the next roll replaces; `None`
    /// for a store that has none yet.
    manifest_name: Option<String>,
    compact_pointers: Vec<Vec<u8>>,
    /// Every version ever installed that may still be referenced by a
    /// reader (get/iterator snapshot). File GC must keep any file any of
    /// these can see — deleting under a live reader would corrupt reads
    /// (the simulated filesystem reuses extents immediately).
    retained: Vec<Weak<Version>>,
}

/// The manifest an edit is appended to.
enum Manifest {
    Open(WalWriter),
    /// None is open: a fresh manifest file `number` starts with the
    /// full-state record `snapshot` and replaces `old`.
    Roll {
        number: u64,
        snapshot: Vec<u8>,
        old: Option<String>,
    },
}

/// An edit [`VersionSet::prepare`]d under the caller's lock: the next
/// version is built and the record encoded, so the MANIFEST append and sync
/// of [`PendingEdit::write`] need no lock. Dropped unwritten or after a
/// failed write, it abandons the manifest it took: the next edit rolls a
/// fresh one and repoints CURRENT atomically, since appending after a
/// possibly torn record would hide every later edit from recovery. The
/// first edit after [`VersionSet::open`] rolls one the same way.
pub struct PendingEdit {
    env: EnvRef,
    edit: VersionEdit,
    next: Version,
    record: Vec<u8>,
    manifest: Manifest,
}

impl PendingEdit {
    /// Appends and syncs the record — into a fresh manifest when none is
    /// open.
    pub fn write(self) -> io::Result<LoggedEdit> {
        let PendingEdit {
            env,
            edit,
            next,
            record,
            manifest,
        } = self;
        let (manifest, rolled) = match manifest {
            Manifest::Open(mut writer) => {
                writer.add_record(&record)?;
                writer.sync()?;
                (writer, None)
            }
            Manifest::Roll {
                number,
                snapshot,
                old,
            } => {
                let writer = roll_manifest(&*env, number, [&snapshot, &record], old.as_deref())?;
                (writer, Some(manifest_file(number)))
            }
        };
        Ok(LoggedEdit {
            edit,
            next,
            manifest,
            rolled,
        })
    }
}

/// An edit on the MANIFEST, ready for [`VersionSet::install`].
pub struct LoggedEdit {
    edit: VersionEdit,
    next: Version,
    manifest: WalWriter,
    /// The new manifest's name, when the write rolled one.
    rolled: Option<String>,
}

/// Creates manifest file `number` holding `records`, points CURRENT at it,
/// and deletes `old`, the manifest CURRENT named before. Until CURRENT
/// names it the new file is nobody's, so a failure before then deletes
/// it; CURRENT still names `old`.
fn roll_manifest(
    env: &dyn Env,
    number: u64,
    records: [&[u8]; 2],
    old: Option<&str>,
) -> io::Result<WalWriter> {
    let name = manifest_file(number);
    let written = WalWriter::create(env, &name).and_then(|mut writer| {
        for record in records {
            writer.add_record(record)?;
        }
        writer.sync()?;
        write_string_file(env, CURRENT, &name)?;
        Ok(writer)
    });
    let writer = match written {
        Ok(writer) => writer,
        Err(e) => {
            let _ = env.delete(&name);
            return Err(e);
        }
    };
    if let Some(old) = old {
        let _ = env.delete(old);
    }
    Ok(writer)
}

impl VersionSet {
    /// Opens (recovering from an existing CURRENT/MANIFEST) or creates a
    /// fresh version set. It writes nothing: the first edit rolls a fresh
    /// manifest, so an open that fails before that leaves the store as it
    /// found it.
    pub fn open(env: EnvRef) -> io::Result<VersionSet> {
        let mut vs = VersionSet {
            env: Arc::clone(&env),
            current: Arc::new(Version::empty()),
            next_file: Arc::new(AtomicU64::new(1)),
            last_sequence: 0,
            log_number: 0,
            manifest: None,
            manifest_name: None,
            compact_pointers: vec![Vec::new(); NUM_LEVELS],
            retained: Vec::new(),
        };
        if env.exists(CURRENT) {
            vs.recover()?;
        }
        vs.retain_current();
        Ok(vs)
    }

    fn recover(&mut self) -> io::Result<()> {
        let manifest_name = read_string_file(&*self.env, CURRENT)?;
        let manifest_name = self.manifest_name.insert(manifest_name.trim().to_string());
        let mut reader = WalReader::open(&*self.env, manifest_name)?;
        let mut version = Version::empty();
        // Replay stops at a torn or corrupt tail: that is an edit that
        // never committed, and the prefix before it is a consistent state.
        while let Some(record) = reader.next_record()? {
            let edit = VersionEdit::decode(&record)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            version = Self::apply(&version, &edit);
            if let Some(v) = edit.next_file_number {
                self.next_file.store(v, AtomicOrdering::SeqCst);
            }
            if let Some(v) = edit.last_sequence {
                self.last_sequence = v;
            }
            if let Some(v) = edit.log_number {
                self.log_number = v;
            }
            for (level, key) in edit.compact_pointers {
                self.compact_pointers[level] = key;
            }
        }
        version
            .check_invariants()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.current = Arc::new(version);
        Ok(())
    }

    /// The full state as one edit: what a fresh manifest starts with.
    fn snapshot_edit(&self) -> VersionEdit {
        VersionEdit {
            log_number: Some(self.log_number),
            next_file_number: Some(self.next_file.load(AtomicOrdering::SeqCst)),
            last_sequence: Some(self.last_sequence),
            compact_pointers: self
                .compact_pointers
                .iter()
                .enumerate()
                .filter(|(_, k)| !k.is_empty())
                .map(|(l, k)| (l, k.clone()))
                .collect(),
            deleted_files: Vec::new(),
            new_files: self
                .current
                .levels
                .iter()
                .enumerate()
                .flat_map(|(l, files)| files.iter().map(move |f| (l, Arc::clone(f))))
                .collect(),
        }
    }

    fn apply(base: &Version, edit: &VersionEdit) -> Version {
        let mut levels = base.levels.clone();
        for (level, number) in &edit.deleted_files {
            levels[*level].retain(|f| f.number != *number);
        }
        for (level, file) in &edit.new_files {
            levels[*level].push(Arc::clone(file));
        }
        // Level 0: newest flush first (higher file number = newer).
        levels[0].sort_by_key(|f| std::cmp::Reverse(f.number));
        // Deeper levels: sorted by smallest key.
        for level in levels.iter_mut().skip(1) {
            level.sort_by(|a, b| internal_key_cmp(&a.smallest, &b.smallest));
        }
        Version { levels }
    }

    /// The part of an install that needs the version set: fills the edit's
    /// counters, builds the next version, encodes the record, and takes
    /// the manifest out for [`PendingEdit::write`]. The caller must install
    /// or drop the result before it prepares another edit: until then no
    /// manifest is open, and a dropped one stays abandoned.
    pub fn prepare(&mut self, mut edit: VersionEdit) -> PendingEdit {
        if edit.next_file_number.is_none() {
            edit.next_file_number = Some(self.next_file.load(AtomicOrdering::SeqCst));
        }
        if edit.last_sequence.is_none() {
            edit.last_sequence = Some(self.last_sequence);
        }
        if edit.log_number.is_none() {
            edit.log_number = Some(self.log_number);
        }
        let next = Self::apply(&self.current, &edit);
        debug_assert!(
            next.check_invariants().is_ok(),
            "{:?}",
            next.check_invariants()
        );
        let manifest = match self.manifest.take() {
            Some(writer) => Manifest::Open(writer),
            // The first edit since open, or a previous failed write
            // abandoned the manifest (its tail may hold a torn record): the
            // write starts a fresh one with a full snapshot of the state
            // this edit applies to.
            None => Manifest::Roll {
                number: self.allocate_file_number(),
                snapshot: self.snapshot_edit().encode(),
                old: self.manifest_name.clone(),
            },
        };
        PendingEdit {
            env: Arc::clone(&self.env),
            record: edit.encode(),
            edit,
            next,
            manifest,
        }
    }

    /// Makes a written edit's version current, with its counters.
    pub fn install(&mut self, logged: LoggedEdit) {
        let LoggedEdit {
            edit,
            next,
            manifest,
            rolled,
        } = logged;
        self.manifest = Some(manifest);
        if rolled.is_some() {
            self.manifest_name = rolled;
        }
        if let Some(v) = edit.log_number {
            self.log_number = v;
        }
        if let Some(v) = edit.last_sequence {
            self.last_sequence = self.last_sequence.max(v);
        }
        for (level, key) in edit.compact_pointers {
            self.compact_pointers[level] = key;
        }
        self.current = Arc::new(next);
        self.retain_current();
    }

    /// Applies `edit`, persists it to the manifest, and installs the new
    /// current version in one call — for a caller that owns the version
    /// set alone (open, repair). The engine's lanes run the three steps
    /// themselves, the write with the state lock released.
    pub fn log_and_apply(&mut self, edit: VersionEdit) -> io::Result<()> {
        let logged = self.prepare(edit).write()?;
        self.install(logged);
        Ok(())
    }

    /// Tracks the freshly-installed version for GC pinning and prunes
    /// entries whose readers have all gone away.
    fn retain_current(&mut self) {
        self.retained.retain(|w| w.strong_count() > 0);
        self.retained.push(Arc::downgrade(&self.current));
    }

    /// The live version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocates a fresh file number.
    pub fn allocate_file_number(&self) -> u64 {
        self.next_file.fetch_add(1, AtomicOrdering::SeqCst)
    }

    /// Moves the allocator past `number`, found on a file the MANIFEST may
    /// not know (a job's output written after the last recorded edit): no
    /// number is handed out twice, and everything already on disk stays
    /// below [`VersionSet::next_file_number`].
    pub fn mark_file_number_used(&self, number: u64) {
        self.next_file.fetch_max(number + 1, AtomicOrdering::SeqCst);
    }

    /// The number the next allocation will return: every file created from
    /// now on is numbered at or above it.
    pub fn next_file_number(&self) -> u64 {
        self.next_file.load(AtomicOrdering::SeqCst)
    }

    /// Shared counter handle for compaction executors that allocate output
    /// file numbers outside the DB lock.
    pub fn file_number_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.next_file)
    }

    /// Highest sequence number ever assigned.
    pub fn last_sequence(&self) -> u64 {
        self.last_sequence
    }

    /// Records a new high-water sequence.
    pub fn set_last_sequence(&mut self, seq: u64) {
        debug_assert!(seq >= self.last_sequence);
        self.last_sequence = seq;
    }

    /// WAL number currently protecting the memtable.
    pub fn log_number(&self) -> u64 {
        self.log_number
    }

    /// File numbers referenced by the current version **or any older
    /// version a reader still holds** — the set GC must not touch.
    pub fn live_files(&self) -> HashSet<u64> {
        let mut live: HashSet<u64> = HashSet::new();
        let mut add = |v: &Version| {
            for f in v.levels.iter().flat_map(|l| l.iter()) {
                live.insert(f.number);
            }
        };
        add(&self.current);
        for w in &self.retained {
            if let Some(v) = w.upgrade() {
                add(&v);
            }
        }
        live
    }

    /// Picks the next compaction, if any level is over budget.
    pub fn pick_compaction(&self, policy: &CompactionPolicy) -> Option<CompactionPick> {
        let mut best_level = None;
        let mut best_score = 1.0f64;
        for level in 0..NUM_LEVELS - 1 {
            let score = compaction_score(
                &self.current,
                level,
                policy.l0_trigger,
                policy.base_level_bytes,
                policy.level_multiplier,
            );
            if score >= best_score {
                best_score = score;
                best_level = Some(level);
            }
        }
        let level = best_level?;
        Some(self.build_pick(level, policy))
    }

    /// Builds a pick for `level`, honouring the round-robin pointer.
    pub fn build_pick(&self, level: usize, policy: &CompactionPolicy) -> CompactionPick {
        let files = &self.current.levels[level];
        debug_assert!(!files.is_empty());
        let inputs_upper: Vec<Arc<FileMetadata>> = if level == 0 {
            // The oldest whole batches (level 0 is newest first): its
            // tables overlap each other, so whatever stays behind must be
            // newer than everything taken. Below the trigger, all of it.
            let take = match l0_batch(files.len(), policy.l0_trigger) {
                0 => files.len(),
                whole_batches => whole_batches,
            };
            files[files.len() - take..].to_vec()
        } else {
            let pointer = &self.compact_pointers[level];
            let start = if pointer.is_empty() {
                0
            } else {
                files
                    .iter()
                    .position(|f| internal_key_cmp(&f.largest, pointer) == Ordering::Greater)
                    .unwrap_or(0)
            };
            vec![Arc::clone(&files[start])]
        };

        match self.merge_pick(level, inputs_upper) {
            CompactionPick::Merge {
                mut inputs_upper,
                inputs_lower,
                ..
            } if level > 0 && inputs_upper.len() == 1 && inputs_lower.is_empty() => {
                CompactionPick::TrivialMove {
                    level,
                    file: inputs_upper.remove(0),
                }
            }
            pick => pick,
        }
    }

    /// Manual pick over a user-key range (benchmark/test hook).
    pub fn pick_range(
        &self,
        level: usize,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Option<CompactionPick> {
        let files = &self.current.levels[level];
        let inputs_upper = if level == 0 {
            // The rule of `build_pick`: level-0 tables overlap each other,
            // so whatever stays behind must be newer than everything taken —
            // every table at least as old as the newest one in range goes.
            let newest = files.iter().position(|f| f.overlaps_user_range(lo, hi))?;
            files[newest..].to_vec()
        } else {
            self.current.overlapping_files(level, lo, hi)
        };
        if inputs_upper.is_empty() {
            return None;
        }
        Some(self.merge_pick(level, inputs_upper))
    }

    /// The merge of `inputs_upper` (level `level`, not empty) with every
    /// table of the next level inside their user-key hull.
    #[expect(
        clippy::expect_used,
        reason = "`inputs_upper` is never empty: `build_pick` takes at least one table of a \
                  level that has some, and `pick_range` returns `None` on an empty range first"
    )]
    fn merge_pick(&self, level: usize, inputs_upper: Vec<Arc<FileMetadata>>) -> CompactionPick {
        let lo = inputs_upper
            .iter()
            .map(|f| user_key(&f.smallest))
            .min()
            .expect("inputs_upper is not empty");
        let hi = inputs_upper
            .iter()
            .map(|f| user_key(&f.largest))
            .max()
            .expect("inputs_upper is not empty");
        let inputs_lower = self
            .current
            .overlapping_files(level + 1, Some(lo), Some(hi));
        let pointer_key = inputs_upper
            .iter()
            .map(|f| f.largest.clone())
            .max_by(|a, b| internal_key_cmp(a, b))
            .expect("inputs_upper is not empty");
        CompactionPick::Merge {
            level,
            inputs_upper,
            inputs_lower,
            pointer_key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::key::{make_internal_key, ValueType};
    use pcp_storage::{SimDevice, SimEnv};

    fn env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))))
    }

    fn meta(number: u64, lo: &[u8], hi: &[u8], size: u64) -> Arc<FileMetadata> {
        Arc::new(FileMetadata {
            number,
            size,
            entries: 100,
            smallest: make_internal_key(lo, 50, ValueType::Value),
            largest: make_internal_key(hi, 1, ValueType::Value),
        })
    }

    /// A fresh open writes nothing; its first edit creates the manifest
    /// and CURRENT.
    #[test]
    fn fresh_open_creates_manifest_and_current() {
        let e = env();
        let mut vs = VersionSet::open(Arc::clone(&e)).unwrap();
        assert_eq!(e.list().unwrap(), Vec::<String>::new());
        assert_eq!(vs.current().total_entries(), 0);
        assert!(vs.pick_compaction(&CompactionPolicy::default()).is_none());
        vs.log_and_apply(VersionEdit::default()).unwrap();
        assert!(e.exists(CURRENT));
        let manifest = read_string_file(&*e, CURRENT).unwrap();
        assert!(e.exists(manifest.trim()), "{manifest}");
    }

    #[test]
    fn log_and_apply_then_recover() {
        let e = env();
        {
            let mut vs = VersionSet::open(Arc::clone(&e)).unwrap();
            let edit = VersionEdit {
                last_sequence: Some(500),
                new_files: vec![
                    (0, meta(10, b"a", b"m", 1 << 20)),
                    (1, meta(11, b"a", b"z", 2 << 20)),
                ],
                ..Default::default()
            };
            vs.log_and_apply(edit).unwrap();
            let edit2 = VersionEdit {
                deleted_files: vec![(0, 10)],
                new_files: vec![(1, meta(12, b"za", b"zz", 1 << 20))],
                compact_pointers: vec![(1, make_internal_key(b"z", 1, ValueType::Value))],
                ..Default::default()
            };
            vs.log_and_apply(edit2).unwrap();
        }
        // Recover in a new VersionSet.
        let vs = VersionSet::open(Arc::clone(&e)).unwrap();
        let v = vs.current();
        assert_eq!(v.level_files(0), 0);
        assert_eq!(v.level_files(1), 2);
        assert_eq!(vs.last_sequence(), 500);
        assert!(v.check_invariants().is_ok());
        let numbers: Vec<u64> = v.levels[1].iter().map(|f| f.number).collect();
        assert_eq!(numbers, vec![11, 12], "sorted by smallest key");
    }

    #[test]
    fn file_numbers_survive_recovery() {
        let e = env();
        let n1;
        {
            let vs = VersionSet::open(Arc::clone(&e)).unwrap();
            n1 = vs.allocate_file_number();
            let mut vs = vs;
            vs.log_and_apply(VersionEdit::default()).unwrap();
        }
        let vs = VersionSet::open(Arc::clone(&e)).unwrap();
        let n2 = vs.allocate_file_number();
        assert!(n2 > n1, "numbers must never be reused: {n1} then {n2}");
    }

    /// Level-0 picks take the oldest whole batches of `l0_trigger` tables,
    /// newest first, and a partial batch neither triggers nor outranks a
    /// deeper level.
    #[test]
    fn l0_pick_takes_the_oldest_whole_batches() {
        let policy = CompactionPolicy::default();
        assert_eq!(policy.l0_trigger, 4);
        let picked = |files: u64| -> Option<Vec<u64>> {
            let mut vs = VersionSet::open(env()).unwrap();
            let edit = VersionEdit {
                new_files: (1..=files)
                    .map(|i| (0, meta(i, b"a", b"z", 1 << 20)))
                    .collect(),
                ..Default::default()
            };
            vs.log_and_apply(edit).unwrap();
            match vs.pick_compaction(&policy)? {
                CompactionPick::Merge {
                    level,
                    inputs_upper,
                    inputs_lower,
                    ..
                } => {
                    assert_eq!(level, 0);
                    assert!(inputs_lower.is_empty());
                    Some(inputs_upper.iter().map(|f| f.number).collect())
                }
                other => panic!("expected merge, got {other:?}"),
            }
        };
        assert_eq!(picked(3), None);
        assert_eq!(picked(4), Some(vec![4, 3, 2, 1]));
        assert_eq!(picked(7), Some(vec![4, 3, 2, 1]), "5..7 are newer and stay");
        assert_eq!(picked(8), Some(vec![8, 7, 6, 5, 4, 3, 2, 1]));
        assert_eq!(picked(11), Some(vec![8, 7, 6, 5, 4, 3, 2, 1]));

        // Seven tables score one batch (1.0): an over-budget level 1 at
        // 1.5 goes first, where 7/4 = 1.75 would not have let it.
        let mut vs = VersionSet::open(env()).unwrap();
        let mut new_files: Vec<_> = (1..=7).map(|i| (0, meta(i, b"a", b"z", 1 << 20))).collect();
        new_files.push((1, meta(8, b"a", b"z", 15 << 20)));
        vs.log_and_apply(VersionEdit {
            new_files,
            ..Default::default()
        })
        .unwrap();
        let score = |level| {
            compaction_score(
                &vs.current(),
                level,
                policy.l0_trigger,
                policy.base_level_bytes,
                policy.level_multiplier,
            )
        };
        assert_eq!((score(0), score(1)), (1.0, 1.5));
        match vs.pick_compaction(&policy).unwrap() {
            CompactionPick::TrivialMove { level, .. } | CompactionPick::Merge { level, .. } => {
                assert_eq!(level, 1)
            }
        }
    }

    #[test]
    fn deep_level_pick_respects_pointer_and_finds_overlaps() {
        let e = env();
        let mut vs = VersionSet::open(e).unwrap();
        let edit = VersionEdit {
            new_files: vec![
                (1, meta(1, b"a", b"f", 20 << 20)), // oversized level 1
                (1, meta(2, b"g", b"p", 1 << 20)),
                (2, meta(3, b"c", b"h", 1 << 20)),
                (2, meta(4, b"q", b"z", 1 << 20)),
            ],
            ..Default::default()
        };
        vs.log_and_apply(edit).unwrap();
        match vs.pick_compaction(&CompactionPolicy::default()).unwrap() {
            CompactionPick::Merge {
                level,
                inputs_upper,
                inputs_lower,
                pointer_key,
            } => {
                assert_eq!(level, 1);
                assert_eq!(inputs_upper.len(), 1);
                assert_eq!(inputs_upper[0].number, 1);
                assert_eq!(inputs_lower.len(), 1);
                assert_eq!(inputs_lower[0].number, 3);
                assert_eq!(user_key(&pointer_key), b"f");
            }
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn trivial_move_when_no_lower_overlap() {
        let e = env();
        let mut vs = VersionSet::open(e).unwrap();
        let edit = VersionEdit {
            new_files: vec![
                (1, meta(1, b"a", b"c", 20 << 20)),
                (2, meta(2, b"x", b"z", 1 << 20)),
            ],
            ..Default::default()
        };
        vs.log_and_apply(edit).unwrap();
        match vs.pick_compaction(&CompactionPolicy::default()).unwrap() {
            CompactionPick::TrivialMove { level, file } => {
                assert_eq!(level, 1);
                assert_eq!(file.number, 1);
            }
            other => panic!("expected trivial move, got {other:?}"),
        }
    }

    #[test]
    fn round_robin_pointer_rotates_picks() {
        let e = env();
        let mut vs = VersionSet::open(e).unwrap();
        let edit = VersionEdit {
            new_files: vec![
                (1, meta(1, b"a", b"c", 11 << 20)),
                (1, meta(2, b"d", b"f", 11 << 20)),
            ],
            ..Default::default()
        };
        vs.log_and_apply(edit).unwrap();
        // First pick: file 1 (empty pointer).
        let p1 = match vs.build_pick(1, &CompactionPolicy::default()) {
            CompactionPick::TrivialMove { file, .. } => file.number,
            CompactionPick::Merge { inputs_upper, .. } => inputs_upper[0].number,
        };
        assert_eq!(p1, 1);
        // Simulate completion: record pointer at file 1's largest key.
        vs.log_and_apply(VersionEdit {
            compact_pointers: vec![(1, make_internal_key(b"c", 1, ValueType::Value))],
            ..Default::default()
        })
        .unwrap();
        let p2 = match vs.build_pick(1, &CompactionPolicy::default()) {
            CompactionPick::TrivialMove { file, .. } => file.number,
            CompactionPick::Merge { inputs_upper, .. } => inputs_upper[0].number,
        };
        assert_eq!(p2, 2, "pointer advances to the next key range");
    }

    #[test]
    fn recovery_survives_torn_manifest_tail() {
        let e = env();
        {
            let mut vs = VersionSet::open(Arc::clone(&e)).unwrap();
            vs.log_and_apply(VersionEdit {
                last_sequence: Some(77),
                new_files: vec![(1, meta(5, b"a", b"m", 1 << 20))],
                ..Default::default()
            })
            .unwrap();
        }
        // Append garbage to the manifest: a torn record from a crash
        // mid-append. Recovery must keep the committed prefix.
        let manifest_name = pcp_storage::env::read_string_file(&*e, CURRENT).unwrap();
        let data = e.open(manifest_name.trim()).unwrap();
        let mut all = data.read_at(0, data.len() as usize).unwrap().to_vec();
        all.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 200, 0, 0, 0]);
        let mut f = e.create(manifest_name.trim()).unwrap();
        f.append(&all).unwrap();
        f.sync().unwrap();
        drop(f);

        let vs = VersionSet::open(Arc::clone(&e)).unwrap();
        assert_eq!(vs.last_sequence(), 77);
        assert_eq!(vs.current().level_files(1), 1);
    }

    #[test]
    fn live_files_tracks_current_version() {
        let e = env();
        let mut vs = VersionSet::open(e).unwrap();
        vs.log_and_apply(VersionEdit {
            new_files: vec![(0, meta(5, b"a", b"b", 1)), (3, meta(9, b"c", b"d", 1))],
            ..Default::default()
        })
        .unwrap();
        let live = vs.live_files();
        assert!(live.contains(&5) && live.contains(&9));
        assert_eq!(live.len(), 2);
    }
}
