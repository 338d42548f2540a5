//! Versions: immutable snapshots of the level structure.
//!
//! A [`Version`] is the LSM-tree shape of Fig. 1(a): level 0 holds
//! possibly-overlapping tables in flush order; levels ≥ 1 hold disjoint,
//! sorted tables. Each component's size is bounded by an exponentially
//! growing threshold; exceeding it makes the level eligible for compaction
//! (paper §II-A).

use pcp_sstable::key::user_key;
use std::sync::Arc;

// Shared with the executors through the interface crate; re-exported here
// so `pcp_lsm::version::FileMetadata` keeps resolving.
pub use pcp_compaction::FileMetadata;

/// Number of on-disk components C1..C7.
pub const NUM_LEVELS: usize = 7;

/// An immutable snapshot of the whole level structure.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[0]` is newest-first flush order; `levels[i>0]` are sorted by
    /// smallest key and pairwise disjoint in user-key space.
    pub levels: Vec<Vec<Arc<FileMetadata>>>,
}

impl Version {
    /// An empty version with all levels present.
    pub fn empty() -> Version {
        Version {
            levels: vec![Vec::new(); NUM_LEVELS],
        }
    }

    /// Total bytes in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.size).sum()
    }

    /// Number of files in `level`.
    pub fn level_files(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Total entries across all levels.
    pub fn total_entries(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .map(|f| f.entries)
            .sum()
    }

    /// Files in `level` whose user-key range intersects `[lo, hi]`.
    /// For level 0 all overlapping files are returned in newest-first
    /// order; for deeper levels the (sorted, disjoint) matches.
    pub fn overlapping_files(
        &self,
        level: usize,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Vec<Arc<FileMetadata>> {
        self.levels[level]
            .iter()
            .filter(|f| f.overlaps_user_range(lo, hi))
            .cloned()
            .collect()
    }

    /// For levels ≥ 1: files possibly containing `target_user_key`
    /// (at most one, by disjointness), via binary search.
    pub fn file_for_key(&self, level: usize, target_user_key: &[u8]) -> Option<Arc<FileMetadata>> {
        debug_assert!(level >= 1);
        let files = &self.levels[level];
        // First file whose largest user key >= target.
        let idx = files.partition_point(|f| user_key(&f.largest) < target_user_key);
        let f = files.get(idx)?;
        if user_key(&f.smallest) <= target_user_key {
            Some(Arc::clone(f))
        } else {
            None
        }
    }

    /// Validates level invariants (test/assert helper): levels ≥ 1 sorted
    /// by smallest key and disjoint in user-key space.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (level, files) in self.levels.iter().enumerate().skip(1) {
            for w in files.windows(2) {
                if user_key(&w[0].largest) >= user_key(&w[1].smallest) {
                    return Err(format!(
                        "level {level}: files {} and {} overlap",
                        w[0].number, w[1].number
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Level-0 tables an L0→L1 compaction takes out of `files`: the largest
/// whole multiple of `l0_trigger`.
///
/// With the flush lane adding tables while a merge runs, "all of level 0"
/// would depend on which lane got to the state lock first, and so would
/// the tree a workload leaves behind. Whole batches make the tables left
/// in level 0 at idle a function of the flush count alone
/// (`flushes % l0_trigger`), while a deep backlog still amortises one
/// level-1 rewrite over two or three batches.
pub fn l0_batch(files: usize, l0_trigger: usize) -> usize {
    let trigger = l0_trigger.max(1);
    files / trigger * trigger
}

/// Compaction-eligibility scoring.
///
/// Level 0 scores by the whole batches a pick would take ([`l0_batch`])
/// against `l0_trigger`, so a partial batch adds no urgency over deeper
/// levels; deeper levels score by bytes against the exponential threshold
/// `base_bytes * multiplier^(i-1)`.
/// A score ≥ 1.0 means "needs compaction"; the caller picks the max.
pub fn compaction_score(
    version: &Version,
    level: usize,
    l0_trigger: usize,
    base_bytes: u64,
    multiplier: u64,
) -> f64 {
    if level == 0 {
        (version.level_files(0) / l0_trigger.max(1)) as f64
    } else {
        let max = base_bytes.saturating_mul(multiplier.pow(level as u32 - 1));
        version.level_bytes(level) as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::key::{make_internal_key, ValueType};

    fn file(number: u64, lo: &[u8], hi: &[u8], size: u64) -> Arc<FileMetadata> {
        Arc::new(FileMetadata {
            number,
            size,
            entries: 10,
            smallest: make_internal_key(lo, 100, ValueType::Value),
            largest: make_internal_key(hi, 1, ValueType::Value),
        })
    }

    fn version_with_level1(files: Vec<Arc<FileMetadata>>) -> Version {
        let mut v = Version::empty();
        v.levels[1] = files;
        v
    }

    #[test]
    fn overlap_detection() {
        let f = file(1, b"f", b"m", 100);
        assert!(f.overlaps_user_range(Some(b"a"), Some(b"g")));
        assert!(f.overlaps_user_range(Some(b"g"), Some(b"h")));
        assert!(f.overlaps_user_range(Some(b"m"), Some(b"z")));
        assert!(!f.overlaps_user_range(Some(b"n"), Some(b"z")));
        assert!(!f.overlaps_user_range(Some(b"a"), Some(b"e")));
        assert!(f.overlaps_user_range(None, None));
        assert!(f.overlaps_user_range(None, Some(b"f")));
        assert!(f.overlaps_user_range(Some(b"m"), None));
    }

    #[test]
    fn file_for_key_binary_search() {
        let v = version_with_level1(vec![
            file(1, b"a", b"c", 10),
            file(2, b"e", b"g", 10),
            file(3, b"i", b"k", 10),
        ]);
        assert_eq!(v.file_for_key(1, b"b").unwrap().number, 1);
        assert_eq!(v.file_for_key(1, b"e").unwrap().number, 2);
        assert_eq!(v.file_for_key(1, b"g").unwrap().number, 2);
        assert!(v.file_for_key(1, b"d").is_none(), "gap between files");
        assert!(v.file_for_key(1, b"z").is_none(), "past the last file");
        assert_eq!(v.file_for_key(1, b"a").unwrap().number, 1);
    }

    #[test]
    fn overlapping_files_range_query() {
        let v = version_with_level1(vec![
            file(1, b"a", b"c", 10),
            file(2, b"e", b"g", 10),
            file(3, b"i", b"k", 10),
        ]);
        let got = v.overlapping_files(1, Some(b"b"), Some(b"f"));
        assert_eq!(got.iter().map(|f| f.number).collect::<Vec<_>>(), vec![1, 2]);
        let got = v.overlapping_files(1, None, None);
        assert_eq!(got.len(), 3);
        let got = v.overlapping_files(1, Some(b"x"), None);
        assert!(got.is_empty());
    }

    #[test]
    fn scoring_level0_by_count_and_deeper_by_bytes() {
        let mut v = Version::empty();
        v.levels[0] = vec![
            file(1, b"a", b"z", 1 << 20),
            file(2, b"a", b"z", 1 << 20),
            file(3, b"a", b"z", 1 << 20),
            file(4, b"a", b"z", 1 << 20),
        ];
        v.levels[1] = vec![file(5, b"a", b"m", 5 << 20)];
        let s0 = compaction_score(&v, 0, 4, 10 << 20, 10);
        assert!((s0 - 1.0).abs() < 1e-9, "4 files / trigger 4 = 1.0");
        let s1 = compaction_score(&v, 1, 4, 10 << 20, 10);
        assert!((s1 - 0.5).abs() < 1e-9, "5MB of 10MB budget");
        let s2 = compaction_score(&v, 2, 4, 10 << 20, 10);
        assert_eq!(s2, 0.0);
    }

    #[test]
    fn invariant_checker_catches_overlap() {
        let good = version_with_level1(vec![file(1, b"a", b"c", 1), file(2, b"d", b"f", 1)]);
        assert!(good.check_invariants().is_ok());
        let bad = version_with_level1(vec![file(1, b"a", b"d", 1), file(2, b"d", b"f", 1)]);
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn totals() {
        let mut v = Version::empty();
        v.levels[0] = vec![file(1, b"a", b"b", 100)];
        v.levels[2] = vec![file(2, b"a", b"b", 200), file(3, b"c", b"d", 300)];
        assert_eq!(v.level_bytes(2), 500);
        assert_eq!(v.level_files(0), 1);
        assert_eq!(v.total_entries(), 30);
    }
}
