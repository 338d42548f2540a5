//! Sub-task planning (paper §III-B).
//!
//! PCP "partitions the compaction key range into multiple sub-key ranges;
//! each sub-key range consists of one or more data blocks". Sub-key ranges
//! are disjoint, so sub-tasks are independent — that independence is the
//! parallelism every executor exploits.
//!
//! The planner takes the data-block metadata of every input *run* (one run
//! per input table; runs are internally sorted and disjoint) and works at
//! two granularities:
//!
//! * A **read unit** is what S1 fetches: whole *clusters* of blocks that
//!   overlap or share a user key, packed until they hold `target_bytes`.
//!   Per run a unit is one contiguous span of blocks, read once.
//! * A **sub-task** is what flows through compute and write: a half-open
//!   user-key range `(lo, hi]` of one unit plus, per run, the contiguous
//!   blocks holding a key in it. A unit much larger than the target — every
//!   level-0 merge is one cluster — is cut at user keys every
//!   ≈ `target_bytes`; a block that straddles a cut is listed by both
//!   neighbours, and the merge step keeps only the keys in range.
//!
//! The contract, asserted by [`check_plan`]:
//!
//! 1. per run, consecutive sub-tasks list contiguous block ranges that
//!    together cover every block and share at most their boundary block,
//!    and only inside one unit;
//! 2. key ranges are strictly increasing and gap-free; cuts fall on user
//!    keys, so no version chain is split and the version-visibility filter
//!    can run per sub-task;
//! 3. a sub-task lists exactly the blocks of its unit that hold a key in
//!    its range;
//! 4. leaving out the blocks that end exactly on its upper bound, a
//!    sub-task *owns* (lists, and ends the block inside its range) less
//!    than 1.5 × `target_bytes` — only a cluster that offers no cut key,
//!    such as one user key's chain, is larger.

use pcp_sstable::key::user_key;
use pcp_sstable::table::BlockMeta;
use std::ops::Range;

/// Block list of one input run (one table), in key order.
pub type RunBlocks = Vec<BlockMeta>;

/// A half-open range of user keys `(lo, hi]`; `None` is unbounded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRange {
    /// Exclusive lower bound.
    pub lo: Option<Vec<u8>>,
    /// Inclusive upper bound.
    pub hi: Option<Vec<u8>>,
}

impl KeyRange {
    /// True if `key` lies above the lower bound.
    pub fn is_past_lo(&self, key: &[u8]) -> bool {
        self.lo.as_deref().is_none_or(|lo| key > lo)
    }

    /// True if `key` lies above the upper bound.
    pub fn is_past_hi(&self, key: &[u8]) -> bool {
        self.hi.as_deref().is_some_and(|hi| key > hi)
    }

    /// True if a block spanning the user keys of `b` holds a key in range.
    fn intersects(&self, b: &BlockMeta) -> bool {
        self.is_past_lo(user_key(&b.last_key)) && !self.is_past_hi(user_key(&b.first_key))
    }
}

/// One unit of pipelined work: a sub-key range with the blocks that hold it.
#[derive(Debug, Clone)]
pub struct SubTask {
    /// Position in key order; the write stage resequences by this.
    pub index: usize,
    /// The read unit this sub-task is sliced from. Units are numbered in key
    /// order and a unit's sub-tasks are consecutive.
    pub unit: usize,
    /// The user keys this sub-task merges; open at the edges of its unit.
    pub range: KeyRange,
    /// Per run (parallel to the planner's input), the indices of the blocks
    /// holding a key in `range`. A run without such a block has an empty
    /// range at its position in the run.
    pub blocks: Vec<Range<usize>>,
    /// Stored (compressed, incl. trailers) bytes of the listed blocks.
    pub bytes: u64,
}

impl SubTask {
    /// Total number of blocks listed.
    pub fn block_count(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
}

/// The plan grouped into read units, in key order.
pub fn read_units(plan: &[SubTask]) -> impl Iterator<Item = &[SubTask]> {
    plan.chunk_by(|a, b| a.unit == b.unit)
}

/// The blocks `ranges` selects, run by run (`ranges` is parallel to `runs`).
fn blocks_in<'a>(
    runs: &'a [RunBlocks],
    ranges: &'a [Range<usize>],
) -> impl Iterator<Item = &'a BlockMeta> {
    ranges.iter().zip(runs).flat_map(|(r, run)| &run[r.clone()])
}

fn first_uk(b: &BlockMeta) -> &[u8] {
    user_key(&b.first_key)
}

fn last_uk(b: &BlockMeta) -> &[u8] {
    user_key(&b.last_key)
}

/// How many sub-tasks a unit of `bytes` is cut into: `bytes / target`
/// rounded to nearest, so pieces stay within 0.75–1.5 × the target.
fn pieces(bytes: u64, target: u64) -> u64 {
    (bytes / target + u64::from(bytes % target >= target.div_ceil(2))).max(1)
}

/// Partitions `runs` into sub-tasks of ≈ `target_bytes` stored bytes.
pub fn plan_subtasks(runs: &[RunBlocks], target_bytes: u64) -> Vec<SubTask> {
    assert!(target_bytes > 0, "target_bytes must be positive");
    let mut by_first: Vec<(usize, usize, &BlockMeta)> = Vec::new();
    for (run, blocks) in runs.iter().enumerate() {
        debug_assert!(blocks.windows(2).all(|w| last_uk(&w[0]) <= first_uk(&w[1])));
        by_first.extend(blocks.iter().enumerate().map(|(idx, b)| (run, idx, b)));
    }
    // Stable, so blocks of one run with equal bounds keep their order.
    by_first.sort_by_key(|&(_, _, b)| (first_uk(b), last_uk(b)));

    let mut plan = Vec::new();
    // Per run, the blocks of the unit being packed.
    let mut unit: Vec<Range<usize>> = vec![0..0; runs.len()];
    let mut unit_bytes = 0u64;
    let mut unit_last: &[u8] = &[];
    for (run, idx, b) in by_first {
        // A block that begins strictly after everything seen so far opens a
        // new cluster (`>` not `>=`: blocks sharing a boundary user key stay
        // together); a full unit closes in that gap.
        if unit_bytes >= target_bytes && first_uk(b) > unit_last {
            cut_unit(runs, &unit, unit_bytes, target_bytes, &mut plan);
            for r in &mut unit {
                r.start = r.end;
            }
            unit_bytes = 0;
        }
        unit_last = unit_last.max(last_uk(b));
        unit[run].end = idx + 1;
        unit_bytes += b.stored_size();
    }
    if unit_bytes > 0 {
        cut_unit(runs, &unit, unit_bytes, target_bytes, &mut plan);
    }
    plan
}

/// Appends the sub-tasks of one read unit — `unit[r]` are its blocks in run
/// `r`, `unit_bytes` their stored size — to `plan`.
fn cut_unit(
    runs: &[RunBlocks],
    unit: &[Range<usize>],
    unit_bytes: u64,
    target_bytes: u64,
    plan: &mut Vec<SubTask>,
) {
    // Candidate cuts are the blocks' last user keys: walk the blocks in that
    // order and cut behind the block that carries the running total past the
    // next multiple of `unit_bytes / n`. Blocks ending on one user key stay
    // on the same side, and the last key of the unit is no cut.
    let n = pieces(unit_bytes, target_bytes);
    let mut cuts: Vec<&[u8]> = Vec::new();
    if n > 1 {
        let mut by_last: Vec<&BlockMeta> = blocks_in(runs, unit).collect();
        by_last.sort_by_key(|&b| last_uk(b));
        let mut total = 0u64;
        for (i, b) in by_last.iter().enumerate() {
            total += b.stored_size();
            let Some(next) = by_last.get(i + 1) else {
                break;
            };
            let due = (cuts.len() as u128 + 1) * unit_bytes as u128;
            if last_uk(next) > last_uk(b) && total as u128 * n as u128 >= due {
                cuts.push(last_uk(b));
            }
        }
    }

    let unit_index = plan.last().map_or(0, |st: &SubTask| st.unit + 1);
    for i in 0..=cuts.len() {
        let range = KeyRange {
            lo: i.checked_sub(1).map(|prev| cuts[prev].to_vec()),
            hi: cuts.get(i).map(|k| k.to_vec()),
        };
        let mut bytes = 0u64;
        let blocks = unit
            .iter()
            .zip(runs)
            .map(|(r, run)| {
                let of_unit = &run[r.clone()];
                let skip = of_unit.partition_point(|b| !range.is_past_lo(last_uk(b)));
                let take = of_unit.partition_point(|b| !range.is_past_hi(first_uk(b)));
                bytes += of_unit[skip..take]
                    .iter()
                    .map(BlockMeta::stored_size)
                    .sum::<u64>();
                r.start + skip..r.start + take
            })
            .collect();
        plan.push(SubTask {
            index: plan.len(),
            unit: unit_index,
            range,
            blocks,
            bytes,
        });
    }
}

/// Asserts the planner's contract (the module docs' rules 1–4) against the
/// inputs; used by tests and debug builds of the executors.
pub fn check_plan(runs: &[RunBlocks], plan: &[SubTask], target_bytes: u64) -> Result<(), String> {
    for (i, st) in plan.iter().enumerate() {
        if st.index != i {
            return Err("sub-task indices must be dense and ordered".into());
        }
        if st.blocks.len() != runs.len() {
            return Err(format!("sub-task {i}: one block range per run"));
        }
        if st.block_count() == 0 {
            return Err(format!("sub-task {i} is empty"));
        }
        if let (Some(lo), Some(hi)) = (&st.range.lo, &st.range.hi) {
            if lo >= hi {
                return Err(format!("sub-task {i}: empty key range"));
            }
        }
    }
    if plan.first().is_some_and(|st| st.unit != 0) {
        return Err("units are numbered from 0".into());
    }

    // Rule 1: per run, contiguous cover; only boundary blocks are shared,
    // and only inside a unit.
    for (r, run) in runs.iter().enumerate() {
        let mut covered = 0usize;
        let mut prev: Option<&SubTask> = None;
        for st in plan {
            let blocks = &st.blocks[r];
            if blocks.start > blocks.end || blocks.end > run.len() {
                return Err(format!("run {r}: sub-task {} lists {blocks:?}", st.index));
            }
            let shares = prev.is_some_and(|p| p.unit == st.unit && !p.blocks[r].is_empty());
            if blocks.start != covered && !(shares && blocks.start + 1 == covered) {
                return Err(format!(
                    "run {r}: sub-task {} starts at block {}, {covered} covered",
                    st.index, blocks.start
                ));
            }
            covered = covered.max(blocks.end);
            prev = Some(st);
        }
        if covered != run.len() {
            return Err(format!(
                "run {r}: {covered} of {} blocks planned",
                run.len()
            ));
        }
    }

    // Rule 2: gap-free, strictly increasing key ranges.
    for w in plan.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let ok = if a.unit == b.unit {
            a.range.hi.is_some() && a.range.hi == b.range.lo
        } else {
            b.unit == a.unit + 1
                && a.range.hi.is_none()
                && b.range.lo.is_none()
                && blocks_in(runs, &a.blocks).map(last_uk).max()
                    < blocks_in(runs, &b.blocks).map(first_uk).min()
        };
        if !ok {
            return Err(format!(
                "sub-tasks {} and {} do not meet on a user key",
                a.index, b.index
            ));
        }
    }
    if let (Some(first), Some(last)) = (plan.first(), plan.last()) {
        if first.range.lo.is_some() || last.range.hi.is_some() {
            return Err("the plan's outer bounds must be open".into());
        }
    }

    for unit in read_units(plan) {
        let (head, tail) = (&unit[0], &unit[unit.len() - 1]);
        for st in unit {
            let mut owned: Vec<&BlockMeta> = Vec::new();
            for (r, run) in runs.iter().enumerate() {
                // Rule 3: listed ⇔ in the unit and holding a key in range.
                let of_unit = head.blocks[r].start..tail.blocks[r].end;
                for (idx, b) in of_unit.clone().zip(&run[of_unit]) {
                    let listed = st.blocks[r].contains(&idx);
                    if listed != st.range.intersects(b) {
                        return Err(format!(
                            "sub-task {}: block {idx} of run {r} listed = {listed}",
                            st.index
                        ));
                    }
                    if listed && !st.range.is_past_hi(last_uk(b)) {
                        owned.push(b);
                    }
                }
            }
            // Rule 4.
            let end = owned.iter().map(|b| last_uk(b)).max();
            let before_end: u64 = owned
                .iter()
                .filter(|b| Some(last_uk(b)) != end)
                .map(|b| b.stored_size())
                .sum();
            if before_end >= target_bytes.saturating_add(target_bytes.div_ceil(2)) {
                return Err(format!(
                    "sub-task {} owns {before_end} bytes before its last key, target {target_bytes}",
                    st.index
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::key::{make_internal_key, ValueType};
    use pcp_sstable::table::BlockHandle;

    /// Builds a block meta covering user keys [lo, hi] with given size.
    fn block(lo: &str, hi: &str, bytes: u64) -> BlockMeta {
        BlockMeta {
            handle: BlockHandle {
                offset: 0,
                size: bytes.saturating_sub(5),
            },
            first_key: make_internal_key(lo.as_bytes(), 10, ValueType::Value),
            last_key: make_internal_key(hi.as_bytes(), 1, ValueType::Value),
            entries: 10,
        }
    }

    fn range(lo: Option<&str>, hi: Option<&str>) -> KeyRange {
        KeyRange {
            lo: lo.map(|k| k.as_bytes().to_vec()),
            hi: hi.map(|k| k.as_bytes().to_vec()),
        }
    }

    #[test]
    fn single_run_packs_by_size() {
        let run: RunBlocks = (0..10)
            .map(|i| block(&format!("k{i:02}a"), &format!("k{i:02}z"), 100))
            .collect();
        let plan = plan_subtasks(std::slice::from_ref(&run), 250);
        check_plan(&[run], &plan, 250).unwrap();
        assert_eq!(plan.len(), 4, "10 blocks * 100B at 250B target");
        for st in &plan[..plan.len() - 1] {
            assert!(st.bytes >= 250);
        }
        // Disjoint blocks: every sub-task is a read unit of its own.
        assert_eq!(read_units(&plan).count(), 4);
    }

    #[test]
    fn overlapping_runs_are_cut_at_user_keys() {
        // Upper block [b, m] overlaps lower blocks [a, c] and [k, n]: one
        // cluster, cut behind "c" and "m"; the upper block straddles the
        // first cut, lower [k, n] the second.
        let upper = vec![block("b", "m", 100)];
        let lower = vec![
            block("a", "c", 100),
            block("k", "n", 100),
            block("p", "q", 100),
        ];
        let plan = plan_subtasks(&[upper.clone(), lower.clone()], 1);
        check_plan(&[upper, lower], &plan, 1).unwrap();
        let got: Vec<_> = plan
            .iter()
            .map(|st| (st.unit, st.range.clone(), st.blocks.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, range(None, Some("c")), vec![0..1, 0..1]),
                (0, range(Some("c"), Some("m")), vec![0..1, 1..2]),
                (0, range(Some("m"), None), vec![1..1, 1..2]),
                (1, range(None, None), vec![1..1, 2..3]),
            ]
        );
    }

    #[test]
    fn shared_boundary_user_key_stays_on_one_side() {
        // Upper ends at "k"; lower starts at "k": the cut falls behind "k",
        // so both blocks' versions of it are merged by the first sub-task.
        let upper = vec![block("a", "k", 100)];
        let lower = vec![block("k", "z", 100)];
        let plan = plan_subtasks(&[upper.clone(), lower.clone()], 1);
        check_plan(&[upper, lower], &plan, 1).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].range, range(None, Some("k")));
        assert_eq!(plan[0].blocks, vec![0..1, 0..1]);
        assert_eq!(plan[1].range, range(Some("k"), None));
        assert_eq!(plan[1].blocks, vec![1..1, 0..1]);
    }

    #[test]
    fn disjoint_runs_interleave_in_key_order() {
        let a = vec![block("a", "b", 50), block("e", "f", 50)];
        let b = vec![block("c", "d", 50), block("g", "h", 50)];
        let plan = plan_subtasks(&[a.clone(), b.clone()], 1);
        check_plan(&[a, b], &plan, 1).unwrap();
        let blocks: Vec<_> = plan.iter().map(|st| st.blocks.clone()).collect();
        assert_eq!(
            blocks,
            vec![
                vec![0..1, 0..0],
                vec![1..1, 0..1],
                vec![1..2, 1..1],
                vec![2..2, 1..2]
            ]
        );
    }

    #[test]
    fn empty_input_plans_nothing() {
        assert!(plan_subtasks(&[], 1024).is_empty());
        assert!(plan_subtasks(&[Vec::new(), Vec::new()], 1024).is_empty());
    }

    #[test]
    fn touching_blocks_of_one_run_are_cut_between_user_keys() {
        // Every block shares its last user key with the next one's first:
        // one cluster, cut behind k1..k4, each boundary block listed twice.
        let run: RunBlocks = (0..5)
            .map(|i| block(&format!("k{i}"), &format!("k{}", i + 1), 1000))
            .collect();
        let plan = plan_subtasks(std::slice::from_ref(&run), 100);
        check_plan(std::slice::from_ref(&run), &plan, 100).unwrap();
        let blocks: Vec<_> = plan.iter().map(|st| st.blocks[0].clone()).collect();
        assert_eq!(blocks, vec![0..2, 1..3, 2..4, 3..5, 4..5]);
        assert_eq!(read_units(&plan).count(), 1);
    }

    #[test]
    fn chain_of_one_user_key_is_never_cut() {
        let run: RunBlocks = (0..5).map(|_| block("k", "k", 1000)).collect();
        let plan = plan_subtasks(std::slice::from_ref(&run), 100);
        check_plan(std::slice::from_ref(&run), &plan, 100).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].bytes, 5000);
        assert_eq!(plan[0].range, KeyRange::default());
    }

    #[test]
    fn large_target_yields_single_subtask() {
        let run: RunBlocks = (0..20)
            .map(|i| block(&format!("k{i:02}a"), &format!("k{i:02}z"), 100))
            .collect();
        let plan = plan_subtasks(std::slice::from_ref(&run), u64::MAX);
        check_plan(&[run], &plan, u64::MAX).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].block_count(), 20);
    }

    #[test]
    fn l0_style_overlap_is_cut_every_target() {
        // Four runs over the same key space, block boundaries never aligned:
        // one cluster of 3200 bytes, eight sub-tasks at a 400-byte target.
        let runs: Vec<RunBlocks> = (0..4)
            .map(|r| {
                (0..8)
                    .map(|i| block(&format!("k{i}{r}"), &format!("k{}{r}", i + 1), 100))
                    .collect()
            })
            .collect();
        let plan = plan_subtasks(&runs, 400);
        check_plan(&runs, &plan, 400).unwrap();
        assert_eq!(plan.len(), 8);
        assert_eq!(read_units(&plan).count(), 1);
        for st in &plan {
            // What it owns plus one straddling block per run.
            assert!(
                st.bytes <= 400 + 4 * 100,
                "sub-task {} lists {}",
                st.index,
                st.bytes
            );
        }
    }

    #[test]
    fn wide_sparse_block_straddles_several_cuts() {
        let wide = vec![block("a", "z", 100)];
        let dense: RunBlocks = (0..10)
            .map(|i| block(&format!("k{i}a"), &format!("k{i}z"), 100))
            .collect();
        let runs = [wide, dense];
        let plan = plan_subtasks(&runs, 200);
        check_plan(&runs, &plan, 200).unwrap();
        assert_eq!(plan.len(), 6);
        assert!(
            plan.iter().all(|st| st.blocks[0] == (0..1)),
            "every sub-task lists it"
        );
        let dense_blocks: Vec<_> = plan.iter().map(|st| st.blocks[1].clone()).collect();
        assert_eq!(dense_blocks, vec![0..2, 2..4, 4..6, 6..8, 8..10, 10..10]);
    }

    #[test]
    fn check_plan_rejects_a_gap_an_unlisted_block_and_an_oversized_subtask() {
        let runs: Vec<RunBlocks> = (0..2)
            .map(|r| {
                (0..6)
                    .map(|i| block(&format!("k{i}{r}"), &format!("k{}{r}", i + 1), 100))
                    .collect()
            })
            .collect();
        let plan = plan_subtasks(&runs, 300);
        check_plan(&runs, &plan, 300).unwrap();
        assert!(plan.len() > 2);

        let mut gap = plan.clone();
        gap[1].range.lo = Some(b"k3".to_vec());
        assert!(check_plan(&runs, &gap, 300).is_err());

        let mut unlisted = plan.clone();
        unlisted[0].blocks[1].end -= 1;
        assert!(check_plan(&runs, &unlisted, 300).is_err());

        let whole = plan_subtasks(&runs, u64::MAX);
        assert!(
            check_plan(&runs, &whole, 300).is_err(),
            "1200 bytes uncut at a 300-byte target"
        );
    }
}
