//! The seven compaction steps as individually timed operations.
//!
//! Each function covers one or more steps of paper Fig. 2 and records its
//! time in the shared [`CompactionProfile`]:
//!
//! * [`read_unit`] — S1 (one span read per input run touched, sliced into
//!   the read unit's sub-tasks);
//! * [`compute_subtask`] — S2 CHECKSUM, S3 DECOMPRESS, S4 SORT/MERGE,
//!   S5 COMPRESS, S6 RE-CHECKSUM;
//! * the write stage (S7) lives in [`crate::pipeline::SealedWriter`], since
//!   it owns the output tables.
//!
//! S4 cuts its blocks with the table builder's own rule
//! ([`BlockCutter`]), and each sealed block keeps the [`CutBlock`] it seals,
//! so that S7 can hand its contents to an output table that admits its
//! blocks to the block cache.

use crate::planner::{KeyRange, RunBlocks, SubTask};
use crate::profile::{CompactionProfile, Step};
use bytes::Bytes;
use pcp_sstable::key::{make_internal_key, user_key, ValueType};
use pcp_sstable::table::{
    compress_block, decompress_block, make_trailer, verify_block, CompressionKind, SealedBlock,
};
use pcp_sstable::{Block, BlockCutter, BlockIter, CutBlock, KvIter, MergingIter, TableReader};
use pcp_compaction::VersionKeepFilter;
use pcp_sstable::Result as TableResult;
use std::sync::Arc;
use std::time::Instant;

/// Raw (still compressed + trailed) blocks of one sub-task, grouped per run.
#[derive(Debug)]
pub struct SubTaskData {
    pub index: usize,
    /// The user keys to merge; entries of `raw_blocks` outside it belong to
    /// a neighbouring sub-task.
    pub range: KeyRange,
    /// Parallel to the planner's runs: raw block bytes in key order.
    pub raw_blocks: Vec<Vec<Bytes>>,
}

/// A sub-task after the compute stage.
#[derive(Debug)]
pub struct ComputedSubTask {
    pub index: usize,
    pub blocks: Vec<SealedBlock>,
}

/// Knobs for the compute stage (match the engine's table options).
#[derive(Debug, Clone)]
pub struct ComputeConfig {
    pub block_size: usize,
    pub restart_interval: usize,
    pub compression: CompressionKind,
    pub smallest_snapshot: u64,
    pub bottom_level: bool,
}

/// Step S1 for one read unit (the consecutive sub-tasks sharing
/// [`SubTask::unit`]): one contiguous span read per run — the paper's "I/O
/// size is equal to the sub-task size", and the whole cluster where a
/// cluster is cut into several sub-tasks — sliced without copying into the
/// unit's sub-tasks. A block that straddles a cut reaches both neighbours
/// but is read, and counted as input, once.
pub fn read_unit(
    readers: &[Arc<TableReader>],
    runs: &[RunBlocks],
    unit: &[SubTask],
    profile: &CompactionProfile,
) -> TableResult<Vec<SubTaskData>> {
    let t0 = Instant::now();
    let (Some(head), Some(tail)) = (unit.first(), unit.last()) else {
        return Ok(Vec::new());
    };
    let mut out: Vec<SubTaskData> = unit
        .iter()
        .map(|st| SubTaskData {
            index: st.index,
            range: st.range.clone(),
            raw_blocks: Vec::with_capacity(runs.len()),
        })
        .collect();
    let mut bytes_read = 0u64;
    let mut blocks_read = 0u64;
    for (r, run) in runs.iter().enumerate() {
        let of_unit = &run[head.blocks[r].start..tail.blocks[r].end];
        let (span, base) = match (of_unit.first(), of_unit.last()) {
            (Some(first), Some(last)) => (
                readers[r].read_raw_span(first.handle, last.handle)?,
                first.handle.offset,
            ),
            _ => (Bytes::new(), 0),
        };
        bytes_read += span.len() as u64;
        blocks_read += of_unit.len() as u64;
        for (st, data) in unit.iter().zip(&mut out) {
            let raw = run[st.blocks[r].clone()].iter().map(|b| {
                let start = (b.handle.offset - base) as usize;
                span.slice(start..start + b.stored_size() as usize)
            });
            data.raw_blocks.push(raw.collect());
        }
    }
    profile.record(Step::Read, t0.elapsed());
    profile.add_input_bytes(bytes_read);
    profile.add_blocks(blocks_read);
    for st in unit {
        profile.add_subtask_bytes(st.bytes);
    }
    Ok(out)
}

/// Sequential cursor over a run's decoded blocks (they are already in key
/// order and disjoint, so concatenation suffices).
struct BlocksIter {
    blocks: Vec<Block>,
    pos: usize,
    cur: Option<BlockIter>,
}

impl BlocksIter {
    fn new(blocks: Vec<Block>) -> BlocksIter {
        BlocksIter {
            blocks,
            pos: 0,
            cur: None,
        }
    }

    fn advance_block(&mut self) {
        while self.pos < self.blocks.len() {
            let mut it = self.blocks[self.pos].iter();
            it.seek_to_first();
            self.pos += 1;
            if it.valid() {
                self.cur = Some(it);
                return;
            }
        }
        self.cur = None;
    }
}

impl KvIter for BlocksIter {
    fn valid(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| c.valid())
    }

    fn seek_to_first(&mut self) {
        self.pos = 0;
        self.cur = None;
        self.advance_block();
    }

    fn seek(&mut self, target: &[u8]) {
        // A sub-task's lower bound falls in the first block of each run, so
        // the first candidate is nearly always the one.
        self.cur = None;
        for (i, block) in self.blocks.iter().enumerate() {
            let mut it = block.iter();
            it.seek(target);
            if it.valid() {
                self.pos = i + 1;
                self.cur = Some(it);
                return;
            }
        }
        self.pos = self.blocks.len();
    }

    fn next(&mut self) {
        if let Some(c) = &mut self.cur {
            c.next();
            if !c.valid() {
                self.advance_block();
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the key only when `valid()`, which implies `cur.is_some()`"
    )]
    fn key(&self) -> &[u8] {
        self.cur.as_ref().expect("valid").key()
    }

    #[expect(
        clippy::expect_used,
        reason = "`KvIter` reads the value only when `valid()`, which implies `cur.is_some()`"
    )]
    fn value(&self) -> &[u8] {
        self.cur.as_ref().expect("valid").value()
    }
}

/// A sub-task after S2+S3: verified, decompressed, decoded blocks per run.
#[derive(Debug)]
pub struct DecodedSubTask {
    pub index: usize,
    pub range: KeyRange,
    pub runs: Vec<Vec<Block>>,
}

/// A sub-task after S4: merged, filtered, re-blocked — not yet sealed.
#[derive(Debug)]
pub struct MergedSubTask {
    pub index: usize,
    pub blocks: Vec<CutBlock>,
}

/// Steps S2 (CHECKSUM) + S3 (DECOMPRESS) for one sub-task.
pub fn verify_decompress(
    data: SubTaskData,
    profile: &CompactionProfile,
) -> TableResult<DecodedSubTask> {
    // S2 CHECKSUM: verify every raw block.
    let t0 = Instant::now();
    let mut verified: Vec<Vec<(Bytes, CompressionKind, usize)>> =
        Vec::with_capacity(data.raw_blocks.len());
    for run in &data.raw_blocks {
        let mut v = Vec::with_capacity(run.len());
        for raw in run {
            let (payload, kind) = verify_block(raw)?;
            let plen = payload.len();
            v.push((raw.slice(0..plen), kind, plen));
        }
        verified.push(v);
    }
    profile.record(Step::Checksum, t0.elapsed());

    // S3 DECOMPRESS: restore block contents.
    let t0 = Instant::now();
    let mut decoded_runs: Vec<Vec<Block>> = Vec::with_capacity(verified.len());
    for run in &verified {
        let mut blocks = Vec::with_capacity(run.len());
        for (payload, kind, _) in run {
            let contents = decompress_block(payload, *kind)?;
            let block = Block::new(Bytes::from(contents))?;
            blocks.push(block);
        }
        decoded_runs.push(blocks);
    }
    profile.record(Step::Decompress, t0.elapsed());
    Ok(DecodedSubTask {
        index: data.index,
        range: data.range,
        runs: decoded_runs,
    })
}

/// Step S4 (SORT/MERGE): k-way merge + version filter + new block building
/// over the user keys in the sub-task's range.
pub fn merge_subtask(
    decoded: DecodedSubTask,
    cfg: &ComputeConfig,
    profile: &CompactionProfile,
) -> TableResult<MergedSubTask> {
    let t0 = Instant::now();
    let mut entries_in = 0u64;
    let children: Vec<Box<dyn KvIter>> = decoded
        .runs
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| Box::new(BlocksIter::new(r)) as Box<dyn KvIter>)
        .collect();
    let mut merged = MergingIter::new(children);
    let mut filter = VersionKeepFilter::new(cfg.smallest_snapshot, cfg.bottom_level);
    let mut cutter = BlockCutter::new(cfg.block_size, cfg.restart_interval);
    let mut blocks = Vec::new();
    let range = &decoded.range;
    match &range.lo {
        None => merged.seek_to_first(),
        Some(lo) => {
            // The smallest trailer sorts last among the versions of `lo`.
            merged.seek(&make_internal_key(lo, 0, ValueType::Deletion));
            while merged.valid() && !range.is_past_lo(user_key(merged.key())) {
                merged.next();
            }
        }
    }
    while merged.valid() && !range.is_past_hi(user_key(merged.key())) {
        entries_in += 1;
        if filter.keep(merged.key()) {
            blocks.extend(cutter.add(merged.key(), merged.value()));
        }
        merged.next();
    }
    blocks.extend(cutter.finish());
    profile.record(Step::Sort, t0.elapsed());
    profile.add_entries_in(entries_in);
    Ok(MergedSubTask {
        index: decoded.index,
        blocks,
    })
}

/// Steps S5 (COMPRESS) + S6 (RE-CHECKSUM): seal merged blocks for pure-I/O
/// append. Each sealed block keeps the cut block it seals, moved, not
/// copied.
pub fn seal_subtask(
    merged: MergedSubTask,
    cfg: &ComputeConfig,
    profile: &CompactionProfile,
) -> TableResult<ComputedSubTask> {
    // S5 COMPRESS: each block's payload goes in its `raw`, not yet trailed.
    let t0 = Instant::now();
    let mut compressed: Vec<(SealedBlock, CompressionKind)> =
        Vec::with_capacity(merged.blocks.len());
    let mut raw_bytes = 0u64;
    let mut entries_out = 0u64;
    for block in merged.blocks {
        raw_bytes += block.contents.len() as u64;
        entries_out += block.entries;
        let (payload, kind) = compress_block(&block.contents, cfg.compression);
        compressed.push((SealedBlock { raw: payload, block }, kind));
    }
    profile.record(Step::Compress, t0.elapsed());
    profile.add_raw_bytes(raw_bytes);
    profile.add_entries_out(entries_out);

    // S6 RE-CHECKSUM.
    let t0 = Instant::now();
    let mut blocks = Vec::with_capacity(compressed.len());
    for (mut block, kind) in compressed {
        let trailer = make_trailer(&block.raw, kind);
        block.raw.extend_from_slice(&trailer);
        blocks.push(block);
    }
    profile.record(Step::ReChecksum, t0.elapsed());

    Ok(ComputedSubTask {
        index: merged.index,
        blocks,
    })
}

/// Steps S2–S6 for one sub-task (the paper's single compute stage):
/// verify, decompress, merge+filter into new blocks, compress,
/// re-checksum.
pub fn compute_subtask(
    data: SubTaskData,
    cfg: &ComputeConfig,
    profile: &CompactionProfile,
) -> TableResult<ComputedSubTask> {
    let decoded = verify_decompress(data, profile)?;
    let merged = merge_subtask(decoded, cfg, profile)?;
    seal_subtask(merged, cfg, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_subtasks;
    use pcp_sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
    use pcp_sstable::{BlockBuilder, TableBuilder, TableBuilderOptions};
    use pcp_storage::{EnvRef, SimDevice, SimEnv};

    fn env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(128 << 20))))
    }

    fn build_table(env: &EnvRef, name: &str, n: usize, seq0: u64) -> Arc<TableReader> {
        build_padded_table(env, name, n, seq0, 60)
    }

    /// `pad` sets the value length, and with it where block boundaries fall.
    fn build_padded_table(
        env: &EnvRef,
        name: &str,
        n: usize,
        seq0: u64,
        pad: usize,
    ) -> Arc<TableReader> {
        let f = env.create(name).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        for i in 0..n {
            let ik = make_internal_key(
                format!("key{i:06}").as_bytes(),
                seq0 + i as u64,
                ValueType::Value,
            );
            b.add(&ik, format!("value-{i}-{}", "y".repeat(pad)).as_bytes())
                .unwrap();
        }
        b.finish().unwrap();
        Arc::new(TableReader::open(env.open(name).unwrap()).unwrap())
    }

    fn cfg() -> ComputeConfig {
        ComputeConfig {
            block_size: 4096,
            restart_interval: 16,
            compression: CompressionKind::Lz,
            smallest_snapshot: MAX_SEQUENCE,
            bottom_level: true,
        }
    }

    #[test]
    fn read_then_compute_roundtrips_entries() {
        let env = env();
        let table = build_table(&env, "t", 2000, 1);
        let runs = vec![table.block_metas().unwrap()];
        let plan = plan_subtasks(&runs, 16 << 10);
        assert!(plan.len() > 1);
        let profile = CompactionProfile::new();
        let mut total_entries = 0u64;
        let readers = vec![Arc::clone(&table)];
        for data in crate::planner::read_units(&plan)
            .flat_map(|unit| read_unit(&readers, &runs, unit, &profile).unwrap())
        {
            let computed = compute_subtask(data, &cfg(), &profile).unwrap();
            total_entries += computed.blocks.iter().map(|b| b.block.entries).sum::<u64>();
            // Each sealed block must verify and decompress to the contents
            // it carries.
            for sb in &computed.blocks {
                let (payload, kind) = verify_block(&sb.raw).unwrap();
                assert_eq!(decompress_block(payload, kind).unwrap(), sb.block.contents);
            }
        }
        assert_eq!(total_entries, 2000);
        let snap = profile.snapshot();
        assert_eq!(snap.entries_in, 2000);
        assert_eq!(snap.entries_out, 2000);
        assert!(snap.time(Step::Read) > std::time::Duration::ZERO);
        assert!(snap.time(Step::Sort) > std::time::Duration::ZERO);
        assert!(snap.input_bytes > 0);
    }

    #[test]
    fn merge_two_runs_newest_wins() {
        let env = env();
        // Same keys, different sequences: upper (newer) must win.
        let newer = build_table(&env, "a", 500, 10_000);
        let older = build_table(&env, "b", 500, 1);
        let runs = vec![
            newer.block_metas().unwrap(),
            older.block_metas().unwrap(),
        ];
        let plan = plan_subtasks(&runs, u64::MAX);
        assert_eq!(plan.len(), 1);
        let profile = CompactionProfile::new();
        let readers = vec![newer, older];
        let data = read_unit(&readers, &runs, &plan, &profile).unwrap().remove(0);
        let computed = compute_subtask(data, &cfg(), &profile).unwrap();
        let survivors: u64 = computed.blocks.iter().map(|b| b.block.entries).sum();
        assert_eq!(survivors, 500, "one version per user key survives");
        // All surviving sequences are the newer ones.
        for sb in &computed.blocks {
            let (payload, kind) = verify_block(&sb.raw).unwrap();
            let contents = decompress_block(payload, kind).unwrap();
            let block = Block::new(Bytes::from(contents)).unwrap();
            let mut it = block.iter();
            it.seek_to_first();
            while it.valid() {
                let p = pcp_sstable::parse_internal_key(it.key()).unwrap();
                assert!(p.sequence >= 10_000);
                it.next();
            }
        }
    }

    #[test]
    fn blocks_iter_concatenates() {
        let mk = |keys: &[&str]| {
            let mut bb = BlockBuilder::new(4);
            for k in keys {
                bb.add(
                    &make_internal_key(k.as_bytes(), 1, ValueType::Value),
                    b"v",
                );
            }
            Block::new(Bytes::from(bb.finish())).unwrap()
        };
        let mut it = BlocksIter::new(vec![mk(&["a", "b"]), mk(&["c"]), mk(&["d", "e"])]);
        it.seek_to_first();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec(), b"e".to_vec()]);
    }

    #[test]
    fn blocks_iter_seeks_inside_the_first_candidate_block() {
        let mk = |keys: &[&str]| {
            let mut bb = BlockBuilder::new(2);
            for k in keys {
                bb.add(&make_internal_key(k.as_bytes(), 1, ValueType::Value), b"v");
            }
            Block::new(Bytes::from(bb.finish())).unwrap()
        };
        let mut it = BlocksIter::new(vec![mk(&["a", "b", "c", "d"]), mk(&["e"]), mk(&["f", "g"])]);
        for (target, want) in [("a", "a"), ("c", "c"), ("cc", "d"), ("dd", "e"), ("g", "g")] {
            it.seek(&make_internal_key(target.as_bytes(), 9, ValueType::Value));
            assert_eq!(user_key(it.key()), want.as_bytes(), "seek {target}");
        }
        // The cursor carries on into the following blocks.
        it.seek(&make_internal_key(b"d", 9, ValueType::Value));
        let mut rest = Vec::new();
        while it.valid() {
            rest.push(user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(rest, [b"d", b"e", b"f", b"g"]);
        it.seek(&make_internal_key(b"h", 9, ValueType::Value));
        assert!(!it.valid());
    }

    /// Two runs over the same keys, cut into many sub-tasks: each entry is
    /// merged by exactly one of them, version chains stay whole, and a block
    /// that straddles a cut is read and counted once.
    #[test]
    fn key_range_subtasks_merge_every_entry_once() {
        let env = env();
        let newer = build_padded_table(&env, "a", 3000, 10_000, 97);
        let older = build_table(&env, "b", 3000, 1);
        let runs = vec![newer.block_metas().unwrap(), older.block_metas().unwrap()];
        let target = 4 << 10;
        let plan = plan_subtasks(&runs, target);
        crate::planner::check_plan(&runs, &plan, target).unwrap();
        let units = crate::planner::read_units(&plan).count();
        assert!(plan.len() > 8 && units < plan.len() / 2, "{units} units, {} sub-tasks", plan.len());
        let listed: usize = plan.iter().map(|st| st.block_count()).sum();
        let blocks: usize = runs.iter().map(|r| r.len()).sum();
        assert!(listed > blocks, "some block straddles a cut");

        let profile = CompactionProfile::new();
        let mut survivors = 0u64;
        let readers = [newer, older];
        for data in crate::planner::read_units(&plan)
            .flat_map(|unit| read_unit(&readers, &runs, unit, &profile).unwrap())
        {
            let computed = compute_subtask(data, &cfg(), &profile).unwrap();
            survivors += computed.blocks.iter().map(|b| b.block.entries).sum::<u64>();
        }
        assert_eq!(survivors, 3000, "one version per user key survives");
        let snap = profile.snapshot();
        assert_eq!(snap.entries_in, 6000);
        assert_eq!(snap.blocks, blocks as u64);
        let stored: u64 = runs.iter().flatten().map(|b| b.stored_size()).sum();
        assert_eq!(snap.input_bytes, stored);
        assert!(profile.max_subtask_bytes() < 2 * target);
    }

    #[test]
    fn corrupt_raw_block_fails_checksum_step() {
        let env = env();
        let table = build_table(&env, "t", 100, 1);
        let runs = vec![table.block_metas().unwrap()];
        let plan = plan_subtasks(&runs, u64::MAX);
        let profile = CompactionProfile::new();
        let mut data = read_unit(&[Arc::clone(&table)], &runs, &plan, &profile).unwrap().remove(0);
        // Corrupt the first raw block.
        let mut broken = data.raw_blocks[0][0].to_vec();
        broken[0] ^= 0xFF;
        data.raw_blocks[0][0] = Bytes::from(broken);
        let err = compute_subtask(data, &cfg(), &profile).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }
}
