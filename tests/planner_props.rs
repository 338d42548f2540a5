//! Property tests of the sub-task planner over real tables with arbitrary
//! key layouts: the plan must cover every block, keep sub-key ranges
//! disjoint and gap-free, never split a user key, and — run through the
//! merge step — hand every input entry to exactly one sub-task.

use pcp::core::{
    check_plan, compute_subtask, plan_subtasks, read_unit, read_units, CompactionProfile,
    ComputeConfig,
};
use pcp::sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
use pcp::sstable::table::{BlockMeta, CompressionKind};
use pcp::sstable::{TableBuilder, TableBuilderOptions, TableReader};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20))))
}

/// Builds a run from (key_byte, versions) specs; returns its block metas.
fn run_from_keys(env: &EnvRef, name: &str, keys: &[(u8, u8)], seq0: u64) -> Vec<BlockMeta> {
    // Tiny blocks force many block boundaries, including mid-user-key.
    table_from_keys(env, name, keys, seq0, 64).map_or(Vec::new(), |(_, metas)| metas)
}

/// Builds a table from (key_byte, versions) specs; `None` if there are none.
fn table_from_keys(
    env: &EnvRef,
    name: &str,
    keys: &[(u8, u8)],
    seq0: u64,
    block_size: usize,
) -> Option<(Arc<TableReader>, Vec<BlockMeta>)> {
    let mut entries: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut seq = seq0;
    let mut sorted: Vec<(u8, u8)> = keys.to_vec();
    sorted.sort();
    sorted.dedup_by_key(|(k, _)| *k);
    for (k, versions) in sorted {
        for _ in 0..=(versions % 4) {
            entries.push((format!("key{:03}", k).into_bytes(), seq));
            seq += 1;
        }
    }
    if entries.is_empty() {
        return None;
    }
    let mut ikeys: Vec<Vec<u8>> = entries
        .iter()
        .map(|(k, s)| make_internal_key(k, *s, ValueType::Value))
        .collect();
    ikeys.sort_by(|a, b| pcp::sstable::internal_key_cmp(a, b));
    let f = env.create(name).unwrap();
    let mut b = TableBuilder::new(
        f,
        TableBuilderOptions {
            block_size,
            ..Default::default()
        },
    );
    for ik in &ikeys {
        b.add(ik, b"some-value-payload").unwrap();
    }
    b.finish().unwrap();
    let reader = Arc::new(TableReader::open(env.open(name).unwrap()).unwrap());
    let metas = reader.block_metas().unwrap();
    Some((reader, metas))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn plan_invariants_hold_for_arbitrary_layouts(
        upper_keys in prop::collection::vec((any::<u8>(), any::<u8>()), 0..60),
        lower_keys in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
        target_kb in 1u64..64,
    ) {
        let env = mem_env();
        let runs = vec![
            run_from_keys(&env, "u.sst", &upper_keys, 100_000),
            run_from_keys(&env, "l.sst", &lower_keys, 1),
        ];
        let plan = plan_subtasks(&runs, target_kb << 10);
        prop_assert_eq!(check_plan(&runs, &plan, target_kb << 10), Ok(()));
        // Every block is listed; one that straddles a cut, more than once.
        let total_blocks: usize = runs.iter().map(|r| r.len()).sum();
        let planned_blocks: usize = plan.iter().map(|s| s.block_count()).sum();
        prop_assert!(planned_blocks >= total_blocks);
    }

    #[test]
    fn three_overlapping_runs_plan_correctly(
        seeds in prop::collection::vec(prop::collection::vec((any::<u8>(), any::<u8>()), 1..40), 3..4),
        target_kb in 1u64..32,
    ) {
        let env = mem_env();
        let runs: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, keys)| run_from_keys(&env, &format!("t{i}.sst"), keys, 1 + i as u64 * 100_000))
            .collect();
        let plan = plan_subtasks(&runs, target_kb << 10);
        prop_assert_eq!(check_plan(&runs, &plan, target_kb << 10), Ok(()));
    }

    /// The level-0 shape: 4–9 runs over one key space. The first is a single
    /// block from the smallest key to the largest, which makes everything one
    /// cluster and straddles every cut. Merging the sub-tasks one by one
    /// takes in every entry of every input block exactly once, although a
    /// straddling block is decoded by each sub-task that lists it.
    #[test]
    fn overlapping_runs_merge_every_entry_once(
        seeds in prop::collection::vec(prop::collection::vec((any::<u8>(), any::<u8>()), 20..80), 4..10),
        target in 256u64..1024,
    ) {
        let env = mem_env();
        let (readers, runs): (Vec<_>, Vec<_>) = seeds
            .iter()
            .enumerate()
            .map(|(i, keys)| {
                let mut keys = keys.clone();
                keys.extend([(0, 0), (255, 0)]);
                let block_size = if i == 0 { 1 << 20 } else { 64 };
                table_from_keys(&env, &format!("t{i}.sst"), &keys, 1 + i as u64 * 100_000, block_size)
                    .unwrap()
            })
            .unzip();
        let plan = plan_subtasks(&runs, target);
        prop_assert_eq!(check_plan(&runs, &plan, target), Ok(()));
        prop_assert_eq!(read_units(&plan).count(), 1);
        prop_assert!(plan.len() > 1, "a cluster of several targets must be cut");
        prop_assert!(plan.iter().all(|st| st.blocks[0] == (0..1)));

        let cfg = ComputeConfig {
            block_size: 64,
            restart_interval: 16,
            compression: CompressionKind::Lz,
            smallest_snapshot: MAX_SEQUENCE,
            bottom_level: false,
        };
        let profile = CompactionProfile::new();
        for data in read_unit(&readers, &runs, &plan, &profile).unwrap() {
            compute_subtask(data, &cfg, &profile).unwrap();
        }
        let snap = profile.snapshot();
        let entries: u64 = runs.iter().flatten().map(|b| b.entries).sum();
        prop_assert_eq!(snap.entries_in, entries);
        prop_assert_eq!(snap.blocks, runs.iter().map(|r| r.len() as u64).sum::<u64>());
    }
}
