//! The reproduction's central correctness property: every compaction
//! procedure — SCP, PCP, C-PPCP, S-PPCP, and the engine's entry-level
//! reference — produces the same logical output for the same input.

use pcp::core::{AdaptiveConfig, AdaptiveExec, PipelineConfig, PipelinedExec, ScpExec};
use pcp::lsm::filename::table_file;
use pcp::lsm::{CompactionExec, CompactionRequest, SimpleMergeExec};
use pcp::sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
use pcp::sstable::{KvIter, TableBuilder, TableBuilderOptions, TableReader};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

type Entry = (Vec<u8>, u64, ValueType, Vec<u8>);

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))))
}

fn build_table(env: &EnvRef, name: &str, entries: &[Entry]) -> Option<Arc<TableReader>> {
    if entries.is_empty() {
        return None;
    }
    let mut sorted: Vec<(Vec<u8>, Vec<u8>)> = entries
        .iter()
        .map(|(k, seq, t, v)| (make_internal_key(k, *seq, *t), v.clone()))
        .collect();
    sorted.sort_by(|a, b| pcp::sstable::internal_key_cmp(&a.0, &b.0));
    sorted.dedup_by(|a, b| a.0 == b.0);
    let f = env.create(name).unwrap();
    let mut b = TableBuilder::new(f, TableBuilderOptions::default());
    for (ik, v) in &sorted {
        b.add(ik, v).unwrap();
    }
    b.finish().unwrap();
    Some(Arc::new(
        TableReader::open(env.open(name).unwrap()).unwrap(),
    ))
}

fn run_compaction(
    exec: &dyn CompactionExec,
    upper_entries: &[Entry],
    lower_entries: &[Entry],
    smallest_snapshot: u64,
    bottom: bool,
    subtask_note: &str,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let env = mem_env();
    let upper = build_table(&env, "u.sst", upper_entries);
    let lower = build_table(&env, "l.sst", lower_entries);
    let req = CompactionRequest {
        env: Arc::clone(&env),
        upper: upper.into_iter().collect(),
        lower: lower.into_iter().collect(),
        output_level: 1,
        bottom_level: bottom,
        smallest_snapshot,
        file_numbers: Arc::new(AtomicU64::new(100)),
        table_opts: TableBuilderOptions::default(),
        max_output_bytes: 32 << 10,
        grant: pcp_lsm::ResourceGrant::unlimited(),
    };
    let outputs = exec
        .compact(&req)
        .unwrap_or_else(|e| panic!("{subtask_note}: {e}"));
    let mut all = Vec::new();
    for meta in outputs {
        let t = Arc::new(
            TableReader::open(env.open(&table_file(meta.number)).unwrap()).unwrap(),
        );
        let mut it = t.iter();
        it.seek_to_first();
        while it.valid() {
            all.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
    }
    all
}

/// Strategy: up to 300 entries with small key space (forces version
/// chains), mixed puts/deletes, unique sequences.
fn entries_strategy(seq_base: u64) -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec(
        (
            prop::num::u8::ANY,
            prop::bool::ANY,
            prop::collection::vec(prop::num::u8::ANY, 0..40),
        ),
        0..300,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (key_byte, is_delete, value))| {
                (
                    format!("key{:03}", key_byte).into_bytes(),
                    seq_base + i as u64,
                    if is_delete {
                        ValueType::Deletion
                    } else {
                        ValueType::Value
                    },
                    value,
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn all_executors_agree_with_reference(
        upper in entries_strategy(10_000),
        lower in entries_strategy(1),
        snapshot_sel in 0u8..3,
        bottom in prop::bool::ANY,
    ) {
        let snapshot = match snapshot_sel {
            0 => MAX_SEQUENCE,
            1 => 10_050, // between the components' sequence ranges
            _ => 150,    // inside lower's range
        };
        let reference = run_compaction(
            &SimpleMergeExec,
            &upper,
            &lower,
            snapshot,
            bottom,
            "reference",
        );
        for (name, exec) in [
            ("scp", Box::new(ScpExec::new(2 << 10)) as Box<dyn CompactionExec>),
            ("pcp", Box::new(PipelinedExec::pcp(2 << 10))),
            ("c-ppcp", Box::new(PipelinedExec::c_ppcp(2 << 10, 3))),
            ("s-ppcp", Box::new(PipelinedExec::s_ppcp(2 << 10, 2))),
            (
                "tight-queue",
                Box::new(PipelinedExec::new(PipelineConfig {
                    subtask_bytes: 1 << 10,
                    compute_workers: 2,
                    read_workers: 2,
                    queue_depth: 1,
                    deep_compute: false,
                })),
            ),
            (
                "pcp-deep",
                Box::new(PipelinedExec::new(PipelineConfig {
                    subtask_bytes: 2 << 10,
                    deep_compute: true,
                    ..Default::default()
                })),
            ),
            (
                "adaptive",
                Box::new(AdaptiveExec::new(AdaptiveConfig {
                    subtask_bytes: 2 << 10,
                    ..AdaptiveConfig::default()
                })),
            ),
        ] {
            let got = run_compaction(&*exec, &upper, &lower, snapshot, bottom, name);
            prop_assert_eq!(
                &got, &reference,
                "{} diverged from reference ({} vs {} entries)",
                name, got.len(), reference.len()
            );
        }
    }
}

#[test]
fn executors_agree_on_large_structured_input() {
    // A deterministic larger case: 5k entries, heavy overwrites, deletes.
    let mut upper = Vec::new();
    let mut lower = Vec::new();
    for i in 0..5000u64 {
        lower.push((
            format!("key{:06}", i % 2500).into_bytes(),
            i + 1,
            ValueType::Value,
            format!("old{i}").into_bytes(),
        ));
    }
    for i in 0..2000u64 {
        let t = if i % 5 == 0 {
            ValueType::Deletion
        } else {
            ValueType::Value
        };
        upper.push((
            format!("key{:06}", (i * 3) % 2500).into_bytes(),
            100_000 + i,
            t,
            format!("new{i}").into_bytes(),
        ));
    }
    let reference =
        run_compaction(&SimpleMergeExec, &upper, &lower, MAX_SEQUENCE, true, "ref");
    // The reference must have collapsed versions.
    assert!(reference.len() <= 2500);
    for exec in [
        Box::new(ScpExec::new(8 << 10)) as Box<dyn CompactionExec>,
        Box::new(PipelinedExec::pcp(8 << 10)),
        Box::new(PipelinedExec::c_ppcp(8 << 10, 4)),
    ] {
        let got = run_compaction(&*exec, &upper, &lower, MAX_SEQUENCE, true, exec.name());
        assert_eq!(got, reference, "{} diverged", exec.name());
    }
}

#[test]
fn model_check_merge_semantics_against_btreemap() {
    // Reference executor vs an oracle BTreeMap replay.
    let mut upper = Vec::new();
    let mut lower = Vec::new();
    let mut oracle: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    // Lower applied first (older), then upper.
    for i in 0..1000u64 {
        let k = format!("k{:04}", (i * 7) % 500).into_bytes();
        let v = format!("L{i}").into_bytes();
        lower.push((k.clone(), i + 1, ValueType::Value, v.clone()));
    }
    for (k, _, _, v) in &lower {
        oracle.insert(k.clone(), Some(v.clone()));
    }
    for i in 0..400u64 {
        let k = format!("k{:04}", (i * 13) % 500).into_bytes();
        if i % 3 == 0 {
            upper.push((k.clone(), 10_000 + i, ValueType::Deletion, Vec::new()));
            oracle.insert(k, None);
        } else {
            let v = format!("U{i}").into_bytes();
            upper.push((k.clone(), 10_000 + i, ValueType::Value, v.clone()));
            oracle.insert(k, Some(v));
        }
    }
    let got = run_compaction(&PipelinedExec::pcp(4 << 10), &upper, &lower, MAX_SEQUENCE, true, "pcp");
    let got_map: BTreeMap<Vec<u8>, Vec<u8>> = got
        .into_iter()
        .map(|(ik, v)| {
            let p = pcp::sstable::parse_internal_key(&ik).unwrap();
            assert_eq!(p.value_type, ValueType::Value, "no tombstones at bottom");
            (p.user_key.to_vec(), v)
        })
        .collect();
    let want: BTreeMap<Vec<u8>, Vec<u8>> = oracle
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect();
    assert_eq!(got_map, want);
}
