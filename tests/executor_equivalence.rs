//! The reproduction's central correctness property: every compaction
//! procedure — SCP, PCP, C-PPCP, S-PPCP, and the engine's entry-level
//! reference — produces the same logical output for the same input, and
//! the same bytes whether or not the output tables have a block cache.

use pcp::core::{PipelineConfig, PipelinedExec};
use pcp::compaction::filename::table_file;
use pcp::compaction::SimpleMergeExec;
use pcp::lsm::{CompactionExec, CompactionRequest, TableCache};
use pcp::obs::TraceLog;
use pcp::sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
use pcp::sstable::{BlockCache, KvIter, TableBuilder, TableBuilderOptions, TableReader};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

type Entry = (Vec<u8>, u64, ValueType, Vec<u8>);

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))))
}

fn build_table(
    env: &EnvRef,
    name: &str,
    entries: &[Entry],
    block_size: usize,
) -> Option<Arc<TableReader>> {
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
    let opts = TableBuilderOptions {
        block_size,
        ..Default::default()
    };
    let mut b = TableBuilder::new(f, opts);
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
    let (uppers, lowers) = ([upper_entries.to_vec()], [lower_entries.to_vec()]);
    let inputs = Inputs {
        uppers: &uppers,
        lowers: &lowers,
        block_size: TableBuilderOptions::default().block_size,
        block_cache: false,
    };
    compact_tables(exec, &inputs, smallest_snapshot, bottom, subtask_note).entries
}

/// The tables of one compaction: each element of `uppers` / `lowers` is one
/// input table (an empty one is left out), built with `block_size`. With
/// `block_cache`, the output tables are handed to a table cache that has a
/// block cache.
struct Inputs<'a> {
    uppers: &'a [Vec<Entry>],
    lowers: &'a [Vec<Entry>],
    block_size: usize,
    block_cache: bool,
}

/// What a compaction left behind: the merged entries in order, the output
/// tables byte for byte, their data blocks, and how many of those entered
/// the block cache at hand-off.
struct Outcome {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    files: Vec<Vec<u8>>,
    data_blocks: u64,
    written_blocks: u64,
}

fn compact_tables(
    exec: &dyn CompactionExec,
    inputs: &Inputs,
    smallest_snapshot: u64,
    bottom: bool,
    subtask_note: &str,
) -> Outcome {
    let env = mem_env();
    let build = |tables: &[Vec<Entry>], prefix: &str| -> Vec<Arc<TableReader>> {
        tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| build_table(&env, &format!("{prefix}{i}.sst"), t, inputs.block_size))
            .collect()
    };
    let block_cache = inputs.block_cache.then(|| BlockCache::new(64 << 20));
    let req = CompactionRequest {
        tables: Arc::new(TableCache::with_block_cache(Arc::clone(&env), block_cache)),
        upper: build(inputs.uppers, "u"),
        lower: build(inputs.lowers, "l"),
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
    let mut out = Outcome {
        entries: Vec::new(),
        files: Vec::new(),
        data_blocks: 0,
        written_blocks: req.tables.written_blocks(),
    };
    for meta in outputs {
        let file = env.open(&table_file(meta.number)).unwrap();
        out.files.push(file.read_at(0, file.len() as usize).unwrap().to_vec());
        let t = Arc::new(TableReader::open(file).unwrap());
        out.data_blocks += t.stats().data_blocks;
        let mut it = t.iter();
        it.seek_to_first();
        while it.valid() {
            out.entries.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
    }
    out
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
            ("scp", Box::new(PipelinedExec::scp(2 << 10)) as Box<dyn CompactionExec>),
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

/// One upper table of the level-0 shape: random puts and deletes over the
/// shared 256-key space plus a hot key with 12 versions, whose chain spans
/// several 256-byte blocks — a cut that lands in it must keep it whole.
fn l0_table_strategy(seq_base: u64) -> impl Strategy<Value = Vec<Entry>> {
    entries_strategy(seq_base).prop_map(move |mut entries| {
        for v in 0..12u64 {
            let t = if v == 7 { ValueType::Deletion } else { ValueType::Value };
            entries.push((b"key128".to_vec(), seq_base + 1000 + v, t, vec![v as u8; 30]));
        }
        entries
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The shape of every L0→L1 compaction: 4–8 upper tables over one key
    /// space and a lower level of three tables, all one overlap cluster that
    /// the planner cuts by key. The five executors must write the same
    /// bytes, and the same entries as the entry-level reference.
    #[test]
    fn executors_agree_on_overlapping_uppers(
        uppers in prop::collection::vec(l0_table_strategy(0), 4..9),
        lower in entries_strategy(1),
        snapshot_sel in 0u8..3,
        bottom in prop::bool::ANY,
    ) {
        let snapshot = match snapshot_sel {
            0 => MAX_SEQUENCE,
            1 => 20_500, // a live snapshot between the second and third upper
            _ => 150,    // inside lower's range
        };
        // Later level-0 tables hold later sequences.
        let mut uppers = uppers;
        for (i, table) in uppers.iter_mut().enumerate() {
            for e in table {
                e.1 += 10_000 * (i as u64 + 1);
            }
        }
        // Level 1 holds tables with disjoint user keys.
        let mut lowers = vec![Vec::new(); 3];
        for e in lower {
            let slot = match e.0.as_slice() {
                k if k < b"key085".as_slice() => 0,
                k if k < b"key170".as_slice() => 1,
                _ => 2,
            };
            lowers[slot].push(e);
        }
        let inputs = Inputs { uppers: &uppers, lowers: &lowers, block_size: 256, block_cache: false };
        let reference = compact_tables(&SimpleMergeExec, &inputs, snapshot, bottom, "reference");

        let trace = Arc::new(TraceLog::new(8));
        let scp = PipelinedExec::scp(2 << 10).with_trace(Arc::clone(&trace));
        let want = compact_tables(&scp, &inputs, snapshot, bottom, "scp");
        let start = &trace.events()[0];
        let field = |k: &str| start.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        prop_assert!(
            field("subtasks") > field("read_units"),
            "{} sub-tasks in {} read units: no cluster was cut",
            field("subtasks"), field("read_units")
        );
        prop_assert_eq!(&want.entries, &reference.entries, "scp diverged from the reference");

        for (name, exec) in [
            ("pcp", PipelinedExec::pcp(2 << 10)),
            ("c-ppcp", PipelinedExec::c_ppcp(2 << 10, 3)),
            ("s-ppcp", PipelinedExec::s_ppcp(2 << 10, 2)),
            (
                "pcp-deep",
                PipelinedExec::new(PipelineConfig {
                    subtask_bytes: 2 << 10,
                    deep_compute: true,
                    ..Default::default()
                }),
            ),
        ] {
            let got = compact_tables(&exec, &inputs, snapshot, bottom, name);
            prop_assert!(got.files == want.files, "{} wrote different bytes than scp", name);
        }
        // With a block cache every output block enters it at hand-off, and
        // the bytes written do not change.
        let cached = Inputs { block_cache: true, ..inputs };
        let got = compact_tables(&PipelinedExec::pcp(2 << 10), &cached, snapshot, bottom, "pcp+cache");
        prop_assert!(got.files == want.files, "pcp with a block cache wrote different bytes than scp");
        prop_assert_eq!(got.written_blocks, got.data_blocks);
        prop_assert_eq!(want.written_blocks, 0);
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
        Box::new(PipelinedExec::scp(8 << 10)) as Box<dyn CompactionExec>,
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
