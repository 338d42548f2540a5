//! Device-level validation of the pipeline's I/O claims, via the tracing
//! device: compaction step S1 issues span reads (not per-block reads) —
//! one per input table where the inputs are a single overlap cluster,
//! however many sub-tasks it is cut into — and step S7 issues roughly
//! sub-task-sized writes (one flush per sub-task).

use pcp::core::PipelinedExec;
use pcp::compaction::filename::table_file;
use pcp::lsm::{CompactionExec, CompactionRequest, TableCache};
use pcp::sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
use pcp::sstable::{TableBuilder, TableBuilderOptions, TableReader};
use pcp::storage::model::IoKind;
use pcp::storage::{DeviceRef, EnvRef, SimDevice, SimEnv, TraceDevice};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const SUBTASK: u64 = 128 << 10;

type Tables = Vec<Arc<TableReader>>;

/// Builds a fixture on a traced RAM device; returns (trace handle, env,
/// upper, lower).
fn traced_fixture() -> (Arc<TraceDevice>, EnvRef, Tables, Tables) {
    traced_tables(&[("upper.sst", 4000, 4, 1_000_000)], &[("lower.sst", 8000, 2, 1)])
}

/// The level-0 shape: four upper tables and one lower over the same keys,
/// their block boundaries never aligned — one overlap cluster.
fn traced_l0_fixture() -> (Arc<TraceDevice>, EnvRef, Tables, Tables) {
    traced_tables(
        &[
            ("u0.sst", 2000, 4, 1_000_000),
            ("u1.sst", 1600, 5, 2_000_000),
            ("u2.sst", 1333, 6, 3_000_000),
            ("u3.sst", 1142, 7, 4_000_000),
        ],
        &[("lower.sst", 4000, 2, 1)],
    )
}

/// Builds tables from `(name, entries, key stride, first sequence)` specs
/// on a traced RAM device; returns (trace handle, env, upper, lower).
fn traced_tables(
    upper: &[(&str, usize, u64, u64)],
    lower: &[(&str, usize, u64, u64)],
) -> (Arc<TraceDevice>, EnvRef, Tables, Tables) {
    let trace = Arc::new(TraceDevice::new(Arc::new(SimDevice::mem(1 << 30))));
    let device: DeviceRef = trace.clone();
    let env: EnvRef = Arc::new(SimEnv::new(device));
    let mk = |&(name, n, stride, seq0): &(&str, usize, u64, u64)| {
        let f = env.create(name).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        let mut x = 7u64;
        for i in 0..n {
            let ik = make_internal_key(
                format!("{:012}", i as u64 * stride).as_bytes(),
                seq0 + i as u64,
                ValueType::Value,
            );
            let mut v = Vec::with_capacity(90);
            for _ in 0..90 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v.push(x as u8);
            }
            b.add(&ik, &v).unwrap();
        }
        b.finish().unwrap();
        Arc::new(TableReader::open(env.open(name).unwrap()).unwrap())
    };
    let lower = lower.iter().map(mk).collect();
    let upper = upper.iter().map(mk).collect();
    (trace, env, upper, lower)
}

fn request(env: &EnvRef, upper: Vec<Arc<TableReader>>, lower: Vec<Arc<TableReader>>) -> CompactionRequest {
    CompactionRequest {
        tables: Arc::new(TableCache::new(Arc::clone(env))),
        upper,
        lower,
        output_level: 1,
        bottom_level: true,
        smallest_snapshot: MAX_SEQUENCE,
        file_numbers: Arc::new(AtomicU64::new(500)),
        table_opts: TableBuilderOptions::default(),
        max_output_bytes: 1 << 20,
        grant: pcp_lsm::ResourceGrant::unlimited(),
    }
}

#[test]
fn pipeline_issues_subtask_granular_io() {
    let (trace, env, upper, lower) = traced_fixture();
    let input_bytes: u64 = upper
        .iter()
        .chain(lower.iter())
        .map(|t| t.stats().file_size)
        .sum();
    trace.clear(); // drop the fixture-build writes
    let req = request(&env, upper, lower);
    let exec = PipelinedExec::pcp(SUBTASK);
    let outputs = exec.compact(&req).unwrap();
    assert!(!outputs.is_empty());

    let reads = trace.count(IoKind::Read);
    let mean_read = trace.mean_len(IoKind::Read);
    // Span reads: far fewer reads than 4 KB blocks, with large mean size.
    let block_count = input_bytes / 4096;
    assert!(
        (reads as u64) < block_count / 4,
        "expected span reads, got {reads} reads for ~{block_count} blocks"
    );
    assert!(
        mean_read > 16.0 * 1024.0,
        "mean read {mean_read:.0}B should be a large fraction of the sub-task"
    );

    // Writes: flush-per-subtask keeps the mean write large too (table
    // metadata blocks pull the mean down a little).
    let mean_write = trace.mean_len(IoKind::Write);
    assert!(
        mean_write > 8.0 * 1024.0,
        "mean write {mean_write:.0}B too small for sub-task flushing"
    );
    // Compaction output is written append-only: high sequentiality.
    assert!(
        trace.sequential_fraction(IoKind::Write) > 0.5,
        "compaction writes should be mostly sequential: {}",
        trace.sequential_fraction(IoKind::Write)
    );
    for f in outputs {
        let _ = env.delete(&table_file(f.number));
    }
}

#[test]
fn scp_and_pcp_issue_identical_read_patterns() {
    // The pipeline changes *when* I/O happens, not *what* I/O happens.
    let mut patterns = Vec::new();
    for which in ["scp", "pcp"] {
        let (trace, env, upper, lower) = traced_fixture();
        trace.clear();
        let req = request(&env, upper, lower);
        let exec: Box<dyn CompactionExec> = if which == "scp" {
            Box::new(PipelinedExec::scp(SUBTASK))
        } else {
            Box::new(PipelinedExec::pcp(SUBTASK))
        };
        exec.compact(&req).unwrap();
        let mut reads: Vec<(u64, usize)> = trace
            .trace()
            .into_iter()
            .filter(|r| r.kind == IoKind::Read)
            .map(|r| (r.offset, r.len))
            .collect();
        reads.sort();
        patterns.push(reads);
    }
    assert_eq!(
        patterns[0], patterns[1],
        "SCP and PCP must read exactly the same spans"
    );
}

/// An L0-shaped compaction is one read unit: S1 reads each input table
/// once, whole, while the work flows through the pipeline in sub-tasks.
#[test]
fn l0_shaped_compaction_issues_one_read_per_input_table() {
    let (trace, env, upper, lower) = traced_l0_fixture();
    let tables = upper.len() + lower.len();
    trace.clear();
    let exec = PipelinedExec::c_ppcp(SUBTASK, 2);
    exec.compact(&request(&env, upper, lower)).unwrap();
    assert_eq!(trace.count(IoKind::Read), tables);
    let snap = exec.profile().snapshot();
    assert!(snap.subtasks >= 4, "{} sub-tasks", snap.subtasks);
    assert!(exec.profile().max_subtask_bytes() < 2 * SUBTASK);
}

/// Each input block is read and counted once, although a block that
/// straddles a cut is verified and decoded by both neighbouring sub-tasks:
/// the profile's input bytes and blocks are the device's.
#[test]
fn profile_input_bytes_equal_device_reads() {
    let (trace, env, upper, lower) = traced_l0_fixture();
    let data_blocks: u64 = upper.iter().chain(&lower).map(|t| t.stats().data_blocks).sum();
    trace.clear();
    let exec = PipelinedExec::pcp(SUBTASK);
    exec.compact(&request(&env, upper, lower)).unwrap();
    let device_bytes: u64 = trace
        .trace()
        .into_iter()
        .filter(|r| r.kind == IoKind::Read)
        .map(|r| r.len as u64)
        .sum();
    let snap = exec.profile().snapshot();
    assert_eq!(snap.input_bytes, device_bytes);
    assert_eq!(snap.blocks, data_blocks);
}
