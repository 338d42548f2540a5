//! End-to-end observability: a real engine run under the paper's
//! executors, with the registry, occupancy gauges, trace log, Prometheus
//! exposition, and JSON snapshot all checked against each other.
//!
//! The metric contract these tests pin down is documented in
//! `OBSERVABILITY.md`; the occupancy quantity is the paper's Fig. 5
//! busy-time fraction per resource (read | compute | write).

use pcp::core::{PipelinedExec, Step};
use pcp::lsm::{CompactionExec, CompactionPolicy, Db, Options};
use pcp::obs::{Registry, SampleValue, TraceLog};
use pcp::storage::{register_device_metrics, DeviceRef, EnvRef, SimDevice, SimEnv};
use std::sync::Arc;

fn small_opts(executor: Arc<dyn CompactionExec>) -> Options {
    Options {
        memtable_bytes: 64 << 10,
        sstable_bytes: 32 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 128 << 10,
            level_multiplier: 10,
        },
        executor,
        ..Default::default()
    }
}

/// Enough writes to force several flushes and at least one merge
/// compaction under `small_opts`.
fn drive(db: &Db) {
    for i in 0..6000u64 {
        let key = format!("key{:05}", i % 2500).into_bytes();
        let value = format!("value-{i}-{}", "x".repeat((i % 80) as usize)).into_bytes();
        db.put(&key, &value).unwrap();
    }
    db.wait_idle().unwrap();
    db.compact_range(None, None).unwrap();
}

/// SCP runs its seven steps strictly sequentially, so per-resource
/// busy-time fractions must each be nonzero and sum to at most 1.0 of
/// the compaction wall time.
#[test]
fn scp_compaction_has_nonzero_busy_time_in_all_three_stages() {
    let exec = Arc::new(PipelinedExec::scp(16 << 10));
    let profile = exec.profile();
    let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))));
    let db = Db::open(env, small_opts(exec)).unwrap();
    drive(&db);

    // A pinned executor exports its profile like the default one does.
    let registry = Registry::new();
    db.executor().register_metrics(&registry);
    assert!(
        registry
            .snapshot()
            .counter("pcp_compactions_total", &[("exec", "scp")])
            > 0
    );

    let snap = profile.snapshot();
    assert!(snap.compactions > 0, "workload must compact");
    for stage in [Step::Read, Step::Sort, Step::Write] {
        assert!(
            snap.time(stage) > std::time::Duration::ZERO,
            "stage {} has zero busy time",
            stage.label()
        );
    }
    let occ = snap.occupancy();
    assert!(occ.read > 0.0 && occ.compute > 0.0 && occ.write > 0.0);
    assert!(
        occ.read + occ.compute + occ.write <= 1.0 + 1e-6,
        "sequential executor busier than wall time: {:.3}+{:.3}+{:.3}",
        occ.read,
        occ.compute,
        occ.write
    );
}

/// PCP overlaps the stages, so each resource's fraction is individually
/// bounded by 1.0 (but their sum may exceed 1.0 — that overlap is the
/// paper's speedup). The last-compaction occupancy is also published
/// through the registry gauges.
#[test]
fn pipelined_occupancy_published_through_registry() {
    let trace = Arc::new(TraceLog::new(512));
    let exec = Arc::new(PipelinedExec::pcp(16 << 10).with_trace(Arc::clone(&trace)));
    let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))));
    let db = Db::open(env, small_opts(exec)).unwrap();
    drive(&db);

    // Through the trait object, as the engine registers an executor it
    // only knows as `Arc<dyn CompactionExec>`.
    let registry = Registry::new();
    db.executor().register_metrics(&registry);
    let snap = registry.snapshot();

    // All three stage accumulators crossed the wire into the registry.
    for step in ["read", "sort", "write"] {
        assert!(
            snap.counter(
                "pcp_compaction_step_busy_nanoseconds_total",
                &[("exec", "pcp"), ("step", step)]
            ) > 0,
            "registry shows zero busy time for step {step}"
        );
    }
    // Last-compaction occupancy gauges: each in (0, 1].
    for stage in ["read", "compute", "write"] {
        let frac = snap.gauge(
            "pcp_compaction_last_occupancy",
            &[("exec", "pcp"), ("stage", stage)],
        );
        assert!(
            frac > 0.0 && frac <= 1.0,
            "stage {stage} occupancy {frac} out of (0,1]"
        );
    }
    assert!(snap.counter("pcp_compactions_total", &[("exec", "pcp")]) > 0);

    // The executor's trace recorded start/done pairs with ppm occupancy.
    let events = trace.events();
    let starts = events
        .iter()
        .filter(|e| e.kind == "compaction_start")
        .count();
    let dones: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "compaction_done")
        .collect();
    assert!(starts > 0 && !dones.is_empty());
    let last = dones.last().unwrap();
    for field in ["read_busy_ppm", "compute_busy_ppm", "write_busy_ppm"] {
        let ppm = last
            .fields
            .iter()
            .find(|(k, _)| *k == field)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("compaction_done missing {field}"));
        assert!(ppm > 0 && ppm <= 1_000_000, "{field} = {ppm}");
    }
}

/// A level-0 merge is one overlap cluster with no gap between blocks to
/// cut in: it must still enter the pipeline as several sub-tasks, none far
/// above the target — visible in the executor's trace and in the registry.
#[test]
fn l0_merge_runs_as_several_bounded_subtasks() {
    // Sixteen 4 KiB blocks to the sub-task, as the defaults have 128: the
    // blocks a sub-task shares with its neighbours, up to one per input
    // table at either end, stay a small part of it.
    const SUBTASK: u64 = 64 << 10;
    let trace = Arc::new(TraceLog::new(512));
    let exec = Arc::new(PipelinedExec::pcp(SUBTASK).with_trace(Arc::clone(&trace)));
    let profile = exec.profile();
    let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))));
    let opts = Options {
        memtable_bytes: 256 << 10,
        sstable_bytes: 128 << 10,
        ..small_opts(exec)
    };
    let db = Db::open(env, opts).unwrap();
    // Scattered keys, so every memtable — and every level-0 table — spans
    // the whole key space; values that do not compress away.
    let mut x = 7u64;
    for i in 0..12_000u64 {
        let key = format!("key{:05}", (i * 7919) % 20_000).into_bytes();
        let value: Vec<u8> = (0..100)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        db.put(&key, &value).unwrap();
    }
    db.wait_idle().unwrap();
    db.compact_range(None, None).unwrap();

    // The first merge of a fresh store is `l0_trigger` level-0 tables.
    let events = trace.events();
    let first = events
        .iter()
        .find(|e| e.kind == "compaction_start")
        .expect("the fill must compact");
    let field = |k: &str| first.fields.iter().find(|(n, _)| *n == k).unwrap().1;
    assert_eq!(field("inputs"), 4);
    assert!(
        field("subtasks") > 4 && field("subtasks") > 2 * field("read_units"),
        "{} sub-tasks in {} read units",
        field("subtasks"),
        field("read_units")
    );

    let registry = Registry::new();
    profile.register_metrics(&registry, "pcp");
    let snap = registry.snapshot();
    match &snap
        .get_with("pcp_compaction_subtask_bytes", &[("exec", "pcp")])
        .unwrap()
        .value
    {
        SampleValue::Histogram(h) => {
            assert_eq!(
                h.count,
                snap.counter("pcp_compaction_subtasks_total", &[("exec", "pcp")])
            );
            assert!(
                h.max < 2 * SUBTASK,
                "a sub-task of {} bytes at a {SUBTASK}-byte target",
                h.max
            );
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

/// One registry carries the whole stack — device, engine, executor —
/// and both renderings (Prometheus text, JSON) stay self-consistent.
#[test]
fn full_stack_registry_renders_and_validates() {
    let device: DeviceRef = Arc::new(SimDevice::mem(2 << 30));
    let env: EnvRef = Arc::new(SimEnv::new(Arc::clone(&device)));
    let exec = Arc::new(PipelinedExec::pcp(16 << 10));
    let profile = exec.profile();
    let db = Db::open(env, small_opts(exec)).unwrap();

    let registry = Registry::new();
    register_device_metrics(&registry, "mem0", &device);
    db.register_metrics(&registry, &[("shard", "0")]);
    profile.register_metrics(&registry, "pcp");

    drive(&db);

    // Prometheus text: every line parses, and the stack's three layers
    // are all represented.
    let text = registry.render_prometheus();
    let n = pcp::obs::validate_exposition(&text).unwrap();
    assert!(n > 40, "only {n} samples rendered");
    for series in [
        "pcp_device_write_bytes_total",
        "pcp_engine_flushes_total",
        "pcp_compaction_step_busy_nanoseconds_total",
    ] {
        assert!(text.contains(series), "exposition missing {series}");
    }

    // Cross-layer sanity: device bytes written >= engine flush bytes
    // (flushes go through the device, plus WAL and compaction traffic).
    let snap = registry.snapshot();
    let device_written = snap.counter("pcp_device_write_bytes_total", &[("device", "mem0")]);
    let flush_bytes = snap.counter("pcp_engine_flush_bytes_total", &[("shard", "0")]);
    assert!(flush_bytes > 0);
    assert!(
        device_written >= flush_bytes,
        "device wrote {device_written} < flush bytes {flush_bytes}"
    );

    // Latency histograms carried samples.
    match &snap
        .get_with(
            "pcp_device_write_latency_nanoseconds",
            &[("device", "mem0")],
        )
        .unwrap()
        .value
    {
        SampleValue::Histogram(h) => assert!(h.count > 0),
        other => panic!("expected histogram, got {other:?}"),
    }

    // JSON snapshot is structurally balanced and mentions each layer.
    let json = snap.to_json();
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON"
    );
    assert!(json.contains("\"pcp_device_read_ops_total\""));
    assert!(json.contains("\"pcp_engine_puts_total\""));
    assert!(json.contains("\"pcp_compaction_last_occupancy\""));

    // The engine's own trace saw the lifecycle.
    let kinds: Vec<&str> = db.trace().events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"flush_done"), "kinds: {kinds:?}");
    assert!(
        kinds.contains(&"compaction_installed") || kinds.contains(&"trivial_move"),
        "kinds: {kinds:?}"
    );
}
