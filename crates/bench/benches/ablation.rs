//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. queue depth between stages (fill/drain vs memory);
//! 2. pipeline depth — the paper's 3 stages vs a 5-stage split of the
//!    compute stage (their §III-B argument for NOT splitting);
//! 3. resequencer overhead — C-PPCP with k workers on one core;
//! 4. compression on/off — moves the SSD pipeline between CPU- and
//!    I/O-bound.

use pcp_bench::*;
use pcp_core::{PipelineConfig, PipelinedExec, Step};
use pcp_sim::{simulate_tandem, StageSpec, SubTaskCost};
use pcp_sim::{CostParams, DeviceKind};
use std::time::Duration;

fn main() {
    queue_depth();
    pipeline_depth();
    resequencer_overhead();
    compression_toggle();
}

fn queue_depth() {
    let upper: u64 = if quick_mode() { 4 << 20 } else { 8 << 20 };
    let mut report = Report::new("ablation_queue_depth", &["depth", "pcp_MB/s"]);
    for depth in [1usize, 2, 4, 8, 16] {
        let fixture = build_fixture(ssd_env(1.0), upper, VALUE_LEN, 200);
        let exec = PipelinedExec::new(PipelineConfig {
            subtask_bytes: SUBTASK_BYTES,
            queue_depth: depth,
            ..Default::default()
        });
        let (_, _, bw) = run_once(&fixture, &exec);
        report.row(&[depth.to_string(), mbps(bw).trim().to_string()]);
    }
    report.finish("PCP bandwidth vs inter-stage queue depth (SSD)");
}

fn pipeline_depth() {
    // DES: compare the paper's 3-stage pipeline against a 5-stage variant
    // that splits compute into crc+decomp | merge | comp+re-crc. With one
    // CPU per stage the bottleneck stage barely changes — the paper's
    // point that deeper pipelines don't pay (and cost d-cache locality,
    // which the DES can't even see).
    let (cpb, steps) = calibrate_compute(SUBTASK_BYTES);
    let params = CostParams {
        device: DeviceKind::ssd(),
        subtask_bytes: SUBTASK_BYTES,
        compute_secs_per_byte: cpb,
        write_amplification: 1.0,
    };
    let costs = params.subtask_costs(64);
    let three = pcp_sim::simulate(pcp_sim::Procedure::pcp(), &costs);
    // Equal-resource alternative: the same 3 CPUs spent on whole-sub-task
    // parallelism (C-PPCP k=3) instead of stage splitting.
    let cppcp3 = pcp_sim::simulate(pcp_sim::Procedure::c_ppcp(3), &costs);

    // 5-stage: split the measured compute proportionally.
    let total: f64 = steps[1..6].iter().sum();
    let frac = |r: std::ops::Range<usize>| -> f64 {
        steps[r].iter().sum::<f64>() / total
    };
    let stages5 = vec![
        StageSpec { name: "read", servers: 1, buffer: usize::MAX, in_order: false },
        StageSpec { name: "verify", servers: 1, buffer: 4, in_order: false },
        StageSpec { name: "merge", servers: 1, buffer: 4, in_order: false },
        StageSpec { name: "seal", servers: 1, buffer: 4, in_order: false },
        StageSpec { name: "write", servers: 1, buffer: usize::MAX, in_order: true },
    ];
    let rows: Vec<Vec<Duration>> = costs
        .iter()
        .map(|c: &SubTaskCost| {
            vec![
                c.read,
                c.compute.mul_f64(frac(1..3)),
                c.compute.mul_f64(frac(3..4)),
                c.compute.mul_f64(frac(4..6)),
                c.write,
            ]
        })
        .collect();
    let five = simulate_tandem(&stages5, &rows);

    // And the same comparison on the real executors (SSD model).
    let upper: u64 = if quick_mode() { 4 << 20 } else { 8 << 20 };
    let fixture = build_fixture(ssd_env(1.0), upper, VALUE_LEN, 250);
    let real3 = run_median3(&fixture, &PipelinedExec::pcp(SUBTASK_BYTES));
    let real5 = run_median3(
        &fixture,
        &PipelinedExec::new(PipelineConfig {
            subtask_bytes: SUBTASK_BYTES,
            deep_compute: true,
            ..Default::default()
        }),
    );

    let mut report = Report::new(
        "ablation_depth",
        &["pipeline", "des_makespan_ms", "des_speedup", "real_MB/s"],
    );
    report.row(&[
        "3-stage (paper)".into(),
        format!("{:.1}", three.makespan.as_secs_f64() * 1e3),
        "1.00".into(),
        mbps(real3).trim().to_string(),
    ]);
    report.row(&[
        "5-stage split (3 CPUs)".into(),
        format!("{:.1}", five.makespan.as_secs_f64() * 1e3),
        format!(
            "{:.2}",
            three.makespan.as_secs_f64() / five.makespan.as_secs_f64()
        ),
        mbps(real5).trim().to_string(),
    ]);
    report.row(&[
        "c-ppcp k=3 (3 CPUs)".into(),
        format!("{:.1}", cppcp3.makespan.as_secs_f64() * 1e3),
        format!(
            "{:.2}",
            three.makespan.as_secs_f64() / cppcp3.makespan.as_secs_f64()
        ),
        "-".into(),
    ]);
    report.finish("3-stage vs 5-stage vs equal-CPU C-PPCP (DES + real executors, SSD) — paper §III-B: with the same 3 CPUs, whole-sub-task parallelism beats stage splitting (imbalanced stages waste servers)");
}

fn resequencer_overhead() {
    // On one core, extra compute workers only add synchronization and
    // resequencing overhead; the paper observes the same effect past the
    // I/O bound ("the throughput and the compaction bandwidth decrease").
    let upper: u64 = if quick_mode() { 2 << 20 } else { 8 << 20 };
    let mut report = Report::new("ablation_resequencer", &["workers", "MB/s"]);
    for k in [1usize, 2, 4, 8] {
        let fixture = build_fixture(mem_env(), upper, VALUE_LEN, 300);
        let (_, _, bw) = run_once(&fixture, &PipelinedExec::c_ppcp(128 << 10, k));
        report.row(&[k.to_string(), mbps(bw).trim().to_string()]);
    }
    report.finish("C-PPCP worker count on a 1-core host, latency-free I/O (pure overhead view)");
}

fn compression_toggle() {
    let upper: u64 = if quick_mode() { 4 << 20 } else { 8 << 20 };
    let mut report = Report::new(
        "ablation_compression",
        &["compression", "read%", "compute%", "write%", "scp_MB/s"],
    );
    for (label, kind) in [
        ("lz", pcp_sstable::CompressionKind::Lz),
        ("none", pcp_sstable::CompressionKind::None),
    ] {
        let env = ssd_env(1.0);
        let fixture = build_fixture(env, upper, VALUE_LEN, 400);
        let exec = PipelinedExec::scp(SUBTASK_BYTES);
        let profile = exec.profile();
        // Rebuild the request with the toggled compression for outputs;
        // inputs were built compressed either way, so the toggle mostly
        // moves S5 (the dominant compute step).
        let mut req = fixture.request();
        req.table_opts.compression = kind;
        let before = profile.snapshot();
        let outputs = pcp_lsm::CompactionExec::compact(&exec, &req).unwrap();
        let snap = profile.snapshot().delta(&before);
        fixture.clean_outputs(&outputs);
        let (r, c, w) = snap.three_part_split();
        report.row(&[
            label.into(),
            format!("{:.1}", r * 100.0),
            format!("{:.1}", c * 100.0),
            format!("{:.1}", w * 100.0),
            mbps(snap.bandwidth()).trim().to_string(),
        ]);
        let _ = Step::ALL;
    }
    report.finish("compression on/off moves the SSD bottleneck (SCP breakdown)");
}
