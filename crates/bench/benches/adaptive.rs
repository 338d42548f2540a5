//! Adaptive-executor ablation: the production default ([`AdaptiveExec`])
//! against every fixed pipeline shape on the same compaction fixture, on
//! simulated HDD and SSD.
//!
//! The adaptive executor cannot beat the best fixed shape on a steady
//! fixture — its job is to *find* that shape (from occupancy history and
//! input size) without being told the device. The acceptance bar is
//! therefore "within noise of the best fixed executor" on both devices:
//! `adaptive >= best_fixed * 0.85` (run-to-run spread of `run_median3` on
//! a shared CI host is comfortably inside 15 %).
//!
//! Emits `bench_results/adaptive.tsv` and
//! `bench_results/BENCH_adaptive.json` (acceptance block per device plus
//! the shape the adaptive executor settled on).

use pcp_bench::*;
use pcp_core::{AdaptiveExec, PipelinedExec, ScpExec, CHOICE_LABELS};
use pcp_lsm::{CompactionExec, SimpleMergeExec};
use pcp_storage::EnvRef;
use std::io::Write as _;
use std::sync::Arc;

struct Run {
    device: &'static str,
    exec: &'static str,
    bandwidth: f64, // B/s, median of 3
}

fn fixed_executors(k: usize) -> Vec<(&'static str, Arc<dyn CompactionExec>)> {
    vec![
        ("simple", Arc::new(SimpleMergeExec) as Arc<dyn CompactionExec>),
        ("scp", Arc::new(ScpExec::new(SUBTASK_BYTES))),
        ("pcp", Arc::new(PipelinedExec::pcp(SUBTASK_BYTES))),
        ("c-ppcp", Arc::new(PipelinedExec::c_ppcp(SUBTASK_BYTES, k))),
        ("s-ppcp", Arc::new(PipelinedExec::s_ppcp(SUBTASK_BYTES, k))),
    ]
}

fn main() {
    let quick = quick_mode();
    // Input must sit well above AdaptiveConfig::small_job_bytes (4 MiB)
    // or the adaptive path degenerates to the simple merge.
    let upper_bytes: u64 = if quick { 6 << 20 } else { 16 << 20 };
    let k = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let mut runs: Vec<Run> = Vec::new();
    let mut adaptive_choices: Vec<(&'static str, [u64; 4])> = Vec::new();
    let mut report = Report::new("adaptive", &["device", "exec", "bw MB/s", "vs best fixed"]);

    for device in ["hdd", "ssd"] {
        let env: EnvRef = if device == "hdd" {
            hdd_env(1.0)
        } else {
            ssd_env(1.0)
        };
        let fixture = build_fixture(Arc::clone(&env), upper_bytes, VALUE_LEN, 0xADA);

        for (name, exec) in fixed_executors(k) {
            let bw = run_median3(&fixture, exec.as_ref());
            runs.push(Run {
                device,
                exec: name,
                bandwidth: bw,
            });
        }

        // The adaptive executor reads the *previous* compaction's
        // occupancy; one warmup run gives it the history a production
        // database accumulates naturally.
        let adaptive = AdaptiveExec::default();
        let (_, _, _) = run_once(&fixture, &adaptive);
        let bw = run_median3(&fixture, &adaptive);
        adaptive_choices.push((device, adaptive.choice_counts()));
        runs.push(Run {
            device,
            exec: "adaptive",
            bandwidth: bw,
        });

        let best_fixed = runs
            .iter()
            .filter(|r| r.device == device && r.exec != "adaptive")
            .map(|r| r.bandwidth)
            .fold(0.0f64, f64::max);
        for r in runs.iter().filter(|r| r.device == device) {
            report.row(&[
                device.to_string(),
                r.exec.to_string(),
                mbps(r.bandwidth).trim().to_string(),
                format!("{:.2}x", r.bandwidth / best_fixed),
            ]);
        }
    }
    report.finish("adaptive executor vs fixed pipeline shapes (paper Fig. 10 fixture)");

    write_json(&runs, &adaptive_choices, upper_bytes, k);
}

/// Hand-rolled JSON (no serde in the tree), following the
/// `BENCH_group_commit.json` idiom: raw results plus one acceptance block.
fn write_json(runs: &[Run], choices: &[(&'static str, [u64; 4])], upper_bytes: u64, k: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"adaptive\",\n");
    out.push_str(&format!(
        "  \"upper_bytes\": {upper_bytes},\n  \"workers\": {k},\n  \"subtask_bytes\": {SUBTASK_BYTES},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"device\": \"{}\", \"exec\": \"{}\", \"bandwidth_mb_s\": {:.2}}}{}\n",
            r.device,
            r.exec,
            r.bandwidth / (1024.0 * 1024.0),
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"adaptive_choice_counts\": {\n");
    for (i, (device, counts)) in choices.iter().enumerate() {
        let pairs: Vec<String> = CHOICE_LABELS
            .iter()
            .zip(counts.iter())
            .map(|(label, n)| format!("\"{label}\": {n}"))
            .collect();
        out.push_str(&format!(
            "    \"{device}\": {{{}}}{}\n",
            pairs.join(", "),
            if i + 1 == choices.len() { "" } else { "," }
        ));
    }
    out.push_str("  },\n");

    // Acceptance: on each device the adaptive executor lands within 15 %
    // of the best fixed shape (it usually *is* the best shape after one
    // warmup compaction).
    let mut blocks = Vec::new();
    let mut pass = true;
    for device in ["hdd", "ssd"] {
        let best_fixed = runs
            .iter()
            .filter(|r| r.device == device && r.exec != "adaptive")
            .max_by(|a, b| a.bandwidth.total_cmp(&b.bandwidth))
            .expect("fixed runs present");
        let adaptive = runs
            .iter()
            .find(|r| r.device == device && r.exec == "adaptive")
            .expect("adaptive run present");
        let ratio = adaptive.bandwidth / best_fixed.bandwidth;
        pass &= ratio >= 0.85;
        blocks.push(format!(
            "    {{\"device\": \"{device}\", \"best_fixed\": \"{}\", \
             \"best_fixed_mb_s\": {:.2}, \"adaptive_mb_s\": {:.2}, \
             \"ratio\": {ratio:.3}, \"required\": 0.85}}",
            best_fixed.exec,
            best_fixed.bandwidth / (1024.0 * 1024.0),
            adaptive.bandwidth / (1024.0 * 1024.0),
        ));
    }
    out.push_str(&format!(
        "  \"acceptance\": {{\"per_device\": [\n{}\n  ], \"pass\": {pass}}}\n",
        blocks.join(",\n")
    ));
    out.push_str("}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_adaptive.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_adaptive.json");
    f.write_all(out.as_bytes()).expect("write json");
    println!("\nwrote {}", path.display());
    println!("acceptance pass: {pass}");
}
