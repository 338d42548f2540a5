//! Figure 5 — execution-time breakdown of the Sequential Compaction
//! Procedure into three parts (read | compute | write), on (a) HDD and
//! (b) SSD.
//!
//! Paper shape targets: HDD read > 40 %, read+write > 60 % (disk-bound);
//! SSD compute > 60 % with write > read (CPU-bound).

use pcp_bench::*;
use pcp_core::{PipelinedExec, Step};

fn main() {
    let upper = if quick_mode() { 4 << 20 } else { 16 << 20 };
    let mut report = Report::new(
        "fig5",
        &["device", "read%", "compute%", "write%", "verdict"],
    );
    // Everything measured below is also exported through the registry —
    // per-step busy time and the last-compaction occupancy gauges — and
    // mirrored as BENCH_obs_fig5.json next to the TSV table.
    let registry = pcp_obs::Registry::new();
    for (device, env) in [("hdd", hdd_env(1.0)), ("ssd", ssd_env(1.0))] {
        let fixture = build_fixture(env, upper, VALUE_LEN, 5);
        let exec = PipelinedExec::scp(SUBTASK_BYTES);
        let profile = exec.profile();
        profile.register_metrics(&registry, &format!("scp-{device}"));
        let snap = profiled_run(&fixture, &exec, &profile);
        let (r, c, w) = snap.three_part_split();
        let verdict = if c > r + w { "CPU-bound" } else { "I/O-bound" };
        report.row(&[
            device.to_string(),
            format!("{:.1}", r * 100.0),
            format!("{:.1}", c * 100.0),
            format!("{:.1}", w * 100.0),
            verdict.to_string(),
        ]);
        eprintln!(
            "fig5[{device}]: per-step = {:?}",
            Step::ALL
                .iter()
                .map(|s| format!("{}={:.0}%", s.label(), snap.fraction(*s) * 100.0))
                .collect::<Vec<_>>()
        );
    }
    report.finish("SCP time breakdown into three parts (paper Fig. 5)");
    let path = write_obs_json("fig5", &registry);
    eprintln!("fig5: metrics snapshot written to {}", path.display());
}
