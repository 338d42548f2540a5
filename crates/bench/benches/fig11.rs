//! Figure 11 — PCP vs SCP compaction bandwidth on SSD:
//! (a) sub-task size 64 KB → 4 MB at fixed compaction size;
//! (b) compaction (upper-input) size 1 → 10 MB at a 1 MB sub-task.
//!
//! Paper shape targets:
//! (a) SCP bandwidth rises monotonically with sub-task size (bigger I/O =
//!     more SSD internal parallelism); PCP rises then falls, peaking near
//!     512 KB (too few sub-tasks starve the pipeline).
//! (b) SCP is flat in compaction size; PCP keeps improving until the
//!     sub-task count reaches ≈ 6 (fill/drain amortization).

use pcp_bench::*;
use pcp_core::PipelinedExec;

fn main() {
    // (a) sub-task sweep at fixed compaction size.
    let upper: u64 = if quick_mode() { 4 << 20 } else { 8 << 20 };
    let mut report = Report::new("fig11a", &["subtask", "scp_MB/s", "pcp_MB/s", "speedup"]);
    let sizes: &[u64] = &[
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
    ];
    for &st in sizes {
        let fixture = build_fixture(ssd_env(1.0), upper, VALUE_LEN, 11);
        let scp_bw = run_median3(&fixture, &PipelinedExec::scp(st));
        let pcp_bw = run_median3(&fixture, &PipelinedExec::pcp(st));
        report.row(&[
            format!("{}K", st >> 10),
            mbps(scp_bw).trim().to_string(),
            mbps(pcp_bw).trim().to_string(),
            format!("{:.2}", pcp_bw / scp_bw),
        ]);
    }
    report.finish("bandwidth vs sub-task size, fixed compaction (paper Fig. 11a, SSD)");

    // (b) compaction-size sweep at fixed 1 MB sub-task.
    let mut report = Report::new(
        "fig11b",
        &["upper_MB", "subtasks", "scp_MB/s", "pcp_MB/s", "speedup"],
    );
    let uppers: &[u64] = &[1, 2, 3, 4, 6, 8, 10];
    for &mb in uppers {
        let fixture = build_fixture(ssd_env(1.0), mb << 20, VALUE_LEN, 12);
        let subtask = 1 << 20;
        let scp = PipelinedExec::scp(subtask);
        let scp_profile = scp.profile();
        let scp_bw = run_median3(&fixture, &scp);
        let subtasks = scp_profile.snapshot().subtasks / 3;
        let pcp_bw = run_median3(&fixture, &PipelinedExec::pcp(subtask));
        report.row(&[
            mb.to_string(),
            subtasks.to_string(),
            mbps(scp_bw).trim().to_string(),
            mbps(pcp_bw).trim().to_string(),
            format!("{:.2}", pcp_bw / scp_bw),
        ]);
    }
    report.finish("bandwidth vs compaction size, 1 MB sub-task (paper Fig. 11b, SSD)");
}
