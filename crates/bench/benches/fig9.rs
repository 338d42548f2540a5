//! Figure 9 — SCP seven-step breakdown for sub-task sizes 64 KB … 4 MB,
//! on (a) HDD and (b) SSD.
//!
//! Paper shape target: the write step's share falls as the sub-task (=I/O)
//! size grows — larger I/O exploits SSD internal parallelism and improves
//! HDD efficiency.

use pcp_bench::*;
use pcp_core::{PipelinedExec, Step};

fn main() {
    let upper: u64 = if quick_mode() { 4 << 20 } else { 16 << 20 };
    let subtask_sizes: &[u64] = &[64 << 10, 256 << 10, 1 << 20, 4 << 20];
    for (device, mk_env) in [
        ("hdd", (|s| hdd_env(s)) as fn(f64) -> pcp_storage::EnvRef),
        ("ssd", |s| ssd_env(s)),
    ] {
        let mut report = Report::new(
            &format!("fig9_{device}"),
            &[
                "subtask", "read%", "crc%", "decomp%", "sort%", "comp%", "re-crc%",
                "write%", "bw_MB/s",
            ],
        );
        for &st in subtask_sizes {
            let fixture = build_fixture(mk_env(1.0), upper, VALUE_LEN, 9);
            let exec = PipelinedExec::scp(st);
            let profile = exec.profile();
            let snap = profiled_run(&fixture, &exec, &profile);
            let mut row = vec![format!("{}K", st >> 10)];
            for s in Step::ALL {
                row.push(format!("{:.1}", snap.fraction(s) * 100.0));
            }
            row.push(mbps(snap.bandwidth()).trim().to_string());
            report.row(&row);
        }
        report.finish(&format!(
            "SCP 7-step breakdown vs sub-task size on {device} (paper Fig. 9)"
        ));
    }
}
