//! Figure 8 — SCP seven-step breakdown for key-value sizes 64 B … 1024 B,
//! on (a) HDD and (b) SSD.
//!
//! Paper shape targets: step-sort's share shrinks as entries get larger
//! (fewer entries per byte); crc and re-crc each < 5 %; decomp least;
//! comp the most costly compute step.

use pcp_bench::*;
use pcp_core::{PipelinedExec, Step};

fn main() {
    let upper: u64 = if quick_mode() { 2 << 20 } else { 8 << 20 };
    let value_sizes: &[usize] = &[64, 128, 256, 512, 1024];
    for (device, mk_env) in [
        ("hdd", (|s| hdd_env(s)) as fn(f64) -> pcp_storage::EnvRef),
        ("ssd", |s| ssd_env(s)),
    ] {
        let mut report = Report::new(
            &format!("fig8_{device}"),
            &[
                "kv_size", "read%", "crc%", "decomp%", "sort%", "comp%", "re-crc%",
                "write%",
            ],
        );
        for &vs in value_sizes {
            let fixture = build_fixture(mk_env(1.0), upper, vs, 8);
            let exec = PipelinedExec::scp(SUBTASK_BYTES);
            let profile = exec.profile();
            let snap = profiled_run(&fixture, &exec, &profile);
            let mut row = vec![format!("{}", KEY_LEN + vs)];
            for s in Step::ALL {
                row.push(format!("{:.1}", snap.fraction(s) * 100.0));
            }
            report.row(&row);
        }
        report.finish(&format!(
            "SCP 7-step breakdown vs key-value size on {device} (paper Fig. 8)"
        ));
    }
}
