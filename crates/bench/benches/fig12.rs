//! Figure 12 — the parallel pipelined compaction procedures:
//! (a–c) S-PPCP over k RAID0 disks on HDD, (d–f) C-PPCP with k compute
//! workers on SSD.
//!
//! S-PPCP is measured for real: k read lanes over a simulated RAID0 array
//! — simulated I/O sleeps overlap even on this 1-core host. C-PPCP's
//! compute parallelism cannot speed up in wall clock on one core (the
//! "real" column shows exactly that, honestly), so the scaling series
//! comes from the DES with host-calibrated compute costs (DESIGN.md §3).
//!
//! Paper shape targets: S-PPCP throughput stops improving once the
//! pipeline turns CPU-bound (≈5 disks on their testbed); C-PPCP gains
//! from one extra worker then turns I/O-bound, and excess workers cost a
//! little (thread sync overhead).

use pcp_bench::*;
use pcp_core::PipelinedExec;
use pcp_sim::{simulate, CostParams, DeviceKind, Procedure};

fn main() {
    let (compute_per_byte, _) = calibrate_compute(SUBTASK_BYTES);
    let upper: u64 = if quick_mode() { 4 << 20 } else { 16 << 20 };
    let ks: &[usize] = &[1, 2, 3, 4, 5, 6, 8];

    // --- S-PPCP on k-disk RAID0 (HDD) ---
    let mut report = Report::new(
        "fig12_sppcp",
        &[
            "disks",
            "real_MB/s",
            "real_speedup",
            "des_MB/s",
            "des_speedup",
        ],
    );
    let hdd_params = CostParams {
        device: DeviceKind::Hdd(pcp_storage::HddModel::sata_7200()),
        subtask_bytes: SUBTASK_BYTES,
        compute_secs_per_byte: compute_per_byte,
        write_amplification: 1.0,
    };
    let des_costs = hdd_params.subtask_costs(64);
    let des_base = simulate(Procedure::s_ppcp(1), &des_costs)
        .makespan
        .as_secs_f64();
    let mut real_base = 0.0f64;
    for &k in ks {
        let fixture = build_fixture(raid_hdd_env(k, 1.0), upper, VALUE_LEN, 120 + k as u64);
        let bw = run_median3(&fixture, &PipelinedExec::s_ppcp(SUBTASK_BYTES, k));
        if k == 1 {
            real_base = bw;
        }
        let des = simulate(Procedure::s_ppcp(k), &des_costs)
            .makespan
            .as_secs_f64();
        // x2: moved bytes (input + output), same units as the real column.
        let des_bw = 2.0 * 64.0 * SUBTASK_BYTES as f64 / des;
        report.row(&[
            k.to_string(),
            mbps(bw).trim().to_string(),
            format!("{:.2}", bw / real_base),
            mbps(des_bw).trim().to_string(),
            format!("{:.2}", des_base / des),
        ]);
    }
    report.finish("S-PPCP over k RAID0 HDDs (paper Fig. 12a–c)");

    // --- C-PPCP with k compute workers (SSD) ---
    let mut report = Report::new(
        "fig12_cppcp",
        &["workers", "real_MB/s(1-core)", "des_MB/s", "des_speedup"],
    );
    let ssd_params = CostParams {
        device: DeviceKind::ssd(),
        subtask_bytes: SUBTASK_BYTES,
        compute_secs_per_byte: compute_per_byte,
        write_amplification: 1.0,
    };
    let des_costs = ssd_params.subtask_costs(64);
    let des_base = simulate(Procedure::c_ppcp(1), &des_costs)
        .makespan
        .as_secs_f64();
    for &k in ks {
        let fixture = build_fixture(ssd_env(1.0), upper, VALUE_LEN, 140 + k as u64);
        let bw = run_median3(&fixture, &PipelinedExec::c_ppcp(SUBTASK_BYTES, k));
        let des = simulate(Procedure::c_ppcp(k), &des_costs)
            .makespan
            .as_secs_f64();
        let des_bw = 2.0 * 64.0 * SUBTASK_BYTES as f64 / des;
        report.row(&[
            k.to_string(),
            mbps(bw).trim().to_string(),
            mbps(des_bw).trim().to_string(),
            format!("{:.2}", des_base / des),
        ]);
    }
    report.finish("C-PPCP with k compute workers on SSD (paper Fig. 12d–f; DES carries the multi-core series on this 1-core host)");
}
