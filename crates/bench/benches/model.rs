//! Model table — Eq. 1–7 closed forms vs the discrete-event simulator,
//! using step times calibrated from the real implementation on this host
//! (compute steps) and the paper-era device models (I/O steps).
//!
//! Shape target: DES bandwidths match the closed forms within the
//! fill/drain overhead the paper reports (~10 %), and the speedup caps
//! min{k, …} hold.
//!
//! Bandwidths here are input-normalized (sub-task bytes per second), the
//! quantity Eq. 1–7 are written in.

use pcp_bench::*;
use pcp_core::model::{
    b_cppcp, b_pcp, b_scp, b_sppcp, classify, cppcp_speedup_bound, sppcp_speedup_bound, StepTimes,
};
use pcp_sim::{simulate, CostParams, DeviceKind, Procedure};

fn main() {
    let (compute_per_byte, measured_steps) = calibrate_compute(SUBTASK_BYTES);
    eprintln!(
        "calibration: compute = {:.1} MB/s aggregate; measured per-subtask steps = {measured_steps:?}",
        1.0 / compute_per_byte / (1024.0 * 1024.0)
    );

    let n = 100;
    let mut report = Report::new(
        "model",
        &[
            "device",
            "proc",
            "k",
            "model_MB/s",
            "des_MB/s",
            "err%",
            "speedup_cap",
        ],
    );
    for (device, kind) in [("hdd", DeviceKind::hdd()), ("ssd", DeviceKind::ssd())] {
        let params = CostParams {
            device: kind,
            subtask_bytes: SUBTASK_BYTES,
            compute_secs_per_byte: compute_per_byte,
            write_amplification: 1.0,
        };
        let costs = params.subtask_costs(n);
        let mean_read = costs.iter().map(|c| c.read.as_secs_f64()).sum::<f64>() / n as f64;
        let mean_compute = costs.iter().map(|c| c.compute.as_secs_f64()).sum::<f64>() / n as f64;
        let mean_write = costs.iter().map(|c| c.write.as_secs_f64()).sum::<f64>() / n as f64;
        // Distribute the aggregate compute time over S2–S6 proportionally
        // to the host profile; Eq. 1–7 only use the aggregate.
        let compute_total: f64 = measured_steps[1..6].iter().sum();
        let scale = if compute_total > 0.0 {
            mean_compute / compute_total
        } else {
            0.0
        };
        let t = StepTimes::new([
            mean_read,
            measured_steps[1] * scale,
            measured_steps[2] * scale,
            measured_steps[3] * scale,
            measured_steps[4] * scale,
            measured_steps[5] * scale,
            mean_write,
        ]);
        eprintln!(
            "model[{device}]: t_S1={mean_read:.4}s compute={mean_compute:.4}s t_S7={mean_write:.4}s → {:?}",
            classify(&t)
        );

        let l = SUBTASK_BYTES as f64;
        let input_bytes = n as f64 * l;
        let mut push = |proc: &str, k: usize, model_bw: f64, des_bw: f64, cap: String| {
            let err = (des_bw - model_bw).abs() / model_bw * 100.0;
            report.row(&[
                device.to_string(),
                proc.to_string(),
                k.to_string(),
                mbps(model_bw).trim().to_string(),
                mbps(des_bw).trim().to_string(),
                format!("{err:.1}"),
                cap,
            ]);
        };

        let des = simulate(Procedure::Scp, &costs);
        push(
            "scp",
            1,
            b_scp(l, &t),
            input_bytes / des.makespan.as_secs_f64(),
            "-".into(),
        );
        let des = simulate(Procedure::pcp(), &costs);
        push(
            "pcp",
            1,
            b_pcp(l, &t),
            input_bytes / des.makespan.as_secs_f64(),
            "-".into(),
        );
        for k in [2usize, 4, 6, 8] {
            let des = simulate(Procedure::s_ppcp(k), &costs);
            push(
                "s-ppcp",
                k,
                b_sppcp(l, &t, k),
                input_bytes / des.makespan.as_secs_f64(),
                format!("<={:.2}", sppcp_speedup_bound(&t, k).max(1.0)),
            );
            let des = simulate(Procedure::c_ppcp(k), &costs);
            push(
                "c-ppcp",
                k,
                b_cppcp(l, &t, k),
                input_bytes / des.makespan.as_secs_f64(),
                format!("<={:.2}", cppcp_speedup_bound(&t, k).max(1.0)),
            );
        }
    }
    report.finish("Eq. 1–7 closed forms vs DES (calibrated step times)");
}
