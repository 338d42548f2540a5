//! Figure 10 — full-system comparison of SCP vs PCP as the working set
//! grows: IOPS (a,d), compaction bandwidth (b,e) and speedups (c,f), on
//! HDD and SSD.
//!
//! The paper inserts 10–80 M entries on real hardware; this harness runs
//! the same insert-only workload against the full engine on the simulated
//! devices with proportionally scaled sizes (see DESIGN.md §3), then adds
//! a DES column for the unscaled configuration.
//!
//! Paper shape targets: PCP ≥ +25 % IOPS on HDD and ≥ +45 % on SSD;
//! bandwidth ≥ +45 % (HDD) / +65 % (SSD); throughput gains trail
//! bandwidth gains.

use pcp_bench::*;
use pcp_core::PipelinedExec;
use pcp_lsm::{CompactionExec, CompactionPolicy, Db, Options};
use pcp_workload::{run_inserts, KeyOrder, WorkloadConfig};
use std::sync::Arc;

fn paper_options(executor: Arc<dyn CompactionExec>) -> Options {
    // The paper's constants: 4 MB memtable, 2 MB SSTables, 4 KB blocks,
    // compression on, LevelDB trigger defaults.
    Options {
        memtable_bytes: MEMTABLE_BYTES,
        sstable_bytes: SSTABLE_BYTES,
        block_bytes: BLOCK_BYTES,
        compression: true,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 10 << 20,
            level_multiplier: 10,
        },
        sync_writes: false,
        block_cache_bytes: 0,
        executor,
        ..Options::default()
    }
}

fn main() {
    // The paper sweeps 10M..80M entries; scaled ~1:100 here (DESIGN.md §3)
    // so each point still spans many flushes and multi-level compactions.
    // Below ~500k entries the workload never enters the compaction-bound
    // (write-pause) regime on these devices and the comparison measures
    // scheduler noise; see EXPERIMENTS.md.
    let entries: Vec<u64> = if quick_mode() {
        vec![600_000]
    } else {
        vec![600_000, 1_200_000]
    };
    let subtask = SUBTASK_BYTES;

    for device in ["hdd", "ssd"] {
        let mut report = Report::new(
            &format!("fig10_{device}"),
            &[
                "entries",
                "scp_iops",
                "pcp_iops",
                "iops_gain%",
                "scp_bw_MB/s",
                "pcp_bw_MB/s",
                "bw_gain%",
                "scp_stall_ms",
                "pcp_stall_ms",
            ],
        );
        for &n in &entries {
            let mut results = Vec::new();
            for which in ["scp", "pcp"] {
                let env = if device == "hdd" {
                    hdd_env(1.0)
                } else {
                    ssd_env(1.0)
                };
                let executor: Arc<dyn CompactionExec> = if which == "scp" {
                    Arc::new(PipelinedExec::scp(subtask))
                } else {
                    Arc::new(PipelinedExec::pcp(subtask))
                };
                let db = Db::open(env, paper_options(executor)).unwrap();
                let cfg = WorkloadConfig {
                    entries: n,
                    key_len: KEY_LEN,
                    value_len: VALUE_LEN,
                    key_space: Some(n * 4),
                    order: KeyOrder::UniformRandom,
                    value_compressibility: VALUE_COMPRESSIBILITY,
                    seed: 0xF16 + n,
                };
                let r = run_inserts(&db, &cfg).unwrap();
                results.push(r);
            }
            let (scp, pcp) = (results[0], results[1]);
            // Sustained throughput (insert + drain) is the stable metric on
            // a single-core host; see EXPERIMENTS.md for the discussion.
            report.row(&[
                n.to_string(),
                format!("{:.0}", scp.sustained_iops),
                format!("{:.0}", pcp.sustained_iops),
                format!(
                    "{:+.1}",
                    (pcp.sustained_iops / scp.sustained_iops - 1.0) * 100.0
                ),
                mbps(scp.compaction_bandwidth).trim().to_string(),
                mbps(pcp.compaction_bandwidth).trim().to_string(),
                format!(
                    "{:+.1}",
                    (pcp.compaction_bandwidth / scp.compaction_bandwidth.max(1.0) - 1.0) * 100.0
                ),
                format!("{:.0}", scp.stall_time.as_secs_f64() * 1e3),
                format!("{:.0}", pcp.stall_time.as_secs_f64() * 1e3),
            ]);
        }
        report.finish(&format!(
            "full-system SCP vs PCP on {device} (paper Fig. 10)"
        ));
    }
}
