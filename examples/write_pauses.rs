//! Write pauses: the paper's motivating coupling between compaction
//! bandwidth and system throughput, observed live.
//!
//! Runs the same insert burst against an engine using SCP and one using
//! PCP on a simulated HDD, and reports insert throughput, stall counts
//! and stall time — slow compaction ⇒ L0 fills ⇒ writers pause.
//!
//! ```sh
//! cargo run --release --example write_pauses
//! ```

use pcp::core::PipelinedExec;
use pcp::lsm::{CompactionExec, CompactionPolicy, Db, Options};
use pcp::storage::{EnvRef, HddModel, SimDevice, SimEnv};
use pcp::workload::{run_inserts, KeyOrder, WorkloadConfig};
use std::sync::Arc;

fn engine(executor: Arc<dyn CompactionExec>) -> Db {
    let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::new(
        "hdd0",
        HddModel::default(),
        1 << 40,
        1.0,
    ))));
    // Scaled-down engine constants so the burst triggers real compactions
    // within seconds (see DESIGN.md §3).
    let opts = Options {
        memtable_bytes: 1 << 20,
        sstable_bytes: 512 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 2 << 20,
            level_multiplier: 10,
        },
        executor,
        ..Default::default()
    };
    Db::open(env, opts).unwrap()
}

fn main() {
    let cfg = WorkloadConfig {
        entries: 100_000,
        key_len: 16,
        value_len: 100,
        key_space: Some(400_000),
        order: KeyOrder::UniformRandom,
        value_compressibility: 0.5,
        seed: 0xBEEF,
    };

    println!("insert burst of {} entries on a simulated HDD:\n", cfg.entries);
    for (name, exec) in [
        (
            "SCP",
            Arc::new(PipelinedExec::scp(256 << 10)) as Arc<dyn CompactionExec>,
        ),
        ("PCP", Arc::new(PipelinedExec::pcp(256 << 10))),
    ] {
        let db = engine(exec);
        let r = run_inserts(&db, &cfg).unwrap();
        println!("{name}:");
        println!("  insert throughput: {:8.0} ops/s", r.iops);
        println!(
            "  write pauses:      {} stalls ({:.0} ms stalled)",
            r.stall_events,
            r.stall_time.as_secs_f64() * 1e3,
        );
        println!(
            "  compaction:        {} runs, {:.1} MB moved at {:.1} MB/s\n",
            r.compaction_count,
            r.compaction_bytes as f64 / 1048576.0,
            r.compaction_bandwidth / 1048576.0
        );
    }
    println!("faster background compaction (PCP) = fewer/shorter pauses = higher IOPS —");
    println!("the coupling behind the paper's Fig. 10.");
}
