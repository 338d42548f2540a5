//! Compaction lab: run one identical compaction through SCP, PCP, C-PPCP
//! and S-PPCP on simulated HDD and SSD devices, and print the per-step
//! breakdown and bandwidth of each — the paper's §III/§IV story in one
//! binary.
//!
//! ```sh
//! cargo run --release --example compaction_lab
//! ```

use pcp::compaction::filename::table_file;
use pcp::core::{PipelinedExec, Step};
use pcp::lsm::{CompactionExec, CompactionRequest, TableCache};
use pcp::sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
use pcp::sstable::{TableBuilder, TableBuilderOptions, TableReader};
use pcp::storage::{DeviceRef, EnvRef, HddModel, Raid0, SimDevice, SimEnv, SsdModel};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

const SUBTASK: u64 = 512 << 10;

fn build_inputs(
    env: &EnvRef,
    entries: usize,
) -> (Vec<Arc<TableReader>>, Vec<Arc<TableReader>>, u64) {
    let mut input_bytes = 0;
    let mk = |name: &str, n: usize, stride: u64, seq0: u64| {
        let f = env.create(name).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for i in 0..n {
            let ik = make_internal_key(
                format!("{:016}", i as u64 * stride).as_bytes(),
                seq0 + i as u64,
                ValueType::Value,
            );
            let mut v = format!("v{i}-").into_bytes();
            // Half compressible, half pseudo-random (snappy-like corpus).
            v.extend_from_slice(&b"pipelined-compaction-pipelined-compaction-"[..40]);
            for _ in 0..50 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v.push(x as u8);
            }
            b.add(&ik, &v).unwrap();
        }
        let stats = b.finish().unwrap().stats();
        (
            Arc::new(TableReader::open(env.open(name).unwrap()).unwrap()),
            stats.file_size,
        )
    };
    let (lower, s1) = mk("lower.sst", entries, 2, 1);
    let (upper, s2) = mk("upper.sst", entries / 2, 4, 1_000_000);
    input_bytes += s1 + s2;
    (vec![upper], vec![lower], input_bytes)
}

fn run(env: EnvRef, name: &str, exec: &dyn CompactionExec, profile: &pcp::core::CompactionProfile) {
    let (upper, lower, input_bytes) = build_inputs(&env, 20_000);
    let req = CompactionRequest {
        tables: Arc::new(TableCache::new(Arc::clone(&env))),
        upper,
        lower,
        output_level: 2,
        bottom_level: true,
        smallest_snapshot: MAX_SEQUENCE,
        file_numbers: Arc::new(AtomicU64::new(100)),
        table_opts: TableBuilderOptions::default(),
        max_output_bytes: 2 << 20,
        grant: pcp_lsm::ResourceGrant::unlimited(),
    };
    let t0 = Instant::now();
    let outputs = exec.compact(&req).unwrap();
    let wall = t0.elapsed();
    let out_bytes: u64 = outputs.iter().map(|f| f.size).sum();
    let moved = input_bytes + out_bytes;
    let snap = profile.snapshot();
    print!(
        "{name:28} {:7.2} MB/s  |",
        moved as f64 / wall.as_secs_f64() / 1048576.0
    );
    for s in Step::ALL {
        print!(" {}={:4.1}%", s.label(), snap.fraction(s) * 100.0);
    }
    println!("  ({} output tables)", outputs.len());
    for f in outputs {
        let _ = env.delete(&table_file(f.number));
    }
}

fn main() {
    println!("One compaction (≈7 MB in), four procedures, two devices.\n");

    for device in ["hdd", "ssd"] {
        println!("== {} ==", device.to_uppercase());
        let mk_env = || -> EnvRef {
            match device {
                "hdd" => Arc::new(SimEnv::new(Arc::new(SimDevice::new(
                    "hdd0",
                    HddModel::default(),
                    1 << 40,
                    1.0,
                )))),
                _ => Arc::new(SimEnv::new(Arc::new(SimDevice::new(
                    "ssd0",
                    SsdModel::default(),
                    1 << 40,
                    1.0,
                )))),
            }
        };
        let scp = PipelinedExec::scp(SUBTASK);
        run(mk_env(), "SCP (sequential baseline)", &scp, &scp.profile());
        let pcp = PipelinedExec::pcp(SUBTASK);
        run(mk_env(), "PCP (3-stage pipeline)", &pcp, &pcp.profile());
        let cppcp = PipelinedExec::c_ppcp(SUBTASK, 2);
        run(
            mk_env(),
            "C-PPCP (2 compute workers)",
            &cppcp,
            &cppcp.profile(),
        );
        // S-PPCP gets a 4-member RAID0 like the paper's md array, with a
        // sub-task-sized stripe (see EXPERIMENTS.md, Fig. 12 note).
        let members: Vec<DeviceRef> = (0..4)
            .map(|i| {
                let dev: DeviceRef = if device == "hdd" {
                    Arc::new(SimDevice::new(
                        format!("{device}{i}"),
                        HddModel::default(),
                        1 << 40,
                        1.0,
                    ))
                } else {
                    Arc::new(SimDevice::new(
                        format!("{device}{i}"),
                        SsdModel::default(),
                        1 << 40,
                        1.0,
                    ))
                };
                dev
            })
            .collect();
        let raid: EnvRef = Arc::new(SimEnv::new(Arc::new(Raid0::new("md0", members, SUBTASK))));
        let sppcp = PipelinedExec::s_ppcp(SUBTASK, 4);
        run(raid, "S-PPCP (4 disks, RAID0)", &sppcp, &sppcp.profile());
        println!();
    }
    println!("note: C-PPCP compute workers cannot parallelize on a 1-core host;");
    println!("see `cargo bench --bench fig12` for the DES multi-core series.");
}
