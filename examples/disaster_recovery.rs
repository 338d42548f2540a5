//! Disaster recovery: destroy the manifest, corrupt a table, and rebuild
//! the database with `repair()` — then prove the surviving data is intact.
//! A second act runs the engine over a fault-injecting filesystem: flaky
//! writes are retried transparently, a dying disk latches a background
//! error instead of panicking, and the frozen image reopens cleanly.
//!
//! ```sh
//! cargo run --release --example disaster_recovery
//! ```

use pcp::compaction::filename::CURRENT;
use pcp::core::PipelinedExec;
use pcp::lsm::{repair, Db, Options};
use pcp::storage::{EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv};
use std::sync::Arc;

fn opts() -> Options {
    Options {
        memtable_bytes: 256 << 10,
        sstable_bytes: 128 << 10,
        block_cache_bytes: 4 << 20, // read path uses the LRU block cache
        executor: Arc::new(PipelinedExec::pcp(64 << 10)),
        ..Default::default()
    }
}

fn main() -> std::io::Result<()> {
    let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))));

    // Build a store with a few thousand entries across several tables.
    {
        let db = Db::open(Arc::clone(&env), opts())?;
        let mut x = 0xFACE_FEEDu64;
        let mut value = vec![0u8; 120];
        for i in 0..20_000u64 {
            for b in value.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            let tag = format!("record-{i}|");
            value[..tag.len().min(32)].copy_from_slice(&tag.as_bytes()[..tag.len().min(32)]);
            db.put(format!("user/{:08}", i % 8000).as_bytes(), &value)?;
        }
        db.flush()?;
        db.wait_idle()?;
        println!("built store:\n{}", db.debug_string());
    }

    // Disaster strikes: CURRENT and all manifests are gone, and one table
    // gets a flipped bit.
    env.delete(CURRENT)?;
    for name in env.list()? {
        if name.starts_with("MANIFEST-") {
            env.delete(&name)?;
        }
    }
    if let Some(victim) = env.list()?.into_iter().find(|n| n.ends_with(".sst")) {
        let f = env.open(&victim)?;
        let mut bytes = f.read_at(0, f.len() as usize)?.to_vec();
        bytes[64] ^= 0x01;
        let mut w = env.create(&victim)?;
        w.append(&bytes)?;
        w.sync()?;
        println!("destroyed manifest; corrupted {victim}");
    }

    // Repair.
    let report = repair(Arc::clone(&env))?;
    println!(
        "repair: {} tables recovered ({} entries), {} quarantined, max seq {}",
        report.recovered_tables,
        report.recovered_entries,
        report.quarantined.len(),
        report.max_sequence
    );
    for q in &report.quarantined {
        println!("  quarantined: {q}");
    }

    // Reopen and verify.
    let db = Db::open(env, opts())?;
    let integrity = db.verify_integrity()?;
    println!(
        "reopened: integrity {} over {} tables / {} blocks",
        if integrity.is_healthy() {
            "healthy"
        } else {
            "BROKEN"
        },
        integrity.tables,
        integrity.blocks
    );
    let mut it = db.iter();
    it.seek_to_first();
    let mut live = 0u64;
    while it.valid() {
        live += 1;
        it.next();
    }
    println!("scan sees {live} live keys (8000 written; any gap is the quarantined table's share, minus WAL replay)");

    fault_injection_smoke()
}

/// Act two: the same engine on a disk that misbehaves on purpose.
fn fault_injection_smoke() -> std::io::Result<()> {
    println!("\n--- fault-injection smoke ---");
    let inner: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))));
    let fault = FaultEnv::new(Arc::clone(&inner), 0xB0_5EED);
    // A flaky disk: 2% of table flushes and syncs fail transiently, and
    // the second table flush is guaranteed to hiccup so the demo always
    // shows a retry.
    fault
        .set_probability(FaultOp::Flush, 0.02)
        .set_probability(FaultOp::Sync, 0.02)
        .set_probabilistic_kind(FaultKind::Transient)
        .set_file_filter(".sst")
        .schedule_on_file(FaultOp::Flush, 2, FaultKind::Transient, ".sst");
    let env: EnvRef = Arc::new(fault.clone());

    let db = Db::open(Arc::clone(&env), opts())?;
    for i in 0..10_000u64 {
        db.put(
            format!("user/{:08}", i % 4000).as_bytes(),
            format!("value-{i}-{}", "z".repeat(100)).as_bytes(),
        )?;
    }
    db.flush()?;
    db.wait_idle()?;
    let stats = fault.stats();
    println!(
        "flaky disk survived: {} transient faults injected, {} background retries, health {:?}",
        stats.transient,
        db.metrics().bg_retries,
        db.health()
    );

    // The disk dies for real: every table write now fails permanently.
    fault
        .set_probability(FaultOp::Flush, 1.0)
        .set_probability(FaultOp::Sync, 1.0)
        .set_probabilistic_kind(FaultKind::Permanent);
    for i in 0..4000u64 {
        if db
            .put(format!("user/{:08}", i % 4000).as_bytes(), b"doomed")
            .is_err()
        {
            break; // writes stall once the background error latches
        }
    }
    let _ = db.flush();
    let _ = db.wait_idle();
    println!(
        "dead disk handled: health {:?}, {} permanent faults",
        db.health(),
        fault.stats().permanent
    );
    drop(db);

    // The data that reached the device is still there: reopen the inner
    // image with the faults gone.
    let db = Db::open(inner, opts())?;
    let integrity = db.verify_integrity()?;
    println!(
        "reopened past the dead disk: integrity {} over {} tables, {:?}",
        if integrity.is_healthy() {
            "healthy"
        } else {
            "BROKEN"
        },
        integrity.tables,
        db.health()
    );
    Ok(())
}
