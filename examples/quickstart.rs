//! Quickstart: open a database with pipelined compaction, write, read,
//! scan, and inspect engine metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pcp::prelude::*;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // A RAM-backed simulated filesystem. For real files use
    // `StdFsEnv::new("/tmp/pcp-quickstart")`, for paper-style experiments
    // wrap a `SimDevice` with an `HddModel`/`SsdModel`.
    let env = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))));

    // The paper's configuration: 4 MB memtable, 2 MB SSTables, 4 KB
    // blocks, compression on — and compaction via the three-stage
    // pipelined procedure with 512 KB sub-tasks.
    let opts = Options {
        executor: Arc::new(PipelinedExec::pcp(512 << 10)),
        ..Default::default()
    };
    let db = Db::open(env, opts)?;

    // Point writes, overwrites, deletes.
    db.put(b"fruit/apple", b"red")?;
    db.put(b"fruit/banana", b"yellow")?;
    db.put(b"fruit/cherry", b"dark red")?;
    db.put(b"fruit/apple", b"green")?; // overwrite
    db.delete(b"fruit/banana")?;

    assert_eq!(db.get(b"fruit/apple")?, Some(b"green".to_vec()));
    assert_eq!(db.get(b"fruit/banana")?, None);

    // Atomic batches.
    let mut batch = WriteBatch::new();
    batch.put(b"veg/carrot", b"orange");
    batch.put(b"veg/kale", b"green");
    db.write(batch)?;

    // Snapshot-consistent scans.
    let mut it = db.iter();
    it.seek(b"fruit/");
    println!("scan from 'fruit/':");
    while it.valid() && it.key().starts_with(b"fruit/") {
        println!(
            "  {} => {}",
            String::from_utf8_lossy(it.key()),
            String::from_utf8_lossy(it.value())
        );
        it.next();
    }

    // Load enough data to force flushes and pipelined compactions.
    for i in 0..50_000u64 {
        let key = format!("bulk/{:012}", (i * 2654435761) % 200_000);
        let value = format!("value-{i}-{}", "x".repeat(80));
        db.put(key.as_bytes(), value.as_bytes())?;
    }
    db.wait_idle()?;
    // Push everything down the tree with one manual full-range compaction
    // (the background picker also does this on its own as levels fill).
    db.compact_range(None, None)?;

    let m = db.metrics();
    println!("\nengine metrics after 50k inserts:");
    println!("  flushes:      {}", m.flush_count);
    println!(
        "  compactions:  {} ({} trivial moves)",
        m.compaction_count, m.trivial_moves
    );
    println!(
        "  compacted:    {:.1} MB at {:.1} MB/s",
        (m.compaction_input_bytes + m.compaction_output_bytes) as f64 / 1048576.0,
        m.compaction_bandwidth() / 1048576.0
    );
    println!("  write pauses: {} stalls", m.stall_events);
    println!("\nlevel summary (files, bytes):");
    for (level, (files, bytes)) in db.level_summary().iter().enumerate() {
        if *files > 0 {
            println!("  L{level}: {files:3} files, {:.2} MB", *bytes as f64 / 1048576.0);
        }
    }
    Ok(())
}
