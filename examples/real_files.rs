//! The same engine on a real filesystem: persist a small key-value
//! dataset under /tmp, close, reopen, and verify recovery — WAL replay,
//! manifest recovery, pipelined compaction, all on `std::fs`.
//!
//! ```sh
//! cargo run --release --example real_files
//! ```

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "example: runs the engine on the real filesystem and inspects it with std::fs"
)]

use pcp::core::PipelinedExec;
use pcp::lsm::{Db, Options};
use pcp::storage::StdFsEnv;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("pcp-real-files-example");
    let _ = std::fs::remove_dir_all(&dir);

    let opts = || Options {
        memtable_bytes: 512 << 10,
        sstable_bytes: 256 << 10,
        executor: Arc::new(PipelinedExec::pcp(128 << 10)),
        ..Default::default()
    };

    // Phase 1: load and crash (drop without clean flush of the memtable).
    {
        let env = Arc::new(StdFsEnv::new(&dir)?);
        let db = Db::open(env, opts())?;
        for i in 0..20_000u64 {
            db.put(
                format!("user/{:08}", i % 7000).as_bytes(),
                format!("profile-{i}").as_bytes(),
            )?;
        }
        db.delete(b"user/00000042")?;
        println!("phase 1: wrote 20k entries to {}", dir.display());
        let m = db.metrics();
        println!(
            "  flushes={} compactions={} (engine dropped with data in WAL)",
            m.flush_count, m.compaction_count
        );
        // db drops here; recent writes live only in the WAL.
    }

    // Phase 2: reopen and verify.
    {
        let env = Arc::new(StdFsEnv::new(&dir)?);
        let db = Db::open(env, opts())?;
        assert_eq!(db.get(b"user/00000042")?, None, "tombstone recovered");
        let v = db.get(b"user/00000007")?.expect("key recovered");
        assert!(v.starts_with(b"profile-"));
        let mut it = db.iter();
        it.seek_to_first();
        let mut n = 0u64;
        while it.valid() {
            n += 1;
            it.next();
        }
        println!("phase 2: recovered, scan sees {n} live keys (expected 6999)");
        assert_eq!(n, 6999);
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("ok");
    Ok(())
}
