//! Disaster recovery: rebuild a database whose MANIFEST/CURRENT is lost
//! or corrupt, from the surviving SSTables (LevelDB's `RepairDB`).
//!
//! Strategy:
//!
//! 1. scan the directory for `.sst` files; open each, recover its key
//!    range and entry count from its own index, and verify every block's
//!    checksum;
//! 2. quarantine corrupt or permanently unreadable tables by renaming them
//!    to `NNNNNN.sst.bad` (a transient fault is retried first);
//! 3. discard the old CURRENT/MANIFEST and write a fresh manifest placing
//!    every recovered table in **level 0** — always safe, since L0 files
//!    may overlap, and the usual compaction machinery re-levels the data;
//! 4. keep WAL files in place with `log_number = 0`, so the next
//!    [`crate::Db::open`] replays all of them (sequence numbers decide
//!    winners, so replay over recovered tables is idempotent).

use crate::db::retry;
use crate::edit::VersionEdit;
use crate::version::FileMetadata;
use crate::version_set::VersionSet;
use pcp_compaction::filename::{parse_file_name, FileKind, CURRENT};
use pcp_sstable::key::parse_internal_key;
use pcp_sstable::{KvIter, TableReader};
use pcp_storage::EnvRef;
use std::io;
use std::sync::Arc;

/// What [`repair`] found and rebuilt.
#[derive(Debug, Default)]
pub struct RepairReport {
    /// Tables successfully recovered into level 0.
    pub recovered_tables: u64,
    /// Entries across recovered tables.
    pub recovered_entries: u64,
    /// Tables quarantined as `.bad` (unreadable or corrupt).
    pub quarantined: Vec<String>,
    /// Highest sequence number observed in recovered tables.
    pub max_sequence: u64,
}

/// Fully scans `table` (verifying every block checksum via the normal
/// read path) and returns (smallest, largest, entries, max_sequence).
fn scan_table(table: &Arc<TableReader>) -> io::Result<(Vec<u8>, Vec<u8>, u64, u64)> {
    let mut it = table.iter();
    it.seek_to_first();
    let mut smallest = Vec::new();
    let mut largest = Vec::new();
    let mut entries = 0u64;
    let mut max_seq = 0u64;
    while it.valid() {
        if smallest.is_empty() {
            smallest = it.key().to_vec();
        }
        largest.clear();
        largest.extend_from_slice(it.key());
        if let Some(p) = parse_internal_key(it.key()) {
            max_seq = max_seq.max(p.sequence);
        }
        entries += 1;
        it.next();
    }
    it.status()?;
    if entries == 0 {
        return Err(pcp_sstable::corruption("empty table"));
    }
    Ok((smallest, largest, entries, max_seq))
}

/// Rebuilds the manifest of the database directory on `env`. The database
/// must not be open. Returns what was recovered; open the database
/// normally afterwards.
pub fn repair(env: EnvRef) -> io::Result<RepairReport> {
    let mut report = RepairReport::default();

    // 1-2. Inventory and validate tables.
    let mut recovered: Vec<Arc<FileMetadata>> = Vec::new();
    let mut max_file_number = 0u64;
    let mut names: Vec<(u64, String)> = env
        .list()?
        .into_iter()
        .filter_map(|n| match parse_file_name(&n) {
            Some((FileKind::Table, num)) => Some((num, n)),
            Some((FileKind::Wal, num)) | Some((FileKind::Manifest, num)) => {
                max_file_number = max_file_number.max(num);
                None
            }
            _ => None,
        })
        .collect();
    names.sort();
    for (number, name) in names {
        max_file_number = max_file_number.max(number);
        // A transient fault is retried like anywhere else in the engine;
        // only corruption and permanent errors quarantine a table.
        let result = retry(
            &mut (),
            |()| {
                let table = Arc::new(TableReader::open(env.open(&name)?)?);
                scan_table(&table).map(|meta| (table, meta))
            },
            |(), backoff| pcp_storage::blocking::sleep(backoff),
        );
        match result {
            Ok((table, (smallest, largest, entries, max_seq))) => {
                report.recovered_tables += 1;
                report.recovered_entries += entries;
                report.max_sequence = report.max_sequence.max(max_seq);
                recovered.push(Arc::new(FileMetadata {
                    number,
                    size: table.stats().file_size,
                    entries,
                    smallest,
                    largest,
                }));
            }
            Err(e) => {
                let bad = format!("{name}.bad");
                env.rename(&name, &bad)?;
                report.quarantined.push(format!("{name}: {e}"));
            }
        }
    }

    // 3. Fresh manifest: drop the old chain, install everything at L0.
    if env.exists(CURRENT) {
        let _ = env.delete(CURRENT);
    }
    for name in env.list()? {
        if matches!(parse_file_name(&name), Some((FileKind::Manifest, _))) {
            let _ = env.delete(&name);
        }
    }
    let mut vs = VersionSet::open(Arc::clone(&env))?;
    // Never reuse a file number that exists on disk.
    while vs.allocate_file_number() <= max_file_number {}
    let edit = VersionEdit {
        // 4. Replay every WAL on next open.
        log_number: Some(0),
        last_sequence: Some(report.max_sequence),
        new_files: recovered.iter().map(|f| (0usize, Arc::clone(f))).collect(),
        ..Default::default()
    };
    vs.log_and_apply(edit)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Db, Options};
    use pcp_compaction::filename::manifest_file;
    use pcp_storage::{SimDevice, SimEnv};

    /// True if `name` looks like a quarantined table.
    fn is_quarantined(name: &str) -> bool {
        name.ends_with(".sst.bad")
    }

    fn env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))))
    }

    fn small_opts() -> Options {
        Options {
            memtable_bytes: 64 << 10,
            sstable_bytes: 32 << 10,
            ..Default::default()
        }
    }

    fn load(env: &EnvRef, n: usize) {
        let db = Db::open(Arc::clone(env), small_opts()).unwrap();
        let mut x = 0x1357_9BDFu64;
        let mut value = vec![0u8; 120];
        for i in 0..n {
            // Incompressible values so the store spans many tables and a
            // single corrupt table cannot be the whole dataset.
            for b in value.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            let tag = format!("v{i}|");
            value[..tag.len()].copy_from_slice(tag.as_bytes());
            db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        db.flush().unwrap();
        db.wait_idle().unwrap();
    }

    #[test]
    fn repair_after_losing_current_and_manifest() {
        let e = env();
        load(&e, 5000);
        // Disaster: CURRENT and every MANIFEST vanish.
        e.delete(CURRENT).unwrap();
        for name in e.list().unwrap() {
            if name.starts_with("MANIFEST-") {
                e.delete(&name).unwrap();
            }
        }
        let report = repair(Arc::clone(&e)).unwrap();
        assert!(report.recovered_tables > 0);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert!(report.recovered_entries >= 5000);

        let db = Db::open(e, small_opts()).unwrap();
        for i in (0..5000).step_by(173) {
            let got = db
                .get(format!("key{i:06}").as_bytes())
                .unwrap()
                .unwrap_or_else(|| panic!("key {i} lost by repair"));
            assert!(
                got.starts_with(format!("v{i}|").as_bytes()),
                "key {i} value mangled"
            );
        }
        db.wait_idle().unwrap();
        assert!(db.verify_integrity().unwrap().is_healthy());
    }

    #[test]
    fn repair_quarantines_corrupt_tables() {
        let e = env();
        load(&e, 3000);
        // Corrupt one table's data region.
        let victim = e
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".sst"))
            .max()
            .unwrap();
        let f = e.open(&victim).unwrap();
        let mut bytes = f.read_at(0, f.len() as usize).unwrap().to_vec();
        bytes[50] ^= 0xFF;
        let mut w = e.create(&victim).unwrap();
        w.append(&bytes).unwrap();
        w.sync().unwrap();
        drop(w);
        e.delete(CURRENT).unwrap();

        let report = repair(Arc::clone(&e)).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        assert!(
            e.list().unwrap().iter().any(|n| is_quarantined(n)),
            "quarantined file renamed"
        );
        // The rest of the data survives.
        let db = Db::open(e, small_opts()).unwrap();
        let mut it = db.iter();
        it.seek_to_first();
        assert!(it.valid(), "some data recovered");
    }

    #[test]
    fn repair_keeps_wal_data() {
        let e = env();
        {
            let db = Db::open(Arc::clone(&e), small_opts()).unwrap();
            db.put(b"flushed", b"1").unwrap();
            db.flush().unwrap();
            db.put(b"wal-only", b"2").unwrap();
            // Crash without flushing "wal-only".
        }
        e.delete(CURRENT).unwrap();
        repair(Arc::clone(&e)).unwrap();
        let db = Db::open(e, small_opts()).unwrap();
        assert_eq!(db.get(b"flushed").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"wal-only").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn repair_on_empty_directory_is_a_clean_init() {
        let e = env();
        let report = repair(Arc::clone(&e)).unwrap();
        assert_eq!(report.recovered_tables, 0);
        let db = Db::open(e, small_opts()).unwrap();
        assert_eq!(db.get(b"anything").unwrap(), None);
        // Manifest machinery is functional.
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        let _ = manifest_file(1);
    }
}
