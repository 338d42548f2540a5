//! End-to-end engine tests over a RAM-backed simulated filesystem.

use pcp_compaction::SimpleMergeExec;
use pcp_lsm::{
    CompactionExec, CompactionPolicy, CompactionRequest, Db, FileMetadata, Options, WriteBatch,
};
use pcp_sstable::{BlockHandle, KvIter};
use pcp_storage::{BlockDevice, EnvRef, SimDevice, SimEnv, SsdModel};
use std::sync::{Arc, Condvar, Mutex};

fn ram_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))))
}

/// Small limits so flushes and compactions trigger quickly in tests.
fn small_opts() -> Options {
    Options {
        memtable_bytes: 64 << 10,
        sstable_bytes: 32 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 128 << 10,
            level_multiplier: 10,
        },
        ..Default::default()
    }
}

/// Rewrites the file `name` with `patch` applied to its bytes.
fn patch_file(env: &EnvRef, name: &str, patch: impl FnOnce(&mut Vec<u8>)) {
    let f = env.open(name).unwrap();
    let mut bytes = f.read_at(0, f.len() as usize).unwrap().to_vec();
    patch(&mut bytes);
    let mut w = env.create(name).unwrap();
    w.append(&bytes).unwrap();
    w.sync().unwrap();
}

#[test]
fn put_get_roundtrip() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    db.put(b"hello", b"world").unwrap();
    assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
    assert_eq!(db.get(b"absent").unwrap(), None);
}

#[test]
fn overwrite_returns_newest() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    db.put(b"k", b"v1").unwrap();
    db.put(b"k", b"v2").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
}

#[test]
fn delete_hides_key() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    db.put(b"k", b"v").unwrap();
    db.delete(b"k").unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
    // Deleting an absent key is fine.
    db.delete(b"never-existed").unwrap();
}

#[test]
fn batch_is_atomic_in_sequence_space() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    let mut batch = WriteBatch::new();
    batch.put(b"a", b"1");
    batch.put(b"b", b"2");
    batch.delete(b"a");
    db.write(batch).unwrap();
    assert_eq!(db.get(b"a").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
}

#[test]
fn reads_span_memtable_flushes_and_compactions() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    let n = 3000;
    for i in 0..n {
        db.put(
            format!("key{i:06}").as_bytes(),
            format!("value{i}").as_bytes(),
        )
        .unwrap();
    }
    db.wait_idle().unwrap();
    let m = db.metrics();
    assert!(m.flush_count >= 1, "flushes must have happened");
    assert!(
        m.compaction_count + m.trivial_moves >= 1,
        "compactions must have happened"
    );
    for i in (0..n).step_by(97) {
        let got = db.get(format!("key{i:06}").as_bytes()).unwrap();
        assert_eq!(got, Some(format!("value{i}").into_bytes()), "key {i}");
    }
    // Level invariant: data has left L0.
    let summary = db.level_summary();
    let deep_files: usize = summary[1..].iter().map(|(f, _)| *f).sum();
    assert!(deep_files > 0, "data should have moved to deeper levels");
}

#[test]
fn overwrites_survive_compaction() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    for round in 0..5 {
        for i in 0..500 {
            db.put(
                format!("key{i:04}").as_bytes(),
                format!("round{round}").as_bytes(),
            )
            .unwrap();
        }
    }
    db.wait_idle().unwrap();
    for i in 0..500 {
        assert_eq!(
            db.get(format!("key{i:04}").as_bytes()).unwrap(),
            Some(b"round4".to_vec()),
            "key {i}"
        );
    }
}

#[test]
fn deletes_survive_compaction() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    for i in 0..1000 {
        db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
    }
    for i in (0..1000).step_by(2) {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }
    db.compact_range(None, None).unwrap();
    for i in 0..1000 {
        let got = db.get(format!("key{i:04}").as_bytes()).unwrap();
        if i % 2 == 0 {
            assert_eq!(got, None, "key {i} must stay deleted");
        } else {
            assert_eq!(got, Some(b"v".to_vec()), "key {i} must stay live");
        }
    }
}

/// A bounded manual compaction must not sink a newer level-0 table below
/// an older one it overlaps outside the range.
#[test]
fn bounded_compact_range_keeps_newer_versions_on_top() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    db.put(b"b", b"old").unwrap();
    db.flush().unwrap();
    db.put(b"b", b"new").unwrap();
    db.put(b"m", b"x").unwrap();
    db.flush().unwrap();
    // Only the newer table holds "m"; the older one overlaps it at "b".
    db.compact_range(Some(b"m"), Some(b"m")).unwrap();
    assert_eq!(db.get(b"b").unwrap(), Some(b"new".to_vec()));
    assert_eq!(db.get(b"m").unwrap(), Some(b"x".to_vec()));
}

#[test]
fn scan_is_sorted_and_complete() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    let n = 2000;
    for i in (0..n).rev() {
        db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    db.wait_idle().unwrap();
    let mut it = db.iter();
    it.seek_to_first();
    let mut count = 0;
    let mut prev: Option<Vec<u8>> = None;
    while it.valid() {
        if let Some(p) = &prev {
            assert!(p.as_slice() < it.key(), "scan out of order");
        }
        prev = Some(it.key().to_vec());
        count += 1;
        it.next();
    }
    assert_eq!(count, n);
}

#[test]
fn scan_seek_and_tombstones() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    for k in ["a", "b", "c", "d"] {
        db.put(k.as_bytes(), b"v").unwrap();
    }
    db.delete(b"b").unwrap();
    let mut it = db.iter();
    it.seek(b"a1");
    assert!(it.valid());
    assert_eq!(it.key(), b"c", "b is deleted; a1 seeks to c");
    it.next();
    assert_eq!(it.key(), b"d");
    it.next();
    assert!(!it.valid());
}

#[test]
fn snapshot_isolation_for_gets_and_scans() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    db.put(b"k", b"before").unwrap();
    let snap = db.snapshot();
    db.put(b"k", b"after").unwrap();
    db.delete(b"gone").unwrap();
    db.put(b"new-key", b"x").unwrap();

    assert_eq!(
        db.get_at(b"k", snap.sequence).unwrap(),
        Some(b"before".to_vec())
    );
    assert_eq!(db.get(b"k").unwrap(), Some(b"after".to_vec()));

    let mut it = db.iter_at(snap.sequence);
    it.seek_to_first();
    let mut keys = Vec::new();
    while it.valid() {
        keys.push(it.key().to_vec());
        it.next();
    }
    assert_eq!(
        keys,
        vec![b"k".to_vec()],
        "snapshot sees only pre-existing keys"
    );
}

#[test]
fn snapshot_pins_old_versions_through_compaction() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    for i in 0..500 {
        db.put(format!("key{i:04}").as_bytes(), b"old").unwrap();
    }
    let snap = db.snapshot();
    for i in 0..500 {
        db.put(format!("key{i:04}").as_bytes(), b"new").unwrap();
    }
    db.compact_range(None, None).unwrap();
    assert_eq!(
        db.get_at(b"key0100", snap.sequence).unwrap(),
        Some(b"old".to_vec()),
        "snapshot must still see the old version after compaction"
    );
    assert_eq!(db.get(b"key0100").unwrap(), Some(b"new".to_vec()));
}

#[test]
fn recovery_from_wal_without_flush() {
    let env = ram_env();
    {
        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        for i in 0..100 {
            db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.delete(b"k050").unwrap();
        // Drop without flushing: data lives only in WAL + memtable.
    }
    let db = Db::open(env, Options::default()).unwrap();
    assert_eq!(db.get(b"k001").unwrap(), Some(b"v1".to_vec()));
    assert_eq!(db.get(b"k099").unwrap(), Some(b"v99".to_vec()));
    assert_eq!(db.get(b"k050").unwrap(), None, "tombstone recovered");
}

#[test]
fn recovery_after_flushes_and_compactions() {
    let env = ram_env();
    {
        let db = Db::open(Arc::clone(&env), small_opts()).unwrap();
        for i in 0..2000 {
            db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.wait_idle().unwrap();
    }
    let db = Db::open(env, small_opts()).unwrap();
    for i in (0..2000).step_by(131) {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes())
        );
    }
}

#[test]
fn sequence_numbers_monotone_across_recovery() {
    let env = ram_env();
    {
        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        db.put(b"a", b"1").unwrap();
    }
    {
        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        db.put(b"a", b"2").unwrap();
    }
    let db = Db::open(env, Options::default()).unwrap();
    assert_eq!(
        db.get(b"a").unwrap(),
        Some(b"2".to_vec()),
        "later write must win across restarts"
    );
}

/// Runs [`SimpleMergeExec`] only once [`ParkedExec::release`] is called,
/// so a test can hold every merge back.
#[derive(Default)]
struct ParkedExec {
    released: Mutex<bool>,
    cv: Condvar,
}

impl ParkedExec {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl CompactionExec for ParkedExec {
    fn name(&self) -> &'static str {
        "parked"
    }

    fn compact(&self, req: &CompactionRequest) -> pcp_sstable::Result<Vec<Arc<FileMetadata>>> {
        drop(
            self.cv
                .wait_while(self.released.lock().unwrap(), |r| !*r)
                .unwrap(),
        );
        SimpleMergeExec.compact(req)
    }
}

#[test]
fn write_stalls_are_recorded_under_pressure() {
    // Tiny memtable, merges held back: level 0 reaches the stop (3 ×
    // `l0_trigger` tables) and the writer has to wait for the compaction
    // lane.
    let exec = Arc::new(ParkedExec::default());
    let opts = Options {
        memtable_bytes: 16 << 10,
        sstable_bytes: 16 << 10,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 32 << 10,
            level_multiplier: 10,
        },
        executor: exec.clone(),
        ..Default::default()
    };
    let db = Db::open(ram_env(), opts).unwrap();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for i in 0..3000 {
                db.put(format!("key{i:06}").as_bytes(), &[0u8; 100])
                    .unwrap();
            }
        });
        while db.metrics().stall_events == 0 {
            std::thread::yield_now();
        }
        exec.release();
        writer.join().unwrap();
    });
    db.wait_idle().unwrap();
    let m = db.metrics();
    assert!(
        m.stall_events > 0,
        "backpressure should have engaged: {m:?}"
    );
    // And everything is still readable.
    assert_eq!(db.get(b"key000000").unwrap(), Some(vec![0u8; 100]));
    assert_eq!(db.get(b"key002999").unwrap(), Some(vec![0u8; 100]));
}

#[test]
fn obsolete_files_are_garbage_collected() {
    let env = ram_env();
    let db = Db::open(Arc::clone(&env), small_opts()).unwrap();
    for i in 0..3000 {
        db.put(format!("key{i:06}").as_bytes(), &[7u8; 64]).unwrap();
    }
    db.wait_idle().unwrap();
    db.compact_range(None, None).unwrap();
    // The compaction lane may have picked up where the manual pass ended.
    db.wait_idle().unwrap();
    // Every .sst in the env must be referenced by the live version.
    let live: std::collections::HashSet<u64> = db
        .level_summary()
        .iter()
        .enumerate()
        .flat_map(|_| std::iter::empty()) // placeholder; real check below
        .collect();
    drop(live);
    let names = env.list().unwrap();
    let sst_count = names.iter().filter(|n| n.ends_with(".sst")).count();
    let total_files: usize = db.level_summary().iter().map(|(f, _)| f).sum();
    assert_eq!(
        sst_count, total_files,
        "stale tables must be deleted: {names:?}"
    );
    let log_count = names.iter().filter(|n| n.ends_with(".log")).count();
    assert!(log_count <= 2, "old WALs must be deleted: {names:?}");
}

#[test]
fn flush_forces_memtable_out() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    db.put(b"k", b"v").unwrap();
    db.flush().unwrap();
    let summary = db.level_summary();
    assert!(summary[0].0 >= 1, "flush must create an L0 file");
    assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn empty_db_scan_and_get() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    assert_eq!(db.get(b"nothing").unwrap(), None);
    let mut it = db.iter();
    it.seek_to_first();
    assert!(!it.valid());
    db.flush().unwrap(); // flushing an empty memtable is a no-op
    db.wait_idle().unwrap();
}

#[test]
fn binary_keys_and_values() {
    let db = Db::open(ram_env(), Options::default()).unwrap();
    let key = [0u8, 255, 1, 254, 0];
    let value = vec![0u8; 10_000];
    db.put(&key, &value).unwrap();
    db.flush().unwrap();
    assert_eq!(db.get(&key).unwrap(), Some(value));
}

#[test]
fn approximate_size_tracks_ranges() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    for i in 0..4000 {
        db.put(format!("key{i:06}").as_bytes(), &[1u8; 100])
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let all = db.approximate_size(None, None);
    assert!(all > 30 << 10, "whole-range estimate too small: {all}");
    let half = db.approximate_size(None, Some(b"key002000"));
    assert!(
        half > all / 4 && half < all * 3 / 4,
        "half-range {half} of {all}"
    );
    let none = db.approximate_size(Some(b"zzz"), None);
    assert_eq!(none, 0);
    let point = db.approximate_size(Some(b"key001000"), Some(b"key001001"));
    assert!(point < all / 4, "tiny range {point} of {all}");
}

#[test]
fn integrity_check_passes_on_healthy_store_and_catches_corruption() {
    let env = ram_env();
    let db = Db::open(Arc::clone(&env), small_opts()).unwrap();
    for i in 0..3000 {
        db.put(format!("key{i:06}").as_bytes(), &[9u8; 80]).unwrap();
    }
    db.flush().unwrap(); // push the memtable tail out so tables hold all keys
    db.wait_idle().unwrap();
    let report = db.verify_integrity().unwrap();
    assert!(report.is_healthy(), "{:?}", report.errors);
    assert!(report.tables > 0);
    assert!(report.blocks > 0);
    assert!(report.entries >= 3000);
    let ds = db.debug_string();
    assert!(ds.contains("flushes"), "{ds}");

    // Corrupt one byte in EVERY table: at least one is live, so the
    // reopened store must notice (stale ones get GC'd on reopen).
    for victim in env.list().unwrap() {
        if !victim.ends_with(".sst") {
            continue;
        }
        patch_file(&env, &victim, |contents| contents[100] ^= 0xFF);
    }
    // Evict cached readers so the corrupt bytes are re-read. (Reopening
    // the Db would also do it; here we check the API directly.)
    drop(db);
    let db = Db::open(env, small_opts()).unwrap();
    let report = db.verify_integrity().unwrap();
    assert!(
        !report.is_healthy(),
        "corruption must be detected: {report:?}"
    );
}

/// A store on the SSD model at time scale 0 (model time only), and its
/// device, whose read count the tests below read.
fn ssd_env() -> (Arc<SimDevice>, EnvRef) {
    let device = Arc::new(SimDevice::new("ssd", SsdModel::default(), 1 << 30, 0.0));
    (Arc::clone(&device), Arc::new(SimEnv::new(device)))
}

/// Reopening a store whose 20,000 puts are all in its WAL replays the log
/// in spans: a handful of device reads in all (CURRENT twice, the
/// MANIFEST, then the log's doubling spans), never two per record, and
/// every key reads back.
#[test]
fn reopen_replays_a_full_wal_in_a_few_reads() {
    let (device, env) = ssd_env();
    let key = |i: u32| format!("key{i:013}").into_bytes();
    let value = |i: u32| format!("value-{i:08}-{}", "v".repeat(105)).into_bytes();
    {
        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        for i in 0..20_000 {
            db.put(&key(i), &value(i)).unwrap();
        }
    }
    let files = env.list().unwrap();
    assert!(!files.iter().any(|n| n.ends_with(".sst")), "{files:?}");
    let wal: u64 = (files.iter().filter(|n| n.ends_with(".log")))
        .map(|n| env.size(n).unwrap())
        .sum();
    assert!(wal > 3 << 20, "{wal} bytes of WAL");

    let reads = device.stats().read_ops();
    let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
    let reopen = device.stats().read_ops() - reads;
    assert!(reopen <= 10, "the reopen made {reopen} device reads");
    for i in 0..20_000 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
}

/// `verify_integrity` reads each table as a cold full scan does: its two
/// tail reads, then the same doubling spans, not one read per block.
#[test]
fn verify_integrity_reads_each_table_in_the_spans_of_a_full_scan() {
    let (device, env) = ssd_env();
    let opts = Options {
        memtable_bytes: 1 << 20,
        sstable_bytes: 1 << 20,
        ..Default::default()
    };
    let db = Db::open(Arc::clone(&env), opts).unwrap();
    for i in 0..40_000u32 {
        let key = format!("key{:06}", (i * 7919) % 40_000);
        db.put(key.as_bytes(), format!("{i:>80}").as_bytes())
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();

    let reads = device.stats().read_ops();
    let report = db.verify_integrity().unwrap();
    let verify = device.stats().read_ops() - reads;
    assert!(report.is_healthy(), "{:?}", report.errors);
    let tables: Vec<String> = (env.list().unwrap().into_iter())
        .filter(|n| n.ends_with(".sst"))
        .collect();
    assert!(
        tables.len() > 1 && tables.len() as u64 == report.tables,
        "{tables:?}"
    );

    let reads = device.stats().read_ops();
    for name in &tables {
        let table = Arc::new(pcp_sstable::TableReader::open(env.open(name).unwrap()).unwrap());
        let mut it = table.iter();
        it.seek_to_first();
        while it.valid() {
            it.next();
        }
        it.status().unwrap();
    }
    let scans = device.stats().read_ops() - reads;
    assert_eq!(verify, scans, "verify_integrity and cold full scans");
    assert!(
        verify * 4 < report.blocks,
        "{verify} reads for {} blocks",
        report.blocks
    );
}

/// `verify_integrity` checks the bytes on the device: a table whose index
/// changed on disk after the engine cached its reader is reported, not
/// vouched for by the cached copy.
#[test]
fn verify_integrity_reads_the_device_not_the_table_cache() {
    let env = ram_env();
    let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
    for i in 0..500 {
        db.put(format!("key{i:06}").as_bytes(), &[9u8; 80]).unwrap();
    }
    db.flush().unwrap();
    assert!(
        db.get(b"key000042").unwrap().is_some(),
        "the table is read, so cached"
    );
    assert!(db.verify_integrity().unwrap().is_healthy());

    // Flip one byte of the index block, which the footer locates: the
    // second of its three handles (filter, index, properties).
    let name = env
        .list()
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".sst"))
        .unwrap();
    patch_file(&env, &name, |bytes| {
        let footer = &bytes[bytes.len() - pcp_sstable::table::FOOTER_SIZE..];
        let (_, n) = BlockHandle::decode(footer).unwrap();
        let (index, _) = BlockHandle::decode(&footer[n..]).unwrap();
        bytes[index.offset as usize] ^= 0x01;
    });
    let report = db.verify_integrity().unwrap();
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("checksum mismatch")),
        "a corrupt index on the device must be reported: {report:?}"
    );
}

/// The engine never reads back the metadata of a table it wrote: a fill,
/// its flushes and a full compaction open no table from the device. After
/// a reopen, each table a scan touches is opened exactly once.
#[test]
fn written_tables_open_with_no_reads_and_found_tables_with_one_each() {
    let opens = |db: &Db| {
        let registry = pcp_obs::Registry::new();
        db.register_metrics(&registry, &[]);
        registry
            .snapshot()
            .counter("pcp_engine_table_opens_total", &[])
    };
    let env = ram_env();
    let db = Db::open(Arc::clone(&env), small_opts()).unwrap();
    for i in 0..4000u32 {
        let k = format!("key{:06}", (i * 7919) % 4000);
        db.put(k.as_bytes(), &[7u8; 100]).unwrap();
    }
    db.flush().unwrap();
    db.compact_range(None, None).unwrap();
    db.wait_idle().unwrap();
    assert!(db.metrics().compaction_count > 0);
    let scanned = dump(&db);
    assert_eq!(scanned.len(), 4000);
    assert_eq!(opens(&db), 0, "a table the engine wrote was read back");
    drop(db);

    let db = Db::open(env, small_opts()).unwrap();
    let live: usize = db.level_summary().iter().map(|(files, _)| *files).sum();
    assert!(live > 1, "{live} tables");
    assert_eq!(opens(&db), 0);
    assert_eq!(dump(&db), scanned);
    assert_eq!(
        opens(&db),
        live as u64,
        "one cold open per table found at open"
    );
    assert_eq!(dump(&db), scanned);
    assert_eq!(opens(&db), live as u64);
}

fn dump(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    it.status().unwrap();
    out
}

/// A well-checksummed block whose trailer names a kind this build does not
/// decode — `2`, the retired framed encoding, or any other — is refused as
/// corruption by every read path, never decoded as if it were a known kind.
#[test]
fn blocks_of_a_retired_or_unknown_kind_are_refused_as_corruption() {
    for kind in [2u8, 3, 255] {
        let env = ram_env();
        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        for i in 0..200 {
            db.put(format!("key{i:06}").as_bytes(), &[9u8; 80]).unwrap();
        }
        db.flush().unwrap();
        drop(db);

        // Relabel the first data block of the one table and re-checksum it.
        let name = env
            .list()
            .unwrap()
            .into_iter()
            .find(|n| n.ends_with(".sst"))
            .unwrap();
        let table = pcp_sstable::TableReader::open(env.open(&name).unwrap()).unwrap();
        let handle = table.block_metas().unwrap()[0].handle;
        let (start, end) = (
            handle.offset as usize,
            (handle.offset + handle.size) as usize,
        );
        patch_file(&env, &name, |bytes| {
            bytes[end] = kind;
            let crc = pcp_codec::mask_crc(pcp_codec::crc32c(&bytes[start..=end]));
            bytes[end + 1..end + 5].copy_from_slice(&crc.to_le_bytes());
        });

        let db = Db::open(env, Options::default()).unwrap();
        let refused = format!("corruption: bad kind byte {kind}");
        let err = db.get(b"key000000").unwrap_err();
        assert!(err.to_string().contains(&refused), "get: {err}");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "get: {err}");
        let mut it = db.iter();
        it.seek_to_first();
        assert!(!it.valid());
        let err = it.status().unwrap_err();
        assert!(err.to_string().contains(&refused), "scan: {err}");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "scan: {err}");
        let report = db.verify_integrity().unwrap();
        assert!(
            report.errors.iter().any(|e| e.contains(&refused)),
            "verify_integrity: {:?}",
            report.errors
        );
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn concurrent_writers_and_readers() {
    let db = Arc::new(Db::open(ram_env(), small_opts()).unwrap());
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..500 {
                    db.put(
                        format!("w{w}-key{i:05}").as_bytes(),
                        format!("w{w}v{i}").as_bytes(),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    let reader = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for _ in 0..200 {
                let _ = db.get(b"w0-key00042");
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    reader.join().unwrap();
    db.wait_idle().unwrap();
    for w in 0..4 {
        for i in (0..500).step_by(83) {
            assert_eq!(
                db.get(format!("w{w}-key{i:05}").as_bytes()).unwrap(),
                Some(format!("w{w}v{i}").into_bytes())
            );
        }
    }
}

#[test]
fn metrics_registry_and_trace_follow_engine_lifecycle() {
    let db = Db::open(ram_env(), small_opts()).unwrap();
    let registry = pcp_obs::Registry::new();
    db.register_metrics(&registry, &[("shard", "0")]);
    for i in 0..3000 {
        db.put(format!("key{i:06}").as_bytes(), &[9u8; 100])
            .unwrap();
    }
    db.wait_idle().unwrap();
    db.compact_range(None, None).unwrap();

    let snap = registry.snapshot();
    let shard = [("shard", "0")];
    assert_eq!(snap.counter("pcp_engine_puts_total", &shard), 3000);
    assert!(snap.counter("pcp_engine_flushes_total", &shard) > 0);
    let compactions = snap.counter("pcp_engine_compactions_total", &shard);
    assert!(compactions > 0, "compact_range must have merged something");
    // Per-level series sum to the totals.
    let level_sum: u64 = (0..7)
        .map(|l| {
            snap.counter(
                "pcp_engine_level_compactions_total",
                &[("shard", "0"), ("level", &l.to_string())],
            )
        })
        .sum();
    assert_eq!(level_sum, compactions);
    // Level gauges reflect the live tree: some level holds files.
    let files: f64 = (0..7)
        .map(|l| {
            snap.gauge(
                "pcp_engine_level_files",
                &[("shard", "0"), ("level", &l.to_string())],
            )
        })
        .sum();
    assert!(files > 0.0);
    // The whole registry renders to valid exposition text.
    pcp_obs::validate_exposition(&registry.render_prometheus()).unwrap();

    // The trace saw the lifecycle: flushes and installed compactions.
    let kinds: Vec<&str> = db.trace().events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"flush_done"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"compaction_picked"));
    assert!(kinds.contains(&"compaction_installed"));
    // MetricsSnapshot agrees with the registry.
    let m = db.metrics();
    assert_eq!(m.puts, 3000);
    let per_level: u64 = m.levels.iter().map(|l| l.count).sum();
    assert_eq!(per_level, m.compaction_count);
    assert!(m.levels.iter().map(|l| l.input_bytes).sum::<u64>() <= m.compaction_input_bytes);
}

/// A flushed table's bytes are pinned: the level-0 table that
/// `Options::default()` + `flush()` writes for a fixed stream of 20,000
/// puts and deletes hashes (FNV-1a-64) to the same value with and without
/// a block cache.
#[test]
fn flushed_table_bytes_are_pinned() {
    for block_cache_bytes in [0, 32 << 20] {
        let env = ram_env();
        let opts = Options {
            block_cache_bytes,
            ..Default::default()
        };
        let db = Db::open(env.clone(), opts).unwrap();
        let mut x: u64 = 42;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("key{:08}", (x >> 33) % 8000);
            if i % 17 == 0 {
                db.delete(key.as_bytes()).unwrap();
            } else {
                let value = format!("v{i}-{}", "x".repeat((x % 90) as usize));
                db.put(key.as_bytes(), value.as_bytes()).unwrap();
            }
        }
        db.flush().unwrap();
        let tables: Vec<String> = env
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".sst"))
            .collect();
        assert_eq!(tables.len(), 1, "{tables:?}");
        let f = env.open(&tables[0]).unwrap();
        let bytes = f.read_at(0, f.len() as usize).unwrap();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            hash, 0x4ef5_9633_6921_dc7d,
            "cache {block_cache_bytes}: {hash:#018x}"
        );
    }
}
