//! A block the engine writes is served from memory: with a block cache,
//! what a flush or a merge writes enters the cache as the table is handed
//! over, so reading it back costs no device read (DESIGN.md §12 "Sharded
//! block cache").

use pcp::lsm::{CompactionPolicy, Db, Options};
use pcp::storage::{BlockDevice, EnvRef, SimDevice, SimEnv};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Put → flush → `compact_range` → get of every key: the gets read
/// nothing from the device, because every table they touch — the merged
/// outputs down to the last level — was admitted when it was written.
#[test]
fn gets_after_flush_and_compact_range_issue_no_device_read() {
    let device = Arc::new(SimDevice::mem(64 << 20));
    let env: EnvRef = Arc::new(SimEnv::new(Arc::clone(&device) as Arc<dyn BlockDevice>));
    let opts = Options {
        memtable_bytes: 256 << 10,
        sstable_bytes: 128 << 10,
        block_cache_bytes: 32 << 20,
        policy: CompactionPolicy { l0_trigger: 2, ..Default::default() },
        ..Default::default()
    };
    let db = Db::open(env, opts).unwrap();
    let mut model = BTreeMap::new();
    for round in 0..3u32 {
        for i in 0..3000u32 {
            let key = format!("key{:06}", (i * 7919 + round) % 3000);
            let value = format!("r{round}-{i}-{}", "v".repeat(50));
            db.put(key.as_bytes(), value.as_bytes()).unwrap();
            model.insert(key, value);
        }
        db.flush().unwrap();
    }
    db.compact_range(None, None).unwrap();
    db.wait_idle().unwrap();
    let levels = db.level_summary();
    assert_eq!(levels[0].0, 0, "level 0 was merged away: {levels:?}");
    assert!(db.metrics().compaction_count > 0);

    let before = device.stats().read_ops();
    for (key, value) in &model {
        assert_eq!(db.get(key.as_bytes()).unwrap().as_deref(), Some(value.as_bytes()));
    }
    assert_eq!(device.stats().read_ops() - before, 0, "a get read a written block back");
}
