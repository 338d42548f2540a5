//! Cache of open [`TableReader`]s keyed by file number.
//!
//! A table the engine writes enters the cache ready to read: its writer
//! hands over the [`TableMeta`] the builder returned ([`TableCache::insert`]),
//! so nothing of it is read back. Only a table the cache has never held —
//! one found on the device at open — is opened cold, with two reads (footer,
//! then filter ‖ index ‖ properties); [`TableCache::cold_opens`] counts them.
//!
//! Data blocks are read through the shared [`BlockCache`] when the engine
//! configures one, and a table the engine writes starts there: its writer
//! makes its builder with [`TableCache::create`], which then keeps every
//! block it writes, decoded, in the [`TableMeta`], and those blocks enter
//! the block cache as the reader is made ([`TableCache::written_blocks`]).

use crate::filename::table_file;
use parking_lot::Mutex;
use pcp_sstable::{
    BlockCache, Result as TableResult, ScanStats, TableBuilder, TableBuilderOptions, TableMeta,
    TableReader,
};
use pcp_storage::{EnvRef, RandomReadFile};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared table-reader cache.
pub struct TableCache {
    env: EnvRef,
    opened: Mutex<HashMap<u64, Arc<TableReader>>>,
    block_cache: Option<Arc<BlockCache>>,
    /// Scan-path counters shared by every reader this cache opens, so
    /// `pcp_scan_*` metrics aggregate database-wide.
    scan: Arc<ScanStats>,
    cold_opens: AtomicU64,
    written_blocks: AtomicU64,
}

impl TableCache {
    /// Creates an empty cache over `env` (no block cache).
    pub fn new(env: EnvRef) -> TableCache {
        TableCache::with_block_cache(env, None)
    }

    /// Creates a cache whose readers share `block_cache`.
    pub fn with_block_cache(env: EnvRef, block_cache: Option<Arc<BlockCache>>) -> TableCache {
        TableCache {
            env,
            opened: Mutex::new(HashMap::new()),
            block_cache,
            scan: Arc::default(),
            cold_opens: AtomicU64::new(0),
            written_blocks: AtomicU64::new(0),
        }
    }

    /// The environment the tables live in.
    pub fn env(&self) -> &EnvRef {
        &self.env
    }

    /// The shared block cache, if enabled.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// The scan-path counters every opened reader shares.
    pub fn scan_stats(&self) -> &Arc<ScanStats> {
        &self.scan
    }

    /// Tables opened from the device so far: every [`TableCache::get`] miss
    /// and every [`TableCache::open_uncached`].
    pub fn cold_opens(&self) -> u64 {
        self.cold_opens.load(Ordering::Relaxed)
    }

    /// Data blocks handed to the block cache with a table just written.
    pub fn written_blocks(&self) -> u64 {
        self.written_blocks.load(Ordering::Relaxed)
    }

    fn reader(&self, file: Arc<dyn RandomReadFile>, meta: TableMeta) -> TableReader {
        TableReader::new(file, meta, self.block_cache.clone(), self.scan.clone())
    }

    /// Returns the (possibly cached) reader for table `number`.
    pub fn get(&self, number: u64) -> TableResult<Arc<TableReader>> {
        if let Some(r) = self.opened.lock().get(&number) {
            return Ok(Arc::clone(r));
        }
        // Open outside the lock: a cold open reads the device.
        let reader = Arc::new(self.open_uncached(number)?);
        let mut cache = self.opened.lock();
        let entry = cache.entry(number).or_insert_with(|| Arc::clone(&reader));
        Ok(Arc::clone(entry))
    }

    /// Opens table `number` from the device — its tail read and verified
    /// afresh — without consulting or filling the cache.
    pub fn open_uncached(&self, number: u64) -> TableResult<TableReader> {
        let file = self.env.open(&table_file(number))?;
        let meta = TableMeta::read(&*file)?;
        self.cold_opens.fetch_add(1, Ordering::Relaxed);
        Ok(self.reader(file, meta))
    }

    /// Creates table `number` and the builder that writes it. With a block
    /// cache the builder keeps its blocks, for [`TableCache::insert`] to
    /// admit: a table the engine writes starts warm.
    pub fn create(&self, number: u64, opts: TableBuilderOptions) -> io::Result<TableBuilder> {
        let builder = TableBuilder::new(self.env.create(&table_file(number))?, opts);
        Ok(if self.block_cache.is_some() {
            builder.keep_blocks()
        } else {
            builder
        })
    }

    /// Caches the reader of table `number`, just written, from the `meta`
    /// its builder returned: opening the file reads nothing, and the data
    /// blocks `meta` carries enter the block cache.
    pub fn insert(&self, number: u64, meta: TableMeta) -> TableResult<()> {
        let file = self.env.open(&table_file(number))?;
        if self.block_cache.is_some() {
            self.written_blocks
                .fetch_add(meta.kept_blocks() as u64, Ordering::Relaxed);
        }
        let reader = Arc::new(self.reader(file, meta));
        self.opened.lock().insert(number, reader);
        Ok(())
    }

    /// Drops the cached reader of a deleted or abandoned table.
    pub fn evict(&self, number: u64) {
        self.opened.lock().remove(&number);
    }

    /// Evicts and deletes table `number`, written but never installed: the
    /// one way such a table goes. Returns whether the file was deleted; one
    /// whose delete fails (the env already crashed) is left for the
    /// database's orphan sweep.
    pub fn discard(&self, number: u64) -> bool {
        self.evict(number);
        self.env.delete(&table_file(number)).is_ok()
    }

    /// Number of cached readers.
    pub fn len(&self) -> usize {
        self.opened.lock().len()
    }

    /// True if no readers are cached.
    pub fn is_empty(&self) -> bool {
        self.opened.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::key::{make_internal_key, ValueType};
    use pcp_sstable::{TableBuilder, TableBuilderOptions};
    use pcp_storage::{SimDevice, SimEnv};

    /// An env holding table `number`, and the metadata its builder returned.
    fn env_with_table(number: u64) -> (EnvRef, TableMeta) {
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(32 << 20))));
        let f = env.create(&table_file(number)).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        b.add(&make_internal_key(b"k", 1, ValueType::Value), b"v")
            .unwrap();
        let meta = b.finish().unwrap();
        (env, meta)
    }

    #[test]
    fn caches_and_reuses_readers() {
        let cache = TableCache::new(env_with_table(7).0);
        let a = cache.get(7).unwrap();
        let b = cache.get(7).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.cold_opens(), 1);
    }

    #[test]
    fn evict_forces_reopen() {
        let cache = TableCache::new(env_with_table(7).0);
        let a = cache.get(7).unwrap();
        cache.evict(7);
        assert!(cache.is_empty());
        let b = cache.get(7).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.cold_opens(), 2);
    }

    #[test]
    fn inserted_reader_is_served_without_a_cold_open() {
        let (env, meta) = env_with_table(7);
        let cache = TableCache::new(env);
        cache.insert(7, meta).unwrap();
        assert_eq!(cache.get(7).unwrap().stats().entries, 1);
        assert_eq!(cache.cold_opens(), 0);
        // A check that must see the device opens afresh, and is counted.
        assert_eq!(cache.open_uncached(7).unwrap().stats().entries, 1);
        assert_eq!((cache.cold_opens(), cache.len()), (1, 1));
    }

    /// A table written through `create` starts warm: with a block cache,
    /// every block enters it at `insert`, under the reader's id; without
    /// one, the builder keeps nothing.
    #[test]
    fn created_tables_are_admitted_at_insert() {
        for block_cache in [Some(BlockCache::new(8 << 20)), None] {
            let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(32 << 20))));
            let cache = TableCache::with_block_cache(env, block_cache.clone());
            let opts = TableBuilderOptions {
                block_size: 256,
                ..Default::default()
            };
            let mut b = cache.create(7, opts).unwrap();
            for i in 0..200u64 {
                let ikey =
                    make_internal_key(format!("k{i:04}").as_bytes(), i + 1, ValueType::Value);
                b.add(&ikey, &[b'v'; 40]).unwrap();
            }
            let meta = b.finish().unwrap();
            let kept = meta.kept_blocks();
            cache.insert(7, meta).unwrap();
            let reader = cache.get(7).unwrap();
            let blocks = reader.block_metas().unwrap();
            assert!(blocks.len() > 1);
            let Some(block_cache) = block_cache else {
                assert_eq!((kept, cache.written_blocks()), (0, 0));
                continue;
            };
            assert_eq!(kept, blocks.len());
            assert_eq!(cache.written_blocks(), blocks.len() as u64);
            let id = reader.cache_id().unwrap();
            assert!(blocks
                .iter()
                .all(|b| block_cache.get(id, b.handle.offset).is_some()));
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let (env, meta) = env_with_table(7);
        let cache = TableCache::new(env);
        assert!(cache.get(99).is_err());
        assert!(cache.insert(99, meta).is_err());
        assert!(cache.is_empty());
    }
}
