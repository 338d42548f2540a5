//! The engine counters, each listed once as an atomic ([`Metrics`]), as
//! plain data ([`MetricsSnapshot`]) and as a `pcp_engine_*` registry series.

use super::Db;
use crate::version::{Version, NUM_LEVELS};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

/// Monotone engine counters (the atomics behind `pcp_engine_*` metrics;
/// see `OBSERVABILITY.md`).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Write operations accepted.
    pub puts: AtomicU64,
    /// Point lookups served.
    pub gets: AtomicU64,
    /// Writes stopped waiting for compaction.
    pub stall_events: AtomicU64,
    /// Total time writers spent stalled, nanoseconds.
    pub stall_nanos: AtomicU64,
    /// Memtable flushes completed.
    pub flush_count: AtomicU64,
    /// SSTable bytes written by flushes.
    pub flush_bytes: AtomicU64,
    /// Merge compactions completed.
    pub compaction_count: AtomicU64,
    /// Bytes read by compactions.
    pub compaction_input_bytes: AtomicU64,
    /// Bytes written by compactions.
    pub compaction_output_bytes: AtomicU64,
    /// Wall time inside compactions, nanoseconds.
    pub compaction_nanos: AtomicU64,
    /// Files moved down a level without rewrite.
    pub trivial_moves: AtomicU64,
    /// Obsolete files removed by the GC sweep.
    pub gc_deleted_files: AtomicU64,
    /// GC deletes that failed (retried next sweep).
    pub gc_delete_errors: AtomicU64,
    /// Background attempts retried after transient I/O errors.
    pub bg_retries: AtomicU64,
    /// WAL sync (fsync) operations issued. With group commit, one sync
    /// covers every writer merged into the group, so this grows slower
    /// than `puts` under concurrency — the amortization the write path is
    /// built around.
    pub wal_syncs: AtomicU64,
    /// Commit groups formed by write leaders (each is one WAL record).
    pub group_commits: AtomicU64,
    /// WAL logs whose replay at open stopped at a torn or corrupt tail
    /// (the committed prefix was recovered; the tail was discarded).
    pub wal_tail_corruptions: AtomicU64,
    /// Merge compactions picked per source level (trivial moves excluded).
    pub level_compactions: [AtomicU64; NUM_LEVELS],
    /// Compaction input bytes per source level.
    pub level_compaction_input_bytes: [AtomicU64; NUM_LEVELS],
    /// Compaction output bytes per source level (written to `level + 1`).
    pub level_compaction_output_bytes: [AtomicU64; NUM_LEVELS],
}

/// Per-source-level compaction tallies inside [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCompaction {
    /// Merge compactions whose source was this level.
    pub count: u64,
    /// Bytes read from this level's compactions (both input components).
    pub input_bytes: u64,
    /// Bytes written by this level's compactions (into `level + 1`).
    pub output_bytes: u64,
}

/// Plain-data snapshot of [`Metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSnapshot {
    /// Write operations accepted.
    pub puts: u64,
    /// Point lookups served.
    pub gets: u64,
    /// Writes stopped waiting for compaction.
    pub stall_events: u64,
    /// Total time writers spent stalled.
    pub stall_time: Duration,
    /// Retired: always 0. No write is delayed short of a stall
    /// ([`MetricsSnapshot::stall_events`]); the field stays for readers
    /// that still sum it.
    pub slowdown_events: u64,
    /// Memtable flushes completed.
    pub flush_count: u64,
    /// SSTable bytes written by flushes.
    pub flush_bytes: u64,
    /// Merge compactions completed.
    pub compaction_count: u64,
    /// Bytes read by compactions.
    pub compaction_input_bytes: u64,
    /// Bytes written by compactions.
    pub compaction_output_bytes: u64,
    /// Wall time inside compactions.
    pub compaction_time: Duration,
    /// Files moved down a level without rewrite.
    pub trivial_moves: u64,
    /// Obsolete files removed by the GC sweep.
    pub gc_deleted_files: u64,
    /// GC deletes that failed (the file stays until the next sweep).
    pub gc_delete_errors: u64,
    /// Background flush/compaction attempts retried after transient I/O
    /// errors.
    pub bg_retries: u64,
    /// WAL sync operations issued (one per commit group, not per writer).
    pub wal_syncs: u64,
    /// Commit groups formed by write leaders.
    pub group_commits: u64,
    /// WAL logs that hit a torn/corrupt tail during replay at open.
    pub wal_tail_corruptions: u64,
    /// Per-source-level merge-compaction tallies (index = source level;
    /// trivial moves are counted in [`MetricsSnapshot::trivial_moves`]
    /// only).
    pub levels: [LevelCompaction; NUM_LEVELS],
}

impl MetricsSnapshot {
    /// Compaction bandwidth in bytes/second: (input + output) / busy time —
    /// the paper's primary metric.
    pub fn compaction_bandwidth(&self) -> f64 {
        let bytes = self.compaction_input_bytes + self.compaction_output_bytes;
        let secs = self.compaction_time.as_secs_f64();
        if secs > 0.0 {
            bytes as f64 / secs
        } else {
            0.0
        }
    }
}

impl Db {
    /// Metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let m = &self.inner.metrics;
        MetricsSnapshot {
            puts: m.puts.load(AtomicOrdering::Relaxed),
            gets: m.gets.load(AtomicOrdering::Relaxed),
            stall_events: m.stall_events.load(AtomicOrdering::Relaxed),
            stall_time: Duration::from_nanos(m.stall_nanos.load(AtomicOrdering::Relaxed)),
            slowdown_events: 0,
            flush_count: m.flush_count.load(AtomicOrdering::Relaxed),
            flush_bytes: m.flush_bytes.load(AtomicOrdering::Relaxed),
            compaction_count: m.compaction_count.load(AtomicOrdering::Relaxed),
            compaction_input_bytes: m
                .compaction_input_bytes
                .load(AtomicOrdering::Relaxed),
            compaction_output_bytes: m
                .compaction_output_bytes
                .load(AtomicOrdering::Relaxed),
            compaction_time: Duration::from_nanos(
                m.compaction_nanos.load(AtomicOrdering::Relaxed),
            ),
            trivial_moves: m.trivial_moves.load(AtomicOrdering::Relaxed),
            gc_deleted_files: m.gc_deleted_files.load(AtomicOrdering::Relaxed),
            gc_delete_errors: m.gc_delete_errors.load(AtomicOrdering::Relaxed),
            bg_retries: m.bg_retries.load(AtomicOrdering::Relaxed),
            wal_syncs: m.wal_syncs.load(AtomicOrdering::Relaxed),
            group_commits: m.group_commits.load(AtomicOrdering::Relaxed),
            wal_tail_corruptions: m.wal_tail_corruptions.load(AtomicOrdering::Relaxed),
            levels: std::array::from_fn(|l| LevelCompaction {
                count: m.level_compactions[l].load(AtomicOrdering::Relaxed),
                input_bytes: m.level_compaction_input_bytes[l].load(AtomicOrdering::Relaxed),
                output_bytes: m.level_compaction_output_bytes[l]
                    .load(AtomicOrdering::Relaxed),
            }),
        }
    }

    /// Registers the engine's counters in `registry` under the
    /// `pcp_engine_*` namespace (closure collectors over the atomics this
    /// database already keeps — see `OBSERVABILITY.md` for the contract).
    /// `extra_labels` is attached to every series; the sharded engine
    /// passes `shard="<id>"` so per-shard series coexist. The collectors
    /// hold the database weakly: a registry that outlives it pins nothing
    /// (memtable, table cache, WAL handle all close with the `Db`) and its
    /// engine series scrape as 0 from then on.
    ///
    /// Per-level series carry a `level` label: cumulative compaction
    /// traffic (`pcp_engine_level_*_total`, from the per-level counters)
    /// and the current shape of the tree (`pcp_engine_level_files` /
    /// `pcp_engine_level_bytes` gauges, read from the live version at
    /// scrape time).
    pub fn register_metrics(&self, registry: &pcp_obs::Registry, extra_labels: &[(&str, &str)]) {
        let base: Vec<(String, String)> = extra_labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        type Getter = fn(&Metrics) -> u64;
        let counters: [(&str, &str, Getter); 17] = [
            ("pcp_engine_puts_total", "write operations accepted", |m| {
                m.puts.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_gets_total", "point lookups served", |m| {
                m.gets.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_stall_events_total", "writes stopped waiting for compaction", |m| {
                m.stall_events.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_stall_nanoseconds_total", "time writers spent stalled", |m| {
                m.stall_nanos.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_flushes_total", "memtable flushes completed", |m| {
                m.flush_count.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_flush_bytes_total", "SSTable bytes written by flushes", |m| {
                m.flush_bytes.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compactions_total", "merge compactions completed", |m| {
                m.compaction_count.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compaction_input_bytes_total", "bytes read by compactions", |m| {
                m.compaction_input_bytes.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compaction_output_bytes_total", "bytes written by compactions", |m| {
                m.compaction_output_bytes.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_compaction_nanoseconds_total", "wall time inside compactions", |m| {
                m.compaction_nanos.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_trivial_moves_total", "files moved down without rewrite", |m| {
                m.trivial_moves.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_gc_deleted_files_total", "obsolete files removed by GC", |m| {
                m.gc_deleted_files.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_gc_delete_errors_total", "GC deletes that failed", |m| {
                m.gc_delete_errors.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_bg_retries_total", "background attempts retried after transient errors", |m| {
                m.bg_retries.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_wal_sync_total", "WAL sync operations issued (one per commit group)", |m| {
                m.wal_syncs.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_group_commits_total", "commit groups formed by write leaders", |m| {
                m.group_commits.load(AtomicOrdering::Relaxed)
            }),
            ("pcp_engine_wal_tail_corruptions_total", "WAL logs with a torn/corrupt tail at replay", |m| {
                m.wal_tail_corruptions.load(AtomicOrdering::Relaxed)
            }),
        ];
        for (name, help, get) in counters {
            let inner = Arc::downgrade(&self.inner);
            registry.register_fn_counter(name, help, base.clone(), move || {
                inner.upgrade().map_or(0, |inner| get(&inner.metrics))
            });
        }
        type TableCacheGetter = fn(&pcp_compaction::TableCache) -> u64;
        let table_cache_counters: [(&str, &str, TableCacheGetter); 2] = [
            ("pcp_engine_table_opens_total", "tables opened from the device (metadata read back)", |c| {
                c.cold_opens()
            }),
            ("pcp_engine_block_cache_written_total", "blocks admitted to the block cache with a table just written", |c| {
                c.written_blocks()
            }),
        ];
        for (name, help, get) in table_cache_counters {
            let inner = Arc::downgrade(&self.inner);
            registry.register_fn_counter(name, help, base.clone(), move || {
                inner.upgrade().map_or(0, |inner| get(&inner.cache))
            });
        }
        {
            let inner = Arc::downgrade(&self.inner);
            registry.register_fn_gauge(
                "pcp_engine_memtable_arena_bytes",
                "arena chunk bytes held by the memtable and the one being flushed",
                base.clone(),
                move || {
                    inner.upgrade().map_or(0.0, |inner| {
                        let st = inner.state.lock();
                        let imm = st.imm.as_ref().map_or(0, |imm| imm.arena_bytes());
                        (st.mem.arena_bytes() + imm) as f64
                    })
                },
            );
        }
        registry.register_histogram(
            "pcp_engine_group_commit_batches",
            "writers merged per commit group",
            base.clone(),
            Arc::clone(&self.inner.group_commit_writers),
        );
        {
            type ScanGetter = fn(&pcp_sstable::ScanStats) -> u64;
            let scan_counters: [(&str, &str, ScanGetter); 5] = [
                ("pcp_scan_readahead_spans_total", "span reads issued by scan cursors", |s| {
                    s.spans()
                }),
                ("pcp_scan_readahead_blocks_total", "blocks fetched by scan span reads", |s| {
                    s.blocks_prefetched()
                }),
                ("pcp_scan_readahead_hits_total", "block loads served from a span", |s| {
                    s.hits()
                }),
                ("pcp_scan_readahead_wasted_total", "span blocks the cursor never reached", |s| {
                    s.wasted()
                }),
                ("pcp_scan_sync_blocks_total", "blocks gets loaded one read each (scans read spans only)", |s| {
                    s.sync_blocks()
                }),
            ];
            for (name, help, get) in scan_counters {
                let stats = Arc::clone(self.inner.cache.scan_stats());
                registry.register_fn_counter(name, help, base.clone(), move || get(&stats));
            }
        }
        if let Some(cache) = self.inner.cache.block_cache() {
            for shard in 0..cache.num_shards() {
                let with_shard = {
                    let mut labels = base.clone();
                    labels.push(("cache_shard".to_string(), shard.to_string()));
                    labels
                };
                let c = Arc::clone(cache);
                registry.register_fn_gauge(
                    "pcp_engine_block_cache_shard_hits",
                    "block-cache hits per shard",
                    with_shard.clone(),
                    move || c.shard_stats(shard).0 as f64,
                );
                let c = Arc::clone(cache);
                registry.register_fn_gauge(
                    "pcp_engine_block_cache_shard_misses",
                    "block-cache misses per shard",
                    with_shard,
                    move || c.shard_stats(shard).1 as f64,
                );
            }
        }
        for level in 0..NUM_LEVELS {
            let with_level = |base: &[(String, String)]| {
                let mut labels = base.to_vec();
                labels.push(("level".to_string(), level.to_string()));
                labels
            };
            type LevelGetter = fn(&Metrics, usize) -> u64;
            let per_level: [(&str, &str, LevelGetter); 3] = [
                ("pcp_engine_level_compactions_total", "merge compactions per source level", |m, l| {
                    m.level_compactions[l].load(AtomicOrdering::Relaxed)
                }),
                ("pcp_engine_level_compaction_input_bytes_total", "compaction input bytes per source level", |m, l| {
                    m.level_compaction_input_bytes[l].load(AtomicOrdering::Relaxed)
                }),
                ("pcp_engine_level_compaction_output_bytes_total", "compaction output bytes per source level", |m, l| {
                    m.level_compaction_output_bytes[l].load(AtomicOrdering::Relaxed)
                }),
            ];
            for (name, help, get) in per_level {
                let inner = Arc::downgrade(&self.inner);
                registry.register_fn_counter(name, help, with_level(&base), move || {
                    inner.upgrade().map_or(0, |inner| get(&inner.metrics, level))
                });
            }
            type VersionGetter = fn(&Version, usize) -> f64;
            let shape: [(&str, &str, VersionGetter); 2] = [
                ("pcp_engine_level_files", "live tables per level", |v, l| {
                    v.level_files(l) as f64
                }),
                ("pcp_engine_level_bytes", "live bytes per level", |v, l| {
                    v.level_bytes(l) as f64
                }),
            ];
            for (name, help, get) in shape {
                let inner = Arc::downgrade(&self.inner);
                registry.register_fn_gauge(name, help, with_level(&base), move || {
                    inner.upgrade().map_or(0.0, |inner| {
                        let st = inner.state.lock();
                        get(&st.versions.current(), level)
                    })
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Options;
    use pcp_storage::{EnvRef, SimDevice, SimEnv};

    /// Put → flush → `compact_range`: with a block cache, the flushed and
    /// the merged tables' blocks are admitted as they are handed over;
    /// without one, the counter does not move.
    #[test]
    fn block_cache_written_counts_hand_offs() {
        for block_cache_bytes in [8 << 20, 0] {
            let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
            let opts = Options { block_cache_bytes, ..Default::default() };
            let db = Db::open(env, opts).unwrap();
            let registry = pcp_obs::Registry::new();
            db.register_metrics(&registry, &[]);
            for round in 0..2 {
                for i in 0..2000u32 {
                    db.put(format!("key{i:05}").as_bytes(), format!("v{round}-{i:040}").as_bytes())
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.compact_range(None, None).unwrap();
            let snap = registry.snapshot();
            let written = snap.counter("pcp_engine_block_cache_written_total", &[]);
            let merged = db.metrics().compaction_count;
            assert!(merged > 0, "no merge ran");
            assert_eq!(written > 0, block_cache_bytes > 0, "written {written}");
        }
    }

    /// The arena gauge reads the chunks of `mem` plus `imm`: it grows with
    /// the memtable, stays below the 4 MiB accounting budget for the
    /// paper's entry shape, and falls back to one chunk after a flush.
    #[test]
    fn memtable_arena_gauge_follows_the_memtable() {
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let db = Db::open(env, Options::default()).unwrap();
        let registry = pcp_obs::Registry::new();
        db.register_metrics(&registry, &[]);
        let arena = || registry.snapshot().gauge("pcp_engine_memtable_arena_bytes", &[]);
        let empty = arena();
        assert!(empty > 0.0);
        for i in 0..20_000u32 {
            db.put(format!("{i:016}").as_bytes(), &[7u8; 100]).unwrap();
        }
        let full = arena();
        assert!(full > 20.0 * empty, "arena {full} B after 20k puts");
        assert!(full < (4 << 20) as f64, "arena {full} B over the accounting budget");
        db.flush().unwrap();
        assert_eq!(arena(), empty);
        drop(db);
        assert_eq!(arena(), 0.0);
    }

    #[test]
    fn registry_outliving_db_pins_nothing() {
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20))));
        let registry = pcp_obs::Registry::new();
        let puts = |r: &pcp_obs::Registry| r.snapshot().counter("pcp_engine_puts_total", &[]);

        let db = Db::open(Arc::clone(&env), Options::default()).unwrap();
        db.register_metrics(&registry, &[]);
        db.put(b"k", b"v").unwrap();
        assert_eq!(puts(&registry), 1);
        let inner = Arc::downgrade(&db.inner);
        drop(db);
        assert!(inner.upgrade().is_none(), "collectors kept DbInner alive");
        // Scraping a closed database is harmless and reads 0.
        assert_eq!(puts(&registry), 0);
        assert!(registry.render_prometheus().contains("pcp_engine_level_files"));

        // The same env reopens while the registry is still alive.
        let db = Db::open(env, Options::default()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }
}
