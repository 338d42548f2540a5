//! Compaction interface shared by every executor.
//!
//! The engine delegates the actual merge work to a [`CompactionExec`]. The
//! built-in [`SimpleMergeExec`] is the entry-at-a-time reference
//! implementation; the `pcp-core` crate provides the paper's block-level
//! SCP/PCP/C-PPCP/S-PPCP executors behind the same trait, and every
//! executor must produce **identical output tables** for the same input —
//! an invariant the integration tests enforce.
//!
//! [`VersionKeepFilter`] encodes the LSM version-visibility rules that
//! decide which merged entries survive (step S4's semantic half).

use crate::meta::FileMetadata;
use crate::sched::ResourceGrant;
use crate::sink::OutputSink;
use crate::table_cache::TableCache;
use pcp_sstable::key::{parse_internal_key, SequenceNumber, ValueType};
use pcp_sstable::{KvIter, MergingIter, Result as TableResult, TableBuilderOptions, TableReader};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Decides, entry by entry in internal-key order, whether a merged entry is
/// carried into the compaction output (LevelDB's drop logic):
///
/// * only the newest version at or below `smallest_snapshot` is kept per
///   user key — older ones are invisible to every live reader;
/// * tombstones are dropped once they reach the bottom level (no older
///   level can still hold a shadowed value).
#[derive(Debug)]
pub struct VersionKeepFilter {
    smallest_snapshot: SequenceNumber,
    bottom_level: bool,
    current_user_key: Vec<u8>,
    has_current_user_key: bool,
    last_sequence_for_key: SequenceNumber,
}

impl VersionKeepFilter {
    /// `smallest_snapshot` is the lowest sequence any live reader can see;
    /// `bottom_level` enables tombstone garbage collection.
    pub fn new(smallest_snapshot: SequenceNumber, bottom_level: bool) -> Self {
        VersionKeepFilter {
            smallest_snapshot,
            bottom_level,
            current_user_key: Vec::new(),
            has_current_user_key: false,
            last_sequence_for_key: SequenceNumber::MAX,
        }
    }

    /// Returns true if the entry with internal key `ikey` must be kept.
    /// Must be fed entries in [`pcp_sstable::key::internal_key_cmp`] order.
    #[expect(
        clippy::expect_used,
        reason = "the merge feeds keys read back out of checksum-verified blocks this engine \
                  wrote, each one `make_internal_key`'s user key plus its 8-byte trailer"
    )]
    pub fn keep(&mut self, ikey: &[u8]) -> bool {
        let parsed = parse_internal_key(ikey).expect("well-formed internal key");
        if !self.has_current_user_key || self.current_user_key != parsed.user_key {
            self.current_user_key.clear();
            self.current_user_key.extend_from_slice(parsed.user_key);
            self.has_current_user_key = true;
            self.last_sequence_for_key = SequenceNumber::MAX;
        }
        let keep = if self.last_sequence_for_key <= self.smallest_snapshot {
            // A newer entry for this user key is already ≤ the snapshot:
            // this one can never be observed.
            false
        } else {
            !(parsed.value_type == ValueType::Deletion
                && parsed.sequence <= self.smallest_snapshot
                && self.bottom_level)
        };
        self.last_sequence_for_key = parsed.sequence;
        keep
    }
}

/// Everything an executor needs to run one compaction.
pub struct CompactionRequest {
    /// The engine's table cache: outputs are created in its env and each
    /// one's reader is put into it as the table finishes (evicted again if
    /// the compaction fails).
    pub tables: Arc<TableCache>,
    /// Open readers for the upper component C_i, in version order.
    pub upper: Vec<Arc<TableReader>>,
    /// Open readers for the lower component C_{i+1}, in key order.
    pub lower: Vec<Arc<TableReader>>,
    /// Level the outputs land in.
    pub output_level: usize,
    /// True when `output_level` is the lowest non-empty level (tombstone GC).
    pub bottom_level: bool,
    /// Lowest sequence visible to any live snapshot.
    pub smallest_snapshot: SequenceNumber,
    /// Shared file-number allocator.
    pub file_numbers: Arc<AtomicU64>,
    /// Table format options for outputs.
    pub table_opts: TableBuilderOptions,
    /// Output tables rotate at this size (paper: 2 MB SSTables).
    pub max_output_bytes: u64,
    /// The scheduler's resource allowance for this compaction: stage-worker
    /// tokens. [`ResourceGrant::unlimited`] when no scheduler is involved.
    pub grant: ResourceGrant,
}

impl CompactionRequest {
    /// Total input bytes (for bandwidth accounting).
    pub fn input_bytes(&self) -> u64 {
        self.upper
            .iter()
            .chain(self.lower.iter())
            .map(|t| t.stats().file_size)
            .sum()
    }

    /// The sink the outputs go through: [`CompactionRequest::tables`],
    /// numbered from [`CompactionRequest::file_numbers`], rotated at
    /// [`CompactionRequest::max_output_bytes`].
    pub fn output_sink(&self) -> OutputSink<'_> {
        OutputSink::new(
            &self.tables,
            &self.file_numbers,
            self.table_opts.clone(),
            self.max_output_bytes,
        )
    }
}

/// A compaction algorithm.
pub trait CompactionExec: Send + Sync {
    /// Executor name for logs and reports.
    fn name(&self) -> &'static str;

    /// Merges the request's inputs into new tables at the output level and
    /// returns their metadata (in key order).
    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>>;

    /// Registers any executor-owned series (occupancy gauges, shape-choice
    /// counters) in `registry`. Stateless executors have nothing to
    /// publish, so the default is a no-op. Call this once per executor
    /// instance, not once per database sharing it — the engine-level
    /// `register_metrics` entry points take care of that.
    fn register_metrics(&self, _registry: &pcp_obs::Registry) {}
}

/// Reference executor: single-threaded, entry-at-a-time merge through the
/// normal iterator machinery. Correct, simple, and the semantic baseline
/// every pipelined executor is tested against.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimpleMergeExec;

impl CompactionExec for SimpleMergeExec {
    fn name(&self) -> &'static str {
        "simple-merge"
    }

    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
        let children: Vec<Box<dyn KvIter>> = req
            .upper
            .iter()
            .chain(req.lower.iter())
            .map(|t| Box::new(t.iter()) as Box<dyn KvIter>)
            .collect();
        let mut merged = MergingIter::new(children);
        let mut filter = VersionKeepFilter::new(req.smallest_snapshot, req.bottom_level);
        let mut out = req.output_sink();
        let result = {
            let mut run = || -> TableResult<Vec<Arc<FileMetadata>>> {
                merged.seek_to_first();
                while merged.valid() {
                    let (key, value) = (merged.key(), merged.value());
                    if filter.keep(key) {
                        out.append(key, key, |b| b.add(key, value))?;
                    }
                    merged.next();
                }
                // The merge also ends at the first input it cannot read.
                merged.status()?;
                out.finish()
            };
            run()
        };
        if result.is_err() {
            out.abort();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filename::table_file;
    use pcp_sstable::key::{make_internal_key, user_key, MAX_SEQUENCE};
    use pcp_sstable::TableBuilder;
    use pcp_storage::{EnvRef, SimDevice, SimEnv};

    fn env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(128 << 20))))
    }

    fn build_table(
        env: &EnvRef,
        number: u64,
        entries: &[(&[u8], u64, ValueType, &[u8])],
    ) -> Arc<TableReader> {
        let f = env.create(&table_file(number)).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        let mut sorted: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, seq, t, v)| (make_internal_key(k, *seq, *t), v.to_vec()))
            .collect();
        sorted.sort_by(|a, b| pcp_sstable::internal_key_cmp(&a.0, &b.0));
        for (ik, v) in sorted {
            b.add(&ik, &v).unwrap();
        }
        b.finish().unwrap();
        Arc::new(TableReader::open(env.open(&table_file(number)).unwrap()).unwrap())
    }

    fn run(
        env: EnvRef,
        upper: Vec<Arc<TableReader>>,
        lower: Vec<Arc<TableReader>>,
        smallest_snapshot: u64,
        bottom: bool,
    ) -> (Vec<Arc<FileMetadata>>, EnvRef) {
        let req = CompactionRequest {
            tables: Arc::new(TableCache::new(Arc::clone(&env))),
            upper,
            lower,
            output_level: 1,
            bottom_level: bottom,
            smallest_snapshot,
            file_numbers: Arc::new(AtomicU64::new(100)),
            table_opts: TableBuilderOptions::default(),
            max_output_bytes: 2 << 20,
            grant: ResourceGrant::unlimited(),
        };
        let outputs = SimpleMergeExec.compact(&req).unwrap();
        (outputs, env)
    }

    fn read_all(env: &EnvRef, outputs: &[Arc<FileMetadata>]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = Vec::new();
        for meta in outputs {
            let t =
                Arc::new(TableReader::open(env.open(&table_file(meta.number)).unwrap()).unwrap());
            let mut it = t.iter();
            it.seek_to_first();
            while it.valid() {
                all.push((it.key().to_vec(), it.value().to_vec()));
                it.next();
            }
        }
        all
    }

    #[test]
    fn filter_keeps_only_newest_visible_version() {
        let mut f = VersionKeepFilter::new(100, false);
        // Internal-key order for user key "k": seq 50, 30, 10.
        assert!(f.keep(&make_internal_key(b"k", 50, ValueType::Value)));
        assert!(!f.keep(&make_internal_key(b"k", 30, ValueType::Value)));
        assert!(!f.keep(&make_internal_key(b"k", 10, ValueType::Value)));
        // New user key resets.
        assert!(f.keep(&make_internal_key(b"l", 5, ValueType::Value)));
    }

    #[test]
    fn filter_respects_snapshots() {
        // A version is dropped only when a newer one is itself ≤ the
        // snapshot: 50 and 30 are above 20, so 10 is what snapshot 20 reads.
        let mut f = VersionKeepFilter::new(20, false);
        assert!(f.keep(&make_internal_key(b"k", 50, ValueType::Value)));
        assert!(f.keep(&make_internal_key(b"k", 30, ValueType::Value)));
        assert!(f.keep(&make_internal_key(b"k", 10, ValueType::Value)));
        assert!(
            !f.keep(&make_internal_key(b"k", 5, ValueType::Value)),
            "seq 5 shadowed by seq 10 ≤ snapshot"
        );
    }

    #[test]
    fn filter_gc_tombstones_only_at_bottom() {
        let mut bottom = VersionKeepFilter::new(MAX_SEQUENCE, true);
        assert!(!bottom.keep(&make_internal_key(b"k", 9, ValueType::Deletion)));
        let mut mid = VersionKeepFilter::new(MAX_SEQUENCE, false);
        assert!(mid.keep(&make_internal_key(b"k", 9, ValueType::Deletion)));
    }

    #[test]
    fn merge_dedups_across_components() {
        let env = env();
        let upper = build_table(
            &env,
            1,
            &[
                (b"a", 10, ValueType::Value, b"a-new"),
                (b"c", 11, ValueType::Value, b"c-new"),
            ],
        );
        let lower = build_table(
            &env,
            2,
            &[
                (b"a", 2, ValueType::Value, b"a-old"),
                (b"b", 3, ValueType::Value, b"b-old"),
            ],
        );
        let (outputs, env) = run(env, vec![upper], vec![lower], MAX_SEQUENCE, true);
        let all = read_all(&env, &outputs);
        let got: Vec<(Vec<u8>, Vec<u8>)> = all
            .iter()
            .map(|(ik, v)| (user_key(ik).to_vec(), v.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), b"a-new".to_vec()),
                (b"b".to_vec(), b"b-old".to_vec()),
                (b"c".to_vec(), b"c-new".to_vec()),
            ]
        );
    }

    #[test]
    fn tombstones_erase_values_at_bottom() {
        let env = env();
        let upper = build_table(&env, 1, &[(b"k", 10, ValueType::Deletion, b"")]);
        let lower = build_table(&env, 2, &[(b"k", 2, ValueType::Value, b"old")]);
        let (outputs, env) = run(env, vec![upper], vec![lower], MAX_SEQUENCE, true);
        let all = read_all(&env, &outputs);
        assert!(all.is_empty(), "tombstone and shadowed value both dropped");
        assert!(outputs.is_empty(), "no output file for empty result");
    }

    #[test]
    fn tombstones_survive_above_bottom() {
        let env = env();
        let upper = build_table(&env, 1, &[(b"k", 10, ValueType::Deletion, b"")]);
        let lower = build_table(&env, 2, &[(b"k", 2, ValueType::Value, b"old")]);
        let (outputs, env) = run(env, vec![upper], vec![lower], MAX_SEQUENCE, false);
        let all = read_all(&env, &outputs);
        assert_eq!(all.len(), 1, "tombstone kept to shadow deeper levels");
        let p = parse_internal_key(&all[0].0).unwrap();
        assert_eq!(p.value_type, ValueType::Deletion);
    }

    #[test]
    fn outputs_rotate_at_max_size_and_stay_disjoint() {
        let env = env();
        // Incompressible values so output size tracks entry count.
        let mut x = 0xDEADBEEFu64;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..4000)
            .map(|i| {
                let v: Vec<u8> = (0..100)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                (format!("key{i:08}").into_bytes(), v)
            })
            .collect();
        let f = env.create(&table_file(1)).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(&make_internal_key(k, i as u64 + 1, ValueType::Value), v)
                .unwrap();
        }
        b.finish().unwrap();
        let upper = Arc::new(TableReader::open(env.open(&table_file(1)).unwrap()).unwrap());
        let req = CompactionRequest {
            tables: Arc::new(TableCache::new(Arc::clone(&env))),
            upper: vec![upper],
            lower: vec![],
            output_level: 1,
            bottom_level: true,
            smallest_snapshot: MAX_SEQUENCE,
            file_numbers: Arc::new(AtomicU64::new(10)),
            table_opts: TableBuilderOptions::default(),
            max_output_bytes: 64 << 10, // small, to force several outputs
            grant: ResourceGrant::unlimited(),
        };
        let outputs = SimpleMergeExec.compact(&req).unwrap();
        assert!(
            outputs.len() > 2,
            "expected rotation, got {}",
            outputs.len()
        );
        let total: u64 = outputs.iter().map(|f| f.entries).sum();
        assert_eq!(total, 4000);
        for w in outputs.windows(2) {
            assert!(
                user_key(&w[0].largest) < user_key(&w[1].smallest),
                "outputs must be disjoint"
            );
        }
    }
}
