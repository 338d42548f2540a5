//! The compaction executor (paper §III): one driver, three kinds of shape.
//!
//! Every compaction is the same procedure — plan independent sub-key
//! ranges, run the seven steps over each, write size-rotated tables —
//! and [`PipelinedExec`] differs only in *how* the sub-tasks are run:
//!
//! * [`PipelinedExec::scp`] — the **Sequential Compaction Procedure**:
//!   sub-tasks one after another, the seven steps strictly in order, on the
//!   calling thread. Either the disk or the CPU is busy at any instant,
//!   never both (Fig. 3).
//! * fixed widths from a [`PipelineConfig`] — the **Pipelined Compaction
//!   Procedure** and its parallel variants:
//!   - `compute_workers = 1, read_workers = 1` → **PCP** (Fig. 4): three
//!     stages — stage-read | stage-compute | stage-write — on three
//!     threads, connected by bounded queues;
//!   - `compute_workers = k` → **C-PPCP** (Fig. 7b): k compute workers,
//!     each processing *whole sub-tasks* (S2–S6 stay on one core for
//!     d-cache locality, exactly the paper's argument against a deeper
//!     pipeline), with a resequencer before the write stage;
//!   - `read_workers = k` → **S-PPCP** (Fig. 7a): k read lanes issuing S1
//!     for different read units concurrently; pair with a RAID0-backed
//!     [`pcp_storage::Env`] so the lanes land on different spindles.
//!     Writes stay on one lane and stripe inside the array, matching the
//!     paper's md-RAID0 setup.
//! * [`PipelinedExec::adaptive`] — PCP or C-PPCP(k), the compute width
//!   chosen per compaction by [`crate::adaptive::compute_width`]; the
//!   engine's default.
//!
//! All shapes produce byte-identical output tables for identical inputs
//! (enforced by the cross-executor integration tests).

use crate::adaptive::{compute_width, CHOICE_LABELS};
use crate::planner::{plan_subtasks, read_units, RunBlocks, SubTask};
use crate::profile::{CompactionProfile, Step};
use crate::steps::{compute_subtask, read_unit, ComputeConfig, ComputedSubTask};
use crossbeam::channel::bounded;
use pcp_compaction::{CompactionExec, CompactionRequest, FileMetadata, OutputSink};
use pcp_obs::TraceLog;
use pcp_sstable::{Result as TableResult, TableReader};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline shape. Defaults correspond to plain PCP with the paper's best
/// sub-task size on SSD (512 KB, Fig. 11a).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target stored bytes per sub-task.
    pub subtask_bytes: u64,
    /// Compute-stage workers (k of C-PPCP); the upper bound of the width
    /// the adaptive shape may choose.
    pub compute_workers: usize,
    /// Read-stage lanes (k of S-PPCP).
    pub read_workers: usize,
    /// Bounded-queue capacity between adjacent stages.
    pub queue_depth: usize,
    /// Split the compute stage into three pipeline stages (S2+S3 | S4 |
    /// S5+S6) on three threads — the deeper pipeline the paper argues
    /// *against* in §III-B (load imbalance, d-cache locality). Kept as a
    /// real implementation so the ablation can measure the argument.
    pub deep_compute: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            subtask_bytes: 512 << 10,
            compute_workers: 1,
            read_workers: 1,
            queue_depth: 4,
            deep_compute: false,
        }
    }
}

fn compute_config(req: &CompactionRequest) -> ComputeConfig {
    ComputeConfig {
        block_size: req.table_opts.block_size,
        restart_interval: req.table_opts.restart_interval,
        compression: req.table_opts.compression,
        smallest_snapshot: req.smallest_snapshot,
        bottom_level: req.bottom_level,
    }
}

fn gather_runs(req: &CompactionRequest) -> TableResult<(Vec<Arc<TableReader>>, Vec<RunBlocks>)> {
    let readers: Vec<Arc<TableReader>> = req
        .upper
        .iter()
        .chain(req.lower.iter())
        .cloned()
        .collect();
    let mut runs = Vec::with_capacity(readers.len());
    for r in &readers {
        runs.push(r.block_metas()?);
    }
    Ok((readers, runs))
}

/// Step S7 owner: appends sealed blocks to the [`OutputSink`]'s tables and
/// accounts for them. One [`SealedWriter::write_subtask`] call flushes
/// once — one write I/O per sub-task, the unit the paper schedules on the
/// disk.
pub struct SealedWriter<'req> {
    sink: OutputSink<'req>,
    profile: &'req CompactionProfile,
    /// Sealed-block bytes already counted as output; `finish` counts what
    /// the tables hold beyond them.
    sealed_bytes: u64,
}

impl<'req> SealedWriter<'req> {
    /// Creates a writer for `req`'s output level.
    pub fn new(req: &'req CompactionRequest, profile: &'req CompactionProfile) -> Self {
        SealedWriter { sink: OutputSink::new(req), profile, sealed_bytes: 0 }
    }

    /// Appends one computed sub-task (S7) and flushes it to the device.
    pub fn write_subtask(&mut self, st: ComputedSubTask) -> TableResult<()> {
        let t0 = Instant::now();
        let mut appended = 0u64;
        for sb in &st.blocks {
            self.sink.append(&sb.first_key, &sb.last_key, |b| {
                b.add_sealed_block(
                    &sb.raw,
                    &sb.first_key,
                    &sb.last_key,
                    sb.entries,
                    sb.raw_len,
                    &sb.bloom_hashes,
                )
            })?;
            appended += sb.raw.len() as u64;
        }
        self.sink.flush()?;
        self.profile.record(Step::Write, t0.elapsed());
        self.profile.add_output_bytes(appended);
        self.profile.add_subtasks(1);
        self.sealed_bytes += appended;
        Ok(())
    }

    /// Finishes the trailing table; returns outputs in key order. On error
    /// the writer still owns every created file — call
    /// [`SealedWriter::abort`] to sweep them.
    pub fn finish(&mut self) -> TableResult<Vec<Arc<FileMetadata>>> {
        let t0 = Instant::now();
        let outputs = self.sink.finish()?;
        self.profile.record(Step::Write, t0.elapsed());
        // Index/filter/footer bytes beyond the sealed data blocks.
        let written: u64 = outputs.iter().map(|f| f.size).sum();
        self.profile.add_output_bytes(written.saturating_sub(self.sealed_bytes));
        Ok(outputs)
    }

    /// Deletes every output file created; see [`OutputSink::abort`].
    pub fn abort(&mut self) -> usize {
        self.sink.abort()
    }
}

/// How a [`PipelinedExec`] runs the sub-tasks of a compaction.
enum Shape {
    /// S1…S7 inline on the calling thread (SCP).
    Sequential,
    /// Three stages, widths as configured (PCP, S-/C-PPCP, `pcp-deep`).
    Fixed,
    /// Three stages, one read lane, compute width chosen per compaction.
    /// Holds the per-choice pick counts, indexed like [`CHOICE_LABELS`];
    /// behind an `Arc` so metric-scrape closures can hold them without
    /// holding the executor itself.
    Adaptive(Arc<[AtomicU64; 2]>),
}

/// The compaction executor: SCP, PCP, both parallel variants and the
/// adaptive default, by shape.
pub struct PipelinedExec {
    cfg: PipelineConfig,
    shape: Shape,
    /// One profile whatever widths run, so the adaptive shape's occupancy
    /// history is continuous across width changes.
    profile: Arc<CompactionProfile>,
    trace: Option<Arc<TraceLog>>,
}

impl PipelinedExec {
    fn with_shape(cfg: PipelineConfig, shape: Shape) -> PipelinedExec {
        assert!(cfg.compute_workers >= 1 && cfg.read_workers >= 1);
        assert!(cfg.queue_depth >= 1);
        PipelinedExec {
            cfg,
            shape,
            profile: Arc::new(CompactionProfile::new()),
            trace: None,
        }
    }

    /// Builds a pipelined executor with explicit fixed widths.
    pub fn new(cfg: PipelineConfig) -> PipelinedExec {
        PipelinedExec::with_shape(cfg, Shape::Fixed)
    }

    /// The sequential baseline (paper §III-A); `subtask_bytes` is simply
    /// the I/O granularity.
    pub fn scp(subtask_bytes: u64) -> PipelinedExec {
        let cfg = PipelineConfig { subtask_bytes, ..Default::default() };
        PipelinedExec::with_shape(cfg, Shape::Sequential)
    }

    /// Plain PCP: 1 read lane, 1 compute worker, 1 write lane.
    pub fn pcp(subtask_bytes: u64) -> PipelinedExec {
        PipelinedExec::new(PipelineConfig {
            subtask_bytes,
            ..Default::default()
        })
    }

    /// C-PPCP with `k` compute workers.
    pub fn c_ppcp(subtask_bytes: u64, k: usize) -> PipelinedExec {
        PipelinedExec::new(PipelineConfig {
            subtask_bytes,
            compute_workers: k,
            ..Default::default()
        })
    }

    /// S-PPCP with `k` read lanes (pair with a RAID0-backed env).
    pub fn s_ppcp(subtask_bytes: u64, k: usize) -> PipelinedExec {
        PipelinedExec::new(PipelineConfig {
            subtask_bytes,
            read_workers: k,
            ..Default::default()
        })
    }

    /// PCP or C-PPCP(k ≤ `max_workers`), chosen per compaction from the
    /// previous compaction's occupancy and the scheduler's stage-token
    /// grant ([`compute_width`]). Every width produces byte-identical
    /// tables, so switching between compactions is invisible to
    /// correctness.
    pub fn adaptive(subtask_bytes: u64, max_workers: usize) -> PipelinedExec {
        let cfg = PipelineConfig {
            subtask_bytes,
            compute_workers: max_workers,
            ..Default::default()
        };
        PipelinedExec::with_shape(cfg, Shape::Adaptive(Arc::default()))
    }

    /// Attaches a trace log; the executor emits `compaction_start` /
    /// `compaction_done` / `compaction_failed` lifecycle events into it,
    /// and the adaptive shape an `adaptive_choice` before each start.
    pub fn with_trace(mut self, trace: Arc<TraceLog>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The step profile.
    pub fn profile(&self) -> Arc<CompactionProfile> {
        Arc::clone(&self.profile)
    }

    /// The configured shape.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    fn record(&self, kind: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(t) = &self.trace {
            t.record(kind, fields);
        }
    }

    /// The adaptive shape's compute width for `req`, counted and traced.
    fn choose_width(&self, req: &CompactionRequest, choices: &[AtomicU64; 2]) -> usize {
        let occ = self.profile.last_occupancy();
        let tokens = req.grant.stage_tokens();
        let width = compute_width(&occ, tokens, self.cfg.compute_workers);
        let choice = usize::from(width > 1); // index into CHOICE_LABELS
        choices[choice].fetch_add(1, Ordering::Relaxed);
        self.record(
            "adaptive_choice",
            &[
                ("choice", choice as u64),
                ("input_bytes", req.input_bytes()),
                (
                    "stage_tokens",
                    if tokens == usize::MAX { 0 } else { tokens as u64 },
                ),
                ("bottleneck_ppm", (occ.bottleneck() * 1e6) as u64),
            ],
        );
        width
    }
}

/// The engine's production default: the adaptive shape with the paper's
/// best sub-task size (512 KB, Fig. 11a), at most as wide as the host has
/// cores — the paper's C-PPCP argument.
impl Default for PipelinedExec {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        PipelinedExec::adaptive(512 << 10, cores)
    }
}

/// What the stages of one compaction share.
struct Job<'a> {
    readers: &'a [Arc<TableReader>],
    runs: &'a [RunBlocks],
    plan: &'a [SubTask],
    ccfg: ComputeConfig,
    profile: &'a CompactionProfile,
}

impl Job<'_> {
    /// S1 … S7 strictly in order; one resource busy at a time.
    fn run_sequential(&self, writer: &mut SealedWriter) -> TableResult<()> {
        for unit in read_units(self.plan) {
            for data in read_unit(self.readers, self.runs, unit, self.profile)? {
                writer.write_subtask(compute_subtask(data, &self.ccfg, self.profile)?)?;
            }
        }
        Ok(())
    }

    /// Stage-read | stage-compute | stage-write over bounded queues, the
    /// write stage on the calling thread.
    fn run_pipelined(
        &self,
        cfg: &PipelineConfig,
        read_workers: usize,
        compute_workers: usize,
        writer: &mut SealedWriter,
    ) -> TableResult<()> {
        let Job { readers, runs, plan, ccfg, profile } = self;
        let (read_tx, read_rx) =
            bounded::<TableResult<crate::steps::SubTaskData>>(cfg.queue_depth);
        let (comp_tx, comp_rx) = bounded::<TableResult<ComputedSubTask>>(cfg.queue_depth);

        std::thread::scope(|scope| {
            // Stage read: `read_workers` lanes, read units round-robin; a
            // unit's sub-tasks enter the pipeline one by one.
            for lane in 0..read_workers {
                let read_tx = read_tx.clone();
                scope.spawn(move || {
                    for unit in read_units(plan).skip(lane).step_by(read_workers) {
                        let items = match read_unit(readers, runs, unit, profile) {
                            Ok(items) => items,
                            Err(e) => {
                                let _ = read_tx.send(Err(e));
                                return;
                            }
                        };
                        for item in items {
                            if read_tx.send(Ok(item)).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
            drop(read_tx);

            if cfg.deep_compute {
                // Five-stage variant: S2+S3 | S4 | S5+S6 on three chained
                // threads (the paper's rejected design, for the ablation).
                let (dec_tx, dec_rx) =
                    bounded::<TableResult<crate::steps::DecodedSubTask>>(cfg.queue_depth);
                let (mrg_tx, mrg_rx) =
                    bounded::<TableResult<crate::steps::MergedSubTask>>(cfg.queue_depth);
                {
                    let read_rx = read_rx.clone();
                    scope.spawn(move || {
                        while let Ok(item) = read_rx.recv() {
                            let out = item
                                .and_then(|data| crate::steps::verify_decompress(data, profile));
                            let failed = out.is_err();
                            if dec_tx.send(out).is_err() || failed {
                                return;
                            }
                        }
                    });
                }
                scope.spawn(move || {
                    while let Ok(item) = dec_rx.recv() {
                        let out =
                            item.and_then(|dec| crate::steps::merge_subtask(dec, ccfg, profile));
                        let failed = out.is_err();
                        if mrg_tx.send(out).is_err() || failed {
                            return;
                        }
                    }
                });
                {
                    let comp_tx = comp_tx.clone();
                    scope.spawn(move || {
                        while let Ok(item) = mrg_rx.recv() {
                            let out =
                                item.and_then(|m| crate::steps::seal_subtask(m, ccfg, profile));
                            let failed = out.is_err();
                            if comp_tx.send(out).is_err() || failed {
                                return;
                            }
                        }
                    });
                }
            } else {
                // Stage compute: whole sub-tasks per worker (the paper's
                // chosen design — d-cache locality, no imbalance).
                for _ in 0..compute_workers {
                    let read_rx = read_rx.clone();
                    let comp_tx = comp_tx.clone();
                    scope.spawn(move || {
                        while let Ok(item) = read_rx.recv() {
                            let out = item.and_then(|data| compute_subtask(data, ccfg, profile));
                            let failed = out.is_err();
                            if comp_tx.send(out).is_err() || failed {
                                return;
                            }
                        }
                    });
                }
            }
            drop(comp_tx);
            drop(read_rx);

            // Stage write on this thread, resequencing by sub-task index so
            // the output tables are written in key order no matter how the
            // compute workers finish.
            let mut pending: BTreeMap<usize, ComputedSubTask> = BTreeMap::new();
            let mut next = 0usize;
            let mut write_all = || -> TableResult<()> {
                for item in comp_rx.iter() {
                    let st = item?;
                    pending.insert(st.index, st);
                    while let Some(st) = pending.remove(&next) {
                        writer.write_subtask(st)?;
                        next += 1;
                    }
                }
                Ok(())
            };
            let result = write_all();
            // Shut the pipeline down before the scope joins the stage
            // threads: dropping the tail receiver makes every upstream
            // `send` fail, which unwinds read and compute workers that
            // would otherwise block forever on a full bounded queue.
            drop(comp_rx);
            debug_assert!(result.is_err() || next == plan.len(), "all sub-tasks written");
            result
        })
    }
}

impl CompactionExec for PipelinedExec {
    fn name(&self) -> &'static str {
        match &self.shape {
            Shape::Sequential => "scp",
            Shape::Adaptive(_) => "adaptive",
            Shape::Fixed if self.cfg.deep_compute => "pcp-deep",
            Shape::Fixed => match (self.cfg.read_workers, self.cfg.compute_workers) {
                (1, 1) => "pcp",
                (_, 1) => "s-ppcp",
                (1, _) => "c-ppcp",
                _ => "sc-ppcp",
            },
        }
    }

    /// Registers the profile under `exec = name()`, plus — for the adaptive
    /// shape — the `pcp_sched_executor_choice_total{choice=...}` counters.
    fn register_metrics(&self, registry: &pcp_obs::Registry) {
        self.profile.register_metrics(registry, self.name());
        if let Shape::Adaptive(choices) = &self.shape {
            for (idx, label) in CHOICE_LABELS.iter().enumerate() {
                let counts = Arc::clone(choices);
                registry.register_fn_counter(
                    "pcp_sched_executor_choice_total",
                    "compactions per pipeline shape picked by the adaptive executor",
                    vec![("choice".to_string(), label.to_string())],
                    move || counts[idx].load(Ordering::Relaxed),
                );
            }
        }
    }

    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
        let wall = Instant::now();
        let before = self.profile.snapshot();
        let (readers, runs) = gather_runs(req)?;
        let plan = plan_subtasks(&runs, self.cfg.subtask_bytes);
        if plan.is_empty() {
            return Ok(Vec::new());
        }
        debug_assert_eq!(
            crate::planner::check_plan(&runs, &plan, self.cfg.subtask_bytes),
            Ok(())
        );
        // Stage widths, `None` for the sequential shape. The scheduler's
        // grant caps how wide the parallel stages may run this time; an
        // unlimited grant leaves the configured shape alone.
        let widths = match &self.shape {
            Shape::Sequential => None,
            Shape::Fixed => Some((
                req.grant.clamp_workers(self.cfg.read_workers),
                req.grant.clamp_workers(self.cfg.compute_workers),
            )),
            Shape::Adaptive(choices) => Some((1, self.choose_width(req, choices))),
        };
        let mut start = vec![
            ("exec", u64::from(widths.is_some())), // 0 = scp, 1 = pipelined (see OBSERVABILITY.md)
            ("inputs", readers.len() as u64),
            ("subtasks", plan.len() as u64),
            ("read_units", read_units(&plan).count() as u64),
        ];
        if let Some((read_workers, compute_workers)) = widths {
            start.push(("read_workers", read_workers as u64));
            start.push(("compute_workers", compute_workers as u64));
        }
        self.record("compaction_start", &start);

        let job = Job {
            readers: &readers,
            runs: &runs,
            plan: &plan,
            ccfg: compute_config(req),
            profile: &self.profile,
        };
        let mut writer = SealedWriter::new(req, &self.profile);
        let run = match widths {
            None => job.run_sequential(&mut writer),
            Some((r, c)) => job.run_pipelined(&self.cfg, r, c, &mut writer),
        };
        match run.and_then(|()| writer.finish()) {
            Ok(outputs) => {
                self.profile.add_compaction(wall.elapsed());
                // Publish the occupancy of the compaction that just
                // finished, computed as the profile delta over its wall
                // time — the Fig. 5 quantity. When several compactions
                // share one profile concurrently the delta attributes
                // overlapping step time to whichever finishes last;
                // occupancies are exact whenever compactions on a profile
                // are serialized (the common case: one executor per DB).
                let occ = self.profile.snapshot().delta(&before).occupancy();
                self.profile.set_last_occupancy(&occ);
                self.record(
                    "compaction_done",
                    &[
                        ("outputs", outputs.len() as u64),
                        ("wall_nanos", occ.wall.as_nanos() as u64),
                        ("read_busy_ppm", (occ.read * 1e6) as u64),
                        ("compute_busy_ppm", (occ.compute * 1e6) as u64),
                        ("write_busy_ppm", (occ.write * 1e6) as u64),
                    ],
                );
                Ok(outputs)
            }
            Err(e) => {
                // Sweep partial outputs so a failed compaction leaves no
                // orphan tables behind.
                let swept = writer.abort();
                self.record("compaction_failed", &[("swept_outputs", swept as u64)]);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Occupancy;
    use pcp_compaction::filename::table_file;
    use pcp_compaction::TableCache;
    use pcp_sstable::key::{make_internal_key, user_key, ValueType, MAX_SEQUENCE};
    use pcp_sstable::{KvIter, TableBuilder, TableBuilderOptions};
    use pcp_storage::{EnvRef, SimDevice, SimEnv};
    use std::sync::atomic::AtomicU64;

    fn env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(512 << 20))))
    }

    /// Deterministic incompressible filler so stored sizes track entry
    /// counts (and are identical across executors).
    fn filler(i: usize, tag: &str, len: usize) -> Vec<u8> {
        let mut x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (tag.len() as u64) << 32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Builds an input table with `n` entries starting at `seq0`, keys
    /// `key%06d` stepped by `stride`.
    fn build_input(
        env: &EnvRef,
        name: &str,
        n: usize,
        seq0: u64,
        stride: usize,
        tag: &str,
    ) -> Arc<TableReader> {
        let f = env.create(name).unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        for i in 0..n {
            let ik = make_internal_key(
                format!("key{:06}", i * stride).as_bytes(),
                seq0 + i as u64,
                ValueType::Value,
            );
            let mut value = format!("{tag}-{i}-").into_bytes();
            value.extend_from_slice(&filler(i, tag, 80));
            b.add(&ik, &value).unwrap();
        }
        b.finish().unwrap();
        Arc::new(TableReader::open(env.open(name).unwrap()).unwrap())
    }

    fn request(env: &EnvRef, upper: Vec<Arc<TableReader>>, lower: Vec<Arc<TableReader>>) -> CompactionRequest {
        CompactionRequest {
            tables: Arc::new(TableCache::new(Arc::clone(env))),
            upper,
            lower,
            output_level: 1,
            bottom_level: true,
            smallest_snapshot: MAX_SEQUENCE,
            file_numbers: Arc::new(AtomicU64::new(1000)),
            table_opts: TableBuilderOptions::default(),
            max_output_bytes: 256 << 10,
            grant: pcp_compaction::ResourceGrant::unlimited(),
        }
    }

    type Kvs = Vec<(Vec<u8>, Vec<u8>)>;

    fn read_everything(env: &EnvRef, outputs: &[Arc<FileMetadata>]) -> Kvs {
        let mut all = Vec::new();
        for meta in outputs {
            let t = Arc::new(
                TableReader::open(env.open(&table_file(meta.number)).unwrap()).unwrap(),
            );
            let mut it = t.iter();
            it.seek_to_first();
            while it.valid() {
                all.push((it.key().to_vec(), it.value().to_vec()));
                it.next();
            }
        }
        all
    }

    fn run_exec(exec: &dyn CompactionExec, n: usize) -> (Kvs, usize) {
        let env = env();
        let upper = build_input(&env, "u.sst", n, 100_000, 2, "new");
        let lower = build_input(&env, "l.sst", n, 1, 3, "old");
        let req = request(&env, vec![upper], vec![lower]);
        let outputs = exec.compact(&req).unwrap();
        (read_everything(&env, &outputs), outputs.len())
    }

    #[test]
    fn all_executors_produce_identical_output() {
        let n = 3000;
        let (scp, scp_files) = run_exec(&PipelinedExec::scp(64 << 10), n);
        for exec in [
            PipelinedExec::pcp(64 << 10),
            PipelinedExec::c_ppcp(64 << 10, 3),
            PipelinedExec::s_ppcp(64 << 10, 3),
            PipelinedExec::new(PipelineConfig {
                subtask_bytes: 64 << 10,
                compute_workers: 2,
                read_workers: 2,
                queue_depth: 2,
                deep_compute: false,
            }),
            PipelinedExec::new(PipelineConfig {
                subtask_bytes: 64 << 10,
                deep_compute: true,
                ..Default::default()
            }),
        ] {
            let (out, files) = run_exec(&exec, n);
            assert_eq!(out.len(), scp.len(), "{} entry count", exec.name());
            assert_eq!(out, scp, "{} diverged from SCP", exec.name());
            assert_eq!(files, scp_files, "{} file count", exec.name());
        }
    }

    #[test]
    fn merge_semantics_newest_wins_across_components() {
        let env = env();
        // Upper rewrites every 2nd key of lower with newer sequences.
        let upper = build_input(&env, "u.sst", 500, 10_000, 2, "new");
        let lower = build_input(&env, "l.sst", 1000, 1, 1, "old");
        let req = request(&env, vec![upper], vec![lower]);
        let exec = PipelinedExec::pcp(32 << 10);
        let outputs = exec.compact(&req).unwrap();
        let all = read_everything(&env, &outputs);
        assert_eq!(all.len(), 1000, "one version per user key");
        for (ik, v) in &all {
            let p = pcp_sstable::parse_internal_key(ik).unwrap();
            let idx: usize = std::str::from_utf8(&p.user_key[3..])
                .unwrap()
                .parse()
                .unwrap();
            if idx.is_multiple_of(2) {
                assert!(v.starts_with(b"new-"), "key {idx} must be rewritten");
            } else {
                assert!(v.starts_with(b"old-"), "key {idx} must survive");
            }
        }
    }

    #[test]
    fn outputs_respect_max_file_size_and_disjointness() {
        let env = env();
        let upper = build_input(&env, "u.sst", 5000, 1, 1, "x");
        let req = request(&env, vec![upper], vec![]);
        let exec = PipelinedExec::pcp(64 << 10);
        let outputs = exec.compact(&req).unwrap();
        assert!(outputs.len() > 1, "rotation expected");
        for w in outputs.windows(2) {
            assert!(user_key(&w[0].largest) < user_key(&w[1].smallest));
        }
        let total: u64 = outputs.iter().map(|f| f.entries).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn empty_inputs_produce_no_outputs() {
        let env = env();
        let req = request(&env, vec![], vec![]);
        assert!(PipelinedExec::pcp(64 << 10).compact(&req).unwrap().is_empty());
        assert!(PipelinedExec::scp(64 << 10).compact(&req).unwrap().is_empty());
    }

    #[test]
    fn profile_output_bytes_equal_the_tables_written() {
        let scp = PipelinedExec::scp(64 << 10);
        let pcp = PipelinedExec::pcp(64 << 10);
        for (exec, profile) in [
            (&scp as &dyn CompactionExec, scp.profile()),
            (&pcp, pcp.profile()),
        ] {
            let env = env();
            let upper = build_input(&env, "u.sst", 5000, 1, 1, "x");
            let outputs = exec.compact(&request(&env, vec![upper], vec![])).unwrap();
            assert!(outputs.len() > 1, "several tables, each with index, filter and footer");
            let written: u64 = outputs.iter().map(|f| f.size).sum();
            assert_eq!(profile.snapshot().output_bytes, written, "{}", exec.name());
        }
    }

    #[test]
    fn profile_records_all_seven_steps() {
        let env = env();
        let upper = build_input(&env, "u.sst", 2000, 1, 1, "x");
        let req = request(&env, vec![upper], vec![]);
        let exec = PipelinedExec::pcp(64 << 10);
        exec.compact(&req).unwrap();
        let snap = exec.profile().snapshot();
        for s in crate::profile::Step::ALL {
            assert!(
                snap.time(s) > std::time::Duration::ZERO,
                "step {} unrecorded",
                s.label()
            );
        }
        assert!(snap.subtasks > 1);
        assert_eq!(snap.compactions, 1);
        assert!(snap.entries_in >= 2000);
        assert!(snap.bandwidth() > 0.0);
    }

    /// Every executor publishes a per-compaction occupancy and, with a
    /// trace attached, the start/done lifecycle events.
    #[test]
    fn compaction_publishes_occupancy_and_trace_events() {
        let trace = Arc::new(TraceLog::new(64));
        let exec = PipelinedExec::pcp(64 << 10).with_trace(Arc::clone(&trace));
        let env = env();
        let upper = build_input(&env, "u.sst", 2000, 1, 1, "x");
        let req = request(&env, vec![upper], vec![]);
        exec.compact(&req).unwrap();

        let occ = exec.profile().last_occupancy();
        assert!(occ.read > 0.0 && occ.compute > 0.0 && occ.write > 0.0);
        assert!(occ.read <= 1.0 && occ.compute <= 1.0 && occ.write <= 1.0);
        assert!(occ.wall > std::time::Duration::ZERO);

        let kinds: Vec<&str> = trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["compaction_start", "compaction_done"]);
        let done = &trace.events()[1];
        let field = |k: &str| done.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        assert!(field("outputs") > 0);
        assert!(field("wall_nanos") > 0);
        assert_eq!(field("read_busy_ppm"), (occ.read * 1e6) as u64);
    }

    /// SCP runs its seven steps strictly sequentially, so the three
    /// resource fractions must sum to at most 1.0 exactly.
    #[test]
    fn scp_occupancy_fractions_sum_to_at_most_one() {
        let trace = Arc::new(TraceLog::new(8));
        let exec = PipelinedExec::scp(32 << 10).with_trace(Arc::clone(&trace));
        let env = env();
        let upper = build_input(&env, "u.sst", 2000, 1, 1, "x");
        let req = request(&env, vec![upper], vec![]);
        exec.compact(&req).unwrap();
        let occ = exec.profile().last_occupancy();
        assert!(occ.read > 0.0 && occ.compute > 0.0 && occ.write > 0.0);
        assert!(
            occ.read + occ.compute + occ.write <= 1.0 + 1e-6,
            "sequential executor busy time exceeded wall time: {occ:?}"
        );
        assert_eq!(trace.events()[0].kind, "compaction_start");
    }

    #[test]
    fn executor_names() {
        assert_eq!(PipelinedExec::scp(1 << 20).name(), "scp");
        assert_eq!(PipelinedExec::default().name(), "adaptive");
        assert_eq!(PipelinedExec::pcp(1 << 20).name(), "pcp");
        assert_eq!(PipelinedExec::c_ppcp(1 << 20, 4).name(), "c-ppcp");
        assert_eq!(PipelinedExec::s_ppcp(1 << 20, 4).name(), "s-ppcp");
    }

    /// The `compaction_start` of one compaction of `exec` under `grant`.
    fn start_widths(
        exec: PipelinedExec,
        history: Option<(f64, f64, f64)>,
        grant: pcp_compaction::ResourceGrant,
    ) -> (u64, u64) {
        let trace = Arc::new(TraceLog::new(8));
        let exec = exec.with_trace(Arc::clone(&trace));
        if let Some((read, compute, write)) = history {
            let wall = std::time::Duration::from_millis(100);
            exec.profile().set_last_occupancy(&Occupancy { read, compute, write, wall });
        }
        let env = env();
        let upper = build_input(&env, "u.sst", 2000, 1, 1, "x");
        let mut req = request(&env, vec![upper], vec![]);
        req.grant = grant;
        exec.compact(&req).unwrap();
        let events = trace.events();
        let start = events.iter().find(|e| e.kind == "compaction_start").unwrap();
        let field = |k: &str| start.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        (field("read_workers"), field("compute_workers"))
    }

    /// A scheduler grant narrows the pipeline that runs, not only what
    /// `clamp_workers` and `compute_width` return in isolation.
    #[test]
    fn grant_narrows_the_pipeline_that_runs() {
        use pcp_compaction::ResourceGrant;
        let one = ResourceGrant::new(1);
        assert_eq!(start_widths(PipelinedExec::c_ppcp(64 << 10, 4), None, one), (1, 1));
        // A compute-bound history asks for C-PPCP(4); two tokens allow 2.
        let two = ResourceGrant::new(2);
        let adaptive = PipelinedExec::adaptive(64 << 10, 4);
        assert_eq!(start_widths(adaptive, Some((0.2, 0.95, 0.2)), two), (1, 2));
    }

    /// The adaptive shape widens the compute stage only: a read-bound
    /// history runs as PCP however many tokens the grant holds.
    #[test]
    fn adaptive_shape_widens_compute_and_never_read() {
        use pcp_compaction::ResourceGrant;
        let adaptive = || PipelinedExec::adaptive(64 << 10, 3);
        let unlimited = ResourceGrant::unlimited;
        assert_eq!(start_widths(adaptive(), Some((0.95, 0.4, 0.3)), unlimited()), (1, 1));
        assert_eq!(start_widths(adaptive(), Some((0.4, 0.95, 0.3)), unlimited()), (1, 3));
        assert_eq!(start_widths(adaptive(), None, unlimited()), (1, 1));
    }

    /// A permanent write failure mid-compaction must terminate every stage
    /// thread (no deadlock on the bounded queues), surface the error, leave
    /// no orphan output tables behind and say how many it swept.
    #[test]
    fn write_failure_terminates_cleanly_and_sweeps_orphans() {
        use pcp_storage::{FaultEnv, FaultKind, FaultOp};
        for exec in [
            PipelinedExec::scp(16 << 10),
            PipelinedExec::pcp(16 << 10),
            PipelinedExec::c_ppcp(16 << 10, 3),
            PipelinedExec::s_ppcp(16 << 10, 3),
            PipelinedExec::new(PipelineConfig {
                subtask_bytes: 16 << 10,
                deep_compute: true,
                ..Default::default()
            }),
        ] {
            let inner = env();
            let upper = build_input(&inner, "u.sst", 3000, 100_000, 2, "new");
            let lower = build_input(&inner, "l.sst", 3000, 1, 3, "old");
            // Inputs were opened on the inner env, so only output writes
            // go through the fault wrapper; every output flush fails while
            // upstream stages still have sub-tasks in flight.
            let fault = FaultEnv::new(Arc::clone(&inner), 33);
            fault.set_probability(FaultOp::Flush, 1.0);
            fault.set_probabilistic_kind(FaultKind::Permanent);
            let mut req = request(&inner, vec![upper], vec![lower]);
            req.tables = Arc::new(TableCache::new(Arc::new(fault)));
            let trace = Arc::new(TraceLog::new(8));
            let exec = exec.with_trace(Arc::clone(&trace));
            let out = exec.compact(&req);
            assert!(out.is_err(), "{}: fault must surface", exec.name());
            let events = trace.events();
            let failed = events.iter().find(|e| e.kind == "compaction_failed").unwrap();
            // The table whose first flush failed.
            assert_eq!(failed.fields, [("swept_outputs", 1)], "{}", exec.name());
            let left = inner.list().unwrap();
            assert_eq!(
                {
                    let mut l = left.clone();
                    l.sort();
                    l
                },
                vec!["l.sst".to_string(), "u.sst".to_string()],
                "{}: orphan outputs must be swept, found {left:?}",
                exec.name()
            );
        }
    }

    /// A transient fault window makes an attempt fail, but re-running the
    /// same request succeeds and produces output identical to a fault-free
    /// run — the driver-level retry contract.
    #[test]
    fn retry_after_transient_fault_matches_clean_run() {
        use pcp_storage::{FaultEnv, FaultKind, FaultOp};
        let n = 2000;
        let (clean, _) = run_exec(&PipelinedExec::pcp(32 << 10), n);

        let inner = env();
        let upper = build_input(&inner, "u.sst", n, 100_000, 2, "new");
        let lower = build_input(&inner, "l.sst", n, 1, 3, "old");
        let fault = FaultEnv::new(Arc::clone(&inner), 5);
        fault.schedule(FaultOp::Flush, 2, FaultKind::Transient);
        let mut req = request(&inner, vec![upper], vec![lower]);
        req.tables = Arc::new(TableCache::new(Arc::new(fault.clone())));
        let exec = PipelinedExec::pcp(32 << 10);
        assert!(exec.compact(&req).is_err(), "first attempt hits the fault");
        assert_eq!(fault.stats().transient, 1);
        // The failed attempt swept its partial outputs, so the retry
        // starts from a clean slate (fresh file numbers notwithstanding).
        let outputs = exec.compact(&req).unwrap();
        assert_eq!(read_everything(&inner, &outputs), clean);
    }

    #[test]
    fn tombstones_dropped_at_bottom_via_pipeline() {
        let env = env();
        // Upper: tombstones for every key in lower.
        let f = env.create("u.sst").unwrap();
        let mut b = TableBuilder::new(f, TableBuilderOptions::default());
        for i in 0..500 {
            let ik = make_internal_key(
                format!("key{:06}", i).as_bytes(),
                10_000 + i as u64,
                ValueType::Deletion,
            );
            b.add(&ik, b"").unwrap();
        }
        b.finish().unwrap();
        let upper = Arc::new(TableReader::open(env.open("u.sst").unwrap()).unwrap());
        let lower = build_input(&env, "l.sst", 500, 1, 1, "old");
        let req = request(&env, vec![upper], vec![lower]);
        let outputs = PipelinedExec::pcp(32 << 10).compact(&req).unwrap();
        let all = read_everything(&env, &outputs);
        assert!(all.is_empty(), "everything annihilates at the bottom level");
    }
}
