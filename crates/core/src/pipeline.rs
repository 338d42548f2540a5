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
//!
//! The engine's default is C-PPCP as wide as the host has cores. Eq. 6's
//! `max{t_S1, Σt_S2..6 / k, t_S7}` is never above Eq. 2's
//! `max{t_S1, Σt_S2..6, t_S7}`, and workers that pull whole sub-tasks off
//! one queue sit idle when compute is not the bottleneck, so the only width
//! to decide is how many cores exist. Each compaction's
//! [`pcp_compaction::ResourceGrant`] answers that: it caps every parallel
//! stage.
//!
//! All shapes produce byte-identical output tables for identical inputs
//! (enforced by the cross-executor integration tests).

use crate::planner::{plan_subtasks, read_units, RunBlocks, SubTask};
use crate::profile::{CompactionProfile, Step};
use crate::steps::{compute_subtask, read_unit, ComputeConfig, ComputedSubTask};
use crossbeam::channel::{bounded, Receiver};
use pcp_compaction::{CompactionExec, CompactionRequest, FileMetadata, OutputSink};
use pcp_obs::{TraceKind, TraceLog};
use pcp_sstable::{Result as TableResult, TableReader};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline shape. Defaults correspond to plain PCP with the paper's best
/// sub-task size on SSD (512 KB, Fig. 11a).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target stored bytes per sub-task.
    pub subtask_bytes: u64,
    /// Compute-stage workers (k of C-PPCP).
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
    let readers: Vec<Arc<TableReader>> =
        req.upper.iter().chain(req.lower.iter()).cloned().collect();
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
        SealedWriter {
            sink: req.output_sink(),
            profile,
            sealed_bytes: 0,
        }
    }

    /// Appends one computed sub-task (S7) and flushes it to the device.
    pub fn write_subtask(&mut self, st: ComputedSubTask) -> TableResult<()> {
        let t0 = Instant::now();
        let mut appended = 0u64;
        for sb in st.blocks {
            appended += sb.raw.len() as u64;
            let (first_key, last_key) = (sb.block.first_key.clone(), sb.block.last_key.clone());
            self.sink
                .append(&first_key, &last_key, |b| b.add_sealed_block(sb))?;
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
        self.profile
            .add_output_bytes(written.saturating_sub(self.sealed_bytes));
        Ok(outputs)
    }

    /// Deletes every output file created; see [`OutputSink::abort`].
    pub fn abort(&mut self) -> usize {
        self.sink.abort()
    }
}

/// The compaction executor: SCP, PCP and both parallel variants, by
/// shape.
pub struct PipelinedExec {
    cfg: PipelineConfig,
    /// S1…S7 inline on the calling thread (SCP) rather than three stages
    /// of the configured widths (PCP, S-/C-PPCP, `pcp-deep`).
    sequential: bool,
    profile: Arc<CompactionProfile>,
    trace: Option<Arc<TraceLog>>,
}

impl PipelinedExec {
    fn with_shape(cfg: PipelineConfig, sequential: bool) -> PipelinedExec {
        assert!(cfg.compute_workers >= 1 && cfg.read_workers >= 1);
        assert!(cfg.queue_depth >= 1);
        PipelinedExec {
            cfg,
            sequential,
            profile: Arc::new(CompactionProfile::new()),
            trace: None,
        }
    }

    /// Builds a pipelined executor with explicit fixed widths.
    pub fn new(cfg: PipelineConfig) -> PipelinedExec {
        PipelinedExec::with_shape(cfg, false)
    }

    /// The sequential baseline (paper §III-A); `subtask_bytes` is simply
    /// the I/O granularity.
    pub fn scp(subtask_bytes: u64) -> PipelinedExec {
        let cfg = PipelineConfig {
            subtask_bytes,
            ..Default::default()
        };
        PipelinedExec::with_shape(cfg, true)
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

    /// Attaches a trace log; the executor emits `compaction_start` /
    /// `compaction_done` / `compaction_failed` lifecycle events into it.
    pub fn with_trace(mut self, trace: Arc<TraceLog>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The step profile.
    pub fn profile(&self) -> Arc<CompactionProfile> {
        Arc::clone(&self.profile)
    }

    fn record(&self, kind: TraceKind, fields: &[(&'static str, u64)]) {
        if let Some(t) = &self.trace {
            t.record(kind, fields);
        }
    }
}

/// The engine's production default: C-PPCP with the paper's best sub-task
/// size (512 KB, Fig. 11a), as wide as the host has cores — the paper's
/// C-PPCP argument. Each compaction runs it at most as wide as its grant.
impl Default for PipelinedExec {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        PipelinedExec::c_ppcp(512 << 10, cores)
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

/// A stage's blocking receive, which asks the lock witness first; `None`
/// once the queue is drained and every sender is gone.
#[track_caller]
fn recv<T>(rx: &Receiver<T>) -> Option<T> {
    pcp_storage::blocking::wait("channel recv", || rx.recv().ok())
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
        let Job {
            readers,
            runs,
            plan,
            ccfg,
            profile,
        } = self;
        let (read_tx, read_rx) = bounded::<TableResult<crate::steps::SubTaskData>>(cfg.queue_depth);
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
                        while let Some(item) = recv(&read_rx) {
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
                    while let Some(item) = recv(&dec_rx) {
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
                        while let Some(item) = recv(&mrg_rx) {
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
                        while let Some(item) = recv(&read_rx) {
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
                while let Some(item) = recv(&comp_rx) {
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
            debug_assert!(
                result.is_err() || next == plan.len(),
                "all sub-tasks written"
            );
            result
        })
    }
}

impl CompactionExec for PipelinedExec {
    fn name(&self) -> &'static str {
        if self.sequential {
            return "scp";
        }
        if self.cfg.deep_compute {
            return "pcp-deep";
        }
        match (self.cfg.read_workers, self.cfg.compute_workers) {
            (1, 1) => "pcp",
            (_, 1) => "s-ppcp",
            (1, _) => "c-ppcp",
            _ => "sc-ppcp",
        }
    }

    /// Registers the profile under `exec = name()`.
    fn register_metrics(&self, registry: &pcp_obs::Registry) {
        self.profile.register_metrics(registry, self.name());
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
        let widths = (!self.sequential).then(|| {
            (
                req.grant.clamp_workers(self.cfg.read_workers),
                req.grant.clamp_workers(self.cfg.compute_workers),
            )
        });
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
        self.record(TraceKind::CompactionStart, &start);

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
                // are serialized (one `Db`; a `ShardedDb` shares one
                // executor, and so one profile, across its shards).
                let occ = self.profile.snapshot().delta(&before).occupancy();
                self.profile.set_last_occupancy(&occ);
                self.record(
                    TraceKind::CompactionDone,
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
                self.record(
                    TraceKind::CompactionFailed,
                    &[("swept_outputs", swept as u64)],
                );
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tag.len() as u64) << 32;
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

    fn request(
        env: &EnvRef,
        upper: Vec<Arc<TableReader>>,
        lower: Vec<Arc<TableReader>>,
    ) -> CompactionRequest {
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
        assert!(PipelinedExec::pcp(64 << 10)
            .compact(&req)
            .unwrap()
            .is_empty());
        assert!(PipelinedExec::scp(64 << 10)
            .compact(&req)
            .unwrap()
            .is_empty());
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
            assert!(
                outputs.len() > 1,
                "several tables, each with index, filter and footer"
            );
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

        let kinds: Vec<&str> = trace.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["compaction_start", "compaction_done"]);
        let done = &trace.events()[1];
        let field = |k: &str| done.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        assert!(field("outputs") > 0);
        assert!(field("wall_nanos") > 0);
        for stage in ["read_busy_ppm", "compute_busy_ppm", "write_busy_ppm"] {
            let ppm = field(stage);
            assert!((1..=1_000_000).contains(&ppm), "{stage} {ppm}");
        }

        // The gauge publishes the same occupancy the done event carries.
        let registry = pcp_obs::Registry::new();
        exec.register_metrics(&registry);
        let gauge = registry.snapshot().gauge(
            "pcp_compaction_last_occupancy",
            &[("exec", "pcp"), ("stage", "read")],
        );
        assert_eq!((gauge * 1e6) as u64, field("read_busy_ppm"));
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
        let events = trace.events();
        assert_eq!(events[0].kind, "compaction_start");
        let done = &events[1];
        let field = |k: &str| done.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        let busy = ["read_busy_ppm", "compute_busy_ppm", "write_busy_ppm"].map(field);
        assert!(busy.iter().all(|&ppm| ppm > 0), "{busy:?}");
        assert!(
            busy.iter().sum::<u64>() <= 1_000_001,
            "sequential executor busy time exceeded wall time: {busy:?} ppm"
        );
    }

    #[test]
    fn executor_names() {
        assert_eq!(PipelinedExec::scp(1 << 20).name(), "scp");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let default = if cores > 1 { "c-ppcp" } else { "pcp" };
        assert_eq!(PipelinedExec::default().name(), default);
        assert_eq!(PipelinedExec::pcp(1 << 20).name(), "pcp");
        assert_eq!(PipelinedExec::c_ppcp(1 << 20, 4).name(), "c-ppcp");
        assert_eq!(PipelinedExec::s_ppcp(1 << 20, 4).name(), "s-ppcp");
    }

    /// The `compaction_start` of one compaction of `exec` under `grant`.
    fn start_widths(exec: PipelinedExec, grant: pcp_compaction::ResourceGrant) -> (u64, u64) {
        let trace = Arc::new(TraceLog::new(8));
        let exec = exec.with_trace(Arc::clone(&trace));
        let env = env();
        let upper = build_input(&env, "u.sst", 2000, 1, 1, "x");
        let mut req = request(&env, vec![upper], vec![]);
        req.grant = grant;
        exec.compact(&req).unwrap();
        let events = trace.events();
        let start = events
            .iter()
            .find(|e| e.kind == "compaction_start")
            .unwrap();
        let field = |k: &str| start.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        (field("read_workers"), field("compute_workers"))
    }

    /// A scheduler grant narrows the pipeline that runs, not only what
    /// `clamp_workers` returns in isolation.
    #[test]
    fn grant_narrows_the_pipeline_that_runs() {
        use pcp_compaction::ResourceGrant;
        let c_ppcp = || PipelinedExec::c_ppcp(64 << 10, 4);
        assert_eq!(start_widths(c_ppcp(), ResourceGrant::unlimited()), (1, 4));
        assert_eq!(start_widths(c_ppcp(), ResourceGrant::new(2)), (1, 2));
        assert_eq!(start_widths(c_ppcp(), ResourceGrant::new(1)), (1, 1));
        let s_ppcp = PipelinedExec::s_ppcp(64 << 10, 3);
        assert_eq!(start_widths(s_ppcp, ResourceGrant::new(2)), (2, 1));
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
            let failed = events
                .iter()
                .find(|e| e.kind == "compaction_failed")
                .unwrap();
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
