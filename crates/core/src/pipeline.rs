//! The compaction executors (paper §III).
//!
//! * [`ScpExec`] — the **Sequential Compaction Procedure**: sub-tasks are
//!   processed one after another, the seven steps strictly in order, on one
//!   thread. Either the disk or the CPU is busy at any instant, never both
//!   (Fig. 3).
//! * [`PipelinedExec`] — the **Pipelined Compaction Procedure** and its
//!   parallel variants, configured by [`PipelineConfig`]:
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
//! All executors implement [`pcp_compaction::CompactionExec`] and produce
//! byte-identical output tables for identical inputs (enforced by the
//! cross-executor integration tests).

use crate::planner::{plan_subtasks, read_units, RunBlocks};
use crate::profile::{CompactionProfile, Occupancy, ProfileSnapshot, Step};
use crate::steps::{compute_subtask, read_unit, ComputeConfig, ComputedSubTask};
use crossbeam::channel::bounded;
use pcp_compaction::{CompactionExec, CompactionRequest, FileMetadata};
use pcp_compaction::filename::table_file;
use pcp_obs::TraceLog;
use pcp_sstable::key::user_key;
use pcp_sstable::{Result as TableResult, TableBuilder, TableReader};
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

/// Shared per-compaction bookkeeping for both executors: publishes the
/// occupancy of the compaction that just finished (computed as the
/// profile delta over its wall time — the Fig. 5 quantity) and emits the
/// `compaction_done` trace event. When several compactions share one
/// profile concurrently the delta attributes overlapping step time to
/// whichever finishes last; occupancies are exact whenever compactions on
/// a profile are serialized (the common case: one executor per DB).
fn finish_compaction(
    profile: &CompactionProfile,
    before: &ProfileSnapshot,
    trace: Option<&TraceLog>,
    outputs: usize,
) -> Occupancy {
    let occ = profile.snapshot().delta(before).occupancy();
    profile.set_last_occupancy(&occ);
    if let Some(t) = trace {
        t.record(
            "compaction_done",
            &[
                ("outputs", outputs as u64),
                ("wall_nanos", occ.wall.as_nanos() as u64),
                ("read_busy_ppm", (occ.read * 1e6) as u64),
                ("compute_busy_ppm", (occ.compute * 1e6) as u64),
                ("write_busy_ppm", (occ.write * 1e6) as u64),
            ],
        );
    }
    occ
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

/// Step S7 owner: appends sealed blocks to size-rotated output tables.
/// One [`SealedWriter::write_subtask`] call flushes once — one write I/O
/// per sub-task, the unit the paper schedules on the disk.
pub struct SealedWriter<'req> {
    req: &'req CompactionRequest,
    profile: &'req CompactionProfile,
    builder: Option<(u64, TableBuilder)>,
    /// Sealed-block bytes appended to the current table, already counted
    /// as output; `finish_current` counts the rest of the file.
    table_sealed_bytes: u64,
    smallest: Vec<u8>,
    last_user_key: Vec<u8>,
    outputs: Vec<Arc<FileMetadata>>,
    /// Numbers of outputs whose finish failed, pending abort cleanup.
    aborted_numbers: Vec<u64>,
}

impl<'req> SealedWriter<'req> {
    /// Creates a writer for `req`'s output level.
    pub fn new(req: &'req CompactionRequest, profile: &'req CompactionProfile) -> Self {
        SealedWriter {
            req,
            profile,
            builder: None,
            table_sealed_bytes: 0,
            smallest: Vec::new(),
            last_user_key: Vec::new(),
            outputs: Vec::new(),
            aborted_numbers: Vec::new(),
        }
    }

    /// Appends one computed sub-task (S7) and flushes it to the device.
    pub fn write_subtask(&mut self, st: ComputedSubTask) -> TableResult<()> {
        let t0 = Instant::now();
        let mut appended = 0u64;
        for sb in &st.blocks {
            let rotate = self
                .builder
                .as_ref()
                .is_some_and(|(_, b)| b.estimated_size() >= self.req.max_output_bytes)
                && user_key(&sb.first_key) != self.last_user_key.as_slice();
            if rotate {
                self.finish_current()?;
            }
            let b = match &mut self.builder {
                Some((_, b)) => b,
                None => {
                    let number = self.req.next_file_number();
                    let file = self.req.env.create(&table_file(number))?;
                    self.table_sealed_bytes = 0;
                    self.smallest = sb.first_key.clone();
                    let table = TableBuilder::new(file, self.req.table_opts.clone());
                    &mut self.builder.insert((number, table)).1
                }
            };
            b.add_sealed_block(
                &sb.raw,
                &sb.first_key,
                &sb.last_key,
                sb.entries,
                sb.raw_len,
                &sb.bloom_hashes,
            )?;
            appended += sb.raw.len() as u64;
            self.table_sealed_bytes += sb.raw.len() as u64;
            self.last_user_key.clear();
            self.last_user_key.extend_from_slice(user_key(&sb.last_key));
        }
        if let Some((_, b)) = &mut self.builder {
            b.flush_io()?;
        }
        self.profile.record(Step::Write, t0.elapsed());
        self.profile.add_output_bytes(appended);
        self.profile.add_subtasks(1);
        Ok(())
    }

    fn finish_current(&mut self) -> TableResult<()> {
        if let Some((number, builder)) = self.builder.take() {
            let largest = builder.last_key().to_vec();
            let stats = match builder.finish() {
                Ok(stats) => stats,
                Err(e) => {
                    // The half-written table is already an orphan; remember
                    // it so abort() can sweep it.
                    self.aborted_numbers.push(number);
                    return Err(e);
                }
            };
            // Index/filter/footer bytes beyond the sealed data blocks.
            self.profile
                .add_output_bytes(stats.file_size.saturating_sub(self.table_sealed_bytes));
            self.outputs.push(Arc::new(FileMetadata {
                number,
                size: stats.file_size,
                entries: stats.entries,
                smallest: std::mem::take(&mut self.smallest),
                largest,
            }));
        }
        Ok(())
    }

    /// Finishes the trailing table; returns outputs in key order. On error
    /// the writer still owns every created file — call
    /// [`SealedWriter::abort`] to sweep them.
    pub fn finish(&mut self) -> TableResult<Vec<Arc<FileMetadata>>> {
        let t0 = Instant::now();
        self.finish_current()?;
        self.profile.record(Step::Write, t0.elapsed());
        Ok(std::mem::take(&mut self.outputs))
    }

    /// Deletes every output file this writer created (the in-progress
    /// table and all finished ones). Called when the compaction fails so
    /// partial outputs never outlive the attempt. Best-effort: a file
    /// whose delete fails (e.g. the env already crashed) is left for the
    /// database's orphan scan. Returns how many files were deleted.
    pub fn abort(&mut self) -> usize {
        if let Some((number, builder)) = self.builder.take() {
            drop(builder); // close the file handle before unlinking
            self.aborted_numbers.push(number);
        }
        let numbers = self
            .aborted_numbers
            .drain(..)
            .chain(self.outputs.drain(..).map(|m| m.number));
        let mut deleted = 0;
        for number in numbers {
            if self.req.env.delete(&table_file(number)).is_ok() {
                deleted += 1;
            }
        }
        deleted
    }
}

// ---------------------------------------------------------------------------
// SCP
// ---------------------------------------------------------------------------

/// The sequential baseline (paper §III-A).
pub struct ScpExec {
    /// Sub-task size: in SCP this is simply the I/O granularity.
    pub subtask_bytes: u64,
    profile: Arc<CompactionProfile>,
    trace: Option<Arc<TraceLog>>,
}

impl ScpExec {
    /// SCP with the given I/O granularity.
    pub fn new(subtask_bytes: u64) -> ScpExec {
        ScpExec {
            subtask_bytes,
            profile: Arc::new(CompactionProfile::new()),
            trace: None,
        }
    }

    /// Attaches a trace log; the executor emits `compaction_start` /
    /// `compaction_done` / `compaction_failed` lifecycle events into it.
    pub fn with_trace(mut self, trace: Arc<TraceLog>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Replaces the step profile with a shared one, so several executors
    /// (e.g. the shapes inside [`crate::AdaptiveExec`]) account into the
    /// same occupancy history.
    pub fn with_profile(mut self, profile: Arc<CompactionProfile>) -> Self {
        self.profile = profile;
        self
    }

    /// Shared step profile.
    pub fn profile(&self) -> Arc<CompactionProfile> {
        Arc::clone(&self.profile)
    }
}

impl Default for ScpExec {
    fn default() -> Self {
        ScpExec::new(512 << 10)
    }
}

impl CompactionExec for ScpExec {
    fn name(&self) -> &'static str {
        "scp"
    }

    fn register_metrics(&self, registry: &pcp_obs::Registry) {
        self.profile.register_metrics(registry, self.name());
    }

    fn compact(&self, req: &CompactionRequest) -> TableResult<Vec<Arc<FileMetadata>>> {
        let wall = Instant::now();
        let before = self.profile.snapshot();
        let (readers, runs) = gather_runs(req)?;
        let plan = plan_subtasks(&runs, self.subtask_bytes);
        if let Some(t) = &self.trace {
            t.record(
                "compaction_start",
                &[
                    ("exec", 0), // 0 = scp (see OBSERVABILITY.md)
                    ("inputs", readers.len() as u64),
                    ("subtasks", plan.len() as u64),
                    ("read_units", read_units(&plan).count() as u64),
                ],
            );
        }
        let ccfg = compute_config(req);
        let mut writer = SealedWriter::new(req, &self.profile);
        let result = {
            let mut run = || -> TableResult<Vec<Arc<FileMetadata>>> {
                for unit in read_units(&plan) {
                    // S1 … S7 strictly in order; one resource busy at a time.
                    for data in read_unit(&readers, &runs, unit, &self.profile)? {
                        let computed = compute_subtask(data, &ccfg, &self.profile)?;
                        writer.write_subtask(computed)?;
                    }
                }
                writer.finish()
            };
            run()
        };
        match result {
            Ok(outputs) => {
                self.profile.add_compaction(wall.elapsed());
                finish_compaction(
                    &self.profile,
                    &before,
                    self.trace.as_deref(),
                    outputs.len(),
                );
                Ok(outputs)
            }
            Err(e) => {
                // Sweep partial outputs so a failed compaction leaves no
                // orphan tables behind.
                let swept = writer.abort();
                if let Some(t) = &self.trace {
                    t.record("compaction_failed", &[("swept_outputs", swept as u64)]);
                }
                Err(e)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PCP / C-PPCP / S-PPCP
// ---------------------------------------------------------------------------

/// The pipelined executor (PCP and both parallel variants).
pub struct PipelinedExec {
    cfg: PipelineConfig,
    profile: Arc<CompactionProfile>,
    trace: Option<Arc<TraceLog>>,
}

impl PipelinedExec {
    /// Builds an executor with an explicit shape.
    pub fn new(cfg: PipelineConfig) -> PipelinedExec {
        assert!(cfg.compute_workers >= 1 && cfg.read_workers >= 1);
        assert!(cfg.queue_depth >= 1);
        PipelinedExec {
            cfg,
            profile: Arc::new(CompactionProfile::new()),
            trace: None,
        }
    }

    /// Attaches a trace log; the executor emits `compaction_start` /
    /// `compaction_done` / `compaction_failed` lifecycle events into it.
    pub fn with_trace(mut self, trace: Arc<TraceLog>) -> Self {
        self.trace = Some(trace);
        self
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

    /// Replaces the step profile with a shared one, so several executors
    /// (e.g. the shapes inside [`crate::AdaptiveExec`]) account into the
    /// same occupancy history.
    pub fn with_profile(mut self, profile: Arc<CompactionProfile>) -> Self {
        self.profile = profile;
        self
    }

    /// Shared step profile.
    pub fn profile(&self) -> Arc<CompactionProfile> {
        Arc::clone(&self.profile)
    }

    /// The configured shape.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }
}

impl CompactionExec for PipelinedExec {
    fn name(&self) -> &'static str {
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
        // The scheduler's grant caps how wide the parallel stages may run
        // this time; an unlimited grant leaves the configured shape alone.
        let read_workers = req.grant.clamp_workers(self.cfg.read_workers);
        let compute_workers = req.grant.clamp_workers(self.cfg.compute_workers);
        if let Some(t) = &self.trace {
            t.record(
                "compaction_start",
                &[
                    ("exec", 1), // 1 = pipelined (see OBSERVABILITY.md)
                    ("inputs", readers.len() as u64),
                    ("subtasks", plan.len() as u64),
                    ("read_units", read_units(&plan).count() as u64),
                    ("read_workers", read_workers as u64),
                    ("compute_workers", compute_workers as u64),
                ],
            );
        }
        debug_assert_eq!(
            crate::planner::check_plan(&runs, &plan, self.cfg.subtask_bytes),
            Ok(())
        );
        let ccfg = compute_config(req);
        let profile = &*self.profile;

        let (read_tx, read_rx) = bounded::<TableResult<crate::steps::SubTaskData>>(
            self.cfg.queue_depth,
        );
        let (comp_tx, comp_rx) =
            bounded::<TableResult<ComputedSubTask>>(self.cfg.queue_depth);

        let mut result: TableResult<Vec<Arc<FileMetadata>>> = Ok(Vec::new());
        let mut swept = 0;
        std::thread::scope(|scope| {
            // Stage read: `read_workers` lanes, read units round-robin; a
            // unit's sub-tasks enter the pipeline one by one.
            for lane in 0..read_workers {
                let read_tx = read_tx.clone();
                let (readers, runs, plan) = (&readers, &runs, &plan);
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

            if self.cfg.deep_compute {
                // Five-stage variant: S2+S3 | S4 | S5+S6 on three chained
                // threads (the paper's rejected design, for the ablation).
                let (dec_tx, dec_rx) =
                    bounded::<TableResult<crate::steps::DecodedSubTask>>(self.cfg.queue_depth);
                let (mrg_tx, mrg_rx) =
                    bounded::<TableResult<crate::steps::MergedSubTask>>(self.cfg.queue_depth);
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
                {
                    let ccfg = &ccfg;
                    scope.spawn(move || {
                        while let Ok(item) = dec_rx.recv() {
                            let out = item
                                .and_then(|dec| crate::steps::merge_subtask(dec, ccfg, profile));
                            let failed = out.is_err();
                            if mrg_tx.send(out).is_err() || failed {
                                return;
                            }
                        }
                    });
                }
                {
                    let comp_tx = comp_tx.clone();
                    let ccfg = &ccfg;
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
                    let ccfg = &ccfg;
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
            let mut writer = SealedWriter::new(req, profile);
            let mut pending: BTreeMap<usize, ComputedSubTask> = BTreeMap::new();
            let mut next = 0usize;
            let mut failure: Option<pcp_sstable::TableError> = None;
            for item in comp_rx.iter() {
                match item {
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                    Ok(st) => {
                        pending.insert(st.index, st);
                        while let Some(st) = pending.remove(&next) {
                            if let Err(e) = writer.write_subtask(st) {
                                failure = Some(e);
                                break;
                            }
                            next += 1;
                        }
                        if failure.is_some() {
                            break;
                        }
                    }
                }
            }
            // Shut the pipeline down before the scope joins the stage
            // threads: dropping the tail receiver makes every upstream
            // `send` fail, which unwinds read and compute workers that
            // would otherwise block forever on a full bounded queue.
            drop(comp_rx);
            result = match failure {
                Some(e) => {
                    swept = writer.abort();
                    Err(e)
                }
                None => {
                    debug_assert_eq!(next, plan.len(), "all sub-tasks written");
                    let out = writer.finish();
                    if out.is_err() {
                        swept = writer.abort();
                    }
                    out
                }
            };
        });
        match &result {
            Ok(outputs) => {
                self.profile.add_compaction(wall.elapsed());
                finish_compaction(
                    &self.profile,
                    &before,
                    self.trace.as_deref(),
                    outputs.len(),
                );
            }
            Err(_) => {
                if let Some(t) = &self.trace {
                    t.record("compaction_failed", &[("swept_outputs", swept as u64)]);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_compaction::filename::table_file;
    use pcp_sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
    use pcp_sstable::{KvIter, TableBuilderOptions};
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
            env: Arc::clone(env),
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
        let (scp, scp_files) = run_exec(&ScpExec::new(64 << 10), n);
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
        assert!(ScpExec::new(64 << 10).compact(&req).unwrap().is_empty());
    }

    #[test]
    fn profile_output_bytes_equal_the_tables_written() {
        let scp = ScpExec::new(64 << 10);
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
        let exec = ScpExec::new(32 << 10).with_trace(Arc::clone(&trace));
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
        assert_eq!(ScpExec::default().name(), "scp");
        assert_eq!(PipelinedExec::pcp(1 << 20).name(), "pcp");
        assert_eq!(PipelinedExec::c_ppcp(1 << 20, 4).name(), "c-ppcp");
        assert_eq!(PipelinedExec::s_ppcp(1 << 20, 4).name(), "s-ppcp");
    }

    /// A scheduler grant narrows the pipeline that runs, not only what
    /// `clamp_workers` and `AdaptiveExec::choose` return in isolation.
    #[test]
    fn grant_narrows_the_pipeline_that_runs() {
        use crate::adaptive::{AdaptiveConfig, AdaptiveExec};
        use pcp_compaction::ResourceGrant;
        // Compute workers in the `compaction_start` of one compaction run
        // under a grant of `tokens`.
        let compute_workers = |exec: &dyn CompactionExec, trace: &TraceLog, tokens: usize| {
            let env = env();
            let upper = build_input(&env, "u.sst", 2000, 1, 1, "x");
            let mut req = request(&env, vec![upper], vec![]);
            req.grant = ResourceGrant::new(None, tokens);
            exec.compact(&req).unwrap();
            let events = trace.events();
            let start = events.iter().find(|e| e.kind == "compaction_start").unwrap();
            start.fields.iter().find(|(k, _)| *k == "compute_workers").unwrap().1
        };

        let trace = Arc::new(TraceLog::new(8));
        let fixed = PipelinedExec::c_ppcp(64 << 10, 4).with_trace(Arc::clone(&trace));
        assert_eq!(compute_workers(&fixed, &trace, 1), 1);

        let trace = Arc::new(TraceLog::new(8));
        let cfg = AdaptiveConfig { max_workers: 4, ..AdaptiveConfig::default() };
        let adaptive = AdaptiveExec::new(cfg).with_trace(Arc::clone(&trace));
        // A compute-bound history asks for C-PPCP(4); two tokens allow 2.
        adaptive.profile().set_last_occupancy(&Occupancy {
            read: 0.2,
            compute: 0.95,
            write: 0.2,
            wall: std::time::Duration::from_millis(100),
        });
        assert_eq!(compute_workers(&adaptive, &trace, 2), 2);
    }

    /// A permanent write failure mid-compaction must terminate every stage
    /// thread (no deadlock on the bounded queues), surface the error, leave
    /// no orphan output tables behind and say how many it swept.
    #[test]
    fn write_failure_terminates_cleanly_and_sweeps_orphans() {
        use pcp_storage::{FaultEnv, FaultKind, FaultOp};
        for exec in [
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
            req.env = Arc::new(fault);
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

    /// SCP gets the same abort-and-sweep treatment as the pipeline.
    #[test]
    fn scp_write_failure_sweeps_orphans() {
        use pcp_storage::{FaultEnv, FaultKind, FaultOp};
        let inner = env();
        let upper = build_input(&inner, "u.sst", 3000, 1, 1, "x");
        let fault = FaultEnv::new(Arc::clone(&inner), 7);
        fault.schedule(FaultOp::Flush, 3, FaultKind::Permanent);
        let mut req = request(&inner, vec![upper], vec![]);
        req.env = Arc::new(fault);
        assert!(ScpExec::new(16 << 10).compact(&req).is_err());
        assert_eq!(inner.list().unwrap(), vec!["u.sst".to_string()]);
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
        req.env = Arc::new(fault.clone());
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
