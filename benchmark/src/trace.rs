//! The benchmark's own tracer: spans and counts taken from outside the
//! engine, at the three places a caller can stand — around public calls on
//! the client thread, in a wrapper `Env` under the engine, and in a wrapper
//! `CompactionExec` around the engine's executor.
//!
//! Every call adds to a per-kind count / time / bytes accumulator. A full
//! span is kept for one client operation in [`SAMPLE_EVERY`] (chosen by
//! operation index, so the same operations are sampled on every run of a
//! seed) with everything it caused on its own thread, for one background
//! `Env` call in [`SAMPLE_EVERY`] per thread, and for every compaction.
//!
//! The client thread publishes its request in a thread-local, which is how
//! the `Env` wrapper knows that a read is a foreground read and which span
//! is its parent. Background and server-side threads carry request 0:
//! request ids inside the engine are a later change to the engine itself.

use bytes::Bytes;
use pcp::compaction::{CompactionExec, CompactionRequest, FileMetadata};
use pcp::storage::{Env, RandomReadFile, ReadClass, WritableFile};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const SAMPLE_EVERY: u64 = 64;

/// What a span or an accumulator measures; the name's prefix is the layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    ShardRequest,
    LsmPut,
    LsmGet,
    LsmScan,
    LsmWaitIdle,
    CoreCompact,
    /// Calls on `*.log` files.
    StorageWal,
    /// Calls on `*.sst` files open for writing.
    StorageTableWrite,
    /// Reads issued on the client thread inside a `get`.
    StorageGetRead,
    /// Reads issued on the client thread inside a scan.
    StorageScanRead,
    /// Reads issued on any other thread: compaction, and the server's
    /// workers (which carry no request id yet).
    StorageBgRead,
    /// Reads the scan readahead stage tagged as speculative.
    StorageReadahead,
    /// `MANIFEST-*`, `CURRENT` and its temporary.
    StorageManifest,
}

impl Kind {
    pub const ALL: [Kind; 13] = [
        Kind::ShardRequest,
        Kind::LsmPut,
        Kind::LsmGet,
        Kind::LsmScan,
        Kind::LsmWaitIdle,
        Kind::CoreCompact,
        Kind::StorageWal,
        Kind::StorageTableWrite,
        Kind::StorageGetRead,
        Kind::StorageScanRead,
        Kind::StorageBgRead,
        Kind::StorageReadahead,
        Kind::StorageManifest,
    ];
    const COUNT: usize = Kind::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Kind::ShardRequest => "shard.request",
            Kind::LsmPut => "lsm.put",
            Kind::LsmGet => "lsm.get",
            Kind::LsmScan => "lsm.scan",
            Kind::LsmWaitIdle => "lsm.wait_idle",
            Kind::CoreCompact => "core.compact",
            Kind::StorageWal => "storage.wal",
            Kind::StorageTableWrite => "storage.table_write",
            Kind::StorageGetRead => "storage.get_read",
            Kind::StorageScanRead => "storage.scan_read",
            Kind::StorageBgRead => "storage.bg_read",
            Kind::StorageReadahead => "storage.readahead",
            Kind::StorageManifest => "storage.manifest",
        }
    }

    fn of_written_file(name: &str) -> Kind {
        if name.ends_with(".log") {
            Kind::StorageWal
        } else if name.ends_with(".sst") {
            Kind::StorageTableWrite
        } else {
            Kind::StorageManifest
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// Operation index + 1 on a client thread; 0 elsewhere.
    pub req: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals over every call of one kind, sampled or not.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    /// The calls that reach the device: flush, sync, close and reads.
    /// `append` only buffers (the `WritableFile` contract).
    pub device_calls: u64,
    pub nanos: u64,
    pub bytes: u64,
}

impl Totals {
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    pub fn mb(&self) -> f64 {
        self.bytes as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct Acc {
    calls: AtomicU64,
    device_calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

/// The thread's current request, as the wrappers below see it.
#[derive(Clone, Copy, Default)]
struct Ctx {
    req: u64,
    parent: u64,
    sampled: bool,
    /// The client operation under way, when `req` is not 0.
    scanning: bool,
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx { req: 0, parent: 0, sampled: false, scanning: false }) };
    static BACKGROUND_CALLS: Cell<u64> = const { Cell::new(0) };
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Off during set-up and verification, so the numbers cover the timed
    /// phase only.
    enabled: AtomicBool,
    next_id: AtomicU64,
    acc: [Acc; Kind::COUNT],
    wal_syncs: AtomicU64,
    compaction_output_bytes: AtomicU64,
    /// Time callers spent in calls that reach the device.
    device_call_nanos: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            acc: Default::default(),
            wal_syncs: AtomicU64::new(0),
            compaction_output_bytes: AtomicU64::new(0),
            device_call_nanos: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    pub fn totals(&self, kind: Kind) -> Totals {
        let a = &self.acc[kind as usize];
        Totals {
            calls: a.calls.load(Relaxed),
            device_calls: a.device_calls.load(Relaxed),
            nanos: a.nanos.load(Relaxed),
            bytes: a.bytes.load(Relaxed),
        }
    }

    pub fn wal_syncs(&self) -> u64 {
        self.wal_syncs.load(Relaxed)
    }

    pub fn compaction_output_bytes(&self) -> u64 {
        self.compaction_output_bytes.load(Relaxed)
    }

    pub fn device_call_seconds(&self) -> f64 {
        self.device_call_nanos.load(Relaxed) as f64 / 1e9
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no tracer user panics under the lock")
            .clone()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn add(&self, kind: Kind, elapsed: Duration, bytes: u64, device: bool) {
        let a = &self.acc[kind as usize];
        a.calls.fetch_add(1, Relaxed);
        a.nanos.fetch_add(elapsed.as_nanos() as u64, Relaxed);
        a.bytes.fetch_add(bytes, Relaxed);
        if device {
            a.device_calls.fetch_add(1, Relaxed);
            self.device_call_nanos
                .fetch_add(elapsed.as_nanos() as u64, Relaxed);
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no tracer user panics under the lock")
            .push(span);
    }

    /// Runs `f` as a span that other spans can hang under: a client
    /// operation (`req` is its index + 1) or a compaction (`req` 0). While
    /// it runs, calls the wrappers see on this thread are its children.
    pub fn parent_span<T>(
        &self,
        kind: Kind,
        req: u64,
        sampled: bool,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        if !self.enabled() {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed());
        }
        let id = if sampled {
            self.next_id.fetch_add(1, Relaxed)
        } else {
            0
        };
        let outer = CTX.replace(Ctx {
            req,
            parent: id,
            sampled,
            scanning: kind == Kind::LsmScan,
        });
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        CTX.set(outer);
        self.add(kind, t1 - t0, 0, false);
        if sampled {
            self.push(Span {
                id,
                parent: outer.parent,
                req,
                kind,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
            });
        }
        (out, t1 - t0)
    }

    /// Records a span whose start and end the caller timed itself: a
    /// pipelined request, which is sent in one place and received in
    /// another.
    pub fn record(&self, kind: Kind, req: u64, sampled: bool, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        self.add(kind, end.saturating_duration_since(start), 0, false);
        if sampled {
            let id = self.next_id.fetch_add(1, Relaxed);
            self.push(Span {
                id,
                parent: 0,
                req,
                kind,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Runs one wrapped `Env` call.
    fn leaf<T>(&self, kind: Kind, bytes: u64, device: bool, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.add(kind, t1 - t0, bytes, device);
        let ctx = CTX.get();
        let sampled = if ctx.req != 0 {
            ctx.sampled
        } else {
            BACKGROUND_CALLS
                .replace(BACKGROUND_CALLS.get() + 1)
                .is_multiple_of(SAMPLE_EVERY)
        };
        if sampled {
            let id = self.next_id.fetch_add(1, Relaxed);
            self.push(Span {
                id,
                parent: ctx.parent,
                req: ctx.req,
                kind,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
            });
        }
        out
    }

    /// Writes the spans as JSON lines `{id, parent, req, name, start_us,
    /// end_us}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self
            .spans
            .lock()
            .expect("no tracer user panics under the lock")
            .iter()
        {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id,
                s.parent,
                s.req,
                s.kind.name(),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

/// Seconds one wrapped call costs beyond the call itself (two clock reads,
/// a thread-local read, four relaxed adds), measured on a scratch tracer in
/// the common state: inside a client operation that is not sampled.
pub fn call_overhead_seconds() -> f64 {
    const CALLS: u32 = 200_000;
    let scratch = Tracer::new();
    scratch.set_enabled(true);
    let t0 = Instant::now();
    scratch.parent_span(Kind::LsmPut, 1, false, || {
        for i in 0..CALLS {
            scratch.leaf(Kind::StorageWal, 0, false, || std::hint::black_box(i));
        }
    });
    t0.elapsed().as_secs_f64() / CALLS as f64
}

/// A span's duration minus the part of it that its children cover.
/// Children may overlap each other and may stick out of the parent.
pub fn self_nanos(span: &Span, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Self time of every span of `kind`, in nanoseconds.
pub fn self_times(spans: &[Span], kind: Kind) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| self_nanos(s, children.get(&s.id).map_or(&[], Vec::as_slice)))
        .collect()
}

/// An `Env` that times every file call on its way to `inner`.
#[derive(Debug)]
pub struct TracedEnv {
    inner: Arc<dyn Env>,
    tracer: Arc<Tracer>,
}

impl TracedEnv {
    pub fn new(inner: Arc<dyn Env>, tracer: Arc<Tracer>) -> TracedEnv {
        TracedEnv { inner, tracer }
    }
}

impl Env for TracedEnv {
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        Ok(Box::new(TracedWritable {
            inner: Some(self.inner.create(name)?),
            kind: Kind::of_written_file(name),
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>> {
        Ok(Arc::new(TracedReadable {
            inner: self.inner.open(name)?,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        // Only CURRENT is installed by rename.
        self.tracer.leaf(Kind::StorageManifest, 0, false, || {
            self.inner.rename(from, to)
        })
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.inner.size(name)
    }
}

struct TracedWritable {
    /// `None` only inside `drop`.
    inner: Option<Box<dyn WritableFile>>,
    kind: Kind,
    tracer: Arc<Tracer>,
}

impl WritableFile for TracedWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let TracedWritable {
            inner,
            kind,
            tracer,
        } = self;
        let file = inner.as_mut().expect("file is present until drop");
        tracer.leaf(*kind, data.len() as u64, false, || file.append(data))
    }

    fn flush(&mut self) -> io::Result<()> {
        let TracedWritable {
            inner,
            kind,
            tracer,
        } = self;
        let file = inner.as_mut().expect("file is present until drop");
        tracer.leaf(*kind, 0, true, || file.flush())
    }

    fn sync(&mut self) -> io::Result<()> {
        let TracedWritable {
            inner,
            kind,
            tracer,
        } = self;
        if *kind == Kind::StorageWal && tracer.enabled() {
            tracer.wal_syncs.fetch_add(1, Relaxed);
        }
        let file = inner.as_mut().expect("file is present until drop");
        tracer.leaf(*kind, 0, true, || file.sync())
    }

    fn len(&self) -> u64 {
        self.inner
            .as_ref()
            .expect("file is present until drop")
            .len()
    }
}

impl Drop for TracedWritable {
    /// Closing a file writes what it still buffers — for an unsynced WAL,
    /// everything since it was created — so closing is timed too.
    fn drop(&mut self) {
        let inner = self.inner.take();
        self.tracer.leaf(self.kind, 0, true, || drop(inner));
    }
}

struct TracedReadable {
    inner: Arc<dyn RandomReadFile>,
    tracer: Arc<Tracer>,
}

fn read_kind() -> Kind {
    match CTX.get() {
        Ctx { req: 0, .. } => Kind::StorageBgRead,
        Ctx { scanning: true, .. } => Kind::StorageScanRead,
        _ => Kind::StorageGetRead,
    }
}

impl RandomReadFile for TracedReadable {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.tracer.leaf(read_kind(), len as u64, true, || {
            self.inner.read_at(offset, len)
        })
    }

    /// Forwards the class: a wrapper that fell back to the trait's default
    /// here would turn every readahead read into a foreground read inside
    /// the storage model.
    fn read_at_class(&self, offset: u64, len: usize, class: ReadClass) -> io::Result<Bytes> {
        let kind = match class {
            ReadClass::Readahead => Kind::StorageReadahead,
            ReadClass::Foreground => read_kind(),
        };
        self.tracer.leaf(kind, len as u64, true, || {
            self.inner.read_at_class(offset, len, class)
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// A `CompactionExec` that times each compaction of `inner`.
pub struct TracedExec {
    inner: Arc<dyn CompactionExec>,
    tracer: Arc<Tracer>,
}

impl TracedExec {
    pub fn new(inner: Arc<dyn CompactionExec>, tracer: Arc<Tracer>) -> TracedExec {
        TracedExec { inner, tracer }
    }
}

impl CompactionExec for TracedExec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compact(&self, req: &CompactionRequest) -> pcp::sstable::Result<Vec<Arc<FileMetadata>>> {
        let (out, _) = self
            .tracer
            .parent_span(Kind::CoreCompact, 0, true, || self.inner.compact(req));
        if self.tracer.enabled() {
            self.tracer.acc[Kind::CoreCompact as usize]
                .bytes
                .fetch_add(req.input_bytes(), Relaxed);
            if let Ok(files) = &out {
                let written: u64 = files.iter().map(|f| f.size).sum();
                self.tracer
                    .compaction_output_bytes
                    .fetch_add(written, Relaxed);
            }
        }
        out
    }

    fn register_metrics(&self, registry: &pcp::obs::Registry) {
        self.inner.register_metrics(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, Kind::LsmGet, 100, 200);
        assert_eq!(self_nanos(&parent, &[]), 100);
        // Two disjoint children.
        assert_eq!(self_nanos(&parent, &[(110, 120), (150, 170)]), 70);
        // Overlapping children count once; one nested in another adds nothing.
        assert_eq!(
            self_nanos(&parent, &[(110, 150), (140, 160), (145, 150)]),
            50
        );
        // Children sticking out are clipped; one wholly outside is ignored.
        assert_eq!(
            self_nanos(&parent, &[(50, 110), (190, 300), (300, 400)]),
            80
        );
        // Covered completely.
        assert_eq!(self_nanos(&parent, &[(0, 1000)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let spans = vec![
            span(1, 0, Kind::LsmGet, 0, 100),
            span(2, 1, Kind::StorageGetRead, 10, 40),
            span(3, 1, Kind::StorageGetRead, 50, 60),
            span(4, 0, Kind::LsmGet, 200, 230),
            span(5, 0, Kind::StorageBgRead, 0, 1000),
            span(6, 4, Kind::StorageGetRead, 205, 230),
        ];
        assert_eq!(self_times(&spans, Kind::LsmGet), vec![60, 5]);
        assert_eq!(self_times(&spans, Kind::LsmPut), Vec::<u64>::new());
    }

    #[test]
    fn wrappers_parent_env_calls_under_the_client_span() {
        use pcp::storage::{SimDevice, SimEnv};
        let tracer = Tracer::new();
        let env = TracedEnv::new(
            Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 20)))),
            Arc::clone(&tracer),
        );
        // Disabled: nothing is recorded.
        env.create("000001.sst").unwrap().append(b"x").unwrap();
        assert_eq!(tracer.totals(Kind::StorageTableWrite), Totals::default());

        tracer.set_enabled(true);
        let mut f = env.create("000002.log").unwrap();
        tracer.parent_span(Kind::LsmPut, 1, true, || f.append(b"hello").unwrap());
        tracer.parent_span(Kind::LsmPut, 2, false, || f.append(b"world!").unwrap());
        f.sync().unwrap();
        drop(f);
        let wal = tracer.totals(Kind::StorageWal);
        assert_eq!((wal.calls, wal.device_calls, wal.bytes), (4, 2, 11));
        assert_eq!(tracer.wal_syncs(), 1);
        assert_eq!(tracer.totals(Kind::LsmPut).calls, 2);

        let spans = tracer.spans();
        let put = spans
            .iter()
            .find(|s| s.kind == Kind::LsmPut)
            .expect("the sampled put");
        let child = spans
            .iter()
            .find(|s| s.parent == put.id)
            .expect("its WAL append");
        assert_eq!((child.kind, child.req), (Kind::StorageWal, 1));
        assert_eq!(
            spans.iter().filter(|s| s.kind == Kind::LsmPut).count(),
            1,
            "the unsampled put keeps no span"
        );

        // A read on a thread with no request is a background read.
        let r = env.open("000002.log").unwrap();
        r.read_at(0, 5).unwrap();
        tracer.parent_span(Kind::LsmGet, 3, true, || {
            r.read_at_class(0, 5, ReadClass::Foreground).unwrap()
        });
        r.read_at_class(0, 5, ReadClass::Readahead).unwrap();
        assert_eq!(tracer.totals(Kind::StorageBgRead).calls, 1);
        assert_eq!(tracer.totals(Kind::StorageGetRead).calls, 1);
        assert_eq!(tracer.totals(Kind::StorageReadahead).bytes, 5);
    }
}
