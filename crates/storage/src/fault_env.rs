//! Deterministic fault injection over any [`Env`].
//!
//! [`FaultEnv`] wraps an inner environment ([`crate::SimEnv`] or
//! [`crate::StdFsEnv`]) and injects failures on the way through, driven
//! entirely by an explicit plan and a seed — the same plan always fails the
//! same ops of the same operation sequence, which is what makes
//! reopen-and-recover and executor-equivalence tests reproducible.
//!
//! Four failure classes, matching what real disks and kernels do:
//!
//! * **Transient errors** (`ErrorKind::Interrupted`) — the op failed once
//!   and changed no state, so a retried op behaves as if the fault never
//!   happened.
//! * **Permanent errors** (`ErrorKind::Other`) — the op fails, and so does
//!   every later op its trigger counts; callers are expected to abort and
//!   surface a background error.
//! * **Torn syncs** — `sync` persists only a seed-chosen prefix of the
//!   not-yet-flushed bytes to the inner env, then the filesystem freezes.
//!   This models a power cut mid-write and is the interesting case for
//!   WAL/MANIFEST recovery code.
//! * **Crash points** — after the trigger fires, every subsequent op on
//!   this wrapper fails with `"simulated crash"`. The *inner* env still
//!   holds the exact image at crash time; tests reopen through
//!   [`FaultEnv::inner`] and run recovery against the frozen image.
//!
//! One way arms a fault: [`FaultEnv::schedule_on_file`] fires it on the
//! n-th op of one kind on file names containing a substring (`fail the 3rd
//! sync of the MANIFEST`; `""` matches every file).

use crate::env::{Env, RandomReadFile, ReadClass, WritableFile};
use crate::EnvRef;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The fault-site taxonomy: each I/O entry point the wrapper can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `WritableFile::append`.
    Append,
    /// `WritableFile::flush`.
    Flush,
    /// `WritableFile::sync`.
    Sync,
    /// `RandomReadFile::read_at` — any of its forms, a booked read
    /// (`submit_read_class`) included.
    ReadAt,
    /// `Env::create`.
    Create,
    /// `Env::open`.
    Open,
    /// `Env::delete`.
    Delete,
    /// `Env::rename`.
    Rename,
}

/// What a scheduled trigger does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One retryable failure (`ErrorKind::Interrupted`); state unchanged.
    Transient,
    /// The op fails now and on every later attempt (`ErrorKind::Other`):
    /// the trigger stays armed and fails every op it counts after it
    /// fired, until [`FaultEnv::reset`].
    Permanent,
    /// `sync` persists a seed-chosen prefix of the pending bytes, then the
    /// filesystem freezes. Only meaningful on [`FaultOp::Sync`].
    TornSync,
    /// The filesystem freezes: every subsequent op fails, and the inner
    /// env keeps the image exactly as it was.
    Crash,
}

/// A scheduled fault: fire `kind` on the `at`-th op `op` on a file whose
/// name contains `file_contains` (1-based; only those ops count).
#[derive(Debug, Clone)]
struct Trigger {
    op: FaultOp,
    /// Matching ops still to come before it fires; 0 once it has.
    at: u64,
    kind: FaultKind,
    file_contains: String,
}

impl Trigger {
    /// Counts one matching op; the kind to inject if the trigger fires on
    /// it, or has fired and is [`FaultKind::Permanent`].
    fn count(&mut self) -> Option<FaultKind> {
        if self.at == 0 {
            return (self.kind == FaultKind::Permanent).then_some(self.kind);
        }
        self.at -= 1;
        (self.at == 0).then_some(self.kind)
    }
}

/// Counters for every fault actually injected, for test assertions.
#[derive(Debug, Default, Clone)]
pub struct FaultStats {
    /// Transient (`Interrupted`) errors injected.
    pub transient: u64,
    /// Permanent (`Other`) errors injected.
    pub permanent: u64,
    /// Torn syncs injected.
    pub torn_syncs: u64,
    /// Ops rejected because the filesystem was frozen.
    pub frozen_rejects: u64,
}

/// splitmix64: tiny, high-quality, and fully determined by the seed.
#[derive(Debug)]
struct FaultRng(u64);

impl FaultRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[derive(Debug)]
struct Plan {
    /// Draws the prefix a torn sync keeps.
    rng: FaultRng,
    triggers: Vec<Trigger>,
}

#[derive(Debug)]
struct Shared {
    plan: Mutex<Plan>,
    frozen: AtomicBool,
    transient: AtomicU64,
    permanent: AtomicU64,
    torn_syncs: AtomicU64,
    frozen_rejects: AtomicU64,
}

impl Shared {
    fn frozen_error(&self) -> io::Error {
        self.frozen_rejects.fetch_add(1, Ordering::Relaxed);
        io::Error::other("simulated crash: filesystem frozen")
    }

    /// Decides the fate of one op on `name`. Returns the fault to apply,
    /// if any, with a draw that picks the prefix a `TornSync` keeps. Every
    /// trigger on `op` whose filter `name` matches counts the op; the first
    /// of them that fires decides.
    fn decide(&self, op: FaultOp, name: &str) -> Option<(FaultKind, u64)> {
        if self.frozen.load(Ordering::Acquire) {
            return Some((FaultKind::Crash, 0));
        }
        let plan = &mut *self.plan.lock();
        let kind = (plan.triggers.iter_mut())
            .filter(|t| t.op == op && name.contains(t.file_contains.as_str()))
            .map(Trigger::count)
            .fold(None, Option::or)?;
        Some((kind, plan.rng.next_u64()))
    }

    /// Applies a decided fault at an op that has no torn-sync semantics.
    fn apply(&self, fault: Option<(FaultKind, u64)>) -> io::Result<()> {
        match fault {
            None => Ok(()),
            Some((FaultKind::Transient, _)) => {
                self.transient.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected transient fault",
                ))
            }
            Some((FaultKind::Permanent, _)) => {
                self.permanent.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other("injected permanent fault"))
            }
            Some((FaultKind::TornSync, _)) | Some((FaultKind::Crash, _)) => {
                self.frozen.store(true, Ordering::Release);
                Err(self.frozen_error())
            }
        }
    }
}

/// Deterministic fault-injecting wrapper around another [`Env`].
#[derive(Debug, Clone)]
pub struct FaultEnv {
    inner: EnvRef,
    shared: Arc<Shared>,
}

impl FaultEnv {
    /// Wraps `inner` with no faults armed; arm them with
    /// [`FaultEnv::schedule_on_file`].
    pub fn new(inner: EnvRef, seed: u64) -> FaultEnv {
        FaultEnv {
            inner,
            shared: Arc::new(Shared {
                plan: Mutex::new(Plan {
                    rng: FaultRng(seed),
                    triggers: Vec::new(),
                }),
                frozen: AtomicBool::new(false),
                transient: AtomicU64::new(0),
                permanent: AtomicU64::new(0),
                torn_syncs: AtomicU64::new(0),
                frozen_rejects: AtomicU64::new(0),
            }),
        }
    }

    /// The wrapped env — after a crash this holds the frozen image, so
    /// recovery tests reopen through it.
    pub fn inner(&self) -> EnvRef {
        Arc::clone(&self.inner)
    }

    /// Schedules `kind` to fire on the `nth` (1-based) call of `op` on a
    /// file whose name contains `substring`; only such calls count. A
    /// [`FaultKind::Permanent`] trigger keeps failing every call it counts
    /// after that.
    pub fn schedule_on_file(
        &self,
        op: FaultOp,
        nth: u64,
        kind: FaultKind,
        substring: impl Into<String>,
    ) -> &Self {
        assert!(nth > 0, "trigger positions are 1-based");
        self.shared.plan.lock().triggers.push(Trigger {
            op,
            at: nth,
            kind,
            file_contains: substring.into(),
        });
        self
    }

    /// True once a crash point or torn sync has frozen the filesystem.
    pub fn crashed(&self) -> bool {
        self.shared.frozen.load(Ordering::Acquire)
    }

    /// Disarms every trigger and unfreezes, keeping the inner image —
    /// useful to continue a test against the same env after a fault window.
    pub fn reset(&self) {
        self.shared.plan.lock().triggers.clear();
        self.shared.frozen.store(false, Ordering::Release);
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient: self.shared.transient.load(Ordering::Relaxed),
            permanent: self.shared.permanent.load(Ordering::Relaxed),
            torn_syncs: self.shared.torn_syncs.load(Ordering::Relaxed),
            frozen_rejects: self.shared.frozen_rejects.load(Ordering::Relaxed),
        }
    }
}

impl Env for FaultEnv {
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        parking_lot::check_blocking("Env::create");
        self.shared
            .apply(self.shared.decide(FaultOp::Create, name))?;
        let inner = self.inner.create(name)?;
        Ok(Box::new(FaultWritableFile {
            name: name.to_string(),
            inner,
            pending: Vec::new(),
            written: 0,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>> {
        parking_lot::check_blocking("Env::open");
        self.shared.apply(self.shared.decide(FaultOp::Open, name))?;
        let inner = self.inner.open(name)?;
        Ok(Arc::new(FaultRandomReadFile {
            name: name.to_string(),
            inner,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        parking_lot::check_blocking("Env::delete");
        self.shared
            .apply(self.shared.decide(FaultOp::Delete, name))?;
        self.inner.delete(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        parking_lot::check_blocking("Env::rename");
        self.shared
            .apply(self.shared.decide(FaultOp::Rename, from))?;
        self.inner.rename(from, to)
    }

    fn exists(&self, name: &str) -> bool {
        parking_lot::check_blocking("Env::exists");
        self.inner.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        parking_lot::check_blocking("Env::list");
        if self.shared.frozen.load(Ordering::Acquire) {
            return Err(self.shared.frozen_error());
        }
        self.inner.list()
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        parking_lot::check_blocking("Env::size");
        if self.shared.frozen.load(Ordering::Acquire) {
            return Err(self.shared.frozen_error());
        }
        self.inner.size(name)
    }
}

/// Write handle that buffers appends so a torn sync can persist a prefix.
struct FaultWritableFile {
    name: String,
    inner: Box<dyn WritableFile>,
    /// Appended but not yet handed to the inner file.
    pending: Vec<u8>,
    /// Bytes already handed to the inner file.
    written: u64,
    shared: Arc<Shared>,
}

impl FaultWritableFile {
    /// Moves all pending bytes into the inner file's buffer.
    fn drain_pending(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.inner.append(&self.pending)?;
            self.written += self.pending.len() as u64;
            self.pending.clear();
        }
        Ok(())
    }
}

impl WritableFile for FaultWritableFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::append");
        self.shared
            .apply(self.shared.decide(FaultOp::Append, &self.name))?;
        self.pending.extend_from_slice(data);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::flush");
        self.shared
            .apply(self.shared.decide(FaultOp::Flush, &self.name))?;
        self.drain_pending()?;
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::sync");
        match self.shared.decide(FaultOp::Sync, &self.name) {
            Some((FaultKind::TornSync, prefix_seed)) => {
                // Persist a strict prefix of what the caller believes was
                // synced, then freeze — the power went out mid-write.
                if !self.pending.is_empty() {
                    let keep = (prefix_seed % self.pending.len() as u64) as usize;
                    self.inner.append(&self.pending[..keep])?;
                    self.written += keep as u64;
                    self.pending.clear();
                    self.inner.sync()?;
                }
                self.shared.torn_syncs.fetch_add(1, Ordering::Relaxed);
                self.shared.frozen.store(true, Ordering::Release);
                Err(io::Error::other("injected torn sync: filesystem frozen"))
            }
            other => {
                self.shared.apply(other)?;
                self.drain_pending()?;
                self.inner.sync()
            }
        }
    }

    fn len(&self) -> u64 {
        self.written + self.pending.len() as u64
    }
}

/// Read handle that injects read errors.
struct FaultRandomReadFile {
    name: String,
    inner: Arc<dyn RandomReadFile>,
    shared: Arc<Shared>,
}

impl FaultRandomReadFile {
    /// Fails the read now if a `ReadAt` fault is due.
    fn inject(&self) -> io::Result<()> {
        self.shared
            .apply(self.shared.decide(FaultOp::ReadAt, &self.name))
    }
}

impl RandomReadFile for FaultRandomReadFile {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.read_at_class(offset, len, ReadClass::Foreground)
    }

    fn read_at_class(&self, offset: u64, len: usize, class: ReadClass) -> io::Result<Bytes> {
        parking_lot::check_blocking("RandomReadFile::read_at");
        self.inject()?;
        self.inner.read_at_class(offset, len, class)
    }

    fn submit_read_class(
        &self,
        offset: u64,
        len: usize,
        class: ReadClass,
    ) -> io::Result<(Bytes, Instant)> {
        parking_lot::check_blocking("RandomReadFile::submit_read_class");
        self.inject()?;
        self.inner.submit_read_class(offset, len, class)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{read_string_file, write_string_file};
    use crate::{SimDevice, SimEnv};

    fn mem_env() -> EnvRef {
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 26))))
    }

    #[test]
    fn passthrough_when_unarmed() {
        let fault = FaultEnv::new(mem_env(), 7);
        write_string_file(&fault, "a.txt", "hello").unwrap();
        assert_eq!(read_string_file(&fault, "a.txt").unwrap(), "hello");
        assert!(!fault.crashed());
        assert_eq!(fault.stats().transient, 0);
    }

    #[test]
    fn scheduled_transient_fault_fires_once() {
        let fault = FaultEnv::new(mem_env(), 7);
        fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::Transient, "");
        let mut f = fault.create("x").unwrap();
        f.append(b"abc").unwrap();
        let err = f.sync().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        // Retry succeeds and the data survives.
        f.sync().unwrap();
        drop(f);
        assert_eq!(read_string_file(&fault, "x").unwrap(), "abc");
        assert_eq!(fault.stats().transient, 1);
    }

    /// A permanent trigger fails the op it fires on and every later op it
    /// counts, on any file its filter matches, until a reset.
    #[test]
    fn permanent_fault_keeps_failing() {
        let fault = FaultEnv::new(mem_env(), 7);
        fault.schedule_on_file(FaultOp::Sync, 2, FaultKind::Permanent, "");
        let mut f = fault.create("x").unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        for _ in 0..3 {
            assert_eq!(f.sync().unwrap_err().kind(), io::ErrorKind::Other);
        }
        let mut g = fault.create("y").unwrap();
        assert!(g.sync().is_err(), "another file's sync went through");
        assert_eq!(fault.stats().permanent, 4);
        fault.reset();
        f.sync().unwrap();
    }

    #[test]
    fn torn_sync_persists_prefix_and_freezes() {
        let fault = FaultEnv::new(mem_env(), 42);
        fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::TornSync, "");
        let mut f = fault.create("wal").unwrap();
        f.append(&[b'z'; 100]).unwrap();
        assert!(f.sync().is_err());
        assert!(fault.crashed());
        // Everything through the wrapper now fails...
        assert!(fault.create("y").is_err());
        // ...but the inner env holds a strict prefix of the write.
        let inner = fault.inner();
        let n = inner.size("wal").unwrap();
        assert!(n < 100, "torn sync must persist a strict prefix, got {n}");
        assert_eq!(fault.stats().torn_syncs, 1);
    }

    #[test]
    fn file_filter_scopes_faults() {
        let fault = FaultEnv::new(mem_env(), 11);
        fault.schedule_on_file(FaultOp::Sync, 1, FaultKind::Permanent, "MANIFEST");
        // Non-matching file is untouched.
        write_string_file(&fault, "data.sst", "ok").unwrap();
        // Matching file fails.
        let mut f = fault.create("MANIFEST-000001").unwrap();
        f.append(b"v").unwrap();
        assert!(f.sync().is_err());
        write_string_file(&fault, "data2.sst", "ok").unwrap();
    }

    #[test]
    fn scheduled_trigger_on_filtered_file_counts_matching_ops_only() {
        let fault = FaultEnv::new(mem_env(), 5);
        fault.schedule_on_file(FaultOp::Append, 2, FaultKind::Permanent, "MANIFEST");
        let mut other = fault.create("table.sst").unwrap();
        let mut man = fault.create("MANIFEST-1").unwrap();
        // Appends to other files never advance the trigger.
        for _ in 0..5 {
            other.append(b"x").unwrap();
        }
        man.append(b"a").unwrap();
        assert!(man.append(b"b").is_err());
        other.append(b"x").unwrap();
    }
}
