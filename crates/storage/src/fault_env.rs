//! Deterministic fault injection over any [`Env`].
//!
//! [`FaultEnv`] wraps an inner environment ([`crate::SimEnv`] or
//! [`crate::StdFsEnv`]) and injects failures on the way through, driven
//! entirely by a seed and an explicit plan — the same seed and plan always
//! produce the same fault sequence for the same operation sequence, which
//! is what makes reopen-and-recover and executor-equivalence tests
//! reproducible.
//!
//! Four failure classes, matching what real disks and kernels do:
//!
//! * **Transient errors** (`ErrorKind::Interrupted`) — the op failed but
//!   retrying may succeed. The wrapper does not change any state, so a
//!   retried op behaves as if the fault never happened.
//! * **Permanent errors** (`ErrorKind::Other`) — the op keeps failing;
//!   callers are expected to abort and surface a background error.
//! * **Torn syncs** — `sync` persists only a prefix of the not-yet-flushed
//!   bytes to the inner env, then the filesystem freezes. This models a
//!   power cut mid-write and is the interesting case for WAL/MANIFEST
//!   recovery code.
//! * **Crash points** — after the trigger fires, every subsequent op on
//!   this wrapper fails with `"simulated crash"`. The *inner* env still
//!   holds the exact image at crash time; tests reopen through
//!   [`FaultEnv::inner`] and run recovery against the frozen image.
//!
//! Faults fire either with a per-op probability or at a scheduled op count
//! (`fail the 3rd sync`), optionally restricted to file names containing a
//! substring (so a test can tear exactly the MANIFEST and nothing else).

use crate::env::{Env, RandomReadFile, ReadClass, WritableFile};
use crate::EnvRef;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
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
    /// The op fails now and on every later attempt (`ErrorKind::Other`).
    Permanent,
    /// `sync` persists a seed-chosen prefix of the pending bytes, then the
    /// filesystem freezes. Only meaningful on [`FaultOp::Sync`].
    TornSync,
    /// The filesystem freezes: every subsequent op fails, and the inner
    /// env keeps the image exactly as it was.
    Crash,
}

/// A scheduled fault: fire `kind` on the `at`-th matching op (1-based).
#[derive(Debug, Clone)]
struct Trigger {
    op: FaultOp,
    at: u64,
    kind: FaultKind,
    /// Only ops on file names containing this substring count and fire.
    file_contains: Option<String>,
    fired: bool,
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
    /// Bits flipped in read paths.
    pub bit_flips: u64,
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

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[derive(Debug)]
struct Plan {
    rng: FaultRng,
    /// Per-op probability of a fault on each call.
    probability: HashMap<FaultOp, f64>,
    /// Whether probabilistic faults are retryable or permanent.
    probabilistic_kind: FaultKind,
    /// Probability that a successful `read_at` has one bit flipped.
    p_bit_flip: f64,
    /// Scheduled one-shot triggers.
    triggers: Vec<Trigger>,
    /// Ops seen so far, per site (drives scheduled triggers).
    op_counts: HashMap<FaultOp, u64>,
    /// Substring filter applied to probabilistic faults and bit flips.
    file_contains: Option<String>,
}

#[derive(Debug)]
struct Shared {
    plan: Mutex<Plan>,
    frozen: AtomicBool,
    transient: AtomicU64,
    permanent: AtomicU64,
    torn_syncs: AtomicU64,
    bit_flips: AtomicU64,
    frozen_rejects: AtomicU64,
}

impl Shared {
    fn frozen_error(&self) -> io::Error {
        self.frozen_rejects.fetch_add(1, Ordering::Relaxed);
        io::Error::other("simulated crash: filesystem frozen")
    }

    /// Decides the fate of one op on `name`. Returns the fault to apply,
    /// if any. `TornSync` decisions also return the prefix length to keep.
    fn decide(&self, op: FaultOp, name: &str) -> Option<(FaultKind, u64)> {
        if self.frozen.load(Ordering::Acquire) {
            return Some((FaultKind::Crash, 0));
        }
        let mut plan = self.plan.lock();
        let seen = {
            let c = plan.op_counts.entry(op).or_insert(0);
            *c += 1;
            *c
        };
        // Scheduled triggers take precedence over probabilistic faults.
        let mut fired_kind = None;
        for t in plan.triggers.iter_mut() {
            if t.fired || t.op != op {
                continue;
            }
            if let Some(sub) = &t.file_contains {
                if !name.contains(sub.as_str()) {
                    continue;
                }
            }
            // A filtered trigger counts only matching ops; an unfiltered
            // one rides the global per-op counter.
            let fire = if t.file_contains.is_some() {
                t.at -= 1;
                t.at == 0
            } else {
                seen == t.at
            };
            if fire {
                t.fired = true;
                fired_kind = Some(t.kind);
                break;
            }
        }
        if let Some(kind) = fired_kind {
            let torn_prefix = plan.rng.next_u64();
            return Some((kind, torn_prefix));
        }
        let matches_filter = plan
            .file_contains
            .as_ref()
            .is_none_or(|sub| name.contains(sub.as_str()));
        if matches_filter {
            if let Some(&p) = plan.probability.get(&op) {
                if p > 0.0 && plan.rng.unit_f64() < p {
                    let kind = plan.probabilistic_kind;
                    let torn_prefix = plan.rng.next_u64();
                    return Some((kind, torn_prefix));
                }
            }
        }
        None
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

    /// Whether a read should flip a bit, given the read succeeded.
    fn decide_bit_flip(&self, name: &str, len: usize) -> Option<(usize, u8)> {
        if len == 0 || self.frozen.load(Ordering::Acquire) {
            return None;
        }
        let mut plan = self.plan.lock();
        if plan
            .file_contains
            .as_ref()
            .is_some_and(|sub| !name.contains(sub.as_str()))
        {
            return None;
        }
        if plan.p_bit_flip > 0.0 && plan.rng.unit_f64() < plan.p_bit_flip {
            let byte = plan.rng.below(len as u64) as usize;
            let bit = 1u8 << plan.rng.below(8);
            self.bit_flips.fetch_add(1, Ordering::Relaxed);
            Some((byte, bit))
        } else {
            None
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
    /// Wraps `inner` with no faults armed; arm them with the setters.
    pub fn new(inner: EnvRef, seed: u64) -> FaultEnv {
        FaultEnv {
            inner,
            shared: Arc::new(Shared {
                plan: Mutex::new(Plan {
                    rng: FaultRng(seed),
                    probability: HashMap::new(),
                    probabilistic_kind: FaultKind::Transient,
                    p_bit_flip: 0.0,
                    triggers: Vec::new(),
                    op_counts: HashMap::new(),
                    file_contains: None,
                }),
                frozen: AtomicBool::new(false),
                transient: AtomicU64::new(0),
                permanent: AtomicU64::new(0),
                torn_syncs: AtomicU64::new(0),
                bit_flips: AtomicU64::new(0),
                frozen_rejects: AtomicU64::new(0),
            }),
        }
    }

    /// The wrapped env — after a crash this holds the frozen image, so
    /// recovery tests reopen through it.
    pub fn inner(&self) -> EnvRef {
        Arc::clone(&self.inner)
    }

    /// Arms a per-call fault probability for `op`.
    pub fn set_probability(&self, op: FaultOp, p: f64) -> &Self {
        self.shared.plan.lock().probability.insert(op, p);
        self
    }

    /// Sets whether probabilistic faults are transient or permanent.
    pub fn set_probabilistic_kind(&self, kind: FaultKind) -> &Self {
        self.shared.plan.lock().probabilistic_kind = kind;
        self
    }

    /// Arms a per-read probability of flipping one bit in returned data.
    pub fn set_bit_flip_probability(&self, p: f64) -> &Self {
        self.shared.plan.lock().p_bit_flip = p;
        self
    }

    /// Restricts probabilistic faults and bit flips to files whose name
    /// contains `substring`.
    pub fn set_file_filter(&self, substring: impl Into<String>) -> &Self {
        self.shared.plan.lock().file_contains = Some(substring.into());
        self
    }

    /// Schedules `kind` to fire on the `nth` (1-based) call of `op`.
    pub fn schedule(&self, op: FaultOp, nth: u64, kind: FaultKind) -> &Self {
        assert!(nth > 0, "trigger positions are 1-based");
        self.shared.plan.lock().triggers.push(Trigger {
            op,
            at: nth,
            kind,
            file_contains: None,
            fired: false,
        });
        self
    }

    /// As [`FaultEnv::schedule`], counting only ops on files whose name
    /// contains `substring`.
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
            file_contains: Some(substring.into()),
            fired: false,
        });
        self
    }

    /// True once a crash point or torn sync has frozen the filesystem.
    pub fn crashed(&self) -> bool {
        self.shared.frozen.load(Ordering::Acquire)
    }

    /// Disarms all faults and unfreezes, keeping the inner image — useful
    /// to continue a test against the same env after a fault window.
    pub fn reset(&self) {
        let mut plan = self.shared.plan.lock();
        plan.probability.clear();
        plan.p_bit_flip = 0.0;
        plan.triggers.clear();
        plan.file_contains = None;
        drop(plan);
        self.shared.frozen.store(false, Ordering::Release);
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient: self.shared.transient.load(Ordering::Relaxed),
            permanent: self.shared.permanent.load(Ordering::Relaxed),
            torn_syncs: self.shared.torn_syncs.load(Ordering::Relaxed),
            bit_flips: self.shared.bit_flips.load(Ordering::Relaxed),
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

/// Read handle that injects read errors and bit flips.
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

    /// `data`, with one bit flipped if a flip is due.
    fn flip(&self, data: Bytes) -> Bytes {
        match self.shared.decide_bit_flip(&self.name, data.len()) {
            Some((byte, bit)) => {
                let mut corrupted = data.to_vec();
                corrupted[byte] ^= bit;
                Bytes::from(corrupted)
            }
            None => data,
        }
    }
}

impl RandomReadFile for FaultRandomReadFile {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.read_at_class(offset, len, ReadClass::Foreground)
    }

    fn read_at_class(&self, offset: u64, len: usize, class: ReadClass) -> io::Result<Bytes> {
        parking_lot::check_blocking("RandomReadFile::read_at");
        self.inject()?;
        Ok(self.flip(self.inner.read_at_class(offset, len, class)?))
    }

    fn submit_read_class(
        &self,
        offset: u64,
        len: usize,
        class: ReadClass,
    ) -> io::Result<(Bytes, Instant)> {
        parking_lot::check_blocking("RandomReadFile::submit_read_class");
        self.inject()?;
        let (data, done) = self.inner.submit_read_class(offset, len, class)?;
        Ok((self.flip(data), done))
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
        fault.schedule(FaultOp::Sync, 1, FaultKind::Transient);
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

    #[test]
    fn permanent_fault_keeps_failing() {
        let fault = FaultEnv::new(mem_env(), 7);
        fault.set_probability(FaultOp::Sync, 1.0);
        fault.set_probabilistic_kind(FaultKind::Permanent);
        let mut f = fault.create("x").unwrap();
        f.append(b"abc").unwrap();
        for _ in 0..3 {
            assert!(f.sync().is_err());
        }
        assert_eq!(fault.stats().permanent, 3);
    }

    #[test]
    fn torn_sync_persists_prefix_and_freezes() {
        let fault = FaultEnv::new(mem_env(), 42);
        fault.schedule(FaultOp::Sync, 1, FaultKind::TornSync);
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
    fn bit_flip_corrupts_exactly_one_bit() {
        let fault = FaultEnv::new(mem_env(), 9);
        write_string_file(&fault, "t", "payload-payload").unwrap();
        fault.set_bit_flip_probability(1.0);
        let f = fault.open("t").unwrap();
        let got = f.read_at(0, 15).unwrap();
        let orig = b"payload-payload";
        let diff: u32 = got
            .iter()
            .zip(orig.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(fault.stats().bit_flips, 1);
    }

    #[test]
    fn file_filter_scopes_faults() {
        let fault = FaultEnv::new(mem_env(), 11);
        fault.set_file_filter("MANIFEST");
        fault.set_probability(FaultOp::Sync, 1.0);
        fault.set_probabilistic_kind(FaultKind::Permanent);
        // Non-matching file is untouched.
        write_string_file(&fault, "data.sst", "ok").unwrap();
        // Matching file fails.
        let mut f = fault.create("MANIFEST-000001").unwrap();
        f.append(b"v").unwrap();
        assert!(f.sync().is_err());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed| {
            let fault = FaultEnv::new(mem_env(), seed);
            fault.set_probability(FaultOp::Append, 0.3);
            let mut f = fault.create("x").unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(f.append(b"d").is_ok());
            }
            outcomes
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(456));
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
    }
}
