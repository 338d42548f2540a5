//! Simulated filesystem over a [`BlockDevice`](crate::device::BlockDevice).
//!
//! Files are stored as chains of extents placed by the
//! [`ExtentAllocator`]; continual SSTable creation/deletion fragments the
//! device over time, giving the HDD model realistic seek behaviour during
//! compaction (paper §IV-B). There is no page cache — every read hits the
//! device, matching the paper's use of direct I/O for profiling.
//!
//! I/O granularity: [`WritableFile::append`] only buffers;
//! [`WritableFile::flush`] turns the buffered bytes into device writes. The
//! compaction write stage flushes once per sub-task, so one flush models one
//! step-S7 I/O.

use crate::alloc::{Extent, ExtentAllocator};
use crate::blocking::sleep_until;
use crate::env::{Env, RandomReadFile, ReadClass, WritableFile};
use crate::DeviceRef;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Granule files grow by. One memtable flush (≈2 MB SSTable) spans several
/// extents, so co-evolving files interleave on the device — the dynamic
/// allocation the paper blames for compaction-read seeks.
const SEGMENT: u64 = 512 * 1024;

#[derive(Debug, Clone, Default)]
struct FileMeta {
    extents: Vec<Extent>,
    len: u64,
}

impl FileMeta {
    /// Total capacity of the extent chain.
    fn extent_capacity(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Device ranges overlapping file range `[offset, offset+len)`, as
    /// (device_offset, byte_count) pairs in file order.
    fn map_range(&self, offset: u64, len: u64) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        let mut file_pos = 0u64;
        let end = offset + len;
        for e in &self.extents {
            let seg_start = file_pos;
            let seg_end = file_pos + e.len;
            if seg_end > offset && seg_start < end {
                let lo = offset.max(seg_start);
                let hi = end.min(seg_end);
                out.push((e.offset + (lo - seg_start), (hi - lo) as usize));
            }
            file_pos = seg_end;
            if file_pos >= end {
                break;
            }
        }
        out
    }
}

#[derive(Debug)]
struct State {
    files: HashMap<String, Arc<FileMeta>>,
    alloc: ExtentAllocator,
}

#[derive(Debug)]
struct Inner {
    device: DeviceRef,
    state: Mutex<State>,
}

impl Inner {
    fn free_meta(state: &mut State, meta: &FileMeta) {
        for e in &meta.extents {
            state.alloc.free(*e);
        }
    }
}

/// A simulated flat filesystem backed by one block device.
#[derive(Debug, Clone)]
pub struct SimEnv {
    inner: Arc<Inner>,
}

impl SimEnv {
    /// Creates an empty filesystem over `device`.
    pub fn new(device: DeviceRef) -> Self {
        let capacity = device.capacity();
        SimEnv {
            inner: Arc::new(Inner {
                device,
                state: Mutex::new(State {
                    files: HashMap::new(),
                    alloc: ExtentAllocator::new(capacity),
                }),
            }),
        }
    }

    /// The underlying device (for stats).
    pub fn device(&self) -> &DeviceRef {
        &self.inner.device
    }

    /// Bytes currently allocated to files (including growth slack).
    pub fn allocated(&self) -> u64 {
        self.inner.state.lock().alloc.allocated()
    }

    /// Number of free-list fragments (device fragmentation metric).
    pub fn free_fragments(&self) -> usize {
        self.inner.state.lock().alloc.free_fragments()
    }

    fn not_found(name: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
    }
}

impl Env for SimEnv {
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        parking_lot::check_blocking("Env::create");
        let mut st = self.inner.state.lock();
        if let Some(old) = st.files.remove(name) {
            Inner::free_meta(&mut st, &old);
        }
        st.files
            .insert(name.to_string(), Arc::new(FileMeta::default()));
        drop(st);
        Ok(Box::new(SimWritable {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
            buffer: Vec::new(),
            flushed: 0,
        }))
    }

    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>> {
        parking_lot::check_blocking("Env::open");
        let st = self.inner.state.lock();
        let meta = st.files.get(name).ok_or_else(|| Self::not_found(name))?;
        Ok(Arc::new(SimReadable {
            device: Arc::clone(&self.inner.device),
            meta: Arc::clone(meta),
        }))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        parking_lot::check_blocking("Env::delete");
        let mut st = self.inner.state.lock();
        let meta = st.files.remove(name).ok_or_else(|| Self::not_found(name))?;
        Inner::free_meta(&mut st, &meta);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        parking_lot::check_blocking("Env::rename");
        let mut st = self.inner.state.lock();
        let meta = st.files.remove(from).ok_or_else(|| Self::not_found(from))?;
        if let Some(old) = st.files.insert(to.to_string(), meta) {
            Inner::free_meta(&mut st, &old);
        }
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        parking_lot::check_blocking("Env::exists");
        self.inner.state.lock().files.contains_key(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        parking_lot::check_blocking("Env::list");
        Ok(self.inner.state.lock().files.keys().cloned().collect())
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        parking_lot::check_blocking("Env::size");
        let st = self.inner.state.lock();
        st.files
            .get(name)
            .map(|m| m.len)
            .ok_or_else(|| Self::not_found(name))
    }
}

struct SimReadable {
    device: DeviceRef,
    meta: Arc<FileMeta>,
}

impl RandomReadFile for SimReadable {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.read_at_class(offset, len, ReadClass::Foreground)
    }

    fn read_at_class(&self, offset: u64, len: usize, class: ReadClass) -> io::Result<Bytes> {
        let (data, done) = self.submit_read_class(offset, len, class)?;
        sleep_until(done);
        Ok(data)
    }

    /// Books one device read per extent the range crosses, back to back,
    /// and returns the instant the last of them completes.
    fn submit_read_class(
        &self,
        offset: u64,
        len: usize,
        class: ReadClass,
    ) -> io::Result<(Bytes, Instant)> {
        parking_lot::check_blocking("RandomReadFile::read_at");
        if offset >= self.meta.len {
            return Ok((Bytes::new(), Instant::now()));
        }
        let len = len.min((self.meta.len - offset) as usize);
        let ranges = self.meta.map_range(offset, len as u64);
        let (data, done) = match ranges[..] {
            [(dev_off, n)] => self.device.submit_read(dev_off, n)?,
            _ => {
                let mut out = Vec::with_capacity(len);
                let mut done = Instant::now();
                for (dev_off, n) in ranges {
                    let (data, at) = self.device.submit_read(dev_off, n)?;
                    out.extend_from_slice(&data);
                    done = done.max(at);
                }
                (Bytes::from(out), done)
            }
        };
        if class == ReadClass::Readahead {
            self.device.stats().record_readahead(data.len() as u64);
        }
        Ok((data, done))
    }

    fn len(&self) -> u64 {
        self.meta.len
    }
}

struct SimWritable {
    inner: Arc<Inner>,
    name: String,
    buffer: Vec<u8>,
    /// Bytes already on the device.
    flushed: u64,
}

impl WritableFile for SimWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::append");
        self.buffer.extend_from_slice(data);
        Ok(())
    }

    /// Writes the buffered bytes to the device. On failure the bytes stay
    /// buffered and the file holds no extent it did not hold before.
    fn flush(&mut self) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::flush");
        if self.buffer.is_empty() {
            return Ok(());
        }
        let write_end = self.flushed + self.buffer.len() as u64;

        // Grow the extent chain (copy-on-write against concurrent readers).
        let mut st = self.inner.state.lock();
        let mut meta = st
            .files
            .get(&self.name)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("file deleted while open for write: {}", self.name),
                )
            })?
            .as_ref()
            .clone();
        if meta.extent_capacity() < write_end {
            let shortfall = write_end - meta.extent_capacity();
            let want = shortfall.div_ceil(SEGMENT) * SEGMENT;
            // Prefer one contiguous extent; fall back to SEGMENT pieces
            // when fragmentation prevents it, and give every piece back
            // when even they run out.
            match st.alloc.allocate(want) {
                Ok(e) => meta.extents.push(e),
                Err(_) => {
                    let held = meta.extents.len();
                    let mut remaining = want;
                    while remaining > 0 {
                        match st.alloc.allocate(SEGMENT.min(remaining)) {
                            Ok(e) => {
                                remaining = remaining.saturating_sub(e.len);
                                meta.extents.push(e);
                            }
                            Err(e) => {
                                for piece in meta.extents.drain(held..) {
                                    st.alloc.free(piece);
                                }
                                return Err(io::Error::new(
                                    io::ErrorKind::StorageFull,
                                    e.to_string(),
                                ));
                            }
                        }
                    }
                }
            }
        }
        let ranges = meta.map_range(self.flushed, self.buffer.len() as u64);
        meta.len = write_end;
        st.files.insert(self.name.clone(), Arc::new(meta));
        // Release the namespace lock before sleeping in the device so other
        // files' I/O can proceed; our extents are already reserved.
        drop(st);

        let mut written = 0usize;
        for (dev_off, n) in ranges {
            self.inner
                .device
                .write_at(dev_off, &self.buffer[written..written + n])?;
            written += n;
        }
        debug_assert_eq!(written, self.buffer.len());
        self.buffer.clear();
        self.flushed = write_end;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::sync");
        // The simulated device has no volatile OS cache; flush is durable.
        self.flush()
    }

    fn len(&self) -> u64 {
        self.flushed + self.buffer.len() as u64
    }
}

impl Drop for SimWritable {
    fn drop(&mut self) {
        // Best-effort: don't lose buffered data on handle drop.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, SimDevice};
    use crate::env::{read_string_file, write_string_file};
    use crate::DeviceStats;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Duration;

    fn env() -> SimEnv {
        SimEnv::new(Arc::new(SimDevice::mem(64 << 20)))
    }

    #[test]
    fn create_write_read_roundtrip() {
        let env = env();
        let mut f = env.create("a.sst").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        let r = env.open("a.sst").unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(&r.read_at(0, 11).unwrap()[..], b"hello world");
        assert_eq!(&r.read_at(6, 5).unwrap()[..], b"world");
    }

    /// A mem device whose n-th read completes n minutes after the device
    /// was made.
    #[derive(Debug)]
    struct MinuteDevice {
        inner: SimDevice,
        made: Instant,
        reads: AtomicU64,
    }

    impl BlockDevice for MinuteDevice {
        fn submit_read(&self, offset: u64, len: usize) -> io::Result<(Bytes, Instant)> {
            let (data, _) = self.inner.submit_read(offset, len)?;
            let n = self.reads.fetch_add(1, Relaxed) + 1;
            Ok((data, self.made + Duration::from_secs(60 * n)))
        }

        fn submit_write(&self, offset: u64, data: &[u8]) -> io::Result<Instant> {
            self.inner.submit_write(offset, data)
        }

        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }

        fn stats(&self) -> &DeviceStats {
            self.inner.stats()
        }

        fn name(&self) -> &str {
            self.inner.name()
        }

        fn model_name(&self) -> &'static str {
            self.inner.model_name()
        }
    }

    /// A booked read returns at once — its device reads complete minutes
    /// later — with the data of every extent it crosses, one device read
    /// each, and the instant the last of them completes.
    #[test]
    fn a_submitted_read_books_each_extent_and_returns_the_last_completion() {
        let dev = Arc::new(MinuteDevice {
            inner: SimDevice::mem(64 << 20),
            made: Instant::now(),
            reads: Default::default(),
        });
        let env = SimEnv::new(dev.clone());
        let data: Vec<u8> = (0..2 * SEGMENT as usize + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut f = env.create("f").unwrap();
        for chunk in data.chunks(SEGMENT as usize) {
            f.append(chunk).unwrap();
            f.flush().unwrap();
        }
        drop(f);
        let r = env.open("f").unwrap();
        let (got, done) = r
            .submit_read_class(0, data.len(), ReadClass::Readahead)
            .unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(
            done,
            dev.made + Duration::from_secs(180),
            "the third read's"
        );
        assert_eq!(dev.stats().readahead_bytes(), data.len() as u64);
        let (tail, _) = r
            .submit_read_class(data.len() as u64, 10, ReadClass::Foreground)
            .unwrap();
        assert!(tail.is_empty());
    }

    #[test]
    fn read_past_eof_is_short() {
        let env = env();
        let mut f = env.create("a").unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        let r = env.open("a").unwrap();
        assert_eq!(&r.read_at(1, 100).unwrap()[..], b"bc");
        assert_eq!(r.read_at(3, 10).unwrap().len(), 0);
        assert_eq!(r.read_at(100, 10).unwrap().len(), 0);
    }

    #[test]
    fn large_file_spans_extents() {
        let env = env();
        let data: Vec<u8> = (0..(3 * SEGMENT as usize + 12345))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut f = env.create("big").unwrap();
        // Append in odd-sized pieces, flushing as we go.
        for chunk in data.chunks(100_000) {
            f.append(chunk).unwrap();
            f.flush().unwrap();
        }
        f.sync().unwrap();
        drop(f);
        let r = env.open("big").unwrap();
        assert_eq!(r.len(), data.len() as u64);
        let got = r.read_at(0, data.len()).unwrap();
        assert_eq!(&got[..], &data[..]);
        // Cross-extent read.
        let off = SEGMENT as usize - 10;
        let got = r.read_at(off as u64, 100).unwrap();
        assert_eq!(&got[..], &data[off..off + 100]);
    }

    #[test]
    fn delete_frees_space() {
        let env = env();
        let mut f = env.create("x").unwrap();
        f.append(&vec![0u8; 2 * SEGMENT as usize]).unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(env.allocated() >= 2 * SEGMENT);
        env.delete("x").unwrap();
        assert_eq!(env.allocated(), 0);
        assert!(!env.exists("x"));
        assert!(env.open("x").is_err());
    }

    #[test]
    fn rename_replaces_destination() {
        let env = env();
        write_string_file(&env, "CURRENT", "old").unwrap();
        write_string_file(&env, "CURRENT.new", "new").unwrap();
        env.rename("CURRENT.new", "CURRENT").unwrap();
        assert_eq!(read_string_file(&env, "CURRENT").unwrap(), "new");
        assert!(!env.exists("CURRENT.new"));
    }

    #[test]
    fn create_truncates_existing() {
        let env = env();
        write_string_file(&env, "f", "long contents here").unwrap();
        write_string_file(&env, "f", "x").unwrap();
        assert_eq!(read_string_file(&env, "f").unwrap(), "x");
        assert_eq!(env.size("f").unwrap(), 1);
    }

    #[test]
    fn list_reports_all_files() {
        let env = env();
        for n in ["a", "b", "c"] {
            write_string_file(&env, n, n).unwrap();
        }
        let mut names = env.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn readers_see_snapshot_at_open() {
        let env = env();
        let mut f = env.create("grow").unwrap();
        f.append(b"first").unwrap();
        f.flush().unwrap();
        let r = env.open("grow").unwrap();
        f.append(b"second").unwrap();
        f.flush().unwrap();
        // Snapshot semantics: the reader still sees only the first flush.
        assert_eq!(r.len(), 5);
        // A fresh open sees everything.
        let r2 = env.open("grow").unwrap();
        assert_eq!(r2.len(), 11);
    }

    #[test]
    fn storage_full_is_reported() {
        let dev = Arc::new(SimDevice::mem(2 * SEGMENT));
        let env = SimEnv::new(dev);
        let mut f = env.create("fill").unwrap();
        f.append(&vec![1u8; 2 * SEGMENT as usize]).unwrap();
        f.sync().unwrap();
        let mut g = env.create("more").unwrap();
        g.append(b"x").unwrap();
        let err = g.sync().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    /// A flush the device has no room for fails with `StorageFull`, holds
    /// no extent afterwards, and keeps its bytes for a flush that finds
    /// room.
    #[test]
    fn a_flush_that_runs_out_of_space_frees_what_it_took() {
        let env = SimEnv::new(Arc::new(SimDevice::mem(4 << 20)));
        let mut f = env.create("big").unwrap();
        f.append(&vec![7u8; 6 << 20]).unwrap();
        assert_eq!(f.flush().unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(env.allocated(), 0);
        env.delete("big").unwrap();
        drop(f);
        assert_eq!(env.allocated(), 0);

        write_string_file(&env, "a", &"a".repeat(2 << 20)).unwrap();
        let data: Vec<u8> = (0..3 << 20).map(|i| (i % 251) as u8).collect();
        let mut b = env.create("b").unwrap();
        b.append(&data).unwrap();
        assert_eq!(b.sync().unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(env.allocated(), 2 << 20, "only a's extents");
        env.delete("a").unwrap();
        b.sync().unwrap();
        drop(b);
        assert_eq!(
            &env.open("b").unwrap().read_at(0, data.len()).unwrap()[..],
            &data[..]
        );
        env.delete("b").unwrap();
        assert_eq!(env.allocated(), 0);
    }

    #[test]
    fn churn_then_full_reuse() {
        let env = SimEnv::new(Arc::new(SimDevice::mem(8 << 20)));
        for round in 0..20 {
            let name = format!("t{}", round % 3);
            let mut f = env.create(&name).unwrap();
            f.append(&vec![round as u8; 700_000]).unwrap();
            f.sync().unwrap();
        }
        for n in env.list().unwrap() {
            env.delete(&n).unwrap();
        }
        assert_eq!(env.allocated(), 0);
        assert_eq!(env.free_fragments(), 1);
    }
}
