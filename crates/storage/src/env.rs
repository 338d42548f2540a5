//! The filesystem abstraction the LSM engine programs against.
//!
//! Modeled on LevelDB's `Env`: the engine never touches `std::fs` or a
//! block device directly, so the same engine runs over [`crate::SimEnv`]
//! (simulated HDD/SSD/RAID latencies, used for all paper experiments) and
//! [`crate::StdFsEnv`] (real files, used to sanity-check the engine on an
//! actual filesystem).
//!
//! A positional read either waits for its data
//! ([`RandomReadFile::read_at_class`]) or is only booked
//! ([`RandomReadFile::submit_read_class`]): the data comes back at once
//! with the instant the device completes the request, and the caller
//! waits that instant out when it needs the data
//! ([`crate::blocking::sleep_until`]). A scan cursor books its next span
//! that way and decodes the current one meanwhile, so the device and the
//! CPU work at once on the read path as they do in a pipelined
//! compaction. A file with no device timeline (a real file) reads at once
//! and reports the read done.

use bytes::Bytes;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// An append-only file handle (WAL, SSTable under construction, MANIFEST).
pub trait WritableFile: Send {
    /// Buffers `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Pushes buffered data to the device. One `flush` is one device write,
    /// so the caller controls I/O granularity (e.g. one write per sub-task,
    /// the unit of compaction step S7).
    fn flush(&mut self) -> io::Result<()>;

    /// Flushes and then makes the data durable.
    fn sync(&mut self) -> io::Result<()>;

    /// Bytes appended so far (buffered or not).
    fn len(&self) -> u64;

    /// True if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Scheduling class of a positional read. Storage models use it to
/// account speculative scan readahead separately from reads a caller is
/// blocked on; the service model itself is unchanged (the device is still
/// occupied for the same time either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadClass {
    /// A read on the caller's critical path (point get, sync block load).
    #[default]
    Foreground,
    /// A speculative read issued by the scan readahead stage.
    Readahead,
}

/// A positional-read file handle (immutable SSTables, recovery-time logs).
pub trait RandomReadFile: Send + Sync {
    /// Reads `len` bytes at `offset`. Short reads at end-of-file return
    /// only the available bytes.
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes>;

    /// Like [`read_at`](RandomReadFile::read_at) with a scheduling-class
    /// hint. The default implementation ignores the hint; storage models
    /// override it to tally readahead I/O.
    fn read_at_class(&self, offset: u64, len: usize, _class: ReadClass) -> io::Result<Bytes> {
        self.read_at(offset, len)
    }

    /// Books [`read_at_class`](RandomReadFile::read_at_class) without
    /// waiting for it: returns the data and the instant the read completes,
    /// which the caller sleeps to before it counts the data as read. The
    /// default reads synchronously and returns `Instant::now()`; files
    /// over a simulated device override it to book the device's timeline.
    fn submit_read_class(
        &self,
        offset: u64,
        len: usize,
        class: ReadClass,
    ) -> io::Result<(Bytes, Instant)> {
        let data = self.read_at_class(offset, len, class)?;
        Ok((data, Instant::now()))
    }

    /// File length in bytes.
    fn len(&self) -> u64;

    /// True if the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A flat-namespace filesystem.
pub trait Env: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) a file and returns an append handle.
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>>;

    /// Opens an existing file for positional reads.
    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>>;

    /// Removes a file.
    fn delete(&self, name: &str) -> io::Result<()>;

    /// Atomically renames `from` to `to`, replacing `to` if present.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// True if `name` exists.
    fn exists(&self, name: &str) -> bool;

    /// All file names, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Size of `name` in bytes.
    fn size(&self, name: &str) -> io::Result<u64>;
}

/// Writes an entire file in one call (helper for CURRENT-style pointers).
pub fn write_string_file(env: &dyn Env, name: &str, contents: &str) -> io::Result<()> {
    let tmp = format!("{name}.tmp");
    let mut f = env.create(&tmp)?;
    f.append(contents.as_bytes())?;
    f.sync()?;
    drop(f);
    env.rename(&tmp, name)
}

/// Reads an entire file to a `String` (helper for CURRENT-style pointers).
pub fn read_string_file(env: &dyn Env, name: &str) -> io::Result<String> {
    let f = env.open(name)?;
    let data = f.read_at(0, f.len() as usize)?;
    String::from_utf8(data.to_vec())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}
