//! Real-filesystem [`Env`] built on `std::fs`.
//!
//! Used to sanity-check the engine against an actual filesystem and to run
//! the examples on real disks. All paper experiments use [`crate::SimEnv`]
//! instead, for determinism.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real-filesystem Env is the designated std::fs owner; everything above it goes \
              through Env"
)]

use crate::env::{Env, RandomReadFile, WritableFile};
use bytes::Bytes;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A flat-namespace filesystem rooted at a directory.
#[derive(Debug)]
pub struct StdFsEnv {
    root: PathBuf,
}

impl StdFsEnv {
    /// Creates (if needed) and wraps the directory `root`.
    pub fn new(root: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(StdFsEnv {
            root: root.as_ref().to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Env for StdFsEnv {
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        parking_lot::check_blocking("Env::create");
        let file = fs::File::create(self.path(name))?;
        Ok(Box::new(StdWritable {
            file,
            buffer: Vec::new(),
            flushed: 0,
        }))
    }

    fn open(&self, name: &str) -> io::Result<Arc<dyn RandomReadFile>> {
        parking_lot::check_blocking("Env::open");
        let file = fs::File::open(self.path(name))?;
        let len = file.metadata()?.len();
        Ok(Arc::new(StdReadable {
            file: parking_lot::Mutex::new(file),
            len,
        }))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        parking_lot::check_blocking("Env::delete");
        fs::remove_file(self.path(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        parking_lot::check_blocking("Env::rename");
        fs::rename(self.path(from), self.path(to))
    }

    fn exists(&self, name: &str) -> bool {
        parking_lot::check_blocking("Env::exists");
        self.path(name).exists()
    }

    fn list(&self) -> io::Result<Vec<String>> {
        parking_lot::check_blocking("Env::list");
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    out.push(name.to_string());
                }
            }
        }
        Ok(out)
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        parking_lot::check_blocking("Env::size");
        Ok(fs::metadata(self.path(name))?.len())
    }
}

struct StdWritable {
    file: fs::File,
    buffer: Vec<u8>,
    flushed: u64,
}

impl WritableFile for StdWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::append");
        self.buffer.extend_from_slice(data);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::flush");
        if !self.buffer.is_empty() {
            self.file.write_all(&self.buffer)?;
            self.flushed += self.buffer.len() as u64;
            self.buffer.clear();
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        parking_lot::check_blocking("WritableFile::sync");
        self.flush()?;
        self.file.sync_data()
    }

    fn len(&self) -> u64 {
        self.flushed + self.buffer.len() as u64
    }
}

impl Drop for StdWritable {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

struct StdReadable {
    // Positional reads via seek+read under a lock: portable (no unix-only
    // FileExt), and the engine's read concurrency is per-file modest.
    file: parking_lot::Mutex<fs::File>,
    len: u64,
}

impl RandomReadFile for StdReadable {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        parking_lot::check_blocking("RandomReadFile::read_at");
        if offset >= self.len {
            return Ok(Bytes::new());
        }
        let len = len.min((self.len - offset) as usize);
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{read_string_file, write_string_file};

    fn temp_env(tag: &str) -> (StdFsEnv, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pcp-stdenv-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (StdFsEnv::new(&dir).unwrap(), dir)
    }

    #[test]
    fn roundtrip() {
        let (env, dir) = temp_env("rt");
        let mut f = env.create("a").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        let r = env.open("a").unwrap();
        assert_eq!(&r.read_at(0, 5).unwrap()[..], b"hello");
        assert_eq!(r.len(), 5);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rename_and_list_and_delete() {
        let (env, dir) = temp_env("ops");
        write_string_file(&env, "x", "1").unwrap();
        env.rename("x", "y").unwrap();
        assert!(!env.exists("x"));
        assert_eq!(read_string_file(&env, "y").unwrap(), "1");
        assert_eq!(env.size("y").unwrap(), 1);
        let names = env.list().unwrap();
        assert!(names.contains(&"y".to_string()));
        env.delete("y").unwrap();
        assert!(!env.exists("y"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn short_reads_at_eof() {
        let (env, dir) = temp_env("eof");
        write_string_file(&env, "f", "abcdef").unwrap();
        let r = env.open("f").unwrap();
        assert_eq!(&r.read_at(4, 100).unwrap()[..], b"ef");
        assert!(r.read_at(6, 1).unwrap().is_empty());
        let _ = fs::remove_dir_all(dir);
    }
}
