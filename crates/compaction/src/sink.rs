//! The output side of every table writer: a flush's one level-0 table or
//! a merge's size-rotated tables, each handed to the table cache as it
//! finishes, and the sweep of what a failed job wrote.

use crate::meta::FileMetadata;
use crate::table_cache::TableCache;
use pcp_sstable::key::user_key;
use pcp_sstable::{Result as TableResult, TableBuilder, TableBuilderOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Owns the output tables of one job: draws their file numbers from the
/// shared counter, creates them, starts a new one once the current table
/// is over `max_table_bytes` (`u64::MAX`: never — a flush), describes each
/// finished table as a [`FileMetadata`] and puts its reader into the
/// [`TableCache`], and evicts and deletes whatever it created if the job
/// fails. What goes *into* a table — entries or sealed blocks — is the
/// caller's business ([`OutputSink::append`]).
pub struct OutputSink<'a> {
    tables: &'a TableCache,
    file_numbers: &'a AtomicU64,
    table_opts: TableBuilderOptions,
    max_table_bytes: u64,
    builder: Option<(u64, TableBuilder)>, // (file number, builder)
    smallest: Vec<u8>,
    last_user_key: Vec<u8>,
    outputs: Vec<Arc<FileMetadata>>,
    /// Numbers of outputs whose finish failed, pending abort cleanup.
    aborted_numbers: Vec<u64>,
}

impl<'a> OutputSink<'a> {
    /// Creates a sink whose tables go into `tables`, numbered from
    /// `file_numbers`, formatted by `table_opts`, rotated past
    /// `max_table_bytes`.
    pub fn new(
        tables: &'a TableCache,
        file_numbers: &'a AtomicU64,
        table_opts: TableBuilderOptions,
        max_table_bytes: u64,
    ) -> Self {
        OutputSink {
            tables,
            file_numbers,
            table_opts,
            max_table_bytes,
            builder: None,
            smallest: Vec::new(),
            last_user_key: Vec::new(),
            outputs: Vec::new(),
            aborted_numbers: Vec::new(),
        }
    }

    /// Lets `put` append to the current table whatever spans the internal
    /// keys `first_key..=last_key` (one entry or one block, in internal-key
    /// order across calls).
    pub fn append(
        &mut self,
        first_key: &[u8],
        last_key: &[u8],
        put: impl FnOnce(&mut TableBuilder) -> TableResult<()>,
    ) -> TableResult<()> {
        // Rotate between user keys only: splitting one user key's versions
        // across two tables would break the level's disjointness invariant.
        let rotate = self
            .builder
            .as_ref()
            .is_some_and(|(_, b)| b.estimated_size() >= self.max_table_bytes)
            && user_key(first_key) != self.last_user_key.as_slice();
        if rotate {
            self.finish_current()?;
        }
        let builder = match &mut self.builder {
            Some((_, b)) => b,
            None => {
                let number = self.file_numbers.fetch_add(1, Ordering::SeqCst);
                let table = self.tables.create(number, self.table_opts.clone())?;
                self.smallest = first_key.to_vec();
                &mut self.builder.insert((number, table)).1
            }
        };
        put(builder)?;
        self.last_user_key.clear();
        self.last_user_key.extend_from_slice(user_key(last_key));
        Ok(())
    }

    /// Pushes what the current table has buffered to the device.
    pub fn flush(&mut self) -> TableResult<()> {
        match &mut self.builder {
            Some((_, b)) => b.flush_io(),
            None => Ok(()),
        }
    }

    fn finish_current(&mut self) -> TableResult<()> {
        if let Some((number, builder)) = self.builder.take() {
            let largest = builder.last_key().to_vec();
            let handed_off = builder.finish().and_then(|meta| {
                let stats = meta.stats();
                self.tables.insert(number, meta)?;
                Ok(stats)
            });
            let stats = match handed_off {
                Ok(stats) => stats,
                Err(e) => {
                    // The half-written table is already an orphan; remember
                    // it so abort() can sweep it.
                    self.aborted_numbers.push(number);
                    return Err(e);
                }
            };
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

    /// Finishes the last table and returns the outputs in key order. On
    /// error the sink still owns every created file — call
    /// [`OutputSink::abort`] to sweep them.
    pub fn finish(&mut self) -> TableResult<Vec<Arc<FileMetadata>>> {
        self.finish_current()?;
        Ok(std::mem::take(&mut self.outputs))
    }

    /// Discards every output table this sink created (the in-progress
    /// table and all finished ones; [`TableCache::discard`]), so a failed
    /// job leaves neither a reader nor an orphan behind. Returns how many
    /// files were deleted.
    pub fn abort(&mut self) -> usize {
        if let Some((number, builder)) = self.builder.take() {
            drop(builder); // close the file handle before unlinking
            self.aborted_numbers.push(number);
        }
        let numbers = self
            .aborted_numbers
            .drain(..)
            .chain(self.outputs.drain(..).map(|m| m.number));
        let tables = self.tables;
        numbers.filter(|&number| tables.discard(number)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_sstable::key::{make_internal_key, ValueType};
    use pcp_storage::{SimDevice, SimEnv};

    fn tables() -> TableCache {
        TableCache::new(Arc::new(SimEnv::new(Arc::new(SimDevice::mem(16 << 20)))))
    }

    /// A sink of 256-byte blocks rotating past `max_table_bytes`.
    fn sink<'a>(
        tables: &'a TableCache,
        numbers: &'a AtomicU64,
        max_table_bytes: u64,
    ) -> OutputSink<'a> {
        let opts = TableBuilderOptions {
            block_size: 256,
            ..Default::default()
        };
        OutputSink::new(tables, numbers, opts, max_table_bytes)
    }

    /// Appends five versions of each of `keys` user keys.
    fn fill(sink: &mut OutputSink, keys: u64) {
        for k in 0..keys {
            for version in (0..5u64).rev() {
                let user = format!("key{k:04}");
                let ikey =
                    make_internal_key(user.as_bytes(), k * 5 + version + 1, ValueType::Value);
                // Incompressible enough that 1 KiB is crossed every few keys.
                let value = (k * 5 + version)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .to_le_bytes()
                    .repeat(8);
                sink.append(&ikey, &ikey, |b| b.add(&ikey, &value)).unwrap();
            }
        }
    }

    /// Five versions per user key and a rotation threshold every table
    /// crosses mid-key: a new table still starts only at a new user key.
    /// With rotation off the same entries make one table.
    #[test]
    fn rotation_never_splits_the_versions_of_a_user_key() {
        let (tables, numbers) = (tables(), AtomicU64::new(1));
        let mut rotating = sink(&tables, &numbers, 1 << 10);
        fill(&mut rotating, 200);
        let outputs = rotating.finish().unwrap();
        assert!(
            outputs.len() > 10,
            "rotation expected, got {}",
            outputs.len()
        );
        assert_eq!(outputs.iter().map(|f| f.entries).sum::<u64>(), 1000);
        for f in &outputs {
            assert_eq!(
                f.entries % 5,
                0,
                "table {} holds part of a version chain",
                f.number
            );
        }
        for w in outputs.windows(2) {
            assert!(user_key(&w[0].largest) < user_key(&w[1].smallest));
        }

        let mut one = sink(&tables, &numbers, u64::MAX);
        fill(&mut one, 200);
        let outputs = one.finish().unwrap();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].entries, 1000);
        assert_eq!(outputs[0].number, numbers.load(Ordering::SeqCst) - 1);
    }

    /// Every finished output is readable from the cache with nothing read
    /// back; an abort takes the readers out again with the files.
    #[test]
    fn finished_outputs_are_handed_to_the_table_cache_and_abort_evicts_them() {
        let (tables, numbers) = (tables(), AtomicU64::new(1));
        let mut first = sink(&tables, &numbers, 1 << 10);
        fill(&mut first, 50);
        let outputs = first.finish().unwrap();
        assert_eq!(tables.len(), outputs.len());
        for f in &outputs {
            assert_eq!(tables.get(f.number).unwrap().stats().entries, f.entries);
        }
        assert_eq!(tables.cold_opens(), 0);

        let mut failed = sink(&tables, &numbers, 1 << 10);
        fill(&mut failed, 50);
        failed.flush().unwrap();
        failed.abort();
        assert_eq!(
            tables.len(),
            outputs.len(),
            "an aborted output stayed cached"
        );
        assert_eq!(tables.env().list().unwrap().len(), outputs.len());
    }
}
