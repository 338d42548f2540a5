//! The output side of every executor: size-rotated tables at the output
//! level, each handed to the table cache as it finishes, and the orphan
//! sweep when the compaction fails.

use crate::exec::CompactionRequest;
use crate::filename::table_file;
use crate::meta::FileMetadata;
use pcp_sstable::key::user_key;
use pcp_sstable::{Result as TableResult, TableBuilder};
use std::sync::Arc;

/// Owns the output tables of one compaction: allocates their file numbers,
/// creates them, starts a new one once the current table is over
/// [`CompactionRequest::max_output_bytes`], describes each finished table
/// as a [`FileMetadata`] and puts its reader into
/// [`CompactionRequest::tables`], and evicts and deletes whatever it
/// created if the compaction fails. What goes *into* a table — entries or
/// sealed blocks — is the caller's business ([`OutputSink::append`]).
pub struct OutputSink<'req> {
    req: &'req CompactionRequest,
    builder: Option<(u64, TableBuilder)>, // (file number, builder)
    smallest: Vec<u8>,
    last_user_key: Vec<u8>,
    outputs: Vec<Arc<FileMetadata>>,
    /// Numbers of outputs whose finish failed, pending abort cleanup.
    aborted_numbers: Vec<u64>,
}

impl<'req> OutputSink<'req> {
    /// Creates a sink for `req`'s output level.
    pub fn new(req: &'req CompactionRequest) -> Self {
        OutputSink {
            req,
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
            .is_some_and(|(_, b)| b.estimated_size() >= self.req.max_output_bytes)
            && user_key(first_key) != self.last_user_key.as_slice();
        if rotate {
            self.finish_current()?;
        }
        let builder = match &mut self.builder {
            Some((_, b)) => b,
            None => {
                let number = self.req.next_file_number();
                let table = self.req.tables.create(number, self.req.table_opts.clone())?;
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
                self.req.tables.insert(number, meta)?;
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

    /// Evicts and deletes every output table this sink created (the
    /// in-progress table and all finished ones), so a failed compaction
    /// leaves neither a reader nor an orphan behind. Best-effort: a file
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
            self.req.tables.evict(number);
            if self.req.tables.env().delete(&table_file(number)).is_ok() {
                deleted += 1;
            }
        }
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ResourceGrant;
    use crate::table_cache::TableCache;
    use pcp_sstable::key::{make_internal_key, ValueType, MAX_SEQUENCE};
    use pcp_sstable::TableBuilderOptions;
    use pcp_storage::{SimDevice, SimEnv};
    use std::sync::atomic::AtomicU64;

    fn request() -> CompactionRequest {
        CompactionRequest {
            tables: Arc::new(TableCache::new(Arc::new(SimEnv::new(Arc::new(SimDevice::mem(
                16 << 20,
            )))))),
            upper: vec![],
            lower: vec![],
            output_level: 1,
            bottom_level: false,
            smallest_snapshot: MAX_SEQUENCE,
            file_numbers: Arc::new(AtomicU64::new(1)),
            table_opts: TableBuilderOptions { block_size: 256, ..Default::default() },
            max_output_bytes: 1 << 10,
            grant: ResourceGrant::unlimited(),
        }
    }

    /// Appends five versions of each of `keys` user keys.
    fn fill(sink: &mut OutputSink, keys: u64) {
        for k in 0..keys {
            for version in (0..5u64).rev() {
                let user = format!("key{k:04}");
                let ikey = make_internal_key(user.as_bytes(), k * 5 + version + 1, ValueType::Value);
                // Incompressible enough that 1 KiB is crossed every few keys.
                let value = (k * 5 + version).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes().repeat(8);
                sink.append(&ikey, &ikey, |b| b.add(&ikey, &value)).unwrap();
            }
        }
    }

    /// Five versions per user key and a rotation threshold every table
    /// crosses mid-key: a new table still starts only at a new user key.
    #[test]
    fn rotation_never_splits_the_versions_of_a_user_key() {
        let req = request();
        let mut sink = OutputSink::new(&req);
        fill(&mut sink, 200);
        let outputs = sink.finish().unwrap();
        assert!(outputs.len() > 10, "rotation expected, got {}", outputs.len());
        assert_eq!(outputs.iter().map(|f| f.entries).sum::<u64>(), 1000);
        for f in &outputs {
            assert_eq!(f.entries % 5, 0, "table {} holds part of a version chain", f.number);
        }
        for w in outputs.windows(2) {
            assert!(user_key(&w[0].largest) < user_key(&w[1].smallest));
        }
    }

    /// Every finished output is readable from the cache with nothing read
    /// back; an abort takes the readers out again with the files.
    #[test]
    fn finished_outputs_are_handed_to_the_table_cache_and_abort_evicts_them() {
        let req = request();
        let mut sink = OutputSink::new(&req);
        fill(&mut sink, 50);
        let outputs = sink.finish().unwrap();
        assert_eq!(req.tables.len(), outputs.len());
        for f in &outputs {
            assert_eq!(req.tables.get(f.number).unwrap().stats().entries, f.entries);
        }
        assert_eq!(req.tables.cold_opens(), 0);

        let mut sink = OutputSink::new(&req);
        fill(&mut sink, 50);
        sink.flush().unwrap();
        sink.abort();
        assert_eq!(req.tables.len(), outputs.len(), "an aborted output stayed cached");
        assert_eq!(req.tables.env().list().unwrap().len(), outputs.len());
    }
}
