//! Write-ahead log.
//!
//! Record format: `[masked crc32c: u32le][len: u32le][payload]`. Replay
//! stops cleanly at the first torn or corrupt record, which is exactly the
//! durability contract a crash leaves behind. (LevelDB's 32 KB-block
//! fragmentation exists to bound resync scans after corruption in the
//! middle of a long log; with per-record CRCs and tail-truncation-only
//! crashes, the simpler framing recovers the same committed prefix.)
//!
//! Replay (of a WAL and of the MANIFEST) reads the log front to back
//! through [`SpanReader`], the engine's one sequential reader: one
//! foreground device read per span, 256 KiB first and doubling to the
//! file's end, the next booked while the current one is parsed, never a
//! read per record. A record across two spans is stitched from both. A read
//! error ends replay with that error, never as a shorter prefix.

use pcp_codec::{crc32c, mask_crc, unmask_crc};
use pcp_sstable::readahead::MAX_SPAN_BLOCKS;
use pcp_sstable::TableBuilderOptions;
use pcp_storage::{Env, ReadClass, SpanReader, WritableFile};
use std::io;

const HEADER: usize = 8;

/// Appends length-prefixed, checksummed records to a log file.
pub struct WalWriter {
    file: Box<dyn WritableFile>,
}

impl WalWriter {
    /// Creates a new log at `name`.
    pub fn create(env: &dyn Env, name: &str) -> io::Result<WalWriter> {
        Ok(WalWriter {
            file: env.create(name)?,
        })
    }

    /// Appends one record; durable once [`WalWriter::sync`] returns.
    pub fn add_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let crc = mask_crc(crc32c(payload));
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.file.append(&header)?;
        self.file.append(payload)
    }

    /// Forces everything appended so far to the device.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync()
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.file.len() == 0
    }
}

/// Replays a log, yielding the committed record prefix.
pub struct WalReader {
    /// Spans of whole 4 KiB units (a table's default block), so the first
    /// is a whole-table cursor's 256 KiB.
    spans: SpanReader<u64>,
    len: u64,
    offset: u64,
    /// Set when replay stopped because of a torn/corrupt record rather than
    /// clean EOF.
    corruption_detected: bool,
}

impl WalReader {
    /// Opens `name` for replay.
    pub fn open(env: &dyn Env, name: &str) -> io::Result<WalReader> {
        let file = env.open(name)?;
        let len = file.len();
        let unit = TableBuilderOptions::default().block_size as u64;
        Ok(WalReader {
            spans: SpanReader::new(file, ReadClass::Foreground, MAX_SPAN_BLOCKS, unit),
            len,
            offset: 0,
            corruption_detected: false,
        })
    }

    /// Next committed record, or `None` at end of the valid prefix. A read
    /// error is returned as it is: it never ends replay as a torn tail would.
    pub fn next_record(&mut self) -> io::Result<Option<Vec<u8>>> {
        let at = self.offset + HEADER as u64;
        if at > self.len {
            self.corruption_detected |= self.offset != self.len; // torn header
            return Ok(None);
        }
        let header = self.spans.read(self.offset..at)?;
        let (Some(crc_word), Some(len_word)) = (
            pcp_codec::read_u32_le(&header, 0),
            pcp_codec::read_u32_le(&header, 4),
        ) else {
            self.corruption_detected = true;
            return Ok(None);
        };
        let end = at + u64::from(len_word);
        if end > self.len {
            self.corruption_detected = true; // torn tail
            return Ok(None);
        }
        let payload = self.spans.read(at..end)?;
        if crc32c(&payload) != unmask_crc(crc_word) {
            self.corruption_detected = true;
            return Ok(None);
        }
        self.offset = end;
        Ok(Some(payload.to_vec()))
    }

    /// True when replay ended at a torn or corrupt record.
    pub fn corruption_detected(&self) -> bool {
        self.corruption_detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcp_storage::{BlockDevice, SimDevice, SimEnv};
    use std::sync::Arc;

    fn env() -> SimEnv {
        SimEnv::new(Arc::new(SimDevice::mem(16 << 20)))
    }

    #[test]
    fn write_then_replay_all_records() {
        let env = env();
        let mut w = WalWriter::create(&env, "000001.log").unwrap();
        let records: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 50)).into_bytes())
            .collect();
        for r in &records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let mut r = WalReader::open(&env, "000001.log").unwrap();
        for want in &records {
            assert_eq!(r.next_record().unwrap().as_deref(), Some(want.as_slice()));
        }
        assert!(r.next_record().unwrap().is_none());
        assert!(!r.corruption_detected());
    }

    #[test]
    fn empty_record_roundtrips() {
        let env = env();
        let mut w = WalWriter::create(&env, "l").unwrap();
        w.add_record(b"").unwrap();
        w.add_record(b"after-empty").unwrap();
        w.sync().unwrap();
        drop(w);
        let mut r = WalReader::open(&env, "l").unwrap();
        assert_eq!(r.next_record().unwrap(), Some(Vec::new()));
        assert_eq!(r.next_record().unwrap(), Some(b"after-empty".to_vec()));
    }

    #[test]
    fn torn_tail_yields_committed_prefix() {
        let env = env();
        let mut w = WalWriter::create(&env, "l").unwrap();
        w.add_record(b"committed-1").unwrap();
        w.add_record(b"committed-2").unwrap();
        w.sync().unwrap();
        // Simulate a torn append: header promises more bytes than exist.
        let mut header = [0u8; HEADER];
        header[4..].copy_from_slice(&1000u32.to_le_bytes());
        let mut f = {
            // Re-create by copying the synced prefix, then appending junk.
            let data = env.open("l").unwrap();
            let all = data.read_at(0, data.len() as usize).unwrap();
            let mut f2 = env.create("torn").unwrap();
            f2.append(&all).unwrap();
            f2
        };
        f.append(&header).unwrap();
        f.append(b"short").unwrap();
        f.sync().unwrap();
        drop(f);

        let mut r = WalReader::open(&env, "torn").unwrap();
        assert_eq!(r.next_record().unwrap(), Some(b"committed-1".to_vec()));
        assert_eq!(r.next_record().unwrap(), Some(b"committed-2".to_vec()));
        assert!(r.next_record().unwrap().is_none());
        assert!(r.corruption_detected());
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let env = env();
        let mut w = WalWriter::create(&env, "l").unwrap();
        w.add_record(b"good-record").unwrap();
        w.add_record(b"will-be-corrupted").unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip one payload byte of the second record.
        let data = env.open("l").unwrap();
        let mut all = data.read_at(0, data.len() as usize).unwrap().to_vec();
        let second_payload_at = HEADER + b"good-record".len() + HEADER;
        all[second_payload_at] ^= 0xFF;
        let mut f = env.create("l").unwrap();
        f.append(&all).unwrap();
        f.sync().unwrap();
        drop(f);

        let mut r = WalReader::open(&env, "l").unwrap();
        assert_eq!(r.next_record().unwrap(), Some(b"good-record".to_vec()));
        assert!(r.next_record().unwrap().is_none());
        assert!(r.corruption_detected());
    }

    /// A crash can land mid-header: the device persisted the last full
    /// block write, and the record header itself straddles that boundary.
    /// Only the first half of the header survives; replay must treat the
    /// committed prefix as complete and flag corruption, not misread the
    /// half-header as a length.
    #[test]
    fn header_split_across_sync_boundary_yields_prefix() {
        let env = env();
        let mut w = WalWriter::create(&env, "l").unwrap();
        w.add_record(b"durable-before-boundary").unwrap();
        w.sync().unwrap();
        drop(w);

        // Append the first half of the next record's header as its own
        // write (the part that made it into the last synced block), with
        // the second half and the payload lost to the crash.
        let next = b"never-committed";
        let crc = mask_crc(crc32c(next));
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..].copy_from_slice(&(next.len() as u32).to_le_bytes());
        for split in 1..HEADER {
            let name = format!("split-{split}");
            let base = env.open("l").unwrap();
            let all = base.read_at(0, base.len() as usize).unwrap();
            let mut f = env.create(&name).unwrap();
            f.append(&all).unwrap();
            f.append(&header[..split]).unwrap();
            f.sync().unwrap();
            drop(f);

            let mut r = WalReader::open(&env, &name).unwrap();
            assert_eq!(
                r.next_record().unwrap(),
                Some(b"durable-before-boundary".to_vec()),
                "split at {split}"
            );
            assert!(r.next_record().unwrap().is_none(), "split at {split}");
            assert!(r.corruption_detected(), "split at {split}");
        }
    }

    /// The whole header made it across the sync boundary but none of the
    /// payload did: replay sees a length promising bytes past EOF.
    #[test]
    fn header_committed_payload_lost_at_boundary() {
        let env = env();
        let mut w = WalWriter::create(&env, "l").unwrap();
        w.add_record(b"durable").unwrap();
        w.sync().unwrap();
        let payload = b"payload-lost-in-crash";
        let crc = mask_crc(crc32c(payload));
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let base = env.open("l").unwrap();
        let all = base.read_at(0, base.len() as usize).unwrap();
        let mut f = env.create("torn2").unwrap();
        f.append(&all).unwrap();
        f.append(&header).unwrap();
        f.sync().unwrap();
        drop(f);

        let mut r = WalReader::open(&env, "torn2").unwrap();
        assert_eq!(r.next_record().unwrap(), Some(b"durable".to_vec()));
        assert!(r.next_record().unwrap().is_none());
        assert!(r.corruption_detected());
    }

    #[test]
    fn empty_log_replays_cleanly() {
        let env = env();
        let mut w = WalWriter::create(&env, "l").unwrap();
        w.sync().unwrap();
        drop(w);
        let mut r = WalReader::open(&env, "l").unwrap();
        assert!(r.next_record().unwrap().is_none());
        assert!(!r.corruption_detected());
    }

    /// A log longer than three spans (256 KiB, 512 KiB, 1 MiB, then the
    /// rest), with a record across every span boundary: it replays in full
    /// and in order from one device read per span; a flipped CRC byte in the
    /// second span ends replay there; a cut in the last span leaves the
    /// prefix before it.
    #[test]
    fn replay_across_span_boundaries() {
        let device = Arc::new(SimDevice::mem(16 << 20));
        let env = SimEnv::new(device.clone());
        let records: Vec<Vec<u8>> = (0..2600u32)
            .map(|i| vec![i as u8; 900 + (i as usize * 37) % 200])
            .collect();
        let mut w = WalWriter::create(&env, "l").unwrap();
        let mut starts = Vec::new();
        for r in &records {
            starts.push(w.len());
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let len = env.size("l").unwrap();
        let boundaries = [256 << 10, 768 << 10, 1792 << 10];
        assert!(len > boundaries[2], "{len} bytes is not four spans");
        for b in boundaries {
            let i = starts.partition_point(|&s| s < b) - 1;
            assert!(starts[i] + HEADER as u64 + (records[i].len() as u64) > b);
        }
        let replay = |name: &str| {
            let mut r = WalReader::open(&env, name).unwrap();
            let got: Vec<Vec<u8>> = std::iter::from_fn(|| r.next_record().unwrap()).collect();
            (got, r.corruption_detected())
        };
        let reads = device.stats().read_ops();
        assert_eq!(replay("l"), (records.clone(), false));
        assert_eq!(device.stats().read_ops() - reads, 4, "one read per span");

        let all = env.open("l").unwrap().read_at(0, len as usize).unwrap();
        let rewrite = |name: &str, bytes: &[u8]| {
            let mut f = env.create(name).unwrap();
            f.append(bytes).unwrap();
            f.sync().unwrap();
        };
        let bad = starts.partition_point(|&s| s < 300 << 10);
        let mut flipped = all.to_vec();
        flipped[starts[bad] as usize] ^= 0x01;
        rewrite("flipped", &flipped);
        assert_eq!(replay("flipped"), (records[..bad].to_vec(), true));

        let cut = starts.partition_point(|&s| s < 2 << 20);
        rewrite("cut", &all[..starts[cut] as usize + HEADER + 5]);
        assert_eq!(replay("cut"), (records[..cut].to_vec(), true));
    }
}
