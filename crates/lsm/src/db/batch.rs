//! [`WriteBatch`]: a set of writes applied atomically, and its encoding as
//! one WAL record.

use pcp_sstable::key::{SequenceNumber, ValueType};
use std::io;

/// A set of writes applied atomically (one WAL record).
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    entries: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
}

/// One operation of a [`WriteBatch`], as yielded by [`WriteBatch::ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert `key → value`.
    Put {
        /// Key to insert.
        key: &'a [u8],
        /// Value to store.
        value: &'a [u8],
    },
    /// Remove `key`.
    Delete {
        /// Key to tombstone.
        key: &'a [u8],
    },
}

impl<'a> BatchOp<'a> {
    /// The key this operation touches.
    pub fn key(&self) -> &'a [u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Delete { key } => key,
        }
    }
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queues a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.entries
            .push((ValueType::Value, key.to_vec(), value.to_vec()));
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.entries
            .push((ValueType::Deletion, key.to_vec(), Vec::new()));
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The queued operations, in insertion order — how a layer above
    /// (e.g. a sharded engine fanning a batch out to sub-databases)
    /// inspects a batch without re-encoding it.
    pub fn ops(&self) -> impl Iterator<Item = BatchOp<'_>> + '_ {
        self.entries.iter().map(|(t, k, v)| match t {
            ValueType::Value => BatchOp::Put { key: k, value: v },
            ValueType::Deletion => BatchOp::Delete { key: k },
        })
    }

    /// Approximate encoded size, used to cap how many batches one group
    /// leader merges into a single WAL record.
    pub(super) fn approximate_bytes(&self) -> usize {
        12 + self
            .entries
            .iter()
            .map(|(_, k, v)| k.len() + v.len() + 19)
            .sum::<usize>()
    }

    /// The entries as `(type, key, value)` borrows, for memtable insertion.
    pub(crate) fn entry_refs(
        &self,
    ) -> impl Iterator<Item = (ValueType, &[u8], &[u8])> + '_ {
        self.entries
            .iter()
            .map(|(t, k, v)| (*t, k.as_slice(), v.as_slice()))
    }

    /// Appends the entry encodings (no header) to `out` — the group leader
    /// concatenates several batches' entries under one record header.
    pub(super) fn encode_entries(&self, out: &mut Vec<u8>) {
        for (t, k, v) in &self.entries {
            out.push(*t as u8);
            pcp_codec::put_u64(out, k.len() as u64);
            out.extend_from_slice(k);
            pcp_codec::put_u64(out, v.len() as u64);
            out.extend_from_slice(v);
        }
    }

    pub(super) fn decode(record: &[u8]) -> io::Result<(SequenceNumber, WriteBatch)> {
        let corrupt = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        if record.len() < 12 {
            return Err(corrupt("batch record too short"));
        }
        let seq = pcp_codec::read_u64_le(record, 0)
            .ok_or_else(|| corrupt("batch record too short for sequence"))?;
        let count = pcp_codec::read_u32_le(record, 8)
            .ok_or_else(|| corrupt("batch record too short for count"))?;
        let mut batch = WriteBatch::new();
        let mut input = &record[12..];
        for _ in 0..count {
            let (&tag, rest) = input
                .split_first()
                .ok_or_else(|| corrupt("truncated batch entry"))?;
            let t = ValueType::from_u8(tag).ok_or_else(|| corrupt("bad value type"))?;
            let (klen, n) =
                pcp_codec::decode_u64(rest).map_err(|_| corrupt("bad key length"))?;
            let rest = &rest[n..];
            if rest.len() < klen as usize {
                return Err(corrupt("truncated key"));
            }
            let (key, rest) = rest.split_at(klen as usize);
            let (vlen, n) =
                pcp_codec::decode_u64(rest).map_err(|_| corrupt("bad value length"))?;
            let rest = &rest[n..];
            if rest.len() < vlen as usize {
                return Err(corrupt("truncated value"));
            }
            let (value, rest) = rest.split_at(vlen as usize);
            batch.entries.push((t, key.to_vec(), value.to_vec()));
            input = rest;
        }
        Ok((seq, batch))
    }
}
