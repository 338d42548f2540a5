//! I/O-tracing device wrapper.
//!
//! [`TraceDevice`] records every request booked on the wrapped device —
//! direction, offset and length — so experiments can assert *what I/O
//! actually happened* (e.g. "PCP issues one read per sub-task per run",
//! "compaction writes are sequential") rather than inferring it from
//! aggregate counters.

use crate::device::BlockDevice;
use crate::model::IoKind;
use crate::stats::DeviceStats;
use crate::DeviceRef;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io;
use std::time::Instant;

/// One recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    pub kind: IoKind,
    pub offset: u64,
    pub len: usize,
}

/// A [`BlockDevice`] decorator that records the request stream.
pub struct TraceDevice {
    inner: DeviceRef,
    trace: Mutex<Vec<TraceRecord>>,
}

impl std::fmt::Debug for TraceDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceDevice")
            .field("inner", &self.inner.name())
            .field("records", &self.trace.lock().len())
            .finish()
    }
}

impl TraceDevice {
    /// Wraps `inner`.
    pub fn new(inner: DeviceRef) -> TraceDevice {
        TraceDevice {
            inner,
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the recorded requests, in booking order.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.trace.lock().clone()
    }

    /// Drops all recorded requests (e.g. after a setup phase).
    pub fn clear(&self) {
        self.trace.lock().clear();
    }

    /// Number of records matching `kind`.
    pub fn count(&self, kind: IoKind) -> usize {
        self.trace.lock().iter().filter(|r| r.kind == kind).count()
    }

    /// Mean request length for `kind`, in bytes (0 when none).
    pub fn mean_len(&self, kind: IoKind) -> f64 {
        let trace = self.trace.lock();
        let (n, total) = trace
            .iter()
            .filter(|r| r.kind == kind)
            .fold((0usize, 0usize), |(n, t), r| (n + 1, t + r.len));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Fraction of `kind` requests that continue exactly where the
    /// previous same-kind request ended (sequentiality metric).
    pub fn sequential_fraction(&self, kind: IoKind) -> f64 {
        let trace = self.trace.lock();
        let mut last_end: Option<u64> = None;
        let (mut n, mut seq) = (0usize, 0usize);
        for r in trace.iter().filter(|r| r.kind == kind) {
            if let Some(end) = last_end {
                n += 1;
                if r.offset == end {
                    seq += 1;
                }
            }
            last_end = Some(r.offset + r.len as u64);
        }
        if n == 0 {
            0.0
        } else {
            seq as f64 / n as f64
        }
    }
}

impl BlockDevice for TraceDevice {
    fn submit_read(&self, offset: u64, len: usize) -> io::Result<(Bytes, Instant)> {
        let booked = self.inner.submit_read(offset, len)?;
        self.trace.lock().push(TraceRecord {
            kind: IoKind::Read,
            offset,
            len,
        });
        Ok(booked)
    }

    fn submit_write(&self, offset: u64, data: &[u8]) -> io::Result<Instant> {
        let done = self.inner.submit_write(offset, data)?;
        self.trace.lock().push(TraceRecord {
            kind: IoKind::Write,
            offset,
            len: data.len(),
        });
        Ok(done)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use std::sync::Arc;

    fn traced() -> (Arc<TraceDevice>, DeviceRef) {
        let dev = Arc::new(TraceDevice::new(Arc::new(SimDevice::mem(1 << 20))));
        let as_device: DeviceRef = dev.clone();
        (dev, as_device)
    }

    #[test]
    fn records_reads_and_writes_in_order() {
        let (trace, dev) = traced();
        dev.write_at(0, b"hello").unwrap();
        dev.read_at(0, 5).unwrap();
        dev.write_at(100, b"x").unwrap();
        let t = trace.trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].kind, IoKind::Write);
        assert_eq!(t[0].len, 5);
        assert_eq!(t[1].kind, IoKind::Read);
        assert_eq!(t[2].offset, 100);
        assert_eq!(trace.count(IoKind::Write), 2);
        assert_eq!(trace.count(IoKind::Read), 1);
    }

    #[test]
    fn passthrough_preserves_data() {
        let (_, dev) = traced();
        dev.write_at(10, b"payload").unwrap();
        assert_eq!(&dev.read_at(10, 7).unwrap()[..], b"payload");
    }

    #[test]
    fn sequentiality_metric() {
        let (trace, dev) = traced();
        // Three back-to-back writes, then a jump.
        dev.write_at(0, &[0; 100]).unwrap();
        dev.write_at(100, &[0; 100]).unwrap();
        dev.write_at(200, &[0; 100]).unwrap();
        dev.write_at(10_000, &[0; 100]).unwrap();
        let f = trace.sequential_fraction(IoKind::Write);
        assert!((f - 2.0 / 3.0).abs() < 1e-9, "{f}");
        assert_eq!(trace.mean_len(IoKind::Write), 100.0);
    }

    #[test]
    fn clear_resets() {
        let (trace, dev) = traced();
        dev.write_at(0, b"a").unwrap();
        trace.clear();
        assert!(trace.trace().is_empty());
    }
}
