//! Block devices.
//!
//! [`SimDevice`] pairs an in-memory sparse backing store with a
//! [`LatencyModel`]. Every request is serviced under a per-device mutex —
//! one disk arm, one firmware queue — and the modeled service time is
//! realized by *sleeping while holding the lock*. Concurrent callers
//! therefore queue behind each other exactly like requests at a real
//! device, and a thread waiting on I/O leaves the CPU to compute threads:
//! the overlap the pipelined compaction procedure exploits. The service
//! lock is one of the two locks the deadlock witness lets a thread hold
//! across blocking work (`Mutex::held_across_blocking`).

use crate::model::{IoKind, LatencyModel, ModelState, NullModel};
use crate::stats::DeviceStats;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Byte-addressed storage with positional reads and writes.
///
/// Implementations must be safe for concurrent use; whether requests are
/// serviced serially (one arm) or in parallel (RAID) is up to the device.
pub trait BlockDevice: Send + Sync + std::fmt::Debug {
    /// Reads `len` bytes at `offset`. Unwritten ranges read as zeros.
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes>;

    /// Writes `data` at `offset`.
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Addressable capacity in bytes.
    fn capacity(&self) -> u64;

    /// Monotone I/O counters for this device.
    fn stats(&self) -> &DeviceStats;

    /// Instance name (e.g. `"hdd0"`).
    fn name(&self) -> &str;

    /// Latency-model name (e.g. `"hdd-7200rpm"`).
    fn model_name(&self) -> &'static str;
}

/// Size of one backing-store chunk. Sparse: chunks materialize on first
/// write, so a 1 TB device costs memory proportional to live data only.
const CHUNK: usize = 64 * 1024;

struct Inner {
    chunks: HashMap<u64, Box<[u8]>>,
    mstate: ModelState,
    /// Monotone model-time clock; see [`SimDevice::model_now_locked`].
    model_clock: Duration,
}

/// An in-memory block device with modeled service times.
pub struct SimDevice {
    name: String,
    model: Box<dyn LatencyModel>,
    capacity: u64,
    /// Multiplier applied to modeled durations before sleeping. `1.0` is
    /// real time; `0.0` disables sleeping entirely (pure correctness runs).
    /// Stats always record the *unscaled* modeled durations.
    time_scale: f64,
    inner: Mutex<Inner>,
    stats: DeviceStats,
    epoch: Instant,
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("name", &self.name)
            .field("model", &self.model.name())
            .field("capacity", &self.capacity)
            .field("time_scale", &self.time_scale)
            .finish()
    }
}

impl SimDevice {
    /// Creates a device with the given latency model and time scale.
    pub fn new(
        name: impl Into<String>,
        model: impl LatencyModel + 'static,
        capacity: u64,
        time_scale: f64,
    ) -> Self {
        assert!(time_scale >= 0.0, "time_scale must be non-negative");
        SimDevice {
            name: name.into(),
            model: Box::new(model),
            capacity,
            time_scale,
            inner: Mutex::held_across_blocking(
                Inner {
                    chunks: HashMap::new(),
                    mstate: ModelState::default(),
                    model_clock: Duration::ZERO,
                },
                "the service lock is the device model: one request at a time sleeps its \
                 service time under it, so concurrent I/O queues as at a real spindle",
            ),
            stats: DeviceStats::new(),
            epoch: Instant::now(),
        }
    }

    /// A latency-free in-memory device ("RAM disk") for tests.
    pub fn mem(capacity: u64) -> Self {
        SimDevice::new("mem", NullModel, capacity, 0.0)
    }

    /// The model-time "now" used for background effects (buffer drain).
    ///
    /// With a positive time scale, wall time maps back to model time by the
    /// inverse scale. With scale zero there is no wall anchor, so model time
    /// advances only by accumulated service durations.
    fn model_now(&self, inner: &Inner) -> Duration {
        if self.time_scale > 0.0 {
            let wall = self.epoch.elapsed();
            let mapped = wall.div_f64(self.time_scale);
            mapped.max(inner.model_clock)
        } else {
            inner.model_clock
        }
    }

    fn check_bounds(&self, offset: u64, len: usize) -> io::Result<()> {
        if offset.checked_add(len as u64).is_none_or(|end| end > self.capacity) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "request [{offset}, +{len}) beyond capacity {} of {}",
                    self.capacity, self.name
                ),
            ));
        }
        Ok(())
    }

    fn service(&self, kind: IoKind, offset: u64, len: usize, inner: &mut Inner) -> Duration {
        let now = self.model_now(inner);
        let t = self
            .model
            .service_time(kind, offset, len, now, &mut inner.mstate);
        let total = t.total();
        inner.model_clock = now + total;
        if self.time_scale > 0.0 {
            let sleep = total.mul_f64(self.time_scale);
            if !sleep.is_zero() {
                crate::blocking::sleep(sleep);
            }
        }
        match kind {
            IoKind::Read => self.stats.record_read(len as u64, total, t.position),
            IoKind::Write => self.stats.record_write(len as u64, total, t.position),
        }
        total
    }
}

impl BlockDevice for SimDevice {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.check_bounds(offset, len)?;
        let mut inner = self.inner.lock();
        self.service(IoKind::Read, offset, len, &mut inner);

        let mut out = vec![0u8; len];
        let mut copied = 0usize;
        while copied < len {
            let abs = offset + copied as u64;
            let chunk_idx = abs / CHUNK as u64;
            let within = (abs % CHUNK as u64) as usize;
            let n = (CHUNK - within).min(len - copied);
            if let Some(chunk) = inner.chunks.get(&chunk_idx) {
                out[copied..copied + n].copy_from_slice(&chunk[within..within + n]);
            }
            copied += n;
        }
        Ok(Bytes::from(out))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.check_bounds(offset, data.len())?;
        let mut inner = self.inner.lock();
        self.service(IoKind::Write, offset, data.len(), &mut inner);

        let mut copied = 0usize;
        while copied < data.len() {
            let abs = offset + copied as u64;
            let chunk_idx = abs / CHUNK as u64;
            let within = (abs % CHUNK as u64) as usize;
            let n = (CHUNK - within).min(data.len() - copied);
            let chunk = inner
                .chunks
                .entry(chunk_idx)
                .or_insert_with(|| vec![0u8; CHUNK].into_boxed_slice());
            chunk[within..within + n].copy_from_slice(&data[copied..copied + n]);
            copied += n;
        }
        Ok(())
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn model_name(&self) -> &'static str {
        self.model.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HddModel;

    #[test]
    fn write_then_read_roundtrip() {
        let dev = SimDevice::mem(1 << 20);
        dev.write_at(100, b"hello block device").unwrap();
        let got = dev.read_at(100, 18).unwrap();
        assert_eq!(&got[..], b"hello block device");
    }

    #[test]
    fn unwritten_ranges_read_zero() {
        let dev = SimDevice::mem(1 << 20);
        dev.write_at(CHUNK as u64, b"x").unwrap();
        let got = dev.read_at(0, 16).unwrap();
        assert_eq!(&got[..], &[0u8; 16]);
    }

    #[test]
    fn write_spanning_chunks() {
        let dev = SimDevice::mem(1 << 20);
        let data: Vec<u8> = (0..(CHUNK + 100)).map(|i| (i % 251) as u8).collect();
        let off = (CHUNK - 50) as u64;
        dev.write_at(off, &data).unwrap();
        let got = dev.read_at(off, data.len()).unwrap();
        assert_eq!(&got[..], &data[..]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let dev = SimDevice::mem(1024);
        assert!(dev.write_at(1000, &[0u8; 100]).is_err());
        assert!(dev.read_at(1024, 1).is_err());
        assert!(dev.read_at(u64::MAX, 16).is_err());
        // Exactly at capacity is fine.
        dev.write_at(1000, &[1u8; 24]).unwrap();
    }

    #[test]
    fn stats_record_modeled_time() {
        let dev = SimDevice::new("hdd0", HddModel::default(), 1 << 30, 0.0);
        dev.read_at(0, 1 << 20).unwrap();
        dev.read_at(1 << 25, 4096).unwrap(); // forces a seek
        let s = dev.stats().snapshot();
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.read_bytes, (1 << 20) + 4096);
        assert!(s.busy > Duration::ZERO);
        assert!(s.seek_time > Duration::ZERO);
        assert!(s.seek_time < s.busy);
    }

    #[test]
    fn scale_zero_does_not_sleep() {
        let dev = SimDevice::new("hdd0", HddModel::default(), 1 << 30, 0.0);
        let t0 = Instant::now();
        for i in 0..50 {
            dev.read_at(i * 8192, 4096).unwrap();
        }
        assert!(t0.elapsed() < Duration::from_millis(100), "no real sleeping");
        assert!(dev.stats().busy() > Duration::from_millis(10), "modeled time accrues");
    }

    #[test]
    fn scaled_sleep_is_roughly_proportional() {
        // Eight scattered 4 KiB reads on the physical HDD model: ~5 ms of
        // modeled seek + rotation each and no data handling to speak of,
        // so wall time is the scaled sleeps plus their overshoot — about
        // half the modeled time at scale 0.5. A sleep is never short, so
        // the lower bound holds on every attempt; a busy host only makes
        // sleeps longer, so the upper bound takes the best of three.
        let dev = SimDevice::new("hdd0", HddModel::sata_7200(), 1 << 30, 0.5);
        let mut best_ratio = f64::INFINITY;
        for attempt in 0..3u64 {
            let before = dev.stats().busy();
            let t0 = Instant::now();
            for i in 0..8u64 {
                dev.read_at(((attempt * 8 + i) * 37 % 16) << 26, 4096).unwrap();
            }
            let wall = t0.elapsed();
            let modeled = dev.stats().busy() - before;
            assert!(wall >= modeled.mul_f64(0.4), "wall {wall:?} vs modeled {modeled:?}");
            best_ratio = best_ratio.min(wall.as_secs_f64() / modeled.as_secs_f64());
        }
        assert!(best_ratio < 2.0, "best wall/modeled = {best_ratio:.2}");
    }

    #[test]
    fn model_clock_is_monotone_across_requests() {
        let dev = SimDevice::new("hdd0", HddModel::default(), 1 << 30, 0.0);
        dev.write_at(0, &vec![0u8; 1 << 20]).unwrap();
        dev.read_at(0, 1 << 20).unwrap();
        let c1 = dev.inner.lock().model_clock;
        dev.read_at(1 << 21, 4096).unwrap();
        let c2 = dev.inner.lock().model_clock;
        assert!(c2 > c1);
    }
}
