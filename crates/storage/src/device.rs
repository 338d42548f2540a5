//! Block devices.
//!
//! [`SimDevice`] pairs an in-memory sparse backing store with a
//! [`LatencyModel`]. The device keeps a timeline: the model instant its last
//! booked request completes. A request is booked under a per-device mutex —
//! one disk arm, one firmware queue — which it holds only to charge its
//! modeled service time after the request ahead of it (or from now, on an
//! idle device), copy its data and record its stats. The caller then sleeps
//! to the booked completion with no lock held ([`BlockDevice::read_at`],
//! [`BlockDevice::write_at`]). Concurrent callers therefore queue in booking
//! order exactly like requests at a real device, without one waking late
//! delaying the next, and a thread waiting on I/O leaves the CPU to compute
//! threads: the overlap the pipelined compaction procedure exploits.

use crate::blocking::sleep_until;
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
/// A device implements the non-blocking pair `submit_read` / `submit_write`,
/// which transfer the data at once and return the instant the request
/// completes; the provided `read_at` / `write_at` sleep to that instant,
/// the one place device time is waited out.
pub trait BlockDevice: Send + Sync + std::fmt::Debug {
    /// Reads `len` bytes at `offset` and books the read without waiting for
    /// it: returns the data and the instant the request completes.
    /// Unwritten ranges read as zeros.
    fn submit_read(&self, offset: u64, len: usize) -> io::Result<(Bytes, Instant)>;

    /// Writes `data` at `offset` and books the write without waiting for
    /// it: returns the instant the request completes.
    fn submit_write(&self, offset: u64, data: &[u8]) -> io::Result<Instant>;

    /// Reads `len` bytes at `offset`, returning once the request completes.
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        let (data, done) = self.submit_read(offset, len)?;
        sleep_until(done);
        Ok(data)
    }

    /// Writes `data` at `offset`, returning once the request completes.
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        sleep_until(self.submit_write(offset, data)?);
        Ok(())
    }

    /// Addressable capacity in bytes.
    fn capacity(&self) -> u64;

    /// Monotone I/O counters for this device.
    fn stats(&self) -> &DeviceStats;

    /// Instance name (e.g. `"hdd0"`).
    fn name(&self) -> &str;

    /// Latency-model name (e.g. `"hdd-7200rpm"`).
    fn model_name(&self) -> &'static str;
}

/// Rejects a request to device `name` that does not end within `capacity`.
pub(crate) fn check_bounds(name: &str, capacity: u64, offset: u64, len: usize) -> io::Result<()> {
    if offset
        .checked_add(len as u64)
        .is_none_or(|end| end > capacity)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("request [{offset}, +{len}) beyond capacity {capacity} of {name}"),
        ));
    }
    Ok(())
}

/// Size of one backing-store chunk. Sparse: chunks materialize on first
/// write, so a 1 TB device costs memory proportional to live data only.
const CHUNK: usize = 64 * 1024;

struct Inner {
    chunks: HashMap<u64, Box<[u8]>>,
    mstate: ModelState,
    /// The timeline: the model instant the last booked request completes.
    model_clock: Duration,
}

/// An in-memory block device with modeled service times.
pub struct SimDevice {
    name: String,
    model: Box<dyn LatencyModel>,
    capacity: u64,
    /// Multiplier mapping model time to wall time. `1.0` is real time;
    /// `0.0` disables sleeping entirely (pure correctness runs). Stats
    /// always record the *unscaled* modeled durations.
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
            inner: Mutex::new(Inner {
                chunks: HashMap::new(),
                mstate: ModelState::default(),
                model_clock: Duration::ZERO,
            }),
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

    /// Books a request on the timeline: charges its modeled service time
    /// from `max(now, model_clock)` and records it. Returns the wall instant
    /// the request completes (the epoch itself at time scale zero).
    fn book(&self, kind: IoKind, offset: u64, len: usize, inner: &mut Inner) -> Instant {
        let now = self.model_now(inner);
        let t = self
            .model
            .service_time(kind, offset, len, now, &mut inner.mstate);
        let total = t.total();
        inner.model_clock = now + total;
        match kind {
            IoKind::Read => self.stats.record_read(len as u64, total, t.position),
            IoKind::Write => self.stats.record_write(len as u64, total, t.position),
        }
        self.epoch + inner.model_clock.mul_f64(self.time_scale)
    }
}

impl BlockDevice for SimDevice {
    fn submit_read(&self, offset: u64, len: usize) -> io::Result<(Bytes, Instant)> {
        check_bounds(&self.name, self.capacity, offset, len)?;
        let mut out = vec![0u8; len];
        let mut inner = self.inner.lock();
        let done = self.book(IoKind::Read, offset, len, &mut inner);
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
        Ok((Bytes::from(out), done))
    }

    fn submit_write(&self, offset: u64, data: &[u8]) -> io::Result<Instant> {
        check_bounds(&self.name, self.capacity, offset, data.len())?;
        let mut inner = self.inner.lock();
        let done = self.book(IoKind::Write, offset, data.len(), &mut inner);
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
        Ok(done)
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
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "no real sleeping"
        );
        assert!(
            dev.stats().busy() > Duration::from_millis(10),
            "modeled time accrues"
        );
    }

    /// An HDD whose every read away from the head seeks for `seek`: with a
    /// long seek, reads booked back to back always find the device busy.
    fn slow_hdd(name: &str, seek: Duration, time_scale: f64) -> SimDevice {
        let model = HddModel {
            min_seek: seek,
            max_seek: seek,
            ..HddModel::default()
        };
        SimDevice::new(name, model, 1 << 30, time_scale)
    }

    #[test]
    fn back_to_back_bookings_chain() {
        // Booking does not sleep, so the second request is booked long
        // before the first completes: it queues behind it and completes
        // exactly its scaled service time later (up to the scale's 1 ns
        // rounding).
        let dev = slow_hdd("hdd0", Duration::from_secs(10), 0.5);
        let (_, first) = dev.submit_read(1 << 29, 4096).unwrap();
        let busy = dev.stats().busy();
        let (_, second) = dev.submit_read(0, 4096).unwrap();
        let service = dev.stats().busy() - busy;
        let gap = second - first;
        let want = service.mul_f64(0.5);
        assert!(
            gap.abs_diff(want) <= Duration::from_nanos(1),
            "gap {gap:?}, want {want:?}"
        );
    }

    #[test]
    fn an_idle_device_completes_one_service_after_arrival() {
        let dev = slow_hdd("hdd0", Duration::from_secs(1), 1.0);
        let before = Instant::now();
        let (_, done) = dev.submit_read(1 << 29, 4096).unwrap();
        let after = Instant::now();
        let service = dev.stats().busy();
        assert!(
            done >= before + service,
            "{:?} early",
            before + service - done
        );
        assert!(
            done <= after + service,
            "{:?} late",
            done - (after + service)
        );
    }

    #[test]
    fn read_at_never_returns_before_its_instant() {
        // Each request completes a service after it is booked, and the
        // next is booked only once `read_at` returned: the wall time of the
        // loop is at least the modeled time at scale 1.
        let dev = SimDevice::new("ssd0", crate::model::SsdModel::default(), 1 << 30, 1.0);
        let t0 = Instant::now();
        for i in 0..8u64 {
            dev.read_at((i * 37 % 16) << 20, 4096).unwrap();
        }
        let wall = t0.elapsed();
        let modeled = dev.stats().busy();
        assert!(wall >= modeled, "wall {wall:?} vs modeled {modeled:?}");
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
