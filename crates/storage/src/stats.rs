//! Per-device counters used by the profiling harnesses.
//!
//! All counters are relaxed atomics: they are monotone tallies read only
//! after the workload quiesces (or approximately, for progress reporting),
//! so no ordering is required beyond atomicity — see the "Statistics"
//! discussion in Mara Bos's *Rust Atomics and Locks*, ch. 2/3.

use pcp_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Monotone counters for one device (or one RAID array).
#[derive(Debug, Default)]
pub struct DeviceStats {
    read_ops: AtomicU64,
    read_bytes: AtomicU64,
    write_ops: AtomicU64,
    write_bytes: AtomicU64,
    /// Busy time, nanoseconds: for a device, the sum of its requests'
    /// modeled service times; for a RAID0 array, the sum of its requests'
    /// wall spans from arrival to the latest member's completion.
    busy_nanos: AtomicU64,
    /// Modeled seek/access overhead within `busy_nanos`, nanoseconds.
    seek_nanos: AtomicU64,
    /// Subset of `read_ops`/`read_bytes` issued by the scan readahead
    /// stage (off the caller's critical path).
    readahead_ops: AtomicU64,
    readahead_bytes: AtomicU64,
    /// Per-op modeled service-time distribution, reads (nanoseconds).
    read_latency: Arc<Histogram>,
    /// Per-op modeled service-time distribution, writes (nanoseconds).
    write_latency: Arc<Histogram>,
}

impl DeviceStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_read(&self, bytes: u64, busy: Duration, seek: Duration) {
        self.read_ops.fetch_add(1, Relaxed);
        self.read_bytes.fetch_add(bytes, Relaxed);
        self.busy_nanos.fetch_add(busy.as_nanos() as u64, Relaxed);
        self.seek_nanos.fetch_add(seek.as_nanos() as u64, Relaxed);
        self.read_latency.record_duration(busy);
    }

    pub(crate) fn record_write(&self, bytes: u64, busy: Duration, seek: Duration) {
        self.write_ops.fetch_add(1, Relaxed);
        self.write_bytes.fetch_add(bytes, Relaxed);
        self.busy_nanos.fetch_add(busy.as_nanos() as u64, Relaxed);
        self.seek_nanos.fetch_add(seek.as_nanos() as u64, Relaxed);
        self.write_latency.record_duration(busy);
    }

    /// Tags one already-recorded read of `bytes` as scan readahead.
    pub fn record_readahead(&self, bytes: u64) {
        self.readahead_ops.fetch_add(1, Relaxed);
        self.readahead_bytes.fetch_add(bytes, Relaxed);
    }

    /// Number of read operations serviced.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Relaxed)
    }

    /// Read operations issued by the scan readahead stage.
    pub fn readahead_ops(&self) -> u64 {
        self.readahead_ops.load(Relaxed)
    }

    /// Bytes read by the scan readahead stage.
    pub fn readahead_bytes(&self) -> u64 {
        self.readahead_bytes.load(Relaxed)
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Relaxed)
    }

    /// Number of write operations serviced.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Relaxed)
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Relaxed)
    }

    /// Total modeled busy time.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Relaxed))
    }

    /// Modeled positioning (seek + rotation / access-latency) time.
    pub fn seek_time(&self) -> Duration {
        Duration::from_nanos(self.seek_nanos.load(Relaxed))
    }

    /// Per-op modeled read service-time distribution (nanoseconds).
    pub fn read_latency(&self) -> &Arc<Histogram> {
        &self.read_latency
    }

    /// Per-op modeled write service-time distribution (nanoseconds).
    pub fn write_latency(&self) -> &Arc<Histogram> {
        &self.write_latency
    }

    /// Snapshot of all counters, for before/after deltas.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            read_ops: self.read_ops(),
            read_bytes: self.read_bytes(),
            write_ops: self.write_ops(),
            write_bytes: self.write_bytes(),
            busy: self.busy(),
            seek_time: self.seek_time(),
        }
    }
}

/// Registers `device`'s counters and latency histograms in `registry`
/// under the `pcp_device_*` namespace, labelled `device="<label>"`.
/// Counters are exported by closure collector (the device keeps its own
/// atomics, read at scrape time); the latency histograms are shared by
/// `Arc`, so the registry sees every sample the device records. Works for
/// any [`BlockDevice`](crate::BlockDevice) — [`SimDevice`](crate::SimDevice),
/// [`Raid0`](crate::Raid0) (whose array-level stats count logical requests,
/// busy for each from its arrival to its latest member's completion; its
/// members keep their own stats), or a trace wrapper.
pub fn register_device_metrics(
    registry: &pcp_obs::Registry,
    label: &str,
    device: &crate::DeviceRef,
) {
    let labels = vec![("device".to_string(), label.to_string())];
    type Getter = fn(&DeviceStats) -> u64;
    let counters: [(&str, &str, Getter); 8] = [
        ("pcp_device_read_ops_total", "read operations serviced", |s| s.read_ops()),
        ("pcp_device_read_bytes_total", "bytes read", |s| s.read_bytes()),
        ("pcp_device_readahead_ops_total", "read operations issued by scan readahead", |s| {
            s.readahead_ops()
        }),
        ("pcp_device_readahead_bytes_total", "bytes read by scan readahead", |s| {
            s.readahead_bytes()
        }),
        ("pcp_device_write_ops_total", "write operations serviced", |s| s.write_ops()),
        ("pcp_device_write_bytes_total", "bytes written", |s| s.write_bytes()),
        ("pcp_device_busy_nanoseconds_total", "modeled device busy time", |s| {
            s.busy_nanos.load(Relaxed)
        }),
        ("pcp_device_seek_nanoseconds_total", "modeled positioning time within busy time", |s| {
            s.seek_nanos.load(Relaxed)
        }),
    ];
    for (name, help, get) in counters {
        let dev = Arc::clone(device);
        registry.register_fn_counter(name, help, labels.clone(), move || get(dev.stats()));
    }
    registry.register_histogram(
        "pcp_device_read_latency_nanoseconds",
        "per-op modeled read service time",
        labels.clone(),
        Arc::clone(device.stats().read_latency()),
    );
    registry.register_histogram(
        "pcp_device_write_latency_nanoseconds",
        "per-op modeled write service time",
        labels,
        Arc::clone(device.stats().write_latency()),
    );
}

/// Plain-data copy of [`DeviceStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub write_ops: u64,
    pub write_bytes: u64,
    pub busy: Duration,
    pub seek_time: Duration,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            read_bytes: self.read_bytes.saturating_sub(earlier.read_bytes),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            busy: self.busy.saturating_sub(earlier.busy),
            seek_time: self.seek_time.saturating_sub(earlier.seek_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DeviceStats::new();
        s.record_read(4096, Duration::from_micros(100), Duration::from_micros(10));
        s.record_read(4096, Duration::from_micros(100), Duration::from_micros(10));
        s.record_write(8192, Duration::from_micros(50), Duration::ZERO);
        assert_eq!(s.read_ops(), 2);
        assert_eq!(s.read_bytes(), 8192);
        assert_eq!(s.write_ops(), 1);
        assert_eq!(s.write_bytes(), 8192);
        assert_eq!(s.busy(), Duration::from_micros(250));
        assert_eq!(s.seek_time(), Duration::from_micros(20));
    }

    #[test]
    fn latency_histograms_track_ops() {
        let s = DeviceStats::new();
        s.record_read(4096, Duration::from_micros(100), Duration::ZERO);
        s.record_write(4096, Duration::from_micros(50), Duration::ZERO);
        s.record_write(4096, Duration::from_micros(70), Duration::ZERO);
        assert_eq!(s.read_latency().count(), 1);
        assert_eq!(s.write_latency().count(), 2);
        assert_eq!(s.read_latency().max(), 100_000);
        assert!(s.write_latency().mean() >= 50_000);
    }

    #[test]
    fn register_device_metrics_exports_counters_and_histograms() {
        use crate::{DeviceRef, SimDevice};
        let dev: DeviceRef = Arc::new(SimDevice::mem(1 << 20));
        dev.write_at(0, &[7u8; 4096]).unwrap();
        dev.read_at(0, 4096).unwrap();
        let registry = pcp_obs::Registry::new();
        register_device_metrics(&registry, "mem0", &dev);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("pcp_device_read_ops_total", &[("device", "mem0")]),
            1
        );
        assert_eq!(
            snap.counter("pcp_device_write_bytes_total", &[("device", "mem0")]),
            4096
        );
        // Ops recorded after registration are visible too (shared state).
        dev.read_at(0, 512).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("pcp_device_read_ops_total", &[("device", "mem0")]),
            2
        );
        match &snap
            .get_with(
                "pcp_device_read_latency_nanoseconds",
                &[("device", "mem0")],
            )
            .unwrap()
            .value
        {
            pcp_obs::SampleValue::Histogram(h) => assert_eq!(h.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        pcp_obs::validate_exposition(&registry.render_prometheus()).unwrap();
    }

    #[test]
    fn snapshot_delta() {
        let s = DeviceStats::new();
        s.record_read(100, Duration::from_micros(5), Duration::ZERO);
        let a = s.snapshot();
        s.record_write(200, Duration::from_micros(7), Duration::ZERO);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.read_ops, 0);
        assert_eq!(d.write_ops, 1);
        assert_eq!(d.write_bytes, 200);
        assert_eq!(d.busy, Duration::from_micros(7));
    }
}
