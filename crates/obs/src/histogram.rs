//! Log-bucketed concurrent histogram over `u64` values.
//!
//! Fixed memory (512 buckets, 4 KiB), lock-free recording, ~12.5 %
//! worst-case bucket width: buckets are powers of 2^(1/8) — 8 sub-buckets
//! per octave with 3 mantissa bits, 64 octaves covering the full `u64`
//! range (values 0–23 get exact buckets). This is the one histogram
//! implementation in the workspace: operation latencies, device service
//! times, and any other long-tailed quantity all record here, so their
//! quantiles are comparable by construction.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// 8 sub-buckets per octave, 64 octaves: the whole `u64` range.
const SUB: usize = 8;
const BUCKETS: usize = SUB * 64;

/// Concurrent log-bucketed histogram.
///
/// ```
/// let h = pcp_obs::Histogram::new();
/// h.record(1000);
/// h.record(2000);
/// assert_eq!(h.count(), 2);
/// assert!(h.quantile(0.5) >= 1000 * 7 / 8);
/// ```
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

/// `a = min(a + v, u64::MAX)` — the sum must not wrap when fed extreme
/// samples (e.g. `u64::MAX`), or the mean turns nonsense.
fn saturating_fetch_add(a: &AtomicU64, v: u64) {
    let mut cur = a.load(Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match a.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for `v`: exact below 24, then one octave per 8
    /// buckets with 3 bits of mantissa.
    #[inline]
    pub(crate) fn bucket_of(v: u64) -> usize {
        if v < 24 {
            return v as usize;
        }
        let log2 = 63 - v.leading_zeros() as usize;
        let frac = (v >> (log2 - 3)) & 0x7;
        (log2 * SUB + frac as usize).min(BUCKETS - 1)
    }

    /// Lower bound of bucket `i` (smallest value mapping to it).
    pub(crate) fn bucket_floor(i: usize) -> u64 {
        if i < 24 {
            return i as u64;
        }
        let log2 = i / SUB;
        let frac = (i % SUB) as u64;
        (1u64 << log2) + (frac << (log2 - 3))
    }

    /// Inclusive upper bound of bucket `i` (largest value mapping to it).
    pub(crate) fn bucket_ceil(i: usize) -> u64 {
        if i < 24 {
            // Exact buckets hold exactly one value. (Buckets 24–35 are
            // unreachable: values ≥ 24 start at index 36.)
            return i as u64;
        }
        if i + 1 >= BUCKETS {
            return u64::MAX;
        }
        Self::bucket_floor(i + 1) - 1
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        saturating_fetch_add(&self.sum, v);
        self.max.fetch_max(v, Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile `q` ∈ \[0, 1\] (the matching bucket's lower
    /// bound; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max()
    }

    /// Plain-data copy: non-empty buckets only.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n > 0 {
                buckets.push((i, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// Immutable view of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, sample count)` for every non-empty bucket, in
    /// ascending bucket order.
    pub buckets: Vec<(usize, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile `q` ∈ \[0, 1\] (bucket lower bound).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_floor(i);
            }
        }
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Cumulative `(inclusive upper bound, count of samples ≤ bound)`
    /// pairs over the non-empty buckets — the Prometheus `_bucket{le=…}`
    /// series (the exposition layer appends the `+Inf` bucket).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for &(i, n) in &self.buckets {
            running += n;
            out.push((Histogram::bucket_ceil(i), running));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_recorded_exactly() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn u64_max_is_representable_and_does_not_wrap_the_sum() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.max(), u64::MAX);
        // The quantile lands in the top bucket.
        let q = h.quantile(0.99);
        assert_eq!(q, Histogram::bucket_floor(BUCKETS - 1));
        assert!(q > u64::MAX / 2);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_round_trips() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            2,
            3,
            7,
            8,
            23,
            24,
            25,
            100,
            1000,
            1 << 20,
            1 << 40,
            1 << 62,
            u64::MAX,
        ] {
            let b = Histogram::bucket_of(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            prev = b;
            // floor ≤ v ≤ ceil, and the floor maps back to the same bucket.
            assert!(Histogram::bucket_floor(b) <= v);
            assert!(v <= Histogram::bucket_ceil(b));
            assert_eq!(Histogram::bucket_of(Histogram::bucket_floor(b)), b);
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_ceil(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn sum_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5e6).abs() / 5e6 < 0.15, "p50 {p50}");
        assert!((p99 - 9.9e6).abs() / 9.9e6 < 0.15, "p99 {p99}");
        assert!(h.quantile(1.0) >= h.quantile(0.5));
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 10_000_000);
        }
        let mut prev = 0u64;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) regressed");
            prev = v;
        }
    }

    #[test]
    fn snapshot_matches_live_view() {
        let h = Histogram::new();
        for i in 0..100u64 {
            h.record(i * 7919);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 99 * 7919);
        for q in [0.25, 0.5, 0.9] {
            assert_eq!(snap.quantile(q), h.quantile(q));
        }
        let cumulative = snap.cumulative();
        assert_eq!(cumulative.last().unwrap().1, 100);
        // Cumulative counts are non-decreasing with increasing bounds.
        for w in cumulative.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn duration_round_trip() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(100));
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 1e5).abs() / 1e5 < 0.15, "p50 {p50}");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test threads, joined before returning"
    )]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record((t + 1) * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
    }
}
