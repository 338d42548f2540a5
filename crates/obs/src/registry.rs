//! The metrics registry: named, labelled instruments in one place.
//!
//! Components *register* once (taking the `parking_lot` mutex). Counters
//! and gauges stay where they already live — plain atomics inside the
//! component — and are exported through closure collectors
//! ([`Registry::register_fn_counter`] / [`Registry::register_fn_gauge`])
//! read only at scrape time; a histogram is an `Arc` the component records
//! into lock-free forever after.
//!
//! Scraping ([`Registry::snapshot`]) takes the mutex, reads every
//! instrument once, and returns plain data; rendering to Prometheus text
//! or JSON happens on the snapshot, outside the lock.

use crate::histogram::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::sync::Arc;

/// Label set: `(name, value)` pairs attached to one instrument.
pub type Labels = Vec<(String, String)>;

enum Instrument {
    Histogram(Arc<Histogram>),
    FnCounter(Box<dyn Fn() -> u64 + Send + Sync>),
    FnGauge(Box<dyn Fn() -> f64 + Send + Sync>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::FnCounter(_) => "counter",
            Instrument::FnGauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Labels,
    instrument: Instrument,
}

/// A collection of named instruments; the unit of exposition.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
/// use std::sync::Arc;
///
/// let reqs = Arc::new(AtomicU64::new(0));
/// let registry = pcp_obs::Registry::new();
/// let exported = Arc::clone(&reqs);
/// registry.register_fn_counter("demo_requests_total", "requests served", Vec::new(), move || {
///     exported.load(Relaxed)
/// });
/// reqs.fetch_add(1, Relaxed);
/// let text = registry.render_prometheus();
/// assert!(text.contains("demo_requests_total 1"));
/// ```
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the Prometheus identifier charset (we skip
/// the colon, which is reserved for recording rules).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    #[expect(
        clippy::panic,
        reason = "registering one series twice, or one name as two kinds, is a programming \
                  error; failing at startup beats silently aliasing series"
    )]
    fn insert(&self, name: &str, help: &str, labels: Labels, instrument: Instrument) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in &labels {
            assert!(valid_name(k), "invalid label name {k:?} on {name}");
        }
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                panic!("metric {name:?} with labels {labels:?} registered twice");
            }
            if e.name == name && e.instrument.kind() != instrument.kind() {
                panic!(
                    "metric {name:?} registered as both {} and {}",
                    e.instrument.kind(),
                    instrument.kind()
                );
            }
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument,
        });
    }

    /// Registers and returns a new histogram with no labels.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, Vec::new())
    }

    /// Registers and returns a new histogram with `labels`.
    pub fn histogram_with(&self, name: &str, help: &str, labels: Labels) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register_histogram(name, help, labels, Arc::clone(&h));
        h
    }

    /// Adopts an existing histogram (e.g. one a device or server already
    /// records into) under `name`.
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        h: Arc<Histogram>,
    ) {
        self.insert(name, help, labels, Instrument::Histogram(h));
    }

    /// Registers a counter whose value is computed by `f` at scrape time —
    /// how components export counters they already keep as plain atomics.
    /// `f` must be monotone for the result to behave as a counter.
    pub fn register_fn_counter(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.insert(name, help, labels, Instrument::FnCounter(Box::new(f)));
    }

    /// Registers a gauge whose value is computed by `f` at scrape time.
    pub fn register_fn_gauge(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.insert(name, help, labels, Instrument::FnGauge(Box::new(f)));
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads every instrument once and returns plain data, sorted by
    /// metric name (stable, so same-name label variants keep registration
    /// order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock();
        let mut samples: Vec<Sample> = entries
            .iter()
            .map(|e| Sample {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.instrument {
                    Instrument::FnCounter(f) => SampleValue::Counter(f()),
                    Instrument::FnGauge(f) => SampleValue::Gauge(f()),
                    Instrument::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }

    /// Shorthand for `snapshot().render_prometheus()`.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// One instrument's value at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Distribution summary.
    Histogram(HistogramSnapshot),
}

/// One `(name, labels) → value` reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (Prometheus identifier charset).
    pub name: String,
    /// Help text, emitted as the `# HELP` line.
    pub help: String,
    /// Label pairs identifying this series.
    pub labels: Labels,
    /// The reading.
    pub value: SampleValue,
}

/// A whole registry read at one instant — the serde type of the
/// observability layer: [`MetricsSnapshot::to_json`] for machine-readable
/// artifacts (`BENCH_obs.json`), [`MetricsSnapshot::render_prometheus`]
/// for the text exposition served over the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every sample, sorted by metric name.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// The sample for `name` with no labels, if present.
    pub fn get(&self, name: &str) -> Option<&Sample> {
        self.get_with(name, &[])
    }

    /// The sample for `name` whose labels match `labels` exactly.
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Counter value for `name`+`labels`, or 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get_with(name, labels).map(|s| &s.value) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value for `name`+`labels`, or 0.0 when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.get_with(name, labels).map(|s| &s.value) {
            Some(SampleValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Renders the Prometheus text exposition format (`# HELP` / `# TYPE`
    /// headers once per metric name, histogram `_bucket`/`_sum`/`_count`
    /// expansion). See [`crate::expo`].
    pub fn render_prometheus(&self) -> String {
        crate::expo::render_prometheus(self)
    }

    /// Serializes to a self-contained JSON document (no external
    /// dependencies; escaping handled here). Histograms carry
    /// count/sum/max/mean plus p50/p90/p99/p999.
    pub fn to_json(&self) -> String {
        crate::expo::render_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    #[test]
    fn register_and_snapshot_all_kinds() {
        let r = Registry::new();
        let ops = Arc::new(AtomicU64::new(0));
        let exported = Arc::clone(&ops);
        r.register_fn_counter("test_ops_total", "ops", Vec::new(), move || exported.load(Relaxed));
        let h = r.histogram("test_latency_nanoseconds", "latency");
        r.register_fn_gauge("test_fn_gauge", "external", Vec::new(), || 0.25);
        // Collectors are read at scrape time, not at registration.
        ops.store(3, Relaxed);
        h.record(500);
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 3);
        assert_eq!(snap.counter("test_ops_total", &[]), 3);
        assert_eq!(snap.gauge("test_fn_gauge", &[]), 0.25);
        match &snap.get("test_latency_nanoseconds").unwrap().value {
            SampleValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn labelled_series_coexist_and_sort_stably() {
        let r = Registry::new();
        for shard in 0..3 {
            let labels = vec![("shard".into(), shard.to_string())];
            r.register_fn_counter("test_puts_total", "puts", labels, move || shard);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("test_puts_total", &[("shard", "2")]), 2);
        let shards: Vec<&str> = snap
            .samples
            .iter()
            .map(|s| s.labels[0].1.as_str())
            .collect();
        assert_eq!(shards, vec!["0", "1", "2"], "registration order kept");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_series_panics() {
        let r = Registry::new();
        r.register_fn_counter("test_dup_total", "", Vec::new(), || 0);
        r.register_fn_counter("test_dup_total", "", Vec::new(), || 0);
    }

    #[test]
    #[should_panic(expected = "registered as both counter and gauge")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.register_fn_counter("test_clash", "", vec![("shard".into(), "0".into())], || 0);
        r.register_fn_gauge("test_clash", "", vec![("shard".into(), "1".into())], || 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        Registry::new().register_fn_counter("0bad-name", "", Vec::new(), || 0);
    }

    #[test]
    fn snapshot_lookup_misses_are_zero() {
        let snap = Registry::new().snapshot();
        assert_eq!(snap.counter("absent", &[]), 0);
        assert_eq!(snap.gauge("absent", &[]), 0.0);
        assert!(snap.get("absent").is_none());
    }
}
