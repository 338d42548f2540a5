//! Structured event trace of the compaction lifecycle.
//!
//! A [`TraceLog`] is a bounded ring of [`TraceEvent`]s: each event is a
//! static kind string (`"compaction_start"`, `"flush_done"`, …) plus a
//! small set of numeric fields, stamped with a sequence number and the
//! elapsed time since the log was created. The ring keeps the most
//! recent `capacity` events, so a long-running engine pays a fixed
//! memory cost and the tail of the story is always available — the same
//! trade RocksDB's `EventListener` + info-log make, without the string
//! formatting on the hot path.
//!
//! Recording takes a short `parking_lot` mutex; events are emitted at
//! state transitions (per flush / per compaction / per stage), not per
//! key, so this is far off the data path.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One lifecycle event: what happened, when, and the numbers attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (never reset, survives ring eviction).
    pub seq: u64,
    /// Elapsed time since the [`TraceLog`] was created.
    pub at: Duration,
    /// Static event kind, e.g. `"compaction_start"`.
    pub kind: &'static str,
    /// Numeric payload, e.g. `[("level", 1), ("input_bytes", 4096)]`.
    pub fields: Vec<(&'static str, u64)>,
}

/// Bounded ring of [`TraceEvent`]s.
///
/// ```
/// let log = pcp_obs::TraceLog::new(128);
/// log.record("flush_start", &[("memtable_bytes", 4096)]);
/// log.record("flush_done", &[("sst_bytes", 2048)]);
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.events()[0].kind, "flush_start");
/// ```
pub struct TraceLog {
    start: Instant,
    next_seq: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl TraceLog {
    /// A log keeping the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceLog {
        let capacity = capacity.max(1);
        TraceLog {
            start: Instant::now(),
            next_seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Appends one event, evicting the oldest when full.
    pub fn record(&self, kind: &'static str, fields: &[(&'static str, u64)]) {
        let ev = TraceEvent {
            seq: self.next_seq.fetch_add(1, Relaxed),
            at: self.start.elapsed(),
            kind,
            fields: fields.to_vec(),
        };
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Relaxed)
    }

    /// Serializes the retained events as a JSON array, oldest first:
    /// `[{"seq":0,"at_nanos":…,"kind":"…","fields":{"level":1}},…]`.
    pub fn to_json(&self) -> String {
        let events = self.events();
        let items: Vec<String> = events
            .iter()
            .map(|e| {
                let fields: Vec<String> = e
                    .fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{v}", crate::expo::json_escape(k)))
                    .collect();
                format!(
                    "{{\"seq\":{},\"at_nanos\":{},\"kind\":\"{}\",\"fields\":{{{}}}}}",
                    e.seq,
                    e.at.as_nanos().min(u64::MAX as u128),
                    crate::expo::json_escape(e.kind),
                    fields.join(",")
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_seq_and_time() {
        let log = TraceLog::new(16);
        log.record("a", &[("x", 1)]);
        log.record("b", &[]);
        log.record("c", &[("x", 2), ("y", 3)]);
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].at <= w[1].at);
        }
        assert_eq!(events[2].fields, vec![("x", 2), ("y", 3)]);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_seq() {
        let log = TraceLog::new(4);
        for _ in 0..10 {
            log.record("tick", &[]);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.recorded(), 10);
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "most recent events retained");
    }

    #[test]
    fn capacity_zero_is_clamped() {
        let log = TraceLog::new(0);
        log.record("only", &[]);
        assert_eq!(log.len(), 1);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "test threads, joined before returning")]
    fn concurrent_recording_keeps_every_seq_once() {
        let log = std::sync::Arc::new(TraceLog::new(10_000));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        log.record("tick", &[]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 8000, "no sequence number lost or duplicated");
    }

    #[test]
    fn json_output_is_structured() {
        let log = TraceLog::new(8);
        log.record("compaction_start", &[("level", 1), ("inputs", 5)]);
        let json = log.to_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"kind\":\"compaction_start\""));
        assert!(json.contains("\"fields\":{\"level\":1,\"inputs\":5}"));
        assert_eq!(TraceLog::new(1).to_json(), "[]");
    }
}
