//! Structured event trace of the compaction lifecycle.
//!
//! A [`TraceLog`] is a bounded ring of [`TraceEvent`]s: each event is a
//! [`TraceKind`] (`compaction_start`, `flush_done`, …) plus a small set of
//! numeric fields, stamped with a sequence number and the elapsed time
//! since the log was created. The ring keeps the most recent `capacity`
//! events, so a long-running engine pays a fixed memory cost and the tail
//! of the story is always available — the same trade RocksDB's
//! `EventListener` + info-log make, without the string formatting on the
//! hot path.
//!
//! Recording takes a short `parking_lot` mutex; events are emitted at
//! state transitions (per flush / per compaction / per stage), not per
//! key, so this is far off the data path.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Declares [`TraceKind`] from one list, so [`TraceKind::ALL`] and
/// [`TraceKind::as_str`] cannot miss a variant.
macro_rules! trace_kinds {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)+) => {
        /// What a [`TraceEvent`] records. The kinds are OBSERVABILITY.md
        /// §7's `trace` rows; §5 lists each one's emitter and fields.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceKind {
            $($(#[$doc])* $variant,)+
        }

        impl TraceKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [TraceKind] = &[$(TraceKind::$variant,)+];

            /// The kind's name in a [`TraceEvent`] and in the docs.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(TraceKind::$variant => $name,)+
                }
            }
        }
    };
}

trace_kinds! {
    /// An executor started a compaction.
    CompactionStart = "compaction_start",
    /// An executor finished a compaction.
    CompactionDone = "compaction_done",
    /// An executor's compaction failed and its partial outputs were swept.
    CompactionFailed = "compaction_failed",
    /// The engine picked a merge compaction.
    CompactionPicked = "compaction_picked",
    /// The engine installed a merge compaction's outputs.
    CompactionInstalled = "compaction_installed",
    /// The engine moved a table down a level without rewriting it.
    TrivialMove = "trivial_move",
    /// The engine flushed a memtable to a level-0 table.
    FlushDone = "flush_done",
    /// A writer waited for a flush or a compaction.
    WriteStall = "write_stall",
    /// Recovery found WAL logs with a torn or corrupt tail.
    WalTailCorruption = "wal_tail_corruption",
}

/// One lifecycle event: what happened, when, and the numbers attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (never reset, survives ring eviction).
    pub seq: u64,
    /// Elapsed time since the [`TraceLog`] was created.
    pub at: Duration,
    /// The event's [`TraceKind`] name, e.g. `"compaction_start"`.
    pub kind: &'static str,
    /// Numeric payload, e.g. `[("level", 1), ("input_bytes", 4096)]`.
    pub fields: Vec<(&'static str, u64)>,
}

/// Bounded ring of [`TraceEvent`]s.
///
/// ```
/// use pcp_obs::{TraceKind, TraceLog};
/// let log = TraceLog::new(128);
/// log.record(TraceKind::FlushDone, &[("sst_bytes", 2048)]);
/// log.record(TraceKind::CompactionPicked, &[("level", 0)]);
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.events()[0].kind, "flush_done");
/// ```
pub struct TraceLog {
    start: Instant,
    ring: Mutex<Ring>,
    capacity: usize,
}

/// The retained events and the next sequence number, under one lock so
/// that the ring is always in `seq` order.
struct Ring {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
}

impl TraceLog {
    /// A log keeping the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceLog {
        let capacity = capacity.max(1);
        TraceLog {
            start: Instant::now(),
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
            }),
            capacity,
        }
    }

    /// Appends one event, evicting the oldest when full. The sequence
    /// number and the time are taken under the ring's lock, so concurrent
    /// recorders append in `seq` order and eviction drops the oldest.
    pub fn record(&self, kind: TraceKind, fields: &[(&'static str, u64)]) {
        let fields = fields.to_vec();
        let mut ring = self.ring.lock();
        let ev = TraceEvent {
            seq: ring.next_seq,
            at: self.start.elapsed(),
            kind: kind.as_str(),
            fields,
        };
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().next_seq
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
        log.record(TraceKind::FlushDone, &[("x", 1)]);
        log.record(TraceKind::TrivialMove, &[]);
        log.record(TraceKind::WriteStall, &[("x", 2), ("y", 3)]);
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec!["flush_done", "trivial_move", "write_stall"]
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
            log.record(TraceKind::FlushDone, &[]);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.recorded(), 10);
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "most recent events retained");
    }

    #[test]
    fn capacity_zero_is_clamped() {
        let log = TraceLog::new(0);
        log.record(TraceKind::FlushDone, &[]);
        assert_eq!(log.len(), 1);
    }

    /// The engine's log has three writers (the writer's stalls, the flush
    /// lane, the compaction lane). However their records interleave, the
    /// ring holds exactly the newest events, in `seq` order with time
    /// never going back.
    #[test]
    fn concurrent_recorders_keep_the_ring_in_seq_order() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        const CAPACITY: usize = 1_000;
        for round in 0..10 {
            let log = TraceLog::new(CAPACITY);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for _ in 0..PER_THREAD {
                            log.record(TraceKind::FlushDone, &[]);
                        }
                    });
                }
            });
            let events = log.events();
            for w in events.windows(2) {
                assert!(
                    w[0].seq < w[1].seq && w[0].at <= w[1].at,
                    "round {round}: seq {} at {:?} is followed by seq {} at {:?}",
                    w[0].seq,
                    w[0].at,
                    w[1].seq,
                    w[1].at
                );
            }
            let total = THREADS * PER_THREAD;
            let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            let newest: Vec<u64> = (total - CAPACITY as u64..total).collect();
            assert_eq!(
                seqs, newest,
                "round {round}: the ring must hold the newest events"
            );
            assert_eq!(log.recorded(), total);
        }
    }

    #[test]
    fn json_output_is_structured() {
        let log = TraceLog::new(8);
        log.record(TraceKind::CompactionStart, &[("level", 1), ("inputs", 5)]);
        let json = log.to_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"kind\":\"compaction_start\""));
        assert!(json.contains("\"fields\":{\"level\":1,\"inputs\":5}"));
        assert_eq!(TraceLog::new(1).to_json(), "[]");
    }
}
