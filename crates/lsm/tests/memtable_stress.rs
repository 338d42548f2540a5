//! Multi-threaded stress test of the skiplist memtable's concurrency
//! contract: one serialized writer, lock-free concurrent readers
//! (DESIGN.md §11). Run under `--features lock_order` this also drives
//! the acquisition-order witness through the channel machinery.
//!
//! Coordination goes through `crossbeam::channel`: the writer acks each
//! published batch so the verifier thread can assert *visibility* (an
//! acked key must be readable) rather than merely absence of crashes,
//! while scanner threads continuously check iterator ordering.

use crossbeam::channel;
use pcp_lsm::Memtable;
use pcp_sstable::key::{parse_internal_key, SequenceNumber, ValueType, MAX_SEQUENCE};
use pcp_sstable::KvIter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BATCHES: u64 = 64;
const BATCH_KEYS: u64 = 32;

fn key(n: u64) -> Vec<u8> {
    format!("key-{n:08}").into_bytes()
}

fn value(n: u64) -> Vec<u8> {
    format!("value-{n}").into_bytes()
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn single_writer_many_readers_visibility_and_order() {
    let mt = Arc::new(Memtable::new());
    let stop = Arc::new(AtomicBool::new(false));
    // Bounded so the writer cannot run arbitrarily ahead of verification.
    let (ack_tx, ack_rx) = channel::bounded::<u64>(4);

    // Writer: inserts batches of keys, acking each published batch.
    let writer = {
        let mt = Arc::clone(&mt);
        std::thread::spawn(move || {
            for batch in 0..BATCHES {
                for i in 0..BATCH_KEYS {
                    let n = batch * BATCH_KEYS + i;
                    mt.insert(
                        &key(n),
                        n + 1 as SequenceNumber,
                        ValueType::Value,
                        &value(n),
                    );
                }
                if ack_tx.send(batch).is_err() {
                    return; // verifier gave up; nothing left to prove
                }
            }
        })
    };

    // Scanners: iterate concurrently with the writer, asserting the
    // skiplist always yields strictly ascending internal keys and only
    // fully-published nodes (key and value must agree).
    let scanners: Vec<_> = (0..3)
        .map(|_| {
            let mt = Arc::clone(&mt);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut max_seen = 0usize;
                // Scan until stopped, and once more after: a scanner first
                // scheduled when the writer is already done still checks
                // the whole table.
                loop {
                    let stopped = stop.load(Ordering::Acquire);
                    let mut iter = mt.iter();
                    iter.seek_to_first();
                    let mut previous: Option<Vec<u8>> = None;
                    let mut count = 0usize;
                    while iter.valid() {
                        let ikey = iter.key().to_vec();
                        let parsed = parse_internal_key(&ikey).expect("published internal key");
                        if let Some(prev) = &previous {
                            assert!(
                                prev.as_slice() < parsed.user_key,
                                "scan went backwards: {:?} then {:?}",
                                String::from_utf8_lossy(prev),
                                String::from_utf8_lossy(parsed.user_key)
                            );
                        }
                        // key-NNNNNNNN pairs with value-N: torn publication
                        // would break this correspondence.
                        let n: u64 = String::from_utf8_lossy(parsed.user_key)
                            .trim_start_matches("key-")
                            .parse()
                            .expect("well-formed user key");
                        assert_eq!(iter.value(), value(n), "torn node for key {n}");
                        previous = Some(parsed.user_key.to_vec());
                        count += 1;
                        iter.next();
                    }
                    // Monotonic growth: a later scan never sees fewer keys.
                    assert!(count >= max_seen, "scan shrank: {count} < {max_seen}");
                    max_seen = count;
                    if stopped {
                        break;
                    }
                }
                max_seen
            })
        })
        .collect();

    // Verifier (this thread): after each acked batch, every key in it is
    // visible at a sequence at or past its insertion.
    for batch in ack_rx.iter() {
        for i in 0..BATCH_KEYS {
            let n = batch * BATCH_KEYS + i;
            let got = mt
                .get(&key(n), MAX_SEQUENCE)
                .unwrap_or_else(|| panic!("acked key {n} not visible"));
            assert_eq!(got.as_deref(), Some(value(n).as_slice()));
        }
    }
    writer.join().expect("writer panicked");
    // Release: a scan that reads the flag sees every insert.
    stop.store(true, Ordering::Release);
    for scanner in scanners {
        let seen = scanner.join().expect("scanner panicked");
        assert!(seen > 0, "scanner never observed a populated memtable");
    }
    assert_eq!(mt.len(), (BATCHES * BATCH_KEYS) as usize);
}

/// Tombstones and overwrites published by the writer become visible to
/// `get` in insertion order: a reader at a given snapshot sees exactly
/// the latest entry at or below it.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn snapshot_reads_race_with_overwrites() {
    let mt = Arc::new(Memtable::new());
    let (done_tx, done_rx) = channel::bounded::<SequenceNumber>(1);

    let writer = {
        let mt = Arc::clone(&mt);
        std::thread::spawn(move || {
            let mut seq: SequenceNumber = 0;
            for round in 0..200u64 {
                seq += 1;
                let vt = if round % 3 == 2 {
                    ValueType::Deletion
                } else {
                    ValueType::Value
                };
                mt.insert(b"hot", seq, vt, &value(round));
                seq += 1;
                mt.insert(&key(round), seq, ValueType::Value, &value(round));
            }
            let _ = done_tx.send(seq);
        })
    };

    // Race gets against the writer: whatever snapshot we pick, the result
    // must be either "not yet visible" or internally consistent.
    for snapshot in 1..=400u64 {
        if let Some(Some(v)) = mt.get(b"hot", snapshot) {
            let round: u64 = String::from_utf8_lossy(&v)
                .trim_start_matches("value-")
                .parse()
                .expect("well-formed value");
            // Entry for `round` was written at seq 2*round+1.
            assert!(2 * round < snapshot, "future write visible");
        }
    }
    let final_seq = done_rx.recv().expect("writer ended without reporting");
    writer.join().expect("writer panicked");
    assert_eq!(final_seq, 400);
    // Rounds 2, 5, 8, … end in tombstones; 199 % 3 == 1 so the last write
    // of "hot" is a live value.
    assert_eq!(
        mt.get(b"hot", MAX_SEQUENCE),
        Some(Some(value(199))),
        "final overwrite must win"
    );
}
