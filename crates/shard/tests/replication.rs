//! End-to-end replication and failover tests: a primary KV service
//! streaming group-commit WAL records to a live replica, read-your-
//! replica consistency, role transitions, and the crash matrix — the
//! primary is killed at seeded `FaultEnv` points (mid-group-commit,
//! mid-flush, mid-compaction), the replica is promoted, and every write
//! acknowledged to a client before the crash must be readable on the
//! promoted node with no torn or out-of-sequence record ever applied.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test harness: speaks the wire protocol over raw TcpStreams"
)]

use pcp_lsm::{CompactionPolicy, Options, WalTap};
use pcp_shard::proto::{read_frame, write_frame, Request, Response};
use pcp_shard::{
    HashRouter, KvClient, KvServer, ReplConfig, ReplSource, ReplicaServer, Role, ServerOptions,
    ShardedDb,
};
use pcp_storage::{EnvRef, FaultEnv, FaultKind, FaultOp, RetryPolicy, SimDevice, SimEnv};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn small_tree_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        sync_writes: true,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 16 << 10,
            level_multiplier: 4,
        },
        ..Options::default()
    }
}

fn sim_envs(n: usize) -> Vec<EnvRef> {
    (0..n)
        .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))) as EnvRef)
        .collect()
}

/// A primary engine with one replication tap per shard, behind a server.
fn start_primary(
    envs: Vec<EnvRef>,
    opts: Options,
) -> (Arc<ShardedDb>, Arc<ReplSource>, KvServer) {
    let source = ReplSource::new(SHARDS, ReplConfig::default());
    let taps = Arc::clone(&source);
    let db = Arc::new(
        ShardedDb::open_with_envs_configured(
            envs,
            opts,
            Arc::new(HashRouter::new(SHARDS)),
            |i, o| o.wal_tap = taps.tap(i),
        )
        .unwrap(),
    );
    let server = KvServer::start_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerOptions {
            role: Some(Role::Primary),
            repl_source: Some(Arc::clone(&source)),
            on_promote: None,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    (db, source, server)
}

fn start_replica(primary: SocketAddr) -> (Arc<ShardedDb>, ReplicaServer) {
    let db = Arc::new(
        ShardedDb::open_with_envs(
            sim_envs(SHARDS),
            small_tree_options(),
            Arc::new(HashRouter::new(SHARDS)),
        )
        .unwrap(),
    );
    let replica =
        ReplicaServer::start(Arc::clone(&db), "127.0.0.1:0", primary, RetryPolicy::default())
            .unwrap();
    (db, replica)
}

/// Polls `cond` for up to `timeout`, failing the test with `what` on expiry.
fn wait_until(timeout: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits until every queued record has been shipped and acknowledged.
fn wait_drained(source: &ReplSource, timeout: Duration) {
    wait_until(timeout, "replication queues to drain", || {
        (0..SHARDS).all(|s| source.lag(s) == (0, 0))
    });
}

#[test]
fn replica_catches_up_serves_reads_and_refuses_writes() {
    let (primary_db, source, mut server) =
        start_primary(sim_envs(SHARDS), small_tree_options());
    let (replica_db, mut replica) = start_replica(server.local_addr());

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..300u32 {
        client
            .put(format!("r{i:05}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    wait_drained(&source, Duration::from_secs(30));

    // The replica's engine holds every acknowledged write, at the same
    // per-shard sequence offsets as the primary.
    assert_eq!(replica_db.last_sequences(), primary_db.last_sequences());
    let mut reader = KvClient::connect(replica.local_addr()).unwrap();
    for i in 0..300u32 {
        assert_eq!(
            reader.get(format!("r{i:05}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "write r{i:05} missing on replica"
        );
    }
    assert_eq!(replica.apply_errors(), 0, "{:?}", replica.last_error());

    // Roles over the wire: primary says primary, replica says replica and
    // reports its applied offsets.
    assert_eq!(client.role().unwrap().0, Role::Primary);
    let (role, applied) = reader.role().unwrap();
    assert_eq!(role, Role::Replica);
    assert_eq!(applied, primary_db.last_sequences());

    // The replica refuses writes while in replica role.
    let err = reader.put(b"illegal", b"write").unwrap_err();
    assert!(
        err.to_string().contains("replica role refuses writes"),
        "unexpected refusal: {err}"
    );

    // Replication series are exposed on both sides.
    let primary_metrics = server.metrics_text();
    for series in [
        "pcp_repl_queue_records",
        "pcp_repl_acked_seq",
        "pcp_repl_shipped_records_total",
        "pcp_repl_role 0",
    ] {
        assert!(primary_metrics.contains(series), "primary missing {series}");
    }
    let replica_metrics = reader.metrics_text().unwrap();
    for series in [
        "pcp_repl_applied_seq",
        "pcp_repl_reconnects_total",
        "pcp_repl_apply_latency_nanoseconds_bucket",
        "pcp_repl_role 1",
    ] {
        assert!(replica_metrics.contains(series), "replica missing {series}");
    }

    replica.shutdown();
    server.shutdown();
}

#[test]
fn promote_via_opcode_flips_role_and_accepts_writes() {
    let (_pdb, source, mut server) = start_primary(sim_envs(SHARDS), small_tree_options());
    let (replica_db, mut replica) = start_replica(server.local_addr());

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..50u32 {
        client.put(format!("p{i:03}").as_bytes(), b"v").unwrap();
    }
    wait_drained(&source, Duration::from_secs(30));

    let mut ctl = KvClient::connect(replica.local_addr()).unwrap();
    ctl.promote().unwrap();
    assert_eq!(ctl.role().unwrap().0, Role::Primary);
    // Idempotent: promoting a primary is a no-op.
    ctl.promote().unwrap();

    // The promoted node accepts writes and still serves the replicated
    // history underneath.
    ctl.put(b"post-promo", b"accepted").unwrap();
    assert_eq!(ctl.get(b"post-promo").unwrap(), Some(b"accepted".to_vec()));
    assert_eq!(ctl.get(b"p007").unwrap(), Some(b"v".to_vec()));
    assert_eq!(replica_db.get(b"post-promo").unwrap(), Some(b"accepted".to_vec()));

    replica.shutdown();
    server.shutdown();
}

/// Where in the primary's lifecycle the seeded kill lands.
#[derive(Clone, Copy, Debug)]
enum CrashSite {
    /// The WAL sync inside the group-commit I/O window fails and freezes
    /// the filesystem: the in-flight group is never acknowledged.
    GroupCommit,
    /// An early SSTable append — the first memtable flushes are writing.
    Flush,
    /// An SSTable read — compaction inputs (flush never reads `.sst`).
    Compaction,
}

fn schedule_crash(fault: &FaultEnv, site: CrashSite, seed: u64) {
    // Seed-varied trigger positions keep the three runs per site from
    // collapsing onto one interleaving.
    let jitter = seed % 7;
    match site {
        CrashSite::GroupCommit => {
            fault.schedule_on_file(FaultOp::Sync, 20 + jitter, FaultKind::Crash, ".log");
        }
        CrashSite::Flush => {
            fault.schedule_on_file(FaultOp::Append, 6 + jitter, FaultKind::Crash, ".sst");
        }
        CrashSite::Compaction => {
            fault.schedule_on_file(FaultOp::ReadAt, 30 + jitter, FaultKind::Crash, ".sst");
        }
    }
}

/// One failover run: write through the primary until the seeded kill
/// fires, freeze the whole node, drain the stream, promote the replica,
/// and verify the acknowledged history survived intact.
fn run_failover(seed: u64, site: CrashSite) {
    let faults: Vec<FaultEnv> = (0..SHARDS)
        .map(|i| {
            FaultEnv::new(
                Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))) as EnvRef,
                seed ^ (i as u64),
            )
        })
        .collect();
    // The kill lands on shard 0; the freeze below takes the rest of the
    // node down with it, like a machine-level kill would.
    schedule_crash(&faults[0], site, seed);
    let envs: Vec<EnvRef> = faults.iter().map(|f| Arc::new(f.clone()) as EnvRef).collect();

    let (primary_db, source, mut server) = start_primary(envs, small_tree_options());
    let (_replica_db, mut replica) = start_replica(server.local_addr());

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let mut acked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut refused: Vec<Vec<u8>> = Vec::new();
    let mut i = 0u32;
    while !faults[0].crashed() && i < 5000 {
        let key = format!("f{seed}-{i:05}").into_bytes();
        let value = format!("val-{seed}-{i}").into_bytes();
        match client.put(&key, &value) {
            Ok(()) => acked.push((key, value)),
            Err(_) => refused.push(key),
        }
        i += 1;
    }
    assert!(
        faults[0].crashed(),
        "seed {seed} {site:?}: crash point never fired after {i} writes"
    );
    // Whole-node kill: freeze the surviving shards at their current image.
    for f in &faults[1..] {
        f.freeze();
    }
    // Anything submitted after the freeze must be refused, not acked.
    let late = client.put(b"after-kill", b"lost");
    if late.is_ok() {
        acked.push((b"after-kill".to_vec(), b"lost".to_vec()));
    }

    // The tap queues live outside the frozen filesystem, so the stream
    // drains over the still-healthy network; then the replica takes over.
    wait_drained(&source, Duration::from_secs(30));
    assert_eq!(
        replica.apply_errors(),
        0,
        "seed {seed} {site:?}: torn or out-of-sequence record applied: {:?}",
        replica.last_error()
    );
    replica.promote().unwrap();
    assert_eq!(replica.server().role(), Role::Primary);

    // Every write acknowledged before the kill is readable on the
    // promoted node; every refused write never surfaced.
    let mut survivor = KvClient::connect(replica.local_addr()).unwrap();
    for (key, value) in &acked {
        assert_eq!(
            survivor.get(key).unwrap().as_deref(),
            Some(value.as_slice()),
            "seed {seed} {site:?}: acked write {} lost in failover",
            String::from_utf8_lossy(key)
        );
    }
    for key in &refused {
        assert_eq!(
            survivor.get(key).unwrap(),
            None,
            "seed {seed} {site:?}: refused write {} ghosted into the replica",
            String::from_utf8_lossy(key)
        );
    }
    // The promoted node accepts new writes, continuing the history.
    survivor.put(b"new-era", b"promoted").unwrap();
    assert_eq!(survivor.get(b"new-era").unwrap(), Some(b"promoted".to_vec()));

    drop(primary_db);
    replica.shutdown();
    server.shutdown();
}

#[test]
fn failover_preserves_acked_writes_mid_group_commit() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        run_failover(seed, CrashSite::GroupCommit);
    }
}

#[test]
fn failover_preserves_acked_writes_mid_flush() {
    for seed in [0xF1_0001u64, 0xF1_0002, 0xF1_0003] {
        run_failover(seed, CrashSite::Flush);
    }
}

#[test]
fn failover_preserves_acked_writes_mid_compaction() {
    for seed in [0xC0_0001u64, 0xC0_0002, 0xC0_0003] {
        run_failover(seed, CrashSite::Compaction);
    }
}

/// A tap that captures every consolidated WAL record, for driving the
/// apply path by hand.
#[derive(Default)]
struct CaptureTap {
    records: parking_lot::Mutex<Vec<Vec<u8>>>,
}

impl WalTap for CaptureTap {
    fn on_record(&self, _first_seq: u64, _last_seq: u64, payload: &[u8]) {
        self.records.lock().push(payload.to_vec());
    }
}

#[test]
fn apply_path_rejects_gaps_and_skips_duplicates() {
    let tap = Arc::new(CaptureTap::default());
    let primary = pcp_lsm::Db::open(
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20)))),
        Options {
            wal_tap: Some(Arc::clone(&tap) as Arc<dyn WalTap>),
            ..Options::default()
        },
    )
    .unwrap();
    for i in 0..3u8 {
        primary.put(format!("a{i}").as_bytes(), b"v").unwrap();
    }
    let records = tap.records.lock().clone();
    assert_eq!(records.len(), 3);

    let replica = pcp_lsm::Db::open(
        Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20)))),
        Options::default(),
    )
    .unwrap();
    assert_eq!(replica.apply_replicated(&records[0]).unwrap(), 1);

    // A gap (record 3 before record 2) is rejected before any side effect.
    let err = replica.apply_replicated(&records[2]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(replica.get(b"a2").unwrap(), None, "gapped record leaked");
    assert_eq!(replica.last_sequence(), 1);

    // In order they apply; a duplicate (reconnect replay) is skipped
    // idempotently without disturbing the sequence.
    assert_eq!(replica.apply_replicated(&records[1]).unwrap(), 2);
    assert_eq!(replica.apply_replicated(&records[2]).unwrap(), 3);
    assert_eq!(replica.apply_replicated(&records[1]).unwrap(), 3);
    assert_eq!(replica.last_sequence(), 3);
    for i in 0..3u8 {
        assert_eq!(
            replica.get(format!("a{i}").as_bytes()).unwrap(),
            Some(b"v".to_vec())
        );
    }
}

#[test]
fn shutdown_drains_subscriber_with_clean_end_frame() {
    let (primary_db, _source, mut server) =
        start_primary(sim_envs(SHARDS), small_tree_options());
    // Seed a couple of records on shard 0 before subscribing.
    let mut seeded = 0u64;
    let mut n = 0u32;
    while seeded < 2 {
        let key = format!("s{n:03}").into_bytes();
        if primary_db.shard_of(&key) == 0 {
            primary_db.put(&key, b"v").unwrap();
            seeded += 1;
        }
        n += 1;
    }

    // A raw subscriber: REPL_SUBSCRIBE, then lockstep record/ack.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Request::ReplSubscribe { shard: 0, from_seq: 1 }.encode(),
    )
    .unwrap();
    for _ in 0..seeded {
        let payload = read_frame(&mut stream).unwrap().expect("record frame");
        match Response::decode(&payload).unwrap() {
            Response::ReplRecord { first_seq, crc, record } => {
                assert_eq!(pcp_codec::crc32c(&record), crc, "CRC mismatch on stream");
                write_frame(&mut stream, &Request::ReplAck { applied_seq: first_seq }.encode())
                    .unwrap();
            }
            other => panic!("expected REPL_RECORD, got {other:?}"),
        }
    }

    // Shut the server down while the subscriber is caught up and waiting:
    // the stream must end with REPL_END, not a dropped socket.
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    let payload = read_frame(&mut stream)
        .unwrap()
        .expect("socket dropped without REPL_END");
    assert!(
        matches!(Response::decode(&payload).unwrap(), Response::ReplEnd),
        "expected REPL_END as the final frame"
    );
    assert_eq!(read_frame(&mut stream).unwrap(), None, "EOF after REPL_END");
    shutdown.join().unwrap();
}

#[test]
fn client_reconnects_transparently_across_server_restart() {
    let db = Arc::new(
        ShardedDb::open_with_envs(
            sim_envs(SHARDS),
            small_tree_options(),
            Arc::new(HashRouter::new(SHARDS)),
        )
        .unwrap(),
    );
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut client = KvClient::connect_with(
        addr,
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        },
    )
    .unwrap();
    client.put(b"before", b"restart").unwrap();

    // Restart the service on the same address; the engine survives.
    server.shutdown();
    let mut server = KvServer::start(Arc::clone(&db), addr).unwrap();

    // The client's stream is dead, but the request succeeds through a
    // transparent reconnect — no error surfaces and nothing latches.
    assert_eq!(client.get(b"before").unwrap(), Some(b"restart".to_vec()));
    assert_eq!(client.connection_error(), None);
    client.put(b"after", b"reconnect").unwrap();
    assert_eq!(db.get(b"after").unwrap(), Some(b"reconnect".to_vec()));
    server.shutdown();
}

#[test]
fn client_latches_after_retry_exhaustion() {
    let db = Arc::new(
        ShardedDb::open_with_envs(
            sim_envs(SHARDS),
            small_tree_options(),
            Arc::new(HashRouter::new(SHARDS)),
        )
        .unwrap(),
    );
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
    };
    let mut client = KvClient::connect_with(addr, retry).unwrap();
    client.put(b"k", b"v").unwrap();
    server.shutdown();

    // With the server gone, retries exhaust and the error latches.
    let err = client.get(b"k").unwrap_err();
    assert!(err.to_string().contains("latched"), "first failure: {err}");
    assert!(client.connection_error().is_some());
    // Subsequent calls fail fast with the same coherent story.
    let again = client.get(b"k").unwrap_err();
    assert!(again.to_string().contains("latched"), "fast-fail: {again}");

    // A restart plus an explicit reconnect clears the latch.
    let mut server = KvServer::start(Arc::clone(&db), addr).unwrap();
    client.reconnect().unwrap();
    assert_eq!(client.connection_error(), None);
    assert_eq!(client.get(b"k").unwrap(), Some(b"v".to_vec()));
    server.shutdown();
}
