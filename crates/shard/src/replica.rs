//! The replica: per-shard puller threads plus a read-only KV service.
//!
//! A [`ReplicaServer`] wraps a [`KvServer`] started in [`Role::Replica`]
//! (writes refused, reads served snapshot-consistently at each shard's
//! applied sequence) and runs one puller thread per shard. Each puller
//! connects to the primary, subscribes from its shard's applied horizon,
//! and applies records through [`pcp_lsm::Db::apply_replicated`] — which
//! appends to the replica's *own* WAL before publishing, so a replica
//! restart replays its tail exactly like a primary restart.
//!
//! Safety on the apply path is belt-and-braces: the frame CRC covered the
//! bytes in flight, the REPL_RECORD's embedded CRC-32C is re-verified
//! against the record here, the record's embedded base sequence must match
//! the frame's, and `apply_replicated` enforces sequence contiguity
//! (duplicates from a reconnect are skipped idempotently; a gap or
//! misalignment is rejected before any side effect). A record that fails
//! any check is never applied — the puller drops the connection, counts
//! the error, and resubscribes from its durable horizon.
//!
//! Promotion (PROMOTE opcode or [`ReplicaServer::promote`]) stops and
//! joins the pullers, then flips the service role to primary. The engine
//! underneath was live the whole time — memtables, flushes, and
//! compactions ran as records applied — so the promoted node accepts
//! writes immediately, continuing from the applied sequence.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the replication puller dials TCP to the primary; the apply path underneath runs on \
              the replica's Env"
)]

use crate::proto::{write_frame, Request, Response, Role};
use crate::server::{KvServer, PromoteHook, ServerOptions};
use crate::sharded::ShardedDb;
use parking_lot::Mutex;
use pcp_storage::RetryPolicy;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a puller blocks in `read` before re-checking its stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Shared state between the pullers, the promote hook, and metrics.
struct ReplicaCtrl {
    stop: AtomicBool,
    /// Last applied sequence per shard (mirrors the engine, readable
    /// without locking it).
    applied: Vec<AtomicU64>,
    /// Times a puller re-established a lost session.
    reconnects: AtomicU64,
    /// Records rejected on the apply path (CRC, alignment, contiguity) or
    /// failed engine applies.
    apply_errors: AtomicU64,
    /// Wall time of each successful apply (receive → durable).
    apply_latency: Arc<pcp_obs::Histogram>,
    /// Most recent puller error, latched for diagnostics.
    last_error: Mutex<Option<String>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ReplicaCtrl {
    fn latch_error(&self, msg: String) {
        *self.last_error.lock() = Some(msg);
    }

    /// Stops the pullers and joins them (idempotent).
    fn stop_pullers(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// A running replica: read-only KV service + per-shard replication
/// pullers. Dropping it (or [`ReplicaServer::shutdown`]) stops both.
pub struct ReplicaServer {
    server: KvServer,
    ctrl: Arc<ReplicaCtrl>,
}

impl ReplicaServer {
    /// Starts a replica of the service at `primary`, serving reads on
    /// `addr` over `db`. `reconnect` shapes the backoff between
    /// connection attempts (its `max_attempts` is ignored — a replica
    /// retries until stopped or promoted; exhaustion is a lag alarm, not
    /// an exit).
    pub fn start(
        db: Arc<ShardedDb>,
        addr: impl ToSocketAddrs,
        primary: SocketAddr,
        reconnect: RetryPolicy,
    ) -> io::Result<ReplicaServer> {
        let shards = db.shard_count();
        let ctrl = Arc::new(ReplicaCtrl {
            stop: AtomicBool::new(false),
            applied: db.last_sequences().into_iter().map(AtomicU64::new).collect(),
            reconnects: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            apply_latency: Arc::new(pcp_obs::Histogram::new()),
            last_error: Mutex::new(None),
            handles: Mutex::new(Vec::new()),
        });
        let hook: PromoteHook = {
            let ctrl = Arc::clone(&ctrl);
            Arc::new(move || {
                ctrl.stop_pullers();
                Ok(())
            })
        };
        let server = KvServer::start_with(
            Arc::clone(&db),
            addr,
            ServerOptions {
                role: Some(Role::Replica),
                repl_source: None,
                on_promote: Some(hook),
                ..ServerOptions::default()
            },
        )?;
        Self::register_metrics(&ctrl, server.registry());
        {
            let mut handles = ctrl.handles.lock();
            for shard in 0..shards {
                let ctrl = Arc::clone(&ctrl);
                let db = Arc::clone(&db);
                let handle = std::thread::Builder::new()
                    .name(format!("pcp-repl-pull-{shard}"))
                    .spawn(move || pull_loop(db, shard, primary, reconnect, ctrl))?;
                handles.push(handle);
            }
        }
        Ok(ReplicaServer { server, ctrl })
    }

    /// The replica service's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The wrapped KV service (reads, STATS, METRICS, ROLE all work).
    pub fn server(&self) -> &KvServer {
        &self.server
    }

    /// Last applied sequence for shard `shard`.
    pub fn applied_seq(&self, shard: usize) -> u64 {
        self.ctrl
            .applied
            .get(shard)
            .map_or(0, |a| a.load(Ordering::SeqCst))
    }

    /// Sessions re-established after a loss.
    pub fn reconnects(&self) -> u64 {
        self.ctrl.reconnects.load(Ordering::Relaxed)
    }

    /// Records rejected or failed on the apply path.
    pub fn apply_errors(&self) -> u64 {
        self.ctrl.apply_errors.load(Ordering::Relaxed)
    }

    /// The most recent puller error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.ctrl.last_error.lock().clone()
    }

    /// Promotes this replica to primary: stops and joins the pullers,
    /// then flips the service role so writes are accepted. Idempotent.
    pub fn promote(&self) -> io::Result<()> {
        self.server.promote()
    }

    /// Stops the pullers and shuts the service down (also runs on drop).
    pub fn shutdown(&mut self) {
        self.ctrl.stop_pullers();
        self.server.shutdown();
    }

    fn register_metrics(ctrl: &Arc<ReplicaCtrl>, registry: &pcp_obs::Registry) {
        for (i, _) in ctrl.applied.iter().enumerate() {
            let ctrl = Arc::clone(ctrl);
            registry.register_fn_gauge(
                "pcp_repl_applied_seq",
                "last sequence applied from the primary's stream",
                vec![("shard".to_string(), i.to_string())],
                move || ctrl.applied[i].load(Ordering::SeqCst) as f64,
            );
        }
        let c = Arc::clone(ctrl);
        registry.register_fn_counter(
            "pcp_repl_reconnects_total",
            "replication sessions re-established after a loss",
            Vec::new(),
            move || c.reconnects.load(Ordering::Relaxed),
        );
        let c = Arc::clone(ctrl);
        registry.register_fn_counter(
            "pcp_repl_apply_errors_total",
            "records rejected or failed on the apply path",
            Vec::new(),
            move || c.apply_errors.load(Ordering::Relaxed),
        );
        registry.register_histogram(
            "pcp_repl_apply_latency_nanoseconds",
            "wall time to apply one replicated record (receive to durable)",
            Vec::new(),
            Arc::clone(&ctrl.apply_latency),
        );
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's puller: connect → subscribe → apply/ack until stopped.
fn pull_loop(
    db: Arc<ShardedDb>,
    shard: usize,
    primary: SocketAddr,
    reconnect: RetryPolicy,
    ctrl: Arc<ReplicaCtrl>,
) {
    let mut backoff = reconnect.base_backoff;
    let mut sessions = 0u64;
    while !ctrl.stop.load(Ordering::SeqCst) {
        match TcpStream::connect(primary) {
            Ok(stream) => {
                if sessions > 0 {
                    ctrl.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                sessions += 1;
                backoff = reconnect.base_backoff;
                if let Err(e) = pull_session(&db, shard, stream, &ctrl) {
                    ctrl.latch_error(format!("shard {shard}: {e}"));
                }
            }
            Err(e) => {
                ctrl.latch_error(format!("shard {shard}: connect to primary: {e}"));
            }
        }
        if ctrl.stop.load(Ordering::SeqCst) {
            return;
        }
        // Backoff before the next attempt, polling stop so promotion
        // never waits a full backoff on us.
        let deadline = Instant::now() + backoff.max(Duration::from_millis(1));
        while Instant::now() < deadline {
            if ctrl.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        backoff = (backoff * 2).min(reconnect.max_backoff).max(Duration::from_millis(1));
    }
}

/// One established session: subscribe and apply until the stream ends,
/// the connection drops, or a record fails verification.
fn pull_session(
    db: &ShardedDb,
    shard: usize,
    mut stream: TcpStream,
    ctrl: &ReplicaCtrl,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let from_seq = ctrl
        .applied
        .get(shard)
        .map_or(0, |a| a.load(Ordering::SeqCst))
        + 1;
    write_frame(
        &mut stream,
        &Request::ReplSubscribe {
            shard: shard as u64,
            from_seq,
        }
        .encode(),
    )?;
    let mut buf: Vec<u8> = Vec::with_capacity(16 << 10);
    loop {
        let Some(payload) = read_frame_polled(&mut stream, &mut buf, ctrl)? else {
            return Ok(()); // stopped, or primary closed
        };
        let t0 = Instant::now();
        match Response::decode(&payload)? {
            Response::ReplRecord {
                first_seq,
                crc,
                record,
            } => {
                // Verify before any side effect: payload CRC, then the
                // record's embedded base sequence against the frame's.
                if pcp_codec::crc32c(&record) != crc {
                    ctrl.apply_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "replicated record failed CRC verification",
                    ));
                }
                if pcp_codec::read_u64_le(&record, 0) != Some(first_seq) {
                    ctrl.apply_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "replicated record's embedded sequence disagrees with its frame",
                    ));
                }
                match db.shard(shard).apply_replicated(&record) {
                    Ok(applied_seq) => {
                        if let Some(a) = ctrl.applied.get(shard) {
                            a.store(applied_seq, Ordering::SeqCst);
                        }
                        ctrl.apply_latency.record_duration(t0.elapsed());
                        write_frame(
                            &mut stream,
                            &Request::ReplAck { applied_seq }.encode(),
                        )?;
                    }
                    Err(e) => {
                        ctrl.apply_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
            Response::ReplEnd => return Ok(()), // primary drained us cleanly
            Response::Err(msg) => {
                return Err(io::Error::other(format!("primary refused stream: {msg}")))
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame on replication stream: {other:?}"),
                ))
            }
        }
    }
}

/// Reads one frame, returning `None` on stop or clean EOF. The short read
/// timeout turns the blocking read into a poll of the stop flag.
fn read_frame_polled(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    ctrl: &ReplicaCtrl,
) -> io::Result<Option<Vec<u8>>> {
    use crate::proto::take_frame;
    let mut chunk = [0u8; 16 << 10];
    loop {
        if let Some(payload) = take_frame(buf)? {
            return Ok(Some(payload));
        }
        if ctrl.stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
