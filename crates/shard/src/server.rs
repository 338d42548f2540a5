//! TCP front end over a [`ShardedDb`]: the event-driven [`crate::reactor`]
//! (one epoll event-loop thread, a fixed worker pool, request
//! pipelining, bounded per-connection output queues) serves
//! request/response traffic; this module owns what sits around it — op
//! execution (`ServerShared::handle`), roles and promotion, the metrics
//! registry, replication subscriber streams, and the server lifecycle.
//!
//! The interesting state — memtables, WALs, compaction pipelines — all
//! lives below, in the sharded engine; the service layer only frames
//! requests, routes them, and measures them (per-op latency in two
//! [`pcp_obs::Histogram`]s, read-class and write-class).
//!
//! The server owns the process's [`pcp_obs::Registry`]: at startup it
//! registers its own `pcp_service_*` series plus every shard's
//! `pcp_engine_*` series (via [`ShardedDb::register_metrics`]), and the
//! METRICS request renders the whole registry as Prometheus text
//! exposition — the metric contract is documented in `OBSERVABILITY.md`.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "TCP service endpoint: the listener/stream layer is the service edge; engine I/O \
              below it stays on Env"
)]

use crate::proto::{
    take_frame, write_frame, Request, Response, Role, ServiceStats, SCAN_LIMIT_MAX,
};
use crate::sharded::ShardedDb;
use crate::ship::{NextRecord, ReplSource};
use crate::BatchItem;
use parking_lot::Mutex;
use pcp_lsm::WriteBatch;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a subscriber thread blocks in `read` before re-checking the
/// shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Hook a replica supplies to run its side of PROMOTE (stop pullers and
/// drain them) before the server flips its role to primary.
pub type PromoteHook = Arc<dyn Fn() -> io::Result<()> + Send + Sync>;

/// Configuration for [`KvServer::start_with`].
#[derive(Default)]
pub struct ServerOptions {
    /// Role the service starts in. A [`Role::Replica`] refuses writes
    /// until promoted.
    pub role: Option<Role>,
    /// Outbound replication source: enables REPL_SUBSCRIBE streaming.
    pub repl_source: Option<Arc<ReplSource>>,
    /// Called on PROMOTE (and [`KvServer::promote`]) while still in
    /// replica role, before the role flips.
    pub on_promote: Option<PromoteHook>,
    /// Reactor tuning.
    pub reactor: crate::reactor::ReactorConfig,
}

pub(crate) struct ServerShared {
    db: Arc<ShardedDb>,
    /// Generation counter doubling as the shutdown flag: odd = draining.
    shutdown: std::sync::atomic::AtomicBool,
    /// Wire encoding of [`Role`]; writes are refused while it reads
    /// replica.
    role: AtomicU8,
    repl: Option<Arc<ReplSource>>,
    on_promote: Option<PromoteHook>,
    /// Serializes PROMOTE so the hook runs at most once.
    promote_lock: Mutex<()>,
    ops: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    active_conns: Arc<AtomicUsize>,
    read_latency: Arc<pcp_obs::Histogram>,
    write_latency: Arc<pcp_obs::Histogram>,
    registry: pcp_obs::Registry,
    /// Subscriber stream threads, joined on shutdown.
    subscriber_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServerShared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The server-owned metrics registry (for the reactor's series).
    pub(crate) fn registry(&self) -> &pcp_obs::Registry {
        &self.registry
    }

    /// Counts a request that produced an ERR outside [`Self::handle`]
    /// (e.g. an undecodable payload answered by the front end).
    pub(crate) fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_opened(&self) {
        self.active_conns.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn connection_closed(&self) {
        self.active_conns.fetch_sub(1, Ordering::SeqCst);
    }

    /// Registers a service-owned thread (subscriber streams handed off by
    /// the reactor) to be joined on shutdown.
    pub(crate) fn track_thread(&self, handle: std::thread::JoinHandle<()>) {
        self.subscriber_threads.lock().push(handle);
    }

    fn role(&self) -> Role {
        if self.role.load(Ordering::SeqCst) == 1 {
            Role::Replica
        } else {
            Role::Primary
        }
    }

    /// PROMOTE: run the replica's hook (stop and drain pullers), then flip
    /// the role. Idempotent — promoting a primary is a no-op.
    fn promote(&self) -> io::Result<()> {
        let _g = self.promote_lock.lock();
        if self.role() == Role::Primary {
            return Ok(());
        }
        if let Some(hook) = &self.on_promote {
            hook()?;
        }
        self.role.store(0, Ordering::SeqCst);
        Ok(())
    }

    fn stats(&self) -> ServiceStats {
        let engine = self.db.metrics();
        ServiceStats {
            ops: self.ops.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shards: self.db.shard_count() as u64,
            engine_puts: engine.puts,
            engine_gets: engine.gets,
            flushes: engine.flush_count,
            compactions: engine.compaction_count,
            read_p99_nanos: self.read_latency.quantile(0.99),
            write_p99_nanos: self.write_latency.quantile(0.99),
            per_shard_puts: self.db.shard_metrics().iter().map(|m| m.puts).collect(),
        }
    }

    pub(crate) fn handle(&self, req: Request) -> Response {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        if self.role() == Role::Replica
            && matches!(
                req,
                Request::Put(..) | Request::Delete(..) | Request::Batch(..)
            )
        {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Response::Err(
                "replica role refuses writes; write to the primary or PROMOTE first".into(),
            );
        }
        let result = match req {
            Request::Get(key) => match self.db.get(&key) {
                Ok(Some(v)) => Ok((Response::Value(v), &self.read_latency)),
                Ok(None) => Ok((Response::NotFound, &self.read_latency)),
                Err(e) => Err(e),
            },
            Request::Put(key, value) => self
                .db
                .put(&key, &value)
                .map(|()| (Response::Ok, &self.write_latency)),
            Request::Delete(key) => self
                .db
                .delete(&key)
                .map(|()| (Response::Ok, &self.write_latency)),
            Request::Batch(items) => {
                let mut batch = WriteBatch::new();
                for item in &items {
                    match item {
                        BatchItem::Put(k, v) => batch.put(k, v),
                        BatchItem::Delete(k) => batch.delete(k),
                    }
                }
                self.db
                    .write(batch)
                    .map(|()| (Response::Ok, &self.write_latency))
            }
            Request::Scan { start, limit } => {
                let limit = limit.min(SCAN_LIMIT_MAX) as usize;
                self.db
                    .scan(&start, limit)
                    .map(|entries| (Response::Entries(entries), &self.read_latency))
            }
            Request::Stats => Ok((Response::Stats(self.stats()), &self.read_latency)),
            Request::Metrics => Ok((
                Response::MetricsText(self.registry.render_prometheus()),
                &self.read_latency,
            )),
            Request::Role => Ok((
                Response::RoleInfo {
                    role: self.role(),
                    last_seqs: self.db.last_sequences(),
                },
                &self.read_latency,
            )),
            Request::Promote => self
                .promote()
                .map(|()| (Response::Ok, &self.write_latency)),
            // Subscriptions are intercepted by the reactor before dispatch;
            // an ack with no subscription on this connection is a protocol
            // error.
            Request::ReplSubscribe { .. } | Request::ReplAck { .. } => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication message outside an active subscription",
            )),
        };
        match result {
            Ok((resp, histogram)) => {
                histogram.record_duration(t0.elapsed());
                resp
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(e.to_string())
            }
        }
    }
}

/// A running KV service; dropping it (or calling
/// [`KvServer::shutdown`]) drains connections and joins every thread.
pub struct KvServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    /// The reactor event loop.
    service_thread: Option<std::thread::JoinHandle<()>>,
    /// Wakes the event loop out of its poll wait.
    waker: crate::reactor::Waker,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `db`, as a primary with replication
    /// disabled.
    pub fn start(db: Arc<ShardedDb>, addr: impl ToSocketAddrs) -> io::Result<KvServer> {
        Self::start_with(db, addr, ServerOptions::default())
    }

    /// [`KvServer::start`] with an explicit role, replication source, and
    /// promote hook (see [`ServerOptions`]).
    pub fn start_with(
        db: Arc<ShardedDb>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> io::Result<KvServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let ops = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let active_conns = Arc::new(AtomicUsize::new(0));
        let read_latency = Arc::new(pcp_obs::Histogram::new());
        let write_latency = Arc::new(pcp_obs::Histogram::new());
        let registry = pcp_obs::Registry::new();
        db.register_metrics(&registry);
        {
            let ops = Arc::clone(&ops);
            registry.register_fn_counter(
                "pcp_service_requests_total",
                "requests served (all opcodes, successful or not)",
                Vec::new(),
                move || ops.load(Ordering::Relaxed),
            );
            let errors = Arc::clone(&errors);
            registry.register_fn_counter(
                "pcp_service_errors_total",
                "requests that returned ERR",
                Vec::new(),
                move || errors.load(Ordering::Relaxed),
            );
            let active = Arc::clone(&active_conns);
            registry.register_fn_gauge(
                "pcp_service_active_connections",
                "connections currently being served",
                Vec::new(),
                move || active.load(Ordering::SeqCst) as f64,
            );
            registry.register_histogram(
                "pcp_service_read_latency_nanoseconds",
                "server-side latency of read-class ops (GET/SCAN/STATS/METRICS)",
                Vec::new(),
                Arc::clone(&read_latency),
            );
            registry.register_histogram(
                "pcp_service_write_latency_nanoseconds",
                "server-side latency of write-class ops (PUT/DELETE/BATCH)",
                Vec::new(),
                Arc::clone(&write_latency),
            );
        }
        if let Some(source) = &options.repl_source {
            source.register_metrics(&registry);
        }
        let role = match options.role.unwrap_or(Role::Primary) {
            Role::Primary => 0,
            Role::Replica => 1,
        };
        let shared = Arc::new(ServerShared {
            db,
            shutdown: std::sync::atomic::AtomicBool::new(false),
            role: AtomicU8::new(role),
            repl: options.repl_source,
            on_promote: options.on_promote,
            promote_lock: Mutex::new(()),
            ops,
            errors,
            active_conns,
            read_latency,
            write_latency,
            registry,
            subscriber_threads: Mutex::new(Vec::new()),
        });
        {
            // Weak: the registry lives inside `shared`, so a strong
            // capture would be a cycle that never frees the engine handle.
            let role_shared = Arc::downgrade(&shared);
            shared.registry.register_fn_gauge(
                "pcp_repl_role",
                "service role: 0 = primary, 1 = replica",
                Vec::new(),
                move || {
                    role_shared
                        .upgrade()
                        .map_or(0.0, |s| s.role.load(Ordering::SeqCst) as f64)
                },
            );
        }
        let handle = crate::reactor::spawn(listener, Arc::clone(&shared), options.reactor)?;
        Ok(KvServer {
            local_addr,
            shared,
            service_thread: Some(handle.thread),
            waker: handle.waker,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active_conns.load(Ordering::SeqCst)
    }

    /// Server-side view of the same statistics STATS returns.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// The Prometheus text exposition METRICS returns, rendered
    /// server-side (no connection required).
    pub fn metrics_text(&self) -> String {
        self.shared.registry.render_prometheus()
    }

    /// The server's metrics registry, for registering additional
    /// collectors (e.g. device stats) into the same exposition.
    pub fn registry(&self) -> &pcp_obs::Registry {
        &self.shared.registry
    }

    /// The service's current role.
    pub fn role(&self) -> Role {
        self.shared.role()
    }

    /// Promotes a replica service to primary in-process — the same path
    /// the PROMOTE opcode takes. Idempotent on a primary.
    pub fn promote(&self) -> io::Result<()> {
        self.shared.promote()
    }

    /// Stops accepting, drains in-flight connections, and joins every
    /// service thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the event loop out of its poll wait; it drains in-flight
        // ops and flushes responses before exiting.
        self.waker.wake();
        if let Some(t) = self.service_thread.take() {
            let _ = t.join();
        }
        let subscribers = std::mem::take(&mut *self.shared.subscriber_threads.lock());
        for t in subscribers {
            let _ = t.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Outcome of waiting for a subscriber's REPL_ACK.
enum AckWait {
    /// The subscriber acknowledged up to this sequence.
    Acked(u64),
    /// Server shutdown was requested while waiting.
    Shutdown,
    /// The subscriber closed its end.
    Eof,
}

/// Streams shard `shard`'s committed records to a subscriber, one record
/// per acknowledged round trip, until the subscriber disconnects or the
/// server shuts down — in which case the stream is drained with a clean
/// REPL_END frame rather than a dropped socket.
pub(crate) fn serve_subscriber(
    mut stream: TcpStream,
    shared: &ServerShared,
    mut buf: Vec<u8>,
    shard: u64,
    from_seq: u64,
) -> io::Result<()> {
    let Some(source) = shared.repl.as_ref() else {
        write_frame(
            &mut stream,
            &Response::Err("replication is not enabled on this service".into()).encode(),
        )?;
        return Ok(());
    };
    if shard as usize >= source.shards() {
        write_frame(
            &mut stream,
            &Response::Err(format!("no such shard {shard}")).encode(),
        )?;
        return Ok(());
    }
    let shard = shard as usize;
    let retry = pcp_storage::RetryPolicy::default();
    let mut want = from_seq;
    loop {
        if shared.shutting_down() {
            end_subscription(&mut stream);
            return Ok(());
        }
        match source.next_record(shard, want, POLL_INTERVAL) {
            Ok(NextRecord::Pending) => continue,
            Ok(NextRecord::Record { first_seq, payload }) => {
                let frame = Response::ReplRecord {
                    first_seq,
                    crc: pcp_codec::crc32c(&payload),
                    record: payload,
                }
                .encode();
                pcp_storage::with_retry(&retry, || write_frame(&mut stream, &frame))?;
                match wait_for_ack(&mut stream, &mut buf, shared)? {
                    AckWait::Acked(applied_seq) => {
                        source.ack(shard, applied_seq);
                        want = applied_seq + 1;
                    }
                    AckWait::Shutdown => {
                        end_subscription(&mut stream);
                        return Ok(());
                    }
                    AckWait::Eof => return Ok(()),
                }
            }
            Err(e) => {
                // Gap or misalignment: tell the subscriber why, then close
                // so it can latch the condition instead of spinning.
                shared.errors.fetch_add(1, Ordering::Relaxed);
                write_frame(&mut stream, &Response::Err(e.to_string()).encode())?;
                return Ok(());
            }
        }
    }
}

/// Ends a subscription cleanly: final REPL_END frame, half-close, then a
/// bounded drain of whatever the subscriber still has in flight (an ack
/// that lost the race with shutdown sits unread in our receive queue;
/// closing over it would turn the FIN into an RST and discard the
/// REPL_END the subscriber is about to read).
fn end_subscription(stream: &mut TcpStream) {
    let _ = write_frame(stream, &Response::ReplEnd.encode());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // One read timeout (POLL_INTERVAL, set on every subscriber socket) of
    // silence means nothing was in flight; a peer FIN ends it sooner.
    let mut chunk = [0u8; 4 << 10];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer saw REPL_END and closed
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Blocks (polling the shutdown flag) until the subscriber's next frame,
/// which must be a REPL_ACK.
fn wait_for_ack(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &ServerShared,
) -> io::Result<AckWait> {
    let mut chunk = [0u8; 4 << 10];
    loop {
        if let Some(payload) = take_frame(buf)? {
            return match Request::decode(&payload) {
                Ok(Request::ReplAck { applied_seq }) => Ok(AckWait::Acked(applied_seq)),
                Ok(other) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected REPL_ACK on subscription, got {other:?}"),
                )),
                Err(e) => Err(e),
            };
        }
        if shared.shutting_down() {
            return Ok(AckWait::Shutdown);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(AckWait::Eof),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
