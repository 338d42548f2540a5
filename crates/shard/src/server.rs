//! TCP front end over a [`ShardedDb`]: one thread per connection.
//!
//! ```text
//!  pcp-kv-accept:   accept ──▶ start pcp-kv-conn-N with the socket
//!
//!  pcp-kv-conn-N:   read ──▶ FrameDecoder ──▶ ServerShared::handle ──▶ output buffer ──▶ write_all
//!                    ▲                                                                  │
//!                    └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Accepting**: the acceptor thread blocks in `accept` and starts one
//!   named thread per socket. Connection threads are scoped to the
//!   acceptor, so the server keeps no handle of theirs: the acceptor's
//!   scope joins them.
//! * **Serving**: a connection thread reads into its [`FrameDecoder`],
//!   runs every complete frame through `ServerShared::handle` in order and
//!   appends each response to its output buffer, so responses leave in
//!   request order by construction. It writes the buffer (`write_all`)
//!   once the decoder holds no complete frame, or once the buffer reaches
//!   `MAX_OUTPUT_BYTES` (1 MiB): a client that does not read blocks only
//!   its own connection's thread, in that write, and TCP pushes back on
//!   it.
//! * **Blocking requests**: a request that blocks (a write stall, a
//!   cache-miss read) holds only its own connection (`DESIGN.md` §14).
//! * **Graceful shutdown**: the acceptor stops, every live socket's read
//!   side is shut so each thread serves the frames it already received and
//!   flushes their answers; a socket still undrained after
//!   `DRAIN_DEADLINE` (10 s) is force-closed; then every thread is joined.
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

use crate::proto::{append_frame, FrameDecoder, Request, Response, MAX_FRAME, SCAN_LIMIT_MAX};
use crate::sharded::ShardedDb;
use crate::BatchItem;
use parking_lot::{Condvar, Mutex};
use pcp_lsm::WriteBatch;
use pcp_storage::blocking;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Scope};
use std::time::{Duration, Instant};

/// Queued response bytes at which a connection thread writes before it
/// serves more of the frames it has decoded.
const MAX_OUTPUT_BYTES: usize = 1 << 20;

/// How long shutdown waits for connections to flush the answers to what
/// they received before it force-closes them, so a client that never
/// reads cannot wedge shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Bytes one socket read may take.
const READ_CHUNK: usize = 16 << 10;

/// How long the acceptor waits after an `accept` error that is not the
/// peer's (out of descriptors, say) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The service's counters; the registry's closures read them.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    active: AtomicU64,
    accepts: AtomicU64,
    reads: AtomicU64,
    forced_writes: AtomicU64,
    busy_nanos: AtomicU64,
}

/// What the acceptor and every connection thread share.
struct ServerShared {
    db: Arc<ShardedDb>,
    /// Set once by [`KvServer::shutdown`]: the acceptor stops.
    shutdown: AtomicBool,
    counters: Arc<Counters>,
    read_latency: Arc<pcp_obs::Histogram>,
    write_latency: Arc<pcp_obs::Histogram>,
    output_bytes: Arc<pcp_obs::Histogram>,
    registry: pcp_obs::Registry,
    /// A clone of each live connection's socket, by connection number:
    /// what shutdown reaches to end their reads and, at the deadline, to
    /// force-close them. A connection thread removes its own on exit.
    live: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled as each connection thread ends.
    ended: Condvar,
}

impl ServerShared {
    /// Registers the `pcp_service_*` series and every shard's series in a
    /// fresh registry.
    fn new(db: Arc<ShardedDb>) -> ServerShared {
        let registry = pcp_obs::Registry::new();
        db.register_metrics(&registry);
        let counters = Arc::new(Counters::default());
        let sum = |read: fn(&Counters) -> &AtomicU64| {
            let counters = Arc::clone(&counters);
            move || read(&counters).load(Ordering::Relaxed)
        };
        for (name, help, read) in [
            (
                "pcp_service_requests_total",
                "requests served (all opcodes, successful or not)",
                (|c| &c.requests) as fn(&Counters) -> &AtomicU64,
            ),
            (
                "pcp_service_errors_total",
                "requests that returned ERR",
                |c| &c.errors,
            ),
            ("pcp_service_accepts_total", "connections accepted", |c| {
                &c.accepts
            }),
            (
                "pcp_service_reactor_wakeups_total",
                "socket reads that returned bytes, summed over the connections",
                |c| &c.reads,
            ),
            (
                "pcp_service_backpressure_pauses_total",
                "writes forced by a connection's queued output reaching its budget",
                |c| &c.forced_writes,
            ),
            (
                "pcp_service_worker_ops_total",
                "ops executed by the connection threads",
                |c| &c.requests,
            ),
            (
                "pcp_service_worker_busy_nanoseconds_total",
                "time the connection threads spent executing and encoding ops",
                |c| &c.busy_nanos,
            ),
        ] {
            registry.register_fn_counter(name, help, Vec::new(), sum(read));
        }
        let active = sum(|c| &c.active);
        registry.register_fn_gauge(
            "pcp_service_active_connections",
            "connections currently being served",
            Vec::new(),
            move || active() as f64,
        );
        let read_latency = Arc::new(pcp_obs::Histogram::new());
        let write_latency = Arc::new(pcp_obs::Histogram::new());
        registry.register_histogram(
            "pcp_service_read_latency_nanoseconds",
            "server-side latency of read-class ops (GET/SCAN/METRICS)",
            Vec::new(),
            Arc::clone(&read_latency),
        );
        registry.register_histogram(
            "pcp_service_write_latency_nanoseconds",
            "server-side latency of write-class ops (PUT/DELETE/BATCH)",
            Vec::new(),
            Arc::clone(&write_latency),
        );
        let output_bytes = registry.histogram(
            "pcp_service_output_queue_bytes",
            "per-connection queued response bytes observed at each write",
        );
        ServerShared {
            db,
            shutdown: AtomicBool::new(false),
            counters,
            read_latency,
            write_latency,
            output_bytes,
            registry,
            live: Mutex::new(HashMap::new()),
            ended: Condvar::new(),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs one request and returns its encoded answer. An answer that
    /// would not fit in a frame — a SCAN over large values — is an ERR
    /// instead, never a short page: fewer than `limit` entries means the
    /// end of the data.
    fn handle(&self, req: Request) -> Vec<u8> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
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
            Request::Metrics => Ok((
                Response::MetricsText(self.registry.render_prometheus()),
                &self.read_latency,
            )),
        };
        let answer = result.and_then(|(resp, histogram)| {
            let payload = resp.encode();
            if payload.len() > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "answer of {} bytes exceeds MAX_FRAME ({MAX_FRAME}); ask for fewer entries",
                        payload.len()
                    ),
                ));
            }
            Ok((payload, histogram))
        });
        match answer {
            Ok((payload, histogram)) => {
                histogram.record_duration(t0.elapsed());
                payload
            }
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(e.to_string()).encode()
            }
        }
    }

    /// Answers one frame's payload into `out`. An undecodable payload gets
    /// a "bad request" ERR in its slot and the connection stays usable.
    fn answer(&self, payload: &[u8], out: &mut Vec<u8>) {
        match Request::decode(payload) {
            Ok(req) => {
                let t0 = Instant::now();
                append_frame(out, &self.handle(req));
                self.counters
                    .busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                append_frame(out, &Response::Err(format!("bad request: {e}")).encode());
            }
        }
    }

    /// Serves one connection until the peer closes it, its read side is
    /// shut, a frame is corrupt, or the socket fails.
    fn serve(&self, mut stream: TcpStream) {
        stream.set_nodelay(true).ok();
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            loop {
                match decoder.next_frame() {
                    Ok(Some(payload)) => self.answer(&payload, &mut out),
                    Ok(None) => break,
                    // Corrupt frame: the stream is unrecoverable, so the
                    // socket closes without a response.
                    Err(_) => return,
                }
                if out.len() >= MAX_OUTPUT_BYTES {
                    self.counters.forced_writes.fetch_add(1, Ordering::Relaxed);
                    if self.write_out(&mut stream, &mut out).is_err() {
                        return;
                    }
                }
            }
            if !out.is_empty() && self.write_out(&mut stream, &mut out).is_err() {
                return;
            }
            match blocking::wait("socket read", || stream.read(&mut chunk)) {
                // Peer EOF, or shutdown shut the read side: every frame
                // received has been answered and flushed.
                Ok(0) => return,
                Ok(n) => {
                    self.counters.reads.fetch_add(1, Ordering::Relaxed);
                    decoder.push(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn write_out(&self, stream: &mut TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
        self.output_bytes.record(out.len() as u64);
        blocking::wait("socket write", || stream.write_all(out))?;
        out.clear();
        Ok(())
    }

    /// Accepts until shutdown, starting one scoped thread per socket, then
    /// drains. The scope joins every connection thread on return.
    fn accept_loop(&self, listener: TcpListener) {
        thread::scope(|scope| {
            let mut next = 0u64;
            loop {
                let accepted = blocking::wait("accept", || listener.accept());
                if self.shutting_down() {
                    break; // the wake-up connection, or one that came too late
                }
                match accepted {
                    Ok((stream, _)) => {
                        self.counters.accepts.fetch_add(1, Ordering::Relaxed);
                        self.start_connection(scope, next, stream);
                        next += 1;
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => blocking::sleep(ACCEPT_BACKOFF),
                }
            }
            drop(listener);
            self.drain();
        });
    }

    /// Registers `stream` as connection `id` and starts its thread. A
    /// socket that cannot be registered or given a thread is closed and
    /// counted as an error.
    fn start_connection<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        id: u64,
        stream: TcpStream,
    ) {
        let Ok(clone) = stream.try_clone() else {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.live.lock().insert(id, clone);
        self.counters.active.fetch_add(1, Ordering::SeqCst);
        let spawned = thread::Builder::new()
            .name(format!("pcp-kv-conn-{id}"))
            .spawn_scoped(scope, move || {
                let _live = LiveConnection { shared: self, id };
                self.serve(stream);
            });
        if spawned.is_err() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            self.end_connection(id);
        }
    }

    /// Drops connection `id`'s socket clone and wakes a draining shutdown.
    fn end_connection(&self, id: u64) {
        self.live.lock().remove(&id);
        self.counters.active.fetch_sub(1, Ordering::SeqCst);
        self.ended.notify_all();
    }

    /// Shuts every live socket's read side, so each thread answers what it
    /// received and ends; force-closes whatever is still live at the
    /// deadline.
    fn drain(&self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut live = self.live.lock();
        for socket in live.values() {
            let _ = socket.shutdown(Shutdown::Read);
        }
        while !live.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                for socket in live.values() {
                    let _ = socket.shutdown(Shutdown::Both);
                }
                return;
            }
            self.ended.wait_for(&mut live, left);
        }
    }
}

/// Ends its connection when the connection thread returns or unwinds.
struct LiveConnection<'a> {
    shared: &'a ServerShared,
    id: u64,
}

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        self.shared.end_connection(self.id);
    }
}

/// A running KV service; dropping it (or calling
/// [`KvServer::shutdown`]) drains connections and joins every thread.
pub struct KvServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    /// The acceptor, whose scope holds the connection threads; taken by
    /// shutdown.
    acceptor: Option<JoinHandle<()>>,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `db`.
    pub fn start(db: Arc<ShardedDb>, addr: impl ToSocketAddrs) -> io::Result<KvServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared::new(db));
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pcp-kv-accept".to_string())
                .spawn(move || shared.accept_loop(listener))?
        };
        Ok(KvServer {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
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

    /// Stops accepting, drains every connection, and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`; it sees the flag and drains.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = blocking::wait("connect", || TcpStream::connect(wake));
        let _ = blocking::wait("thread join", || acceptor.join());
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashRouter, KvClient};
    use pcp_lsm::Options;
    use pcp_storage::{EnvRef, SimDevice, SimEnv};

    /// Connections that open and close leave nothing behind: the gauge
    /// reads 0 and the server holds no socket of theirs (nor a thread
    /// handle: connection threads are scoped to the acceptor).
    #[test]
    fn closed_connections_leave_no_socket_behind() {
        let envs: Vec<EnvRef> = (0..2)
            .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(16 << 20)))) as EnvRef)
            .collect();
        let router = Arc::new(HashRouter::new(2));
        let db = Arc::new(ShardedDb::open_with_envs(envs, Options::default(), router).unwrap());
        let mut server = KvServer::start(db, "127.0.0.1:0").unwrap();
        for i in 0..50u32 {
            let mut client = KvClient::connect(server.local_addr()).unwrap();
            client.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let shared = Arc::clone(&server.shared);
        let mut live = shared.live.lock();
        while !live.is_empty() {
            assert!(
                !shared.ended.wait_for(&mut live, DRAIN_DEADLINE),
                "{} connections still live",
                live.len()
            );
        }
        drop(live);
        let text = server.metrics_text();
        assert!(
            text.contains("\npcp_service_active_connections 0\n"),
            "{text}"
        );
        assert!(text.contains("\npcp_service_accepts_total 50\n"), "{text}");
        server.shutdown();
    }
}
