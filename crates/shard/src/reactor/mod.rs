//! Event-driven front end: a nonblocking reactor + fixed worker pool.
//!
//! A thread per connection is fine for tens of clients and fatal for
//! thousands. [`crate::KvServer`] serves the wire protocol from a single
//! event-loop thread:
//!
//! ```text
//!                 ┌────────────────────────── reactor thread ─┐
//!  accept ───▶ epoll ──▶ read ──▶ FrameDecoder ──▶ dispatch ─┐
//!                 ▲   ▲                                     │
//!                 │   └── wake pipe ◀── completions ◀── workers ◀┘
//!                 └────── write-interest ◀── ordered responses
//! ```
//!
//! * **Readiness loop** ([`poller`]): edge-triggered epoll; read and
//!   write paths drain until `WouldBlock`, the invariant edge triggering
//!   requires.
//! * **Connection FSM** ([`conn`]): incremental CRC-framed assembly from
//!   partial reads, a per-connection reorder window so responses leave in
//!   request order, and a bounded output queue.
//! * **Worker pool** ([`workers`]): a fixed set of threads executing ops
//!   through `crate::server::ServerShared::handle`.
//! * **Request pipelining**: a client may keep many frames in flight on
//!   one connection; concurrent ops from many connections land in the
//!   worker pool together, which is exactly what keeps the group-commit
//!   leader's batches full (DESIGN.md §12, §14).
//! * **Backpressure**: when a connection's output queue or in-flight
//!   window is over budget the reactor stops *reading* from it — TCP then
//!   pushes back on the client once socket buffers fill. No unbounded
//!   queue anywhere.
//! * **Graceful shutdown**: frames already received are still served,
//!   in-flight ops finish, queued responses flush, then sockets close —
//!   no accepted request is dropped.
//!
//! Replication subscriptions (`REPL_SUBSCRIBE`) are long-lived push
//! streams with their own lockstep pacing; the reactor hands those
//! sockets to dedicated threads (`crate::server::serve_subscriber`'s
//! blocking loop) once the connection's pipelined window drains.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "service front end like server.rs: nonblocking TCP accept and I/O is the reactor's \
              job; engine I/O below it stays on Env"
)]

pub mod conn;
pub mod poller;
pub mod workers;

pub use conn::FrameDecoder;
pub use workers::Waker;

use crate::proto::{encode_frame, Request, Response};
use crate::server::ServerShared;
use conn::{Conn, ConnState};
use poller::{Event, Interest, Poller};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Poll timeout: the backstop cadence for noticing shutdown if a wakeup
/// is ever lost; the wake pipe makes the common case immediate.
const WAIT_MS: i32 = 50;

/// How long shutdown waits for unread clients to accept their flushed
/// responses before force-closing, so a never-reading client cannot
/// wedge shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Tuning for the reactor front end (see `DESIGN.md` §14).
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Worker threads executing ops. `0` means `max(2, cores)`.
    pub workers: usize,
    /// Per-connection output-queue budget in bytes; reading pauses while
    /// the queue is over it.
    pub max_output_bytes: usize,
    /// Per-connection cap on dispatched-but-unflushed requests; reading
    /// pauses at the cap (bounds the reorder window).
    pub max_in_flight: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: 0,
            max_output_bytes: 1 << 20,
            max_in_flight: 256,
        }
    }
}

impl ReactorConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2)
    }
}

/// Handle the [`crate::KvServer`] keeps for a running reactor.
pub(crate) struct ReactorHandle {
    pub thread: std::thread::JoinHandle<()>,
    pub waker: Waker,
}

/// Counters shared between the loop and the metrics registry.
struct Counters {
    accepts: Arc<AtomicU64>,
    wakeups: Arc<AtomicU64>,
    backpressure: Arc<AtomicU64>,
    connections: Arc<AtomicUsize>,
    dispatch_depth: Arc<pcp_obs::Histogram>,
    pipeline_depth: Arc<pcp_obs::Histogram>,
    output_bytes: Arc<pcp_obs::Histogram>,
}

/// Builds the poller, wake pipe, and worker pool, registers the
/// `pcp_service_*` reactor series, and spawns the event-loop thread.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    cfg: ReactorConfig,
) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let waker = Waker::new(wake_tx);

    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;

    let workers = cfg.effective_workers();
    let pool = workers::WorkerPool::start(workers, Arc::clone(&shared), waker.try_clone()?)?;

    let registry = shared.registry();
    let counters = Counters {
        accepts: Arc::new(AtomicU64::new(0)),
        wakeups: Arc::new(AtomicU64::new(0)),
        backpressure: Arc::new(AtomicU64::new(0)),
        connections: Arc::new(AtomicUsize::new(0)),
        dispatch_depth: registry.histogram(
            "pcp_service_dispatch_queue_depth",
            "worker-queue depth observed at each dispatch",
        ),
        pipeline_depth: registry.histogram(
            "pcp_service_pipeline_depth",
            "per-connection in-flight requests observed at each dispatch",
        ),
        output_bytes: registry.histogram(
            "pcp_service_output_queue_bytes",
            "per-connection queued response bytes observed at each completion",
        ),
    };
    {
        let conns = Arc::clone(&counters.connections);
        registry.register_fn_gauge(
            "pcp_service_connections",
            "connections currently owned by the reactor event loop",
            Vec::new(),
            move || conns.load(Ordering::SeqCst) as f64,
        );
        let accepts = Arc::clone(&counters.accepts);
        registry.register_fn_counter(
            "pcp_service_accepts_total",
            "connections accepted by the reactor",
            Vec::new(),
            move || accepts.load(Ordering::Relaxed),
        );
        let wakeups = Arc::clone(&counters.wakeups);
        registry.register_fn_counter(
            "pcp_service_reactor_wakeups_total",
            "readiness wakeups (poller waits that delivered events)",
            Vec::new(),
            move || wakeups.load(Ordering::Relaxed),
        );
        let bp = Arc::clone(&counters.backpressure);
        registry.register_fn_counter(
            "pcp_service_backpressure_pauses_total",
            "times a connection's reads were paused by output backpressure",
            Vec::new(),
            move || bp.load(Ordering::Relaxed),
        );
        for (i, ws) in pool.stats().iter().enumerate() {
            let label = vec![("worker".to_string(), i.to_string())];
            let ops = Arc::clone(&ws.ops);
            registry.register_fn_counter(
                "pcp_service_worker_ops_total",
                "ops executed per worker",
                label.clone(),
                move || ops.load(Ordering::Relaxed),
            );
            let busy = Arc::clone(&ws.busy_nanos);
            registry.register_fn_counter(
                "pcp_service_worker_busy_nanoseconds_total",
                "time spent executing ops per worker",
                label,
                move || busy.load(Ordering::Relaxed),
            );
        }
    }

    let loop_waker = waker.try_clone()?;
    let reactor = Reactor {
        listener: Some(listener),
        wake_rx,
        poller,
        pool,
        shared,
        cfg,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        counters,
        drain_started: None,
    };
    let thread = std::thread::Builder::new()
        .name("pcp-kv-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        thread,
        waker: loop_waker,
    })
}

struct Reactor {
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    poller: Poller,
    pool: workers::WorkerPool,
    shared: Arc<ServerShared>,
    cfg: ReactorConfig,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    counters: Counters,
    drain_started: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            events.clear();
            match self.poller.wait(&mut events, WAIT_MS) {
                Ok(n) if n > 0 => {
                    self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                Ok(_) => {}
                Err(_) => {
                    if self.shared.shutting_down() && self.conns.is_empty() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            let ready = std::mem::take(&mut events);
            for ev in &ready {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    token => {
                        if ev.readable || ev.error {
                            self.conn_readable(token);
                        }
                        if ev.writable {
                            self.conn_writable(token);
                        }
                    }
                }
            }
            events = ready;
            self.collect_completions();
            if self.shared.shutting_down() {
                self.begin_drain();
            }
            self.sweep();
            if self.drain_started.is_some() && self.conns.is_empty() {
                break;
            }
        }
        self.close_listener();
        self.pool.shutdown();
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutting_down() {
                        continue; // accept-and-close during drain
                    }
                    self.counters.accepts.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, token));
                    self.counters.connections.fetch_add(1, Ordering::SeqCst);
                    self.shared.connection_opened();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    // -- per-connection I/O --------------------------------------------------

    fn over_budget(&self, conn: &Conn) -> bool {
        conn.out_bytes() >= self.cfg.max_output_bytes
            || conn.in_flight + conn.pending.len() >= self.cfg.max_in_flight
    }

    fn conn_readable(&mut self, token: u64) {
        let mut chunk = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Open || conn.handoff.is_some() {
                return;
            }
            use std::io::Read;
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer EOF: serve the complete frames already buffered,
                    // answer them, then close.
                    conn.peer_eof = true;
                    if !self.parse_frames(token) {
                        return;
                    }
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.state = ConnState::Draining;
                    }
                    return;
                }
                Ok(n) => {
                    conn.decoder.push(&chunk[..n]);
                    if !self.parse_frames(token) {
                        return;
                    }
                    // Stop reading while over budget; sweep() drops read
                    // interest until the queue drains. The pause is marked
                    // here — the moment reads actually stop — because the
                    // budget can be exceeded and fully drained again between
                    // two sweeps, which would otherwise never count it.
                    if self.conns.get(&token).is_some_and(|c| self.over_budget(c)) {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if !conn.paused {
                                conn.paused = true;
                                self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        return;
                    }
                    if self.conns.get(&token).is_some_and(|c| c.handoff.is_some()) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Parses every complete frame buffered on `token`, dispatching ops to
    /// the worker pool as one batch (one queue lock, one condvar round per
    /// readable event, not per frame). Returns `false` if the connection
    /// was closed (bad frame) or vanished.
    fn parse_frames(&mut self, token: u64) -> bool {
        let mut batch: Vec<workers::Job> = Vec::new();
        let alive = loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                break false;
            };
            if conn.handoff.is_some() {
                break true;
            }
            let payload = match conn.decoder.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break true,
                Err(_) => {
                    // Corrupt frame: the stream is unrecoverable, so the
                    // socket is dropped without a response.
                    self.close_conn(token);
                    break false;
                }
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            match Request::decode(&payload) {
                Ok(Request::ReplSubscribe { shard, from_seq }) => {
                    // Do not consume the seq for ordering purposes: the
                    // subscription takes over once earlier ops drain.
                    conn.next_seq -= 1;
                    conn.handoff = Some((shard, from_seq));
                }
                Ok(req) => {
                    conn.in_flight += 1;
                    self.counters
                        .pipeline_depth
                        .record(conn.in_flight as u64);
                    batch.push(workers::Job {
                        conn: token,
                        seq,
                        req,
                    });
                }
                Err(e) => {
                    // Malformed payload: answer in-line but in-order with
                    // a "bad request" ERR; the connection stays usable.
                    self.shared.count_error();
                    let frame =
                        encode_frame(&Response::Err(format!("bad request: {e}")).encode());
                    conn.complete(seq, frame);
                }
            }
        };
        if !batch.is_empty() {
            let depth = self.pool.dispatch_batch(&mut batch);
            self.counters.dispatch_depth.record(depth as u64);
        }
        alive
    }

    fn conn_writable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flush().is_err() {
            self.close_conn(token);
        }
    }

    fn collect_completions(&mut self) {
        let completions = self.pool.take_completions();
        if completions.is_empty() {
            return;
        }
        // Land every completion first, then flush each touched connection
        // once — a pipelined burst becomes one write(2), not one per op.
        let mut touched: Vec<u64> = Vec::new();
        for completion in completions {
            let Some(conn) = self.conns.get_mut(&completion.conn) else {
                continue; // connection died with ops in flight
            };
            if conn.complete(completion.seq, completion.frame) > 0
                && !touched.contains(&completion.conn)
            {
                touched.push(completion.conn);
            }
        }
        for token in touched {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            self.counters.output_bytes.record(conn.out_bytes() as u64);
            // Optimistic flush: skip an event-loop round trip when the
            // socket has room (the common case).
            if conn.flush().is_err() {
                self.close_conn(token);
            }
        }
    }

    // -- lifecycle ----------------------------------------------------------

    /// Transitions every connection into draining once shutdown is
    /// requested. Idempotent.
    fn begin_drain(&mut self) {
        if self.drain_started.is_some() {
            return;
        }
        self.drain_started = Some(Instant::now());
        self.close_listener();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            // Serve frames already received, then stop reading.
            if self.parse_frames(token) {
                if let Some(conn) = self.conns.get_mut(&token) {
                    if conn.state == ConnState::Open {
                        conn.state = ConnState::Draining;
                    }
                }
            }
        }
    }

    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
    }

    /// Updates poller interest to match each connection's desires, applies
    /// backpressure accounting, performs subscriber handoffs, and reaps
    /// drained/deadline-expired connections.
    fn sweep(&mut self) {
        let deadline_passed = self
            .drain_started
            .is_some_and(|t| t.elapsed() > DRAIN_DEADLINE);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let over = match self.conns.get(&token) {
                Some(conn) => self.over_budget(conn),
                None => continue,
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.state == ConnState::Open && conn.handoff.is_none() {
                if over && !conn.paused {
                    conn.paused = true;
                    self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                } else if !over && conn.paused {
                    conn.paused = false;
                }
            }
            let drained = conn.drained();
            // Subscriber handoff: once the pipelined window is empty the
            // socket leaves the reactor for a dedicated push-stream thread.
            if conn.handoff.is_some() && drained {
                self.handoff_subscriber(token);
                continue;
            }
            if (conn.state == ConnState::Draining || conn.peer_eof) && drained {
                self.close_conn(token);
                continue;
            }
            if deadline_passed {
                self.close_conn(token);
                continue;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let desired = conn.desired_interest(over);
            if desired != conn.registered_interest {
                let interest = Interest {
                    read: desired.0,
                    write: desired.1,
                };
                if self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, interest)
                    .is_err()
                {
                    self.close_conn(token);
                    continue;
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.registered_interest = desired;
                }
            }
        }
    }

    fn handoff_subscriber(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.counters.connections.fetch_sub(1, Ordering::SeqCst);
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let Some((shard, from_seq)) = conn.handoff else {
            self.shared.connection_closed();
            return;
        };
        let stream = conn.stream;
        let buffered = conn.decoder.into_buffered();
        // Back to blocking mode with the poll-interval read timeout the
        // subscriber loop expects (it polls the shutdown flag between
        // reads).
        if stream.set_nonblocking(false).is_err()
            || stream
                .set_read_timeout(Some(crate::server::POLL_INTERVAL))
                .is_err()
        {
            self.shared.connection_closed();
            return;
        }
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("pcp-kv-subscriber".into())
            .spawn(move || {
                let _ = crate::server::serve_subscriber(
                    stream, &shared, buffered, shard, from_seq,
                );
                shared.connection_closed();
            });
        match spawned {
            Ok(handle) => self.shared.track_thread(handle),
            Err(_) => self.shared.connection_closed(),
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.counters.connections.fetch_sub(1, Ordering::SeqCst);
            self.shared.connection_closed();
        }
    }
}
