//! Event-driven front end: one event loop per core, each running every
//! request it parses to completion.
//!
//! A thread per connection is fine for tens of clients and fatal for
//! thousands. [`crate::KvServer`] serves the wire protocol from
//! [`ReactorConfig::workers`] event loops, each on a thread of its own:
//!
//! ```text
//!  loop 0: accept ──▶ connection k goes to loop k mod N (channel + wake pipe)
//!
//!  loop i: epoll ──▶ read ──▶ FrameDecoder ──▶ ServerShared::handle ──▶ output queue
//!            ▲                                                          │
//!            └───────────── write interest while output is queued ◀─────┘
//! ```
//!
//! * **Readiness loop** ([`poller`]): edge-triggered epoll; read and
//!   write paths drain until `WouldBlock`, the invariant edge triggering
//!   requires. Each loop owns its poller, its wake pipe and its
//!   connections; a connection never moves between loops.
//! * **Run to completion**: a loop executes every request it parses
//!   through `crate::server::ServerShared::handle` on its own thread and
//!   appends the encoded response to that connection's output queue, so
//!   responses leave in request order by construction. Nothing crosses a
//!   thread between a request's read and its response's write.
//! * **Connection FSM** ([`conn`]): incremental CRC-framed assembly from
//!   partial reads and a bounded output queue.
//! * **Assignment**: loop 0 owns the listener and deals accepted sockets
//!   round-robin — connection *k* goes to loop *k* mod *N* through an
//!   `mpsc` channel and that loop's wake pipe.
//! * **Backpressure**: once a connection's queued output reaches
//!   `max_output_bytes` its loop stops executing its frames and stops
//!   *reading* it — TCP then pushes back on the client once socket
//!   buffers fill. When the output drains, the loop first runs the frames
//!   already in the decoder (edge-triggered epoll will not report them
//!   again), then reads on. No unbounded queue anywhere.
//! * **Blocking requests**: a request that blocks (a write stall, a
//!   cache-miss read) holds its loop's other connections, not the other
//!   loops' (`DESIGN.md` §14).
//! * **Graceful shutdown**: every loop serves the frames it has already
//!   received, flushes the queued responses, then closes its sockets — no
//!   accepted request is dropped.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "service front end like server.rs: nonblocking TCP accept and I/O is the reactor's \
              job; engine I/O below it stays on Env"
)]

pub mod conn;
pub mod poller;

pub use conn::FrameDecoder;

use crate::proto::{Request, Response};
use crate::server::ServerShared;
use conn::{Conn, ConnState};
use poller::{Event, Interest, Poller};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
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
    /// Event loops, one thread each, executing the requests of the
    /// connections dealt to them. `0` means `max(2, cores)`.
    pub workers: usize,
    /// Per-connection output-queue budget in bytes; a loop stops executing
    /// and reading a connection while its queue is at or over it.
    pub max_output_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: 0,
            max_output_bytes: 1 << 20,
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

/// Nudges one event loop out of its poll wait from another thread.
///
/// A byte written to the wake pipe makes the registered read end ready;
/// the payload is meaningless and the pipe filling up is fine — any
/// pending byte already guarantees a wakeup.
struct Waker {
    pipe: UnixStream,
}

impl Waker {
    /// Never blocks; a full pipe is success.
    fn wake(&self) {
        let _ = (&self.pipe).write(&[1u8]);
    }
}

/// What the [`crate::KvServer`] keeps of its running loops.
pub(crate) struct ReactorHandle {
    loops: Vec<(std::thread::JoinHandle<()>, Waker)>,
}

impl ReactorHandle {
    /// Wakes every loop and joins it. The caller has requested shutdown
    /// first, so each loop drains its connections and exits.
    pub(crate) fn join(self) {
        for (_, waker) in &self.loops {
            waker.wake();
        }
        for (thread, _) in self.loops {
            let _ = pcp_storage::blocking::wait("thread join", || thread.join());
        }
    }
}

/// Counters every loop adds to; the registry reads their sums.
struct Counters {
    accepts: AtomicU64,
    wakeups: AtomicU64,
    backpressure: AtomicU64,
    output_bytes: Arc<pcp_obs::Histogram>,
}

/// One loop's share of the work, exported under its `worker` label.
#[derive(Default)]
struct LoopStats {
    ops: AtomicU64,
    busy_nanos: AtomicU64,
}

/// Where loop 0 deals a socket for another loop.
struct Peer {
    inbox: Sender<TcpStream>,
    waker: Waker,
}

/// Builds every loop — poller, wake pipe, inbox — registers the
/// `pcp_service_*` reactor series, then starts one thread per loop.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    cfg: ReactorConfig,
) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let registry = shared.registry();
    let counters = Arc::new(Counters {
        accepts: AtomicU64::new(0),
        wakeups: AtomicU64::new(0),
        backpressure: AtomicU64::new(0),
        output_bytes: registry.histogram(
            "pcp_service_output_queue_bytes",
            "per-connection queued response bytes observed at each flush",
        ),
    });
    let sum = |read: fn(&Counters) -> &AtomicU64| {
        let counters = Arc::clone(&counters);
        move || read(&counters).load(Ordering::Relaxed)
    };
    registry.register_fn_counter(
        "pcp_service_accepts_total",
        "connections accepted by the reactor",
        Vec::new(),
        sum(|c| &c.accepts),
    );
    registry.register_fn_counter(
        "pcp_service_reactor_wakeups_total",
        "readiness wakeups (poller waits that delivered events), summed over the loops",
        Vec::new(),
        sum(|c| &c.wakeups),
    );
    registry.register_fn_counter(
        "pcp_service_backpressure_pauses_total",
        "times a connection's execution and reads were paused by output backpressure",
        Vec::new(),
        sum(|c| &c.backpressure),
    );

    // Build every loop before starting any, so a failed syscall leaves no
    // thread behind.
    let n = cfg.effective_workers();
    let mut loops = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    let mut peers = Vec::with_capacity(n - 1);
    for i in 0..n {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
        let (inbox_tx, inbox) = mpsc::channel();
        if i > 0 {
            peers.push(Peer {
                inbox: inbox_tx,
                waker: Waker {
                    pipe: wake_tx.try_clone()?,
                },
            });
        }
        wakers.push(Waker { pipe: wake_tx });

        let stats = Arc::new(LoopStats::default());
        let label = vec![("worker".to_string(), i.to_string())];
        let ops = Arc::clone(&stats);
        registry.register_fn_counter(
            "pcp_service_worker_ops_total",
            "ops executed per event loop",
            label.clone(),
            move || ops.ops.load(Ordering::Relaxed),
        );
        let busy = Arc::clone(&stats);
        registry.register_fn_counter(
            "pcp_service_worker_busy_nanoseconds_total",
            "time spent executing and encoding ops per event loop",
            label,
            move || busy.busy_nanos.load(Ordering::Relaxed),
        );
        loops.push(EventLoop {
            shared: Arc::clone(&shared),
            poller,
            wake_rx,
            inbox,
            listener: None,
            peers: Vec::new(),
            dealt: 0,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            max_output_bytes: cfg.max_output_bytes,
            counters: Arc::clone(&counters),
            stats,
            drain_started: None,
        });
    }
    let first = &mut loops[0];
    first
        .poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    first.listener = Some(listener);
    first.peers = peers;

    let mut handle = ReactorHandle {
        loops: Vec::with_capacity(n),
    };
    for (i, (event_loop, waker)) in loops.into_iter().zip(wakers).enumerate() {
        let spawned = std::thread::Builder::new()
            .name(format!("pcp-kv-loop-{i}"))
            .spawn(move || event_loop.run());
        match spawned {
            Ok(thread) => handle.loops.push((thread, waker)),
            Err(e) => {
                shared.request_shutdown();
                handle.join();
                return Err(e);
            }
        }
    }
    Ok(handle)
}

struct EventLoop {
    shared: Arc<ServerShared>,
    poller: Poller,
    wake_rx: UnixStream,
    /// Sockets loop 0 dealt to this loop.
    inbox: Receiver<TcpStream>,
    /// Loop 0 only: the listener, the other loops' inboxes, and how many
    /// sockets it has dealt.
    listener: Option<TcpListener>,
    peers: Vec<Peer>,
    dealt: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_output_bytes: usize,
    counters: Arc<Counters>,
    stats: Arc<LoopStats>,
    drain_started: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            events.clear();
            match self.poller.wait(&mut events, WAIT_MS) {
                Ok(0) => {}
                Ok(_) => {
                    self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                // `wait` reports EINTR as no events; any other error is
                // this loop's own epoll fd gone bad, which no retry mends:
                // close up as on shutdown.
                Err(_) => break,
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => {
                        self.drain_wake_pipe();
                        self.adopt_dealt();
                    }
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
            if self.shared.shutting_down() {
                self.begin_drain();
            }
            self.sweep();
            if self.drain_started.is_some() && self.conns.is_empty() {
                break;
            }
        }
        self.close_listener();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    // -- accept ------------------------------------------------------------

    /// Loop 0: accepts every pending connection and deals each to the
    /// next loop in turn.
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
                    let target = self.dealt % (self.peers.len() + 1);
                    self.dealt += 1;
                    match target.checked_sub(1).map(|i| &self.peers[i]) {
                        None => self.adopt(stream),
                        Some(peer) => {
                            // A send fails only once that loop has exited;
                            // the socket then closes unserved.
                            if peer.inbox.send(stream).is_ok() {
                                peer.waker.wake();
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Takes every socket loop 0 has dealt here since the last call.
    fn adopt_dealt(&mut self) {
        while let Ok(stream) = self.inbox.try_recv() {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        // A socket dealt after this loop began draining has sent nothing
        // the server read: it closes unserved.
        if self.drain_started.is_some() || stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream));
        self.shared.connection_opened();
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    // -- per-connection I/O --------------------------------------------------

    fn conn_readable(&mut self, token: u64) {
        let mut chunk = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Open || conn.paused {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer EOF: the complete frames already received were
                    // served as they arrived (or wait out a pause); flush
                    // their answers, then close.
                    conn.peer_eof = true;
                    conn.state = ConnState::Draining;
                    return;
                }
                Ok(n) => {
                    conn.decoder.push(&chunk[..n]);
                    self.serve(token);
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

    /// Executes the complete frames buffered on `token`, in order, and
    /// flushes their responses. Stops at the output budget: the
    /// connection is paused (counted) and stays paused while the socket
    /// leaves the queue at or over the budget.
    fn serve(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if execute(conn, &self.shared, &self.stats, self.max_output_bytes).is_err() {
                // Corrupt frame: the stream is unrecoverable, so the
                // socket is dropped without a response.
                self.close_conn(token);
                return;
            }
            let over = conn.out_bytes() >= self.max_output_bytes;
            if over {
                conn.paused = true;
                self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
            }
            self.counters.output_bytes.record(conn.out_bytes() as u64);
            if conn.flush().is_err() {
                self.close_conn(token);
                return;
            }
            if !over || conn.out_bytes() >= self.max_output_bytes {
                return;
            }
            // The socket took the queue below budget at once: resume.
            conn.paused = false;
        }
    }

    fn conn_writable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flush().is_err() {
            self.close_conn(token);
            return;
        }
        if conn.paused && conn.out_bytes() < self.max_output_bytes {
            // Edge-triggered epoll will not report the frames already in
            // the decoder again: run them now, then read on.
            conn.paused = false;
            self.serve(token);
            self.conn_readable(token);
        }
    }

    // -- lifecycle ----------------------------------------------------------

    /// Transitions every connection into draining once shutdown is
    /// requested. Idempotent. Frames already received have been served
    /// as they arrived, or wait out a pause and run when it lifts.
    fn begin_drain(&mut self) {
        if self.drain_started.is_some() {
            return;
        }
        self.drain_started = Some(Instant::now());
        self.close_listener();
        for conn in self.conns.values_mut() {
            if conn.state == ConnState::Open {
                conn.state = ConnState::Draining;
            }
        }
    }

    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
    }

    /// Updates poller interest to match each connection's desires and
    /// reaps drained/deadline-expired connections.
    fn sweep(&mut self) {
        let deadline_passed = self
            .drain_started
            .is_some_and(|t| t.elapsed() > DRAIN_DEADLINE);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if deadline_passed || (conn.state == ConnState::Draining && conn.drained()) {
                self.close_conn(token);
                continue;
            }
            let desired = conn.desired_interest();
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
                conn.registered_interest = desired;
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.connection_closed();
        }
    }
}

/// Runs `conn`'s complete frames to completion, in order, until the
/// decoder runs dry or the queued output reaches `budget`. An undecodable
/// payload is answered in its slot with a "bad request" ERR and the
/// connection stays usable; `Err` is a corrupt frame.
fn execute(
    conn: &mut Conn,
    shared: &ServerShared,
    stats: &LoopStats,
    budget: usize,
) -> io::Result<()> {
    while conn.out_bytes() < budget {
        let Some(payload) = conn.decoder.next_frame()? else {
            break;
        };
        match Request::decode(&payload) {
            Ok(req) => {
                let t0 = Instant::now();
                let response = shared.handle(req);
                conn.queue(&response.encode());
                stats
                    .busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                stats.ops.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                shared.count_error();
                conn.queue(&Response::Err(format!("bad request: {e}")).encode());
            }
        }
    }
    Ok(())
}
