//! TCP front end over a [`ShardedDb`]: the event-driven [`crate::reactor`]
//! (one epoll event loop per core, each running its connections' requests
//! to completion, request pipelining, bounded per-connection output
//! queues) serves request/response traffic; this module owns what sits
//! around it — op execution (`ServerShared::handle`), the metrics
//! registry, and the server lifecycle.
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

use crate::proto::{Request, Response, SCAN_LIMIT_MAX};
use crate::reactor::{ReactorConfig, ReactorHandle};
use crate::sharded::ShardedDb;
use crate::BatchItem;
use pcp_lsm::WriteBatch;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub(crate) struct ServerShared {
    db: Arc<ShardedDb>,
    /// Set once by [`KvServer::shutdown`]: the event loops drain and exit.
    shutdown: AtomicBool,
    ops: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    active_conns: Arc<AtomicUsize>,
    read_latency: Arc<pcp_obs::Histogram>,
    write_latency: Arc<pcp_obs::Histogram>,
    registry: pcp_obs::Registry,
}

impl ServerShared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the shutdown flag; returns whether it was already set.
    pub(crate) fn request_shutdown(&self) -> bool {
        self.shutdown.swap(true, Ordering::SeqCst)
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

    pub(crate) fn handle(&self, req: Request) -> Response {
        self.ops.fetch_add(1, Ordering::Relaxed);
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
    /// The event loops; taken by shutdown.
    reactor: Option<ReactorHandle>,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `db`.
    pub fn start(db: Arc<ShardedDb>, addr: impl ToSocketAddrs) -> io::Result<KvServer> {
        Self::start_with(db, addr, ReactorConfig::default())
    }

    /// [`KvServer::start`] with explicit reactor tuning.
    pub fn start_with(
        db: Arc<ShardedDb>,
        addr: impl ToSocketAddrs,
        reactor: ReactorConfig,
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
        }
        let shared = Arc::new(ServerShared {
            db,
            shutdown: AtomicBool::new(false),
            ops,
            errors,
            active_conns,
            read_latency,
            write_latency,
            registry,
        });
        let reactor = crate::reactor::spawn(listener, Arc::clone(&shared), reactor)?;
        Ok(KvServer {
            local_addr,
            shared,
            reactor: Some(reactor),
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

    /// Stops accepting, drains every connection, and joins every event
    /// loop. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.request_shutdown() {
            return;
        }
        // Each loop, woken out of its poll wait, serves what it has
        // received and flushes the responses before exiting.
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
