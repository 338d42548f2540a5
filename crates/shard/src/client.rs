//! Blocking client for the KV service.
//!
//! Two usage styles share one connection type:
//!
//! * **request/response** ([`KvClient::request`] and the typed helpers):
//!   one op in flight, transparent reconnect-with-backoff on transient
//!   connection loss.
//! * **pipelined** ([`KvClient::send`] / [`KvClient::recv`]): many ops in
//!   flight on one connection. `send` returns a monotonically increasing
//!   **token**; `recv` returns `(token, Response)` pairs in token order —
//!   the wire protocol carries no tags, so responses are positional, and
//!   the server guarantees per-connection request-order responses. A
//!   server-side [`Response::Err`] inside the window is
//!   surfaced as a value with its token; it does **not** poison the
//!   connection or the window. Pipelined traffic is *not* retried on
//!   connection loss (the client cannot know which of the in-flight ops
//!   committed); the error surfaces and the window is discarded.
//!
//! Transient connection losses (ECONNRESET, EPIPE, a server restart
//! between requests) are handled inside [`KvClient::request`]: the client
//! reconnects with exponential backoff and retries the request, up to the
//! policy's attempt cap. After exhaustion the connection error is
//! **latched** — every subsequent call fails fast with the same clear
//! error until [`KvClient::reconnect`] succeeds — so a caller sees one
//! coherent failure story instead of a different raw `io::Error` per call.
//!
//! Caveat: a retried write may execute twice if the failure hit after the
//! server applied it but before the response arrived. The KV operations
//! are idempotent (last-writer-wins puts and deletes), so this is safe
//! here; a non-idempotent protocol extension should disable retry via
//! [`pcp_storage::RetryPolicy::none`].

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "TCP client endpoint: socket I/O is the wire, not engine storage"
)]

use crate::proto::{read_frame, write_frame, BatchItem, Request, Response, Role, ServiceStats};
use pcp_storage::RetryPolicy;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected KV service client.
pub struct KvClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    retry: RetryPolicy,
    /// Set once reconnection attempts are exhausted; cleared by a
    /// successful [`KvClient::reconnect`].
    latched: Option<String>,
    /// Next pipelined-send token.
    next_token: u64,
    /// Tokens of pipelined requests sent but not yet received, oldest
    /// first (responses are positional).
    window: std::collections::VecDeque<u64>,
}

fn unexpected(resp: Response) -> io::Error {
    match resp {
        Response::Err(msg) => io::Error::other(format!("server error: {msg}")),
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response {other:?}"),
        ),
    }
}

/// Connection-level errors worth a transparent reconnect: the peer reset
/// or half-closed the connection (ECONNRESET/EPIPE/ECONNABORTED, or EOF
/// mid-response after a server restart).
fn is_connection_loss(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

impl KvClient {
    /// Connects to a running [`crate::KvServer`] with the default
    /// reconnect policy.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<KvClient> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// [`KvClient::connect`] with an explicit reconnect policy
    /// (`RetryPolicy::none()` restores surface-every-error behaviour).
    pub fn connect_with(addr: impl ToSocketAddrs, retry: RetryPolicy) -> io::Result<KvClient> {
        let stream = Self::open(addr)?;
        let addr = stream.peer_addr()?;
        Ok(KvClient {
            addr,
            stream: Some(stream),
            retry,
            latched: None,
            next_token: 0,
            window: std::collections::VecDeque::new(),
        })
    }

    fn open(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Clears a latched connection error by establishing a fresh
    /// connection. No-op when the connection is already healthy.
    ///
    /// Any pipelined window is discarded: its responses died with the old
    /// connection.
    pub fn reconnect(&mut self) -> io::Result<()> {
        if self.stream.is_none() || self.latched.is_some() {
            self.stream = Some(Self::open(self.addr)?);
            self.latched = None;
            self.window.clear();
        }
        Ok(())
    }

    /// The latched connection error, if reconnection was exhausted.
    pub fn connection_error(&self) -> Option<&str> {
        self.latched.as_deref()
    }

    fn round_trip(stream: &mut TcpStream, req: &Request) -> io::Result<Response> {
        write_frame(stream, &req.encode())?;
        stream.flush()?;
        let payload = read_frame(stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })?;
        Response::decode(&payload)
    }

    fn latched_error(&self, msg: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotConnected,
            format!(
                "connection to {} failed after {} attempts and is latched: {msg}; \
                 call reconnect() to retry",
                self.addr, self.retry.max_attempts
            ),
        )
    }

    /// One attempt: (re)open the connection if needed, then round-trip.
    fn request_once(&mut self, req: &Request) -> io::Result<Response> {
        if self.stream.is_none() {
            self.stream = Some(Self::open(self.addr)?);
        }
        match self.stream.as_mut() {
            Some(stream) => Self::round_trip(stream, req),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        }
    }

    /// Sends one request and reads its response, transparently
    /// reconnecting on transient connection loss (see module docs).
    ///
    /// Errors if a pipelined window is open — drain it with
    /// [`KvClient::recv`] first, so the positional response pairing stays
    /// unambiguous.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        if !self.window.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "pipelined window open ({} responses outstanding); drain with recv() \
                     before request()",
                    self.window.len()
                ),
            ));
        }
        if let Some(msg) = self.latched.clone() {
            return Err(self.latched_error(&msg));
        }
        let mut backoff = self.retry.base_backoff;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.request_once(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if is_connection_loss(&e) || e.kind() == io::ErrorKind::ConnectionRefused => {
                    // Drop the dead stream; the next attempt reconnects.
                    self.stream = None;
                    if attempt >= self.retry.max_attempts {
                        self.latched = Some(e.to_string());
                        return Err(self.latched_error(&e.to_string()));
                    }
                    if backoff > Duration::ZERO {
                        std::thread::sleep(backoff.min(self.retry.max_backoff));
                    }
                    backoff = (backoff * 2).min(self.retry.max_backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    // -- pipelined window ---------------------------------------------------

    /// Sends `req` without waiting for its response, returning a token
    /// that [`KvClient::recv`] pairs with the response. Many requests may
    /// be in flight on the one connection; the server answers them in
    /// send order.
    ///
    /// Unlike [`KvClient::request`], pipelined sends are never retried on
    /// connection loss: with several ops in flight there is no way to
    /// know which of them committed. A send error leaves the window
    /// intact so the caller can account for every outstanding token
    /// before [`KvClient::reconnect`] discards them.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        if let Some(msg) = self.latched.clone() {
            return Err(self.latched_error(&msg));
        }
        if self.stream.is_none() {
            self.stream = Some(Self::open(self.addr)?);
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))?;
        write_frame(stream, &req.encode())?;
        stream.flush()?;
        let token = self.next_token;
        self.next_token += 1;
        self.window.push_back(token);
        Ok(token)
    }

    /// Receives the next pipelined response, paired with the token of the
    /// request it answers (oldest outstanding first).
    ///
    /// A server-side ERR is returned as `(token, Response::Err(..))` —
    /// the connection and the rest of the window remain usable, since the
    /// server keeps serving the connection after an op-level error. Only
    /// transport-level failures (EOF mid-window, bad frame) are `Err`
    /// here, and those leave the remaining window undrainable.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        let Some(&token) = self.window.front() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recv() with no pipelined requests outstanding",
            ));
        };
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))?;
        let payload = read_frame(stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed with pipelined responses outstanding",
            )
        })?;
        let response = Response::decode(&payload)?;
        self.window.pop_front();
        Ok((token, response))
    }

    /// Receives every outstanding pipelined response, in token order.
    pub fn recv_all(&mut self) -> io::Result<Vec<(u64, Response)>> {
        let mut out = Vec::with_capacity(self.window.len());
        while !self.window.is_empty() {
            out.push(self.recv()?);
        }
        Ok(out)
    }

    /// Number of pipelined responses outstanding.
    pub fn pending(&self) -> usize {
        self.window.len()
    }

    // -- typed request/response helpers -------------------------------------

    /// Reads `key`.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.request(&Request::Get(key.to_vec()))? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Writes `key → value`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.request(&Request::Put(key.to_vec(), value.to_vec()))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<()> {
        match self.request(&Request::Delete(key.to_vec()))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Applies `items` as one batch (atomic per shard, snapshot-atomic
    /// across shards).
    pub fn batch(&mut self, items: Vec<BatchItem>) -> io::Result<()> {
        match self.request(&Request::Batch(items))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Reads up to `limit` entries with key `>= start`, in key order.
    pub fn scan(&mut self, start: &[u8], limit: u64) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.request(&Request::Scan {
            start: start.to_vec(),
            limit,
        })? {
            Response::Entries(entries) => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches service + engine statistics.
    pub fn stats(&mut self) -> io::Result<ServiceStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's full metrics registry in Prometheus text
    /// exposition format (the contract is documented in
    /// `OBSERVABILITY.md`).
    pub fn metrics_text(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics)? {
            Response::MetricsText(text) => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Queries the service's role and per-shard applied sequences.
    pub fn role(&mut self) -> io::Result<(Role, Vec<u64>)> {
        match self.request(&Request::Role)? {
            Response::RoleInfo { role, last_seqs } => Ok((role, last_seqs)),
            other => Err(unexpected(other)),
        }
    }

    /// Promotes a replica service to primary (idempotent; a no-op on a
    /// primary).
    pub fn promote(&mut self) -> io::Result<()> {
        match self.request(&Request::Promote)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}
