//! Blocking client for the KV service.
//!
//! Two usage styles share one connection:
//!
//! * **request/response** ([`KvClient::request`] and the typed helpers):
//!   one op in flight.
//! * **pipelined** ([`KvClient::send`] / [`KvClient::recv`]): many ops in
//!   flight on one connection. `send` returns a monotonically increasing
//!   **token**; `recv` returns `(token, Response)` pairs in token order —
//!   the wire protocol carries no tags, so responses are positional, and
//!   the server guarantees per-connection request-order responses. A
//!   server-side [`Response::Err`] inside the window is
//!   surfaced as a value with its token; it does **not** poison the
//!   connection or the window.
//!
//! Responses are read through a [`FrameDecoder`]: one `read(2)` takes
//! whatever the socket holds, so a burst of pipelined responses costs one
//! read, not four per frame.
//!
//! A lost connection is an error on the call that finds it; the client
//! does not reconnect. A caller that wants to carry on connects anew.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "TCP client endpoint: socket I/O is the wire, not engine storage"
)]

use crate::proto::{write_frame, BatchItem, Request, Response, ServiceStats};
use crate::FrameDecoder;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Bytes one socket read may take.
const READ_CHUNK: usize = 16 << 10;

/// A connected KV service client.
pub struct KvClient {
    stream: TcpStream,
    /// Response bytes read but not yet taken as frames.
    decoder: FrameDecoder,
    /// Scratch for socket reads, allocated once.
    read_buf: Vec<u8>,
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

impl KvClient {
    /// Connects to a running [`crate::KvServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<KvClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(KvClient {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0; READ_CHUNK],
            next_token: 0,
            window: std::collections::VecDeque::new(),
        })
    }

    /// Sends one request and reads its response.
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
        write_frame(&mut self.stream, &req.encode())?;
        self.stream.flush()?;
        let payload = self.read_payload()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })?;
        Response::decode(&payload)
    }

    /// The next response frame's payload: from the bytes already read,
    /// else after one more socket read. `Ok(None)` is EOF at a frame
    /// boundary; EOF inside a frame is `UnexpectedEof`, never a partial
    /// response.
    fn read_payload(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(Some(payload));
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) if self.decoder.buffered() == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed inside a response frame",
                    ))
                }
                Ok(n) => self.decoder.push(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    // -- pipelined window ---------------------------------------------------

    /// Sends `req` without waiting for its response, returning a token
    /// that [`KvClient::recv`] pairs with the response. Many requests may
    /// be in flight on the one connection; the server answers them in
    /// send order.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        write_frame(&mut self.stream, &req.encode())?;
        self.stream.flush()?;
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
        let payload = self.read_payload()?.ok_or_else(|| {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, read_frame};
    use std::net::{Shutdown, TcpListener};

    /// Responses that arrive several to a segment, or split across
    /// segments, come out whole and in order; a frame cut short by EOF is
    /// an error, never a partial response.
    #[test]
    fn recv_reassembles_bursts_and_split_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = KvClient::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        for i in 0..5u8 {
            client.send(&Request::Get(vec![i])).unwrap();
        }
        for _ in 0..5 {
            read_frame(&mut peer).unwrap().unwrap();
        }
        let frame = |i: u8| encode_frame(&Response::Value(vec![i; 100]).encode());
        let burst: Vec<u8> = (0..3).flat_map(frame).collect();
        peer.write_all(&burst).unwrap();
        let fourth = frame(3);
        peer.write_all(&fourth[..50]).unwrap();
        peer.flush().unwrap();
        peer.write_all(&fourth[50..]).unwrap();
        let fifth = frame(4);
        peer.write_all(&fifth[..fifth.len() - 1]).unwrap();
        peer.shutdown(Shutdown::Write).unwrap();

        for i in 0..4u8 {
            let (token, response) = client.recv().unwrap();
            assert_eq!(
                (token, response),
                (u64::from(i), Response::Value(vec![i; 100]))
            );
        }
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(client.pending(), 1, "the cut frame answered nothing");
    }
}
