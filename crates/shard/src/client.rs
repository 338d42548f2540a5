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
//! Pipelined requests leave in batches, with one batch always in flight.
//! `send` frames its request into an output buffer, and the buffer goes
//! out in one `write(2)` at the first of these write points:
//!
//! 1. **Nothing waits to be received**: the decoder holds no unread
//!    response bytes, so a caller that sends and then waits elsewhere
//!    sees its request leave at once.
//! 2. **Half the window is held back**: the held-back requests are as
//!    many as the written ones still unanswered, so one half of the
//!    window executes on the server while the caller builds the other.
//! 3. **`recv` must read the socket**: a `recv` never blocks with
//!    requests held back.
//! 4. **[`KvClient::request`], [`KvClient::flush`], or drop**: drop makes
//!    the same blocking write and ignores its error, so a `send` that
//!    returned `Ok` is never silently kept from the server.
//!
//! A lost connection is an error on the call that finds it; the client
//! does not reconnect. A caller that wants to carry on connects anew.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "TCP client endpoint: socket I/O is the wire, not engine storage"
)]

use crate::proto::{append_frame, BatchItem, Request, Response};
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
    /// Framed requests not yet written to the socket.
    out: Vec<u8>,
    /// Pipelined requests in `out`: the newest `held` tokens of `window`.
    held: usize,
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
            out: Vec::new(),
            held: 0,
            next_token: 0,
            window: std::collections::VecDeque::new(),
        })
    }

    /// Sends one request and reads its response.
    ///
    /// Errors if a pipelined window is open — drain it with
    /// [`KvClient::recv`] first, so the positional response pairing stays
    /// unambiguous. The window's held-back requests are written even
    /// then.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        if !self.window.is_empty() {
            self.flush()?;
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "pipelined window open ({} responses outstanding); drain with recv() \
                     before request()",
                    self.window.len()
                ),
            ));
        }
        append_frame(&mut self.out, &req.encode());
        self.flush()?;
        let payload = self.read_payload()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })?;
        Response::decode(&payload)
    }

    /// Writes every held-back request in one `write_all`. The buffer is
    /// emptied even on error: a failed write loses the stream, and this
    /// call is where the caller learns it.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        self.held = 0;
        written
    }

    /// The next response frame's payload: from the bytes already read,
    /// else, once the held-back requests are written, after one more
    /// socket read. `Ok(None)` is EOF at a frame boundary; EOF inside a
    /// frame is `UnexpectedEof`, never a partial response.
    fn read_payload(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(Some(payload));
            }
            self.flush()?;
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
    /// send order. The request may be held back to leave with later ones;
    /// the module docs list the write points.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        append_frame(&mut self.out, &req.encode());
        self.held += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.window.push_back(token);
        // Saturating: a peer that answers requests it was never sent can
        // leave fewer tokens in the window than requests held back.
        let unanswered = self.window.len().saturating_sub(self.held);
        if self.decoder.buffered() == 0 || self.held >= unanswered {
            self.flush()?;
        }
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

impl Drop for KvClient {
    /// Writes what is held back, so every `send` that returned `Ok`
    /// reaches the server; an error has no one left to report to.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, read_frame};
    use std::net::{Shutdown, TcpListener};
    use std::time::Duration;

    /// A client and the raw socket it is connected to. The peer's reads
    /// time out instead of hanging if a request never leaves the client.
    fn pair() -> (KvClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = KvClient::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (client, peer)
    }

    fn get(i: u32) -> Request {
        Request::Get(i.to_le_bytes().to_vec())
    }

    fn value(i: u32) -> Response {
        Response::Value(i.to_le_bytes().to_vec())
    }

    /// Reads the next request on the peer and checks that it is GET `i`.
    fn expect_request(peer: &mut TcpStream, i: u32) {
        let payload = read_frame(peer).unwrap().expect("a request");
        assert_eq!(Request::decode(&payload).unwrap(), get(i));
    }

    /// Answers GET `from..to` in one segment.
    fn answer(peer: &mut TcpStream, from: u32, to: u32) {
        let burst: Vec<u8> = (from..to)
            .flat_map(|i| encode_frame(&value(i).encode()))
            .collect();
        peer.write_all(&burst).unwrap();
    }

    /// Nothing has reached the peer since its last read.
    fn assert_nothing_arrived(peer: &TcpStream) {
        peer.set_nonblocking(true).unwrap();
        let err = peer.peek(&mut [0; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        peer.set_nonblocking(false).unwrap();
    }

    /// A client with GET 0..4 written, 0 and 1 answered in one segment, and
    /// 0 received: the answer to 1 waits unread in its decoder, and three
    /// written requests are unanswered.
    fn answers_unread() -> (KvClient, TcpStream) {
        let (mut client, mut peer) = pair();
        for i in 0..4 {
            client.send(&get(i)).unwrap();
            expect_request(&mut peer, i);
        }
        answer(&mut peer, 0, 2);
        assert_eq!(client.recv().unwrap(), (0, value(0)));
        assert!(client.decoder.buffered() > 0);
        (client, peer)
    }

    #[test]
    fn a_send_with_nothing_unread_leaves_at_once() {
        let (mut client, mut peer) = answers_unread();
        assert_eq!(client.recv().unwrap(), (1, value(1)));
        client.send(&get(4)).unwrap();
        expect_request(&mut peer, 4);
    }

    /// Requests sent while an answer waits unread are held back until they
    /// are as many as the written requests still unanswered; the send
    /// that makes them so writes them all, in order.
    #[test]
    fn a_send_with_answers_unread_is_held_back_until_half_the_window() {
        let (mut client, mut peer) = answers_unread();
        client.send(&get(4)).unwrap();
        assert_nothing_arrived(&peer);
        client.send(&get(5)).unwrap();
        assert_nothing_arrived(&peer);
        client.send(&get(6)).unwrap();
        for i in 4..7 {
            expect_request(&mut peer, i);
        }
    }

    #[test]
    fn held_back_requests_leave_before_recv_reads_the_socket() {
        let (mut client, mut peer) = answers_unread();
        client.send(&get(4)).unwrap();
        assert_eq!(client.recv().unwrap(), (1, value(1)));
        assert_nothing_arrived(&peer);
        answer(&mut peer, 2, 3);
        assert_eq!(client.recv().unwrap(), (2, value(2)));
        expect_request(&mut peer, 4);
    }

    #[test]
    fn held_back_requests_leave_on_request_flush_and_drop() {
        let (mut client, mut peer) = answers_unread();
        client.send(&get(4)).unwrap();
        let err = client.request(&get(9)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        expect_request(&mut peer, 4);
        assert_nothing_arrived(&peer);

        let (mut client, mut peer) = answers_unread();
        client.send(&get(4)).unwrap();
        client.flush().unwrap();
        expect_request(&mut peer, 4);

        let (mut client, mut peer) = answers_unread();
        client.send(&get(4)).unwrap();
        drop(client);
        expect_request(&mut peer, 4);
        assert!(read_frame(&mut peer).unwrap().is_none());
    }

    /// A peer that answers requests it has not been sent yet pairs them
    /// with held-back tokens; the next send still writes everything.
    #[test]
    fn answers_to_held_back_requests_do_not_break_send() {
        let (mut client, mut peer) = pair();
        for i in 0..4 {
            client.send(&get(i)).unwrap();
            expect_request(&mut peer, i);
        }
        answer(&mut peer, 0, 6);
        assert_eq!(client.recv().unwrap(), (0, value(0)));
        client.send(&get(4)).unwrap();
        for i in 1..5 {
            assert_eq!(client.recv().unwrap(), (u64::from(i), value(i)));
        }
        client.send(&get(5)).unwrap();
        expect_request(&mut peer, 4);
        expect_request(&mut peer, 5);
        assert_eq!(client.recv().unwrap(), (5, value(5)));
    }

    /// A window of 16 against a peer that answers in bursts of varying
    /// size: the client never holds back more requests than it has written
    /// and left unanswered, holds some back, and every answer pairs with
    /// its request.
    #[test]
    fn a_bursty_peer_never_sees_more_held_back_than_unanswered() {
        const N: u32 = 400;
        const WINDOW: usize = 16;
        let (mut client, mut peer) = pair();
        let check = |client: &KvClient| {
            assert!(client.held <= client.window.len() - client.held);
        };
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut decoder = FrameDecoder::new();
                let mut buf = [0; 4096];
                let mut bursts = [3, 16, 1, 7, 11, 5].into_iter().cycle();
                let mut burst = bursts.next().unwrap();
                let (mut read, mut answered) = (0, 0);
                while answered < N {
                    let n = peer.read(&mut buf).unwrap();
                    assert!(n > 0, "client closed early");
                    decoder.push(&buf[..n]);
                    while let Some(payload) = decoder.next_frame().unwrap() {
                        assert_eq!(Request::decode(&payload).unwrap(), get(read));
                        read += 1;
                    }
                    // The client always fills its window before it waits,
                    // so a burst no larger than the window always comes.
                    while read - answered >= burst || (read == N && answered < N) {
                        let to = (answered + burst).min(read);
                        answer(&mut peer, answered, to);
                        answered = to;
                        burst = bursts.next().unwrap();
                    }
                }
            });
            let (mut next, mut max_held) = (0, 0);
            for i in 0..N {
                while client.pending() < WINDOW && next < N {
                    client.send(&get(next)).unwrap();
                    next += 1;
                    check(&client);
                    max_held = max_held.max(client.held);
                }
                assert_eq!(client.recv().unwrap(), (u64::from(i), value(i)));
                check(&client);
            }
            assert!(max_held > 0, "no send was ever held back");
        });
    }

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
