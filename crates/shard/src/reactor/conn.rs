//! Per-connection state: incremental frame assembly and the bounded
//! output queue.
//!
//! A connection moves through three states:
//!
//! ```text
//! Open ──(server shutdown / peer EOF)──▶ Draining ──▶ Closed
//! ```
//!
//! * **Open** — reading requests, executing them on the owning loop,
//!   flushing responses. Execution and reading pause (interest drops to
//!   write-only) while the output queue is at or over its budget —
//!   backpressure propagates to the client through TCP once its socket
//!   buffer fills. Frames already decoded wait in the [`FrameDecoder`]
//!   and run once the queue drains.
//! * **Draining** — no further reads; frames already received are
//!   served, queued responses flush, then the socket closes. Entered on
//!   server shutdown and on peer EOF (responses to already-accepted
//!   requests are flushed before close — TCP delivers them to a
//!   half-closed peer).
//! * **Closed** — fd deregistered and dropped.
//!
//! **Ordering guarantee:** responses are written in request order per
//! connection. The loop that owns a connection executes its requests one
//! after another and appends each response to the output queue as it
//! finishes, so the order holds by construction. The wire carries no
//! tags, so this positional ordering *is* the protocol.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "per-connection socket state of the reactor front end: holds the TcpStream the event \
              loop reads and writes"
)]

use crate::proto::{append_frame, parse_frame};
use std::io;
use std::net::TcpStream;

/// Incremental CRC-framed frame assembly over arbitrary byte chunks.
///
/// Semantically identical to running [`crate::proto::take_frame`] over
/// the fully buffered stream — `tests/reactor_frames.rs` proptests that
/// equivalence for adversarial chunkings (1-byte reads, frames spanning
/// reads, many frames per read, corrupt and truncated tails). Frames are
/// consumed by advancing an offset; the consumed prefix is shifted out
/// once per [`FrameDecoder::push`], so a burst of small frames costs one
/// move of the buffer, not one per frame.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already returned as frames.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if any. `Ok(None)` means more
    /// bytes are needed; an error (oversized length prefix, checksum
    /// mismatch) poisons the stream and the connection should close.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some((payload, total)) = parse_frame(&self.buf[self.pos..])? else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.pos += total;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Connection lifecycle state (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Serving requests.
    Open,
    /// No further reads; serving what was received and flushing.
    Draining,
    /// Ready to be dropped.
    Closed,
}

/// One connection, owned by one event loop.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Incremental frame assembly for inbound bytes.
    pub decoder: FrameDecoder,
    /// Lifecycle state.
    pub state: ConnState,
    /// Encoded response bytes awaiting the socket — frames are appended
    /// back-to-back so a whole pipelined burst flushes in one `write(2)`
    /// instead of one syscall per response.
    out: Vec<u8>,
    /// Bytes of `out` already written to the socket.
    out_pos: usize,
    /// Peer sent EOF: serve what was accepted, then close.
    pub peer_eof: bool,
    /// Interest currently registered with the poller (read, write).
    pub registered_interest: (bool, bool),
    /// Execution and reading are paused by output backpressure; complete
    /// frames may still wait in `decoder`.
    pub paused: bool,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking socket.
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            state: ConnState::Open,
            out: Vec::new(),
            out_pos: 0,
            peer_eof: false,
            registered_interest: (true, false),
            paused: false,
        }
    }

    /// Unwritten output bytes.
    pub fn out_bytes(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Appends one response payload, framed, to the output queue.
    pub fn queue(&mut self, payload: &[u8]) {
        append_frame(&mut self.out, payload);
    }

    /// Writes as much queued output as the socket accepts. Returns
    /// `Ok(true)` if the queue fully drained, `Ok(false)` if the socket
    /// would block with bytes still queued.
    pub fn flush(&mut self) -> io::Result<bool> {
        use std::io::Write;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Keep the buffer from creeping while the peer is slow:
                    // shift out the written prefix once it outgrows a page.
                    if self.out_pos >= 4096 {
                        self.out.drain(..self.out_pos);
                        self.out_pos = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// Whether every received request has been answered and flushed.
    pub fn drained(&self) -> bool {
        !self.paused && self.out_bytes() == 0
    }

    /// The interest this connection wants right now.
    ///
    /// * read — only while [`ConnState::Open`], not paused, and peer not
    ///   gone;
    /// * write — whenever output is queued.
    pub fn desired_interest(&self) -> (bool, bool) {
        let read = self.state == ConnState::Open && !self.peer_eof && !self.paused;
        let write = self.out_bytes() > 0;
        (read, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, read_frame};

    #[test]
    fn decoder_matches_one_shot_for_split_input() {
        let frames: Vec<Vec<u8>> = vec![b"a".to_vec(), vec![0u8; 300], Vec::new()];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        // One byte at a time.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn a_thousand_frames_pushed_at_once_decode_in_order() {
        let frames: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn queued_responses_flush_in_order() {
        // A Conn needs a real socket; use a loopback pair.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(sock);
        for payload in [&b"zero"[..], b"one", b"two"] {
            conn.queue(payload);
        }
        assert_eq!(conn.out_bytes(), 3 * 8 + 4 + 3 + 3);
        assert!(conn.flush().unwrap());
        assert!(conn.drained());
        for want in [&b"zero"[..], b"one", b"two"] {
            assert_eq!(read_frame(&mut peer).unwrap().unwrap(), want);
        }
    }
}
