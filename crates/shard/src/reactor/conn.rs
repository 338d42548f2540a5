//! Per-connection state: incremental frame assembly, the response
//! reorder window, and the bounded output queue.
//!
//! A connection moves through three states:
//!
//! ```text
//! Open ──(server shutdown / peer EOF)──▶ Draining ──▶ Closed
//! ```
//!
//! * **Open** — reading requests, dispatching to workers, flushing
//!   responses. Reading pauses (interest drops to write-only) while the
//!   output queue or the in-flight window is over budget — backpressure
//!   propagates to the client through TCP once its socket buffer fills.
//! * **Draining** — no further reads; in-flight ops finish, queued
//!   responses flush, then the socket closes. Entered on server shutdown
//!   (frames already buffered are still served) and on peer EOF
//!   (responses to already-accepted requests are flushed before close —
//!   TCP delivers them to a half-closed peer).
//! * **Closed** — fd deregistered and dropped.
//!
//! **Pipelining ordering guarantee:** responses are written in request
//! order per connection. Workers complete out of order; completions park
//! in `pending` (a seq → payload map) and only append to the output
//! buffer once every earlier sequence has. The wire carries no tags, so
//! this positional ordering *is* the protocol.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "per-connection socket state of the reactor front end: holds the TcpStream the event \
              loop reads and writes"
)]

use crate::proto::take_frame;
use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;

/// Incremental CRC-framed frame assembly over arbitrary byte chunks.
///
/// Semantically identical to running [`crate::proto::take_frame`] over
/// the fully buffered stream — `tests/reactor_frames.rs` proptests that
/// equivalence for adversarial chunkings (1-byte reads, frames spanning
/// reads, many frames per read, corrupt and truncated tails).
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if any. `Ok(None)` means more
    /// bytes are needed; an error (oversized length prefix, checksum
    /// mismatch) poisons the stream and the connection should close.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        take_frame(&mut self.buf)
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Connection lifecycle state (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Serving requests.
    Open,
    /// No further reads; finishing in-flight ops and flushing.
    Draining,
    /// Ready to be dropped.
    Closed,
}

/// One reactor-managed connection.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Poller token.
    pub token: u64,
    /// Incremental frame assembly for inbound bytes.
    pub decoder: FrameDecoder,
    /// Lifecycle state.
    pub state: ConnState,
    /// Next sequence to assign to a parsed request.
    pub next_seq: u64,
    /// Next sequence eligible to append to the output buffer.
    pub next_flush_seq: u64,
    /// Completed responses waiting for earlier sequences (reorder window).
    pub pending: BTreeMap<u64, Vec<u8>>,
    /// Requests dispatched to workers whose responses have not yet been
    /// appended to the output buffer.
    pub in_flight: usize,
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
    /// Reading is paused by backpressure (distinct from Draining).
    pub paused: bool,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking socket.
    pub fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            decoder: FrameDecoder::new(),
            state: ConnState::Open,
            next_seq: 0,
            next_flush_seq: 0,
            pending: BTreeMap::new(),
            in_flight: 0,
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

    /// Records a completed response for `seq`, then appends every
    /// now-in-order response to the output buffer. Returns the number of
    /// responses that became flushable.
    pub fn complete(&mut self, seq: u64, frame: Vec<u8>) -> usize {
        self.pending.insert(seq, frame);
        let mut advanced = 0;
        while let Some(frame) = self.pending.remove(&self.next_flush_seq) {
            self.out.extend_from_slice(&frame);
            self.next_flush_seq += 1;
            self.in_flight = self.in_flight.saturating_sub(1);
            advanced += 1;
        }
        advanced
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

    /// Whether every accepted request has been answered and flushed.
    pub fn drained(&self) -> bool {
        self.in_flight == 0 && self.pending.is_empty() && self.out_bytes() == 0
    }

    /// The interest this connection wants right now.
    ///
    /// * read — only while [`ConnState::Open`], not paused, and peer not
    ///   gone;
    /// * write — whenever output is queued.
    pub fn desired_interest(&self, over_budget: bool) -> (bool, bool) {
        let read = self.state == ConnState::Open && !self.peer_eof && !over_budget;
        let write = self.out_bytes() > 0;
        (read, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_frame;

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
    fn reorder_window_emits_in_sequence_order() {
        // A Conn needs a real socket; use a loopback pair.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(sock, 9);
        conn.in_flight = 3;
        conn.next_seq = 3;

        assert_eq!(conn.complete(2, b"two".to_vec()), 0);
        assert_eq!(conn.complete(1, b"one".to_vec()), 0);
        assert_eq!(conn.out_bytes(), 0);
        // Seq 0 unblocks all three, in order.
        assert_eq!(conn.complete(0, b"zero".to_vec()), 3);
        assert_eq!(conn.out_bytes(), 4 + 3 + 3);
        assert_eq!(conn.in_flight, 0);
        assert!(conn.flush().unwrap());
        drop(peer);
    }
}
