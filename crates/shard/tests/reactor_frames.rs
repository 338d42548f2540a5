//! Property tests for the reactor's incremental frame assembly
//! ([`pcp_shard::FrameDecoder`]).
//!
//! The reactor reads sockets in arbitrary-sized chunks (whatever
//! `read(2)` returns under edge-triggered readiness), so the decoder
//! must reconstruct exactly the frames a one-shot decode of the full
//! byte stream would produce — for every possible split of the stream
//! into partial reads. Corrupt or truncated tails must reject or pend
//! without panicking: the event loop is panic-free library code (its
//! crate denies `clippy::unwrap_used` and friends), and one bad client
//! must not take down the service.

use pcp_shard::proto::{encode_frame, take_frame, Request, Response};
use pcp_shard::FrameDecoder;
use proptest::prelude::*;

/// One-shot reference decode: every frame `take_frame` yields from the
/// complete stream, plus whether the tail errored.
fn oneshot(stream: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut buf = stream.to_vec();
    let mut frames = Vec::new();
    loop {
        match take_frame(&mut buf) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, false),
            Err(_) => return (frames, true),
        }
    }
}

/// Incremental decode: push each chunk, drain all completed frames.
fn incremental(chunks: &[&[u8]]) -> (Vec<Vec<u8>>, bool) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    for chunk in chunks {
        dec.push(chunk);
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(_) => return (frames, true),
            }
        }
    }
    (frames, false)
}

/// Splits `stream` at the given sorted byte offsets.
fn split_at_offsets<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut > start {
            chunks.push(&stream[start..cut]);
        }
        start = cut.max(start);
    }
    chunks.push(&stream[start..]);
    chunks
}

/// Payloads of assorted sizes, including empty ones (a zero-length
/// payload is a legal frame: 4-byte header + 4-byte CRC).
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any split of a valid frame stream into partial reads decodes to
    /// exactly the one-shot result — same frames, same order.
    #[test]
    fn split_stream_equals_oneshot(
        payloads in payloads(),
        cuts in prop::collection::vec(0usize..2000, 0..12),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let mut cuts = cuts;
        cuts.sort_unstable();
        let chunks = split_at_offsets(&stream, &cuts);

        let (want, want_err) = oneshot(&stream);
        let (got, got_err) = incremental(&chunks);
        prop_assert_eq!(&want, &payloads);
        prop_assert!(!want_err);
        prop_assert_eq!(got, want);
        prop_assert!(!got_err);
    }

    /// A truncated tail pends (no frame, no error, no panic) and the
    /// missing bytes complete it later.
    #[test]
    fn truncated_tail_pends_then_completes(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        keep in 0usize..8,
    ) {
        let frame = encode_frame(&payload);
        let keep = keep.min(frame.len().saturating_sub(1));
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..keep]);
        prop_assert!(matches!(dec.next_frame(), Ok(None)));
        dec.push(&frame[keep..]);
        prop_assert_eq!(dec.next_frame().unwrap(), Some(payload));
        prop_assert!(matches!(dec.next_frame(), Ok(None)));
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// A corrupted CRC trailer rejects the frame with an error — never a
    /// panic, never a silently wrong payload.
    #[test]
    fn corrupt_crc_rejects(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        flip in any::<u8>(),
    ) {
        let flip = if flip == 0 { 1 } else { flip };
        let mut frame = encode_frame(&payload);
        let crc_at = frame.len() - 4;
        frame[crc_at] ^= flip;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        prop_assert!(dec.next_frame().is_err());
    }

    /// Flipping any byte anywhere in a multi-frame stream never panics:
    /// the decoder yields intact frames from before the damage, then
    /// either errors (bad CRC / absurd length) or pends (the corrupted
    /// length prefix now promises more bytes than exist).
    #[test]
    fn arbitrary_corruption_never_panics(
        payloads in payloads(),
        pos in 0usize..2000,
        flip in any::<u8>(),
    ) {
        let flip = if flip == 0 { 1 } else { flip };
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let pos = pos % stream.len();
        stream[pos] ^= flip;
        let (frames, _errored) = oneshot(&stream);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut got = Vec::new();
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break,
                Err(_) => break,
            }
        }
        // Incremental and one-shot agree even on damaged input.
        prop_assert_eq!(got, frames);
    }

    /// Arbitrary bytes behind every opcode of either range never panic
    /// either decoder: each refuses them as `InvalidData`, or decodes a
    /// message that re-encodes to itself. Small bytes are drawn half the
    /// time, so that length prefixes often fit and some payloads decode.
    #[test]
    fn arbitrary_payloads_decode_or_refuse(
        body in prop::collection::vec(prop_oneof![any::<u8>(), 0u8..3], 0..12),
    ) {
        for opcode in (0x00u8..0x10).chain(0x80..0x90) {
            let payload = [&[opcode][..], &body].concat();
            match Request::decode(&payload) {
                Ok(req) => prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req),
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            }
            match Response::decode(&payload) {
                Ok(resp) => prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp),
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            }
        }
    }
}
