//! The KV service wire protocol: checksummed, length-prefixed frames.
//!
//! A frame is
//!
//! ```text
//! +--------------+------------------+----------------------------+
//! | len: u32 LE  | payload: len B   | crc: u32 LE                |
//! +--------------+------------------+----------------------------+
//! ```
//!
//! where `crc` is the masked CRC-32C of the payload, using the same
//! [`pcp_codec::crc32c()`] + [`pcp_codec::mask_crc`] convention as the
//! SSTable block trailer — a frame corrupted in flight or by a buggy
//! client is rejected before it is interpreted. The payload is one
//! message: an opcode byte followed by varint-length-prefixed fields
//! ([`pcp_codec::put_u64`]).
//!
//! Requests: GET, PUT, DELETE, BATCH, SCAN, METRICS.
//! Responses: OK, VALUE, NOT_FOUND, ENTRIES, ERR, METRICS_TEXT.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload; anything larger is a protocol error
/// (defends the length prefix against garbage bytes).
pub const MAX_FRAME: usize = 32 << 20;

/// Largest entry count a single SCAN response will carry.
pub const SCAN_LIMIT_MAX: u64 = 100_000;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// -- frame layer ----------------------------------------------------------

/// Encodes `payload` as one frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    append_frame(&mut out, payload);
    out
}

/// Appends `payload` as one frame to `out` — how the reactor queues a
/// response straight into its connection's output buffer.
pub(crate) fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.reserve(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = pcp_codec::mask_crc(pcp_codec::crc32c(payload));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Writes `payload` as one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))
}

/// Blocking frame read. Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF inside a frame, a bad checksum, or an oversized length
/// prefix are errors. An interrupted read is retried, as `read_exact`
/// retries it for the rest of the frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)?;
    check_crc(&payload, u32::from_le_bytes(crc_buf))?;
    Ok(Some(payload))
}

/// Extracts one complete frame from the front of `buf` if present,
/// draining the consumed bytes — the one-shot reference the incremental
/// [`crate::FrameDecoder`] is property-tested against.
pub fn take_frame(buf: &mut Vec<u8>) -> io::Result<Option<Vec<u8>>> {
    let Some((payload, total)) = parse_frame(buf)? else {
        return Ok(None);
    };
    let payload = payload.to_vec();
    buf.drain(..total);
    Ok(Some(payload))
}

/// Checks the frame at the front of `buf` without consuming it: its
/// payload and the frame's total length, or `None` while incomplete.
pub(crate) fn parse_frame(buf: &[u8]) -> io::Result<Option<(&[u8], usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = pcp_codec::read_u32_le(buf, 0)
        .ok_or_else(|| bad("frame header shorter than length prefix"))? as usize;
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let total = 4 + len + 4;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[4..4 + len];
    let crc = pcp_codec::read_u32_le(buf, 4 + len)
        .ok_or_else(|| bad("frame trailer shorter than checksum"))?;
    check_crc(payload, crc)?;
    Ok(Some((payload, total)))
}

fn check_crc(payload: &[u8], got: u32) -> io::Result<()> {
    let want = pcp_codec::mask_crc(pcp_codec::crc32c(payload));
    if got != want {
        return Err(bad("frame checksum mismatch"));
    }
    Ok(())
}

// -- field helpers ---------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    pcp_codec::put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn take_u64(input: &mut &[u8]) -> io::Result<u64> {
    let (v, n) = pcp_codec::decode_u64(input).map_err(|_| bad("truncated varint"))?;
    *input = &input[n..];
    Ok(v)
}

fn take_bytes(input: &mut &[u8]) -> io::Result<Vec<u8>> {
    let len = take_u64(input)? as usize;
    if input.len() < len {
        return Err(bad("truncated byte field"));
    }
    let (head, rest) = input.split_at(len);
    *input = rest;
    Ok(head.to_vec())
}

fn take_u8(input: &mut &[u8]) -> io::Result<u8> {
    let (&b, rest) = input.split_first().ok_or_else(|| bad("truncated opcode"))?;
    *input = rest;
    Ok(b)
}

// -- messages --------------------------------------------------------------

/// Opcodes. `0x06`, `0x08`–`0x0b`, `0x84` and `0x87`–`0x89` are retired:
/// `0x06`/`0x84` carried STATS, whose counters METRICS exports, and the rest
/// a replication protocol that is gone. Both decoders refuse them, and no
/// new message may take them.
mod op {
    pub const GET: u8 = 0x01;
    pub const PUT: u8 = 0x02;
    pub const DELETE: u8 = 0x03;
    pub const BATCH: u8 = 0x04;
    pub const SCAN: u8 = 0x05;
    pub const METRICS: u8 = 0x07;

    pub const OK: u8 = 0x80;
    pub const VALUE: u8 = 0x81;
    pub const NOT_FOUND: u8 = 0x82;
    pub const ENTRIES: u8 = 0x83;
    pub const ERR: u8 = 0x85;
    pub const METRICS_TEXT: u8 = 0x86;

    pub const ITEM_PUT: u8 = 0x00;
    pub const ITEM_DELETE: u8 = 0x01;
}

/// One operation of a BATCH request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// Insert `key → value`.
    Put(Vec<u8>, Vec<u8>),
    /// Remove `key`.
    Delete(Vec<u8>),
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one key.
    Get(Vec<u8>),
    /// Write one key.
    Put(Vec<u8>, Vec<u8>),
    /// Delete one key.
    Delete(Vec<u8>),
    /// Apply several operations (atomic per shard, snapshot-atomic across
    /// shards).
    Batch(Vec<BatchItem>),
    /// Read up to `limit` entries with key `>= start`, in key order.
    Scan { start: Vec<u8>, limit: u64 },
    /// Fetch the full metrics registry in Prometheus text exposition
    /// format (see `OBSERVABILITY.md` for the metric contract).
    Metrics,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write acknowledged.
    Ok,
    /// GET hit.
    Value(Vec<u8>),
    /// GET miss.
    NotFound,
    /// SCAN result, in key order.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// METRICS result: Prometheus text exposition (UTF-8).
    MetricsText(String),
    /// The request failed; human-readable reason.
    Err(String),
}

impl Request {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Get(key) => {
                out.push(op::GET);
                put_bytes(&mut out, key);
            }
            Request::Put(key, value) => {
                out.push(op::PUT);
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            Request::Delete(key) => {
                out.push(op::DELETE);
                put_bytes(&mut out, key);
            }
            Request::Batch(items) => {
                out.push(op::BATCH);
                pcp_codec::put_u64(&mut out, items.len() as u64);
                for item in items {
                    match item {
                        BatchItem::Put(k, v) => {
                            out.push(op::ITEM_PUT);
                            put_bytes(&mut out, k);
                            put_bytes(&mut out, v);
                        }
                        BatchItem::Delete(k) => {
                            out.push(op::ITEM_DELETE);
                            put_bytes(&mut out, k);
                        }
                    }
                }
            }
            Request::Scan { start, limit } => {
                out.push(op::SCAN);
                put_bytes(&mut out, start);
                pcp_codec::put_u64(&mut out, *limit);
            }
            Request::Metrics => out.push(op::METRICS),
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut input = payload;
        let opcode = take_u8(&mut input)?;
        let req = match opcode {
            op::GET => Request::Get(take_bytes(&mut input)?),
            op::PUT => {
                let k = take_bytes(&mut input)?;
                let v = take_bytes(&mut input)?;
                Request::Put(k, v)
            }
            op::DELETE => Request::Delete(take_bytes(&mut input)?),
            op::BATCH => {
                let count = take_u64(&mut input)?;
                if count > MAX_FRAME as u64 {
                    return Err(bad("batch count exceeds frame bound"));
                }
                let mut items = Vec::with_capacity(count.min(1024) as usize);
                for _ in 0..count {
                    match take_u8(&mut input)? {
                        op::ITEM_PUT => {
                            let k = take_bytes(&mut input)?;
                            let v = take_bytes(&mut input)?;
                            items.push(BatchItem::Put(k, v));
                        }
                        op::ITEM_DELETE => items.push(BatchItem::Delete(take_bytes(&mut input)?)),
                        t => return Err(bad(format!("unknown batch item tag {t:#04x}"))),
                    }
                }
                Request::Batch(items)
            }
            op::SCAN => {
                let start = take_bytes(&mut input)?;
                let limit = take_u64(&mut input)?;
                Request::Scan { start, limit }
            }
            op::METRICS => Request::Metrics,
            t => return Err(bad(format!("unknown request opcode {t:#04x}"))),
        };
        if !input.is_empty() {
            return Err(bad("trailing bytes after request"));
        }
        Ok(req)
    }
}

impl Response {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(op::OK),
            Response::Value(v) => {
                out.push(op::VALUE);
                put_bytes(&mut out, v);
            }
            Response::NotFound => out.push(op::NOT_FOUND),
            Response::Entries(entries) => {
                out.push(op::ENTRIES);
                pcp_codec::put_u64(&mut out, entries.len() as u64);
                for (k, v) in entries {
                    put_bytes(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Response::MetricsText(text) => {
                out.push(op::METRICS_TEXT);
                put_bytes(&mut out, text.as_bytes());
            }
            Response::Err(msg) => {
                out.push(op::ERR);
                put_bytes(&mut out, msg.as_bytes());
            }
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut input = payload;
        let opcode = take_u8(&mut input)?;
        let resp = match opcode {
            op::OK => Response::Ok,
            op::VALUE => Response::Value(take_bytes(&mut input)?),
            op::NOT_FOUND => Response::NotFound,
            op::ENTRIES => {
                let count = take_u64(&mut input)?;
                if count > SCAN_LIMIT_MAX {
                    return Err(bad("entry count exceeds scan bound"));
                }
                let mut entries = Vec::with_capacity(count.min(1024) as usize);
                for _ in 0..count {
                    let k = take_bytes(&mut input)?;
                    let v = take_bytes(&mut input)?;
                    entries.push((k, v));
                }
                Response::Entries(entries)
            }
            op::METRICS_TEXT => {
                let text = take_bytes(&mut input)?;
                let text =
                    String::from_utf8(text).map_err(|_| bad("metrics exposition is not UTF-8"))?;
                Response::MetricsText(text)
            }
            op::ERR => {
                let msg = take_bytes(&mut input)?;
                Response::Err(String::from_utf8_lossy(&msg).into_owned())
            }
            t => return Err(bad(format!("unknown response opcode {t:#04x}"))),
        };
        if !input.is_empty() {
            return Err(bad("trailing bytes after response"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        // And through the frame layer.
        let mut cursor = io::Cursor::new(encode_frame(&payload));
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Get(b"k".to_vec()));
        roundtrip_request(Request::Put(b"key".to_vec(), vec![0u8; 300]));
        roundtrip_request(Request::Delete(Vec::new()));
        roundtrip_request(Request::Batch(vec![
            BatchItem::Put(b"a".to_vec(), b"1".to_vec()),
            BatchItem::Delete(b"b".to_vec()),
            BatchItem::Put(Vec::new(), Vec::new()),
        ]));
        roundtrip_request(Request::Scan {
            start: b"user/".to_vec(),
            limit: 500,
        });
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn response_roundtrips() {
        for resp in [
            Response::Ok,
            Response::Value(b"v".to_vec()),
            Response::NotFound,
            Response::Entries(vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), Vec::new()),
            ]),
            Response::MetricsText(
                "# HELP pcp_service_requests_total requests served\n\
                 # TYPE pcp_service_requests_total counter\n\
                 pcp_service_requests_total 42\n"
                    .into(),
            ),
            Response::Err("shard 2 wedged".into()),
        ] {
            let payload = resp.encode();
            assert_eq!(Response::decode(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn non_utf8_metrics_text_rejected() {
        let mut payload = vec![op::METRICS_TEXT];
        put_bytes(&mut payload, &[0x80, 0xff, 0x00]);
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let mut frame = encode_frame(&Request::Get(b"k".to_vec()).encode());
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let err = read_frame(&mut io::Cursor::new(frame)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let frame = encode_frame(b"payload");
        let cut = &frame[..frame.len() - 2];
        assert!(read_frame(&mut io::Cursor::new(cut.to_vec())).is_err());
    }

    /// Fails its first `read` with `Interrupted` (a signal landed), then
    /// reads from `inner`.
    struct InterruptedOnce {
        interrupted: bool,
        inner: io::Cursor<Vec<u8>>,
    }

    impl Read for InterruptedOnce {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn interrupted_first_read_is_retried() {
        let payload = Request::Get(b"k".to_vec()).encode();
        let mut r = InterruptedOnce {
            interrupted: false,
            inner: io::Cursor::new(encode_frame(&payload)),
        };
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn clean_eof_yields_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut io::Cursor::new(empty.to_vec()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        assert!(read_frame(&mut io::Cursor::new(frame)).is_err());
    }

    #[test]
    fn take_frame_handles_partial_and_multiple() {
        let a = encode_frame(b"first");
        let b = encode_frame(b"second");
        let mut buf = Vec::new();
        // Nothing yet.
        assert!(take_frame(&mut buf).unwrap().is_none());
        // Half of frame a: still nothing, nothing consumed.
        buf.extend_from_slice(&a[..5]);
        assert!(take_frame(&mut buf).unwrap().is_none());
        assert_eq!(buf.len(), 5);
        // The rest of a plus all of b: both extractable in order.
        buf.extend_from_slice(&a[5..]);
        buf.extend_from_slice(&b);
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"first");
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"second");
        assert!(buf.is_empty());
    }

    #[test]
    fn garbage_requests_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x7f]).is_err());
        // PUT with a key length pointing past the end.
        assert!(Request::decode(&[op::PUT, 0x20, b'x']).is_err());
        // Valid GET with trailing junk.
        let mut p = Request::Get(b"k".to_vec()).encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
        // Retired opcodes, bare and with the varint fields they once took.
        for opcode in [0x06, 0x08, 0x09, 0x0a, 0x0b] {
            assert!(Request::decode(&[opcode]).is_err(), "{opcode:#04x}");
            assert!(
                Request::decode(&[opcode, 0x01, 0x02]).is_err(),
                "{opcode:#04x}"
            );
        }
    }

    #[test]
    fn retired_response_opcodes_are_rejected() {
        for opcode in [0x84, 0x87, 0x88, 0x89] {
            assert!(Response::decode(&[opcode]).is_err(), "{opcode:#04x}");
            assert!(
                Response::decode(&[opcode, 0x00, 0x00]).is_err(),
                "{opcode:#04x}"
            );
        }
    }
}
