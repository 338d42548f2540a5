//! A from-scratch LZ77 block compressor in the Snappy format class.
//!
//! The paper's experiments run LevelDB with snappy; compaction step S5
//! (COMPRESS) is "almost the most costly" computation step and S3
//! (DECOMPRESS) "takes the least amount of time". This implementation
//! reproduces that cost asymmetry: compression runs a hash-table match
//! search over the input, decompression is a straight-line tag interpreter.
//!
//! ## Format
//!
//! ```text
//! [varint: decompressed length] [tag]...
//! tag & 0b11 == 0b00  literal   — upper 6 bits = len-1 (0..=59), or
//!                                 60..=63 => 1..=4 extra little-endian
//!                                 length bytes follow (value = len-1)
//! tag & 0b11 == 0b01  copy-1    — len = 4 + bits[2..5] (4..=11),
//!                                 offset = bits[5..8] << 8 | next byte
//!                                 (1..=2047)
//! tag & 0b11 == 0b10  copy-2    — len = 1 + bits[2..8] (1..=64),
//!                                 offset = next two bytes LE (1..=65535)
//! tag & 0b11 == 0b11  copy-4    — len = 1 + bits[2..8] (1..=64),
//!                                 offset = next four bytes LE
//! ```
//!
//! Copies may overlap their own output (offset < len), which encodes runs.
//! This is wire-compatible in spirit — not in bytes — with Snappy; we never
//! claim interoperability, only the same computational profile.

use crate::varint;

/// Minimum match length worth emitting as a copy.
const MIN_MATCH: usize = 4;
/// Hash table size (log2). 14 bits = 16384 entries = 64 KiB of u32 slots.
const HASH_BITS: u32 = 14;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Multiplicative hash constant (Knuth).
const HASH_MUL: u32 = 0x9E37_79B1;
/// Inputs shorter than this skip the match search entirely.
const MIN_COMPRESS_INPUT: usize = 16;

/// Errors produced while decompressing a corrupt or truncated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzError {
    /// Stream ended mid-tag or mid-payload.
    Truncated,
    /// A copy referenced data before the start of the output.
    BadOffset,
    /// Output did not match the length declared in the header.
    LengthMismatch,
    /// The declared decompressed length is implausibly large.
    LengthOverflow,
    /// The length header itself is malformed.
    BadHeader,
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Truncated => write!(f, "compressed stream truncated"),
            LzError::BadOffset => write!(f, "copy offset out of range"),
            LzError::LengthMismatch => write!(f, "decompressed length mismatch"),
            LzError::LengthOverflow => write!(f, "declared length too large"),
            LzError::BadHeader => write!(f, "malformed length header"),
        }
    }
}

impl std::error::Error for LzError {}

/// Upper bound on the compressed size of `len` input bytes.
///
/// Worst case is incompressible data: one maximal literal per 2^32-ish bytes
/// plus the header; we bound conservatively with per-64KiB overhead.
pub fn max_compressed_len(len: usize) -> usize {
    // varint header (<=10) + raw bytes + literal tag overhead (5 bytes per
    // literal, one literal per full input in the worst emission pattern we
    // generate; be generous: one 5-byte tag per 64 bytes of input).
    10 + len + len / 64 + 8
}

#[inline(always)]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(HASH_MUL) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`, appending to `out`. Returns bytes appended.
///
/// `out` is not cleared: pipeline stages reuse one output buffer per
/// sub-task and compress multiple blocks back to back.
pub fn compress(input: &[u8], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.reserve(max_compressed_len(input.len()));
    varint::put_u64(out, input.len() as u64);

    if input.len() < MIN_COMPRESS_INPUT {
        if !input.is_empty() {
            emit_literal(out, input);
        }
        return out.len() - start;
    }

    // Hash table of candidate positions; 0 means "empty" so position 0 is
    // sacrificed (it can still be found via later duplicates).
    let mut table = vec![0u32; HASH_SIZE];
    let mut pos = 0usize; // current scan position
    let mut lit_start = 0usize; // start of the pending literal run
    let limit = input.len() - MIN_MATCH; // last position a match can start

    while pos <= limit {
        let h = hash4(&input[pos..]);
        let candidate = table[h] as usize;
        table[h] = pos as u32;

        if candidate != 0
            && candidate < pos
            && pos - candidate <= u32::MAX as usize
            && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
        {
            // Extend the match forward.
            let mut len = MIN_MATCH;
            let max = input.len() - pos;
            while len < max && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            if lit_start < pos {
                emit_literal(out, &input[lit_start..pos]);
            }
            emit_copy(out, pos - candidate, len);
            // Seed the table sparsely inside the match to find future
            // matches without paying a per-byte hash cost.
            let end = pos + len;
            let mut p = pos + 1;
            while p < end.min(limit + 1) {
                table[hash4(&input[p..])] = p as u32;
                p += 3;
            }
            pos = end;
            lit_start = end;
        } else {
            pos += 1;
        }
    }

    if lit_start < input.len() {
        emit_literal(out, &input[lit_start..]);
    }
    out.len() - start
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    debug_assert!(!lit.is_empty());
    let n = lit.len() - 1;
    if n < 60 {
        out.push((n as u8) << 2);
    } else {
        // Count how many bytes the length needs (1..=4).
        let bytes = (u32::BITS - (n as u32).leading_zeros()).div_ceil(8).max(1) as usize;
        out.push((59 + bytes as u8) << 2);
        out.extend_from_slice(&(n as u32).to_le_bytes()[..bytes]);
    }
    out.extend_from_slice(lit);
}

fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    debug_assert!(offset >= 1);
    // Long matches are emitted as a sequence of <=64-byte copies.
    while len > 0 {
        if (4..=11).contains(&len) && offset < 2048 {
            out.push(0b01 | ((len as u8 - 4) << 2) | (((offset >> 8) as u8) << 5));
            out.push((offset & 0xFF) as u8);
            return;
        }
        let chunk = len.min(64);
        // Avoid leaving a tail shorter than MIN_MATCH that copy-1 can't
        // encode cheaply: split 65..=67 as 60 + remainder.
        let chunk = if len - chunk > 0 && len - chunk < MIN_MATCH {
            60
        } else {
            chunk
        };
        if offset < 65536 {
            out.push(0b10 | ((chunk as u8 - 1) << 2));
            out.extend_from_slice(&(offset as u16).to_le_bytes());
        } else {
            out.push(0b11 | ((chunk as u8 - 1) << 2));
            out.extend_from_slice(&(offset as u32).to_le_bytes());
        }
        len -= chunk;
    }
}

/// Reads the decompressed length declared in a compressed stream's header.
pub fn decompressed_len(input: &[u8]) -> Result<usize, LzError> {
    let (len, _) = varint::decode_u64(input).map_err(|_| LzError::BadHeader)?;
    usize::try_from(len).map_err(|_| LzError::LengthOverflow)
}

/// Hard cap on a single block's decompressed size (defence against corrupt
/// headers): 256 MiB, far above any SSTable block.
const MAX_DECOMPRESSED: usize = 256 << 20;

/// Decompresses `input`, appending to `out`. Returns bytes appended.
pub fn decompress(input: &[u8], out: &mut Vec<u8>) -> Result<usize, LzError> {
    let (declared, mut pos) = varint::decode_u64(input).map_err(|_| LzError::BadHeader)?;
    let declared = usize::try_from(declared).map_err(|_| LzError::LengthOverflow)?;
    if declared > MAX_DECOMPRESSED {
        return Err(LzError::LengthOverflow);
    }
    let base = out.len();
    out.reserve(declared);

    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        match tag & 0b11 {
            0b00 => {
                // Literal.
                let mut n = (tag >> 2) as usize;
                if n >= 60 {
                    let extra = n - 59; // 1..=4 length bytes
                    if pos + extra > input.len() {
                        return Err(LzError::Truncated);
                    }
                    let mut v = 0usize;
                    for i in 0..extra {
                        v |= (input[pos + i] as usize) << (8 * i);
                    }
                    n = v;
                    pos += extra;
                }
                let len = n + 1;
                if pos + len > input.len() {
                    return Err(LzError::Truncated);
                }
                if out.len() - base + len > declared {
                    return Err(LzError::LengthMismatch);
                }
                out.extend_from_slice(&input[pos..pos + len]);
                pos += len;
            }
            kind => {
                let (offset, len) = match kind {
                    0b01 => {
                        if pos >= input.len() {
                            return Err(LzError::Truncated);
                        }
                        let len = 4 + ((tag >> 2) & 0b111) as usize;
                        let offset = (((tag >> 5) as usize) << 8) | input[pos] as usize;
                        pos += 1;
                        (offset, len)
                    }
                    0b10 => {
                        if pos + 2 > input.len() {
                            return Err(LzError::Truncated);
                        }
                        let len = 1 + (tag >> 2) as usize;
                        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                        pos += 2;
                        (offset, len)
                    }
                    _ => {
                        if pos + 4 > input.len() {
                            return Err(LzError::Truncated);
                        }
                        let len = 1 + (tag >> 2) as usize;
                        let offset = u32::from_le_bytes([
                            input[pos],
                            input[pos + 1],
                            input[pos + 2],
                            input[pos + 3],
                        ]) as usize;
                        pos += 4;
                        (offset, len)
                    }
                };
                let produced = out.len() - base;
                if offset == 0 || offset > produced {
                    return Err(LzError::BadOffset);
                }
                if produced + len > declared {
                    return Err(LzError::LengthMismatch);
                }
                // An overlapping copy (offset < len) repeats the last
                // `offset` bytes: a run of one byte is a fill, a longer
                // period is copied in chunks that double as it repeats.
                let src = out.len() - offset;
                let end = out.len() + len;
                if offset == 1 {
                    out.resize(end, out[src]);
                } else {
                    while out.len() < end {
                        let n = (end - out.len()).min(out.len() - src);
                        out.extend_from_within(src..src + n);
                    }
                }
            }
        }
    }

    if out.len() - base != declared {
        return Err(LzError::LengthMismatch);
    }
    Ok(declared)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        compress(data, &mut comp);
        let mut dec = Vec::new();
        decompress(&comp, &mut dec).expect("decompress");
        dec
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn tiny_inputs_roundtrip() {
        for len in 1..=MIN_COMPRESS_INPUT + 1 {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    #[test]
    fn run_of_identical_bytes_compresses_well() {
        let data = vec![0x42u8; 10_000];
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        // Copies cap at 64 bytes, so a 10_000-byte run needs ~157 copy tags.
        assert!(comp.len() < 600, "run should compress, got {}", comp.len());
        let mut dec = Vec::new();
        decompress(&comp, &mut dec).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn repeated_phrase_compresses() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        assert!(
            comp.len() < data.len() / 4,
            "text should compress 4x, got {} of {}",
            comp.len(),
            data.len()
        );
        let mut dec = Vec::new();
        decompress(&comp, &mut dec).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn incompressible_data_stays_within_bound() {
        // xorshift pseudo-random bytes do not compress.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..65536)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let mut comp = Vec::new();
        let n = compress(&data, &mut comp);
        assert!(n <= max_compressed_len(data.len()));
        let mut dec = Vec::new();
        decompress(&comp, &mut dec).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn overlapping_copy_offset_one() {
        // "aaaa..." forces offset-1 overlapping copies.
        let data = vec![b'a'; 100];
        assert_eq!(roundtrip(&data), data);
    }

    /// Every overlapping copy — offsets 1..=8, lengths 1..=64 — after a
    /// prefix long enough for its offset, equals the byte-by-byte copy.
    #[test]
    fn overlapping_copies_equal_the_bytewise_reference() {
        let prefix = b"abcdefgh";
        for offset in 1..=8usize {
            for len in 1..=64usize {
                let mut stream = Vec::new();
                varint::put_u64(&mut stream, (prefix.len() + len) as u64);
                emit_literal(&mut stream, prefix);
                stream.push(0b10 | ((len as u8 - 1) << 2));
                stream.extend_from_slice(&(offset as u16).to_le_bytes());
                let mut want = prefix.to_vec();
                for _ in 0..len {
                    want.push(want[want.len() - offset]);
                }
                let mut got = Vec::new();
                decompress(&stream, &mut got).unwrap();
                assert_eq!(got, want, "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn appends_without_clearing_out() {
        let mut comp = Vec::from(&b"prefix"[..]);
        compress(b"hello hello hello hello", &mut comp);
        assert_eq!(&comp[..6], b"prefix");
        let mut dec = Vec::from(&b"DEC"[..]);
        let n = decompress(&comp[6..], &mut dec).unwrap();
        assert_eq!(&dec[..3], b"DEC");
        assert_eq!(&dec[3..], b"hello hello hello hello");
        assert_eq!(n, 23);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let mut comp = Vec::new();
        compress(b"some compressible data data data data", &mut comp);
        for cut in 1..comp.len() {
            // Every strict prefix must fail, never panic or return wrong data.
            let mut dec = Vec::new();
            let r = decompress(&comp[..cut], &mut dec);
            assert!(r.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn bad_offset_is_detected() {
        // Header: len 4. Tag: copy-2 len 4, offset 9 (beyond produced=0).
        let stream = [4u8, 0b10 | (3 << 2), 9, 0];
        let mut dec = Vec::new();
        assert_eq!(decompress(&stream, &mut dec), Err(LzError::BadOffset));
    }

    #[test]
    fn declared_length_too_large_is_rejected() {
        let mut stream = Vec::new();
        varint::put_u64(&mut stream, (MAX_DECOMPRESSED + 1) as u64);
        let mut dec = Vec::new();
        assert_eq!(decompress(&stream, &mut dec), Err(LzError::LengthOverflow));
    }

    #[test]
    fn length_header_readable_without_decompressing() {
        let mut comp = Vec::new();
        compress(&[7u8; 12345], &mut comp);
        assert_eq!(decompressed_len(&comp).unwrap(), 12345);
    }

    #[test]
    fn literal_longer_than_60_bytes() {
        // Incompressible 200-byte literal exercises the extended length path.
        let data: Vec<u8> = (0..200u8)
            .map(|i| i.wrapping_mul(97).wrapping_add(i))
            .collect();
        assert_eq!(roundtrip(&data), data);
    }
}
