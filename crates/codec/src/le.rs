//! Bounds-checked little-endian integer reads.
//!
//! The wire formats in this workspace (WAL records, SSTable trailers,
//! service frames) carry fixed-width little-endian integers at offsets
//! that are validated by a length check just before the read. These
//! helpers make the read itself total: an out-of-range offset yields
//! `None` instead of a panicking slice conversion, so callers propagate
//! a corruption error rather than aborting the process on a malformed
//! input (each crate root denies `clippy::{unwrap_used, expect_used,
//! panic}`).

/// Reads the little-endian `u32` at `buf[off..off + 4]`, or `None` when
/// the range falls outside `buf`.
#[inline]
pub fn read_u32_le(buf: &[u8], off: usize) -> Option<u32> {
    let end = off.checked_add(4)?;
    let bytes = buf.get(off..end)?;
    let mut fixed = [0u8; 4];
    fixed.copy_from_slice(bytes);
    Some(u32::from_le_bytes(fixed))
}

/// Reads the little-endian `u64` at `buf[off..off + 8]`, or `None` when
/// the range falls outside `buf`.
#[inline]
pub fn read_u64_le(buf: &[u8], off: usize) -> Option<u64> {
    let end = off.checked_add(8)?;
    let bytes = buf.get(off..end)?;
    let mut fixed = [0u8; 8];
    fixed.copy_from_slice(bytes);
    Some(u64::from_le_bytes(fixed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_reads() {
        let buf = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(read_u32_le(&buf, 0), Some(1));
        assert_eq!(read_u32_le(&buf, 4), Some(2));
        assert_eq!(read_u64_le(&buf, 4), Some(2));
    }

    #[test]
    fn out_of_bounds_is_none_not_panic() {
        let buf = [0u8; 6];
        assert_eq!(read_u32_le(&buf, 2), Some(0));
        assert_eq!(read_u32_le(&buf, 3), None);
        assert_eq!(read_u64_le(&buf, 0), None);
        assert_eq!(read_u32_le(&buf, usize::MAX), None, "offset overflow");
    }
}
