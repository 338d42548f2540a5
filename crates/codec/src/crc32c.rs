//! CRC-32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum LevelDB uses on
//! every data block, computed here in software with slicing-by-8.
//!
//! Compaction step S2 verifies this CRC on every block read from disk and
//! step S6 recomputes it for every block written, so this routine is one of
//! the calibrated computation costs fed into the pipeline model.
//!
//! The slicing-by-8 algorithm processes eight input bytes per iteration using
//! eight 256-entry lookup tables; it is roughly 6-8x faster than the
//! bit-at-a-time reference implementation while remaining portable (no SSE4.2
//! `crc32` instruction dependency).

/// Reversed representation of the Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Number of slicing tables (bytes consumed per main-loop iteration).
const SLICES: usize = 8;

/// Lookup tables, generated at compile time.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    // Table 0: classic byte-at-a-time table.
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // Tables 1..8: table[k][i] = advance table[k-1][i] by one zero byte.
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32C of `data` in one shot.
///
/// ```
/// // RFC 3720 test vector: 32 bytes of zeros.
/// assert_eq!(pcp_codec::crc32c(&[0u8; 32]), 0x8A91_36AA);
/// ```
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

/// Incremental CRC-32C state, for checksumming data that arrives in chunks
/// (e.g. a WAL record split across buffers).
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Creates a fresh checksum state.
    #[inline]
    pub fn new() -> Self {
        Crc32c { state: !0u32 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            // Fold the current CRC into the first four bytes, then slice.
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][chunk[4] as usize]
                ^ TABLES[2][chunk[5] as usize]
                ^ TABLES[1][chunk[6] as usize]
                ^ TABLES[0][chunk[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the final CRC value. The state may keep being updated; this is
    /// a snapshot, matching the behaviour of rolling checksums.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// Offset used by the masking scheme below.
const MASK_DELTA: u32 = 0xA282_EAD8;

/// Masks a CRC so that checksumming data that *contains* embedded CRCs does
/// not degenerate (LevelDB convention: rotate and add a constant).
#[inline]
pub fn mask_crc(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask_crc`].
#[inline]
pub fn unmask_crc(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation used to cross-check slicing.
    fn crc32c_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn rfc3720_zero_vector() {
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn rfc3720_ones_vector() {
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn rfc3720_ascending_vector() {
        let data: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&data), 0x46DD_794E);
    }

    #[test]
    fn rfc3720_descending_vector() {
        let data: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&data), 0x113F_DB5C);
    }

    #[test]
    fn ascii_123456789() {
        // Canonical check value for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn matches_reference_on_unaligned_lengths() {
        let data: Vec<u8> = (0..1021).map(|i| (i * 131 % 251) as u8).collect();
        for len in [0, 1, 3, 7, 8, 9, 15, 16, 63, 255, 1021] {
            assert_eq!(
                crc32c(&data[..len]),
                crc32c_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 256) as u8).collect();
        let oneshot = crc32c(&data);
        for split in [0, 1, 7, 8, 100, 4095, 4096] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn mask_roundtrip() {
        for crc in [0u32, 1, 0xDEAD_BEEF, u32::MAX, 0x8A91_36AA] {
            assert_eq!(unmask_crc(mask_crc(crc)), crc);
            // Masking must actually change the value (for all our vectors).
            assert_ne!(mask_crc(crc), crc);
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..512).map(|i| (i * 7 % 256) as u8).collect();
        let clean = crc32c(&data);
        let mut corrupt = data.clone();
        for bit in [0usize, 100, 511 * 8 + 7] {
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&corrupt), clean, "bit {bit} undetected");
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
