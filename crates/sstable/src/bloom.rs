//! Bloom filter over user keys.
//!
//! bLSM (cited in the paper's related work) popularized bloom filters for
//! LSM point queries; LevelDB gained them in the same era. One filter per
//! SSTable lets the read path skip tables that cannot contain the sought
//! key. Double hashing generates the k probe positions from one 64-bit
//! hash, per Kirsch & Mitzenmacher.

/// Serialized bloom filter: `[k: u8][bits ...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    k: u8,
    bits: Vec<u8>,
}

/// FNV-1a 64-bit — cheap, decent dispersion for short keys.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl BloomFilter {
    /// Hashes one key for [`BloomFilter::build_from_hashes`]. The compaction
    /// pipeline's compute stage hashes user keys as it merges, so the write
    /// stage can assemble the filter without re-touching key bytes.
    #[inline]
    pub fn hash_key(key: &[u8]) -> u64 {
        fnv1a(key)
    }

    /// Builds a filter for `keys` at `bits_per_key` (LevelDB default: 10,
    /// giving ≈1 % false positives).
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> BloomFilter {
        let hashes: Vec<u64> = keys.iter().map(|k| fnv1a(k.as_ref())).collect();
        Self::build_from_hashes(&hashes, bits_per_key)
    }

    /// Builds a filter from pre-computed [`BloomFilter::hash_key`] values.
    pub fn build_from_hashes(hashes: &[u64], bits_per_key: usize) -> BloomFilter {
        // k = bits_per_key * ln2, clamped to [1, 30].
        let k = ((bits_per_key as f64 * 0.69) as u8).clamp(1, 30);
        let nbits = (hashes.len() * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let nbits = nbytes * 8;
        let mut bits = vec![0u8; nbytes];
        for &h in hashes {
            let delta = h.rotate_right(17) | 1;
            let mut pos = h;
            for _ in 0..k {
                let bit = (pos % nbits as u64) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
                pos = pos.wrapping_add(delta);
            }
        }
        BloomFilter { k, bits }
    }

    /// True if `key` *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let nbits = self.bits.len() * 8;
        if nbits == 0 {
            return true;
        }
        let h = fnv1a(key);
        let delta = h.rotate_right(17) | 1;
        let mut pos = h;
        for _ in 0..self.k {
            let bit = (pos % nbits as u64) as usize;
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            pos = pos.wrapping_add(delta);
        }
        true
    }

    /// Serializes to `[k][bits...]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.bits.len());
        out.push(self.k);
        out.extend_from_slice(&self.bits);
        out
    }

    /// Parses a serialized filter. Returns `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<BloomFilter> {
        let (&k, bits) = data.split_first()?;
        if k == 0 || k > 30 {
            return None;
        }
        Some(BloomFilter {
            k,
            bits: bits.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{tag}-{i:08}").into_bytes())
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000, "present");
        let f = BloomFilter::build(&ks, 10);
        for k in &ks {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(10_000, "present");
        let f = BloomFilter::build(&ks, 10);
        let absent = keys(10_000, "absent");
        let fp = absent.iter().filter(|k| f.may_contain(k)).count();
        let rate = fp as f64 / absent.len() as f64;
        assert!(rate < 0.03, "expected ~1% false positives, got {rate:.4}");
    }

    #[test]
    fn more_bits_per_key_fewer_false_positives() {
        let ks = keys(5_000, "p");
        let absent = keys(5_000, "a");
        let fp = |bpk: usize| {
            let f = BloomFilter::build(&ks, bpk);
            absent.iter().filter(|k| f.may_contain(k)).count()
        };
        let loose = fp(4);
        let tight = fp(16);
        assert!(
            tight < loose,
            "16 bpk ({tight}) should beat 4 bpk ({loose})"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(1_000, "x");
        let f = BloomFilter::build(&ks, 10);
        let enc = f.encode();
        let g = BloomFilter::decode(&enc).unwrap();
        assert_eq!(f, g);
        for k in &ks {
            assert!(g.may_contain(k));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_none());
        assert!(BloomFilter::decode(&[0, 1, 2]).is_none()); // k == 0
        assert!(BloomFilter::decode(&[31, 1, 2]).is_none()); // k too large
    }

    #[test]
    fn empty_key_set_contains_nothing_certainly() {
        let f = BloomFilter::build::<Vec<u8>>(&[], 10);
        // No false negatives possible; queries may return false.
        let _ = f.may_contain(b"whatever");
        let enc = f.encode();
        assert!(BloomFilter::decode(&enc).is_some());
    }

    #[test]
    fn binary_keys_supported() {
        let ks: Vec<Vec<u8>> = (0..256u16)
            .map(|i| vec![i as u8, 0, 255, (i >> 4) as u8])
            .collect();
        let f = BloomFilter::build(&ks, 12);
        for k in &ks {
            assert!(f.may_contain(k));
        }
    }
}
