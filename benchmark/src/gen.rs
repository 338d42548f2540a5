//! Seeded input generators. The benchmark owns these (it does not use
//! `pcp::workload`), so a later change to the engine's own generators
//! cannot change the load this benchmark offers.
//!
//! Keys are 16-byte decimal strings of a key index; values are 100 bytes,
//! half incompressible and half one repeated letter, and a pure function of
//! (key index, seed) — so every read anywhere in the benchmark can be
//! checked without remembering what was written.

pub const KEY_LEN: usize = 16;
pub const VALUE_LEN: usize = 100;
/// User bytes of one entry.
pub const ENTRY_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// SplitMix64 (Steele, Lea, Flood 2014): one multiply-xorshift chain per
/// output, full period, and good enough that consecutive seeds give
/// unrelated streams.
#[derive(Clone)]
pub struct Rng(u64);

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream for `seed`, separated by `stream` so each use of the seed in
    /// one run (keys, op kinds, scan starts) draws independent numbers.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-32 for the
    /// key-space sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The key for index `idx`: 16 decimal digits, so index order is key order.
pub fn key(idx: u64) -> [u8; KEY_LEN] {
    let mut out = [b'0'; KEY_LEN];
    let mut v = idx;
    for slot in out.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out
}

/// Parses a key produced by [`key`]; `None` for anything else.
pub fn key_index(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN {
        return None;
    }
    key.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + (b - b'0') as u64)
    })
}

/// The value every put of key `idx` writes under `seed`.
pub fn value(idx: u64, seed: u64) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    let mut rng = Rng::new(seed, idx);
    let (random, filler) = out.split_at_mut(VALUE_LEN / 2);
    for chunk in random.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    filler.fill(b'a' + (rng.next_u64() % 26) as u8);
    out
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: u64, rng: &mut Rng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Scrambled zipfian over `0..n` (Gray et al. 1994, as YCSB uses it): ranks
/// follow a zipfian with exponent `theta`, and each rank is hashed to an
/// item so the hot items are spread over the key space instead of sitting
/// next to each other in one block.
pub struct Zipfian {
    n: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zeta_n);
        Zipfian {
            n,
            theta,
            zeta_n,
            alpha: 1.0 / (1.0 - theta),
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix64(rank.min(self.n - 1)) % self.n
    }
}

/// One operation of a generated stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put(u32),
    Get(u32),
    /// Scan from this key index.
    Scan(u32),
}

impl Op {
    /// The key index the operation names.
    pub fn key(self) -> u64 {
        match self {
            Op::Put(k) | Op::Get(k) | Op::Scan(k) => k as u64,
        }
    }
}

/// The key of the first get in `ops`: the one `--corrupt` expects a wrong
/// value for, so that the run is certain to read it.
pub fn first_get(ops: &[Op]) -> Option<u64> {
    ops.iter()
        .find(|op| matches!(op, Op::Get(_)))
        .map(|op| op.key())
}

/// FNV-1a over the stream, so two runs can show they offered the same load.
pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        for byte in b.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops {
        match *op {
            Op::Put(k) => eat(k as u64),
            Op::Get(k) => eat(1 << 32 | k as u64),
            Op::Scan(k) => eat(2 << 32 | k as u64),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_like_their_indices_and_round_trip() {
        assert!(key(9) < key(10));
        assert!(key(99_999) < key(100_000));
        assert_eq!(key_index(&key(1_234_567)), Some(1_234_567));
        assert_eq!(key_index(b"not a key"), None);
        assert_eq!(key_index(b"00000000000000x1"), None);
    }

    #[test]
    fn values_depend_on_key_and_seed_only() {
        assert_eq!(value(7, 1), value(7, 1));
        assert_ne!(value(7, 1), value(8, 1));
        assert_ne!(value(7, 1), value(7, 2));
        let v = value(7, 1);
        assert!(v[VALUE_LEN / 2..].iter().all(|&b| b == v[VALUE_LEN / 2]));
    }

    #[test]
    fn permutation_holds_every_index_once() {
        let mut p = permutation(1000, &mut Rng::new(3, 0));
        assert_ne!(p, (0..1000).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = Rng::new(5, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            let k = z.sample(&mut rng);
            assert!(k < 10_000);
            *counts.entry(k).or_insert(0u32) += 1;
        }
        let hottest = *counts.values().max().unwrap();
        // Rank 0 of zipf(0.99) over 10^4 items draws about one sample in ten.
        assert!(hottest > 5_000, "hottest item drew {hottest} of 100000");
        assert!(counts.len() > 3_000, "the tail is still visited");
    }
}
