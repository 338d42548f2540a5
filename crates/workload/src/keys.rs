//! Key generators.
//!
//! Keys are fixed-width (paper: 16 bytes) decimal-encoded integers so that
//! byte order equals numeric order and experiments are reproducible from a
//! seed.

/// Key arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyOrder {
    /// 0, 1, 2, … — compactions become trivial moves (best case).
    Sequential,
    /// Uniform random over `[0, space)` — the paper's insert workload.
    UniformRandom,
}

/// Deterministic key generator.
#[derive(Debug, Clone)]
pub struct KeyGen {
    order: KeyOrder,
    key_len: usize,
    space: u64,
    counter: u64,
    state: u64,
}

impl KeyGen {
    /// Creates a generator of `key_len`-byte keys over `space` distinct
    /// keys, seeded deterministically.
    pub fn new(order: KeyOrder, key_len: usize, space: u64, seed: u64) -> KeyGen {
        assert!(space > 0);
        assert!(
            key_len >= 8,
            "keys shorter than 8 bytes can't hold the space"
        );
        KeyGen {
            order,
            key_len,
            space,
            counter: 0,
            state: seed | 1,
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xorshift64*; deterministic and fast.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_index(&mut self) -> u64 {
        match self.order {
            KeyOrder::Sequential => {
                let v = self.counter % self.space;
                self.counter += 1;
                v
            }
            KeyOrder::UniformRandom => self.next_u64() % self.space,
        }
    }

    /// Writes the next key into `buf` (resized to `key_len`).
    pub fn next_key(&mut self, buf: &mut Vec<u8>) {
        let idx = self.next_index();
        buf.clear();
        buf.resize(self.key_len, b'0');
        // Decimal, right-aligned: byte order == numeric order.
        let s = format!("{idx:0width$}", width = self.key_len);
        buf.copy_from_slice(&s.as_bytes()[s.len() - self.key_len..]);
    }

    /// Convenience allocation of the next key.
    pub fn generate(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.next_key(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_are_ordered_and_fixed_width() {
        let mut g = KeyGen::new(KeyOrder::Sequential, 16, 1000, 42);
        let keys: Vec<Vec<u8>> = (0..100).map(|_| g.generate()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|k| k.len() == 16));
    }

    #[test]
    fn uniform_keys_are_deterministic_per_seed() {
        let mut a = KeyGen::new(KeyOrder::UniformRandom, 16, 1 << 20, 7);
        let mut b = KeyGen::new(KeyOrder::UniformRandom, 16, 1 << 20, 7);
        let mut c = KeyGen::new(KeyOrder::UniformRandom, 16, 1 << 20, 8);
        let ka: Vec<_> = (0..50).map(|_| a.generate()).collect();
        let kb: Vec<_> = (0..50).map(|_| b.generate()).collect();
        let kc: Vec<_> = (0..50).map(|_| c.generate()).collect();
        assert_eq!(ka, kb);
        assert_ne!(ka, kc);
    }

    #[test]
    fn uniform_keys_spread_over_space() {
        let mut g = KeyGen::new(KeyOrder::UniformRandom, 16, 1_000_000, 3);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            let k = g.generate();
            let v: u64 = std::str::from_utf8(&k).unwrap().parse().unwrap();
            buckets[(v / 100_000) as usize] += 1;
        }
        for (i, b) in buckets.iter().enumerate() {
            assert!(
                (500..2000).contains(b),
                "bucket {i} has {b} of 10000 — not uniform"
            );
        }
    }

    #[test]
    fn keys_wrap_within_space() {
        let mut g = KeyGen::new(KeyOrder::Sequential, 16, 10, 0);
        let keys: Vec<Vec<u8>> = (0..25).map(|_| g.generate()).collect();
        assert_eq!(keys[0], keys[10]);
        assert_eq!(keys[5], keys[15]);
    }
}
