//! SplitMix64: the one source of workload inputs. Same seed, same inputs;
//! the library under test never sees the generator, only what it produced.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`, so workloads draw independently.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let salt = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is irrelevant at the
    /// sizes drawn here (n ≤ a few dozen against 2^64).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let draw = |seed, purpose| {
            let mut r = Rng::new(seed, purpose);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "tfim"), draw(1, "tfim"));
        assert_ne!(draw(1, "tfim"), draw(2, "tfim"));
        assert_ne!(draw(1, "tfim"), draw(1, "readout"));
        let mut r = Rng::new(7, "x");
        for _ in 0..1000 {
            let v = r.range_f64(0.5, 1.5);
            assert!((0.5..1.5).contains(&v));
            assert!(r.below(3) < 3);
        }
    }
}
