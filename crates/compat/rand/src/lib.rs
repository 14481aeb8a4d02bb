//! Offline stand-in for the `rand` crate.
//!
//! Implements the subset this workspace uses — `Rng::gen`, `SeedableRng`,
//! and `rngs::StdRng` — on top of xoshiro256\*\* seeded via splitmix64.
//! Deterministic across platforms, which the simulator's seeded-measurement
//! contract requires.

#![forbid(unsafe_code)]

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`'s stream.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples a `bool` that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// Samples uniformly from `range` (half-open), mirroring
    /// `rand::Rng::gen_range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from `rng`'s stream.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),+) => {
        $(
            impl SampleRange<$t> for std::ops::Range<$t> {
                fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                    let span = (self.end as i128 - self.start as i128) as u64;
                    assert!(span > 0, "cannot sample from an empty range");
                    // Rejection-free multiply-shift; bias is negligible for
                    // the bounds used here (widest in-tree is a few hundred).
                    let off = ((rng.next_u64() as u128 * span as u128) >> 64) as i128;
                    (self.start as i128 + off) as $t
                }
            }
        )+
    };
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<R: RngCore> Rng for R {}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),+) => {
        $(
            impl Standard for $t {
                fn sample<R: RngCore>(rng: &mut R) -> Self {
                    rng.next_u64() as $t
                }
            }
        )+
    };
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256\*\* generator (the workspace's `StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, the reference seeding for xoshiro.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let v = r.gen::<f64>();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean={mean}");
    }
}
