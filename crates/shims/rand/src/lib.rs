//! # rand (offline shim)
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the subset of the real `rand` API the workspace uses, with the
//! same import paths (`rand::Rng`, `rand::RngExt`, `rand::SeedableRng`,
//! `rand::rngs::StdRng`):
//!
//! * [`RngCore`] — the raw 64-bit generator interface.
//! * [`Rng`] / [`RngExt`] — `random`, `random_range`, `random_bool`,
//!   blanket-implemented for every [`RngCore`].
//! * [`SeedableRng::seed_from_u64`] — deterministic seeding.
//! * [`rngs::StdRng`] — xoshiro256** seeded through SplitMix64.
//!
//! The generator is deterministic for a fixed seed across platforms and
//! shard/thread counts, which the `caraoke-city` determinism tests rely on.
//! The *stream* differs from upstream `rand`'s ChaCha12-based `StdRng`, so
//! seed-sensitive statistical expectations were re-baselined when this shim
//! was introduced. Since then no seed is re-picked to make a test pass:
//! where one seed's outcome is a coin flip on the stream, the test states
//! its property as a rate or a mean over a fixed seed range, within a bound
//! for that range's size (`tests/phy_distributions.rs` holds the PHY's), so
//! a new stream — this shim's or `caraoke_phy::noise`'s sampler — is judged
//! by its distributions, not its bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The raw generator interface: a source of uniformly distributed `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Marker trait used in generic bounds (`R: Rng + ?Sized`). Blanket-implemented
/// for every [`RngCore`]; the sampling methods live on [`RngExt`].
pub trait Rng: RngCore {}

impl<R: RngCore + ?Sized> Rng for R {}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait RngExt: RngCore {
    /// Samples a value of `T` from its standard distribution (`[0, 1)` for
    /// floats, full range for integers, fair coin for `bool`).
    fn random<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from the given range. Panics on an empty range.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Seeding interface. Only `seed_from_u64` is used by this workspace.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable from their "standard" distribution via [`RngExt::random`].
pub trait SampleStandard {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

impl SampleStandard for i128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample_standard(rng) as i128
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range types usable with [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Samples one value uniformly from `self`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        let u = f64::sample_standard(rng);
        let v = self.start + (self.end - self.start) * u;
        // `start + (end-start)*u` can round up to exactly `end`; keep the
        // half-open contract of the real rand API.
        if v < self.end {
            v
        } else {
            self.end.next_down()
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in random_range");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + (hi - lo) * u
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range in random_range");
        let v = self.start + (self.end - self.start) * f32::sample_standard(rng);
        if v < self.end {
            v
        } else {
            self.end.next_down()
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (u128::sample_standard(rng) % span) as i128;
                (self.start as i128 + offset) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (u128::sample_standard(rng) % span) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**
    /// (Blackman & Vigna), seeded through SplitMix64. Passes BigCrush-class
    /// statistical tests and is reproducible across platforms.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_are_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let f = rng.random_range(-3.5..3.5);
            assert!((-3.5..3.5).contains(&f));
            let i = rng.random_range(0..7usize);
            assert!(i < 7);
            let inc = rng.random_range(-2.0..=2.0);
            assert!((-2.0..=2.0).contains(&inc));
            let neg = rng.random_range(-10i64..-2);
            assert!((-10..-2).contains(&neg));
        }
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.random_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dyn_rng_receivers_work() {
        fn takes_dyn<R: Rng + RngExt + ?Sized>(rng: &mut R) -> f64 {
            rng.random_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(4);
        let v = takes_dyn(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
