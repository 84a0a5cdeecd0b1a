//! Offline shim for the `rand` API subset this workspace uses.
//!
//! The real `rand` crate is unavailable in this build environment, so this
//! shim provides compatible `RngCore` / `Rng` / `SeedableRng` traits and a
//! `rngs::StdRng` built on the xoshiro256++ generator (seeded through
//! SplitMix64, the same construction `rand_xoshiro` uses). Determinism is
//! what the simulation cares about — every experiment seeds its own
//! generator — so a different underlying stream than upstream `StdRng` is
//! fine as long as it is stable across runs.

#![forbid(unsafe_code)]

use std::fmt;

/// Error type produced by fallible RNG operations. The shim's generators
/// are infallible; the type exists for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rng error")
    }
}

impl std::error::Error for Error {}

/// The core trait every random-number generator implements.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    /// Fallible variant of [`RngCore::fill_bytes`]; never fails here.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// Types that can be sampled uniformly from an RNG's raw bit stream — the
/// shim's stand-in for sampling from `rand`'s `Standard` distribution.
pub trait StandardSample {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($ty:ty),*) => {$(
        impl StandardSample for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Convenience methods layered on any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }

    /// Draws a value uniformly from `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T: UniformSample, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value uniformly from this range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformSample> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: UniformSample + InclusiveUpperBound> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_range(rng, lo, hi.one_above())
    }
}

/// Integer types whose inclusive upper bound can be shifted to exclusive.
pub trait InclusiveUpperBound: Sized {
    /// `self + 1`, used to convert `..=hi` into `..hi + 1`.
    fn one_above(self) -> Self;
}

macro_rules! inclusive_upper {
    ($($ty:ty),*) => {$(
        impl InclusiveUpperBound for $ty {
            fn one_above(self) -> Self {
                self.checked_add(1).expect("gen_range(..=MAX) is unsupported by the shim")
            }
        }
    )*};
}

inclusive_upper!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<R: RngCore + ?Sized> Rng for R {}

/// Types that support uniform sampling from a half-open range.
pub trait UniformSample: Sized {
    /// Draws a value uniformly from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_int {
    ($($ty:ty),*) => {$(
        impl UniformSample for $ty {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range requires a non-empty range");
                let span = (hi as i128 - lo as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $ty
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformSample for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Namespace module mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A deterministic xoshiro256++ generator standing in for `StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the 64-bit seed into the full 256-bit state with
            // SplitMix64, as recommended by the xoshiro authors.
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_are_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(-5i32..17);
            assert!((-5..17).contains(&v));
            let u = rng.gen_range(3usize..4);
            assert_eq!(u, 3);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert!(rng.try_fill_bytes(&mut buf).is_ok());
    }

    #[test]
    fn dyn_rng_core_supports_gen() {
        let mut rng = StdRng::seed_from_u64(4);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let x: f64 = dyn_rng.gen();
        assert!((0.0..1.0).contains(&x));
    }
}
