// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
// Test builds unwrap, expect and panic idiomatically.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! Seeded random streams for the CMOS biosensor array simulation.
//!
//! The reproduction's claims are seeded Monte-Carlo ensembles over die
//! mismatch and readout noise, so every random draw in the workspace must
//! be a pure function of a seed: the same die, scan or experiment table
//! comes out bit-identical on every run and every thread count. This
//! crate owns that contract:
//!
//! * [`SmallRng`] — the one generator: xoshiro256++ with SplitMix64 seed
//!   expansion, and the few draws the workspace makes from it. There is no
//!   unseeded constructor.
//! * [`stream_seed`] and the stream families built on it
//!   ([`channel_stream_seed`], [`conversion_stream_seed`]) — the seed of
//!   each per-worker stream as a pure function of (die seed, stream
//!   identity), so a scan fanned out over any number of threads draws the
//!   same numbers.
//! * Three normal samplers: the Marsaglia polar [`GaussianSampler`], the
//!   [`Ziggurat`] and the Box–Muller [`box_muller`]. Each keeps its own
//!   bits; the readout paths that use them are pinned to those bits by
//!   their outputs.

#![forbid(unsafe_code)]

mod normal;

pub use normal::{box_muller, GaussianSampler, Ziggurat};

use std::ops::Range;

/// The SplitMix64 increment (2⁶⁴/φ), also the stride between stream
/// indices in [`stream_seed`].
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective mix in which every input
/// bit affects every output bit.
fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, non-cryptographic generator: xoshiro256++ (Blackman &
/// Vigna), its 256-bit state expanded from a 64-bit seed by SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

// The draws are `#[inline]`: they run per sample inside other crates'
// scan loops, which cannot inline a non-generic function from here
// without it.
impl SmallRng {
    /// The generator seeded with `seed`: four consecutive SplitMix64
    /// outputs from it.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(GOLDEN_GAMMA);
            mix64(state)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision: the top 53 bits of
    /// one [`next_u64`](Self::next_u64).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `range` by a multiply-shift of one
    /// [`next_u64`](Self::next_u64); the bias is below 2⁻⁶⁴ per value. An
    /// empty range yields `range.start`.
    #[inline]
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        let span = range.end.saturating_sub(range.start) as u128;
        let draw = (u128::from(self.next_u64()) * span) >> 64;
        range.start + draw as usize
    }

    /// `true` with probability `p`, from one [`next_f64`](Self::next_f64):
    /// never for `p <= 0` or NaN, always for `p >= 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Seed of stream `index` in the family `salt` of the die `die_seed`: a
/// SplitMix64 finalizer over the three, so adjacent indices start their
/// [`SmallRng`]s in unrelated regions of the seed space.
pub fn stream_seed(die_seed: u64, salt: u64, index: u64) -> u64 {
    mix64(die_seed ^ salt ^ index.wrapping_mul(GOLDEN_GAMMA))
}

/// Salt of the neuro chip's frame-noise stream family, chosen so channel
/// streams cannot collide with the other per-die derived seeds
/// (`seed ^ 0x6A1` for gain maps, `seed ^ 0xBEEF` for offset maps).
const FRAME_STREAM_SALT: u64 = 0xF0F0;

/// Salt of the DNA chip's conversion-noise stream family.
const CONVERSION_STREAM_SALT: u64 = 0xD4A;

/// Seed of one neuro-chip output channel's frame-noise stream.
pub fn channel_stream_seed(die_seed: u64, channel: usize) -> u64 {
    stream_seed(die_seed, FRAME_STREAM_SALT, channel as u64)
}

/// Seed of one DNA-chip pixel's conversion-noise stream for one
/// conversion epoch (each array-wide conversion advances the epoch, so
/// repeated conversions draw fresh noise yet stay reproducible).
pub fn conversion_stream_seed(die_seed: u64, epoch: u64, pixel: usize) -> u64 {
    stream_seed(
        stream_seed(die_seed, CONVERSION_STREAM_SALT, epoch),
        CONVERSION_STREAM_SALT,
        pixel as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            SmallRng::seed_from_u64(1).next_u64(),
            SmallRng::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn f64_is_unit_uniform() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_range_hits_every_value_and_no_other() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let k = rng.gen_range(3..7);
            assert!((3..7).contains(&k), "{k}");
            seen[k - 3] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets hit: {seen:?}");
        assert_eq!(rng.gen_range(5..5), 5);
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!(
            (hits as f64 / 10_000.0 - 0.25).abs() < 0.02,
            "hits = {hits}"
        );
        assert!((0..100).all(|_| !rng.gen_bool(f64::NAN) && !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn channel_streams_do_not_collide_on_adjacent_indices() {
        let die = 0x0EE5_1281;
        let seeds: Vec<u64> = (0..16).map(|ch| channel_stream_seed(die, ch)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "channels {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn conversion_streams_differ_across_epochs_and_pixels() {
        let die = 0xD9A_C819;
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..8u64 {
            for pixel in 0..128usize {
                assert!(
                    seen.insert(conversion_stream_seed(die, epoch, pixel)),
                    "epoch {epoch} pixel {pixel} aliases an earlier stream"
                );
            }
        }
    }
}
