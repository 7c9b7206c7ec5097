//! Seeded, splittable pseudo-random number generation.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — fast, high
//! quality for simulation workloads, and fully deterministic from a `u64`
//! seed. Streams can be *split* ([`SimRng::split`], [`derive_seed`]) so a
//! campaign seed fans out into statistically independent per-job child
//! seeds; this is what makes [`crate::pool::Pool::par_map_seeded`] results
//! bit-identical at any thread count.

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence; used for seeding and for stateless
/// seed derivation.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a stream index.
///
/// The map is a pure function, so job `i` of a campaign always receives
/// the same seed no matter which worker thread runs it, in which order.
///
/// # Examples
///
/// ```
/// use sim_rt::rng::derive_seed;
///
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
/// assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
/// assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
/// ```
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut state = master ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
    let a = splitmix64(&mut state);
    let b = splitmix64(&mut state);
    a ^ b.rotate_left(32)
}

/// FNV-1a 64-bit hash of a byte string — the one name-to-`u64` mixer
/// shared by test seeds, trace roots and defense-layer streams. Stable
/// across platforms and runs.
///
/// # Examples
///
/// ```
/// use sim_rt::rng::fnv1a64;
///
/// // The standard FNV-1a-64 test vectors.
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Minimal random-source trait: everything derives from `next_u64`.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.next_f64() < p
    }

    /// An unbiased uniform integer in `[0, n)` (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below needs a non-empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform draw from a half-open range, e.g. `0..10usize` or
    /// `0.0f64..1.0`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<U: UniformRange>(&mut self, range: U) -> U::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// One draw from `N(mean, std_dev^2)` via the Box-Muller transform
    /// (the second transform output is discarded; stateless by design).
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64
    where
        Self: Sized,
    {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        let u1 = self.gen_range(f64::MIN_POSITIVE..1.0);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// The runtime's concrete generator: xoshiro256++.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose full 256-bit state is expanded from
    /// `seed` through SplitMix64 (never all-zero).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        SimRng {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    /// Splits off an independent child generator, advancing `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_rt::rng::{Rng, SimRng};
    ///
    /// let mut parent = SimRng::seed_from_u64(1);
    /// let mut a = parent.split();
    /// let mut b = parent.split();
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// ```
    pub fn split(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64() ^ 0x6C62_272E_07BB_0142)
    }
}

impl Rng for SimRng {
    // Inlined across crates: the jitter kernel draws two of these per
    // Box-Muller pair, and a call per draw costs more than the draw.
    #[inline]
    fn next_u64(&mut self) -> u64 {
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

/// A type a uniform sample can be drawn from (half-open numeric ranges).
pub trait UniformRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample_from<R: Rng>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.gen_below(span) as $t
            }
        }
    )*};
}
impl_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.gen_below(span) as $t)
            }
        }
    )*};
}
impl_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_uniform_unsigned_inclusive {
    ($($t:ty),*) => {$(
        impl UniformRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.gen_below(span + 1) as $t
            }
        }
    )*};
}
impl_uniform_unsigned_inclusive!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed_inclusive {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as $u).wrapping_sub(start as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.gen_below(span + 1) as $t)
            }
        }
    )*};
}
impl_uniform_signed_inclusive!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let x = self.start + (self.end - self.start) * rng.next_f64() as $t;
                // Guard against rounding up to the excluded endpoint.
                if x < self.end { x } else { self.start }
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// Fisher-Yates shuffle as a slice extension, mirroring the call shape of
/// `rand::seq::SliceRandom`.
///
/// # Examples
///
/// ```
/// use sim_rt::rng::{SimRng, SliceShuffle};
///
/// let mut xs: Vec<u32> = (0..100).collect();
/// let mut rng = SimRng::seed_from_u64(3);
/// xs.shuffle(&mut rng);
/// assert_ne!(xs, (0..100).collect::<Vec<u32>>());
/// ```
pub trait SliceShuffle {
    /// Uniformly permutes the slice in place.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceShuffle for [T] {
    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_below_is_unbiased_over_small_modulus() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.gen_below(3) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn gen_range_respects_bounds_for_every_numeric_kind() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1_000 {
            assert!((3..17u8).contains(&rng.gen_range(3..17u8)));
            assert!((0..9usize).contains(&rng.gen_range(0..9usize)));
            let i = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&i));
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn signed_range_spanning_zero_hits_both_signs() {
        let mut rng = SimRng::seed_from_u64(6);
        let draws: Vec<i64> = (0..200).map(|_| rng.gen_range(-100..100i64)).collect();
        assert!(draws.iter().any(|&x| x < 0));
        assert!(draws.iter().any(|&x| x >= 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let _ = rng.gen_range(5..5u32);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SimRng::seed_from_u64(8);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..50).collect();
        let mut rng = SimRng::seed_from_u64(9);
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn split_streams_are_reproducible() {
        let mut p1 = SimRng::seed_from_u64(11);
        let mut p2 = SimRng::seed_from_u64(11);
        assert_eq!(p1.split(), p2.split());
        assert_eq!(p1.split(), p2.split());
    }

    #[test]
    fn derive_seed_differs_from_identity() {
        assert_ne!(derive_seed(0, 0), 0);
        assert_ne!(derive_seed(1, 0), derive_seed(0, 1));
    }
}
