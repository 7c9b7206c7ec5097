use sim_rt::rng::{Rng, SimRng};

/// Deterministic stateless hash of a `(seed, stream, bucket)` triple to a
/// uniform value in `[0, 1)`.
///
/// Loads use this to derive time-bucketed pseudo-random activity while
/// remaining pure functions of simulation time (the same query always
/// returns the same answer, regardless of query order).
///
/// # Examples
///
/// ```
/// let a = zynq_soc::hash01(1, 2, 3);
/// assert_eq!(a, zynq_soc::hash01(1, 2, 3));
/// assert!((0.0..1.0).contains(&a));
/// ```
pub fn hash01(seed: u64, stream: u64, bucket: u64) -> f64 {
    hash01_finish(hash01_stream_key(seed, stream), hash01_bucket_term(bucket))
}

/// The `(seed, stream)` half of [`hash01`]'s input mixing.
///
/// A load that hashes many streams against the same bucket (or the same
/// stream against many buckets) can precompute its keys once and combine
/// them with [`hash01_bucket_term`] via [`hash01_finish`]; the result is
/// bit-for-bit identical to calling [`hash01`].
#[inline]
pub fn hash01_stream_key(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
}

/// The bucket half of [`hash01`]'s input mixing; see [`hash01_stream_key`].
#[inline]
pub fn hash01_bucket_term(bucket: u64) -> u64 {
    bucket.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Finalizes a [`hash01_stream_key`] / [`hash01_bucket_term`] pair into the
/// same uniform `[0, 1)` value [`hash01`] produces.
#[inline]
pub fn hash01_finish(stream_key: u64, bucket_term: u64) -> f64 {
    let mut z = stream_key ^ bucket_term;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // `z >> 11` fits in 53 bits, so the signed cast converts the same
    // value — and i64 -> f64 is a single instruction on x86-64, where the
    // unsigned conversion lowers to a multi-op sequence. This finisher
    // runs once per (group, bucket) in every conversion's jitter walk.
    ((z >> 11) as i64) as f64 / (1u64 << 53) as f64
}

/// Deterministic stateless standard-normal hash of a `(seed, stream,
/// bucket)` triple — the Gaussian counterpart of [`hash01`].
///
/// Box-Muller over two adjacent [`hash01`] buckets (`2*bucket` and
/// `2*bucket + 1`), so distinct buckets draw from disjoint uniforms and
/// the same query always returns the same answer regardless of query
/// order. Defense layers use this to inject per-window noise that is a
/// pure function of the window index.
///
/// # Examples
///
/// ```
/// let z = zynq_soc::hash_gauss(1, 2, 3);
/// assert_eq!(z, zynq_soc::hash_gauss(1, 2, 3));
/// assert!(z.is_finite());
/// ```
pub fn hash_gauss(seed: u64, stream: u64, bucket: u64) -> f64 {
    let u1 = hash01(seed, stream, bucket.wrapping_mul(2)).max(f64::MIN_POSITIVE);
    let u2 = hash01(seed, stream, bucket.wrapping_mul(2).wrapping_add(1));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The `(cos, sin)` Box-Muller pair of two uniforms, through libm: the
/// reference every normal of a [`GaussianNoise`] equals.
fn exact_box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Proven bound on `|ẑ − z|` between [`approx_box_muller`] and
/// [`exact_box_muller`] for `u1 >= JITTER_U1_MIN` (DESIGN.md, "Batched
/// jitter kernel": the error budget sums to about 1e-13).
const JITTER_DELTA: f64 = 1e-11;
/// `2^-53`: the smallest nonzero `u1` `gen_range` yields. Below it (only
/// `f64::MIN_POSITIVE`) `r` exceeds the bound's `sqrt(106 ln 2)`.
const JITTER_U1_MIN: f64 = 1.0 / (1u64 << 53) as f64;
/// Box-Muller pairs per [`GaussianNoise::round_jittered`] batch.
const JITTER_PAIRS: usize = 64;
/// `1.5 * 2^52`: adding and subtracting it rounds to the nearest integer
/// (ties to even) for `|x| < 2^51`.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// Candidates at or past `2^50` take the exact path.
const JITTER_FAST_LIMIT: f64 = (1u64 << 50) as f64;

/// The `(cos, sin)` Box-Muller pair from branch-free polynomials, within
/// [`JITTER_DELTA`] of [`exact_box_muller`]; NaN for `u1 <
/// JITTER_U1_MIN`, which sends both readouts down the exact path.
#[inline(always)]
fn approx_box_muller(u1: f64, u2: f64) -> (f64, f64) {
    // ln 2 split so `e * LN2_HI` is exact for |e| < 2^11 (fdlibm).
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    // pi/2 split so `q * PIO2_HI` is exact for q <= 4 (fdlibm).
    const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
    const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
    const TWO52: f64 = 4_503_599_627_370_496.0;
    const MANTISSA: u64 = (1 << 52) - 1;

    // ln u1 = e ln 2 + ln m with m in [sqrt(1/2), sqrt(2)].
    let bits = u1.to_bits();
    let m = f64::from_bits((bits & MANTISSA) | 1.0f64.to_bits());
    let big = m > std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m } else { m };
    // The biased exponent as an exact f64, without an int->float convert.
    let e = f64::from_bits(TWO52.to_bits() | ((bits >> 52) + u64::from(big))) - (TWO52 + 1023.0);
    // ln m = 2 atanh(s) = 2 (s + s^3/3 + ... + s^15/15) + R, with |s| <=
    // 0.1716 and |R| <= 2 |s|^17 / (17 (1 - s^2)) <= 1.2e-14.
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = 2.0 / 15.0;
    let p = p * s2 + 2.0 / 13.0;
    let p = p * s2 + 2.0 / 11.0;
    let p = p * s2 + 2.0 / 9.0;
    let p = p * s2 + 2.0 / 7.0;
    let p = p * s2 + 2.0 / 5.0;
    let p = p * s2 + 2.0 / 3.0;
    let ln_m = s * (2.0 + s2 * p);
    let ln_u1 = e * LN2_HI + (e * LN2_LO + ln_m);
    let r = (-2.0 * ln_u1).sqrt();
    let r = if u1 >= JITTER_U1_MIN { r } else { f64::NAN };

    // theta = q pi/2 + y with |y| <= pi/4 (Cody-Waite, exact first step).
    let theta = 2.0 * std::f64::consts::PI * u2;
    let qm = theta * std::f64::consts::FRAC_2_PI + ROUND_MAGIC;
    let quadrant = qm.to_bits();
    let q = qm - ROUND_MAGIC;
    let y = (theta - q * PIO2_HI) - q * PIO2_LO;
    let y2 = y * y;
    // Taylor through y^15 (|R| <= |y|^17/17! <= 4.6e-17) and y^16
    // (|R| <= y^18/18! <= 2.1e-18).
    let sp = 1.0 / 1_307_674_368_000.0;
    let sp = sp * y2 - 1.0 / 6_227_020_800.0;
    let sp = sp * y2 + 1.0 / 39_916_800.0;
    let sp = sp * y2 - 1.0 / 362_880.0;
    let sp = sp * y2 + 1.0 / 5_040.0;
    let sp = sp * y2 - 1.0 / 120.0;
    let sp = sp * y2 + 1.0 / 6.0;
    let sin_y = y - y * y2 * sp;
    let cp = 1.0 / 20_922_789_888_000.0;
    let cp = cp * y2 - 1.0 / 87_178_291_200.0;
    let cp = cp * y2 + 1.0 / 479_001_600.0;
    let cp = cp * y2 - 1.0 / 3_628_800.0;
    let cp = cp * y2 + 1.0 / 40_320.0;
    let cp = cp * y2 - 1.0 / 720.0;
    let cp = cp * y2 + 1.0 / 24.0;
    let cos_y = 1.0 - 0.5 * y2 + y2 * y2 * cp;
    // Quadrant q (mod 4): odd swaps sin and cos; cos is negated in
    // quadrants 1 and 2, sin in 2 and 3.
    let (c, s) = if quadrant & 1 == 1 {
        (sin_y, cos_y)
    } else {
        (cos_y, sin_y)
    };
    let c = f64::from_bits(c.to_bits() ^ ((quadrant.wrapping_add(1) & 2) << 62));
    let s = f64::from_bits(s.to_bits() ^ ((quadrant & 2) << 62));
    (r * c, r * s)
}

/// `round(base + sigma * z)` from the polynomial `z_hat`, or `None` when
/// the candidate lies within `sigma * JITTER_DELTA` plus a few ulp of a
/// half-integer (or outside `|x| < 2^50`, or is NaN), where the exact
/// value could round the other way.
#[inline(always)]
fn round_guarded(base: f64, sigma: f64, z_hat: f64) -> Option<f64> {
    // 2^-50: eight ulp at 1, covering the roundings of both candidates.
    const GUARD_ULPS: f64 = 1.0 / (1u64 << 50) as f64;
    let x = base + sigma * z_hat;
    let margin = sigma * JITTER_DELTA + (1.0 + x.abs() + sigma * z_hat.abs()) * GUARD_ULPS;
    let n = (x + ROUND_MAGIC) - ROUND_MAGIC;
    // `x - n` is exact here, so `0.5 - |x - n|` is the distance to the
    // nearest half-integer; NaN fails every comparison.
    let clear = 0.5 - (x - n).abs() > margin && x.abs() < JITTER_FAST_LIMIT && margin < 0.25;
    clear.then_some(n)
}

/// Deterministic Gaussian noise source (Box-Muller over a seeded PRNG).
///
/// Every stochastic component of the platform (ADC noise, thermal drift,
/// scheduler jitter, per-instance process variation) owns one of these, so
/// an experiment is exactly reproducible from its seed.
///
/// # Examples
///
/// ```
/// use zynq_soc::GaussianNoise;
///
/// let mut a = GaussianNoise::new(42);
/// let mut b = GaussianNoise::new(42);
/// assert_eq!(a.sample(0.0, 1.0), b.sample(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    rng: SimRng,
    cached: Option<f64>,
}

impl GaussianNoise {
    /// Creates a noise source from a seed.
    pub fn new(seed: u64) -> Self {
        GaussianNoise {
            rng: SimRng::seed_from_u64(seed),
            cached: None,
        }
    }

    /// Draws one sample from `N(mean, std_dev^2)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn sample(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard()
    }

    /// Draws one standard-normal sample.
    pub fn standard(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        // Box-Muller transform: two uniforms -> two independent normals.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let (c, s) = exact_box_muller(u1, u2);
        self.cached = Some(s);
        c
    }

    /// Counter readouts under Gaussian jitter, batched: for each base,
    /// `out[i]` is exactly `(bases[i] + self.sample(0.0, sigma)).round()
    /// .clamp(lo, hi) as u32`, drawn from the same `u64`s in the same
    /// order as that scalar loop (a pending Box-Muller spare is consumed
    /// first, and an odd tail leaves one pending), so the stream ends
    /// where the loop would leave it.
    ///
    /// Each pair of normals comes from branch-free `ln`/`sin`/`cos`
    /// polynomials whose distance from the libm value is at most a proven
    /// `δ = 1e-11`. A readout takes the polynomial value only when the
    /// candidate lies more than `sigma * δ` plus a few ulp from every
    /// half-integer, so both round to the same integer; the
    /// rest (and `u1 < 2^-53`, where `r` leaves the bound's range) take
    /// the libm expression, counted in `noise.jitter.exact_fallbacks`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative, `lo > hi`, either bound is NaN, or
    /// `bases` and `out` differ in length.
    ///
    /// # Examples
    ///
    /// ```
    /// use zynq_soc::GaussianNoise;
    ///
    /// let bases = [200.2, 199.7, 201.4];
    /// let mut batched = GaussianNoise::new(5);
    /// let mut out = [0u32; 3];
    /// batched.round_jittered(&bases, 0.5, 0.0, 255.0, &mut out);
    /// let mut scalar = GaussianNoise::new(5);
    /// for (&b, &o) in bases.iter().zip(&out) {
    ///     assert_eq!((b + scalar.sample(0.0, 0.5)).round().clamp(0.0, 255.0) as u32, o);
    /// }
    /// ```
    pub fn round_jittered(&mut self, bases: &[f64], sigma: f64, lo: f64, hi: f64, out: &mut [u32]) {
        assert!(sigma >= 0.0, "standard deviation must be non-negative");
        assert!(lo <= hi, "clamp bounds must be ordered and not NaN");
        assert_eq!(bases.len(), out.len(), "one output per base");
        let exact = |z: f64, base: f64| (base + (0.0 + sigma * z)).round().clamp(lo, hi) as u32;
        let mut i = 0;
        if self.cached.is_some() && !bases.is_empty() {
            out[0] = exact(self.standard(), bases[0]);
            i = 1;
        }
        let mut fallbacks = 0u64;
        let (mut u1, mut u2) = ([0.0; JITTER_PAIRS], [0.0; JITTER_PAIRS]);
        let (mut zc, mut zs) = ([0.0; JITTER_PAIRS], [0.0; JITTER_PAIRS]);
        while bases.len() - i >= 2 {
            let pairs = ((bases.len() - i) / 2).min(JITTER_PAIRS);
            for p in 0..pairs {
                // The draws of `standard`, in its order.
                u1[p] = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                u2[p] = self.rng.gen_range(0.0..1.0);
            }
            for p in 0..pairs {
                (zc[p], zs[p]) = approx_box_muller(u1[p], u2[p]);
            }
            let bases = bases[i..i + 2 * pairs].chunks_exact(2);
            let outs = out[i..i + 2 * pairs].chunks_exact_mut(2);
            for (p, (b, o)) in bases.zip(outs).enumerate() {
                for (k, z_hat) in [zc[p], zs[p]].into_iter().enumerate() {
                    o[k] = match round_guarded(b[k], sigma, z_hat) {
                        Some(n) => n.clamp(lo, hi) as u32,
                        None => {
                            fallbacks += 1;
                            let (c, s) = exact_box_muller(u1[p], u2[p]);
                            exact(if k == 0 { c } else { s }, b[k])
                        }
                    };
                }
            }
            i += 2 * pairs;
        }
        if i < bases.len() {
            // An odd tail draws one pair and leaves its spare pending.
            out[i] = exact(self.standard(), bases[i]);
        }
        if fallbacks > 0 {
            obs::counter!("noise.jitter.exact_fallbacks").add(fallbacks);
        }
    }

    /// Draws a uniform sample from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Draws a uniform integer from `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_hash_equals_composed_hash() {
        // The staged form exists so hot loops can hoist the per-stream and
        // per-bucket halves; it must be the same function bit for bit.
        for (seed, stream, bucket) in [
            (0, 0, 0),
            (1, 2, 3),
            (42, 159, u64::MAX),
            (u64::MAX, 7, 100),
        ] {
            assert_eq!(
                hash01(seed, stream, bucket).to_bits(),
                hash01_finish(hash01_stream_key(seed, stream), hash01_bucket_term(bucket))
                    .to_bits()
            );
        }
    }

    #[test]
    fn hash_gauss_is_stateless_and_plausibly_normal() {
        assert_eq!(
            hash_gauss(9, 4, 100).to_bits(),
            hash_gauss(9, 4, 100).to_bits()
        );
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|b| hash_gauss(123, 7, b)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        // Adjacent buckets must not share uniforms.
        assert_ne!(hash_gauss(1, 1, 10), hash_gauss(1, 1, 11));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = GaussianNoise::new(7);
        let mut b = GaussianNoise::new(7);
        for _ in 0..100 {
            assert_eq!(a.standard(), b.standard());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = GaussianNoise::new(1);
        let mut b = GaussianNoise::new(2);
        let same = (0..10).filter(|_| a.standard() == b.standard()).count();
        assert!(same < 10);
    }

    #[test]
    fn sample_statistics_are_plausible() {
        let mut g = GaussianNoise::new(123);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn zero_std_returns_mean() {
        let mut g = GaussianNoise::new(3);
        assert_eq!(g.sample(1.5, 0.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_panics() {
        let mut g = GaussianNoise::new(3);
        let _ = g.sample(0.0, -1.0);
    }

    /// The scalar loop [`GaussianNoise::round_jittered`] must reproduce.
    fn scalar_readouts(g: &mut GaussianNoise, bases: &[f64], sigma: f64, hi: f64) -> Vec<u32> {
        bases
            .iter()
            .map(|&b| (b + g.sample(0.0, sigma)).round().clamp(0.0, hi) as u32)
            .collect()
    }

    fn kernel_readouts(g: &mut GaussianNoise, bases: &[f64], sigma: f64, hi: f64) -> Vec<u32> {
        let mut out = vec![0; bases.len()];
        g.round_jittered(bases, sigma, 0.0, hi, &mut out);
        out
    }

    /// Both sources sit at the same stream position with the same spare.
    fn assert_same_state(a: &mut GaussianNoise, b: &mut GaussianNoise) {
        assert_eq!(a.cached.map(f64::to_bits), b.cached.map(f64::to_bits));
        for _ in 0..3 {
            assert_eq!(a.standard().to_bits(), b.standard().to_bits());
        }
    }

    #[test]
    fn kernel_matches_scalar_for_odd_lengths_and_pending_spares() {
        let counts = f64::from(u32::MAX);
        for sigma in [0.0, 0.5, 1e3] {
            for len in [0usize, 1, 2, 3, 7, 128, 129, 255, 1001] {
                for spare_at_entry in [false, true] {
                    let mut a = GaussianNoise::new(len as u64 * 31 + 7);
                    if spare_at_entry {
                        a.standard();
                    }
                    let mut b = a.clone();
                    let bases: Vec<f64> = (0..len)
                        .map(|i| 200.0 + (i as f64 * 0.37).sin() * 3.0)
                        .collect();
                    assert_eq!(
                        kernel_readouts(&mut a, &bases, sigma, counts),
                        scalar_readouts(&mut b, &bases, sigma, counts),
                        "sigma {sigma} len {len} spare {spare_at_entry}"
                    );
                    // An odd draw count leaves the spare pending at exit.
                    let odd = (len + usize::from(spare_at_entry)) % 2 == 1;
                    assert_eq!(
                        a.cached.is_some(),
                        odd && len > 0 || spare_at_entry && len == 0
                    );
                    assert_same_state(&mut a, &mut b);
                }
            }
        }
    }

    #[test]
    fn kernel_interleaves_with_scalar_draws() {
        let mut a = GaussianNoise::new(99);
        let mut b = GaussianNoise::new(99);
        let bases: Vec<f64> = (0..300).map(|i| 150.0 + i as f64 * 0.013).collect();
        for (step, len) in [5usize, 1, 64, 0, 129, 2, 33].into_iter().enumerate() {
            for _ in 0..step % 3 {
                assert_eq!(a.standard().to_bits(), b.standard().to_bits());
            }
            let slice = &bases[..len];
            assert_eq!(
                kernel_readouts(&mut a, slice, 0.5, 255.0),
                scalar_readouts(&mut b, slice, 0.5, 255.0)
            );
        }
        assert_same_state(&mut a, &mut b);
    }

    #[test]
    fn half_integer_bases_take_the_exact_path() {
        let fallbacks = obs::counter!("noise.jitter.exact_fallbacks");
        // sigma 0 lands every candidate on its half-integer; a tiny sigma
        // keeps it inside the guard band.
        for sigma in [0.0, 1e-15] {
            let before = fallbacks.get();
            let bases: Vec<f64> = (0..257).map(|i| 100.5 + i as f64).collect();
            let mut a = GaussianNoise::new(4);
            let mut b = a.clone();
            assert_eq!(
                kernel_readouts(&mut a, &bases, sigma, 1e6),
                scalar_readouts(&mut b, &bases, sigma, 1e6)
            );
            // All but the odd tail (drawn by `standard`) fell back.
            assert!(fallbacks.get() - before >= 256, "sigma {sigma}");
            assert_same_state(&mut a, &mut b);
        }
        // Negative half-integers round away from zero, then clamp to 0.
        let bases = [-0.5, -1.5, 0.5, 1.5];
        let mut a = GaussianNoise::new(5);
        let mut b = a.clone();
        assert_eq!(
            kernel_readouts(&mut a, &bases, 0.0, 9.0),
            scalar_readouts(&mut b, &bases, 0.0, 9.0)
        );
    }

    #[test]
    fn guard_band_covers_a_polynomial_straddling_a_half_integer() {
        // Find a stream whose first pair misses libm's by several ulp at
        // 0.5 in both components, and place each base so the two
        // candidates fall on opposite sides of 0.5: only the guard keeps
        // the readouts exact.
        let (seed, exact, approx) = (0u64..)
            .find_map(|seed| {
                let mut rng = SimRng::seed_from_u64(seed);
                let u1 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2 = rng.gen_range(0.0..1.0);
                let (z, z_hat) = (exact_box_muller(u1, u2), approx_box_muller(u1, u2));
                let far = (z_hat.0 - z.0).abs().min((z_hat.1 - z.1).abs()) > 1e-15;
                far.then_some((seed, [z.0, z.1], [z_hat.0, z_hat.1]))
            })
            .unwrap();
        let bases: [f64; 2] = std::array::from_fn(|k| 0.5 - (exact[k] + approx[k]) / 2.0);
        for k in 0..2 {
            let (x, x_hat) = (bases[k] + exact[k], bases[k] + approx[k]);
            assert_ne!(x.round(), x_hat.round(), "seed {seed} component {k}");
        }
        let mut a = GaussianNoise::new(seed);
        let mut b = a.clone();
        assert_eq!(
            kernel_readouts(&mut a, &bases, 1.0, 9.0),
            scalar_readouts(&mut b, &bases, 1.0, 9.0)
        );
    }

    #[test]
    fn kernel_matches_tdc_style_clamp() {
        // Bases past both ends of a 256-tap line, with wide jitter.
        let bases: Vec<f64> = (0..999).map(|i| -40.0 + i as f64 * 0.33).collect();
        for sigma in [0.6, 25.0] {
            let mut a = GaussianNoise::new(12);
            let mut b = a.clone();
            let got = kernel_readouts(&mut a, &bases, sigma, 256.0);
            assert_eq!(got, scalar_readouts(&mut b, &bases, sigma, 256.0));
            assert!(got.contains(&0) && got.contains(&256));
            assert_same_state(&mut a, &mut b);
        }
    }

    #[test]
    fn kernel_handles_non_finite_bases() {
        let bases = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, 3.0];
        let mut a = GaussianNoise::new(8);
        let mut b = a.clone();
        assert_eq!(
            kernel_readouts(&mut a, &bases, 0.5, 1e9),
            scalar_readouts(&mut b, &bases, 0.5, 1e9)
        );
    }

    #[test]
    fn polynomial_pairs_stay_well_inside_the_bound() {
        // 2^20 pairs (2^21 normals) of the real stream, plus the u1/u2
        // extremes the stream rarely reaches.
        let mut rng = SimRng::seed_from_u64(2025);
        let mut worst = 0.0f64;
        let mut check = |u1: f64, u2: f64| {
            let (c, s) = exact_box_muller(u1, u2);
            let (ch, sh) = approx_box_muller(u1, u2);
            worst = worst.max((ch - c).abs()).max((sh - s).abs());
        };
        for _ in 0..1 << 20 {
            let u1 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2 = rng.gen_range(0.0..1.0);
            check(u1, u2);
        }
        let top = 1.0 - JITTER_U1_MIN;
        for u1 in [
            JITTER_U1_MIN,
            2.0 * JITTER_U1_MIN,
            0.5,
            std::f64::consts::FRAC_1_SQRT_2,
            top,
        ] {
            for k in 0..=64 {
                check(u1, (k as f64 / 64.0).min(top));
            }
        }
        assert!(
            worst <= JITTER_DELTA / 10.0,
            "worst |z_hat - z| = {worst:e}"
        );
        // Past the bound's range the pair is NaN, forcing the exact path.
        assert!(approx_box_muller(f64::MIN_POSITIVE, 0.3).0.is_nan());
    }

    sim_rt::prop_check! {
        fn kernel_matches_scalar_on_random_batches(
            seed in 0u64..1_000_000,
            len in 0usize..300,
            spare in 0usize..2,
            center in -5.0f64..300.0,
            sigma in 0.0f64..4.0
        ) {
            let mut a = GaussianNoise::new(seed);
            if spare == 1 {
                a.standard();
            }
            let mut b = a.clone();
            let bases: Vec<f64> = (0..len).map(|i| center + (i % 7) as f64 * 0.25).collect();
            assert_eq!(
                kernel_readouts(&mut a, &bases, sigma, 300.0),
                scalar_readouts(&mut b, &bases, sigma, 300.0)
            );
            assert_same_state(&mut a, &mut b);
        }

        fn uniform_respects_bounds(seed in 0u64..1000, lo in -10.0f64..0.0, width in 0.1f64..10.0) {
            let mut g = GaussianNoise::new(seed);
            let hi = lo + width;
            for _ in 0..20 {
                let x = g.uniform(lo, hi);
                assert!(x >= lo && x < hi);
            }
        }

        fn below_respects_bound(seed in 0u64..1000, n in 1usize..100) {
            let mut g = GaussianNoise::new(seed);
            for _ in 0..20 {
                assert!(g.below(n) < n);
            }
        }
    }
}
