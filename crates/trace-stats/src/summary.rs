use crate::{Result, StatsError};

/// Descriptive statistics over a finite sample set.
///
/// Used throughout the reproduction wherever the paper takes "the mean of
/// these samples as the final value" (Section IV-A) or inspects a
/// distribution (Figure 4).
///
/// # Examples
///
/// ```
/// use trace_stats::Summary;
///
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(s.count, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance (n-1 denominator); 0 for a single sample.
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (average of the two central order statistics for even counts).
    pub median: f64,
}

impl Summary {
    /// Computes descriptive statistics for `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        let mut acc = OnlineStats::new();
        for &x in samples {
            acc.push(x);
        }
        // What a stable sort by `partial_cmp` would put at the ends: the
        // first minimum in input order and the last maximum (only ±0.0
        // compare equal with different bits). Like that sort, any NaN
        // panics once there is something to compare it with.
        let (mut min, mut max) = (samples[0], samples[0]);
        let mut nan = false;
        for &x in &samples[1..] {
            nan |= x.is_nan();
            if x < min {
                min = x;
            }
            if x >= max {
                max = x;
            }
        }
        assert!(
            !(nan || samples.len() > 1 && samples[0].is_nan()),
            "samples must not contain NaN"
        );
        Ok(Summary {
            count: acc.count(),
            mean: acc.mean(),
            variance: acc.variance(),
            std_dev: acc.variance().sqrt(),
            min,
            max,
            median: median(samples),
        })
    }

    /// Peak-to-peak range (`max - min`).
    ///
    /// This is the "variation" magnitude the paper compares between the
    /// hwmon current channel and the RO baseline (the 261x factor).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }

    /// Coefficient of variation (`std_dev / mean`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroVariance`] if the mean is zero.
    pub fn coefficient_of_variation(&self) -> Result<f64> {
        if self.mean == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok(self.std_dev / self.mean)
    }

    /// Relative peak-to-peak variation (`range / |mean|`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroVariance`] if the mean is zero.
    pub fn relative_range(&self) -> Result<f64> {
        if self.mean == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok(self.range() / self.mean.abs())
    }
}

/// The median of NaN-free `samples`, bit-identical to reading it off a
/// stable sort by `partial_cmp`: the middle order statistics come from
/// selection, which agrees with the sort on every value except ±0.0 (equal
/// under `partial_cmp`, so the sort's input-order tie-break picks the
/// sign). A selected zero falls back to the stable sort.
fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    let hi = n / 2;
    let mut scratch = samples.to_vec();
    let (left, &mut mid, _) = scratch.select_nth_unstable_by(hi, f64::total_cmp);
    let below = if n.is_multiple_of(2) {
        left.iter().copied().max_by(f64::total_cmp)
    } else {
        None
    };
    if mid == 0.0 || below == Some(0.0) {
        scratch.copy_from_slice(samples);
        scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        return middle(&scratch);
    }
    match below {
        Some(lo) => (lo + mid) / 2.0,
        None => mid,
    }
}

/// The median of sorted, non-empty `sorted` (the mean of the two central
/// order statistics for even counts).
fn middle(sorted: &[f64]) -> f64 {
    let hi = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[hi]
    } else {
        (sorted[hi - 1] + sorted[hi]) / 2.0
    }
}

/// Numerically stable single-pass accumulator (Welford's algorithm).
///
/// Suitable for streaming sensor samples without buffering the full trace.
///
/// # Examples
///
/// ```
/// use trace_stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), 5.0);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean; 0 before any sample is pushed.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (n denominator); 0 before any sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen, or `None` before any sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` before any sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Computes the `q`-quantile (0 <= q <= 1) of `samples` by linear
/// interpolation between order statistics.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] for empty input and
/// [`StatsError::InvalidParameter`] when `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(trace_stats::quantile(&xs, 0.5).unwrap(), 3.0);
/// ```
pub fn quantile(samples: &[f64], q: f64) -> Result<f64> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile must be in [0, 1]"));
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-sort implementation `from_samples` replaced: the oracle
    /// its min, max and median must match bit for bit.
    fn sorted_summary(samples: &[f64]) -> Summary {
        let mut acc = OnlineStats::new();
        for &x in samples {
            acc.push(x);
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        Summary {
            count: acc.count(),
            mean: acc.mean(),
            variance: acc.variance(),
            std_dev: acc.variance().sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            median: middle(&sorted),
        }
    }

    fn bits(s: &Summary) -> [u64; 7] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.variance.to_bits(),
            s.std_dev.to_bits(),
            s.min.to_bits(),
            s.max.to_bits(),
            s.median.to_bits(),
        ]
    }

    #[test]
    fn signed_zeros_follow_the_stable_sort() {
        for xs in [
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![-0.0, 0.0, 0.0],
            vec![0.0, -0.0, 1.0, -0.0],
            vec![-1.0, 0.0, -0.0, 2.0],
            vec![-0.0],
        ] {
            let want = sorted_summary(&xs);
            assert_eq!(
                bits(&Summary::from_samples(&xs).unwrap()),
                bits(&want),
                "{xs:?}"
            );
        }
    }

    #[test]
    fn nan_panics_like_the_sort_once_there_are_two_samples() {
        for xs in [
            vec![f64::NAN, 1.0],
            vec![1.0, f64::NAN],
            vec![3.0, f64::NAN, 1.0, 2.0],
        ] {
            let caught = std::panic::catch_unwind(|| Summary::from_samples(&xs));
            let payload = caught.expect_err("NaN must panic");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "samples must not contain NaN", "{xs:?}");
        }
        // A lone NaN is never compared, so it passes through.
        let lone = Summary::from_samples(&[f64::NAN]).unwrap();
        assert!(lone.min.is_nan() && lone.max.is_nan() && lone.median.is_nan());
    }

    #[test]
    fn summary_of_single_sample() {
        let s = Summary::from_samples(&[42.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn summary_rejects_empty() {
        assert_eq!(Summary::from_samples(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn summary_even_count_median_interpolates() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 10.0]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn summary_variance_matches_textbook() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn relative_range_and_cv() {
        let s = Summary::from_samples(&[9.0, 10.0, 11.0]).unwrap();
        assert!((s.relative_range().unwrap() - 0.2).abs() < 1e-12);
        assert!(s.coefficient_of_variation().unwrap() > 0.0);
        let zero = Summary::from_samples(&[-1.0, 1.0]).unwrap();
        assert_eq!(zero.relative_range(), Err(StatsError::ZeroVariance));
    }

    #[test]
    fn online_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn online_merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantile_endpoints_are_min_max() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 5.0);
    }

    #[test]
    fn quantile_rejects_bad_inputs() {
        assert_eq!(quantile(&[], 0.5), Err(StatsError::Empty));
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    sim_rt::prop_check! {
        fn online_stats_match_summary(xs in sim_rt::check::vec_of(-1e6f64..1e6, 1..200)) {
            let mut acc = OnlineStats::new();
            for &x in &xs {
                acc.push(x);
            }
            let s = Summary::from_samples(&xs).unwrap();
            assert!((acc.mean() - s.mean).abs() < 1e-6);
            assert!((acc.variance() - s.variance).abs() / (1.0 + s.variance) < 1e-6);
            assert_eq!(acc.min().unwrap(), s.min);
            assert_eq!(acc.max().unwrap(), s.max);
        }

        fn quantile_is_monotone(xs in sim_rt::check::vec_of(-1e3f64..1e3, 2..100),
                                 a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let ql = quantile(&xs, lo).unwrap();
            let qh = quantile(&xs, hi).unwrap();
            assert!(ql <= qh + 1e-12);
        }

        fn selection_matches_the_sorted_oracle(
            picks in sim_rt::check::vec_of(0usize..7, 1..60),
            scale in -3.0f64..3.0
        ) {
            // A small value set forces duplicates and mixed ±0.0.
            let values = [-2.5, -0.0, 0.0, 1.0, scale, -scale, 7.25];
            let xs: Vec<f64> = picks.iter().map(|&i| values[i]).collect();
            let got = Summary::from_samples(&xs).unwrap();
            assert_eq!(bits(&got), bits(&sorted_summary(&xs)), "{xs:?}");
        }

        fn selection_matches_on_wide_samples(xs in sim_rt::check::vec_of(-1e6f64..1e6, 1..400)) {
            let got = Summary::from_samples(&xs).unwrap();
            assert_eq!(bits(&got), bits(&sorted_summary(&xs)));
        }

        fn mean_bounded_by_min_max(xs in sim_rt::check::vec_of(-1e6f64..1e6, 1..100)) {
            let s = Summary::from_samples(&xs).unwrap();
            assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        }
    }
}
