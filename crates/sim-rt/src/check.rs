//! Seeded randomized property checking — the runtime's replacement for
//! external property-testing frameworks.
//!
//! [`prop_check!`](crate::prop_check) expands each `fn name(arg in
//! strategy, ...) { body }` item into a `#[test]` that samples every
//! strategy `cases` times from a generator seeded by the test's name, so
//! failures reproduce exactly across runs and machines. On failure the
//! harness prints the sampled inputs before re-raising the panic.
//!
//! Strategies are plain values implementing [`Strategy`]: numeric
//! half-open ranges, tuples of strategies, and the [`vec_of`] /
//! [`btree_set_of`] collection combinators.
//!
//! # Examples
//!
//! ```
//! sim_rt::prop_check! {
//!     cases = 64;
//!
//!     fn abs_is_non_negative(x in -1e6f64..1e6) {
//!         assert!(x.abs() >= 0.0);
//!     }
//! }
//! # fn main() {}
//! ```

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::rng::{Rng, SimRng, UniformRange};

/// Default number of cases per property when `cases = N;` is not given.
pub const DEFAULT_CASES: usize = 64;

/// Number of cases to run: the explicit request, overridable globally via
/// the `SIM_RT_CHECK_CASES` env var (useful for a quick CI smoke or a
/// deep overnight soak).
pub fn cases(requested: usize) -> usize {
    std::env::var("SIM_RT_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(requested)
}

/// Deterministic per-test seed: FNV-1a over the test name, xored with the
/// optional `SIM_RT_CHECK_SEED` env override for exploring new corners.
pub fn seed_from_name(name: &str) -> u64 {
    let offset = std::env::var("SIM_RT_CHECK_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    crate::rng::fnv1a64(name.as_bytes()) ^ offset
}

/// A source of random values for one property argument.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;
    /// Draws one value.
    fn sample<R: Rng>(&self, rng: &mut R) -> Self::Value;
}

impl<T> Strategy for Range<T>
where
    T: Copy + Debug,
    Range<T>: UniformRange<Output = T>,
{
    type Value = T;
    fn sample<R: Rng>(&self, rng: &mut R) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Strategy for RangeInclusive<T>
where
    T: Copy + Debug,
    RangeInclusive<T>: UniformRange<Output = T> + Clone,
{
    type Value = T;
    fn sample<R: Rng>(&self, rng: &mut R) -> T {
        rng.gen_range(self.clone())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample<R: Rng>(&self, rng: &mut R) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample<R: Rng>(&self, rng: &mut R) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// A length specification for collection strategies: a fixed `usize` or a
/// half-open `Range<usize>`.
pub trait LenSpec {
    /// Draws the collection length.
    fn sample_len<R: Rng>(&self, rng: &mut R) -> usize;
}

impl LenSpec for usize {
    fn sample_len<R: Rng>(&self, _rng: &mut R) -> usize {
        *self
    }
}

impl LenSpec for Range<usize> {
    fn sample_len<R: Rng>(&self, rng: &mut R) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Strategy producing a `Vec` of `len` elements drawn from `elem`.
pub fn vec_of<S: Strategy, L: LenSpec>(elem: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { elem, len }
}

/// See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, L> {
    elem: S,
    len: L,
}

impl<S: Strategy, L: LenSpec> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;
    fn sample<R: Rng>(&self, rng: &mut R) -> Vec<S::Value> {
        let n = self.len.sample_len(rng);
        (0..n).map(|_| self.elem.sample(rng)).collect()
    }
}

/// Strategy producing a `BTreeSet` from up to `len` draws of `elem`
/// (duplicates collapse, so the set may be smaller than requested).
pub fn btree_set_of<S, L>(elem: S, len: L) -> BTreeSetStrategy<S, L>
where
    S: Strategy,
    S::Value: Ord,
    L: LenSpec,
{
    BTreeSetStrategy { elem, len }
}

/// See [`btree_set_of`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S, L> {
    elem: S,
    len: L,
}

impl<S, L> Strategy for BTreeSetStrategy<S, L>
where
    S: Strategy,
    S::Value: Ord,
    L: LenSpec,
{
    type Value = BTreeSet<S::Value>;
    fn sample<R: Rng>(&self, rng: &mut R) -> BTreeSet<S::Value> {
        let n = self.len.sample_len(rng);
        (0..n).map(|_| self.elem.sample(rng)).collect()
    }
}

/// Strategy returning a fixed value (the `Just` combinator).
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample<R: Rng>(&self, _rng: &mut R) -> T {
        self.0.clone()
    }
}

/// Defines seeded randomized property tests; see the [module docs](crate::check).
#[macro_export]
macro_rules! prop_check {
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::__prop_check_items! { $cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__prop_check_items! { $crate::check::DEFAULT_CASES; $($rest)* }
    };
}

/// Implementation detail of [`prop_check!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_check_items {
    ($cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let cases = $crate::check::cases($cases);
            let mut rng = $crate::rng::SimRng::seed_from_u64(
                $crate::check::seed_from_name(stringify!($name)),
            );
            for case in 0..cases {
                $(let $arg = $crate::check::Strategy::sample(&($strategy), &mut rng);)+
                let inputs = {
                    let mut s = String::new();
                    $(s.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)+
                    s
                };
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || $body),
                );
                if let Err(payload) = outcome {
                    // Carry the failing inputs in the panic itself so the
                    // test harness reports them without a stray stderr line.
                    let detail = match payload.downcast_ref::<&str>() {
                        Some(s) => (*s).to_owned(),
                        None => payload
                            .downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_else(|| "non-string panic payload".to_owned()),
                    };
                    panic!(
                        "property `{}` failed on case {}/{} with inputs:\n{}caused by: {}",
                        stringify!($name), case + 1, cases, inputs, detail,
                    );
                }
            }
        }
    )*};
}

/// Self-check: one deterministic sampling pass over every strategy kind.
#[doc(hidden)]
pub fn strategy_smoke(seed: u64) -> (Vec<f64>, BTreeSet<usize>, (u32, i8)) {
    let mut rng = SimRng::seed_from_u64(seed);
    (
        vec_of(-1.0f64..1.0, 3usize).sample(&mut rng),
        btree_set_of(0usize..100, 0..16).sample(&mut rng),
        (0u32..9, -4i8..5).sample(&mut rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_test_name() {
        assert_ne!(seed_from_name("alpha"), seed_from_name("beta"));
        assert_eq!(seed_from_name("alpha"), seed_from_name("alpha"));
    }

    #[test]
    fn strategies_are_deterministic() {
        assert_eq!(strategy_smoke(5), strategy_smoke(5));
    }

    #[test]
    fn vec_of_fixed_and_ranged_lengths() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(vec_of(0u32..10, 7usize).sample(&mut rng).len(), 7);
        for _ in 0..50 {
            let v = vec_of(0u32..10, 2..5usize).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn btree_set_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..50 {
            let s = btree_set_of(0usize..1024, 0..64usize).sample(&mut rng);
            assert!(s.len() < 64);
            assert!(s.iter().all(|&x| x < 1024));
        }
    }

    #[test]
    fn just_returns_its_value() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(just(42u8).sample(&mut rng), 42);
    }

    crate::prop_check! {
        cases = 32;

        fn tuple_strategy_samples_both_sides(pair in (0u32..10, -5i32..5)) {
            assert!(pair.0 < 10);
            assert!((-5..5).contains(&pair.1));
        }

        fn vec_elements_respect_range(xs in vec_of(-100.0f64..100.0, 1..20usize)) {
            assert!(!xs.is_empty() && xs.len() < 20);
            assert!(xs.iter().all(|x| (-100.0..100.0).contains(x)));
        }
    }

    #[test]
    fn failing_property_reports_and_panics() {
        // Expand the macro by hand to keep the failing test out of the
        // harness: the inner body must panic and the panic must carry
        // through resume_unwind.
        let result = std::panic::catch_unwind(|| {
            let mut rng = SimRng::seed_from_u64(seed_from_name("always_fails"));
            let x = Strategy::sample(&(0u32..10), &mut rng);
            assert!(x >= 10, "forced failure");
        });
        assert!(result.is_err());
    }
}
