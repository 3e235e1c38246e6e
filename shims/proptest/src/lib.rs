//! Offline stand-in for `proptest` (the subset LinkLens uses).
//!
//! Implements the [`Strategy`] trait over a seeded [`StdRng`], the
//! `prop_map` / `prop_flat_map` / `prop_filter` combinators, range and
//! tuple strategies, [`collection::vec`], and the [`proptest!`] test macro
//! with `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.
//!
//! Differences from real proptest: no shrinking (a failing case reports
//! its values via the assertion message only), and generation is fully
//! deterministic — case `i` of every test derives its RNG seed from `i`,
//! so failures reproduce exactly across runs and thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Runner configuration. Only the case count is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of passing cases required per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Error signalled by `prop_assert!` / `prop_assume!` inside a test body.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case's inputs don't satisfy a precondition; try another case.
    Reject,
    /// The property is violated.
    Fail(String),
}

/// Outcome of one generated case, as seen by [`run_cases`].
#[derive(Debug)]
pub enum TestResult {
    /// Property held.
    Pass,
    /// Inputs rejected (by a filter or `prop_assume!`).
    Reject,
    /// Property violated.
    Fail(String),
}

/// Drives one property test: repeatedly generates cases until `cases`
/// passes, panicking on the first failure. Called by [`proptest!`].
pub fn run_cases<F: FnMut(&mut StdRng) -> TestResult>(
    config: ProptestConfig,
    name: &str,
    mut f: F,
) {
    let mut passes: u32 = 0;
    let mut attempts: u32 = 0;
    let max_attempts = config.cases.saturating_mul(64).max(256);
    while passes < config.cases && attempts < max_attempts {
        // Seed derived from the attempt index: deterministic, distinct.
        let mut rng = StdRng::seed_from_u64(
            0x9E37_79B9_7F4A_7C15 ^ (u64::from(attempts)).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        attempts += 1;
        match f(&mut rng) {
            TestResult::Pass => passes += 1,
            TestResult::Reject => {}
            TestResult::Fail(msg) => {
                panic!("proptest `{name}`: case {attempts} failed: {msg}")
            }
        }
    }
    assert!(passes > 0, "proptest `{name}`: all {attempts} generated cases were rejected");
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value; `None` rejects the attempt (filter miss).
    fn generate(&self, rng: &mut StdRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds from
    /// it (dependent generation).
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    /// Discards generated values failing `f`. The label mirrors real
    /// proptest's signature; it is reported nowhere because rejected
    /// attempts are silently retried.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> Option<T> {
        self.base.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> Option<S2::Value> {
        let first = self.base.generate(rng)?;
        (self.f)(first).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
        // Retry locally so a narrow filter doesn't reject whole composite
        // cases (e.g. one bad edge rejecting a 40-edge vector).
        for _ in 0..32 {
            if let Some(v) = self.base.generate(rng) {
                if (self.f)(&v) {
                    return Some(v);
                }
            }
        }
        None
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.random_range(self.clone()))
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> Option<$t> {
                Some(rng.random_range(self.clone()))
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut StdRng) -> Option<Self::Value> {
        Some((self.0.generate(rng)?, self.1.generate(rng)?))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut StdRng) -> Option<Self::Value> {
        Some((self.0.generate(rng)?, self.1.generate(rng)?, self.2.generate(rng)?))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Length specification for [`collection::vec`]: exact or a range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() + 1 }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy yielding `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<Vec<S::Value>> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The common imports used by property-test files.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(config, stringify!($name), |__rng| {
                $(
                    let $pat = match $crate::Strategy::generate(&($strat), __rng) {
                        ::std::option::Option::Some(v) => v,
                        ::std::option::Option::None => return $crate::TestResult::Reject,
                    };
                )*
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => $crate::TestResult::Pass,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                        $crate::TestResult::Reject
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        $crate::TestResult::Fail(msg)
                    }
                }
            });
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assertion failed: `{} == {}` ({:?} vs {:?})",
                stringify!($left), stringify!($right), __l, __r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "{} ({:?} vs {:?})", ::std::format!($($fmt)+), __l, __r,
            )));
        }
    }};
}

/// Rejects the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -1.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y), "y = {}", y);
        }

        #[test]
        fn vec_lengths_respect_size((n, v) in (2usize..=5).prop_flat_map(|n| {
            (crate::Just(n), crate::collection::vec(0u32..100, n))
        })) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn filters_apply(pair in (0u32..10, 0u32..10).prop_filter("distinct", |(a, b)| a != b)) {
            prop_assert!(pair.0 != pair.1);
            prop_assume!(pair.0 < pair.1);
            prop_assert!(pair.1 > pair.0);
        }
    }

    #[test]
    #[should_panic(expected = "case")]
    fn failing_property_panics() {
        crate::run_cases(ProptestConfig::with_cases(4), "demo", |_rng| {
            crate::TestResult::Fail("boom".to_string())
        });
    }
}
