//! Vendored minimal stand-in for the `proptest` crate.
//!
//! This workspace builds in hermetic environments with no registry access,
//! so the external `proptest` dependency is replaced by this path crate.
//! It covers exactly the surface the workspace's property tests use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header and
//!   `name in strategy` argument bindings;
//! * strategies: [`any`], integer ranges (`a..b`, `a..=b`), and
//!   [`collection::vec`];
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`], and
//!   [`prop_assume!`].
//!
//! Differences from real proptest: no shrinking (a failing case reports
//! its inputs so it can be replayed by seed), and `.proptest-regressions`
//! files are ignored. Case generation is deterministic per test name, so
//! runs are reproducible.

use std::fmt::Debug;

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a test case did not succeed.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure: the property is violated.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
}

/// Deterministic generator feeding the strategies (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* — adequate for test-input generation.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: u128) -> u128 {
        ((self.next_u64() as u128) * bound) >> 64
    }
}

/// Build the RNG for one case of one test, keyed by test path and case
/// index so every test sees an independent, reproducible stream.
pub fn test_rng(test_path: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf29ce484222325; // FNV-1a
    for b in test_path.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h = (h ^ case as u64).wrapping_mul(0x100000001b3);
    TestRng {
        state: h | 1, // xorshift state must be non-zero
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Sized + Debug {
    /// Draw one value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for a type's full domain: `any::<u64>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (self.start as i128, self.end as i128);
                assert!(lo < hi, "empty strategy range {lo}..{hi}");
                (lo + rng.below((hi - lo) as u128) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty strategy range {lo}..={hi}");
                (lo + rng.below((hi - lo + 1) as u128) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything the `proptest!` blocks need in scope.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Define property tests. Supports the standard form used in this
/// workspace: an optional `#![proptest_config(..)]` header followed by
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])+ fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let path = concat!(module_path!(), "::", stringify!($name));
                let mut successes: u32 = 0;
                let mut attempt: u32 = 0;
                // Rejected cases (prop_assume!) don't count; bail out if
                // the assumptions reject nearly everything.
                let max_attempts = cfg.cases.saturating_mul(16).max(64);
                while successes < cfg.cases {
                    assert!(
                        attempt < max_attempts,
                        "proptest {path}: too many rejected cases \
                         ({successes}/{} passed after {attempt} attempts)",
                        cfg.cases
                    );
                    let mut rng = $crate::test_rng(path, attempt);
                    attempt += 1;
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = [
                        $(format!("    {} = {:?}", stringify!($arg), &$arg)),+
                    ].join("\n");
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        Ok(()) => successes += 1,
                        Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => panic!(
                            "proptest {path} failed at case {}:\n  {msg}\n  inputs:\n{inputs}",
                            attempt - 1
                        ),
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: {} == {}\n    left: {:?}\n   right: {:?}",
            stringify!($lhs), stringify!($rhs), lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "{}\n    left: {:?}\n   right: {:?}",
            format!($($fmt)+), lhs, rhs
        );
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs != *rhs,
            "assertion failed: {} != {}\n    both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
}

/// Reject the current case (it is skipped, not failed) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3..9usize, y in -4..=4i64) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn assume_skips_without_failing(x in 0..100u32) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn rng_is_deterministic_per_path_and_case() {
        let a = crate::test_rng("some::test", 3).next_u64();
        let b = crate::test_rng("some::test", 3).next_u64();
        let c = crate::test_rng("some::test", 4).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
