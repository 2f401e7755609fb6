//! Workspace-internal stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements the slice of proptest's API the workspace's property
//! tests use: the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, the [`strategy::Strategy`] trait with range and
//! collection strategies, and [`test_runner::ProptestConfig`].
//!
//! Differences from upstream, deliberate for a test-only shim:
//! - No shrinking: a failing case reports its inputs but is not minimized.
//! - Case generation is deterministic per test (seeded from the test's
//!   module path), so failures always reproduce.
//! - Rejected cases (`prop_assume!`) count toward the case budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Value-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, SampleUniform};
    use std::ops::Range;

    /// A recipe for sampling random values of type `Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value from the strategy.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<T: SampleUniform + Clone> Strategy for Range<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy sampling uniformly over a type's whole domain.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl Strategy for Any<u64> {
        type Value = u64;

        fn sample(&self, rng: &mut StdRng) -> u64 {
            rng.gen()
        }
    }

    impl Strategy for Any<bool> {
        type Value = bool;

        fn sample(&self, rng: &mut StdRng) -> bool {
            rng.gen()
        }
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and a length range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates `Vec`s whose length is uniform over `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Numeric whole-domain strategies (`prop::num`).
pub mod num {
    /// Strategies over `u64`.
    pub mod u64 {
        use crate::strategy::Any;

        /// Uniform over all of `u64`.
        pub const ANY: Any<u64> = Any(std::marker::PhantomData);
    }
}

/// Boolean strategies (`prop::bool`).
pub mod bool {
    use crate::strategy::Any;

    /// Fair coin flip.
    pub const ANY: Any<::core::primitive::bool> = Any(std::marker::PhantomData);
}

/// Test execution: configuration, the per-test runner, and case errors.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's preconditions failed (`prop_assume!`); not a failure.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }

        /// Builds a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    /// Drives one property: holds the case budget and the deterministic
    /// source of sampled inputs.
    #[derive(Debug)]
    pub struct TestRunner {
        cases: u32,
        rng: StdRng,
    }

    impl TestRunner {
        /// Builds a runner seeded from the property's name, so each
        /// property sees its own reproducible stream.
        pub fn new(config: &ProptestConfig, name: &str) -> Self {
            // FNV-1a over the fully qualified test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRunner {
                cases: config.cases,
                rng: StdRng::seed_from_u64(h),
            }
        }

        /// The number of cases to run.
        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// The runner's input stream.
        pub fn rng(&mut self) -> &mut StdRng {
            &mut self.rng
        }
    }
}

/// Everything a property test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Namespaced strategy constructors (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::num;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { ... }`
/// becomes a `#[test]` that runs the body against many sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            (<$crate::test_runner::ProptestConfig as ::std::default::Default>::default())
            $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut runner = $crate::test_runner::TestRunner::new(
                &config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..runner.cases() {
                $(
                    let $arg = $crate::strategy::Strategy::sample(
                        &($strategy),
                        runner.rng(),
                    );
                )+
                let inputs = || {
                    let mut s = String::new();
                    $(
                        s.push_str(concat!(stringify!($arg), " = "));
                        s.push_str(&format!("{:?}; ", $arg));
                    )+
                    s
                };
                let outcome = (|| -> ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(_),
                    ) => {}
                    ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(msg),
                    ) => panic!(
                        "property {} failed at case {}: {}\n  inputs: {}",
                        stringify!($name),
                        case,
                        msg,
                        inputs(),
                    ),
                }
            }
        }
        $crate::__proptest_impl!(($config) $($rest)*);
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(concat!("assertion failed: ", stringify!($cond), ": {}"),
                    format!($($fmt)+)),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                concat!(
                    stringify!($left),
                    " != ",
                    stringify!($right),
                    " ({:?} vs {:?})"
                ),
                left, right,
            )));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                concat!(stringify!($left), " == ", stringify!($right), " ({:?})"),
                left,
            )));
        }
    }};
}

/// Skips the current case when its preconditions do not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, y in -1.5f64..1.5) {
            prop_assert!(x < 10);
            prop_assert!((-1.5..1.5).contains(&y), "y = {}", y);
        }

        #[test]
        fn vec_strategy_respects_length(
            v in prop::collection::vec(0.0f64..1.0, 2..9),
        ) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|e| (0.0..1.0).contains(e)));
        }

        #[test]
        fn assume_skips_cases(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }
    }

    #[test]
    fn any_strategies_cover_their_domains() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // A fair coin shows both faces within 64 flips.
        let bits: Vec<bool> = (0..64).map(|_| prop::bool::ANY.sample(&mut rng)).collect();
        assert!(bits.contains(&true) && bits.contains(&false), "{bits:?}");
        // Uniform words are distinct and reach both halves of the domain.
        let mut words: Vec<u64> = (0..64)
            .map(|_| prop::num::u64::ANY.sample(&mut rng))
            .collect();
        assert!(words.iter().any(|w| w >> 63 == 1) && words.iter().any(|w| w >> 63 == 0));
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), 64);
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failures_panic_with_inputs() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
