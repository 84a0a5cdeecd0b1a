//! Offline shim for the `proptest` API subset this workspace uses.
//!
//! Provides the [`proptest!`] macro, the [`strategy::Strategy`] trait with
//! range / tuple / collection / sample strategies and `prop_map`, plus the
//! `prop_assert*` macros. Inputs are generated from a deterministic
//! per-test random stream (seeded from the test's module path, overridable
//! with `PROPTEST_SEED`); the number of cases defaults to 64 and can be
//! raised with `PROPTEST_CASES` or per-block with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.
//!
//! Shrinking is intentionally not implemented — failures report the exact
//! generated inputs via the panic message of the failing assertion.

#![forbid(unsafe_code)]

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of an output type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value from the strategy.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// A strategy that always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Types with a canonical full-range strategy ([`crate::arbitrary::any`]).
    pub trait Arbitrary: Sized {
        /// Draws one unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// The strategy returned by [`crate::arbitrary::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        pub(crate) _marker: std::marker::PhantomData<fn() -> T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Numeric types sampleable uniformly from a half-open range.
    pub trait RangeSample: Sized {
        /// Draws a value uniformly from `[lo, hi)`.
        fn sample_between(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
    }

    macro_rules! range_sample_int {
        ($($ty:ty),*) => {$(
            impl RangeSample for $ty {
                fn sample_between(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "strategy range must be non-empty");
                    let span = (hi as i128 - lo as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (lo as i128 + offset as i128) as $ty
                }
            }
        )*};
    }

    range_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl RangeSample for f64 {
        fn sample_between(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    impl<T: RangeSample + Copy> Strategy for std::ops::Range<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::sample_between(rng, self.start, self.end)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);

    /// Boxes a strategy, erasing its concrete type. This is how
    /// [`crate::prop_oneof!`] unifies arms built from different
    /// combinators into one arm list.
    pub fn boxed<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(strategy)
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (**self).new_value(rng)
        }
    }

    /// A weighted union over strategies with a common value type — the
    /// engine behind [`crate::prop_oneof!`]. Selection consumes exactly one
    /// draw from the stream, then delegates to the chosen arm, so adding an
    /// arm never desynchronizes values generated by sibling strategies.
    pub struct Union<T> {
        options: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Builds a union from `(relative weight, strategy)` arms. At least
        /// one weight must be non-zero.
        pub fn new(options: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
            let total: u64 = options.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs a non-zero total weight");
            Union { options, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.next_u64() % self.total;
            for (weight, strategy) in &self.options {
                if pick < u64::from(*weight) {
                    return strategy.new_value(rng);
                }
                pick -= u64::from(*weight);
            }
            unreachable!("weights sum to the modulus")
        }
    }

    impl<T> std::fmt::Debug for Union<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Union")
                .field("arms", &self.options.len())
                .finish()
        }
    }
}

pub mod arbitrary {
    //! The [`any`] entry point.

    use crate::strategy::Any;

    /// A strategy producing unconstrained values of `T`.
    pub fn any<T: crate::strategy::Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::{RangeSample, Strategy};
    use crate::test_runner::TestRng;

    /// A strategy generating `Vec`s of values from `element`, with a length
    /// drawn uniformly from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Creates a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start + 1 >= self.size.end {
                self.size.start
            } else {
                usize::sample_between(rng, self.size.start, self.size.end)
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies (`prop::sample::select`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy picking uniformly from a fixed set of options.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    /// Creates a [`Select`] over `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let idx = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[idx].clone()
        }
    }
}

pub mod test_runner {
    //! The per-test configuration and deterministic random stream.

    /// Configuration of a `proptest!` block.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// The deterministic random stream driving input generation
    /// (SplitMix64 over a seed derived from the test name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates the stream for the named test, honouring the
        /// `PROPTEST_SEED` environment variable.
        pub fn for_test(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map(|s| s ^ hash)
                .unwrap_or(hash);
            TestRng { state: seed }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Returns a uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop` namespace (`prop::collection`, `prop::sample`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Chooses among several strategies producing a common value type, with
/// optional relative weights (`prop_oneof![3 => a, 1 => b]`; unweighted
/// arms all get weight 1), mirroring proptest's macro of the same name.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that runs the body for every generated case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        }
    };
}

/// Internal recursion for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0i32..10, (a, b) in (0u64..5, -3i32..3), v in prop::collection::vec(0usize..4, 1..6)) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(a < 5);
            prop_assert!((-3..3).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        /// Doc comments and explicit configs are accepted.
        #[test]
        fn config_is_honoured(flag in any::<bool>()) {
            prop_assert!(u8::from(flag) <= 1);
        }
    }

    #[test]
    fn select_and_map() {
        let strat = prop::sample::select(vec![1, 2, 3]).prop_map(|v| v * 10);
        let mut rng = crate::test_runner::TestRng::for_test("select_and_map");
        for _ in 0..50 {
            let v = strat.new_value(&mut rng);
            assert!([10, 20, 30].contains(&v));
        }
    }

    #[test]
    fn oneof_draws_from_every_arm() {
        let strat = prop_oneof![
            3 => (0i32..10).prop_map(|n| n),
            1 => Just(42i32),
        ];
        let mut rng = crate::test_runner::TestRng::for_test("oneof");
        let (mut low, mut sentinel) = (0u32, 0u32);
        for _ in 0..400 {
            match strat.new_value(&mut rng) {
                42 => sentinel += 1,
                v if (0..10).contains(&v) => low += 1,
                v => panic!("value {v} from no arm"),
            }
        }
        // Both arms fire, and the 3:1 weighting shows (the range arm lands
        // in 0..10 which excludes 42, so the counts are unambiguous).
        assert!(
            sentinel > 0 && low > sentinel,
            "low {low} sentinel {sentinel}"
        );
    }

    proptest! {
        #[test]
        fn unweighted_oneof_works_in_proptest(v in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(v == 1 || v == 2);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
