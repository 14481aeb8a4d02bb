//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace ships a
//! small, deterministic property-testing harness with the same spelling as
//! the real crate for everything the in-tree tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * strategies: numeric ranges, `any::<T>()`, [`strategy::Just`], tuples,
//!   `prop_map`, [`prop_oneof!`], and [`collection::vec`].
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed number
//! of cases with inputs derived deterministically from the case index, so
//! failures reproduce exactly across runs and machines.
//!
//! The `PROPTEST_CASES` environment variable overrides every configured
//! case count (including explicit `with_cases`) — the hook CI's scheduled
//! stress lane uses to rerun the in-tree properties at ~10x depth off the
//! pull-request critical path.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Per-test configuration (case count only).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of sampled cases to execute.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` sampled inputs.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }

        /// The case count actually run: the `PROPTEST_CASES` environment
        /// variable when set and parseable, else the configured count.
        ///
        /// Unlike real proptest (where the env var only feeds the default
        /// config), the override here beats an explicit `with_cases` too —
        /// that is what lets a scheduled stress lane rerun every in-tree
        /// property at 10x cases without touching source.
        pub fn resolved_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(self.cases)
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 32 }
        }
    }

    /// Failure raised by `prop_assert!`-style macros inside a case body.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
        rejected: bool,
    }

    impl TestCaseError {
        /// Builds a failure carrying `message`.
        pub fn fail(message: String) -> Self {
            TestCaseError {
                message,
                rejected: false,
            }
        }

        /// Marks a case as rejected by `prop_assume!` (skipped, not failed).
        pub fn reject() -> Self {
            TestCaseError {
                message: "input rejected by prop_assume!".into(),
                rejected: true,
            }
        }

        /// Whether this error is a `prop_assume!` rejection.
        pub fn is_rejection(&self) -> bool {
            self.rejected
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic per-case RNG (splitmix64 over the case index).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case number `case` of a test.
        pub fn for_case(case: u64) -> Self {
            TestRng {
                state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x51D0_B654_3210_FEED,
            }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for sampling values of `Self::Value`.
    ///
    /// Object-safe so strategies of one value type can be unified behind
    /// [`BoxedStrategy`] (what [`crate::prop_oneof!`] produces).
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Pipes sampled values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; `options` must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(
                !options.is_empty(),
                "prop_oneof! needs at least one alternative"
            );
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),+) => {
            $(
                impl Strategy for Range<$t> {
                    type Value = $t;
                    fn sample(&self, rng: &mut TestRng) -> $t {
                        let span = (self.end as i128 - self.start as i128) as u64;
                        assert!(span > 0, "empty integer range strategy");
                        (self.start as i128 + rng.below(span) as i128) as $t
                    }
                }
            )+
        };
    }

    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0);
    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Samples from the full domain of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),+) => {
            $(
                impl Arbitrary for $t {
                    fn arbitrary(rng: &mut TestRng) -> $t {
                        rng.next_u64() as $t
                    }
                }
            )+
        };
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy for [`Arbitrary`] types; build with [`any`].
    pub struct Any<T> {
        _marker: PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a sampled length.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec-length range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Entry point: declares deterministic property tests.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = <$crate::test_runner::Config as ::std::default::Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                for case in 0..config.resolved_cases() as u64 {
                    let mut __proptest_rng = $crate::test_runner::TestRng::for_case(case);
                    $(
                        let $arg =
                            $crate::strategy::Strategy::sample(&($strat), &mut __proptest_rng);
                    )+
                    let result = (|| -> ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = result {
                        if e.is_rejection() {
                            continue;
                        }
                        panic!(
                            "proptest {} failed at case {}: {}",
                            stringify!($name),
                            case,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Uniform choice among strategies with one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Skips the current case when `cond` is false (no failure recorded).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject());
        }
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{:?}` != `{:?}`",
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs == rhs, $($fmt)+);
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs != rhs, "assertion failed: `{:?}` == `{:?}`", lhs, rhs);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Toy {
        A,
        B(f64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -1.5f64..2.5, n in 1usize..4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.5..2.5).contains(&y), "y={y}");
            prop_assert!((1..4).contains(&n));
        }

        #[test]
        fn vec_lengths_respect_range(xs in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 5);
        }

        #[test]
        fn oneof_and_map_compose(t in prop_oneof![Just(Toy::A), (0.0f64..1.0).prop_map(Toy::B)]) {
            match t {
                Toy::A => {}
                Toy::B(v) => prop_assert!((0.0..1.0).contains(&v)),
            }
        }

        #[test]
        fn tuples_sample_elementwise((a, b) in (any::<bool>(), 0u32..7)) {
            let _ = a;
            prop_assert!(b < 7);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut r1 = TestRng::for_case(3);
        let mut r2 = TestRng::for_case(3);
        for _ in 0..16 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn resolved_cases_falls_back_to_configured_count() {
        // The PROPTEST_CASES override itself can't be exercised hermetically
        // (env vars are process-global and tests run concurrently), but the
        // parse/fallback seam can: unset or garbage means configured count.
        let cfg = crate::test_runner::Config::with_cases(13);
        if std::env::var("PROPTEST_CASES").is_err() {
            assert_eq!(cfg.resolved_cases(), 13);
        } else {
            // A stress lane set the override; it must win and be positive.
            assert!(cfg.resolved_cases() > 0);
        }
    }
}
