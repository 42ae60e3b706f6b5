//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a cargo registry, so this crate
//! reimplements the subset of proptest the workspace's property tests
//! use: the [`proptest!`] macro, `prop_assert*!`, [`prop_oneof!`],
//! [`strategy::Strategy`] with `prop_map`, range and tuple strategies,
//! [`collection::vec`], [`arbitrary::any`], and [`sample::Index`].
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its inputs (via the
//!   assertion message) but is not minimized.
//! * **Deterministic.** Cases are generated from a fixed per-case seed,
//!   so a failure reproduces by re-running the test.

#![warn(missing_docs)]

/// Strategy core: how test inputs are generated.
pub mod strategy {
    use rand::rngs::StdRng;

    /// A generator of test values.
    pub trait Strategy {
        /// The value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A uniform choice between boxed strategies ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    /// Builds a [`Union`]; used by the [`crate::prop_oneof!`] macro.
    pub fn union_of<T>(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            use rand::Rng;
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// An inclusive length range for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose length falls in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    impl Arbitrary for super::sample::Index {
        fn arbitrary(rng: &mut StdRng) -> Self {
            super::sample::Index::new(rng.gen())
        }
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<A> {
        _marker: core::marker::PhantomData<fn() -> A>,
    }

    /// A strategy over the full value range of `A`.
    pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
        AnyStrategy { _marker: core::marker::PhantomData }
    }

    impl<A: Arbitrary> Strategy for AnyStrategy<A> {
        type Value = A;
        fn generate(&self, rng: &mut StdRng) -> A {
            A::arbitrary(rng)
        }
    }
}

/// Sampling helpers (`prop::sample`).
pub mod sample {
    /// An index into a collection of not-yet-known length.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Wraps raw index entropy.
        pub fn new(raw: u64) -> Self {
            Index(raw)
        }

        /// Projects onto `0..len`. Panics when `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

/// Test-runner types used by the [`proptest!`] expansion.
pub mod test_runner {
    /// Per-test configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed test case (carried as `Err` out of the case closure).
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Internal runtime re-exports for macro expansions.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` module alias (e.g. `prop::sample::Index`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
}

/// Fails the current case when the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// A uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::union_of(vec![$(::std::boxed::Box::new($s) as _),+])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases as u64 {
                // Per-case deterministic seed: test name × case index.
                let mut __seed = 0xcbf2_9ce4_8422_2325u64;
                for b in concat!(module_path!(), "::", stringify!($name)).bytes() {
                    __seed = (__seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
                }
                let mut __rng = <$crate::__rt::StdRng as $crate::__rt::SeedableRng>::seed_from_u64(
                    __seed ^ __case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!("proptest case {} of {}: {}", __case, stringify!($name), e);
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate as proptest;
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        use crate::strategy::Strategy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let s = crate::collection::vec(0u8..=1, 4..12);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((4..12).contains(&v.len()));
            assert!(v.iter().all(|&b| b <= 1));
        }
        let t = (prop_oneof![Just(2usize), Just(4usize)], 2usize..=4)
            .prop_map(|(gamma, blocks)| gamma * blocks);
        for _ in 0..100 {
            let k = t.generate(&mut rng);
            assert!([4usize, 6, 8, 12, 16].contains(&k), "{k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_roundtrip(v in proptest::collection::vec(any::<u8>(), 1..10), k in 0u64..100) {
            prop_assert!(v.len() < 10);
            prop_assert!(k < 100, "k = {}", k);
            prop_assert_eq!(v.clone(), v.clone());
            let idx = k as usize % v.len();
            prop_assert_ne!(v.len(), 0usize.wrapping_sub(1).min(idx + v.len() + 1));
        }
    }

    // The macro must also accept `prop::sample::Index` via `any`.
    proptest! {
        #[test]
        fn index_projects(i in any::<prop::sample::Index>(), len in 1usize..50) {
            prop_assert!(i.index(len) < len);
        }
    }
}
