//! In-tree shim for the `proptest` crate.
//!
//! Implements the slice of the proptest API this workspace's property tests
//! use: the [`Strategy`] trait with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, [`any`], [`Just`], [`collection::vec`], the
//! [`proptest!`] macro and the `prop_assert*` macros.
//!
//! Differences from the real crate, acceptable for this workspace:
//!
//! * cases are generated from a deterministic per-test RNG (seeded from the
//!   test's name), so failures always reproduce;
//! * there is **no shrinking** — a failing case panics with the assertion
//!   message and its case index instead of a minimized input;
//! * `prop_assert*` panic immediately rather than returning `Err`.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

/// Deterministic RNG driving case generation for one test.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// RNG for the named test, seeded from the name so runs reproduce.
    pub fn for_test(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for byte in name.bytes() {
            seed ^= byte as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Runtime configuration of a `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for compatibility with the real crate; the shim never
    /// shrinks, so this is ignored.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A recipe for generating random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (stand-in for `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generate an unconstrained random value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of unconstrained values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`fn@vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs, in one import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Boolean property assertion; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Equality property assertion; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_eq!($left, $right, $($fmt)*) };
}

/// Inequality property assertion; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_ne!($left, $right, $($fmt)*) };
}

/// Define property tests: each `#[test] fn name(pat in strategy, ...)` runs
/// `config.cases` random cases drawn from the listed strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) $( $(#[$meta:meta])+ fn $name:ident ( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut proptest_rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for proptest_case in 0..config.cases {
                    let ( $($pat,)+ ) = ( $($crate::Strategy::generate(&($strategy), &mut proptest_rng),)+ );
                    let run = || { $body };
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run));
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest shim: case {}/{} of {} failed (no shrinking available)",
                            proptest_case + 1,
                            config.cases,
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}
