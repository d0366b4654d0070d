//! A tiny, dependency-free, offline stand-in for the [`proptest`] crate.
//!
//! The container building this workspace has no access to crates.io, so the
//! real `proptest` cannot be vendored. This crate implements the subset of
//! its API that the workspace's property tests use:
//!
//! * the [`proptest!`] macro (`fn name(arg in strategy, ...) { body }`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * the [`Strategy`] trait with [`Strategy::prop_map`],
//! * range strategies (`-1.0..1.0f64`, `0usize..20`, `0i64..50`, ...),
//! * [`collection::vec`] with a fixed or ranged length.
//!
//! Sampling is deterministic (a fixed-seed xorshift generator), there is no
//! shrinking, and each property runs a fixed number of cases. That trades
//! coverage for reproducibility, which suits a CI without network access.
//!
//! [`proptest`]: https://crates.io/crates/proptest

/// Number of cases each property is executed for.
pub const DEFAULT_CASES: u32 = 64;

/// Deterministic xorshift64* generator used to drive sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a fixed seed (zero is remapped).
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A generator of test values, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of values produced.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through a function.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty integer range strategy");
                self.start + rng.next_below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u32, u64, i32, i64);

// Blanket impl so `&strategy` works where the macro samples by reference.
impl<S: Strategy> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: a fixed size or a size range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.next_below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, Just, Strategy};
}

/// Assertion macro; in this stub it simply forwards to [`assert!`].
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Assertion macro; in this stub it simply forwards to [`assert_eq!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body for [`DEFAULT_CASES`] deterministic
/// samples of every argument.
#[macro_export]
macro_rules! proptest {
    ($(
        #[test]
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            // Seed differs per property so the cases are decorrelated.
            let seed = stringify!($name)
                .bytes()
                .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x1000_0000_01B3)
                });
            let mut rng = $crate::TestRng::new(seed);
            $( let $arg = &($strat); )*
            for _case in 0..$crate::DEFAULT_CASES {
                $( let $arg = $crate::Strategy::sample($arg, &mut rng); )*
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let x = (-1.5..2.5f64).sample(&mut rng);
            assert!((-1.5..2.5).contains(&x));
            let n = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&n));
            let i = (-4i64..4).sample(&mut rng);
            assert!((-4..4).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_honours_size() {
        let mut rng = TestRng::new(2);
        let fixed = collection::vec(0.0..1.0f64, 4).sample(&mut rng);
        assert_eq!(fixed.len(), 4);
        for _ in 0..100 {
            let ranged = collection::vec(0i64..5, 1..6).sample(&mut rng);
            assert!((1..6).contains(&ranged.len()));
        }
    }

    #[test]
    fn prop_map_applies_function() {
        let mut rng = TestRng::new(3);
        let doubled = (1usize..10).prop_map(|n| n * 2).sample(&mut rng);
        assert_eq!(doubled % 2, 0);
        assert_eq!(Just(41).prop_map(|n| n + 1).sample(&mut rng), 42);
    }

    proptest! {
        #[test]
        fn macro_runs_cases(a in 0usize..100, b in 0usize..100) {
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
