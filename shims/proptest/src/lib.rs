//! Offline subset of the `proptest` API (see `shims/README.md`).
//!
//! Implements the surface sempair's property tests use: the
//! [`proptest!`] macro, `prop_assert*`/`prop_assume!`, [`any`],
//! integer-range and tuple strategies, `collection::vec`, `prop_map`,
//! and `ProptestConfig::with_cases`. Each test runs its configured
//! number of random cases from a per-test deterministic seed. Failing
//! inputs are reported via `Debug`; there is no shrinking — failures
//! print the raw counterexample instead of a minimized one.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random test values.
    pub trait Strategy {
        /// Type of values produced.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy adapter returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u128;
                    // Modulo bias is negligible for test-sized spans.
                    self.start + (rng.next_u64() as u128 % span) as $t
                }
            }

            impl Strategy for ::core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end - start) as u128 + 1;
                    start + (rng.next_u64() as u128 % span) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i32, i64);

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.generate(rng), self.1.generate(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (
                self.0.generate(rng),
                self.1.generate(rng),
                self.2.generate(rng),
            )
        }
    }

    /// Strategy that always yields clones of one value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `&str` patterns act as regex-shaped string strategies, as in real
    /// proptest. The shim covers the subset sempair's tests use:
    /// literals, `\`-escapes, `[a-z]`-style classes, and `{n}`/`{m,n}`
    /// repeats.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            // One atom: an escaped literal, a character class, or a
            // plain literal.
            let atom: Vec<char> = match chars[i] {
                '\\' => {
                    i += 1;
                    assert!(i < chars.len(), "dangling escape in pattern {pattern:?}");
                    let c = chars[i];
                    i += 1;
                    vec![c]
                }
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unterminated class in {pattern:?}"))
                        + i;
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && chars[j + 1] == '-' {
                            let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                            assert!(lo <= hi, "inverted range in {pattern:?}");
                            set.extend((lo..=hi).filter_map(char::from_u32));
                            j += 3;
                        } else {
                            set.push(chars[j]);
                            j += 1;
                        }
                    }
                    assert!(!set.is_empty(), "empty class in {pattern:?}");
                    i = close + 1;
                    set
                }
                c => {
                    assert!(
                        !matches!(c, '(' | ')' | '|' | '*' | '+' | '?' | '.'),
                        "pattern {pattern:?} uses regex feature '{c}' \
                         unsupported by the offline proptest shim"
                    );
                    i += 1;
                    vec![c]
                }
            };
            // Optional {n} / {m,n} repeat.
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unterminated repeat in {pattern:?}"))
                    + i;
                let spec: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse::<usize>().expect("repeat min"),
                        n.trim().parse::<usize>().expect("repeat max"),
                    ),
                    None => {
                        let n = spec.trim().parse::<usize>().expect("repeat count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let count = min + (rng.next_u64() as usize) % (max - min + 1);
            for _ in 0..count {
                out.push(atom[(rng.next_u64() as usize) % atom.len()]);
            }
        }
        out
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy for this type.
        type Strategy: Strategy<Value = Self>;

        /// Builds the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical full-domain strategy for `T`.
    pub struct Any<T>(PhantomData<T>);

    /// Returns the canonical strategy for `A` (as `proptest::any`).
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }

    macro_rules! any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = Any<$t>;

                fn arbitrary() -> Any<$t> {
                    Any(PhantomData)
                }
            }
        )*};
    }

    any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Strategy for Any<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = Any<bool>;

        fn arbitrary() -> Any<bool> {
            Any(PhantomData)
        }
    }

    impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
        type Strategy = (A::Strategy, B::Strategy);

        fn arbitrary() -> Self::Strategy {
            (A::arbitrary(), B::arbitrary())
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                min: len,
                max: len + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of `element` values (as `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.min < self.size.max, "empty size range");
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::fmt;

    /// Per-test run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
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
        /// The property was violated.
        Fail(String),
        /// The input was rejected by `prop_assume!`; not a failure.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Builds a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(msg) => write!(f, "{msg}"),
                TestCaseError::Reject(msg) => write!(f, "input rejected: {msg}"),
            }
        }
    }

    /// Deterministic per-test random source.
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Seeds the generator from the test's name, so every run of a
        /// given test replays the same case sequence.
        pub fn deterministic(test_name: &str) -> Self {
            let seed = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
                (acc ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
            });
            TestRng {
                inner: StdRng::seed_from_u64(seed),
            }
        }

        /// Draws 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a function that runs the body over random inputs.
///
/// As in upstream proptest, the caller writes the `#[test]` attribute
/// on each function; the macro re-emits the caller's attributes and
/// adds none of its own, so every property test registers once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            let mut passed: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = config.cases.saturating_mul(16).max(16);
            while passed < config.cases {
                if attempts >= max_attempts {
                    panic!(
                        "proptest '{}': too many rejected inputs ({} attempts, {} passed)",
                        stringify!($name), attempts, passed
                    );
                }
                attempts += 1;
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed at case {}: {}",
                            stringify!($name), passed, msg
                        );
                    }
                }
            }
        }
    )*};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
            stringify!($left), stringify!($right), left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{} != {}`\n  both: `{:?}`",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Skips the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
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
        fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(u64::from(a) + u64::from(b), u64::from(b) + u64::from(a));
        }

        #[test]
        fn vec_lengths_respect_range(
            v in crate::collection::vec(any::<u8>(), 3..7),
        ) {
            prop_assert!(v.len() >= 3 && v.len() < 7);
        }

        #[test]
        fn mapped_strategy_applies(x in (0u64..100).prop_map(|v| v * 2)) {
            prop_assert!(x % 2 == 0 && x < 200);
            prop_assume!(x != u64::MAX); // exercise the reject path
        }

        #[test]
        fn dependent_ranges(n in 1usize..16, k in 0usize..16) {
            prop_assert!(n >= 1);
            prop_assert!(k < 16);
        }

        #[test]
        fn regex_pattern_strings(id in "[a-z]{1,16}@[a-z]{1,10}\\.com") {
            let (local, rest) = id.split_once('@').expect("has @");
            prop_assert!((1..=16).contains(&local.len()));
            prop_assert!(local.bytes().all(|b| b.is_ascii_lowercase()));
            let domain = rest.strip_suffix(".com").expect("has .com");
            prop_assert!((1..=10).contains(&domain.len()));
        }
    }

    #[test]
    fn deterministic_replay() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec(any::<u8>(), 0..9);
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        for _ in 0..20 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }
}
