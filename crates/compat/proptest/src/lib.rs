//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! range / tuple / [`Just`](strategy::Just) / [`any`](strategy::any)
//! strategies, `prop_map`, weighted [`prop_oneof!`],
//! `proptest::collection::vec`, and the `prop_assert!` /
//! `prop_assert_eq!` assertion forms returning
//! [`test_runner::TestCaseError`].
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs via the panic
//!   message (cases are deterministic per test name + case index, so a
//!   failure is reproducible by rerunning the test).
//! * **Deterministic seeding.** Cases derive from a fixed seed hashed
//!   with the test name — no `PROPTEST_CASES`/env integration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything a `use proptest::prelude::*;` consumer expects in scope.
pub mod prelude {
    pub use crate::strategy::{any, Any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    /// Namespace mirror so `prop::collection::vec(..)` works.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests.
///
/// ```
/// use proptest::prelude::*;
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = <$crate::test_runner::TestRng as
                    $crate::test_runner::DeterministicSeed>::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut rng,
                        );
                    )+
                    let debug_inputs = format!(
                        concat!($(concat!(stringify!($arg), " = {:?} ")),+),
                        $(&$arg),+
                    );
                    let outcome = (move || -> ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(err) = outcome {
                        panic!(
                            "property `{}` failed at case {}/{}: {}\n  inputs: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            err,
                            debug_inputs,
                        );
                    }
                }
            }
        )*
    };
}

/// Weighted choice between strategies producing the same value type.
///
/// `prop_oneof![3 => a, 1 => b]` picks `a` three times as often as `b`;
/// the unweighted form gives every arm weight 1.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Assert inside a property body; failure aborts the case (not the
/// process) with a [`test_runner::TestCaseError`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 1u64..100, ab in (0u8..10, 0.0f64..=1.0)) {
            let (a, b) = ab;
            prop_assert!((1..100).contains(&x));
            prop_assert!(a < 10);
            prop_assert!((0.0..=1.0).contains(&b));
        }

        #[test]
        fn vec_and_oneof(v in crate::collection::vec(
            prop_oneof![3 => 0u64..10, 1 => 100u64..200],
            2..50,
        )) {
            prop_assert!(v.len() >= 2 && v.len() < 50);
            prop_assert!(v.iter().all(|&x| x < 10 || (100..200).contains(&x)));
        }

        #[test]
        fn map_and_just(v in Just(7u32).prop_map(|x| x * 2)) {
            prop_assert_eq!(v, 14);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_info() {
        proptest! {
            fn always_fails(x in 0u8..10) {
                prop_assert!(u16::from(x) > 255, "x was {}", x);
            }
        }
        always_fails();
    }
}
