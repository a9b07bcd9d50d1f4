//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;
use std::ops::Range;

/// Strategy producing `Vec`s with lengths drawn from `size` and elements
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(
        !size.is_empty(),
        "vec strategy needs a non-empty size range"
    );
    VecStrategy { element, size }
}

/// Result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.clone());
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
