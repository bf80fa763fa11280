//! Collection strategies (`vec`).

use crate::{Strategy, TestRng};

/// Inclusive-exclusive length bounds for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest allowed length.
    pub lo: usize,
    /// Largest allowed length (inclusive).
    pub hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy yielding `Vec`s whose length falls in `size` and whose
/// elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec`](fn@vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.hi - self.size.lo + 1) as u64;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
