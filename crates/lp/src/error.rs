use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a linear program.
///
/// Note that an *infeasible* or *unbounded* LP is not an error — it is a
/// legitimate outcome reported through
/// [`LpStatus`](crate::LpStatus); errors indicate malformed models or a
/// solver breakdown.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// A variable id referenced a variable that does not belong to this
    /// problem.
    UnknownVariable {
        /// The offending index.
        index: usize,
        /// Number of variables in the problem.
        count: usize,
    },
    /// A variable was declared with `lower > upper`.
    InvalidBounds {
        /// Index the variable would have had.
        index: usize,
        /// Declared lower bound.
        lower: f64,
        /// Declared upper bound.
        upper: f64,
    },
    /// A coefficient or bound was NaN/infinite where a finite value is
    /// required.
    NonFiniteCoefficient {
        /// Where the bad value appeared.
        context: &'static str,
    },
    /// A sparse row's structure is invalid: its index and value slices
    /// differ in length, or its indices are not strictly ascending.
    MalformedRow {
        /// What is wrong with the row.
        reason: &'static str,
    },
    /// The simplex iteration limit was exceeded (indicates severe
    /// degeneracy or a bug; should not occur with Bland fallback).
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The basis matrix turned out singular: a revised-simplex
    /// refactorization found no usable pivot, or the chaos seam injected
    /// one.
    SingularBasis {
        /// Number of basic rows involved.
        rows: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::UnknownVariable { index, count } => {
                write!(
                    f,
                    "unknown variable index {index} (problem has {count} variables)"
                )
            }
            LpError::InvalidBounds {
                index,
                lower,
                upper,
            } => {
                write!(f, "variable {index} has invalid bounds [{lower}, {upper}]")
            }
            LpError::NonFiniteCoefficient { context } => {
                write!(f, "non-finite coefficient in {context}")
            }
            LpError::MalformedRow { reason } => {
                write!(f, "malformed sparse row: {reason}")
            }
            LpError::IterationLimit { limit } => {
                write!(f, "simplex exceeded {limit} iterations")
            }
            LpError::SingularBasis { rows } => {
                write!(f, "singular basis over {rows} rows")
            }
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LpError::UnknownVariable { index: 7, count: 3 };
        assert!(e.to_string().contains('7'));
        let e = LpError::InvalidBounds {
            index: 5,
            lower: 2.0,
            upper: 1.0,
        };
        assert!(e.to_string().contains("variable 5"));
        assert!(LpError::NonFiniteCoefficient {
            context: "objective"
        }
        .to_string()
        .contains("objective"));
        assert!(LpError::MalformedRow {
            reason: "indices not strictly ascending"
        }
        .to_string()
        .contains("malformed sparse row: indices not strictly ascending"));
        assert!(LpError::IterationLimit { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(LpError::SingularBasis { rows: 4 }.to_string().contains('4'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
