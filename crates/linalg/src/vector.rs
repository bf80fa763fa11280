use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::LinalgError;

/// A dense column vector of `f64` values.
///
/// `Vector` is the measurement/metric carrier throughout the workspace:
/// path measurements `y`, link metrics `x`, and attack manipulation
/// vectors `m` are all `Vector`s.
///
/// ```
/// use tomo_linalg::Vector;
///
/// let y = Vector::from(vec![1.0, 2.0, 3.0]);
/// assert_eq!(y.len(), 3);
/// assert_eq!(y.sum(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    ///
    /// ```
    /// let v = tomo_linalg::Vector::zeros(4);
    /// assert_eq!(v.sum(), 0.0);
    /// ```
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of length `n` filled with `value`.
    #[must_use]
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a unit basis vector `e_i` of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for length {n}");
        let mut v = Vector::zeros(n);
        v[i] = 1.0;
        v
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying slice.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying `Vec<f64>`.
    #[must_use]
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Sum of all entries.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// `self + alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn axpy(&self, alpha: f64, other: &Vector) -> Result<Vector, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + alpha * b)
                .collect(),
        })
    }

    /// Scales every entry by `alpha`, returning a new vector.
    #[must_use]
    pub fn scaled(&self, alpha: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }

    /// Componentwise comparison `self ⪰ other` ("componentwise greater than
    /// or equal", Table I of the paper), used by Constraint 1 checks.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn ge_componentwise(&self, other: &Vector) -> Result<bool, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "ge_componentwise",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).all(|(a, b)| a >= b))
    }

    /// Returns `true` if all entries are within `tol` of the corresponding
    /// entries of `other`.
    #[must_use]
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Largest entry (or `None` for an empty vector).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Smallest entry (or `None` for an empty vector).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::min)
    }

    /// Arithmetic mean (or `None` for an empty vector).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.sum() / self.data.len() as f64)
        }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.data.extend(iter);
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector add: length mismatch");
        self.axpy(1.0, rhs).expect("lengths checked")
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sub: length mismatch");
        self.axpy(-1.0, rhs).expect("lengths checked")
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector sub_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, alpha: f64) -> Vector {
        self.scaled(alpha)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_filled_basis() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Vector::basis(3, 1).as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn axpy_and_ops() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        assert_eq!(a.axpy(0.5, &b).unwrap().as_slice(), &[6.0, 12.0]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_assign_sub_assign() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        let b = Vector::from(vec![2.0, 3.0]);
        a += &b;
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a -= &b;
        assert_eq!(a.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn componentwise_ge() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![1.0, 1.0]);
        assert!(a.ge_componentwise(&b).unwrap());
        assert!(!b.ge_componentwise(&a).unwrap());
        // Non-negativity check pattern used for Constraint 1: m ⪰ 0.
        assert!(a.ge_componentwise(&Vector::zeros(2)).unwrap());
    }

    #[test]
    fn stats() {
        let a = Vector::from(vec![3.0, -1.0, 2.0]);
        assert_eq!(a.max(), Some(3.0));
        assert_eq!(a.min(), Some(-1.0));
        assert!((a.mean().unwrap() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(Vector::zeros(0).mean(), None);
        assert_eq!(Vector::zeros(0).max(), None);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![1.0 + 1e-12, 2.0 - 1e-12]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Vector::zeros(2), 1e-9));
        assert!(!a.approx_eq(&Vector::zeros(3), 1e9));
    }

    #[test]
    fn collect_and_iterate() {
        let v: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.len(), 4);
        let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, vec![0.0, 2.0, 4.0, 6.0]);
        let owned: Vec<f64> = v.clone().into_iter().collect();
        assert_eq!(owned, v.into_inner());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from(vec![1.0]);
        assert!(!format!("{v}").is_empty());
        assert_eq!(format!("{}", Vector::zeros(0)), "[]");
    }

    #[test]
    fn serde_roundtrip() {
        let v = Vector::from(vec![1.5, -2.5]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Vector = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
