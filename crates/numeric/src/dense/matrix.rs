//! Row-major dense matrix generic over [`Scalar`].

use crate::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix over a [`Scalar`] type.
///
/// # Example
/// ```
/// use vaem_numeric::dense::DMatrix;
/// let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = a.matmul(&DMatrix::<f64>::identity(2));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct DMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DMatrix<T> {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: empty input");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "from_rows: ragged rows"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of a full row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of a full row as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn column(&self, j: usize) -> Vec<T> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Underlying data in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate-transposed (Hermitian) copy.
    pub fn conj_transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![T::zero(); self.rows];
        for i in 0..self.rows {
            let mut acc = T::zero();
            let row = self.row(i);
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// Runs an `i`–`k`–`j` loop on contiguous row slices, with `k` blocked so
    /// the rows of `B` touched by a block stay cache-resident while every row
    /// of `A` streams through — the PFA/wPFA covariance products are the hot
    /// consumers.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = Self::zeros(self.rows, other.cols);
        let nc = other.cols;
        const K_BLOCK: usize = 64;
        for k0 in (0..self.cols).step_by(K_BLOCK) {
            let k1 = (k0 + K_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out.data[i * nc..(i + 1) * nc];
                for k in k0..k1 {
                    let aik = a_row[k];
                    if aik == T::zero() {
                        continue;
                    }
                    let b_row = &other.data[k * nc..(k + 1) * nc];
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += aik * b;
                    }
                }
            }
        }
        out
    }

    /// Transpose-aware product `A·Bᵀ` (no conjugation) without materializing
    /// the transpose: entry `(i, j)` is the plain dot product of row `i` of
    /// `A` with row `j` of `B`, so both operands stream contiguously.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn matmul_transpose(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose: dimension mismatch"
        );
        let mut out = Self::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * other.cols..(j + 1) * other.cols];
                let mut acc = T::zero();
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Self::from_fn(self.rows, self.cols, |i, j| self[(i, j)] + other[(i, j)])
    }

    /// Element-wise difference.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Self::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - other[(i, j)])
    }

    /// Scales every entry by a real factor.
    pub fn scale(&self, s: f64) -> Self {
        Self::from_fn(self.rows, self.cols, |i, j| self[(i, j)].scale(s))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.modulus_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum modulus entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }
}

impl DMatrix<f64> {
    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl<T: Scalar> Index<(usize, usize)> for DMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for DMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn identity_matvec_is_identity() {
        let eye = DMatrix::<f64>::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(eye.matvec(&x), x);
    }

    #[test]
    fn matmul_matches_manual_result() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-0.5, 0.25, 4.0]]);
        let b = DMatrix::from_rows(&[
            vec![2.0, -1.0, 0.5],
            vec![1.5, 3.0, -2.0],
            vec![0.0, 1.0, 1.0],
            vec![-1.0, 0.0, 2.5],
        ]);
        let fast = a.matmul_transpose(&b);
        let reference = a.matmul(&b.transpose());
        assert_eq!(fast.rows(), 2);
        assert_eq!(fast.cols(), 4);
        assert!(fast.sub(&reference).frobenius_norm() < 1e-14);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_larger_sizes() {
        // Exercise the k-blocking path (cols > block size).
        let a = DMatrix::from_fn(7, 150, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = DMatrix::from_fn(150, 5, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        let fast = a.matmul(&b);
        let mut naive = DMatrix::<f64>::zeros(7, 5);
        for i in 0..7 {
            for j in 0..5 {
                for k in 0..150 {
                    naive[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        assert!(fast.sub(&naive).frobenius_norm() < 1e-10);
    }

    #[test]
    fn transpose_and_conj_transpose() {
        let a = DMatrix::from_rows(&[vec![Complex64::new(1.0, 2.0), Complex64::new(3.0, 4.0)]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t[(1, 0)], Complex64::new(3.0, 4.0));
        let h = a.conj_transpose();
        assert_eq!(h[(1, 0)], Complex64::new(3.0, -4.0));
    }

    #[test]
    fn diagonal_constructor() {
        let d = DMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert!((d.frobenius_norm() - 14.0_f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn symmetric_check() {
        let s = DMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = DMatrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]);
        assert!(!ns.is_symmetric(1e-12));
    }

    #[test]
    fn add_sub_scale() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0]]);
        let b = DMatrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.add(&b)[(0, 1)], 6.0);
        assert_eq!(b.sub(&a)[(0, 0)], 2.0);
        assert_eq!(a.scale(2.0)[(0, 1)], 4.0);
        assert_eq!(b.max_abs(), 4.0);
    }

    #[test]
    fn row_and_column_access() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.column(0), vec![1.0, 3.0]);
    }
}
