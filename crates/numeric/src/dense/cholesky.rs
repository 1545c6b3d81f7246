//! Cholesky factorization of real symmetric positive-definite matrices.
//!
//! Used to sample correlated Gaussian variation fields: if `Σ = L·Lᵀ` then
//! `ξ = L·z` has covariance `Σ` for `z ~ N(0, I)`.

use super::DMatrix;
use crate::NumericError;

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
/// ```
/// use vaem_numeric::dense::{Cholesky, DMatrix};
/// let a = DMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let chol = Cholesky::new(&a)?;
/// let l = chol.factor();
/// let recon = l.matmul(&l.transpose());
/// assert!((recon[(0, 1)] - 2.0).abs() < 1e-12);
/// # Ok::<(), vaem_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix<f64>,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    /// * [`NumericError::DimensionMismatch`] for non-square input.
    /// * [`NumericError::NotPositiveDefinite`] when a pivot is not positive.
    pub fn new(a: &DMatrix<f64>) -> Result<Self, NumericError> {
        Self::with_jitter(a, 0.0)
    }

    /// Factorizes `A + jitter·I`.
    ///
    /// Covariance matrices assembled from smooth correlation kernels are often
    /// numerically semi-definite; a tiny diagonal `jitter` (relative to the
    /// mean diagonal) restores definiteness without visibly changing samples.
    ///
    /// # Errors
    /// Same conditions as [`Cholesky::new`].
    pub fn with_jitter(a: &DMatrix<f64>, jitter: f64) -> Result<Self, NumericError> {
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                detail: format!(
                    "Cholesky requires a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let n = a.rows();
        let mut l = DMatrix::<f64>::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NumericError::NotPositiveDefinite { column: j });
                    }
                    l[(j, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { l })
    }

    /// Factorizes with an automatically chosen jitter: retries with a jitter
    /// growing from `1e-12·trace/n` by factors of 10 until the factorization
    /// succeeds (at most 8 attempts).
    ///
    /// # Errors
    /// Returns the last failure if all attempts fail.
    pub fn new_regularized(a: &DMatrix<f64>) -> Result<Self, NumericError> {
        match Self::new(a) {
            Ok(c) => return Ok(c),
            Err(NumericError::DimensionMismatch { detail }) => {
                return Err(NumericError::DimensionMismatch { detail })
            }
            // Not positive definite: fall through to the jittered retries.
            Err(_) => {}
        }
        let n = a.rows().max(1);
        let mean_diag = (0..a.rows()).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64;
        let mut jitter = (mean_diag.max(1e-300)) * 1e-12;
        let mut last = NumericError::NotPositiveDefinite { column: 0 };
        for _ in 0..8 {
            match Self::with_jitter(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            jitter *= 10.0;
        }
        Err(last)
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &DMatrix<f64> {
        &self.l
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Applies the factor to a standard-normal vector: returns `L·z`.
    ///
    /// # Panics
    /// Panics if `z.len()` differs from the factor dimension.
    pub fn correlate(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.dim(), "correlate: dimension mismatch");
        let n = self.dim();
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..=i {
                acc += self.l[(i, j)] * z[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Solves `A·x = b` using the factorization.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when `b.len()` is wrong.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                detail: format!("rhs length {} does not match dimension {}", b.len(), n),
            });
        }
        // Forward solve L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Backward solve Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Log-determinant of `A` (`2·Σ log L_ii`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DMatrix<f64> {
        DMatrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn reconstructs_original_matrix() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let recon = l.matmul(&l.transpose());
        assert!(recon.sub(&a).frobenius_norm() < 1e-12);
    }

    #[test]
    fn solve_is_consistent_with_matvec() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = c.solve(&b).unwrap();
        for (l, r) in x.iter().zip(x_true.iter()) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumericError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn regularized_accepts_semi_definite() {
        // Rank-1 covariance (semi-definite).
        let a = DMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let c = Cholesky::new_regularized(&a).unwrap();
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn correlate_reproduces_factor_columns() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let e0 = c.correlate(&[1.0, 0.0, 0.0]);
        assert!((e0[0] - c.factor()[(0, 0)]).abs() < 1e-15);
        assert!((e0[2] - c.factor()[(2, 0)]).abs() < 1e-15);
    }

    #[test]
    fn log_det_matches_the_closed_form_determinant() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        // Cofactor expansion along the first row.
        let det = a[(0, 0)] * (a[(1, 1)] * a[(2, 2)] - a[(1, 2)] * a[(2, 1)])
            - a[(0, 1)] * (a[(1, 0)] * a[(2, 2)] - a[(1, 2)] * a[(2, 0)])
            + a[(0, 2)] * (a[(1, 0)] * a[(2, 1)] - a[(1, 1)] * a[(2, 0)]);
        assert!((det - 44.6).abs() < 1e-12);
        assert!((c.log_det() - det.ln()).abs() < 1e-10);
    }
}
