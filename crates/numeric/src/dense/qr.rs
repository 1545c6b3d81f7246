//! Householder QR factorization and least-squares solves.
//!
//! The SSCM layer fits the quadratic Hermite chaos to the collocation
//! samples by regression: it factors the design matrix once with this QR and
//! solves one least-squares problem per output quantity.

use super::DMatrix;
use crate::NumericError;

/// Householder QR factorization of an `m×n` real matrix with `m ≥ n`.
///
/// # Example
/// ```
/// use vaem_numeric::dense::{DMatrix, Qr};
/// // Fit y = a + b·x to three points in the least-squares sense.
/// let a = DMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
/// let y = vec![1.0, 3.0, 5.0];
/// let qr = Qr::new(&a)?;
/// let coeff = qr.solve_least_squares(&y)?;
/// assert!((coeff[0] - 1.0).abs() < 1e-12 && (coeff[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), vaem_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal, R on/above.
    qr: DMatrix<f64>,
    /// Scaling factors of the Householder reflectors.
    betas: Vec<f64>,
}

impl Qr {
    /// Factorizes `a` (requires at least as many rows as columns).
    ///
    /// # Errors
    /// * [`NumericError::DimensionMismatch`] if `rows < cols`.
    /// * [`NumericError::Singular`] if a column is (numerically) dependent.
    pub fn new(a: &DMatrix<f64>) -> Result<Self, NumericError> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(NumericError::DimensionMismatch {
                detail: format!("QR requires rows >= cols, got {m}x{n}"),
            });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];

        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                return Err(NumericError::Singular { pivot: k });
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // v = [v0, qr[k+1.., k]], beta = 2 / ||v||^2
            let mut vnorm2 = v0 * v0;
            for i in (k + 1)..m {
                vnorm2 += qr[(i, k)] * qr[(i, k)];
            }
            if vnorm2 == 0.0 {
                betas[k] = 0.0;
                qr[(k, k)] = alpha;
                continue;
            }
            let beta = 2.0 / vnorm2;
            betas[k] = beta;

            // Apply the reflector to the trailing columns.
            for j in (k + 1)..n {
                let mut dot = v0 * qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                let dot = dot * beta;
                qr[(k, j)] -= dot * v0;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= dot * vik;
                }
            }
            // Store: R diagonal value and the reflector vector (v0 implicit).
            qr[(k, k)] = alpha;
            // Normalize stored sub-diagonal entries by v0 so that v = [1, stored...].
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            betas[k] *= v0 * v0;
        }

        Ok(Self { qr, betas })
    }

    /// Number of columns (unknowns) of the factorized matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// Number of rows (equations) of the factorized matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    /// * [`NumericError::DimensionMismatch`] if `b.len() != rows`.
    /// * [`NumericError::Singular`] if `R` has a zero diagonal entry.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let m = self.rows();
        let n = self.cols();
        if b.len() != m {
            return Err(NumericError::DimensionMismatch {
                detail: format!("rhs length {} does not match rows {}", b.len(), m),
            });
        }
        // Apply Qᵀ to b.
        let mut y = b.to_vec();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * y[i];
            }
            let dot = dot * beta;
            y[k] -= dot;
            for i in (k + 1)..m {
                y[i] -= dot * self.qr[(i, k)];
            }
        }
        // Back substitution with R.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            let r_ii = self.qr[(i, i)];
            if r_ii == 0.0 {
                return Err(NumericError::Singular { pivot: i });
            }
            x[i] = acc / r_ii;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_system_solution_matches_the_exact_solution() {
        let a = DMatrix::from_rows(&[
            vec![2.0, 1.0, 0.3],
            vec![-1.0, 3.0, 1.0],
            vec![0.5, 0.2, 4.0],
        ]);
        let x_true = vec![0.7, -1.3, 2.1];
        let b = a.matvec(&x_true);
        let qr = Qr::new(&a).unwrap();
        let x_qr = qr.solve_least_squares(&b).unwrap();
        for (p, q) in x_qr.iter().zip(x_true.iter()) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn overdetermined_regression_recovers_exact_model() {
        // y = 2 + 3x - x^2 sampled without noise: LS must recover exactly.
        let xs: [f64; 6] = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
        let a = DMatrix::from_fn(xs.len(), 3, |i, j| xs[i].powi(j as i32));
        let y: Vec<f64> = xs.iter().map(|&x| 2.0 + 3.0 * x - x * x).collect();
        let qr = Qr::new(&a).unwrap();
        let c = qr.solve_least_squares(&y).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-10);
        assert!((c[1] - 3.0).abs() < 1e-10);
        assert!((c[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns() {
        let a = DMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let b = vec![0.0, 1.0, 1.0, 3.0];
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
        // A^T r should be ~0.
        for j in 0..a.cols() {
            let col = a.column(j);
            let dot: f64 = col.iter().zip(r.iter()).map(|(c, ri)| c * ri).sum();
            assert!(dot.abs() < 1e-10);
        }
    }

    #[test]
    fn underdetermined_is_rejected() {
        let a = DMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            Qr::new(&a),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_column_is_detected() {
        let a = DMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]]);
        assert!(matches!(Qr::new(&a), Err(NumericError::Singular { .. })));
    }
}
