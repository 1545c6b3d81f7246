//! The factors of the direct sparse LU and their triangular solves.
//!
//! [`crate::SymbolicLu`] computes them: an AMD ordering, one left-looking
//! (Gilbert–Peierls) factorization with partial pivoting that records the
//! pivot sequence and the factor structure, and supernode-blocked numeric
//! refactorizations against that record. A [`SparseLu`] holds the recorded
//! structure by `Arc` next to its own factor values.
//!
//! The direct factorization rescues the ILU-preconditioned Krylov solver
//! when it stagnates, and is the default for small and medium meshes where
//! its cost is negligible.

use crate::symbolic::LuStructure;
use crate::SparseError;
use std::sync::Arc;
use vaem_numeric::Scalar;

/// Sparse LU factorization `P·Ap = L·U` of `Ap = A(p, p)`, the matrix under
/// its symmetric fill-reducing ordering `p`, with partial (row) pivoting
/// `P`.
///
/// `L` is unit lower triangular and `U` upper triangular, both stored by
/// column in pivot coordinates. Produced by [`crate::SymbolicLu::factor`].
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar = f64> {
    /// The recorded pivot rows, ordering and L/U structure, shared with the
    /// symbolic analysis and every factorization replayed against it.
    structure: Arc<LuStructure>,
    /// Strictly-lower values of L by column, unit diagonal implied.
    l_vals: Vec<T>,
    /// Values of U by column, the diagonal last.
    u_vals: Vec<T>,
}

impl<T: Scalar> SparseLu<T> {
    /// Pairs factor values with the structure they were computed against.
    pub(crate) fn from_values(structure: Arc<LuStructure>, l_vals: Vec<T>, u_vals: Vec<T>) -> Self {
        debug_assert_eq!(l_vals.len(), structure.l_rows.len());
        debug_assert_eq!(u_vals.len(), structure.u_rows.len());
        Self {
            structure,
            l_vals,
            u_vals,
        }
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.structure.perm.len()
    }

    /// Total number of stored factor entries (fill).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len()
    }

    /// The strictly-lower values of L, in storage order.
    #[cfg(test)]
    pub(crate) fn l_values(&self) -> &[T] {
        &self.l_vals
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    /// Returns [`SparseError::DimensionMismatch`] if `b.len()` is wrong.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SparseError> {
        let st = &*self.structure;
        let n = self.dim();
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                detail: format!("rhs length {} does not match dimension {}", b.len(), n),
            });
        }
        // y = P b
        let mut y: Vec<T> = st.prow.iter().map(|&r| b[r]).collect();
        // Forward solve L y = P b (unit diagonal).
        for k in 0..n {
            let yk = y[k];
            if yk.modulus() == 0.0 {
                continue;
            }
            for idx in st.l_colptr[k]..st.l_colptr[k + 1] {
                let i = st.l_rows[idx];
                let v = self.l_vals[idx];
                y[i] -= yk * v;
            }
        }
        // Backward solve U x = y (columns processed right to left; the
        // diagonal is the last entry of each column).
        for k in (0..n).rev() {
            let lo = st.u_colptr[k];
            let hi = st.u_colptr[k + 1];
            let diag = self.u_vals[hi - 1];
            let xk = y[k] / diag;
            y[k] = xk;
            for idx in lo..(hi - 1) {
                let i = st.u_rows[idx];
                let v = self.u_vals[idx];
                y[i] -= xk * v;
            }
        }
        // Undo the symmetric permutation.
        let mut x = vec![T::zero(); n];
        for (k, &old) in st.perm.iter().enumerate() {
            x[old] = y[k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, SymbolicLu};
    use vaem_numeric::{vecops, Complex64};

    /// Factors `a` on the production path: AMD analysis, then the
    /// recording factorization.
    fn factor<T: Scalar>(a: &CsrMatrix<T>) -> Result<SparseLu<T>, SparseError> {
        SymbolicLu::analyze(a)?.factor(a)
    }

    fn laplacian_2d(nx: usize) -> CsrMatrix<f64> {
        let n = nx * nx;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                t.push((idx(i, j), idx(i, j), 4.0));
                if i > 0 {
                    t.push((idx(i, j), idx(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    t.push((idx(i, j), idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((idx(i, j), idx(i, j - 1), -1.0));
                }
                if j + 1 < nx {
                    t.push((idx(i, j), idx(i, j + 1), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn solves_2d_laplacian_exactly() {
        let a = laplacian_2d(10);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true);
        let lu = factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
    }

    #[test]
    fn partial_pivoting_handles_zero_diagonal() {
        // Permutation-like matrix: zero diagonal everywhere.
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
        let lu = factor(&a).unwrap();
        let b = vec![2.0, 6.0, 8.0];
        let x = lu.solve(&b).unwrap();
        // x = [2, 1, 2]
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0)]);
        assert!(matches!(factor(&a), Err(SparseError::ZeroPivot { .. })));
    }

    #[test]
    fn complex_unsymmetric_system() {
        let n = 50;
        let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
        for i in 0..n {
            t.push((i, i, Complex64::new(3.0, 1.0)));
            if i > 0 {
                t.push((i, i - 1, Complex64::new(-1.0, 0.4)));
            }
            if i + 1 < n {
                t.push((i, i + 1, Complex64::new(-0.8, -0.2)));
            }
            if i + 5 < n {
                t.push((i, i + 5, Complex64::new(0.3, 0.0)));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.2).sin()))
            .collect();
        let b = a.matvec(&x_true);
        let lu = factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
    }

    #[test]
    fn factor_reports_fill() {
        let a = laplacian_2d(6);
        let lu = factor(&a).unwrap();
        assert!(lu.factor_nnz() >= a.nnz());
        assert_eq!(lu.dim(), a.rows());
    }

    #[test]
    fn ill_conditioned_diagonal_scaling_still_solves() {
        // Huge dynamic range, as in metal vs dielectric conductivities.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 5.8e7),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2e-6),
                (1, 2, -1e-6),
                (2, 1, -1e-6),
                (2, 2, 3e-6),
            ],
        );
        let x_true = vec![1e-3, 2.0, -4.0];
        let b = a.matvec(&x_true);
        let lu = factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn wrong_rhs_length_is_an_error() {
        let a = laplacian_2d(3);
        let lu = factor(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }
}
