//! Direct sparse LU factorization (left-looking, Gilbert–Peierls style) with
//! partial pivoting.
//!
//! The direct factorization is the robust fallback for the coupled systems
//! when the ILU-preconditioned Krylov solvers stagnate, and the default for
//! small and medium meshes where its cost is negligible.
//!
//! [`SparseLu::new`] is a **cold natural-order factorization**: scalar
//! column kernel, full pivot search per column. The solvers factorize
//! through [`crate::SymbolicLu`], which adds fill-reducing ordering
//! selection (RCM vs AMD), a supernode-blocked numeric phase and
//! elimination-tree parallelism on top of the same factor representation;
//! this type is the triangular-solve container of those factors, and
//! `SparseLu::new` the independent reference its tests compare against.

use crate::{CsrMatrix, SparseError};
use vaem_numeric::Scalar;

/// Sparse LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// `L` is unit lower triangular and `U` upper triangular, both stored by
/// column in pivot coordinates.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, SparseLu};
/// let a = CsrMatrix::from_triplets(3, 3, &[
///     (0, 0, 2.0), (0, 1, 1.0),
///     (1, 0, -1.0), (1, 1, 3.0), (1, 2, 0.5),
///     (2, 1, 1.0), (2, 2, 4.0),
/// ]);
/// let lu = SparseLu::new(&a)?;
/// let x = lu.solve(&[1.0, 2.0, 3.0])?;
/// let r = a.residual(&x, &[1.0, 2.0, 3.0]);
/// assert!(r.iter().map(|v| v * v).sum::<f64>().sqrt() < 1e-12);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar = f64> {
    n: usize,
    /// Strictly-lower part of L by column (pivot coordinates), unit diagonal implied.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<T>,
    /// U by column (pivot coordinates), including the diagonal as the last entry.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<T>,
    /// `prow[k]` = original row chosen as the k-th pivot.
    prow: Vec<usize>,
    /// Optional column permutation `cperm[k] = original column` applied when
    /// the factorization was computed on a symmetrically permuted matrix
    /// (see [`crate::SymbolicLu`]); `None` for the natural ordering.
    cperm: Option<Vec<usize>>,
}

impl<T: Scalar> SparseLu<T> {
    /// Factorizes a square sparse matrix.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] for a non-square matrix.
    /// * [`SparseError::ZeroPivot`] when no usable pivot exists in a column
    ///   (structurally or numerically singular matrix).
    pub fn new(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(SparseError::DimensionMismatch {
                detail: format!("sparse LU requires a square matrix, got {}x{}", n, a.cols()),
            });
        }
        // Column access: row r of Aᵀ is column r of A.
        let at = a.transpose();

        // pinv[orig_row] = pivot index, or usize::MAX if not yet pivotal.
        let mut pinv = vec![usize::MAX; n];
        let mut prow = vec![usize::MAX; n];

        // L columns in *original* row indices during factorization.
        let mut l_colptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        // U columns in pivot coordinates.
        let mut u_colptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();

        // Work arrays.
        let mut x = vec![T::zero(); n]; // dense accumulator indexed by original row
        let mut mark = vec![usize::MAX; n]; // visitation stamp per original row
        let mut topo: Vec<usize> = Vec::with_capacity(n); // reverse postorder (original rows)
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for j in 0..n {
            // ---- symbolic: find the pattern reachable from A[:, j] ----
            topo.clear();
            for (orig_row, _) in at.row_entries(j) {
                if mark[orig_row] == j {
                    continue;
                }
                // Iterative DFS producing a postorder.
                dfs_stack.push((orig_row, 0));
                mark[orig_row] = j;
                while let Some(&mut (node, ref mut child_pos)) = dfs_stack.last_mut() {
                    let k = pinv[node];
                    let children: &[usize] = if k == usize::MAX {
                        &[]
                    } else {
                        &l_rows[l_colptr[k]..l_colptr[k + 1]]
                    };
                    if *child_pos < children.len() {
                        let child = children[*child_pos];
                        *child_pos += 1;
                        if mark[child] != j {
                            mark[child] = j;
                            dfs_stack.push((child, 0));
                        }
                    } else {
                        topo.push(node);
                        dfs_stack.pop();
                    }
                }
            }
            // Reverse postorder = topological order of dependencies.
            topo.reverse();

            // ---- numeric: sparse triangular solve ----
            for &r in &topo {
                x[r] = T::zero();
            }
            for (orig_row, v) in at.row_entries(j) {
                x[orig_row] = v;
            }
            for &r in &topo {
                let k = pinv[r];
                if k == usize::MAX {
                    continue;
                }
                let xr = x[r];
                if xr.modulus() == 0.0 {
                    continue;
                }
                for idx in l_colptr[k]..l_colptr[k + 1] {
                    let rr = l_rows[idx];
                    let lv = l_vals[idx];
                    x[rr] -= xr * lv;
                }
            }

            // ---- pivot selection among non-pivotal rows of the pattern ----
            let mut piv_row = usize::MAX;
            let mut piv_mag = 0.0_f64;
            for &r in &topo {
                if pinv[r] == usize::MAX {
                    let m = x[r].modulus();
                    if m > piv_mag {
                        piv_mag = m;
                        piv_row = r;
                    }
                }
            }
            if piv_row == usize::MAX || piv_mag == 0.0 {
                return Err(SparseError::ZeroPivot { index: j });
            }
            let piv_val = x[piv_row];

            // ---- store U[:, j] (pivotal rows) and L[:, j] (non-pivotal) ----
            for &r in &topo {
                let k = pinv[r];
                if k != usize::MAX {
                    let v = x[r];
                    if v.modulus() > 0.0 {
                        u_rows.push(k);
                        u_vals.push(v);
                    }
                }
            }
            // Diagonal of U last within the column for an easy backward solve.
            u_rows.push(j);
            u_vals.push(piv_val);
            u_colptr.push(u_rows.len());

            for &r in &topo {
                if pinv[r] == usize::MAX && r != piv_row {
                    let v = x[r];
                    if v.modulus() > 0.0 {
                        l_rows.push(r);
                        l_vals.push(v / piv_val);
                    }
                }
            }
            l_colptr.push(l_rows.len());

            pinv[piv_row] = j;
            prow[j] = piv_row;
        }

        // Remap L row indices from original rows to pivot coordinates.
        for r in &mut l_rows {
            *r = pinv[*r];
        }

        Ok(Self {
            n,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            prow,
            cperm: None,
        })
    }

    /// Assembles a factorization from raw parts (used by the symbolic/numeric
    /// split in [`crate::SymbolicLu`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: usize,
        l_colptr: Vec<usize>,
        l_rows: Vec<usize>,
        l_vals: Vec<T>,
        u_colptr: Vec<usize>,
        u_rows: Vec<usize>,
        u_vals: Vec<T>,
        prow: Vec<usize>,
        cperm: Option<Vec<usize>>,
    ) -> Self {
        Self {
            n,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            prow,
            cperm,
        }
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total number of stored factor entries (fill).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    /// Returns [`SparseError::DimensionMismatch`] if `b.len()` is wrong.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SparseError> {
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                detail: format!("rhs length {} does not match dimension {}", b.len(), self.n),
            });
        }
        // y = P b
        let mut y: Vec<T> = (0..self.n).map(|k| b[self.prow[k]]).collect();
        // Forward solve L y = P b (unit diagonal).
        for k in 0..self.n {
            let yk = y[k];
            if yk.modulus() == 0.0 {
                continue;
            }
            for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                let i = self.l_rows[idx];
                let v = self.l_vals[idx];
                y[i] -= yk * v;
            }
        }
        // Backward solve U x = y (columns processed right to left; the
        // diagonal is the last entry of each column).
        for k in (0..self.n).rev() {
            let lo = self.u_colptr[k];
            let hi = self.u_colptr[k + 1];
            let diag = self.u_vals[hi - 1];
            let xk = y[k] / diag;
            y[k] = xk;
            for idx in lo..(hi - 1) {
                let i = self.u_rows[idx];
                let v = self.u_vals[idx];
                y[i] -= xk * v;
            }
        }
        // Undo the symmetric (column) permutation, if any.
        match &self.cperm {
            None => Ok(y),
            Some(perm) => {
                let mut x = vec![T::zero(); self.n];
                for (k, &old) in perm.iter().enumerate() {
                    x[old] = y[k];
                }
                Ok(x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_numeric::{vecops, Complex64};

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
        let lu = SparseLu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
    }

    #[test]
    fn partial_pivoting_handles_zero_diagonal() {
        // Permutation-like matrix: zero diagonal everywhere.
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
        let lu = SparseLu::new(&a).unwrap();
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
        assert!(matches!(
            SparseLu::new(&a),
            Err(SparseError::ZeroPivot { .. })
        ));
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
        let lu = SparseLu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
    }

    #[test]
    fn factor_reports_fill() {
        let a = laplacian_2d(6);
        let lu = SparseLu::new(&a).unwrap();
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
        let lu = SparseLu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn wrong_rhs_length_is_an_error() {
        let a = laplacian_2d(3);
        let lu = SparseLu::new(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }
}
