//! Incomplete LU factorization with zero fill-in (ILU(0)).

use crate::{CsrMatrix, SparseError};
use std::sync::Arc;
use vaem_numeric::Scalar;

/// ILU(0) preconditioner: an approximate factorization `A ≈ L·U` that keeps
/// exactly the sparsity pattern of `A`.
///
/// Used to precondition [`crate::BiCgStab`] on the coupled FVM systems.
///
/// The factors are stored for the triangular sweeps of
/// [`Ilu0::apply_into`], not in CSR order: the strict-L rows and the U
/// rows (each led by its pivot) are laid out in *level order*, where a
/// row's level is one more than the deepest row it reads. Rows of one
/// level do not depend on each other, so the sweeps run them back to back
/// instead of following one dependency chain through the natural order.
/// Every row still sees the same operations in the same order, so the
/// result is bit-identical to the natural-order sweep. The level schedule
/// depends on the sparsity pattern only: it is built once, and clones and
/// the lazy ILU refresh of [`crate::PreparedSolver`] share it.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, Ilu0};
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// let ilu = Ilu0::new(&a)?;
/// let z = ilu.apply(&[1.0, 1.0]);
/// // For a 2x2 matrix ILU(0) is exact, so A·z = [1, 1].
/// let az = a.matvec(&z);
/// assert!((az[0] - 1.0).abs() < 1e-12 && (az[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ilu0<T: Scalar = f64> {
    schedule: Arc<LevelSchedule>,
    /// Strict-L values, aligned with `schedule.lower_cols`.
    lower: Vec<T>,
    /// U values, aligned with `schedule.upper_cols`: each row starts with
    /// its pivot.
    upper: Vec<T>,
}

/// The pattern half of an [`Ilu0`]: its factor rows in level order, with
/// `u32` indices.
#[derive(Debug)]
struct LevelSchedule {
    n: usize,
    /// Rows of the forward sweep in level order (ascending row within a
    /// level).
    lower_rows: Vec<u32>,
    /// Start of each forward row's entries in `lower_cols`
    /// (`n + 1` entries).
    lower_ptr: Vec<u32>,
    /// Strict-lower columns, row by row in level order, ascending within a
    /// row.
    lower_cols: Vec<u32>,
    /// Start of each backward row's entries in `upper_cols`
    /// (`n + 1` entries).
    upper_ptr: Vec<u32>,
    /// U columns, row by row in backward level order: each row starts with
    /// its diagonal (the row itself), then its strict-upper columns in
    /// ascending order.
    upper_cols: Vec<u32>,
}

/// The ILU(0) factors in the CSR layout of the matrix they were computed
/// from: the IKJ elimination's working copy, before [`LevelSchedule`]
/// reorders it.
struct CsrFactors<T: Scalar> {
    values: Vec<T>,
    diag_pos: Vec<usize>,
}

impl<T: Scalar> CsrFactors<T> {
    /// IKJ-variant ILU(0) factorization of `a`, restricted to its pattern.
    fn new(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "ILU(0) requires a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        a.require_diagonal()?;
        let n = a.rows();
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        let mut values = a.values().to_vec();

        // Locate the diagonal position of each row.
        let mut diag_pos = vec![0usize; n];
        for r in 0..n {
            for k in row_ptr[r]..row_ptr[r + 1] {
                if col_idx[k] == r {
                    diag_pos[r] = k;
                    break;
                }
            }
        }

        // `pos_of_col[c]` maps a column index to its position in the current
        // row (usize::MAX when the column is not present).
        let mut pos_of_col = vec![usize::MAX; n];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                pos_of_col[col_idx[k]] = k;
            }
            // Eliminate entries left of the diagonal. Row `k < i` was
            // finished, and its pivot checked nonzero, before row `i` began.
            for kp in row_ptr[i]..diag_pos[i] {
                let k = col_idx[kp];
                let lik = values[kp] / values[diag_pos[k]];
                values[kp] = lik;
                for kk in (diag_pos[k] + 1)..row_ptr[k + 1] {
                    let j = col_idx[kk];
                    let pos = pos_of_col[j];
                    if pos != usize::MAX {
                        let update = lik * values[kk];
                        values[pos] -= update;
                    }
                }
            }
            if values[diag_pos[i]] == T::zero() {
                return Err(SparseError::ZeroPivot { index: i });
            }
            for k in row_ptr[i]..row_ptr[i + 1] {
                pos_of_col[col_idx[k]] = usize::MAX;
            }
        }
        Ok(Self { values, diag_pos })
    }
}

/// Rows `0..level.len()` ordered by level, ascending within a level: one
/// stable counting sort, O(n + levels). The caller has checked that the
/// row count fits `u32`.
fn by_level(level: &[u32]) -> Vec<u32> {
    let depth = level.iter().max().map_or(0, |&l| l as usize + 1);
    let mut next = vec![0usize; depth + 1];
    for &l in level {
        next[l as usize + 1] += 1;
    }
    for d in 0..depth {
        next[d + 1] += next[d];
    }
    let mut order = vec![0u32; level.len()];
    for (&l, row) in level.iter().zip(0u32..) {
        order[next[l as usize]] = row;
        next[l as usize] += 1;
    }
    order
}

impl LevelSchedule {
    /// Level-orders the pattern of `a` and lays its CSR-ordered `factors`
    /// out in that order. O(n + nnz).
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] when the dimension or the entry
    /// count does not fit the `u32` indices.
    fn build<T: Scalar>(
        a: &CsrMatrix<T>,
        factors: &CsrFactors<T>,
    ) -> Result<(Self, Vec<T>, Vec<T>), SparseError> {
        let n = a.rows();
        let index = |i: usize| {
            u32::try_from(i).map_err(|_| SparseError::DimensionMismatch {
                detail: format!(
                    "ILU(0) indexes rows and entries with u32; got {n} rows and {} entries",
                    a.nnz()
                ),
            })
        };
        index(n)?;
        index(a.nnz())?;
        let (row_ptr, col_idx, diag_pos) = (a.row_ptr(), a.col_idx(), &factors.diag_pos);

        // A row's level is one more than the deepest row it reads: the
        // forward sweep reads the rows of its strict-L columns, the
        // backward sweep those of its strict-U columns.
        let mut forward = vec![0u32; n];
        for i in 0..n {
            forward[i] = col_idx[row_ptr[i]..diag_pos[i]]
                .iter()
                .map(|&c| forward[c] + 1)
                .max()
                .unwrap_or(0);
        }
        let mut backward = vec![0u32; n];
        for i in (0..n).rev() {
            backward[i] = col_idx[diag_pos[i] + 1..row_ptr[i + 1]]
                .iter()
                .map(|&c| backward[c] + 1)
                .max()
                .unwrap_or(0);
        }

        let lower_len: usize = (0..n).map(|i| diag_pos[i] - row_ptr[i]).sum();
        let lower_rows = by_level(&forward);
        let mut lower_ptr = Vec::with_capacity(n + 1);
        let mut lower_cols = Vec::with_capacity(lower_len);
        let mut lower = Vec::with_capacity(lower_len);
        lower_ptr.push(0);
        for &row in &lower_rows {
            for k in row_ptr[row as usize]..diag_pos[row as usize] {
                lower_cols.push(index(col_idx[k])?);
                lower.push(factors.values[k]);
            }
            lower_ptr.push(index(lower_cols.len())?);
        }
        let mut upper_ptr = Vec::with_capacity(n + 1);
        let mut upper_cols = Vec::with_capacity(a.nnz() - lower_len);
        let mut upper = Vec::with_capacity(a.nnz() - lower_len);
        upper_ptr.push(0);
        for row in by_level(&backward) {
            for k in diag_pos[row as usize]..row_ptr[row as usize + 1] {
                upper_cols.push(index(col_idx[k])?);
                upper.push(factors.values[k]);
            }
            upper_ptr.push(index(upper_cols.len())?);
        }
        let schedule = Self {
            n,
            lower_rows,
            lower_ptr,
            lower_cols,
            upper_ptr,
            upper_cols,
        };
        Ok((schedule, lower, upper))
    }

    /// Lays the CSR-ordered `factors` of `a` out in this schedule's level
    /// order. `None` when `a`'s pattern is not the one the schedule was
    /// built for: every row is visited once and its columns compared, so
    /// a match proves the patterns equal.
    fn gather<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        factors: &CsrFactors<T>,
    ) -> Option<(Vec<T>, Vec<T>)> {
        if a.rows() != self.n || a.nnz() != self.lower_cols.len() + self.upper_cols.len() {
            return None;
        }
        let (row_ptr, col_idx, diag_pos) = (a.row_ptr(), a.col_idx(), &factors.diag_pos);
        let same = |csr: &[usize], ours: &[u32]| {
            csr.len() == ours.len() && csr.iter().zip(ours).all(|(&c, &o)| c == o as usize)
        };
        let mut lower = Vec::with_capacity(self.lower_cols.len());
        for (span, &row) in self.lower_ptr.windows(2).zip(&self.lower_rows) {
            let (lo, hi) = (row_ptr[row as usize], diag_pos[row as usize]);
            if !same(
                &col_idx[lo..hi],
                &self.lower_cols[span[0] as usize..span[1] as usize],
            ) {
                return None;
            }
            lower.extend_from_slice(&factors.values[lo..hi]);
        }
        let mut upper = Vec::with_capacity(self.upper_cols.len());
        for span in self.upper_ptr.windows(2) {
            let cols = &self.upper_cols[span[0] as usize..span[1] as usize];
            let row = *cols.first()? as usize;
            let (lo, hi) = (diag_pos[row], row_ptr[row + 1]);
            if !same(&col_idx[lo..hi], cols) {
                return None;
            }
            upper.extend_from_slice(&factors.values[lo..hi]);
        }
        Some((lower, upper))
    }
}

impl<T: Scalar> Ilu0<T> {
    /// Computes the ILU(0) factorization of a square matrix.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] for non-square matrices, and
    ///   when the dimension or the entry count exceeds `u32::MAX`.
    /// * [`SparseError::MissingDiagonal`] when a row lacks a structural
    ///   diagonal entry.
    /// * [`SparseError::ZeroPivot`] when a pivot becomes exactly zero.
    pub fn new(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        let factors = CsrFactors::new(a)?;
        let (schedule, lower, upper) = LevelSchedule::build(a, &factors)?;
        Ok(Self {
            schedule: Arc::new(schedule),
            lower,
            upper,
        })
    }

    /// Factors `a` afresh, reusing this factorization's level schedule when
    /// `a` has the same sparsity pattern (the schedule is rebuilt
    /// otherwise). The result equals [`Ilu0::new`]`(a)`.
    ///
    /// # Errors
    /// Same conditions as [`Ilu0::new`].
    pub(crate) fn refactor(&self, a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        let factors = CsrFactors::new(a)?;
        let (schedule, lower, upper) = match self.schedule.gather(a, &factors) {
            Some((lower, upper)) => (Arc::clone(&self.schedule), lower, upper),
            None => {
                let (schedule, lower, upper) = LevelSchedule::build(a, &factors)?;
                (Arc::new(schedule), lower, upper)
            }
        };
        Ok(Self {
            schedule,
            lower,
            upper,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.schedule.n
    }

    /// Applies the preconditioner: returns `z ≈ A⁻¹·r` by solving
    /// `L·U·z = r` with the incomplete factors.
    ///
    /// # Panics
    /// Panics if `r.len()` differs from the dimension.
    pub fn apply(&self, r: &[T]) -> Vec<T> {
        let mut z = vec![T::zero(); self.dim()];
        self.apply_into(r, &mut z);
        z
    }

    /// Applies the preconditioner into a caller-provided buffer (`r` and `z`
    /// must not alias) — the allocation-free inner-loop variant used by the
    /// Krylov solver workspaces.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn apply_into(&self, r: &[T], z: &mut [T]) {
        let s = &*self.schedule;
        assert_eq!(r.len(), s.n, "ilu apply: dimension mismatch");
        assert_eq!(z.len(), s.n, "ilu apply: output length mismatch");
        // Forward solve with unit lower-triangular L, level by level: a row
        // reads only rows of earlier levels, so z can be filled directly
        // from r.
        for (span, &row) in s.lower_ptr.windows(2).zip(&s.lower_rows) {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            let mut acc = r[row as usize];
            for (&c, &v) in s.lower_cols[lo..hi].iter().zip(&self.lower[lo..hi]) {
                acc -= v * z[c as usize];
            }
            z[row as usize] = acc;
        }
        // Backward solve with U, level by level; each U row starts with its
        // diagonal, whose column is the row and whose value is the pivot.
        for span in s.upper_ptr.windows(2) {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            let row = s.upper_cols[lo] as usize;
            let mut acc = z[row];
            for (&c, &v) in s.upper_cols[lo + 1..hi].iter().zip(&self.upper[lo + 1..hi]) {
                acc -= v * z[c as usize];
            }
            z[row] = acc / self.upper[lo];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{bits, random_system, Bits};
    use vaem_numeric::Complex64;

    fn laplacian_1d(n: usize) -> CsrMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn tridiagonal_ilu0_is_exact() {
        // For a tridiagonal matrix ILU(0) equals the full LU, so applying the
        // preconditioner solves the system exactly.
        let a = laplacian_1d(10);
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![1.0; 10];
        let x = ilu.apply(&b);
        let r = a.residual(&x, &b);
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm < 1e-12, "residual {rnorm}");
    }

    #[test]
    fn missing_diagonal_is_reported() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            Ilu0::new(&a),
            Err(SparseError::MissingDiagonal { row: 0 })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CsrMatrix::<f64>::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            Ilu0::new(&a),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn complex_tridiagonal_is_exact_too() {
        let j = Complex64::I;
        let mut t = Vec::new();
        let n = 6;
        for i in 0..n {
            t.push((i, i, Complex64::new(3.0, 0.5)));
            if i > 0 {
                t.push((i, i - 1, -Complex64::ONE + j * 0.1));
            }
            if i + 1 < n {
                t.push((i, i + 1, -Complex64::ONE));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![Complex64::ONE; n];
        let x = ilu.apply(&b);
        let r = a.residual(&x, &b);
        let rnorm: f64 = r.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        assert!(rnorm < 1e-12);
    }

    #[test]
    fn preconditioner_reduces_condition_for_2d_grid() {
        // Build a small 2-D Laplacian (pattern wider than tridiagonal) and
        // check the preconditioned residual is much smaller than the
        // unpreconditioned one for an arbitrary vector.
        let nx = 6;
        let n = nx * nx;
        let mut t = Vec::new();
        let idx = |i: usize, j: usize| i * nx + j;
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
        let a = CsrMatrix::from_triplets(n, n, &t);
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![1.0; n];
        let z = ilu.apply(&b);
        let r = a.residual(&z, &b);
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let bnorm: f64 = (n as f64).sqrt();
        // Not exact (fill-in discarded) but clearly better than doing nothing.
        assert!(rnorm < 0.5 * bnorm, "rnorm = {rnorm}, bnorm = {bnorm}");
    }

    /// The natural-order sweep [`Ilu0::apply_into`] replaced, kept as the
    /// reference its output must match bit for bit.
    fn apply_reference<T: Scalar>(factors: &CsrFactors<T>, a: &CsrMatrix<T>, r: &[T]) -> Vec<T> {
        let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), &factors.values);
        let diag_pos = &factors.diag_pos;
        let n = a.rows();
        let mut z = vec![T::zero(); n];
        for i in 0..n {
            let mut acc = r[i];
            for k in row_ptr[i]..diag_pos[i] {
                acc -= values[k] * z[col_idx[k]];
            }
            z[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = z[i];
            for k in (diag_pos[i] + 1)..row_ptr[i + 1] {
                acc -= values[k] * z[col_idx[k]];
            }
            z[i] = acc / values[diag_pos[i]];
        }
        z
    }

    /// Level-ordered sweeps against the natural-order reference on the same
    /// factors, by `to_bits`, over random real and complex patterns of
    /// every `n % 4` (each pattern has rows without lower entries).
    #[test]
    fn level_ordered_sweep_matches_the_natural_order_sweep_bit_for_bit() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 29, 30, 31, 64, 203] {
            for seed in 0..4u64 {
                let real = random_system(n, seed, |re, _| re);
                let complex = random_system(n, seed, Complex64::new);
                check_against_reference(&real, seed);
                check_against_reference(&complex, seed);
            }
        }
    }

    fn check_against_reference<T: Bits>(a: &CsrMatrix<T>, seed: u64) {
        let n = a.rows();
        let factors = CsrFactors::new(a).unwrap();
        let ilu = Ilu0::new(a).unwrap();
        // Rows with no lower entries exist and open the first level.
        assert!((0..n).any(|i| factors.diag_pos[i] == a.row_ptr()[i]));
        let r: Vec<T> = (0..n)
            .map(|i| T::from_f64(((i as u64 * 7 + seed) % 11) as f64 - 5.0))
            .collect();
        let want = apply_reference(&factors, a, &r);
        assert_eq!(bits(&ilu.apply(&r)), bits(&want), "n = {n}, seed = {seed}");
        // A refactor on the same pattern reuses the schedule and matches a
        // fresh build bit for bit.
        let again = ilu.refactor(a).unwrap();
        assert!(Arc::ptr_eq(&again.schedule, &ilu.schedule));
        assert_eq!(bits(&again.apply(&r)), bits(&want));
    }

    #[test]
    fn refactor_on_a_new_pattern_builds_a_new_schedule() {
        let a = laplacian_1d(8);
        let ilu = Ilu0::new(&a).unwrap();
        let other = random_system(8, 3, |re, _| re);
        let refactored = ilu.refactor(&other).unwrap();
        assert!(!Arc::ptr_eq(&refactored.schedule, &ilu.schedule));
        let r = vec![1.0; 8];
        let want = apply_reference(&CsrFactors::new(&other).unwrap(), &other, &r);
        assert_eq!(bits(&refactored.apply(&r)), bits(&want));
        // And a clone shares the schedule rather than copying it.
        assert!(Arc::ptr_eq(&ilu.clone().schedule, &ilu.schedule));
    }

    #[test]
    fn levels_group_independent_rows() {
        // A 1-D chain has one row per level; a 2-D grid in natural order
        // has its anti-diagonals as levels.
        let chain = Ilu0::new(&laplacian_1d(5)).unwrap();
        assert_eq!(chain.schedule.lower_rows, vec![0, 1, 2, 3, 4]);
        let nx = 3;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                t.push((idx(i, j), idx(i, j), 4.0));
                if i > 0 {
                    t.push((idx(i, j), idx(i - 1, j), -1.0));
                }
                if j > 0 {
                    t.push((idx(i, j), idx(i, j - 1), -1.0));
                }
                if i + 1 < nx {
                    t.push((idx(i, j), idx(i + 1, j), -1.0));
                }
                if j + 1 < nx {
                    t.push((idx(i, j), idx(i, j + 1), -1.0));
                }
            }
        }
        let grid = Ilu0::new(&CsrMatrix::from_triplets(9, 9, &t)).unwrap();
        assert_eq!(grid.schedule.lower_rows, vec![0, 1, 3, 2, 4, 6, 5, 7, 8]);
        // The backward sweep starts from the last row; each U row leads
        // with its diagonal.
        let heads: Vec<u32> = grid.schedule.upper_ptr[..9]
            .iter()
            .map(|&p| grid.schedule.upper_cols[p as usize])
            .collect();
        assert_eq!(heads, vec![8, 5, 7, 2, 4, 6, 1, 3, 0]);
    }
}
