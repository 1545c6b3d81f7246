//! Compressed sparse row (CSR) matrix.

use crate::SparseError;
use vaem_numeric::Scalar;

/// The structural (value-free) part of a CSR matrix: row pointers and sorted
/// column indices.
///
/// Captured once from an assembled matrix, a pattern lets repeated
/// assemblies (Newton iterations, frequency sweeps) rebuild only the values
/// of a matrix made by [`SparsityPattern::zeros`] instead of re-sorting
/// triplets with [`CsrMatrix::from_triplets`] on every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Extracts the pattern of an assembled matrix.
    pub fn of<T: Scalar>(matrix: &CsrMatrix<T>) -> Self {
        Self {
            rows: matrix.rows,
            cols: matrix.cols,
            row_ptr: matrix.row_ptr.clone(),
            col_idx: matrix.col_idx.clone(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of structural entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (sorted within each row).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Returns `true` when `matrix` has exactly this structure.
    pub fn matches<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> bool {
        self.rows == matrix.rows
            && self.cols == matrix.cols
            && self.row_ptr == matrix.row_ptr
            && self.col_idx == matrix.col_idx
    }

    /// Materializes an all-zero matrix with this structure, whose values a
    /// caller then writes through [`CsrMatrix::values_mut`].
    pub fn zeros<T: Scalar>(&self) -> CsrMatrix<T> {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: vec![T::zero(); self.col_idx.len()],
        }
    }
}

/// A sparse matrix in compressed sparse row format with sorted column
/// indices inside each row.
///
/// # Example
/// ```
/// use vaem_sparse::CsrMatrix;
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 1, 3.0)]);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix from (row, col, value) triplets, summing
    /// duplicates and dropping entries that sum to exactly zero is *not*
    /// performed (the structural pattern is kept, which ILU(0) relies on).
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Self {
        // Count entries per row (with duplicates).
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        // Bucket the triplets per row.
        let mut col_tmp = vec![0usize; triplets.len()];
        let mut val_tmp = vec![T::zero(); triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let dst = next[r];
            col_tmp[dst] = c;
            val_tmp[dst] = v;
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut order: Vec<usize> = Vec::new();
        for r in 0..rows {
            let lo = counts[r];
            let hi = counts[r + 1];
            order.clear();
            order.extend(lo..hi);
            order.sort_by_key(|&k| col_tmp[k]);
            let mut last_col = usize::MAX;
            for &k in &order {
                let c = col_tmp[k];
                let v = val_tmp[k];
                if c == last_col {
                    let idx = values.len() - 1;
                    values[idx] += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                    last_col = c;
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<(usize, usize, T)> = (0..n).map(|i| (i, i, T::one())).collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable value array (pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Returns the stored value at `(row, col)` or zero if not present.
    pub fn get(&self, row: usize, col: usize) -> T {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => T::zero(),
        }
    }

    /// Iterator over `(col, value)` pairs of one row.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![T::zero(); self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a pre-allocated output buffer.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "matvec_into: dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into: output length mismatch");
        for (yr, span) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (lo, hi) = (span[0], span[1]);
            let mut acc = T::zero();
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                acc += v * x[c];
            }
            *yr = acc;
        }
    }

    /// Residual `b − A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn residual(&self, x: &[T], b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.rows, "residual: rhs length mismatch");
        let ax = self.matvec(x);
        b.iter().zip(ax.iter()).map(|(bi, ai)| *bi - *ai).collect()
    }

    /// Extracts the main diagonal (zero where structurally absent).
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        Self::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Scales row `i` by `row[i]` and column `j` by `col[j]` in place.
    ///
    /// # Panics
    /// Panics if the scale vectors have wrong lengths.
    pub fn scale_rows_cols(&mut self, row: &[f64], col: &[f64]) {
        assert_eq!(row.len(), self.rows, "row scale length mismatch");
        assert_eq!(col.len(), self.cols, "col scale length mismatch");
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                self.values[k] = self.values[k].scale(row[r] * col[c]);
            }
        }
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row_entries(r).map(|(_, v)| v.modulus()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Checks that every row has a structural diagonal entry.
    ///
    /// # Errors
    /// Returns [`SparseError::MissingDiagonal`] with the first offending row.
    pub fn require_diagonal(&self) -> Result<(), SparseError> {
        for r in 0..self.rows.min(self.cols) {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if self.col_idx[lo..hi].binary_search(&r).is_err() {
                return Err(SparseError::MissingDiagonal { row: r });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::assemble_into;
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
    fn from_triplets_sorts_and_merges() {
        let a =
            CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 0.5), (1, 1, -1.0)]);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 2), 1.5);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        let row0: Vec<usize> = a.row_entries(0).map(|(c, _)| c).collect();
        assert_eq!(row0, vec![0, 2]);
    }

    /// The per-entry mat-vec loop [`CsrMatrix::matvec_into`] replaced,
    /// kept as the reference its output must match bit for bit.
    fn matvec_reference<T: Scalar>(a: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); a.rows];
        for r in 0..a.rows {
            let mut acc = T::zero();
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                acc += a.values[k] * x[a.col_idx[k]];
            }
            y[r] = acc;
        }
        y
    }

    #[test]
    fn slice_walking_matvec_matches_the_per_entry_loop_bit_for_bit() {
        use crate::test_support::{bits, random_system};
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 29, 30, 31, 64, 203] {
            for seed in 0..4u64 {
                let real = random_system(n, seed, |re, _| re);
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
                assert_eq!(bits(&real.matvec(&x)), bits(&matvec_reference(&real, &x)));
                let complex = random_system(n, seed, Complex64::new);
                let cx: Vec<Complex64> = (0..n)
                    .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                    .collect();
                assert_eq!(
                    bits(&complex.matvec(&cx)),
                    bits(&matvec_reference(&complex, &cx))
                );
            }
        }
    }

    #[test]
    fn matvec_matches_dense_result() {
        let a = laplacian_1d(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 1, 1.0), (1, 2, 5.0), (0, 0, -2.0)]);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(2, 1), 5.0);
    }

    #[test]
    fn diagonal_and_missing_diagonal_check() {
        let a = laplacian_1d(4);
        assert_eq!(a.diagonal(), vec![2.0; 4]);
        assert!(a.require_diagonal().is_ok());
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        assert!(matches!(
            b.require_diagonal(),
            Err(SparseError::MissingDiagonal { row: 1 })
        ));
    }

    #[test]
    fn scaling_rows_and_columns() {
        let mut a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 4.0), (1, 1, 8.0)]);
        a.scale_rows_cols(&[0.5, 0.25], &[1.0, 0.5]);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn complex_matvec() {
        let i = Complex64::I;
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, i), (1, 1, i * i)]);
        let y = a.matvec(&[Complex64::ONE, Complex64::ONE]);
        assert_eq!(y[0], i);
        assert_eq!(y[1], Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn norm_inf_of_laplacian() {
        let a = laplacian_1d(5);
        assert_eq!(a.norm_inf(), 4.0);
    }

    #[test]
    fn identity_matvec() {
        let a = CsrMatrix::<f64>::identity(3);
        assert_eq!(a.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn assemble_into_updates_values_on_fixed_pattern() {
        let mut a = laplacian_1d(4);
        // Same pattern, different values, duplicates summed.
        assemble_into(
            &mut a,
            &[
                (0, 0, 5.0),
                (0, 1, -2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 1, 4.0),
                (3, 3, 9.0),
            ],
        )
        .unwrap();
        assert_eq!(a.get(0, 0), 5.0);
        assert_eq!(a.get(0, 1), -2.0);
        assert_eq!(a.get(1, 1), 7.0);
        // Structural entries not mentioned are zeroed, pattern kept.
        assert_eq!(a.get(2, 2), 0.0);
        assert_eq!(a.nnz(), laplacian_1d(4).nnz());
        assert_eq!(a.get(3, 3), 9.0);
    }

    #[test]
    fn assemble_into_rejects_entries_outside_the_pattern() {
        let mut a = laplacian_1d(4);
        assert!(matches!(
            assemble_into(&mut a, &[(0, 3, 1.0)]),
            Err(SparseError::PatternMismatch { row: 0, col: 3 })
        ));
        assert!(matches!(
            assemble_into(&mut a, &[(0, 9, 1.0)]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn pattern_roundtrip_and_matching() {
        let a = laplacian_1d(5);
        let pattern = SparsityPattern::of(&a);
        assert_eq!(pattern.rows(), 5);
        assert_eq!(pattern.cols(), 5);
        assert_eq!(pattern.nnz(), a.nnz());
        assert!(pattern.matches(&a));

        let mut z: CsrMatrix<f64> = pattern.zeros();
        assert!(pattern.matches(&z));
        assert_eq!(z.nnz(), a.nnz());
        assert!(z.values().iter().all(|&v| v == 0.0));
        // A zeroed clone of the pattern accepts the original values.
        let triplets: Vec<(usize, usize, f64)> = (0..5)
            .flat_map(|r| a.row_entries(r).map(move |(c, v)| (r, c, v)))
            .collect();
        assemble_into(&mut z, &triplets).unwrap();
        assert_eq!(z, a);

        let other = laplacian_1d(6);
        assert!(!pattern.matches(&other));
    }
}
