//! Coordinate-format (COO) assembly buffer.

use crate::CsrMatrix;
use vaem_numeric::Scalar;

/// A coordinate-format sparse matrix used during FVM assembly.
///
/// Entries may be pushed in any order and duplicates are summed when
/// converting to [`CsrMatrix`], which matches how finite-volume stencils are
/// accumulated edge by edge.
///
/// # Example
/// ```
/// use vaem_sparse::TripletMatrix;
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate gets summed
/// t.push(1, 1, 4.0);
/// let a = t.to_csr();
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.get(1, 1), 4.0);
/// assert_eq!(a.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TripletMatrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletMatrix<T> {
    /// Creates an empty buffer for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty buffer with pre-allocated capacity.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(capacity),
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

    /// Number of raw (possibly duplicated) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entry has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates are summed on conversion.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Adds `value` only if it is non-zero (keeps the pattern tight).
    #[inline]
    pub fn push_nonzero(&mut self, row: usize, col: usize, value: T) {
        if value != T::zero() {
            self.push(row, col, value);
        }
    }

    /// Converts to CSR, summing duplicate entries and sorting columns within
    /// each row.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        CsrMatrix::from_triplets(self.rows, self.cols, &self.entries)
    }

    /// Clears all entries but keeps the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(1, 2, 1.5);
        t.push(1, 2, 0.5);
        t.push(0, 0, 1.0);
        let a = t.to_csr();
        assert_eq!(a.get(1, 2), 2.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn push_nonzero_skips_zeros() {
        let mut t = TripletMatrix::new(2, 2);
        t.push_nonzero(0, 0, 0.0);
        t.push_nonzero(0, 1, 3.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn clear_retains_capacity_semantics() {
        let mut t = TripletMatrix::with_capacity(2, 2, 16);
        t.push(0, 0, 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 2);
    }
}
