//! Row/column equilibration.
//!
//! The coupled A–V matrices mix metal conductivities (~10⁷ S/m), dielectric
//! admittances (~10⁻⁶ S/m at 1 GHz) and carrier-continuity rows with yet
//! another magnitude, giving raw condition numbers that defeat ILU-based
//! iterative solvers. A simple max-magnitude row/column equilibration brings
//! every row and column to O(1) before factorization.

use crate::CsrMatrix;
use vaem_numeric::Scalar;

/// Diagonal row/column scaling `As = R·A·C` with `R`, `C` chosen so that the
/// largest entry of every row and column of `As` has magnitude ≈ 1.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, RowColScaling};
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1e8), (0, 1, 1e6), (1, 1, 1e-6)]);
/// let (scaled, sc) = RowColScaling::equilibrate(&a);
/// assert!(scaled.norm_inf() < 10.0);
/// // Solving the scaled system and recovering x:
/// let b = vec![1.0, 2.0];
/// let bs = sc.scale_rhs(&b);
/// assert_eq!(bs.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RowColScaling {
    row: Vec<f64>,
    col: Vec<f64>,
}

impl RowColScaling {
    /// Computes the scaling for `a` and returns the scaled matrix together
    /// with the scaling data needed to transform right-hand sides and
    /// solutions.
    pub fn equilibrate<T: Scalar>(a: &CsrMatrix<T>) -> (CsrMatrix<T>, Self) {
        let mut scaled = a.clone();
        let mut scaling = Self {
            row: vec![1.0; a.rows()],
            col: vec![1.0; a.cols()],
        };
        scaling.refit(a, &mut scaled);
        (scaled, scaling)
    }

    /// Recomputes this scaling for `a` and overwrites `scaled` with
    /// `R·A·C`, allocating nothing: the re-equilibration of a prepared
    /// solver whose operator got new values on the same pattern.
    /// `scaled` must have `a`'s pattern and this scaling `a`'s shape.
    pub(crate) fn refit<T: Scalar>(&mut self, a: &CsrMatrix<T>, scaled: &mut CsrMatrix<T>) {
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        // Every stored entry's modulus (a `hypot` for complex values),
        // computed once for both passes and parked in `scaled`'s values.
        let modulus = scaled.values_mut();
        for (m, v) in modulus.iter_mut().zip(a.values()) {
            *m = T::from_f64(v.modulus());
        }
        // Row scale from the max modulus of each row.
        for (r, row) in self.row.iter_mut().enumerate() {
            let max = modulus[row_ptr[r]..row_ptr[r + 1]]
                .iter()
                .map(|m| m.real())
                .fold(0.0, f64::max);
            *row = if max > 0.0 { 1.0 / max } else { 1.0 };
        }
        // Column scale from the max modulus after row scaling.
        self.col.fill(0.0);
        for (r, &row) in self.row.iter().enumerate() {
            for k in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[k];
                self.col[c] = self.col[c].max(modulus[k].real() * row);
            }
        }
        for m in &mut self.col {
            *m = if *m > 0.0 { 1.0 / *m } else { 1.0 };
        }
        modulus.copy_from_slice(a.values());
        scaled.scale_rows_cols(&self.row, &self.col);
    }

    /// Row scaling factors `R`.
    pub fn row_factors(&self) -> &[f64] {
        &self.row
    }

    /// Column scaling factors `C`.
    pub fn col_factors(&self) -> &[f64] {
        &self.col
    }

    /// Transforms a right-hand side: `bs = R·b`.
    pub fn scale_rhs<T: Scalar>(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.row.len(), "scale_rhs: length mismatch");
        b.iter()
            .zip(self.row.iter())
            .map(|(v, &s)| v.scale(s))
            .collect()
    }

    /// Recovers the solution of the original system from the solution of the
    /// scaled system: `x = C·y`.
    pub fn unscale_solution<T: Scalar>(&self, y: &[T]) -> Vec<T> {
        assert_eq!(y.len(), self.col.len(), "unscale_solution: length mismatch");
        y.iter()
            .zip(self.col.iter())
            .map(|(v, &s)| v.scale(s))
            .collect()
    }

    /// Transforms an initial guess for the original system into one for the
    /// scaled system: `y0 = C⁻¹·x0`.
    pub fn scale_guess<T: Scalar>(&self, x0: &[T]) -> Vec<T> {
        assert_eq!(x0.len(), self.col.len(), "scale_guess: length mismatch");
        x0.iter()
            .zip(self.col.iter())
            .map(|(v, &s)| v.scale(1.0 / s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_numeric::vecops;

    #[test]
    fn scaled_matrix_entries_are_order_one() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 5.8e7),
                (0, 1, 1.0e3),
                (1, 0, 1.0e3),
                (1, 1, 2.0e-6),
                (2, 2, 4.2e-12),
            ],
        );
        let (s, _) = RowColScaling::equilibrate(&a);
        for r in 0..3 {
            let max = s.row_entries(r).map(|(_, v)| v.abs()).fold(0.0, f64::max);
            assert!(max <= 1.0 + 1e-12);
            assert!(max > 1e-3, "row {r} got over-scaled: {max}");
        }
    }

    #[test]
    fn solution_roundtrip_through_scaling() {
        // (R A C) y = R b  with  x = C y  must reproduce the unscaled solution.
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0e6), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0e-6)],
        );
        let x_true = vec![2.0, -1.0];
        let b = a.matvec(&x_true);
        let (s, sc) = RowColScaling::equilibrate(&a);
        let bs = sc.scale_rhs(&b);
        // Dense solve of the 2x2 scaled system.
        let det = s.get(0, 0) * s.get(1, 1) - s.get(0, 1) * s.get(1, 0);
        let y = vec![
            (bs[0] * s.get(1, 1) - bs[1] * s.get(0, 1)) / det,
            (s.get(0, 0) * bs[1] - s.get(1, 0) * bs[0]) / det,
        ];
        let x = sc.unscale_solution(&y);
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
    }

    #[test]
    fn guess_scaling_is_inverse_of_solution_scaling() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 10.0), (1, 1, 0.1)]);
        let (_, sc) = RowColScaling::equilibrate(&a);
        let x = vec![3.0, 7.0];
        let y = sc.scale_guess(&x);
        let back = sc.unscale_solution(&y);
        assert!(vecops::relative_diff(&back, &x, 1e-30) < 1e-14);
    }

    #[test]
    fn empty_rows_get_unit_scale() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0)]);
        let (_, sc) = RowColScaling::equilibrate(&a);
        assert_eq!(sc.row_factors()[1], 1.0);
        assert_eq!(sc.col_factors()[2], 1.0);
    }
}
