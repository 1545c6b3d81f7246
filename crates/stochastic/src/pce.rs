//! Fitted polynomial chaos expansion of a scalar output.

use crate::HermiteBasis;
use vaem_numeric::dense::{DMatrix, Qr};
use vaem_numeric::NumericError;

/// A second-order (or general-order) Hermite chaos expansion
/// `y(ζ) = Σ_α c_α·Ψ_α(ζ)` of one scalar output quantity (paper eq. 4),
/// fitted from collocation samples.
///
/// The statistics of eq. (5) follow directly from the coefficients:
/// mean = `c₀`, variance = `Σ_{α≠0} c_α²·⟨Ψ_α²⟩`.
///
/// # Example
/// ```
/// use vaem_stochastic::{HermiteBasis, PolynomialChaos};
/// let basis = HermiteBasis::new(1, 2);
/// // y = 3 + 2·ζ  =>  mean 3, variance 4.
/// let points = vec![vec![-1.5], vec![-0.5], vec![0.5], vec![1.5]];
/// let values = vec![0.0, 2.0, 4.0, 6.0];
/// let pce = PolynomialChaos::fit(basis, &points, &values)?;
/// assert!((pce.mean() - 3.0).abs() < 1e-12);
/// assert!((pce.variance() - 4.0).abs() < 1e-12);
/// # Ok::<(), vaem_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PolynomialChaos {
    basis: HermiteBasis,
    coefficients: Vec<f64>,
}

impl PolynomialChaos {
    /// Fits the expansion to samples `(points[i], values[i])` by regression
    /// (least squares on the collocation samples).
    ///
    /// The design matrix `Ψ[i][j] = Ψ_j(points[i])` is filled with one
    /// whole-basis evaluation per point and QR-factored.
    /// [`SparseCollocation::fit`] builds the same design and factors it once
    /// for all of its outputs, so its coefficients are bit-identical to one
    /// call of this function per output.
    ///
    /// [`SparseCollocation::fit`]: crate::SparseCollocation::fit
    ///
    /// # Errors
    /// * [`NumericError::DimensionMismatch`] if the number of values differs
    ///   from the number of points or there are fewer samples than basis
    ///   functions.
    /// * Propagates QR failures for degenerate point sets.
    pub fn fit(
        basis: HermiteBasis,
        points: &[Vec<f64>],
        values: &[f64],
    ) -> Result<Self, NumericError> {
        if points.len() != values.len() {
            return Err(NumericError::DimensionMismatch {
                detail: format!(
                    "{} collocation points but {} output values",
                    points.len(),
                    values.len()
                ),
            });
        }
        let qr = factor_design(&basis, points)?;
        let coefficients = qr.solve_least_squares(values)?;
        Ok(Self::from_coefficients(basis, coefficients))
    }

    /// Wraps coefficients already fitted in `basis` order.
    pub(crate) fn from_coefficients(basis: HermiteBasis, coefficients: Vec<f64>) -> Self {
        Self {
            basis,
            coefficients,
        }
    }

    /// The underlying basis.
    pub fn basis(&self) -> &HermiteBasis {
        &self.basis
    }

    /// Chaos coefficients in basis order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Mean of the output (the coefficient of the constant basis function).
    pub fn mean(&self) -> f64 {
        self.coefficients[0]
    }

    /// Variance of the output: `Σ_{α≠0} c_α²·⟨Ψ_α²⟩` (paper eq. 5).
    pub fn variance(&self) -> f64 {
        self.coefficients
            .iter()
            .enumerate()
            .skip(1)
            .map(|(a, &c)| c * c * self.basis.norm_sqr(a))
            .sum()
    }

    /// Standard deviation of the output.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Evaluates the surrogate at a reduced-variable point.
    ///
    /// # Panics
    /// Panics if `zeta.len()` differs from the basis dimension.
    pub fn evaluate(&self, zeta: &[f64]) -> f64 {
        self.basis
            .evaluate(zeta)
            .iter()
            .zip(self.coefficients.iter())
            .map(|(psi, c)| psi * c)
            .sum()
    }

    /// First-order Sobol-style contribution of dimension `d`: the summed
    /// squared coefficients (times norms) of basis functions involving only
    /// `ζ_d`, divided by the total variance. Useful for ranking which reduced
    /// factors drive the output.
    pub fn main_effect(&self, d: usize) -> f64 {
        let total = self.variance();
        if total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (a, idx) in self.basis.indices().iter().enumerate().skip(1) {
            let only_d = idx
                .iter()
                .enumerate()
                .all(|(k, &o)| (k == d && o > 0) || (k != d && o == 0));
            if only_d {
                acc += self.coefficients[a] * self.coefficients[a] * self.basis.norm_sqr(a);
            }
        }
        acc / total
    }
}

/// Builds the regression design `Ψ[i][j] = Ψ_j(points[i])` — one
/// whole-basis evaluation per point, copied into its row — and QR-factors
/// it. Every chaos fit goes through here, so one factorization can serve
/// any number of outputs sampled at the same points.
pub(crate) fn factor_design(basis: &HermiteBasis, points: &[Vec<f64>]) -> Result<Qr, NumericError> {
    if points.len() < basis.len() {
        return Err(NumericError::DimensionMismatch {
            detail: format!(
                "need at least {} samples to fit {} chaos coefficients, got {}",
                basis.len(),
                basis.len(),
                points.len()
            ),
        });
    }
    let mut design = DMatrix::zeros(points.len(), basis.len());
    for (i, point) in points.iter().enumerate() {
        design.row_mut(i).copy_from_slice(&basis.evaluate(point));
    }
    Qr::new(&design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollocationGrid;

    fn fit_model(dim: usize, f: impl Fn(&[f64]) -> f64) -> PolynomialChaos {
        let grid = CollocationGrid::level2(dim);
        let values: Vec<f64> = grid.points().iter().map(|p| f(p)).collect();
        PolynomialChaos::fit(HermiteBasis::new(dim, 2), grid.points(), &values).unwrap()
    }

    #[test]
    fn linear_model_statistics_are_exact() {
        // y = 2 + 3ζ0 - ζ1: mean 2, variance 9 + 1 = 10.
        let pce = fit_model(2, |z| 2.0 + 3.0 * z[0] - z[1]);
        assert!((pce.mean() - 2.0).abs() < 1e-10);
        assert!((pce.variance() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quadratic_model_statistics_are_exact() {
        // y = 1 + ζ0² + 0.5·ζ0·ζ1.
        // Var = Var(ζ0²) + 0.25·Var(ζ0ζ1) = 2 + 0.25 = 2.25; mean = 2.
        let pce = fit_model(2, |z| 1.0 + z[0] * z[0] + 0.5 * z[0] * z[1]);
        assert!((pce.mean() - 2.0).abs() < 1e-10);
        assert!((pce.variance() - 2.25).abs() < 1e-9);
    }

    #[test]
    fn surrogate_reproduces_model_at_new_points() {
        let f = |z: &[f64]| 0.3 - 1.2 * z[0] + 0.8 * z[1] * z[1] - 0.4 * z[0] * z[1];
        let pce = fit_model(2, f);
        for z in [[0.3, -0.7], [1.1, 0.2], [-2.0, 1.5]] {
            assert!((pce.evaluate(&z) - f(&z)).abs() < 1e-9, "at {z:?}");
        }
    }

    #[test]
    fn main_effects_rank_dominant_dimension() {
        // ζ0 drives almost all the variance.
        let pce = fit_model(3, |z| 5.0 * z[0] + 0.1 * z[1] + 0.1 * z[2] * z[2]);
        assert!(pce.main_effect(0) > 0.95);
        assert!(pce.main_effect(1) < 0.05);
    }

    #[test]
    fn higher_dimension_count_still_fits() {
        let dim = 8;
        let pce = fit_model(dim, |z| z.iter().sum::<f64>());
        assert!((pce.variance() - dim as f64).abs() < 1e-8);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let basis = HermiteBasis::new(2, 2);
        let pts = vec![vec![0.0, 0.0]];
        assert!(PolynomialChaos::fit(basis.clone(), &pts, &[1.0, 2.0]).is_err());
        match PolynomialChaos::fit(basis, &pts, &[1.0]) {
            Err(NumericError::DimensionMismatch { detail }) => assert_eq!(
                detail,
                "need at least 6 samples to fit 6 chaos coefficients, got 1"
            ),
            other => panic!("expected an under-determined fit error, got {other:?}"),
        }
    }
}
