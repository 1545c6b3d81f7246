//! The sparse stochastic collocation driver (SSCM).

use crate::pce::factor_design;
use crate::{CollocationGrid, HermiteBasis, PolynomialChaos};
use vaem_numeric::NumericError;

/// SSCM driver: owns the collocation grid and fits one [`PolynomialChaos`]
/// per output quantity from the deterministic solver runs.
///
/// The intended workflow mirrors the paper:
/// 1. reduce the correlated variations to `d` independent factors
///    (PFA / wPFA),
/// 2. run the deterministic coupled solver once per collocation point
///    ([`SparseCollocation::points`], `2d² + 3d + 1` runs),
/// 3. fit the quadratic chaos ([`SparseCollocation::fit`]) and read off the
///    statistics.
///
/// # Example
/// ```
/// use vaem_stochastic::SparseCollocation;
/// let sscm = SparseCollocation::new(3);
/// // Pretend the "solver" returns two outputs per run.
/// let runs: Vec<Vec<f64>> = sscm
///     .points()
///     .iter()
///     .map(|z| vec![z[0] + z[1], 1.0 + z[2] * z[2]])
///     .collect();
/// let pces = sscm.fit(&runs)?;
/// assert_eq!(pces.len(), 2);
/// assert!((pces[0].variance() - 2.0).abs() < 1e-9);
/// assert!((pces[1].mean() - 2.0).abs() < 1e-9);
/// # Ok::<(), vaem_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SparseCollocation {
    grid: CollocationGrid,
    order: u8,
}

impl SparseCollocation {
    /// Creates the driver for `dim` reduced variables with the paper's
    /// second-order chaos.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            grid: CollocationGrid::level2(dim),
            order: 2,
        }
    }

    /// Number of reduced random variables.
    pub fn dim(&self) -> usize {
        self.grid.dim()
    }

    /// Number of deterministic solver runs required.
    pub fn run_count(&self) -> usize {
        self.grid.len()
    }

    /// The collocation points (in the reduced standard-normal space) at which
    /// the deterministic solver must be evaluated.
    pub fn points(&self) -> &[Vec<f64>] {
        self.grid.points()
    }

    /// Fits one polynomial chaos per output quantity.
    ///
    /// `outputs[i]` holds the output vector of the solver run at
    /// `points()[i]`; every run must produce the same number of outputs.
    ///
    /// Every output is sampled at the same points, so the basis and the
    /// regression design are built and QR-factored once and each output
    /// costs one least-squares solve. The coefficients are bit-identical to
    /// a separate [`PolynomialChaos::fit`] per output.
    ///
    /// # Errors
    /// * [`NumericError::DimensionMismatch`] when the number of runs does not
    ///   match the number of points or the runs have inconsistent lengths.
    /// * Propagates regression failures.
    pub fn fit(&self, outputs: &[Vec<f64>]) -> Result<Vec<PolynomialChaos>, NumericError> {
        if outputs.len() != self.grid.len() {
            return Err(NumericError::DimensionMismatch {
                detail: format!(
                    "expected {} solver runs, got {}",
                    self.grid.len(),
                    outputs.len()
                ),
            });
        }
        let n_out = outputs.first().map(|o| o.len()).unwrap_or(0);
        if outputs.iter().any(|o| o.len() != n_out) {
            return Err(NumericError::DimensionMismatch {
                detail: "solver runs returned inconsistent output counts".to_string(),
            });
        }
        let basis = HermiteBasis::new(self.dim(), self.order);
        let qr = factor_design(&basis, self.grid.points())?;
        let mut models = Vec::with_capacity(n_out);
        for q in 0..n_out {
            let values: Vec<f64> = outputs.iter().map(|o| o[q]).collect();
            let coefficients = qr.solve_least_squares(&values)?;
            models.push(PolynomialChaos::from_coefficients(
                basis.clone(),
                coefficients,
            ));
        }
        Ok(models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_point_count;
    use vaem_numeric::dense::{DMatrix, Qr};

    /// The per-output construction `fit` replaced, kept as the bit-identity
    /// reference: per output a fresh basis, a design filled entry by entry
    /// (one whole-basis evaluation per entry) and a fresh QR.
    fn reference_coefficients(dim: usize, points: &[Vec<f64>], runs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        (0..runs[0].len())
            .map(|q| {
                let values: Vec<f64> = runs.iter().map(|o| o[q]).collect();
                let basis = HermiteBasis::new(dim, 2);
                let design = DMatrix::from_fn(points.len(), basis.len(), |i, j| {
                    basis.evaluate(&points[i])[j]
                });
                Qr::new(&design)
                    .unwrap()
                    .solve_least_squares(&values)
                    .unwrap()
            })
            .collect()
    }

    /// Smooth but non-polynomial outputs, so every fit leaves a residual and
    /// uses every coefficient.
    fn synthetic_runs(points: &[Vec<f64>], n_out: usize, shift: f64) -> Vec<Vec<f64>> {
        points
            .iter()
            .map(|z| {
                (0..n_out)
                    .map(|q| {
                        let phase: f64 = z
                            .iter()
                            .enumerate()
                            .map(|(k, v)| v * (0.1 + 0.07 * ((k + q) % 5) as f64))
                            .sum();
                        (phase + shift + 0.3 * q as f64).sin() + 0.2 * (0.5 * z[q % z.len()]).exp()
                    })
                    .collect()
            })
            .collect()
    }

    fn bits(coefficients: &[f64]) -> Vec<u64> {
        coefficients.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn shared_factorization_is_bit_identical_to_per_output_fits() {
        for dim in [1usize, 2, 5, 14] {
            let sscm = SparseCollocation::new(dim);
            let runs = synthetic_runs(sscm.points(), 4, 0.0);
            let reference = reference_coefficients(dim, sscm.points(), &runs);
            let pces = sscm.fit(&runs).unwrap();
            assert_eq!(pces.len(), reference.len());
            for (q, (pce, expected)) in pces.iter().zip(&reference).enumerate() {
                assert_eq!(
                    bits(pce.coefficients()),
                    bits(expected),
                    "dim {dim} output {q}"
                );
                let values: Vec<f64> = runs.iter().map(|o| o[q]).collect();
                let single =
                    PolynomialChaos::fit(HermiteBasis::new(dim, 2), sscm.points(), &values)
                        .unwrap();
                assert_eq!(
                    bits(single.coefficients()),
                    bits(expected),
                    "dim {dim} output {q}"
                );
            }
        }
    }

    #[test]
    fn one_fit_over_frequency_major_outputs_equals_a_fit_per_point() {
        let (n_points, n_q) = (3usize, 2usize);
        for dim in [1usize, 2, 5, 14] {
            let sscm = SparseCollocation::new(dim);
            let per_point: Vec<Vec<Vec<f64>>> = (0..n_points)
                .map(|f| synthetic_runs(sscm.points(), n_q, f as f64))
                .collect();
            // Each run concatenates its outputs point by point, the layout
            // of a frequency sweep's sample spectra.
            let flat: Vec<Vec<f64>> = (0..sscm.run_count())
                .map(|i| per_point.iter().flat_map(|runs| runs[i].clone()).collect())
                .collect();
            let batched = sscm.fit(&flat).unwrap();
            assert_eq!(batched.len(), n_points * n_q);
            for (f, runs) in per_point.iter().enumerate() {
                let separate = sscm.fit(runs).unwrap();
                for (q, pce) in separate.iter().enumerate() {
                    assert_eq!(
                        bits(batched[f * n_q + q].coefficients()),
                        bits(pce.coefficients()),
                        "dim {dim} point {f} output {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_count_matches_paper_formula() {
        let sscm = SparseCollocation::new(22);
        assert_eq!(sscm.run_count(), paper_point_count(22));
        assert_eq!(sscm.run_count(), 1035);
    }

    #[test]
    fn multi_output_fit_recovers_each_quantity() {
        let sscm = SparseCollocation::new(4);
        let runs: Vec<Vec<f64>> = sscm
            .points()
            .iter()
            .map(|z| vec![1.0 + z[0], z[1] * z[2], 2.0 - 0.5 * z[3] * z[3]])
            .collect();
        let pces = sscm.fit(&runs).unwrap();
        assert_eq!(pces.len(), 3);
        assert!((pces[0].mean() - 1.0).abs() < 1e-10);
        assert!((pces[0].variance() - 1.0).abs() < 1e-9);
        assert!(pces[1].mean().abs() < 1e-10);
        assert!((pces[1].variance() - 1.0).abs() < 1e-9);
        assert!((pces[2].mean() - 1.5).abs() < 1e-10);
        assert!((pces[2].variance() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mismatched_run_count_is_rejected() {
        let sscm = SparseCollocation::new(2);
        let runs = vec![vec![1.0]; 3];
        assert!(sscm.fit(&runs).is_err());
    }

    #[test]
    fn inconsistent_output_lengths_are_rejected() {
        let sscm = SparseCollocation::new(2);
        let mut runs: Vec<Vec<f64>> = sscm.points().iter().map(|_| vec![1.0, 2.0]).collect();
        runs[3] = vec![1.0];
        assert!(sscm.fit(&runs).is_err());
    }
}
