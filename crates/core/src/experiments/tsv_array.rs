//! TSV-array coupling experiment: the N×M grid-of-vias workload of the
//! 3D-IC crosstalk literature (ROADMAP item 1).
//!
//! Three stages, all driven by the same mesh:
//!
//! 1. **Coupling-capacitance matrix** — the full K×K Maxwell matrix over
//!    the via terminals (`K = rows·cols`), extracted with one shared AC
//!    factorization ([`vaem_fvm::postprocess::capacitance_matrix`]).
//! 2. **Aggressor/victim sweep** — one via driven with 1 V over a log
//!    frequency grid; the induced current fraction at every other via
//!    ([`vaem_fvm::postprocess::coupling_ratios`]) traces the S-curve from
//!    the capacitive plateau into substrate conduction. It runs beside
//!    stage 1's columns, on the calling thread, while the other workers
//!    solve columns.
//! 3. **Variation-aware crosstalk statistics** — per-via radius/position
//!    parameters ([`crate::config::ViaArrayVariationConfig`]) propagated
//!    through the SSCM/MC machinery, with per-group Sobol main effects
//!    answering which via's variation dominates each matrix entry.

use crate::analysis::{AnalysisError, AnalysisResult, VariationalAnalysis};
use crate::config::{
    AnalysisConfig, QuantitySet, VariationSpec, ViaArrayVariationConfig, ViaWalls,
};
use crate::report::result_digest;
use std::fmt::Write as _;
use vaem_fvm::{postprocess, CoupledSolver, FvmError, SolverOptions};
use vaem_mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
use vaem_numeric::Complex64;
use vaem_physics::DopingProfile;

/// The TSV-array experiment: geometry, aggressor choice, variation sigmas
/// and cost controls.
#[derive(Debug, Clone)]
pub struct TsvArrayExperiment {
    /// Geometric configuration of the array.
    pub geometry: TsvArrayConfig,
    /// Grid position `(row, col)` of the aggressor via (driven with 1 V).
    pub aggressor: (usize, usize),
    /// Standard deviation of the per-via radius deviation (µm).
    pub sigma_radius: f64,
    /// Standard deviation of each per-via centre-offset component (µm).
    pub sigma_position: f64,
    /// Monte-Carlo sample count of the statistics stage.
    pub mc_runs: usize,
    /// Energy fraction retained by the variable reduction.
    pub energy_fraction: f64,
    /// Cap on retained factors per variation group.
    pub max_reduced_per_group: usize,
    /// RNG seed of the Monte-Carlo reference.
    pub seed: u64,
    /// Analysis frequency (Hz) of the capacitance extraction.
    pub frequency: f64,
    /// Number of points of the aggressor/victim frequency sweep.
    pub sweep_points: usize,
    /// Frequency range `(lo, hi)` of the sweep (Hz), swept log-uniformly.
    pub sweep_range: (f64, f64),
}

impl TsvArrayExperiment {
    /// Paper-scale 3×3 array on the fine mesh. Long runtime; used by the
    /// benchmark harness in "full" mode.
    pub fn paper() -> Self {
        Self {
            geometry: TsvArrayConfig::default(),
            aggressor: (1, 1),
            sigma_radius: 0.25,
            sigma_position: 0.25,
            mc_runs: 2000,
            energy_fraction: 0.99,
            max_reduced_per_group: 3,
            seed: 2012,
            frequency: 1.0e9,
            sweep_points: 13,
            sweep_range: (1.0e8, 1.0e11),
        }
    }

    /// A scaled-down 2×2 array that runs in seconds — the CI smoke and
    /// tier-1 test configuration.
    pub fn quick() -> Self {
        Self {
            geometry: TsvArrayConfig::coarse(2, 2),
            aggressor: (0, 0),
            sigma_radius: 0.25,
            sigma_position: 0.25,
            mc_runs: 24,
            energy_fraction: 0.90,
            max_reduced_per_group: 3,
            seed: 2012,
            frequency: 1.0e9,
            sweep_points: 5,
            sweep_range: (1.0e8, 1.0e10),
        }
    }

    /// Overrides the Monte-Carlo sample count.
    pub fn with_mc_runs(mut self, runs: usize) -> Self {
        self.mc_runs = runs;
        self
    }

    /// Overrides the sweep point count.
    pub fn with_sweep_points(mut self, points: usize) -> Self {
        self.sweep_points = points;
        self
    }

    /// Terminal name of the aggressor via.
    pub fn aggressor_name(&self) -> String {
        TsvArrayConfig::via_name(self.aggressor.0, self.aggressor.1)
    }

    /// The log-uniform frequency grid of the aggressor/victim sweep.
    pub fn sweep_grid(&self) -> Vec<f64> {
        let (lo, hi) = self.sweep_range;
        let n = self.sweep_points.max(2);
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..n)
            .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
            .collect()
    }

    /// Builds the [`VariationalAnalysis`] of the statistics stage: the
    /// aggressor's capacitance column over every via terminal, under
    /// per-via radius/position variation.
    ///
    /// # Errors
    /// A degenerate geometry configuration (zero grid dimensions,
    /// overlapping liners) is reported as [`AnalysisError::Mesh`].
    pub fn analysis(&self) -> Result<VariationalAnalysis, AnalysisError> {
        let structure = build_tsv_array_structure(&self.geometry)?;
        let mut config = AnalysisConfig::new(QuantitySet::CapacitanceColumn {
            driven: self.aggressor_name(),
            terminals: self.geometry.via_names(),
        });
        config.frequency = self.frequency;
        config.nominal_donor = 1.0e5;
        config.mc_runs = self.mc_runs;
        config.energy_fraction = self.energy_fraction;
        config.max_reduced_per_group = self.max_reduced_per_group;
        config.seed = self.seed;
        let vias = (0..self.geometry.rows)
            .flat_map(|r| {
                (0..self.geometry.cols).map(move |c| ViaWalls {
                    name: TsvArrayConfig::via_name(r, c),
                    facets: TsvArrayConfig::via_wall_facets(r, c),
                })
            })
            .collect();
        config.variations = VariationSpec {
            roughness: None,
            doping: None,
            via_params: Some(ViaArrayVariationConfig {
                sigma_radius: self.sigma_radius,
                sigma_position: self.sigma_position,
                vias,
            }),
        };
        Ok(VariationalAnalysis::new(structure, config))
    }

    /// Solves the nominal array once and extracts the coupling matrices and
    /// the aggressor/victim sweep.
    ///
    /// The sweep is a warm-started chain of solves that cannot be split, so
    /// it runs as the [side job](vaem_parallel::with_side_job) of the
    /// capacitance columns' fan-out: on the calling thread while the other
    /// workers take columns, after the matrix's AC operator has published
    /// its donor factorization on the shared topology — exactly what a
    /// serial run seeds the sweep with, so the report is bit-identical at
    /// any `VAEM_THREADS`. Each sweep point keeps only its terminal
    /// currents. Errors resolve in the serial order: the matrix's, the
    /// aggressor check, the sweep's, then the coupling ratios'.
    ///
    /// # Errors
    /// Propagates deterministic-solver failures.
    pub fn nominal_report(&self) -> Result<TsvArrayReport, AnalysisError> {
        let structure = build_tsv_array_structure(&self.geometry)?;
        let semis = structure.semiconductor_nodes();
        let doping = DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);
        let solver = CoupledSolver::new(&structure, &doping, SolverOptions::default())?;
        let dc = solver.solve_dc()?;

        let aggressor = self.aggressor_name();
        let grid = self.sweep_grid();
        let sweep = || -> Result<Vec<(f64, Vec<Complex64>)>, FvmError> {
            let mut operator = solver.prepare_ac_sweep(&dc)?;
            grid.iter()
                .map(|&frequency| {
                    let ac = operator.solve_at(frequency, &aggressor)?;
                    Ok((ac.frequency(), postprocess::terminal_currents(&solver, &ac)))
                })
                .collect()
        };
        let (matrix, sweep) = vaem_parallel::with_side_job(sweep, || {
            postprocess::capacitance_matrix(&solver, &dc, self.frequency)
        });

        // K×K coupling-capacitance matrix (fF), row = driven terminal.
        let names = self.geometry.via_names();
        let matrix = matrix?;
        let coupling: Vec<Vec<f64>> = names
            .iter()
            .map(|driven| {
                let column = &matrix[driven];
                names.iter().map(|t| column[t] * 1.0e15).collect()
            })
            .collect();

        // Aggressor/victim current-ratio sweep.
        let aggressor_index = names.iter().position(|n| n == &aggressor).ok_or_else(|| {
            AnalysisError::Configuration(format!("aggressor '{aggressor}' is not a via terminal"))
        })?;
        let sweep = sweep?;
        let victims: Vec<VictimSpectrum> = names
            .iter()
            .enumerate()
            .filter(|(_, n)| **n != aggressor)
            .map(|(victim_index, victim)| {
                let spectrum = postprocess::coupling_ratios(&solver, &sweep, &aggressor, victim)?;
                Ok(VictimSpectrum {
                    victim: victim.clone(),
                    grid_distance: self.geometry.grid_distance(aggressor_index, victim_index),
                    spectrum,
                })
            })
            .collect::<Result<_, AnalysisError>>()?;

        Ok(TsvArrayReport {
            via_names: names,
            aggressor,
            frequency: self.frequency,
            coupling,
            victims,
        })
    }

    /// Runs the variation-aware statistics stage (SSCM + MC over the
    /// per-via parameters).
    ///
    /// # Errors
    /// Propagates analysis failures.
    pub fn run(&self) -> Result<AnalysisResult, AnalysisError> {
        self.analysis()?.run()
    }
}

/// One victim's induced-current spectrum.
#[derive(Debug, Clone)]
pub struct VictimSpectrum {
    /// Victim terminal name.
    pub victim: String,
    /// Aggressor→victim grid distance in pitch units (1 = nearest
    /// neighbour, √2 = diagonal).
    pub grid_distance: f64,
    /// `(frequency_Hz, |I_victim|/|I_aggressor|)` pairs, sweep order.
    pub spectrum: Vec<(f64, f64)>,
}

/// Nominal results of the TSV-array experiment: coupling-capacitance
/// matrix, derived crosstalk matrix and the aggressor/victim sweep.
#[derive(Debug, Clone)]
pub struct TsvArrayReport {
    /// Via terminal names, row-major grid order (the matrix axis order).
    pub via_names: Vec<String>,
    /// The driven (aggressor) terminal of the sweep.
    pub aggressor: String,
    /// Extraction frequency (Hz) of the capacitance matrix.
    pub frequency: f64,
    /// Coupling-capacitance matrix (fF): `coupling[i][j] = C[driven i][measured j]`.
    pub coupling: Vec<Vec<f64>>,
    /// Per-victim induced-current spectra.
    pub victims: Vec<VictimSpectrum>,
}

impl TsvArrayReport {
    /// Crosstalk matrix derived from the coupling capacitances:
    /// `X[i][j] = -C[i][j] / C[j][j]` for `i ≠ j` — the coupling between
    /// aggressor `i` and victim `j`, normalised by the victim's self
    /// capacitance (positive, since couplings are negative). Diagonal
    /// entries are zero.
    pub fn crosstalk(&self) -> Vec<Vec<f64>> {
        let k = self.via_names.len();
        (0..k)
            .map(|i| {
                (0..k)
                    .map(|j| {
                        if i == j {
                            0.0
                        } else {
                            -self.coupling[i][j] / self.coupling[j][j]
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Worst asymmetry of the coupling matrix, `max |C[i][j] − C[j][i]|`
    /// relative to the largest self capacitance — the reciprocity defect
    /// that the tier-1 tests bound.
    pub fn reciprocity_defect(&self) -> f64 {
        let k = self.via_names.len();
        let scale = (0..k)
            .map(|i| self.coupling[i][i].abs())
            .fold(1e-30_f64, f64::max);
        let mut worst = 0.0_f64;
        for i in 0..k {
            for j in (i + 1)..k {
                worst = worst.max((self.coupling[i][j] - self.coupling[j][i]).abs());
            }
        }
        worst / scale
    }

    /// Stable digest of every nominal result value (coupling matrix
    /// row-major, then each victim's sweep ratios), for the CI determinism
    /// matrix. See [`crate::report::result_digest`].
    pub fn digest(&self) -> String {
        let values = self
            .coupling
            .iter()
            .flatten()
            .copied()
            .chain(
                self.victims
                    .iter()
                    .flat_map(|v| v.spectrum.iter().map(|&(_, r)| r)),
            )
            .collect::<Vec<f64>>();
        result_digest(values)
    }

    /// Renders the coupling matrix, crosstalk matrix and aggressor/victim
    /// sweep as aligned plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let k = self.via_names.len();
        let _ = writeln!(
            out,
            "coupling-capacitance matrix C [fF] at {:.3e} Hz (row = driven):",
            self.frequency
        );
        let _ = writeln!(out, "{}", matrix_table(&self.via_names, &self.coupling));
        let _ = writeln!(
            out,
            "crosstalk matrix X[i][j] = -C[i][j]/C[j][j] (diagonal 0):"
        );
        let _ = writeln!(out, "{}", matrix_table(&self.via_names, &self.crosstalk()));
        let _ = writeln!(
            out,
            "aggressor/victim sweep: drive {} (1 V), induced |I_v|/|I_a| per victim:",
            self.aggressor
        );
        let _ = write!(out, "{:>12}", "f [Hz]");
        for v in &self.victims {
            let _ = write!(
                out,
                "  {:>12}",
                format!("{} d={:.2}", v.victim, v.grid_distance)
            );
        }
        let _ = writeln!(out);
        if let Some(first) = self.victims.first() {
            for p in 0..first.spectrum.len() {
                let _ = write!(out, "{:>12.4e}", first.spectrum[p].0);
                for v in &self.victims {
                    let _ = write!(out, "  {:>12.5e}", v.spectrum[p].1);
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(
            out,
            "reciprocity defect max|C[i][j]-C[j][i]|/maxC: {:.3e} over {k}x{k} entries",
            self.reciprocity_defect()
        );
        out
    }
}

/// Aligned K×K matrix with row/column terminal labels.
fn matrix_table(names: &[String], m: &[Vec<f64>]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:>10}", "");
    for n in names {
        let _ = write!(out, "  {n:>10}");
    }
    let _ = writeln!(out);
    for (n, row) in names.iter().zip(m.iter()) {
        let _ = write!(out, "{n:>10}");
        for v in row {
            let _ = write!(out, "  {v:>10.4}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_configuration_builds_a_2x2_analysis() {
        let exp = TsvArrayExperiment::quick();
        let analysis = exp.analysis().unwrap();
        let cfg = analysis.config();
        match &cfg.quantities {
            QuantitySet::CapacitanceColumn { driven, terminals } => {
                assert_eq!(driven, "via_0_0");
                assert_eq!(terminals.len(), 4);
            }
            other => panic!("unexpected quantity set {other:?}"),
        }
        let via = cfg.variations.via_params.as_ref().unwrap();
        assert_eq!(via.vias.len(), 4);
        assert_eq!(via.vias[3].name, "via_1_1");
        assert_eq!(via.vias[3].facets[0], "via_1_1+x");
        assert!(cfg.variations.roughness.is_none());
        assert_eq!(analysis.structure().rough_facets.len(), 16);
    }

    #[test]
    fn paper_configuration_is_a_3x3_with_center_aggressor() {
        let exp = TsvArrayExperiment::paper();
        assert_eq!(exp.geometry.via_count(), 9);
        assert_eq!(exp.aggressor_name(), "via_1_1");
        assert!(exp.mc_runs > TsvArrayExperiment::quick().mc_runs);
    }

    #[test]
    fn sweep_grid_is_log_uniform_and_ordered() {
        let exp = TsvArrayExperiment::quick();
        let grid = exp.sweep_grid();
        assert_eq!(grid.len(), exp.sweep_points);
        assert!((grid[0] - exp.sweep_range.0).abs() < 1e-3 * exp.sweep_range.0);
        assert!((grid[grid.len() - 1] - exp.sweep_range.1).abs() < 1e-3 * exp.sweep_range.1);
        for w in grid.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Log-uniform: constant ratio between neighbours.
        let r0 = grid[1] / grid[0];
        for w in grid.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-9 * r0);
        }
    }

    #[test]
    fn crosstalk_and_digest_derive_from_the_coupling_matrix() {
        let report = TsvArrayReport {
            via_names: vec!["a".into(), "b".into()],
            aggressor: "a".into(),
            frequency: 1.0e9,
            coupling: vec![vec![10.0, -2.0], vec![-2.0, 8.0]],
            victims: vec![VictimSpectrum {
                victim: "b".into(),
                grid_distance: 1.0,
                spectrum: vec![(1.0e8, 0.1), (1.0e9, 0.2)],
            }],
        };
        let x = report.crosstalk();
        assert_eq!(x[0][0], 0.0);
        assert!((x[0][1] - 0.25).abs() < 1e-12, "-(-2)/8 = {}", x[0][1]);
        assert!((x[1][0] - 0.2).abs() < 1e-12, "-(-2)/10 = {}", x[1][0]);
        assert_eq!(report.reciprocity_defect(), 0.0);
        let d = report.digest();
        assert_eq!(d.len(), 16);
        let mut tweaked = report.clone();
        tweaked.coupling[1][0] = -2.0000000001;
        assert_ne!(d, tweaked.digest());
        let text = report.render();
        assert!(text.contains("crosstalk matrix"));
        assert!(text.contains("aggressor/victim sweep"));
    }
}
