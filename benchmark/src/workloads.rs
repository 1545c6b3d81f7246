//! The three workloads, each driven only through the public API of the
//! `vaem` facade and the substrate crates it re-exports.
//!
//! Every workload offers the same four entry points:
//! * [`Job::run`] — one complete job exactly as a user would call it;
//! * [`Job::run_traced`] — the same job with a span around every call
//!   into a layer, calling the same public functions in the same order, so
//!   it must hash to the same digest;
//! * [`Job::probe`] — the layer calls of the nominal sample that the job
//!   itself performs out of reach (inside `run` or the adaptive sweep),
//!   plus the serial per-sample and SSCM-fit references;
//! * [`Job::expected_digest`] — the digest recorded when this benchmark
//!   was added (the baseline commit), at the default seed.
//!
//! Why each workload is here, and which layer metric should move which
//! end-to-end metric on it, is written down in `README.md` next to this
//! crate.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use vaem::experiments::tsv::TsvExperiment;
use vaem::experiments::tsv_array::{TsvArrayExperiment, TsvArrayReport, VictimSpectrum};
use vaem::fvm::{postprocess, AcSolution, CoupledSolver, SeedReuseStats, SolverOptions};
use vaem::mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
use vaem::mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
use vaem::mesh::Structure;
use vaem::physics::DopingProfile;
use vaem::stochastic::SparseCollocation;
use vaem::{
    result_digest, AdaptiveSweepOptions, AdaptiveSweepResult, AnalysisConfig, AnalysisResult,
    DopingVariationConfig, HealthReport, QuantitySet, VariationSpec, VariationalAnalysis,
};

/// The seed that reproduces every workload's reference configuration.
pub const DEFAULT_SEED: u64 = 2012;

/// Upper bound on the relative residual `‖b − A·x‖/‖b‖` of every AC solve,
/// measured on the unscaled system. The Krylov solvers stop at 1e-10 on the
/// equilibrated system; the direct LU lands near machine precision.
pub const RESIDUAL_TOLERANCE: f64 = 1e-6;

/// Bound on the coupling-matrix reciprocity defect of the array extraction.
const RECIPROCITY_TOLERANCE: f64 = 1e-3;

/// Named counters and timings produced by one job, keyed by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// What one job produced, reduced to what the benchmark checks and counts.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Digest of every result value (wall-clock fields excluded).
    pub digest: String,
    /// AC linear solves the job performed, from its own outputs.
    pub solves: usize,
    /// Samples the job attempted (0 when it has no sample fan-out).
    pub samples_total: usize,
    /// Samples the job's `HealthReport` quarantined.
    pub quarantined: usize,
    /// Violated output invariants; empty for a correct job.
    pub problems: Vec<String>,
    /// Frequency grid the job ended on (the sweep grid of the probe).
    pub grid: Vec<f64>,
    /// Per-layer counters read off the job's result.
    pub counters: Counters,
}

/// One workload instance, built from a seed.
pub trait Job {
    /// Runs one complete job, untraced.
    fn run(&self) -> Result<Outcome, String>;
    /// Runs one complete job with spans around every layer call.
    fn run_traced(&self, tracer: &mut Tracer) -> Result<Outcome, String>;
    /// Runs the per-layer probes once; `last` is a finished job's outcome.
    fn probe(&self, tracer: &mut Tracer, last: &Outcome) -> Result<Counters, String>;
    /// Digest of the baseline commit at [`DEFAULT_SEED`]; `None` at other seeds.
    fn expected_digest(&self) -> Option<&'static str>;
    /// Worker threads (`VAEM_THREADS`) of the workload's measured runs.
    fn threads(&self) -> usize;
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = [
    "array_extract_4x4",
    "tsv_variation",
    "adaptive_sweep_direct",
];

/// Builds the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Job>, String> {
    match name {
        "array_extract_4x4" => Ok(Box::new(ArrayExtract::new(seed))),
        "tsv_variation" => Ok(Box::new(TsvVariation::new(seed))),
        "adaptive_sweep_direct" => Ok(Box::new(AdaptiveSweep::new(seed))),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// SplitMix64: a seed-derived stream for the few workload choices that
/// depend on the seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[-1, 1)` from the seed stream.
fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn flag(value: bool) -> f64 {
    if value {
        1.0
    } else {
        0.0
    }
}

/// Strategy and residual tally of the AC solutions a job produced.
#[derive(Debug, Clone, Copy, Default)]
struct AcTally {
    krylov: usize,
    direct: usize,
    other: usize,
    max_residual: f64,
}

impl AcTally {
    fn note(&mut self, ac: &AcSolution) {
        match ac.solver_strategy {
            "sparse-lu" => self.direct += 1,
            s if s.starts_with("ilu0-") => self.krylov += 1,
            _ => self.other += 1,
        }
        self.max_residual = self.max_residual.max(ac.linear_residual);
    }

    fn record(&self, counters: &mut Counters, problems: &mut Vec<String>) {
        counters.insert("sparse.krylov_solves", self.krylov as f64);
        counters.insert("sparse.direct_solves", self.direct as f64);
        counters.insert("sparse.max_residual", self.max_residual);
        if self.other > 0 {
            problems.push(format!("{} AC solves used an unknown strategy", self.other));
        }
        if self.max_residual.is_nan() || self.max_residual >= RESIDUAL_TOLERANCE {
            problems.push(format!(
                "AC residual {:.3e} exceeds the solver tolerance {RESIDUAL_TOLERANCE:.0e}",
                self.max_residual
            ));
        }
    }
}

fn record_seed_stats(counters: &mut Counters, stats: &SeedReuseStats) {
    counters.insert("fvm.seed.dc_seeded", flag(stats.dc_seeded));
    counters.insert("fvm.seed.ac_seeded", flag(stats.ac_seeded));
    counters.insert("fvm.seed.dc_ilu_seeded", flag(stats.dc_ilu_seeded));
    counters.insert("fvm.seed.ac_ilu_seeded", flag(stats.ac_ilu_seeded));
    counters.insert(
        "fvm.seed.stale_refactorizations",
        (stats.dc_stale_refactorizations + stats.ac_stale_refactorizations) as f64,
    );
    counters.insert(
        "fvm.seed.donor_refreshes",
        (stats.dc_donor_refreshes + stats.ac_donor_refreshes) as f64,
    );
}

fn check_health(health: &HealthReport, problems: &mut Vec<String>) {
    if !health.is_clean() {
        problems.push(format!("health: {}", health.summary()));
    }
}

fn check_finite(values: &[f64], what: &str, problems: &mut Vec<String>) {
    if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
        problems.push(format!("{what} holds a non-finite value {bad}"));
    }
}

/// Diagonal > 0 and off-diagonals < 0 on a capacitance column whose entry
/// `diagonal` is the driven terminal.
fn check_column_signs(column: &[f64], diagonal: usize, what: &str, problems: &mut Vec<String>) {
    for (j, &c) in column.iter().enumerate() {
        let ok = if j == diagonal { c > 0.0 } else { c < 0.0 };
        if !ok {
            problems.push(format!("{what}[{j}] = {c:e} has the wrong sign"));
        }
    }
}

/// The nominal sample's layer calls: topology, DC, AC prepare, one driven
/// column, and a sweep of `grid` — the chain every sample of a variation
/// run repeats inside `vaem`, timed here from outside.
fn nominal_chain(
    tracer: &mut Tracer,
    structure: &Structure,
    doping: &DopingProfile,
    options: SolverOptions,
    driven: &str,
    frequency: f64,
    grid: &[f64],
) -> Result<Counters, String> {
    let mut counters = Counters::new();
    let mut problems = Vec::new();
    let mut tally = AcTally::default();
    let solver = tracer.span("fvm.topology", |_| {
        CoupledSolver::new(structure, doping, options).map_err(err)
    })?;
    let dc = tracer.span("fvm.dc", |_| solver.solve_dc().map_err(err))?;
    let mut operator = tracer.span("fvm.ac_prepare", |_| {
        solver.prepare_ac(&dc, frequency).map_err(err)
    })?;
    let ac = tracer.span("fvm.solve_terminal", |_| {
        operator.solve_terminal(driven).map_err(err)
    })?;
    tally.note(&ac);
    let column = tracer.span("fvm.postprocess", |_| {
        postprocess::capacitance_column_from(&solver, &ac).map_err(err)
    })?;
    let values: Vec<f64> = column.values().copied().collect();
    check_finite(&values, "nominal capacitance column", &mut problems);
    let sweep = tracer.span("fvm.sweep", |_| {
        let mut sweep_operator = solver.prepare_ac_sweep(&dc).map_err(err)?;
        sweep_operator.sweep_terminal(grid, driven).map_err(err)
    })?;
    for ac in &sweep {
        tally.note(ac);
    }
    tally.record(&mut counters, &mut problems);
    counters.insert("fvm.newton_iters", dc.newton_iterations as f64);
    counters.insert("fvm.solve_terminal_calls", 1.0);
    counters.insert("fvm.sweep_points", grid.len() as f64);
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(counters)
}

/// The serial per-sample reference and the SSCM fit at dimension `dim`
/// over `outputs` values per collocation run.
fn sample_and_fit_probe(
    tracer: &mut Tracer,
    analysis: &VariationalAnalysis,
    dim: usize,
    outputs: usize,
) -> Result<Counters, String> {
    let nominal = tracer.span("core.evaluate_sample", |_| {
        analysis.evaluate_sample(&[], &[]).map_err(err)
    })?;
    if nominal.is_empty() {
        return Err("evaluate_sample returned no outputs".to_string());
    }
    let points = tracer.span("stochastic.fit", |_| {
        let sscm = SparseCollocation::new(dim);
        // A smooth synthetic response of the right shape around the nominal
        // outputs: the fit's cost depends only on the point and output
        // counts.
        let runs: Vec<Vec<f64>> = sscm
            .points()
            .iter()
            .map(|zeta| {
                (0..outputs)
                    .map(|q| nominal[q % nominal.len()] * (1.0 + 0.01 * zeta[q % dim]))
                    .collect()
            })
            .collect();
        sscm.fit(&runs).map(|_| sscm.run_count()).map_err(err)
    })?;
    let mut counters = Counters::new();
    counters.insert("stochastic.collocation_points", points as f64);
    Ok(counters)
}

// ---------------------------------------------------------------------------
// array_extract_4x4
// ---------------------------------------------------------------------------

/// `TsvArrayExperiment::nominal_report` on the coarse 4×4 array: the
/// 16-column coupling-capacitance matrix off one AC operator, then a
/// 5-point aggressor/victim sweep. The seed picks the aggressor via; the
/// default seed drives the centre via (1, 1).
struct ArrayExtract {
    experiment: TsvArrayExperiment,
    default_seed: bool,
}

impl ArrayExtract {
    fn new(seed: u64) -> Self {
        let geometry = TsvArrayConfig::coarse(4, 4);
        let aggressor = if seed == DEFAULT_SEED {
            ((geometry.rows - 1) / 2, (geometry.cols - 1) / 2)
        } else {
            let via = (mix(seed, 1) % geometry.via_count() as u64) as usize;
            (via / geometry.cols, via % geometry.cols)
        };
        let experiment = TsvArrayExperiment {
            geometry,
            aggressor,
            ..TsvArrayExperiment::quick()
        };
        Self {
            experiment,
            default_seed: seed == DEFAULT_SEED,
        }
    }

    fn outcome(&self, report: &TsvArrayReport) -> Outcome {
        let mut problems = Vec::new();
        let k = report.via_names.len();
        for (i, row) in report.coupling.iter().enumerate() {
            check_finite(row, "coupling matrix", &mut problems);
            check_column_signs(row, i, "coupling row", &mut problems);
        }
        let defect = report.reciprocity_defect();
        if defect.is_nan() || defect >= RECIPROCITY_TOLERANCE {
            problems.push(format!("reciprocity defect {defect:.3e}"));
        }
        for victim in &report.victims {
            let ratios: Vec<f64> = victim.spectrum.iter().map(|&(_, r)| r).collect();
            check_finite(&ratios, "coupling-ratio spectrum", &mut problems);
        }
        let points = self.experiment.sweep_grid().len();
        let mut counters = Counters::new();
        counters.insert("core.grid_points", points as f64);
        Outcome {
            digest: report.digest(),
            solves: k + points,
            problems,
            grid: self.experiment.sweep_grid(),
            counters,
            ..Outcome::default()
        }
    }
}

impl Job for ArrayExtract {
    fn run(&self) -> Result<Outcome, String> {
        let report = self.experiment.nominal_report().map_err(err)?;
        Ok(self.outcome(&report))
    }

    /// `nominal_report`'s sequence with a span per call:
    /// `prepare_ac` → `solve_terminal`×K → `capacitance_column_from`, then
    /// `prepare_ac_sweep` → `sweep_terminal` → `coupling_ratio_spectrum`.
    fn run_traced(&self, tracer: &mut Tracer) -> Result<Outcome, String> {
        let exp = &self.experiment;
        let mut tally = AcTally::default();
        let (report, newton, seed_stats) = tracer.span("iteration", |t| {
            let (structure, doping) = t.span("mesh.build", |_| {
                let structure = build_tsv_array_structure(&exp.geometry).map_err(err)?;
                let semis = structure.semiconductor_nodes();
                let doping =
                    DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);
                Ok::<_, String>((structure, doping))
            })?;
            let solver = t.span("fvm.topology", |_| {
                CoupledSolver::new(&structure, &doping, SolverOptions::default()).map_err(err)
            })?;
            let dc = t.span("fvm.dc", |_| solver.solve_dc().map_err(err))?;

            let names = exp.geometry.via_names();
            let mut operator = t.span("fvm.ac_prepare", |_| {
                solver.prepare_ac(&dc, exp.frequency).map_err(err)
            })?;
            let mut matrix = BTreeMap::new();
            for k in 0..solver.terminals().terminal_count() {
                let driven = solver.terminals().name(k).to_string();
                let ac = t.span("fvm.solve_terminal", |_| {
                    operator.solve_terminal(&driven).map_err(err)
                })?;
                tally.note(&ac);
                let column = t.span("fvm.postprocess", |_| {
                    postprocess::capacitance_column_from(&solver, &ac).map_err(err)
                })?;
                matrix.insert(driven, column);
            }
            let coupling = names
                .iter()
                .map(|driven| {
                    let column = matrix
                        .get(driven)
                        .ok_or_else(|| format!("no capacitance column for '{driven}'"))?;
                    names
                        .iter()
                        .map(|t| {
                            column
                                .get(t)
                                .map(|c| c * 1.0e15)
                                .ok_or_else(|| format!("no entry for '{t}'"))
                        })
                        .collect::<Result<Vec<f64>, String>>()
                })
                .collect::<Result<Vec<Vec<f64>>, String>>()?;

            let aggressor = exp.aggressor_name();
            let aggressor_index = names
                .iter()
                .position(|n| n == &aggressor)
                .ok_or_else(|| format!("aggressor '{aggressor}' is not a via terminal"))?;
            let grid = exp.sweep_grid();
            let sweep = t.span("fvm.sweep", |_| {
                let mut sweep_operator = solver.prepare_ac_sweep(&dc).map_err(err)?;
                sweep_operator
                    .sweep_terminal(&grid, &aggressor)
                    .map_err(err)
            })?;
            for ac in &sweep {
                tally.note(ac);
            }
            let victims = names
                .iter()
                .enumerate()
                .filter(|(_, n)| **n != aggressor)
                .map(|(victim_index, victim)| {
                    let spectrum = t.span("fvm.postprocess", |_| {
                        postprocess::coupling_ratio_spectrum(&solver, &sweep, &aggressor, victim)
                            .map_err(err)
                    })?;
                    Ok(VictimSpectrum {
                        victim: victim.clone(),
                        grid_distance: exp.geometry.grid_distance(aggressor_index, victim_index),
                        spectrum,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let report = TsvArrayReport {
                via_names: names,
                aggressor,
                frequency: exp.frequency,
                coupling,
                victims,
            };
            Ok::<_, String>((report, dc.newton_iterations, solver.topology().seed_stats()))
        })?;
        let mut outcome = self.outcome(&report);
        tally.record(&mut outcome.counters, &mut outcome.problems);
        outcome.counters.insert("fvm.newton_iters", newton as f64);
        outcome
            .counters
            .insert("fvm.solve_terminal_calls", report.via_names.len() as f64);
        outcome
            .counters
            .insert("fvm.sweep_points", outcome.grid.len() as f64);
        record_seed_stats(&mut outcome.counters, &seed_stats);
        Ok(outcome)
    }

    /// The statistics stage's serial per-sample cost (one `evaluate_sample`
    /// on the nominal array) and a minimal SSCM fit over the K outputs; the
    /// job itself has no variation stage.
    fn probe(&self, tracer: &mut Tracer, _last: &Outcome) -> Result<Counters, String> {
        let analysis = self.experiment.analysis().map_err(err)?;
        let outputs = self.experiment.geometry.via_count();
        sample_and_fit_probe(tracer, &analysis, 1, outputs)
    }

    fn expected_digest(&self) -> Option<&'static str> {
        self.default_seed.then_some("637b06233cd4278d")
    }

    fn threads(&self) -> usize {
        2
    }
}

// ---------------------------------------------------------------------------
// tsv_variation
// ---------------------------------------------------------------------------

/// `TsvExperiment::quick().run()`: paper Table II on the two-TSV structure,
/// SSCM over the reduced roughness + RDF variables plus the MC reference.
/// The seed is the MC stream (`AnalysisConfig::seed`).
struct TsvVariation {
    experiment: TsvExperiment,
    default_seed: bool,
}

impl TsvVariation {
    fn new(seed: u64) -> Self {
        let experiment = TsvExperiment {
            seed,
            ..TsvExperiment::quick()
        };
        Self {
            experiment,
            default_seed: seed == DEFAULT_SEED,
        }
    }

    fn outcome(result: &AnalysisResult) -> Outcome {
        let mut problems = Vec::new();
        check_health(&result.health, &mut problems);
        let mut values = Vec::new();
        for q in &result.quantities {
            values.extend([
                q.nominal,
                q.sscm.mean,
                q.sscm.std,
                q.monte_carlo.mean,
                q.monte_carlo.std,
            ]);
            values.extend_from_slice(&q.main_effects);
        }
        check_finite(&values, "statistics", &mut problems);
        let nominal: Vec<f64> = result.quantities.iter().map(|q| q.nominal).collect();
        check_column_signs(&nominal, 0, "nominal column C[tsv1]", &mut problems);
        let means: Vec<f64> = result.quantities.iter().map(|q| q.sscm.mean).collect();
        check_column_signs(&means, 0, "SSCM mean column C[tsv1]", &mut problems);
        values.extend(result.health.digest_values());

        let samples = result.collocation_runs + result.mc_runs + 1;
        let mut counters = Counters::new();
        counters.insert("core.sscm_ms", result.sscm_seconds * 1.0e3);
        counters.insert("core.mc_ms", result.mc_seconds * 1.0e3);
        counters.insert("core.samples", samples as f64);
        counters.insert(
            "core.ms_per_sample",
            (result.sscm_seconds + result.mc_seconds) * 1.0e3 / samples as f64,
        );
        counters.insert("core.grid_points", 1.0);
        counters.insert("core.recovered", result.health.recovered.len() as f64);
        counters.insert("variation.reduced_dims", result.total_reduced_dim() as f64);
        record_seed_stats(&mut counters, &result.seed_reuse);
        Outcome {
            digest: result_digest(values),
            solves: samples,
            samples_total: result.health.samples_total,
            quarantined: result.health.quarantined.len(),
            problems,
            grid: Vec::new(),
            counters,
        }
    }
}

impl Job for TsvVariation {
    fn run(&self) -> Result<Outcome, String> {
        let result = self.experiment.run().map_err(err)?;
        Ok(Self::outcome(&result))
    }

    /// `run()` is `analysis().run()`: the structure build is timed on its
    /// own, the analysis (nominal, reduction, SSCM fan-out, MC) as one span.
    fn run_traced(&self, tracer: &mut Tracer) -> Result<Outcome, String> {
        let result = tracer.span("iteration", |t| {
            let analysis = t.span("mesh.build", |_| self.experiment.analysis());
            t.span("core.run", |_| analysis.run().map_err(err))
        })?;
        Ok(Self::outcome(&result))
    }

    fn probe(&self, tracer: &mut Tracer, last: &Outcome) -> Result<Counters, String> {
        let analysis = self.experiment.analysis();
        let config = analysis.config();
        let mut counters = nominal_chain(
            tracer,
            analysis.structure(),
            &analysis.nominal_doping(),
            config.solver.clone(),
            "tsv1",
            config.frequency,
            &[config.frequency],
        )?;
        let dim = last
            .counters
            .get("variation.reduced_dims")
            .map_or(1, |&d| (d as usize).max(1));
        let outputs = config.quantities.labels().len();
        counters.append(&mut sample_and_fit_probe(tracer, &analysis, dim, outputs)?);
        Ok(counters)
    }

    fn expected_digest(&self) -> Option<&'static str> {
        self.default_seed.then_some("0b6a99c793bec9cc")
    }

    fn threads(&self) -> usize {
        2
    }
}

// ---------------------------------------------------------------------------
// adaptive_sweep_direct
// ---------------------------------------------------------------------------

/// `run_adaptive_frequency_sweep` on the tiny metal plug, lightly doped
/// (`nominal_donor = 20`) with doping-only variation: a 9-point coarse grid
/// over [0.1, 10] GHz refined at 6 % tolerance. The systems sit below the
/// direct-LU threshold, so every point is a numeric refactorization plus a
/// triangular solve. The seed jitters the grid endpoints by up to ±0.2 % in
/// log space; the default seed leaves them at 0.1 and 10 GHz.
struct AdaptiveSweep {
    coarse: Vec<f64>,
    options: AdaptiveSweepOptions,
    default_seed: bool,
}

impl AdaptiveSweep {
    fn new(seed: u64) -> Self {
        let (lo, hi) = if seed == DEFAULT_SEED {
            (1.0e8, 1.0e10)
        } else {
            (
                1.0e8 * (0.002 * unit(seed, 2)).exp(),
                1.0e10 * (0.002 * unit(seed, 3)).exp(),
            )
        };
        Self {
            coarse: log_grid(9, lo, hi),
            options: AdaptiveSweepOptions {
                rel_tolerance: 0.06,
                max_points: 96,
                max_depth: 6,
            },
            default_seed: seed == DEFAULT_SEED,
        }
    }

    fn analysis() -> VariationalAnalysis {
        let structure = build_metalplug_structure(&MetalPlugConfig::tiny());
        let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
            terminal: "plug1".to_string(),
        });
        config.nominal_donor = 2.0e1;
        config.energy_fraction = 0.9;
        config.max_reduced_per_group = 2;
        config.variations = VariationSpec {
            roughness: None,
            doping: Some(DopingVariationConfig {
                max_nodes: 10,
                ..DopingVariationConfig::paper_default()
            }),
            via_params: None,
        };
        VariationalAnalysis::new(structure, config)
    }

    fn outcome(result: &AdaptiveSweepResult) -> Outcome {
        let sweep = &result.sweep;
        let mut problems = Vec::new();
        check_health(&sweep.health, &mut problems);
        if result.budget_exhausted {
            problems.push("the point budget cut the refinement short".to_string());
        }
        if sweep.frequencies.windows(2).any(|w| w[1] <= w[0]) {
            problems.push("refined grid is not strictly ascending".to_string());
        }
        let mut values = sweep.frequencies.clone();
        for q in &sweep.quantities {
            values.extend_from_slice(&q.nominal);
            for s in &q.sscm {
                values.extend([s.mean, s.std]);
            }
        }
        check_finite(&values, "sweep spectra", &mut problems);
        values.extend(sweep.health.digest_values());

        let samples = sweep.collocation_runs + 1;
        let reduced: usize = sweep.reductions.iter().map(|g| g.reduced_dim).sum();
        let mut counters = Counters::new();
        counters.insert("core.sscm_ms", sweep.seconds * 1.0e3);
        counters.insert("core.samples", samples as f64);
        counters.insert("core.ms_per_sample", sweep.seconds * 1.0e3 / samples as f64);
        counters.insert("core.grid_points", sweep.frequencies.len() as f64);
        counters.insert("core.refined_points", result.refined_point_count() as f64);
        counters.insert("core.waves", result.waves as f64);
        counters.insert("core.recovered", sweep.health.recovered.len() as f64);
        counters.insert("variation.reduced_dims", reduced as f64);
        record_seed_stats(&mut counters, &sweep.seed_reuse);
        Outcome {
            digest: result_digest(values),
            solves: result.ac_solve_count(),
            samples_total: sweep.health.samples_total,
            quarantined: sweep.health.quarantined.len(),
            problems,
            grid: sweep.frequencies.clone(),
            counters,
        }
    }
}

/// `n` log-uniform points from `lo` to `hi`.
fn log_grid(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let span = (hi / lo).ln();
    (0..n)
        .map(|i| lo * (span * i as f64 / (n - 1) as f64).exp())
        .collect()
}

impl Job for AdaptiveSweep {
    fn run(&self) -> Result<Outcome, String> {
        let result = Self::analysis()
            .run_adaptive_frequency_sweep(&self.coarse, &self.options)
            .map_err(err)?;
        Ok(Self::outcome(&result))
    }

    fn run_traced(&self, tracer: &mut Tracer) -> Result<Outcome, String> {
        let result = tracer.span("iteration", |t| {
            let analysis = t.span("mesh.build", |_| Self::analysis());
            t.span("core.run", |_| {
                analysis
                    .run_adaptive_frequency_sweep(&self.coarse, &self.options)
                    .map_err(err)
            })
        })?;
        Ok(Self::outcome(&result))
    }

    fn probe(&self, tracer: &mut Tracer, last: &Outcome) -> Result<Counters, String> {
        let analysis = Self::analysis();
        let config = analysis.config();
        let grid = if last.grid.is_empty() {
            self.coarse.clone()
        } else {
            last.grid.clone()
        };
        let mut counters = nominal_chain(
            tracer,
            analysis.structure(),
            &analysis.nominal_doping(),
            config.solver.clone(),
            "plug1",
            config.frequency,
            &grid,
        )?;
        let dim = last
            .counters
            .get("variation.reduced_dims")
            .map_or(1, |&d| (d as usize).max(1));
        counters.append(&mut sample_and_fit_probe(
            tracer,
            &analysis,
            dim,
            grid.len(),
        )?);
        Ok(counters)
    }

    fn expected_digest(&self) -> Option<&'static str> {
        self.default_seed.then_some("90cd544fdd3019b8")
    }

    /// One: a wave holds only 15 samples, so at two threads one thread
    /// waits whenever the other vCPU of a shared host is slowed; the job ran
    /// at about half its single-thread speed there, and its medians spread
    /// by a quarter to a half between runs. The traced run still measures
    /// the two-thread fan-out (`parallel.*`).
    fn threads(&self) -> usize {
        1
    }
}
