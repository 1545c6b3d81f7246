//! The variational analysis workflow (nominal solve → weights → reduction →
//! SSCM + Monte Carlo).
//!
//! The SSCM collocation points and the Monte-Carlo reference runs are
//! independent deterministic solves; both stages fan out over
//! [`vaem_parallel::par_map`] worker threads (`VAEM_THREADS`, hardware
//! default). Every Monte-Carlo run draws from its own RNG stream seeded by
//! `(config.seed, run index)`, so the results are bit-for-bit identical for
//! any thread count.

use crate::config::{AnalysisConfig, QuantitySet, ReductionMethod};
use crate::health::{classify, HealthReport, QuarantinedSample, RecoveredSample, SampleStage};
use crate::report::ComparisonTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use vaem_fvm::{
    postprocess, AcSolution, CoupledSolver, DcSolution, FvmError, SeedReuseStats, SolverOptions,
    SolverTopology,
};
use vaem_mesh::{MeshError, NodeId, Structure};
use vaem_numeric::dense::DMatrix;
use vaem_numeric::stats::RunningStats;
use vaem_numeric::NumericError;
use vaem_parallel::faults::{self, FaultPlan, FaultSite, FaultStage};
use vaem_parallel::{par_map, par_map_indices, par_map_mut};
use vaem_physics::DopingProfile;
use vaem_sparse::SolverKind;
use vaem_stochastic::{SparseCollocation, SummaryStats};
use vaem_variation::{
    apply_roughness, covariance_matrix, standard_normal_vector, CorrelationKernel,
    FacetPerturbation, FullRankGaussian, Pfa, VariableReduction, Wpfa,
};

/// Derives the RNG seed of one Monte-Carlo run from the base seed and the
/// run index.
///
/// Each run owns an independent generator, so runs can be evaluated in any
/// order — and on any number of threads — without changing the sampled
/// ensemble. The odd multiplier makes the map `run ↦ seed` a bijection for a
/// fixed base; `StdRng::seed_from_u64` scrambles the sequential values into
/// decorrelated streams.
fn mc_run_seed(base: u64, run: u64) -> u64 {
    base.wrapping_add(run.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Errors of the analysis workflow.
#[derive(Debug)]
pub enum AnalysisError {
    /// The deterministic coupled solver failed.
    Solver(FvmError),
    /// A dense numerical kernel (reduction, chaos fit) failed.
    Numeric(NumericError),
    /// The configuration references missing facets/terminals or is empty.
    Configuration(String),
    /// A (perturbed) sample geometry was impossible to mesh.
    Mesh(MeshError),
    /// More samples were quarantined than
    /// [`AnalysisConfig::quarantine_budget`] tolerates; the surviving
    /// statistics would no longer be trustworthy.
    QuarantineExceeded {
        /// Samples whose recovery retry also failed.
        quarantined: usize,
        /// Total samples attempted (nominal + collocation + Monte Carlo).
        total: usize,
        /// The configured budget (fraction of `total`).
        budget: f64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Solver(e) => write!(f, "deterministic solver failed: {e}"),
            AnalysisError::Numeric(e) => write!(f, "numerical kernel failed: {e}"),
            AnalysisError::Configuration(d) => write!(f, "configuration error: {d}"),
            AnalysisError::Mesh(e) => write!(f, "sample geometry failed: {e}"),
            AnalysisError::QuarantineExceeded {
                quarantined,
                total,
                budget,
            } => write!(
                f,
                "quarantined {quarantined} of {total} samples, exceeding the budget of {:.0}%",
                budget * 100.0
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<FvmError> for AnalysisError {
    fn from(e: FvmError) -> Self {
        AnalysisError::Solver(e)
    }
}

impl From<NumericError> for AnalysisError {
    fn from(e: NumericError) -> Self {
        AnalysisError::Numeric(e)
    }
}

impl From<MeshError> for AnalysisError {
    fn from(e: MeshError) -> Self {
        AnalysisError::Mesh(e)
    }
}

/// Statistics of one output quantity: SSCM vs Monte-Carlo, as in the paper's
/// tables.
#[derive(Debug, Clone)]
pub struct QuantityResult {
    /// Output label (e.g. `"J(plug1) [uA]"`, `"C_tsv1,tsv2 [fF]"`).
    pub label: String,
    /// Deterministic (nominal-geometry, nominal-doping) value.
    pub nominal: f64,
    /// SSCM estimate.
    pub sscm: SummaryStats,
    /// Monte-Carlo reference.
    pub monte_carlo: SummaryStats,
    /// First-order Sobol main effect of every reduced dimension (in
    /// reduction order, concatenated over the groups): the fraction of this
    /// quantity's PCE variance explained by that dimension alone. Empty when
    /// the quantity was not produced by the SSCM stage.
    pub main_effects: Vec<f64>,
}

impl QuantityResult {
    /// Relative error of the SSCM mean against the MC mean.
    pub fn mean_error(&self) -> f64 {
        vaem_numeric::stats::relative_error(self.sscm.mean, self.monte_carlo.mean, 1e-30)
    }

    /// Relative error of the SSCM standard deviation against the MC one.
    pub fn std_error(&self) -> f64 {
        vaem_numeric::stats::relative_error(self.sscm.std, self.monte_carlo.std, 1e-30)
    }
}

/// Variable-reduction summary for one variation group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReduction {
    /// Group name (facet group or `"doping"`).
    pub name: String,
    /// Number of correlated variables before reduction.
    pub full_dim: usize,
    /// Number of independent factors after reduction.
    pub reduced_dim: usize,
}

/// Full result of a variational analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Per-quantity statistics.
    pub quantities: Vec<QuantityResult>,
    /// Variable-reduction summary per group.
    pub reductions: Vec<GroupReduction>,
    /// Number of deterministic solves used by the SSCM stage.
    pub collocation_runs: usize,
    /// Number of Monte-Carlo samples.
    pub mc_runs: usize,
    /// Wall-clock seconds of the SSCM stage (including the nominal solve).
    pub sscm_seconds: f64,
    /// Wall-clock seconds of the Monte-Carlo stage.
    pub mc_seconds: f64,
    /// Cross-sample symbolic-reuse statistics: whether the nominal solve
    /// published DC/AC donor factorizations and how many samples had to
    /// re-pivot because the donor's pivot sequence went numerically stale
    /// for their perturbed values.
    pub seed_reuse: SeedReuseStats,
    /// Containment record of the run: quarantined/recovered samples and the
    /// failure taxonomy counts. All-empty for a fully healthy run.
    pub health: HealthReport,
}

impl AnalysisResult {
    /// Speed-up of SSCM over Monte Carlo (wall-clock).
    pub fn speedup(&self) -> f64 {
        if self.sscm_seconds > 0.0 {
            self.mc_seconds / self.sscm_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Renders the result as a paper-style comparison table.
    pub fn table(&self) -> ComparisonTable {
        ComparisonTable::from_result(self)
    }

    /// Total number of reduced random variables.
    pub fn total_reduced_dim(&self) -> usize {
        self.reductions.iter().map(|g| g.reduced_dim).sum()
    }

    /// Sums one quantity's first-order main effects over the reduced
    /// dimensions of each variation group, answering "which variation source
    /// dominates this output". Returns `(group name, summed Sobol fraction)`
    /// in group order; fractions below 1 leave room for higher-order and
    /// cross-group interaction terms.
    pub fn group_main_effects(&self, quantity: usize) -> Vec<(String, f64)> {
        let effects = &self.quantities[quantity].main_effects;
        let mut out = Vec::with_capacity(self.reductions.len());
        let mut offset = 0;
        for group in &self.reductions {
            let end = (offset + group.reduced_dim).min(effects.len());
            let sum = effects[offset.min(end)..end].iter().sum();
            out.push((group.name.clone(), sum));
            offset += group.reduced_dim;
        }
        out
    }
}

/// One output quantity across a frequency grid (see
/// [`VariationalAnalysis::run_frequency_sweep`]).
#[derive(Debug, Clone)]
pub struct SweepQuantity {
    /// Output label (e.g. `"J(plug1) [uA]"`).
    pub label: String,
    /// Deterministic (nominal-geometry, nominal-doping) value per frequency.
    pub nominal: Vec<f64>,
    /// SSCM-propagated statistics per frequency.
    pub sscm: Vec<SummaryStats>,
}

/// Result of a swept-frequency variational analysis: the configured output
/// quantities — capacitance entries or interface currents — resolved over a
/// frequency grid, with SSCM statistics per grid point.
#[derive(Debug, Clone)]
pub struct FrequencySweepResult {
    /// The swept frequency grid (Hz), in input order.
    pub frequencies: Vec<f64>,
    /// Per-quantity spectra.
    pub quantities: Vec<SweepQuantity>,
    /// Variable-reduction summary per group.
    pub reductions: Vec<GroupReduction>,
    /// Number of deterministic sample sweeps used by the SSCM stage.
    pub collocation_runs: usize,
    /// Wall-clock seconds of the whole sweep (nominal + collocation).
    pub seconds: f64,
    /// Cross-sample symbolic-reuse statistics (see
    /// [`AnalysisResult::seed_reuse`]).
    pub seed_reuse: SeedReuseStats,
    /// Containment record of the sweep (see [`AnalysisResult::health`]).
    pub health: HealthReport,
}

impl FrequencySweepResult {
    /// Total number of deterministic linear AC solves performed
    /// (`(collocation runs + nominal) × grid points`).
    pub fn ac_solve_count(&self) -> usize {
        (self.collocation_runs + 1) * self.frequencies.len()
    }
}

/// Options of the error-controlled adaptive frequency sweep
/// ([`VariationalAnalysis::run_adaptive_frequency_sweep`]).
#[derive(Debug, Clone)]
pub struct AdaptiveSweepOptions {
    /// Relative tolerance of the refinement indicator: an interior grid
    /// point whose computed spectra (nominal, SSCM mean **and** SSCM std)
    /// deviate from the log-frequency interpolation of its neighbours by
    /// more than this fraction of the local spectrum scale flags both
    /// adjacent intervals for bisection. Overridable from the `ac_sweep`
    /// binary via `VAEM_SWEEP_TOL`.
    pub rel_tolerance: f64,
    /// Hard ceiling on the total number of grid points (coarse + refined).
    /// When a wave would exceed it, only the worst-indicator midpoints are
    /// inserted and the result is marked
    /// [`AdaptiveSweepResult::budget_exhausted`].
    pub max_points: usize,
    /// Maximum bisection generations per initial coarse interval.
    pub max_depth: usize,
}

impl Default for AdaptiveSweepOptions {
    fn default() -> Self {
        Self {
            rel_tolerance: 0.02,
            max_points: 96,
            max_depth: 6,
        }
    }
}

/// Where one grid point of an adaptive sweep came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOrigin {
    /// Member of the caller-supplied coarse grid.
    Coarse,
    /// Midpoint inserted by refinement wave `wave` (1-based), `depth`
    /// bisection generations below the coarse grid.
    Refined {
        /// Refinement wave (1-based) that inserted the point.
        wave: usize,
        /// Bisection depth of the point (coarse points are depth 0).
        depth: usize,
    },
}

impl PointOrigin {
    /// Bisection depth of the point (0 for coarse grid members).
    pub fn depth(&self) -> usize {
        match self {
            PointOrigin::Coarse => 0,
            PointOrigin::Refined { depth, .. } => *depth,
        }
    }
}

/// Result of an adaptive frequency sweep: a [`FrequencySweepResult`] over
/// the refined grid (frequencies ascending) plus per-point provenance.
#[derive(Debug, Clone)]
pub struct AdaptiveSweepResult {
    /// The spectra over the final (refined) grid, ascending in frequency.
    pub sweep: FrequencySweepResult,
    /// Provenance of each grid point, parallel to `sweep.frequencies`.
    pub origins: Vec<PointOrigin>,
    /// Number of refinement waves that inserted points.
    pub waves: usize,
    /// The point budget cut refinement short: some flagged intervals were
    /// left unsplit.
    pub budget_exhausted: bool,
}

impl AdaptiveSweepResult {
    /// Number of points the refinement added on top of the coarse grid.
    pub fn refined_point_count(&self) -> usize {
        self.origins
            .iter()
            .filter(|o| matches!(o, PointOrigin::Refined { .. }))
            .count()
    }

    /// Total number of deterministic linear AC solves performed (see
    /// [`FrequencySweepResult::ac_solve_count`]); refinement points cost
    /// exactly as much as coarse grid points.
    pub fn ac_solve_count(&self) -> usize {
        self.sweep.ac_solve_count()
    }
}

/// Persistent per-sample solver state of an adaptive sweep: the perturbed
/// problem is built once and the DC operating point is solved once (first
/// wave); every later refinement wave only re-prepares the AC sweep
/// operator against the shared topology and pays a numeric refactorization
/// plus a warm-started solve per new point.
struct SampleState {
    structure: Structure,
    doping: DopingProfile,
    dc: Option<DcSolution>,
}

/// One grid point of the adaptive refinement loop (the bisection depth
/// lives on the origin).
struct PointRecord {
    frequency: f64,
    origin: PointOrigin,
    /// Nominal outputs, one per quantity.
    nominal: Vec<f64>,
    /// SSCM means, one per quantity.
    mean: Vec<f64>,
    /// SSCM standard deviations, one per quantity.
    std: Vec<f64>,
}

/// Monotone interpolation coordinate of the refinement indicator:
/// logarithmic above 1 Hz, linear below, continuous at the seam — so grids
/// that include the DC point stay usable.
fn freq_coord(f: f64) -> f64 {
    if f > 1.0 {
        1.0 + f.ln()
    } else {
        f
    }
}

/// Geometric midpoint for positive endpoints (log-uniform bisection),
/// arithmetic when the interval touches f = 0.
fn midpoint_frequency(lo: f64, hi: f64) -> f64 {
    if lo > 0.0 {
        (lo * hi).sqrt()
    } else {
        0.5 * (lo + hi)
    }
}

/// Interpolation-defect refinement indicator at the middle of three
/// neighbouring grid points: how far the computed nominal spectrum, the
/// SSCM mean and the SSCM std at `mid` deviate from the log-frequency
/// linear interpolation between `lo` and `hi`, relative to the local
/// spectrum scale, worst case over the quantities. The std term weights
/// the indicator by the per-point PCE uncertainty: where the variation
/// band itself curves, the grid refines even if the nominal curve looks
/// smooth.
fn refinement_indicator(lo: &PointRecord, mid: &PointRecord, hi: &PointRecord) -> f64 {
    let (xl, xm, xh) = (
        freq_coord(lo.frequency),
        freq_coord(mid.frequency),
        freq_coord(hi.frequency),
    );
    // Grid frequencies are validated finite and strictly increasing, so
    // the coordinate span is finite; a degenerate one yields no indicator.
    let span = xh - xl;
    if span <= 0.0 {
        return 0.0;
    }
    let t = (xm - xl) / span;
    let lerp = |a: f64, b: f64| a + t * (b - a);
    let mut worst = 0.0_f64;
    for q in 0..mid.nominal.len() {
        let scale = lo.nominal[q]
            .abs()
            .max(mid.nominal[q].abs())
            .max(hi.nominal[q].abs())
            .max(lo.mean[q].abs())
            .max(mid.mean[q].abs())
            .max(hi.mean[q].abs())
            .max(1e-300);
        let defect = (mid.nominal[q] - lerp(lo.nominal[q], hi.nominal[q])).abs()
            + (mid.mean[q] - lerp(lo.mean[q], hi.mean[q])).abs()
            + (mid.std[q] - lerp(lo.std[q], hi.std[q])).abs();
        worst = worst.max(defect / scale);
    }
    worst
}

/// Accumulates a flagged interval (identified by the index of its left
/// endpoint), keeping the worst indicator that flagged it.
fn flag_interval(flagged: &mut Vec<(usize, f64)>, left: usize, indicator: f64) {
    if let Some(slot) = flagged.iter_mut().find(|(l, _)| *l == left) {
        slot.1 = slot.1.max(indicator);
    } else {
        flagged.push((left, indicator));
    }
}

/// Per-group reductions plus their summaries.
type GroupReductions = (Vec<Box<dyn VariableReduction>>, Vec<GroupReduction>);

/// The inputs of one deterministic evaluation: facet offsets plus doping
/// perturbations.
#[derive(Debug, Clone, Default)]
struct SampleInput {
    facet_offsets: Vec<(String, Vec<f64>)>,
    doping_deltas: Vec<(NodeId, f64)>,
}

/// One group of correlated variation variables.
struct VariationGroup {
    name: String,
    kind: GroupKind,
    covariance: DMatrix<f64>,
}

enum GroupKind {
    /// Geometry group: perturbs the listed facets; `slices[i]` is the range of
    /// the group's variable vector belonging to facet `facet_names[i]`.
    Geometry {
        facet_names: Vec<String>,
        slices: Vec<(usize, usize)>,
        nodes: Vec<NodeId>,
    },
    /// Doping group over the listed semiconductor nodes.
    Doping { nodes: Vec<NodeId> },
    /// Scalar per-via parameter group (TSV-array radius/position): each of
    /// the few Gaussian parameters moves whole wall facets rigidly. Per
    /// facet: name, node count, and the signed weight every parameter
    /// contributes to the wall's uniform normal offset.
    ViaParams {
        facets: Vec<(String, usize, Vec<f64>)>,
        params: usize,
    },
}

impl VariationGroup {
    fn dim(&self) -> usize {
        match &self.kind {
            GroupKind::Geometry { nodes, .. } => nodes.len(),
            GroupKind::Doping { nodes } => nodes.len(),
            GroupKind::ViaParams { params, .. } => *params,
        }
    }

    fn nodes(&self) -> &[NodeId] {
        match &self.kind {
            GroupKind::Geometry { nodes, .. } => nodes,
            GroupKind::Doping { nodes } => nodes,
            // Scalar parameters have no per-node influence weights: the
            // reduction falls back to plain PFA, which is exact for the
            // tiny diagonal covariance of the group.
            GroupKind::ViaParams { .. } => &[],
        }
    }
}

/// The paper's workflow bound to one structure and configuration.
pub struct VariationalAnalysis {
    structure: Structure,
    config: AnalysisConfig,
}

impl VariationalAnalysis {
    /// Creates an analysis for a structure.
    pub fn new(structure: Structure, config: AnalysisConfig) -> Self {
        Self { structure, config }
    }

    /// The analysed structure.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The analysis configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Nominal doping profile (uniform donor concentration over the
    /// semiconductor region).
    pub fn nominal_doping(&self) -> DopingProfile {
        let semis = self.structure.semiconductor_nodes();
        DopingProfile::uniform_donor(
            self.structure.mesh.node_count(),
            &semis,
            self.config.nominal_donor,
        )
    }

    /// Evaluates the deterministic model for one realisation of the
    /// variations.
    ///
    /// `facet_offsets` maps facet names to per-node normal offsets;
    /// `doping_deltas` holds relative donor perturbations per node.
    ///
    /// # Errors
    /// Propagates deterministic-solver failures.
    pub fn evaluate_sample(
        &self,
        facet_offsets: &[(String, Vec<f64>)],
        doping_deltas: &[(NodeId, f64)],
    ) -> Result<Vec<f64>, AnalysisError> {
        let topology = Arc::new(SolverTopology::build(&self.structure)?);
        self.evaluate_sample_with(
            &topology,
            facet_offsets,
            doping_deltas,
            self.sample_solver_options(),
        )
    }

    /// Builds the perturbed structure and doping profile of one sample.
    // vaem-lint: cold per-sample problem construction (mesh, doping, topology)
    fn sample_problem(
        &self,
        facet_offsets: &[(String, Vec<f64>)],
        doping_deltas: &[(NodeId, f64)],
    ) -> Result<(Structure, DopingProfile), AnalysisError> {
        if faults::armed(FaultSite::Mesh) {
            return Err(AnalysisError::Mesh(MeshError::DegenerateConfig {
                detail: "injected fault at site 'mesh'".to_string(),
            }));
        }
        // Perturbed geometry (positions only — the mesh topology is
        // invariant, which is what lets samples share a `SolverTopology`).
        let mut structure = self.structure.clone();
        if !facet_offsets.is_empty() {
            let model = self
                .config
                .variations
                .roughness
                .as_ref()
                .map(|r| r.model)
                .unwrap_or_default();
            let perturbations: Vec<FacetPerturbation<'_>> = facet_offsets
                .iter()
                .map(|(name, offsets)| {
                    let facet = self.structure.facet(name).ok_or_else(|| {
                        AnalysisError::Configuration(format!("unknown facet '{name}'"))
                    })?;
                    Ok(FacetPerturbation::new(facet, offsets.clone()))
                })
                .collect::<Result<_, AnalysisError>>()?;
            apply_roughness(&mut structure.mesh, model, &perturbations);
        }

        // Perturbed doping.
        let doping = self.nominal_doping().perturbed(doping_deltas);
        Ok((structure, doping))
    }

    /// Solver options for the perturbed-sample workers: identical to the
    /// configured options except that samples never *publish* symbolic
    /// donors onto the shared topology. The nominal solve (run before the
    /// fan-out) is the single designated donor, so which pivot sequence
    /// seeds the sweep can never depend on worker timing.
    fn sample_solver_options(&self) -> SolverOptions {
        SolverOptions {
            publish_symbolic: false,
            ..self.config.solver.clone()
        }
    }

    /// Solver options of the single deterministic recovery retry a failed
    /// sample gets before being quarantined: escalate to the direct LU
    /// strategy and drop the donor factorizations, removing every
    /// optimization that can itself be the failure (stale pivots, a broken
    /// ILU, a non-converging Krylov chain). Publishing stays off — a
    /// recovery solve must never become the donor for healthy samples.
    fn recovery_solver_options(&self) -> SolverOptions {
        SolverOptions {
            publish_symbolic: false,
            reuse_symbolic: false,
            linear_solver: SolverKind::DirectLu,
            ..self.config.solver.clone()
        }
    }

    /// [`VariationalAnalysis::evaluate_sample`] against a shared
    /// [`SolverTopology`] (terminal labelling, adjacency and sparsity
    /// patterns built once per analysis, not once per sample).
    fn evaluate_sample_with(
        &self,
        topology: &Arc<SolverTopology>,
        facet_offsets: &[(String, Vec<f64>)],
        doping_deltas: &[(NodeId, f64)],
        options: SolverOptions,
    ) -> Result<Vec<f64>, AnalysisError> {
        let (structure, doping) = self.sample_problem(facet_offsets, doping_deltas)?;
        // vaem-lint: allow(H2) Arc refcount bump handing the shared topology to the solver
        let solver = CoupledSolver::with_topology(&structure, &doping, options, topology.clone())?;
        let dc = solver.solve_dc()?;
        self.extract_outputs(&solver, &dc)
    }

    /// Evaluates one sample across a whole frequency grid with the
    /// sweep-aware AC operator (one assembly + symbolic factorization, a
    /// numeric refactorization per point, warm-started solves).
    ///
    /// Returns the outputs flattened frequency-major:
    /// `[f0 q0, f0 q1, ..., f1 q0, ...]`.
    fn evaluate_spectrum_with(
        &self,
        topology: &Arc<SolverTopology>,
        facet_offsets: &[(String, Vec<f64>)],
        doping_deltas: &[(NodeId, f64)],
        frequencies: &[f64],
        options: SolverOptions,
    ) -> Result<Vec<f64>, AnalysisError> {
        let (structure, doping) = self.sample_problem(facet_offsets, doping_deltas)?;
        // vaem-lint: allow(H2) Arc refcount bump handing the shared topology to the solver
        let solver = CoupledSolver::with_topology(&structure, &doping, options, topology.clone())?;
        let dc = solver.solve_dc()?;
        let mut operator = solver.prepare_ac_sweep(&dc)?;
        let sweep = operator.sweep_terminal(frequencies, self.driven_terminal())?;
        // vaem-lint: allow(H1) per-sample output buffer, sized once per evaluation
        let mut out = Vec::with_capacity(frequencies.len() * self.config.quantities.len());
        for ac in &sweep {
            out.extend(self.extract_outputs_from(&solver, ac)?);
        }
        Ok(out)
    }

    /// Evaluates one persistent sample state over a list of frequencies
    /// (one refinement wave): the DC operating point is solved on the first
    /// call and cached; every call re-prepares the AC sweep operator
    /// against the shared topology (seeded symbolic phase) and pays a
    /// numeric refactorization plus a warm-started solve per point.
    ///
    /// Returns the outputs flattened frequency-major, like
    /// [`VariationalAnalysis::evaluate_spectrum_with`]; for a fresh state
    /// and the same grid the two paths produce bit-identical outputs.
    fn evaluate_state(
        &self,
        topology: &Arc<SolverTopology>,
        state: &mut SampleState,
        frequencies: &[f64],
        options: SolverOptions,
    ) -> Result<Vec<f64>, AnalysisError> {
        let solver = CoupledSolver::with_topology(
            &state.structure,
            &state.doping,
            options,
            // vaem-lint: allow(H2) Arc refcount bump handing the shared topology to the solver
            topology.clone(),
        )?;
        // Take the cached DC operating point (solving it on the first call)
        // and put it back once the sweep operator holds its own data; a
        // failed DC solve leaves the cache empty, so a recovery retry
        // re-solves instead of trusting a poisoned operating point.
        let dc = match state.dc.take() {
            Some(dc) => dc,
            None => solver.solve_dc()?,
        };
        let operator = solver.prepare_ac_sweep(&dc);
        state.dc = Some(dc);
        let mut operator = operator?;
        // vaem-lint: allow(H1) per-sample output buffer, sized once per evaluation
        let mut out = Vec::with_capacity(frequencies.len() * self.config.quantities.len());
        for &frequency in frequencies {
            let ac = operator.solve_at(frequency, self.driven_terminal())?;
            out.extend(self.extract_outputs_from(&solver, &ac)?);
        }
        Ok(out)
    }

    /// Installs the fault-injection scope for one per-sample evaluation
    /// when a plan is active (`None` plan → no scope, zero overhead). The
    /// guard is created inside the worker closure keyed by the sample
    /// index, so injection is independent of worker timing.
    fn fault_scope(
        plan: &Option<Arc<FaultPlan>>,
        stage: FaultStage,
        index: usize,
        attempt: u32,
    ) -> Option<faults::ScopeGuard> {
        plan.as_ref()
            // vaem-lint: allow(H2) Arc refcount bump installing the fault scope
            .map(|p| faults::scope(p.clone(), stage, index, attempt))
    }

    /// Runs the nominal evaluation with containment: one recovery retry
    /// with the escalated solver options on failure. A nominal failure that
    /// survives the retry is fatal — every downstream stage (weights,
    /// reduction, quarantine patching) needs the nominal solution.
    fn contain_nominal<T>(
        &self,
        health: &mut HealthReport,
        plan: &Option<Arc<FaultPlan>>,
        first_options: SolverOptions,
        mut eval: impl FnMut(SolverOptions) -> Result<T, AnalysisError>,
    ) -> Result<T, AnalysisError> {
        let first = {
            let _guard = Self::fault_scope(plan, FaultStage::Nominal, 0, 0);
            eval(first_options)
        };
        match first {
            Ok(value) => Ok(value),
            Err(first) => {
                let kind = classify(&first);
                health.counts.record(kind);
                let retry = {
                    let _guard = Self::fault_scope(plan, FaultStage::Nominal, 0, 1);
                    eval(self.recovery_solver_options())
                };
                match retry {
                    Ok(value) => {
                        health.recovered.push(RecoveredSample {
                            stage: SampleStage::Nominal,
                            index: 0,
                            kind,
                        });
                        Ok(value)
                    }
                    Err(second) => Err(second),
                }
            }
        }
    }

    /// Resolves one fan-out's per-sample outcomes at its deterministic
    /// barrier: every failed sample gets a single serial recovery retry
    /// (the `retry` closure — escalated solver, fresh fault scope at
    /// attempt 1); samples whose retry also fails are quarantined and
    /// yield `None`. Quarantines, recoveries and taxonomy counts land on
    /// `health` in ascending sample order — never in worker-timing order —
    /// so the report is bit-identical for any thread count.
    fn contain_stage(
        health: &mut HealthReport,
        stage: SampleStage,
        attempts: Vec<Result<Vec<f64>, AnalysisError>>,
        mut retry: impl FnMut(usize) -> Result<Vec<f64>, AnalysisError>,
    ) -> Vec<Option<Vec<f64>>> {
        attempts
            .into_iter()
            .enumerate()
            .map(|(index, attempt)| match attempt {
                Ok(outputs) => Some(outputs),
                Err(first) => {
                    let kind = classify(&first);
                    health.counts.record(kind);
                    match retry(index) {
                        Ok(outputs) => {
                            health
                                .recovered
                                .push(RecoveredSample { stage, index, kind });
                            Some(outputs)
                        }
                        Err(second) => {
                            health.quarantined.push(QuarantinedSample {
                                stage,
                                index,
                                kind: classify(&second),
                                detail: second.to_string(),
                            });
                            None
                        }
                    }
                }
            })
            .collect()
    }

    /// Fails the run once the quarantine count exceeds the configured
    /// fraction of the attempted samples. Checked at the stage barriers —
    /// quarantine counts only grow, so the first check that trips aborts.
    fn check_quarantine_budget(&self, health: &HealthReport) -> Result<(), AnalysisError> {
        let quarantined = health.quarantined.len();
        let allowed = self.config.quarantine_budget * health.samples_total as f64;
        if quarantined > 0 && quarantined as f64 > allowed {
            return Err(AnalysisError::QuarantineExceeded {
                quarantined,
                total: health.samples_total,
                budget: self.config.quarantine_budget,
            });
        }
        Ok(())
    }

    /// [`VariationalAnalysis::contain_stage`] for one adaptive-sweep wave:
    /// failed samples get their serial recovery retry against the
    /// persistent [`SampleState`] and are **escalated** — all later waves
    /// evaluate them with the recovery solver at attempt 1, so a recovered
    /// sample cannot oscillate between the fast path and the rescue.
    /// Samples whose retry also fails are quarantined: this wave's outputs
    /// are patched with the nominal spectrum (`nominal_wave`) and later
    /// waves fast-path them without solving.
    #[allow(clippy::too_many_arguments)]
    fn contain_wave(
        &self,
        health: &mut HealthReport,
        plan: &Option<Arc<FaultPlan>>,
        topology: &Arc<SolverTopology>,
        states: &mut [SampleState],
        escalated: &mut [bool],
        quarantined: &mut [bool],
        wave_freqs: &[f64],
        nominal_wave: &[f64],
        attempts: Vec<Result<Vec<f64>, AnalysisError>>,
    ) -> Vec<Vec<f64>> {
        attempts
            .into_iter()
            .enumerate()
            .map(|(i, attempt)| match attempt {
                Ok(outputs) => outputs,
                Err(first) => {
                    let kind = classify(&first);
                    health.counts.record(kind);
                    // The failed attempt may have consumed the cached DC
                    // operating point; `evaluate_state` re-solves it then.
                    let retry = {
                        let _guard = Self::fault_scope(plan, FaultStage::Sscm, i, 1);
                        self.evaluate_state(
                            topology,
                            &mut states[i],
                            wave_freqs,
                            self.recovery_solver_options(),
                        )
                    };
                    match retry {
                        Ok(outputs) => {
                            health.recovered.push(RecoveredSample {
                                stage: SampleStage::Sscm,
                                index: i,
                                kind,
                            });
                            escalated[i] = true;
                            outputs
                        }
                        Err(second) => {
                            health.quarantined.push(QuarantinedSample {
                                stage: SampleStage::Sscm,
                                index: i,
                                kind: classify(&second),
                                detail: second.to_string(),
                            });
                            quarantined[i] = true;
                            nominal_wave.to_vec()
                        }
                    }
                }
            })
            .collect()
    }

    /// Squared magnitude of one sample's variation inputs — the
    /// deterministic "how far from nominal" measure used to pick the donor
    /// republishing representative.
    fn excursion_magnitude(input: &SampleInput) -> f64 {
        let geometry: f64 = input
            .facet_offsets
            .iter()
            .flat_map(|(_, offsets)| offsets.iter())
            .map(|x| x * x)
            .sum();
        let doping: f64 = input.doping_deltas.iter().map(|(_, d)| d * d).sum();
        geometry + doping
    }

    /// The collocation input with the widest excursion (strictly greatest
    /// magnitude wins, earliest index breaks ties) — deterministic in the
    /// input order, never in worker timing.
    fn widest_excursion(inputs: &[SampleInput]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, input) in inputs.iter().enumerate() {
            let magnitude = Self::excursion_magnitude(input);
            if best.is_none_or(|(_, b)| magnitude > b) {
                best = Some((i, magnitude));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Re-solves one representative sample with publishing enabled so that
    /// donor slots cleared by the refresh policy are refilled with pivot
    /// structures recorded from the current excursion, with the AC donor
    /// recorded at `ac_frequency` — the operating point the upcoming stage
    /// actually solves at, not the (documented-as-unused) single-point
    /// configuration frequency. Called only at deterministic barriers
    /// (between sweep stages / refinement waves), never from worker
    /// threads.
    fn republish_donors_from(
        &self,
        topology: &Arc<SolverTopology>,
        input: &SampleInput,
        ac_frequency: f64,
    ) -> Result<(), AnalysisError> {
        let (structure, doping) =
            self.sample_problem(&input.facet_offsets, &input.doping_deltas)?;
        let solver = CoupledSolver::with_topology(
            &structure,
            &doping,
            self.config.solver.clone(),
            topology.clone(),
        )?;
        let dc = solver.solve_dc()?;
        // One AC prepare republishes the AC donor alongside the DC one.
        let _ = solver.prepare_ac(&dc, ac_frequency)?;
        Ok(())
    }

    /// [`VariationalAnalysis::republish_donors_from`] against an adaptive
    /// sweep's persistent [`SampleState`]: the state's cached DC operating
    /// point is reused (solved only if a prior wave has not already), so a
    /// mid-refinement AC-donor refresh costs one AC prepare instead of a
    /// full Newton solve.
    fn republish_ac_donor_from_state(
        &self,
        topology: &Arc<SolverTopology>,
        state: &mut SampleState,
        ac_frequency: f64,
    ) -> Result<(), AnalysisError> {
        let solver = CoupledSolver::with_topology(
            &state.structure,
            &state.doping,
            self.config.solver.clone(),
            topology.clone(),
        )?;
        // Same take/put-back as `evaluate_state`: no panic path, and a
        // failed solve leaves the cache empty for the next attempt.
        let dc = match state.dc.take() {
            Some(dc) => dc,
            None => solver.solve_dc()?,
        };
        let prepared = solver.prepare_ac(&dc, ac_frequency);
        state.dc = Some(dc);
        let _ = prepared?;
        Ok(())
    }

    /// Validates a frequency grid for this analysis: finite, non-negative
    /// entries, and no DC point when the configured quantities divide by ω
    /// — failing up front instead of after the whole nominal grid has been
    /// solved and the extraction hits the `capacitance_column_from` guard.
    fn validate_grid(&self, frequencies: &[f64]) -> Result<(), AnalysisError> {
        if frequencies.iter().any(|f| !f.is_finite() || *f < 0.0) {
            return Err(AnalysisError::Configuration(
                "frequency sweep grid must be finite and non-negative".to_string(),
            ));
        }
        if matches!(
            self.config.quantities,
            QuantitySet::CapacitanceColumn { .. }
        ) && frequencies.contains(&0.0)
        {
            return Err(AnalysisError::Configuration(
                "capacitance sweeps need strictly positive frequencies: \
                 C = Im(I)/ω is undefined at the 0 Hz point"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// A well-formed zero-point sweep result (labelled quantities with
    /// empty spectra) for callers handing in an empty grid.
    fn empty_sweep_result(&self, start: Instant) -> FrequencySweepResult {
        FrequencySweepResult {
            frequencies: Vec::new(),
            quantities: self
                .config
                .quantities
                .labels()
                .into_iter()
                .map(|label| SweepQuantity {
                    label,
                    nominal: Vec::new(),
                    sscm: Vec::new(),
                })
                .collect(),
            reductions: Vec::new(),
            collocation_runs: 0,
            seconds: start.elapsed().as_secs_f64(),
            seed_reuse: SeedReuseStats::default(),
            health: HealthReport::default(),
        }
    }

    /// The terminal driven with 1 V by the AC stage of every evaluation.
    fn driven_terminal(&self) -> &str {
        match &self.config.quantities {
            QuantitySet::InterfaceCurrent { terminal } => terminal,
            QuantitySet::CapacitanceColumn { driven, .. } => driven,
        }
    }

    fn extract_outputs(
        &self,
        solver: &CoupledSolver<'_>,
        dc: &DcSolution,
    ) -> Result<Vec<f64>, AnalysisError> {
        let ac = solver.solve_ac(dc, self.driven_terminal(), self.config.frequency)?;
        self.extract_outputs_from(solver, &ac)
    }

    /// Reads the configured quantities off an already-solved AC solution
    /// (driven at [`VariationalAnalysis::driven_terminal`]).
    // vaem-lint: cold output materialization after the solves
    fn extract_outputs_from(
        &self,
        solver: &CoupledSolver<'_>,
        ac: &AcSolution,
    ) -> Result<Vec<f64>, AnalysisError> {
        match &self.config.quantities {
            QuantitySet::InterfaceCurrent { terminal } => {
                let current = postprocess::interface_current(solver, ac, terminal)?;
                Ok(vec![current.abs() * 1.0e6])
            }
            QuantitySet::CapacitanceColumn { terminals, .. } => {
                let column = postprocess::capacitance_column_from(solver, ac)?;
                terminals
                    .iter()
                    .map(|t| {
                        column.get(t).copied().map(|c| c * 1.0e15).ok_or_else(|| {
                            AnalysisError::Configuration(format!("unknown terminal '{t}'"))
                        })
                    })
                    .collect()
            }
        }
    }

    /// Builds the variation groups from the configuration.
    fn build_groups(&self) -> Result<Vec<VariationGroup>, AnalysisError> {
        let mesh = &self.structure.mesh;
        let mut groups = Vec::new();

        if let Some(rough) = &self.config.variations.roughness {
            let facet_names: Vec<String> = if rough.facets.is_empty() {
                self.structure
                    .rough_facets
                    .iter()
                    .map(|f| f.name.clone())
                    .collect()
            } else {
                rough.facets.clone()
            };
            if facet_names.is_empty() {
                return Err(AnalysisError::Configuration(
                    "roughness requested but the structure has no rough facets".to_string(),
                ));
            }
            // Partition facets into merged groups + singletons.
            let mut assigned: Vec<Vec<String>> = Vec::new();
            for merged in &rough.merged_groups {
                let members: Vec<String> = merged
                    .iter()
                    .filter(|m| facet_names.contains(m))
                    .cloned()
                    .collect();
                if !members.is_empty() {
                    assigned.push(members);
                }
            }
            for name in &facet_names {
                if !assigned.iter().any(|g| g.contains(name)) {
                    assigned.push(vec![name.clone()]);
                }
            }
            for members in assigned {
                let mut nodes: Vec<NodeId> = Vec::new();
                let mut slices = Vec::new();
                for name in &members {
                    let facet = self.structure.facet(name).ok_or_else(|| {
                        AnalysisError::Configuration(format!("unknown facet '{name}'"))
                    })?;
                    let start = nodes.len();
                    nodes.extend_from_slice(&facet.nodes);
                    slices.push((start, nodes.len()));
                }
                let positions: Vec<[f64; 3]> = nodes.iter().map(|&n| mesh.position(n)).collect();
                let covariance = covariance_matrix(
                    &positions,
                    rough.sigma,
                    CorrelationKernel::Exponential {
                        length: rough.correlation_length,
                    },
                );
                groups.push(VariationGroup {
                    name: members.join("+"),
                    kind: GroupKind::Geometry {
                        facet_names: members,
                        slices,
                        nodes,
                    },
                    covariance,
                });
            }
        }

        if let Some(doping) = &self.config.variations.doping {
            let semis = self.structure.semiconductor_nodes();
            if semis.is_empty() {
                return Err(AnalysisError::Configuration(
                    "doping variation requested but the structure has no semiconductor".to_string(),
                ));
            }
            let z_top = semis
                .iter()
                .map(|&n| mesh.position(n)[2])
                .fold(f64::NEG_INFINITY, f64::max);
            let mut candidates: Vec<NodeId> = semis
                .into_iter()
                .filter(|&n| mesh.position(n)[2] >= z_top - doping.region_depth)
                .collect();
            if candidates.len() > doping.max_nodes && doping.max_nodes > 0 {
                let stride = candidates.len().div_ceil(doping.max_nodes);
                candidates = candidates.into_iter().step_by(stride).collect();
            }
            let positions: Vec<[f64; 3]> = candidates.iter().map(|&n| mesh.position(n)).collect();
            let covariance = covariance_matrix(
                &positions,
                doping.relative_sigma,
                CorrelationKernel::Exponential {
                    length: doping.correlation_length,
                },
            );
            groups.push(VariationGroup {
                name: "doping".to_string(),
                kind: GroupKind::Doping { nodes: candidates },
                covariance,
            });
        }

        if let Some(via) = &self.config.variations.via_params {
            if via.vias.is_empty() {
                return Err(AnalysisError::Configuration(
                    "via-parameter variation requested but no vias were listed".to_string(),
                ));
            }
            // Parameter layout per via: [δr][δx][δy], keeping only the
            // parameters with a positive sigma. The signs express how each
            // parameter displaces the four walls (in +x, -x, +y, -y order)
            // along their normal axes: a radius increase moves opposite
            // walls apart, a centre offset moves both walls of its axis the
            // same way.
            let mut sigmas: Vec<f64> = Vec::new();
            let mut wall_signs: [Vec<f64>; 4] = Default::default();
            let mut push_param = |sigma: f64, signs: [f64; 4], wall_signs: &mut [Vec<f64>; 4]| {
                sigmas.push(sigma);
                for (w, s) in signs.into_iter().enumerate() {
                    wall_signs[w].push(s);
                }
            };
            if via.sigma_radius > 0.0 {
                push_param(via.sigma_radius, [1.0, -1.0, 1.0, -1.0], &mut wall_signs);
            }
            if via.sigma_position > 0.0 {
                push_param(via.sigma_position, [1.0, 1.0, 0.0, 0.0], &mut wall_signs);
                push_param(via.sigma_position, [0.0, 0.0, 1.0, 1.0], &mut wall_signs);
            }
            if sigmas.is_empty() {
                return Err(AnalysisError::Configuration(
                    "via-parameter variation needs a positive sigma_radius or sigma_position"
                        .to_string(),
                ));
            }
            let mut covariance = DMatrix::zeros(sigmas.len(), sigmas.len());
            for (i, sigma) in sigmas.iter().enumerate() {
                covariance[(i, i)] = sigma * sigma;
            }
            for via_walls in &via.vias {
                let mut facets = Vec::with_capacity(4);
                for (w, name) in via_walls.facets.iter().enumerate() {
                    let facet = self.structure.facet(name).ok_or_else(|| {
                        AnalysisError::Configuration(format!("unknown facet '{name}'"))
                    })?;
                    facets.push((name.clone(), facet.nodes.len(), wall_signs[w].clone()));
                }
                groups.push(VariationGroup {
                    name: format!("{}#params", via_walls.name),
                    kind: GroupKind::ViaParams {
                        facets,
                        params: sigmas.len(),
                    },
                    covariance: covariance.clone(),
                });
            }
        }

        if groups.is_empty() {
            return Err(AnalysisError::Configuration(
                "no variation source is enabled".to_string(),
            ));
        }
        Ok(groups)
    }

    /// Influence weights of every node, from the nominal AC solution
    /// (w_i = |J⁰_i|·nodeVol_i, the paper's eq. 9).
    fn nominal_weights(&self, ac: &AcSolution) -> Result<Vec<f64>, AnalysisError> {
        let mesh = &self.structure.mesh;
        let mut weights = vec![0.0_f64; mesh.node_count()];
        let mut area_acc = vec![0.0_f64; mesh.node_count()];
        for lid in mesh.link_ids() {
            let link = mesh.link(lid);
            let current = (ac.admittance_at(lid)
                * (ac.potential_at(link.from) - ac.potential_at(link.to)))
            .abs();
            let area = mesh.dual_area(lid);
            for node in [link.from, link.to] {
                weights[node.index()] += current;
                area_acc[node.index()] += area;
            }
        }
        for node in mesh.node_ids() {
            let i = node.index();
            let density = if area_acc[i] > 0.0 {
                weights[i] / area_acc[i]
            } else {
                0.0
            };
            weights[i] = density * mesh.node_volume(node);
        }
        Ok(weights)
    }

    /// Builds the per-group reduction with the configured method.
    fn build_reduction(
        &self,
        group: &VariationGroup,
        node_weights: &[f64],
    ) -> Result<Box<dyn VariableReduction>, AnalysisError> {
        let weights: Vec<f64> = group
            .nodes()
            .iter()
            .map(|&n| node_weights[n.index()])
            .collect();
        let max_w = weights.iter().cloned().fold(0.0_f64, f64::max);
        // The capped constructors decompose the covariance exactly once,
        // whether or not the rank cap bites.
        let reduction: Box<dyn VariableReduction> = match self.config.reduction {
            ReductionMethod::Wpfa if max_w > 0.0 => Box::new(Wpfa::new_capped(
                &group.covariance,
                &weights,
                self.config.energy_fraction,
                self.config.max_reduced_per_group,
            )?),
            _ => Box::new(Pfa::new_capped(
                &group.covariance,
                self.config.energy_fraction,
                self.config.max_reduced_per_group,
            )?),
        };
        Ok(reduction)
    }

    /// Converts a full variation vector of one group into the sample inputs.
    fn group_sample(
        &self,
        group: &VariationGroup,
        xi: &[f64],
        facet_offsets: &mut Vec<(String, Vec<f64>)>,
        doping_deltas: &mut Vec<(NodeId, f64)>,
    ) {
        match &group.kind {
            GroupKind::Geometry {
                facet_names,
                slices,
                ..
            } => {
                for (name, &(lo, hi)) in facet_names.iter().zip(slices.iter()) {
                    facet_offsets.push((name.clone(), xi[lo..hi].to_vec()));
                }
            }
            GroupKind::Doping { nodes } => {
                for (&node, &delta) in nodes.iter().zip(xi.iter()) {
                    doping_deltas.push((node, delta));
                }
            }
            GroupKind::ViaParams { facets, .. } => {
                for (name, node_count, signs) in facets {
                    let offset: f64 = signs.iter().zip(xi.iter()).map(|(s, x)| s * x).sum();
                    facet_offsets.push((name.clone(), vec![offset; *node_count]));
                }
            }
        }
    }

    /// Builds every per-group reduction plus its summary.
    fn build_reductions(
        &self,
        groups: &[VariationGroup],
        node_weights: &[f64],
    ) -> Result<GroupReductions, AnalysisError> {
        let mut reductions: Vec<Box<dyn VariableReduction>> = Vec::new();
        let mut reduction_summary = Vec::new();
        for group in groups {
            let reduction = self.build_reduction(group, node_weights)?;
            reduction_summary.push(GroupReduction {
                name: group.name.clone(),
                full_dim: group.dim(),
                reduced_dim: reduction.reduced_dim(),
            });
            reductions.push(reduction);
        }
        Ok((reductions, reduction_summary))
    }

    /// Expands every collocation point into its sample inputs (cheap,
    /// serial; the deterministic solves fan out afterwards).
    fn collocation_inputs(
        &self,
        sscm: &SparseCollocation,
        groups: &[VariationGroup],
        reductions: &[Box<dyn VariableReduction>],
    ) -> Vec<SampleInput> {
        sscm.points()
            .iter()
            .map(|point| {
                let mut input = SampleInput::default();
                let mut offset = 0;
                for (group, reduction) in groups.iter().zip(reductions.iter()) {
                    let d = reduction.reduced_dim();
                    let zeta = &point[offset..offset + d];
                    let xi = reduction.expand(zeta);
                    self.group_sample(
                        group,
                        &xi,
                        &mut input.facet_offsets,
                        &mut input.doping_deltas,
                    );
                    offset += d;
                }
                input
            })
            .collect()
    }

    /// Runs the complete workflow: nominal solve, wPFA/PFA reduction, SSCM
    /// and the Monte-Carlo reference.
    ///
    /// # Errors
    /// Propagates solver, reduction and fitting failures.
    pub fn run(&self) -> Result<AnalysisResult, AnalysisError> {
        let groups = self.build_groups()?;
        // Terminal labelling, adjacency and sparsity patterns are
        // perturbation-invariant: build them once and share them read-only
        // with every sample solver on every worker thread.
        let topology = Arc::new(SolverTopology::build(&self.structure)?);
        let plan = FaultPlan::from_env();
        let mut health = HealthReport {
            budget: self.config.quarantine_budget,
            ..HealthReport::default()
        };

        // --- Nominal solve (also provides the wPFA weights). One AC solve
        // covers both the nominal outputs and the influence weights.
        let sscm_start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        let nominal_doping = self.nominal_doping();
        let (nominal_outputs, node_weights) =
            self.contain_nominal(&mut health, &plan, self.config.solver.clone(), |options| {
                let nominal_solver = CoupledSolver::with_topology(
                    &self.structure,
                    &nominal_doping,
                    options,
                    topology.clone(),
                )?;
                let nominal_dc = nominal_solver.solve_dc()?;
                let nominal_ac = nominal_solver.solve_ac(
                    &nominal_dc,
                    self.driven_terminal(),
                    self.config.frequency,
                )?;
                let outputs = self.extract_outputs_from(&nominal_solver, &nominal_ac)?;
                let weights = self.nominal_weights(&nominal_ac)?;
                Ok((outputs, weights))
            })?;

        // --- Variable reduction. ---
        let (reductions, reduction_summary) = self.build_reductions(&groups, &node_weights)?;
        let total_dim: usize = reductions.iter().map(|r| r.reduced_dim()).sum();

        // --- SSCM stage: fan the independent deterministic solves out over
        // the worker threads.
        let sscm = SparseCollocation::new(total_dim);
        let sample_inputs = self.collocation_inputs(&sscm, &groups, &reductions);
        health.samples_total = 1 + sample_inputs.len() + self.config.mc_runs;
        let sample_options = self.sample_solver_options();
        let attempts: Vec<Result<Vec<f64>, AnalysisError>> = par_map(&sample_inputs, |i, input| {
            let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, 0);
            self.evaluate_sample_with(
                &topology,
                &input.facet_offsets,
                &input.doping_deltas,
                // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                sample_options.clone(),
            )
        });
        let contained = Self::contain_stage(&mut health, SampleStage::Sscm, attempts, |i| {
            let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, 1);
            self.evaluate_sample_with(
                &topology,
                &sample_inputs[i].facet_offsets,
                &sample_inputs[i].doping_deltas,
                self.recovery_solver_options(),
            )
        });
        self.check_quarantine_budget(&health)?;
        // Quarantined collocation points are patched with the nominal
        // outputs: the sparse-grid quadrature needs a value at every point,
        // and the nominal is the unbiased deterministic stand-in.
        let outputs: Vec<Vec<f64>> = contained
            .into_iter()
            .map(|sample| sample.unwrap_or_else(|| nominal_outputs.clone()))
            .collect();
        let pces = sscm.fit(&outputs)?;
        let sscm_seconds = sscm_start.elapsed().as_secs_f64();

        // --- Donor refresh barrier: if the SSCM fan-out re-pivoted often
        // enough that the nominal donor is evidently stale for this
        // parameter spread, drop it and republish from the widest
        // collocation excursion before the Monte-Carlo fan-out. The
        // decision runs at this single-threaded barrier on counters that
        // are sums of per-sample deterministic counts, so neither the
        // decision nor the new donor depends on worker timing.
        if self.config.solver.reuse_symbolic {
            let rate = self.config.solver.donor_refresh_stale_rate;
            let dc_cleared = topology.clear_dc_donor_if_stale(rate);
            let ac_cleared = topology.clear_ac_donor_if_stale(rate);
            if dc_cleared || ac_cleared {
                if let Some(widest) = Self::widest_excursion(&sample_inputs) {
                    // The MC stage solves at the configured single-point
                    // frequency, so that is where the new AC donor is
                    // recorded. Republishing is an optimization: a failure
                    // here only costs later samples their warm seed, so it
                    // is counted and contained, never fatal.
                    if let Err(error) = self.republish_donors_from(
                        &topology,
                        &sample_inputs[widest],
                        self.config.frequency,
                    ) {
                        health.counts.record(classify(&error));
                    }
                }
            }
        }

        // --- Monte-Carlo reference (full-rank sampling of every group).
        // Each run draws from its own `(seed, run)` stream, so the sweep is
        // deterministic for any thread count.
        let mc_start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        let full_rank: Vec<FullRankGaussian> = groups
            .iter()
            .map(|g| FullRankGaussian::new(&g.covariance))
            .collect::<Result<_, _>>()?;
        let n_outputs = self.config.quantities.len();
        // The run → input map is a pure function of `(seed, run)`, so the
        // recovery retry can re-derive a failed run's draw exactly.
        let mc_input = |run: usize| {
            let mut rng = StdRng::seed_from_u64(mc_run_seed(self.config.seed, run as u64));
            let mut input = SampleInput::default();
            for (group, sampler) in groups.iter().zip(full_rank.iter()) {
                let z = standard_normal_vector(&mut rng, sampler.reduced_dim());
                let xi = sampler.expand(&z);
                self.group_sample(
                    group,
                    &xi,
                    &mut input.facet_offsets,
                    &mut input.doping_deltas,
                );
            }
            input
        };
        let mc_attempts: Vec<Result<Vec<f64>, AnalysisError>> =
            par_map_indices(self.config.mc_runs, |run| {
                let _guard = Self::fault_scope(&plan, FaultStage::Mc, run, 0);
                let input = mc_input(run);
                self.evaluate_sample_with(
                    &topology,
                    &input.facet_offsets,
                    &input.doping_deltas,
                    // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                    sample_options.clone(),
                )
            });
        let mc_contained = Self::contain_stage(&mut health, SampleStage::Mc, mc_attempts, |run| {
            let _guard = Self::fault_scope(&plan, FaultStage::Mc, run, 1);
            let input = mc_input(run);
            self.evaluate_sample_with(
                &topology,
                &input.facet_offsets,
                &input.doping_deltas,
                self.recovery_solver_options(),
            )
        });
        self.check_quarantine_budget(&health)?;
        // Quarantined MC runs are dropped: the reference statistics
        // tolerate a missing draw, while patching would bias them toward
        // the nominal.
        let mut mc_stats = vec![RunningStats::new(); n_outputs];
        for sample in mc_contained.iter().flatten() {
            for (acc, v) in mc_stats.iter_mut().zip(sample.iter()) {
                acc.push(*v);
            }
        }
        let mc_seconds = mc_start.elapsed().as_secs_f64();

        // --- Assemble the result. ---
        let labels = self.config.quantities.labels();
        let quantities = labels
            .into_iter()
            .enumerate()
            .map(|(q, label)| QuantityResult {
                label,
                nominal: nominal_outputs[q],
                sscm: SummaryStats::new(pces[q].mean(), pces[q].std()),
                monte_carlo: SummaryStats::new(mc_stats[q].mean(), mc_stats[q].sample_std()),
                main_effects: (0..total_dim).map(|d| pces[q].main_effect(d)).collect(),
            })
            .collect();

        Ok(AnalysisResult {
            quantities,
            reductions: reduction_summary,
            collocation_runs: sscm.run_count(),
            mc_runs: self.config.mc_runs,
            sscm_seconds,
            mc_seconds,
            seed_reuse: topology.seed_stats(),
            health,
        })
    }

    /// Runs the swept-frequency experiment: the nominal structure and every
    /// SSCM collocation sample are evaluated over the whole `frequencies`
    /// grid (capacitance / interface-current spectra), and a polynomial
    /// chaos expansion is fitted per (frequency, quantity) pair.
    ///
    /// Every sample performs one DC solve and one
    /// [`AcSweepOperator::sweep_terminal`](vaem_fvm::AcSweepOperator) pass —
    /// one AC assembly and one symbolic factorization for the whole grid,
    /// a numeric refactorization and a warm-started solve per point — and
    /// the samples fan out over the `vaem_parallel` worker threads, so the
    /// spectra are bit-identical for any `VAEM_THREADS` value.
    ///
    /// The wPFA influence weights are taken from the first grid point; the
    /// configured single-point `frequency` is not used.
    ///
    /// # Errors
    /// Propagates solver, reduction and fitting failures; a non-finite or
    /// negative grid entry is a configuration error. An empty grid returns
    /// a well-formed zero-point result (no solves run), and a single-point
    /// grid degenerates to the single-frequency analysis.
    pub fn run_frequency_sweep(
        &self,
        frequencies: &[f64],
    ) -> Result<FrequencySweepResult, AnalysisError> {
        self.validate_grid(frequencies)?;
        let start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        if frequencies.is_empty() {
            return Ok(self.empty_sweep_result(start));
        }
        let groups = self.build_groups()?;
        let topology = Arc::new(SolverTopology::build(&self.structure)?);
        let plan = FaultPlan::from_env();
        let mut health = HealthReport {
            budget: self.config.quarantine_budget,
            ..HealthReport::default()
        };

        // --- Nominal sweep: provides the per-frequency nominal outputs and
        // the wPFA weights (from the first grid point).
        let nominal_doping = self.nominal_doping();
        let (nominal_flat, node_weights) =
            self.contain_nominal(&mut health, &plan, self.config.solver.clone(), |options| {
                let nominal_solver = CoupledSolver::with_topology(
                    &self.structure,
                    &nominal_doping,
                    options,
                    topology.clone(),
                )?;
                let nominal_dc = nominal_solver.solve_dc()?;
                let mut nominal_operator = nominal_solver.prepare_ac_sweep(&nominal_dc)?;
                let nominal_sweep =
                    nominal_operator.sweep_terminal(frequencies, self.driven_terminal())?;
                let node_weights = self.nominal_weights(&nominal_sweep[0])?;
                let mut nominal_flat =
                    Vec::with_capacity(frequencies.len() * self.config.quantities.len());
                for ac in &nominal_sweep {
                    nominal_flat.extend(self.extract_outputs_from(&nominal_solver, ac)?);
                }
                Ok((nominal_flat, node_weights))
            })?;

        // --- Reduction + collocation over the spectra: the PCE machinery is
        // output-agnostic, so the per-frequency quantities are fitted as one
        // flat (frequency-major) output vector per sample.
        let (reductions, reduction_summary) = self.build_reductions(&groups, &node_weights)?;
        let total_dim: usize = reductions.iter().map(|r| r.reduced_dim()).sum();
        let sscm = SparseCollocation::new(total_dim);
        let sample_inputs = self.collocation_inputs(&sscm, &groups, &reductions);
        health.samples_total = 1 + sample_inputs.len();
        let sample_options = self.sample_solver_options();
        let attempts: Vec<Result<Vec<f64>, AnalysisError>> = par_map(&sample_inputs, |i, input| {
            let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, 0);
            self.evaluate_spectrum_with(
                &topology,
                &input.facet_offsets,
                &input.doping_deltas,
                frequencies,
                // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                sample_options.clone(),
            )
        });
        let contained = Self::contain_stage(&mut health, SampleStage::Sscm, attempts, |i| {
            let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, 1);
            self.evaluate_spectrum_with(
                &topology,
                &sample_inputs[i].facet_offsets,
                &sample_inputs[i].doping_deltas,
                frequencies,
                self.recovery_solver_options(),
            )
        });
        self.check_quarantine_budget(&health)?;
        // Quarantined samples contribute the nominal spectrum, keeping the
        // per-point quadrature well-defined (see `run`).
        let outputs: Vec<Vec<f64>> = contained
            .into_iter()
            .map(|sample| sample.unwrap_or_else(|| nominal_flat.clone()))
            .collect();
        let pces = sscm.fit(&outputs)?;

        let labels = self.config.quantities.labels();
        let n_q = labels.len();
        let quantities = labels
            .into_iter()
            .enumerate()
            .map(|(q, label)| SweepQuantity {
                label,
                nominal: (0..frequencies.len())
                    .map(|fi| nominal_flat[fi * n_q + q])
                    .collect(),
                sscm: (0..frequencies.len())
                    .map(|fi| {
                        let pce = &pces[fi * n_q + q];
                        SummaryStats::new(pce.mean(), pce.std())
                    })
                    .collect(),
            })
            .collect();

        Ok(FrequencySweepResult {
            frequencies: frequencies.to_vec(),
            quantities,
            reductions: reduction_summary,
            collocation_runs: sscm.run_count(),
            seconds: start.elapsed().as_secs_f64(),
            seed_reuse: topology.seed_stats(),
            health,
        })
    }

    /// Runs the swept-frequency experiment on an **error-controlled
    /// adaptive grid**: the spectra are evaluated on the caller's coarse
    /// grid first, then intervals whose interior points deviate from the
    /// log-frequency interpolation of their neighbours — nominal curve,
    /// SSCM mean or SSCM std — by more than `options.rel_tolerance` are
    /// recursively bisected, down to `options.max_depth` generations and at
    /// most `options.max_points` total points. Flat stretches of the
    /// spectrum keep the coarse resolution; resonant/transition regions get
    /// dense points, so a wide-band extraction reaches dense-grid accuracy
    /// with a fraction of the solves.
    ///
    /// Every collocation sample keeps a persistent state across the
    /// refinement waves: the perturbed problem is built once, the DC
    /// operating point is solved once, and each refinement point costs one
    /// numeric refactorization plus one warm-started solve
    /// ([`AcSweepOperator::solve_at`](vaem_fvm::AcSweepOperator::solve_at))
    /// — exactly as much as a point of a fixed-grid sweep. Waves fan out
    /// over the `vaem_parallel` workers with slot-per-input determinism,
    /// and all refinement decisions are made between waves from
    /// thread-count-independent data, so the refined grid and the spectra
    /// are bit-identical for any `VAEM_THREADS` value. With a tolerance
    /// loose enough that no refinement triggers, the result is
    /// bit-identical to [`VariationalAnalysis::run_frequency_sweep`] on the
    /// coarse grid.
    ///
    /// # Errors
    /// Propagates solver, reduction and fitting failures. The coarse grid
    /// must be finite, non-negative and strictly increasing (an empty grid
    /// returns a well-formed zero-point result; fewer than three points
    /// leave nothing to refine and return the coarse sweep). The options
    /// must hold a positive finite tolerance and a point budget of at
    /// least the coarse grid size.
    pub fn run_adaptive_frequency_sweep(
        &self,
        coarse_frequencies: &[f64],
        options: &AdaptiveSweepOptions,
    ) -> Result<AdaptiveSweepResult, AnalysisError> {
        if !options.rel_tolerance.is_finite() || options.rel_tolerance <= 0.0 {
            return Err(AnalysisError::Configuration(format!(
                "adaptive sweep tolerance must be finite and positive, got {}",
                options.rel_tolerance
            )));
        }
        self.validate_grid(coarse_frequencies)?;
        if coarse_frequencies.windows(2).any(|w| w[1] <= w[0]) {
            return Err(AnalysisError::Configuration(
                "adaptive sweep needs a strictly increasing coarse grid".to_string(),
            ));
        }
        if options.max_points < coarse_frequencies.len() {
            return Err(AnalysisError::Configuration(format!(
                "adaptive sweep point budget {} is below the {}-point coarse grid",
                options.max_points,
                coarse_frequencies.len()
            )));
        }
        let start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        if coarse_frequencies.is_empty() {
            return Ok(AdaptiveSweepResult {
                sweep: self.empty_sweep_result(start),
                origins: Vec::new(),
                waves: 0,
                budget_exhausted: false,
            });
        }

        let groups = self.build_groups()?;
        let topology = Arc::new(SolverTopology::build(&self.structure)?);
        let n_q = self.config.quantities.len();
        let plan = FaultPlan::from_env();
        let mut health = HealthReport {
            budget: self.config.quarantine_budget,
            ..HealthReport::default()
        };

        // --- Nominal coarse sweep: per-point nominal outputs, wPFA weights
        // (first grid point) and the donor symbolic phases, published
        // before any worker starts.
        let nominal_doping = self.nominal_doping();
        let (nominal_dc, nominal_flat, node_weights) =
            self.contain_nominal(&mut health, &plan, self.config.solver.clone(), |options| {
                let nominal_solver = CoupledSolver::with_topology(
                    &self.structure,
                    &nominal_doping,
                    options,
                    topology.clone(),
                )?;
                let nominal_dc = nominal_solver.solve_dc()?;
                let mut nominal_operator = nominal_solver.prepare_ac_sweep(&nominal_dc)?;
                let nominal_sweep =
                    nominal_operator.sweep_terminal(coarse_frequencies, self.driven_terminal())?;
                let node_weights = self.nominal_weights(&nominal_sweep[0])?;
                let mut nominal_flat = Vec::with_capacity(coarse_frequencies.len() * n_q);
                for ac in &nominal_sweep {
                    nominal_flat.extend(self.extract_outputs_from(&nominal_solver, ac)?);
                }
                Ok((nominal_dc, nominal_flat, node_weights))
            })?;

        // --- Reduction + persistent sample states. ---
        let (reductions, reduction_summary) = self.build_reductions(&groups, &node_weights)?;
        let total_dim: usize = reductions.iter().map(|r| r.reduced_dim()).sum();
        let sscm = SparseCollocation::new(total_dim);
        let sample_inputs = self.collocation_inputs(&sscm, &groups, &reductions);
        health.samples_total = 1 + sample_inputs.len();
        // Per-sample containment tracking across the refinement waves:
        // escalated samples evaluate every later wave with the recovery
        // solver at attempt 1; quarantined samples fast-path to the
        // nominal spectrum without solving.
        let mut escalated: Vec<bool> = vec![false; sample_inputs.len()];
        let mut quarantined: Vec<bool> = vec![false; sample_inputs.len()];
        let mut states: Vec<SampleState> = Vec::with_capacity(sample_inputs.len());
        for (i, input) in sample_inputs.iter().enumerate() {
            let build = {
                let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, 0);
                self.sample_problem(&input.facet_offsets, &input.doping_deltas)
            };
            let (structure, doping) = match build {
                Ok(problem) => problem,
                Err(first) => {
                    let kind = classify(&first);
                    health.counts.record(kind);
                    let retry = {
                        let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, 1);
                        self.sample_problem(&input.facet_offsets, &input.doping_deltas)
                    };
                    match retry {
                        Ok(problem) => {
                            health.recovered.push(RecoveredSample {
                                stage: SampleStage::Sscm,
                                index: i,
                                kind,
                            });
                            escalated[i] = true;
                            problem
                        }
                        Err(second) => {
                            health.quarantined.push(QuarantinedSample {
                                stage: SampleStage::Sscm,
                                index: i,
                                kind: classify(&second),
                                detail: second.to_string(),
                            });
                            quarantined[i] = true;
                            // Placeholder problem — never solved: the
                            // fast path patches this sample each wave.
                            (self.structure.clone(), nominal_doping.clone())
                        }
                    }
                }
            };
            states.push(SampleState {
                structure,
                doping,
                dc: None,
            });
        }
        self.check_quarantine_budget(&health)?;
        // The nominal joins later waves as a persistent state of its own
        // (publishing stays off there — its donors are already out).
        let mut nominal_state = SampleState {
            structure: self.structure.clone(),
            doping: nominal_doping,
            dc: Some(nominal_dc),
        };

        // --- Wave 0: every sample over the coarse grid. ---
        let sample_options = self.sample_solver_options();
        let recovery_options = self.recovery_solver_options();
        let wave0: Vec<Result<Vec<f64>, AnalysisError>> = par_map_mut(&mut states, |i, state| {
            if quarantined[i] {
                // vaem-lint: allow(H2) quarantined samples take a copy of the patched nominal output
                return Ok(nominal_flat.clone());
            }
            let attempt = u32::from(escalated[i]);
            let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, attempt);
            let options = if escalated[i] {
                // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                recovery_options.clone()
            } else {
                // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                sample_options.clone()
            };
            self.evaluate_state(&topology, state, coarse_frequencies, options)
        });
        let sample_outputs = self.contain_wave(
            &mut health,
            &plan,
            &topology,
            &mut states,
            &mut escalated,
            &mut quarantined,
            coarse_frequencies,
            &nominal_flat,
            wave0,
        );
        self.check_quarantine_budget(&health)?;
        // One fit per wave: each sample's outputs are frequency-major, so
        // point `fi` owns the chaos models `pces[fi * n_q..(fi + 1) * n_q]`.
        let coarse_pces = sscm.fit(&sample_outputs)?;
        let mut grid: Vec<PointRecord> = Vec::with_capacity(coarse_frequencies.len());
        for (fi, &frequency) in coarse_frequencies.iter().enumerate() {
            let pces = &coarse_pces[fi * n_q..(fi + 1) * n_q];
            grid.push(PointRecord {
                frequency,
                origin: PointOrigin::Coarse,
                nominal: nominal_flat[fi * n_q..(fi + 1) * n_q].to_vec(),
                mean: pces.iter().map(|p| p.mean()).collect(),
                std: pces.iter().map(|p| p.std()).collect(),
            });
        }

        // --- Refinement waves: flag, bisect, evaluate, refit. ---
        let mut waves = 0usize;
        let mut budget_exhausted = false;
        loop {
            let mut flagged: Vec<(usize, f64)> = Vec::new();
            for i in 1..grid.len().saturating_sub(1) {
                let indicator = refinement_indicator(&grid[i - 1], &grid[i], &grid[i + 1]);
                if indicator > options.rel_tolerance {
                    flag_interval(&mut flagged, i - 1, indicator);
                    flag_interval(&mut flagged, i, indicator);
                }
            }
            // (midpoint frequency, depth, indicator) per splittable interval.
            let mut candidates: Vec<(f64, usize, f64)> = flagged
                .into_iter()
                .filter_map(|(left, indicator)| {
                    let (lo, hi) = (&grid[left], &grid[left + 1]);
                    let depth = lo.origin.depth().max(hi.origin.depth());
                    if depth >= options.max_depth {
                        return None;
                    }
                    let mid = midpoint_frequency(lo.frequency, hi.frequency);
                    // Floating-point exhaustion: the midpoint no longer
                    // separates the endpoints.
                    if !(mid > lo.frequency && mid < hi.frequency) {
                        return None;
                    }
                    Some((mid, depth + 1, indicator))
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            let allowed = options.max_points.saturating_sub(grid.len());
            if allowed == 0 {
                budget_exhausted = true;
                break;
            }
            if candidates.len() > allowed {
                // Spend the remaining budget on the worst offenders.
                budget_exhausted = true;
                candidates.sort_by(|a, b| {
                    b.2.partial_cmp(&a.2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.total_cmp(&b.0))
                });
                candidates.truncate(allowed);
            }
            // Evaluate ascending in frequency: deterministic, and the
            // warm starts walk the spectrum monotonically.
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
            waves += 1;

            let wave_freqs: Vec<f64> = candidates.iter().map(|c| c.0).collect();

            // Donor refresh barrier (AC side — no DC solves happen after
            // wave 0): if the previous wave re-pivoted past the threshold,
            // republish from the widest collocation excursion so the
            // refinement waves re-seed from pivots that fit the spread.
            // The new donor is recorded at this wave's first midpoint —
            // an in-band operating point — reusing the state's cached DC
            // solution, so the refresh costs one AC prepare.
            if self.config.solver.reuse_symbolic
                && topology.clear_ac_donor_if_stale(self.config.solver.donor_refresh_stale_rate)
            {
                if let Some(widest) = Self::widest_excursion(&sample_inputs) {
                    // Contained like the MC-barrier republish in `run`:
                    // losing the refresh only costs later points their
                    // warm seed, never the sweep.
                    if let Err(error) = self.republish_ac_donor_from_state(
                        &topology,
                        &mut states[widest],
                        wave_freqs[0],
                    ) {
                        health.counts.record(classify(&error));
                    }
                }
            }
            let nominal_new =
                self.contain_nominal(&mut health, &plan, sample_options.clone(), |options| {
                    self.evaluate_state(&topology, &mut nominal_state, &wave_freqs, options)
                })?;
            let wave: Vec<Result<Vec<f64>, AnalysisError>> =
                par_map_mut(&mut states, |i, state| {
                    if quarantined[i] {
                        // vaem-lint: allow(H2) quarantined samples take a copy of the patched nominal output
                        return Ok(nominal_new.clone());
                    }
                    let attempt = u32::from(escalated[i]);
                    let _guard = Self::fault_scope(&plan, FaultStage::Sscm, i, attempt);
                    let options = if escalated[i] {
                        // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                        recovery_options.clone()
                    } else {
                        // vaem-lint: allow(H2) small solver-options struct copied once per sample at worker entry
                        sample_options.clone()
                    };
                    self.evaluate_state(&topology, state, &wave_freqs, options)
                });
            let sample_new = self.contain_wave(
                &mut health,
                &plan,
                &topology,
                &mut states,
                &mut escalated,
                &mut quarantined,
                &wave_freqs,
                &nominal_new,
                wave,
            );
            self.check_quarantine_budget(&health)?;
            let wave_pces = sscm.fit(&sample_new)?;
            for (ci, &(frequency, depth, _)) in candidates.iter().enumerate() {
                let pces = &wave_pces[ci * n_q..(ci + 1) * n_q];
                let record = PointRecord {
                    frequency,
                    origin: PointOrigin::Refined { wave: waves, depth },
                    nominal: nominal_new[ci * n_q..(ci + 1) * n_q].to_vec(),
                    mean: pces.iter().map(|p| p.mean()).collect(),
                    std: pces.iter().map(|p| p.std()).collect(),
                };
                let at = grid.partition_point(|p| p.frequency < frequency);
                grid.insert(at, record);
            }
        }

        // --- Assemble the refined-grid result. ---
        let labels = self.config.quantities.labels();
        let quantities = labels
            .into_iter()
            .enumerate()
            .map(|(q, label)| SweepQuantity {
                label,
                nominal: grid.iter().map(|p| p.nominal[q]).collect(),
                sscm: grid
                    .iter()
                    .map(|p| SummaryStats::new(p.mean[q], p.std[q]))
                    .collect(),
            })
            .collect();
        Ok(AdaptiveSweepResult {
            sweep: FrequencySweepResult {
                frequencies: grid.iter().map(|p| p.frequency).collect(),
                quantities,
                reductions: reduction_summary,
                collocation_runs: sscm.run_count(),
                seconds: start.elapsed().as_secs_f64(),
                seed_reuse: topology.seed_stats(),
                health,
            },
            origins: grid.iter().map(|p| p.origin).collect(),
            waves,
            budget_exhausted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DopingVariationConfig, RoughnessConfig, VariationSpec};
    use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};

    /// A deliberately tiny configuration so the full workflow runs in a test.
    fn tiny_analysis(roughness: bool, doping: bool) -> VariationalAnalysis {
        let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
        let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
            terminal: "plug1".to_string(),
        });
        config.mc_runs = 8;
        config.energy_fraction = 0.85;
        config.max_reduced_per_group = 2;
        config.variations = VariationSpec {
            roughness: roughness.then(|| RoughnessConfig {
                sigma: 0.3,
                ..RoughnessConfig::paper_default()
            }),
            doping: doping.then(|| DopingVariationConfig {
                max_nodes: 12,
                ..DopingVariationConfig::paper_default()
            }),
            via_params: None,
        };
        VariationalAnalysis::new(structure, config)
    }

    #[test]
    fn nominal_sample_matches_unperturbed_evaluation() {
        let analysis = tiny_analysis(true, true);
        let a = analysis.evaluate_sample(&[], &[]).unwrap();
        let b = analysis.evaluate_sample(&[], &[]).unwrap();
        assert_eq!(a.len(), 1);
        assert!(a[0] > 0.0);
        assert!(
            (a[0] - b[0]).abs() < 1e-12,
            "evaluation must be deterministic"
        );
    }

    #[test]
    fn doping_perturbation_changes_the_interface_current() {
        let analysis = tiny_analysis(false, true);
        let base = analysis.evaluate_sample(&[], &[]).unwrap()[0];
        let semis = analysis.structure().semiconductor_nodes();
        let deltas: Vec<(NodeId, f64)> = semis.iter().map(|&n| (n, 0.3)).collect();
        let up = analysis.evaluate_sample(&[], &deltas).unwrap()[0];
        assert!(
            (up - base).abs() / base > 1e-3,
            "30% doping change should move the current: {base} -> {up}"
        );
    }

    #[test]
    fn frequency_sweep_produces_consistent_spectra() {
        let analysis = tiny_analysis(false, true);
        let frequencies = [1.0e8, 1.0e9, 5.0e9];
        let result = analysis.run_frequency_sweep(&frequencies).unwrap();
        assert_eq!(result.frequencies, frequencies);
        assert_eq!(result.quantities.len(), 1);
        let q = &result.quantities[0];
        assert_eq!(q.nominal.len(), frequencies.len());
        assert_eq!(q.sscm.len(), frequencies.len());
        for (fi, _) in frequencies.iter().enumerate() {
            assert!(q.nominal[fi].is_finite() && q.nominal[fi] > 0.0);
            assert!(q.sscm[fi].mean.is_finite() && q.sscm[fi].mean > 0.0);
            assert!(q.sscm[fi].std.is_finite() && q.sscm[fi].std >= 0.0);
            // The SSCM mean stays in the neighbourhood of the nominal value.
            let rel = (q.sscm[fi].mean - q.nominal[fi]).abs() / q.nominal[fi];
            assert!(rel < 0.5, "sscm mean drifted at point {fi}: {rel}");
        }
        // The interface current of the mostly capacitive plug grows with
        // frequency, so the spectrum must not be flat.
        assert!(q.nominal[2] > q.nominal[0]);
        assert!(result.collocation_runs > 0);
        assert_eq!(
            result.ac_solve_count(),
            (result.collocation_runs + 1) * frequencies.len()
        );

        // Each grid point must match the single-frequency analysis run at
        // that frequency (same collocation machinery, same solver path).
        let mut config = analysis.config().clone();
        config.frequency = frequencies[1];
        let single = VariationalAnalysis::new(analysis.structure().clone(), config)
            .run()
            .unwrap();
        let rel = (single.quantities[0].nominal - q.nominal[1]).abs() / q.nominal[1];
        assert!(rel < 1e-9, "nominal mismatch vs single-point run: {rel}");
    }

    #[test]
    fn empty_grid_returns_a_well_formed_result_and_invalid_grids_are_rejected() {
        let analysis = tiny_analysis(false, true);
        // An empty grid is a degenerate but well-formed request: no solves,
        // labelled quantities with empty spectra, zero AC solve count —
        // previously this was rejected (and the assembly would have
        // panicked on `nominal_sweep[0]` without the guard).
        let empty = analysis.run_frequency_sweep(&[]).unwrap();
        assert!(empty.frequencies.is_empty());
        assert_eq!(empty.quantities.len(), analysis.config().quantities.len());
        assert!(empty
            .quantities
            .iter()
            .all(|q| q.nominal.is_empty() && q.sscm.is_empty() && !q.label.is_empty()));
        assert_eq!(empty.collocation_runs, 0);
        assert_eq!(empty.ac_solve_count(), 0);
        // Non-finite or negative entries stay hard errors.
        assert!(matches!(
            analysis.run_frequency_sweep(&[1.0e9, f64::NAN]),
            Err(AnalysisError::Configuration(_))
        ));
        assert!(matches!(
            analysis.run_frequency_sweep(&[-1.0]),
            Err(AnalysisError::Configuration(_))
        ));
    }

    #[test]
    fn capacitance_sweep_rejects_the_dc_point_up_front() {
        // C = Im(I)/ω is undefined at 0 Hz; a capacitance sweep whose grid
        // contains the DC point must fail at validation time, not after the
        // whole nominal grid has been solved and the extraction trips over
        // the postprocess guard.
        let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
        let mut config = AnalysisConfig::new(QuantitySet::CapacitanceColumn {
            driven: "plug1".to_string(),
            terminals: vec!["plug1".to_string(), "plug2".to_string()],
        });
        config.variations = VariationSpec {
            roughness: None,
            doping: Some(DopingVariationConfig {
                max_nodes: 12,
                ..DopingVariationConfig::paper_default()
            }),
            via_params: None,
        };
        let analysis = VariationalAnalysis::new(structure, config);
        for run in [
            analysis.run_frequency_sweep(&[0.0, 1.0e9]),
            analysis
                .run_adaptive_frequency_sweep(
                    &[0.0, 1.0e9, 1.0e10],
                    &AdaptiveSweepOptions::default(),
                )
                .map(|a| a.sweep),
        ] {
            match run {
                Err(AnalysisError::Configuration(msg)) => {
                    assert!(msg.contains("0 Hz"), "unexpected message: {msg}")
                }
                other => panic!("expected up-front configuration error, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_point_sweep_matches_the_single_frequency_run() {
        let analysis = tiny_analysis(false, true);
        let result = analysis.run_frequency_sweep(&[1.0e9]).unwrap();
        assert_eq!(result.frequencies, [1.0e9]);
        let q = &result.quantities[0];
        assert_eq!(q.nominal.len(), 1);
        assert_eq!(q.sscm.len(), 1);
        assert!(q.nominal[0].is_finite() && q.nominal[0] > 0.0);
        let mut config = analysis.config().clone();
        config.frequency = 1.0e9;
        let single = VariationalAnalysis::new(analysis.structure().clone(), config)
            .run()
            .unwrap();
        let rel = (single.quantities[0].nominal - q.nominal[0]).abs() / q.nominal[0];
        assert!(rel < 1e-9, "nominal mismatch vs single-point run: {rel}");
    }

    #[test]
    fn adaptive_sweep_rejects_bad_options_and_grids() {
        let analysis = tiny_analysis(false, true);
        let grid = [1.0e8, 1.0e9, 1.0e10];
        for tol in [0.0, -1.0, f64::NAN] {
            let options = AdaptiveSweepOptions {
                rel_tolerance: tol,
                ..AdaptiveSweepOptions::default()
            };
            assert!(matches!(
                analysis.run_adaptive_frequency_sweep(&grid, &options),
                Err(AnalysisError::Configuration(_))
            ));
        }
        let options = AdaptiveSweepOptions::default();
        // Unsorted / duplicated coarse grids are rejected.
        assert!(matches!(
            analysis.run_adaptive_frequency_sweep(&[1.0e9, 1.0e8], &options),
            Err(AnalysisError::Configuration(_))
        ));
        assert!(matches!(
            analysis.run_adaptive_frequency_sweep(&[1.0e8, 1.0e8], &options),
            Err(AnalysisError::Configuration(_))
        ));
        // A budget below the coarse grid cannot hold even wave 0.
        let tight = AdaptiveSweepOptions {
            max_points: 2,
            ..AdaptiveSweepOptions::default()
        };
        assert!(matches!(
            analysis.run_adaptive_frequency_sweep(&grid, &tight),
            Err(AnalysisError::Configuration(_))
        ));
        // An empty coarse grid is a well-formed zero-point result.
        let empty = analysis
            .run_adaptive_frequency_sweep(&[], &options)
            .unwrap();
        assert!(empty.sweep.frequencies.is_empty());
        assert_eq!(empty.waves, 0);
        assert!(!empty.budget_exhausted);
    }

    /// Bit-level fingerprint of a sweep result (frequencies + all moments).
    fn sweep_bits(result: &FrequencySweepResult) -> Vec<u64> {
        let mut bits: Vec<u64> = result.frequencies.iter().map(|f| f.to_bits()).collect();
        for q in &result.quantities {
            bits.extend(q.nominal.iter().map(|v| v.to_bits()));
            for s in &q.sscm {
                bits.push(s.mean.to_bits());
                bits.push(s.std.to_bits());
            }
        }
        bits
    }

    #[test]
    fn adaptive_sweep_with_loose_tolerance_is_bit_identical_to_the_fixed_sweep() {
        let analysis = tiny_analysis(false, true);
        let grid = [1.0e8, 1.0e9, 5.0e9];
        let fixed = analysis.run_frequency_sweep(&grid).unwrap();
        // A tolerance no spectrum can violate: wave 0 only, no refinement —
        // and the persistent-state path must reproduce the fixed-grid
        // engine bit for bit.
        let loose = AdaptiveSweepOptions {
            rel_tolerance: 1.0e9,
            ..AdaptiveSweepOptions::default()
        };
        let adaptive = analysis
            .run_adaptive_frequency_sweep(&grid, &loose)
            .unwrap();
        assert_eq!(adaptive.waves, 0);
        assert!(!adaptive.budget_exhausted);
        assert_eq!(adaptive.refined_point_count(), 0);
        assert!(adaptive.origins.iter().all(|o| *o == PointOrigin::Coarse));
        assert_eq!(
            sweep_bits(&fixed),
            sweep_bits(&adaptive.sweep),
            "adaptive wave 0 diverged from the fixed-grid sweep"
        );
    }

    #[test]
    fn adaptive_sweep_refines_where_the_spectrum_curves() {
        // Lightly doped silicon puts the conduction→displacement transition
        // inside the band, so the interface-current spectrum sweeps two
        // decades instead of sitting flat and the indicator has curvature
        // to find.
        let mut analysis = tiny_analysis(false, true);
        analysis.config.nominal_donor = 2.0e1;
        let analysis = analysis;
        // A deliberately coarse grid over the transition region with a
        // tight tolerance: refinement must engage, stay within budget and
        // keep the grid sorted with consistent provenance.
        let grid = [1.0e8, 1.0e9, 1.0e10];
        let options = AdaptiveSweepOptions {
            rel_tolerance: 1.0e-4,
            max_points: 12,
            max_depth: 4,
        };
        let adaptive = analysis
            .run_adaptive_frequency_sweep(&grid, &options)
            .unwrap();
        let frequencies = &adaptive.sweep.frequencies;
        assert!(adaptive.waves >= 1, "refinement never engaged");
        assert!(adaptive.refined_point_count() >= 1);
        assert!(frequencies.len() <= options.max_points);
        assert!(
            frequencies.windows(2).all(|w| w[1] > w[0]),
            "refined grid must stay strictly increasing: {frequencies:?}"
        );
        assert_eq!(adaptive.origins.len(), frequencies.len());
        // Coarse points survive refinement.
        for f in grid {
            assert!(
                frequencies.iter().any(|g| (g - f).abs() < 1e-6 * f),
                "coarse point {f} lost"
            );
        }
        // Every refined point respects the depth cap and its wave index.
        for origin in &adaptive.origins {
            if let PointOrigin::Refined { wave, depth } = origin {
                assert!(*depth >= 1 && *depth <= options.max_depth);
                assert!(*wave >= 1 && *wave <= adaptive.waves);
            }
        }
        // All spectra stay finite and positive on this structure.
        let q = &adaptive.sweep.quantities[0];
        for fi in 0..frequencies.len() {
            assert!(q.nominal[fi].is_finite() && q.nominal[fi] > 0.0);
            assert!(q.sscm[fi].mean.is_finite());
            assert!(q.sscm[fi].std.is_finite() && q.sscm[fi].std >= 0.0);
        }
    }

    #[test]
    fn adaptive_sweep_points_keep_their_own_multi_quantity_statistics() {
        // Each wave fits all of its points in one SSCM call over
        // frequency-major sample outputs; with two quantities per point a
        // wrong stride would hand a point its neighbour's (or the other
        // quantity's) chaos. A fixed-grid sweep over the refined grid is the
        // independent per-point reference.
        let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
        let mut config = AnalysisConfig::new(QuantitySet::CapacitanceColumn {
            driven: "plug1".to_string(),
            terminals: vec!["plug1".to_string(), "plug2".to_string()],
        });
        config.energy_fraction = 0.85;
        config.max_reduced_per_group = 2;
        config.nominal_donor = 2.0e1;
        config.variations = VariationSpec {
            roughness: None,
            doping: Some(DopingVariationConfig {
                max_nodes: 12,
                ..DopingVariationConfig::paper_default()
            }),
            via_params: None,
        };
        let analysis = VariationalAnalysis::new(structure, config);
        let options = AdaptiveSweepOptions {
            rel_tolerance: 1.0e-4,
            max_points: 9,
            max_depth: 3,
        };
        let adaptive = analysis
            .run_adaptive_frequency_sweep(&[1.0e8, 1.0e9, 1.0e10], &options)
            .unwrap();
        assert!(adaptive.waves >= 1, "refinement never engaged");
        assert!(adaptive.refined_point_count() >= 2);
        let fixed = analysis
            .run_frequency_sweep(&adaptive.sweep.frequencies)
            .unwrap();
        assert_eq!(adaptive.sweep.quantities.len(), 2);
        // The two engines warm-start their iterative solves differently, so
        // they agree to solver tolerance, not bit for bit: about 1e-10
        // relative on values and means, 2e-4 on the small mutual-capacitance
        // std. A misassigned chaos is off by order one.
        let close = |x: f64, y: f64, rel: f64| (x - y).abs() <= rel * x.abs().max(y.abs());
        for (a, f) in adaptive.sweep.quantities.iter().zip(&fixed.quantities) {
            for fi in 0..f.nominal.len() {
                let (sa, sf) = (&a.sscm[fi], &f.sscm[fi]);
                assert!(
                    close(a.nominal[fi], f.nominal[fi], 1e-6)
                        && close(sa.mean, sf.mean, 1e-6)
                        && close(sa.std, sf.std, 1e-2),
                    "{} at point {fi}: adaptive ({}, {}, {}) vs fixed ({}, {}, {})",
                    a.label,
                    a.nominal[fi],
                    sa.mean,
                    sa.std,
                    f.nominal[fi],
                    sf.mean,
                    sf.std
                );
            }
        }
    }

    /// A sub-threshold-mesh analysis whose DC/AC systems take the direct-LU
    /// strategy, so the cross-sample symbolic seeding actually engages.
    fn tiny_direct_analysis(reuse_symbolic: bool) -> VariationalAnalysis {
        let structure = build_metalplug_structure(&MetalPlugConfig::tiny());
        let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
            terminal: "plug1".to_string(),
        });
        config.mc_runs = 8;
        config.energy_fraction = 0.85;
        config.max_reduced_per_group = 2;
        config.solver.reuse_symbolic = reuse_symbolic;
        config.variations = VariationSpec {
            roughness: None,
            doping: Some(DopingVariationConfig {
                max_nodes: 12,
                ..DopingVariationConfig::paper_default()
            }),
            via_params: None,
        };
        VariationalAnalysis::new(structure, config)
    }

    /// Bit-level fingerprint of everything statistical in a result.
    fn result_bits(result: &AnalysisResult) -> Vec<u64> {
        result
            .quantities
            .iter()
            .flat_map(|q| {
                [
                    q.nominal,
                    q.sscm.mean,
                    q.sscm.std,
                    q.monte_carlo.mean,
                    q.monte_carlo.std,
                ]
            })
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn seeded_sample_sweep_is_bit_identical_to_the_unseeded_path() {
        let seeded = tiny_direct_analysis(true).run().unwrap();
        // The nominal solve published donors for both stages, and the
        // doping perturbations stayed on the nominal pivot sequences.
        assert!(seeded.seed_reuse.dc_seeded, "{:?}", seeded.seed_reuse);
        assert!(seeded.seed_reuse.ac_seeded, "{:?}", seeded.seed_reuse);
        assert_eq!(seeded.seed_reuse.dc_stale_refactorizations, 0);
        assert_eq!(seeded.seed_reuse.ac_stale_refactorizations, 0);

        let unseeded = tiny_direct_analysis(false).run().unwrap();
        assert!(!unseeded.seed_reuse.dc_seeded);
        assert_eq!(
            result_bits(&seeded),
            result_bits(&unseeded),
            "cross-sample symbolic reuse changed the sweep results:\n\
             seeded   = {seeded:?}\n\
             unseeded = {unseeded:?}"
        );
    }

    #[test]
    fn no_variation_is_a_configuration_error() {
        let analysis = tiny_analysis(false, false);
        match analysis.run() {
            Err(AnalysisError::Configuration(msg)) => {
                assert!(msg.contains("no variation"));
            }
            other => panic!("expected configuration error, got {other:?}"),
        }
    }

    #[test]
    fn full_workflow_runs_and_sscm_tracks_mc_on_tiny_problem() {
        let analysis = tiny_analysis(false, true);
        let result = analysis.run().unwrap();
        assert_eq!(result.quantities.len(), 1);
        let q = &result.quantities[0];
        assert!(q.nominal > 0.0);
        assert!(q.sscm.mean > 0.0);
        assert!(q.monte_carlo.mean > 0.0);
        // With only 8 MC samples the agreement is loose; just require the
        // same order of magnitude.
        assert!(q.mean_error() < 0.5, "mean error {}", q.mean_error());
        assert!(result.collocation_runs >= result.total_reduced_dim());
        assert!(!result.reductions.is_empty());
        assert!(result
            .reductions
            .iter()
            .all(|g| g.reduced_dim <= g.full_dim));
    }
}
