//! The variational analysis workflow (nominal solve → weights → reduction →
//! SSCM + Monte Carlo).
//!
//! [`VariationalAnalysis::run`] and both frequency sweeps run on one engine
//! with three parts: a nominal stage (the unperturbed problem, which also
//! yields the wPFA weights), one per-sample evaluator (a DC solve, then one
//! AC sweep operator walked over the wave's frequencies) and a wave that
//! fans sample slots out over [`vaem_parallel::par_map_mut`] worker threads
//! (`VAEM_THREADS`, hardware default) and contains their failures at the
//! barrier. `run` is a one-point SSCM wave plus a one-point Monte-Carlo
//! wave, a fixed sweep is one wave over its grid, and the adaptive sweep
//! adds refinement waves. Every Monte-Carlo run draws from its own RNG
//! stream seeded by `(config.seed, run index)`, so the results are
//! bit-for-bit identical for any thread count.

use crate::config::{AnalysisConfig, QuantitySet, ReductionMethod};
use crate::health::{classify, HealthReport, QuarantinedSample, RecoveredSample, SampleStage};
use crate::report::ComparisonTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
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
use vaem_parallel::par_map_mut;
use vaem_physics::DopingProfile;
use vaem_sparse::SolverKind;
use vaem_stochastic::{PolynomialChaos, SparseCollocation, SummaryStats};
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

/// Per-sample solver state: the perturbed problem and, once solved, its DC
/// operating point. Single-wave flows drop it inside the worker; the
/// adaptive sweep keeps it across its refinement waves, so a later wave
/// only re-prepares the AC sweep operator against the shared topology and
/// pays a numeric refactorization plus a warm-started solve per new point.
struct SampleState<'s> {
    structure: Cow<'s, Structure>,
    doping: DopingProfile,
    dc: Option<DcSolution>,
}

/// One sample of a wave fan-out: its state between waves and its
/// containment status.
#[derive(Default)]
struct Slot {
    /// Kept between waves only when the run keeps states.
    state: Option<Box<SampleState<'static>>>,
    /// Recovered by its retry: every later wave solves it with the recovery
    /// solver at attempt 1, so it cannot oscillate between the fast path
    /// and the rescue.
    escalated: bool,
    /// Failed its retry too: every later wave patches it without solving.
    quarantined: bool,
}

impl Slot {
    /// `count` fresh slots: no state, neither escalated nor quarantined.
    fn fresh(count: usize) -> Vec<Self> {
        std::iter::repeat_with(Self::default).take(count).collect()
    }
}

/// Where the inputs of a wave's samples come from. A sample's input is a
/// pure function of its index, derived where the sample is built, so no
/// stage holds the inputs of all its samples at once.
enum Draws<'a> {
    /// The SSCM collocation points, expanded through the group reductions.
    Collocation {
        points: &'a [Vec<f64>],
        groups: &'a [VariationGroup],
        reductions: &'a [Box<dyn VariableReduction>],
    },
    /// Monte-Carlo runs: full-rank draws from each run's `(seed, run)`
    /// stream.
    MonteCarlo {
        groups: &'a [VariationGroup],
        samplers: &'a [FullRankGaussian],
    },
}

impl Draws<'_> {
    fn stage(&self) -> SampleStage {
        match self {
            Draws::Collocation { .. } => SampleStage::Sscm,
            Draws::MonteCarlo { .. } => SampleStage::Mc,
        }
    }
}

/// What the stages of one run share: the perturbation-invariant solver
/// topology, the fault plan, the two solver configurations of a sample
/// and the containment record.
struct WaveContext {
    topology: Arc<SolverTopology>,
    plan: Option<Arc<FaultPlan>>,
    /// Options of a sample's first attempt (see
    /// [`VariationalAnalysis::sample_solver_options`]).
    sample: SolverOptions,
    /// Options of the single recovery retry (see
    /// [`VariationalAnalysis::recovery_solver_options`]).
    recovery: SolverOptions,
    /// Keep every sample's state between waves (adaptive sweeps only).
    keep_states: bool,
    health: HealthReport,
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

impl PointRecord {
    /// Point `k` of a wave whose nominal outputs and chaos models are
    /// frequency-major, `n_q` per point.
    fn new(
        frequency: f64,
        origin: PointOrigin,
        k: usize,
        n_q: usize,
        nominal: &[f64],
        pces: &[PolynomialChaos],
    ) -> Self {
        let pces = &pces[k * n_q..(k + 1) * n_q];
        Self {
            frequency,
            origin,
            nominal: nominal[k * n_q..(k + 1) * n_q].to_vec(),
            mean: pces.iter().map(|p| p.mean()).collect(),
            std: pces.iter().map(|p| p.std()).collect(),
        }
    }
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

/// The midpoints of the next refinement wave as `(frequency, depth)`,
/// ascending in frequency: every interval the indicator flags is bisected
/// unless it sits at the depth cap or its midpoint no longer separates the
/// endpoints. When the point budget cannot hold them all, only the worst
/// offenders are kept and `budget_exhausted` is set. Empty when nothing is
/// left to split.
fn refinement_midpoints(
    grid: &[PointRecord],
    options: &AdaptiveSweepOptions,
    budget_exhausted: &mut bool,
) -> Vec<(f64, usize)> {
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
            // Floating-point exhaustion: the midpoint no longer separates
            // the endpoints.
            if !(mid > lo.frequency && mid < hi.frequency) {
                return None;
            }
            Some((mid, depth + 1, indicator))
        })
        .collect();
    let allowed = options.max_points.saturating_sub(grid.len());
    if candidates.len() > allowed {
        // Spend the remaining budget on the worst offenders.
        *budget_exhausted = true;
        candidates.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.total_cmp(&b.0))
        });
        candidates.truncate(allowed);
    }
    // Evaluate ascending in frequency: deterministic, and the warm starts
    // walk the spectrum monotonically.
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    candidates
        .into_iter()
        .map(|(f, depth, _)| (f, depth))
        .collect()
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
    /// variations at the configured frequency.
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
        let mut state = self.sample_state(facet_offsets, doping_deltas)?;
        self.evaluate_state(
            &topology,
            &mut state,
            &[self.config.frequency],
            &self.sample_solver_options(),
            None,
        )
    }

    /// Builds the perturbed structure and doping profile of one sample.
    fn sample_state(
        &self,
        facet_offsets: &[(String, Vec<f64>)],
        doping_deltas: &[(NodeId, f64)],
    ) -> Result<SampleState<'static>, AnalysisError> {
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

        Ok(SampleState {
            structure: Cow::Owned(structure),
            doping: self.nominal_doping().perturbed(doping_deltas),
            dc: None,
        })
    }

    /// The nominal (unperturbed) problem, borrowing the analysed structure.
    fn nominal_state(&self) -> SampleState<'_> {
        SampleState {
            structure: Cow::Borrowed(&self.structure),
            doping: self.nominal_doping(),
            dc: None,
        }
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

    /// The context of one run: a fresh shared topology, the `VAEM_FAULTS`
    /// plan and an empty health report. `keep_states` keeps every sample's
    /// state between waves (adaptive sweeps only).
    fn wave_context(&self, keep_states: bool) -> Result<WaveContext, AnalysisError> {
        Ok(WaveContext {
            // Terminal labelling, adjacency and sparsity patterns are
            // perturbation-invariant: build them once and share them
            // read-only with every sample solver on every worker thread.
            topology: Arc::new(SolverTopology::build(&self.structure)?),
            plan: FaultPlan::from_env(),
            sample: self.sample_solver_options(),
            recovery: self.recovery_solver_options(),
            keep_states,
            health: HealthReport {
                budget: self.config.quarantine_budget,
                ..HealthReport::default()
            },
        })
    }

    /// The per-sample evaluator of every stage: solves `state` over
    /// `frequencies` with a fresh AC sweep operator — one
    /// [`AcSweepOperator::solve_at`](vaem_fvm::AcSweepOperator::solve_at)
    /// per point, each warm-started from the previous one — and returns the
    /// configured quantities flattened frequency-major:
    /// `[f0 q0, f0 q1, ..., f1 q0, ...]`. `weights`, when given, receives
    /// the wPFA influence weights of the first point.
    ///
    /// The DC operating point is solved on the first call and cached on the
    /// state; a failed DC solve leaves the cache empty, so a retry
    /// re-solves it instead of trusting a poisoned operating point.
    fn evaluate_state(
        &self,
        topology: &Arc<SolverTopology>,
        state: &mut SampleState<'_>,
        frequencies: &[f64],
        options: &SolverOptions,
        mut weights: Option<&mut Vec<f64>>,
    ) -> Result<Vec<f64>, AnalysisError> {
        let solver = CoupledSolver::with_topology(
            &state.structure,
            &state.doping,
            options.clone(),
            topology.clone(),
        )?;
        // Take the cached DC operating point (solving it on the first call)
        // and put it back once the sweep operator holds its own data.
        let dc = match state.dc.take() {
            Some(dc) => dc,
            None => solver.solve_dc()?,
        };
        let operator = solver.prepare_ac_sweep(&dc);
        state.dc = Some(dc);
        let mut operator = operator?;
        let mut out = Vec::with_capacity(frequencies.len() * self.config.quantities.len());
        for &frequency in frequencies {
            let ac = operator.solve_at(frequency, self.driven_terminal())?;
            if let Some(weights) = weights.take() {
                *weights = self.nominal_weights(&ac);
            }
            out.extend(self.extract_outputs_from(&solver, &ac)?);
        }
        Ok(out)
    }

    /// Installs the fault-injection scope for one evaluation when a plan is
    /// active (`None` plan → no scope, zero overhead). The scope is keyed
    /// by `(stage, index, attempt)` and created where the evaluation runs,
    /// so injection is independent of worker timing.
    fn fault_scope(
        plan: &Option<Arc<FaultPlan>>,
        stage: SampleStage,
        index: usize,
        attempt: u32,
    ) -> Option<faults::ScopeGuard> {
        let stage = match stage {
            SampleStage::Nominal => FaultStage::Nominal,
            SampleStage::Sscm => FaultStage::Sscm,
            SampleStage::Mc => FaultStage::Mc,
        };
        plan.as_ref()
            .map(|p| faults::scope(p.clone(), stage, index, attempt))
    }

    /// The nominal stage of one wave: the unperturbed problem over
    /// `frequencies`, through the per-sample evaluator. The first wave
    /// (no cached DC yet) solves with the configured options, so the
    /// nominal publishes the donor factorizations before any sample runs,
    /// and fills `weights` from its first point; later waves reuse the
    /// cached DC under the non-publishing sample options.
    ///
    /// A failure gets one recovery retry, which re-solves the DC unless an
    /// earlier wave cached it. A nominal that fails the retry too fails the
    /// run: every downstream stage (weights, reduction, quarantine
    /// patching) needs it.
    fn nominal_stage(
        &self,
        ctx: &mut WaveContext,
        state: &mut SampleState<'_>,
        frequencies: &[f64],
        mut weights: Option<&mut Vec<f64>>,
    ) -> Result<Vec<f64>, AnalysisError> {
        let first_wave = state.dc.is_none();
        let options = if first_wave {
            &self.config.solver
        } else {
            &ctx.sample
        };
        let first = {
            let _guard = Self::fault_scope(&ctx.plan, SampleStage::Nominal, 0, 0);
            self.evaluate_state(
                &ctx.topology,
                state,
                frequencies,
                options,
                weights.as_deref_mut(),
            )
        };
        let kind = match first {
            Ok(outputs) => return Ok(outputs),
            Err(error) => classify(&error),
        };
        ctx.health.counts.record(kind);
        if first_wave {
            state.dc = None;
        }
        let outputs = {
            let _guard = Self::fault_scope(&ctx.plan, SampleStage::Nominal, 0, 1);
            self.evaluate_state(&ctx.topology, state, frequencies, &ctx.recovery, weights)?
        };
        ctx.health.recovered.push(RecoveredSample {
            stage: SampleStage::Nominal,
            index: 0,
            kind,
        });
        Ok(outputs)
    }

    /// One wave of a stage: fans `slots` out over the `vaem_parallel`
    /// workers, every sample evaluated over `frequencies`, and resolves the
    /// failures at the deterministic barrier. A failed sample gets one
    /// serial recovery retry with the recovery solver at attempt 1 —
    /// against its kept state, cached DC included, when the run keeps
    /// states, from a rebuilt problem otherwise — and is escalated when the
    /// retry succeeds; a sample whose retry fails too is quarantined.
    /// Recoveries, quarantines and taxonomy counts land on the health
    /// report in ascending sample order, never in worker-timing order, so
    /// the report is bit-identical for any thread count. The quarantine
    /// budget is checked at the barrier.
    ///
    /// Returns the outputs in slot order. A quarantined sample is patched
    /// with `nominal` when it is given — the sparse-grid quadrature needs a
    /// value at every point, and the nominal is the unbiased deterministic
    /// stand-in — and dropped otherwise, as a Monte-Carlo draw is: patching
    /// would bias the reference statistics toward the nominal.
    fn wave(
        &self,
        ctx: &mut WaveContext,
        draws: &Draws<'_>,
        slots: &mut [Slot],
        frequencies: &[f64],
        nominal: Option<&[f64]>,
    ) -> Result<Vec<Vec<f64>>, AnalysisError> {
        let stage = draws.stage();
        let attempts = {
            let ctx = &*ctx;
            par_map_mut(slots, |index, slot| {
                if slot.quarantined {
                    return Ok(None);
                }
                let attempt = u32::from(slot.escalated);
                let _guard = Self::fault_scope(&ctx.plan, stage, index, attempt);
                let options = if slot.escalated {
                    &ctx.recovery
                } else {
                    &ctx.sample
                };
                self.evaluate_slot(ctx, draws, index, slot, frequencies, options)
                    .map(Some)
            })
        };
        let mut outputs = Vec::with_capacity(slots.len());
        for (index, (attempt, slot)) in attempts.into_iter().zip(slots.iter_mut()).enumerate() {
            let sample = match attempt {
                Ok(sample) => sample,
                Err(first) => {
                    let kind = classify(&first);
                    ctx.health.counts.record(kind);
                    let retry = {
                        let _guard = Self::fault_scope(&ctx.plan, stage, index, 1);
                        self.evaluate_slot(ctx, draws, index, slot, frequencies, &ctx.recovery)
                    };
                    match retry {
                        Ok(sample) => {
                            ctx.health
                                .recovered
                                .push(RecoveredSample { stage, index, kind });
                            slot.escalated = true;
                            Some(sample)
                        }
                        Err(second) => {
                            ctx.health.quarantined.push(QuarantinedSample {
                                stage,
                                index,
                                kind: classify(&second),
                                detail: second.to_string(),
                            });
                            slot.quarantined = true;
                            None
                        }
                    }
                }
            };
            if let Some(sample) = sample.or_else(|| nominal.map(<[f64]>::to_vec)) {
                outputs.push(sample);
            }
        }
        self.check_quarantine_budget(&ctx.health)?;
        Ok(outputs)
    }

    /// Evaluates sample `index`: builds its perturbed problem unless its
    /// slot kept a state from an earlier attempt, and keeps the state only
    /// when the run keeps states.
    fn evaluate_slot(
        &self,
        ctx: &WaveContext,
        draws: &Draws<'_>,
        index: usize,
        slot: &mut Slot,
        frequencies: &[f64],
        options: &SolverOptions,
    ) -> Result<Vec<f64>, AnalysisError> {
        let mut state = match slot.state.take() {
            Some(state) => *state,
            None => {
                let input = self.sample_input(draws, index);
                self.sample_state(&input.facet_offsets, &input.doping_deltas)?
            }
        };
        let outputs = self.evaluate_state(&ctx.topology, &mut state, frequencies, options, None);
        if ctx.keep_states {
            slot.state = Some(Box::new(state));
        }
        outputs
    }

    /// Fails the run once the quarantine count exceeds the configured
    /// fraction of the attempted samples. Checked at every wave barrier —
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

    /// Reads the configured quantities off an already-solved AC solution
    /// (driven at [`VariationalAnalysis::driven_terminal`]).
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
    fn nominal_weights(&self, ac: &AcSolution) -> Vec<f64> {
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
        weights
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

    /// The variation inputs of sample `index` of `draws`: a collocation
    /// point expanded through the group reductions, or a Monte-Carlo run's
    /// full-rank draw of every group from its own `(seed, run)` stream —
    /// either way a pure function of the index, whatever the thread count.
    fn sample_input(&self, draws: &Draws<'_>, index: usize) -> SampleInput {
        let mut input = SampleInput::default();
        match draws {
            Draws::Collocation {
                points,
                groups,
                reductions,
            } => {
                let mut offset = 0;
                for (group, reduction) in groups.iter().zip(reductions.iter()) {
                    let d = reduction.reduced_dim();
                    let xi = reduction.expand(&points[index][offset..offset + d]);
                    self.group_sample(
                        group,
                        &xi,
                        &mut input.facet_offsets,
                        &mut input.doping_deltas,
                    );
                    offset += d;
                }
            }
            Draws::MonteCarlo { groups, samplers } => {
                let mut rng = StdRng::seed_from_u64(mc_run_seed(self.config.seed, index as u64));
                for (group, sampler) in groups.iter().zip(samplers.iter()) {
                    let z = standard_normal_vector(&mut rng, sampler.reduced_dim());
                    let xi = sampler.expand(&z);
                    self.group_sample(
                        group,
                        &xi,
                        &mut input.facet_offsets,
                        &mut input.doping_deltas,
                    );
                }
            }
        }
        input
    }

    /// Runs the complete workflow at the configured frequency: nominal
    /// solve, wPFA/PFA reduction, SSCM and the Monte-Carlo reference.
    ///
    /// Every stage goes through the same engine as the frequency sweeps: a
    /// one-point nominal stage, a one-point SSCM wave and a one-point
    /// Monte-Carlo wave, each fanned out over the `vaem_parallel` workers
    /// with one recovery retry per failed sample. The results are
    /// bit-identical for any `VAEM_THREADS` value, and to a one-point
    /// [`VariationalAnalysis::run_frequency_sweep`].
    ///
    /// # Errors
    /// Propagates solver, reduction and fitting failures, a nominal that
    /// fails its recovery retry, and more quarantined samples than
    /// [`AnalysisConfig::quarantine_budget`] tolerates.
    pub fn run(&self) -> Result<AnalysisResult, AnalysisError> {
        let groups = self.build_groups()?;
        let mut ctx = self.wave_context(false)?;
        let frequency = [self.config.frequency];

        // --- Nominal solve: the nominal outputs and the wPFA weights. ---
        let sscm_start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        let mut node_weights = Vec::new();
        let nominal_outputs = self.nominal_stage(
            &mut ctx,
            &mut self.nominal_state(),
            &frequency,
            Some(&mut node_weights),
        )?;

        // --- Variable reduction and the SSCM wave. ---
        let (reductions, reduction_summary) = self.build_reductions(&groups, &node_weights)?;
        let total_dim: usize = reductions.iter().map(|r| r.reduced_dim()).sum();
        let sscm = SparseCollocation::new(total_dim);
        let draws = Draws::Collocation {
            points: sscm.points(),
            groups: &groups,
            reductions: &reductions,
        };
        ctx.health.samples_total = 1 + sscm.run_count() + self.config.mc_runs;
        let outputs = self.wave(
            &mut ctx,
            &draws,
            &mut Slot::fresh(sscm.run_count()),
            &frequency,
            Some(&nominal_outputs),
        )?;
        let pces = sscm.fit(&outputs)?;
        let sscm_seconds = sscm_start.elapsed().as_secs_f64();

        // --- Monte-Carlo reference (full-rank sampling of every group). ---
        let mc_start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        let samplers: Vec<FullRankGaussian> = groups
            .iter()
            .map(|g| FullRankGaussian::new(&g.covariance))
            .collect::<Result<_, _>>()?;
        let draws = Draws::MonteCarlo {
            groups: &groups,
            samplers: &samplers,
        };
        let mc_outputs = self.wave(
            &mut ctx,
            &draws,
            &mut Slot::fresh(self.config.mc_runs),
            &frequency,
            None,
        )?;
        let mut mc_stats = vec![RunningStats::new(); self.config.quantities.len()];
        for sample in &mc_outputs {
            for (acc, v) in mc_stats.iter_mut().zip(sample) {
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
            seed_reuse: ctx.topology.seed_stats(),
            health: ctx.health,
        })
    }

    /// Runs the swept-frequency experiment: the nominal structure and every
    /// SSCM collocation sample are evaluated over the whole `frequencies`
    /// grid (capacitance / interface-current spectra), and a polynomial
    /// chaos expansion is fitted per (frequency, quantity) pair.
    ///
    /// This is the first wave of
    /// [`VariationalAnalysis::run_adaptive_frequency_sweep`] without the
    /// refinement: every sample performs one DC solve and walks the grid
    /// with one AC sweep operator — a numeric refactorization and a
    /// warm-started solve per point — and drops its state once done. The
    /// samples fan out over the `vaem_parallel` worker threads, so the
    /// spectra are bit-identical for any `VAEM_THREADS` value.
    ///
    /// The wPFA influence weights are taken from the first grid point; the
    /// configured single-point `frequency` is not used.
    ///
    /// # Errors
    /// Propagates solver, reduction and fitting failures; a non-finite or
    /// negative grid entry is a configuration error. An empty grid returns
    /// a well-formed zero-point result (no solves run), and a single-point
    /// grid reproduces [`VariationalAnalysis::run`] at that frequency bit
    /// for bit.
    pub fn run_frequency_sweep(
        &self,
        frequencies: &[f64],
    ) -> Result<FrequencySweepResult, AnalysisError> {
        self.validate_grid(frequencies)?;
        Ok(self.sweep(frequencies, None)?.sweep)
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
    /// The coarse grid is the first wave of the same engine as
    /// [`VariationalAnalysis::run_frequency_sweep`]; here every collocation
    /// sample keeps its state across the refinement waves — the perturbed
    /// problem is built once, the DC operating point is solved once, and
    /// each refinement point costs one numeric refactorization plus one
    /// warm-started solve
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
        self.sweep(coarse_frequencies, Some(options))
    }

    /// The sweep engine behind both sweep entry points: the nominal stage
    /// and the first wave over `coarse` (in input order), then — with
    /// `refine` — the refinement waves.
    fn sweep(
        &self,
        coarse: &[f64],
        refine: Option<&AdaptiveSweepOptions>,
    ) -> Result<AdaptiveSweepResult, AnalysisError> {
        let start = Instant::now(); // vaem-lint: allow(D6) wall-clock reporting metadata only; never feeds numeric results
        if coarse.is_empty() {
            return Ok(AdaptiveSweepResult {
                sweep: self.empty_sweep_result(start),
                origins: Vec::new(),
                waves: 0,
                budget_exhausted: false,
            });
        }
        let groups = self.build_groups()?;
        let mut ctx = self.wave_context(refine.is_some())?;
        let n_q = self.config.quantities.len();

        // --- Nominal over the coarse grid: per-point nominal outputs, the
        // wPFA weights (first grid point) and the donor factorizations,
        // published before any worker starts. The nominal keeps its state
        // for the refinement waves.
        let mut nominal_state = self.nominal_state();
        let mut node_weights = Vec::new();
        let nominal = self.nominal_stage(
            &mut ctx,
            &mut nominal_state,
            coarse,
            Some(&mut node_weights),
        )?;

        // --- Reduction + the first wave. The PCE machinery is
        // output-agnostic, so a wave fits every (point, quantity) pair at
        // once from frequency-major sample outputs: point `k` owns the
        // chaos models `pces[k * n_q..(k + 1) * n_q]`.
        let (reductions, reduction_summary) = self.build_reductions(&groups, &node_weights)?;
        let total_dim: usize = reductions.iter().map(|r| r.reduced_dim()).sum();
        let sscm = SparseCollocation::new(total_dim);
        let draws = Draws::Collocation {
            points: sscm.points(),
            groups: &groups,
            reductions: &reductions,
        };
        let mut slots = Slot::fresh(sscm.run_count());
        ctx.health.samples_total = 1 + slots.len();
        let outputs = self.wave(&mut ctx, &draws, &mut slots, coarse, Some(&nominal))?;
        let pces = sscm.fit(&outputs)?;
        let mut grid: Vec<PointRecord> = coarse
            .iter()
            .enumerate()
            .map(|(k, &f)| PointRecord::new(f, PointOrigin::Coarse, k, n_q, &nominal, &pces))
            .collect();

        // --- Refinement waves: flag, bisect, evaluate, refit. ---
        let mut waves = 0usize;
        let mut budget_exhausted = false;
        if let Some(options) = refine {
            loop {
                let midpoints = refinement_midpoints(&grid, options, &mut budget_exhausted);
                if midpoints.is_empty() {
                    break;
                }
                waves += 1;
                let frequencies: Vec<f64> = midpoints.iter().map(|&(f, _)| f).collect();
                let nominal =
                    self.nominal_stage(&mut ctx, &mut nominal_state, &frequencies, None)?;
                let outputs =
                    self.wave(&mut ctx, &draws, &mut slots, &frequencies, Some(&nominal))?;
                let pces = sscm.fit(&outputs)?;
                for (k, &(frequency, depth)) in midpoints.iter().enumerate() {
                    let origin = PointOrigin::Refined { wave: waves, depth };
                    let record = PointRecord::new(frequency, origin, k, n_q, &nominal, &pces);
                    let at = grid.partition_point(|p| p.frequency < frequency);
                    grid.insert(at, record);
                }
            }
        }

        // --- Assemble the result. ---
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
                seed_reuse: ctx.topology.seed_stats(),
                health: ctx.health,
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

    /// The metal plug with the two-quantity capacitance column (self and
    /// mutual) as outputs, lightly doped, doping-only variation.
    fn capacitance_analysis() -> VariationalAnalysis {
        let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
        let mut config = AnalysisConfig::new(QuantitySet::CapacitanceColumn {
            driven: "plug1".to_string(),
            terminals: vec!["plug1".to_string(), "plug2".to_string()],
        });
        config.mc_runs = 4;
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
        VariationalAnalysis::new(structure, config)
    }

    #[test]
    fn single_point_sweep_matches_the_single_frequency_run() {
        // `run`, a one-point fixed sweep and a one-point adaptive sweep are
        // the same nominal stage and SSCM wave, so every nominal, SSCM mean
        // and SSCM std agrees bit for bit.
        for mut analysis in [
            tiny_analysis(false, true),
            tiny_analysis(true, true),
            capacitance_analysis(),
        ] {
            analysis.config.frequency = 1.0e9;
            let single = analysis.run().unwrap();
            let fixed = analysis.run_frequency_sweep(&[1.0e9]).unwrap();
            let adaptive = analysis
                .run_adaptive_frequency_sweep(&[1.0e9], &AdaptiveSweepOptions::default())
                .unwrap();
            assert_eq!(adaptive.waves, 0);
            let run_bits: Vec<u64> = single
                .quantities
                .iter()
                .flat_map(|q| [q.nominal, q.sscm.mean, q.sscm.std])
                .map(f64::to_bits)
                .collect();
            assert!(single
                .quantities
                .iter()
                .all(|q| q.nominal.is_finite() && q.nominal != 0.0));
            for sweep in [&fixed, &adaptive.sweep] {
                assert_eq!(sweep.frequencies, [1.0e9]);
                let sweep_bits: Vec<u64> = sweep
                    .quantities
                    .iter()
                    .flat_map(|q| [q.nominal[0], q.sscm[0].mean, q.sscm[0].std])
                    .map(f64::to_bits)
                    .collect();
                assert_eq!(
                    sweep_bits, run_bits,
                    "{:?}: one-point sweep diverged from run",
                    analysis.config.quantities
                );
            }
        }
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
        let analysis = capacitance_analysis();
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
