//! High-level linear-solver front-end.
//!
//! The FVM layer does not want to care about preconditioners, scalings and
//! fallbacks; it prepares a [`CsrMatrix`] once with [`LinearSolver`] and
//! solves right-hand sides against the returned [`PreparedSolver`], each
//! answered with a solution plus a [`SolveReport`].

use crate::{
    BiCgStab, BiCgStabWorkspace, CsrMatrix, Gmres, GmresWorkspace, Ilu0, KrylovOptions,
    RowColScaling, SparseError, SparseLu, SymbolicLu,
};
use vaem_numeric::{vecops, Scalar};
use vaem_parallel::faults::{self, FaultSite};

/// Deterministic fault-injection checkpoint (see [`vaem_parallel::faults`]):
/// returns the canonical forced error for `site` exactly when the current
/// thread's fault scope arms it, `Ok(())` otherwise — including always
/// outside any scope, so production solves pay one thread-local read per
/// checkpoint.
fn fault_check(site: FaultSite) -> Result<(), SparseError> {
    if !faults::armed(site) {
        return Ok(());
    }
    Err(match site {
        FaultSite::Pivot => SparseError::ZeroPivot { index: 0 },
        FaultSite::Krylov => SparseError::NotConverged {
            iterations: 0,
            residual: f64::INFINITY,
        },
        _ => SparseError::Breakdown {
            // vaem-lint: allow(H1) fault-injection error construction, off the nominal path
            detail: format!("injected fault at site '{site}'"),
        },
    })
}

/// NaN-poisons a solution vector when the `nan` fault site is armed —
/// modeling a solve that "succeeds" with garbage, to exercise the
/// non-finite guards downstream.
fn fault_poison<T: Scalar>(x: &mut [T]) {
    if faults::armed(FaultSite::Nan) {
        x.fill(T::from_f64(f64::NAN));
    }
}

/// The canonical forced failure of an armed `krylov` fault site.
fn forced_krylov() -> SparseError {
    SparseError::NotConverged {
        iterations: 0,
        residual: f64::INFINITY,
    }
}

/// Whether the calling thread's fault scope arms a site that a prepared
/// solve can reach. The workers of [`PreparedSolver::solve_batch`] run
/// outside that thread-local scope, so the batch stays serial while one is
/// armed.
fn fault_scope_armed() -> bool {
    [
        FaultSite::Pivot,
        FaultSite::Krylov,
        FaultSite::Nan,
        FaultSite::Ilu,
    ]
    .into_iter()
    .any(faults::armed)
}

/// One ILU(0)-preconditioned BiCGSTAB attempt on the scaled system — the
/// single place both [`PreparedSolver::solve_with_guess`] and the
/// speculative columns of [`PreparedSolver::solve_batch`] run it. An armed
/// `krylov` fault fails it before it starts.
fn bicgstab_attempt<T: Scalar>(
    scaled: &CsrMatrix<T>,
    ilu: &Ilu0<T>,
    options: KrylovOptions,
    bs: &[T],
    guess: Option<&[T]>,
    ws: &mut BiCgStabWorkspace<T>,
) -> Result<(Vec<T>, usize), SparseError> {
    if faults::armed(FaultSite::Krylov) {
        return Err(forced_krylov());
    }
    BiCgStab::new(options).solve_with_workspace(scaled, bs, Some(ilu), guess, ws)
}

/// The tail of every prepared solve: the relative residual of the
/// *original* system, recovered from the scaled one, and the unscaled
/// solution (NaN-poisoned when the `nan` fault is armed). `y` solves the
/// scaled system `Â·ŷ = b̂` for `b̂ = bs`, the scaled form of `b`.
fn finish_solve<T: Scalar>(
    scaled: &CsrMatrix<T>,
    scaling: &RowColScaling,
    b: &[T],
    bs: &[T],
    y: &[T],
    strategy: &'static str,
    iterations: usize,
) -> (Vec<T>, SolveReport) {
    // b − A·x = R⁻¹·(b̂ − Â·ŷ) when Â = R·A·C, x = C·ŷ and b̂ = R·b.
    let n = scaled.rows();
    let mut resid_sqr = 0.0;
    let ay = scaled.matvec(y);
    for i in 0..n {
        let ri = (bs[i] - ay[i]).modulus() / scaling.row_factors()[i];
        resid_sqr += ri * ri;
    }
    let resid = resid_sqr.sqrt() / vecops::norm2(b).max(1e-300);
    let mut x = scaling.unscale_solution(y);
    fault_poison(&mut x);
    (
        x,
        SolveReport {
            strategy,
            iterations,
            residual_norm: resid,
            dimension: n,
            nnz: scaled.nnz(),
        },
    )
}

/// Strategy selection for [`LinearSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Equilibrate, use the direct LU below a size threshold, otherwise
    /// ILU(0)+BiCGSTAB with an ILU(0)+GMRES and finally direct fallback.
    #[default]
    Auto,
    /// Always use the direct sparse LU.
    DirectLu,
    /// ILU(0)-preconditioned BiCGSTAB only.
    IluBiCgStab,
}

/// Statistics describing how a linear solve was performed.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Short name of the strategy that produced the returned solution.
    pub strategy: &'static str,
    /// Krylov iterations used (0 for a direct solve).
    pub iterations: usize,
    /// Relative residual `‖b − A·x‖ / ‖b‖` of the returned solution,
    /// measured on the *original* (unscaled) system.
    pub residual_norm: f64,
    /// Matrix dimension.
    pub dimension: usize,
    /// Matrix stored non-zeros.
    pub nnz: usize,
}

/// Front-end that equilibrates the system and dispatches to the configured
/// solver, with automatic fallbacks in [`SolverKind::Auto`] mode.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, LinearSolver, SolverKind};
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0e7), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0e-6)]);
/// let b = vec![1.0, 1.0];
/// let solver = LinearSolver::new(SolverKind::Auto);
/// let (x, report) = solver.prepare(&a)?.solve(&b)?;
/// assert!(report.residual_norm < 1e-8);
/// assert_eq!(x.len(), 2);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinearSolver {
    kind: SolverKind,
    options: KrylovOptions,
    direct_threshold: usize,
    seeded_direct_threshold: usize,
}

impl Default for LinearSolver {
    fn default() -> Self {
        Self::new(SolverKind::Auto)
    }
}

impl LinearSolver {
    /// Creates a solver front-end with default Krylov options, a cold direct
    /// threshold of 384 unknowns and a seeded direct threshold of 4096.
    ///
    /// Both thresholds follow measured crossovers on FVM-like systems (see
    /// the `sparse_solvers` bench). Cold: at 512 unknowns ILU(0)+BiCGSTAB is
    /// already ~25× faster than a from-scratch direct LU, and the gap widens
    /// with size, while `Auto` still falls back to GMRES and then the direct
    /// LU when the iteration stagnates. Seeded: when a donor symbolic phase
    /// with a recorded pivot structure is available
    /// ([`LinearSolver::prepare_seeded`]), the direct path pays only the
    /// supernode-blocked numeric refactorization, which the
    /// `seeded_crossover` bench measures on AC-like (shifted, lossy)
    /// slab systems as ~1.6× cheaper than the cold route at 1024 unknowns
    /// and ~5× cheaper at 4096 — the margin *grows* with size because the
    /// cold route burns a Krylov stagnation before its direct rescue. The
    /// default stops at 4096 as a conservative bound on the measured
    /// range, not a measured crossover; diffusion-like systems that
    /// Krylov handles well cross far earlier, and callers can move the
    /// threshold either way with
    /// [`with_seeded_direct_threshold`](LinearSolver::with_seeded_direct_threshold).
    pub fn new(kind: SolverKind) -> Self {
        Self {
            kind,
            options: KrylovOptions::default(),
            direct_threshold: 384,
            seeded_direct_threshold: 4096,
        }
    }

    /// Overrides the Krylov options.
    pub fn with_options(mut self, options: KrylovOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the dimension below which [`SolverKind::Auto`] goes straight
    /// to the direct LU.
    pub fn with_direct_threshold(mut self, threshold: usize) -> Self {
        self.direct_threshold = threshold;
        self
    }

    /// Overrides the dimension below which [`SolverKind::Auto`] prefers the
    /// direct LU when [`LinearSolver::prepare_seeded`] receives a usable
    /// donor symbolic phase (matching pattern, recorded structure). The
    /// seeded direct factorization is numeric-only, so its crossover against
    /// a cold ILU build sits far above the cold [`direct
    /// threshold`](LinearSolver::with_direct_threshold).
    pub fn with_seeded_direct_threshold(mut self, threshold: usize) -> Self {
        self.seeded_direct_threshold = threshold;
        self
    }

    /// Configured strategy.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Equilibrates and factorizes `a` once, returning a [`PreparedSolver`]
    /// that can solve many right-hand sides against the same matrix.
    ///
    /// This is the fast path for workloads that solve one operator
    /// repeatedly — every terminal of a capacitance extraction, every
    /// frequency-sweep point reusing the previous factorization, and the
    /// AC stage of the sample sweeps. In `Auto` mode the strategy is the
    /// direct LU below the threshold (or when the ILU(0) setup fails) and
    /// ILU(0)-preconditioned BiCGSTAB above it; a BiCGSTAB solve that fails
    /// falls back to GMRES with the same preconditioner and then to an
    /// on-demand direct LU.
    ///
    /// # Errors
    /// Propagates factorization failures of the selected strategy.
    pub fn prepare<T: Scalar>(&self, a: &CsrMatrix<T>) -> Result<PreparedSolver<T>, SparseError> {
        self.prepare_seeded(a, None)
    }

    /// [`LinearSolver::prepare`] with an optional **donor symbolic phase**
    /// for the direct strategy.
    ///
    /// Variation-aware sweeps factorize many small perturbations of one
    /// nominal operator: when `seed` holds a [`SymbolicLu`] whose pattern
    /// matches `a` (after equilibration — scaling changes values, never the
    /// pattern) and whose pivot structure is recorded, the direct
    /// factorization starts from [`SymbolicLu::seed_from`] and pays only
    /// the numeric phase — no ordering selection, no reachability DFS, no
    /// pivot search. A seed whose pivots are numerically stale for `a`
    /// re-pivots transparently inside this solver's own handle (see
    /// [`PreparedSolver::direct_stale_fallbacks`]); a seed with a foreign
    /// pattern is ignored and the full analysis runs.
    ///
    /// In [`SolverKind::Auto`] mode a usable seed also moves the direct/
    /// iterative crossover: the numeric-only seeded refactorization beats a
    /// cold ILU(0) build well past the cold threshold, so the [`seeded
    /// threshold`](LinearSolver::with_seeded_direct_threshold) applies
    /// instead.
    ///
    /// # Errors
    /// Propagates factorization failures of the selected strategy.
    pub fn prepare_seeded<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        seed: Option<&SymbolicLu>,
    ) -> Result<PreparedSolver<T>, SparseError> {
        self.prepare_seeded_with(a, seed, None)
    }

    /// [`LinearSolver::prepare_seeded`] with an additional **donor ILU(0)**
    /// for the iterative strategies.
    ///
    /// The Krylov-side mirror of the direct donor: when the prepared
    /// strategy ends up iterative and `ilu_seed` holds a preconditioner of
    /// the right dimension (donated by a sibling solver on the same pattern,
    /// see [`PreparedSolver::ilu_donor`]), the sample starts from the
    /// donor's ILU(0) values instead of building its own. The seeded
    /// preconditioner enters marked *stale* with the donor's healthy
    /// iteration baseline carried over, so the existing lazy-refresh policy
    /// decides if and when this sample rebuilds from its own values — a
    /// mildly perturbed sample typically never pays the build at all.
    ///
    /// # Errors
    /// Propagates factorization failures of the selected strategy.
    pub fn prepare_seeded_with<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        seed: Option<&SymbolicLu>,
        ilu_seed: Option<&IluSeed<T>>,
    ) -> Result<PreparedSolver<T>, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::DimensionMismatch {
                // vaem-lint: allow(H1) solver-failure message, error path only
                detail: format!(
                    "prepare needs a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let (scaled, scaling) = RowColScaling::equilibrate(a);
        let ilu_state = |scaled: &CsrMatrix<T>| -> Result<IluRefresh<T>, SparseError> {
            match ilu_seed {
                Some(donated) if donated.ilu.dim() == scaled.rows() => {
                    Ok(IluRefresh::from_seed(donated))
                }
                _ => IluRefresh::build(scaled),
            }
        };
        let factorization = match self.kind {
            SolverKind::DirectLu => direct_factorization(&scaled, seed)?,
            SolverKind::IluBiCgStab => Factorization::Ilu {
                state: ilu_state(&scaled)?,
                gmres_fallback: false,
            },
            SolverKind::Auto => {
                // A usable direct donor shifts the crossover: numeric-only
                // seeded refactorization stays cheaper than a cold ILU(0)
                // build up to the (much larger) seeded threshold.
                let seeded = seed.is_some_and(|d| d.has_structure() && d.matches(&scaled));
                let threshold = if seeded {
                    self.seeded_direct_threshold.max(self.direct_threshold)
                } else {
                    self.direct_threshold
                };
                if a.rows() <= threshold {
                    match direct_factorization(&scaled, seed) {
                        Ok(direct) => direct,
                        Err(_) => Factorization::Ilu {
                            state: ilu_state(&scaled)?,
                            gmres_fallback: true,
                        },
                    }
                } else {
                    match ilu_state(&scaled) {
                        Ok(state) => Factorization::Ilu {
                            state,
                            gmres_fallback: true,
                        },
                        Err(_) => direct_factorization(&scaled, seed)?,
                    }
                }
            }
        };
        Ok(PreparedSolver {
            scaled,
            scaling,
            factorization,
            options: self.options,
            bicgstab_ws: BiCgStabWorkspace::new(),
            gmres_ws: GmresWorkspace::new(),
        })
    }
}

/// A donated ILU(0) preconditioner plus the donor's healthy iteration
/// baseline — the Krylov-side counterpart of the [`SymbolicLu`] direct
/// donor. Produced by [`PreparedSolver::ilu_donor`], consumed by
/// [`LinearSolver::prepare_seeded_with`].
#[derive(Debug, Clone)]
pub struct IluSeed<T: Scalar> {
    ilu: Ilu0<T>,
    baseline_iterations: Option<(usize, &'static str)>,
}

impl<T: Scalar> IluSeed<T> {
    /// Dimension the donated preconditioner was built for.
    pub fn dim(&self) -> usize {
        self.ilu.dim()
    }
}

/// Iteration-count degradation ratio that retires a kept (stale) ILU(0):
/// when a solve against a preconditioner built for *older* values needs
/// more than `ILU_REFRESH_RATIO × baseline + ILU_REFRESH_SLACK` iterations,
/// the preconditioner is rebuilt from the current values before the next
/// solve. The additive slack keeps tiny baselines (1–3 iterations) from
/// triggering rebuilds on noise.
const ILU_REFRESH_RATIO: f64 = 2.0;
/// See [`ILU_REFRESH_RATIO`].
const ILU_REFRESH_SLACK: usize = 4;

/// How a [`PreparedSolver`] applies its cached factorization.
#[derive(Debug, Clone)]
enum Factorization<T: Scalar> {
    /// Direct sparse LU of the equilibrated matrix, kept together with its
    /// symbolic phase so [`PreparedSolver::refactor`] pays only the numeric
    /// cost when the values change on the same pattern.
    Direct(Box<DirectFactorization<T>>),
    /// ILU(0) preconditioner shared by BiCGSTAB. When `gmres_fallback` is
    /// set (`Auto` mode), a failing solve falls back to GMRES with the same
    /// preconditioner and finally to an on-demand direct LU that replaces
    /// this factorization.
    Ilu {
        state: IluRefresh<T>,
        gmres_fallback: bool,
    },
}

/// A direct sparse LU kept together with its symbolic phase (boxed inside
/// [`Factorization`] to keep the enum small).
#[derive(Debug, Clone)]
struct DirectFactorization<T: Scalar> {
    symbolic: SymbolicLu,
    numeric: SparseLu<T>,
}

/// An ILU(0) preconditioner together with its lazy refresh policy.
///
/// [`PreparedSolver::refactor`] on an iterative strategy does **not**
/// rebuild the factorization eagerly: for a dense frequency grid or a
/// converging Newton tail the previous ILU(0) usually still clusters the
/// spectrum well enough, so the rebuild is deferred until the observed
/// Krylov iteration count degrades past
/// `ILU_REFRESH_RATIO × baseline + ILU_REFRESH_SLACK` (or a solve with the
/// stale factors fails outright).
#[derive(Debug, Clone)]
struct IluRefresh<T: Scalar> {
    ilu: Ilu0<T>,
    /// Iteration count of the first solve after the last (re)build — the
    /// "healthy preconditioner" reference — tagged with the solver that
    /// produced it. BiCGSTAB and GMRES counts are not commensurate (two
    /// matvecs per BiCGSTAB iteration, restart cycles in GMRES), so a
    /// degradation comparison only happens between counts of the same
    /// solver.
    baseline_iterations: Option<(usize, &'static str)>,
    /// The operator values have changed since `ilu` was built.
    stale: bool,
    rebuilds: u64,
}

impl<T: Scalar> IluRefresh<T> {
    fn build(scaled: &CsrMatrix<T>) -> Result<Self, SparseError> {
        fault_check(FaultSite::Ilu)?;
        Ok(Self {
            ilu: Ilu0::new(scaled)?,
            baseline_iterations: None,
            stale: false,
            rebuilds: 0,
        })
    }

    /// Starts from a donated preconditioner instead of building one: the
    /// factors are for the *donor's* values, so the state enters stale with
    /// the donor's healthy baseline carried over — the lazy refresh policy
    /// then treats the donation exactly like this solver's own aged ILU and
    /// rebuilds only when the observed iteration count degrades.
    // vaem-lint: cold preconditioner clone from a donated seed, once per sweep
    fn from_seed(seed: &IluSeed<T>) -> Self {
        Self {
            ilu: seed.ilu.clone(),
            baseline_iterations: seed.baseline_iterations,
            stale: true,
            rebuilds: 0,
        }
    }

    /// Rebuilds the preconditioner from the current values before a solve
    /// when there is no healthy baseline to judge staleness against (the
    /// caller refactored before ever solving, or the previous rebuild was
    /// immediately followed by another refactor). Without this, the first
    /// stale solve's (possibly degraded) iteration count would be recorded
    /// as the "healthy" reference and inflate the refresh threshold for
    /// the rest of the sweep. Rebuild failures are swallowed — the stale
    /// ILU keeps answering (solves remain residual-verified).
    fn ensure_baselined(&mut self, scaled: &CsrMatrix<T>) {
        if self.stale && self.baseline_iterations.is_none() {
            // vaem-lint: allow(E1) best-effort ILU rebuild: a stale preconditioner still answers and every solve is residual-verified
            let _ = self.rebuild(scaled);
        }
    }

    /// Records the outcome of one converged solve (`solver_tag` names the
    /// Krylov method that produced `iterations`) and rebuilds the stale
    /// preconditioner when the iteration count has degraded past the
    /// threshold. The baseline is only ever taken from a solve with fresh
    /// factors ([`IluRefresh::ensure_baselined`] guarantees one exists
    /// before any stale solve), and only compared against counts from the
    /// same solver — a BiCGSTAB observation judged against a GMRES
    /// baseline (or vice versa) would skew the policy in either direction.
    /// Rebuild failures are swallowed: the stale ILU keeps answering and
    /// the next degraded solve retries.
    fn observe(&mut self, iterations: usize, solver_tag: &'static str, scaled: &CsrMatrix<T>) {
        if !self.stale {
            if self.baseline_iterations.is_none() {
                self.baseline_iterations = Some((iterations, solver_tag));
            }
            return;
        }
        if let Some((base, tag)) = self.baseline_iterations {
            if tag != solver_tag {
                return;
            }
            let threshold = ILU_REFRESH_RATIO * base as f64 + ILU_REFRESH_SLACK as f64;
            if iterations as f64 > threshold {
                if let Ok(fresh) = Ilu0::new(scaled) {
                    self.ilu = fresh;
                    self.stale = false;
                    self.rebuilds += 1;
                    self.baseline_iterations = None;
                }
            }
        }
    }

    /// Forces a rebuild from the current values (used when a solve with
    /// stale factors fails before escalating to the fallback chain).
    fn rebuild(&mut self, scaled: &CsrMatrix<T>) -> Result<(), SparseError> {
        fault_check(FaultSite::Ilu)?;
        self.ilu = Ilu0::new(scaled)?;
        self.stale = false;
        self.rebuilds += 1;
        self.baseline_iterations = None;
        Ok(())
    }
}

/// Builds a symbolic+numeric direct factorization of an equilibrated
/// matrix, starting from a donor symbolic phase when one with a matching
/// pattern and recorded structure is supplied.
// vaem-lint: cold full factorization on prepare; per-iteration refactors go through refactor_numeric
fn direct_factorization<T: Scalar>(
    scaled: &CsrMatrix<T>,
    seed: Option<&SymbolicLu>,
) -> Result<Factorization<T>, SparseError> {
    fault_check(FaultSite::Pivot)?;
    let mut symbolic = match seed {
        Some(donor) if donor.has_structure() && donor.matches(scaled) => donor.seed_from(),
        _ => SymbolicLu::analyze(scaled)?,
    };
    let numeric = symbolic.factor(scaled)?;
    Ok(Factorization::Direct(Box::new(DirectFactorization {
        symbolic,
        numeric,
    })))
}

/// A factorized linear system ready to solve many right-hand sides.
///
/// Produced by [`LinearSolver::prepare`]; owns the equilibrated matrix, the
/// factorization and the Krylov workspaces, so repeated solves do no
/// factorization work and no per-call allocation beyond the returned
/// solution vector.
#[derive(Debug, Clone)]
pub struct PreparedSolver<T: Scalar> {
    scaled: CsrMatrix<T>,
    scaling: RowColScaling,
    factorization: Factorization<T>,
    options: KrylovOptions,
    bicgstab_ws: BiCgStabWorkspace<T>,
    gmres_ws: GmresWorkspace<T>,
}

impl<T: Scalar> PreparedSolver<T> {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.scaled.rows()
    }

    /// Short name of the prepared strategy.
    pub fn strategy(&self) -> &'static str {
        match &self.factorization {
            Factorization::Direct(_) => "sparse-lu",
            Factorization::Ilu { .. } => "ilu0-bicgstab",
        }
    }

    /// The symbolic phase of the direct factorization, when the prepared
    /// strategy is direct. This is the donor handle for
    /// [`LinearSolver::prepare_seeded`]: cloning it (cheap, `Arc`-backed)
    /// lets sibling solvers on the same sparsity pattern skip their own
    /// symbolic analysis and pivot discovery.
    pub fn direct_symbolic(&self) -> Option<&SymbolicLu> {
        match &self.factorization {
            Factorization::Direct(direct) => Some(&direct.symbolic),
            _ => None,
        }
    }

    /// The current ILU(0) preconditioner as a donation for sibling solvers
    /// on the same pattern, when the prepared strategy is iterative — the
    /// Krylov-side counterpart of [`PreparedSolver::direct_symbolic`]. The
    /// seed carries this solver's healthy iteration baseline so the
    /// recipient's lazy-refresh policy can judge the donated factors
    /// against it (see [`LinearSolver::prepare_seeded_with`]).
    // vaem-lint: cold donor-seed extraction, once per sweep
    pub fn ilu_donor(&self) -> Option<IluSeed<T>> {
        let state = match &self.factorization {
            Factorization::Ilu { state, .. } => state,
            Factorization::Direct(_) => return None,
        };
        Some(IluSeed {
            ilu: state.ilu.clone(),
            baseline_iterations: state.baseline_iterations,
        })
    }

    /// How many times this solver's direct factorization abandoned a cached
    /// pivot sequence (seeded or self-recorded) because it went numerically
    /// stale, and re-pivoted from scratch. Zero for iterative strategies.
    pub fn direct_stale_fallbacks(&self) -> u64 {
        match &self.factorization {
            Factorization::Direct(direct) => direct.symbolic.stale_fallback_count(),
            _ => 0,
        }
    }

    /// How many times the lazy ILU refresh policy rebuilt the
    /// preconditioner after the iteration count degraded (zero for the
    /// direct strategy).
    pub fn ilu_rebuilds(&self) -> u64 {
        match &self.factorization {
            Factorization::Ilu { state, .. } => state.rebuilds,
            Factorization::Direct(_) => 0,
        }
    }

    /// Re-equilibrates and refactorizes for a matrix with **new values on
    /// the same sparsity pattern** (a Newton update, the next point of a
    /// frequency sweep), keeping the symbolic analysis of the direct
    /// strategy so only the numeric phase is redone.
    ///
    /// The strategy choice made by [`LinearSolver::prepare`] is kept; a
    /// direct factorization whose cached pivot sequence has gone stale for
    /// the new values transparently re-pivots (see [`SymbolicLu::factor`]),
    /// and a pattern change falls back to a fresh symbolic analysis.
    ///
    /// Iterative strategies do **not** rebuild their ILU(0) here: the
    /// previous preconditioner is kept (marked stale) until a solve's
    /// iteration count degrades past the refresh threshold — for dense
    /// frequency grids and Newton tails the old factors usually stay
    /// effective, so the rebuild cost is paid only when it buys iterations
    /// back.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when the shape differs from the
    ///   prepared matrix.
    /// * Factorization failures of the kept strategy.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        if a.rows() != self.scaled.rows() || a.cols() != self.scaled.cols() {
            return Err(SparseError::DimensionMismatch {
                // vaem-lint: allow(H1) refactor-failure message, error path only
                detail: format!(
                    "refactor expects a {}x{} matrix, got {}x{}",
                    self.scaled.rows(),
                    self.scaled.cols(),
                    a.rows(),
                    a.cols()
                ),
            });
        }
        // Factor against the *local* equilibrated matrix and only commit the
        // new scaled/scaling state together with the new factorization: an
        // error must leave the solver answering for the previously prepared
        // matrix, not mix the old factors with the new scaling.
        let (scaled, scaling) = RowColScaling::equilibrate(a);
        match &mut self.factorization {
            Factorization::Direct(direct) => {
                fault_check(FaultSite::Pivot)?;
                match direct.symbolic.factor(&scaled) {
                    Ok(lu) => direct.numeric = lu,
                    Err(SparseError::DimensionMismatch { .. }) => {
                        // The sparsity pattern itself changed: re-analyze.
                        self.factorization = direct_factorization(&scaled, None)?;
                    }
                    Err(err) => return Err(err),
                }
            }
            Factorization::Ilu { state, .. } => state.stale = true,
        }
        self.scaled = scaled;
        self.scaling = scaling;
        Ok(())
    }

    /// Solves `A·x = b` with the cached factorization.
    ///
    /// # Errors
    /// Propagates solver failures (after the GMRES fallback for the `Auto`
    /// Krylov strategy).
    pub fn solve(&mut self, b: &[T]) -> Result<(Vec<T>, SolveReport), SparseError> {
        self.solve_with_guess(b, None)
    }

    /// Solves `A·x = b` starting the iterative strategies from `x0`.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn solve_with_guess(
        &mut self,
        b: &[T],
        x0: Option<&[T]>,
    ) -> Result<(Vec<T>, SolveReport), SparseError> {
        let n = self.scaled.rows();
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                // vaem-lint: allow(H1) solver-failure message, error path only
                detail: format!("prepared solver dimension {n} but rhs has {}", b.len()),
            });
        }
        let bs = self.scaling.scale_rhs(b);
        let guess_scaled = x0.map(|g| self.scaling.scale_guess(g));
        // Injected Krylov non-convergence fails both iterative attempts (the
        // rebuild retry and the GMRES fallback included) but leaves the
        // direct rescue below untouched — the fault exercises the whole
        // escalation chain instead of one solver call.
        let inject_krylov = faults::armed(FaultSite::Krylov);
        // `None` after the match means "both Krylov strategies failed in
        // Auto mode" — rescued by the direct LU below, the last step of the
        // bicgstab → gmres → direct chain.
        let mut outcome: Option<(Vec<T>, &'static str, usize)> = None;
        let Self {
            scaled,
            factorization,
            options,
            bicgstab_ws,
            gmres_ws,
            ..
        } = &mut *self;
        match factorization {
            Factorization::Direct(direct) => {
                outcome = Some((direct.numeric.solve(&bs)?, "sparse-lu", 0))
            }
            Factorization::Ilu {
                state,
                gmres_fallback,
            } => {
                state.ensure_baselined(scaled);
                let guess = guess_scaled.as_deref();
                let mut attempt =
                    bicgstab_attempt(scaled, &state.ilu, *options, &bs, guess, bicgstab_ws);
                // A failure with stale factors may be the preconditioner's
                // fault: rebuild from the current values and retry once
                // before escalating through the fallback chain.
                if attempt.is_err()
                    && !inject_krylov
                    && state.stale
                    && state.rebuild(scaled).is_ok()
                {
                    attempt =
                        bicgstab_attempt(scaled, &state.ilu, *options, &bs, guess, bicgstab_ws);
                }
                match attempt {
                    Ok((y, it)) => {
                        state.observe(it, "ilu0-bicgstab", scaled);
                        outcome = Some((y, "ilu0-bicgstab", it));
                    }
                    Err(err) => {
                        if !*gmres_fallback {
                            return Err(err);
                        }
                        let gmres = Gmres::new(*options);
                        if inject_krylov {
                            // The forced non-convergence covers GMRES too;
                            // fall through to the direct rescue.
                        } else if let Ok((y, it)) = gmres.solve_with_workspace(
                            scaled,
                            &bs,
                            Some(&state.ilu),
                            guess_scaled.as_deref(),
                            gmres_ws,
                        ) {
                            // Feed the refresh policy here too: without a
                            // baseline, every later stale solve would
                            // eagerly rebuild (ensure_baselined), turning
                            // the lazy policy back into a per-point one.
                            state.observe(it, "ilu0-gmres", scaled);
                            outcome = Some((y, "ilu0-gmres", it));
                        }
                    }
                }
            }
        }
        let (y, strategy, iterations) = match outcome {
            Some(result) => result,
            None => {
                // Auto-mode last resort: the iteration has proven unreliable
                // on this operator, so factor the direct LU once (with its
                // symbolic phase, so later refactors stay cheap), keep it
                // for every subsequent solve, and answer from it.
                let direct = direct_factorization(&self.scaled, None)?;
                let y = match &direct {
                    Factorization::Direct(d) => d.numeric.solve(&bs)?,
                    _ => unreachable!("direct_factorization returns Direct"),
                };
                self.factorization = direct;
                (y, "sparse-lu", 0)
            }
        };
        Ok(finish_solve(
            &self.scaled,
            &self.scaling,
            b,
            &bs,
            &y,
            strategy,
            iterations,
        ))
    }

    /// Solves `A·x_j = b_j` for the columns `j in 0..count` of this operator
    /// and hands each column's solution and report to `reduce`, returning
    /// the reduced results in column order.
    ///
    /// `rhs(j, b)` writes column `j`'s right-hand side into `b` (length
    /// [`dim`](PreparedSolver::dim), zeroed on entry). The outcome is
    /// bit-identical to the serial loop
    /// `for j in 0..count { let (x, r) = self.solve(&b_j)?; out.push(reduce(j, x, r)?) }`
    /// at any thread count: every solution bit, every [`SolveReport`], the
    /// ILU rebuild count, any direct-LU rescue, the final
    /// [`strategy`](PreparedSolver::strategy) and the first error.
    ///
    /// On the ILU(0)+BiCGSTAB strategy the columns fan out over
    /// [`vaem_parallel::thread_count`] workers. Each worker owns one
    /// BiCGSTAB workspace and one right-hand-side buffer, built on the
    /// calling thread, and runs whole columns — `rhs`, the BiCGSTAB attempt
    /// from a zero guess against the shared scaled matrix and ILU factors,
    /// the residual/unscale tail and `reduce` — so no column's vectors
    /// outlive it. The calling thread then commits the columns in order and
    /// feeds each iteration count to the lazy ILU refresh policy, as the
    /// serial loop does. **Speculative-commit rule:** at the first column
    /// whose attempt failed, or once the policy has rebuilt the
    /// preconditioner, the remaining speculative results are discarded and
    /// those columns finish through
    /// [`solve_with_guess`](PreparedSolver::solve_with_guess) on the calling
    /// thread, so a speculative column is only ever kept when it ran
    /// against the preconditioner the serial loop would have used.
    ///
    /// The batch is the serial loop itself for direct and GMRES-only
    /// factorizations, for `count <= 1`, on one thread, and while a fault
    /// scope is armed on the calling thread (the workers would not see it).
    ///
    /// # Errors
    /// The serial loop's first error: a solve that fails after the
    /// fallback chain, or a failed `reduce`, whichever comes first in
    /// column order.
    pub fn solve_batch<R, E, B, F>(&mut self, count: usize, rhs: B, reduce: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: From<SparseError> + Send,
        B: Fn(usize, &mut [T]) + Sync,
        F: Fn(usize, Vec<T>, SolveReport) -> Result<R, E> + Sync,
    {
        self.solve_batch_on(vaem_parallel::thread_count(), count, rhs, reduce)
    }

    /// [`PreparedSolver::solve_batch`] on an explicit worker count.
    fn solve_batch_on<R, E, B, F>(
        &mut self,
        threads: usize,
        count: usize,
        rhs: B,
        reduce: F,
    ) -> Result<Vec<R>, E>
    where
        R: Send,
        E: From<SparseError> + Send,
        B: Fn(usize, &mut [T]) + Sync,
        F: Fn(usize, Vec<T>, SolveReport) -> Result<R, E> + Sync,
    {
        let mut speculative = self.speculate(threads, count, &rhs, &reduce).into_iter();
        // Every change of the preconditioner counts a rebuild (or replaces
        // the factorization), so a speculative column is committed only
        // while this count still names the factors it ran against.
        let rebuilds = self.ilu_rebuilds();
        let mut b = Vec::new();
        let mut out = Vec::with_capacity(count);
        for j in 0..count {
            match (speculative.next(), &mut self.factorization) {
                (Some(Some((iterations, reduced))), Factorization::Ilu { state, .. })
                    if state.rebuilds == rebuilds =>
                {
                    state.observe(iterations, "ilu0-bicgstab", &self.scaled);
                    out.push(reduced?);
                }
                _ => {
                    speculative = Vec::new().into_iter();
                    b.clear();
                    b.resize(self.dim(), T::zero());
                    rhs(j, &mut b);
                    let (x, report) = self.solve_with_guess(&b, None)?;
                    out.push(reduce(j, x, report)?);
                }
            }
        }
        Ok(out)
    }

    /// The concurrent phase of [`PreparedSolver::solve_batch`]: one
    /// speculative BiCGSTAB column per entry, `None` where the attempt
    /// failed. Empty when the batch must run serially.
    fn speculate<R, E, B, F>(
        &mut self,
        threads: usize,
        count: usize,
        rhs: &B,
        reduce: &F,
    ) -> Vec<Option<(usize, Result<R, E>)>>
    where
        R: Send,
        E: Send,
        B: Fn(usize, &mut [T]) + Sync,
        F: Fn(usize, Vec<T>, SolveReport) -> Result<R, E> + Sync,
    {
        let n = self.dim();
        let Self {
            scaled,
            scaling,
            factorization,
            options,
            ..
        } = self;
        let Factorization::Ilu { state, .. } = factorization else {
            return Vec::new();
        };
        if count <= 1 || threads <= 1 || fault_scope_armed() {
            return Vec::new();
        }
        // The serial loop's first solve checks the baseline before its
        // attempt. Later checks cannot change the state before a rebuild (a
        // failed baseline rebuild fails again on the same matrix), and a
        // rebuild ends the speculation.
        state.ensure_baselined(scaled);
        let (scaled, scaling, ilu, options) = (&*scaled, &*scaling, &state.ilu, *options);
        vaem_parallel::par_map_init(
            threads,
            1,
            count,
            || {
                let mut ws = BiCgStabWorkspace::new();
                ws.reset(n);
                // vaem-lint: allow(H1) per-worker rhs buffer, built once per batch on the calling thread
                (ws, vec![T::zero(); n])
            },
            |(ws, b), j| {
                b.fill(T::zero());
                rhs(j, b);
                let bs = scaling.scale_rhs(b);
                let (y, iterations) = bicgstab_attempt(scaled, ilu, options, &bs, None, ws).ok()?;
                let (x, report) =
                    finish_solve(scaled, scaling, b, &bs, &y, "ilu0-bicgstab", iterations);
                Some((iterations, reduce(j, x, report)))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_numeric::Complex64;

    fn laplacian_2d(nx: usize) -> CsrMatrix<f64> {
        let n = nx * nx;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut t = Vec::new();
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
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn auto_small_uses_direct() {
        let a = laplacian_2d(8);
        let b = vec![1.0; a.rows()];
        let solver = LinearSolver::new(SolverKind::Auto);
        let (_, report) = solver.prepare(&a).unwrap().solve(&b).unwrap();
        assert_eq!(report.strategy, "sparse-lu");
        assert!(report.residual_norm < 1e-10);
    }

    #[test]
    fn auto_large_uses_iterative() {
        let a = laplacian_2d(30); // 900 unknowns
        let b = vec![1.0; a.rows()];
        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(100);
        let (_, report) = solver.prepare(&a).unwrap().solve(&b).unwrap();
        assert_eq!(report.strategy, "ilu0-bicgstab");
        assert!(report.residual_norm < 1e-8);
        assert!(report.iterations > 0);
    }

    #[test]
    fn all_kinds_agree_on_solution() {
        let a = laplacian_2d(10);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.11).sin()).collect();
        let b = a.matvec(&x_true);
        for kind in [
            SolverKind::Auto,
            SolverKind::DirectLu,
            SolverKind::IluBiCgStab,
        ] {
            let solver = LinearSolver::new(kind).with_options(KrylovOptions {
                tolerance: 1e-12,
                max_iterations: 5000,
                restart: 50,
            });
            let (x, report) = solver.prepare(&a).unwrap().solve(&b).unwrap();
            assert!(
                vecops::relative_diff(&x, &x_true, 1e-30) < 1e-7,
                "kind {kind:?} failed with report {report:?}"
            );
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = laplacian_2d(20);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.05).cos()).collect();
        let b = a.matvec(&x_true);
        let mut prepared = LinearSolver::new(SolverKind::IluBiCgStab)
            .prepare(&a)
            .unwrap();
        let (_, cold) = prepared.solve(&b).unwrap();
        let (_, warm) = prepared.solve_with_guess(&b, Some(&x_true)).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn complex_system_with_huge_contrast() {
        // Mimics the metal/dielectric admittance contrast at 1 GHz.
        let nx = 12;
        let base = laplacian_2d(nx);
        let n = base.rows();
        let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
        for r in 0..n {
            let sigma = if r % 7 == 0 { 5.8e7 } else { 1.0 };
            for (c, v) in base.row_entries(r) {
                t.push((r, c, Complex64::new(v * sigma, v * 1e-6)));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.2).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let b = a.matvec(&x_true);
        let solver = LinearSolver::new(SolverKind::Auto);
        let (x, report) = solver.prepare(&a).unwrap().solve(&b).unwrap();
        assert!(
            vecops::relative_diff(&x, &x_true, 1e-30) < 1e-6,
            "report {report:?}"
        );
    }

    #[test]
    fn prepared_solver_reuses_one_factorization_for_many_rhs() {
        for (kind, nx, expect) in [
            (SolverKind::Auto, 8, "sparse-lu"),
            (SolverKind::IluBiCgStab, 14, "ilu0-bicgstab"),
        ] {
            let a = laplacian_2d(nx);
            let solver = LinearSolver::new(kind);
            let mut prepared = solver.prepare(&a).unwrap();
            assert_eq!(prepared.strategy(), expect);
            assert_eq!(prepared.dim(), a.rows());
            for t in 0..3 {
                let x_true: Vec<f64> = (0..a.rows())
                    .map(|i| ((i + t) as f64 * 0.21).sin())
                    .collect();
                let b = a.matvec(&x_true);
                let (x, report) = prepared.solve(&b).unwrap();
                let (x_ref, _) = solver.prepare(&a).unwrap().solve(&b).unwrap();
                assert!(
                    vecops::relative_diff(&x, &x_true, 1e-30) < 1e-7,
                    "kind {kind:?} rhs {t} report {report:?}"
                );
                assert!(vecops::relative_diff(&x, &x_ref, 1e-30) < 1e-7);
                assert!(report.residual_norm < 1e-7);
            }
        }
    }

    #[test]
    fn prepared_auto_above_threshold_is_iterative_and_warm_startable() {
        let a = laplacian_2d(20);
        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(50);
        let mut prepared = solver.prepare(&a).unwrap();
        assert_eq!(prepared.strategy(), "ilu0-bicgstab");
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.05).cos()).collect();
        let b = a.matvec(&x_true);
        let (_, cold) = prepared.solve(&b).unwrap();
        assert!(cold.iterations > 0);
        let (_, warm) = prepared.solve_with_guess(&b, Some(&x_true)).unwrap();
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn prepared_auto_rescues_krylov_failure_with_direct_lu() {
        // A one-iteration budget at an unreachable tolerance makes both
        // BiCGSTAB and GMRES fail; Auto must still answer via the direct
        // LU (and keep it for later solves).
        let a = laplacian_2d(25); // 625 unknowns, above the direct threshold
        let solver = LinearSolver::new(SolverKind::Auto).with_options(KrylovOptions {
            tolerance: 1e-16,
            max_iterations: 1,
            restart: 2,
        });
        let mut prepared = solver.prepare(&a).unwrap();
        assert_eq!(prepared.strategy(), "ilu0-bicgstab");
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.13).sin()).collect();
        let b = a.matvec(&x_true);
        let (x, report) = prepared.solve(&b).unwrap();
        assert_eq!(report.strategy, "sparse-lu");
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
        // The rescue factorization is cached for subsequent solves.
        assert_eq!(prepared.strategy(), "sparse-lu");
        let (x2, report2) = prepared.solve(&b).unwrap();
        assert_eq!(report2.strategy, "sparse-lu");
        assert!(vecops::relative_diff(&x2, &x_true, 1e-30) < 1e-8);
    }

    /// Rotation-dominated system: near-90° 2×2 rotation blocks, chained by a
    /// skip-two coupling so that ILU(0) drops fill and cannot be exact.
    fn coupled_rotation_blocks(n_blocks: usize, diag: f64) -> CsrMatrix<f64> {
        let n = 2 * n_blocks;
        let mut t = Vec::new();
        for k in 0..n_blocks {
            let i = 2 * k;
            t.push((i, i, diag));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, 1.0));
            t.push((i + 1, i + 1, diag));
            if i + 2 < n {
                t.push((i, i + 2, 0.3));
                t.push((i + 2, i, -0.3));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn rotation_dominated_near_breakdown_never_yields_an_unconverged_iterate() {
        // With a ~1e-12 rotation-block diagonal, the BiCGSTAB recurrence
        // residual used to drift from the true residual after the
        // near-breakdown amplification and the solver returned "converged"
        // iterates that were wrong by ~1e-5. The true-residual verification
        // must either push the iteration on (residual-replacement restart)
        // or fail so the chain escalates — never hand back a bad iterate.
        let a = coupled_rotation_blocks(40, 1e-12); // 80 unknowns
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.matvec(&x_true);

        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(8);
        let mut prepared = solver.prepare(&a).unwrap();
        let (xp, report_p) = prepared.solve(&b).unwrap();
        assert!(
            vecops::relative_diff(&xp, &x_true, 1e-30) < 1e-7,
            "prepared chain returned a bad iterate: report {report_p:?}"
        );
        assert!(report_p.residual_norm < 1e-8, "report {report_p:?}");
    }

    #[test]
    fn exactly_singular_rotation_blocks_escalate_to_the_direct_lu() {
        // A structurally present but exactly zero diagonal defeats ILU(0),
        // so the prepared chain must escalate to the (pivoting) direct LU.
        let a = coupled_rotation_blocks(40, 0.0);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.matvec(&x_true);
        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(8);
        let mut prepared = solver.prepare(&a).unwrap();
        assert_eq!(prepared.strategy(), "sparse-lu");
        let (xp, _) = prepared.solve(&b).unwrap();
        assert!(vecops::relative_diff(&xp, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn refactor_reuses_the_direct_symbolic_phase() {
        let a = laplacian_2d(9);
        let solver = LinearSolver::new(SolverKind::Auto); // 81 unknowns -> direct
        let mut prepared = solver.prepare(&a).unwrap();
        assert_eq!(prepared.strategy(), "sparse-lu");
        // New values, same pattern: a shifted operator.
        let mut shifted = a.clone();
        let triplets: Vec<(usize, usize, f64)> = (0..a.rows())
            .flat_map(|r| {
                a.row_entries(r)
                    .map(move |(c, v)| (r, c, if r == c { v + 1.5 } else { v }))
            })
            .collect();
        shifted.assemble_into(&triplets).unwrap();
        prepared.refactor(&shifted).unwrap();
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let b = shifted.matvec(&x_true);
        let (x, report) = prepared.solve(&b).unwrap();
        assert_eq!(report.strategy, "sparse-lu");
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
        // And the refactored operator matches a from-scratch solve.
        let (x_ref, _) = solver.prepare(&shifted).unwrap().solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_ref, 1e-30) < 1e-8);
    }

    #[test]
    fn refactor_rebuilds_the_ilu_preconditioner() {
        let a = laplacian_2d(20);
        let solver = LinearSolver::new(SolverKind::IluBiCgStab);
        let mut prepared = solver.prepare(&a).unwrap();
        let mut shifted = a.clone();
        let triplets: Vec<(usize, usize, f64)> = (0..a.rows())
            .flat_map(|r| {
                a.row_entries(r)
                    .map(move |(c, v)| (r, c, if r == c { v * 2.0 } else { v }))
            })
            .collect();
        shifted.assemble_into(&triplets).unwrap();
        prepared.refactor(&shifted).unwrap();
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.09).sin()).collect();
        let b = shifted.matvec(&x_true);
        let (x, report) = prepared.solve(&b).unwrap();
        assert_eq!(report.strategy, "ilu0-bicgstab");
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-7);
        assert!(report.residual_norm < 1e-8);
    }

    #[test]
    fn prepare_seeded_skips_the_symbolic_phase_and_matches_the_unseeded_bits() {
        let a = laplacian_2d(9);
        let solver = LinearSolver::new(SolverKind::DirectLu);
        let donor = solver.prepare(&a).unwrap();
        let seed = donor.direct_symbolic().expect("direct keeps its symbolic");
        assert!(seed.has_structure());

        // A perturbed operator on the same pattern (diagonal shift keeps
        // the pivot sequence of the diagonally dominant nominal).
        let mut shifted = a.clone();
        let triplets: Vec<(usize, usize, f64)> = (0..a.rows())
            .flat_map(|r| {
                a.row_entries(r)
                    .map(move |(c, v)| (r, c, if r == c { v + 0.8 } else { v * 1.02 }))
            })
            .collect();
        shifted.assemble_into(&triplets).unwrap();

        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.23).sin()).collect();
        let b = shifted.matvec(&x_true);

        let mut seeded = solver.prepare_seeded(&shifted, Some(seed)).unwrap();
        assert_eq!(seeded.strategy(), "sparse-lu");
        assert_eq!(seeded.direct_stale_fallbacks(), 0);
        let (x_seeded, report) = seeded.solve(&b).unwrap();
        assert!(report.residual_norm < 1e-10);

        // The numeric-only seeded factorization replays the donor's
        // elimination order, so as long as the pivots stay on the nominal
        // sequence the solution is bit-identical to the unseeded path.
        let mut unseeded = solver.prepare(&shifted).unwrap();
        let (x_unseeded, _) = unseeded.solve(&b).unwrap();
        assert_eq!(
            x_seeded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x_unseeded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn auto_with_a_usable_seed_stays_direct_above_the_cold_threshold() {
        // 400 unknowns with a cold threshold of 100: unseeded Auto prepares
        // the iterative strategy, but a usable donor symbolic moves the
        // crossover to the seeded threshold and keeps the direct path.
        let a = laplacian_2d(20);
        let solver = LinearSolver::new(SolverKind::Auto)
            .with_direct_threshold(100)
            .with_seeded_direct_threshold(1000);
        let cold = solver.prepare(&a).unwrap();
        assert_eq!(cold.strategy(), "ilu0-bicgstab");

        let donor = LinearSolver::new(SolverKind::DirectLu).prepare(&a).unwrap();
        let seed = donor.direct_symbolic().unwrap();
        let mut seeded = solver.prepare_seeded(&a, Some(seed)).unwrap();
        assert_eq!(seeded.strategy(), "sparse-lu");
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.21).sin()).collect();
        let b = a.matvec(&x_true);
        let (x, report) = seeded.solve(&b).unwrap();
        assert_eq!(report.strategy, "sparse-lu");
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);

        // Above the seeded threshold the seed no longer flips the choice,
        // and a seedless or structureless donor never does.
        let tight = solver.clone().with_seeded_direct_threshold(200);
        assert_eq!(
            tight.prepare_seeded(&a, Some(seed)).unwrap().strategy(),
            "ilu0-bicgstab"
        );
        let unrecorded = SymbolicLu::analyze(&a).unwrap();
        assert!(!unrecorded.has_structure());
        assert_eq!(
            solver
                .prepare_seeded(&a, Some(&unrecorded))
                .unwrap()
                .strategy(),
            "ilu0-bicgstab"
        );
    }

    #[test]
    fn donated_ilu_preconditions_a_perturbed_sample_without_a_rebuild() {
        let nominal = varying_laplacian(20, 0.0, 0.0);
        let solver = LinearSolver::new(SolverKind::IluBiCgStab);
        let mut donor = solver.prepare(&nominal).unwrap();
        let x_true: Vec<f64> = (0..nominal.rows())
            .map(|i| (i as f64 * 0.17).sin())
            .collect();
        // The donor solves once so its healthy baseline travels with the
        // donation.
        let (_, healthy) = donor.solve(&nominal.matvec(&x_true)).unwrap();
        assert!(healthy.iterations > 0);
        let donation = donor.ilu_donor().expect("iterative strategy donates");
        assert_eq!(donation.dim(), nominal.rows());
        assert!(donor.direct_symbolic().is_none());

        // A mildly perturbed sample seeded with the nominal's ILU(0): the
        // donated factors stay effective, so the lazy policy never rebuilds.
        let sample = varying_laplacian(20, 0.05, 1.0);
        let mut seeded = solver
            .prepare_seeded_with(&sample, None, Some(&donation))
            .unwrap();
        let (x, report) = seeded.solve(&sample.matvec(&x_true)).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-7);
        assert_eq!(
            seeded.ilu_rebuilds(),
            0,
            "mild perturbation must ride the donated ILU ({} its vs donor {})",
            report.iterations,
            healthy.iterations
        );

        // A violently different sample degrades past the threshold and the
        // policy rebuilds from the sample's own values.
        let harsh = varying_laplacian(20, 2.2, 2.5);
        let mut reseeded = solver
            .prepare_seeded_with(&harsh, None, Some(&donation))
            .unwrap();
        let (xh, _) = reseeded.solve(&harsh.matvec(&x_true)).unwrap();
        assert!(vecops::relative_diff(&xh, &x_true, 1e-30) < 1e-6);
        assert_eq!(
            reseeded.ilu_rebuilds(),
            1,
            "harsh perturbation must retire the donated ILU"
        );

        // A wrong-dimension donation is ignored, not misapplied.
        let small = varying_laplacian(10, 0.0, 0.0);
        let mut fresh = solver
            .prepare_seeded_with(&small, None, Some(&donation))
            .unwrap();
        let xs: Vec<f64> = (0..small.rows()).map(|i| (i as f64 * 0.3).cos()).collect();
        let (got, _) = fresh.solve(&small.matvec(&xs)).unwrap();
        assert!(vecops::relative_diff(&got, &xs, 1e-30) < 1e-7);
    }

    #[test]
    fn prepare_seeded_ignores_a_foreign_pattern_seed() {
        let a = laplacian_2d(6);
        let donor = LinearSolver::new(SolverKind::DirectLu)
            .prepare(&laplacian_2d(8))
            .unwrap();
        let seed = donor.direct_symbolic().unwrap();
        let mut prepared = LinearSolver::new(SolverKind::DirectLu)
            .prepare_seeded(&a, Some(seed))
            .unwrap();
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.4).cos()).collect();
        let b = a.matvec(&x_true);
        let (x, _) = prepared.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-9);
    }

    /// 2-D grid operator with per-link conductances spanning several orders
    /// of magnitude (`contrast` = 0 gives the uniform laplacian). All
    /// variants share one sparsity pattern.
    fn varying_laplacian(nx: usize, contrast: f64, phase: f64) -> CsrMatrix<f64> {
        let n = nx * nx;
        let idx = |i: usize, j: usize| i * nx + j;
        let weight =
            |a: usize, b: usize| (contrast * ((a * 31 + b * 17) as f64 * 0.7 + phase).sin()).exp();
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                let me = idx(i, j);
                let mut diag = 0.0;
                let mut neighbours = Vec::new();
                if i > 0 {
                    neighbours.push(idx(i - 1, j));
                }
                if i + 1 < nx {
                    neighbours.push(idx(i + 1, j));
                }
                if j > 0 {
                    neighbours.push(idx(i, j - 1));
                }
                if j + 1 < nx {
                    neighbours.push(idx(i, j + 1));
                }
                for other in neighbours {
                    let w = weight(me.min(other), me.max(other));
                    t.push((me, other, -w));
                    diag += w;
                }
                t.push((me, me, diag + 1e-3));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn stale_ilu_is_kept_until_iterations_degrade_then_rebuilt() {
        let nominal = varying_laplacian(20, 0.0, 0.0);
        let solver = LinearSolver::new(SolverKind::IluBiCgStab).with_options(KrylovOptions {
            max_iterations: 10_000,
            ..KrylovOptions::default()
        });
        let mut prepared = solver.prepare(&nominal).unwrap();
        let x_true: Vec<f64> = (0..nominal.rows())
            .map(|i| (i as f64 * 0.17).sin())
            .collect();

        // Baseline solve with the fresh preconditioner.
        let (_, healthy) = prepared.solve(&nominal.matvec(&x_true)).unwrap();
        assert!(healthy.iterations > 0);

        // Mild value drift: the stale ILU stays effective, so no rebuild.
        let mild = varying_laplacian(20, 0.05, 1.0);
        prepared.refactor(&mild).unwrap();
        let (x_mild, report_mild) = prepared.solve(&mild.matvec(&x_true)).unwrap();
        assert!(vecops::relative_diff(&x_mild, &x_true, 1e-30) < 1e-7);
        assert_eq!(
            prepared.ilu_rebuilds(),
            0,
            "mild drift must not rebuild (took {} vs baseline {})",
            report_mild.iterations,
            healthy.iterations
        );

        // Violent value change on the same pattern: the iteration count
        // degrades past the threshold and the policy rebuilds.
        let harsh = varying_laplacian(20, 2.2, 2.5);
        prepared.refactor(&harsh).unwrap();
        let b_harsh = harsh.matvec(&x_true);
        let (x_harsh, degraded) = prepared.solve(&b_harsh).unwrap();
        assert!(vecops::relative_diff(&x_harsh, &x_true, 1e-30) < 1e-6);
        assert_eq!(
            prepared.ilu_rebuilds(),
            1,
            "degraded solve ({} its vs baseline {}) must trigger a rebuild",
            degraded.iterations,
            healthy.iterations
        );

        // The rebuilt preconditioner matches the harsh operator again.
        let (x_fresh, recovered) = prepared.solve(&b_harsh).unwrap();
        assert!(vecops::relative_diff(&x_fresh, &x_true, 1e-30) < 1e-6);
        assert!(
            recovered.iterations < degraded.iterations,
            "rebuild must win iterations back: {} vs {}",
            recovered.iterations,
            degraded.iterations
        );
        assert_eq!(
            prepared.ilu_rebuilds(),
            1,
            "recovered solve must not rebuild again"
        );
    }

    #[test]
    fn refactor_before_any_solve_rebuilds_instead_of_baselining_stale_factors() {
        // prepare(&A) then refactor(&B) before the first solve: the solve
        // must not record a stale-preconditioner iteration count as the
        // "healthy" baseline (which would inflate the refresh threshold
        // for the whole sweep) — it rebuilds from B's values up front.
        let a = varying_laplacian(16, 0.0, 0.0);
        let b_mat = varying_laplacian(16, 2.0, 1.7);
        let solver = LinearSolver::new(SolverKind::IluBiCgStab);
        let mut prepared = solver.prepare(&a).unwrap();
        prepared.refactor(&b_mat).unwrap();
        let x_true: Vec<f64> = (0..b_mat.rows()).map(|i| (i as f64 * 0.19).sin()).collect();
        let (x, report) = prepared.solve(&b_mat.matvec(&x_true)).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-6);
        assert_eq!(
            prepared.ilu_rebuilds(),
            1,
            "unbaselined stale factors must be rebuilt before the solve \
             (took {} iterations)",
            report.iterations
        );
    }

    #[test]
    fn refactor_rejects_a_shape_change() {
        let a = laplacian_2d(5);
        let mut prepared = LinearSolver::default().prepare(&a).unwrap();
        let other = laplacian_2d(6);
        assert!(matches!(
            prepared.refactor(&other),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn prepared_solver_rejects_bad_rhs_lengths() {
        let a = laplacian_2d(4);
        let mut prepared = LinearSolver::default().prepare(&a).unwrap();
        assert!(matches!(
            prepared.solve(&[1.0, 2.0]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_rhs_is_rejected() {
        // A non-square matrix cannot be prepared, and a prepared solver
        // rejects a right-hand side of the wrong length even with a guess.
        let solver = LinearSolver::default();
        let wide = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            solver.prepare(&wide),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut prepared = solver.prepare(&laplacian_2d(4)).unwrap();
        assert!(matches!(
            prepared.solve_with_guess(&[1.0, 2.0], Some(&[0.0, 0.0])),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn injected_mid_sweep_breakdown_is_rescued_without_poisoning_later_points() {
        use std::sync::Arc;
        use vaem_parallel::faults::{FaultPlan, FaultStage};

        // A frequency-sweep-like loop: one prepared solver, refactored for
        // each point. The fault plan forces a Krylov breakdown at sweep
        // point 2 only; the prepared Auto chain must rescue that point with
        // the on-demand direct LU, and every later point must still match a
        // from-scratch reference solve.
        let plan = Arc::new(FaultPlan::parse("krylov@sscm:2").unwrap());
        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(50);
        let points: Vec<CsrMatrix<f64>> = (0..5)
            .map(|p| varying_laplacian(12, 0.2, 0.3 * p as f64))
            .collect();
        let x_true: Vec<f64> = (0..points[0].rows())
            .map(|i| (i as f64 * 0.13).sin())
            .collect();

        let mut prepared = solver.prepare(&points[0]).unwrap();
        assert_eq!(prepared.strategy(), "ilu0-bicgstab");
        for (p, a) in points.iter().enumerate() {
            let _guard = faults::scope(plan.clone(), FaultStage::Sscm, p, 0);
            if p > 0 {
                prepared.refactor(a).unwrap();
            }
            let b = a.matvec(&x_true);
            let (x, report) = prepared
                .solve(&b)
                .unwrap_or_else(|e| panic!("point {p} must survive the injected fault: {e}"));
            assert!(
                vecops::relative_diff(&x, &x_true, 1e-30) < 1e-6,
                "point {p} solution poisoned (report {report:?})"
            );
            if p == 2 {
                assert_eq!(
                    report.strategy, "sparse-lu",
                    "the injected breakdown must be answered by the direct rescue"
                );
            }
            // Cross-check against an independent direct solve, which no
            // `krylov` fault reaches.
            let (x_ref, _) = LinearSolver::new(SolverKind::DirectLu)
                .prepare(a)
                .unwrap()
                .solve(&b)
                .unwrap();
            assert!(
                vecops::relative_diff(&x, &x_ref, 1e-30) < 1e-6,
                "point {p} drifted from the reference after the rescue"
            );
        }
    }

    #[test]
    fn stale_donor_with_injected_rebuild_fault_escalates_instead_of_looping() {
        use std::sync::Arc;
        use vaem_parallel::faults::{FaultPlan, FaultStage};

        // A donated ILU(0) enters stale; a solve failure with stale factors
        // normally rebuilds once from the current values and retries. Here a
        // sticky `ilu` fault blocks every rebuild, so the chain must refuse
        // to loop on the stale donation and escalate through GMRES to the
        // direct rescue — still answering correctly.
        let nominal = varying_laplacian(20, 0.0, 0.0);
        let harsh = varying_laplacian(20, 2.6, 2.5);
        let tight = KrylovOptions {
            tolerance: 1e-12,
            max_iterations: 8,
            restart: 4,
        };
        let solver = LinearSolver::new(SolverKind::Auto)
            .with_direct_threshold(50)
            .with_options(tight);
        // The donor itself solves with generous options so its healthy
        // baseline (and the donation) comes from the iterative strategy.
        let donor_solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(50);
        let mut donor = donor_solver.prepare(&nominal).unwrap();
        let x_true: Vec<f64> = (0..nominal.rows())
            .map(|i| (i as f64 * 0.17).sin())
            .collect();
        let _ = donor.solve(&nominal.matvec(&x_true)).unwrap();
        let donation = donor.ilu_donor().expect("iterative strategy donates");

        let plan = Arc::new(FaultPlan::parse("ilu@sscm:0!").unwrap());
        let _guard = faults::scope(plan, FaultStage::Sscm, 0, 0);
        let mut seeded = solver
            .prepare_seeded_with(&harsh, None, Some(&donation))
            .unwrap();
        let b = harsh.matvec(&x_true);
        let (x, report) = seeded
            .solve(&b)
            .expect("the blocked rebuild must escalate, not fail the solve");
        assert!(
            vecops::relative_diff(&x, &x_true, 1e-30) < 1e-6,
            "escalated solve returned a bad iterate (report {report:?})"
        );
        assert_eq!(
            seeded.ilu_rebuilds(),
            0,
            "the injected fault must block every rebuild of the stale donation"
        );

        // Without the fault, the same stale donation refreshes exactly once
        // and answers iteratively — the non-looping baseline.
        drop(_guard);
        let mut refreshed = solver
            .prepare_seeded_with(&harsh, None, Some(&donation))
            .unwrap();
        let (xr, _) = refreshed.solve(&b).unwrap();
        assert!(vecops::relative_diff(&xr, &x_true, 1e-30) < 1e-6);
    }

    /// The per-column record both sides of a batch comparison produce: the
    /// solution bits, the report (residual as bits), and whether the column
    /// was reduced on the calling thread.
    type Column = (Vec<u64>, &'static str, usize, u64, bool);

    fn column_record(x: &[f64], report: &SolveReport, caller: std::thread::ThreadId) -> Column {
        (
            x.iter().map(|v| v.to_bits()).collect(),
            report.strategy,
            report.iterations,
            report.residual_norm.to_bits(),
            std::thread::current().id() == caller,
        )
    }

    /// Runs `columns` through `solve_batch_on` at 1, 2 and 4 threads and
    /// through a serial `solve` loop, each on a fresh solver from `make`,
    /// and asserts bit-identity of every solution entry and report, of the
    /// ILU rebuild count and of the final strategy. Returns the serial
    /// reports and whether any batched column ran on a worker thread.
    fn assert_batch_matches_serial(
        make: impl Fn() -> PreparedSolver<f64>,
        columns: &[Vec<f64>],
    ) -> (Vec<SolveReport>, bool) {
        let caller = std::thread::current().id();
        let mut serial = make();
        let mut reports = Vec::new();
        let expected: Vec<Column> = columns
            .iter()
            .map(|b| {
                let (x, report) = serial.solve(b).unwrap();
                let record = column_record(&x, &report, caller);
                reports.push(report);
                record
            })
            .collect();
        let mut fanned_out = false;
        for threads in [1, 2, 4] {
            let mut batched = make();
            let got: Vec<Column> = batched
                .solve_batch_on(
                    threads,
                    columns.len(),
                    |j, b| b.copy_from_slice(&columns[j]),
                    |_, x, report| Ok::<_, SparseError>(column_record(&x, &report, caller)),
                )
                .unwrap();
            for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    (&g.0, g.1, g.2, g.3),
                    (&e.0, e.1, e.2, e.3),
                    "column {j}, threads {threads}"
                );
                fanned_out |= !g.4;
            }
            assert_eq!(got.len(), expected.len());
            assert_eq!(
                batched.ilu_rebuilds(),
                serial.ilu_rebuilds(),
                "threads {threads}"
            );
            assert_eq!(batched.strategy(), serial.strategy(), "threads {threads}");
        }
        (reports, fanned_out)
    }

    fn rhs_columns(a: &CsrMatrix<f64>, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|k| {
                let x: Vec<f64> = (0..a.rows())
                    .map(|i| ((i * (k + 1)) as f64 * 0.07).sin())
                    .collect();
                a.matvec(&x)
            })
            .collect()
    }

    #[test]
    fn batched_solve_with_a_fresh_ilu_matches_the_serial_loop_bit_for_bit() {
        let a = varying_laplacian(16, 0.4, 0.3);
        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(50);
        let columns = rhs_columns(&a, 6);
        let (reports, fanned_out) =
            assert_batch_matches_serial(|| solver.prepare(&a).unwrap(), &columns);
        assert!(reports.iter().all(|r| r.strategy == "ilu0-bicgstab"));
        assert!(fanned_out, "the columns must fan out to worker threads");

        // The first failing reducer is the batch's error, as in the loop.
        let mut prepared = solver.prepare(&a).unwrap();
        let err = prepared
            .solve_batch_on(
                2,
                columns.len(),
                |j, b| b.copy_from_slice(&columns[j]),
                |j, _, _| match j {
                    0..=2 => Ok(j),
                    _ => Err(SparseError::ZeroPivot { index: j }),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, SparseError::ZeroPivot { index: 3 }),
            "{err:?}"
        );
    }

    #[test]
    fn batched_solve_keeps_a_mid_batch_ilu_refresh_of_a_stale_donation() {
        // A donated nominal ILU on a harsh sample enters stale. Zero
        // columns converge at iteration 0 and keep it; the first real
        // column degrades past the threshold, the policy rebuilds, and the
        // batch must finish the remaining columns as the loop does.
        let nominal = varying_laplacian(20, 0.0, 0.0);
        let harsh = varying_laplacian(20, 2.2, 2.5);
        let solver = LinearSolver::new(SolverKind::IluBiCgStab).with_options(KrylovOptions {
            max_iterations: 10_000,
            ..KrylovOptions::default()
        });
        let mut donor = solver.prepare(&nominal).unwrap();
        let _ = donor.solve(&rhs_columns(&nominal, 1)[0]).unwrap();
        let donation = donor.ilu_donor().unwrap();
        let mut columns = vec![vec![0.0; harsh.rows()]; 2];
        columns.extend(rhs_columns(&harsh, 4));
        let make = || {
            solver
                .prepare_seeded_with(&harsh, None, Some(&donation))
                .unwrap()
        };
        let (reports, _) = assert_batch_matches_serial(make, &columns);
        assert_eq!(reports[0].iterations, 0);
        let mut serial = make();
        for b in &columns[..2] {
            serial.solve(b).unwrap();
        }
        assert_eq!(
            serial.ilu_rebuilds(),
            0,
            "the zero columns keep the donation"
        );
        serial.solve(&columns[2]).unwrap();
        assert_eq!(serial.ilu_rebuilds(), 1, "column 2 retires the donation");
    }

    #[test]
    fn batched_solve_keeps_a_mid_batch_direct_rescue() {
        // One iteration at an unreachable tolerance: zero columns still
        // converge at iteration 0, the first real column fails BiCGSTAB and
        // GMRES and is rescued by the direct LU, which then answers every
        // later column.
        let a = laplacian_2d(25);
        let solver = LinearSolver::new(SolverKind::Auto).with_options(KrylovOptions {
            tolerance: 1e-16,
            max_iterations: 1,
            restart: 2,
        });
        let mut columns = vec![vec![0.0; a.rows()]; 3];
        columns.extend(rhs_columns(&a, 3));
        let (reports, _) = assert_batch_matches_serial(|| solver.prepare(&a).unwrap(), &columns);
        let strategies: Vec<&str> = reports.iter().map(|r| r.strategy).collect();
        assert_eq!(
            strategies,
            [
                "ilu0-bicgstab",
                "ilu0-bicgstab",
                "ilu0-bicgstab",
                "sparse-lu",
                "sparse-lu",
                "sparse-lu"
            ]
        );
    }

    #[test]
    fn batched_solve_under_an_armed_fault_scope_matches_the_serial_loop() {
        use std::sync::Arc;
        use vaem_parallel::faults::{FaultPlan, FaultStage};

        let a = varying_laplacian(14, 0.3, 0.9);
        let solver = LinearSolver::new(SolverKind::Auto).with_direct_threshold(50);
        let columns = rhs_columns(&a, 4);
        for (spec, strategy) in [
            ("krylov@sscm:0", "sparse-lu"),
            ("nan@sscm:0", "ilu0-bicgstab"),
        ] {
            let plan = Arc::new(FaultPlan::parse(spec).unwrap());
            let _guard = faults::scope(plan, FaultStage::Sscm, 0, 0);
            let (reports, fanned_out) =
                assert_batch_matches_serial(|| solver.prepare(&a).unwrap(), &columns);
            assert!(reports.iter().all(|r| r.strategy == strategy), "{spec}");
            assert!(!fanned_out, "{spec}: workers would miss the scope");
        }
    }
}
