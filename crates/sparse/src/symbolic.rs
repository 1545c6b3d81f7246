//! Symbolic/numeric split of the direct sparse LU.
//!
//! Workloads that factorize many matrices with one sparsity pattern
//! (Newton iterations, frequency sweeps, perturbed samples) only change the
//! *values*, so [`SymbolicLu`] caches everything that depends on the
//! pattern alone:
//!
//! * the approximate-minimum-degree ordering ([`crate::ordering::amd`]) and
//!   the column access of the permuted matrix,
//! * after the first numeric factorization: the pivot sequence, the full
//!   structural patterns of `L` and `U` and the supernode partition of the
//!   factor columns.
//!
//! Subsequent [`SymbolicLu::factor`] calls then pay only the numeric phase,
//! and that phase is **supernode-blocked**: runs of consecutive pivot
//! columns with identical sub-diagonal structure are eliminated through the
//! fused panel kernels of [`vaem_numeric::panel`] instead of one scalar
//! column update at a time. Per scatter target the fused kernel performs
//! the same floating-point operations in the same order as the scalar
//! elimination, so blocking changes throughput, never bits.
//!
//! A cached pivot that becomes numerically unstable for the new values
//! triggers a transparent fresh pivoting factorization (which also
//! refreshes the cached structure); the number of such fallbacks is counted
//! and surfaced through [`SymbolicLu::stale_fallback_count`].
//!
//! Variation-aware sweeps factorize many *perturbations of one nominal
//! matrix* on worker threads, so the pattern-derived state (ordering, column
//! map) and the recorded structure are both behind [`Arc`]s:
//! [`SymbolicLu::seed_from`] hands each worker its own handle onto the
//! donor's analysis and pivot structure for the cost of two reference-count
//! bumps, and the worker's first `factor` call is already numeric-only.
//! Every [`SparseLu`] holds the recorded structure by the same `Arc`, so a
//! refactorization allocates only its values and one scratch column. The
//! numeric refactorization eliminates in ascending pivot order — the exact
//! order the recording factorization used — so for the *same* values it
//! reproduces the donor's factors bit for bit, which is what keeps a seeded
//! sample sweep bit-identical to an unseeded one whenever the perturbed
//! pivots stay on the nominal sequence.

use crate::ordering;
use crate::{CsrMatrix, SparseError, SparseLu, SparsityPattern};
use std::sync::Arc;
use vaem_numeric::{panel, Scalar};

/// Relative pivot tolerance of the numeric-only refactorization: when the
/// cached pivot falls below this fraction of the magnitude of its column the
/// cached pivot sequence is considered stale and the factorization restarts
/// with fresh partial pivoting.
const REFACTOR_PIVOT_TOL: f64 = 1e-10;

/// The reusable symbolic phase of the sparse LU for one sparsity pattern.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, SparsityPattern, SymbolicLu};
/// let a = CsrMatrix::from_triplets(3, 3, &[
///     (0, 0, 2.0), (0, 1, 1.0),
///     (1, 0, -1.0), (1, 1, 3.0), (1, 2, 0.5),
///     (2, 1, 1.0), (2, 2, 4.0),
/// ]);
/// let mut symbolic = SymbolicLu::new(&SparsityPattern::of(&a))?;
/// let lu = symbolic.factor(&a)?; // full pivoting factorization
/// let x = lu.solve(&[1.0, 2.0, 3.0])?;
/// // Same pattern, new values: only the numeric phase runs.
/// let b = CsrMatrix::from_triplets(3, 3, &[
///     (0, 0, 4.0), (0, 1, -1.0),
///     (1, 0, 2.0), (1, 1, 5.0), (1, 2, 1.5),
///     (2, 1, -1.0), (2, 2, 2.0),
/// ]);
/// let lu_b = symbolic.factor(&b)?;
/// let y = lu_b.solve(&[1.0, 2.0, 3.0])?;
/// assert!(a.residual(&x, &[1.0, 2.0, 3.0]).iter().all(|r| r.abs() < 1e-10));
/// assert!(b.residual(&y, &[1.0, 2.0, 3.0]).iter().all(|r| r.abs() < 1e-10));
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    /// Pattern-derived analysis, shared (read-only) by every seeded clone.
    core: Arc<SymbolicCore>,
    /// Pivot sequence + factor patterns recorded by the first numeric
    /// factorization; `Arc`-shared so seeding a worker costs a refcount
    /// bump, replaced wholesale when a fallback re-pivots.
    structure: Option<Arc<LuStructure>>,
    /// How many times a cached pivot sequence went numerically stale and
    /// `factor` fell back to a fresh pivoting factorization.
    stale_fallbacks: u64,
}

/// The immutable pattern-only half of the analysis.
#[derive(Debug)]
struct SymbolicCore {
    n: usize,
    pattern: SparsityPattern,
    /// The AMD ordering, `perm[new] = old`.
    perm: Vec<usize>,
    /// Column access of the permuted matrix `Ap = A(p, p)`: per permuted
    /// column, the permuted row indices and the positions of the values in
    /// the CSR value array of the *unpermuted* matrix. Pattern-only, so it
    /// is valid for every matrix sharing the pattern.
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_src: Vec<usize>,
}

/// Structural output of one pivoting factorization, shared by every
/// [`SparseLu`] whose values were computed against it. Factor rows are in
/// pivot coordinates of the permuted matrix.
#[derive(Debug)]
pub(crate) struct LuStructure {
    /// `prow[k]` = original row chosen as the k-th pivot.
    pub(crate) prow: Vec<usize>,
    /// `perm[k]` = original column of pivot column `k` (the ordering).
    pub(crate) perm: Vec<usize>,
    /// `pinv[permuted row]` = pivot index.
    pinv: Vec<usize>,
    pub(crate) l_colptr: Vec<usize>,
    /// Strictly-lower rows per column, sorted ascending.
    pub(crate) l_rows: Vec<usize>,
    pub(crate) u_colptr: Vec<usize>,
    /// Upper rows per column, sorted ascending; the diagonal (`== column`)
    /// is therefore the last entry, and the off-diagonal entries walk the
    /// column's dependencies in ascending pivot order — which is exactly
    /// the elimination order both the recording factorization and the
    /// numeric refactorization use (ascending pivot index is always a
    /// valid topological order: a row of `L(:, k)` that later becomes
    /// pivotal gets a pivot index above `k`).
    pub(crate) u_rows: Vec<usize>,
    /// `sn_start[j]` = first column of the supernode containing column `j`.
    /// Supernodes are maximal runs of consecutive columns where each column
    /// `j` satisfies `L(:, j-1) = {j} ∪ L(:, j)` — identical sub-diagonal
    /// structure — so a run of members inside one supernode updates a
    /// target column through one fused dense panel.
    sn_start: Vec<usize>,
}

impl SymbolicLu {
    /// Analyzes a sparsity pattern: computes the AMD ordering
    /// ([`crate::ordering::amd`]) and builds the permuted column-access map.
    ///
    /// # Errors
    /// Returns [`SparseError::DimensionMismatch`] for a non-square pattern.
    pub fn new(pattern: &SparsityPattern) -> Result<Self, SparseError> {
        let n = pattern.rows();
        if pattern.cols() != n {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "symbolic LU requires a square pattern, got {}x{}",
                    n,
                    pattern.cols()
                ),
            });
        }
        let perm = ordering::amd(&pattern.zeros::<f64>());
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        // Bucket the CSR entries by permuted column.
        let row_ptr = pattern.row_ptr();
        let col_idx = pattern.col_idx();
        let mut col_ptr = vec![0usize; n + 1];
        for &c in col_idx {
            col_ptr[inv[c] + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr.clone();
        let mut col_rows = vec![0usize; col_idx.len()];
        let mut col_src = vec![0usize; col_idx.len()];
        for r in 0..n {
            for k in row_ptr[r]..row_ptr[r + 1] {
                let pc = inv[col_idx[k]];
                let dst = next[pc];
                col_rows[dst] = inv[r];
                col_src[dst] = k;
                next[pc] += 1;
            }
        }
        Ok(Self {
            core: Arc::new(SymbolicCore {
                n,
                pattern: pattern.clone(),
                perm,
                col_ptr,
                col_rows,
                col_src,
            }),
            structure: None,
            stale_fallbacks: 0,
        })
    }

    /// Convenience: analyzes the pattern of an assembled matrix.
    ///
    /// # Errors
    /// Same conditions as [`SymbolicLu::new`].
    pub fn analyze<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        Self::new(&SparsityPattern::of(a))
    }

    /// A cheap independent handle onto this analysis: the new `SymbolicLu`
    /// shares the (immutable) ordering, column map and — when already
    /// recorded — the pivot structure through `Arc`s, so the clone costs
    /// reference-count bumps instead of re-running the ordering and the
    /// first pivoting factorization.
    ///
    /// This is the cross-sample reuse path of the variation-aware sweeps:
    /// the nominal sample donates its symbolic phase and every perturbed
    /// sample (on its own worker thread) starts numeric-only. A seed whose
    /// pivots go stale for some perturbation re-pivots locally, replacing
    /// only its own structure handle; the donor and the other workers are
    /// unaffected. The stale-fallback counter of the new handle starts at
    /// zero.
    pub fn seed_from(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            structure: self.structure.clone(),
            stale_fallbacks: 0,
        }
    }

    /// Dimension of the analyzed pattern.
    pub fn dim(&self) -> usize {
        self.core.n
    }

    /// The fill-reducing ordering (`perm[new] = old`).
    pub fn ordering(&self) -> &[usize] {
        &self.core.perm
    }

    /// `true` once a factorization has recorded the pivot sequence, i.e.
    /// subsequent [`SymbolicLu::factor`] calls take the numeric-only path.
    pub fn has_structure(&self) -> bool {
        self.structure.is_some()
    }

    /// `true` when `a` has exactly the analyzed sparsity pattern, i.e.
    /// [`SymbolicLu::factor`] would accept it.
    pub fn matches<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        self.core.pattern.matches(a)
    }

    /// How many times a cached pivot sequence went numerically stale for
    /// the handed-in values and [`SymbolicLu::factor`] fell back to a fresh
    /// pivoting factorization. Seeded handles start at zero, so for a
    /// per-sample seed this counts exactly the samples' re-pivots.
    pub fn stale_fallback_count(&self) -> u64 {
        self.stale_fallbacks
    }

    /// Factorizes a matrix with the analyzed pattern.
    ///
    /// The first call runs the full pivoting factorization and records the
    /// pivot sequence and factor structure; later calls redo only the
    /// (supernode-blocked) numeric phase against that structure, restarting
    /// with fresh pivoting when a cached pivot becomes numerically unusable
    /// for the new values.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `a` does not have exactly
    ///   the analyzed pattern.
    /// * [`SparseError::ZeroPivot`] when the matrix is (numerically)
    ///   singular even under fresh pivoting.
    pub fn factor<T: Scalar>(&mut self, a: &CsrMatrix<T>) -> Result<SparseLu<T>, SparseError> {
        if !self.core.pattern.matches(a) {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "matrix ({}x{}, {} nnz) does not share the analyzed sparsity pattern \
                     ({}x{}, {} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    self.core.pattern.rows(),
                    self.core.pattern.cols(),
                    self.core.pattern.nnz()
                ),
            });
        }
        if let Some(structure) = &self.structure {
            match self.refactor_numeric(a, structure) {
                Ok(lu) => return Ok(lu),
                // Stale pivot sequence — fall through to a fresh pivoting
                // factorization, which also refreshes (this handle's)
                // structure; shared donors keep theirs.
                Err(_) => {
                    self.structure = None;
                    self.stale_fallbacks += 1;
                }
            }
        }
        self.factor_full(a)
    }

    /// Full left-looking Gilbert–Peierls factorization with partial pivoting
    /// on the permuted matrix; records the (unpruned) structural reach of
    /// every column so the numeric refactorization stays exact even when
    /// entries that cancelled here become non-zero later.
    ///
    /// The numeric elimination runs in ascending pivot order (a valid
    /// topological order of the column dependencies) and applies every
    /// update unconditionally — the same operation sequence the blocked
    /// refactorization replays, so a replay with identical values
    /// reproduces identical factor bits.
    fn factor_full<T: Scalar>(&mut self, a: &CsrMatrix<T>) -> Result<SparseLu<T>, SparseError> {
        let core = &*self.core;
        let n = core.n;
        let vals = a.values();

        let mut pinv = vec![usize::MAX; n];
        let mut prow = vec![usize::MAX; n];
        // L columns in *permuted* row indices during factorization.
        let mut l_colptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        // U columns in pivot coordinates.
        let mut u_colptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();

        let mut x = vec![T::zero(); n];
        let mut mark = vec![usize::MAX; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut pivotal: Vec<(usize, usize)> = Vec::new();
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for j in 0..n {
            // ---- symbolic: reach of Ap[:, j] through the L columns ----
            topo.clear();
            for t in core.col_ptr[j]..core.col_ptr[j + 1] {
                let row = core.col_rows[t];
                if mark[row] == j {
                    continue;
                }
                dfs_stack.push((row, 0));
                mark[row] = j;
                while let Some(&mut (node, ref mut child_pos)) = dfs_stack.last_mut() {
                    let k = pinv[node];
                    let children: &[usize] = if k == usize::MAX {
                        &[]
                    } else {
                        &l_rows[l_colptr[k]..l_colptr[k + 1]]
                    };
                    if *child_pos < children.len() {
                        let child = children[*child_pos];
                        *child_pos += 1;
                        if mark[child] != j {
                            mark[child] = j;
                            dfs_stack.push((child, 0));
                        }
                    } else {
                        topo.push(node);
                        dfs_stack.pop();
                    }
                }
            }

            // ---- numeric: sparse triangular solve, eliminating in
            // ascending pivot order ----
            for &r in &topo {
                x[r] = T::zero();
            }
            for t in core.col_ptr[j]..core.col_ptr[j + 1] {
                x[core.col_rows[t]] = vals[core.col_src[t]];
            }
            pivotal.clear();
            pivotal.extend(topo.iter().filter_map(|&r| {
                let k = pinv[r];
                (k != usize::MAX).then_some((k, r))
            }));
            pivotal.sort_unstable_by_key(|&(k, _)| k);
            for &(k, r) in &pivotal {
                let xr = x[r];
                for idx in l_colptr[k]..l_colptr[k + 1] {
                    x[l_rows[idx]] -= xr * l_vals[idx];
                }
            }

            // ---- pivot selection among non-pivotal rows ----
            let mut piv_row = usize::MAX;
            let mut piv_mag = 0.0_f64;
            for &r in &topo {
                if pinv[r] == usize::MAX {
                    let m = x[r].modulus();
                    if m > piv_mag {
                        piv_mag = m;
                        piv_row = r;
                    }
                }
            }
            if piv_row == usize::MAX || piv_mag == 0.0 {
                return Err(SparseError::ZeroPivot { index: j });
            }
            let piv_val = x[piv_row];

            // ---- store U[:, j] and L[:, j]; keep the whole reach, even
            // numerically zero entries, so the cached structure stays a
            // superset for any values on this pattern ----
            for &(k, r) in &pivotal {
                u_rows.push(k);
                u_vals.push(x[r]);
            }
            u_rows.push(j);
            u_vals.push(piv_val);
            u_colptr.push(u_rows.len());

            for &r in &topo {
                if pinv[r] == usize::MAX && r != piv_row {
                    l_rows.push(r);
                    l_vals.push(x[r] / piv_val);
                }
            }
            l_colptr.push(l_rows.len());

            pinv[piv_row] = j;
            prow[j] = piv_row;
        }

        // Remap L rows to pivot coordinates, then sort every factor column
        // ascending (the U diagonal lands last automatically) so the numeric
        // refactorization can zero/scatter in plain index order.
        for r in &mut l_rows {
            *r = pinv[*r];
        }
        for j in 0..n {
            sort_column(&mut l_rows, &mut l_vals, l_colptr[j], l_colptr[j + 1]);
            sort_column(&mut u_rows, &mut u_vals, u_colptr[j], u_colptr[j + 1]);
        }

        // ---- supernode partition: column j extends the supernode of
        // j−1 iff L(:, j−1) = {j} ∪ L(:, j) ----
        let mut sn_start = vec![0usize; n];
        for j in 1..n {
            let (plo, phi, chi) = (l_colptr[j - 1], l_colptr[j], l_colptr[j + 1]);
            let joins = phi > plo
                && phi - plo == chi - phi + 1
                && l_rows[plo] == j
                && l_rows[plo + 1..phi] == l_rows[phi..chi];
            sn_start[j] = if joins { sn_start[j - 1] } else { j };
        }

        // Pivot rows in original coordinates: permuted row r is row perm[r].
        for r in &mut prow {
            *r = core.perm[*r];
        }
        let structure = Arc::new(LuStructure {
            prow,
            perm: core.perm.clone(),
            pinv,
            l_colptr,
            l_rows,
            u_colptr,
            u_rows,
            sn_start,
        });
        self.structure = Some(Arc::clone(&structure));
        Ok(SparseLu::from_values(structure, l_vals, u_vals))
    }

    /// Numeric-only refactorization against a cached pivot sequence and
    /// factor structure: per column in ascending order, scatter, eliminate
    /// supernode runs in ascending pivot order through the fused panel
    /// kernels, divide — no reachability DFS, no sorting, no pivot search.
    /// Every column is a pure function of the matrix values and its
    /// finished dependencies, so for identical values the factor bits are
    /// identical to the recording factorization's.
    fn refactor_numeric<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        st: &Arc<LuStructure>,
    ) -> Result<SparseLu<T>, SparseError> {
        let core = &*self.core;
        let vals = a.values();
        let mut l_vals = vec![T::zero(); st.l_rows.len()];
        let mut u_vals = vec![T::zero(); st.u_rows.len()];
        let mut x = vec![T::zero(); core.n];
        for j in 0..core.n {
            refactor_column(core, st, vals, &mut x, &mut l_vals, &mut u_vals, j)
                .map_err(|index| SparseError::ZeroPivot { index })?;
        }
        Ok(SparseLu::from_values(Arc::clone(st), l_vals, u_vals))
    }
}

/// Factorizes one column of the numeric refactorization: zero the column's
/// pattern in the scratch `x`, scatter `Ap[:, j]`, eliminate the
/// dependencies in ascending pivot order — supernode runs through the fused
/// panel kernels, their intra-run updates scalar — then check the pivot and
/// divide `L`.
///
/// Every dependency of column `j` is a column `m < j`, whose `L` values sit
/// below `l_colptr[j]`: the finished columns are read through the shared
/// half of one split, and column `j` is written through the other. No
/// column reads another column's `U` values.
///
/// Per scatter target the fused tail pass subtracts the run members'
/// products one at a time in member order, i.e. the exact floating-point
/// sequence of a scalar member-by-member elimination, so the blocked column
/// is bit-identical to the scalar one (see [`vaem_numeric::panel`]).
///
/// Returns `Err(j)` when the cached pivot is numerically unusable.
fn refactor_column<T: Scalar>(
    core: &SymbolicCore,
    st: &LuStructure,
    avals: &[T],
    x: &mut [T],
    l_vals: &mut [T],
    u_vals: &mut [T],
    j: usize,
) -> Result<(), usize> {
    let (l_lo, l_hi) = (st.l_colptr[j], st.l_colptr[j + 1]);
    let (u_lo, u_hi) = (st.u_colptr[j], st.u_colptr[j + 1]);
    let (l_done, l_col) = l_vals.split_at_mut(l_lo);
    let l_col = &mut l_col[..l_hi - l_lo];
    let l_col_rows = &st.l_rows[l_lo..l_hi];
    let u_col = &mut u_vals[u_lo..u_hi];

    // The column pattern is exactly U[:, j] ∪ L[:, j] (the diagonal is the
    // last U entry); zero it, then scatter Ap[:, j]. Elimination only ever
    // writes inside the pattern (the recorded reach is closed), so stale
    // scratch entries outside it are never read.
    for &r in &st.u_rows[u_lo..u_hi] {
        x[r] = T::zero();
    }
    for &r in l_col_rows {
        x[r] = T::zero();
    }
    for t in core.col_ptr[j]..core.col_ptr[j + 1] {
        x[st.pinv[core.col_rows[t]]] = avals[core.col_src[t]];
    }

    // Eliminate the off-diagonal U entries (sorted ascending = elimination
    // order), grouped into maximal runs of consecutive columns within one
    // supernode.
    let off_hi = u_hi - u_lo - 1; // the diagonal sits at off_hi
    let mut idx = 0;
    while idx < off_hi {
        let k0 = st.u_rows[u_lo + idx];
        let mut run = 1usize;
        while idx + run < off_hi
            && st.u_rows[u_lo + idx + run] == k0 + run
            && st.sn_start[k0 + run] == st.sn_start[k0]
        {
            run += 1;
        }
        let k1 = k0 + run - 1;
        // Inside the supernode, L(:, m) = {m+1, …, k1} ∪ L(:, k1): the
        // first (k1 − m) entries are the intra-run rows, the remaining
        // `tail_len` entries align element-for-element with L(:, k1).
        let tail_len = st.l_colptr[k1 + 1] - st.l_colptr[k1];
        for (off, m) in (k0..=k1).enumerate() {
            let xm = x[m];
            u_col[idx + off] = xm;
            let intra = st.l_colptr[m]..st.l_colptr[m] + (k1 - m);
            for (&r, &lval) in st.l_rows[intra.clone()].iter().zip(&l_done[intra]) {
                x[r] -= xm * lval;
            }
        }
        if tail_len > 0 {
            let rows = &st.l_rows[st.l_colptr[k1]..st.l_colptr[k1 + 1]];
            let mut m = k0;
            while m <= k1 {
                let w = (k1 - m + 1).min(4);
                let mut coeffs = [T::zero(); 4];
                let mut cols: [&[T]; 4] = [&[]; 4];
                for i in 0..w {
                    // x[m + i] still holds the recorded U value: only
                    // intra-run updates touch it, and they all happened in
                    // the member loop above.
                    coeffs[i] = x[m + i];
                    let lo = st.l_colptr[m + i + 1] - tail_len;
                    cols[i] = &l_done[lo..lo + tail_len];
                }
                panel::scatter_fused_sub(x, rows, &coeffs[..w], &cols[..w]);
                m += w;
            }
        }
        idx += run;
    }

    // Pivot check and division of L.
    let piv = x[j];
    let mut colmax = piv.modulus();
    for &r in l_col_rows {
        colmax = colmax.max(x[r].modulus());
    }
    if piv.modulus() == 0.0 || piv.modulus() < REFACTOR_PIVOT_TOL * colmax {
        return Err(j);
    }
    u_col[off_hi] = piv;
    for (l, &r) in l_col.iter_mut().zip(l_col_rows) {
        *l = x[r] / piv;
    }
    Ok(())
}

/// Sorts the `(row, value)` pairs of one factor column by row index.
fn sort_column<T: Scalar>(rows: &mut [usize], vals: &mut [T], lo: usize, hi: usize) {
    if hi - lo < 2 {
        return;
    }
    let mut pairs: Vec<(usize, T)> = (lo..hi).map(|i| (rows[i], vals[i])).collect();
    pairs.sort_unstable_by_key(|&(r, _)| r);
    for (off, (r, v)) in pairs.into_iter().enumerate() {
        rows[lo + off] = r;
        vals[lo + off] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assemble_into, natural_order_solve};
    use vaem_numeric::{vecops, Complex64};

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

    /// Rebuilds the laplacian with shifted values on the identical pattern.
    fn shifted_laplacian(nx: usize, shift: f64) -> CsrMatrix<f64> {
        let mut a = laplacian_2d(nx);
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..a.rows() {
            for (c, v) in a.row_entries(r) {
                let v = if r == c {
                    v + shift
                } else {
                    v * (1.0 + shift * 0.1)
                };
                triplets.push((r, c, v));
            }
        }
        assemble_into(&mut a, &triplets).unwrap();
        a
    }

    #[test]
    fn first_factorization_matches_plain_sparse_lu() {
        let a = laplacian_2d(9);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.21).sin()).collect();
        let b = a.matvec(&x_true);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        assert!(!sym.has_structure());
        let lu = sym.factor(&a).unwrap();
        assert!(sym.has_structure());
        let x = lu.solve(&b).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
        let reference = natural_order_solve(&a, &b).unwrap();
        assert!(vecops::relative_diff(&x, &reference, 1e-30) < 1e-10);
    }

    #[test]
    fn numeric_refactorization_matches_from_scratch_factorization() {
        let a = laplacian_2d(8);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        sym.factor(&a).unwrap();
        for shift in [0.5, -0.25, 3.0] {
            let b_mat = shifted_laplacian(8, shift);
            let lu = sym.factor(&b_mat).unwrap();
            assert!(sym.has_structure(), "shift {shift} fell back to full");
            let x_true: Vec<f64> = (0..b_mat.rows()).map(|i| (i as f64 * 0.4).cos()).collect();
            let rhs = b_mat.matvec(&x_true);
            let x = lu.solve(&rhs).unwrap();
            let fresh = natural_order_solve(&b_mat, &rhs).unwrap();
            assert!(
                vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10,
                "shift {shift}"
            );
            assert!(
                vecops::relative_diff(&x, &fresh, 1e-30) < 1e-10,
                "shift {shift}"
            );
        }
    }

    #[test]
    fn entries_cancelling_in_the_first_factorization_survive_refactor() {
        // AMD keeps this tridiagonal pattern in its natural order. In the
        // first matrix the update (1/2)·2 cancels A[1,1] = 1 exactly, so
        // L gets an exact zero where a value-pruned structure would drop
        // the position; the second matrix needs it. The refactorization
        // must stay exact.
        let t1 = [
            (0usize, 0usize, 2.0),
            (0, 1, 2.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
        ];
        let a = CsrMatrix::from_triplets(3, 3, &t1);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        assert_eq!(sym.ordering(), [0, 1, 2]);
        let first = sym.factor(&a).unwrap();
        assert_eq!(first.l_values(), [0.5, 0.0]);
        let t2 = [
            (0usize, 0usize, 2.0),
            (0, 1, 2.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
        ];
        let b_mat = CsrMatrix::from_triplets(3, 3, &t2);
        let lu = sym.factor(&b_mat).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let rhs = b_mat.matvec(&x_true);
        let x = lu.solve(&rhs).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
    }

    #[test]
    fn complex_refactorization_round_trips() {
        let n = 40;
        let build = |phase: f64| {
            let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
            for i in 0..n {
                t.push((i, i, Complex64::new(3.0, phase)));
                if i > 0 {
                    t.push((i, i - 1, Complex64::new(-1.0, 0.3 * phase)));
                }
                if i + 1 < n {
                    t.push((i, i + 1, Complex64::new(-0.7, -0.2)));
                }
                if i + 6 < n {
                    t.push((i, i + 6, Complex64::new(0.2, 0.1 * phase)));
                }
            }
            CsrMatrix::from_triplets(n, n, &t)
        };
        let a = build(1.0);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        sym.factor(&a).unwrap();
        let b_mat = build(2.5);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.15).sin()))
            .collect();
        let rhs = b_mat.matvec(&x_true);
        let x = sym.factor(&b_mat).unwrap().solve(&rhs).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-9);
    }

    #[test]
    fn stale_pivot_sequence_triggers_a_fresh_factorization() {
        // First factor a diagonally dominant matrix, then hand in values
        // that zero the previously chosen pivots; factor() must transparently
        // re-pivot and still produce an accurate factorization.
        let t1 = [
            (0usize, 0usize, 10.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 10.0),
        ];
        let a = CsrMatrix::from_triplets(2, 2, &t1);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        sym.factor(&a).unwrap();
        let t2 = [(0usize, 0usize, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0)];
        let b_mat = CsrMatrix::from_triplets(2, 2, &t2);
        let lu = sym.factor(&b_mat).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_pattern_is_rejected() {
        let a = laplacian_2d(4);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        let other = laplacian_2d(5);
        assert!(matches!(
            sym.factor(&other),
            Err(SparseError::DimensionMismatch { .. })
        ));
        // Same shape, different pattern.
        let dense_row = CsrMatrix::from_triplets(
            a.rows(),
            a.cols(),
            &(0..a.cols())
                .map(|c| (0usize, c, 1.0))
                .chain((1..a.rows()).map(|r| (r, r, 1.0)))
                .collect::<Vec<_>>(),
        );
        assert!(matches!(
            sym.factor(&dense_row),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn singular_matrix_reports_zero_pivot() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 0.0), (1, 1, 0.0)]);
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        assert!(matches!(sym.factor(&a), Err(SparseError::ZeroPivot { .. })));
    }

    #[test]
    fn seeded_handle_is_numeric_only_and_bitwise_matches_the_donor() {
        let a = laplacian_2d(8);
        let mut donor = SymbolicLu::analyze(&a).unwrap();
        let donor_lu = donor.factor(&a).unwrap();
        // Seeding shares the recorded structure: the clone starts with the
        // numeric-only path available and a fresh fallback counter.
        let mut seeded = donor.seed_from();
        assert!(seeded.has_structure());
        assert_eq!(seeded.stale_fallback_count(), 0);
        assert!(seeded.matches(&a));
        // Same values through the seeded handle reproduce the donor's
        // factorization bit for bit (the refactorization replays the
        // recorded elimination order).
        let rhs: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.31).sin()).collect();
        let x_donor = donor_lu.solve(&rhs).unwrap();
        let x_seeded = seeded.factor(&a).unwrap().solve(&rhs).unwrap();
        let donor_bits: Vec<u64> = x_donor.iter().map(|v| v.to_bits()).collect();
        let seeded_bits: Vec<u64> = x_seeded.iter().map(|v| v.to_bits()).collect();
        assert_eq!(donor_bits, seeded_bits);
        // Perturbed values still solve accurately through the seed.
        let b_mat = shifted_laplacian(8, 0.75);
        let x_true: Vec<f64> = (0..b_mat.rows()).map(|i| (i as f64 * 0.12).cos()).collect();
        let b_rhs = b_mat.matvec(&x_true);
        let x = seeded.factor(&b_mat).unwrap().solve(&b_rhs).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-10);
        assert_eq!(seeded.stale_fallback_count(), 0);
    }

    #[test]
    fn numeric_refactorization_of_identical_values_is_bitwise_stable() {
        // factor() twice on the same matrix: the second call replays the
        // recorded elimination order (ascending pivots, supernode-blocked)
        // and must reproduce the first (full, pivoting) factorization's
        // solve bits exactly.
        let a = laplacian_2d(11);
        let rhs: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut sym = SymbolicLu::analyze(&a).unwrap();
        let full = sym.factor(&a).unwrap().solve(&rhs).unwrap();
        let replay = sym.factor(&a).unwrap().solve(&rhs).unwrap();
        assert_eq!(
            full.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            replay.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn seeded_refactorization_of_singular_values_reports_the_zero_pivot() {
        let a = laplacian_2d(16);
        let mut donor = SymbolicLu::analyze(&a).unwrap();
        donor.factor(&a).unwrap();
        // Zero out the matrix: every cached pivot is numerically unusable,
        // so the seeded handle falls back once and the fresh pivoting
        // factorization reports the singularity.
        let zeros: Vec<(usize, usize, f64)> = (0..a.rows())
            .flat_map(|r| {
                a.row_entries(r)
                    .map(move |(c, _)| (r, c, 0.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut z = laplacian_2d(16);
        assemble_into(&mut z, &zeros).unwrap();
        let mut seeded = donor.seed_from();
        assert!(matches!(
            seeded.factor(&z),
            Err(SparseError::ZeroPivot { .. })
        ));
        assert_eq!(seeded.stale_fallback_count(), 1);
    }

    #[test]
    fn stale_seed_falls_back_locally_and_counts_it() {
        let t1 = [
            (0usize, 0usize, 10.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 10.0),
        ];
        let a = CsrMatrix::from_triplets(2, 2, &t1);
        let mut donor = SymbolicLu::analyze(&a).unwrap();
        donor.factor(&a).unwrap();
        let mut seeded = donor.seed_from();
        // Values that zero the donor's pivots: the seeded handle re-pivots
        // locally (counted), the donor's structure is untouched.
        let t2 = [(0usize, 0usize, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0)];
        let b_mat = CsrMatrix::from_triplets(2, 2, &t2);
        let x = seeded.factor(&b_mat).unwrap().solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
        assert_eq!(seeded.stale_fallback_count(), 1);
        assert_eq!(donor.stale_fallback_count(), 0);
        // The donor still factors its own matrix numerically afterwards.
        donor.factor(&a).unwrap();
        assert_eq!(donor.stale_fallback_count(), 0);
    }

    #[test]
    fn selected_ordering_is_a_permutation() {
        let a = laplacian_2d(6);
        let sym = SymbolicLu::analyze(&a).unwrap();
        let mut sorted = sym.ordering().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.rows()).collect::<Vec<_>>());
        assert_eq!(sym.dim(), a.rows());
    }
}
