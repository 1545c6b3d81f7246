//! Fill-reducing / bandwidth-reducing orderings.
//!
//! The structured FVM grids produce matrices whose natural ordering is
//! already banded, but the coupled multi-field numbering (V, n, p blocks)
//! benefits from a fill-reducing pass before ILU(0) or the direct LU. Two
//! orderings are provided — reverse Cuthill–McKee ([`rcm`], profile
//! reduction) and approximate minimum degree ([`amd`], fill reduction) —
//! plus an exact symbolic-Cholesky fill predictor ([`predicted_fill`]) that
//! lets `SymbolicLu` pick the cheaper of the two per pattern.

use crate::CsrMatrix;
use vaem_numeric::Scalar;

/// Which fill-reducing ordering a symbolic analysis selected for a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingKind {
    /// Reverse Cuthill–McKee: bandwidth/profile reduction ([`rcm`]).
    Rcm,
    /// Approximate minimum degree: fill reduction ([`amd`]).
    Amd,
}

/// Computes a reverse Cuthill–McKee ordering of the symmetrized pattern of
/// `a` and returns a permutation `perm` with `perm[new] = old`.
///
/// The ordering reduces the bandwidth/profile, which improves the quality of
/// ILU(0) and the fill of the direct sparse LU.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, rcm};
/// // An "arrow" matrix: node 0 connected to everyone (worst case for banding).
/// let mut t = vec![(0usize, 0usize, 1.0)];
/// for i in 1..6 {
///     t.push((i, i, 1.0));
///     t.push((0, i, 1.0));
///     t.push((i, 0, 1.0));
/// }
/// let a = CsrMatrix::from_triplets(6, 6, &t);
/// let perm = rcm(&a);
/// // The result is a permutation of all node indices.
/// let mut sorted = perm.clone();
/// sorted.sort();
/// assert_eq!(sorted, (0..6).collect::<Vec<_>>());
/// // RCM starts the reversed order away from the high-degree hub.
/// assert_ne!(perm[perm.len() - 1], 0);
/// ```
pub fn rcm<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    let n = a.rows();
    // Build the symmetrized adjacency (pattern of A + Aᵀ, excluding the diagonal).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for (c, _) in a.row_entries(r) {
            if c != r && c < n {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();

    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();

    loop {
        // Pick the unvisited node of minimum degree as the next component seed.
        let seed = (0..n).filter(|&i| !visited[i]).min_by_key(|&i| degree[i]);
        let seed = match seed {
            Some(s) => s,
            None => break,
        };
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut neighbours: Vec<usize> =
                adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            neighbours.sort_by_key(|&v| degree[v]);
            for v in neighbours {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }

    order.reverse();
    order
}

/// Computes an approximate-minimum-degree (AMD) ordering of the symmetrized
/// pattern of `a` and returns a permutation `perm` with `perm[new] = old`.
///
/// The classic quotient-graph formulation: eliminating a variable replaces
/// its clique of neighbours by one *element*; the degree of a remaining
/// variable is approximated from its still-explicit edges plus the unions
/// of its adjacent elements, with absorbed elements dropped lazily. Ties in
/// the minimum degree are broken by the smaller node index and every data
/// structure iterates in deterministic order, so the ordering is a pure
/// function of the pattern — a requirement for the seeded factorization
/// donors, which must replay the exact same ordering on every worker.
///
/// On the FVM meshes AMD trades RCM's banded profile for substantially less
/// factor fill once the mesh is three-dimensional enough that the bandwidth
/// itself grows superlinearly; [`predicted_fill`] quantifies the trade per
/// pattern.
pub fn amd<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    let n = a.rows();
    // Symmetrized off-diagonal adjacency, deduplicated and sorted.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for (c, _) in a.row_entries(r) {
            if c != r && c < n {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }

    // Quotient-graph state. An element is named after the pivot variable
    // whose elimination created it; `elem_nodes[e]` is its live variable
    // set. Invariant: a live element contains only live variables, because
    // eliminating a variable absorbs every element adjacent to it.
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_nodes: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_alive = vec![false; n];
    let mut var_alive = vec![true; n];
    let mut degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();

    // Lazy min-heap: stale (degree, node) entries are skipped on pop.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((degree[v], v))).collect();

    let mut order: Vec<usize> = Vec::with_capacity(n);
    // Per-pivot scratch, stamped by elimination step to avoid clearing.
    let mut mark = vec![usize::MAX; n];
    let mut w = vec![0usize; n]; // |Le \ Lp| counters per element
    let mut w_stamp = vec![usize::MAX; n];
    let mut lp: Vec<usize> = Vec::new();

    while let Some(Reverse((d, v))) = heap.pop() {
        if !var_alive[v] || d != degree[v] {
            continue; // stale heap entry
        }
        let stamp = order.len();
        order.push(v);
        var_alive[v] = false;
        mark[v] = stamp;

        // Lp: the pivot element's variable set — v's explicit neighbours
        // plus the members of v's elements, minus v itself.
        lp.clear();
        for &u in &adj[v] {
            if var_alive[u] && mark[u] != stamp {
                mark[u] = stamp;
                lp.push(u);
            }
        }
        for &e in &elems[v] {
            if elem_alive[e] {
                for &u in &elem_nodes[e] {
                    if mark[u] != stamp {
                        mark[u] = stamp;
                        lp.push(u);
                    }
                }
                // Absorbed into the new pivot element.
                elem_alive[e] = false;
                elem_nodes[e] = Vec::new();
            }
        }

        // One pass computing w(e) = |Le \ Lp| for every element adjacent to
        // Lp: initialize to |Le| on first touch, decrement per Lp member.
        for &u in &lp {
            for &e in &elems[u] {
                if elem_alive[e] {
                    if w_stamp[e] != stamp {
                        w_stamp[e] = stamp;
                        w[e] = elem_nodes[e].len();
                    }
                    w[e] -= 1;
                }
            }
        }

        // Update every member of Lp: prune explicit edges now covered by
        // the pivot element, refresh the element list, approximate the new
        // external degree.
        let remaining = n - order.len();
        for &u in &lp {
            adj[u].retain(|&t| var_alive[t] && mark[t] != stamp);
            let mut esum = 0usize;
            elems[u].retain(|&e| {
                if !elem_alive[e] {
                    return false;
                }
                if w[e] == 0 && w_stamp[e] == stamp {
                    // Le ⊆ Lp: the element is absorbed by the pivot.
                    elem_alive[e] = false;
                    elem_nodes[e] = Vec::new();
                    return false;
                }
                esum += w[e];
                true
            });
            elems[u].push(v);
            let lp_minus = lp.len() - 1;
            let d_new = (degree[u] + lp_minus)
                .min(adj[u].len() + lp_minus + esum)
                .min(remaining.saturating_sub(1));
            degree[u] = d_new;
            heap.push(Reverse((d_new, u)));
        }

        elem_nodes[v] = lp.clone();
        elem_alive[v] = !lp.is_empty();
    }
    order
}

/// Exact factor size `nnz(L)` (diagonal included) of the symbolic Cholesky
/// factorization of the symmetrized pattern of `a` under the ordering
/// `perm` (`perm[new] = old`) — the fill predictor `SymbolicLu` uses to
/// choose between [`rcm`] and [`amd`] per pattern.
///
/// Uses Liu's elimination-tree characterization: `L(i, k) ≠ 0` iff `k` lies
/// on the tree path from some `j` with `A(i, j) ≠ 0, j < i` up to `i`. The
/// tree is built incrementally and each row's subtree is walked once via
/// the parent links with per-row visit marks, so the whole count costs
/// `O(nnz(L) + nnz(A))` — each counted entry is one climb step. For the
/// pivoting LU the number is a prediction, not a guarantee — off-diagonal
/// pivoting adds fill the Cholesky model does not see — but the *relative*
/// comparison between two orderings of one pattern is what drives the
/// selection.
///
/// # Panics
/// Panics when `perm` is not a permutation of `0..a.rows()`.
pub fn predicted_fill<T: Scalar>(a: &CsrMatrix<T>, perm: &[usize]) -> usize {
    let n = a.rows();
    assert_eq!(perm.len(), n, "predicted_fill: permutation length");
    let mut inv = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    assert!(
        inv.iter().all(|&p| p != usize::MAX),
        "predicted_fill: perm is not a permutation"
    );
    // Strictly-lower symmetrized adjacency in permuted coordinates:
    // `lower[i]` holds the columns j < i of row i (duplicates are fine —
    // the second visit stops at the row marker).
    let mut lower: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for (c, _) in a.row_entries(r) {
            if c != r && c < n {
                let (pr, pc) = (inv[r], inv[c]);
                let (hi, lo) = if pr > pc { (pr, pc) } else { (pc, pr) };
                lower[hi].push(lo);
            }
        }
    }

    let mut parent = vec![usize::MAX; n];
    let mut visited = vec![usize::MAX; n];
    let mut nnz = n; // the diagonal
    for i in 0..n {
        visited[i] = i;
        for &j in &lower[i] {
            // Climb from j towards i along the (incrementally built) tree;
            // every first-visited node k contributes the entry L(i, k).
            let mut k = j;
            while visited[k] != i {
                visited[k] = i;
                nnz += 1;
                if parent[k] == usize::MAX {
                    parent[k] = i;
                    break;
                }
                k = parent[k];
            }
        }
    }
    nnz
}

/// Computes the bandwidth of a square matrix (maximum |i − j| over stored
/// entries); used to verify that an ordering actually helps.
pub fn bandwidth<T: Scalar>(a: &CsrMatrix<T>) -> usize {
    let mut bw = 0usize;
    for r in 0..a.rows() {
        for (c, _) in a.row_entries(r) {
            bw = bw.max(r.abs_diff(c));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-D grid Laplacian with a deliberately bad (random-ish) numbering.
    fn scrambled_grid(nx: usize) -> CsrMatrix<f64> {
        let n = nx * nx;
        // Scramble node numbering with a simple multiplicative permutation.
        let scramble = |i: usize| (i * 7 + 3) % n;
        let idx = |i: usize, j: usize| scramble(i * nx + j);
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                let me = idx(i, j);
                t.push((me, me, 4.0));
                if i > 0 {
                    t.push((me, idx(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    t.push((me, idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((me, idx(i, j - 1), -1.0));
                }
                if j + 1 < nx {
                    t.push((me, idx(i, j + 1), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = scrambled_grid(7);
        let perm = rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.rows()).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_grid() {
        let a = scrambled_grid(9);
        let before = bandwidth(&a);
        let perm = rcm(&a);
        let b = a.permute_symmetric(&perm);
        let after = bandwidth(&b);
        assert!(
            after < before,
            "bandwidth should shrink: {after} vs {before}"
        );
    }

    #[test]
    fn handles_disconnected_components() {
        // Two decoupled 2x2 blocks.
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        );
        let perm = rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_pattern_matrix_still_permutes() {
        let a = CsrMatrix::<f64>::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let perm = rcm(&a);
        assert_eq!(perm.len(), 3);
    }

    /// 3-D 7-point grid Laplacian — the pattern class of the FVM systems.
    fn grid_3d(nx: usize) -> CsrMatrix<f64> {
        let n = nx * nx * nx;
        let idx = |i: usize, j: usize, k: usize| (i * nx + j) * nx + k;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                for k in 0..nx {
                    let me = idx(i, j, k);
                    t.push((me, me, 6.0));
                    let mut link = |other: usize| t.push((me, other, -1.0));
                    if i > 0 {
                        link(idx(i - 1, j, k));
                    }
                    if i + 1 < nx {
                        link(idx(i + 1, j, k));
                    }
                    if j > 0 {
                        link(idx(i, j - 1, k));
                    }
                    if j + 1 < nx {
                        link(idx(i, j + 1, k));
                    }
                    if k > 0 {
                        link(idx(i, j, k - 1));
                    }
                    if k + 1 < nx {
                        link(idx(i, j, k + 1));
                    }
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn amd_is_a_permutation() {
        for a in [scrambled_grid(9), grid_3d(5)] {
            let perm = amd(&a);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..a.rows()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn amd_handles_disconnected_and_diagonal_patterns() {
        let diag = CsrMatrix::<f64>::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let mut perm = amd(&diag);
        perm.sort_unstable();
        assert_eq!(perm, vec![0, 1, 2]);
        let blocks = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        );
        let mut perm = amd(&blocks);
        perm.sort_unstable();
        assert_eq!(perm, vec![0, 1, 2, 3]);
    }

    #[test]
    fn amd_is_deterministic() {
        let a = grid_3d(4);
        assert_eq!(amd(&a), amd(&a));
    }

    #[test]
    fn predicted_fill_is_exact_on_a_tridiagonal_chain() {
        // A chain has no fill at all in its natural order: nnz(L) = 2n − 1.
        let n = 17;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let identity: Vec<usize> = (0..n).collect();
        assert_eq!(predicted_fill(&a, &identity), 2 * n - 1);
        // Eliminating the chain from both ends inward is also fill-free.
        let reversed: Vec<usize> = (0..n).rev().collect();
        assert_eq!(predicted_fill(&a, &reversed), 2 * n - 1);
    }

    #[test]
    fn predicted_fill_sees_the_arrow_matrix_trap() {
        // Arrow matrix: hub first = dense factor, hub last = no fill.
        let n = 12;
        let mut t = vec![(0usize, 0usize, 1.0)];
        for i in 1..n {
            t.push((i, i, 1.0));
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let hub_first: Vec<usize> = (0..n).collect();
        let hub_last: Vec<usize> = (1..n).chain(std::iter::once(0)).collect();
        assert_eq!(predicted_fill(&a, &hub_first), n * (n + 1) / 2);
        assert_eq!(predicted_fill(&a, &hub_last), 2 * n - 1);
        // AMD finds the fill-free end of that trade-off.
        let amd_perm = amd(&a);
        assert_eq!(predicted_fill(&a, &amd_perm), 2 * n - 1);
    }

    #[test]
    fn amd_predicts_less_fill_than_rcm_on_a_3d_grid() {
        let a = grid_3d(6);
        let fill_rcm = predicted_fill(&a, &rcm(&a));
        let fill_amd = predicted_fill(&a, &amd(&a));
        assert!(
            fill_amd < fill_rcm,
            "AMD should out-order RCM on a 3-D mesh: {fill_amd} vs {fill_rcm}"
        );
    }
}
