//! The fill-reducing ordering of the direct LU.
//!
//! [`crate::SymbolicLu`] permutes every pattern symmetrically by
//! approximate minimum degree ([`amd`]) before its first pivoting
//! factorization. On the FVM meshes, single-via and array alike, AMD
//! leaves less fill than reverse Cuthill–McKee, so it is the only
//! ordering.

use crate::CsrMatrix;
use vaem_numeric::Scalar;

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
    fn amd_factors_the_arrow_matrix_without_fill() {
        // Arrow matrix: eliminating the hub first fills the whole factor,
        // eliminating it last fills nothing. AMD takes the fill-free end,
        // so the factor holds exactly the matrix's 3n − 2 entries: 2n − 1
        // in L with its unit diagonal and 2n − 1 in U.
        let n = 12;
        let mut t = vec![(0usize, 0usize, 4.0 * n as f64)];
        for i in 1..n {
            t.push((i, i, 4.0));
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let lu = crate::SymbolicLu::analyze(&a).unwrap().factor(&a).unwrap();
        assert_eq!(lu.factor_nnz(), 3 * n - 2);
    }
}
