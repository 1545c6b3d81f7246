//! Test-only helpers: random systems and `to_bits` comparisons for the
//! bit-identity tests of the Krylov kernels, the natural-order reference LU
//! the direct-path tests compare against, and triplet re-assembly into a
//! fixed pattern.

use crate::{CsrMatrix, SparseError};
use vaem_numeric::{Complex64, Scalar};

/// A scalar whose bit pattern a test can compare.
pub(crate) trait Bits: Scalar {
    /// The `to_bits` of every real part of the value.
    fn push_bits(self, out: &mut Vec<u64>);
}

impl Bits for f64 {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl Bits for Complex64 {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.re.to_bits());
        out.push(self.im.to_bits());
    }
}

/// The bit patterns of a vector, for exact comparisons.
pub(crate) fn bits<T: Bits>(x: &[T]) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 * x.len());
    for &v in x {
        v.push_bits(&mut out);
    }
    out
}

/// A random diagonally dominant `n × n` system: a structural diagonal plus
/// up to four random off-diagonal entries per row. Every third row reads
/// only columns to its right, so the pattern always has rows without lower
/// entries. `value(re, im)` turns two numbers into a scalar; the
/// off-diagonal ones are drawn from [−1, 1).
pub(crate) fn random_system<T: Scalar>(
    n: usize,
    seed: u64,
    value: impl Fn(f64, f64) -> T,
) -> CsrMatrix<T> {
    // splitmix64
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut unit = || (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    let mut triplets = Vec::new();
    for i in 0..n {
        let mut off_sum = 0.0;
        for _ in 0..4 {
            let pick = (unit() + 1.0) / 2.0;
            let c = if i % 3 == 0 {
                if i + 1 == n {
                    continue;
                }
                i + 1 + (pick * (n - i - 1) as f64) as usize
            } else {
                (pick * n as f64) as usize
            };
            if c == i || c >= n {
                continue;
            }
            let v = value(unit(), unit());
            off_sum += v.modulus();
            triplets.push((i, c, v));
        }
        triplets.push((i, i, value(off_sum + 1.0, 0.5)));
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Solves `a·x = b` with the reference LU: a left-looking (Gilbert–Peierls
/// style) factorization with partial pivoting in the natural order, a
/// scalar column kernel, a full pivot search per column and value-pruned
/// factors. It shares no code with [`crate::SymbolicLu`], whose
/// factorizations the tests check against it.
pub(crate) fn natural_order_solve<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
) -> Result<Vec<T>, SparseError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "reference LU needs a square matrix");
    assert_eq!(b.len(), n, "reference LU: rhs length");
    // Column access: row r of Aᵀ is column r of A.
    let at = a.transpose();

    // pinv[orig_row] = pivot index, or usize::MAX if not yet pivotal.
    let mut pinv = vec![usize::MAX; n];
    let mut prow = vec![usize::MAX; n];

    // L columns in *original* row indices during factorization.
    let mut l_colptr = vec![0usize];
    let mut l_rows: Vec<usize> = Vec::new();
    let mut l_vals: Vec<T> = Vec::new();
    // U columns in pivot coordinates.
    let mut u_colptr = vec![0usize];
    let mut u_rows: Vec<usize> = Vec::new();
    let mut u_vals: Vec<T> = Vec::new();

    // Work arrays.
    let mut x = vec![T::zero(); n]; // dense accumulator indexed by original row
    let mut mark = vec![usize::MAX; n]; // visitation stamp per original row
    let mut topo: Vec<usize> = Vec::with_capacity(n); // reverse postorder (original rows)
    let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

    for j in 0..n {
        // ---- symbolic: find the pattern reachable from A[:, j] ----
        topo.clear();
        for (orig_row, _) in at.row_entries(j) {
            if mark[orig_row] == j {
                continue;
            }
            // Iterative DFS producing a postorder.
            dfs_stack.push((orig_row, 0));
            mark[orig_row] = j;
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
        // Reverse postorder = topological order of dependencies.
        topo.reverse();

        // ---- numeric: sparse triangular solve ----
        for &r in &topo {
            x[r] = T::zero();
        }
        for (orig_row, v) in at.row_entries(j) {
            x[orig_row] = v;
        }
        for &r in &topo {
            let k = pinv[r];
            if k == usize::MAX {
                continue;
            }
            let xr = x[r];
            if xr.modulus() == 0.0 {
                continue;
            }
            for idx in l_colptr[k]..l_colptr[k + 1] {
                x[l_rows[idx]] -= xr * l_vals[idx];
            }
        }

        // ---- pivot selection among non-pivotal rows of the pattern ----
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

        // ---- store U[:, j] (pivotal rows) and L[:, j] (non-pivotal) ----
        for &r in &topo {
            let k = pinv[r];
            if k != usize::MAX && x[r].modulus() > 0.0 {
                u_rows.push(k);
                u_vals.push(x[r]);
            }
        }
        // Diagonal of U last within the column for an easy backward solve.
        u_rows.push(j);
        u_vals.push(piv_val);
        u_colptr.push(u_rows.len());

        for &r in &topo {
            if pinv[r] == usize::MAX && r != piv_row && x[r].modulus() > 0.0 {
                l_rows.push(r);
                l_vals.push(x[r] / piv_val);
            }
        }
        l_colptr.push(l_rows.len());

        pinv[piv_row] = j;
        prow[j] = piv_row;
    }

    // Remap L row indices from original rows to pivot coordinates.
    for r in &mut l_rows {
        *r = pinv[*r];
    }

    // y = P b, then L y = P b (unit diagonal), then U x = y.
    let mut y: Vec<T> = prow.iter().map(|&r| b[r]).collect();
    for k in 0..n {
        let yk = y[k];
        for idx in l_colptr[k]..l_colptr[k + 1] {
            y[l_rows[idx]] -= yk * l_vals[idx];
        }
    }
    for k in (0..n).rev() {
        let (lo, hi) = (u_colptr[k], u_colptr[k + 1]);
        let xk = y[k] / u_vals[hi - 1];
        y[k] = xk;
        for idx in lo..hi - 1 {
            y[u_rows[idx]] -= xk * u_vals[idx];
        }
    }
    Ok(y)
}

/// Re-assembles `matrix`'s values from triplets while keeping its sparsity
/// pattern: all stored values are zeroed, then every triplet is added at
/// its structural position (duplicates sum, as in
/// [`CsrMatrix::from_triplets`]).
///
/// # Errors
/// * [`SparseError::DimensionMismatch`] when a triplet indexes outside the
///   matrix shape.
/// * [`SparseError::PatternMismatch`] when a triplet addresses a position
///   that is structurally absent; the values are then partially assembled.
pub(crate) fn assemble_into<T: Scalar>(
    matrix: &mut CsrMatrix<T>,
    triplets: &[(usize, usize, T)],
) -> Result<(), SparseError> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    matrix.values_mut().fill(T::zero());
    for &(r, c, v) in triplets {
        if r >= rows || c >= cols {
            return Err(SparseError::DimensionMismatch {
                detail: format!("triplet ({r}, {c}) out of bounds for {rows}x{cols}"),
            });
        }
        let (lo, hi) = (matrix.row_ptr()[r], matrix.row_ptr()[r + 1]);
        match matrix.col_idx()[lo..hi].binary_search(&c) {
            Ok(k) => matrix.values_mut()[lo + k] += v,
            Err(_) => return Err(SparseError::PatternMismatch { row: r, col: c }),
        }
    }
    Ok(())
}
