//! Restarted GMRES with right preconditioning.

use crate::{CsrMatrix, Ilu0, KrylovOptions, SparseError};
use vaem_numeric::{vecops, Scalar};

/// Right-preconditioned restarted GMRES(m).
///
/// Used as a fallback when BiCGSTAB stagnates on the coupled systems; the
/// restart length is taken from [`KrylovOptions::restart`].
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, Gmres, Ilu0, KrylovOptions};
/// let n = 20;
/// let mut t = Vec::new();
/// for i in 0..n {
///     t.push((i, i, 3.0));
///     if i > 0 { t.push((i, i - 1, -1.0)); }
///     if i + 1 < n { t.push((i, i + 1, -1.5)); }
/// }
/// let a = CsrMatrix::from_triplets(n, n, &t);
/// let b = vec![1.0; n];
/// let gmres = Gmres::new(KrylovOptions::default());
/// let ilu = Ilu0::new(&a)?;
/// let (x, _) = gmres.solve(&a, &b, Some(&ilu), None)?;
/// let r = a.residual(&x, &b);
/// assert!(r.iter().map(|v| v * v).sum::<f64>().sqrt() < 1e-8);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gmres {
    options: KrylovOptions,
}

/// Reusable buffers of the restarted GMRES cycle: the Arnoldi basis, the
/// Hessenberg columns, the Givens coefficients and the scratch vectors.
///
/// The basis alone is `restart + 1` vectors of length `n`; reusing it across
/// restart cycles and across calls removes the dominant allocation churn of
/// the solver.
#[derive(Debug, Clone, Default)]
pub struct GmresWorkspace<T: Scalar = f64> {
    v: Vec<Vec<T>>,
    h: Vec<Vec<T>>,
    cs: Vec<T>,
    sn: Vec<T>,
    g: Vec<T>,
    y: Vec<T>,
    r: Vec<T>,
    z: Vec<T>,
    w: Vec<T>,
    update: Vec<T>,
    m_update: Vec<T>,
}

impl<T: Scalar> GmresWorkspace<T> {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize, m: usize) {
        self.v.resize_with(m + 1, Vec::new);
        for basis in &mut self.v {
            basis.clear();
            basis.resize(n, T::zero());
        }
        self.h.resize_with(m + 1, Vec::new);
        for row in &mut self.h {
            row.clear();
            row.resize(m, T::zero());
        }
        for buf in [&mut self.cs, &mut self.sn] {
            buf.clear();
            buf.resize(m, T::zero());
        }
        self.g.clear();
        self.g.resize(m + 1, T::zero());
        self.y.clear();
        self.y.resize(m, T::zero());
        for buf in [
            &mut self.r,
            &mut self.z,
            &mut self.w,
            &mut self.update,
            &mut self.m_update,
        ] {
            buf.clear();
            buf.resize(n, T::zero());
        }
    }

    fn clear_cycle(&mut self) {
        for row in &mut self.h {
            row.fill(T::zero());
        }
        self.g.fill(T::zero());
    }
}

impl Gmres {
    /// Creates a solver with the given options.
    pub fn new(options: KrylovOptions) -> Self {
        Self { options }
    }

    /// Solver options.
    pub fn options(&self) -> &KrylovOptions {
        &self.options
    }

    /// Solves `A·x = b` with right preconditioning `A·M⁻¹·y = b`, `x = M⁻¹·y`.
    ///
    /// Returns the solution and the total number of inner iterations.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] on shape mismatch.
    /// * [`SparseError::NotConverged`] when the tolerance is not met within
    ///   the iteration budget.
    pub fn solve<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let mut workspace = GmresWorkspace::new();
        self.solve_with_workspace(a, b, precond, x0, &mut workspace)
    }

    /// [`Gmres::solve`] with caller-owned buffers, reusing the Arnoldi basis
    /// across restart cycles and across calls.
    ///
    /// # Errors
    /// Same conditions as [`Gmres::solve`].
    pub fn solve_with_workspace<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
        ws: &mut GmresWorkspace<T>,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let n = a.rows();
        if a.cols() != n || b.len() != n || x0.is_some_and(|g| g.len() != n) {
            return Err(SparseError::DimensionMismatch {
                // vaem-lint: allow(H1) dimension-mismatch error message, failure path only
                detail: format!(
                    "GMRES needs square A and matching rhs and guess; got {}x{} with rhs {} and guess {:?}",
                    a.rows(),
                    a.cols(),
                    b.len(),
                    x0.map(<[T]>::len)
                ),
            });
        }
        let m = self.options.restart.max(2).min(n.max(2));
        ws.reset(n, m);
        let bnorm = vecops::norm2(b).max(1e-300);
        let mut x = match x0 {
            // vaem-lint: allow(H1) initial-guess copy, once per solve entry
            Some(x0) => x0.to_vec(),
            // vaem-lint: allow(H1) zero initial guess, once per solve entry
            None => vec![T::zero(); n],
        };
        let mut total_iters = 0usize;

        while total_iters < self.options.max_iterations {
            // r = b − A·x.
            a.matvec_into(&x, &mut ws.w);
            for i in 0..n {
                ws.r[i] = b[i] - ws.w[i];
            }
            let beta = vecops::norm2(&ws.r);
            if beta / bnorm <= self.options.tolerance {
                return Ok((x, total_iters));
            }
            ws.clear_cycle();
            ws.v[0].copy_from_slice(&ws.r);
            vecops::scale_in_place(T::from_f64(1.0 / beta), &mut ws.v[0]);
            ws.g[0] = T::from_f64(beta);
            let (cs, sn, h, g) = (&mut ws.cs, &mut ws.sn, &mut ws.h, &mut ws.g);

            let mut k_used = 0usize;
            for k in 0..m {
                total_iters += 1;
                k_used = k + 1;
                // w = A M^{-1} v_k
                match precond {
                    Some(p) => p.apply_into(&ws.v[k], &mut ws.z),
                    None => ws.z.copy_from_slice(&ws.v[k]),
                }
                a.matvec_into(&ws.z, &mut ws.w);
                // Modified Gram-Schmidt.
                for i in 0..=k {
                    let hik = vecops::dot(&ws.v[i], &ws.w);
                    h[i][k] = hik;
                    for (wj, vj) in ws.w.iter_mut().zip(ws.v[i].iter()) {
                        *wj -= hik * *vj;
                    }
                }
                let wnorm = vecops::norm2(&ws.w);
                h[k + 1][k] = T::from_f64(wnorm);
                if wnorm > 1e-300 {
                    ws.v[k + 1].copy_from_slice(&ws.w);
                    vecops::scale_in_place(T::from_f64(1.0 / wnorm), &mut ws.v[k + 1]);
                } else {
                    ws.v[k + 1].fill(T::zero());
                }
                // Apply the previous Givens rotations to the new column.
                for i in 0..k {
                    let temp = cs[i] * h[i][k] + sn[i] * h[i + 1][k];
                    h[i + 1][k] = -sn[i].conj() * h[i][k] + cs[i].conj() * h[i + 1][k];
                    h[i][k] = temp;
                }
                // Compute the new rotation annihilating h[k+1][k].
                let (c, s) = givens(h[k][k], h[k + 1][k]);
                cs[k] = c;
                sn[k] = s;
                h[k][k] = c * h[k][k] + s * h[k + 1][k];
                h[k + 1][k] = T::zero();
                let g_k = g[k];
                g[k] = c * g_k;
                g[k + 1] = -s.conj() * g_k;

                let rel = g[k + 1].modulus() / bnorm;
                if rel <= self.options.tolerance || total_iters >= self.options.max_iterations {
                    break;
                }
            }

            // Solve the small triangular system and update x.
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for j in (i + 1)..k_used {
                    acc -= h[i][j] * ws.y[j];
                }
                if h[i][i].modulus() < 1e-300 {
                    return Err(SparseError::Breakdown {
                        // vaem-lint: allow(H1) stagnation-label construction, failure path only
                        detail: "singular Hessenberg diagonal in GMRES".to_string(),
                    });
                }
                ws.y[i] = acc / h[i][i];
            }
            ws.update.fill(T::zero());
            for j in 0..k_used {
                vecops::axpy(ws.y[j], &ws.v[j], &mut ws.update);
            }
            match precond {
                Some(p) => p.apply_into(&ws.update, &mut ws.m_update),
                None => ws.m_update.copy_from_slice(&ws.update),
            }
            for i in 0..n {
                x[i] += ws.m_update[i];
            }
        }

        let rel = vecops::norm2(&a.residual(&x, b)) / bnorm;
        if rel <= self.options.tolerance {
            Ok((x, total_iters))
        } else {
            Err(SparseError::NotConverged {
                iterations: total_iters,
                residual: rel,
            })
        }
    }
}

/// Computes a (complex-capable) Givens rotation (c, s) such that the second
/// component of `[c s; -conj(s) c] · [a; b]ᵀ`-style update is annihilated.
fn givens<T: Scalar>(a: T, b: T) -> (T, T) {
    let bm = b.modulus();
    if bm == 0.0 {
        return (T::one(), T::zero());
    }
    let am = a.modulus();
    let r = (am * am + bm * bm).sqrt();
    if am == 0.0 {
        // Rotate fully onto b.
        return (T::zero(), b.conj().scale(1.0 / bm));
    }
    let c = T::from_f64(am / r);
    // s = (a/|a|) * conj(b) / r
    let phase = a.scale(1.0 / am);
    let s = phase * b.conj().scale(1.0 / r);
    (c, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_numeric::Complex64;

    fn convection_diffusion(n: usize) -> CsrMatrix<f64> {
        // Non-symmetric tridiagonal system (upwind convection + diffusion).
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 3.0));
            if i > 0 {
                t.push((i, i - 1, -1.8));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.7));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn solves_nonsymmetric_real_system() {
        let a = convection_diffusion(80);
        let x_true: Vec<f64> = (0..80).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.matvec(&x_true);
        let gmres = Gmres::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let (x, _) = gmres.solve(&a, &b, None, None).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn solves_with_ilu_preconditioner_in_fewer_iterations() {
        let a = convection_diffusion(200);
        let b = vec![1.0; 200];
        let opts = KrylovOptions {
            tolerance: 1e-10,
            max_iterations: 5000,
            restart: 30,
        };
        let gmres = Gmres::new(opts);
        let (_, iters_plain) = gmres.solve(&a, &b, None, None).unwrap();
        let ilu = Ilu0::new(&a).unwrap();
        let (_, iters_ilu) = gmres.solve(&a, &b, Some(&ilu), None).unwrap();
        assert!(
            iters_ilu < iters_plain,
            "ILU should accelerate: {iters_ilu} vs {iters_plain}"
        );
    }

    #[test]
    fn solves_complex_nonhermitian_system() {
        let n = 40;
        let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
        for i in 0..n {
            t.push((i, i, Complex64::new(2.5, 1.0)));
            if i > 0 {
                t.push((i, i - 1, Complex64::new(-1.0, 0.2)));
            }
            if i + 1 < n {
                t.push((i, i + 1, Complex64::new(-0.5, -0.1)));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let b = a.matvec(&x_true);
        let gmres = Gmres::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let ilu = Ilu0::new(&a).unwrap();
        let (x, _) = gmres.solve(&a, &b, Some(&ilu), None).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves_across_sizes() {
        let gmres = Gmres::new(KrylovOptions {
            tolerance: 1e-12,
            max_iterations: 4000,
            restart: 12,
        });
        let mut ws = GmresWorkspace::new();
        for n in [60, 30, 90] {
            let a = convection_diffusion(n);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let b = a.matvec(&x_true);
            let ilu = Ilu0::new(&a).unwrap();
            let (x_ws, it_ws) = gmres
                .solve_with_workspace(&a, &b, Some(&ilu), None, &mut ws)
                .unwrap();
            let (x_fresh, it_fresh) = gmres.solve(&a, &b, Some(&ilu), None).unwrap();
            assert_eq!(it_ws, it_fresh, "n = {n}");
            assert_eq!(x_ws, x_fresh, "n = {n}");
        }
    }

    #[test]
    fn restart_still_converges() {
        let a = convection_diffusion(120);
        let b = vec![1.0; 120];
        let gmres = Gmres::new(KrylovOptions {
            tolerance: 1e-10,
            max_iterations: 4000,
            restart: 5, // force many restarts
        });
        let (x, _) = gmres.solve(&a, &b, None, None).unwrap();
        let r = a.residual(&x, &b);
        assert!(vecops::norm2(&r) / vecops::norm2(&b) < 1e-9);
    }

    #[test]
    fn non_convergence_is_reported() {
        let a = convection_diffusion(100);
        let b = vec![1.0; 100];
        let gmres = Gmres::new(KrylovOptions {
            tolerance: 1e-14,
            max_iterations: 3,
            restart: 3,
        });
        assert!(matches!(
            gmres.solve(&a, &b, None, None),
            Err(SparseError::NotConverged { .. })
        ));
    }
}
