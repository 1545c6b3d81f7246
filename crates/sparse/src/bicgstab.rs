//! Preconditioned BiCGSTAB for non-symmetric (complex) systems.

use crate::{CsrMatrix, Ilu0, SparseError};
use vaem_numeric::{vecops, Scalar};

/// Relative near-breakdown threshold of the BiCGSTAB recurrence scalars.
///
/// `ρ = r̂·r` and `r̂·v` contract to (numerically) zero when the shadow
/// residual turns orthogonal to the iteration space — the classic failure
/// mode on rotation-dominated operators. Comparing them against the product
/// of the participating vector norms (instead of an absolute `1e-300`)
/// detects the *near*-breakdown scale-free, so the solver escalates to the
/// direct rescue immediately instead of burning the whole
/// iteration budget on a diverging recurrence and reporting a spurious
/// max-iterations failure.
const BREAKDOWN_REL: f64 = 1e-14;

/// Options of the [`BiCgStab`] solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovOptions {
    /// Relative residual tolerance `‖b − A·x‖ / ‖b‖`.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 2000,
        }
    }
}

/// Preconditioned BiCGSTAB (van der Vorst) with an optional ILU(0)
/// preconditioner.
///
/// This is the work-horse solver for the frequency-domain coupled A–V
/// systems: non-symmetric, complex, with strong coefficient contrast between
/// metal and semiconductor regions (handled by equilibration + ILU(0)).
///
/// # Example
/// ```
/// use vaem_sparse::{BiCgStab, CsrMatrix, Ilu0, KrylovOptions};
/// let n = 30;
/// let mut t = Vec::new();
/// for i in 0..n {
///     t.push((i, i, 2.5));
///     if i > 0 { t.push((i, i - 1, -1.0)); }
///     if i + 1 < n { t.push((i, i + 1, -1.0)); }
/// }
/// let a = CsrMatrix::from_triplets(n, n, &t);
/// let ilu = Ilu0::new(&a)?;
/// let b = vec![1.0; n];
/// let solver = BiCgStab::new(KrylovOptions::default());
/// let (x, iters) = solver.solve(&a, &b, Some(&ilu), None)?;
/// assert!(iters <= n);
/// let r = a.residual(&x, &b);
/// assert!(r.iter().map(|v| v * v).sum::<f64>().sqrt() < 1e-8);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BiCgStab {
    options: KrylovOptions,
}

/// Reusable buffers of the BiCGSTAB recurrence (`r`, `r̂`, `v`, `p`, `p̂`,
/// `s`, `ŝ`, `t`).
///
/// One Newton/AC solve used to allocate (and drop) eight fresh vectors per
/// call plus two per iteration; keeping a workspace alive across calls makes
/// the inner loop allocation-free. Buffers are resized lazily, so one
/// workspace can serve systems of different sizes.
#[derive(Debug, Clone, Default)]
pub struct BiCgStabWorkspace<T: Scalar = f64> {
    r: Vec<T>,
    r_hat: Vec<T>,
    v: Vec<T>,
    p: Vec<T>,
    p_hat: Vec<T>,
    s: Vec<T>,
    s_hat: Vec<T>,
    t: Vec<T>,
}

impl<T: Scalar> BiCgStabWorkspace<T> {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn reset(&mut self, n: usize) {
        for buf in [
            &mut self.r,
            &mut self.r_hat,
            &mut self.v,
            &mut self.p,
            &mut self.p_hat,
            &mut self.s,
            &mut self.s_hat,
            &mut self.t,
        ] {
            buf.clear();
            buf.resize(n, T::zero());
        }
    }
}

impl BiCgStab {
    /// Creates a solver with the given options.
    pub fn new(options: KrylovOptions) -> Self {
        Self { options }
    }

    /// Solver options.
    pub fn options(&self) -> &KrylovOptions {
        &self.options
    }

    /// Solves `A·x = b`, optionally preconditioned by `precond` and starting
    /// from `x0` (zero when `None`).
    ///
    /// Returns the solution and the number of iterations used.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] on shape mismatch, including an
    ///   initial guess of the wrong length.
    /// * [`SparseError::Breakdown`] when a recurrence scalar vanishes.
    /// * [`SparseError::NotConverged`] when the tolerance is not met.
    pub fn solve<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let mut workspace = BiCgStabWorkspace::new();
        self.solve_with_workspace(a, b, precond, x0, &mut workspace)
    }

    /// [`BiCgStab::solve`] with caller-owned buffers; the variant used by
    /// repeated solves (Newton iterations, terminal/frequency sweeps) to
    /// keep the inner loops allocation-free.
    ///
    /// The reductions take fewer passes than one per reduction: `‖s‖²` is
    /// summed inside the `s` update, and `r̂·v` with `‖v‖²`, `t·t` with
    /// `t·s`, and `‖r‖²` with the next iteration's `ρ = r̂·r` each share one
    /// pass over the vector the mat-vec or the `x`/`r` update just wrote
    /// (summing a pair inside the mat-vec's row loop measured slower). The
    /// terms and their accumulation order are those of [`vecops::dot`] and
    /// [`vecops::norm2`] (all sum through [`vecops::lane_sum`]), so the
    /// iterates are bit-identical to reducing each finished vector on its
    /// own. The carried `ρ` is used only when the loop continues normally;
    /// after a residual-replacement restart it is computed afresh.
    ///
    /// # Errors
    /// Same conditions as [`BiCgStab::solve`].
    pub fn solve_with_workspace<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
        ws: &mut BiCgStabWorkspace<T>,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let n = a.rows();
        if a.cols() != n || b.len() != n || x0.is_some_and(|g| g.len() != n) {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "BiCGSTAB needs square A and matching rhs and guess; got {}x{} with rhs {} and guess {:?}",
                    a.rows(),
                    a.cols(),
                    b.len(),
                    x0.map(<[T]>::len)
                ),
            });
        }
        ws.reset(n);

        let bnorm = vecops::norm2(b).max(1e-300);
        let mut x = match x0 {
            Some(x0) => x0.to_vec(),
            None => vec![T::zero(); n],
        };
        // r = b − A·x (skip the matvec for the zero initial guess).
        if x0.is_some() {
            a.matvec_into(&x, &mut ws.t);
            for i in 0..n {
                ws.r[i] = b[i] - ws.t[i];
            }
        } else {
            ws.r.copy_from_slice(b);
        }
        let mut r_norm = vecops::norm2(&ws.r);
        if r_norm / bnorm <= self.options.tolerance {
            return Ok((x, 0));
        }
        ws.r_hat.copy_from_slice(&ws.r);
        let mut r_hat_norm = r_norm;
        let mut rho = T::one();
        let mut alpha = T::one();
        let mut omega = T::one();
        // ρ = r̂·r for the coming iteration.
        let mut rho_next = vecops::dot(&ws.r_hat, &ws.r);

        for iter in 1..=self.options.max_iterations {
            let rho_new = rho_next;
            if !rho_new.is_finite_scalar()
                || rho_new.modulus() < BREAKDOWN_REL * r_hat_norm * r_norm
            {
                return Err(SparseError::Breakdown {
                    detail: "rho (near-)vanished in BiCGSTAB".to_string(),
                });
            }
            let beta = (rho_new / rho) * (alpha / omega);
            // p = r + beta (p - omega v)
            for ((p, &r), &v) in ws.p.iter_mut().zip(&ws.r).zip(&ws.v) {
                *p = r + beta * (*p - omega * v);
            }
            match precond {
                Some(m) => m.apply_into(&ws.p, &mut ws.p_hat),
                None => ws.p_hat.copy_from_slice(&ws.p),
            }
            a.matvec_into(&ws.p_hat, &mut ws.v);
            // r̂·v and ‖v‖² in one pass.
            let (denom, v_sqr) = {
                let (r_hat, v) = (&ws.r_hat[..n], &ws.v[..n]);
                vecops::lane_sum2(n, |i| (r_hat[i].conj() * v[i], v[i].modulus_sqr()))
            };
            if !denom.is_finite_scalar()
                || denom.modulus() < BREAKDOWN_REL * r_hat_norm * v_sqr.sqrt()
                || denom.modulus() < 1e-300
            {
                return Err(SparseError::Breakdown {
                    detail: "r_hat . v (near-)vanished in BiCGSTAB".to_string(),
                });
            }
            alpha = rho_new / denom;
            // s = r - alpha v, reducing ‖s‖².
            let s_sqr = {
                let (r, v, s) = (&ws.r[..n], &ws.v[..n], &mut ws.s[..n]);
                vecops::lane_sum(n, |i| {
                    s[i] = r[i] - alpha * v[i];
                    s[i].modulus_sqr()
                })
            };
            if s_sqr.sqrt() / bnorm <= self.options.tolerance {
                for i in 0..n {
                    x[i] += alpha * ws.p_hat[i];
                }
                if verify_or_restart(
                    a,
                    b,
                    bnorm,
                    &x,
                    self.options.tolerance,
                    ws,
                    &mut r_norm,
                    &mut r_hat_norm,
                    &mut rho,
                    &mut alpha,
                    &mut omega,
                ) {
                    return Ok((x, iter));
                }
                rho_next = vecops::dot(&ws.r_hat, &ws.r);
                continue;
            }
            match precond {
                Some(m) => m.apply_into(&ws.s, &mut ws.s_hat),
                None => ws.s_hat.copy_from_slice(&ws.s),
            }
            a.matvec_into(&ws.s_hat, &mut ws.t);
            // t·t and t·s in one pass.
            let (tt, ts) = {
                let (t, s) = (&ws.t[..n], &ws.s[..n]);
                vecops::lane_sum2(n, |i| (t[i].conj() * t[i], t[i].conj() * s[i]))
            };
            if !tt.is_finite_scalar() || tt.modulus() < 1e-300 {
                return Err(SparseError::Breakdown {
                    detail: "t . t (near-)vanished in BiCGSTAB".to_string(),
                });
            }
            omega = ts / tt;
            // x += alpha p̂ + omega ŝ and r = s - omega t
            let steps = ws.p_hat.iter().zip(&ws.s_hat);
            let residuals = ws.s.iter().zip(&ws.t);
            for ((xi, ri), ((&ph, &sh), (&si, &ti))) in
                x.iter_mut().zip(&mut ws.r).zip(steps.zip(residuals))
            {
                *xi += alpha * ph + omega * sh;
                *ri = si - omega * ti;
            }
            // ‖r‖² and the next iteration's ρ = r̂·r in one pass.
            let (r_sqr, rho_carried) = {
                let (r, r_hat) = (&ws.r[..n], &ws.r_hat[..n]);
                vecops::lane_sum2(n, |i| (r[i].modulus_sqr(), r_hat[i].conj() * r[i]))
            };
            r_norm = r_sqr.sqrt();
            let rel = r_norm / bnorm;
            if !rel.is_finite() {
                // The recurrence overflowed/NaN-poisoned itself; report a
                // breakdown now rather than a max-iterations failure later.
                return Err(SparseError::Breakdown {
                    detail: "residual became non-finite in BiCGSTAB".to_string(),
                });
            }
            if rel <= self.options.tolerance {
                if verify_or_restart(
                    a,
                    b,
                    bnorm,
                    &x,
                    self.options.tolerance,
                    ws,
                    &mut r_norm,
                    &mut r_hat_norm,
                    &mut rho,
                    &mut alpha,
                    &mut omega,
                ) {
                    return Ok((x, iter));
                }
                rho_next = vecops::dot(&ws.r_hat, &ws.r);
                continue;
            }
            if !omega.is_finite_scalar() || omega.modulus() < 1e-300 {
                return Err(SparseError::Breakdown {
                    detail: "omega (near-)vanished in BiCGSTAB".to_string(),
                });
            }
            rho = rho_new;
            rho_next = rho_carried;
        }

        let rel = vecops::norm2(&a.residual(&x, b)) / bnorm;
        Err(SparseError::NotConverged {
            iterations: self.options.max_iterations,
            residual: rel,
        })
    }
}

/// Trust-but-verify step shared by both BiCGSTAB convergence exits: the
/// recurrence residual can drift from the true residual once a
/// near-breakdown has amplified the iterates, so claimed convergence is only
/// accepted when the explicit residual `b − A·x` confirms it. On drift the
/// recurrence is restarted from the verified residual (residual
/// replacement): `r = r̂ = b − A·x`, scalars reset, search directions
/// zeroed. Returns `true` when `x` is truly converged.
#[allow(clippy::too_many_arguments)]
fn verify_or_restart<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
    bnorm: f64,
    x: &[T],
    tolerance: f64,
    ws: &mut BiCgStabWorkspace<T>,
    r_norm: &mut f64,
    r_hat_norm: &mut f64,
    rho: &mut T,
    alpha: &mut T,
    omega: &mut T,
) -> bool {
    let n = x.len();
    a.matvec_into(x, &mut ws.t);
    let mut true_sqr = 0.0;
    for i in 0..n {
        true_sqr += (b[i] - ws.t[i]).modulus_sqr();
    }
    let true_rel = true_sqr.sqrt() / bnorm;
    if true_rel <= tolerance {
        return true;
    }
    for i in 0..n {
        ws.r[i] = b[i] - ws.t[i];
    }
    ws.r_hat.copy_from_slice(&ws.r);
    *r_norm = true_rel * bnorm;
    *r_hat_norm = *r_norm;
    *rho = T::one();
    *alpha = T::one();
    *omega = T::one();
    ws.p.fill(T::zero());
    ws.v.fill(T::zero());
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{bits, random_system, Bits};
    use vaem_numeric::Complex64;

    /// The unfused recurrence, kept as the reference the fused
    /// [`BiCgStab::solve_with_workspace`] must match bit for bit: every
    /// reduction runs as its own pass over the finished vector, and `ρ` is
    /// recomputed at the top of every iteration. `restarts` counts the
    /// residual-replacement restarts, so the tests can show they reach
    /// that path.
    fn unfused_reference<T: Scalar>(
        options: KrylovOptions,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
        restarts: &mut usize,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let n = a.rows();
        let ws = &mut BiCgStabWorkspace::new();
        ws.reset(n);
        let bnorm = vecops::norm2(b).max(1e-300);
        let mut x = x0.map_or_else(|| vec![T::zero(); n], <[T]>::to_vec);
        if x0.is_some() {
            a.matvec_into(&x, &mut ws.t);
            for i in 0..n {
                ws.r[i] = b[i] - ws.t[i];
            }
        } else {
            ws.r.copy_from_slice(b);
        }
        let mut r_norm = vecops::norm2(&ws.r);
        if r_norm / bnorm <= options.tolerance {
            return Ok((x, 0));
        }
        ws.r_hat.copy_from_slice(&ws.r);
        let mut r_hat_norm = r_norm;
        let (mut rho, mut alpha, mut omega) = (T::one(), T::one(), T::one());
        let breakdown = |what: &str| SparseError::Breakdown {
            detail: what.to_string(),
        };
        for iter in 1..=options.max_iterations {
            let rho_new = vecops::dot(&ws.r_hat, &ws.r);
            if !rho_new.is_finite_scalar()
                || rho_new.modulus() < BREAKDOWN_REL * r_hat_norm * r_norm
            {
                return Err(breakdown("rho (near-)vanished in BiCGSTAB"));
            }
            let beta = (rho_new / rho) * (alpha / omega);
            for i in 0..n {
                ws.p[i] = ws.r[i] + beta * (ws.p[i] - omega * ws.v[i]);
            }
            match precond {
                Some(m) => m.apply_into(&ws.p, &mut ws.p_hat),
                None => ws.p_hat.copy_from_slice(&ws.p),
            }
            a.matvec_into(&ws.p_hat, &mut ws.v);
            let denom = vecops::dot(&ws.r_hat, &ws.v);
            if !denom.is_finite_scalar()
                || denom.modulus() < BREAKDOWN_REL * r_hat_norm * vecops::norm2(&ws.v)
                || denom.modulus() < 1e-300
            {
                return Err(breakdown("r_hat . v (near-)vanished in BiCGSTAB"));
            }
            alpha = rho_new / denom;
            for i in 0..n {
                ws.s[i] = ws.r[i] - alpha * ws.v[i];
            }
            if vecops::norm2(&ws.s) / bnorm <= options.tolerance {
                for i in 0..n {
                    x[i] += alpha * ws.p_hat[i];
                }
                if verify_or_restart(
                    a,
                    b,
                    bnorm,
                    &x,
                    options.tolerance,
                    ws,
                    &mut r_norm,
                    &mut r_hat_norm,
                    &mut rho,
                    &mut alpha,
                    &mut omega,
                ) {
                    return Ok((x, iter));
                }
                *restarts += 1;
                continue;
            }
            match precond {
                Some(m) => m.apply_into(&ws.s, &mut ws.s_hat),
                None => ws.s_hat.copy_from_slice(&ws.s),
            }
            a.matvec_into(&ws.s_hat, &mut ws.t);
            let tt = vecops::dot(&ws.t, &ws.t);
            if !tt.is_finite_scalar() || tt.modulus() < 1e-300 {
                return Err(breakdown("t . t (near-)vanished in BiCGSTAB"));
            }
            omega = vecops::dot(&ws.t, &ws.s) / tt;
            for i in 0..n {
                x[i] += alpha * ws.p_hat[i] + omega * ws.s_hat[i];
                ws.r[i] = ws.s[i] - omega * ws.t[i];
            }
            r_norm = vecops::norm2(&ws.r);
            let rel = r_norm / bnorm;
            if !rel.is_finite() {
                return Err(breakdown("residual became non-finite in BiCGSTAB"));
            }
            if rel <= options.tolerance {
                if verify_or_restart(
                    a,
                    b,
                    bnorm,
                    &x,
                    options.tolerance,
                    ws,
                    &mut r_norm,
                    &mut r_hat_norm,
                    &mut rho,
                    &mut alpha,
                    &mut omega,
                ) {
                    return Ok((x, iter));
                }
                *restarts += 1;
                continue;
            }
            if !omega.is_finite_scalar() || omega.modulus() < 1e-300 {
                return Err(breakdown("omega (near-)vanished in BiCGSTAB"));
            }
            rho = rho_new;
        }
        let rel = vecops::norm2(&a.residual(&x, b)) / bnorm;
        Err(SparseError::NotConverged {
            iterations: options.max_iterations,
            residual: rel,
        })
    }

    /// Runs the fused solver and the unfused reference on one system and
    /// asserts the same outcome: the same solution bits and iteration
    /// count, or the same error (variant, detail and residual bits).
    /// Returns the reference's restart count and whether it failed.
    fn assert_fused_matches_reference<T: Bits>(
        options: KrylovOptions,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
    ) -> (usize, bool) {
        let mut restarts = 0;
        let want = unfused_reference(options, a, b, precond, x0, &mut restarts);
        let got = BiCgStab::new(options).solve(a, b, precond, x0);
        match (&got, &want) {
            (Ok((x, it)), Ok((x_ref, it_ref))) => {
                assert_eq!(it, it_ref);
                assert_eq!(bits(x), bits(x_ref));
            }
            (
                Err(SparseError::NotConverged {
                    iterations,
                    residual,
                }),
                Err(SparseError::NotConverged {
                    iterations: iterations_ref,
                    residual: residual_ref,
                }),
            ) => {
                assert_eq!(iterations, iterations_ref);
                assert_eq!(residual.to_bits(), residual_ref.to_bits());
            }
            (Err(err), Err(err_ref)) => assert_eq!(err, err_ref),
            _ => panic!("fused {got:?} but reference {want:?}"),
        }
        (restarts, want.is_err())
    }

    #[test]
    fn fused_reductions_match_the_unfused_recurrence_bit_for_bit() {
        let tight = KrylovOptions {
            tolerance: 1e-13,
            ..Default::default()
        };
        let short = KrylovOptions {
            tolerance: 1e-14,
            max_iterations: 3,
        };
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 29, 30, 31, 64, 203] {
            for seed in 0..3u64 {
                let real = random_system(n, seed, |re, _| re);
                let complex = random_system(n, seed, Complex64::new);
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7 + 0.3).cos()).collect();
                let cb: Vec<Complex64> = b
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| Complex64::new(v, (i as f64 * 0.2).sin()))
                    .collect();
                let guess = vec![0.25; n];
                let cguess = vec![Complex64::new(0.25, -0.5); n];
                let ilu = Ilu0::new(&real).unwrap();
                let cilu = Ilu0::new(&complex).unwrap();
                for options in [tight, short] {
                    for precond in [None, Some(&ilu)] {
                        for x0 in [None, Some(guess.as_slice())] {
                            assert_fused_matches_reference(options, &real, &b, precond, x0);
                        }
                    }
                    for precond in [None, Some(&cilu)] {
                        for x0 in [None, Some(cguess.as_slice())] {
                            assert_fused_matches_reference(options, &complex, &cb, precond, x0);
                        }
                    }
                }
            }
        }
    }

    /// Rotation blocks chained by a skip-two coupling, so that ILU(0) drops
    /// fill and cannot be exact.
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
    fn fused_reductions_match_the_reference_through_restarts_and_breakdowns() {
        let options = KrylovOptions::default();
        let (mut restarts, mut failures) = (0, 0);
        for n_blocks in [20usize, 21, 40, 41] {
            for diag in [1e-15, 1e-12, 1e-9, 1e-6, 0.3] {
                let plain = rotation_blocks(n_blocks, diag);
                let coupled = coupled_rotation_blocks(n_blocks, diag);
                for a in [&plain, &coupled] {
                    let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.3).sin()).collect();
                    let b = a.matvec(&x_true);
                    let ilu = Ilu0::new(a).unwrap();
                    for precond in [None, Some(&ilu)] {
                        let (r, failed) =
                            assert_fused_matches_reference(options, a, &b, precond, None);
                        restarts += r;
                        failures += usize::from(failed);
                    }
                }
            }
        }
        assert!(
            restarts > 0,
            "no system reached the residual-replacement restart"
        );
        assert!(failures > 0, "no system broke down");
    }

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
    fn solves_2d_laplacian_with_ilu() {
        let a = laplacian_2d(12);
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.matvec(&x_true);
        let ilu = Ilu0::new(&a).unwrap();
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let (x, iters) = solver.solve(&a, &b, Some(&ilu), None).unwrap();
        assert!(iters < 80, "iterations {iters}");
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn solves_without_preconditioner() {
        let a = laplacian_2d(6);
        let b = vec![1.0; a.rows()];
        let solver = BiCgStab::new(KrylovOptions::default());
        let (x, _) = solver.solve(&a, &b, None, None).unwrap();
        let r = a.residual(&x, &b);
        assert!(vecops::norm2(&r) < 1e-7);
    }

    #[test]
    fn solves_complex_shifted_laplacian() {
        let base = laplacian_2d(8);
        let n = base.rows();
        let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
        for r in 0..n {
            for (c, v) in base.row_entries(r) {
                t.push((r, c, Complex64::new(v, 0.0)));
            }
            t.push((r, r, Complex64::new(0.0, 0.35)));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.3).cos(), (i as f64 * 0.17).sin()))
            .collect();
        let b = a.matvec(&x_true);
        let ilu = Ilu0::new(&a).unwrap();
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let (x, _) = solver.solve(&a, &b, Some(&ilu), None).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves_across_sizes() {
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let mut ws = BiCgStabWorkspace::new();
        // Shrinking and growing sizes exercise the lazy buffer resize.
        for nx in [10, 6, 12] {
            let a = laplacian_2d(nx);
            let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.07).sin()).collect();
            let b = a.matvec(&x_true);
            let ilu = Ilu0::new(&a).unwrap();
            let (x_ws, it_ws) = solver
                .solve_with_workspace(&a, &b, Some(&ilu), None, &mut ws)
                .unwrap();
            let (x_fresh, it_fresh) = solver.solve(&a, &b, Some(&ilu), None).unwrap();
            assert_eq!(it_ws, it_fresh, "nx = {nx}");
            assert_eq!(x_ws, x_fresh, "nx = {nx}");
        }
    }

    #[test]
    fn initial_guess_close_to_solution_converges_immediately() {
        let a = laplacian_2d(6);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| i as f64).collect();
        let b = a.matvec(&x_true);
        let solver = BiCgStab::new(KrylovOptions::default());
        let (_, iters) = solver.solve(&a, &b, None, Some(&x_true)).unwrap();
        assert_eq!(iters, 0);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = laplacian_2d(3);
        let solver = BiCgStab::new(KrylovOptions::default());
        assert!(matches!(
            solver.solve(&a, &[1.0, 2.0], None, None),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    /// Block-diagonal matrix of near-90° 2×2 rotation blocks — the
    /// rotation-dominated operator on which the BiCGSTAB recurrence scalars
    /// (near-)vanish.
    fn rotation_blocks(n_blocks: usize, diag: f64) -> CsrMatrix<f64> {
        let n = 2 * n_blocks;
        let mut t = Vec::new();
        for k in 0..n_blocks {
            let i = 2 * k;
            t.push((i, i, diag));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, 1.0));
            t.push((i + 1, i + 1, diag));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn rotation_dominated_system_breaks_down_instead_of_burning_the_budget() {
        // diag = 1e-15 puts r_hat·v at ~1e-15·‖r̂‖·‖v̂‖ on the very first
        // iteration: far above the old absolute 1e-300 cutoff (which let the
        // recurrence diverge and mis-report), but below the relative
        // threshold, which must flag the near-breakdown immediately.
        let a = rotation_blocks(20, 1e-15);
        let b = vec![1.0; a.rows()];
        let solver = BiCgStab::new(KrylovOptions::default());
        match solver.solve(&a, &b, None, None) {
            Err(SparseError::Breakdown { .. }) => {}
            other => panic!("expected a breakdown, got {other:?}"),
        }
    }

    #[test]
    fn reports_non_convergence_for_tiny_iteration_budget() {
        let a = laplacian_2d(10);
        let b = vec![1.0; a.rows()];
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-14,
            max_iterations: 2,
        });
        let out = solver.solve(&a, &b, None, None);
        assert!(matches!(out, Err(SparseError::NotConverged { .. })));
    }
}
