//! Criterion bench: sparse linear solvers on an FVM-like complex system
//! (design-choice ablation: direct LU vs ILU(0)-preconditioned Krylov).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vaem_numeric::Complex64;
use vaem_sparse::{CsrMatrix, LinearSolver, SolverKind, SparsityPattern, SymbolicLu};

/// 3-D Laplacian-like complex matrix with metal/dielectric contrast.
fn fvm_like_matrix(n_side: usize) -> CsrMatrix<Complex64> {
    let n = n_side * n_side * n_side;
    let idx = |i: usize, j: usize, k: usize| i + n_side * (j + n_side * k);
    let mut t = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let me = idx(i, j, k);
                let sigma = if (i + j + k) % 9 == 0 { 58.0 } else { 1e-6 };
                let diag = Complex64::new(6.0 * sigma, 1e-7);
                t.push((me, me, diag));
                let mut push = |other: usize| {
                    t.push((me, other, Complex64::new(-sigma, -1e-8)));
                };
                if i > 0 {
                    push(idx(i - 1, j, k));
                }
                if i + 1 < n_side {
                    push(idx(i + 1, j, k));
                }
                if j > 0 {
                    push(idx(i, j - 1, k));
                }
                if j + 1 < n_side {
                    push(idx(i, j + 1, k));
                }
                if k > 0 {
                    push(idx(i, j, k - 1));
                }
                if k + 1 < n_side {
                    push(idx(i, j, k + 1));
                }
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_solvers");
    group.sample_size(10);
    for &n_side in &[8usize, 12] {
        let a = fvm_like_matrix(n_side);
        let b = vec![Complex64::ONE; a.rows()];
        for kind in [SolverKind::DirectLu, SolverKind::IluBiCgStab] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), a.rows()),
                &(&a, &b),
                |bench, (a, b)| {
                    let solver = LinearSolver::new(kind);
                    bench.iter(|| {
                        solver
                            .prepare(a)
                            .and_then(|mut p| p.solve(b))
                            .expect("solve")
                    });
                },
            );
        }
    }
    group.finish();
}

/// An AC-like slab system: `n_side × n_side` laterally, `layers` cells
/// deep (the aspect ratio of the TSV structure meshes), with the shifted
/// lossy-Helmholtz character of the coupled A–V equations at frequency —
/// the wave term makes the real part indefinite, which is what defeats
/// ILU(0)-preconditioned Krylov on the per-frequency systems and made the
/// direct path worth seeding in the first place. The DC diffusion systems
/// are the easy case for Krylov; the threshold exists for these.
fn ac_like_slab_matrix(n_side: usize, layers: usize) -> CsrMatrix<Complex64> {
    let n = n_side * n_side * layers;
    let idx = |i: usize, j: usize, k: usize| i + n_side * (j + n_side * k);
    // Wave-number shift toward the low Laplacian eigenvalues (nearly
    // indefinite real part) plus a small conductive loss: convergent, but
    // the ILU(0)-preconditioned Krylov iteration count grows with the
    // grid instead of staying flat as it does on diffusion systems.
    let diag = Complex64::new(6.0 - 1.0, 0.05);
    let off = Complex64::new(-1.0, 0.0);
    let mut t = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..layers {
                let me = idx(i, j, k);
                t.push((me, me, diag));
                let mut push = |other: usize| {
                    t.push((me, other, off));
                };
                if i > 0 {
                    push(idx(i - 1, j, k));
                }
                if i + 1 < n_side {
                    push(idx(i + 1, j, k));
                }
                if j > 0 {
                    push(idx(i, j - 1, k));
                }
                if j + 1 < n_side {
                    push(idx(i, j + 1, k));
                }
                if k > 0 {
                    push(idx(i, j, k - 1));
                }
                if k + 1 < layers {
                    push(idx(i, j, k + 1));
                }
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// The seeded-direct crossover: once a donor `SymbolicLu` exists for a
/// pattern, a sample pays only the numeric refactorization plus two
/// triangular solves, while the iterative route still pays a cold ILU(0)
/// build before BiCGSTAB can start. This group measures both per-sample
/// costs across sizes on the slab family so `LinearSolver`'s
/// `seeded_direct_threshold` default is set from data rather than carried
/// over from the cold `direct_threshold`: the size where `ColdIlu` first
/// beats `SeededRefactor` is where `Auto` should hand a seeded system
/// back to the iterative path.
fn bench_seeded_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("seeded_crossover");
    group.sample_size(10);
    for &n_side in &[16usize, 24, 32, 40] {
        let a = ac_like_slab_matrix(n_side, 4);
        let b = vec![Complex64::ONE; a.rows()];

        // The donor factorization happens once per pattern (the nominal
        // sample); its cost is excluded, exactly as in the seeded path.
        let donor = {
            let mut donor = SymbolicLu::new(&SparsityPattern::of(&a)).expect("symbolic");
            donor.factor(&a).expect("donor factorization");
            donor
        };
        group.bench_with_input(
            BenchmarkId::new("SeededRefactor", a.rows()),
            &(&a, &b, &donor),
            |bench, (a, b, donor)| {
                bench.iter(|| {
                    let mut handle = donor.seed_from();
                    let lu = handle.factor(a).expect("seeded refactorization");
                    lu.solve(b).expect("triangular solve")
                });
            },
        );

        // What the same sample costs if `Auto` abandons the seeded direct
        // path: a cold ILU(0) build, BiCGSTAB, and — on these systems —
        // the GMRES and direct-LU rescues once the iteration stagnates.
        group.bench_with_input(
            BenchmarkId::new("ColdAuto", a.rows()),
            &(&a, &b),
            |bench, (a, b)| {
                let solver = LinearSolver::new(SolverKind::Auto);
                bench.iter(|| {
                    solver
                        .prepare(a)
                        .and_then(|mut p| p.solve(b))
                        .expect("cold auto solve")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_seeded_crossover);
criterion_main!(benches);
