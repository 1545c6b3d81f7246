//! Criterion bench: stochastic machinery — collocation-grid generation,
//! chaos fitting (single output and the multi-output SSCM fit) and the
//! wPFA/PFA reductions at paper-scale dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vaem_stochastic::{CollocationGrid, HermiteBasis, PolynomialChaos, SparseCollocation};
use vaem_variation::{covariance_matrix, CorrelationKernel, Pfa, VariableReduction, Wpfa};

fn bench_stochastic(c: &mut Criterion) {
    let mut group = c.benchmark_group("stochastic");
    group.sample_size(10);

    // Collocation grid generation at the paper's dimensions (22 and 34).
    for &dim in &[22usize, 34] {
        group.bench_with_input(BenchmarkId::new("collocation_grid", dim), &dim, |b, &d| {
            b.iter(|| CollocationGrid::level2(d).len());
        });
    }

    // Quadratic chaos fit for d = 10 reduced variables.
    group.bench_function("pce_fit_d10", |b| {
        let sscm = SparseCollocation::new(10);
        let values: Vec<f64> = sscm
            .points()
            .iter()
            .map(|z| 1.0 + z.iter().sum::<f64>() + z[0] * z[1])
            .collect();
        let points = sscm.points().to_vec();
        b.iter(|| PolynomialChaos::fit(HermiteBasis::new(10, 2), &points, &values).expect("fit"));
    });

    // The Table-II SSCM fit: 14 reduced variables (435 collocation runs,
    // 120 chaos coefficients) and 6 outputs off one design factorization.
    group.bench_function("sscm_fit_d14x6", |b| {
        let sscm = SparseCollocation::new(14);
        let runs: Vec<Vec<f64>> = sscm
            .points()
            .iter()
            .map(|z| {
                (0..6)
                    .map(|q| 1.0 + 0.1 * z[q] + 0.05 * z[q + 6] * z[13])
                    .collect()
            })
            .collect();
        b.iter(|| sscm.fit(&runs).expect("fit").len());
    });

    // PFA vs wPFA on a 128-variable covariance (the Table-II doping group).
    let positions: Vec<[f64; 3]> = (0..128)
        .map(|i| [(i % 16) as f64 * 0.6, (i / 16) as f64 * 0.6, 0.0])
        .collect();
    let cov = covariance_matrix(
        &positions,
        0.1,
        CorrelationKernel::Exponential { length: 0.5 },
    );
    let weights: Vec<f64> = (0..128).map(|i| 1.0 / (1.0 + (i % 16) as f64)).collect();
    group.bench_function("pfa_128", |b| {
        b.iter(|| Pfa::new(&cov, 0.95).expect("pfa").reduced_dim());
    });
    group.bench_function("wpfa_128", |b| {
        b.iter(|| Wpfa::new(&cov, &weights, 0.95).expect("wpfa").reduced_dim());
    });

    group.finish();
}

criterion_group!(benches, bench_stochastic);
criterion_main!(benches);
