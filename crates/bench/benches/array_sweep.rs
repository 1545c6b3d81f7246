//! Criterion bench: the TSV-array nominal coupling extraction at 2×2,
//! 3×3 and 4×4 — the workloads whose AC systems are large enough to
//! pressure the direct-LU wall (ROADMAP item 2). Larger grids (e.g. 5×5)
//! can be requested with `VAEM_ARRAY_ROWS`/`VAEM_ARRAY_COLS`, which add
//! one extra `array_sweep_{rows}x{cols}` entry.
//!
//! Each iteration solves the DC operating point, extracts the full K×K
//! coupling-capacitance matrix through one shared AC factorization, and
//! runs the aggressor/victim frequency sweep — the deterministic path of
//! the `tsv_array` binary, with the stochastic stage excluded so the
//! timings isolate the per-mesh solver cost from sampling noise.
//!
//! `capacitance_matrix_4x4` times the K = 16 capacitance columns alone: the
//! DC point is solved once outside the timed closure, so each iteration is
//! one AC preparation plus the batched column solves, which fan out over
//! `VAEM_THREADS` workers (`VAEM_THREADS=1` runs the serial column loop).

use criterion::{criterion_group, criterion_main, Criterion};
use vaem::experiments::tsv_array::TsvArrayExperiment;
use vaem_fvm::{postprocess, CoupledSolver, SolverOptions};
use vaem_mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
use vaem_physics::DopingProfile;

fn nominal(experiment: &TsvArrayExperiment) -> f64 {
    let report = experiment.nominal_report().expect("nominal array report");
    assert!(
        report.reciprocity_defect() < 0.05,
        "coupling matrix lost reciprocity"
    );
    report.coupling[0][0]
}

/// A quick-mode experiment on an `rows`×`cols` coarse grid with the
/// aggressor pinned near the grid center, so every victim via has a
/// non-trivial coupling path.
fn grid_experiment(rows: usize, cols: usize) -> TsvArrayExperiment {
    let mut experiment = TsvArrayExperiment::quick();
    experiment.geometry = TsvArrayConfig::coarse(rows, cols);
    experiment.aggressor = (rows / 2, cols / 2);
    experiment
}

fn bench_array_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("array_sweep");
    group.sample_size(2);

    let quick = TsvArrayExperiment::quick();
    group.bench_function("array_sweep_2x2", |b| b.iter(|| nominal(&quick)));

    for dims in [(3usize, 3usize), (4, 4)] {
        let experiment = grid_experiment(dims.0, dims.1);
        group.bench_function(format!("array_sweep_{}x{}", dims.0, dims.1), |b| {
            b.iter(|| nominal(&experiment))
        });
    }

    let structure = build_tsv_array_structure(&TsvArrayConfig::coarse(4, 4)).expect("4x4 array");
    let semis = structure.semiconductor_nodes();
    let doping = DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);
    let solver =
        CoupledSolver::new(&structure, &doping, SolverOptions::default()).expect("array solver");
    let dc = solver.solve_dc().expect("array DC point");
    let frequency = quick.frequency;
    group.bench_function("capacitance_matrix_4x4", |b| {
        b.iter(|| {
            let matrix =
                postprocess::capacitance_matrix(&solver, &dc, frequency).expect("4x4 matrix");
            assert_eq!(matrix.len(), 16, "one column per via");
            matrix
        })
    });

    // Optional extra size (5×5 and beyond) via the same environment knobs
    // the `tsv_array` binary honours. Defaults of 0 mean "not requested".
    let (rows, cols) = vaem_bench::array_dims(0, 0);
    let builtin = [(2, 2), (3, 3), (4, 4)];
    if rows >= 2 && cols >= 2 && !builtin.contains(&(rows, cols)) {
        let experiment = grid_experiment(rows, cols);
        group.bench_function(format!("array_sweep_{rows}x{cols}"), |b| {
            b.iter(|| nominal(&experiment))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_array_sweep);
criterion_main!(benches);
