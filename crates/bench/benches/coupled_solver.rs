//! Criterion bench: the deterministic coupled solver stages on the
//! metal-plug structure (DC Newton, AC electro-quasi-static solve) — the
//! per-sample cost that dominates both SSCM and MC.

use criterion::{criterion_group, criterion_main, Criterion};
use vaem_fvm::{CoupledSolver, SolverOptions};
use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
use vaem_physics::DopingProfile;

fn bench_coupled(c: &mut Criterion) {
    let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
    let semis = structure.semiconductor_nodes();
    let doping = DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);

    let mut group = c.benchmark_group("coupled_solver");
    group.sample_size(10);

    group.bench_function("dc_newton", |b| {
        let solver = CoupledSolver::new(&structure, &doping, SolverOptions::default()).unwrap();
        b.iter(|| solver.solve_dc().expect("dc"));
    });

    group.bench_function("ac_quasi_static_1ghz", |b| {
        let solver = CoupledSolver::new(&structure, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        b.iter(|| solver.solve_ac(&dc, "plug1", 1.0e9).expect("ac"));
    });

    group.finish();
}

criterion_group!(benches, bench_coupled);
criterion_main!(benches);
