//! Tier-1 guarantees of the TSV-array experiment that need no environment
//! mutation: the mesh scales with the grid, and the nominal K×K coupling
//! matrix is physically sane — reciprocal (the AC operator is symmetric,
//! so C[i][j] = C[j][i] up to solver tolerance) with negative couplings
//! that decay with grid distance.
//!
//! The thread-determinism guarantee lives in `tests/tsv_array_determinism.rs`
//! (it mutates `VAEM_THREADS`, so it owns its test binary).

use vaem::experiments::tsv_array::TsvArrayExperiment;
use vaem::AnalysisError;
use vaem_fvm::{CoupledSolver, FvmError, SolverOptions};
use vaem_mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
use vaem_physics::DopingProfile;

#[test]
fn contacts_and_facets_scale_with_the_grid() {
    let mut last_nodes = 0;
    for (rows, cols) in [(1, 2), (2, 2), (2, 3)] {
        let cfg = TsvArrayConfig::coarse(rows, cols);
        let s = build_tsv_array_structure(&cfg).expect("coarse grid builds");
        assert_eq!(
            s.contacts.len(),
            rows * cols,
            "{rows}x{cols} must expose one terminal per via"
        );
        assert_eq!(
            s.rough_facets.len(),
            4 * rows * cols,
            "{rows}x{cols} must expose four wall facets per via"
        );
        for name in cfg.via_names() {
            assert!(
                s.contact(&name).is_some_and(|c| !c.nodes.is_empty()),
                "terminal {name} missing or empty"
            );
        }
        assert!(
            s.mesh.node_count() > last_nodes,
            "node count must grow with the array ({rows}x{cols}: {})",
            s.mesh.node_count()
        );
        last_nodes = s.mesh.node_count();
    }
}

#[test]
fn nominal_coupling_matrix_is_reciprocal_and_distance_ordered() {
    let experiment = TsvArrayExperiment::quick();
    let report = experiment.nominal_report().expect("nominal 2x2 report");
    let k = report.via_names.len();
    assert_eq!(k, 4);

    // Reciprocity: each column is extracted from an independent driven
    // solve, so C[i][j] ≈ C[j][i] only if the discretization and the shared
    // factorization are consistent. 1% of the largest self capacitance is
    // far above solver noise (measured defect ~1e-7) but catches any sign
    // or indexing slip.
    assert!(
        report.reciprocity_defect() < 1e-2,
        "reciprocity defect {:.3e} exceeds 1%",
        report.reciprocity_defect()
    );

    for i in 0..k {
        assert!(
            report.coupling[i][i] > 0.0,
            "self capacitance of {} must be positive",
            report.via_names[i]
        );
        for j in 0..k {
            if i != j {
                assert!(
                    report.coupling[i][j] < 0.0,
                    "coupling C[{i}][{j}] = {} must be negative",
                    report.coupling[i][j]
                );
            }
        }
    }

    // In the 2x2 grid the diagonal pair (distance √2) must couple more
    // weakly than a nearest-neighbour pair (distance 1).
    let neighbour = report.coupling[0][1].abs();
    let diagonal = report.coupling[0][3].abs();
    assert!(
        diagonal < neighbour,
        "diagonal coupling {diagonal} must be below nearest-neighbour {neighbour}"
    );

    // The crosstalk matrix is the positive, victim-normalised view.
    let x = report.crosstalk();
    for i in 0..k {
        assert_eq!(x[i][i], 0.0);
        for j in 0..k {
            if i != j {
                assert!(x[i][j] > 0.0 && x[i][j] < 1.0, "X[{i}][{j}] = {}", x[i][j]);
            }
        }
    }

    // Victim spectra cover every non-aggressor via, tagged with the right
    // grid distances, and every induced-current ratio is finite and positive.
    assert_eq!(report.victims.len(), k - 1);
    for victim in &report.victims {
        assert!(victim.grid_distance >= 1.0);
        assert_eq!(victim.spectrum.len(), experiment.sweep_points);
        for &(f, ratio) in &victim.spectrum {
            assert!(f > 0.0);
            assert!(
                ratio.is_finite() && ratio > 0.0,
                "victim {} ratio {ratio} at {f} Hz",
                victim.victim
            );
        }
    }
}

/// Pins the quick 2×2 nominal extraction bit for bit: the digest of every
/// result value, and the ILU(0)+BiCGSTAB iteration count of each
/// capacitance column. A change to the sparse kernels that moves a single
/// floating-point operation of these solves fails here, not only in the
/// benchmark's digest check.
#[test]
fn quick_nominal_report_and_column_iterations_are_pinned() {
    let experiment = TsvArrayExperiment::quick();
    let report = experiment.nominal_report().expect("nominal 2x2 report");
    assert_eq!(report.digest(), "f0961453c4f02f7e");

    let structure = build_tsv_array_structure(&experiment.geometry).expect("quick grid builds");
    let semis = structure.semiconductor_nodes();
    let doping = DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);
    let solver =
        CoupledSolver::new(&structure, &doping, SolverOptions::default()).expect("solver builds");
    let dc = solver.solve_dc().expect("DC point");
    let mut operator = solver
        .prepare_ac(&dc, experiment.frequency)
        .expect("AC operator");
    assert_eq!(operator.unknown_count(), 1197);
    let names = experiment.geometry.via_names();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let columns = operator
        .solve_terminals(&names, |ac| Ok((ac.solver_strategy, ac.krylov_iterations)))
        .expect("capacitance columns");
    assert!(
        columns
            .iter()
            .all(|&(strategy, _)| strategy == "ilu0-bicgstab"),
        "{columns:?}"
    );
    let iterations: Vec<usize> = columns.iter().map(|&(_, it)| it).collect();
    assert_eq!(iterations, [19, 22, 22, 18]);
}

/// The aggressor sweep runs beside the capacitance columns, but its errors
/// still resolve in the serial order: the matrix's, then the aggressor
/// check, then the sweep's. A negative lower sweep bound puts NaN points on
/// the log grid, which the sweep rejects; an aggressor outside the via
/// grid fails the aggressor check, even when the grid is broken too.
#[test]
fn nominal_report_errors_keep_their_serial_order() {
    let mut nan_grid = TsvArrayExperiment::quick();
    nan_grid.sweep_range = (-1.0e8, 1.0e10);
    assert!(nan_grid.sweep_grid().iter().any(|f| f.is_nan()));
    match nan_grid.nominal_report() {
        Err(AnalysisError::Solver(FvmError::Configuration { detail })) => {
            assert_eq!(detail, "invalid AC frequency NaN Hz");
        }
        other => panic!("NaN sweep point: {other:?}"),
    }

    let mut outside = TsvArrayExperiment::quick();
    outside.aggressor = (5, 5);
    let mut both = outside.clone();
    both.sweep_range = nan_grid.sweep_range;
    for experiment in [outside, both] {
        match experiment.nominal_report() {
            Err(AnalysisError::Configuration(detail)) => {
                assert_eq!(detail, "aggressor 'via_5_5' is not a via terminal");
            }
            other => panic!("aggressor outside the grid: {other:?}"),
        }
    }
}
