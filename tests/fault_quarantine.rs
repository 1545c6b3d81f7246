//! Tier-1 guarantees of the fault-injection and quarantine layer: with a
//! `VAEM_FAULTS` plan installed, the TSV-array statistics run and the
//! adaptive frequency sweep complete instead of aborting, their
//! `HealthReport`s record exactly the injected failures, and both the
//! results and the reports are bit-identical at `VAEM_THREADS=1` and `4` —
//! injection is keyed by `(stage, sample index)`, never by thread identity.
//!
//! This file intentionally holds a single test: it mutates the process-wide
//! `VAEM_FAULTS`/`VAEM_THREADS`/`VAEM_CHUNK` variables, so no other test may
//! race on them in this binary.

use vaem::experiments::tsv_array::TsvArrayExperiment;
use vaem::health::{FailureKind, SampleStage};
use vaem::mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
use vaem::{
    result_digest, AdaptiveSweepOptions, AdaptiveSweepResult, AnalysisConfig, AnalysisResult,
    DopingVariationConfig, QuantitySet, VariationSpec, VariationalAnalysis,
};

/// A 2×2 array trimmed for test runtime (the `tsv_array_determinism`
/// sizing): one retained factor per via group and 4 MC runs.
fn tiny_experiment() -> TsvArrayExperiment {
    let mut experiment = TsvArrayExperiment::quick();
    experiment.mc_runs = 4;
    experiment.max_reduced_per_group = 1;
    experiment
}

/// The adaptive sweep of the `adaptive_sweep_direct` benchmark workload:
/// the tiny, lightly doped metal plug with doping-only variation.
fn adaptive_analysis() -> VariationalAnalysis {
    let structure = build_metalplug_structure(&MetalPlugConfig::tiny());
    let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
        terminal: "plug1".to_string(),
    });
    config.nominal_donor = 2.0e1;
    config.energy_fraction = 0.9;
    config.max_reduced_per_group = 2;
    config.variations = VariationSpec {
        roughness: None,
        doping: Some(DopingVariationConfig {
            max_nodes: 10,
            ..DopingVariationConfig::paper_default()
        }),
        via_params: None,
    };
    VariationalAnalysis::new(structure, config)
}

/// Runs the benchmark's adaptive sweep (9 log-spaced points over
/// 0.1–10 GHz, 6 % tolerance) under the current fault plan at 1 and 4
/// threads, asserts that the spectra and the health report agree bit for
/// bit, and returns the 1-thread result with its values-only digest.
fn adaptive_sweep_at_1_and_4_threads() -> (AdaptiveSweepResult, String) {
    let span = (1.0e10_f64 / 1.0e8).ln();
    let coarse: Vec<f64> = (0..9)
        .map(|i| 1.0e8 * (span * i as f64 / 8.0).exp())
        .collect();
    let options = AdaptiveSweepOptions {
        rel_tolerance: 0.06,
        max_points: 96,
        max_depth: 6,
    };
    let analysis = adaptive_analysis();
    let digest = |result: &AdaptiveSweepResult| {
        let sweep = &result.sweep;
        let mut values = sweep.frequencies.clone();
        for q in &sweep.quantities {
            values.extend_from_slice(&q.nominal);
            for s in &q.sscm {
                values.extend([s.mean, s.std]);
            }
        }
        result_digest(values)
    };
    std::env::set_var("VAEM_THREADS", "1");
    let serial = analysis
        .run_adaptive_frequency_sweep(&coarse, &options)
        .expect("faulted adaptive sweep must still complete");
    std::env::set_var("VAEM_THREADS", "4");
    let parallel = analysis
        .run_adaptive_frequency_sweep(&coarse, &options)
        .expect("faulted parallel adaptive sweep");
    let values = digest(&serial);
    assert_eq!(
        values,
        digest(&parallel),
        "faulted spectra changed between VAEM_THREADS=1 and 4"
    );
    assert_eq!(
        serial.sweep.health, parallel.sweep.health,
        "the sweep's health report changed between VAEM_THREADS=1 and 4"
    );
    (serial, values)
}

/// `(index, kind)` of every recovered sample, in report order.
fn recovered(result: &AdaptiveSweepResult) -> Vec<(usize, FailureKind)> {
    result
        .sweep
        .health
        .recovered
        .iter()
        .map(|r| {
            assert_eq!(r.stage, SampleStage::Sscm);
            (r.index, r.kind)
        })
        .collect()
}

/// Exact (bit-level) fingerprint of the statistics a run reports.
fn fingerprint(result: &AnalysisResult) -> Vec<u64> {
    let mut bits = Vec::new();
    for q in &result.quantities {
        for v in [
            q.nominal,
            q.sscm.mean,
            q.sscm.std,
            q.monte_carlo.mean,
            q.monte_carlo.std,
        ] {
            bits.push(v.to_bits());
        }
        bits.extend(q.main_effects.iter().map(|e| e.to_bits()));
    }
    bits.extend(result.health.digest_values().iter().map(|v| v.to_bits()));
    bits
}

#[test]
fn injected_faults_are_contained_deterministically_across_thread_counts() {
    let experiment = tiny_experiment();

    // A sticky degenerate-mesh fault quarantines SSCM sample 1 (the retry
    // fails too); a plain NaN poisoning in MC run 2 is recovered by the
    // single deterministic retry.
    std::env::set_var("VAEM_FAULTS", "mesh@sscm:1!,nan@mc:2");
    std::env::set_var("VAEM_THREADS", "1");
    std::env::set_var("VAEM_CHUNK", "1");
    let serial = experiment.run().expect("faulted run must still complete");

    assert!(!serial.health.is_clean());
    assert_eq!(
        serial.health.quarantined_indices(SampleStage::Sscm),
        vec![1],
        "exactly the sticky mesh fault must be quarantined: {:?}",
        serial.health.quarantined
    );
    assert!(serial
        .health
        .quarantined_indices(SampleStage::Mc)
        .is_empty());
    assert_eq!(serial.health.quarantined.len(), 1);
    assert_eq!(
        serial.health.quarantined[0].kind,
        FailureKind::MeshDegenerate
    );
    assert!(
        serial
            .health
            .recovered
            .iter()
            .any(|r| r.stage == SampleStage::Mc && r.index == 2),
        "the plain NaN fault must be recovered by the retry: {:?}",
        serial.health.recovered
    );
    assert!(serial.health.counts.mesh_degenerate >= 1);
    assert!(serial.health.counts.non_finite >= 1);

    std::env::set_var("VAEM_THREADS", "4");
    let parallel = experiment.run().expect("faulted parallel run");
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "faulted statistics changed between VAEM_THREADS=1 and 4"
    );
    assert_eq!(
        serial.health, parallel.health,
        "the health report changed between VAEM_THREADS=1 and 4"
    );

    // Every site in the plan's grammar, injected alone (sticky, SSCM
    // sample 1), must leave the run completable — either transparently
    // rescued below the quarantine layer (a Krylov breakdown is absorbed by
    // the direct rescue inside the prepared solver) or recorded against
    // exactly the injected sample.
    std::env::set_var("VAEM_THREADS", "2");
    for (site, kind) in [
        ("pivot", FailureKind::SingularPivot),
        ("krylov", FailureKind::NonConvergence),
        ("nan", FailureKind::NonFinite),
        ("ilu", FailureKind::NonConvergence),
        ("mesh", FailureKind::MeshDegenerate),
    ] {
        std::env::set_var("VAEM_FAULTS", format!("{site}@sscm:1!"));
        let result = experiment
            .run()
            .unwrap_or_else(|e| panic!("site {site} must be contained, got: {e}"));
        for q in &result.health.quarantined {
            assert_eq!(q.stage, SampleStage::Sscm, "site {site}");
            assert_eq!(q.index, 1, "site {site}");
            assert_eq!(q.kind, kind, "site {site}: {:?}", result.health.quarantined);
        }
        assert!(
            result.health.quarantined.len() <= 1,
            "site {site} must hit one sample only: {:?}",
            result.health.quarantined
        );
    }

    // A sticky fault on the nominal evaluation is the one thing the run may
    // not survive: the nominal anchors every patched sample. (The `nan`
    // site arms on every solve path; `mesh` would be a no-op here because
    // the nominal solves the unperturbed structure without a rebuild.)
    std::env::set_var("VAEM_FAULTS", "nan@nominal!");
    assert!(
        experiment.run().is_err(),
        "a sticky nominal fault must hard-fail the run"
    );

    // The adaptive sweep contains failures through the same waves: sample
    // 1's sticky mesh fault is quarantined (its retry rebuilds the mesh and
    // fails again), sample 2's one-shot NaN is recovered and escalated, and
    // the refinement still ends with 28 points after 2 waves.
    std::env::set_var("VAEM_FAULTS", "mesh@sscm:1!,nan@sscm:2");
    let (sweep, _) = adaptive_sweep_at_1_and_4_threads();
    let health = &sweep.sweep.health;
    assert_eq!(health.quarantined_indices(SampleStage::Sscm), vec![1]);
    assert_eq!(health.quarantined.len(), 1);
    assert_eq!(health.quarantined[0].kind, FailureKind::MeshDegenerate);
    assert_eq!(recovered(&sweep), vec![(2, FailureKind::NonFinite)]);
    assert_eq!(sweep.sweep.frequencies.len(), 28);
    assert_eq!(sweep.waves, 2);

    // Two recoverable faults are listed in ascending sample order, as
    // `run` lists them, and leave the spectra as a recovery retry computes
    // them.
    std::env::set_var("VAEM_FAULTS", "nan@sscm:3,mesh@sscm:5");
    let (sweep, values) = adaptive_sweep_at_1_and_4_threads();
    assert!(sweep.sweep.health.quarantined.is_empty());
    assert_eq!(
        recovered(&sweep),
        vec![
            (3, FailureKind::NonFinite),
            (5, FailureKind::MeshDegenerate)
        ]
    );
    assert_eq!(values, "65f349d9a2764524");

    // And with the plan cleared the same process produces a healthy run.
    std::env::remove_var("VAEM_FAULTS");
    let clean = experiment.run().expect("clean run");
    assert!(clean.health.is_clean());
    assert!(clean.health.digest_values().is_empty());

    std::env::remove_var("VAEM_THREADS");
    std::env::remove_var("VAEM_CHUNK");
}
