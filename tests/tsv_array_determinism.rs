//! Tier-1 guarantee of the TSV-array statistics: crosstalk statistics and
//! the nominal report digest must be bit-for-bit identical for any
//! `VAEM_THREADS` value, because every Monte-Carlo run derives its RNG
//! stream from `(seed, run-index)` and every SSCM collocation result is
//! written to its input slot — which worker computes an item never changes
//! what is computed. This is the property the CI determinism matrix checks
//! end to end through the `tsv_array --digest` binary; here it is pinned
//! at the library level.
//!
//! This file intentionally holds a single test: it mutates the process-wide
//! `VAEM_THREADS`/`VAEM_CHUNK` variables, so no other test may race on them
//! in this binary.

use vaem::experiments::tsv_array::TsvArrayExperiment;
use vaem::AnalysisResult;

/// A 2×2 array trimmed for test runtime: one retained factor per via group
/// keeps the SSCM collocation grid small, and 4 MC runs are enough to
/// expose any thread-dependent sampling.
fn tiny_experiment() -> TsvArrayExperiment {
    let mut experiment = TsvArrayExperiment::quick();
    experiment.mc_runs = 4;
    experiment.max_reduced_per_group = 1;
    experiment
}

/// Exact (bit-level) fingerprint of everything the crosstalk statistics
/// report: nominal value, SSCM moments, MC moments and the per-dimension
/// Sobol main effects of every matrix entry.
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
    bits.push(result.collocation_runs as u64);
    bits.push(result.mc_runs as u64);
    bits
}

#[test]
fn crosstalk_statistics_are_bit_identical_across_thread_counts() {
    std::env::set_var("VAEM_THREADS", "1");
    std::env::set_var("VAEM_CHUNK", "1");
    let experiment = tiny_experiment();
    let serial = experiment.run().expect("serial run");
    let reference = fingerprint(&serial);
    let nominal_digest = experiment.nominal_report().expect("nominal").digest();

    std::env::set_var("VAEM_THREADS", "4");
    let parallel = experiment.run().expect("parallel run");
    assert_eq!(
        reference,
        fingerprint(&parallel),
        "crosstalk statistics changed between VAEM_THREADS=1 and 4"
    );
    // 2 is the calling thread plus one spawned worker, the split the
    // benchmark runs: the aggressor sweep overlaps the one worker's columns.
    for threads in ["2", "4"] {
        std::env::set_var("VAEM_THREADS", threads);
        assert_eq!(
            nominal_digest,
            experiment.nominal_report().expect("nominal").digest(),
            "nominal coupling/sweep digest changed between VAEM_THREADS=1 and {threads}"
        );
    }

    std::env::remove_var("VAEM_THREADS");
    std::env::remove_var("VAEM_CHUNK");
}
