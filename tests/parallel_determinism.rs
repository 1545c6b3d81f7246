//! Tier-1 guarantee of the parallel sweep engine: `VariationalAnalysis::run`
//! must produce bit-for-bit identical results for any `VAEM_THREADS` value
//! and any work-stealing claim granularity (`VAEM_CHUNK`), because every
//! Monte-Carlo run owns a `(seed, run-index)`-derived RNG stream and the
//! SSCM fan-out writes each collocation result to its input slot — which
//! worker computes an item never changes what is computed. The per-sample
//! costs are naturally ragged (Newton iteration counts vary with the doping
//! perturbation), so sweeping thread counts × chunk sizes exercises the
//! stealing queue under genuinely skewed work.
//!
//! This file intentionally holds a single test: it mutates the process-wide
//! `VAEM_THREADS`/`VAEM_CHUNK` variables, so no other test may race on them
//! in this binary.

use vaem::config::{AnalysisConfig, DopingVariationConfig, QuantitySet, VariationSpec};
use vaem::{AnalysisResult, VariationalAnalysis};
use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};

fn tiny_analysis() -> VariationalAnalysis {
    let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
    let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
        terminal: "plug1".to_string(),
    });
    config.mc_runs = 6;
    config.energy_fraction = 0.9;
    config.max_reduced_per_group = 2;
    config.seed = 0xD5EED;
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

/// Exact (bit-level) fingerprint of everything statistical in a result: the
/// PCE-derived SSCM moments and main effects and the Monte-Carlo reference
/// moments.
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
fn run_is_bit_identical_across_thread_counts_and_chunk_sizes() {
    std::env::set_var("VAEM_THREADS", "1");
    let serial = tiny_analysis().run().expect("serial run");
    let reference = fingerprint(&serial);

    // Thread counts exercise the fan-out; claim granularities exercise the
    // work-stealing queue (1 = maximal stealing on the ragged Newton
    // costs, 64 = one contiguous claim per worker, unset = auto-tuned).
    for threads in [2, 4] {
        std::env::set_var("VAEM_THREADS", threads.to_string());
        for chunk in [Some(1), Some(3), Some(64), None] {
            match chunk {
                Some(c) => std::env::set_var("VAEM_CHUNK", c.to_string()),
                None => std::env::remove_var("VAEM_CHUNK"),
            }
            let parallel = tiny_analysis().run().expect("parallel run");
            assert_eq!(
                reference,
                fingerprint(&parallel),
                "PCE coefficients / MC statistics changed under \
                 VAEM_THREADS={threads} VAEM_CHUNK={chunk:?}:\n\
                 serial   = {serial:?}\n\
                 parallel = {parallel:?}"
            );
        }
    }
    std::env::remove_var("VAEM_THREADS");
    std::env::remove_var("VAEM_CHUNK");
}
