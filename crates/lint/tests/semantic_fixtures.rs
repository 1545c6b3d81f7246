//! Fixture self-tests for the semantic rule families (H/P/E): each seeded
//! fixture pins the exact `(rule, line)` pairs the whole-set pipeline
//! (`lint_sources`) must produce, plus the shape of the call-graph trace
//! in the diagnostic text. The fixtures are fed under library-looking
//! virtual paths because the E rules (and nothing else) are path-scoped.

use std::collections::BTreeMap;
use vaem_lint::{lint_sources, WorkspaceReport};

fn run_fixture(virtual_path: &str, source: &str) -> WorkspaceReport {
    let sources = vec![(virtual_path.to_string(), source.to_string())];
    lint_sources(&sources, &BTreeMap::new(), false)
}

/// The `(rule id, line)` pairs of the unwaived violations, sorted.
fn violation_pairs(report: &WorkspaceReport) -> Vec<(&str, usize)> {
    let mut pairs: Vec<(&str, usize)> = report
        .violations
        .iter()
        .map(|(_, f)| (f.rule.id(), f.line))
        .collect();
    pairs.sort();
    pairs
}

#[test]
fn hot_path_fixture_yields_exact_triples_with_traces() {
    let report = run_fixture(
        "crates/sparse/src/bad_hot_path.rs",
        include_str!("fixtures/bad_hot_path.rs"),
    );
    // The closure on line 5 roots the graph; `helper` (reached directly)
    // allocates on 9 and 11, clones on 10 and hits H3 twice (lock 12,
    // print macro 13). `scale` (reached through `helper`) allocates on 18
    // but carries a trailing waiver.
    assert_eq!(
        violation_pairs(&report),
        vec![("H1", 9), ("H1", 11), ("H2", 10), ("H3", 12), ("H3", 13)]
    );
    // Every H diagnostic must print the path from the parallel root.
    for (_, f) in &report.violations {
        assert!(
            f.message
                .contains("hot path: par_map_mut closure (crates/sparse/src/bad_hot_path.rs:5"),
            "missing root in trace: {}",
            f.message
        );
        assert!(
            f.message.contains("in drive)"),
            "missing enclosing fn in trace: {}",
            f.message
        );
    }
    // The finding in `scale` sits two hops from the root, so its trace
    // names the intermediate callee; waiving works across the semantic
    // merge exactly like for token rules.
    assert_eq!(report.waived.len(), 1);
    let (_, waived, reason) = &report.waived[0];
    assert_eq!((waived.rule.id(), waived.line), ("H1", 18));
    assert!(
        waived.message.contains("→ helper → scale]"),
        "{}",
        waived.message
    );
    assert_eq!(
        reason,
        "fixture waiver: pins the semantic-merge waiver flow"
    );
}

#[test]
fn stage_purity_fixture_yields_exact_triples() {
    let report = run_fixture(
        "crates/core/src/bad_stage_purity.rs",
        include_str!("fixtures/bad_stage_purity.rs"),
    );
    // The stage annotation on line 4 covers `digest`; `impure` (reached
    // from it) constructs an RNG (10), reads the environment (11, which
    // the D2 token rule also flags), builds interior mutability (12) and
    // opens a file (13).
    assert_eq!(
        violation_pairs(&report),
        vec![("D2", 11), ("P1", 10), ("P1", 11), ("P1", 12), ("P1", 13)]
    );
    for (_, f) in &report.violations {
        if f.rule.id() == "P1" {
            assert!(
                f.message.contains("stage path: digest → impure"),
                "missing stage trace: {}",
                f.message
            );
        }
    }
}

#[test]
fn error_hygiene_fixture_yields_exact_triples() {
    let report = run_fixture(
        "crates/core/src/bad_error_hygiene.rs",
        include_str!("fixtures/bad_error_hygiene.rs"),
    );
    // Line 8 discards a Result with `let _ =`, line 9 drops the `.ok()`
    // value, line 12 swallows the error arm. Line 14 BINDS the `.ok()`
    // value, so it must not fire.
    assert_eq!(
        violation_pairs(&report),
        vec![("E1", 8), ("E1", 9), ("E2", 12)]
    );
}

#[test]
fn error_rules_stay_out_of_non_library_paths() {
    // The same error-hygiene source under a bench path produces nothing:
    // E rules audit the solver library crates only.
    let report = run_fixture(
        "crates/bench/src/bad_error_hygiene.rs",
        include_str!("fixtures/bad_error_hygiene.rs"),
    );
    assert_eq!(violation_pairs(&report), vec![]);
}
