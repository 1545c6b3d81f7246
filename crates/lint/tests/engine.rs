//! Fixture self-tests for the vaem-lint rule engine: every fixture under
//! `tests/fixtures/` pins the exact `(rule, line)` pairs it must produce,
//! so a lexer or rule regression shows up as a changed triple, not just a
//! changed count.

use vaem_lint::lint_workspace;
use vaem_lint::rules::{lint_source, FileReport, D4_UNSAFE_FILES};

/// The `(rule id, line)` pairs of a report's unwaived violations, sorted.
fn violation_pairs(report: &FileReport) -> Vec<(&str, usize)> {
    let mut pairs: Vec<(&str, usize)> = report
        .violations
        .iter()
        .map(|f| (f.rule.id(), f.line))
        .collect();
    pairs.sort();
    pairs
}

fn d5_lines(report: &FileReport) -> Vec<usize> {
    report.d5_sites.iter().map(|f| f.line).collect()
}

#[test]
fn hash_iteration_fixture_yields_exact_triples() {
    let report = lint_source(
        "crates/lint/tests/fixtures/bad_hash_iter.rs",
        include_str!("fixtures/bad_hash_iter.rs"),
    );
    // Line 7 declares the map, line 9 both iterates (`.keys()`) and loops
    // (`for … in`) over it, line 12 loops over a reference to it. The
    // `use` on line 4 and the `#[cfg(test)]` module are exempt.
    assert_eq!(
        violation_pairs(&report),
        vec![("D1", 7), ("D1", 9), ("D1", 9), ("D1", 12)]
    );
    assert!(report.waived.is_empty());
}

#[test]
fn waiver_suppresses_exactly_one_finding() {
    let report = lint_source(
        "crates/lint/tests/fixtures/waived_hash.rs",
        include_str!("fixtures/waived_hash.rs"),
    );
    // The trailing waiver on line 7 removes that line's finding and ONLY
    // that finding; the identical pattern on line 12 still violates.
    assert_eq!(violation_pairs(&report), vec![("D1", 12)]);
    assert_eq!(report.waived.len(), 1);
    let (finding, reason) = &report.waived[0];
    assert_eq!((finding.rule.id(), finding.line), ("D1", 7));
    assert_eq!(reason, "lookup-only map, never iterated");
}

#[test]
fn env_thread_time_fixture_yields_exact_triples() {
    let report = lint_source(
        "crates/lint/tests/fixtures/bad_env_thread_time.rs",
        include_str!("fixtures/bad_env_thread_time.rs"),
    );
    assert_eq!(
        violation_pairs(&report),
        vec![("D2", 8), ("D3", 17), ("D6", 22)]
    );
    // The standalone waiver on line 12 targets the next code line (13).
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].0.line, 13);
}

#[test]
fn unsafe_fixture_flags_missing_safety_comments() {
    // Under an allowlisted path only the two uncommented `unsafe` tokens
    // violate: the bare block (line 11) and the Sync impl whose comment
    // is separated by the Send impl (line 17).
    let report = lint_source(
        "crates/parallel/src/lib.rs",
        include_str!("fixtures/bad_unsafe.rs"),
    );
    assert_eq!(violation_pairs(&report), vec![("D4", 11), ("D4", 17)]);
}

#[test]
fn unsafe_fixture_outside_allowlist_flags_every_token() {
    let report = lint_source(
        "crates/lint/tests/fixtures/bad_unsafe.rs",
        include_str!("fixtures/bad_unsafe.rs"),
    );
    assert_eq!(
        violation_pairs(&report),
        vec![("D4", 7), ("D4", 11), ("D4", 16), ("D4", 17)]
    );
}

#[test]
fn strict_runs_flag_an_allowlisted_file_without_unsafe() {
    // A scratch workspace holding just the allowlisted files. While their
    // only `unsafe` sits in a test module, a strict run reports each of
    // them and a lenient run reports nothing; once each holds a documented
    // `unsafe fn`, the strict run is clean too.
    let root = std::env::temp_dir().join(format!("vaem-lint-d4-{}", std::process::id()));
    let write_all = |source: &str| {
        for rel in D4_UNSAFE_FILES {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("file has a parent")).unwrap();
            std::fs::write(&path, source).unwrap();
        }
    };
    write_all(
        "pub fn safe() {}\n\n#[cfg(test)]\nmod tests {\n    // SAFETY: nothing to uphold.\n    unsafe fn f() {}\n}\n",
    );
    let strict = lint_workspace(&root, true).unwrap();
    let lenient = lint_workspace(&root, false).unwrap();
    write_all("/// # Safety\n/// Nothing to uphold.\npub unsafe fn f() {}\n");
    let with_unsafe = lint_workspace(&root, true).unwrap();
    std::fs::remove_dir_all(&root).unwrap();

    let flagged: Vec<(&str, &str, usize)> = strict
        .violations
        .iter()
        .map(|(path, f)| (path.as_str(), f.rule.id(), f.line))
        .collect();
    let expected: Vec<(&str, &str, usize)> =
        D4_UNSAFE_FILES.iter().map(|&rel| (rel, "D4", 1)).collect();
    assert_eq!(flagged, expected);
    assert!(lenient.is_clean());
    assert!(with_unsafe.is_clean());
}

#[test]
fn panic_sites_count_only_outside_tests() {
    // Under a solver-library path the three non-test panic paths are
    // recorded as budget sites, not direct violations.
    let report = lint_source(
        "crates/fvm/src/fixture.rs",
        include_str!("fixtures/bad_unwrap.rs"),
    );
    assert!(report.violations.is_empty());
    assert_eq!(d5_lines(&report), vec![6, 7, 9]);

    // Under a non-library path (the fixture's real one) D5 is out of scope.
    let tooling = lint_source(
        "crates/lint/tests/fixtures/bad_unwrap.rs",
        include_str!("fixtures/bad_unwrap.rs"),
    );
    assert!(tooling.d5_sites.is_empty());
}

#[test]
fn waiver_hygiene_fixture_yields_w0_and_w1() {
    let report = lint_source(
        "crates/lint/tests/fixtures/waiver_no_reason.rs",
        include_str!("fixtures/waiver_no_reason.rs"),
    );
    // A reason-less waiver is W0 and suppresses nothing (the D1 on its
    // line survives); an unknown rule id, an unused waiver and a directive
    // that is not a waiver are W1.
    assert_eq!(
        violation_pairs(&report),
        vec![("D1", 7), ("W0", 7), ("W1", 12), ("W1", 17), ("W1", 22)]
    );
    assert!(report.waived.is_empty());
}

#[test]
fn adversarial_lexing_produces_no_findings() {
    // Everything violation-shaped in this fixture hides inside comments,
    // strings, raw strings or char literals; flag nothing — under the
    // fixture's own path and under a solver-library path (D5 scope).
    for path in [
        "crates/lint/tests/fixtures/lexer_tricky.rs",
        "crates/mesh/src/fixture.rs",
    ] {
        let report = lint_source(path, include_str!("fixtures/lexer_tricky.rs"));
        assert!(report.violations.is_empty(), "violations under {path}");
        assert!(report.d5_sites.is_empty(), "d5 sites under {path}");
        assert!(report.waived.is_empty(), "waived under {path}");
    }
}
