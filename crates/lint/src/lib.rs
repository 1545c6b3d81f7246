//! `vaem-lint` — a workspace-aware determinism & safety static-analysis
//! pass for the VAEM reproduction.
//!
//! The repository's headline guarantee (bit-identical results at any thread
//! count) is enforced dynamically by digest diffs and determinism tests; the
//! hazards that would break it are textual and auditable. This crate ships a
//! small self-contained Rust lexer ([`lexer`]), a per-file token rule engine
//! ([`rules`], rules D1–D6 plus the waiver rules W0/W1) and a panic-path
//! budget ratchet ([`budget`]). The `vaem-lint` binary walks `crates/*/src`
//! and the root facade `src/`, reports span-accurate findings, and exits
//! nonzero on any unwaived violation — see the README "Correctness tooling"
//! section and `crates/lint/RULES.md` for the rule catalog and waiver
//! syntax.

#![warn(missing_docs)]

pub mod budget;
pub mod lexer;
pub mod rules;

use budget::Budget;
use rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Name of the budget file at the workspace root.
pub const BUDGET_FILE: &str = "lint_budget.toml";

/// The lint outcome across a set of files.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Unwaived violations as `(workspace-relative path, finding)`, sorted.
    pub violations: Vec<(String, Finding)>,
    /// Waived findings as `(path, finding, reason)`.
    pub waived: Vec<(String, Finding, String)>,
    /// Observed per-file D5 site counts (after waivers, zero counts kept).
    pub d5_counts: Budget,
    /// Files holding `unsafe` outside test code.
    pub unsafe_files: BTreeSet<String>,
    /// Number of files linted.
    pub files_checked: usize,
}

impl WorkspaceReport {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An I/O or configuration error from the workspace driver.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Collects the workspace-relative source files the gate lints: everything
/// under `crates/*/src` plus the root facade `src/`, sorted for
/// deterministic reports. Fixtures, `tests/`, `benches/`, `examples/` and
/// the vendored `shims/` are intentionally out of scope — the rules guard
/// *library* code.
///
/// # Errors
/// Fails when a directory cannot be read.
pub fn collect_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| LintError(format!("cannot read {}: {e}", crates_dir.display())))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(root, &src, &mut files)?;
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        walk(root, &facade, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| LintError(format!("cannot read {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| LintError(format!("{} escapes the root", path.display())))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Lints the given workspace-relative files against `budget_map` and folds
/// the per-file reports into one [`WorkspaceReport`]. With `strict_budget`,
/// a recorded budget above the observed count is itself a violation (the
/// recording is stale and must ratchet down).
///
/// # Errors
/// Fails when a file cannot be read.
pub fn lint_files(
    root: &Path,
    rel_paths: &[String],
    budget_map: &Budget,
    strict_budget: bool,
) -> Result<WorkspaceReport, LintError> {
    let mut report = WorkspaceReport::default();
    for rel in rel_paths {
        let abs = root.join(rel);
        let source = std::fs::read_to_string(&abs)
            .map_err(|e| LintError(format!("cannot read {}: {e}", abs.display())))?;
        let file = rules::lint_source(rel, &source);
        report.files_checked += 1;
        for f in file.violations {
            report.violations.push((rel.clone(), f));
        }
        for (f, reason) in file.waived {
            report.waived.push((rel.clone(), f, reason));
        }
        if file.has_unsafe {
            report.unsafe_files.insert(rel.clone());
        }
        let count = file.d5_sites.len();
        let allowed = budget_map.get(rel).copied().unwrap_or(0);
        if count > allowed {
            // Anchor the violation at the first site past the budget so the
            // report points at the newest debt.
            let site = &file.d5_sites[allowed.min(count - 1)];
            report.violations.push((
                rel.clone(),
                Finding {
                    rule: Rule::D5,
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "{count} panic-path sites exceed the file's budget of \
                         {allowed} ({BUDGET_FILE} only ratchets down; remove \
                         the new site or waive it with a reason)"
                    ),
                },
            ));
        } else if strict_budget && count < allowed {
            report.violations.push((
                rel.clone(),
                Finding {
                    rule: Rule::D5,
                    line: 1,
                    col: 1,
                    message: format!(
                        "stale budget: {allowed} recorded but only {count} \
                         panic-path sites remain; run `vaem-lint \
                         --update-budget` to ratchet down"
                    ),
                },
            ));
        }
        if rules::D5_LIBRARY_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p))
        {
            report.d5_counts.insert(rel.clone(), count);
        }
    }
    report
        .violations
        .sort_by(|a, b| (a.0.as_str(), a.1.line, a.1.col).cmp(&(b.0.as_str(), b.1.line, b.1.col)));
    Ok(report)
}

/// Convenience entry point: collect the default file set, load the budget
/// file (missing file = empty budget), lint everything. On strict runs the
/// full file set is known, so a budget entry for a file that no longer
/// exists is reported as a stale-budget violation (anchored at the budget
/// file itself) instead of lingering silently, and so is a D4-allowlisted
/// file that holds no `unsafe` outside its tests (anchored at that file).
///
/// # Errors
/// Propagates I/O and budget-parse failures.
pub fn lint_workspace(root: &Path, strict_budget: bool) -> Result<WorkspaceReport, LintError> {
    let files = collect_files(root)?;
    let budget_map = load_budget(root)?;
    let mut report = lint_files(root, &files, &budget_map, strict_budget)?;
    if strict_budget {
        for rel in budget::stale_entries(&budget_map, &files) {
            report.violations.push((
                BUDGET_FILE.to_string(),
                Finding {
                    rule: Rule::D5,
                    line: 1,
                    col: 1,
                    message: format!(
                        "budget entry for deleted file `{rel}`: run \
                         `vaem-lint --update-budget` to prune it"
                    ),
                },
            ));
        }
        for &rel in rules::D4_UNSAFE_FILES {
            if !report.unsafe_files.contains(rel) {
                report.violations.push((
                    rel.to_string(),
                    Finding {
                        rule: Rule::D4,
                        line: 1,
                        col: 1,
                        message: "allowlisted for `unsafe` but holds none outside \
                                  tests: remove it from `D4_UNSAFE_FILES`"
                            .to_string(),
                    },
                ));
            }
        }
    }
    Ok(report)
}

/// Loads `lint_budget.toml` from the workspace root (missing = empty).
///
/// # Errors
/// Fails on unreadable or malformed budget files.
pub fn load_budget(root: &Path) -> Result<Budget, LintError> {
    let path = root.join(BUDGET_FILE);
    if !path.exists() {
        return Ok(Budget::new());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
    budget::parse(&text).map_err(LintError)
}

/// Renders a report as human-readable text.
pub fn render_text(report: &WorkspaceReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (path, f) in &report.violations {
        let _ = writeln!(
            out,
            "{path}:{}:{}: {} {}",
            f.line,
            f.col,
            f.rule.id(),
            f.message
        );
    }
    let _ = writeln!(
        out,
        "vaem-lint: {} file(s), {} violation(s), {} waived",
        report.files_checked,
        report.violations.len(),
        report.waived.len()
    );
    out
}

/// The observed D5 counts as a budget map (used by `--update-budget`).
pub fn observed_counts(report: &WorkspaceReport) -> BTreeMap<String, usize> {
    report.d5_counts.clone()
}
