//! The vaem-lint rule catalog and single-file rule engine.
//!
//! Every rule guards one textual invariant behind the repository's headline
//! guarantee — bit-identical results at any thread count — or behind the
//! safety story of the few `unsafe` blocks:
//!
//! | ID | Invariant |
//! |----|-----------|
//! | D1 | No `HashMap`/`HashSet` in non-test library code: hash iteration order is nondeterministic, the top threat to the digest guarantee. Lookup-only maps may be waived. |
//! | D2 | `std::env::var` (and friends) only inside the allowlisted config module, so every behavior-changing knob is centralized and documented. |
//! | D3 | `thread::spawn`/`thread::scope` only inside `vaem_parallel` — one claiming discipline to audit. |
//! | D4 | Every `unsafe` block/impl/fn is immediately preceded by a `// SAFETY:` comment (or a `# Safety` doc section), and `unsafe` only appears in allowlisted files. Under `--strict-budget` an allowlisted file without non-test `unsafe` is itself a violation, so the allowlist stays exact. |
//! | D5 | `unwrap()`/`expect()`/`panic!` in solver-library code is a per-file budget ratchet (`lint_budget.toml`): the count can only go down. |
//! | D6 | No `Instant::now`/`SystemTime::now` outside `crates/bench` — wall-clock reads must never influence numeric results. |
//! | W0 | A waiver must carry a non-empty reason string. |
//! | W1 | A waiver must suppress at least one finding and name a known rule, and a `vaem-lint:` comment must be a waiver. |
//!
//! Every rule is computed per file from the lexer's token stream; only the
//! strict-run staleness checks (D4 allowlist, D5 budget) look across the
//! workspace. A finding is waived inline with a line comment of the form
//! `vaem-lint: allow(<RULE>) <reason>` (written after `//`), either trailing
//! the offending line or on its own line immediately above it. No other
//! `vaem-lint:` directive exists, so any other one is reported instead of
//! lingering unread.
//!
//! Allocation on the hot paths is measured, not linted: the tier-1 test
//! `tests/alloc_counts.rs` pins exact allocation counts with a counting
//! global allocator.

use crate::lexer::{self, Comment, Tok, TokKind};
use std::collections::BTreeSet;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-ordered collection in library code.
    D1,
    /// Environment read outside the config module.
    D2,
    /// Thread creation outside `vaem_parallel`.
    D3,
    /// `unsafe` without a SAFETY comment or outside allowlisted files.
    D4,
    /// Panic-path site counted against the per-file budget.
    D5,
    /// Wall-clock read outside `crates/bench`.
    D6,
    /// Waiver without a reason string.
    W0,
    /// Unused waiver, unknown rule id in a waiver, or a `vaem-lint:`
    /// comment that is not a waiver.
    W1,
}

impl Rule {
    /// The machine-readable rule id.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::W0 => "W0",
            Rule::W1 => "W1",
        }
    }

    /// Parses a rule id as written inside a waiver.
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            _ => None,
        }
    }
}

/// One span-accurate lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The lint outcome for one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unwaived violations (all rules except the D5 occurrence sites).
    pub violations: Vec<Finding>,
    /// Unwaived D5 panic-path sites; whether they violate is decided by the
    /// per-file budget in `lint_budget.toml`, not per site.
    pub d5_sites: Vec<Finding>,
    /// Findings suppressed by an inline waiver, with the waiver's reason.
    pub waived: Vec<(Finding, String)>,
    /// Whether the file holds an `unsafe` token outside test code.
    pub has_unsafe: bool,
}

/// The only file allowed to call `std::env::var` (rule D2).
pub const D2_ENV_MODULE: &str = "crates/parallel/src/env.rs";

/// The only path prefix allowed to create threads (rule D3).
pub const D3_THREAD_CRATE: &str = "crates/parallel/src/";

/// Files allowed to contain `unsafe` at all (rule D4). Strict runs also
/// require every listed file to hold some outside its tests.
pub const D4_UNSAFE_FILES: &[&str] = &["crates/parallel/src/lib.rs"];

/// Library crates whose panic paths are reachable from
/// `VariationalAnalysis::run` and therefore budgeted by rule D5. The bench
/// harness and this lint tool are excluded: they are tooling, not solver
/// library code.
pub const D5_LIBRARY_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/fvm/src/",
    "crates/mesh/src/",
    "crates/numeric/src/",
    "crates/parallel/src/",
    "crates/physics/src/",
    "crates/sparse/src/",
    "crates/stochastic/src/",
    "crates/variation/src/",
];

/// Path prefix where wall-clock reads are allowed (rule D6).
pub const D6_TIMING_PREFIX: &str = "crates/bench/";

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

const ENV_READ_FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

const THREAD_FNS: &[&str] = &["spawn", "scope", "Builder"];

/// One parsed inline waiver.
#[derive(Debug)]
struct Waiver {
    rules: Vec<String>,
    reason: String,
    /// Line the waiver applies to (its own line for trailing waivers, the
    /// next code line for standalone ones). `None` when no code follows.
    target_line: Option<usize>,
    /// Line of the waiver comment itself (for W0/W1 reporting).
    comment_line: usize,
    comment_col: usize,
}

/// Lints one source file. `rel_path` must be workspace-relative with
/// forward slashes — the per-rule allowlists match on it.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let lexed = lexer::lex(source);
    let toks = &lexed.toks;
    let test_mask = test_token_mask(toks);
    let attr_mask = attribute_token_mask(toks);
    let test_lines = test_line_spans(toks, &test_mask);

    let mut findings: Vec<Finding> = Vec::new();
    check_d1(rel_path, toks, &test_mask, &mut findings);
    check_d2(rel_path, toks, &test_mask, &mut findings);
    check_d3(rel_path, toks, &test_mask, &mut findings);
    check_d4(
        rel_path,
        toks,
        &test_mask,
        &attr_mask,
        &lexed.comments,
        &mut findings,
    );
    check_d5(rel_path, toks, &test_mask, &mut findings);
    check_d6(rel_path, toks, &test_mask, &mut findings);
    findings.sort_by_key(|f| (f.line, f.col, f.rule));

    let mut directive_violations = Vec::new();
    let waivers = parse_waivers(
        &lexed.comments,
        toks,
        &test_lines,
        &mut directive_violations,
    );
    let mut report = apply_waivers(findings, waivers, directive_violations);
    report.has_unsafe = toks
        .iter()
        .zip(&test_mask)
        .any(|(t, &in_test)| !in_test && is_ident(t, "unsafe"));
    report
}

// ---------------------------------------------------------------------------
// Token-stream helpers

fn is_punct(t: &Tok, ch: char) -> bool {
    t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
}

fn is_ident(t: &Tok, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

/// Marks every token that belongs to a `#[…test…]`-attributed item (the
/// attribute itself, the item header and its entire brace-matched body).
/// Handles `#[cfg(test)] mod tests { … }`, `#[test] fn …`, and chained
/// attributes; `#[cfg_attr(…)]` is not treated as a test marker.
fn test_token_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut k = 0usize;
    while k < toks.len() {
        if !(is_punct(&toks[k], '#') && k + 1 < toks.len() && is_punct(&toks[k + 1], '[')) {
            k += 1;
            continue;
        }
        let attr_start = k;
        let mut is_test = false;
        // Walk the (possibly chained) attribute list.
        let mut j = k;
        while j + 1 < toks.len() && is_punct(&toks[j], '#') && is_punct(&toks[j + 1], '[') {
            let mut depth = 0usize;
            let mut first_ident: Option<&str> = None;
            let mut saw_test = false;
            let mut m = j + 1;
            while m < toks.len() {
                let t = &toks[m];
                if is_punct(t, '[') {
                    depth += 1;
                } else if is_punct(t, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokKind::Ident {
                    if first_ident.is_none() {
                        first_ident = Some(&t.text);
                    }
                    if t.text == "test" {
                        saw_test = true;
                    }
                }
                m += 1;
            }
            if saw_test && first_ident != Some("cfg_attr") {
                is_test = true;
            }
            j = m + 1;
        }
        if !is_test {
            k += 1;
            continue;
        }
        // Skip the item header to its body (or a body-less `;`).
        let mut m = j;
        while m < toks.len() && !is_punct(&toks[m], '{') && !is_punct(&toks[m], ';') {
            m += 1;
        }
        let end = if m < toks.len() && is_punct(&toks[m], '{') {
            let mut depth = 0usize;
            let mut e = m;
            while e < toks.len() {
                if is_punct(&toks[e], '{') {
                    depth += 1;
                } else if is_punct(&toks[e], '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                e += 1;
            }
            e
        } else {
            m
        };
        for flag in mask
            .iter_mut()
            .take(end.min(toks.len() - 1) + 1)
            .skip(attr_start)
        {
            *flag = true;
        }
        k = end + 1;
    }
    mask
}

/// Marks tokens inside any `#[…]` attribute group (used to let attribute
/// lines sit between a SAFETY comment and its `unsafe` item).
fn attribute_token_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut k = 0usize;
    while k < toks.len() {
        if is_punct(&toks[k], '#') && k + 1 < toks.len() && is_punct(&toks[k + 1], '[') {
            let mut depth = 0usize;
            let mut m = k + 1;
            while m < toks.len() {
                if is_punct(&toks[m], '[') {
                    depth += 1;
                } else if is_punct(&toks[m], ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                m += 1;
            }
            for flag in mask.iter_mut().take(m.min(toks.len() - 1) + 1).skip(k) {
                *flag = true;
            }
            k = m + 1;
        } else {
            k += 1;
        }
    }
    mask
}

/// Line spans `(first, last)` covered by test regions.
fn test_line_spans(toks: &[Tok], mask: &[bool]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut open: Option<(usize, usize)> = None;
    for (t, &m) in toks.iter().zip(mask) {
        if m {
            open = match open {
                None => Some((t.line, t.line)),
                Some((a, _)) => Some((a, t.line)),
            };
        } else if let Some(span) = open.take() {
            spans.push(span);
        }
    }
    if let Some(span) = open {
        spans.push(span);
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

/// True when the token at `k` sits inside a `use` declaration (scan back to
/// the previous `;`, bounded).
fn in_use_statement(toks: &[Tok], k: usize) -> bool {
    let mut j = k;
    let mut steps = 0usize;
    while j > 0 && steps < 64 {
        j -= 1;
        steps += 1;
        if is_punct(&toks[j], ';') {
            return false;
        }
        if is_ident(&toks[j], "use") {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rules

/// D1 — hash-ordered collections. Flags (a) each line that names
/// `HashMap`/`HashSet` outside `use` declarations (one finding per line so a
/// waiver maps 1:1), and (b) every iteration-method call or `for … in` loop
/// over an identifier bound to a hash collection in the same file.
fn check_d1(rel_path: &str, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    let _ = rel_path;
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut flagged_lines: BTreeSet<usize> = BTreeSet::new();

    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            if in_use_statement(toks, k) {
                continue;
            }
            // Path position (`collections::HashMap`) never names a binding,
            // but still flags the line.
            if flagged_lines.insert(t.line) {
                out.push(Finding {
                    rule: Rule::D1,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` in library code: hash iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or a sorted \
                         Vec, or waive with a reason if it is lookup-only",
                        t.text
                    ),
                });
            }
            // Record the bound identifier: `name: HashMap<…>` or
            // `name = HashMap::new()`.
            if k >= 2 {
                let prev = &toks[k - 1];
                let prev2 = &toks[k - 2];
                let is_path = is_punct(prev, ':') && is_punct(prev2, ':');
                if !is_path
                    && (is_punct(prev, ':') || is_punct(prev, '='))
                    && prev2.kind == TokKind::Ident
                {
                    bound.insert(prev2.text.clone());
                }
            }
        }
    }

    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || t.kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` style calls on hash-bound identifiers.
        if HASH_ITER_METHODS.contains(&t.text.as_str())
            && k >= 2
            && k + 1 < toks.len()
            && is_punct(&toks[k - 1], '.')
            && is_punct(&toks[k + 1], '(')
            && toks[k - 2].kind == TokKind::Ident
            && bound.contains(&toks[k - 2].text)
        {
            out.push(Finding {
                rule: Rule::D1,
                line: t.line,
                col: t.col,
                message: format!(
                    "iteration over hash collection `{}` (`.{}()`): the \
                     visit order is nondeterministic",
                    toks[k - 2].text,
                    t.text
                ),
            });
        }
        // `for pat in name { … }` over a hash-bound identifier.
        if is_ident(t, "for") {
            for j in k + 1..(k + 40).min(toks.len()) {
                if !is_ident(&toks[j], "in") {
                    continue;
                }
                let mut m = j + 1;
                while m < toks.len() && (is_punct(&toks[m], '&') || is_ident(&toks[m], "mut")) {
                    m += 1;
                }
                if m < toks.len() && toks[m].kind == TokKind::Ident && bound.contains(&toks[m].text)
                {
                    out.push(Finding {
                        rule: Rule::D1,
                        line: toks[m].line,
                        col: toks[m].col,
                        message: format!(
                            "`for … in` over hash collection `{}`: the visit \
                             order is nondeterministic",
                            toks[m].text
                        ),
                    });
                }
                break;
            }
        }
    }
}

/// D2 — environment reads. Every `env::var`-family call outside the config
/// module is a violation: behavior-changing knobs must be centralized.
fn check_d2(rel_path: &str, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    if rel_path == D2_ENV_MODULE {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || t.kind != TokKind::Ident || k < 3 {
            continue;
        }
        if ENV_READ_FNS.contains(&t.text.as_str())
            && is_punct(&toks[k - 1], ':')
            && is_punct(&toks[k - 2], ':')
            && is_ident(&toks[k - 3], "env")
        {
            out.push(Finding {
                rule: Rule::D2,
                line: t.line,
                col: t.col,
                message: format!(
                    "`env::{}` outside `{}`: route environment knobs through \
                     `vaem_parallel::env` so they stay documented and clamped",
                    t.text, D2_ENV_MODULE
                ),
            });
        }
    }
}

/// D3 — thread creation. `thread::spawn`/`scope`/`Builder` only inside the
/// `vaem_parallel` crate, which owns the one audited claiming discipline.
fn check_d3(rel_path: &str, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    if rel_path.starts_with(D3_THREAD_CRATE) {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || t.kind != TokKind::Ident || k < 3 {
            continue;
        }
        if THREAD_FNS.contains(&t.text.as_str())
            && is_punct(&toks[k - 1], ':')
            && is_punct(&toks[k - 2], ':')
            && is_ident(&toks[k - 3], "thread")
        {
            out.push(Finding {
                rule: Rule::D3,
                line: t.line,
                col: t.col,
                message: format!(
                    "`thread::{}` outside `vaem_parallel`: all fan-out goes \
                     through the audited work-stealing primitives",
                    t.text
                ),
            });
        }
    }
}

/// D4 — `unsafe` hygiene: only in allowlisted files, and every `unsafe`
/// token immediately preceded by a contiguous comment run containing
/// `SAFETY:` (or a doc comment with a `# Safety` section). Attribute-only
/// lines may sit between the comment and the `unsafe` item.
fn check_d4(
    rel_path: &str,
    toks: &[Tok],
    test_mask: &[bool],
    attr_mask: &[bool],
    comments: &[Comment],
    out: &mut Vec<Finding>,
) {
    let allowlisted = D4_UNSAFE_FILES.contains(&rel_path);
    // Per-line facts for the upward walk: which lines hold code, and which
    // hold only attribute tokens (those may sit between a SAFETY comment
    // and its `unsafe` item).
    let code_lines: BTreeSet<usize> = toks.iter().map(|t| t.line).collect();
    let mut attr_only: BTreeSet<usize> = BTreeSet::new();
    for line in &code_lines {
        let all_attr = toks
            .iter()
            .zip(attr_mask)
            .filter(|(t, _)| t.line == *line)
            .all(|(_, &m)| m);
        if all_attr {
            attr_only.insert(*line);
        }
    }

    let comment_has_marker =
        |c: &Comment| c.text.contains("SAFETY:") || c.text.contains("# Safety");
    let comments_on = |line: usize| {
        comments
            .iter()
            .filter(move |c| c.line <= line && line <= c.end_line)
    };

    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || !is_ident(t, "unsafe") {
            continue;
        }
        if !allowlisted {
            out.push(Finding {
                rule: Rule::D4,
                line: t.line,
                col: t.col,
                message: format!(
                    "`unsafe` is not permitted in `{rel_path}`: only the \
                     allowlisted files may contain it"
                ),
            });
            continue;
        }
        // Same-line comment before the token?
        let mut ok = comments_on(t.line).any(|c| c.col < t.col && comment_has_marker(c));
        // Walk the contiguous comment/attribute run directly above.
        let mut line = t.line;
        while !ok && line > 1 {
            line -= 1;
            let has_code = code_lines.contains(&line) && !attr_only.contains(&line);
            if has_code {
                break;
            }
            let cs: Vec<&Comment> = comments_on(line).collect();
            if cs.is_empty() && !attr_only.contains(&line) {
                break; // blank line ends the run
            }
            if cs.iter().any(|c| comment_has_marker(c)) {
                ok = true;
            }
        }
        if !ok {
            out.push(Finding {
                rule: Rule::D4,
                line: t.line,
                col: t.col,
                message: "`unsafe` without an immediately preceding \
                          `// SAFETY:` comment (or `# Safety` doc section)"
                    .to_string(),
            });
        }
    }
}

/// D5 — panic-path sites (`.unwrap()`, `.expect(…)`, `panic!`) in solver
/// library code. Individual sites are not violations; the per-file count is
/// checked against the `lint_budget.toml` ratchet by the caller.
fn check_d5(rel_path: &str, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    if !D5_LIBRARY_PREFIXES.contains(&prefix_of(rel_path).as_str()) {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || t.kind != TokKind::Ident {
            continue;
        }
        let site = if (t.text == "unwrap" || t.text == "expect")
            && k >= 1
            && k + 1 < toks.len()
            && is_punct(&toks[k - 1], '.')
            && is_punct(&toks[k + 1], '(')
        {
            Some(format!(".{}()", t.text))
        } else if t.text == "panic" && k + 1 < toks.len() && is_punct(&toks[k + 1], '!') {
            Some("panic!".to_string())
        } else {
            None
        };
        if let Some(what) = site {
            out.push(Finding {
                rule: Rule::D5,
                line: t.line,
                col: t.col,
                message: format!(
                    "{what} in solver library code counts against the \
                     per-file panic budget (lint_budget.toml)"
                ),
            });
        }
    }
}

/// D6 — wall-clock reads (`Instant::now`, `SystemTime::now`) outside the
/// bench harness. Timing must never influence numeric results; waive the
/// reporting-only sites with a reason.
fn check_d6(rel_path: &str, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    if rel_path.starts_with(D6_TIMING_PREFIX) {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if test_mask[k] || t.kind != TokKind::Ident || k < 3 {
            continue;
        }
        if is_ident(t, "now")
            && is_punct(&toks[k - 1], ':')
            && is_punct(&toks[k - 2], ':')
            && (is_ident(&toks[k - 3], "Instant") || is_ident(&toks[k - 3], "SystemTime"))
        {
            out.push(Finding {
                rule: Rule::D6,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}::now` outside `crates/bench`: wall-clock reads must \
                     not influence numeric results (waive with a reason if \
                     this only feeds reporting metadata)",
                    toks[k - 3].text
                ),
            });
        }
    }
}

/// `crates/<name>/src/` prefix of a workspace-relative path (empty when the
/// path is not of that shape).
fn prefix_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(name), Some("src")) => format!("crates/{name}/src/"),
        _ => String::new(),
    }
}

// ---------------------------------------------------------------------------
// Waivers

/// Parses every `vaem-lint: allow(RULE) reason` line comment outside test
/// regions and resolves its target line. Any other `vaem-lint:` comment is
/// a W1 violation, pushed onto `violations`.
fn parse_waivers(
    comments: &[Comment],
    toks: &[Tok],
    test_lines: &[(usize, usize)],
    violations: &mut Vec<Finding>,
) -> Vec<Waiver> {
    let code_lines: BTreeSet<usize> = toks.iter().map(|t| t.line).collect();
    let mut waivers = Vec::new();
    for c in comments {
        if in_spans(test_lines, c.line) {
            continue;
        }
        let body = c.text.trim_start_matches('/');
        let body = body.strip_prefix('!').unwrap_or(body).trim_start();
        let Some(rest) = body.strip_prefix("vaem-lint:") else {
            continue;
        };
        let Some((rule_list, reason)) = rest
            .trim_start()
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
        else {
            violations.push(Finding {
                rule: Rule::W1,
                line: c.line,
                col: c.col,
                message: "unknown `vaem-lint:` directive: the only one is \
                          `vaem-lint: allow(RULE) <reason>`"
                    .to_string(),
            });
            continue;
        };
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = reason.trim().to_string();
        let trailing = toks.iter().any(|t| t.line == c.line && t.col < c.col);
        let target_line = if trailing {
            Some(c.line)
        } else {
            code_lines.range(c.end_line + 1..).next().copied()
        };
        waivers.push(Waiver {
            rules,
            reason,
            target_line,
            comment_line: c.line,
            comment_col: c.col,
        });
    }
    waivers
}

/// Applies waivers to the raw findings and splits the result into
/// violations (starting from the unwaivable `violations` already found),
/// budget-governed D5 sites, and waived findings.
fn apply_waivers(
    findings: Vec<Finding>,
    waivers: Vec<Waiver>,
    violations: Vec<Finding>,
) -> FileReport {
    let mut remaining: Vec<Option<Finding>> = findings.into_iter().map(Some).collect();
    let mut report = FileReport {
        violations,
        ..FileReport::default()
    };

    for w in &waivers {
        if w.reason.is_empty() {
            report.violations.push(Finding {
                rule: Rule::W0,
                line: w.comment_line,
                col: w.comment_col,
                message: "waiver without a reason: write \
                          `vaem-lint: allow(RULE) <why this is sound>`"
                    .to_string(),
            });
            continue;
        }
        let mut matched = 0usize;
        for rule_id in &w.rules {
            let Some(rule) = Rule::from_id(rule_id) else {
                report.violations.push(Finding {
                    rule: Rule::W1,
                    line: w.comment_line,
                    col: w.comment_col,
                    message: format!("waiver names unknown rule `{rule_id}`"),
                });
                continue;
            };
            for slot in remaining.iter_mut() {
                let hit = slot
                    .as_ref()
                    .is_some_and(|f| f.rule == rule && Some(f.line) == w.target_line);
                if hit {
                    let f = slot.take().expect("checked above");
                    report.waived.push((f, w.reason.clone()));
                    matched += 1;
                }
            }
        }
        if matched == 0 && w.rules.iter().all(|r| Rule::from_id(r).is_some()) {
            report.violations.push(Finding {
                rule: Rule::W1,
                line: w.comment_line,
                col: w.comment_col,
                message: "unused waiver: no finding of the named rule on the \
                          waived line"
                    .to_string(),
            });
        }
    }

    for f in remaining.into_iter().flatten() {
        if f.rule == Rule::D5 {
            report.d5_sites.push(f);
        } else {
            report.violations.push(f);
        }
    }
    report.violations.sort_by_key(|f| (f.line, f.col, f.rule));
    report
}
