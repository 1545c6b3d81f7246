//! The call-graph-aware rule families on top of [`crate::model`]:
//!
//! * **H1/H2/H3** — hot-path hygiene. Every trigger (allocation, clone,
//!   lock/print) in any function reachable from a parallel worker closure,
//!   an annotated `hot` function, or the numeric kernel files fires, and
//!   the diagnostic prints the call-graph path from the root to the
//!   violating call.
//! * **P1** — stage purity. A function annotated `// vaem-lint: stage`
//!   must not transitively reach env reads outside the chokepoint,
//!   interior-mutability construction, RNG construction, or I/O — the
//!   static precondition for content-addressed stage caching.
//! * **E1/E2** — error hygiene in library code: a discarded `Result`
//!   (`let _ =` on a Result-returning workspace call, or an `.ok()` whose
//!   value is immediately dropped) and an empty `Err(…) => {}` match arm.
//!
//! Findings land at the trigger site (the file/line to fix or waive), so
//! the existing inline-waiver machinery applies unchanged.

use crate::lexer::{Tok, TokKind};
use crate::model::{Node, TriggerKind, Workspace, ENV_CHOKEPOINT};
use crate::rules::{Finding, Rule, D5_LIBRARY_PREFIXES};
use std::collections::BTreeMap;

/// Runs every semantic family over the model; returns findings keyed by
/// workspace-relative path.
pub fn analyze(ws: &Workspace) -> BTreeMap<String, Vec<Finding>> {
    let mut out: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    hot_path_rules(ws, &mut out);
    stage_purity(ws, &mut out);
    error_hygiene(ws, &mut out);
    for findings in out.values_mut() {
        findings.sort_by_key(|f| (f.line, f.col, f.rule));
    }
    out
}

/// Renders a reachability chain as `root → f → g`.
fn render_chain(ws: &Workspace, chain: &[Node]) -> String {
    chain
        .iter()
        .map(|&n| ws.label(n))
        .collect::<Vec<_>>()
        .join(" → ")
}

fn hot_path_rules(ws: &Workspace, out: &mut BTreeMap<String, Vec<Finding>>) {
    let reached = ws.reach(&ws.hot_roots(), &|f| f.is_cold);
    // One finding per site even when many roots reach it.
    let mut seen: BTreeMap<(usize, usize, usize, Rule), ()> = BTreeMap::new();
    for (&node, chain) in &reached {
        for t in ws.node_triggers(node) {
            let (rule, why) = match t.kind {
                TriggerKind::Alloc => (
                    Rule::H1,
                    "allocates on the hot path; hoist the buffer into \
                     per-thread scratch or the setup phase",
                ),
                TriggerKind::Clone => (
                    Rule::H2,
                    "clones on the hot path; borrow or move the value \
                     instead, or hoist the clone out of the worker",
                ),
                TriggerKind::Lock => (
                    Rule::H3,
                    "acquires a lock / serializes on stdout inside the hot \
                     path; workers must stay lock-free",
                ),
                // Purity kinds never fire H rules (Io doubles as Lock for
                // print macros, recorded separately).
                _ => continue,
            };
            if seen.insert((t.file, t.line, t.col, rule), ()).is_some() {
                continue;
            }
            let rel = ws.files[t.file].rel.clone();
            out.entry(rel).or_default().push(Finding {
                rule,
                line: t.line,
                col: t.col,
                message: format!("`{}` {why} [hot path: {}]", t.what, render_chain(ws, chain)),
            });
        }
    }
}

fn stage_purity(ws: &Workspace, out: &mut BTreeMap<String, Vec<Finding>>) {
    let mut seen: BTreeMap<(usize, usize, usize), ()> = BTreeMap::new();
    for stage in ws.stage_fns() {
        let start = Node::Fn(stage);
        let stage_name = ws.fns[stage].qualified();
        // The env chokepoint is the one sanctioned impurity: reads through
        // it are clamped and documented, so traversal stops at its door.
        let reached = ws.reach(&[start], &|f| ws.files[f.file].rel == ENV_CHOKEPOINT);
        for (&node, chain) in &reached {
            for t in ws.node_triggers(node) {
                let what = match t.kind {
                    TriggerKind::EnvRead => "reads the environment outside the chokepoint",
                    TriggerKind::InteriorMut => "constructs interior mutability",
                    TriggerKind::Rng => "constructs an RNG",
                    TriggerKind::Io => "performs I/O",
                    _ => continue,
                };
                if seen.insert((t.file, t.line, t.col), ()).is_some() {
                    continue;
                }
                let rel = ws.files[t.file].rel.clone();
                out.entry(rel).or_default().push(Finding {
                    rule: Rule::P1,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` {what}, but it is reachable from cache stage \
                         `{stage_name}` — stage inputs must be complete and \
                         pure for content-addressed caching [stage path: {}]",
                        t.what,
                        render_chain(ws, chain)
                    ),
                });
            }
        }
    }
}

/// Tokens that count as handling a `Result` within a statement.
const HANDLERS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "is_ok",
    "is_err",
    "map_err",
    "or_else",
];

fn error_hygiene(ws: &Workspace, out: &mut BTreeMap<String, Vec<Finding>>) {
    for (file_idx, fm) in ws.files.iter().enumerate() {
        if !D5_LIBRARY_PREFIXES.iter().any(|p| fm.rel.starts_with(p)) {
            continue;
        }
        let toks = &fm.toks;
        let findings = out.entry(fm.rel.clone()).or_default();
        for k in 0..toks.len() {
            if fm.test_mask[k] {
                continue;
            }
            // E1a: `let _ = <expr>;` discarding a Result-returning
            // workspace call with no handling in the statement.
            if is_ident(&toks[k], "let")
                && matches!(toks.get(k + 1), Some(t) if t.kind == TokKind::Ident && t.text == "_")
                && matches!(toks.get(k + 2), Some(t) if is_punct(t, '='))
            {
                let end = statement_end(toks, k + 3);
                let stmt = &toks[k + 3..end];
                let handled = stmt.iter().enumerate().any(|(i, t)| {
                    (t.kind == TokKind::Punct && t.text == "?")
                        || (t.kind == TokKind::Ident
                            && HANDLERS.contains(&t.text.as_str())
                            && i > 0
                            && is_punct(&stmt[i - 1], '.'))
                });
                if !handled {
                    if let Some((name, line, col)) = first_result_call(ws, file_idx, k + 3, end) {
                        findings.push(Finding {
                            rule: Rule::E1,
                            line,
                            col,
                            message: format!(
                                "`let _ =` discards the `Result` of `{name}` \
                                 — propagate it with `?` or map it into the \
                                 failure taxonomy"
                            ),
                        });
                    }
                }
            }
            // E1b: `.ok();` — the Option is dropped on the floor, erasing
            // the error. (`let x = f().ok();` binds and is fine: scanning
            // back to the statement boundary finds the `let`/`=`.)
            if is_ident(&toks[k], "ok")
                && k >= 1
                && is_punct(&toks[k - 1], '.')
                && matches!(toks.get(k + 1), Some(t) if is_punct(t, '('))
                && matches!(toks.get(k + 2), Some(t) if is_punct(t, ')'))
                && matches!(toks.get(k + 3), Some(t) if is_punct(t, ';'))
                && !binds_its_value(toks, k)
            {
                findings.push(Finding {
                    rule: Rule::E1,
                    line: toks[k].line,
                    col: toks[k].col,
                    message: "`.ok();` drops the error on the floor — \
                              propagate it, log it through the failure \
                              taxonomy, or match on it explicitly"
                        .to_string(),
                });
            }
            // E2: `Err(pat) => {}` / `Err(pat) => ()` — a swallowed error
            // arm in a match.
            if is_ident(&toks[k], "Err") && matches!(toks.get(k + 1), Some(t) if is_punct(t, '(')) {
                let close = match_paren(toks, k + 1);
                let arrow = matches!(toks.get(close + 1), Some(t) if is_punct(t, '='))
                    && matches!(toks.get(close + 2), Some(t) if is_punct(t, '>'));
                if arrow {
                    let body = close + 3;
                    let empty_block = matches!(toks.get(body), Some(t) if is_punct(t, '{'))
                        && matches!(toks.get(body + 1), Some(t) if is_punct(t, '}'));
                    let unit = matches!(toks.get(body), Some(t) if is_punct(t, '('))
                        && matches!(toks.get(body + 1), Some(t) if is_punct(t, ')'));
                    if empty_block || unit {
                        findings.push(Finding {
                            rule: Rule::E2,
                            line: toks[k].line,
                            col: toks[k].col,
                            message: "empty `Err(…) => {}` arm swallows the \
                                      error — record it in the failure \
                                      taxonomy or propagate it"
                                .to_string(),
                        });
                    }
                }
            }
        }
        if out.get(&fm.rel).is_some_and(Vec::is_empty) {
            out.remove(&fm.rel);
        }
    }
}

/// True when the statement containing the token at `k` binds or returns a
/// value (a `let`, `=`, or `return` appears between the last statement
/// boundary and `k`) — such a statement consumes the `.ok()` result.
fn binds_its_value(toks: &[Tok], k: usize) -> bool {
    let mut j = k;
    let mut steps = 0usize;
    while j > 0 && steps < 200 {
        j -= 1;
        steps += 1;
        let p = &toks[j];
        if p.kind == TokKind::Punct && matches!(p.text.as_str(), ";" | "{" | "}") {
            return false;
        }
        if (p.kind == TokKind::Punct && p.text == "=")
            || (p.kind == TokKind::Ident && matches!(p.text.as_str(), "let" | "return"))
        {
            return true;
        }
    }
    false
}

/// Index of the `;` (or end) terminating a statement at brace/paren depth
/// zero, starting at `from`.
fn statement_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0isize;
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct && t.text.len() == 1 {
            match t.text.as_bytes()[0] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth <= 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Index one past the matching `)` for the `(` at `open`.
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if is_punct(&toks[j], '(') {
            depth += 1;
        } else if is_punct(&toks[j], ')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// The discarded call of a `let _ = …;` statement: the *last* call at
/// paren depth zero (its return value is what the binding drops; a Result
/// passed *into* another call at depth > 0 is consumed, not discarded),
/// provided it resolves to Result-returning workspace functions. Method
/// calls on unknown receivers only count when *every* workspace method of
/// that name returns `Result` — an ambiguous name would otherwise
/// false-positive on std types.
fn first_result_call(
    ws: &Workspace,
    file_idx: usize,
    from: usize,
    end: usize,
) -> Option<(String, usize, usize)> {
    let fm = &ws.files[file_idx];
    let toks = &fm.toks;
    let mut depth = 0isize;
    let mut last: Option<usize> = None;
    for k in from..end.min(toks.len()) {
        let t = &toks[k];
        if t.kind == TokKind::Punct && t.text.len() == 1 {
            match t.text.as_bytes()[0] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                _ => {}
            }
            continue;
        }
        if t.kind != TokKind::Ident || depth > 0 {
            continue;
        }
        let is_call = matches!(toks.get(k + 1), Some(n) if is_punct(n, '('));
        if !is_call {
            continue;
        }
        // Macro call `name!(` never resolves to a workspace fn.
        if k >= 1 && is_punct(&toks[k - 1], '!') {
            continue;
        }
        last = Some(k);
    }
    let k = last?;
    let candidates = ws.resolve_call_candidates(file_idx, k);
    if candidates.is_empty() {
        return None;
    }
    if candidates.iter().all(|&id| ws.fns[id].returns_result) {
        let name = ws.fns[candidates[0]].qualified();
        return Some((name, toks[k].line, toks[k].col));
    }
    None
}

fn is_punct(t: &Tok, ch: char) -> bool {
    t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
}

fn is_ident(t: &Tok, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn findings_for(files: &[(&str, &str)]) -> BTreeMap<String, Vec<(String, usize)>> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let ws = Workspace::build(&sources);
        analyze(&ws)
            .into_iter()
            .map(|(path, fs)| {
                (
                    path,
                    fs.into_iter()
                        .map(|f| (f.rule.id().to_string(), f.line))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn hot_path_alloc_fires_with_a_trace() {
        let sources = vec![(
            "crates/core/src/run.rs".to_string(),
            r#"
use vaem_parallel::par_map_mut;
fn worker(x: u32) -> u32 { scratch(x) }
fn scratch(x: u32) -> u32 { let v: Vec<u32> = Vec::new(); v.len() as u32 + x }
pub fn run(xs: &mut [u32]) -> Vec<u32> { par_map_mut(xs, |_, x| worker(*x)) }
"#
            .to_string(),
        )];
        let ws = Workspace::build(&sources);
        let by_file = analyze(&ws);
        let fs = &by_file["crates/core/src/run.rs"];
        let h1 = fs.iter().find(|f| f.rule == Rule::H1).expect("H1 fires");
        assert_eq!(h1.line, 4);
        assert!(h1.message.contains("hot path:"), "{}", h1.message);
        assert!(
            h1.message.contains("par_map_mut closure") && h1.message.contains("worker"),
            "trace must show the chain: {}",
            h1.message
        );
    }

    #[test]
    fn clone_and_lock_fire_their_own_rules() {
        let out = findings_for(&[(
            "crates/core/src/run.rs",
            r#"
use vaem_parallel::par_map_mut;
fn work(s: &String) -> usize { let t = s.clone(); println!("{t}"); t.len() }
pub fn run(xs: &mut [String]) -> Vec<usize> { par_map_mut(xs, |_, s| work(s)) }
"#,
        )]);
        let fs = &out["crates/core/src/run.rs"];
        assert!(fs.contains(&("H2".to_string(), 3)), "{fs:?}");
        assert!(fs.contains(&("H3".to_string(), 3)), "{fs:?}");
    }

    #[test]
    fn stage_purity_flags_transitive_rng() {
        let out = findings_for(&[(
            "crates/sparse/src/ordering.rs",
            r#"
// vaem-lint: stage deterministic fill-reducing order
pub fn amd(n: usize) -> Vec<usize> { jitter(n) }
fn jitter(n: usize) -> Vec<usize> {
    let _rng = StdRng::seed_from_u64(7);
    (0..n).collect()
}
"#,
        )]);
        let fs = &out["crates/sparse/src/ordering.rs"];
        assert!(fs.contains(&("P1".to_string(), 5)), "{fs:?}");
    }

    #[test]
    fn env_chokepoint_is_not_entered_by_stage_traversal() {
        let out = findings_for(&[
            (
                "crates/parallel/src/env.rs",
                "pub fn positive_usize(name: &str, default: usize) -> usize {\n    let _raw = std::env::var(name);\n    default\n}\n",
            ),
            (
                "crates/core/src/stagey.rs",
                "use vaem_parallel::env::positive_usize;\n// vaem-lint: stage chunk plan\npub fn plan(n: usize) -> usize { positive_usize(\"VAEM_CHUNK\", n) }\n",
            ),
        ]);
        assert!(
            !out.contains_key("crates/parallel/src/env.rs"),
            "chokepoint must be exempt: {out:?}"
        );
    }

    #[test]
    fn discarded_results_and_swallowed_errors_fire() {
        let out = findings_for(&[(
            "crates/fvm/src/post.rs",
            r#"
pub fn solve() -> Result<f64, String> { Ok(1.0) }
pub fn caller() {
    let _ = solve();
    solve().ok();
    match solve() {
        Ok(_) => {}
        Err(_) => {}
    }
}
pub fn fine() -> Result<f64, String> {
    let _ = solve()?;
    let kept = solve().ok();
    let _keep = kept;
    Ok(1.0)
}
"#,
        )]);
        let fs = &out["crates/fvm/src/post.rs"];
        assert!(fs.contains(&("E1".to_string(), 4)), "{fs:?}");
        assert!(fs.contains(&("E1".to_string(), 5)), "{fs:?}");
        assert!(fs.contains(&("E2".to_string(), 8)), "{fs:?}");
        assert_eq!(fs.len(), 3, "handled sites must not fire: {fs:?}");
    }

    #[test]
    fn let_underscore_on_macro_or_non_result_is_exempt() {
        let out = findings_for(&[(
            "crates/fvm/src/post.rs",
            r#"
pub fn count() -> usize { 3 }
pub fn caller(out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "hi");
    let _ = count();
}
"#,
        )]);
        assert!(
            !out.contains_key("crates/fvm/src/post.rs"),
            "macros and non-Result calls are exempt: {out:?}"
        );
    }
}
