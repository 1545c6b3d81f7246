//! Workspace model for the semantic rule families: per-file item trees, a
//! symbol table of every non-test function, `use`-aware name resolution,
//! and an inter-procedural call graph whose roots are the closures handed
//! to the `vaem_parallel` fan-out primitives plus the annotated/allowlisted
//! hot kernels.
//!
//! Resolution is deliberately an over-approximation: a method call on an
//! unknown receiver links to *every* workspace method of that name, and a
//! bare call falls back from same-file to same-crate to `use`-aliased
//! candidates. For H/P-style "must not reach" rules, over-linking errs on
//! the side of reporting — the waiver machinery absorbs the rare false
//! positive, while under-linking would silently miss real hazards.
//!
//! Three annotation comments steer the graph (written like waivers, e.g.
//! `// vaem-lint: hot inner Krylov loop`):
//!
//! * `hot <why>` — the next function is a hot-path root even though it is
//!   not reachable from a parallel closure.
//! * `cold <why>` — the next function is amortized setup: traversal stops
//!   at it and its body is not scanned (it is also never a hot-file root).
//! * `stage <why>` — the next function is a cacheable stage: rule P1
//!   audits everything it transitively reaches for purity.

use crate::lexer::{self, Comment, Tok, TokKind};
use crate::parse::{self, Item, ItemKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Fan-out primitives, and the batched solves built on them, whose closure
/// arguments run on worker threads and become hot-path roots.
pub const PAR_FAMILY: &[&str] = &[
    "par_map_mut",
    "par_map_mut_with_chunk",
    "par_map_init",
    "steal_indices",
    "solve_batch",
    "solve_terminals",
];

/// Files whose every non-`cold` function is a hot-path root (the SIMD/
/// panel kernels sit in the innermost numeric loops by construction).
pub const HOT_FILES: &[&str] = &[
    "crates/numeric/src/vecops.rs",
    "crates/numeric/src/panel.rs",
];

/// The env chokepoint: stage purity traversal does not descend into it
/// (reads through it are clamped, documented, and cache-keyed upstream).
pub const ENV_CHOKEPOINT: &str = "crates/parallel/src/env.rs";

/// What a trigger token does (decides which rule fires and its message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Heap allocation or collection materialization (H1).
    Alloc,
    /// `.clone()` call (H2).
    Clone,
    /// Lock acquisition or stdout/stderr serialization (H3).
    Lock,
    /// Environment read outside the chokepoint (P1).
    EnvRead,
    /// Interior-mutability construction (P1).
    InteriorMut,
    /// RNG construction or seeding (P1).
    Rng,
    /// Filesystem or console I/O (P1).
    Io,
}

/// One trigger site inside a function or root closure.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// What fired.
    pub kind: TriggerKind,
    /// The offending lexeme, e.g. `Vec::new` or `format!`.
    pub what: String,
    /// File index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One function in the workspace symbol table.
#[derive(Debug)]
pub struct FnInfo {
    /// File index into [`Workspace::files`].
    pub file: usize,
    /// `impl` self type for methods, `None` for free functions.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inclusive token range of the body (absent for bodyless signatures).
    pub body: Option<(usize, usize)>,
    /// The textual return type mentions `Result`.
    pub returns_result: bool,
    /// Annotated `// vaem-lint: hot`.
    pub is_hot: bool,
    /// Annotated `// vaem-lint: cold`.
    pub is_cold: bool,
    /// Annotated `// vaem-lint: stage`.
    pub is_stage: bool,
}

impl FnInfo {
    /// `Type::name` or `name`, for diagnostics.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A hot-path root: a closure handed to a fan-out primitive.
#[derive(Debug)]
pub struct ParRoot {
    /// File index into [`Workspace::files`].
    pub file: usize,
    /// Name of the primitive (`par_map_mut`, …).
    pub primitive: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Inclusive token range of the call's argument list.
    pub args: (usize, usize),
    /// Qualified name of the enclosing function, if any.
    pub enclosing: Option<String>,
}

/// One lexed + parsed source file.
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Comments (for annotations; waivers are handled by [`crate::rules`]).
    pub comments: Vec<Comment>,
    /// Tokens belonging to `#[…test…]` items.
    pub test_mask: Vec<bool>,
    /// Top-level item tree.
    pub items: Vec<Item>,
    /// `use` alias → full path segments, file-wide.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// A graph node: either a parallel-closure root or a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Node {
    /// Index into [`Workspace::par_roots`].
    Root(usize),
    /// Index into [`Workspace::fns`].
    Fn(usize),
}

/// The whole-workspace semantic model.
pub struct Workspace {
    /// All analyzed files, in input order.
    pub files: Vec<FileModel>,
    /// Symbol table of non-test functions.
    pub fns: Vec<FnInfo>,
    /// Closures handed to fan-out primitives.
    pub par_roots: Vec<ParRoot>,
    /// Call edges per node (roots first, then functions), deduplicated.
    edges: BTreeMap<Node, Vec<usize>>,
    /// Trigger sites per node.
    triggers: BTreeMap<Node, Vec<Trigger>>,
    /// Free-function name → candidate fn ids.
    by_free: BTreeMap<String, Vec<usize>>,
    /// `(self type, method)` → candidate fn ids.
    by_method: BTreeMap<(String, String), Vec<usize>>,
    /// Method name → candidate fn ids (unknown-receiver fallback).
    by_method_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Builds the model from `(rel_path, source)` pairs.
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let mut files = Vec::with_capacity(sources.len());
        for (rel, src) in sources {
            let lexed = lexer::lex(src);
            let test_mask = crate::rules::test_token_mask(&lexed.toks);
            let items = parse::parse(&lexed.toks);
            let mut uses = BTreeMap::new();
            collect_uses(&items, &mut uses);
            files.push(FileModel {
                rel: rel.clone(),
                toks: lexed.toks,
                comments: lexed.comments,
                test_mask,
                items,
                uses,
            });
        }

        let mut ws = Workspace {
            files,
            fns: Vec::new(),
            par_roots: Vec::new(),
            edges: BTreeMap::new(),
            triggers: BTreeMap::new(),
            by_free: BTreeMap::new(),
            by_method: BTreeMap::new(),
            by_method_name: BTreeMap::new(),
        };
        ws.build_symbols();
        ws.build_roots();
        ws.build_edges_and_triggers();
        ws
    }

    /// The function annotated `stage`, in table order.
    pub fn stage_fns(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].is_stage)
            .collect()
    }

    /// The hot-path roots: every parallel closure, every `hot`-annotated
    /// function, and every non-`cold` function in [`HOT_FILES`].
    pub fn hot_roots(&self) -> Vec<Node> {
        let mut roots: Vec<Node> = (0..self.par_roots.len()).map(Node::Root).collect();
        for (i, f) in self.fns.iter().enumerate() {
            let hot_file = HOT_FILES.contains(&self.files[f.file].rel.as_str());
            if f.is_hot || (hot_file && !f.is_cold) {
                roots.push(Node::Fn(i));
            }
        }
        roots
    }

    /// Outgoing call edges of a node.
    pub fn callees(&self, n: Node) -> &[usize] {
        self.edges.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Trigger sites recorded in a node's body.
    pub fn node_triggers(&self, n: Node) -> &[Trigger] {
        self.triggers.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A short human-readable label for a node, with file:line for roots.
    pub fn label(&self, n: Node) -> String {
        match n {
            Node::Root(r) => {
                let root = &self.par_roots[r];
                let at = format!("{}:{}", self.files[root.file].rel, root.line);
                match &root.enclosing {
                    Some(f) => format!("{} closure ({at} in {f})", root.primitive),
                    None => format!("{} closure ({at})", root.primitive),
                }
            }
            Node::Fn(i) => self.fns[i].qualified(),
        }
    }

    /// Multi-source BFS from `starts`. Returns, for every reached node, the
    /// chain of nodes from its start (inclusive) to it (inclusive). When
    /// `prune` returns true for a function, traversal does not enter it.
    pub fn reach(
        &self,
        starts: &[Node],
        prune: &dyn Fn(&FnInfo) -> bool,
    ) -> BTreeMap<Node, Vec<Node>> {
        let mut parent: BTreeMap<Node, Option<Node>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &s in starts {
            if let Node::Fn(i) = s {
                if prune(&self.fns[i]) {
                    continue;
                }
            }
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(None);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &callee in self.callees(n) {
                let c = Node::Fn(callee);
                if parent.contains_key(&c) || prune(&self.fns[callee]) {
                    continue;
                }
                parent.insert(c, Some(n));
                queue.push_back(c);
            }
        }
        parent
            .keys()
            .map(|&n| {
                let mut chain = vec![n];
                let mut cur = n;
                while let Some(&Some(p)) = parent.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                (n, chain)
            })
            .collect()
    }

    // -- construction -----------------------------------------------------

    fn build_symbols(&mut self) {
        for file_idx in 0..self.files.len() {
            let annos = annotation_targets(&self.files[file_idx]);
            let mut found: Vec<FnInfo> = Vec::new();
            {
                let fm = &self.files[file_idx];
                parse::walk_items(&fm.items, &mut |item, stack| {
                    if item.kind != ItemKind::Fn {
                        return;
                    }
                    // Skip test-masked functions entirely.
                    let kw_tok = item.tokens.0;
                    if fm.test_mask.get(kw_tok).copied().unwrap_or(false) {
                        return;
                    }
                    let self_ty = stack
                        .iter()
                        .rev()
                        .find(|p| p.kind == ItemKind::Impl)
                        .map(|p| p.name.clone());
                    let first_line = fm.toks[item.tokens.0].line;
                    let anno = annos.get(&first_line).or_else(|| annos.get(&item.line));
                    found.push(FnInfo {
                        file: file_idx,
                        self_ty,
                        name: item.name.clone(),
                        line: item.line,
                        body: item.body,
                        returns_result: item.returns_result,
                        is_hot: anno.is_some_and(|a| a.contains(&Anno::Hot)),
                        is_cold: anno.is_some_and(|a| a.contains(&Anno::Cold)),
                        is_stage: anno.is_some_and(|a| a.contains(&Anno::Stage)),
                    });
                });
            }
            for f in found {
                let id = self.fns.len();
                if f.self_ty.is_none() {
                    self.by_free.entry(f.name.clone()).or_default().push(id);
                } else {
                    let ty = f.self_ty.clone().unwrap_or_default();
                    self.by_method
                        .entry((ty, f.name.clone()))
                        .or_default()
                        .push(id);
                    self.by_method_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
                self.fns.push(f);
            }
        }
    }

    fn build_roots(&mut self) {
        for (file_idx, fm) in self.files.iter().enumerate() {
            let fn_spans: Vec<(usize, usize, String)> = self
                .fns
                .iter()
                .filter(|f| f.file == file_idx)
                .filter_map(|f| f.body.map(|(a, b)| (a, b, f.qualified())))
                .collect();
            for (k, t) in fm.toks.iter().enumerate() {
                if fm.test_mask[k]
                    || t.kind != TokKind::Ident
                    || !PAR_FAMILY.contains(&t.text.as_str())
                {
                    continue;
                }
                let Some(open) = fm.toks.get(k + 1).filter(|n| n.text == "(") else {
                    continue;
                };
                let _ = open;
                // Match the argument parens.
                let mut depth = 0usize;
                let mut close = k + 1;
                while close < fm.toks.len() {
                    if fm.toks[close].text == "(" && fm.toks[close].kind == TokKind::Punct {
                        depth += 1;
                    } else if fm.toks[close].text == ")" && fm.toks[close].kind == TokKind::Punct {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    close += 1;
                }
                // Only calls that actually pass a closure argument root the
                // graph (a stray identifier match is not a fan-out).
                let has_closure = fm.toks[k + 1..close.min(fm.toks.len())]
                    .iter()
                    .any(|t| t.kind == TokKind::Punct && t.text == "|");
                if !has_closure {
                    continue;
                }
                let enclosing = fn_spans
                    .iter()
                    .find(|&&(a, b, _)| a <= k && k <= b)
                    .map(|(_, _, name)| name.clone());
                self.par_roots.push(ParRoot {
                    file: file_idx,
                    primitive: t.text.clone(),
                    line: t.line,
                    args: (k + 1, close.min(fm.toks.len().saturating_sub(1))),
                    enclosing,
                });
            }
        }
    }

    fn build_edges_and_triggers(&mut self) {
        type ScanJob = (Node, usize, (usize, usize), Option<String>);
        let mut jobs: Vec<ScanJob> = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            if let Some(range) = f.body {
                jobs.push((Node::Fn(i), f.file, range, f.self_ty.clone()));
            }
        }
        for (r, root) in self.par_roots.iter().enumerate() {
            // Reuse the enclosing fn's self type for `self.m()` resolution
            // inside the closure.
            let self_ty = root
                .enclosing
                .as_ref()
                .and_then(|q| q.split("::").next().filter(|_| q.contains("::")))
                .map(str::to_string);
            jobs.push((Node::Root(r), root.file, root.args, self_ty));
        }
        for (node, file, range, self_ty) in jobs {
            let (callees, trigs) = self.scan_range(file, range, self_ty.as_deref());
            self.edges.insert(node, callees);
            self.triggers.insert(node, trigs);
        }
    }

    /// Scans a token range for call edges and trigger sites.
    fn scan_range(
        &self,
        file: usize,
        range: (usize, usize),
        self_ty: Option<&str>,
    ) -> (Vec<usize>, Vec<Trigger>) {
        let fm = &self.files[file];
        let toks = &fm.toks;
        let mut callees: BTreeSet<usize> = BTreeSet::new();
        let mut trigs: Vec<Trigger> = Vec::new();
        let (lo, hi) = range;
        let hi = hi.min(toks.len().saturating_sub(1));
        for k in lo..=hi {
            if fm.test_mask[k] || toks[k].kind != TokKind::Ident {
                continue;
            }
            let t = &toks[k];
            let next_is = |off: usize, ch: char| {
                toks.get(k + off).is_some_and(|n| {
                    n.kind == TokKind::Punct && n.text.len() == 1 && n.text.starts_with(ch)
                })
            };
            let prev_is = |off: usize, ch: char| {
                k >= off
                    && toks.get(k - off).is_some_and(|n| {
                        n.kind == TokKind::Punct && n.text.len() == 1 && n.text.starts_with(ch)
                    })
            };

            // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
            if next_is(1, '!') && (next_is(2, '(') || next_is(2, '[') || next_is(2, '{')) {
                match t.text.as_str() {
                    "vec" | "format" => trigs.push(trigger(TriggerKind::Alloc, t, file, "!")),
                    "println" | "eprintln" | "print" | "eprint" | "dbg" => {
                        trigs.push(trigger(TriggerKind::Lock, t, file, "!"));
                        trigs.push(trigger(TriggerKind::Io, t, file, "!"));
                    }
                    _ => {}
                }
                continue;
            }

            let is_call = next_is(1, '(')
                || (next_is(1, ':')
                    && next_is(2, ':')
                    && toks.get(k + 3).is_some_and(|n| n.text == "<"));
            if !is_call {
                // Non-call trigger idents (paths like `Atomic*::new` are
                // handled at the `new` token below).
                continue;
            }
            // Skip declarations: `fn name(`.
            if k > 0 && toks[k - 1].kind == TokKind::Ident && toks[k - 1].text == "fn" {
                continue;
            }

            let after_dot = prev_is(1, '.');
            let after_path = prev_is(1, ':') && prev_is(2, ':');

            if after_dot {
                self.method_call(fm, toks, k, self_ty, &mut callees, &mut trigs, file);
            } else if after_path {
                self.path_call(fm, toks, k, self_ty, &mut callees, &mut trigs, file);
            } else {
                self.bare_call(fm, k, &mut callees);
            }
        }
        (callees.into_iter().collect(), trigs)
    }

    /// `recv.m(…)` — triggers for known hazardous methods, edges to
    /// workspace methods.
    #[allow(clippy::too_many_arguments)]
    fn method_call(
        &self,
        fm: &FileModel,
        toks: &[Tok],
        k: usize,
        self_ty: Option<&str>,
        callees: &mut BTreeSet<usize>,
        trigs: &mut Vec<Trigger>,
        file: usize,
    ) {
        let t = &toks[k];
        match t.text.as_str() {
            "clone" => trigs.push(trigger(TriggerKind::Clone, t, file, "()")),
            "collect" | "to_vec" | "to_owned" | "to_string" => {
                trigs.push(trigger(TriggerKind::Alloc, t, file, "()"));
            }
            "lock" => trigs.push(trigger(TriggerKind::Lock, t, file, "()")),
            _ => {}
        }
        // Receiver: `self.m(` resolves within the current impl type;
        // anything else falls back to every workspace method named `m`.
        let recv_self = k >= 2
            && toks[k - 2].kind == TokKind::Ident
            && toks[k - 2].text == "self"
            && !(k >= 3 && toks[k - 3].kind == TokKind::Punct && toks[k - 3].text == ".");
        if recv_self {
            if let Some(ty) = self_ty {
                if let Some(ids) = self.by_method.get(&(ty.to_string(), t.text.clone())) {
                    callees.extend(ids.iter().copied());
                    return;
                }
            }
        }
        let _ = fm;
        if let Some(ids) = self.by_method_name.get(&t.text) {
            callees.extend(ids.iter().copied());
        }
    }

    /// `A::B::f(…)` — resolve the qualifier to a type (method table) or a
    /// module path (free-fn table); record construction triggers.
    #[allow(clippy::too_many_arguments)]
    fn path_call(
        &self,
        fm: &FileModel,
        toks: &[Tok],
        k: usize,
        self_ty: Option<&str>,
        callees: &mut BTreeSet<usize>,
        trigs: &mut Vec<Trigger>,
        file: usize,
    ) {
        let t = &toks[k];
        // Collect the `::`-separated qualifier segments walking back.
        let mut segs: Vec<String> = Vec::new();
        let mut j = k;
        while j >= 3
            && toks[j - 1].kind == TokKind::Punct
            && toks[j - 1].text == ":"
            && toks[j - 2].kind == TokKind::Punct
            && toks[j - 2].text == ":"
            && toks[j - 3].kind == TokKind::Ident
        {
            segs.push(toks[j - 3].text.clone());
            j -= 3;
        }
        segs.reverse();
        let Some(qual_last) = segs.last().cloned() else {
            return;
        };

        // Construction triggers on fully-qualified hazardous paths.
        let name = t.text.as_str();
        let qual = qual_last.as_str();
        let alloc_types = ["Vec", "String", "Box", "VecDeque"];
        let interior = [
            "RefCell",
            "Cell",
            "UnsafeCell",
            "OnceCell",
            "OnceLock",
            "Mutex",
            "RwLock",
        ];
        if (name == "new" || name == "with_capacity" || name == "from")
            && alloc_types.contains(&qual)
        {
            trigs.push(Trigger {
                kind: TriggerKind::Alloc,
                what: format!("{qual}::{name}"),
                file,
                line: t.line,
                col: t.col,
            });
        }
        if name == "new" && (interior.contains(&qual) || qual.starts_with("Atomic")) {
            trigs.push(Trigger {
                kind: TriggerKind::InteriorMut,
                what: format!("{qual}::{name}"),
                file,
                line: t.line,
                col: t.col,
            });
        }
        if matches!(name, "seed_from_u64" | "from_entropy" | "from_rng") {
            trigs.push(Trigger {
                kind: TriggerKind::Rng,
                what: format!("{qual}::{name}"),
                file,
                line: t.line,
                col: t.col,
            });
        }
        if matches!(name, "open" | "create") && qual == "File" {
            trigs.push(Trigger {
                kind: TriggerKind::Io,
                what: format!("File::{name}"),
                file,
                line: t.line,
                col: t.col,
            });
        }
        if qual == "fs"
            || (segs.len() >= 2 && segs[segs.len() - 2] == "fs")
            || (qual == "io" && matches!(name, "stdin" | "stdout" | "stderr"))
        {
            trigs.push(Trigger {
                kind: TriggerKind::Io,
                what: format!("{qual}::{name}"),
                file,
                line: t.line,
                col: t.col,
            });
        }
        if qual == "env"
            && matches!(name, "var" | "var_os" | "vars" | "vars_os")
            && fm.rel != ENV_CHOKEPOINT
        {
            trigs.push(Trigger {
                kind: TriggerKind::EnvRead,
                what: format!("env::{name}"),
                file,
                line: t.line,
                col: t.col,
            });
        }

        // Edges. `Self::f` → current impl type.
        let type_name = if qual == "Self" {
            self_ty.map(str::to_string)
        } else if qual.chars().next().is_some_and(char::is_uppercase) {
            // Resolve a `use` alias to its real last segment.
            Some(
                fm.uses
                    .get(qual)
                    .and_then(|p| p.last().cloned())
                    .unwrap_or_else(|| qual.to_string()),
            )
        } else {
            None
        };
        if let Some(ty) = type_name {
            if let Some(ids) = self.by_method.get(&(ty, t.text.clone())) {
                callees.extend(ids.iter().copied());
            }
            return;
        }
        // Module-qualified free call: resolve through the free-fn table,
        // filtered to the crate the first segment names (via `use` alias
        // or a `vaem_*` lib name).
        if let Some(ids) = self.by_free.get(&t.text) {
            let crate_dir = self.crate_of_path(fm, &segs);
            for &id in ids {
                let target_crate = crate_dir_of(&self.files[self.fns[id].file].rel);
                match &crate_dir {
                    Some(c) => {
                        if target_crate.as_deref() == Some(c.as_str()) {
                            callees.insert(id);
                        }
                    }
                    None => {
                        callees.insert(id);
                    }
                }
            }
        }
    }

    /// `f(…)` with no qualifier: same file, then same crate, then `use`.
    fn bare_call(&self, fm: &FileModel, k: usize, callees: &mut BTreeSet<usize>) {
        let name = &fm.toks[k].text;
        let Some(ids) = self.by_free.get(name) else {
            // A `use`-aliased import may rename: `use a::b as f;` — treat
            // the alias target's last segment as the name.
            if let Some(path) = fm.uses.get(name) {
                if let Some(real) = path.last() {
                    if let Some(ids) = self.by_free.get(real) {
                        callees.extend(ids.iter().copied());
                    }
                }
            }
            return;
        };
        let this_crate = crate_dir_of(&fm.rel);
        let same_file: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| self.files[self.fns[id].file].rel == fm.rel)
            .collect();
        if !same_file.is_empty() {
            callees.extend(same_file);
            return;
        }
        let same_crate: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| crate_dir_of(&self.files[self.fns[id].file].rel) == this_crate)
            .collect();
        if !same_crate.is_empty() {
            callees.extend(same_crate);
            return;
        }
        // Imported by `use`: any candidate whose crate matches the alias
        // path's first segment.
        if let Some(path) = fm.uses.get(name) {
            if let Some(c) = lib_to_crate_dir(path.first().map(String::as_str).unwrap_or("")) {
                callees.extend(ids.iter().copied().filter(|&id| {
                    crate_dir_of(&self.files[self.fns[id].file].rel).as_deref() == Some(c.as_str())
                }));
            }
        }
    }

    /// Candidate workspace functions the call token at `k` may invoke —
    /// the same resolution the graph builder uses, minus impl context
    /// (used by the E-rules to ask "does this call return `Result`?").
    pub fn resolve_call_candidates(&self, file_idx: usize, k: usize) -> Vec<usize> {
        let fm = &self.files[file_idx];
        let toks = &fm.toks;
        if k > 0 && toks[k - 1].kind == TokKind::Ident && toks[k - 1].text == "fn" {
            return Vec::new();
        }
        let prev_is = |off: usize, ch: char| {
            k >= off
                && toks.get(k - off).is_some_and(|n| {
                    n.kind == TokKind::Punct && n.text.len() == 1 && n.text.starts_with(ch)
                })
        };
        let mut callees = BTreeSet::new();
        let mut trigs = Vec::new();
        if prev_is(1, '.') {
            self.method_call(fm, toks, k, None, &mut callees, &mut trigs, file_idx);
        } else if prev_is(1, ':') && prev_is(2, ':') {
            self.path_call(fm, toks, k, None, &mut callees, &mut trigs, file_idx);
        } else {
            self.bare_call(fm, k, &mut callees);
        }
        callees.into_iter().collect()
    }

    /// Crate directory a module-qualified path refers to, when decidable.
    fn crate_of_path(&self, fm: &FileModel, segs: &[String]) -> Option<String> {
        let first = segs.first()?;
        match first.as_str() {
            "crate" | "self" | "super" => crate_dir_of(&fm.rel),
            _ => {
                let resolved = fm
                    .uses
                    .get(first)
                    .and_then(|p| p.first().cloned())
                    .unwrap_or_else(|| first.clone());
                lib_to_crate_dir(&resolved)
            }
        }
    }
}

fn trigger(kind: TriggerKind, t: &Tok, file: usize, suffix: &str) -> Trigger {
    Trigger {
        kind,
        what: format!(
            "{}{}{suffix}",
            if suffix == "()" { "." } else { "" },
            t.text
        ),
        file,
        line: t.line,
        col: t.col,
    }
}

/// The `crates/<name>` a workspace-relative path belongs to.
fn crate_dir_of(rel: &str) -> Option<String> {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => Some(name.to_string()),
        _ => None,
    }
}

/// Maps a library name from a `use` path to its crate directory
/// (`vaem` → `core`, `vaem_sparse` → `sparse`).
fn lib_to_crate_dir(lib: &str) -> Option<String> {
    if lib == "vaem" {
        return Some("core".to_string());
    }
    lib.strip_prefix("vaem_").map(str::to_string)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anno {
    Hot,
    Cold,
    Stage,
}

/// Maps each code line to the annotations targeting it. An annotation
/// comment targets the next code line (or its own line when trailing),
/// mirroring waiver placement.
fn annotation_targets(fm: &FileModel) -> BTreeMap<usize, Vec<Anno>> {
    let code_lines: BTreeSet<usize> = fm.toks.iter().map(|t| t.line).collect();
    let mut out: BTreeMap<usize, Vec<Anno>> = BTreeMap::new();
    for c in &fm.comments {
        let body = c.text.trim_start_matches('/');
        let body = body.strip_prefix('!').unwrap_or(body).trim_start();
        let Some(rest) = body.strip_prefix("vaem-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let anno = if rest.starts_with("hot") {
            Anno::Hot
        } else if rest.starts_with("cold") {
            Anno::Cold
        } else if rest.starts_with("stage") {
            Anno::Stage
        } else {
            continue;
        };
        let trailing = fm.toks.iter().any(|t| t.line == c.line && t.col < c.col);
        let target = if trailing {
            Some(c.line)
        } else {
            code_lines.range(c.end_line + 1..).next().copied()
        };
        if let Some(line) = target {
            out.entry(line).or_default().push(anno);
        }
    }
    out
}

/// Flattens every top-level and nested `use` item into one alias map.
fn collect_uses(items: &[Item], out: &mut BTreeMap<String, Vec<String>>) {
    parse::walk_items(items, &mut |item, _| {
        if item.kind == ItemKind::Use {
            for leaf in &item.use_leaves {
                out.insert(leaf.alias.clone(), leaf.path.clone());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        Workspace::build(&sources)
    }

    #[test]
    fn par_closures_become_roots_and_reach_callees() {
        let w = ws(&[(
            "crates/core/src/run.rs",
            r#"
use vaem_parallel::par_map_mut;
fn worker(x: u32) -> u32 { helper(x) }
fn helper(x: u32) -> u32 { let v = Vec::new(); v.len() as u32 + x }
pub fn run(xs: &mut [u32]) -> Vec<u32> {
    par_map_mut(xs, |_, x| worker(*x))
}
"#,
        )]);
        assert_eq!(w.par_roots.len(), 1);
        assert_eq!(w.par_roots[0].primitive, "par_map_mut");
        assert_eq!(w.par_roots[0].enclosing.as_deref(), Some("run"));
        let reached = w.reach(&w.hot_roots(), &|f| f.is_cold);
        let names: BTreeSet<String> = reached.keys().map(|&n| w.label(n)).collect();
        assert!(names.iter().any(|n| n == "worker"), "{names:?}");
        assert!(names.iter().any(|n| n == "helper"), "{names:?}");
        // helper's Vec::new is a recorded alloc trigger.
        let helper = reached
            .keys()
            .copied()
            .find(|&n| w.label(n) == "helper")
            .unwrap();
        assert!(w
            .node_triggers(helper)
            .iter()
            .any(|t| t.kind == TriggerKind::Alloc && t.what == "Vec::new"));
    }

    #[test]
    fn cold_annotation_prunes_traversal() {
        let w = ws(&[(
            "crates/core/src/run.rs",
            r#"
use vaem_parallel::par_map_mut;
/// Amortized setup.
// vaem-lint: cold per-sample setup, amortized over the solve
fn setup(x: u32) -> Vec<u32> { vec![x] }
pub fn run(xs: &mut [u32]) -> Vec<u32> {
    par_map_mut(xs, |_, x| setup(*x).len() as u32)
}
"#,
        )]);
        let reached = w.reach(&w.hot_roots(), &|f| f.is_cold);
        assert!(
            !reached.keys().any(|&n| w.label(n) == "setup"),
            "cold fn must not be entered"
        );
    }

    #[test]
    fn hot_and_stage_annotations_mark_fns() {
        let w = ws(&[(
            "crates/sparse/src/solve.rs",
            r#"
// vaem-lint: hot inner Krylov loop
pub fn krylov_step(x: &mut [f64]) { x[0] += 1.0; }

// vaem-lint: stage pure reordering
pub fn order(n: usize) -> Vec<usize> { (0..n).collect() }
"#,
        )]);
        let hot: Vec<&FnInfo> = w.fns.iter().filter(|f| f.is_hot).collect();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].name, "krylov_step");
        assert_eq!(w.stage_fns().len(), 1);
        assert_eq!(w.fns[w.stage_fns()[0]].name, "order");
        assert!(w
            .hot_roots()
            .iter()
            .any(|&n| matches!(n, Node::Fn(i) if w.fns[i].name == "krylov_step")));
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let w = ws(&[(
            "crates/fvm/src/op.rs",
            r#"
pub struct Op;
impl Op {
    pub fn outer(&self) -> f64 { self.inner() }
    fn inner(&self) -> f64 { 42.0 }
}
"#,
        )]);
        let outer = w.fns.iter().position(|f| f.name == "outer").unwrap();
        let callees = w.callees(Node::Fn(outer));
        assert_eq!(callees.len(), 1);
        assert_eq!(w.fns[callees[0]].name, "inner");
    }

    #[test]
    fn cross_crate_free_calls_resolve_through_use() {
        let w = ws(&[
            (
                "crates/sparse/src/ordering.rs",
                "pub fn amd(n: usize) -> Vec<usize> { (0..n).collect() }\n",
            ),
            (
                "crates/core/src/driver.rs",
                "use vaem_sparse::ordering::amd;\npub fn go() { let _p = amd(3); }\n",
            ),
        ]);
        let go = w.fns.iter().position(|f| f.name == "go").unwrap();
        let callees = w.callees(Node::Fn(go));
        assert_eq!(callees.len(), 1);
        assert_eq!(w.fns[callees[0]].name, "amd");
    }

    #[test]
    fn purity_triggers_are_recorded() {
        let w = ws(&[(
            "crates/stochastic/src/rng_use.rs",
            r#"
use rand::SeedableRng;
pub fn sample(seed: u64) -> f64 {
    let _rng = StdRng::seed_from_u64(seed);
    let _cell = RefCell::new(0u32);
    let _x = std::env::var("VAEM_X");
    0.0
}
"#,
        )]);
        let f = w.fns.iter().position(|f| f.name == "sample").unwrap();
        let kinds: Vec<TriggerKind> = w
            .node_triggers(Node::Fn(f))
            .iter()
            .map(|t| t.kind)
            .collect();
        assert!(kinds.contains(&TriggerKind::Rng));
        assert!(kinds.contains(&TriggerKind::InteriorMut));
        assert!(kinds.contains(&TriggerKind::EnvRead));
    }
}
