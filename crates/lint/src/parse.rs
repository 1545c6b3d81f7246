//! A brace-matched item parser over the [`crate::lexer`] token stream.
//!
//! The semantic rule families (H/P/E) need to know *which function a token
//! belongs to*, what that function's name and `impl` context are, which
//! `use` declarations are in scope, and whether the function's return type
//! mentions `Result`. This module recovers exactly that — an item tree
//! (`fn` / `impl` / `mod` / `use` / other) with token ranges and byte spans
//! — without attempting expression-level parsing: function bodies stay
//! opaque token ranges that the call-graph builder scans linearly.
//!
//! Span contract (pinned by `tests/parser_roundtrip.rs` over every source
//! file in the workspace): sibling item spans are non-overlapping and in
//! source order, every child span nests strictly inside its parent's, and
//! re-assembling the file from item spans plus the gaps between them is
//! byte-identical to the original source. The parser never fails — token
//! runs it does not understand become [`ItemKind::Other`] items.

use crate::lexer::{Tok, TokKind};

/// A half-open byte span into the source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method (`fn name(…) … { … }` or `fn name(…);`).
    Fn,
    /// An inline module (`mod name { … }`); `mod name;` is [`ItemKind::Other`].
    Mod,
    /// An `impl` block (inherent or trait).
    Impl,
    /// A `use` declaration.
    Use,
    /// Anything else (struct/enum/trait/const/static/type/macro/…).
    Other,
}

/// One leaf of a `use` tree: the name it binds locally and the full path
/// segments it binds it to (`use a::b::{c as d}` yields `("d", [a, b, c])`).
#[derive(Debug, Clone)]
pub struct UseLeaf {
    /// The local alias (last segment, or the `as` name).
    pub alias: String,
    /// Full path segments as written.
    pub path: Vec<String>,
}

/// One parsed item.
#[derive(Debug)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// Item name: the `fn`/`mod` name, the `impl` self type, `""` otherwise.
    pub name: String,
    /// For `impl Trait for Type`, the trait's last path segment.
    pub trait_name: Option<String>,
    /// 1-based line of the defining keyword token.
    pub line: usize,
    /// 1-based column of the defining keyword token.
    pub col: usize,
    /// Byte span of the whole item (leading attributes included).
    pub span: Span,
    /// Inclusive token-index range `[first, last]` of the whole item.
    pub tokens: (usize, usize),
    /// For `Fn`: inclusive token range of the `{ … }` body (absent for
    /// bodyless signatures).
    pub body: Option<(usize, usize)>,
    /// For `Fn`: the textual return type mentions `Result`.
    pub returns_result: bool,
    /// Child items (`Mod` and `Impl` bodies are parsed recursively).
    pub children: Vec<Item>,
    /// For `Use`: the leaves this declaration binds.
    pub use_leaves: Vec<UseLeaf>,
}

/// Parses the token stream of one file into a top-level item list.
pub fn parse(toks: &[Tok]) -> Vec<Item> {
    let mut parser = Parser { toks };
    parser.items(0, toks.len())
}

struct Parser<'a> {
    toks: &'a [Tok],
}

impl Parser<'_> {
    fn is_punct(&self, k: usize, ch: char) -> bool {
        self.toks.get(k).is_some_and(|t| {
            t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
        })
    }

    fn is_ident(&self, k: usize, name: &str) -> bool {
        self.toks
            .get(k)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    }

    fn ident_text(&self, k: usize) -> Option<&str> {
        self.toks.get(k).and_then(|t| {
            if t.kind == TokKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    /// Index one past the matching close for the open bracket at `k`
    /// (clamped to `end` when unbalanced).
    fn match_delim(&self, k: usize, open: char, close: char, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = k;
        while j < end {
            if self.is_punct(j, open) {
                depth += 1;
            } else if self.is_punct(j, close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Parses the items in the token range `[k, end)`.
    fn items(&mut self, mut k: usize, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        while k < end {
            let (item, next) = self.item(k, end);
            debug_assert!(next > k, "parser must make progress");
            out.push(item);
            k = next.max(k + 1);
        }
        out
    }

    /// Parses one item starting at `k`; returns it and the index of the
    /// first token after it.
    fn item(&mut self, start: usize, end: usize) -> (Item, usize) {
        let mut k = start;
        // Leading attributes belong to the item.
        while self.is_punct(k, '#')
            && (self.is_punct(k + 1, '[')
                || (self.is_punct(k + 1, '!') && self.is_punct(k + 2, '[')))
        {
            let open = if self.is_punct(k + 1, '[') {
                k + 1
            } else {
                k + 2
            };
            k = self.match_delim(open, '[', ']', end);
        }
        // Visibility.
        if self.is_ident(k, "pub") {
            k += 1;
            if self.is_punct(k, '(') {
                k = self.match_delim(k, '(', ')', end);
            }
        }
        // Leading qualifiers before the defining keyword.
        let mut kw = k;
        while kw < end
            && matches!(
                self.ident_text(kw),
                Some("const" | "async" | "unsafe" | "extern" | "default")
            )
        {
            // `const` may itself be the defining keyword (`const N: … = …;`)
            // — only treat it as a qualifier when a `fn` follows eventually.
            if self.ident_text(kw) == Some("const") && !self.leads_to_fn(kw + 1, end) {
                break;
            }
            if self.ident_text(kw) == Some("extern")
                && self.toks.get(kw + 1).map(|t| t.kind) == Some(TokKind::Str)
            {
                kw += 2; // `extern "C" fn …`
                continue;
            }
            kw += 1;
        }
        match self.ident_text(kw) {
            Some("fn") => self.fn_item(start, kw, end),
            Some("mod") => self.mod_item(start, kw, end),
            Some("impl") => self.impl_item(start, kw, end),
            Some("use") => self.use_item(start, kw, end),
            _ => self.other_item(start, k, end),
        }
    }

    /// True when the tokens from `k` begin with qualifiers followed by `fn`.
    fn leads_to_fn(&self, mut k: usize, end: usize) -> bool {
        while k < end {
            match self.ident_text(k) {
                Some("fn") => return true,
                Some("async" | "unsafe" | "extern") => k += 1,
                _ if self.toks.get(k).map(|t| t.kind) == Some(TokKind::Str) => k += 1,
                _ => return false,
            }
        }
        false
    }

    fn fn_item(&mut self, start: usize, kw: usize, end: usize) -> (Item, usize) {
        let name_idx = kw + 1;
        let name = self.ident_text(name_idx).unwrap_or("").to_string();
        // Scan the signature for the body `{` (or terminating `;`) at
        // paren/bracket depth zero. Braces cannot appear in a signature
        // outside delimiters, so the first top-level `{` is the body.
        let mut j = name_idx + 1;
        let mut sig_end = end;
        let mut body = None;
        while j < end {
            if self.is_punct(j, '(') {
                j = self.match_delim(j, '(', ')', end);
            } else if self.is_punct(j, '[') {
                j = self.match_delim(j, '[', ']', end);
            } else if self.is_punct(j, '{') {
                let close = self.match_delim(j, '{', '}', end);
                body = Some((j, close - 1));
                sig_end = close;
                break;
            } else if self.is_punct(j, ';') {
                sig_end = j + 1;
                break;
            } else {
                j += 1;
            }
        }
        // Return type: the tokens between `->` and the body/`;`.
        let mut returns_result = false;
        let mut r = name_idx;
        while r + 1 < sig_end {
            if self.is_punct(r, '-') && self.is_punct(r + 1, '>') {
                let stop = body.map(|(open, _)| open).unwrap_or(sig_end);
                for t in &self.toks[r..stop] {
                    if t.kind == TokKind::Ident && t.text == "Result" {
                        returns_result = true;
                    }
                    if t.kind == TokKind::Ident && t.text == "where" {
                        break;
                    }
                }
                break;
            }
            r += 1;
        }
        let last = sig_end.saturating_sub(1).max(start);
        (
            Item {
                kind: ItemKind::Fn,
                name,
                trait_name: None,
                line: self.toks[kw].line,
                col: self.toks[kw].col,
                span: self.span_of(start, last),
                tokens: (start, last),
                body,
                returns_result,
                children: Vec::new(),
                use_leaves: Vec::new(),
            },
            sig_end,
        )
    }

    fn mod_item(&mut self, start: usize, kw: usize, end: usize) -> (Item, usize) {
        let name = self.ident_text(kw + 1).unwrap_or("").to_string();
        if self.is_punct(kw + 2, '{') {
            let close = self.match_delim(kw + 2, '{', '}', end);
            let children = self.items(kw + 3, close - 1);
            (
                Item {
                    kind: ItemKind::Mod,
                    name,
                    trait_name: None,
                    line: self.toks[kw].line,
                    col: self.toks[kw].col,
                    span: self.span_of(start, close - 1),
                    tokens: (start, close - 1),
                    body: None,
                    returns_result: false,
                    children,
                    use_leaves: Vec::new(),
                },
                close,
            )
        } else {
            // `mod name;` — an out-of-line module reference.
            let stop = self.scan_to_semi(kw, end);
            (
                self.plain(ItemKind::Other, start, kw, stop.saturating_sub(1)),
                stop,
            )
        }
    }

    fn impl_item(&mut self, start: usize, kw: usize, end: usize) -> (Item, usize) {
        // Find the body `{` at angle-aware top level. `->` inside an impl
        // header (e.g. `impl Fn(…) -> …`) hides its `>` from depth tracking.
        let mut j = kw + 1;
        let mut body_open = None;
        while j < end {
            if self.is_punct(j, '(') {
                j = self.match_delim(j, '(', ')', end);
            } else if self.is_punct(j, '[') {
                j = self.match_delim(j, '[', ']', end);
            } else if self.is_punct(j, '{') {
                body_open = Some(j);
                break;
            } else {
                j += 1;
            }
        }
        let Some(open) = body_open else {
            let stop = self.scan_to_semi(kw, end);
            return (
                self.plain(ItemKind::Other, start, kw, stop.saturating_sub(1)),
                stop,
            );
        };
        // Self type: the last path identifier before the body (skipping a
        // trailing `where` clause), with `impl Trait for Type` preferring
        // the segment after `for`.
        let header = &self.toks[kw + 1..open];
        let mut where_at = header.len();
        let mut angle = 0isize;
        for (i, t) in header.iter().enumerate() {
            match t.text.as_str() {
                "<" if t.kind == TokKind::Punct => angle += 1,
                ">" if t.kind == TokKind::Punct => {
                    let arrow =
                        i > 0 && header[i - 1].kind == TokKind::Punct && header[i - 1].text == "-";
                    if !arrow {
                        angle -= 1;
                    }
                }
                "where" if t.kind == TokKind::Ident && angle <= 0 => {
                    where_at = i;
                    break;
                }
                _ => {}
            }
        }
        let mut for_at = None;
        let mut angle = 0isize;
        for (i, t) in header[..where_at].iter().enumerate() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => {
                    let arrow =
                        i > 0 && header[i - 1].kind == TokKind::Punct && header[i - 1].text == "-";
                    if !arrow {
                        angle -= 1;
                    }
                }
                (TokKind::Ident, "for") if angle <= 0 => for_at = Some(i),
                _ => {}
            }
        }
        let type_range = match for_at {
            Some(f) => &header[f + 1..where_at],
            None => &header[..where_at],
        };
        let self_ty = last_path_ident(type_range).unwrap_or_default();
        let trait_name = for_at.and_then(|f| last_path_ident(&header[..f]));
        let close = self.match_delim(open, '{', '}', end);
        let children = self.items(open + 1, close - 1);
        (
            Item {
                kind: ItemKind::Impl,
                name: self_ty,
                trait_name,
                line: self.toks[kw].line,
                col: self.toks[kw].col,
                span: self.span_of(start, close - 1),
                tokens: (start, close - 1),
                body: None,
                returns_result: false,
                children,
                use_leaves: Vec::new(),
            },
            close,
        )
    }

    fn use_item(&mut self, start: usize, kw: usize, end: usize) -> (Item, usize) {
        let stop = self.scan_to_semi(kw, end);
        let mut leaves = Vec::new();
        collect_use_leaves(
            &self.toks[kw + 1..stop.saturating_sub(1)],
            &mut Vec::new(),
            &mut leaves,
        );
        let mut item = self.plain(ItemKind::Use, start, kw, stop.saturating_sub(1));
        item.use_leaves = leaves;
        (item, stop)
    }

    /// Any other item: consume to the first top-level `;` or brace-matched
    /// `{ … }`, whichever comes first.
    fn other_item(&mut self, start: usize, kw: usize, end: usize) -> (Item, usize) {
        let mut j = kw;
        while j < end {
            if self.is_punct(j, '(') {
                j = self.match_delim(j, '(', ')', end);
            } else if self.is_punct(j, '[') {
                j = self.match_delim(j, '[', ']', end);
            } else if self.is_punct(j, '{') {
                let close = self.match_delim(j, '{', '}', end);
                // `struct X { … }` ends at the brace; `static X: [u8; 1] =
                // { … };` continues to the `;`.
                if self.is_punct(close, ';') {
                    return (
                        self.plain(ItemKind::Other, start, kw.min(end - 1), close),
                        close + 1,
                    );
                }
                return (
                    self.plain(ItemKind::Other, start, kw.min(end - 1), close - 1),
                    close,
                );
            } else if self.is_punct(j, ';') {
                return (
                    self.plain(ItemKind::Other, start, kw.min(end - 1), j),
                    j + 1,
                );
            } else {
                j += 1;
            }
        }
        (
            self.plain(ItemKind::Other, start, kw.min(end - 1), end - 1),
            end,
        )
    }

    fn scan_to_semi(&self, from: usize, end: usize) -> usize {
        let mut j = from;
        while j < end {
            if self.is_punct(j, '{') {
                j = self.match_delim(j, '{', '}', end);
            } else if self.is_punct(j, ';') {
                return j + 1;
            } else {
                j += 1;
            }
        }
        end
    }

    fn plain(&self, kind: ItemKind, start: usize, kw: usize, last: usize) -> Item {
        let kw = kw.min(last);
        Item {
            kind,
            name: String::new(),
            trait_name: None,
            line: self.toks[kw].line,
            col: self.toks[kw].col,
            span: self.span_of(start, last),
            tokens: (start, last),
            body: None,
            returns_result: false,
            children: Vec::new(),
            use_leaves: Vec::new(),
        }
    }

    fn span_of(&self, first: usize, last: usize) -> Span {
        Span {
            start: self.toks[first].start,
            end: self.toks[last.max(first)].end,
        }
    }
}

/// The last plain identifier of a path-like token run, ignoring generic
/// arguments (`Foo<Bar<'a, T>>` → `Foo`, `a::b::Baz<T>` → `Baz`).
fn last_path_ident(toks: &[Tok]) -> Option<String> {
    let mut angle = 0isize;
    let mut last = None;
    for (i, t) in toks.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => {
                let arrow = i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == "-";
                if !arrow {
                    angle -= 1;
                }
            }
            // Skip keywords that may precede the type path.
            (TokKind::Ident, name)
                if angle <= 0 && !matches!(name, "dyn" | "mut" | "const" | "unsafe") =>
            {
                last = Some(name.to_string());
            }
            _ => {}
        }
    }
    last
}

/// Recursively flattens a `use` tree body into its leaves.
fn collect_use_leaves(toks: &[Tok], prefix: &mut Vec<String>, out: &mut Vec<UseLeaf>) {
    let mut k = 0usize;
    let base_len = prefix.len();
    let mut pending: Option<String> = None;
    while k < toks.len() {
        let t = &toks[k];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "as") => {
                // `path as alias`: the next ident renames the pending leaf.
                if let (Some(seg), Some(alias)) = (
                    pending.take(),
                    toks.get(k + 1).filter(|a| a.kind == TokKind::Ident),
                ) {
                    prefix.push(seg);
                    out.push(UseLeaf {
                        alias: alias.text.clone(),
                        path: prefix.clone(),
                    });
                    prefix.pop();
                    k += 1;
                }
            }
            (TokKind::Ident, seg) => pending = Some(seg.to_string()),
            // `::` — push the pending segment deeper.
            (TokKind::Punct, ":")
                if toks
                    .get(k + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == ":") =>
            {
                if let Some(seg) = pending.take() {
                    prefix.push(seg);
                }
                k += 1;
            }
            (TokKind::Punct, "{") => {
                // Group: recurse over each comma-separated element.
                let mut depth = 0usize;
                let mut close = k;
                while close < toks.len() {
                    if toks[close].kind == TokKind::Punct && toks[close].text == "{" {
                        depth += 1;
                    } else if toks[close].kind == TokKind::Punct && toks[close].text == "}" {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    close += 1;
                }
                let inner = &toks[k + 1..close.min(toks.len())];
                let mut elem_start = 0usize;
                let mut depth = 0usize;
                for (i, it) in inner.iter().enumerate() {
                    let is_open = it.kind == TokKind::Punct && it.text == "{";
                    let is_close = it.kind == TokKind::Punct && it.text == "}";
                    let is_comma = it.kind == TokKind::Punct && it.text == ",";
                    if is_open {
                        depth += 1;
                    } else if is_close {
                        depth = depth.saturating_sub(1);
                    } else if is_comma && depth == 0 {
                        collect_use_leaves(&inner[elem_start..i], prefix, out);
                        elem_start = i + 1;
                    }
                }
                if elem_start < inner.len() {
                    collect_use_leaves(&inner[elem_start..], prefix, out);
                }
                k = close;
                pending = None;
            }
            (TokKind::Punct, "*") => pending = None, // glob: no named leaf
            (TokKind::Punct, ",") => {
                if let Some(seg) = pending.take() {
                    out.push(UseLeaf {
                        alias: seg.clone(),
                        path: {
                            let mut p = prefix.clone();
                            p.push(seg);
                            p
                        },
                    });
                }
                prefix.truncate(base_len);
            }
            _ => {}
        }
        k += 1;
    }
    if let Some(seg) = pending.take() {
        out.push(UseLeaf {
            alias: seg.clone(),
            path: {
                let mut p = prefix.clone();
                p.push(seg);
                p
            },
        });
    }
    prefix.truncate(base_len);
}

/// Checks the span contract over a parsed file: sibling spans are ordered
/// and disjoint, children nest inside parents, and splicing the item spans
/// back between their gaps reproduces `src` byte-for-byte.
///
/// # Errors
/// Returns a description of the first violated invariant.
pub fn check_roundtrip(src: &str, items: &[Item]) -> Result<(), String> {
    fn walk(src: &str, items: &[Item], lo: usize, hi: usize) -> Result<(), String> {
        let mut pos = lo;
        for item in items {
            if item.span.start < pos {
                return Err(format!(
                    "item at line {} starts at byte {} before cursor {pos}",
                    item.line, item.span.start
                ));
            }
            if item.span.end > hi {
                return Err(format!(
                    "item at line {} ends at byte {} past parent end {hi}",
                    item.line, item.span.end
                ));
            }
            if item.span.start > item.span.end
                || !src.is_char_boundary(item.span.start)
                || !src.is_char_boundary(item.span.end)
            {
                return Err(format!("item at line {} has an invalid span", item.line));
            }
            walk(src, &item.children, item.span.start, item.span.end)?;
            pos = item.span.end;
        }
        Ok(())
    }
    walk(src, items, 0, src.len())?;
    // Reconstruction: gaps + item slices concatenate back to the source.
    let mut rebuilt = String::with_capacity(src.len());
    let mut pos = 0usize;
    for item in items {
        rebuilt.push_str(&src[pos..item.span.start]);
        rebuilt.push_str(&src[item.span.start..item.span.end]);
        pos = item.span.end;
    }
    rebuilt.push_str(&src[pos..]);
    if rebuilt != src {
        return Err("reconstructed source differs from the original".to_string());
    }
    Ok(())
}

/// Depth-first iteration over an item tree (parents before children).
pub fn walk_items<'a>(items: &'a [Item], visit: &mut dyn FnMut(&'a Item, &[&'a Item])) {
    fn inner<'a>(
        items: &'a [Item],
        stack: &mut Vec<&'a Item>,
        visit: &mut dyn FnMut(&'a Item, &[&'a Item]),
    ) {
        for item in items {
            visit(item, stack);
            stack.push(item);
            inner(&item.children, stack, visit);
            stack.pop();
        }
    }
    inner(items, &mut Vec::new(), visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parsed(src: &str) -> Vec<Item> {
        let lexed = lexer::lex(src);
        let items = parse(&lexed.toks);
        check_roundtrip(src, &items).expect("span contract");
        items
    }

    #[test]
    fn finds_fns_mods_impls_and_uses() {
        let src = r#"
use std::collections::BTreeMap;
use vaem_parallel::{par_map_mut, env as penv};

pub fn free(x: u32) -> Result<u32, String> { Ok(x) }

mod inner {
    pub fn nested() {}
}

impl<T: Clone> Holder<T> {
    pub fn get(&self) -> T { self.0.clone() }
}

impl Display for Holder<u8> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) }
}
"#;
        let items = parsed(src);
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            [
                ItemKind::Use,
                ItemKind::Use,
                ItemKind::Fn,
                ItemKind::Mod,
                ItemKind::Impl,
                ItemKind::Impl
            ]
        );
        assert_eq!(items[2].name, "free");
        assert!(items[2].returns_result);
        assert_eq!(items[3].children[0].name, "nested");
        assert_eq!(items[4].name, "Holder");
        assert!(items[4].trait_name.is_none());
        assert_eq!(items[4].children[0].name, "get");
        assert!(!items[4].children[0].returns_result);
        assert_eq!(items[5].name, "Holder");
        assert_eq!(items[5].trait_name.as_deref(), Some("Display"));
        // `fmt::Result` in a return type still counts as Result-returning.
        assert!(items[5].children[0].returns_result);
    }

    #[test]
    fn use_trees_flatten_to_aliased_leaves() {
        let items = parsed("use a::b::{c, d as e, f::{g, h}};\nuse x::y;\nuse z::*;\n");
        let leaves = &items[0].use_leaves;
        let flat: Vec<(String, String)> = leaves
            .iter()
            .map(|l| (l.alias.clone(), l.path.join("::")))
            .collect();
        assert!(flat.contains(&("c".into(), "a::b::c".into())));
        assert!(flat.contains(&("e".into(), "a::b::d".into())));
        assert!(flat.contains(&("g".into(), "a::b::f::g".into())));
        assert!(flat.contains(&("h".into(), "a::b::f::h".into())));
        assert_eq!(items[1].use_leaves[0].alias, "y");
        assert_eq!(items[1].use_leaves[0].path.join("::"), "x::y");
        assert!(items[2].use_leaves.is_empty(), "glob binds no named leaf");
    }

    #[test]
    fn attributes_and_qualifiers_stay_inside_the_item_span() {
        let src = "#[inline]\n#[must_use]\npub unsafe extern \"C\" fn kernel() -> usize { 0 }\nconst N: usize = 3;\npub const fn cfn() -> u8 { 1 }";
        let items = parsed(src);
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name, "kernel");
        assert!(src[items[0].span.start..items[0].span.end].starts_with("#[inline]"));
        assert_eq!(items[1].kind, ItemKind::Other, "const item");
        assert_eq!(items[2].kind, ItemKind::Fn);
        assert_eq!(items[2].name, "cfn");
    }

    #[test]
    fn fn_bodies_with_nested_braces_are_matched() {
        let src = "fn a() { if x { y() } else { z(|| { w() }) } }\nfn b() {}";
        let items = parsed(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "a");
        assert_eq!(items[1].name, "b");
        let (open, close) = items[0].body.unwrap();
        assert!(open < close);
    }

    #[test]
    fn struct_enum_trait_and_macros_become_other_items() {
        let src = "struct S { a: u32 }\nenum E { A, B(u8) }\ntrait T { fn m(&self); }\nmacro_rules! m { () => {}; }\ntype Alias = u8;\nstatic X: u8 = { 1 };";
        let items = parsed(src);
        assert!(items.iter().all(|i| i.kind == ItemKind::Other));
        assert_eq!(items.len(), 6);
    }

    #[test]
    fn degenerate_input_never_panics_and_round_trips() {
        for src in [
            "", ";;;", "fn", "fn (", "impl", "impl {", "use ;", "pub", "} } {", "fn f(", "mod m",
            "#[attr",
        ] {
            let lexed = lexer::lex(src);
            let items = parse(&lexed.toks);
            check_roundtrip(src, &items).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        }
    }
}
