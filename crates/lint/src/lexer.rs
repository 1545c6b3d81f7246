//! A small self-contained Rust lexer — just enough fidelity for line/token
//! level lint rules.
//!
//! The rules in [`crate::rules`] only need to know *which identifiers and
//! punctuation appear outside of comments and literals*, with accurate
//! line/column spans. The tricky part of that job is not the token grammar,
//! it is not desynchronizing on the literal forms that embed quote or slash
//! characters:
//!
//! * nested block comments (`/* outer /* inner */ still a comment */`),
//! * raw strings with arbitrary hash fences (`r#"contains " quote"#`),
//! * byte/raw-byte/C strings (`b"…"`, `br#"…"#`, `c"…"`),
//! * char literals versus lifetimes (`'u'` is a char, `<'u>` is a
//!   lifetime, `'\''` is an escaped quote),
//! * raw identifiers (`r#match` is an identifier, `r#"…"#` is a string).
//!
//! Everything else (numbers, multi-character operators) is lexed loosely:
//! `::` comes out as two `:` punctuation tokens, `1e-3` as a number, a
//! punctuation and a number. The rule engine matches on those sequences.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// Single punctuation character.
    Punct,
    /// String literal of any flavour (cooked, raw, byte, C).
    Str,
    /// Character or byte-character literal.
    Char,
    /// Numeric literal (loosely delimited).
    Num,
    /// Lifetime (`'a`, `'static`) — distinct from [`TokKind::Char`].
    Lifetime,
}

/// One significant (non-comment, non-whitespace) token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token kind.
    pub kind: TokKind,
    /// The lexeme text. For [`TokKind::Str`] this is a placeholder, not the
    /// literal contents — rules never look inside string literals.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// 1-based source column of the token's first character.
    pub col: usize,
}

/// One comment (line or block, doc or plain), with its full text.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including the `//`/`/*` markers.
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// 1-based column of the comment's first character.
    pub col: usize,
    /// 1-based line of the comment's last character (equals `line` for
    /// line comments, may be larger for block comments).
    pub end_line: usize,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    chars: &'a [char],
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor<'_> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.chars.get(self.i).copied()?;
        self.i += 1;
        if ch == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(ch)
    }
}

fn is_ident_start(ch: char) -> bool {
    ch == '_' || ch.is_alphabetic()
}

fn is_ident_continue(ch: char) -> bool {
    ch == '_' || ch.is_alphanumeric()
}

/// Lexes `src` into tokens and comments. Never fails: unterminated literals
/// or comments simply run to the end of the file (the lint rules prefer a
/// degraded-but-positioned token stream over a hard error on odd input).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut cur = Cursor {
        chars: &chars,
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(ch) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if ch.is_whitespace() {
            cur.bump();
        } else if ch == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur, &mut out, line, col);
        } else if ch == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur, &mut out, line, col);
        } else if ch == '"' {
            lex_cooked_string(&mut cur);
            push_tok(&mut out, TokKind::Str, "\"…\"", line, col);
        } else if ch == '\'' {
            lex_quote(&mut cur, &mut out, line, col);
        } else if ch.is_ascii_digit() {
            lex_number(&mut cur, &mut out, line, col);
        } else if is_ident_start(ch) {
            lex_ident_or_prefixed(&mut cur, &mut out, line, col);
        } else {
            cur.bump();
            push_tok(&mut out, TokKind::Punct, &ch.to_string(), line, col);
        }
    }
    out
}

fn push_tok(out: &mut Lexed, kind: TokKind, text: &str, line: usize, col: usize) {
    out.toks.push(Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    });
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    let mut text = String::new();
    while let Some(ch) = cur.peek(0) {
        if ch == '\n' {
            break;
        }
        text.push(ch);
        cur.bump();
    }
    out.comments.push(Comment {
        text,
        line,
        col,
        end_line: line,
    });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    let mut text = String::new();
    let mut depth = 0usize;
    while let Some(ch) = cur.peek(0) {
        if ch == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if ch == '*' && cur.peek(1) == Some('/') {
            depth -= 1;
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(ch);
            cur.bump();
        }
    }
    out.comments.push(Comment {
        text,
        line,
        col,
        end_line: cur.line,
    });
}

/// Consumes a cooked (escapable, `"`-delimited) string body, including the
/// opening and closing quotes.
fn lex_cooked_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string body `r##"…"##` given that the cursor sits on the
/// first `#` or `"` after the `r`/`br`/`cr` prefix. Returns `true` if a raw
/// string was actually consumed (`false` means the `#`s belong to a raw
/// identifier or stray punctuation and nothing was consumed).
fn try_lex_raw_string(cur: &mut Cursor) -> bool {
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some('"') {
        return false;
    }
    for _ in 0..=hashes {
        cur.bump(); // the hashes and the opening quote
    }
    'body: while let Some(ch) = cur.bump() {
        if ch == '"' {
            for k in 0..hashes {
                if cur.peek(k) != Some('#') {
                    continue 'body;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
    true
}

/// Disambiguates `'`: lifetime, char literal, or escaped char literal.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    cur.bump(); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume escape then scan to closing '.
            cur.bump();
            cur.bump();
            while let Some(ch) = cur.bump() {
                if ch == '\'' {
                    break;
                }
            }
            push_tok(out, TokKind::Char, "'…'", line, col);
        }
        Some(ch) if is_ident_start(ch) => {
            // Identifier run: `'a'` (char) vs `'a` / `'static` (lifetime).
            let mut len = 0usize;
            while cur.peek(len).is_some_and(is_ident_continue) {
                len += 1;
            }
            if cur.peek(len) == Some('\'') {
                for _ in 0..=len {
                    cur.bump();
                }
                push_tok(out, TokKind::Char, "'…'", line, col);
            } else {
                let mut name = String::from("'");
                for _ in 0..len {
                    name.push(cur.bump().unwrap_or('_'));
                }
                push_tok(out, TokKind::Lifetime, &name, line, col);
            }
        }
        Some(_) => {
            // Non-identifier char literal such as '(' or '"'.
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            push_tok(out, TokKind::Char, "'…'", line, col);
        }
        None => {}
    }
}

fn lex_number(cur: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    while let Some(ch) = cur.peek(0) {
        // A digit run plus `.` only when a digit follows (so `1.max(2)` ends
        // the number at the method call, matching rustc's loose float rule).
        let continues =
            is_ident_continue(ch) || (ch == '.' && cur.peek(1).is_some_and(|c| c.is_ascii_digit()));
        if !continues {
            break;
        }
        cur.bump();
    }
    push_tok(out, TokKind::Num, "0", line, col);
}

fn lex_ident_or_prefixed(cur: &mut Cursor, out: &mut Lexed, line: usize, col: usize) {
    let mut name = String::new();
    while let Some(ch) = cur.peek(0) {
        if is_ident_continue(ch) {
            name.push(ch);
            cur.bump();
        } else {
            break;
        }
    }
    match (name.as_str(), cur.peek(0)) {
        // Raw strings: r"…", r#"…"#, br"…", cr#"…"#.
        ("r" | "br" | "cr", Some('"' | '#')) => {
            if try_lex_raw_string(cur) {
                push_tok(out, TokKind::Str, "r\"…\"", line, col);
                return;
            }
            // `r#ident`: raw identifier — consume the hash and the name.
            if name == "r" && cur.peek(0) == Some('#') {
                cur.bump();
                let mut raw = String::new();
                while let Some(ch) = cur.peek(0) {
                    if is_ident_continue(ch) {
                        raw.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                push_tok(out, TokKind::Ident, &raw, line, col);
                return;
            }
            push_tok(out, TokKind::Ident, &name, line, col);
        }
        // Cooked byte / C strings: b"…", c"…".
        ("b" | "c", Some('"')) => {
            lex_cooked_string(cur);
            push_tok(out, TokKind::Str, "b\"…\"", line, col);
        }
        // Byte char literal: b'x'.
        ("b", Some('\'')) => {
            lex_quote(cur, out, line, col);
            if let Some(last) = out.toks.last_mut() {
                last.kind = TokKind::Char;
                last.line = line;
                last.col = col;
            }
        }
        _ => push_tok(out, TokKind::Ident, &name, line, col),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn plain_tokens_carry_positions() {
        let lexed = lex("let x = foo();\nlet y = 2;");
        let foo = lexed.toks.iter().find(|t| t.text == "foo").unwrap();
        assert_eq!((foo.line, foo.col), (1, 9));
        let y = lexed.toks.iter().find(|t| t.text == "y").unwrap();
        assert_eq!((y.line, y.col), (2, 5));
    }

    #[test]
    fn nested_block_comments_hide_their_contents() {
        let lexed = lex("a /* x /* unsafe */ HashMap */ b");
        assert_eq!(idents("a /* x /* unsafe */ HashMap */ b"), ["a", "b"]);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn raw_strings_with_hash_fences_hide_their_contents() {
        let src = "let s = r#\"env::var(\"X\") unsafe\"#; done();";
        assert_eq!(idents(src), ["let", "s", "done"]);
        let src2 = "let s = r##\"quote \"# inside\"##; tail";
        assert_eq!(idents(src2), ["let", "s", "tail"]);
        let src3 = "let b = br#\"bytes\"#; let c = c\"cstr\"; tail";
        assert_eq!(idents(src3), ["let", "b", "let", "c", "tail"]);
    }

    #[test]
    fn raw_identifiers_are_identifiers_not_strings() {
        assert_eq!(
            idents("let r#match = 1; use r#match;"),
            ["let", "match", "use", "match"]
        );
    }

    #[test]
    fn char_literals_versus_lifetimes() {
        // 'u' is a char literal; 'a in a generic position is a lifetime.
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'u'; let q = '\\''; }");
        let lifetimes: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn char_literal_containing_quote_does_not_desync() {
        // The '"' char literal must not open a string.
        assert_eq!(idents("let q = '\"'; env_read()"), ["let", "q", "env_read"]);
    }

    #[test]
    fn strings_with_escapes_do_not_desync() {
        assert_eq!(
            idents(r#"let s = "a \" b \\"; after()"#),
            ["let", "s", "after"]
        );
    }

    #[test]
    fn line_and_block_comments_record_spans() {
        let lexed = lex("// one\ncode();\n/* two\nlines */ more();");
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 3);
        assert_eq!(lexed.comments[1].end_line, 4);
    }
}
