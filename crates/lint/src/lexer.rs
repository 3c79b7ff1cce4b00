//! A small hand-rolled Rust lexer.
//!
//! This is not a full implementation of the Rust grammar — it is exactly
//! enough lexing for static analysis: comments (kept, with doc-ness),
//! string/char/byte literals (skipped as opaque tokens so `"panic!"` in a
//! message never trips a rule), raw strings with arbitrary `#` fences,
//! nested block comments, lifetimes vs. char literals, identifiers, and
//! numeric literals with int/float discrimination (needed by the
//! `no-float-eq` rule). Every token carries a 1-based line and column.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `unwrap`, `fs`, ...).
    Ident,
    /// Lifetime such as `'static` (distinguished from char literals).
    Lifetime,
    /// Integer literal (including hex/octal/binary and tuple indices).
    Int,
    /// Float literal (`1.0`, `1.`, `1e-5`, `2.5f64`).
    Float,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `br##"…"##`.
    Str,
    /// Char or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// Punctuation; multi-character operators (`==`, `::`, `->`) are one
    /// token.
    Punct,
    /// `// …` comment; `doc` is true for `///` and `//!`.
    LineComment {
        /// True for `///` and `//!` doc comments.
        doc: bool,
    },
    /// `/* … */` comment; `doc` is true for `/** … */` and `/*! … */`.
    BlockComment {
        /// True for `/** … */` and `/*! … */` doc comments.
        doc: bool,
    },
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token (comments keep their markers).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True if this token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }
}

/// Multi-character operators, longest first so lexing is greedy.
const MULTI_PUNCT: [&str; 22] = [
    "..=", "...", "<<=", ">>=", "::", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    src: std::marker::PhantomData<&'a str>,
}

impl Cursor<'_> {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src: std::marker::PhantomData,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }

    fn bump_str(&mut self, s: &str, out: &mut String) {
        for _ in s.chars() {
            if let Some(c) = self.bump() {
                out.push(c);
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Never fails: unrecognized bytes become
/// single-character [`TokKind::Punct`] tokens, and unterminated literals
/// or comments simply run to end of file. Static analysis must degrade
/// gracefully on weird input, not abort the whole run.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let mut text = String::new();
        let kind = if cur.starts_with("//") {
            lex_line_comment(&mut cur, &mut text)
        } else if cur.starts_with("/*") {
            lex_block_comment(&mut cur, &mut text)
        } else if is_raw_or_byte_string_start(&cur) {
            lex_string_with_prefix(&mut cur, &mut text)
        } else if c == '"' {
            lex_quoted(&mut cur, &mut text, '"');
            TokKind::Str
        } else if c == '\'' {
            lex_tick(&mut cur, &mut text)
        } else if is_ident_start(c) {
            lex_ident(&mut cur, &mut text);
            TokKind::Ident
        } else if c.is_ascii_digit() {
            lex_number(&mut cur, &mut text, &out)
        } else {
            lex_punct(&mut cur, &mut text);
            TokKind::Punct
        };
        out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }
    out
}

fn lex_line_comment(cur: &mut Cursor, text: &mut String) -> TokKind {
    // `///` and `//!` are docs; `////…` (4+ slashes) is a plain comment,
    // matching rustdoc's rule.
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
    TokKind::LineComment { doc }
}

fn lex_block_comment(cur: &mut Cursor, text: &mut String) -> TokKind {
    cur.bump_str("/*", text);
    let doc = matches!(cur.peek(0), Some('*') if cur.peek(1) != Some('*') && cur.peek(1) != Some('/'))
        || cur.peek(0) == Some('!');
    let mut depth = 1usize;
    while depth > 0 {
        if cur.starts_with("/*") {
            cur.bump_str("/*", text);
            depth += 1;
        } else if cur.starts_with("*/") {
            cur.bump_str("*/", text);
            depth -= 1;
        } else if let Some(c) = cur.bump() {
            text.push(c);
        } else {
            break; // unterminated: run to EOF
        }
    }
    TokKind::BlockComment { doc }
}

/// Does the cursor sit at `r"`, `r#"`, `b"`, `b'`, `br"`, `br#"` …?
fn is_raw_or_byte_string_start(cur: &Cursor) -> bool {
    let (c0, c1) = (cur.peek(0), cur.peek(1));
    match (c0, c1) {
        (Some('r'), Some('"' | '#')) => raw_fence_len(cur, 1).is_some(),
        (Some('b'), Some('"' | '\'')) => true,
        (Some('b'), Some('r')) => raw_fence_len(cur, 2).is_some(),
        _ => false,
    }
}

/// If a raw-string fence (`#…#"` with zero or more hashes) starts at
/// `offset`, returns the number of hashes.
fn raw_fence_len(cur: &Cursor, offset: usize) -> Option<usize> {
    let mut hashes = 0usize;
    loop {
        match cur.peek(offset + hashes) {
            Some('#') => hashes += 1,
            Some('"') => return Some(hashes),
            _ => return None,
        }
    }
}

fn lex_string_with_prefix(cur: &mut Cursor, text: &mut String) -> TokKind {
    // Consume the prefix letters (`r`, `b`, or `br`).
    let mut raw = false;
    while let Some(c) = cur.peek(0) {
        if c == 'r' {
            raw = true;
        }
        if c == 'r' || c == 'b' {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    if cur.peek(0) == Some('\'') {
        // byte char `b'x'`
        lex_quoted(cur, text, '\'');
        return TokKind::Char;
    }
    if raw {
        let hashes = raw_fence_len(cur, 0).unwrap_or(0);
        for _ in 0..hashes {
            text.push('#');
            cur.bump();
        }
        text.push('"');
        cur.bump();
        let close: String = std::iter::once('"')
            .chain((0..hashes).map(|_| '#'))
            .collect();
        while !cur.starts_with(&close) {
            match cur.bump() {
                Some(c) => text.push(c),
                None => return TokKind::Str, // unterminated
            }
        }
        cur.bump_str(&close, text);
        TokKind::Str
    } else {
        lex_quoted(cur, text, '"');
        TokKind::Str
    }
}

/// Consumes a `quote`-delimited literal with `\` escapes.
fn lex_quoted(cur: &mut Cursor, text: &mut String, quote: char) {
    if let Some(c) = cur.bump() {
        text.push(c); // opening quote
    }
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(e) = cur.bump() {
                text.push(e);
            }
        } else if c == quote {
            return;
        }
    }
}

/// At a `'`: lifetime (`'a`, `'static`) or char literal (`'x'`, `'\n'`).
fn lex_tick(cur: &mut Cursor, text: &mut String) -> TokKind {
    // Lifetime iff the tick is followed by an identifier that is NOT then
    // closed by another tick.
    if cur.peek(1).is_some_and(is_ident_start) {
        let mut end = 2;
        while cur.peek(end).is_some_and(is_ident_continue) {
            end += 1;
        }
        if cur.peek(end) != Some('\'') {
            for _ in 0..end {
                if let Some(c) = cur.bump() {
                    text.push(c);
                }
            }
            return TokKind::Lifetime;
        }
    }
    lex_quoted(cur, text, '\'');
    TokKind::Char
}

fn lex_ident(cur: &mut Cursor, text: &mut String) {
    if cur.starts_with("r#") {
        cur.bump_str("r#", text); // raw identifier
    }
    while cur.peek(0).is_some_and(is_ident_continue) {
        text.push(cur.peek(0).unwrap_or(' '));
        cur.bump();
    }
}

fn lex_number(cur: &mut Cursor, text: &mut String, prev: &[Token]) -> TokKind {
    // A digit right after a `.` punct is a tuple index (`x.0`): lex the
    // digit run as an Int and do not look for a fractional part.
    let after_dot = prev
        .last()
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == ".");
    if cur.starts_with("0x") || cur.starts_with("0o") || cur.starts_with("0b") {
        text.push(cur.peek(0).unwrap_or('0'));
        cur.bump();
        text.push(cur.peek(0).unwrap_or('x'));
        cur.bump();
        while cur
            .peek(0)
            .is_some_and(|c| c.is_ascii_hexdigit() || c == '_')
        {
            text.push(cur.peek(0).unwrap_or('0'));
            cur.bump();
        }
        consume_suffix(cur, text);
        return TokKind::Int;
    }
    while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
        text.push(cur.peek(0).unwrap_or('0'));
        cur.bump();
    }
    let mut float = false;
    if !after_dot && cur.peek(0) == Some('.') {
        let next = cur.peek(1);
        // `1..5` is int + range; `1.max()` would be int + method; `1.0`
        // and a bare trailing `1.` are floats.
        let fractional = match next {
            Some('.') => false,
            Some(c) if is_ident_start(c) => false,
            _ => true,
        };
        if fractional {
            float = true;
            text.push('.');
            cur.bump();
            while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                text.push(cur.peek(0).unwrap_or('0'));
                cur.bump();
            }
        }
    }
    if cur.peek(0).is_some_and(|c| c == 'e' || c == 'E') {
        let (c1, c2) = (cur.peek(1), cur.peek(2));
        let exp = match c1 {
            Some(d) if d.is_ascii_digit() => true,
            Some('+' | '-') => c2.is_some_and(|d| d.is_ascii_digit()),
            _ => false,
        };
        if exp {
            float = true;
            text.push(cur.peek(0).unwrap_or('e'));
            cur.bump();
            while cur
                .peek(0)
                .is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-' || c == '_')
            {
                text.push(cur.peek(0).unwrap_or('0'));
                cur.bump();
            }
        }
    }
    let suffix = consume_suffix(cur, text);
    if suffix.starts_with('f') {
        float = true;
    } else if !suffix.is_empty() {
        float = false; // `1u64`, `3usize`
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

fn consume_suffix(cur: &mut Cursor, text: &mut String) -> String {
    let mut s = String::new();
    if cur.peek(0).is_some_and(is_ident_start) {
        while cur.peek(0).is_some_and(is_ident_continue) {
            let c = cur.peek(0).unwrap_or(' ');
            s.push(c);
            text.push(c);
            cur.bump();
        }
    }
    s
}

fn lex_punct(cur: &mut Cursor, text: &mut String) {
    for op in MULTI_PUNCT {
        if cur.starts_with(op) {
            cur.bump_str(op, text);
            return;
        }
    }
    if let Some(c) = cur.bump() {
        text.push(c);
    }
}

/// True if a float-literal token text denotes exactly zero (`0.0`, `0.`,
/// `0.00f64`). The `no-float-eq` rule exempts exact-zero guards.
pub fn float_text_is_zero(text: &str) -> bool {
    let t = text
        .trim_end_matches("f32")
        .trim_end_matches("f64")
        .replace('_', "");
    t.chars().all(|c| c == '0' || c == '.') && t.contains('0')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_docs() {
        let toks = kinds("// plain\n/// doc\n//! inner\n//// not doc\n/* block */ /** docb */");
        assert_eq!(toks[0].0, TokKind::LineComment { doc: false });
        assert_eq!(toks[1].0, TokKind::LineComment { doc: true });
        assert_eq!(toks[2].0, TokKind::LineComment { doc: true });
        assert_eq!(toks[3].0, TokKind::LineComment { doc: false });
        assert_eq!(toks[4].0, TokKind::BlockComment { doc: false });
        assert_eq!(toks[5].0, TokKind::BlockComment { doc: true });
    }

    #[test]
    fn nested_block_comment() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].1, "x");
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "x.unwrap() panic!"; y"#);
        assert!(toks
            .iter()
            .filter(|t| t.0 == TokKind::Ident)
            .all(|t| t.1 != "unwrap" && t.1 != "panic"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r###"r"a" r#"b"# b"c" br##"d"## b'x' z"###);
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::Str).count(),
            4,
            "{toks:?}"
        );
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::Char).count(), 1);
        assert_eq!(toks.last().map(|t| t.1.as_str()), Some("z"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("&'a str 'x' '\\n' 'static");
        assert_eq!(toks[1].0, TokKind::Lifetime);
        let chars: Vec<_> = toks.iter().filter(|t| t.0 == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(toks.last().map(|t| t.0), Some(TokKind::Lifetime));
    }

    #[test]
    fn numbers_int_vs_float() {
        let cases = [
            ("1", TokKind::Int),
            ("1.0", TokKind::Float),
            ("1.", TokKind::Float),
            ("1e5", TokKind::Float),
            ("1e-5", TokKind::Float),
            ("2.5f64", TokKind::Float),
            ("3f32", TokKind::Float),
            ("0x1f", TokKind::Int),
            ("7usize", TokKind::Int),
            ("1_000", TokKind::Int),
        ];
        for (src, want) in cases {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].kind, want, "{src}");
        }
    }

    #[test]
    fn ranges_and_tuple_indices_are_ints() {
        let toks = kinds("a[1..5]; x.0; y.0.1");
        assert!(toks.iter().all(|t| t.0 != TokKind::Float), "{toks:?}");
        assert!(toks.iter().any(|t| t.1 == ".."));
    }

    #[test]
    fn multi_char_puncts() {
        let toks = kinds("a == b != c :: d -> e => f ..= g");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|t| t.0 == TokKind::Punct)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "->", "=>", "..="]);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  bb");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn zero_float_detection() {
        assert!(float_text_is_zero("0.0"));
        assert!(float_text_is_zero("0."));
        assert!(float_text_is_zero("0.00f64"));
        assert!(!float_text_is_zero("0.1"));
        assert!(!float_text_is_zero("1.0"));
    }
}
