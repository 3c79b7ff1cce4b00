//! Per-file token model: file classification, `#[cfg(test)]` region
//! detection, and `// dtucker-lint: allow(...)` suppressions.

use crate::lexer::{lex, TokKind, Token};

/// What kind of source a file is; rules apply per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code under `crates/<name>/src/` or the facade `src/lib.rs`.
    /// All rules apply.
    Lib,
    /// Binary targets (`src/bin/*.rs`, `src/main.rs`). Exempt from
    /// `no-unwrap-in-lib`; writers must still be atomic.
    Bin,
    /// Crates that exist to be executed, not linked against (`bench`,
    /// `lint`). Treated like [`FileClass::Bin`].
    Cli,
    /// Integration tests and benches (`tests/`, `benches/`).
    Test,
    /// Example programs under `examples/`.
    Example,
}

/// Crate directories under `crates/` whose entire contents are command-line
/// tooling rather than linkable library surface.
pub const CLI_CRATES: [&str; 2] = ["bench", "lint"];

/// Classifies a file by its path relative to the scan root.
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "fixtures")
    {
        return FileClass::Test;
    }
    if parts.contains(&"examples") {
        return FileClass::Example;
    }
    if parts.contains(&"bin") || parts.last() == Some(&"main.rs") {
        return FileClass::Bin;
    }
    if parts.first() == Some(&"crates") && parts.len() > 1 && CLI_CRATES.contains(&parts[1]) {
        return FileClass::Cli;
    }
    FileClass::Lib
}

/// One parsed inline suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment sits on; it covers this line and the next.
    pub line: u32,
    /// Rule names listed inside `allow(...)`.
    pub rules: Vec<String>,
}

/// A lexed source file plus everything rules need to know about it.
pub struct SourceFile {
    /// Path relative to the scan root, with `/` separators.
    pub rel_path: String,
    /// Rule applicability class, derived from the path.
    pub class: FileClass,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Half-open token-index ranges covered by `#[cfg(test)]` / `#[test]`
    /// items.
    pub test_regions: Vec<(usize, usize)>,
    /// Inline `// dtucker-lint: allow(...)` comments.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lexes and models one file.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let test_regions = find_test_regions(&tokens);
        let suppressions = find_suppressions(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            class: classify(rel_path),
            tokens,
            test_regions,
            suppressions,
        }
    }

    /// Is token `i` inside a `#[cfg(test)]` / `#[test]` item?
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// Does a suppression for `rule` cover `line`? A suppression comment
    /// covers its own line (trailing form) and the line directly below it.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| (s.line == line || s.line + 1 == line) && s.rules.iter().any(|r| r == rule))
    }

    /// Non-comment token `i`'s nearest preceding non-comment token index.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.tokens[j].is_comment())
    }

    /// Non-comment token `i`'s nearest following non-comment token index.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len()).find(|&j| !self.tokens[j].is_comment())
    }

    /// Collects the text of the comment block attached directly above the
    /// line of token `i`: trailing comments earlier on the same line, then
    /// contiguous lines above containing only comments or attributes
    /// (`#[...]`). A blank line or a code line ends the walk.
    pub fn attached_comments_above(&self, i: usize) -> Vec<&str> {
        let line = self.tokens[i].line;
        let col = self.tokens[i].col;
        let mut out: Vec<&str> = Vec::new();
        for t in &self.tokens {
            if t.line == line && t.col < col && t.is_comment() {
                out.push(&t.text);
            }
        }
        // Walk upward line by line while lines hold only comments or
        // attribute tokens.
        let mut l = line;
        while l > 1 {
            l -= 1;
            let line_toks: Vec<&Token> = self.tokens.iter().filter(|t| t.line == l).collect();
            if line_toks.is_empty() {
                break; // blank line detaches the comment block
            }
            let attr_or_comment = line_toks.iter().all(|t| {
                t.is_comment()
                    || matches!(t.kind, TokKind::Punct if ["#", "[", "]", "(", ")", ",", "="].contains(&t.text.as_str()))
                    || matches!(t.kind, TokKind::Ident | TokKind::Str | TokKind::Int)
            });
            // A line of plain code (not just attrs/comments) ends the
            // block; heuristically, attribute lines start with `#` or are
            // pure comments.
            let is_pure_comment = line_toks.iter().all(|t| t.is_comment());
            let is_attr_line = line_toks.first().is_some_and(|t| t.text == "#");
            if is_pure_comment || (is_attr_line && attr_or_comment) {
                for t in line_toks.iter().filter(|t| t.is_comment()) {
                    out.push(&t.text);
                }
            } else {
                break;
            }
        }
        out
    }
}

/// Scans for `#` `[` ... `]` attributes that gate items on `test` and marks
/// the following item's token extent.
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            if is_test {
                let item_end = item_extent(tokens, attr_end);
                regions.push((i, item_end));
                i = item_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    regions
}

/// From the `[` at `open`, finds the matching `]`; returns (index after
/// `]`, whether the attribute gates on test). Recognizes `#[test]`,
/// `#[cfg(test)]`, and any `#[cfg(...)]` that mentions `test`.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut mentions_test = false;
    let mut first_ident: Option<&str> = None;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 && t.text == "]" {
                    j += 1;
                    break;
                }
            }
            _ => {
                if t.kind == TokKind::Ident {
                    if first_ident.is_none() {
                        first_ident = Some(&t.text);
                    }
                    if t.text == "test" {
                        mentions_test = true;
                    }
                }
            }
        }
        j += 1;
    }
    let is_test = match first_ident {
        Some("test") => true,
        Some("cfg") => mentions_test,
        _ => false,
    };
    (j, is_test)
}

/// From the first token after an attribute, finds the end of the item it
/// decorates: skips further attributes and doc comments, then scans to the
/// matching `}` of the first `{` (or past a terminating `;`).
fn item_extent(tokens: &[Token], mut i: usize) -> usize {
    // Skip doc comments and further attributes.
    while i < tokens.len() {
        if tokens[i].is_comment() {
            i += 1;
        } else if tokens[i].text == "#" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let (end, _) = scan_attribute(tokens, i + 1);
            i = end;
        } else {
            break;
        }
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Parses every `dtucker-lint: allow(rule-a, rule-b)` comment.
fn find_suppressions(tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let Some(pos) = t.text.find("dtucker-lint:") else {
            continue;
        };
        let rest = &t.text[pos + "dtucker-lint:".len()..];
        let rest = rest.trim_start();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        let rules: Vec<String> = inner
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if !rules.is_empty() {
            out.push(Suppression {
                line: t.line,
                rules,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/slices.rs"), FileClass::Lib);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(classify("src/bin/dtucker-cli.rs"), FileClass::Bin);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::Cli);
        assert_eq!(classify("crates/bench/src/bin/exp_rank.rs"), FileClass::Bin);
        assert_eq!(
            classify("crates/core/tests/determinism.rs"),
            FileClass::Test
        );
        assert_eq!(classify("crates/bench/benches/gemm.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn a() { b.unwrap(); }\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test_region(unwraps[0]));
        assert!(f.in_test_region(unwraps[1]));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(feature = \"x\")]\nfn a() { b.unwrap(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.test_regions.is_empty());
    }

    #[test]
    fn suppressions_parse_and_cover_next_line() {
        let src = "// dtucker-lint: allow(no-unwrap-in-lib, no-float-eq)\nlet x = y.unwrap();\nlet z = q.unwrap(); // dtucker-lint: allow(no-unwrap-in-lib)\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        assert!(f.suppressed("no-unwrap-in-lib", 2));
        assert!(f.suppressed("no-float-eq", 2));
        assert!(f.suppressed("no-unwrap-in-lib", 3));
        assert!(!f.suppressed("no-float-eq", 3));
        assert!(!f.suppressed("no-unwrap-in-lib", 5));
    }

    #[test]
    fn attached_comments_walk_up_through_attrs() {
        let src = "// SAFETY: fine\n#[inline]\nunsafe fn f() {}\n";
        let f = SourceFile::parse("crates/linalg/src/x.rs", src);
        let i = f
            .tokens
            .iter()
            .position(|t| t.text == "unsafe")
            .unwrap_or(0);
        let comments = f.attached_comments_above(i);
        assert!(comments.iter().any(|c| c.contains("SAFETY")));
    }

    #[test]
    fn blank_line_detaches_comment() {
        let src = "// SAFETY: stale\n\nunsafe fn f() {}\n";
        let f = SourceFile::parse("crates/linalg/src/x.rs", src);
        let i = f
            .tokens
            .iter()
            .position(|t| t.text == "unsafe")
            .unwrap_or(0);
        assert!(f.attached_comments_above(i).is_empty());
    }
}
