//! Filesystem walk, suppression accounting, report rendering, and the
//! `--fix-safety-stubs` rewriter.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dtucker_core::json::JsonWriter;

use crate::model::SourceFile;
use crate::rules::{check_file, Diagnostic, RULES};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// Relative path prefixes excluded from a scan of the repository root: the
/// linter's own known-bad fixture tree must not fail the repo check.
const SKIP_PREFIXES: [&str; 1] = ["crates/lint/tests/fixtures"];

/// A suppression that actually shadowed at least one finding, reported so
/// CI and DESIGN.md §11 can audit the allowlist.
#[derive(Debug, Clone)]
pub struct UsedSuppression {
    /// File containing the suppression comment.
    pub path: String,
    /// Line of the suppressed finding.
    pub line: u32,
    /// Rule that was suppressed.
    pub rule: &'static str,
}

/// Outcome of one full scan.
pub struct Report {
    /// Scan root the paths are relative to.
    pub root: PathBuf,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings that survived suppression, sorted by (path, line, col).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings shadowed by an inline `allow(...)` comment.
    pub suppressed: Vec<UsedSuppression>,
}

impl Report {
    /// True when the scan found nothing actionable.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                s,
                "{}:{}:{}: [{}] {}",
                d.path, d.line, d.col, d.rule, d.message
            );
        }
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for d in &self.diagnostics {
            match counts.iter_mut().find(|(r, _)| *r == d.rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.rule, 1)),
            }
        }
        let _ = writeln!(
            s,
            "dtucker-lint: {} file(s) scanned, {} finding(s), {} suppressed",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed.len()
        );
        for (rule, n) in counts {
            let _ = writeln!(s, "  {n:>4}  {rule}");
        }
        s
    }

    /// Renders the machine-readable JSON document (schema in DESIGN.md
    /// §11): `{"version":1,"files_scanned":N,"clean":bool,`
    /// `"diagnostics":[{rule,path,line,col,message}],`
    /// `"suppressed":[{rule,path,line}]}`.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version");
        w.number_u64(1);
        w.key("files_scanned");
        w.number_u64(self.files_scanned as u64);
        w.key("clean");
        w.boolean(self.is_clean());
        w.key("diagnostics");
        w.begin_array();
        for d in &self.diagnostics {
            w.begin_object();
            w.key("rule");
            w.string(d.rule);
            w.key("path");
            w.string(&d.path);
            w.key("line");
            w.number_u64(u64::from(d.line));
            w.key("col");
            w.number_u64(u64::from(d.col));
            w.key("message");
            w.string(&d.message);
            w.end_object();
        }
        w.end_array();
        w.key("suppressed");
        w.begin_array();
        for u in &self.suppressed {
            w.begin_object();
            w.key("rule");
            w.string(u.rule);
            w.key("path");
            w.string(&u.path);
            w.key("line");
            w.number_u64(u64::from(u.line));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Collects every `.rs` file under `root` (sorted, relative paths with `/`
/// separators), skipping [`SKIP_DIRS`] and [`SKIP_PREFIXES`].
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                let rel = rel_str(root, &path);
                if SKIP_PREFIXES.iter().any(|p| rel == *p) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans `root`, applies every rule, and filters findings through inline
/// suppressions.
pub fn check(root: &Path) -> io::Result<Report> {
    let paths = collect_sources(root)?;
    let mut diagnostics = Vec::new();
    let mut suppressed = Vec::new();
    let files_scanned = paths.len();
    for path in &paths {
        let src = fs::read_to_string(path)?;
        let rel = rel_str(root, path);
        let file = SourceFile::parse(&rel, &src);
        for d in check_file(&file) {
            if file.suppressed(d.rule, d.line) {
                suppressed.push(UsedSuppression {
                    path: d.path,
                    line: d.line,
                    rule: d.rule,
                });
            } else {
                diagnostics.push(d);
            }
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(Report {
        root: root.to_path_buf(),
        files_scanned,
        diagnostics,
        suppressed,
    })
}

/// The TODO stub `--fix-safety-stubs` inserts above undocumented `unsafe`.
pub const SAFETY_STUB: &str = "// SAFETY: TODO(dtucker-lint): document why this is sound.";

/// For every `unsafe-needs-safety-comment` finding in `report`, inserts a
/// [`SAFETY_STUB`] line directly above the offending line (matching its
/// indentation) so a human can triage in bulk. Returns the number of stubs
/// written. Files are rewritten atomically.
pub fn fix_safety_stubs(report: &Report) -> io::Result<usize> {
    let mut by_file: Vec<(&str, Vec<u32>)> = Vec::new();
    for d in &report.diagnostics {
        if d.rule != "unsafe-needs-safety-comment" {
            continue;
        }
        match by_file.iter_mut().find(|(p, _)| *p == d.path) {
            Some((_, lines)) => lines.push(d.line),
            None => by_file.push((&d.path, vec![d.line])),
        }
    }
    let mut fixed = 0usize;
    for (rel, mut lines) in by_file {
        lines.sort_unstable();
        lines.dedup();
        let abs = report.root.join(rel);
        let src = fs::read_to_string(&abs)?;
        let mut out: Vec<String> = src.lines().map(str::to_string).collect();
        // Insert bottom-up so earlier line numbers stay valid.
        for &line in lines.iter().rev() {
            let idx = (line as usize).saturating_sub(1);
            if idx > out.len() {
                continue;
            }
            let indent: String = out
                .get(idx)
                .map(|l| l.chars().take_while(|c| c.is_whitespace()).collect())
                .unwrap_or_default();
            out.insert(idx, format!("{indent}{SAFETY_STUB}"));
            fixed += 1;
        }
        let mut joined = out.join("\n");
        if src.ends_with('\n') {
            joined.push('\n');
        }
        dtucker_core::fsutil::atomic_write(&abs, joined.as_bytes())?;
    }
    Ok(fixed)
}

/// Renders the rule registry for `--explain`.
pub fn explain_rules() -> String {
    let mut s = String::from("dtucker-lint rules:\n");
    for r in RULES {
        let _ = writeln!(s, "  {:<32} {}", r.name, r.summary);
    }
    s.push_str("\nsuppress inline with: // dtucker-lint: allow(<rule>[, <rule>…])\n");
    s
}
