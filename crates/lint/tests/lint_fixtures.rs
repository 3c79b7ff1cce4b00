//! Runs the linter over the known-bad fixture tree and asserts every rule
//! in the registry is caught by at least one fixture, suppressions are
//! honored, and the JSON rendering is well-formed.

use dtucker_lint::rules::RULES;
use dtucker_lint::runner::{check, UsedSuppression};
use dtucker_lint::{Diagnostic, Report};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_tree_is_dirty() {
    let report = check(&fixture_root()).unwrap();
    assert!(!report.is_clean(), "fixture tree must produce findings");
    assert!(report.files_scanned >= 3);
}

#[test]
fn every_rule_fires_on_at_least_one_fixture() {
    let report = check(&fixture_root()).unwrap();
    for rule in RULES {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule.name),
            "rule `{}` produced no finding on the fixture tree",
            rule.name
        );
    }
}

#[test]
fn expected_fixture_sites_are_flagged() {
    let report = check(&fixture_root()).unwrap();
    let has = |rule: &str, path: &str| {
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.path == path)
    };
    let lib = "crates/badcrate/src/lib.rs";
    assert!(has("no-unwrap-in-lib", lib));
    assert!(has("no-float-eq", lib));
    assert!(has("atomic-write-required", lib));
    assert!(has("unsafe-needs-safety-comment", lib));
    assert!(has("pub-fn-needs-doc", lib));
    assert!(has(
        "no-unchecked-index-in-kernels",
        "crates/badcrate/src/kernels.rs"
    ));
}

#[test]
fn compliant_snippets_are_not_flagged() {
    let report = check(&fixture_root()).unwrap();
    // The documented-SAFETY unsafe block and the exact-zero comparison
    // must not be flagged.
    for d in &report.diagnostics {
        if d.path == "crates/badcrate/src/lib.rs" {
            assert_ne!(
                (d.rule, d.line),
                ("no-float-eq", 19),
                "exact-zero guard must be exempt"
            );
        }
    }
    // The unsafe block with a SAFETY comment: count unsafe findings — only
    // the undocumented one (plus the fixture in kernels.rs, which has a
    // comment and so is also exempt).
    let unsafe_in_lib: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| {
            d.rule == "unsafe-needs-safety-comment" && d.path == "crates/badcrate/src/lib.rs"
        })
        .collect();
    assert_eq!(
        unsafe_in_lib.len(),
        1,
        "exactly one undocumented unsafe block expected, got {unsafe_in_lib:?}"
    );
}

#[test]
fn suppressions_are_honored_and_reported() {
    let report = check(&fixture_root()).unwrap();
    assert!(
        report
            .suppressed
            .iter()
            .any(|s| s.rule == "no-unwrap-in-lib" && s.path == "crates/okcrate/src/helpers.rs"),
        "suppression in helpers.rs must be recorded"
    );
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.path == "crates/okcrate/src/helpers.rs"),
        "suppressed finding must not surface as a diagnostic"
    );
}

#[test]
fn json_report_is_well_formed() {
    let report = check(&fixture_root()).unwrap();
    let json = report.render_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"version\":1"));
    assert!(json.contains("\"clean\":false"));
    assert!(json.contains("\"diagnostics\""));
    assert!(json.contains("no-unchecked-index-in-kernels"));
    // Paths must be forward-slash relative, never absolute.
    assert!(!json.contains(fixture_root().to_string_lossy().as_ref()));
}

#[test]
fn json_report_escapes_every_string() {
    let report = Report {
        root: PathBuf::from("."),
        files_scanned: 2,
        diagnostics: vec![Diagnostic {
            rule: "no-unwrap-in-lib",
            path: "src/a \"b\".rs".into(),
            line: 3,
            col: 9,
            message: "say \"no\" to C:\\tmp\nthen\r\u{1}".into(),
        }],
        suppressed: vec![UsedSuppression {
            path: "src\\c.rs".into(),
            line: 7,
            rule: "float-eq",
        }],
    };
    assert_eq!(
        report.render_json(),
        "{\"version\":1,\"files_scanned\":2,\"clean\":false,\"diagnostics\":[\
         {\"rule\":\"no-unwrap-in-lib\",\"path\":\"src/a \\\"b\\\".rs\",\"line\":3,\"col\":9,\
         \"message\":\"say \\\"no\\\" to C:\\\\tmp\\nthen\\r\\u0001\"}],\
         \"suppressed\":[{\"rule\":\"float-eq\",\"path\":\"src\\\\c.rs\",\"line\":7}]}"
    );
}
