//! The audit gate as a cargo test: `cargo test` alone — without
//! scripts/check.sh — fails if anyone introduces an unsuppressed
//! determinism/panic-hygiene finding, so the auditor cannot silently
//! rot out of the workflow.

use edm_audit::{
    audit_sources, audit_workspace, find_workspace_root, load_workspace_sources, rule_exists,
    semantic_findings,
};

fn workspace_root() -> std::path::PathBuf {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(here).expect("workspace root above crates/harness")
}

#[test]
fn workspace_scans_clean() {
    let outcome = audit_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        outcome.files_scanned > 100,
        "suspiciously few files scanned ({}): wrong root?",
        outcome.files_scanned
    );
    assert!(
        outcome.is_clean(),
        "unsuppressed edm-audit findings:\n{}",
        outcome.render_text()
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let outcome = audit_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        !outcome.suppressed.is_empty(),
        "the workspace is known to carry suppressions; zero means the \
         pragma matcher broke"
    );
    for s in &outcome.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "empty suppression reason at {}:{}",
            s.finding.path,
            s.finding.line
        );
    }
}

/// The semantic rule families (interprocedural taint, lock order,
/// unit inference) are registered AND executing: a seeded violation of
/// each family is rejected with a chain-bearing finding by the same
/// engine the workspace gate runs.
#[test]
fn semantic_families_reject_seeded_violations() {
    for rule in [
        "det.taint",
        "conc.lock_order",
        "conc.shared_state",
        "unit.time",
        "unit.wear",
    ] {
        assert!(rule_exists(rule), "{rule} missing from the rule registry");
    }
    let seeded: &[(&str, &str, &str)] = &[
        (
            "det.taint",
            "crates/cluster/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub struct Engine { pub t_us: u64 }\n\
             impl Engine {\n\
                 pub fn stamp(&mut self) {\n\
                     let now = std::time::Instant::now();\n\
                     self.t_us = now;\n\
                 }\n\
             }\n",
        ),
        (
            "conc.lock_order",
            "crates/serve/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             use std::sync::Mutex;\n\
             pub struct P { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl P {\n\
                 pub fn x(&self) { let g = self.a.lock().expect(\"a\"); \
                     let h = self.b.lock().expect(\"b\"); drop((g, h)); }\n\
                 pub fn y(&self) { let h = self.b.lock().expect(\"b\"); \
                     let g = self.a.lock().expect(\"a\"); drop((g, h)); }\n\
             }\n",
        ),
        (
            "unit.time",
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f(t_us: u64, n_ticks: u64) -> u64 { t_us + n_ticks }\n",
        ),
    ];
    for (rule, path, src) in seeded {
        let out = audit_sources(vec![(path.to_string(), src.to_string())]);
        let hit = out
            .findings
            .iter()
            .find(|f| f.rule == *rule)
            .unwrap_or_else(|| panic!("seeded {rule} violation not rejected:\n{out:?}"));
        assert!(
            !hit.chain.is_empty(),
            "{rule} finding carries no source\u{2192}sink chain: {hit:?}"
        );
    }
}

/// Raw semantic findings are counted before pragma suppression. The
/// workspace carries a handful; an explosion means a rule regressed even
/// if every finding happens to sit under a pragma.
#[test]
fn raw_semantic_findings_stay_under_fifty() {
    let files = load_workspace_sources(&workspace_root()).expect("workspace sources");
    let findings = semantic_findings(&files);
    assert!(
        findings.len() < 50,
        "semantic pass exploded to {} raw findings",
        findings.len()
    );
}

#[test]
fn report_is_deterministic_across_scans() {
    let a = audit_workspace(&workspace_root()).expect("scan a");
    let b = audit_workspace(&workspace_root()).expect("scan b");
    assert_eq!(a.render_json(), b.render_json());
}
