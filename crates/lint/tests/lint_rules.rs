//! Fixture-driven checks of every lint rule plus the walker, allowlist,
//! and the "our own repository is clean" acceptance gate.
//!
//! Each `fixtures/l*_violation.rs` file tags its expected findings with a
//! trailing `// LINT:<rule>` marker; the test derives the expected
//! (line, rule) set from those markers so fixtures stay self-describing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use pcp_lint::{classify, lint_repo, lint_source, lint_sources, FileClass};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// (line, rule) pairs tagged with `// LINT:<rule>` markers in the raw text.
fn expected_markers(source: &str, rule: &str) -> BTreeSet<(usize, String)> {
    let marker = format!("LINT:{rule}");
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&marker))
        .map(|(i, _)| (i + 1, rule.to_string()))
        .collect()
}

fn found(rel: &str, source: &str) -> BTreeSet<(usize, String)> {
    lint_source(rel, source)
        .into_iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect()
}

/// Violation fixtures fire exactly on the tagged lines; clean fixtures
/// produce nothing. One case per rule, linted under a path in that rule's
/// scope.
#[test]
fn every_rule_fires_on_its_fixture_and_only_there() {
    let cases = [
        ("L1", "l1_violation.rs", "l1_clean.rs", "crates/fake/src/lib.rs"),
        ("L2", "l2_violation.rs", "l2_clean.rs", "crates/fake/src/lib.rs"),
        ("L3", "l3_violation.rs", "l3_clean.rs", "crates/fake/src/lib.rs"),
        ("L4", "l4_violation.rs", "l4_clean.rs", "crates/sim/src/fake.rs"),
        ("L5", "l5_violation.rs", "l5_clean.rs", "vendor/fake/src/lib.rs"),
        ("L6", "l6_violation.rs", "l6_clean.rs", "crates/fake/src/lib.rs"),
        ("L7", "l7_violation.rs", "l7_clean.rs", "crates/fake/src/lib.rs"),
    ];
    for (rule, violation, clean, rel) in cases {
        let src = fixture(violation);
        let expected = expected_markers(&src, rule);
        assert!(!expected.is_empty(), "{violation} has no LINT markers");
        assert_eq!(
            found(rel, &src),
            expected,
            "{rule} findings diverge from {violation}'s markers"
        );
        let clean_src = fixture(clean);
        assert_eq!(
            found(rel, &clean_src),
            BTreeSet::new(),
            "{clean} must lint clean"
        );
    }
}

/// L8 needs a workspace view with docs: the violation fixture's rogue
/// metric, rogue trace kind, and value-mismatched opcode each fire on
/// their marked lines; the clean fixture matches the same canonical
/// tables exactly; and a canonical row nothing emits is flagged on the
/// docs side.
#[test]
fn l8_contract_drift_fires_against_docs_and_stays_quiet_when_aligned() {
    let obs = "# Observability\n\n## Canonical name index\n\n\
               | name | kind |\n| --- | --- |\n\
               | `pcp_fixture_ok_total` | counter |\n\
               | `fixture_done` | trace |\n";
    let design = "# Design\n\n## Canonical opcode table\n\n\
                  | opcode | value | role |\n| --- | --- | --- |\n\
                  | `PING` | `0x01` | request |\n\
                  | `PONG` | `0x81` | response |\n";

    let src = fixture("l8_violation.rs");
    let expected = expected_markers(&src, "L8");
    assert_eq!(expected.len(), 3, "l8_violation.rs should carry 3 markers");
    let report = lint_sources(
        &[("crates/fake/src/proto.rs".to_string(), src)],
        Some(obs),
        Some(design),
    );
    let got: BTreeSet<(usize, String)> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/fake/src/proto.rs")
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    assert_eq!(got, expected, "L8 findings diverge from the markers");

    let clean = fixture("l8_clean.rs");
    let report = lint_sources(
        &[("crates/fake/src/proto.rs".to_string(), clean)],
        Some(obs),
        Some(design),
    );
    assert_eq!(
        report.findings.len(),
        0,
        "l8_clean.rs must lint clean against the same docs: {:?}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );

    // Docs-side drift: a canonical row nothing in code emits.
    let report = lint_sources(
        &[("crates/fake/src/proto.rs".to_string(), fixture("l8_clean.rs"))],
        Some("## Canonical name index\n| name | kind |\n| --- | --- |\n\
              | `pcp_fixture_ok_total` | counter |\n\
              | `fixture_done` | trace |\n\
              | `pcp_fixture_ghost_total` | counter |\n"),
        Some(design),
    );
    let ghosts: Vec<&pcp_lint::Finding> = report
        .findings
        .iter()
        .filter(|f| f.file == "OBSERVABILITY.md")
        .collect();
    assert_eq!(ghosts.len(), 1, "exactly the ghost row should be flagged");
    assert!(ghosts[0].message.contains("pcp_fixture_ghost_total"));
}

/// The same L1/L3/L4 sources are exempt outside the rules' scope: tests
/// and benches may unwrap and touch the filesystem, non-model code may
/// read clocks. The former hardcoded L1 exemptions (std_env.rs and the
/// service edge) are now `lint.allow` entries, so at the engine level
/// those paths DO fire — suppression happens in `lint_repo`.
#[test]
fn scoping_exempts_harness_model_and_designated_files() {
    let l1 = fixture("l1_violation.rs");
    assert_eq!(found("crates/fake/tests/e2e.rs", &l1), BTreeSet::new());
    assert_eq!(
        found("crates/storage/src/std_env.rs", &l1),
        expected_markers(&l1, "L1"),
        "std_env.rs is no longer exempted by the engine, only by lint.allow"
    );
    let l3 = fixture("l3_violation.rs");
    assert_eq!(found("crates/fake/benches/b.rs", &l3), BTreeSet::new());
    let l4 = fixture("l4_violation.rs");
    assert_eq!(found("crates/core/src/pipeline.rs", &l4), BTreeSet::new());
    // Inside vendor/ only L5 applies — the L3 fixture's unwraps pass.
    assert_eq!(found("vendor/fake/src/lib.rs", &l3), BTreeSet::new());
}

#[test]
fn classification_follows_paths() {
    assert_eq!(classify("crates/lsm/src/db/mod.rs"), FileClass::Library);
    assert_eq!(classify("src/lib.rs"), FileClass::Library);
    assert_eq!(classify("tests/pipeline_e2e.rs"), FileClass::Harness);
    assert_eq!(classify("crates/shard/examples/kv.rs"), FileClass::Harness);
    assert_eq!(classify("vendor/bytes/src/lib.rs"), FileClass::Vendor);
    assert_eq!(classify("vendor/bytes/Cargo.toml"), FileClass::VendorManifest);
}

#[test]
fn vendor_manifest_workspace_deps_are_flagged() {
    let bad = "[package]\nname = \"shim\"\n[dependencies]\npcp-core = { path = \"../../crates/core\" }\n";
    let findings = lint_source("vendor/shim/Cargo.toml", bad);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "L5");
    assert_eq!(findings[0].line, 4);

    let good = "[package]\nname = \"shim\"\n# comment about crates/ is fine\n[dependencies]\n";
    assert!(lint_source("vendor/shim/Cargo.toml", good).is_empty());
}

/// A throwaway tree exercising the walker's skip rules and the allowlist:
/// suppression consumes a finding, unused entries surface as stale-allow,
/// malformed lines as allow-syntax, and `target/` contents never count.
#[test]
fn walker_and_allowlist_on_a_synthetic_tree() {
    let root = std::env::temp_dir().join(format!("pcp-lint-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mkdir = |p: &PathBuf| std::fs::create_dir_all(p).unwrap();
    mkdir(&root.join("crates/x/src"));
    mkdir(&root.join("target/debug"));
    mkdir(&root.join("bench_results"));
    mkdir(&root.join("vendor/shim"));

    std::fs::write(
        root.join("crates/x/src/lib.rs"),
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    )
    .unwrap();
    // Violations under skipped directories must never surface.
    std::fs::write(root.join("target/debug/gen.rs"), "fn g() { panic!(); }\n").unwrap();
    std::fs::write(root.join("bench_results/old.rs"), "fn h() { panic!(); }\n").unwrap();
    std::fs::write(
        root.join("vendor/shim/Cargo.toml"),
        "[package]\nname = \"shim\"\n",
    )
    .unwrap();
    std::fs::write(
        root.join("lint.allow"),
        "L3 crates/x/src/lib.rs demo suppression with a justification\n\
         L1 crates/x/src/lib.rs this entry matches nothing\n\
         L3 missing-justification\n",
    )
    .unwrap();

    let report = lint_repo(&root).unwrap();
    // crates/x/src/lib.rs + vendor/shim/Cargo.toml; skipped dirs excluded.
    assert_eq!(report.files_scanned, 2);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["stale-allow", "allow-syntax"]);
    assert_eq!(report.findings[0].line, 2);
    assert_eq!(report.findings[1].line, 3);

    std::fs::remove_dir_all(&root).unwrap();
}

/// The acceptance gate: this repository lints clean with its checked-in
/// `lint.allow` — exactly what `scripts/ci.sh` enforces via the binary.
#[test]
fn the_repository_itself_is_clean() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_repo(&repo).unwrap();
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "repository has lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 50, "walker found suspiciously few files");
    // The L6 graph must actually see the codebase (an empty graph would
    // mean the analysis silently stopped resolving locks) and stay
    // cycle-free — deadlock cycles get fixed in code, never allowlisted.
    assert!(
        report.locks >= 10,
        "lock graph covers only {} locks — the guard analysis regressed",
        report.locks
    );
    assert_eq!(report.lock_cycles, 0, "lock-acquisition graph has cycles");
}
