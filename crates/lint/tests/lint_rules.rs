//! Fixture-driven checks of every lint rule plus the walker and the "our
//! own repository is clean" acceptance gate.
//!
//! Each `fixtures/l*_violation.rs` file tags its expected findings with a
//! trailing `// LINT:<rule>` marker; the test derives the expected
//! (line, rule) set from those markers so fixtures stay self-describing.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test harness: reads fixtures and builds a scratch tree on the real filesystem"
)]

use std::collections::BTreeSet;
use std::path::Path;

use pcp_lint::{lint_repo, lint_source, lint_sources};

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
        ("L4", "l4_violation.rs", "l4_clean.rs", "crates/sim/src/fake.rs"),
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
    // L4 is scoped to model code: the same clock reads pass elsewhere.
    let l4 = fixture("l4_violation.rs");
    assert_eq!(found("crates/core/src/pipeline.rs", &l4), BTreeSet::new());
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

/// A throwaway tree exercising the walker's skip rules: neither skipped
/// directories nor non-library code ever count.
#[test]
fn walker_on_a_synthetic_tree() {
    let root = std::env::temp_dir().join(format!("pcp-lint-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clock = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    for rel in [
        "crates/sim/src/lib.rs",
        // The same L4 violation under a skipped directory and in a test
        // target must never surface.
        "crates/sim/src/target/gen.rs",
        "crates/sim/tests/t.rs",
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, clock).unwrap();
    }

    let report = lint_repo(&root).unwrap();
    assert_eq!(report.files_scanned, 1, "only the one library file counts");
    let sites: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(sites, vec![("crates/sim/src/lib.rs", 1, "L4")]);

    std::fs::remove_dir_all(&root).unwrap();
}

/// The acceptance gate: this repository lints clean — exactly what
/// `scripts/ci.sh` enforces via the binary.
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

    // L1–L3 are compiler lints set in each crate root: a crate without
    // the header would escape them silently.
    let mut roots = vec![repo.join("src/lib.rs")];
    for entry in std::fs::read_dir(repo.join("crates")).unwrap() {
        roots.push(entry.unwrap().path().join("src/lib.rs"));
    }
    for root in roots {
        let text = std::fs::read_to_string(&root).unwrap();
        assert!(
            text.contains("#![forbid(unsafe_code)]")
                || text.contains("clippy::undocumented_unsafe_blocks"),
            "{} neither forbids `unsafe` nor requires `// SAFETY:` comments",
            root.display()
        );
        let lints = ["clippy::unwrap_used", "clippy::expect_used", "clippy::panic"];
        assert!(
            lints.iter().all(|lint| text.contains(lint)),
            "{} does not set the unwrap/expect/panic lints",
            root.display()
        );
    }
}
