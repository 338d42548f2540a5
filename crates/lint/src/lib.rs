//! # pcp-lint
//!
//! A from-scratch architectural linter for this workspace (DESIGN.md §11).
//! It walks every library source file, splits code from comments and
//! literals with a hand-rolled lexer ([`lexer`]), and enforces the
//! repo-specific invariants that `rustc`/clippy cannot express (L1–L3 and
//! L5 are compiler lints, set in each crate root and `clippy.toml`; lock
//! order and blocking under a lock are the runtime witness's, the
//! `lock_order` feature of the vendored `parking_lot`):
//!
//! * deterministic model code (L4, [`rules::rule_l4`]): no wall-clock reads;
//! * contract drift (L8, [`rules::check_contracts`]): metric/trace names
//!   against OBSERVABILITY.md's canonical name index, wire opcodes against
//!   DESIGN.md's canonical opcode table.
//!
//! Findings print as `file:line: rule: message`; a nonzero exit fails CI.
//! There are no suppressions: a finding is fixed at its site.
//!
//! Run it with `cargo run -p pcp-lint --release` from the workspace root.

#![forbid(unsafe_code)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "tooling, not engine code under FaultEnv: it reads the source tree with std::fs \
              and may crash loudly on its own bugs"
)]

pub mod lexer;
pub mod rules;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repository-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule tag: `L4` or `L8`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    fn new(file: &str, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// True for library code — `crates/*/src/**` and `src/**` — the only
/// code the walker collects: tests, benches, examples and vendored shims
/// are out of scope.
fn is_library(rel: &str) -> bool {
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

/// Lints a single library file under its repository-relative path (L8
/// needs docs; pass them via [`lint_sources`]). This is the entry point
/// the fixture tests use.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(rel.to_string(), source.to_string())], None, None).findings
}

/// Lints a set of library sources as one workspace: the per-file rule L4
/// and — when the docs are provided — the contract-drift rule L8.
pub fn lint_sources(
    files: &[(String, String)],
    obs_md: Option<&str>,
    design_md: Option<&str>,
) -> Report {
    let mut findings = Vec::new();
    let mut inventory = rules::ContractInventory::default();
    for (rel, source) in files {
        let src = lexer::prepare(source);
        rules::rule_l4(rel, &src, &mut findings);
        rules::collect_contract_names(rel, &src, &mut inventory);
    }
    findings.extend(rules::check_contracts(&inventory, obs_md, design_md));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        findings,
        files_scanned: files.len(),
    }
}

/// The result of a full repository scan.
pub struct Report {
    /// Findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of library files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// The CI summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} files scanned, {} findings",
            self.files_scanned,
            self.findings.len()
        )
    }
}

/// Directory names never descended into, at any depth.
const SKIP_DIRS: [&str; 4] = ["target", "bench_results", ".git", "node_modules"];

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let rel = path
            .strip_prefix(root)
            .map_err(|_| io::Error::other("walked outside the scan root"))?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") && is_library(&rel) {
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Scans the repository at `root` and returns the findings plus scan
/// statistics. The docs feeding L8 are read from the root when present; a
/// tree without them skips the contract checks.
pub fn lint_repo(root: &Path) -> io::Result<Report> {
    let obs_md = std::fs::read_to_string(root.join("OBSERVABILITY.md")).ok();
    let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();

    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for (rel, path) in paths {
        let bytes = std::fs::read(path)?;
        files.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
    }
    Ok(lint_sources(&files, obs_md.as_deref(), design_md.as_deref()))
}
