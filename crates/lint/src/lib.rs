//! # pcp-lint
//!
//! A from-scratch architectural linter for this workspace (DESIGN.md §11).
//! It walks every library source file, splits code from comments and
//! literals with a hand-rolled lexer ([`lexer`]), and enforces the
//! repo-specific invariants that `rustc`/clippy cannot express (L1–L3 and
//! L5 are compiler lints now, set in each crate root and `clippy.toml`):
//!
//! * deterministic model code (L4, [`rules::rule_l4`]): no wall-clock reads;
//! * workspace rules: the guard-scope analysis ([`guards`]) feeds a
//!   cross-function lock-acquisition graph ([`graph`]) that reports lock
//!   cycles as potential deadlocks (L6) and blocking operations performed
//!   while a guard is live (L7);
//! * contract drift (L8, [`rules::check_contracts`]): metric/trace names
//!   against OBSERVABILITY.md's canonical name index, wire opcodes against
//!   DESIGN.md's canonical opcode table.
//!
//! Findings print as `file:line: rule: message`; a nonzero exit fails CI.
//! Suppressions live in `lint.allow` at the repository root — one line per
//! file/rule pair, each carrying a human justification. Stale or malformed
//! allowlist entries are themselves findings, so the allowlist cannot rot.
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

pub mod graph;
pub mod guards;
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
    /// Rule tag: `L4`, `L6`–`L8`, `stale-allow` or `allow-syntax`.
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

/// Lints a single library file under its repository-relative path — a
/// one-file workspace, so the guard-scope rules L6/L7 run too (L8 needs
/// docs; pass them via [`lint_sources`]). This is the entry point the
/// fixture tests use.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(rel.to_string(), source.to_string())], None, None).findings
}

/// Lints a set of library sources as one workspace: the per-file rule L4,
/// the cross-function lock rules L6/L7 over all files together, and — when
/// the docs are provided — the contract-drift rule L8.
pub fn lint_sources(
    files: &[(String, String)],
    obs_md: Option<&str>,
    design_md: Option<&str>,
) -> Report {
    let mut findings = Vec::new();
    let mut analyses = Vec::new();
    let mut inventory = rules::ContractInventory::default();
    for (rel, source) in files {
        let src = lexer::prepare(source);
        rules::rule_l4(rel, &src, &mut findings);
        rules::collect_contract_names(rel, &src, &mut inventory);
        analyses.push(guards::analyze_file(rel, &src));
    }
    let lock_graph = graph::check(&analyses);
    findings.extend(lock_graph.findings);
    findings.extend(rules::check_contracts(&inventory, obs_md, design_md));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        findings,
        files_scanned: files.len(),
        locks: lock_graph.locks.len(),
        lock_edges: lock_graph.edges.len(),
        lock_cycles: lock_graph.cycles.len(),
    }
}

/// One `lint.allow` suppression: `<rule> <path> <justification…>`.
struct AllowEntry {
    rule: String,
    path: String,
    line: usize,
    used: bool,
}

/// Parses `lint.allow`. Malformed lines (missing path or justification)
/// become `allow-syntax` findings.
fn parse_allowlist(text: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let rule = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("").to_string();
        let justification = parts.next().unwrap_or("").trim();
        if path.is_empty() || justification.is_empty() {
            findings.push(Finding::new(
                "lint.allow",
                i + 1,
                "allow-syntax",
                "allowlist entry needs `<rule> <path> <justification>`".to_string(),
            ));
            continue;
        }
        entries.push(AllowEntry {
            rule,
            path,
            line: i + 1,
            used: false,
        });
    }
    (entries, findings)
}

/// The result of a full repository scan.
pub struct Report {
    /// Surviving findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of library files scanned.
    pub files_scanned: usize,
    /// Distinct locks in the L6 acquisition graph.
    pub locks: usize,
    /// Held→taken edges in the L6 acquisition graph.
    pub lock_edges: usize,
    /// Lock cycles found (each one is also an L6 finding).
    pub lock_cycles: usize,
}

impl Report {
    /// The CI summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} files scanned, {} findings; lock graph: {} locks, {} edges, {} cycles",
            self.files_scanned,
            self.findings.len(),
            self.locks,
            self.lock_edges,
            self.lock_cycles
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

/// Scans the repository at `root`, applies `lint.allow`, and returns the
/// surviving findings plus scan statistics. The docs feeding L8 are read
/// from the root when present; a tree without them skips the contract
/// checks.
pub fn lint_repo(root: &Path) -> io::Result<Report> {
    let allow_text = match std::fs::read_to_string(root.join("lint.allow")) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let (mut allow, allow_findings) = parse_allowlist(&allow_text);
    let obs_md = std::fs::read_to_string(root.join("OBSERVABILITY.md")).ok();
    let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();

    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for (rel, path) in paths {
        let bytes = std::fs::read(path)?;
        files.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
    }

    let mut report = lint_sources(&files, obs_md.as_deref(), design_md.as_deref());
    report.findings.retain(|finding| {
        let suppressed = allow
            .iter_mut()
            .find(|entry| entry.rule == finding.rule && entry.path == finding.file);
        match suppressed {
            Some(entry) => {
                entry.used = true;
                false
            }
            None => true,
        }
    });
    report.findings.extend(allow_findings);
    for entry in &allow {
        if !entry.used {
            report.findings.push(Finding::new(
                "lint.allow",
                entry.line,
                "stale-allow",
                format!(
                    "allowlist entry `{} {}` matched nothing — remove it",
                    entry.rule, entry.path
                ),
            ));
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}
