//! The token-shaped rules over a [`PreparedSource`] view.
//!
//! | rule | invariant |
//! |------|-----------|
//! | L4 | no wall-clock reads in deterministic-model code |
//! | L8 | metric/trace names and wire opcodes match the docs' canonical tables |

use crate::lexer::{token_offsets, PreparedSource};
use crate::Finding;

/// Deterministic-model code: the analytical model and planner in
/// `pcp-core` plus the whole discrete-event simulator. Wall-clock reads
/// here would make modeled results vary run to run.
fn l4_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/")
        || path == "crates/core/src/model.rs"
        || path == "crates/core/src/planner.rs"
}

/// L4: deterministic-model code computes time, it must not observe it.
pub fn rule_l4(path: &str, src: &PreparedSource, out: &mut Vec<Finding>) {
    if !l4_scope(path) {
        return;
    }
    for (i, line) in src.code.iter().enumerate() {
        if src.in_test[i] {
            continue;
        }
        for needle in ["Instant::now", "SystemTime::now"] {
            if !token_offsets(line, needle).is_empty() {
                out.push(Finding::new(
                    path,
                    i + 1,
                    "L4",
                    format!("`{needle}` in deterministic-model code — take time as an input"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L8: contract drift between code and the docs' canonical tables
// ---------------------------------------------------------------------------

/// Observable names harvested from library code: every `pcp_*` metric
/// name, every trace kind passed to `.record("…", …)`, and every wire
/// opcode constant in `proto.rs`. Each entry carries its site so drift
/// findings point at the right line.
#[derive(Debug, Default)]
pub struct ContractInventory {
    /// (metric name, file, line)
    pub metrics: Vec<(String, String, usize)>,
    /// (trace kind, file, line)
    pub traces: Vec<(String, String, usize)>,
    /// (const name, value, file, line)
    pub opcodes: Vec<(String, u8, String, usize)>,
}

/// True for a complete metric name: `pcp_` plus lowercase snake-case,
/// not ending in `_` (trailing-underscore strings are prefixes used for
/// namespacing, not registered series).
fn is_metric_name(s: &str) -> bool {
    s.len() > 4
        && s.starts_with("pcp_")
        && !s.ends_with('_')
        && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// True for a trace kind: bare lowercase snake-case, no `pcp_` prefix.
fn is_trace_kind(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with("pcp_")
        && s.contains('_')
        && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Harvests contract names from one prepared *library* file. The lint
/// crate's own sources are skipped — rule needles and doc examples there
/// mention names without registering anything.
pub fn collect_contract_names(path: &str, src: &PreparedSource, inv: &mut ContractInventory) {
    if path.starts_with("crates/lint/") {
        return;
    }
    for (i, line) in src.code.iter().enumerate() {
        if src.in_test[i] {
            continue;
        }
        for lit in &src.strings[i] {
            if is_metric_name(&lit.text) {
                inv.metrics.push((lit.text.clone(), path.to_string(), i + 1));
            }
        }
        // Trace kinds: the first string argument of `.record(`, on the
        // same line or — when the call ends the line at its open paren —
        // at the head of the next line.
        for at in token_offsets(line, ".record(") {
            let after = at + ".record(".len();
            let lit = src.strings[i]
                .iter()
                .filter(|l| l.col >= after)
                .min_by_key(|l| l.col)
                .or_else(|| {
                    if line[after.min(line.len())..].trim().is_empty() {
                        src.strings.get(i + 1).and_then(|next| next.first())
                    } else {
                        None
                    }
                });
            if let Some(lit) = lit {
                if is_trace_kind(&lit.text) {
                    inv.traces.push((lit.text.clone(), path.to_string(), i + 1));
                }
            }
        }
        // Wire opcodes: `pub const NAME: u8 = 0xNN;` in a proto module.
        if path.ends_with("/proto.rs") {
            if let Some((name, value)) = parse_opcode_const(line) {
                inv.opcodes.push((name, value, path.to_string(), i + 1));
            }
        }
    }
}

/// Parses `[pub] const NAME: u8 = 0xNN;` and returns (NAME, value).
fn parse_opcode_const(line: &str) -> Option<(String, u8)> {
    let rest = line.trim_start();
    let rest = rest.strip_prefix("pub ").unwrap_or(rest);
    let rest = rest.strip_prefix("const ")?;
    let (name, rest) = rest.split_once(':')?;
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
        return None;
    }
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("u8")?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let hex = rest.strip_prefix("0x")?;
    let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
    let value = u8::from_str_radix(&digits, 16).ok()?;
    Some((name.to_string(), value))
}

/// One row of a canonical markdown table: (first cell, second cell, line).
fn canonical_rows(md: &str, section_marker: &str) -> Option<Vec<(String, String, usize)>> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut found = false;
    for (i, line) in md.lines().enumerate() {
        if line.starts_with('#') {
            in_section = line.to_ascii_lowercase().contains(section_marker);
            found |= in_section;
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim().trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let first = cells[0].trim().trim_matches('`').to_string();
        let second = cells[1].trim().trim_matches('`').to_string();
        // Skip the header and separator rows.
        if first.is_empty() || first.starts_with('-') || first == "name" || first == "opcode" {
            continue;
        }
        rows.push((first, second, i + 1));
    }
    found.then_some(rows)
}

/// L8: every observable name in code appears in the docs' canonical
/// tables, and vice versa — OBSERVABILITY.md's canonical name index for
/// metrics/trace kinds, DESIGN.md §8's canonical opcode table for the
/// wire protocol. Passing `None` for a doc skips its checks (the linter
/// may run on trees without docs, e.g. its own test fixtures).
pub fn check_contracts(
    inv: &ContractInventory,
    obs_md: Option<&str>,
    design_md: Option<&str>,
) -> Vec<Finding> {
    let mut out = Vec::new();

    // Each doc is only checked when code contributed names on its side —
    // a tree with no registered metrics has no metrics contract to drift.
    let obs_md = obs_md.filter(|_| !(inv.metrics.is_empty() && inv.traces.is_empty()));
    let design_md = design_md.filter(|_| !inv.opcodes.is_empty());

    if let Some(md) = obs_md {
        match canonical_rows(md, "canonical name index") {
            None => out.push(Finding::new(
                "OBSERVABILITY.md",
                1,
                "L8",
                "no `Canonical name index` section — L8 cannot check the metrics contract"
                    .to_string(),
            )),
            Some(rows) => {
                let doc_metrics: Vec<&(String, String, usize)> =
                    rows.iter().filter(|r| r.1 != "trace").collect();
                let doc_traces: Vec<&(String, String, usize)> =
                    rows.iter().filter(|r| r.1 == "trace").collect();
                for (name, file, line) in &inv.metrics {
                    if !doc_metrics.iter().any(|r| r.0 == *name) {
                        out.push(Finding::new(
                            file,
                            *line,
                            "L8",
                            format!(
                                "metric `{name}` is not in OBSERVABILITY.md's canonical name index"
                            ),
                        ));
                    }
                }
                for (kind, file, line) in &inv.traces {
                    if !doc_traces.iter().any(|r| r.0 == *kind) {
                        out.push(Finding::new(
                            file,
                            *line,
                            "L8",
                            format!(
                                "trace kind `{kind}` is not in OBSERVABILITY.md's canonical name index"
                            ),
                        ));
                    }
                }
                for (name, kind, line) in rows.iter() {
                    let in_code = if kind == "trace" {
                        inv.traces.iter().any(|(k, _, _)| k == name)
                    } else {
                        inv.metrics.iter().any(|(m, _, _)| m == name)
                    };
                    if !in_code {
                        out.push(Finding::new(
                            "OBSERVABILITY.md",
                            *line,
                            "L8",
                            format!("canonical name index lists `{name}` but nothing in code emits it"),
                        ));
                    }
                }
            }
        }
    }

    if let Some(md) = design_md {
        match canonical_rows(md, "canonical opcode table") {
            None => out.push(Finding::new(
                "DESIGN.md",
                1,
                "L8",
                "no `Canonical opcode table` section — L8 cannot check the wire contract"
                    .to_string(),
            )),
            Some(rows) => {
                for (name, value, file, line) in &inv.opcodes {
                    match rows.iter().find(|r| r.0 == *name) {
                        None => out.push(Finding::new(
                            file,
                            *line,
                            "L8",
                            format!("opcode `{name}` is not in DESIGN.md's canonical opcode table"),
                        )),
                        Some((_, doc_val, _)) => {
                            let doc_val = doc_val.trim_start_matches("0x");
                            if u8::from_str_radix(doc_val, 16) != Ok(*value) {
                                out.push(Finding::new(
                                    file,
                                    *line,
                                    "L8",
                                    format!(
                                        "opcode `{name}` is 0x{value:02x} in code but 0x{doc_val} in DESIGN.md"
                                    ),
                                ));
                            }
                        }
                    }
                }
                for (name, _, line) in rows.iter() {
                    if !inv.opcodes.iter().any(|(n, _, _, _)| n == name) {
                        out.push(Finding::new(
                            "DESIGN.md",
                            *line,
                            "L8",
                            format!("canonical opcode table lists `{name}` but proto.rs does not define it"),
                        ));
                    }
                }
            }
        }
    }

    out
}
