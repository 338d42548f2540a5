//! The repository's contracts with its readers, each checked against what
//! the code actually does:
//!
//! - every series a full-stack scrape exports is a row of OBSERVABILITY.md
//!   §7, with its kind, and every row is exported;
//! - every `TraceKind` is a §7 `trace` row, every such row is a
//!   `TraceKind`, and library code records each one;
//! - every wire opcode in `proto.rs` is a row of DESIGN.md's canonical
//!   opcode table, with its value, and back;
//! - deterministic-model code never reads a clock;
//! - every crate root sets the lint header that clippy enforces.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test harness: reads the source tree on the real filesystem"
)]

use pcp::lsm::Options;
use pcp::obs::TraceKind;
use pcp::shard::{HashRouter, KvServer, ShardedDb};
use pcp::storage::{register_device_metrics, DeviceRef, EnvRef, SimDevice, SimEnv};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const OBSERVABILITY_MD: &str = include_str!("../OBSERVABILITY.md");
const DESIGN_MD: &str = include_str!("../DESIGN.md");
const PROTO_RS: &str = include_str!("../crates/shard/src/proto.rs");

/// The body rows of the first markdown table under the heading that
/// contains `heading`, as cells with surrounding space and backticks
/// trimmed. A missing heading or table yields no rows.
fn table_rows(md: &str, heading: &str) -> Vec<Vec<String>> {
    md.lines()
        .skip_while(|l| !(l.starts_with('#') && l.contains(heading)))
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // the header and separator rows
        .map(|l| {
            let cells = l.trim().trim_matches('|').split('|');
            cells
                .map(|c| c.trim().trim_matches('`').to_string())
                .collect()
        })
        .collect()
}

/// §7's rows as (name, kind) pairs.
fn section_7() -> Vec<(String, String)> {
    table_rows(OBSERVABILITY_MD, "Canonical name index")
        .into_iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect()
}

/// Fails naming what only the code has and what only the docs have.
fn assert_same<T: Ord + Debug>(what: &str, code: &BTreeSet<T>, docs: &BTreeSet<T>) {
    let undocumented: Vec<&T> = code.difference(docs).collect();
    let stale: Vec<&T> = docs.difference(code).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "{what}: in the code but not the docs: {undocumented:?}; \
         in the docs but not the code: {stale:?}"
    );
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, with its text.
fn rust_files(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                out.push((path, text));
            }
        }
    }
    out
}

/// Every crate directory under `crates/`.
fn crate_dirs() -> Vec<PathBuf> {
    let entries = std::fs::read_dir(repo_root().join("crates")).unwrap();
    entries.map(|e| e.unwrap().path()).collect()
}

/// A `KvServer` over a 2-shard `ShardedDb` with a block cache and the
/// default executor, plus each shard's device: every
/// `register_*` call in library code lands in its registry.
#[test]
fn a_full_stack_scrape_exports_exactly_the_section_7_metrics() {
    let devices: Vec<DeviceRef> = (0..2)
        .map(|_| Arc::new(SimDevice::mem(64 << 20)) as DeviceRef)
        .collect();
    let envs: Vec<EnvRef> = devices
        .iter()
        .map(|d| Arc::new(SimEnv::new(Arc::clone(d))) as EnvRef)
        .collect();
    let opts = Options {
        block_cache_bytes: 1 << 20,
        ..Options::default()
    };
    let db = ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(2))).unwrap();
    let mut server = KvServer::start(Arc::new(db), "127.0.0.1:0").unwrap();
    for (i, device) in devices.iter().enumerate() {
        register_device_metrics(server.registry(), &format!("dev{i}"), device);
    }

    let text = server.metrics_text();
    server.shutdown();
    let exported: BTreeSet<(String, String)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, kind)| (name.to_string(), kind.to_string()))
        .collect();
    let documented: BTreeSet<(String, String)> = section_7()
        .into_iter()
        .filter(|(_, kind)| kind != "trace")
        .collect();
    assert_same("metric (name, kind)", &exported, &documented);
}

#[test]
fn trace_kinds_are_the_section_7_trace_rows_and_library_code_records_each() {
    let declared: BTreeSet<String> = TraceKind::ALL
        .iter()
        .map(|k| k.as_str().to_string())
        .collect();
    let documented: BTreeSet<String> = section_7()
        .into_iter()
        .filter(|(_, kind)| kind == "trace")
        .map(|(name, _)| name)
        .collect();
    assert_same("trace kind", &declared, &documented);

    let sources: Vec<(PathBuf, String)> = crate_dirs()
        .into_iter()
        .filter(|dir| !dir.ends_with("obs"))
        .flat_map(|dir| rust_files(&dir.join("src")))
        .collect();
    for kind in TraceKind::ALL {
        let path = format!("TraceKind::{kind:?}");
        let names_it = |text: &str| {
            text.match_indices(&path).any(|(at, _)| {
                let next = text[at + path.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
        };
        assert!(
            sources.iter().any(|(_, text)| names_it(text)),
            "no library code outside pcp-obs records `{path}`"
        );
    }
}

/// `pub const NAME: u8 = 0xNN;` as (NAME, value).
fn opcode_const(line: &str) -> Option<(String, u8)> {
    let rest = line.trim().strip_prefix("pub const ")?;
    let (name, value) = rest.split_once(": u8 = 0x")?;
    let hex: String = value.chars().take_while(char::is_ascii_hexdigit).collect();
    Some((name.to_string(), u8::from_str_radix(&hex, 16).ok()?))
}

#[test]
fn wire_opcodes_match_the_canonical_opcode_table() {
    let code: BTreeSet<(String, u8)> = PROTO_RS.lines().filter_map(opcode_const).collect();
    let docs: BTreeSet<(String, u8)> = table_rows(DESIGN_MD, "Canonical opcode table")
        .into_iter()
        .map(|row| {
            let value = u8::from_str_radix(row[1].trim_start_matches("0x"), 16)
                .unwrap_or_else(|e| panic!("opcode row {row:?}: {e}"));
            (row[0].clone(), value)
        })
        .collect();
    assert!(!code.is_empty(), "no opcode constant found in proto.rs");
    assert_same("opcode (name, value)", &code, &docs);
}

/// The simulator, the model and the planner compute time; they never
/// observe it, so a modelled result is the same on every run. Comments and
/// test modules count too.
#[test]
fn deterministic_model_code_never_reads_a_clock() {
    let root = repo_root();
    let mut files = rust_files(&root.join("crates/sim/src"));
    assert!(!files.is_empty(), "crates/sim/src holds no source file");
    for file in ["crates/core/src/model.rs", "crates/core/src/planner.rs"] {
        let path = root.join(file);
        let text = std::fs::read_to_string(&path).unwrap();
        files.push((path, text));
    }
    for (path, text) in &files {
        for needle in ["Instant::now", "SystemTime::now"] {
            assert!(
                !text.contains(needle),
                "{} reads the clock (`{needle}`): take time as an input",
                path.display()
            );
        }
    }
}

/// Clippy enforces what each crate root's lint header asks for, so a
/// crate without the header escapes it silently.
#[test]
fn every_crate_root_sets_the_lint_header() {
    let mut roots = vec![repo_root().join("src/lib.rs")];
    roots.extend(crate_dirs().into_iter().map(|dir| dir.join("src/lib.rs")));
    for root in roots {
        let text = std::fs::read_to_string(&root).unwrap();
        assert!(
            text.contains("#![forbid(unsafe_code)]")
                || text.contains("clippy::undocumented_unsafe_blocks"),
            "{} neither forbids `unsafe` nor requires `// SAFETY:` comments",
            root.display()
        );
        let lints = [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
        ];
        assert!(
            lints.iter().all(|lint| text.contains(lint)),
            "{} does not set the unwrap/expect/panic lints",
            root.display()
        );
    }
}
