//! CLI for the workspace linter: scans the repository (default `.`, or the
//! root given as the only argument), prints findings as
//! `file:line: rule: message`, and exits nonzero when any survive.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let started = Instant::now();
    match pcp_lint::lint_repo(&root) {
        Ok(report) => {
            for finding in &report.findings {
                println!("{finding}");
            }
            println!("{} in {:.2?}", report.summary(), started.elapsed());
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pcp-lint: failed to scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}
