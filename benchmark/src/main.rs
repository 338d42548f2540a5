//! The repository's benchmark. One run is one workload, once:
//!
//! ```text
//! pcp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! beyond a clock read per operation; `--trace 1` repeats the run under the
//! benchmark's tracer and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object, and the exit code is 0
//! only if no operation failed. Two more commands:
//!
//! ```text
//! pcp-benchmark all [--seed <n>] [--seconds <s>]   every workload, untraced then traced
//! pcp-benchmark compare <base.jsonl> <candidate.jsonl>
//! ```
//!
//! See `README.md` beside this package for the workloads and the metrics.

mod bench;
mod compare;
mod fill;
mod gen;
mod json;
mod layers;
mod metrics;
mod readmix;
mod serve;
mod stats;
mod trace;

use bench::{Config, Report, Workload};
use json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` in `BENCHMARK.json`: half the size the issue's probes were
/// taken at, which is what fits the driver's time cap.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 1;
const SMOKE_DIVISOR: f64 = 20.0;

const USAGE: &str = "usage: pcp-benchmark --workload <fill_hdd|fill_ssd|readmix_ssd|serve_ssd> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--corrupt]
       pcp-benchmark all [--seed <n>] [--seconds <s>] [--smoke]
       pcp-benchmark compare <base.jsonl> <candidate.jsonl>";

fn main() -> ExitCode {
    shipped_environment();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            declaration().and_then(|d| compare::run(&args[1], &args[2], &d))
        }
        Some("all") => parse(&args[1..], false).and_then(run_all),
        Some(_) => parse(&args, true).and_then(|cfg| run_one(&cfg).map(|r| r.failed == 0)),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The engine as shipped: no executor override, no bench-size override, and
/// the reactor front end, which `KvServer::start` takes from the
/// environment.
fn shipped_environment() {
    std::env::remove_var("PCP_EXECUTOR");
    std::env::remove_var("PCP_BENCH_FULL");
    std::env::set_var("PCP_SERVER_MODE", "reactor");
}

fn parse(args: &[String], needs_workload: bool) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::FillHdd,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        corrupt: false,
    };
    let (mut workload, mut smoke) = (None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => cfg.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cfg.seconds = value().and_then(|v| {
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad(v))
                })?
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => smoke = true,
            "--corrupt" => cfg.corrupt = true,
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if smoke {
        cfg.seconds /= SMOKE_DIVISOR;
    }
    match workload {
        Some(w) => cfg.workload = w,
        None if needs_workload => return Err(format!("--workload is required\n{USAGE}")),
        None => {}
    }
    Ok(cfg)
}

fn run_workload(cfg: &Config) -> std::io::Result<Report> {
    match cfg.workload {
        Workload::FillHdd => fill::run(cfg, true),
        Workload::FillSsd => fill::run(cfg, false),
        Workload::ReadmixSsd => readmix::run(cfg),
        Workload::ServeSsd => serve::run(cfg),
    }
}

/// The names this mode prints, with each one's value from `report`.
fn declared_metrics(report: &Report, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let declared = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    declared
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            (
                name,
                unit,
                value.unwrap_or_else(|| panic!("the run produced no {name}")),
            )
        })
        .collect()
}

/// Runs one workload once, prints the result line, and leaves the result in
/// `results/`.
fn run_one(cfg: &Config) -> Result<Report, String> {
    let mut report = run_workload(cfg).map_err(|e| format!("{}: {e}", cfg.workload.name()))?;
    let mut overhead_basis = "calibrated";
    if cfg.trace {
        if let Some(pct) = paired_overhead_pct(cfg, &report) {
            overhead_basis = "paired";
            for (name, value) in &mut report.metrics {
                if *name == "bench.trace_overhead_pct" {
                    *value = pct;
                }
            }
        }
    }
    let printed = declared_metrics(&report, cfg.trace);
    let line = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(printed.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    if let Err(e) = save(cfg, &report, overhead_basis) {
        eprintln!("warning: could not write the result files: {e}");
    }
    for failure in &report.failures {
        eprintln!("failed: {failure}");
    }
    println!("{}", line.render());
    Ok(report)
}

/// Every workload, untraced then traced, every metric by name with its
/// unit. The summary claims nothing: this benchmark defines the numbers
/// later claims are stated in.
fn run_all(base: Config) -> Result<bool, String> {
    let (mut attempted, mut failed) = (0, 0);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                trace,
                ..base.clone()
            };
            let report = run_one(&cfg)?;
            for (name, unit, value) in declared_metrics(&report, trace) {
                println!("{:<12} {:<34} {value:>16.4} {unit}", workload.name(), name);
            }
            attempted += report.attempted;
            failed += report.failed;
        }
    }
    let summary = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("results", Json::str(results_dir().display().to_string())),
        ("claim", Json::Null),
    ]);
    println!("{}", summary.render());
    Ok(failed == 0)
}

/// This package's directory: output paths hang off it, never off the
/// working directory.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn results_dir() -> PathBuf {
    manifest_dir().join("results")
}

fn declaration() -> Result<Json, String> {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn latest_path(workload: Workload, trace: bool) -> PathBuf {
    results_dir().join(format!(
        "{}.{}.json",
        workload.name(),
        if trace { "traced" } else { "untraced" }
    ))
}

/// Tracing overhead on the workload's throughput, against the untraced run
/// of the same workload, seed and size if `results/` holds one.
fn paired_overhead_pct(cfg: &Config, traced: &Report) -> Option<f64> {
    let untraced =
        Json::parse(&std::fs::read_to_string(latest_path(cfg.workload, false)).ok()?).ok()?;
    let same = untraced.get("seed")?.as_f64()? == cfg.seed as f64
        && untraced.get("seconds")?.as_f64()? == cfg.seconds;
    let base = untraced.get("metrics")?.get("ops_kops")?.as_f64()?;
    let ours = traced.metrics.iter().find(|(n, _)| *n == "ops_kops")?.1;
    (same && base > 0.0).then(|| 100.0 * (1.0 - ours / base))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn commit() -> String {
    let dir = manifest_dir();
    command_line(
        "git",
        &["-C", &dir.display().to_string(), "rev-parse", "HEAD"],
    )
}

fn host() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
    ])
}

/// Writes `results/<workload>.<mode>.json`, appends the same object to
/// `results/history.jsonl`, and for a traced run writes the spans to
/// `results/<workload>.trace.jsonl`.
fn save(cfg: &Config, report: &Report, overhead_basis: &str) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut info = report
        .info
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect::<Vec<_>>();
    if cfg.trace {
        info.push(("trace_overhead_basis", Json::str(overhead_basis)));
    }
    let record = Json::obj([
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("commit", Json::str(commit())),
        (
            "unix_time",
            Json::Num(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0.0, |d| d.as_secs() as f64),
            ),
        ),
        ("host", host()),
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "failures",
            Json::Arr(report.failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|&(n, v)| (n, Json::Num(v)))),
        ),
        ("info", Json::obj(info)),
        ("claim", Json::Null),
    ]);
    if let Some(tracer) = &report.tracer {
        tracer.write_jsonl(&dir.join(format!("{}.trace.jsonl", cfg.workload.name())))?;
    }
    let line = record.render();
    std::fs::write(latest_path(cfg.workload, cfg.trace), format!("{line}\n"))?;
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    writeln!(history, "{line}")
}

#[cfg(test)]
mod tests;
