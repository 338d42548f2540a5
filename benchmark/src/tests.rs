//! Self-tests that drive whole workloads at 1/20 size. The helpers
//! (percentiles, self time, `compare`, generators) are tested beside their
//! code.

use super::*;
use std::collections::BTreeSet;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Config {
    shipped_environment();
    Config {
        workload,
        seed,
        seconds: DEFAULT_SECONDS / SMOKE_DIVISOR,
        trace,
        corrupt: false,
    }
}

fn op_stream_hash(cfg: &Config) -> u64 {
    match cfg.workload {
        Workload::FillHdd => gen::stream_hash(&fill::plan(cfg.seed, fill::puts(cfg, true))),
        Workload::FillSsd => gen::stream_hash(&fill::plan(cfg.seed, fill::puts(cfg, false))),
        Workload::ReadmixSsd => gen::stream_hash(&readmix::plan(cfg)),
        Workload::ServeSsd => {
            gen::stream_hash(&serve::plan(cfg, 0))
                ^ gen::stream_hash(&serve::plan(cfg, 1)).rotate_left(1)
        }
    }
}

#[test]
fn a_seed_fixes_the_op_stream() {
    for workload in Workload::ALL {
        let hash = |seed| op_stream_hash(&smoke(workload, seed, false));
        assert_eq!(hash(7), hash(7), "{}", workload.name());
        assert_ne!(hash(7), hash(8), "{}", workload.name());
    }
}

/// The names and units `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> BTreeSet<(String, String)> {
    let declaration = declaration().expect("BENCHMARK.json is at the root of the repository");
    let list = declaration
        .get(key)
        .expect("the list is declared")
        .as_array();
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs `workload` both ways at 1/20 size: no failed operation, and exactly
/// the declared names and units.
fn smoke_run_prints_the_declared_metrics(workload: Workload) {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run_workload(&smoke(workload, 3, trace)).expect("the workload runs");
        assert_eq!(
            (report.failed, &report.failures),
            (0, &Vec::new()),
            "{}",
            workload.name()
        );
        assert!(report.attempted > 0);
        let printed: BTreeSet<(String, String)> = declared_metrics(&report, trace)
            .into_iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(printed, declared(key), "{} {key}", workload.name());
        if trace {
            let spans = report
                .tracer
                .as_ref()
                .expect("a traced run keeps its tracer")
                .spans();
            let has = |layer: &str| spans.iter().any(|s| s.kind.name().starts_with(layer));
            assert!(
                has("lsm.") || workload == Workload::ServeSsd,
                "{}: no lsm span",
                workload.name()
            );
            assert!(
                has("shard.") || workload != Workload::ServeSsd,
                "{}: no shard span",
                workload.name()
            );
            assert!(has("storage."), "{}: no storage span", workload.name());
        }
    }
}

#[test]
fn fill_hdd_smoke() {
    smoke_run_prints_the_declared_metrics(Workload::FillHdd);
}

#[test]
fn fill_ssd_smoke() {
    smoke_run_prints_the_declared_metrics(Workload::FillSsd);
}

#[test]
fn readmix_ssd_smoke() {
    smoke_run_prints_the_declared_metrics(Workload::ReadmixSsd);
}

#[test]
fn serve_ssd_smoke() {
    smoke_run_prints_the_declared_metrics(Workload::ServeSsd);
}

/// The correctness checks are live: expecting one wrong value makes every
/// workload report failed operations.
#[test]
fn a_corrupted_expectation_fails_the_run() {
    for workload in Workload::ALL {
        let cfg = Config {
            corrupt: true,
            ..smoke(workload, 3, false)
        };
        let report = run_workload(&cfg).expect("the workload runs");
        assert!(
            report.failed > 0,
            "{}: {} attempted, none failed",
            workload.name(),
            report.attempted
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("wrong or missing value")),
            "{:?}",
            report.failures
        );
    }
}
