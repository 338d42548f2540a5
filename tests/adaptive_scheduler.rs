//! The production default end to end: the cross-shard resource
//! scheduler's token invariant under real 8-shard concurrency, the default
//! executor's compute width as the scheduler's grant, scheduler
//! observability, and byte-for-byte equivalence of a default database
//! against the reference simple-merge executor.

use pcp::compaction::SimpleMergeExec;
use pcp::core::PipelinedExec;
use pcp::lsm::{CompactionLimiter, CompactionPolicy, Db, Options};
use pcp::obs::{Registry, TraceLog};
use pcp::shard::{HashRouter, ShardedDb};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::sync::Arc;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))))
}

fn small_opts() -> Options {
    Options {
        memtable_bytes: 32 << 10,
        sstable_bytes: 16 << 10,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 64 << 10,
            level_multiplier: 10,
        },
        ..Default::default()
    }
}

/// Eight shards hammering one scheduler with a stage-token budget smaller
/// than `shards x max_workers`: every grant is the same share, so the
/// permits can never hold more than the budget, and everything must drain
/// back to zero.
#[test]
fn sched_token_budget_holds_under_eight_shard_concurrency() {
    const SHARDS: usize = 8;
    let limiter = CompactionLimiter::with_budget(4, 6);
    let opts = Options {
        compaction_limiter: Some(Arc::clone(&limiter)),
        ..small_opts()
    };
    let envs: Vec<EnvRef> = (0..SHARDS).map(|_| mem_env()).collect();
    let db = ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap();

    // Writer threads keep all shards flushing and compacting.
    std::thread::scope(|s| {
        for t in 0..SHARDS {
            let db = &db;
            s.spawn(move || {
                for i in 0..1500u64 {
                    let key = format!("t{t:02}-key{:05}", i % 400).into_bytes();
                    let value = format!("v{i}-{}", "x".repeat((i % 64) as usize)).into_bytes();
                    db.put(&key, &value).unwrap();
                }
            });
        }
    });
    db.wait_idle().unwrap();

    // Quiesced: every permit returned, and the writers kept between one
    // and `permits` compactions running at once.
    let permits = limiter.permits();
    assert_eq!(limiter.in_use(), 0, "permits leaked");
    assert_eq!(limiter.tokens_out(), 0, "tokens leaked");
    let peak = limiter.peak();
    assert!(
        (1..=permits).contains(&peak),
        "peak {peak} of {permits} permits"
    );

    // All permits held at once cannot oversubscribe the budget.
    let share = limiter.acquire_grant(&|| true).unwrap().stage_tokens();
    limiter.release_grant();
    assert!(
        permits * share <= limiter.stage_tokens(),
        "{permits} permits of {share} tokens exceed the budget of {}",
        limiter.stage_tokens()
    );
}

/// The default executor runs its compute stage as wide as each
/// compaction's grant: the host's cores under the unlimited grant of a
/// standalone `Db`, one worker under a budget of 2 tokens for 2 permits.
/// It drives only the lane's own merges; a `compact_range` is the next
/// test's.
#[test]
fn default_compute_width_is_the_grant() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    for (limiter, want) in [
        (None, cores),
        (Some(CompactionLimiter::with_budget(2, 2)), 1),
    ] {
        let trace = Arc::new(TraceLog::new(4096));
        let opts = Options {
            executor: Arc::new(PipelinedExec::default().with_trace(Arc::clone(&trace))),
            compaction_limiter: limiter,
            ..small_opts()
        };
        let db = Db::open(mem_env(), opts).unwrap();
        for i in 0..3000u64 {
            let key = format!("key{:05}", i * 7919 % 1000).into_bytes();
            let value = format!("v{i}-{}", "x".repeat(48));
            db.put(&key, value.as_bytes()).unwrap();
        }
        db.wait_idle().unwrap();

        let widths: Vec<u64> = trace
            .events()
            .iter()
            .filter(|e| e.kind == "compaction_start")
            .filter_map(|e| e.fields.iter().find(|(n, _)| *n == "compute_workers"))
            .map(|&(_, width)| width)
            .collect();
        assert!(!widths.is_empty(), "the workload must merge");
        assert!(
            widths.iter().all(|&w| w == want),
            "want {want} wide, ran {widths:?}"
        );
    }
}

/// A `compact_range` skips the permit queue but not the share: under a
/// budget of 2 tokens for 2 permits every one of its merges runs 1 wide,
/// as the lane's do.
#[test]
fn compact_range_runs_on_the_limiters_share() {
    let trace = Arc::new(TraceLog::new(4096));
    let opts = Options {
        executor: Arc::new(PipelinedExec::default().with_trace(Arc::clone(&trace))),
        compaction_limiter: Some(CompactionLimiter::with_budget(2, 2)),
        ..small_opts()
    };
    let db = Db::open(mem_env(), opts).unwrap();
    for i in 0..3000u64 {
        let key = format!("key{:05}", i * 7919 % 1000).into_bytes();
        db.put(&key, format!("v{i}-{}", "x".repeat(48)).as_bytes())
            .unwrap();
    }
    db.wait_idle().unwrap();
    let lane_merges = trace
        .events()
        .iter()
        .filter(|e| e.kind == "compaction_start")
        .count();
    db.compact_range(None, None).unwrap();

    let widths: Vec<u64> = trace
        .events()
        .iter()
        .filter(|e| e.kind == "compaction_start")
        .skip(lane_merges)
        .filter_map(|e| e.fields.iter().find(|(n, _)| *n == "compute_workers"))
        .map(|&(_, width)| width)
        .collect();
    assert!(!widths.is_empty(), "compact_range must merge");
    assert!(
        widths.iter().all(|&w| w == 1),
        "manual merges ran {widths:?} wide"
    );
}

/// The sharded engine's registry carries exactly the `pcp_sched_*`
/// contract after one registration pass.
#[test]
fn sched_metrics_are_exposed_by_the_sharded_engine() {
    const SHARDS: usize = 2;
    let limiter = Arc::new(CompactionLimiter::with_budget(2, 4));
    let opts = Options {
        compaction_limiter: Some(Arc::clone(&limiter)),
        ..small_opts()
    };
    let envs: Vec<EnvRef> = (0..SHARDS).map(|_| mem_env()).collect();
    let db = ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap();
    for i in 0..400u64 {
        db.put(format!("key{i:05}").as_bytes(), b"value").unwrap();
    }
    db.wait_idle().unwrap();

    let registry = Registry::new();
    db.register_metrics(&registry);
    let text = registry.render_prometheus();
    let mut names: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("pcp_sched_"))
        .filter_map(|l| l.split(['{', ' ']).next())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        ["pcp_sched_stage_tokens", "pcp_sched_tokens_in_use"],
        "in:\n{text}"
    );
    // The default executor is C-PPCP wherever the host has two cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let default = if cores > 1 { "c-ppcp" } else { "pcp" };
    assert_eq!(db.shard(0).executor().name(), default);
}

/// A database on the default executor and one pinned to the reference
/// executor must converge to byte-identical full key/value streams for
/// the same workload — the repo-wide executor-equivalence invariant
/// lifted to the production default.
fn full_stream(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut all = Vec::new();
    while it.valid() {
        all.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn default_db_matches_simple_merge_db(
        ops in prop::collection::vec(
            (prop::num::u16::ANY, prop::bool::ANY, 0usize..80),
            200..800,
        ),
    ) {
        let simple_opts = Options {
            executor: Arc::new(SimpleMergeExec),
            ..small_opts()
        };
        let db_a = Db::open(mem_env(), small_opts()).unwrap();
        let db_s = Db::open(mem_env(), simple_opts).unwrap();
        for (kx, is_delete, vlen) in &ops {
            let key = format!("key{:04}", kx % 500).into_bytes();
            if *is_delete {
                db_a.delete(&key).unwrap();
                db_s.delete(&key).unwrap();
            } else {
                let value = vec![(*kx % 251) as u8; *vlen];
                db_a.put(&key, &value).unwrap();
                db_s.put(&key, &value).unwrap();
            }
        }
        db_a.wait_idle().unwrap();
        db_s.wait_idle().unwrap();
        db_a.compact_range(None, None).unwrap();
        db_s.compact_range(None, None).unwrap();
        prop_assert_eq!(full_stream(&db_a), full_stream(&db_s));
    }
}
