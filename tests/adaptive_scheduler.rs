//! The adaptive-default production path end to end: the cross-shard
//! resource scheduler's token invariant under real 8-shard concurrency,
//! deterministic shape selection, scheduler observability, and
//! byte-for-byte equivalence of an adaptive-default database against the
//! reference simple-merge executor.

use pcp::compaction::SimpleMergeExec;
use pcp::core::{compute_width, Occupancy, PipelinedExec};
use pcp::lsm::{CompactionLimiter, CompactionPolicy, Db, Options};
use pcp::obs::Registry;
use pcp::shard::{HashRouter, ShardedDb};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

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
    let db =
        ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap();

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

/// The shape decision is a pure function of (occupancy, token grant,
/// worker bound): same snapshot in, same compute width out — every time.
#[test]
fn adaptive_choice_is_deterministic_for_fixed_snapshot() {
    let snapshots = [
        // (occupancy, tokens) -> expected compute width (1 = PCP)
        (
            Occupancy {
                read: 0.3,
                compute: 0.95,
                write: 0.4,
                wall: Duration::from_millis(80),
            },
            usize::MAX,
            4,
        ),
        (
            Occupancy {
                read: 0.95,
                compute: 0.3,
                write: 0.2,
                wall: Duration::from_millis(80),
            },
            usize::MAX,
            1, // the read stage is never widened
        ),
        (
            Occupancy {
                read: 0.5,
                compute: 0.5,
                write: 0.9,
                wall: Duration::from_millis(80),
            },
            usize::MAX,
            1,
        ),
        (
            Occupancy {
                read: 0.3,
                compute: 0.95,
                write: 0.4,
                wall: Duration::from_millis(80),
            },
            2, // the scheduler's grant caps the parallel width
            2,
        ),
    ];
    for (occ, tokens, want) in snapshots {
        for _ in 0..50 {
            assert_eq!(compute_width(&occ, tokens, 4), want);
        }
    }
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
    let db =
        ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap();
    for i in 0..400u64 {
        db.put(format!("key{i:05}").as_bytes(), b"value").unwrap();
    }
    db.wait_idle().unwrap();

    let registry = Registry::new();
    db.register_metrics(&registry);
    let text = registry.render_prometheus();
    for series in [
        "pcp_sched_executor_choice_total{choice=\"pcp\"}",
        "pcp_sched_executor_choice_total{choice=\"c-ppcp\"}",
    ] {
        assert!(text.contains(series), "missing series {series} in:\n{text}");
    }
    let mut names: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("pcp_sched_"))
        .filter_map(|l| l.split(['{', ' ']).next())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        [
            "pcp_sched_executor_choice_total",
            "pcp_sched_stage_tokens",
            "pcp_sched_tokens_in_use"
        ],
        "in:\n{text}"
    );
    assert!(!text.contains("choice=\"s-ppcp\""), "the chooser has no S-PPCP arm:\n{text}");
    // The default executor is the adaptive one, and it ran compactions.
    assert_eq!(db.shard(0).executor().name(), "adaptive");
}

/// A database on the adaptive default and one pinned to the reference
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
    fn adaptive_default_db_matches_simple_merge_db(
        ops in prop::collection::vec(
            (prop::num::u16::ANY, prop::bool::ANY, 0usize..80),
            200..800,
        ),
    ) {
        let adaptive_opts = Options {
            executor: Arc::new(PipelinedExec::adaptive(8 << 10, 3)),
            ..small_opts()
        };
        let simple_opts = Options {
            executor: Arc::new(SimpleMergeExec),
            ..small_opts()
        };
        let db_a = Db::open(mem_env(), adaptive_opts).unwrap();
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
