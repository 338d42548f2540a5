//! `fill_hdd` and `fill_ssd`: the paper's experiment (Fig. 10). One writer
//! thread puts uniform-random keys from a key space four times the number
//! of puts into one `Db` on one simulated device, then waits for flushes
//! and compactions to finish. WAL unsynced (the engine default and the
//! paper's setting), block cache off.
//!
//! On the HDD the device does most of the work (I/O-bound, Fig. 10a–c), so
//! S1/S7 overlap and I/O size show there and a faster codec should not. On
//! the SSD the compute stage does (CPU-bound, Fig. 10d–f), and an I/O-only
//! change should not show.

use crate::bench::{self, Checker, Config, Report, Store};
use crate::gen::{self, Op, Rng};
use crate::json::Json;
use crate::layers::{ClientSide, Probe};
use crate::stats;
use crate::trace::{Kind, Tracer};
use pcp::lsm::{Db, Options};
use pcp::obs::Registry;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Puts per nominal second: 2 M in 30 s on the HDD and 4 M in 30 s on the
/// SSD is what the seed commit sustained, drain included.
const HDD_PUTS_PER_SECOND: f64 = 2e6 / 30.0;
const SSD_PUTS_PER_SECOND: f64 = 4e6 / 30.0;
const KEY_SPACE_PER_PUT: u64 = 4;
/// Set-up is short here (open an empty store, draw the keys), so it is
/// repeated more often than where it loads data.
const SETUP_REPEATS: usize = 5;
/// Point reads after the fill. A read that misses the memtable costs a seek
/// on the HDD (about 10 ms), which is what bounds the sample there.
const HDD_READ_BACK: usize = 200;
const SSD_READ_BACK: usize = 2000;

pub fn puts(cfg: &Config, hdd: bool) -> u64 {
    cfg.count(if hdd {
        HDD_PUTS_PER_SECOND
    } else {
        SSD_PUTS_PER_SECOND
    })
}

pub fn plan(seed: u64, puts: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    (0..puts)
        .map(|_| Op::Put(rng.below(puts * KEY_SPACE_PER_PUT) as u32))
        .collect()
}

struct Fill {
    store: Store,
    opts: Options,
    db: Db,
    registry: Registry,
    ops: Vec<Op>,
    put_ns: Vec<u64>,
}

fn setup(cfg: &Config, hdd: bool, puts: u64, tracer: Option<&Arc<Tracer>>) -> io::Result<Fill> {
    let store = bench::sim_store(if hdd { "hdd0" } else { "ssd0" }, hdd, tracer);
    let opts = bench::options(0, tracer);
    let db = Db::open(Arc::clone(&store.env), opts.clone())?;
    let registry = bench::engine_registry(&db, &opts);
    Ok(Fill {
        store,
        opts,
        db,
        registry,
        ops: plan(cfg.seed, puts),
        put_ns: Vec::with_capacity(puts as usize),
    })
}

pub fn run(cfg: &Config, hdd: bool) -> io::Result<Report> {
    let owned_tracer = cfg.trace.then(Tracer::new);
    let tracer = owned_tracer.as_ref();
    let puts = puts(cfg, hdd);
    let (fill, setup_s) = bench::median_setup(SETUP_REPEATS, || setup(cfg, hdd, puts, tracer))?;
    let Fill {
        store,
        opts,
        mut db,
        registry,
        ops,
        mut put_ns,
    } = fill;
    let stores = [store];
    let mut check = Checker::new(cfg.seed, cfg.corrupt.then(|| ops[0].key()));

    // Timed: the puts, then the drain.
    let probe = tracer.map(|t| Probe::start(t, &registry, vec![&db], &stores, None));
    let cpu0 = bench::cpu_seconds();
    let t0 = Instant::now();
    for (i, k) in ops.iter().map(|op| op.key()).enumerate() {
        let (key, value) = (gen::key(k), gen::value(k, cfg.seed));
        let (result, ns) = bench::client_op(tracer, Kind::LsmPut, i as u64, i as u64, || {
            db.put(&key, &value)
        });
        put_ns.push(ns);
        check.op("put", result);
    }
    let (result, drain_ns) =
        bench::client_op(tracer, Kind::LsmWaitIdle, puts, 0, || db.wait_idle());
    check.op("wait_idle", result);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = bench::cpu_seconds() - cpu0;
    let in_calls_s = (put_ns.iter().sum::<u64>() + drain_ns) as f64 / 1e9;
    put_ns.sort_unstable();
    let layer_metrics = probe.map(|p| {
        p.finish(ClientSide {
            wall_s,
            drain_s: drain_ns as f64 / 1e9,
            put_ns: &put_ns,
            ..ClientSide::default()
        })
    });

    let mut present = vec![0u64; (puts * KEY_SPACE_PER_PUT).div_ceil(64) as usize];
    for k in ops.iter().map(|op| op.key()) {
        present[(k / 64) as usize] |= 1 << (k % 64);
    }
    let distinct: u64 = present.iter().map(|w| w.count_ones() as u64).sum();
    let store_metrics = bench::store_metrics(&stores, puts * gen::ENTRY_BYTES, distinct)?;

    // Checked, not timed as part of the fill: read everything back in
    // order, read a sample back by key, and (SSD) once more after a clean
    // restart on the same files.
    let (entries, scan_s) = bench::verify_scan(&db, &mut check, |idx| {
        present[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    });
    if entries != distinct {
        check
            .fail(|| format!("scan returned {entries} entries, {distinct} distinct keys were put"));
    }
    let mut get_ns = Vec::new();
    let mut read_back = |db: &Db, check: &mut Checker| {
        let mut rng = Rng::new(cfg.seed, 2);
        for _ in 0..if hdd { HDD_READ_BACK } else { SSD_READ_BACK } {
            let k = ops[rng.below(puts) as usize].key();
            let key = gen::key(k);
            let t0 = Instant::now();
            let result = db.get(&key);
            get_ns.push(t0.elapsed().as_nanos() as u64);
            if let Some(got) = check.op("get", result) {
                check.value(k, got.as_deref());
            }
        }
    };
    read_back(&db, &mut check);
    if !hdd {
        // With the registry: its collectors hold the engine's state alive.
        drop((db, registry));
        db = Db::open(Arc::clone(&stores[0].env), opts)?;
        read_back(&db, &mut check);
    }
    bench::verify_integrity(&db, &mut check);

    get_ns.sort_unstable();
    let mut metrics = vec![
        ("setup_s", setup_s),
        ("ops_kops", puts as f64 / wall_s / 1e3),
        ("op_p75_us", stats::percentile(&get_ns, 75.0) as f64 / 1e3),
        (
            "scan_mbps",
            (entries * gen::ENTRY_BYTES) as f64 / 1e6 / scan_s,
        ),
        ("bench.cpu_us_per_op", cpu_s * 1e6 / puts as f64),
    ];
    metrics.extend(store_metrics);
    metrics.extend(layer_metrics.unwrap_or_default());
    Ok(Report {
        attempted: check.attempted,
        failed: check.failed,
        failures: check.failures,
        metrics,
        tracer: owned_tracer,
        info: vec![
            ("puts", Json::Num(puts as f64)),
            ("distinct_keys", Json::Num(distinct as f64)),
            (
                "op_stream_hash",
                Json::str(format!("{:016x}", gen::stream_hash(&ops))),
            ),
            ("timed_wall_s", Json::Num(wall_s)),
            // Share of the timed wall spent inside `put` and `wait_idle`;
            // the rest is this loop drawing keys and values.
            ("in_engine_calls_share", Json::Num(in_calls_s / wall_s)),
        ],
    })
}
