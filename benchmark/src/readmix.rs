//! `readmix_ssd`: reads against a working set several times the block
//! cache. One `Db` on a simulated SSD with an 8 MiB block cache; set-up
//! loads every key once in a seeded random order and idles. The timed phase
//! is one thread doing rounds of 200 point operations (95 % `get`, 5 %
//! `put`, scrambled zipfian θ = 0.99) followed by one scan of 2000 entries
//! from a uniform start.
//!
//! The block cache, bloom filters, readahead and foreground device reads do
//! the work, and there is no compaction. Gets and long scans use the cache
//! and readahead differently: scan-driven cache pollution, or a readahead
//! change that takes device time from gets, shows as a get regression next
//! to a scan gain.

use crate::bench::{self, Checker, Config, Report};
use crate::gen::{self, Op, Rng, Zipfian, ENTRY_BYTES, KEY_LEN};
use crate::json::Json;
use crate::layers::{ClientSide, Probe};
use crate::stats;
use crate::trace::{Kind, Tracer};
use pcp::lsm::Db;
use pcp::obs::Registry;
use std::io;
use std::sync::Arc;

/// 1 M keys per 30 s (about 70 MB stored, 9 × the cache). Every key a get
/// asks for exists, so every get reads a block; at that cost the seed
/// commit does 42 rounds a second.
const KEYS_PER_SECOND: f64 = 1e6 / 30.0;
const ROUNDS_PER_SECOND: f64 = 42.0;
const POINT_OPS_PER_ROUND: usize = 200;
const PUT_SHARE: f64 = 0.05;
const SCAN_ENTRIES: u64 = 2000;
const ZIPF_THETA: f64 = 0.99;
const BLOCK_CACHE_BYTES: usize = 8 << 20;
const SETUP_REPEATS: usize = 3;

pub fn keys(cfg: &Config) -> u64 {
    cfg.count(KEYS_PER_SECOND).max(2 * SCAN_ENTRIES)
}

pub fn plan(cfg: &Config) -> Vec<Op> {
    let keys = keys(cfg);
    let zipf = Zipfian::new(keys, ZIPF_THETA);
    let mut rng = Rng::new(cfg.seed, 1);
    let mut ops = Vec::new();
    for _ in 0..cfg.count(ROUNDS_PER_SECOND) {
        for _ in 0..POINT_OPS_PER_ROUND {
            let k = zipf.sample(&mut rng) as u32;
            ops.push(if rng.unit() < PUT_SHARE {
                Op::Put(k)
            } else {
                Op::Get(k)
            });
        }
        ops.push(Op::Scan(rng.below(keys - SCAN_ENTRIES) as u32));
    }
    ops
}

struct Readmix {
    store: bench::Store,
    db: Db,
    registry: Registry,
    ops: Vec<Op>,
}

fn setup(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> io::Result<Readmix> {
    let store = bench::sim_store("ssd0", false, tracer);
    let opts = bench::options(BLOCK_CACHE_BYTES, tracer);
    let db = Db::open(Arc::clone(&store.env), opts.clone())?;
    let registry = bench::engine_registry(&db, &opts);
    for k in gen::permutation(keys(cfg), &mut Rng::new(cfg.seed, 2)) {
        db.put(&gen::key(k as u64), &gen::value(k as u64, cfg.seed))?;
    }
    db.wait_idle()?;
    Ok(Readmix {
        store,
        db,
        registry,
        ops: plan(cfg),
    })
}

pub fn run(cfg: &Config) -> io::Result<Report> {
    let owned_tracer = cfg.trace.then(Tracer::new);
    let tracer = owned_tracer.as_ref();
    let keys = keys(cfg);
    let (
        Readmix {
            store,
            db,
            registry,
            ops,
        },
        setup_s,
    ) = bench::median_setup(SETUP_REPEATS, || setup(cfg, tracer))?;
    let stores = [store];
    let mut check = Checker::new(cfg.seed, gen::first_get(&ops).filter(|_| cfg.corrupt));

    let (mut get_ns, mut put_ns, mut scan_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut scanned = Vec::with_capacity((SCAN_ENTRIES * ENTRY_BYTES) as usize);
    let mut scan_bytes = 0u64;

    let probe = tracer.map(|t| Probe::start(t, &registry, vec![&db], &stores, None));
    let cpu0 = bench::cpu_seconds();
    let t0 = std::time::Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Get(k) => {
                let key = gen::key(k as u64);
                let (result, ns) =
                    bench::client_op(tracer, Kind::LsmGet, i as u64, get_ns.len() as u64, || {
                        db.get(&key)
                    });
                get_ns.push(ns);
                // Checked after the clock stopped, like the scan below.
                if let Some(got) = check.op("get", result) {
                    check.value(k as u64, got.as_deref());
                }
            }
            Op::Put(k) => {
                let (key, value) = (gen::key(k as u64), gen::value(k as u64, cfg.seed));
                let (result, ns) =
                    bench::client_op(tracer, Kind::LsmPut, i as u64, put_ns.len() as u64, || {
                        db.put(&key, &value)
                    });
                put_ns.push(ns);
                check.op("put", result);
            }
            Op::Scan(start) => {
                let key = gen::key(start as u64);
                scanned.clear();
                let (entries, ns) = bench::client_op(
                    tracer,
                    Kind::LsmScan,
                    i as u64,
                    scan_ns.len() as u64,
                    || {
                        let mut it = db.iter();
                        it.seek(&key);
                        let mut entries = 0;
                        while entries < SCAN_ENTRIES && it.valid() {
                            scanned.extend_from_slice(it.key());
                            scanned.extend_from_slice(it.value());
                            entries += 1;
                            it.next();
                        }
                        entries
                    },
                );
                scan_ns.push(ns);
                scan_bytes += scanned.len() as u64;
                check.attempted += 1;
                check_scan(&mut check, start as u64, entries, &scanned);
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = bench::cpu_seconds() - cpu0;
    let point_s = (get_ns.iter().sum::<u64>() + put_ns.iter().sum::<u64>()) as f64 / 1e9;
    let scan_s = scan_ns.iter().sum::<u64>() as f64 / 1e9;
    let point_ops = get_ns.len() + put_ns.len();
    for v in [&mut get_ns, &mut put_ns, &mut scan_ns] {
        v.sort_unstable();
    }
    let layer_metrics = probe.map(|p| {
        p.finish(ClientSide {
            wall_s,
            get_ns: &get_ns,
            put_ns: &put_ns,
            scan_ns: &scan_ns,
            scan_bytes,
            ..ClientSide::default()
        })
    });

    let user_bytes_put = (keys + put_ns.len() as u64) * ENTRY_BYTES;
    let store_metrics = bench::store_metrics(&stores, user_bytes_put, keys)?;
    let (entries, _) = bench::verify_scan(&db, &mut check, |idx| idx < keys);
    if entries != keys {
        check.fail(|| format!("full scan returned {entries} entries, {keys} keys were loaded"));
    }
    bench::verify_integrity(&db, &mut check);

    let mut metrics = vec![
        ("setup_s", setup_s),
        ("ops_kops", point_ops as f64 / point_s / 1e3),
        ("op_p75_us", stats::percentile(&get_ns, 75.0) as f64 / 1e3),
        ("scan_mbps", scan_bytes as f64 / 1e6 / scan_s),
        (
            "bench.cpu_us_per_op",
            cpu_s * 1e6 / (point_ops as u64 + scan_bytes / ENTRY_BYTES) as f64,
        ),
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
            ("keys", Json::Num(keys as f64)),
            ("gets", Json::Num(get_ns.len() as f64)),
            ("puts", Json::Num(put_ns.len() as f64)),
            ("scans", Json::Num(scan_ns.len() as f64)),
            (
                "op_stream_hash",
                Json::str(format!("{:016x}", gen::stream_hash(&ops))),
            ),
            ("timed_wall_s", Json::Num(wall_s)),
        ],
    })
}

/// Every key from `start` on exists, so a scan must return exactly the next
/// `SCAN_ENTRIES` keys in order, each with its value.
fn check_scan(check: &mut Checker, start: u64, entries: u64, scanned: &[u8]) {
    if entries != SCAN_ENTRIES || scanned.len() as u64 != entries * ENTRY_BYTES {
        return check.fail(|| {
            format!(
                "scan from {start}: {entries} entries, {} bytes",
                scanned.len()
            )
        });
    }
    for (idx, entry) in (start..).zip(scanned.chunks_exact(ENTRY_BYTES as usize)) {
        let (key, value) = entry.split_at(KEY_LEN);
        if key != gen::key(idx) {
            return check.fail(|| {
                format!(
                    "scan from {start}: expected key {idx}, got {:?}",
                    String::from_utf8_lossy(key)
                )
            });
        }
        check.value(idx, Some(value));
    }
}
