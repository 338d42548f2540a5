//! `serve_ssd`: the whole path — wire, reactor, worker, shard, engine,
//! device. An in-process `KvServer` (reactor front end) over a 2-shard
//! `ShardedDb` (`HashRouter`, one simulated SSD per shard, 32 MiB block
//! cache per shard, which the data fits in). Set-up preloads every key.
//! The timed phase is two `KvClient` connections (two threads, one per
//! core of the box that sized this), each a pipelined window of 16: 50 %
//! GET zipfian, 45 % PUT uniform, 5 % SCAN of 50 entries, with flushes and
//! compactions running underneath.
//!
//! Closed loop on purpose. An open loop on a 2-core box gave a p99 anywhere
//! between 65 ms and 665 ms for the same code, decided by a few one-second
//! episodes of flush and compaction taking both cores.
//!
//! PUTs go to keys that exist (and write the value the key already has), so
//! the key set never changes and every GET and SCAN can be checked exactly,
//! whatever order the server applies concurrent requests in.

use crate::bench::{self, Checker, Config, Report, Store};
use crate::gen::{self, Op, Rng, Zipfian, ENTRY_BYTES};
use crate::json::Json;
use crate::layers::{ClientSide, Probe};
use crate::stats;
use crate::trace::{Kind, Tracer, SAMPLE_EVERY};
use pcp::lsm::WriteBatch;
use pcp::shard::{HashRouter, KvClient, KvServer, Request, Response, ShardedDb};
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// 500 k keys and 1.5 M requests per 30 s.
const KEYS_PER_SECOND: f64 = 5e5 / 30.0;
const REQUESTS_PER_SECOND: f64 = 1.5e6 / 30.0;
const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const WINDOW: usize = 16;
const GET_SHARE: f64 = 0.50;
const PUT_SHARE: f64 = 0.45;
const SCAN_LIMIT: u64 = 50;
const ZIPF_THETA: f64 = 0.99;
const BLOCK_CACHE_BYTES: usize = 32 << 20;
const PRELOAD_BATCH: usize = 256;
const SETUP_REPEATS: usize = 3;
const READ_BACK_PASSES: usize = 5;

pub fn keys(cfg: &Config) -> u64 {
    cfg.count(KEYS_PER_SECOND).max(2 * SCAN_LIMIT)
}

/// The requests of client `client`, in send order.
pub fn plan(cfg: &Config, client: usize) -> Vec<Op> {
    let keys = keys(cfg);
    let zipf = Zipfian::new(keys, ZIPF_THETA);
    let mut rng = Rng::new(cfg.seed, 1 + client as u64);
    (0..cfg.count(REQUESTS_PER_SECOND) / CLIENTS as u64)
        .map(|_| {
            let kind = rng.unit();
            if kind < GET_SHARE {
                Op::Get(zipf.sample(&mut rng) as u32)
            } else if kind < GET_SHARE + PUT_SHARE {
                Op::Put(rng.below(keys) as u32)
            } else {
                Op::Scan(rng.below(keys - SCAN_LIMIT) as u32)
            }
        })
        .collect()
}

/// Fields drop in this order: connections close before the server drains
/// them, and the server stops before the engine under it goes away.
struct Serve {
    clients: Vec<KvClient>,
    server: KvServer,
    db: Arc<ShardedDb>,
    stores: Vec<Store>,
    plans: Vec<Vec<Op>>,
}

fn setup(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> io::Result<Serve> {
    let stores: Vec<Store> = (0..SHARDS)
        .map(|i| bench::sim_store(&format!("ssd{i}"), false, tracer))
        .collect();
    let envs = stores.iter().map(|s| Arc::clone(&s.env)).collect();
    let opts = bench::options(BLOCK_CACHE_BYTES, tracer);
    let db = Arc::new(ShardedDb::open_with_envs(
        envs,
        opts,
        Arc::new(HashRouter::new(SHARDS)),
    )?);
    for chunk in gen::permutation(keys(cfg), &mut Rng::new(cfg.seed, 0)).chunks(PRELOAD_BATCH) {
        let mut batch = WriteBatch::new();
        for &k in chunk {
            batch.put(&gen::key(k as u64), &gen::value(k as u64, cfg.seed));
        }
        db.write(batch)?;
    }
    db.wait_idle()?;
    let server = KvServer::start(Arc::clone(&db), "127.0.0.1:0")?;
    let clients = (0..CLIENTS)
        .map(|_| KvClient::connect(server.local_addr()))
        .collect::<io::Result<_>>()?;
    let plans = (0..CLIENTS).map(|c| plan(cfg, c)).collect();
    Ok(Serve {
        clients,
        server,
        db,
        stores,
        plans,
    })
}

struct ClientRun {
    check: Checker,
    request_ns: Vec<u64>,
    first_send: Instant,
    last_recv: Instant,
}

/// One connection's closed loop: keep `WINDOW` requests in flight, take
/// responses in order, check each against the request it answers.
fn drive(
    client: &mut KvClient,
    index: usize,
    ops: &[Op],
    check: Checker,
    tracer: Option<&Arc<Tracer>>,
) -> ClientRun {
    let first_send = Instant::now();
    let mut run = ClientRun {
        check,
        request_ns: Vec::with_capacity(ops.len()),
        first_send,
        last_recv: first_send,
    };
    let mut in_flight: VecDeque<(Op, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut next = 0;
    let mut exchange = || -> io::Result<()> {
        while next < ops.len() || !in_flight.is_empty() {
            while in_flight.len() < WINDOW && next < ops.len() {
                let op = ops[next];
                let key = gen::key(op.key()).to_vec();
                let request = match op {
                    Op::Get(_) => Request::Get(key),
                    Op::Put(_) => {
                        Request::Put(key, gen::value(op.key(), run.check.seed()).to_vec())
                    }
                    Op::Scan(_) => Request::Scan {
                        start: key,
                        limit: SCAN_LIMIT,
                    },
                };
                let sent = Instant::now();
                client.send(&request)?;
                in_flight.push_back((op, sent));
                next += 1;
            }
            let (_, response) = client.recv()?;
            run.last_recv = Instant::now();
            let (op, sent) = in_flight
                .pop_front()
                .expect("a response answers a request in flight");
            run.request_ns
                .push((run.last_recv - sent).as_nanos() as u64);
            if let Some(t) = tracer {
                // Request ids interleave the connections: 1, 2, 3, … across both.
                let id = ((run.request_ns.len() - 1) * CLIENTS + index) as u64;
                let sampled = id.is_multiple_of(SAMPLE_EVERY);
                t.record(Kind::ShardRequest, id + 1, sampled, sent, run.last_recv);
            }
            run.check.attempted += 1;
            check_response(&mut run.check, op, response);
        }
        Ok(())
    };
    if let Err(e) = exchange() {
        // The connection is gone: every request not yet answered fails.
        let unanswered = (ops.len() - run.request_ns.len()) as u64;
        run.check.attempted += unanswered;
        run.check.failed += unanswered;
        run.check.failures.push(format!("client {index}: {e}"));
    }
    run
}

fn check_response(check: &mut Checker, op: Op, response: Response) {
    match (op, response) {
        (Op::Get(k), Response::Value(v)) => check.value(k as u64, Some(&v)),
        (Op::Put(_), Response::Ok) => {}
        (Op::Scan(start), Response::Entries(entries)) => {
            if entries.len() as u64 != SCAN_LIMIT {
                return check.fail(|| format!("SCAN from {start}: {} entries", entries.len()));
            }
            for (idx, (key, value)) in (start as u64..).zip(&entries) {
                if key[..] != gen::key(idx) {
                    return check.fail(|| {
                        format!(
                            "SCAN from {start}: expected key {idx}, got {:?}",
                            String::from_utf8_lossy(key)
                        )
                    });
                }
                check.value(idx, Some(value));
            }
        }
        (op, other) => check.fail(|| format!("{op:?} answered with {other:?}")),
    }
}

pub fn run(cfg: &Config) -> io::Result<Report> {
    let owned_tracer = cfg.trace.then(Tracer::new);
    let tracer = owned_tracer.as_ref();
    let keys = keys(cfg);
    let (
        Serve {
            mut clients,
            mut server,
            db,
            stores,
            plans,
        },
        setup_s,
    ) = bench::median_setup(SETUP_REPEATS, || setup(cfg, tracer))?;
    let mut check = Checker::new(cfg.seed, gen::first_get(&plans[0]).filter(|_| cfg.corrupt));
    let shards: Vec<_> = (0..SHARDS).map(|i| db.shard(i)).collect();

    let probe = tracer.map(|t| {
        Probe::start(
            t,
            server.registry(),
            shards.clone(),
            &stores,
            Some(db.limiter()),
        )
    });
    let cpu0 = bench::cpu_seconds();
    let barrier = Barrier::new(CLIENTS);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&plans)
            .enumerate()
            .map(|(index, (client, ops))| {
                let (check, barrier) = (check.clone(), &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    drive(client, index, ops, check, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_s = bench::cpu_seconds() - cpu0;
    let first_send = runs
        .iter()
        .map(|r| r.first_send)
        .min()
        .expect("CLIENTS > 0");
    let last_recv = runs.iter().map(|r| r.last_recv).max().expect("CLIENTS > 0");
    let wall_s = (last_recv - first_send).as_secs_f64();
    let mut request_ns = Vec::new();
    for run in runs {
        request_ns.extend(run.request_ns);
        check.absorb(run.check);
    }
    let requests = request_ns.len() as u64;
    request_ns.sort_unstable();
    let layer_metrics = probe.map(|p| {
        p.finish(ClientSide {
            wall_s,
            request_ns: &request_ns,
            ..ClientSide::default()
        })
    });

    drop(clients);
    server.shutdown();
    check.op("wait_idle", db.wait_idle());
    let timed_puts = plans
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Put(_)))
        .count() as u64;
    let store_metrics = bench::store_metrics(&stores, (keys + timed_puts) * ENTRY_BYTES, keys)?;

    // Checked: between them the shards hold every key exactly once. The
    // read-back is short here (the data is small and mostly cached), so it
    // is done several times and the median pass is the one reported.
    let mut pass_seconds = Vec::with_capacity(READ_BACK_PASSES);
    for _ in 0..READ_BACK_PASSES {
        let (mut entries, mut seconds) = (0, 0.0);
        for shard in &shards {
            let (n, s) = bench::verify_scan(shard, &mut check, |idx| idx < keys);
            entries += n;
            seconds += s;
        }
        if entries != keys {
            check.fail(|| format!("the shards hold {entries} entries, {keys} keys were loaded"));
        }
        pass_seconds.push(seconds);
    }
    for shard in &shards {
        bench::verify_integrity(shard, &mut check);
    }

    let mut metrics = vec![
        ("setup_s", setup_s),
        ("ops_kops", requests as f64 / wall_s / 1e3),
        (
            "op_p75_us",
            stats::percentile(&request_ns, 75.0) as f64 / 1e3,
        ),
        (
            "scan_mbps",
            (keys * ENTRY_BYTES) as f64 / 1e6 / stats::median(&pass_seconds),
        ),
        ("bench.cpu_us_per_op", cpu_s * 1e6 / requests as f64),
    ];
    metrics.extend(store_metrics);
    metrics.extend(layer_metrics.unwrap_or_default());
    let stream_hash = plans
        .iter()
        .fold(0u64, |h, ops| gen::mix64(h ^ gen::stream_hash(ops)));
    Ok(Report {
        attempted: check.attempted,
        failed: check.failed,
        failures: check.failures,
        metrics,
        tracer: owned_tracer,
        info: vec![
            ("keys", Json::Num(keys as f64)),
            ("requests", Json::Num(requests as f64)),
            ("op_stream_hash", Json::str(format!("{stream_hash:016x}"))),
            ("timed_wall_s", Json::Num(wall_s)),
        ],
    })
}
