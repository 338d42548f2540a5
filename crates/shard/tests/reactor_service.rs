//! End-to-end tests for the reactor front end and the pipelined client:
//! the wire transcript of a pipelined op script against an in-process
//! model, server-side ERR inside a pipelined window, graceful-shutdown
//! drain, backpressure, metrics, and malformed or corrupt frames.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test harness: speaks the wire protocol over raw TcpStreams"
)]

use pcp_lsm::{CompactionPolicy, Options, WriteBatch};
use pcp_shard::proto::{read_frame, write_frame};
use pcp_shard::{
    BatchItem, HashRouter, KvClient, KvServer, ReactorConfig, Request, Response, ShardedDb,
};
use pcp_storage::{EnvRef, FaultEnv, FaultKind, FaultOp, SimDevice, SimEnv};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sharded(n: usize) -> Arc<ShardedDb> {
    let envs: Vec<EnvRef> = (0..n)
        .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))) as EnvRef)
        .collect();
    let opts = Options {
        memtable_bytes: 32 << 10,
        sstable_bytes: 32 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 128 << 10,
            level_multiplier: 10,
        },
        ..Options::default()
    };
    Arc::new(ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(n))).unwrap())
}

fn start(db: Arc<ShardedDb>, reactor: ReactorConfig) -> KvServer {
    KvServer::start_with(db, "127.0.0.1:0", reactor).unwrap()
}

/// A deterministic mixed op script: puts, gets (hits and misses),
/// deletes, a cross-shard batch, and bounded scans. Workers execute a
/// connection's in-flight ops concurrently, so the script comes in
/// phases: the ops of one phase touch disjoint keys or only read, and a
/// phase is drained before the next is sent.
fn op_script() -> Vec<Vec<Request>> {
    let key = |i: u32| format!("k{i:04}").into_bytes();
    let puts = (0..40).map(|i| Request::Put(key(i), format!("v{i}").into_bytes()));
    let gets = (0..50).map(|i| Request::Get(key(i)));
    let mut overwrites: Vec<Request> = (0..40).step_by(4).map(|i| Request::Delete(key(i))).collect();
    overwrites.push(Request::Batch(vec![
        BatchItem::Put(b"batch-a".to_vec(), b"1".to_vec()),
        BatchItem::Put(b"batch-b".to_vec(), b"2".to_vec()),
        BatchItem::Delete(b"k0001".to_vec()),
    ]));
    let mut reads: Vec<Request> = (0..40).map(|i| Request::Get(key(i))).collect();
    reads.push(Request::Scan {
        start: b"k".to_vec(),
        limit: 100,
    });
    reads.push(Request::Scan {
        start: b"batch".to_vec(),
        limit: 2,
    });
    vec![puts.collect(), gets.collect(), overwrites, reads]
}

/// Runs the script with each phase fully pipelined (every request of the
/// phase in flight before its first response is read) and returns the
/// encoded response bytes.
fn run_pipelined(addr: std::net::SocketAddr, script: &[Vec<Request>]) -> Vec<Vec<u8>> {
    let mut client = KvClient::connect(addr).unwrap();
    let mut transcript = Vec::new();
    for phase in script {
        let tokens: Vec<u64> = phase.iter().map(|req| client.send(req).unwrap()).collect();
        assert_eq!(client.pending(), phase.len());
        let responses = client.recv_all().unwrap();
        assert_eq!(client.pending(), 0);
        let got_tokens: Vec<u64> = responses.iter().map(|(t, _)| *t).collect();
        assert_eq!(got_tokens, tokens, "responses out of token order");
        transcript.extend(responses.into_iter().map(|(_, r)| r.encode()));
    }
    transcript
}

/// The model: the script applied serially, in-process, to `db`, with the
/// responses the service owes for each op.
fn expected_transcript(db: &ShardedDb, script: &[Vec<Request>]) -> Vec<Vec<u8>> {
    let apply = |req: &Request| match req {
        Request::Get(key) => db
            .get(key)
            .unwrap()
            .map_or(Response::NotFound, Response::Value),
        Request::Put(key, value) => db.put(key, value).map(|()| Response::Ok).unwrap(),
        Request::Delete(key) => db.delete(key).map(|()| Response::Ok).unwrap(),
        Request::Batch(items) => {
            let mut batch = WriteBatch::new();
            for item in items {
                match item {
                    BatchItem::Put(k, v) => batch.put(k, v),
                    BatchItem::Delete(k) => batch.delete(k),
                }
            }
            db.write(batch).map(|()| Response::Ok).unwrap()
        }
        Request::Scan { start, limit } => Response::Entries(db.scan(start, *limit as usize).unwrap()),
        other => panic!("not a data op: {other:?}"),
    };
    script.iter().flatten().map(|req| apply(req).encode()).collect()
}

/// A pipelined script gets, byte for byte and in request order, the
/// responses the same ops produce when applied serially to an identical
/// engine.
#[test]
fn pipelined_transcript_matches_in_process_model() {
    let script = op_script();
    let expected = expected_transcript(&sharded(4), &script);
    let mut server = start(sharded(4), ReactorConfig::default());
    let got = run_pipelined(server.local_addr(), &script);
    server.shutdown();
    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "response {i} differs from the model");
    }
    // The script actually exercised data paths: last scans saw entries.
    match Response::decode(&got[got.len() - 1]).unwrap() {
        Response::Entries(entries) => assert_eq!(entries.len(), 2),
        other => panic!("expected Entries, got {other:?}"),
    }
}

/// A server-side ERR inside the pipelined window surfaces as a value
/// with the right token; the window keeps draining and the connection
/// stays usable. The ERR is a SCAN over a shard whose table reads fault.
#[test]
fn pipelined_err_keeps_window_usable() {
    let mem = || Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20)))) as EnvRef;
    let fault = FaultEnv::new(mem(), 1);
    let envs = vec![Arc::new(fault.clone()) as EnvRef, mem()];
    let router = Arc::new(HashRouter::new(2));
    let db = Arc::new(ShardedDb::open_with_envs(envs, Options::default(), router).unwrap());
    let key = |i: u32| format!("user{i:05}").into_bytes();
    for i in 0..200 {
        db.put(&key(i), b"value").unwrap();
    }
    db.flush().unwrap();
    // A key of shard 1, whose env never faults.
    let healthy = (0..200).map(key).find(|k| db.shard_of(k) == 1).unwrap();
    fault
        .set_probability(FaultOp::ReadAt, 1.0)
        .set_probabilistic_kind(FaultKind::Permanent)
        .set_file_filter(".sst");
    let mut server = start(Arc::clone(&db), ReactorConfig::default());

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let t_get1 = client.send(&Request::Get(healthy.clone())).unwrap();
    // The scan must read shard 0's tables: it fails mid-window.
    let scan = Request::Scan {
        start: Vec::new(),
        limit: 1000,
    };
    let t_scan = client.send(&scan).unwrap();
    let t_get2 = client.send(&Request::Get(healthy.clone())).unwrap();

    let value = Response::Value(b"value".to_vec());
    let (t1, r1) = client.recv().unwrap();
    assert_eq!((t1, r1), (t_get1, value.clone()));
    let (t2, r2) = client.recv().unwrap();
    assert_eq!(t2, t_scan, "ERR must carry the erring request's token");
    match r2 {
        Response::Err(msg) => assert!(msg.contains("injected permanent fault"), "{msg}"),
        other => panic!("expected Err for the faulting scan, got {other:?}"),
    }
    let (t3, r3) = client.recv().unwrap();
    assert_eq!((t3, r3), (t_get2, value));

    // The connection immediately serves new traffic.
    assert_eq!(client.get(&healthy).unwrap(), Some(b"value".to_vec()));
    server.shutdown();
}

/// Graceful shutdown drains: every request the server accepted gets its
/// response flushed before the socket closes — none silently dropped.
#[test]
fn shutdown_flushes_accepted_pipelined_requests() {
    const N: u64 = 200;
    let db = sharded(2);
    let mut server = start(Arc::clone(&db), ReactorConfig::default());
    let addr = server.local_addr();

    let mut client = KvClient::connect(addr).unwrap();
    for i in 0..N {
        client
            .send(&Request::Put(
                format!("drain{i:05}").into_bytes(),
                b"v".to_vec(),
            ))
            .unwrap();
    }
    // Wait until the server has executed every accepted op, so shutdown
    // races only with response delivery, not with acceptance.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().ops < N {
        assert!(Instant::now() < deadline, "server never executed the window");
        std::thread::sleep(Duration::from_millis(5));
    }
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), N as usize);
    for (i, (token, resp)) in responses.iter().enumerate() {
        assert_eq!(*token, i as u64);
        assert!(matches!(resp, Response::Ok), "op {i} got {resp:?}");
    }
    shutdown.join().unwrap();
    // The writes are durable in the engine underneath.
    for i in (0..N).step_by(37) {
        let key = format!("drain{i:05}").into_bytes();
        assert_eq!(db.get(&key).unwrap(), Some(b"v".to_vec()));
    }
}

/// With a tiny output budget and a client that pipelines scans without
/// reading, the reactor pauses reads (backpressure) instead of queueing
/// unboundedly — and every response still arrives intact once the
/// client drains.
#[test]
fn backpressure_pauses_reads_under_unread_output() {
    let db = sharded(2);
    // Seed values big enough that a handful of responses overflow the
    // 1 KiB output budget.
    for i in 0..8u32 {
        db.put(format!("big{i}").as_bytes(), &vec![b'x'; 4096]).unwrap();
    }
    // Both budgets tiny: the fully pipelined window trips the in-flight
    // cap as soon as it is parsed (64 dispatched >= 8), and the 4 KiB
    // responses keep the output queue over its 1 KiB budget until the
    // client drains — either is enough to pause reads.
    let mut server = start(
        Arc::clone(&db),
        ReactorConfig {
            max_output_bytes: 1024,
            max_in_flight: 8,
            ..ReactorConfig::default()
        },
    );

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let mut tokens = Vec::new();
    for _round in 0..8u32 {
        for i in 0..8u32 {
            tokens.push(client.send(&Request::Get(format!("big{i}").into_bytes())).unwrap());
        }
    }
    // Wait for the server to pause reads before the client starts draining.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = server.metrics_text();
        if metric_value(&text, "pcp_service_backpressure_pauses_total") > 0.0 {
            break;
        }
        assert!(Instant::now() < deadline, "no backpressure pause:\n{text}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), tokens.len());
    for (token, resp) in responses {
        match resp {
            Response::Value(v) => assert_eq!(v.len(), 4096, "token {token}"),
            other => panic!("token {token}: expected Value, got {other:?}"),
        }
    }
    server.shutdown();
}

/// The reactor exports its instrumentation contract: connection gauge,
/// accept/wakeup counters, per-worker busy counters, and the queue-depth
/// histograms (OBSERVABILITY.md).
#[test]
fn reactor_metrics_exposition() {
    let mut server = start(
        sharded(2),
        ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        },
    );
    let mut client = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..100u32 {
        client.put(format!("m{i}").as_bytes(), b"v").unwrap();
    }
    let text = client.metrics_text().unwrap();
    pcp_obs::validate_exposition(&text).unwrap();
    for series in [
        "pcp_service_connections",
        "pcp_service_accepts_total",
        "pcp_service_reactor_wakeups_total",
        "pcp_service_backpressure_pauses_total",
        "pcp_service_dispatch_queue_depth",
        "pcp_service_pipeline_depth",
        "pcp_service_output_queue_bytes",
    ] {
        assert!(text.contains(series), "missing {series} in exposition");
    }
    assert!(
        text.contains("pcp_service_worker_ops_total{worker=\"0\"}")
            && text.contains("pcp_service_worker_ops_total{worker=\"1\"}"),
        "missing per-worker ops counters"
    );
    assert!(text.contains("pcp_service_worker_busy_nanoseconds_total"));
    assert!(metric_value(&text, "pcp_service_accepts_total") >= 1.0);
    assert!(metric_value(&text, "pcp_service_connections") >= 1.0);
    let w0 = metric_value(&text, "pcp_service_worker_ops_total{worker=\"0\"}");
    let w1 = metric_value(&text, "pcp_service_worker_ops_total{worker=\"1\"}");
    // The METRICS op itself renders before its worker's counter bumps,
    // so only the 100 puts (plus the connect-time handshake ops, if any)
    // are guaranteed visible.
    assert!(w0 + w1 >= 100.0, "workers executed {w0}+{w1} ops");
    server.shutdown();
}

/// A malformed frame (valid CRC, undecodable payload) gets an in-order
/// ERR and the connection keeps serving; a corrupt CRC closes the
/// connection.
#[test]
fn bad_request_errs_and_corrupt_frame_closes() {
    let mut server = start(sharded(2), ReactorConfig::default());
    let addr = server.local_addr();

    // Undecodable payloads inside well-formed frames: an unknown opcode,
    // and a retired one (0x08 opened a replication stream once). Each gets
    // its ERR in order, then service continues on the same connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    let garbage: [&[u8]; 2] = [&[0xFF, 0x00, 0x13, 0x37], &[0x08, 0x00, 0x01]];
    for payload in garbage {
        write_frame(&mut stream, payload).unwrap();
    }
    write_frame(&mut stream, &Request::Get(b"k".to_vec()).encode()).unwrap();
    for _ in garbage {
        let payload = read_frame(&mut stream).unwrap().expect("an ERR frame");
        match Response::decode(&payload).unwrap() {
            Response::Err(msg) => assert!(msg.contains("bad request"), "{msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
    }
    let payload = read_frame(&mut stream).unwrap().expect("a response");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::NotFound
    ));

    // Corrupt CRC: the server closes the connection (possibly after
    // an error frame; the stream must end rather than serve garbage).
    let mut corrupt = pcp_shard::proto::encode_frame(&Request::Get(b"k".to_vec()).encode());
    let len = corrupt.len();
    corrupt[len - 1] ^= 0xFF;
    use std::io::Write as _;
    stream.write_all(&corrupt).unwrap();
    let mut rest = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut rest);
    drop(stream);
    server.shutdown();
}

/// Extracts the first sample value for a series (optionally including
/// its label set) from Prometheus text exposition.
fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(series))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("series {series} not found"))
}
