//! End-to-end tests for the reactor front end and the pipelined client:
//! the wire transcript of a pipelined op script against an in-process
//! model, server-side ERR inside a pipelined window, graceful-shutdown
//! drain, backpressure, round-robin assignment of connections to loops, a
//! parked request holding only its own loop, metrics, and malformed or
//! corrupt frames.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test harness: speaks the wire protocol over raw TcpStreams"
)]

use bytes::Bytes;
use pcp_lsm::{CompactionPolicy, Options, WriteBatch};
use pcp_shard::proto::{read_frame, write_frame};
use pcp_shard::{
    BatchItem, HashRouter, KvClient, KvServer, ReactorConfig, Request, Response, ShardedDb,
};
use pcp_storage::{
    Env, EnvRef, FaultEnv, FaultKind, FaultOp, RandomReadFile, SimDevice, SimEnv, WritableFile,
};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

fn sharded(n: usize) -> Arc<ShardedDb> {
    sharded_on((0..n).map(|_| mem_env()).collect())
}

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20))))
}

/// One shard per env, with small memtables and tables.
fn sharded_on(envs: Vec<EnvRef>) -> Arc<ShardedDb> {
    let n = envs.len();
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
/// deletes, a cross-shard batch, and bounded scans. Ops on one key follow
/// each other — PUT k, GET k, DELETE k, GET k — so only execution in send
/// order answers the script as the serial model does.
fn op_script() -> Vec<Request> {
    let key = |i: u32| format!("k{i:04}").into_bytes();
    let mut script: Vec<Request> = (0..40)
        .map(|i| Request::Put(key(i), format!("v{i}").into_bytes()))
        .collect();
    script.extend((0..50).map(|i| Request::Get(key(i))));
    for i in (0..40).step_by(4) {
        script.push(Request::Put(key(i), b"again".to_vec()));
        script.push(Request::Get(key(i)));
        script.push(Request::Delete(key(i)));
        script.push(Request::Get(key(i)));
    }
    script.push(Request::Batch(vec![
        BatchItem::Put(b"batch-a".to_vec(), b"1".to_vec()),
        BatchItem::Put(b"batch-b".to_vec(), b"2".to_vec()),
        BatchItem::Delete(b"k0001".to_vec()),
    ]));
    script.push(Request::Get(b"batch-a".to_vec()));
    script.extend((0..40).map(|i| Request::Get(key(i))));
    script.push(Request::Scan {
        start: b"k".to_vec(),
        limit: 100,
    });
    script.push(Request::Scan {
        start: b"batch".to_vec(),
        limit: 2,
    });
    script
}

/// Runs the whole script as one pipelined window (every request in flight
/// before the first response is read) and returns the encoded response
/// bytes.
fn run_pipelined(addr: std::net::SocketAddr, script: &[Request]) -> Vec<Vec<u8>> {
    let mut client = KvClient::connect(addr).unwrap();
    let tokens: Vec<u64> = script.iter().map(|req| client.send(req).unwrap()).collect();
    assert_eq!(client.pending(), script.len());
    let responses = client.recv_all().unwrap();
    assert_eq!(client.pending(), 0);
    let got_tokens: Vec<u64> = responses.iter().map(|(t, _)| *t).collect();
    assert_eq!(got_tokens, tokens, "responses out of token order");
    responses.into_iter().map(|(_, r)| r.encode()).collect()
}

/// The model: the script applied serially, in-process, to `db`, with the
/// responses the service owes for each op.
fn expected_transcript(db: &ShardedDb, script: &[Request]) -> Vec<Vec<u8>> {
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
        Request::Scan { start, limit } => {
            Response::Entries(db.scan(start, *limit as usize).unwrap())
        }
        other => panic!("not a data op: {other:?}"),
    };
    script.iter().map(|req| apply(req).encode()).collect()
}

/// A pipelined script gets, byte for byte and in request order, the
/// responses the same ops produce when applied serially to an identical
/// engine: a connection's requests execute in send order.
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
#[expect(
    clippy::disallowed_methods,
    reason = "test threads, joined before returning"
)]
fn shutdown_flushes_accepted_pipelined_requests() {
    const N: usize = 200;
    let (gate, parked, release) = Gate::new();
    let gated = GateEnv {
        inner: mem_env(),
        gate: Arc::clone(&gate),
    };
    let db = sharded_on(vec![Arc::new(gated) as EnvRef, mem_env()]);
    // Every key but the last lands on the ungated shard.
    let key = |i: usize| format!("drain{i:05}").into_bytes();
    let mut keys: Vec<Vec<u8>> = (0..)
        .map(key)
        .filter(|k| db.shard_of(k) == 1)
        .take(N - 1)
        .collect();
    keys.push((0..).map(key).find(|k| db.shard_of(k) == 0).unwrap());
    let mut server = start(Arc::clone(&db), ReactorConfig::default());

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    gate.arm();
    for key in &keys {
        client
            .send(&Request::Put(key.clone(), b"v".to_vec()))
            .unwrap();
    }
    // The last op parks in its WAL append. Every op before it on the
    // connection has executed by then, so shutdown races only with the
    // last op and with response delivery, not with acceptance.
    parked.recv().unwrap();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    release.send(()).unwrap();
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), N);
    for (i, (token, resp)) in responses.iter().enumerate() {
        assert_eq!(*token, i as u64);
        assert!(matches!(resp, Response::Ok), "op {i} got {resp:?}");
    }
    shutdown.join().unwrap();
    // The writes are durable in the engine underneath.
    for key in keys.iter().step_by(37).chain(keys.last()) {
        assert_eq!(db.get(key).unwrap(), Some(b"v".to_vec()));
    }
}

/// With a tiny output budget and a client that pipelines gets without
/// reading, the loop stops executing and reading the connection
/// (backpressure) instead of queueing unboundedly — and every response
/// still arrives intact once the client drains: the frames that were
/// already decoded when the pause began run when it lifts.
#[test]
fn backpressure_pauses_reads_under_unread_output() {
    let db = sharded(2);
    // Values big enough that one response overflows the 1 KiB budget.
    for i in 0..8u32 {
        db.put(format!("big{i}").as_bytes(), &vec![b'x'; 4096])
            .unwrap();
    }
    let mut server = start(
        Arc::clone(&db),
        ReactorConfig {
            max_output_bytes: 1024,
            ..ReactorConfig::default()
        },
    );

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let mut tokens = Vec::new();
    for _round in 0..8u32 {
        for i in 0..8u32 {
            tokens.push(
                client
                    .send(&Request::Get(format!("big{i}").into_bytes()))
                    .unwrap(),
            );
        }
    }
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), tokens.len());
    for (token, resp) in responses {
        match resp {
            Response::Value(v) => assert_eq!(v.len(), 4096, "token {token}"),
            other => panic!("token {token}: expected Value, got {other:?}"),
        }
    }
    let text = server.metrics_text();
    assert!(
        metric_value(&text, "pcp_service_backpressure_pauses_total") >= 1.0,
        "no backpressure pause:\n{text}"
    );
    server.shutdown();
}

/// A pause that outlasts the socket buffers lifts on a writable event,
/// and the loop then runs the frames it had already decoded — frames
/// edge-triggered epoll will not report again. One loop serves two
/// connections: by the time it answers the second, it has run the first
/// one's window until the unread 1 MiB responses filled the socket
/// buffers (32 MiB asked for) and left it paused with frames decoded.
#[test]
fn a_pause_outlasting_the_socket_buffers_resumes_the_decoded_frames() {
    const VALUE: usize = 1 << 20;
    let db = sharded(2);
    for i in 0..4u32 {
        db.put(format!("huge{i}").as_bytes(), &vec![b'h'; VALUE])
            .unwrap();
    }
    db.put(b"small", b"v").unwrap();
    let mut server = start(
        Arc::clone(&db),
        ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        },
    );
    let mut unread = KvClient::connect(server.local_addr()).unwrap();
    let mut other = KvClient::connect(server.local_addr()).unwrap();
    for round in 0..32u32 {
        unread
            .send(&Request::Get(format!("huge{}", round % 4).into_bytes()))
            .unwrap();
    }
    assert_eq!(other.get(b"small").unwrap(), Some(b"v".to_vec()));
    for want in 0..32u64 {
        match unread.recv().unwrap() {
            (token, Response::Value(v)) => assert_eq!((token, v.len()), (want, VALUE)),
            (token, other) => panic!("token {token}: expected Value, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Loop 0 deals accepted connections round-robin, and each loop executes
/// the requests of its own connections: with two loops, the first
/// connection's ops are loop 0's and the second's are loop 1's.
#[test]
fn connections_are_dealt_round_robin_to_the_loops() {
    let mut server = start(
        sharded(2),
        ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        },
    );
    let mut first = KvClient::connect(server.local_addr()).unwrap();
    let mut second = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..10u32 {
        first.get(format!("a{i}").as_bytes()).unwrap();
    }
    for i in 0..20u32 {
        second.get(format!("b{i}").as_bytes()).unwrap();
    }
    let text = server.metrics_text();
    let ops = |worker: &str| {
        metric_value(
            &text,
            &format!("pcp_service_worker_ops_total{{worker=\"{worker}\"}}"),
        )
    };
    assert_eq!((ops("0"), ops("1")), (10.0, 20.0));
    server.shutdown();
}

/// Parks the first `.sst` read or `.log` append after [`Gate::arm`]
/// until the test releases it.
#[derive(Debug)]
struct Gate {
    armed: AtomicBool,
    parked: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Gate {
    /// The gate, the signal that a read parked, and the release switch.
    fn new() -> (Arc<Gate>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gate = Arc::new(Gate {
            armed: AtomicBool::new(false),
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        });
        (gate, parked_rx, release_tx)
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Parks the caller until the release if the gate is armed, and
    /// disarms it.
    fn pass(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }
}

#[derive(Debug)]
struct GateEnv {
    inner: EnvRef,
    gate: Arc<Gate>,
}

struct GatedFile {
    inner: Arc<dyn RandomReadFile>,
    gate: Arc<Gate>,
}

impl RandomReadFile for GatedFile {
    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Bytes> {
        self.gate.pass();
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct GatedLog {
    inner: Box<dyn WritableFile>,
    gate: Arc<Gate>,
}

impl WritableFile for GatedLog {
    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.gate.pass();
        self.inner.append(data)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for GateEnv {
    fn create(&self, name: &str) -> std::io::Result<Box<dyn WritableFile>> {
        let inner = self.inner.create(name)?;
        if !name.ends_with(".log") {
            return Ok(inner);
        }
        Ok(Box::new(GatedLog {
            inner,
            gate: Arc::clone(&self.gate),
        }))
    }

    fn open(&self, name: &str) -> std::io::Result<Arc<dyn RandomReadFile>> {
        let inner = self.inner.open(name)?;
        if !name.ends_with(".sst") {
            return Ok(inner);
        }
        Ok(Arc::new(GatedFile {
            inner,
            gate: Arc::clone(&self.gate),
        }))
    }

    fn delete(&self, name: &str) -> std::io::Result<()> {
        self.inner.delete(name)
    }

    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }

    fn size(&self, name: &str) -> std::io::Result<u64> {
        self.inner.size(name)
    }
}

/// A request that blocks holds only its own loop: while connection 0's
/// GET is parked in a table read on loop 0, connection 1's GET and PUT
/// are answered by loop 1; after the release, connection 0's answer
/// arrives.
#[test]
fn a_parked_request_holds_only_its_own_loop() {
    let mem = || Arc::new(SimEnv::new(Arc::new(SimDevice::mem(64 << 20)))) as EnvRef;
    let (gate, parked, release) = Gate::new();
    let gated = GateEnv {
        inner: mem(),
        gate: Arc::clone(&gate),
    };
    let envs = vec![Arc::new(gated) as EnvRef, mem()];
    let router = Arc::new(HashRouter::new(2));
    let db = Arc::new(ShardedDb::open_with_envs(envs, Options::default(), router).unwrap());
    let key = |i: u32| format!("user{i:05}").into_bytes();
    for i in 0..200 {
        db.put(&key(i), b"value").unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let on_shard = |shard: usize| (0..200).map(key).find(|k| db.shard_of(k) == shard).unwrap();
    let (parked_key, free_key) = (on_shard(0), on_shard(1));
    let mut server = start(
        Arc::clone(&db),
        ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        },
    );
    let mut first = KvClient::connect(server.local_addr()).unwrap();
    let mut second = KvClient::connect(server.local_addr()).unwrap();
    // An answer on the second connection means loop 0, which accepts, has
    // dealt both connections before it parks.
    assert_eq!(second.get(&free_key).unwrap(), Some(b"value".to_vec()));

    gate.arm();
    let token = first.send(&Request::Get(parked_key)).unwrap();
    parked.recv().unwrap();
    assert_eq!(second.get(&free_key).unwrap(), Some(b"value".to_vec()));
    second.put(&free_key, b"newer").unwrap();
    assert_eq!(second.get(&free_key).unwrap(), Some(b"newer".to_vec()));

    release.send(()).unwrap();
    let answer = first.recv().unwrap();
    assert_eq!(answer, (token, Response::Value(b"value".to_vec())));
    server.shutdown();
}

/// The reactor exports its instrumentation contract: connection gauge,
/// accept/wakeup/pause counters, per-loop ops and busy counters, and the
/// output-queue histogram (OBSERVABILITY.md).
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
        "pcp_service_active_connections",
        "pcp_service_accepts_total",
        "pcp_service_reactor_wakeups_total",
        "pcp_service_backpressure_pauses_total",
        "pcp_service_output_queue_bytes",
    ] {
        assert!(text.contains(series), "missing {series} in exposition");
    }
    assert!(
        text.contains("pcp_service_worker_ops_total{worker=\"0\"}")
            && text.contains("pcp_service_worker_ops_total{worker=\"1\"}"),
        "missing per-loop ops counters"
    );
    assert!(text.contains("pcp_service_worker_busy_nanoseconds_total"));
    assert!(metric_value(&text, "pcp_service_accepts_total") >= 1.0);
    assert!(metric_value(&text, "pcp_service_active_connections") >= 1.0);
    let w0 = metric_value(&text, "pcp_service_worker_ops_total{worker=\"0\"}");
    let w1 = metric_value(&text, "pcp_service_worker_ops_total{worker=\"1\"}");
    // The METRICS op itself renders before its loop's counter bumps, so
    // only the 100 puts are guaranteed visible.
    assert!(w0 + w1 >= 100.0, "loops executed {w0}+{w1} ops");
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
