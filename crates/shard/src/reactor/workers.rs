//! Fixed worker pool executing decoded requests against the engine.
//!
//! The reactor thread never touches the `ShardedDb`: it decodes frames
//! into [`Job`]s, enqueues them here, and workers execute them through
//! `crate::server::ServerShared::handle`, the one op dispatcher.
//! Completions flow back through a mutex-guarded vector; the completing
//! worker nudges the reactor's wake pipe so the event loop collects them
//! promptly even when no socket is otherwise ready.

use crate::server::ServerShared;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One decoded request bound for a worker.
pub struct Job {
    /// Connection token the response routes back to.
    pub conn: u64,
    /// Per-connection sequence (positional response ordering).
    pub seq: u64,
    /// The decoded request.
    pub req: crate::proto::Request,
}

/// One finished response headed back to the reactor.
pub struct Completion {
    /// Connection token.
    pub conn: u64,
    /// Per-connection sequence.
    pub seq: u64,
    /// Fully encoded wire frame (length prefix + payload + CRC).
    pub frame: Vec<u8>,
}

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Per-worker instrumentation, exported as labeled series.
pub struct WorkerStats {
    /// Ops executed by this worker.
    pub ops: Arc<AtomicU64>,
    /// Nanoseconds spent executing ops (busy time).
    pub busy_nanos: Arc<AtomicU64>,
}

/// Handle for waking the reactor's event loop from another thread.
///
/// A byte written to the wake pipe makes the registered read end ready;
/// the payload is meaningless and the pipe filling up is fine — any
/// pending byte already guarantees a wakeup.
pub struct Waker {
    pipe: UnixStream,
}

impl Waker {
    /// Wraps the write end of the reactor's wake pipe (nonblocking).
    pub fn new(pipe: UnixStream) -> Waker {
        Waker { pipe }
    }

    /// Nudges the event loop. Never blocks; a full pipe is success.
    pub fn wake(&self) {
        let _ = (&self.pipe).write(&[1u8]);
    }

    /// A second handle to the same pipe.
    pub fn try_clone(&self) -> std::io::Result<Waker> {
        Ok(Waker {
            pipe: self.pipe.try_clone()?,
        })
    }
}

/// The fixed pool. Dropping it (or calling [`WorkerPool::shutdown`])
/// finishes queued jobs and joins every thread.
pub struct WorkerPool {
    queue: Arc<Queue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    stats: Vec<WorkerStats>,
}

impl WorkerPool {
    /// Spawns `workers` threads executing against `shared`, delivering
    /// completions and waking the reactor through `waker`.
    pub(crate) fn start(
        workers: usize,
        shared: Arc<ServerShared>,
        waker: Waker,
    ) -> std::io::Result<WorkerPool> {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::with_capacity(workers);
        let mut stats = Vec::with_capacity(workers);
        for i in 0..workers {
            let ops = Arc::new(AtomicU64::new(0));
            let busy = Arc::new(AtomicU64::new(0));
            stats.push(WorkerStats {
                ops: Arc::clone(&ops),
                busy_nanos: Arc::clone(&busy),
            });
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            let shared = Arc::clone(&shared);
            let waker = waker.try_clone()?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pcp-kv-worker-{i}"))
                    .spawn(move || worker_loop(queue, completions, shared, waker, ops, busy))?,
            );
        }
        Ok(WorkerPool {
            queue,
            completions,
            threads,
            stats,
        })
    }

    /// Enqueues a job; returns the queue depth observed at enqueue (for
    /// the dispatch-depth histogram).
    pub fn dispatch(&self, job: Job) -> usize {
        let mut jobs = self.queue.jobs.lock();
        jobs.push_back(job);
        let depth = jobs.len();
        drop(jobs);
        self.queue.available.notify_one();
        depth
    }

    /// Enqueues a batch under one lock acquisition — the per-readable-
    /// event path, amortizing lock and condvar traffic across a pipelined
    /// window. Returns the queue depth after the batch lands.
    pub fn dispatch_batch(&self, batch: &mut Vec<Job>) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let woken = batch.len();
        let mut jobs = self.queue.jobs.lock();
        jobs.extend(batch.drain(..));
        let depth = jobs.len();
        drop(jobs);
        if woken == 1 {
            self.queue.available.notify_one();
        } else {
            self.queue.available.notify_all();
        }
        depth
    }

    /// Takes every completion delivered since the last call.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }

    /// Per-worker counters, indexed by worker id.
    pub fn stats(&self) -> &[WorkerStats] {
        &self.stats
    }

    /// Finishes queued jobs and joins the threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.queue.shutdown.store(true, Ordering::SeqCst);
        self.queue.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    queue: Arc<Queue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    shared: Arc<ServerShared>,
    waker: Waker,
    ops: Arc<AtomicU64>,
    busy: Arc<AtomicU64>,
) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                // Drain-then-exit: shutdown only releases a worker once the
                // queue is empty, so accepted ops always get answers.
                if queue.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue.available.wait(&mut jobs);
            }
        };
        let t0 = Instant::now();
        let response = shared.handle(job.req);
        let frame = crate::proto::encode_frame(&response.encode());
        busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ops.fetch_add(1, Ordering::Relaxed);
        // One wake per completion *burst*, not per completion: if the
        // vector already holds undelivered completions, the wake byte for
        // the first of them is still pending (or the reactor is already
        // past its pipe drain and will take this push in the same
        // iteration), so another write(2) buys nothing.
        let was_empty = {
            let mut c = completions.lock();
            let was_empty = c.is_empty();
            c.push(Completion {
                conn: job.conn,
                seq: job.seq,
                frame,
            });
            was_empty
        };
        if was_empty {
            waker.wake();
        }
    }
}
