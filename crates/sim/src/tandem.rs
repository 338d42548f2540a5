//! Generic tandem-pipeline discrete-event engine.
//!
//! Jobs 0..n flow through stages 0..m in order. Each stage has `servers`
//! parallel servers and a finite input buffer; a job that finishes service
//! but finds the next stage's buffer full *blocks its server*
//! (blocking-after-service, like a thread stuck on a bounded channel
//! send). A stage may be `in_order`: it only starts job j once jobs
//! 0..j-1 have started there (the write stage's resequencer).
//!
//! Time is u64 nanoseconds; service times are deterministic, so runs are
//! exactly reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, BTreeSet, VecDeque};
use std::time::Duration;

/// One pipeline stage.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Display name ("read", "compute", "write").
    pub name: &'static str,
    /// Parallel servers.
    pub servers: usize,
    /// Input buffer capacity (jobs waiting, excluding those in service).
    /// `usize::MAX` means unbounded (e.g. before a resequencer).
    pub buffer: usize,
    /// Serve jobs strictly in index order.
    pub in_order: bool,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct TandemReport {
    /// Completion time of the last job leaving the last stage.
    pub makespan: Duration,
    /// Per-stage total service time (busy time, excluding blocking).
    pub stage_busy: Vec<Duration>,
    /// Per-stage total time servers spent blocked on a full downstream
    /// buffer.
    pub stage_blocked: Vec<Duration>,
    /// Per-job completion times.
    pub completions: Vec<Duration>,
}

impl TandemReport {
    /// Utilization of stage `s`: busy time / (servers × makespan).
    pub fn utilization(&self, s: usize, servers: usize) -> f64 {
        let total = self.makespan.as_secs_f64() * servers as f64;
        if total > 0.0 {
            self.stage_busy[s].as_secs_f64() / total
        } else {
            0.0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Waiting,
    InService,
    Blocked,
    Departed,
}

struct Stage {
    spec: StageSpec,
    queue: VecDeque<usize>,
    free_servers: usize,
    /// Jobs that finished service but can't move downstream.
    blocked: BTreeSet<usize>,
    /// Next index an in-order stage may start.
    next_index: usize,
    busy_ns: u64,
    blocked_since: Vec<(usize, u64)>,
    blocked_ns: u64,
}

/// Runs the simulation. `costs[j][s]` is job j's service time at stage s.
pub fn simulate_tandem(stages: &[StageSpec], costs: &[Vec<Duration>]) -> TandemReport {
    assert!(!stages.is_empty());
    let n = costs.len();
    for c in costs {
        assert_eq!(c.len(), stages.len(), "cost row width != stage count");
    }
    let mut st: Vec<Stage> = stages
        .iter()
        .map(|s| Stage {
            spec: s.clone(),
            queue: VecDeque::new(),
            free_servers: s.servers,
            blocked: BTreeSet::new(),
            next_index: 0,
            busy_ns: 0,
            blocked_since: Vec::new(),
            blocked_ns: 0,
        })
        .collect();
    let mut job_state: Vec<Vec<JobState>> = vec![vec![JobState::Waiting; stages.len()]; n];

    // Source: all jobs queued at stage 0 (unbounded source buffer).
    for j in 0..n {
        st[0].queue.push_back(j);
    }

    // Event heap: (time_ns, job, stage) service completions.
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut completions = vec![0u64; n];
    let mut now = 0u64;

    // Starts every job that can start at `now`, returns true on progress.
    fn try_starts(
        now: u64,
        st: &mut [Stage],
        job_state: &mut [Vec<JobState>],
        costs: &[Vec<Duration>],
        heap: &mut BinaryHeap<Reverse<(u64, usize, usize)>>,
    ) {
        loop {
            let mut progressed = false;
            for s in 0..st.len() {
                // Start services.
                while st[s].free_servers > 0 {
                    // An in-order stage serves its next index, which may be
                    // deeper in the queue (arrived out of order); any other
                    // stage serves the front.
                    let want = st[s].next_index;
                    let pos = if st[s].spec.in_order {
                        st[s].queue.iter().position(|&j| j == want)
                    } else {
                        Some(0)
                    };
                    let Some(j) = pos.and_then(|pos| st[s].queue.remove(pos)) else {
                        break;
                    };
                    start_service(now, s, j, st, job_state, costs, heap);
                    progressed = true;
                }
                // Unblock upstream jobs into freed buffer space.
                if s > 0 {
                    while st[s].queue.len() < st[s].spec.buffer {
                        let Some(j) = st[s - 1].blocked.pop_first() else {
                            break;
                        };
                        // Account blocked time.
                        if let Some(pos) = st[s - 1]
                            .blocked_since
                            .iter()
                            .position(|&(job, _)| job == j)
                        {
                            let (_, since) = st[s - 1].blocked_since.remove(pos);
                            st[s - 1].blocked_ns += now - since;
                        }
                        st[s - 1].free_servers += 1;
                        job_state[j][s - 1] = JobState::Departed;
                        st[s].queue.push_back(j);
                        job_state[j][s] = JobState::Waiting;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn start_service(
        now: u64,
        s: usize,
        j: usize,
        st: &mut [Stage],
        job_state: &mut [Vec<JobState>],
        costs: &[Vec<Duration>],
        heap: &mut BinaryHeap<Reverse<(u64, usize, usize)>>,
    ) {
        st[s].free_servers -= 1;
        if st[s].spec.in_order {
            debug_assert_eq!(j, st[s].next_index);
            st[s].next_index += 1;
        }
        job_state[j][s] = JobState::InService;
        let t = costs[j][s].as_nanos() as u64;
        st[s].busy_ns += t;
        heap.push(Reverse((now + t, j, s)));
    }

    try_starts(now, &mut st, &mut job_state, costs, &mut heap);

    while let Some(Reverse((t, j, s))) = heap.pop() {
        now = t;
        // Job j finished service at stage s.
        if s + 1 == st.len() {
            // Leaves the pipeline.
            st[s].free_servers += 1;
            job_state[j][s] = JobState::Departed;
            completions[j] = now;
        } else if st[s + 1].queue.len() < st[s + 1].spec.buffer {
            st[s].free_servers += 1;
            job_state[j][s] = JobState::Departed;
            st[s + 1].queue.push_back(j);
            job_state[j][s + 1] = JobState::Waiting;
        } else {
            // Downstream full: hold the server.
            st[s].blocked.insert(j);
            st[s].blocked_since.push((j, now));
            job_state[j][s] = JobState::Blocked;
        }
        try_starts(now, &mut st, &mut job_state, costs, &mut heap);
    }

    TandemReport {
        makespan: Duration::from_nanos(now),
        stage_busy: st.iter().map(|s| Duration::from_nanos(s.busy_ns)).collect(),
        stage_blocked: st
            .iter()
            .map(|s| Duration::from_nanos(s.blocked_ns))
            .collect(),
        completions: completions
            .into_iter()
            .map(Duration::from_nanos)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn uniform_costs(n: usize, per_stage: &[u64]) -> Vec<Vec<Duration>> {
        (0..n)
            .map(|_| per_stage.iter().map(|&v| ms(v)).collect())
            .collect()
    }

    fn stages3(servers: [usize; 3], buffer: usize) -> Vec<StageSpec> {
        vec![
            StageSpec {
                name: "read",
                servers: servers[0],
                buffer: usize::MAX,
                in_order: false,
            },
            StageSpec {
                name: "compute",
                servers: servers[1],
                buffer,
                in_order: false,
            },
            StageSpec {
                name: "write",
                servers: servers[2],
                buffer: usize::MAX,
                in_order: true,
            },
        ]
    }

    #[test]
    fn single_job_is_the_sum_of_stages() {
        let r = simulate_tandem(&stages3([1, 1, 1], 4), &uniform_costs(1, &[10, 20, 30]));
        assert_eq!(r.makespan, ms(60));
        assert_eq!(r.completions[0], ms(60));
    }

    #[test]
    fn steady_state_rate_is_the_bottleneck_stage() {
        // 100 jobs, bottleneck = compute at 20ms → makespan ≈ fill + 100*20.
        let n = 100;
        let r = simulate_tandem(&stages3([1, 1, 1], 4), &uniform_costs(n, &[10, 20, 5]));
        let lower = ms(20 * n as u64);
        let upper = ms(20 * n as u64 + 35); // + fill/drain
        assert!(r.makespan >= lower, "{:?} < {lower:?}", r.makespan);
        assert!(r.makespan <= upper, "{:?} > {upper:?}", r.makespan);
    }

    #[test]
    fn pipeline_beats_sequential() {
        let n = 50;
        let costs = uniform_costs(n, &[10, 10, 10]);
        let pipe = simulate_tandem(&stages3([1, 1, 1], 4), &costs);
        let sequential_ms = 30 * n as u64;
        assert!(
            pipe.makespan < ms(sequential_ms * 2 / 3),
            "pipeline {:?} vs sequential {sequential_ms}ms",
            pipe.makespan
        );
    }

    #[test]
    fn extra_compute_servers_speed_up_cpu_bound_pipelines() {
        let n = 60;
        let costs = uniform_costs(n, &[5, 40, 5]);
        let k1 = simulate_tandem(&stages3([1, 1, 1], 4), &costs);
        let k4 = simulate_tandem(&stages3([1, 4, 1], 4), &costs);
        let k16 = simulate_tandem(&stages3([1, 16, 1], 4), &costs);
        assert!(k4.makespan < k1.makespan.mul_f64(0.35));
        // Saturation: with compute/k below max I/O the gain stops.
        assert!(k16.makespan >= ms(5 * n as u64), "I/O-bound floor");
    }

    #[test]
    fn bounded_buffer_blocks_upstream() {
        // Slow compute, fast read, buffer 1: readers must block.
        let n = 20;
        let costs = uniform_costs(n, &[1, 50, 1]);
        let r = simulate_tandem(&stages3([1, 1, 1], 1), &costs);
        assert!(
            r.stage_blocked[0] > Duration::ZERO,
            "read stage must experience blocking"
        );
        // Throughput still bottleneck-bound.
        assert!(r.makespan >= ms(50 * n as u64));
    }

    #[test]
    fn in_order_stage_resequences_out_of_order_arrivals() {
        // Two compute servers with alternating slow/fast jobs: evens are
        // slow, odds fast, so odd jobs reach the write stage early. The
        // write stage must still process 0,1,2,… in order.
        let n = 10;
        let costs: Vec<Vec<Duration>> = (0..n)
            .map(|j| {
                vec![
                    ms(1),
                    if j % 2 == 0 { ms(30) } else { ms(5) },
                    ms(1),
                ]
            })
            .collect();
        let r = simulate_tandem(&stages3([1, 2, 1], usize::MAX), &costs);
        // Completion times must be strictly increasing in job index
        // (in-order final stage with equal write costs).
        for w in r.completions.windows(2) {
            assert!(w[0] < w[1], "write order violated: {:?}", r.completions);
        }
    }

    #[test]
    fn utilization_sums_are_sane() {
        let n = 40;
        let costs = uniform_costs(n, &[10, 20, 10]);
        let stages = stages3([1, 1, 1], 4);
        let r = simulate_tandem(&stages, &costs);
        for (s, spec) in stages.iter().enumerate() {
            let u = r.utilization(s, spec.servers);
            assert!((0.0..=1.0 + 1e-9).contains(&u), "stage {s} utilization {u}");
        }
        // Bottleneck stage approaches full utilization.
        assert!(r.utilization(1, 1) > 0.9);
    }

    #[test]
    fn zero_jobs_zero_makespan() {
        let r = simulate_tandem(&stages3([1, 1, 1], 4), &[]);
        assert_eq!(r.makespan, Duration::ZERO);
    }

    #[test]
    fn heterogeneous_jobs_accumulate_busy_time_exactly() {
        let costs: Vec<Vec<Duration>> = vec![
            vec![ms(3), ms(7), ms(2)],
            vec![ms(5), ms(1), ms(9)],
            vec![ms(2), ms(2), ms(2)],
        ];
        let r = simulate_tandem(&stages3([1, 1, 1], 4), &costs);
        assert_eq!(r.stage_busy[0], ms(10));
        assert_eq!(r.stage_busy[1], ms(10));
        assert_eq!(r.stage_busy[2], ms(13));
        assert!(r.makespan >= ms(13));
        assert!(r.makespan <= ms(3 + 7 + 2 + 10 + 13));
    }
}
