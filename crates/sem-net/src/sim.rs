//! Discrete-event simulation of a SEM deployment under load.
//!
//! The TCP daemon ([`crate::tcp`]) measures what *this* machine
//! does; the simulator answers deployment questions the paper's §4
//! raises but 2003 hardware couldn't explore: what end-to-end latency
//! do users see for mediated operations when `N` clients share one SEM
//! with `w` workers over a given link?
//!
//! The model is a classic event-driven M/D/c-style queue:
//!
//! * clients issue token requests with exponential-ish think times
//!   (deterministic low-discrepancy spacing, reproducible);
//! * each request pays `link.message_time(request_bits)` to reach the
//!   SEM, waits for one of `w` workers, holds a worker for the
//!   deterministic service time (one pairing / half-exponentiation),
//!   and pays the return-link time;
//! * the user-side leg runs concurrently (the §2/§4 "in parallel"
//!   remark) and the operation completes at
//!   `max(sem path, user compute) + combine`.
//!
//! Outputs are latency percentiles and worker utilization — the
//! capacity-planning numbers for E12.

use crate::audit::Histogram;
use crate::latency::LinkModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Workload/service description for one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// SEM worker threads.
    pub workers: usize,
    /// Mean think time between a client's requests.
    pub think_time: Duration,
    /// SEM-side compute per request (one pairing).
    pub sem_compute: Duration,
    /// User-side compute per request (runs in parallel with the SEM
    /// path).
    pub user_compute: Duration,
    /// Final user-side combination step.
    pub combine_compute: Duration,
    /// Request size in bits (user → SEM).
    pub request_bits: usize,
    /// Response size in bits (SEM → user).
    pub response_bits: usize,
    /// The network link model.
    pub link: LinkModel,
}

impl SimConfig {
    /// A mediated-IBE-shaped workload over the given link.
    pub fn mediated_ibe(clients: usize, workers: usize, link: LinkModel) -> Self {
        SimConfig {
            clients,
            requests_per_client: 20,
            workers,
            think_time: Duration::from_millis(200),
            sem_compute: Duration::from_millis(4),
            user_compute: Duration::from_millis(6),
            combine_compute: Duration::from_micros(200),
            request_bits: 648,
            response_bits: 1024,
            link,
        }
    }
}

/// Number of buckets in [`SimResult::latency_hist`]: powers of two
/// from 1 µs up to ~2 s, plus the overflow bucket (mirrors the live
/// server's latency histograms, so simulated and measured
/// distributions are directly comparable).
const SIM_LATENCY_BUCKETS: usize = 22;

/// Latency statistics over all completed operations.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completed operations.
    pub completed: usize,
    /// Median end-to-end latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// Worst observed latency.
    pub max: Duration,
    /// Fraction of total worker time spent serving.
    pub worker_utilization: f64,
    /// Total simulated wall time.
    pub makespan: Duration,
    /// Full end-to-end latency distribution (microseconds), in the
    /// same log-spaced shape the live daemon exports.
    pub latency_hist: Histogram,
}

/// One pending simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A request arrives at the SEM queue (client, issue time).
    Arrival {
        at_ns: u64,
        client: usize,
        issued_ns: u64,
    },
    /// A worker finishes its current job.
    WorkerFree { at_ns: u64, worker: usize },
}

impl Event {
    fn at(&self) -> u64 {
        match *self {
            Event::Arrival { at_ns, .. } => at_ns,
            Event::WorkerFree { at_ns, .. } => at_ns,
        }
    }

    /// Total order keyed on simulated time (WorkerFree before Arrival at
    /// equal instants, so capacity frees before new work queues).
    fn key(&self) -> (u64, u8, u64) {
        match *self {
            Event::WorkerFree { at_ns, worker } => (at_ns, 0, worker as u64),
            Event::Arrival { at_ns, client, .. } => (at_ns, 1, client as u64),
        }
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic think-time jitter: a Weyl sequence in `[0.5, 1.5)` of
/// the mean, so runs are reproducible without an RNG dependency.
fn jitter_factor(step: usize) -> f64 {
    const ALPHA: f64 = 0.618_033_988_749_894_9; // golden-ratio fraction
    0.5 + ((step as f64 * ALPHA) % 1.0)
}

/// Runs the simulation, returning latency statistics.
///
/// # Panics
///
/// Panics if `clients == 0` or `workers == 0`.
pub fn run(config: &SimConfig) -> SimResult {
    assert!(config.clients > 0, "need at least one client");
    assert!(config.workers > 0, "need at least one worker");
    let up_ns = |d: Duration| d.as_nanos() as u64;
    let request_net = up_ns(config.link.message_time(config.request_bits));
    let response_net = up_ns(config.link.message_time(config.response_bits));
    let service = up_ns(config.sem_compute);
    let user_leg = up_ns(config.user_compute);
    let combine = up_ns(config.combine_compute);

    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    // Seed: every client issues its first request after one think time.
    for client in 0..config.clients {
        let think = (up_ns(config.think_time) as f64 * jitter_factor(client)) as u64;
        events.push(Reverse(Event::Arrival {
            at_ns: think + request_net,
            client,
            issued_ns: think,
        }));
    }

    let mut queue: Vec<(usize, u64)> = Vec::new(); // (client, issued) waiting for a worker
    let mut workers_free = config.workers;
    let mut latencies: Vec<u64> = Vec::new();
    let mut busy_ns: u64 = 0;
    let mut requests_sent = vec![1usize; config.clients];
    let mut last_event_ns = 0u64;

    while let Some(Reverse(event)) = events.pop() {
        let now = event.at();
        last_event_ns = last_event_ns.max(now);
        match event {
            Event::Arrival {
                client, issued_ns, ..
            } => {
                queue.push((client, issued_ns));
            }
            Event::WorkerFree { .. } => {
                workers_free += 1;
            }
        }
        // Dispatch as long as both a worker and a job are available.
        while workers_free > 0 && !queue.is_empty() {
            let (client, issued_ns) = queue.remove(0);
            workers_free -= 1;
            busy_ns += service;
            let done_at_sem = now + service;
            events.push(Reverse(Event::WorkerFree {
                at_ns: done_at_sem,
                worker: 0,
            }));
            // Complete the operation on the user side.
            let sem_path = done_at_sem + response_net - issued_ns;
            let total = sem_path.max(user_leg) + combine;
            latencies.push(total);
            // Schedule the client's next request.
            if requests_sent[client] < config.requests_per_client {
                requests_sent[client] += 1;
                let step = client * config.requests_per_client + requests_sent[client];
                let think = (up_ns(config.think_time) as f64 * jitter_factor(step)) as u64;
                let next_issue = issued_ns + total + think;
                events.push(Reverse(Event::Arrival {
                    at_ns: next_issue + request_net,
                    client,
                    issued_ns: next_issue,
                }));
            }
        }
    }

    latencies.sort_unstable();
    // A configuration with zero requests completes zero operations;
    // report zero latencies rather than panicking on an empty list.
    let pick = |q: f64| -> Duration {
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        Duration::from_nanos(latencies.get(idx).copied().unwrap_or(0))
    };
    let mut latency_hist = Histogram::new(SIM_LATENCY_BUCKETS);
    for &ns in &latencies {
        latency_hist.observe(ns / 1_000);
    }
    let total_worker_ns = last_event_ns.max(1) * config.workers as u64;
    SimResult {
        completed: latencies.len(),
        p50: pick(0.5),
        p95: pick(0.95),
        max: Duration::from_nanos(latencies.last().copied().unwrap_or(0)),
        worker_utilization: busy_ns as f64 / total_worker_ns as f64,
        makespan: Duration::from_nanos(last_event_ns),
        latency_hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> SimConfig {
        SimConfig::mediated_ibe(4, 2, LinkModel::lan())
    }

    #[test]
    fn all_requests_complete() {
        let config = base_config();
        let result = run(&config);
        assert_eq!(
            result.completed,
            config.clients * config.requests_per_client
        );
        assert!(result.p50 <= result.p95);
        assert!(result.p95 <= result.max);
        assert!(result.worker_utilization > 0.0 && result.worker_utilization <= 1.0);
        // Every completed operation is in the histogram, and its
        // bucket-resolution median brackets the exact one.
        assert_eq!(result.latency_hist.count() as usize, result.completed);
        assert!(
            Duration::from_micros(result.latency_hist.quantile(0.5)) * 2 >= result.p50,
            "histogram median {}µs far below exact {:?}",
            result.latency_hist.quantile(0.5),
            result.p50
        );
    }

    #[test]
    fn deterministic_runs() {
        let config = base_config();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p95, b.p95);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn latency_bounded_below_by_physics() {
        // No operation can beat network + service + combine.
        let config = base_config();
        let result = run(&config);
        let floor = config.link.message_time(config.request_bits)
            + config.sem_compute
            + config.link.message_time(config.response_bits)
            + config.combine_compute;
        assert!(result.p50 >= floor.min(config.user_compute + config.combine_compute));
    }

    #[test]
    fn more_workers_do_not_hurt_under_contention() {
        // Saturate: many clients, no think time.
        let mut congested = SimConfig::mediated_ibe(32, 1, LinkModel::lan());
        congested.think_time = Duration::ZERO;
        let one = run(&congested);
        congested.workers = 8;
        let eight = run(&congested);
        assert!(
            eight.p95 <= one.p95,
            "8 workers {:?} vs 1 worker {:?}",
            eight.p95,
            one.p95
        );
        // And utilization per worker drops.
        assert!(eight.worker_utilization <= one.worker_utilization);
    }

    #[test]
    fn slow_links_dominate_latency() {
        let lan = run(&SimConfig::mediated_ibe(2, 2, LinkModel::lan()));
        let wan = run(&SimConfig::mediated_ibe(2, 2, LinkModel::wan()));
        assert!(wan.p50 > lan.p50);
    }

    #[test]
    fn single_client_sees_unloaded_latency() {
        let config = SimConfig::mediated_ibe(1, 4, LinkModel::lan());
        let result = run(&config);
        // Unloaded: p95 ≈ p50 (no queueing).
        let ratio = result.p95.as_secs_f64() / result.p50.as_secs_f64();
        assert!(ratio < 1.2, "queueing observed without load: ratio {ratio}");
    }
}
