//! The timed phase of the two single-server workloads, and how replies
//! are judged and turned into metrics.
//!
//! Timed phase = an open-loop phase (Poisson arrivals at a fixed rate
//! on one connection; latency from each request's due time) followed by
//! a saturation phase (two pipelined connections with a fixed in-flight
//! window; throughput). The revocation churn runs during the open loop,
//! so revocation latency is measured at the fixed offered load.
//! The traced run adds an untraced open-loop pass first (the reference
//! for `trace.overhead_frac`) and reads the stats op at each phase
//! boundary.

use crate::common::{self, ChurnEvent, Report, Run, WINDOW};
use crate::inputs::{self, tag, Ask, Revocation, Stream};
use crate::loadgen::{self, Exchange, OpenLoop, Saturation};
use crate::probe::{ClusterStats, ProbeResult};
use crate::stats::{Samples, P50, P99};
use crate::trace::Tracer;
use rand::RngCore;
use sempair_core::bf_ibe::IbePublicParams;
use sempair_net::audit::MetricsSnapshot;
use sempair_net::proto::{Op, Status};
use sempair_net::scenario::ident;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Head start between planning a phase and its first due time.
const LEAD: Duration = Duration::from_millis(20);
/// Length of the traced run's untraced reference pass.
pub const REFERENCE: Duration = Duration::from_secs(5);
/// Request identifiers of replayed requests start here, clear of the
/// timed phase's.
pub const REPLAY_BASE: u64 = 1_000_000;
/// A run whose generator sent its p99 request later than this after the
/// due time measured the generator, not the server: it is refused.
pub const LATE_LIMIT_MS: f64 = 25.0;

/// Connection sessions: the server's idempotency window is keyed by
/// `(session, request id)`, so every pass needs its own session.
const SESSION_OPEN: u64 = 1;
const SESSION_REFERENCE: u64 = 2;
const SESSION_SATURATION: u64 = 10;

pub fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(24 * 3600)
}

/// The seeded traffic of a timed phase.
pub struct Plan {
    kind: Op,
    ranks: usize,
    seed: u64,
    half: Duration,
    churn_period: Duration,
    u_pool: usize,
    pub offsets: Vec<Duration>,
    pub open_asks: Vec<Ask>,
}

impl Plan {
    pub fn new(run: &Run, kind: Op, ranks: usize, rate: f64, revocations: usize) -> Self {
        let half = run.half();
        let offsets = inputs::poisson_offsets(run.seed, rate, half);
        let mut stream = Stream::new(run.seed, 0, kind, ranks, run.scale.u_pool);
        let open_asks = offsets.iter().map(|_| stream.next_ask()).collect();
        Plan {
            kind,
            ranks,
            seed: run.seed,
            half,
            churn_period: half / revocations as u32,
            u_pool: run.scale.u_pool,
            offsets,
            open_asks,
        }
    }

    /// The churn schedule over the open-loop phase.
    pub fn churn(&self, targets: &[String]) -> Vec<Revocation> {
        inputs::churn_schedule(self.seed, targets, self.churn_period, self.half)
    }

    fn frames(&self, session: u64, frame_of: &impl Fn(u64, u64, &Ask) -> Vec<u8>) -> Vec<Vec<u8>> {
        self.open_asks
            .iter()
            .enumerate()
            .map(|(i, ask)| frame_of(session, i as u64, ask))
            .collect()
    }
}

/// Everything the timed phase observed.
pub struct Timed {
    /// Time zero of the run's spans.
    pub origin: Instant,
    pub open_asks: Vec<Ask>,
    pub open: OpenLoop,
    pub saturation: Vec<(Vec<Ask>, Saturation)>,
    pub sat_start: Instant,
    pub sat_end: Instant,
    pub churn: Vec<ChurnEvent>,
    pub offered_rps: f64,
    /// Traced run only: open-loop p50 of the untraced reference pass,
    /// and stats reads before, between and after the two phases.
    pub reference_p50_ms: Option<f64>,
    pub snapshots: Option<[MetricsSnapshot; 3]>,
}

fn io(e: std::io::Error) -> String {
    format!("load generator: {e}")
}

/// Open-loop latencies from the due time, in milliseconds, of the
/// requests that got any reply.
fn replied_latencies(open: &OpenLoop) -> Samples {
    let mut samples = Samples::default();
    for (due, x) in open.due.iter().zip(&open.exchanges) {
        if let Some((at, _)) = &x.reply {
            samples.push(common::ms(at.saturating_duration_since(*due)));
        }
    }
    samples
}

/// Runs the timed phase against the server at `addrs[0]` (`addrs` are
/// the servers whose stats the traced run reads). `frame_of(session,
/// i, ask)` encodes request `i`; `apply(id, revoke)` is the churn's
/// admin call.
pub fn run_timed(
    run: &Run,
    plan: &Plan,
    schedule: &[Revocation],
    addrs: &[SocketAddr],
    params: &IbePublicParams,
    frame_of: impl Fn(u64, u64, &Ask) -> Vec<u8> + Sync,
    mut apply: impl FnMut(&str, bool) + Send,
) -> Result<Timed, String> {
    let addr = addrs[0];
    let origin = Instant::now();
    let stats = || -> Result<Option<MetricsSnapshot>, String> {
        if run.trace {
            common::read_stats(addrs, params).map(Some)
        } else {
            Ok(None)
        }
    };

    let mut reference_p50_ms = None;
    if run.trace {
        let n = plan.offsets.partition_point(|o| *o < REFERENCE);
        let frames = plan.frames(SESSION_REFERENCE, &frame_of);
        let open_schedule: Vec<Revocation> = schedule
            .iter()
            .filter(|r| r.at < REFERENCE)
            .cloned()
            .collect();
        let start = Instant::now() + LEAD;
        let (open, _) = common::with_churn(start, &open_schedule, &mut apply, || {
            loadgen::open_loop(addr, start, &plan.offsets[..n], &frames[..n])
        });
        let mut samples = replied_latencies(&open.map_err(io)?);
        reference_p50_ms = Some(samples.percentile(P50, "reference open loop")?);
    }

    let snap0 = stats()?;
    let frames = plan.frames(SESSION_OPEN, &frame_of);
    let start = Instant::now() + LEAD;
    let (open, churn) = common::with_churn(start, schedule, &mut apply, || {
        loadgen::open_loop(addr, start, &plan.offsets, &frames)
    });
    let open = open.map_err(io)?;
    let snap1 = stats()?;
    let sat_start = Instant::now();
    let sat_end = sat_start + plan.half;
    let saturation = saturate_two(plan, &frame_of, addr, sat_end)?;
    let snap2 = stats()?;
    let snapshots = match (snap0, snap1, snap2) {
        (Some(a), Some(b), Some(c)) => Some([a, b, c]),
        _ => None,
    };
    Ok(Timed {
        origin,
        open_asks: plan.open_asks.clone(),
        open,
        saturation,
        sat_start,
        sat_end,
        churn,
        offered_rps: plan.offsets.len() as f64 / plan.half.as_secs_f64(),
        reference_p50_ms,
        snapshots,
    })
}

/// The saturation phase: two connections, one thread each, each with
/// its own seeded stream.
fn saturate_two(
    plan: &Plan,
    frame_of: &(impl Fn(u64, u64, &Ask) -> Vec<u8> + Sync),
    addr: SocketAddr,
    end: Instant,
) -> Result<Vec<(Vec<Ask>, Saturation)>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream =
                        Stream::new(plan.seed, c + 1, plan.kind, plan.ranks, plan.u_pool);
                    let mut asks = Vec::new();
                    let saturation = loadgen::saturate(addr, WINDOW, end, |i| {
                        let ask = stream.next_ask();
                        let frame = frame_of(SESSION_SATURATION + c, i, &ask);
                        asks.push(ask);
                        Some(frame)
                    });
                    saturation.map(|s| (asks, s))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread").map_err(io))
            .collect()
    })
}

/// Counts over every request of the timed phase.
#[derive(Default)]
pub struct Tally {
    /// Open-loop latency from the due time (ms) of successful requests.
    pub latency: Samples,
    /// Open-loop sender lateness (ms) of every request.
    pub lateness: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Replies that were wrong: a bad body or an unwarranted refusal.
    pub wrong: u64,
    pub shed: u64,
    /// Correct `Revoked` refusals (successes).
    pub refused_revoked: u64,
    /// Served although sent after `revoke` returned and answered before
    /// `unrevoke` was called.
    pub served_after_revoke: u64,
    /// Successful saturation replies that arrived within the phase.
    pub sat_completed: u64,
    /// The same, per whole second of the phase.
    pub sat_per_second: Vec<u64>,
}

type Windows<'a> = HashMap<&'a str, Vec<&'a ChurnEvent>>;

impl Tally {
    /// Judges one exchange; `true` for a success. `body_ok` checks the
    /// body of a served reply.
    fn judge(
        &mut self,
        ask: &Ask,
        x: &Exchange,
        body_ok: &impl Fn(&Ask, &[u8]) -> bool,
        windows: &Windows,
    ) -> bool {
        self.attempted += 1;
        let Some((at, reply)) = &x.reply else {
            self.failed += 1;
            return false;
        };
        let id = ident(ask.rank());
        let events = windows.get(id.as_str()).map_or(&[][..], Vec::as_slice);
        let ok = match reply.status {
            Status::Ok if !body_ok(ask, &reply.body) => {
                self.wrong += 1;
                false
            }
            Status::Ok => {
                let revoked_throughout = events
                    .iter()
                    .any(|e| e.revoke_ret <= x.sent && *at <= e.unrevoke_call);
                if revoked_throughout {
                    self.served_after_revoke += 1;
                }
                !revoked_throughout
            }
            Status::Revoked => {
                let overlaps = events
                    .iter()
                    .any(|e| x.sent <= e.unrevoke_ret && e.revoke_call <= *at);
                if overlaps {
                    self.refused_revoked += 1;
                } else {
                    self.wrong += 1;
                }
                overlaps
            }
            Status::Overloaded => {
                self.shed += 1;
                false
            }
            _ => {
                self.wrong += 1;
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Sets the result fields: `mismatches` sampled replies failed
    /// cryptographic verification.
    pub fn finish(&self, report: &mut Report, mismatches: u64) {
        report.attempted = self.attempted;
        report.failed = self.failed + mismatches;
        report.correct = mismatches == 0 && self.wrong == 0 && self.served_after_revoke == 0;
    }
}

impl Timed {
    pub fn tally(&self, body_ok: impl Fn(&Ask, &[u8]) -> bool) -> Tally {
        let windows = common::windows_by_target(&self.churn);
        let mut tally = Tally::default();
        for ((ask, x), due) in self
            .open_asks
            .iter()
            .zip(&self.open.exchanges)
            .zip(&self.open.due)
        {
            tally
                .lateness
                .push(common::ms(x.sent.saturating_duration_since(*due)));
            if tally.judge(ask, x, &body_ok, &windows) {
                let at = x.reply.as_ref().map_or(*due, |(at, _)| *at);
                tally
                    .latency
                    .push(common::ms(at.saturating_duration_since(*due)));
            }
        }
        let seconds = (self.sat_end - self.sat_start).as_secs() as usize;
        tally.sat_per_second = vec![0; seconds];
        for (asks, sat) in &self.saturation {
            for (ask, x) in asks.iter().zip(&sat.exchanges) {
                let arrived = x.reply.as_ref().map(|(at, _)| *at);
                if tally.judge(ask, x, &body_ok, &windows) {
                    let Some(at) = arrived.filter(|at| *at <= self.sat_end) else {
                        continue;
                    };
                    tally.sat_completed += 1;
                    let second = at.saturating_duration_since(self.sat_start).as_secs() as usize;
                    if let Some(count) = tally.sat_per_second.get_mut(second) {
                        *count += 1;
                    }
                }
            }
        }
        tally
    }

    /// A seeded sample of `n` served replies, `(ask, body)`.
    pub fn sample_served(&self, seed: u64, n: usize) -> Vec<(Ask, Vec<u8>)> {
        let served: Vec<(&Ask, &Exchange)> = self
            .open_asks
            .iter()
            .zip(&self.open.exchanges)
            .chain(
                self.saturation
                    .iter()
                    .flat_map(|(asks, sat)| asks.iter().zip(&sat.exchanges)),
            )
            .filter(|(_, x)| matches!(&x.reply, Some((_, r)) if r.status == Status::Ok))
            .collect();
        let mut rng = inputs::rng(seed, tag::SAMPLE);
        let mut order: Vec<usize> = (0..served.len()).collect();
        let n = n.min(order.len());
        for i in 0..n {
            let j = i + (rng.next_u64() % (order.len() - i) as u64) as usize;
            order.swap(i, j);
        }
        order[..n]
            .iter()
            .map(|&i| {
                let (ask, x) = served[i];
                let body = x
                    .reply
                    .as_ref()
                    .map(|(_, r)| r.body.clone())
                    .unwrap_or_default();
                (ask.clone(), body)
            })
            .collect()
    }

    /// The end-to-end metrics. Refuses the run when the generator fell
    /// behind its own schedule.
    pub fn end_to_end(&self, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
        let late_p99 = tally.lateness.percentile(P99, "generator lateness")?;
        if late_p99 > LATE_LIMIT_MS {
            return Err(format!(
                "invalid run: the load generator sent its p99 request {late_p99:.2} ms after \
                 its due time (limit {LATE_LIMIT_MS} ms)"
            ));
        }
        report.metric("p50_ms", tally.latency.percentile(P50, "latency")?, "ms");
        report.metric("p99_ms", tally.latency.percentile(P99, "latency")?, "ms");
        report.notes.push(format!(
            "open loop: {} requests at {:.0}/s offered, {} latency samples; saturation: {} \
             replies in {:.2} s",
            self.open.exchanges.len(),
            self.offered_rps,
            tally.latency.len(),
            tally.sat_completed,
            (self.sat_end - self.sat_start).as_secs_f64()
        ));
        // The median second, not the mean: a host that stalls for a
        // moment moves the mean of a short phase, not its median.
        let per_second: Vec<f64> = tally.sat_per_second.iter().map(|&c| c as f64).collect();
        if per_second.is_empty() {
            return Err("saturation phase shorter than one second".to_string());
        }
        report.metric("throughput_rps", crate::stats::median(&per_second), "1/s");
        common::revoke_metric(report, &self.churn)?;
        report.metric("peak_rss_mb", common::peak_rss_mb()?, "MB");
        Ok(())
    }

    /// The client side of the traced run as spans: one per open-loop
    /// request, from due time to reply.
    pub fn record_client_spans(&self, tracer: &mut Tracer) {
        for (i, (due, x)) in self.open.due.iter().zip(&self.open.exchanges).enumerate() {
            if let Some((at, _)) = &x.reply {
                tracer.record("client.request", i as u64 + 1, *due, *at);
            }
        }
    }

    pub fn facts<'a>(
        &'a self,
        tally: &mut Tally,
        appends_per_revoke: f64,
    ) -> Result<LayerFacts<'a>, String> {
        Ok(LayerFacts {
            snapshots: self.snapshots.as_ref(),
            client_open_mean_ms: tally.latency.mean(),
            shed: tally.shed,
            refused_revoked: tally.refused_revoked,
            served_after_revoke: tally.served_after_revoke,
            churn: &self.churn,
            appends_per_revoke,
            offered_rps: self.offered_rps,
            sent: self.open.exchanges.len() as u64,
            late_p99_ms: tally.lateness.percentile(P99, "generator lateness")?,
            traced_p50_ms: tally.latency.percentile(P50, "latency")?,
            reference_p50_ms: self.reference_p50_ms.ok_or("no reference pass")?,
        })
    }
}

/// What the per-layer rows are computed from.
pub struct LayerFacts<'a> {
    /// Stats reads before, between and after the two phases (for a
    /// closed-loop workload, the middle read equals the last).
    pub snapshots: Option<&'a [MetricsSnapshot; 3]>,
    pub client_open_mean_ms: f64,
    pub shed: u64,
    pub refused_revoked: u64,
    pub served_after_revoke: u64,
    pub churn: &'a [ChurnEvent],
    /// Journal appends one `revoke` call makes (one per journaled
    /// server it reaches).
    pub appends_per_revoke: f64,
    pub offered_rps: f64,
    pub sent: u64,
    pub late_p99_ms: f64,
    pub traced_p50_ms: f64,
    pub reference_p50_ms: f64,
}

/// Every per-layer row: replayed call costs, server counters, the
/// revocation split, the cluster rows, load-generator validity, and
/// tracing overhead. Leaves the merged spans in `report.tracer`.
pub fn layer_rows(
    report: &mut Report,
    facts: LayerFacts,
    cluster: &ClusterStats,
    mut own: Tracer,
    probe: ProbeResult,
) -> Result<(), String> {
    common::call_metrics(report, &own, &probe.tracer)?;
    let snaps = facts.snapshots.ok_or("traced run without stats reads")?;
    let whole = common::server_delta(&snaps[0], &snaps[2]);
    let open = common::server_delta(&snaps[0], &snaps[1]);
    common::server_layer_metrics(
        report,
        &whole,
        &open,
        facts.client_open_mean_ms,
        facts.shed,
        facts.refused_revoked,
    );
    let mut append = own.durations_us("store.append");
    if append.is_empty() {
        append = probe.tracer.durations_us("store.append");
    }
    let append_mean_ms = append.iter().sum::<f64>() / append.len().max(1) as f64 / 1e3;
    report.layer(
        "revocation.lock_wait_mean_ms",
        common::revoke_mean_ms(facts.churn) - facts.appends_per_revoke * append_mean_ms,
        "ms",
    );
    report.layer(
        "revocation.served_after_revoke",
        facts.served_after_revoke as f64,
        "count",
    );
    report.layer("cluster.asked_per_token", cluster.asked_per_token, "count");
    report.layer("cluster.hedged_frac", cluster.hedged_frac, "ratio");
    report.layer("cluster.wave_mean_ms", cluster.wave_mean_ms, "ms");
    report.layer("loadgen.offered_rps", facts.offered_rps, "1/s");
    report.layer("loadgen.sent", facts.sent as f64, "count");
    report.layer("loadgen.late_p99_ms", facts.late_p99_ms, "ms");
    report.layer(
        "trace.overhead_frac",
        facts.traced_p50_ms / facts.reference_p50_ms - 1.0,
        "ratio",
    );
    own.absorb(probe.tracer);
    report.tracer = Some(own);
    Ok(())
}

/// The token path side by side: what the client saw, what the server
/// timed, and what each replayed call costs.
pub fn token_path_table(report: &Report) -> String {
    let get = |name: &str| {
        report
            .metrics
            .iter()
            .chain(&report.layers)
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let calls = [
        "proto.decode_us",
        "pairing.point_decode_us",
        "pairing.subgroup_check_us",
        "pairing.pairing_prepared_us",
        "core.decrypt_token_cached_us",
        "pairing.gt_encode_us",
        "proto.encode_us",
    ];
    let mut line = format!(
        "token path: client p50 {:.3} ms | tcp.service_mean {:.1} us |",
        get("p50_ms"),
        get("tcp.service_mean_us")
    );
    for call in calls {
        line.push_str(&format!(" {call} {:.1} |", get(call)));
    }
    line
}
