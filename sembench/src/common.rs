//! What the three workloads share: run settings, the report they
//! return, the revocation churn thread, and the server counters read
//! over the stats op.

use crate::inputs::Revocation;
use crate::stats::{self, Samples, P50};
use crate::trace::Tracer;
use sempair_core::bf_ibe::IbePublicParams;
use sempair_net::audit::MetricsSnapshot;
use sempair_net::tcp::TcpSemClient;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The sizes of a run that the self-test shrinks. [`Scale::full`] is
/// the benchmark; the self-test runs a small `token_hot` through the
/// same code paths. Sizes nothing shrinks are constants of their
/// workload.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Enrolled identities requested by `token_hot`.
    pub token_ids: usize,
    /// `U` points the token requests draw from.
    pub u_pool: usize,
    /// `token_hot` set-ups per run; `setup_s` is their median.
    pub token_setups: usize,
    /// `token_hot` open-loop arrival rate (requests per second).
    pub token_rate: f64,
    /// Revocations per run in `token_hot` and `quorum_decrypt`, whose
    /// churn only measures `revoke`: light enough not to disturb the
    /// request path, and on identities nobody requests.
    pub light_revocations: usize,
    /// Replies checked cryptographically after the timed phase.
    pub verify_sample: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            token_ids: 2048,
            u_pool: 256,
            token_setups: 3,
            token_rate: 300.0,
            light_revocations: 400,
            verify_sample: 48,
        }
    }
}

/// Requests replayed through the layer calls in a traced run.
pub const REPLAY: usize = 64;
/// In-flight requests per saturation connection (two connections).
pub const WINDOW: usize = 16;
/// How long a churned identity stays revoked.
pub const HOLD: Duration = Duration::from_millis(50);

#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where journals and cluster state live for the run.
    pub state_dir: PathBuf,
    /// Self-test hook: corrupt one expected value, so verification must
    /// fail.
    pub plant_wrong: bool,
}

impl Run {
    /// The open-loop and saturation phases split the timed phase.
    pub fn half(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (reported by the untraced run).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (reported by the traced run).
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }
}

/// One churn cycle as it happened.
#[derive(Debug, Clone)]
pub struct ChurnEvent {
    pub target: String,
    pub revoke_call: Instant,
    pub revoke_ret: Instant,
    pub unrevoke_call: Instant,
    pub unrevoke_ret: Instant,
}

/// Runs `body` on this thread while a second thread works through the
/// revocation `schedule` (relative to `start`): each target is revoked
/// at its time and reinstated [`HOLD`] later, through `apply(id,
/// revoke)`.
pub fn with_churn<T>(
    start: Instant,
    schedule: &[Revocation],
    apply: impl FnMut(&str, bool) + Send,
    body: impl FnOnce() -> T,
) -> (T, Vec<ChurnEvent>) {
    // (due, schedule index, revoke?) in time order; at equal times a
    // reinstatement goes first.
    let mut timeline: Vec<(Duration, usize, bool)> = schedule
        .iter()
        .enumerate()
        .flat_map(|(i, r)| [(r.at, i, true), (r.at + HOLD, i, false)])
        .collect();
    timeline.sort_by_key(|&(at, i, revoke)| (at, revoke, i));
    std::thread::scope(|scope| {
        let churn = scope.spawn(move || {
            let mut apply = apply;
            let mut calls: Vec<[Option<Instant>; 4]> = vec![[None; 4]; schedule.len()];
            for (at, i, revoke) in timeline {
                let due = start + at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let call = Instant::now();
                apply(&schedule[i].target, revoke);
                let ret = Instant::now();
                let slot = if revoke { 0 } else { 2 };
                calls[i][slot] = Some(call);
                calls[i][slot + 1] = Some(ret);
            }
            calls
                .into_iter()
                .zip(schedule)
                .map(|(c, r)| ChurnEvent {
                    target: r.target.clone(),
                    revoke_call: c[0].expect("every revocation ran"),
                    revoke_ret: c[1].expect("every revocation ran"),
                    unrevoke_call: c[2].expect("every reinstatement ran"),
                    unrevoke_ret: c[3].expect("every reinstatement ran"),
                })
                .collect()
        });
        let out = body();
        (out, churn.join().expect("churn thread"))
    })
}

/// `revoke_p50_ms` of the churn.
pub fn revoke_metric(report: &mut Report, events: &[ChurnEvent]) -> Result<(), String> {
    let mut samples = Samples::default();
    for e in events {
        samples.push(ms(e.revoke_ret - e.revoke_call));
    }
    report.metric("revoke_p50_ms", samples.percentile(P50, "revoke")?, "ms");
    Ok(())
}

/// Mean `revoke` call time in milliseconds.
pub fn revoke_mean_ms(events: &[ChurnEvent]) -> f64 {
    let mut samples = Samples::default();
    for e in events {
        samples.push(ms(e.revoke_ret - e.revoke_call));
    }
    samples.mean()
}

/// Churn events by target identity.
pub fn windows_by_target(events: &[ChurnEvent]) -> HashMap<&str, Vec<&ChurnEvent>> {
    let mut map: HashMap<&str, Vec<&ChurnEvent>> = HashMap::new();
    for e in events {
        map.entry(e.target.as_str()).or_default().push(e);
    }
    map
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Median of repeated set-up times, in seconds.
pub fn setup_metric(report: &mut Report, setups: &[Duration]) {
    let secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    report.metric("setup_s", stats::median(&secs), "s");
}

/// The stats op, read over the wire from each server and merged.
pub fn read_stats(
    addrs: &[SocketAddr],
    params: &IbePublicParams,
) -> Result<MetricsSnapshot, String> {
    let mut merged: Option<MetricsSnapshot> = None;
    for addr in addrs {
        let mut client = TcpSemClient::connect(addr, params.clone())
            .map_err(|e| format!("stats connect: {e}"))?;
        let snapshot = client.metrics().map_err(|e| format!("stats op: {e}"))?;
        match &mut merged {
            None => merged = Some(snapshot),
            Some(m) => m.merge(&snapshot),
        }
    }
    merged.ok_or_else(|| "no servers to read".to_string())
}

/// Server-side movement between two stats reads.
pub struct ServerDelta {
    /// Mean service time over them (sum/count delta), microseconds.
    pub service_mean_us: f64,
    pub served: u64,
    pub half_key_hits: u64,
    pub half_key_misses: u64,
    pub half_key_evictions: u64,
    pub half_key_weight_bytes: u64,
}

pub fn server_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> ServerDelta {
    let totals = |s: &MetricsSnapshot| {
        s.latency_us
            .iter()
            .fold((0u64, 0u64), |(c, t), (_, h)| (c + h.count(), t + h.sum()))
    };
    let (c0, s0) = totals(before);
    let (c1, s1) = totals(after);
    let timed = c1.saturating_sub(c0);
    let half_key = |s: &MetricsSnapshot| {
        s.caches
            .iter()
            .filter(|c| c.name == "half_key")
            .fold((0, 0, 0, 0), |acc, c| {
                (
                    acc.0 + c.hits,
                    acc.1 + c.misses,
                    acc.2 + c.evictions,
                    acc.3 + c.weight_bytes,
                )
            })
    };
    let hk0 = half_key(before);
    let hk1 = half_key(after);
    let delta = after.delta_since(before);
    ServerDelta {
        service_mean_us: if timed == 0 {
            0.0
        } else {
            s1.saturating_sub(s0) as f64 / timed as f64
        },
        served: delta.served,
        half_key_hits: hk1.0.saturating_sub(hk0.0),
        half_key_misses: hk1.1.saturating_sub(hk0.1),
        half_key_evictions: hk1.2.saturating_sub(hk0.2),
        half_key_weight_bytes: hk1.3,
    }
}

/// The `cache.*` and `tcp.*` per-layer rows from the stats reads around
/// the timed phase (`whole`) and around the open-loop phase (`open`,
/// for the service and wait means that pair with the client's mean).
pub fn server_layer_metrics(
    report: &mut Report,
    whole: &ServerDelta,
    open: &ServerDelta,
    client_open_mean_ms: f64,
    shed: u64,
    refused_revoked: u64,
) {
    let lookups = whole.half_key_hits + whole.half_key_misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        whole.half_key_hits as f64 / lookups as f64
    };
    report.layer("cache.half_key_hit_ratio", ratio, "ratio");
    report.layer(
        "cache.half_key_misses",
        whole.half_key_misses as f64,
        "count",
    );
    report.layer(
        "cache.half_key_evictions",
        whole.half_key_evictions as f64,
        "count",
    );
    report.layer(
        "cache.weight_mb",
        whole.half_key_weight_bytes as f64 / 1e6,
        "MB",
    );
    report.layer("tcp.service_mean_us", open.service_mean_us, "us");
    report.layer(
        "tcp.wait_mean_ms",
        client_open_mean_ms - open.service_mean_us / 1e3,
        "ms",
    );
    report.layer("tcp.served", whole.served as f64, "count");
    report.layer("tcp.shed", shed as f64, "count");
    report.layer("tcp.refused_revoked", refused_revoked as f64, "count");
}

/// The per-call metrics from the replay spans: the median duration of
/// each named span, taken from the workload's own replay when it has
/// the call and from the probe replay otherwise.
pub const CALL_METRICS: [(&str, &str); 18] = [
    ("pairing.point_decode", "pairing.point_decode_us"),
    ("pairing.subgroup_check", "pairing.subgroup_check_us"),
    ("pairing.pairing_prepared", "pairing.pairing_prepared_us"),
    ("pairing.gt_encode", "pairing.gt_encode_us"),
    ("field.final_exp", "field.final_exp_us"),
    ("pairing.hash_to_g1", "pairing.hash_to_g1_us"),
    ("pairing.scalar_mul", "pairing.scalar_mul_us"),
    ("pairing.pairing", "pairing.pairing_us"),
    ("pairing.prepare_g1", "pairing.prepare_g1_us"),
    ("core.decrypt_token_cached", "core.decrypt_token_cached_us"),
    ("core.half_sign", "core.half_sign_us"),
    ("core.robust_share", "core.robust_share_us"),
    ("core.verify_share", "core.verify_share_us"),
    ("core.combine_token", "core.combine_token_us"),
    ("core.finish_decrypt", "core.finish_decrypt_us"),
    ("proto.decode", "proto.decode_us"),
    ("proto.encode", "proto.encode_us"),
    ("store.append", "store.append_us"),
];

pub fn call_metrics(report: &mut Report, own: &Tracer, probe: &Tracer) -> Result<(), String> {
    for (span, metric) in CALL_METRICS {
        let mut values = own.durations_us(span);
        if values.is_empty() {
            values = probe.durations_us(span);
        }
        if values.is_empty() {
            return Err(format!("no replayed calls for {span}"));
        }
        report.layer(metric, stats::median(&values), "us");
    }
    Ok(())
}
