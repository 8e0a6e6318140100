//! Scenario-driven chaos harness with SLO gates (DESIGN.md §15).
//!
//! The serving stack already has every ingredient of a chaos test —
//! deterministic link faults and crash modes ([`crate::faults`]),
//! replica kill/rejoin with journal replay ([`crate::cluster`]),
//! Zipf-skewed load, and mergeable audit snapshots
//! ([`crate::audit::MetricsSnapshot`]). What it lacked was a way to
//! *compose* them into named, reproducible incidents with explicit
//! pass/fail criteria. This module is that orchestrator: four scripted
//! scenarios, each a deterministic function of a seed, evaluated
//! against a declarative [`SloSpec`]:
//!
//! * [`mass_revocation_storm`] — a revocation burst targeted at one
//!   shard while Zipf traffic hammers the hot set; instant revocation
//!   (§1/§4) must not degrade the serving tail.
//! * [`epoch_rollover_under_load`] — the validity-period PKG re-keys
//!   every user *incrementally* ([`ValidityPeriodPkg::rollover_step`])
//!   while `current_key` traffic continues; chunked rollover must keep
//!   the lookup tail within 2× of quiet and re-issue exactly once.
//! * [`replica_kill_rejoin_during_spike`] — a (2, 3) quorum loses and
//!   regains a replica mid-spike; hedged quorum reads must hold the
//!   error budget with zero duplicate executions and zero cheat
//!   events.
//! * [`flaky_mobile_clients`] — retrying clients behind a seeded
//!   mobile-grade fault profile ([`FaultProfile::mobile`]); the
//!   `(session, req_id)` idempotency window must absorb every retry
//!   without double-executing a request.
//!
//! Each scenario measures a **quiet baseline** and a **loaded/faulted
//! phase**, derives an [`SloObservation`] (tail ratio, error rate,
//! duplicate executions, cheat events — the latter two from audit
//! counter deltas and idempotency probes, not client-side guesses),
//! and reports per-SLO margins. Timing SLOs are load-sensitive, so
//! unit tests assert only the deterministic margins; the bench runner
//! (`scenario_bench`) records the timing verdicts without gating CI on
//! a loaded host's scheduler (the `serving_bench` precedent).

use crate::cluster::{HedgeConfig, SemCluster};
use crate::faults::{FaultPlan, FaultProfile, FaultProxy};
use crate::proto::{Op, Request, Status};
use crate::tcp::{ClientConfig, PipeClient, PipeReply, ServerConfig, TcpSemClient, TcpSemServer};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sempair_core::bf_ibe::Pkg;
use sempair_core::Error;
use sempair_pairing::CurveParams;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::revocation::ValidityPeriodPkg;

/// Zipf(s = 1) sampler over `n` ranks: precomputed harmonic CDF plus
/// binary search, so a draw costs `O(log n)` with no floating-point
/// rejection loop. Shared by the scenarios here and by
/// `serving_bench`, so both harnesses skew identically.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n` (`n` clamped to at least 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n.min(MAX_ZIPF_RANKS));
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`, rank 0 most likely.
    pub fn sample(&self, rng: &mut impl RngCore) -> usize {
        let u = rng.next_u64() as f64 / u64::MAX as f64;
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// Canonical identity string for Zipf rank `rank` — the same naming
/// scheme `serving_bench` uses, so scenario traffic and bench traffic
/// hit the same identities.
pub fn ident(rank: usize) -> String {
    format!("user-{rank:07}")
}

/// Knobs shared by every scenario. All scenarios are deterministic
/// functions of `seed` modulo wall-clock timing: the traffic mix, the
/// fault schedule, and the revocation storm replay identically.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Master seed; every derived RNG and fault plan hangs off it.
    pub seed: u64,
    /// Hot identities enrolled and sampled (Zipf head).
    pub hot: usize,
    /// Requests per measured phase (quiet and loaded each get this
    /// many).
    pub requests: usize,
    /// Users re-keyed per incremental rollover chunk
    /// ([`ValidityPeriodPkg::rollover_step`]).
    pub rollover_chunk: usize,
    /// Brownout queue high-watermark handed to the servers (0 = the
    /// ¾-of-queue-capacity default).
    pub brownout_watermark: usize,
}

impl ScenarioConfig {
    /// The CI-sized configuration: small enough for a debug-build test
    /// run, large enough that the Zipf head and the fault profile both
    /// get exercised.
    pub fn smoke() -> Self {
        ScenarioConfig {
            seed: 0x5CE7_A210,
            hot: 8,
            requests: 60,
            rollover_chunk: 4,
            brownout_watermark: 0,
        }
    }

    /// The bench-sized configuration (release builds).
    pub fn full() -> Self {
        ScenarioConfig {
            hot: 32,
            requests: 600,
            rollover_chunk: 16,
            ..Self::smoke()
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::smoke()
    }
}

/// Declarative service-level objectives one scenario is graded
/// against. Limits are inclusive: `actual <= limit` passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Ceiling on `loaded p99 / quiet p99`. Load-sensitive — asserted
    /// by the bench report, recorded (not asserted) by unit tests.
    pub max_p99_ratio: f64,
    /// Ceiling on `failures / requests`.
    pub error_budget: f64,
    /// Ceiling on duplicate executions observed by idempotency probes
    /// and issuance accounting (the "exactly once" gate).
    pub max_duplicate_executions: u64,
    /// Ceiling on cheat events (partial tokens failing NIZK
    /// verification).
    pub max_cheat_events: u64,
}

/// What a scenario measured, in the units [`SloSpec`] grades.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloObservation {
    /// p99 of the quiet (unperturbed) phase, microseconds.
    pub quiet_p99_us: f64,
    /// p99 of the loaded/faulted phase, microseconds.
    pub loaded_p99_us: f64,
    /// Logical requests issued across both measured phases.
    pub requests: u64,
    /// Requests that failed after the client's own retries.
    pub failures: u64,
    /// Executions beyond exactly-once: idempotency-probe replays that
    /// re-executed, or rollover re-keys issued twice for one epoch.
    pub duplicate_executions: u64,
    /// Partial tokens that failed verification.
    pub cheat_events: u64,
    /// Lock-order violations detected by the lockdep layer over the
    /// scenario's run (always 0 when the `lockdep` feature is
    /// compiled out). Gated at a hard limit of zero.
    pub lockdep_violations: u64,
}

impl SloObservation {
    /// `loaded p99 / quiet p99`; `1.0` when the quiet phase has no
    /// samples (nothing to regress against).
    pub fn p99_ratio(&self) -> f64 {
        if self.quiet_p99_us > 0.0 {
            self.loaded_p99_us / self.quiet_p99_us
        } else {
            1.0
        }
    }

    /// `failures / requests` (0 when no requests were issued).
    pub fn error_rate(&self) -> f64 {
        if self.requests > 0 {
            self.failures as f64 / self.requests as f64
        } else {
            0.0
        }
    }
}

/// One graded objective: the limit, what was measured, and the margin
/// (`limit - actual`; negative margin = violated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloMargin {
    /// Objective name: `p99_ratio`, `error_rate`,
    /// `duplicate_executions`, or `cheat_events`.
    pub name: &'static str,
    /// Inclusive ceiling from the [`SloSpec`].
    pub limit: f64,
    /// Measured value.
    pub actual: f64,
    /// `limit - actual`.
    pub margin: f64,
    /// `actual <= limit`.
    pub pass: bool,
    /// Whether this objective depends on wall-clock timing (and is
    /// therefore recorded, not asserted, by unit tests).
    pub timing: bool,
}

impl SloMargin {
    fn grade(name: &'static str, limit: f64, actual: f64, timing: bool) -> Self {
        SloMargin {
            name,
            limit,
            actual,
            margin: limit - actual,
            pass: actual <= limit,
            timing,
        }
    }
}

impl SloSpec {
    /// Grades an observation, one margin per objective, in a stable
    /// order.
    pub fn evaluate(&self, obs: &SloObservation) -> Vec<SloMargin> {
        vec![
            SloMargin::grade("p99_ratio", self.max_p99_ratio, obs.p99_ratio(), true),
            SloMargin::grade("error_rate", self.error_budget, obs.error_rate(), false),
            SloMargin::grade(
                "duplicate_executions",
                self.max_duplicate_executions as f64,
                obs.duplicate_executions as f64,
                false,
            ),
            SloMargin::grade(
                "cheat_events",
                self.max_cheat_events as f64,
                obs.cheat_events as f64,
                false,
            ),
            // Not configurable: a lock-order inversion is a latent
            // deadlock, so every scenario gates it at exactly zero.
            SloMargin::grade(
                "lockdep_violations",
                0.0,
                obs.lockdep_violations as f64,
                false,
            ),
        ]
    }
}

/// The report one scenario run produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (stable, used in `BENCH_scenarios.json`).
    pub name: &'static str,
    /// Seed the run was driven by.
    pub seed: u64,
    /// The objectives it was graded against.
    pub spec: SloSpec,
    /// What it measured.
    pub observation: SloObservation,
    /// Per-objective margins.
    pub slos: Vec<SloMargin>,
    /// Every objective (timing included) passed.
    pub passed: bool,
}

impl ScenarioOutcome {
    fn grade(name: &'static str, seed: u64, spec: SloSpec, observation: SloObservation) -> Self {
        let slos = spec.evaluate(&observation);
        let passed = slos.iter().all(|m| m.pass);
        ScenarioOutcome {
            name,
            seed,
            spec,
            observation,
            slos,
            passed,
        }
    }

    /// The margin for objective `name`, if graded.
    pub fn margin(&self, name: &str) -> Option<&SloMargin> {
        self.slos.iter().find(|m| m.name == name)
    }

    /// Every *deterministic* (non-timing) objective passed. This is
    /// what unit tests assert; timing objectives additionally gate
    /// [`ScenarioOutcome::passed`] for bench reports.
    pub fn deterministic_pass(&self) -> bool {
        self.slos.iter().filter(|m| !m.timing).all(|m| m.pass)
    }
}

/// Pre-allocation ceiling for per-phase latency sample buffers (and
/// other request-sized vectors): configs ask for hundreds of requests,
/// so a corrupt or hostile config cannot make the harness reserve
/// unbounded memory up front.
const MAX_PHASE_SAMPLES: usize = 1 << 20;

/// Pre-allocation ceiling for the Zipf sampler's harmonic CDF table.
const MAX_ZIPF_RANKS: usize = 1 << 20;

/// Names of the four scripted scenarios, in run order.
pub const SCENARIOS: [&str; 4] = [
    "mass_revocation_storm",
    "epoch_rollover_under_load",
    "replica_kill_rejoin_during_spike",
    "flaky_mobile_clients",
];

/// Wraps one scenario run in a lockdep measurement window: the
/// process-global violation counter is differenced across the run and
/// graded (limit zero) alongside the scenario's own objectives.
fn with_lockdep_gate(
    run: impl FnOnce() -> Result<ScenarioOutcome, Error>,
) -> Result<ScenarioOutcome, Error> {
    let before = sempair_core::lockdep::violation_count();
    let mut outcome = run()?;
    outcome.observation.lockdep_violations =
        sempair_core::lockdep::violation_count().saturating_sub(before);
    outcome.slos = outcome.spec.evaluate(&outcome.observation);
    outcome.passed = outcome.slos.iter().all(|m| m.pass);
    Ok(outcome)
}

/// Runs the named scenario; `None` for an unknown name.
pub fn run_scenario(name: &str, config: &ScenarioConfig) -> Option<Result<ScenarioOutcome, Error>> {
    match name {
        "mass_revocation_storm" => Some(with_lockdep_gate(|| mass_revocation_storm(config))),
        "epoch_rollover_under_load" => {
            Some(with_lockdep_gate(|| epoch_rollover_under_load(config)))
        }
        "replica_kill_rejoin_during_spike" => Some(with_lockdep_gate(|| {
            replica_kill_rejoin_during_spike(config)
        })),
        "flaky_mobile_clients" => Some(with_lockdep_gate(|| flaky_mobile_clients(config))),
        _ => None,
    }
}

/// Runs all four scenarios in [`SCENARIOS`] order.
///
/// # Errors
///
/// The first scenario whose *harness* fails (transport setup, thread
/// panic) aborts the run; SLO violations are reported in the
/// outcomes, not as errors.
pub fn run_all(config: &ScenarioConfig) -> Result<Vec<ScenarioOutcome>, Error> {
    let mut outcomes = Vec::with_capacity(SCENARIOS.len().min(MAX_PHASE_SAMPLES));
    outcomes.push(with_lockdep_gate(|| mass_revocation_storm(config))?);
    outcomes.push(with_lockdep_gate(|| epoch_rollover_under_load(config))?);
    outcomes.push(with_lockdep_gate(|| {
        replica_kill_rejoin_during_spike(config)
    })?);
    outcomes.push(with_lockdep_gate(|| flaky_mobile_clients(config))?);
    Ok(outcomes)
}

fn transport<E>(_: E) -> Error {
    Error::Transport
}

fn quantile_us(samples: &mut [Duration], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort();
    let index = ((samples.len() as f64 * q) as usize).min(samples.len() - 1);
    samples[index].as_secs_f64() * 1e6
}

/// One measured phase of pipelined token load.
struct LoadPhase {
    p99_us: f64,
    requests: u64,
    failures: u64,
}

/// Drives `requests` Zipf-sampled `IbeToken` requests through one
/// pipelined connection with a sliding window of `depth`, timing each
/// reply. Any non-`Ok` status counts as a failure (the scenarios
/// sample only enrolled, unrevoked identities, so a refusal here is a
/// genuine serving failure, unlike `serving_bench`'s cold tail).
fn token_load(
    addr: SocketAddr,
    u: &[u8],
    ids: &[String],
    zipf: &Zipf,
    requests: usize,
    depth: usize,
    seed: u64,
) -> Result<LoadPhase, Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pipe = PipeClient::connect(addr, Duration::from_secs(10)).map_err(transport)?;
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut samples: Vec<Duration> = Vec::with_capacity(requests.min(MAX_PHASE_SAMPLES));
    let mut failures = 0u64;
    let mut submitted = 0usize;
    let mut received = 0usize;
    while received < requests {
        while submitted < requests && in_flight.len() < depth {
            let rank = zipf.sample(&mut rng);
            let id = match ids.get(rank) {
                Some(id) => id.clone(),
                None => ident(rank),
            };
            let request = Request {
                op: Op::IbeToken,
                id,
                body: u.to_vec(),
            };
            let req_id = pipe.submit(&request)?;
            in_flight.insert(req_id, Instant::now());
            submitted += 1;
        }
        match pipe.recv()? {
            PipeReply::Reply(req_id, inner) => {
                received += 1;
                if let Some(at) = in_flight.remove(&req_id) {
                    samples.push(at.elapsed());
                }
                if inner.status != Status::Ok {
                    failures += 1;
                }
            }
            PipeReply::Plain(_) => {
                // A plain reply in pipelined mode is a pre-dispatch
                // refusal; it cannot be matched to a request id.
                received += 1;
                failures += 1;
            }
        }
    }
    Ok(LoadPhase {
        p99_us: quantile_us(&mut samples, 0.99),
        requests: requests as u64,
        failures,
    })
}

/// Replays the same `(session, req_id)` request twice on one pipelined
/// connection and returns executions beyond the first, measured from
/// the server's own per-identity `served` counter. The idempotency
/// window (DESIGN.md §13) must answer the replay from its completion
/// slot without re-executing the pairing — so the expected value is 0.
fn idempotency_probe(
    addr: SocketAddr,
    server_served: impl Fn() -> u64,
    request: &Request,
) -> Result<u64, Error> {
    let before = server_served();
    let mut pipe = PipeClient::connect(addr, Duration::from_secs(10)).map_err(transport)?;
    let req_id = pipe.submit(request)?;
    let first = pipe.recv()?;
    if let PipeReply::Reply(_, inner) = &first {
        if inner.status != Status::Ok {
            // A refused probe never executed, so it cannot measure
            // duplicate execution; surface it as a harness error
            // rather than a silent pass.
            return Err(Error::Transport);
        }
    }
    pipe.submit_as(req_id, request)?;
    let _ = pipe.recv()?;
    Ok(server_served().saturating_sub(before).saturating_sub(1))
}

/// Scenario 1: a revocation storm aimed at one shard while Zipf
/// traffic hammers the hot set.
///
/// Quiet phase, then an idempotency probe, then the storm: a
/// background thread revokes churn identities (all hashing to shard 0
/// of the server's 16) in paced bursts while the loaded phase runs.
/// Both phases run over a clean 2 ms emulated link
/// ([`FaultProxy::spawn_linked`]) — the same methodology as
/// `serving_bench`, so the ratio measures shard contention, not the
/// storm thread competing for a bare-loopback CPU. The hot identities
/// are never revoked, so every failure is a real serving failure.
/// SLOs: p99 ≤ 2× quiet, error budget 1%, zero duplicate executions,
/// zero cheat events.
///
/// # Errors
///
/// Harness failures only (connect, thread panic) — SLO violations are
/// reported in the outcome.
pub fn mass_revocation_storm(config: &ScenarioConfig) -> Result<ScenarioOutcome, Error> {
    let spec = SloSpec {
        max_p99_ratio: 2.0,
        error_budget: 0.01,
        max_duplicate_executions: 0,
        max_cheat_events: 0,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pkg = Pkg::setup(&mut rng, CurveParams::fast_insecure());
    const SHARDS: usize = 16;
    let server = TcpSemServer::bind_with(
        "127.0.0.1:0",
        pkg.params().clone(),
        ServerConfig {
            workers: 4,
            shards: SHARDS,
            brownout_watermark: config.brownout_watermark,
            ..ServerConfig::default()
        },
    )
    .map_err(transport)?;
    for rank in 0..config.hot {
        server.install_ibe(pkg.extract_split(&mut rng, &ident(rank)).1);
    }
    let link = FaultProxy::spawn_linked(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::clean(),
        Duration::from_millis(2),
    )
    .map_err(transport)?;
    let addr = link.local_addr();
    let curve = pkg.params().curve();
    let u = curve.point_to_bytes(&curve.mul_generator(&curve.random_scalar(&mut rng)));
    let zipf = Zipf::new(config.hot);
    let ids: Vec<String> = (0..config.hot).map(ident).collect();

    let quiet = token_load(
        addr,
        &u,
        &ids,
        &zipf,
        config.requests,
        8,
        config.seed ^ 0x11,
    )?;

    let probe = Request {
        op: Op::IbeToken,
        id: ident(0),
        body: u.clone(),
    };
    let duplicate_executions =
        idempotency_probe(addr, || server.audit_stats(&ident(0)).served, &probe)?;

    // Churn identities for the storm, pinned to one shard — the
    // revocation shard map must absorb a targeted burst without the
    // other 15 shards' read paths feeling the write lock.
    let storm_ids: Vec<String> = (0..)
        .map(|n| format!("churn-{n}"))
        .filter(|id| crate::revocation::shard_of(id, SHARDS) == 0)
        .take(512)
        .collect();
    let stop = AtomicBool::new(false);
    let loaded = std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            let mut next = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..8 {
                    if let Some(id) = storm_ids.get(next % storm_ids.len()) {
                        server.revoke(id);
                    }
                    next += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let loaded = token_load(
            addr,
            &u,
            &ids,
            &zipf,
            config.requests,
            8,
            config.seed ^ 0x22,
        );
        stop.store(true, Ordering::Relaxed);
        storm.join().map_err(transport)?;
        loaded
    })?;

    let observation = SloObservation {
        quiet_p99_us: quiet.p99_us,
        loaded_p99_us: loaded.p99_us,
        requests: quiet.requests + loaded.requests,
        failures: quiet.failures + loaded.failures,
        duplicate_executions,
        cheat_events: 0,
        // Filled by `with_lockdep_gate` around the run.
        lockdep_violations: 0,
    };
    link.shutdown();
    server.shutdown();
    Ok(ScenarioOutcome::grade(
        "mass_revocation_storm",
        config.seed,
        spec,
        observation,
    ))
}

/// Scenario 2: incremental epoch rollover under live `current_key`
/// load.
///
/// A 4-shard [`ValidityPeriodPkg`] serves Zipf lookups while a
/// rollover to the next epoch proceeds in chunks of
/// `config.rollover_chunk`, interleaved on the same thread — every
/// lookup sample taken during the loaded phase lands between two
/// chunks, exactly the latency a synchronous `rotate_epoch` would
/// have inflicted all at once. SLOs: lookup p99 ≤ 2× quiet with a
/// **zero** error budget (no lookup may fail mid-rollover), and
/// exactly-once issuance — the chunks together must re-key each
/// unrevoked user precisely once (shortfall counts as failures,
/// excess as duplicate executions).
///
/// # Errors
///
/// Harness failures only.
pub fn epoch_rollover_under_load(config: &ScenarioConfig) -> Result<ScenarioOutcome, Error> {
    let spec = SloSpec {
        max_p99_ratio: 2.0,
        error_budget: 0.0,
        max_duplicate_executions: 0,
        max_cheat_events: 0,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pkg = Pkg::setup(&mut rng, CurveParams::fast_insecure());
    let users: Vec<String> = (0..config.hot).map(ident).collect();
    let mut vp = ValidityPeriodPkg::with_shards(pkg, Duration::from_secs(86_400), users, 4);

    // One revocation lodged before the rollover: the re-key sweep must
    // skip exactly this user.
    let revoked_id = ident(config.hot.saturating_sub(1));
    vp.revoke(&revoked_id);
    let unrevoked = vp.user_count().saturating_sub(1) as u64;
    let zipf = Zipf::new(config.hot.saturating_sub(1));

    let mut failures = 0u64;
    let mut quiet_samples: Vec<Duration> =
        Vec::with_capacity(config.requests.min(MAX_PHASE_SAMPLES));
    for _ in 0..config.requests {
        let id = ident(zipf.sample(&mut rng));
        let at = Instant::now();
        if vp.current_key(&id).is_err() {
            failures += 1;
        }
        quiet_samples.push(at.elapsed());
    }
    let quiet_p99_us = quantile_us(&mut quiet_samples, 0.99);

    vp.begin_rollover();
    let mut issued = 0u64;
    let mut loaded_samples: Vec<Duration> =
        Vec::with_capacity(config.requests.min(MAX_PHASE_SAMPLES));
    let mut sampled = 0usize;
    while sampled < config.requests || vp.rollover_target().is_some() {
        if let Some(step) = vp.rollover_step(config.rollover_chunk) {
            issued += step.issued.len() as u64;
        }
        if sampled < config.requests {
            let id = ident(zipf.sample(&mut rng));
            let at = Instant::now();
            if vp.current_key(&id).is_err() {
                failures += 1;
            }
            loaded_samples.push(at.elapsed());
            sampled += 1;
        }
    }
    let loaded_p99_us = quantile_us(&mut loaded_samples, 0.99);

    // Exactly-once issuance accounting, plus the revocation gate: the
    // revoked user must be refused at the new epoch.
    failures += unrevoked.saturating_sub(issued);
    let duplicate_executions = issued.saturating_sub(unrevoked);
    if !matches!(vp.current_key(&revoked_id), Err(Error::Revoked)) {
        failures += 1;
    }

    let observation = SloObservation {
        quiet_p99_us,
        loaded_p99_us,
        requests: 2 * config.requests as u64,
        failures,
        duplicate_executions,
        cheat_events: 0,
        // Filled by `with_lockdep_gate` around the run.
        lockdep_violations: 0,
    };
    Ok(ScenarioOutcome::grade(
        "epoch_rollover_under_load",
        config.seed,
        spec,
        observation,
    ))
}

/// Scenario 3: a (2, 3) quorum loses replica 3 a third of the way
/// through a request spike and regains it (journal replay) at two
/// thirds.
///
/// The hedged [`crate::cluster::QuorumClient`] (first wave t + 1 = 3)
/// must ride through both transitions: the error budget is 1%, every
/// partial token must verify (zero cheat events), and an idempotency
/// probe against a replica's `TokenShare` path must show zero
/// duplicate executions. The p99 ratio (post-kill vs. pre-kill) is
/// graded at a generous 3× — connect-refused probes to the dead
/// replica are cheap but not free.
///
/// # Errors
///
/// Harness failures only (cluster start, state dir, restart).
pub fn replica_kill_rejoin_during_spike(config: &ScenarioConfig) -> Result<ScenarioOutcome, Error> {
    let spec = SloSpec {
        max_p99_ratio: 3.0,
        error_budget: 0.01,
        max_duplicate_executions: 0,
        max_cheat_events: 0,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pkg = Pkg::setup(&mut rng, CurveParams::fast_insecure());
    let state_dir = std::env::temp_dir().join(format!(
        "sempair-scenario-{}-{:016x}",
        std::process::id(),
        config.seed
    ));
    std::fs::create_dir_all(&state_dir).map_err(transport)?;
    let mut cluster = SemCluster::start(
        pkg,
        2,
        3,
        ServerConfig {
            workers: 2,
            brownout_watermark: config.brownout_watermark,
            ..ServerConfig::default()
        },
        &state_dir,
    )
    .map_err(transport)?;

    let n_ids = config.hot.clamp(1, 16);
    for rank in 0..n_ids {
        cluster.enroll(&mut rng, &ident(rank))?;
    }
    let client = cluster
        .client_with(ClientConfig {
            request_timeout: Duration::from_secs(2),
            max_retries: 1,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            backoff_seed: Some(config.seed),
            ..ClientConfig::default()
        })?
        .with_hedge(HedgeConfig { extra: 1 });
    let curve = cluster.params().curve().clone();
    let u_point = curve.mul_generator(&curve.random_scalar(&mut rng));
    let zipf = Zipf::new(n_ids);

    let kill_at = config.requests / 3;
    let restart_at = 2 * config.requests / 3;
    let mut quiet_samples: Vec<Duration> = Vec::new();
    let mut loaded_samples: Vec<Duration> = Vec::new();
    let mut failures = 0u64;
    let mut cheat_events = 0u64;
    for i in 0..config.requests {
        if i == kill_at {
            cluster.kill(2);
        }
        if i == restart_at {
            cluster.restart(2).map_err(transport)?;
        }
        let id = ident(zipf.sample(&mut rng));
        let at = Instant::now();
        match client.token(&id, &u_point) {
            Ok(outcome) => cheat_events += outcome.stats.cheaters.len() as u64,
            Err(_) => failures += 1,
        }
        let elapsed = at.elapsed();
        if i < kill_at {
            quiet_samples.push(elapsed);
        } else {
            loaded_samples.push(elapsed);
        }
    }

    let addr = cluster.addrs().first().copied().ok_or(Error::Transport)?;
    let served = |cluster: &SemCluster| cluster.metrics().map(|m| m.counters().served).unwrap_or(0);
    let probe = Request {
        op: Op::TokenShare,
        id: ident(0),
        body: curve.point_to_bytes(&u_point),
    };
    let duplicate_executions = idempotency_probe(addr, || served(&cluster), &probe)?;

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);

    let observation = SloObservation {
        quiet_p99_us: quantile_us(&mut quiet_samples, 0.99),
        loaded_p99_us: quantile_us(&mut loaded_samples, 0.99),
        requests: config.requests as u64,
        failures,
        duplicate_executions,
        cheat_events,
        // Filled by `with_lockdep_gate` around the run.
        lockdep_violations: 0,
    };
    Ok(ScenarioOutcome::grade(
        "replica_kill_rejoin_during_spike",
        config.seed,
        spec,
        observation,
    ))
}

/// Scenario 4: retrying clients behind a seeded mobile-grade fault
/// link ([`FaultProfile::mobile`]: drops, corruption, truncation,
/// delay).
///
/// Quiet baseline over a clean proxy; loaded phase over the faulted
/// proxy with three sequential [`TcpSemClient`]s (sequential, because
/// the fault plan indexes frames globally — concurrency would
/// de-determinize the schedule) using jittered full backoff and
/// reconnect-on-truncation. The gate that matters: the server's
/// `served` counter may not exceed the number of *logical* requests —
/// every retry and reconnect must land in the `(session, req_id)`
/// idempotency window rather than re-executing. The error budget
/// covers corruption-induced refusals (a corrupted frame is a
/// poisoned request, not a retryable transport error); the p99 ratio
/// is graded at 500× — a retry after a dropped reply costs a full
/// request timeout, three orders of magnitude above a clean
/// loopback round trip.
///
/// # Errors
///
/// Harness failures only (server/proxy/client setup).
pub fn flaky_mobile_clients(config: &ScenarioConfig) -> Result<ScenarioOutcome, Error> {
    let spec = SloSpec {
        max_p99_ratio: 500.0,
        error_budget: 0.05,
        max_duplicate_executions: 0,
        max_cheat_events: 0,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pkg = Pkg::setup(&mut rng, CurveParams::fast_insecure());
    let server = TcpSemServer::bind_with(
        "127.0.0.1:0",
        pkg.params().clone(),
        ServerConfig {
            workers: 2,
            brownout_watermark: config.brownout_watermark,
            ..ServerConfig::default()
        },
    )
    .map_err(transport)?;
    for rank in 0..config.hot {
        server.install_ibe(pkg.extract_split(&mut rng, &ident(rank)).1);
    }
    let curve = pkg.params().curve();
    let u_point = curve.mul_generator(&curve.random_scalar(&mut rng));
    let zipf = Zipf::new(config.hot);

    let client_config = |seed: u64| ClientConfig {
        request_timeout: Duration::from_millis(500),
        max_retries: 4,
        overload_retries: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        backoff_seed: Some(seed),
        ..ClientConfig::default()
    };

    // Quiet baseline over a clean link proxy (same path length as the
    // faulted phase, so the ratio isolates the faults).
    let quiet_proxy = FaultProxy::spawn_linked(
        server.local_addr(),
        FaultPlan::clean(),
        FaultPlan::clean(),
        Duration::from_millis(2),
    )
    .map_err(transport)?;
    let mut quiet_samples: Vec<Duration> =
        Vec::with_capacity(config.requests.min(MAX_PHASE_SAMPLES));
    let mut failures = 0u64;
    {
        let mut client = TcpSemClient::connect_with(
            quiet_proxy.local_addr(),
            pkg.params().clone(),
            client_config(config.seed ^ 0xA0),
        )
        .map_err(transport)?;
        let mut qrng = StdRng::seed_from_u64(config.seed ^ 0xA1);
        for _ in 0..config.requests {
            let id = ident(zipf.sample(&mut qrng));
            let at = Instant::now();
            if client.ibe_token(&id, &u_point).is_err() {
                failures += 1;
            }
            quiet_samples.push(at.elapsed());
        }
    }
    let quiet_p99_us = quantile_us(&mut quiet_samples, 0.99);

    let flaky_proxy = FaultProxy::spawn_linked(
        server.local_addr(),
        FaultPlan::seeded(config.seed ^ 0xF1, FaultProfile::mobile()),
        FaultPlan::seeded(config.seed ^ 0xF2, FaultProfile::mobile()),
        Duration::from_millis(2),
    )
    .map_err(transport)?;
    let served_before = server.metrics().counters().served;
    let mut loaded_samples: Vec<Duration> =
        Vec::with_capacity(config.requests.min(MAX_PHASE_SAMPLES));
    let mut logical = 0u64;
    let per_client = config.requests.div_ceil(3);
    for client_index in 0..3u64 {
        let mut client = TcpSemClient::connect_with(
            flaky_proxy.local_addr(),
            pkg.params().clone(),
            client_config(config.seed ^ (0xB0 + client_index)),
        )
        .map_err(transport)?;
        let mut crng = StdRng::seed_from_u64(config.seed ^ (0xC0 + client_index));
        for _ in 0..per_client {
            if logical >= config.requests as u64 {
                break;
            }
            let id = ident(zipf.sample(&mut crng));
            let at = Instant::now();
            if client.ibe_token(&id, &u_point).is_err() {
                failures += 1;
            }
            loaded_samples.push(at.elapsed());
            logical += 1;
        }
    }
    let loaded_p99_us = quantile_us(&mut loaded_samples, 0.99);
    // Every retry/reconnect re-sends under the same `(session,
    // req_id)`; executions beyond one per logical request are
    // idempotency-window escapes.
    let duplicate_executions = server
        .metrics()
        .counters()
        .served
        .saturating_sub(served_before)
        .saturating_sub(logical);

    let observation = SloObservation {
        quiet_p99_us,
        loaded_p99_us,
        requests: config.requests as u64 + logical,
        failures,
        duplicate_executions,
        cheat_events: 0,
        // Filled by `with_lockdep_gate` around the run.
        lockdep_violations: 0,
    };
    server.shutdown();
    Ok(ScenarioOutcome::grade(
        "flaky_mobile_clients",
        config.seed,
        spec,
        observation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditConfig, AuditLog, Capability, MetricsSnapshot, Outcome};

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            hot: 6,
            requests: 30,
            rollover_chunk: 4,
            brownout_watermark: 0,
        }
    }

    #[test]
    fn slo_margins_grade_inclusively() {
        let spec = SloSpec {
            max_p99_ratio: 2.0,
            error_budget: 0.01,
            max_duplicate_executions: 0,
            max_cheat_events: 0,
        };
        let obs = SloObservation {
            quiet_p99_us: 100.0,
            loaded_p99_us: 200.0,
            requests: 100,
            failures: 1,
            duplicate_executions: 0,
            cheat_events: 0,
            lockdep_violations: 0,
        };
        let margins = spec.evaluate(&obs);
        assert!(margins.iter().all(|m| m.pass), "{margins:?}");
        assert_eq!(margins.len(), 5);
        // One failure past the budget flips exactly the error-rate
        // margin.
        let worse = SloObservation { failures: 2, ..obs };
        let margins = spec.evaluate(&worse);
        assert!(!margins[1].pass);
        assert!(margins[1].margin < 0.0);
        assert!(margins[0].pass && margins[2].pass && margins[3].pass && margins[4].pass);
        // A single lockdep violation fails its (hard-zero) margin.
        let inverted = SloObservation {
            failures: 1,
            lockdep_violations: 1,
            ..obs
        };
        let margins = spec.evaluate(&inverted);
        assert!(!margins[4].pass);
        assert_eq!(margins[4].name, "lockdep_violations");
    }

    #[test]
    fn p99_ratio_defaults_to_one_without_baseline() {
        let obs = SloObservation {
            loaded_p99_us: 500.0,
            ..SloObservation::default()
        };
        assert_eq!(obs.p99_ratio(), 1.0);
        assert_eq!(obs.error_rate(), 0.0);
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let zipf = Zipf::new(16);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let draws_a: Vec<usize> = (0..256).map(|_| zipf.sample(&mut a)).collect();
        let draws_b: Vec<usize> = (0..256).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(draws_a, draws_b);
        let head = draws_a.iter().filter(|&&r| r == 0).count();
        let tail = draws_a.iter().filter(|&&r| r == 15).count();
        assert!(head > tail, "head {head} tail {tail}");
        assert!(draws_a.iter().all(|&r| r < 16));
    }

    #[test]
    fn run_scenario_rejects_unknown_names() {
        assert!(run_scenario("no_such_scenario", &tiny()).is_none());
    }

    #[test]
    fn mass_revocation_storm_meets_deterministic_slos() {
        let outcome = mass_revocation_storm(&tiny()).unwrap();
        assert_eq!(outcome.name, "mass_revocation_storm");
        assert!(outcome.deterministic_pass(), "margins: {:?}", outcome.slos);
        assert_eq!(outcome.observation.failures, 0);
        assert_eq!(outcome.observation.duplicate_executions, 0);
        assert_eq!(outcome.observation.requests, 2 * 30);
    }

    #[test]
    fn epoch_rollover_under_load_meets_deterministic_slos() {
        // Its p99 over 30 microsecond lookups is their maximum, so one
        // preempted sample breaks the timing SLO. That margin is only
        // recorded, as in the other scenarios: the check is that it
        // was graded, not that it passed.
        let outcome = epoch_rollover_under_load(&tiny()).unwrap();
        assert!(outcome.deterministic_pass(), "margins: {:?}", outcome.slos);
        let timing = outcome.margin("p99_ratio").expect("p99_ratio graded");
        assert!(timing.timing && timing.actual.is_finite() && timing.actual > 0.0);
        assert_eq!(outcome.observation.failures, 0);
        assert_eq!(outcome.observation.duplicate_executions, 0);
    }

    #[test]
    fn replica_kill_rejoin_meets_deterministic_slos() {
        let outcome = replica_kill_rejoin_during_spike(&tiny()).unwrap();
        assert!(outcome.deterministic_pass(), "margins: {:?}", outcome.slos);
        assert_eq!(outcome.observation.failures, 0);
        assert_eq!(outcome.observation.cheat_events, 0);
        assert_eq!(outcome.observation.duplicate_executions, 0);
    }

    #[test]
    fn flaky_mobile_clients_meets_deterministic_slos() {
        let outcome = flaky_mobile_clients(&tiny()).unwrap();
        assert!(
            outcome.deterministic_pass(),
            "margins: {:?} observation: {:?}",
            outcome.slos,
            outcome.observation
        );
        assert_eq!(outcome.observation.duplicate_executions, 0);
    }

    // Satellite: SLO verdicts must be a function of the *merged*
    // metrics, not the merge order — replicas report in whatever order
    // they answer, and a scenario graded from `a.merge(b)` must equal
    // one graded from `b.merge(a)`.
    proptest::proptest! {
        #[test]
        fn slo_verdicts_stable_under_metrics_merge_order(
            served in proptest::collection::vec(0u64..20, 2..5),
            refused in proptest::collection::vec(0u64..5, 2..5),
            quiet in 1u64..1000,
            loaded in 1u64..3000,
        ) {
            let spec = SloSpec {
                max_p99_ratio: 2.0,
                error_budget: 0.05,
                max_duplicate_executions: 0,
                max_cheat_events: 0,
            };
            let snapshots: Vec<MetricsSnapshot> = served
                .iter()
                .zip(refused.iter().cycle())
                .map(|(&ok, &bad)| {
                    let audit = AuditLog::with_config(AuditConfig::default());
                    for _ in 0..ok {
                        audit.record(
                            "user-a",
                            Capability::IbeDecrypt,
                            Outcome::Served,
                            32,
                            Duration::from_micros(50),
                        );
                    }
                    for _ in 0..bad {
                        audit.record(
                            "user-b",
                            Capability::IbeDecrypt,
                            Outcome::RefusedRevoked,
                            0,
                            Duration::from_micros(10),
                        );
                    }
                    audit.metrics()
                })
                .collect();

            let fold = |order: &[MetricsSnapshot]| -> SloObservation {
                let mut merged = order[0].clone();
                for s in &order[1..] {
                    merged.merge(s);
                }
                let counters = merged.counters();
                SloObservation {
                    quiet_p99_us: quiet as f64,
                    loaded_p99_us: loaded as f64,
                    requests: counters.served + counters.refused,
                    failures: counters.refused,
                    duplicate_executions: 0,
                    cheat_events: 0,
                    lockdep_violations: 0,
                }
            };
            let forward = fold(&snapshots);
            let mut reversed_order = snapshots.clone();
            reversed_order.reverse();
            let reversed = fold(&reversed_order);

            proptest::prop_assert_eq!(forward, reversed);
            let verdict_fwd: Vec<bool> =
                spec.evaluate(&forward).iter().map(|m| m.pass).collect();
            let verdict_rev: Vec<bool> =
                spec.evaluate(&reversed).iter().map(|m| m.pass).collect();
            proptest::prop_assert_eq!(verdict_fwd, verdict_rev);
        }
    }
}
