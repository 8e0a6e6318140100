//! `quorum_decrypt`: §3 threshold IBE through a (2, 3) `SemCluster`.
//!
//! Two callers in a closed loop, one decryption in flight each, sharing
//! one `QuorumClient` (see README.md for why not one caller): each
//! iteration runs
//! `QuorumClient::token` — hedged fan-out to the replicas over v1
//! frames served inline on their reader threads, a robust share with
//! its NIZK from each, verification of every share — and then
//! `UserKey::finish_decrypt` on a pre-generated FullIdent ciphertext,
//! and compares the plaintext with the one encrypted. Revocation churn
//! runs on dormant enrolled identities across all three journaled
//! replicas.

use crate::common::{self, ChurnEvent, Report, Run, REPLAY};
use crate::inputs::{self, tag};
use crate::layers::{self, QuorumCase};
use crate::phases::{self, LayerFacts, REFERENCE};
use crate::probe::{self, ClusterStats, Probe};
use crate::stats::{Samples, P50, P99};
use crate::trace::Tracer;
use rand::RngCore;
use sempair_core::bf_ibe::{FullCiphertext, IbePublicParams, Pkg};
use sempair_core::mediated::UserKey;
use sempair_net::cluster::{QuorumClient, QuorumStats, SemCluster};
use sempair_net::scenario::ident;
use sempair_net::tcp::ServerConfig;
use sempair_pairing::CurveParams;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const THRESHOLD: usize = 2;
const REPLICAS: usize = 3;
/// Enrolled identities that the loop decrypts for.
const IDS: usize = 16;
/// Pre-generated ciphertexts the loop cycles through.
const CIPHERTEXTS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Dormant enrolled identities the churn revokes.
const DORMANT: usize = 8;
/// Concurrent callers, each with one decryption in flight.
const CALLERS: u64 = 2;
/// Decryptions the loop completes at the least, running past its end
/// time if the host is slow: a p99 needs 1,000 samples (ten beyond it).
const MIN_DECRYPTIONS: usize = 1_050;

/// Seeded inputs: the PKG, identities and ciphertexts with their
/// plaintexts.
pub struct QuorumInputs {
    pub pkg: Pkg,
    pub ids: Vec<String>,
    pub dormant: Vec<String>,
    /// `(identity, ciphertext, plaintext)`.
    pub ciphertexts: Vec<(String, FullCiphertext, Vec<u8>)>,
}

impl QuorumInputs {
    /// The workload's PKG; deterministic in `seed`, so each set-up can
    /// hand a fresh one to `SemCluster::start`.
    pub fn fresh_pkg(seed: u64) -> Pkg {
        Pkg::setup(
            &mut inputs::rng(seed, tag::PKG),
            CurveParams::paper_default(),
        )
    }

    pub fn generate(seed: u64, ids: usize, ciphertexts: usize, dormant: usize) -> Self {
        let pkg = Self::fresh_pkg(seed);
        let ids: Vec<String> = (0..ids).map(ident).collect();
        let dormant = (0..dormant).map(|i| format!("dormant-{i:04}")).collect();
        let plan: Vec<(usize, String)> = (0..ciphertexts)
            .map(|k| (k, ids[k % ids.len()].clone()))
            .collect();
        let ciphertexts = inputs::parallel_map(&plan, |(k, id)| {
            let mut rng = inputs::rng(seed ^ *k as u64, tag::CIPHERTEXTS);
            let mut plaintext = vec![0u8; 32];
            rng.fill_bytes(&mut plaintext);
            let ciphertext = pkg
                .params()
                .encrypt_full(&mut rng, id, &plaintext)
                .expect("FullIdent encryption is infallible");
            (id.clone(), ciphertext, plaintext)
        });
        QuorumInputs {
            pkg,
            ids,
            dormant,
            ciphertexts,
        }
    }

    /// Replay cases for the first `n` ciphertexts, with each identity's
    /// key dealt here the way `SemCluster::enroll` deals it.
    pub fn cases(&self, seed: u64, n: usize) -> Result<Vec<QuorumCase>, String> {
        let mut dealt = HashMap::new();
        for id in &self.ids {
            let mut rng = inputs::rng_for(seed, tag::ENROLL, id);
            let (user, tpkg, shares) = self
                .pkg
                .extract_split_threshold(&mut rng, id, THRESHOLD, REPLICAS)
                .map_err(|e| format!("dealing: {e}"))?;
            dealt.insert(id.clone(), (user, tpkg.system().clone(), shares));
        }
        Ok(self
            .ciphertexts
            .iter()
            .cycle()
            .take(n)
            .map(|(id, ciphertext, plaintext)| {
                let (user, system, shares) = &dealt[id];
                QuorumCase {
                    id: id.clone(),
                    user: user.clone(),
                    shares: shares.clone(),
                    system: system.clone(),
                    ciphertext: ciphertext.clone(),
                    plaintext: plaintext.clone(),
                }
            })
            .collect())
    }
}

/// One closed-loop iteration.
struct Iteration {
    id: String,
    start: Instant,
    end: Instant,
    /// `Some` when the plaintext came back; whether it matched.
    matched: Option<bool>,
    stats: Option<QuorumStats>,
}

/// The closed loop: what its callers share.
struct ClosedLoop<'a> {
    client: &'a QuorumClient,
    inputs: &'a QuorumInputs,
    users: &'a HashMap<String, UserKey>,
    params: &'a IbePublicParams,
}

impl ClosedLoop<'_> {
    /// [`CALLERS`] callers until `end`, and past it until
    /// `min_decryptions` are done (at most three times the planned
    /// length); each caller's iterations in order.
    fn run(
        &self,
        seed: u64,
        end: Instant,
        min_decryptions: usize,
        plant_wrong: bool,
    ) -> Vec<Vec<Iteration>> {
        let done = AtomicUsize::new(0);
        let deadline = Instant::now() + 3 * end.saturating_duration_since(Instant::now());
        let more = || {
            let now = Instant::now();
            now < deadline && (now < end || done.load(Ordering::Relaxed) < min_decryptions)
        };
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let (more, done) = (&more, &done);
                    scope.spawn(move || self.caller(seed ^ c, more, done, plant_wrong && c == 0))
                })
                .collect();
            callers
                .into_iter()
                .map(|h| h.join().expect("quorum caller thread"))
                .collect()
        })
    }

    /// Token plus decryption while `more()`, ciphertexts picked by a
    /// seeded generator; `done` counts the decryptions of all callers.
    fn caller(
        &self,
        seed: u64,
        more: &impl Fn() -> bool,
        done: &AtomicUsize,
        plant_wrong: bool,
    ) -> Vec<Iteration> {
        let mut picks = inputs::rng(seed, tag::STREAM);
        let mut iterations = Vec::new();
        while more() {
            let k = (picks.next_u64() % self.inputs.ciphertexts.len() as u64) as usize;
            let (id, ciphertext, plaintext) = &self.inputs.ciphertexts[k];
            let start = Instant::now();
            let outcome = self.client.token(id, &ciphertext.u).and_then(|o| {
                self.users[id]
                    .finish_decrypt(self.params, ciphertext, &o.token)
                    .map(|pt| (pt, o.stats))
            });
            let end = Instant::now();
            let (matched, stats) = match outcome {
                Ok((pt, stats)) => {
                    let mut expected = plaintext.clone();
                    if plant_wrong && iterations.is_empty() {
                        expected[0] ^= 1;
                    }
                    (Some(pt == expected), Some(stats))
                }
                Err(_) => (None, None),
            };
            done.fetch_add(1, Ordering::Relaxed);
            iterations.push(Iteration {
                id: id.clone(),
                start,
                end,
                matched,
                stats,
            });
        }
        iterations
    }
}

fn latencies<'a>(iterations: impl IntoIterator<Item = &'a Iteration>) -> Samples {
    let mut samples = Samples::default();
    for it in iterations.into_iter().filter(|it| it.matched == Some(true)) {
        samples.push(common::ms(it.end - it.start));
    }
    samples
}

pub fn run(run: &Run) -> Result<Report, String> {
    let scale = &run.scale;
    let inputs = QuorumInputs::generate(run.seed, IDS, CIPHERTEXTS, DORMANT);
    let params = inputs.pkg.params().clone();

    let mut setups = Vec::new();
    let mut live: Option<(SemCluster, HashMap<String, UserKey>, QuorumClient)> = None;
    for rep in 0..SETUPS {
        if let Some((old, _, client)) = live.take() {
            drop(client);
            old.shutdown();
        }
        let pkg = QuorumInputs::fresh_pkg(run.seed);
        let dir = run.state_dir.join(format!("cluster-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut enroll = inputs::rng(run.seed, tag::ENROLL);
        let t0 = Instant::now();
        let mut cluster =
            SemCluster::start(pkg, THRESHOLD, REPLICAS, ServerConfig::default(), &dir)
                .map_err(|e| format!("cluster start: {e}"))?;
        let mut users = HashMap::new();
        for id in inputs.ids.iter().chain(&inputs.dormant) {
            let user = cluster
                .enroll(&mut enroll, id)
                .map_err(|e| format!("enrol: {e}"))?;
            users.insert(id.clone(), user);
        }
        let client = cluster.client().map_err(|e| format!("client: {e}"))?;
        setups.push(t0.elapsed());
        live = Some((cluster, users, client));
    }
    let (mut cluster, users, client) = live.ok_or("no set-up ran")?;
    let addrs = cluster.addrs();
    let seconds = Duration::from_secs_f64(run.seconds);
    let schedule = inputs::churn_schedule(
        run.seed,
        &inputs.dormant,
        seconds / scale.light_revocations as u32,
        seconds,
    );
    let mut apply = |id: &str, revoke: bool| {
        if revoke {
            cluster.revoke(id)
        } else {
            cluster.unrevoke(id)
        }
    };
    let origin = Instant::now();
    let closed = ClosedLoop {
        client: &client,
        inputs: &inputs,
        users: &users,
        params: &params,
    };

    let mut reference_p50_ms = None;
    if run.trace {
        let head: Vec<_> = schedule
            .iter()
            .filter(|r| r.at < REFERENCE)
            .cloned()
            .collect();
        let start = Instant::now();
        let (callers, _) = common::with_churn(start, &head, &mut apply, || {
            closed.run(run.seed ^ 0x7EF, start + REFERENCE, 0, false)
        });
        let mut reference = latencies(callers.iter().flatten());
        reference_p50_ms = Some(reference.percentile(P50, "reference loop")?);
    }
    let snap0 = if run.trace {
        Some(common::read_stats(&addrs, &params)?)
    } else {
        None
    };
    let start = Instant::now();
    let (callers, churn) = common::with_churn(start, &schedule, &mut apply, || {
        closed.run(run.seed, start + seconds, MIN_DECRYPTIONS, run.plant_wrong)
    });
    let iterations: Vec<&Iteration> = callers.iter().flatten().collect();
    let loop_time = iterations
        .iter()
        .map(|it| it.end.duration_since(start))
        .max()
        .unwrap_or(seconds);

    let mut report = Report::default();
    let attempted = iterations.len() as u64;
    let served = iterations
        .iter()
        .filter(|it| it.matched == Some(true))
        .count() as u64;
    let wrong = iterations
        .iter()
        .filter(|it| it.matched == Some(false))
        .count() as u64;
    let served_after_revoke = served_after_revoke(&iterations, &churn);
    report.attempted = attempted;
    report.failed = attempted - served + served_after_revoke;
    report.correct = wrong == 0 && served_after_revoke == 0;
    report.notes.push(format!(
        "{attempted} quorum decryptions in {:.2} s, every plaintext compared: {wrong} wrong, {} \
         failed",
        loop_time.as_secs_f64(),
        attempted - served - wrong
    ));

    common::setup_metric(&mut report, &setups);
    let mut latency = latencies(iterations.iter().copied());
    report.metric("p50_ms", latency.percentile(P50, "latency")?, "ms");
    report.metric("p99_ms", latency.percentile(P99, "latency")?, "ms");
    report.metric(
        "throughput_rps",
        served as f64 / loop_time.as_secs_f64(),
        "1/s",
    );
    common::revoke_metric(&mut report, &churn)?;
    report.metric("peak_rss_mb", common::peak_rss_mb()?, "MB");

    if run.trace {
        let snap = common::read_stats(&addrs, &params)?;
        let snapshots = [snap0.ok_or("no stats read")?, snap.clone(), snap];
        let mut own = Tracer::new(origin);
        for (i, it) in iterations.iter().enumerate() {
            own.record("client.request", i as u64 + 1, it.start, it.end);
        }
        let cases = inputs.cases(run.seed, REPLAY)?;
        let mut rng = inputs::rng(run.seed, tag::SAMPLE ^ 0x0C);
        layers::replay_quorum(&mut own, &params, &cases, &mut rng, phases::REPLAY_BASE);
        let probe = probe::run(run, Probe::for_quorum())?;
        let outcomes: Vec<QuorumStats> = iterations
            .iter()
            .filter_map(|it| it.stats.clone())
            .collect();
        let mut gaps = Samples::default();
        for caller in &callers {
            for pair in caller.windows(2) {
                gaps.push(common::ms(
                    pair[1].start.saturating_duration_since(pair[0].end),
                ));
            }
        }
        let facts = LayerFacts {
            snapshots: Some(&snapshots),
            client_open_mean_ms: latency.mean(),
            shed: 0,
            refused_revoked: 0,
            served_after_revoke,
            churn: &churn,
            appends_per_revoke: REPLICAS as f64,
            offered_rps: attempted as f64 / loop_time.as_secs_f64(),
            sent: attempted,
            late_p99_ms: gaps.percentile(P99, "generator gap")?,
            traced_p50_ms: latency.percentile(P50, "latency")?,
            reference_p50_ms: reference_p50_ms.ok_or("no reference pass")?,
        };
        let stats = ClusterStats::from_outcomes(&outcomes);
        phases::layer_rows(&mut report, facts, &stats, own, probe)?;
    }
    drop(client);
    cluster.shutdown();
    Ok(report)
}

/// Decryptions for an identity that were served although they started
/// after its `revoke` returned and finished before `unrevoke` was
/// called.
fn served_after_revoke(iterations: &[&Iteration], churn: &[ChurnEvent]) -> u64 {
    let windows = common::windows_by_target(churn);
    iterations
        .iter()
        .filter(|it| it.matched.is_some())
        .filter(|it| {
            windows.get(it.id.as_str()).is_some_and(|events| {
                events
                    .iter()
                    .any(|e| e.revoke_ret <= it.start && it.end <= e.unrevoke_call)
            })
        })
        .count() as u64
}
