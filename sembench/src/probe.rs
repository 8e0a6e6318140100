//! The traced run's probe: replays of the request paths a workload does
//! not take, on small seeded inputs, so every traced run reports every
//! per-layer row. A workload's own replay (on its own requests) always
//! takes precedence over the probe's for a call both make.

use crate::common::Run;
use crate::inputs::{self, tag, Ask, Stream};
use crate::layers::{self, QuorumCase};
use crate::quorum::QuorumInputs;
use crate::sign_churn::SignInputs;
use crate::token_hot::TokenInputs;
use crate::trace::Tracer;
use sempair_core::gdh::GdhSem;
use sempair_core::mediated::SemKey;
use sempair_net::cluster::SemCluster;
use sempair_net::proto::Op;
use sempair_net::tcp::ServerConfig;
use sempair_pairing::CurveParams;
use std::time::Instant;

/// Calls per probed path.
const CASES: usize = 16;
/// Request identifiers of probe spans start here.
const PROBE_BASE: u64 = 2_000_000;

/// Which paths to probe.
pub struct Probe {
    token: bool,
    sign: bool,
    quorum: bool,
    cluster: bool,
}

impl Probe {
    pub fn for_token_hot() -> Self {
        Probe {
            token: false,
            sign: true,
            quorum: true,
            cluster: true,
        }
    }

    pub fn for_sign_churn() -> Self {
        Probe {
            token: true,
            sign: false,
            quorum: true,
            cluster: true,
        }
    }

    pub fn for_quorum() -> Self {
        Probe {
            token: true,
            sign: true,
            quorum: false,
            cluster: false,
        }
    }
}

/// What one quorum token request observed, averaged.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    pub asked_per_token: f64,
    pub hedged_frac: f64,
    pub wave_mean_ms: f64,
}

impl ClusterStats {
    pub fn from_outcomes(outcomes: &[sempair_net::cluster::QuorumStats]) -> Self {
        let n = outcomes.len().max(1) as f64;
        ClusterStats {
            asked_per_token: outcomes.iter().map(|s| s.asked as f64).sum::<f64>() / n,
            hedged_frac: outcomes.iter().filter(|s| s.hedged).count() as f64 / n,
            wave_mean_ms: outcomes
                .iter()
                .map(|s| s.elapsed.as_secs_f64() * 1e3)
                .sum::<f64>()
                / n,
        }
    }
}

pub struct ProbeResult {
    pub tracer: Tracer,
    /// Set when the probe ran a cluster.
    pub cluster: Option<ClusterStats>,
}

pub fn run(run: &Run, probe: Probe) -> Result<ProbeResult, String> {
    let seed = run.seed ^ tag::PROBE;
    let mut tracer = Tracer::new(Instant::now());
    let mut rng = inputs::rng(seed, tag::PROBE);
    let mut base = PROBE_BASE;
    if probe.token {
        let inputs = TokenInputs::generate(seed, CASES, 0, 4);
        let cases: Vec<(SemKey, Vec<u8>)> = (0..CASES)
            .map(|k| (inputs.keys[k].clone(), inputs.u_bytes[k % 4].clone()))
            .collect();
        layers::replay_token(&mut tracer, &inputs.params, &cases, base);
        base += CASES as u64;
    }
    if probe.sign {
        let inputs = SignInputs::generate(seed, CASES);
        let mut sem = GdhSem::new();
        for key in &inputs.sem_keys {
            sem.install(key.clone());
        }
        let mut stream = Stream::new(seed, 0, Op::GdhHalfSign, CASES, 1);
        let cases: Vec<(String, Vec<u8>)> = (0..CASES)
            .map(|_| match stream.next_ask() {
                Ask::Sign { rank, message } => (sempair_net::scenario::ident(rank), message),
                Ask::Token { .. } => unreachable!("signing stream"),
            })
            .collect();
        layers::replay_sign(&mut tracer, &inputs.params, &sem, &cases, &mut rng, base);
        base += CASES as u64;
    }
    if probe.quorum {
        let inputs = QuorumInputs::generate(seed, 2, CASES, 0);
        let cases: Vec<QuorumCase> = inputs.cases(seed, CASES)?;
        layers::replay_quorum(&mut tracer, inputs.pkg.params(), &cases, &mut rng, base);
        base += CASES as u64;
    }
    let journal = run.state_dir.join("probe.journal");
    let curve = CurveParams::paper_default();
    layers::probe_kernels(&mut tracer, &curve, &mut rng, &journal, CASES, base)
        .map_err(|e| format!("kernel probe: {e}"))?;

    let cluster = if probe.cluster {
        Some(cluster_probe(run, seed)?)
    } else {
        None
    };
    Ok(ProbeResult { tracer, cluster })
}

/// A small (2, 3) cluster with default settings: enough quorum tokens
/// to fill the `cluster.*` rows for workloads that have no cluster.
fn cluster_probe(run: &Run, seed: u64) -> Result<ClusterStats, String> {
    let inputs = QuorumInputs::generate(seed, 2, CASES, 0);
    let dir = run.state_dir.join("probe-cluster");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = SemCluster::start(
        QuorumInputs::fresh_pkg(seed),
        2,
        3,
        ServerConfig::default(),
        &dir,
    )
    .map_err(|e| format!("probe cluster: {e}"))?;
    let mut enroll = inputs::rng(seed, tag::ENROLL);
    for id in &inputs.ids {
        cluster
            .enroll(&mut enroll, id)
            .map_err(|e| format!("probe enrol: {e}"))?;
    }
    let client = cluster.client().map_err(|e| format!("probe client: {e}"))?;
    let mut outcomes = Vec::new();
    for (id, ciphertext, _) in &inputs.ciphertexts {
        let outcome = client
            .token(id, &ciphertext.u)
            .map_err(|e| format!("probe quorum token: {e}"))?;
        outcomes.push(outcome.stats);
    }
    drop(client);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ClusterStats::from_outcomes(&outcomes))
}
