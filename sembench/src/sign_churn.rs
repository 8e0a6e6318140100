//! `sign_churn`: §5 mediated GDH half-signatures while identities are
//! revoked and reinstated.
//!
//! 1,024 enrolled signers, Zipf(s = 1), unique 64-byte messages,
//! against a journal-backed SEM. A churn thread revokes a fixed set of
//! warm signers (Zipf ranks 4 to 67) on a fixed schedule and reinstates
//! each 50 ms later, so requests meet revoked identities and the
//! refusal path; every `revoke` appends to the journal with an fsync and
//! takes its shard's write lock behind readers holding it during the
//! crypto. Phases as in `token_hot`: open loop for latency, saturation
//! for capacity.

use crate::common::{Report, Run, REPLAY};
use crate::inputs::{self, tag, Ask};
use crate::layers;
use crate::loadgen;
use crate::phases;
use crate::probe::{self, Probe};
use crate::trace::Tracer;
use rand::RngCore;
use sempair_core::bf_ibe::{IbePublicParams, Pkg};
use sempair_core::gdh::{self, GdhSem, GdhSemKey, GdhUser, HalfSignature};
use sempair_net::proto::Op;
use sempair_net::scenario::ident;
use sempair_net::tcp::{ServerConfig, TcpSemServer};
use sempair_pairing::CurveParams;
use std::time::Instant;

/// Enrolled signers.
const SIGNERS: usize = 1024;
/// Set-ups per run; `setup_s` is their median. Many, because one takes
/// well under a millisecond.
const SETUPS: usize = 25;
/// Open-loop arrival rate (requests per second).
const RATE: f64 = 400.0;
/// Revocations during the open loop: the churn is this workload.
const REVOCATIONS: usize = 2200;
/// The churned signers: warm ranks, so revocations meet traffic.
const CHURN_RANKS: std::ops::Range<usize> = 4..68;

/// Seeded inputs: public parameters and every signer's split key.
pub struct SignInputs {
    pub params: IbePublicParams,
    pub users: Vec<GdhUser>,
    pub sem_keys: Vec<GdhSemKey>,
}

impl SignInputs {
    pub fn generate(seed: u64, signers: usize) -> Self {
        let pkg = Pkg::setup(
            &mut inputs::rng(seed, tag::PKG),
            CurveParams::paper_default(),
        );
        let curve = pkg.params().curve();
        let names: Vec<String> = (0..signers).map(ident).collect();
        let keys = inputs::parallel_map(&names, |name| {
            let (user, sem, _) =
                gdh::mediated_keygen(&mut inputs::rng_for(seed, tag::KEYS, name), curve, name);
            (user, sem)
        });
        let (users, sem_keys) = keys.into_iter().unzip();
        SignInputs {
            params: pkg.params().clone(),
            users,
            sem_keys,
        }
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let scale = &run.scale;
    let inputs = SignInputs::generate(run.seed, SIGNERS);
    let params = &inputs.params;
    let curve = params.curve();
    std::fs::create_dir_all(&run.state_dir).map_err(|e| format!("state dir: {e}"))?;

    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUPS {
        if let Some(old) = server.take() {
            TcpSemServer::shutdown(old);
        }
        let journal = run.state_dir.join(format!("sign-{rep}.journal"));
        let _ = std::fs::remove_file(&journal);
        let t0 = Instant::now();
        let (s, _) = TcpSemServer::bind_with_journal(
            "127.0.0.1:0",
            params.clone(),
            ServerConfig::default(),
            &journal,
        )
        .map_err(|e| format!("bind: {e}"))?;
        for key in &inputs.sem_keys {
            s.install_gdh(key.clone());
        }
        setups.push(t0.elapsed());
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    let addr = server.local_addr();

    let plan = phases::Plan::new(run, Op::GdhHalfSign, SIGNERS, RATE, REVOCATIONS);
    let targets: Vec<String> = CHURN_RANKS.map(ident).collect();
    let schedule = plan.churn(&targets);
    let timed = phases::run_timed(
        run,
        &plan,
        &schedule,
        &[addr],
        params,
        |session, i, ask| loadgen::frame(session, i + 1, ask.request(&[])),
        |id, revoke| {
            if revoke {
                server.revoke(id)
            } else {
                server.unrevoke(id)
            }
        },
    )?;

    let point_len = curve.point_len();
    let mut tally = timed.tally(|_, body| body.len() == point_len);

    // A seeded sample of half-signatures must complete into signatures
    // that verify under the signer's public key.
    let mut mismatches = 0u64;
    let sample = timed.sample_served(run.seed, scale.verify_sample);
    for (n, (ask, body)) in sample.iter().enumerate() {
        let Ask::Sign { rank, message } = ask else {
            unreachable!("signing workload")
        };
        let mut message = message.clone();
        if run.plant_wrong && n == 0 {
            message[0] ^= 1;
        }
        let finished = curve
            .point_from_bytes(body)
            .map_err(|_| ())
            .and_then(|half| {
                inputs.users[*rank]
                    .finish_sign(curve, &message, &HalfSignature(half))
                    .map_err(|_| ())
            });
        if finished.is_err() {
            mismatches += 1;
        }
    }
    let mut report = Report::default();
    report.notes.push(format!(
        "verified {} sampled half-signatures through GdhUser::finish_sign: {mismatches} failed; \
         {} refusals of revoked signers, {} served after revoke",
        sample.len(),
        tally.refused_revoked,
        tally.served_after_revoke
    ));
    tally.finish(&mut report, mismatches);
    crate::common::setup_metric(&mut report, &setups);
    timed.end_to_end(&mut report, &mut tally)?;

    if run.trace {
        let mut own = Tracer::new(timed.origin);
        timed.record_client_spans(&mut own);
        let mut sem = GdhSem::new();
        for key in &inputs.sem_keys {
            sem.install(key.clone());
        }
        let mut rng = inputs::rng(run.seed, tag::SAMPLE ^ 0x5161);
        let cases: Vec<(String, Vec<u8>)> = (0..REPLAY)
            .map(|_| {
                let k = (rng.next_u64() % timed.open_asks.len() as u64) as usize;
                let Ask::Sign { rank, message } = &timed.open_asks[k] else {
                    unreachable!("signing workload")
                };
                (ident(*rank), message.clone())
            })
            .collect();
        layers::replay_sign(
            &mut own,
            params,
            &sem,
            &cases,
            &mut rng,
            phases::REPLAY_BASE,
        );
        let probe = probe::run(run, Probe::for_sign_churn())?;
        let cluster = probe.cluster.clone().ok_or("probe ran no cluster")?;
        let facts = timed.facts(&mut tally, 1.0)?;
        phases::layer_rows(&mut report, facts, &cluster, own, probe)?;
    }
    server.shutdown();
    Ok(report)
}
