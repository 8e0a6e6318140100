//! `token_hot`: §4 mediated-IBE decryption tokens from a warm SEM.
//!
//! 2,048 enrolled identities, Zipf(s = 1), all warmed into the default
//! 4,096-entry half-key cache coldest first, so every timed request is a
//! cache hit: the path is point decode, subgroup check, prepared
//! pairing, the pool queue and the cache tier. An open-loop phase at a
//! fixed Poisson rate gives the latency figures; a closed-loop phase on
//! two pipelined connections gives capacity. Revocation churn runs on
//! dormant enrolled identities that are never requested, so it shows
//! revocation latency under token load without turning any request
//! into a refusal or a cache miss.

use crate::common::{self, Report, Run, REPLAY};
use crate::inputs::{self, tag, Ask};
use crate::layers;
use crate::loadgen;
use crate::phases;
use crate::probe::{self, Probe};
use crate::trace::Tracer;
use rand::RngCore;
use sempair_core::bf_ibe::{IbePublicParams, Pkg};
use sempair_core::mediated::{Sem, SemKey};
use sempair_net::proto::{Op, Request, Status};
use sempair_net::scenario::ident;
use sempair_net::tcp::{ServerConfig, TcpSemServer};
use sempair_pairing::CurveParams;
use std::time::Instant;

/// Dormant identities the churn revokes.
const DORMANT: usize = 32;

/// Seeded inputs: the PKG's public parameters, SEM half-keys and the
/// pool of ciphertext `U` points.
pub struct TokenInputs {
    pub params: IbePublicParams,
    /// Requested identities first (rank order), then the dormant ones.
    pub keys: Vec<SemKey>,
    pub dormant: Vec<String>,
    pub u_bytes: Vec<Vec<u8>>,
}

impl TokenInputs {
    pub fn generate(seed: u64, ids: usize, dormant: usize, u_pool: usize) -> Self {
        let pkg = Pkg::setup(
            &mut inputs::rng(seed, tag::PKG),
            CurveParams::paper_default(),
        );
        let dormant: Vec<String> = (0..dormant).map(|i| format!("dormant-{i:04}")).collect();
        let names: Vec<String> = (0..ids).map(ident).chain(dormant.iter().cloned()).collect();
        let keys = inputs::parallel_map(&names, |name| {
            pkg.extract_split(&mut inputs::rng_for(seed, tag::KEYS, name), name)
                .1
        });
        let curve = pkg.params().curve();
        let mut rng = inputs::rng(seed, tag::U_POOL);
        let u_bytes = (0..u_pool)
            .map(|_| curve.point_to_bytes(&curve.mul_generator(&curve.random_scalar(&mut rng))))
            .collect();
        TokenInputs {
            params: pkg.params().clone(),
            keys,
            dormant,
            u_bytes,
        }
    }
}

/// One set-up: bind, install every half-key, and warm the half-key
/// cache with one token per requested identity, coldest rank first,
/// over one pipelined connection.
fn set_up(inputs: &TokenInputs, requested: usize) -> Result<TcpSemServer, String> {
    let server = TcpSemServer::bind_with(
        "127.0.0.1:0",
        inputs.params.clone(),
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    for key in &inputs.keys {
        server.install_ibe(key.clone());
    }
    let u = &inputs.u_bytes[0];
    let warm = loadgen::saturate(server.local_addr(), 64, phases::far_future(), |i| {
        let i = i as usize;
        (i < requested).then(|| {
            let request = Request {
                op: Op::IbeToken,
                id: ident(requested - 1 - i),
                body: u.clone(),
            };
            loadgen::frame(0, i as u64 + 1, request)
        })
    })
    .map_err(|e| format!("warm pass: {e}"))?;
    let served = warm
        .exchanges
        .iter()
        .filter(|x| matches!(&x.reply, Some((_, r)) if r.status == Status::Ok))
        .count();
    if served != requested {
        return Err(format!("warm pass served {served} of {requested}"));
    }
    Ok(server)
}

pub fn run(run: &Run) -> Result<Report, String> {
    let scale = &run.scale;
    let inputs = TokenInputs::generate(run.seed, scale.token_ids, DORMANT, scale.u_pool);
    let params = &inputs.params;
    let curve = params.curve();

    // The server of the first set-up serves the timed phase; the other
    // set-ups run afterwards, so the peak resident set is that of one
    // server.
    let t0 = Instant::now();
    let server = set_up(&inputs, scale.token_ids)?;
    let mut setups = vec![t0.elapsed()];
    let addr = server.local_addr();

    let plan = phases::Plan::new(
        run,
        Op::IbeToken,
        scale.token_ids,
        scale.token_rate,
        scale.light_revocations,
    );
    let schedule = plan.churn(&inputs.dormant);
    let frame_of = |session: u64, i: u64, ask: &Ask| {
        loadgen::frame(session, i + 1, ask.request(&inputs.u_bytes))
    };
    let apply = |id: &str, revoke: bool| {
        if revoke {
            server.revoke(id)
        } else {
            server.unrevoke(id)
        }
    };
    let timed = phases::run_timed(run, &plan, &schedule, &[addr], params, frame_of, apply)?;

    // Every reply must be a token of the right length; the churn never
    // touches a requested identity, so there are no legitimate refusals.
    let token_len = curve.gt_to_bytes(&curve.gt_one()).len();
    let mut tally = timed.tally(|_, body| body.len() == token_len);

    // A seeded sample of replies must equal the token computed
    // in-process.
    let mut sem = Sem::new();
    for key in &inputs.keys {
        sem.install(key.clone());
    }
    let mut mismatches = 0u64;
    let sample = timed.sample_served(run.seed, scale.verify_sample);
    for (n, (ask, body)) in sample.iter().enumerate() {
        let Ask::Token { rank, u } = ask else {
            unreachable!("token workload")
        };
        let u = curve
            .point_from_bytes(&inputs.u_bytes[*u])
            .map_err(|e| format!("pooled U: {e:?}"))?;
        let token = sem
            .decrypt_token(params, &ident(*rank), &u)
            .map_err(|e| format!("in-process token: {e}"))?;
        let mut expected = curve.gt_to_bytes(&token.0);
        if run.plant_wrong && n == 0 {
            expected[0] ^= 1;
        }
        if expected != *body {
            mismatches += 1;
        }
    }
    let mut report = Report::default();
    report.notes.push(format!(
        "verified {} sampled tokens against Sem::decrypt_token: {mismatches} mismatches",
        sample.len()
    ));
    tally.finish(&mut report, mismatches);
    timed.end_to_end(&mut report, &mut tally)?;
    server.shutdown();
    for _ in 1..scale.token_setups {
        let t0 = Instant::now();
        let server = set_up(&inputs, scale.token_ids)?;
        setups.push(t0.elapsed());
        server.shutdown();
    }
    common::setup_metric(&mut report, &setups);

    if run.trace {
        let mut own = Tracer::new(timed.origin);
        timed.record_client_spans(&mut own);
        let mut rng = inputs::rng(run.seed, tag::SAMPLE ^ 0xA11);
        let cases: Vec<(SemKey, Vec<u8>)> = (0..REPLAY)
            .map(|_| {
                let k = (rng.next_u64() % timed.open_asks.len() as u64) as usize;
                let Ask::Token { rank, u } = &timed.open_asks[k] else {
                    unreachable!("token workload")
                };
                (inputs.keys[*rank].clone(), inputs.u_bytes[*u].clone())
            })
            .collect();
        layers::replay_token(&mut own, params, &cases, phases::REPLAY_BASE);
        let probe = probe::run(run, Probe::for_token_hot())?;
        let cluster = probe.cluster.clone().ok_or("probe ran no cluster")?;
        let facts = timed.facts(&mut tally, 0.0)?;
        phases::layer_rows(&mut report, facts, &cluster, own, probe)?;
        report.notes.push(phases::token_path_table(&report));
    }
    Ok(report)
}
