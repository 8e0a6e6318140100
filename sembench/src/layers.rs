//! The traced run's in-process replay: requests are pushed through the
//! public call of each layer, one span per call, named after the
//! per-layer metric it feeds.
//!
//! Each replay follows one request path in the order the daemon runs
//! it. Calls that the daemon makes *inside* a larger call (the subgroup
//! check and prepared pairing inside `Sem::decrypt_token_cached`, the
//! hash and scalar multiplication inside `GdhSem::half_sign`, the full
//! pairing inside `UserKey::finish_decrypt`) are replayed again on their
//! own after the request, under a separate `*.components` span, so
//! their cost is visible without double counting inside the request.

use crate::loadgen;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use sempair_core::bf_ibe::{FullCiphertext, IbePublicParams};
use sempair_core::gdh::{self, GdhSem};
use sempair_core::mediated::{Sem, SemKey, UserKey};
use sempair_core::threshold::{self, IdKeyShare, ThresholdSystem};
use sempair_field::ext2::Ext2;
use sempair_field::p512::PAPER_CTX;
use sempair_net::cache::CacheTier;
use sempair_net::proto::{self, Op, Request, Response, Status};
use sempair_net::store::{Journal, Record};
use sempair_pairing::CurveParams;
use std::collections::HashSet;
use std::path::Path;

fn decode_envelope(frame: &[u8]) -> proto::PipelinedRequest {
    proto::decode_request(&frame[4..])
        .and_then(|outer| proto::decode_pipelined_body(&outer.body))
        .expect("replayed frame decodes")
}

/// §4 token path: decode → point decode (with its subgroup check) →
/// `Sem::decrypt_token_cached` on a warm cache → `Gt` encode → reply
/// encode. `cases` are `(key, U bytes)`.
pub fn replay_token(
    tr: &mut Tracer,
    params: &IbePublicParams,
    cases: &[(SemKey, Vec<u8>)],
    first_request: u64,
) {
    let curve = params.curve();
    let mut sem = Sem::new();
    let tier = CacheTier::new(cases.len().max(1));
    let mut prepared = HashSet::new();
    for (k, (key, u_bytes)) in cases.iter().enumerate() {
        let req = first_request + k as u64;
        if prepared.insert(key.id.clone()) {
            sem.install(key.clone());
            // The warm pass's miss cost: Miller-line preparation.
            tr.time("pairing.prepare_g1", req, None, || {
                curve.prepare_g1(&key.point)
            });
            sem.warm_prepared(params, &key.id, tier.half_keys());
        }
        let frame = loadgen::frame(
            1,
            req,
            Request {
                op: Op::IbeToken,
                id: key.id.clone(),
                body: u_bytes.clone(),
            },
        );
        let root = tr.open("replay.token", req, None);
        let env = tr.time("proto.decode", req, Some(root), || decode_envelope(&frame));
        let u = tr
            .time("pairing.point_decode", req, Some(root), || {
                curve.point_from_bytes(&env.inner.body)
            })
            .expect("pooled U decodes");
        let token = tr
            .time("core.decrypt_token_cached", req, Some(root), || {
                sem.decrypt_token_cached(params, &env.inner.id, &u, tier.half_keys())
            })
            .expect("enrolled identity");
        let body = tr.time("pairing.gt_encode", req, Some(root), || {
            curve.gt_to_bytes(&token.0)
        });
        tr.time("proto.encode", req, Some(root), || {
            proto::encode_pipelined_response(
                env.req_id,
                &Response {
                    status: Status::Ok,
                    body,
                },
            )
        });
        tr.close(root);

        let parts = tr.open("replay.token.components", req, None);
        tr.time("pairing.subgroup_check", req, Some(parts), || {
            curve.is_in_group(&u)
        });
        let prep = tier.half_keys().get(&key.id).expect("prepared above");
        tr.time("pairing.pairing_prepared", req, Some(parts), || {
            curve.pairing_prepared(&prep, &u)
        });
        tr.close(parts);
    }
}

/// §5 signing path: decode → `GdhSem::half_sign` → point encode →
/// reply encode; components: `hash_to_g1` and the scalar
/// multiplication. `cases` are `(identity, message)`; `sem` holds their
/// keys.
pub fn replay_sign(
    tr: &mut Tracer,
    params: &IbePublicParams,
    sem: &GdhSem,
    cases: &[(String, Vec<u8>)],
    rng: &mut StdRng,
    first_request: u64,
) {
    let curve = params.curve();
    for (k, (id, message)) in cases.iter().enumerate() {
        let req = first_request + k as u64;
        let frame = loadgen::frame(
            1,
            req,
            Request {
                op: Op::GdhHalfSign,
                id: id.clone(),
                body: message.clone(),
            },
        );
        let root = tr.open("replay.sign", req, None);
        let env = tr.time("proto.decode", req, Some(root), || decode_envelope(&frame));
        let half = tr
            .time("core.half_sign", req, Some(root), || {
                sem.half_sign(curve, &env.inner.id, &env.inner.body)
            })
            .expect("enrolled signer");
        let body = tr.time("pairing.point_encode", req, Some(root), || {
            curve.point_to_bytes(&half.0)
        });
        tr.time("proto.encode", req, Some(root), || {
            proto::encode_pipelined_response(
                env.req_id,
                &Response {
                    status: Status::Ok,
                    body,
                },
            )
        });
        tr.close(root);

        let parts = tr.open("replay.sign.components", req, None);
        let h = tr.time("pairing.hash_to_g1", req, Some(parts), || {
            gdh::hash_message(curve, message)
        });
        let scalar = curve.random_scalar(rng);
        tr.time("pairing.scalar_mul", req, Some(parts), || {
            curve.mul(&scalar, &h)
        });
        tr.close(parts);
    }
}

/// One quorum-decryption input: an identity's dealt shares, its
/// verification system and user half-key, and a ciphertext with its
/// plaintext.
pub struct QuorumCase {
    pub id: String,
    pub user: UserKey,
    pub shares: Vec<IdKeyShare>,
    pub system: ThresholdSystem,
    pub ciphertext: FullCiphertext,
    pub plaintext: Vec<u8>,
}

/// §3 threshold path as one `QuorumClient::token` plus
/// `UserKey::finish_decrypt` runs it: per replica, v1 request decode →
/// point decode → robust share → reply encode; then the client's share
/// verification, the robust combination, and the user's finish.
/// Component: the full pairing inside `finish_decrypt`.
pub fn replay_quorum(
    tr: &mut Tracer,
    params: &IbePublicParams,
    cases: &[QuorumCase],
    rng: &mut StdRng,
    first_request: u64,
) {
    let curve = params.curve();
    for (k, case) in cases.iter().enumerate() {
        let req = first_request + k as u64;
        let u_bytes = curve.point_to_bytes(&case.ciphertext.u);
        let frame = proto::encode_request(&Request {
            op: Op::TokenShare,
            id: case.id.clone(),
            body: u_bytes,
        })
        .expect("share request fits a frame");
        let root = tr.open("replay.quorum", req, None);
        let mut partials = Vec::with_capacity(case.shares.len());
        for share in &case.shares {
            let request = tr
                .time("proto.decode", req, Some(root), || {
                    proto::decode_request(&frame[4..])
                })
                .expect("share request decodes");
            let u = tr
                .time("pairing.point_decode", req, Some(root), || {
                    curve.point_from_bytes(&request.body)
                })
                .expect("ciphertext U decodes");
            let partial = tr.time("core.robust_share", req, Some(root), || {
                threshold::robust_decryption_share(curve, rng, share, &u)
            });
            tr.time("proto.encode", req, Some(root), || {
                proto::encode_response(&Response {
                    status: Status::Ok,
                    body: threshold::decryption_share_to_bytes(curve, &partial),
                })
            });
            partials.push(partial);
        }
        for partial in &partials {
            tr.time("core.verify_share", req, Some(root), || {
                case.system
                    .verify_decryption_share(&case.id, &case.ciphertext.u, partial)
            })
            .expect("honest share verifies");
        }
        let (g, _) = tr
            .time("core.combine_token", req, Some(root), || {
                case.system
                    .combine_token_robust(&case.id, &case.ciphertext.u, &partials)
            })
            .expect("quorum combines");
        let plaintext = tr
            .time("core.finish_decrypt", req, Some(root), || {
                case.user.finish_decrypt(
                    params,
                    &case.ciphertext,
                    &sempair_core::mediated::DecryptToken(g),
                )
            })
            .expect("replayed decryption succeeds");
        assert_eq!(plaintext, case.plaintext, "replayed plaintext");
        tr.close(root);

        let parts = tr.open("replay.quorum.components", req, None);
        tr.time("pairing.pairing", req, Some(parts), || {
            curve.pairing(&case.ciphertext.u, &case.user.point)
        });
        tr.close(parts);
    }
}

/// Kernels no request path calls directly from outside: the final
/// exponentiation on the fixed-width 512-bit context, and a journal
/// append with its fsync.
pub fn probe_kernels(
    tr: &mut Tracer,
    curve: &CurveParams,
    rng: &mut StdRng,
    journal_path: &Path,
    rounds: usize,
    first_request: u64,
) -> std::io::Result<()> {
    use rand::RngCore;
    let cofactor = curve.cofactor().limbs().to_vec();
    for k in 0..rounds {
        let req = first_request + k as u64;
        let m = Ext2 {
            c0: PAPER_CTX.from_u64(rng.next_u64() | 1),
            c1: PAPER_CTX.from_u64(rng.next_u64()),
        };
        tr.time("field.final_exp", req, None, || {
            sempair_field::miller::final_exp(&PAPER_CTX, &cofactor, &m)
        });
    }
    let _ = std::fs::remove_file(journal_path);
    let (mut journal, _) = Journal::open(journal_path)?;
    for k in 0..rounds {
        let req = first_request + k as u64;
        let record = Record::Revoke(format!("probe-{k:05}"));
        tr.time("store.append", req, None, || journal.append(&record))?;
    }
    drop(journal);
    std::fs::remove_file(journal_path)
}
