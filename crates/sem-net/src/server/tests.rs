//! Service-level tests of the SEM: token and signing service,
//! revocation, batching, auditing and load shedding, each driven
//! through [`TcpSemClient`] stubs on the default pipelined config
//! against a [`TcpSemServer`] bound to `127.0.0.1:0`.

use crate::proto::{self, BatchItem, BatchReply, Op, Request, Status};
use crate::tcp::{
    drive_throughput, PipeClient, PipeReply, ServerConfig, TcpSemClient, TcpSemServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_core::bf_ibe::Pkg;
use sempair_core::gdh;
use sempair_core::mediated::UserKey;
use sempair_core::Error;
use sempair_pairing::{CurveParams, G1Affine};
use std::time::Duration;

fn setup(workers: usize) -> (Pkg, TcpSemServer, UserKey, StdRng) {
    setup_cfg(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
}

fn setup_cfg(config: ServerConfig) -> (Pkg, TcpSemServer, UserKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(111);
    let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
    setup_on(curve, config, rng)
}

/// The load-shedding tests wedge the worker with pairings on the
/// paper-scale curve, which cost far more than the toy curve's.
fn setup_paper(config: ServerConfig) -> (Pkg, TcpSemServer, UserKey, StdRng) {
    let rng = StdRng::seed_from_u64(111);
    setup_on(CurveParams::paper_default(), config, rng)
}

fn setup_on(
    curve: CurveParams,
    config: ServerConfig,
    mut rng: StdRng,
) -> (Pkg, TcpSemServer, UserKey, StdRng) {
    let pkg = Pkg::setup(&mut rng, curve);
    let server = TcpSemServer::bind_with("127.0.0.1:0", pkg.params().clone(), config).unwrap();
    let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
    server.install_ibe(sem_key);
    (pkg, server, user, rng)
}

fn client(pkg: &Pkg, server: &TcpSemServer) -> TcpSemClient {
    TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap()
}

/// Token items in the batch that [`wedge`] hands the single worker:
/// about 2 s of paper-scale pairings on a 2-vCPU host.
const WEDGE_ITEMS: usize = 5000;

/// How long a test waits for the daemon to take up what it just sent:
/// the worker to pop the wedge batch, or a connection's reader to queue
/// a request. The wedge batch runs for far longer than this.
const SETTLE: Duration = Duration::from_millis(100);

/// Wedges a single-worker daemon: submits one batch of
/// [`WEDGE_ITEMS`] token requests for the `"wedge"` identity and waits
/// until the worker has taken it off the queue. Returns the pipelined
/// connection (its first reply is the batch) and a token request for
/// `"wedge"` that tests queue behind the batch as an occupant.
fn wedge(pkg: &Pkg, server: &TcpSemServer, rng: &mut StdRng) -> (PipeClient, Request) {
    let (_, sem_key) = pkg.extract_split(rng, "wedge");
    server.install_ibe(sem_key);
    let c = pkg.params().encrypt_full(rng, "wedge", b"w").unwrap();
    let token = Request {
        op: Op::IbeToken,
        id: "wedge".into(),
        body: pkg.params().curve().point_to_bytes(&c.u),
    };
    let batch = Request {
        op: Op::Batch,
        id: String::new(),
        body: proto::encode_batch_items(&vec![token.clone(); WEDGE_ITEMS]),
    };
    let mut pipe = PipeClient::connect(server.local_addr(), Duration::from_secs(60)).unwrap();
    pipe.submit(&batch).unwrap();
    std::thread::sleep(SETTLE);
    (pipe, token)
}

/// Receives `n` pipelined replies and asserts each one is `Ok`.
fn expect_ok_replies(pipe: &mut PipeClient, n: usize) {
    for _ in 0..n {
        match pipe.recv().unwrap() {
            PipeReply::Reply(_, inner) => assert_eq!(inner.status, Status::Ok),
            PipeReply::Plain(outer) => panic!("unexpected plain reply: {:?}", outer.status),
        }
    }
}

#[test]
fn token_service_roundtrip() {
    let (pkg, server, user, mut rng) = setup(2);
    let mut client = client(&pkg, &server);
    let c = pkg
        .params()
        .encrypt_full(&mut rng, "alice", b"through the server")
        .unwrap();
    let token = client.ibe_token("alice", &c.u).unwrap();
    assert_eq!(
        user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
        b"through the server"
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_all_served() {
    let (pkg, server, user, mut rng) = setup(4);
    let ciphertexts: Vec<_> = (0..8)
        .map(|i| {
            pkg.params()
                .encrypt_full(&mut rng, "alice", format!("msg {i}").as_bytes())
                .unwrap()
        })
        .collect();
    std::thread::scope(|scope| {
        for (i, c) in ciphertexts.iter().enumerate() {
            let mut client = client(&pkg, &server);
            let user = &user;
            let pkg = &pkg;
            scope.spawn(move || {
                let token = client.ibe_token("alice", &c.u).unwrap();
                let m = user.finish_decrypt(pkg.params(), c, &token).unwrap();
                assert_eq!(m, format!("msg {i}").as_bytes());
            });
        }
    });
    assert_eq!(server.audit_stats("alice").served, 8);
    server.shutdown();
}

#[test]
fn revocation_visible_to_inflight_clients() {
    let (pkg, server, _user, mut rng) = setup(2);
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    assert!(client.ibe_token("alice", &c.u).is_ok());
    server.revoke("alice");
    assert_eq!(client.ibe_token("alice", &c.u), Err(Error::Revoked));
    server.unrevoke("alice");
    assert!(client.ibe_token("alice", &c.u).is_ok());
    server.shutdown();
}

#[test]
fn gdh_half_sign_via_server() {
    let (pkg, server, _user, mut rng) = setup(2);
    let curve = pkg.params().curve();
    let (gdh_user, sem_key, pk) = gdh::mediated_keygen(&mut rng, curve, "signer");
    server.install_gdh(sem_key);
    let mut client = client(&pkg, &server);
    let half = client.gdh_half_sign("signer", b"payload").unwrap();
    let sig = gdh_user.finish_sign(curve, b"payload", &half).unwrap();
    gdh::verify(curve, &pk, b"payload", &sig).unwrap();
    // Revocation hits GDH too.
    server.revoke("signer");
    assert_eq!(client.gdh_half_sign("signer", b"x"), Err(Error::Revoked));
    server.shutdown();
}

#[test]
fn throughput_driver_completes() {
    let (pkg, server, _user, mut rng) = setup(2);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    let result = drive_throughput(&server, "alice", &c.u, 2, 16, 1).unwrap();
    assert_eq!(result.requests, 16);
    assert!(result.ops_per_sec() > 0.0);
    server.shutdown();
}

#[test]
fn audit_log_tracks_decisions() {
    let (pkg, server, _user, mut rng) = setup(2);
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    client.ibe_token("alice", &c.u).unwrap();
    client.ibe_token("alice", &c.u).unwrap();
    server.revoke("alice");
    let _ = client.ibe_token("alice", &c.u);
    let _ = client.ibe_token("ghost", &c.u);
    let stats = server.audit_stats("alice");
    assert_eq!(stats.served, 2);
    assert_eq!(stats.refused, 1);
    assert!(server.audit_bytes_out() > 0);
    assert_eq!(server.audit_stats("ghost").refused, 1);
    assert!(server
        .audit_noisy_identities(0)
        .contains(&"alice".to_string()));
    server.shutdown();
}

#[test]
fn batch_serves_mixed_items_in_order() {
    let (pkg, server, user, mut rng) = setup(2);
    let curve = pkg.params().curve();
    let (gdh_user, sem_key, pk) = gdh::mediated_keygen(&mut rng, curve, "signer");
    server.install_gdh(sem_key);
    let mut client = client(&pkg, &server);
    let c0 = pkg
        .params()
        .encrypt_full(&mut rng, "alice", b"first")
        .unwrap();
    let c1 = pkg
        .params()
        .encrypt_full(&mut rng, "alice", b"second")
        .unwrap();
    let replies = client
        .batch(&[
            BatchItem::IbeToken {
                id: "alice".into(),
                u: c0.u.clone(),
            },
            BatchItem::GdhHalfSign {
                id: "signer".into(),
                message: b"doc".to_vec(),
            },
            BatchItem::IbeToken {
                id: "alice".into(),
                u: c1.u.clone(),
            },
            BatchItem::IbeToken {
                id: "ghost".into(),
                u: c0.u.clone(),
            },
        ])
        .unwrap();
    assert_eq!(replies.len(), 4);
    let BatchReply::IbeToken(Ok(t0)) = &replies[0] else {
        panic!("item 0")
    };
    let BatchReply::GdhHalfSign(Ok(half)) = &replies[1] else {
        panic!("item 1")
    };
    let BatchReply::IbeToken(Ok(t1)) = &replies[2] else {
        panic!("item 2")
    };
    assert_eq!(
        replies[3],
        BatchReply::IbeToken(Err(Error::UnknownIdentity))
    );
    assert_eq!(
        user.finish_decrypt(pkg.params(), &c0, t0).unwrap(),
        b"first"
    );
    assert_eq!(
        user.finish_decrypt(pkg.params(), &c1, t1).unwrap(),
        b"second"
    );
    let sig = gdh_user.finish_sign(curve, b"doc", half).unwrap();
    gdh::verify(curve, &pk, b"doc", &sig).unwrap();
    server.shutdown();
}

#[test]
fn batch_respects_revocation_per_item() {
    let (pkg, server, _user, mut rng) = setup(1);
    let (_, bob_sem) = pkg.extract_split(&mut rng, "bob");
    server.install_ibe(bob_sem);
    server.revoke("alice");
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    let d = pkg.params().encrypt_full(&mut rng, "bob", b"m").unwrap();
    let replies = client
        .batch(&[
            BatchItem::IbeToken {
                id: "alice".into(),
                u: c.u.clone(),
            },
            BatchItem::IbeToken {
                id: "bob".into(),
                u: d.u.clone(),
            },
        ])
        .unwrap();
    assert_eq!(replies[0], BatchReply::IbeToken(Err(Error::Revoked)));
    assert!(matches!(&replies[1], BatchReply::IbeToken(Ok(_))));
    server.shutdown();
}

#[test]
fn batch_audited_with_transport_counters() {
    let (pkg, server, _user, mut rng) = setup(2);
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    client.ibe_token("alice", &c.u).unwrap();
    let item = BatchItem::IbeToken {
        id: "alice".into(),
        u: c.u.clone(),
    };
    let tokens = client
        .batch(&[item.clone(), item.clone(), item.clone()])
        .unwrap();
    assert!(tokens
        .iter()
        .all(|t| matches!(t, BatchReply::IbeToken(Ok(_)))));
    assert!(client.batch(&[]).unwrap().is_empty());
    let t = server.audit_transport();
    assert_eq!((t.single, t.batched_items, t.batches), (1, 3, 1));
    assert_eq!(server.audit_stats("alice").served, 4);
    server.shutdown();
}

#[test]
fn batched_throughput_driver_completes() {
    let (pkg, server, _user, mut rng) = setup(2);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    let result = drive_throughput(&server, "alice", &c.u, 2, 16, 5).unwrap();
    assert_eq!(result.requests, 16);
    assert!(result.ops_per_sec() > 0.0);
    let t = server.audit_transport();
    assert_eq!(t.batched_items, 16);
    // Each client covers 8 requests in batches of 5: ⌈8/5⌉ = 2.
    assert_eq!(t.batches, 4);
    server.shutdown();
}

#[test]
fn unknown_identity_propagates() {
    let (pkg, server, _user, _rng) = setup(1);
    let mut client = client(&pkg, &server);
    let g = G1Affine::infinity();
    assert_eq!(client.ibe_token("ghost", &g), Err(Error::UnknownIdentity));
    server.shutdown();
}

#[test]
fn shards_isolate_revocation_writes() {
    // Identities mapping to different shards: revoking one must not
    // make the other unreadable, and both route consistently.
    let (pkg, server, _user, mut rng) = setup_cfg(ServerConfig {
        workers: 2,
        shards: 4,
        ..ServerConfig::default()
    });
    assert_ne!(
        crate::revocation::shard_of("alice", 4),
        crate::revocation::shard_of("bob", 4)
    );
    let (_, bob_sem) = pkg.extract_split(&mut rng, "bob");
    server.install_ibe(bob_sem);
    server.revoke("alice");
    assert!(server.is_revoked("alice"));
    assert!(!server.is_revoked("bob"));
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    let d = pkg.params().encrypt_full(&mut rng, "bob", b"m").unwrap();
    assert_eq!(client.ibe_token("alice", &c.u), Err(Error::Revoked));
    assert!(client.ibe_token("bob", &d.u).is_ok());
    server.unrevoke("alice");
    assert!(!server.is_revoked("alice"));
    assert!(client.ibe_token("alice", &c.u).is_ok());
    server.shutdown();
}

/// With the single worker busy and the one queue slot taken, the next
/// token and signing requests are shed at once with the typed
/// `Overloaded` error, not queued, and each is audited as a refused
/// overload under its identity.
#[test]
fn queue_full_sheds_with_overloaded_and_audits() {
    let (pkg, server, _user, mut rng) = setup_paper(ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    });
    let (_, gdh_sem, _) = gdh::mediated_keygen(&mut rng, pkg.params().curve(), "alice");
    server.install_gdh(gdh_sem);
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();

    // Worker busy on the wedge batch; the occupant fills the queue.
    let (mut pipe, occupant) = wedge(&pkg, &server, &mut rng);
    pipe.submit(&occupant).unwrap();
    std::thread::sleep(SETTLE);

    assert_eq!(client.ibe_token("alice", &c.u), Err(Error::Overloaded));
    assert_eq!(
        client.gdh_half_sign("alice", b"m").unwrap_err(),
        Error::Overloaded
    );
    let shed = server
        .audit_records()
        .iter()
        .filter(|r| r.id == "alice" && r.outcome == crate::audit::Outcome::RefusedOverload)
        .count();
    assert_eq!(shed, 2);
    assert_eq!(server.audit_stats("alice").refused, 2);

    // The wedge batch and the occupant both run to completion, and
    // with the queue drained the shed request is served.
    expect_ok_replies(&mut pipe, 2);
    assert!(client.ibe_token("alice", &c.u).is_ok());
    server.shutdown();
}

/// Past the queue watermark, batch-class submissions are shed while
/// single token jobs are still admitted up to the full queue cap.
#[test]
fn brownout_sheds_batch_class_before_token_class() {
    let (pkg, server, _user, mut rng) = setup_paper(ServerConfig {
        workers: 1,
        queue_cap: 4,
        brownout_watermark: 2,
        ..ServerConfig::default()
    });
    let mut client = client(&pkg, &server);
    let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
    let item = BatchItem::IbeToken {
        id: "alice".into(),
        u: c.u.clone(),
    };

    // Worker busy on the wedge batch; two occupants hold the queue at
    // the watermark.
    let (mut pipe, occupant) = wedge(&pkg, &server, &mut rng);
    pipe.submit(&occupant).unwrap();
    pipe.submit(&occupant).unwrap();
    std::thread::sleep(SETTLE);

    // Batch-class work is shed at the watermark…
    assert_eq!(
        client.batch(std::slice::from_ref(&item)),
        Err(Error::Overloaded)
    );
    assert!(server.audit_stats("alice").refused >= 1);

    // …while a single token job is still admitted into the remaining
    // capacity between watermark and queue cap, and executes once the
    // worker is free.
    let token = Request {
        op: Op::IbeToken,
        id: "alice".into(),
        body: pkg.params().curve().point_to_bytes(&c.u),
    };
    pipe.submit(&token).unwrap();
    expect_ok_replies(&mut pipe, 4);
    assert_eq!(server.audit_stats("alice").served, 1);

    // Below the watermark again, batch-class is admitted.
    assert!(client.batch(std::slice::from_ref(&item)).is_ok());
    server.shutdown();
}
