//! Cross-crate end-to-end flows: the deployment stack from PKG to
//! the TCP SEM daemon to wire formats.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair::core::bf_ibe::{FullCiphertext, Pkg};
use sempair::core::gdh;
use sempair::core::threshold::ThresholdPkg;
use sempair::net::latency::{mediated_op_time, LinkModel};
use sempair::net::revocation::ValidityPeriodPkg;
use sempair::net::tcp::{drive_throughput, ServerConfig, TcpSemClient, TcpSemServer};
use sempair::net::wire;
use sempair::pairing::CurveParams;
use std::time::Duration;

fn curve() -> CurveParams {
    CurveParams::fast_insecure()
}

/// A SEM daemon with `workers` pool threads on an OS-chosen loopback
/// port.
fn daemon(pkg: &Pkg, workers: usize) -> TcpSemServer {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    TcpSemServer::bind_with("127.0.0.1:0", pkg.params().clone(), config).unwrap()
}

fn client(pkg: &Pkg, server: &TcpSemServer) -> TcpSemClient {
    TcpSemClient::connect(server.local_addr(), pkg.params().clone()).unwrap()
}

/// Mail travels PKG → sender → SEM daemon → recipient, entirely through
/// serialized wire formats (no shared in-memory structures).
#[test]
fn full_stack_mail_through_wire_formats() {
    let mut rng = StdRng::seed_from_u64(2001);
    let pkg = Pkg::setup(&mut rng, curve());
    let server = daemon(&pkg, 2);
    let (bob, bob_sem) = pkg.extract_split(&mut rng, "bob");
    server.install_ibe(bob_sem);

    // Sender side: encrypt and serialize.
    let c = pkg
        .params()
        .encrypt_full(&mut rng, "bob", b"wire-format mail")
        .unwrap();
    let wire_bytes = c.to_bytes(pkg.params());

    // Recipient side: parse, request token, decrypt.
    let parsed = FullCiphertext::from_bytes(pkg.params(), &wire_bytes).unwrap();
    assert_eq!(parsed, c);
    let token = client(&pkg, &server).ibe_token("bob", &parsed.u).unwrap();
    assert_eq!(
        bob.finish_decrypt(pkg.params(), &parsed, &token).unwrap(),
        b"wire-format mail"
    );
    server.shutdown();
}

/// Many identities through one server; revocation of one leaves the
/// rest untouched.
#[test]
fn multi_user_server_with_selective_revocation() {
    let mut rng = StdRng::seed_from_u64(2002);
    let pkg = Pkg::setup(&mut rng, curve());
    let server = daemon(&pkg, 4);
    let users: Vec<_> = (0..6)
        .map(|i| {
            let id = format!("user{i}@example.com");
            let (key, sem_half) = pkg.extract_split(&mut rng, &id);
            server.install_ibe(sem_half);
            (id, key)
        })
        .collect();

    server.revoke("user3@example.com");

    let mut client = client(&pkg, &server);
    for (id, key) in &users {
        let c = pkg
            .params()
            .encrypt_full(&mut rng, id, id.as_bytes())
            .unwrap();
        let token = client.ibe_token(id, &c.u);
        if id == "user3@example.com" {
            assert_eq!(token, Err(sempair::core::Error::Revoked));
        } else {
            let m = key
                .finish_decrypt(pkg.params(), &c, &token.unwrap())
                .unwrap();
            assert_eq!(&m, id.as_bytes());
        }
    }
    server.shutdown();
}

/// Throughput scales (or at least does not collapse) with workers, and
/// every request is actually served.
#[test]
fn throughput_driver_serves_all_requests() {
    let mut rng = StdRng::seed_from_u64(2003);
    let pkg = Pkg::setup(&mut rng, curve());
    let server = daemon(&pkg, 4);
    let (_, sem_half) = pkg.extract_split(&mut rng, "load");
    server.install_ibe(sem_half);
    let c = pkg.params().encrypt_full(&mut rng, "load", b"x").unwrap();
    let result = drive_throughput(&server, "load", &c.u, 4, 64, 1).unwrap();
    assert_eq!(result.requests, 64);
    assert!(result.ops_per_sec() > 0.0);
    server.shutdown();
}

/// The threshold PKG and the mediated layer compose: a (2,3) threshold
/// dealer's recombined full key decrypts mediated-style ciphertexts.
#[test]
fn threshold_and_mediated_share_the_same_ciphertext_format() {
    let mut rng = StdRng::seed_from_u64(2004);
    let tpkg = ThresholdPkg::setup(&mut rng, curve(), 2, 3).unwrap();
    let sys = tpkg.system();
    // A sender encrypts BasicIdent, oblivious to how the PKG is run.
    let c = sys.params().encrypt_basic(&mut rng, "carol", b"composable");
    let shares = tpkg.keygen("carol");
    let dec: Vec<_> = shares[1..]
        .iter()
        .map(|ks| sys.decryption_share(ks, &c.u))
        .collect();
    assert_eq!(sys.recombine_basic(&c, &dec).unwrap(), b"composable");
}

/// Revocation-latency comparison: the SEM's is zero (next request),
/// the validity-period scheme's is bounded by the epoch length, and
/// the PKG work per epoch is linear in users (E8's shape).
#[test]
fn revocation_latency_and_cost_shapes() {
    let mut rng = StdRng::seed_from_u64(2005);
    let users: Vec<String> = (0..20).map(|i| format!("u{i}")).collect();
    let pkg = Pkg::setup(&mut rng, curve());
    let mut vp = ValidityPeriodPkg::new(pkg, Duration::from_secs(3600), users);
    let issued = vp.rotate_epoch();
    assert_eq!(issued.len(), 20);
    vp.revoke("u7");
    assert_eq!(vp.rotate_epoch().len(), 19);
    assert_eq!(vp.extract_count(), 39);
    assert!(vp.expected_revocation_latency() > Duration::ZERO);

    // SEM side: revocation cost is one op regardless of user count.
    for n in [10usize, 100, 1000] {
        let cost = sempair::net::revocation::revocation_cost(n);
        assert_eq!(cost.sem_ops_per_revocation, 1);
        assert_eq!(cost.rekeys_per_epoch, n);
    }
}

/// The E3 bandwidth claims hold on the paper-scale parameters, and the
/// latency model turns them into end-to-end time differences.
#[test]
fn bandwidth_and_latency_model_consistency() {
    let curve = CurveParams::paper_default();
    let ibe = wire::mediated_ibe_decrypt(&curve, 16);
    let gdh = wire::mediated_gdh_sign(&curve, 16);
    let rsa = wire::mrsa_half_op(1024, 16);
    // Orderings the paper states.
    assert!(gdh.response < rsa.response, "GDH token shorter than mRSA");
    assert_eq!(ibe.response, 1024, "IBE token ≈ 1000 bits at 512-bit p");

    // On a thin 2003 link the byte counts matter.
    let link = LinkModel::dsl_2003();
    let t_gdh = mediated_op_time(
        &link,
        gdh.request,
        gdh.response,
        Duration::from_millis(5),
        Duration::from_millis(5),
        Duration::from_millis(1),
    );
    let t_rsa = mediated_op_time(
        &link,
        rsa.request,
        rsa.response,
        Duration::from_millis(5),
        Duration::from_millis(5),
        Duration::from_millis(1),
    );
    // Same compute assumed: the GDH exchange is never slower.
    assert!(t_gdh <= t_rsa);
}

/// GDH signatures produced through the daemon verify under plain BLS —
/// "transparent to the verifier".
#[test]
fn server_signed_documents_verify_offline() {
    let mut rng = StdRng::seed_from_u64(2006);
    let pkg = Pkg::setup(&mut rng, curve());
    let curve = pkg.params().curve().clone();
    let server = daemon(&pkg, 2);
    let (user, sem_half, pk) = gdh::mediated_keygen(&mut rng, &curve, "signer");
    server.install_gdh(sem_half);
    let mut client = client(&pkg, &server);

    let docs: Vec<Vec<u8>> = (0..4).map(|i| format!("doc {i}").into_bytes()).collect();
    let mut sigs = Vec::new();
    for doc in &docs {
        let half = client.gdh_half_sign("signer", doc).unwrap();
        sigs.push(user.finish_sign(&curve, doc, &half).unwrap());
    }
    server.shutdown();
    // Offline verification — no SEM, no daemon.
    for (doc, sig) in docs.iter().zip(&sigs) {
        gdh::verify(&curve, &pk, doc, sig).unwrap();
    }
    // Signatures do not cross documents.
    assert!(gdh::verify(&curve, &pk, &docs[0], &sigs[1]).is_err());
}
