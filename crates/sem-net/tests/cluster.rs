//! Cluster chaos suite: the replicated (t, n) SEM quorum driven
//! through crashes, byzantine replicas, and restarts.
//!
//! Each scenario pins one clause of the module's failure model:
//! a minority of crashed replicas is *survived*, a cheating replica is
//! *identified* (never believed), quorum loss is a *typed, bounded*
//! error, and revocation state is *durable* across kill + restart.
//! Property tests round-trip the wire codec for robust decryption
//! shares (with and without the §3.2 NIZK) and the journal format,
//! including torn-tail recovery.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_core::bf_ibe::Pkg;
use sempair_core::threshold::{
    decryption_share_from_bytes, decryption_share_to_bytes, robust_decryption_share, ThresholdPkg,
};
use sempair_core::Error;
use sempair_net::cluster::{HedgeConfig, QuorumClient, SemCluster};
use sempair_net::faults::{Fault, FaultPlan, FaultProxy};
use sempair_net::store::{Journal, Record};
use sempair_net::tcp::{ClientConfig, ServerConfig};
use sempair_pairing::CurveParams;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-test state directory (wiped at entry so a previous run's
/// journals cannot leak into the assertions).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sempair-cluster-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Short deadlines so crashed replicas cost milliseconds, not the
/// default 10 s request deadline.
fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_millis(500),
        max_retries: 1,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        ..ClientConfig::default()
    }
}

fn boot(tag: &str, t: usize, n: usize) -> (StdRng, SemCluster) {
    let mut rng = StdRng::seed_from_u64(0xC1_05_7E);
    let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
    let pkg = Pkg::setup(&mut rng, curve);
    let cluster = SemCluster::start(pkg, t, n, ServerConfig::default(), state_dir(tag)).unwrap();
    (rng, cluster)
}

/// Killing `n − t` replicas mid-workload: every request before,
/// during, and after the crashes completes with the right plaintext.
#[test]
fn workload_survives_n_minus_t_crashes() {
    let (mut rng, mut cluster) = boot("survive", 2, 3);
    let user = cluster.enroll(&mut rng, "alice").unwrap();
    let client = cluster.client_with(fast_client()).unwrap();
    let c = cluster
        .params()
        .encrypt_full(&mut rng, "alice", b"mid-workload")
        .unwrap();
    let mut failovers = 0;
    for i in 0..30 {
        if i == 10 {
            assert!(cluster.kill(0), "first crash");
        }
        let outcome = client.token("alice", &c.u).unwrap();
        assert!(outcome.stats.cheaters.is_empty());
        if !outcome.stats.unreachable.is_empty() {
            failovers += 1;
        }
        let m = user
            .finish_decrypt(cluster.params(), &c, &outcome.token)
            .unwrap();
        assert_eq!(m, b"mid-workload");
    }
    // The crash was actually observed (and survived), not skipped.
    assert!(failovers > 0, "the killed replica was never even asked");
    // Health converged: replica 1 is marked unreachable.
    let health = client.replica_health();
    assert!(!health[0].reachable);
    cluster.shutdown();
}

/// A byzantine replica returning corrupted shares is NIZK-detected and
/// *named* in the stats; its garbage never reaches a combined token.
#[test]
fn cheating_replica_is_detected_and_named() {
    let (mut rng, mut cluster) = boot("cheat", 2, 3);
    let user = cluster.enroll(&mut rng, "bob").unwrap();
    // Interpose a corrupting proxy in front of replica 2 (index 3):
    // every server→client frame gets one byte of its share body
    // flipped (payload offset 20 sits inside the Gt value, past the
    // status/length envelope), so the NIZK must catch it.
    let addrs = cluster.addrs();
    let proxy = FaultProxy::spawn(
        addrs[2],
        FaultPlan::clean(),
        FaultPlan::script(vec![
            Fault::Corrupt {
                offset: 20,
                xor: 0xA5
            };
            256
        ]),
    )
    .unwrap();
    let mut proxied = addrs.clone();
    proxied[2] = proxy.local_addr();
    let mut client = QuorumClient::new(
        cluster.params().clone(),
        cluster.threshold(),
        proxied,
        fast_client(),
    )
    .unwrap()
    // Ask all three in the first wave so the cheater is always probed.
    .with_hedge(HedgeConfig { extra: 1 });
    client.register("bob", cluster.system_for("bob").unwrap().clone());

    let c = cluster
        .params()
        .encrypt_full(&mut rng, "bob", b"honest majority")
        .unwrap();
    let mut cheat_sightings = 0;
    for _ in 0..10 {
        let outcome = client.token("bob", &c.u).unwrap();
        // The corrupted share is never among the combined ones: the
        // token stays correct every single time.
        let m = user
            .finish_decrypt(cluster.params(), &c, &outcome.token)
            .unwrap();
        assert_eq!(m, b"honest majority");
        if outcome.stats.cheaters.contains(&3) {
            cheat_sightings += 1;
        }
        // The cheater is never *trusted*: combining still used honest
        // shares only, so at least t valid remained.
        assert!(outcome.stats.valid >= 2);
    }
    assert!(
        cheat_sightings > 0,
        "the corrupting replica was never caught cheating"
    );
    // The client's health ledger remembers the cheat count.
    let health = client.replica_health();
    assert_eq!(health[2].index, 3);
    assert!(health[2].cheats >= cheat_sightings);
    proxy.shutdown();
    cluster.shutdown();
}

/// Each partial is verified exactly once per token: with every replica
/// in the first wave, a replica that always cheats is named exactly once
/// in each outcome, and its health ledger counts one cheat per token.
#[test]
fn cheating_partial_is_counted_once_per_token() {
    let (mut rng, mut cluster) = boot("once", 2, 3);
    let user = cluster.enroll(&mut rng, "erin").unwrap();
    // Same corrupting proxy as above: a flipped byte inside the Gt
    // value of every share replica 3 sends.
    let addrs = cluster.addrs();
    let proxy = FaultProxy::spawn(
        addrs[2],
        FaultPlan::clean(),
        FaultPlan::script(vec![
            Fault::Corrupt {
                offset: 20,
                xor: 0xA5
            };
            256
        ]),
    )
    .unwrap();
    let mut proxied = addrs.clone();
    proxied[2] = proxy.local_addr();
    let mut client = QuorumClient::new(
        cluster.params().clone(),
        cluster.threshold(),
        proxied,
        fast_client(),
    )
    .unwrap()
    // t + 1 = n: the cheater is in every first wave.
    .with_hedge(HedgeConfig { extra: 1 });
    client.register("erin", cluster.system_for("erin").unwrap().clone());

    let c = cluster
        .params()
        .encrypt_full(&mut rng, "erin", b"verified once")
        .unwrap();
    for round in 1..=6u64 {
        let outcome = client.token("erin", &c.u).unwrap();
        assert_eq!(outcome.stats.asked, 3);
        assert_eq!(outcome.stats.cheaters, vec![3], "round {round}");
        assert_eq!(outcome.stats.valid, 2);
        assert_eq!(client.replica_health()[2].cheats, round);
        let m = user
            .finish_decrypt(cluster.params(), &c, &outcome.token)
            .unwrap();
        assert_eq!(m, b"verified once");
    }
    proxy.shutdown();
    cluster.shutdown();
}

/// With only `t − 1` replicas alive the quorum is gone: the client
/// reports `QuorumLost` within its deadlines instead of hanging.
#[test]
fn t_minus_one_live_replicas_is_quorum_lost_within_deadline() {
    let (mut rng, mut cluster) = boot("lost", 3, 5);
    cluster.enroll(&mut rng, "carol").unwrap();
    let client = cluster.client_with(fast_client()).unwrap();
    let c = cluster
        .params()
        .encrypt_full(&mut rng, "carol", b"unreachable")
        .unwrap();
    cluster.kill(0);
    cluster.kill(1);
    cluster.kill(2);
    let started = Instant::now();
    let result = client.token("carol", &c.u);
    let elapsed = started.elapsed();
    assert!(matches!(result, Err(Error::QuorumLost)), "{result:?}");
    // Refused connects fail in milliseconds; even with every dead
    // replica probed twice this stays far below the 5 s connect
    // deadline per replica, let alone a hang.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    cluster.shutdown();
}

/// The acceptance scenario: a 5-replica t=3 cluster completes a
/// 1000-request workload while 2 replicas crash and 1 returns
/// corrupted shares — zero wrong tokens accepted, the cheater
/// identified in `QuorumStats`, and after a kill + restart the
/// journal-replayed revocation set still refuses revoked identities.
///
/// Arithmetic note: with `t = 3` of 5, two crashes plus an
/// *always*-corrupting replica leave only 2 honest replicas — no
/// quorum can mathematically exist. So the cheater here corrupts
/// every other response (byzantine, not merely dead), the second
/// crash lands mid-workload, and the workload retries on
/// `QuorumLost` the way any real client of a flaky cluster would.
/// Every request still completes, and no corrupted share is ever
/// accepted anywhere.
#[test]
fn acceptance_five_replica_cluster_under_compound_failure() {
    let (mut rng, mut cluster) = boot("accept", 3, 5);
    let user = cluster.enroll(&mut rng, "dave").unwrap();

    // Replica 5 (index 4) turns byzantine via a corrupting proxy:
    // every other server→client frame has a byte of its Gt value
    // flipped, so half its shares fail the NIZK.
    let addrs = cluster.addrs();
    let alternating: Vec<Fault> = (0..4096)
        .map(|i| {
            if i % 2 == 0 {
                Fault::Corrupt {
                    offset: 20,
                    xor: 0x5A,
                }
            } else {
                Fault::Forward
            }
        })
        .collect();
    let proxy =
        FaultProxy::spawn(addrs[4], FaultPlan::clean(), FaultPlan::script(alternating)).unwrap();
    let mut proxied = addrs.clone();
    proxied[4] = proxy.local_addr();
    let mut client = QuorumClient::new(
        cluster.params().clone(),
        cluster.threshold(),
        proxied,
        fast_client(),
    )
    .unwrap()
    .with_hedge(HedgeConfig { extra: 2 });
    client.register("dave", cluster.system_for("dave").unwrap().clone());

    // One replica is down from the start; a second dies mid-workload.
    cluster.kill(1);

    let c = cluster
        .params()
        .encrypt_full(&mut rng, "dave", b"compound failure")
        .unwrap();
    let mut named_in_stats = 0u64;
    let mut quorum_losses = 0u64;
    for i in 0..1000 {
        if i == 500 {
            assert!(cluster.kill(2), "second mid-workload crash");
        }
        // A real client retries a lost quorum; the alternating cheater
        // guarantees the retry sees a clean share.
        let mut outcome = None;
        for _attempt in 0..4 {
            match client.token("dave", &c.u) {
                Ok(o) => {
                    outcome = Some(o);
                    break;
                }
                Err(Error::QuorumLost) => quorum_losses += 1,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        let outcome = outcome.expect("workload request never completed");
        // Zero wrong tokens: every combined token decrypts correctly.
        let m = user
            .finish_decrypt(cluster.params(), &c, &outcome.token)
            .unwrap();
        assert_eq!(m, b"compound failure");
        if outcome.stats.cheaters.contains(&5) {
            named_in_stats += 1;
        }
    }
    assert!(
        named_in_stats > 0,
        "cheater never named in a QuorumStats outcome"
    );
    // With only two honest replicas left after the second crash, every
    // corrupted share costs a retry — the failure mode is typed and
    // survivable, never a hang or a wrong token.
    assert!(quorum_losses > 0, "the compound phase never bit");
    let health = client.replica_health();
    assert_eq!(health[4].index, 5);
    assert!(health[4].cheats >= named_in_stats);

    // Durable revocation: revoke, kill a surviving replica, restart
    // it, and the journal replay still refuses the identity.
    cluster.revoke("dave");
    cluster.kill(0);
    let replayed = cluster.restart(0).unwrap();
    assert!(replayed.revoked.contains("dave"));
    let direct = cluster.client_with(fast_client()).unwrap();
    assert!(matches!(direct.token("dave", &c.u), Err(Error::Revoked)));
    proxy.shutdown();
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// Property tests: wire codec and journal round-trips.
// ---------------------------------------------------------------------

fn fixture() -> &'static (CurveParams, ThresholdPkg) {
    static FIXTURE: OnceLock<(CurveParams, ThresholdPkg)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF1_27);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let tpkg = ThresholdPkg::setup(&mut rng, curve.clone(), 2, 3).unwrap();
        (curve, tpkg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Robust decryption shares (proof attached) survive the wire
    /// codec byte-exactly, for arbitrary identities and points.
    #[test]
    fn decryption_share_codec_round_trips(
        seed in any::<u64>(),
        id in "[a-z]{1,12}",
    ) {
        let (curve, tpkg) = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let shares = tpkg.keygen(&id);
        let u = curve.mul_generator(&curve.random_scalar(&mut rng));
        for key_share in &shares {
            let share = robust_decryption_share(curve, &mut rng, key_share, &u);
            prop_assert!(share.proof.is_some());
            let bytes = decryption_share_to_bytes(curve, &share);
            let back = decryption_share_from_bytes(curve, &bytes).unwrap();
            prop_assert_eq!(&share, &back);
            // The NIZK still verifies after the round trip, so the
            // codec preserves the proof's soundness inputs too.
            prop_assert!(tpkg.system().verify_decryption_share(&id, &u, &back).is_ok());
            // Trailing garbage is rejected, not ignored.
            let mut padded = bytes.clone();
            padded.push(0);
            prop_assert!(decryption_share_from_bytes(curve, &padded).is_err());
            // Truncations never decode to a share.
            let cut = bytes.len() / 2;
            prop_assert!(decryption_share_from_bytes(curve, &bytes[..cut]).is_err());
        }
    }

    /// Proof-less shares (the non-robust §3.2 variant) round-trip too.
    #[test]
    fn plain_share_codec_round_trips(
        seed in any::<u64>(),
        id in "[a-z]{1,12}",
    ) {
        let (curve, tpkg) = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let key_share = &tpkg.keygen(&id)[0];
        let u = curve.mul_generator(&curve.random_scalar(&mut rng));
        let share = tpkg.system().decryption_share(key_share, &u);
        prop_assert!(share.proof.is_none());
        let bytes = decryption_share_to_bytes(curve, &share);
        let back = decryption_share_from_bytes(curve, &bytes).unwrap();
        prop_assert_eq!(share, back);
    }

    /// Journals replay exactly the records appended, in order, for any
    /// mix of revokes / unrevokes / epochs.
    #[test]
    fn journal_replays_arbitrary_histories(
        ops in proptest::collection::vec(
            (0u8..3, "[a-z]{1,8}", any::<u64>()), 0..40),
        case in 0u32..u32::MAX,
    ) {
        let path = std::env::temp_dir().join(format!(
            "sempair-prop-journal-{}-{case}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut journal, fresh) = Journal::open(&path).unwrap();
        prop_assert_eq!(fresh.records, 0);
        // Model the state machine in plain collections.
        let mut revoked = std::collections::HashSet::new();
        let mut epoch = 0u64;
        for (kind, id, e) in &ops {
            let record = match kind {
                0 => { revoked.insert(id.clone()); Record::Revoke(id.clone()) }
                1 => { revoked.remove(id); Record::Unrevoke(id.clone()) }
                _ => { epoch = *e; Record::Epoch(*e) }
            };
            journal.append(&record).unwrap();
        }
        drop(journal);
        let (_, replayed) = Journal::open(&path).unwrap();
        prop_assert_eq!(replayed.records, ops.len());
        prop_assert_eq!(replayed.truncated_bytes, 0);
        prop_assert_eq!(replayed.revoked, revoked);
        prop_assert_eq!(replayed.epoch, epoch);
        let _ = std::fs::remove_file(&path);
    }

    /// A torn tail (partial final record, any cut point) is truncated
    /// on replay; every *complete* record before it survives.
    #[test]
    fn journal_recovers_from_torn_tail(
        ids in proptest::collection::vec("[a-z]{1,8}", 1..12),
        // The smallest record is 10 bytes (len ‖ crc ‖ kind ‖ 1-byte
        // id), so a 1–9 byte cut always tears the final record
        // mid-write rather than landing on a record boundary.
        cut_back in 1u64..10,
        case in 0u32..u32::MAX,
    ) {
        let path = std::env::temp_dir().join(format!(
            "sempair-prop-torn-{}-{case}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path).unwrap();
        for id in &ids {
            journal.append(&Record::Revoke(id.clone())).unwrap();
        }
        drop(journal);
        // Tear the tail: cut 1..24 bytes off the end of the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = cut_back.min(len.saturating_sub(1));
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - cut).unwrap();
        drop(file);
        let (_, replayed) = Journal::open(&path).unwrap();
        // Exactly the torn final record is gone; every fully-written
        // one replays.
        prop_assert_eq!(replayed.records, ids.len() - 1);
        let surviving: std::collections::HashSet<String> =
            ids[..replayed.records].iter().cloned().collect();
        prop_assert_eq!(replayed.revoked, surviving);
        prop_assert!(replayed.truncated_bytes > 0);
        // And the truncated journal is fully usable again.
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(&Record::Revoke("after-tear".into())).unwrap();
        drop(journal);
        let (_, healed) = Journal::open(&path).unwrap();
        prop_assert_eq!(healed.records, replayed.records + 1);
        prop_assert!(healed.revoked.contains("after-tear"));
        let _ = std::fs::remove_file(&path);
    }
}
