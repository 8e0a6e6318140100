//! Replicated (t, n) SEM quorum: share-dealt mediation with verified
//! partials, hedged fan-out, failover, and durable revocation state.
//!
//! A single SEM is a single point of both failure and *safety*: if it
//! crashes no one decrypts, and if it is compromised it can issue
//! tokens for revoked users. This module removes both by replicating
//! the SEM half-key across `n` [`crate::tcp::TcpSemServer`] boxes as a
//! (t, n) Shamir dealing (§3.2 of the paper applied to the §4 mediated
//! scalar): [`SemCluster`] deals each enrolled identity's SEM scalar
//! `s − b` through [`sempair_core::threshold::ThresholdPkg`], so
//!
//! - any `t` live replicas can jointly issue a decryption token,
//! - any `t − 1` colluding replicas learn *nothing* about the key, and
//! - every partial token carries the §3.2 NIZK equality proof, so a
//!   byzantine replica that returns garbage is *identified*, not just
//!   tolerated.
//!
//! [`QuorumClient`] is the consumer half: it fans a token request out
//! to the `t + h` historically fastest replicas (hedging knob
//! [`HedgeConfig`]), NIZK-verifies each returned partial exactly once
//! against the per-identity verification keys, falls back to the
//! remaining replicas if the first wave comes up short, and
//! Lagrange-combines the first `t` verified partials
//! ([`ThresholdSystem::combine_token`]). The per-identity
//! [`ShareVerifier`] is built on the first token for that identity and
//! cached. The outcome names cheaters and unreachable replicas in
//! [`QuorumStats`]; losing the quorum surfaces as
//! [`Error::QuorumLost`] within the configured deadlines, never as a
//! hang.
//!
//! Each replica persists its revocation state in an append-only
//! checksummed journal ([`crate::store`]), so a kill + restart
//! ([`SemCluster::kill`], [`SemCluster::restart`]) replays revocations
//! before the listener reopens — a crashed-and-revived SEM refuses
//! revoked identities from its very first frame.

use crate::audit::{MetricsSnapshot, ReplicaHealth};
use crate::store::ReplayedState;
use crate::tcp::{ClientConfig, ServerConfig, TcpSemClient, TcpSemServer};
use rand::RngCore;
use sempair_core::bf_ibe::{IbePublicParams, Pkg};
use sempair_core::lockdep::{LockClass, TrackedMutex};
use sempair_core::mediated::{DecryptToken, UserKey};
use sempair_core::threshold::{
    CiphertextVerifier, DecryptionShare, IdKeyShare, ShareVerifier, ThresholdSystem,
};
use sempair_core::Error;
use sempair_pairing::G1Affine;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Hedging policy for [`QuorumClient::token`]: the first wave asks the
/// `t + extra` historically fastest replicas, so one slow or crashed
/// replica in the fast set doesn't force a second round trip.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Replicas asked *beyond* the threshold in the first wave
    /// (clamped to the cluster size). `0` disables hedging: exactly
    /// `t` are asked and any failure costs a fallback wave.
    pub extra: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { extra: 1 }
    }
}

/// What one quorum token request observed (returned alongside the
/// token in [`QuorumOutcome`], and the evidence on failure).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuorumStats {
    /// Replicas asked (first wave plus any fallback).
    pub asked: usize,
    /// Partials that passed NIZK verification.
    pub valid: usize,
    /// 1-based replica indices whose response failed verification —
    /// byzantine replicas, named per the §3.2 soundness argument.
    pub cheaters: Vec<u32>,
    /// Replicas that refused because the identity is revoked.
    pub revoked: usize,
    /// 1-based replica indices that could not be reached (connection
    /// refused, torn, or deadline exceeded after retries).
    pub unreachable: Vec<u32>,
    /// Whether the fallback wave was needed.
    pub hedged: bool,
    /// Wall-clock time for the whole request.
    pub elapsed: Duration,
}

/// A combined decryption token plus the evidence of how it was
/// assembled.
#[derive(Debug)]
pub struct QuorumOutcome {
    /// The combined token `ê(U, (s − b)·Q_ID)`, a drop-in for
    /// [`UserKey::finish_decrypt`].
    pub token: DecryptToken,
    /// Observations from this request.
    pub stats: QuorumStats,
}

/// Per-replica client state: a lazily (re)connected stub plus health
/// counters.
struct Slot {
    client: TrackedMutex<Option<TcpSemClient>>,
    /// EWMA of request latency in µs; `u64::MAX` means "never reached"
    /// or "last attempt failed", which sorts the replica last.
    latency_us: AtomicU64,
    reachable: AtomicBool,
    cheats: AtomicU64,
}

/// A registered identity: its verification system and the share
/// verifier derived from it, built on the identity's first token.
struct Registered {
    system: ThresholdSystem,
    verifier: OnceLock<ShareVerifier>,
}

/// Fans token requests across SEM replicas, verifies every partial,
/// and combines a quorum (see module docs).
pub struct QuorumClient {
    params: IbePublicParams,
    t: usize,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    hedge: HedgeConfig,
    systems: HashMap<String, Registered>,
    slots: Vec<Slot>,
}

impl QuorumClient {
    /// A client for a `(t, addrs.len())` cluster. No connection is
    /// attempted yet — replicas are dialed lazily per request, so a
    /// crashed replica costs its connect timeout, not a constructor
    /// failure.
    ///
    /// # Errors
    ///
    /// [`Error::BadThresholdParams`] unless `1 ≤ t ≤ addrs.len()`.
    pub fn new(
        params: IbePublicParams,
        t: usize,
        addrs: Vec<SocketAddr>,
        config: ClientConfig,
    ) -> Result<Self, Error> {
        if t == 0 {
            return Err(Error::BadThresholdParams("threshold t must be at least 1"));
        }
        if t > addrs.len() {
            return Err(Error::BadThresholdParams(
                "threshold t exceeds replica count",
            ));
        }
        let slots = addrs
            .iter()
            .map(|_| Slot {
                // lock:class(Cluster)
                client: TrackedMutex::new(LockClass::Cluster, None),
                latency_us: AtomicU64::new(u64::MAX),
                reachable: AtomicBool::new(true),
                cheats: AtomicU64::new(0),
            })
            .collect();
        Ok(QuorumClient {
            params,
            t,
            addrs,
            config,
            hedge: HedgeConfig::default(),
            systems: HashMap::new(),
            slots,
        })
    }

    /// Replaces the hedging policy (builder-style).
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// Registers the per-identity verification system under which this
    /// client checks partial tokens for `id`. Requests for identities
    /// never registered fail with [`Error::UnknownIdentity`].
    pub fn register(&mut self, id: &str, system: ThresholdSystem) {
        let registered = Registered {
            system,
            verifier: OnceLock::new(),
        };
        self.systems.insert(id.to_string(), registered);
    }

    /// The quorum threshold `t`.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// Per-replica health as observed by this client: reachability of
    /// the last attempt and cumulative NIZK-verification failures.
    /// Indices are 1-based, matching the threshold player indices.
    pub fn replica_health(&self) -> Vec<ReplicaHealth> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| ReplicaHealth {
                index: (i + 1) as u32,
                reachable: slot.reachable.load(Ordering::Relaxed),
                cheats: slot.cheats.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Requests a decryption token for `id` on ciphertext point `u`
    /// from the cluster: hedged fan-out, one NIZK verification of each
    /// partial, Lagrange combination of the first `t` valid.
    ///
    /// # Errors
    ///
    /// - [`Error::UnknownIdentity`] if `id` was never
    ///   [`register`](Self::register)ed with this client.
    /// - [`Error::Revoked`] when enough replicas to block any quorum
    ///   (`≥ n − t + 1`) refuse the identity as revoked.
    /// - [`Error::QuorumLost`] when fewer than `t` valid partials
    ///   exist after asking *every* replica — the typed, bounded-time
    ///   alternative to hanging on dead boxes.
    pub fn token(&self, id: &str, u: &G1Affine) -> Result<QuorumOutcome, Error> {
        let registered = self.systems.get(id).ok_or(Error::UnknownIdentity)?;
        let system = &registered.system;
        let started = Instant::now();
        let check = registered
            .verifier
            .get_or_init(|| ShareVerifier::new(system, id))
            .for_ciphertext(system, u);
        let mut stats = QuorumStats::default();
        let mut valid: Vec<DecryptionShare> = Vec::new();

        let order = self.order();
        let first_wave = self.t.saturating_add(self.hedge.extra).min(order.len());
        let (wave1, wave2) = order.split_at(first_wave);

        self.run_wave(wave1, id, u, &check, &mut valid, &mut stats);
        if valid.len() < self.t && !wave2.is_empty() {
            stats.hedged = true;
            self.run_wave(wave2, id, u, &check, &mut valid, &mut stats);
        }

        stats.valid = valid.len();
        stats.elapsed = started.elapsed();
        if valid.len() >= self.t {
            return Ok(QuorumOutcome {
                token: DecryptToken(system.combine_token(&valid)?),
                stats,
            });
        }
        // Revocation wins only when the refusals alone (more than
        // `n − t`, i.e. at least `n − t + 1`) are enough to block every
        // possible quorum — a lone byzantine replica cannot censor a
        // user by claiming revocation.
        let n = self.addrs.len();
        if stats.revoked > n - self.t {
            return Err(Error::Revoked);
        }
        Err(Error::QuorumLost)
    }

    /// Asks the given replicas concurrently and classifies each
    /// response into `valid` / `stats`, verifying each share once.
    fn run_wave(
        &self,
        indices: &[usize],
        id: &str,
        u: &G1Affine,
        check: &CiphertextVerifier<'_>,
        valid: &mut Vec<DecryptionShare>,
        stats: &mut QuorumStats,
    ) {
        // lock:class(Cluster)
        let results: TrackedMutex<Vec<(usize, Result<DecryptionShare, Error>)>> =
            TrackedMutex::new(LockClass::Cluster, Vec::with_capacity(indices.len()));
        std::thread::scope(|scope| {
            for &i in indices {
                let results = &results;
                scope.spawn(move || {
                    let attempt = Instant::now();
                    let outcome = self.request_share(i, id, u);
                    let slot = &self.slots[i];
                    match &outcome {
                        // Any decoded protocol answer — including a
                        // refusal — proves the replica is up.
                        Ok(_) | Err(Error::Revoked) | Err(Error::UnknownIdentity) => {
                            slot.reachable.store(true, Ordering::Relaxed);
                            note_latency(&slot.latency_us, attempt.elapsed());
                        }
                        Err(_) => {
                            slot.reachable.store(false, Ordering::Relaxed);
                            // Sort crashed replicas to the back of the
                            // next request's ordering.
                            slot.latency_us.store(u64::MAX, Ordering::Relaxed);
                        }
                    }
                    results.lock().push((i, outcome));
                });
            }
        });
        stats.asked += indices.len();
        for (i, outcome) in results.into_inner() {
            let replica = (i + 1) as u32;
            match outcome {
                Ok(share) => {
                    // Verify before trusting, and attribute failures to
                    // the *replica position*, not the index the share
                    // claims — a cheater doesn't get to pick its name.
                    if check.verify(&share).is_ok() {
                        if !valid.iter().any(|s| s.index == share.index) {
                            valid.push(share);
                        }
                    } else {
                        self.slots[i].cheats.fetch_add(1, Ordering::Relaxed);
                        stats.cheaters.push(replica);
                    }
                }
                Err(Error::Revoked) => stats.revoked += 1,
                // A decodable-but-wrong answer (bad point, lost share)
                // is a replica fault, not a transport fault; either
                // way it cannot contribute to the quorum.
                Err(_) => stats.unreachable.push(replica),
            }
        }
    }

    /// One request to replica `i`, dialing (or re-dialing) its stub if
    /// needed. A transport failure tears the cached stub down so the
    /// next request starts from a fresh connect.
    fn request_share(&self, i: usize, id: &str, u: &G1Affine) -> Result<DecryptionShare, Error> {
        let mut slot = self.slots[i].client.lock();
        if slot.is_none() {
            // The quorum path stays on plain v1 framing: it issues one
            // request per replica per round anyway, and the fixed v1
            // byte layout is what the cheater-attribution machinery
            // (and its fault-injection offsets) is calibrated against.
            let mut config = self.config.clone();
            config.pipelined = false;
            *slot = TcpSemClient::connect_with(self.addrs[i], self.params.clone(), config).ok();
        }
        let Some(client) = slot.as_mut() else {
            return Err(Error::Transport);
        };
        let result = client.token_share(id, u);
        if matches!(result, Err(Error::Transport)) {
            *slot = None;
        }
        result
    }

    /// Replica indices sorted fastest-first by latency EWMA (ties by
    /// index, so a fresh client asks 0, 1, 2, … deterministically).
    fn order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.addrs.len()).collect();
        order.sort_by_key(|&i| (self.slots[i].latency_us.load(Ordering::Relaxed), i));
        order
    }
}

/// Folds one observation into the EWMA (weight 1/4, initialized on
/// first contact).
fn note_latency(cell: &AtomicU64, elapsed: Duration) {
    let us = elapsed.as_micros().min(u64::MAX as u128 - 1) as u64;
    let old = cell.load(Ordering::Relaxed);
    let new = if old == u64::MAX {
        us
    } else {
        old - old / 4 + us / 4
    };
    cell.store(new, Ordering::Relaxed);
}

/// One replica of the cluster: its fixed address, its journal path,
/// and the live server (absent while killed).
struct Replica {
    addr: SocketAddr,
    journal: PathBuf,
    server: Option<TcpSemServer>,
}

/// A replicated (t, n) SEM: deals each enrolled identity's SEM scalar
/// across `n` journal-backed [`TcpSemServer`]s and manages their
/// lifecycle (see module docs).
pub struct SemCluster {
    pkg: Pkg,
    params: IbePublicParams,
    t: usize,
    server_config: ServerConfig,
    replicas: Vec<Replica>,
    enrollments: HashMap<String, ThresholdSystem>,
    /// Per-replica share sets, kept so a restarted replica can be
    /// re-armed (shares live only in memory by design — the journal
    /// holds revocations, never key material).
    shares: Vec<HashMap<String, IdKeyShare>>,
    /// Cluster-level revocation set, re-applied to replicas that were
    /// dead when the revocation happened.
    revoked: HashSet<String>,
}

impl SemCluster {
    /// Starts `n` journal-backed replicas on ephemeral loopback ports,
    /// with journals at `state_dir/sem-<i>.journal`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from socket binds or journal open/replay;
    /// `InvalidInput` for bad `(t, n)`.
    pub fn start(
        pkg: Pkg,
        t: usize,
        n: usize,
        server_config: ServerConfig,
        state_dir: impl Into<PathBuf>,
    ) -> std::io::Result<Self> {
        let addrs = vec![SocketAddr::from(([127, 0, 0, 1], 0)); n];
        Self::start_on(pkg, t, &addrs, server_config, state_dir)
    }

    /// [`SemCluster::start`] on explicit addresses (one replica per
    /// entry) — the CLI uses this to place replicas on consecutive
    /// ports.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from socket binds or journal open/replay;
    /// `InvalidInput` for bad `(t, n)`.
    pub fn start_on(
        pkg: Pkg,
        t: usize,
        addrs: &[SocketAddr],
        server_config: ServerConfig,
        state_dir: impl Into<PathBuf>,
    ) -> std::io::Result<Self> {
        let n = addrs.len();
        if t == 0 || t > n {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cluster requires 1 <= t <= n",
            ));
        }
        let state_dir = state_dir.into();
        std::fs::create_dir_all(&state_dir)?;
        let params = pkg.params().clone();
        let mut replicas = Vec::with_capacity(n);
        // A journal left by a previous run may already revoke
        // identities; lift the union into the cluster set so a later
        // restart of a *different* replica re-applies it.
        let mut revoked = HashSet::new();
        for (i, addr) in addrs.iter().enumerate() {
            let journal = state_dir.join(format!("sem-{i}.journal"));
            let (server, replayed) = TcpSemServer::bind_with_journal(
                addr,
                params.clone(),
                server_config.clone(),
                &journal,
            )?;
            revoked.extend(replayed.revoked);
            replicas.push(Replica {
                // Record the *assigned* address so a kill/restart
                // cycle reuses the same port.
                addr: server.local_addr(),
                journal,
                server: Some(server),
            });
        }
        Ok(SemCluster {
            pkg,
            params,
            t,
            server_config,
            replicas,
            enrollments: HashMap::new(),
            shares: vec![HashMap::new(); n],
            revoked,
        })
    }

    /// The quorum threshold `t`.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// The replica count `n`.
    pub fn players(&self) -> usize {
        self.replicas.len()
    }

    /// The public parameters replicas serve under.
    pub fn params(&self) -> &IbePublicParams {
        &self.params
    }

    /// The replicas' bound addresses (stable across kill/restart).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(|r| r.addr).collect()
    }

    /// Liveness flags, one per replica.
    pub fn alive(&self) -> Vec<bool> {
        self.replicas.iter().map(|r| r.server.is_some()).collect()
    }

    /// Enrolls `id`: deals its SEM scalar as (t, n) shares, arms every
    /// live replica with its share, and returns the user half-key.
    /// Already-enrolled identities are re-dealt (fresh blinding).
    ///
    /// # Errors
    ///
    /// Propagates [`Error::BadThresholdParams`] from the dealing.
    pub fn enroll(&mut self, rng: &mut impl RngCore, id: &str) -> Result<UserKey, Error> {
        let (user, tpkg, shares) =
            self.pkg
                .extract_split_threshold(rng, id, self.t, self.replicas.len())?;
        self.enrollments
            .insert(id.to_string(), tpkg.system().clone());
        for (i, share) in shares.into_iter().enumerate() {
            if let Some(server) = &self.replicas[i].server {
                server.install_token_share(share.clone());
            }
            self.shares[i].insert(id.to_string(), share);
        }
        Ok(user)
    }

    /// The verification system dealt for `id` at enrollment (what a
    /// [`QuorumClient`] needs to check partials).
    pub fn system_for(&self, id: &str) -> Option<&ThresholdSystem> {
        self.enrollments.get(id)
    }

    /// Revokes `id` on every live replica (each appends to its own
    /// journal) and records it cluster-wide so replicas that are down
    /// right now learn of it on restart.
    pub fn revoke(&mut self, id: &str) {
        self.revoked.insert(id.to_string());
        for replica in &self.replicas {
            if let Some(server) = &replica.server {
                server.revoke(id);
            }
        }
    }

    /// Reinstates `id` everywhere (mirror of [`SemCluster::revoke`]).
    pub fn unrevoke(&mut self, id: &str) {
        self.revoked.remove(id);
        for replica in &self.replicas {
            if let Some(server) = &replica.server {
                server.unrevoke(id);
            }
        }
    }

    /// Kills replica `i` (0-based): drains its server and frees the
    /// port. Returns `false` if it was already down.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn kill(&mut self, i: usize) -> bool {
        match self.replicas[i].server.take() {
            Some(server) => {
                server.shutdown();
                true
            }
            None => false,
        }
    }

    /// Restarts replica `i` on its original address: reopens and
    /// replays its journal, re-arms its key shares, and reconciles its
    /// revocation state with the cluster's (revocations and
    /// reinstatements it slept through are applied). Returns what the
    /// journal replay recovered.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from the rebind or journal replay; `AlreadyExists`
    /// if the replica is still running.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn restart(&mut self, i: usize) -> std::io::Result<ReplayedState> {
        if self.replicas[i].server.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "replica is still running",
            ));
        }
        let (server, replayed) = TcpSemServer::bind_with_journal(
            self.replicas[i].addr,
            self.params.clone(),
            self.server_config.clone(),
            &self.replicas[i].journal,
        )?;
        for share in self.shares[i].values() {
            server.install_token_share(share.clone());
        }
        // Reconcile: the journal is this replica's own history, which
        // may have diverged from the cluster while it was down.
        for id in &self.revoked {
            if !replayed.revoked.contains(id) {
                server.revoke(id);
            }
        }
        for id in &replayed.revoked {
            if !self.revoked.contains(id) {
                server.unrevoke(id);
            }
        }
        self.replicas[i].server = Some(server);
        Ok(replayed)
    }

    /// A [`QuorumClient`] for this cluster with every current
    /// enrollment registered, using the given deadlines.
    ///
    /// # Errors
    ///
    /// [`Error::BadThresholdParams`] is impossible for a constructed
    /// cluster but propagated for uniformity.
    pub fn client_with(&self, config: ClientConfig) -> Result<QuorumClient, Error> {
        let mut client = QuorumClient::new(self.params.clone(), self.t, self.addrs(), config)?;
        for (id, system) in &self.enrollments {
            client.register(id, system.clone());
        }
        Ok(client)
    }

    /// [`SemCluster::client_with`] under default deadlines.
    ///
    /// # Errors
    ///
    /// See [`SemCluster::client_with`].
    pub fn client(&self) -> Result<QuorumClient, Error> {
        self.client_with(ClientConfig::default())
    }

    /// Merged metrics across live replicas, with one
    /// [`ReplicaHealth`] row per replica (reachable = currently
    /// running; cheat counts are client-side observations and read 0
    /// here — overlay [`QuorumClient::replica_health`] for those).
    /// `None` when every replica is down.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        let mut merged: Option<MetricsSnapshot> = None;
        for replica in &self.replicas {
            if let Some(server) = &replica.server {
                let snapshot = server.metrics();
                match &mut merged {
                    None => merged = Some(snapshot),
                    Some(m) => m.merge(&snapshot),
                }
            }
        }
        let mut merged = merged?;
        merged.replicas = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaHealth {
                index: (i + 1) as u32,
                reachable: r.server.is_some(),
                cheats: 0,
            })
            .collect();
        Some(merged)
    }

    /// Shuts every live replica down (journals stay on disk for the
    /// next [`SemCluster::start`]).
    pub fn shutdown(mut self) {
        for replica in &mut self.replicas {
            if let Some(server) = replica.server.take() {
                server.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sempair_pairing::CurveParams;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sempair-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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

    fn setup(tag: &str, t: usize, n: usize) -> (StdRng, SemCluster) {
        let mut rng = StdRng::seed_from_u64(0x5EC0);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let cluster = SemCluster::start(pkg, t, n, ServerConfig::default(), temp_dir(tag)).unwrap();
        (rng, cluster)
    }

    #[test]
    fn quorum_token_end_to_end() {
        let (mut rng, mut cluster) = setup("e2e", 2, 3);
        let user = cluster.enroll(&mut rng, "alice").unwrap();
        let client = cluster.client_with(fast_client()).unwrap();
        let c = cluster
            .params()
            .encrypt_full(&mut rng, "alice", b"replicated mail")
            .unwrap();
        let outcome = client.token("alice", &c.u).unwrap();
        assert!(outcome.stats.cheaters.is_empty());
        assert!(outcome.stats.valid >= 2);
        let m = user
            .finish_decrypt(cluster.params(), &c, &outcome.token)
            .unwrap();
        assert_eq!(m, b"replicated mail");
        // Unregistered identities are a typed error.
        assert!(matches!(
            client.token("mallory", &c.u),
            Err(Error::UnknownIdentity)
        ));
        cluster.shutdown();
    }

    #[test]
    fn survives_minority_crash_and_reports_failover() {
        let (mut rng, mut cluster) = setup("crash", 2, 3);
        let user = cluster.enroll(&mut rng, "bob").unwrap();
        let client = cluster.client_with(fast_client()).unwrap();
        let c = cluster
            .params()
            .encrypt_full(&mut rng, "bob", b"still here")
            .unwrap();
        assert!(cluster.kill(0));
        assert!(!cluster.kill(0), "double kill reports already-down");
        let outcome = client.token("bob", &c.u).unwrap();
        assert_eq!(outcome.stats.valid, 2);
        assert!(outcome.stats.unreachable.contains(&1));
        let m = user
            .finish_decrypt(cluster.params(), &c, &outcome.token)
            .unwrap();
        assert_eq!(m, b"still here");
        // Health reflects the crash.
        let health = client.replica_health();
        assert!(!health[0].reachable);
        assert!(health[1].reachable && health[2].reachable);
        cluster.shutdown();
    }

    #[test]
    fn quorum_lost_is_typed_and_bounded() {
        let (mut rng, mut cluster) = setup("lost", 2, 3);
        cluster.enroll(&mut rng, "carol").unwrap();
        let client = cluster.client_with(fast_client()).unwrap();
        let c = cluster
            .params()
            .encrypt_full(&mut rng, "carol", b"gone")
            .unwrap();
        cluster.kill(0);
        cluster.kill(2);
        let started = Instant::now();
        assert!(matches!(
            client.token("carol", &c.u),
            Err(Error::QuorumLost)
        ));
        // Bounded: refused connects fail fast, well under the 5 s
        // connect deadline per replica.
        assert!(started.elapsed() < Duration::from_secs(10));
        cluster.shutdown();
    }

    #[test]
    fn revocation_beats_quorum_and_survives_restart() {
        let (mut rng, mut cluster) = setup("revoke", 2, 3);
        cluster.enroll(&mut rng, "dave").unwrap();
        let client = cluster.client_with(fast_client()).unwrap();
        let c = cluster
            .params()
            .encrypt_full(&mut rng, "dave", b"no more")
            .unwrap();
        cluster.revoke("dave");
        assert!(matches!(client.token("dave", &c.u), Err(Error::Revoked)));
        // Kill + restart: the journal replays the revocation, and the
        // restarted replica still refuses.
        cluster.kill(1);
        let replayed = cluster.restart(1).unwrap();
        assert!(replayed.revoked.contains("dave"));
        assert!(matches!(client.token("dave", &c.u), Err(Error::Revoked)));
        // Reinstatement flows back through the same machinery.
        cluster.unrevoke("dave");
        assert!(client.token("dave", &c.u).is_ok());
        cluster.shutdown();
    }

    #[test]
    fn restart_reconciles_missed_revocations() {
        let (mut rng, mut cluster) = setup("missed", 2, 3);
        cluster.enroll(&mut rng, "erin").unwrap();
        // Replica 2 sleeps through the revocation…
        cluster.kill(2);
        cluster.revoke("erin");
        let replayed = cluster.restart(2).unwrap();
        // …its own journal never saw it…
        assert!(!replayed.revoked.contains("erin"));
        // …but reconciliation re-applies it, so even a quorum that
        // includes the revived replica refuses.
        cluster.kill(0);
        let client = cluster.client_with(fast_client()).unwrap();
        let c = cluster
            .params()
            .encrypt_full(&mut rng, "erin", b"x")
            .unwrap();
        assert!(matches!(client.token("erin", &c.u), Err(Error::Revoked)));
        cluster.shutdown();
    }

    #[test]
    fn cluster_metrics_merge_and_replica_rows() {
        let (mut rng, mut cluster) = setup("metrics", 2, 3);
        let _ = cluster.enroll(&mut rng, "frank").unwrap();
        let client = cluster.client_with(fast_client()).unwrap();
        let c = cluster
            .params()
            .encrypt_full(&mut rng, "frank", b"count me")
            .unwrap();
        client.token("frank", &c.u).unwrap();
        cluster.kill(2);
        let snapshot = cluster.metrics().expect("live replicas");
        assert_eq!(snapshot.replicas.len(), 3);
        assert!(snapshot.replicas[0].reachable);
        assert!(!snapshot.replicas[2].reachable);
        // The merged snapshot still speaks Prometheus.
        let text = snapshot.to_prometheus_text();
        assert_eq!(
            MetricsSnapshot::from_prometheus_text(&text).expect("parseable"),
            snapshot
        );
        cluster.kill(0);
        cluster.kill(1);
        assert!(cluster.metrics().is_none());
        cluster.shutdown();
    }

    #[test]
    fn bad_threshold_params_rejected() {
        let mut rng = StdRng::seed_from_u64(0x5EC1);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let params = pkg.params().clone();
        assert!(SemCluster::start(pkg, 4, 3, ServerConfig::default(), temp_dir("bad")).is_err());
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(QuorumClient::new(params.clone(), 0, vec![addr], fast_client()).is_err());
        assert!(QuorumClient::new(params, 2, vec![addr], fast_client()).is_err());
    }
}
