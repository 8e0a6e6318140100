//! The `(t, n)` threshold Boneh–Franklin IBE of §3.
//!
//! The PKG acts as trusted dealer: it shares its master key `s` through
//! a degree-`t−1` polynomial `f`, publishes verification keys
//! `P_pub^(i) = f(i)·P`, and for each identity delivers the key share
//! `d_IDᵢ = f(i)·Q_ID` to player `i`. Any `t` players can jointly
//! decrypt `BasicIdent` ciphertexts by publishing decryption shares
//! `ê(U, d_IDᵢ)` which the recombiner combines with Lagrange exponents.
//!
//! *Robustness* (§3.2) is the non-interactive proof that a decryption
//! share is consistent with the player's public verification key: a
//! Fiat–Shamir proof of equality of the two pairing preimages
//! `ê(P, ·)` and `ê(U, ·)` at the secret point `d_IDᵢ`. With
//! `n ≥ 2t − 1`, honest players can always identify cheaters, discard
//! their shares and even *reconstruct* the cheater's key share from `t`
//! honest ones (implemented as [`ThresholdSystem::recover_key_share`]).

// Share bundles and system encodings arrive from untrusted peers;
// decoding goes through the bounds-checked [`Reader`] instead of
// indexing so malformed input fails closed.
#![warn(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::indexing_slicing))]

use crate::bf_ibe::{BasicCiphertext, IbePublicParams, Pkg};
use crate::cursor::Reader;
use crate::mediated::UserKey;
use crate::shamir::{self, Polynomial};
use crate::Error;
use rand::RngCore;
use sempair_bigint::BigUint;
use sempair_hash::derive;
use sempair_pairing::{CurveParams, G1Affine, Gt, PreparedG1};

/// Public description of a `(t, n)` threshold IBE deployment.
#[derive(Debug, Clone)]
pub struct ThresholdSystem {
    params: IbePublicParams,
    t: usize,
    n: usize,
    /// `P_pub^(i) = f(i)·P`, indexed by player (position `i−1`).
    verification_keys: Vec<G1Affine>,
}

/// The dealer (PKG): holds the sharing polynomial.
///
/// The polynomial is the master secret in shared form; `Polynomial`'s
/// own `Debug` redaction and drop-erasure cover it.
pub struct ThresholdPkg {
    system: ThresholdSystem,
    poly: Polynomial,
}

impl std::fmt::Debug for ThresholdPkg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThresholdPkg")
            .field("poly", &"<redacted>")
            .finish_non_exhaustive()
    }
}

/// Player `i`'s private key share for one identity:
/// `d_IDᵢ = f(i)·Q_ID`.
///
/// Secret material: `Debug` redacts the point, equality is
/// constant-time, and dropping the share erases the point.
#[derive(Clone, Eq)]
pub struct IdKeyShare {
    /// The identity this share serves.
    pub id: String,
    /// Player index (`1..=n`).
    pub index: u32,
    /// The share point.
    pub point: G1Affine,
}

impl std::fmt::Debug for IdKeyShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdKeyShare")
            .field("id", &self.id)
            .field("index", &self.index)
            .field("point", &"<redacted>")
            .finish()
    }
}

impl PartialEq for IdKeyShare {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.index == other.index && self.point.ct_eq(&other.point)
    }
}

impl Drop for IdKeyShare {
    fn drop(&mut self) {
        self.point.zeroize();
    }
}

/// A published decryption share `ê(U, d_IDᵢ)`, optionally carrying the
/// §3.2 robustness proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecryptionShare {
    /// Player index.
    pub index: u32,
    /// `ê(U, d_IDᵢ)`.
    pub value: Gt,
    /// Robustness proof, if the player produced one.
    pub proof: Option<EqProof>,
}

/// Fiat–Shamir proof that `(v, g) = (ê(P, D), ê(U, D))` for one secret
/// point `D` (§3.2): commitments `w1 = ê(P, R)`, `w2 = ê(U, R)`,
/// challenge `e = H(g, v, w1, w2)`, response `V = R + e·D`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqProof {
    w1: Gt,
    w2: Gt,
    e: BigUint,
    v: G1Affine,
}

impl ThresholdPkg {
    /// `Setup` (§3.2): samples `s` and `f`, publishes
    /// `P_pub = sP` and `P_pub^(i) = f(i)P` for `i = 1..n`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadThresholdParams`] unless `1 ≤ t ≤ n`.
    pub fn setup(
        rng: &mut impl RngCore,
        curve: CurveParams,
        t: usize,
        n: usize,
    ) -> Result<Self, Error> {
        if t == 0 {
            return Err(Error::BadThresholdParams("t must be at least 1"));
        }
        if t > n {
            return Err(Error::BadThresholdParams("t cannot exceed n"));
        }
        let master = curve.random_scalar(rng);
        Self::from_master(rng, curve, master, t, n)
    }

    /// Deals a caller-supplied master secret instead of sampling one.
    ///
    /// This is how a SEM cluster dealer shares an *existing* secret
    /// (e.g. the SEM half `s − b` of a mediated key split) across `n`
    /// replicas: the constant term is fixed, only the blinding
    /// coefficients are random.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadThresholdParams`] unless `1 ≤ t ≤ n`.
    pub fn from_master(
        rng: &mut impl RngCore,
        curve: CurveParams,
        master: BigUint,
        t: usize,
        n: usize,
    ) -> Result<Self, Error> {
        if t == 0 {
            return Err(Error::BadThresholdParams("t must be at least 1"));
        }
        if t > n {
            return Err(Error::BadThresholdParams("t cannot exceed n"));
        }
        let master = &master % curve.order();
        let poly = Polynomial::sample(rng, &master, t, curve.order());
        let p_pub = curve.mul_generator(&master);
        let verification_keys = (1..=n as u32)
            .map(|i| curve.mul_generator(&poly.eval_index(i)))
            .collect();
        let params = IbePublicParams::from_parts(curve, p_pub);
        Ok(ThresholdPkg {
            system: ThresholdSystem {
                params,
                t,
                n,
                verification_keys,
            },
            poly,
        })
    }

    /// The public system description.
    pub fn system(&self) -> &ThresholdSystem {
        &self.system
    }

    /// `Keygen` (§3.2): the key shares `d_IDᵢ = f(i)·Q_ID` for all `n`
    /// players.
    pub fn keygen(&self, id: &str) -> Vec<IdKeyShare> {
        let q_id = self.system.params.hash_identity(id);
        (1..=self.system.n as u32)
            .map(|i| IdKeyShare {
                id: id.to_string(),
                index: i,
                point: self
                    .system
                    .params
                    .curve()
                    .mul(&self.poly.eval_index(i), &q_id),
            })
            .collect()
    }

    /// The master secret `f(0)` (test hook: lets tests compare against
    /// the non-threshold scheme).
    pub fn master_for_tests(&self) -> &BigUint {
        self.poly.secret()
    }
}

impl ThresholdSystem {
    /// The embedded (non-threshold) public parameters.
    pub fn params(&self) -> &IbePublicParams {
        &self.params
    }

    /// Threshold `t`.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// Number of players `n`.
    pub fn players(&self) -> usize {
        self.n
    }

    /// `P_pub^(i)` for player `i` (1-based); `None` if `i` is out of
    /// `1..=n`.
    pub fn verification_key(&self, i: u32) -> Option<&G1Affine> {
        let index = (i as usize).checked_sub(1)?;
        self.verification_keys.get(index)
    }

    /// The §3.2 sanity check players run at setup: for the index subset
    /// `s` of size `t`, `Σ Lᵢ·P_pub^(i) = P_pub`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShare`] (player 0 designating the dealer)
    /// if the check fails, or index errors from Lagrange.
    pub fn check_dealer_consistency(&self, subset: &[u32]) -> Result<(), Error> {
        if subset.len() != self.t {
            return Err(Error::BadThresholdParams("subset size must equal t"));
        }
        let q = self.params.curve().order();
        let mut terms = Vec::with_capacity(subset.len());
        for &i in subset {
            let li = shamir::lagrange_coefficient(subset, i, q)?;
            let vk = self
                .verification_key(i)
                .ok_or(Error::InvalidShare { player: i })?;
            terms.push((li, vk.clone()));
        }
        if &self.params.curve().multi_mul(&terms) == self.params.p_pub() {
            Ok(())
        } else {
            Err(Error::InvalidShare { player: 0 })
        }
    }

    /// Player-side share validation (§3.2 `Keygen`):
    /// `ê(P_pub^(i), Q_ID) = ê(P, d_IDᵢ)`; on failure the player
    /// complains to the PKG.
    pub fn verify_key_share(&self, share: &IdKeyShare) -> bool {
        if share.index == 0 || share.index as usize > self.n {
            return false;
        }
        let Some(vk) = self.verification_key(share.index) else {
            return false;
        };
        let curve = self.params.curve();
        let q_id = self.params.hash_identity(&share.id);
        curve.pairing_equals(vk, &q_id, curve.generator(), &share.point)
    }

    /// `Decrypt` (player side): the decryption share `ê(U, d_IDᵢ)`.
    pub fn decryption_share(&self, key_share: &IdKeyShare, u: &G1Affine) -> DecryptionShare {
        DecryptionShare {
            index: key_share.index,
            value: self.params.curve().pairing(u, &key_share.point),
            proof: None,
        }
    }

    /// Robust variant: attaches the §3.2 NIZK so anyone can check the
    /// share against `P_pub^(i)` without interaction.
    pub fn decryption_share_robust(
        &self,
        rng: &mut impl RngCore,
        key_share: &IdKeyShare,
        u: &G1Affine,
    ) -> DecryptionShare {
        robust_decryption_share(self.params.curve(), rng, key_share, u)
    }

    /// Verifies a robust decryption share for identity `id` and
    /// ciphertext component `u`.
    ///
    /// One-shot form of [`ShareVerifier`]: computes only the share's
    /// own `v_i`. Callers checking several shares of one identity
    /// should build a [`ShareVerifier`] once instead.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProof`] if no proof is attached or it fails;
    /// [`Error::InvalidShare`] for an out-of-range index.
    pub fn verify_decryption_share(
        &self,
        id: &str,
        u: &G1Affine,
        share: &DecryptionShare,
    ) -> Result<(), Error> {
        ShareVerifier::for_players(self, id, |i| i == share.index)
            .for_ciphertext(self, u)
            .verify(share)
    }

    /// `Recombination` (§3.2): `g = Π ê(U, d_IDᵢ)^{Lᵢ}`, then
    /// `m = V ⊕ H2(g)`. Takes exactly the shares to use (≥ t; extra
    /// shares beyond the first `t` are ignored).
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`], index errors, or propagated Lagrange
    /// failures.
    pub fn recombine_basic(
        &self,
        ciphertext: &BasicCiphertext,
        shares: &[DecryptionShare],
    ) -> Result<Vec<u8>, Error> {
        let g = self.combine_token(shares)?;
        let mut m = ciphertext.v.clone();
        let mask = self.params.mask_h2(&g, m.len());
        sempair_hash::xor_in_place(&mut m, &mask);
        Ok(m)
    }

    /// Lagrange-combines the first `t` shares in the *group*:
    /// `g = Π ê(U, d_IDᵢ)^{Lᵢ} = ê(U, s·Q_ID)`. Shares are trusted as
    /// given; [`combine_token_robust`](Self::combine_token_robust)
    /// verifies them first.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`], or propagated Lagrange failures
    /// (zero or repeated indices).
    pub fn combine_token(&self, shares: &[DecryptionShare]) -> Result<Gt, Error> {
        let used = shares.get(..self.t).ok_or(Error::NotEnoughShares {
            needed: self.t,
            got: shares.len(),
        })?;
        let indices: Vec<u32> = used.iter().map(|s| s.index).collect();
        let curve = self.params.curve();
        let q = curve.order();
        let mut g = curve.gt_one();
        for share in used {
            let li = shamir::lagrange_coefficient(&indices, share.index, q)?;
            g = curve.gt_mul(&g, &curve.gt_pow(&share.value, &li));
        }
        Ok(g)
    }

    /// Robust recombination: verifies every share first, discards
    /// invalid ones, reports the cheaters, and recombines from the
    /// valid remainder.
    ///
    /// Returns `(plaintext, cheater_indices)`.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`] if fewer than `t` shares survive
    /// verification.
    pub fn recombine_basic_robust(
        &self,
        id: &str,
        ciphertext: &BasicCiphertext,
        shares: &[DecryptionShare],
    ) -> Result<(Vec<u8>, Vec<u32>), Error> {
        let verifier = ShareVerifier::for_shares(self, id, shares);
        let check = verifier.for_ciphertext(self, &ciphertext.u);
        let mut valid = Vec::new();
        let mut cheaters = Vec::new();
        for share in shares {
            match check.verify(share) {
                Ok(()) => valid.push(share.clone()),
                Err(_) => cheaters.push(share.index),
            }
        }
        let m = self.recombine_basic(ciphertext, &valid)?;
        Ok((m, cheaters))
    }

    /// Reconstructs player `j`'s key share from `t` valid shares of
    /// other players (the §3.2 cheater-recovery step): Lagrange
    /// interpolation *in the group* at `x = j`.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`] or index errors.
    pub fn recover_key_share(&self, shares: &[IdKeyShare], j: u32) -> Result<IdKeyShare, Error> {
        let used = shares.get(..self.t).ok_or(Error::NotEnoughShares {
            needed: self.t,
            got: shares.len(),
        })?;
        let first = used
            .first()
            .ok_or(Error::NotEnoughShares { needed: 1, got: 0 })?;
        let indices: Vec<u32> = used.iter().map(|s| s.index).collect();
        let curve = self.params.curve();
        let q = curve.order();
        let mut terms = Vec::with_capacity(used.len());
        for share in used {
            let li = shamir::lagrange_coefficient_at(&indices, share.index, j as u64, q)?;
            terms.push((li, share.point.clone()));
        }
        Ok(IdKeyShare {
            id: first.id.clone(),
            index: j,
            point: curve.multi_mul(&terms),
        })
    }

    /// Fiat–Shamir challenge `e = H(g_i, v_i, w1, w2) mod q`.
    fn proof_challenge(&self, g_i: &Gt, v_i: &Gt, w1: &Gt, w2: &Gt) -> BigUint {
        eq_proof_challenge(self.params.curve(), g_i, v_i, w1, w2)
    }

    /// Verifies every share, discards invalid ones, and combines the
    /// first `t` valid shares in the *group*:
    /// `g = Π ê(U, d_IDᵢ)^{Lᵢ} = ê(U, s·Q_ID)`.
    ///
    /// This is the token-level analogue of
    /// [`recombine_basic_robust`](Self::recombine_basic_robust): a
    /// mediated deployment hands the combined `Gt` element to the user
    /// as a decryption token instead of unmasking a `BasicIdent`
    /// ciphertext. Returns `(token, cheater_indices)`; duplicate player
    /// indices beyond the first occurrence are discarded, not treated
    /// as cheating.
    ///
    /// # Errors
    ///
    /// [`Error::NotEnoughShares`] if fewer than `t` distinct shares
    /// survive verification, or propagated Lagrange failures.
    pub fn combine_token_robust(
        &self,
        id: &str,
        u: &G1Affine,
        shares: &[DecryptionShare],
    ) -> Result<(Gt, Vec<u32>), Error> {
        let verifier = ShareVerifier::for_shares(self, id, shares);
        let check = verifier.for_ciphertext(self, u);
        let mut valid: Vec<DecryptionShare> = Vec::new();
        let mut cheaters = Vec::new();
        for share in shares {
            if valid.iter().any(|s| s.index == share.index) {
                continue;
            }
            match check.verify(share) {
                Ok(()) => valid.push(share.clone()),
                Err(_) => cheaters.push(share.index),
            }
        }
        Ok((self.combine_token(&valid)?, cheaters))
    }
}

/// The §3.2 share check for one identity, with the per-identity work
/// done once.
///
/// Building a verifier hashes `Q_ID`, prepares it as a fixed pairing
/// argument, and caches each player's public
/// `v_i = ê(P_pub^(i), Q_ID) = ê(P, d_IDᵢ)`.
/// [`for_ciphertext`](Self::for_ciphertext) then prepares `U` once per
/// ciphertext, so each share costs the challenge hash, two prepared
/// pairings and two exponentiations by the short challenge `e`.
#[derive(Debug, Clone)]
pub struct ShareVerifier {
    /// `v_i` at position `i − 1`; `None` for players the verifier was
    /// not built for.
    v: Vec<Option<Gt>>,
}

impl ShareVerifier {
    /// A verifier for the shares of every player of `system` on
    /// identity `id`.
    pub fn new(system: &ThresholdSystem, id: &str) -> Self {
        Self::for_players(system, id, |_| true)
    }

    /// A verifier covering only the player indices that occur in
    /// `shares`.
    fn for_shares(system: &ThresholdSystem, id: &str, shares: &[DecryptionShare]) -> Self {
        Self::for_players(system, id, |i| shares.iter().any(|s| s.index == i))
    }

    fn for_players(system: &ThresholdSystem, id: &str, wanted: impl Fn(u32) -> bool) -> Self {
        let curve = system.params.curve();
        // The pairing is symmetric on G1, so `v_i` pairs the prepared
        // `Q_ID` against each verification key.
        let q_id = curve.prepare_g1(&system.params.hash_identity(id));
        let v = (1u32..)
            .zip(&system.verification_keys)
            .map(|(i, vk)| wanted(i).then(|| curve.pairing_prepared(&q_id, vk)))
            .collect();
        ShareVerifier { v }
    }

    /// Binds the verifier to one ciphertext component `u`, prepared
    /// once for every share checked against it. `system` must be the
    /// system the verifier was built from.
    pub fn for_ciphertext<'a>(
        &'a self,
        system: &'a ThresholdSystem,
        u: &G1Affine,
    ) -> CiphertextVerifier<'a> {
        CiphertextVerifier {
            system,
            v: &self.v,
            u: system.params.curve().prepare_g1(u),
        }
    }
}

/// A [`ShareVerifier`] bound to one ciphertext (see
/// [`ShareVerifier::for_ciphertext`]).
#[derive(Debug)]
pub struct CiphertextVerifier<'a> {
    system: &'a ThresholdSystem,
    v: &'a [Option<Gt>],
    /// `U`, prepared as the fixed first argument of `ê(U, V)`.
    u: PreparedG1,
}

impl CiphertextVerifier<'_> {
    /// Checks one robust decryption share: the Fiat–Shamir challenge
    /// `e = H(g_i, v_i, w1, w2)`, then `ê(P, V) = w1 · v_iᵉ` and
    /// `ê(U, V) = w2 · g_iᵉ`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProof`] if no proof is attached or it fails;
    /// [`Error::InvalidShare`] for an out-of-range index.
    pub fn verify(&self, share: &DecryptionShare) -> Result<(), Error> {
        let bad_index = Error::InvalidShare {
            player: share.index,
        };
        if share.index == 0 || share.index as usize > self.system.n {
            return Err(bad_index);
        }
        let Some(proof) = &share.proof else {
            return Err(Error::InvalidProof);
        };
        let v_i = (share.index as usize)
            .checked_sub(1)
            .and_then(|i| self.v.get(i))
            .and_then(Option::as_ref)
            .ok_or(bad_index)?;
        let curve = self.system.params.curve();
        let e = self
            .system
            .proof_challenge(&share.value, v_i, &proof.w1, &proof.w2);
        if e != proof.e {
            return Err(Error::InvalidProof);
        }
        let lhs1 = curve.pairing_prepared(curve.prepared_generator(), &proof.v);
        if lhs1 != curve.gt_mul(&proof.w1, &curve.gt_pow(v_i, &e)) {
            return Err(Error::InvalidProof);
        }
        let lhs2 = curve.pairing_prepared(&self.u, &proof.v);
        if lhs2 != curve.gt_mul(&proof.w2, &curve.gt_pow(&share.value, &e)) {
            return Err(Error::InvalidProof);
        }
        Ok(())
    }
}

impl Pkg {
    /// Mediated `Keygen` for a *replicated* SEM (§4 meets §3.2): the
    /// full key `d_ID = s·Q_ID` splits into a user half
    /// `d_user = b·Q_ID` (uniform `b`) and a SEM half
    /// `(s − b)·Q_ID` that is never materialized anywhere — instead
    /// the scalar `s − b` is Shamir-dealt across `n` replicas as a
    /// per-identity [`ThresholdPkg`], so no single SEM box ever holds
    /// enough to issue a token alone.
    ///
    /// The returned [`ThresholdSystem`] (via
    /// [`ThresholdPkg::system`]) carries the verification keys a
    /// quorum client needs to NIZK-check each replica's partial token;
    /// `t` verified partials Lagrange-combine
    /// ([`ThresholdSystem::combine_token_robust`]) to
    /// `ê(U, (s − b)·Q_ID)`, which
    /// [`UserKey::finish_decrypt`](crate::mediated::UserKey::finish_decrypt)
    /// completes with `ê(U, b·Q_ID)` exactly like a single-SEM token.
    ///
    /// Note the user half is `b·Q_ID`, not the `b·P` of
    /// [`Pkg::extract_split`]: anchoring both halves on `Q_ID` is what
    /// makes the SEM half a *scalar* multiple of `Q_ID`, and therefore
    /// dealable through the §3.2 polynomial machinery with its share
    /// verification intact.
    ///
    /// # Errors
    ///
    /// [`Error::BadThresholdParams`] unless `1 ≤ t ≤ n`.
    pub fn extract_split_threshold(
        &self,
        rng: &mut impl RngCore,
        id: &str,
        t: usize,
        n: usize,
    ) -> Result<(UserKey, ThresholdPkg, Vec<IdKeyShare>), Error> {
        let curve = self.params().curve();
        let q = curve.order();
        let blind = &curve.random_scalar(rng) % q;
        let q_id = self.params().hash_identity(id);
        let d_user = curve.mul(&blind, &q_id);
        // s − b mod q, kept non-negative by adding q first.
        let sem_scalar = &(&(self.master() % q) + q) - &blind;
        let tpkg = ThresholdPkg::from_master(rng, curve.clone(), sem_scalar, t, n)?;
        let shares = tpkg.keygen(id);
        Ok((
            UserKey {
                id: id.to_string(),
                point: d_user,
            },
            tpkg,
            shares,
        ))
    }
}

/// Computes a robust decryption share (`ê(U, d_IDᵢ)` plus the §3.2
/// NIZK) from the curve alone — the SEM-replica-side entry point, which
/// holds a key share but not the cluster's `ThresholdSystem`.
pub fn robust_decryption_share(
    curve: &CurveParams,
    rng: &mut impl RngCore,
    key_share: &IdKeyShare,
    u: &G1Affine,
) -> DecryptionShare {
    // Both `ê(U, ·)` pairings share one preparation of `U`.
    let prep_u = curve.prepare_g1(u);
    let g_i = curve.pairing_prepared(&prep_u, &key_share.point);
    // Both `ê(P, ·)` pairings share the parameter set's cached
    // prepared generator — line evaluation only, no point arithmetic.
    let prep_p = curve.prepared_generator();
    let v_i = curve.pairing_prepared(prep_p, &key_share.point);
    // Commitment.
    let rho = curve.random_scalar(rng);
    let r_point = curve.mul_generator(&rho);
    let w1 = curve.pairing_prepared(prep_p, &r_point);
    let w2 = curve.pairing_prepared(&prep_u, &r_point);
    let e = eq_proof_challenge(curve, &g_i, &v_i, &w1, &w2);
    // V = R + e·d_IDᵢ.
    let v = curve.add(&r_point, &curve.mul(&e, &key_share.point));
    DecryptionShare {
        index: key_share.index,
        value: g_i,
        proof: Some(EqProof { w1, w2, e, v }),
    }
}

/// Fiat–Shamir challenge `e = H(g_i, v_i, w1, w2) mod q` shared by
/// prover and verifier.
fn eq_proof_challenge(curve: &CurveParams, g_i: &Gt, v_i: &Gt, w1: &Gt, w2: &Gt) -> BigUint {
    let digest = derive::transcript_hash(
        b"sempair-threshold-eqproof",
        &[
            &curve.gt_to_bytes(g_i),
            &curve.gt_to_bytes(v_i),
            &curve.gt_to_bytes(w1),
            &curve.gt_to_bytes(w2),
        ],
    );
    &BigUint::from_be_bytes(&digest) % curve.order()
}

// --- wire codec --------------------------------------------------------------
//
// `EqProof`'s fields are deliberately private (a proof is opaque), so
// the byte layout lives here rather than in `crate::wire`. Layout:
// `u32 index ‖ u8 has_proof ‖ u16 |g| ‖ g` and, when a proof rides
// along, `u16 |w1| ‖ w1 ‖ u16 |w2| ‖ w2 ‖ u16 |e| ‖ e ‖ point V`
// (compressed, fixed `point_len`). Trailing bytes are rejected.

fn push_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    debug_assert!(bytes.len() <= u16::MAX as usize);
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn take_chunk<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], Error> {
    let len = r.u16_be().ok_or(Error::InvalidCiphertext)? as usize;
    r.bytes(len).ok_or(Error::InvalidCiphertext)
}

/// Encodes a decryption share (with its robustness proof, if any) for
/// the wire.
pub fn decryption_share_to_bytes(curve: &CurveParams, share: &DecryptionShare) -> Vec<u8> {
    let mut out = share.index.to_be_bytes().to_vec();
    match &share.proof {
        None => {
            out.push(0);
            push_chunk(&mut out, &curve.gt_to_bytes(&share.value));
        }
        Some(proof) => {
            out.push(1);
            push_chunk(&mut out, &curve.gt_to_bytes(&share.value));
            push_chunk(&mut out, &curve.gt_to_bytes(&proof.w1));
            push_chunk(&mut out, &curve.gt_to_bytes(&proof.w2));
            push_chunk(&mut out, &proof.e.to_be_bytes());
            out.extend_from_slice(&curve.point_to_bytes(&proof.v));
        }
    }
    out
}

/// Decodes [`decryption_share_to_bytes`] output.
///
/// Decoding validates shape only (group membership of `V`, well-formed
/// `Gt` elements); whether the share is *honest* is decided by
/// [`ThresholdSystem::verify_decryption_share`].
///
/// # Errors
///
/// [`Error::InvalidCiphertext`] on malformed bytes.
pub fn decryption_share_from_bytes(
    curve: &CurveParams,
    bytes: &[u8],
) -> Result<DecryptionShare, Error> {
    let mut r = Reader::new(bytes);
    let index = r.u32_be().ok_or(Error::InvalidCiphertext)?;
    let has_proof = match r.u8().ok_or(Error::InvalidCiphertext)? {
        0 => false,
        1 => true,
        _ => return Err(Error::InvalidCiphertext),
    };
    let value = curve
        .gt_from_bytes(take_chunk(&mut r)?)
        .map_err(|_| Error::InvalidCiphertext)?;
    let proof = if has_proof {
        let w1 = curve
            .gt_from_bytes(take_chunk(&mut r)?)
            .map_err(|_| Error::InvalidCiphertext)?;
        let w2 = curve
            .gt_from_bytes(take_chunk(&mut r)?)
            .map_err(|_| Error::InvalidCiphertext)?;
        let e = BigUint::from_be_bytes(take_chunk(&mut r)?);
        let v_bytes = r.bytes(curve.point_len()).ok_or(Error::InvalidCiphertext)?;
        let v = curve
            .point_from_bytes(v_bytes)
            .map_err(|_| Error::InvalidCiphertext)?;
        Some(EqProof { w1, w2, e, v })
    } else {
        None
    };
    if !r.is_empty() {
        return Err(Error::InvalidCiphertext);
    }
    Ok(DecryptionShare {
        index,
        value,
        proof,
    })
}

/// Encodes a [`ThresholdSystem`] for persistence: `u32 t ‖ u32 n ‖
/// P_pub ‖ P_pub^(1) ‖ … ‖ P_pub^(n)` (all points compressed, fixed
/// `point_len`). The curve itself is *not* serialized — the decoder
/// supplies it, so one stored curve spec can back many systems.
pub fn threshold_system_to_bytes(system: &ThresholdSystem) -> Vec<u8> {
    let curve = system.params.curve();
    let mut out = (system.t as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&(system.n as u32).to_be_bytes());
    out.extend_from_slice(&curve.point_to_bytes(system.params.p_pub()));
    for vk in &system.verification_keys {
        out.extend_from_slice(&curve.point_to_bytes(vk));
    }
    out
}

/// Decodes [`threshold_system_to_bytes`] output against `curve`.
///
/// # Errors
///
/// [`Error::InvalidCiphertext`] on malformed bytes;
/// [`Error::BadThresholdParams`] when the embedded `(t, n)` are not
/// `1 ≤ t ≤ n`.
pub fn threshold_system_from_bytes(
    curve: &CurveParams,
    bytes: &[u8],
) -> Result<ThresholdSystem, Error> {
    let mut r = Reader::new(bytes);
    let t = r.u32_be().ok_or(Error::InvalidCiphertext)? as usize;
    let n = r.u32_be().ok_or(Error::InvalidCiphertext)? as usize;
    if t == 0 {
        return Err(Error::BadThresholdParams("t must be at least 1"));
    }
    if t > n {
        return Err(Error::BadThresholdParams("t cannot exceed n"));
    }
    let point_len = curve.point_len();
    let rest = r.rest();
    // The length check above bounds `n` by the actual payload, so this
    // preallocation cannot exceed what the sender really transmitted.
    if rest.len()
        != point_len
            .checked_mul(n + 1)
            .ok_or(Error::InvalidCiphertext)?
    {
        return Err(Error::InvalidCiphertext);
    }
    let mut points = rest.chunks_exact(point_len).map(|chunk| {
        curve
            .point_from_bytes(chunk)
            .map_err(|_| Error::InvalidCiphertext)
    });
    let p_pub = points.next().ok_or(Error::InvalidCiphertext)??;
    let verification_keys = points.collect::<Result<Vec<_>, _>>()?;
    Ok(ThresholdSystem {
        params: IbePublicParams::from_parts(curve.clone(), p_pub),
        t,
        n,
        verification_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf_ibe::Pkg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, n: usize) -> (ThresholdPkg, StdRng) {
        let mut rng = StdRng::seed_from_u64(81);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = ThresholdPkg::setup(&mut rng, curve, t, n).unwrap();
        (pkg, rng)
    }

    #[test]
    fn bad_params_rejected() {
        let mut rng = StdRng::seed_from_u64(82);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        assert!(ThresholdPkg::setup(&mut rng, curve.clone(), 0, 3).is_err());
        assert!(ThresholdPkg::setup(&mut rng, curve, 4, 3).is_err());
    }

    #[test]
    fn dealer_consistency_check() {
        let (pkg, _) = setup(3, 5);
        let sys = pkg.system();
        sys.check_dealer_consistency(&[1, 2, 3]).unwrap();
        sys.check_dealer_consistency(&[2, 4, 5]).unwrap();
        assert!(sys.check_dealer_consistency(&[1, 2]).is_err(), "wrong size");
    }

    #[test]
    fn key_shares_verify_and_forgeries_fail() {
        let (pkg, _) = setup(2, 4);
        let shares = pkg.keygen("alice");
        for share in &shares {
            assert!(pkg.system().verify_key_share(share));
        }
        // A share for the wrong identity fails.
        let mut forged = shares[0].clone();
        forged.id = "bob".into();
        assert!(!pkg.system().verify_key_share(&forged));
        // A share with swapped index fails.
        let mut swapped = shares[0].clone();
        swapped.index = 2;
        assert!(!pkg.system().verify_key_share(&swapped));
    }

    #[test]
    fn threshold_decrypt_roundtrip_every_subset() {
        let (pkg, mut rng) = setup(3, 5);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys
            .params()
            .encrypt_basic(&mut rng, "alice", b"threshold msg");
        let dec: Vec<DecryptionShare> = shares
            .iter()
            .map(|ks| sys.decryption_share(ks, &c.u))
            .collect();
        for a in 0..5 {
            for b in a + 1..5 {
                for cc in b + 1..5 {
                    let subset = vec![dec[a].clone(), dec[b].clone(), dec[cc].clone()];
                    assert_eq!(sys.recombine_basic(&c, &subset).unwrap(), b"threshold msg");
                }
            }
        }
    }

    #[test]
    fn fewer_than_t_shares_insufficient() {
        let (pkg, mut rng) = setup(3, 5);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"msg");
        let dec: Vec<DecryptionShare> = shares[..2]
            .iter()
            .map(|ks| sys.decryption_share(ks, &c.u))
            .collect();
        assert_eq!(
            sys.recombine_basic(&c, &dec),
            Err(Error::NotEnoughShares { needed: 3, got: 2 })
        );
    }

    #[test]
    fn threshold_equals_centralized() {
        // Recombined key must match what a centralized PKG with the same
        // master would produce.
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let central =
            Pkg::from_master(sys.params().curve().clone(), pkg.master_for_tests().clone());
        assert_eq!(central.params().p_pub(), sys.params().p_pub());
        let c = sys.params().encrypt_basic(&mut rng, "carol", b"same msg");
        let key = central.extract("carol");
        let direct = central.params().decrypt_basic(&key, &c).unwrap();
        let shares = pkg.keygen("carol");
        let dec: Vec<DecryptionShare> = shares[..2]
            .iter()
            .map(|ks| sys.decryption_share(ks, &c.u))
            .collect();
        assert_eq!(sys.recombine_basic(&c, &dec).unwrap(), direct);
    }

    #[test]
    fn robust_shares_verify() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"msg");
        for ks in &shares {
            let ds = sys.decryption_share_robust(&mut rng, ks, &c.u);
            sys.verify_decryption_share("alice", &c.u, &ds).unwrap();
            // Proof bound to the identity: verification under another
            // identity fails.
            assert!(sys.verify_decryption_share("bob", &c.u, &ds).is_err());
        }
    }

    #[test]
    fn cheating_share_detected_and_bypassed() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"robust!");
        let mut dec: Vec<DecryptionShare> = shares
            .iter()
            .map(|ks| sys.decryption_share_robust(&mut rng, ks, &c.u))
            .collect();
        // Player 2 lies: swaps in a random Gt value, keeps its proof.
        let curve = sys.params().curve();
        let junk = curve.pairing(
            &curve.mul_generator(&BigUint::from(999u64)),
            curve.generator(),
        );
        dec[1].value = junk;
        let (m, cheaters) = sys.recombine_basic_robust("alice", &c, &dec).unwrap();
        assert_eq!(m, b"robust!");
        assert_eq!(cheaters, vec![2]);
    }

    #[test]
    fn unproved_share_rejected_by_robust_path() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
        let ds = sys.decryption_share(&shares[0], &c.u); // no proof
        assert_eq!(
            sys.verify_decryption_share("alice", &c.u, &ds),
            Err(Error::InvalidProof)
        );
    }

    #[test]
    fn recover_cheaters_key_share() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        // Recover share 3 from shares 1 and 2.
        let recovered = sys.recover_key_share(&shares[..2], 3).unwrap();
        assert_eq!(recovered, shares[2]);
        assert!(sys.verify_key_share(&recovered));
        // And the recovered share decrypts.
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"recover");
        let dec = vec![
            sys.decryption_share(&shares[0], &c.u),
            sys.decryption_share(&recovered, &c.u),
        ];
        assert_eq!(sys.recombine_basic(&c, &dec).unwrap(), b"recover");
    }

    #[test]
    fn tampered_proof_rejected() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
        let good = sys.decryption_share_robust(&mut rng, &shares[0], &c.u);
        // Tamper with each proof component.
        let proof = good.proof.clone().unwrap();
        let curve = sys.params().curve();
        let mut bad = good.clone();
        bad.proof = Some(EqProof {
            e: &proof.e + &BigUint::one(),
            ..proof.clone()
        });
        assert!(sys.verify_decryption_share("alice", &c.u, &bad).is_err());
        let mut bad = good.clone();
        bad.proof = Some(EqProof {
            v: curve.mul_generator(&BigUint::from(5u64)),
            ..proof.clone()
        });
        assert!(sys.verify_decryption_share("alice", &c.u, &bad).is_err());
        let mut bad = good.clone();
        bad.proof = Some(EqProof {
            w1: curve.gt_one(),
            ..proof.clone()
        });
        assert!(sys.verify_decryption_share("alice", &c.u, &bad).is_err());
    }

    #[test]
    fn from_master_deals_the_given_secret() {
        let mut rng = StdRng::seed_from_u64(91);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let master = curve.random_scalar(&mut rng);
        let pkg = ThresholdPkg::from_master(&mut rng, curve.clone(), master.clone(), 2, 3).unwrap();
        assert_eq!(pkg.master_for_tests(), &master);
        // P_pub must be master·P, so it matches a centralized PKG.
        let central = Pkg::from_master(curve, master);
        assert_eq!(central.params().p_pub(), pkg.system().params().p_pub());
        // Dealt shares pass the standard player-side validation.
        for share in pkg.keygen("alice") {
            assert!(pkg.system().verify_key_share(&share));
        }
        pkg.system().check_dealer_consistency(&[1, 3]).unwrap();
    }

    #[test]
    fn combine_token_robust_matches_direct_pairing_and_names_cheaters() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
        let curve = sys.params().curve();
        let mut dec: Vec<DecryptionShare> = shares
            .iter()
            .map(|ks| sys.decryption_share_robust(&mut rng, ks, &c.u))
            .collect();
        // Corrupt player 1's share value.
        dec[0].value = curve.gt_mul(&dec[0].value, &dec[1].value);
        let (token, cheaters) = sys.combine_token_robust("alice", &c.u, &dec).unwrap();
        assert_eq!(cheaters, vec![1]);
        // The combined token equals ê(U, s·Q_ID).
        let q_id = sys.params().hash_identity("alice");
        let d_id = curve.mul(pkg.master_for_tests(), &q_id);
        assert_eq!(token, curve.pairing(&c.u, &d_id));
        // A duplicated index is skipped, not double-counted.
        let dup = vec![dec[1].clone(), dec[1].clone(), dec[2].clone()];
        let (token2, cheaters2) = sys.combine_token_robust("alice", &c.u, &dup).unwrap();
        assert_eq!(token2, token);
        assert!(cheaters2.is_empty());
        // Fewer than t valid shares is a typed failure.
        assert_eq!(
            sys.combine_token_robust("alice", &c.u, &dec[..1]),
            Err(Error::NotEnoughShares { needed: 2, got: 0 })
        );
    }

    #[test]
    fn free_function_share_verifies_under_the_system() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
        // Replica-side path: curve only, no ThresholdSystem in scope.
        let ds = robust_decryption_share(sys.params().curve(), &mut rng, &shares[0], &c.u);
        sys.verify_decryption_share("alice", &c.u, &ds).unwrap();
    }

    #[test]
    fn decryption_share_codec_roundtrip() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let curve = sys.params().curve();
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
        // With proof.
        let robust = sys.decryption_share_robust(&mut rng, &shares[0], &c.u);
        let bytes = decryption_share_to_bytes(curve, &robust);
        let back = decryption_share_from_bytes(curve, &bytes).unwrap();
        assert_eq!(back, robust);
        sys.verify_decryption_share("alice", &c.u, &back).unwrap();
        // Without proof.
        let plain = sys.decryption_share(&shares[1], &c.u);
        let bytes = decryption_share_to_bytes(curve, &plain);
        assert_eq!(decryption_share_from_bytes(curve, &bytes).unwrap(), plain);
        // Malformed inputs are rejected, never panic.
        assert!(decryption_share_from_bytes(curve, &[]).is_err());
        let bytes = decryption_share_to_bytes(curve, &robust);
        assert!(decryption_share_from_bytes(curve, &bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decryption_share_from_bytes(curve, &trailing).is_err());
        let mut bad_flag = bytes;
        bad_flag[4] = 7;
        assert!(decryption_share_from_bytes(curve, &bad_flag).is_err());
    }

    #[test]
    fn threshold_system_codec_roundtrip() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let curve = sys.params().curve();
        let bytes = threshold_system_to_bytes(sys);
        let back = threshold_system_from_bytes(curve, &bytes).unwrap();
        assert_eq!(back.threshold(), 2);
        assert_eq!(back.players(), 3);
        assert_eq!(back.params().p_pub(), sys.params().p_pub());
        // The decoded system verifies live shares like the original.
        let shares = pkg.keygen("alice");
        let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
        let ds = robust_decryption_share(curve, &mut rng, &shares[0], &c.u);
        back.verify_decryption_share("alice", &c.u, &ds).unwrap();
        // Malformed inputs are rejected, never panic.
        assert!(threshold_system_from_bytes(curve, &[]).is_err());
        assert!(threshold_system_from_bytes(curve, &bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(threshold_system_from_bytes(curve, &trailing).is_err());
        let mut bad_t = bytes.clone();
        bad_t[..4].copy_from_slice(&9u32.to_be_bytes());
        assert!(threshold_system_from_bytes(curve, &bad_t).is_err());
        let mut zero_t = bytes;
        zero_t[..4].copy_from_slice(&0u32.to_be_bytes());
        assert!(threshold_system_from_bytes(curve, &zero_t).is_err());
    }

    /// The share check exactly as it stood before [`ShareVerifier`]:
    /// every pairing unprepared, `v_i` recomputed per share, and the
    /// first equation folded into a two-pair multi-Miller loop. The
    /// differential property below holds the prepared verifier to it.
    fn reference_verify(
        sys: &ThresholdSystem,
        id: &str,
        u: &G1Affine,
        share: &DecryptionShare,
    ) -> Result<(), Error> {
        if share.index == 0 || share.index as usize > sys.n {
            return Err(Error::InvalidShare {
                player: share.index,
            });
        }
        let Some(proof) = &share.proof else {
            return Err(Error::InvalidProof);
        };
        let vk = sys.verification_key(share.index).unwrap();
        let curve = sys.params.curve();
        let q_id = sys.params.hash_identity(id);
        let v_i = curve.pairing(vk, &q_id);
        let e = sys.proof_challenge(&share.value, &v_i, &proof.w1, &proof.w2);
        if e != proof.e {
            return Err(Error::InvalidProof);
        }
        let neg_evk = curve.neg(&curve.mul(&e, vk));
        let lhs1 = curve.multi_pairing(&[(curve.generator(), &proof.v), (&neg_evk, &q_id)]);
        if lhs1 != proof.w1 {
            return Err(Error::InvalidProof);
        }
        let lhs2 = curve.pairing(u, &proof.v);
        let rhs2 = curve.gt_mul(&proof.w2, &curve.gt_pow(&share.value, &e));
        if lhs2 != rhs2 {
            return Err(Error::InvalidProof);
        }
        Ok(())
    }

    /// Every way a share can be presented: honest, or with one input
    /// tampered. Returns the share and the identity and `U` it is
    /// checked under.
    fn tampered(
        kind: u8,
        honest: &DecryptionShare,
        other: &DecryptionShare,
        curve: &CurveParams,
        u: &G1Affine,
        other_u: &G1Affine,
    ) -> (DecryptionShare, &'static str, G1Affine) {
        let mut share = honest.clone();
        let mut id = "alice";
        let mut u = u.clone();
        let proof = share.proof.as_mut().unwrap();
        match kind {
            0 => {}
            1 => share.index = 0,
            2 => share.index = 4,
            3 => share.index = other.index,
            4 => share.value = curve.gt_mul(&share.value, &other.value),
            5 => proof.w1 = curve.gt_mul(&proof.w1, &other.value),
            6 => proof.w2 = curve.gt_mul(&proof.w2, &other.value),
            7 => proof.e = &proof.e + &BigUint::one(),
            8 => proof.v = curve.add(&proof.v, curve.generator()),
            9 => u = other_u.clone(),
            10 => id = "bob",
            _ => share.proof = None,
        }
        (share, id, u)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

        #[test]
        fn share_verifier_agrees_with_unprepared_reference(
            seed in proptest::prelude::any::<u64>(),
            player in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let curve = CurveParams::fast_insecure();
            let pkg = ThresholdPkg::setup(&mut rng, curve.clone(), 2, 3).unwrap();
            let sys = pkg.system();
            let c = sys.params().encrypt_basic(&mut rng, "alice", b"m");
            let other_u = sys.params().encrypt_basic(&mut rng, "alice", b"m").u;
            let dec: Vec<DecryptionShare> = pkg
                .keygen("alice")
                .iter()
                .map(|ks| robust_decryption_share(&curve, &mut rng, ks, &c.u))
                .collect();
            let other = &dec[(player + 1) % 3];
            for kind in 0u8..12 {
                let (share, id, u) = tampered(kind, &dec[player], other, &curve, &c.u, &other_u);
                let expected = reference_verify(sys, id, &u, &share);
                proptest::prop_assert_eq!(expected.is_ok(), kind == 0);
                let verifier = ShareVerifier::new(sys, id);
                let check = verifier.for_ciphertext(sys, &u);
                proptest::prop_assert_eq!(&check.verify(&share), &expected);
                proptest::prop_assert_eq!(&sys.verify_decryption_share(id, &u, &share), &expected);
                // The robust combiners name exactly the shares the
                // reference rejects; the token combiner first skips an
                // index it has already accepted.
                let mut shares = dec.clone();
                shares[player] = share;
                let mut accepted: Vec<u32> = Vec::new();
                let mut named_token = Vec::new();
                let mut named_all = Vec::new();
                for s in &shares {
                    let ok = reference_verify(sys, id, &u, s).is_ok();
                    if !ok {
                        named_all.push(s.index);
                    }
                    if accepted.contains(&s.index) {
                        continue;
                    }
                    if ok {
                        accepted.push(s.index);
                    } else {
                        named_token.push(s.index);
                    }
                }
                match sys.combine_token_robust(id, &u, &shares) {
                    Ok((_, cheaters)) => proptest::prop_assert_eq!(cheaters, named_token),
                    Err(e) => proptest::prop_assert_eq!(
                        e,
                        Error::NotEnoughShares { needed: 2, got: accepted.len() }
                    ),
                }
                let ct = BasicCiphertext { u: u.clone(), v: c.v.clone() };
                if let Ok((_, cheaters)) = sys.recombine_basic_robust(id, &ct, &shares) {
                    proptest::prop_assert_eq!(cheaters, named_all);
                }
            }
        }
    }

    #[test]
    fn share_verifier_is_reused_across_ciphertexts() {
        let (pkg, mut rng) = setup(2, 3);
        let sys = pkg.system();
        let shares = pkg.keygen("alice");
        let verifier = ShareVerifier::new(sys, "alice");
        for msg in [&b"one"[..], b"two"] {
            let c = sys.params().encrypt_basic(&mut rng, "alice", msg);
            let check = verifier.for_ciphertext(sys, &c.u);
            let dec: Vec<DecryptionShare> = shares
                .iter()
                .map(|ks| sys.decryption_share_robust(&mut rng, ks, &c.u))
                .collect();
            for share in &dec {
                check.verify(share).unwrap();
            }
            // Verified shares combine with the plain Lagrange step.
            let token = sys.combine_token(&dec).unwrap();
            assert_eq!(
                token,
                sys.combine_token_robust("alice", &c.u, &dec).unwrap().0
            );
            let ct = BasicCiphertext {
                u: c.u.clone(),
                v: c.v.clone(),
            };
            assert_eq!(sys.recombine_basic(&ct, &dec).unwrap(), msg);
        }
    }

    #[test]
    fn mediated_threshold_split_decrypts_end_to_end() {
        use crate::mediated::DecryptToken;
        let mut rng = StdRng::seed_from_u64(91);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let (user, tpkg, shares) = pkg
            .extract_split_threshold(&mut rng, "alice", 2, 3)
            .unwrap();
        // Every dealt share verifies against the per-identity system.
        for share in &shares {
            assert!(tpkg.system().verify_key_share(share));
        }
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"quorum mail")
            .unwrap();
        // Replicas emit robust partials; two of three combine.
        let curve = pkg.params().curve();
        let partials: Vec<DecryptionShare> = shares[..2]
            .iter()
            .map(|s| robust_decryption_share(curve, &mut rng, s, &c.u))
            .collect();
        let (g, cheaters) = tpkg
            .system()
            .combine_token_robust("alice", &c.u, &partials)
            .unwrap();
        assert!(cheaters.is_empty());
        // The combined Gt element is a drop-in mediated token.
        let m = user
            .finish_decrypt(pkg.params(), &c, &DecryptToken(g))
            .unwrap();
        assert_eq!(m, b"quorum mail");
        // Bad params surface as typed errors.
        assert!(pkg.extract_split_threshold(&mut rng, "x", 0, 3).is_err());
        assert!(pkg.extract_split_threshold(&mut rng, "x", 4, 3).is_err());
    }
}
