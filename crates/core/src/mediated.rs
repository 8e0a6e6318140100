//! The mediated (SEM) Boneh–Franklin IBE of §4 — the paper's main
//! construction.
//!
//! `Keygen` splits the identity key additively in `G1`:
//! `d_ID = s·Q_ID = d_user + d_sem` with `d_user` uniform. Decryption of
//! a `FullIdent` ciphertext `⟨U, V, W⟩` then needs both halves of the
//! pairing value:
//!
//! ```text
//! g = ê(U, d_sem) · ê(U, d_user) = ê(U, d_ID) = ê(P_pub, Q_ID)^r
//! ```
//!
//! The SEM contributes `g_sem = ê(U, d_sem)` — the *token* — only after
//! checking its revocation list, which is how the scheme gets
//! fine-grained, instantaneous revocation without the PKG re-issuing
//! keys. Security properties reproduced as tests here and in
//! `tests/security_games.rs`:
//!
//! * the SEM never learns the plaintext (it never sees `g_user`);
//! * tokens are ciphertext-specific and useless for other ciphertexts
//!   (`U` binds them through `r = H3(σ, M)`);
//! * a user+SEM collusion recovers only *that user's* `d_ID` — other
//!   identities stay secure (contrast with IB-mRSA, where it factors
//!   the shared modulus).

use crate::bf_ibe::{FullCiphertext, IbePublicParams, Pkg};
use crate::cache::SharedLru;
use crate::Error;
use rand::RngCore;
use sempair_pairing::{G1Affine, Gt, PreparedG1};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// The user's half-key `d_user ∈ G1`.
///
/// Secret material: `Debug` redacts the point, equality is
/// constant-time, and dropping the key erases the point.
#[derive(Clone, Eq)]
pub struct UserKey {
    /// The identity this half-key belongs to.
    pub id: String,
    /// The half-key point.
    pub point: G1Affine,
}

impl fmt::Debug for UserKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserKey")
            .field("id", &self.id)
            .field("point", &"<redacted>")
            .finish()
    }
}

impl PartialEq for UserKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.point.ct_eq(&other.point)
    }
}

impl Drop for UserKey {
    fn drop(&mut self) {
        self.point.zeroize();
    }
}

/// The SEM's half-key `d_sem = d_ID − d_user` for one identity.
///
/// Secret material: `Debug` redacts the point, equality is
/// constant-time, and dropping the key erases the point.
#[derive(Clone, Eq)]
pub struct SemKey {
    /// The identity this half-key serves.
    pub id: String,
    /// The half-key point.
    pub point: G1Affine,
}

impl fmt::Debug for SemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SemKey")
            .field("id", &self.id)
            .field("point", &"<redacted>")
            .finish()
    }
}

impl PartialEq for SemKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.point.ct_eq(&other.point)
    }
}

impl Drop for SemKey {
    fn drop(&mut self) {
        self.point.zeroize();
    }
}

/// A decryption token `g_sem = ê(U, d_sem)`.
///
/// A random-looking element of `G2` that carries no information about
/// `d_sem` (computing `d_sem` from it is the pairing-inversion/CDH
/// problem, as §4 argues).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecryptToken(pub Gt);

impl Pkg {
    /// `Keygen` (§4): extracts `d_ID` and splits it into
    /// `(d_user, d_sem)` with `d_user` uniform in `G1`.
    pub fn extract_split(&self, rng: &mut impl RngCore, id: &str) -> (UserKey, SemKey) {
        let full = self.extract(id);
        let curve = self.params().curve();
        // Uniform d_user: a random multiple of the generator is uniform
        // in the order-r subgroup that d_ID lives in.
        let blind = curve.random_scalar(rng);
        let d_user = curve.mul_generator(&blind);
        let d_sem = curve.sub(&full.point, &d_user);
        (
            UserKey {
                id: id.to_string(),
                point: d_user,
            },
            SemKey {
                id: id.to_string(),
                point: d_sem,
            },
        )
    }
}

/// The security mediator: half-keys plus the revocation list.
///
/// Distinct from the PKG (§4): the SEM stays online for the system's
/// lifetime while the PKG can go offline after issuing keys.
#[derive(Debug, Default)]
pub struct Sem {
    keys: HashMap<String, SemKey>,
    revoked: HashSet<String>,
}

impl Sem {
    /// Creates an empty SEM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a half-key received from the PKG.
    pub fn install(&mut self, key: SemKey) {
        self.keys.insert(key.id.clone(), key);
    }

    /// Revokes an identity: takes effect on the very next token request
    /// (the paper's headline "instantaneous revocation").
    pub fn revoke(&mut self, id: &str) {
        self.revoked.insert(id.to_string());
    }

    /// Reinstates an identity.
    pub fn unrevoke(&mut self, id: &str) {
        self.revoked.remove(id);
    }

    /// `true` iff the identity is currently revoked.
    pub fn is_revoked(&self, id: &str) -> bool {
        self.revoked.contains(id)
    }

    /// Number of enrolled identities.
    pub fn enrolled(&self) -> usize {
        self.keys.len()
    }

    /// SEM step of `Decrypt` (§4): check revocation, then return
    /// `g_sem = ê(U, d_sem)`.
    ///
    /// Note the SEM *cannot* validate the ciphertext: the FO check
    /// happens at the end of decryption, on the user side — exactly the
    /// obstacle to insider-CCA proofs the paper identifies in §2.
    ///
    /// # Errors
    ///
    /// [`Error::Revoked`], [`Error::UnknownIdentity`], or
    /// [`Error::InvalidCiphertext`] for a `U` off the curve or outside
    /// the order-`r` subgroup.
    pub fn decrypt_token(
        &self,
        params: &IbePublicParams,
        id: &str,
        u: &G1Affine,
    ) -> Result<DecryptToken, Error> {
        let key = self.serving_key(id)?;
        if !params.curve().is_in_group(u) {
            return Err(Error::InvalidCiphertext);
        }
        Ok(token(params, key, u, None))
    }

    /// [`Sem::decrypt_token`] through a shared cache of prepared
    /// half-keys: the Miller-loop line coefficients of `d_sem` are
    /// computed once per identity and replayed for every subsequent
    /// token (the modified pairing is symmetric, so
    /// `ê(U, d_sem) = ê(d_sem, U)` with `d_sem` as the prepared
    /// argument). Identical output to the uncached path; only the cost
    /// profile differs.
    ///
    /// Cache coherence is the caller's contract: entries must be
    /// removed whenever the identity's half-key is replaced (the
    /// serving layer invalidates under its state write lock).
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sem::decrypt_token`].
    pub fn decrypt_token_cached(
        &self,
        params: &IbePublicParams,
        id: &str,
        u: &G1Affine,
        prepared: &SharedLru<String, Arc<PreparedG1>>,
    ) -> Result<DecryptToken, Error> {
        let key = self.serving_key(id)?;
        if !params.curve().is_in_group(u) {
            return Err(Error::InvalidCiphertext);
        }
        Ok(token(params, key, u, Some(prepared)))
    }

    /// The SEM step for a `U` still in its compressed wire encoding,
    /// decoded by [`CurveParams::point_from_bytes_for_pairing`]: curve
    /// membership is checked, the `[r]U = O` check is not (unless the
    /// parameter set has `r | h`). The token is the reduced Tate
    /// pairing `t_r(d_sem, φ(U))` with `d_sem` on the Miller side,
    /// which depends on `U` only modulo `rE`; with `r ∤ h` every
    /// torsion part of `U` lies in `rE`, so `U = U_r + T` gets the
    /// token of `U_r` byte for byte, and pure torsion gets 1. Through
    /// `prepared` when given, as [`Sem::decrypt_token_cached`];
    /// otherwise as [`Sem::decrypt_token`]. Same token bytes either
    /// way, and the same as the typed paths for every `U ∈ G1`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidCiphertext`] when `u` does not decode to a curve
    /// point (or, where `r | h`, to a point of `G1`) — checked first,
    /// so a malformed request is refused as such even for a revoked
    /// identity — then [`Error::Revoked`] and
    /// [`Error::UnknownIdentity`].
    ///
    /// [`CurveParams::point_from_bytes_for_pairing`]: sempair_pairing::CurveParams::point_from_bytes_for_pairing
    pub fn decrypt_token_encoded(
        &self,
        params: &IbePublicParams,
        id: &str,
        u: &[u8],
        prepared: Option<&SharedLru<String, Arc<PreparedG1>>>,
    ) -> Result<DecryptToken, Error> {
        let u = params
            .curve()
            .point_from_bytes_for_pairing(u)
            .map_err(|_| Error::InvalidCiphertext)?;
        let key = self.serving_key(id)?;
        Ok(token(params, key, &u, prepared))
    }

    /// The half-key for `id`, unless the identity is revoked (checked
    /// first) or unknown.
    fn serving_key(&self, id: &str) -> Result<&SemKey, Error> {
        if self.revoked.contains(id) {
            return Err(Error::Revoked);
        }
        self.keys.get(id).ok_or(Error::UnknownIdentity)
    }

    /// Prepares `d_sem`'s Miller lines into `prepared` ahead of
    /// traffic (warm-start); a no-op for unknown identities.
    pub fn warm_prepared(
        &self,
        params: &IbePublicParams,
        id: &str,
        prepared: &SharedLru<String, Arc<PreparedG1>>,
    ) {
        if let Some(key) = self.keys.get(id) {
            prepare_into(params, key, prepared);
        }
    }

    /// **Collusion hook** (tests/E9): what a compromised SEM leaks for
    /// one identity — its half-key.
    pub fn leak_key_for_attack_demo(&self, id: &str) -> Option<&SemKey> {
        self.keys.get(id)
    }
}

/// `ê(U, d_sem)` through the prepared-half-key cache when one is
/// given. `d_sem` is the Miller argument on both paths, so a `U` whose
/// torsion the pairing ignores ([`Sem::decrypt_token_encoded`]) is
/// paired as its `G1` part; `ê` is symmetric on `G1`, so a `U ∈ G1`
/// gets `ê(U, d_sem)` either way.
fn token(
    params: &IbePublicParams,
    key: &SemKey,
    u: &G1Affine,
    prepared: Option<&SharedLru<String, Arc<PreparedG1>>>,
) -> DecryptToken {
    let curve = params.curve();
    let Some(prepared) = prepared else {
        return DecryptToken(curve.pairing(&key.point, u));
    };
    // Prepared outside the cache lock on a miss; concurrent misses on
    // one identity duplicate work instead of serializing.
    let prep = prepared
        .get(&key.id)
        .unwrap_or_else(|| prepare_into(params, key, prepared));
    DecryptToken(curve.pairing_prepared(&prep, u))
}

/// Prepares `d_sem`'s Miller lines and caches them under its identity.
fn prepare_into(
    params: &IbePublicParams,
    key: &SemKey,
    prepared: &SharedLru<String, Arc<PreparedG1>>,
) -> Arc<PreparedG1> {
    let prep = Arc::new(params.curve().prepare_g1(&key.point));
    prepared.insert(
        key.id.clone(),
        Arc::clone(&prep),
        prepared_weight(params, &prep),
    );
    prep
}

/// Approximate resident bytes of a prepared point: three `F_p`
/// line coefficients per cached Miller step.
pub fn prepared_weight(params: &IbePublicParams, prep: &PreparedG1) -> usize {
    prep.len() * 3 * (params.curve().point_len() - 1)
}

impl UserKey {
    /// User step of `Decrypt` (§4): compute `g_user = ê(U, d_user)`,
    /// assemble `g = g_sem · g_user`, unmask, and run the FO validity
    /// check `U = H3(σ, M)·P`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidCiphertext`] if the ciphertext fails validation
    /// (including when the token belongs to a different ciphertext).
    pub fn finish_decrypt(
        &self,
        params: &IbePublicParams,
        ciphertext: &FullCiphertext,
        token: &DecryptToken,
    ) -> Result<Vec<u8>, Error> {
        if !params.curve().is_in_group(&ciphertext.u) || ciphertext.u.is_infinity() {
            return Err(Error::InvalidCiphertext);
        }
        let g_user = params.curve().pairing(&ciphertext.u, &self.point);
        let g = params.curve().gt_mul(&token.0, &g_user);
        params.finish_full_decrypt(ciphertext, &g)
    }

    /// Recombines the full key from both halves — what a user+SEM
    /// collusion obtains (§4's security discussion). Exposed for the
    /// security-game tests.
    pub fn collude(&self, params: &IbePublicParams, sem_key: &SemKey) -> crate::bf_ibe::PrivateKey {
        crate::bf_ibe::PrivateKey {
            id: self.id.clone(),
            point: params.curve().add(&self.point, &sem_key.point),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sempair_pairing::CurveParams;

    fn setup() -> (Pkg, Sem, UserKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(91);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        let (user, sem_key) = pkg.extract_split(&mut rng, "alice");
        let mut sem = Sem::new();
        sem.install(sem_key);
        (pkg, sem, user, rng)
    }

    #[test]
    fn mediated_decrypt_roundtrip() {
        let (pkg, sem, user, mut rng) = setup();
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"mediated hello")
            .unwrap();
        let token = sem.decrypt_token(pkg.params(), "alice", &c.u).unwrap();
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
            b"mediated hello"
        );
    }

    #[test]
    fn cached_token_path_is_byte_identical() {
        let (pkg, mut sem, user, mut rng) = setup();
        let prepared = SharedLru::new(16);
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"prepared path")
            .unwrap();
        let plain = sem.decrypt_token(pkg.params(), "alice", &c.u).unwrap();
        let cached = sem
            .decrypt_token_cached(pkg.params(), "alice", &c.u, &prepared)
            .unwrap();
        assert_eq!(plain, cached, "prepared pairing must match ê(U, d_sem)");
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c, &cached).unwrap(),
            b"prepared path"
        );
        // Second call hits the cache and still matches.
        let again = sem
            .decrypt_token_cached(pkg.params(), "alice", &c.u, &prepared)
            .unwrap();
        assert_eq!(again, plain);
        let counters = prepared.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.entries),
            (1, 1, 1)
        );
        assert!(counters.weight > 0, "prepared entries must carry weight");
        // Error ordering is preserved: revoked beats unknown/invalid.
        sem.revoke("alice");
        assert_eq!(
            sem.decrypt_token_cached(pkg.params(), "alice", &c.u, &prepared),
            Err(Error::Revoked)
        );
        assert_eq!(
            sem.decrypt_token_cached(pkg.params(), "nobody", &c.u, &prepared),
            Err(Error::UnknownIdentity)
        );
    }

    #[test]
    fn split_recombines_to_full_key() {
        let (pkg, sem, user, _) = setup();
        let full = pkg.extract("alice");
        let sem_key = sem.leak_key_for_attack_demo("alice").unwrap();
        assert_eq!(user.collude(pkg.params(), sem_key), full);
        assert!(pkg.params().verify_private_key(&full));
    }

    #[test]
    fn revocation_blocks_tokens_instantly() {
        let (pkg, mut sem, user, mut rng) = setup();
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"msg")
            .unwrap();
        sem.revoke("alice");
        assert_eq!(
            sem.decrypt_token(pkg.params(), "alice", &c.u),
            Err(Error::Revoked)
        );
        // Unrevoke restores service (the §4 note that a corrupt SEM can
        // only un/re-revoke, not decrypt).
        sem.unrevoke("alice");
        let token = sem.decrypt_token(pkg.params(), "alice", &c.u).unwrap();
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c, &token).unwrap(),
            b"msg"
        );
    }

    #[test]
    fn user_cannot_decrypt_without_token() {
        let (pkg, _, user, mut rng) = setup();
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"msg")
            .unwrap();
        // Identity token (1 ∈ G2) leaves g = g_user: FO check must fail.
        let bogus = DecryptToken(pkg.params().curve().gt_one());
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c, &bogus),
            Err(Error::InvalidCiphertext)
        );
    }

    #[test]
    fn token_is_ciphertext_specific() {
        // §4: "the user cannot use the same decryption token twice" —
        // a token for c1 must not decrypt c2.
        let (pkg, sem, user, mut rng) = setup();
        let c1 = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"first")
            .unwrap();
        let c2 = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"second")
            .unwrap();
        let token1 = sem.decrypt_token(pkg.params(), "alice", &c1.u).unwrap();
        assert!(user.finish_decrypt(pkg.params(), &c2, &token1).is_err());
        assert_eq!(
            user.finish_decrypt(pkg.params(), &c1, &token1).unwrap(),
            b"first"
        );
    }

    #[test]
    fn token_useless_to_other_users() {
        // §4: the token ê(U, d_ID,sem) is useless to any user other
        // than Alice.
        let (pkg, mut sem, _alice, mut rng) = setup();
        let (bob, bob_sem) = pkg.extract_split(&mut rng, "bob");
        sem.install(bob_sem);
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"for alice")
            .unwrap();
        let alice_token = sem.decrypt_token(pkg.params(), "alice", &c.u).unwrap();
        assert!(bob.finish_decrypt(pkg.params(), &c, &alice_token).is_err());
    }

    #[test]
    fn unknown_identity_rejected() {
        let (pkg, sem, _, _) = setup();
        assert_eq!(
            sem.decrypt_token(pkg.params(), "mallory", pkg.params().curve().generator()),
            Err(Error::UnknownIdentity)
        );
    }

    #[test]
    fn sem_validates_group_membership_of_u() {
        let (pkg, sem, _, _) = setup();
        // A point on the curve but outside the order-r subgroup must be
        // rejected by the typed paths (small-subgroup defence).
        let curve = pkg.params().curve();
        let mut x = sempair_bigint::BigUint::one();
        let outside = loop {
            if let Some((p1, _)) = curve.lift_x(&x) {
                if !p1.is_infinity() && !curve.is_in_group(&p1) {
                    break p1;
                }
            }
            x = &x + &sempair_bigint::BigUint::one();
        };
        assert_eq!(
            sem.decrypt_token(pkg.params(), "alice", &outside),
            Err(Error::InvalidCiphertext)
        );
        let prepared = SharedLru::new(16);
        assert_eq!(
            sem.decrypt_token_cached(pkg.params(), "alice", &outside, &prepared),
            Err(Error::InvalidCiphertext)
        );
        // The encoded path pairs it as its G1 part U_r = [e]U, where
        // e ≡ 1 (mod r) and e ≡ 0 (mod h): the pairing ignores torsion.
        assert!(curve.pairing_ignores_torsion());
        let (r, h) = (curve.order(), curve.cofactor());
        let e = h * &sempair_bigint::modular::mod_inv(&(h % r), r).unwrap();
        let projected = curve.mul(&e, &outside);
        let expect = sem.decrypt_token(pkg.params(), "alice", &projected);
        assert!(expect.is_ok());
        let encoded = curve.point_to_bytes(&outside);
        for cache in [None, Some(&prepared)] {
            assert_eq!(
                sem.decrypt_token_encoded(pkg.params(), "alice", &encoded, cache),
                expect
            );
        }
    }

    #[test]
    fn encoded_token_matches_typed_paths_and_decodes_first() {
        let (pkg, mut sem, _, mut rng) = setup();
        let prepared = SharedLru::new(16);
        let c = pkg.params().encrypt_full(&mut rng, "alice", b"m").unwrap();
        let u = pkg.params().curve().point_to_bytes(&c.u);
        let plain = sem.decrypt_token(pkg.params(), "alice", &c.u).unwrap();
        for cache in [None, Some(&prepared), Some(&prepared)] {
            assert_eq!(
                sem.decrypt_token_encoded(pkg.params(), "alice", &u, cache),
                Ok(plain.clone())
            );
        }
        assert_eq!(
            sem.decrypt_token_encoded(pkg.params(), "nobody", &u, None),
            Err(Error::UnknownIdentity)
        );
        sem.revoke("alice");
        assert_eq!(
            sem.decrypt_token_encoded(pkg.params(), "alice", &u, None),
            Err(Error::Revoked)
        );
        assert_eq!(
            sem.decrypt_token_encoded(pkg.params(), "alice", &u[1..], None),
            Err(Error::InvalidCiphertext)
        );
    }

    #[test]
    fn collusion_breaks_only_that_identity() {
        // The §4 contrast with IB-mRSA: alice+SEM recover alice's key,
        // but bob's ciphertexts remain undecryptable to them.
        let (pkg, mut sem, alice, mut rng) = setup();
        let (_bob_key, bob_sem) = pkg.extract_split(&mut rng, "bob");
        sem.install(bob_sem);
        let full_alice =
            alice.collude(pkg.params(), sem.leak_key_for_attack_demo("alice").unwrap());
        // Colluders decrypt alice's mail directly, bypassing revocation…
        let c = pkg
            .params()
            .encrypt_full(&mut rng, "alice", b"alice mail")
            .unwrap();
        sem.revoke("alice");
        assert_eq!(
            pkg.params().decrypt_full(&full_alice, &c).unwrap(),
            b"alice mail"
        );
        // …but a key assembled from alice's user half and bob's SEM half
        // is NOT bob's key: decryption of bob's mail fails.
        let franken = alice.collude(pkg.params(), sem.leak_key_for_attack_demo("bob").unwrap());
        let cb = pkg
            .params()
            .encrypt_full(&mut rng, "bob", b"bob mail")
            .unwrap();
        let franken_bob = crate::bf_ibe::PrivateKey {
            id: "bob".into(),
            point: franken.point.clone(),
        };
        assert!(pkg.params().decrypt_full(&franken_bob, &cb).is_err());
    }
}
