//! Mediated signcryption — the open problem the paper's conclusion
//! poses, instantiated by composition:
//!
//! > "Another possible goal for future research is to find \[a\]
//! > signcryption scheme where both the capabilities of the sender and
//! > those of the receiver can be removed using this kind of
//! > architecture."
//!
//! This module gives the natural *sign-then-encrypt* composition of the
//! paper's own two mediated primitives:
//!
//! * the **sender** produces a mediated GDH signature (§5) over
//!   `recipient ‖ message` — revoking the sender kills this step;
//! * the result is wrapped in a **mediated IBE** ciphertext (§4) for
//!   the recipient's identity — revoking the recipient kills
//!   designcryption.
//!
//! Both parties therefore need a live SEM token per operation, so both
//! capabilities are instantly revocable, which is exactly the property
//! asked for. (A single-primitive signcryption with a tighter security
//! reduction remains future work — this composition inherits the
//! component guarantees: EUF from §5, weak IND-CCA from §4.)

use crate::bf_ibe::{FullCiphertext, IbePublicParams};
use crate::encryptor::IbeEncryptor;
use crate::gdh::{self, GdhPublicKey, GdhUser, HalfSignature, Signature};
use crate::mediated::{DecryptToken, UserKey};
use crate::Error;
use rand::RngCore;

/// A signcrypted message: outwardly just a mediated-IBE ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signcrypted {
    /// The wrapping ciphertext, addressed to the recipient identity.
    pub ciphertext: FullCiphertext,
}

/// The signed payload layout: `u16 sender-id len ‖ sender-id ‖
/// compressed signature point ‖ message`.
fn encode_payload(
    params: &IbePublicParams,
    sender_id: &str,
    sig: &Signature,
    message: &[u8],
) -> Vec<u8> {
    let sid = sender_id.as_bytes();
    let mut out = Vec::with_capacity(2 + sid.len() + params.curve().point_len() + message.len());
    out.extend_from_slice(&(sid.len() as u16).to_be_bytes());
    out.extend_from_slice(sid);
    out.extend_from_slice(&params.curve().point_to_bytes(&sig.0));
    out.extend_from_slice(message);
    out
}

fn decode_payload(
    params: &IbePublicParams,
    payload: &[u8],
) -> Result<(String, Signature, Vec<u8>), Error> {
    let mut r = crate::cursor::Reader::new(payload);
    let id_len = r.u16_be().ok_or(Error::InvalidCiphertext)? as usize;
    let sender_id = String::from_utf8(r.bytes(id_len).ok_or(Error::InvalidCiphertext)?.to_vec())
        .map_err(|_| Error::InvalidCiphertext)?;
    let sig_point = params
        .curve()
        .point_from_bytes(
            r.bytes(params.curve().point_len())
                .ok_or(Error::InvalidCiphertext)?,
        )
        .map_err(|_| Error::InvalidCiphertext)?;
    let message = r.rest().to_vec();
    Ok((sender_id, Signature(sig_point), message))
}

/// What the sender signs: domain-separated `recipient ‖ message`, so a
/// signcryption for Bob cannot be re-wrapped for Carol.
fn signed_content(recipient_id: &str, message: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + recipient_id.len() + message.len());
    out.extend_from_slice(b"sempair-signcrypt");
    out.extend_from_slice(&(recipient_id.len() as u16).to_be_bytes());
    out.extend_from_slice(recipient_id.as_bytes());
    out.extend_from_slice(message);
    out
}

/// The exact bytes the sender's SEM must half-sign for
/// [`signcrypt`] — senders pass this to `GdhSem::half_sign` (or the
/// SEM daemon) to obtain the `sender_half` argument.
pub fn content_to_sign(recipient_id: &str, message: &[u8]) -> Vec<u8> {
    signed_content(recipient_id, message)
}

/// Signcrypts `message` from `sender` to `recipient_id`.
///
/// `sender_half` is the SEM half-signature over
/// [`content_to_sign`]`(recipient_id, message)` — obtaining it is where
/// the sender's revocation status is enforced.
///
/// # Errors
///
/// [`Error::InvalidSignature`] if the half-signature does not combine
/// (SEM misbehaviour or wrong message).
pub fn signcrypt(
    rng: &mut impl RngCore,
    params: &IbePublicParams,
    sender: &GdhUser,
    sender_half: &HalfSignature,
    recipient_id: &str,
    message: &[u8],
) -> Result<Signcrypted, Error> {
    let content = signed_content(recipient_id, message);
    let sig = sender.finish_sign(params.curve(), &content, sender_half)?;
    let payload = encode_payload(params, &sender.id, &sig, message);
    let ciphertext = params.encrypt_full(rng, recipient_id, &payload)?;
    Ok(Signcrypted { ciphertext })
}

/// [`signcrypt`] through a caching [`IbeEncryptor`]: a gateway
/// signcrypting a stream of messages to the same recipients pays the
/// `ê(P_pub, Q_ID)` pairing once per recipient instead of once per
/// message. Output is identical to [`signcrypt`] for the same
/// randomness.
///
/// # Errors
///
/// [`Error::InvalidSignature`] if the half-signature does not combine.
pub fn signcrypt_with(
    rng: &mut impl RngCore,
    encryptor: &IbeEncryptor,
    sender: &GdhUser,
    sender_half: &HalfSignature,
    recipient_id: &str,
    message: &[u8],
) -> Result<Signcrypted, Error> {
    let params = encryptor.params();
    let content = signed_content(recipient_id, message);
    let sig = sender.finish_sign(params.curve(), &content, sender_half)?;
    let payload = encode_payload(params, &sender.id, &sig, message);
    let ciphertext = encryptor.encrypt_full(rng, recipient_id, &payload)?;
    Ok(Signcrypted { ciphertext })
}

/// Designcrypts: decrypt with the recipient's SEM token, then verify
/// the embedded signature under `sender_pk`.
///
/// Returns `(sender_id, message)`.
///
/// # Errors
///
/// [`Error::InvalidCiphertext`] for decryption/validity failures,
/// [`Error::InvalidSignature`] if the inner signature does not verify.
pub fn designcrypt(
    params: &IbePublicParams,
    recipient: &UserKey,
    recipient_token: &DecryptToken,
    sc: &Signcrypted,
    sender_pk: &GdhPublicKey,
) -> Result<(String, Vec<u8>), Error> {
    let payload = recipient.finish_decrypt(params, &sc.ciphertext, recipient_token)?;
    let (sender_id, sig, message) = decode_payload(params, &payload)?;
    let content = signed_content(&recipient.id, &message);
    gdh::verify(params.curve(), sender_pk, &content, &sig)?;
    Ok((sender_id, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf_ibe::Pkg;
    use crate::gdh::GdhSem;
    use crate::mediated::Sem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sempair_pairing::CurveParams;

    struct World {
        pkg: Pkg,
        ibe_sem: Sem,
        gdh_sem: GdhSem,
        alice: GdhUser,
        alice_pk: GdhPublicKey,
        bob: UserKey,
        rng: StdRng,
    }

    fn setup() -> World {
        let mut rng = StdRng::seed_from_u64(141);
        let curve = CurveParams::generate(&mut rng, 128, 64).unwrap();
        let pkg = Pkg::setup(&mut rng, curve);
        // Sender: mediated GDH identity "alice".
        let (alice, alice_sem, alice_pk) =
            gdh::mediated_keygen(&mut rng, pkg.params().curve(), "alice");
        let mut gdh_sem = GdhSem::new();
        gdh_sem.install(alice_sem);
        // Recipient: mediated IBE identity "bob".
        let (bob, bob_sem) = pkg.extract_split(&mut rng, "bob");
        let mut ibe_sem = Sem::new();
        ibe_sem.install(bob_sem);
        World {
            pkg,
            ibe_sem,
            gdh_sem,
            alice,
            alice_pk,
            bob,
            rng,
        }
    }

    fn do_signcrypt(w: &mut World, msg: &[u8]) -> Signcrypted {
        let content = content_to_sign("bob", msg);
        let half = w
            .gdh_sem
            .half_sign(w.pkg.params().curve(), "alice", &content)
            .expect("sender not revoked");
        signcrypt(&mut w.rng, w.pkg.params(), &w.alice, &half, "bob", msg).expect("signcrypt")
    }

    #[test]
    fn roundtrip() {
        let mut w = setup();
        let sc = do_signcrypt(&mut w, b"signed and sealed");
        let token = w
            .ibe_sem
            .decrypt_token(w.pkg.params(), "bob", &sc.ciphertext.u)
            .unwrap();
        let (sender, msg) = designcrypt(w.pkg.params(), &w.bob, &token, &sc, &w.alice_pk).unwrap();
        assert_eq!(sender, "alice");
        assert_eq!(msg, b"signed and sealed");
    }

    #[test]
    fn cached_encryptor_roundtrip() {
        let mut w = setup();
        let enc = IbeEncryptor::new(w.pkg.params().clone());
        for i in 0..3 {
            let msg = format!("stream item {i}").into_bytes();
            let content = content_to_sign("bob", &msg);
            let half = w
                .gdh_sem
                .half_sign(w.pkg.params().curve(), "alice", &content)
                .unwrap();
            let sc = signcrypt_with(&mut w.rng, &enc, &w.alice, &half, "bob", &msg).unwrap();
            let token = w
                .ibe_sem
                .decrypt_token(w.pkg.params(), "bob", &sc.ciphertext.u)
                .unwrap();
            let (sender, got) =
                designcrypt(w.pkg.params(), &w.bob, &token, &sc, &w.alice_pk).unwrap();
            assert_eq!(sender, "alice");
            assert_eq!(got, msg);
        }
        // One miss for "bob", hits for the rest of the stream.
        let stats = enc.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn revoking_sender_blocks_signcryption() {
        let mut w = setup();
        w.gdh_sem.revoke("alice");
        let content = content_to_sign("bob", b"m");
        assert_eq!(
            w.gdh_sem
                .half_sign(w.pkg.params().curve(), "alice", &content),
            Err(Error::Revoked)
        );
    }

    #[test]
    fn revoking_recipient_blocks_designcryption() {
        let mut w = setup();
        let sc = do_signcrypt(&mut w, b"m");
        w.ibe_sem.revoke("bob");
        assert_eq!(
            w.ibe_sem
                .decrypt_token(w.pkg.params(), "bob", &sc.ciphertext.u),
            Err(Error::Revoked)
        );
    }

    #[test]
    fn wrong_sender_key_rejected() {
        let mut w = setup();
        let sc = do_signcrypt(&mut w, b"m");
        let token = w
            .ibe_sem
            .decrypt_token(w.pkg.params(), "bob", &sc.ciphertext.u)
            .unwrap();
        let (_, _, mallory_pk) =
            gdh::mediated_keygen(&mut w.rng, w.pkg.params().curve(), "mallory");
        assert_eq!(
            designcrypt(w.pkg.params(), &w.bob, &token, &sc, &mallory_pk),
            Err(Error::InvalidSignature)
        );
    }

    #[test]
    fn signature_binds_recipient() {
        // A signature produced for Bob cannot be re-wrapped for Carol.
        let mut w = setup();
        let msg = b"pay 100";
        let content_bob = content_to_sign("bob", msg);
        let half = w
            .gdh_sem
            .half_sign(w.pkg.params().curve(), "alice", &content_bob)
            .unwrap();
        let sig = w
            .alice
            .finish_sign(w.pkg.params().curve(), &content_bob, &half)
            .unwrap();
        // Mallory re-encrypts payload to carol.
        let payload = encode_payload(w.pkg.params(), "alice", &sig, msg);
        let (carol, carol_sem) = {
            let mut s = Sem::new();
            let (k, sk) = w.pkg.extract_split(&mut w.rng, "carol");
            s.install(sk);
            (k, s)
        };
        let ct = w
            .pkg
            .params()
            .encrypt_full(&mut w.rng, "carol", &payload)
            .unwrap();
        let rewrapped = Signcrypted { ciphertext: ct };
        let token = carol_sem
            .decrypt_token(w.pkg.params(), "carol", &rewrapped.ciphertext.u)
            .unwrap();
        assert_eq!(
            designcrypt(w.pkg.params(), &carol, &token, &rewrapped, &w.alice_pk),
            Err(Error::InvalidSignature)
        );
    }

    #[test]
    fn tampered_message_rejected() {
        let mut w = setup();
        let mut sc = do_signcrypt(&mut w, b"original");
        sc.ciphertext.w[10] ^= 1;
        let token = w
            .ibe_sem
            .decrypt_token(w.pkg.params(), "bob", &sc.ciphertext.u)
            .unwrap();
        assert!(designcrypt(w.pkg.params(), &w.bob, &token, &sc, &w.alice_pk).is_err());
    }

    #[test]
    fn malformed_payload_rejected() {
        let w = setup();
        assert!(decode_payload(w.pkg.params(), &[]).is_err());
        assert!(decode_payload(w.pkg.params(), &[0, 200, 1, 2]).is_err());
    }
}
