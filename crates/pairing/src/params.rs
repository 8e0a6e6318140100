//! Curve parameter sets: generation, validation and serialization.

use crate::curve::{self, G1Affine};
use crate::fp::FpCtx;
use crate::fp2;
use crate::pairing_impl::{self, Gt, MillerStrategy, PreparedG1};
use crate::DecodeError;
use sempair_bigint::{prime, rng as brng, BigUint};
use sempair_field::curve as fcurve;
use sempair_hash::derive;
use std::error::Error as StdError;
use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::RngCore;

/// Errors from parameter generation/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// The prime search did not terminate within its budget.
    SearchExhausted,
    /// A supplied parameter set failed validation.
    Invalid(&'static str),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::SearchExhausted => write!(f, "parameter search budget exhausted"),
            ParamsError::Invalid(why) => write!(f, "invalid parameter set: {why}"),
        }
    }
}

impl StdError for ParamsError {}

/// A complete pairing parameter set (the paper's
/// `{G1, G2, ê, P, q, …}` public system parameters, §3.2 `Setup`).
///
/// Holds the field context, the prime subgroup order `r` (the paper's
/// `q`), the cofactor `c = (p+1)/r` and a generator `P` of `G1`.
#[derive(Clone, Debug)]
pub struct CurveParams {
    p: BigUint,
    r: BigUint,
    cofactor: BigUint,
    fp: FpCtx,
    generator: G1Affine,
    /// Width-5 NAF digits of `r`, the scalar of every membership check
    /// ([`CurveParams::is_in_group`]). Public, so variable-time use is
    /// fine; computed once per parameter set and shared by every clone.
    r_naf: Arc<[i8]>,
    /// `true` iff `r ∤ (p+1)/r`: then every torsion part a point can
    /// carry off the subgroup lies in `rE`, where the reduced Tate
    /// pairing cannot see it ([`CurveParams::point_from_bytes_for_pairing`]).
    /// Computed once per parameter set, beside `r_naf`.
    pairing_ignores_torsion: bool,
    /// Lazily built fixed-base table for [`CurveParams::mul_generator`]:
    /// `table[i][d] = d·2^{4i}·P` for 4-bit windows, turning every
    /// generator multiplication into ~⌈|r|/4⌉ mixed additions with no
    /// doublings (E10 ablation: `fixed_base_comb`). Shared by every
    /// clone, so per-identity copies of the parameters (threshold
    /// systems, registered quorum identities) build and hold one table.
    gen_table: Arc<OnceLock<Vec<Vec<G1Affine>>>>,
    /// Lazily built prepared generator for
    /// [`CurveParams::prepared_generator`] — shared by every verifier
    /// hot path that pairs against `P`, and by every clone.
    prep_gen: Arc<OnceLock<PreparedG1>>,
}

/// Serializable wire form of a parameter set.
#[derive(Debug, Clone)]
pub struct CurveParamsSpec {
    /// Field characteristic `p`.
    pub p: BigUint,
    /// Prime subgroup order `r`.
    pub r: BigUint,
    /// Generator x-coordinate (canonical integer).
    pub gx: BigUint,
    /// Generator y-coordinate (canonical integer).
    pub gy: BigUint,
}

// Manual serde impls: the vendored serde shim has no derive macro
// (shims/README.md), and the field list doubles as the on-disk schema.
impl serde::Serialize for CurveParamsSpec {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("CurveParamsSpec", 4)?;
        st.serialize_field("p", &self.p)?;
        st.serialize_field("r", &self.r)?;
        st.serialize_field("gx", &self.gx)?;
        st.serialize_field("gy", &self.gy)?;
        st.end()
    }
}

impl<'de> serde::Deserialize<'de> for CurveParamsSpec {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::StructAccess;
        let mut st = deserializer.deserialize_struct("CurveParamsSpec", &["p", "r", "gx", "gy"])?;
        Ok(CurveParamsSpec {
            p: st.field("p")?,
            r: st.field("r")?,
            gx: st.field("gx")?,
            gy: st.field("gy")?,
        })
    }
}

impl CurveParams {
    /// Generates a fresh parameter set: a random `r_bits`-bit prime `r`
    /// and a `p_bits`-bit prime `p = c·r − 1 ≡ 3 (mod 4)`.
    ///
    /// The paper's deployment sizes are `p_bits = 512`,
    /// `r_bits = 160`; tests use much smaller fields.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::SearchExhausted`] if prime searching runs
    /// out of budget (practically impossible for sane sizes).
    ///
    /// # Panics
    ///
    /// Panics if `r_bits < 4` or `p_bits < r_bits + 2`.
    pub fn generate(
        rng: &mut impl RngCore,
        p_bits: usize,
        r_bits: usize,
    ) -> Result<Self, ParamsError> {
        assert!(r_bits >= 4, "subgroup order too small");
        assert!(p_bits >= r_bits + 2, "p must be larger than r");
        let r = prime::random_prime(rng, r_bits).map_err(|_| ParamsError::SearchExhausted)?;
        let (p, cofactor) = prime::prime_in_progression(rng, &r, p_bits)
            .map_err(|_| ParamsError::SearchExhausted)?;
        let fp = FpCtx::new(&p).expect("p is odd");
        let r_naf: Arc<[i8]> = fcurve::naf5(r.limbs()).into();
        let generator = derive_generator(&fp, &r_naf, &cofactor)
            .ok_or(ParamsError::Invalid("no generator found"))?;
        Ok(CurveParams {
            pairing_ignores_torsion: !(&cofactor % &r).is_zero(),
            p,
            r,
            cofactor,
            fp,
            generator,
            r_naf,
            gen_table: Arc::default(),
            prep_gen: Arc::default(),
        })
    }

    /// Reconstructs a parameter set from its serialized spec, validating
    /// every invariant (primality is checked probabilistically).
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::Invalid`] describing the first violated
    /// invariant.
    pub fn from_spec(spec: &CurveParamsSpec, rng: &mut impl RngCore) -> Result<Self, ParamsError> {
        let CurveParamsSpec { p, r, gx, gy } = spec;
        if p.limbs().first().map_or(0, |l| l & 3) != 3 {
            return Err(ParamsError::Invalid("p must be ≡ 3 (mod 4)"));
        }
        if !prime::is_probable_prime(p, rng) {
            return Err(ParamsError::Invalid("p is not prime"));
        }
        if !prime::is_probable_prime(r, rng) {
            return Err(ParamsError::Invalid("r is not prime"));
        }
        let p_plus_1 = p + &BigUint::one();
        let (cofactor, rem) = p_plus_1.div_rem(r);
        if !rem.is_zero() {
            return Err(ParamsError::Invalid("r does not divide p + 1"));
        }
        let fp = FpCtx::new(p).expect("p odd");
        if gx >= p || gy >= p {
            return Err(ParamsError::Invalid("generator coordinates not reduced"));
        }
        let x = fp.from_uint(gx);
        let y = fp.from_uint(gy);
        if !curve::is_on_curve(&fp, &x, &y) {
            return Err(ParamsError::Invalid("generator not on curve"));
        }
        let generator = G1Affine::from_xy_unchecked(x, y);
        let r_naf: Arc<[i8]> = fcurve::naf5(r.limbs()).into();
        if generator.is_infinity() || !curve::mul_is_identity(&fp, &r_naf, &generator) {
            return Err(ParamsError::Invalid("generator does not have order r"));
        }
        Ok(CurveParams {
            p: p.clone(),
            r: r.clone(),
            pairing_ignores_torsion: !(&cofactor % r).is_zero(),
            cofactor,
            fp,
            generator,
            r_naf,
            gen_table: Arc::default(),
            prep_gen: Arc::default(),
        })
    }

    /// Serializable description of this parameter set.
    pub fn to_spec(&self) -> CurveParamsSpec {
        let (x, y) = self.generator.coordinates().expect("generator is finite");
        CurveParamsSpec {
            p: self.p.clone(),
            r: self.r.clone(),
            gx: self.fp.to_uint(x),
            gy: self.fp.to_uint(y),
        }
    }

    /// The pre-generated paper-scale parameter set: 512-bit `p`,
    /// 160-bit `r` — the sizes §4 quotes for short private keys.
    pub fn paper_default() -> Self {
        Self::builtin(PAPER_512_160)
    }

    /// A pre-generated reduced-size set (256-bit `p`, 128-bit `r`) for
    /// fast tests and examples.
    pub fn fast_insecure() -> Self {
        Self::builtin(FAST_256_128)
    }

    /// A 176-bit-`p` / 160-bit-`r` set sized like the short-signature
    /// curve of Boneh–Lynn–Shacham \[6\] that §5's "160 bits" refers to:
    /// one compressed `G1` point is 184 bits here.
    ///
    /// **Size-faithful, security-theater**: with embedding degree 2 the
    /// MOV reduction maps discrete logs to a ~352-bit `F_p²`, far below
    /// any real margin (\[6\] used embedding degree 6 to avoid exactly
    /// this). Use only to reproduce the paper's size arithmetic.
    pub fn gdh_short_insecure() -> Self {
        Self::builtin(SHORT_GDH_176_160)
    }

    fn builtin(spec: (&str, &str, &str, &str)) -> Self {
        let parse = |s: &str| BigUint::from_hex(s).expect("valid builtin hex");
        let spec = CurveParamsSpec {
            p: parse(spec.0),
            r: parse(spec.1),
            gx: parse(spec.2),
            gy: parse(spec.3),
        };
        let mut rng = sempair_hash::HmacDrbgRng::new(b"sempair-builtin-params-check");
        Self::from_spec(&spec, &mut rng).expect("builtin parameters are valid")
    }

    /// The field characteristic `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// The prime order `r` of `G1` (the paper's `q`).
    pub fn order(&self) -> &BigUint {
        &self.r
    }

    /// The cofactor `(p + 1) / r`.
    pub fn cofactor(&self) -> &BigUint {
        &self.cofactor
    }

    /// `true` iff `r` does not divide the cofactor `(p+1)/r`. The token
    /// decoder [`CurveParams::point_from_bytes_for_pairing`] skips the
    /// subgroup check exactly when this holds.
    pub fn pairing_ignores_torsion(&self) -> bool {
        self.pairing_ignores_torsion
    }

    /// The base-field context.
    pub fn fp(&self) -> &FpCtx {
        &self.fp
    }

    /// The generator `P` of `G1`.
    pub fn generator(&self) -> &G1Affine {
        &self.generator
    }

    // --- group operations -------------------------------------------------

    /// Point addition.
    pub fn add(&self, a: &G1Affine, b: &G1Affine) -> G1Affine {
        curve::add(&self.fp, a, b)
    }

    /// Point subtraction `a − b`.
    pub fn sub(&self, a: &G1Affine, b: &G1Affine) -> G1Affine {
        curve::add(&self.fp, a, &curve::neg(&self.fp, b))
    }

    /// Point negation.
    pub fn neg(&self, a: &G1Affine) -> G1Affine {
        curve::neg(&self.fp, a)
    }

    /// Scalar multiplication `k·P` (windowed Jacobian).
    pub fn mul(&self, k: &BigUint, point: &G1Affine) -> G1Affine {
        curve::mul(&self.fp, k, point)
    }

    /// `k·P` for the fixed generator, via the precomputed fixed-base
    /// comb (~4× faster than generic scalar multiplication).
    pub fn mul_generator(&self, k: &BigUint) -> G1Affine {
        let k = if k < &self.r { k.clone() } else { k % &self.r };
        if k.is_zero() {
            return G1Affine::infinity();
        }
        let table = self.generator_table();
        if let Some(fx) = self.fp.fixed() {
            // k < r < p always fits the modulus width.
            return crate::fixed::comb_mul(fx, table, &k);
        }
        let mut acc = curve::Jacobian::infinity(&self.fp);
        for (i, row) in table.iter().enumerate() {
            let mut digit = 0usize;
            for b in 0..4 {
                if k.bit(4 * i + b) {
                    digit |= 1 << b;
                }
            }
            if digit != 0 {
                acc = acc.add_affine(&self.fp, &row[digit]);
            }
        }
        acc.to_affine(&self.fp)
    }

    /// Generic (table-free) generator multiplication, kept for the E10
    /// ablation bench.
    pub fn mul_generator_generic(&self, k: &BigUint) -> G1Affine {
        curve::mul(&self.fp, k, &self.generator)
    }

    fn generator_table(&self) -> &Vec<Vec<G1Affine>> {
        self.gen_table.get_or_init(|| {
            let windows = self.r.bits().div_ceil(4);
            let mut table = Vec::with_capacity(windows);
            let mut base = self.generator.clone(); // 2^{4i}·P
            for _ in 0..windows {
                let mut row = Vec::with_capacity(16);
                row.push(G1Affine::infinity());
                for d in 1..16 {
                    let prev: &G1Affine = &row[d - 1];
                    row.push(curve::add(&self.fp, prev, &base));
                }
                base = curve::add(&self.fp, &row[15], &base); // 16·(2^{4i}·P)
                table.push(row);
            }
            table
        })
    }

    /// A uniformly random scalar in `[1, r)`.
    pub fn random_scalar(&self, rng: &mut impl RngCore) -> BigUint {
        brng::random_nonzero_below(rng, &self.r)
    }

    /// `true` iff `point` lies on the curve **and** in the order-`r`
    /// subgroup.
    ///
    /// The `[r]P = O` test runs on the inversion-free NAF predicate
    /// ([`sempair_field::curve::mul_is_identity`]), at a little over
    /// half the cost of computing `[r]P` with [`CurveParams::mul`].
    pub fn is_in_group(&self, point: &G1Affine) -> bool {
        self.is_on_curve(point) && curve::mul_is_identity(&self.fp, &self.r_naf, point)
    }

    /// `true` iff `point` satisfies the curve equation — weaker (and
    /// much cheaper) than [`CurveParams::is_in_group`]: no order-`r`
    /// check. A cheap first filter before paying for the subgroup
    /// check; never a substitute for it (the even cofactor means the
    /// curve always carries small-order torsion off the subgroup).
    pub fn is_on_curve(&self, point: &G1Affine) -> bool {
        match point.coordinates() {
            None => true,
            Some((x, y)) => curve::is_on_curve(&self.fp, x, y),
        }
    }

    /// Successive on-curve (pre-cofactor-clearing) candidate points of
    /// the try-and-increment hash, with the hash-derived `±y` choice.
    fn g1_candidates<'a>(
        &'a self,
        tag: &'a [u8],
        data: &'a [u8],
    ) -> impl Iterator<Item = G1Affine> + 'a {
        let f = &self.fp;
        derive::hash_to_field_candidates(tag, data, &self.p)
            .take(256)
            .enumerate()
            .filter_map(move |(attempt, x)| {
                let xe = f.from_uint(&x);
                let rhs = f.add(&f.mul(&f.sqr(&xe), &xe), &xe);
                let mut y = f.sqrt(&rhs)?;
                // Deterministic sign choice bound to the attempt index.
                let sign = derive::transcript_hash(
                    b"sempair-h1-sign",
                    &[tag, data, &(attempt as u32).to_be_bytes()],
                )[0] & 1;
                if (sign == 1) != f.parity(&y) {
                    y = f.neg(&y);
                }
                Some(G1Affine::from_xy_unchecked(xe, y))
            })
    }

    /// Hashes an arbitrary byte string onto `G1` (the scheme oracle
    /// `H1`): try-and-increment on the x-coordinate followed by
    /// cofactor clearing, with a hash-derived choice between `±y`.
    ///
    /// Candidates whose cofactor-cleared image is the point at infinity
    /// are skipped and the search continues — `H(m) = O` would make
    /// `σ = O` a valid GDH signature under *every* key and degenerate
    /// `Q_ID` in IBE, so the guard is load-bearing even though only a
    /// `1/r` fraction of candidates trip it (findable on the small-order
    /// test parameter sets even if not at paper sizes).
    pub fn hash_to_g1(&self, tag: &[u8], data: &[u8]) -> G1Affine {
        for candidate in self.g1_candidates(tag, data) {
            let cleared = curve::mul(&self.fp, &self.cofactor, &candidate);
            if !cleared.is_infinity() {
                debug_assert!(self.is_in_group(&cleared));
                return cleared;
            }
        }
        unreachable!(
            "256 try-and-increment attempts all failed (p ≈ 2^{})",
            self.p.bits()
        )
    }

    /// The *first on-curve candidate* behind [`CurveParams::hash_to_g1`],
    /// before cofactor clearing.
    ///
    /// `hash_to_g1(tag, data) = cofactor · hash_to_g1_candidate(tag, data)`
    /// **unless** the candidate clears to the point at infinity — a
    /// `1/r` fraction of inputs that `hash_to_g1`'s retry guard skips
    /// but this accessor cannot detect without paying for the clearing.
    /// Batch combiners use it for a fast path
    /// (`Σ cᵢ·H(mᵢ) = cofactor · Σ cᵢ·Candᵢ`, one clearing per batch)
    /// and MUST fall back to per-message [`CurveParams::hash_to_g1`]
    /// before treating a combined-equation mismatch as a failure;
    /// finding an input on which the two disagree costs `≈ r` hash
    /// evaluations (the same class of work as a collision search).
    pub fn hash_to_g1_candidate(&self, tag: &[u8], data: &[u8]) -> G1Affine {
        self.g1_candidates(tag, data)
            .next()
            .unwrap_or_else(|| unreachable!("256 try-and-increment attempts all failed"))
    }

    // --- target group (the paper's G2) -------------------------------------

    /// The modified Tate pairing `ê(P, Q)` (§3.1).
    pub fn pairing(&self, p: &G1Affine, q: &G1Affine) -> Gt {
        pairing_impl::tate_pairing(&self.fp, &self.r, &self.cofactor, p, q)
    }

    /// The product `Π ê(Pᵢ, Qᵢ)` computed with one shared Miller loop
    /// and a single final exponentiation — roughly `2×` faster than two
    /// separate pairings for the two-term products every verification
    /// equation in the schemes uses.
    pub fn multi_pairing(&self, pairs: &[(&G1Affine, &G1Affine)]) -> Gt {
        pairing_impl::multi_tate_pairing(&self.fp, &self.r, &self.cofactor, pairs)
    }

    /// `true` iff `ê(a1, b1) = ê(a2, b2)`, checked as
    /// `ê(−a1, b1)·ê(a2, b2) = 1` with one shared Miller loop.
    pub fn pairing_equals(
        &self,
        a1: &G1Affine,
        b1: &G1Affine,
        a2: &G1Affine,
        b2: &G1Affine,
    ) -> bool {
        // Degenerate inputs: fall back to direct comparison (identity
        // pairings are 1 and the product trick would conflate cases).
        if a1.is_infinity() || b1.is_infinity() || a2.is_infinity() || b2.is_infinity() {
            return self.pairing(a1, b1) == self.pairing(a2, b2);
        }
        let neg_a1 = curve::neg(&self.fp, a1);
        let product = self.multi_pairing(&[(&neg_a1, b1), (a2, b2)]);
        self.gt_is_one(&product)
    }

    /// Precomputes the Miller-loop line coefficients of `p` for reuse
    /// as a fixed first pairing argument.
    ///
    /// Costs about one pairing's worth of point arithmetic once; every
    /// subsequent [`CurveParams::pairing_prepared`] against the result
    /// skips that work entirely. Worth it from the second pairing
    /// onward — the encrypt path (`ê(P_pub, Q_ID)`) and the verify
    /// path (`ê(P, σ)`, `ê(R, H(m))`) reuse one fixed point across
    /// every call.
    ///
    /// The result is bound to **this** parameter set; evaluating it
    /// under different parameters yields a wrong (but safely computed)
    /// group element.
    pub fn prepare_g1(&self, p: &G1Affine) -> PreparedG1 {
        pairing_impl::prepare_g1(&self.fp, &self.r, p)
    }

    /// The generator `P`, prepared once per parameter set and cached —
    /// verification equations of the form `ê(P, ·)` share it instead of
    /// re-walking the Miller chain per call.
    pub fn prepared_generator(&self) -> &PreparedG1 {
        self.prep_gen
            .get_or_init(|| self.prepare_g1(&self.generator))
    }

    /// Disables the fixed-width backend on this parameter set's field
    /// context, so all arithmetic runs on the variable-width reference
    /// path. Cached tables built under the other backend are discarded
    /// here; clones taken earlier keep theirs.
    /// Test-only hook for differential checks; not part of the public
    /// API contract.
    #[doc(hidden)]
    pub fn force_bigint_backend(&mut self) {
        self.fp.force_bigint_backend();
        self.gen_table = Arc::default();
        self.prep_gen = Arc::default();
    }

    /// [`CurveParams::pairing`] with a prepared first argument:
    /// identical output, roughly half the Miller-loop work.
    pub fn pairing_prepared(&self, p: &PreparedG1, q: &G1Affine) -> Gt {
        pairing_impl::tate_pairing_prepared(&self.fp, &self.r, &self.cofactor, p, q)
    }

    /// [`CurveParams::multi_pairing`] where every first argument is
    /// prepared: one shared squaring chain, no point arithmetic.
    pub fn multi_pairing_prepared(&self, pairs: &[(&PreparedG1, &G1Affine)]) -> Gt {
        pairing_impl::multi_tate_pairing_prepared(&self.fp, &self.r, &self.cofactor, pairs)
    }

    /// The pairing with an explicit Miller-loop strategy (used by the
    /// E10 ablation; [`CurveParams::pairing`] always picks the fast
    /// projective loop).
    pub fn pairing_with_strategy(
        &self,
        p: &G1Affine,
        q: &G1Affine,
        strategy: MillerStrategy,
    ) -> Gt {
        pairing_impl::tate_pairing_with(&self.fp, &self.r, &self.cofactor, p, q, strategy)
    }

    /// Identity element of the target group.
    pub fn gt_one(&self) -> Gt {
        Gt(fp2::one(&self.fp))
    }

    /// `true` iff `a` is the target-group identity.
    pub fn gt_is_one(&self, a: &Gt) -> bool {
        fp2::is_one(&self.fp, &a.0)
    }

    /// Target-group multiplication.
    pub fn gt_mul(&self, a: &Gt, b: &Gt) -> Gt {
        Gt(fp2::mul(&self.fp, &a.0, &b.0))
    }

    /// Target-group inverse.
    ///
    /// Elements of `G2` are unitary (norm 1), so inversion is
    /// conjugation — no field inversion needed.
    pub fn gt_inv(&self, a: &Gt) -> Gt {
        Gt(fp2::conj(&self.fp, &a.0))
    }

    /// Target-group exponentiation.
    pub fn gt_pow(&self, a: &Gt, e: &BigUint) -> Gt {
        Gt(fp2::pow(&self.fp, &a.0, &(e % &self.r)))
    }

    /// Canonical encoding of a target-group element
    /// (`2·byte_len(p)` bytes).
    pub fn gt_to_bytes(&self, a: &Gt) -> Vec<u8> {
        fp2::to_bytes(&self.fp, &a.0)
    }

    /// Decodes [`CurveParams::gt_to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input.
    pub fn gt_from_bytes(&self, bytes: &[u8]) -> Result<Gt, DecodeError> {
        fp2::from_bytes(&self.fp, bytes).map(Gt)
    }

    // --- point serialization -----------------------------------------------

    /// Compressed point size in bytes: one flag byte plus `x`.
    pub fn point_len(&self) -> usize {
        1 + self.fp.byte_len()
    }

    /// Compressed encoding: flag `0x00` for infinity (x zeroed), else
    /// `0x02 | y-parity` followed by the big-endian x-coordinate —
    /// the "point compression" §4 invokes for short private keys.
    pub fn point_to_bytes(&self, point: &G1Affine) -> Vec<u8> {
        let mut out = vec![0u8; self.point_len()];
        if let Some((x, y)) = point.coordinates() {
            out[0] = 0x02 | u8::from(self.fp.parity(y));
            out[1..].copy_from_slice(&self.fp.to_bytes(x));
        }
        out
    }

    /// Decodes a compressed point, validating curve and subgroup
    /// membership.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input, an off-curve
    /// x-coordinate ([`DecodeError::NotOnCurve`]), or a curve point
    /// outside the order-`r` subgroup ([`DecodeError::NotInSubgroup`]).
    pub fn point_from_bytes(&self, bytes: &[u8]) -> Result<G1Affine, DecodeError> {
        self.decode_point(bytes, true)
    }

    /// Decodes a compressed point that will only ever be the second,
    /// non-Miller argument `Q` of the reduced Tate pairing
    /// `t_r(P, φ(Q))` with `P ∈ G1` — the SEM's `U` in `ê(d_sem, U)`.
    /// The output is valid for nothing else: not as a Miller argument,
    /// not for scalar multiplication by a secret, not as a key or a
    /// signature.
    ///
    /// The length, flag, reduced-`x` and on-curve checks run as in
    /// [`CurveParams::point_from_bytes`]; the `[r]Q = O` check is
    /// skipped when [`CurveParams::pairing_ignores_torsion`] holds.
    /// Then `Q = Q_r + T` with `T`'s order dividing `h = (p+1)/r` and
    /// coprime to `r`, so `T ∈ rE` and, the reduced pairing being
    /// defined on `E/rE`, `t_r(P, φ(Q)) = t_r(P, φ(Q_r))` byte for byte.
    /// Anyone holding `Q` can compute `Q_r`, so pairing `Q` reveals
    /// nothing that pairing `Q_r` does not. Where `r | h` the full
    /// check runs.
    ///
    /// # Errors
    ///
    /// Those of [`CurveParams::point_from_bytes`];
    /// [`DecodeError::NotInSubgroup`] only where `r | h`.
    pub fn point_from_bytes_for_pairing(&self, bytes: &[u8]) -> Result<G1Affine, DecodeError> {
        self.decode_point(bytes, !self.pairing_ignores_torsion)
    }

    fn decode_point(&self, bytes: &[u8], check_subgroup: bool) -> Result<G1Affine, DecodeError> {
        if bytes.len() != self.point_len() {
            return Err(DecodeError::BadLength {
                expected: self.point_len(),
                got: bytes.len(),
            });
        }
        let Some((&flag_byte, body)) = bytes.split_first() else {
            return Err(DecodeError::BadLength {
                expected: self.point_len(),
                got: 0,
            });
        };
        match flag_byte {
            0x00 => {
                if body.iter().any(|&b| b != 0) {
                    return Err(DecodeError::BadFlag(0x00));
                }
                Ok(G1Affine::infinity())
            }
            flag @ (0x02 | 0x03) => {
                let x = BigUint::from_be_bytes(body);
                if x >= self.p {
                    return Err(DecodeError::NotReduced);
                }
                let f = &self.fp;
                let xe = f.from_uint(&x);
                let rhs = f.add(&f.mul(&f.sqr(&xe), &xe), &xe);
                let mut y = f.sqrt(&rhs).ok_or(DecodeError::NotOnCurve)?;
                if f.parity(&y) != (flag & 1 == 1) {
                    y = f.neg(&y);
                }
                let point = G1Affine::from_xy_unchecked(xe, y);
                if check_subgroup && !curve::mul_is_identity(f, &self.r_naf, &point) {
                    return Err(DecodeError::NotInSubgroup);
                }
                Ok(point)
            }
            other => Err(DecodeError::BadFlag(other)),
        }
    }

    /// Simultaneous multi-scalar multiplication `Σ kᵢ·Pᵢ` (Pippenger's
    /// bucket method) — used by Lagrange recombination in the threshold
    /// schemes and by the GDH batch-verification combiner, where the
    /// term count is what makes batching pay.
    pub fn multi_mul(&self, terms: &[(BigUint, G1Affine)]) -> G1Affine {
        curve::multi_mul(&self.fp, terms)
    }
}

/// Derives a generator of the order-`r` subgroup deterministically from
/// a fixed tag, by try-and-increment + cofactor clearing. `r_naf` holds
/// the width-5 NAF digits of `r`.
fn derive_generator(f: &FpCtx, r_naf: &[i8], cofactor: &BigUint) -> Option<G1Affine> {
    for x in derive::hash_to_field_candidates(b"sempair-generator", b"v1", f.modulus()).take(512) {
        let xe = f.from_uint(&x);
        let rhs = f.add(&f.mul(&f.sqr(&xe), &xe), &xe);
        if let Some(y) = f.sqrt(&rhs) {
            let candidate = G1Affine::from_xy_unchecked(xe, y);
            let cleared = curve::mul(f, cofactor, &candidate);
            if !cleared.is_infinity() {
                debug_assert!(curve::mul_is_identity(f, r_naf, &cleared));
                return Some(cleared);
            }
        }
    }
    None
}

/// Exposes `Fp` canonical conversion for downstream crates that need to
/// feed x-coordinates into hash functions.
impl CurveParams {
    /// Canonical x/y byte encoding (uncompressed, without flag), or all
    /// zeros for infinity. Primarily for hashing transcripts.
    pub fn point_to_uncompressed(&self, point: &G1Affine) -> Vec<u8> {
        let w = self.fp.byte_len();
        match point.coordinates() {
            None => vec![0u8; 2 * w],
            Some((x, y)) => {
                let mut out = self.fp.to_bytes(x);
                out.extend_from_slice(&self.fp.to_bytes(y));
                out
            }
        }
    }

    /// Embeds an integer as a field element and lifts `±` candidates —
    /// helper for tests that need arbitrary curve points.
    pub fn lift_x(&self, x: &BigUint) -> Option<(G1Affine, G1Affine)> {
        let f = &self.fp;
        let xe = f.from_uint(x);
        let rhs = f.add(&f.mul(&f.sqr(&xe), &xe), &xe);
        let y = f.sqrt(&rhs)?;
        let p1 = G1Affine::from_xy_unchecked(xe.clone(), y.clone());
        let p2 = G1Affine::from_xy_unchecked(xe, f.neg(&y));
        Some((p1, p2))
    }
}

/// Pre-generated parameter sets `(p, r, gx, gy)` in hex.
///
/// Produced by `examples/gen_params.rs` with a fixed DRBG seed and
/// validated on every load by [`CurveParams::from_spec`].
const PAPER_512_160: (&str, &str, &str, &str) = (
    "a136c1e6695cff097bc289fca33cca75be37d973ef5c23fc826413b9d479b6ff556335280d9a7b0887b4b9e9da842e41d5a4729a469317552c5bcee82d6e9243",
    "b575819f1529f4608e80d28b409439bdaccefa71",
    "293e919f727527fcf416ddfaf6ad099036eeb46200db2a1ca9119c8bc32c9436fd76acd27abffe71639e8f4ff27cfe4db8127db4e6cbb9060a6675758fc760d9",
    "24df8ae186a92f6beec01dae63fb13ff8cf4352b236c7551ab17e42cbc5dc934b1e3d3287b5c6c25e47e175531764f409f46950a06f7cb680ffb1bc7ac1e79f8",
);

const SHORT_GDH_176_160: (&str, &str, &str, &str) = (
    "8892c809a727080fea02f63a1683729744563ff31b17",
    "ceb073d4e91aac86c05026ef58089f6c176663e7",
    "3c0e77b316aa9d85d163b428f4aee9dd58430eba0efa",
    "7e53d63a36b3479be56c34bc81a8790ea3b9ff08fb22",
);

const FAST_256_128: (&str, &str, &str, &str) = (
    "ae4501592d04a509404dfd8b8578a5b116f83a1a4eb077d5c7fb03bae12f0027",
    "daf303c9fddb460cb002d201fe609e33",
    "17f50199dc06f9340266e56f39e340a914b6e7d6a6d21e99d9d0a2e76b47ae29",
    "7de61b80c0e273c9115ff240518d01926d455352dbb141af4c402c76f962779f",
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sempair_bigint::modular;

    fn params() -> CurveParams {
        let mut rng = StdRng::seed_from_u64(77);
        CurveParams::generate(&mut rng, 128, 64).unwrap()
    }

    #[test]
    fn generated_params_invariants() {
        let prm = params();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(prm.modulus().bits(), 128);
        assert_eq!(prm.order().bits(), 64);
        assert!(prime::is_probable_prime(prm.modulus(), &mut rng));
        assert!(prime::is_probable_prime(prm.order(), &mut rng));
        assert_eq!(prm.modulus().limbs()[0] & 3, 3, "p ≡ 3 (mod 4)");
        let p1 = prm.modulus() + &BigUint::one();
        assert_eq!(&(prm.cofactor() * prm.order()), &p1);
        assert!(prm.is_in_group(prm.generator()));
        assert!(!prm.generator().is_infinity());
    }

    #[test]
    fn spec_roundtrip_and_validation() {
        let prm = params();
        let spec = prm.to_spec();
        let mut rng = StdRng::seed_from_u64(2);
        let back = CurveParams::from_spec(&spec, &mut rng).unwrap();
        assert_eq!(back.generator(), prm.generator());
        assert_eq!(back.order(), prm.order());

        // Corrupt each field and expect rejection.
        let mut bad = prm.to_spec();
        bad.r = &bad.r + &BigUint::two();
        assert!(CurveParams::from_spec(&bad, &mut rng).is_err());
        let mut bad = prm.to_spec();
        bad.gx = &bad.gx + &BigUint::one();
        assert!(CurveParams::from_spec(&bad, &mut rng).is_err());
        let mut bad = prm.to_spec();
        bad.p = &bad.p + &BigUint::one(); // even now
        assert!(CurveParams::from_spec(&bad, &mut rng).is_err());
    }

    #[test]
    fn pairing_bilinearity_generated_params() {
        let prm = params();
        let mut rng = StdRng::seed_from_u64(3);
        let g = prm.generator().clone();
        let a = prm.random_scalar(&mut rng);
        let b = prm.random_scalar(&mut rng);
        let lhs = prm.pairing(&prm.mul(&a, &g), &prm.mul(&b, &g));
        let ab = modular::mod_mul(&a, &b, prm.order());
        let rhs = prm.gt_pow(&prm.pairing(&g, &g), &ab);
        assert_eq!(lhs, rhs);
        assert!(!prm.gt_is_one(&prm.pairing(&g, &g)));
    }

    #[test]
    fn pairing_output_has_order_r() {
        let prm = params();
        let g = prm.generator();
        let e = prm.pairing(g, g);
        assert!(prm.gt_is_one(&prm.gt_pow(&e, prm.order())));
        assert!(prm.gt_is_one(&prm.gt_mul(&e, &prm.gt_inv(&e))));
    }

    #[test]
    fn hash_to_g1_properties() {
        let prm = params();
        let a = prm.hash_to_g1(b"H1", b"alice@example.com");
        let b = prm.hash_to_g1(b"H1", b"bob@example.com");
        let a2 = prm.hash_to_g1(b"H1", b"alice@example.com");
        assert_eq!(a, a2, "deterministic");
        assert_ne!(a, b, "distinct identities map to distinct points");
        assert!(prm.is_in_group(&a));
        assert!(!a.is_infinity());
        // Domain separation.
        assert_ne!(prm.hash_to_g1(b"H1", b"x"), prm.hash_to_g1(b"other", b"x"));
    }

    #[test]
    fn point_compression_roundtrip() {
        let prm = params();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let k = prm.random_scalar(&mut rng);
            let point = prm.mul_generator(&k);
            let bytes = prm.point_to_bytes(&point);
            assert_eq!(bytes.len(), prm.point_len());
            assert_eq!(prm.point_from_bytes(&bytes).unwrap(), point);
        }
        // Infinity.
        let inf_bytes = prm.point_to_bytes(&G1Affine::infinity());
        assert_eq!(
            prm.point_from_bytes(&inf_bytes).unwrap(),
            G1Affine::infinity()
        );
        // Bad flag / length.
        let mut bad = prm.point_to_bytes(prm.generator());
        bad[0] = 0x05;
        assert!(matches!(
            prm.point_from_bytes(&bad),
            Err(DecodeError::BadFlag(0x05))
        ));
        assert!(prm.point_from_bytes(&bad[1..]).is_err());
    }

    #[test]
    fn multi_mul_matches_naive() {
        let prm = params();
        let mut rng = StdRng::seed_from_u64(5);
        // Sweep term counts across the bucket-method window tiers.
        for n in [0usize, 1, 2, 4, 17, 40] {
            let mut terms: Vec<(BigUint, G1Affine)> = (0..n)
                .map(|_| {
                    let k = prm.random_scalar(&mut rng);
                    let point = prm.mul_generator(&prm.random_scalar(&mut rng));
                    (k, point)
                })
                .collect();
            // Degenerate terms must drop out.
            terms.push((BigUint::zero(), prm.mul_generator(&BigUint::two())));
            terms.push((prm.random_scalar(&mut rng), G1Affine::infinity()));
            let got = prm.multi_mul(&terms);
            let mut expect = G1Affine::infinity();
            for (k, point) in &terms {
                expect = prm.add(&expect, &prm.mul(k, point));
            }
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn fixed_base_comb_matches_generic() {
        let prm = params();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let k = prm.random_scalar(&mut rng);
            assert_eq!(prm.mul_generator(&k), prm.mul_generator_generic(&k));
        }
        // Edge scalars.
        assert!(prm.mul_generator(&BigUint::zero()).is_infinity());
        assert_eq!(prm.mul_generator(&BigUint::one()), *prm.generator());
        // Scalars ≥ r reduce mod r (generator has order r).
        let big_k = prm.order() + &BigUint::from(5u64);
        assert_eq!(
            prm.mul_generator(&big_k),
            prm.mul_generator(&BigUint::from(5u64))
        );
        // r·P = O.
        assert!(prm.mul_generator(prm.order()).is_infinity());
    }

    #[test]
    fn prepared_pairing_matches_fresh() {
        let prm = params();
        let mut rng = StdRng::seed_from_u64(7);
        let g = prm.generator().clone();
        let prep_g = prm.prepare_g1(&g);
        for _ in 0..5 {
            let q = prm.mul_generator(&prm.random_scalar(&mut rng));
            assert_eq!(prm.pairing_prepared(&prep_g, &q), prm.pairing(&g, &q));
        }
        // Multi-pairing with mixed prepared points, including the
        // verification-equation shape ê(−P, σ)·ê(R, H(m)).
        let a = prm.mul_generator(&prm.random_scalar(&mut rng));
        let b = prm.mul_generator(&prm.random_scalar(&mut rng));
        let neg_g = prm.neg(&g);
        let prep_neg = prm.prepare_g1(&neg_g);
        let prep_a = prm.prepare_g1(&a);
        let fresh = prm.multi_pairing(&[(&neg_g, &b), (&a, &b)]);
        let prepared = prm.multi_pairing_prepared(&[(&prep_neg, &b), (&prep_a, &b)]);
        assert_eq!(fresh, prepared);
    }

    #[test]
    fn sub_and_neg() {
        let prm = params();
        let g = prm.generator().clone();
        let two_g = prm.add(&g, &g);
        assert_eq!(prm.sub(&two_g, &g), g);
        assert!(prm.sub(&g, &g).is_infinity());
        assert!(prm.add(&g, &prm.neg(&g)).is_infinity());
    }
}
