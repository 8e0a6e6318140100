//! Width dispatch from the bigint-backed [`FpCtx`] onto the
//! fixed-width Montgomery backend in `sempair-field`.
//!
//! Both backends use `R = 2^{64k}` for a `k`-limb modulus, so
//! Montgomery-form limbs move between them with a plain copy — no
//! arithmetic. Moduli wider than eight limbs have no fixed context and
//! every caller falls back to the bigint reference path; the paper's
//! 512-bit prime is exactly eight limbs.
//!
//! Scalar limbs copied into this module transit through
//! [`SecretLimbs`], which zeroizes on drop — window tables built from
//! them inside the kernels hold only public curve points.

use crate::curve::G1Affine;
use crate::fp::Fp;
use crate::fp2::Fp2;
use sempair_bigint::{BigUint, MontElem};
use sempair_field::curve as fcurve;
use sempair_field::ext2::{self, Ext2};
use sempair_field::miller as fmiller;
use sempair_field::{FpW, MontCtx, SecretLimbs};

/// A fixed-width Montgomery context at each supported limb width.
#[derive(Clone, Debug)]
pub(crate) enum FixedCtx {
    W1(MontCtx<1>),
    W2(MontCtx<2>),
    W3(MontCtx<3>),
    W4(MontCtx<4>),
    W5(MontCtx<5>),
    W6(MontCtx<6>),
    W7(MontCtx<7>),
    W8(MontCtx<8>),
}

/// Cached Miller-loop line coefficients in fixed-width form, one
/// variant per context width (see [`crate::PreparedG1`]).
#[derive(Clone, Debug)]
pub(crate) enum FixedSteps {
    W1(Vec<fmiller::Line<FpW<1>>>),
    W2(Vec<fmiller::Line<FpW<2>>>),
    W3(Vec<fmiller::Line<FpW<3>>>),
    W4(Vec<fmiller::Line<FpW<4>>>),
    W5(Vec<fmiller::Line<FpW<5>>>),
    W6(Vec<fmiller::Line<FpW<6>>>),
    W7(Vec<fmiller::Line<FpW<7>>>),
    W8(Vec<fmiller::Line<FpW<8>>>),
}

/// Dispatches `$go::<N>(ctx, args…)` over the context width. `$go`
/// must be a function generic over `const N: usize` whose first
/// parameter is `&MontCtx<N>`.
macro_rules! with_width {
    ($fx:expr, $go:ident ( $($arg:expr),* $(,)? )) => {
        match $fx {
            FixedCtx::W1(f) => $go::<1>(f, $($arg),*),
            FixedCtx::W2(f) => $go::<2>(f, $($arg),*),
            FixedCtx::W3(f) => $go::<3>(f, $($arg),*),
            FixedCtx::W4(f) => $go::<4>(f, $($arg),*),
            FixedCtx::W5(f) => $go::<5>(f, $($arg),*),
            FixedCtx::W6(f) => $go::<6>(f, $($arg),*),
            FixedCtx::W7(f) => $go::<7>(f, $($arg),*),
            FixedCtx::W8(f) => $go::<8>(f, $($arg),*),
        }
    };
}

/// Like [`with_width!`] but pairs the context with width-matched
/// prepared steps; evaluates to `None` on a width mismatch (prepared
/// point from a different parameter set — callers fall back to the
/// reference path, which computes the same safely-garbage value the
/// old code did).
macro_rules! with_width_steps {
    ($fx:expr, $st:expr, $go:ident ( $($arg:expr),* $(,)? )) => {
        match ($fx, $st) {
            (FixedCtx::W1(f), FixedSteps::W1(s)) => Some($go::<1>(f, s, $($arg),*)),
            (FixedCtx::W2(f), FixedSteps::W2(s)) => Some($go::<2>(f, s, $($arg),*)),
            (FixedCtx::W3(f), FixedSteps::W3(s)) => Some($go::<3>(f, s, $($arg),*)),
            (FixedCtx::W4(f), FixedSteps::W4(s)) => Some($go::<4>(f, s, $($arg),*)),
            (FixedCtx::W5(f), FixedSteps::W5(s)) => Some($go::<5>(f, s, $($arg),*)),
            (FixedCtx::W6(f), FixedSteps::W6(s)) => Some($go::<6>(f, s, $($arg),*)),
            (FixedCtx::W7(f), FixedSteps::W7(s)) => Some($go::<7>(f, s, $($arg),*)),
            (FixedCtx::W8(f), FixedSteps::W8(s)) => Some($go::<8>(f, s, $($arg),*)),
            _ => None,
        }
    };
}

impl FixedCtx {
    /// Builds the fixed context for a modulus of 1–8 limbs, or `None`
    /// beyond that (bigint-only operation).
    pub(crate) fn from_modulus(p: &BigUint) -> Option<Self> {
        let limbs = p.limbs();
        match limbs.len() {
            1 => MontCtx::<1>::from_limbs(limbs).map(FixedCtx::W1),
            2 => MontCtx::<2>::from_limbs(limbs).map(FixedCtx::W2),
            3 => MontCtx::<3>::from_limbs(limbs).map(FixedCtx::W3),
            4 => MontCtx::<4>::from_limbs(limbs).map(FixedCtx::W4),
            5 => MontCtx::<5>::from_limbs(limbs).map(FixedCtx::W5),
            6 => MontCtx::<6>::from_limbs(limbs).map(FixedCtx::W6),
            7 => MontCtx::<7>::from_limbs(limbs).map(FixedCtx::W7),
            8 => MontCtx::<8>::from_limbs(limbs).map(FixedCtx::W8),
            _ => None,
        }
    }

    /// The context's limb width.
    pub(crate) fn width(&self) -> usize {
        match self {
            FixedCtx::W1(_) => 1,
            FixedCtx::W2(_) => 2,
            FixedCtx::W3(_) => 3,
            FixedCtx::W4(_) => 4,
            FixedCtx::W5(_) => 5,
            FixedCtx::W6(_) => 6,
            FixedCtx::W7(_) => 7,
            FixedCtx::W8(_) => 8,
        }
    }

    /// `true` iff `k`'s limbs fit this width (scalars wider than the
    /// modulus take the bigint path).
    pub(crate) fn fits_scalar(&self, k: &BigUint) -> bool {
        k.limbs().len() <= self.width()
    }
}

// --- element conversions (Montgomery-form limb copies) -------------------

fn to_fixed<const N: usize>(a: &Fp) -> FpW<N> {
    let src = a.0.limbs();
    debug_assert_eq!(src.len(), N, "element width matches context width");
    let mut out = [0u64; N];
    out.copy_from_slice(src);
    FpW(out)
}

fn from_fixed<const N: usize>(a: &FpW<N>) -> Fp {
    Fp(MontElem::from_limbs(a.limbs().to_vec()))
}

fn point_to_fixed<const N: usize>(p: &G1Affine) -> fcurve::Affine<FpW<N>> {
    p.coordinates().map(|(x, y)| (to_fixed(x), to_fixed(y)))
}

fn point_from_fixed<const N: usize>(p: &fcurve::Affine<FpW<N>>) -> G1Affine {
    match p {
        None => G1Affine::infinity(),
        Some((x, y)) => G1Affine::from_xy_unchecked(from_fixed(x), from_fixed(y)),
    }
}

fn fp2_to_fixed<const N: usize>(a: &Fp2) -> Ext2<FpW<N>> {
    Ext2 {
        c0: to_fixed(&a.c0),
        c1: to_fixed(&a.c1),
    }
}

fn fp2_from_fixed<const N: usize>(a: &Ext2<FpW<N>>) -> Fp2 {
    Fp2 {
        c0: from_fixed(&a.c0),
        c1: from_fixed(&a.c1),
    }
}

fn as_ref<E>(p: &fcurve::Affine<E>) -> fcurve::AffineRef<'_, E> {
    p.as_ref().map(|(x, y)| (x, y))
}

// --- base/extension field dispatch ---------------------------------------

/// `a^e` through the fixed backend.
pub(crate) fn fp_pow(fx: &FixedCtx, a: &Fp, e: &BigUint) -> Fp {
    fn go<const N: usize>(f: &MontCtx<N>, a: &Fp, e: &BigUint) -> Fp {
        from_fixed(&f.pow(&to_fixed(a), e.limbs()))
    }
    with_width!(fx, go(a, e))
}

/// `a⁻¹` through the fixed backend (binary GCD on raw limbs).
pub(crate) fn fp_inv(fx: &FixedCtx, a: &Fp) -> Option<Fp> {
    fn go<const N: usize>(f: &MontCtx<N>, a: &Fp) -> Option<Fp> {
        f.inv(&to_fixed(a)).map(|v| from_fixed(&v))
    }
    with_width!(fx, go(a))
}

/// `a^e` in `F_p²` through the fixed backend (lazy-reduced tower).
pub(crate) fn fp2_pow(fx: &FixedCtx, a: &Fp2, e: &BigUint) -> Fp2 {
    fn go<const N: usize>(f: &MontCtx<N>, a: &Fp2, e: &BigUint) -> Fp2 {
        fp2_from_fixed(&ext2::pow(f, &fp2_to_fixed(a), e.limbs()))
    }
    with_width!(fx, go(a, e))
}

// --- curve dispatch -------------------------------------------------------

/// Windowed scalar multiplication `k·P`. Caller guarantees
/// `fx.fits_scalar(k)`.
pub(crate) fn mul(fx: &FixedCtx, k: &BigUint, p: &G1Affine) -> G1Affine {
    fn go<const N: usize>(f: &MontCtx<N>, k: &BigUint, p: &G1Affine) -> G1Affine {
        let k = SecretLimbs::<N>::from_slice(k.limbs());
        let pf = point_to_fixed::<N>(p);
        point_from_fixed(&fcurve::scalar_mul(f, k.limbs(), as_ref(&pf)))
    }
    with_width!(fx, go(k, p))
}

/// `true` iff `k·P = O`, for a public `k` given as its width-5 NAF.
pub(crate) fn mul_is_identity(fx: &FixedCtx, naf: &[i8], p: &G1Affine) -> bool {
    fn go<const N: usize>(f: &MontCtx<N>, naf: &[i8], p: &G1Affine) -> bool {
        fcurve::mul_is_identity(f, naf, as_ref(&point_to_fixed::<N>(p)))
    }
    with_width!(fx, go(naf, p))
}

/// Pippenger multi-scalar multiplication `Σ kᵢ·Pᵢ`. Caller guarantees
/// every scalar fits.
pub(crate) fn multi_mul(fx: &FixedCtx, terms: &[(BigUint, G1Affine)]) -> G1Affine {
    fn go<const N: usize>(f: &MontCtx<N>, terms: &[(BigUint, G1Affine)]) -> G1Affine {
        let scalars: Vec<SecretLimbs<N>> = terms
            .iter()
            .map(|(k, _)| SecretLimbs::from_slice(k.limbs()))
            .collect();
        let points: Vec<fcurve::Affine<FpW<N>>> =
            terms.iter().map(|(_, p)| point_to_fixed(p)).collect();
        let refs: Vec<(&[u64], fcurve::AffineRef<'_, FpW<N>>)> = scalars
            .iter()
            .zip(points.iter())
            .map(|(k, p)| (&k.limbs()[..], as_ref(p)))
            .collect();
        point_from_fixed(&fcurve::multi_scalar_mul(f, &refs))
    }
    with_width!(fx, go(terms))
}

/// Fixed-base comb for the generator: one digit-selected mixed
/// addition per 4-bit window of `k`, all arithmetic fixed-width. The
/// table rows hold `d·2^{4i}·P` as bigint points; only the single
/// entry each row's digit selects is converted (a limb copy).
pub(crate) fn comb_mul(fx: &FixedCtx, table: &[Vec<G1Affine>], k: &BigUint) -> G1Affine {
    fn go<const N: usize>(f: &MontCtx<N>, table: &[Vec<G1Affine>], k: &BigUint) -> G1Affine {
        let k = SecretLimbs::<N>::from_slice(k.limbs());
        let mut acc = fcurve::jp_infinity(f);
        for (i, row) in table.iter().enumerate() {
            let mut digit = 0usize;
            for b in 0..4 {
                if sempair_field::limb::bit(k.limbs(), 4 * i + b) {
                    digit |= 1 << b;
                }
            }
            if digit != 0 {
                let entry = point_to_fixed::<N>(&row[digit]);
                acc = fcurve::jp_add_affine(f, &acc, as_ref(&entry));
            }
        }
        point_from_fixed(&fcurve::jp_to_affine(f, &acc))
    }
    with_width!(fx, go(table, k))
}

// --- pairing dispatch -----------------------------------------------------

/// Full Tate pairing (Miller loop + final exponentiation) through the
/// fixed backend. `p`, `q` must be non-infinity (callers guard).
pub(crate) fn tate(
    fx: &FixedCtx,
    r: &BigUint,
    cofactor: &BigUint,
    p: &G1Affine,
    q: &G1Affine,
    affine_loop: bool,
) -> Fp2 {
    fn go<const N: usize>(
        f: &MontCtx<N>,
        r: &BigUint,
        cofactor: &BigUint,
        p: &G1Affine,
        q: &G1Affine,
        affine_loop: bool,
    ) -> Fp2 {
        let pf = point_to_fixed::<N>(p).expect("non-infinity P");
        let qf = point_to_fixed::<N>(q).expect("non-infinity Q");
        let m = if affine_loop {
            fmiller::miller_affine(f, r.limbs(), (&pf.0, &pf.1), (&qf.0, &qf.1))
        } else {
            fmiller::miller_projective(f, r.limbs(), (&pf.0, &pf.1), (&qf.0, &qf.1))
        };
        fp2_from_fixed(&fmiller::final_exp(f, cofactor.limbs(), &m))
    }
    with_width!(fx, go(r, cofactor, p, q, affine_loop))
}

/// Product of pairings with one shared Miller loop and one final
/// exponentiation.
pub(crate) fn multi_tate(
    fx: &FixedCtx,
    r: &BigUint,
    cofactor: &BigUint,
    pairs: &[(&G1Affine, &G1Affine)],
) -> Fp2 {
    fn go<const N: usize>(
        f: &MontCtx<N>,
        r: &BigUint,
        cofactor: &BigUint,
        pairs: &[(&G1Affine, &G1Affine)],
    ) -> Fp2 {
        let converted: Vec<(fcurve::Affine<FpW<N>>, fcurve::Affine<FpW<N>>)> = pairs
            .iter()
            .map(|(p, q)| (point_to_fixed(p), point_to_fixed(q)))
            .collect();
        let live: Vec<fmiller::PairRef<'_, FpW<N>>> = converted
            .iter()
            .filter_map(|(p, q)| match (p, q) {
                (Some((px, py)), Some((qx, qy))) => Some(((px, py), (qx, qy))),
                _ => None,
            })
            .collect();
        let m = fmiller::multi_miller(f, r.limbs(), &live);
        if ext2::is_zero(f, &m) {
            // Cannot happen for valid inputs; guard as the reference.
            return fp2_from_fixed(&ext2::one(f));
        }
        fp2_from_fixed(&fmiller::final_exp(f, cofactor.limbs(), &m))
    }
    with_width!(fx, go(r, cofactor, pairs))
}

/// Walks the prepared-line chain for `p` in fixed arithmetic. `p` must
/// be non-infinity.
pub(crate) fn prepare(fx: &FixedCtx, r: &BigUint, p: &G1Affine) -> FixedSteps {
    fn go<const N: usize>(f: &MontCtx<N>, r: &BigUint, p: &G1Affine) -> Vec<fmiller::Line<FpW<N>>> {
        let pf = point_to_fixed::<N>(p).expect("non-infinity P");
        fmiller::prepare_lines(f, r.limbs(), (&pf.0, &pf.1))
    }
    match fx {
        FixedCtx::W1(f) => FixedSteps::W1(go::<1>(f, r, p)),
        FixedCtx::W2(f) => FixedSteps::W2(go::<2>(f, r, p)),
        FixedCtx::W3(f) => FixedSteps::W3(go::<3>(f, r, p)),
        FixedCtx::W4(f) => FixedSteps::W4(go::<4>(f, r, p)),
        FixedCtx::W5(f) => FixedSteps::W5(go::<5>(f, r, p)),
        FixedCtx::W6(f) => FixedSteps::W6(go::<6>(f, r, p)),
        FixedCtx::W7(f) => FixedSteps::W7(go::<7>(f, r, p)),
        FixedCtx::W8(f) => FixedSteps::W8(go::<8>(f, r, p)),
    }
}

/// Converts fixed steps into bigint-form line triples for the
/// reference replay path (one limb copy per coefficient).
pub(crate) fn steps_to_fp(steps: &FixedSteps) -> Vec<fmiller::Line<Fp>> {
    fn go<const N: usize>(steps: &[fmiller::Line<FpW<N>>]) -> Vec<fmiller::Line<Fp>> {
        steps
            .iter()
            .map(|[a, b, c]| [from_fixed(a), from_fixed(b), from_fixed(c)])
            .collect()
    }
    match steps {
        FixedSteps::W1(s) => go::<1>(s),
        FixedSteps::W2(s) => go::<2>(s),
        FixedSteps::W3(s) => go::<3>(s),
        FixedSteps::W4(s) => go::<4>(s),
        FixedSteps::W5(s) => go::<5>(s),
        FixedSteps::W6(s) => go::<6>(s),
        FixedSteps::W7(s) => go::<7>(s),
        FixedSteps::W8(s) => go::<8>(s),
    }
}

/// Prepared pairing through the fixed backend, or `None` on a width
/// mismatch. `q` must be non-infinity.
pub(crate) fn tate_prepared(
    fx: &FixedCtx,
    r: &BigUint,
    cofactor: &BigUint,
    steps: &FixedSteps,
    q: &G1Affine,
) -> Option<Fp2> {
    fn go<const N: usize>(
        f: &MontCtx<N>,
        steps: &[fmiller::Line<FpW<N>>],
        r: &BigUint,
        cofactor: &BigUint,
        q: &G1Affine,
    ) -> Fp2 {
        let qf = point_to_fixed::<N>(q).expect("non-infinity Q");
        let m = fmiller::miller_prepared(f, r.limbs(), steps, (&qf.0, &qf.1));
        fp2_from_fixed(&fmiller::final_exp(f, cofactor.limbs(), &m))
    }
    with_width_steps!(fx, steps, go(r, cofactor, q))
}

/// Prepared multi-pairing through the fixed backend, or `None` if any
/// step set's width mismatches. Pairs must be pre-filtered live
/// (non-infinity on both sides).
pub(crate) fn multi_tate_prepared(
    fx: &FixedCtx,
    r: &BigUint,
    cofactor: &BigUint,
    pairs: &[(&FixedSteps, &G1Affine)],
) -> Option<Fp2> {
    fn go<const N: usize>(
        f: &MontCtx<N>,
        step_refs: &[&[fmiller::Line<FpW<N>>]],
        pairs: &[(&FixedSteps, &G1Affine)],
        r: &BigUint,
        cofactor: &BigUint,
    ) -> Fp2 {
        let points: Vec<fcurve::Affine<FpW<N>>> =
            pairs.iter().map(|(_, q)| point_to_fixed(q)).collect();
        let live: Vec<fmiller::PreparedPairRef<'_, FpW<N>>> = step_refs
            .iter()
            .zip(points.iter())
            .map(|(s, q)| {
                let (qx, qy) = q.as_ref().expect("pre-filtered non-infinity Q");
                (*s, (qx, qy))
            })
            .collect();
        let m = fmiller::multi_miller_prepared(f, r.limbs(), &live);
        if ext2::is_zero(f, &m) {
            return fp2_from_fixed(&ext2::one(f));
        }
        fp2_from_fixed(&fmiller::final_exp(f, cofactor.limbs(), &m))
    }
    // Each arm unwraps the width-matched step variant; a mismatched
    // variant (prepared under different parameters) aborts to `None`.
    macro_rules! arm {
        ($f:ident, $variant:ident) => {{
            let mut refs = Vec::with_capacity(pairs.len());
            for (steps, _) in pairs {
                let FixedSteps::$variant(s) = steps else {
                    return None;
                };
                refs.push(s.as_slice());
            }
            Some(go($f, &refs, pairs, r, cofactor))
        }};
    }
    match fx {
        FixedCtx::W1(f) => arm!(f, W1),
        FixedCtx::W2(f) => arm!(f, W2),
        FixedCtx::W3(f) => arm!(f, W3),
        FixedCtx::W4(f) => arm!(f, W4),
        FixedCtx::W5(f) => arm!(f, W5),
        FixedCtx::W6(f) => arm!(f, W6),
        FixedCtx::W7(f) => arm!(f, W7),
        FixedCtx::W8(f) => arm!(f, W8),
    }
}
