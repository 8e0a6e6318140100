//! Group arithmetic on the supersingular curve `E : y² = x³ + x`.
//!
//! Affine points are the public representation; scalar multiplication
//! runs internally on Jacobian coordinates to avoid per-step inversions.
//!
//! The formulas themselves live in `sempair-field`'s generic kernels
//! ([`sempair_field::curve`]); this module wraps them around the public
//! point type and, for moduli that fit the fixed-width backend, routes
//! scalar multiplications through [`crate::fixed`].

use crate::fixed;
use crate::fp::{Fp, FpCtx};
use sempair_bigint::BigUint;
use sempair_field::curve as fcurve;

/// A point on `E(F_p)`, affine or the point at infinity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct G1Affine(Option<(Fp, Fp)>);

impl G1Affine {
    /// The point at infinity (group identity).
    pub fn infinity() -> Self {
        G1Affine(None)
    }

    /// Builds a point from affine coordinates without checking the curve
    /// equation (crate-internal; public constructors validate).
    pub(crate) fn from_xy_unchecked(x: Fp, y: Fp) -> Self {
        G1Affine(Some((x, y)))
    }

    /// `true` iff this is the identity.
    pub fn is_infinity(&self) -> bool {
        self.0.is_none()
    }

    /// The affine coordinates, or `None` for infinity.
    pub fn coordinates(&self) -> Option<(&Fp, &Fp)> {
        self.0.as_ref().map(|(x, y)| (x, y))
    }

    /// Constant-time equality on the coordinate limbs.
    ///
    /// The derived `PartialEq` short-circuits; this variant compares
    /// both coordinates with [`Fp::ct_eq`] and combines the results
    /// without data-dependent branching on the coordinate values.
    /// Whether each side is the point at infinity is still visible —
    /// that is structural, not secret, for every protocol in this
    /// workspace (half-keys are never the identity).
    pub fn ct_eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some((ax, ay)), Some((bx, by))) => {
                // Bitwise AND (not `&&`) so both coordinate compares
                // always run.
                ax.ct_eq(bx) & ay.ct_eq(by)
            }
            _ => false,
        }
    }

    /// Securely erases the coordinates (volatile limb zeroing), then
    /// leaves the point at infinity so no stale curve point remains.
    pub fn zeroize(&mut self) {
        if let Some((x, y)) = self.0.as_mut() {
            x.zeroize();
            y.zeroize();
        }
        self.0 = None;
    }
}

/// `true` iff `(x, y)` satisfies `y² = x³ + x`.
pub(crate) fn is_on_curve(f: &FpCtx, x: &Fp, y: &Fp) -> bool {
    fcurve::is_on_curve(f, x, y)
}

/// `-P`.
pub(crate) fn neg(f: &FpCtx, p: &G1Affine) -> G1Affine {
    G1Affine(fcurve::affine_neg(f, p.coordinates()))
}

/// Affine point addition (handles all cases).
pub(crate) fn add(f: &FpCtx, p: &G1Affine, q: &G1Affine) -> G1Affine {
    G1Affine(fcurve::affine_add(f, p.coordinates(), q.coordinates()))
}

/// Internal Jacobian representation: `(X, Y, Z)` with `x = X/Z²`,
/// `y = Y/Z³`; infinity encoded as `Z = 0`. A thin wrapper over the
/// generic kernel point, kept so callers inside the crate keep their
/// method-call style.
#[derive(Clone, Debug)]
pub(crate) struct Jacobian(fcurve::JPoint<Fp>);

impl Jacobian {
    pub(crate) fn infinity(f: &FpCtx) -> Self {
        Jacobian(fcurve::jp_infinity(f))
    }

    pub(crate) fn to_affine(&self, f: &FpCtx) -> G1Affine {
        G1Affine(fcurve::jp_to_affine(f, &self.0))
    }

    /// Mixed addition with an affine point (`Z2 = 1`).
    pub(crate) fn add_affine(&self, f: &FpCtx, q: &G1Affine) -> Jacobian {
        Jacobian(fcurve::jp_add_affine(f, &self.0, q.coordinates()))
    }
}

/// Scalar multiplication `k·P` (4-bit fixed window over Jacobian
/// coordinates). Scalars that fit the fixed-width backend run there;
/// everything else goes through the generic kernel on the bigint
/// context.
pub(crate) fn mul(f: &FpCtx, k: &BigUint, p: &G1Affine) -> G1Affine {
    if k.is_zero() || p.is_infinity() {
        return G1Affine::infinity();
    }
    if let Some(fx) = f.fixed() {
        if fx.fits_scalar(k) {
            return fixed::mul(fx, k, p);
        }
    }
    G1Affine(fcurve::scalar_mul(f, k.limbs(), p.coordinates()))
}

/// `true` iff `k·P = O`, for a public `k` given as its width-5 NAF
/// ([`sempair_field::curve::naf5`]): the inversion-free predicate
/// behind every subgroup-membership check.
pub(crate) fn mul_is_identity(f: &FpCtx, naf: &[i8], p: &G1Affine) -> bool {
    match f.fixed() {
        Some(fx) => fixed::mul_is_identity(fx, naf, p),
        None => fcurve::mul_is_identity(f, naf, p.coordinates()),
    }
}

/// Multi-scalar multiplication `Σ kᵢ·Pᵢ` via Pippenger's bucket method
/// (see [`sempair_field::curve::multi_scalar_mul`] for the cost model).
pub(crate) fn multi_mul(f: &FpCtx, terms: &[(BigUint, G1Affine)]) -> G1Affine {
    if let Some(fx) = f.fixed() {
        if terms.iter().all(|(k, _)| fx.fits_scalar(k)) {
            return fixed::multi_mul(fx, terms);
        }
    }
    let kernel_terms: Vec<(&[u64], fcurve::AffineRef<'_, Fp>)> = terms
        .iter()
        .map(|(k, p)| (k.limbs(), p.coordinates()))
        .collect();
    G1Affine(fcurve::multi_scalar_mul(f, &kernel_terms))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-checkable curve: p = 11 (≡ 3 mod 4), E: y² = x³ + x
    /// over F_11 has 12 = p + 1 points.
    fn f11() -> FpCtx {
        FpCtx::new(&BigUint::from(11u64)).unwrap()
    }

    fn pt(f: &FpCtx, x: u64, y: u64) -> G1Affine {
        let p = G1Affine::from_xy_unchecked(f.from_u64(x), f.from_u64(y));
        let (px, py) = p.coordinates().unwrap();
        assert!(is_on_curve(f, px, py), "({x},{y}) not on curve");
        p
    }

    /// Enumerates all affine points of E(F_11) by brute force.
    fn all_points(f: &FpCtx) -> Vec<G1Affine> {
        let mut pts = vec![G1Affine::infinity()];
        for x in 0..11u64 {
            for y in 0..11u64 {
                let xe = f.from_u64(x);
                let ye = f.from_u64(y);
                if is_on_curve(f, &xe, &ye) {
                    pts.push(G1Affine::from_xy_unchecked(xe, ye));
                }
            }
        }
        pts
    }

    #[test]
    fn group_order_is_p_plus_1() {
        let f = f11();
        assert_eq!(all_points(&f).len(), 12);
    }

    #[test]
    fn ct_eq_matches_derived_eq_on_all_pairs() {
        let f = f11();
        let pts = all_points(&f);
        for a in &pts {
            for b in &pts {
                assert_eq!(a.ct_eq(b), a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn zeroize_leaves_infinity() {
        let f = f11();
        let mut p = pt(&f, 5, 8);
        assert!(!p.is_infinity());
        p.zeroize();
        assert!(p.is_infinity());
        assert!(p.coordinates().is_none());
    }

    #[test]
    fn every_point_killed_by_group_order() {
        let f = f11();
        let order = BigUint::from(12u64);
        for p in all_points(&f) {
            assert!(mul(&f, &order, &p).is_infinity(), "{p:?}");
        }
    }

    #[test]
    fn addition_matches_repeated_add() {
        let f = f11();
        for p in all_points(&f) {
            let mut acc = G1Affine::infinity();
            for k in 1u64..=12 {
                acc = add(&f, &acc, &p);
                assert_eq!(mul(&f, &BigUint::from(k), &p), acc, "k={k} p={p:?}");
            }
        }
    }

    #[test]
    fn add_commutes_and_associates() {
        let f = f11();
        let pts = all_points(&f);
        for a in &pts {
            for b in &pts {
                assert_eq!(add(&f, a, b), add(&f, b, a));
            }
        }
        // Associativity spot-check on a few triples.
        for a in pts.iter().step_by(3) {
            for b in pts.iter().step_by(4) {
                for c in pts.iter().step_by(5) {
                    assert_eq!(add(&f, &add(&f, a, b), c), add(&f, a, &add(&f, b, c)));
                }
            }
        }
    }

    #[test]
    fn negation_and_identity() {
        let f = f11();
        for p in all_points(&f) {
            assert!(add(&f, &p, &neg(&f, &p)).is_infinity());
            assert_eq!(add(&f, &p, &G1Affine::infinity()), p);
        }
    }

    #[test]
    fn two_torsion_point_doubles_to_infinity() {
        let f = f11();
        // (0, 0) is on the curve and has order 2.
        let t = pt(&f, 0, 0);
        assert!(add(&f, &t, &t).is_infinity());
        assert!(mul(&f, &BigUint::two(), &t).is_infinity());
        assert_eq!(mul(&f, &BigUint::from(3u64), &t), t);
    }

    #[test]
    fn jacobian_affine_agree_on_larger_field() {
        // 2^89 - 1 is a Mersenne prime ≡ 3 (mod 4).
        let p = &(BigUint::one() << 89) - &BigUint::one();
        let f = FpCtx::new(&p).unwrap();
        // Find a point by scanning x.
        let mut x = BigUint::one();
        let point = loop {
            let xe = f.from_uint(&x);
            let rhs = f.add(&f.mul(&f.sqr(&xe), &xe), &xe);
            if let Some(y) = f.sqrt(&rhs) {
                break G1Affine::from_xy_unchecked(xe, y);
            }
            x = &x + &BigUint::one();
        };
        // k(P) via affine chain vs windowed Jacobian.
        let k = BigUint::from(0x123456789abcdefu64);
        let mut affine_acc = G1Affine::infinity();
        // Double-and-add in affine.
        for i in (0..k.bits()).rev() {
            affine_acc = add(&f, &affine_acc, &affine_acc.clone());
            if k.bit(i) {
                affine_acc = add(&f, &affine_acc, &point);
            }
        }
        assert_eq!(mul(&f, &k, &point), affine_acc);
    }

    #[test]
    fn jacobian_add_matches_affine_exhaustively() {
        let f = f11();
        let pts = all_points(&f);
        for a in &pts {
            for b in &pts {
                let ja = Jacobian::infinity(&f).add_affine(&f, a);
                let jb = Jacobian::infinity(&f).add_affine(&f, b);
                let sum = Jacobian(fcurve::jp_add(&f, &ja.0, &jb.0));
                assert_eq!(sum.to_affine(&f), add(&f, a, b));
            }
        }
    }

    #[test]
    fn multi_mul_matches_term_by_term() {
        let f = f11();
        let pts = all_points(&f);
        // All digit patterns over the tiny group, many term counts.
        for n in 0..8usize {
            let terms: Vec<(BigUint, G1Affine)> = (0..n)
                .map(|i| {
                    (
                        BigUint::from((3 * i + 1) as u64),
                        pts[(i * 5 + 1) % pts.len()].clone(),
                    )
                })
                .collect();
            let mut expect = G1Affine::infinity();
            for (k, p) in &terms {
                expect = add(&f, &expect, &mul(&f, k, p));
            }
            assert_eq!(multi_mul(&f, &terms), expect, "n={n}");
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let f = f11();
        let pts = all_points(&f);
        let p = &pts[3];
        for a in 0u64..13 {
            for b in 0u64..13 {
                let lhs = mul(&f, &BigUint::from(a + b), p);
                let rhs = add(
                    &f,
                    &mul(&f, &BigUint::from(a), p),
                    &mul(&f, &BigUint::from(b), p),
                );
                assert_eq!(lhs, rhs, "a={a} b={b}");
            }
        }
    }
}
