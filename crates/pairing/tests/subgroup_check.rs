//! Differential property test of the subgroup-membership check.
//!
//! `is_in_group` decides `[r]P = O` with an inversion-free NAF
//! predicate that never computes `[r]P`. Here it must agree with the
//! plain definition, `mul(r, P).is_infinity()`, on both backends and
//! three parameter sets, for points inside the subgroup, curve points
//! before cofactor clearing, the 2-torsion point `(0, 0)`, small-order
//! torsion and infinity. Point decoding, which runs the same check,
//! must refuse exactly the points outside the subgroup.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bigint::BigUint;
use sempair_pairing::{CurveParams, DecodeError, G1Affine};
use std::sync::OnceLock;

/// The fixed-backend and bigint-backend copies of one parameter set.
struct Pair {
    fast: CurveParams,
    slow: CurveParams,
}

fn pair(fast: CurveParams) -> Pair {
    let mut slow = fast.clone();
    slow.force_bigint_backend();
    assert!(fast.fp().has_fixed_backend() && !slow.fp().has_fixed_backend());
    Pair { fast, slow }
}

fn fast_insecure() -> &'static Pair {
    static P: OnceLock<Pair> = OnceLock::new();
    P.get_or_init(|| pair(CurveParams::fast_insecure()))
}

fn paper_default() -> &'static Pair {
    static P: OnceLock<Pair> = OnceLock::new();
    P.get_or_init(|| pair(CurveParams::paper_default()))
}

/// A small generated set: 60-bit `p` and 20-bit `r`, one limb wide.
fn generated() -> &'static Pair {
    static P: OnceLock<Pair> = OnceLock::new();
    P.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5b);
        pair(CurveParams::generate(&mut rng, 60, 20).expect("small parameter set"))
    })
}

/// The first curve point at or above `x`, as lifted (no cofactor
/// clearing); `negate` picks the other root.
fn lifted(prm: &CurveParams, x: u64, negate: bool) -> G1Affine {
    let mut x = BigUint::from(x);
    loop {
        if let Some((a, b)) = prm.lift_x(&x) {
            return if negate { b } else { a };
        }
        x = &x + &BigUint::one();
    }
}

/// The inputs for one case: a subgroup point, a lifted point, the
/// small-order torsion `[r]·lifted`, that torsion added to the subgroup
/// point, `(0, 0)` and infinity.
fn inputs(prm: &CurveParams, k: u64, x: u64, negate: bool) -> Vec<(&'static str, G1Affine)> {
    let inside = prm.mul_generator(&BigUint::from(k));
    let lift = lifted(prm, x, negate);
    let torsion = prm.mul(prm.order(), &lift);
    let mixed = prm.add(&inside, &torsion);
    let two_torsion = prm
        .lift_x(&BigUint::zero())
        .expect("x = 0 is on the curve")
        .0;
    vec![
        ("subgroup", inside),
        ("lifted", lift),
        ("torsion", torsion),
        ("subgroup+torsion", mixed),
        ("(0, 0)", two_torsion),
        ("infinity", G1Affine::infinity()),
    ]
}

fn check(pair: &Pair, k: u64, x: u64, negate: bool) -> Result<(), TestCaseError> {
    for prm in [&pair.fast, &pair.slow] {
        for (what, point) in inputs(prm, k, x, negate) {
            let expect = prm.mul(prm.order(), &point).is_infinity();
            prop_assert_eq!(prm.is_in_group(&point), expect, "{}: {:?}", what, point);
            let decoded = prm.point_from_bytes(&prm.point_to_bytes(&point));
            if expect {
                prop_assert_eq!(decoded, Ok(point));
            } else {
                prop_assert_eq!(decoded, Err(DecodeError::NotInSubgroup), "{}", what);
            }
        }
        // Verdicts known without computing [r]P: r is an odd prime.
        let two_torsion = prm.lift_x(&BigUint::zero()).expect("on curve").0;
        prop_assert!(!prm.is_in_group(&two_torsion));
        prop_assert!(prm.is_in_group(prm.generator()));
        prop_assert!(prm.is_in_group(&G1Affine::infinity()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn membership_matches_mul_r_on_generated_params(
        k in 1u64..u64::MAX, x in any::<u64>(), negate in any::<bool>(),
    ) {
        check(generated(), k, x, negate)?;
    }

    #[test]
    fn membership_matches_mul_r_on_fast_params(
        k in 1u64..u64::MAX, x in any::<u64>(), negate in any::<bool>(),
    ) {
        check(fast_insecure(), k, x, negate)?;
    }
}

proptest! {
    // Each 512-bit case computes [r]P on the bigint path several times.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn membership_matches_mul_r_on_paper_params(
        k in 1u64..u64::MAX, x in any::<u64>(), negate in any::<bool>(),
    ) {
        check(paper_default(), k, x, negate)?;
    }
}
