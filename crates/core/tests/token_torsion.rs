//! Differential property test of the wire token path without the
//! subgroup check.
//!
//! `Sem::decrypt_token_encoded` decodes `U` onto the curve but does not
//! test `[r]U = O` when `r ∤ h` (`h = (p+1)/r`). The token is the
//! reduced Tate pairing `t_r(d_sem, φ(U))`, which depends on `U` only
//! modulo `rE`, and every h-torsion point lies in `rE` when `r ∤ h`.
//! So for `U ∈ G1` and any h-torsion `T`, the token of `U + T` must be
//! byte-identical to the checked `decrypt_token(U)`: on both backends,
//! three parameter sets, with the prepared-half-key cache on and off.
//! Pure torsion, `(0, 0)` included, must give 1. A set with `r | h`
//! must keep refusing points outside `G1`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_bigint::BigUint;
use sempair_core::bf_ibe::Pkg;
use sempair_core::cache::SharedLru;
use sempair_core::mediated::{DecryptToken, Sem};
use sempair_core::Error;
use sempair_pairing::{CurveParams, CurveParamsSpec, DecodeError, G1Affine, PreparedG1};
use std::sync::{Arc, OnceLock};

/// One SEM deployment: its PKG, the SEM holding `alice`'s half-key,
/// and a prepared-half-key cache of its own.
struct Backend {
    pkg: Pkg,
    sem: Sem,
    cache: SharedLru<String, Arc<PreparedG1>>,
}

impl Backend {
    /// The same keys on every backend: the PKG and the split draw from
    /// one seeded generator.
    fn new(curve: CurveParams) -> Self {
        let mut rng = StdRng::seed_from_u64(0x70c);
        let pkg = Pkg::setup(&mut rng, curve);
        let (_, sem_key) = pkg.extract_split(&mut rng, "alice");
        let mut sem = Sem::new();
        sem.install(sem_key);
        Backend {
            pkg,
            sem,
            cache: SharedLru::new(4),
        }
    }

    fn curve(&self) -> &CurveParams {
        self.pkg.params().curve()
    }

    /// The encoded-path token for `u`, through the cache or not.
    fn encoded(&self, u: &G1Affine, cached: bool) -> Result<DecryptToken, Error> {
        let bytes = self.curve().point_to_bytes(u);
        let cache = cached.then_some(&self.cache);
        self.sem
            .decrypt_token_encoded(self.pkg.params(), "alice", &bytes, cache)
    }
}

/// One parameter set: the fixed-width and bigint backends, and its
/// small h-torsion points.
struct Set {
    fast: Backend,
    slow: Backend,
    /// One point of each prime-power order below 1,000 dividing `h`.
    small: Vec<(u64, G1Affine)>,
}

fn set(curve: CurveParams) -> Set {
    assert!(curve.pairing_ignores_torsion(), "r must not divide h");
    let small = small_torsion(&curve);
    let mut slow = curve.clone();
    slow.force_bigint_backend();
    assert!(curve.fp().has_fixed_backend() && !slow.fp().has_fixed_backend());
    Set {
        fast: Backend::new(curve),
        slow: Backend::new(slow),
        small,
    }
}

fn fast_insecure() -> &'static Set {
    static S: OnceLock<Set> = OnceLock::new();
    S.get_or_init(|| set(CurveParams::fast_insecure()))
}

fn paper_default() -> &'static Set {
    static S: OnceLock<Set> = OnceLock::new();
    S.get_or_init(|| set(CurveParams::paper_default()))
}

/// A small generated set: 60-bit `p` and 20-bit `r`, one limb wide.
fn generated() -> &'static Set {
    static S: OnceLock<Set> = OnceLock::new();
    S.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5b);
        set(CurveParams::generate(&mut rng, 60, 20).expect("small parameter set"))
    })
}

/// The first curve point at or above `x`, as lifted (no cofactor
/// clearing).
fn lifted(prm: &CurveParams, x: u64) -> G1Affine {
    let mut x = BigUint::from(x);
    loop {
        if let Some((a, _)) = prm.lift_x(&x) {
            return a;
        }
        x = &x + &BigUint::one();
    }
}

/// A point of exact order `q^e` for every prime power `q^e < 1000`
/// dividing `h`. `E(F_p)` is cyclic of order `p + 1` (its only
/// 2-torsion point is `(0, 0)`), so each exists.
fn small_torsion(prm: &CurveParams) -> Vec<(u64, G1Affine)> {
    let group = prm.modulus() + &BigUint::one();
    let h = prm.cofactor();
    let mut out = Vec::new();
    for q in (2u64..1000).filter(|q| (2..*q).all(|d| q % d != 0)) {
        let mut d = q;
        while d < 1000 && (h % &BigUint::from(d)).is_zero() {
            let (to_d, _) = group.div_rem(&BigUint::from(d));
            let point = (1u64..)
                .map(|x| prm.mul(&to_d, &lifted(prm, x)))
                .find(|t| !prm.mul(&BigUint::from(d / q), t).is_infinity())
                .expect("a cyclic group has a point of every order dividing it");
            out.push((d, point));
            d *= q;
        }
    }
    out
}

/// `U = k·P`, and the torsion points added to it: the sum of the small
/// points `mask` selects, each small point alone, and `[r]L` for a
/// lifted `L` (any h-torsion, the large factors of `h` included).
fn torsion(prm: &CurveParams, small: &[(u64, G1Affine)], mask: u32, x: u64) -> Vec<G1Affine> {
    let mut sum = G1Affine::infinity();
    for (i, (_, t)) in small.iter().enumerate() {
        if mask >> (i % 32) & 1 == 1 {
            sum = prm.add(&sum, t);
        }
    }
    let mut out = vec![sum, prm.mul(prm.order(), &lifted(prm, x))];
    out.extend(small.iter().map(|(_, t)| t.clone()));
    out
}

fn check(set: &Set, k: u64, mask: u32, x: u64) -> Result<(), TestCaseError> {
    let u = set.fast.curve().mul_generator(&BigUint::from(k));
    let expect = set
        .fast
        .sem
        .decrypt_token(set.fast.pkg.params(), "alice", &u)
        .expect("U is in G1");
    for backend in [&set.fast, &set.slow] {
        let prm = backend.curve();
        for t in torsion(prm, &set.small, mask, x) {
            let shifted = prm.add(&u, &t);
            for cached in [false, true] {
                prop_assert_eq!(
                    backend.encoded(&shifted, cached),
                    Ok(expect.clone()),
                    "cached {} T {:?}",
                    cached,
                    t
                );
            }
        }
    }
    Ok(())
}

/// Pure torsion, `(0, 0)` and infinity pair to 1 on every path.
fn check_pure_torsion(set: &Set) {
    for backend in [&set.fast, &set.slow] {
        let prm = backend.curve();
        let one = prm.gt_one();
        let zero = prm
            .lift_x(&BigUint::zero())
            .expect("x = 0 is on the curve")
            .0;
        let mut points = vec![zero, G1Affine::infinity()];
        points.extend(torsion(prm, &set.small, u32::MAX, 3));
        for t in points {
            for cached in [false, true] {
                assert_eq!(
                    backend.encoded(&t, cached),
                    Ok(DecryptToken(one.clone())),
                    "{t:?}"
                );
            }
        }
    }
}

#[test]
fn paper_cofactor_torsion_is_two_squared_three_and_131() {
    let orders: Vec<u64> = paper_default().small.iter().map(|(d, _)| *d).collect();
    assert_eq!(orders, [2, 4, 3, 131]);
}

#[test]
fn pure_torsion_token_is_one() {
    check_pure_torsion(generated());
    check_pure_torsion(fast_insecure());
    check_pure_torsion(paper_default());
}

/// `p = 71`, `r = 3`, `h = 24`: `r | h`, so `E(F_p)` (cyclic of order
/// 72) has points of order 9, whose torsion the pairing does see. The
/// token decoder must keep the full check here.
#[test]
fn r_dividing_h_keeps_the_check() {
    let f = |v: u64| BigUint::from(v);
    let on_curve = |&(x, y): &(u64, u64)| (y * y) % 71 == (x * x * x + x) % 71;
    // The first curve point that `from_spec` accepts has order 3.
    let curve = (0u64..71)
        .flat_map(|x| (0u64..71).map(move |y| (x, y)))
        .filter(on_curve)
        .find_map(|(gx, gy)| {
            let spec = CurveParamsSpec {
                p: f(71),
                r: f(3),
                gx: f(gx),
                gy: f(gy),
            };
            CurveParams::from_spec(&spec, &mut StdRng::seed_from_u64(1)).ok()
        })
        .expect("E(F_71) has points of order 3");
    assert!(!curve.pairing_ignores_torsion());
    let mut points: Vec<G1Affine> = (0u64..71)
        .filter_map(|x| curve.lift_x(&f(x)))
        .flat_map(|(a, b)| [a, b])
        .collect();
    points.dedup(); // (0, 0) lifts to itself twice
    assert_eq!(points.len() + 1, 72, "every affine point, plus infinity");
    let mut refused = 0;
    for point in &points {
        let decoded = curve.point_from_bytes_for_pairing(&curve.point_to_bytes(point));
        if curve.is_in_group(point) {
            assert_eq!(decoded, Ok(point.clone()));
        } else {
            assert_eq!(decoded, Err(DecodeError::NotInSubgroup), "{point:?}");
            refused += 1;
        }
    }
    assert_eq!(refused, 72 - 3);
    // Through the SEM: `(0, 0)` is refused, not paired.
    let toy = Backend::new(curve);
    let zero = toy.curve().lift_x(&f(0)).expect("on curve").0;
    for cached in [false, true] {
        assert_eq!(toy.encoded(&zero, cached), Err(Error::InvalidCiphertext));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shifted_token_matches_checked_on_generated_params(
        k in 1u64..u64::MAX, mask in any::<u32>(), x in any::<u64>(),
    ) {
        check(generated(), k, mask, x)?;
    }

    #[test]
    fn shifted_token_matches_checked_on_fast_params(
        k in 1u64..u64::MAX, mask in any::<u32>(), x in any::<u64>(),
    ) {
        check(fast_insecure(), k, mask, x)?;
    }
}

proptest! {
    // Each 512-bit case pairs a dozen times on the bigint path.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn shifted_token_matches_checked_on_paper_params(
        k in 1u64..u64::MAX, mask in any::<u32>(), x in any::<u64>(),
    ) {
        check(paper_default(), k, mask, x)?;
    }
}
