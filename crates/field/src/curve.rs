//! Generic group-arithmetic kernels for `E : y² = x³ + x`.
//!
//! These are the *same* formulas the pairing crate has always used
//! (Jacobian double/add with the `a = 1` curve coefficient, 4-bit
//! windowed scalar multiplication, Pippenger buckets, and the
//! inversion-free width-5 NAF test behind subgroup membership) — written once
//! against [`FieldOps`] so the bigint reference backend and the
//! fixed-width backend execute identical arithmetic and agree
//! limb-for-limb.
//!
//! Points use a backend-neutral representation: affine points are
//! `Option<(x, y)>` (`None` = infinity), Jacobian points are
//! [`JPoint`] with infinity encoded as `Z = 0`.

use crate::limb::{bit, bit_len};
use crate::traits::FieldOps;

/// An affine point, `None` for the point at infinity.
pub type Affine<E> = Option<(E, E)>;

/// Borrowed view of an affine point.
pub type AffineRef<'a, E> = Option<(&'a E, &'a E)>;

/// A Jacobian point `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`; infinity
/// encoded as `Z = 0`.
#[derive(Clone, Debug)]
pub struct JPoint<E> {
    /// X coordinate.
    pub x: E,
    /// Y coordinate.
    pub y: E,
    /// Z coordinate (zero at infinity).
    pub z: E,
}

/// The Jacobian identity.
pub fn jp_infinity<F: FieldOps>(f: &F) -> JPoint<F::Elem> {
    JPoint {
        x: f.one(),
        y: f.one(),
        z: f.zero(),
    }
}

/// `true` iff the point is the identity.
pub fn jp_is_infinity<F: FieldOps>(f: &F, p: &JPoint<F::Elem>) -> bool {
    f.is_zero(&p.z)
}

/// Converts to affine (one inversion).
pub fn jp_to_affine<F: FieldOps>(f: &F, p: &JPoint<F::Elem>) -> Affine<F::Elem> {
    if jp_is_infinity(f, p) {
        return None;
    }
    let z_inv = f.inv(&p.z).expect("nonzero z");
    let z_inv2 = f.sqr(&z_inv);
    let z_inv3 = f.mul(&z_inv2, &z_inv);
    Some((f.mul(&p.x, &z_inv2), f.mul(&p.y, &z_inv3)))
}

/// Lifts an affine point into Jacobian coordinates (`Z = 1`).
pub fn jp_from_affine<F: FieldOps>(f: &F, p: AffineRef<'_, F::Elem>) -> JPoint<F::Elem> {
    match p {
        None => jp_infinity(f),
        Some((x, y)) => JPoint {
            x: x.clone(),
            y: y.clone(),
            z: f.one(),
        },
    }
}

/// Jacobian doubling (`a = 1` curve coefficient: `M = 3X² + Z⁴`).
pub fn jp_double<F: FieldOps>(f: &F, p: &JPoint<F::Elem>) -> JPoint<F::Elem> {
    if jp_is_infinity(f, p) || f.is_zero(&p.y) {
        return jp_infinity(f);
    }
    let y2 = f.sqr(&p.y);
    let s = f.double(&f.double(&f.mul(&p.x, &y2))); // 4XY²
    let x2 = f.sqr(&p.x);
    let z2 = f.sqr(&p.z);
    let m = f.add(&f.add(&f.double(&x2), &x2), &f.sqr(&z2));
    let x3 = f.sub(&f.sqr(&m), &f.double(&s));
    let y4_8 = f.double(&f.double(&f.double(&f.sqr(&y2)))); // 8Y⁴
    let y3 = f.sub(&f.mul(&m, &f.sub(&s, &x3)), &y4_8);
    let z3 = f.double(&f.mul(&p.y, &p.z));
    JPoint {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Full Jacobian–Jacobian addition (handles all cases).
pub fn jp_add<F: FieldOps>(f: &F, p: &JPoint<F::Elem>, q: &JPoint<F::Elem>) -> JPoint<F::Elem> {
    if jp_is_infinity(f, p) {
        return q.clone();
    }
    if jp_is_infinity(f, q) {
        return p.clone();
    }
    let z1z1 = f.sqr(&p.z);
    let z2z2 = f.sqr(&q.z);
    let u1 = f.mul(&p.x, &z2z2);
    let u2 = f.mul(&q.x, &z1z1);
    let s1 = f.mul(&p.y, &f.mul(&z2z2, &q.z));
    let s2 = f.mul(&q.y, &f.mul(&z1z1, &p.z));
    if f.equals(&u1, &u2) {
        if f.equals(&s1, &s2) {
            return jp_double(f, p);
        }
        return jp_infinity(f);
    }
    let h = f.sub(&u2, &u1);
    let hh = f.sqr(&h);
    let hhh = f.mul(&hh, &h);
    let r = f.sub(&s2, &s1);
    let v = f.mul(&u1, &hh);
    let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.double(&v));
    let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&s1, &hhh));
    let z3 = f.mul(&h, &f.mul(&p.z, &q.z));
    JPoint {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Mixed addition with an affine point (`Z2 = 1`).
pub fn jp_add_affine<F: FieldOps>(
    f: &F,
    p: &JPoint<F::Elem>,
    q: AffineRef<'_, F::Elem>,
) -> JPoint<F::Elem> {
    let Some((qx, qy)) = q else {
        return p.clone();
    };
    if jp_is_infinity(f, p) {
        return JPoint {
            x: qx.clone(),
            y: qy.clone(),
            z: f.one(),
        };
    }
    let z1z1 = f.sqr(&p.z);
    let u2 = f.mul(qx, &z1z1);
    let s2 = f.mul(qy, &f.mul(&z1z1, &p.z));
    if f.equals(&u2, &p.x) {
        if f.equals(&s2, &p.y) {
            return jp_double(f, p);
        }
        return jp_infinity(f);
    }
    let h = f.sub(&u2, &p.x);
    let hh = f.sqr(&h);
    let hhh = f.mul(&hh, &h);
    let r = f.sub(&s2, &p.y);
    let v = f.mul(&p.x, &hh);
    let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.double(&v));
    let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&p.y, &hhh));
    let z3 = f.mul(&p.z, &h);
    JPoint {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// `-P` in affine coordinates.
pub fn affine_neg<F: FieldOps>(f: &F, p: AffineRef<'_, F::Elem>) -> Affine<F::Elem> {
    p.map(|(x, y)| (x.clone(), f.neg(y)))
}

/// Affine point addition (handles all cases; one inversion).
pub fn affine_add<F: FieldOps>(
    f: &F,
    p: AffineRef<'_, F::Elem>,
    q: AffineRef<'_, F::Elem>,
) -> Affine<F::Elem> {
    let Some((px, py)) = p else {
        return q.map(|(x, y)| (x.clone(), y.clone()));
    };
    let Some((qx, qy)) = q else {
        return Some((px.clone(), py.clone()));
    };
    let lambda = if f.equals(px, qx) {
        if !f.equals(py, qy) || f.is_zero(py) {
            // P = -Q (or a 2-torsion doubling): result is infinity.
            return None;
        }
        // Tangent: (3x² + 1) / 2y   (curve coefficient a = 1).
        let num = f.add(&f.add(&f.double(&f.sqr(px)), &f.sqr(px)), &f.one());
        let den = f.double(py);
        f.mul(&num, &f.inv(&den).expect("2y != 0"))
    } else {
        let num = f.sub(qy, py);
        let den = f.sub(qx, px);
        f.mul(&num, &f.inv(&den).expect("qx != px"))
    };
    let x3 = f.sub(&f.sub(&f.sqr(&lambda), px), qx);
    let y3 = f.sub(&f.mul(&lambda, &f.sub(px, &x3)), py);
    Some((x3, y3))
}

/// `true` iff `(x, y)` satisfies `y² = x³ + x`.
pub fn is_on_curve<F: FieldOps>(f: &F, x: &F::Elem, y: &F::Elem) -> bool {
    let lhs = f.sqr(y);
    let rhs = f.add(&f.mul(&f.sqr(x), x), x);
    f.equals(&lhs, &rhs)
}

/// Scalar multiplication `k·P` with a 4-bit fixed window over Jacobian
/// coordinates; `k` is a little-endian limb scalar.
pub fn scalar_mul<F: FieldOps>(f: &F, k: &[u64], p: AffineRef<'_, F::Elem>) -> Affine<F::Elem> {
    let bits = bit_len(k);
    if bits == 0 || p.is_none() {
        return None;
    }
    // Precompute 1P..15P in affine (cheap additions, amortized).
    let mut table: Vec<Affine<F::Elem>> = Vec::with_capacity(16);
    table.push(None);
    table.push(p.map(|(x, y)| (x.clone(), y.clone())));
    for i in 2..16 {
        let prev = table[i - 1].as_ref().map(|(x, y)| (x, y));
        table.push(affine_add(f, prev, p));
    }
    let top_window = bits.div_ceil(4) * 4;
    let mut acc = jp_infinity(f);
    let mut w = top_window;
    while w >= 4 {
        w -= 4;
        acc = jp_double(f, &acc);
        acc = jp_double(f, &acc);
        acc = jp_double(f, &acc);
        acc = jp_double(f, &acc);
        let mut digit = 0usize;
        for b in 0..4 {
            if bit(k, w + b) {
                digit |= 1 << b;
            }
        }
        if digit != 0 {
            let entry = table[digit].as_ref().map(|(x, y)| (x, y));
            acc = jp_add_affine(f, &acc, entry);
        }
    }
    jp_to_affine(f, &acc)
}

/// Width-5 non-adjacent form of a public scalar, least significant
/// digit first: every nonzero digit is odd with `|d| < 16`, and any
/// two nonzero digits sit at least five positions apart, so a 160-bit
/// scalar has about 27 of them. Empty for `k = 0`.
pub fn naf5(k: &[u64]) -> Vec<i8> {
    // One spare limb absorbs the carry when a negative digit rounds
    // the remaining scalar up.
    let mut k: Vec<u64> = k.iter().copied().chain([0]).collect();
    let mut digits = Vec::with_capacity(64 * k.len());
    while k.iter().any(|&l| l != 0) {
        let mut d = 0i8;
        if k[0] & 1 == 1 {
            d = (k[0] & 31) as i8;
            if d >= 16 {
                d -= 32;
            }
            if d > 0 {
                // The low five bits are d, so no borrow leaves limb 0.
                k[0] -= d as u64;
            } else {
                let mut carry = u64::from(d.unsigned_abs());
                for limb in k.iter_mut() {
                    let (sum, overflow) = limb.overflowing_add(carry);
                    *limb = sum;
                    carry = u64::from(overflow);
                    if carry == 0 {
                        break;
                    }
                }
            }
        }
        digits.push(d);
        for i in 0..k.len() {
            let high = k.get(i + 1).map_or(0, |l| l << 63);
            k[i] = (k[i] >> 1) | high;
        }
    }
    digits
}

/// `true` iff `k·P` is the identity, for a public scalar `k` given as
/// its [`naf5`] digits.
///
/// The membership test `[r]P = O` needs only this bit, so it skips
/// everything [`scalar_mul`] spends on producing a point: the odd
/// multiples `P, 3P, …, 15P` stay in Jacobian coordinates, the result
/// is never converted to affine, and no field inversion runs at all.
/// Variable time in `k`; use it only for public scalars such as the
/// group order.
pub fn mul_is_identity<F: FieldOps>(f: &F, naf: &[i8], p: AffineRef<'_, F::Elem>) -> bool {
    if naf.is_empty() || p.is_none() {
        return true;
    }
    let base = jp_from_affine(f, p);
    let twice = jp_double(f, &base);
    let mut odd = Vec::with_capacity(8);
    odd.push(base);
    for i in 1..8 {
        let next = jp_add(f, &odd[i - 1], &twice);
        odd.push(next);
    }
    let mut acc = jp_infinity(f);
    for &d in naf.iter().rev() {
        acc = jp_double(f, &acc);
        let entry = &odd[usize::from(d.unsigned_abs() / 2)];
        if d > 0 {
            acc = jp_add(f, &acc, entry);
        } else if d < 0 {
            let negated = JPoint {
                x: entry.x.clone(),
                y: f.neg(&entry.y),
                z: entry.z.clone(),
            };
            acc = jp_add(f, &acc, &negated);
        }
    }
    jp_is_infinity(f, &acc)
}

/// Multi-scalar multiplication `Σ kᵢ·Pᵢ` via Pippenger's bucket method
/// (same window schedule as the reference implementation).
pub fn multi_scalar_mul<F: FieldOps>(
    f: &F,
    terms: &[(&[u64], AffineRef<'_, F::Elem>)],
) -> Affine<F::Elem> {
    let live: Vec<&(&[u64], AffineRef<'_, F::Elem>)> = terms
        .iter()
        .filter(|(k, p)| bit_len(k) != 0 && p.is_some())
        .collect();
    if live.is_empty() {
        return None;
    }
    if live.len() == 1 {
        return scalar_mul(f, live[0].0, live[0].1);
    }
    // Window width: the usual n / log n balance point.
    let c = match live.len() {
        0..=3 => 2,
        4..=15 => 3,
        16..=63 => 4,
        64..=255 => 5,
        _ => 6,
    };
    let max_bits = live
        .iter()
        .map(|(k, _)| bit_len(k))
        .max()
        .expect("nonempty");
    let windows = max_bits.div_ceil(c);
    let mut acc = jp_infinity(f);
    let mut buckets: Vec<JPoint<F::Elem>> = vec![jp_infinity(f); (1 << c) - 1];
    for w in (0..windows).rev() {
        for _ in 0..c {
            acc = jp_double(f, &acc);
        }
        for bucket in buckets.iter_mut() {
            *bucket = jp_infinity(f);
        }
        for (k, point) in &live {
            let mut digit = 0usize;
            for b in 0..c {
                if bit(k, w * c + b) {
                    digit |= 1 << b;
                }
            }
            if digit != 0 {
                buckets[digit - 1] = jp_add_affine(f, &buckets[digit - 1], *point);
            }
        }
        // Σ j·Bⱼ: running partial sums from the top bucket down.
        let mut running = jp_infinity(f);
        let mut window_sum = jp_infinity(f);
        for bucket in buckets.iter().rev() {
            running = jp_add(f, &running, bucket);
            window_sum = jp_add(f, &window_sum, &running);
        }
        acc = jp_add(f, &acc, &window_sum);
    }
    jp_to_affine(f, &acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mont::{FpW, MontCtx};

    /// The tiny hand-checkable curve: p = 11, E(F_11) has 12 points.
    const F11: MontCtx<1> = MontCtx::new([11]);

    fn all_points(f: &MontCtx<1>) -> Vec<Affine<FpW<1>>> {
        let mut pts = vec![None];
        for x in 0..11u64 {
            for y in 0..11u64 {
                let xe = f.from_u64(x);
                let ye = f.from_u64(y);
                if is_on_curve(f, &xe, &ye) {
                    pts.push(Some((xe, ye)));
                }
            }
        }
        pts
    }

    fn as_ref<E>(p: &Affine<E>) -> AffineRef<'_, E> {
        p.as_ref().map(|(x, y)| (x, y))
    }

    #[test]
    fn group_order_and_scalar_kill() {
        let pts = all_points(&F11);
        assert_eq!(pts.len(), 12);
        for p in &pts {
            assert!(scalar_mul(&F11, &[12], as_ref(p)).is_none(), "{p:?}");
        }
    }

    #[test]
    fn addition_matches_repeated_add() {
        for p in all_points(&F11) {
            let mut acc: Affine<FpW<1>> = None;
            for k in 1u64..=12 {
                acc = affine_add(&F11, as_ref(&acc), as_ref(&p));
                assert_eq!(scalar_mul(&F11, &[k], as_ref(&p)), acc, "k={k}");
            }
        }
    }

    #[test]
    fn jacobian_add_matches_affine_exhaustively() {
        let pts = all_points(&F11);
        for a in &pts {
            for b in &pts {
                let ja = jp_from_affine(&F11, as_ref(a));
                let jb = jp_from_affine(&F11, as_ref(b));
                assert_eq!(
                    jp_to_affine(&F11, &jp_add(&F11, &ja, &jb)),
                    affine_add(&F11, as_ref(a), as_ref(b))
                );
                assert_eq!(
                    jp_to_affine(&F11, &jp_add_affine(&F11, &ja, as_ref(b))),
                    affine_add(&F11, as_ref(a), as_ref(b))
                );
            }
        }
    }

    #[test]
    fn negation_and_two_torsion() {
        for p in all_points(&F11) {
            let n = affine_neg(&F11, as_ref(&p));
            assert!(affine_add(&F11, as_ref(&p), as_ref(&n)).is_none());
        }
        // (0, 0) has order 2.
        let t = Some((F11.from_u64(0), F11.from_u64(0)));
        assert!(affine_add(&F11, as_ref(&t), as_ref(&t)).is_none());
        assert!(scalar_mul(&F11, &[2], as_ref(&t)).is_none());
        assert_eq!(scalar_mul(&F11, &[3], as_ref(&t)), t);
    }

    #[test]
    fn naf5_digits_recompose_the_scalar() {
        // Below 2^126, so every partial sum fits an i128.
        let scalars: [&[u64]; 6] = [
            &[0],
            &[1],
            &[31],
            &[u64::MAX],
            &[0x0123_4567_89ab_cdef, 0x2fff_ffff_ffff_fff1],
            &[u64::MAX, u64::MAX >> 2],
        ];
        for k in scalars {
            let naf = naf5(k);
            let value: i128 = naf
                .iter()
                .enumerate()
                .map(|(i, &d)| i128::from(d) << i)
                .sum();
            let expect = u128::from(k[0]) | (u128::from(*k.get(1).unwrap_or(&0)) << 64);
            assert_eq!(value as u128, expect, "{k:?}");
            assert!(naf.iter().all(|&d| d == 0 || (d % 2 != 0 && d.abs() < 16)));
            let nonzero: Vec<usize> = (0..naf.len()).filter(|&i| naf[i] != 0).collect();
            assert!(nonzero.windows(2).all(|w| w[1] - w[0] >= 5), "{k:?}");
        }
    }

    #[test]
    fn mul_is_identity_matches_scalar_mul_exhaustively() {
        for p in all_points(&F11) {
            for k in 0u64..=40 {
                assert_eq!(
                    mul_is_identity(&F11, &naf5(&[k]), as_ref(&p)),
                    scalar_mul(&F11, &[k], as_ref(&p)).is_none(),
                    "k={k} p={p:?}"
                );
            }
        }
    }

    #[test]
    fn multi_scalar_matches_term_by_term() {
        let pts = all_points(&F11);
        for n in 0..8usize {
            let scalars: Vec<[u64; 1]> = (0..n).map(|i| [(3 * i + 1) as u64]).collect();
            let points: Vec<Affine<FpW<1>>> =
                (0..n).map(|i| pts[(i * 5 + 1) % pts.len()]).collect();
            let terms: Vec<(&[u64], AffineRef<'_, FpW<1>>)> = scalars
                .iter()
                .zip(points.iter())
                .map(|(k, p)| (k.as_slice(), as_ref(p)))
                .collect();
            let mut expect: Affine<FpW<1>> = None;
            for (k, p) in &terms {
                let kp = scalar_mul(&F11, k, *p);
                expect = affine_add(&F11, as_ref(&expect), as_ref(&kp));
            }
            assert_eq!(multi_scalar_mul(&F11, &terms), expect, "n={n}");
        }
    }
}
