//! The base field `F_p` with a Montgomery-backed context.

use crate::fixed::{self, FixedCtx};
use sempair_bigint::{modular, BigUint, Error as BigintError, MontElem, Montgomery};

/// An element of `F_p`, stored in Montgomery form.
///
/// Elements carry no back-pointer to their field; all operations go
/// through the [`FpCtx`] that created them. Mixing elements from
/// different contexts is a logic error (caught by limb-length
/// `debug_assert!`s in the underlying arithmetic).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Fp(pub(crate) MontElem);

impl Fp {
    /// `true` iff this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Constant-time equality: folds all limb differences into one
    /// accumulator instead of the derived `PartialEq`'s early-exit
    /// compare. Use this whenever either side is secret-derived (key
    /// material, half-signatures, blinding factors).
    pub fn ct_eq(&self, other: &Self) -> bool {
        self.0.ct_eq(&other.0)
    }

    /// Securely erases the element in place (volatile limb zeroing;
    /// the result is the zero element of the same context).
    pub fn zeroize(&mut self) {
        self.0.zeroize();
    }
}

/// Arithmetic context for `F_p` (`p` an odd prime, `p ≡ 3 (mod 4)` for
/// the curves in this crate, although the context itself only requires
/// oddness).
#[derive(Clone, Debug)]
pub struct FpCtx {
    mont: Montgomery,
    /// `(p + 1) / 4`, the square-root exponent for `p ≡ 3 (mod 4)`.
    sqrt_exp: Option<BigUint>,
    /// Fixed-width backend for moduli of ≤ 8 limbs. Montgomery forms
    /// are limb-compatible between the two backends (both use
    /// `R = 2^(64·limbs)`), so elements cross over by limb copy.
    fixed: Option<FixedCtx>,
}

impl FpCtx {
    /// Creates a field context for the odd prime `p`.
    ///
    /// # Errors
    ///
    /// Returns an error if `p` is even or `p <= 1`. Primality is the
    /// caller's responsibility.
    pub fn new(p: &BigUint) -> Result<Self, BigintError> {
        let mont = Montgomery::new(p)?;
        let sqrt_exp = if p.limbs()[0] & 3 == 3 {
            Some(&(p + &BigUint::one()) >> 2)
        } else {
            None
        };
        let fixed = FixedCtx::from_modulus(p);
        Ok(FpCtx {
            mont,
            sqrt_exp,
            fixed,
        })
    }

    /// The fixed-width backend, if the modulus fits one.
    pub(crate) fn fixed(&self) -> Option<&FixedCtx> {
        self.fixed.as_ref()
    }

    /// `true` iff the fixed-width backend is active for this modulus.
    /// Exposed for differential tests and benchmarks.
    #[doc(hidden)]
    pub fn has_fixed_backend(&self) -> bool {
        self.fixed.is_some()
    }

    /// Disables the fixed-width backend so every operation runs on the
    /// variable-width reference path. Test-only hook for differential
    /// checks; not part of the public API contract.
    #[doc(hidden)]
    pub fn force_bigint_backend(&mut self) {
        self.fixed = None;
    }

    /// The field characteristic `p`.
    pub fn modulus(&self) -> &BigUint {
        self.mont.modulus()
    }

    /// Canonical byte length of a serialized field element.
    pub fn byte_len(&self) -> usize {
        self.modulus().bits().div_ceil(8)
    }

    /// The additive identity.
    pub fn zero(&self) -> Fp {
        Fp(self.mont.zero())
    }

    /// The multiplicative identity.
    pub fn one(&self) -> Fp {
        Fp(self.mont.one())
    }

    /// Embeds an integer (reduced mod `p`).
    pub fn from_uint(&self, v: &BigUint) -> Fp {
        Fp(self.mont.to_mont(v))
    }

    /// Embeds a small integer.
    pub fn from_u64(&self, v: u64) -> Fp {
        self.from_uint(&BigUint::from(v))
    }

    /// Canonical integer representative in `[0, p)`.
    pub fn to_uint(&self, a: &Fp) -> BigUint {
        self.mont.from_mont(&a.0)
    }

    /// `a + b`.
    pub fn add(&self, a: &Fp, b: &Fp) -> Fp {
        Fp(self.mont.add(&a.0, &b.0))
    }

    /// `a - b`.
    pub fn sub(&self, a: &Fp, b: &Fp) -> Fp {
        Fp(self.mont.sub(&a.0, &b.0))
    }

    /// `a * b`.
    pub fn mul(&self, a: &Fp, b: &Fp) -> Fp {
        Fp(self.mont.mul(&a.0, &b.0))
    }

    /// `a²`.
    pub fn sqr(&self, a: &Fp) -> Fp {
        Fp(self.mont.sqr(&a.0))
    }

    /// `2a`.
    pub fn double(&self, a: &Fp) -> Fp {
        Fp(self.mont.double(&a.0))
    }

    /// `-a`.
    pub fn neg(&self, a: &Fp) -> Fp {
        Fp(self.mont.neg(&a.0))
    }

    /// `a^e`.
    pub fn pow(&self, a: &Fp, e: &BigUint) -> Fp {
        if let Some(fx) = self.fixed() {
            return fixed::fp_pow(fx, a, e);
        }
        Fp(self.mont.pow(&a.0, e))
    }

    /// `a⁻¹`, or `None` for zero.
    pub fn inv(&self, a: &Fp) -> Option<Fp> {
        if let Some(fx) = self.fixed() {
            return fixed::fp_inv(fx, a);
        }
        self.mont.inv(&a.0).ok().map(Fp)
    }

    /// `true` iff `a` is a quadratic residue (zero counts as a square).
    pub fn is_square(&self, a: &Fp) -> bool {
        let canonical = self.to_uint(a);
        if canonical.is_zero() {
            return true;
        }
        modular::jacobi(&canonical, self.modulus()) == 1
    }

    /// A square root of `a`, if one exists.
    ///
    /// For `p ≡ 3 (mod 4)` this is a single exponentiation; otherwise it
    /// falls back to Tonelli–Shanks on the canonical representative.
    /// Which of the two roots `±r` comes back is unspecified; callers
    /// that need a particular one test [`FpCtx::parity`] and take
    /// [`FpCtx::neg`] when it does not match.
    pub fn sqrt(&self, a: &Fp) -> Option<Fp> {
        if a.is_zero() {
            return Some(self.zero());
        }
        if let Some(exp) = &self.sqrt_exp {
            let r = self.pow(a, exp);
            if self.sqr(&r) == *a {
                return Some(r);
            }
            return None;
        }
        let canonical = self.to_uint(a);
        modular::sqrt_mod(&canonical, self.modulus())
            .ok()
            .map(|r| self.from_uint(&r))
    }

    /// Canonical big-endian fixed-width encoding.
    pub fn to_bytes(&self, a: &Fp) -> Vec<u8> {
        self.to_uint(a).to_be_bytes_padded(self.byte_len())
    }

    /// Parity (lsb) of the canonical representative — used as the sign
    /// bit in compressed point encodings.
    pub fn parity(&self, a: &Fp) -> bool {
        self.to_uint(a).is_odd()
    }
}

/// The bigint-backed context runs the same generic curve and Miller
/// kernels as the fixed-width backend; this impl is the reference
/// engine those kernels fall back to when the modulus is wider than
/// eight limbs (or the fixed backend is disabled for testing).
///
/// The `ext2_mul`/`ext2_sqr` defaults are kept: they are the exact
/// Karatsuba/complex formulas both backends agree on.
impl sempair_field::FieldOps for FpCtx {
    type Elem = Fp;

    fn zero(&self) -> Fp {
        FpCtx::zero(self)
    }
    fn one(&self) -> Fp {
        FpCtx::one(self)
    }
    fn is_zero(&self, a: &Fp) -> bool {
        a.is_zero()
    }
    fn equals(&self, a: &Fp, b: &Fp) -> bool {
        a == b
    }
    fn add(&self, a: &Fp, b: &Fp) -> Fp {
        FpCtx::add(self, a, b)
    }
    fn sub(&self, a: &Fp, b: &Fp) -> Fp {
        FpCtx::sub(self, a, b)
    }
    fn neg(&self, a: &Fp) -> Fp {
        FpCtx::neg(self, a)
    }
    fn double(&self, a: &Fp) -> Fp {
        FpCtx::double(self, a)
    }
    fn mul(&self, a: &Fp, b: &Fp) -> Fp {
        FpCtx::mul(self, a, b)
    }
    fn sqr(&self, a: &Fp) -> Fp {
        FpCtx::sqr(self, a)
    }
    fn inv(&self, a: &Fp) -> Option<Fp> {
        FpCtx::inv(self, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FpCtx {
        // 2^127 - 1 is a Mersenne prime ≡ 3 (mod 4).
        let p = &(BigUint::one() << 127) - &BigUint::one();
        FpCtx::new(&p).unwrap()
    }

    #[test]
    fn field_axioms_spot_checks() {
        let f = ctx();
        let a = f.from_u64(123456789);
        let b = f.from_u64(987654321);
        assert_eq!(f.add(&a, &b), f.add(&b, &a));
        assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        assert_eq!(f.sub(&a, &a), f.zero());
        assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
        assert_eq!(f.mul(&a, &f.one()), a);
        assert_eq!(f.double(&a), f.add(&a, &a));
        assert_eq!(f.sqr(&a), f.mul(&a, &a));
    }

    #[test]
    fn inverse_and_pow() {
        let f = ctx();
        let a = f.from_u64(31337);
        let inv = f.inv(&a).unwrap();
        assert_eq!(f.mul(&a, &inv), f.one());
        assert!(f.inv(&f.zero()).is_none());
        // Fermat: a^(p-1) = 1.
        let e = f.modulus() - &BigUint::one();
        assert_eq!(f.pow(&a, &e), f.one());
    }

    #[test]
    fn sqrt_on_3mod4_prime() {
        let f = ctx();
        for v in [2u64, 3, 5, 101, 123456] {
            let a = f.from_u64(v);
            let sq = f.sqr(&a);
            assert!(f.is_square(&sq));
            let r = f.sqrt(&sq).unwrap();
            assert!(r == a || r == f.neg(&a));
        }
        assert_eq!(f.sqrt(&f.zero()), Some(f.zero()));
    }

    #[test]
    fn nonresidue_has_no_root() {
        let f = ctx();
        // Find some non-residue by scanning.
        let mut v = 2u64;
        loop {
            let a = f.from_u64(v);
            if !f.is_square(&a) {
                assert!(f.sqrt(&a).is_none());
                break;
            }
            v += 1;
        }
    }

    #[test]
    fn byte_encoding_fixed_width() {
        let f = ctx();
        let a = f.from_u64(7);
        let bytes = f.to_bytes(&a);
        assert_eq!(bytes.len(), f.byte_len());
        assert_eq!(BigUint::from_be_bytes(&bytes), BigUint::from(7u64));
    }

    #[test]
    fn parity_distinguishes_negatives() {
        let f = ctx();
        let a = f.from_u64(10);
        // p odd, so a and -a have opposite canonical parities when a != 0.
        assert_ne!(f.parity(&a), f.parity(&f.neg(&a)));
    }
}
