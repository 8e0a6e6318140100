//! # sempair-pairing
//!
//! A from-scratch implementation of the pairing substrate the paper
//! builds on (§3.1): a supersingular elliptic curve
//!
//! ```text
//! E : y² = x³ + x   over F_p,   p ≡ 3 (mod 4)
//! ```
//!
//! which has exactly `p + 1` points, together with the **Tate pairing**
//! evaluated through the distortion map `φ(x, y) = (−x, iy)` (where
//! `i² = −1` spans `F_p² = F_p[i]`). The composition
//!
//! ```text
//! ê(P, Q) = t(P, φ(Q))^((p²−1)/r)  :  G1 × G1 → G2 ⊂ F_p²*
//! ```
//!
//! is the *modified* pairing of Boneh–Franklin: bilinear, symmetric and
//! non-degenerate (`ê(P, P) ≠ 1`), matching the `ê : G1 × G1 → G2`
//! notation used throughout the paper.
//!
//! Parameters are generated, not hardcoded: [`CurveParams::generate`]
//! searches for `p = c·r − 1 ≡ 3 (mod 4)` with `r` a prime subgroup
//! order, which is how 2003-era systems were instantiated (512-bit `p`,
//! 160-bit `r`). [`CurveParams::paper_default`] ships a pre-generated
//! parameter set of exactly that size.
//!
//! ```
//! use sempair_pairing::CurveParams;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = CurveParams::generate(&mut rng, 128, 64).unwrap();
//! let g = params.generator().clone();
//! let a = params.random_scalar(&mut rng);
//! let b = params.random_scalar(&mut rng);
//! // Bilinearity: ê(aP, bP) = ê(P, P)^(ab)
//! let lhs = params.pairing(&params.mul(&a, &g), &params.mul(&b, &g));
//! let ab = sempair_bigint::modular::mod_mul(&a, &b, params.order());
//! let rhs = params.gt_pow(&params.pairing(&g, &g), &ab);
//! assert_eq!(lhs, rhs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod fixed;
mod fp;
mod pairing_impl;
mod params;

pub mod fp2;

pub use curve::G1Affine;
pub use fp::{Fp, FpCtx};
pub use fp2::Fp2;
pub use pairing_impl::{Gt, MillerStrategy, PreparedG1};
pub use params::{CurveParams, CurveParamsSpec, ParamsError};

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by point decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The byte string has the wrong length for this parameter set.
    BadLength {
        /// Expected byte count.
        expected: usize,
        /// Received byte count.
        got: usize,
    },
    /// The flag byte is not one of the defined values.
    BadFlag(u8),
    /// The x-coordinate is not on the curve (x³ + x is a non-residue).
    NotOnCurve,
    /// The encoded coordinate is not reduced modulo `p`.
    NotReduced,
    /// The point is on the curve but outside the order-`r` subgroup.
    NotInSubgroup,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadLength { expected, got } => {
                write!(f, "expected {expected} bytes, got {got}")
            }
            DecodeError::BadFlag(b) => write!(f, "invalid point-encoding flag byte {b:#04x}"),
            DecodeError::NotOnCurve => write!(f, "x-coordinate is not on the curve"),
            DecodeError::NotReduced => write!(f, "coordinate is not reduced modulo p"),
            DecodeError::NotInSubgroup => write!(f, "point is outside the order-r subgroup"),
        }
    }
}

impl StdError for DecodeError {}
