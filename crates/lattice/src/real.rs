//! The scalar abstraction of populations and macroscopic fields. `f64`,
//! the paper's precision, is its one implementation.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type used for populations and macroscopic fields.
///
/// The trait is deliberately small: just the arithmetic the LBM kernels need,
/// plus conversions from `f64` constants (lattice weights, relaxation rates).
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Conversion from an `f64` constant.
    fn from_f64(v: f64) -> Self;
    /// Conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `max` that propagates the larger value (NaN-oblivious, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// `min` counterpart of [`Real::max`].
    fn min(self, other: Self) -> Self;
    /// True if the value is finite (not NaN/inf). Used by sanity assertions.
    fn is_finite(self) -> bool;
    /// Width of the representation in bits. Recorded in checkpoint headers,
    /// whose decoder refuses any other width.
    const BITS: u32;
    /// The raw IEEE-754 bit pattern. Exact for every value including NaN
    /// payloads — the checkpoint serializer goes through this (never
    /// through a float conversion) so save/load is a bit-level identity.
    fn to_bits64(self) -> u64;
    /// Inverse of [`Real::to_bits64`].
    fn from_bits64(bits: u64) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    const BITS: u32 = 64;
    #[inline(always)]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        assert_eq!(f64::from_f64(0.0), f64::ZERO);
        assert_eq!(f64::from_f64(1.0), f64::ONE);
        assert_eq!(Real::to_f64(0.25f64), 0.25);
    }

    #[test]
    fn arithmetic_matches_native() {
        let a = f64::from_f64(3.0);
        let b = f64::from_f64(4.0);
        assert_eq!(Real::sqrt(a * a + b * b), 5.0);
        assert_eq!(Real::max(a, b), 4.0);
        assert_eq!(Real::min(a, b), 3.0);
        assert!(Real::abs(-a) == 3.0);
    }

    #[test]
    fn bit_patterns_round_trip() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        // NaN payloads survive (a float conversion would not guarantee it).
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(f64::from_bits64(weird.to_bits64()).to_bits(), weird.to_bits());
        assert_eq!(<f64 as Real>::BITS, 64);
    }

    #[test]
    fn finiteness() {
        assert!(Real::is_finite(1.0f64));
        assert!(!Real::is_finite(f64::INFINITY));
        assert!(!Real::is_finite(f64::NAN));
    }
}
