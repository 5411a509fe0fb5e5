//! Floating-point abstraction so the whole solver can run in `f64` (the
//! paper's default) or `f32` (the mixed/reduced-precision extension discussed
//! in the paper's reference \[9\]).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type used for populations and macroscopic fields.
///
/// The trait is deliberately small: just the arithmetic the LBM kernels need,
/// plus lossless-enough conversions from `f64` constants (lattice weights,
/// relaxation rates) which are always *stored* in `f64` and narrowed at use.
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
    /// Machine epsilon of the representation.
    const EPSILON: Self;

    /// Narrowing conversion from an `f64` constant.
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact for `f32`).
    fn to_f64(self) -> f64;
    /// Conversion from a usize count (cell counts, averaging divisors).
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused (or plain) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `max` that propagates the larger value (NaN-oblivious, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// `min` counterpart of [`Real::max`].
    fn min(self, other: Self) -> Self;
    /// True if the value is finite (not NaN/inf). Used by sanity assertions.
    fn is_finite(self) -> bool;
    /// Width of the representation in bits (32 or 64). Recorded in
    /// checkpoint headers so an `f32` snapshot cannot be silently loaded
    /// into an `f64` solver.
    const BITS: u32;
    /// The raw IEEE-754 bit pattern, zero-extended to 64 bits. Exact for
    /// every value including NaN payloads — the checkpoint serializer goes
    /// through this (never through a float conversion) so save/load is a
    /// bit-level identity.
    fn to_bits64(self) -> u64;
    /// Inverse of [`Real::to_bits64`] (the upper 32 bits are ignored for
    /// `f32`).
    fn from_bits64(bits: u64) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;

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
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
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

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    const BITS: u32 = 32;
    #[inline(always)]
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>() {
        assert_eq!(T::from_f64(0.0), T::ZERO);
        assert_eq!(T::from_f64(1.0), T::ONE);
        assert!((T::from_f64(0.25).to_f64() - 0.25).abs() < 1e-12);
        assert_eq!(T::from_usize(16).to_f64(), 16.0);
    }

    #[test]
    fn roundtrip_f64() {
        roundtrip::<f64>();
    }

    #[test]
    fn roundtrip_f32() {
        roundtrip::<f32>();
    }

    #[test]
    fn arithmetic_matches_native() {
        let a = f64::from_f64(3.0);
        let b = f64::from_f64(4.0);
        assert_eq!((a * a + b * b).sqrt(), 5.0);
        assert_eq!(a.mul_add(b, 1.0), 13.0);
        assert_eq!(a.max(b), 4.0);
        assert_eq!(a.min(b), 3.0);
        assert!((-a).abs() == 3.0);
    }

    #[test]
    fn bit_patterns_round_trip() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        for v in [0.0f32, -0.0, 1.5, f32::INFINITY, f32::MIN_POSITIVE] {
            assert_eq!(f32::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        // NaN payloads survive (a float conversion would not guarantee it).
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(f64::from_bits64(weird.to_bits64()).to_bits(), weird.to_bits());
        assert_eq!(<f64 as Real>::BITS, 64);
        assert_eq!(<f32 as Real>::BITS, 32);
    }

    #[test]
    fn finiteness() {
        assert!(1.0f64.is_finite());
        assert!(!(f64::INFINITY).is_finite());
        assert!(!f32::NAN.is_finite());
    }
}
