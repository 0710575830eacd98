//! The E8M0 shared-scale codec used by the MX format family.
//!
//! An MX block carries one 8-bit shared scale `X = 2^shared_exp`. The encoding is a pure
//! biased exponent (bias 127) with no sign or mantissa bits. Following the paper's MX+
//! flush-to-zero rule (Section 4.1), the biased value 0 is reserved to mean "every element
//! in the block is zero", and the biased value 255 is the NaN scale of the OCP spec.

use serde::{Deserialize, Serialize};

/// Exponent bias of the E8M0 encoding.
pub const E8M0_BIAS: i32 = 127;

/// Smallest unbiased exponent representable once the zero code is reserved (-126).
pub const MIN_SHARED_EXP: i32 = 1 - E8M0_BIAS;

/// Largest unbiased exponent representable (+127).
pub const MAX_SHARED_EXP: i32 = 254 - E8M0_BIAS;

/// A shared block scale restricted to powers of two, stored as an E8M0 byte.
///
/// ```
/// use mx_formats::SharedScale;
///
/// let s = SharedScale::from_exponent(-3);
/// assert_eq!(s.value(), 0.125);
/// assert_eq!(SharedScale::from_bits(s.to_bits()), s);
/// assert_eq!(SharedScale::ZERO_BLOCK.value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SharedScale(u8);

impl SharedScale {
    /// The reserved code meaning "all elements of this block are zero" (MX+ Section 4.1).
    pub const ZERO_BLOCK: SharedScale = SharedScale(0);

    /// The OCP NaN scale code (biased exponent 255).
    pub const NAN: SharedScale = SharedScale(255);

    /// Creates a scale `2^exp`, clamping `exp` to the representable range
    /// [[`MIN_SHARED_EXP`], [`MAX_SHARED_EXP`]].
    #[must_use]
    pub fn from_exponent(exp: i32) -> Self {
        let clamped = exp.clamp(MIN_SHARED_EXP, MAX_SHARED_EXP);
        SharedScale((clamped + E8M0_BIAS) as u8)
    }

    /// Reconstructs a scale from its raw E8M0 byte.
    #[must_use]
    pub const fn from_bits(bits: u8) -> Self {
        SharedScale(bits)
    }

    /// Raw E8M0 byte.
    #[must_use]
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Whether this is the reserved all-zero-block code.
    #[must_use]
    pub const fn is_zero_block(self) -> bool {
        self.0 == 0
    }

    /// Whether this is the NaN scale code.
    #[must_use]
    pub const fn is_nan(self) -> bool {
        self.0 == 255
    }

    /// Unbiased exponent. Returns `None` for the reserved zero-block and NaN codes.
    #[must_use]
    pub fn exponent(self) -> Option<i32> {
        if self.is_zero_block() || self.is_nan() {
            None
        } else {
            Some(i32::from(self.0) - E8M0_BIAS)
        }
    }

    /// The scale factor as an `f32`: `2^exponent`, `0.0` for the zero-block code, NaN for
    /// the NaN code.
    #[must_use]
    pub fn value(self) -> f32 {
        // E8M0 is the f32 exponent field: biased 1..=254 is exactly the f32 with that
        // exponent field and a zero mantissa, and biased 0 is the bit pattern of 0.0.
        if self.is_nan() {
            f32::NAN
        } else {
            f32::from_bits(u32::from(self.0) << 23)
        }
    }

    /// `1 / value()`, exactly: the scale is a power of two, so its reciprocal is one too
    /// (`2^-127`, for the largest scale, is an f32 subnormal). Multiplying by it is
    /// therefore bit-identical to dividing by [`SharedScale::value`]. Only meaningful for
    /// scales with an [`exponent`](SharedScale::exponent).
    pub(crate) fn reciprocal(self) -> f32 {
        match self.0 {
            254 => f32::from_bits(1 << 22),
            b => f32::from_bits(u32::from(254 - b.min(254)) << 23),
        }
    }
}

impl Default for SharedScale {
    fn default() -> Self {
        SharedScale::from_exponent(0)
    }
}

/// Computes the MX shared exponent of Equation 1 for a block of values:
/// `shared_exp = floor(log2(max|x|)) - emax`.
///
/// Returns `None` when the block is entirely zero (or contains only non-finite junk),
/// which callers encode as [`SharedScale::ZERO_BLOCK`].
#[must_use]
pub fn shared_exponent(values: &[f32], emax: i32) -> Option<i32> {
    let max_abs = values.iter().map(|v| v.abs()).filter(|v| v.is_finite()).fold(0.0_f32, f32::max);
    if max_abs == 0.0 {
        return None;
    }
    Some(floor_log2(max_abs) - emax)
}

/// The bit pattern of `|x|` if `x` is finite, else 0. Non-negative `f32`s order exactly
/// like their bit patterns, so the largest of these is the bit pattern of the largest
/// finite magnitude.
#[inline(always)]
pub(crate) fn abs_finite_bits(x: f32) -> u32 {
    let a = x.to_bits() & 0x7fff_ffff;
    if a < 0x7f80_0000 {
        a
    } else {
        0
    }
}

/// [`abs_finite_bits`] of the largest finite magnitude in `values` (0 when there is none
/// or it is zero): the integer form of the block-max search in [`shared_exponent`].
pub(crate) fn max_abs_finite_bits(values: &[f32]) -> u32 {
    values.iter().fold(0, |m, &v| m.max(abs_finite_bits(v)))
}

/// `floor(log2(x))` computed from the IEEE-754 representation so that exact powers of two
/// never land on the wrong side of the boundary.
#[must_use]
pub fn floor_log2(x: f32) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    floor_log2_bits(x.to_bits() & 0x7fff_ffff)
}

/// [`floor_log2`] of the positive finite `f32` with bit pattern `bits`: the unbiased
/// exponent field, or for a subnormal (`value = bits * 2^-149`) the position of the
/// highest set bit minus 149.
#[inline(always)]
pub(crate) fn floor_log2_bits(bits: u32) -> i32 {
    debug_assert!(bits != 0 && bits < 0x7f80_0000);
    let exp = (bits >> 23) as i32;
    if exp == 0 {
        (31 - bits.leading_zeros()) as i32 - 149
    } else {
        exp - 127
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementType;

    #[test]
    fn round_trip_exponents() {
        for exp in MIN_SHARED_EXP..=MAX_SHARED_EXP {
            let s = SharedScale::from_exponent(exp);
            assert_eq!(s.exponent(), Some(exp));
            assert_eq!(s.value(), (2.0_f32).powi(exp));
            assert_eq!(SharedScale::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    fn clamping_at_range_ends() {
        assert_eq!(SharedScale::from_exponent(-500).exponent(), Some(MIN_SHARED_EXP));
        assert_eq!(SharedScale::from_exponent(500).exponent(), Some(MAX_SHARED_EXP));
    }

    #[test]
    fn reserved_codes() {
        assert!(SharedScale::ZERO_BLOCK.is_zero_block());
        assert_eq!(SharedScale::ZERO_BLOCK.value(), 0.0);
        assert_eq!(SharedScale::ZERO_BLOCK.exponent(), None);
        assert!(SharedScale::NAN.is_nan());
        assert!(SharedScale::NAN.value().is_nan());
    }

    #[test]
    fn floor_log2_exact_powers() {
        for e in -120..120 {
            let x = (2.0_f32).powi(e);
            assert_eq!(floor_log2(x), e, "2^{e}");
            assert_eq!(floor_log2(x * 1.5), e);
            assert_eq!(floor_log2(x * 1.999), e);
        }
    }

    #[test]
    fn floor_log2_is_exact_on_every_subnormal() {
        // All 2^23 - 1 positive subnormals: value = m * 2^-149, so floor(log2) is the
        // highest set bit of m minus 149. The former `log2().floor()` fallback was off by
        // one on 52 of them (e.g. m = 0x3ffff gave -131 instead of -132).
        let mut fallback_errors = 0;
        let mut int_plus_changes = 0;
        for m in 1u32..(1 << 23) {
            let x = f32::from_bits(m);
            let expected = (31 - m.leading_zeros()) as i32 - 149;
            assert_eq!(floor_log2(x), expected, "subnormal {m:#x}");
            let fallback = x.log2().floor() as i32;
            if fallback != expected {
                fallback_errors += 1;
            }
            for et in ElementType::FP_TYPES.into_iter().chain([ElementType::Int8, ElementType::Int4]) {
                let (exp, former) = (expected - et.emax(), fallback - et.emax());
                // MX: a subnormal block max clamps to the same scale either way.
                assert_eq!(SharedScale::from_exponent(exp), SharedScale::from_exponent(former), "{et} {m:#x}");
                // MX+: the exact exponent is always below the scale range, so the block
                // flushes to zero. The former one reached it only for integer elements.
                assert!(exp < MIN_SHARED_EXP, "{et} {m:#x}");
                if former >= MIN_SHARED_EXP {
                    assert!(et.is_int(), "{et} {m:#x}");
                    int_plus_changes += 1;
                }
            }
        }
        assert_eq!(fallback_errors, 52);
        // The former fallback gave -126 for the 22 subnormals just below 2^-126
        // (0x7fffea..=0x7fffff), so MXINT8+/MXINT4+ (e_max 0) kept such a block at scale
        // 2^-126 instead of flushing it as the MX+ rule requires; MX and the FP element
        // types are unaffected.
        assert_eq!(int_plus_changes, 2 * 22);
        assert_eq!(floor_log2(f32::from_bits(0x3ffff)), -132);
    }

    #[test]
    fn bit_built_value_and_reciprocal_match_powi() {
        for b in 1..=254u8 {
            let s = SharedScale::from_bits(b);
            let e = i32::from(b) - E8M0_BIAS;
            assert_eq!(s.value().to_bits(), (2.0_f32).powi(e).to_bits(), "value of {b}");
            assert_eq!(s.reciprocal().to_bits(), ((2.0_f64).powi(-e) as f32).to_bits(), "reciprocal of {b}");
            assert_eq!(s.value() * s.reciprocal(), 1.0);
        }
        assert_eq!(SharedScale::ZERO_BLOCK.value().to_bits(), 0);
    }

    #[test]
    fn max_abs_finite_bits_skips_non_finite() {
        assert_eq!(max_abs_finite_bits(&[f32::NAN, -4.0, f32::INFINITY, 2.0]), (4.0_f32).to_bits());
        assert_eq!(max_abs_finite_bits(&[-0.0, f32::NEG_INFINITY]), 0);
        assert_eq!(max_abs_finite_bits(&[]), 0);
    }

    #[test]
    fn shared_exponent_matches_equation_1() {
        // Paper Figure 6: block max 9.84 with E2M1 (emax 2): floor(log2 9.84)=3, shared=1.
        let block = [-0.27, -0.19, 0.99, -0.20, -9.84, -0.39];
        assert_eq!(shared_exponent(&block, 2), Some(1));
        // Lower sampled block of Figure 4(b): max 1.02 -> floor log2 = 0, shared = -2.
        let block = [-0.27, 0.04, -1.02, 0.18, -0.45, -0.20];
        assert_eq!(shared_exponent(&block, 2), Some(-2));
    }

    #[test]
    fn shared_exponent_of_zero_block_is_none() {
        assert_eq!(shared_exponent(&[0.0; 32], 2), None);
        assert_eq!(shared_exponent(&[], 2), None);
    }

    #[test]
    fn shared_exponent_ignores_non_finite() {
        assert_eq!(shared_exponent(&[f32::NAN, 4.0], 2), Some(0));
    }

    #[test]
    fn default_scale_is_one() {
        assert_eq!(SharedScale::default().value(), 1.0);
    }
}
