//! The element encoder/decoder pair behind every MX-family block codec, in two
//! bit-identical flavours selected once per row.
//!
//! The fast flavour works on `f32` bit patterns: the block max is the largest
//! absolute-value bit pattern among the finite elements, the shared scale is built from
//! its exponent field, elements are scaled by the scale's exact power-of-two reciprocal,
//! encoded by [`FpEncoder`] and decoded through the 256-entry per-element-type tables of
//! [`crate::kernels`]. The reference flavour is the original formulation: a float max
//! fold, `v / scale`, [`minifloat::encode_fp_reference`] and the branchy decoders. The
//! reference serves whole rows whenever [`crate::kernels::force_scalar`] (or
//! `MX_FORCE_SCALAR_KERNELS`) is on, so one switch restores the complete reference
//! pipeline; the `REF` const parameter makes the choice once per row rather than per
//! element.

use crate::block::MxBlock;
use crate::element::ElementType;
use crate::kernels;
use crate::minifloat::{self, FpEncoder};
use crate::scale::{self, SharedScale};

/// Runs `$body` with `$codec` bound to the [`ElementCodec`] for `$element` in the flavour
/// the force-scalar switch selects, monomorphizing the body for both.
macro_rules! with_codec {
    ($element:expr, |$codec:ident| $body:expr) => {
        if $crate::kernels::scalar_forced() {
            let $codec = &$crate::encode::ElementCodec::<true>::new($element);
            $body
        } else {
            let $codec = &$crate::encode::ElementCodec::<false>::new($element);
            $body
        }
    };
}
pub(crate) use with_codec;

/// A shared power-of-two scale with its exact reciprocal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockScale {
    pub(crate) scale: SharedScale,
    pub(crate) value: f32,
    pub(crate) recip: f32,
}

impl BlockScale {
    pub(crate) fn new(scale: SharedScale) -> Self {
        BlockScale { scale, value: scale.value(), recip: scale.reciprocal() }
    }
}

/// Encoder/decoder of one element type; `REF` selects the reference formulation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ElementCodec<const REF: bool> {
    element: ElementType,
    /// Unused for the integer element types, which share [`minifloat::encode_int`].
    fp: FpEncoder,
    table: &'static [f32; 256],
    bm_table: &'static [f32; 256],
}

impl<const REF: bool> ElementCodec<REF> {
    pub(crate) fn new(element: ElementType) -> Self {
        let fp = FpEncoder::new(if element.is_int() { ElementType::E2M1 } else { element });
        ElementCodec { element, fp, table: kernels::decode_table(element), bm_table: kernels::bm_decode_table(element) }
    }

    pub(crate) fn element(&self) -> ElementType {
        self.element
    }

    /// `v / scale`; the fast flavour multiplies by the exact reciprocal instead, which
    /// rounds identically (both are the correctly rounded `v * 2^-exp`).
    #[inline(always)]
    pub(crate) fn scale_in(&self, v: f32, scale: &BlockScale) -> f32 {
        if REF {
            v / scale.value
        } else {
            v * scale.recip
        }
    }

    /// Encodes an already-scaled element value.
    #[inline(always)]
    pub(crate) fn encode(&self, x: f32) -> u8 {
        if self.element.is_int() {
            minifloat::encode_int(self.element, x)
        } else if REF {
            minifloat::encode_fp_reference(self.element, x)
        } else {
            self.fp.encode(x)
        }
    }

    /// Decodes an element code (unscaled).
    #[inline(always)]
    pub(crate) fn decode(&self, code: u8) -> f32 {
        if !REF {
            self.table[usize::from(code)]
        } else if self.element.is_int() {
            minifloat::decode_int(self.element, code)
        } else {
            minifloat::decode_fp(self.element, code)
        }
    }

    /// Encodes the block-max element's extended mantissa from its scaled magnitude.
    #[inline(always)]
    pub(crate) fn encode_bm(&self, scaled_abs: f32, negative: bool) -> u8 {
        if REF {
            minifloat::encode_bm_extended_reference(self.element, scaled_abs, negative)
        } else {
            minifloat::encode_bm_extended(self.element, scaled_abs, negative)
        }
    }

    /// Decodes a block-max extended-mantissa code (unscaled).
    #[inline(always)]
    pub(crate) fn decode_bm(&self, code: u8) -> f32 {
        if REF {
            minifloat::decode_bm_extended(self.element, code)
        } else {
            self.bm_table[usize::from(code)]
        }
    }

    /// Fake-quantizes `values` against one shared scale into `out`. Encode and decode
    /// run as two passes over a stack buffer of codes, so the branch-free encode loop
    /// can vectorize apart from the table lookups.
    pub(crate) fn round_trip_into(&self, values: &[f32], scale: &BlockScale, out: &mut [f32]) {
        let mut codes = [0u8; 64];
        for (chunk, out_chunk) in values.chunks(codes.len()).zip(out.chunks_mut(codes.len())) {
            let codes = &mut codes[..chunk.len()];
            if self.element.is_int() || REF {
                for (c, &v) in codes.iter_mut().zip(chunk) {
                    *c = self.encode(self.scale_in(v, scale));
                }
            } else {
                for (c, &v) in codes.iter_mut().zip(chunk) {
                    *c = self.fp.encode(v * scale.recip);
                }
            }
            for (o, &c) in out_chunk.iter_mut().zip(codes.iter()) {
                *o = self.decode(c) * scale.value;
            }
        }
    }

    /// The block-max element's code under MX+ (`v` unscaled).
    #[inline(always)]
    pub(crate) fn encode_bm_value(&self, v: f32, scale: &BlockScale) -> u8 {
        self.encode_bm(self.scale_in(v, scale).abs(), v.is_sign_negative())
    }

    /// Equation 1's shared exponent, `floor(log2(max|x|)) - e_max` over the finite
    /// elements, or `None` when every finite element is zero.
    pub(crate) fn shared_exponent(&self, values: &[f32]) -> Option<i32> {
        if REF {
            scale::shared_exponent(values, self.element.emax())
        } else {
            let max = scale::max_abs_finite_bits(values);
            (max != 0).then(|| scale::floor_log2_bits(max) - self.element.emax())
        }
    }

    /// Index of the first element with the largest finite magnitude (0 if none).
    pub(crate) fn block_max_index(&self, values: &[f32]) -> usize {
        if REF {
            MxBlock::block_max_index(values)
        } else {
            let max = scale::max_abs_finite_bits(values);
            values.iter().position(|&v| scale::abs_finite_bits(v) == max).unwrap_or(0)
        }
    }

    /// [`ElementCodec::shared_exponent`] together with [`ElementCodec::block_max_index`],
    /// sharing one block-max search on the fast path.
    pub(crate) fn shared_exponent_and_index(&self, values: &[f32]) -> Option<(i32, usize)> {
        if REF {
            Some((self.shared_exponent(values)?, self.block_max_index(values)))
        } else {
            let max = scale::max_abs_finite_bits(values);
            let index = values.iter().position(|&v| scale::abs_finite_bits(v) == max)?;
            (max != 0).then(|| (scale::floor_log2_bits(max) - self.element.emax(), index))
        }
    }
}

impl ElementCodec<false> {
    /// `codes[i] = encode(values[i] * recips[i])`: one row of a banded column cast, each
    /// column scaled by its own block's reciprocal.
    pub(crate) fn encode_scaled_into(&self, values: &[f32], recips: &[f32], codes: &mut [u8]) {
        let lanes = codes.iter_mut().zip(values.iter().zip(recips));
        if self.element.is_int() {
            for (c, (&v, &r)) in lanes {
                *c = minifloat::encode_int(self.element, v * r);
            }
        } else {
            for (c, (&v, &r)) in lanes {
                *c = self.fp.encode(v * r);
            }
        }
    }
}
