//! The MX++ variant (Section 4.3): decoupling the NBM shared scale from the BM.
//!
//! MX+ leaves the non-block-max (NBM) elements quantized against a shared scale dictated
//! by the outlier, so they may still collapse toward zero. MX++ uses the three reserved
//! metadata bits to store the difference between the BM's shared exponent and a smaller
//! shared exponent used only by the NBM elements, mapping them onto a finer grid.

use serde::{Deserialize, Serialize};

use crate::block::BLOCK_SIZE;
use crate::element::ElementType;
use crate::encode::{with_codec, BlockScale, ElementCodec};
use crate::minifloat;
use crate::scale::{abs_finite_bits, floor_log2_bits, SharedScale, MIN_SHARED_EXP};

/// A quantized MX++ block.
///
/// ```
/// use mx_formats::mxpp::MxPlusPlusBlock;
/// use mx_formats::ElementType;
///
/// // The Section 4.3 worked example: with the NBM scale decoupled, -0.39 maps to -1.5
/// // on the finer grid instead of flushing to zero.
/// let values = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39];
/// let block = MxPlusPlusBlock::quantize(ElementType::E2M1, &values);
/// let deq = block.dequantize();
/// assert!((deq[5] - -0.375).abs() < 1e-6);
/// assert_eq!(deq[4], -10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MxPlusPlusBlock {
    element: ElementType,
    scale: SharedScale,
    bm_index: u8,
    /// `shared_exp - shared_exp_new`, in [0, 7], stored in the reserved metadata bits.
    scale_delta: u8,
    codes: Vec<u8>,
}

impl MxPlusPlusBlock {
    /// Quantizes a slice of values into an MX++ block.
    #[must_use]
    pub fn quantize(element: ElementType, values: &[f32]) -> Self {
        let mut codes = vec![0; values.len()];
        with_codec!(element, |codec| match plan(codec, values) {
            None => MxPlusPlusBlock { element, scale: SharedScale::ZERO_BLOCK, bm_index: 0, scale_delta: 0, codes },
            Some(p) => {
                for (c, &v) in codes.iter_mut().zip(values) {
                    *c = codec.encode(codec.scale_in(v, &p.nbm));
                }
                codes[p.bm_index] = codec.encode_bm_value(values[p.bm_index], &p.bm);
                let (scale, bm_index, scale_delta) = (p.bm.scale, p.bm_index as u8, p.scale_delta);
                MxPlusPlusBlock { element, scale, bm_index, scale_delta, codes }
            }
        })
    }

    /// The element data type.
    #[must_use]
    pub fn element(&self) -> ElementType {
        self.element
    }

    /// The BM shared scale (identical to the MX/MX+ shared scale).
    #[must_use]
    pub fn scale(&self) -> SharedScale {
        self.scale
    }

    /// The NBM shared scale, `2^(shared_exp - delta)`.
    #[must_use]
    pub fn nbm_scale(&self) -> SharedScale {
        match self.scale.exponent() {
            None => SharedScale::ZERO_BLOCK,
            Some(e) => SharedScale::from_exponent(e - i32::from(self.scale_delta)),
        }
    }

    /// Index of the BM element.
    #[must_use]
    pub fn bm_index(&self) -> usize {
        usize::from(self.bm_index)
    }

    /// The scale delta stored in the reserved metadata bits (0..=7).
    #[must_use]
    pub fn scale_delta(&self) -> u8 {
        self.scale_delta
    }

    /// The metadata byte: 5-bit BM index plus the 3-bit scale delta.
    #[must_use]
    pub fn metadata_byte(&self) -> u8 {
        (self.scale_delta << 5) | (self.bm_index & 0x1f)
    }

    /// Raw element codes.
    #[must_use]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Number of elements in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the block holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dequantizes the block.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        if self.scale.is_zero_block() {
            return vec![0.0; self.codes.len()];
        }
        let s_bm = self.scale.value();
        let s_nbm = self.nbm_scale().value();
        self.codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i == usize::from(self.bm_index) {
                    minifloat::decode_bm_extended(self.element, c) * s_bm
                } else if self.element.is_int() {
                    minifloat::decode_int(self.element, c) * s_nbm
                } else {
                    minifloat::decode_fp(self.element, c) * s_nbm
                }
            })
            .collect()
    }
}

/// The per-block parameters of MX++: the BM scale (identical to the MX/MX+ shared
/// scale) and index, and the decoupled NBM scale with its delta.
struct Plan {
    bm: BlockScale,
    nbm: BlockScale,
    bm_index: usize,
    scale_delta: u8,
}

/// The MX++ parameters of a block, or `None` when it encodes as the zero block.
fn plan<const REF: bool>(codec: &ElementCodec<REF>, values: &[f32]) -> Option<Plan> {
    let emax = codec.element().emax();
    let (shared_exp, bm_index) = codec.shared_exponent_and_index(values).filter(|&(e, _)| e >= MIN_SHARED_EXP)?;

    // Smallest feasible shared exponent for the NBM elements (Section 4.3):
    // e = max2(floor(log2|x|)) - emax + 1, clipped to [shared_exp - 7, shared_exp].
    // floor(log2) is monotone, so it is taken once, of the largest non-BM magnitude.
    let max2 =
        values.iter().enumerate().filter(|&(i, _)| i != bm_index).fold(0, |m, (_, &v)| m.max(abs_finite_bits(v)));
    let nbm_exp = match max2 {
        0 => shared_exp,
        m2 => (floor_log2_bits(m2) - emax + 1).clamp(shared_exp - 7, shared_exp),
    };
    Some(Plan {
        bm: BlockScale::new(SharedScale::from_exponent(shared_exp)),
        nbm: BlockScale::new(SharedScale::from_exponent(nbm_exp)),
        bm_index,
        scale_delta: (shared_exp - nbm_exp) as u8,
    })
}

/// Direct-cast fake quantization of a row with MX++ blocks of `block_size` elements.
#[must_use]
pub fn fake_quantize_row_pp(element: ElementType, block_size: usize, values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; values.len()];
    fake_quantize_row_pp_into(element, block_size, values, &mut out);
    out
}

/// Buffer-reusing variant of [`fake_quantize_row_pp`]; allocates nothing.
///
/// # Panics
///
/// Panics if `block_size == 0` or `out.len() != values.len()`.
pub fn fake_quantize_row_pp_into(element: ElementType, block_size: usize, values: &[f32], out: &mut [f32]) {
    assert!(block_size > 0, "block size must be positive");
    assert_eq!(out.len(), values.len(), "output length must equal input length");
    with_codec!(element, |codec| {
        for (chunk, out_chunk) in values.chunks(block_size).zip(out.chunks_mut(block_size)) {
            let Some(p) = plan(codec, chunk) else {
                out_chunk.fill(0.0);
                continue;
            };
            codec.round_trip_into(chunk, &p.nbm, out_chunk);
            let bm = codec.encode_bm_value(chunk[p.bm_index], &p.bm);
            out_chunk[p.bm_index] = codec.decode_bm(bm) * p.bm.value;
        }
    });
}

/// Convenience descriptor for MXFP4++ with the standard block size.
#[must_use]
pub fn mxfp4_pp_quantize_dequantize(values: &[f32]) -> Vec<f32> {
    fake_quantize_row_pp(ElementType::E2M1, BLOCK_SIZE, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mxplus::MxPlusBlock;

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| ((x - y) * (x - y)) as f64).sum::<f64>() / a.len() as f64
    }

    const FIG6_BLOCK: [f32; 6] = [-0.27, -0.19, 0.99, -0.20, -9.84, -0.39];

    #[test]
    fn section_4_3_worked_example() {
        // shared_exp = 1 (from the BM -9.84); max2 exponent comes from 0.99 (-1), so
        // e = -1 - 2 + 1 = -2, within the clip range -> delta = 3.
        let block = MxPlusPlusBlock::quantize(ElementType::E2M1, &FIG6_BLOCK);
        assert_eq!(block.scale().exponent(), Some(1));
        assert_eq!(block.nbm_scale().exponent(), Some(-2));
        assert_eq!(block.scale_delta(), 3);
        let deq = block.dequantize();
        // The paper: with shared_exp_new = -2, the NBM -0.39 scales to -1.56 and maps to
        // -1.5, i.e. -0.375 in the real domain (it was 0 under MXFP4 and MXFP4+).
        assert!((deq[5] - -0.375).abs() < 1e-6);
        // 0.99 scales to 3.96 and stays representable (maps to 4.0 -> 1.0).
        assert!((deq[2] - 1.0).abs() < 1e-6);
        // The BM is still the MX+ value.
        assert_eq!(deq[4], -10.0);
    }

    #[test]
    fn offset_prevents_nbm_saturation() {
        // Without the +1 offset the largest NBM would scale to 7.92 and saturate at 6.0;
        // verify our implementation keeps it within range (Section 4.3 discussion).
        let block = MxPlusPlusBlock::quantize(ElementType::E2M1, &FIG6_BLOCK);
        let deq = block.dequantize();
        assert!((deq[2] - 0.99).abs() < 0.27, "NBM max must not saturate badly: {}", deq[2]);
    }

    #[test]
    fn delta_is_clipped_to_three_bits() {
        // A block where the second-largest element is astronomically smaller than the BM:
        // the delta must clamp at 7.
        let mut values = vec![1.0e-6_f32; BLOCK_SIZE];
        values[0] = 100.0;
        let block = MxPlusPlusBlock::quantize(ElementType::E2M1, &values);
        assert_eq!(block.scale_delta(), 7);
        assert!(block.metadata_byte() >> 5 == 7);
    }

    #[test]
    fn identical_bm_and_nbm_exponents_clip_at_upper_bound() {
        // When the BM and the largest NBM share the same exponent, e exceeds shared_exp
        // because of the +1 offset and must clip to shared_exp (delta 0).
        let mut values = vec![0.0_f32; BLOCK_SIZE];
        values[0] = 3.9;
        values[1] = -3.8;
        let block = MxPlusPlusBlock::quantize(ElementType::E2M1, &values);
        assert_eq!(block.scale_delta(), 0);
    }

    #[test]
    fn mxpp_never_worse_than_mxplus_on_outlier_blocks() {
        for seed in 0..100u32 {
            let values: Vec<f32> = (0..BLOCK_SIZE)
                .map(|i| {
                    let x = ((seed as usize * 97 + i * 2_654_435_761) % 2000) as f32 / 1000.0 - 1.0;
                    if i == 5 {
                        x.signum() * (20.0 + x.abs() * 10.0)
                    } else {
                        x * 0.3
                    }
                })
                .collect();
            let plus = MxPlusBlock::quantize(ElementType::E2M1, &values).dequantize();
            let pp = MxPlusPlusBlock::quantize(ElementType::E2M1, &values).dequantize();
            assert!(
                mse(&values, &pp) <= mse(&values, &plus) * 1.05 + 1e-12,
                "seed {seed}: MX++ should not be meaningfully worse than MX+"
            );
        }
    }

    #[test]
    fn blocks_without_outliers_keep_delta_small_and_match_mxplus() {
        let values: Vec<f32> = (0..BLOCK_SIZE).map(|i| (i as f32 - 16.0) * 0.05).collect();
        let pp = MxPlusPlusBlock::quantize(ElementType::E2M1, &values);
        // BM is -0.8, the next largest 0.75: same binade, so delta is at most 1.
        assert!(pp.scale_delta() <= 1);
    }

    #[test]
    fn zero_and_single_element_blocks() {
        let zero = MxPlusPlusBlock::quantize(ElementType::E2M1, &[0.0; 4]);
        assert!(zero.scale().is_zero_block());
        assert_eq!(zero.dequantize(), vec![0.0; 4]);

        // A block whose only non-zero element is the BM has no max2; delta stays 0.
        let mut values = vec![0.0_f32; 8];
        values[3] = 5.0;
        let single = MxPlusPlusBlock::quantize(ElementType::E2M1, &values);
        assert_eq!(single.scale_delta(), 0);
        assert!((single.dequantize()[3] - 5.0).abs() <= 0.25);
    }

    #[test]
    fn quantization_cost_model_hook() {
        // MX++ requires finding the second maximum, which the paper reports as a small
        // quantization-time increase (Table 6); functionally the result must still be a
        // valid block for any input length.
        let values: Vec<f32> = (0..40).map(|i| i as f32 * 0.01).collect();
        let out = fake_quantize_row_pp(ElementType::E2M1, BLOCK_SIZE, &values);
        assert_eq!(out.len(), 40);
    }
}
