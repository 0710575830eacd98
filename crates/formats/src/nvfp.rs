//! NVIDIA's NVFP4 format and the paper's NVFP4+ extension (Section 8.2).
//!
//! NVFP4 resembles MXFP4 (E2M1 elements) but uses a 16-element block and an E4M3
//! floating-point scale factor chosen so that the block max maps as closely as possible to
//! the maximum representable FP4 magnitude (6.0). NVFP4+ extends the mantissa of the block
//! max exactly as MX+ does, except when the BM is so small that its element exponent is
//! not at the maximum, in which case the block falls back to plain NVFP4.

use serde::{Deserialize, Serialize};

use crate::element::ElementType;
use crate::encode::{with_codec, ElementCodec};
use crate::minifloat;

/// NVFP4 block size.
pub const NVFP4_BLOCK_SIZE: usize = 16;

/// Quantizes the per-block E4M3 scale factor of NVFP4.
///
/// The raw scale is `max|x| / 6.0` (so that the BM maps to the FP4 maximum); it is then
/// rounded to the nearest representable E4M3 value.
#[must_use]
pub fn nvfp4_scale(values: &[f32]) -> f32 {
    nvfp4_scale_with::<false>(values)
}

/// [`nvfp4_scale`], rounding with the reference E4M3 encoder when `REF` is set.
fn nvfp4_scale_with<const REF: bool>(values: &[f32]) -> f32 {
    let max_abs = values.iter().map(|v| v.abs()).filter(|v| v.is_finite()).fold(0.0_f32, f32::max);
    if max_abs == 0.0 {
        return 0.0;
    }
    let raw = max_abs / ElementType::E2M1.max_normal();
    let code = if REF {
        minifloat::encode_fp_reference(ElementType::E4M3, raw)
    } else {
        minifloat::encode_fp(ElementType::E4M3, raw)
    };
    let q = minifloat::decode_fp(ElementType::E4M3, code);
    if q == 0.0 {
        // Keep a tiny non-zero scale so the block does not collapse; use the smallest
        // subnormal E4M3 value.
        ElementType::E4M3.min_subnormal()
    } else {
        q
    }
}

/// The per-block parameters of NVFP4(+): the E4M3 scale, the BM index and whether the
/// extended BM mantissa is in use. `None` for an all-zero block (scale 0).
struct Plan {
    scale: f32,
    bm_index: usize,
    bm_extended: bool,
}

fn plan<const REF: bool>(codec: &ElementCodec<REF>, values: &[f32], plus: bool) -> Option<Plan> {
    let scale = nvfp4_scale_with::<REF>(values);
    if scale == 0.0 {
        return None;
    }
    let bm_index = codec.block_max_index(values);
    // The BM extension applies only when the scaled BM's exponent is at the FP4
    // maximum (>= 4.0), which holds unless the E4M3 scale rounding pushed it lower.
    let scaled_bm = (values[bm_index] / scale).abs();
    let bm_extended = plus && scaled_bm >= (2.0_f32).powi(ElementType::E2M1.emax());
    Some(Plan { scale, bm_index, bm_extended })
}

/// Encodes one element against the block's plan (the BM slot takes the extended code).
#[inline(always)]
fn encode_element<const REF: bool>(codec: &ElementCodec<REF>, p: &Plan, i: usize, v: f32) -> u8 {
    let scaled = v / p.scale;
    if p.bm_extended && i == p.bm_index {
        codec.encode_bm(scaled.abs(), v.is_sign_negative())
    } else {
        codec.encode(scaled)
    }
}

/// A quantized NVFP4 block (optionally with the NVFP4+ BM extension).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nvfp4Block {
    scale: f32,
    plus: bool,
    bm_index: u8,
    /// True when the `plus` extension is actually active for this block (the BM element's
    /// exponent is at its maximum); otherwise the block is stored as plain NVFP4.
    bm_extended: bool,
    codes: Vec<u8>,
}

impl Nvfp4Block {
    /// Quantizes a block of up to 16 values as plain NVFP4.
    #[must_use]
    pub fn quantize(values: &[f32]) -> Self {
        Self::quantize_impl(values, false)
    }

    /// Quantizes a block of up to 16 values as NVFP4+ (extended BM mantissa).
    #[must_use]
    pub fn quantize_plus(values: &[f32]) -> Self {
        Self::quantize_impl(values, true)
    }

    fn quantize_impl(values: &[f32], plus: bool) -> Self {
        with_codec!(ElementType::E2M1, |codec| match plan(codec, values, plus) {
            None => Nvfp4Block { scale: 0.0, plus, bm_index: 0, bm_extended: false, codes: vec![0; values.len()] },
            Some(p) => {
                let codes = values.iter().enumerate().map(|(i, &v)| encode_element(codec, &p, i, v)).collect();
                Nvfp4Block { scale: p.scale, plus, bm_index: p.bm_index as u8, bm_extended: p.bm_extended, codes }
            }
        })
    }

    /// The E4M3 scale factor.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Index of the block-max element (meaningful only when the extension is active).
    #[must_use]
    pub fn bm_index(&self) -> usize {
        usize::from(self.bm_index)
    }

    /// Whether the NVFP4+ extended BM representation is active for this block.
    #[must_use]
    pub fn bm_extended(&self) -> bool {
        self.bm_extended
    }

    /// Dequantizes the block.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        if self.scale == 0.0 {
            return vec![0.0; self.codes.len()];
        }
        self.codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let e = if self.bm_extended && i == usize::from(self.bm_index) {
                    minifloat::decode_bm_extended(ElementType::E2M1, c)
                } else {
                    minifloat::decode_fp(ElementType::E2M1, c)
                };
                e * self.scale
            })
            .collect()
    }

    /// Storage bits: 16 FP4 elements + 8-bit E4M3 scale (+ 4-bit BM index for NVFP4+).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * 4 + 8 + if self.plus { 4 } else { 0 }
    }
}

/// Direct-cast fake quantization of a row with NVFP4 blocks.
#[must_use]
pub fn nvfp4_quantize_dequantize(values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; values.len()];
    nvfp4_quantize_dequantize_into(values, false, &mut out);
    out
}

/// Direct-cast fake quantization of a row with NVFP4+ blocks.
#[must_use]
pub fn nvfp4_plus_quantize_dequantize(values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; values.len()];
    nvfp4_quantize_dequantize_into(values, true, &mut out);
    out
}

/// Buffer-reusing NVFP4 (`plus == false`) or NVFP4+ (`plus == true`) fake quantization
/// of a row; allocates nothing.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn nvfp4_quantize_dequantize_into(values: &[f32], plus: bool, out: &mut [f32]) {
    assert_eq!(out.len(), values.len(), "output length must equal input length");
    with_codec!(ElementType::E2M1, |codec| {
        for (chunk, out_chunk) in values.chunks(NVFP4_BLOCK_SIZE).zip(out.chunks_mut(NVFP4_BLOCK_SIZE)) {
            let Some(p) = plan(codec, chunk, plus) else {
                out_chunk.fill(0.0);
                continue;
            };
            for (i, (o, &v)) in out_chunk.iter_mut().zip(chunk).enumerate() {
                let code = encode_element(codec, &p, i, v);
                let e = if p.bm_extended && i == p.bm_index { codec.decode_bm(code) } else { codec.decode(code) };
                *o = e * p.scale;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mxfp::MxFormat;
    use crate::mxplus::MxPlusFormat;

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| ((x - y) * (x - y)) as f64).sum::<f64>() / a.len() as f64
    }

    fn activations(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = ((i * 2_654_435_761_usize) % 2001) as f32 / 1000.0 - 1.0;
                let v = u * u * u;
                if i % 127 == 31 {
                    v * 60.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn zero_block() {
        let b = Nvfp4Block::quantize(&[0.0; 16]);
        assert_eq!(b.scale(), 0.0);
        assert_eq!(b.dequantize(), vec![0.0; 16]);
    }

    #[test]
    fn bm_maps_near_fp4_maximum() {
        let values = [9.0_f32, 0.1, -0.2, 0.3, 0.05, -0.07, 0.0, 0.01, 0.2, -0.3, 0.1, 0.0, 0.4, -0.1, 0.02, 0.3];
        let b = Nvfp4Block::quantize(&values);
        let deq = b.dequantize();
        // scale = 9/6 = 1.5 exactly representable in E4M3, so the BM is exact.
        assert!((deq[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn nvfp4_plus_improves_or_matches_nvfp4() {
        let row = activations(1024);
        let plain = mse(&row, &nvfp4_quantize_dequantize(&row));
        let plus = mse(&row, &nvfp4_plus_quantize_dequantize(&row));
        assert!(plus <= plain + 1e-12);
    }

    #[test]
    fn nvfp4_beats_mxfp4_but_loses_to_mxfp4_plus() {
        // Section 8.2 / Table 11: NVFP4's finer blocks beat MXFP4, but MXFP4+ is better
        // than or comparable to NVFP4 because outliers get extra precision.
        let row = activations(4096);
        let nv = mse(&row, &nvfp4_quantize_dequantize(&row));
        let mx = mse(&row, &MxFormat::MXFP4.quantize_dequantize(&row));
        let mxp = mse(&row, &MxPlusFormat::MXFP4_PLUS.quantize_dequantize(&row));
        assert!(nv <= mx, "NVFP4 {nv} should beat MXFP4 {mx}");
        // On raw MSE the two are close (NVFP4's 16-element blocks and FP scale versus
        // MXFP4+'s extended BM mantissa); the paper's accuracy tables favour MXFP4+.
        assert!(mxp <= nv * 2.0, "MXFP4+ {mxp} should be competitive with NVFP4 {nv}");
        assert!(mxp <= mx, "MXFP4+ {mxp} must beat plain MXFP4 {mx}");
    }

    #[test]
    fn extension_falls_back_when_scaled_bm_is_low() {
        // Construct a block where E4M3 scale rounding pushes the scaled BM below 4.0:
        // then NVFP4+ must fall back to the plain representation (Section 8.2).
        // A max of 1e-9 forces the raw scale (max/6) to round towards a coarse subnormal
        // E4M3 grid point that can exceed the raw value considerably.
        let mut values = [0.0_f32; 16];
        values[3] = 3.0e-9;
        let b = Nvfp4Block::quantize_plus(&values);
        // Whether or not the extension engaged, dequantization must be finite and the
        // flag must be consistent with the representation.
        let deq = b.dequantize();
        assert!(deq.iter().all(|v| v.is_finite()));
        if !b.bm_extended() {
            assert_eq!(b.storage_bits(), 16 * 4 + 8 + 4);
        }
    }

    #[test]
    fn storage_accounting() {
        let values = [1.0_f32; 16];
        assert_eq!(Nvfp4Block::quantize(&values).storage_bits(), 72);
        assert_eq!(Nvfp4Block::quantize_plus(&values).storage_bits(), 76);
    }

    #[test]
    fn scale_is_e4m3_representable() {
        for &m in &[0.013_f32, 0.7, 3.3, 57.0, 412.0] {
            let values = [m, m * 0.1, -m * 0.2, 0.0];
            let s = nvfp4_scale(&values);
            assert_eq!(minifloat::quantize_fp(ElementType::E4M3, s), s, "scale for max {m}");
        }
    }

    #[test]
    fn row_api_preserves_length() {
        let row = activations(100);
        assert_eq!(nvfp4_quantize_dequantize(&row).len(), 100);
        assert_eq!(nvfp4_plus_quantize_dequantize(&row).len(), 100);
    }
}
