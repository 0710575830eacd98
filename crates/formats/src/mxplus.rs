//! The MX+ extension (Section 4 of the paper).
//!
//! MX+ keeps the MX block structure (32 elements, one E8M0 shared scale) but observes
//! that the block-max (BM) element's private exponent is *always* the maximum
//! representable exponent of the element data type — because the shared scale is derived
//! from the BM via Equation 1. The BM's exponent field is therefore redundant and can be
//! repurposed as an **extended mantissa**, giving the outlier element
//! `man_bits + exp_bits` mantissa bits at the same storage width. A one-byte metadata
//! word per block stores the 5-bit BM index (3 bits reserved; MX++ uses them for the
//! decoupled NBM scale, see [`crate::mxpp`]).

use serde::{Deserialize, Serialize};

use crate::block::BLOCK_SIZE;
use crate::element::ElementType;
use crate::encode::{with_codec, BlockScale, ElementCodec};
use crate::error::FormatError;
use crate::kernels;
use crate::scale::{SharedScale, MIN_SHARED_EXP};

/// A quantized MX+ block.
///
/// ```
/// use mx_formats::{ElementType, MxPlusBlock};
///
/// // The Figure 6 block: the outlier -9.84 is the BM.
/// let values = [-0.27_f32, -0.19, 0.99, -0.20, -9.84, -0.39];
/// let block = MxPlusBlock::quantize(ElementType::E2M1, &values);
/// assert_eq!(block.bm_index(), 4);
/// let deq = block.dequantize();
/// // MXFP4 would represent the outlier as -8.0; MXFP4+ recovers -10.0.
/// assert_eq!(deq[4], -10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MxPlusBlock {
    element: ElementType,
    scale: SharedScale,
    bm_index: u8,
    reserved: u8,
    codes: Vec<u8>,
}

impl MxPlusBlock {
    /// Quantizes a slice of values into an MX+ block.
    ///
    /// Follows Section 4.1: the BM element is identified during shared-scale computation;
    /// if the BM's exponent is at or below `-127 + e_max` the entire block is flushed to
    /// zero and encoded with the reserved zero-block scale.
    #[must_use]
    pub fn quantize(element: ElementType, values: &[f32]) -> Self {
        let mut codes = vec![0u8; values.len()];
        let (scale, bm_index) = quantize_codes_into(element, values, &mut codes);
        MxPlusBlock { element, scale, bm_index, reserved: 0, codes }
    }

    /// Reconstructs a block from stored parts (used by the packed-layout decoder).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BlockLength`] if the BM index is outside the block.
    pub fn from_parts(
        element: ElementType,
        scale: SharedScale,
        bm_index: u8,
        reserved: u8,
        codes: Vec<u8>,
    ) -> Result<Self, FormatError> {
        if !codes.is_empty() && usize::from(bm_index) >= codes.len() {
            return Err(FormatError::BlockLength { expected: codes.len(), actual: usize::from(bm_index) });
        }
        Ok(MxPlusBlock { element, scale, bm_index, reserved: reserved & 0x7, codes })
    }

    /// The element data type of this block.
    #[must_use]
    pub fn element(&self) -> ElementType {
        self.element
    }

    /// The shared scale.
    #[must_use]
    pub fn scale(&self) -> SharedScale {
        self.scale
    }

    /// Index of the block-max element within the block (5-bit field of the metadata byte).
    #[must_use]
    pub fn bm_index(&self) -> usize {
        usize::from(self.bm_index)
    }

    /// The three reserved metadata bits (zero for MX+; the NBM scale delta for MX++).
    #[must_use]
    pub fn reserved_bits(&self) -> u8 {
        self.reserved
    }

    /// Raw element codes (the BM slot holds the extended-mantissa code).
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

    /// The metadata byte of Figure 7: 5-bit BM index in the low bits, 3 reserved bits above.
    #[must_use]
    pub fn metadata_byte(&self) -> u8 {
        (self.reserved << 5) | (self.bm_index & 0x1f)
    }

    /// Dequantizes the block (Equation 2 of the paper).
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.codes.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// Dequantizes into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.codes.len(), "output length must equal block length");
        if self.scale.is_zero_block() {
            out.fill(0.0);
            return;
        }
        let s = self.scale.value();
        let (table, bm_table) = (kernels::decode_table(self.element), kernels::bm_decode_table(self.element));
        for (i, (o, &c)) in out.iter_mut().zip(&self.codes).enumerate() {
            let t = if i == usize::from(self.bm_index) { bm_table } else { table };
            *o = t[usize::from(c)] * s;
        }
    }

    /// Splits the BM element into the sum `BM_H + BM_L` of two values that are exactly
    /// representable in the plain element data type (Equation 3), as required by the
    /// software Tensor-Core integration of Section 5.
    ///
    /// Both returned values are in the *scaled* domain (multiply by the shared scale to
    /// recover the real magnitudes). Returns `(0.0, 0.0)` for a zero block.
    #[must_use]
    pub fn split_bm(&self) -> (f32, f32) {
        if self.scale.is_zero_block() {
            return (0.0, 0.0);
        }
        let et = self.element;
        let k = et.plus_bm_man_bits();
        let code = self.codes[usize::from(self.bm_index)];
        let sign = if code >> k & 1 == 1 { -1.0_f32 } else { 1.0 };
        let m = u32::from(code) & ((1 << k) - 1);
        // u_m[k..0]: explicit leading one followed by the k extended mantissa bits.
        let um = (1u32 << k) | m;
        let base = if et.is_int() { 0 } else { et.emax() };
        // Split the mantissa into the high man_bits+1 bits and the low exp_bits bits
        // (for E2M1: u_m[3:2] and u_m[1:0]).
        let low_bits = k - et.man_bits();
        let high = um >> low_bits;
        let low = um & ((1 << low_bits) - 1);
        let bm_h = sign * high as f32 * (2.0_f32).powi(base - et.man_bits() as i32);
        let bm_l = sign * low as f32 * (2.0_f32).powi(base - k as i32);
        (bm_h, bm_l)
    }

    /// Storage cost in bits: elements + shared-scale byte + the extra metadata byte.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * self.element.bits() as usize + 8 + 8
    }
}

/// Quantizes `values` into MX+ per-element codes written to `codes` (the BM slot gets the
/// extended-mantissa code) and returns the shared scale plus the BM index — the
/// allocation-free core of [`MxPlusBlock::quantize`], for hot paths (the packed row
/// encoder) that reuse one stack buffer across blocks.
///
/// Follows Section 4.1: the BM element is identified during shared-scale computation; if
/// the shared exponent would clamp at its lower bound of -127 the entire block is flushed
/// to zero and encoded with the reserved zero-block scale (BM index 0).
///
/// # Panics
///
/// Panics if `codes.len() != values.len()`.
pub fn quantize_codes_into(element: ElementType, values: &[f32], codes: &mut [u8]) -> (SharedScale, u8) {
    assert_eq!(codes.len(), values.len(), "code buffer length must equal block length");
    with_codec!(element, |codec| quantize_codes_with(codec, values, codes))
}

/// The MX+ block scale and BM index, or `None` when the block flushes to zero.
fn block_scale<const REF: bool>(codec: &ElementCodec<REF>, values: &[f32]) -> Option<(BlockScale, usize)> {
    // Flush-to-zero rule: below MIN_SHARED_EXP the BM's private exponent would sit below
    // e_max, breaking the MX+ invariant that makes the exponent field redundant.
    let (shared_exp, bm_index) = codec.shared_exponent_and_index(values).filter(|&(e, _)| e >= MIN_SHARED_EXP)?;
    Some((BlockScale::new(SharedScale::from_exponent(shared_exp)), bm_index))
}

/// [`quantize_codes_into`] with the encoder flavour already chosen (once per row).
pub(crate) fn quantize_codes_with<const REF: bool>(
    codec: &ElementCodec<REF>,
    values: &[f32],
    codes: &mut [u8],
) -> (SharedScale, u8) {
    let Some((scale, bm_index)) = block_scale(codec, values) else {
        codes.fill(0);
        return (SharedScale::ZERO_BLOCK, 0);
    };
    for (c, &v) in codes.iter_mut().zip(values) {
        *c = codec.encode(codec.scale_in(v, &scale));
    }
    codes[bm_index] = codec.encode_bm_value(values[bm_index], &scale);
    (scale.scale, bm_index as u8)
}

/// Fake-quantizes one MX+ block into `out` without building an [`MxPlusBlock`].
fn fake_quantize_block_with<const REF: bool>(codec: &ElementCodec<REF>, values: &[f32], out: &mut [f32]) {
    let Some((scale, bm_index)) = block_scale(codec, values) else {
        out.fill(0.0);
        return;
    };
    codec.round_trip_into(values, &scale, out);
    out[bm_index] = codec.decode_bm(codec.encode_bm_value(values[bm_index], &scale)) * scale.value;
}

/// An MX+ format descriptor: element type plus block size, mirroring
/// [`MxFormat`](crate::MxFormat) for the extended formats MXFP4+/MXFP6+/MXFP8+/MXINT8+.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MxPlusFormat {
    /// Element data type of the NBM elements.
    pub element: ElementType,
    /// Number of elements per block.
    pub block_size: usize,
}

impl MxPlusFormat {
    /// MXFP4+ (extension of MXFP4).
    pub const MXFP4_PLUS: MxPlusFormat = MxPlusFormat { element: ElementType::E2M1, block_size: BLOCK_SIZE };
    /// MXFP6+ (extension of MXFP6 E2M3).
    pub const MXFP6_PLUS: MxPlusFormat = MxPlusFormat { element: ElementType::E2M3, block_size: BLOCK_SIZE };
    /// MXFP8+ (extension of MXFP8 E4M3).
    pub const MXFP8_PLUS: MxPlusFormat = MxPlusFormat { element: ElementType::E4M3, block_size: BLOCK_SIZE };
    /// MXINT8+ (extension of MXINT8, Section 8.2).
    pub const MXINT8_PLUS: MxPlusFormat = MxPlusFormat { element: ElementType::Int8, block_size: BLOCK_SIZE };
    /// MXINT4+ (extension of the hypothetical MXINT4, Section 8.2).
    pub const MXINT4_PLUS: MxPlusFormat = MxPlusFormat { element: ElementType::Int4, block_size: BLOCK_SIZE };

    /// Creates an MX+ format with the standard 32-element block.
    #[must_use]
    pub const fn new(element: ElementType) -> Self {
        MxPlusFormat { element, block_size: BLOCK_SIZE }
    }

    /// Average storage bits per element: the MX figure plus the extra metadata byte,
    /// e.g. 4.5 for MXFP4+ versus 4.25 for MXFP4 (Section 4.2).
    #[must_use]
    pub fn average_bits_per_element(&self) -> f64 {
        self.element.bits() as f64 + 16.0 / self.block_size as f64
    }

    /// Quantizes one row into MX+ blocks.
    #[must_use]
    pub fn quantize_row(&self, values: &[f32]) -> Vec<MxPlusBlock> {
        values.chunks(self.block_size).map(|c| MxPlusBlock::quantize(self.element, c)).collect()
    }

    /// Direct-cast fake quantization of a row.
    #[must_use]
    pub fn quantize_dequantize(&self, values: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; values.len()];
        self.quantize_dequantize_into(values, &mut out);
        out
    }

    /// Buffer-reusing variant of [`MxPlusFormat::quantize_dequantize`]; allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn quantize_dequantize_into(&self, values: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), values.len(), "output length must equal input length");
        with_codec!(self.element, |codec| {
            for (chunk, out_chunk) in values.chunks(self.block_size).zip(out.chunks_mut(self.block_size)) {
                fake_quantize_block_with(codec, chunk, out_chunk);
            }
        });
    }

    /// Short display name like "MXFP4+".
    #[must_use]
    pub fn name(&self) -> String {
        let base = match self.element {
            ElementType::E2M1 => "MXFP4+",
            ElementType::E2M3 => "MXFP6+",
            ElementType::E3M2 => "MXFP6+ (E3M2)",
            ElementType::E4M3 => "MXFP8+",
            ElementType::E5M2 => "MXFP8+ (E5M2)",
            ElementType::Int8 => "MXINT8+",
            ElementType::Int4 => "MXINT4+",
        };
        if self.block_size == BLOCK_SIZE {
            base.to_string()
        } else {
            format!("{base} (k={})", self.block_size)
        }
    }
}

impl std::fmt::Display for MxPlusFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{fake_quantize_row, MxBlock};

    fn mse(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| ((x - y) * (x - y)) as f64).sum::<f64>() / a.len() as f64
    }

    const FIG6_BLOCK: [f32; 6] = [-0.27, -0.19, 0.99, -0.20, -9.84, -0.39];

    #[test]
    fn figure_6_encoding_example() {
        // MXFP4 turns the outlier -9.84 into -8.0; MXFP4+ recovers -10.0 using the
        // repurposed exponent bits (shared scale stays 2^1).
        let plain = MxBlock::quantize(ElementType::E2M1, &FIG6_BLOCK);
        let plus = MxPlusBlock::quantize(ElementType::E2M1, &FIG6_BLOCK);
        assert_eq!(plain.scale(), plus.scale());
        assert_eq!(plain.dequantize()[4], -8.0);
        assert_eq!(plus.dequantize()[4], -10.0);
        assert_eq!(plus.bm_index(), 4);
        // NBM elements are identical between MX and MX+.
        assert_eq!(plain.dequantize()[..4], plus.dequantize()[..4]);
        assert_eq!(plain.dequantize()[5], plus.dequantize()[5]);
    }

    #[test]
    fn metadata_byte_layout() {
        let plus = MxPlusBlock::quantize(ElementType::E2M1, &FIG6_BLOCK);
        assert_eq!(plus.metadata_byte() & 0x1f, 4);
        assert_eq!(plus.metadata_byte() >> 5, 0);
    }

    #[test]
    fn mx_plus_never_increases_block_error() {
        // Property over a deterministic sweep: MX+ error <= MX error for every block,
        // because only the BM representation changes and it gains mantissa bits.
        for seed in 0..200u32 {
            let values: Vec<f32> = (0..BLOCK_SIZE)
                .map(|i| {
                    let x = ((seed as usize * 131 + i * 2_654_435_761) % 2000) as f32 / 1000.0 - 1.0;
                    if i == (seed as usize % BLOCK_SIZE) && seed % 3 == 0 {
                        x * 50.0
                    } else {
                        x
                    }
                })
                .collect();
            let mx = fake_quantize_row(ElementType::E2M1, BLOCK_SIZE, &values);
            let mxp = MxPlusFormat::MXFP4_PLUS.quantize_dequantize(&values);
            assert!(mse(&values, &mxp) <= mse(&values, &mx) + 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn mx_plus_shared_scale_is_unchanged() {
        for seed in 0..50u32 {
            let values: Vec<f32> =
                (0..BLOCK_SIZE).map(|i| ((seed as usize * 37 + i * 101) % 997) as f32 * 0.013 - 6.0).collect();
            let mx = MxBlock::quantize(ElementType::E2M1, &values);
            let mxp = MxPlusBlock::quantize(ElementType::E2M1, &values);
            if !mx.scale().is_zero_block() {
                assert_eq!(mx.scale(), mxp.scale(), "MX+ must not alter the shared scale");
            }
        }
    }

    #[test]
    fn flush_to_zero_for_tiny_blocks() {
        // BM exponent at or below -127 + emax forces the whole block to zero with the
        // reserved zero scale (Section 4.1).
        let tiny = vec![1.0e-38_f32; BLOCK_SIZE];
        let block = MxPlusBlock::quantize(ElementType::E2M1, &tiny);
        assert!(block.scale().is_zero_block());
        assert_eq!(block.dequantize(), vec![0.0; BLOCK_SIZE]);
    }

    #[test]
    fn all_zero_block() {
        let block = MxPlusBlock::quantize(ElementType::E2M3, &[0.0; 8]);
        assert!(block.scale().is_zero_block());
        assert_eq!(block.dequantize(), vec![0.0; 8]);
        assert_eq!(block.split_bm(), (0.0, 0.0));
    }

    #[test]
    fn bm_effective_precision_matches_figure_7() {
        // MXFP4+ BM is effectively E2M3: within [4, 8) x scale the grid step is scale/2.
        let values = [9.3_f32, 0.1, -0.2, 0.3];
        let block = MxPlusBlock::quantize(ElementType::E2M1, &values);
        let deq = block.dequantize();
        // shared exp = 3 - 2 = 1 -> scale 2; grid step = 2 * 2^2 / 8 = 1.0.
        assert!((deq[0] - 9.0).abs() < 1e-6 || (deq[0] - 10.0).abs() < 1e-6);
        assert!((deq[0] - 9.3).abs() <= 0.5 + 1e-6);
    }

    #[test]
    fn split_bm_reconstructs_bm_and_parts_are_element_representable() {
        for &v in &[9.84_f32, -9.84, 5.1, 7.9, 4.0, -6.3, 12.7] {
            let mut values = vec![0.1_f32; BLOCK_SIZE];
            values[7] = v;
            let block = MxPlusBlock::quantize(ElementType::E2M1, &values);
            let s = block.scale().value();
            let (h, l) = block.split_bm();
            let bm_deq = block.dequantize()[7];
            // BM_H + BM_L == dequantized BM (in the real domain).
            assert!(((h + l) * s - bm_deq).abs() < 1e-5, "v={v}");
            // Both parts are exactly representable in plain E2M1.
            assert_eq!(crate::minifloat::quantize_fp(ElementType::E2M1, h), h, "BM_H for {v}");
            assert_eq!(crate::minifloat::quantize_fp(ElementType::E2M1, l), l, "BM_L for {v}");
        }
    }

    #[test]
    fn average_bits_match_section_4_2() {
        assert_eq!(MxPlusFormat::MXFP4_PLUS.average_bits_per_element(), 4.5);
        assert_eq!(MxPlusFormat::MXFP6_PLUS.average_bits_per_element(), 6.5);
        assert_eq!(MxPlusFormat::MXFP8_PLUS.average_bits_per_element(), 8.5);
    }

    #[test]
    fn storage_bits_include_metadata_byte() {
        let block = MxPlusBlock::quantize(ElementType::E2M1, &[1.0; BLOCK_SIZE]);
        assert_eq!(block.storage_bits(), 32 * 4 + 8 + 8);
    }

    #[test]
    fn from_parts_validates_bm_index() {
        let err = MxPlusBlock::from_parts(ElementType::E2M1, SharedScale::from_exponent(0), 9, 0, vec![0; 4]);
        assert!(err.is_err());
        let ok = MxPlusBlock::from_parts(ElementType::E2M1, SharedScale::from_exponent(0), 3, 0, vec![0; 4]);
        assert!(ok.is_ok());
    }

    #[test]
    fn mxint8_plus_gains_one_fraction_bit_for_bm() {
        // With MXINT8 the BM is stored as +-1.xxxxxx (6 fraction bits); MXINT8+ makes the
        // integer bit implicit and gains a seventh fraction bit (Section 8.2).
        let mut values = vec![0.01_f32; BLOCK_SIZE];
        values[3] = 1.0 + 65.0 / 128.0; // needs 7 fraction bits at scale 1
        let plain = MxBlock::quantize(ElementType::Int8, &values);
        let plus = MxPlusBlock::quantize(ElementType::Int8, &values);
        let e_plain = (plain.dequantize()[3] - values[3]).abs();
        let e_plus = (plus.dequantize()[3] - values[3]).abs();
        assert!(e_plus < e_plain);
        assert!(e_plus < 1e-6);
    }

    #[test]
    fn display_names() {
        assert_eq!(MxPlusFormat::MXFP4_PLUS.to_string(), "MXFP4+");
        assert_eq!(MxPlusFormat::MXFP8_PLUS.to_string(), "MXFP8+");
        assert_eq!(MxPlusFormat::MXINT8_PLUS.to_string(), "MXINT8+");
    }

    #[test]
    fn negative_bm_keeps_sign() {
        let mut values = vec![0.2_f32; BLOCK_SIZE];
        values[11] = -7.7;
        let block = MxPlusBlock::quantize(ElementType::E2M1, &values);
        assert!(block.dequantize()[11] < 0.0);
        let (h, l) = block.split_bm();
        assert!(h <= 0.0 && l <= 0.0);
    }
}
