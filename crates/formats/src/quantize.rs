//! The high-level quantization-scheme selector used by the model-quality experiments.
//!
//! Every format in the paper's evaluation — the BF16 baseline, the BFP variants, the MX
//! family and the MX+ / MX++ / NVFP4+ extensions — is exposed as a variant of
//! [`QuantScheme`] with one uniform `quantize_dequantize` entry point, so the LLM, DNN and
//! baseline crates can sweep over formats without knowing their internals.

use serde::{Deserialize, Serialize};

use crate::bf16::round_to_bf16;
use crate::block::BLOCK_SIZE;
use crate::columns::{self, EncodedRow};
use crate::element::ElementType;
use crate::encode::ElementCodec;
use crate::msfp::MsfpFormat;
use crate::mxfp::MxFormat;
use crate::mxplus::MxPlusFormat;
use crate::mxpp::fake_quantize_row_pp_into;
use crate::nvfp::nvfp4_quantize_dequantize_into;
use crate::smx::SmxFormat;
use crate::topk::quantize_row_topk;

/// A quantization scheme applicable to a tensor row (the last, contiguous dimension).
///
/// ```
/// use mx_formats::QuantScheme;
///
/// let row = vec![0.1_f32, -0.7, 3.3, 0.02, -9.1, 0.5, 0.25, -0.125];
/// for scheme in [QuantScheme::Fp32, QuantScheme::Bf16, QuantScheme::mxfp4(),
///                QuantScheme::mxfp4_plus(), QuantScheme::mxfp4_pp()] {
///     assert_eq!(scheme.quantize_dequantize(&row).len(), row.len());
/// }
/// assert_eq!(QuantScheme::Fp32.quantize_dequantize(&row), row);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum QuantScheme {
    /// No quantization (FP32 reference).
    Fp32,
    /// Bfloat16 rounding (the paper's baseline "B").
    Bf16,
    /// A plain MX-compliant format (MXFP4/6/8, MXINT8/4).
    Mx(MxFormat),
    /// An MX+ format (MXFP4+/6+/8+, MXINT8+/4+).
    MxPlus(MxPlusFormat),
    /// An MX++ format (decoupled NBM scale), parameterised by element type.
    MxPlusPlus(ElementType),
    /// A Microsoft Floating Point format (MSFP12/14/16).
    Msfp(MsfpFormat),
    /// A shared-microexponents format (SMX4/6/9).
    Smx(SmxFormat),
    /// NVIDIA NVFP4.
    Nvfp4,
    /// NVFP4 with the MX+-style BM extension (NVFP4+).
    Nvfp4Plus,
    /// Hybrid top-k blocks: the k largest elements of every block in MXFP6, others MXFP4.
    TopK(usize),
}

impl QuantScheme {
    /// MXFP4 (E2M1, 32-element blocks).
    #[must_use]
    pub const fn mxfp4() -> Self {
        QuantScheme::Mx(MxFormat::MXFP4)
    }
    /// MXFP6 with E2M3 elements.
    #[must_use]
    pub const fn mxfp6() -> Self {
        QuantScheme::Mx(MxFormat::MXFP6_E2M3)
    }
    /// MXFP8 with E4M3 elements.
    #[must_use]
    pub const fn mxfp8() -> Self {
        QuantScheme::Mx(MxFormat::MXFP8_E4M3)
    }
    /// MXINT8.
    #[must_use]
    pub const fn mxint8() -> Self {
        QuantScheme::Mx(MxFormat::MXINT8)
    }
    /// The hypothetical MXINT4.
    #[must_use]
    pub const fn mxint4() -> Self {
        QuantScheme::Mx(MxFormat::MXINT4)
    }
    /// MXFP4+.
    #[must_use]
    pub const fn mxfp4_plus() -> Self {
        QuantScheme::MxPlus(MxPlusFormat::MXFP4_PLUS)
    }
    /// MXFP6+.
    #[must_use]
    pub const fn mxfp6_plus() -> Self {
        QuantScheme::MxPlus(MxPlusFormat::MXFP6_PLUS)
    }
    /// MXFP8+.
    #[must_use]
    pub const fn mxfp8_plus() -> Self {
        QuantScheme::MxPlus(MxPlusFormat::MXFP8_PLUS)
    }
    /// MXINT8+.
    #[must_use]
    pub const fn mxint8_plus() -> Self {
        QuantScheme::MxPlus(MxPlusFormat::MXINT8_PLUS)
    }
    /// MXINT4+.
    #[must_use]
    pub const fn mxint4_plus() -> Self {
        QuantScheme::MxPlus(MxPlusFormat::MXINT4_PLUS)
    }
    /// MXFP4++.
    #[must_use]
    pub const fn mxfp4_pp() -> Self {
        QuantScheme::MxPlusPlus(ElementType::E2M1)
    }

    /// All schemes compared in Figure 2 (BF16 baseline plus the three bit-width tiers of
    /// MX, SMX and MSFP).
    #[must_use]
    pub fn figure2_schemes() -> Vec<(String, QuantScheme)> {
        vec![
            ("BF16".into(), QuantScheme::Bf16),
            ("MXFP8 (e4m3)".into(), QuantScheme::mxfp8()),
            ("MXFP6 (e2m3)".into(), QuantScheme::mxfp6()),
            ("MXFP4 (e2m1)".into(), QuantScheme::mxfp4()),
            ("SMX9".into(), QuantScheme::Smx(SmxFormat::SMX9)),
            ("SMX6".into(), QuantScheme::Smx(SmxFormat::SMX6)),
            ("SMX4".into(), QuantScheme::Smx(SmxFormat::SMX4)),
            ("MSFP16".into(), QuantScheme::Msfp(MsfpFormat::MSFP16)),
            ("MSFP14".into(), QuantScheme::Msfp(MsfpFormat::MSFP14)),
            ("MSFP12".into(), QuantScheme::Msfp(MsfpFormat::MSFP12)),
        ]
    }

    /// All MX / MX+ schemes compared in Tables 2 and 3.
    #[must_use]
    pub fn table2_schemes() -> Vec<(String, QuantScheme)> {
        vec![
            ("BF16".into(), QuantScheme::Bf16),
            ("MXFP8+".into(), QuantScheme::mxfp8_plus()),
            ("MXFP8".into(), QuantScheme::mxfp8()),
            ("MXFP6+".into(), QuantScheme::mxfp6_plus()),
            ("MXFP6".into(), QuantScheme::mxfp6()),
            ("MXFP4++".into(), QuantScheme::mxfp4_pp()),
            ("MXFP4+".into(), QuantScheme::mxfp4_plus()),
            ("MXFP4".into(), QuantScheme::mxfp4()),
        ]
    }

    /// Fake-quantizes a row with this scheme.
    #[must_use]
    pub fn quantize_dequantize(&self, values: &[f32]) -> Vec<f32> {
        match self {
            QuantScheme::Fp32 => values.to_vec(),
            QuantScheme::Msfp(f) => f.quantize_dequantize(values),
            QuantScheme::Smx(f) => f.quantize_dequantize(values),
            QuantScheme::TopK(k) => quantize_row_topk(*k, values).values,
            _ => {
                let mut out = vec![0.0; values.len()];
                self.quantize_dequantize_into(values, &mut out);
                out
            }
        }
    }

    /// Buffer-reusing variant of [`QuantScheme::quantize_dequantize`]: writes the
    /// fake-quantized row into `out` so per-row callers (KV-cache appends, activation
    /// quantization, weight casts) can reuse one scratch buffer instead of allocating a
    /// `Vec` per row.
    ///
    /// BF16 and the whole MX family (MX, MX+, MX++, NVFP4, NVFP4+) quantize in place and
    /// allocate nothing; only MSFP, SMX and top-k fall back to their allocating kernel and
    /// copy the result into `out`. The two entry points always agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn quantize_dequantize_into(&self, values: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), values.len(), "output length must equal input length");
        match self {
            QuantScheme::Fp32 => out.copy_from_slice(values),
            QuantScheme::Bf16 => {
                for (o, &v) in out.iter_mut().zip(values) {
                    *o = round_to_bf16(v);
                }
            }
            QuantScheme::Mx(f) => f.quantize_dequantize_into(values, out),
            QuantScheme::MxPlus(f) => f.quantize_dequantize_into(values, out),
            QuantScheme::MxPlusPlus(et) => fake_quantize_row_pp_into(*et, BLOCK_SIZE, values, out),
            QuantScheme::Nvfp4 => nvfp4_quantize_dequantize_into(values, false, out),
            QuantScheme::Nvfp4Plus => nvfp4_quantize_dequantize_into(values, true, out),
            QuantScheme::Msfp(_) | QuantScheme::Smx(_) | QuantScheme::TopK(_) => {
                out.copy_from_slice(&self.quantize_dequantize(values));
            }
        }
    }

    /// Fake-quantizes every *column* of the row-major matrix `data` (`cols` wide), i.e.
    /// blocks run down the columns — the layout of a weight matrix whose reduction
    /// dimension is its rows. Bit-identical to transposing, quantizing the rows with
    /// [`QuantScheme::quantize_dequantize_into`] and transposing back.
    ///
    /// MX and MX+ take a banded cast: for each band of `block_size` rows, one row-major
    /// pass finds every column's block max (and MX+ block-max row), then the band is
    /// encoded row by row, so the matrix is read in memory order instead of one strided
    /// column at a time. Other schemes, and forced-scalar mode, gather each column into
    /// a scratch buffer and quantize it as a row.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != data.len()`, or if `cols == 0` while `data` is non-empty,
    /// or if `data.len()` is not a multiple of `cols`.
    pub fn quantize_dequantize_columns_into(&self, data: &[f32], cols: usize, out: &mut [f32]) {
        assert_eq!(out.len(), data.len(), "output length must equal input length");
        if data.is_empty() {
            return;
        }
        assert!(cols > 0 && data.len().is_multiple_of(cols), "data must hold whole rows of {cols} columns");
        let fast = !crate::kernels::scalar_forced();
        match self {
            QuantScheme::Fp32 => out.copy_from_slice(data),
            QuantScheme::Mx(f) if fast => {
                columns::cast_banded(&ElementCodec::<false>::new(f.element), f.block_size, false, data, cols, out);
            }
            QuantScheme::MxPlus(f) if fast => {
                columns::cast_banded(&ElementCodec::<false>::new(f.element), f.block_size, true, data, cols, out);
            }
            _ => {
                let rows = data.len() / cols;
                let mut column = vec![0.0_f32; rows];
                let mut quantized = vec![0.0_f32; rows];
                for c in 0..cols {
                    for (r, slot) in column.iter_mut().enumerate() {
                        *slot = data[r * cols + c];
                    }
                    self.quantize_dequantize_into(&column, &mut quantized);
                    for (r, &q) in quantized.iter().enumerate() {
                        out[r * cols + c] = q;
                    }
                }
            }
        }
    }

    /// Encodes every column of the row-major `data` (`cols` wide) into MX or MX+ element
    /// codes and shared scales, blocked down the columns exactly as
    /// [`QuantScheme::quantize_dequantize_columns_into`] blocks them, and hands the rows
    /// to `visit` in order (see [`EncodedRow`] for how they decode). This is the banded
    /// cast without the decode: a packed weight operand is built from it without an
    /// `f32` copy of the cast matrix. Always runs the bit-pattern encoder, whose codes
    /// the forced-scalar reference reproduces bit for bit.
    ///
    /// Returns `false`, visiting nothing, for schemes other than MX and MX+.
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0` while `data` is non-empty, or if `data.len()` is not a
    /// multiple of `cols`.
    pub fn encode_columns(&self, data: &[f32], cols: usize, visit: impl FnMut(EncodedRow<'_>)) -> bool {
        let (element, block_size, plus) = match self {
            QuantScheme::Mx(f) => (f.element, f.block_size, false),
            QuantScheme::MxPlus(f) => (f.element, f.block_size, true),
            _ => return false,
        };
        if data.is_empty() {
            return true;
        }
        assert!(cols > 0 && data.len().is_multiple_of(cols), "data must hold whole rows of {cols} columns");
        columns::encode_columns(&ElementCodec::<false>::new(element), block_size, plus, data, cols, visit);
        true
    }

    /// Average storage bits per element of the scheme (used by the bandwidth model).
    #[must_use]
    pub fn average_bits_per_element(&self) -> f64 {
        match self {
            QuantScheme::Fp32 => 32.0,
            QuantScheme::Bf16 => 16.0,
            QuantScheme::Mx(f) => f.average_bits_per_element(),
            QuantScheme::MxPlus(f) => f.average_bits_per_element(),
            QuantScheme::MxPlusPlus(et) => f64::from(et.bits()) + 16.0 / BLOCK_SIZE as f64,
            QuantScheme::Msfp(f) => f.average_bits_per_element(),
            QuantScheme::Smx(f) => f.average_bits_per_element(),
            QuantScheme::Nvfp4 => 4.0 + 8.0 / 16.0,
            QuantScheme::Nvfp4Plus => 4.0 + 12.0 / 16.0,
            QuantScheme::TopK(k) => {
                // Per 32-element block: every element carries at least the MXFP4 (E2M1)
                // width plus the shared-scale byte; the k promoted elements additionally
                // pay the E2M1->E2M3 width difference and a log2(block) index each so the
                // decoder can locate them.
                let k = (*k).min(BLOCK_SIZE) as f64;
                let low = f64::from(ElementType::E2M1.bits());
                let high = f64::from(ElementType::E2M3.bits());
                let index_bits = (BLOCK_SIZE as f64).log2().ceil();
                low + (8.0 + k * (high - low) + k * index_bits) / BLOCK_SIZE as f64
            }
        }
    }

    /// Human-readable name matching the paper's tables.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            QuantScheme::Fp32 => "FP32".into(),
            QuantScheme::Bf16 => "BF16".into(),
            QuantScheme::Mx(f) => f.name(),
            QuantScheme::MxPlus(f) => f.name(),
            QuantScheme::MxPlusPlus(et) => match et {
                ElementType::E2M1 => "MXFP4++".into(),
                ElementType::E2M3 => "MXFP6++".into(),
                ElementType::E4M3 => "MXFP8++".into(),
                other => format!("MX++ ({other})"),
            },
            QuantScheme::Msfp(f) => f.name(),
            QuantScheme::Smx(f) => f.name(),
            QuantScheme::Nvfp4 => "NVFP4".into(),
            QuantScheme::Nvfp4Plus => "NVFP4+".into(),
            QuantScheme::TopK(k) => format!("Top-{k} (MXFP6/MXFP4)"),
        }
    }

    /// Whether the scheme is lossless for values already representable in BF16
    /// (used by tests and by the baseline path selection).
    #[must_use]
    pub fn is_lossless_baseline(&self) -> bool {
        matches!(self, QuantScheme::Fp32 | QuantScheme::Bf16)
    }
}

impl std::fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A weight/activation quantization configuration for one matrix multiplication, matching
/// the paper's "A-x, W-y" notation (e.g. `A-MXFP4+` uses MXFP4+ for activations and MXFP4
/// for weights).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatmulQuantConfig {
    /// Scheme applied to the activation operand.
    pub activations: QuantScheme,
    /// Scheme applied to the weight operand.
    pub weights: QuantScheme,
}

impl MatmulQuantConfig {
    /// Both operands in BF16 (the paper's baseline).
    pub const BASELINE: MatmulQuantConfig =
        MatmulQuantConfig { activations: QuantScheme::Bf16, weights: QuantScheme::Bf16 };

    /// Uniform configuration: the same scheme for activations and weights.
    #[must_use]
    pub const fn uniform(scheme: QuantScheme) -> Self {
        MatmulQuantConfig { activations: scheme, weights: scheme }
    }

    /// The paper's A-MXFP4+ configuration: MXFP4+ activations, MXFP4 weights.
    #[must_use]
    pub const fn a_mxfp4_plus() -> Self {
        MatmulQuantConfig { activations: QuantScheme::mxfp4_plus(), weights: QuantScheme::mxfp4() }
    }

    /// The paper's A8W4 configuration: MXFP8 activations, MXFP4 weights.
    #[must_use]
    pub const fn a8w4() -> Self {
        MatmulQuantConfig { activations: QuantScheme::mxfp8(), weights: QuantScheme::mxfp4() }
    }

    /// Display name like "A-MXFP4+, W-MXFP4".
    #[must_use]
    pub fn name(&self) -> String {
        if self.activations == self.weights {
            self.activations.name()
        } else {
            format!("A-{}, W-{}", self.activations.name(), self.weights.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn activations(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = ((i * 2_654_435_761_usize) % 2001) as f32 / 1000.0 - 1.0;
                let v = u * u * u;
                if i % 96 == 11 {
                    v * 55.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn fp32_is_identity_and_bf16_is_idempotent() {
        let row = activations(128);
        assert_eq!(QuantScheme::Fp32.quantize_dequantize(&row), row);
        let bf = QuantScheme::Bf16.quantize_dequantize(&row);
        assert_eq!(QuantScheme::Bf16.quantize_dequantize(&bf), bf);
    }

    #[test]
    fn all_schemes_preserve_length_and_finiteness() {
        let row = activations(200);
        let schemes = [
            QuantScheme::Fp32,
            QuantScheme::Bf16,
            QuantScheme::mxfp4(),
            QuantScheme::mxfp6(),
            QuantScheme::mxfp8(),
            QuantScheme::mxint8(),
            QuantScheme::mxint4(),
            QuantScheme::mxfp4_plus(),
            QuantScheme::mxfp6_plus(),
            QuantScheme::mxfp8_plus(),
            QuantScheme::mxfp4_pp(),
            QuantScheme::Msfp(MsfpFormat::MSFP12),
            QuantScheme::Smx(SmxFormat::SMX6),
            QuantScheme::Nvfp4,
            QuantScheme::Nvfp4Plus,
            QuantScheme::TopK(2),
        ];
        for s in schemes {
            let q = s.quantize_dequantize(&row);
            assert_eq!(q.len(), row.len(), "{s}");
            assert!(q.iter().all(|v| v.is_finite()), "{s}");
        }
    }

    #[test]
    fn quality_ordering_matches_paper_headline() {
        // The paper's headline ordering on outlier-bearing activations:
        // MXFP4 << MXFP4+ <= MXFP4++ <= MXFP6 <= MXFP8 <= BF16.
        let row = activations(8192);
        let e = |s: QuantScheme| mse(&row, &s.quantize_dequantize(&row));
        let e_fp4 = e(QuantScheme::mxfp4());
        let e_fp4p = e(QuantScheme::mxfp4_plus());
        let e_fp4pp = e(QuantScheme::mxfp4_pp());
        let e_fp6 = e(QuantScheme::mxfp6());
        let e_fp8 = e(QuantScheme::mxfp8());
        let e_bf16 = e(QuantScheme::Bf16);
        assert!(e_fp4p < e_fp4 * 0.7, "MX+ should cut MXFP4 error substantially: {e_fp4p} vs {e_fp4}");
        assert!(e_fp4pp <= e_fp4p * 1.05);
        assert!(e_fp6 < e_fp4);
        assert!(e_fp8 < e_fp6);
        assert!(e_bf16 < e_fp8);
    }

    #[test]
    fn average_bits_are_sensible() {
        assert_eq!(QuantScheme::mxfp4().average_bits_per_element(), 4.25);
        assert_eq!(QuantScheme::mxfp4_plus().average_bits_per_element(), 4.5);
        assert_eq!(QuantScheme::mxfp4_pp().average_bits_per_element(), 4.5);
        assert_eq!(QuantScheme::Nvfp4.average_bits_per_element(), 4.5);
        assert_eq!(QuantScheme::Bf16.average_bits_per_element(), 16.0);
    }

    #[test]
    fn topk_bits_account_for_promoted_elements_and_indices() {
        // Per 32-block: 32 x 4-bit base + 8-bit scale + per promoted element 2 extra
        // mantissa bits (E2M1 -> E2M3) and a 5-bit index.
        assert_eq!(QuantScheme::TopK(0).average_bits_per_element(), 4.25);
        assert_eq!(QuantScheme::TopK(1).average_bits_per_element(), 4.25 + 7.0 / 32.0);
        assert_eq!(QuantScheme::TopK(2).average_bits_per_element(), 4.6875);
        // The hybrid must cost strictly more than plain MXFP4 and less than full MXFP6.
        let k2 = QuantScheme::TopK(2).average_bits_per_element();
        assert!(k2 > QuantScheme::mxfp4().average_bits_per_element());
        assert!(k2 < QuantScheme::mxfp6().average_bits_per_element());
        // k saturates at the block size instead of growing without bound.
        assert_eq!(QuantScheme::TopK(64).average_bits_per_element(), QuantScheme::TopK(32).average_bits_per_element());
    }

    #[test]
    fn quantize_into_matches_allocating_path_for_all_schemes() {
        let row = activations(200);
        let schemes = [
            QuantScheme::Fp32,
            QuantScheme::Bf16,
            QuantScheme::mxfp4(),
            QuantScheme::mxfp6(),
            QuantScheme::mxfp8(),
            QuantScheme::mxint8(),
            QuantScheme::mxfp4_plus(),
            QuantScheme::mxfp4_pp(),
            QuantScheme::Msfp(MsfpFormat::MSFP12),
            QuantScheme::Smx(SmxFormat::SMX6),
            QuantScheme::Nvfp4,
            QuantScheme::Nvfp4Plus,
            QuantScheme::TopK(2),
        ];
        let mut scratch = vec![0.0_f32; row.len()];
        for s in schemes {
            scratch.fill(f32::NAN);
            s.quantize_dequantize_into(&row, &mut scratch);
            assert_eq!(scratch, s.quantize_dequantize(&row), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn quantize_into_validates_length() {
        QuantScheme::mxfp4().quantize_dequantize_into(&[1.0; 8], &mut [0.0; 9]);
    }

    #[test]
    fn names_match_paper_nomenclature() {
        assert_eq!(QuantScheme::mxfp4().name(), "MXFP4");
        assert_eq!(QuantScheme::mxfp4_plus().name(), "MXFP4+");
        assert_eq!(QuantScheme::mxfp4_pp().name(), "MXFP4++");
        assert_eq!(QuantScheme::Nvfp4Plus.name(), "NVFP4+");
        assert_eq!(MatmulQuantConfig::a_mxfp4_plus().name(), "A-MXFP4+, W-MXFP4");
        assert_eq!(MatmulQuantConfig::uniform(QuantScheme::mxfp4()).name(), "MXFP4");
    }

    #[test]
    fn scheme_lists_are_complete() {
        assert_eq!(QuantScheme::figure2_schemes().len(), 10);
        assert_eq!(QuantScheme::table2_schemes().len(), 8);
    }

    #[test]
    fn baseline_flag() {
        assert!(QuantScheme::Bf16.is_lossless_baseline());
        assert!(!QuantScheme::mxfp4().is_lossless_baseline());
    }
}
