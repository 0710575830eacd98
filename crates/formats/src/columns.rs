//! The banded column cast behind [`QuantScheme::quantize_dequantize_columns_into`] for MX
//! and MX+.
//!
//! Blocks of a weight matrix run down its columns. Gathering one strided column per block
//! touches a new cache line for every element; instead, every band of `block_size` rows
//! is walked twice in memory order. The first pass keeps each column's running block max
//! (and, for MX+, the first row reaching it); the second encodes the band row by row
//! against the per-column scales. Each column's blocks see exactly the values, the block
//! max, the block-max index and the encoder of the row path, so the output is
//! bit-identical to quantizing the transposed rows.
//!
//! [`QuantScheme::quantize_dequantize_columns_into`]: crate::QuantScheme::quantize_dequantize_columns_into

use crate::encode::{BlockScale, ElementCodec};
use crate::scale::{abs_finite_bits, floor_log2_bits, SharedScale, MIN_SHARED_EXP};

/// Fake-quantizes every column of the row-major `data` (`cols` wide) in blocks of
/// `block_size` rows: MX blocks, or MX+ blocks when `plus` is set.
pub(crate) fn cast_banded(
    codec: &ElementCodec<false>,
    block_size: usize,
    plus: bool,
    data: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    let emax = codec.element().emax();
    let mut max_bits = vec![0u32; cols];
    let mut bm_row = vec![0usize; cols];
    let mut scales: Vec<Option<BlockScale>> = vec![None; cols];
    let mut recips = vec![0.0_f32; cols];
    let mut codes = vec![0u8; cols];
    let band_len = block_size * cols;
    for (band, out_band) in data.chunks(band_len).zip(out.chunks_mut(band_len)) {
        max_bits.fill(0);
        bm_row.fill(0);
        for (r, row) in band.chunks_exact(cols).enumerate() {
            for ((max, bm), &v) in max_bits.iter_mut().zip(bm_row.iter_mut()).zip(row) {
                let a = abs_finite_bits(v);
                if a > *max {
                    *max = a;
                    *bm = r;
                }
            }
        }
        for ((scale, recip), &max) in scales.iter_mut().zip(recips.iter_mut()).zip(&max_bits) {
            // Equation 1 on the column block max; MX+ flushes blocks below the scale range.
            let exp = (max != 0).then(|| floor_log2_bits(max) - emax);
            let exp = if plus { exp.filter(|&e| e >= MIN_SHARED_EXP) } else { exp };
            *scale = exp.map(|e| BlockScale::new(SharedScale::from_exponent(e)));
            *recip = scale.map_or(0.0, |s| s.recip);
        }
        for (r, (row, out_row)) in band.chunks_exact(cols).zip(out_band.chunks_exact_mut(cols)).enumerate() {
            codec.encode_scaled_into(row, &recips, &mut codes);
            for ((o, (&v, &code)), (scale, &bm)) in
                out_row.iter_mut().zip(row.iter().zip(&codes)).zip(scales.iter().zip(&bm_row))
            {
                *o = match scale {
                    None => 0.0,
                    Some(s) if plus && bm == r => codec.decode_bm(codec.encode_bm_value(v, s)) * s.value,
                    Some(s) => codec.decode(code) * s.value,
                };
            }
        }
    }
}
