//! The banded column encode behind [`QuantScheme::quantize_dequantize_columns_into`] and
//! [`QuantScheme::encode_columns`] for MX and MX+.
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
//! [`QuantScheme::encode_columns`]: crate::QuantScheme::encode_columns

use crate::encode::{BlockScale, ElementCodec};
use crate::scale::{abs_finite_bits, floor_log2_bits, SharedScale, MIN_SHARED_EXP};

/// One row of a column-blocked MX/MX+ encode, as [`QuantScheme::encode_columns`] hands
/// it to its visitor. The dequantized value of column `c` is `0.0` when `scales[c]` is
/// [`SharedScale::ZERO_BLOCK`], otherwise the element decode of `codes[c]` (through
/// [`crate::kernels::bm_decode_table`] when `bm_rows[c] == band_row`, through
/// [`crate::kernels::decode_table`] otherwise) times `scales[c].value()`. That is
/// bit-identical to [`QuantScheme::quantize_dequantize_columns_into`].
///
/// [`QuantScheme::encode_columns`]: crate::QuantScheme::encode_columns
/// [`QuantScheme::quantize_dequantize_columns_into`]: crate::QuantScheme::quantize_dequantize_columns_into
#[derive(Debug, Clone, Copy)]
pub struct EncodedRow<'a> {
    /// Index of the row in the matrix.
    pub row: usize,
    /// Index of the row within its band of `block_size` rows.
    pub band_row: usize,
    /// The element code of every column: the extended block-max code in an MX+ block's
    /// block-max row, and code 0 in every block whose scale is the zero-block code.
    pub codes: &'a [u8],
    /// The shared scale of every column's block in this row's band.
    /// [`SharedScale::ZERO_BLOCK`] marks a block that dequantizes to zeros: one without a
    /// non-zero finite element, or an MX+ block flushed below the scale range.
    pub scales: &'a [SharedScale],
    /// Per column, the band row holding the block's block-max element. Only MX+ decodes
    /// that row differently; for plain MX every entry is `usize::MAX`.
    pub bm_rows: &'a [usize],
}

/// One row of the band walk: its values and plain element codes, with the per-column
/// state of its band.
struct BandRow<'a> {
    row: usize,
    band_row: usize,
    values: &'a [f32],
    codes: &'a mut [u8],
    scales: &'a [Option<BlockScale>],
    scale_bits: &'a [SharedScale],
    /// The block-max row of every column; `usize::MAX` (no row) for plain MX.
    bm_rows: &'a [usize],
}

/// Walks every column of the row-major `data` (`cols` wide) in blocks of `block_size`
/// rows — MX blocks, or MX+ blocks when `plus` is set — encoding each row's elements
/// against its column scales and handing the row to `visit`.
fn walk_bands(
    codec: &ElementCodec<false>,
    block_size: usize,
    plus: bool,
    data: &[f32],
    cols: usize,
    mut visit: impl FnMut(BandRow<'_>),
) {
    let emax = codec.element().emax();
    let mut max_bits = vec![0u32; cols];
    let mut scales: Vec<Option<BlockScale>> = vec![None; cols];
    let mut scale_bits = vec![SharedScale::ZERO_BLOCK; cols];
    let mut bm_rows = vec![0usize; cols];
    let mut recips = vec![0.0_f32; cols];
    let mut codes = vec![0u8; cols];
    for (b, rows) in data.chunks(block_size * cols).enumerate() {
        max_bits.fill(0);
        bm_rows.fill(0);
        for (r, row) in rows.chunks_exact(cols).enumerate() {
            for ((max, bm), &v) in max_bits.iter_mut().zip(bm_rows.iter_mut()).zip(row) {
                let a = abs_finite_bits(v);
                if a > *max {
                    *max = a;
                    *bm = r;
                }
            }
        }
        if !plus {
            bm_rows.fill(usize::MAX);
        }
        for (c, &max) in max_bits.iter().enumerate() {
            // Equation 1 on the column block max; MX+ flushes blocks below the scale range.
            let exp = (max != 0).then(|| floor_log2_bits(max) - emax);
            let exp = if plus { exp.filter(|&e| e >= MIN_SHARED_EXP) } else { exp };
            let scale = exp.map(|e| BlockScale::new(SharedScale::from_exponent(e)));
            scales[c] = scale;
            scale_bits[c] = scale.map_or(SharedScale::ZERO_BLOCK, |s| s.scale);
            recips[c] = scale.map_or(0.0, |s| s.recip);
        }
        for (r, row) in rows.chunks_exact(cols).enumerate() {
            codec.encode_scaled_into(row, &recips, &mut codes);
            visit(BandRow {
                row: b * block_size + r,
                band_row: r,
                values: row,
                codes: &mut codes,
                scales: &scales,
                scale_bits: &scale_bits,
                bm_rows: &bm_rows,
            });
        }
    }
}

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
    let mut out_rows = out.chunks_exact_mut(cols);
    walk_bands(codec, block_size, plus, data, cols, |row| {
        let Some(out_row) = out_rows.next() else { return };
        let lanes = row.values.iter().zip(row.codes.iter()).zip(row.scales.iter().zip(row.bm_rows));
        for (o, ((&v, &code), (scale, &bm))) in out_row.iter_mut().zip(lanes) {
            *o = match scale {
                None => 0.0,
                Some(s) if bm == row.band_row => codec.decode_bm(codec.encode_bm_value(v, s)) * s.value,
                Some(s) => codec.decode(code) * s.value,
            };
        }
    });
}

/// Encodes every column of `data` like [`cast_banded`] and hands each row to `visit`
/// as an [`EncodedRow`]: block-max slots carry their extended code and zero blocks
/// code 0.
pub(crate) fn encode_columns(
    codec: &ElementCodec<false>,
    block_size: usize,
    plus: bool,
    data: &[f32],
    cols: usize,
    mut visit: impl FnMut(EncodedRow<'_>),
) {
    walk_bands(codec, block_size, plus, data, cols, |row| {
        for (c, code) in row.codes.iter_mut().enumerate() {
            match &row.scales[c] {
                None => *code = 0,
                Some(s) if row.bm_rows[c] == row.band_row => *code = codec.encode_bm_value(row.values[c], s),
                Some(_) => {}
            }
        }
        visit(EncodedRow {
            row: row.row,
            band_row: row.band_row,
            codes: row.codes,
            scales: row.scale_bits,
            bm_rows: row.bm_rows,
        });
    });
}
