//! Weight operands stored the way MX hardware stores them, multiplied without an `f32`
//! copy of the cast weights.
//!
//! A [`PackedMatrix`] holds a `(k, n)` weight matrix direct-cast with a [`QuantScheme`]
//! along its reduction dimension (as [`Matrix::quantize_columns`] does), in panels of
//! [`PANEL_WIDTH`] output columns:
//!
//! - **MX and MX+ with E2M1 elements** (MXFP4, MXFP4+) keep their 4-bit codes: 8 bytes
//!   of codes per k-row of a panel, one E8M0 scale byte per (block, column) and, for
//!   MX+, one byte naming the block-max row, whose element decodes through
//!   [`kernels::bm_decode_table`]. About 4.25 bits per weight (4.5 for MX+).
//! - **Every other scheme** keeps the dequantized `f32` values in the same panel layout
//!   (the [`mx_formats::RowCodec`] fallback precedent), so one kernel serves both.
//!
//! The codes and scales come straight from [`QuantScheme::encode_columns`]; no `f32`
//! cast matrix is built. [`Matrix::matmul_packed`] keeps an R-row by 16-column tile of
//! accumulators in registers over all of k, decodes each panel row once and applies it
//! to every row of the tile with a separate multiply and add, k ascending. Every output
//! is therefore bit-identical to `a.matmul(&w.quantize_columns(scheme))`: the same
//! products of the same values summed in the same order. A zero activation contributes
//! nothing on either side. The tile skips the k rows where all its activations are ±0;
//! elsewhere a zero activation's product is ±0 (E2M1 weights are finite; `f32` panels
//! mask it to `+0.0`), and adding ±0 changes no accumulator because one that starts at
//! `+0.0` can never become `-0.0`.
//!
//! On x86_64 with AVX2 the decode runs in vector registers (a nibble unpack, an 8-entry
//! `permutevar8x32` magnitude lookup, the sign bit and the scale). Every other backend,
//! and [`kernels::force_scalar`] / `MX_FORCE_SCALAR_KERNELS`, runs the portable panel
//! walk, which is the reference.
//!
//! ```
//! use mx_formats::QuantScheme;
//! use mx_tensor::{Matrix, PackedMatrix};
//!
//! let w = Matrix::from_fn(64, 32, |r, c| ((r * 32 + c) as f32 * 0.37).sin());
//! let a = Matrix::from_fn(3, 64, |r, c| ((r + c) as f32 * 0.11).cos());
//! let packed = PackedMatrix::new(&w, QuantScheme::mxfp4_plus());
//! assert_eq!(a.matmul_packed(&packed), a.matmul(&w.quantize_columns(QuantScheme::mxfp4_plus())));
//! // 4 bits of code, 8 of scale and 8 of block-max row per 32 weights: 4.5 bits each.
//! assert_eq!(packed.resident_bytes(), 64 * 32 * 9 / 16);
//! ```

use mx_formats::kernels::{self, KernelBackend};
use mx_formats::{ElementType, EncodedRow, QuantScheme};
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Output columns per panel.
pub const PANEL_WIDTH: usize = 16;

/// Bytes of 4-bit codes per k-row of a panel.
const CODE_BYTES: usize = PANEL_WIDTH / 2;

/// A weight matrix direct-cast once and stored in column panels (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    panels: Panels,
}

#[derive(Debug, Clone, PartialEq)]
enum Panels {
    /// E2M1 codes of an MX or MX+ cast.
    Fp4(Fp4Panels),
    /// Dequantized values: per panel, `rows` rows of [`PANEL_WIDTH`] values.
    F32(Vec<f32>),
}

#[derive(Debug, Clone, PartialEq)]
struct Fp4Panels {
    block: usize,
    bands: usize,
    /// Per panel, `rows` rows of [`CODE_BYTES`] bytes: byte `j` holds column `j`'s code
    /// in its low nibble and column `j + 8`'s in its high nibble.
    codes: Vec<u8>,
    /// Per panel and band of `block` rows, the E8M0 scale byte of each column's block
    /// (0, the zero-block code, dequantizes the block to zeros).
    scales: Vec<u8>,
    /// MX+ only, empty for MX: per panel and band, the row within the band that holds
    /// each column's block max.
    bm_rows: Vec<u8>,
}

/// Which decoder a panel row goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decode {
    F32,
    Mx,
    MxPlus,
}

/// One panel's slices of a [`PackedMatrix`].
#[derive(Clone, Copy)]
struct Panel<'a> {
    block: usize,
    values: &'a [f32],
    codes: &'a [u8],
    scales: &'a [u8],
    bm_rows: &'a [u8],
}

impl PackedMatrix {
    /// Direct-casts `weights` (shape `(k, n)`, blocked down its columns) with `scheme`
    /// and packs it: 4-bit codes for E2M1 MX/MX+ schemes with blocks of at most 256
    /// rows, dequantized `f32` panels otherwise.
    #[must_use]
    pub fn new(weights: &Matrix, scheme: QuantScheme) -> Self {
        let (rows, cols) = weights.shape();
        let panels = match Fp4Panels::encode(weights, scheme) {
            Some(fp4) => Panels::Fp4(fp4),
            None => Panels::F32(dequantized_panels(weights, scheme)),
        };
        PackedMatrix { rows, cols, panels }
    }

    /// Bytes of weight storage: codes, scales and block-max rows, or the `f32` panels
    /// (a partly filled last panel counts whole).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        match &self.panels {
            Panels::Fp4(p) => p.codes.len() + p.scales.len() + p.bm_rows.len(),
            Panels::F32(values) => std::mem::size_of_val(values.as_slice()),
        }
    }

    /// The cast weights as a dense matrix, bit-identical to
    /// `weights.quantize_columns(scheme)`.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut row = [0.0_f32; PANEL_WIDTH];
        for p in 0..self.cols.div_ceil(PANEL_WIDTH) {
            let (panel, decode) = self.panel(p);
            let c0 = p * PANEL_WIDTH;
            let width = PANEL_WIDTH.min(self.cols - c0);
            for r in 0..self.rows {
                decode_row(decode, panel, r, &mut row);
                out.row_mut(r)[c0..c0 + width].copy_from_slice(&row[..width]);
            }
        }
        out
    }

    /// Rows per scale band: the block size of a code cast, all of k for `f32` panels.
    fn block(&self) -> usize {
        match &self.panels {
            Panels::Fp4(fp4) => fp4.block,
            Panels::F32(_) => self.rows.max(1),
        }
    }

    /// Panel `p` and its decoder.
    fn panel(&self, p: usize) -> (Panel<'_>, Decode) {
        let k = self.rows;
        match &self.panels {
            Panels::F32(values) => {
                let values = &values[p * k * PANEL_WIDTH..(p + 1) * k * PANEL_WIDTH];
                (Panel { block: self.block(), values, codes: &[], scales: &[], bm_rows: &[] }, Decode::F32)
            }
            Panels::Fp4(fp4) => {
                let band_bytes = fp4.bands * PANEL_WIDTH;
                let plus = !fp4.bm_rows.is_empty();
                let panel = Panel {
                    block: fp4.block,
                    values: &[],
                    codes: &fp4.codes[p * k * CODE_BYTES..(p + 1) * k * CODE_BYTES],
                    scales: &fp4.scales[p * band_bytes..(p + 1) * band_bytes],
                    bm_rows: if plus { &fp4.bm_rows[p * band_bytes..(p + 1) * band_bytes] } else { &[] },
                };
                (panel, if plus { Decode::MxPlus } else { Decode::Mx })
            }
        }
    }

    /// `a * self`; see [`Matrix::matmul_packed`].
    pub(crate) fn left_multiply(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.cols(), self.rows, "inner dimensions must match");
        let (m, k, n) = (a.rows(), self.rows, self.cols);
        let mut out = Matrix::zeros(m, n);
        let avx2 = cfg!(target_arch = "x86_64") && kernels::active_backend() == KernelBackend::Avx2;
        let mut acc = [[0.0_f32; PANEL_WIDTH]; TILE_ROWS];
        let mut interleaved = vec![0.0_f32; TILE_ROWS.min(m) * k];
        let mut live = LiveRows { k, block: self.block(), rows: Vec::with_capacity(k), band_ends: Vec::new() };
        for i0 in (0..m).step_by(TILE_ROWS) {
            let tile = TILE_ROWS.min(m - i0);
            // The tile's activations k-major, so each k step reads its `tile` values from
            // one place.
            let a_tile = &mut interleaved[..tile * k];
            for i in 0..tile {
                for (slot, &v) in a_tile.iter_mut().skip(i).step_by(tile).zip(a.row(i0 + i)) {
                    *slot = v;
                }
            }
            live.collect(a_tile, tile);
            for p in 0..n.div_ceil(PANEL_WIDTH) {
                let (panel, decode) = self.panel(p);
                if avx2 {
                    // SAFETY: the AVX2 backend is only selected after runtime detection
                    // of AVX2 on this CPU.
                    #[cfg(target_arch = "x86_64")]
                    unsafe {
                        x86::tile(a_tile, &live, panel, decode, &mut acc[..tile]);
                    }
                } else {
                    portable_tile(a_tile, &live, panel, decode, &mut acc[..tile]);
                }
                let c0 = p * PANEL_WIDTH;
                let width = PANEL_WIDTH.min(n - c0);
                for (i, row) in acc[..tile].iter().enumerate() {
                    out.row_mut(i0 + i)[c0..c0 + width].copy_from_slice(&row[..width]);
                }
            }
        }
        out
    }
}

/// Activation rows one register tile carries.
const TILE_ROWS: usize = 4;

/// The k rows a tile of activations visits: those where at least one of its activations
/// is non-zero (NaN counts as non-zero), ascending, split into bands of `block` rows.
/// Rows where every activation is ±0 contribute nothing to any output (the reference
/// skips them too), so the kernels walk this list instead of branching per panel.
struct LiveRows {
    k: usize,
    block: usize,
    rows: Vec<usize>,
    /// One entry per band of `block` rows of k: the end of that band's rows in `rows`.
    band_ends: Vec<usize>,
}

impl LiveRows {
    /// Collects the live rows of the k-major `a_tile` holding `tile` activation rows.
    fn collect(&mut self, a_tile: &[f32], tile: usize) {
        assert_eq!(a_tile.len(), tile * self.k, "activation tile shape");
        self.rows.clear();
        self.band_ends.clear();
        for (r, a) in a_tile.chunks_exact(tile).enumerate() {
            if r > 0 && r % self.block == 0 {
                self.band_ends.push(self.rows.len());
            }
            if a.iter().any(|&v| v != 0.0) {
                self.rows.push(r);
            }
        }
        if self.k > 0 {
            self.band_ends.push(self.rows.len());
        }
    }

    /// Each band's first row and its live rows.
    fn bands(&self) -> impl Iterator<Item = (usize, &[usize])> {
        let starts = std::iter::once(0).chain(self.band_ends.iter().copied());
        starts.zip(&self.band_ends).enumerate().map(|(b, (start, &end))| (b * self.block, &self.rows[start..end]))
    }
}

impl Fp4Panels {
    /// Packs the E2M1 codes of an MX/MX+ cast, or returns `None` for other schemes.
    fn encode(weights: &Matrix, scheme: QuantScheme) -> Option<Self> {
        let (block, plus) = match scheme {
            QuantScheme::Mx(f) if f.element == ElementType::E2M1 => (f.block_size, false),
            QuantScheme::MxPlus(f) if f.element == ElementType::E2M1 => (f.block_size, true),
            _ => return None,
        };
        if block == 0 || block > 256 {
            return None;
        }
        let (k, n) = weights.shape();
        let panels = n.div_ceil(PANEL_WIDTH);
        let bands = k.div_ceil(block);
        let band_bytes = panels * bands * PANEL_WIDTH;
        let mut fp4 = Fp4Panels {
            block,
            bands,
            codes: vec![0; panels * k * CODE_BYTES],
            scales: vec![0; band_bytes],
            bm_rows: if plus { vec![0; band_bytes] } else { Vec::new() },
        };
        scheme.encode_columns(weights.data(), n, |row: EncodedRow<'_>| {
            for p in 0..panels {
                let c0 = p * PANEL_WIDTH;
                let code = |j: usize| row.codes.get(c0 + j).map_or(0, |&c| c & 0x0f);
                let bytes = &mut fp4.codes[(p * k + row.row) * CODE_BYTES..][..CODE_BYTES];
                for (j, byte) in bytes.iter_mut().enumerate() {
                    *byte = code(j) | code(j + CODE_BYTES) << 4;
                }
                if row.band_row == 0 {
                    let at = (p * bands + row.row / block) * PANEL_WIDTH;
                    for j in 0..PANEL_WIDTH.min(n - c0) {
                        fp4.scales[at + j] = row.scales[c0 + j].to_bits();
                        if plus {
                            fp4.bm_rows[at + j] = row.bm_rows[c0 + j] as u8;
                        }
                    }
                }
            }
        });
        Some(fp4)
    }
}

/// The column-cast values of `weights` in panel layout, one panel at a time through a
/// `(k, PANEL_WIDTH)` gather (columns are cast independently, so this is bit-identical
/// to casting the whole matrix).
fn dequantized_panels(weights: &Matrix, scheme: QuantScheme) -> Vec<f32> {
    let (k, n) = weights.shape();
    let mut values = vec![0.0_f32; n.div_ceil(PANEL_WIDTH) * k * PANEL_WIDTH];
    if k == 0 {
        return values;
    }
    let mut gathered = vec![0.0_f32; k * PANEL_WIDTH];
    for (p, out) in values.chunks_exact_mut(k * PANEL_WIDTH).enumerate() {
        let c0 = p * PANEL_WIDTH;
        let width = PANEL_WIDTH.min(n - c0);
        gathered.fill(0.0);
        for (r, dst) in gathered.chunks_exact_mut(PANEL_WIDTH).enumerate() {
            dst[..width].copy_from_slice(&weights.row(r)[c0..c0 + width]);
        }
        scheme.quantize_dequantize_columns_into(&gathered, PANEL_WIDTH, out);
    }
    values
}

/// The E8M0 scale byte as an `f32`: the biased exponent is the f32 exponent field, and
/// byte 0 (the zero-block code) is `0.0`.
#[inline(always)]
fn scale_value(byte: u8) -> f32 {
    f32::from_bits(u32::from(byte) << 23)
}

/// Decodes row `r` of a panel into `out`.
#[inline(always)]
fn decode_row(decode: Decode, panel: Panel<'_>, r: usize, out: &mut [f32; PANEL_WIDTH]) {
    if decode == Decode::F32 {
        out.copy_from_slice(&panel.values[r * PANEL_WIDTH..(r + 1) * PANEL_WIDTH]);
        return;
    }
    let table = kernels::decode_table(ElementType::E2M1);
    let bm_table = kernels::bm_decode_table(ElementType::E2M1);
    let (band, band_row) = (r / panel.block, r % panel.block);
    let scales = &panel.scales[band * PANEL_WIDTH..(band + 1) * PANEL_WIDTH];
    let codes = &panel.codes[r * CODE_BYTES..(r + 1) * CODE_BYTES];
    for (j, o) in out.iter_mut().enumerate() {
        let code = usize::from(codes[j % CODE_BYTES] >> (4 * (j / CODE_BYTES)) & 0x0f);
        let bm = decode == Decode::MxPlus && usize::from(panel.bm_rows[band * PANEL_WIDTH + j]) == band_row;
        *o = if bm { bm_table[code] } else { table[code] } * scale_value(scales[j]);
    }
}

/// The portable tile: `acc[i] = a[i] * panel` for the `R = acc.len()` activation rows
/// held k-major in `a_tile` (`a_tile[r * R + i]` is row `i`'s value at k = r), one
/// decoded panel row at a time over the live rows.
fn portable_tile(a_tile: &[f32], live: &LiveRows, panel: Panel<'_>, decode: Decode, acc: &mut [[f32; PANEL_WIDTH]]) {
    for row in acc.iter_mut() {
        *row = [0.0; PANEL_WIDTH];
    }
    let rows = acc.len();
    let mut w = [0.0_f32; PANEL_WIDTH];
    for &r in &live.rows {
        decode_row(decode, panel, r, &mut w);
        for (row, &a) in acc.iter_mut().zip(&a_tile[r * rows..(r + 1) * rows]) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in row.iter_mut().zip(&w) {
                *o += a * b;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 tile: two 8-lane accumulators per activation row, panel rows decoded in
    //! registers.

    use std::arch::x86_64::*;

    use mx_formats::kernels;
    use mx_formats::ElementType;

    use super::{Decode, LiveRows, Panel, CODE_BYTES, PANEL_WIDTH};

    /// [`super::portable_tile`] on AVX2, bit for bit.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    ///
    /// # Panics
    ///
    /// Panics unless `acc` holds 1 to 4 rows, `a_tile` holds that many values for each
    /// of the `live.k` rows, and `panel` holds `live.k` rows of its kind in bands of
    /// `live.block` rows.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile(
        a_tile: &[f32],
        live: &LiveRows,
        panel: Panel<'_>,
        decode: Decode,
        acc: &mut [[f32; PANEL_WIDTH]],
    ) {
        let (rows, k) = (acc.len(), live.k);
        assert!((1..=4).contains(&rows) && a_tile.len() == rows * k, "activation tile shape");
        let band_bytes = live.band_ends.len() * PANEL_WIDTH;
        assert!(live.block == panel.block && live.band_ends.len() == k.div_ceil(live.block), "live row bands");
        assert!(
            match decode {
                Decode::F32 => panel.values.len() >= k * PANEL_WIDTH,
                Decode::Mx => panel.codes.len() >= k * CODE_BYTES && panel.scales.len() >= band_bytes,
                Decode::MxPlus => {
                    panel.codes.len() >= k * CODE_BYTES
                        && panel.scales.len() >= band_bytes
                        && panel.bm_rows.len() >= band_bytes
                }
            },
            "panel holds k rows"
        );
        // SAFETY: AVX2 is available per this function's contract, and the assertions
        // above (with `LiveRows`' rows all below `live.k`) establish the shapes
        // `tile_rows` reads; every arm passes the row count it was matched on.
        unsafe {
            match (rows, decode) {
                (1, Decode::F32) => tile_rows::<1, 0>(a_tile, live, panel, acc),
                (1, Decode::Mx) => tile_rows::<1, 1>(a_tile, live, panel, acc),
                (1, Decode::MxPlus) => tile_rows::<1, 2>(a_tile, live, panel, acc),
                (2, Decode::F32) => tile_rows::<2, 0>(a_tile, live, panel, acc),
                (2, Decode::Mx) => tile_rows::<2, 1>(a_tile, live, panel, acc),
                (2, Decode::MxPlus) => tile_rows::<2, 2>(a_tile, live, panel, acc),
                (3, Decode::F32) => tile_rows::<3, 0>(a_tile, live, panel, acc),
                (3, Decode::Mx) => tile_rows::<3, 1>(a_tile, live, panel, acc),
                (3, Decode::MxPlus) => tile_rows::<3, 2>(a_tile, live, panel, acc),
                (_, Decode::F32) => tile_rows::<4, 0>(a_tile, live, panel, acc),
                (_, Decode::Mx) => tile_rows::<4, 1>(a_tile, live, panel, acc),
                (_, Decode::MxPlus) => tile_rows::<4, 2>(a_tile, live, panel, acc),
            }
        }
    }

    /// `R` activation rows, k-major in `a_tile`, against one panel over the live rows.
    /// `KIND` is the decoder: 0 = `f32` panel, 1 = MX E2M1 codes, 2 = MX+ E2M1 codes
    /// with the block-max lane.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `acc.len() == R`, `a_tile.len() == R * live.k` and
    /// `panel` holds `live.k` rows of its kind (checked by [`tile`]).
    #[target_feature(enable = "avx2")]
    unsafe fn tile_rows<const R: usize, const KIND: u8>(
        a_tile: &[f32],
        live: &LiveRows,
        panel: Panel<'_>,
        acc: &mut [[f32; PANEL_WIDTH]],
    ) {
        // E2M1 codes 0..=7 are the magnitudes; bit 3 is the sign, and the table's
        // negative half is the positive half with the f32 sign bit set.
        let table = kernels::decode_table(ElementType::E2M1);
        let bm_table = kernels::bm_decode_table(ElementType::E2M1);
        // SAFETY: both tables hold 256 entries, so the first 8 are in bounds.
        let (lut, bm_lut) = unsafe { (_mm256_loadu_ps(table.as_ptr()), _mm256_loadu_ps(bm_table.as_ptr())) };
        let nibble = _mm256_set1_epi32(0x0f);
        let sign_bit = _mm256_set1_epi32(0x08);
        let zero = _mm256_setzero_ps();
        let mut lo = [zero; R];
        let mut hi = [zero; R];
        let mut scale = [zero; 2];
        let mut bm = [_mm256_setzero_si256(); 2];
        for (band, (r0, rows)) in live.bands().enumerate() {
            if KIND != 0 {
                let at = band * PANEL_WIDTH;
                // SAFETY: `panel.scales` (and for MX+ `panel.bm_rows`) hold PANEL_WIDTH
                // bytes for each of the bands of k; each load reads 8 of the band's 16.
                unsafe {
                    let s = panel.scales.as_ptr().add(at);
                    let load = |p: *const u8| _mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast()));
                    scale = [
                        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(load(s))),
                        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(load(s.add(8)))),
                    ];
                    if KIND == 2 {
                        let b = panel.bm_rows.as_ptr().add(at);
                        bm = [load(b), load(b.add(8))];
                    }
                }
            }
            for &r in rows {
                // SAFETY: `a_tile` holds R values for each of the k rows and live rows
                // are below k.
                let a = unsafe { a_tile.as_ptr().add(r * R) };
                // Half `h` (columns 8h..8h + 8) of panel row r.
                let half = |h: usize| {
                    if KIND == 0 {
                        // SAFETY: the f32 panel holds PANEL_WIDTH values per row, r < k.
                        return unsafe { _mm256_loadu_ps(panel.values.as_ptr().add(r * PANEL_WIDTH + 8 * h)) };
                    }
                    // SAFETY: the code panel holds CODE_BYTES (8) bytes per row, r < k.
                    let v = unsafe {
                        _mm256_cvtepu8_epi32(_mm_loadl_epi64(panel.codes.as_ptr().add(r * CODE_BYTES).cast()))
                    };
                    let codes = if h == 0 { _mm256_and_si256(v, nibble) } else { _mm256_srli_epi32::<4>(v) };
                    let mut mag = _mm256_permutevar8x32_ps(lut, codes);
                    if KIND == 2 {
                        let at_row = _mm256_set1_epi32((r - r0) as i32);
                        let is_bm = _mm256_castsi256_ps(_mm256_cmpeq_epi32(bm[h], at_row));
                        mag = _mm256_blendv_ps(mag, _mm256_permutevar8x32_ps(bm_lut, codes), is_bm);
                    }
                    let sign = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(_mm256_and_si256(codes, sign_bit)));
                    _mm256_mul_ps(_mm256_or_ps(mag, sign), scale[h])
                };
                // A live row can still hold zeros in some of the tile's rows. Decoded
                // E2M1 weights are finite (at most 7.5 * 2^125), so a zero activation's
                // product is ±0 and leaves the accumulator unchanged; only f32 panels,
                // which may hold infinities and NaNs, need the zero mask.
                let apply = |acc: &mut [__m256; R], w: __m256| {
                    for (i, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `i < R`, so the value is in bounds.
                        let av = unsafe { _mm256_broadcast_ss(&*a.add(i)) };
                        let mut product = _mm256_mul_ps(av, w);
                        if KIND == 0 && R > 1 {
                            product = _mm256_and_ps(product, _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero));
                        }
                        *acc = _mm256_add_ps(*acc, product);
                    }
                };
                apply(&mut lo, half(0));
                apply(&mut hi, half(1));
            }
        }
        for (row, (l, h)) in acc.iter_mut().zip(lo.iter().zip(&hi)) {
            // SAFETY: each accumulator row holds PANEL_WIDTH (16) f32s: 8 per store.
            unsafe {
                _mm256_storeu_ps(row.as_mut_ptr(), *l);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), *h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2m1_tables_split_into_magnitude_and_sign_bit() {
        // The AVX2 decode looks up `code & 7` and ORs bit 3 into the f32 sign bit.
        for table in [kernels::decode_table(ElementType::E2M1), kernels::bm_decode_table(ElementType::E2M1)] {
            for code in 0..8 {
                assert_eq!(table[code].to_bits() & 0x8000_0000, 0);
                assert_eq!(table[code | 8].to_bits(), table[code].to_bits() | 0x8000_0000);
            }
        }
    }

    #[test]
    fn storage_is_4_25_bits_under_mxfp4_and_4_5_under_mxfp4_plus() {
        let w = Matrix::from_fn(96, 48, |r, c| ((r * 48 + c) as f32 * 0.13).sin());
        let f32_bytes = 96 * 48 * 4;
        let mx = PackedMatrix::new(&w, QuantScheme::mxfp4());
        let plus = PackedMatrix::new(&w, QuantScheme::mxfp4_plus());
        assert_eq!(mx.resident_bytes() * 32, f32_bytes * 17 / 4);
        assert_eq!(plus.resident_bytes() * 32, f32_bytes * 9 / 2);
        for scheme in [QuantScheme::Bf16, QuantScheme::mxfp6(), QuantScheme::Nvfp4] {
            assert_eq!(PackedMatrix::new(&w, scheme).resident_bytes(), f32_bytes, "{}", scheme.name());
        }
    }

    #[test]
    fn degenerate_shapes_multiply_to_zeros() {
        for (m, k, n) in [(0, 5, 3), (2, 0, 3), (2, 5, 0), (0, 0, 0)] {
            let w = Matrix::from_fn(k, n, |r, c| (r + c) as f32 - 2.0);
            let a = Matrix::from_fn(m, k, |r, c| (r * 2 + c) as f32);
            for scheme in [QuantScheme::mxfp4_plus(), QuantScheme::Fp32] {
                let packed = PackedMatrix::new(&w, scheme);
                assert_eq!(a.matmul_packed(&packed), a.matmul(&w.quantize_columns(scheme)));
                assert_eq!(packed.dequantize(), w.quantize_columns(scheme));
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dimension_panics() {
        let packed = PackedMatrix::new(&Matrix::zeros(8, 4), QuantScheme::mxfp4());
        let _ = Matrix::zeros(1, 7).matmul_packed(&packed);
    }
}
