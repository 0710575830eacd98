//! The packed weight operand against the reference: `a.matmul_packed(&PackedMatrix::new(w,
//! s))` must equal `a.matmul(&w.quantize_columns(s))` output for output, under the
//! dispatched kernel and under the forced-scalar portable walk.
//!
//! Shapes cover every row-tile remainder (m in 1..=9), a partial last band (k not a
//! multiple of 32) and a partial last panel (n not a multiple of 16). Weights carry an
//! all-zero column block, signed zeros, a NaN and an infinity; activations carry signed
//! zeros, NaN and runs of zeros. Outputs are compared by bit pattern; NaN outputs only
//! have to be NaN on both sides, because which NaN payload a product propagates is not
//! pinned by the language.

use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;

use mx_formats::kernels::force_scalar;
use mx_formats::QuantScheme;
use mx_tensor::{Matrix, PackedMatrix};

const SCHEMES: [QuantScheme; 7] = [
    QuantScheme::mxfp4(),
    QuantScheme::mxfp4_plus(),
    QuantScheme::mxfp6(),
    QuantScheme::mxfp8(),
    QuantScheme::Nvfp4,
    QuantScheme::Bf16,
    QuantScheme::Fp32,
];

/// Serializes the tests that flip the process-global force-scalar switch.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn value() -> impl Strategy<Value = f32> {
    prop_oneof![
        6 => -3.0_f32..3.0,
        1 => -300.0_f32..300.0,
        2 => Just(0.0_f32),
        1 => Just(-0.0_f32),
    ]
}

/// Bits of every output, with every NaN mapped to one pattern.
fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

fn check(a: &Matrix, w: &Matrix) {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for scheme in SCHEMES {
        for forced in [false, true] {
            force_scalar(forced);
            let cast = w.quantize_columns(scheme);
            let packed = PackedMatrix::new(w, scheme);
            let expected = a.matmul(&cast);
            let actual = a.matmul_packed(&packed);
            let dequantized = packed.dequantize();
            force_scalar(false);
            let (m, k, n) = (a.rows(), w.rows(), w.cols());
            let exact = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(exact(&dequantized), exact(&cast), "dequantize {} forced {}", scheme.name(), forced);
            prop_assert_eq!(
                bits(&actual),
                bits(&expected),
                "{} m {} k {} n {} forced {}",
                scheme.name(),
                m,
                k,
                n,
                forced
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn packed_matmul_is_bit_identical_to_the_reference(
        m in 1usize..=9,
        k in 1usize..=100,
        n in 1usize..=40,
        w_values in prop::collection::vec(value(), 100 * 40),
        a_values in prop::collection::vec(value(), 9 * 100),
        zero_col in 0usize..40,
        specials in prop::collection::vec(0usize..4000, 4),
    ) {
        let mut w = Matrix::from_vec(k, n, w_values[..k * n].to_vec());
        // An all-zero column block (of both signs), then one NaN, one infinity and a -0.
        for r in 0..k.min(32) {
            w.set(r, zero_col % n, if r % 2 == 0 { 0.0 } else { -0.0 });
        }
        for (&at, v) in specials.iter().zip([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]) {
            let at = at % (k * n);
            w.set(at / n, at % n, v);
        }
        let mut a = Matrix::from_vec(m, k, a_values[..m * k].to_vec());
        // A NaN activation turns its whole output row into NaN, so it goes into one
        // random row, or none.
        let nan_row = specials[1] % (m + 1);
        if nan_row < m {
            a.set(nan_row, specials[0] % k, f32::NAN);
        }
        check(&a, &w);
    }
}

#[test]
fn every_tile_remainder_and_tail_is_bit_identical() {
    // Deterministic cover of m = 1..=9 at a k with a 6-row tail band and an n with a
    // 5-column tail panel, with whole zero activation rows and columns.
    let (k, n) = (70, 37);
    let mut w = Matrix::from_fn(k, n, |r, c| {
        let v = ((r * n + c) as f32 * 0.37).sin() * 2.0;
        if r % 23 == 4 {
            v * 40.0
        } else {
            v
        }
    });
    // Non-finite weights on k rows whose activations are all zero (c % 5 == 1 below):
    // they must contribute nothing, as the reference's zero skip guarantees.
    w.set(6, 3, f32::INFINITY);
    w.set(11, 20, f32::NAN);
    for m in 1..=9 {
        let a =
            Matrix::from_fn(m, k, |r, c| if c % 5 == 1 || r == 2 { 0.0 } else { ((r + 3 * c) as f32 * 0.21).cos() });
        check(&a, &w);
    }
}
