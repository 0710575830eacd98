//! Exhaustive pins for the integer element encoders: every one of the 2^32 `f32` bit
//! patterns (NaNs, infinities, signed zeros, subnormals and every rounding tie included)
//! must encode to the same code as the `log2`/`powi` reference, for every floating-point
//! element type, and likewise for the MX+ block-max extended-mantissa encoder.
//!
//! Each test walks 2^32 inputs through both encoders, so they are `#[ignore]`d for the
//! debug tier-1 run. Run them in release:
//!
//! ```text
//! cargo test --release -p mx-formats --test exhaustive_encode -- --ignored
//! ```

use std::thread;

use mx_formats::minifloat::{encode_bm_extended, encode_bm_extended_reference, encode_fp, encode_fp_reference};
use mx_formats::ElementType;

/// Mismatch count and the first mismatching `(bits, fast, reference)` triple.
type Mismatches = (u64, Option<(u32, u8, u8)>);

/// Compares `fast` with `reference` on every `f32` bit pattern, splitting the range into
/// contiguous slices across scoped worker threads.
fn compare_all(fast: impl Fn(f32) -> u8 + Sync, reference: impl Fn(f32) -> u8 + Sync) -> Mismatches {
    let workers = thread::available_parallelism().map_or(1, |n| n.get()).min(16) as u64;
    let span = (1u64 << 32).div_ceil(workers);
    let (fast, reference) = (&fast, &reference);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut found: Mismatches = (0, None);
                    for i in w * span..((w + 1) * span).min(1 << 32) {
                        let x = f32::from_bits(i as u32);
                        let (a, b) = (fast(x), reference(x));
                        if a != b {
                            found.0 += 1;
                            found.1.get_or_insert((i as u32, a, b));
                        }
                    }
                    found
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).fold((0, None), |acc, (n, first)| {
            // Slices are joined in order, so the first slice with a mismatch has the
            // lowest mismatching pattern.
            (acc.0 + n, acc.1.or(first))
        })
    })
}

fn assert_fp_exhaustive(et: ElementType) {
    let (count, first) = compare_all(|x| encode_fp(et, x), |x| encode_fp_reference(et, x));
    assert_eq!(count, 0, "{et}: {count} mismatches; first (bits, fast, reference) = {first:#x?}");
}

fn assert_bm_exhaustive(et: ElementType) {
    // The sign flag only sets the code's top bit; derive it from the pattern so both
    // values are exercised across the sweep.
    let negative = |x: f32| x.to_bits() & 1 == 1;
    let (count, first) =
        compare_all(|x| encode_bm_extended(et, x, negative(x)), |x| encode_bm_extended_reference(et, x, negative(x)));
    assert_eq!(count, 0, "{et} BM: {count} mismatches; first (bits, fast, reference) = {first:#x?}");
}

#[test]
#[ignore = "2^32 inputs; run in release with --ignored"]
fn e2m1_encode_matches_reference_on_every_f32() {
    assert_fp_exhaustive(ElementType::E2M1);
}

#[test]
#[ignore = "2^32 inputs; run in release with --ignored"]
fn e2m3_encode_matches_reference_on_every_f32() {
    assert_fp_exhaustive(ElementType::E2M3);
}

#[test]
#[ignore = "2^32 inputs; run in release with --ignored"]
fn e3m2_encode_matches_reference_on_every_f32() {
    assert_fp_exhaustive(ElementType::E3M2);
}

#[test]
#[ignore = "2^32 inputs; run in release with --ignored"]
fn e4m3_encode_matches_reference_on_every_f32() {
    assert_fp_exhaustive(ElementType::E4M3);
}

#[test]
#[ignore = "2^32 inputs; run in release with --ignored"]
fn e5m2_encode_matches_reference_on_every_f32() {
    assert_fp_exhaustive(ElementType::E5M2);
}

#[test]
#[ignore = "2^32 inputs per element type; run in release with --ignored"]
fn bm_extended_encode_matches_reference_on_every_f32() {
    for et in ElementType::FP_TYPES.into_iter().chain([ElementType::Int8, ElementType::Int4]) {
        assert_bm_exhaustive(et);
    }
}
