//! Property tests pinning the dispatched pack/unpack kernels bit-exact against the
//! scalar reference: every bit width (1..=8) × row lengths including partial tail
//! bytes × forced-scalar vs auto dispatch, plus the `RowCodec` round trip and the fused
//! block walk under both dispatch modes.
//!
//! The forced-scalar cases flip a process-global switch, so everything that toggles it
//! runs under one mutex; concurrently running tests see identical *outputs* either way
//! (that equality is exactly what this suite proves), only backend identity assertions
//! need the serialization.

use proptest::prelude::*;
use std::sync::Mutex;

use mx_formats::kernels::{
    self, active_backend, force_scalar, pack_codes_into, pack_codes_into_scalar, packed_len, unpack_codes_into,
    unpack_codes_into_scalar, KernelBackend,
};
use mx_formats::layout::RowCodec;
use mx_formats::QuantScheme;

static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn with_forced_scalar<T>(f: impl FnOnce() -> T) -> T {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    force_scalar(true);
    let result = f();
    force_scalar(false);
    result
}

/// Deterministic pseudo-random codes masked to `bits` wide, so a failing case is
/// reproducible from the printed `(bits, len, seed)` triple alone.
fn codes_for(bits: u32, len: usize, seed: u64) -> Vec<u8> {
    let mask = if bits == 8 { 0xff } else { (1u16 << bits) - 1 } as u8;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as u8) & mask
        })
        .collect()
}

fn any_len() -> impl Strategy<Value = usize> {
    // Lengths straddle the SIMD vector widths (32/64 codes) and include partial tails.
    prop_oneof![0usize..=8, 28usize..=36, 60usize..=68, 120usize..=132, Just(1024), Just(1031)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dispatched_pack_unpack_matches_scalar(bits in 1u32..=8, len in any_len(), seed in 0u64..1_000_000) {
        let codes = codes_for(bits, len, seed);
        let nb = packed_len(codes.len(), bits);
        let mut reference = vec![0u8; nb];
        pack_codes_into_scalar(&codes, bits, &mut reference);
        let mut packed = vec![0xaa_u8; nb];
        pack_codes_into(&codes, bits, &mut packed);
        prop_assert_eq!(&packed, &reference, "pack bits {} len {}", bits, codes.len());

        let mut unpacked = vec![0xaa_u8; codes.len()];
        unpack_codes_into(&packed, bits, &mut unpacked);
        let mut unpacked_ref = vec![0u8; codes.len()];
        unpack_codes_into_scalar(&reference, bits, &mut unpacked_ref);
        prop_assert_eq!(&unpacked, &unpacked_ref);
        prop_assert_eq!(&unpacked, &codes, "round trip bits {} len {}", bits, codes.len());
    }

    #[test]
    fn forced_scalar_and_auto_dispatch_produce_identical_bytes(bits in 1u32..=8, len in any_len(), seed in 0u64..1_000_000) {
        let codes = codes_for(bits, len, seed);
        let nb = packed_len(codes.len(), bits);
        let mut auto_packed = vec![0u8; nb];
        pack_codes_into(&codes, bits, &mut auto_packed);
        let mut auto_unpacked = vec![0u8; codes.len()];
        unpack_codes_into(&auto_packed, bits, &mut auto_unpacked);

        let (forced_packed, forced_unpacked) = with_forced_scalar(|| {
            let mut p = vec![0u8; nb];
            pack_codes_into(&codes, bits, &mut p);
            let mut u = vec![0u8; codes.len()];
            unpack_codes_into(&p, bits, &mut u);
            (p, u)
        });
        prop_assert_eq!(auto_packed, forced_packed);
        prop_assert_eq!(auto_unpacked, forced_unpacked);
    }

    #[test]
    fn row_codec_bytes_and_decode_are_dispatch_invariant(
        seed in 0u64..1_000_000,
        len in prop_oneof![1usize..=8, 28usize..=36, 60usize..=68, 120usize..=132],
        scheme_idx in 0usize..8,
    ) {
        let schemes = [
            QuantScheme::mxfp4(),
            QuantScheme::mxfp6(),
            QuantScheme::mxfp8(),
            QuantScheme::mxint4(),
            QuantScheme::mxint8(),
            QuantScheme::mxfp4_plus(),
            QuantScheme::mxfp6_plus(),
            QuantScheme::mxfp8_plus(),
        ];
        let scheme = schemes[scheme_idx];
        let row: Vec<f32> = (0..len)
            .map(|i| {
                let x = (seed.wrapping_mul(2_654_435_761).wrapping_add(i as u64 * 97) % 2001) as f32;
                (x / 1000.0 - 1.0) * if i % 13 == 7 { 30.0 } else { 1.0 }
            })
            .collect();
        let codec = RowCodec::for_scheme(scheme);
        let expected = scheme.quantize_dequantize(&row);

        let mut auto_packed = vec![0u8; codec.packed_bytes(len)];
        codec.pack_row_into(&row, &mut auto_packed);
        let mut auto_out = vec![f32::NAN; len];
        codec.unpack_row_into(&auto_packed, &mut auto_out);
        prop_assert_eq!(&auto_out, &expected, "{} len {}", scheme, len);

        // The fused block walk must reproduce the same bits, in ascending block order.
        // Whether it engages follows the global switch, so it runs under the lock.
        let mut walked = vec![f32::NAN; len];
        let fused = {
            let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            codec.walk_row_blocks(&auto_packed, len, |start, vals| {
                walked[start..start + vals.len()].copy_from_slice(vals);
            })
        };
        prop_assert!(fused);
        prop_assert_eq!(
            walked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let (forced_packed, forced_out, forced_fused) = with_forced_scalar(|| {
            let mut p = vec![0u8; codec.packed_bytes(len)];
            codec.pack_row_into(&row, &mut p);
            let mut o = vec![f32::NAN; len];
            codec.unpack_row_into(&p, &mut o);
            let fused = codec.walk_row_blocks(&p, len, |_, _| {});
            (p, o, fused)
        });
        prop_assert_eq!(auto_packed, forced_packed, "packed bytes must be dispatch-invariant");
        prop_assert_eq!(auto_out, forced_out);
        prop_assert!(!forced_fused, "forced scalar must disable the fused walk");
    }
}

#[test]
fn forced_scalar_switch_is_observable() {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    force_scalar(false);
    let auto = active_backend();
    force_scalar(true);
    assert_eq!(active_backend(), KernelBackend::Scalar);
    assert!(kernels::scalar_forced());
    force_scalar(false);
    assert_eq!(active_backend(), auto);
}
