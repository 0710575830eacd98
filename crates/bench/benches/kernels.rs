//! Criterion benchmark of the kernel layer: dispatched word/SIMD pack and
//! unpack vs the scalar reference at each packed bit width, and the fused packed-row
//! attention decode vs the forced-scalar materializing pipeline.
//!
//! The `--json <path>` mode replaces the criterion run with deterministic hand-timed
//! sweeps (best-of-N over fixed iteration counts) and writes one throughput entry per
//! label — `pack_4bit`, `unpack_6bit`, `encode_mxfp4`, `matmul_packed_gemv`,
//! `fused_attention_decode`, ... — each carrying the dispatched `throughput`, the
//! `scalar_throughput` reference, and their ratio. The committed `BENCH_kernels.json`
//! baseline and the CI artifact both come from here; `bench_gate` compares the
//! `throughput` field of every baseline label at the same -15% tolerance as the serving
//! snapshot (the encode and packed-matmul labels are not in the baseline, so they are
//! reported but not gated).

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use mx_formats::kernels::{
    active_backend, force_scalar, pack_codes_into, pack_codes_into_scalar, packed_len, unpack_codes_into,
    unpack_codes_into_scalar,
};
use mx_formats::layout::RowCodec;
use mx_formats::QuantScheme;
use mx_llm::weights::ModelWeights;
use mx_llm::{ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TransformerModel};
use mx_tensor::synth::ActivationProfile;
use mx_tensor::{Matrix, PackedMatrix};

/// Codes per pack/unpack call: large enough that the SIMD prefix dominates the tail.
const CODES: usize = 1 << 16;

/// Elements per encode-row call (a few KV rows' worth).
const ENCODE_ROW: usize = 4096;

/// The bit widths the packed KV/weight rows actually use (MXFP4/MXFP6/MXFP8 families).
const WIDTHS: [u32; 3] = [4, 6, 8];

fn sample_codes(bits: u32) -> Vec<u8> {
    let mask = if bits == 8 { 0xff } else { (1u16 << bits) - 1 } as u8;
    (0..CODES).map(|i| ((i * 2_654_435_761) >> 7) as u8 & mask).collect()
}

fn bench_model() -> TransformerModel {
    TransformerModel::new(ModelConfig::tiny_test(17), ModelQuantConfig::a_mxfp4_plus())
}

fn pack_unpack(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_pack_unpack");
    group.sample_size(10);
    for bits in WIDTHS {
        let codes = sample_codes(bits);
        let mut packed = vec![0u8; packed_len(CODES, bits)];
        let mut out = vec![0u8; CODES];
        pack_codes_into_scalar(&codes, bits, &mut packed);

        group.bench_with_input(BenchmarkId::new("pack_dispatched", bits), &bits, |b, &bits| {
            b.iter(|| pack_codes_into(&codes, bits, &mut packed));
        });
        group.bench_with_input(BenchmarkId::new("pack_scalar", bits), &bits, |b, &bits| {
            b.iter(|| pack_codes_into_scalar(&codes, bits, &mut packed));
        });
        group.bench_with_input(BenchmarkId::new("unpack_dispatched", bits), &bits, |b, &bits| {
            b.iter(|| unpack_codes_into(&packed, bits, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("unpack_scalar", bits), &bits, |b, &bits| {
            b.iter(|| unpack_codes_into_scalar(&packed, bits, &mut out));
        });
    }
    group.finish();
}

/// One paged serving run; returns (generated token streams, decoded tokens).
fn paged_run(model: &TransformerModel) -> (Vec<Vec<usize>>, usize) {
    const RESIDENT: usize = 8;
    const PROMPT: usize = 8;
    const NEW_TOKENS: usize = 16;
    let pages = RESIDENT * model.config().layers * (PROMPT + NEW_TOKENS + 1).div_ceil(16);
    let mut engine = ServingEngine::paged(model, pages).with_threads(1);
    for s in 0..RESIDENT {
        let prompt: Vec<usize> = (0..PROMPT).map(|i| (s * 13 + i * 7) % 128).collect();
        engine.submit_with(&prompt, SubmitOptions::new(NEW_TOKENS));
    }
    let report = engine.run();
    assert_eq!(report.generated_tokens, RESIDENT * NEW_TOKENS);
    (engine.sequences().iter().map(|s| s.generated.clone()).collect(), report.generated_tokens)
}

fn fused_attention(c: &mut Criterion) {
    let model = bench_model();
    // The fused path must be a pure optimization: identical tokens with or without it.
    let fused = paged_run(&model);
    force_scalar(true);
    let reference = paged_run(&model);
    force_scalar(false);
    assert_eq!(fused.0, reference.0, "fused attention must not change any token");

    let mut group = c.benchmark_group("fused_attention");
    group.sample_size(10);
    group.bench_function("paged_fused", |b| b.iter(|| paged_run(&model).1));
    group.bench_function("paged_forced_scalar", |b| {
        b.iter(|| {
            force_scalar(true);
            let tokens = paged_run(&model).1;
            force_scalar(false);
            tokens
        });
    });
    group.finish();
}

/// Best-of-`reps` seconds per call of `f`, each rep averaging `iters` calls.
fn best_seconds(mut f: impl FnMut(), iters: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// The `--json` snapshot workload: per-width pack/unpack throughput (dispatched vs
/// scalar, codes/sec), MXFP4/MXFP4+ row encode (integer vs reference encoder,
/// elements/sec), packed-weight GEMV/GEMM (vs `Matrix::matmul`, MACs/sec) and the
/// fused-vs-materializing paged decode (tokens/sec).
fn kernels_snapshot() -> String {
    let mut entries = Vec::new();
    println!("kernel snapshot: dispatch backend `{}`", active_backend().name());
    for bits in WIDTHS {
        let codes = sample_codes(bits);
        let mut packed = vec![0u8; packed_len(CODES, bits)];
        let mut out = vec![0u8; CODES];
        pack_codes_into_scalar(&codes, bits, &mut packed);

        let pack = best_seconds(|| pack_codes_into(&codes, bits, &mut packed), 128, 5);
        let pack_scalar = best_seconds(|| pack_codes_into_scalar(&codes, bits, &mut packed), 16, 5);
        let unpack = best_seconds(|| unpack_codes_into(&packed, bits, &mut out), 128, 5);
        let unpack_scalar = best_seconds(|| unpack_codes_into_scalar(&packed, bits, &mut out), 16, 5);
        let per_sec = |s: f64| CODES as f64 / s;
        entries.push(mx_bench::snapshot::kernel_entry_json(
            &format!("pack_{bits}bit"),
            "codes",
            per_sec(pack),
            per_sec(pack_scalar),
        ));
        entries.push(mx_bench::snapshot::kernel_entry_json(
            &format!("unpack_{bits}bit"),
            "codes",
            per_sec(unpack),
            per_sec(unpack_scalar),
        ));
        println!(
            "kernels {bits}-bit: pack {:.0}x scalar, unpack {:.0}x scalar",
            pack_scalar / pack,
            unpack_scalar / unpack
        );
    }

    // The f32 -> code encode (integer bit-pattern encoder) vs the forced-scalar
    // log2/powi reference, through the packed-row encoder of the KV cache. Reported in
    // the snapshot only; the committed baseline does not gate these labels.
    let row: Vec<f32> = (0..ENCODE_ROW).map(|i| (((i * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0).powi(3)).collect();
    for (label, scheme) in [("encode_mxfp4", QuantScheme::mxfp4()), ("encode_mxfp4plus", QuantScheme::mxfp4_plus())] {
        let codec = RowCodec::for_scheme(scheme);
        let mut packed = vec![0u8; codec.packed_bytes(row.len())];
        let fast = best_seconds(|| codec.pack_row_into(&row, &mut packed), 64, 5);
        force_scalar(true);
        let reference = best_seconds(|| codec.pack_row_into(&row, &mut packed), 8, 5);
        force_scalar(false);
        let per_sec = |s: f64| ENCODE_ROW as f64 / s;
        entries.push(mx_bench::snapshot::kernel_entry_json(label, "elements", per_sec(fast), per_sec(reference)));
        println!(
            "{label}: {:.1} ns/element, {:.1}x the reference encoder",
            fast * 1e9 / ENCODE_ROW as f64,
            reference / fast
        );
    }

    // Packed MXFP4 weights (4-bit codes decoded in registers) against the reference
    // `Matrix::matmul` on the dequantized weights, over the 29 weight matrices of the
    // Llama-3.1-8B analogue with MXFP4+ activations: one row (decode GEMV) and 64 rows
    // (prefill GEMM). Bit identity is asserted before timing. Reported in the snapshot
    // only; the committed baseline does not gate these labels.
    let weights = ModelWeights::generate(&ModelConfig::llama31_8b());
    let mats: Vec<&Matrix> = weights
        .layers
        .iter()
        .flat_map(|l| [&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down])
        .chain([&weights.lm_head])
        .collect();
    let cast: Vec<Matrix> = mats.iter().map(|w| w.quantize_columns(QuantScheme::mxfp4())).collect();
    let packed: Vec<PackedMatrix> = mats.iter().map(|w| PackedMatrix::new(w, QuantScheme::mxfp4())).collect();
    for (label, rows, iters) in [("matmul_packed_gemv", 1, 32), ("matmul_packed_gemm64", 64, 2)] {
        let inputs: Vec<Matrix> = mats
            .iter()
            .map(|w| ActivationProfile::llm(w.rows(), 3).sample(rows, 4).quantize_rows(QuantScheme::mxfp4_plus()))
            .collect();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ((x, c), p) in inputs.iter().zip(&cast).zip(&packed) {
            assert_eq!(bits(&x.matmul_packed(p)), bits(&x.matmul(c)), "{label}: packed matmul diverges");
        }
        let pairs = || inputs.iter().zip(cast.iter().zip(&packed));
        let macs: usize = mats.iter().map(|w| rows * w.rows() * w.cols()).sum();
        let fast = best_seconds(|| pairs().for_each(|(x, (_, p))| drop(black_box(x.matmul_packed(p)))), iters, 5);
        let dense = best_seconds(|| pairs().for_each(|(x, (c, _))| drop(black_box(x.matmul(c)))), iters, 5);
        let per_sec = |s: f64| macs as f64 / s;
        entries.push(mx_bench::snapshot::kernel_entry_json(label, "macs", per_sec(fast), per_sec(dense)));
        println!(
            "{label}: {:.3} ms per pass over the model's weights, {:.2}x Matrix::matmul",
            fast * 1e3,
            dense / fast
        );
    }

    let model = bench_model();
    let tokens = paged_run(&model).1 as f64;
    let fused = best_seconds(|| drop(paged_run(&model)), 1, 3);
    force_scalar(true);
    let reference = best_seconds(|| drop(paged_run(&model)), 1, 3);
    force_scalar(false);
    entries.push(mx_bench::snapshot::kernel_entry_json(
        "fused_attention_decode",
        "tokens",
        tokens / fused,
        tokens / reference,
    ));
    println!("fused attention decode: {:.2}x the forced-scalar pipeline", reference / fused);

    mx_bench::snapshot::document_json("kernels", &entries)
}

criterion_group!(benches, pack_unpack, fused_attention);

fn main() {
    // `--json <path>` replaces the criterion run with the deterministic hand-timed
    // sweep that produces the committed `BENCH_kernels.json` baseline.
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let path = args.next().expect("--json requires a file path");
            std::fs::write(&path, kernels_snapshot()).expect("write --json snapshot");
            println!("wrote kernel throughput snapshot to {path}");
            return;
        }
    }
    benches();
}
