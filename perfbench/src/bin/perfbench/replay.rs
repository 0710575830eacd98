//! Replays of single layers, timed from outside through their public functions at the
//! operand shapes of the served model: `formats` (quantize-dequantize, row pack/unpack),
//! `paging` (KV append), `tensor` (GEMV, GEMM, row/column quantization, vector ops) and
//! `eval` (reference and quantized perplexity passes).

use std::hint::black_box;
use std::time::Instant;

use mx_formats::{QuantScheme, RowCodec};
use mx_llm::eval::{Dataset, EvalSettings, PerplexityEvaluator};
use mx_llm::{ModelConfig, ModelQuantConfig, PagePool, PagedKvCache, TransformerModel};
use mx_tensor::synth::ActivationProfile;
use mx_tensor::{kernels, Matrix};

use crate::spans::Tracer;
use crate::util::{ns_per_call, since, Rng};

/// Per-operation costs of the layers below the model, in nanoseconds unless named.
pub struct LayerOps {
    pub qdq_mx_ns: f64,
    pub qdq_plus_ns: f64,
    pub pack_ns: f64,
    pub unpack_ns: f64,
    pub append_ns: f64,
    pub gemv_ns_per_mac: f64,
    pub gemm_ns_per_mac: f64,
    pub quantize_rows_ns: f64,
    pub quantize_columns_ms: f64,
    pub vector_ns_per_token: f64,
    norm_rope_ns: f64,
    softmax_ns_per_elem: f64,
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.unit() * 2.0 - 1.0) as f32 * 0.05)
}

/// The linear projections of one token through one layer, plus the LM head, as
/// `(in, out)` shapes.
fn linear_shapes(cfg: &ModelConfig) -> Vec<(usize, usize)> {
    let kv = cfg.head_dim() * cfg.kv_heads;
    let (h, i) = (cfg.hidden, cfg.intermediate);
    let mut per_layer = vec![(h, h), (h, kv), (h, kv), (h, h), (h, i), (i, h)];
    if matches!(cfg.mlp, mx_llm::config::MlpKind::GatedSilu) {
        per_layer.push((h, i));
    }
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    for _ in 0..cfg.layers {
        shapes.extend_from_slice(&per_layer);
    }
    shapes.push((h, cfg.vocab));
    shapes
}

/// Activation elements quantized per token, excluding the attention probabilities.
fn activation_elems(cfg: &ModelConfig) -> f64 {
    let per_layer = 4 * cfg.hidden + cfg.intermediate; // qkv in, q row, o in, mlp in, down in
    (cfg.layers * per_layer + cfg.hidden) as f64
}

/// Times every replayed operation once, at the served model's shapes: `gemm_rows` rows
/// for the prefill GEMM and `decode_ctx` cached positions for the decode vector ops.
pub fn layer_ops(model: &TransformerModel, gemm_rows: usize, decode_ctx: f64, tracer: &mut Tracer) -> LayerOps {
    let cfg = model.config();
    let quant = model.quant();
    let act = quant.linear.activations;
    let kv_dim = cfg.head_dim() * cfg.kv_heads;
    let mut rng = Rng::new(0x1a7e5);
    let acts = ActivationProfile::llm(cfg.hidden, 7).sample(64, 1);
    let mut out = vec![0.0f32; cfg.hidden];

    let qdq = |scheme: QuantScheme, out: &mut Vec<f32>| {
        ns_per_call(20, || {
            for r in 0..acts.rows() {
                scheme.quantize_dequantize_into(black_box(acts.row(r)), out);
            }
            black_box(&out);
        }) / (acts.rows() * acts.cols()) as f64
    };
    let qdq_mx_ns = tracer.time("formats.qdq.mxfp4", || qdq(QuantScheme::mxfp4(), &mut out));
    let qdq_plus_ns = tracer.time("formats.qdq.mxfp4plus", || qdq(QuantScheme::mxfp4_plus(), &mut out));

    let codec = RowCodec::for_scheme(quant.kv_cache);
    let kv_rows = ActivationProfile::llm(kv_dim, 11).sample(64, 2);
    let mut packed = vec![0u8; codec.packed_bytes(kv_dim)];
    let mut unpacked = vec![0.0f32; kv_dim];
    let pack_ns = tracer.time("formats.pack_row", || {
        ns_per_call(200, || {
            for r in 0..kv_rows.rows() {
                codec.pack_row_into(black_box(kv_rows.row(r)), &mut packed);
            }
            black_box(&packed);
        }) / kv_rows.rows() as f64
    });
    let unpack_ns = tracer.time("formats.unpack_row", || {
        ns_per_call(20_000, || {
            codec.unpack_row_into(black_box(&packed), &mut unpacked);
            black_box(&unpacked);
        })
    });

    let append_ns = tracer.time("paging.append", || {
        let positions = 1024;
        let pool = PagePool::for_kv_rows(positions / 16 + 1, 16, codec, kv_dim).shared();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut cache =
                PagedKvCache::new(&pool, 1, kv_dim, quant.kv_cache, positions).expect("replay pool fits the cache");
            let t = Instant::now();
            for p in 0..positions {
                let row = kv_rows.row(p % kv_rows.rows());
                cache.append(0, black_box(row), black_box(row));
            }
            best = best.min(t.elapsed().as_nanos() as f64 / positions as f64);
        }
        best
    });

    let shapes = linear_shapes(cfg);
    let weights: Vec<Matrix> = shapes.iter().map(|&(i, o)| random_matrix(i, o, &mut rng)).collect();
    let matmul_ns_per_mac = |rows: usize, iters: usize| {
        let inputs: Vec<Matrix> =
            shapes.iter().map(|&(i, _)| ActivationProfile::llm(i, 3).sample(rows, 4).quantize_rows(act)).collect();
        let macs: usize = shapes.iter().map(|&(i, o)| rows * i * o).sum();
        ns_per_call(iters, || {
            for (x, w) in inputs.iter().zip(&weights) {
                black_box(black_box(x).matmul(w));
            }
        }) / macs as f64
    };
    let gemv_ns_per_mac = tracer.time("tensor.gemv", || matmul_ns_per_mac(1, 20));
    let gemm_ns_per_mac = tracer.time("tensor.gemm", || matmul_ns_per_mac(gemm_rows, 1));

    let rows = ActivationProfile::llm(cfg.hidden, 5).sample(gemm_rows, 6);
    let quantize_rows_ns = tracer.time("tensor.quantize_rows", || {
        ns_per_call(3, || {
            black_box(black_box(&rows).quantize_rows(act));
        }) / (gemm_rows * cfg.hidden) as f64
    });
    let w = &weights[4];
    let quantize_columns_ms = tracer.time("tensor.quantize_columns", || {
        ns_per_call(1, || {
            black_box(black_box(w).quantize_columns(quant.linear.weights));
        }) / 1e6
    });

    let gain = vec![1.0f32; cfg.hidden];
    let x = acts.row(0).to_vec();
    let mut head = vec![0.5f32; cfg.head_dim()];
    let norm_rope_ns = tracer.time("tensor.norm_rope", || {
        ns_per_call(200, || {
            for _ in 0..2 * cfg.layers + 1 {
                black_box(kernels::rmsnorm(black_box(&x), &gain, 1e-6));
            }
            for p in 0..cfg.layers * (cfg.heads + cfg.kv_heads) {
                kernels::apply_rope(black_box(&mut head), p, cfg.rope_theta);
            }
        })
    });
    let mut scores: Vec<f32> = (0..1024).map(|i| (i % 17) as f32 * 0.1).collect();
    let softmax_ns_per_elem = tracer.time("tensor.softmax", || {
        ns_per_call(200, || {
            kernels::softmax_inplace(black_box(&mut scores));
        }) / scores.len() as f64
    });
    let vector_ns_per_token = norm_rope_ns + softmax_ns_per_elem * (cfg.layers * cfg.heads) as f64 * decode_ctx;

    LayerOps {
        qdq_mx_ns,
        qdq_plus_ns,
        pack_ns,
        unpack_ns,
        append_ns,
        gemv_ns_per_mac,
        gemm_ns_per_mac,
        quantize_rows_ns,
        quantize_columns_ms,
        vector_ns_per_token,
        norm_rope_ns,
        softmax_ns_per_elem,
    }
}

impl LayerOps {
    /// Work of one token besides the linear layers, with `ctx` cached positions: the
    /// attention dot products (at the GEMV rate), the probability operand's quantization,
    /// the K/V append, the packed K/V row reads and the vector ops.
    fn attention_ns(&self, cfg: &ModelConfig, ctx: f64, act_ns: f64) -> f64 {
        let l = cfg.layers as f64;
        let attn_macs = l * 2.0 * (cfg.heads * cfg.head_dim()) as f64 * ctx;
        let probs = l * cfg.heads as f64 * ctx;
        attn_macs * self.gemv_ns_per_mac
            + probs * act_ns
            + l * self.append_ns
            + l * 2.0 * ctx * self.unpack_ns
            + self.norm_rope_ns
            + probs * self.softmax_ns_per_elem
    }

    fn linear_macs(cfg: &ModelConfig) -> f64 {
        linear_shapes(cfg).iter().map(|&(i, o)| (i * o) as f64).sum()
    }

    /// Predicted cost of one decode step at `ctx` cached positions.
    pub fn decode_token_ns(&self, model: &TransformerModel, ctx: f64) -> f64 {
        let cfg = model.config();
        Self::linear_macs(cfg) * self.gemv_ns_per_mac
            + activation_elems(cfg) * self.qdq_plus_ns
            + self.attention_ns(cfg, ctx, self.qdq_plus_ns)
    }

    /// Predicted cost of one prefilled token at a mean of `ctx` earlier positions.
    pub fn prefill_token_ns(&self, model: &TransformerModel, ctx: f64) -> f64 {
        let cfg = model.config();
        Self::linear_macs(cfg) * self.gemm_ns_per_mac
            + activation_elems(cfg) * self.quantize_rows_ns
            + self.attention_ns(cfg, ctx, self.quantize_rows_ns)
    }
}

/// The Table 3 evaluation settings (Wiki2, the longer chunk length).
pub fn tab03_settings() -> EvalSettings {
    EvalSettings { dataset: Dataset::Wiki2, seq_len: 48, total_tokens: 144, kl_gain: 1.0 }
}

/// Times one reference pass (`PerplexityEvaluator::new`) and one A-MXFP4+ evaluation of
/// the Llama-3.1-8B analogue, in ms. Checks the A-MXFP4+ and MXFP4 perplexities against
/// their pins, and that A-MXFP4+ beats MXFP4.
pub fn eval_ops(tracer: &mut Tracer) -> (f64, f64, bool) {
    let t = Instant::now();
    let evaluator =
        tracer.time("eval.reference", || PerplexityEvaluator::new(ModelConfig::llama31_8b(), tab03_settings()));
    let reference_ms = since(t) * 1e3;
    let t = Instant::now();
    let plus = tracer.time("eval.evaluate", || evaluator.evaluate(ModelQuantConfig::a_mxfp4_plus()));
    let evaluate_ms = since(t) * 1e3;
    let mx = tracer.time("eval.evaluate", || evaluator.evaluate(ModelQuantConfig::uniform(QuantScheme::mxfp4())));
    let pinned = crate::goldens::check_ppl(&plus.model, "A-MXFP4+", plus.perplexity)
        & crate::goldens::check_ppl(&mx.model, "MXFP4", mx.perplexity);
    let ordered = plus.perplexity < mx.perplexity;
    if !ordered {
        eprintln!("A-MXFP4+ perplexity {} does not beat MXFP4 {}", plus.perplexity, mx.perplexity);
    }
    (reference_ms, evaluate_ms, pinned && ordered)
}
