//! The transformer model: prefill and decode with quantized dot products.
//!
//! [`TransformerModel::forward`] is the one forward pass. It runs over any KV-cache
//! backend ([`KvBackend`]): cached keys/values are read row by row through the
//! backend's [`KvLayerReader`] (borrowed slices on the `f32` [`KvCache`], packed-row
//! decodes or fused kernels on the paged backend), and every projection multiplies
//! against weights that were direct-cast **once** at construction.

use mx_tensor::{kernels, Matrix, PackedMatrix};
use serde::{Deserialize, Serialize};

use crate::config::{MlpKind, ModelConfig, NormKind};
use crate::kvcache::{AttnGeometry, KvBackend, KvCache, KvLayerReader};
use crate::quant_config::ModelQuantConfig;
use crate::weights::ModelWeights;

/// Per-layer weights after the one-time direct cast with the configured weight schemes,
/// plus the layer's norm vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CastLayerWeights {
    wq: PackedMatrix,
    wk: PackedMatrix,
    wv: PackedMatrix,
    wo: PackedMatrix,
    w_gate: PackedMatrix,
    w_up: PackedMatrix,
    w_down: PackedMatrix,
    attn_norm_gain: Vec<f32>,
    attn_norm_bias: Vec<f32>,
    mlp_norm_gain: Vec<f32>,
    mlp_norm_bias: Vec<f32>,
}

/// Everything the forward pass reads. The weight operands are quantized once
/// (column-blocked along the reduction dimension), exactly as `matmul_quantized` would
/// per call, and held packed: 4-bit codes under MXFP4/MXFP4+, dequantized panels
/// otherwise. Multiplying by them is bit-identical to multiplying by the per-call cast.
/// The embedding and the norm vectors are moved over unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CastWeights {
    embedding: Matrix,
    layers: Vec<CastLayerWeights>,
    final_norm_gain: Vec<f32>,
    final_norm_bias: Vec<f32>,
    lm_head: PackedMatrix,
}

impl CastWeights {
    /// Casts `weights`, dropping each unquantized linear matrix once it is packed.
    fn cast(weights: ModelWeights, quant: &ModelQuantConfig) -> Self {
        let w = quant.linear.weights;
        CastWeights {
            embedding: weights.embedding,
            layers: weights
                .layers
                .into_iter()
                .map(|lw| CastLayerWeights {
                    wq: PackedMatrix::new(&lw.wq, w),
                    wk: PackedMatrix::new(&lw.wk, w),
                    wv: PackedMatrix::new(&lw.wv, w),
                    wo: PackedMatrix::new(&lw.wo, w),
                    w_gate: PackedMatrix::new(&lw.w_gate, w),
                    w_up: PackedMatrix::new(&lw.w_up, w),
                    w_down: PackedMatrix::new(&lw.w_down, w),
                    attn_norm_gain: lw.attn_norm_gain,
                    attn_norm_bias: lw.attn_norm_bias,
                    mlp_norm_gain: lw.mlp_norm_gain,
                    mlp_norm_bias: lw.mlp_norm_bias,
                })
                .collect(),
            final_norm_gain: weights.final_norm_gain,
            final_norm_bias: weights.final_norm_bias,
            lm_head: PackedMatrix::new(&weights.lm_head, quant.lm_head.weights),
        }
    }

    /// Bytes of packed weight storage.
    fn bytes(&self) -> usize {
        let layer = |l: &CastLayerWeights| {
            [&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down]
                .iter()
                .map(|w| w.resident_bytes())
                .sum::<usize>()
        };
        self.layers.iter().map(layer).sum::<usize>() + self.lm_head.resident_bytes()
    }
}

/// A decoder-only transformer with pluggable quantization of every dot-product operand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerModel {
    config: ModelConfig,
    quant: ModelQuantConfig,
    weights: CastWeights,
}

impl TransformerModel {
    /// Builds the model, generating deterministic weights from the configuration's seed
    /// and direct-casting them once under the configured weight schemes.
    #[must_use]
    pub fn new(config: ModelConfig, quant: ModelQuantConfig) -> Self {
        let weights = CastWeights::cast(ModelWeights::generate(&config), &quant);
        TransformerModel { config, quant, weights }
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The quantization configuration.
    #[must_use]
    pub fn quant(&self) -> ModelQuantConfig {
        self.quant
    }

    /// Bytes of the direct-cast weight operands the forward pass multiplies by: 4-bit
    /// codes plus scales under MXFP4/MXFP4+ weights, `f32` panels under other schemes.
    /// The embedding table and the norm vectors are not counted.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.weights.bytes()
    }

    /// Creates an empty KV cache sized for this model.
    #[must_use]
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.config.layers, self.config.head_dim() * self.config.kv_heads)
    }

    /// Runs the model over `tokens`, appending to `cache`, and returns the logits for
    /// every input position as a `(tokens.len(), vocab)` matrix.
    ///
    /// `cache` is any backend: the `f32` [`KvCache`] or a bit-packed
    /// [`PagedKvCache`](crate::paging::PagedKvCache). Because every backend serves rows
    /// equal to `scheme.quantize_dequantize(row)` bit for bit, the logits — and therefore
    /// the generated tokens — do not depend on the backend. `scratch` is the caller-owned
    /// working memory the backend decodes cache rows into (`&mut ()` for [`KvCache`]; a
    /// decode worker thread carries one [`PagedScratch`](crate::paging::PagedScratch)
    /// across all the sequences it steps).
    ///
    /// The pass always *continues* from `cache.seq_len()`: positions, rotary phases and
    /// causal visibility all derive from the backend's current length, and every
    /// per-position operation is row-independent. Running `tokens` in one call or split
    /// over several calls therefore gives bit-identical logits, and prefix sharing relies
    /// on it: prefilling only the suffix of a prompt on top of shared (already-populated)
    /// cache rows produces the logits of a full prefill.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an id outside the vocabulary.
    #[must_use]
    pub fn forward<B: KvBackend>(&self, tokens: &[usize], cache: &mut B, scratch: &mut B::Scratch) -> Matrix {
        assert!(!tokens.is_empty(), "token sequence must be non-empty");
        let start_pos = cache.seq_len();
        let mut x = self.embed(tokens);
        for layer in 0..self.config.layers {
            x = self.layer_forward(layer, &x, start_pos, cache, scratch);
        }
        let normed = self.apply_norm(&x, &self.weights.final_norm_gain, &self.weights.final_norm_bias);
        normed.quantize_rows(self.quant.lm_head.activations).matmul_packed(&self.weights.lm_head)
    }

    /// Token embeddings (vector op: BF16 precision like the baseline).
    fn embed(&self, tokens: &[usize]) -> Matrix {
        Matrix::from_fn(tokens.len(), self.config.hidden, |r, c| {
            let t = tokens[r];
            assert!(t < self.config.vocab, "token id {t} out of vocabulary");
            self.weights.embedding.get(t, c)
        })
    }

    /// Prefill convenience: runs [`TransformerModel::forward`] with a fresh `f32` cache
    /// and returns `(logits, cache)`.
    #[must_use]
    pub fn prefill(&self, tokens: &[usize]) -> (Matrix, KvCache) {
        let mut cache = self.new_cache();
        let logits = self.forward(tokens, &mut cache, &mut ());
        (logits, cache)
    }

    /// Greedy generation of `n` tokens after prefilling `prompt`.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty.
    #[must_use]
    pub fn generate_greedy(&self, prompt: &[usize], n: usize) -> Vec<usize> {
        let (logits, mut cache) = self.prefill(prompt);
        let mut out = Vec::with_capacity(n);
        let mut next = argmax(logits.row(logits.rows() - 1));
        for _ in 0..n {
            out.push(next);
            next = argmax(self.forward(&[next], &mut cache, &mut ()).row(0));
        }
        out
    }

    /// Causal attention over any cache backend: cached keys/values are read row by row
    /// through a [`KvLayerReader`] (borrowed slices on the `f32` backend, per-row packed
    /// decodes on the paged backend), the cache is walked position-outer so every cached
    /// row is loaded once per query row (not once per head), and the
    /// score/probability/query operands go through reusable buffers.
    ///
    /// Backends with fused row kernels ([`KvLayerReader::fused_key_dots`] /
    /// [`KvLayerReader::fused_value_accumulate`]) compute each position's per-head dot
    /// products and value accumulation straight from their packed storage, block by block
    /// in registers, so the full `f32` row is never materialized; backends without them
    /// fall back to the row reads below. Both routes are bit-identical: every per-(head,
    /// position) dot product, softmax and accumulation runs in the same order on the same
    /// values.
    fn attention<R: KvLayerReader>(&self, reader: &mut R, q: &Matrix, start_pos: usize, attn_out: &mut Matrix) {
        let cfg = &self.config;
        let head_dim = cfg.head_dim();
        let group = cfg.heads / cfg.kv_heads;
        let geom = AttnGeometry { heads: cfg.heads, head_dim, group };
        let scale = 1.0 / (head_dim as f32).sqrt();
        let max_visible = start_pos + q.rows();
        let mut q_buf = vec![0.0_f32; cfg.heads * head_dim];
        let mut dots = vec![0.0_f32; cfg.heads];
        let mut probs_t = vec![0.0_f32; cfg.heads];
        let mut scores = Vec::with_capacity(cfg.heads * max_visible);
        let mut probs = Vec::with_capacity(cfg.heads * max_visible);
        for r in 0..q.rows() {
            let visible = start_pos + r + 1;
            // Quantize the query row operand (it feeds a dot product against cached keys).
            self.quant.linear.activations.quantize_dequantize_into(q.row(r), &mut q_buf);
            scores.resize(cfg.heads * visible, 0.0);
            for t in 0..visible {
                if reader.fused_key_dots(t, &q_buf, geom, &mut dots) {
                    for (head, &dot) in dots.iter().enumerate() {
                        scores[head * visible + t] = dot * scale;
                    }
                    continue;
                }
                let key_row = reader.key_row(t);
                for head in 0..cfg.heads {
                    let qs = head * head_dim;
                    let ks = (head / group) * head_dim;
                    let dot: f32 =
                        q_buf[qs..qs + head_dim].iter().zip(&key_row[ks..ks + head_dim]).map(|(a, b)| a * b).sum();
                    scores[head * visible + t] = dot * scale;
                }
            }
            // The probability operand of the probs x V matmul is also a dot-product
            // operand; quantize it with the activation scheme.
            probs.resize(cfg.heads * visible, 0.0);
            for head in 0..cfg.heads {
                let s = &mut scores[head * visible..(head + 1) * visible];
                kernels::softmax_inplace(s);
                self.quant
                    .attention_probs
                    .quantize_dequantize_into(s, &mut probs[head * visible..(head + 1) * visible]);
            }
            let out_row = attn_out.row_mut(r);
            for t in 0..visible {
                for (head, p) in probs_t.iter_mut().enumerate() {
                    *p = probs[head * visible + t];
                }
                if reader.fused_value_accumulate(t, &probs_t, geom, out_row) {
                    continue;
                }
                let value_row = reader.value_row(t);
                for head in 0..cfg.heads {
                    let p = probs[head * visible + t];
                    if p == 0.0 {
                        continue;
                    }
                    let qs = head * head_dim;
                    let ks = (head / group) * head_dim;
                    for (o, &vv) in out_row[qs..qs + head_dim].iter_mut().zip(&value_row[ks..ks + head_dim]) {
                        *o += p * vv;
                    }
                }
            }
        }
    }

    fn apply_norm(&self, x: &Matrix, gain: &[f32], bias: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let normed = match self.config.norm {
                NormKind::Rms => kernels::rmsnorm(x.row(r), gain, 1e-6),
                NormKind::Layer => kernels::layernorm(x.row(r), gain, bias, 1e-6),
            };
            out.row_mut(r).copy_from_slice(&normed);
        }
        out
    }

    /// Applies rotary embeddings to the query/key rows in place (vector op, baseline
    /// precision).
    fn apply_rotary(&self, q: &mut Matrix, k: &mut Matrix, start_pos: usize) {
        let cfg = &self.config;
        if cfg.rope_theta <= 0.0 {
            return;
        }
        let head_dim = cfg.head_dim();
        for r in 0..q.rows() {
            let pos = start_pos + r;
            for head in 0..cfg.heads {
                let s = head * head_dim;
                kernels::apply_rope(&mut q.row_mut(r)[s..s + head_dim], pos, cfg.rope_theta);
            }
            for kv_head in 0..cfg.kv_heads {
                let s = kv_head * head_dim;
                kernels::apply_rope(&mut k.row_mut(r)[s..s + head_dim], pos, cfg.rope_theta);
            }
        }
    }

    /// One transformer layer, generic over the cache backend: the shared activation
    /// operand is quantized once per projection group and multiplied against the
    /// pre-cast weights; cache reads go through the backend's per-layer row reader.
    fn layer_forward<B: KvBackend>(
        &self,
        layer: usize,
        x: &Matrix,
        start_pos: usize,
        cache: &mut B,
        scratch: &mut B::Scratch,
    ) -> Matrix {
        let lw = &self.weights.layers[layer];
        let cfg = &self.config;
        let seq = x.rows();

        // --- Attention ---
        let normed = self.apply_norm(x, &lw.attn_norm_gain, &lw.attn_norm_bias);
        let (mut q, mut k, v) = {
            // Quantize the shared activation operand once for all three projections
            // and multiply against the pre-cast weights.
            let a = normed.quantize_rows(self.quant.linear.activations);
            (a.matmul_packed(&lw.wq), a.matmul_packed(&lw.wk), a.matmul_packed(&lw.wv))
        };
        self.apply_rotary(&mut q, &mut k, start_pos);

        // Append the new keys/values to the cache (stored quantized).
        for r in 0..seq {
            cache.append(layer, k.row(r), v.row(r), self.quant.kv_cache);
        }

        // Attention per query position and head, causal over the cache.
        let mut attn_out = Matrix::zeros(seq, cfg.heads * cfg.head_dim());
        let mut reader = cache.layer_reader(layer, scratch);
        self.attention(&mut reader, &q, start_pos, &mut attn_out);
        drop(reader);

        let attn_proj = attn_out.quantize_rows(self.quant.linear.activations).matmul_packed(&lw.wo);
        let x = x.add(&attn_proj);

        // --- MLP ---
        let normed = self.apply_norm(&x, &lw.mlp_norm_gain, &lw.mlp_norm_bias);
        let project = |cast_w: &PackedMatrix, activations: &Matrix| {
            activations.quantize_rows(self.quant.linear.activations).matmul_packed(cast_w)
        };
        let mlp_out = match cfg.mlp {
            MlpKind::GatedSilu => {
                let (gate, up) = {
                    let a = normed.quantize_rows(self.quant.linear.activations);
                    (a.matmul_packed(&lw.w_gate), a.matmul_packed(&lw.w_up))
                };
                project(&lw.w_down, &self.gated_silu_hidden(&gate, &up))
            }
            MlpKind::Gelu => {
                let fc1 = project(&lw.w_gate, &normed);
                project(&lw.w_down, &self.gelu_hidden(&fc1))
            }
        };
        x.add(&mlp_out)
    }

    /// Element-wise `silu(gate) * up` of the gated MLP.
    fn gated_silu_hidden(&self, gate: &Matrix, up: &Matrix) -> Matrix {
        let mut hidden = Matrix::zeros(gate.rows(), self.config.intermediate);
        for r in 0..gate.rows() {
            for c in 0..self.config.intermediate {
                hidden.set(r, c, kernels::silu(gate.get(r, c)) * up.get(r, c));
            }
        }
        hidden
    }

    /// Element-wise GELU of the first MLP projection.
    fn gelu_hidden(&self, fc1: &Matrix) -> Matrix {
        let mut hidden = Matrix::zeros(fc1.rows(), self.config.intermediate);
        for r in 0..fc1.rows() {
            for c in 0..self.config.intermediate {
                hidden.set(r, c, kernels::gelu(fc1.get(r, c)));
            }
        }
        hidden
    }
}

/// Index of the maximum element (first occurrence on ties).
#[must_use]
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_formats::QuantScheme;

    fn tiny_model(quant: ModelQuantConfig) -> TransformerModel {
        TransformerModel::new(ModelConfig::tiny_test(7), quant)
    }

    #[test]
    fn forward_shapes() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let (logits, cache) = model.prefill(&[1, 2, 3, 4, 5]);
        assert_eq!(logits.shape(), (5, model.config().vocab));
        assert_eq!(cache.seq_len(), 5);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn decode_extends_cache() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let (_, mut cache) = model.prefill(&[1, 2, 3]);
        let logits = model.forward(&[4], &mut cache, &mut ());
        assert_eq!(logits.shape(), (1, model.config().vocab));
        assert_eq!(cache.seq_len(), 4);
    }

    /// The configurations the causality tests run under: two model shapes (MHA and GQA)
    /// crossed with full-precision, MX, MX+ and 6-bit quantization.
    fn causality_models() -> Vec<TransformerModel> {
        let quants = [
            ModelQuantConfig::BASELINE,
            ModelQuantConfig::uniform(QuantScheme::mxfp4()),
            ModelQuantConfig::a_mxfp4_plus(),
            ModelQuantConfig::uniform(QuantScheme::mxfp6()),
        ];
        [ModelConfig::tiny_test(7), ModelConfig::llama31_8b()]
            .into_iter()
            .flat_map(|cfg| quants.map(|q| TransformerModel::new(cfg.clone(), q)))
            .collect()
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    fn causality_tokens(vocab: usize) -> Vec<usize> {
        (0..24).map(|i| (i * 37 + 5) % vocab).collect()
    }

    #[test]
    fn prefill_then_decode_matches_full_prefill() {
        // Continuation check: prefilling a prefix and running the rest on top of its
        // cache gives the full prefill's logits for the remaining positions, bit for bit.
        for model in causality_models() {
            let tokens = causality_tokens(model.config().vocab);
            let (full, _) = model.prefill(&tokens);
            for split in [1, 5, 13, 23] {
                let (_, mut cache) = model.prefill(&tokens[..split]);
                let rest = model.forward(&tokens[split..], &mut cache, &mut ());
                for r in 0..rest.rows() {
                    assert_eq!(
                        bits(rest.row(r)),
                        bits(full.row(split + r)),
                        "{} under {}: split {split}, position {}",
                        model.config().name,
                        model.quant().name(),
                        split + r
                    );
                }
            }
        }
    }

    #[test]
    fn earlier_logits_unaffected_by_later_tokens() {
        for model in causality_models() {
            let tokens = causality_tokens(model.config().vocab);
            let (full, _) = model.prefill(&tokens);
            for split in [1, 5, 13, 23] {
                let mut changed = tokens.clone();
                for t in &mut changed[split..] {
                    *t = (*t + 1) % model.config().vocab;
                }
                let (other, _) = model.prefill(&changed);
                for r in 0..split {
                    assert_eq!(bits(other.row(r)), bits(full.row(r)), "causality violated at position {r}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed_and_quant() {
        let m1 = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let m2 = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let (a, _) = m1.prefill(&[1, 2, 3, 4]);
        let (b, _) = m2.prefill(&[1, 2, 3, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn quantization_perturbs_but_does_not_break_logits() {
        let base = tiny_model(ModelQuantConfig::BASELINE);
        let quant = tiny_model(ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let tokens = [1, 2, 3, 4, 5, 6, 7, 8];
        let (lb, _) = base.prefill(&tokens);
        let (lq, _) = quant.prefill(&tokens);
        assert!(lq.data().iter().all(|v| v.is_finite()));
        assert!(lb.mse(&lq) > 0.0);
    }

    #[test]
    fn mxfp4_plus_is_closer_to_baseline_than_mxfp4() {
        // Use a configuration with pronounced activation outliers (as in the full model
        // presets) so the block-max effect dominates the logit perturbation.
        let mut cfg = ModelConfig::tiny_test(7);
        cfg.outliers = mx_tensor::OutlierSpec { channel_fraction: 0.02, magnitude: 60.0, fire_probability: 0.97 };
        let base = TransformerModel::new(cfg.clone(), ModelQuantConfig::BASELINE);
        let fp4 = TransformerModel::new(cfg.clone(), ModelQuantConfig::uniform(QuantScheme::mxfp4()));
        let fp4p = TransformerModel::new(cfg, ModelQuantConfig::uniform(QuantScheme::mxfp4_plus()));
        let tokens: Vec<usize> = (0..24).map(|i| (i * 7) % 128).collect();
        let (lb, _) = base.prefill(&tokens);
        let (l4, _) = fp4.prefill(&tokens);
        let (l4p, _) = fp4p.prefill(&tokens);
        assert!(lb.mse(&l4p) < lb.mse(&l4), "MX+ logits must be closer to the baseline");
    }

    /// Renders greedy decoding as the lines of `tests/golden/seed_decode_digests.txt`: an
    /// FNV-1a digest of the logit bits of every forward call, then one of the cache rows.
    fn seed_digest_lines(label: &str, model: &TransformerModel, prompt: &[usize], steps: usize) -> Vec<String> {
        fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
            for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
            hash
        }
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        let mut cache = model.new_cache();
        let logits = model.forward(prompt, &mut cache, &mut ());
        let mut lines = vec![format!("{label} prefill {:016x}", fnv1a(BASIS, logits.data()))];
        let mut next = argmax(logits.row(logits.rows() - 1));
        for step in 0..steps {
            let logits = model.forward(&[next], &mut cache, &mut ());
            lines.push(format!("{label} step{step} {:016x}", fnv1a(BASIS, logits.row(0))));
            next = argmax(logits.row(0));
        }
        let mut digest = BASIS;
        for l in 0..cache.num_layers() {
            let layer = cache.layer(l);
            for t in 0..layer.len() {
                digest = fnv1a(fnv1a(digest, layer.key_row(t)), layer.value_row(t));
            }
        }
        lines.push(format!("{label} cache {digest:016x}"));
        lines
    }

    #[test]
    fn view_and_materialize_modes_are_bit_identical() {
        // The zero-copy attention path must reproduce the clone-based seed path exactly,
        // not approximately — same dot products, same softmax inputs, same accumulation
        // order. The seed path's logits at every step and its final cache contents are
        // pinned as digests in the fixture, recorded while that path still existed.
        const FIXTURE: &str = include_str!("../tests/golden/seed_decode_digests.txt");
        for (label, quant) in [
            ("tiny7/BF16", ModelQuantConfig::BASELINE),
            ("tiny7/MXFP4", ModelQuantConfig::uniform(QuantScheme::mxfp4())),
            ("tiny7/A-MXFP4+", ModelQuantConfig::a_mxfp4_plus()),
        ] {
            let prefix = format!("{label} ");
            let want: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).collect();
            assert_eq!(want.len(), 10, "fixture rows for {label}");
            let got = seed_digest_lines(label, &tiny_model(quant), &[3, 1, 4, 1, 5, 9, 2, 6], 8);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g, w, "diverges from the seed path under {}", quant.name());
            }
        }
    }

    #[test]
    fn paged_backend_is_bit_identical_to_f32_zero_copy() {
        // The packed-page backend must reproduce the f32 backend exactly — same logits at
        // every step — because the row codec round-trips the scheme's quantization bit
        // for bit. Checked under an MX scheme (bit-packed pages) and the baseline
        // (fallback f32 pages).
        use crate::paging::{PagePool, PagedKvCache};
        use mx_formats::RowCodec;
        for quant in [ModelQuantConfig::uniform(QuantScheme::mxfp4()), ModelQuantConfig::BASELINE] {
            let model = tiny_model(quant);
            let cfg = model.config().clone();
            let kv_dim = cfg.head_dim() * cfg.kv_heads;
            let scheme = quant.kv_cache;
            let pool = PagePool::for_kv_rows(16, 8, RowCodec::for_scheme(scheme), kv_dim).shared();
            let mut paged = PagedKvCache::new(&pool, cfg.layers, kv_dim, scheme, 30).unwrap();
            let mut flat = model.new_cache();
            let prompt = [3, 1, 4, 1, 5];
            let mut scratch = Default::default();
            let lp = model.forward(&prompt, &mut paged, &mut scratch);
            let lf = model.forward(&prompt, &mut flat, &mut ());
            assert_eq!(lp, lf, "prefill logits diverge under {}", quant.name());
            let mut next = argmax(lp.row(lp.rows() - 1));
            for step in 0..24 {
                let sp = model.forward(&[next], &mut paged, &mut scratch);
                let sf = model.forward(&[next], &mut flat, &mut ());
                assert_eq!(sp, sf, "decode step {step} diverges under {}", quant.name());
                next = argmax(sp.row(0));
            }
            assert_eq!(paged.seq_len(), flat.seq_len());
        }
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let a = model.generate_greedy(&[1, 2, 3], 6);
        let b = model.generate_greedy(&[1, 2, 3], 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| t < model.config().vocab));
    }

    #[test]
    fn weight_bytes_are_packed_codes_under_mxfp4_and_f32_under_bf16() {
        let f32_bytes = |model: &TransformerModel| {
            let w = ModelWeights::generate(model.config());
            let layers = w.layers.iter().flat_map(|l| [&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down]);
            layers.chain([&w.lm_head]).map(|m| std::mem::size_of_val(m.data())).sum::<usize>()
        };
        let packed = TransformerModel::new(ModelConfig::llama31_8b(), ModelQuantConfig::a_mxfp4_plus());
        assert!(packed.weight_bytes() * 32 <= f32_bytes(&packed) * 9 / 2, "at most 4.5 bits per weight");
        let bf16 = TransformerModel::new(ModelConfig::llama31_8b(), ModelQuantConfig::BASELINE);
        assert_eq!(bf16.weight_bytes(), f32_bytes(&bf16));
    }

    #[test]
    fn argmax_ties_resolve_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn gelu_layernorm_model_variant_runs() {
        // OPT-style: LayerNorm + GELU MLP + no RoPE.
        let mut cfg = ModelConfig::tiny_test(9);
        cfg.norm = crate::config::NormKind::Layer;
        cfg.mlp = crate::config::MlpKind::Gelu;
        cfg.rope_theta = 0.0;
        let model = TransformerModel::new(cfg, ModelQuantConfig::uniform(QuantScheme::mxfp6()));
        let (logits, _) = model.prefill(&[1, 2, 3, 4]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_tokens() {
        let model = tiny_model(ModelQuantConfig::BASELINE);
        let _ = model.prefill(&[9999]);
    }
}
