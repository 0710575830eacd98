//! Golden greedy token streams of the Llama-3.1-8B analogue and of two tiny test models.
//!
//! The Llama-3.1-8B rows of `golden/token_streams.txt` under A-MXFP4+ (MXFP4 weights),
//! uniform MXFP4+ (MXFP4+ weights with the block-max lane), MXFP6 and BF16 were recorded
//! from the tree whose direct-cast weights were dequantized `f32` matrices multiplied by
//! `Matrix::matmul`. The uniform-MXFP4 Llama row and the `tiny7/*` and `tiny13/*` rows
//! were recorded from the tree that still carried the clone-based seed decode path, and
//! rendering them through that path gave the same lines. Every later weight
//! representation and decode path must reproduce them exactly: the greedy tokens of
//! three prompts and an FNV-1a digest over the bit patterns of every prompt logit.

use mx_formats::QuantScheme;
use mx_llm::model::argmax;
use mx_llm::{ModelConfig, ModelQuantConfig, TransformerModel};

const GOLDEN: &str = include_str!("golden/token_streams.txt");

fn prompts(vocab: usize) -> [Vec<usize>; 3] {
    let ramp = |len: usize, mul: usize, add: usize| (0..len).map(|i| (i * mul + add) % vocab).collect();
    [ramp(7, 37, 5), ramp(19, 101, 3), ramp(33, 13, 250)]
}

fn fnv1a(mut hash: u64, bits: u32) -> u64 {
    for byte in bits.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One line per (configuration, prompt): the prompt-logit digest and `new_tokens` greedy
/// tokens.
fn render(label: &str, model: &TransformerModel, new_tokens: usize) -> Vec<String> {
    let prompts = prompts(model.config().vocab);
    prompts
        .iter()
        .enumerate()
        .map(|(i, prompt)| {
            let (logits, mut cache) = model.prefill(prompt);
            let digest = logits.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| fnv1a(h, v.to_bits()));
            let mut next = argmax(logits.row(logits.rows() - 1));
            let mut tokens = Vec::with_capacity(new_tokens);
            for _ in 0..new_tokens {
                tokens.push(next.to_string());
                next = argmax(model.forward(&[next], &mut cache, &mut ()).row(0));
            }
            format!("{label} prompt{i} logits {digest:016x} tokens {}", tokens.join(" "))
        })
        .collect()
}

/// Compares one configuration's lines of the fixture with a fresh model's streams.
fn check(label: &str, config: ModelConfig, quant: ModelQuantConfig, new_tokens: usize) {
    let prefix = format!("{label} prompt");
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert_eq!(golden.len(), 3, "fixture has no rows for {label}");
    let model = TransformerModel::new(config, quant);
    assert_eq!(render(label, &model, new_tokens), golden, "token streams differ from golden/token_streams.txt");
}

#[test]
fn a_mxfp4_plus_streams_match_the_golden_fixture() {
    check("A-MXFP4+", ModelConfig::llama31_8b(), ModelQuantConfig::a_mxfp4_plus(), 64);
}

#[test]
fn mxfp4_plus_streams_match_the_golden_fixture() {
    check("MXFP4+", ModelConfig::llama31_8b(), ModelQuantConfig::uniform(QuantScheme::mxfp4_plus()), 64);
}

#[test]
fn mxfp4_streams_match_the_golden_fixture() {
    check("MXFP4", ModelConfig::llama31_8b(), ModelQuantConfig::uniform(QuantScheme::mxfp4()), 64);
}

#[test]
fn mxfp6_streams_match_the_golden_fixture() {
    check("MXFP6", ModelConfig::llama31_8b(), ModelQuantConfig::uniform(QuantScheme::mxfp6()), 64);
}

#[test]
fn bf16_streams_match_the_golden_fixture() {
    check("BF16", ModelConfig::llama31_8b(), ModelQuantConfig::BASELINE, 64);
}

#[test]
fn tiny_model_streams_match_the_golden_fixture() {
    for (label, quant) in [
        ("tiny7/BF16", ModelQuantConfig::BASELINE),
        ("tiny7/MXFP4", ModelQuantConfig::uniform(QuantScheme::mxfp4())),
        ("tiny7/A-MXFP4+", ModelQuantConfig::a_mxfp4_plus()),
    ] {
        check(label, ModelConfig::tiny_test(7), quant, 64);
    }
    check("tiny13/MXFP4", ModelConfig::tiny_test(13), ModelQuantConfig::uniform(QuantScheme::mxfp4()), 128);
}
