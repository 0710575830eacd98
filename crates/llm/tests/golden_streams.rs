//! Golden greedy token streams of the Llama-3.1-8B analogue.
//!
//! `golden/token_streams.txt` was recorded from the tree whose direct-cast weights were
//! dequantized `f32` matrices multiplied by `Matrix::matmul`. Every later weight
//! representation must reproduce it exactly: the greedy tokens of three prompts and an
//! FNV-1a digest over the bit patterns of every prompt logit, under A-MXFP4+ (MXFP4
//! weights), uniform MXFP4+ (MXFP4+ weights with the block-max lane), MXFP6 and BF16.

use mx_formats::QuantScheme;
use mx_llm::model::argmax;
use mx_llm::{ModelConfig, ModelQuantConfig, TransformerModel};

const GOLDEN: &str = include_str!("golden/token_streams.txt");
const NEW_TOKENS: usize = 64;

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

/// One line per (scheme, prompt): the prompt-logit digest and the greedy stream.
fn render(label: &str, model: &TransformerModel) -> Vec<String> {
    let prompts = prompts(model.config().vocab);
    prompts
        .iter()
        .enumerate()
        .map(|(i, prompt)| {
            let (logits, mut cache) = model.prefill(prompt);
            let digest = logits.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| fnv1a(h, v.to_bits()));
            let mut next = argmax(logits.row(logits.rows() - 1));
            let mut tokens = Vec::with_capacity(NEW_TOKENS);
            for _ in 0..NEW_TOKENS {
                tokens.push(next.to_string());
                next = argmax(&model.decode_step(next, &mut cache));
            }
            format!("{label} prompt{i} logits {digest:016x} tokens {}", tokens.join(" "))
        })
        .collect()
}

/// Compares one configuration's lines of the fixture with a fresh model's streams.
fn check(label: &str, quant: ModelQuantConfig) {
    let prefix = format!("{label} prompt");
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(&prefix)).collect();
    let model = TransformerModel::new(ModelConfig::llama31_8b(), quant);
    assert_eq!(render(label, &model), golden, "token streams differ from golden/token_streams.txt");
}

#[test]
fn a_mxfp4_plus_streams_match_the_golden_fixture() {
    check("A-MXFP4+", ModelQuantConfig::a_mxfp4_plus());
}

#[test]
fn mxfp4_plus_streams_match_the_golden_fixture() {
    check("MXFP4+", ModelQuantConfig::uniform(QuantScheme::mxfp4_plus()));
}

#[test]
fn mxfp6_streams_match_the_golden_fixture() {
    check("MXFP6", ModelQuantConfig::uniform(QuantScheme::mxfp6()));
}

#[test]
fn bf16_streams_match_the_golden_fixture() {
    check("BF16", ModelQuantConfig::BASELINE);
}
