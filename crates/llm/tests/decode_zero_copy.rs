//! Long-horizon check of the zero-copy decode path against the clone-based seed path it
//! replaced, which materialized each layer's keys and values per forward call. The seed
//! path's logits at every step and its final cache contents are pinned as digests in
//! `golden/seed_decode_digests.txt`, recorded while that path still existed.

use mx_formats::QuantScheme;
use mx_llm::model::argmax;
use mx_llm::{ModelConfig, ModelQuantConfig, TransformerModel};

const FIXTURE: &str = include_str!("golden/seed_decode_digests.txt");
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn quantized_view_decode_is_bit_identical_to_clone_decode_over_a_long_sequence() {
    // 128 decode steps under an MX scheme, comparing logits exactly at every step.
    let label = "tiny13/MXFP4";
    let want: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with("tiny13/MXFP4 ")).collect();
    assert_eq!(want.len(), 130, "fixture rows for {label}");
    let model = TransformerModel::new(ModelConfig::tiny_test(13), ModelQuantConfig::uniform(QuantScheme::mxfp4()));
    let mut cache = model.new_cache();
    let logits = model.forward(&[2, 3, 5, 7], &mut cache, &mut ());
    assert_eq!(format!("{label} prefill {:016x}", fnv1a(BASIS, logits.data())), want[0]);
    let mut next = argmax(logits.row(logits.rows() - 1));
    for step in 0..128 {
        let logits = model.forward(&[next], &mut cache, &mut ());
        let got = format!("{label} step{step} {:016x}", fnv1a(BASIS, logits.row(0)));
        assert_eq!(got, want[step + 1], "logits diverge at decode step {step}");
        next = argmax(logits.row(0));
    }
    let mut digest = BASIS;
    for l in 0..cache.num_layers() {
        let layer = cache.layer(l);
        for t in 0..layer.len() {
            digest = fnv1a(fnv1a(digest, layer.key_row(t)), layer.value_row(t));
        }
    }
    assert_eq!(format!("{label} cache {digest:016x}"), want[129], "cache contents diverge");
}
