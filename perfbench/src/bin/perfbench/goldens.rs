//! Pinned outputs from `goldens.txt`: perplexities bit-exact as f64 bit patterns, and
//! token-stream digests of serving runs keyed by workload, seed and run length.

const GOLDENS: &str = include_str!("../../../goldens.txt");

fn entries(kind: &'static str) -> impl Iterator<Item = Vec<&'static str>> {
    GOLDENS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(move |f| f.first() == Some(&kind))
}

/// The pinned perplexity of `model` under `scheme`.
pub fn ppl(model: &str, scheme: &str) -> Option<f64> {
    entries("ppl")
        .find(|f| f.len() == 4 && f[1] == model && f[2] == scheme)
        .and_then(|f| u64::from_str_radix(f[3], 16).ok())
        .map(f64::from_bits)
}

/// Whether `value` equals its pin bit for bit; prints the value either way, so a new pin
/// can be copied from the output.
pub fn check_ppl(model: &str, scheme: &str, value: f64) -> bool {
    let pinned = ppl(model, scheme);
    let ok = pinned.is_some_and(|p| p.to_bits() == value.to_bits());
    let status = match pinned {
        None => "UNPINNED",
        Some(_) if ok => "match",
        Some(_) => "MISMATCH",
    };
    eprintln!("ppl {model} {scheme} {:016x} ({value:.6}) {status}", value.to_bits());
    ok
}

/// The pinned token-stream digest of a serving run, when one was recorded for this key.
pub fn digest(workload: &str, seed: u64, seconds: u64) -> Option<u64> {
    entries("digest")
        .find(|f| f.len() == 5 && f[1] == workload && f[2] == seed.to_string() && f[3] == seconds.to_string())
        .and_then(|f| u64::from_str_radix(f[4], 16).ok())
}
