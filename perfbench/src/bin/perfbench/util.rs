//! Small helpers shared by the workloads: a seeded generator, order statistics, the
//! process's peak resident memory, the host fingerprint and hand-written JSON output.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a tiny, fixed-forever generator, so a seed names the same inputs on every
/// host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6d78_706c_7573_6265)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| self.range(0, vocab - 1)).collect()
    }
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile mean of `values` (sorted in place): the mean of the middle half, which
/// ignores both tails; 0 when empty.
pub fn midmean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let k = values.len() / 4;
    mean(&values[k..values.len() - k])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f` over `iters` calls and returns nanoseconds per call (best of three rounds, so
/// a descheduled round does not count).
pub fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the hypervisor ran other guests on this machine's CPUs instead of ours
/// (`steal` in `/proc/stat`), summed over all CPUs; 0 where not reported.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / 100.0
}

/// FNV-1a over a token stream, folded into a running digest.
pub fn fnv1a(mut h: u64, tokens: &[usize]) -> u64 {
    for &t in tokens {
        for b in (t as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The host and build facts a result is only comparable under.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool, params: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let forced_env = std::env::var("MX_FORCE_SCALAR_KERNELS").unwrap_or_default();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"cpu\":{},\"nproc\":{nproc},\
         \"kernel_backend\":{},\"scalar_forced\":{},\"MX_FORCE_SCALAR_KERNELS\":{},\"git_commit\":{},\"params\":{params}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(mx_formats::kernels::active_backend().name()),
        mx_formats::kernels::scalar_forced(),
        json_str(&forced_env),
        json_str(&git_commit()),
    );
    out
}

/// The commit of the checkout, read from `.git` when the benchmark runs inside a clone;
/// "unknown" in an exported tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit));
    }
    out.push_str("}}");
    out
}
