//! The repository benchmark: open-loop MX+ serving (`chat`, `rag`) from a seed, with a
//! traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. The line before it is the run's fingerprint. The process exits
//! non-zero when any output is wrong. See `perfbench/README.md`.

mod goldens;
mod replay;
mod serve;
mod spans;
mod util;

use std::process::ExitCode;
use std::time::Instant;

/// What a workload reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: util::Metrics,
    /// The workload's parameters as a JSON object, for the fingerprint.
    pub params: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload chat|rag --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let outcome = match serve::spec(&args.workload) {
        Some(spec) => serve::run(&spec, args.seed, seconds, args.trace, process_start),
        None => {
            eprintln!("perfbench: unknown workload {} (chat, rag)", args.workload);
            return ExitCode::from(2);
        }
    };
    println!("fingerprint {}", util::fingerprint(&args.workload, args.seed, args.seconds, args.trace, &outcome.params));
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("{name:<40} {value:>14.4} {unit}");
    }
    println!("{}", util::result_json(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
