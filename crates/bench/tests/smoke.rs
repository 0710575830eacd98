//! Smoke test: a representative subset of the figure/table harness binaries must run to
//! completion and print exactly their golden output. This is the cheapest end-to-end check
//! that the whole stack — formats, tensor substrate, LLM/baseline/GPU models and the
//! harness glue — stays wired together, and the byte-identity pin that lets a fast path
//! replace a reference without moving a single printed digit.
//!
//! The binaries are invoked through `cargo run --release` (the tier-1 gate builds release
//! first, so the artifacts are already cached by the time tests run; a debug-profile run
//! of the perplexity table would take tens of minutes). The three are launched
//! concurrently so wall-clock cost is dominated by the slowest (tab03).
//!
//! The golden files under `tests/golden/` are the binaries' complete stdout. None of the
//! three prints a wall time or any other run-dependent line, so nothing is stripped before
//! the comparison. An intended change to a table is re-pinned with
//! `cargo run --release -p mx-bench --bin <name> > crates/bench/tests/golden/<name>.txt`.

use std::process::{Child, Command, Stdio};

/// One experiment from each tier of the evaluation: a format-error figure (Figure 2), the
/// headline perplexity table (Table 3) and the baseline-comparison table (Table 7), each
/// with its golden stdout.
const SMOKE_BINARIES: &[(&str, &str)] = &[
    ("fig02_bfp_variants", include_str!("golden/fig02_bfp_variants.txt")),
    ("tab03_perplexity", include_str!("golden/tab03_perplexity.txt")),
    ("tab07_baseline_comparison", include_str!("golden/tab07_baseline_comparison.txt")),
];

fn spawn(binary: &str) -> Child {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let workspace_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    Command::new(cargo)
        .args(["run", "--release", "--quiet", "-p", "mx-bench", "--bin", binary])
        .current_dir(workspace_root)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn `cargo run --bin {binary}`: {e}"))
}

/// The first line where `actual` and `expected` differ, for a readable failure message.
fn first_difference(actual: &str, expected: &str) -> String {
    let mut a = actual.lines();
    let mut e = expected.lines();
    for line in 1.. {
        match (a.next(), e.next()) {
            (None, None) => return "trailing newline differs".into(),
            (x, y) if x == y => {}
            (x, y) => return format!("line {line}:\n  actual:   {x:?}\n  expected: {y:?}"),
        }
    }
    unreachable!()
}

#[test]
fn representative_harness_binaries_exit_zero() {
    let children: Vec<(&str, &str, Child)> = SMOKE_BINARIES.iter().map(|&(b, golden)| (b, golden, spawn(b))).collect();
    for (binary, golden, child) in children {
        let output = child.wait_with_output().unwrap_or_else(|e| panic!("failed to wait on {binary}: {e}"));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "{binary} exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
            output.status.code(),
        );
        assert!(
            stdout == golden,
            "{binary} output differs from tests/golden/{binary}.txt at {}\n--- stdout ---\n{stdout}",
            first_difference(&stdout, golden),
        );
    }
}
