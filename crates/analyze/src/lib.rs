//! `mx-analyze`: workspace-specific static analysis for the MX+ serving stack.
//!
//! Clippy and rustc enforce language-level discipline; this crate enforces the
//! *repo-level* contracts that keep the paged concurrency substrate sound:
//!
//! | rule id             | contract                                                            |
//! |---------------------|---------------------------------------------------------------------|
//! | `no-panics`         | no `unwrap`/`expect`/`panic!`/`todo!` in library code               |
//! | `atomic-ordering`   | no `Ordering::Relaxed` on refcount `fetch_sub`/`compare_exchange`   |
//! | `send-sync-audit`   | every `pub` type in `paging.rs`/`serving.rs` is `assert_send_sync`-covered |
//! | `unsafe-safety-comment` | every `unsafe` in library code is preceded by a `// SAFETY:` comment |
//! | `page-lifecycle`    | page bindings from `reserve`/`alloc*`/`share_prefix`: no double-free, no use-after-free, no leak on any path |
//! | `guard-liveness`    | `.state()`/`.lock()` guards never live across pack/unpack/forward/decode hot calls, on any CFG path |
//! | `must-release`      | every `reserve` binding reaches a release or handoff on every path  |
//! | `meta-unused-allow` | suppression comments must silence something and carry a `reason:`   |
//!
//! The first four are token-stream passes; the next three run on a real parse: a
//! dependency-free recursive-descent parser lowers every function body to an AST
//! ([`ast`], [`parser`]), a CFG is built per function, and a forward abstract
//! interpreter runs each dataflow pass to a fixpoint ([`dataflow`]). See
//! `crates/analyze/ARCHITECTURE.md` for the pipeline and its intraprocedural limits.
//!
//! Findings print as `file:line:col: rule-id: message` and can be silenced in place
//! with `// mx-analyze: allow(<rule-id>) reason: <why>` on the offending line or the
//! line above; the reason is mandatory and is echoed in reports. The tool is
//! dependency-free by design: the build container is offline, and the gate must
//! never cost a network fetch.

#![deny(missing_docs)]

pub mod ast;
pub mod dataflow;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod walk;

use std::io;
use std::path::{Path, PathBuf};

pub use lints::{analyze_sources, check_sources, Finding, Report, Rule, Suppressed};
pub use walk::workspace_files;

/// Analyze every first-party `.rs` file under `root`. Returns the full report and the
/// number of files scanned.
pub fn check_workspace(root: &Path) -> io::Result<(Report, usize)> {
    let files = workspace_files(root)?;
    let mut sources: Vec<(PathBuf, String)> = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, source));
    }
    let count = sources.len();
    Ok((analyze_sources(&sources), count))
}

/// Render a report as the stable machine-readable JSON document emitted by `--json`:
///
/// ```json
/// {
///   "version": 1,
///   "files_scanned": 120,
///   "findings": [{"file": "...", "line": 1, "col": 1, "rule": "...", "message": "..."}],
///   "suppressed": [{"file": "...", "line": 1, "col": 1, "rule": "...", "message": "...", "reason": "..."}],
///   "parse_errors": [{"file": "...", "line": 1, "col": 1, "what": "..."}]
/// }
/// ```
///
/// Arrays are sorted by (file, line, col, rule), so identical trees produce
/// byte-identical documents.
pub fn render_json(report: &Report, files_scanned: usize) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_finding_json(&mut out, f, None);
    }
    out.push_str(if report.findings.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str("  \"suppressed\": [");
    for (i, s) in report.suppressed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_finding_json(&mut out, &s.finding, Some(s.reason.as_deref().unwrap_or("")));
    }
    out.push_str(if report.suppressed.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str("  \"parse_errors\": [");
    for (i, e) in report.parse_errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"what\": \"{}\"}}",
            json_escape(&e.file.display().to_string()),
            e.line,
            e.col,
            json_escape(&e.what)
        ));
    }
    out.push_str(if report.parse_errors.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

fn push_finding_json(out: &mut String, f: &Finding, reason: Option<&str>) {
    out.push_str(&format!(
        "{{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"",
        json_escape(&f.file.display().to_string()),
        f.line,
        f.col,
        f.rule.id(),
        json_escape(&f.message)
    ));
    if let Some(r) = reason {
        out.push_str(&format!(", \"reason\": \"{}\"", json_escape(r)));
    }
    out.push('}');
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
