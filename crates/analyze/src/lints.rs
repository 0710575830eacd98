//! The workspace lint rules and the engine that runs them.
//!
//! Two layers share the lexed token stream. The *token passes* (`no-panics`,
//! `atomic-ordering`, `send-sync-audit`, `unsafe-safety-comment`) stay simple pattern
//! matchers. The *dataflow passes* (`page-lifecycle`, `guard-liveness`,
//! `must-release`) parse every function body ([`crate::parser`]) and run forward
//! abstract interpretation over its CFG ([`crate::dataflow`]), so they see real
//! scopes, match arms, and `return`/`?` edges instead of brace depths.
//!
//! All passes emit unconditionally; suppression is a pipeline stage. A finding whose
//! line is covered by `// mx-analyze: allow(<rule>) reason: <text>` moves to
//! [`Report::suppressed`] (with its reason), marking the comment used. Suppression
//! comments that silence nothing — or omit the required `reason:` tail — are
//! themselves findings under `meta-unused-allow`, which cannot be suppressed.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::ast::Span;
use crate::dataflow::{build_cfg, run_pass, GuardLiveness, MustRelease, PageLifecycle, PassFinding, Transfer};
use crate::lexer::{lex, LexedFile, Suppressions, Token};
use crate::parser::parse;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L2: no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code.
    NoPanics,
    /// L3: no `Ordering::Relaxed` on `fetch_sub`/`compare_exchange` over refcount
    /// fields — the drop-to-pool path needs `Release`/`Acquire`.
    AtomicOrdering,
    /// L5: every `pub` type declared in `paging.rs`/`serving.rs`/`fault.rs` must appear
    /// in the compile-time `assert_send_sync` audit list.
    SendSyncAudit,
    /// L6: page bindings from `reserve`/`alloc*`/`share_prefix` must not be
    /// double-freed, used after free, or dropped while still allocated.
    PageLifecycle,
    /// L7: a `.state()`/`.lock()` guard binding must not be live across a
    /// pack/unpack/forward/decode-step hot call on any CFG path.
    GuardLiveness,
    /// L8: every binding from `reserve` must reach a release or a handoff on every
    /// path, including early returns and `?` edges.
    MustRelease,
    /// L9: every `unsafe` block, fn, or impl in library code must be immediately
    /// preceded by a `// SAFETY:` comment (a rustdoc `# Safety` heading also counts).
    UnsafeSafetyComment,
    /// Meta: an `allow(...)` suppression that silences nothing, or lacks its
    /// required `reason:` tail.
    MetaUnusedAllow,
}

impl Rule {
    /// The stable rule id used in reports and suppression comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanics => "no-panics",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::SendSyncAudit => "send-sync-audit",
            Rule::PageLifecycle => "page-lifecycle",
            Rule::GuardLiveness => "guard-liveness",
            Rule::MustRelease => "must-release",
            Rule::UnsafeSafetyComment => "unsafe-safety-comment",
            Rule::MetaUnusedAllow => "meta-unused-allow",
        }
    }
}

/// One lint violation at a concrete source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as supplied to the checker (workspace-relative in CLI runs).
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file.display(), self.line, self.col, self.rule.id(), self.message)
    }
}

/// A finding silenced by an `allow(...)` comment, retained for reporting.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The silenced finding.
    pub finding: Finding,
    /// The suppression's `reason:` text, when present.
    pub reason: Option<String>,
}

/// A function body the parser could not structure (skipped by the dataflow passes).
#[derive(Debug, Clone)]
pub struct ParseFailure {
    /// The file.
    pub file: PathBuf,
    /// 1-based line where parsing gave up.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What the parser was stuck on.
    pub what: String,
}

/// The full result of analyzing a set of sources.
#[derive(Debug, Default)]
pub struct Report {
    /// Live findings, sorted by (file, line, col, rule id).
    pub findings: Vec<Finding>,
    /// Findings silenced by suppression comments, same order.
    pub suppressed: Vec<Suppressed>,
    /// Function bodies the parser skipped (pinned empty by the workspace gate).
    pub parse_errors: Vec<ParseFailure>,
}

/// How a file participates in the lints, derived from its workspace-relative path.
struct FileClass {
    /// Library code: under a crate's `src/` (or the root `src/`), excluding `src/bin/`.
    library: bool,
    /// A concurrency module: feeds the L5 audit and the L6/L8 lifecycle passes.
    concurrency_module: bool,
}

fn classify(path: &Path) -> FileClass {
    let parts: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    let has = |name: &str| parts.contains(&name);
    let in_src = has("src");
    let file_name = parts.last().copied().unwrap_or("");
    FileClass {
        // `src/bin/` binaries are exempt like examples: they are figure drivers, not
        // library surface.
        library: in_src && !has("bin") && !has("tests") && !has("examples") && !has("benches"),
        concurrency_module: in_src
            && (file_name == "paging.rs" || file_name == "serving.rs" || file_name == "fault.rs"),
    }
}

/// A `pub` type declared in a concurrency module, pending L5 coverage.
struct PubDecl {
    name: String,
    file: PathBuf,
    line: usize,
    col: usize,
}

/// Check a set of `(workspace-relative path, source)` pairs and return the live
/// findings only. Convenience wrapper over [`analyze_sources`].
pub fn check_sources(files: &[(PathBuf, String)]) -> Vec<Finding> {
    analyze_sources(files).findings
}

/// Analyze a set of `(workspace-relative path, source)` pairs: run every pass, route
/// suppressed findings aside, and report unused/reason-less suppressions. The set
/// should be the whole workspace for L5 to see the `assert_send_sync` coverage list
/// (it lives in a test file).
pub fn analyze_sources(files: &[(PathBuf, String)]) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    let mut decls: Vec<PubDecl> = Vec::new();
    let mut covered: Vec<String> = Vec::new();
    let mut parse_errors: Vec<ParseFailure> = Vec::new();
    // Per-file suppression tables with per-entry used flags, in file order.
    let mut sup_tables: Vec<(PathBuf, Suppressions, Vec<bool>)> = Vec::new();

    for (path, source) in files {
        let lexed = lex(source);
        let class = classify(path);
        let regions = test_regions(&lexed.tokens);
        check_tokens(path, &lexed, &class, &regions, &mut raw, &mut decls, &mut covered);

        let parsed = parse(&lexed);
        for err in &parsed.errors {
            parse_errors.push(ParseFailure {
                file: path.clone(),
                line: err.span.line,
                col: err.span.col,
                what: err.what.clone(),
            });
        }
        for function in &parsed.functions {
            let cfg = build_cfg(function);
            let in_test = in_regions(&regions, function.token_start);
            push_pass(&mut raw, path, Rule::GuardLiveness, run_pass(&cfg, &GuardLiveness));
            if class.concurrency_module && !in_test {
                push_pass(&mut raw, path, Rule::PageLifecycle, run_pass(&cfg, &PageLifecycle));
                push_pass(&mut raw, path, Rule::MustRelease, run_pass(&cfg, &MustRelease));
            }
        }

        let used = vec![false; lexed.suppressions.entries.len()];
        sup_tables.push((path.clone(), lexed.suppressions, used));
    }

    for decl in decls {
        if !covered.contains(&decl.name) {
            raw.push(Finding {
                file: decl.file,
                line: decl.line,
                col: decl.col,
                rule: Rule::SendSyncAudit,
                message: format!(
                    "pub type `{}` in a concurrency module is missing from the `assert_send_sync` audit list",
                    decl.name
                ),
            });
        }
    }

    // Suppression pipeline: every finding either survives or moves aside, marking the
    // comment that silenced it as used. Meta findings are appended afterwards and are
    // deliberately not suppressible.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for finding in raw {
        let table = sup_tables.iter_mut().find(|(p, _, _)| p == &finding.file);
        let hit = table.and_then(|(_, sups, used)| {
            sups.covering(finding.line, finding.rule.id()).map(|idx| {
                used[idx] = true;
                sups.entries[idx].reason.clone()
            })
        });
        match hit {
            Some(reason) => suppressed.push(Suppressed { finding, reason }),
            None => findings.push(finding),
        }
    }
    for (path, sups, used) in &sup_tables {
        for (entry, was_used) in sups.entries.iter().zip(used) {
            if !was_used {
                findings.push(Finding {
                    file: path.clone(),
                    line: entry.line,
                    col: entry.col,
                    rule: Rule::MetaUnusedAllow,
                    message: format!("suppression `allow({})` matches no finding; remove it", entry.rule),
                });
            } else if entry.reason.is_none() {
                findings.push(Finding {
                    file: path.clone(),
                    line: entry.line,
                    col: entry.col,
                    rule: Rule::MetaUnusedAllow,
                    message: format!("suppression `allow({})` is missing its required `reason:` tail", entry.rule),
                });
            }
        }
    }

    sort_findings(&mut findings);
    suppressed.sort_by(|a, b| finding_key(&a.finding).cmp(&finding_key(&b.finding)));
    Report { findings, suppressed, parse_errors }
}

fn finding_key(f: &Finding) -> (&PathBuf, usize, usize, &'static str) {
    (&f.file, f.line, f.col, f.rule.id())
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| finding_key(a).cmp(&finding_key(b)));
}

fn push_pass(raw: &mut Vec<Finding>, path: &Path, rule: Rule, pass_findings: Vec<PassFinding>) {
    for PassFinding { span: Span { line, col }, message } in pass_findings {
        raw.push(Finding { file: path.to_path_buf(), line, col, rule, message });
    }
}

/// Run one dataflow pass over every function of a single source, ungated. Used by the
/// golden tests to exercise a pass in isolation.
pub fn run_pass_on_source<T: Transfer>(source: &str, pass: &T) -> Vec<PassFinding> {
    let parsed = parse(&lex(source));
    let mut out = Vec::new();
    for function in &parsed.functions {
        out.extend(run_pass(&build_cfg(function), pass));
    }
    out
}

/// Token indices covered by `#[cfg(test)]`-gated items (the attribute's following
/// braced block). Scans for the exact token sequence `# [ cfg ( test ) ]`.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].ident() == Some("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].ident() == Some("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the gated item's opening brace; a `;` first means a brace-less item.
        let mut j = i + 7;
        let mut open = None;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if tokens[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if let Some(start) = open {
            let mut depth = 0usize;
            let mut end = start;
            for (k, tok) in tokens.iter().enumerate().skip(start) {
                if tok.is_punct('{') {
                    depth += 1;
                } else if tok.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
            }
            regions.push((i, end));
            i = end + 1;
        } else {
            i = j + 1;
        }
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(s, e)| i >= s && i <= e)
}

const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const ORDERING_OPS: [&str; 3] = ["fetch_sub", "compare_exchange", "compare_exchange_weak"];

/// Does `field` look like a refcount (L3)?
fn is_refcount_field(field: &str) -> bool {
    let lower = field.to_lowercase();
    lower.contains("refcount")
        || lower.contains("ref_count")
        || lower.contains("refcnt")
        || lower.contains("refs")
        || lower.contains("strong")
        || lower == "rc"
        || lower.ends_with("_rc")
}

/// The token-stream passes: L2 no-panics, L3 atomic-ordering, L9 unsafe-safety-comment,
/// and the L5 declaration/coverage collection.
fn check_tokens(
    path: &Path,
    lexed: &LexedFile,
    class: &FileClass,
    regions: &[(usize, usize)],
    findings: &mut Vec<Finding>,
    decls: &mut Vec<PubDecl>,
    covered: &mut Vec<String>,
) {
    let tokens = &lexed.tokens;

    let push = |findings: &mut Vec<Finding>, tok: &Token, rule: Rule, message: String| {
        findings.push(Finding { file: path.to_path_buf(), line: tok.line, col: tok.col, rule, message });
    };

    for i in 0..tokens.len() {
        let tok = &tokens[i];
        let Some(name) = tok.ident() else { continue };
        let in_test = in_regions(regions, i);
        let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
        let next_paren = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));

        // L2: panic-adjacent constructs in library code.
        if class.library && !in_test {
            if prev_dot && next_paren && PANIC_METHODS.contains(&name) {
                push(
                    findings,
                    tok,
                    Rule::NoPanics,
                    format!("`.{name}()` in library code; handle the None/Err or document the invariant"),
                );
            }
            if next_bang && PANIC_MACROS.contains(&name) {
                push(
                    findings,
                    tok,
                    Rule::NoPanics,
                    format!("`{name}!` in library code; return an error or document the invariant"),
                );
            }
        }

        // L9: `unsafe` in library code needs an adjacent safety justification.
        if class.library && !in_test && name == "unsafe" && !safety_documented(lexed, i) {
            push(
                findings,
                tok,
                Rule::UnsafeSafetyComment,
                "`unsafe` without an immediately preceding `// SAFETY:` comment (or `# Safety` doc \
                 section) stating the upheld invariants"
                    .to_string(),
            );
        }

        // L3: relaxed ordering on refcount read-modify-writes.
        if prev_dot && next_paren && ORDERING_OPS.contains(&name) && i >= 2 {
            if let Some(field) = tokens[i - 2].ident() {
                if is_refcount_field(field) && relaxed_in_args(tokens, i + 1) {
                    push(
                        findings,
                        tok,
                        Rule::AtomicOrdering,
                        format!(
                            "`{field}.{name}` uses `Ordering::Relaxed`; refcount decrements need \
                             Release/Acquire for the drop-to-pool path"
                        ),
                    );
                }
            }
        }

        // L5: collect pub type declarations and assert_send_sync coverage.
        if class.concurrency_module
            && !in_test
            && (name == "struct" || name == "enum")
            && i >= 1
            && tokens[i - 1].ident() == Some("pub")
        {
            if let Some(decl) = tokens.get(i + 1) {
                if let Some(type_name) = decl.ident() {
                    decls.push(PubDecl {
                        name: type_name.to_string(),
                        file: path.to_path_buf(),
                        line: decl.line,
                        col: decl.col,
                    });
                }
            }
        }
        if name == "assert_send_sync"
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('<'))
        {
            if let Some(covered_name) = tokens.get(i + 4).and_then(Token::ident) {
                covered.push(covered_name.to_string());
            }
        }
    }
}

/// Is the `unsafe` token at index `i` safety-documented? A `// SAFETY:` line (or rustdoc
/// `# Safety` heading) counts when it sits on the token's own line, on the anchor line of
/// its item (above any attribute stack and visibility qualifiers), or anywhere in the
/// contiguous comment-only block directly above that anchor — so a multi-line comment or
/// a doc block's `# Safety` section both satisfy the rule.
fn safety_documented(lexed: &LexedFile, i: usize) -> bool {
    let tokens = &lexed.tokens;
    let anchor = unsafe_anchor_line(tokens, i);
    let is_safety = |l: usize| lexed.safety_lines.contains(&l);
    if is_safety(tokens[i].line) || is_safety(anchor) {
        return true;
    }
    let mut l = anchor;
    while l > 1 {
        l -= 1;
        // Comment-only line: carries a `//` comment and no tokens of its own.
        if !lexed.comment_lines.contains(&l) || tokens.iter().any(|t| t.line == l) {
            return false;
        }
        if is_safety(l) {
            return true;
        }
    }
    false
}

/// First line of the item owning the `unsafe` token at `i`: walks backward over
/// qualifier keywords (`pub`, `pub(crate)`, `const`, `extern`) and any stack of `#[...]`
/// attributes, so the safety comment may sit above a `#[target_feature]` attribute.
fn unsafe_anchor_line(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    while let Some(prev) = j.checked_sub(1).map(|p| &tokens[p]) {
        if prev.ident().is_some_and(|s| matches!(s, "pub" | "const" | "extern")) {
            j -= 1;
        } else if prev.is_punct(')') {
            // `pub(crate)` / `pub(in path)`: jump to the `(`; the `pub` is next round.
            match open_bracket_before(tokens, j - 1, '(', ')') {
                Some(open) if open > 0 && tokens[open - 1].ident() == Some("pub") => j = open,
                _ => break,
            }
        } else if prev.is_punct(']') {
            // An attribute `#[...]` directly above; jump to its `#`.
            match open_bracket_before(tokens, j - 1, '[', ']') {
                Some(open) if open > 0 && tokens[open - 1].is_punct('#') => j = open - 1,
                _ => break,
            }
        } else {
            break;
        }
    }
    tokens[j].line
}

/// Index of the `open` bracket matching the `close` bracket at index `close_at`.
fn open_bracket_before(tokens: &[Token], close_at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close_at).rev() {
        if tokens[k].is_punct(close) {
            depth += 1;
        } else if tokens[k].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Does the argument list opening at `open` contain the identifier `Relaxed`?
fn relaxed_in_args(tokens: &[Token], open: usize) -> bool {
    let Some(end) = close_paren(tokens, open) else { return false };
    tokens[open..=end].iter().any(|t| t.ident() == Some("Relaxed"))
}

/// Index of the `)` matching the `(` at `open`.
fn close_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('(') {
            depth += 1;
        } else if tok.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}
