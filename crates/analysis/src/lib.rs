//! `approxiot-analysis` — offline static checks for the workspace's
//! determinism and safety contracts.
//!
//! The repo's central guarantee is that fixed-seed runs are bit-identical
//! across SimEngine and PipelineEngine-replay. That property is easy to
//! break silently: one stray wall-clock read in a replay path, one hash-map
//! iteration in a report writer, one RNG seeded outside the splitmix seed
//! families. Tests at a single seed may well miss all of these. This crate
//! walks the workspace `.rs` sources with a hand-rolled line/token scanner
//! (no external parser — the build environment is fully offline) and
//! enforces the named rules below, reporting `file:line` findings and
//! exiting non-zero from the `check` subcommand.
//!
//! | Rule | Contract |
//! |------|----------|
//! | D1 | no wall-clock reads outside the allowlisted clock-gated modules |
//! | D2 | no hash-map/hash-set types in non-test code (iteration order) |
//! | D3 | RNG seed arguments trace to a `Topology` seed-derivation helper |
//! | S1 | every `unsafe` carries a `SAFETY:` comment; crate roots pin their unsafe posture |
//! | P1 | no `unwrap`/`expect`/`panic!` in non-test `runtime`/`mq`/`net` library code |
//! | C1 | the cross-function lock-acquisition-order graph is acyclic |
//! | C2 | no bounded-channel send under a lock; no bounded send/recv rings |
//! | C3 | no lock held across a blocking call (channel op, join, sleep) |
//! | W0 | waiver hygiene: well-formed, carries a reason, actually used |
//!
//! D1–P1 are line rules checked per file. C1–C3 are graph rules: a model
//! pass ([`model`]) summarizes each function's lock acquisitions, channel
//! endpoints, and blocking calls, a graph pass ([`graph`]) assembles the
//! workspace lock-order and channel-topology graphs, and
//! the private `rules_concurrency` pass walks them for cycles and
//! lock-held-across-block hazards. The `graph` subcommand renders both graphs as DOT.
//!
//! Exceptions are first-class, not silent: a trailing or immediately
//! preceding comment of the form
//!
//! ```text
//! // analysis: allow(P1, reason = "lock poisoning handled by caller")
//! ```
//!
//! suppresses exactly one rule on exactly one line. Waivers are counted and
//! reported per crate so reviewers see the full exception surface, and an
//! unused or reason-less waiver is itself a finding (W0).

#![forbid(unsafe_code)]

pub mod graph;
pub mod model;
mod rules_concurrency;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The named contracts the scanner enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads outside the clock-gated module allowlist.
    D1,
    /// Iteration-order-dependent collections in non-test code.
    D2,
    /// RNG seeding outside the topology seed-derivation families.
    D3,
    /// Unjustified `unsafe` or missing crate-level unsafe posture.
    S1,
    /// Panicking calls in non-test runtime/mq/net library code.
    P1,
    /// Lock-acquisition-order cycles (potential deadlock).
    C1,
    /// Channel-topology hazards: bounded send under lock, bounded rings.
    C2,
    /// Lock held across a blocking call.
    C3,
    /// Waiver hygiene: malformed, reason-less, or unused waivers.
    W0,
}

impl Rule {
    pub const ALL: [Rule; 9] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::S1,
        Rule::P1,
        Rule::C1,
        Rule::C2,
        Rule::C3,
        Rule::W0,
    ];

    /// Every rule a waiver may name (everything but W0 itself).
    pub const WAIVABLE: [Rule; 8] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::S1,
        Rule::P1,
        Rule::C1,
        Rule::C2,
        Rule::C3,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::S1 => "S1",
            Rule::P1 => "P1",
            Rule::C1 => "C1",
            Rule::C2 => "C2",
            Rule::C3 => "C3",
            Rule::W0 => "W0",
        }
    }

    /// One-line description, shown by the `rules` subcommand.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => {
                "no wall-clock (`Instant::now` / `SystemTime`) outside allowlisted clock modules"
            }
            Rule::D2 => {
                "no `HashMap` / `HashSet` in non-test code; use `BTreeMap` or sorted iteration"
            }
            Rule::D3 => {
                "RNG seeding flows through `Topology` seed helpers; no `thread_rng` / `from_entropy`"
            }
            Rule::S1 => {
                "every `unsafe` carries a `SAFETY:` comment; crate roots declare their unsafe posture"
            }
            Rule::P1 => {
                "no `.unwrap()` / `.expect(` / `panic!` in non-test runtime/mq/net code without a waiver"
            }
            Rule::C1 => {
                "lock-acquisition order is globally consistent; any cross-function cycle is a potential deadlock"
            }
            Rule::C2 => {
                "no bounded-channel send while a lock is held; no send/recv rings over bounded channels"
            }
            Rule::C3 => {
                "no lock guard held across a blocking call (channel send/recv, `join`, sleep, `acquire`)"
            }
            Rule::W0 => "waivers must be well-formed, carry a reason, and suppress a real finding",
        }
    }

    /// Parse a rule code appearing inside a waiver annotation. `W0` is not
    /// waivable — hygiene findings always surface.
    pub fn parse_waivable(s: &str) -> Option<Rule> {
        Rule::WAIVABLE.into_iter().find(|r| r.code() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A single rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `analysis: allow(...)` annotation.
#[derive(Clone, Debug)]
pub struct Waiver {
    pub krate: String,
    pub file: String,
    /// Line the annotation comment sits on.
    pub line: usize,
    /// Code line the waiver applies to (same line for trailing comments,
    /// next non-blank code line for standalone comments).
    pub target_line: usize,
    pub rule: Rule,
    pub reason: String,
    pub used: bool,
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Static allowlists backing the rules. Paths are repo-root-relative with
/// `/` separators.
pub struct Config {
    /// Modules allowed to read the wall clock (D1): the clock abstraction
    /// itself plus the explicitly clock-gated wall-clock branches.
    pub d1_allow_files: &'static [&'static str],
    /// Modules allowed to call `seed_from_u64` directly (D3): worker-lane
    /// fan-out that derives per-shard seeds from an already-derived node
    /// seed, where the lane arithmetic is the documented scheme.
    pub d3_allow_files: &'static [&'static str],
    /// Topology seed-family helpers; a seeding call on the same line as one
    /// of these is by definition flowing through the derivation layer.
    pub d3_seed_helpers: &'static [&'static str],
    /// Crates whose non-test code must be panic-free without a waiver (P1).
    pub p1_crates: &'static [&'static str],
}

impl Default for Config {
    fn default() -> Self {
        Config {
            d1_allow_files: &[
                "crates/net/src/clock.rs",
                "crates/runtime/src/pipeline.rs",
                "crates/runtime/src/engine.rs",
                "crates/mq/src/consumer.rs",
            ],
            d3_allow_files: &[
                "crates/core/src/sampling/sharded.rs",
                "crates/runtime/src/node.rs",
            ],
            d3_seed_helpers: &[
                "node_seed",
                "hop_impairment_seed",
                "churn_seed",
                "replacement_seed",
                "root_seed",
            ],
            p1_crates: &["runtime", "mq", "net"],
        }
    }
}

impl Config {
    fn d1_allows(&self, rel_path: &str) -> bool {
        self.d1_allow_files.contains(&rel_path)
    }

    fn d3_allows(&self, rel_path: &str) -> bool {
        self.d3_allow_files.contains(&rel_path)
    }

    fn p1_applies(&self, krate: &str) -> bool {
        self.p1_crates.contains(&krate)
    }
}

// ---------------------------------------------------------------------------
// Source stripping: split each line into (code, comment), blanking string
// and char-literal contents so token matching never fires inside data.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
pub(crate) struct Stripped {
    pub(crate) code: String,
    pub(crate) comment: String,
}

#[derive(Clone, Copy)]
enum LexState {
    Code,
    /// Inside `/* ... */`, tracking nesting depth.
    Block(u32),
    /// Inside a normal (possibly byte) string literal.
    Str,
    /// Inside a raw string literal closed by `"` + this many `#`s.
    RawStr(u8),
}

/// Count `#`s after `chars[i]`, then require `"`; returns (hashes, consumed)
/// for a raw-string opener starting at the `r`.
fn raw_string_open(chars: &[char], i: usize) -> Option<(u8, usize)> {
    let mut j = i + 1;
    let mut hashes = 0u8;
    while chars.get(j) == Some(&'#') {
        hashes = hashes.saturating_add(1);
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

pub(crate) fn strip_lines(text: &str) -> Vec<Stripped> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw in text.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut line = Stripped::default();
        let mut i = 0;
        while i < chars.len() {
            match state {
                LexState::Code => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    let prev_ident = i > 0 && is_ident_char(chars[i - 1]);
                    if c == '/' && next == Some('/') {
                        line.comment.extend(&chars[i + 2..]);
                        i = chars.len();
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(1);
                        line.code.push(' ');
                        i += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        state = LexState::Str;
                        i += 1;
                    } else if (c == 'r' && !prev_ident)
                        || (c == 'b' && !prev_ident && next == Some('r'))
                    {
                        let r_at = if c == 'b' { i + 1 } else { i };
                        if let Some((hashes, consumed)) = raw_string_open(&chars, r_at) {
                            line.code.push('"');
                            state = LexState::RawStr(hashes);
                            i = r_at + consumed;
                        } else {
                            line.code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: a backslash or a closing
                        // quote two ahead means literal; otherwise lifetime.
                        if next == Some('\\') {
                            line.code.push_str("''");
                            i += 2;
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i += 1; // closing quote (or line end)
                        } else if chars.get(i + 2) == Some(&'\'') {
                            line.code.push_str("''");
                            i += 3;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
                LexState::Block(depth) => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = LexState::Code;
                        } else {
                            state = LexState::Block(depth - 1);
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(c);
                        i += 1;
                    }
                }
                LexState::Str => {
                    let c = chars[i];
                    if c == '\\' {
                        i += 2; // skip the escaped char (may run past EOL)
                    } else if c == '"' {
                        line.code.push('"');
                        state = LexState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"' {
                        let close = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                        if close {
                            line.code.push('"');
                            state = LexState::Code;
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    i += 1;
                }
            }
        }
        out.push(line);
    }
    out
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Word-boundary match: `needle` appears in `hay` not glued to identifier
/// characters on either side.
pub(crate) fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(hay[..at].chars().next_back().unwrap_or(' '));
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.map(is_ident_char).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

// ---------------------------------------------------------------------------
// #[cfg(test)] region tracking
// ---------------------------------------------------------------------------

/// Per-line flag: true when the line belongs to a `#[cfg(test)]` item
/// (the attribute line itself, the item body, and its closing brace).
pub(crate) fn test_regions(lines: &[Stripped]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Brace depths at which a cfg(test) item body opened.
    let mut test_entries: Vec<i64> = Vec::new();
    // Latched cfg(test) attribute waiting for its item's `{` (cancelled by
    // a `;` at the latch depth: the attribute decorated a braceless item).
    let mut pending_at: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        let mut in_test = !test_entries.is_empty() || pending_at.is_some();
        if line.code.contains("cfg(test") {
            pending_at = Some(depth);
            in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(latch) = pending_at.take() {
                        if latch + 1 == depth {
                            test_entries.push(depth);
                            in_test = true;
                        } else {
                            // A `{` deeper than the latch (e.g. inside an
                            // attribute argument) keeps the latch armed.
                            pending_at = Some(latch);
                        }
                    }
                }
                '}' => {
                    if test_entries.last() == Some(&depth) {
                        test_entries.pop();
                    }
                    depth -= 1;
                }
                ';' if pending_at == Some(depth) => {
                    pending_at = None;
                }
                _ => {}
            }
        }
        flags[idx] = in_test || !test_entries.is_empty();
    }
    flags
}

// ---------------------------------------------------------------------------
// Waiver parsing
// ---------------------------------------------------------------------------

const WAIVER_TAG: &str = "analysis:";

/// Parse one comment for a waiver annotation. Returns `Ok(None)` when the
/// comment carries no annotation, `Err(message)` for a malformed one.
fn parse_waiver(comment: &str) -> Result<Option<(Rule, String)>, String> {
    let Some(tag_at) = comment.find(WAIVER_TAG) else {
        return Ok(None);
    };
    let rest = comment[tag_at + WAIVER_TAG.len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>, reason = \"...\")` after `analysis:`".to_string());
    };
    let Some(close) = args.rfind(')') else {
        return Err("unclosed `allow(` in waiver".to_string());
    };
    let args = &args[..close];
    let (rule_str, reason_part) = match args.find(',') {
        Some(comma) => (args[..comma].trim(), Some(args[comma + 1..].trim())),
        None => (args.trim(), None),
    };
    let Some(rule) = Rule::parse_waivable(rule_str) else {
        return Err(format!("unknown or unwaivable rule `{rule_str}` in waiver"));
    };
    let Some(reason_part) = reason_part else {
        return Err(format!("waiver for {rule} is missing `reason = \"...\"`"));
    };
    let Some(quoted) = reason_part
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix('='))
        .map(str::trim_start)
    else {
        return Err(format!("waiver for {rule} is missing `reason = \"...\"`"));
    };
    let reason = quoted.trim_start_matches('"').trim_end_matches('"').trim();
    if reason.is_empty() {
        return Err(format!("waiver for {rule} has an empty reason"));
    }
    Ok(Some((rule, reason.to_string())))
}

// ---------------------------------------------------------------------------
// D3 seed-flow taint
// ---------------------------------------------------------------------------

/// Argument text of the `seed_from_u64(...)` call starting on `lines[idx]`,
/// spanning up to 8 lines for multi-line argument lists. `None` when the
/// token is not followed by a parseable call.
fn seed_call_args(lines: &[Stripped], idx: usize) -> Option<String> {
    let code = lines[idx].code.as_str();
    let at = code.find("seed_from_u64")?;
    let after = &code[at + "seed_from_u64".len()..];
    let open = after.find('(')?;
    if !after[..open].trim().is_empty() {
        return None;
    }
    let start_col = at + "seed_from_u64".len() + open;
    let mut depth = 0i32;
    let mut args = String::new();
    for (j, line) in lines[idx..].iter().take(8).enumerate() {
        let text = if j == 0 {
            &line.code[start_col..]
        } else {
            line.code.as_str()
        };
        for c in text.chars() {
            match c {
                '(' => {
                    if depth > 0 {
                        args.push(c);
                    }
                    depth += 1;
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(args);
                    }
                    args.push(c);
                }
                _ if depth > 0 => args.push(c),
                _ => {}
            }
        }
        args.push(' ');
    }
    None
}

/// Identifier tokens in an expression, minus numeric literals and binding
/// noise — the candidates for taint tracing.
fn ident_tokens(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if is_ident_char(c) {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out.retain(|t| {
        !t.starts_with(|c: char| c.is_ascii_digit())
            && !matches!(t.as_str(), "self" | "mut" | "let" | "as" | "ref")
    });
    out
}

/// The right-hand side of a `ident = ...` / `let ident = ...` assignment on
/// this line, if any (`==` comparisons and `=>` match arms excluded).
fn assignment_rhs(code: &str, ident: &str) -> Option<String> {
    let mut start = 0;
    while let Some(pos) = code[start..].find(ident) {
        let at = start + pos;
        start = at + ident.len();
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = &code[at + ident.len()..];
        if !before_ok || after.chars().next().map(is_ident_char).unwrap_or(false) {
            continue;
        }
        let rest = after.trim_start();
        if let Some(rhs) = rest.strip_prefix('=') {
            if !rhs.starts_with('=') && !rhs.starts_with('>') {
                return Some(rhs.trim().trim_end_matches(';').trim().to_string());
            }
        }
    }
    None
}

/// Does `ident` trace back to a seed-helper call through local
/// assignments? Reverse scan for the nearest assignment at or before
/// `use_idx`; its RHS either names a helper directly or the trace recurses
/// into the RHS identifiers. The nearest assignment decides — shadowing
/// resolves conservatively toward a finding.
fn traces_to_helper(
    cfg: &Config,
    lines: &[Stripped],
    use_idx: usize,
    ident: &str,
    depth: usize,
    visited: &mut Vec<String>,
) -> bool {
    if depth == 0 || visited.iter().any(|v| v == ident) {
        return false;
    }
    visited.push(ident.to_string());
    for j in (0..=use_idx).rev() {
        let Some(rhs) = assignment_rhs(&lines[j].code, ident) else {
            continue;
        };
        if cfg.d3_seed_helpers.iter().any(|h| has_word(&rhs, h)) {
            return true;
        }
        return ident_tokens(&rhs)
            .iter()
            .any(|tok| tok != ident && traces_to_helper(cfg, lines, j, tok, depth - 1, visited));
    }
    false
}

/// D3 taint verdict for the seeding call on `lines[idx]`: clean iff a seed
/// helper appears in the argument list, or any argument identifier traces
/// back to a helper call through local assignments.
fn d3_seed_flows_from_helper(cfg: &Config, lines: &[Stripped], idx: usize) -> bool {
    let Some(args) = seed_call_args(lines, idx) else {
        // Unparsable call shape (e.g. a bare path mention): fall back to the
        // same-line helper check.
        return cfg
            .d3_seed_helpers
            .iter()
            .any(|h| has_word(&lines[idx].code, h));
    };
    if cfg.d3_seed_helpers.iter().any(|h| has_word(&args, h)) {
        return true;
    }
    ident_tokens(&args).iter().any(|tok| {
        let mut visited = Vec::new();
        traces_to_helper(cfg, lines, idx, tok, 8, &mut visited)
    })
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// Everything the scanner learned about one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
    /// The file contains a bare `unsafe` token in code.
    pub has_unsafe_code: bool,
    /// The file declares `#![deny(unsafe_op_in_unsafe_fn)]`.
    pub declares_deny_unsafe_op: bool,
    /// The file declares `#![forbid(unsafe_code)]`.
    pub declares_forbid_unsafe: bool,
}

/// Run every line rule against one file's text. `rel_path` is repo-root
/// relative with `/` separators; `krate` is the workspace crate directory
/// name (`core`, `mq`, ... or `approxiot` for the facade).
pub fn analyze_source(cfg: &Config, krate: &str, rel_path: &str, text: &str) -> FileReport {
    let lines = strip_lines(text);
    let in_test = test_regions(&lines);
    let mut report = FileReport::default();

    // Pass 1: waivers (and W0 findings for malformed ones). Doc comments
    // (`///` / `//!`) never carry live waivers — they document the syntax.
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.comment.starts_with('/') || line.comment.starts_with('!') {
            continue;
        }
        match parse_waiver(&line.comment) {
            Ok(None) => {}
            Ok(Some((rule, reason))) => {
                let target_line = if line.code.trim().is_empty() {
                    // Standalone comment: applies to the next code line,
                    // looking through attribute lines (so a waiver can sit
                    // above e.g. `#[allow(clippy::disallowed_methods)]`).
                    lines[idx + 1..]
                        .iter()
                        .position(|l| {
                            let code = l.code.trim();
                            !code.is_empty() && !code.starts_with("#[")
                        })
                        .map(|off| lineno + 1 + off)
                        .unwrap_or(0)
                } else {
                    lineno
                };
                report.waivers.push(Waiver {
                    krate: krate.to_string(),
                    file: rel_path.to_string(),
                    line: lineno,
                    target_line,
                    rule,
                    reason,
                    used: false,
                });
            }
            Err(message) => report.findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                rule: Rule::W0,
                message,
            }),
        }
    }

    // Pass 2: line rules.
    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |line: usize, rule: Rule, message: String| {
        raw.push(Finding {
            file: rel_path.to_string(),
            line,
            rule,
            message,
        });
    };
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let test = in_test[idx];

        // Crate-root posture declarations (recorded for the S1 crate check).
        let trimmed = code.trim_start();
        if trimmed.starts_with("#![") {
            if code.contains("deny(unsafe_op_in_unsafe_fn)") {
                report.declares_deny_unsafe_op = true;
            }
            if code.contains("forbid(unsafe_code)") {
                report.declares_forbid_unsafe = true;
            }
        }

        // D1: wall-clock reads.
        if !test && !cfg.d1_allows(rel_path) {
            if code.contains("Instant::now") {
                push(
                    lineno,
                    Rule::D1,
                    "wall-clock read `Instant::now` outside the clock-gated allowlist".into(),
                );
            } else if has_word(code, "SystemTime") {
                push(
                    lineno,
                    Rule::D1,
                    "`SystemTime` outside the clock-gated allowlist".into(),
                );
            }
        }

        // D2: iteration-order-dependent collections.
        if !test {
            for ty in ["HashMap", "HashSet"] {
                if has_word(code, ty) {
                    push(
                        lineno,
                        Rule::D2,
                        format!("`{ty}` in non-test code; use `BTreeMap`/`BTreeSet` or sorted iteration"),
                    );
                    break;
                }
            }
        }

        // D3: seeding discipline. Entropy sources are banned outright; a
        // `seed_from_u64` argument must *trace back* to a topology seed
        // helper through local assignments (seed-flow taint), not merely
        // avoid banned tokens.
        if has_word(code, "thread_rng") || has_word(code, "from_entropy") {
            push(
                lineno,
                Rule::D3,
                "entropy-based RNG construction; all randomness must be seeded".into(),
            );
        } else if !test
            && has_word(code, "seed_from_u64")
            && !cfg.d3_allows(rel_path)
            && !d3_seed_flows_from_helper(cfg, &lines, idx)
        {
            push(
                lineno,
                Rule::D3,
                "`seed_from_u64` argument does not trace back to a topology seed helper".into(),
            );
        }

        // S1: unsafe justification. Accept `SAFETY:` on the same line or in
        // the contiguous comment/attribute block immediately above.
        if has_word(code, "unsafe") {
            report.has_unsafe_code = true;
            let mut justified = line.comment.contains("SAFETY:");
            if !justified {
                for prev in lines[..idx].iter().rev() {
                    if prev.comment.contains("SAFETY:") {
                        justified = true;
                        break;
                    }
                    let prev_code = prev.code.trim();
                    if !prev_code.is_empty() && !prev_code.starts_with("#[") {
                        break;
                    }
                }
            }
            if !justified {
                push(
                    lineno,
                    Rule::S1,
                    "`unsafe` without a `// SAFETY:` justification".into(),
                );
            }
        }

        // P1: panicking calls in the panic-free crates.
        if !test && cfg.p1_applies(krate) {
            let pattern = if code.contains(".unwrap()") {
                Some(".unwrap()")
            } else if code.contains(".expect(") {
                Some(".expect(")
            } else if has_word(code, "panic!") {
                Some("panic!")
            } else {
                None
            };
            if let Some(pattern) = pattern {
                push(
                    lineno,
                    Rule::P1,
                    format!("`{pattern}` in non-test {krate} code; return a typed error or waive with a reason"),
                );
            }
        }
    }

    // Pass 3: waiver suppression. Unused waivers are NOT flagged here —
    // the graph rules run at workspace level and may still consume them;
    // `check_sources` audits leftovers as W0.
    for finding in raw {
        let waiver = report
            .waivers
            .iter_mut()
            .find(|w| w.rule == finding.rule && w.target_line == finding.line);
        match waiver {
            Some(w) => w.used = true,
            None => report.findings.push(finding),
        }
    }

    report.findings.sort();
    report
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// The product crates under scan: the facade package plus everything under
/// `crates/`. Vendored stand-ins (`vendor/`), integration tests, benches,
/// and examples are out of scope.
pub fn workspace_crates(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut crates = vec![("approxiot".to_string(), root.join("src"))];
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.path().join("src").is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    for name in names {
        let src = crates_dir.join(&name).join("src");
        crates.push((name, src));
    }
    Ok(crates)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Full workspace report: per-file findings plus the crate-level S1 posture
/// check (crates containing `unsafe` must deny `unsafe_op_in_unsafe_fn` at
/// every crate root; all others must forbid unsafe code outright).
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Waiver counts keyed by (crate, rule), for the CI job summary.
    pub fn waiver_counts(&self) -> BTreeMap<(String, Rule), usize> {
        let mut counts = BTreeMap::new();
        for w in &self.waivers {
            *counts.entry((w.krate.clone(), w.rule)).or_insert(0) += 1;
        }
        counts
    }

    /// Per-rule findings/waivers table — appended to the CI job summary so
    /// reviewers see which contracts are doing work on every run.
    pub fn rules_markdown(&self) -> String {
        let mut out =
            String::from("## Findings by rule\n\n| rule | findings | waivers |\n|---|---|---|\n");
        for r in Rule::ALL {
            let f = self.findings.iter().filter(|x| x.rule == r).count();
            let w = self.waivers.iter().filter(|x| x.rule == r).count();
            out.push_str(&format!("| {r} | {f} | {w} |\n"));
        }
        out
    }

    /// Machine-readable findings for CI artifacts. Hand-rolled JSON — the
    /// crate is deliberately dependency-free.
    pub fn findings_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule,
                json_escape(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"crate\": \"{}\", \"file\": \"{}\", \"line\": {}, \"target_line\": {}, \"rule\": \"{}\", \"reason\": \"{}\", \"used\": {}}}",
                json_escape(&w.krate),
                json_escape(&w.file),
                w.line,
                w.target_line,
                w.rule,
                json_escape(&w.reason),
                w.used
            ));
        }
        out.push_str(if self.waivers.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Markdown table of waiver counts per crate, one column per waivable
    /// rule — rendered into `$GITHUB_STEP_SUMMARY` by the CI job.
    pub fn summary_markdown(&self) -> String {
        let waivable = Rule::WAIVABLE;
        let counts = self.waiver_counts();
        let mut crates: Vec<&String> = counts.keys().map(|(k, _)| k).collect();
        crates.dedup();
        let mut out = String::from("## Static-analysis waivers\n\n");
        out.push_str(&format!(
            "{} file(s) scanned, {} finding(s), {} waiver(s).\n\n",
            self.files_scanned,
            self.findings.len(),
            self.waivers.len()
        ));
        out.push_str("| crate |");
        for r in waivable {
            out.push_str(&format!(" {r} |"));
        }
        out.push_str(" total |\n|---|");
        out.push_str(&"---|".repeat(waivable.len() + 1));
        out.push('\n');
        for krate in crates {
            let mut total = 0;
            let mut row = format!("| {krate} |");
            for r in waivable {
                let n = counts.get(&(krate.clone(), r)).copied().unwrap_or(0);
                total += n;
                row.push_str(&format!(" {n} |"));
            }
            out.push_str(&format!("{row} {total} |\n"));
        }
        out
    }
}

/// One source file queued for analysis.
pub struct SourceSpec {
    pub krate: String,
    pub rel_path: String,
    pub text: String,
}

/// Load every `.rs` file of every product crate under `root`.
pub fn load_sources(root: &Path) -> io::Result<Vec<SourceSpec>> {
    let mut out = Vec::new();
    for (krate, src_dir) in workspace_crates(root)? {
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        for path in &files {
            let text = fs::read_to_string(path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceSpec {
                krate: krate.clone(),
                rel_path: rel,
                text,
            });
        }
    }
    Ok(out)
}

fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") || rel.contains("/src/bin/")
}

/// Build the workspace concurrency model for a source set — what the
/// `graph` subcommand renders as DOT.
pub fn workspace_model(sources: &[SourceSpec]) -> graph::WorkspaceModel {
    graph::WorkspaceModel::new(
        sources
            .iter()
            .map(|s| model::FileModel::build(&s.rel_path, &s.text))
            .collect(),
    )
}

/// Run the full pipeline over an explicit source set: per-file line rules,
/// crate-level S1 posture (for crates whose root is in the set), the
/// workspace concurrency rules, and the unused-waiver audit.
pub fn check_sources(cfg: &Config, sources: &[SourceSpec]) -> Report {
    // krate -> (has_unsafe, crate roots as (rel, declares_deny, declares_forbid))
    type Posture = BTreeMap<String, (bool, Vec<(String, bool, bool)>)>;
    let mut report = Report::default();
    let mut models = Vec::new();
    let mut posture: Posture = BTreeMap::new();
    for s in sources {
        let fr = analyze_source(cfg, &s.krate, &s.rel_path, &s.text);
        let entry = posture.entry(s.krate.clone()).or_default();
        entry.0 |= fr.has_unsafe_code;
        if is_crate_root(&s.rel_path) {
            entry.1.push((
                s.rel_path.clone(),
                fr.declares_deny_unsafe_op,
                fr.declares_forbid_unsafe,
            ));
        }
        report.findings.extend(fr.findings);
        report.waivers.extend(fr.waivers);
        models.push(model::FileModel::build(&s.rel_path, &s.text));
        report.files_scanned += 1;
    }
    for (krate, (has_unsafe, roots)) in &posture {
        for (rel, declares_deny, declares_forbid) in roots {
            if *has_unsafe && !declares_deny {
                report.findings.push(Finding {
                    file: rel.clone(),
                    line: 1,
                    rule: Rule::S1,
                    message: format!(
                        "crate `{krate}` contains unsafe code but this root lacks #![deny(unsafe_op_in_unsafe_fn)]"
                    ),
                });
            } else if !*has_unsafe && !declares_forbid {
                report.findings.push(Finding {
                    file: rel.clone(),
                    line: 1,
                    rule: Rule::S1,
                    message: format!("crate `{krate}` root lacks #![forbid(unsafe_code)]"),
                });
            }
        }
    }

    // Concurrency graph rules, suppressed against the workspace waiver set.
    let ws = graph::WorkspaceModel::new(models);
    for finding in rules_concurrency::check(&ws) {
        let waiver = report.waivers.iter_mut().find(|w| {
            w.rule == finding.rule && w.file == finding.file && w.target_line == finding.line
        });
        match waiver {
            Some(w) => w.used = true,
            None => report.findings.push(finding),
        }
    }

    // W0 audit: a waiver that suppressed nothing anywhere is a finding.
    let unused: Vec<Finding> = report
        .waivers
        .iter()
        .filter(|w| !w.used)
        .map(|w| Finding {
            file: w.file.clone(),
            line: w.line,
            rule: Rule::W0,
            message: format!("waiver for {} does not suppress any finding", w.rule),
        })
        .collect();
    report.findings.extend(unused);

    report.findings.sort();
    report
}

/// Scan every product crate under `root` and aggregate findings.
pub fn check_workspace(cfg: &Config, root: &Path) -> io::Result<Report> {
    Ok(check_sources(cfg, &load_sources(root)?))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(krate: &str, path: &str, text: &str) -> FileReport {
        analyze_source(&Config::default(), krate, path, text)
    }

    #[test]
    fn stripper_separates_code_and_comments() {
        let lines = strip_lines("let x = 1; // trailing\n/* block */ let y = 2;\n");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert_eq!(lines[0].comment, " trailing");
        assert!(lines[1].code.contains("let y = 2;"));
        assert_eq!(lines[1].comment, " block ");
    }

    #[test]
    fn stripper_blanks_string_contents() {
        let lines = strip_lines(r#"call("seeded via thread_rng inside a string");"#);
        assert_eq!(lines[0].code, r#"call("");"#);
    }

    #[test]
    fn stripper_handles_raw_strings_and_char_literals() {
        let src = "let s = r#\"raw \"quoted\" body\"#; let c = '{'; let lt: &'static str = \"\";";
        let lines = strip_lines(src);
        assert!(!lines[0].code.contains("raw"));
        assert!(
            !lines[0].code.contains('{'),
            "char literal content must be blanked"
        );
        assert!(lines[0].code.contains("&'static str"));
    }

    #[test]
    fn stripper_tracks_multiline_block_comments() {
        let lines = strip_lines("/* one\n   two */ code();\n");
        assert_eq!(lines[0].code.trim(), "");
        assert!(lines[1].code.contains("code();"));
    }

    #[test]
    fn test_region_covers_mod_tests_and_cancels_on_semicolon() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n#[cfg(test)]\nuse foo;\nfn tail() {}\n";
        let lines = strip_lines(src);
        let flags = test_regions(&lines);
        assert_eq!(
            flags,
            vec![false, true, true, true, true, false, true, true, false]
        );
    }

    #[test]
    fn waiver_parses_rule_and_reason() {
        let parsed = parse_waiver(" analysis: allow(P1, reason = \"checked above\")").unwrap();
        let (rule, reason) = parsed.unwrap();
        assert_eq!(rule, Rule::P1);
        assert_eq!(reason, "checked above");
    }

    #[test]
    fn waiver_rejects_missing_reason_and_unknown_rule() {
        assert!(parse_waiver(" analysis: allow(P1)").is_err());
        assert!(parse_waiver(" analysis: allow(P1, reason = \"\")").is_err());
        assert!(parse_waiver(" analysis: allow(Z9, reason = \"x\")").is_err());
        assert!(
            parse_waiver(" analysis: allow(W0, reason = \"x\")").is_err(),
            "W0 is unwaivable"
        );
    }

    #[test]
    fn trailing_waiver_suppresses_and_is_marked_used() {
        let src = "fn f() {\n    x.unwrap() // analysis: allow(P1, reason = \"cannot fail\")\n}\n";
        let report = analyze("runtime", "crates/runtime/src/f.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.waivers[0].used);
    }

    #[test]
    fn standalone_waiver_targets_next_code_line() {
        let src =
            "fn f() {\n    // analysis: allow(P1, reason = \"cannot fail\")\n    x.unwrap();\n}\n";
        let report = analyze("runtime", "crates/runtime/src/f.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.waivers[0].target_line, 3);
    }

    #[test]
    fn unused_waiver_is_a_w0_finding() {
        // The unused-waiver audit runs at workspace level (graph rules may
        // consume a waiver the line rules did not), so exercise the full
        // `check_sources` pipeline.
        let src = "// analysis: allow(D1, reason = \"nothing here\")\nfn f() {}\n";
        let report = check_sources(
            &Config::default(),
            &[SourceSpec {
                krate: "core".to_string(),
                rel_path: "crates/core/src/f.rs".to_string(),
                text: src.to_string(),
            }],
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, Rule::W0);
    }

    #[test]
    fn rules_skip_strings_comments_and_test_code() {
        let src = concat!(
            "fn f() { log(\"Instant::now HashMap thread_rng .unwrap()\"); }\n",
            "// mentions Instant::now and HashMap in prose\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashMap;\n",
            "    fn t() { let _ = x.unwrap(); }\n",
            "}\n",
        );
        let report = analyze("runtime", "crates/runtime/src/f.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn d3_allows_seeding_via_topology_helpers() {
        let ok = "let rng = StdRng::seed_from_u64(topology.node_seed(id));\n";
        let report = analyze("runtime", "crates/runtime/src/f.rs", ok);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let bad = "let rng = StdRng::seed_from_u64(id * 31);\n";
        let report = analyze("runtime", "crates/runtime/src/f.rs", bad);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::D3);
    }

    #[test]
    fn d3_taint_traces_through_local_assignments() {
        let ok = concat!(
            "fn f(topology: &Topology, id: u64) {\n",
            "    let base = topology.node_seed(id);\n",
            "    let mixed = base ^ 0x9E37;\n",
            "    let rng = StdRng::seed_from_u64(mixed);\n",
            "}\n",
        );
        let report = analyze("runtime", "crates/runtime/src/f.rs", ok);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn d3_taint_rejects_laundered_constants() {
        // A chain of local assignments that never touches a seed helper
        // must still fire — token matching alone would have passed this
        // once the banned names were hidden behind a rename.
        let bad = concat!(
            "fn f(id: u64) {\n",
            "    let node_value = id.wrapping_mul(31);\n",
            "    let derived = node_value ^ 0x5EED;\n",
            "    let rng = StdRng::seed_from_u64(derived);\n",
            "}\n",
        );
        let report = analyze("runtime", "crates/runtime/src/f.rs", bad);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, Rule::D3);
        assert_eq!(report.findings[0].line, 4);
    }

    #[test]
    fn d3_taint_spans_multiline_argument_lists() {
        let ok = concat!(
            "fn f(topology: &Topology, id: u64) {\n",
            "    let rng = StdRng::seed_from_u64(\n",
            "        topology.churn_seed(id),\n",
            "    );\n",
            "}\n",
        );
        let report = analyze("runtime", "crates/runtime/src/f.rs", ok);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn s1_accepts_safety_comment_above_attribute() {
        let src = "// SAFETY: Job pointers outlive the worker.\n#[allow(dead_code)]\nunsafe impl Send for Job {}\n";
        let report = analyze("runtime", "crates/runtime/src/f.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.has_unsafe_code);
    }

    #[test]
    fn p1_only_applies_to_configured_crates() {
        let src = "fn f() { x.unwrap(); }\n";
        assert!(analyze("core", "crates/core/src/f.rs", src)
            .findings
            .is_empty());
        assert_eq!(analyze("net", "crates/net/src/f.rs", src).findings.len(), 1);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { x.unwrap_or_else(PoisonError::into_inner); }\n";
        let report = analyze("runtime", "crates/runtime/src/f.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
