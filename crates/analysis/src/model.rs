//! Lightweight item model over the stripped token stream.
//!
//! [`FileModel::build`] turns one source file into the facts the
//! concurrency rules need: lock-typed struct fields, channel creation
//! sites with their endpoint bindings, thread-spawn closures as separate
//! execution contexts, and a per-function summary of lock acquisitions
//! (with guard-liveness spans), channel operations, blocking calls, and
//! workspace-function call sites.
//!
//! The model is deliberately conservative in the direction that avoids
//! false positives: a receiver it cannot resolve gets a context-local
//! lock identity (two names never falsely unify into one lock), an
//! endpoint name bound to more than one channel is poisoned (its ops
//! pair with nothing), and call summaries only propagate through
//! functions whose simple name is unique in the workspace.

use std::collections::BTreeMap;

use crate::{has_word, is_ident_char, strip_lines, test_regions, Stripped};

/// Direction of a channel endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    Send,
    Recv,
}

/// One channel creation site (`bounded(..)`, `unbounded()`,
/// `mpsc::channel()`, `mpsc::sync_channel(..)`).
#[derive(Clone, Debug)]
pub struct ChannelDef {
    /// Stable identity: `file:line` of the creation site.
    pub key: String,
    pub file: String,
    pub line: usize,
    /// `Some(true)` for bounded/sync channels (sends can block),
    /// `Some(false)` for unbounded ones, `None` when unknown.
    pub bounded: Option<bool>,
}

/// What an endpoint name resolves to.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Binding {
    /// A concrete channel created in this file.
    Chan(String, Role),
    /// Endpoint-typed (fn param or struct field); channel unknown.
    Typed(Role),
    /// Bound to more than one channel — pairs with nothing.
    Poisoned,
}

/// One lock acquisition with its guard-liveness span.
#[derive(Clone, Debug)]
pub struct LockAcq {
    /// Lock identity, e.g. `Broker::topics` or `root_loop::latencies`.
    pub lock: String,
    pub line: usize,
    /// Last line (inclusive) on which the guard is live.
    pub until: usize,
}

/// One send/recv on a channel endpoint.
#[derive(Clone, Debug)]
pub struct ChanOp {
    /// Channel key when the endpoint resolved to a creation site.
    pub chan: Option<String>,
    pub role: Role,
    pub line: usize,
    pub bounded: Option<bool>,
}

/// A call that can block the current thread.
#[derive(Clone, Debug)]
pub struct BlockingCall {
    pub line: usize,
    /// Human-readable label (`channel send`, `sleep`, `join`, ...).
    pub what: &'static str,
}

/// A call site recorded for one-level summary propagation.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub line: usize,
    /// Simple callee name; resolved later iff unique in the workspace.
    pub callee: String,
}

/// Per-function (or per-spawn-closure) summary.
#[derive(Clone, Debug)]
pub struct ContextSummary {
    /// Display name: `Type::fn`, `fn`, or `Type::fn::spawn@line`.
    pub name: String,
    /// Simple fn name for call resolution; `None` for spawn closures.
    pub fn_name: Option<String>,
    pub file: String,
    pub line: usize,
    pub locks: Vec<LockAcq>,
    pub chan_ops: Vec<ChanOp>,
    pub blocking: Vec<BlockingCall>,
    pub calls: Vec<CallSite>,
}

impl ContextSummary {
    /// Lock guards live at `line` (acquired at or before, released after).
    pub fn guards_at(&self, line: usize) -> impl Iterator<Item = &LockAcq> {
        self.locks
            .iter()
            .filter(move |a| a.line <= line && line <= a.until)
    }
}

/// Everything the concurrency rules need to know about one file.
#[derive(Clone, Debug, Default)]
pub struct FileModel {
    pub file: String,
    pub channels: Vec<ChannelDef>,
    pub contexts: Vec<ContextSummary>,
}

// ---------------------------------------------------------------------------
// Small text helpers
// ---------------------------------------------------------------------------

fn ident_at(code: &str, start: usize) -> Option<&str> {
    let rest = &code[start..];
    let end = rest
        .char_indices()
        .find(|(_, c)| !is_ident_char(*c))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// `field: value` pairs on a line where the value is a plain identifier
/// (optionally `.clone()`d) terminated by `,`, `}`, `)`, or end of line —
/// the struct-literal initializer shape. Path separators (`::`), type
/// ascriptions (`: Foo =`), and generic field declarations (`: Foo<`) all
/// fail the terminator test.
fn field_init_pairs(code: &str) -> Vec<(String, String)> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != ':' {
            continue;
        }
        if chars.get(i + 1) == Some(&':') || (i > 0 && chars[i - 1] == ':') {
            continue;
        }
        // Identifier before the colon.
        let mut f_end = i;
        while f_end > 0 && chars[f_end - 1].is_whitespace() {
            f_end -= 1;
        }
        let mut f_start = f_end;
        while f_start > 0 && is_ident_char(chars[f_start - 1]) {
            f_start -= 1;
        }
        if f_start == f_end {
            continue;
        }
        // Identifier after the colon.
        let mut v_start = i + 1;
        while v_start < chars.len() && chars[v_start].is_whitespace() {
            v_start += 1;
        }
        let mut v_end = v_start;
        while v_end < chars.len() && is_ident_char(chars[v_end]) {
            v_end += 1;
        }
        if v_end == v_start || chars[v_start].is_ascii_digit() {
            continue;
        }
        // Optional `.clone()` suffix.
        let mut after = v_end;
        let clone: String = chars[v_end..(v_end + 8).min(chars.len())].iter().collect();
        if clone == ".clone()" {
            after = v_end + 8;
        }
        while after < chars.len() && chars[after].is_whitespace() {
            after += 1;
        }
        let terminated = after >= chars.len() || matches!(chars[after], ',' | '}' | ')');
        if !terminated {
            continue;
        }
        let field: String = chars[f_start..f_end].iter().collect();
        let value: String = chars[v_start..v_end].iter().collect();
        if value != "_" && field != "_" {
            out.push((field, value));
        }
    }
    out
}

/// Top-level comma split, respecting `<>`, `()`, and `[]` nesting.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let tail = s[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

/// Extract the trailing receiver chain from statement text ending just
/// before a method call: identifier path segments joined by `.`, allowing
/// balanced `[..]` / `(..)` groups inside the chain. Whitespace is
/// transparent only at a `.` boundary (rustfmt-wrapped method chains) or
/// before the chain has started. Returns e.g. `self.topics`,
/// `worker.jobs`, or `latencies`.
fn trailing_chain(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut i = chars.len();
    let mut out: Vec<char> = Vec::new();
    while i > 0 {
        let c = chars[i - 1];
        if c.is_whitespace() {
            let mut j = i - 1;
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
            let prev = (j > 0).then(|| chars[j - 1]);
            // `out` grows right-to-left, so its last element is the char
            // just right of this gap.
            let right = out.last().copied();
            if out.is_empty() || right == Some('.') || prev == Some('.') {
                i = j;
            } else {
                break;
            }
        } else if is_ident_char(c) || c == '.' {
            out.push(c);
            i -= 1;
        } else if c == ']' || c == ')' {
            // Skip the balanced group; it stays out of the identity
            // (`self.cells[idx]` resolves as `self.cells`).
            let open = if c == ']' { '[' } else { '(' };
            let close = c;
            let mut depth = 1;
            i -= 1;
            while i > 0 && depth > 0 {
                let d = chars[i - 1];
                if d == close {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                }
                i -= 1;
            }
            // A group mid-chain is only allowed after an index/call on a
            // previous segment; keep scanning for the chain head.
        } else {
            break;
        }
    }
    let chain: String = out.iter().rev().collect();
    chain.trim_matches('.').to_string()
}

/// Join of the statement text preceding `(line idx, col)`, looking back a
/// few lines so multi-line method chains resolve. Lines are joined with a
/// space so tokens never glue across line breaks.
fn joined_prefix(lines: &[Stripped], idx: usize, col: usize) -> String {
    let mut joined = String::new();
    let lo = idx.saturating_sub(6);
    for line in &lines[lo..idx] {
        joined.push_str(&line.code);
        joined.push(' ');
    }
    joined.push_str(&lines[idx].code[..col]);
    joined
}

/// Line (0-based index) where the statement containing `idx` ends: the
/// first line at or after `idx` whose code contains `;`, capped a few
/// lines out so a missed semicolon cannot leak a guard span.
fn statement_end(lines: &[Stripped], idx: usize) -> usize {
    for (off, line) in lines[idx..].iter().take(8).enumerate() {
        if line.code.contains(';') {
            return idx + off;
        }
    }
    idx
}

/// First line (0-based) of the statement containing `idx`: walk back while
/// the previous line does not end the prior statement.
fn statement_start(lines: &[Stripped], idx: usize) -> usize {
    let mut start = idx;
    while start > 0 && idx - start < 6 {
        let prev = lines[start - 1].code.trim_end();
        if prev.ends_with(';')
            || prev.ends_with('{')
            || prev.ends_with('}')
            || prev.is_empty()
            || prev.ends_with(',')
        {
            break;
        }
        start -= 1;
    }
    start
}

/// After a guard-producing call at (`idx`, `after_col`), does the rest of
/// the method chain keep the guard? Only poison-recovery adapters do:
/// `.unwrap_or_else(..)`, `.unwrap()`, `.expect(..)`. Anything else
/// (`.remove(..)`, `.len()`, field projections) consumes the guard into a
/// temporary.
fn chain_keeps_guard(lines: &[Stripped], idx: usize, after_col: usize) -> bool {
    let mut text: String = lines[idx].code[after_col..].to_string();
    for line in lines[idx + 1..].iter().take(6) {
        text.push_str(&line.code);
        if line.code.contains(';') {
            break;
        }
    }
    let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let mut rest = flat.as_str();
    loop {
        if rest.starts_with(';') || rest.is_empty() {
            return true;
        }
        let adapter = [".unwrap_or_else(", ".unwrap()", ".expect("]
            .iter()
            .find(|a| rest.starts_with(**a));
        let Some(adapter) = adapter else {
            return false;
        };
        rest = &rest[adapter.len()..];
        if adapter.ends_with('(') {
            // Skip the balanced argument list.
            let mut depth = 1usize;
            let mut consumed = 0;
            for (i, c) in rest.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    consumed = i + 1;
                    break;
                }
            }
            if consumed == 0 {
                return false;
            }
            rest = &rest[consumed..];
        }
    }
}

/// The `let [mut] IDENT` pattern opening the statement, if any.
fn let_binding_ident(stmt_first_line: &str) -> Option<String> {
    let trimmed = stmt_first_line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let ident = ident_at(rest, 0)?;
    Some(ident.to_string())
}

// ---------------------------------------------------------------------------
// Pass 1: structure and endpoint-name bindings
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum BindCand {
    /// `let (tx, rx) = bounded(..)`-style destructuring.
    Destructure {
        tx: Option<String>,
        rx: Option<String>,
        chan: String,
    },
    /// `let a = b;` / `let a = b.clone();` with `b` a known endpoint.
    Alias { to: String, from: String },
    /// `field: ident,` in a struct literal.
    FieldLit { field: String, from: String },
    /// `callee(a, b, ..)` free-fn call; binds endpoint params positionally.
    CallArgs {
        callee: String,
        args: Vec<Option<String>>,
    },
}

/// Endpoint-typed params of one fn: (position, name, role).
type EndpointParams = Vec<(usize, String, Role)>;

#[derive(Debug, Default)]
struct Structure {
    /// Lock-typed field name -> identity (`Struct::field`); `None` when the
    /// same field name appears lock-typed in two structs.
    lock_fields: BTreeMap<String, Option<String>>,
    /// Any struct field name -> owning struct, for bare-ident fallbacks.
    field_owner: BTreeMap<String, Option<String>>,
    /// fn simple name -> endpoint-typed params; `None` when the name is
    /// defined more than once in the file.
    fn_endpoint_params: BTreeMap<String, Option<EndpointParams>>,
    binds: Vec<BindCand>,
    channels: Vec<ChannelDef>,
    /// Struct-field names typed `Sender<..>` / `Receiver<..>`.
    typed_fields: BTreeMap<String, Role>,
}

fn parse_params(sig: &str) -> EndpointParams {
    let Some(open) = sig.find('(') else {
        return Vec::new();
    };
    let mut depth = 0i32;
    let mut close = sig.len();
    for (i, c) in sig[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for (pos, param) in split_top_level(&sig[open + 1..close]).iter().enumerate() {
        let Some((name, ty)) = param.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_start_matches("mut ").trim();
        if !name.chars().all(is_ident_char) || name.is_empty() {
            continue;
        }
        let role = if ty.contains("Sender<") {
            Some(Role::Send)
        } else if ty.contains("Receiver<") {
            Some(Role::Recv)
        } else {
            None
        };
        if let Some(role) = role {
            out.push((pos, name.to_string(), role));
        }
    }
    out
}

/// Idents appearing in `args` at top level, positionally; `None` for
/// non-ident expressions. Leading `&`/`&mut` are stripped.
fn arg_idents(args: &str) -> Vec<Option<String>> {
    split_top_level(args)
        .into_iter()
        .map(|a| {
            let a = a.trim_start_matches('&');
            let a = a.strip_prefix("mut ").unwrap_or(a).trim();
            (!a.is_empty()
                && a.chars().all(is_ident_char)
                && !a.starts_with(|c: char| c.is_ascii_digit()))
            .then(|| a.to_string())
        })
        .collect()
}

fn scan_structure(file: &str, lines: &[Stripped], in_test: &[bool]) -> Structure {
    let mut s = Structure::default();
    let mut depth = 0i64;
    // (struct name, body depth) while inside a struct definition.
    let mut struct_ctx: Option<(String, i64)> = None;
    // fn-signature accumulation: (name, text so far) until `{` or `;`.
    let mut pending_fn: Option<(String, String)> = None;
    // Recent `let (a, b) =` destructure awaiting a creation site.
    let mut pending_destructure: Option<(Option<String>, Option<String>, usize)> = None;

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let lineno = idx + 1;
        let live = !in_test[idx];

        if live {
            if let Some((name, sig)) = &mut pending_fn {
                sig.push(' ');
                sig.push_str(code);
                if code.contains('{') || code.contains(';') {
                    let params = parse_params(sig);
                    record_fn(&mut s, name.clone(), params);
                    pending_fn = None;
                }
            } else if let Some(pos) = find_fn_decl(code) {
                if let Some(name) = ident_at(code, pos) {
                    let sig = code.to_string();
                    if code.contains('{') || code.contains(';') {
                        record_fn(&mut s, name.to_string(), parse_params(&sig));
                    } else {
                        pending_fn = Some((name.to_string(), sig));
                    }
                }
            }

            // Struct definitions and their fields.
            let trimmed = code.trim_start();
            if struct_ctx.is_none() {
                if let Some(rest) = trimmed
                    .strip_prefix("pub struct ")
                    .or_else(|| trimmed.strip_prefix("pub(crate) struct "))
                    .or_else(|| trimmed.strip_prefix("struct "))
                {
                    if let Some(name) = ident_at(rest, 0) {
                        if code.contains('{') && !code.contains('}') {
                            struct_ctx = Some((name.to_string(), depth + 1));
                        }
                    }
                }
            } else if let Some((struct_name, body_depth)) = struct_ctx.clone() {
                if depth == body_depth {
                    // A field line: `name: Type,`
                    if let Some((field, ty)) = trimmed
                        .trim_start_matches("pub ")
                        .trim_start_matches("pub(crate) ")
                        .split_once(':')
                    {
                        let field = field.trim();
                        if !field.is_empty() && field.chars().all(is_ident_char) {
                            let owner = s
                                .field_owner
                                .entry(field.to_string())
                                .or_insert_with(|| Some(struct_name.clone()));
                            if owner.as_deref() != Some(struct_name.as_str()) {
                                *owner = None;
                            }
                            if ty.contains("Mutex<") || ty.contains("RwLock<") {
                                let id = format!("{struct_name}::{field}");
                                let entry = s
                                    .lock_fields
                                    .entry(field.to_string())
                                    .or_insert_with(|| Some(id.clone()));
                                if entry.as_deref() != Some(id.as_str()) {
                                    *entry = None;
                                }
                            }
                            if ty.contains("Sender<") {
                                s.typed_fields.insert(field.to_string(), Role::Send);
                            } else if ty.contains("Receiver<") {
                                s.typed_fields.insert(field.to_string(), Role::Recv);
                            }
                        }
                    }
                }
            }

            // Channel creations.
            let boundedness = if has_word(code, "unbounded") {
                Some(Some(false))
            } else if has_word(code, "bounded") || has_word(code, "sync_channel") {
                Some(Some(true))
            } else if code.contains("mpsc::channel(") {
                Some(Some(false))
            } else {
                None
            };
            // Track a bare destructure line for match-arm creations.
            if let Some((a, b)) = parse_destructure(code) {
                pending_destructure = Some((a.clone(), b.clone(), idx));
                if let Some(bounded) = boundedness {
                    push_channel(&mut s, file, lineno, bounded, a, b);
                    pending_destructure = None;
                }
            } else if let Some(bounded) = boundedness {
                // Creation without a same-line `let ( .. )`: bind the most
                // recent destructure within 3 lines (match arms). A line that
                // opens its own `let` binding is a different statement — the
                // pending destructure must not capture its channel.
                let own_let = code.trim_start().starts_with("let ");
                let (a, b) = match &pending_destructure {
                    Some((a, b, at)) if idx - at <= 3 && !own_let => (a.clone(), b.clone()),
                    _ => (None, None),
                };
                push_channel(&mut s, file, lineno, bounded, a, b);
            }

            // Aliases: `let a = b;` / `let a = b.clone();`
            let t = code.trim();
            if let Some(rest) = t.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                if let Some((lhs, rhs)) = rest.split_once('=') {
                    let lhs = lhs.trim();
                    let rhs = rhs.trim().trim_end_matches(';').trim();
                    let rhs = rhs.strip_suffix(".clone()").unwrap_or(rhs);
                    if lhs.chars().all(is_ident_char)
                        && !lhs.is_empty()
                        && rhs.chars().all(is_ident_char)
                        && !rhs.is_empty()
                        && lhs != rhs
                    {
                        s.binds.push(BindCand::Alias {
                            to: lhs.to_string(),
                            from: rhs.to_string(),
                        });
                    }
                }
            }

            // Struct-literal field inits: every `field: ident` pair whose
            // value is a plain identifier terminated by `,`/`}`/`)` (or end
            // of line). Type ascriptions and field declarations are ruled
            // out by their `<`/`=` terminators.
            for (field, from) in field_init_pairs(code) {
                s.binds.push(BindCand::FieldLit { field, from });
            }
            // Shorthand inits (`rx,` on a line of its own) of a field
            // declared above as a Sender/Receiver bind like `rx: rx`.
            if let Some(field) = t.strip_suffix(',') {
                if s.typed_fields.contains_key(field) {
                    s.binds.push(BindCand::FieldLit {
                        field: field.to_string(),
                        from: field.to_string(),
                    });
                }
            }

            // Free-fn calls with args, for endpoint-param binding.
            scan_calls(code, |at, name, _is_method| {
                if _is_method {
                    return;
                }
                let open = at + name.len();
                // Single-line argument list only.
                let rest = &code[open..];
                let mut d = 0i32;
                let mut close = None;
                for (i, c) in rest.char_indices() {
                    match c {
                        '(' => d += 1,
                        ')' => {
                            d -= 1;
                            if d == 0 {
                                close = Some(i);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if let Some(close) = close {
                    s.binds.push(BindCand::CallArgs {
                        callee: name.to_string(),
                        args: arg_idents(&rest[1..close]),
                    });
                }
            });
        }

        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    if struct_ctx.as_ref().is_some_and(|(_, d)| *d == depth) {
                        struct_ctx = None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    s
}

fn record_fn(s: &mut Structure, name: String, params: Vec<(usize, String, Role)>) {
    s.fn_endpoint_params
        .entry(name)
        .and_modify(|e| *e = None)
        .or_insert(Some(params));
}

fn push_channel(
    s: &mut Structure,
    file: &str,
    lineno: usize,
    bounded: Option<bool>,
    tx: Option<String>,
    rx: Option<String>,
) {
    let key = format!("{file}:{lineno}");
    s.channels.push(ChannelDef {
        key: key.clone(),
        file: file.to_string(),
        line: lineno,
        bounded,
    });
    s.binds.push(BindCand::Destructure { tx, rx, chan: key });
}

/// `let (a, b) = ...` — returns the two bound names (`None` for `_`).
fn parse_destructure(code: &str) -> Option<(Option<String>, Option<String>)> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix('(')?;
    let close = rest.find(')')?;
    let inner = &rest[..close];
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    if parts.len() != 2 {
        return None;
    }
    let name = |p: &str| {
        let p = p.trim_start_matches("mut ").trim();
        (p != "_" && !p.is_empty() && p.chars().all(is_ident_char)).then(|| p.to_string())
    };
    Some((name(parts[0]), name(parts[1])))
}

/// Find `fn ` declarations (word-boundary); returns the byte offset of the
/// fn name.
fn find_fn_decl(code: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(pos) = code[start..].find("fn ") {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        if before_ok {
            let name_at = at + 3;
            if ident_at(code, name_at).is_some() {
                return Some(name_at);
            }
        }
        start = at + 3;
    }
    None
}

/// Scan `code` for call-shaped tokens `name(` / `.name(`, invoking
/// `f(byte_offset_of_name, name, is_method_call)`.
fn scan_calls(code: &str, mut f: impl FnMut(usize, &str, bool)) {
    // Byte-level ASCII scanning: non-ASCII bytes are separators, so slices
    // always land on char boundaries.
    let ident_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < code.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < code.len() && ident_byte(bytes[i]) {
                i += 1;
            }
            let name = &code[start..i];
            if i < code.len() && bytes[i] as char == '(' {
                let is_method = start > 0 && bytes[start - 1] as char == '.';
                const KEYWORDS: [&str; 10] = [
                    "if", "while", "for", "match", "loop", "return", "fn", "move", "in", "else",
                ];
                if !KEYWORDS.contains(&name) {
                    f(start, name, is_method);
                }
            }
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: contexts and operations
// ---------------------------------------------------------------------------

struct Guard {
    lock_idx: usize,
    var: Option<String>,
}

struct Scope {
    open_depth: i64,
    guards: Vec<Guard>,
}

struct Frame {
    ctx: ContextSummary,
    entry_depth: i64,
    scopes: Vec<Scope>,
    /// Spawn closures with no `{` live only on their spawn line.
    single_line: bool,
    /// Lock indices from a block-scoped statement header (`for`/`if let`/
    /// `while let`/`match` scrutinee) waiting for the block's `{` — the
    /// temporary lives for that block, which opens after the acquisition
    /// is scanned.
    pending_block_guards: Vec<usize>,
}

struct Builder<'a> {
    file: &'a str,
    lines: &'a [Stripped],
    structure: &'a Structure,
    names: BTreeMap<String, Binding>,
    channels: BTreeMap<String, ChannelDef>,
    frames: Vec<Frame>,
    done: Vec<ContextSummary>,
    depth: i64,
    impl_stack: Vec<(String, i64)>,
}

impl FileModel {
    /// Build the model for one file. `rel_path` is repo-root relative.
    pub fn build(rel_path: &str, text: &str) -> FileModel {
        let lines = strip_lines(text);
        let in_test = test_regions(&lines);
        let structure = scan_structure(rel_path, &lines, &in_test);
        let names = resolve_bindings(&structure);
        let channels: BTreeMap<String, ChannelDef> = structure
            .channels
            .iter()
            .map(|c| (c.key.clone(), c.clone()))
            .collect();
        let mut b = Builder {
            file: rel_path,
            lines: &lines,
            structure: &structure,
            names,
            channels,
            frames: Vec::new(),
            done: Vec::new(),
            depth: 0,
            impl_stack: Vec::new(),
        };
        b.run(&in_test);
        let mut contexts = b.done;
        contexts.sort_by_key(|c| (c.line, c.name.clone()));
        FileModel {
            file: rel_path.to_string(),
            channels: structure.channels,
            contexts,
        }
    }
}

fn resolve_bindings(s: &Structure) -> BTreeMap<String, Binding> {
    let mut names: BTreeMap<String, Binding> = BTreeMap::new();
    for (field, role) in &s.typed_fields {
        names.insert(format!("@{field}"), Binding::Typed(*role));
    }
    // Fixpoint over alias/field/call bindings (chains are short).
    for _ in 0..3 {
        for cand in &s.binds {
            match cand {
                BindCand::Destructure { tx, rx, chan } => {
                    if let Some(tx) = tx {
                        bind(&mut names, tx, Binding::Chan(chan.clone(), Role::Send));
                    }
                    if let Some(rx) = rx {
                        bind(&mut names, rx, Binding::Chan(chan.clone(), Role::Recv));
                    }
                }
                BindCand::Alias { to, from } => {
                    if let Some(Binding::Chan(c, r)) = names.get(from).cloned() {
                        bind(&mut names, to, Binding::Chan(c, r));
                    }
                }
                BindCand::FieldLit { field, from } => {
                    if let Some(Binding::Chan(c, r)) = names.get(from).cloned() {
                        bind(&mut names, &format!("@{field}"), Binding::Chan(c, r));
                    }
                }
                BindCand::CallArgs { callee, args } => {
                    let Some(Some(params)) = s.fn_endpoint_params.get(callee) else {
                        continue;
                    };
                    for (pos, pname, role) in params {
                        let Some(Some(arg)) = args.get(*pos) else {
                            continue;
                        };
                        if let Some(Binding::Chan(c, _)) = names.get(arg).cloned() {
                            bind(&mut names, pname, Binding::Chan(c, *role));
                        }
                    }
                }
            }
        }
    }
    // Endpoint-typed params without a concrete channel still count as
    // endpoints for blocking-send detection.
    for params in s.fn_endpoint_params.values().flatten() {
        for (_, pname, role) in params {
            names.entry(pname.clone()).or_insert(Binding::Typed(*role));
        }
    }
    names
}

fn bind(names: &mut BTreeMap<String, Binding>, name: &str, binding: Binding) {
    match names.get(name) {
        None | Some(Binding::Typed(_)) => {
            names.insert(name.to_string(), binding);
        }
        Some(existing) if *existing == binding => {}
        Some(Binding::Chan(..)) => {
            names.insert(name.to_string(), Binding::Poisoned);
        }
        Some(Binding::Poisoned) => {}
    }
}

impl Builder<'_> {
    fn run(&mut self, in_test: &[bool]) {
        // fn-header latch: (name, header depth) waiting for its body `{`.
        let mut pending_fn: Option<(String, i64)> = None;
        for (idx, &line_is_test) in in_test.iter().enumerate() {
            let code = self.lines[idx].code.clone();
            let lineno = idx + 1;
            let live = !line_is_test;

            if live {
                // impl headers (same-line `{`, per rustfmt).
                let trimmed = code.trim_start();
                if (trimmed.starts_with("impl ") || trimmed.starts_with("impl<"))
                    && code.contains('{')
                {
                    if let Some(ty) = impl_type(trimmed) {
                        self.impl_stack.push((ty, self.depth + 1));
                    }
                }
                if pending_fn.is_none() {
                    if let Some(pos) = find_fn_decl(&code) {
                        if let Some(name) = ident_at(&code, pos) {
                            pending_fn = Some((name.to_string(), self.depth));
                        }
                    }
                }
                // Spawn closures become their own context.
                let spawn_ctx = code.contains("spawn(") && code.contains("||");
                if spawn_ctx {
                    let parent = self
                        .frames
                        .last()
                        .map(|f| f.ctx.name.clone())
                        .unwrap_or_else(|| "top".to_string());
                    let has_body = code
                        .find("||")
                        .map(|p| code[p..].contains('{'))
                        .unwrap_or(false);
                    self.frames.push(Frame {
                        ctx: ContextSummary {
                            name: format!("{parent}::spawn@{lineno}"),
                            fn_name: None,
                            file: self.file.to_string(),
                            line: lineno,
                            locks: Vec::new(),
                            chan_ops: Vec::new(),
                            blocking: Vec::new(),
                            calls: Vec::new(),
                        },
                        // Entered before its `{` is scanned below.
                        entry_depth: self.depth + 1,
                        scopes: vec![Scope {
                            open_depth: self.depth,
                            guards: Vec::new(),
                        }],
                        single_line: !has_body,
                        pending_block_guards: Vec::new(),
                    });
                }

                self.scan_ops(idx, lineno, &code);
            }

            // Brace tracking: open fn bodies, close scopes/frames.
            for c in code.chars() {
                match c {
                    '{' => {
                        self.depth += 1;
                        if let Some((name, header_depth)) = pending_fn.take() {
                            if header_depth + 1 == self.depth {
                                self.push_fn_frame(name, lineno);
                            } else {
                                pending_fn = Some((name, header_depth));
                            }
                        } else if let Some(frame) = self.frames.last_mut() {
                            let mut scope = Scope {
                                open_depth: self.depth,
                                guards: Vec::new(),
                            };
                            // Block-scoped statement temporaries live for
                            // the block their statement opens — this one.
                            for lock_idx in frame.pending_block_guards.drain(..) {
                                scope.guards.push(Guard {
                                    lock_idx,
                                    var: None,
                                });
                            }
                            frame.scopes.push(scope);
                        }
                    }
                    '}' => {
                        if let Some(frame) = self.frames.last_mut() {
                            if frame
                                .scopes
                                .last()
                                .is_some_and(|sc| sc.open_depth == self.depth)
                            {
                                let scope = frame.scopes.pop().unwrap_or(Scope {
                                    open_depth: 0,
                                    guards: Vec::new(),
                                });
                                for g in scope.guards {
                                    frame.ctx.locks[g.lock_idx].until = lineno;
                                }
                            }
                            if self.depth == frame.entry_depth {
                                self.pop_frame(lineno);
                            }
                        }
                        if self
                            .impl_stack
                            .last()
                            .is_some_and(|(_, d)| *d == self.depth)
                        {
                            self.impl_stack.pop();
                        }
                        self.depth -= 1;
                    }
                    ';' if pending_fn.as_ref().is_some_and(|(_, d)| *d == self.depth) => {
                        pending_fn = None;
                    }
                    _ => {}
                }
            }
            // Single-line spawn closures end with their line.
            if self.frames.last().is_some_and(|f| f.single_line) {
                self.pop_frame(lineno);
            }
        }
        while !self.frames.is_empty() {
            let last = self.lines.len();
            self.pop_frame(last);
        }
    }

    fn push_fn_frame(&mut self, name: String, lineno: usize) {
        let ctx_name = match self.impl_stack.last() {
            Some((ty, _)) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        self.frames.push(Frame {
            ctx: ContextSummary {
                name: ctx_name,
                fn_name: Some(name),
                file: self.file.to_string(),
                line: lineno,
                locks: Vec::new(),
                chan_ops: Vec::new(),
                blocking: Vec::new(),
                calls: Vec::new(),
            },
            entry_depth: self.depth,
            scopes: vec![Scope {
                open_depth: self.depth,
                guards: Vec::new(),
            }],
            single_line: false,
            pending_block_guards: Vec::new(),
        });
    }

    fn pop_frame(&mut self, lineno: usize) {
        if let Some(mut frame) = self.frames.pop() {
            for scope in frame.scopes.drain(..) {
                for g in scope.guards {
                    frame.ctx.locks[g.lock_idx].until = lineno;
                }
            }
            for lock_idx in frame.pending_block_guards.drain(..) {
                frame.ctx.locks[lock_idx].until = lineno;
            }
            self.done.push(frame.ctx);
        }
    }

    /// Detect locks, channel ops, blocking calls, and call sites on one line.
    fn scan_ops(&mut self, idx: usize, lineno: usize, code: &str) {
        if self.frames.is_empty() {
            return;
        }

        // Explicit guard release.
        if let Some(pos) = code.find("drop(") {
            if let Some(var) = ident_at(code, pos + 5) {
                let var = var.to_string();
                if let Some(frame) = self.frames.last_mut() {
                    for scope in frame.scopes.iter_mut() {
                        if let Some(gi) = scope
                            .guards
                            .iter()
                            .position(|g| g.var.as_deref() == Some(&var))
                        {
                            let g = scope.guards.remove(gi);
                            frame.ctx.locks[g.lock_idx].until = lineno;
                        }
                    }
                }
            }
        }

        // Lock acquisitions.
        for token in [".lock()", ".read()", ".write()"] {
            let mut start = 0;
            while let Some(pos) = code[start..].find(token) {
                let at = start + pos;
                start = at + token.len();
                let prefix = joined_prefix(self.lines, idx, at);
                let receiver = trailing_chain(&prefix);
                if receiver.is_empty() {
                    continue;
                }
                let Some(lock) = self.resolve_lock(token, &receiver) else {
                    continue;
                };
                self.record_acquisition(idx, lineno, at + token.len(), lock);
            }
        }

        // Channel operations and other blocking calls. `try_recv()` is a
        // channel op that never blocks: it pairs with its channel but is
        // no blocking call.
        let mut ops: Vec<(usize, Role, Option<&'static str>)> = Vec::new();
        for (token, role, what) in [
            (".send(", Role::Send, Some("channel send")),
            (".send_timeout(", Role::Send, Some("channel send")),
            (".recv()", Role::Recv, Some("channel recv")),
            (".recv_timeout(", Role::Recv, Some("channel recv")),
            (".recv_deadline(", Role::Recv, Some("channel recv")),
            (".try_recv()", Role::Recv, None),
        ] {
            let mut start = 0;
            while let Some(pos) = code[start..].find(token) {
                let at = start + pos;
                start = at + token.len();
                ops.push((at, role, what));
            }
        }
        for (at, role, what) in ops {
            let prefix = joined_prefix(self.lines, idx, at);
            let receiver = trailing_chain(&prefix);
            let binding = self.resolve_endpoint(&receiver, role);
            let chan = match (role, binding) {
                (_, Some(Binding::Chan(chan, _))) => Some(Some(chan)),
                (_, Some(Binding::Typed(_))) => Some(None),
                // An unresolved `.recv()` is still almost surely a channel;
                // an unresolved `.send(..)` could be anything — skip it.
                (Role::Recv, _) => None,
                (Role::Send, _) => continue,
            };
            if let Some(chan) = chan {
                let bounded = chan
                    .as_ref()
                    .and_then(|c| self.channels.get(c))
                    .and_then(|c| c.bounded);
                self.top_ctx().chan_ops.push(ChanOp {
                    chan,
                    role,
                    line: lineno,
                    bounded,
                });
            }
            if let Some(what) = what {
                self.top_ctx()
                    .blocking
                    .push(BlockingCall { line: lineno, what });
            }
        }
        if code.contains("thread::sleep(") {
            self.top_ctx().blocking.push(BlockingCall {
                line: lineno,
                what: "sleep",
            });
        }
        if code.contains(".join()") {
            self.top_ctx().blocking.push(BlockingCall {
                line: lineno,
                what: "thread join",
            });
        }
        if code.contains(".acquire(") {
            self.top_ctx().blocking.push(BlockingCall {
                line: lineno,
                what: "rate-limiter acquire",
            });
        }

        // Call sites for one-level summary propagation.
        let mut calls: Vec<CallSite> = Vec::new();
        scan_calls(code, |_, name, _| {
            calls.push(CallSite {
                line: lineno,
                callee: name.to_string(),
            });
        });
        self.top_ctx().calls.extend(calls);
    }

    fn top_ctx(&mut self) -> &mut ContextSummary {
        // Callers check `frames` is non-empty in scan_ops.
        let last = self.frames.len() - 1;
        &mut self.frames[last].ctx
    }

    fn resolve_lock(&self, token: &str, receiver: &str) -> Option<String> {
        let field = receiver
            .strip_prefix("self.")
            .map(|rest| rest.split('.').next().unwrap_or(rest));
        let bare = (!receiver.contains('.')).then_some(receiver);
        let known_field = |f: &str| -> Option<String> {
            match self.structure.lock_fields.get(f) {
                Some(Some(id)) => Some(id.clone()),
                _ => None,
            }
        };
        if token == ".lock()" {
            if let Some(f) = field {
                if let Some(id) = known_field(f) {
                    return Some(id);
                }
                if let Some((ty, _)) = self.impl_stack.last() {
                    return Some(format!("{ty}::{f}"));
                }
                return Some(format!("{}::{f}", self.file_stem()));
            }
            if let Some(name) = bare {
                if let Some(id) = known_field(name) {
                    return Some(id);
                }
                if let Some(Some(owner)) = self.structure.field_owner.get(name) {
                    return Some(format!("{owner}::{name}"));
                }
                let ctx = self
                    .frames
                    .last()
                    .map(|f| f.ctx.name.clone())
                    .unwrap_or_else(|| self.file_stem());
                return Some(format!("{ctx}::{name}"));
            }
            // Chained receiver like `handle.inner` — context-local identity.
            let ctx = self
                .frames
                .last()
                .map(|f| f.ctx.name.clone())
                .unwrap_or_else(|| self.file_stem());
            return Some(format!("{ctx}::{receiver}"));
        }
        // `.read()` / `.write()` only count when the receiver is a known
        // RwLock-typed field — everything else is std::io or user methods.
        let f = field.or(bare)?;
        known_field(f)
    }

    fn file_stem(&self) -> String {
        self.file
            .rsplit('/')
            .next()
            .unwrap_or(self.file)
            .trim_end_matches(".rs")
            .to_string()
    }

    fn resolve_endpoint(&self, receiver: &str, role: Role) -> Option<Binding> {
        if receiver.is_empty() {
            return None;
        }
        if let Some(b) = self.names.get(receiver) {
            return Some(b.clone());
        }
        // `worker.jobs` / `self.tx` — field-keyed binding.
        if let Some(last) = receiver.rsplit('.').next() {
            if last != receiver {
                if let Some(b) = self.names.get(&format!("@{last}")) {
                    return Some(b.clone());
                }
            }
        }
        // A struct field typed Sender/Receiver used without a binding.
        if let Some(last) = receiver.rsplit('.').next() {
            if let Some(r) = self.structure.typed_fields.get(last) {
                if *r == role {
                    return Some(Binding::Typed(*r));
                }
            }
        }
        None
    }

    fn record_acquisition(&mut self, idx: usize, lineno: usize, after_col: usize, lock: String) {
        let stmt_start = statement_start(self.lines, idx);
        let stmt_first = self.lines[stmt_start].code.trim_start();
        let block_scoped = stmt_first.starts_with("for ")
            || stmt_first.starts_with("if let ")
            || stmt_first.starts_with("while let ")
            || stmt_first.starts_with("match ");
        let keeps = chain_keeps_guard(self.lines, idx, after_col);
        let let_var = keeps
            .then(|| let_binding_ident(&self.lines[stmt_start].code))
            .flatten();

        let Some(frame) = self.frames.last_mut() else {
            return;
        };
        let lock_idx = frame.ctx.locks.len();
        if let_var.is_some() {
            // Let-bound guard: lives to the end of the enclosing scope (or
            // an explicit `drop`). Brace tracking sets `until`.
            frame.ctx.locks.push(LockAcq {
                lock,
                line: lineno,
                until: usize::MAX,
            });
            if let Some(scope) = frame.scopes.last_mut() {
                scope.guards.push(Guard {
                    lock_idx,
                    var: let_var,
                });
            }
        } else if block_scoped {
            // Statement-header temporary (for/if-let/while-let/match): the
            // guard lives for the block the statement opens, whose `{` has
            // not been scanned yet — park it until that scope is pushed.
            frame.ctx.locks.push(LockAcq {
                lock,
                line: lineno,
                until: usize::MAX,
            });
            frame.pending_block_guards.push(lock_idx);
        } else {
            // Statement temporary: lives to the end of its statement.
            let until = statement_end(self.lines, idx) + 1;
            frame.ctx.locks.push(LockAcq {
                lock,
                line: lineno,
                until,
            });
        }
    }
}

fn impl_type(trimmed: &str) -> Option<String> {
    let rest = trimmed.strip_prefix("impl")?;
    // Skip generic parameters.
    let rest = if let Some(r) = rest.strip_prefix('<') {
        let mut depth = 1;
        let mut cut = r.len();
        for (i, c) in r.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &r[cut..]
    } else {
        rest
    };
    let rest = rest.trim_start();
    // `impl Trait for Type {` — take the type after `for`.
    let target = match rest.find(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    let target = target.trim_start();
    // Last path segment, stripped of generics and the opening brace.
    let head = target
        .split(|c: char| c == '<' || c == '{' || c.is_whitespace())
        .next()
        .unwrap_or(target);
    let seg = head.rsplit("::").next().unwrap_or(head);
    (!seg.is_empty() && seg.chars().all(is_ident_char)).then(|| seg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(text: &str) -> FileModel {
        FileModel::build("crates/x/src/m.rs", text)
    }

    #[test]
    fn lock_fields_resolve_to_struct_scoped_identities() {
        let src = "struct S {\n    state: Mutex<u32>,\n}\n\nimpl S {\n    fn touch(&self) {\n        let g = self.state.lock();\n        drop(g);\n    }\n}\n";
        let m = model(src);
        let ctx = m
            .contexts
            .iter()
            .find(|c| c.name == "S::touch")
            .expect("ctx");
        assert_eq!(ctx.locks.len(), 1);
        assert_eq!(ctx.locks[0].lock, "S::state");
        assert_eq!(ctx.locks[0].line, 7);
        assert_eq!(ctx.locks[0].until, 8, "drop() ends the guard");
    }

    #[test]
    fn let_guard_lives_to_scope_end_and_block_guard_to_its_block() {
        let src = concat!(
            "struct S {\n",
            "    a: Mutex<u32>,\n",
            "}\n",
            "impl S {\n",
            "    fn scoped(&self) {\n",
            "        let x = {\n",
            "            let g = self.a.lock();\n",
            "            1\n",
            "        };\n",
            "        let _ = x;\n",
            "    }\n",
            "}\n",
        );
        let m = model(src);
        let ctx = m
            .contexts
            .iter()
            .find(|c| c.name == "S::scoped")
            .expect("ctx");
        assert_eq!(ctx.locks[0].until, 9, "guard dies with the inner block");
    }

    #[test]
    fn temporary_guard_spans_its_statement_only() {
        let src = "struct S {\n    a: Mutex<u32>,\n}\nimpl S {\n    fn peek(&self) -> u32 {\n        let n = self.a.lock().checked_add(1).unwrap_or(0);\n        n\n    }\n}\n";
        let m = model(src);
        let ctx = m
            .contexts
            .iter()
            .find(|c| c.name == "S::peek")
            .expect("ctx");
        assert_eq!(ctx.locks[0].line, 6);
        assert_eq!(ctx.locks[0].until, 6, "chain consumes the guard");
    }

    #[test]
    fn for_loop_read_guard_spans_the_loop() {
        let src = "struct R {\n    m: RwLock<Vec<u32>>,\n}\nimpl R {\n    fn walk(&self) {\n        for v in self.m.read().iter() {\n            let _ = v;\n        }\n    }\n}\n";
        let m = model(src);
        let ctx = m
            .contexts
            .iter()
            .find(|c| c.name == "R::walk")
            .expect("ctx");
        assert_eq!(ctx.locks[0].line, 6);
        assert_eq!(
            ctx.locks[0].until, 8,
            "for-loop temporary lives for the loop"
        );
    }

    #[test]
    fn channels_bind_through_destructure_and_struct_literals() {
        let src = concat!(
            "struct W {\n",
            "    jobs: Sender<u32>,\n",
            "    results: Receiver<u32>,\n",
            "}\n",
            "fn build() -> W {\n",
            "    let (tx, rx) = bounded::<u32>(1);\n",
            "    let (rtx, rrx) = bounded::<u32>(1);\n",
            "    std::thread::Builder::new()\n",
            "        .spawn(move || {\n",
            "            while let Ok(v) = rx.recv() {\n",
            "                let _ = rtx.send(v);\n",
            "            }\n",
            "        })\n",
            "        .ok();\n",
            "    W { jobs: tx, results: rrx }\n",
            "}\n",
            "fn ask(w: &W) -> Option<u32> {\n",
            "    w.jobs.send(1).ok()?;\n",
            "    w.results.recv().ok()\n",
            "}\n",
        );
        let m = model(src);
        assert_eq!(m.channels.len(), 2);
        let spawn = m
            .contexts
            .iter()
            .find(|c| c.name.contains("spawn@9"))
            .expect("spawn ctx");
        assert_eq!(spawn.chan_ops.len(), 2);
        let ask = m
            .contexts
            .iter()
            .find(|c| c.name == "ask")
            .expect("ask ctx");
        let send = ask
            .chan_ops
            .iter()
            .find(|o| o.role == Role::Send)
            .expect("send");
        assert_eq!(send.bounded, Some(true));
        assert!(send.chan.is_some(), "struct-literal field flow resolves");
    }

    #[test]
    fn endpoint_params_bind_through_free_fn_calls() {
        let src = concat!(
            "fn connect() {\n",
            "    let (tx, rx) = unbounded();\n",
            "    std::thread::spawn(move || pump(rx, 1));\n",
            "    let _ = tx.send(3);\n",
            "}\n",
            "fn pump(input: Receiver<u32>, n: u32) {\n",
            "    while let Ok(v) = input.recv() {\n",
            "        let _ = v + n;\n",
            "    }\n",
            "}\n",
        );
        let m = model(src);
        let pump = m
            .contexts
            .iter()
            .find(|c| c.name == "pump")
            .expect("pump ctx");
        let recv = pump
            .chan_ops
            .iter()
            .find(|o| o.role == Role::Recv)
            .expect("recv");
        assert!(recv.chan.is_some(), "param bound to the concrete channel");
        assert_eq!(recv.bounded, Some(false));
    }

    #[test]
    fn ambiguous_creation_sites_poison_the_name() {
        let src = concat!(
            "fn connect(limit: Option<usize>) {\n",
            "    let (tx, rx) = match limit {\n",
            "        Some(n) => bounded(n),\n",
            "        None => unbounded(),\n",
            "    };\n",
            "    let _ = tx.send(1);\n",
            "    let _ = rx.recv();\n",
            "}\n",
        );
        let m = model(src);
        let ctx = m
            .contexts
            .iter()
            .find(|c| c.name == "connect")
            .expect("ctx");
        assert!(
            ctx.chan_ops.iter().all(|o| o.chan.is_none()),
            "poisoned endpoints must not pair: {:?}",
            ctx.chan_ops
        );
    }

    #[test]
    fn multiline_chains_resolve_their_receiver() {
        let src = concat!(
            "struct S {\n",
            "    inclusion: Mutex<u32>,\n",
            "}\n",
            "impl S {\n",
            "    fn note(&self) {\n",
            "        let mut map = self\n",
            "            .inclusion\n",
            "            .lock()\n",
            "            .unwrap_or_else(std::sync::PoisonError::into_inner);\n",
            "        *map += 1;\n",
            "    }\n",
            "}\n",
        );
        let m = model(src);
        let ctx = m
            .contexts
            .iter()
            .find(|c| c.name == "S::note")
            .expect("ctx");
        assert_eq!(ctx.locks[0].lock, "S::inclusion");
        assert_eq!(ctx.locks[0].until, 11, "let-bound guard lives to fn end");
    }

    #[test]
    fn condvar_wait_is_not_blocking_but_sleep_and_join_are() {
        let src = concat!(
            "struct S {\n",
            "    state: Mutex<u32>,\n",
            "}\n",
            "impl S {\n",
            "    fn wait(&self) {\n",
            "        let mut st = self.state.lock();\n",
            "        self.cond.wait_for(&mut st, TIMEOUT);\n",
            "    }\n",
            "}\n",
            "fn pause(h: std::thread::JoinHandle<()>) {\n",
            "    std::thread::sleep(D);\n",
            "    let _ = h.join();\n",
            "}\n",
        );
        let m = model(src);
        let w = m
            .contexts
            .iter()
            .find(|c| c.name == "S::wait")
            .expect("ctx");
        assert!(
            w.blocking.is_empty(),
            "condvar wait releases the lock: {:?}",
            w.blocking
        );
        let p = m.contexts.iter().find(|c| c.name == "pause").expect("ctx");
        assert_eq!(p.blocking.len(), 2);
    }

    #[test]
    fn test_regions_contribute_no_contexts_or_channels() {
        let src = concat!(
            "fn live() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn helper() {\n",
            "        let (tx, rx) = bounded(1);\n",
            "        let _ = (tx.send(1), rx.recv());\n",
            "    }\n",
            "}\n",
        );
        let m = model(src);
        assert!(m.channels.is_empty());
        assert!(m.contexts.iter().all(|c| c.name == "live"));
    }
}
