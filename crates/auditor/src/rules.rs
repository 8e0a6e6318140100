//! The rule catalogue (see DESIGN.md §11).
//!
//! | ID        | What it enforces                                        |
//! |-----------|---------------------------------------------------------|
//! | R1-panic  | No `unwrap`/`expect`/`panic!`-family in request paths   |
//! |           | and no `[]`-indexing inside decode functions            |
//! | R2-secret | Registered secret types never derive `Debug`/`Serialize`,|
//! |           | manual `Debug`/`Display` impls carry a redaction marker,|
//! |           | and secret fields never reach formatting macros         |
//! | R3-bound  | Preallocation in decode functions is capped with `min`  |
//! |           | (file-wide in the bounded cache modules, whose entire   |
//! |           | job is to not allocate past their cap)                  |
//! | R4-ct     | Equality on registered secret types routes through      |
//! |           | `ct_eq` (no derived or `==`-based `PartialEq`)          |
//! | R5-lock   | Lock discipline in the serving modules: raw `std::sync`/|
//! |           | `parking_lot` lock construction is banned (tracked      |
//! |           | wrappers only), every `TrackedMutex`/`TrackedRwLock`    |
//! |           | construction carries a `lock:class(Name)` annotation    |
//! |           | cross-checked against the declared class table, and     |
//! |           | `lock:acquire(Name)`-annotated nested acquisitions must |
//! |           | respect the declared partial order                      |
//!
//! Findings can be suppressed with `// audit:allow(<kind>, <reason>)`
//! placed on, or directly above, the offending statement; suppressed
//! findings are still counted and reported.

use crate::scan::{has_ident, ident_positions, LineInfo};
use crate::Finding;

/// Types whose values embed key material. Any `Debug`, `Serialize`, or
/// equality surface on these is audited.
pub const SECRET_TYPES: &[&str] = &[
    "UserKey",
    "SemKey",
    "PrivateKey",
    "Pkg",
    "ThresholdPkg",
    "IdKeyShare",
    "Share",
    "Polynomial",
    "DkgDealer",
    "GdhSecretKey",
    "GdhKeyShare",
    "GdhUser",
    "GdhSemKey",
    "BlindingFactor",
    "ElGamalUser",
    "ElGamalSemKey",
    "ElGamalKeyShare",
    "SecretLimbs",
    "StdRng",
];

/// Field names that carry raw secret scalars/points on the registered
/// types. A formatting macro touching one of these is a leak.
pub const SECRET_FIELDS: &[&str] = &["master", "coeffs", "x_user", "x_sem", "scalar"];

/// Formatting/logging macros audited by the R2 flow check.
const FMT_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln", "dbg",
];

/// The declared lock-class partial order — `(name, rank)`, lower rank
/// = acquired first — mirroring `LockClass::rank` in
/// `crates/core/src/lockdep.rs`. Equal ranks are incomparable (either
/// nesting direction passes the static check; the runtime lockdep
/// layer polices those via observed edges). A workspace test parses
/// the real table out of `lockdep.rs` and asserts this copy matches,
/// so the two cannot drift silently.
pub const LOCK_CLASSES: &[(&str, u8)] = &[
    ("Cluster", 0),
    ("Faults", 1),
    ("Conns", 2),
    ("Handlers", 3),
    ("Warm", 4),
    ("Journal", 5),
    ("Shard", 6),
    ("Idem", 7),
    ("Pool", 8),
    ("Inflight", 8),
    ("CacheTier", 10),
    ("AuditRing", 11),
];

/// Rank of a declared lock class, if `name` is one.
pub fn lock_class_rank(name: &str) -> Option<u8> {
    LOCK_CLASSES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, rank)| rank)
}

/// `true` for functions that decode untrusted bytes, by naming
/// convention: `decode_*`, `*_from_bytes`, `*_from_payload`,
/// `take_chunk`.
pub fn is_decode_fn(name: &str) -> bool {
    name.starts_with("decode")
        || name.ends_with("from_bytes")
        || name.ends_with("from_payload")
        || name == "take_chunk"
}

/// One parsed `audit:allow` escape.
#[derive(Debug)]
pub struct Allow {
    /// Rule kind: `panic`, `secret`, `bound`, `ct`, or `lock`.
    pub kind: String,
    /// Justification text.
    pub reason: String,
    /// 0-based line of the comment.
    pub line: usize,
    /// Covered 0-based line range (inclusive).
    pub covers: (usize, usize),
    /// Set when the allow suppressed at least one finding.
    pub used: bool,
}

fn rule_kind(rule: &str) -> &str {
    match rule {
        "R1-panic" => "panic",
        "R2-secret" => "secret",
        "R3-bound" => "bound",
        "R4-ct" => "ct",
        "R5-lock" => "lock",
        _ => "",
    }
}

/// Parses every `audit:allow(kind, reason)` comment and computes the
/// statement range each one covers: its own line through the first
/// following line that ends a statement (`;`, `{`, `}`, or `,`).
pub fn collect_allows(lines: &[LineInfo]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(at) = line.comment.find("audit:allow(") else {
            continue;
        };
        let rest = &line.comment[at + "audit:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let inner = &rest[..close];
        let (kind, reason) = match inner.split_once(',') {
            Some((k, r)) => (k.trim().to_string(), r.trim().to_string()),
            None => (inner.trim().to_string(), String::new()),
        };
        let mut end = i;
        for (j, later) in lines.iter().enumerate().skip(i + 1).take(10) {
            let code = later.code.trim_end();
            end = j;
            if code
                .chars()
                .last()
                .map(|c| matches!(c, ';' | '{' | '}' | ','))
                .unwrap_or(false)
            {
                break;
            }
        }
        allows.push(Allow {
            kind,
            reason,
            line: i,
            covers: (i, end),
            used: false,
        });
    }
    allows
}

/// `.unwrap(` / `.expect(` method calls on this line.
fn method_calls(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    ident_positions(code, name).into_iter().any(|at| {
        let before_dot = code[..at]
            .trim_end()
            .chars()
            .last()
            .map(|c| c == '.')
            .unwrap_or(false);
        let after_paren = bytes
            .get(at + name.len()..)
            .map(|rest| {
                rest.iter()
                    .find(|&&b| b != b' ')
                    .map(|&b| b == b'(')
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        before_dot && after_paren
    })
}

/// `name!(` macro invocations on this line.
fn macro_call(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    ident_positions(code, name).into_iter().any(|at| {
        bytes
            .get(at + name.len()..)
            .map(|rest| {
                rest.iter()
                    .find(|&&b| b != b' ')
                    .map(|&b| b == b'!')
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    })
}

/// `expr[` indexing: a `[` directly after an identifier char, `)`, or
/// `]` — array literals, slice types, and attributes don't match.
fn has_indexing(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    chars.iter().enumerate().any(|(i, &c)| {
        c == '['
            && i > 0
            && (chars[i - 1].is_alphanumeric() || matches!(chars[i - 1], '_' | ')' | ']'))
    })
}

/// Extracts the balanced argument of `call(` starting at `open` (the
/// index of the `(`), staying on this line.
fn paren_arg(code: &str, open: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'(' {
            depth += 1;
        } else if b == b')' {
            depth -= 1;
            if depth == 0 {
                return code.get(open + 1..i);
            }
        }
    }
    None
}

/// `true` when a preallocation argument is inherently bounded: it
/// carries a `min` cap or is a plain literal/constant expression with
/// no identifiers in it.
fn capped(arg: &str) -> bool {
    if has_ident(arg, "min") {
        return true;
    }
    // Literal-only arguments (`8`, `1 << 10`, `4 + SIGMA_LEN` is NOT
    // literal-only because of the identifier — but screaming-case
    // constants are compile-time bounds, so allow them).
    let mut rest = arg;
    loop {
        let Some(start) = rest.find(|c: char| c.is_alphabetic() || c == '_') else {
            return true; // no identifiers at all: pure literal arithmetic
        };
        let tail = &rest[start..];
        let end = tail
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let word = &tail[..end];
        let is_const = word
            .chars()
            .all(|c| c.is_uppercase() || c == '_' || c.is_numeric());
        // `8usize` / `0x10`: the "identifier" is glued to a leading digit.
        let is_literal_suffix = rest
            .as_bytes()
            .get(start.wrapping_sub(1))
            .map(|b| b.is_ascii_digit())
            .unwrap_or(false);
        if !is_const && !is_literal_suffix {
            return false;
        }
        rest = &tail[end..];
    }
}

/// Runs every rule over one scanned file. `raw` carries the original
/// lines (the scrubbed view blanks string contents, which the
/// redaction-marker check needs).
pub fn run_rules(
    path: &str,
    raw: &[&str],
    lines: &[LineInfo],
    panic_everywhere: bool,
    bound_everywhere: bool,
    lock_scope: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        findings.push(Finding {
            rule,
            file: path.to_string(),
            line: line + 1,
            message,
            allowed: None,
        });
    };

    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let in_decode = line
            .current_fn
            .as_deref()
            .map(is_decode_fn)
            .unwrap_or(false);

        // R1: panic-freedom.
        if panic_everywhere || in_decode {
            for call in ["unwrap", "expect"] {
                if method_calls(code, call) {
                    push("R1-panic", i, format!("`{call}()` in a no-panic path"));
                }
            }
            for mac in ["panic", "todo", "unimplemented"] {
                if macro_call(code, mac) {
                    push("R1-panic", i, format!("`{mac}!` in a no-panic path"));
                }
            }
        }
        if in_decode && has_indexing(code) {
            push(
                "R1-panic",
                i,
                "slice indexing in a decode function (use the bounds-checked cursor)".to_string(),
            );
        }

        // R3: untrusted-length bounds in decode functions — and
        // file-wide in the cache modules, where every allocation must
        // stay under the configured cap by construction.
        if in_decode || bound_everywhere {
            for marker in ["with_capacity", "resize"] {
                for at in ident_positions(code, marker) {
                    let Some(open) = code[at..].find('(').map(|o| at + o) else {
                        continue;
                    };
                    let arg = paren_arg(code, open).unwrap_or("");
                    if !capped(arg) {
                        push(
                            "R3-bound",
                            i,
                            format!("`{marker}({arg})` not capped with `min(..remaining..)`"),
                        );
                    }
                }
            }
        }

        // R2 (flow): secret fields reaching formatting macros.
        for mac in FMT_MACROS {
            if macro_call(code, mac) {
                for field in SECRET_FIELDS {
                    if code.contains(&format!(".{field}")) && has_ident(code, field) {
                        push(
                            "R2-secret",
                            i,
                            format!("secret field `.{field}` flows into `{mac}!`"),
                        );
                    }
                }
            }
        }
    }

    // R2/R4 (declarations): derives and trait impls on secret types.
    audit_derives(lines, &mut push);
    audit_impls(raw, lines, &mut push);

    // R5: lock discipline in the serving modules.
    if lock_scope {
        audit_locks(lines, &mut push);
    }

    // Apply the allowlist.
    let mut allows = collect_allows(lines);
    for finding in &mut findings {
        let kind = rule_kind(finding.rule);
        let at = finding.line - 1;
        for allow in &mut allows {
            if allow.kind == kind && at >= allow.covers.0 && at <= allow.covers.1 {
                finding.allowed = Some(if allow.reason.is_empty() {
                    "(no reason given)".to_string()
                } else {
                    allow.reason.clone()
                });
                allow.used = true;
                break;
            }
        }
    }
    findings
}

/// Flags `#[derive(Debug/Serialize/PartialEq)]` attached to a secret
/// type declaration.
fn audit_derives(lines: &[LineInfo], push: &mut impl FnMut(&'static str, usize, String)) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(at) = line.code.find("#[derive(") else {
            continue;
        };
        let Some(close) = line.code[at..].find(")]").map(|c| at + c) else {
            continue;
        };
        let derives = &line.code[at + "#[derive(".len()..close];
        // The struct/enum this derive attaches to: first declaration
        // within the next few lines (other attributes may intervene).
        let mut target: Option<&str> = None;
        for later in lines.iter().skip(i).take(8) {
            for kw in ["struct", "enum"] {
                if let Some(pos) = later
                    .code
                    .find(&format!("{kw} "))
                    .filter(|_| has_ident(&later.code, kw))
                {
                    let rest = &later.code[pos + kw.len() + 1..];
                    let name_end = rest
                        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .unwrap_or(rest.len());
                    target = SECRET_TYPES
                        .iter()
                        .find(|t| **t == &rest[..name_end])
                        .copied();
                }
            }
            if target.is_some() || later.code.contains('{') || later.code.ends_with(';') {
                break;
            }
        }
        let Some(name) = target else { continue };
        for bad in ["Debug", "Serialize"] {
            if has_ident(derives, bad) {
                push(
                    "R2-secret",
                    i,
                    format!("secret type `{name}` derives `{bad}` (prints key material)"),
                );
            }
        }
        if has_ident(derives, "PartialEq") {
            push(
                "R4-ct",
                i,
                format!("secret type `{name}` derives `PartialEq` (variable-time equality)"),
            );
        }
    }
}

/// Checks manual `Debug`/`Display`/`Serialize`/`PartialEq` impls on
/// secret types: formatting impls must contain a redaction marker,
/// equality impls must route through `ct_eq`.
fn audit_impls(
    raw: &[&str],
    lines: &[LineInfo],
    push: &mut impl FnMut(&'static str, usize, String),
) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test || !has_ident(&line.code, "impl") || !has_ident(&line.code, "for") {
            continue;
        }
        let Some(for_pos) = ident_positions(&line.code, "for").into_iter().next() else {
            continue;
        };
        let after_for = &line.code[for_pos + 3..];
        let Some(name) = SECRET_TYPES.iter().find(|t| has_ident(after_for, t)) else {
            continue;
        };
        let trait_part = &line.code[..for_pos];
        let is_fmt = has_ident(trait_part, "Debug") || has_ident(trait_part, "Display");
        let is_serialize = has_ident(trait_part, "Serialize");
        let is_eq = has_ident(trait_part, "PartialEq");
        if !is_fmt && !is_serialize && !is_eq {
            continue;
        }
        // Collect the impl block body (balanced braces from this line).
        let mut depth = 0i32;
        let mut body = String::new();
        let mut started = false;
        for (j, code_line) in lines.iter().enumerate().skip(i) {
            for c in code_line.code.chars() {
                if c == '{' {
                    depth += 1;
                    started = true;
                } else if c == '}' {
                    depth -= 1;
                }
            }
            if let Some(raw_line) = raw.get(j) {
                body.push_str(raw_line);
                body.push('\n');
            }
            if started && depth <= 0 {
                break;
            }
        }
        if is_serialize {
            push(
                "R2-secret",
                i,
                format!("secret type `{name}` implements `Serialize`"),
            );
        } else if is_fmt && !body.contains("redacted") {
            push(
                "R2-secret",
                i,
                format!("formatting impl for secret type `{name}` has no redaction marker"),
            );
        } else if is_eq && !body.contains("ct_eq") {
            push(
                "R4-ct",
                i,
                format!("`PartialEq` for secret type `{name}` does not use `ct_eq`"),
            );
        }
    }
}

/// Extracts `Name` from the first `marker(Name)` occurrence in a
/// comment, e.g. `lock:class(Shard)`.
fn annotation_name<'a>(comment: &'a str, marker: &str) -> Option<&'a str> {
    let at = comment.find(marker)?;
    let rest = &comment[at + marker.len()..];
    let close = rest.find(')')?;
    Some(rest[..close].trim())
}

/// R5-lock: the three lock-discipline checks for serving modules.
///
/// 1. Raw `Mutex`/`RwLock` construction is banned — every lock must be
///    a `TrackedMutex`/`TrackedRwLock` so the runtime lockdep layer
///    sees it.
/// 2. Every tracked-lock construction site carries a
///    `// lock:class(Name)` annotation (on the line or up to two lines
///    above) naming a class from [`LOCK_CLASSES`]; when the
///    `LockClass::X` argument is lexically visible nearby, it must
///    match the annotation.
/// 3. `// lock:acquire(Name)`-annotated acquisitions that are
///    lexically nested (brace depth) under an earlier `let`-bound
///    annotated guard must not acquire a class of strictly lower rank.
fn audit_locks(lines: &[LineInfo], push: &mut impl FnMut(&'static str, usize, String)) {
    // (class name, rank, brace depth at the guard's line start).
    let mut guards: Vec<(String, u8, i32)> = Vec::new();
    let mut depth = 0i32;
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            depth += brace_delta(&line.code);
            continue;
        }
        let code = &line.code;
        // A block closing below a guard's depth ends its lexical scope.
        guards.retain(|&(_, _, d)| depth >= d);

        // Check 1: raw lock construction.
        for raw_lock in ["Mutex", "RwLock", "StdMutex", "StdRwLock"] {
            for at in ident_positions(code, raw_lock) {
                let rest = &code[at + raw_lock.len()..];
                if rest.trim_start().starts_with("::new") {
                    push(
                        "R5-lock",
                        i,
                        format!(
                            "raw `{raw_lock}::new` in a lock-disciplined module \
                             (use `TrackedMutex`/`TrackedRwLock` with a `lock:class` annotation)"
                        ),
                    );
                }
            }
        }

        // Check 2: tracked constructions carry a lock:class annotation.
        for tracked in ["TrackedMutex", "TrackedRwLock"] {
            for at in ident_positions(code, tracked) {
                let rest = &code[at + tracked.len()..];
                if !rest.trim_start().starts_with("::new") {
                    continue;
                }
                let annotated = (i.saturating_sub(2)..=i)
                    .rev()
                    .filter_map(|j| lines.get(j))
                    .find_map(|l| annotation_name(&l.comment, "lock:class(").map(str::to_string));
                let Some(name) = annotated else {
                    push(
                        "R5-lock",
                        i,
                        format!("`{tracked}::new` without a `// lock:class(Name)` annotation"),
                    );
                    continue;
                };
                if lock_class_rank(&name).is_none() {
                    push(
                        "R5-lock",
                        i,
                        format!("`lock:class({name})` names no declared lock class"),
                    );
                    continue;
                }
                // Cross-check the annotation against the lexically
                // visible `LockClass::X` argument, when there is one
                // within the construction's next few lines.
                let in_code = (i..i + 3).filter_map(|j| lines.get(j)).find_map(|l| {
                    let at = l.code.find("LockClass::")?;
                    let rest = &l.code[at + "LockClass::".len()..];
                    let end = rest
                        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .unwrap_or(rest.len());
                    Some(rest[..end].to_string())
                });
                if let Some(arg) = in_code {
                    if arg != name {
                        push(
                            "R5-lock",
                            i,
                            format!(
                                "`lock:class({name})` annotation contradicts \
                                 `LockClass::{arg}` at the construction site"
                            ),
                        );
                    }
                }
            }
        }

        // Check 3: annotated nested acquisitions respect the order.
        if let Some(name) = annotation_name(&line.comment, "lock:acquire(") {
            let is_acquisition = [".lock(", ".read(", ".write("]
                .iter()
                .any(|m| code.contains(m));
            match lock_class_rank(name) {
                None => push(
                    "R5-lock",
                    i,
                    format!("`lock:acquire({name})` names no declared lock class"),
                ),
                Some(rank) if is_acquisition => {
                    for (held, held_rank, _) in &guards {
                        if rank < *held_rank {
                            push(
                                "R5-lock",
                                i,
                                format!(
                                    "acquisition of `{name}` (rank {rank}) lexically nested \
                                     under held `{held}` (rank {held_rank}) inverts the \
                                     declared lock order"
                                ),
                            );
                        }
                    }
                    if has_ident(code, "let") {
                        guards.push((name.to_string(), rank, depth));
                    }
                }
                Some(_) => {}
            }
        }

        depth += brace_delta(code);
    }
}

/// Net brace-depth change contributed by one scrubbed code line.
fn brace_delta(code: &str) -> i32 {
    let mut delta = 0i32;
    for c in code.chars() {
        match c {
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run(src: &str, panic_everywhere: bool) -> Vec<Finding> {
        let raw: Vec<&str> = src.lines().collect();
        run_rules("test.rs", &raw, &scan(src), panic_everywhere, false, false)
    }

    #[test]
    fn unwrap_flagged_only_in_scope() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(run(src, true).len(), 1);
        assert!(run(src, false).is_empty());
        let decode = "fn decode_f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(run(decode, false).len(), 1);
    }

    #[test]
    fn unwrap_or_and_strings_not_flagged() {
        let src = "fn decode_f(x: Option<u8>) -> u8 {\n    let _ = \"unwrap()\";\n    x.unwrap_or(0)\n}\n";
        assert!(run(src, true).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_but_reports() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // audit:allow(panic, documented)\n    x.expect(\"contract\")\n}\n";
        let findings = run(src, true);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].allowed.as_deref(), Some("documented"));
    }

    #[test]
    fn bound_everywhere_reaches_outside_decode_fns() {
        let src = "fn grow(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
        assert!(run(src, false).is_empty());
        let raw: Vec<&str> = src.lines().collect();
        let findings = run_rules("test.rs", &raw, &scan(src), false, true, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "R3-bound");
    }

    #[test]
    fn both_key_halves_are_secret_fields() {
        for field in ["x_user", "x_sem"] {
            let src = format!("fn f(k: &Key) {{\n    println!(\"{{}}\", k.{field});\n}}\n");
            let findings = run(&src, false);
            assert_eq!(findings.len(), 1, "{field}");
            assert_eq!(findings[0].rule, "R2-secret");
        }
    }

    #[test]
    fn capped_argument_heuristics() {
        assert!(capped("count.min(r.remaining() / 7)"));
        assert!(capped("8"));
        assert!(capped("1 << 20"));
        assert!(capped("4 + MAX_RECORD"));
        assert!(capped("8usize"));
        assert!(!capped("declared"));
        assert!(!capped("count * point_len"));
    }
}
