//! The rule engine: four rule families over one lexed file.
//!
//! Every rule is lexical (tokens on the comment-stripped, literal-blanked
//! code stream of [`crate::lexer`]) and scoped by [`crate::context`]:
//!
//! | rule id           | family        | scope                                        |
//! |-------------------|---------------|----------------------------------------------|
//! | `hash_collection` | determinism   | numeric crates, non-test code                |
//! | `spawn`           | determinism   | everywhere except `workers.rs`, non-test     |
//! | `fma`             | determinism   | everywhere except `kernels.rs`, non-test     |
//! | `time`            | determinism   | kernel files (`kernels.rs`, `matrix.rs`)     |
//! | `unsafe`          | unsafe hygiene| every `unsafe` token, tests included         |
//! | `panic`           | panic-freedom | library (non-bin, non-test) code             |
//! | `untrusted_reader`| panic-freedom | `codec.rs`, `persist.rs`, `wire.rs` non-test code, stricter overlay |
//! | `alloc`           | static no-alloc| bodies of `// lint: no_alloc` functions     |
//! | `annotation`      | meta          | malformed / dangling `lint:` annotations     |
//!
//! Suppression is per-line via `// lint: allow(<rule>) — <reason>` on the
//! finding's line or the line above (see [`crate::annotations`]); the
//! `unsafe` rule is instead discharged by an adjacent `// SAFETY:` comment,
//! mirroring `clippy::undocumented_unsafe_blocks`.

use crate::annotations::{self, Annotation};
use crate::context::{FileContext, FileKind};
use crate::lexer::{has_token, LexedFile};

/// One finding: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Stable rule identifier (see the module table).
    pub rule: &'static str,
    /// Human-readable explanation with the fix spelled out.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Panicking constructs flagged by the panic-freedom rule.
const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Allocating constructs flagged inside `// lint: no_alloc` functions. The
/// list names this workspace's allocation surface: std constructors plus
/// [`Matrix::zeros`], the repo's own allocating constructor.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec(",
    ".collect(",
    "format!",
    "Box::new",
    "Rc::new",
    "Arc::new",
    "String::new",
    ".to_string(",
    ".to_owned(",
    "with_capacity",
    "Matrix::zeros",
    ".clone()",
];

/// Runs every rule over one lexed file, returning all findings in line
/// order.
pub fn check_file(ctx: &FileContext, lexed: &LexedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    annotation_rule(ctx, lexed, &mut out);
    determinism_rules(ctx, lexed, &mut out);
    unsafe_rule(ctx, lexed, &mut out);
    panic_rule(ctx, lexed, &mut out);
    untrusted_reader_rule(ctx, lexed, &mut out);
    no_alloc_rule(ctx, lexed, &mut out);
    out.sort_by_key(|d| d.line);
    out
}

/// True when `rule` is suppressed at `line` by an allow annotation on the
/// same line or anywhere in the contiguous comment block directly above
/// (multi-line reasons wrap; the annotation stays adjacent as long as no
/// code or blank line intervenes).
fn allowed(lexed: &LexedFile, line: usize, rule: &str) -> bool {
    let matches = |comment: &str| {
        matches!(annotations::parse(comment),
                 Some(Annotation::Allow { rule: r, .. }) if r == rule)
    };
    if matches(&lexed.line(line).comment) {
        return true;
    }
    let mut probe = line;
    while probe > 1 {
        probe -= 1;
        let l = lexed.line(probe);
        if l.has_code() || !l.has_comment() {
            return false;
        }
        if matches(&l.comment) {
            return true;
        }
    }
    false
}

fn diag(
    out: &mut Vec<Diagnostic>,
    ctx: &FileContext,
    line: usize,
    rule: &'static str,
    message: String,
) {
    out.push(Diagnostic { path: ctx.path.clone(), line, rule, message });
}

/// Meta-rule: every comment carrying a `lint:` marker must parse to a valid
/// annotation, so typos cannot silently suppress nothing.
fn annotation_rule(ctx: &FileContext, lexed: &LexedFile, out: &mut Vec<Diagnostic>) {
    for line_no in 1..=lexed.len() {
        let comment = lexed.line(line_no).comment;
        if let Some(Annotation::Malformed(msg)) = annotations::parse(&comment) {
            diag(out, ctx, line_no, "annotation", msg);
        }
    }
}

/// Determinism family: hash iteration order, thread spawning, FMA
/// contraction, and wall-clock reads in kernel code.
fn determinism_rules(ctx: &FileContext, lexed: &LexedFile, out: &mut Vec<Diagnostic>) {
    let in_workers = ctx.file_name() == "workers.rs";
    let in_kernels = ctx.file_name() == "kernels.rs";
    let kernel_file = in_kernels || ctx.file_name() == "matrix.rs";
    for line_no in 1..=lexed.len() {
        if ctx.is_test_line(line_no) {
            continue;
        }
        let code = lexed.line(line_no).code;
        if ctx.is_numeric_crate()
            && (has_token(&code, "HashMap") || has_token(&code, "HashSet"))
            && !allowed(lexed, line_no, "hash_collection")
        {
            diag(
                out,
                ctx,
                line_no,
                "hash_collection",
                "HashMap/HashSet in a numeric crate: hash iteration order is \
                 nondeterministic and would break (code, seed, mode) reproducibility. \
                 Use a Vec/BTreeMap, or annotate a keyed-access-only use with \
                 `// lint: allow(hash_collection) — <why iteration order never matters>`"
                    .to_string(),
            );
        }
        if !in_workers
            && (has_token(&code, "thread::spawn") || has_token(&code, "thread::scope"))
            && !allowed(lexed, line_no, "spawn")
        {
            diag(
                out,
                ctx,
                line_no,
                "spawn",
                "thread spawn outside sbrl_tensor::workers: all parallelism must go \
                 through the persistent worker pool (the steady-state probe asserts \
                 zero spawns per step). Route the work through workers::run_tasks"
                    .to_string(),
            );
        }
        if !in_kernels
            && (has_token(&code, "mul_add") || has_token(&code, "fmadd"))
            && !allowed(lexed, line_no, "fma")
        {
            diag(
                out,
                ctx,
                line_no,
                "fma",
                "FMA contraction outside the `const FMA: bool`-gated kernel clones in \
                 kernels.rs: fused multiply-add changes rounding and is only sound \
                 behind the NumericsMode::Fast gate"
                    .to_string(),
            );
        }
        if kernel_file
            && (has_token(&code, "Instant::now") || has_token(&code, "SystemTime"))
            && !allowed(lexed, line_no, "time")
        {
            diag(
                out,
                ctx,
                line_no,
                "time",
                "wall-clock read in kernel code: kernels must be pure functions of \
                 their inputs; timing belongs in the bench/trainer layers"
                    .to_string(),
            );
        }
    }
}

/// Unsafe hygiene: every line with an `unsafe` token must carry a SAFETY
/// comment on the same line or in the contiguous comment/attribute block
/// directly above (doc `# Safety` sections count).
fn unsafe_rule(ctx: &FileContext, lexed: &LexedFile, out: &mut Vec<Diagnostic>) {
    for line_no in 1..=lexed.len() {
        let line = lexed.line(line_no);
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if has_safety_comment(lexed, line_no) {
            continue;
        }
        diag(
            out,
            ctx,
            line_no,
            "unsafe",
            "undocumented unsafe: add an adjacent `// SAFETY: <why the invariants \
             hold>` comment (same line or directly above)"
                .to_string(),
        );
    }
}

/// Looks for a safety comment on `line` or in the comment/attribute block
/// immediately above it.
fn has_safety_comment(lexed: &LexedFile, line: usize) -> bool {
    let mentions_safety = |comment: &str| {
        let lower = comment.to_lowercase();
        lower.contains("safety:") || lower.contains("# safety")
    };
    if mentions_safety(&lexed.line(line).comment) {
        return true;
    }
    let mut probe = line;
    while probe > 1 {
        probe -= 1;
        let l = lexed.line(probe);
        if mentions_safety(&l.comment) {
            return true;
        }
        let trimmed = l.code.trim().to_string();
        let is_attr = trimmed.starts_with("#[") || trimmed == "]";
        // A line ending mid-statement (`let x =`, an open call, an operator)
        // means the `unsafe` below is a continuation of *this* statement, so
        // the comment above it is still adjacent — keep walking.
        let is_continuation = trimmed.ends_with(['=', '(', '{', ',', '+', '-', '|', '&']);
        if l.has_code() && !is_attr && !is_continuation {
            return false;
        }
        if !l.has_code() && !l.has_comment() {
            // Blank line: the comment block above it is no longer adjacent.
            return false;
        }
    }
    false
}

/// Panic-freedom: no `unwrap`/`expect`/`panic!`-family calls in library
/// (non-bin, non-test) code without an explicit allow annotation.
fn panic_rule(ctx: &FileContext, lexed: &LexedFile, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::Binary {
        return;
    }
    for line_no in 1..=lexed.len() {
        if ctx.is_test_line(line_no) {
            continue;
        }
        let code = lexed.line(line_no).code;
        for token in PANIC_TOKENS {
            if has_token(&code, token) && !allowed(lexed, line_no, "panic") {
                diag(
                    out,
                    ctx,
                    line_no,
                    "panic",
                    format!(
                        "`{token}` in library code: return a typed SbrlError/DataError \
                         instead, or — if this is provably infallible — annotate with \
                         `// lint: allow(panic) — <why it cannot fire>`"
                    ),
                );
                break;
            }
        }
    }
}

/// The files that decode *untrusted* bytes: the shared bounds-checked
/// reader, the `.sbrl` artifact decoder, and the wire-frame decoder.
const UNTRUSTED_READER_FILES: &[&str] = &["codec.rs", "persist.rs", "wire.rs"];

/// Untrusted-reader hardening: artifact bytes and socket frames are
/// attacker-shaped, so the non-test code of [`UNTRUSTED_READER_FILES`] may
/// not use panicking constructs or direct `[` indexing/slicing. Every read
/// must flow through the bounds-checked `codec::Reader`, which returns typed
/// errors instead of panicking.
///
/// This is a stricter overlay on the `panic` rule: a `// lint: allow(panic)`
/// escape elsewhere in the library does not exist here — reader code has no
/// provably-infallible panics, because the input is attacker-shaped.
fn untrusted_reader_rule(ctx: &FileContext, lexed: &LexedFile, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "untrusted_reader";
    if !UNTRUSTED_READER_FILES.contains(&ctx.file_name()) {
        return;
    }
    for line_no in 1..=lexed.len() {
        if ctx.is_test_line(line_no) || allowed(lexed, line_no, RULE) {
            continue;
        }
        let code = lexed.line(line_no).code;
        if let Some(token) = PANIC_TOKENS.iter().find(|t| has_token(&code, t)) {
            diag(
                out,
                ctx,
                line_no,
                RULE,
                format!(
                    "`{token}` in untrusted-reader code: the bytes are untrusted, so \
                     every failure mode must surface as a typed error — route the \
                     read through the bounds-checked codec::Reader"
                ),
            );
        }
        if has_index_expr(&code) {
            diag(
                out,
                ctx,
                line_no,
                RULE,
                "direct `[` indexing/slicing in untrusted-reader code: an \
                 out-of-range position must become a typed error, not a panic — \
                 use codec::Reader (or slice::get)"
                    .to_string(),
            );
        }
    }
}

/// A `[` directly following an identifier character, `)`, or `]` is an
/// index or slice expression. Attribute lines (`#[...]`), array-literal and
/// array-type brackets all follow punctuation or whitespace and never match.
fn has_index_expr(code: &str) -> bool {
    let bytes = code.as_bytes();
    (1..bytes.len()).any(|i| {
        bytes[i] == b'['
            && matches!(bytes[i - 1], b'_' | b')' | b']' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')
    })
}

/// Static no-alloc: the body of every `// lint: no_alloc`-annotated function
/// is scanned for allocating constructs. The annotation itself is checked —
/// one that does not precede a `fn` is a finding.
fn no_alloc_rule(ctx: &FileContext, lexed: &LexedFile, out: &mut Vec<Diagnostic>) {
    for line_no in 1..=lexed.len() {
        let comment = lexed.line(line_no).comment;
        if annotations::parse(&comment) != Some(Annotation::NoAlloc) {
            continue;
        }
        let from = if lexed.line(line_no).has_code() { line_no } else { line_no + 1 };
        let Some((sig, end)) = crate::context::fn_span(lexed, from, 8) else {
            diag(
                out,
                ctx,
                line_no,
                "annotation",
                "`lint: no_alloc` must directly precede a fn (only attributes and \
                 doc comments may intervene)"
                    .to_string(),
            );
            continue;
        };
        for body_line in sig..=end {
            let code = lexed.line(body_line).code;
            for token in ALLOC_TOKENS {
                if has_token(&code, token) && !allowed(lexed, body_line, "alloc") {
                    diag(
                        out,
                        ctx,
                        body_line,
                        "alloc",
                        format!(
                            "`{token}` inside `no_alloc` fn (annotated on line {line_no}): \
                             steady-state steps must reuse pooled buffers; take one from \
                             the BufferPool or hoist the allocation to setup"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let ctx = FileContext::new(path, &lexed);
        check_file(&ctx, &lexed)
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = "/// A doc comment mentioning unsafe and panic! freely.\n\
                   pub fn add(a: f64, b: f64) -> f64 {\n    a + b\n}\n";
        assert!(check("crates/tensor/src/ops.rs", src).is_empty());
    }

    #[test]
    fn rules_fire_and_allow_suppresses() {
        let src = "use std::collections::HashMap;\n";
        let found = check("crates/stats/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "hash_collection");

        let src = "// lint: allow(hash_collection) — keyed access only, never iterated\n\
                   use std::collections::HashMap;\n";
        assert!(check("crates/stats/src/x.rs", src).is_empty());
    }

    const INDEXING: &str = "fn peek(bytes: &[u8]) -> u8 {\n    bytes[0]\n}\n";
    const PANICKING: &str = "fn read(bytes: &[u8]) -> u8 {\n    decode(bytes).unwrap()\n}\n";

    fn listed_files() -> impl Iterator<Item = String> {
        UNTRUSTED_READER_FILES.iter().map(|f| format!("crates/core/src/{f}"))
    }

    #[test]
    fn untrusted_reader_flags_indexing_and_panics_in_every_listed_file() {
        for path in listed_files() {
            let found = check(&path, INDEXING);
            assert_eq!(found.len(), 1, "{path}: {found:?}");
            assert_eq!(found[0].rule, "untrusted_reader");
            assert_eq!(found[0].line, 2);

            // A stricter overlay: it fires on top of the panic rule.
            let rules: Vec<&str> = check(&path, PANICKING).iter().map(|d| d.rule).collect();
            assert!(rules.contains(&"untrusted_reader"), "{path}: {rules:?}");
            assert!(rules.contains(&"panic"), "{path}: {rules:?}");
        }
    }

    #[test]
    fn untrusted_reader_ignores_unlisted_files() {
        assert!(check("crates/core/src/trainer.rs", INDEXING).is_empty());
        let rules: Vec<&str> =
            check("crates/core/src/trainer.rs", PANICKING).iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["panic"]);
    }

    #[test]
    fn untrusted_reader_spares_attributes_literals_and_tests() {
        let src = "#[derive(Debug)]\n\
                   pub struct Header {\n    magic: [u8; 8],\n}\n\
                   const TAGS: &[&str] = &[\"META\"];\n\
                   const HINT: &str = \"never bytes[0].unwrap() here\";\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t(b: &[u8]) -> u8 { b[0].unwrap() }\n}\n";
        for path in listed_files() {
            assert!(check(&path, src).is_empty(), "{path}");
        }
    }

    #[test]
    fn untrusted_reader_allows_with_an_annotation() {
        let src = "// lint: allow(untrusted_reader) — length proven by the frame header\n\
                   fn peek(bytes: &[u8]) -> u8 { bytes[0] }\n";
        for path in listed_files() {
            assert!(check(&path, src).is_empty(), "{path}");
        }
    }

    // The checks below predate the shared rule id: `persist.rs` and `wire.rs`
    // each had a reader rule of their own. They keep pinning each file's
    // behaviour under `untrusted_reader`.

    #[test]
    fn persist_reader_flags_indexing_only_in_persist_rs() {
        let found = check("crates/core/src/persist.rs", INDEXING);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "untrusted_reader");
        assert_eq!(found[0].line, 2);
        // The same indexing outside the listed files is not this rule's business.
        assert!(check("crates/core/src/trainer.rs", INDEXING).is_empty());
    }

    #[test]
    fn persist_reader_flags_panics_on_top_of_the_panic_rule() {
        let found = check("crates/core/src/persist.rs", PANICKING);
        let rules: Vec<&str> = found.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"untrusted_reader"), "rules: {rules:?}");
        assert!(rules.contains(&"panic"), "rules: {rules:?}");
    }

    #[test]
    fn persist_reader_allows_with_an_annotation() {
        let src = "// lint: allow(untrusted_reader) — length proven by the section frame\n\
                   fn peek(bytes: &[u8]) -> u8 { bytes[0] }\n";
        assert!(check("crates/core/src/persist.rs", src).is_empty());
    }

    #[test]
    fn wire_reader_fires_in_wire_rs_with_its_own_rule_id() {
        let found = check("crates/core/src/wire.rs", INDEXING);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "untrusted_reader");
        assert!(found[0].message.contains("typed error"), "message: {}", found[0].message);

        let found = check("crates/core/src/wire.rs", PANICKING);
        let rules: Vec<&str> = found.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"untrusted_reader"), "rules: {rules:?}");
    }

    #[test]
    fn wire_reader_allows_with_an_annotation_and_spares_tests() {
        let src = "// lint: allow(untrusted_reader) — index bounded by HEADER_LEN check above\n\
                   fn peek(bytes: &[u8]) -> u8 { bytes[0] }\n";
        assert!(check("crates/core/src/wire.rs", src).is_empty());

        let src = "#[cfg(test)]\nmod tests {\n    fn t(b: &[u8]) -> u8 { b[0] }\n}\n";
        assert!(check("crates/core/src/wire.rs", src).is_empty());
    }
}
