//! The `// lint:` annotation grammar.
//!
//! Two annotation forms are recognised, both living in comments so the
//! compiler never sees them:
//!
//! - `// lint: allow(<rule>) — <reason>` suppresses one rule on the **same
//!   line** or the **line immediately below** the annotation. The reason is
//!   mandatory: an allow without a justification is itself a diagnostic
//!   (the `annotation` meta-rule), so suppressions cannot silently
//!   accumulate. `—`, `--`, `-`, or `:` all work as the reason separator.
//! - `// lint: no_alloc` marks the `fn` whose signature starts on the next
//!   code line (attributes and doc comments may intervene) as statically
//!   allocation-free: its body is scanned for allocating calls by the
//!   no-alloc rule. An annotation that is not followed by a `fn` is a
//!   diagnostic — the marker is *checked*, never decorative.
//!
//! Known rule names are listed in [`ALLOW_RULES`]; an unknown name is a
//! diagnostic too, so typos (`allow(painc)`) fail loudly instead of
//! suppressing nothing.

/// Rule names accepted inside `allow(…)`.
pub const ALLOW_RULES: &[&str] =
    &["hash_collection", "spawn", "fma", "time", "panic", "untrusted_reader", "alloc"];

/// A parsed `lint:` annotation found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Annotation {
    /// `allow(rule) — reason`: suppress `rule` here, with a justification.
    Allow {
        /// The rule being suppressed (one of [`ALLOW_RULES`]).
        rule: String,
        /// Mandatory human-readable justification.
        reason: String,
    },
    /// `no_alloc`: the next function must not allocate.
    NoAlloc,
    /// The comment says `lint:` but the rest does not parse; the payload is
    /// the error message to report.
    Malformed(String),
}

/// Parses the `lint:` annotation in `comment`, if any. Returns `None` for
/// comments without a `lint:` marker; anything *with* the marker parses to
/// either a valid annotation or [`Annotation::Malformed`].
pub fn parse(comment: &str) -> Option<Annotation> {
    let idx = comment.find("lint:")?;
    // Require the marker at the start of the comment text (modulo doc-sigils
    // and whitespace) so prose like "the lint: rule catalog" is not parsed.
    let lead = &comment[..idx];
    if !lead.chars().all(|c| c.is_whitespace() || c == '/' || c == '!') {
        return None;
    }
    let body = comment[idx + "lint:".len()..].trim();
    if body == "no_alloc" {
        return Some(Annotation::NoAlloc);
    }
    if let Some(rest) = body.strip_prefix("allow") {
        let rest = rest.trim_start();
        let Some(inner) = rest.strip_prefix('(') else {
            return Some(Annotation::Malformed("expected `allow(<rule>) — <reason>`".to_string()));
        };
        let Some(close) = inner.find(')') else {
            return Some(Annotation::Malformed("unclosed `allow(` annotation".to_string()));
        };
        let rule = inner[..close].trim();
        if !ALLOW_RULES.contains(&rule) {
            return Some(Annotation::Malformed(format!(
                "unknown rule `{rule}` in allow annotation (known: {})",
                ALLOW_RULES.join(", ")
            )));
        }
        let mut reason = inner[close + 1..].trim_start();
        // Strip the separator: an em-dash, any run of ASCII dashes, or a colon.
        reason = reason.trim_start_matches(['—', '-', ':']).trim();
        if reason.is_empty() {
            return Some(Annotation::Malformed(format!(
                "allow({rule}) needs a reason: `// lint: allow({rule}) — <why this is sound>`"
            )));
        }
        return Some(Annotation::Allow { rule: rule.to_string(), reason: reason.to_string() });
    }
    Some(Annotation::Malformed(format!(
        "unrecognised lint annotation `{body}` (expected `allow(<rule>) — <reason>` or `no_alloc`)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allow_with_em_dash_reason() {
        let a = parse(" lint: allow(panic) — poisoned mutex is unrecoverable").unwrap();
        assert_eq!(
            a,
            Annotation::Allow {
                rule: "panic".into(),
                reason: "poisoned mutex is unrecoverable".into()
            }
        );
    }

    #[test]
    fn parses_allow_with_ascii_separators() {
        for sep in ["--", "-", ":"] {
            let a = parse(&format!(" lint: allow(fma) {sep} fixture only")).unwrap();
            assert_eq!(a, Annotation::Allow { rule: "fma".into(), reason: "fixture only".into() });
        }
    }

    #[test]
    fn parses_no_alloc() {
        assert_eq!(parse(" lint: no_alloc"), Some(Annotation::NoAlloc));
    }

    #[test]
    fn missing_reason_is_malformed() {
        assert!(matches!(parse(" lint: allow(panic)"), Some(Annotation::Malformed(_))));
        assert!(matches!(parse(" lint: allow(panic) — "), Some(Annotation::Malformed(_))));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let a = parse(" lint: allow(painc) — typo").unwrap();
        assert!(matches!(a, Annotation::Malformed(m) if m.contains("painc")));
    }

    #[test]
    fn garbage_after_marker_is_malformed() {
        assert!(matches!(parse(" lint: frobnicate"), Some(Annotation::Malformed(_))));
    }

    #[test]
    fn plain_comments_are_ignored() {
        assert_eq!(parse(" just a comment"), None);
        assert_eq!(parse(" the lint: rule catalog lives in docs/"), None);
    }

    #[test]
    fn doc_comment_sigils_before_marker_are_tolerated() {
        assert!(parse("! lint: no_alloc").is_some());
    }
}
