//! Fixture-based tests for every rule family: each rule gets positive
//! (violation caught), negative (clean code passes), and allow-annotation
//! (suppression honoured, reason required) cases, exercised through the
//! same [`sbrl_lint::lint_source`] entry point the CLI uses.

use sbrl_lint::{lint_source, Diagnostic};

/// Findings for `src` as if it lived at `path`, as `(line, rule)` pairs.
fn findings(path: &str, src: &str) -> Vec<(usize, &'static str)> {
    lint_source(path, src).into_iter().map(|d| (d.line, d.rule)).collect()
}

fn rules_of(found: &[(usize, &'static str)]) -> Vec<&'static str> {
    found.iter().map(|&(_, r)| r).collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn hash_collection_flagged_in_numeric_crate() {
    let src = "use std::collections::HashMap;\npub struct S {\n    map: HashMap<u64, f64>,\n}\n";
    let found = findings("crates/tensor/src/x.rs", src);
    assert_eq!(found, vec![(1, "hash_collection"), (3, "hash_collection")]);
}

#[test]
fn hash_collection_ok_outside_numeric_crates() {
    let src = "use std::collections::HashMap;\npub fn f() -> HashMap<u64, f64> {\n    HashMap::new()\n}\n";
    assert!(findings("crates/experiments/src/x.rs", src).is_empty());
    assert!(findings("crates/data/src/x.rs", src).is_empty());
}

#[test]
fn hash_collection_allow_with_reason_suppresses() {
    let src = "// lint: allow(hash_collection) — keyed access only, never iterated\n\
               use std::collections::HashMap;\n";
    assert!(findings("crates/nn/src/x.rs", src).is_empty());
}

#[test]
fn hash_set_in_test_module_is_exempt() {
    let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    #[test]\n    fn t() {\n        let _ = HashSet::<u64>::new();\n    }\n}\n";
    assert!(findings("crates/stats/src/x.rs", src).is_empty());
}

#[test]
fn thread_spawn_flagged_outside_workers() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert_eq!(findings("crates/models/src/x.rs", src), vec![(2, "spawn")]);
    // The same code in workers.rs is the sanctioned spawn site.
    assert!(findings("crates/tensor/src/workers.rs", src).is_empty());
}

#[test]
fn thread_scope_flagged_and_allow_suppresses() {
    let src = "pub fn f() {\n    std::thread::scope(|s| { let _ = s; });\n}\n";
    assert_eq!(rules_of(&findings("crates/core/src/x.rs", src)), vec!["spawn"]);
    let src = "pub fn f() {\n    // lint: allow(spawn) — one-shot startup helper, never per-step\n    std::thread::scope(|s| { let _ = s; });\n}\n";
    assert!(findings("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn fma_flagged_outside_kernels() {
    let src = "pub fn f(a: f64, b: f64, c: f64) -> f64 {\n    a.mul_add(b, c)\n}\n";
    assert_eq!(findings("crates/stats/src/x.rs", src), vec![(2, "fma")]);
}

#[test]
fn fma_flagged_in_kernels_too() {
    // One arithmetic: the GEMM kernels may not fuse either, by `mul_add` or
    // by an FMA intrinsic.
    let src = "pub fn f(a: f64, b: f64, c: f64) -> f64 {\n    a.mul_add(b, c)\n}\n";
    assert_eq!(findings("crates/tensor/src/kernels.rs", src), vec![(2, "fma")]);
    let src = "pub fn g(a: V, b: V, c: V) -> V {\n    _mm256_fmadd_pd(a, b, c)\n}\n";
    assert_eq!(findings("crates/tensor/src/kernels.rs", src), vec![(2, "fma")]);
}

#[test]
fn fma_in_comment_or_string_is_not_code() {
    let src = "// a doc note about mul_add contraction\npub fn f() -> &'static str {\n    \"mul_add\"\n}\n";
    assert!(findings("crates/stats/src/x.rs", src).is_empty());
}

#[test]
fn wall_clock_flagged_in_kernel_files_only() {
    let src = "pub fn f() {\n    let _ = std::time::Instant::now();\n}\n";
    assert_eq!(findings("crates/tensor/src/kernels.rs", src), vec![(2, "time")]);
    assert_eq!(findings("crates/tensor/src/matrix.rs", src), vec![(2, "time")]);
    // Outside kernel code (e.g. the trainer watchdog) timing is legitimate.
    assert!(findings("crates/core/src/trainer.rs", src).is_empty());
}

#[test]
fn system_time_flagged_with_allow_escape() {
    let src = "pub fn f() {\n    // lint: allow(time) — debug tracing, compiled out of release\n    let _ = std::time::SystemTime::now();\n}\n";
    assert!(findings("crates/tensor/src/matrix.rs", src).is_empty());
}

// ------------------------------------------------------------- unsafe hygiene

#[test]
fn undocumented_unsafe_block_flagged() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(findings("crates/tensor/src/x.rs", src), vec![(2, "unsafe")]);
}

#[test]
fn safety_comment_above_discharges_unsafe() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn safety_comment_same_line_discharges_unsafe() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller guarantees p is valid.\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn safety_doc_section_covers_unsafe_fn_through_attributes() {
    let src = "/// Lowers to wide ops.\n///\n/// # Safety\n/// Caller must verify AVX2 first.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn f(x: &mut [f64]) {\n    x[0] = 1.0;\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn safety_comment_above_multiline_statement_is_adjacent() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    let v =\n        unsafe { *p };\n    v\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn each_unsafe_impl_needs_its_own_safety_comment() {
    let src = "struct P(*mut u8);\n// SAFETY: only ever written from one thread.\nunsafe impl Send for P {}\nunsafe impl Sync for P {}\n";
    assert_eq!(findings("crates/tensor/src/x.rs", src), vec![(4, "unsafe")]);
}

#[test]
fn unsafe_in_raw_string_or_comment_is_not_flagged() {
    let src = "/// Explains the unsafe contract at length.\npub fn f() -> &'static str {\n    r#\"unsafe { *p } // not code\"#\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn unsafe_rule_applies_inside_test_modules_too() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = 0u8;\n        let _ = unsafe { *(&x as *const u8) };\n    }\n}\n";
    assert_eq!(rules_of(&findings("crates/tensor/src/x.rs", src)), vec!["unsafe"]);
}

#[test]
fn blank_line_breaks_safety_adjacency() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n\n    unsafe { *p }\n}\n";
    assert_eq!(rules_of(&findings("crates/tensor/src/x.rs", src)), vec!["unsafe"]);
}

// -------------------------------------------------------------- panic-freedom

#[test]
fn panic_family_flagged_in_library_code() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\npub fn g(v: Option<u8>) -> u8 {\n    v.expect(\"set\")\n}\npub fn h() {\n    panic!(\"boom\");\n}\npub fn i() {\n    unreachable!();\n}\npub fn j() {\n    todo!();\n}\n";
    let found = findings("crates/metrics/src/x.rs", src);
    assert_eq!(found, vec![(2, "panic"), (5, "panic"), (8, "panic"), (11, "panic"), (14, "panic")]);
}

#[test]
fn non_panicking_unwrap_variants_pass() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap_or(0)\n}\npub fn g(v: Option<u8>) -> u8 {\n    v.unwrap_or_else(|| 1)\n}\npub fn h(v: Option<u8>) -> u8 {\n    v.unwrap_or_default()\n}\n";
    assert!(findings("crates/metrics/src/x.rs", src).is_empty());
}

#[test]
fn panic_allowed_in_bins_tests_and_with_annotation() {
    let src = "fn main() {\n    std::env::args().next().unwrap();\n}\n";
    assert!(findings("crates/experiments/src/bin/table1.rs", src).is_empty());

    let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
    assert!(findings("crates/core/src/x.rs", src).is_empty());

    let src = "pub fn f(v: Option<u8>) -> u8 {\n    // lint: allow(panic) — invariant: caller checked is_some above\n    v.unwrap()\n}\n";
    assert!(findings("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn multiline_allow_reason_still_suppresses() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    // lint: allow(panic) — a long justification that wraps onto the\n    // following comment line before the finding itself.\n    v.unwrap()\n}\n";
    assert!(findings("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn allow_without_reason_is_rejected_and_does_not_suppress() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    // lint: allow(panic)\n    v.unwrap()\n}\n";
    let found = findings("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&found), vec!["annotation", "panic"]);
}

#[test]
fn unknown_allow_rule_is_rejected() {
    let src = "// lint: allow(painc) — typo'd rule name\npub fn f() {}\n";
    assert_eq!(rules_of(&findings("crates/core/src/x.rs", src)), vec!["annotation"]);
}

// ------------------------------------------------------------ static no-alloc

#[test]
fn no_alloc_fn_with_allocation_is_flagged() {
    let src = "// lint: no_alloc\npub fn f(n: usize) -> Vec<f64> {\n    let v: Vec<f64> = (0..n).map(|i| i as f64).collect();\n    v\n}\n";
    let found = findings("crates/tensor/src/x.rs", src);
    assert_eq!(found, vec![(3, "alloc")]);
}

#[test]
fn no_alloc_fn_catches_each_allocating_construct() {
    for expr in
        ["Vec::new()", "vec![0.0; 4]", "x.to_vec()", "format!(\"{n}\")", "Box::new(n)", "x.clone()"]
    {
        let src = format!(
            "// lint: no_alloc\npub fn f(n: usize, x: &[f64]) {{\n    let _ = {expr};\n}}\n"
        );
        let found = findings("crates/tensor/src/x.rs", &src);
        assert_eq!(rules_of(&found), vec!["alloc"], "construct: {expr}");
    }
}

#[test]
fn clean_no_alloc_fn_passes() {
    let src = "// lint: no_alloc\npub fn f(out: &mut [f64], a: &[f64]) {\n    for (o, &v) in out.iter_mut().zip(a) {\n        *o += v * v;\n    }\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn unannotated_fn_may_allocate_freely() {
    let src = "pub fn f(n: usize) -> Vec<f64> {\n    (0..n).map(|i| i as f64).collect()\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn no_alloc_scan_stops_at_fn_end() {
    let src = "// lint: no_alloc\npub fn f(out: &mut [f64]) {\n    out.fill(0.0);\n}\n\npub fn g(n: usize) -> Vec<f64> {\n    Vec::with_capacity(n)\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn no_alloc_allows_line_level_warmup_escape() {
    let src = "// lint: no_alloc\npub fn f(slot: &mut Option<Vec<f64>>, n: usize) {\n    // lint: allow(alloc) — warm-up only, reused afterwards\n    let buf = slot.get_or_insert_with(|| Vec::with_capacity(n));\n    buf.fill(0.0);\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn dangling_no_alloc_annotation_is_flagged() {
    let src = "// lint: no_alloc\npub struct NotAFunction;\n";
    assert_eq!(rules_of(&findings("crates/tensor/src/x.rs", src)), vec!["annotation"]);
}

#[test]
fn no_alloc_skips_attributes_between_annotation_and_fn() {
    let src = "// lint: no_alloc\n#[inline(always)]\n#[cfg(target_arch = \"x86_64\")]\npub fn f(out: &mut [f64]) {\n    out.fill(1.0);\n}\n";
    assert!(findings("crates/tensor/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- diagnostics

#[test]
fn diagnostics_carry_path_line_and_render_clickable() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    let found: Vec<Diagnostic> = lint_source("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1);
    let rendered = found[0].to_string();
    assert!(rendered.starts_with("crates/core/src/x.rs:2: [panic]"), "got: {rendered}");
}

#[test]
fn findings_are_reported_in_line_order() {
    let src = "pub fn a() {\n    panic!(\"one\");\n}\npub fn b() {\n    todo!();\n}\n";
    let lines: Vec<usize> = findings("crates/core/src/x.rs", src).iter().map(|&(l, _)| l).collect();
    assert_eq!(lines, vec![2, 5]);
}
