//! # sbrl-bench
//!
//! Criterion benches: hot-path kernel benches (`gemm`, `hsic` — each
//! timed in the BitExact and Fast numerics tiers — and `train_epoch`,
//! timed serial vs parallel under the workspace `Parallelism` knob),
//! micro-benchmarks of the autodiff paths (`micro`),
//! an allocation-count probe (`allocs`, behind the `alloc-probe` feature),
//! and one bench per paper table/figure driving the `sbrl-experiments`
//! runners at bench scale (`table1`, `fig3`, `fig4`, `fig5`, `table2`,
//! `table3`, `fig6`, `table6`).
//!
//! Run with `cargo bench -p sbrl-bench`. Setting `SBRL_BENCH_JSON` records
//! a median-per-case JSON snapshot — the `results/BENCH_*.json` baseline
//! format described in `docs/PERFORMANCE.md`. The committed baselines are
//! compared against fresh runs in CI by the `bench_compare` binary
//! ([`parse_bench_medians`]).
//!
//! The allocation probe (`cargo bench -p sbrl-bench --features alloc-probe
//! --bench allocs`) installs `alloc_probe::CountingAllocator` as the
//! global allocator and asserts that a warmed-up two-phase SBRL-HAP
//! training step performs **zero** heap allocations.

/// Heap-allocation counting instrumentation (feature `alloc-probe`).
///
/// When the feature is enabled this module installs a counting wrapper
/// around the system allocator for every binary linking this crate, so the
/// `allocs` bench can assert that steady-state training steps are
/// allocation-free.
#[cfg(feature = "alloc-probe")]
pub mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// System-allocator wrapper counting every acquisition (`alloc`,
    /// `alloc_zeroed`, `realloc`). Frees are not counted: the steady-state
    /// assertion cares about new memory being requested, not returned.
    pub struct CountingAllocator;

    // SAFETY: delegates every operation verbatim to `System`; the counter
    // update has no effect on allocation behaviour.
    unsafe impl GlobalAlloc for CountingAllocator {
        /// # Safety
        /// Same contract as [`System::alloc`], to which this delegates.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `layout` is forwarded unchanged; `System` upholds the
            // `GlobalAlloc` contract.
            unsafe { System.alloc(layout) }
        }

        /// # Safety
        /// Same contract as [`System::dealloc`], to which this delegates.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr`/`layout` come from this allocator, which only
            // ever hands out `System` pointers.
            unsafe { System.dealloc(ptr, layout) }
        }

        /// # Safety
        /// Same contract as [`System::alloc_zeroed`], to which this delegates.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `layout` is forwarded unchanged to `System`.
            unsafe { System.alloc_zeroed(layout) }
        }

        /// # Safety
        /// Same contract as [`System::realloc`], to which this delegates.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged;
            // `ptr` originates from this allocator.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Number of heap acquisitions since process start.
    pub fn allocation_count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Extracts `(name, median_ns)` pairs from the bench-snapshot JSON format
/// written by the vendored criterion shim under `SBRL_BENCH_JSON`
/// (`{"bench", "git_rev", "threads", "results": [{"name", "median_ns",
/// "samples"}]}`). Tolerant of whitespace; entries missing either field are
/// skipped. Used by the `bench_compare` CI binary.
pub fn parse_bench_medians(json: &str) -> Vec<(String, u128)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = extract_str_field(line, "name") else { continue };
        let Some(median) = extract_u128_field(line, "median_ns") else { continue };
        out.push((name, median));
    }
    out
}

/// Each case's median across several runs' `(name, median_ns)` lists, in
/// the first run's order. A case missing from any run is left out, so a
/// merged case is one every run covered. Of an even count the lower middle
/// is taken.
pub fn median_across_runs(runs: &[Vec<(String, u128)>]) -> Vec<(String, u128)> {
    let Some((first, rest)) = runs.split_first() else { return Vec::new() };
    first
        .iter()
        .filter_map(|(name, ns)| {
            let mut all = vec![*ns];
            for run in rest {
                all.push(run.iter().find(|(n, _)| n == name)?.1);
            }
            all.sort_unstable();
            Some((name.clone(), all[(all.len() - 1) / 2]))
        })
        .collect()
}

fn extract_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_u128_field(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let digits: String =
        line[at..].trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "micro",
  "git_rev": "abc1234",
  "threads": 1,
  "results": [
    {"name": "micro/matmul_128x64x64", "median_ns": 140722, "samples": 10},
    {"name": "micro/hsic_decorrelation_fwd_bwd", "median_ns": 3603886, "samples": 10}
  ]
}
"#;

    #[test]
    fn parses_all_result_entries() {
        let parsed = parse_bench_medians(SAMPLE);
        assert_eq!(
            parsed,
            vec![
                ("micro/matmul_128x64x64".to_string(), 140_722),
                ("micro/hsic_decorrelation_fwd_bwd".to_string(), 3_603_886),
            ]
        );
    }

    #[test]
    fn merges_runs_by_each_cases_median() {
        let run = |cases: &[(&str, u128)]| -> Vec<(String, u128)> {
            cases.iter().map(|&(n, ns)| (n.to_string(), ns)).collect()
        };
        let runs = [
            run(&[("a", 10), ("b", 500), ("only_first", 1)]),
            run(&[("b", 20), ("a", 30)]),
            run(&[("a", 20), ("b", 40)]),
        ];
        // One outlier run no longer decides a case.
        assert_eq!(median_across_runs(&runs), run(&[("a", 20), ("b", 40)]));
        assert_eq!(median_across_runs(&runs[..2]), run(&[("a", 10), ("b", 20)]));
        assert_eq!(median_across_runs(&runs[..1]), runs[0]);
        assert!(median_across_runs(&[]).is_empty());
    }

    #[test]
    fn skips_lines_without_both_fields() {
        assert!(parse_bench_medians("{\"bench\": \"micro\"}").is_empty());
        assert!(parse_bench_medians("{\"name\": \"x\"}").is_empty());
        assert!(parse_bench_medians("").is_empty());
    }
}
