//! CI bench-regression gate: compares freshly recorded `SBRL_BENCH_JSON`
//! medians against a committed `results/BENCH_*.json` baseline and fails on
//! gross regressions.
//!
//! ```sh
//! bench_compare <baseline.json> <fresh.json>... [tolerance] [--strict]
//! ```
//!
//! Given several fresh files (repeated runs of one bench), each case's
//! fresh value is its median across them, so one run's outlier cannot
//! fail the gate alone; a case counts as present only when every fresh
//! file has it. A case regresses when `fresh > tolerance * baseline`
//! (default tolerance 2.0 — generous on purpose: CI runners are noisy and
//! heterogeneous; the gate exists to catch order-of-magnitude rots, not
//! micro-jitter). By default, cases present in only one side are reported
//! but not fatal, so benches can be added or retired without breaking CI in
//! the same commit; `--strict` makes a baseline case that is *missing* from
//! the fresh runs fatal, so the gate provably covers every committed column
//! (fresh-only cases stay non-fatal — they are new columns awaiting a
//! baseline).

use std::process::ExitCode;

use sbrl_bench::{median_across_runs, parse_bench_medians};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let strict = {
        let before = args.len();
        args.retain(|a| a != "--strict");
        args.len() != before
    };
    // A trailing number is the tolerance; every other argument is a file.
    let tolerance = match args.last().map(|t| t.parse::<f64>()) {
        Some(Ok(t)) if args.len() > 2 => {
            args.pop();
            t
        }
        _ => 2.0,
    };
    if tolerance.is_nan() || tolerance <= 0.0 {
        eprintln!("bench_compare: tolerance must be a positive number");
        return ExitCode::from(2);
    }
    if args.len() < 2 {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>... [tolerance] [--strict]");
        return ExitCode::from(2);
    }
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_compare: cannot read {path}: {e}");
            None
        }
    };
    let Some(baseline_json) = read(&args[0]) else { return ExitCode::from(2) };
    let Some(fresh_runs): Option<Vec<_>> =
        args[1..].iter().map(|path| read(path).map(|json| parse_bench_medians(&json))).collect()
    else {
        return ExitCode::from(2);
    };
    let baseline = parse_bench_medians(&baseline_json);
    let fresh = median_across_runs(&fresh_runs);
    if baseline.is_empty() {
        eprintln!("bench_compare: no cases parsed from baseline {}", args[0]);
        return ExitCode::from(2);
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut missing = 0usize;
    for (name, base_ns) in &baseline {
        match fresh.iter().find(|(n, _)| n == name) {
            Some((_, fresh_ns)) => {
                compared += 1;
                let ratio = *fresh_ns as f64 / (*base_ns).max(1) as f64;
                let verdict = if ratio > tolerance {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{verdict:>9}  {name}: baseline {base_ns} ns, fresh {fresh_ns} ns \
                     ({ratio:.2}x)"
                );
            }
            None => {
                missing += 1;
                let note = if strict { "fatal under --strict" } else { "skipped" };
                println!("  missing  {name}: absent from a fresh run ({note})");
            }
        }
    }
    for (name, _) in &fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("      new  {name}: present in fresh runs only (skipped)");
        }
    }

    if compared == 0 {
        eprintln!("bench_compare: no case of the baseline is in the fresh runs");
        return ExitCode::from(2);
    }
    if strict && missing > 0 {
        eprintln!(
            "bench_compare: {missing} baseline case(s) missing from the fresh runs \
             (--strict requires full coverage)"
        );
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!(
            "bench_compare: {regressions} case(s) regressed beyond {tolerance}x the \
             committed baseline"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_compare: {compared} case(s) within {tolerance}x of the baseline");
    ExitCode::SUCCESS
}
