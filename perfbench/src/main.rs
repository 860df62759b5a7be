//! The SBRL-HAP benchmark: three workloads, two of them gated, against the workspace's public
//! APIs, end-to-end metrics by default and per-layer metrics with
//! `--trace 1`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_hap --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the lines before it
//! are the human-readable report. The process exits non-zero when any
//! output fails its correctness check. See `perfbench/README.md`.
//!
//! An end-to-end run is measured in several child processes of this
//! binary, one after another, and reports the median across them: on a
//! small VM a process's thread placement moves its timings by ±10%, so one
//! process is one sample.

mod fit;
mod layers;
mod openloop;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("pehe_ood", "outcome"),
    ("pehe_sd", "outcome"),
];

/// Every workload the benchmark can run.
pub const WORKLOADS: [&str; 3] = ["fit_hap", "sweep_tarnet", "serve_socket"];

/// The workloads `BENCHMARK.json` lists, and so gates. `serve_socket` runs
/// by hand only: on a shared 2-vCPU VM its medians moved by up to 70%
/// between runs while the hypervisor stole a third of the CPU time.
pub const GATED: [&str; 2] = ["fit_hap", "sweep_tarnet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: measure once and print `child_lines`.
    child: bool,
}

/// Nominal seconds of one `fit_hap` fit and one `sweep_tarnet` sweep on a
/// 2-vCPU machine: a training run of `--seconds S` starts
/// `ceil(S / nominal)` children of one op each, so the op count is set by
/// `--seconds` and not by the speed of the build under test.
const FIT_NOMINAL_S: f64 = 4.5;
const SWEEP_NOMINAL_S: f64 = 3.7;
/// Children of a `serve_socket` run; each measures `S / SOCKET_CHILDREN`
/// seconds.
const SOCKET_CHILDREN: usize = 6;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--child" => child = value == "1",
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (known: {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0_f64).max(0.1),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// CPU time the hypervisor stole and all CPU time, in jiffies summed over
/// the machine's CPUs (`/proc/stat`); `None` where the file is missing.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// One measurement in this process (a child's work), with the share of
/// the machine's CPU time stolen by the hypervisor meanwhile.
fn measure(args: &Args) -> Report {
    let before = cpu_steal();
    let mut report = match args.workload.as_str() {
        "fit_hap" => fit::fit_hap(args.seed),
        "sweep_tarnet" => fit::sweep_tarnet(args.seed),
        _ => serve::serve_socket(args.seed, args.seconds),
    };
    report.metric("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN), 1);
    let steal = match (before, cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    report.metric("steal_share", "ratio", steal, 1);
    report
}

/// The half of the children (rounded up) that ran with the least CPU time
/// stolen by the hypervisor. On a shared VM, steal episodes slow a child
/// by up to 3×; they are noise from other tenants, not the program's cost.
fn least_stolen<'a>(done: &[&'a Report]) -> Vec<&'a Report> {
    let steal = |r: &Report| r.get("steal_share").map_or(0.0, |m| m.value);
    let mut kept = done.to_vec();
    kept.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    kept.truncate(done.len().div_ceil(2));
    kept
}

/// How many children a run of `seconds` starts, and the seconds each gets.
fn plan(workload: &str, seconds: f64) -> (usize, f64) {
    let ops = |nominal: f64| ((seconds / nominal).ceil() as usize).max(1);
    match workload {
        "fit_hap" => (ops(FIT_NOMINAL_S), 0.0),
        "sweep_tarnet" => (ops(SWEEP_NOMINAL_S), 0.0),
        _ => (SOCKET_CHILDREN, seconds / SOCKET_CHILDREN as f64),
    }
}

/// Runs the children one after another and waits for each.
fn run_children(args: &Args) -> Vec<Option<Report>> {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let (n, secs) = plan(&args.workload, args.seconds);
    (0..n)
        .map(|k| {
            let out = std::process::Command::new(&exe)
                .args(["--child", "1", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string(), "--seconds", &secs.to_string()])
                .args(["--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output();
            let text = out
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
            if k == 0 {
                // The first child's notes (reference lines, warnings).
                for line in text.iter().flat_map(|t| t.lines()) {
                    if !line.starts_with("metric\t") && !line.starts_with("ops\t") {
                        println!("{line}");
                    }
                }
            }
            text.as_deref().and_then(Report::parse_child)
        })
        .collect()
}

/// The run's report: each metric's median across the least-stolen half of
/// the children, except `tail_ms` of the training workloads, which is the
/// tail of those children's op times. Every child's checks count, and the
/// deterministic PEHE pair must agree bit for bit across all of them.
fn aggregate(children: &[Option<Report>]) -> Report {
    let mut out = Report::default();
    let done: Vec<&Report> = children.iter().flatten().collect();
    let lost = children.len() - done.len();
    out.ops(lost as u64, lost as u64);
    out.check(lost == 0, format!("{lost} of {} children did not finish", children.len()));
    let Some(first) = done.first() else { return out };
    let kept = least_stolen(&done);
    for m in first.metrics() {
        let values: Vec<f64> =
            kept.iter().filter_map(|r| r.get(&m.name)).map(|x| x.value).collect();
        let samples = kept.iter().filter_map(|r| r.get(&m.name)).map(|x| x.samples).sum();
        out.metric(&m.name, &m.unit, stats::median(&values).unwrap_or(f64::NAN), samples);
        if m.name.starts_with("pehe_") {
            let same = done
                .iter()
                .filter_map(|r| r.get(&m.name))
                .all(|v| v.value.to_bits() == m.value.to_bits());
            out.check(same, format!("{} differs between children", m.name));
        }
    }
    out.metric("children_kept", "count", kept.len() as f64, done.len());
    let ops: Vec<f64> = kept.iter().filter_map(|r| r.get("op_ms")).map(|m| m.value).collect();
    if let Some(t) = stats::tail(&ops) {
        out.metric("tail_ms", "ms", t.value, t.samples);
        out.metric("tail_percentile", "pct", t.percentile, t.samples);
    }
    for r in &done {
        out.merge_ops(r);
    }
    out
}

fn run(args: &Args) -> Report {
    if args.trace {
        return layers::run(&args.workload, args.seed);
    }
    aggregate(&run_children(args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The benchmark measures the knobs a user gets by default: all cores
    // and the bit-exact numerics tier (the PEHE references assume it).
    std::env::remove_var("SBRL_THREADS");
    std::env::remove_var("SBRL_NUMERICS");
    if args.child {
        print!("{}", measure(&args).child_lines());
        return;
    }
    let threads = sbrl_tensor::Parallelism::global().workers();
    let numerics = sbrl_tensor::NumericsMode::global().as_str();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={threads} numerics={numerics} \
         nproc={nproc} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    let report = run(&args);
    print!("{}", report.table());
    let declared: &[(&str, &str)] = if args.trace { &layers::PER_LAYER } else { &END_TO_END };
    match report.json_line(declared) {
        Ok(line) if report.correct() => println!("{line}"),
        Ok(line) => {
            println!("{line}");
            eprintln!("error: a correctness check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a =
            parse_args(&argv("--workload serve_socket --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_socket", 7, 12.0, true)
        );
        assert!(!a.child);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fit_hap --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn the_least_stolen_half_of_the_children_is_kept() {
        let child = |steal: f64, p50: f64| {
            let mut r = Report::default();
            r.metric("steal_share", "ratio", steal, 1);
            r.metric("p50_ms", "ms", p50, 1);
            r
        };
        let children = [child(0.3, 9.0), child(0.0, 1.0), child(0.1, 2.0), child(0.2, 3.0)];
        let refs: Vec<&Report> = children.iter().collect();
        let kept: Vec<f64> =
            least_stolen(&refs).iter().map(|r| r.get("p50_ms").unwrap().value).collect();
        assert_eq!(kept, vec![1.0, 2.0]);
        let odd: Vec<&Report> = children[..3].iter().collect();
        assert_eq!(least_stolen(&odd).len(), 2);
        let all: Vec<Option<Report>> = children.into_iter().map(Some).collect();
        assert_eq!(aggregate(&all).get("p50_ms").unwrap().value, 1.5);
    }

    /// `BENCHMARK.json` and the code must declare the same workloads and
    /// metrics, all of them well-formed names.
    #[test]
    fn benchmark_json_matches_the_code() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote"))
            .collect();
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));
        let mut expected: Vec<&str> = GATED.to_vec();
        expected.extend(END_TO_END.iter().map(|m| m.0));
        expected.extend(layers::PER_LAYER.iter().map(|m| m.0));
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER.iter()) {
            assert!(report::valid_name(name), "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }
}
