//! Metric collection, the human-readable report and the final JSON line.

use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, e.g. `ms`, `rows/s`, `count`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (fits, sweeps, requests, probes).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    mismatches: Vec<String>,
}

/// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.metrics.push(Metric { name: name.into(), unit: unit.into(), value, samples });
    }

    /// Every metric recorded, in order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The machine-readable form a child process prints for its parent:
    /// one `metric` line per metric and a closing `ops` line.
    pub fn child_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "metric\t{}\t{}\t{}\t{}", m.name, m.unit, m.value, m.samples);
        }
        let _ =
            writeln!(out, "ops\t{}\t{}\t{}", self.attempted, self.failed, self.mismatches.len());
        out
    }

    /// Parses [`child_lines`](Self::child_lines) output back into a report
    /// (other lines are ignored); `None` if the closing `ops` line is
    /// missing, i.e. the child did not finish.
    pub fn parse_child(text: &str) -> Option<Report> {
        let mut r = Report::default();
        let mut finished = false;
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, unit, value, samples] => {
                    r.metric(name, unit, value.parse().ok()?, samples.parse().ok()?)
                }
                ["ops", attempted, failed, mismatches] => {
                    r.ops(attempted.parse().ok()?, failed.parse().ok()?);
                    let n: usize = mismatches.parse().ok()?;
                    r.mismatches.extend((0..n).map(|_| "a child's check failed".to_string()));
                    finished = true;
                }
                _ => {}
            }
        }
        finished.then_some(r)
    }

    /// Counts `n` operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a correctness check; a failed one counts as a failed op, is
    /// reported on stderr and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.fail(1, what);
        }
    }

    /// Records `n` ops that returned a wrong answer.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        let what = what.into();
        eprintln!("correctness: MISMATCH: {what}");
        self.failed += n;
        self.mismatches.push(what);
    }

    /// Adds another report's op counts and failed checks to this one.
    pub fn merge_ops(&mut self, other: &Report) {
        self.ops(other.attempted, other.failed);
        self.mismatches.extend(other.mismatches.iter().cloned());
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ =
                writeln!(out, "  {:<30} {:>16.6} {:<8} n={}", m.name, m.value, m.unit, m.samples);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names`, in that order. A missing or non-finite metric is
    /// an error, so a run never prints a partial result.
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} breaks the grammar"));
            }
            let m = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            if m.unit != unit {
                return Err(format!("metric {name} has unit {} but {unit} is declared", m.unit));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", m.value));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "stats.hsic_ms", "gen.late-p99", "9lives", "a"] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "p99 latency", "rows/s", "é", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn child_lines_round_trip() {
        let mut r = Report::default();
        r.metric("p50_ms", "ms", 0.1 + 0.2, 1250);
        r.metric("rows_per_s", "rows/s", 44796.5, 6);
        r.ops(7, 1);
        r.check(false, "x");
        let back = Report::parse_child(&format!("noise\n{}", r.child_lines())).unwrap();
        assert_eq!(back.get("p50_ms").unwrap().value.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.get("rows_per_s").unwrap().unit, "rows/s");
        assert_eq!((back.attempted, back.failed, back.correct()), (7, 2, false));
        assert!(Report::parse_child("metric\tp50_ms\tms\t1\t1\n").is_none());
    }

    #[test]
    fn json_line_carries_declared_metrics_only_and_rejects_gaps() {
        let mut r = Report::default();
        r.metric("setup_s", "s", 0.25, 3);
        r.metric("extra", "count", 1.0, 1);
        r.ops(10, 0);
        let line = r.json_line(&[("setup_s", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.json_line(&[("missing", "s")]).is_err());
        assert!(r.json_line(&[("setup_s", "ms")]).is_err());
        r.check(false, "bits differ");
        assert!(!r.correct());
        assert!(r.json_line(&[("setup_s", "s")]).unwrap().starts_with("{\"correct\": false"));
    }
}
