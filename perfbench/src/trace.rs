//! In-memory span recording for the traced run.
//!
//! A span is a named interval with the span that caused it and the request
//! it belongs to. Spans stay in memory while the run measures and are
//! written out once at exit ([`Tracer::write_jsonl`]), so recording costs
//! two clock reads and a vector push.

use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `stats.hsic`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or fit step) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds (0 while still open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled tracer records nothing
/// and reads no clock, so the same code runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: u64::MAX, parent, request: self.request });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every closed span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans recorded from index `first` on, with parent links rebased
    /// onto the returned slice (a parent recorded earlier becomes `None`).
    pub fn spans_since(&self, first: usize) -> Vec<Span> {
        self.spans[first.min(self.spans.len())..]
            .iter()
            .map(|s| Span { parent: s.parent.and_then(|p| p.checked_sub(first)), ..s.clone() })
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total duration (ns) and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, usize) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(t, n), s| (t + s.duration_ns(), n + 1))
}

/// Share of the time of the spans named `root` that no named stage
/// covers: the summed self time of the roots and of every span in
/// `glue` (the phase wrappers), over the roots' total time.
pub fn unattributed_share(spans: &[Span], root: &str, glue: &[&str]) -> f64 {
    let selfs = self_times(spans);
    let (root_total, _) = total(spans, root);
    let uncovered: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == root || glue.contains(&s.name))
        .map(|(_, &t)| t)
        .sum();
    if root_total == 0 {
        0.0
    } else {
        uncovered as f64 / root_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100) > phase [10,90) > {fwd [10,40), bwd [50,80)}.
        let spans = vec![
            span("step", 0, 100, None),
            span("phase", 10, 90, Some(0)),
            span("fwd", 10, 40, Some(1)),
            span("bwd", 50, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)), // overlaps `a`, runs past the parent
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn unattributed_share_counts_root_and_glue_self_time() {
        let spans = vec![
            span("step", 0, 100, None),
            span("phase", 10, 90, Some(0)),
            span("fwd", 10, 40, Some(1)),
            span("bwd", 50, 80, Some(1)),
        ];
        let share = unattributed_share(&spans, "step", &["phase"]);
        assert!((share - 0.4).abs() < 1e-12);
        assert_eq!(total(&spans, "fwd"), (30, 1));
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.begin("outer");
        t.leaf("inner", || std::hint::black_box(1 + 1));
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        t.begin("later");
        t.end();
        let tail = t.spans_since(1);
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].parent, tail[1].parent), (None, None));

        let mut off = Tracer::new(false);
        off.begin("outer");
        off.end();
        assert!(off.spans().is_empty());
    }
}
