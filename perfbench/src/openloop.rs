//! Open-loop load generation: requests are due on a fixed schedule whether
//! or not earlier ones have been answered, and each is timed from its due
//! time, so a stall is charged to every request it delays.

use std::time::{Duration, Instant};

use crate::stats;

/// How long before a due time the generator stops sleeping and spins:
/// `thread::sleep` overshoots by tens of microseconds, which would
/// otherwise show up as generator lateness on every request.
const SPIN: Duration = Duration::from_micros(60);

/// Blocks until `due`: sleeps for most of the wait, spins for the rest.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Nanoseconds from `origin` to `t` (0 if `t` is earlier).
pub fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Due time of request `i` of a phase at `rate` requests per second, in ns
/// from the phase start.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// What one open-loop phase observed, all times in ns from its start.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// When each request was due.
    pub due: Vec<u64>,
    /// When the generator actually sent it.
    pub sent: Vec<u64>,
    /// When its answer arrived (`None`: failed or never answered).
    pub done: Vec<Option<u64>>,
    /// Requests outstanding (sent, not yet answered) seen at each send.
    pub outstanding: Vec<usize>,
}

impl Phase {
    /// Requests attempted.
    pub fn attempted(&self) -> usize {
        self.due.len()
    }

    /// Requests that got no good answer.
    pub fn failed(&self) -> usize {
        self.done.iter().filter(|d| d.is_none()).count()
    }

    /// Latency of every answered request, measured from its due time, in µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(&due, done)| done.map(|d| d.saturating_sub(due) as f64 / 1e3))
            .collect()
    }

    /// How late the generator sent each request, in µs.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.due.iter().zip(&self.sent).map(|(&d, &s)| s.saturating_sub(d) as f64 / 1e3).collect()
    }

    /// Answers per second between the first due time and the last answer.
    pub fn achieved_rate(&self) -> f64 {
        let last = self.done.iter().flatten().max().copied().unwrap_or(0);
        let answered = self.done.iter().flatten().count();
        if last == 0 {
            0.0
        } else {
            answered as f64 * 1e9 / last as f64
        }
    }

    /// True when the backlog grows over the phase (see [`backlog_growing`]).
    pub fn over_capacity(&self) -> bool {
        backlog_growing(&self.outstanding)
    }
}

/// A backlog grows when the mean outstanding count over the last third of
/// the phase exceeds 1.5 × that of the middle third plus 2 requests. The
/// first third is skipped: it holds the start-up transient.
pub fn backlog_growing(outstanding: &[usize]) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    let middle = mean(&outstanding[third..2 * third]);
    let last = mean(&outstanding[2 * third..]);
    last > 1.5 * middle + 2.0
}

/// One rung of a rate ladder, summarised.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Answers per second achieved.
    pub achieved: f64,
    /// Tail latency (µs) by the [`stats::tail`] rule.
    pub tail_us: f64,
    /// Requests that failed or were shed.
    pub failed: usize,
    /// Whether the backlog grew.
    pub growing: bool,
}

impl Rung {
    /// Summarises a phase.
    pub fn of(p: &Phase) -> Self {
        let tail = stats::tail(&p.latencies_us()).map_or(f64::INFINITY, |t| t.value);
        Self {
            achieved: p.achieved_rate(),
            tail_us: tail,
            failed: p.failed(),
            growing: p.over_capacity(),
        }
    }

    fn passes(&self, limit_us: f64) -> bool {
        self.failed == 0 && !self.growing && self.tail_us <= limit_us
    }
}

/// The highest rate the ladder sustains: the achieved rate of the last rung
/// (in ascending order) that meets the tail limit with no failure and no
/// growing backlog. When the next rung's tail is over the limit and none of
/// its requests failed, the answer is interpolated between the two rungs at
/// the rate where the log of the tail crosses the limit. When even the
/// first rung fails, its achieved rate scaled down by limit / tail.
pub fn max_rate(rungs: &[Rung], limit_us: f64) -> f64 {
    let first_fail = rungs.iter().position(|r| !r.passes(limit_us)).unwrap_or(rungs.len());
    let Some(ok) = first_fail.checked_sub(1).and_then(|i| rungs.get(i)) else {
        return rungs.first().map_or(0.0, |r| r.achieved * (limit_us / r.tail_us).min(1.0));
    };
    let Some(bad) = rungs.get(first_fail) else { return ok.achieved };
    if bad.failed > 0 || !bad.tail_us.is_finite() || bad.tail_us <= limit_us.max(ok.tail_us) {
        return ok.achieved;
    }
    let frac = (limit_us.ln() - ok.tail_us.ln()) / (bad.tail_us.ln() - ok.tail_us.ln());
    ok.achieved + frac.clamp(0.0, 1.0) * (bad.achieved - ok.achieved).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single FIFO server with a fixed service time that stops for
    /// `stall` ns at `stall_at`: returns each request's completion time.
    fn simulate_fifo(due: &[u64], service: u64, stall_at: u64, stall: u64) -> Vec<u64> {
        let mut free = 0u64;
        due.iter()
            .map(|&d| {
                let mut start = free.max(d);
                if start >= stall_at && start < stall_at + stall {
                    start = stall_at + stall;
                }
                free = start + service;
                free
            })
            .collect()
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_delayed_request() {
        // 1 ms apart, 100 µs service, a 10 ms stall at t = 5 ms.
        let due: Vec<u64> = (0..20).map(|i| due_ns(i, 1000.0)).collect();
        let done = simulate_fifo(&due, 100_000, 5_000_000, 10_000_000);
        let phase = Phase {
            sent: due.clone(),
            done: done.iter().map(|&d| Some(d)).collect(),
            outstanding: vec![0; due.len()],
            due,
        };
        let lat = phase.latencies_us();
        // Requests due at 5..=14 ms wait for the stall to end at 15 ms, then
        // drain one by one; the backlog delays the one due at 15 ms too.
        let delayed = lat.iter().filter(|&&l| l > 250.0).count();
        assert_eq!(delayed, 11);
        assert!((lat[5] - 10_100.0).abs() < 1e-9);
        assert!((lat[14] - 2_000.0).abs() < 1e-9);
        assert!((lat[15] - 1_100.0).abs() < 1e-9);
        assert!((lat[0] - 100.0).abs() < 1e-9);
        // A closed-loop client would have been blocked by the stall and seen
        // one slow request; the open loop's median moves with it instead.
        assert!(stats::median(&lat).unwrap() > 500.0);
    }

    #[test]
    fn lateness_is_send_minus_due() {
        let phase = Phase {
            due: vec![0, 1_000_000],
            sent: vec![50_000, 1_400_000],
            done: vec![Some(2_000_000), None],
            outstanding: vec![0, 1],
        };
        assert_eq!(phase.lateness_us(), vec![50.0, 400.0]);
        assert_eq!(phase.failed(), 1);
        assert_eq!(phase.latencies_us(), vec![2000.0]);
    }

    #[test]
    fn backlog_rule_flags_growth_not_a_steady_queue() {
        let steady: Vec<usize> = (0..300).map(|i| 3 + i % 3).collect();
        assert!(!backlog_growing(&steady));
        let growing: Vec<usize> = (0..300).map(|i| i / 10).collect();
        assert!(backlog_growing(&growing));
        // A start-up transient alone is not growth.
        let transient: Vec<usize> = (0..300).map(|i| if i < 50 { i } else { 4 }).collect();
        assert!(!backlog_growing(&transient));
        assert!(!backlog_growing(&[9, 9]));
    }

    fn rung(achieved: f64, tail_us: f64) -> Rung {
        Rung { achieved, tail_us, failed: 0, growing: false }
    }

    #[test]
    fn max_rate_interpolates_the_crossing_in_log_latency() {
        let ladder = [rung(500.0, 800.0), rung(1000.0, 1000.0), rung(1500.0, 100_000.0)];
        // ln(10 ms / 1 ms) / ln(100 ms / 1 ms) = 0.5 of the way to 1500.
        let r = max_rate(&ladder, 10_000.0);
        assert!((r - 1250.0).abs() < 1e-9, "{r}");
        // Every rung passes: the top rung's achieved rate.
        assert_eq!(max_rate(&ladder[..2], 10_000.0), 1000.0);
        // The first rung already misses the limit: scaled by limit / tail.
        assert_eq!(max_rate(&ladder, 400.0), 250.0);
    }

    #[test]
    fn failures_and_growing_backlogs_miss_the_limit() {
        let mut shed = rung(1500.0, 900.0);
        shed.failed = 1;
        let ladder = [rung(1000.0, 800.0), shed, rung(2000.0, 700.0)];
        assert_eq!(max_rate(&ladder, 10_000.0), 1000.0);
        // A growing backlog within the latency limit fails the rung too.
        let mut backlog = rung(1500.0, 900.0);
        backlog.growing = true;
        assert_eq!(max_rate(&[rung(1000.0, 800.0), backlog], 10_000.0), 1000.0);
        // Past the limit, a growing backlog still interpolates on latency.
        let mut over = rung(1500.0, 100_000.0);
        over.growing = true;
        let r = max_rate(&[rung(500.0, 800.0), rung(1000.0, 1000.0), over], 10_000.0);
        assert!((r - 1250.0).abs() < 1e-9, "{r}");
    }
}
