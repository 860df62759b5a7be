//! Serving over the committed fixture registry: the `serve_socket`
//! workload (open-loop traffic over a loopback `SocketServer`) and the
//! burst probe of the traced run (scheduled bursts into an in-process
//! `InferenceService`).

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sbrl_core::wire::{self, Message};
use sbrl_core::{InferenceService, ModelRegistry, PendingPrediction, ServeConfig, SocketServer};
use sbrl_data::{SyntheticConfig, SyntheticProcess, PAPER_BIAS_RATES};
use sbrl_metrics::EffectEstimate;
use sbrl_tensor::rng::rng_from_seed;
use sbrl_tensor::Matrix;

use crate::fit::{pehe_summary, timed};
use crate::openloop::{self, Phase, Rung};
use crate::report::Report;
use crate::stats;

/// The committed two-model registry every serving workload loads.
pub const REGISTRY_DIR: &str = "tests/fixtures/registry";
/// Rows per request.
pub const ROWS: usize = 16;
/// Distinct 16-row slices drawn per test environment.
const SLICES: usize = 32;
/// Closed-loop warm-up requests after each set-up.
const WARMUP: usize = 64;

/// `serve_socket`'s light and heavy open-loop rates (requests/s).
pub const LIGHT_RATE: f64 = 750.0;
/// See [`LIGHT_RATE`].
pub const HEAVY_RATE: f64 = 2000.0;
/// The rate ladder `max_rps` is read from, ascending.
pub const LADDER: [f64; 5] = [1500.0, 2400.0, 3000.0, 3600.0, 4400.0];
/// Tail-latency limit of the ladder (µs).
pub const TAIL_LIMIT_US: f64 = 5_000.0;

/// The burst probe: requests per burst, and the gap between burst due
/// times.
pub const BURST: usize = 256;
/// See [`BURST`].
pub const BURST_PERIOD: Duration = Duration::from_millis(25);

/// The fixture models' data process (the recipe of
/// `sbrl_core::persist::fixture::dataset`): requests are drawn from it so
/// the served answers can be scored against the oracle.
fn fixture_process() -> SyntheticProcess {
    let cfg = SyntheticConfig {
        m_instrument: 2,
        m_confounder: 2,
        m_adjustment: 2,
        m_unstable: 1,
        pool_factor: 4,
        threshold_pool: 800,
    };
    SyntheticProcess::new(cfg, 7)
}

/// The requests a serving run draws from: per paper test environment,
/// [`SLICES`] matrices of [`ROWS`] rows, the oracle effects of those rows,
/// and each model's answer bits, computed before anything is timed. The
/// rows are the same for every seed; the seed shuffles the order in which
/// the (model, environment, slice) keys are requested.
pub struct RequestPool {
    /// Registry names of the served models.
    pub models: Vec<String>,
    /// `slices[env][s]`: covariates of one request.
    slices: Vec<Vec<Matrix>>,
    /// `ite[env][s]`: the oracle effects of those rows.
    ite: Vec<Vec<Vec<f64>>>,
    /// `expected[key]`: `FittedModel::predict` bits for each key.
    expected: Vec<Vec<u64>>,
    /// The seeded request order, cycled: entries are keys.
    order: Vec<usize>,
}

/// The (model, environment, slice) triple of key `k`.
fn split_key(k: usize) -> (usize, usize, usize) {
    let envs = PAPER_BIAS_RATES.len();
    (k / (envs * SLICES), k / SLICES % envs, k % SLICES)
}

impl RequestPool {
    /// Draws the pool, computes the expected answers, and shuffles the
    /// request order with `seed`.
    pub fn new(registry: &ModelRegistry, seed: u64) -> Self {
        let models = registry.names();
        let process = fixture_process();
        let mut slices = Vec::new();
        let mut ite = Vec::new();
        for (k, &rho) in PAPER_BIAS_RATES.iter().enumerate() {
            let data = process.generate(rho, ROWS * SLICES, 1000 + k as u64);
            let truth = data.true_ite().expect("synthetic data carries the oracle");
            let rows = |s: usize| (s * ROWS..(s + 1) * ROWS).collect::<Vec<_>>();
            slices.push((0..SLICES).map(|s| data.x.select_rows(&rows(s))).collect::<Vec<_>>());
            ite.push((0..SLICES).map(|s| truth[s * ROWS..(s + 1) * ROWS].to_vec()).collect());
        }
        let keys = models.len() * PAPER_BIAS_RATES.len() * SLICES;
        let expected = (0..keys)
            .map(|k| {
                let (m, env, s) = split_key(k);
                let model = registry.require(&models[m]).expect("a registry model");
                est_bits(&model.predict(&slices[env][s]))
            })
            .collect();
        let mut order: Vec<usize> = (0..keys).collect();
        let mut rng = rng_from_seed(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rand::RngExt::random_range(&mut rng, 0..i + 1));
        }
        Self { models, slices, ite, expected, order }
    }

    fn key(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    /// Model name and covariates of request `i`.
    pub fn request(&self, i: usize) -> (&str, &Matrix) {
        let (m, env, s) = split_key(self.key(i));
        (&self.models[m], &self.slices[env][s])
    }

    /// True when `est` is bit-identical to `FittedModel::predict` on
    /// request `i`'s rows.
    pub fn matches(&self, i: usize, est: &EffectEstimate) -> bool {
        est_bits(est) == self.expected[self.key(i)]
    }
}

/// Answers checked as they arrive (after their arrival time is taken):
/// bit mismatches against the precomputed `FittedModel::predict` bits, and
/// squared effect errors per environment for the served PEHE.
#[derive(Default)]
pub struct Tally {
    answered: usize,
    mismatched: usize,
    sq_err: [(f64, usize); PAPER_BIAS_RATES.len()],
}

impl Tally {
    /// Records request `i`'s answer.
    pub fn record(&mut self, pool: &RequestPool, i: usize, est: &EffectEstimate) {
        self.answered += 1;
        self.mismatched += usize::from(!pool.matches(i, est));
        let (_, env, s) = split_key(pool.key(i));
        for ((y1, y0), truth) in est.y1_hat.iter().zip(&est.y0_hat).zip(&pool.ite[env][s]) {
            self.sq_err[env].0 += (y1 - y0 - truth).powi(2);
            self.sq_err[env].1 += 1;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.answered += other.answered;
        self.mismatched += other.mismatched;
        for (a, b) in self.sq_err.iter_mut().zip(other.sq_err) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Checks that every answer matched `FittedModel::predict` bit for bit.
    pub fn check(&self, report: &mut Report) {
        if self.mismatched > 0 {
            let what = format!(
                "{} of {} served answers differ from FittedModel::predict",
                self.mismatched, self.answered
            );
            report.fail(self.mismatched as u64, what);
        }
    }

    /// Reports the bit check and the served PEHE pair.
    fn report(&self, report: &mut Report) {
        self.check(report);
        let per_env: Vec<f64> =
            self.sq_err.iter().map(|&(s, n)| (s / n.max(1) as f64).sqrt()).collect();
        let (ood, sd) = pehe_summary(&per_env);
        report.metric("pehe_ood", "outcome", ood, self.answered);
        report.metric("pehe_sd", "outcome", sd, self.answered);
    }
}

fn est_bits(e: &EffectEstimate) -> Vec<u64> {
    e.y0_hat.iter().chain(&e.y1_hat).map(|v| v.to_bits()).collect()
}

/// Loads the fixture registry.
pub fn load_registry() -> ModelRegistry {
    ModelRegistry::load_dir(Path::new(REGISTRY_DIR)).unwrap_or_else(|e| {
        eprintln!("error: cannot load {REGISTRY_DIR}: {e}");
        std::process::exit(1)
    })
}

/// `p99` when the sample supports it, else `tail` (the report line's
/// sample count says how many there were), so a metric keeps one name.
fn tail_name(t: stats::Tail) -> &'static str {
    if t.percentile == 99.0 {
        "p99"
    } else {
        "tail"
    }
}

/// Records under `prefix` the latency and generator-lateness summaries of
/// one phase, its request counts, and whether it ran over capacity.
/// Returns its latencies (µs).
fn record_phase(report: &mut Report, prefix: &str, p: &Phase) -> Vec<f64> {
    let lat = p.latencies_us();
    let late = p.lateness_us();
    let (attempted, failed, over) = (p.attempted(), p.failed(), p.over_capacity());
    report.ops(attempted as u64, failed as u64);
    report.metric(&format!("{prefix}_attempted"), "count", attempted as f64, 1);
    report.metric(&format!("{prefix}_succeeded"), "count", (attempted - failed) as f64, 1);
    report.metric(&format!("{prefix}_failed"), "count", failed as f64, 1);
    if let (Some(p50), Some(t)) = (stats::median(&lat), stats::tail(&lat)) {
        report.metric(&format!("{prefix}_p50_us"), "us", p50, lat.len());
        report.metric(&format!("{prefix}_{}_us", tail_name(t)), "us", t.value, t.samples);
    }
    if let (Some(p50), Some(t)) = (stats::median(&late), stats::tail(&late)) {
        report.metric(&format!("{prefix}_gen_late_p50_us"), "us", p50, late.len());
        report.metric(&format!("{prefix}_gen_late_{}_us", tail_name(t)), "us", t.value, t.samples);
    }
    report.metric(&format!("{prefix}_over_capacity"), "bool", f64::from(u8::from(over)), 1);
    lat
}

// ---------------------------------------------------------------------------
// serve_socket
// ---------------------------------------------------------------------------

/// A bound server with one connected, warmed-up client stream.
pub struct SocketRig {
    /// The server.
    pub server: SocketServer,
    /// The client's connection.
    pub stream: TcpStream,
}

impl SocketRig {
    /// Closes the connection and drains the server.
    pub fn close(self) {
        drop(self.stream);
        self.server.shutdown();
    }
}

/// Set-up of `serve_socket`: registry load, bind, connect, warm-up.
pub fn socket_rig(pool: &RequestPool) -> SocketRig {
    let server = SocketServer::bind(load_registry(), ServeConfig::default(), "127.0.0.1:0")
        .expect("bind a loopback port");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set a read timeout");
    for i in 0..WARMUP {
        let (model, x) = pool.request(i);
        wire::write_message(&mut stream, &Message::Predict { model: model.into(), x: x.clone() })
            .expect("warm-up write");
        wire::read_message(&mut stream).expect("warm-up reply");
    }
    SocketRig { server, stream }
}

/// One open-loop phase of `count` requests at `rate` over `stream`: a
/// sender thread writes frames on schedule, a reader thread takes the
/// replies (in order: the server answers one connection's frames in turn)
/// and checks each into `tally`.
pub fn socket_phase(
    stream: &TcpStream,
    pool: &RequestPool,
    rate: f64,
    count: usize,
    first: usize,
    tally: &mut Tally,
) -> Phase {
    let mut writer = stream.try_clone().expect("clone the client stream");
    let mut reader = stream.try_clone().expect("clone the client stream");
    let completed = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let completed = &completed;
        let reader_thread = scope.spawn(move || {
            let mut done: Vec<Option<u64>> = vec![None; count];
            let mut seen = Tally::default();
            for (j, slot) in done.iter_mut().enumerate() {
                match wire::read_message(&mut reader) {
                    Ok(Message::Prediction { y0_hat, y1_hat }) => {
                        *slot = Some(openloop::ns_since(start, Instant::now()));
                        seen.record(pool, first + j, &EffectEstimate { y0_hat, y1_hat });
                    }
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("serve_socket: read failed after {j} replies: {e}");
                        break;
                    }
                }
                completed.fetch_add(1, Ordering::Release);
            }
            (done, seen)
        });
        for j in 0..count {
            let due = openloop::due_ns(j, rate);
            openloop::wait_until(start + Duration::from_nanos(due));
            phase.due.push(due);
            phase.sent.push(openloop::ns_since(start, Instant::now()));
            phase.outstanding.push(j - completed.load(Ordering::Acquire).min(j));
            let (model, x) = pool.request(first + j);
            let msg = Message::Predict { model: model.into(), x: x.clone() };
            if let Err(e) = wire::write_message(&mut writer, &msg) {
                eprintln!("serve_socket: write failed: {e}");
                let _ = writer.shutdown(Shutdown::Both);
                break;
            }
        }
        let _ = writer.flush();
        let (done, seen) = reader_thread.join().expect("the reader thread");
        phase.done = done;
        tally.merge(seen);
    });
    // Requests never sent count as attempted and failed.
    while phase.due.len() < count {
        phase.due.push(openloop::due_ns(phase.due.len(), rate));
        phase.sent.push(u64::MAX);
    }
    phase
}

fn count(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

/// `serve_socket` for `seconds`: set up one server and connection, then
/// 40% of the time at the light rate, 15% at the heavy rate, and the rest
/// climbing the rate ladder until a rung misses the tail limit.
pub fn serve_socket(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let registry = load_registry();
    let pool = RequestPool::new(&registry, seed);
    let (rig, setup_s) = timed(|| socket_rig(&pool));
    report.metric("setup_s", "s", setup_s, 1);

    let mut tally = Tally::default();
    let mut next = WARMUP;
    let mut phase = |rate: f64, secs: f64, tally: &mut Tally| {
        let n = count(rate, secs);
        let p = socket_phase(&rig.stream, &pool, rate, n, next, tally);
        next += n;
        p
    };
    let light = phase(LIGHT_RATE, seconds * 0.4, &mut tally);
    let heavy = phase(HEAVY_RATE, seconds * 0.15, &mut tally);
    // Where the ladder stops varies, so its answers are checked but kept
    // out of the served PEHE, which must repeat exactly.
    let mut ladder_tally = Tally::default();
    let mut rungs = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let p = phase(rate, seconds * 0.45 / LADDER.len() as f64, &mut ladder_tally);
        record_phase(&mut report, &format!("ladder{k}"), &p);
        rungs.push(Rung::of(&p));
        // Past the first rung that misses the limit the rest would too.
        if openloop::max_rate(&rungs, TAIL_LIMIT_US) != rungs[rungs.len() - 1].achieved {
            break;
        }
    }
    rig.close();

    let lat = record_phase(&mut report, "light", &light);
    record_phase(&mut report, "heavy", &heavy);
    let tail = stats::tail(&lat);
    report.metric("p50_ms", "ms", stats::median(&lat).unwrap_or(f64::NAN) / 1e3, lat.len());
    report.metric("tail_ms", "ms", tail.map_or(f64::NAN, |t| t.value / 1e3), lat.len());
    report.metric("tail_percentile", "pct", tail.map_or(f64::NAN, |t| t.percentile), lat.len());
    let max_rps = openloop::max_rate(&rungs, TAIL_LIMIT_US);
    report.metric("max_rps", "req/s", max_rps, rungs.len());
    report.metric("rows_per_s", "rows/s", max_rps * ROWS as f64, rungs.len());
    ladder_tally.check(&mut report);
    tally.report(&mut report);
    report
}

// ---------------------------------------------------------------------------
// The burst probe of the traced run
// ---------------------------------------------------------------------------

/// Outcome of one burst phase.
#[derive(Default)]
pub struct BurstPhase {
    /// Per-request latency from the burst's due time (µs).
    pub latency_us: Vec<f64>,
    /// Per burst: rows answered and ns from due time to its last answer.
    pub busy: Vec<(usize, u64)>,
    /// Generator lateness per burst (µs).
    pub late_us: Vec<f64>,
    /// Queue depth seen after each admitted request.
    pub depth: Vec<f64>,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests shed with `Overloaded`.
    pub shed: usize,
    /// Requests that failed any other way.
    pub failed: usize,
}

/// Sends `bursts` bursts of [`BURST`] requests, one due every
/// [`BURST_PERIOD`]; one collector thread waits on the replies and checks
/// each into `tally`. Each burst's matrices are copied before its due time,
/// so a burst is submitted back to back. With `sample_depth` the queue
/// depth is read after every admitted request.
pub fn burst_phase(
    svc: &InferenceService,
    pool: &RequestPool,
    bursts: usize,
    first: usize,
    sample_depth: bool,
    tally: &mut Tally,
) -> BurstPhase {
    let (tx, rx) = mpsc::channel::<(usize, usize, PendingPrediction)>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut out = BurstPhase::default();
    let mut wait_failed = 0;
    let mut latency_us = Vec::with_capacity(bursts * BURST);
    let mut busy = vec![(0usize, 0u64); bursts];
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            for (b, i, pending) in rx {
                let due = start + BURST_PERIOD * b as u32;
                match pending.wait() {
                    Ok(est) => {
                        let ns = openloop::ns_since(due, Instant::now());
                        latency_us.push(ns as f64 / 1e3);
                        busy[b].0 += est.y0_hat.len();
                        busy[b].1 = busy[b].1.max(ns);
                        tally.record(pool, i, &est);
                    }
                    Err(_) => wait_failed += 1,
                }
            }
        });
        let mut xs: Vec<(&str, Matrix)> = Vec::with_capacity(BURST);
        for b in 0..bursts {
            let due = start + BURST_PERIOD * b as u32;
            let base = first + b * BURST;
            xs.extend((base..base + BURST).map(|i| {
                let (model, x) = pool.request(i);
                (model, x.clone())
            }));
            openloop::wait_until(due);
            out.late_us.push(openloop::ns_since(due, Instant::now()) as f64 / 1e3);
            for (j, (model, x)) in xs.drain(..).enumerate() {
                out.submitted += 1;
                match svc.submit(model, x) {
                    Ok(pending) => {
                        if sample_depth {
                            out.depth.push(svc.queue_depth() as f64);
                        }
                        tx.send((b, base + j, pending)).expect("the collector is alive");
                    }
                    Err(sbrl_core::SbrlError::Overloaded { .. }) => out.shed += 1,
                    Err(_) => out.failed += 1,
                }
            }
        }
        drop(tx);
        collector.join().expect("the collector thread");
    });
    out.failed += wait_failed;
    out.latency_us = latency_us;
    out.busy = busy;
    out
}
