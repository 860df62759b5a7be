//! An inference service over a [`ModelRegistry`], with a socket front-end
//! hardened for overload and failure.
//!
//! The life of a served prediction (see `ARCHITECTURE.md`):
//!
//! ```text
//! client ──TCP──▶ handler thread (one per connection)
//! ──────          ───────────────────────────────────
//! Predict frame   decode + validate, TimedOut past the deadline
//!   (CRC-checked)  submit(name, x): take an admission permit
//!                   (Overloaded at queue_max in flight,
//!                    ServiceStopped once closed)
//!                   try_predict_batched(x, 1): inline, panic contained
//! Prediction /      release the permit
//!   Failure frame ◀── encode
//! ```
//!
//! Each request is predicted on the thread that submitted it, with no
//! queue or hand-off in between: requests are not batched, because the
//! wait to fill a batch cost more than batching saved, and they are not
//! split into row shards, because the connection threads already are the
//! parallelism. [`FittedModel::try_predict_batched`](crate::FittedModel::try_predict_batched)
//! with one worker runs the request inline and still turns a panic into a
//! typed error, so serving adds **zero** per-request thread spawns beyond
//! the per-connection handler. The socket hop moves `f64` bit patterns, so a
//! served answer is **bit-identical** to [`FittedModel::predict`](crate::FittedModel::predict).
//!
//! **The degradation contract.** Every submitted request terminates with a
//! typed outcome — never a hang:
//!
//! * with `queue_max` requests already in flight, a request is shed with
//!   [`SbrlError::Overloaded`] before any work is done (backpressure at the
//!   door);
//! * a socket request already past its `SBRL_DEADLINE_MS` budget when its
//!   frame is decoded (the budget runs from the frame's first byte) is
//!   failed with [`SbrlError::TimedOut`] and not predicted;
//! * a panic inside a prediction is contained and answered with
//!   [`SbrlError::WorkerPanic`]; the service keeps serving;
//! * graceful drain ([`InferenceService::drain`], [`SocketServer::shutdown`])
//!   closes admission, waits up to `drain_budget` for in-flight requests to
//!   finish, then joins all threads.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sbrl_metrics::EffectEstimate;
use sbrl_models::Backbone;
use sbrl_tensor::Matrix;

use crate::error::SbrlError;
use crate::faults::{self, NetAction};
use crate::persist::ModelRegistry;
use crate::wire::{self, HealthReport, Message, WireError};

/// Knobs of admission control.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Admission limit: a request arriving with this many already in flight
    /// is shed with a typed [`SbrlError::Overloaded`] (`SBRL_QUEUE_MAX`).
    pub queue_max: usize,
    /// Per-request budget of a socket request, from the first byte of its
    /// frame (`SBRL_DEADLINE_MS`); a request past it when decoded is failed
    /// with [`SbrlError::TimedOut`], not served late. `None` = unbounded.
    pub deadline: Option<Duration>,
    /// How long a graceful drain waits for in-flight requests to finish.
    pub drain_budget: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_max: 1024, deadline: None, drain_budget: Duration::from_secs(5) }
    }
}

impl ServeConfig {
    /// Validates the admission knobs.
    pub fn validate(&self) -> Result<(), SbrlError> {
        if self.queue_max == 0 {
            return Err(SbrlError::InvalidConfig {
                what: "serve.queue_max",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Defaults overridden by `SBRL_DEADLINE_MS` (0 disables the deadline)
    /// and `SBRL_QUEUE_MAX`. A malformed value is a typed error, not a
    /// silently ignored knob.
    pub fn from_env() -> Result<Self, SbrlError> {
        let mut cfg = Self::default();
        if let Some(ms) = wire::env_u64("SBRL_DEADLINE_MS")? {
            cfg.deadline = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(n) = wire::env_u64("SBRL_QUEUE_MAX")? {
            cfg.queue_max = usize::try_from(n).unwrap_or(usize::MAX);
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A submitted prediction. It already holds its outcome: `submit` predicts
/// on the caller's thread.
#[derive(Debug)]
pub struct PendingPrediction {
    outcome: Result<EffectEstimate, SbrlError>,
}

impl PendingPrediction {
    /// Returns the request's typed outcome. Never blocks.
    pub fn wait(self) -> Result<EffectEstimate, SbrlError> {
        self.outcome
    }
}

// ---------------------------------------------------------------------------
// Counting admission limit
// ---------------------------------------------------------------------------

#[derive(Default)]
struct AdmissionState {
    in_flight: usize,
    closed: bool,
}

/// Counts the requests in flight: admits at most `limit` of them, none once
/// closed, and lets a drain wait for the count to reach zero.
struct Admission {
    state: Mutex<AdmissionState>,
    idle: Condvar,
    limit: usize,
}

/// One admitted request's share of the count, given back on drop.
struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.admission.lock();
        state.in_flight -= 1;
        if state.in_flight == 0 && state.closed {
            self.admission.idle.notify_all();
        }
    }
}

impl Admission {
    fn new(limit: usize) -> Self {
        Self { state: Mutex::default(), idle: Condvar::new(), limit }
    }

    /// Poison-tolerant lock: the state is two plain fields, valid whichever
    /// way a panicking holder left them.
    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admits one request, or refuses it: [`SbrlError::ServiceStopped`] once
    /// closed, [`SbrlError::Overloaded`] with `limit` already in flight.
    fn admit(&self) -> Result<Permit<'_>, SbrlError> {
        let mut state = self.lock();
        if state.closed {
            return Err(SbrlError::ServiceStopped {
                reason: "the service is stopped or draining; admission is closed".into(),
            });
        }
        if state.in_flight >= self.limit {
            return Err(SbrlError::Overloaded { depth: state.in_flight, limit: self.limit });
        }
        state.in_flight += 1;
        Ok(Permit { admission: self })
    }

    fn in_flight(&self) -> usize {
        self.lock().in_flight
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Closes admission, then waits up to `budget` for the in-flight count
    /// to reach zero. Returns the count at the moment of closing.
    fn close_and_wait(&self, budget: Duration) -> usize {
        let mut state = self.lock();
        state.closed = true;
        let in_flight = state.in_flight;
        let started = Instant::now();
        while state.in_flight > 0 {
            let Some(remaining) = budget.checked_sub(started.elapsed()) else { break };
            state = self
                .idle
                .wait_timeout(state, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
        in_flight
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The inference service: a registry of loaded models behind a counting
/// admission limit. See the module docs for the data flow and the
/// degradation contract.
pub struct InferenceService {
    registry: ModelRegistry,
    admission: Admission,
    cfg: ServeConfig,
}

impl InferenceService {
    /// Boots the service over a loaded registry. Fails fast on an empty
    /// registry or invalid knobs — a serving process must never come up
    /// unable to answer anything.
    pub fn start(registry: ModelRegistry, cfg: ServeConfig) -> Result<Self, SbrlError> {
        cfg.validate()?;
        if registry.is_empty() {
            return Err(SbrlError::InvalidConfig {
                what: "serve.registry",
                message: "cannot serve an empty model registry".into(),
            });
        }
        Ok(Self { registry, admission: Admission::new(cfg.queue_max), cfg })
    }

    /// The registry this service answers from.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The configured knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Requests in flight right now (a point-in-time backpressure signal).
    pub fn queue_depth(&self) -> usize {
        self.admission.in_flight()
    }

    /// The health/readiness snapshot served to orchestration probes.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            ready: !self.admission.is_closed(),
            queue_depth: self.admission.in_flight(),
            queue_max: self.cfg.queue_max,
            models: self.registry.names(),
        }
    }

    /// Predicts for the named model on the caller's thread. The covariate
    /// shape is validated first; then the request is shed with
    /// [`SbrlError::Overloaded`] at `queue_max` in flight, or refused with
    /// [`SbrlError::ServiceStopped`] once draining. A failure of the
    /// prediction itself is held by the returned [`PendingPrediction`].
    pub fn submit(&self, method: &str, x: Matrix) -> Result<PendingPrediction, SbrlError> {
        let model = self.registry.require(method)?;
        let expected = model.model().export_config().in_dim();
        if x.rows() == 0 || x.cols() != expected {
            return Err(SbrlError::InvalidConfig {
                what: "serve.request",
                message: format!(
                    "request matrix is {}x{}, model '{method}' expects at least \
                     one row of width {expected}",
                    x.rows(),
                    x.cols()
                ),
            });
        }
        let _permit = self.admission.admit()?;
        Ok(PendingPrediction { outcome: model.try_predict_batched(&x, 1) })
    }

    /// Synchronous convenience: [`submit`](Self::submit) + [`wait`](PendingPrediction::wait).
    pub fn predict(&self, method: &str, x: Matrix) -> Result<EffectEstimate, SbrlError> {
        self.submit(method, x)?.wait()
    }

    /// Graceful drain: closes admission (later `submit`s get
    /// [`SbrlError::ServiceStopped`]) and waits up to `drain_budget` for the
    /// requests in flight to finish. Returns how many were in flight when
    /// the drain began. Idempotent.
    pub fn drain(&self) -> usize {
        self.admission.close_and_wait(self.cfg.drain_budget)
    }
}

// ---------------------------------------------------------------------------
// The socket front-end
// ---------------------------------------------------------------------------

/// How often idle loops re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(20);

/// Read/write budget once a frame has started arriving (a stalled or
/// byte-dribbling peer cannot pin a handler forever).
const HANDLER_IO: Duration = Duration::from_secs(2);

/// A TCP front-end over an [`InferenceService`]: a nonblocking accept loop
/// plus one handler thread per connection, speaking the [`wire`] protocol.
/// Dropping (or [`shutdown`](Self::shutdown)) performs a graceful drain.
pub struct SocketServer {
    service: Arc<InferenceService>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

fn lock_handlers(handlers: &Mutex<Vec<JoinHandle<()>>>) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
    handlers.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wire_io(op: &'static str, e: &std::io::Error) -> SbrlError {
    SbrlError::Wire(WireError::Io { op, kind: e.kind() })
}

impl SocketServer {
    /// Boots the service and binds the listener (use port 0 for an
    /// OS-assigned loopback port). The accept loop runs nonblocking with a
    /// poll tick so drain can interrupt it without a self-connect trick.
    pub fn bind(
        registry: ModelRegistry,
        cfg: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, SbrlError> {
        let service = Arc::new(InferenceService::start(registry, cfg)?);
        let listener = TcpListener::bind(addr).map_err(|e| wire_io("bind", &e))?;
        listener.set_nonblocking(true).map_err(|e| wire_io("set nonblocking", &e))?;
        let addr = listener.local_addr().map_err(|e| wire_io("local addr", &e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let loop_service = Arc::clone(&service);
        let loop_stop = Arc::clone(&stop);
        let loop_handlers = Arc::clone(&handlers);
        // lint: allow(spawn) — the one long-lived accept thread of the
        // socket front-end (joined on shutdown/Drop).
        let accept = std::thread::spawn(move || {
            accept_loop(&listener, &loop_service, &loop_stop, &loop_handlers);
        });
        Ok(Self { service, addr, stop, accept: Some(accept), handlers })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The inference service behind the socket (same process: tests compare
    /// socket answers against in-process answers through this).
    pub fn service(&self) -> &InferenceService {
        &self.service
    }

    /// Graceful drain: stop accepting, close admission, wait up to the drain
    /// budget for in-flight requests, join every handler. Returns the number
    /// of requests in flight when the drain began.
    pub fn shutdown(mut self) -> usize {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> usize {
        self.stop.store(true, Ordering::Release);
        let in_flight = self.service.drain();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = lock_handlers(&self.handlers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        in_flight
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<InferenceService>,
    stop: &Arc<AtomicBool>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let conn_service = Arc::clone(service);
                let conn_stop = Arc::clone(stop);
                // lint: allow(spawn) — one handler thread per accepted
                // connection; all are joined on shutdown/Drop.
                let handle = std::thread::spawn(move || {
                    handle_connection(stream, &conn_service, &conn_stop);
                });
                let mut live = lock_handlers(handlers);
                reap_finished(&mut live);
                live.push(handle);
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Joins the handlers whose connection has closed, so a long-lived server
/// keeps one entry per live connection, not one per connection ever accepted.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let (finished, live): (Vec<_>, Vec<_>) =
        std::mem::take(handlers).into_iter().partition(JoinHandle::is_finished);
    *handlers = live;
    for handle in finished {
        let _ = handle.join();
    }
}

/// One connection's serve loop: wait (interruptibly) for a frame, decode,
/// serve, reply. Malformed bytes get a typed `Failure` frame and the
/// connection is closed (the stream may be desynchronized after garbage).
fn handle_connection(mut stream: TcpStream, service: &InferenceService, stop: &AtomicBool) {
    loop {
        if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
            return;
        }
        // Peek (not read) so an idle wait consumes nothing and the drain
        // flag is re-checked every tick.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if wire::is_timeout_kind(e.kind()) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // A frame is arriving: its deadline runs from this first byte, and
        // the exchange gets a real I/O budget.
        let arrived = Instant::now();
        let budget_ok = stream
            .set_read_timeout(Some(HANDLER_IO))
            .and_then(|()| stream.set_write_timeout(Some(HANDLER_IO)))
            .is_ok();
        if !budget_ok {
            return;
        }
        let (reply, keep_alive) = match wire::read_message(&mut stream) {
            Ok(Message::Predict { model, x }) => (serve_predict(service, &model, x, arrived), true),
            Ok(Message::Health) => (Message::HealthReport(service.health()), true),
            Ok(_) => (
                Message::Failure(SbrlError::Wire(WireError::Malformed {
                    what: "clients send Predict or Health frames".into(),
                })),
                false,
            ),
            Err(WireError::Io { .. }) => return,
            Err(e) => (Message::Failure(SbrlError::Wire(e)), false),
        };
        if !write_response(&mut stream, &reply) || !keep_alive {
            return;
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Serves one decoded Predict frame, failing it with [`SbrlError::TimedOut`]
/// unpredicted when its deadline, counted from `arrived`, has already passed.
fn serve_predict(service: &InferenceService, model: &str, x: Matrix, arrived: Instant) -> Message {
    let elapsed = arrived.elapsed();
    let outcome = match service.config().deadline {
        Some(deadline) if elapsed >= deadline => Err(SbrlError::TimedOut { iteration: 0, elapsed }),
        _ => service.predict(model, x),
    };
    match outcome {
        Ok(est) => Message::Prediction { y0_hat: est.y0_hat, y1_hat: est.y1_hat },
        Err(e) => Message::Failure(e),
    }
}

/// Writes one response frame, routed through the network fault hooks (no-ops
/// unless the `fault-inject` feature armed a `net-*` fault). Returns whether
/// the connection is still usable.
fn write_response(stream: &mut TcpStream, msg: &Message) -> bool {
    let Ok(frame) = wire::encode_message(msg) else {
        let _ = stream.shutdown(Shutdown::Both);
        return false;
    };
    match faults::net_response() {
        NetAction::None => stream.write_all(&frame).and_then(|()| stream.flush()).is_ok(),
        NetAction::Delay(millis) => {
            std::thread::sleep(Duration::from_millis(millis));
            stream.write_all(&frame).and_then(|()| stream.flush()).is_ok()
        }
        NetAction::Drop => {
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
        NetAction::Truncate => {
            let half = frame.len() / 2;
            if let Some(partial) = frame.get(..half) {
                let _ = stream.write_all(partial);
                let _ = stream.flush();
            }
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
        NetAction::Garbage => {
            let mut corrupted = frame;
            let mid = corrupted.len() / 2;
            if let Some(byte) = corrupted.get_mut(mid) {
                *byte ^= 0xFF;
            }
            let _ = stream.write_all(&corrupted);
            let _ = stream.flush();
            // The client will fail the CRC; close so its retry reconnects
            // onto a clean stream.
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Latency accounting (used by the `serve` binary's bench mode)
// ---------------------------------------------------------------------------

/// Latency/throughput digest of a load run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median request latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile request latency in nanoseconds.
    pub p99_ns: u64,
    /// Mean request latency in nanoseconds.
    pub mean_ns: u64,
    /// Number of latency samples.
    pub samples: usize,
}

/// Summarises per-request latency samples (nanoseconds). Returns `None` for
/// an empty sample set.
pub fn summarize_latencies(mut samples_ns: Vec<u64>) -> Option<LatencySummary> {
    if samples_ns.is_empty() {
        return None;
    }
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    let percentile = |p: usize| -> u64 {
        let idx = ((n - 1) * p) / 100;
        samples_ns.get(idx).copied().unwrap_or(0)
    };
    let sum: u128 = samples_ns.iter().map(|&v| u128::from(v)).sum();
    Some(LatencySummary {
        p50_ns: percentile(50),
        p99_ns: percentile(99),
        mean_ns: (sum / n as u128) as u64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{fixture, PersistError};

    fn service_registry() -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        registry.insert(fixture::train_golden().expect("fixture fit")).expect("insert");
        registry
    }

    fn service() -> InferenceService {
        InferenceService::start(service_registry(), ServeConfig::default()).expect("start")
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn served_predictions_match_direct_predictions_bitwise() {
        let svc = service();
        let name = svc.registry().names().remove(0);
        let dim = fixture::dataset().0.dim();
        let probe = fixture::probe_matrix(dim);
        let direct = svc.registry().require(&name).expect("model").predict(&probe);
        let served = svc.predict(&name, probe).expect("served");
        assert_eq!(bits(&direct.y0_hat), bits(&served.y0_hat));
        assert_eq!(bits(&direct.y1_hat), bits(&served.y1_hat));
    }

    #[test]
    fn unknown_model_and_bad_shapes_fail_in_submit() {
        let svc = service();
        let err = svc.predict("NOPE", Matrix::zeros(1, 3)).unwrap_err();
        assert!(matches!(err, SbrlError::Persist(PersistError::UnknownModel { .. })));
        let name = svc.registry().names().remove(0);
        let err = svc.predict(&name, Matrix::zeros(1, 3)).unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "serve.request", .. }));
        let dim = fixture::dataset().0.dim();
        let err = svc.predict(&name, Matrix::zeros(0, dim)).unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "serve.request", .. }));
    }

    #[test]
    fn empty_registry_is_rejected_at_startup() {
        let err = InferenceService::start(ModelRegistry::new(), ServeConfig::default());
        assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "serve.registry", .. })));
        let err = InferenceService::start(
            ModelRegistry::new(),
            ServeConfig { queue_max: 0, ..ServeConfig::default() },
        );
        assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "serve.queue_max", .. })));
    }

    #[test]
    fn full_queue_sheds_with_typed_overloaded() {
        let admission = Admission::new(2);
        let first = admission.admit().expect("first fits");
        let _second = admission.admit().expect("second fits");
        let err = admission.admit().err().expect("third is shed");
        assert!(matches!(err, SbrlError::Overloaded { depth: 2, limit: 2 }));
        drop(first);
        assert_eq!(admission.in_flight(), 1);
        let _third = admission.admit().expect("a released permit frees its place");
        assert_eq!(admission.close_and_wait(Duration::ZERO), 2);
        let err = admission.admit().err().expect("closed");
        assert!(matches!(err, SbrlError::ServiceStopped { .. }));
    }

    #[test]
    fn concurrent_predicts_are_bit_identical_or_overloaded() {
        let svc = InferenceService::start(
            service_registry(),
            ServeConfig { queue_max: 2, ..ServeConfig::default() },
        )
        .expect("start");
        let name = svc.registry().names().remove(0);
        let probe = fixture::probe_matrix(fixture::dataset().0.dim());
        let direct = svc.registry().require(&name).expect("model").predict(&probe);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        match svc.predict(&name, probe.clone()) {
                            Ok(est) => {
                                assert_eq!(bits(&est.y0_hat), bits(&direct.y0_hat));
                                assert_eq!(bits(&est.y1_hat), bits(&direct.y1_hat));
                            }
                            Err(SbrlError::Overloaded { limit: 2, .. }) => {}
                            Err(other) => panic!("unexpected outcome: {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn drain_closes_admission_and_answers_queued_requests() {
        let svc = service();
        let name = svc.registry().names().remove(0);
        let dim = fixture::dataset().0.dim();
        let pending = svc.submit(&name, fixture::probe_matrix(dim)).expect("submitted");
        assert_eq!(svc.drain(), 0);
        // A request admitted before the drain keeps its answer.
        pending.wait().expect("answered before the drain");
        let err = svc.submit(&name, fixture::probe_matrix(dim)).unwrap_err();
        assert!(matches!(err, SbrlError::ServiceStopped { .. }));
        assert!(!svc.health().ready);
    }

    #[test]
    fn drain_waits_for_in_flight_requests_within_its_budget() {
        let admission = Admission::new(4);
        let permit = admission.admit().expect("admitted");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                drop(permit);
            });
            let started = Instant::now();
            assert_eq!(admission.close_and_wait(Duration::from_secs(10)), 1);
            assert!(started.elapsed() < Duration::from_secs(10), "woken by the release");
        });
        assert_eq!(admission.in_flight(), 0);
        let stuck = Admission::new(1);
        let permit = stuck.admit().expect("admitted");
        let started = Instant::now();
        assert_eq!(stuck.close_and_wait(Duration::from_millis(20)), 1);
        assert!(started.elapsed() >= Duration::from_millis(20), "the budget bounds the wait");
        drop(permit);
    }

    #[test]
    fn a_request_past_its_deadline_when_decoded_times_out_unpredicted() {
        let cfg =
            ServeConfig { deadline: Some(Duration::from_millis(50)), ..ServeConfig::default() };
        let server = SocketServer::bind(service_registry(), cfg, "127.0.0.1:0").expect("bind");
        let name = server.service().registry().names().remove(0);
        let probe = fixture::probe_matrix(fixture::dataset().0.dim());
        let frame =
            wire::encode_message(&Message::Predict { model: name, x: probe }).expect("encodable");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let (first, rest) = frame.split_at(1);
        stream.write_all(first).expect("first byte");
        std::thread::sleep(Duration::from_millis(120));
        stream.write_all(rest).expect("rest of the frame");
        match wire::read_message(&mut stream) {
            Ok(Message::Failure(SbrlError::TimedOut { elapsed, .. })) => {
                assert!(elapsed >= Duration::from_millis(50));
            }
            other => panic!("expected a TimedOut failure frame, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn serve_config_env_knobs_validate() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.queue_max, 1024);
        assert!(cfg.deadline.is_none());
        assert!(ServeConfig { queue_max: 0, ..cfg }.validate().is_err());
    }

    #[test]
    fn finished_connection_handlers_are_reaped() {
        let server = SocketServer::bind(service_registry(), ServeConfig::default(), "127.0.0.1:0")
            .expect("bind");
        let all_finished = || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !lock_handlers(&server.handlers).iter().all(JoinHandle::is_finished) {
                assert!(Instant::now() < deadline, "a closed connection's handler never exited");
                std::thread::yield_now();
            }
        };
        for _ in 0..32 {
            let mut client = wire::ServeClient::connect(server.local_addr(), Default::default());
            client.health().expect("health round trip");
            drop(client);
            all_finished();
            // Each accept reaps the handlers that have exited, so at most
            // this connection and its predecessor can be listed.
            assert!(lock_handlers(&server.handlers).len() <= 2);
        }
        server.shutdown();
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        let summary = summarize_latencies(samples).expect("non-empty");
        assert_eq!(summary.samples, 100);
        assert_eq!(summary.p50_ns, 50);
        assert_eq!(summary.p99_ns, 99);
        assert!(summary.p50_ns <= summary.p99_ns);
        assert_eq!(summarize_latencies(Vec::new()), None);
    }
}
