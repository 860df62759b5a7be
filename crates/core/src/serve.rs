//! A threaded inference service over a [`ModelRegistry`], with a socket
//! front-end hardened for overload and failure.
//!
//! The life of a served prediction (see `ARCHITECTURE.md`):
//!
//! ```text
//! client ──TCP──▶ handler thread        batcher thread             worker pool
//! ──────          ──────────────        ──────────────             ───────────
//! Predict frame   decode + validate
//!   (CRC-checked)  submit(name, x) ──▶ bounded admission queue
//!                   sheds Overloaded    collect ≤ batch_max reqs
//!                   at queue_max        within batch_window,
//!                  wait_deadline()      shed expired deadlines,
//!                    blocks on the      group by model, vstack
//!                    slot's condvar     ──▶ try_predict_batched ──▶ row shards
//!                              ◀─ fulfil ─ split rows back per
//! Prediction /                            request, notify slots
//!   Failure frame ◀── encode
//! ```
//!
//! One long-lived batcher thread owns the queue's receive side; the actual
//! numeric work still goes through the workspace's persistent worker pool via
//! [`FittedModel::try_predict_batched`](crate::FittedModel::try_predict_batched), so serving adds **zero** per-request
//! thread spawns beyond the per-connection handler. Because every per-row
//! operation of the inference path is row-independent, folding many requests
//! into one batched call and splitting the rows back out returns
//! **bit-identical** results to serving each request alone — batching (and
//! the socket hop, which moves `f64` bit patterns) is a pure
//! latency/throughput trade.
//!
//! **The degradation contract.** Every submitted request terminates with a
//! typed outcome — never a hang:
//!
//! * a full admission queue sheds the request with [`SbrlError::Overloaded`]
//!   *before* it queues (backpressure at the door);
//! * a request whose `SBRL_DEADLINE_MS` budget expires while queued is
//!   failed with [`SbrlError::TimedOut`], and [`PendingPrediction::wait_deadline`]
//!   bounds the caller's wait symmetrically;
//! * a batcher that panics or stops fulfils every dequeued **and** every
//!   still-queued slot with [`SbrlError::ServiceStopped`] via its
//!   drop/unwind guards — the `wait` forever-hang is structurally gone;
//! * graceful drain ([`InferenceService::drain`], [`SocketServer::shutdown`])
//!   stops admission, then fulfils or deadline-fails every queued slot
//!   within `drain_budget`, then joins all threads.

use std::collections::VecDeque;
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
use crate::persist::{ModelRegistry, PersistError};
use crate::wire::{self, HealthReport, Message, WireError};

/// Knobs of the request batcher and admission control.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Maximum requests folded into one batched prediction call.
    pub batch_max: usize,
    /// How long the batcher waits for more requests after the first one
    /// before dispatching a partial batch.
    pub batch_window: Duration,
    /// Worker count handed to [`FittedModel::try_predict_batched`](crate::FittedModel::try_predict_batched)
    /// (`0` = the workspace-wide `SBRL_THREADS` / core-count default).
    pub workers: usize,
    /// Admission limit: a request arriving with this many already queued is
    /// shed with a typed [`SbrlError::Overloaded`] (`SBRL_QUEUE_MAX`).
    pub queue_max: usize,
    /// Per-request budget from submission to fulfilment
    /// (`SBRL_DEADLINE_MS`); expired requests are failed with
    /// [`SbrlError::TimedOut`], not served late. `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Budget of a graceful drain: queued requests not fulfilled within it
    /// are failed with [`SbrlError::ServiceStopped`] so shutdown stays
    /// bounded.
    pub drain_budget: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_max: 64,
            batch_window: Duration::from_micros(200),
            workers: 0,
            queue_max: 1024,
            deadline: None,
            drain_budget: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// Validates the batcher knobs.
    pub fn validate(&self) -> Result<(), SbrlError> {
        if self.batch_max == 0 {
            return Err(SbrlError::InvalidConfig {
                what: "serve.batch_max",
                message: "must be at least 1".into(),
            });
        }
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

/// One request's result slot: a mutex-guarded option plus the condvar the
/// waiting client blocks on.
#[derive(Debug, Default)]
struct Slot {
    state: Mutex<Option<Result<EffectEstimate, SbrlError>>>,
    ready: Condvar,
}

/// Poison-tolerant lock: a panicking peer must not cascade panics into
/// waiting clients — the protected state is a plain `Option` that is valid
/// in either lock outcome.
fn lock_state(slot: &Slot) -> MutexGuard<'_, Option<Result<EffectEstimate, SbrlError>>> {
    slot.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// First write wins: the drop/unwind guards race benignly with the normal
/// fulfilment path, and a slot abandoned by a timed-out waiter must keep
/// its first (authoritative) outcome.
fn fulfil(slot: &Slot, outcome: Result<EffectEstimate, SbrlError>) {
    let mut state = lock_state(slot);
    if state.is_none() {
        *state = Some(outcome);
        slot.ready.notify_all();
    }
}

/// A submitted prediction that has not been waited on yet.
#[derive(Debug)]
pub struct PendingPrediction {
    slot: Arc<Slot>,
}

impl PendingPrediction {
    /// Blocks until the batcher fulfils this request and returns its typed
    /// outcome. This cannot hang: a batcher that stops or panics fulfils
    /// every owed slot with [`SbrlError::ServiceStopped`] on its way out.
    pub fn wait(self) -> Result<EffectEstimate, SbrlError> {
        let mut state = lock_state(&self.slot);
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            state = self.slot.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Like [`wait`](Self::wait), but gives up with [`SbrlError::TimedOut`]
    /// once `deadline` has elapsed. The slot itself stays valid — a late
    /// fulfilment lands in a slot nobody reads, which is safe.
    pub fn wait_deadline(self, deadline: Duration) -> Result<EffectEstimate, SbrlError> {
        let started = Instant::now();
        let mut state = lock_state(&self.slot);
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            let elapsed = started.elapsed();
            let Some(remaining) = deadline.checked_sub(elapsed) else {
                return Err(SbrlError::TimedOut { iteration: 0, elapsed });
            };
            if remaining.is_zero() {
                return Err(SbrlError::TimedOut { iteration: 0, elapsed });
            }
            let (guard, _timed_out) = self
                .slot
                .ready
                .wait_timeout(state, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = guard;
        }
    }
}

struct Request {
    model_idx: usize,
    x: Matrix,
    slot: Arc<Slot>,
    submitted: Instant,
    deadline: Option<Instant>,
}

// ---------------------------------------------------------------------------
// Bounded admission queue
// ---------------------------------------------------------------------------

struct QueueState {
    queue: VecDeque<Request>,
    closed: bool,
    drain_deadline: Option<Instant>,
}

/// The bounded admission queue between `submit` and the batcher: pushes shed
/// load with typed errors instead of growing without bound, and closing the
/// queue wakes every waiter exactly once.
struct AdmissionQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    max: usize,
}

enum Popped {
    Request(Request),
    TimedOut,
    Closed,
}

impl AdmissionQueue {
    fn new(max: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
                drain_deadline: None,
            }),
            ready: Condvar::new(),
            max,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admits a request, or sheds it: [`SbrlError::Overloaded`] at the
    /// depth limit, [`SbrlError::ServiceStopped`] once closed.
    fn push(&self, request: Request) -> Result<(), SbrlError> {
        let mut state = self.lock();
        if state.closed {
            return Err(SbrlError::ServiceStopped {
                reason: "the service is stopped or draining; admission is closed".into(),
            });
        }
        if state.queue.len() >= self.max {
            return Err(SbrlError::Overloaded { depth: state.queue.len(), limit: self.max });
        }
        state.queue.push_back(request);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next request; `None` once the queue is closed *and*
    /// empty (drain finishes serving what was admitted).
    fn pop_blocking(&self) -> Option<Request> {
        let mut state = self.lock();
        loop {
            if let Some(request) = state.queue.pop_front() {
                return Some(request);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Non-blocking-ish pop used to fill a batch window.
    fn pop_until(&self, deadline: Instant) -> Popped {
        let mut state = self.lock();
        loop {
            if let Some(request) = state.queue.pop_front() {
                return Popped::Request(request);
            }
            if state.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::TimedOut;
            }
            let (guard, _timed_out) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = guard;
        }
    }

    /// Closes admission; queued requests keep draining until empty. With a
    /// drain deadline, the batcher fails (rather than serves) requests once
    /// the budget is spent, bounding shutdown.
    fn close(&self, drain_deadline: Option<Instant>) {
        let mut state = self.lock();
        state.closed = true;
        state.drain_deadline = drain_deadline;
        drop(state);
        self.ready.notify_all();
    }

    /// Closes admission and takes every queued request (the batcher-death
    /// sweep: the caller owes each one a typed outcome).
    fn close_and_take(&self) -> Vec<Request> {
        let mut state = self.lock();
        state.closed = true;
        let leftovers = state.queue.drain(..).collect();
        drop(state);
        self.ready.notify_all();
        leftovers
    }

    fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    fn drain_deadline(&self) -> Option<Instant> {
        self.lock().drain_deadline
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The threaded inference service: a registry of loaded models behind a
/// bounded admission queue and a request-batching loop. See the module docs
/// for the data flow and the degradation contract.
pub struct InferenceService {
    registry: Arc<ModelRegistry>,
    queue: Arc<AdmissionQueue>,
    batcher: Mutex<Option<JoinHandle<()>>>,
    cfg: ServeConfig,
}

impl InferenceService {
    /// Boots the service over a loaded registry. Fails fast on an empty
    /// registry or invalid batcher knobs — a serving process must never
    /// come up unable to answer anything.
    pub fn start(registry: ModelRegistry, cfg: ServeConfig) -> Result<Self, SbrlError> {
        cfg.validate()?;
        if registry.is_empty() {
            return Err(SbrlError::InvalidConfig {
                what: "serve.registry",
                message: "cannot serve an empty model registry".into(),
            });
        }
        let registry = Arc::new(registry);
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_max));
        let loop_registry = Arc::clone(&registry);
        let loop_queue = Arc::clone(&queue);
        // lint: allow(spawn) — the one long-lived batcher thread of the
        // service (started once, joined on drain/Drop); the numeric work
        // itself still runs on the persistent worker pool.
        let batcher = std::thread::spawn(move || batch_loop(&loop_registry, &loop_queue, cfg));
        Ok(Self { registry, queue, batcher: Mutex::new(Some(batcher)), cfg })
    }

    /// The registry this service answers from.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The configured knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Current admission-queue depth (a point-in-time backpressure signal).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The health/readiness snapshot served to orchestration probes.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            ready: !self.queue.is_closed(),
            queue_depth: self.queue.depth(),
            queue_max: self.cfg.queue_max,
            models: self.registry.names(),
        }
    }

    /// Enqueues a prediction request for the named model, validating the
    /// covariate shape up front so a bad request fails in the caller, not
    /// the batcher. Sheds load with [`SbrlError::Overloaded`] at
    /// `queue_max` and refuses with [`SbrlError::ServiceStopped`] once
    /// draining.
    pub fn submit(&self, method: &str, x: Matrix) -> Result<PendingPrediction, SbrlError> {
        let model_idx = self.registry.index_of(method).ok_or_else(|| {
            SbrlError::Persist(PersistError::UnknownModel {
                name: method.to_string(),
                known: self.registry.names(),
            })
        })?;
        let expected = self
            .registry
            .model_at(model_idx)
            .map(|m| m.model().export_config().in_dim())
            .unwrap_or(0);
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
        let slot = Arc::new(Slot::default());
        let submitted = Instant::now();
        let request = Request {
            model_idx,
            x,
            slot: Arc::clone(&slot),
            submitted,
            deadline: self.cfg.deadline.map(|d| submitted + d),
        };
        self.queue.push(request)?;
        Ok(PendingPrediction { slot })
    }

    /// Synchronous convenience: [`submit`](Self::submit) + wait, bounded by
    /// the configured deadline when one is set.
    pub fn predict(&self, method: &str, x: Matrix) -> Result<EffectEstimate, SbrlError> {
        let pending = self.submit(method, x)?;
        match self.cfg.deadline {
            Some(deadline) => pending.wait_deadline(deadline),
            None => pending.wait(),
        }
    }

    /// The worker count batched predictions run with (`0` = global knob).
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Graceful drain: closes admission, lets the batcher fulfil queued
    /// requests until `drain_budget` is spent (the rest are failed with
    /// [`SbrlError::ServiceStopped`]), then joins the batcher. Returns the
    /// queue depth observed when the drain began. Idempotent.
    pub fn drain(&self) -> usize {
        let queued = self.queue.depth();
        self.queue.close(Some(Instant::now() + self.cfg.drain_budget));
        let handle = self.batcher.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        queued
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.drain();
    }
}

// ---------------------------------------------------------------------------
// The batcher
// ---------------------------------------------------------------------------

/// Unwind guard over the whole batcher: whatever ends the loop — a clean
/// drain or a panic — every request still queued is owed a typed outcome.
struct QueueSweeper<'a> {
    queue: &'a AdmissionQueue,
}

impl Drop for QueueSweeper<'_> {
    fn drop(&mut self) {
        for request in self.queue.close_and_take() {
            fulfil(
                &request.slot,
                Err(SbrlError::ServiceStopped {
                    reason: "the batcher stopped with this request still queued".into(),
                }),
            );
        }
    }
}

/// Unwind guard over one dequeued batch: if the batcher panics between
/// dequeue and fulfilment, the waiters of this batch still get a typed
/// outcome (first write wins, so the normal path is unaffected).
struct InFlight {
    slots: Vec<Arc<Slot>>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        for slot in &self.slots {
            fulfil(
                slot,
                Err(SbrlError::ServiceStopped {
                    reason: "the batcher died while this request was in flight".into(),
                }),
            );
        }
    }
}

/// The batcher loop: block for one request, drain more until the window
/// closes or the batch is full, shed expired deadlines, then dispatch
/// grouped by model.
fn batch_loop(registry: &ModelRegistry, queue: &AdmissionQueue, cfg: ServeConfig) {
    let _sweeper = QueueSweeper { queue };
    let mut batch_index: usize = 0;
    while let Some(first) = queue.pop_blocking() {
        let mut batch = vec![first];
        let window_end = Instant::now() + cfg.batch_window;
        while batch.len() < cfg.batch_max {
            match queue.pop_until(window_end) {
                Popped::Request(request) => batch.push(request),
                Popped::TimedOut | Popped::Closed => break,
            }
        }
        let _inflight = InFlight { slots: batch.iter().map(|r| Arc::clone(&r.slot)).collect() };
        faults::batcher_panic(batch_index);
        batch_index += 1;
        // Shed before serving: a request whose deadline passed while queued
        // gets TimedOut now (serving it late helps nobody), and once the
        // drain budget is spent every remaining request is failed fast so
        // shutdown stays bounded.
        let now = Instant::now();
        let drain_spent = queue.drain_deadline().is_some_and(|dl| now >= dl);
        let mut live: Vec<Request> = Vec::with_capacity(batch.len());
        for request in batch {
            if drain_spent {
                fulfil(
                    &request.slot,
                    Err(SbrlError::ServiceStopped {
                        reason: "the drain budget was exhausted before this request was served"
                            .into(),
                    }),
                );
            } else if request.deadline.is_some_and(|dl| now >= dl) {
                fulfil(
                    &request.slot,
                    Err(SbrlError::TimedOut { iteration: 0, elapsed: request.submitted.elapsed() }),
                );
            } else {
                live.push(request);
            }
        }
        // Group by model, preserving arrival order within each group. A Vec
        // scan keeps dispatch order deterministic (and the registry is tiny).
        let mut groups: Vec<(usize, Vec<Request>)> = Vec::new();
        for request in live {
            match groups.iter_mut().find(|(idx, _)| *idx == request.model_idx) {
                Some((_, members)) => members.push(request),
                None => groups.push((request.model_idx, vec![request])),
            }
        }
        for (model_idx, members) in groups {
            dispatch_group(registry, model_idx, members, cfg.workers);
        }
    }
}

/// Serves one model's share of a batch: stack the request rows, predict
/// once, split the rows back out. On a batch-level failure, fall back to
/// per-request prediction so each caller gets its own typed outcome.
fn dispatch_group(
    registry: &ModelRegistry,
    model_idx: usize,
    members: Vec<Request>,
    workers: usize,
) {
    let Some(model) = registry.model_at(model_idx) else {
        // Unreachable: submit validated the index. Fail every slot typed
        // rather than dropping them (a dropped slot would hang its waiter).
        for request in members {
            fulfil(
                &request.slot,
                Err(SbrlError::InvalidConfig {
                    what: "serve.batcher",
                    message: format!("model index {model_idx} vanished from the registry"),
                }),
            );
        }
        return;
    };
    if let [single] = members.as_slice() {
        let outcome = model.try_predict_batched(&single.x, workers);
        fulfil(&single.slot, outcome);
        return;
    }
    let mut stacked: Option<Matrix> = None;
    for request in &members {
        stacked = Some(match stacked {
            Some(acc) => acc.vstack(&request.x),
            None => request.x.clone(),
        });
    }
    let Some(stacked) = stacked else { return };
    match model.try_predict_batched(&stacked, workers) {
        Ok(est) => {
            let mut y0 = est.y0_hat.into_iter();
            let mut y1 = est.y1_hat.into_iter();
            for request in members {
                let rows = request.x.rows();
                let piece = EffectEstimate {
                    y0_hat: y0.by_ref().take(rows).collect(),
                    y1_hat: y1.by_ref().take(rows).collect(),
                };
                fulfil(&request.slot, Ok(piece));
            }
        }
        Err(_) => {
            // A panic inside the stacked batch names a shard, not a request.
            // Re-run each request alone so the poisoned one gets its own
            // typed WorkerPanic and its neighbours still get answers.
            for request in members {
                let outcome = model.try_predict_batched(&request.x, workers);
                fulfil(&request.slot, outcome);
            }
        }
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

    /// Graceful drain: stop accepting, close admission, fulfil or
    /// deadline-fail every queued slot within the drain budget, join every
    /// handler and the batcher. Returns the queue depth when drain began.
    pub fn shutdown(mut self) -> usize {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> usize {
        self.stop.store(true, Ordering::Release);
        let queued = self.service.drain();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = lock_handlers(&self.handlers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        queued
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
        // A frame is arriving: give the exchange a real I/O budget.
        let budget_ok = stream
            .set_read_timeout(Some(HANDLER_IO))
            .and_then(|()| stream.set_write_timeout(Some(HANDLER_IO)))
            .is_ok();
        if !budget_ok {
            return;
        }
        let (reply, keep_alive) = match wire::read_message(&mut stream) {
            Ok(Message::Predict { model, x }) => (serve_predict(service, &model, x), true),
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

/// Serves one decoded Predict frame through the admission queue, bounding
/// the wait by the configured deadline.
fn serve_predict(service: &InferenceService, model: &str, x: Matrix) -> Message {
    let submitted = Instant::now();
    let outcome = match service.submit(model, x) {
        Err(e) => Err(e),
        Ok(pending) => match service.config().deadline {
            Some(deadline) => pending.wait_deadline(deadline.saturating_sub(submitted.elapsed())),
            None => pending.wait(),
        },
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
    use crate::persist::fixture;

    fn service_registry() -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        registry.insert(fixture::train_golden().expect("fixture fit")).expect("insert");
        registry
    }

    fn service() -> InferenceService {
        InferenceService::start(service_registry(), ServeConfig::default()).expect("start")
    }

    fn dummy_request() -> Request {
        Request {
            model_idx: 0,
            x: Matrix::zeros(1, 1),
            slot: Arc::new(Slot::default()),
            submitted: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn served_predictions_match_direct_predictions_bitwise() {
        let svc = service();
        let name = svc.registry().names().remove(0);
        let dim = fixture::dataset().0.dim();
        let probe = fixture::probe_matrix(dim);
        let direct = svc.registry().require(&name).expect("model").predict(&probe);
        let served = svc.predict(&name, probe).expect("served");
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
            ServeConfig { batch_max: 0, ..ServeConfig::default() },
        );
        assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "serve.batch_max", .. })));
        let err = InferenceService::start(
            ModelRegistry::new(),
            ServeConfig { queue_max: 0, ..ServeConfig::default() },
        );
        assert!(matches!(err, Err(SbrlError::InvalidConfig { what: "serve.queue_max", .. })));
    }

    #[test]
    fn full_queue_sheds_with_typed_overloaded() {
        let queue = AdmissionQueue::new(2);
        queue.push(dummy_request()).expect("first fits");
        queue.push(dummy_request()).expect("second fits");
        let err = queue.push(dummy_request()).unwrap_err();
        assert!(matches!(err, SbrlError::Overloaded { depth: 2, limit: 2 }));
        queue.close(None);
        let err = queue.push(dummy_request()).unwrap_err();
        assert!(matches!(err, SbrlError::ServiceStopped { .. }));
    }

    #[test]
    fn wait_deadline_times_out_on_an_unfulfilled_slot() {
        let pending = PendingPrediction { slot: Arc::new(Slot::default()) };
        let started = Instant::now();
        let err = pending.wait_deadline(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, SbrlError::TimedOut { iteration: 0, .. }));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn fulfilment_is_first_write_wins() {
        let slot = Slot::default();
        fulfil(&slot, Err(SbrlError::WorkerPanic { task: 1 }));
        fulfil(&slot, Ok(EffectEstimate::default()));
        let outcome = lock_state(&slot).take().expect("fulfilled");
        assert!(matches!(outcome, Err(SbrlError::WorkerPanic { task: 1 })));
    }

    #[test]
    fn batcher_death_sweep_fulfils_queued_slots() {
        let queue = AdmissionQueue::new(8);
        let request = dummy_request();
        let slot = Arc::clone(&request.slot);
        queue.push(request).expect("queued");
        {
            let _sweeper = QueueSweeper { queue: &queue };
        }
        let outcome = lock_state(&slot).take().expect("swept slot must be fulfilled");
        assert!(matches!(outcome, Err(SbrlError::ServiceStopped { .. })));
        assert!(queue.is_closed());
    }

    #[test]
    fn drain_closes_admission_and_answers_queued_requests() {
        let svc = service();
        let name = svc.registry().names().remove(0);
        let dim = fixture::dataset().0.dim();
        let pending = svc.submit(&name, fixture::probe_matrix(dim)).expect("submitted");
        svc.drain();
        // The queued request was fulfilled (served or typed), never hung.
        let outcome = pending.wait_deadline(Duration::from_secs(5));
        match outcome {
            Ok(_) | Err(SbrlError::ServiceStopped { .. }) => {}
            other => panic!("drain left a bad outcome: {other:?}"),
        }
        let err = svc.submit(&name, fixture::probe_matrix(dim)).unwrap_err();
        assert!(matches!(err, SbrlError::ServiceStopped { .. }));
        let health = svc.health();
        assert!(!health.ready);
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
