//! Persistent worker pool behind every parallel region in the workspace.
//!
//! The regions are coarse tasks sized by the
//! [`Parallelism`](crate::kernels::Parallelism) knob: the fits and the
//! per-environment scoring of a synthetic sweep's replications and the
//! weight phase's decorrelation terms (both through [`run_coarse_tasks`]), the row shards of synthetic generation
//! ([`par_for_row_chunks`](crate::kernels::par_for_row_chunks)) and of
//! `predict_batched` (through [`run_tasks_catching`]). The GEMM,
//! elementwise and statistics kernels never submit work here; they run on
//! their caller's thread. Instead of a `std::thread::scope` spawn + join per
//! worker per call, the pool keeps **lazily spawned, persistent** worker
//! threads fed by a chunked work queue:
//!
//! * Threads are spawned on first demand, never torn down, and counted by
//!   [`threads_spawned`] — the thread-spawn probe in `sbrl-bench` asserts a
//!   warmed-up training loop spawns **zero** new threads per step.
//! * A parallel call publishes one `Job`: a lifetime-erased task body plus
//!   an atomic chunk cursor. Workers (and the submitting thread itself)
//!   *claim* chunk indices with `fetch_add` and run them; the submitter
//!   blocks until every chunk is done, which is what makes the borrow
//!   erasure sound.
//! * Which thread runs which chunk is scheduling-dependent, but every chunk
//!   writes disjoint output and is computed exactly once, so results are
//!   identical to a serial left-to-right pass — the pool never changes a
//!   floating-point chain.
//! * A claim loop never blocks on another job: if every pool thread is busy
//!   (including the nested-parallelism case of a parallel region entered
//!   from inside a pool worker), the submitter simply runs all of its own
//!   chunks inline. Deadlock is impossible by construction.
//!
//! Panics inside task bodies are contained per chunk either way: the
//! training-facing [`run_tasks`] re-raises them on the submitting thread,
//! while the serving-facing [`run_tasks_catching`] converts them into the
//! typed [`TaskPanicked`] error so a poisoned request cannot take down a
//! server loop. With the `fault-inject` cargo feature the `fault` module
//! adds deterministic panic/stall hooks to the catching path (and only
//! there); without the feature no hook code is compiled at all.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool threads; requests beyond it share chunks among the
/// existing workers (results are unaffected — only scheduling changes).
const MAX_POOL_THREADS: usize = 64;

/// Sentinel for "no task panicked" in [`Job::first_panic`].
const NO_PANIC: usize = usize::MAX;

/// Typed error from [`run_tasks_catching`]: at least one task body
/// panicked. The panic was contained to its chunk — every other chunk
/// still ran exactly once and the pool remains fully usable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Lowest chunk index whose task body panicked.
    pub task: usize,
}

impl fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker-pool task {} panicked", self.task)
    }
}

impl std::error::Error for TaskPanicked {}

/// One published parallel call: a lifetime-erased task body plus the chunk
/// cursor and completion state.
struct Job {
    /// Erased `&'call (dyn Fn(usize) + Sync)`. Valid for the whole job
    /// lifetime because the submitter blocks in [`run_parallel`] until
    /// `done == total`, and no thread touches `f` after its final chunk.
    f: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Total number of chunks.
    total: usize,
    /// Chunks fully executed.
    done: AtomicUsize,
    /// Lowest chunk index that panicked ([`NO_PANIC`] when none did);
    /// `fetch_min` keeps the report deterministic under any scheduling.
    first_panic: AtomicUsize,
    /// Completion latch the submitter parks on.
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

// SAFETY: `f` points at a `Sync` closure that outlives the job (the
// submitter blocks until all chunks complete), so sharing the raw pointer
// across threads is sound.
unsafe impl Send for Job {}
// SAFETY: as for `Send` — the erased closure is `Sync` and outlives the job,
// so shared references to it may cross threads.
unsafe impl Sync for Job {}

/// Pool shared state: pending jobs plus the spawned-thread count.
struct PoolState {
    queue: VecDeque<Arc<Job>>,
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs a task of [`run_coarse_tasks`]; parallel
    /// calls made meanwhile run inline.
    static IN_COARSE_TASK: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
thread_local! {
    /// Pool threads spawned by calls made on this thread. Unit tests run
    /// concurrently and share the pool, so spawn assertions read this
    /// per-thread count rather than the process-wide one.
    static SPAWNED_BY_THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Whether parallel calls on this thread must stay inline.
fn inline_here(total: usize, workers: usize) -> bool {
    workers <= 1 || total == 1 || IN_COARSE_TASK.with(Cell::get)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), spawned: 0 }),
        work_cv: Condvar::new(),
    })
}

/// Total worker threads ever spawned by the pool (monotonic). The
/// thread-spawn probe asserts this stays flat across warmed-up training
/// steps.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Number of persistent worker threads currently alive in the pool.
pub fn pool_size() -> usize {
    pool().state.lock().unwrap_or_else(|e| e.into_inner()).spawned
}

/// Grows the pool to at least `want` persistent threads (capped at
/// [`MAX_POOL_THREADS`]); returns without spawning when already large
/// enough — the steady-state path.
fn ensure_threads(want: usize) {
    let want = want.min(MAX_POOL_THREADS);
    // Cheap steady-state exit without contending the lock for long: the
    // count only grows, so a stale low read just re-checks under the lock.
    let mut state = pool().state.lock().unwrap_or_else(|e| e.into_inner());
    while state.spawned < want {
        std::thread::Builder::new()
            .name(format!("sbrl-worker-{}", state.spawned))
            .spawn(worker_loop)
            // lint: allow(panic) — OS refusing a thread at pool warm-up is
            // unrecoverable resource exhaustion; no caller can do better.
            .expect("spawning a pool worker thread");
        THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        SPAWNED_BY_THIS_THREAD.with(|c| c.set(c.get() + 1));
        state.spawned += 1;
    }
}

/// Claims and executes chunks of `job` until the cursor is exhausted.
fn execute_claims(job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return;
        }
        // SAFETY: the submitter keeps the closure alive until `done == total`
        // and this chunk has not yet been counted as done.
        let f = unsafe { &*job.f };
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            job.first_panic.fetch_min(i, Ordering::Relaxed);
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.total {
            let mut fin = job.finished.lock().unwrap_or_else(|e| e.into_inner());
            *fin = true;
            job.finished_cv.notify_all();
        }
    }
}

fn worker_loop() {
    let pool = pool();
    loop {
        let job: Arc<Job> = {
            let mut state = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // Retire jobs whose cursor is exhausted (their remaining
                // chunks are in flight elsewhere; nothing left to claim).
                while let Some(front) = state.queue.front() {
                    if front.next.load(Ordering::Relaxed) >= front.total {
                        state.queue.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(front) = state.queue.front() {
                    break front.clone();
                }
                state = pool.work_cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        execute_claims(&job);
    }
}

/// Shared parallel engine behind [`run_tasks`] and [`run_tasks_catching`]:
/// publishes one job, participates in the claim loop, parks on the latch,
/// and reports the lowest panicking chunk as a typed error.
fn run_parallel(
    total: usize,
    workers: usize,
    f: &(dyn Fn(usize) + Sync),
) -> Result<(), TaskPanicked> {
    ensure_threads(workers.saturating_sub(1));

    // Erase the borrow lifetime: sound because this function does not return
    // until `done == total` (see the latch below).
    // SAFETY: transmutes only the (unexpressed) lifetime of the trait-object
    // pointer; layout is identical.
    let f_erased: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
    let job = Arc::new(Job {
        f: f_erased,
        next: AtomicUsize::new(0),
        total,
        done: AtomicUsize::new(0),
        first_panic: AtomicUsize::new(NO_PANIC),
        finished: Mutex::new(false),
        finished_cv: Condvar::new(),
    });

    {
        let mut state = pool().state.lock().unwrap_or_else(|e| e.into_inner());
        state.queue.push_back(job.clone());
    }
    pool().work_cv.notify_all();

    // The submitter is a full participant: it claims chunks like any worker,
    // which also guarantees forward progress when the pool is saturated or
    // when this call is nested inside a pool worker.
    execute_claims(&job);

    // Park until the in-flight chunks of other workers complete.
    {
        let mut fin = job.finished.lock().unwrap_or_else(|e| e.into_inner());
        while !*fin {
            fin = job.finished_cv.wait(fin).unwrap_or_else(|e| e.into_inner());
        }
    }
    match job.first_panic.load(Ordering::Relaxed) {
        NO_PANIC => Ok(()),
        task => Err(TaskPanicked { task }),
    }
}

/// Runs `f(0)`, `f(1)`, …, `f(total - 1)` exactly once each across the
/// persistent pool plus the calling thread, blocking until every call
/// completes. `workers <= 1` (or `total <= 1`) runs everything inline on
/// the calling thread and never touches the pool — the
/// [`Parallelism::Serial`](crate::kernels::Parallelism) guarantee. So does
/// any call made inside a [`run_coarse_tasks`] task.
///
/// Chunks are claimed dynamically, so thread assignment is
/// scheduling-dependent; callers must make each `f(i)` independent (write
/// disjoint output), which is exactly the contract of the sharding helpers
/// in [`crate::kernels`].
///
/// # Panics
/// Re-raises (as a panic on the calling thread) if any `f(i)` panicked.
/// Callers that need a recoverable result use [`run_tasks_catching`].
pub fn run_tasks(total: usize, workers: usize, f: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    if inline_here(total, workers) {
        // Inline path: no unwind machinery between the caller and `f`.
        for i in 0..total {
            f(i);
        }
        return;
    }
    if let Err(e) = run_parallel(total, workers, f) {
        // lint: allow(panic) — documented re-raise (see `# Panics`); callers
        // needing a recoverable result use `run_tasks_catching`.
        panic!("a worker-pool task panicked (task {})", e.task);
    }
}

/// [`run_tasks`] for coarse tasks that each keep their thread busy for a
/// long stretch, such as a sweep replication's fits. Every parallel
/// call made inside a task runs inline on the task's thread: its siblings
/// occupy the other workers, so a nested job would find no thread to help
/// it and would only take the shared queue lock on every nested call,
/// where one task can stall behind a sibling whose CPU was preempted while
/// holding it. The tasks thereby run independently of each other.
/// `workers <= 1` (or `total <= 1`) is plain [`run_tasks`]: the tasks run
/// one after another and their nested parallel calls keep the pool.
///
/// # Panics
/// As [`run_tasks`].
pub fn run_coarse_tasks(total: usize, workers: usize, f: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 || total <= 1 {
        return run_tasks(total, workers, f);
    }
    /// Restores the flag even when the task panics.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_COARSE_TASK.with(|c| c.set(self.0));
        }
    }
    run_tasks(total, workers, &|i| {
        let _restore = Restore(IN_COARSE_TASK.with(|c| c.replace(true)));
        f(i);
    });
}

/// Like [`run_tasks`], but converts task panics into the typed
/// [`TaskPanicked`] error instead of re-raising them: every chunk still
/// runs exactly once (a panic never cancels the remaining chunks), the
/// pool remains usable, and the lowest panicking chunk index is reported
/// deterministically. This is the serving-path entry point —
/// `FittedModel::try_predict_batched` routes through it so one poisoned
/// shard degrades to an error instead of unwinding through a server loop.
///
/// With the `fault-inject` cargo feature, each task body additionally
/// runs the `fault` hooks (armed panics / stalls) before executing;
/// without the feature this function compiles to the plain catching loop.
pub fn run_tasks_catching(
    total: usize,
    workers: usize,
    f: &(dyn Fn(usize) + Sync),
) -> Result<(), TaskPanicked> {
    if total == 0 {
        return Ok(());
    }
    #[cfg(feature = "fault-inject")]
    let hooked = move |i: usize| {
        fault::on_task(i);
        f(i);
    };
    #[cfg(feature = "fault-inject")]
    let f: &(dyn Fn(usize) + Sync) = &hooked;
    if inline_here(total, workers) {
        let mut first_panic = None;
        for i in 0..total {
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() && first_panic.is_none() {
                first_panic = Some(i);
            }
        }
        return match first_panic {
            None => Ok(()),
            Some(task) => Err(TaskPanicked { task }),
        };
    }
    run_parallel(total, workers, f)
}

/// Deterministic fault hooks for the catching path (compiled only with the
/// `fault-inject` cargo feature; production builds carry none of this).
///
/// Faults are armed by *chunk index*, fire **one-shot** (the first matching
/// task disarms the fault as it fires), and are observed only by
/// [`run_tasks_catching`] — the training path through [`run_tasks`] is
/// never instrumented. Arming by chunk index (rather than arrival order)
/// is what makes injection deterministic: each chunk index runs exactly
/// once regardless of which pool thread claims it.
#[cfg(feature = "fault-inject")]
pub mod fault {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    const UNARMED: usize = usize::MAX;
    static PANIC_AT: AtomicUsize = AtomicUsize::new(UNARMED);
    static STALL_AT: AtomicUsize = AtomicUsize::new(UNARMED);
    static STALL_MS: AtomicU64 = AtomicU64::new(0);

    /// Arms a one-shot panic in the next catching-path task with chunk
    /// index `index`.
    pub fn arm_panic_task(index: usize) {
        PANIC_AT.store(index, Ordering::SeqCst);
    }

    /// Arms a one-shot stall of `millis` milliseconds in the next
    /// catching-path task with chunk index `index`.
    pub fn arm_stall_task(index: usize, millis: u64) {
        STALL_MS.store(millis, Ordering::SeqCst);
        STALL_AT.store(index, Ordering::SeqCst);
    }

    /// Disarms every armed pool fault.
    pub fn disarm() {
        PANIC_AT.store(UNARMED, Ordering::SeqCst);
        STALL_AT.store(UNARMED, Ordering::SeqCst);
    }

    /// Fires any fault armed for chunk `index` (called at the top of every
    /// catching-path task body). The compare-exchange makes each armed
    /// fault fire exactly once even when chunks run concurrently.
    pub(super) fn on_task(index: usize) {
        if STALL_AT.compare_exchange(index, UNARMED, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            std::thread::sleep(std::time::Duration::from_millis(STALL_MS.load(Ordering::SeqCst)));
        }
        if PANIC_AT.compare_exchange(index, UNARMED, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            // lint: allow(panic) — the injected fault IS a deliberate panic;
            // the catching path converts it into `TaskPanicked`.
            panic!("injected fault: pool task {index} panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_task_exactly_once() {
        for (total, workers) in [(1usize, 4usize), (7, 2), (64, 4), (100, 3), (5, 100)] {
            let hits: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
            run_tasks(total, workers, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} ({total}/{workers})");
            }
        }
    }

    #[test]
    fn serial_requests_never_touch_the_pool() {
        let caller = std::thread::current().id();
        let before = SPAWNED_BY_THIS_THREAD.with(Cell::get);
        let on_caller = AtomicU32::new(0);
        run_tasks(16, 1, &|_| {
            if std::thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(on_caller.load(Ordering::Relaxed), 16, "workers <= 1 must stay inline");
        assert_eq!(SPAWNED_BY_THIS_THREAD.with(Cell::get), before, "workers <= 1 must not spawn");
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        // Warm the pool, then verify repeated parallel calls spawn nothing.
        // Other tests grow the shared pool concurrently, so only spawns
        // made by this thread's own calls are counted.
        run_tasks(8, 4, &|_| {});
        let warmed = SPAWNED_BY_THIS_THREAD.with(Cell::get);
        for _ in 0..50 {
            run_tasks(8, 4, &|_| {});
        }
        assert_eq!(
            SPAWNED_BY_THIS_THREAD.with(Cell::get),
            warmed,
            "steady-state calls must not spawn"
        );
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // A task that itself submits a parallel call must not deadlock: the
        // inner submitter claims its own chunks when no worker is free.
        let outer_hits = AtomicU32::new(0);
        let inner_hits = AtomicU32::new(0);
        run_tasks(4, 4, &|_| {
            outer_hits.fetch_add(1, Ordering::Relaxed);
            run_tasks(4, 4, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer_hits.load(Ordering::Relaxed), 4);
        assert_eq!(inner_hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn coarse_tasks_run_their_nested_calls_inline() {
        run_tasks(2, 2, &|_| {}); // warm the pool
        let threads: Vec<Mutex<Vec<std::thread::ThreadId>>> =
            (0..4).map(|_| Mutex::new(Vec::new())).collect();
        run_coarse_tasks(4, 2, &|i| {
            run_tasks(8, 2, &|_| {
                threads[i].lock().unwrap().push(std::thread::current().id());
            });
        });
        for (i, ids) in threads.iter().enumerate() {
            let ids = ids.lock().unwrap();
            assert_eq!(ids.len(), 8, "task {i}");
            assert!(ids.iter().all(|id| *id == ids[0]), "task {i} left its thread");
        }
        // The flag ends with the task: this thread's calls may use the pool.
        assert!(!IN_COARSE_TASK.with(Cell::get));
    }

    #[test]
    fn task_panics_propagate_to_the_submitter() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(8, 4, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "submitter must re-raise worker panics");
        // The pool stays usable afterwards.
        let counter = AtomicU32::new(0);
        run_tasks(8, 4, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn catching_reports_the_lowest_panicking_task() {
        for workers in [1usize, 4] {
            let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
            let err = run_tasks_catching(8, workers, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i == 2 || i == 5 {
                    panic!("boom {i}");
                }
            })
            .unwrap_err();
            assert_eq!(err, TaskPanicked { task: 2 }, "workers = {workers}");
            // A panic never cancels the remaining chunks.
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} (workers {workers})");
            }
        }
    }

    #[test]
    fn catching_succeeds_and_display_names_the_task() {
        let counter = AtomicU32::new(0);
        run_tasks_catching(6, 3, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .expect("no task panicked");
        assert_eq!(counter.load(Ordering::Relaxed), 6);
        assert!(TaskPanicked { task: 4 }.to_string().contains("task 4"));
    }

    #[cfg(feature = "fault-inject")]
    mod fault_injection {
        use super::*;
        use std::sync::Mutex;

        /// Serializes the gated tests: the fault hooks are process globals.
        static FAULT_LOCK: Mutex<()> = Mutex::new(());

        #[test]
        fn armed_panic_fires_once_and_is_typed() {
            let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            fault::arm_panic_task(1);
            let err = run_tasks_catching(4, 2, &|_| {}).unwrap_err();
            assert_eq!(err, TaskPanicked { task: 1 });
            // One-shot: the very next call is clean without disarming.
            run_tasks_catching(4, 2, &|_| {}).expect("fault already fired");
        }

        #[test]
        fn armed_stall_delays_but_completes() {
            let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            fault::arm_stall_task(0, 30);
            let started = std::time::Instant::now();
            run_tasks_catching(2, 1, &|_| {}).expect("a stall is not a failure");
            assert!(started.elapsed() >= std::time::Duration::from_millis(30));
            fault::disarm();
        }

        #[test]
        fn disarm_clears_armed_faults() {
            let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            fault::arm_panic_task(0);
            fault::disarm();
            run_tasks_catching(3, 2, &|_| {}).expect("disarmed faults must not fire");
        }
    }
}
