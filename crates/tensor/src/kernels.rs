//! Cache-blocked dense kernels — the single hot path every matrix product in
//! the workspace funnels through.
//!
//! Every SBRL-HAP training step bottoms out in dense GEMMs (layer forwards,
//! the autodiff tape's `MatMul` backward pair) and O(n²) kernel statistics.
//! This module owns that hot path:
//!
//! * [`Parallelism`] — the workspace-wide threading knob. One global value
//!   (env-driven via `SBRL_THREADS`, default = available cores) sizes the
//!   coarse parallel tasks: a sweep's fits and environment scoring, the
//!   weight phase's decorrelation terms, synthetic-generation shards and
//!   `predict_batched`'s row shards. The kernels themselves run on the
//!   calling thread, so every setting produces the same bits.
//! * [`NumericsMode`] — the workspace-wide floating-point contract knob
//!   (env-driven via `SBRL_NUMERICS`, default [`NumericsMode::BitExact`];
//!   [`NumericsMode::scoped`], the only programmatic override, pins a tier
//!   for one thread and the pool tasks it submits). Every kernel entry
//!   point reads the tier once. `BitExact` preserves every historical
//!   accumulation chain; [`NumericsMode::Fast`] means one thing, FMA
//!   contraction in the GEMM kernels, trading bit-reproducibility
//!   against the historical chains for throughput while staying within the
//!   documented relative-error bounds (enforced by `tests/numerics_mode.rs`).
//!   Of the numerical code, only the GEMM dispatch reads the tier.
//! * [`gemm_into`], [`gemm_nt_into`], [`gemm_tn_into`] — cache-blocked
//!   matrix products into a caller-provided buffer (tiled over the inner
//!   dimension and output columns); `Matrix::matmul{,_nt,_tn}` allocate the
//!   buffer and call them. In `BitExact` each output element is accumulated
//!   in the same floating-point order as the historical unblocked loop,
//!   whatever the blocking or the instruction set.
//! * [`shard_ranges`], [`par_for_row_chunks`] — the sharding primitives of
//!   the coarse tasks (synthetic generation in `sbrl-data`, batched
//!   inference in `sbrl-core`). They execute on the persistent worker pool
//!   in [`crate::workers`].
//!
//! # GEMM dispatch
//!
//! Each product runs on the widest clone the CPU supports, detected once at
//! run time, so binaries stay portable to baseline x86-64:
//!
//! | CPU | `n >= 2`, all layouts | `n = 1`, nn/nt | `n = 1`, tn |
//! |---|---|---|---|
//! | AVX-512F | register-tiled micro-kernel | 8 x 8 transposed blocks | interleaved rows |
//! | AVX2 (FMA clone for `Fast`) | row kernel | interleaved rows | interleaved rows |
//! | other | portable row kernel | interleaved rows | interleaved rows |
//!
//! * The **micro-kernel** holds a tile of 4 output rows by up to 32 columns
//!   in zmm registers for one `KC`-deep slab of the inner dimension, reading
//!   `B` (or `B^T`) from a 32 KiB stack panel packed as 32-column strips.
//! * The **row kernel** sweeps whole output rows, two at a time and four `k`
//!   steps per sweep; the AVX2 and portable clones compile the same code.
//! * The **`n = 1` kernels** have no output columns to widen over, so they
//!   run eight rows' chains side by side: the AVX-512 nn/nt one transposes
//!   8 x 8 blocks of `A` in registers so each `k` step is one column vector;
//!   the others read the eight rows' entries one by one.
//!
//! Every kernel keeps every element's own chain: it starts at `+0.0` and takes
//! `acc + a * b` (`mul_add` in the `Fast` tier on FMA hardware) in ascending
//! `k`. nn/tn skip an exact-zero `a`, so `0 * inf` never joins a chain; nt has
//! no skip, so it stays NaN. A tile or a row pair only changes which chains
//! advance side by side and where an accumulator is kept between steps (a
//! register, or `out` between slabs; storing an `f64` is exact). The AVX-512
//! kernels start their chains in registers, so only the row kernels and an
//! empty inner dimension clear `out` first. The AVX-512 skip is a lane mask
//! rather than a branch, which keeps the accumulator where the scalar loop
//! skips the add. So the clones of a tier agree bit for bit, and nothing above
//! the three entry points can tell which one ran.
//!
//! # Example
//!
//! ```
//! use sbrl_tensor::kernels::NumericsMode;
//! use sbrl_tensor::Matrix;
//!
//! let a = Matrix::from_fn(64, 32, |i, j| (i + j) as f64);
//! let b = Matrix::from_fn(32, 48, |i, j| (i as f64 - j as f64) * 0.5);
//! let c = NumericsMode::BitExact.scoped(|| a.matmul(&b));
//! // BitExact accumulates each element from +0.0 in ascending `k`, like the
//! // textbook triple loop, whatever the cache blocking.
//! let want = (0..32).fold(0.0, |s, k| s + a[(5, k)] * b[(k, 7)]);
//! assert_eq!(c[(5, 7)].to_bits(), want.to_bits());
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::matrix::Matrix;

/// Inner-dimension slab width for the blocked GEMM: one `KC x NC` panel of
/// the right-hand operand stays resident in **L1** while a row block streams
/// past it (32 x 128 doubles = 32 KiB; the panel previously spilled to L2,
/// which bounded the kernel at roughly half its measured throughput).
const KC: usize = 32;
/// Output-column tile width for the blocked GEMM.
const NC: usize = 128;

/// How many worker threads the coarse parallel tasks may use.
///
/// The workspace has exactly one threading knob: a process-global `Parallelism`
/// value that sizes the coarse tasks on the persistent worker pool — the fits
/// and environment scoring of a synthetic sweep, the weight phase's
/// decorrelation terms, the row shards of synthetic generation and of
/// `predict_batched` in `sbrl-core`. The GEMM, elementwise and statistics
/// kernels take no `Parallelism`: they run on the calling thread. It resolves,
/// in order:
///
/// 1. an explicit [`Parallelism::set_global`] call;
/// 2. the `SBRL_THREADS` environment variable (`1` = serial, `n` = that many
///    workers, `0`/unset/invalid = all available cores);
/// 3. [`std::thread::available_parallelism`].
///
/// Parallel execution only splits *independent* work (separate fits and test
/// environments, separate regularizer terms, disjoint output rows) and never
/// reorders a floating-point reduction, so every setting produces bit-identical
/// numbers; the knob trades wall-clock only. [`Parallelism::Serial`]
/// additionally guarantees no worker thread is ever spawned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded: run every task on the calling thread.
    Serial,
    /// Run tasks on up to this many threads: the calling thread plus
    /// persistent pool workers (values are clamped to at least 1;
    /// `Threads(1)` behaves like `Serial`).
    Threads(usize),
}

/// Global knob storage: 0 = unresolved, otherwise `workers + 1` (so an
/// explicit one-worker setting is distinguishable from "unset").
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

impl Parallelism {
    /// One worker per available hardware thread (at least one).
    pub fn auto() -> Self {
        Parallelism::Threads(available_cores())
    }

    /// Resolves the knob from the `SBRL_THREADS` environment variable:
    /// `1` = [`Parallelism::Serial`], `n >= 2` = that many workers,
    /// `0`/unset/unparsable = [`Parallelism::auto`].
    pub fn from_env() -> Self {
        match std::env::var("SBRL_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(1) => Parallelism::Serial,
            Some(n) if n >= 2 => Parallelism::Threads(n),
            _ => Parallelism::auto(),
        }
    }

    /// The number of worker threads this setting allows (always >= 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }

    /// Installs `self` as the process-global knob read by every coarse
    /// parallel task.
    pub fn set_global(self) {
        GLOBAL_WORKERS.store(self.workers() + 1, Ordering::Relaxed);
    }

    /// The process-global knob. The first read resolves
    /// [`Parallelism::from_env`] and caches it; later
    /// [`Parallelism::set_global`] calls override it.
    pub fn global() -> Self {
        let stored = GLOBAL_WORKERS.load(Ordering::Relaxed);
        let workers = if stored == 0 {
            let resolved = Parallelism::from_env().workers();
            // A concurrent initialiser may race us; both compute the same
            // env-derived value, so a plain store is fine.
            GLOBAL_WORKERS.store(resolved + 1, Ordering::Relaxed);
            resolved
        } else {
            stored - 1
        };
        if workers <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(workers)
        }
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Floating-point contract of the numerical kernels.
///
/// The workspace's second knob, next to [`Parallelism`]. It resolves, in
/// order:
///
/// 1. a tier pinned on the calling thread by [`NumericsMode::scoped`] (pool
///    tasks inherit their submitter's pin) — the only programmatic way to
///    choose a tier;
/// 2. the `SBRL_NUMERICS` environment variable, read once on the first
///    [`NumericsMode::global`] call (`fast`, case-insensitive, selects
///    [`NumericsMode::Fast`]; anything else is `BitExact`);
/// 3. the default, [`NumericsMode::BitExact`].
///
/// `BitExact` is the historical contract: no FMA contraction, no reduction
/// reordering, output bit-identical to the pre-kernel-layer code at every
/// `Parallelism` setting. `Fast` relaxes exactly one thing: the GEMM
/// kernels contract each `mul + add` into a hardware FMA (where the CPU has
/// it), in exchange for higher throughput. Every other fold, the plain
/// statistics' included, is the same in both tiers. Fast results stay
/// within the relative-error bounds documented in `docs/PERFORMANCE.md`
/// ("Numerics tiers") and are **deterministic on a given machine**: each
/// output element is a fixed `mul_add` chain in ascending `k`, whatever the
/// thread count or scheduling, so any `SBRL_THREADS` reproduces Fast output
/// bit for bit run-to-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NumericsMode {
    /// Historical bit-exact arithmetic: every accumulation chain unchanged.
    #[default]
    BitExact,
    /// FMA contraction in the GEMM kernels.
    Fast,
}

/// The process-wide tier, resolved from `SBRL_NUMERICS` on first use.
static ENV_NUMERICS: OnceLock<NumericsMode> = OnceLock::new();

thread_local! {
    /// The tier pinned on this thread by [`NumericsMode::scoped`], as its
    /// storage code (0 = none, 1 = bit-exact, 2 = fast).
    static SCOPED_NUMERICS: Cell<usize> = const { Cell::new(0) };
}

/// The tier code pinned on the calling thread (0 = none). The worker pool
/// hands it to the tasks a pinned thread submits.
pub(crate) fn scoped_numerics() -> usize {
    SCOPED_NUMERICS.with(Cell::get)
}

/// Runs `f` with the calling thread's pinned tier code set to `code`,
/// restoring the previous code afterwards, also when `f` panics.
pub(crate) fn with_scoped_numerics<R>(code: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the previous code on drop.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_NUMERICS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_NUMERICS.with(|c| c.replace(code)));
    f()
}

impl NumericsMode {
    /// Resolves the knob from the `SBRL_NUMERICS` environment variable:
    /// `fast` (case-insensitive) = [`NumericsMode::Fast`], anything
    /// else/unset = [`NumericsMode::BitExact`].
    fn from_env() -> Self {
        match std::env::var("SBRL_NUMERICS") {
            Ok(v) if v.trim().eq_ignore_ascii_case("fast") => NumericsMode::Fast,
            _ => NumericsMode::BitExact,
        }
    }

    /// True for [`NumericsMode::Fast`].
    pub fn is_fast(self) -> bool {
        matches!(self, NumericsMode::Fast)
    }

    /// The knob's canonical spelling (`"bitexact"` / `"fast"`), as accepted
    /// by `SBRL_NUMERICS` and recorded in `FittedModel` provenance.
    pub fn as_str(self) -> &'static str {
        match self {
            NumericsMode::BitExact => "bitexact",
            NumericsMode::Fast => "fast",
        }
    }

    /// The knob's storage code (1 = bit-exact, 2 = fast).
    fn code(self) -> usize {
        match self {
            NumericsMode::BitExact => 1,
            NumericsMode::Fast => 2,
        }
    }

    /// Runs `f` with `self` pinned as the tier of the calling thread and of
    /// every pool task it submits (a sweep's fits and scoring, decorrelation
    /// terms, row shards), whatever `SBRL_NUMERICS` says; other threads are
    /// unaffected. The previous pin is restored when `f` returns or panics. A
    /// fit that must not depend on `SBRL_NUMERICS` (the golden fixtures), a
    /// differential test or a bench case runs its work inside such a scope.
    pub fn scoped<R>(self, f: impl FnOnce() -> R) -> R {
        with_scoped_numerics(self.code(), f)
    }

    /// The tier in force on the calling thread: the one pinned by an
    /// enclosing [`NumericsMode::scoped`], otherwise the process-wide tier,
    /// which the first call resolves from `SBRL_NUMERICS` and caches.
    pub fn global() -> Self {
        match scoped_numerics() {
            1 => NumericsMode::BitExact,
            2 => NumericsMode::Fast,
            _ => *ENV_NUMERICS.get_or_init(NumericsMode::from_env),
        }
    }
}

impl std::fmt::Display for NumericsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Splits `0..n` into at most `workers` contiguous, non-empty ranges.
pub fn shard_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let chunk = n.div_ceil(workers);
    (0..workers)
        .map(|w| ((w * chunk).min(n), ((w + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Sendable raw-pointer wrapper used to hand **disjoint** regions of one
/// output buffer to pool tasks; [`par_for_row_chunks`] derives the regions
/// from [`shard_ranges`], which guarantees disjointness.
struct SendPtr<T>(*mut T);
// SAFETY: the wrapper is only used to pass pointers into pool tasks that
// write non-overlapping regions while the submitter keeps the underlying
// buffer mutably borrowed until every task completes.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send` — tasks only dereference into disjoint regions, so
// shared references to the wrapper are harmless across threads.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method (rather than direct field access) so closures capture
    /// the `Sync` wrapper, not the raw pointer field — edition-2021 disjoint
    /// capture would otherwise grab the non-`Sync` `*mut T` itself.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `f(row_lo, row_hi, chunk)` over disjoint row blocks of the
/// `rows x cols` row-major buffer `out`, sharded across up to `workers`
/// threads of the persistent pool in [`crate::workers`] (`workers <= 1`
/// runs inline on the calling thread and never touches the pool).
///
/// Each invocation owns the sub-slice for rows `row_lo..row_hi`; rows are
/// never shared, so any per-row computation is race-free and bit-identical
/// to a serial left-to-right pass regardless of which pool thread runs
/// which block.
pub fn par_for_row_chunks<F>(out: &mut [f64], rows: usize, cols: usize, workers: usize, f: F)
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(out.len(), rows * cols, "par_for_row_chunks: buffer/shape mismatch");
    let workers = workers.clamp(1, rows.max(1));
    if workers <= 1 {
        f(0, rows, out);
        return;
    }
    let ranges = shard_ranges(rows, workers);
    let base = SendPtr(out.as_mut_ptr());
    crate::workers::run_tasks(ranges.len(), workers, &|t| {
        let (lo, hi) = ranges[t];
        // SAFETY: `shard_ranges` yields disjoint `lo..hi` row ranges, so
        // every task reconstitutes a non-overlapping sub-slice of `out`,
        // which stays mutably borrowed until `run_tasks` returns.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(lo * cols), (hi - lo) * cols) };
        f(lo, hi, chunk);
    });
}

/// True when the running CPU supports AVX2 (checked once, cached).
///
/// The AVX2 kernel variants below contain the *same scalar operation
/// sequence* as the portable ones — Rust never fuses `mul + add` into FMA or
/// reassociates floating-point reductions — so the wider registers change
/// throughput only and every result stays bit-identical. This is a runtime
/// dispatch: binaries remain portable to baseline x86-64.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// True when the running CPU supports AVX2 **and** FMA3 (checked once,
/// cached). [`NumericsMode::Fast`] only takes the FMA kernel variants on
/// such CPUs; elsewhere `Fast` falls back to the bit-exact microkernels
/// (a scalar `f64::mul_add` without hardware FMA would be a slow `libm`
/// call, not an optimisation), which trivially satisfies the Fast error
/// bounds.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    use std::sync::OnceLock;
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// True when the running CPU supports AVX-512F (checked once, cached). The
/// GEMM products of both tiers then run on the register-tiled micro-kernel
/// in [`avx512`] instead of the AVX2 row kernels: the same chains, in zmm
/// registers.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// One multiply-add step of an accumulation chain: `acc + a * b`, contracted
/// to a single fused multiply-add when the kernel was instantiated for
/// [`NumericsMode::Fast`] on FMA hardware. The `FMA = false` instantiation
/// is exactly the historical two-operation sequence.
#[inline(always)]
fn madd<const FMA: bool>(acc: f64, a: f64, b: f64) -> f64 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// One `out_row[j] += aik * b_row[j]` pass (skipped by the nn/tn callers
/// when `aik == 0.0`, preserving the historical exact-zero semantics).
#[inline(always)]
// lint: no_alloc
fn axpy<const FMA: bool>(out_row: &mut [f64], aik: f64, b_row: &[f64]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o = madd::<FMA>(*o, aik, bv);
    }
}

/// Four consecutive-`k` accumulation passes fused into one sweep over the
/// output row. With `FMA = false` each element performs `(((o + a0*b0) +
/// a1*b1) + a2*b2) + a3*b3` — exactly the operation sequence of four
/// separate [`axpy`] passes in ascending `k` order — while the output row is
/// loaded and stored once instead of four times (the kernels' main
/// throughput lever). `FMA = true` contracts each step into a fused
/// multiply-add, same chain order.
#[inline(always)]
fn axpy4<const FMA: bool>(
    out_row: &mut [f64],
    av: [f64; 4],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) {
    let len = out_row.len();
    let (b0, b1, b2, b3) = (&b0[..len], &b1[..len], &b2[..len], &b3[..len]);
    for j in 0..len {
        let mut acc = out_row[j];
        acc = madd::<FMA>(acc, av[0], b0[j]);
        acc = madd::<FMA>(acc, av[1], b1[j]);
        acc = madd::<FMA>(acc, av[2], b2[j]);
        acc = madd::<FMA>(acc, av[3], b3[j]);
        out_row[j] = acc;
    }
}

/// [`axpy4`] over **two** output rows sharing the same four `b` rows. Each
/// row's per-element operation sequence is exactly [`axpy4`]'s; sharing the
/// `b` loads halves the kernel's dominant memory traffic (the kernels are
/// load/store-bound without FMA, which bit-identity rules out).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn axpy4x2<const FMA: bool>(
    row0: &mut [f64],
    row1: &mut [f64],
    av0: [f64; 4],
    av1: [f64; 4],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) {
    let len = row0.len();
    let (b0, b1, b2, b3) = (&b0[..len], &b1[..len], &b2[..len], &b3[..len]);
    let row1 = &mut row1[..len];
    for j in 0..len {
        let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
        let mut a0 = row0[j];
        a0 = madd::<FMA>(a0, av0[0], v0);
        a0 = madd::<FMA>(a0, av0[1], v1);
        a0 = madd::<FMA>(a0, av0[2], v2);
        a0 = madd::<FMA>(a0, av0[3], v3);
        row0[j] = a0;
        let mut a1 = row1[j];
        a1 = madd::<FMA>(a1, av1[0], v0);
        a1 = madd::<FMA>(a1, av1[1], v1);
        a1 = madd::<FMA>(a1, av1[2], v2);
        a1 = madd::<FMA>(a1, av1[3], v3);
        row1[j] = a1;
    }
}

/// True when the multiply-add `acc + a * b` joins the chain: always for
/// `SKIP_ZERO = false`, otherwise only for a non-zero `a` (the historical
/// exact-zero skip of the nn/tn loops).
#[inline(always)]
fn live<const SKIP_ZERO: bool>(a: f64) -> bool {
    !SKIP_ZERO || a != 0.0
}

/// One output row's `kb..k_hi` accumulation in ascending `k`, unrolled by
/// four; `b_row(k)` is row `k` of the right-hand panel, restricted to the
/// output row's columns.
#[inline(always)]
// lint: no_alloc
fn accum_row<'p, const FMA: bool, const SKIP_ZERO: bool>(
    out_row: &mut [f64],
    a_at: impl Fn(usize) -> f64,
    b_row: impl Fn(usize) -> &'p [f64],
    kb: usize,
    k_hi: usize,
) {
    let mut k = kb;
    while k + 4 <= k_hi {
        let av = [a_at(k), a_at(k + 1), a_at(k + 2), a_at(k + 3)];
        if av.iter().all(|&v| live::<SKIP_ZERO>(v)) {
            axpy4::<FMA>(out_row, av, b_row(k), b_row(k + 1), b_row(k + 2), b_row(k + 3));
        } else {
            for (dk, &aik) in av.iter().enumerate() {
                if live::<SKIP_ZERO>(aik) {
                    axpy::<FMA>(out_row, aik, b_row(k + dk));
                }
            }
        }
        k += 4;
    }
    for kk in k..k_hi {
        let aik = a_at(kk);
        if live::<SKIP_ZERO>(aik) {
            axpy::<FMA>(out_row, aik, b_row(kk));
        }
    }
}

/// Two output rows' `kb..k_hi` accumulation with shared `b` loads; falls
/// back to [`accum_row`] semantics per row whenever a skipped zero `a` entry
/// makes the fused pass inapplicable.
#[inline(always)]
// lint: no_alloc
fn accum_row_pair<'p, const FMA: bool, const SKIP_ZERO: bool>(
    row0: &mut [f64],
    row1: &mut [f64],
    a0_at: impl Fn(usize) -> f64,
    a1_at: impl Fn(usize) -> f64,
    b_row: impl Fn(usize) -> &'p [f64],
    kb: usize,
    k_hi: usize,
) {
    let mut k = kb;
    while k + 4 <= k_hi {
        let av0 = [a0_at(k), a0_at(k + 1), a0_at(k + 2), a0_at(k + 3)];
        let av1 = [a1_at(k), a1_at(k + 1), a1_at(k + 2), a1_at(k + 3)];
        let ok0 = av0.iter().all(|&v| live::<SKIP_ZERO>(v));
        let ok1 = av1.iter().all(|&v| live::<SKIP_ZERO>(v));
        let (b0, b1, b2, b3) = (b_row(k), b_row(k + 1), b_row(k + 2), b_row(k + 3));
        if ok0 && ok1 {
            axpy4x2::<FMA>(row0, row1, av0, av1, b0, b1, b2, b3);
        } else {
            for (row, av, ok) in [(&mut *row0, av0, ok0), (&mut *row1, av1, ok1)] {
                if ok {
                    axpy4::<FMA>(row, av, b0, b1, b2, b3);
                } else {
                    for (&aik, b) in av.iter().zip([b0, b1, b2, b3]) {
                        if live::<SKIP_ZERO>(aik) {
                            axpy::<FMA>(row, aik, b);
                        }
                    }
                }
            }
        }
        k += 4;
    }
    for kk in k..k_hi {
        for (row, a_at) in [(&mut *row0, &a0_at as &dyn Fn(usize) -> f64), (&mut *row1, &a1_at)] {
            let aik = a_at(kk);
            if live::<SKIP_ZERO>(aik) {
                axpy::<FMA>(row, aik, b_row(kk));
            }
        }
    }
}

/// Accumulates the `kb..k_hi` slab of `C += A * B` into columns `jb..j_hi`
/// of the `m` output rows (`out` is row-major with row stride `n`), two rows
/// at a time so they share the `b` loads. `a_at(i, k)` reads
/// `A[i][k]`; `b_row(k)` is row `k` of `B` restricted to `jb..j_hi`.
#[inline(always)]
// lint: no_alloc
fn accum_block<'p, const FMA: bool, const SKIP_ZERO: bool>(
    out: &mut [f64],
    (m, n): (usize, usize),
    (jb, j_hi): (usize, usize),
    (kb, k_hi): (usize, usize),
    a_at: impl Fn(usize, usize) -> f64,
    b_row: impl Fn(usize) -> &'p [f64],
) {
    let mut i = 0;
    while i + 2 <= m {
        let (head, tail) = out.split_at_mut((i + 1) * n);
        let row0 = &mut head[i * n + jb..i * n + j_hi];
        let row1 = &mut tail[jb..j_hi];
        accum_row_pair::<FMA, SKIP_ZERO>(
            row0,
            row1,
            |k| a_at(i, k),
            |k| a_at(i + 1, k),
            &b_row,
            kb,
            k_hi,
        );
        i += 2;
    }
    if i < m {
        let out_row = &mut out[i * n + jb..i * n + j_hi];
        accum_row::<FMA, SKIP_ZERO>(out_row, |k| a_at(i, k), &b_row, kb, k_hi);
    }
}

/// Blocked `C += A * B` into the `m x n` output `out`. Accumulates each
/// output element in ascending-`k` order (matching the historical `i-k-j`
/// loop bit for bit, including its skip of exact-zero `a[i][k]` entries);
/// the `k` dimension is unrolled by four when the participating `a` entries
/// are all non-zero, which changes memory traffic but not a single
/// floating-point operation.
#[inline(always)]
// lint: no_alloc
fn gemm_nn_rows_impl<const FMA: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim, n): (usize, usize, usize),
) {
    for kb in (0..k_dim).step_by(KC) {
        let k_hi = (kb + KC).min(k_dim);
        for jb in (0..n).step_by(NC) {
            let j_hi = (jb + NC).min(n);
            accum_block::<FMA, true>(
                out,
                (m, n),
                (jb, j_hi),
                (kb, k_hi),
                |i, k| a[i * k_dim + k],
                |k| &b[k * n + jb..k * n + j_hi],
            );
        }
    }
}

/// Copies the `kb..k_hi` x `jb..j_hi` block of `B^T` into `panel`, row-major
/// with row stride `j_hi - jb`; `B` is row-major with `k_dim` columns.
#[inline(always)]
// lint: no_alloc
fn pack_bt_panel(
    b: &[f64],
    k_dim: usize,
    (kb, k_hi): (usize, usize),
    (jb, j_hi): (usize, usize),
    panel: &mut [f64; KC * NC],
) {
    let width = j_hi - jb;
    for (dj, b_row) in b[jb * k_dim..j_hi * k_dim].chunks_exact(k_dim).enumerate() {
        for (dk, &v) in b_row[kb..k_hi].iter().enumerate() {
            panel[dk * width + dj] = v;
        }
    }
}

/// Blocked `C += A * B^T` into the `m x n` output `out` (zeroed by the
/// caller). Each `KC x NC` block of `B^T` is packed into a stack panel, so
/// the kernel allocates nothing, and runs through the same accumulation as
/// [`gemm_nn_rows_impl`] **without** the exact-zero skip: every element is
/// the dot product's own chain `0.0 + a[i][0]*b[j][0] + a[i][1]*b[j][1] + …`
/// in ascending `k`, so `0 * inf` stays NaN.
#[inline(always)]
// lint: no_alloc
fn gemm_nt_panel_rows<const FMA: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim, n): (usize, usize, usize),
) {
    let mut panel = [0.0f64; KC * NC];
    for kb in (0..k_dim).step_by(KC) {
        let k_hi = (kb + KC).min(k_dim);
        for jb in (0..n).step_by(NC) {
            let j_hi = (jb + NC).min(n);
            let width = j_hi - jb;
            pack_bt_panel(b, k_dim, (kb, k_hi), (jb, j_hi), &mut panel);
            let panel = &panel;
            accum_block::<FMA, false>(
                out,
                (m, n),
                (jb, j_hi),
                (kb, k_hi),
                |i, k| a[i * k_dim + k],
                |k| &panel[(k - kb) * width..(k - kb + 1) * width],
            );
        }
    }
}

/// Blocked `C += A^T * B` into the `m x n` output `out` (`m` columns of `A`,
/// which is `k_dim` rows deep). Per-element accumulation runs over `k` (the
/// shared row index) in ascending order with the same exact-zero skip as the
/// historical loop.
#[inline(always)]
// lint: no_alloc
fn gemm_tn_rows_impl<const FMA: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim, n): (usize, usize, usize),
) {
    for kb in (0..k_dim).step_by(KC) {
        let k_hi = (kb + KC).min(k_dim);
        for jb in (0..n).step_by(NC) {
            let j_hi = (jb + NC).min(n);
            accum_block::<FMA, true>(
                out,
                (m, n),
                (jb, j_hi),
                (kb, k_hi),
                |i, k| a[k * m + i],
                |k| &b[k * n + jb..k * n + j_hi],
            );
        }
    }
}

/// `C = A * B`. The three layout tags are a const generic of the row
/// kernels, so one set of CPU-feature clones below serves all three products.
const NN: u8 = 0;
/// `C = A * B^T`.
const NT: u8 = 1;
/// `C = A^T * B`.
const TN: u8 = 2;

/// Output rows whose accumulation chains the n = 1 kernel runs side by side.
const MV_ROWS: usize = 8;

/// One `k` step of [`MV_ROWS`] interleaved chains: `acc[r] += a_k[r] * bk`.
/// With `SKIP_ZERO` a zero `a_k[r]` leaves `acc[r]` untouched (the select
/// keeps the old accumulator), exactly like the row kernels' skipped term.
#[inline(always)]
// lint: no_alloc
fn matvec_step<const FMA: bool, const SKIP_ZERO: bool>(
    acc: &mut [f64; MV_ROWS],
    a_k: [f64; MV_ROWS],
    bk: f64,
) {
    for (o, ark) in acc.iter_mut().zip(a_k) {
        let step = madd::<FMA>(*o, ark, bk);
        *o = if live::<SKIP_ZERO>(ark) { step } else { *o };
    }
}

/// `C = A * b` (nn, nt) or `C = A^T * b` (tn) for a single output column:
/// the `m` output elements are `m` independent chains over `k`, run
/// [`MV_ROWS`] at a time so their additions overlap instead of waiting on
/// one another. Each element's chain is the row kernels' own — ascending
/// `k`, the exact-zero skip on `a` for nn/tn and none for nt — so every
/// tier's bits are unchanged. A short last block repeats row `m - 1` in its
/// spare lanes and discards them.
#[inline(always)]
// lint: no_alloc
fn matvec_rows<const L: u8, const FMA: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim, _): (usize, usize, usize),
) {
    let b = &b[..k_dim];
    for i0 in (0..m).step_by(MV_ROWS) {
        let full = i0 + MV_ROWS <= m;
        let rows: [usize; MV_ROWS] = std::array::from_fn(|r| (i0 + r).min(m - 1));
        let mut acc = [0.0; MV_ROWS];
        match L {
            TN if full => {
                for (col, &bk) in a.chunks_exact(m).zip(b) {
                    let a_k = &col[i0..i0 + MV_ROWS];
                    matvec_step::<FMA, true>(&mut acc, std::array::from_fn(|r| a_k[r]), bk);
                }
            }
            TN => {
                for (col, &bk) in a.chunks_exact(m).zip(b) {
                    matvec_step::<FMA, true>(&mut acc, std::array::from_fn(|r| col[rows[r]]), bk);
                }
            }
            _ => {
                let a_rows: [&[f64]; MV_ROWS] =
                    std::array::from_fn(|r| &a[rows[r] * k_dim..(rows[r] + 1) * k_dim]);
                for (k, &bk) in b.iter().enumerate() {
                    let a_k = std::array::from_fn(|r| a_rows[r][k]);
                    if L == NN {
                        matvec_step::<FMA, true>(&mut acc, a_k, bk);
                    } else {
                        matvec_step::<FMA, false>(&mut acc, a_k, bk);
                    }
                }
            }
        }
        let live_rows = (m - i0).min(MV_ROWS);
        out[i0..i0 + live_rows].copy_from_slice(&acc[..live_rows]);
    }
}

/// The kernel of layout `L` (`NN`, `NT` or `TN`) for an `m x n` product
/// with inner dimension `k_dim`, overwriting `out`.
#[inline(always)]
// lint: no_alloc
fn gemm_rows_impl<const L: u8, const FMA: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    dims: (usize, usize, usize),
) {
    if dims.2 == 1 {
        return matvec_rows::<L, FMA>(a, b, out, dims);
    }
    // The row kernels accumulate into `out`.
    out.fill(0.0);
    match L {
        NN => gemm_nn_rows_impl::<FMA>(a, b, out, dims),
        NT => gemm_nt_panel_rows::<FMA>(a, b, out, dims),
        _ => gemm_tn_rows_impl::<FMA>(a, b, out, dims),
    }
}

/// AVX2-compiled clone of the bit-exact [`gemm_rows_impl`] (same scalar
/// ops, wider auto-vectorisation; see [`avx2_available`]).
///
/// # Safety
/// Caller must verify AVX2 support first (see [`avx2_available`]); the body
/// itself is ordinary safe Rust recompiled with wider vector types.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2<const L: u8>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    dims: (usize, usize, usize),
) {
    gemm_rows_impl::<L, false>(a, b, out, dims);
}

/// AVX2+FMA-compiled clone of [`gemm_rows_impl`] with contracted
/// multiply-adds — the [`NumericsMode::Fast`] kernel (see [`fma_available`]).
///
/// # Safety
/// Caller must verify AVX2 **and** FMA3 support first (see
/// [`fma_available`]); the body itself is ordinary safe Rust.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_rows_fma<const L: u8>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    dims: (usize, usize, usize),
) {
    gemm_rows_impl::<L, true>(a, b, out, dims);
}

/// The instruction-set clones of the GEMM kernels, narrowest first.
// Only the tests cap the dispatch below the widest clone, so outside them
// some variants are never built.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    /// [`gemm_rows_impl`] as compiled for the baseline target.
    Portable,
    /// The AVX2 (bit-exact) and AVX2+FMA (Fast) row-kernel clones.
    Avx2,
    /// The register-tiled micro-kernel of the `avx512` module.
    Avx512,
}

/// Runs the layout-`L` product on the widest clone, no wider than
/// `widest`, that the CPU supports: the AVX-512F tile kernel, then the AVX2
/// row kernel (its FMA clone for [`NumericsMode::Fast`]), then the portable
/// row kernel. Every clone of a tier computes the same chains and
/// overwrites `out`.
fn gemm_rows<const L: u8>(
    widest: Isa,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    dims: (usize, usize, usize),
    fast: bool,
) {
    #[cfg(target_arch = "x86_64")]
    {
        let fma = fast && fma_available();
        if widest >= Isa::Avx512 && avx512_available() {
            // SAFETY: AVX-512F presence just verified by `avx512_available`.
            return unsafe {
                if fma {
                    avx512::gemm::<L, true>(a, b, out, dims)
                } else {
                    avx512::gemm::<L, false>(a, b, out, dims)
                }
            };
        }
        if widest >= Isa::Avx2 && fma {
            // SAFETY: AVX2+FMA presence just verified by `fma_available`.
            return unsafe { gemm_rows_fma::<L>(a, b, out, dims) };
        }
        if widest >= Isa::Avx2 && avx2_available() {
            // SAFETY: AVX2 presence just verified by `avx2_available`.
            return unsafe { gemm_rows_avx2::<L>(a, b, out, dims) };
        }
    }
    // Non-x86 (or pre-AVX2) fallback: Fast keeps the exact chains — a scalar
    // `mul_add` without hardware FMA would be a slow libm call.
    let _ = (widest, fast);
    gemm_rows_impl::<L, false>(a, b, out, dims)
}

/// The AVX-512F register-tiled GEMM micro-kernel: every product with
/// `n >= 2` in all three layouts, and the nn/nt products with `n = 1`.
///
/// A tile is [`MR`](avx512::MR) output rows by up to [`NR`](avx512::NR)
/// columns, held in `MR x NR / 8` zmm accumulators for one `KC`-deep slab of
/// the inner dimension. Each slab of `B` (or `B^T`) is first packed into a
/// stack panel as `NR`-column strips, so the tile reads `B` contiguously
/// whatever the row stride of the operand (a product with a single row tile
/// reads `B` in place instead). An element's accumulator starts at `+0.0` in
/// the first slab, is loaded from `out` at the start of a later one and is
/// stored back at the slab's end, and in between takes the slab's terms one `k`
/// at a time in ascending order. That is exactly the row kernels' chain:
/// `+0.0`, then `acc + a * b` (`mul_add` in the Fast tier) per `k`, with the
/// exact-zero `a` skipped for nn/tn. The skip is a lane mask, not a branch:
/// ReLU activations make a zero `a` too frequent and too irregular to predict.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{matvec_rows, KC, NC, NT, TN};
    use std::arch::x86_64::*;

    /// Output rows of one register tile.
    pub(super) const MR: usize = 4;
    /// Output columns of one register tile: four zmm accumulators per row.
    pub(super) const NR: usize = 32;

    /// The mask of the low `w` lanes of a zmm register (`1 <= w <= 8`).
    fn low_lanes(w: usize) -> __mmask8 {
        (0xFFu16 >> (8 - w)) as __mmask8
    }

    /// The lanes of `a` that join the chain: all of them without the
    /// exact-zero skip, otherwise those where `a != 0.0` as Rust evaluates
    /// it (true for NaN, false for `-0.0`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn live<const SKIP_ZERO: bool>(a: __m512d) -> __mmask8 {
        if SKIP_ZERO {
            _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_pd())
        } else {
            0xFF
        }
    }

    /// One chain step on the `live` lanes: `acc + a * b`, contracted to one
    /// fused multiply-add for `FMA = true`; other lanes keep `acc`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn madd<const FMA: bool>(acc: __m512d, a: __m512d, b: __m512d, live: __mmask8) -> __m512d {
        if FMA {
            _mm512_mask3_fmadd_pd(a, b, acc, live)
        } else {
            _mm512_mask_add_pd(acc, live, acc, _mm512_mul_pd(a, b))
        }
    }

    /// Packs the `kb..k_hi` x `jb..j_hi` block of the row-major `B` (row
    /// stride `n`) into `panel` as `NR`-column strips: strip `s` starts at
    /// `s * KC * NR` and holds row `dk` at `dk * NR`. A narrow last strip's
    /// spare lanes are left as they are: the tile's loads mask them off.
    // lint: no_alloc
    fn pack_b(
        b: &[f64],
        n: usize,
        (kb, k_hi): (usize, usize),
        (jb, j_hi): (usize, usize),
        panel: &mut [f64; KC * NC],
    ) {
        for (dk, k) in (kb..k_hi).enumerate() {
            for (s, src) in b[k * n + jb..k * n + j_hi].chunks(NR).enumerate() {
                panel[s * KC * NR + dk * NR..][..src.len()].copy_from_slice(src);
            }
        }
    }

    /// [`pack_b`] for `B^T`, where `B` is row-major with `k_dim` columns:
    /// the panel holds `B^T[k][j] = b[j * k_dim + k]` in the same strips.
    // lint: no_alloc
    fn pack_bt(
        b: &[f64],
        k_dim: usize,
        (kb, k_hi): (usize, usize),
        (jb, j_hi): (usize, usize),
        panel: &mut [f64; KC * NC],
    ) {
        for (dj, b_row) in b[jb * k_dim..j_hi * k_dim].chunks_exact(k_dim).enumerate() {
            let strip = &mut panel[(dj / NR) * KC * NR + dj % NR..];
            for (dk, &v) in b_row[kb..k_hi].iter().enumerate() {
                strip[dk * NR] = v;
            }
        }
    }

    /// Where one register tile reads and writes.
    struct Tile {
        /// Row `r`'s `A[i][k]` at step 0 of the slab; step `dk` is at
        /// `a[r] + dk * a_step`.
        a: [*const f64; MR],
        /// The distance between consecutive `k` of one `A` row.
        a_step: usize,
        /// The strip's `B[k][j]` at step 0 and its first column; step `dk`
        /// starts at `b + dk * ldb`.
        b: *const f64,
        /// The row stride of the strip.
        ldb: usize,
        /// The slab's depth.
        kc: usize,
        /// Whether the slab is the first: its chains start at `+0.0`
        /// instead of at `out`.
        first: bool,
        /// The tile's first output element.
        c: *mut f64,
        /// The row stride of the output.
        ldc: usize,
        /// The tile's output rows; a short tile's spare rows repeat its last
        /// row and are discarded.
        rows: usize,
        /// The live lanes of the tile's last zmm column.
        tail: __mmask8,
    }

    /// Accumulates one slab into an `R x 8·NV` register tile: start the tile at
    /// `+0.0` (the first slab) or load it from `out`, take the `kc` steps in
    /// ascending `k`, store the first `rows` rows back. The last zmm column
    /// reads and writes the `tail` lanes only.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. For `dk < kc`, `r < R` and `v < NV`,
    /// `t.a[r] + dk * t.a_step` must be readable, and so must `t.b + dk *
    /// t.ldb + 8 v` for eight lanes (the tail lanes when `v = NV - 1`). Output
    /// rows `r < t.rows` at `t.c + r * t.ldc` must be writable for the same
    /// lanes, and readable unless `t.first`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    // lint: no_alloc
    unsafe fn tile<const R: usize, const NV: usize, const FMA: bool, const SKIP_ZERO: bool>(
        t: &Tile,
    ) {
        let mask = |v: usize| if v + 1 == NV { t.tail } else { 0xFF };
        let mut acc = [[_mm512_setzero_pd(); NV]; R];
        for (r, acc_r) in acc.iter_mut().enumerate().filter(|_| !t.first) {
            let c = t.c.wrapping_add(r.min(t.rows - 1) * t.ldc);
            for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                // SAFETY: row `min(r, rows - 1)` is a live output row (contract
                // above).
                *acc_rv = unsafe { _mm512_maskz_loadu_pd(mask(v), c.add(8 * v)) };
            }
        }
        for dk in 0..t.kc {
            let mut bv = [_mm512_setzero_pd(); NV];
            for (v, bvv) in bv.iter_mut().enumerate() {
                // SAFETY: step `dk < kc` of the strip (contract above).
                *bvv = unsafe { _mm512_maskz_loadu_pd(mask(v), t.b.add(dk * t.ldb + 8 * v)) };
            }
            for (acc_r, &a_row) in acc.iter_mut().zip(&t.a) {
                // SAFETY: step `dk < kc` of a tile row of `A` (contract above).
                let av = _mm512_set1_pd(unsafe { *a_row.add(dk * t.a_step) });
                let live = live::<SKIP_ZERO>(av);
                for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                    *acc_rv = madd::<FMA>(*acc_rv, av, bvv, live);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate().take(t.rows) {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                // SAFETY: `r < rows` is a live output row (contract above).
                unsafe { _mm512_mask_storeu_pd(t.c.add(r * t.ldc + 8 * v), mask(v), acc_rv) };
            }
        }
    }

    /// A clone of [`tile`].
    ///
    /// # Safety
    /// As for [`tile`].
    type TileFn = unsafe fn(&Tile);

    /// The [`tile`] clone for `R` rows and `nv` zmm columns.
    fn tile_nv<const R: usize, const FMA: bool, const SKIP_ZERO: bool>(nv: usize) -> TileFn {
        match nv {
            1 => tile::<R, 1, FMA, SKIP_ZERO>,
            2 => tile::<R, 2, FMA, SKIP_ZERO>,
            3 => tile::<R, 3, FMA, SKIP_ZERO>,
            _ => tile::<R, 4, FMA, SKIP_ZERO>,
        }
    }

    /// The [`tile`] clone for a tile of `rows` output rows (one, or up to
    /// [`MR`]), with or without the exact-zero skip, and `nv` zmm columns.
    fn tile_fn<const FMA: bool>(rows: usize, skip_zero: bool, nv: usize) -> TileFn {
        match (rows == 1, skip_zero) {
            (true, true) => tile_nv::<1, FMA, true>(nv),
            (true, false) => tile_nv::<1, FMA, false>(nv),
            (false, true) => tile_nv::<MR, FMA, true>(nv),
            (false, false) => tile_nv::<MR, FMA, false>(nv),
        }
    }

    /// Blocked `C = A * B` (nn), `A * B^T` (nt) or `A^T * B` (tn) into the
    /// `m x n` output `out`, for `n >= 2`; nn/tn skip an exact-zero `a`.
    /// An empty inner dimension runs no slab and clears `out`.
    /// `B^T` is always packed; `B` only when more than one row tile reads
    /// it, since a single tile gains nothing from the copy.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    // lint: no_alloc
    unsafe fn gemm_tiled<const L: u8, const FMA: bool>(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        (m, k_dim, n): (usize, usize, usize),
    ) {
        let (a, b, out) = (&a[..m * k_dim], &b[..k_dim * n], &mut out[..m * n]);
        if k_dim == 0 {
            return out.fill(0.0);
        }
        let mut panel = [0.0f64; KC * NC];
        let packed = L == NT || m > MR;
        // `A[i][k]` sits at `i * a_row + k * a_step`.
        let (a_row, a_step) = if L == TN { (1, m) } else { (k_dim, 1) };
        for kb in (0..k_dim).step_by(KC) {
            let k_hi = (kb + KC).min(k_dim);
            for jb in (0..n).step_by(NC) {
                let j_hi = (jb + NC).min(n);
                // Strip `s` of the block starts at `b_at + s * strip_step`.
                let (b_at, ldb, strip_step) = if !packed {
                    (b[kb * n + jb..].as_ptr(), n, NR)
                } else {
                    if L == NT {
                        pack_bt(b, k_dim, (kb, k_hi), (jb, j_hi), &mut panel);
                    } else {
                        pack_b(b, n, (kb, k_hi), (jb, j_hi), &mut panel);
                    }
                    (panel.as_ptr(), NR, KC * NR)
                };
                for i0 in (0..m).step_by(MR) {
                    let rows = (m - i0).min(MR);
                    let a_rows = std::array::from_fn(|r| {
                        a[(i0 + r).min(m - 1) * a_row + kb * a_step..].as_ptr()
                    });
                    for (s, j0) in (jb..j_hi).step_by(NR).enumerate() {
                        let w = (j_hi - j0).min(NR);
                        let nv = w.div_ceil(8);
                        let t = Tile {
                            a: a_rows,
                            a_step,
                            b: b_at.wrapping_add(s * strip_step),
                            ldb,
                            kc: k_hi - kb,
                            first: kb == 0,
                            c: out[i0 * n + j0..].as_mut_ptr(),
                            ldc: n,
                            rows,
                            tail: low_lanes(w - 8 * (nv - 1)),
                        };
                        let tile = tile_fn::<FMA>(rows, L != NT, nv);
                        // SAFETY: AVX-512F is the caller's contract. Rows
                        // `i < m` of `A` hold the slab's `k_hi - kb` steps
                        // at stride `a_step`. The strip holds them for the
                        // `w` live columns, at stride `ldb`: `B` itself
                        // (rows `kb..k_hi`, columns `j0..j0 + w`) or the
                        // panel strip `pack_b`/`pack_bt` filled. Output
                        // rows `i0..i0 + rows` hold columns `j0..j0 + w`,
                        // which the earlier slabs stored.
                        unsafe { tile(&t) };
                    }
                }
            }
        }
    }

    /// Transposes the 8 x 8 block held in eight row registers into its
    /// eight column registers.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose8(r: [__m512d; 8]) -> [__m512d; 8] {
        // Pairs: t[2q] = (r[2q][c], r[2q+1][c]) for even c, t[2q+1] for odd c.
        let t = [
            _mm512_unpacklo_pd(r[0], r[1]),
            _mm512_unpackhi_pd(r[0], r[1]),
            _mm512_unpacklo_pd(r[2], r[3]),
            _mm512_unpackhi_pd(r[2], r[3]),
            _mm512_unpacklo_pd(r[4], r[5]),
            _mm512_unpackhi_pd(r[4], r[5]),
            _mm512_unpacklo_pd(r[6], r[7]),
            _mm512_unpackhi_pd(r[6], r[7]),
        ];
        // Quads: columns (0, 4), (2, 6), (1, 5), (3, 7) of rows 0–3, then 4–7.
        let u = [
            _mm512_shuffle_f64x2::<0x88>(t[0], t[2]),
            _mm512_shuffle_f64x2::<0xDD>(t[0], t[2]),
            _mm512_shuffle_f64x2::<0x88>(t[1], t[3]),
            _mm512_shuffle_f64x2::<0xDD>(t[1], t[3]),
            _mm512_shuffle_f64x2::<0x88>(t[4], t[6]),
            _mm512_shuffle_f64x2::<0xDD>(t[4], t[6]),
            _mm512_shuffle_f64x2::<0x88>(t[5], t[7]),
            _mm512_shuffle_f64x2::<0xDD>(t[5], t[7]),
        ];
        [
            _mm512_shuffle_f64x2::<0x88>(u[0], u[4]),
            _mm512_shuffle_f64x2::<0x88>(u[2], u[6]),
            _mm512_shuffle_f64x2::<0x88>(u[1], u[5]),
            _mm512_shuffle_f64x2::<0x88>(u[3], u[7]),
            _mm512_shuffle_f64x2::<0xDD>(u[0], u[4]),
            _mm512_shuffle_f64x2::<0xDD>(u[2], u[6]),
            _mm512_shuffle_f64x2::<0xDD>(u[1], u[5]),
            _mm512_shuffle_f64x2::<0xDD>(u[3], u[7]),
        ]
    }

    /// `C = A * b` (nn, with the exact-zero skip) or `C = A * B^T` (nt,
    /// without) for a single output column. Eight rows' chains share one
    /// zmm accumulator; each 8 x 8 block of `A` is loaded as eight row
    /// vectors and transposed in registers, so step `k` is one column
    /// vector instead of eight strided reads. Every lane keeps its row's
    /// chain in ascending `k`. A short last block repeats row `m - 1` in its
    /// spare lanes and discards them.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    // lint: no_alloc
    unsafe fn matvec<const FMA: bool, const SKIP_ZERO: bool>(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        (m, k_dim, _): (usize, usize, usize),
    ) {
        let (a, b, out) = (&a[..m * k_dim], &b[..k_dim], &mut out[..m]);
        for i0 in (0..m).step_by(8) {
            let live_rows = low_lanes((m - i0).min(8));
            let a_rows: [*const f64; 8] =
                std::array::from_fn(|r| a[(i0 + r).min(m - 1) * k_dim..].as_ptr());
            let mut acc = _mm512_setzero_pd();
            for k0 in (0..k_dim).step_by(8) {
                let kt = (k_dim - k0).min(8);
                let mut r = [_mm512_setzero_pd(); 8];
                for (rv, &a_row) in r.iter_mut().zip(&a_rows) {
                    // SAFETY: the `kt` lanes are `A[i][k0..k0 + kt]` of a
                    // row `i < m`.
                    *rv = unsafe { _mm512_maskz_loadu_pd(low_lanes(kt), a_row.add(k0)) };
                }
                let cols = transpose8(r);
                let step = |acc, col, bk: f64| {
                    madd::<FMA>(acc, col, _mm512_set1_pd(bk), live::<SKIP_ZERO>(col))
                };
                for (&col, &bk) in cols.iter().zip(&b[k0..k0 + kt]) {
                    acc = step(acc, col, bk);
                }
            }
            // SAFETY: the `live_rows` lanes are outputs `i0..min(i0 + 8, m)`.
            unsafe { _mm512_mask_storeu_pd(out[i0..].as_mut_ptr(), live_rows, acc) };
        }
    }

    /// The AVX-512F kernel of layout `L` (`NN`, `NT` or `TN`) for an `m x n`
    /// product with inner dimension `k_dim`, overwriting `out`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    // lint: no_alloc
    pub(super) unsafe fn gemm<const L: u8, const FMA: bool>(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        dims: (usize, usize, usize),
    ) {
        // SAFETY: AVX-512F is the caller's contract.
        unsafe {
            match (L, dims.2) {
                (TN, 1) => matvec_rows::<TN, FMA>(a, b, out, dims),
                (NT, 1) => matvec::<FMA, false>(a, b, out, dims),
                (_, 1) => matvec::<FMA, true>(a, b, out, dims),
                _ => gemm_tiled::<L, FMA>(a, b, out, dims),
            }
        }
    }
}

/// Matrix product `a * b` into a caller-provided `a.rows() x b.cols()`
/// buffer, under the calling thread's [`NumericsMode`] — the entry point
/// behind `Matrix::matmul` and the pooled autodiff tape. The buffer is fully
/// overwritten (any prior contents are discarded).
///
/// # Panics
/// Panics if the inner dimensions differ or the output shape is wrong.
#[track_caller]
pub fn gemm_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k_dim, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(out.shape(), (m, n), "gemm_into: output buffer has the wrong shape");
    let (a, b) = (a.as_slice(), b.as_slice());
    let fast = NumericsMode::global().is_fast();
    gemm_rows::<NN>(Isa::Avx512, a, b, out.as_mut_slice(), (m, k_dim, n), fast);
}

/// Matrix product `a * b^T` into a caller-provided `a.rows() x b.rows()`
/// buffer, without materialising the transpose; the buffer is fully
/// overwritten.
///
/// # Panics
/// Panics if the column counts differ or the output shape is wrong.
#[track_caller]
pub fn gemm_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: column counts differ ({}x{} * ({}x{})^T)",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k_dim, n) = (a.rows(), a.cols(), b.rows());
    assert_eq!(out.shape(), (m, n), "gemm_nt_into: output buffer has the wrong shape");
    let (a, b) = (a.as_slice(), b.as_slice());
    let fast = NumericsMode::global().is_fast();
    gemm_rows::<NT>(Isa::Avx512, a, b, out.as_mut_slice(), (m, k_dim, n), fast);
}

/// Matrix product `a^T * b` into a caller-provided `a.cols() x b.cols()`
/// buffer, without materialising the transpose; the buffer is fully
/// overwritten.
///
/// # Panics
/// Panics if the row counts differ or the output shape is wrong.
#[track_caller]
pub fn gemm_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row counts differ (({}x{})^T * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (k_dim, m, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(out.shape(), (m, n), "gemm_tn_into: output buffer has the wrong shape");
    let (a, b) = (a.as_slice(), b.as_slice());
    let fast = NumericsMode::global().is_fast();
    gemm_rows::<TN>(Isa::Avx512, a, b, out.as_mut_slice(), (m, k_dim, n), fast);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{randn, rng_from_seed};

    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        reference_matmul_with(a, b, false)
    }

    /// The historical unblocked i-k-j loop, the bit-identity oracle;
    /// `fused` contracts each step to a `mul_add`.
    fn reference_matmul_with(a: &Matrix, b: &Matrix, fused: bool) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let oc = b.cols();
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..oc {
                    out[(i, j)] = if fused {
                        aik.mul_add(b[(k, j)], out[(i, j)])
                    } else {
                        out[(i, j)] + aik * b[(k, j)]
                    };
                }
            }
        }
        out
    }

    /// The dot-product chain of every element of `A * B^T` (`b` holds `B`'s
    /// rows): `+0.0`, then each term in ascending `k` with no exact-zero
    /// skip; `fused` contracts each step to a `mul_add`.
    fn reference_nt(a: &Matrix, b: &Matrix, fused: bool) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            a.row(i).iter().zip(b.row(j)).fold(
                0.0,
                |s, (&x, &y)| {
                    if fused {
                        x.mul_add(y, s)
                    } else {
                        s + x * y
                    }
                },
            )
        })
    }

    /// The bits of every element, with each NaN mapped to one pattern: Rust
    /// leaves NaN payloads unspecified, so a NaN only has to meet a NaN.
    fn class_bits(m: &Matrix) -> Vec<u64> {
        let bits = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
        m.as_slice().iter().map(|&x| bits(x)).collect()
    }

    /// True when the CPU has FMA, so that Fast fuses on the SIMD clones.
    fn fma() -> bool {
        #[cfg(target_arch = "x86_64")]
        return fma_available();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The GEMM clones this CPU runs, widest first. The dispatcher only ever
    /// takes the widest, so a per-clone test keeps the narrower fallbacks
    /// covered; clones the CPU lacks are named on stdout.
    fn clones() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        let supported = |isa| match isa {
            Isa::Avx512 => avx512_available(),
            Isa::Avx2 => avx2_available(),
            Isa::Portable => true,
        };
        #[cfg(not(target_arch = "x86_64"))]
        let supported = |isa| isa == Isa::Portable;
        let all = [Isa::Avx512, Isa::Avx2, Isa::Portable];
        for isa in all.into_iter().filter(|&isa| !supported(isa)) {
            println!("skipped the {isa:?} GEMM clone: this CPU lacks it");
        }
        all.into_iter().filter(|&isa| supported(isa)).collect()
    }

    /// True when clone `isa` fuses the steps of tier `mode`.
    fn fuses(isa: Isa, mode: NumericsMode) -> bool {
        mode.is_fast() && fma() && isa >= Isa::Avx2
    }

    /// The layout-`L` product on clone `isa` (no wider), with its operands
    /// as that layout stores them: `A * B`, `A * B^T` or `A^T * B`.
    fn product_on<const L: u8>(isa: Isa, a: &Matrix, b: &Matrix, mode: NumericsMode) -> Matrix {
        let dims = match L {
            NN => (a.rows(), a.cols(), b.cols()),
            NT => (a.rows(), a.cols(), b.rows()),
            _ => (a.cols(), a.rows(), b.cols()),
        };
        // The kernels overwrite `out`: a stale NaN must not leak into a chain.
        let mut out = Matrix::full(dims.0, dims.2, f64::NAN);
        gemm_rows::<L>(isa, a.as_slice(), b.as_slice(), out.as_mut_slice(), dims, mode.is_fast());
        out
    }

    #[test]
    fn every_clone_keeps_the_chains_at_tile_edges() {
        // The shapes straddle every edge of the AVX-512 tile: 4-row tiles
        // and a 1-row tile (m), 8-lane columns with masked tails, 32-column
        // strips and the 128-column panel (n), the 32-deep slab and an empty
        // inner dimension (k). `a` holds +0.0 and -0.0 and `b` sparse
        // infinities and NaNs, so the nn/tn exact-zero skip decides whether
        // `0 * inf` joins a chain; nt has no skip.
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let clones = clones();
        let mut rng = rng_from_seed(23);
        for m in [1, 3, 4, 5, 41] {
            for n in [2, 7, 8, 9, 31, 32, 33, 127, 128, 129] {
                for k in [0, 1, 31, 32, 33, 129] {
                    let mut a = randn(&mut rng, m, k);
                    let mut b = randn(&mut rng, k, n);
                    for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
                        if idx % 5 == 0 {
                            *v = 0.0;
                        } else if idx % 7 == 0 {
                            *v = -0.0;
                        }
                    }
                    for (idx, v) in b.as_mut_slice().iter_mut().enumerate().skip(3).step_by(37) {
                        *v = specials[(idx / 37) % specials.len()];
                    }
                    let (a_t, b_t) = (a.transpose(), b.transpose());
                    let want = [false, true].map(|f| class_bits(&reference_matmul_with(&a, &b, f)));
                    let want_nt = [false, true].map(|f| class_bits(&reference_nt(&a, &b_t, f)));
                    for mode in [NumericsMode::BitExact, NumericsMode::Fast] {
                        for &isa in &clones {
                            let f = usize::from(fuses(isa, mode));
                            let case = format!("{m}x{k}x{n} {mode} {isa:?}");
                            let nn = product_on::<NN>(isa, &a, &b, mode);
                            assert_eq!(class_bits(&nn), want[f], "nn {case}");
                            let tn = product_on::<TN>(isa, &a_t, &b, mode);
                            assert_eq!(class_bits(&tn), want[f], "tn {case}");
                            let nt = product_on::<NT>(isa, &a, &b_t, mode);
                            assert_eq!(class_bits(&nt), want_nt[f], "nt {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_serial_gemm_is_bit_identical_to_reference() {
        // Pins the BitExact contract explicitly (outside a scope the product
        // reads `SBRL_NUMERICS`, which a Fast test run sets).
        // The Fast leg pins nn and tn against the same loop with every step
        // fused where the CPU has FMA.
        let mut rng = rng_from_seed(0);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (40, 33, 29), (130, 257, 65), (256, 64, 129)] {
            let a = randn(&mut rng, m, k);
            let b = randn(&mut rng, k, n);
            let blocked = NumericsMode::BitExact.scoped(|| a.matmul(&b));
            let reference = reference_matmul(&a, &b);
            assert_eq!(blocked.as_slice(), reference.as_slice(), "shape {m}x{k}x{n}");

            let fused = reference_matmul_with(&a, &b, fma());
            let a_t = a.transpose();
            for (name, got) in [
                ("nn", NumericsMode::Fast.scoped(|| a.matmul(&b))),
                ("tn", NumericsMode::Fast.scoped(|| a_t.matmul_tn(&b))),
            ] {
                assert_eq!(got.as_slice(), fused.as_slice(), "fast {name} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_handles_exact_zero_entries_like_the_reference() {
        // The historical kernel skips a[i][k] == 0.0 rather than adding
        // 0.0 * b, which matters for signed zeros and non-finite b entries.
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(2, 1)] = -2.0;
        let mut b = Matrix::ones(3, 4);
        b[(1, 0)] = f64::INFINITY;
        b[(2, 2)] = f64::NEG_INFINITY;
        let reference = reference_matmul(&a, &b);
        assert_eq!(
            a.matmul(&b).as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn zero_dimension_products_have_their_shape_and_positive_zeros() {
        // An empty inner dimension leaves every element at the chain's
        // starting +0.0; an empty outer dimension yields an empty matrix.
        for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 0, 1)] {
            let a = Matrix::full(m, k, -1.5);
            let b = Matrix::full(k, n, 2.0);
            let (a_t, b_t) = (a.transpose(), b.transpose());
            for mode in [NumericsMode::BitExact, NumericsMode::Fast] {
                for (name, got) in [
                    ("nn", mode.scoped(|| a.matmul(&b))),
                    ("nt", mode.scoped(|| a.matmul_nt(&b_t))),
                    ("tn", mode.scoped(|| a_t.matmul_tn(&b))),
                ] {
                    assert_eq!(got.shape(), (m, n), "{name} {m}x{k}x{n} {mode}");
                    if k == 0 {
                        assert!(
                            got.as_slice().iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
                            "{name} {m}x{k}x{n} {mode}: not +0.0"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_its_dot_product_definition() {
        // Every element of A * B^T is the plain dot-product chain from +0.0
        // in ascending k, with no exact-zero skip (0 * inf stays NaN); Fast
        // fuses every step where the CPU has FMA.
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut rng = rng_from_seed(11);
        // 41 rows: odd, so the row-pair loop leaves a single row.
        let m = 41;
        for k in [1, 3, 32, 33, 70] {
            for n in [1, 127, 128, 129] {
                let mut a = randn(&mut rng, m, k);
                let mut b = randn(&mut rng, n, k);
                for v in a.as_mut_slice().iter_mut().step_by(5) {
                    *v = 0.0;
                }
                // Sparse specials leave most chains finite, so both the
                // finite and the non-finite paths are pinned.
                for (idx, v) in b.as_mut_slice().iter_mut().enumerate().skip(3).step_by(37) {
                    *v = specials[(idx / 37) % specials.len()];
                }
                for mode in [NumericsMode::BitExact, NumericsMode::Fast] {
                    let want = class_bits(&reference_nt(&a, &b, mode.is_fast() && fma()));
                    let got = class_bits(&mode.scoped(|| a.matmul_nt(&b)));
                    assert_eq!(got, want, "k={k} n={n} {mode}");
                }
            }
        }
    }

    #[test]
    fn matvec_is_bit_identical_to_its_chain_definition() {
        // A single output column runs on the interleaved n = 1 kernels (the
        // AVX-512 nn/nt one transposes 8 x 8 blocks of `a`). Each element
        // must still be its own chain from +0.0 in ascending k: nn/tn skip
        // an exactly-zero `a` (0 * inf never joins the chain), nt adds every
        // term (0 * inf is NaN); Fast fuses every step on the SIMD clones of
        // a CPU with FMA.
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let clones = clones();
        let mut rng = rng_from_seed(19);
        for m in [1, 7, 8, 9, 17, 64, 129] {
            for k in [1, 3, 64, 70] {
                let mut a = randn(&mut rng, m, k);
                let mut b = randn(&mut rng, k, 1);
                for v in a.as_mut_slice().iter_mut().step_by(3) {
                    *v = 0.0;
                }
                // Every third entry of `a` is zero and every fifth of `b` is
                // special, so the specials meet skipped zeros and live terms.
                for (idx, v) in b.as_mut_slice().iter_mut().enumerate().step_by(5) {
                    *v = specials[(idx / 5) % specials.len()];
                }
                let (a_t, b_t) = (a.transpose(), b.transpose());
                for mode in [NumericsMode::BitExact, NumericsMode::Fast] {
                    for &isa in &clones {
                        let fused = fuses(isa, mode);
                        let chain = |i: usize, skip_zero: bool| {
                            a.row(i).iter().zip(b.as_slice()).fold(0.0, |s, (&x, &y)| {
                                if skip_zero && x == 0.0 {
                                    s
                                } else if fused {
                                    x.mul_add(y, s)
                                } else {
                                    s + x * y
                                }
                            })
                        };
                        for (name, got, skip_zero) in [
                            ("nn", product_on::<NN>(isa, &a, &b, mode), true),
                            ("nt", product_on::<NT>(isa, &a, &b_t, mode), false),
                            ("tn", product_on::<TN>(isa, &a_t, &b, mode), true),
                        ] {
                            let want = Matrix::from_fn(m, 1, |i, _| chain(i, skip_zero));
                            assert_eq!(
                                class_bits(&got),
                                class_bits(&want),
                                "{name} m={m} k={k} {mode} {isa:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 100] {
            for w in [1usize, 2, 3, 7, 100, 200] {
                let ranges = shard_ranges(n, w);
                let mut covered = vec![false; n];
                for (lo, hi) in ranges {
                    assert!(lo < hi && hi <= n);
                    for slot in &mut covered[lo..hi] {
                        assert!(!*slot, "overlapping shards");
                        *slot = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} w={w} left gaps");
            }
        }
    }

    #[test]
    fn par_for_row_chunks_fills_every_row_once() {
        let rows = 23;
        let cols = 5;
        for workers in [1usize, 2, 4, 23, 64] {
            let mut out = vec![0.0; rows * cols];
            par_for_row_chunks(&mut out, rows, cols, workers, |lo, hi, chunk| {
                for (k, row) in chunk.chunks_mut(cols).enumerate() {
                    let i = lo + k;
                    assert!(i < hi);
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * cols + j) as f64;
                    }
                }
            });
            for (idx, &v) in out.iter().enumerate() {
                assert_eq!(v, idx as f64, "workers = {workers}");
            }
        }
    }

    #[test]
    fn parallelism_knob_semantics() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::auto().workers() >= 1);
    }

    #[test]
    fn global_knob_round_trips() {
        // Whatever the env resolved to, an explicit set wins afterwards.
        let before = Parallelism::global();
        Parallelism::Threads(3).set_global();
        assert_eq!(Parallelism::global(), Parallelism::Threads(3));
        Parallelism::Serial.set_global();
        assert_eq!(Parallelism::global(), Parallelism::Serial);
        before.set_global();
        assert_eq!(Parallelism::global().workers(), before.workers());
    }

    #[test]
    fn numerics_mode_semantics() {
        // Pure semantics only: the scoped tier's reach (pool tasks, other
        // threads) is pinned in tests/numerics_mode.rs.
        assert_eq!(NumericsMode::default(), NumericsMode::BitExact);
        assert!(!NumericsMode::BitExact.is_fast());
        assert!(NumericsMode::Fast.is_fast());
        assert_eq!(NumericsMode::BitExact.as_str(), "bitexact");
        assert_eq!(NumericsMode::Fast.as_str(), "fast");
        assert_eq!(NumericsMode::Fast.to_string(), "fast");
    }

    #[test]
    fn fast_gemm_stays_within_relative_tolerance_of_bitexact() {
        let mut rng = rng_from_seed(7);
        for (m, k, n) in [(3, 5, 7), (40, 33, 29), (64, 128, 48)] {
            let a = randn(&mut rng, m, k);
            let b = randn(&mut rng, k, n);
            let exact = NumericsMode::BitExact.scoped(|| a.matmul(&b));
            let fast = NumericsMode::Fast.scoped(|| a.matmul(&b));
            for (x, y) in exact.as_slice().iter().zip(fast.as_slice()) {
                let scale = k as f64 * x.abs().max(1.0);
                assert!(
                    (x - y).abs() <= 1e-13 * scale,
                    "{m}x{k}x{n}: {x} vs {y} exceeds tolerance"
                );
            }
        }
    }
}
