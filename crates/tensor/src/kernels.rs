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
//! * [`NumericsMode`] — the one floating-point contract, bit-exactness:
//!   every kernel keeps every historical accumulation chain. Nothing
//!   chooses it; the type only names it for the benchmark's banner.
//! * [`gemm_into`], [`gemm_nt_into`], [`gemm_tn_into`] — cache-blocked
//!   matrix products into a caller-provided buffer (tiled over the inner
//!   dimension and output columns); `Matrix::matmul{,_nt,_tn}` allocate the
//!   buffer and call them. Each output element is accumulated in the same
//!   floating-point order as the historical unblocked loop, whatever the
//!   blocking or the instruction set.
//! * [`shard_ranges`], [`par_for_row_chunks`] — the sharding primitives of
//!   the coarse tasks (synthetic generation in `sbrl-data`, batched
//!   inference in `sbrl-core`). They execute on the persistent worker pool
//!   in [`crate::workers`].
//!
//! # GEMM dispatch
//!
//! Each product runs on the widest clone the CPU supports, detected once at
//! run time, so binaries stay portable to baseline x86-64. The clones are one
//! kernel, written once over a vector of `f64` lanes, and differ only in
//! that vector:
//!
//! | CPU | lanes | register tile | compiled with |
//! |---|---|---|---|
//! | AVX-512F | `__m512d` (8) | 4 x 32 | `avx512f` |
//! | AVX2 | `__m256d` (4) | 4 x 8 | `avx2` |
//! | other | `[f64; 4]` (4) | 1 x 16 | the baseline target |
//!
//! * The **register tile** holds its output rows by `NR` columns in registers
//!   for one `KC`-deep slab of the inner dimension, reading `B` (or `B^T`)
//!   from a 32 KiB stack panel packed as `NR`-column strips. The panel is
//!   never cleared: a packing writes each strip row it packs whole.
//! * The **`n = 1` kernel** has no output columns to widen over, so it runs
//!   two vectors of rows' chains side by side: nn/nt transpose square blocks
//!   of `A` in registers so each `k` step is one column vector; tn loads row
//!   `k` of the stored `A^T` as it is.
//!
//! Every kernel keeps every element's own chain: it starts at `+0.0` and takes
//! `acc + a * b`, a rounded product then a rounded sum (never a fused
//! multiply-add), in ascending `k`. nn/tn skip an exact-zero `a`, so
//! `0 * inf` never joins a chain; nt has no skip, so it stays NaN. A tile
//! only changes which chains advance side by side and where an accumulator
//! is kept between steps (a register, or `out` between slabs; storing an
//! `f64` is exact), so only an empty inner dimension clears `out`. The skip
//! is a lane mask (a compare and a blend on AVX2 and in the portable lanes)
//! rather than a branch, which keeps the accumulator where the scalar loop
//! skips the add; a tiled product whose `A` holds no zero runs without it,
//! since it would keep no accumulator. So the clones agree bit for bit, and
//! nothing above the three entry points can tell which one ran.
//!
//! # Example
//!
//! ```
//! use sbrl_tensor::Matrix;
//!
//! let a = Matrix::from_fn(64, 32, |i, j| (i + j) as f64);
//! let b = Matrix::from_fn(32, 48, |i, j| (i as f64 - j as f64) * 0.5);
//! let c = a.matmul(&b);
//! // Each element accumulates from +0.0 in ascending `k`, like the textbook
//! // triple loop, whatever the cache blocking.
//! let want = (0..32).fold(0.0, |s, k| s + a[(5, k)] * b[(k, 7)]);
//! assert_eq!(c[(5, 7)].to_bits(), want.to_bits());
//! ```

use std::mem::MaybeUninit;
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

/// Floating-point contract of the numerical kernels: bit-exactness, the
/// only arithmetic there is.
///
/// Every kernel keeps every historical accumulation chain (no FMA
/// contraction, no reduction reordering), so output is bit-identical to the
/// pre-kernel-layer code at every [`Parallelism`] setting and on every
/// instruction set. Nothing chooses it: the type has one value, and keeps
/// [`NumericsMode::global`] and [`NumericsMode::as_str`] only so that the
/// benchmark's banner can name the arithmetic it measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericsMode {
    /// Historical bit-exact arithmetic: every accumulation chain unchanged.
    BitExact,
}

impl NumericsMode {
    /// The contract's name, `"bitexact"`.
    pub fn as_str(self) -> &'static str {
        match self {
            NumericsMode::BitExact => "bitexact",
        }
    }

    /// The contract in force: always [`NumericsMode::BitExact`].
    pub fn global() -> Self {
        NumericsMode::BitExact
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

/// True when the running CPU supports AVX2 (checked once, cached): the GEMM
/// then runs its `__m256d` clone where AVX-512F is missing. A runtime
/// dispatch, so binaries stay portable to baseline x86-64.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// True when the running CPU supports AVX-512F (checked once, cached). The
/// GEMM products then run on the `__m512d` clone.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// `C = A * B`. The three layout tags are a const generic of the kernels,
/// so one set of CPU-feature clones below serves all three products.
const NN: u8 = 0;
/// `C = A * B^T`.
const NT: u8 = 1;
/// `C = A^T * B`.
const TN: u8 = 2;

/// Output rows of one register tile on the SIMD clones.
const MR: usize = 4;

/// A vector of `f64` lanes: the one thing the GEMM clones differ in. The
/// register tile, its packing and the `n = 1` kernel are written once over
/// it, and each implementation supplies its width and a handful of lane
/// operations.
///
/// # Safety
/// An implementation's `load`, `store` and `load_t` must access no lane
/// past the low `w` ones: a short tile column or `n = 1` block ends where
/// its operand or `out` ends. Every method may use the instructions of its
/// type's target features, so callers must be compiled with those features
/// and run on a CPU that has them.
unsafe trait Lanes: Copy {
    /// Lanes per vector.
    const W: usize;
    /// Rows of a register tile: [`MR`], or 1 where broadcasting `a` costs
    /// more than a load, so that a wide row amortises it.
    const ROWS: usize;
    /// Vectors per tile row: a tile is `ROWS` rows by `NV * W` columns, and
    /// `NV * W` divides [`NC`].
    const NV: usize;
    /// `W` vectors: a `W x W` block, transposed.
    type Block: IntoIterator<Item = Self>;
    /// Every lane `x`. Safety: the trait's.
    unsafe fn splat(x: f64) -> Self;
    /// The low `w <= W` lanes of `p[..w]`; the other lanes read `+0.0`.
    /// Safety: the trait's, and `p[..w]` must be readable.
    unsafe fn load(p: *const f64, w: usize) -> Self;
    /// Writes the low `w <= W` lanes of `v` to `p[..w]`. Safety: the
    /// trait's, and `p[..w]` must be writable.
    unsafe fn store(p: *mut f64, w: usize, v: Self);
    /// One chain step, `acc + a * b` (a rounded product, then a rounded
    /// sum), on the lanes that join the chain: all of them, or for `SKIP`
    /// those where `a != 0.0` as Rust evaluates it (true for NaN, false for
    /// `-0.0`). The other lanes keep `acc`. Safety: the trait's.
    unsafe fn madd<const SKIP: bool>(acc: Self, a: Self, b: Self) -> Self;
    /// The low `w` lanes of the `W` rows at `a + r * lda`, transposed:
    /// vector `c` holds lane `c` of every row. Rows from `rows` on repeat row
    /// `rows - 1`. Safety: the trait's, and the low `w` lanes of rows
    /// `0..rows` must be readable.
    unsafe fn load_t(a: *const f64, lda: usize, rows: usize, w: usize) -> Self::Block;
}

/// The portable clone: four lanes in plain arrays, which the compiler
/// vectorises for the baseline target. Its tiles are 1 x 16: baseline
/// x86-64 has no broadcast load, and a 4 x 4 tile paid two instructions
/// per row and `k` to broadcast `a` for four columns.
// SAFETY: `load` reads, and `store` writes, only the low `w` lanes, and
// `load_t` reads through `load`.
unsafe impl Lanes for [f64; 4] {
    const W: usize = 4;
    const ROWS: usize = 1;
    const NV: usize = 4;
    type Block = [[f64; 4]; 4];

    // SAFETY: as the trait method states.
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        [x; 4]
    }

    // SAFETY: as the trait method states.
    #[inline(always)]
    unsafe fn load(p: *const f64, w: usize) -> Self {
        // Pair by pair, so that the compiler keeps lanes (0, 1) and (2, 3)
        // in one register each.
        let mut v = [[0.0; 2]; 2];
        for (h, pair) in v.iter_mut().enumerate() {
            // SAFETY: the low `w` lanes are readable (caller's contract).
            unsafe {
                match w.saturating_sub(2 * h) {
                    0 => {}
                    1 => pair[0] = *p.add(2 * h),
                    _ => *pair = p.add(2 * h).cast::<[f64; 2]>().read(),
                }
            }
        }
        [v[0][0], v[0][1], v[1][0], v[1][1]]
    }

    // SAFETY: as the trait method states.
    #[inline(always)]
    unsafe fn store(p: *mut f64, w: usize, v: Self) {
        for (h, pair) in [[v[0], v[1]], [v[2], v[3]]].into_iter().enumerate() {
            // SAFETY: the low `w` lanes are writable (caller's contract).
            unsafe {
                match w.saturating_sub(2 * h) {
                    0 => {}
                    1 => *p.add(2 * h) = pair[0],
                    _ => p.add(2 * h).cast::<[f64; 2]>().write(pair),
                }
            }
        }
    }

    // SAFETY: as the trait method states.
    #[inline(always)]
    unsafe fn madd<const SKIP: bool>(acc: Self, a: Self, b: Self) -> Self {
        let mut out = acc;
        for (l, o) in out.iter_mut().enumerate() {
            let step = acc[l] + a[l] * b[l];
            // A select rather than a branch, like the SIMD lanes' mask.
            *o = if SKIP && a[l] == 0.0 { acc[l] } else { step };
        }
        out
    }

    // SAFETY: as the trait method states.
    #[inline(always)]
    unsafe fn load_t(a: *const f64, lda: usize, rows: usize, w: usize) -> Self::Block {
        let mut r = [[0.0; 4]; 4];
        for (i, row) in r.iter_mut().enumerate() {
            // SAFETY: row `min(i, rows - 1)` is one of the readable rows
            // (caller's contract).
            *row = unsafe { Self::load(a.add(i.min(rows - 1) * lda), w) };
        }
        let mut cols = [[0.0; 4]; 4];
        for (c, col) in cols.iter_mut().enumerate() {
            for (x, row) in col.iter_mut().zip(&r) {
                *x = row[c];
            }
        }
        cols
    }
}

/// Where one register tile reads and writes.
struct Tile {
    /// Row 0's `A[i][k]` at step 0 of the slab; row `r` starts `r * a_row`
    /// further on, and step `dk` is `dk * a_step` further on.
    a: *const f64,
    /// The distance between consecutive rows of `A`.
    a_row: usize,
    /// The distance between consecutive `k` of one `A` row.
    a_step: usize,
    /// The strip's `B[k][j]` at step 0 and its first column; step `dk`
    /// starts at `b + dk * ldb`.
    b: *const f64,
    /// The row stride of the strip.
    ldb: usize,
    /// The slab's depth.
    kc: usize,
    /// Whether the slab is the first: its chains start at `+0.0` instead of
    /// at `out`.
    first: bool,
    /// The tile's first output element.
    c: *mut f64,
    /// The row stride of the output.
    ldc: usize,
    /// The tile's output rows; a short tile's spare rows repeat its last row
    /// and are discarded.
    rows: usize,
    /// The live lanes of the tile's last vector column in `out`.
    tail: usize,
}

/// Accumulates one slab into an `R x NV·W` register tile: start the tile at
/// `+0.0` (the first slab) or load it from `out`, take the `kc` steps in
/// ascending `k`, store the first `rows` rows back. The tile's last vector
/// column reads and writes the low `tail` lanes of `out` only; its spare
/// lanes' chains are discarded. With `SKIP` an exact-zero `a` leaves its
/// row's accumulators as they are.
///
/// # Safety
/// As for the methods of `V`. For `dk < kc`, `r < rows` and `v < NV`,
/// `t.a + r * t.a_row + dk * t.a_step` must be readable, and so must the `W`
/// lanes of `t.b + dk * t.ldb + W v`. Output row `r < t.rows` at
/// `t.c + r * t.ldc` must be writable for the low `W` lanes of each vector
/// column (`tail` for `v = NV - 1`), and readable unless `t.first`.
#[inline(always)]
// lint: no_alloc
unsafe fn tile<V: Lanes, const R: usize, const NV: usize, const SKIP: bool>(t: &Tile) {
    let lanes = |v: usize| if v + 1 == NV { t.tail } else { V::W };
    // SAFETY: every pointer stays on a row `min(r, rows - 1) < rows` and a
    // step `dk < kc`, and `out` is read and written in the lanes of
    // `lanes(v)`: the contract above.
    unsafe {
        let a: [*const f64; R] = std::array::from_fn(|r| t.a.add(r.min(t.rows - 1) * t.a_row));
        let mut acc = [[V::splat(0.0); NV]; R];
        for (r, acc_r) in acc.iter_mut().enumerate().filter(|_| !t.first) {
            let c = t.c.add(r.min(t.rows - 1) * t.ldc);
            for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                *acc_rv = V::load(c.add(V::W * v), lanes(v));
            }
        }
        for dk in 0..t.kc {
            let mut bv = [V::splat(0.0); NV];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = V::load(t.b.add(dk * t.ldb + V::W * v), V::W);
            }
            for (acc_r, &a_r) in acc.iter_mut().zip(&a) {
                let av = V::splat(*a_r.add(dk * t.a_step));
                for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                    *acc_rv = V::madd::<SKIP>(*acc_rv, av, bvv);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate().take(t.rows) {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                V::store(t.c.add(r * t.ldc + V::W * v), lanes(v), acc_rv);
            }
        }
    }
}

/// Runs the [`tile`] of `t.rows` rows (one, or up to `V::ROWS`), with or
/// without the exact-zero skip, and `nv` vector columns.
///
/// # Safety
/// As for [`tile`], with `1 <= nv <= V::NV`.
#[inline(always)]
// lint: no_alloc
unsafe fn run_tile<V: Lanes>(t: &Tile, skip_zero: bool, nv: usize) {
    // SAFETY: the contract above.
    unsafe {
        match (t.rows == 1 || V::ROWS == 1, skip_zero) {
            (true, true) => tile_nv::<V, 1, true>(t, nv),
            (true, false) => tile_nv::<V, 1, false>(t, nv),
            (false, true) => tile_nv::<V, MR, true>(t, nv),
            (false, false) => tile_nv::<V, MR, false>(t, nv),
        }
    }
}

/// Runs the [`tile`] of `R` rows and `nv` vector columns.
///
/// # Safety
/// As for [`tile`], with `1 <= nv <= V::NV`.
#[inline(always)]
// lint: no_alloc
unsafe fn tile_nv<V: Lanes, const R: usize, const SKIP: bool>(t: &Tile, nv: usize) {
    // SAFETY: the contract above; the clamp only tells the compiler which
    // widths `V` can take.
    unsafe {
        match nv.clamp(1, V::NV) {
            1 => tile::<V, R, 1, SKIP>(t),
            2 => tile::<V, R, 2, SKIP>(t),
            3 => tile::<V, R, 3, SKIP>(t),
            _ => tile::<V, R, 4, SKIP>(t),
        }
    }
}

/// Packs the `kb..k_hi` x `jb..j_hi` block of the row-major `B` (row stride
/// `n`) into `panel` as `nr`-column strips: strip `s` starts at
/// `s * KC * nr` and holds row `dk` at `dk * nr`. Each strip row is written
/// whole, a narrow last strip's spare lanes with `+0.0`, so the tile's
/// loads read written lanes only; the rest of the panel stays unwritten.
#[inline(always)]
// lint: no_alloc
fn pack_b(
    b: &[f64],
    n: usize,
    nr: usize,
    (kb, k_hi): (usize, usize),
    (jb, j_hi): (usize, usize),
    panel: &mut [MaybeUninit<f64>; KC * NC],
) {
    for (dk, k) in (kb..k_hi).enumerate() {
        for (s, src) in b[k * n + jb..k * n + j_hi].chunks(nr).enumerate() {
            let dst = &mut panel[s * KC * nr + dk * nr..][..nr];
            for (d, v) in dst.iter_mut().zip(src.iter().copied().chain(std::iter::repeat(0.0))) {
                d.write(v);
            }
        }
    }
}

/// [`pack_b`] for `B^T`, where `B` is row-major with `k_dim` columns: the
/// panel holds `B^T[k][j] = b[j * k_dim + k]` in the same strips.
#[inline(always)]
// lint: no_alloc
fn pack_bt(
    b: &[f64],
    k_dim: usize,
    nr: usize,
    (kb, k_hi): (usize, usize),
    (jb, j_hi): (usize, usize),
    panel: &mut [MaybeUninit<f64>; KC * NC],
) {
    let width = j_hi - jb;
    for dj in 0..width.next_multiple_of(nr) {
        let strip = &mut panel[(dj / nr) * KC * nr + dj % nr..];
        for (dk, k) in (kb..k_hi).enumerate() {
            strip[dk * nr].write(if dj < width { b[(jb + dj) * k_dim + k] } else { 0.0 });
        }
    }
}

/// Blocked `C = A * B` (nn), `A * B^T` (nt) or `A^T * B` (tn) into the
/// `m x n` output `out`; nn/tn skip an exact-zero `a`, and only a product
/// whose `A` holds a zero runs the skip, since it leaves every other chain
/// as it is. An empty inner dimension runs no slab and clears `out`. `B^T`
/// is always packed; `B` when more than one row tile reads it, or when a
/// narrow last strip would read past its rows.
///
/// # Safety
/// As for the methods of `V`; the slices hold the operands and output of an
/// `m x k_dim x n` product.
#[inline(always)]
// lint: no_alloc
unsafe fn gemm_tiled<V: Lanes, const L: u8>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim, n): (usize, usize, usize),
) {
    if k_dim == 0 {
        return out.fill(0.0);
    }
    let nr = V::NV * V::W;
    // Never initialised as a whole: a packing writes the strip rows of its
    // slab, the only lanes the tiles then read.
    let mut panel = [MaybeUninit::<f64>::uninit(); KC * NC];
    let packed = L == NT || m > V::ROWS || n % nr != 0;
    let skip_zero = L != NT && a.contains(&0.0);
    // `A[i][k]` sits at `i * a_row + k * a_step`.
    let (a_row, a_step) = if L == TN { (1, m) } else { (k_dim, 1) };
    for kb in (0..k_dim).step_by(KC) {
        let k_hi = (kb + KC).min(k_dim);
        for jb in (0..n).step_by(NC) {
            let j_hi = (jb + NC).min(n);
            // Strip `s` of the block starts at `b_at + s * strip_step`.
            let (b_at, ldb, strip_step) = if !packed {
                (b[kb * n + jb..].as_ptr(), n, nr)
            } else {
                if L == NT {
                    pack_bt(b, k_dim, nr, (kb, k_hi), (jb, j_hi), &mut panel);
                } else {
                    pack_b(b, n, nr, (kb, k_hi), (jb, j_hi), &mut panel);
                }
                (panel.as_ptr().cast::<f64>(), nr, KC * nr)
            };
            for i0 in (0..m).step_by(V::ROWS) {
                let rows = (m - i0).min(V::ROWS);
                for (s, j0) in (jb..j_hi).step_by(nr).enumerate() {
                    let w = (j_hi - j0).min(nr);
                    let nv = w.div_ceil(V::W);
                    let t = Tile {
                        a: a[i0 * a_row + kb * a_step..].as_ptr(),
                        a_row,
                        a_step,
                        b: b_at.wrapping_add(s * strip_step),
                        ldb,
                        kc: k_hi - kb,
                        first: kb == 0,
                        c: out[i0 * n + j0..].as_mut_ptr(),
                        ldc: n,
                        rows,
                        tail: w - V::W * (nv - 1),
                    };
                    // SAFETY: `V`'s features are the caller's contract. Rows
                    // `i0..i0 + rows` of `A` hold the slab's `kc` steps at
                    // stride `a_step`. The strip holds them for `nv * W`
                    // columns at stride `ldb`: `B` itself (rows `kb..k_hi`,
                    // columns `j0..j0 + nr`, all in `B` when unpacked) or the
                    // panel strip rows that `pack_b`/`pack_bt` just wrote
                    // whole, so the tile reads no unwritten panel lane.
                    // Output rows `i0..i0 + rows` hold columns `j0..j0 + w`,
                    // which the earlier slabs stored.
                    unsafe { run_tile::<V>(&t, skip_zero, nv) };
                }
            }
        }
    }
}

/// `C = A * b` (nn), `A * B^T` (nt) or `A^T * b` (tn) for a single output
/// column, with the exact-zero skip for `SKIP`. The `m` outputs are
/// independent chains over `k`, run `2 W` at a time (see [`matvec_block`]);
/// the full blocks pass their lane counts as constants.
///
/// # Safety
/// As for the methods of `V`; the slices hold the operands and output of an
/// `m x k_dim x 1` product.
#[inline(always)]
// lint: no_alloc
unsafe fn matvec<V: Lanes, const L: u8, const SKIP: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim): (usize, usize),
) {
    let full = m - m % (2 * V::W);
    // SAFETY: the contract above; each block's rows lie in `0..m`.
    unsafe {
        for i0 in (0..full).step_by(2 * V::W) {
            matvec_block::<V, L, SKIP>(a, b, out, (m, k_dim), i0, [V::W; 2]);
        }
        if full < m {
            let rows = [(m - full).min(V::W), (m - full).saturating_sub(V::W)];
            matvec_block::<V, L, SKIP>(a, b, out, (m, k_dim), full, rows);
        }
    }
}

/// The `rows[0] + rows[1]` outputs from `i0` on (`1 <= rows[0]`,
/// `rows[1] <= W`, `rows[1] = 0` unless `rows[0] = W`) as two halves of `W`
/// lanes, each half one accumulator, so that two chains' additions overlap.
/// nn/nt load each `W x W` block of `A` as `W` row vectors and transpose it,
/// so step `k` is one column vector; tn loads row `k` of the stored `A^T`
/// directly. Every lane keeps its row's chain in ascending `k`. A short half
/// leaves its spare lanes at zero (tn) or repeats a live row in them
/// (nn/nt), and discards them; an empty second half writes nothing.
///
/// # Safety
/// As for [`matvec`], with rows `i0..i0 + rows[0] + rows[1]` in `0..m`.
#[inline(always)]
// lint: no_alloc
unsafe fn matvec_block<V: Lanes, const L: u8, const SKIP: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim): (usize, usize),
    i0: usize,
    rows: [usize; 2],
) {
    // Each half's first row; an empty second half reads the first half's.
    let first = [i0, if rows[1] > 0 { i0 + V::W } else { i0 }];
    // SAFETY: `V`'s features are the caller's contract. Each load reads the
    // low `rows[h]` lanes of `A^T[k][first[h]..m]` (tn), or the low `kt`
    // lanes of `A[i][k0..k_dim]` for rows `first[h] <= i < m` (nn/nt); each
    // store writes the low `rows[h]` lanes of `out[first[h]..m]`.
    unsafe {
        let mut acc = [V::splat(0.0); 2];
        if L == TN {
            for (a_k, &bk) in a.chunks_exact(m).zip(b) {
                for (h, acc_h) in acc.iter_mut().enumerate() {
                    let col = V::load(a_k[first[h]..].as_ptr(), rows[h]);
                    *acc_h = V::madd::<SKIP>(*acc_h, col, V::splat(bk));
                }
            }
        } else {
            // Whole `W x W` blocks pass `W` as a constant.
            let k_full = k_dim - k_dim % V::W;
            let a_at = |k0: usize| first.map(|i| a[i * k_dim + k0..].as_ptr());
            for k0 in (0..k_full).step_by(V::W) {
                matvec_cols::<V, SKIP>(a_at(k0), k_dim, rows, &b[k0..k0 + V::W], &mut acc);
            }
            if k_full < k_dim {
                matvec_cols::<V, SKIP>(a_at(k_full), k_dim, rows, &b[k_full..], &mut acc);
            }
        }
        for (h, &acc_h) in acc.iter().enumerate() {
            V::store(out[first[h]..].as_mut_ptr(), rows[h], acc_h);
        }
    }
}

/// The nn/nt steps `k0..k0 + bk.len()` (at most `W`) of [`matvec_block`]'s
/// two halves, whose rows start at `a[0]` and `a[1]`: one transposed block
/// per half, then one chain step per column.
///
/// # Safety
/// As for the methods of `V`; the low `bk.len()` lanes of the `rows[h]`
/// rows (at least one) from `a[h]`, `lda` apart, must be readable.
#[inline(always)]
// lint: no_alloc
unsafe fn matvec_cols<V: Lanes, const SKIP: bool>(
    a: [*const f64; 2],
    lda: usize,
    rows: [usize; 2],
    bk: &[f64],
    acc: &mut [V; 2],
) {
    // SAFETY: the contract above.
    unsafe {
        let c0 = V::load_t(a[0], lda, rows[0], bk.len());
        let c1 = V::load_t(a[1], lda, rows[1].max(1), bk.len());
        for ((c0, c1), &bk) in c0.into_iter().zip(c1).zip(bk) {
            let bk = V::splat(bk);
            acc[0] = V::madd::<SKIP>(acc[0], c0, bk);
            acc[1] = V::madd::<SKIP>(acc[1], c1, bk);
        }
    }
}

/// The GEMM over lanes `V` for layout `L` (`NN`, `NT` or `TN`): the `n = 1`
/// kernel for a single output column, the register tile otherwise. It
/// overwrites `out`.
///
/// # Safety
/// As for the methods of `V`: inlined into a function compiled with `V`'s
/// target features, running on a CPU that has them.
#[inline(always)]
// lint: no_alloc
unsafe fn gemm_lanes<V: Lanes, const L: u8>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    (m, k_dim, n): (usize, usize, usize),
) {
    let (a, b, out) = (&a[..m * k_dim], &b[..k_dim * n], &mut out[..m * n]);
    // SAFETY: `V`'s features are the caller's contract, and the slices have
    // the product's shapes.
    unsafe {
        match (n, L) {
            (1, NT) => matvec::<V, L, false>(a, b, out, (m, k_dim)),
            (1, _) => matvec::<V, L, true>(a, b, out, (m, k_dim)),
            _ => gemm_tiled::<V, L>(a, b, out, (m, k_dim, n)),
        }
    }
}

/// The x86-64 lanes and the clones compiled for them.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gemm_lanes, Lanes};
    use std::arch::x86_64::*;

    /// The mask of the low `w <= 8` lanes of a zmm register.
    fn low_lanes(w: usize) -> __mmask8 {
        (0xFFu16 >> (8 - w)) as __mmask8
    }

    /// Four vectors per tile row: the 4 x 32 tile's sixteen accumulators and
    /// its four `B` vectors leave room in the 32 zmm registers. The
    /// exact-zero skip is a lane mask rather than a branch: ReLU activations
    /// make a zero `a` too frequent and too irregular to predict.
    // SAFETY: `load`, `store` and `load_t` are masked to the low `w` lanes,
    // and masked lanes are not accessed.
    unsafe impl Lanes for __m512d {
        const W: usize = 8;
        const ROWS: usize = super::MR;
        const NV: usize = 4;
        type Block = [__m512d; 8];

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            // SAFETY: AVX-512F is the caller's contract.
            unsafe { _mm512_set1_pd(x) }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn load(p: *const f64, w: usize) -> Self {
            // SAFETY: AVX-512F and the low `w` lanes are the caller's
            // contract.
            unsafe { _mm512_maskz_loadu_pd(low_lanes(w), p) }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn store(p: *mut f64, w: usize, v: Self) {
            // SAFETY: as for `load`.
            unsafe { _mm512_mask_storeu_pd(p, low_lanes(w), v) }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn madd<const SKIP: bool>(acc: Self, a: Self, b: Self) -> Self {
            // SAFETY: AVX-512F is the caller's contract.
            unsafe {
                let live = if SKIP {
                    _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_pd())
                } else {
                    0xFF
                };
                _mm512_mask_add_pd(acc, live, acc, _mm512_mul_pd(a, b))
            }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn load_t(a: *const f64, lda: usize, rows: usize, w: usize) -> Self::Block {
            // SAFETY: AVX-512F, and the low `w` lanes of row
            // `min(r, rows - 1)`, are the caller's contract.
            unsafe {
                let mut r = [_mm512_setzero_pd(); 8];
                for (i, row) in r.iter_mut().enumerate() {
                    *row = Self::load(a.add(i.min(rows - 1) * lda), w);
                }
                transpose8(r)
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

    /// The mask of the low `w <= 4` lanes of a ymm register.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn low_lanes_256(w: usize) -> __m256i {
        // SAFETY: AVX2 is the caller's contract.
        unsafe { _mm256_cmpgt_epi64(_mm256_set1_epi64x(w as i64), _mm256_setr_epi64x(0, 1, 2, 3)) }
    }

    /// Two vectors per tile row: the 4 x 8 tile's eight accumulators, its
    /// two `B` vectors, the broadcast `a`, the skip's mask, the zero it is
    /// compared with and one product fit in the sixteen ymm registers. The
    /// skip is a compare and a blend, which keeps the accumulator where the
    /// scalar loop skips the add.
    // SAFETY: `load`, `store` and `load_t` are plain loads and stores of all
    // four lanes, or masked to the low `w` lanes, and masked lanes are not
    // accessed.
    unsafe impl Lanes for __m256d {
        const W: usize = 4;
        const ROWS: usize = super::MR;
        const NV: usize = 2;
        type Block = [__m256d; 4];

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            // SAFETY: AVX is the caller's contract.
            unsafe { _mm256_set1_pd(x) }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn load(p: *const f64, w: usize) -> Self {
            // SAFETY: AVX2 and the low `w` lanes are the caller's contract.
            unsafe {
                if w == 4 {
                    _mm256_loadu_pd(p)
                } else {
                    _mm256_maskload_pd(p, low_lanes_256(w))
                }
            }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn store(p: *mut f64, w: usize, v: Self) {
            // SAFETY: as for `load`.
            unsafe {
                if w == 4 {
                    _mm256_storeu_pd(p, v)
                } else {
                    _mm256_maskstore_pd(p, low_lanes_256(w), v)
                }
            }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn madd<const SKIP: bool>(acc: Self, a: Self, b: Self) -> Self {
            // SAFETY: AVX is the caller's contract.
            unsafe {
                let step = _mm256_add_pd(acc, _mm256_mul_pd(a, b));
                if !SKIP {
                    return step;
                }
                _mm256_blendv_pd(acc, step, _mm256_cmp_pd::<_CMP_NEQ_UQ>(a, _mm256_setzero_pd()))
            }
        }

        // SAFETY: as the trait method states.
        #[inline(always)]
        unsafe fn load_t(a: *const f64, lda: usize, rows: usize, w: usize) -> Self::Block {
            // SAFETY: AVX, and the low `w` lanes of row `min(r, rows - 1)`,
            // are the caller's contract.
            unsafe {
                let mut r = [_mm256_setzero_pd(); 4];
                for (i, row) in r.iter_mut().enumerate() {
                    *row = Self::load(a.add(i.min(rows - 1) * lda), w);
                }
                // t[0] = (r0[0], r1[0], r0[2], r1[2]), t[1] the odd lanes; t[2..]
                // the same for rows 2 and 3.
                let t = [
                    _mm256_unpacklo_pd(r[0], r[1]),
                    _mm256_unpackhi_pd(r[0], r[1]),
                    _mm256_unpacklo_pd(r[2], r[3]),
                    _mm256_unpackhi_pd(r[2], r[3]),
                ];
                [
                    _mm256_permute2f128_pd::<0x20>(t[0], t[2]),
                    _mm256_permute2f128_pd::<0x20>(t[1], t[3]),
                    _mm256_permute2f128_pd::<0x31>(t[0], t[2]),
                    _mm256_permute2f128_pd::<0x31>(t[1], t[3]),
                ]
            }
        }
    }

    /// The AVX-512F clone of the layout-`L` GEMM.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    // lint: no_alloc
    pub(super) unsafe fn gemm_avx512<const L: u8>(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        dims: (usize, usize, usize),
    ) {
        // SAFETY: this clone is compiled with AVX-512F, which the caller
        // verified.
        unsafe { gemm_lanes::<__m512d, L>(a, b, out, dims) }
    }

    /// The AVX2 clone of the layout-`L` GEMM.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    // lint: no_alloc
    pub(super) unsafe fn gemm_avx2<const L: u8>(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        dims: (usize, usize, usize),
    ) {
        // SAFETY: this clone is compiled with AVX2, which the caller
        // verified.
        unsafe { gemm_lanes::<__m256d, L>(a, b, out, dims) }
    }
}

/// The instruction-set clones of the GEMM, narrowest first.
// Only the tests cap the dispatch below the widest clone, so outside them
// some variants are never built.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    /// Over `[f64; 4]`, compiled for the baseline target.
    Portable,
    /// Over `__m256d`, with AVX2.
    Avx2,
    /// Over `__m512d`, with AVX-512F.
    Avx512,
}

/// Runs the layout-`L` product on the widest clone, no wider than
/// `widest`, that the CPU supports: AVX-512F, then AVX2, then the portable
/// one. Every clone computes the same chains and overwrites `out`.
fn gemm<const L: u8>(
    widest: Isa,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    dims: (usize, usize, usize),
) {
    #[cfg(target_arch = "x86_64")]
    {
        if widest >= Isa::Avx512 && avx512_available() {
            // SAFETY: AVX-512F presence just verified by `avx512_available`.
            return unsafe { x86::gemm_avx512::<L>(a, b, out, dims) };
        }
        if widest >= Isa::Avx2 && avx2_available() {
            // SAFETY: AVX2 presence just verified by `avx2_available`.
            return unsafe { x86::gemm_avx2::<L>(a, b, out, dims) };
        }
    }
    // Off x86-64 the portable clone is the only one, so `widest` goes unread.
    let _ = widest;
    // SAFETY: the portable lanes use no target feature.
    unsafe { gemm_lanes::<[f64; 4], L>(a, b, out, dims) }
}

/// Matrix product `a * b` into a caller-provided `a.rows() x b.cols()`
/// buffer — the entry point behind `Matrix::matmul` and the pooled autodiff
/// tape. The buffer is fully overwritten (any prior contents are
/// discarded).
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
    gemm::<NN>(Isa::Avx512, a, b, out.as_mut_slice(), (m, k_dim, n));
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
    gemm::<NT>(Isa::Avx512, a, b, out.as_mut_slice(), (m, k_dim, n));
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
    gemm::<TN>(Isa::Avx512, a, b, out.as_mut_slice(), (m, k_dim, n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{randn, rng_from_seed};

    /// The historical unblocked i-k-j loop, the bit-identity oracle.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let oc = b.cols();
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..oc {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    /// The dot-product chain of every element of `A * B^T` (`b` holds `B`'s
    /// rows): `+0.0`, then each term in ascending `k` with no exact-zero
    /// skip.
    fn reference_nt(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            a.row(i).iter().zip(b.row(j)).fold(0.0, |s, (&x, &y)| s + x * y)
        })
    }

    /// The bits of every element, with each NaN mapped to one pattern: Rust
    /// leaves NaN payloads unspecified, so a NaN only has to meet a NaN.
    fn class_bits(m: &Matrix) -> Vec<u64> {
        let bits = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
        m.as_slice().iter().map(|&x| bits(x)).collect()
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

    /// The layout-`L` product on clone `isa` (no wider), with its operands
    /// as that layout stores them: `A * B`, `A * B^T` or `A^T * B`.
    fn product_on<const L: u8>(isa: Isa, a: &Matrix, b: &Matrix) -> Matrix {
        let dims = match L {
            NN => (a.rows(), a.cols(), b.cols()),
            NT => (a.rows(), a.cols(), b.rows()),
            _ => (a.cols(), a.rows(), b.cols()),
        };
        // The kernels overwrite `out`: a stale NaN must not leak into a chain.
        let mut out = Matrix::full(dims.0, dims.2, f64::NAN);
        gemm::<L>(isa, a.as_slice(), b.as_slice(), out.as_mut_slice(), dims);
        out
    }

    #[test]
    fn every_clone_keeps_the_chains_at_tile_edges() {
        // The shapes straddle every edge of each clone's tile: 4-row tiles
        // and 1-row tiles (m); 4- and 8-lane columns with masked tails, the
        // 8-, 16- and 32-column strips and the 128-column panel (n); the
        // 32-deep slab and an empty inner dimension (k). `a` holds +0.0 and
        // -0.0 and `b` sparse infinities and NaNs, so the nn/tn exact-zero
        // skip decides whether `0 * inf` joins a chain; nt has no skip.
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let clones = clones();
        let mut rng = rng_from_seed(23);
        for m in [1, 3, 4, 5, 41] {
            for n in [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129] {
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
                    let want = class_bits(&reference_matmul(&a, &b));
                    let want_nt = class_bits(&reference_nt(&a, &b_t));
                    for &isa in &clones {
                        let case = format!("{m}x{k}x{n} {isa:?}");
                        let nn = product_on::<NN>(isa, &a, &b);
                        assert_eq!(class_bits(&nn), want, "nn {case}");
                        let tn = product_on::<TN>(isa, &a_t, &b);
                        assert_eq!(class_bits(&tn), want, "tn {case}");
                        let nt = product_on::<NT>(isa, &a, &b_t);
                        assert_eq!(class_bits(&nt), want_nt, "nt {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_serial_gemm_is_bit_identical_to_reference() {
        // nn and tn through the public entry points, against the loop.
        let mut rng = rng_from_seed(0);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (40, 33, 29), (130, 257, 65), (256, 64, 129)] {
            let a = randn(&mut rng, m, k);
            let b = randn(&mut rng, k, n);
            let reference = reference_matmul(&a, &b);
            let a_t = a.transpose();
            for (name, got) in [("nn", a.matmul(&b)), ("tn", a_t.matmul_tn(&b))] {
                assert_eq!(got.as_slice(), reference.as_slice(), "{name} {m}x{k}x{n}");
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
        for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 0, 1), (0, 3, 1)] {
            let a = Matrix::full(m, k, -1.5);
            let b = Matrix::full(k, n, 2.0);
            let (a_t, b_t) = (a.transpose(), b.transpose());
            for (name, got) in
                [("nn", a.matmul(&b)), ("nt", a.matmul_nt(&b_t)), ("tn", a_t.matmul_tn(&b))]
            {
                assert_eq!(got.shape(), (m, n), "{name} {m}x{k}x{n}");
                if k == 0 {
                    assert!(
                        got.as_slice().iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
                        "{name} {m}x{k}x{n}: not +0.0"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_its_dot_product_definition() {
        // Every element of A * B^T is the plain dot-product chain from +0.0
        // in ascending k, with no exact-zero skip (0 * inf stays NaN).
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut rng = rng_from_seed(11);
        // 41 rows: the 4-row tiles leave a 1-row tile.
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
                let want = class_bits(&reference_nt(&a, &b));
                assert_eq!(class_bits(&a.matmul_nt(&b)), want, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn matvec_is_bit_identical_to_its_chain_definition() {
        // A single output column runs on the interleaved n = 1 kernel (nn/nt
        // transpose square blocks of `a`). Each element must still be its
        // own chain from +0.0 in ascending k: nn/tn skip an exactly-zero `a`
        // (0 * inf never joins the chain), nt adds every term (0 * inf is
        // NaN).
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let clones = clones();
        let mut rng = rng_from_seed(19);
        for m in [1, 3, 4, 5, 7, 8, 9, 17, 64, 129] {
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
                let chain = |i: usize, skip_zero: bool| {
                    a.row(i).iter().zip(b.as_slice()).fold(0.0, |s, (&x, &y)| {
                        if skip_zero && x == 0.0 {
                            s
                        } else {
                            s + x * y
                        }
                    })
                };
                for &isa in &clones {
                    for (name, got, skip_zero) in [
                        ("nn", product_on::<NN>(isa, &a, &b), true),
                        ("nt", product_on::<NT>(isa, &a, &b_t), false),
                        ("tn", product_on::<TN>(isa, &a_t, &b), true),
                    ] {
                        let want = Matrix::from_fn(m, 1, |i, _| chain(i, skip_zero));
                        assert_eq!(
                            class_bits(&got),
                            class_bits(&want),
                            "{name} m={m} k={k} {isa:?}"
                        );
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
        // One arithmetic: the banner's name for it.
        assert_eq!(NumericsMode::global(), NumericsMode::BitExact);
        assert_eq!(NumericsMode::global().as_str(), "bitexact");
    }
}
