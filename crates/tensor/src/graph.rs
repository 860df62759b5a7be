//! Define-by-run reverse-mode automatic differentiation over [`Matrix`]
//! values.
//!
//! A [`Graph`] is a tape of nodes; every builder method evaluates its result
//! eagerly and records the operation so that [`Graph::backward`] can sweep the
//! tape in reverse and accumulate gradients. The op set is the closure the
//! SBRL-HAP losses are built from: dense layers with their activations and
//! batch normalisation, the weighted factual losses, the weighted integral
//! probability metrics (including a differentiable Sinkhorn loop), the
//! weighted HSIC-RFF decorrelation penalty and the weight anchor `R_w`.
//! [`Graph::cos`] is the one exception: no loss builds it, but with
//! [`Graph::scale`], [`Graph::add_scalar`] and [`Graph::concat_cols`] it
//! spells the unfused reference that [`Graph::rff_features`] is held to bit
//! for bit.
//!
//! The tape is **reusable**: [`Graph::reset`] clears the recorded nodes but
//! parks every value/gradient buffer in an internal shape-keyed
//! [`BufferPool`], so the next step's forward and backward passes write into
//! recycled memory instead of allocating. A warmed-up training loop that
//! resets one graph per step performs no heap allocation at all, and every
//! number it produces is bit-identical to a loop that builds a fresh
//! [`Graph::new`] per step (same arithmetic, different memory).
//!
//! Typical use (one optimisation step = one reset):
//!
//! ```
//! use sbrl_tensor::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! for _step in 0..3 {
//!     g.reset(); // no-op on the first pass, recycles buffers afterwards
//!     let x = g.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
//!     let w = g.param(Matrix::ones(2, 1));
//!     let y = g.matmul(x, w);
//!     let sq = g.square(y);
//!     let loss = g.mean(sq);
//!     g.backward(loss);
//!     let grad_w = g.grad(w).expect("param gradient");
//!     assert_eq!(grad_w.shape(), (2, 1));
//! }
//! ```

use crate::kernels;
use crate::matrix::Matrix;
use crate::pool::BufferPool;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TensorId(pub(crate) usize);

/// The primitive operations the tape understands (37 variants). The
/// training losses and the layers they train record every variant except
/// [`Op::Cos`], which with [`Op::Scale`], [`Op::AddScalar`] and
/// [`Op::ConcatCols`] spells the reference [`Op::RffFeatures`] is tested
/// against. The composite builders ([`Graph::sub_row`], [`Graph::div_row`],
/// [`Graph::div_col`], [`Graph::sq_dist`]) record existing ops and add
/// none.
///
/// Gather ops reference index lists interned in the graph's arena (see
/// [`Graph::intern_indices`]) so that recording them is allocation-free on a
/// warmed-up tape.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Input node (parameter or constant).
    Leaf,
    Add(TensorId, TensorId),
    Sub(TensorId, TensorId),
    Mul(TensorId, TensorId),
    Div(TensorId, TensorId),
    MatMul(TensorId, TensorId),
    Transpose(TensorId),
    /// `(n x m) + (1 x m)` row broadcast.
    AddRow(TensorId, TensorId),
    /// `(n x m) * (1 x m)` row broadcast.
    MulRow(TensorId, TensorId),
    /// `(n x m) * (n x 1)` column broadcast.
    MulCol(TensorId, TensorId),
    /// `(n x 1) + (1 x m) -> n x m` outer sum (pairwise-distance helper).
    ColPlusRow(TensorId, TensorId),
    Neg(TensorId),
    Exp(TensorId),
    Sqrt(TensorId),
    Cos(TensorId),
    Sigmoid(TensorId),
    Softplus(TensorId),
    Relu(TensorId),
    /// Exponential linear unit with `alpha = 1`.
    Elu(TensorId),
    Square(TensorId),
    Recip(TensorId),
    Scale(TensorId, f64),
    AddScalar(TensorId),
    /// Sum of all elements -> `1 x 1`.
    Sum(TensorId),
    /// Mean of all elements -> `1 x 1`.
    Mean(TensorId),
    /// Column sums -> `1 x m`.
    SumAxis0(TensorId),
    /// Column means -> `1 x m`.
    MeanAxis0(TensorId),
    /// Row sums -> `n x 1`.
    SumAxis1(TensorId),
    /// Row gather (indices may repeat); backward scatter-adds. The second
    /// field indexes the graph's interned index-list arena.
    GatherRows(TensorId, usize),
    /// Column gather (indices may repeat); backward scatter-adds.
    GatherCols(TensorId, usize),
    ConcatCols(TensorId, TensorId),
    /// Full random-Fourier feature matrix `[s cos(w_1 z + p_1) | ... |
    /// s cos(w_k z + p_k)]` built in one pass — the fused form of `k`
    /// `scale`/`add_scalar`/`cos`/`scale` blocks plus the left-nested
    /// `concat_cols` chain, with identical per-element arithmetic and
    /// gradient accumulation order. Fields:
    /// `(input, coefficient-list id, post_scale)`.
    RffFeatures(TensorId, usize, f64),
    /// Sum of squares of all elements -> `1 x 1` (fused `square` + `sum`).
    SumSq(TensorId),
    /// Block-masked sum of squares over a `kd x kd` matrix -> `1 x 1`:
    /// entry `(p, q)` is multiplied by `1.0` when `(p % d == q % d)` equals
    /// `keep_diagonal` and by `0.0` otherwise (so `true` keeps only the
    /// block diagonal, `false` keeps everything else), then squared and
    /// folded in slice order — the fused form of the HSIC block mask
    /// (`constant` mask, `mul`, `square`, `sum`) chain, with identical
    /// arithmetic and none of the mask traffic. Fields:
    /// `(input, d, keep_diagonal)`.
    BlockMaskedSumSq(TensorId, usize, bool),
    /// `a^T * b` without materialising the transpose (fused `transpose` +
    /// `matmul`; same accumulation order and exact-zero skip).
    MatMulTn(TensorId, TensorId),
    /// Divide every element by the single value of a `1 x 1` node.
    DivScalarOf(TensorId, TensorId),
    /// A `1 x 1` value computed on another tape. Backward adds that tape's
    /// recorded gradients, times the upstream scalar, into their targets in
    /// record order. The field indexes the graph's replay-list arena.
    Replay(usize),
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) grad: Option<Matrix>,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
}

/// A reverse-mode autodiff tape with a shape-keyed buffer pool.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pool: BufferPool,
    /// Index lists referenced by gather ops, recycled across resets.
    idx_lists: Vec<Vec<usize>>,
    free_idx_lists: Vec<Vec<usize>>,
    /// `(omega, phi)` lists referenced by [`Op::RffFeatures`] nodes.
    coef_lists: Vec<Vec<(f64, f64)>>,
    free_coef_lists: Vec<Vec<(f64, f64)>>,
    /// Recycled `Vec<TensorId>` scratch buffers (layer-tap lists etc.).
    free_id_bufs: Vec<Vec<TensorId>>,
    /// `(target, gradient)` lists referenced by [`Op::Replay`] nodes; the
    /// gradient buffers come from (and return to) the tape's pool.
    replay_lists: Vec<Vec<(TensorId, Matrix)>>,
    free_replay_lists: Vec<Vec<(TensorId, Matrix)>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(256), ..Self::default() }
    }

    /// Number of nodes recorded so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Clears the tape for the next step, parking every node's value and
    /// gradient buffer (and the gather index lists) for reuse.
    ///
    /// After a warm-up step with the same shapes, subsequent steps allocate
    /// nothing; results are bit-identical to using a fresh [`Graph::new`].
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.give(node.value);
            if let Some(gm) = node.grad {
                self.pool.give(gm);
            }
        }
        for mut list in self.idx_lists.drain(..) {
            list.clear();
            self.free_idx_lists.push(list);
        }
        for mut list in self.coef_lists.drain(..) {
            list.clear();
            self.free_coef_lists.push(list);
        }
        for mut list in self.replay_lists.drain(..) {
            for (_, delta) in list.drain(..) {
                self.pool.give(delta);
            }
            self.free_replay_lists.push(list);
        }
    }

    /// Number of buffers parked in the tape's pool (observability hook for
    /// the allocation probe and tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.parked()
    }

    /// Takes a `rows x cols` buffer from the tape's pool. Contents are
    /// **unspecified**; overwrite every element before handing the matrix to
    /// [`Graph::constant`] / [`Graph::param`] (the usual use: build a leaf
    /// value in place without allocating).
    pub fn take_buffer(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.take(rows, cols)
    }

    /// Takes a recycled `Vec<TensorId>` scratch buffer (cleared). Callers
    /// that want allocation-free steady-state steps should hand it back via
    /// [`Graph::give_id_buf`] when done; dropping it instead is safe but
    /// allocates again next time.
    pub fn take_id_buf(&mut self) -> Vec<TensorId> {
        let mut buf = self.free_id_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Parks a `Vec<TensorId>` scratch buffer for reuse.
    pub fn give_id_buf(&mut self, buf: Vec<TensorId>) {
        self.free_id_bufs.push(buf);
    }

    /// Interns an index list in the tape's arena and returns its slot.
    fn intern_indices(&mut self, idx: &[usize]) -> usize {
        let mut list = self.free_idx_lists.pop().unwrap_or_default();
        list.clear();
        list.extend_from_slice(idx);
        self.idx_lists.push(list);
        self.idx_lists.len() - 1
    }

    /// Interns an `(omega, phi)` coefficient list and returns its slot.
    fn intern_coefs(&mut self, coefs: &[(f64, f64)]) -> usize {
        let mut list = self.free_coef_lists.pop().unwrap_or_default();
        list.clear();
        list.extend_from_slice(coefs);
        self.coef_lists.push(list);
        self.coef_lists.len() - 1
    }

    /// Pool buffer shaped like an existing node's value.
    fn take_like(&mut self, id: TensorId) -> Matrix {
        let (r, c) = self.nodes[id.0].value.shape();
        self.pool.take(r, c)
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> TensorId {
        self.nodes.push(Node { value, grad: None, op, requires_grad });
        TensorId(self.nodes.len() - 1)
    }

    /// Inserts a constant leaf (no gradient is accumulated into it).
    pub fn constant(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf, false)
    }

    /// Inserts a trainable leaf; its gradient is available after
    /// [`Graph::backward`].
    pub fn param(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf, true)
    }

    /// Inserts a constant leaf by copying `value` into a pooled buffer
    /// (allocation-free once warm).
    pub fn constant_copied(&mut self, value: &Matrix) -> TensorId {
        let mut buf = self.pool.take(value.rows(), value.cols());
        buf.copy_from(value);
        self.push(buf, Op::Leaf, false)
    }

    /// Inserts a trainable leaf by copying `value` into a pooled buffer.
    pub fn param_copied(&mut self, value: &Matrix) -> TensorId {
        let mut buf = self.pool.take(value.rows(), value.cols());
        buf.copy_from(value);
        self.push(buf, Op::Leaf, true)
    }

    /// Inserts an `n x 1` constant column from a slice (pooled).
    pub fn constant_col(&mut self, values: &[f64]) -> TensorId {
        let mut buf = self.pool.take(values.len(), 1);
        buf.as_mut_slice().copy_from_slice(values);
        self.push(buf, Op::Leaf, false)
    }

    /// Inserts a `rows x cols` constant filled with `v` (pooled).
    pub fn constant_full(&mut self, rows: usize, cols: usize, v: f64) -> TensorId {
        let mut buf = self.pool.take(rows, cols);
        buf.fill_with(v);
        self.push(buf, Op::Leaf, false)
    }

    /// Inserts a constant leaf holding the listed rows of `src` (pooled;
    /// indices may repeat). Equivalent to `constant(src.select_rows(idx))`
    /// without the intermediate allocation.
    #[track_caller]
    pub fn constant_selected_rows(&mut self, src: &Matrix, idx: &[usize]) -> TensorId {
        let mut buf = self.pool.take(idx.len(), src.cols());
        for (k, &i) in idx.iter().enumerate() {
            buf.row_mut(k).copy_from_slice(src.row(i));
        }
        self.push(buf, Op::Leaf, false)
    }

    /// Inserts a `1 x 1` constant.
    pub fn scalar_const(&mut self, v: f64) -> TensorId {
        let mut buf = self.pool.take(1, 1);
        buf.as_mut_slice()[0] = v;
        self.constant(buf)
    }

    /// Value of a node.
    pub fn value(&self, id: TensorId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The single value of a `1 x 1` node.
    #[track_caller]
    pub fn scalar(&self, id: TensorId) -> f64 {
        self.nodes[id.0].value.item()
    }

    /// Gradient of a node, if it was reached by the last backward sweep.
    pub fn grad(&self, id: TensorId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Whether gradients flow into (and through) a node.
    pub fn requires_grad(&self, id: TensorId) -> bool {
        self.requires(id)
    }

    #[inline]
    fn requires(&self, id: TensorId) -> bool {
        self.nodes[id.0].requires_grad
    }

    fn unary(&mut self, a: TensorId, value: Matrix, op: Op) -> TensorId {
        let rg = self.requires(a);
        self.push(value, op, rg)
    }

    fn binary(&mut self, a: TensorId, b: TensorId, value: Matrix, op: Op) -> TensorId {
        let rg = self.requires(a) || self.requires(b);
        self.push(value, op, rg)
    }

    // ----- elementwise binary ops -------------------------------------------------

    /// Elementwise `a + b` (same shapes).
    #[track_caller]
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let mut v = self.take_like(a);
        v.fill_zip(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x + y);
        self.binary(a, b, v, Op::Add(a, b))
    }

    /// Elementwise `a - b` (same shapes).
    #[track_caller]
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let mut v = self.take_like(a);
        v.fill_zip(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x - y);
        self.binary(a, b, v, Op::Sub(a, b))
    }

    /// Elementwise `a * b` (same shapes).
    #[track_caller]
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let mut v = self.take_like(a);
        v.fill_zip(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x * y);
        self.binary(a, b, v, Op::Mul(a, b))
    }

    /// Elementwise `a / b` (same shapes).
    #[track_caller]
    pub fn div(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let mut v = self.take_like(a);
        v.fill_zip(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x / y);
        self.binary(a, b, v, Op::Div(a, b))
    }

    // ----- linear algebra ---------------------------------------------------------

    /// Matrix product `a * b`.
    #[track_caller]
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (m, n) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut v = self.pool.take(m, n);
        crate::kernels::gemm_into(&self.nodes[a.0].value, &self.nodes[b.0].value, &mut v);
        self.binary(a, b, v, Op::MatMul(a, b))
    }

    /// Matrix product `a^T * b` without materialising the transpose — a
    /// fused `transpose` + `matmul` with the same per-element accumulation
    /// order and exact-zero skip, so results are bit-identical to the
    /// two-op chain while skipping the transposed copy.
    #[track_caller]
    pub fn matmul_tn(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (m, n) = (self.nodes[a.0].value.cols(), self.nodes[b.0].value.cols());
        let mut v = self.pool.take(m, n);
        crate::kernels::gemm_tn_into(&self.nodes[a.0].value, &self.nodes[b.0].value, &mut v);
        self.binary(a, b, v, Op::MatMulTn(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.take(c, r);
        v.transpose_from(&self.nodes[a.0].value);
        self.unary(a, v, Op::Transpose(a))
    }

    // ----- broadcasts -------------------------------------------------------------

    /// Adds a `1 x m` row vector to every row of an `n x m` matrix.
    #[track_caller]
    pub fn add_row(&mut self, a: TensorId, row: TensorId) -> TensorId {
        let (ar, ac) = self.nodes[a.0].value.shape();
        let (rr, rc) = self.nodes[row.0].value.shape();
        assert!(rr == 1 && rc == ac, "add_row: {ar}x{ac} + {rr}x{rc}");
        let mut v = self.take_like(a);
        let av = &self.nodes[a.0].value;
        let rv = self.nodes[row.0].value.as_slice();
        for i in 0..ar {
            for ((x, &s), &r) in v.row_mut(i).iter_mut().zip(av.row(i)).zip(rv) {
                *x = s + r;
            }
        }
        self.binary(a, row, v, Op::AddRow(a, row))
    }

    /// Multiplies every row of an `n x m` matrix by a `1 x m` row vector.
    #[track_caller]
    pub fn mul_row(&mut self, a: TensorId, row: TensorId) -> TensorId {
        let (ar, ac) = self.nodes[a.0].value.shape();
        let (rr, rc) = self.nodes[row.0].value.shape();
        assert!(rr == 1 && rc == ac, "mul_row: {ar}x{ac} * {rr}x{rc}");
        let mut v = self.take_like(a);
        let av = &self.nodes[a.0].value;
        let rv = self.nodes[row.0].value.as_slice();
        for i in 0..ar {
            for ((x, &s), &r) in v.row_mut(i).iter_mut().zip(av.row(i)).zip(rv) {
                *x = s * r;
            }
        }
        self.binary(a, row, v, Op::MulRow(a, row))
    }

    /// Multiplies every column of an `n x m` matrix by an `n x 1` column
    /// vector (row-wise scaling, e.g. by sample weights).
    #[track_caller]
    pub fn mul_col(&mut self, a: TensorId, col: TensorId) -> TensorId {
        let (ar, ac) = self.nodes[a.0].value.shape();
        let (cr, cc) = self.nodes[col.0].value.shape();
        assert!(cc == 1 && cr == ar, "mul_col: {ar}x{ac} * {cr}x{cc}");
        let mut v = self.take_like(a);
        let av = &self.nodes[a.0].value;
        let cv = self.nodes[col.0].value.as_slice();
        for (i, &c) in cv.iter().enumerate() {
            for (x, &s) in v.row_mut(i).iter_mut().zip(av.row(i)) {
                *x = s * c;
            }
        }
        self.binary(a, col, v, Op::MulCol(a, col))
    }

    /// Outer sum of an `n x 1` column and a `1 x m` row -> `n x m`.
    #[track_caller]
    pub fn col_plus_row(&mut self, col: TensorId, row: TensorId) -> TensorId {
        let (cr, cc) = self.nodes[col.0].value.shape();
        let (rr, rc) = self.nodes[row.0].value.shape();
        assert!(cc == 1 && rr == 1, "col_plus_row: {cr}x{cc} (+) {rr}x{rc}");
        let mut v = self.pool.take(cr, rc);
        let cv = self.nodes[col.0].value.as_slice();
        let rv = self.nodes[row.0].value.as_slice();
        for (i, &c) in cv.iter().enumerate() {
            for (x, &r) in v.row_mut(i).iter_mut().zip(rv) {
                *x = c + r;
            }
        }
        self.binary(col, row, v, Op::ColPlusRow(col, row))
    }

    // ----- elementwise unary ops --------------------------------------------------

    /// Pool-backed elementwise map over a node's value.
    fn unary_map(&mut self, a: TensorId, op: Op, f: impl Fn(f64) -> f64) -> TensorId {
        let mut v = self.take_like(a);
        v.fill_map(&self.nodes[a.0].value, f);
        self.unary(a, v, op)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Neg(a), |x| -x)
    }

    /// Elementwise `exp`, bit for bit `f64::exp` (see [`kernels::exp_into`]).
    pub fn exp(&mut self, a: TensorId) -> TensorId {
        let mut v = self.take_like(a);
        kernels::exp_into(self.nodes[a.0].value.as_slice(), v.as_mut_slice());
        self.unary(a, v, Op::Exp(a))
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Sqrt(a), f64::sqrt)
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Cos(a), f64::cos)
    }

    /// Elementwise logistic sigmoid (numerically stable).
    pub fn sigmoid(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Sigmoid(a), stable_sigmoid)
    }

    /// Elementwise softplus `ln(1 + e^x)` (numerically stable).
    pub fn softplus(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Softplus(a), stable_softplus)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Elementwise exponential linear unit with `alpha = 1`,
    /// `x > 0 ? x : exp(x) - 1` (see [`kernels::elu_into`]).
    pub fn elu(&mut self, a: TensorId) -> TensorId {
        let mut v = self.take_like(a);
        kernels::elu_into(self.nodes[a.0].value.as_slice(), v.as_mut_slice());
        self.unary(a, v, Op::Elu(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Square(a), |x| x * x)
    }

    /// Elementwise reciprocal.
    pub fn recip(&mut self, a: TensorId) -> TensorId {
        self.unary_map(a, Op::Recip(a), f64::recip)
    }

    /// Multiplies every element by the constant `s`.
    pub fn scale(&mut self, a: TensorId, s: f64) -> TensorId {
        self.unary_map(a, Op::Scale(a, s), |x| x * s)
    }

    /// Adds the constant `s` to every element.
    pub fn add_scalar(&mut self, a: TensorId, s: f64) -> TensorId {
        self.unary_map(a, Op::AddScalar(a), |x| x + s)
    }

    /// Full random-Fourier feature matrix: for an `n x d` input and `k`
    /// coefficient pairs, the `n x (k*d)` matrix whose block `i` is
    /// `post_scale * cos(omega_i * z + phi_i)` — one tape node instead of
    /// `k` `scale`/`add_scalar`/`cos`/`scale` blocks chained through
    /// [`Graph::concat_cols`], with identical values and gradients.
    ///
    /// # Panics
    /// Panics if `coefs` is empty.
    #[track_caller]
    pub fn rff_features(&mut self, a: TensorId, coefs: &[(f64, f64)], post_scale: f64) -> TensorId {
        assert!(!coefs.is_empty(), "rff_features: need at least one (omega, phi) pair");
        let (n, d) = self.nodes[a.0].value.shape();
        let k = coefs.len();
        let mut v = self.pool.take(n, k * d);
        {
            let av = &self.nodes[a.0].value;
            for r in 0..n {
                let src = av.row(r);
                let dst = v.row_mut(r);
                for (i, &(omega, phi)) in coefs.iter().enumerate() {
                    for (o, &x) in dst[i * d..(i + 1) * d].iter_mut().zip(src) {
                        *o = (x * omega + phi).cos() * post_scale;
                    }
                }
            }
        }
        let list = self.intern_coefs(coefs);
        self.unary(a, v, Op::RffFeatures(a, list, post_scale))
    }

    // ----- reductions ---------------------------------------------------------

    fn scalar_node(&mut self, a: TensorId, value: f64, op: Op) -> TensorId {
        let mut v = self.pool.take(1, 1);
        v.as_mut_slice()[0] = value;
        self.unary(a, v, op)
    }

    /// Sum of all elements (`1 x 1`).
    pub fn sum(&mut self, a: TensorId) -> TensorId {
        let s = self.nodes[a.0].value.sum();
        self.scalar_node(a, s, Op::Sum(a))
    }

    /// Mean of all elements (`1 x 1`).
    pub fn mean(&mut self, a: TensorId) -> TensorId {
        let m = self.nodes[a.0].value.mean();
        self.scalar_node(a, m, Op::Mean(a))
    }

    /// Column sums into a pooled `1 x cols` buffer (accumulation order
    /// matches [`Matrix::sum_axis0`] bit for bit).
    fn fill_col_sums(&mut self, a: TensorId) -> Matrix {
        col_sums_of(&mut self.pool, &self.nodes[a.0].value)
    }

    /// Column sums (`1 x m`).
    pub fn sum_axis0(&mut self, a: TensorId) -> TensorId {
        let v = self.fill_col_sums(a);
        self.unary(a, v, Op::SumAxis0(a))
    }

    /// Column means (`1 x m`).
    pub fn mean_axis0(&mut self, a: TensorId) -> TensorId {
        let r = self.nodes[a.0].value.rows();
        let mut v = self.fill_col_sums(a);
        if r > 0 {
            let inv = 1.0 / r as f64;
            for x in v.as_mut_slice() {
                *x *= inv;
            }
        }
        self.unary(a, v, Op::MeanAxis0(a))
    }

    /// Row sums into a pooled `rows x 1` buffer: a serial left-to-right fold
    /// per row.
    fn fill_row_sums(&mut self, a: TensorId) -> Matrix {
        row_sums_of(&mut self.pool, &self.nodes[a.0].value)
    }

    /// Row sums (`n x 1`).
    pub fn sum_axis1(&mut self, a: TensorId) -> TensorId {
        let v = self.fill_row_sums(a);
        self.unary(a, v, Op::SumAxis1(a))
    }

    // ----- structural ops -------------------------------------------------------

    /// Gathers the listed rows (indices may repeat).
    #[track_caller]
    pub fn gather_rows(&mut self, a: TensorId, idx: &[usize]) -> TensorId {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.pool.take(idx.len(), cols);
        let av = &self.nodes[a.0].value;
        for (k, &i) in idx.iter().enumerate() {
            assert!(i < rows, "gather_rows: index {i} out of bounds ({rows} rows)");
            v.row_mut(k).copy_from_slice(av.row(i));
        }
        let list = self.intern_indices(idx);
        self.unary(a, v, Op::GatherRows(a, list))
    }

    /// Gathers the listed columns (indices may repeat).
    #[track_caller]
    pub fn gather_cols(&mut self, a: TensorId, idx: &[usize]) -> TensorId {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.pool.take(rows, idx.len());
        let av = &self.nodes[a.0].value;
        for (k, &j) in idx.iter().enumerate() {
            assert!(j < cols, "gather_cols: index {j} out of bounds ({cols} cols)");
            for i in 0..rows {
                v[(i, k)] = av[(i, j)];
            }
        }
        let list = self.intern_indices(idx);
        self.unary(a, v, Op::GatherCols(a, list))
    }

    /// Horizontal concatenation `[a | b]`.
    #[track_caller]
    pub fn concat_cols(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ac) = self.nodes[a.0].value.shape();
        let (br, bc) = self.nodes[b.0].value.shape();
        assert_eq!(ar, br, "concat_cols: row counts differ");
        let mut v = self.pool.take(ar, ac + bc);
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        for i in 0..ar {
            let row = v.row_mut(i);
            row[..ac].copy_from_slice(av.row(i));
            row[ac..].copy_from_slice(bv.row(i));
        }
        self.binary(a, b, v, Op::ConcatCols(a, b))
    }

    /// Divides every element of `a` by the value of the `1 x 1` node `s`.
    #[track_caller]
    pub fn div_scalar_of(&mut self, a: TensorId, s: TensorId) -> TensorId {
        let sv = self.nodes[s.0].value.item();
        let inv = 1.0 / sv;
        let mut v = self.take_like(a);
        v.fill_map(&self.nodes[a.0].value, |x| x * inv);
        self.binary(a, s, v, Op::DivScalarOf(a, s))
    }

    /// Splices the `1 x 1` node `out` of tape `src`, after `src`'s backward
    /// sweep, into this tape as a scalar with the same value. For each
    /// `(leaf, target)` pair, in order, the gradient `src` holds for `leaf`
    /// is copied into this tape's pool; the node's backward adds each copy,
    /// times the upstream scalar, into `target` in the same order. An
    /// upstream of exactly `1.0` adds the recorded bits unchanged, so a term
    /// built and differentiated on its own tape reaches `target` exactly as
    /// it would have on this one, provided each `leaf` received a single
    /// delta on `src`. Leaves `src` did not reach are skipped.
    ///
    /// # Panics
    /// Panics if `out` is not `1 x 1`, or if a leaf's gradient is not
    /// shaped like its target.
    #[track_caller]
    pub fn replay(
        &mut self,
        src: &Graph,
        out: TensorId,
        grads: &[(TensorId, TensorId)],
    ) -> TensorId {
        let mut list = self.free_replay_lists.pop().unwrap_or_default();
        let mut requires_grad = false;
        for &(leaf, target) in grads {
            let Some(delta) = src.grad(leaf) else { continue };
            assert_eq!(
                delta.shape(),
                self.nodes[target.0].value.shape(),
                "replay: gradient and target shapes differ"
            );
            let mut buf = self.pool.take(delta.rows(), delta.cols());
            buf.copy_from(delta);
            list.push((target, buf));
            requires_grad |= self.requires(target);
        }
        self.replay_lists.push(list);
        let op = Op::Replay(self.replay_lists.len() - 1);
        let mut v = self.pool.take(1, 1);
        v.as_mut_slice()[0] = src.scalar(out);
        self.push(v, op, requires_grad)
    }

    // ----- composite helpers ------------------------------------------------------

    /// `a - row` broadcast (composed from [`Graph::add_row`] and [`Graph::neg`]).
    pub fn sub_row(&mut self, a: TensorId, row: TensorId) -> TensorId {
        let n = self.neg(row);
        self.add_row(a, n)
    }

    /// `a / row` broadcast.
    pub fn div_row(&mut self, a: TensorId, row: TensorId) -> TensorId {
        let r = self.recip(row);
        self.mul_row(a, r)
    }

    /// `a / col` broadcast.
    pub fn div_col(&mut self, a: TensorId, col: TensorId) -> TensorId {
        let r = self.recip(col);
        self.mul_col(a, r)
    }

    /// Block-masked sum of squares (`1 x 1`): multiplies entry `(p, q)` of a
    /// square matrix by `1.0` when `p % d == q % d` equals `keep_diagonal`
    /// (`0.0` otherwise), squares, and folds in slice order. Arithmetic is
    /// identical to materialising the historical `{0,1}` mask matrix and
    /// running `mul` + `square` + `sum`, so values and gradients are
    /// bit-identical — the mask just never exists in memory.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    #[track_caller]
    pub fn block_masked_sumsq(&mut self, a: TensorId, d: usize, keep_diagonal: bool) -> TensorId {
        assert!(d > 0, "block_masked_sumsq: block width must be positive");
        let mut acc = 0.0;
        {
            let av = &self.nodes[a.0].value;
            let rows = av.rows();
            // Residues tracked incrementally (no per-element division).
            let mut pm = 0;
            for p in 0..rows {
                let mut qm = 0;
                for &x in av.row(p) {
                    let m = if (pm == qm) == keep_diagonal { 1.0 } else { 0.0 };
                    let v = x * m;
                    acc += v * v;
                    qm += 1;
                    if qm == d {
                        qm = 0;
                    }
                }
                pm += 1;
                if pm == d {
                    pm = 0;
                }
            }
        }
        self.scalar_node(a, acc, Op::BlockMaskedSumSq(a, d, keep_diagonal))
    }

    /// Sum of squares of all elements (`1 x 1`) — a fused `square` + `sum`
    /// (each element is squared then folded in slice order, exactly like the
    /// historical two-op chain, without materialising the squared matrix).
    pub fn sumsq(&mut self, a: TensorId) -> TensorId {
        let mut acc = 0.0;
        for &x in self.nodes[a.0].value.as_slice() {
            acc += x * x;
        }
        self.scalar_node(a, acc, Op::SumSq(a))
    }

    /// Squared Euclidean norm of the difference of two same-shape tensors.
    pub fn sq_dist(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let d = self.sub(a, b);
        self.sumsq(d)
    }
}

/// Numerically stable logistic sigmoid.
pub fn stable_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^x)`.
pub fn stable_softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

impl Graph {
    /// Reverse-mode sweep seeding `d loss / d loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 x 1` node.
    #[track_caller]
    pub fn backward(&mut self, loss: TensorId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be a scalar (1x1) node"
        );
        for i in 0..self.nodes.len() {
            if let Some(gm) = self.nodes[i].grad.take() {
                self.pool.give(gm);
            }
        }
        let mut seed = self.pool.take(1, 1);
        seed.as_mut_slice()[0] = 1.0;
        self.nodes[loss.0].grad = Some(seed);

        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.take() else { continue };
            let op = self.nodes[i].op;
            self.propagate(i, &g, op);
            self.nodes[i].grad = Some(g);
        }
    }

    /// Adds `delta` into the gradient slot of `target`, recycling `delta`'s
    /// buffer when it is not kept.
    fn accumulate(&mut self, target: TensorId, delta: Matrix) {
        if !self.nodes[target.0].requires_grad {
            self.pool.give(delta);
            return;
        }
        match &mut self.nodes[target.0].grad {
            Some(acc) => {
                acc.add_assign(&delta);
                self.pool.give(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Pool buffer shaped like the upstream gradient.
    fn take_like_grad(&mut self, g: &Matrix) -> Matrix {
        self.pool.take(g.rows(), g.cols())
    }

    /// Applies the backward rule of `op` for node `i` with upstream gradient
    /// `g`. Deltas destined for nodes that do not require gradients are not
    /// even computed (the arithmetic for every reached node is unchanged, so
    /// results stay bit-identical).
    fn propagate(&mut self, i: usize, g: &Matrix, op: Op) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.copy_from(g);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    let mut d = self.take_like_grad(g);
                    d.copy_from(g);
                    self.accumulate(b, d);
                }
            }
            Op::Sub(a, b) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.copy_from(g);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    let mut d = self.take_like_grad(g);
                    d.fill_map(g, |x| -x);
                    self.accumulate(b, d);
                }
            }
            Op::Mul(a, b) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[b.0].value, |gv, bv| gv * bv);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[a.0].value, |gv, av| gv * av);
                    self.accumulate(b, d);
                }
            }
            Op::Div(a, b) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[b.0].value, |gv, bv| gv / bv);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    // Matches the historical `g * a / b / b * -1` chain.
                    let mut d = self.take_like_grad(g);
                    let av = self.nodes[a.0].value.as_slice();
                    let bv = self.nodes[b.0].value.as_slice();
                    for ((o, &gv), (&a_i, &b_i)) in
                        d.as_mut_slice().iter_mut().zip(g.as_slice()).zip(av.iter().zip(bv))
                    {
                        *o = -(gv * a_i / b_i / b_i);
                    }
                    self.accumulate(b, d);
                }
            }
            Op::MatMul(a, b) => {
                // Skip the (potentially large) delta products for constants.
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    crate::kernels::gemm_nt_into(g, &self.nodes[b.0].value, &mut d);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    let (r, c) = self.nodes[b.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    crate::kernels::gemm_tn_into(&self.nodes[a.0].value, g, &mut d);
                    self.accumulate(b, d);
                }
            }
            Op::Transpose(a) => {
                if self.requires(a) {
                    let mut d = self.pool.take(g.cols(), g.rows());
                    d.transpose_from(g);
                    self.accumulate(a, d);
                }
            }
            Op::AddRow(a, row) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.copy_from(g);
                    self.accumulate(a, d);
                }
                if self.requires(row) {
                    let d = col_sums_of(&mut self.pool, g);
                    self.accumulate(row, d);
                }
            }
            Op::MulRow(a, row) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    let rv = self.nodes[row.0].value.as_slice();
                    for r in 0..g.rows() {
                        for ((x, &gv), &s) in d.row_mut(r).iter_mut().zip(g.row(r)).zip(rv) {
                            *x = gv * s;
                        }
                    }
                    self.accumulate(a, d);
                }
                if self.requires(row) {
                    // g .* a, column-summed in row order (matches the
                    // historical `g.mul(a).sum_axis0()` exactly).
                    let mut d = self.pool.take_zeroed(1, g.cols());
                    let av = &self.nodes[a.0].value;
                    for r in 0..g.rows() {
                        for ((o, &gv), &avv) in
                            d.as_mut_slice().iter_mut().zip(g.row(r)).zip(av.row(r))
                        {
                            *o += gv * avv;
                        }
                    }
                    self.accumulate(row, d);
                }
            }
            Op::MulCol(a, col) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    let cv = self.nodes[col.0].value.as_slice();
                    for (r, &s) in cv.iter().enumerate() {
                        for (x, &gv) in d.row_mut(r).iter_mut().zip(g.row(r)) {
                            *x = gv * s;
                        }
                    }
                    self.accumulate(a, d);
                }
                if self.requires(col) {
                    // g .* a, row-summed (matches `g.mul(a).sum_axis1()`).
                    let mut d = self.pool.take(g.rows(), 1);
                    let av = &self.nodes[a.0].value;
                    for (r, o) in d.as_mut_slice().iter_mut().enumerate() {
                        *o = g.row(r).iter().zip(av.row(r)).map(|(&gv, &avv)| gv * avv).sum();
                    }
                    self.accumulate(col, d);
                }
            }
            Op::ColPlusRow(col, row) => {
                if self.requires(col) {
                    let d = row_sums_of(&mut self.pool, g);
                    self.accumulate(col, d);
                }
                if self.requires(row) {
                    let d = col_sums_of(&mut self.pool, g);
                    self.accumulate(row, d);
                }
            }
            Op::Neg(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_map(g, |x| -x);
                    self.accumulate(a, d);
                }
            }
            Op::Exp(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[i].value, |gv, out| gv * out);
                    self.accumulate(a, d);
                }
            }
            Op::Sqrt(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[i].value, |gv, out| 0.5 * gv / out);
                    self.accumulate(a, d);
                }
            }
            Op::Cos(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[a.0].value, |gv, x| -gv * x.sin());
                    self.accumulate(a, d);
                }
            }
            Op::Sigmoid(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[i].value, |gv, out| gv * out * (1.0 - out));
                    self.accumulate(a, d);
                }
            }
            Op::Softplus(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[a.0].value, |gv, x| gv * stable_sigmoid(x));
                    self.accumulate(a, d);
                }
            }
            Op::Relu(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[a.0].value, |gv, x| if x > 0.0 { gv } else { 0.0 });
                    self.accumulate(a, d);
                }
            }
            Op::Elu(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[i].value, |gv, out| {
                        if out > 0.0 {
                            gv
                        } else {
                            gv * (out + 1.0)
                        }
                    });
                    self.accumulate(a, d);
                }
            }
            Op::Square(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[a.0].value, |gv, x| 2.0 * gv * x);
                    self.accumulate(a, d);
                }
            }
            Op::Recip(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_zip(g, &self.nodes[i].value, |gv, out| -gv * out * out);
                    self.accumulate(a, d);
                }
            }
            Op::Scale(a, s) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.fill_map(g, |x| x * s);
                    self.accumulate(a, d);
                }
            }
            Op::AddScalar(a) => {
                if self.requires(a) {
                    let mut d = self.take_like_grad(g);
                    d.copy_from(g);
                    self.accumulate(a, d);
                }
            }
            Op::Sum(a) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    d.fill_with(g.item());
                    self.accumulate(a, d);
                }
            }
            Op::Mean(a) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let n = (r * c) as f64;
                    let mut d = self.pool.take(r, c);
                    d.fill_with(g.item() / n);
                    self.accumulate(a, d);
                }
            }
            Op::SumAxis0(a) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    let gv = g.as_slice();
                    for row in 0..r {
                        d.row_mut(row).copy_from_slice(gv);
                    }
                    self.accumulate(a, d);
                }
            }
            Op::MeanAxis0(a) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    let gv = g.as_slice();
                    let inv = 1.0 / r as f64;
                    for row in 0..r {
                        for (o, &x) in d.row_mut(row).iter_mut().zip(gv) {
                            *o = x * inv;
                        }
                    }
                    self.accumulate(a, d);
                }
            }
            Op::SumAxis1(a) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    let gv = g.as_slice();
                    for (row, &x) in gv.iter().enumerate().take(r) {
                        d.row_mut(row).fill(x);
                    }
                    self.accumulate(a, d);
                }
            }
            Op::GatherRows(a, list) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take_zeroed(r, c);
                    for (k, &src) in self.idx_lists[list].iter().enumerate() {
                        for (x, &gvv) in d.row_mut(src).iter_mut().zip(g.row(k)) {
                            *x += gvv;
                        }
                    }
                    self.accumulate(a, d);
                }
            }
            Op::GatherCols(a, list) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = self.pool.take_zeroed(r, c);
                    for (k, &src) in self.idx_lists[list].iter().enumerate() {
                        for row in 0..r {
                            d[(row, src)] += g[(row, k)];
                        }
                    }
                    self.accumulate(a, d);
                }
            }
            Op::ConcatCols(a, b) => {
                let ac = self.nodes[a.0].value.cols();
                let total = g.cols();
                if self.requires(a) {
                    let d = slice_cols_of(&mut self.pool, g, 0, ac);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    let d = slice_cols_of(&mut self.pool, g, ac, total);
                    self.accumulate(b, d);
                }
            }
            Op::RffFeatures(a, list, post_scale) => {
                if self.requires(a) {
                    // The historical chain accumulated one delta per block
                    // into the input's gradient in descending block order
                    // (reverse tape order). When the gradient slot is still
                    // empty that chain is `t_{k-1} + t_{k-2} + ...` and can
                    // be folded in one pass; when another consumer already
                    // stored a gradient, the chain's per-block add_assigns
                    // must be replayed verbatim to keep the association —
                    // and therefore the bits — identical.
                    let (n, d) = self.nodes[a.0].value.shape();
                    if self.nodes[a.0].grad.is_none() {
                        let mut delta = self.pool.take(n, d);
                        {
                            let av = &self.nodes[a.0].value;
                            let coefs = &self.coef_lists[list];
                            for r in 0..n {
                                let src = av.row(r);
                                let grow = g.row(r);
                                let drow = delta.row_mut(r);
                                for (c, (o, &x)) in drow.iter_mut().zip(src).enumerate() {
                                    let mut acc = 0.0;
                                    for (i, &(omega, phi)) in coefs.iter().enumerate().rev() {
                                        let gv = grow[i * d + c];
                                        let t = gv * post_scale;
                                        let term = (-t * (x * omega + phi).sin()) * omega;
                                        if i + 1 == coefs.len() {
                                            acc = term;
                                        } else {
                                            acc += term;
                                        }
                                    }
                                    *o = acc;
                                }
                            }
                        }
                        self.accumulate(a, delta);
                    } else {
                        let k = self.coef_lists[list].len();
                        for i in (0..k).rev() {
                            let (omega, phi) = self.coef_lists[list][i];
                            let mut delta = self.pool.take(n, d);
                            {
                                let av = &self.nodes[a.0].value;
                                for r in 0..n {
                                    let src = av.row(r);
                                    let grow = &g.row(r)[i * d..(i + 1) * d];
                                    for ((o, &x), &gv) in
                                        delta.row_mut(r).iter_mut().zip(src).zip(grow)
                                    {
                                        let t = gv * post_scale;
                                        *o = (-t * (x * omega + phi).sin()) * omega;
                                    }
                                }
                            }
                            self.accumulate(a, delta);
                        }
                    }
                }
            }
            Op::SumSq(a) => {
                if self.requires(a) {
                    // `sum` backward broadcasts g, `square` backward applies
                    // `2 g x` — fused into one pass with the same arithmetic.
                    let gv = g.item();
                    let mut d = self.take_like(a);
                    d.fill_map(&self.nodes[a.0].value, |x| 2.0 * gv * x);
                    self.accumulate(a, d);
                }
            }
            Op::BlockMaskedSumSq(a, d_width, keep_diagonal) => {
                if self.requires(a) {
                    // Chain equivalent: `sum` broadcast, `square` backward
                    // `2 g v`, then `mul` backward re-applies the mask.
                    let gv = g.item();
                    let rows = self.nodes[a.0].value.rows();
                    let mut d = self.take_like(a);
                    {
                        let av = &self.nodes[a.0].value;
                        let mut pm = 0;
                        for p in 0..rows {
                            let mut qm = 0;
                            for (o, &x) in d.row_mut(p).iter_mut().zip(av.row(p)) {
                                let m = if (pm == qm) == keep_diagonal { 1.0 } else { 0.0 };
                                *o = (2.0 * gv * (x * m)) * m;
                                qm += 1;
                                if qm == d_width {
                                    qm = 0;
                                }
                            }
                            pm += 1;
                            if pm == d_width {
                                pm = 0;
                            }
                        }
                    }
                    self.accumulate(a, d);
                }
            }
            Op::MatMulTn(a, b) => {
                if self.requires(a) {
                    // Historical chain: d_ft = g * b^T, then the transpose
                    // node flips it back; fused here as (g * b^T)^T.
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut tmp = self.pool.take(c, r);
                    crate::kernels::gemm_nt_into(g, &self.nodes[b.0].value, &mut tmp);
                    let mut d = self.pool.take(r, c);
                    d.transpose_from(&tmp);
                    self.pool.give(tmp);
                    self.accumulate(a, d);
                }
                if self.requires(b) {
                    // d_b = a * g; `gemm_into` over `a` accumulates and
                    // skips exact zeros exactly like `gemm_tn_into` over
                    // `a^T` did.
                    let (r, c) = self.nodes[b.0].value.shape();
                    let mut d = self.pool.take(r, c);
                    crate::kernels::gemm_into(&self.nodes[a.0].value, g, &mut d);
                    self.accumulate(b, d);
                }
            }
            Op::DivScalarOf(a, s) => {
                let sv = self.nodes[s.0].value.item();
                if self.requires(a) {
                    let inv = 1.0 / sv;
                    let mut d = self.take_like_grad(g);
                    d.fill_map(g, |x| x * inv);
                    self.accumulate(a, d);
                }
                if self.requires(s) {
                    let ds = -g.dot(&self.nodes[a.0].value) / (sv * sv);
                    let mut d = self.pool.take(1, 1);
                    d.as_mut_slice()[0] = ds;
                    self.accumulate(s, d);
                }
            }
            Op::Replay(list) => {
                let gv = g.item();
                for k in 0..self.replay_lists[list].len() {
                    let target = self.replay_lists[list][k].0;
                    if self.requires(target) {
                        let recorded = &self.replay_lists[list][k].1;
                        let mut d = self.pool.take(recorded.rows(), recorded.cols());
                        d.fill_map(recorded, |x| x * gv);
                        self.accumulate(target, d);
                    }
                }
            }
        }
    }
}

/// Column sums of `g` into a pooled `1 x cols` buffer (order matches
/// [`Matrix::sum_axis0`]).
fn col_sums_of(pool: &mut BufferPool, g: &Matrix) -> Matrix {
    let mut d = pool.take_zeroed(1, g.cols());
    for r in 0..g.rows() {
        for (o, &x) in d.as_mut_slice().iter_mut().zip(g.row(r)) {
            *o += x;
        }
    }
    d
}

/// Row sums of `g` into a pooled `rows x 1` buffer: a serial left-to-right
/// fold per row.
fn row_sums_of(pool: &mut BufferPool, g: &Matrix) -> Matrix {
    let mut d = pool.take(g.rows(), 1);
    for (r, o) in d.as_mut_slice().iter_mut().enumerate() {
        *o = g.row(r).iter().sum();
    }
    d
}

/// Column slice `[start, end)` of `g` into a pooled buffer.
fn slice_cols_of(pool: &mut BufferPool, g: &Matrix, start: usize, end: usize) -> Matrix {
    let mut d = pool.take(g.rows(), end - start);
    for row in 0..g.rows() {
        d.row_mut(row).copy_from_slice(&g.row(row)[start..end]);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_are_eager() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let b = g.constant(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).as_slice(), &[4.0, 6.0]);
        let p = g.mul(a, b);
        assert_eq!(g.value(p).as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn row_sums_are_a_serial_left_to_right_fold_per_row() {
        // Cancellation-heavy rows: 1 + 1e16 rounds back to 1e16, so a fold in
        // any other order (reversed, pairwise, by vector lanes) sums
        // differently, as the reversed fold below shows.
        let m = Matrix::from_fn(6, 9, |i, j| {
            let big = 1e16 * (i + 1) as f64;
            [big, 1.0 + 0.25 * j as f64, -big][(i + j) % 3]
        });
        let folds: Vec<u64> =
            (0..m.rows()).map(|r| m.row(r).iter().sum::<f64>().to_bits()).collect();
        let reversed: Vec<u64> =
            (0..m.rows()).map(|r| m.row(r).iter().rev().sum::<f64>().to_bits()).collect();
        assert_ne!(folds, reversed, "the input does not tell fold orders apart");
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        // Forward: `sum_axis1`.
        let mut g = Graph::new();
        let a = g.constant_copied(&m);
        let s = g.sum_axis1(a);
        assert_eq!(bits(g.value(s)), folds);

        // Backward: `col_plus_row` hands its column the row sums of the
        // incoming gradient, here `m` itself.
        let col = g.param(Matrix::zeros(m.rows(), 1));
        let row = g.constant(Matrix::zeros(1, m.cols()));
        let outer = g.col_plus_row(col, row);
        let weights = g.constant_copied(&m);
        let weighted = g.mul(outer, weights);
        let loss = g.sum(weighted);
        g.backward(loss);
        assert_eq!(bits(g.grad(col).unwrap()), folds);
    }

    #[test]
    fn backward_through_linear_chain() {
        // loss = mean((x*w)^2), x = [[1,2],[3,4]], w = [[1],[1]]
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let w = g.param(Matrix::ones(2, 1));
        let y = g.matmul(x, w); // [3, 7]
        let sq = g.square(y);
        let loss = g.mean(sq); // (9 + 49)/2 = 29
        assert_eq!(g.scalar(loss), 29.0);
        g.backward(loss);
        // dloss/dy = y, so grad_w = x^T y = [1*3+3*7, 2*3+4*7] = [24, 34]
        let gw = g.grad(w).unwrap();
        assert!(gw.approx_eq(&Matrix::from_vec(2, 1, vec![24.0, 34.0]), 1e-12));
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut g = Graph::new();
        let c = g.constant(Matrix::ones(2, 2));
        let w = g.param(Matrix::ones(2, 2));
        let m = g.mul(c, w);
        let loss = g.sum(m);
        g.backward(loss);
        assert!(g.grad(c).is_none());
        assert!(g.grad(w).is_some());
    }

    #[test]
    fn gradient_accumulates_over_reused_nodes() {
        // loss = sum(w) + sum(w) -> grad = 2 * ones
        let mut g = Graph::new();
        let w = g.param(Matrix::ones(2, 2));
        let s1 = g.sum(w);
        let s2 = g.sum(w);
        let loss = g.add(s1, s2);
        g.backward(loss);
        assert!(g.grad(w).unwrap().approx_eq(&Matrix::full(2, 2, 2.0), 1e-12));
    }

    #[test]
    #[should_panic(expected = "backward: loss must be a scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut g = Graph::new();
        let w = g.param(Matrix::ones(2, 2));
        g.backward(w);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((stable_sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(stable_sigmoid(-1000.0).abs() < 1e-12);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn softplus_is_stable_at_extremes() {
        assert!((stable_softplus(1000.0) - 1000.0).abs() < 1e-9);
        assert!(stable_softplus(-1000.0) >= 0.0);
        assert!((stable_softplus(0.0) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn gather_rows_backward_scatter_adds() {
        let mut g = Graph::new();
        let w = g.param(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let gathered = g.gather_rows(w, &[0, 0, 2]);
        let loss = g.sum(gathered);
        g.backward(loss);
        // row 0 used twice, row 1 never, row 2 once
        assert!(g.grad(w).unwrap().approx_eq(&Matrix::from_vec(3, 1, vec![2.0, 0.0, 1.0]), 1e-12));
    }

    #[test]
    fn concat_and_slice_roundtrip_gradients() {
        let mut g = Graph::new();
        let a = g.param(Matrix::ones(2, 2));
        let b = g.param(Matrix::ones(2, 3));
        let cat = g.concat_cols(a, b);
        let sl = g.gather_cols(cat, &[1, 2, 3]); // one col of a, two cols of b
        let loss = g.sum(sl);
        g.backward(loss);
        assert!(g
            .grad(a)
            .unwrap()
            .approx_eq(&Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]), 1e-12));
        assert!(g
            .grad(b)
            .unwrap()
            .approx_eq(&Matrix::from_vec(2, 3, vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0]), 1e-12));
    }

    #[test]
    fn scalar_broadcast_ops() {
        let mut g = Graph::new();
        let a = g.param(Matrix::from_vec(1, 2, vec![2.0, 4.0]));
        let s = g.param(Matrix::scalar(2.0));
        let d = g.div_scalar_of(a, s);
        assert_eq!(g.value(d).as_slice(), &[1.0, 2.0]);
        let loss = g.sum(d);
        g.backward(loss);
        // d(sum(a/2))/da = 0.5 per element
        assert!(g.grad(a).unwrap().approx_eq(&Matrix::full(1, 2, 0.5), 1e-12));
        // d/ds ((2+4)/s) at s=2 => -6/4 = -1.5
        assert!((g.grad(s).unwrap().item() + 1.5).abs() < 1e-12);
    }

    /// Runs one representative mixed-op step on `g` and returns the loss and
    /// the gradient bits of the parameter.
    fn step_bits(g: &mut Graph) -> (u64, Vec<u64>) {
        let x = g.constant(Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.25 - 1.0));
        let w = g.param(Matrix::from_fn(3, 2, |i, j| ((i + 2 * j) as f64).sin()));
        let y = g.matmul(x, w);
        let t = g.sigmoid(y);
        let gathered = g.gather_rows(t, &[0, 2, 2, 3]);
        let cat = g.concat_cols(t, y);
        let sl = g.gather_cols(cat, &[1, 2]);
        let s1 = g.sumsq(gathered);
        let s2 = g.sumsq(sl);
        let loss = g.add(s1, s2);
        g.backward(loss);
        let bits = g.grad(w).unwrap().as_slice().iter().map(|v| v.to_bits()).collect();
        (g.scalar(loss).to_bits(), bits)
    }

    #[test]
    fn reset_reuses_buffers_and_stays_bit_identical() {
        let mut fresh = Graph::new();
        let (loss_bits, grad_bits) = step_bits(&mut fresh);

        let mut pooled = Graph::new();
        for step in 0..5 {
            pooled.reset();
            let (lb, gb) = step_bits(&mut pooled);
            assert_eq!(lb, loss_bits, "loss drifted on pooled step {step}");
            assert_eq!(gb, grad_bits, "gradient drifted on pooled step {step}");
        }
        assert!(pooled.pooled_buffers() > 0, "reset should park buffers");
    }

    /// Like [`step_bits`] but with pooled leaf constructors — the balanced
    /// take/give pattern the trainer uses.
    fn pooled_step(g: &mut Graph) {
        let xv = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.25 - 1.0);
        let wv = Matrix::from_fn(3, 2, |i, j| ((i + 2 * j) as f64).sin());
        let x = g.constant_copied(&xv);
        let w = g.param_copied(&wv);
        let y = g.matmul(x, w);
        let t = g.sigmoid(y);
        let gathered = g.gather_rows(t, &[0, 2, 2, 3]);
        let s = g.sumsq(gathered);
        let loss = g.mean(s);
        g.backward(loss);
    }

    #[test]
    fn steady_state_reset_steps_do_not_grow_the_pool() {
        let mut g = Graph::new();
        for _ in 0..3 {
            g.reset();
            pooled_step(&mut g);
        }
        g.reset();
        let parked = g.pooled_buffers();
        for _ in 0..4 {
            g.reset();
            pooled_step(&mut g);
        }
        g.reset();
        assert_eq!(g.pooled_buffers(), parked, "pool should reach a fixed point");
    }

    /// Builds `loss = 3 · sumsq(w_div / sum(w_sum))` on its own tape, with the
    /// two uses of `w` on separate leaves, and differentiates it.
    fn term_tape(w: &Matrix) -> (Graph, TensorId, TensorId, TensorId) {
        let mut t = Graph::new();
        let w_sum = t.param_copied(w);
        let w_div = t.param_copied(w);
        let s = t.sum(w_sum);
        let q = t.div_scalar_of(w_div, s);
        let sq = t.sumsq(q);
        let out = t.scale(sq, 3.0);
        t.backward(out);
        (t, out, w_div, w_sum)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn replay_at_unit_upstream_reproduces_the_recorded_deltas() {
        let wv = Matrix::from_vec(3, 1, vec![0.7, 1.3, 2.9]);
        let (t, out, w_div, w_sum) = term_tape(&wv);
        let mut expected = t.grad(w_div).unwrap().clone();
        expected.add_assign(t.grad(w_sum).unwrap());

        let mut g = Graph::new();
        let w = g.param_copied(&wv);
        let r = g.replay(&t, out, &[(w_div, w), (w_sum, w)]);
        assert_eq!(g.scalar(r).to_bits(), t.scalar(out).to_bits());
        g.backward(r);
        assert_eq!(bits(g.grad(w).unwrap()), bits(&expected));
    }

    #[test]
    fn replay_scales_the_deltas_by_the_upstream_gradient() {
        let wv = Matrix::from_vec(2, 1, vec![0.5, 1.5]);
        let (t, out, w_div, w_sum) = term_tape(&wv);
        let mut g = Graph::new();
        let w = g.param_copied(&wv);
        let r = g.replay(&t, out, &[(w_div, w), (w_sum, w)]);
        let loss = g.scale(r, -2.5);
        g.backward(loss);
        for i in 0..2 {
            let want =
                -2.5 * t.grad(w_div).unwrap()[(i, 0)] + -2.5 * t.grad(w_sum).unwrap()[(i, 0)];
            assert_eq!(g.grad(w).unwrap()[(i, 0)].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn replay_skips_targets_without_gradients() {
        let wv = Matrix::from_vec(2, 1, vec![0.5, 1.5]);
        let (t, out, w_div, w_sum) = term_tape(&wv);
        let mut g = Graph::new();
        let frozen = g.constant_copied(&wv);
        let r = g.replay(&t, out, &[(w_div, frozen), (w_sum, frozen)]);
        assert!(!g.requires_grad(r), "nothing trainable downstream of the replay");
        let p = g.param(Matrix::scalar(1.0));
        let loss = g.add(r, p);
        g.backward(loss);
        assert!(g.grad(frozen).is_none());
        assert_eq!(g.grad(p).unwrap().item(), 1.0);
    }

    #[test]
    fn reset_recycles_replay_buffers() {
        let wv = Matrix::from_vec(4, 1, vec![0.5, 1.5, 1.0, 2.0]);
        let (t, out, w_div, w_sum) = term_tape(&wv);
        let mut g = Graph::new();
        let step = |g: &mut Graph| {
            g.reset();
            let w = g.param_copied(&wv);
            let r = g.replay(&t, out, &[(w_div, w), (w_sum, w)]);
            g.backward(r);
        };
        for _ in 0..3 {
            step(&mut g);
        }
        g.reset();
        let parked = g.pooled_buffers();
        for _ in 0..4 {
            step(&mut g);
        }
        g.reset();
        assert_eq!(g.pooled_buffers(), parked, "replay buffers must return to the pool");
    }

    #[test]
    fn id_buf_round_trip() {
        let mut g = Graph::new();
        let mut buf = g.take_id_buf();
        buf.push(TensorId(7));
        g.give_id_buf(buf);
        let again = g.take_id_buf();
        assert!(again.is_empty(), "recycled id buffers are cleared");
        assert!(again.capacity() >= 1);
    }

    #[test]
    fn pooled_leaf_constructors_match_plain_ones() {
        let src = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let mut g = Graph::new();
        let a = g.constant_copied(&src);
        assert_eq!(g.value(a).as_slice(), src.as_slice());
        let b = g.constant_col(&[1.0, 2.0, 3.0]);
        assert_eq!(g.value(b).shape(), (3, 1));
        let c = g.constant_full(2, 2, 0.5);
        assert_eq!(g.value(c).as_slice(), &[0.5; 4]);
        let d = g.constant_selected_rows(&src, &[2, 0, 2]);
        assert_eq!(g.value(d).as_slice(), src.select_rows(&[2, 0, 2]).as_slice());
        let p = g.param_copied(&src);
        let loss = g.sumsq(p);
        g.backward(loss);
        assert!(g.grad(p).is_some());
    }
}
