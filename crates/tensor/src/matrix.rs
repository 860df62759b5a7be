//! Dense row-major `f64` matrix type and the linear-algebra kernels the rest
//! of the workspace is built on.
//!
//! The matrix is deliberately simple: a `(rows, cols)` header over a flat
//! `Vec<f64>`. All shape mismatches are programmer errors and panic with a
//! `#[track_caller]` location; numerical failure modes (NaN propagation) are
//! surfaced through [`Matrix::all_finite`] checks at the library boundaries.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// Vectors are represented as `n x 1` (column) or `1 x n` (row) matrices; a
/// scalar produced by a reduction is a `1 x 1` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[track_caller]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vec(values: &[f64]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates a `1 x 1` matrix holding `value`.
    pub fn scalar(value: f64) -> Self {
        Self { rows: 1, cols: 1, data: vec![value] }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    #[track_caller]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    #[track_caller]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The single value of a `1 x 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 x 1`.
    #[track_caller]
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix, got {:?}", self.shape());
        self.data[0]
    }

    /// Sets every element to `v`.
    pub fn fill_with(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Overwrites `self` with the contents of a same-shape matrix.
    #[track_caller]
    pub fn copy_from(&mut self, src: &Self) {
        self.assert_same_shape(src, "copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites `self` with `f` applied elementwise to a same-shape source.
    ///
    /// Dispatches to an AVX2-compiled copy when the CPU supports it — the
    /// scalar operations are unchanged (no FMA contraction, no
    /// reassociation), so results are bit-identical; only the register width
    /// differs.
    #[track_caller]
    // lint: no_alloc
    pub fn fill_map(&mut self, src: &Self, f: impl Fn(f64) -> f64) {
        self.assert_same_shape(src, "fill_map");
        #[cfg(target_arch = "x86_64")]
        {
            if crate::kernels::avx2_available() {
                // SAFETY: feature presence verified at runtime; the body is
                // ordinary safe Rust.
                return unsafe { fill_map_avx2(&mut self.data, &src.data, f) };
            }
        }
        for (o, &v) in self.data.iter_mut().zip(&src.data) {
            *o = f(v);
        }
    }

    /// Overwrites `self` with `f` combined elementwise over two same-shape
    /// sources (AVX2-dispatched like [`Matrix::fill_map`]).
    #[track_caller]
    // lint: no_alloc
    pub fn fill_zip(&mut self, a: &Self, b: &Self, f: impl Fn(f64, f64) -> f64) {
        self.assert_same_shape(a, "fill_zip");
        a.assert_same_shape(b, "fill_zip");
        #[cfg(target_arch = "x86_64")]
        {
            if crate::kernels::avx2_available() {
                // SAFETY: feature presence verified at runtime.
                return unsafe { fill_zip_avx2(&mut self.data, &a.data, &b.data, f) };
            }
        }
        for ((o, &x), &y) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *o = f(x, y);
        }
    }

    /// Writes the transpose of `src` into `self` (which must be
    /// `src.cols() x src.rows()`).
    #[track_caller]
    pub fn transpose_from(&mut self, src: &Self) {
        assert_eq!(
            self.shape(),
            (src.cols, src.rows),
            "transpose_from: output shape {:?} does not transpose {:?}",
            self.shape(),
            src.shape()
        );
        for i in 0..src.rows {
            for j in 0..src.cols {
                self[(j, i)] = src[(i, j)];
            }
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape matrices elementwise with `f`.
    #[track_caller]
    pub fn zip_map(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        self.assert_same_shape(other, "zip_map");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    #[track_caller]
    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Elementwise sum.
    #[track_caller]
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    #[track_caller]
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    #[track_caller]
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    #[track_caller]
    pub fn div(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place (AVX2-dispatched like
    /// [`Matrix::fill_map`]).
    #[track_caller]
    // lint: no_alloc
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        #[cfg(target_arch = "x86_64")]
        {
            if crate::kernels::avx2_available() {
                // SAFETY: feature presence verified at runtime.
                return unsafe { add_assign_avx2(&mut self.data, &other.data) };
            }
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f64) -> Self {
        self.map(|v| v + s)
    }

    /// Matrix product `self * other`.
    ///
    /// Allocates the result and fills it through the cache-blocked
    /// [`kernels::gemm_into`](crate::kernels::gemm_into), which reproduces
    /// the historical `i-k-j` loop exactly.
    #[track_caller]
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows, other.cols);
        crate::kernels::gemm_into(self, other, &mut out);
        out
    }

    /// Matrix product `self * other^T` without materialising the transpose,
    /// through [`kernels::gemm_nt_into`](crate::kernels::gemm_nt_into) under
    /// the calling thread's tier.
    #[track_caller]
    pub fn matmul_nt(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows, other.rows);
        crate::kernels::gemm_nt_into(self, other, &mut out);
        out
    }

    /// Matrix product `self^T * other` without materialising the transpose,
    /// through [`kernels::gemm_tn_into`](crate::kernels::gemm_tn_into) under
    /// the calling thread's tier.
    #[track_caller]
    pub fn matmul_tn(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.cols, other.cols);
        crate::kernels::gemm_tn_into(self, other, &mut out);
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column sums as a `1 x cols` row vector.
    pub fn sum_axis0(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j] += self[(i, j)];
            }
        }
        out
    }

    /// Column means as a `1 x cols` row vector.
    pub fn mean_axis0(&self) -> Self {
        if self.rows == 0 {
            return Self::zeros(1, self.cols);
        }
        self.sum_axis0().scale(1.0 / self.rows as f64)
    }

    /// Per-column (population) variance as a `1 x cols` row vector.
    pub fn var_axis0(&self) -> Self {
        let means = self.mean_axis0();
        let mut out = Self::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                let d = self[(i, j)] - means.data[j];
                out.data[j] += d * d;
            }
        }
        out.scale(1.0 / self.rows as f64)
    }

    /// Per-column standard deviation as a `1 x cols` row vector.
    pub fn std_axis0(&self) -> Self {
        self.var_axis0().map(f64::sqrt)
    }

    /// Largest element (NaN-propagating); `-inf` for empty matrices.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element; `+inf` for empty matrices.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Dot product of two matrices viewed as flat vectors.
    #[track_caller]
    pub fn dot(&self, other: &Self) -> f64 {
        self.assert_same_shape(other, "dot");
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// Gathers rows `idx` into a new matrix (rows may repeat).
    #[track_caller]
    pub fn select_rows(&self, idx: &[usize]) -> Self {
        let mut out = Self::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            assert!(i < self.rows, "select_rows: index {i} out of bounds ({} rows)", self.rows);
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Gathers columns `idx` into a new matrix.
    #[track_caller]
    pub fn select_cols(&self, idx: &[usize]) -> Self {
        let mut out = Self::zeros(self.rows, idx.len());
        for (k, &j) in idx.iter().enumerate() {
            assert!(j < self.cols, "select_cols: index {j} out of bounds ({} cols)", self.cols);
            for i in 0..self.rows {
                out[(i, k)] = self[(i, j)];
            }
        }
        out
    }

    /// Vertical concatenation (self on top).
    #[track_caller]
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack: column counts differ");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Contiguous column slice `[start, end)` as a new matrix.
    #[track_caller]
    pub fn slice_cols(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.cols, "slice_cols: bad range {start}..{end}");
        let mut out = Self::zeros(self.rows, end - start);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
        out
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute elementwise difference against `other`.
    #[track_caller]
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// True when `self` and `other` agree within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

/// AVX2-compiled clone of the scalar [`Matrix::fill_map`] loop.
///
/// # Safety
/// Caller must verify AVX2 support first (see
/// [`avx2_available`](crate::kernels::avx2_available)); the body itself is
/// ordinary safe Rust recompiled with wider vector types.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_map_avx2(out: &mut [f64], src: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = f(v);
    }
}

/// AVX2-compiled clone of the scalar [`Matrix::fill_zip`] loop.
///
/// # Safety
/// Caller must verify AVX2 support first (see
/// [`avx2_available`](crate::kernels::avx2_available)); the body itself is
/// ordinary safe Rust recompiled with wider vector types.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_zip_avx2(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// AVX2-compiled clone of the scalar [`Matrix::add_assign`] loop.
///
/// # Safety
/// Caller must verify AVX2 support first (see
/// [`avx2_available`](crate::kernels::avx2_available)); the body itself is
/// ordinary safe Rust recompiled with wider vector types.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(out: &mut [f64], src: &[f64]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o += v;
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes_and_values() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let o = Matrix::ones(3, 2);
        assert_eq!(o.sum(), 6.0);

        let f = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(f[(1, 0)], 10.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f64);
        let eye = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        assert!(a.matmul(&eye).approx_eq(&a, 1e-12));
        assert!(eye.matmul(&a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn fused_transpose_products_match_explicit_ones() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.5 - 2.0);
        let b = Matrix::from_fn(5, 4, |i, j| (i as f64 - j as f64) * 0.25);
        let c = Matrix::from_fn(3, 5, |i, j| (i + j) as f64 * 0.1);
        assert!(a.matmul_nt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-12));
        assert!(a.matmul_tn(&c).approx_eq(&a.transpose().matmul(&c), 1e-12));
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().shape(), (5, 3));
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn reductions_are_consistent() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-12);
        assert_eq!(a.sum_axis0().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.mean_axis0().as_slice(), &[2.5, 3.5, 4.5]);
        assert_eq!(a.max(), 6.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn variance_matches_definition() {
        let a = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let v = a.var_axis0();
        assert!((v.item() - 1.25).abs() < 1e-12);
        assert!((a.std_axis0().item() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn elementwise_ops_work() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let r = a.select_rows(&[2, 0, 2]);
        assert_eq!(r.shape(), (3, 3));
        assert_eq!(r.row(0), a.row(2));
        assert_eq!(r.row(1), a.row(0));
        assert_eq!(r.row(2), a.row(2));

        let c = a.select_cols(&[2, 1]);
        assert_eq!(c.shape(), (4, 2));
        for i in 0..4 {
            assert_eq!(c.row(i), &[a[(i, 2)], a[(i, 1)]]);
        }
    }

    #[test]
    fn stack_and_slice() {
        let a = Matrix::ones(2, 2);
        let b = Matrix::zeros(2, 3);
        let h = Matrix::from_fn(2, 5, |_, j| if j < 2 { 1.0 } else { 0.0 });
        assert!(h.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(h.slice_cols(2, 5).approx_eq(&b, 0.0));

        let v = a.vstack(&Matrix::zeros(1, 2));
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v[(2, 0)], 0.0);
    }

    #[test]
    fn finite_checks_and_clamp() {
        let mut a = Matrix::ones(2, 2);
        assert!(a.all_finite());
        a[(0, 0)] = f64::NAN;
        assert!(!a.all_finite());

        let c = Matrix::from_vec(1, 3, vec![-5.0, 0.5, 9.0]).clamp(0.0, 1.0);
        assert_eq!(c.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn item_returns_scalar() {
        assert_eq!(Matrix::scalar(7.5).item(), 7.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_panics_for_non_scalar() {
        let _ = Matrix::ones(2, 1).item();
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_rejects_mismatched_inner_dims() {
        let _ = Matrix::ones(2, 3).matmul(&Matrix::ones(2, 3));
    }
}
