//! Row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// `Mat` is deliberately small: it provides exactly the operations the GP
/// layer needs (construction, element access, mat-vec / mat-mat products,
/// transpose, symmetry checks) and nothing else.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Mat { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
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

    /// Returns `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Splits the storage into two mutable row ranges: rows `[0, at)` and
    /// rows `[at, rows)`, each as a flat row-major slice.
    ///
    /// This is the split-borrow primitive behind the delete-row Cholesky
    /// downdate: already-final rows can be read while later rows are
    /// updated in place, with no row copies.
    ///
    /// # Panics
    /// Panics if `at > self.rows()`.
    #[inline]
    pub fn split_rows_mut(&mut self, at: usize) -> (&mut [f64], &mut [f64]) {
        assert!(at <= self.rows, "split_rows_mut: row index out of range");
        self.data.split_at_mut(at * self.cols)
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::vecops::dot(self.row(i), x);
        }
        out
    }

    /// Matrix-matrix product `A * B`.
    ///
    /// # Panics
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        let mut out = Mat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let orow = out.row_mut(i);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Returns `true` if the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Adds `value` to every diagonal entry (in place). Commonly used to add
    /// observation-noise variance or jitter to a kernel matrix.
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent row length")]
    fn from_rows_rejects_ragged() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn split_rows_mut_partitions_storage() {
        let mut m = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let (top, bottom) = m.split_rows_mut(2);
        assert_eq!(top.len(), 6);
        assert_eq!(bottom.len(), 6);
        assert_eq!(top[5], 5.0);
        assert_eq!(bottom[0], 6.0);
        bottom[0] = -1.0;
        assert_eq!(m[(2, 0)], -1.0);
        // Degenerate splits are legal.
        assert_eq!(m.split_rows_mut(0).0.len(), 0);
        assert_eq!(m.split_rows_mut(4).1.len(), 0);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = m.matvec(&[1.0, -1.0]);
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Mat::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetry_detection() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert!(m.is_symmetric(0.0));
        m[(0, 1)] = 2.1;
        assert!(!m.is_symmetric(1e-6));
        assert!(m.is_symmetric(0.2));
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = Mat::zeros(2, 2);
        m.add_diagonal(3.0);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 1)], 3.0);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
