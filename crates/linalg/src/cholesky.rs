//! Cholesky factorization of symmetric positive-definite matrices,
//! including the incremental row/column append and delete-row downdate
//! used by the online GP's sliding window.

use crate::{
    solve_lower, solve_lower_mat, solve_lower_tile, solve_upper, LinalgError, Mat, Result, TILE,
};

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L L^T`.
///
/// The factor supports:
/// * vector solves against `A`, and half solves `L^{-1} B` with matrix
///   right-hand sides,
/// * `log(det(A))` for marginal-likelihood computation,
/// * **incremental append** ([`Cholesky::append`]): growing `A` by one
///   bordered row/column in `O(n^2)` instead of refactorizing in `O(n^3)`,
///   which is what makes the online learner cheap per time period.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; entries above the diagonal are zero.
    l: Mat,
}

/// Initial jitter added to the diagonal when a factorization fails, then
/// escalated multiplicatively up to [`MAX_JITTER`].
const BASE_JITTER: f64 = 1e-10;
/// Largest diagonal jitter [`Cholesky::factor`] will attempt.
const MAX_JITTER: f64 = 1e-4;

impl Cholesky {
    /// Factorizes an SPD matrix, escalating a diagonal jitter from
    /// `BASE_JITTER` (1e-10) to `MAX_JITTER` (1e-4) if the matrix is numerically
    /// on the edge of positive-definiteness (routine for kernel matrices
    /// with near-duplicate inputs).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotPositiveDefinite`] when even the maximum
    /// jitter cannot rescue the factorization, and
    /// [`LinalgError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky of non-square matrix",
            });
        }
        match Self::factor_raw(a, 0.0) {
            Ok(ok) => return Ok(ok),
            Err(_) => {
                let mut jitter = BASE_JITTER;
                while jitter <= MAX_JITTER {
                    if let Ok(ok) = Self::factor_raw(a, jitter) {
                        return Ok(ok);
                    }
                    jitter *= 10.0;
                }
            }
        }
        Err(LinalgError::NotPositiveDefinite { pivot: 0, jitter: MAX_JITTER })
    }

    /// Single factorization attempt with a fixed diagonal jitter.
    fn factor_raw(a: &Mat, jitter: f64) -> Result<Self> {
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, jitter });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// An empty (0x0) factor, the starting point for incremental growth.
    pub fn empty() -> Self {
        Cholesky { l: Mat::zeros(0, 0) }
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor.
    #[inline]
    pub fn factor_l(&self) -> &Mat {
        &self.l
    }

    /// Appends one bordered row/column to the factored matrix.
    ///
    /// If the current factor corresponds to `A` (`n x n`), this updates it
    /// to the factor of the `(n+1) x (n+1)` matrix
    /// `[[A, k], [k^T, kappa]]` in `O(n^2)` time, where `k` is the cross
    /// column and `kappa` the new diagonal element.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `k.len() != n` and
    /// [`LinalgError::NotPositiveDefinite`] when the Schur complement
    /// `kappa - |L^{-1}k|^2` is not positive (the bordered matrix is not
    /// SPD). In the GP this is prevented by the observation-noise term on
    /// the diagonal.
    pub fn append(&mut self, k: &[f64], kappa: f64) -> Result<()> {
        let n = self.dim();
        if k.len() != n {
            return Err(LinalgError::DimensionMismatch { context: "append: cross-column length" });
        }
        // New row of L: l_new = L^{-1} k ; new diagonal = sqrt(kappa - |l_new|^2).
        let lrow = if n > 0 { solve_lower(&self.l, k) } else { Vec::new() };
        let mut schur = kappa - crate::vecops::dot(&lrow, &lrow);
        if schur <= 0.0 || !schur.is_finite() {
            // One small rescue consistent with factor(): jitter the diagonal.
            schur = kappa + MAX_JITTER - crate::vecops::dot(&lrow, &lrow);
            if schur <= 0.0 || !schur.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: n, jitter: MAX_JITTER });
            }
        }
        let mut grown = Mat::zeros(n + 1, n + 1);
        for i in 0..n {
            let src = self.l.row(i);
            grown.row_mut(i)[..n].copy_from_slice(src);
        }
        grown.row_mut(n)[..n].copy_from_slice(&lrow);
        grown[(n, n)] = schur.sqrt();
        self.l = grown;
        Ok(())
    }

    /// Returns the factor of the matrix with row and column `idx` removed,
    /// in `O(n^2)` time — the *delete-row downdate*.
    ///
    /// If the current factor corresponds to `A` (`n x n`), the result
    /// factors the `(n-1) x (n-1)` matrix obtained by deleting row and
    /// column `idx` of `A`. This is what makes the GP sliding window cheap
    /// at steady state: evicting the oldest observation is `delete_row(0)`
    /// instead of an `O(n^3)` refactorization.
    ///
    /// # Algorithm
    /// Removing row `idx` of `L` leaves an `(n-1) x n` lower-Hessenberg
    /// matrix `M` with `M M^T = A'` (the target matrix). A chase of Givens
    /// rotations applied on the right — rotation `k` mixes columns `(k,
    /// k+1)` to annihilate `M[k][k+1]` — restores lower-triangularity
    /// without changing `M M^T`, and the result is the unique Cholesky
    /// factor of `A'` (its diagonal `r = hypot(m_kk, m_kk1)` is positive by
    /// construction). Deleting a row *adds* the rank-1 term `c c^T` to the
    /// trailing block (it removes conditioning information), so unlike a
    /// true rank-1 downdate no cancellation can occur: the only failure
    /// mode is non-finite input, which is reported as an error so callers
    /// can fall back to a jittered refactorization.
    ///
    /// The chase runs over the *transpose* of `M`, turning the column
    /// rotations into [`crate::vecops::rot`] over two contiguous slices.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `idx >= n` and
    /// [`LinalgError::NotPositiveDefinite`] when a pivot comes out zero or
    /// non-finite (possible only for degenerate or non-finite factors).
    pub fn delete_row(&self, idx: usize) -> Result<Self> {
        let n = self.dim();
        if idx >= n {
            return Err(LinalgError::DimensionMismatch {
                context: "delete_row: index out of range",
            });
        }
        let m = n - 1;
        if m == 0 {
            return Ok(Cholesky::empty());
        }
        // W[j][i] = M[i][j] where M is L with row `idx` removed: row j of W
        // is column j of M, so the Givens chase streams contiguous memory.
        let mut w = Mat::zeros(n, m);
        for i in 0..m {
            let src = if i < idx { i } else { i + 1 };
            let lrow = self.l.row(src);
            for (j, &v) in lrow.iter().enumerate().take(src + 1) {
                w[(j, i)] = v;
            }
        }
        // Chase the superdiagonal: step k zeroes M[k][k+1] by rotating
        // columns (k, k+1) of M — rows (k, k+1) of W. Rows of M above k are
        // already triangular with zeros in both columns, so only entries
        // k.. participate.
        for k in idx..m {
            let (head, tail) = w.split_rows_mut(k + 1);
            let wk = &mut head[k * m + k..(k + 1) * m];
            let wk1 = &mut tail[k..m];
            let (a, b) = (wk[0], wk1[0]);
            let r = a.hypot(b);
            if r <= 0.0 || !r.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: k, jitter: 0.0 });
            }
            let (c, s) = (a / r, b / r);
            crate::vecops::rot(c, s, wk, wk1);
            // The pivot pair is known exactly; kill its rounding error.
            wk[0] = r;
            wk1[0] = 0.0;
        }
        let mut l = Mat::zeros(m, m);
        for i in 0..m {
            let row = l.row_mut(i);
            for (j, dst) in row.iter_mut().enumerate().take(i + 1) {
                *dst = w[(j, i)];
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via the two triangular solves.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = solve_lower(&self.l, b);
        solve_upper(&self.l, &y)
    }

    /// Solves `L y = b` only (half solve), as needed for posterior
    /// variances where `sigma^2(z) = k(z,z) - |L^{-1} k_z|^2`.
    pub fn half_solve(&self, b: &[f64]) -> Vec<f64> {
        solve_lower(&self.l, b)
    }

    /// Batched half solve with matrix right-hand side (`n x m`).
    pub fn half_solve_mat(&self, b: &Mat) -> Mat {
        solve_lower_mat(&self.l, b)
    }

    /// Half solve of one tile of `TILE` right-hand sides in place
    /// (`x[i][c]` is row `i` of column `c`; see [`solve_lower_tile`]): the
    /// kernel of batched posterior variances.
    pub fn half_solve_tile(&self, x: &mut [[f64; TILE]]) {
        solve_lower_tile(&self.l, x)
    }

    /// `log(det(A)) = 2 * sum_i log(L[i][i])`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Reconstructs `A = L L^T` (mainly for tests and debugging).
    pub fn reconstruct(&self) -> Mat {
        let n = self.dim();
        Mat::from_fn(n, n, |i, j| {
            let lim = i.min(j) + 1;
            (0..lim).map(|k| self.l[(i, k)] * self.l[(j, k)]).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a random SPD matrix A = B B^T + n*I.
    fn random_spd(n: usize, seed: u64) -> Mat {
        // Tiny deterministic LCG so the test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let b = Mat::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = random_spd(8, 42);
        let c = Cholesky::factor(&a).unwrap();
        let r = c.reconstruct();
        for i in 0..8 {
            for j in 0..8 {
                assert!((a[(i, j)] - r[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_inverts() {
        let a = random_spd(6, 7);
        let c = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.5];
        let x = c.solve(&b);
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_non_square() {
        let m = Mat::zeros(2, 3);
        assert!(matches!(Cholesky::factor(&m), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn rejects_indefinite() {
        // Eigenvalues 1 and -1: indefinite beyond any reasonable jitter.
        let m = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(matches!(Cholesky::factor(&m), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-1 PSD matrix: singular but PSD; jitter should rescue it.
        let m = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let c = Cholesky::factor(&m).expect("jitter should rescue PSD matrix");
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn incremental_append_matches_batch_factorization() {
        let n = 10;
        let a = random_spd(n, 99);
        let batch = Cholesky::factor(&a).unwrap();

        let mut inc = Cholesky::empty();
        for i in 0..n {
            let cross: Vec<f64> = (0..i).map(|j| a[(i, j)]).collect();
            inc.append(&cross, a[(i, i)]).unwrap();
        }
        assert_eq!(inc.dim(), n);
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (inc.factor_l()[(i, j)] - batch.factor_l()[(i, j)]).abs() < 1e-9,
                    "L mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn append_rejects_wrong_cross_length() {
        let mut c = Cholesky::empty();
        c.append(&[], 2.0).unwrap();
        assert!(matches!(c.append(&[1.0, 2.0], 3.0), Err(LinalgError::DimensionMismatch { .. })));
    }

    /// `A` with row and column `idx` removed.
    fn submatrix_without(a: &Mat, idx: usize) -> Mat {
        let n = a.rows();
        Mat::from_fn(n - 1, n - 1, |i, j| {
            let si = if i < idx { i } else { i + 1 };
            let sj = if j < idx { j } else { j + 1 };
            a[(si, sj)]
        })
    }

    #[test]
    fn delete_row_matches_scratch_factor_every_index() {
        let n = 8;
        let a = random_spd(n, 17);
        let full = Cholesky::factor(&a).unwrap();
        for idx in 0..n {
            let down = full.delete_row(idx).unwrap();
            let scratch = Cholesky::factor(&submatrix_without(&a, idx)).unwrap();
            for i in 0..n - 1 {
                for j in 0..=i {
                    assert!(
                        (down.factor_l()[(i, j)] - scratch.factor_l()[(i, j)]).abs() < 1e-9,
                        "idx {idx}: L mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn delete_then_append_tracks_sliding_window() {
        // Emulate the GP steady state: drop row 0, append a new bordered
        // row, compare against factoring the shifted matrix from scratch.
        let n = 9;
        let a = random_spd(n + 1, 5);
        let window = Mat::from_fn(n, n, |i, j| a[(i, j)]);
        let mut ch = Cholesky::factor(&window).unwrap();
        ch = ch.delete_row(0).unwrap();
        let cross: Vec<f64> = (1..n).map(|i| a[(n, i)]).collect();
        ch.append(&cross, a[(n, n)]).unwrap();
        let shifted = Mat::from_fn(n, n, |i, j| a[(i + 1, j + 1)]);
        let scratch = Cholesky::factor(&shifted).unwrap();
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (ch.factor_l()[(i, j)] - scratch.factor_l()[(i, j)]).abs() < 1e-9,
                    "L mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn delete_row_shrinks_to_empty_and_regrows() {
        let a = Mat::from_rows(&[&[4.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let mut empty = ch.delete_row(0).unwrap();
        assert_eq!(empty.dim(), 0);
        empty.append(&[], 9.0).unwrap();
        assert!((empty.factor_l()[(0, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn delete_row_rejects_out_of_range() {
        let ch = Cholesky::factor(&random_spd(3, 1)).unwrap();
        assert!(matches!(ch.delete_row(3), Err(LinalgError::DimensionMismatch { .. })));
        let empty = Cholesky::empty();
        assert!(matches!(empty.delete_row(0), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn delete_row_survives_near_singular_factor() {
        // A nearly rank-deficient PSD matrix: the factorization needs its
        // rescue jitter; the downdate of the resulting factor must still
        // reconstruct the submatrix (deleting a row only *adds* the rank-1
        // term back into the trailing block, so no cancellation occurs).
        let base = Mat::from_rows(&[&[1.0, 1.0, 0.5], &[1.0, 1.0, 0.5], &[0.5, 0.5, 0.3]]);
        let ch = Cholesky::factor(&base).expect("jitter rescues the PSD matrix");
        let down = ch.delete_row(0).unwrap();
        let r = down.reconstruct();
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (r[(i, j)] - base[(i + 1, j + 1)]).abs() < 1e-3,
                    "({i},{j}): {} vs {}",
                    r[(i, j)],
                    base[(i + 1, j + 1)]
                );
            }
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det([[4,0],[0,9]]) = 36.
        let a = Mat::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - 36f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn half_solve_consistency() {
        let a = random_spd(5, 3);
        let c = Cholesky::factor(&a).unwrap();
        let b = vec![1.0; 5];
        let y = c.half_solve(&b);
        // |L^{-1} b|^2 must equal b^T A^{-1} b.
        let quad: f64 = crate::vecops::dot(&y, &y);
        let x = c.solve(&b);
        let quad2: f64 = crate::vecops::dot(&b, &x);
        assert!((quad - quad2).abs() < 1e-9);
    }

    #[test]
    fn half_solve_mat_matches_vector_half_solves() {
        let a = random_spd(5, 11);
        let c = Cholesky::factor(&a).unwrap();
        let b = Mat::from_fn(5, 3, |i, j| (i + j) as f64 * 0.5 - 1.0);
        let x = c.half_solve_mat(&b);
        for col in 0..3 {
            let bcol: Vec<f64> = (0..5).map(|r| b[(r, col)]).collect();
            let want = c.half_solve(&bcol);
            for r in 0..5 {
                assert!((x[(r, col)] - want[r]).abs() < 1e-10);
            }
        }
    }
}
