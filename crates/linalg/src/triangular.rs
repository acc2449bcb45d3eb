//! Forward and backward substitution against triangular factors.

use crate::Mat;

/// Solves `L x = b` where `L` is lower-triangular (forward substitution).
///
/// Only the lower triangle of `l` is read.
///
/// # Panics
/// Panics if `l` is not square or `b.len() != l.rows()`.
pub fn solve_lower(l: &Mat, b: &[f64]) -> Vec<f64> {
    assert!(l.is_square(), "solve_lower: matrix must be square");
    assert_eq!(b.len(), l.rows(), "solve_lower: rhs length mismatch");
    let n = l.rows();
    let mut x = b.to_vec();
    for i in 0..n {
        let row = l.row(i);
        let mut acc = x[i];
        for j in 0..i {
            acc -= row[j] * x[j];
        }
        x[i] = acc / row[i];
    }
    x
}

/// Solves `L^T x = b` where `L` is lower-triangular (backward substitution
/// against the transpose).
///
/// # Panics
/// Panics if `l` is not square or `b.len() != l.rows()`.
pub fn solve_upper(l: &Mat, b: &[f64]) -> Vec<f64> {
    assert!(l.is_square(), "solve_upper: matrix must be square");
    assert_eq!(b.len(), l.rows(), "solve_upper: rhs length mismatch");
    let n = l.rows();
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        // Traverse column i of L below the diagonal == row i of L^T right of diag.
        for j in (i + 1)..n {
            acc -= l[(j, i)] * x[j];
        }
        x[i] = acc / l[(i, i)];
    }
    x
}

/// Column width of a tile of right-hand sides ([`solve_lower_tile`]).
/// Sixteen `f64` accumulators fill eight SSE2 registers (four AVX2 ones),
/// so a row's accumulators stay in registers across its whole `j` sweep;
/// a tile of a 200-row factor (25 KB) stays in L1.
pub const TILE: usize = 16;

/// Whether [`solve_lower_tile`] runs its AVX2 build on this host. True
/// only when the CPU reports AVX2, which is what makes calling that build
/// sound. Both builds compile the same source without FMA contraction, so
/// they return the same bits; this only tells which one runs.
#[inline]
pub fn avx2_tiles() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Solves `L X = B` in place for one tile of `TILE` right-hand sides
/// stored row-interleaved: `x[i][c]` is row `i` of column `c`.
///
/// This is the forward-substitution kernel of batched GP posteriors
/// ([`crate::Cholesky::half_solve_tile`]). Every column takes the scalar
/// recurrence's operations in its order: ascending `j`, skipping exact
/// zeros of `L`, then one division by the diagonal. A column therefore
/// never reads another, and its result is bit for bit that of a solve on
/// its own; a non-finite column poisons only itself. On hosts with AVX2
/// ([`avx2_tiles`]) the same source runs at that width, which changes no
/// bit: subtraction, multiplication and division round the same at any
/// width, and without `fma` enabled nothing fuses them.
///
/// # Panics
/// Panics if `l` is not square or `x.len() != l.rows()`.
pub fn solve_lower_tile(l: &Mat, x: &mut [[f64; TILE]]) {
    assert!(l.is_square(), "solve_lower_tile: matrix must be square");
    assert_eq!(x.len(), l.rows(), "solve_lower_tile: rhs rows mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_tiles() {
        // SAFETY: `avx2_tiles` returned true, so the CPU supports AVX2,
        // the only feature `solve_lower_tile_avx2` enables.
        return unsafe { solve_lower_tile_avx2(l, x) };
    }
    solve_lower_tile_portable(l, x)
}

/// [`solve_lower_tile`]'s body compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn solve_lower_tile_avx2(l: &Mat, x: &mut [[f64; TILE]]) {
    solve_lower_tile_portable(l, x)
}

/// [`solve_lower_tile`]'s body; inlined into each build, so every build
/// compiles this one source.
#[inline(always)]
fn solve_lower_tile_portable(l: &Mat, x: &mut [[f64; TILE]]) {
    for i in 0..x.len() {
        let lrow = l.row(i);
        let mut acc = x[i];
        for (&lij, xj) in lrow[..i].iter().zip(x.iter()) {
            if lij == 0.0 {
                continue;
            }
            for c in 0..TILE {
                acc[c] -= lij * xj[c];
            }
        }
        let diag = lrow[i];
        for v in &mut acc {
            *v /= diag;
        }
        x[i] = acc;
    }
}

/// Solves `L X = B` where `B` is `n x m` (forward substitution with a
/// matrix right-hand side). Returns an `n x m` matrix.
///
/// The columns are solved `TILE` at a time: each tile is packed
/// row-interleaved (the last one padded with zero columns), solved by
/// [`solve_lower_tile`] and unpacked, so results are bit for bit those of
/// column-wise solves with the same zero skip.
///
/// # Panics
/// Panics if `l` is not square or `b.rows() != l.rows()`.
pub fn solve_lower_mat(l: &Mat, b: &Mat) -> Mat {
    assert!(l.is_square(), "solve_lower_mat: matrix must be square");
    assert_eq!(b.rows(), l.rows(), "solve_lower_mat: rhs rows mismatch");
    solve_lower_mat_by(l, b, solve_lower_tile)
}

/// [`solve_lower_mat`] with each tile solved by `solve_tile`, so the tests
/// can run the portable body on any host.
fn solve_lower_mat_by(l: &Mat, b: &Mat, solve_tile: fn(&Mat, &mut [[f64; TILE]])) -> Mat {
    let (n, m) = (b.rows(), b.cols());
    let mut x = Mat::zeros(n, m);
    let mut tile = vec![[0.0; TILE]; n];
    for c0 in (0..m).step_by(TILE) {
        let w = TILE.min(m - c0);
        for (i, t) in tile.iter_mut().enumerate() {
            *t = [0.0; TILE];
            t[..w].copy_from_slice(&b.row(i)[c0..c0 + w]);
        }
        solve_tile(l, &mut tile);
        for (i, t) in tile.iter().enumerate() {
            x.row_mut(i)[c0..c0 + w].copy_from_slice(&t[..w]);
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    fn lower3() -> Mat {
        Mat::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn forward_substitution() {
        let l = lower3();
        let x = solve_lower(&l, &[2.0, 5.0, 32.0]);
        // Verify by multiplying back.
        let b = l.matvec(&x);
        for (bi, want) in b.iter().zip([2.0, 5.0, 32.0]) {
            assert!((bi - want).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_substitution() {
        let l = lower3();
        let x = solve_upper(&l, &[1.0, 2.0, 3.0]);
        let lt = l.transpose();
        let b = lt.matvec(&x);
        for (bi, want) in b.iter().zip([1.0, 2.0, 3.0]) {
            assert!((bi - want).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_rhs_matches_columnwise_vector_solves() {
        let l = lower3();
        let b = Mat::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[3.0, 2.0]]);
        let x = solve_lower_mat(&l, &b);
        for col in 0..2 {
            let bcol: Vec<f64> = (0..3).map(|r| b[(r, col)]).collect();
            let xcol = solve_lower(&l, &bcol);
            for r in 0..3 {
                assert!((x[(r, col)] - xcol[r]).abs() < 1e-12, "mismatch at ({r},{col})");
            }
        }
    }

    #[test]
    fn identity_solves_are_identity() {
        let i = Mat::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve_lower(&i, &b), b);
        assert_eq!(solve_upper(&i, &b), b);
    }

    /// An `n x n` lower-triangular factor with exact zeros below the
    /// diagonal (where `(7i + 3j) % 11 == 5`), so the zero skip is taken.
    fn sparse_lower(n: usize) -> Mat {
        let l = Mat::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                2.0 + (i as f64) * 0.01
            } else {
                ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5
            }
        });
        assert!((1..n).any(|i| (0..i).any(|j| l[(i, j)] == 0.0)), "no exact zero below diagonal");
        l
    }

    fn column(b: &Mat, col: usize) -> Vec<f64> {
        (0..b.rows()).map(|r| b[(r, col)]).collect()
    }

    /// The tiled path agrees bit for bit with the scalar recurrence over
    /// several full tiles and a partial last one, through the dispatched
    /// tile solve and through the portable body (the same one on a host
    /// without AVX2).
    #[test]
    fn tiled_solve_matches_vector_solves_across_tiles() {
        if !avx2_tiles() {
            eprintln!("no AVX2 on this host: only the portable tile solve ran");
        }
        let n = 83;
        let l = sparse_lower(n);
        let m = 3 * TILE + 5;
        let b = Mat::from_fn(n, m, |i, j| ((i + 2 * j) % 13) as f64 * 0.25 - 1.0);
        for x in [solve_lower_mat(&l, &b), solve_lower_mat_by(&l, &b, solve_lower_tile_portable)] {
            for col in 0..m {
                let want = solve_lower(&l, &column(&b, col));
                for r in 0..n {
                    let (got, want) = (x[(r, col)].to_bits(), want[r].to_bits());
                    assert_eq!(got, want, "bit mismatch at ({r},{col})");
                }
            }
        }
    }

    /// A NaN or infinite right-hand side poisons only its own column:
    /// every other column of its tile, next to it or next to the zero
    /// padding of a partial tile, solves exactly as it does alone, through
    /// the dispatched tile solve and through the portable body.
    #[test]
    fn non_finite_column_leaves_its_tile_neighbours_bit_identical() {
        let n = 41;
        let l = sparse_lower(n);
        let m = 2 * TILE + 3;
        let mut b = Mat::from_fn(n, m, |i, j| ((i * 5 + j) % 17) as f64 * 0.125 - 1.0);
        let poisoned = [(0, 3, f64::NAN), (7, TILE + 1, f64::INFINITY), (0, m - 1, f64::NAN)];
        for &(r, c, v) in &poisoned {
            b[(r, c)] = v;
        }
        for x in [solve_lower_mat(&l, &b), solve_lower_mat_by(&l, &b, solve_lower_tile_portable)] {
            for col in 0..m {
                if let Some(&(r, _, _)) = poisoned.iter().find(|p| p.1 == col) {
                    assert!(!x[(r, col)].is_finite(), "column {col} lost its poison");
                    continue;
                }
                let want = solve_lower(&l, &column(&b, col));
                for r in 0..n {
                    assert_eq!(x[(r, col)].to_bits(), want[r].to_bits(), "leak at ({r},{col})");
                }
            }
        }
    }
}
