//! Property-based tests of the linear-algebra substrate.

use edgebol_linalg::{solve_lower, solve_lower_mat, solve_upper, Cholesky, Mat, TILE};
use proptest::prelude::*;

/// Strategy: a random SPD matrix `G G^T + c I` of size n.
fn spd(n: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let g = Mat::from_vec(n, n, vals);
        let mut a = g.matmul(&g.transpose());
        a.add_diagonal(n as f64 * 0.5 + 0.5);
        a
    })
}

proptest! {
    /// `L L^T` reconstructs `A` for random SPD matrices of several sizes.
    #[test]
    fn factor_reconstructs(a in spd(6)) {
        let ch = Cholesky::factor(&a).unwrap();
        let r = ch.reconstruct();
        for i in 0..6 {
            for j in 0..6 {
                prop_assert!((a[(i, j)] - r[(i, j)]).abs() < 1e-8);
            }
        }
    }

    /// Incremental appends equal the batch factorization.
    #[test]
    fn incremental_append_consistency(a in spd(7)) {
        let batch = Cholesky::factor(&a).unwrap();
        let mut inc = Cholesky::empty();
        for i in 0..7 {
            let cross: Vec<f64> = (0..i).map(|j| a[(i, j)]).collect();
            inc.append(&cross, a[(i, i)]).unwrap();
        }
        for i in 0..7 {
            for j in 0..=i {
                prop_assert!(
                    (inc.factor_l()[(i, j)] - batch.factor_l()[(i, j)]).abs() < 1e-8
                );
            }
        }
    }

    /// Triangular solves invert their matrices.
    #[test]
    fn triangular_solves_invert(a in spd(5), b in proptest::collection::vec(-5.0f64..5.0, 5)) {
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.factor_l();
        let y = solve_lower(l, &b);
        // L y = b
        let back = Mat::from_fn(5, 5, |i, j| if j <= i { l[(i, j)] } else { 0.0 }).matvec(&y);
        for (got, want) in back.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-8);
        }
        let x = solve_upper(l, &b);
        let back2 = Mat::from_fn(5, 5, |i, j| if i <= j { l[(j, i)] } else { 0.0 }).matvec(&x);
        for (got, want) in back2.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }

    /// The delete-row downdate equals factoring the submatrix from
    /// scratch, for every deletable index of a random SPD matrix.
    #[test]
    fn delete_row_equals_scratch_factor(a in spd(7), idx in 0usize..7) {
        let full = Cholesky::factor(&a).unwrap();
        let down = full.delete_row(idx).unwrap();
        let sub = Mat::from_fn(6, 6, |i, j| {
            let si = if i < idx { i } else { i + 1 };
            let sj = if j < idx { j } else { j + 1 };
            a[(si, sj)]
        });
        let scratch = Cholesky::factor(&sub).unwrap();
        for i in 0..6 {
            for j in 0..=i {
                prop_assert!(
                    (down.factor_l()[(i, j)] - scratch.factor_l()[(i, j)]).abs() < 1e-8,
                    "idx {} mismatch at ({}, {})", idx, i, j
                );
            }
        }
    }

    /// Sliding-window chain: delete row 0 then append a bordered row —
    /// the GP eviction pattern — equals the from-scratch factor of the
    /// shifted window.
    #[test]
    fn delete_then_append_equals_scratch(a in spd(8)) {
        let window = Mat::from_fn(7, 7, |i, j| a[(i, j)]);
        let mut ch = Cholesky::factor(&window).unwrap();
        ch = ch.delete_row(0).unwrap();
        let cross: Vec<f64> = (1..7).map(|i| a[(7, i)]).collect();
        ch.append(&cross, a[(7, 7)]).unwrap();
        let shifted = Mat::from_fn(7, 7, |i, j| a[(i + 1, j + 1)]);
        let scratch = Cholesky::factor(&shifted).unwrap();
        for i in 0..7 {
            for j in 0..=i {
                prop_assert!(
                    (ch.factor_l()[(i, j)] - scratch.factor_l()[(i, j)]).abs() < 1e-8
                );
            }
        }
    }

    /// Matrix-RHS forward substitution equals column-wise vector solves
    /// bit for bit, for column counts on both sides of a tile edge.
    #[test]
    fn matrix_rhs_equals_columnwise(
        a in spd(5),
        m in 1usize..=2 * TILE + 1,
        rhs in proptest::collection::vec(-3.0f64..3.0, 5 * (2 * TILE + 1)),
    ) {
        let ch = Cholesky::factor(&a).unwrap();
        let b = Mat::from_vec(5, m, rhs[..5 * m].to_vec());
        let x = solve_lower_mat(ch.factor_l(), &b);
        for col in 0..m {
            let bcol: Vec<f64> = (0..5).map(|r| b[(r, col)]).collect();
            let want = solve_lower(ch.factor_l(), &bcol);
            for r in 0..5 {
                prop_assert_eq!(x[(r, col)].to_bits(), want[r].to_bits(), "({}, {})", r, col);
            }
        }
    }

    /// log det via Cholesky is consistent with the product of eigenvalue
    /// surrogates (diagonal squares), and positive-definiteness holds.
    #[test]
    fn log_det_finite_and_consistent(a in spd(6)) {
        let ch = Cholesky::factor(&a).unwrap();
        let ld = ch.log_det();
        prop_assert!(ld.is_finite());
        // det(A) > 0 for SPD.
        let manual: f64 = (0..6).map(|i| ch.factor_l()[(i, i)].powi(2).ln()).sum();
        prop_assert!((ld - manual).abs() < 1e-9);
    }

    /// Mat transpose/matmul identities: (AB)^T = B^T A^T.
    #[test]
    fn transpose_of_product(
        av in proptest::collection::vec(-2.0f64..2.0, 12),
        bv in proptest::collection::vec(-2.0f64..2.0, 12),
    ) {
        let a = Mat::from_vec(3, 4, av);
        let b = Mat::from_vec(4, 3, bv);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-10);
            }
        }
    }
}
