//! Dense linear-algebra substrate for the EdgeBOL reproduction.
//!
//! The Gaussian-process machinery in `edgebol-gp` needs a small but
//! reliable set of dense operations over symmetric positive-definite (SPD)
//! kernel matrices: Cholesky factorization (including *incremental* updates
//! when one observation is appended), triangular solves with vector and
//! matrix right-hand sides, and log-determinants for marginal likelihoods.
//!
//! Everything here is written against plain `Vec<f64>` storage in row-major
//! order, with no external BLAS and no unsafe code beyond the call into the
//! AVX2 build of the tile solve ([`avx2_tiles`]). The matrices involved in
//! EdgeBOL are modest (hundreds to a few thousand rows), so clarity and
//! robustness are favoured over micro-optimization — in the spirit of the
//! smoltcp design notes this workspace follows.
//!
//! # Example
//!
//! ```
//! use edgebol_linalg::{Mat, Cholesky};
//!
//! // A 2x2 SPD matrix.
//! let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let chol = Cholesky::factor(&a).unwrap();
//! let x = chol.solve(&[2.0, 1.0]);
//! // Verify A * x == b.
//! let b = a.matvec(&x);
//! assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
//! ```

mod cholesky;
mod matrix;
pub mod stats;
mod triangular;
pub mod vecops;

pub use cholesky::Cholesky;
pub use matrix::Mat;
pub use triangular::{
    avx2_tiles, solve_lower, solve_lower_mat, solve_lower_tile, solve_upper, TILE,
};

/// Errors produced by the linear-algebra layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Cholesky factorization failed: the matrix is not positive definite
    /// (or is numerically indefinite) at the reported pivot index, even
    /// after the maximum jitter was applied.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Last jitter value that was attempted.
        jitter: f64,
    },
    /// Operand dimensions do not agree.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot, jitter } => write!(
                f,
                "matrix is not positive definite at pivot {pivot} (max jitter tried: {jitter:e})"
            ),
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
