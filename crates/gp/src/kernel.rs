//! Stationary anisotropic covariance functions.
//!
//! The paper selects the Matérn kernel "on its anisotropic version" with
//! `nu = 3/2` (eq. (6)), arguing from the measurements of §3 that the target
//! functions are stationary, anisotropic, and at least once differentiable.
//! The per-dimension length-scales implement the scaled distance of eq. (5):
//!
//! `d(z, z') = sqrt( sum_k ((z_k - z'_k) / l_k)^2 )`.

use edgebol_linalg::TILE;

/// Which stationary kernel family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Matérn with `nu = 3/2` — the paper's choice (once differentiable).
    Matern32,
    /// Matérn with `nu = 5/2` (twice differentiable); used in ablations.
    Matern52,
    /// Squared exponential / RBF (infinitely smooth); used in ablations.
    Rbf,
}

/// A stationary anisotropic kernel `k(z, z') = sigma_f^2 * g(d(z, z'))`
/// with per-dimension length-scales (ARD).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    kind: KernelKind,
    /// Signal variance `sigma_f^2` (the prior variance at zero distance).
    signal_var: f64,
    /// Per-dimension length-scales `l_k > 0`.
    lengthscales: Vec<f64>,
}

impl Kernel {
    /// Creates a kernel of the given family.
    ///
    /// # Panics
    /// Panics if `signal_var <= 0`, `lengthscales` is empty, or any
    /// length-scale is not strictly positive and finite.
    pub fn new(kind: KernelKind, signal_var: f64, lengthscales: Vec<f64>) -> Self {
        assert!(signal_var > 0.0 && signal_var.is_finite(), "signal variance must be positive");
        assert!(!lengthscales.is_empty(), "at least one length-scale required");
        assert!(
            lengthscales.iter().all(|l| *l > 0.0 && l.is_finite()),
            "length-scales must be positive and finite"
        );
        Kernel { kind, signal_var, lengthscales }
    }

    /// Matérn-3/2 kernel (the paper's eq. (6)).
    pub fn matern32(signal_var: f64, lengthscales: Vec<f64>) -> Self {
        Self::new(KernelKind::Matern32, signal_var, lengthscales)
    }

    /// Matérn-5/2 kernel.
    pub fn matern52(signal_var: f64, lengthscales: Vec<f64>) -> Self {
        Self::new(KernelKind::Matern52, signal_var, lengthscales)
    }

    /// Squared-exponential kernel.
    pub fn rbf(signal_var: f64, lengthscales: Vec<f64>) -> Self {
        Self::new(KernelKind::Rbf, signal_var, lengthscales)
    }

    /// Isotropic convenience constructor: one shared length-scale across
    /// `dim` dimensions.
    pub fn isotropic(kind: KernelKind, signal_var: f64, lengthscale: f64, dim: usize) -> Self {
        Self::new(kind, signal_var, vec![lengthscale; dim])
    }

    /// Input dimensionality this kernel expects.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Kernel family.
    #[inline]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Signal variance `sigma_f^2`.
    #[inline]
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }

    /// Per-dimension length-scales.
    #[inline]
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Length-scale–weighted distance between two points (eq. (5)).
    ///
    /// # Panics
    /// Panics (debug) if input dimensions differ from the kernel's.
    #[inline]
    pub fn scaled_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dim());
        debug_assert_eq!(b.len(), self.dim());
        let mut acc = 0.0;
        for k in 0..a.len() {
            let d = (a[k] - b[k]) / self.lengthscales[k];
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Evaluates `k(a, b)`.
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.at_distance(self.scaled_distance(a, b))
    }

    /// `base[i]`: the part of the squared scaled distance from window
    /// point `x_i` (rows of the flat row-major `xs`) to any point whose
    /// first `q.len()` coordinates are `q`. Summed in dimension order from
    /// `0.0`, as [`Kernel::eval`] sums those dimensions, so it is the
    /// prefix [`Kernel::eval_tile`] resumes from.
    pub(crate) fn prefix_sq_dists(&self, xs: &[f64], q: &[f64]) -> Vec<f64> {
        xs.chunks_exact(self.dim())
            .map(|x| {
                let mut acc = 0.0;
                for ((&xk, &qk), &lk) in x.iter().zip(q).zip(&self.lengthscales) {
                    let d = (xk - qk) / lk;
                    acc += d * d;
                }
                acc
            })
            .collect()
    }

    /// Fills `out[i][c] = k(x_i, p_c)` for every point `x_i` of the flat
    /// row-major `xs` against one tile of `TILE` points that share their
    /// first `dim - pts.len()` coordinates. `base[i]` is those shared
    /// dimensions' part of the distance ([`Kernel::prefix_sq_dists`]);
    /// `pts` holds the remaining coordinates dimension-major (`pts[k][c]`
    /// is the `k`-th of them for point `c`), so the distance loop runs
    /// across the tile's columns.
    ///
    /// Each entry is bit-identical to [`Kernel::eval`]`(x_i, p_c)`: the
    /// same differences and divisions, summed in dimension order, then
    /// the same covariance expression.
    pub(crate) fn eval_tile(
        &self,
        xs: &[f64],
        base: &[f64],
        pts: &[[f64; TILE]],
        out: &mut [[f64; TILE]],
    ) {
        let dim = self.dim();
        let shared = dim - pts.len();
        debug_assert_eq!(xs.len(), out.len() * dim);
        debug_assert_eq!(base.len(), out.len());
        let ls = &self.lengthscales[shared..];
        for ((x, &b), row) in xs.chunks_exact(dim).zip(base).zip(out.iter_mut()) {
            let mut acc = [b; TILE];
            for ((&xk, &lk), p) in x[shared..].iter().zip(ls).zip(pts) {
                for c in 0..TILE {
                    let d = (xk - p[c]) / lk;
                    acc[c] += d * d;
                }
            }
            for (k, a) in row.iter_mut().zip(acc) {
                *k = self.at_distance(a.sqrt());
            }
        }
    }

    /// The covariance at scaled distance `d`: `sigma_f^2 * g(d)`.
    #[inline]
    fn at_distance(&self, d: f64) -> f64 {
        self.signal_var
            * match self.kind {
                KernelKind::Matern32 => {
                    let s = 3f64.sqrt() * d;
                    (1.0 + s) * (-s).exp()
                }
                KernelKind::Matern52 => {
                    let s = 5f64.sqrt() * d;
                    (1.0 + s + s * s / 3.0) * (-s).exp()
                }
                KernelKind::Rbf => (-0.5 * d * d).exp(),
            }
    }

    /// Prior variance at any point: `k(z, z) = sigma_f^2`.
    #[inline]
    pub fn prior_var(&self) -> f64 {
        self.signal_var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k32() -> Kernel {
        Kernel::matern32(2.0, vec![1.0, 0.5])
    }

    #[test]
    fn zero_distance_gives_signal_variance() {
        for kind in [KernelKind::Matern32, KernelKind::Matern52, KernelKind::Rbf] {
            let k = Kernel::new(kind, 3.5, vec![1.0, 2.0, 3.0]);
            let z = [0.3, -0.2, 0.9];
            assert!((k.eval(&z, &z) - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry() {
        let k = k32();
        let a = [0.1, 0.9];
        let b = [-0.4, 0.2];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn monotone_decay_with_distance() {
        for kind in [KernelKind::Matern32, KernelKind::Matern52, KernelKind::Rbf] {
            let k = Kernel::isotropic(kind, 1.0, 1.0, 1);
            let mut prev = k.eval(&[0.0], &[0.0]);
            for i in 1..50 {
                let v = k.eval(&[0.0], &[i as f64 * 0.1]);
                assert!(v < prev, "{kind:?} not decaying at step {i}");
                assert!(v > 0.0);
                prev = v;
            }
        }
    }

    #[test]
    fn anisotropy_weights_dimensions() {
        // Length-scale 0.5 in dim 1 makes moves there "longer".
        let k = k32();
        let base = [0.0, 0.0];
        let move_dim0 = k.eval(&base, &[0.3, 0.0]);
        let move_dim1 = k.eval(&base, &[0.0, 0.3]);
        assert!(move_dim1 < move_dim0, "short length-scale dim must decorrelate faster");
    }

    #[test]
    fn scaled_distance_matches_eq5() {
        let k = Kernel::matern32(1.0, vec![2.0, 0.5]);
        // d = sqrt((1/2)^2 + (1/0.5)^2) = sqrt(0.25 + 4)
        let d = k.scaled_distance(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((d - 4.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matern32_closed_form() {
        // k(d) = (1 + sqrt(3) d) exp(-sqrt(3) d) at d = 1.
        let k = Kernel::matern32(1.0, vec![1.0]);
        let s = 3f64.sqrt();
        let want = (1.0 + s) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - want).abs() < 1e-12);
    }

    #[test]
    fn smoother_kernels_correlate_more_at_short_range() {
        let d = 0.4;
        let m32 = Kernel::matern32(1.0, vec![1.0]).eval(&[0.0], &[d]);
        let m52 = Kernel::matern52(1.0, vec![1.0]).eval(&[0.0], &[d]);
        let rbf = Kernel::rbf(1.0, vec![1.0]).eval(&[0.0], &[d]);
        assert!(m32 < m52 && m52 < rbf);
    }

    #[test]
    #[should_panic(expected = "length-scales must be positive")]
    fn rejects_nonpositive_lengthscale() {
        let _ = Kernel::matern32(1.0, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "signal variance must be positive")]
    fn rejects_nonpositive_signal_var() {
        let _ = Kernel::matern32(0.0, vec![1.0]);
    }
}
