//! Exact GP regression with incremental Cholesky updates.

use crate::{GpError, Kernel};
use edgebol_linalg::{vecops, Cholesky, Mat, TILE};

/// How [`GaussianProcess::observe`] makes room when the sliding window is
/// full. A new GP uses [`EvictStrategy::Downdate`];
/// [`GaussianProcess::with_evict_strategy`] picks per GP, so a process
/// can host GPs with different strategies (the equivalence tests rely on
/// this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictStrategy {
    /// `O(W^2)` delete-row Cholesky downdate ([`Cholesky::delete_row`]).
    /// Falls back to a jittered refactorization if the downdate reports
    /// loss of positive-definiteness (possible only for degenerate or
    /// non-finite factors).
    Downdate,
    /// `O(W^3)` from-scratch refactorization of the shrunken window — the
    /// pre-downdate behaviour, kept as the reference the equivalence
    /// battery and the perf gate compare the fast path against.
    Rebuild,
}

/// Test-only fault injection for the eviction path, pinning the
/// transactional guarantee of [`GaussianProcess::observe`]'s evict step.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvictFailpoint {
    None,
    /// The downdate reports failure (exercises the refactor fallback).
    DowndateFails,
    /// Every factorization attempt fails (exercises the error path).
    AllFail,
}

/// Online exact Gaussian-process regressor.
///
/// Implements the posterior of eqs. (3)–(4) of the paper:
///
/// * `mu_T(z)  = k_T(z)^T (K_T + zeta^2 I)^{-1} y_T`
/// * `k_T(z,z') = k(z,z') - k_T(z)^T (K_T + zeta^2 I)^{-1} k_T(z')`
///
/// maintained online: each [`observe`](Self::observe) appends one bordered
/// row/column to the Cholesky factor of `K_T + zeta^2 I` in `O(T^2)`.
///
/// Targets are internally centred on their running mean so the zero-mean
/// prior assumption (`mu := 0`, §5) holds regardless of the physical units
/// of the observed KPI (watts, seconds, mAP). The centring offset is folded
/// back into predictions.
///
/// An optional **sliding window** (`max_observations`) bounds the cost of
/// very long runs (e.g., the 3 000-period experiment of Fig. 14): when the
/// window is full the oldest observation is evicted with an `O(W^2)`
/// delete-row Cholesky downdate (see [`EvictStrategy`]), so the at-capacity
/// steady state costs the same order as the bordered append rather than a
/// full `O(W^3)` refactorization every period.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    /// Observation-noise variance `zeta^2`.
    noise_var: f64,
    /// Flattened inputs, `len = n * dim`.
    xs: Vec<f64>,
    /// Raw (uncentred) targets.
    ys: Vec<f64>,
    /// Cholesky factor of `K + zeta^2 I`.
    chol: Cholesky,
    /// Cached `alpha = (K + zeta^2 I)^{-1} (y - mean(y))`; rebuilt lazily.
    alpha: Vec<f64>,
    alpha_dirty: bool,
    /// Cached mean of `ys`.
    y_mean: f64,
    /// Optional sliding-window capacity.
    max_observations: Option<usize>,
    /// How a full window evicts its oldest observation.
    evict: EvictStrategy,
    /// Injected eviction faults (tests only).
    #[cfg(test)]
    evict_failpoint: EvictFailpoint,
}

impl GaussianProcess {
    /// Creates an empty GP with the given kernel and noise variance.
    ///
    /// # Panics
    /// Panics if `noise_var` is not strictly positive and finite.
    pub fn new(kernel: Kernel, noise_var: f64) -> Self {
        assert!(noise_var > 0.0 && noise_var.is_finite(), "noise variance must be positive");
        GaussianProcess {
            kernel,
            noise_var,
            xs: Vec::new(),
            ys: Vec::new(),
            chol: Cholesky::empty(),
            alpha: Vec::new(),
            alpha_dirty: false,
            y_mean: 0.0,
            max_observations: None,
            evict: EvictStrategy::Downdate,
            #[cfg(test)]
            evict_failpoint: EvictFailpoint::None,
        }
    }

    /// Builder-style: bound the number of retained observations.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn with_max_observations(mut self, cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        self.max_observations = Some(cap);
        self
    }

    /// Builder-style: override the default [`EvictStrategy::Downdate`].
    pub fn with_evict_strategy(mut self, strategy: EvictStrategy) -> Self {
        self.evict = strategy;
        self
    }

    /// The eviction strategy in use.
    #[inline]
    pub fn evict_strategy(&self) -> EvictStrategy {
        self.evict
    }

    /// Number of retained observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// `true` when no observation has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// The kernel in use.
    #[inline]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation-noise variance `zeta^2`.
    #[inline]
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Input point `i` of the retained window.
    #[inline]
    fn x(&self, i: usize) -> &[f64] {
        let d = self.kernel.dim();
        &self.xs[i * d..(i + 1) * d]
    }

    /// Records one observation `(z, y)` and updates the factorization.
    ///
    /// # Errors
    /// * [`GpError::DimensionMismatch`] when `z.len() != kernel.dim()`.
    /// * [`GpError::Numerical`] if the bordered factor update fails (cannot
    ///   happen for `noise_var > 0` with a valid kernel, but is surfaced
    ///   rather than panicking).
    pub fn observe(&mut self, z: &[f64], y: f64) -> Result<(), GpError> {
        if z.len() != self.kernel.dim() {
            return Err(GpError::DimensionMismatch { expected: self.kernel.dim(), got: z.len() });
        }
        if let Some(cap) = self.max_observations {
            if self.len() == cap {
                self.evict_oldest()?;
            }
        }
        let n = self.len();
        let mut cross = Vec::with_capacity(n);
        for i in 0..n {
            cross.push(self.kernel.eval(self.x(i), z));
        }
        let kappa = self.kernel.prior_var() + self.noise_var;
        self.chol.append(&cross, kappa).map_err(|e| GpError::Numerical(e.to_string()))?;
        self.xs.extend_from_slice(z);
        self.ys.push(y);
        self.alpha_dirty = true;
        Ok(())
    }

    /// Drops the oldest observation, shrinking the factor per the
    /// configured [`EvictStrategy`].
    ///
    /// Transactional: the shrunken factor is computed *before* the window
    /// is mutated, so a numerical failure leaves the model exactly in its
    /// pre-evict state (window, factor, and cached posterior intact).
    fn evict_oldest(&mut self) -> Result<(), GpError> {
        let chol = self.shrunken_factor().map_err(|e| GpError::Numerical(e.to_string()))?;
        self.chol = chol;
        self.xs.drain(..self.kernel.dim());
        self.ys.remove(0);
        self.alpha_dirty = true;
        Ok(())
    }

    /// Computes the factor of the window without its oldest observation.
    fn shrunken_factor(&self) -> edgebol_linalg::Result<Cholesky> {
        #[cfg(test)]
        match self.evict_failpoint {
            EvictFailpoint::AllFail => {
                return Err(edgebol_linalg::LinalgError::NotPositiveDefinite {
                    pivot: 0,
                    jitter: 0.0,
                })
            }
            EvictFailpoint::DowndateFails => return self.refactor_tail(),
            EvictFailpoint::None => {}
        }
        match self.evict {
            EvictStrategy::Downdate => self.chol.delete_row(0).or_else(|_| self.refactor_tail()),
            EvictStrategy::Rebuild => self.refactor_tail(),
        }
    }

    /// From-scratch (jittered) factorization of rows `1..` of the window —
    /// the rebuild strategy, and the downdate's fallback.
    fn refactor_tail(&self) -> edgebol_linalg::Result<Cholesky> {
        let n = self.len() - 1;
        let mut k = Mat::from_fn(n, n, |i, j| self.kernel.eval(self.x(i + 1), self.x(j + 1)));
        k.add_diagonal(self.noise_var);
        Cholesky::factor(&k)
    }

    /// Rebuilds the cached `alpha` vector if observations changed.
    fn refresh_alpha(&mut self) {
        if !self.alpha_dirty {
            return;
        }
        self.y_mean = vecops::mean(&self.ys);
        let centred: Vec<f64> = self.ys.iter().map(|y| y - self.y_mean).collect();
        self.alpha = if centred.is_empty() { Vec::new() } else { self.chol.solve(&centred) };
        self.alpha_dirty = false;
    }

    /// Posterior mean and standard deviation at `z` (eqs. (3)–(4)).
    ///
    /// With no observations this returns the prior: mean 0, std
    /// `sqrt(signal_var)`.
    ///
    /// # Panics
    /// Panics if `z.len() != kernel.dim()`.
    pub fn predict(&mut self, z: &[f64]) -> (f64, f64) {
        assert_eq!(z.len(), self.kernel.dim(), "predict: input dimension");
        if self.is_empty() {
            return (0.0, self.kernel.prior_var().sqrt());
        }
        self.refresh_alpha();
        let n = self.len();
        let mut kvec = Vec::with_capacity(n);
        for i in 0..n {
            kvec.push(self.kernel.eval(self.x(i), z));
        }
        let mean = self.y_mean + vecops::dot(&kvec, &self.alpha);
        let v = self.chol.half_solve(&kvec);
        let var = (self.kernel.prior_var() - vecops::dot(&v, &v)).max(0.0);
        (mean, var.sqrt())
    }

    /// Batched posterior over many candidate points.
    ///
    /// `points` is a flat row-major `(m x dim)` slice. Returns `(means,
    /// stds)` of length `m`. This is the hot path of the acquisition step.
    /// The candidates stream through tiles of `TILE` columns: each tile's
    /// cross-kernel block `K*` (`n x TILE`, 25 KB at `n = 200`) is filled,
    /// read once for the means and solved in place into `L^{-1} K*` for
    /// the variances, so no `n x m` matrix is ever built. The leading
    /// coordinates every candidate shares (EdgeBOL's context) add the same
    /// term to each column's distance from a window point, so that term is
    /// summed once per call. Each column's kernel values, mean sum, forward
    /// substitution and variance sum run in the order they would for that
    /// column alone, so its values do not depend on which candidates share
    /// its tile or its batch.
    ///
    /// # Panics
    /// Panics if `points.len()` is not a multiple of `kernel.dim()`.
    pub fn predict_batch(&mut self, points: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let d = self.kernel.dim();
        assert_eq!(points.len() % d, 0, "predict_batch: flat input length");
        let m = points.len() / d;
        if self.is_empty() {
            return (vec![0.0; m], vec![self.kernel.prior_var().sqrt(); m]);
        }
        self.refresh_alpha();
        let prior = self.kernel.prior_var();
        let mut means = Vec::with_capacity(m);
        let mut stds = Vec::with_capacity(m);
        // The leading coordinates all candidates share (a period's
        // context) contribute the same distance to every column: sum it
        // once per window point.
        let shared = shared_prefix(points, d);
        let base = self.kernel.prefix_sq_dists(&self.xs, &points[..shared]);
        // The tile's remaining coordinates, dimension-major; a partial
        // last tile is padded with zero points whose columns are dropped.
        let mut pts = vec![[0.0; TILE]; d - shared];
        let mut kt = vec![[0.0; TILE]; self.len()];
        for tile in points.chunks(TILE * d) {
            let w = tile.len() / d;
            for (k, p) in pts.iter_mut().enumerate() {
                for (c, v) in p.iter_mut().enumerate() {
                    *v = if c < w { tile[c * d + shared + k] } else { 0.0 };
                }
            }
            self.kernel.eval_tile(&self.xs, &base, &pts, &mut kt);
            let mut mean = [0.0; TILE];
            for (&a, k) in self.alpha.iter().zip(&kt) {
                for c in 0..TILE {
                    mean[c] += a * k[c];
                }
            }
            self.chol.half_solve_tile(&mut kt);
            let mut ss = [0.0; TILE];
            for v in &kt {
                for c in 0..TILE {
                    ss[c] += v[c] * v[c];
                }
            }
            means.extend(mean[..w].iter().map(|mu| mu + self.y_mean));
            stds.extend(ss[..w].iter().map(|s| (prior - s).max(0.0).sqrt()));
        }
        (means, stds)
    }

    /// Draws one sample of the posterior *marginals* at the given points:
    /// `f_j ~ N(mu(z_j), sigma^2(z_j))` independently per point.
    ///
    /// This is the cheap variant of posterior sampling used by
    /// Thompson-sampling acquisitions over large candidate sets, where the
    /// full joint draw (an `m x m` Cholesky) would dominate the period
    /// budget. Ignoring cross-candidate correlations makes the draw
    /// *more* explorative, which is benign for an acquisition rule.
    pub fn sample_marginals<R: rand::Rng + ?Sized>(
        &mut self,
        points: &[f64],
        rng: &mut R,
    ) -> Vec<f64> {
        let (means, stds) = self.predict_batch(points);
        means
            .into_iter()
            .zip(stds)
            .map(|(m, s)| m + s * edgebol_linalg::stats::normal01(rng))
            .collect()
    }

    /// Log marginal likelihood of the retained data under the current
    /// hyperparameters:
    /// `log p(y|Z) = -1/2 y^T alpha - 1/2 log det(K + zeta^2 I) - n/2 log(2 pi)`.
    ///
    /// # Errors
    /// Returns [`GpError::Empty`] with no observations.
    pub fn log_marginal_likelihood(&mut self) -> Result<f64, GpError> {
        if self.is_empty() {
            return Err(GpError::Empty);
        }
        self.refresh_alpha();
        let centred: Vec<f64> = self.ys.iter().map(|y| y - self.y_mean).collect();
        let fit = -0.5 * vecops::dot(&centred, &self.alpha);
        let complexity = -0.5 * self.chol.log_det();
        let norm = -0.5 * self.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(fit + complexity + norm)
    }

    /// The raw retained observations `(inputs, targets)`; inputs flat
    /// row-major. Mainly for hyperparameter refitting and tests.
    pub fn data(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Exports the retained posterior observations as a portable
    /// [`GpSnapshot`] — the transfer format of the fleet layer's
    /// warm-start: a freshly spawned learner absorbs a neighbour's
    /// snapshot instead of exploring from the prior.
    ///
    /// ```
    /// use edgebol_gp::{GaussianProcess, Kernel};
    ///
    /// let mut donor = GaussianProcess::new(Kernel::matern32(1.0, vec![0.4]), 1e-4);
    /// for i in 0..8 {
    ///     let x = i as f64 / 7.0;
    ///     donor.observe(&[x], (3.0 * x).cos()).unwrap();
    /// }
    /// let snap = donor.snapshot();
    /// assert_eq!(snap.len(), 8);
    ///
    /// let mut fresh = GaussianProcess::new(Kernel::matern32(1.0, vec![0.4]), 1e-4);
    /// fresh.absorb(&snap).unwrap();
    /// let (m_d, _) = donor.predict(&[0.5]);
    /// let (m_f, _) = fresh.predict(&[0.5]);
    /// assert!((m_d - m_f).abs() < 1e-12);
    /// ```
    pub fn snapshot(&self) -> GpSnapshot {
        GpSnapshot { dim: self.kernel.dim(), xs: self.xs.clone(), ys: self.ys.clone() }
    }

    /// Replays every observation of `snap` into this GP (oldest first,
    /// honouring the sliding window), returning how many were absorbed.
    ///
    /// # Errors
    /// [`GpError::DimensionMismatch`] when the snapshot's input dimension
    /// differs from the kernel's; observations absorbed before the error
    /// are kept (each replayed point is an ordinary [`Self::observe`]).
    pub fn absorb(&mut self, snap: &GpSnapshot) -> Result<usize, GpError> {
        if snap.dim != self.kernel.dim() {
            return Err(GpError::DimensionMismatch { expected: self.kernel.dim(), got: snap.dim });
        }
        for (z, y) in snap.iter() {
            self.observe(z, y)?;
        }
        Ok(snap.len())
    }
}

/// How many leading coordinates every `d`-dim point of the flat `points`
/// shares with the first, compared by bits; 0 for an empty batch.
fn shared_prefix(points: &[f64], d: usize) -> usize {
    let mut rows = points.chunks_exact(d);
    let Some(first) = rows.next() else { return 0 };
    rows.fold(d, |s, p| {
        first[..s].iter().zip(p).take_while(|(a, b)| a.to_bits() == b.to_bits()).count()
    })
}

/// A portable export of a GP's retained observations — what
/// [`GaussianProcess::snapshot`] produces and
/// [`GaussianProcess::absorb`] replays. The snapshot carries raw data,
/// not the factorization: absorbing rebuilds the posterior under the
/// *receiver's* kernel and noise, so a transfer between GPs with
/// different hyperparameters is well defined (the receiving model simply
/// conditions on the donor's evidence).
#[derive(Debug, Clone, PartialEq)]
pub struct GpSnapshot {
    /// Input dimensionality of every point.
    dim: usize,
    /// Flattened inputs, `len = n * dim`, oldest observation first.
    xs: Vec<f64>,
    /// Targets, `len = n`, oldest observation first.
    ys: Vec<f64>,
}

impl GpSnapshot {
    /// Builds a snapshot from raw parts (`xs` flat row-major).
    ///
    /// # Panics
    /// Panics if `dim == 0` or the lengths are inconsistent.
    pub fn from_parts(dim: usize, xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert!(dim > 0, "snapshot dimension must be positive");
        assert_eq!(xs.len(), ys.len() * dim, "snapshot shape: xs must be ys.len() * dim");
        GpSnapshot { dim, xs, ys }
    }

    /// Number of observations in the snapshot.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// `true` when the snapshot holds no observations.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Iterates the observations as `(input, target)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.ys.iter().enumerate().map(|(i, &y)| (&self.xs[i * self.dim..(i + 1) * self.dim], y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;

    fn toy_gp() -> GaussianProcess {
        GaussianProcess::new(Kernel::matern32(1.0, vec![0.3]), 1e-6)
    }

    #[test]
    fn prior_prediction_when_empty() {
        let mut gp = GaussianProcess::new(Kernel::rbf(4.0, vec![1.0]), 1e-4);
        let (m, s) = gp.predict(&[0.0]);
        assert_eq!(m, 0.0);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interpolates_noise_free_data() {
        let mut gp = toy_gp();
        let f = |x: f64| (3.0 * x).cos();
        for i in 0..15 {
            let x = i as f64 / 14.0;
            gp.observe(&[x], f(x)).unwrap();
        }
        for i in 0..15 {
            let x = i as f64 / 14.0;
            let (m, s) = gp.predict(&[x]);
            assert!((m - f(x)).abs() < 1e-3, "mean off at {x}: {m}");
            assert!(s < 0.02, "std too large at observed point: {s}");
        }
        // In-between points are close too (function is smooth).
        let (m, _) = gp.predict(&[0.5 + 1.0 / 28.0]);
        assert!((m - f(0.5 + 1.0 / 28.0)).abs() < 0.05);
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let mut gp = toy_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        let (_, s_near) = gp.predict(&[0.05]);
        let (_, s_far) = gp.predict(&[2.0]);
        assert!(s_far > s_near);
        assert!(s_far <= 1.0 + 1e-9, "posterior std cannot exceed prior");
    }

    #[test]
    fn rejects_wrong_dimension() {
        let mut gp = toy_gp();
        assert!(matches!(
            gp.observe(&[1.0, 2.0], 0.0),
            Err(GpError::DimensionMismatch { expected: 1, got: 2 })
        ));
    }

    #[test]
    fn batch_matches_single_predictions() {
        let mut gp = GaussianProcess::new(Kernel::matern52(2.0, vec![0.4, 0.7]), 1e-3);
        let pts = [[0.1, 0.2], [0.5, 0.9], [0.8, 0.1], [0.3, 0.4]];
        for (i, p) in pts.iter().enumerate() {
            gp.observe(p, i as f64 * 0.5 - 1.0).unwrap();
        }
        let q: Vec<f64> =
            (0..20).flat_map(|i| vec![i as f64 * 0.05, 1.0 - i as f64 * 0.05]).collect();
        let (bm, bs) = gp.predict_batch(&q);
        for j in 0..20 {
            let (m, s) = gp.predict(&q[j * 2..j * 2 + 2]);
            assert!((bm[j] - m).abs() < 1e-10, "mean mismatch at {j}");
            assert!((bs[j] - s).abs() < 1e-10, "std mismatch at {j}");
        }
    }

    /// An empty batch yields two empty vectors, with or without data.
    #[test]
    fn empty_batch_returns_empty_vectors() {
        let mut gp = toy_gp();
        assert_eq!(gp.predict_batch(&[]), (Vec::new(), Vec::new()));
        gp.observe(&[0.5], 1.0).unwrap();
        assert_eq!(gp.predict_batch(&[]), (Vec::new(), Vec::new()));
    }

    /// A NaN or infinite candidate poisons at most its own column: every
    /// other column of its tile, including those next to a partial tile's
    /// padding, reads exactly its pointwise posterior.
    #[test]
    fn non_finite_query_leaves_its_tile_neighbours_bit_identical() {
        for kind in [KernelKind::Matern32, KernelKind::Matern52, KernelKind::Rbf] {
            let mut gp = GaussianProcess::new(Kernel::new(kind, 2.0, vec![0.4, 0.7]), 1e-3);
            for i in 0..9 {
                let x = i as f64 / 8.0;
                gp.observe(&[x, 1.0 - x * x], x.sin()).unwrap();
            }
            let m = 2 * TILE + 3;
            let mut q: Vec<f64> = (0..2 * m).map(|i| (i % 19) as f64 / 18.0).collect();
            let poisoned = [2, TILE + 5, m - 1];
            q[2 * poisoned[0]] = f64::NAN;
            q[2 * poisoned[1] + 1] = f64::INFINITY;
            q[2 * poisoned[2]] = f64::NAN;
            let (bm, bs) = gp.predict_batch(&q);
            for (j, z) in q.chunks(2).enumerate() {
                let (mu, s) = gp.predict(z);
                if poisoned.contains(&j) {
                    assert!(bm[j] == mu || (bm[j].is_nan() && mu.is_nan()), "{kind:?} mean {j}");
                    assert!(bs[j] == s || (bs[j].is_nan() && s.is_nan()), "{kind:?} std {j}");
                    continue;
                }
                assert_eq!(bm[j].to_bits(), mu.to_bits(), "{kind:?}: mean of column {j} leaked");
                assert_eq!(bs[j].to_bits(), s.to_bits(), "{kind:?}: std of column {j} leaked");
            }
        }
    }

    #[test]
    fn mean_offset_handles_uncentred_targets() {
        // Targets near 150 (like server power in watts) must not break the
        // zero-mean prior assumption.
        let mut gp = GaussianProcess::new(Kernel::matern32(1.0, vec![0.3]), 1e-4);
        for i in 0..10 {
            let x = i as f64 / 9.0;
            gp.observe(&[x], 150.0 + x).unwrap();
        }
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 150.5).abs() < 0.1, "{m}");
        // Far away, prediction decays to the data mean — not to zero.
        let (m_far, _) = gp.predict(&[100.0]);
        assert!((m_far - 150.5).abs() < 1.0);
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut gp = toy_gp().with_max_observations(5);
        for i in 0..12 {
            gp.observe(&[i as f64], i as f64).unwrap();
        }
        assert_eq!(gp.len(), 5);
        let (xs, ys) = gp.data();
        assert_eq!(ys, &[7.0, 8.0, 9.0, 10.0, 11.0]);
        assert_eq!(xs[0], 7.0);
        // Predictions still sane at a retained point.
        let (m, _) = gp.predict(&[9.0]);
        assert!((m - 9.0).abs() < 1e-2);
    }

    #[test]
    fn noisy_observations_are_smoothed() {
        let mut gp = GaussianProcess::new(Kernel::matern32(1.0, vec![0.5]), 0.25);
        // Two conflicting observations at the same point average out.
        gp.observe(&[0.5], 1.0).unwrap();
        gp.observe(&[0.5], -1.0).unwrap();
        let (m, s) = gp.predict(&[0.5]);
        assert!(m.abs() < 1e-9, "posterior mean should be the average: {m}");
        assert!(s > 0.1, "noise must keep residual uncertainty");
    }

    #[test]
    fn lml_prefers_correct_lengthscale() {
        // Data from a slowly varying function: a too-short length-scale
        // should yield lower marginal likelihood than a well-matched one.
        let f = |x: f64| x; // linear, very smooth
        let build = |ls: f64| {
            let mut gp = GaussianProcess::new(Kernel::matern32(1.0, vec![ls]), 1e-4);
            for i in 0..12 {
                let x = i as f64 / 11.0;
                gp.observe(&[x], f(x)).unwrap();
            }
            gp
        };
        let lml_good = build(1.0).log_marginal_likelihood().unwrap();
        let lml_bad = build(0.01).log_marginal_likelihood().unwrap();
        assert!(lml_good > lml_bad, "good {lml_good} vs bad {lml_bad}");
    }

    #[test]
    fn lml_requires_data() {
        let mut gp = toy_gp();
        assert!(matches!(gp.log_marginal_likelihood(), Err(GpError::Empty)));
    }

    #[test]
    fn sample_marginals_statistics_match_posterior() {
        use rand::SeedableRng;
        let mut gp = toy_gp();
        gp.observe(&[0.2], 1.0).unwrap();
        gp.observe(&[0.8], -1.0).unwrap();
        let q = [0.5];
        let (m, s) = gp.predict(&q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let draws: Vec<f64> = (0..5000).map(|_| gp.sample_marginals(&q, &mut rng)[0]).collect();
        let mean = edgebol_linalg::vecops::mean(&draws);
        let std = edgebol_linalg::vecops::variance(&draws).sqrt();
        assert!((mean - m).abs() < 0.05, "sample mean {mean} vs {m}");
        assert!((std - s).abs() < 0.05, "sample std {std} vs {s}");
    }

    #[test]
    fn incremental_equals_batch_posterior() {
        // Posterior from incremental appends must match a from-scratch GP
        // given identical data (validates the bordered Cholesky path).
        let mut inc = GaussianProcess::new(Kernel::new(KernelKind::Rbf, 1.5, vec![0.4, 0.6]), 1e-3);
        let data: Vec<([f64; 2], f64)> = (0..20)
            .map(|i| {
                let x = [i as f64 * 0.05, (i as f64 * 0.07).fract()];
                (x, (x[0] * 4.0).sin() + x[1])
            })
            .collect();
        for (x, y) in &data {
            inc.observe(x, *y).unwrap();
        }
        // From-scratch: reuse evict path by forcing a rebuild via window.
        let mut scratch =
            GaussianProcess::new(Kernel::new(KernelKind::Rbf, 1.5, vec![0.4, 0.6]), 1e-3)
                .with_max_observations(20)
                .with_evict_strategy(EvictStrategy::Rebuild);
        // Observe one dummy first so the window eviction rebuilds the factor.
        scratch.observe(&[9.9, 9.9], 0.0).unwrap();
        for (x, y) in &data {
            scratch.observe(x, *y).unwrap();
        }
        let q = [0.33, 0.77];
        let (mi, si) = inc.predict(&q);
        let (ms, ss) = scratch.predict(&q);
        assert!((mi - ms).abs() < 1e-6, "{mi} vs {ms}");
        assert!((si - ss).abs() < 1e-6, "{si} vs {ss}");
    }

    #[test]
    fn evict_strategy_defaults_to_downdate() {
        assert_eq!(toy_gp().evict_strategy(), EvictStrategy::Downdate);
    }

    /// The downdate and rebuild strategies must agree on the posterior
    /// through many eviction cycles — the unit-level core of the
    /// workspace-level equivalence battery.
    #[test]
    fn downdate_and_rebuild_windows_agree() {
        let build = |s: EvictStrategy| {
            GaussianProcess::new(Kernel::matern52(1.3, vec![0.4]), 1e-4)
                .with_max_observations(8)
                .with_evict_strategy(s)
        };
        let mut fast = build(EvictStrategy::Downdate);
        let mut oracle = build(EvictStrategy::Rebuild);
        for i in 0..40 {
            let x = (i as f64 * 0.37).fract();
            let y = (x * 5.0).sin() + 0.1 * (i as f64 * 0.11).cos();
            fast.observe(&[x], y).unwrap();
            oracle.observe(&[x], y).unwrap();
        }
        assert_eq!(fast.len(), 8);
        for j in 0..25 {
            let q = [j as f64 / 24.0];
            let (mf, sf) = fast.predict(&q);
            let (mo, so) = oracle.predict(&q);
            assert!((mf - mo).abs() < 1e-9, "mean drift at {q:?}: {mf} vs {mo}");
            assert!((sf - so).abs() < 1e-9, "std drift at {q:?}: {sf} vs {so}");
        }
    }

    /// A failed eviction must leave the model in its pre-evict state: the
    /// window, factor, and predictions are untouched, and the GP recovers
    /// as soon as the fault clears.
    #[test]
    fn evict_failure_preserves_state() {
        let mut gp = toy_gp().with_max_observations(5);
        for i in 0..5 {
            gp.observe(&[i as f64 * 0.2], i as f64).unwrap();
        }
        let (xs_before, ys_before) = {
            let (xs, ys) = gp.data();
            (xs.to_vec(), ys.to_vec())
        };
        let pred_before = gp.predict(&[0.5]);
        gp.evict_failpoint = EvictFailpoint::AllFail;
        assert!(matches!(gp.observe(&[1.5], 9.0), Err(GpError::Numerical(_))));
        let (xs, ys) = gp.data();
        assert_eq!(xs, &xs_before[..], "inputs must be untouched after a failed evict");
        assert_eq!(ys, &ys_before[..], "targets must be untouched after a failed evict");
        assert_eq!(gp.predict(&[0.5]), pred_before, "posterior must be untouched");
        // Fault cleared: the same observation now succeeds and slides the window.
        gp.evict_failpoint = EvictFailpoint::None;
        gp.observe(&[1.5], 9.0).unwrap();
        let (_, ys) = gp.data();
        assert_eq!(ys, &[1.0, 2.0, 3.0, 4.0, 9.0]);
    }

    #[test]
    fn snapshot_absorb_reproduces_the_posterior() {
        let mut donor = toy_gp();
        for i in 0..10 {
            let x = i as f64 / 9.0;
            donor.observe(&[x], (4.0 * x).sin()).unwrap();
        }
        let snap = donor.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap.dim(), 1);
        let mut fresh = toy_gp();
        assert_eq!(fresh.absorb(&snap).unwrap(), 10);
        for j in 0..7 {
            let q = [j as f64 / 6.0];
            let (md, sd) = donor.predict(&q);
            let (mf, sf) = fresh.predict(&q);
            assert!((md - mf).abs() < 1e-12, "mean at {q:?}");
            assert!((sd - sf).abs() < 1e-12, "std at {q:?}");
        }
    }

    #[test]
    fn absorb_respects_the_sliding_window() {
        let mut donor = toy_gp();
        for i in 0..9 {
            donor.observe(&[i as f64], i as f64).unwrap();
        }
        let mut small = toy_gp().with_max_observations(4);
        small.absorb(&donor.snapshot()).unwrap();
        assert_eq!(small.len(), 4);
        let (_, ys) = small.data();
        assert_eq!(ys, &[5.0, 6.0, 7.0, 8.0], "the newest donor points survive");
    }

    #[test]
    fn absorb_rejects_dimension_mismatch() {
        let snap = GpSnapshot::from_parts(2, vec![0.0, 0.0], vec![1.0]);
        let mut gp = toy_gp();
        assert!(matches!(
            gp.absorb(&snap),
            Err(GpError::DimensionMismatch { expected: 1, got: 2 })
        ));
        assert!(gp.is_empty(), "nothing absorbed on a shape mismatch");
    }

    #[test]
    #[should_panic(expected = "snapshot shape")]
    fn snapshot_from_parts_checks_shape() {
        let _ = GpSnapshot::from_parts(2, vec![0.0; 3], vec![1.0]);
    }

    /// When the downdate reports failure the refactor fallback must keep
    /// the posterior consistent with an oracle that always rebuilds.
    #[test]
    fn downdate_failure_falls_back_to_refactor() {
        let mut gp = toy_gp().with_max_observations(6);
        let mut oracle =
            toy_gp().with_max_observations(6).with_evict_strategy(EvictStrategy::Rebuild);
        gp.evict_failpoint = EvictFailpoint::DowndateFails;
        for i in 0..20 {
            let x = (i as f64 * 0.29).fract();
            gp.observe(&[x], x * x).unwrap();
            oracle.observe(&[x], x * x).unwrap();
        }
        let (m, s) = gp.predict(&[0.4]);
        let (mo, so) = oracle.predict(&[0.4]);
        assert!((m - mo).abs() < 1e-12);
        assert!((s - so).abs() < 1e-12);
    }
}
