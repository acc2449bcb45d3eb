//! EdgeBOL — Algorithm 1 of the paper.
//!
//! Three GPs model cost, delay and mAP over `z = (context, control)`.
//! Each period: estimate the safe set from the constraint GPs (eq. 8,
//! always unioned with the a-priori safe `S_0`), then pick the safe
//! control minimizing the cost LCB (eq. 9). Feedback updates all three
//! GPs.
//!
//! Practical machinery (all discussed in §5 "Practical Issues" or §4.4,
//! made concrete here):
//!
//! * **Warm-up on `S_0`.** The paper fits kernel hyperparameters "over
//!   prior data" and freezes them. We gather that prior data online: the
//!   first `warmup_rounds` periods draw random controls from `S_0` (the
//!   max-resource corner box — feasible whenever the problem is), then
//!   per-target standardization is frozen, hyperparameters optionally
//!   fitted by marginal likelihood, and the GPs are (re)built.
//! * **Candidate subsampling.** Evaluating the posterior on all
//!   `|X| = 14 641` controls every period is `O(|X| T^2)`; a random
//!   subsample plus `S_0` plus recently-selected "elite" controls keeps
//!   the cost bounded with no measurable loss on this problem (ablation
//!   bench `ablation_window`).
//! * **Sliding window.** For multi-thousand-period runs (Fig. 14) the GP
//!   keeps the most recent `max_observations` points.
//! * **Staged posterior.** Each GP evaluates only the candidates a later
//!   step reads: the delay GP all of them, the mAP GP the delay-safe ones
//!   (plus `S_0`), the cost GP the safe set plus `S_0`. The batched
//!   posterior computes every candidate column on its own, so the values
//!   read, and hence every decision, are bit-identical to evaluating all
//!   three GPs over every candidate (DESIGN.md §3).

use crate::api::{Constraints, Feedback};
use crate::grid::ControlGrid;
use edgebol_ckpt::{CkptError, Dec, Enc};
use edgebol_gp::{
    nelder_mead, EvictStrategy, GaussianProcess, Kernel, KernelKind, NelderMeadOptions,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Which acquisition rule to run on top of the shared GP/safe-set
/// machinery. EdgeBOL proper uses [`Acquisition::ConstrainedLcb`]; the
/// other variants exist for the baselines and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquisition {
    /// eq. (9): `argmin_{x in S_t} mu_0 - beta^{1/2} sigma_0`.
    ConstrainedLcb,
    /// SafeOpt-style: pick the safe control with the largest posterior
    /// uncertainty across the constraint functions (explicit safe-set
    /// expansion; converges slowly on cost).
    MaxUncertainty,
    /// LCB over *all* candidates, ignoring the safe set (ablation:
    /// quantifies how many violations safety filtering prevents).
    UnconstrainedLcb,
    /// Thompson sampling within the safe set: draw one cost realization
    /// per candidate from the posterior marginals and pick the cheapest.
    /// An extension beyond the paper; randomized exploration is sometimes
    /// less prone to LCB's boundary-hugging.
    ThompsonSampling,
}

/// Configuration of [`EdgeBol`].
#[derive(Debug, Clone)]
pub struct EdgeBolConfig {
    /// The `beta^{1/2}` confidence multiplier (paper: 2.5). Used for both
    /// the safe-set width (eq. 8) and the acquisition bonus (eq. 9) — the
    /// reading of the paper's shared beta consistent with [8, 20].
    pub beta_sqrt: f64,
    /// The service constraints in force.
    pub constraints: Constraints,
    /// Warm-up periods drawing random controls from the high-resource
    /// corner box (the "prior data" for scaling + hyperparameters).
    pub warmup_rounds: usize,
    /// Unit threshold of the warm-up sampling box (0.8 → 81 controls on
    /// the paper grid). Note the *fallback* safe set `S_0` is stricter:
    /// only the max-resources corner, the one control that is
    /// delay-minimal and mAP-maximal by construction — warm-up points
    /// inside the box may violate tight constraints, which is acceptable
    /// for a pre-production phase (§4.2) but not as a perpetual fallback.
    pub s0_threshold: f64,
    /// Fit kernel hyperparameters at the end of warm-up (paper's
    /// procedure); disable for exact determinism across runs.
    pub fit_hyperparams: bool,
    /// Sliding-window cap on retained observations (None = keep all).
    pub max_observations: Option<usize>,
    /// Window-eviction strategy override. `None` keeps the GP default,
    /// the `O(W^2)` delete-row downdate; the equivalence tests pin both
    /// strategies explicitly to compare them in one process.
    pub gp_evict: Option<EvictStrategy>,
    /// Candidate subsample size per period (None = full grid).
    pub candidate_subsample: Option<usize>,
    /// Acquisition rule (EdgeBOL: `ConstrainedLcb`).
    pub acquisition: Acquisition,
    /// Matérn-3/2 length-scale used per dimension before/without
    /// hyperparameter fitting (unit-space).
    pub default_lengthscale: f64,
    /// Observation-noise variance of the standardized targets.
    pub noise_var: f64,
    /// Floor on the kernel signal variance in standardized-target units.
    /// Warm-up data comes from the tight `S_0` corner, so its variance
    /// badly underestimates the functions' range over the whole control
    /// space; a small prior variance would make *unexplored* regions look
    /// confidently safe (the opposite of eq. (8)'s intent). A floor of
    /// several standardized variances keeps unexplored regions
    /// conservative until actually observed.
    pub min_prior_var: f64,
    /// RNG seed (subsampling, warm-up draws).
    pub seed: u64,
    /// Context dimensionality (the paper's aggregated context: 3).
    pub context_dims: usize,
}

impl EdgeBolConfig {
    /// The paper's configuration for a given constraint set.
    pub fn paper(constraints: Constraints) -> Self {
        EdgeBolConfig {
            beta_sqrt: 2.5,
            constraints,
            warmup_rounds: 12,
            s0_threshold: 0.8,
            fit_hyperparams: true,
            max_observations: Some(800),
            gp_evict: None,
            candidate_subsample: Some(2048),
            acquisition: Acquisition::ConstrainedLcb,
            default_lengthscale: 0.4,
            noise_var: 0.02,
            min_prior_var: 4.0,
            seed: 0xEB01,
            context_dims: 3,
        }
    }
}

/// Per-target affine standardization frozen at the end of warm-up.
#[derive(Debug, Clone, Copy)]
struct Scale {
    mean: f64,
    std: f64,
}

impl Scale {
    fn to_scaled(self, raw: f64) -> f64 {
        (raw - self.mean) / self.std
    }

    fn mean_from_scaled(&self, scaled: f64) -> f64 {
        scaled * self.std + self.mean
    }

    fn std_from_scaled(&self, scaled_std: f64) -> f64 {
        scaled_std * self.std
    }
}

/// Positions of the cost, delay and mAP models in `EdgeBol::gps`,
/// `EdgeBol::scales` and `EdgeBol::noise_std_raw`.
const COST: usize = 0;
const DELAY: usize = 1;
const MAP: usize = 2;

/// The EdgeBOL agent.
pub struct EdgeBol {
    cfg: EdgeBolConfig,
    grid: ControlGrid,
    /// GPs for cost (0), delay (1), mAP (2); built at the end of warm-up.
    gps: Option<[GaussianProcess; 3]>,
    scales: Option<[Scale; 3]>,
    /// Raw warm-up data: `(z, [cost, delay, map])`.
    warmup_data: Vec<(Vec<f64>, [f64; 3])>,
    /// The a-priori safe set: the max-resources corner.
    s0: Vec<usize>,
    /// Warm-up sampling box (high-resource controls around `S_0`).
    warmup_box: Vec<usize>,
    /// Per-function observation-noise std in raw units, frozen at the end
    /// of warm-up. The safe set backs off by `beta * noise_std` so the
    /// *realized noisy* constraints of eq. (2) hold with high probability,
    /// not just the latent means.
    noise_std_raw: [f64; 3],
    /// Raw-unit mirror of the GP window targets, kept in the same order
    /// (and under the same eviction) as the shared GP point sequence.
    /// Checkpoints serialize *these* values: re-standardizing them on
    /// restore reproduces the live GP targets bit-exactly, whereas
    /// de-standardizing the scaled window would round-trip through two
    /// f64 affine maps and drift.
    raw_ys: Vec<[f64; 3]>,
    /// Recently selected controls kept in every candidate set.
    elites: Vec<usize>,
    /// Reused flat candidate-matrix buffer for the batched posterior
    /// (avoids one `|cand| * dims` allocation per function per period).
    z_scratch: Vec<f64>,
    rng: SmallRng,
    /// Candidate columns each GP's posterior has evaluated (tests only).
    #[cfg(test)]
    columns: [usize; 3],
    /// Updates received so far.
    t: usize,
    /// Constraints can change at runtime (Fig. 14); the GPs carry over.
    pub constraints: Constraints,
}

impl EdgeBol {
    /// Creates the agent over the paper's 11^4 control grid.
    pub fn new(cfg: EdgeBolConfig) -> Self {
        Self::with_grid(cfg, ControlGrid::paper())
    }

    /// Creates the agent over a custom grid (used by tests and ablations).
    pub fn with_grid(cfg: EdgeBolConfig, grid: ControlGrid) -> Self {
        let warmup_box = grid.corner_box(cfg.s0_threshold);
        assert!(!warmup_box.is_empty(), "warm-up box must not be empty");
        let s0 = vec![grid.max_corner()];
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let constraints = cfg.constraints;
        EdgeBol {
            cfg,
            grid,
            gps: None,
            scales: None,
            warmup_data: Vec::new(),
            s0,
            warmup_box,
            raw_ys: Vec::new(),
            elites: Vec::new(),
            z_scratch: Vec::new(),
            rng,
            #[cfg(test)]
            columns: [0; 3],
            t: 0,
            constraints,
            noise_std_raw: [0.0; 3],
        }
    }

    /// The control grid.
    pub fn grid(&self) -> &ControlGrid {
        &self.grid
    }

    /// Updates the constraint setting at runtime (the Fig. 14 scenario).
    /// The learned GPs are retained — this is the non-parametric
    /// advantage the paper demonstrates against DDPG.
    pub fn set_constraints(&mut self, constraints: Constraints) {
        self.constraints = constraints;
    }

    /// Whether the agent is still in its warm-up phase.
    pub fn in_warmup(&self) -> bool {
        self.gps.is_none()
    }

    /// Exports the agent's experience as raw-unit observations
    /// `(z, [cost, delay, map])`, oldest first — the transfer payload for
    /// warm-starting a newly spawned learner (fleet layer).
    ///
    /// During warm-up this is the accumulated warm-up data; after the GPs
    /// are built it is reconstructed from the retained GP windows by
    /// unstandardizing each target with the frozen per-target `Scale`
    /// (the three GPs share identical inputs, so the cost GP's window
    /// defines the point set).
    pub fn export_experience(&self) -> Vec<(Vec<f64>, [f64; 3])> {
        match (&self.gps, self.scales) {
            (Some(gps), Some(scales)) => {
                let dims = self.cfg.context_dims + self.grid.dims();
                let (xs, _) = gps[0].data();
                let n = xs.len() / dims;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let z = xs[i * dims..(i + 1) * dims].to_vec();
                    let mut y = [0.0; 3];
                    for k in 0..3 {
                        let (_, ys) = gps[k].data();
                        y[k] = scales[k].mean_from_scaled(ys[i]);
                    }
                    out.push((z, y));
                }
                out
            }
            _ => self.warmup_data.clone(),
        }
    }

    /// Seeds a fresh agent with a donor's experience (see
    /// [`Self::export_experience`]) before its first period.
    ///
    /// The imported points become this agent's prior data: scaling and
    /// (optionally) hyperparameters are fitted on them and the GPs are
    /// built immediately when the donor contributed at least
    /// `warmup_rounds` observations — the agent then **skips the random
    /// warm-up phase entirely**, which is the convergence saving the
    /// fleet layer measures. With fewer points the import only shortens
    /// the remaining warm-up.
    ///
    /// # Panics
    /// Panics if the agent has already received feedback (warm-starting
    /// is a spawn-time operation), or if any imported point has the wrong
    /// dimensionality.
    pub fn import_experience(&mut self, experience: &[(Vec<f64>, [f64; 3])]) {
        assert!(
            self.t == 0 && self.in_warmup(),
            "import_experience is only valid on a fresh agent"
        );
        let dims = self.cfg.context_dims + self.grid.dims();
        for (z, _) in experience {
            assert_eq!(z.len(), dims, "imported experience dimensionality");
        }
        self.warmup_data.extend_from_slice(experience);
        if self.warmup_data.len() >= self.cfg.warmup_rounds {
            self.build_gps();
        }
    }

    /// Number of feedback updates received.
    pub fn updates(&self) -> usize {
        self.t
    }

    /// Builds the candidate index set for one selection round.
    fn candidates(&mut self) -> Vec<usize> {
        let mut cand: Vec<usize> = match self.cfg.candidate_subsample {
            None => (0..self.grid.len()).collect(),
            Some(k) => {
                let mut v: Vec<usize> =
                    (0..k).map(|_| self.rng.random_range(0..self.grid.len())).collect();
                v.extend_from_slice(&self.s0);
                v.extend_from_slice(&self.elites);
                // The expansion frontier: one-step neighbours of recent
                // picks. Safe-set growth is local (eq. 8 admits points only
                // once nearby observations shrink the posterior), so these
                // candidates are where expansion actually happens.
                for &e in self.elites.iter().rev().take(16) {
                    v.extend(self.grid.neighbors(e));
                }
                v
            }
        };
        cand.sort_unstable();
        cand.dedup();
        cand
    }

    /// Writes the GP inputs `z = (context, x)` of `controls` into
    /// `z_scratch`, one row per control.
    fn load_z(&mut self, context: &[f64], controls: impl IntoIterator<Item = usize>) {
        self.z_scratch.clear();
        for idx in controls {
            self.grid.write_z(context, idx, &mut self.z_scratch);
        }
    }

    /// Posterior of GP `k` over the rows of `z_scratch`, in raw
    /// (unstandardized) units: `(means, stds)`, one entry per row.
    fn posterior_of(&mut self, k: usize) -> (Vec<f64>, Vec<f64>) {
        let scale = self.scales.expect("posterior requires built GPs")[k];
        let gp = &mut self.gps.as_mut().expect("posterior requires built GPs")[k];
        #[cfg(test)]
        {
            self.columns[k] += self.z_scratch.len() / gp.kernel().dim();
        }
        let (m, s) = gp.predict_batch(&self.z_scratch);
        (
            m.into_iter().map(|v| scale.mean_from_scaled(v)).collect(),
            s.into_iter().map(|v| scale.std_from_scaled(v)).collect(),
        )
    }

    fn in_s0(&self, idx: usize) -> bool {
        self.s0.binary_search(&idx).is_ok()
    }

    /// The safe set of eq. (8) over `cand`, before the `S_0` union, in two
    /// stages: the delay GP evaluates every candidate, the mAP GP only the
    /// delay-safe ones and the members of `S_0`.
    ///
    /// The confidence width combines the GP's epistemic uncertainty with
    /// the (frozen) observation-noise std: eq. (2) constrains the *noisy
    /// realizations* `d_t`, `rho_t`, so a control whose latent mean hugs
    /// the boundary would still violate ~half the periods.
    fn safe_stages(&mut self, context: &[f64], cand: &[usize]) -> SafeStages {
        let b = self.cfg.beta_sqrt;
        let c = self.constraints;
        // Observation-noise backoff at a ~90% one-sided quantile: the
        // realized KPIs, not just the latent means, must satisfy eq. (2)
        // "with very high probability" (§6.2) — but a full beta-width
        // noise backoff would freeze safe-set expansion entirely.
        let zd = 1.3 * self.noise_std_raw[DELAY];
        let zm = 1.3 * self.noise_std_raw[MAP];
        self.load_z(context, cand.iter().copied());
        let delay = self.posterior_of(DELAY);
        let delay_safe = |j: usize| delay.0[j] + b * delay.1[j] + zd <= c.d_max;
        let rows: Vec<usize> =
            (0..cand.len()).filter(|&j| delay_safe(j) || self.in_s0(cand[j])).collect();
        self.load_z(context, rows.iter().map(|&j| cand[j]));
        let map = self.posterior_of(MAP);
        let safe = rows
            .iter()
            .enumerate()
            .map(|(i, &j)| delay_safe(j) && map.0[i] - b * map.1[i] - zm >= c.rho_min)
            .collect();
        SafeStages { delay, rows, map, safe }
    }

    /// Estimated safe-set size over the *full* grid for the given context
    /// (the Fig. 13 plot). Falls back to `|S_0|` during warm-up.
    pub fn safe_set_size(&mut self, context: &[f64]) -> usize {
        if self.in_warmup() {
            return self.s0.len();
        }
        let cand: Vec<usize> = (0..self.grid.len()).collect();
        let stages = self.safe_stages(context, &cand);
        let mut safe: Vec<usize> = stages
            .rows
            .iter()
            .zip(&stages.safe)
            .filter(|(_, &s)| s)
            .map(|(&j, _)| cand[j])
            .collect();
        safe.extend_from_slice(&self.s0);
        safe.sort_unstable();
        safe.dedup();
        safe.len()
    }

    /// Debug introspection: posterior `(cost mu, cost sd, delay mu,
    /// delay sd)` in raw units at one control.
    pub fn debug_posterior(&mut self, context: &[f64], idx: usize) -> (f64, f64, f64, f64) {
        self.load_z(context, [idx]);
        let cost = self.posterior_of(COST);
        let delay = self.posterior_of(DELAY);
        (cost.0[0], cost.1[0], delay.0[0], delay.1[0])
    }

    /// Monte-Carlo estimate of the safe-set size: evaluates the safe set
    /// on `samples` random grid points and scales the hit fraction to
    /// `|X|`. Orders of magnitude cheaper than [`Self::safe_set_size`] for
    /// per-period logging (Fig. 13) at the cost of sampling error
    /// `O(|X|/sqrt(samples))`.
    pub fn safe_set_size_sampled(&mut self, context: &[f64], samples: usize) -> usize {
        if self.in_warmup() {
            return self.s0.len();
        }
        let n = samples.min(self.grid.len()).max(1);
        let cand: Vec<usize> = (0..n).map(|_| self.rng.random_range(0..self.grid.len())).collect();
        let hits = self.safe_stages(context, &cand).safe.iter().filter(|&&s| s).count();
        let est = (hits as f64 / n as f64 * self.grid.len() as f64).round() as usize;
        est.max(self.s0.len())
    }

    /// Freezes scaling, optionally fits hyperparameters, and replays the
    /// warm-up data into fresh GPs.
    fn build_gps(&mut self) {
        let n = self.warmup_data.len();
        debug_assert!(n > 0);
        let dims = self.cfg.context_dims + self.grid.dims();
        // Per-target scaling.
        let mut scales = [Scale { mean: 0.0, std: 1.0 }; 3];
        for k in 0..3 {
            let ys: Vec<f64> = self.warmup_data.iter().map(|(_, y)| y[k]).collect();
            let mean = edgebol_linalg::vecops::mean(&ys);
            let std = edgebol_linalg::vecops::variance(&ys).sqrt().max(1e-3 * mean.abs()).max(1e-6);
            scales[k] = Scale { mean, std };
        }
        // Kernels: defaults, or marginal-likelihood fits on the warm-up data.
        let prior_var = self.cfg.min_prior_var.max(1.0);
        let mut kernels = [
            Kernel::matern32(prior_var, vec![self.cfg.default_lengthscale; dims]),
            Kernel::matern32(prior_var, vec![self.cfg.default_lengthscale; dims]),
            Kernel::matern32(prior_var, vec![self.cfg.default_lengthscale; dims]),
        ];
        let mut noises = [self.cfg.noise_var; 3];
        if self.cfg.fit_hyperparams {
            // Grouped marginal-likelihood fit: one length-scale for the
            // context dimensions, one for the control dimensions, plus
            // noise — 3 parameters, well determined even by a short
            // warm-up (a full 7-dim ARD fit on a dozen corner points is
            // hopelessly underdetermined and, worse, tends to degenerate
            // length-scales that make the safe set either razor-thin or
            // falsely confident). The signal variance stays at the
            // conservative floor (see `min_prior_var`).
            let ctx_dims = self.cfg.context_dims;
            // Lower bound 0.3: the warm-up box spans only ~0.2 of each
            // control dimension, so shorter scales are not identifiable
            // from the prior data — and they cripple safe-set expansion.
            let ls_bounds = (0.3f64, 0.8f64);
            let noise_bounds = (1e-4f64, 0.3f64);
            for k in 0..3 {
                let ys: Vec<f64> =
                    self.warmup_data.iter().map(|(_, y)| scales[k].to_scaled(y[k])).collect();
                let data = &self.warmup_data;
                let objective = |p: &[f64]| -> f64 {
                    let ls_ctx = 10f64.powf(p[0]).clamp(ls_bounds.0, ls_bounds.1);
                    let ls_ctl = 10f64.powf(p[1]).clamp(ls_bounds.0, ls_bounds.1);
                    let noise = 10f64.powf(p[2]).clamp(noise_bounds.0, noise_bounds.1);
                    let mut ls = vec![ls_ctx; ctx_dims];
                    ls.extend(vec![ls_ctl; dims - ctx_dims]);
                    let mut gp = GaussianProcess::new(Kernel::matern32(prior_var, ls), noise);
                    for ((z, _), y) in data.iter().zip(&ys) {
                        if gp.observe(z, *y).is_err() {
                            return f64::INFINITY;
                        }
                    }
                    match gp.log_marginal_likelihood() {
                        Ok(l) if l.is_finite() => -l,
                        _ => f64::INFINITY,
                    }
                };
                let start = [
                    self.cfg.default_lengthscale.log10(),
                    self.cfg.default_lengthscale.log10(),
                    self.cfg.noise_var.log10(),
                ];
                let opts = NelderMeadOptions { max_evals: 120, ..Default::default() };
                let (p, _) = nelder_mead(objective, &start, &opts);
                let ls_ctx = 10f64.powf(p[0]).clamp(ls_bounds.0, ls_bounds.1);
                let ls_ctl = 10f64.powf(p[1]).clamp(ls_bounds.0, ls_bounds.1);
                let mut ls = vec![ls_ctx; ctx_dims];
                ls.extend(vec![ls_ctl; dims - ctx_dims]);
                kernels[k] = Kernel::matern32(prior_var, ls);
                noises[k] = 10f64.powf(p[2]).clamp(noise_bounds.0, noise_bounds.1);
            }
        }
        let mut next = 0;
        let mut gps = kernels.map(|kernel| {
            let mut gp = GaussianProcess::new(kernel, noises[next]);
            next += 1;
            if let Some(cap) = self.cfg.max_observations {
                gp = gp.with_max_observations(cap);
            }
            if let Some(strategy) = self.cfg.gp_evict {
                gp = gp.with_evict_strategy(strategy);
            }
            gp
        });
        // Replay warm-up observations.
        for (z, y) in &self.warmup_data {
            for k in 0..3 {
                gps[k].observe(z, scales[k].to_scaled(y[k])).expect("warmup replay cannot fail");
            }
        }
        for k in 0..3 {
            self.noise_std_raw[k] = noises[k].sqrt() * scales[k].std;
        }
        // Seed the raw-unit window mirror: the GP window is the tail of
        // the warm-up data (the replay above may already have evicted).
        let kept = gps[0].len();
        self.raw_ys =
            self.warmup_data[self.warmup_data.len() - kept..].iter().map(|(_, y)| *y).collect();
        self.scales = Some(scales);
        self.gps = Some(gps);
    }

    /// Serializes the learner's full state — GP windows (raw-unit targets
    /// through the frozen `Scale`), fitted kernels, warm-up buffer, RNG
    /// stream, elites and counters — as a checkpoint payload for
    /// [`Self::restore_state`].
    pub fn save_state(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(self.t);
        for w in self.rng.state() {
            e.u64(w);
        }
        e.f64(self.constraints.d_max);
        e.f64(self.constraints.rho_min);
        for v in self.noise_std_raw {
            e.f64(v);
        }
        e.usize(self.elites.len());
        for &i in &self.elites {
            e.usize(i);
        }
        e.usize(self.warmup_data.len());
        for (z, y) in &self.warmup_data {
            e.f64s(z);
            for &v in y {
                e.f64(v);
            }
        }
        match (&self.gps, self.scales) {
            (Some(gps), Some(scales)) => {
                e.bool(true);
                for s in scales {
                    e.f64(s.mean);
                    e.f64(s.std);
                }
                for gp in gps.iter() {
                    let k = gp.kernel();
                    e.u8(kernel_kind_byte(k.kind()));
                    e.f64(k.signal_var());
                    e.f64s(k.lengthscales());
                    e.f64(gp.noise_var());
                }
                e.usize(self.cfg.context_dims + self.grid.dims());
                let (xs, _) = gps[0].data();
                e.f64s(xs);
                e.usize(self.raw_ys.len());
                for y in &self.raw_ys {
                    for &v in y {
                        e.f64(v);
                    }
                }
            }
            _ => e.bool(false),
        }
        e.finish()
    }

    /// Restores the learner from a [`Self::save_state`] payload taken on
    /// an identically-configured agent (same config, same grid).
    ///
    /// The GP windows are rebuilt by replaying the stored raw-unit
    /// targets through the frozen scales with the stored (never re-fit)
    /// kernel hyperparameters, re-factoring the Cholesky from scratch.
    /// When the live learner never hit its sliding-window cap, the
    /// restored factorization — and therefore every subsequent selection
    /// — is bit-identical to the uninterrupted run; after live
    /// evictions the append-only replay agrees to ~1e-13 (DESIGN.md
    /// §14).
    ///
    /// # Errors
    /// Any malformed payload yields a typed [`CkptError`] and leaves the
    /// agent unchanged — callers fall back to a cold start.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut d = Dec::new(bytes);
        let t = d.usize()?;
        let rng_state = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let constraints = Constraints { d_max: d.f64()?, rho_min: d.f64()? };
        let noise_std_raw = [d.f64()?, d.f64()?, d.f64()?];
        let n_elites = d.usize()?;
        if n_elites > 64 {
            return Err(CkptError::BadValue(format!("{n_elites} elites (cap is 64)")));
        }
        let mut elites = Vec::with_capacity(n_elites);
        for _ in 0..n_elites {
            let i = d.usize()?;
            if i >= self.grid.len() {
                return Err(CkptError::BadValue(format!(
                    "elite index {i} outside grid of {}",
                    self.grid.len()
                )));
            }
            elites.push(i);
        }
        let dims = self.cfg.context_dims + self.grid.dims();
        let n_warmup = d.usize()?;
        let mut warmup_data = Vec::new();
        for _ in 0..n_warmup {
            let z = d.f64s()?;
            if z.len() != dims {
                return Err(CkptError::BadValue(format!(
                    "warm-up point has {} dims, agent expects {dims}",
                    z.len()
                )));
            }
            warmup_data.push((z, [d.f64()?, d.f64()?, d.f64()?]));
        }
        let built = d.bool()?;
        if !built {
            d.expect_end()?;
            self.t = t;
            self.rng = SmallRng::from_state(rng_state);
            self.constraints = constraints;
            self.noise_std_raw = noise_std_raw;
            self.elites = elites;
            self.warmup_data = warmup_data;
            self.gps = None;
            self.scales = None;
            self.raw_ys = Vec::new();
            return Ok(());
        }
        let mut scales = [Scale { mean: 0.0, std: 1.0 }; 3];
        for s in &mut scales {
            let (mean, std) = (d.f64()?, d.f64()?);
            if !(std.is_finite() && std > 0.0 && mean.is_finite()) {
                return Err(CkptError::BadValue(format!("scale mean {mean}, std {std}")));
            }
            *s = Scale { mean, std };
        }
        let mut kernel_params = Vec::with_capacity(3);
        for k in 0..3 {
            let kind = kernel_kind_from_byte(d.u8()?)?;
            let signal_var = d.f64()?;
            let ls = d.f64s()?;
            let noise = d.f64()?;
            if !(signal_var.is_finite() && signal_var > 0.0 && noise.is_finite() && noise > 0.0) {
                return Err(CkptError::BadValue(format!(
                    "GP {k}: signal_var {signal_var}, noise {noise}"
                )));
            }
            if ls.len() != dims || ls.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
                return Err(CkptError::BadValue(format!("GP {k}: lengthscales {ls:?}")));
            }
            kernel_params.push((kind, signal_var, ls, noise));
        }
        let stored_dims = d.usize()?;
        if stored_dims != dims {
            return Err(CkptError::BadValue(format!(
                "checkpoint has {stored_dims}-dim points, agent expects {dims}"
            )));
        }
        let xs = d.f64s()?;
        let n = d.usize()?;
        if xs.len() != n * dims {
            return Err(CkptError::BadValue(format!(
                "window claims {n} points but carries {} coordinates",
                xs.len()
            )));
        }
        if let Some(cap) = self.cfg.max_observations {
            if n > cap {
                return Err(CkptError::BadValue(format!("window of {n} exceeds cap {cap}")));
            }
        }
        let mut raw_ys = Vec::with_capacity(n);
        for _ in 0..n {
            raw_ys.push([d.f64()?, d.f64()?, d.f64()?]);
        }
        d.expect_end()?;
        // Rebuild the GPs exactly as `build_gps` would, but with the
        // stored (frozen) hyperparameters — never re-fit on restore.
        let mut gps_vec = Vec::with_capacity(3);
        for (kind, signal_var, ls, noise) in kernel_params {
            let mut gp = GaussianProcess::new(Kernel::new(kind, signal_var, ls), noise);
            if let Some(cap) = self.cfg.max_observations {
                gp = gp.with_max_observations(cap);
            }
            if let Some(strategy) = self.cfg.gp_evict {
                gp = gp.with_evict_strategy(strategy);
            }
            gps_vec.push(gp);
        }
        let Ok(mut gps): Result<[GaussianProcess; 3], _> = gps_vec.try_into() else {
            unreachable!("exactly three GPs were built");
        };
        for i in 0..n {
            let z = &xs[i * dims..(i + 1) * dims];
            for k in 0..3 {
                gps[k].observe(z, scales[k].to_scaled(raw_ys[i][k])).map_err(|err| {
                    CkptError::BadValue(format!("window replay failed at point {i}: {err}"))
                })?;
            }
        }
        self.t = t;
        self.rng = SmallRng::from_state(rng_state);
        self.constraints = constraints;
        self.noise_std_raw = noise_std_raw;
        self.elites = elites;
        self.warmup_data = warmup_data;
        self.raw_ys = raw_ys;
        self.scales = Some(scales);
        self.gps = Some(gps);
        Ok(())
    }
}

/// Eq. (8) over one candidate list, as [`EdgeBol::safe_stages`] computes
/// it.
struct SafeStages {
    /// Delay posterior `(mu, sigma)` per candidate, in raw units.
    delay: (Vec<f64>, Vec<f64>),
    /// Ascending positions of the candidates the mAP GP evaluated: the
    /// delay-safe ones and the members of `S_0`.
    rows: Vec<usize>,
    /// mAP posterior `(mu, sigma)` per entry of `rows`, in raw units.
    map: (Vec<f64>, Vec<f64>),
    /// Whether each entry of `rows` passes both tests of eq. (8).
    safe: Vec<bool>,
}

/// The control with the lowest score, the first one on ties.
fn argmin(scored: impl IntoIterator<Item = (usize, f64)>) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (idx, s) in scored {
        if best.is_none_or(|(_, bs)| s < bs) {
            best = Some((idx, s));
        }
    }
    // The admissible set always contains S_0; without the mask every
    // candidate competes.
    best.expect("candidate set never empty").0
}

fn kernel_kind_byte(kind: KernelKind) -> u8 {
    match kind {
        KernelKind::Matern32 => 0,
        KernelKind::Matern52 => 1,
        KernelKind::Rbf => 2,
    }
}

fn kernel_kind_from_byte(b: u8) -> Result<KernelKind, CkptError> {
    match b {
        0 => Ok(KernelKind::Matern32),
        1 => Ok(KernelKind::Matern52),
        2 => Ok(KernelKind::Rbf),
        other => Err(CkptError::BadValue(format!("kernel kind byte {other}"))),
    }
}

impl EdgeBol {
    /// Chooses a control for the observed (normalized) context: a flat
    /// index into [`Self::grid`], drawn from `S_0` during warm-up and by
    /// the configured [`Acquisition`] afterwards.
    pub fn select(&mut self, context: &[f64]) -> usize {
        assert_eq!(context.len(), self.cfg.context_dims, "context dimensionality");
        if self.in_warmup() {
            let pick = self.rng.random_range(0..self.warmup_box.len());
            return self.warmup_box[pick];
        }
        let cand = self.candidates();
        let b = self.cfg.beta_sqrt;
        let acquisition = self.cfg.acquisition;
        let chosen = if acquisition == Acquisition::UnconstrainedLcb {
            // Never reads the safe set: the cost GP alone, over every
            // candidate.
            self.load_z(context, cand.iter().copied());
            let (mu, sd) = self.posterior_of(COST);
            argmin(cand.iter().enumerate().map(|(j, &idx)| (idx, mu[j] - b * sd[j])))
        } else {
            let stages = self.safe_stages(context, &cand);
            // S_t ∪ S_0 as ascending candidate positions, each paired with
            // its entry in the mAP stage's rows.
            let admissible: Vec<(usize, usize)> = stages
                .rows
                .iter()
                .enumerate()
                .filter(|&(i, &j)| stages.safe[i] || self.in_s0(cand[j]))
                .map(|(i, &j)| (j, i))
                .collect();
            if acquisition == Acquisition::MaxUncertainty {
                // Negated: argmin picks the largest constraint uncertainty.
                argmin(
                    admissible
                        .iter()
                        .map(|&(j, i)| (cand[j], -(stages.delay.1[j].max(stages.map.1[i])))),
                )
            } else {
                // The cost GP runs over the admissible candidates only.
                self.load_z(context, admissible.iter().map(|&(j, _)| cand[j]));
                let (mu, sd) = self.posterior_of(COST);
                // One Thompson draw per candidate, admissible or not, keeps
                // the RNG stream independent of the safe set.
                let draws: Vec<f64> = if acquisition == Acquisition::ThompsonSampling {
                    (0..cand.len())
                        .map(|_| edgebol_linalg::stats::normal01(&mut self.rng))
                        .collect()
                } else {
                    Vec::new()
                };
                argmin(admissible.iter().enumerate().map(|(e, &(j, _))| {
                    let score = if acquisition == Acquisition::ThompsonSampling {
                        mu[e] + sd[e] * draws[j]
                    } else {
                        mu[e] - b * sd[e]
                    };
                    (cand[j], score)
                }))
            }
        };
        self.elites.push(chosen);
        if self.elites.len() > 64 {
            let drop = self.elites.len() - 64;
            self.elites.drain(..drop);
        }
        chosen
    }

    /// Records the period's outcome for the `(context, control)` pair.
    pub fn update(&mut self, context: &[f64], control_idx: usize, feedback: &Feedback) {
        let z = self.grid.z_vector(context, control_idx);
        let y = [feedback.cost, feedback.delay_s, feedback.map];
        self.t += 1;
        match (&mut self.gps, self.scales) {
            (Some(gps), Some(scales)) => {
                for k in 0..3 {
                    gps[k]
                        .observe(&z, scales[k].to_scaled(y[k]))
                        .expect("online observe cannot fail with positive noise");
                }
                self.raw_ys.push(y);
                let kept = gps[0].len();
                if self.raw_ys.len() > kept {
                    let drop = self.raw_ys.len() - kept;
                    self.raw_ys.drain(..drop);
                }
            }
            _ => {
                self.warmup_data.push((z, y));
                if self.warmup_data.len() >= self.cfg.warmup_rounds {
                    self.build_gps();
                }
            }
        }
    }

    /// A short display name for experiment logs.
    pub fn name(&self) -> &'static str {
        match self.cfg.acquisition {
            Acquisition::ConstrainedLcb => "EdgeBOL",
            Acquisition::MaxUncertainty => "SafeOpt-like",
            Acquisition::UnconstrainedLcb => "LCB (unconstrained)",
            Acquisition::ThompsonSampling => "EdgeBOL-TS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic environment on the unit cube with known optimum:
    /// cost falls as controls fall; delay rises as controls fall.
    /// Constraint: delay <= d_max. The cheapest safe control sits exactly
    /// where delay == d_max.
    struct Toy {
        d_max: f64,
    }

    impl Toy {
        fn eval(&self, grid: &ControlGrid, idx: usize) -> Feedback {
            let c = grid.coords(idx);
            let level: f64 = c.iter().sum::<f64>() / c.len() as f64;
            // Cost 100..300 rising with resources; delay 0.1..0.9 falling.
            let cost = 100.0 + 200.0 * level;
            let delay = 0.9 - 0.8 * level;
            Feedback { cost, delay_s: delay, map: 1.0 }
        }

        fn optimal_cost(&self, grid: &ControlGrid) -> f64 {
            (0..grid.len())
                .map(|i| self.eval(grid, i))
                .filter(|f| f.delay_s <= self.d_max)
                .map(|f| f.cost)
                .fold(f64::INFINITY, f64::min)
        }
    }

    fn cfg() -> EdgeBolConfig {
        let mut c = EdgeBolConfig::paper(Constraints { d_max: 0.5, rho_min: 0.0 });
        c.fit_hyperparams = false; // keep the unit test fast
        c.warmup_rounds = 8;
        c.candidate_subsample = Some(512);
        c
    }

    fn run_toy(cfg: EdgeBolConfig, steps: usize) -> (EdgeBol, Vec<Feedback>) {
        let toy = Toy { d_max: cfg.constraints.d_max };
        let grid = ControlGrid::new(6, 4); // 1296 controls: fast
        let mut agent = EdgeBol::with_grid(cfg, grid);
        let ctx = [0.5, 0.5, 0.1];
        let mut history = Vec::new();
        for _ in 0..steps {
            let idx = agent.select(&ctx);
            let fb = toy.eval(agent.grid(), idx);
            agent.update(&ctx, idx, &fb);
            history.push(fb);
        }
        (agent, history)
    }

    #[test]
    fn warmup_draws_from_s0_only() {
        let toy = Toy { d_max: 0.5 };
        let grid = ControlGrid::new(6, 4);
        let mut agent = EdgeBol::with_grid(cfg(), grid);
        let ctx = [0.5, 0.5, 0.1];
        for _ in 0..8 {
            assert!(agent.in_warmup());
            let idx = agent.select(&ctx);
            let c = agent.grid().coords(idx);
            assert!(c.iter().all(|&v| v >= 0.8 - 1e-12), "warmup pick outside S0: {c:?}");
            let fb = toy.eval(agent.grid(), idx);
            agent.update(&ctx, idx, &fb);
        }
        assert!(!agent.in_warmup());
    }

    #[test]
    fn converges_near_the_constrained_optimum() {
        let c = cfg();
        let toy = Toy { d_max: c.constraints.d_max };
        let (agent, history) = run_toy(c, 60);
        let opt = toy.optimal_cost(agent.grid());
        // Average cost over the last 10 periods within 10% of optimal.
        let tail: f64 = history[50..].iter().map(|f| f.cost).sum::<f64>() / 10.0;
        // The safe set deliberately backs off the boundary by
        // beta * (sigma + noise std), so allow that margin over the
        // noiseless optimum.
        assert!(tail < opt * 1.25, "converged cost {tail:.1} vs optimal {opt:.1}");
    }

    #[test]
    fn constraint_violations_are_rare_after_warmup() {
        let c = cfg();
        let (_, history) = run_toy(c, 80);
        let violations = history[8..].iter().filter(|f| f.delay_s > 0.5 + 1e-9).count();
        assert!(violations <= 8, "{violations} violations in 72 post-warmup periods");
    }

    #[test]
    fn unconstrained_lcb_violates_more() {
        let mut unc = cfg();
        unc.acquisition = Acquisition::UnconstrainedLcb;
        let (_, h_unc) = run_toy(unc, 80);
        let (_, h_safe) = run_toy(cfg(), 80);
        let count = |h: &[Feedback]| h[8..].iter().filter(|f| f.delay_s > 0.5).count();
        assert!(
            count(&h_unc) > count(&h_safe),
            "unconstrained {} vs safe {}",
            count(&h_unc),
            count(&h_safe)
        );
    }

    #[test]
    fn max_uncertainty_explores_safely_but_converges_slower_on_cost() {
        let mut so = cfg();
        so.acquisition = Acquisition::MaxUncertainty;
        let run = |c: EdgeBolConfig| -> (f64, usize) {
            let (_, history) = run_toy(c, 60);
            let tail_cost = history[50..].iter().fold(0.0, |acc, f| acc + f.cost / 10.0);
            let violations = history[12..].iter().filter(|f| f.delay_s > 0.5 + 1e-9).count();
            (tail_cost, violations)
        };
        let (cost_eb, viol_eb) = run(cfg());
        let (cost_so, viol_so) = run(so);
        // The SafeOpt-flavoured acquisition explores; it should not beat
        // EdgeBOL's converged cost (the paper's observation).
        assert!(
            cost_so >= cost_eb - 1.0,
            "SafeOpt tail cost {cost_so:.1} unexpectedly beats EdgeBOL {cost_eb:.1}"
        );
        // Both remain safe almost always.
        assert!(viol_eb <= 8, "{viol_eb}");
        assert!(viol_so <= 8, "{viol_so}");
    }

    #[test]
    fn safe_set_grows_from_s0() {
        let c = cfg();
        let toy = Toy { d_max: c.constraints.d_max };
        let grid = ControlGrid::new(6, 4);
        let mut agent = EdgeBol::with_grid(c, grid);
        let ctx = [0.5, 0.5, 0.1];
        let s0_size = agent.safe_set_size(&ctx);
        for _ in 0..40 {
            let idx = agent.select(&ctx);
            let fb = toy.eval(agent.grid(), idx);
            agent.update(&ctx, idx, &fb);
        }
        let later = agent.safe_set_size(&ctx);
        assert!(later > s0_size, "safe set should expand: {later} vs {s0_size}");
        // And it must not include everything: the toy has infeasible
        // controls (delay up to 0.9 > 0.5).
        assert!(later < agent.grid().len(), "safe set cannot be the whole grid");
    }

    #[test]
    fn constraint_change_reuses_knowledge() {
        let c = cfg();
        let toy_loose = Toy { d_max: 0.7 };
        let grid = ControlGrid::new(6, 4);
        let mut agent = EdgeBol::with_grid(
            EdgeBolConfig { constraints: Constraints { d_max: 0.7, rho_min: 0.0 }, ..c },
            grid,
        );
        let ctx = [0.5, 0.5, 0.1];
        for _ in 0..50 {
            let idx = agent.select(&ctx);
            let fb = toy_loose.eval(agent.grid(), idx);
            agent.update(&ctx, idx, &fb);
        }
        // Tighten the constraint; the very next selections should already
        // respect it (non-parametric safe set recomputed from the same GPs).
        agent.set_constraints(Constraints { d_max: 0.45, rho_min: 0.0 });
        let toy_tight = Toy { d_max: 0.45 };
        let mut violations = 0;
        for _ in 0..12 {
            let idx = agent.select(&ctx);
            let fb = toy_tight.eval(agent.grid(), idx);
            if fb.delay_s > 0.45 {
                violations += 1;
            }
            agent.update(&ctx, idx, &fb);
        }
        assert!(violations <= 2, "{violations} violations right after tightening");
    }

    #[test]
    fn thompson_sampling_converges_and_respects_safe_set() {
        let mut c = cfg();
        c.acquisition = Acquisition::ThompsonSampling;
        let toy = Toy { d_max: c.constraints.d_max };
        let (agent, history) = run_toy(c, 80);
        let opt = toy.optimal_cost(agent.grid());
        let tail: f64 = history[70..].iter().map(|f| f.cost).sum::<f64>() / 10.0;
        assert!(tail < opt * 1.35, "TS converged cost {tail:.1} vs optimal {opt:.1}");
        let violations = history[8..].iter().filter(|f| f.delay_s > 0.5 + 1e-9).count();
        assert!(violations <= 10, "{violations} TS violations");
    }

    #[test]
    fn export_matches_import_roundtrip() {
        // A donor that has learned for a while exports its experience;
        // a fresh agent importing it starts post-warmup with the same
        // observation set.
        let (donor, _) = run_toy(cfg(), 30);
        let exp = donor.export_experience();
        assert_eq!(exp.len(), 30, "all observations retained (no window hit)");
        let grid = ControlGrid::new(6, 4);
        let mut warm = EdgeBol::with_grid(cfg(), grid);
        warm.import_experience(&exp);
        assert!(!warm.in_warmup(), "enough donor data must skip warm-up");
        assert_eq!(warm.export_experience().len(), 30);
        // The raw targets survive the standardize/unstandardize roundtrip.
        let back = warm.export_experience();
        for ((za, ya), (zb, yb)) in exp.iter().zip(&back) {
            assert_eq!(za, zb);
            for k in 0..3 {
                assert!((ya[k] - yb[k]).abs() < 1e-9, "target {k} drifted");
            }
        }
    }

    #[test]
    fn warm_started_agent_skips_warmup_phase() {
        let (donor, _) = run_toy(cfg(), 40);
        let mut warm = EdgeBol::with_grid(cfg(), ControlGrid::new(6, 4));
        warm.import_experience(&donor.export_experience());
        // First selection is already posterior-driven, not a random
        // warm-up draw from the corner box.
        assert!(!warm.in_warmup());
        let toy = Toy { d_max: 0.5 };
        let ctx = [0.5, 0.5, 0.1];
        let mut costs = Vec::new();
        for _ in 0..10 {
            let idx = warm.select(&ctx);
            let fb = toy.eval(warm.grid(), idx);
            costs.push(fb.cost);
            warm.update(&ctx, idx, &fb);
        }
        // A cold agent spends its first rounds on the expensive corner
        // box (cost near 300); the warm one must do better on average.
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        assert!(mean < 280.0, "warm-start first-10 mean cost {mean:.1}");
    }

    #[test]
    fn partial_import_shortens_warmup() {
        let (donor, _) = run_toy(cfg(), 30);
        let exp = donor.export_experience();
        let mut agent = EdgeBol::with_grid(cfg(), ControlGrid::new(6, 4));
        agent.import_experience(&exp[..3]); // warmup_rounds is 8
        assert!(agent.in_warmup(), "3 of 8 points: still warming up");
        let toy = Toy { d_max: 0.5 };
        let ctx = [0.5, 0.5, 0.1];
        for _ in 0..5 {
            let idx = agent.select(&ctx);
            let fb = toy.eval(agent.grid(), idx);
            agent.update(&ctx, idx, &fb);
        }
        assert!(!agent.in_warmup(), "3 imported + 5 live = 8 rounds");
    }

    #[test]
    #[should_panic(expected = "fresh agent")]
    fn import_after_updates_panics() {
        let (mut donor, _) = run_toy(cfg(), 12);
        let exp = donor.export_experience();
        donor.import_experience(&exp);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let (mut live, _) = run_toy(cfg(), 30);
        let snapshot = live.save_state();
        let mut restored = EdgeBol::with_grid(cfg(), ControlGrid::new(6, 4));
        restored.restore_state(&snapshot).unwrap();
        assert_eq!(restored.updates(), 30);
        assert!(!restored.in_warmup());
        let toy = Toy { d_max: 0.5 };
        let ctx = [0.5, 0.5, 0.1];
        for step in 0..20 {
            let a = live.select(&ctx);
            let b = restored.select(&ctx);
            assert_eq!(a, b, "selection diverged at post-restore step {step}");
            let fb = toy.eval(live.grid(), a);
            live.update(&ctx, a, &fb);
            restored.update(&ctx, b, &fb);
        }
        // The windows stay in lockstep too: a second checkpoint of each
        // agent is byte-identical.
        assert_eq!(live.save_state(), restored.save_state());
    }

    #[test]
    fn checkpoint_during_warmup_roundtrips() {
        let (mut live, _) = run_toy(cfg(), 4); // warmup_rounds is 8
        assert!(live.in_warmup());
        let snapshot = live.save_state();
        let mut restored = EdgeBol::with_grid(cfg(), ControlGrid::new(6, 4));
        restored.restore_state(&snapshot).unwrap();
        assert!(restored.in_warmup());
        let toy = Toy { d_max: 0.5 };
        let ctx = [0.5, 0.5, 0.1];
        for step in 0..26 {
            let a = live.select(&ctx);
            let b = restored.select(&ctx);
            assert_eq!(a, b, "diverged at step {step} (crosses the GP build)");
            let fb = toy.eval(live.grid(), a);
            live.update(&ctx, a, &fb);
            restored.update(&ctx, b, &fb);
        }
        assert!(!live.in_warmup() && !restored.in_warmup());
        assert_eq!(live.save_state(), restored.save_state());
    }

    #[test]
    fn checkpoint_restore_with_sliding_window_evictions() {
        let mut c = cfg();
        c.max_observations = Some(16); // force evictions well before t=30
        let toy = Toy { d_max: c.constraints.d_max };
        let grid = ControlGrid::new(6, 4);
        let mut live = EdgeBol::with_grid(c.clone(), grid);
        let ctx = [0.5, 0.5, 0.1];
        for _ in 0..30 {
            let idx = live.select(&ctx);
            let fb = toy.eval(live.grid(), idx);
            live.update(&ctx, idx, &fb);
        }
        let mut restored = EdgeBol::with_grid(c, ControlGrid::new(6, 4));
        restored.restore_state(&live.save_state()).unwrap();
        assert_eq!(restored.updates(), 30);
        // Past the cap the re-factored Cholesky is not bit-identical to
        // the downdated one; posteriors must still agree to fp noise.
        let (lm, ls_, ld, lds) = live.debug_posterior(&ctx, 100);
        let (rm, rs, rd, rds) = restored.debug_posterior(&ctx, 100);
        for (a, b) in [(lm, rm), (ls_, rs), (ld, rd), (lds, rds)] {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "posterior drift: {a} vs {b}");
        }
    }

    #[test]
    fn truncated_checkpoint_is_typed_error_and_leaves_agent_untouched() {
        let (live, _) = run_toy(cfg(), 20);
        let snapshot = live.save_state();
        for cut in 0..snapshot.len() {
            let mut agent = EdgeBol::with_grid(cfg(), ControlGrid::new(6, 4));
            agent.restore_state(&snapshot[..cut]).expect_err("truncated payload must fail");
            assert!(agent.in_warmup() && agent.updates() == 0, "cut {cut} mutated the agent");
        }
        // An undamaged payload still restores after all the failures.
        let mut agent = EdgeBol::with_grid(cfg(), ControlGrid::new(6, 4));
        agent.restore_state(&snapshot).unwrap();
        assert_eq!(agent.updates(), 20);
    }

    /// The full posterior of one GP over `cand`, in raw units, computed
    /// directly (not through the cascade or its column counter).
    fn full_posterior(
        agent: &mut EdgeBol,
        k: usize,
        context: &[f64],
        cand: &[usize],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut flat = Vec::new();
        for &idx in cand {
            agent.grid.write_z(context, idx, &mut flat);
        }
        let scale = agent.scales.unwrap()[k];
        let (m, s) = agent.gps.as_mut().unwrap()[k].predict_batch(&flat);
        (
            m.into_iter().map(|v| scale.mean_from_scaled(v)).collect(),
            s.into_iter().map(|v| scale.std_from_scaled(v)).collect(),
        )
    }

    /// The pre-cascade `safe_mask`: eq. (8) per candidate from full
    /// posteriors, as `(delay test, both tests)`.
    fn full_safe_mask(
        agent: &EdgeBol,
        delay: &(Vec<f64>, Vec<f64>),
        map: &(Vec<f64>, Vec<f64>),
    ) -> (Vec<bool>, Vec<bool>) {
        let b = agent.cfg.beta_sqrt;
        let c = agent.constraints;
        let zd = 1.3 * agent.noise_std_raw[1];
        let zm = 1.3 * agent.noise_std_raw[2];
        let delay_ok: Vec<bool> =
            (0..delay.0.len()).map(|j| delay.0[j] + b * delay.1[j] + zd <= c.d_max).collect();
        let safe = (0..delay.0.len())
            .map(|j| delay_ok[j] && map.0[j] - b * map.1[j] - zm >= c.rho_min)
            .collect();
        (delay_ok, safe)
    }

    /// The pre-cascade safe mask over `cand`, both constraint posteriors
    /// computed over every candidate.
    fn full_safe_set(agent: &mut EdgeBol, context: &[f64], cand: &[usize]) -> Vec<bool> {
        let delay = full_posterior(agent, DELAY, context, cand);
        let map = full_posterior(agent, MAP, context, cand);
        full_safe_mask(agent, &delay, &map).1
    }

    /// The pre-cascade selector: three full posteriors over every
    /// candidate, the safe mask, then the acquisition's scan. Returns the
    /// pick and the columns the cascade should hand the cost, delay and
    /// mAP GPs for the same candidates.
    fn reference_select(agent: &mut EdgeBol, context: &[f64]) -> (usize, [usize; 3]) {
        if agent.in_warmup() {
            return (agent.select(context), [0; 3]);
        }
        let cand = agent.candidates();
        let cost = full_posterior(agent, COST, context, &cand);
        let delay = full_posterior(agent, DELAY, context, &cand);
        let map = full_posterior(agent, MAP, context, &cand);
        let (delay_ok, mask) = full_safe_mask(agent, &delay, &map);
        let b = agent.cfg.beta_sqrt;
        let acquisition = agent.cfg.acquisition;
        let thompson: Vec<f64> = if acquisition == Acquisition::ThompsonSampling {
            (0..cand.len())
                .map(|j| cost.0[j] + cost.1[j] * edgebol_linalg::stats::normal01(&mut agent.rng))
                .collect()
        } else {
            Vec::new()
        };
        let score = |j: usize| match acquisition {
            Acquisition::ConstrainedLcb | Acquisition::UnconstrainedLcb => {
                cost.0[j] - b * cost.1[j]
            }
            Acquisition::MaxUncertainty => -(delay.1[j].max(map.1[j])),
            Acquisition::ThompsonSampling => thompson[j],
        };
        let use_mask = acquisition != Acquisition::UnconstrainedLcb;
        let mut best: Option<(usize, f64)> = None;
        for (j, &idx) in cand.iter().enumerate() {
            if use_mask && !mask[j] && !agent.in_s0(idx) {
                continue;
            }
            let s = score(j);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((idx, s));
            }
        }
        let chosen = best.unwrap().0;
        agent.elites.push(chosen);
        if agent.elites.len() > 64 {
            let drop = agent.elites.len() - 64;
            agent.elites.drain(..drop);
        }
        let count =
            |ok: &[bool]| cand.iter().zip(ok).filter(|&(&idx, &ok)| ok || agent.in_s0(idx)).count();
        let columns = match acquisition {
            Acquisition::UnconstrainedLcb => [cand.len(), 0, 0],
            Acquisition::MaxUncertainty => [0, cand.len(), count(&delay_ok)],
            Acquisition::ConstrainedLcb | Acquisition::ThompsonSampling => {
                [count(&mask), cand.len(), count(&delay_ok)]
            }
        };
        (chosen, columns)
    }

    /// The pre-cascade `safe_set_size_sampled`.
    fn reference_sampled_size(agent: &mut EdgeBol, context: &[f64], samples: usize) -> usize {
        if agent.in_warmup() {
            return agent.s0.len();
        }
        let len = agent.grid.len();
        let n = samples.min(len).max(1);
        let cand: Vec<usize> = (0..n).map(|_| agent.rng.random_range(0..len)).collect();
        let hits = full_safe_set(agent, context, &cand).iter().filter(|&&m| m).count();
        ((hits as f64 / n as f64 * len as f64).round() as usize).max(agent.s0.len())
    }

    /// The pre-cascade `safe_set_size`.
    fn reference_full_size(agent: &mut EdgeBol, context: &[f64]) -> usize {
        let cand: Vec<usize> = (0..agent.grid.len()).collect();
        let mask = full_safe_set(agent, context, &cand);
        cand.iter().zip(&mask).filter(|&(&idx, &m)| m || agent.in_s0(idx)).count()
    }

    /// The staged cascade reproduces the full-posterior selector exactly:
    /// same picks, same RNG stream and GP windows (byte-equal
    /// checkpoints), same safe-set counts, and each GP evaluates exactly
    /// the candidates its stage needs — across seeds, acquisitions,
    /// hyperparameter fitting and three constraint regimes.
    #[test]
    fn staged_select_matches_the_full_posterior_reference() {
        // Both constraints bind: delay falls with resources, mAP rises
        // with the first control dimension.
        let env = |grid: &ControlGrid, idx: usize| {
            let c = grid.coords(idx);
            let level = c.iter().sum::<f64>() / c.len() as f64;
            Feedback {
                cost: 100.0 + 200.0 * level,
                delay_s: 0.9 - 0.8 * level,
                map: 0.3 + 0.6 * c[0],
            }
        };
        let regimes = [
            ("only S0", Constraints { d_max: 0.0, rho_min: 2.0 }),
            ("boundary", Constraints { d_max: 0.5, rho_min: 0.6 }),
            ("all safe", Constraints { d_max: 1e3, rho_min: -1e3 }),
        ];
        let acquisitions = [
            Acquisition::ConstrainedLcb,
            Acquisition::MaxUncertainty,
            Acquisition::UnconstrainedLcb,
            Acquisition::ThompsonSampling,
        ];
        let ctx = [0.5, 0.5, 0.1];
        for seed in 0..20u64 {
            for acquisition in acquisitions {
                for fit_hyperparams in [false, true] {
                    for (r, &(regime, constraints)) in regimes.iter().enumerate() {
                        let mut c = cfg();
                        c.seed = seed;
                        c.acquisition = acquisition;
                        c.fit_hyperparams = fit_hyperparams;
                        c.constraints = constraints;
                        c.candidate_subsample = Some(256);
                        let mut staged = EdgeBol::with_grid(c.clone(), ControlGrid::new(6, 4));
                        let mut reference = EdgeBol::with_grid(c, ControlGrid::new(6, 4));
                        let case = format!(
                            "seed {seed}, {acquisition:?}, fit {fit_hyperparams}, {regime}"
                        );
                        for step in 0..20 {
                            let before = staged.columns;
                            let a = staged.select(&ctx);
                            let (b, want) = reference_select(&mut reference, &ctx);
                            assert_eq!(a, b, "{case}: pick diverged at step {step}");
                            let seen: Vec<usize> =
                                (0..3).map(|k| staged.columns[k] - before[k]).collect();
                            assert_eq!(
                                seen, want,
                                "{case}: [cost, delay, mAP] columns at step {step}"
                            );
                            let fb = env(staged.grid(), a);
                            staged.update(&ctx, a, &fb);
                            reference.update(&ctx, b, &fb);
                            assert_eq!(
                                staged.safe_set_size_sampled(&ctx, 64),
                                reference_sampled_size(&mut reference, &ctx, 64),
                                "{case}: sampled safe-set size at step {step}"
                            );
                            assert!(
                                staged.save_state() == reference.save_state(),
                                "{case}: checkpoints differ after update {step}"
                            );
                        }
                        let size = staged.safe_set_size(&ctx);
                        assert_eq!(
                            size,
                            reference_full_size(&mut reference, &ctx),
                            "{case}: full-grid safe-set size"
                        );
                        // The regime is what it claims to be.
                        let len = staged.grid().len();
                        let in_regime = match r {
                            0 => size == 1,
                            1 => 1 < size && size < len,
                            _ => size == len,
                        };
                        assert!(in_regime, "{case}: safe set of {size} of {len} controls");
                    }
                }
            }
        }
    }

    #[test]
    fn name_reflects_acquisition() {
        let agent = EdgeBol::with_grid(cfg(), ControlGrid::new(4, 2));
        assert_eq!(agent.name(), "EdgeBOL");
        let mut sc = cfg();
        sc.acquisition = Acquisition::MaxUncertainty;
        assert_eq!(EdgeBol::with_grid(sc, ControlGrid::new(4, 2)).name(), "SafeOpt-like");
    }
}
