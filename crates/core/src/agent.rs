//! Learning agents in physical units.
//!
//! The bandit layer works on unit hypercubes; this module binds it to the
//! testbed's [`ContextObs`]/[`ControlInput`]/[`PeriodObservation`] types
//! and the [`ProblemSpec`], so callers never touch grid indices.

use crate::problem::ProblemSpec;
use edgebol_bandit::{
    Constraints, ControlGrid, Ddpg, DdpgConfig, EdgeBol, EdgeBolConfig, EpsGreedy, Feedback,
};
use edgebol_testbed::{ContextObs, ControlInput, PeriodObservation};

/// A period-level learning agent in physical units.
///
/// `Send` so an orchestrator owning the agent can be driven from a worker
/// thread (the parallel multi-seed runner in `edgebol-bench`).
pub trait Agent: Send {
    /// Chooses the control policy for the observed context.
    fn select(&mut self, ctx: &ContextObs) -> ControlInput;

    /// Records the period's outcome.
    fn update(&mut self, ctx: &ContextObs, control: &ControlInput, obs: &PeriodObservation);

    /// Changes the constraint setting at runtime (Fig. 14 events).
    fn set_constraints(&mut self, d_max: f64, rho_min: f64);

    /// Estimated safe-set size for a context, when the agent maintains
    /// one (EdgeBOL does; parametric baselines return `None`).
    fn safe_set_size(&mut self, _ctx: &ContextObs) -> Option<usize> {
        None
    }

    /// Exports the agent's experience as raw-unit `(z, [cost, delay,
    /// map])` observations for warm-starting a newly spawned learner —
    /// the fleet layer's transfer-learning payload. Agents without a
    /// transferable posterior (the parametric baselines) return `None`.
    fn export_experience(&self) -> Option<Vec<(Vec<f64>, [f64; 3])>> {
        None
    }

    /// Serializes the agent's learned state at a period boundary for
    /// checkpointing. `None` when the agent does not support snapshots
    /// (the parametric baselines) — the orchestrator then omits the
    /// agent from checkpoints and a restored run re-learns cold.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state saved by [`Agent::save_state`] onto an
    /// identically-configured fresh agent.
    ///
    /// # Errors
    /// A typed [`edgebol_ckpt::CkptError`] on malformed payloads or when
    /// the agent does not support snapshots (the default); the agent is
    /// left unchanged on error.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), edgebol_ckpt::CkptError> {
        Err(edgebol_ckpt::CkptError::BadValue("agent does not support checkpoint restore".into()))
    }

    /// Display name.
    fn name(&self) -> &'static str;
}

/// Remembered selection so `update` can map back to a grid index.
#[derive(Debug, Clone, Copy)]
struct LastPick {
    idx: usize,
}

/// The EdgeBOL agent (and its grid-based siblings) in physical units.
pub struct EdgeBolAgent {
    spec: ProblemSpec,
    inner: EdgeBol,
    last: Option<LastPick>,
}

impl EdgeBolAgent {
    /// The paper's configuration.
    pub fn paper(spec: &ProblemSpec, seed: u64) -> Self {
        let mut cfg = EdgeBolConfig::paper(spec.constraints());
        cfg.seed = seed;
        EdgeBolAgent { spec: *spec, inner: EdgeBol::new(cfg), last: None }
    }

    /// A custom configuration (constraints are overridden from the spec).
    pub fn with_config(spec: &ProblemSpec, mut cfg: EdgeBolConfig) -> Self {
        cfg.constraints = spec.constraints();
        EdgeBolAgent { spec: *spec, inner: EdgeBol::new(cfg), last: None }
    }

    /// A fast configuration for doc tests and unit tests: no
    /// hyperparameter fitting, short warm-up, small candidate pool.
    pub fn quick_for_tests(spec: &ProblemSpec, seed: u64) -> Self {
        let mut cfg = EdgeBolConfig::paper(spec.constraints());
        cfg.seed = seed;
        cfg.fit_hyperparams = false;
        cfg.warmup_rounds = 6;
        cfg.candidate_subsample = Some(256);
        EdgeBolAgent { spec: *spec, inner: EdgeBol::new(cfg), last: None }
    }

    /// Builder-style warm start: seeds the (fresh) agent with a donor's
    /// exported experience before its first period, so it starts from
    /// the donor's posterior instead of the random warm-up box. This is
    /// the agent-level half of the fleet layer's transfer learning.
    ///
    /// ```
    /// use edgebol_core::agent::{Agent, EdgeBolAgent};
    /// use edgebol_core::problem::ProblemSpec;
    /// use edgebol_testbed::{ContextObs, PeriodObservation};
    ///
    /// let spec = ProblemSpec::new(1.0, 8.0, 0.4, 0.5);
    /// let mut donor = EdgeBolAgent::quick_for_tests(&spec, 1);
    /// let ctx = ContextObs { num_users: 1, mean_cqi: 14.0, var_cqi: 0.5 };
    /// for _ in 0..8 {
    ///     let c = donor.select(&ctx);
    ///     let obs = PeriodObservation {
    ///         delay_s: 0.3, gpu_delay_s: 0.1, map: 0.6,
    ///         server_power_w: 150.0, bs_power_w: 6.0,
    ///     };
    ///     donor.update(&ctx, &c, &obs);
    /// }
    /// let experience = donor.export_experience().expect("EdgeBOL exports");
    /// let warm = EdgeBolAgent::quick_for_tests(&spec, 2).with_experience(&experience);
    /// assert!(!warm.in_warmup(), "the donor's 8 periods cover the 6-round warm-up");
    /// ```
    ///
    /// # Panics
    /// Panics if the agent has already received feedback (see
    /// [`edgebol_bandit::EdgeBol::import_experience`]).
    pub fn with_experience(mut self, experience: &[(Vec<f64>, [f64; 3])]) -> Self {
        self.inner.import_experience(experience);
        self
    }

    /// Exact safe-set size for a context (full-grid GP sweep).
    pub fn estimated_safe_set_size(&mut self, ctx: &ContextObs) -> usize {
        self.inner.safe_set_size(&ctx.to_unit())
    }

    /// Cheap Monte-Carlo safe-set-size estimate (per-period logging).
    pub fn sampled_safe_set_size(&mut self, ctx: &ContextObs) -> usize {
        self.inner.safe_set_size_sampled(&ctx.to_unit(), 2048)
    }

    /// Whether the agent is still warming up on `S_0`.
    pub fn in_warmup(&self) -> bool {
        self.inner.in_warmup()
    }

    fn control_of(&self, idx: usize) -> ControlInput {
        let c = self.inner.grid().coords(idx);
        ControlInput::from_unit(c[0], c[1], c[2], c[3])
    }
}

impl Agent for EdgeBolAgent {
    fn select(&mut self, ctx: &ContextObs) -> ControlInput {
        let idx = self.inner.select(&ctx.to_unit());
        self.last = Some(LastPick { idx });
        self.control_of(idx)
    }

    fn update(&mut self, ctx: &ContextObs, control: &ControlInput, obs: &PeriodObservation) {
        // Prefer the remembered index (exact); fall back to re-projecting
        // the control if the caller re-ordered the loop.
        let idx = match self.last.take() {
            Some(l) => l.idx,
            None => self.inner.grid().nearest_index(&control.to_unit()),
        };
        let fb = Feedback { cost: self.spec.cost(obs), delay_s: obs.delay_s, map: obs.map };
        self.inner.update(&ctx.to_unit(), idx, &fb);
    }

    fn set_constraints(&mut self, d_max: f64, rho_min: f64) {
        self.spec.d_max = d_max;
        self.spec.rho_min = rho_min;
        self.inner.set_constraints(Constraints { d_max, rho_min });
    }

    fn safe_set_size(&mut self, ctx: &ContextObs) -> Option<usize> {
        Some(self.sampled_safe_set_size(ctx))
    }

    fn export_experience(&self) -> Option<Vec<(Vec<f64>, [f64; 3])>> {
        Some(self.inner.export_experience())
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.inner.save_state())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), edgebol_ckpt::CkptError> {
        self.inner.restore_state(bytes)?;
        // The spec's constraint fields shadow the learner's; re-sync them
        // so `spec.cost` and the learner agree after a mid-run
        // `set_constraints` survived the checkpoint.
        self.spec.d_max = self.inner.constraints.d_max;
        self.spec.rho_min = self.inner.constraints.rho_min;
        self.last = None;
        Ok(())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The DDPG benchmark in physical units (continuous actions).
pub struct DdpgAgent {
    spec: ProblemSpec,
    inner: Ddpg,
    last_action: Option<Vec<f64>>,
}

impl DdpgAgent {
    /// Creates the benchmark with default (tuned) hyperparameters.
    pub fn new(spec: &ProblemSpec, seed: u64) -> Self {
        let cfg = DdpgConfig { seed, ..Default::default() };
        DdpgAgent { spec: *spec, inner: Ddpg::new(cfg, spec.constraints()), last_action: None }
    }
}

impl Agent for DdpgAgent {
    fn select(&mut self, ctx: &ContextObs) -> ControlInput {
        let a = self.inner.select_action(&ctx.to_unit());
        let control = ControlInput::from_unit(a[0], a[1], a[2], a[3]);
        self.last_action = Some(a);
        control
    }

    fn update(&mut self, ctx: &ContextObs, control: &ControlInput, obs: &PeriodObservation) {
        let action = match self.last_action.take() {
            Some(a) => a,
            None => control.to_unit().to_vec(),
        };
        let fb = Feedback { cost: self.spec.cost(obs), delay_s: obs.delay_s, map: obs.map };
        self.inner.update(&ctx.to_unit(), &action, &fb);
    }

    fn set_constraints(&mut self, d_max: f64, rho_min: f64) {
        self.spec.d_max = d_max;
        self.spec.rho_min = rho_min;
        self.inner.set_constraints(Constraints { d_max, rho_min });
    }

    fn name(&self) -> &'static str {
        "DDPG"
    }
}

/// The epsilon-greedy strawman in physical units.
pub struct EpsGreedyAgent {
    spec: ProblemSpec,
    inner: EpsGreedy,
    grid: ControlGrid,
    last: Option<usize>,
}

impl EpsGreedyAgent {
    /// Creates the baseline; `penalty` defaults to a generous violation
    /// surcharge comparable to the worst cost of the problem.
    pub fn new(spec: &ProblemSpec, seed: u64) -> Self {
        let grid = ControlGrid::paper();
        let penalty = 200.0 * spec.delta1 + 8.0 * spec.delta2;
        EpsGreedyAgent {
            spec: *spec,
            inner: EpsGreedy::new(grid.clone(), spec.constraints(), penalty, seed),
            grid,
            last: None,
        }
    }
}

impl Agent for EpsGreedyAgent {
    fn select(&mut self, ctx: &ContextObs) -> ControlInput {
        let idx = self.inner.select(&ctx.to_unit());
        self.last = Some(idx);
        let c = self.grid.coords(idx);
        ControlInput::from_unit(c[0], c[1], c[2], c[3])
    }

    fn update(&mut self, ctx: &ContextObs, control: &ControlInput, obs: &PeriodObservation) {
        let idx = match self.last.take() {
            Some(i) => i,
            None => self.grid.nearest_index(&control.to_unit()),
        };
        let fb = Feedback { cost: self.spec.cost(obs), delay_s: obs.delay_s, map: obs.map };
        self.inner.update(&ctx.to_unit(), idx, &fb);
    }

    fn set_constraints(&mut self, d_max: f64, rho_min: f64) {
        self.spec.d_max = d_max;
        self.spec.rho_min = rho_min;
        // The tabular baseline has no constraint state beyond the penalty
        // rule, which reads the spec through `update`.
    }

    fn name(&self) -> &'static str {
        "eps-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebol_ran::Mcs;

    fn spec() -> ProblemSpec {
        ProblemSpec::new(1.0, 8.0, 0.4, 0.5)
    }

    fn ctx() -> ContextObs {
        ContextObs { num_users: 1, mean_cqi: 14.0, var_cqi: 0.5 }
    }

    #[test]
    fn edgebol_agent_warmup_controls_are_high_resource() {
        let mut a = EdgeBolAgent::quick_for_tests(&spec(), 1);
        assert!(a.in_warmup());
        let c = a.select(&ctx());
        assert!(c.resolution >= 0.8);
        assert!(c.airtime >= 0.7);
        assert!(c.mcs_cap >= Mcs(22));
    }

    #[test]
    fn edgebol_agent_select_update_cycle() {
        let mut a = EdgeBolAgent::quick_for_tests(&spec(), 2);
        for _ in 0..10 {
            let c = a.select(&ctx());
            let obs = PeriodObservation {
                delay_s: 0.3,
                gpu_delay_s: 0.1,
                map: 0.6,
                server_power_w: 150.0,
                bs_power_w: 6.0,
            };
            a.update(&ctx(), &c, &obs);
        }
        assert!(!a.in_warmup());
        // After warmup the safe-set estimate is well defined.
        assert!(a.estimated_safe_set_size(&ctx()) > 0);
    }

    #[test]
    fn update_without_select_reprojects() {
        let mut a = EdgeBolAgent::quick_for_tests(&spec(), 3);
        let c = ControlInput::max_resources();
        let obs = PeriodObservation {
            delay_s: 0.3,
            gpu_delay_s: 0.1,
            map: 0.6,
            server_power_w: 150.0,
            bs_power_w: 6.0,
        };
        // Must not panic even though select() was never called.
        a.update(&ctx(), &c, &obs);
    }

    #[test]
    fn ddpg_agent_emits_valid_controls() {
        let mut a = DdpgAgent::new(&spec(), 4);
        for _ in 0..5 {
            let c = a.select(&ctx());
            assert!(c.resolution >= 0.1 && c.resolution <= 1.0);
            assert!(c.airtime >= 0.05 && c.airtime <= 1.0);
            assert!((0.0..=1.0).contains(&c.gpu_speed));
            let obs = PeriodObservation {
                delay_s: 0.3,
                gpu_delay_s: 0.1,
                map: 0.6,
                server_power_w: 150.0,
                bs_power_w: 6.0,
            };
            a.update(&ctx(), &c, &obs);
        }
        assert_eq!(a.name(), "DDPG");
    }

    #[test]
    fn constraint_updates_propagate() {
        let mut a = EdgeBolAgent::quick_for_tests(&spec(), 5);
        a.set_constraints(0.3, 0.6);
        assert_eq!(a.spec.d_max, 0.3);
        assert_eq!(a.spec.rho_min, 0.6);
    }
}
