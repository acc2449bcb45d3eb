//! The §4 problem formulation.

use edgebol_bandit::Constraints;
use edgebol_testbed::PeriodObservation;

/// The operator-facing problem specification:
///
/// * minimize `u(c, x) = delta1 * p_s(c, x) + delta2 * p_b(c, x)` (eq. 1),
/// * subject to `d_t <= d_max` and `rho_t >= rho_min` for all `t` (eq. 2).
///
/// `delta1`/`delta2` are monetary-units-per-watt prices. The paper sweeps
/// `delta2` over `{1, 2, 4, ..., 64}` with `delta1 = 1` to model scenarios
/// from grid-powered servers to power-budgeted (e.g. solar) small cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemSpec {
    /// Price of edge-server power (mu/W).
    pub delta1: f64,
    /// Price of vBS power (mu/W).
    pub delta2: f64,
    /// Maximum service delay `d_max` (s).
    pub d_max: f64,
    /// Minimum precision `rho_min` (mAP).
    pub rho_min: f64,
}

impl ProblemSpec {
    /// Creates a specification.
    ///
    /// # Panics
    /// Panics on non-positive prices or `d_max`, or `rho_min` outside
    /// `[0, 1)`.
    pub fn new(delta1: f64, delta2: f64, d_max: f64, rho_min: f64) -> Self {
        assert!(delta1 >= 0.0 && delta2 >= 0.0, "prices must be non-negative");
        assert!(delta1 + delta2 > 0.0, "at least one price must be positive");
        assert!(d_max > 0.0, "d_max must be positive");
        assert!((0.0..1.0).contains(&rho_min), "rho_min must be in [0,1)");
        ProblemSpec { delta1, delta2, d_max, rho_min }
    }

    /// The paper's §6.2 convergence setting: `delta1 = 1`, medium
    /// constraints, parameterized by `delta2`.
    pub fn convergence(delta2: f64) -> Self {
        ProblemSpec::new(1.0, delta2, 0.4, 0.5)
    }

    /// The constraint pair as the bandit layer sees it.
    pub fn constraints(&self) -> Constraints {
        Constraints { d_max: self.d_max, rho_min: self.rho_min }
    }

    /// The cost of eq. (1) for an observation.
    pub fn cost(&self, obs: &PeriodObservation) -> f64 {
        obs.cost(self.delta1, self.delta2)
    }

    /// Whether an observation satisfies eq. (2).
    pub fn satisfied(&self, obs: &PeriodObservation) -> bool {
        self.constraints().satisfied(obs.delay_s, obs.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(delay: f64, map: f64, ps: f64, pb: f64) -> PeriodObservation {
        PeriodObservation {
            delay_s: delay,
            gpu_delay_s: 0.1,
            map,
            server_power_w: ps,
            bs_power_w: pb,
        }
    }

    #[test]
    fn cost_is_eq1() {
        let spec = ProblemSpec::new(1.0, 8.0, 0.4, 0.5);
        assert_eq!(spec.cost(&obs(0.3, 0.6, 100.0, 5.0)), 140.0);
    }

    #[test]
    fn satisfaction_is_eq2() {
        let spec = ProblemSpec::new(1.0, 1.0, 0.4, 0.5);
        assert!(spec.satisfied(&obs(0.4, 0.5, 0.0, 0.0)));
        assert!(!spec.satisfied(&obs(0.41, 0.5, 0.0, 0.0)));
        assert!(!spec.satisfied(&obs(0.4, 0.49, 0.0, 0.0)));
    }

    #[test]
    fn convergence_preset_matches_paper() {
        let spec = ProblemSpec::convergence(8.0);
        assert_eq!(spec.delta1, 1.0);
        assert_eq!(spec.delta2, 8.0);
        assert_eq!(spec.d_max, 0.4);
        assert_eq!(spec.rho_min, 0.5);
    }

    #[test]
    #[should_panic(expected = "d_max must be positive")]
    fn rejects_zero_dmax() {
        let _ = ProblemSpec::new(1.0, 1.0, 0.0, 0.5);
    }
}
