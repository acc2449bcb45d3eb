//! Shared observation and control types.

use edgebol_ran::Mcs;

/// The control policy `x = [eta, a, gamma, m]` of §4.2, in physical units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlInput {
    /// Policy 1 — image resolution fraction in (0, 1].
    pub resolution: f64,
    /// Policy 2 — uplink airtime (duty-cycle) fraction in (0, 1].
    pub airtime: f64,
    /// Policy 3 — GPU speed fraction in [0, 1] (power limit 100–280 W).
    pub gpu_speed: f64,
    /// Policy 4 — maximum eligible MCS.
    pub mcs_cap: Mcs,
}

impl ControlInput {
    /// The most resource-hungry, delay-minimizing configuration: the
    /// paper's initial safe set `S_0` ("intentionally selected to be the
    /// ones with the lowest delay, the highest mAP and, therefore, the
    /// highest consumed power").
    pub fn max_resources() -> Self {
        ControlInput { resolution: 1.0, airtime: 1.0, gpu_speed: 1.0, mcs_cap: Mcs::MAX }
    }

    /// Builds a control from normalized grid coordinates in `[0, 1]^4`
    /// (the learner's action space). Resolution and airtime are floored
    /// at 10% / 5% — zero-resolution or zero-airtime slices are dead.
    pub fn from_unit(eta: f64, a: f64, gamma: f64, m: f64) -> Self {
        ControlInput {
            resolution: (0.1 + 0.9 * eta.clamp(0.0, 1.0)).clamp(0.1, 1.0),
            airtime: (0.05 + 0.95 * a.clamp(0.0, 1.0)).clamp(0.05, 1.0),
            gpu_speed: gamma.clamp(0.0, 1.0),
            mcs_cap: Mcs::clamped((m.clamp(0.0, 1.0) * 28.0).round() as i64),
        }
    }

    /// Projects back to normalized grid coordinates in `[0, 1]^4`.
    pub fn to_unit(&self) -> [f64; 4] {
        [
            ((self.resolution - 0.1) / 0.9).clamp(0.0, 1.0),
            ((self.airtime - 0.05) / 0.95).clamp(0.0, 1.0),
            self.gpu_speed.clamp(0.0, 1.0),
            self.mcs_cap.index() as f64 / 28.0,
        ]
    }
}

/// The context `c_t = [n_t, mean CQI, var CQI]` of §4.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextObs {
    /// Number of users in the slice.
    pub num_users: usize,
    /// Mean uplink CQI across users over the previous period.
    pub mean_cqi: f64,
    /// Variance of the uplink CQI across users over the previous period.
    pub var_cqi: f64,
}

impl ContextObs {
    /// Normalized context vector for the learner: users scaled by a
    /// nominal maximum of 8, CQI by its 1–15 range, variance by 16.
    pub fn to_unit(&self) -> [f64; 3] {
        [
            (self.num_users as f64 / 8.0).min(1.0),
            ((self.mean_cqi - 1.0) / 14.0).clamp(0.0, 1.0),
            (self.var_cqi / 16.0).clamp(0.0, 1.0),
        ]
    }
}

/// One period's noisy KPI observations (§4.2): the four quantities
/// EdgeBOL's GPs are trained on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodObservation {
    /// Service delay `d_t` (worst across users), seconds.
    pub delay_s: f64,
    /// Server-side latency component (GPU queueing + inference), seconds —
    /// the "GPU delay" of Fig. 3 (bottom).
    pub gpu_delay_s: f64,
    /// Precision `rho_t` (mAP, worst across users).
    pub map: f64,
    /// Edge-server power `p^s_t`, watts.
    pub server_power_w: f64,
    /// vBS (BBU) power `p^b_t`, watts.
    pub bs_power_w: f64,
}

impl PeriodObservation {
    /// The scalar cost of eq. (1): `u = delta1 * p_s + delta2 * p_b`.
    pub fn cost(&self, delta1: f64, delta2: f64) -> f64 {
        delta1 * self.server_power_w + delta2 * self.bs_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundtrip_on_grid() {
        for i in 0..=10 {
            let v = i as f64 / 10.0;
            let c = ControlInput::from_unit(v, v, v, v);
            let back = c.to_unit();
            assert!((back[0] - v).abs() < 1e-9, "eta");
            assert!((back[1] - v).abs() < 1e-9, "airtime");
            assert!((back[2] - v).abs() < 1e-9, "gamma");
            // MCS is quantized to 29 levels; allow half a step.
            assert!((back[3] - v).abs() <= 0.5 / 28.0 + 1e-9, "mcs");
        }
    }

    #[test]
    fn from_unit_floors_resolution_and_airtime() {
        let c = ControlInput::from_unit(0.0, 0.0, 0.0, 0.0);
        assert!(c.resolution >= 0.1);
        assert!(c.airtime >= 0.05);
        assert_eq!(c.mcs_cap, Mcs(0));
    }

    #[test]
    fn max_resources_is_top_corner() {
        let c = ControlInput::max_resources();
        assert_eq!(c.resolution, 1.0);
        assert_eq!(c.airtime, 1.0);
        assert_eq!(c.gpu_speed, 1.0);
        assert_eq!(c.mcs_cap, Mcs::MAX);
        assert_eq!(c.to_unit(), [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn context_normalization_bounds() {
        let c = ContextObs { num_users: 20, mean_cqi: 15.0, var_cqi: 100.0 };
        let u = c.to_unit();
        assert!(u.iter().all(|v| (0.0..=1.0).contains(v)));
        let c2 = ContextObs { num_users: 1, mean_cqi: 1.0, var_cqi: 0.0 };
        let u2 = c2.to_unit();
        assert_eq!(u2[1], 0.0);
        assert_eq!(u2[2], 0.0);
    }

    #[test]
    fn cost_combines_powers() {
        let o = PeriodObservation {
            delay_s: 0.3,
            gpu_delay_s: 0.1,
            map: 0.5,
            server_power_w: 100.0,
            bs_power_w: 5.0,
        };
        assert_eq!(o.cost(1.0, 8.0), 140.0);
        assert_eq!(o.cost(0.0, 1.0), 5.0);
    }
}
