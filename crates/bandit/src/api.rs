//! Agent-facing types shared across algorithms.

/// The per-period service constraints of eq. (2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum tolerable service delay `d_max` (seconds).
    pub d_max: f64,
    /// Minimum tolerable precision `rho_min` (mAP).
    pub rho_min: f64,
}

impl Constraints {
    /// The paper's "medium" setting (§6.2): `d_max = 0.4 s`,
    /// `rho_min = 0.5`.
    pub fn medium() -> Self {
        Constraints { d_max: 0.4, rho_min: 0.5 }
    }

    /// Whether an observation satisfies both constraints.
    pub fn satisfied(&self, delay_s: f64, map: f64) -> bool {
        delay_s <= self.d_max && map >= self.rho_min
    }
}

/// End-of-period feedback to an agent: the cost of eq. (1) plus the two
/// constrained KPIs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Realized cost `u_t = delta1 p_s + delta2 p_b`.
    pub cost: f64,
    /// Realized service delay (s).
    pub delay_s: f64,
    /// Realized precision (mAP).
    pub map: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_satisfaction() {
        let c = Constraints::medium();
        assert!(c.satisfied(0.39, 0.51));
        assert!(!c.satisfied(0.41, 0.51));
        assert!(!c.satisfied(0.39, 0.49));
        assert!(c.satisfied(0.4, 0.5), "boundaries are inclusive");
    }
}
