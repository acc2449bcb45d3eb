//! Experiment scenarios: user populations and SNR dynamics.

use edgebol_ran::SnrTrace;

/// One user's radio situation.
#[derive(Debug, Clone)]
pub struct UserCfg {
    /// Mean uplink SNR (dB) relative to the scenario trace: the user's
    /// effective mean SNR at period `t` is `trace.snr_at(t) + offset_db`.
    pub offset_db: f64,
}

/// A full experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The base SNR trajectory (constant for static experiments,
    /// [`SnrTrace::dynamic_fig13`] for Fig. 13).
    pub trace: SnrTrace,
    /// Users in the slice; `offset_db = 0` for a single nominal user.
    pub users: Vec<UserCfg>,
}

impl Scenario {
    /// Single user at a constant mean SNR — the setup of §6.2/§6.3
    /// (35 dB = "good wireless conditions").
    pub fn single_user(snr_db: f64) -> Self {
        Scenario { trace: SnrTrace::constant(snr_db), users: vec![UserCfg { offset_db: 0.0 }] }
    }

    /// The §6.4 heterogeneous population: user 1 at 30 dB and every
    /// additional user 20% lower (in dB), up to `n` users.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn heterogeneous(n: usize) -> Self {
        assert!(n > 0, "need at least one user");
        let base = 30.0;
        let users =
            (0..n).map(|i| UserCfg { offset_db: base * 0.8f64.powi(i as i32) - base }).collect();
        Scenario { trace: SnrTrace::constant(base), users }
    }

    /// The Fig. 6 "10x load" scenario: ten identical users at good SNR.
    pub fn tenx_load(snr_db: f64) -> Self {
        Scenario {
            trace: SnrTrace::constant(snr_db),
            users: (0..10).map(|_| UserCfg { offset_db: 0.0 }).collect(),
        }
    }

    /// The Fig. 13 dynamic-context scenario: one user, stepping SNR.
    pub fn dynamic() -> Self {
        Scenario { trace: SnrTrace::dynamic_fig13(), users: vec![UserCfg { offset_db: 0.0 }] }
    }

    /// The degraded-mode (chaos) suite setting: a single nominal user at
    /// the §6.2 good-SNR operating point. A fixed, well-conditioned
    /// environment so every divergence between a faulted and a fault-free
    /// episode is attributable to the control plane, not the radio.
    pub fn chaos_suite() -> Self {
        Self::single_user(35.0)
    }

    /// The recovery (survivable-control-plane) suite setting: identical
    /// to [`Scenario::chaos_suite`], named separately so outage/resync
    /// experiments keep compiling if the chaos suite's operating point
    /// ever moves. Trace-prefix assertions ("bit-identical up to the
    /// outage window") rely on the fixed environment this provides.
    pub fn recovery_suite() -> Self {
        Self::chaos_suite()
    }

    /// The deterministic fleet-slice scenario family: slice `id` of a
    /// multi-slice deployment gets a population and radio situation
    /// derived (splitmix-style) from its id alone, so a fleet of any
    /// size is reproducible without carrying per-slice configuration.
    ///
    /// The family spans the contextual range the paper's learner sees:
    /// 1–4 users, base SNR 22–38 dB, per-user offsets up to −6 dB. Two
    /// slices with nearby ids are *not* correlated — neighbourhood in
    /// context space is what the fleet layer's warm-start transfer keys
    /// on, not id adjacency.
    pub fn fleet_slice(id: u64) -> Self {
        // splitmix64: a well-mixed 64-bit hash of the slice id.
        let mut x = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let n = 1 + (x % 4) as usize;
        let snr = 22.0 + ((x >> 8) % 1601) as f64 * 0.01; // 22.00–38.00 dB
        let users = (0..n)
            .map(|i| {
                let h = (x >> (16 + 4 * i)) & 0xFF;
                UserCfg { offset_db: -(h as f64) * 6.0 / 255.0 }
            })
            .collect();
        Scenario { trace: SnrTrace::constant(snr), users }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Mean SNR of user `i` at period `t`.
    pub fn snr_db(&self, user: usize, period: usize) -> f64 {
        self.trace.snr_at(period) + self.users[user].offset_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_user_constant() {
        let s = Scenario::single_user(35.0);
        assert_eq!(s.num_users(), 1);
        assert_eq!(s.snr_db(0, 0), 35.0);
        assert_eq!(s.snr_db(0, 1000), 35.0);
    }

    #[test]
    fn heterogeneous_degrades_20pct_per_user() {
        let s = Scenario::heterogeneous(4);
        assert_eq!(s.num_users(), 4);
        assert!((s.snr_db(0, 0) - 30.0).abs() < 1e-12);
        assert!((s.snr_db(1, 0) - 24.0).abs() < 1e-12);
        assert!((s.snr_db(2, 0) - 19.2).abs() < 1e-12);
        assert!((s.snr_db(3, 0) - 15.36).abs() < 1e-12);
    }

    #[test]
    fn tenx_load_has_ten_users() {
        let s = Scenario::tenx_load(35.0);
        assert_eq!(s.num_users(), 10);
        for i in 0..10 {
            assert_eq!(s.snr_db(i, 0), 35.0);
        }
    }

    #[test]
    fn dynamic_scenario_changes_over_time() {
        let s = Scenario::dynamic();
        let early = s.snr_db(0, 0);
        let later = s.snr_db(0, 110);
        assert_ne!(early, later);
    }

    #[test]
    fn recovery_suite_matches_the_chaos_suite_operating_point() {
        let r = Scenario::recovery_suite();
        let c = Scenario::chaos_suite();
        assert_eq!(r.num_users(), c.num_users());
        assert_eq!(r.snr_db(0, 0), c.snr_db(0, 0));
        assert_eq!(r.snr_db(0, 500), c.snr_db(0, 500));
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn heterogeneous_rejects_zero_users() {
        let _ = Scenario::heterogeneous(0);
    }

    #[test]
    fn fleet_slice_is_deterministic_and_in_range() {
        for id in 0..200 {
            let a = Scenario::fleet_slice(id);
            let b = Scenario::fleet_slice(id);
            assert_eq!(a.num_users(), b.num_users(), "slice {id}");
            assert!((1..=4).contains(&a.num_users()), "slice {id}: {} users", a.num_users());
            for u in 0..a.num_users() {
                assert_eq!(a.snr_db(u, 0), b.snr_db(u, 0), "slice {id} user {u}");
                let snr = a.snr_db(u, 0);
                assert!((16.0..=38.0).contains(&snr), "slice {id} user {u}: {snr} dB");
            }
        }
    }

    #[test]
    fn fleet_slices_are_diverse() {
        let counts: Vec<usize> = (0..64).map(|i| Scenario::fleet_slice(i).num_users()).collect();
        let snrs: Vec<f64> = (0..64).map(|i| Scenario::fleet_slice(i).snr_db(0, 0)).collect();
        assert!(counts.contains(&1) && counts.iter().any(|&c| c > 1));
        let lo = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = snrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 5.0, "SNR spread {lo}..{hi} too narrow");
    }
}
