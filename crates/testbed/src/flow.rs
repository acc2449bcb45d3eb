//! Fast flow-level evaluator of the closed-loop steady state.
//!
//! For learning experiments the testbed must evaluate tens of thousands of
//! (context, control) pairs, so instead of stepping subframes we solve the
//! closed-loop steady state analytically:
//!
//! * each user's **transmission share** of the airtime budget depends on
//!   how often the *other* users are transmitting (round-robin among
//!   backlogged users) — a fixed point over the users' duty fractions;
//! * the GPU sees the superposition of all users' request processes; its
//!   queueing delay is approximated with an M/D/1 waiting term, another
//!   ingredient of the same fixed point;
//! * BBU occupancy follows from the subframes each image needs (including
//!   expected HARQ retransmissions) divided by the per-image period.
//!
//! The fixed point converges in a handful of iterations for every
//! configuration on the control grid (monotone damped updates). The DES in
//! [`crate::des`] cross-validates this model; the integration test suite
//! compares the two on a grid of configurations.

use crate::calib::Calibration;
use crate::meter::PowerMeter;
use crate::observe::{ContextObs, ControlInput, PeriodObservation};
use crate::scenario::Scenario;
use crate::Environment;
use edgebol_edge::GpuSpeedPolicy;
use edgebol_linalg::stats::normal;
use edgebol_media::Dataset;
use edgebol_ran::{cqi_from_snr, max_mcs_for_cqi, phy, tbs_bits, Mcs};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Noiseless steady-state summary of one period.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// Per-user end-to-end delay (s).
    pub delays_s: Vec<f64>,
    /// Per-user MCS actually used.
    pub mcs: Vec<Mcs>,
    /// Per-user BBU subframe occupancy (fraction of all subframes).
    pub occupancy: Vec<f64>,
    /// GPU utilization in [0, 1].
    pub gpu_utilization: f64,
    /// Server-side latency (queue wait + inference), seconds.
    pub gpu_delay_s: f64,
    /// Noiseless BS power (W).
    pub bs_power_w: f64,
    /// Noiseless server power (W).
    pub server_power_w: f64,
}

impl SteadyState {
    /// Worst (largest) per-user delay — the `d(c,x) = max_i D_i` of §4.2.
    pub fn worst_delay_s(&self) -> f64 {
        self.delays_s.iter().copied().fold(0.0, f64::max)
    }
}

/// `E[1 / (1 + N)]` where `N` is the number of *other* users
/// transmitting, each independently with probability `tau[j]` — the exact
/// round-robin share factor. Poisson-binomial distribution by the
/// standard O(n^2) DP, updated in place in the caller's `pmf` scratch.
///
/// Each update walks `pmf` from the top index down, so `pmf[k - 1]` is
/// still the previous round's when `pmf[k]` reads it. Every entry is the
/// same sum of the same two products as a fresh-vector DP that starts from
/// zeros: IEEE addition commutes, and `0.0 + x` is exact for `x >= 0`.
fn expected_inverse_share(tau: &[f64], i: usize, pmf: &mut Vec<f64>) -> f64 {
    // pmf[k] = P(N = k) over the users j != i.
    pmf.clear();
    pmf.push(1.0);
    for (j, &t) in tau.iter().enumerate() {
        if j == i {
            continue;
        }
        let top = pmf.len() - 1;
        pmf.push(pmf[top] * t);
        for k in (1..=top).rev() {
            pmf[k] = pmf[k] * (1.0 - t) + pmf[k - 1] * t;
        }
        pmf[0] *= 1.0 - t;
    }
    pmf.iter().enumerate().map(|(k, &p)| p / (k + 1) as f64).sum()
}

/// The flow-level testbed.
#[derive(Debug, Clone)]
pub struct FlowTestbed {
    calib: Calibration,
    scenario: Scenario,
    dataset: Dataset,
    meter: PowerMeter,
    rng: SmallRng,
    period: usize,
    /// Per-user SNR sampled at `observe_context`, consumed by `step`.
    period_snrs: Vec<f64>,
    /// Cross-slice GPU contention multiplier on per-image inference time
    /// (1.0 = dedicated server); set by the fleet layer's shared-server
    /// model via [`Environment::set_gpu_contention`].
    gpu_contention: f64,
}

impl FlowTestbed {
    /// Creates a testbed for a scenario, deterministic given `seed`.
    pub fn new(calib: Calibration, scenario: Scenario, seed: u64) -> Self {
        let dataset = Dataset::generate(calib.dataset_size, seed ^ 0x5EED);
        let meter = PowerMeter::new(calib.meter_noise_rel);
        let n = scenario.num_users();
        FlowTestbed {
            calib,
            scenario,
            dataset,
            meter,
            rng: SmallRng::seed_from_u64(seed),
            period: 0,
            period_snrs: vec![0.0; n],
            gpu_contention: 1.0,
        }
    }

    /// Current cross-slice GPU contention multiplier.
    pub fn gpu_contention(&self) -> f64 {
        self.gpu_contention
    }

    /// The calibration in force.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The scenario in force.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Current period index.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Solves the closed-loop steady state for given per-user mean SNRs.
    ///
    /// Pure and noiseless: this is what both the noisy observation path
    /// and the exhaustive-search oracle are built on.
    ///
    /// # Panics
    /// Panics if `snrs_db` is empty.
    pub fn steady_state(&self, snrs_db: &[f64], control: &ControlInput) -> SteadyState {
        assert!(!snrs_db.is_empty(), "need at least one user");
        let c = &self.calib;
        let n = snrs_db.len();
        let enc = c.encode.encode(control.resolution);
        let bits = enc.bytes * 8.0;
        let pre = enc.preproc_s;
        let gamma = GpuSpeedPolicy::clamped(control.gpu_speed);
        let inf = c.gpu.inference_time_s(control.resolution, gamma) * self.gpu_contention;
        let fixed = c.dl_fixed_s + c.stack_overhead_s;
        let alpha = control.airtime.clamp(0.05, 1.0);

        // Per-user link parameters.
        let mut mcs = Vec::with_capacity(n);
        let mut rate_sched = Vec::with_capacity(n); // delivered bits/s while scheduled
        let mut sf_per_image = Vec::with_capacity(n); // subframes consumed per image
        for &snr in snrs_db {
            let m = max_mcs_for_cqi(cqi_from_snr(snr)).min(control.mcs_cap);
            let gf = c.harq.goodput_factor(snr, m).max(1e-3);
            let tbs = tbs_bits(m, c.slice_prbs);
            mcs.push(m);
            rate_sched.push(tbs * gf / phy::SUBFRAME_S);
            sf_per_image.push(bits / (tbs * gf));
        }

        // Fixed point over transmit fractions and GPU queueing.
        let mut d: Vec<f64> = vec![pre + inf + fixed + 1.0; n];
        let mut tx: Vec<f64> = vec![1.0; n];
        // Residence time (queueing + service) at the GPU per user.
        let mut res: Vec<f64> = vec![inf; n];
        let mut tau = vec![0.0; n];
        let mut pmf = Vec::with_capacity(n);
        for _ in 0..60 {
            for (t, (x, dd)) in tau.iter_mut().zip(tx.iter().zip(&d)) {
                *t = (x / dd).min(1.0);
            }
            for i in 0..n {
                // Round-robin share while user i transmits: each other
                // user is transmitting independently with probability
                // tau_j, so the expected share is alpha * E[1/(1+N)] with
                // N ~ PoissonBinomial(tau_{-i}), computed exactly — the
                // naive alpha / (1 + sum tau_{-i}) is Jensen-pessimistic
                // and overestimates the worst user's transfer time by
                // ~30% in heterogeneous scenarios.
                let share = (alpha * expected_inverse_share(&tau, i, &mut pmf)).min(alpha);
                let new_tx = bits / (rate_sched[i] * share);
                // GPU residence by approximate mean-value analysis for
                // the closed network (Schweitzer AMVA): each user holds
                // one outstanding frame, an arriving job finds on average
                // the other users\' mean station queue lengths
                // Q_j = residence_j / d_j ahead of it. Unlike an
                // open-queue M/D/1 term this stays finite at saturation —
                // a closed system degrades to round-robin service of n
                // jobs, it does not blow up.
                let q_others: f64 = (0..n).filter(|&j| j != i).map(|j| res[j] / d[j]).sum();
                let new_res = inf * (1.0 + q_others);
                let new_d = pre + new_tx + new_res + fixed;
                res[i] = 0.5 * res[i] + 0.5 * new_res;
                // Damped update for stable convergence.
                tx[i] = 0.5 * tx[i] + 0.5 * new_tx;
                d[i] = 0.5 * d[i] + 0.5 * new_d;
            }
        }

        // KPIs from the converged state.
        let lambda: f64 = d.iter().map(|dd| 1.0 / dd).sum();
        let gpu_delay_s = res.iter().sum::<f64>() / n as f64;
        let gpu_utilization = (lambda * inf).min(1.0);
        let server_power_w = c.server_power.power_w(gpu_utilization, gamma);

        let mut occupancy: Vec<f64> =
            (0..n).map(|i| sf_per_image[i] / d[i] * phy::SUBFRAME_S).collect();
        // The MAC cannot grant beyond the airtime cap.
        let total: f64 = occupancy.iter().sum();
        if total > alpha {
            let scale = alpha / total;
            for o in &mut occupancy {
                *o *= scale;
            }
        }
        let bs_power_w = c.bbu_power.power_mixture_w(&occupancy, &mcs);

        SteadyState {
            delays_s: d,
            mcs,
            occupancy,
            gpu_utilization,
            gpu_delay_s,
            bs_power_w,
            server_power_w,
        }
    }

    /// Expected (noiseless) mAP for a resolution: average of the evaluator
    /// over a fixed set of detector seeds.
    pub fn expected_map(&self, resolution: f64) -> f64 {
        let seeds = [11u64, 23, 37, 51, 73];
        seeds
            .iter()
            .map(|&s| self.dataset.evaluate_map(&self.calib.detector, resolution, s))
            .sum::<f64>()
            / seeds.len() as f64
    }

    /// Noiseless expected observation at a period — the oracle's view.
    pub fn expected(&self, period: usize, control: &ControlInput) -> PeriodObservation {
        let snrs: Vec<f64> =
            (0..self.scenario.num_users()).map(|i| self.scenario.snr_db(i, period)).collect();
        let ss = self.steady_state(&snrs, control);
        PeriodObservation {
            delay_s: ss.worst_delay_s(),
            gpu_delay_s: ss.gpu_delay_s,
            map: self.expected_map(control.resolution),
            server_power_w: ss.server_power_w,
            bs_power_w: ss.bs_power_w,
        }
    }
}

impl Environment for FlowTestbed {
    fn observe_context(&mut self) -> ContextObs {
        let n = self.scenario.num_users();
        self.period_snrs.clear();
        for i in 0..n {
            let mean = self.scenario.snr_db(i, self.period);
            self.period_snrs.push(mean + normal(&mut self.rng, 0.0, 0.8));
        }
        // CQI statistics over 20 noisy reports per user.
        let mut reports = Vec::with_capacity(n * 20);
        for &snr in &self.period_snrs {
            for _ in 0..20 {
                reports.push(cqi_from_snr(snr + normal(&mut self.rng, 0.0, 1.2)) as f64);
            }
        }
        let mean_cqi = edgebol_linalg::vecops::mean(&reports);
        let var_cqi = edgebol_linalg::vecops::variance(&reports);
        ContextObs { num_users: n, mean_cqi, var_cqi }
    }

    fn step(&mut self, control: &ControlInput) -> PeriodObservation {
        if self.period_snrs.is_empty() {
            // step() without observe_context(): fall back to scenario means.
            let n = self.scenario.num_users();
            for i in 0..n {
                self.period_snrs.push(self.scenario.snr_db(i, self.period));
            }
        }
        let ss = self.steady_state(&self.period_snrs, control);
        let delay =
            ss.worst_delay_s() * (1.0 + normal(&mut self.rng, 0.0, self.calib.delay_noise_rel));
        let map_seed = (self.period as u64).wrapping_mul(0x9E37_79B9) ^ 0xA5A5;
        let map = self.dataset.evaluate_map(&self.calib.detector, control.resolution, map_seed);
        let obs = PeriodObservation {
            delay_s: delay.max(1e-3),
            gpu_delay_s: ss.gpu_delay_s,
            map,
            server_power_w: self.meter.read(ss.server_power_w, &mut self.rng),
            bs_power_w: self.meter.read(ss.bs_power_w, &mut self.rng),
        };
        self.period += 1;
        self.period_snrs.clear();
        obs
    }

    fn num_users(&self) -> usize {
        self.scenario.num_users()
    }

    fn set_gpu_contention(&mut self, factor: f64) {
        debug_assert!(factor.is_finite(), "contention factor {factor}");
        // A slice cannot run faster than on a dedicated server.
        self.gpu_contention = factor.max(1.0);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // Taken at a period boundary: `period_snrs` was consumed by the
        // preceding `step`, so (rng, period, contention) is the entire
        // evolving state — calibration, scenario, dataset and meter are
        // immutable and rebuilt from the constructor on restore.
        let mut e = edgebol_ckpt::Enc::new();
        for w in self.rng.state() {
            e.u64(w);
        }
        e.usize(self.period);
        e.f64(self.gpu_contention);
        Some(e.finish())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), edgebol_ckpt::CkptError> {
        let mut d = edgebol_ckpt::Dec::new(bytes);
        let rng_state = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let period = d.usize()?;
        let gpu_contention = d.f64()?;
        if !(gpu_contention.is_finite() && gpu_contention >= 1.0) {
            return Err(edgebol_ckpt::CkptError::BadValue(format!(
                "gpu contention {gpu_contention}"
            )));
        }
        d.expect_end()?;
        self.rng = SmallRng::from_state(rng_state);
        self.period = period;
        self.gpu_contention = gpu_contention;
        self.period_snrs.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use proptest::prelude::*;

    /// `expected_inverse_share` as it was before the in-place update: a
    /// fresh `next` vector per other user.
    fn expected_inverse_share_reference(tau: &[f64], i: usize) -> f64 {
        let mut pmf = vec![1.0];
        for (j, &t) in tau.iter().enumerate() {
            if j == i {
                continue;
            }
            let mut next = vec![0.0; pmf.len() + 1];
            for (k, &p) in pmf.iter().enumerate() {
                next[k] += p * (1.0 - t);
                next[k + 1] += p * t;
            }
            pmf = next;
        }
        pmf.iter().enumerate().map(|(k, &p)| p / (k + 1) as f64).sum()
    }

    proptest! {
        #[test]
        fn expected_inverse_share_matches_reference_bit_for_bit(
            tau in proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0], 1..12),
            pick in any::<usize>(),
        ) {
            // `i == tau.len()` skips no user.
            let i = pick % (tau.len() + 1);
            // A scratch buffer left dirty by an earlier call.
            let mut pmf = vec![0.25; 3];
            let new = expected_inverse_share(&tau, i, &mut pmf);
            let old = expected_inverse_share_reference(&tau, i);
            prop_assert_eq!(new.to_bits(), old.to_bits(), "{new} vs {old} at i {i}, tau {tau:?}");
        }
    }

    fn tb(scenario: Scenario) -> FlowTestbed {
        FlowTestbed::new(Calibration::default(), scenario, 42)
    }

    fn max_ctrl() -> ControlInput {
        ControlInput::max_resources()
    }

    #[test]
    fn save_load_resumes_the_kpi_stream_bit_identically() {
        let mut live = tb(Scenario::single_user(30.0));
        for _ in 0..5 {
            live.observe_context();
            live.step(&max_ctrl());
        }
        let snapshot = live.save_state().expect("flow testbed supports snapshots");
        let mut restored = tb(Scenario::single_user(30.0));
        restored.load_state(&snapshot).unwrap();
        assert_eq!(restored.period(), 5);
        for p in 0..10 {
            let ca = live.observe_context();
            let cb = restored.observe_context();
            assert_eq!(ca.mean_cqi.to_bits(), cb.mean_cqi.to_bits(), "context at {p}");
            let oa = live.step(&max_ctrl());
            let ob = restored.step(&max_ctrl());
            assert_eq!(oa.delay_s.to_bits(), ob.delay_s.to_bits(), "delay at {p}");
            assert_eq!(oa.server_power_w.to_bits(), ob.server_power_w.to_bits(), "power at {p}");
            assert_eq!(oa.map.to_bits(), ob.map.to_bits(), "map at {p}");
        }
    }

    #[test]
    fn load_state_rejects_garbage_with_typed_error() {
        let mut t = tb(Scenario::single_user(30.0));
        assert!(t.load_state(&[1, 2, 3]).is_err(), "truncated payload must fail");
        let mut bad = t.save_state().unwrap();
        bad.truncate(bad.len() - 1);
        assert!(t.load_state(&bad).is_err());
        assert_eq!(t.period(), 0, "failed load must not mutate the testbed");
    }

    #[test]
    fn full_res_delay_near_paper_operating_point() {
        // Max resources at 35 dB: ~0.33 s (see Calibration docs for the
        // operating-point choice).
        let t = tb(Scenario::single_user(35.0));
        let ss = t.steady_state(&[35.0], &max_ctrl());
        let d = ss.worst_delay_s();
        assert!((0.28..0.40).contains(&d), "delay {d}");
    }

    #[test]
    fn low_res_cuts_delay_substantially() {
        // Fig. 1 direction: lower res, much lower delay.
        let t = tb(Scenario::single_user(35.0));
        let hi = t.steady_state(&[35.0], &max_ctrl()).worst_delay_s();
        let mut c = max_ctrl();
        c.resolution = 0.25;
        let lo = t.steady_state(&[35.0], &c).worst_delay_s();
        assert!(lo < 0.7 * hi, "lo {lo} vs hi {hi}");
    }

    #[test]
    fn airtime_reduction_inflates_delay_fig2() {
        // Fig. 2: 20% airtime at full res pushes delay toward ~2 s.
        let t = tb(Scenario::single_user(35.0));
        let mut c = max_ctrl();
        c.airtime = 0.2;
        let d = t.steady_state(&[35.0], &c).worst_delay_s();
        let d_full = t.steady_state(&[35.0], &max_ctrl()).worst_delay_s();
        // Paper: 80% airtime increase improves delay 65-80%.
        let improvement = (d - d_full) / d;
        assert!((0.6..0.85).contains(&improvement), "improvement {improvement} (d {d})");
    }

    #[test]
    fn low_res_raises_server_power_fig2() {
        // Closed loop: low-res -> higher request rate -> higher GPU load.
        let t = tb(Scenario::single_user(35.0));
        let hi_res = t.steady_state(&[35.0], &max_ctrl()).server_power_w;
        let mut c = max_ctrl();
        c.resolution = 0.25;
        let lo_res = t.steady_state(&[35.0], &c).server_power_w;
        assert!(lo_res > hi_res + 20.0, "low-res {lo_res} vs high-res {hi_res}");
        // And the absolute band matches Fig. 2 (75-180 W).
        assert!((70.0..190.0).contains(&lo_res), "{lo_res}");
        assert!((70.0..190.0).contains(&hi_res), "{hi_res}");
    }

    #[test]
    fn gpu_speed_trades_delay_for_server_power_fig3() {
        let t = tb(Scenario::single_user(35.0));
        let mut slow = max_ctrl();
        slow.gpu_speed = 0.0;
        let fast_ss = t.steady_state(&[35.0], &max_ctrl());
        let slow_ss = t.steady_state(&[35.0], &slow);
        assert!(slow_ss.worst_delay_s() > fast_ss.worst_delay_s());
        assert!(slow_ss.server_power_w < fast_ss.server_power_w);
    }

    #[test]
    fn bs_power_decreases_with_mcs_at_low_load_fig5() {
        let t = tb(Scenario::single_user(35.0));
        let mut low_mcs = max_ctrl();
        low_mcs.mcs_cap = Mcs(6);
        let p_low = t.steady_state(&[35.0], &low_mcs).bs_power_w;
        let p_high = t.steady_state(&[35.0], &max_ctrl()).bs_power_w;
        assert!(p_high < p_low, "Fig.5 regime: high MCS should consume less ({p_high} !< {p_low})");
        assert!((4.0..8.0).contains(&p_low), "{p_low}");
    }

    #[test]
    fn bs_power_increases_with_mcs_at_10x_load_fig6() {
        let t = tb(Scenario::tenx_load(35.0));
        let snrs = vec![35.0; 10];
        let mut low_mcs = max_ctrl();
        low_mcs.mcs_cap = Mcs(10);
        let p_low = t.steady_state(&snrs, &low_mcs).bs_power_w;
        let p_high = t.steady_state(&snrs, &max_ctrl()).bs_power_w;
        assert!(
            p_high > p_low,
            "Fig.6 regime: high MCS should consume more under saturation ({p_high} !> {p_low})"
        );
    }

    #[test]
    fn poor_snr_users_see_higher_delay() {
        let t = tb(Scenario::heterogeneous(4));
        let ss = t.steady_state(&[30.0, 24.0, 19.2, 15.36], &max_ctrl());
        assert!(ss.delays_s[3] > ss.delays_s[0]);
        assert_eq!(ss.worst_delay_s(), ss.delays_s[3]);
        assert!(ss.mcs[3] < ss.mcs[0]);
    }

    #[test]
    fn occupancy_respects_airtime_cap() {
        let t = tb(Scenario::tenx_load(35.0));
        let snrs = vec![10.0; 10]; // poor links, saturated demand
        let mut c = max_ctrl();
        c.airtime = 0.3;
        let ss = t.steady_state(&snrs, &c);
        let total: f64 = ss.occupancy.iter().sum();
        assert!(total <= 0.3 + 1e-9, "occupancy {total}");
    }

    #[test]
    fn environment_loop_produces_noisy_but_consistent_kpis() {
        let mut t = tb(Scenario::single_user(35.0));
        let ctx = t.observe_context();
        assert_eq!(ctx.num_users, 1);
        assert!(ctx.mean_cqi > 10.0, "35 dB should report high CQI: {}", ctx.mean_cqi);
        let a = t.step(&max_ctrl());
        let _ = t.observe_context();
        let b = t.step(&max_ctrl());
        assert_ne!(a.delay_s, b.delay_s, "noise expected");
        assert!((a.delay_s - b.delay_s).abs() < 0.2 * a.delay_s);
        assert!(a.map > 0.4, "full-res mAP {}", a.map);
        assert_eq!(t.period(), 2);
    }

    #[test]
    fn expected_is_deterministic() {
        let t = tb(Scenario::single_user(35.0));
        let a = t.expected(0, &max_ctrl());
        let b = t.expected(0, &max_ctrl());
        assert_eq!(a, b);
    }

    #[test]
    fn expected_map_tracks_fig1() {
        let t = tb(Scenario::single_user(35.0));
        let m_full = t.expected_map(1.0);
        let m_quarter = t.expected_map(0.25);
        assert!((0.5..0.75).contains(&m_full), "mAP(1.0) {m_full}");
        assert!((0.1..0.45).contains(&m_quarter), "mAP(0.25) {m_quarter}");
    }

    #[test]
    fn gpu_contention_inflates_delay_and_gpu_load() {
        let mut t = tb(Scenario::single_user(35.0));
        let free = t.steady_state(&[35.0], &max_ctrl());
        t.set_gpu_contention(2.0);
        assert_eq!(t.gpu_contention(), 2.0);
        let contended = t.steady_state(&[35.0], &max_ctrl());
        assert!(contended.worst_delay_s() > free.worst_delay_s());
        assert!(contended.gpu_delay_s > free.gpu_delay_s);
        // Factors below 1 clamp: a slice can't go faster than dedicated.
        t.set_gpu_contention(0.5);
        assert_eq!(t.gpu_contention(), 1.0);
    }

    #[test]
    fn step_without_context_falls_back() {
        let mut t = tb(Scenario::single_user(35.0));
        let o = t.step(&max_ctrl());
        assert!(o.delay_s > 0.0);
    }
}
