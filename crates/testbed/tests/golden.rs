//! Golden digests of the flow testbed's period evaluation.
//!
//! Each test folds the `to_bits()` of every value it computes over a fixed
//! grid into one digest and compares it with a pinned constant, so a
//! change that moves a single bit of the mAP evaluator, the steady-state
//! fixed point or the stepped KPI stream fails here. The constants were
//! recorded before the evaluator's one-pass grouping and the fixed point's
//! in-place Poisson-binomial update were written, which are meant to leave
//! every bit where it was. The detector and the link model call the
//! platform's `ln`, `exp` and `cos`; the constants were recorded on x86-64
//! Linux with glibc's libm, so a failure on another platform with this
//! crate unchanged points at libm rounding first.

use edgebol_media::{Dataset, DetectorModel};
use edgebol_testbed::{Calibration, ControlInput, Environment, FlowTestbed, Scenario};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The resolution of each of the grid's 11 levels, 0.1 to 1.0.
fn grid_resolutions() -> impl Iterator<Item = f64> {
    (0..=10).map(|k| ControlInput::from_unit(k as f64 / 10.0, 0.0, 0.0, 0.0).resolution)
}

/// The 64 fleet slices (1–4 users each) and the ten-user saturation case.
fn scenarios() -> impl Iterator<Item = Scenario> {
    (0..64).map(Scenario::fleet_slice).chain([Scenario::tenx_load(35.0)])
}

const CONTENTION: [f64; 3] = [1.0, 1.7, 3.0];

#[test]
fn evaluate_map_digest_is_pinned() {
    let det = DetectorModel::default();
    let mut h = Digest::new();
    for (size, data_seed) in [(1, 5), (5, 9), (60, 0x5EED), (150, 7)] {
        let ds = Dataset::generate(size, data_seed);
        for res in grid_resolutions() {
            for run_seed in [1u64, 2, 0xA5A5] {
                h.f64(ds.evaluate_map(&det, res, run_seed));
            }
        }
    }
    assert_eq!(h.0, 0x8202_473E_344F_9A96, "evaluate_map digest {:#018x}", h.0);
}

#[test]
fn steady_state_digest_is_pinned() {
    let levels = [0.0, 0.3, 0.7, 1.0];
    let mut h = Digest::new();
    for scenario in scenarios() {
        let snrs: Vec<f64> = (0..scenario.num_users()).map(|i| scenario.snr_db(i, 0)).collect();
        let mut tb = FlowTestbed::new(Calibration::fast(), scenario, 1);
        for factor in CONTENTION {
            tb.set_gpu_contention(factor);
            for &e in &levels {
                for &a in &levels {
                    for &g in &levels {
                        for &m in &levels {
                            let ss = tb.steady_state(&snrs, &ControlInput::from_unit(e, a, g, m));
                            for (&d, (&o, mcs)) in
                                ss.delays_s.iter().zip(ss.occupancy.iter().zip(&ss.mcs))
                            {
                                h.f64(d);
                                h.f64(o);
                                h.u64(mcs.index() as u64);
                            }
                            h.f64(ss.gpu_utilization);
                            h.f64(ss.gpu_delay_s);
                            h.f64(ss.bs_power_w);
                            h.f64(ss.server_power_w);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(h.0, 0x540B_4984_71F7_2934, "steady_state digest {:#018x}", h.0);
}

#[test]
fn stepped_episode_digest_is_pinned() {
    let mut h = Digest::new();
    for (id, scenario) in scenarios().enumerate() {
        let mut tb = FlowTestbed::new(Calibration::fast(), scenario, 100 + id as u64);
        for period in 0..6u64 {
            tb.set_gpu_contention(CONTENTION[period as usize % CONTENTION.len()]);
            let ctx = tb.observe_context();
            h.f64(ctx.mean_cqi);
            h.f64(ctx.var_cqi);
            // A different grid point every period and slice.
            let x = (id as u64 * 7 + period * 3) % 11;
            let u = |k: u64| ((x * k) % 11) as f64 / 10.0;
            let obs = tb.step(&ControlInput::from_unit(u(1), u(3), u(5), u(7)));
            for v in [obs.delay_s, obs.gpu_delay_s, obs.map, obs.server_power_w, obs.bs_power_w] {
                h.f64(v);
            }
        }
    }
    assert_eq!(h.0, 0x75C4_D372_A34E_DE00, "stepped episode digest {:#018x}", h.0);
}
