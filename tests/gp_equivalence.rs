//! Numerical-equivalence battery for the GP sliding-window downdate.
//!
//! The `O(W^2)` delete-row Cholesky downdate ([`edgebol_gp::EvictStrategy::Downdate`])
//! replaces the `O(W^3)` from-scratch refactorization on every eviction of
//! a full window. These tests pin the two claims that substitution rests
//! on:
//!
//! 1. **Bounded drift.** Thousands of downdate/append cycles at the
//!    paper-scale window (200) stay within a tight tolerance of a
//!    freshly-factored oracle — rounding error does not accumulate,
//!    because deleting the first row *adds* `c c^T` to the trailing
//!    factor block (an update, with no cancellation), see DESIGN.md.
//! 2. **Plan identity.** A fixed-seed learning episode (the Fig. 9 setup,
//!    shrunk so the window actually slides) takes the *same decisions*
//!    and accrues the same cost under both strategies.
//!
//! The CI stress loop reruns this battery under ten `EDGEBOL_CHAOS_SEED`
//! offsets; every constant below derives its RNG seed from that knob.

use edgebol_bandit::{Acquisition, Constraints, EdgeBolConfig};
use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_gp::{EvictStrategy, GaussianProcess, Kernel};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Seed offset of the CI stress loop (0 when unset).
fn chaos_seed() -> u64 {
    std::env::var("EDGEBOL_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Long-horizon drift: 5 000 observe/evict cycles at window 200 on the
/// downdate path, checked every 500 cycles against an oracle GP factored
/// from scratch on the identical retained window. The asserted bound
/// (1e-6 on means and stds of O(1) targets) is ~two orders of magnitude
/// above the drift measured across seeds (see DESIGN.md) — tight enough
/// that genuine error accumulation would trip it, loose enough to be
/// seed-robust.
#[test]
fn long_horizon_drift_stays_bounded() {
    const WINDOW: usize = 200;
    const CYCLES: usize = 5_000;
    const CHECK_EVERY: usize = 500;
    let mut rng = SmallRng::seed_from_u64(0x1D21F7 ^ chaos_seed());
    let kernel = || Kernel::matern32(1.5, vec![0.3, 0.4]);
    let mut gp = GaussianProcess::new(kernel(), 1e-4)
        .with_max_observations(WINDOW)
        .with_evict_strategy(EvictStrategy::Downdate);

    let probes: Vec<[f64; 2]> =
        (0..8).map(|_| [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)]).collect();
    let mut max_drift = 0.0f64;
    for cycle in 0..CYCLES {
        let x = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
        let y = (x[0] * 5.0).sin() + (x[1] * 3.0).cos() + rng.random_range(-0.05..0.05);
        gp.observe(&x, y).unwrap();
        if (cycle + 1) % CHECK_EVERY == 0 {
            // Oracle: fresh factor of exactly the retained window.
            let mut oracle = GaussianProcess::new(kernel(), 1e-4);
            let (xs, ys) = gp.data();
            for (x, &y) in xs.chunks(2).zip(ys) {
                oracle.observe(x, y).unwrap();
            }
            for p in &probes {
                let (m, s) = gp.predict(p);
                let (mo, so) = oracle.predict(p);
                max_drift = max_drift.max((m - mo).abs()).max((s - so).abs());
            }
            assert!(
                max_drift < 1e-6,
                "drift {max_drift:e} after {} cycles exceeds the documented bound",
                cycle + 1
            );
        }
    }
    assert_eq!(gp.len(), WINDOW);
    // The factor survived ~4 800 downdates without a single fallback
    // visible as drift; surface the measured figure when run with
    // --nocapture so DESIGN.md's number can be refreshed.
    println!("max drift over {CYCLES} cycles at window {WINDOW}: {max_drift:e}");
}

/// Shrunk Fig. 9 episode, window small enough that eviction fires every
/// period after warm-up: the downdate agent and the rebuild agent must
/// produce identical traces — same controls, same realized cost `J`,
/// period by period.
#[test]
fn fixed_seed_episode_plans_identically_under_both_strategies() {
    let run = |strategy: EvictStrategy| -> Trace {
        let spec = ProblemSpec::convergence(8.0);
        let mut cfg = EdgeBolConfig::paper(Constraints { d_max: 0.0, rho_min: 0.0 });
        cfg.seed = 0x19 ^ chaos_seed();
        cfg.fit_hyperparams = false;
        cfg.warmup_rounds = 6;
        cfg.candidate_subsample = Some(256);
        cfg.max_observations = Some(40);
        cfg.acquisition = Acquisition::ConstrainedLcb;
        cfg.gp_evict = Some(strategy);
        let agent = EdgeBolAgent::with_config(&spec, cfg);
        let env = FlowTestbed::new(
            Calibration::fast(),
            Scenario::single_user(35.0),
            0x900 ^ chaos_seed(),
        );
        let mut o = Orchestrator::new(Box::new(env), Box::new(agent), spec)
            .expect("episode setup cannot fail");
        o.try_run(120).expect("no chaos configured: the episode cannot abort")
    };
    let downdate = run(EvictStrategy::Downdate);
    let rebuild = run(EvictStrategy::Rebuild);
    assert_eq!(downdate.records.len(), 120);
    assert_eq!(downdate, rebuild, "downdate and rebuild episodes diverged (plan or realized cost)");
}

/// A fresh GP defaults to the downdate, and the explicit builder
/// overrides the default.
#[test]
fn builder_overrides_env_default() {
    let gp = GaussianProcess::new(Kernel::matern32(1.0, vec![0.3]), 1e-4)
        .with_evict_strategy(EvictStrategy::Rebuild);
    assert_eq!(gp.evict_strategy(), EvictStrategy::Rebuild);
    let fresh = GaussianProcess::new(Kernel::matern32(1.0, vec![0.3]), 1e-4);
    assert_eq!(fresh.evict_strategy(), EvictStrategy::Downdate);
}
