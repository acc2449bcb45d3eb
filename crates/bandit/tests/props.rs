//! Property-based tests of the bandit layer.

use edgebol_bandit::{
    Acquisition, Constraints, ControlGrid, EdgeBol, EdgeBolConfig, Feedback, Oracle,
};
use proptest::prelude::*;

proptest! {
    /// Grid index/coordinate round-trips for arbitrary grids.
    #[test]
    fn grid_roundtrip(levels in 2usize..8, dims in 1usize..4, salt in 0usize..1000) {
        let g = ControlGrid::new(levels, dims);
        let idx = salt % g.len();
        let c = g.coords(idx);
        prop_assert_eq!(g.nearest_index(&c), idx);
        prop_assert!(c.iter().all(|v| (0.0..=1.0).contains(v)));
        // Neighbours differ in exactly one coordinate by one level.
        for nb in g.neighbors(idx) {
            let cn = g.coords(nb);
            let diffs: Vec<f64> = c
                .iter()
                .zip(&cn)
                .map(|(a, b)| (a - b).abs())
                .filter(|d| *d > 1e-12)
                .collect();
            prop_assert_eq!(diffs.len(), 1);
            prop_assert!((diffs[0] - 1.0 / (levels - 1) as f64).abs() < 1e-9);
        }
    }

    /// The oracle's answer is feasible and no feasible point beats it.
    #[test]
    fn oracle_is_optimal(levels in 3usize..7, d_max in 0.2f64..0.9) {
        let g = ControlGrid::new(levels, 2);
        let eval = |idx: usize| {
            let c = g.coords(idx);
            let level: f64 = c.iter().sum::<f64>() / 2.0;
            (100.0 + 200.0 * level, 0.9 - 0.8 * level, 1.0)
        };
        let constraints = Constraints { d_max, rho_min: 0.0 };
        let out = Oracle::search(&g, &constraints, eval);
        if out.feasible {
            let (c, d, r) = eval(out.best_idx);
            prop_assert!(constraints.satisfied(d, r));
            prop_assert_eq!(c, out.best_cost);
            for idx in 0..g.len() {
                let (cost, delay, rho) = eval(idx);
                if constraints.satisfied(delay, rho) {
                    prop_assert!(cost >= out.best_cost - 1e-12);
                }
            }
        }
    }

    /// Warm-up selections always come from the high-resource box, for any
    /// seed and grid size.
    #[test]
    fn warmup_stays_in_box(seed in 0u64..200, levels in 4usize..8) {
        let mut cfg = EdgeBolConfig::paper(Constraints { d_max: 1.0, rho_min: 0.0 });
        cfg.seed = seed;
        cfg.fit_hyperparams = false;
        cfg.warmup_rounds = 5;
        let threshold = cfg.s0_threshold;
        let mut agent = EdgeBol::with_grid(cfg, ControlGrid::new(levels, 3));
        let ctx = [0.5, 0.5, 0.5];
        for _ in 0..5 {
            let idx = agent.select(&ctx);
            let c = agent.grid().coords(idx);
            prop_assert!(c.iter().all(|&v| v >= threshold - 1e-9), "{c:?}");
            agent.update(&ctx, idx, &Feedback { cost: 1.0, delay_s: 0.1, map: 1.0 });
        }
        prop_assert!(!agent.in_warmup());
    }

    /// After warm-up every selection is a valid grid index regardless of
    /// acquisition rule, and updates never panic.
    #[test]
    fn selections_always_valid(
        seed in 0u64..100,
        acq_pick in 0usize..4,
        cost_scale in 1.0f64..500.0,
    ) {
        let acq = [
            Acquisition::ConstrainedLcb,
            Acquisition::MaxUncertainty,
            Acquisition::UnconstrainedLcb,
            Acquisition::ThompsonSampling,
        ][acq_pick];
        let mut cfg = EdgeBolConfig::paper(Constraints { d_max: 0.5, rho_min: 0.0 });
        cfg.seed = seed;
        cfg.acquisition = acq;
        cfg.fit_hyperparams = false;
        cfg.warmup_rounds = 4;
        cfg.candidate_subsample = Some(64);
        let grid = ControlGrid::new(5, 3);
        let mut agent = EdgeBol::with_grid(cfg, grid.clone());
        let ctx = [0.2, 0.8, 0.0];
        for t in 0..15 {
            let idx = agent.select(&ctx);
            prop_assert!(idx < grid.len());
            let level: f64 = grid.coords(idx).iter().sum::<f64>() / 3.0;
            agent.update(
                &ctx,
                idx,
                &Feedback {
                    cost: cost_scale * (1.0 + level),
                    delay_s: 0.9 - 0.8 * level,
                    map: 1.0,
                },
            );
            prop_assert_eq!(agent.updates(), t + 1);
        }
    }
}
