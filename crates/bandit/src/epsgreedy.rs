//! Tabular epsilon-greedy baseline.
//!
//! The classic context-free bandit: per-control running means of a
//! penalized cost (violations charged a large penalty), epsilon-greedy
//! selection with a decaying exploration rate. On a 14 641-point grid it
//! illustrates exactly why the paper needs correlation-aware learning:
//! tabular methods cannot share information across neighbouring controls.

use crate::api::{Constraints, Feedback};
use crate::grid::ControlGrid;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The epsilon-greedy agent.
pub struct EpsGreedy {
    grid: ControlGrid,
    constraints: Constraints,
    /// Running mean penalized cost and visit count per control.
    means: Vec<f64>,
    counts: Vec<u32>,
    /// Violation penalty added to the cost.
    penalty: f64,
    /// Exploration floor.
    eps_min: f64,
    /// Steps so far (drives the epsilon decay).
    t: usize,
    rng: SmallRng,
}

impl EpsGreedy {
    /// Creates the baseline over a grid. `penalty` is the cost surcharge
    /// for a constraint-violating period (comparable to the max cost).
    pub fn new(grid: ControlGrid, constraints: Constraints, penalty: f64, seed: u64) -> Self {
        let n = grid.len();
        EpsGreedy {
            grid,
            constraints,
            means: vec![f64::NAN; n],
            counts: vec![0; n],
            penalty,
            eps_min: 0.05,
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current exploration rate: `max(eps_min, 1 / (1 + t/20))`.
    pub fn epsilon(&self) -> f64 {
        self.eps_min.max(1.0 / (1.0 + self.t as f64 / 20.0))
    }

    /// Chooses a control; the context is ignored (the baseline is
    /// context-free).
    pub fn select(&mut self, _context: &[f64]) -> usize {
        self.t += 1;
        if self.rng.random::<f64>() < self.epsilon() {
            return self.rng.random_range(0..self.grid.len());
        }
        // Exploit: best visited cell; random if nothing visited yet.
        let mut best: Option<(usize, f64)> = None;
        for (i, (&m, &c)) in self.means.iter().zip(&self.counts).enumerate() {
            if c == 0 {
                continue;
            }
            if best.is_none_or(|(_, bv)| m < bv) {
                best = Some((i, m));
            }
        }
        match best {
            Some((i, _)) => i,
            None => self.rng.random_range(0..self.grid.len()),
        }
    }

    /// Folds the period's penalized cost into the control's running mean.
    pub fn update(&mut self, _context: &[f64], control_idx: usize, feedback: &Feedback) {
        let penalized = if self.constraints.satisfied(feedback.delay_s, feedback.map) {
            feedback.cost
        } else {
            feedback.cost + self.penalty
        };
        let c = &mut self.counts[control_idx];
        *c += 1;
        let m = &mut self.means[control_idx];
        if c == &1 {
            *m = penalized;
        } else {
            *m += (penalized - *m) / *c as f64;
        }
    }

    /// A short display name for experiment logs.
    pub fn name(&self) -> &'static str {
        "eps-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraints() -> Constraints {
        Constraints { d_max: 0.5, rho_min: 0.0 }
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut a = EpsGreedy::new(ControlGrid::new(3, 2), constraints(), 100.0, 1);
        assert!(a.epsilon() > 0.9);
        for _ in 0..10_000 {
            let i = a.select(&[]);
            a.update(&[], i, &Feedback { cost: 1.0, delay_s: 0.1, map: 1.0 });
        }
        assert!((a.epsilon() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn learns_best_arm_on_tiny_grid() {
        // 9 arms; arm with coords (0,0) is cheapest and feasible.
        let grid = ControlGrid::new(3, 2);
        let eval = |grid: &ControlGrid, i: usize| {
            let c = grid.coords(i);
            Feedback { cost: 10.0 + 100.0 * (c[0] + c[1]), delay_s: 0.1, map: 1.0 }
        };
        let mut a = EpsGreedy::new(grid.clone(), constraints(), 1000.0, 2);
        for _ in 0..600 {
            let i = a.select(&[]);
            let fb = eval(&grid, i);
            a.update(&[], i, &fb);
        }
        // Greedy pick (epsilon at floor): run selections, count the modal arm.
        let mut counts = vec![0usize; grid.len()];
        for _ in 0..200 {
            let i = a.select(&[]);
            counts[i] += 1;
            let fb = eval(&grid, i);
            a.update(&[], i, &fb);
        }
        let best = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(grid.coords(best), vec![0.0, 0.0], "modal arm should be the cheapest");
    }

    #[test]
    fn violations_are_penalized_away() {
        // Two arms: cheap but violating vs pricier but feasible.
        let grid = ControlGrid::new(2, 1);
        let eval = |i: usize| {
            if i == 0 {
                Feedback { cost: 10.0, delay_s: 2.0, map: 1.0 } // violates
            } else {
                Feedback { cost: 50.0, delay_s: 0.1, map: 1.0 }
            }
        };
        let mut a = EpsGreedy::new(grid, constraints(), 500.0, 3);
        for _ in 0..300 {
            let i = a.select(&[]);
            a.update(&[], i, &eval(i));
        }
        let mut pick_1 = 0;
        for _ in 0..100 {
            let i = a.select(&[]);
            if i == 1 {
                pick_1 += 1;
            }
            a.update(&[], i, &eval(i));
        }
        assert!(pick_1 > 80, "feasible arm picked {pick_1}/100");
    }
}
