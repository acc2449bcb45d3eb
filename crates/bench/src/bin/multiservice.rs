//! §4.4 extension — joint vs per-slice orchestration of two AI services.
//!
//! The paper sketches extending EdgeBOL to `S` concurrent services
//! (context/action dimensionality `4S + 3`, `2S + 2` constraints) and
//! predicts it "becomes intractable in real-life large-scale deployments",
//! recommending pre-partitioned per-service slices. This bin tests that
//! argument on the coupled two-service testbed
//! (`edgebol_testbed::multiservice`):
//!
//! * **joint** — one EdgeBOL over the 8-dim joint control space (a coarse
//!   4-level grid, 65 536 points, candidate-subsampled) with all four
//!   service constraints in one safe set (each service's delay and mAP
//!   folded into worst-case aggregates);
//! * **per-slice** — two independent EdgeBOLs on the paper's 11-level
//!   4-dim grid, each with a pre-partitioned half of the airtime budget
//!   and its own constraints, sharing the GPU implicitly through the
//!   environment.
//!
//! Measured outcome (see results/multiservice.txt): the *tractable* joint
//! agent — which must coarsen its grid to 4 levels/dim, since 11^8 ≈ 214M
//! points is unsearchable — converges fast but to a resolution-limited
//! optimum; the per-slice agents keep the full 11-level grids and find a
//! ~6% cheaper configuration, paying with slower co-adaptation. Either
//! way the full-resolution joint problem is intractable, which is §4.4's
//! point.

use edgebol_bandit::{Constraints, ControlGrid, EdgeBol, EdgeBolConfig, Feedback};
use edgebol_bench::env::usize_knob;
use edgebol_bench::{f1, f3, Table};
use edgebol_testbed::{Calibration, ControlInput, MultiServiceTestbed, ServiceCfg};

/// Shared experiment constants.
const DELTA2: f64 = 8.0;
const D_MAX: f64 = 0.6;
const RHO_MIN: f64 = 0.45;

fn services() -> Vec<ServiceCfg> {
    vec![ServiceCfg { snr_db: 35.0 }, ServiceCfg { snr_db: 25.0 }]
}

fn cost_of(obs: &[edgebol_testbed::PeriodObservation]) -> f64 {
    // Powers are shared quantities (identical in every observation).
    obs[0].server_power_w + DELTA2 * obs[0].bs_power_w
}

fn violated(obs: &[edgebol_testbed::PeriodObservation]) -> bool {
    obs.iter().any(|o| o.delay_s > D_MAX || o.map < RHO_MIN)
}

/// Joint agent: 8 control dims on a 4-level grid.
fn run_joint(periods: usize, seed: u64) -> (Vec<f64>, usize) {
    let mut env = MultiServiceTestbed::new(Calibration::fast(), services(), seed);
    let grid = ControlGrid::new(4, 8);
    let mut cfg = EdgeBolConfig::paper(Constraints { d_max: D_MAX, rho_min: RHO_MIN });
    cfg.context_dims = 1; // static scenario: a constant placeholder context
    cfg.s0_threshold = 0.6; // 4-level grid: box = the top-2 levels corner
    cfg.warmup_rounds = 16;
    cfg.candidate_subsample = Some(2048);
    cfg.seed = seed;
    let mut agent = EdgeBol::with_grid(cfg, grid.clone());
    let ctx = [0.5];
    let mut costs = Vec::with_capacity(periods);
    let mut violations = 0usize;
    for _ in 0..periods {
        let idx = agent.select(&ctx);
        let u = grid.coords(idx);
        let controls = [
            ControlInput::from_unit(u[0], u[1], u[2], u[3]),
            ControlInput::from_unit(u[4], u[5], u[6], u[7]),
        ];
        let obs = env.step(&controls);
        let cost = cost_of(&obs);
        // Worst-case aggregation folds the 2S constraints into two.
        let worst_delay = obs.iter().map(|o| o.delay_s).fold(0.0, f64::max);
        let worst_map = obs.iter().map(|o| o.map).fold(1.0, f64::min);
        violations += usize::from(violated(&obs));
        costs.push(cost);
        agent.update(&ctx, idx, &Feedback { cost, delay_s: worst_delay, map: worst_map });
    }
    (costs, violations)
}

/// Per-slice agents: each owns half the airtime budget and its own KPIs.
fn run_per_slice(periods: usize, seed: u64) -> (Vec<f64>, usize) {
    let mut env = MultiServiceTestbed::new(Calibration::fast(), services(), seed);
    let grid = ControlGrid::paper();
    let mk = |s: u64| {
        let mut cfg = EdgeBolConfig::paper(Constraints { d_max: D_MAX, rho_min: RHO_MIN });
        cfg.context_dims = 1;
        cfg.seed = s;
        EdgeBol::with_grid(cfg, ControlGrid::paper())
    };
    let mut agents = [mk(seed ^ 1), mk(seed ^ 2)];
    let ctx = [0.5];
    let mut costs = Vec::with_capacity(periods);
    let mut violations = 0usize;
    for _ in 0..periods {
        let picks = [agents[0].select(&ctx), agents[1].select(&ctx)];
        let controls: Vec<ControlInput> = picks
            .iter()
            .map(|&idx| {
                let u = grid.coords(idx);
                let mut c = ControlInput::from_unit(u[0], u[1], u[2], u[3]);
                // Pre-partitioned slice: half of the carrier each.
                c.airtime *= 0.5;
                c
            })
            .collect();
        let obs = env.step(&controls);
        let cost = cost_of(&obs);
        violations += usize::from(violated(&obs));
        costs.push(cost);
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.update(
                &ctx,
                picks[i],
                &Feedback { cost, delay_s: obs[i].delay_s, map: obs[i].map },
            );
        }
    }
    (costs, violations)
}

fn main() {
    let periods = usize_knob("EDGEBOL_PERIODS", 250);
    let reps = usize_knob("EDGEBOL_REPS", 3);

    let mut table = Table::new(
        "Multi-service (S = 2): joint 8-dim EdgeBOL vs per-slice decomposition",
        &["approach", "tail_cost", "violation_rate", "conv_period"],
    );
    for (label, runner) in [
        ("joint (4^8 grid)", run_joint as fn(usize, u64) -> (Vec<f64>, usize)),
        ("per-slice (2 x 11^4)", run_per_slice),
    ] {
        let mut tails = Vec::new();
        let mut viols = Vec::new();
        let mut convs = Vec::new();
        // Repetitions are independent: run them on the shared pool.
        let reps_out =
            edgebol_bench::parallel_map(reps, |rep| runner(periods, 0x2511 + rep as u64));
        for (costs, violations) in reps_out {
            let tail = edgebol_bench::tail_mean(&costs, 20);
            tails.push(tail);
            viols.push(violations as f64 / periods as f64);
            let mut conv = 0;
            for (i, &c) in costs.iter().enumerate() {
                if (c - tail).abs() > tail * 0.10 {
                    conv = i + 1;
                }
            }
            convs.push(conv as f64);
        }
        table.push_row(vec![
            label.to_string(),
            f1(edgebol_bench::median(&tails)),
            f3(edgebol_bench::median(&viols)),
            f1(edgebol_bench::median(&convs)),
        ]);
    }
    table.print();
    let path = table.write_csv("multiservice").expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "the §4.4 trade, concretely: a *tractable* joint agent must coarsen its grid\n\
         (11^8 would be 214M points), so it converges quickly but to a\n\
         resolution-limited optimum; per-slice agents keep the full 11-level grids\n\
         and find a finer (cheaper) configuration, paying with slower co-adaptation\n\
         through the shared GPU and airtime budget."
    );
    edgebol_bench::metrics_report();
}
