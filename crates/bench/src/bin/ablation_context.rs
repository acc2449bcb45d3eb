//! Ablation — aggregated vs per-user context (the §4.4 design choice).
//!
//! EdgeBOL aggregates user channel state into `[n, mean CQI, var CQI]`
//! rather than feeding each user's CQI, trading a little optimality for a
//! fixed, small context dimension. This ablation runs the bandit layer
//! directly on a 3-user scenario twice — once with the aggregated 3-dim
//! context and once with a 7-dim per-user context `[n, cqi_1..cqi_3, …]`
//! padded per §4.4 — and compares convergence and converged cost.

use edgebol_bandit::{Constraints, ControlGrid, EdgeBol, EdgeBolConfig, Feedback};
use edgebol_bench::env::usize_knob;
use edgebol_bench::{f1, f3, Table};
use edgebol_linalg::stats::normal;
use edgebol_ran::cqi_from_snr;
use edgebol_testbed::{Calibration, ControlInput, FlowTestbed, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let reps = usize_knob("EDGEBOL_REPS", 5);
    let periods = usize_knob("EDGEBOL_PERIODS", 200);
    let n_users = 3usize;
    let constraints = Constraints { d_max: 3.0, rho_min: 0.55 };
    let delta2 = 4.0;

    let scenario = Scenario::heterogeneous(n_users);
    let snrs: Vec<f64> = (0..n_users).map(|i| scenario.snr_db(i, 0)).collect();

    let mut table = Table::new(
        "Ablation — aggregated vs per-user context (3 heterogeneous users)",
        &["context", "dims", "tail_cost", "violation_rate", "conv_period"],
    );

    for (label, per_user) in [("aggregated [n, mean, var]", false), ("per-user CQIs", true)] {
        let ctx_dims = if per_user { 1 + n_users } else { 3 };
        // Repetitions are independent: run them on the shared pool, each
        // with its own steady-state probe and noise stream.
        let reps_out = edgebol_bench::parallel_map(reps, |rep| {
            let rep = rep as u64;
            let probe = FlowTestbed::new(Calibration::default(), scenario.clone(), 0);
            let mut rng = SmallRng::seed_from_u64(0xCC0 + rep);
            let mut cfg = EdgeBolConfig::paper(constraints);
            cfg.context_dims = ctx_dims;
            cfg.seed = 0x99 + rep;
            let mut agent = EdgeBol::with_grid(cfg, ControlGrid::paper());
            let grid = ControlGrid::paper();
            let mut costs = Vec::new();
            let mut violations = 0usize;
            for _t in 0..periods {
                // Noisy per-user CQI reports, as the testbed would emit.
                let cqis: Vec<f64> = snrs
                    .iter()
                    .map(|&s| cqi_from_snr(s + normal(&mut rng, 0.0, 1.2)) as f64)
                    .collect();
                let ctx: Vec<f64> = if per_user {
                    let mut v = vec![n_users as f64 / 8.0];
                    v.extend(cqis.iter().map(|c| (c - 1.0) / 14.0));
                    v
                } else {
                    let mean = edgebol_linalg::vecops::mean(&cqis);
                    let var = edgebol_linalg::vecops::variance(&cqis);
                    vec![n_users as f64 / 8.0, (mean - 1.0) / 14.0, (var / 16.0).min(1.0)]
                };
                let idx = agent.select(&ctx);
                let c = grid.coords(idx);
                let control = ControlInput::from_unit(c[0], c[1], c[2], c[3]);
                let ss = probe.steady_state(&snrs, &control);
                let rho = probe.expected_map(control.resolution) + normal(&mut rng, 0.0, 0.02);
                let delay = ss.worst_delay_s() * (1.0 + normal(&mut rng, 0.0, 0.03));
                let cost = ss.server_power_w + delta2 * ss.bs_power_w;
                if !(delay <= constraints.d_max && rho >= constraints.rho_min) {
                    violations += 1;
                }
                costs.push(cost);
                agent.update(&ctx, idx, &Feedback { cost, delay_s: delay, map: rho });
            }
            let tail = edgebol_bench::tail_mean(&costs, 20);
            // Convergence: last time cost left a 10% band around the tail.
            let mut conv = 0;
            for (i, &c) in costs.iter().enumerate() {
                if (c - tail).abs() > tail * 0.10 {
                    conv = i + 1;
                }
            }
            (tail, violations as f64 / periods as f64, conv as f64)
        });
        let mut tails = Vec::new();
        let mut viols = Vec::new();
        let mut convs = Vec::new();
        for (tail, viol, conv) in reps_out {
            tails.push(tail);
            viols.push(viol);
            convs.push(conv);
        }
        table.push_row(vec![
            label.to_string(),
            format!("{ctx_dims}"),
            f1(edgebol_bench::median(&tails)),
            f3(edgebol_bench::median(&viols)),
            f1(edgebol_bench::median(&convs)),
        ]);
    }
    table.print();
    let path = table.write_csv("ablation_context").expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "expected: comparable converged cost (validating §4.4's aggregation), with the\n\
         per-user variant no better despite the larger context"
    );
    edgebol_bench::metrics_report();
}
