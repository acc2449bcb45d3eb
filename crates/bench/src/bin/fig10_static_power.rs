//! Fig. 10 — converged power consumption and normalized cost vs δ2, for
//! three constraint settings, with the exhaustive-search oracle as the
//! dashed reference.
//!
//! Constraint settings as in §6.3: lax (0.5 s, 0.4), medium (0.4 s, 0.5),
//! stringent (0.3 s, 0.6). The oracle scans the full 11^4 grid on the
//! noiseless flow model (the "time-consuming exhaustive search" of the
//! paper). The normalized cost divides by the cost of the max-resources
//! control for the same δ2, so values are comparable across δ2.

use edgebol_bandit::{Constraints, ControlGrid, Oracle};
use edgebol_bench::env::usize_knob;
use edgebol_bench::{f3, run_reps, Table};
use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::problem::ProblemSpec;
use edgebol_testbed::{Calibration, ControlInput, FlowTestbed, Scenario};

fn main() {
    let reps = usize_knob("EDGEBOL_REPS", 3);
    let periods = usize_knob("EDGEBOL_PERIODS", 150);
    let deltas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let settings = [(0.5, 0.4, "lax"), (0.4, 0.5, "medium"), (0.3, 0.6, "stringent")];

    let grid = ControlGrid::paper();
    let probe = FlowTestbed::new(Calibration::default(), Scenario::single_user(35.0), 0);
    // Cache the noiseless per-control KPIs once; costs differ per delta2
    // but powers/delay/mAP do not.
    let mut kpis: Vec<(f64, f64, f64, f64)> = Vec::with_capacity(grid.len()); // (ps, pb, d, rho)
    let mut map_cache = std::collections::HashMap::new();
    for idx in 0..grid.len() {
        let c = grid.coords(idx);
        let control = ControlInput::from_unit(c[0], c[1], c[2], c[3]);
        let ss = probe.steady_state(&[35.0], &control);
        let key = (control.resolution * 1000.0).round() as i64;
        let rho = *map_cache.entry(key).or_insert_with(|| probe.expected_map(control.resolution));
        kpis.push((ss.server_power_w, ss.bs_power_w, ss.worst_delay_s(), rho));
    }

    let mut table = Table::new(
        "Fig. 10 — converged powers & normalized cost vs delta2 (EdgeBOL vs oracle)",
        &[
            "setting",
            "delta2",
            "bs_power_w",
            "server_power_w",
            "norm_cost",
            "oracle_norm_cost",
            "gap_pct",
        ],
    );

    for (d_max, rho_min, label) in settings {
        for &d2 in &deltas {
            let spec = ProblemSpec::new(1.0, d2, d_max, rho_min);
            let traces = run_reps(
                reps,
                periods,
                spec,
                |seed| {
                    Box::new(FlowTestbed::new(
                        Calibration::fast(),
                        Scenario::single_user(35.0),
                        0xA00 + seed,
                    ))
                },
                |seed| Box::new(EdgeBolAgent::paper(&spec, 0x33 + seed)),
            );
            let tail = |f: &dyn Fn(&edgebol_core::trace::Trace) -> Vec<f64>| -> f64 {
                let v: Vec<f64> =
                    traces.iter().map(|t| edgebol_bench::tail_mean(&f(t), 20)).collect();
                edgebol_bench::median(&v)
            };
            let bs = tail(&|t| t.bs_powers());
            let srv = tail(&|t| t.server_powers());
            let cost = tail(&|t| t.costs());

            // Oracle on the cached noiseless grid.
            let constraints = Constraints { d_max, rho_min };
            let oracle = Oracle::search(&grid, &constraints, |idx| {
                let (ps, pb, d, rho) = kpis[idx];
                (ps + d2 * pb, d, rho)
            });
            // Normalization: the max-resources cost for this delta2.
            let (ps0, pb0, _, _) = kpis[grid.max_corner()];
            let max_cost = ps0 + d2 * pb0;
            let oracle_norm = if oracle.feasible { oracle.best_cost / max_cost } else { 1.0 };
            let gap = if oracle.feasible {
                (cost / max_cost - oracle_norm) / oracle_norm * 100.0
            } else {
                f64::NAN
            };
            table.push_row(vec![
                label.to_string(),
                format!("{d2}"),
                f3(bs),
                f3(srv),
                f3(cost / max_cost),
                f3(oracle_norm),
                f3(gap),
            ]);
        }
    }
    table.print();
    let path = table.write_csv("fig10_static_power").expect("write csv");
    println!("wrote {}", path.display());
    edgebol_bench::metrics_report();
}
