//! Fig. 9 — convergence of EdgeBOL under a static context.
//!
//! Setup exactly as §6.2: single user at 35 dB (good wireless), δ1 = 1,
//! d_max = 0.4 s, ρ_min = 0.5, δ2 swept over {1, 2, 4, 8, 16, 32, 64};
//! median over repetitions. The paper's headline: the cost converges
//! within ≈25 periods for every δ2, and both KPIs fall within the
//! constraints upon convergence with high probability.

use edgebol_bench::env::usize_knob;
use edgebol_bench::{f1, f3, run_reps, Table};
use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::percentile_band;
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

fn main() {
    let reps = usize_knob("EDGEBOL_REPS", 10);
    let periods = usize_knob("EDGEBOL_PERIODS", 150);
    let deltas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

    let mut summary = Table::new(
        "Fig. 9 — EdgeBOL convergence per delta2 (median over reps)",
        &[
            "delta2",
            "conv_period",
            "tail_cost",
            "tail_delay_s",
            "tail_mAP",
            "tail_bs_w",
            "tail_srv_w",
            "satisfaction",
        ],
    );
    let mut series = Table::new(
        "Fig. 9 — cost series (median, p10, p90)",
        &["delta2", "t", "cost_med", "cost_p10", "cost_p90", "delay_med", "map_med"],
    );

    for &d2 in &deltas {
        let spec = ProblemSpec::convergence(d2);
        let traces = run_reps(
            reps,
            periods,
            spec,
            |seed| {
                Box::new(FlowTestbed::new(
                    Calibration::fast(),
                    Scenario::single_user(35.0),
                    0x900 + seed,
                ))
            },
            |seed| Box::new(EdgeBolAgent::paper(&spec, 0x19 + seed)),
        );

        let costs: Vec<Vec<f64>> = traces.iter().map(|t| t.costs()).collect();
        let delays: Vec<Vec<f64>> = traces.iter().map(|t| t.delays()).collect();
        let maps: Vec<Vec<f64>> = traces.iter().map(|t| t.maps()).collect();
        let (cost_med, cost_lo, cost_hi) = percentile_band(&costs, 0.1, 0.9);
        let (delay_med, _, _) = percentile_band(&delays, 0.1, 0.9);
        let (map_med, _, _) = percentile_band(&maps, 0.1, 0.9);

        for t in (0..periods).step_by(5) {
            series.push_row(vec![
                f1(d2),
                format!("{t}"),
                f1(cost_med[t]),
                f1(cost_lo[t]),
                f1(cost_hi[t]),
                f3(delay_med[t]),
                f3(map_med[t]),
            ]);
        }

        let conv: Vec<f64> =
            traces.iter().filter_map(|t| t.convergence_period(0.10).map(|c| c as f64)).collect();
        let tail = |f: fn(&edgebol_core::trace::Trace) -> Vec<f64>| -> f64 {
            let v: Vec<f64> = traces.iter().map(|t| edgebol_bench::tail_mean(&f(t), 20)).collect();
            edgebol_bench::median(&v)
        };
        let sat: Vec<f64> = traces.iter().map(|t| t.satisfaction_rate(30)).collect();
        summary.push_row(vec![
            f1(d2),
            f1(edgebol_bench::median(&conv)),
            f1(tail(|t| t.costs())),
            f3(tail(|t| t.delays())),
            f3(tail(|t| t.maps())),
            f3(tail(|t| t.bs_powers())),
            f1(tail(|t| t.server_powers())),
            f3(edgebol_bench::median(&sat)),
        ]);
    }

    summary.print();
    summary.write_csv("fig09_convergence_summary").expect("write csv");
    let path = series.write_csv("fig09_convergence_series").expect("write csv");
    println!("wrote {}", path.display());
    edgebol_bench::metrics_report();
}
