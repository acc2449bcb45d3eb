//! Fleet scaling bench: N slices x M cells with GP warm-start transfer.
//!
//! Sweeps fleet sizes (`EDGEBOL_FLEET_SLICES`, default half-decade steps
//! 10 → 1000) and, per size, runs a warm arm (late slices seed their GP
//! from the nearest running donor) and a cold arm (every slice learns
//! from scratch) under identical admission dynamics, so the difference
//! in late-wave convergence is attributable to transfer alone. All
//! numbers on stdout and in `results/fleet.csv` are byte-stable at a
//! fixed seed across thread counts; throughput goes to stderr only.
//!
//! Knobs: `EDGEBOL_FLEET_SLICES`, `EDGEBOL_FLEET_PERIODS`,
//! `EDGEBOL_FLEET_CELLS`, `EDGEBOL_FLEET_GPU_CAPACITY`,
//! `EDGEBOL_FLEET_MODE`, plus the process-wide `EDGEBOL_THREADS`,
//! `EDGEBOL_METRICS`, `EDGEBOL_OPS`, `EDGEBOL_FLIGHT_DIR` (see
//! OPERATIONS.md).

use edgebol_bench::{env, f3, journal, journal_wanted, metrics, Table};
use edgebol_fleet::{Fleet, FleetConfig};
use std::time::Instant;

/// The sweep's configuration for `slices` slices: like
/// [`FleetConfig::quick`] but with the cell count, slice lifetime and
/// GPU capacity taken from the `EDGEBOL_FLEET_*` knobs and the late wave
/// at period 16.
fn bench_config(slices: usize, warm_start: bool) -> FleetConfig {
    FleetConfig {
        cells: env::fleet_cells(),
        periods: env::fleet_periods(),
        stagger: 16,
        gpu_capacity: env::fleet_gpu_capacity(),
        warm_start,
        threads: env::threads(),
        flight_dir: env::flight_dir(),
        ..FleetConfig::quick(slices)
    }
}

fn main() {
    let sizes = env::fleet_slices();
    let mode = env::fleet_mode();
    let mut table = Table::new(
        "Fleet scaling — GP warm-start transfer vs cold start",
        &[
            "slices",
            "arm",
            "lockstep_periods",
            "slice_periods",
            "aggregate_j",
            "mean_cost",
            "satisfaction",
            "late_conv_median",
            "warm",
            "rejected",
            "out_of_range",
        ],
    );

    for &n in &sizes {
        for (arm, warm) in [("warm", true), ("cold", false)] {
            if (warm && !mode.runs_warm()) || (!warm && !mode.runs_cold()) {
                continue;
            }
            let mut fleet = Fleet::new(bench_config(n, warm)).with_metrics(metrics().clone());
            if journal_wanted() {
                fleet = fleet.with_journal(journal().clone());
            }
            let t0 = Instant::now();
            let report = fleet.run();
            let wall = t0.elapsed().as_secs_f64().max(1e-9);
            // Throughput is wall-clock-dependent: stderr only, so the
            // stdout/CSV artifact stays byte-stable.
            eprintln!(
                "[fleet] n={n} arm={arm}: {} slice-periods over {} lockstep periods \
                 in {wall:.2}s ({:.0} slice-periods/s)",
                report.slice_periods,
                report.total_periods,
                report.slice_periods as f64 / wall,
            );
            let conv = report
                .median_late_convergence()
                .map(|c| format!("{c:.1}"))
                .unwrap_or_else(|| "n/a".into());
            table.push_row(vec![
                n.to_string(),
                arm.to_string(),
                report.total_periods.to_string(),
                report.slice_periods.to_string(),
                f3(report.aggregate_j),
                f3(report.mean_cost()),
                format!("{:.4}", report.mean_satisfaction()),
                conv,
                report.warm_spawns.to_string(),
                report.admission_rejected.to_string(),
                report.transfer_out_of_range.to_string(),
            ]);
        }
    }

    table.print();
    let path = table.write_csv("fleet").expect("write csv");
    eprintln!("[fleet] wrote {}", path.display());
    edgebol_bench::metrics_report();
}
