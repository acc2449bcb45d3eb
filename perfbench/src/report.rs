//! The metric catalogue and the result line.

use std::fmt::Write as _;

/// A metric the command prints: name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", "lower"),
    m("periods_per_s", "periods/s", "higher"),
    m("period_p50_ms", "ms", "lower"),
    m("period_p95_ms", "ms", "lower"),
    m("cpu_ms_per_period", "ms", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("ok_ratio", "ratio", "higher"),
    m("undegraded_ratio", "ratio", "higher"),
    m("mean_cost", "W", "lower"),
    m("satisfaction", "ratio", "higher"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricSpec] = &[
    m("core.step_ms", "ms", "lower"),
    m("testbed.context_ms", "ms", "lower"),
    m("bandit.select_ms", "ms", "lower"),
    m("testbed.step_ms", "ms", "lower"),
    m("bandit.update_ms", "ms", "lower"),
    m("oran.control_ms", "ms", "lower"),
    m("oran.frames_per_period", "frames/period", "lower"),
    m("oran.bytes_per_period", "B/period", "lower"),
    m("oran.reactor_turns_per_period", "turns/period", "lower"),
    m("oran.faults_injected", "count", "lower"),
    m("oran.resyncs_failed", "count", "lower"),
    m("core.local_autonomy_periods", "count", "lower"),
    m("gp.predict_batch_ms", "ms", "lower"),
    m("linalg.half_solve_mat_ms", "ms", "lower"),
    m("gp.observe_us", "us", "lower"),
    m("bandit.posterior_share", "ratio", "lower"),
    m("fleet.lockstep_periods", "count", "lower"),
    m("fleet.warm_spawns", "count", "higher"),
    m("fleet.admission_retries", "count", "lower"),
    m("fleet.export_ms", "ms", "lower"),
    m("fleet.import_ms", "ms", "lower"),
    m("bench.runner_utilization", "ratio", "higher"),
    m("bench.trace_overhead_pct", "%", "lower"),
];

/// The catalogue a run prints.
pub fn catalogue(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A run's result: the last line of standard output.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (periods, or slices on fleet-warm).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Renders the result line, checking that the values are exactly the
    /// catalogue's metrics, each once and finite.
    ///
    /// # Errors
    /// A message naming the first missing, unknown, duplicated or
    /// non-finite metric.
    pub fn render(&self, catalogue: &[MetricSpec]) -> Result<String, String> {
        for (name, v) in &self.values {
            if !catalogue.iter().any(|s| s.name == *name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, spec) in catalogue.iter().enumerate() {
            let mut hits = self.values.iter().filter(|(n, _)| *n == spec.name);
            let (Some((_, v)), None) = (hits.next(), hits.next()) else {
                return Err(format!("metric {} must be measured exactly once", spec.name));
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Renders `pairs` as a JSON object whose values are already JSON.
pub fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}
