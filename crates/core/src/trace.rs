//! Per-period experiment records and summaries.

use edgebol_testbed::{ContextObs, ControlInput, PeriodObservation};

/// Everything recorded about one orchestration period.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// Period index `t`.
    pub t: usize,
    /// The observed context.
    pub context: ContextObs,
    /// The control applied.
    pub control: ControlInput,
    /// The KPIs observed at the end of the period.
    pub obs: PeriodObservation,
    /// The realized cost `u_t` (eq. 1) under the spec in force.
    pub cost: f64,
    /// Whether eq. (2) was satisfied this period.
    pub satisfied: bool,
    /// Safe-set size estimate, when the agent exposes one (Fig. 13).
    pub safe_set_size: Option<usize>,
}

/// A full experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The per-period records in order.
    pub records: Vec<PeriodRecord>,
}

impl Trace {
    /// Number of periods.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no periods have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The cost series `u_t`.
    pub fn costs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.cost).collect()
    }

    /// The delay series `d_t`.
    pub fn delays(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.obs.delay_s).collect()
    }

    /// The precision series `rho_t`.
    pub fn maps(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.obs.map).collect()
    }

    /// The BS power series `p^b_t`.
    pub fn bs_powers(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.obs.bs_power_w).collect()
    }

    /// The server power series `p^s_t`.
    pub fn server_powers(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.obs.server_power_w).collect()
    }

    /// Mean cost over the last `k` periods (converged cost).
    pub fn tail_mean_cost(&self, k: usize) -> f64 {
        let n = self.records.len();
        let k = k.min(n).max(1);
        self.records[n - k..].iter().map(|r| r.cost).sum::<f64>() / k as f64
    }

    /// Mean control over the last `k` periods, as unit coordinates
    /// `[eta, a, gamma, m]` (Fig. 11's converged policies).
    pub fn tail_mean_control(&self, k: usize) -> [f64; 4] {
        let n = self.records.len();
        let k = k.min(n).max(1);
        let mut acc = [0.0; 4];
        for r in &self.records[n - k..] {
            let u = r.control.to_unit();
            for (a, v) in acc.iter_mut().zip(u) {
                *a += v / k as f64;
            }
        }
        acc
    }

    /// Fraction of periods satisfying the constraints, skipping the first
    /// `skip` (warm-up) periods.
    pub fn satisfaction_rate(&self, skip: usize) -> f64 {
        let slice = &self.records[skip.min(self.records.len())..];
        if slice.is_empty() {
            return 1.0;
        }
        slice.iter().filter(|r| r.satisfied).count() as f64 / slice.len() as f64
    }

    /// First period index after which the cost stays within `tol`
    /// (relative) of the tail mean — a simple convergence-time estimate.
    pub fn convergence_period(&self, tol: f64) -> Option<usize> {
        if self.records.len() < 10 {
            return None;
        }
        let target = self.tail_mean_cost(10);
        let band = target.abs() * tol;
        // Walk backwards: the convergence point is the last time the cost
        // left the band.
        let mut conv = 0;
        for (i, r) in self.records.iter().enumerate() {
            if (r.cost - target).abs() > band {
                conv = i + 1;
            }
        }
        Some(conv)
    }
}

/// Pointwise median and percentile band over repetitions of a series —
/// how the paper plots its shaded figures ("median value and the 10th and
/// 90th percentiles, across 10 independent repetitions").
pub fn percentile_band(
    series: &[Vec<f64>],
    q_lo: f64,
    q_hi: f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    assert!(!series.is_empty(), "need at least one repetition");
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut med = Vec::with_capacity(len);
    let mut lo = Vec::with_capacity(len);
    let mut hi = Vec::with_capacity(len);
    for t in 0..len {
        let column: Vec<f64> = series.iter().map(|s| s[t]).collect();
        med.push(edgebol_linalg::stats::percentile(&column, 0.5));
        lo.push(edgebol_linalg::stats::percentile(&column, q_lo));
        hi.push(edgebol_linalg::stats::percentile(&column, q_hi));
    }
    (med, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebol_testbed::ControlInput;

    fn record(t: usize, cost: f64, satisfied: bool) -> PeriodRecord {
        PeriodRecord {
            t,
            context: ContextObs { num_users: 1, mean_cqi: 12.0, var_cqi: 0.1 },
            control: ControlInput::max_resources(),
            obs: PeriodObservation {
                delay_s: 0.3,
                gpu_delay_s: 0.1,
                map: 0.6,
                server_power_w: cost,
                bs_power_w: 0.0,
            },
            cost,
            satisfied,
            safe_set_size: None,
        }
    }

    fn trace(costs: &[f64]) -> Trace {
        Trace { records: costs.iter().enumerate().map(|(t, &c)| record(t, c, true)).collect() }
    }

    #[test]
    fn series_extraction() {
        let tr = trace(&[3.0, 2.0, 1.0]);
        assert_eq!(tr.costs(), vec![3.0, 2.0, 1.0]);
        assert_eq!(tr.len(), 3);
        assert!((tr.tail_mean_cost(2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn satisfaction_rate_with_skip() {
        let mut tr = trace(&[1.0; 10]);
        for r in tr.records.iter_mut().take(5) {
            r.satisfied = false;
        }
        assert!((tr.satisfaction_rate(0) - 0.5).abs() < 1e-12);
        assert!((tr.satisfaction_rate(5) - 1.0).abs() < 1e-12);
        assert_eq!(trace(&[]).satisfaction_rate(0), 1.0);
    }

    #[test]
    fn convergence_period_detects_settling() {
        // Costs: noisy high for 20 periods, then settled at 10.
        let mut costs = vec![100.0; 20];
        costs.extend(vec![10.0; 30]);
        let tr = trace(&costs);
        let conv = tr.convergence_period(0.05).unwrap();
        assert_eq!(conv, 20);
    }

    #[test]
    fn percentile_band_pointwise() {
        let series = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let (med, lo, hi) = percentile_band(&series, 0.0, 1.0);
        assert_eq!(med, vec![2.0, 20.0]);
        assert_eq!(lo, vec![1.0, 10.0]);
        assert_eq!(hi, vec![3.0, 30.0]);
    }

    #[test]
    fn tail_mean_control_averages_units() {
        let tr = trace(&[1.0, 1.0]);
        let u = tr.tail_mean_control(2);
        assert_eq!(u, [1.0, 1.0, 1.0, 1.0]);
    }
}
