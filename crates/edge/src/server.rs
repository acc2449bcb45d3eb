//! FIFO inference queue and server power model.

use crate::gpu::{GpuModel, GpuSpeedPolicy};

/// A work-conserving FIFO queue in front of the GPU.
///
/// The queue tracks virtual time: `submit` returns the completion instant
/// of each job given arrival time and the current speed policy, and
/// accumulates GPU busy-time so a period's utilization (and hence power)
/// can be read out. This is the server-side half of the discrete-event
/// testbed.
#[derive(Debug, Clone)]
pub struct InferenceQueue {
    gpu: GpuModel,
    policy: GpuSpeedPolicy,
    /// Instant until which the GPU is busy.
    busy_until_s: f64,
    /// Accumulated busy seconds since the last reset.
    busy_acc_s: f64,
    /// Jobs completed since the last reset.
    completed: u64,
}

impl InferenceQueue {
    /// Creates an idle queue under the given model and policy.
    pub fn new(gpu: GpuModel, policy: GpuSpeedPolicy) -> Self {
        InferenceQueue { gpu, policy, busy_until_s: 0.0, busy_acc_s: 0.0, completed: 0 }
    }

    /// Updates the GPU speed policy (the driver reconfiguration point).
    /// Takes effect for subsequently submitted jobs.
    pub fn set_policy(&mut self, policy: GpuSpeedPolicy) {
        self.policy = policy;
    }

    /// Current speed policy.
    pub fn policy(&self) -> GpuSpeedPolicy {
        self.policy
    }

    /// Submits an inference job arriving at `t_arrival` (s) for a frame of
    /// resolution `res`; returns `(start, completion)` instants.
    ///
    /// # Panics
    /// Panics if `t_arrival` is negative or not finite.
    pub fn submit(&mut self, t_arrival_s: f64, res: f64) -> (f64, f64) {
        assert!(t_arrival_s >= 0.0 && t_arrival_s.is_finite(), "bad arrival time");
        let start = t_arrival_s.max(self.busy_until_s);
        let dur = self.gpu.inference_time_s(res, self.policy);
        self.busy_until_s = start + dur;
        self.busy_acc_s += dur;
        self.completed += 1;
        (start, self.busy_until_s)
    }

    /// GPU busy seconds accumulated since the last reset.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_acc_s
    }

    /// Jobs completed since the last reset.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Utilization over an observation window of `window_s` seconds.
    ///
    /// # Panics
    /// Panics if `window_s <= 0`.
    pub fn utilization(&self, window_s: f64) -> f64 {
        assert!(window_s > 0.0, "window must be positive");
        (self.busy_acc_s / window_s).min(1.0)
    }

    /// Clears the per-period accounting (busy time, completion count) but
    /// keeps the queue state (busy-until instant).
    pub fn reset_accounting(&mut self) {
        self.busy_acc_s = 0.0;
        self.completed = 0;
    }
}

/// Server power model (Performance Indicator 3).
///
/// `P = idle + utilization * (draw_fraction * limit(gamma) - gpu_idle)`:
/// an idle platform floor (CPU package, fans, idle GPU) plus the active
/// GPU draw, which when busy sits at a fixed fraction of the configured
/// power limit (power-limited GPUs run pinned at their cap under load).
#[derive(Debug, Clone)]
pub struct ServerPowerModel {
    /// Idle server power (W): platform + idle GPU.
    pub idle_w: f64,
    /// Fraction of the driver power limit actually drawn when busy.
    pub busy_draw_fraction: f64,
    /// Idle GPU draw already included in `idle_w` (subtracted from the
    /// active term so the busy delta is incremental).
    pub gpu_idle_w: f64,
}

impl Default for ServerPowerModel {
    fn default() -> Self {
        // Calibrated to the 75–180 W span of Figs. 2–4.
        ServerPowerModel { idle_w: 70.0, busy_draw_fraction: 0.72, gpu_idle_w: 15.0 }
    }
}

impl ServerPowerModel {
    /// Mean server power (W) over a window with the given GPU utilization
    /// and speed policy.
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn power_w(&self, utilization: f64, policy: GpuSpeedPolicy) -> f64 {
        assert!((0.0..=1.0).contains(&utilization), "utilization must be in [0,1]");
        let active = (self.busy_draw_fraction * policy.power_limit_w() - self.gpu_idle_w).max(0.0);
        self.idle_w + utilization * active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> InferenceQueue {
        InferenceQueue::new(GpuModel::default(), GpuSpeedPolicy(1.0))
    }

    #[test]
    fn idle_gpu_starts_immediately() {
        let mut q = queue();
        let (start, done) = q.submit(5.0, 1.0);
        assert_eq!(start, 5.0);
        assert!((done - 5.095).abs() < 1e-9);
        assert_eq!(q.completed(), 1);
    }

    #[test]
    fn back_to_back_jobs_queue_fifo() {
        let mut q = queue();
        let (_, d1) = q.submit(0.0, 1.0);
        let (s2, d2) = q.submit(0.0, 1.0);
        assert_eq!(s2, d1, "second job starts when first completes");
        assert!(d2 > d1);
    }

    #[test]
    fn idle_gaps_do_not_accrue_busy_time() {
        let mut q = queue();
        q.submit(0.0, 1.0);
        q.submit(10.0, 1.0);
        assert!((q.busy_seconds() - 0.190).abs() < 1e-9);
        assert!((q.utilization(20.0) - 0.0095).abs() < 1e-9);
    }

    #[test]
    fn slower_policy_extends_completion() {
        let mut fast = queue();
        let mut slow = InferenceQueue::new(GpuModel::default(), GpuSpeedPolicy(0.0));
        let (_, df) = fast.submit(0.0, 1.0);
        let (_, ds) = slow.submit(0.0, 1.0);
        assert!(ds > df * 1.8);
    }

    #[test]
    fn policy_change_affects_new_jobs_only() {
        let mut q = queue();
        let (_, d1) = q.submit(0.0, 1.0);
        q.set_policy(GpuSpeedPolicy(0.0));
        let (_, d2) = q.submit(0.0, 1.0);
        assert!((d1 - 0.095).abs() < 1e-9);
        assert!(d2 - d1 > 0.15, "second job runs at min speed");
    }

    #[test]
    fn reset_accounting_keeps_queue_state() {
        let mut q = queue();
        q.submit(0.0, 1.0);
        q.reset_accounting();
        assert_eq!(q.busy_seconds(), 0.0);
        assert_eq!(q.completed(), 0);
        // Queue is still busy until 0.095: next job starts there.
        let (s, _) = q.submit(0.0, 1.0);
        assert!((s - 0.095).abs() < 1e-9);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut q = queue();
        for _ in 0..100 {
            q.submit(0.0, 1.0);
        }
        assert_eq!(q.utilization(1.0), 1.0);
    }

    #[test]
    fn power_model_calibration() {
        let p = ServerPowerModel::default();
        // Idle floor ~70 W.
        assert_eq!(p.power_w(0.0, GpuSpeedPolicy(1.0)), 70.0);
        // Busy at full limit: ~70 + (0.72*280 - 15) = ~256 W peak,
        // but at the utilizations the closed loop reaches (~0.6) it lands
        // in the paper's 170–180 W band.
        let at_06 = p.power_w(0.6, GpuSpeedPolicy(1.0));
        assert!((165.0..190.0).contains(&at_06), "{at_06}");
    }

    #[test]
    fn power_monotone_in_utilization_and_policy() {
        let p = ServerPowerModel::default();
        assert!(p.power_w(0.5, GpuSpeedPolicy(1.0)) > p.power_w(0.2, GpuSpeedPolicy(1.0)));
        assert!(p.power_w(0.5, GpuSpeedPolicy(1.0)) > p.power_w(0.5, GpuSpeedPolicy(0.0)));
    }

    #[test]
    #[should_panic(expected = "utilization must be in [0,1]")]
    fn power_rejects_bad_utilization() {
        let _ = ServerPowerModel::default().power_w(1.2, GpuSpeedPolicy(0.5));
    }
}
