//! GPU speed policy (Policy 3) and inference-time model.

/// Lowest configurable GPU power-management limit (W) — the RTX 2080 Ti
/// driver range the paper uses is 100–280 W.
pub const GPU_LIMIT_MIN_W: f64 = 100.0;
/// Highest configurable GPU power-management limit (W).
pub const GPU_LIMIT_MAX_W: f64 = 280.0;

/// Policy 3: the GPU-speed knob as a fraction in [0, 1] of the power-limit
/// range (0 → 100 W limit, 1 → 280 W limit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpeedPolicy(pub f64);

impl GpuSpeedPolicy {
    /// Creates a policy, clamping into [0, 1].
    pub fn clamped(fraction: f64) -> Self {
        GpuSpeedPolicy(fraction.clamp(0.0, 1.0))
    }

    /// The configured driver power limit in watts.
    pub fn power_limit_w(self) -> f64 {
        GPU_LIMIT_MIN_W + (GPU_LIMIT_MAX_W - GPU_LIMIT_MIN_W) * self.0
    }
}

/// Inference-latency model of the detector on the policy-limited GPU.
#[derive(Debug, Clone)]
pub struct GpuModel {
    /// Per-image inference time at 100% resolution and full speed (s).
    /// Faster R-CNN R101-FPN on a 2080 Ti runs at ≈10 fps in isolation
    /// (the paper's 150–300 ms "GPU delay" band includes server-side
    /// queueing, which the testbed models separately).
    pub t_base_full_s: f64,
    /// Relative per-image slowdown at the lowest resolution (the paper's
    /// Fig. 3-bottom effect: low-res frames are *harder* per image).
    pub lowres_penalty: f64,
    /// Effective speed at the lowest power limit, relative to full speed.
    /// Fig. 3 shows GPU delay roughly doubling from the 100% to the 10%
    /// GPU-speed policy, so this is ≈ 0.5.
    pub min_speed: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel { t_base_full_s: 0.095, lowres_penalty: 0.35, min_speed: 0.5 }
    }
}

impl GpuModel {
    /// Effective processing speed (relative to unconstrained) under a
    /// power-limit policy: DVFS-style diminishing returns
    /// `speed = min + (1 - min) * gamma^0.5` — power scales roughly with
    /// `V^2 f`, so clawing back the last watts buys little speed.
    pub fn speed(&self, policy: GpuSpeedPolicy) -> f64 {
        let g = policy.0.clamp(0.0, 1.0);
        self.min_speed + (1.0 - self.min_speed) * g.sqrt()
    }

    /// Per-image inference time (s) at resolution fraction `res` under the
    /// given speed policy.
    ///
    /// # Panics
    /// Panics if `res` is outside `(0, 1]`.
    pub fn inference_time_s(&self, res: f64, policy: GpuSpeedPolicy) -> f64 {
        assert!(res > 0.0 && res <= 1.0, "resolution fraction must be in (0,1]");
        let per_image = self.t_base_full_s * (1.0 + self.lowres_penalty * (1.0 - res));
        per_image / self.speed(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_limit_mapping_spans_driver_range() {
        assert_eq!(GpuSpeedPolicy(0.0).power_limit_w(), 100.0);
        assert_eq!(GpuSpeedPolicy(1.0).power_limit_w(), 280.0);
        assert_eq!(GpuSpeedPolicy(0.5).power_limit_w(), 190.0);
        assert_eq!(GpuSpeedPolicy::clamped(7.0).0, 1.0);
        assert_eq!(GpuSpeedPolicy::clamped(-1.0).0, 0.0);
    }

    #[test]
    fn speed_monotone_in_policy() {
        let g = GpuModel::default();
        let mut prev = 0.0;
        for i in 0..=10 {
            let s = g.speed(GpuSpeedPolicy(i as f64 / 10.0));
            assert!(s > prev);
            prev = s;
        }
        assert_eq!(g.speed(GpuSpeedPolicy(1.0)), 1.0);
        assert_eq!(g.speed(GpuSpeedPolicy(0.0)), g.min_speed);
    }

    #[test]
    fn diminishing_returns_near_full_power() {
        let g = GpuModel::default();
        let low_gain = g.speed(GpuSpeedPolicy(0.2)) - g.speed(GpuSpeedPolicy(0.0));
        let high_gain = g.speed(GpuSpeedPolicy(1.0)) - g.speed(GpuSpeedPolicy(0.8));
        assert!(low_gain > high_gain, "{low_gain} vs {high_gain}");
    }

    #[test]
    fn inference_time_fig3_calibration() {
        let g = GpuModel::default();
        // Full res, full speed: ~95 ms.
        let t_fast = g.inference_time_s(1.0, GpuSpeedPolicy(1.0));
        assert!((t_fast - 0.095).abs() < 1e-9);
        // Lowest speed roughly doubles it (Fig. 3 shape: 2x span).
        let t_slow = g.inference_time_s(1.0, GpuSpeedPolicy(0.0));
        assert!((1.8..=2.2).contains(&(t_slow / t_fast)), "ratio {}", t_slow / t_fast);
    }

    #[test]
    fn lowres_images_are_slower_per_image() {
        // The paper's Fig. 3-bottom observation.
        let g = GpuModel::default();
        let p = GpuSpeedPolicy(1.0);
        assert!(g.inference_time_s(0.25, p) > g.inference_time_s(1.0, p));
        let ratio = g.inference_time_s(0.25, p) / g.inference_time_s(1.0, p);
        assert!((1.15..1.45).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "resolution fraction")]
    fn rejects_invalid_resolution() {
        let _ = GpuModel::default().inference_time_s(0.0, GpuSpeedPolicy(1.0));
    }
}
