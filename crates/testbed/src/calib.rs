//! Calibration constants, gathered in one place and documented against the
//! paper figure each one anchors (see DESIGN.md §6).

use edgebol_edge::{GpuModel, ServerPowerModel};
use edgebol_media::{DetectorModel, EncodeModel};
use edgebol_ran::{BbuPowerModel, HarqModel};

/// All tunable constants of the testbed, with defaults calibrated so the
/// simulator reproduces the operating points of the paper's figures.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// UE-side encoding model (≈225 kB at 100% res → peak offered load
    /// ≈2.8 Mb/s as quoted in §3).
    pub encode: EncodeModel,
    /// Detector behaviour (mAP ≈0.2→0.62 over 25–100% res, Fig. 1).
    pub detector: DetectorModel,
    /// GPU inference-time model (150–300 ms band of Fig. 3-bottom).
    pub gpu: GpuModel,
    /// Server power model (75–180 W band of Figs. 2–4).
    pub server_power: ServerPowerModel,
    /// BBU power model (4.75–7.5 W band of Figs. 5–6).
    pub bbu_power: BbuPowerModel,
    /// HARQ behaviour (LTE FDD defaults).
    pub harq: HarqModel,
    /// PRBs grantable to the slice per scheduled subframe. 22 of the
    /// carrier's 100 PRBs give ≈11 Mb/s of slice goodput at top MCS, which
    /// places the max-resource service delay at ≈0.33 s — the operating
    /// point at which the paper's §6.2–§6.3 constraint settings
    /// (d_max ∈ {0.3, 0.4, 0.5} s) are meaningful (see EXPERIMENTS.md for
    /// the Fig. 1 absolute-delay trade-off this implies).
    pub slice_prbs: usize,
    /// Fixed downlink return time (bounding boxes + labels are tiny).
    pub dl_fixed_s: f64,
    /// Fixed protocol/stack overhead per frame (HTTP + scheduling
    /// grants + backhaul), seconds.
    pub stack_overhead_s: f64,
    /// Scenes per period used for the mAP observation (the paper averages
    /// over 150 COCO images).
    pub dataset_size: usize,
    /// Relative std of the power-meter reading noise.
    pub meter_noise_rel: f64,
    /// Relative std of the delay measurement noise (timestamping, OS
    /// jitter).
    pub delay_noise_rel: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            encode: EncodeModel::default(),
            detector: DetectorModel::default(),
            gpu: GpuModel::default(),
            server_power: ServerPowerModel::default(),
            bbu_power: BbuPowerModel::default(),
            harq: HarqModel::default(),
            slice_prbs: 22,
            dl_fixed_s: 0.012,
            stack_overhead_s: 0.015,
            dataset_size: 150,
            meter_noise_rel: 0.015,
            delay_noise_rel: 0.03,
        }
    }
}

impl Calibration {
    /// A faster calibration for long learning runs: smaller mAP dataset,
    /// everything else unchanged. KPI statistics stay the same, the mAP
    /// observation is merely noisier (which the GP absorbs).
    pub fn fast() -> Self {
        Calibration { dataset_size: 60, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebol_ran::{tbs_bits, Mcs};

    #[test]
    fn slice_goodput_places_max_resource_delay_at_operating_point() {
        // 22 PRBs at MCS 28, every subframe: ~11 Mb/s, so a 1.8 Mb
        // full-res frame takes ~0.17 s of airtime and the end-to-end
        // max-resource delay lands at ~0.33 s — the regime in which the
        // paper's constraint settings d_max ∈ {0.3, 0.4, 0.5} s bite.
        let c = Calibration::default();
        let rate = tbs_bits(Mcs::MAX, c.slice_prbs) / 1e-3;
        assert!((10e6..12e6).contains(&rate), "slice rate {rate:.3e}");
        let bits = c.encode.bits(1.0);
        let e = c.encode.encode(1.0);
        let d = e.preproc_s + bits / rate + c.gpu.t_base_full_s + c.dl_fixed_s + c.stack_overhead_s;
        assert!((0.30..0.36).contains(&d), "max-resource delay {d}");
    }

    #[test]
    fn fast_calibration_only_shrinks_dataset() {
        let f = Calibration::fast();
        let d = Calibration::default();
        assert!(f.dataset_size < d.dataset_size);
        assert_eq!(f.slice_prbs, d.slice_prbs);
    }
}
