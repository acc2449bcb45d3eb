//! Per-UE channel state and SNR traces.

use crate::phy::cqi_from_snr;
use edgebol_linalg::stats::normal;
use rand::Rng;

/// A UE's uplink channel: slow mean SNR plus fast per-subframe fading.
///
/// The testbed paper adjusts RF gains over SMA cables to set mean uplink
/// SNR; we model the same knob plus the residual variability a real link
/// shows (shadowing random-walk + per-subframe fast fading), which is what
/// makes CQI reports — and hence the learning context — noisy.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    /// Slowly varying mean SNR (dB), the experiment's control knob.
    pub mean_snr_db: f64,
    /// Standard deviation of the shadowing component (dB).
    pub shadowing_std_db: f64,
    /// Standard deviation of per-subframe fast fading (dB).
    pub fast_fading_std_db: f64,
    /// Current shadowing state (dB offset), evolves as an AR(1).
    shadow_db: f64,
    /// AR(1) coefficient of the shadowing process per sample.
    shadow_rho: f64,
}

impl ChannelModel {
    /// Creates a channel with typical indoor-testbed variability.
    pub fn new(mean_snr_db: f64) -> Self {
        ChannelModel {
            mean_snr_db,
            shadowing_std_db: 1.5,
            fast_fading_std_db: 1.0,
            shadow_db: 0.0,
            shadow_rho: 0.98,
        }
    }

    /// A channel with no variability (for deterministic unit tests).
    pub fn noiseless(mean_snr_db: f64) -> Self {
        ChannelModel {
            mean_snr_db,
            shadowing_std_db: 0.0,
            fast_fading_std_db: 0.0,
            shadow_db: 0.0,
            shadow_rho: 1.0,
        }
    }

    /// Advances the shadowing process one step and samples the
    /// instantaneous SNR (dB) for a subframe.
    pub fn sample_snr<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.shadowing_std_db > 0.0 {
            let innov = (1.0 - self.shadow_rho * self.shadow_rho).sqrt() * self.shadowing_std_db;
            self.shadow_db = self.shadow_rho * self.shadow_db + normal(rng, 0.0, innov);
        }
        self.mean_snr_db + self.shadow_db + normal(rng, 0.0, self.fast_fading_std_db)
    }

    /// Samples the CQI a UE would report this subframe.
    pub fn sample_cqi<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u8 {
        cqi_from_snr(self.sample_snr(rng))
    }

    /// Expected CQI at the mean SNR (deterministic summary).
    pub fn nominal_cqi(&self) -> u8 {
        cqi_from_snr(self.mean_snr_db)
    }
}

/// A piecewise-constant SNR trajectory over time periods, used to drive
/// the dynamic-context experiments (Fig. 13: SNR varying 5–38 dB).
#[derive(Debug, Clone)]
pub struct SnrTrace {
    /// `(period index at which the value starts, mean SNR dB)` pairs,
    /// sorted by period.
    segments: Vec<(usize, f64)>,
}

impl SnrTrace {
    /// Constant trace.
    pub fn constant(snr_db: f64) -> Self {
        SnrTrace { segments: vec![(0, snr_db)] }
    }

    /// Builds a trace from `(start_period, snr_db)` pairs.
    ///
    /// # Panics
    /// Panics if `segments` is empty, does not start at period 0, or is
    /// not strictly increasing in period.
    pub fn piecewise(segments: Vec<(usize, f64)>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        assert_eq!(segments[0].0, 0, "trace must start at period 0");
        for w in segments.windows(2) {
            assert!(w[0].0 < w[1].0, "segment starts must be strictly increasing");
        }
        SnrTrace { segments }
    }

    /// The Fig. 13 style trace: steps spanning roughly 5–38 dB.
    pub fn dynamic_fig13() -> Self {
        SnrTrace::piecewise(vec![
            (0, 35.0),
            (25, 20.0),
            (50, 8.0),
            (75, 30.0),
            (100, 5.0),
            (125, 38.0),
        ])
    }

    /// Mean SNR at a period.
    pub fn snr_at(&self, period: usize) -> f64 {
        let mut v = self.segments[0].1;
        for &(start, snr) in &self.segments {
            if period >= start {
                v = snr;
            } else {
                break;
            }
        }
        v
    }

    /// Smallest and largest SNR in the trace.
    pub fn range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, s) in &self.segments {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebol_linalg::stats::Welford;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_channel_is_constant() {
        let mut ch = ChannelModel::noiseless(20.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(ch.sample_snr(&mut rng), 20.0);
        }
        assert_eq!(ch.nominal_cqi(), cqi_from_snr(20.0));
    }

    #[test]
    fn snr_samples_center_on_mean() {
        let mut ch = ChannelModel::new(15.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut w = Welford::new();
        for _ in 0..20_000 {
            w.push(ch.sample_snr(&mut rng));
        }
        assert!((w.mean() - 15.0).abs() < 0.5, "mean {}", w.mean());
        assert!(w.std() > 0.5 && w.std() < 4.0, "std {}", w.std());
    }

    #[test]
    fn cqi_reports_track_snr_regime() {
        let mut hi = ChannelModel::new(35.0);
        let mut lo = ChannelModel::new(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let hi_cqi: f64 = (0..500).map(|_| hi.sample_cqi(&mut rng) as f64).sum::<f64>() / 500.0;
        let lo_cqi: f64 = (0..500).map(|_| lo.sample_cqi(&mut rng) as f64).sum::<f64>() / 500.0;
        assert!(hi_cqi > 13.0, "high-SNR mean CQI {hi_cqi}");
        assert!(lo_cqi < 5.0, "low-SNR mean CQI {lo_cqi}");
    }

    #[test]
    fn trace_lookup() {
        let t = SnrTrace::piecewise(vec![(0, 30.0), (10, 10.0), (20, 25.0)]);
        assert_eq!(t.snr_at(0), 30.0);
        assert_eq!(t.snr_at(9), 30.0);
        assert_eq!(t.snr_at(10), 10.0);
        assert_eq!(t.snr_at(19), 10.0);
        assert_eq!(t.snr_at(500), 25.0);
    }

    #[test]
    fn constant_trace() {
        let t = SnrTrace::constant(17.0);
        assert_eq!(t.snr_at(0), 17.0);
        assert_eq!(t.snr_at(1000), 17.0);
        assert_eq!(t.range(), (17.0, 17.0));
    }

    #[test]
    fn fig13_trace_spans_paper_range() {
        let t = SnrTrace::dynamic_fig13();
        let (lo, hi) = t.range();
        assert!(lo <= 5.0 && hi >= 38.0);
    }

    #[test]
    #[should_panic(expected = "must start at period 0")]
    fn trace_rejects_late_start() {
        let _ = SnrTrace::piecewise(vec![(5, 10.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn trace_rejects_unsorted() {
        let _ = SnrTrace::piecewise(vec![(0, 10.0), (10, 20.0), (10, 30.0)]);
    }
}
