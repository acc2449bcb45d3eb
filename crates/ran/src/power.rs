//! BBU power model (Performance Indicator 4).
//!
//! The paper measures the virtualized BS's baseband power with a digital
//! power meter and finds two regimes (Figs. 5–6):
//!
//! * **Low load** — higher MCS *lowers* BS power: subframes modulated with
//!   higher MCS "incur higher instantaneous power consumption, \[but\] they
//!   process the load faster, which pays off in terms of power consumption
//!   over the long run".
//! * **Saturating load (10x)** — higher MCS *raises* BS power for
//!   high-resolution traffic: the duty cycle is pinned at the airtime cap,
//!   so the per-subframe decode cost dominates.
//!
//! We model exactly that mechanism: an idle floor plus a per-occupied-
//! subframe cost with a fixed FFT/demodulation part and an MCS-dependent
//! FEC-decoding part that grows *sublinearly* with spectral efficiency.
//! Because occupancy falls as `1/efficiency` at fixed offered load, the
//! product (power) decreases with MCS when unsaturated and increases with
//! MCS when occupancy is pinned — reproducing both figures from a single
//! model.

use crate::phy::{mcs_efficiency, Mcs};

/// Baseband-unit power model.
#[derive(Debug, Clone)]
pub struct BbuPowerModel {
    /// Idle baseband power (W): the srsRAN process + NUC platform share
    /// attributable to the vBS when no subframe is processed.
    pub idle_w: f64,
    /// Power per fully-occupied subframe-second for FFT/demodulation and
    /// channel estimation (MCS-independent), in W.
    pub fft_w: f64,
    /// FEC-decode power at MCS 28 occupancy 1.0, in W.
    pub decode_max_w: f64,
    /// Sublinearity exponent of decode cost vs spectral efficiency.
    pub decode_exponent: f64,
}

impl Default for BbuPowerModel {
    fn default() -> Self {
        // Calibrated against the 4.75–7.5 W range of Figs. 5–6.
        BbuPowerModel { idle_w: 4.3, fft_w: 1.8, decode_max_w: 1.4, decode_exponent: 0.5 }
    }
}

impl BbuPowerModel {
    /// FEC-decode power contribution (W) at full occupancy for an MCS.
    pub fn decode_w(&self, mcs: Mcs) -> f64 {
        let rel = mcs_efficiency(mcs) / mcs_efficiency(Mcs::MAX);
        self.decode_max_w * rel.powf(self.decode_exponent)
    }

    /// Instantaneous BBU power (W) given the slice's subframe occupancy
    /// (fraction of subframes being processed, in [0, 1]) and the MCS in
    /// use on those subframes.
    ///
    /// # Panics
    /// Panics if `occupancy` is outside `[0, 1]`.
    pub fn power_w(&self, occupancy: f64, mcs: Mcs) -> f64 {
        assert!((0.0..=1.0).contains(&occupancy), "occupancy must be in [0,1]");
        self.idle_w + occupancy * (self.fft_w + self.decode_w(mcs))
    }

    /// Power for a mixture of MCSs: `occupancies[i]` is the subframe
    /// fraction spent decoding `mcs_list[i]`. Used by the DES, where every
    /// grant can carry a different MCS.
    ///
    /// # Panics
    /// Panics if the slices have different lengths or total occupancy
    /// exceeds 1 (plus small numerical slack).
    pub fn power_mixture_w(&self, occupancies: &[f64], mcs_list: &[Mcs]) -> f64 {
        assert_eq!(occupancies.len(), mcs_list.len(), "mixture slices must align");
        let total: f64 = occupancies.iter().sum();
        assert!(total <= 1.0 + 1e-9, "total occupancy {total} > 1");
        let mut p = self.idle_w;
        for (&occ, &m) in occupancies.iter().zip(mcs_list) {
            p += occ * (self.fft_w + self.decode_w(m));
        }
        p
    }

    /// Peak power: full occupancy at MCS 28.
    pub fn peak_w(&self) -> f64 {
        self.power_w(1.0, Mcs::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_when_unoccupied() {
        let m = BbuPowerModel::default();
        assert_eq!(m.power_w(0.0, Mcs(0)), m.idle_w);
        assert_eq!(m.power_w(0.0, Mcs::MAX), m.idle_w);
    }

    #[test]
    fn calibrated_range_matches_paper() {
        let m = BbuPowerModel::default();
        assert!((4.0..=5.0).contains(&m.idle_w));
        assert!((7.0..=8.0).contains(&m.peak_w()), "peak {}", m.peak_w());
    }

    #[test]
    fn power_monotone_in_occupancy() {
        let m = BbuPowerModel::default();
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = m.power_w(i as f64 / 10.0, Mcs(14));
            assert!(p > prev || i == 0);
            prev = p;
        }
    }

    #[test]
    fn per_subframe_cost_monotone_in_mcs() {
        let m = BbuPowerModel::default();
        let mut prev = 0.0;
        for i in 0..29 {
            let p = m.power_w(1.0, Mcs(i));
            assert!(p > prev, "fixed-occupancy power must rise with MCS");
            prev = p;
        }
    }

    /// The Fig. 5 regime: at fixed offered load (occupancy ∝ 1/efficiency),
    /// total power must *fall* as MCS rises.
    #[test]
    fn fixed_load_power_decreases_with_mcs() {
        let m = BbuPowerModel::default();
        // Offered load that occupies 90% of subframes at MCS 4.
        let load = 0.9 * mcs_efficiency(Mcs(4));
        let mut prev = f64::INFINITY;
        for i in 4..29 {
            let mcs = Mcs(i);
            let occ = (load / mcs_efficiency(mcs)).min(1.0);
            let p = m.power_w(occ, mcs);
            assert!(p < prev, "fixed-load power must fall with MCS (mcs {i}: {p} !< {prev})");
            prev = p;
        }
    }

    /// The Fig. 6 regime: when occupancy is pinned by the airtime cap,
    /// power must *rise* with MCS.
    #[test]
    fn saturated_power_increases_with_mcs() {
        let m = BbuPowerModel::default();
        let p_low = m.power_w(1.0, Mcs(2));
        let p_high = m.power_w(1.0, Mcs(28));
        assert!(p_high > p_low + 0.5, "{p_high} vs {p_low}");
    }

    #[test]
    fn mixture_equals_weighted_sum() {
        let m = BbuPowerModel::default();
        let p = m.power_mixture_w(&[0.3, 0.2], &[Mcs(5), Mcs(20)]);
        let manual =
            m.idle_w + 0.3 * (m.fft_w + m.decode_w(Mcs(5))) + 0.2 * (m.fft_w + m.decode_w(Mcs(20)));
        assert!((p - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "occupancy must be in [0,1]")]
    fn rejects_bad_occupancy() {
        let _ = BbuPowerModel::default().power_w(1.5, Mcs(0));
    }
}
