//! Link-level tables: CQI, MCS, TBS and BLER.
//!
//! The numerology follows LTE FDD at 20 MHz (100 PRBs, 1 ms subframes).
//! Spectral efficiencies come from the 3GPP 36.213 CQI table
//! (Table 7.2.3-1); MCS indices 0–28 are mapped onto that efficiency range
//! by monotone interpolation, which is the standard approximation used by
//! system-level simulators when full TBS tables are not carried around.
//! The data-RE budget per PRB is reduced from the raw 168 RE/subframe to
//! account for DMRS and control overhead, calibrated so the full-carrier
//! peak UL rate lands near the ~50 Mb/s the paper quotes for its SISO
//! 20 MHz deployment.

/// Number of uplink MCS indices modelled (0..=28).
pub const NUM_MCS: usize = 29;

/// PRBs on a 20 MHz LTE carrier.
pub const CARRIER_PRBS: usize = 100;

/// Subframe duration in seconds (LTE TTI).
pub const SUBFRAME_S: f64 = 1e-3;

/// Usable *data* resource elements per PRB per subframe after DMRS and
/// control overhead (raw 12 x 14 = 168, minus 24 DMRS REs, minus ~17%
/// signalling/guard overhead).
pub const DATA_RES_PER_PRB: f64 = 90.0;

/// An uplink MCS index (0..=28).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mcs(pub u8);

impl Mcs {
    /// Highest modelled MCS.
    pub const MAX: Mcs = Mcs(28);

    /// Creates an MCS, clamping into the valid range.
    pub fn clamped(idx: i64) -> Mcs {
        Mcs(idx.clamp(0, 28) as u8)
    }

    /// Index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// 3GPP 36.213 Table 7.2.3-1: spectral efficiency (bits/RE) per CQI 1..=15.
const CQI_EFFICIENCY: [f64; 15] = [
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223, 3.9023,
    4.5234, 5.1152, 5.5547,
];

/// Spectral efficiency (bits per resource element) of an MCS index.
///
/// Monotone interpolation of the CQI efficiency range over MCS 0..=28.
pub fn mcs_efficiency(mcs: Mcs) -> f64 {
    let idx = mcs.index() as f64 / 28.0 * 14.0; // position within CQI table
    let lo = idx.floor() as usize;
    let hi = (lo + 1).min(14);
    let w = idx - lo as f64;
    CQI_EFFICIENCY[lo] * (1.0 - w) + CQI_EFFICIENCY[hi] * w
}

/// Transport-block size in bits for `n_prb` PRBs in one subframe at `mcs`.
pub fn tbs_bits(mcs: Mcs, n_prb: usize) -> f64 {
    mcs_efficiency(mcs) * DATA_RES_PER_PRB * n_prb as f64
}

/// Required SNR (dB) for ~10% BLER at an MCS, from the Shannon-gap
/// approximation `snr_req = 10 log10(2^eff - 1) + margin`.
///
/// The 3 dB margin reflects implementation loss of a software radio
/// (srsRAN + B210), on the conservative side of link-abstraction studies.
pub fn required_snr_db(mcs: Mcs) -> f64 {
    let eff = mcs_efficiency(mcs);
    10.0 * (2f64.powf(eff) - 1.0).log10() + 3.0
}

/// Block error rate of a transport block sent at `mcs` through a channel
/// with instantaneous `snr_db`.
///
/// Logistic waterfall centred at [`required_snr_db`], ~1.5 dB wide, floored
/// at 1e-4 (residual errors) and capped at 0.999.
pub fn bler(snr_db: f64, mcs: Mcs) -> f64 {
    let delta = snr_db - required_snr_db(mcs);
    let p = 1.0 / (1.0 + (delta / 0.75).exp());
    p.clamp(1e-4, 0.999)
}

/// Maps an SNR report to the CQI (1..=15) a UE would feed back: the highest
/// CQI whose efficiency is supportable at ~10% BLER.
pub fn cqi_from_snr(snr_db: f64) -> u8 {
    let mut cqi = 1u8;
    for (i, &eff) in CQI_EFFICIENCY.iter().enumerate() {
        let req = 10.0 * (2f64.powf(eff) - 1.0).log10() + 3.0;
        if snr_db >= req {
            cqi = (i + 1) as u8;
        }
    }
    cqi
}

/// The highest MCS a UE with CQI `cqi` can sustain (the channel-driven cap
/// the MAC applies below the policy cap).
pub fn max_mcs_for_cqi(cqi: u8) -> Mcs {
    let cqi = cqi.clamp(1, 15);
    // Inverse of the interpolation in `mcs_efficiency`.
    Mcs::clamped(((cqi - 1) as f64 / 14.0 * 28.0).round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_monotone_in_mcs() {
        let mut prev = 0.0;
        for i in 0..NUM_MCS {
            let e = mcs_efficiency(Mcs(i as u8));
            assert!(e > prev, "efficiency must increase with MCS ({i})");
            prev = e;
        }
    }

    #[test]
    fn efficiency_endpoints_match_cqi_table() {
        assert!((mcs_efficiency(Mcs(0)) - 0.1523).abs() < 1e-9);
        assert!((mcs_efficiency(Mcs(28)) - 5.5547).abs() < 1e-9);
    }

    #[test]
    fn peak_carrier_rate_close_to_paper_quote() {
        // 100 PRBs at MCS 28, 1000 subframes/s: the paper says ~50 Mb/s.
        let peak = tbs_bits(Mcs::MAX, CARRIER_PRBS) / SUBFRAME_S;
        assert!((45e6..55e6).contains(&peak), "peak {peak:.3e}");
    }

    #[test]
    fn tbs_scales_linearly_with_prbs() {
        let one = tbs_bits(Mcs(10), 1);
        let fifty = tbs_bits(Mcs(10), 50);
        assert!((fifty - 50.0 * one).abs() < 1e-9);
        assert_eq!(tbs_bits(Mcs(10), 0), 0.0);
    }

    #[test]
    fn required_snr_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for i in 0..NUM_MCS {
            let s = required_snr_db(Mcs(i as u8));
            assert!(s > prev);
            prev = s;
        }
        // Sanity: QPSK lowest rate decodes below 0 dB + margin, 64QAM needs ~20 dB.
        assert!(required_snr_db(Mcs(0)) < 0.0);
        assert!(required_snr_db(Mcs(28)) > 15.0);
    }

    #[test]
    fn bler_waterfall_shape() {
        let m = Mcs(14);
        let req = required_snr_db(m);
        assert!(bler(req - 6.0, m) > 0.95);
        assert!((bler(req, m) - 0.5).abs() < 1e-9);
        assert!(bler(req + 6.0, m) < 0.01);
        // Bounds respected.
        assert!(bler(req + 100.0, m) >= 1e-4);
        assert!(bler(req - 100.0, m) <= 0.999);
    }

    #[test]
    fn cqi_mapping_monotone_in_snr() {
        let mut prev = 0;
        for snr10 in -10..40 {
            let c = cqi_from_snr(snr10 as f64);
            assert!(c >= prev, "CQI must be non-decreasing in SNR");
            assert!((1..=15).contains(&c));
            prev = c;
        }
        assert_eq!(cqi_from_snr(-20.0), 1);
        assert_eq!(cqi_from_snr(40.0), 15);
    }

    #[test]
    fn cqi_mcs_roundtrip_is_supportable() {
        // The MCS derived from a CQI must be decodable (<50% BLER) at any
        // SNR that produces that CQI.
        for snr in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
            let cqi = cqi_from_snr(snr);
            let mcs = max_mcs_for_cqi(cqi);
            assert!(
                bler(snr, mcs) < 0.5,
                "snr {snr}: cqi {cqi} -> mcs {mcs:?} has bler {}",
                bler(snr, mcs)
            );
        }
    }

    #[test]
    fn mcs_clamping() {
        assert_eq!(Mcs::clamped(-5), Mcs(0));
        assert_eq!(Mcs::clamped(100), Mcs(28));
        assert_eq!(Mcs::clamped(7), Mcs(7));
    }
}
