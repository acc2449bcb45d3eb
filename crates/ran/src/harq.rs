//! Stop-and-wait HARQ with chase combining.

use crate::phy::{bler, Mcs};
use rand::{Rng, RngExt};

/// Outcome of transmitting one transport block through HARQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarqOutcome {
    /// Total attempts used (1 = no retransmission).
    pub attempts: u8,
    /// Whether the block was eventually delivered.
    pub success: bool,
}

/// LTE-style HARQ: up to `max_attempts` transmissions of a block, each
/// retransmission arriving one `rtt_s` later, with chase combining adding
/// ~`combining_gain_db` of effective SNR per accumulated copy.
#[derive(Debug, Clone)]
pub struct HarqModel {
    /// Maximum transmissions of one block (LTE default: 4).
    pub max_attempts: u8,
    /// HARQ round-trip time in seconds (LTE FDD UL: 8 ms).
    pub rtt_s: f64,
    /// Effective SNR gain per additional combined copy, in dB.
    pub combining_gain_db: f64,
}

impl Default for HarqModel {
    fn default() -> Self {
        HarqModel { max_attempts: 4, rtt_s: 8e-3, combining_gain_db: 2.5 }
    }
}

impl HarqModel {
    /// Effective SNR at transmission attempt `k` (1-based) with combining.
    fn snr_at_attempt(&self, snr_db: f64, k: u8) -> f64 {
        snr_db + self.combining_gain_db * (k.saturating_sub(1)) as f64
    }

    /// Simulates the HARQ delivery of one block.
    pub fn attempt<R: Rng + ?Sized>(&self, rng: &mut R, snr_db: f64, mcs: Mcs) -> HarqOutcome {
        for k in 1..=self.max_attempts {
            let p_err = bler(self.snr_at_attempt(snr_db, k), mcs);
            if rng.random::<f64>() >= p_err {
                return HarqOutcome { attempts: k, success: true };
            }
        }
        HarqOutcome { attempts: self.max_attempts, success: false }
    }

    /// Expected number of transmissions per block (analytic).
    pub fn expected_attempts(&self, snr_db: f64, mcs: Mcs) -> f64 {
        let mut e = 0.0;
        let mut p_reach = 1.0; // probability attempt k happens
        for k in 1..=self.max_attempts {
            e += p_reach;
            let p_err = bler(self.snr_at_attempt(snr_db, k), mcs);
            p_reach *= p_err;
        }
        e
    }

    /// Probability a block is lost after all attempts.
    pub fn residual_loss(&self, snr_db: f64, mcs: Mcs) -> f64 {
        let mut p = 1.0;
        for k in 1..=self.max_attempts {
            p *= bler(self.snr_at_attempt(snr_db, k), mcs);
        }
        p
    }

    /// Goodput multiplier: delivered blocks per transmission opportunity,
    /// i.e. `P(success) / E[attempts]`. Multiplies the nominal TBS rate to
    /// give the effective link rate the flow-level model uses.
    pub fn goodput_factor(&self, snr_db: f64, mcs: Mcs) -> f64 {
        (1.0 - self.residual_loss(snr_db, mcs)) / self.expected_attempts(snr_db, mcs)
    }

    /// Mean extra latency per delivered block due to retransmissions.
    pub fn expected_extra_delay_s(&self, snr_db: f64, mcs: Mcs) -> f64 {
        (self.expected_attempts(snr_db, mcs) - 1.0) * self.rtt_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::required_snr_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn good_snr_delivers_first_attempt() {
        let h = HarqModel::default();
        let m = Mcs(10);
        let snr = required_snr_db(m) + 10.0;
        let mut rng = StdRng::seed_from_u64(0);
        let mut first = 0;
        for _ in 0..1000 {
            let o = h.attempt(&mut rng, snr, m);
            assert!(o.success);
            if o.attempts == 1 {
                first += 1;
            }
        }
        assert!(first > 980, "{first}");
        assert!(h.expected_attempts(snr, m) < 1.05);
        assert!(h.goodput_factor(snr, m) > 0.95);
    }

    #[test]
    fn terrible_snr_exhausts_attempts() {
        let h = HarqModel::default();
        let m = Mcs(28);
        let snr = required_snr_db(m) - 30.0;
        let mut rng = StdRng::seed_from_u64(1);
        let o = h.attempt(&mut rng, snr, m);
        assert!(!o.success);
        assert_eq!(o.attempts, 4);
        assert!(h.residual_loss(snr, m) > 0.9);
        assert!(h.goodput_factor(snr, m) < 0.05);
    }

    #[test]
    fn combining_rescues_marginal_links() {
        // At the BLER waterfall (50% first-attempt loss), combining makes
        // the residual loss small.
        let h = HarqModel::default();
        let m = Mcs(14);
        let snr = required_snr_db(m);
        assert!(h.residual_loss(snr, m) < 0.05, "{}", h.residual_loss(snr, m));
        let e = h.expected_attempts(snr, m);
        assert!(e > 1.3 && e < 2.2, "expected attempts {e}");
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let h = HarqModel::default();
        let m = Mcs(20);
        let snr = required_snr_db(m) - 1.0;
        let mut rng = StdRng::seed_from_u64(2);
        let n = 30_000;
        let mut tot_attempts = 0u64;
        let mut losses = 0u64;
        for _ in 0..n {
            let o = h.attempt(&mut rng, snr, m);
            tot_attempts += o.attempts as u64;
            losses += u64::from(!o.success);
        }
        let mc_e = tot_attempts as f64 / n as f64;
        let mc_loss = losses as f64 / n as f64;
        assert!((mc_e - h.expected_attempts(snr, m)).abs() < 0.03, "{mc_e}");
        assert!((mc_loss - h.residual_loss(snr, m)).abs() < 0.01, "{mc_loss}");
    }

    #[test]
    fn extra_delay_zero_on_clean_link() {
        let h = HarqModel::default();
        let m = Mcs(5);
        let snr = required_snr_db(m) + 15.0;
        assert!(h.expected_extra_delay_s(snr, m) < 1e-4);
    }
}
