//! Slice MAC scheduler implementing the paper's two radio policies.
//!
//! The orchestrator (EdgeBOL) sets **policies**; the MAC enforces them at
//! millisecond granularity, exactly the O-RAN split the paper describes:
//! "These policies are rules that must be respected by lower-level
//! controllers that operate at millisecond-level timescale".
//!
//! * [`AirtimePolicy`] (Policy 2) — an uplink duty-cycle cap for the
//!   slice's traffic, enforced here with a token bucket over subframes.
//! * [`McsPolicy`] (Policy 4) — an upper bound on the MCS the scheduler
//!   may select; the actual MCS is the minimum of this cap and what the
//!   UE's instantaneous CQI supports.
//! * Round-robin service among backlogged UEs (the low-level controller
//!   adopted for the multi-user experiments, §6.4).

use crate::channel::ChannelModel;
use crate::phy::{max_mcs_for_cqi, tbs_bits, Mcs};
use rand::Rng;

/// Policy 2: the fraction of subframes the slice may occupy, in (0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirtimePolicy(pub f64);

impl AirtimePolicy {
    /// Creates a policy, clamping into `[0.05, 1.0]` (a zero-airtime slice
    /// would be dead; the paper's grid bottoms out above zero too).
    pub fn clamped(fraction: f64) -> Self {
        AirtimePolicy(fraction.clamp(0.05, 1.0))
    }
}

/// Policy 4: an upper bound on the eligible MCS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McsPolicy(pub Mcs);

/// One UE attached to the slice.
#[derive(Debug, Clone)]
pub struct UeLink {
    /// The UE's uplink channel.
    pub channel: ChannelModel,
    /// Pending uplink bits.
    pub backlog_bits: f64,
}

impl UeLink {
    /// Creates a UE with the given mean SNR and empty buffer.
    pub fn new(mean_snr_db: f64) -> Self {
        UeLink { channel: ChannelModel::new(mean_snr_db), backlog_bits: 0.0 }
    }
}

/// An uplink grant issued for one subframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Which UE was scheduled.
    pub ue: usize,
    /// MCS selected (min of policy cap and channel support).
    pub mcs: Mcs,
    /// Transport-block size in bits.
    pub tb_bits: f64,
    /// Instantaneous SNR (dB) the transmission will see.
    pub snr_db: f64,
}

/// The slice's uplink scheduler.
#[derive(Debug, Clone)]
pub struct SliceScheduler {
    /// Policy 2 in force.
    pub airtime: AirtimePolicy,
    /// Policy 4 in force.
    pub mcs_cap: McsPolicy,
    /// PRBs grantable to the slice per scheduled subframe. On the paper's
    /// testbed the single-UE slice attains only a few Mb/s of app-level UL
    /// goodput (implied by its ~0.4 s full-res transfer times); a 10-PRB
    /// slice share of the 100-PRB carrier reproduces that operating point.
    pub slice_prbs: usize,
    /// Airtime token bucket (subframe credits).
    credit: f64,
    /// Round-robin pointer.
    rr_next: usize,
    /// Subframes elapsed and subframes granted, for duty accounting.
    elapsed_sf: u64,
    granted_sf: u64,
}

impl SliceScheduler {
    /// Creates a scheduler with the given policies and slice PRB share.
    ///
    /// # Panics
    /// Panics if `slice_prbs == 0` or the airtime fraction is outside
    /// `(0, 1]`.
    pub fn new(airtime: AirtimePolicy, mcs_cap: McsPolicy, slice_prbs: usize) -> Self {
        assert!(slice_prbs > 0, "slice needs at least one PRB");
        assert!(airtime.0 > 0.0 && airtime.0 <= 1.0, "airtime fraction out of range");
        SliceScheduler {
            airtime,
            mcs_cap,
            slice_prbs,
            credit: 0.0,
            rr_next: 0,
            elapsed_sf: 0,
            granted_sf: 0,
        }
    }

    /// Updates the policies in force (the A1 policy hand-off point).
    pub fn set_policies(&mut self, airtime: AirtimePolicy, mcs_cap: McsPolicy) {
        assert!(airtime.0 > 0.0 && airtime.0 <= 1.0, "airtime fraction out of range");
        self.airtime = airtime;
        self.mcs_cap = mcs_cap;
    }

    /// Advances one subframe: accrues airtime credit and, if the duty
    /// budget allows and some UE is backlogged, issues a grant.
    ///
    /// The grant's `tb_bits` is *deducted from the UE's backlog by the
    /// caller after HARQ resolution* — the scheduler only decides who
    /// transmits what.
    pub fn tick<R: Rng + ?Sized>(&mut self, ues: &mut [UeLink], rng: &mut R) -> Option<Grant> {
        self.elapsed_sf += 1;
        self.credit = (self.credit + self.airtime.0).min(4.0);
        if self.credit < 1.0 || ues.is_empty() {
            return None;
        }
        // Round-robin: first backlogged UE from the pointer.
        let n = ues.len();
        let mut chosen = None;
        for off in 0..n {
            let i = (self.rr_next + off) % n;
            if ues[i].backlog_bits > 0.0 {
                chosen = Some(i);
                break;
            }
        }
        let i = chosen?;
        self.rr_next = (i + 1) % n;
        self.credit -= 1.0;
        self.granted_sf += 1;

        let snr_db = ues[i].channel.sample_snr(rng);
        let cqi = crate::phy::cqi_from_snr(snr_db);
        let mcs = max_mcs_for_cqi(cqi).min(self.mcs_cap.0);
        let tb_bits = tbs_bits(mcs, self.slice_prbs).min(ues[i].backlog_bits.max(1.0));
        Some(Grant { ue: i, mcs, tb_bits, snr_db })
    }

    /// Fraction of elapsed subframes actually granted (realized duty).
    pub fn realized_duty(&self) -> f64 {
        if self.elapsed_sf == 0 {
            0.0
        } else {
            self.granted_sf as f64 / self.elapsed_sf as f64
        }
    }

    /// Resets the duty accounting counters (e.g., per period).
    pub fn reset_accounting(&mut self) {
        self.elapsed_sf = 0;
        self.granted_sf = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn saturated_ues(n: usize, snr: f64) -> Vec<UeLink> {
        (0..n)
            .map(|_| {
                let mut ue = UeLink::new(snr);
                ue.channel = ChannelModel::noiseless(snr);
                ue.backlog_bits = f64::INFINITY;
                ue
            })
            .collect()
    }

    #[test]
    fn airtime_cap_enforced() {
        let mut s = SliceScheduler::new(AirtimePolicy(0.2), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(1, 30.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10_000 {
            s.tick(&mut ues, &mut rng);
        }
        assert!((s.realized_duty() - 0.2).abs() < 0.01, "duty {}", s.realized_duty());
    }

    #[test]
    fn full_airtime_schedules_every_subframe() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(1, 30.0);
        let mut rng = StdRng::seed_from_u64(1);
        let grants = (0..1000).filter(|_| s.tick(&mut ues, &mut rng).is_some()).count();
        assert_eq!(grants, 1000);
    }

    #[test]
    fn no_grant_without_backlog() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = vec![UeLink::new(30.0)];
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.tick(&mut ues, &mut rng).is_none());
        assert_eq!(s.realized_duty(), 0.0);
    }

    #[test]
    fn mcs_respects_policy_cap() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs(5)), 10);
        let mut ues = saturated_ues(1, 35.0); // channel supports MCS 28
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            if let Some(g) = s.tick(&mut ues, &mut rng) {
                assert!(g.mcs <= Mcs(5), "{:?}", g.mcs);
            }
        }
    }

    #[test]
    fn mcs_respects_channel_limit() {
        // Poor channel: even with cap 28 the MCS must stay low.
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(1, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            if let Some(g) = s.tick(&mut ues, &mut rng) {
                assert!(g.mcs < Mcs(10), "{:?} too high for 2 dB", g.mcs);
            }
        }
    }

    #[test]
    fn round_robin_is_fair_among_backlogged_ues() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(3, 30.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            if let Some(g) = s.tick(&mut ues, &mut rng) {
                counts[g.ue] += 1;
            }
        }
        for &c in &counts {
            assert!((c as i64 - 1000).abs() <= 1, "{counts:?}");
        }
    }

    #[test]
    fn round_robin_skips_idle_ues() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(3, 30.0);
        ues[1].backlog_bits = 0.0;
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            if let Some(g) = s.tick(&mut ues, &mut rng) {
                assert_ne!(g.ue, 1);
            }
        }
    }

    #[test]
    fn grant_never_exceeds_backlog() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(1, 30.0);
        ues[0].backlog_bits = 100.0;
        let mut rng = StdRng::seed_from_u64(7);
        let g = s.tick(&mut ues, &mut rng).unwrap();
        assert!(g.tb_bits <= 100.0);
    }

    #[test]
    fn policy_update_takes_effect() {
        let mut s = SliceScheduler::new(AirtimePolicy(1.0), McsPolicy(Mcs::MAX), 10);
        let mut ues = saturated_ues(1, 30.0);
        let mut rng = StdRng::seed_from_u64(8);
        s.set_policies(AirtimePolicy(0.5), McsPolicy(Mcs(3)));
        s.reset_accounting();
        for _ in 0..4000 {
            if let Some(g) = s.tick(&mut ues, &mut rng) {
                assert!(g.mcs <= Mcs(3));
            }
        }
        assert!((s.realized_duty() - 0.5).abs() < 0.02, "duty {}", s.realized_duty());
    }
}
