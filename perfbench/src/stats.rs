//! Order statistics and output digests.

pub use edgebol_linalg::stats::percentile;

/// Median of `samples` (linear interpolation between the middle two);
/// NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Derives an independent sub-seed (splitmix64 of `seed` and `salt`).
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Wall times of the periods of an episode that is replayed bit for bit:
/// for each period position, its time in up to [`PeriodTimes::KEPT`]
/// repetitions, reduced to the median over them. On a shared host the
/// same period's time swings by up to 1.5× as the host's load shifts
/// over seconds to minutes; the median over repetitions spread across
/// the run, taken per position and then summed or ranked over positions,
/// varies least from run to run (the fastest repetition would follow how
/// many fast moments the run happened to catch). The store is allocated
/// and written up front, so the benchmark's own footprint does not grow
/// with the length of a run, and it holds `f32` (7 significant digits,
/// far finer than a period's run-to-run spread) so that on control-plane,
/// whose two stores hold 5 000 positions each, it stays near 1 MiB of the
/// `peak_rss_mib` the workload is measured by.
#[derive(Debug, Clone)]
pub struct PeriodTimes {
    times: Vec<f32>,
    counts: Vec<usize>,
}

impl PeriodTimes {
    /// Repetitions kept per position; later ones are not recorded.
    pub const KEPT: usize = 32;

    /// An empty store for `positions` period positions.
    pub fn new(positions: usize) -> Self {
        PeriodTimes { times: vec![f32::NAN; positions * Self::KEPT], counts: vec![0; positions] }
    }

    /// Records one repetition of positions `first..first + times.len()`;
    /// a position that already holds [`Self::KEPT`] repetitions keeps
    /// them.
    ///
    /// # Panics
    /// If the repetition runs past the last position.
    pub fn add(&mut self, first: usize, times: &[f64]) {
        for (pos, &t) in (first..).zip(times) {
            let n = self.counts[pos];
            if n < Self::KEPT {
                self.times[pos * Self::KEPT + n] = t as f32;
                self.counts[pos] = n + 1;
            }
        }
    }

    /// Fewest repetitions any position holds.
    pub fn min_reps(&self) -> usize {
        self.counts.iter().copied().min().unwrap_or(0)
    }

    /// Each recorded position's median time over its repetitions.
    pub fn medians(&self) -> Vec<f64> {
        (self.times.chunks(Self::KEPT).zip(&self.counts))
            .filter(|(_, &n)| n > 0)
            .map(|(reps, &n)| median(&reps[..n].iter().map(|&t| f64::from(t)).collect::<Vec<_>>()))
            .collect()
    }
}

/// FNV-1a over the exact bits of a run's outputs: equal digests mean
/// bit-identical outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in the exact bits of a float.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_times_take_each_positions_median_over_kept_repetitions() {
        let mut t = PeriodTimes::new(4);
        t.add(0, &[1.0, 10.0, 100.0]);
        t.add(0, &[9.0, 20.0, 300.0]);
        t.add(0, &[2.0, 5.0, 200.0]);
        assert_eq!(t.medians(), [2.0, 10.0, 200.0], "one slow repetition does not move a position");
        assert_eq!(t.min_reps(), 0, "position 3 was never recorded");
        t.add(3, &[7.0]);
        t.add(3, &[8.0]);
        assert_eq!(t.min_reps(), 2);
        assert_eq!(t.medians(), [2.0, 10.0, 200.0, 7.5], "even counts interpolate");
        for _ in 0..PeriodTimes::KEPT {
            t.add(3, &[1e9]);
        }
        assert_eq!(t.medians()[3], 1e9, "the store keeps KEPT repetitions");
        assert_eq!(t.counts[3], PeriodTimes::KEPT, "later repetitions are not recorded");
        assert_eq!(PeriodTimes::new(2).medians(), Vec::<f64>::new(), "empty positions are skipped");
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        a.f64(0.1);
        let mut b = Digest::new();
        b.f64(f64::from_bits(0.1f64.to_bits() + 1));
        let mut c = Digest::new();
        c.f64(0.1);
        assert_eq!(a, c);
        assert_ne!(a, b, "one ulp apart");
        assert_eq!(a.hex().len(), 16);
    }
}
