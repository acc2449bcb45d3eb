//! Deterministic datasets of synthetic scenes.
//!
//! The paper averages every measurement over 150 COCO images; the testbed
//! does the same over a [`Dataset`], which is reproducible from its seed.

use crate::detector::{Detection, DetectorModel};
use crate::map::{mean_average_precision, DEFAULT_IOU_THRESHOLD};
use crate::scene::{Scene, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reproducible collection of scenes.
#[derive(Debug, Clone)]
pub struct Dataset {
    scenes: Vec<Scene>,
    seed: u64,
}

impl Dataset {
    /// Generates `n` scenes deterministically from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let gen = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let scenes = (0..n as u64).map(|id| gen.generate(id, &mut rng)).collect();
        Dataset { scenes, seed }
    }

    /// The scenes.
    pub fn scenes(&self) -> &[Scene] {
        &self.scenes
    }

    /// Number of scenes.
    pub fn len(&self) -> usize {
        self.scenes.len()
    }

    /// `true` when the dataset has no scenes.
    pub fn is_empty(&self) -> bool {
        self.scenes.is_empty()
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs the detector over every scene at resolution `res` and returns
    /// the dataset-level mAP — the noisy per-period precision observation
    /// `rho_t` the learning agent sees.
    ///
    /// `run_seed` decouples detector stochasticity from scene content, so
    /// repeated periods over the same dataset produce different noise
    /// realizations (as on the real testbed).
    pub fn evaluate_map(&self, detector: &DetectorModel, res: f64, run_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(run_seed ^ self.seed.rotate_left(17));
        let all: Vec<(usize, Vec<Detection>)> = self
            .scenes
            .iter()
            .enumerate()
            .map(|(i, s)| (i, detector.detect(s, res, &mut rng)))
            .collect();
        let pairs: Vec<(&Scene, &[Detection])> =
            all.iter().map(|(i, d)| (&self.scenes[*i], d.as_slice())).collect();
        mean_average_precision(&pairs, DEFAULT_IOU_THRESHOLD).map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Dataset::generate(20, 99);
        let b = Dataset::generate(20, 99);
        assert_eq!(a.scenes(), b.scenes());
        assert_eq!(a.len(), 20);
        let c = Dataset::generate(20, 100);
        assert_ne!(a.scenes(), c.scenes());
    }

    #[test]
    fn map_increases_with_resolution() {
        // The headline Fig. 1 relationship, end to end through the real
        // evaluator: mAP at 100% must comfortably exceed mAP at 25%.
        let ds = Dataset::generate(150, 7);
        let det = DetectorModel::default();
        let map_low = ds.evaluate_map(&det, 0.25, 1);
        let map_high = ds.evaluate_map(&det, 1.0, 1);
        assert!(
            map_high > map_low + 0.15,
            "mAP(1.0) = {map_high:.3} should clearly exceed mAP(0.25) = {map_low:.3}"
        );
    }

    #[test]
    fn map_calibration_matches_fig1_targets() {
        let ds = Dataset::generate(150, 42);
        let det = DetectorModel::default();
        let map_full = ds.evaluate_map(&det, 1.0, 3);
        let map_quarter = ds.evaluate_map(&det, 0.25, 3);
        // Paper Fig. 1: ~0.6+ at 100% res, ~0.2-0.3 at 25%.
        assert!((0.50..=0.75).contains(&map_full), "mAP(1.0) = {map_full:.3}");
        assert!((0.12..=0.42).contains(&map_quarter), "mAP(0.25) = {map_quarter:.3}");
    }

    #[test]
    fn different_run_seeds_give_noisy_observations() {
        let ds = Dataset::generate(50, 8);
        let det = DetectorModel::default();
        let a = ds.evaluate_map(&det, 0.5, 1);
        let b = ds.evaluate_map(&det, 0.5, 2);
        assert_ne!(a, b, "observation noise expected");
        assert!((a - b).abs() < 0.15, "noise should be moderate: {a} vs {b}");
    }

    #[test]
    fn empty_dataset_is_empty() {
        let ds = Dataset::generate(0, 1);
        assert!(ds.is_empty());
        assert_eq!(ds.evaluate_map(&DetectorModel::default(), 0.5, 0), 0.0);
    }
}
