//! Behavioural model of the object detector.
//!
//! Instead of running Faster R-CNN, we model *what the learning problem can
//! see of it*: which ground-truth objects get detected, with what box
//! accuracy and confidence, as a function of the image-resolution policy.
//! The mechanisms are the standard ones from the detection literature:
//!
//! * **Scale sensitivity** — detection probability is a logistic function
//!   of the object's *effective* linear size (native size × √res): small
//!   objects vanish first when frames are downscaled.
//! * **Localization noise** — box corners jitter more at lower resolution,
//!   so some matches fall below the IoU 0.5 threshold even when detected.
//! * **Spurious detections** — cluttered scenes produce false positives,
//!   more of them at low resolution, with lower confidence on average.
//!
//! The constants below are calibrated so the resulting mAP(res) curve —
//! computed by the real evaluator in [`crate::map`] — reproduces Fig. 1 of
//! the paper: ≈ 0.2 at 25% resolution to ≈ 0.62 at 100%.

use crate::scene::{BBox, Category, Scene, FRAME_HEIGHT, FRAME_WIDTH};
use edgebol_linalg::stats::normal;
use rand::{Rng, RngExt};

/// One detector output: a classified, scored box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    pub category: Category,
    pub bbox: BBox,
    /// Confidence score in [0, 1]; the evaluator ranks detections by it.
    pub score: f64,
}

/// Tunable detector behaviour.
#[derive(Debug, Clone)]
pub struct DetectorModel {
    /// Effective linear size (pixels) at which detection probability is
    /// half its ceiling.
    pub size50: f64,
    /// Slope of the logistic size response (larger = sharper).
    pub size_slope: f64,
    /// Localization jitter (pixels) at 100% resolution for a 100px object.
    pub loc_noise_base: f64,
    /// Mean number of false positives per image at 25% resolution in a
    /// fully cluttered scene; scales down with resolution.
    pub fp_rate_lowres: f64,
}

impl Default for DetectorModel {
    fn default() -> Self {
        DetectorModel { size50: 40.0, size_slope: 2.2, loc_noise_base: 5.0, fp_rate_lowres: 2.0 }
    }
}

impl DetectorModel {
    /// Probability that a ground-truth object of native linear size
    /// `size_px` is detected at resolution fraction `res`.
    ///
    /// Logistic in `log(effective size / size50)`; capped by the
    /// category's detectability ceiling.
    pub fn detection_probability(&self, category: Category, size_px: f64, res: f64) -> f64 {
        assert!(res > 0.0 && res <= 1.0, "resolution fraction must be in (0,1]");
        let eff = size_px * res.sqrt();
        let x = self.size_slope * (eff / self.size50).ln();
        let logistic = 1.0 / (1.0 + (-x).exp());
        category.detectability() * logistic
    }

    /// Runs the detector model over a scene at resolution `res`.
    ///
    /// Returns the detections (true positives with jittered boxes plus
    /// false positives), unsorted.
    pub fn detect<R: Rng + ?Sized>(&self, scene: &Scene, res: f64, rng: &mut R) -> Vec<Detection> {
        assert!(res > 0.0 && res <= 1.0, "resolution fraction must be in (0,1]");
        let mut out = Vec::with_capacity(scene.objects.len() + 2);
        for gt in &scene.objects {
            let size = gt.bbox.h.max(gt.bbox.w);
            let p = self.detection_probability(gt.category, size, res);
            if rng.random::<f64>() >= p {
                continue;
            }
            // Localization noise grows as resolution falls; proportional to
            // object size (box regression errors are scale-relative).
            let sigma = self.loc_noise_base * (size / 100.0) / res.sqrt().max(0.2);
            let jitter = |rng: &mut R| normal(rng, 0.0, sigma);
            let bbox = BBox::new(
                gt.bbox.x + jitter(rng),
                gt.bbox.y + jitter(rng),
                gt.bbox.w * (1.0 + normal(rng, 0.0, sigma / size.max(1.0))),
                gt.bbox.h * (1.0 + normal(rng, 0.0, sigma / size.max(1.0))),
            );
            // Confidence correlates with detection difficulty.
            let score = (p * (0.75 + 0.25 * rng.random::<f64>())).clamp(0.05, 0.999);
            out.push(Detection { category: gt.category, bbox, score });
        }
        // False positives: clutter- and resolution-driven.
        let lambda = self.fp_rate_lowres * scene.clutter * ((1.05 - res) / 0.8).clamp(0.0, 1.0);
        let n_fp = poisson_knuth(lambda, rng);
        for _ in 0..n_fp {
            let idx = rng.random_range(0..Category::ALL.len());
            let category = Category::ALL[idx];
            let w = 15.0 + rng.random::<f64>() * 80.0;
            let h = 15.0 + rng.random::<f64>() * 80.0;
            out.push(Detection {
                category,
                bbox: BBox::new(
                    rng.random::<f64>() * (FRAME_WIDTH - w),
                    rng.random::<f64>() * (FRAME_HEIGHT - h),
                    w,
                    h,
                ),
                // FPs are mostly low confidence, occasionally high.
                score: (rng.random::<f64>().powi(2) * 0.7 + 0.05).min(0.95),
            });
        }
        out
    }
}

/// Knuth's Poisson sampler (fine for the small rates used here).
fn poisson_knuth<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // Defensive bound; unreachable for sane lambda.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{GroundTruth, SceneGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scene_with(category: Category, size: f64) -> Scene {
        Scene {
            id: 0,
            objects: vec![GroundTruth { category, bbox: BBox::new(100.0, 100.0, size, size) }],
            clutter: 0.0,
        }
    }

    #[test]
    fn detection_probability_monotone_in_resolution() {
        let d = DetectorModel::default();
        let mut prev = 0.0;
        for i in 1..=10 {
            let res = i as f64 / 10.0;
            let p = d.detection_probability(Category::Person, 60.0, res);
            assert!(p >= prev, "p not monotone at res {res}");
            prev = p;
        }
    }

    #[test]
    fn detection_probability_monotone_in_size() {
        let d = DetectorModel::default();
        let small = d.detection_probability(Category::Car, 15.0, 1.0);
        let large = d.detection_probability(Category::Car, 150.0, 1.0);
        assert!(large > small);
        assert!(large <= Category::Car.detectability() + 1e-12);
    }

    #[test]
    fn big_objects_detected_reliably_at_full_res() {
        let d = DetectorModel::default();
        let s = scene_with(Category::Person, 150.0);
        let mut rng = StdRng::seed_from_u64(5);
        let hits: usize =
            (0..500).map(|_| usize::from(!d.detect(&s, 1.0, &mut rng).is_empty())).sum();
        assert!(hits > 420, "hits {hits}");
    }

    #[test]
    fn small_objects_vanish_at_low_res() {
        let d = DetectorModel::default();
        let s = scene_with(Category::Bottle, 22.0);
        let mut rng = StdRng::seed_from_u64(6);
        let hits_low: usize =
            (0..500).map(|_| usize::from(!d.detect(&s, 0.15, &mut rng).is_empty())).sum();
        let hits_high: usize =
            (0..500).map(|_| usize::from(!d.detect(&s, 1.0, &mut rng).is_empty())).sum();
        assert!(hits_low * 2 < hits_high, "low {hits_low} should be well below high {hits_high}");
    }

    #[test]
    fn localization_noise_grows_at_low_res() {
        let d = DetectorModel::default();
        let s = scene_with(Category::Person, 120.0);
        let gt = s.objects[0].bbox;
        let mean_iou = |res: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            let mut n = 0;
            for _ in 0..400 {
                for det in d.detect(&s, res, &mut rng) {
                    total += det.bbox.iou(&gt);
                    n += 1;
                }
            }
            total / n.max(1) as f64
        };
        let iou_high = mean_iou(1.0, 11);
        let iou_low = mean_iou(0.2, 12);
        assert!(iou_high > iou_low, "{iou_high} vs {iou_low}");
        assert!(iou_high > 0.8, "full-res IoU should be high: {iou_high}");
    }

    #[test]
    fn false_positives_appear_in_cluttered_lowres_scenes() {
        let d = DetectorModel::default();
        let mut s = scene_with(Category::Person, 1000.0);
        s.objects.clear(); // no GT: every detection is an FP
        s.clutter = 1.0;
        let mut rng = StdRng::seed_from_u64(7);
        let fps: usize = (0..300).map(|_| d.detect(&s, 0.25, &mut rng).len()).sum();
        assert!(fps > 100, "expected FPs in cluttered low-res scenes, got {fps}");
        let fps_high: usize = (0..300).map(|_| d.detect(&s, 1.0, &mut rng).len()).sum();
        assert!(fps_high < fps, "FPs should drop at high res: {fps_high} vs {fps}");
    }

    #[test]
    fn detect_is_deterministic_given_seed() {
        let d = DetectorModel::default();
        let g = SceneGenerator::default();
        let s = g.generate(1, &mut StdRng::seed_from_u64(1));
        let a = d.detect(&s, 0.5, &mut StdRng::seed_from_u64(2));
        let b = d.detect(&s, 0.5, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(poisson_knuth(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson_knuth(2.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
