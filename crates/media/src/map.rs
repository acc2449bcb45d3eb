//! Mean-average-precision evaluator (Performance Indicator 2).
//!
//! Implements the full machinery the paper describes: detections are
//! matched to ground truth per category at IoU ≥ threshold (0.5 in the
//! paper), greedily in descending score order; precision–recall points are
//! accumulated; per-class AP is the area under the (all-point interpolated)
//! PR curve; mAP is the mean AP over categories with ground truth.

use crate::detector::Detection;
use crate::scene::{Category, Scene};
use std::cmp::Ordering;

/// Default IoU threshold for a true positive (the paper uses 0.5).
pub const DEFAULT_IOU_THRESHOLD: f64 = 0.5;

/// Per-category AP and supporting counts.
#[derive(Debug, Clone)]
pub struct MapBreakdown {
    /// `(category, ap, num_ground_truth)` for every category with GT.
    pub per_category: Vec<(Category, f64, usize)>,
    /// The mean of per-category APs (the mAP).
    pub map: f64,
}

/// One scored detection flattened across images.
#[derive(Clone, Copy)]
struct Flat {
    image: usize,
    det_index: usize,
    score: f64,
}

/// Ranking order: descending score, NaN last.
///
/// A total order, so `sort_by` cannot panic on a NaN score. On finite
/// scores it is the plain descending order; only a `+0`/`-0` pair, which
/// compares equal there, is ordered `+0` first.
fn by_score(a: &Flat, b: &Flat) -> Ordering {
    a.score.is_nan().cmp(&b.score.is_nan()).then_with(|| b.score.total_cmp(&a.score))
}

/// Number of categories. `c as usize` indexes [`Category::ALL`]: the
/// declaration order is `ALL`'s order.
const N_CAT: usize = Category::ALL.len();

/// One set of samples prepared for evaluation in a single pass, plus the
/// buffers every category reuses.
///
/// The pass counts ground truth per category and groups the detections by
/// category with a counting sort, so each group holds exactly the
/// detections a per-category filter would pick, in the same (image,
/// index) order; the stable score sort then orders them identically. All
/// categories share one `matched` flag per object: matching reads a flag
/// only after checking the object's category, and every object has one
/// category, so the sharing is invisible.
struct Evaluator<'s, 'a> {
    samples: &'s [(&'a Scene, &'a [Detection])],
    n_gt: [usize; N_CAT],
    /// Category `c`'s detections are `flat[start[c]..start[c + 1]]`.
    flat: Vec<Flat>,
    start: [usize; N_CAT + 1],
    /// Object `gi` of sample `img` is `matched[offsets[img] + gi]`.
    offsets: Vec<usize>,
    matched: Vec<bool>,
    precisions: Vec<f64>,
    recalls: Vec<f64>,
}

impl<'s, 'a> Evaluator<'s, 'a> {
    fn new(samples: &'s [(&'a Scene, &'a [Detection])]) -> Self {
        let mut n_gt = [0; N_CAT];
        let mut n_det = [0; N_CAT];
        let mut offsets = Vec::with_capacity(samples.len());
        let mut n_objects = 0;
        for (scene, dets) in samples {
            offsets.push(n_objects);
            n_objects += scene.objects.len();
            for o in &scene.objects {
                n_gt[o.category as usize] += 1;
            }
            for d in dets.iter() {
                n_det[d.category as usize] += 1;
            }
        }
        let mut start = [0; N_CAT + 1];
        for c in 0..N_CAT {
            start[c + 1] = start[c] + n_det[c];
        }
        let mut next = start;
        let mut flat = vec![Flat { image: 0, det_index: 0, score: 0.0 }; start[N_CAT]];
        for (image, (_, dets)) in samples.iter().enumerate() {
            for (det_index, d) in dets.iter().enumerate() {
                let slot = &mut next[d.category as usize];
                flat[*slot] = Flat { image, det_index, score: d.score };
                *slot += 1;
            }
        }
        Evaluator {
            samples,
            n_gt,
            flat,
            start,
            offsets,
            matched: vec![false; n_objects],
            precisions: Vec::new(),
            recalls: Vec::new(),
        }
    }

    /// AP of one category; `None` without ground truth. Each category may
    /// be evaluated at most once per `Evaluator` (its matches stay set).
    fn average_precision(&mut self, category: Category, iou_threshold: f64) -> Option<f64> {
        let c = category as usize;
        let n_gt = self.n_gt[c];
        if n_gt == 0 {
            return None;
        }
        let group = &mut self.flat[self.start[c]..self.start[c + 1]];
        group.sort_by(by_score);

        // Greedy matching, and the precision-recall point after each
        // detection.
        self.precisions.clear();
        self.recalls.clear();
        let mut n_tp = 0usize;
        for (i, f) in group.iter().enumerate() {
            let (scene, dets) = &self.samples[f.image];
            let det = &dets[f.det_index];
            let matched = &mut self.matched[self.offsets[f.image]..];
            // Best unmatched GT of the same category.
            let mut best: Option<(usize, f64)> = None;
            for (gi, gt) in scene.objects.iter().enumerate() {
                if gt.category != category || matched[gi] {
                    continue;
                }
                let iou = det.bbox.iou(&gt.bbox);
                if iou >= iou_threshold && best.is_none_or(|(_, b)| iou > b) {
                    best = Some((gi, iou));
                }
            }
            if let Some((gi, _)) = best {
                matched[gi] = true;
                n_tp += 1;
            }
            self.precisions.push(n_tp as f64 / (i + 1) as f64);
            self.recalls.push(n_tp as f64 / n_gt as f64);
        }

        // All-point interpolation: make precision monotonically non-increasing
        // from the right, then integrate over recall.
        let precisions = &mut self.precisions;
        for i in (0..precisions.len().saturating_sub(1)).rev() {
            if precisions[i] < precisions[i + 1] {
                precisions[i] = precisions[i + 1];
            }
        }
        let mut ap = 0.0;
        let mut prev_recall = 0.0;
        for (&recall, &precision) in self.recalls.iter().zip(precisions.iter()) {
            let dr = recall - prev_recall;
            if dr > 0.0 {
                ap += dr * precision;
                prev_recall = recall;
            }
        }
        Some(ap)
    }
}

/// Computes the average precision of one category over a set of images.
///
/// `samples` is a slice of `(scene, detections)` pairs; only objects and
/// detections of `category` are considered. Uses greedy matching in
/// descending score order (each ground-truth object can match at most one
/// detection; NaN-scored detections rank last) and all-point
/// interpolation of the PR curve, as in VOC 2010+ / COCO.
///
/// Returns `None` when the category has no ground-truth instance.
pub fn average_precision(
    samples: &[(&Scene, &[Detection])],
    category: Category,
    iou_threshold: f64,
) -> Option<f64> {
    Evaluator::new(samples).average_precision(category, iou_threshold)
}

/// Computes the mAP over all categories present in the ground truth.
///
/// One pass over `samples` prepares every category (see
/// [`average_precision`] for the per-category rules).
///
/// Returns 0 when there is no ground truth at all (degenerate input).
pub fn mean_average_precision(
    samples: &[(&Scene, &[Detection])],
    iou_threshold: f64,
) -> MapBreakdown {
    let mut eval = Evaluator::new(samples);
    let mut per_category = Vec::new();
    for c in Category::ALL {
        if let Some(ap) = eval.average_precision(c, iou_threshold) {
            per_category.push((c, ap, eval.n_gt[c as usize]));
        }
    }
    let map = if per_category.is_empty() {
        0.0
    } else {
        per_category.iter().map(|(_, ap, _)| ap).sum::<f64>() / per_category.len() as f64
    };
    MapBreakdown { per_category, map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{BBox, GroundTruth};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// The evaluator as it was before the one-pass grouping: one filtered
    /// pass, one `matched` table and fresh buffers per category. The
    /// equivalence properties below hold the current code to it bit for
    /// bit.
    mod reference {
        use crate::detector::Detection;
        use crate::map::MapBreakdown;
        use crate::scene::{Category, Scene};

        struct Flat {
            image: usize,
            det_index: usize,
            score: f64,
        }

        pub fn average_precision(
            samples: &[(&Scene, &[Detection])],
            category: Category,
            iou_threshold: f64,
        ) -> Option<f64> {
            let mut n_gt = 0usize;
            for (scene, _) in samples {
                n_gt += scene.objects.iter().filter(|o| o.category == category).count();
            }
            if n_gt == 0 {
                return None;
            }
            let mut flat: Vec<Flat> = Vec::new();
            for (img, (_, dets)) in samples.iter().enumerate() {
                for (di, d) in dets.iter().enumerate() {
                    if d.category == category {
                        flat.push(Flat { image: img, det_index: di, score: d.score });
                    }
                }
            }
            flat.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
            let mut matched: Vec<Vec<bool>> =
                samples.iter().map(|(scene, _)| vec![false; scene.objects.len()]).collect();
            let mut tp = Vec::with_capacity(flat.len());
            for f in &flat {
                let (scene, dets) = &samples[f.image];
                let det = &dets[f.det_index];
                let mut best: Option<(usize, f64)> = None;
                for (gi, gt) in scene.objects.iter().enumerate() {
                    if gt.category != category || matched[f.image][gi] {
                        continue;
                    }
                    let iou = det.bbox.iou(&gt.bbox);
                    if iou >= iou_threshold && best.is_none_or(|(_, b)| iou > b) {
                        best = Some((gi, iou));
                    }
                }
                match best {
                    Some((gi, _)) => {
                        matched[f.image][gi] = true;
                        tp.push(true);
                    }
                    None => tp.push(false),
                }
            }
            let mut precisions = Vec::with_capacity(tp.len());
            let mut recalls = Vec::with_capacity(tp.len());
            let mut n_tp = 0usize;
            for (i, &is_tp) in tp.iter().enumerate() {
                if is_tp {
                    n_tp += 1;
                }
                precisions.push(n_tp as f64 / (i + 1) as f64);
                recalls.push(n_tp as f64 / n_gt as f64);
            }
            for i in (0..precisions.len().saturating_sub(1)).rev() {
                if precisions[i] < precisions[i + 1] {
                    precisions[i] = precisions[i + 1];
                }
            }
            let mut ap = 0.0;
            let mut prev_recall = 0.0;
            for i in 0..recalls.len() {
                let dr = recalls[i] - prev_recall;
                if dr > 0.0 {
                    ap += dr * precisions[i];
                    prev_recall = recalls[i];
                }
            }
            Some(ap)
        }

        pub fn mean_average_precision(
            samples: &[(&Scene, &[Detection])],
            iou_threshold: f64,
        ) -> MapBreakdown {
            let mut per_category = Vec::new();
            for c in Category::ALL {
                let n_gt: usize = samples
                    .iter()
                    .map(|(s, _)| s.objects.iter().filter(|o| o.category == c).count())
                    .sum();
                if n_gt == 0 {
                    continue;
                }
                if let Some(ap) = average_precision(samples, c, iou_threshold) {
                    per_category.push((c, ap, n_gt));
                }
            }
            let map = if per_category.is_empty() {
                0.0
            } else {
                per_category.iter().map(|(_, ap, _)| ap).sum::<f64>() / per_category.len() as f64
            };
            MapBreakdown { per_category, map }
        }
    }

    /// Scenes on a coarse 12-slot layout, so detections land on, near and
    /// off the objects. Objects use the first `obj_cats` categories and
    /// detections the first `det_cats`, so some categories have no ground
    /// truth but do have detections. Scores come from five levels (ties)
    /// or a continuous range, always finite and non-zero.
    fn arb_samples(
        obj_cats: usize,
        det_cats: usize,
        max_dets: usize,
    ) -> impl Strategy<Value = Vec<(Scene, Vec<Detection>)>> {
        let score = prop_oneof![(1u32..=5).prop_map(|k| k as f64 / 5.0), 0.01f64..1.0];
        let scene = (
            proptest::collection::vec((0..obj_cats, 0usize..12, 20.0f64..40.0), 0..12),
            proptest::collection::vec((0..det_cats, 0usize..12, 0.0f64..15.0, score), 0..max_dets),
        );
        proptest::collection::vec(scene, 0..6).prop_map(|scenes| {
            scenes
                .into_iter()
                .enumerate()
                .map(|(id, (objects, dets))| {
                    let objects = objects
                        .into_iter()
                        .map(|(c, slot, size)| GroundTruth {
                            category: Category::ALL[c],
                            bbox: BBox::new(slot as f64 * 50.0, 10.0, size, size),
                        })
                        .collect();
                    let dets = dets
                        .into_iter()
                        .map(|(c, slot, jitter, score)| Detection {
                            category: Category::ALL[c],
                            bbox: BBox::new(slot as f64 * 50.0 + jitter, 10.0, 30.0, 30.0),
                            score,
                        })
                        .collect();
                    (Scene { id: id as u64, objects, clutter: 0.0 }, dets)
                })
                .collect()
        })
    }

    /// Spread samples touch many categories; crowded ones often put more
    /// than 32 detections, ties among them, in one category: past that
    /// length the standard library's unstable sort reorders ties, so
    /// only these cases tell a stable ranking from an unstable one.
    fn arb_mixed_samples() -> impl Strategy<Value = Vec<(Scene, Vec<Detection>)>> {
        prop_oneof![arb_samples(4, 6, 12), arb_samples(2, 3, 32)]
    }

    fn pairs(owned: &[(Scene, Vec<Detection>)]) -> Vec<(&Scene, &[Detection])> {
        owned.iter().map(|(s, d)| (s, d.as_slice())).collect()
    }

    proptest! {
        #[test]
        fn mean_average_precision_matches_reference_bit_for_bit(
            owned in arb_mixed_samples(),
            iou in prop_oneof![Just(DEFAULT_IOU_THRESHOLD), 0.1f64..0.9],
        ) {
            let samples = pairs(&owned);
            let new = mean_average_precision(&samples, iou);
            let old = reference::mean_average_precision(&samples, iou);
            prop_assert_eq!(new.map.to_bits(), old.map.to_bits(), "map {} vs {}", new.map, old.map);
            let bits = |b: &MapBreakdown| -> Vec<(Category, u64, usize)> {
                b.per_category.iter().map(|&(c, ap, n)| (c, ap.to_bits(), n)).collect()
            };
            prop_assert_eq!(bits(&new), bits(&old));
        }

        #[test]
        fn average_precision_matches_reference_bit_for_bit(owned in arb_mixed_samples()) {
            let samples = pairs(&owned);
            for c in Category::ALL {
                let new = average_precision(&samples, c, DEFAULT_IOU_THRESHOLD);
                let old = reference::average_precision(&samples, c, DEFAULT_IOU_THRESHOLD);
                prop_assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits), "{c:?}");
            }
        }
    }

    #[test]
    fn category_discriminants_index_all() {
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(Category::ALL[c as usize], c);
        }
    }

    #[test]
    fn nan_scores_never_panic_and_rank_last() {
        // Random lists long enough for the sort's total-order check,
        // about one score in five NaN.
        let mut rng = SmallRng::seed_from_u64(0x0A4E);
        for case in 0..300 {
            let objects: Vec<GroundTruth> = (0..rng.random_range(1..8usize))
                .map(|k| gt(Category::ALL[k % 3], k as f64 * 50.0))
                .collect();
            let scene = Scene { id: case, objects, clutter: 0.0 };
            let dets: Vec<Detection> = (0..rng.random_range(5..=64usize))
                .map(|_| {
                    let score =
                        if rng.random::<f64>() < 0.2 { f64::NAN } else { rng.random::<f64>() };
                    let x = rng.random_range(0..8u32) as f64 * 50.0 + rng.random::<f64>() * 8.0;
                    det(Category::ALL[rng.random_range(0..4usize)], x, score)
                })
                .collect();
            let samples = [(&scene, dets.as_slice())];
            for c in Category::ALL {
                if let Some(ap) = average_precision(&samples, c, DEFAULT_IOU_THRESHOLD) {
                    assert!((0.0..=1.0).contains(&ap), "case {case} {c:?}: ap {ap}");
                }
            }
            let map = mean_average_precision(&samples, DEFAULT_IOU_THRESHOLD).map;
            assert!((0.0..=1.0).contains(&map), "case {case}: map {map}");
        }
        // A NaN-scored false positive ranks after the true positive.
        let scene = Scene { id: 0, objects: vec![gt(Category::Car, 0.0)], clutter: 0.0 };
        let dets = [det(Category::Car, 300.0, f64::NAN), det(Category::Car, 0.0, 0.5)];
        let ap = average_precision(&[(&scene, &dets)], Category::Car, DEFAULT_IOU_THRESHOLD);
        assert_eq!(ap, Some(1.0));
    }

    fn gt(cat: Category, x: f64) -> GroundTruth {
        GroundTruth { category: cat, bbox: BBox::new(x, 0.0, 10.0, 10.0) }
    }

    fn det(cat: Category, x: f64, score: f64) -> Detection {
        Detection { category: cat, bbox: BBox::new(x, 0.0, 10.0, 10.0), score }
    }

    #[test]
    fn perfect_detections_give_ap_one() {
        let scene = Scene {
            id: 0,
            objects: vec![gt(Category::Car, 0.0), gt(Category::Car, 100.0)],
            clutter: 0.0,
        };
        let dets = vec![det(Category::Car, 0.0, 0.9), det(Category::Car, 100.0, 0.8)];
        let ap =
            average_precision(&[(&scene, &dets)], Category::Car, DEFAULT_IOU_THRESHOLD).unwrap();
        assert!((ap - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missed_objects_reduce_ap_via_recall() {
        let scene = Scene {
            id: 0,
            objects: vec![gt(Category::Car, 0.0), gt(Category::Car, 100.0)],
            clutter: 0.0,
        };
        // Only one of two objects detected: AP = recall plateau 0.5.
        let dets = vec![det(Category::Car, 0.0, 0.9)];
        let ap =
            average_precision(&[(&scene, &dets)], Category::Car, DEFAULT_IOU_THRESHOLD).unwrap();
        assert!((ap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_ap_with_interleaved_fp() {
        // TP(0.9), FP(0.8), TP(0.7) over 2 GT:
        // precisions 1, 1/2, 2/3; recalls 0.5, 0.5, 1.0.
        // All-point interp: AP = 0.5*1 + 0.5*(2/3) = 5/6.
        let scene = Scene {
            id: 0,
            objects: vec![gt(Category::Dog, 0.0), gt(Category::Dog, 100.0)],
            clutter: 0.0,
        };
        let dets = vec![
            det(Category::Dog, 0.0, 0.9),
            det(Category::Dog, 300.0, 0.8), // FP: no GT there
            det(Category::Dog, 100.0, 0.7),
        ];
        let ap =
            average_precision(&[(&scene, &dets)], Category::Dog, DEFAULT_IOU_THRESHOLD).unwrap();
        assert!((ap - 5.0 / 6.0).abs() < 1e-12, "ap {ap}");
    }

    #[test]
    fn duplicate_detections_count_as_fp() {
        let scene = Scene { id: 0, objects: vec![gt(Category::Car, 0.0)], clutter: 0.0 };
        // Same GT hit twice: second is an FP (greedy one-to-one matching).
        let dets = vec![det(Category::Car, 0.0, 0.9), det(Category::Car, 1.0, 0.8)];
        let ap =
            average_precision(&[(&scene, &dets)], Category::Car, DEFAULT_IOU_THRESHOLD).unwrap();
        assert!((ap - 1.0).abs() < 1e-12, "recall reached 1.0 before the FP: ap {ap}");
        // But if the duplicate outranks the true one, AP drops.
        let dets2 = vec![det(Category::Car, 6.0, 0.95), det(Category::Car, 0.0, 0.9)];
        let ap2 =
            average_precision(&[(&scene, &dets2)], Category::Car, DEFAULT_IOU_THRESHOLD).unwrap();
        assert!(ap2 < 1.0, "ap2 {ap2}");
    }

    #[test]
    fn low_iou_match_is_fp() {
        let scene = Scene { id: 0, objects: vec![gt(Category::Car, 0.0)], clutter: 0.0 };
        // Offset 8 of 10 px: IoU = 2/18 < 0.5.
        let dets = vec![det(Category::Car, 8.0, 0.9)];
        let ap =
            average_precision(&[(&scene, &dets)], Category::Car, DEFAULT_IOU_THRESHOLD).unwrap();
        assert_eq!(ap, 0.0);
    }

    #[test]
    fn category_without_gt_is_excluded() {
        let scene = Scene { id: 0, objects: vec![gt(Category::Car, 0.0)], clutter: 0.0 };
        let dets: Vec<Detection> = vec![];
        assert!(average_precision(&[(&scene, &dets)], Category::Dog, 0.5).is_none());
        let bd = mean_average_precision(&[(&scene, &dets)], 0.5);
        assert_eq!(bd.per_category.len(), 1);
        assert_eq!(bd.per_category[0].0, Category::Car);
    }

    #[test]
    fn map_is_mean_of_class_aps() {
        let scene = Scene {
            id: 0,
            objects: vec![gt(Category::Car, 0.0), gt(Category::Dog, 100.0)],
            clutter: 0.0,
        };
        // Car found, dog missed: APs 1.0 and 0.0 -> mAP 0.5.
        let dets = vec![det(Category::Car, 0.0, 0.9)];
        let bd = mean_average_precision(&[(&scene, &dets)], DEFAULT_IOU_THRESHOLD);
        assert!((bd.map - 0.5).abs() < 1e-12);
    }

    #[test]
    fn map_over_multiple_images_pools_detections() {
        let s1 = Scene { id: 0, objects: vec![gt(Category::Car, 0.0)], clutter: 0.0 };
        let s2 = Scene { id: 1, objects: vec![gt(Category::Car, 0.0)], clutter: 0.0 };
        let d1 = vec![det(Category::Car, 0.0, 0.9)];
        let d2: Vec<Detection> = vec![];
        let bd = mean_average_precision(&[(&s1, &d1), (&s2, &d2)], 0.5);
        // One of two instances found: AP 0.5.
        assert!((bd.map - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_zero_map() {
        let bd = mean_average_precision(&[], 0.5);
        assert_eq!(bd.map, 0.0);
        assert!(bd.per_category.is_empty());
    }

    #[test]
    fn higher_scored_fps_hurt_more() {
        // FP above all TPs suppresses precision at every recall level.
        let scene = Scene {
            id: 0,
            objects: vec![gt(Category::Car, 0.0), gt(Category::Car, 50.0)],
            clutter: 0.0,
        };
        let fp_low = vec![
            det(Category::Car, 0.0, 0.9),
            det(Category::Car, 50.0, 0.8),
            det(Category::Car, 300.0, 0.1),
        ];
        let fp_high = vec![
            det(Category::Car, 300.0, 0.99),
            det(Category::Car, 0.0, 0.9),
            det(Category::Car, 50.0, 0.8),
        ];
        let ap_low = average_precision(&[(&scene, &fp_low)], Category::Car, 0.5).unwrap();
        let ap_high = average_precision(&[(&scene, &fp_high)], Category::Car, 0.5).unwrap();
        assert!(ap_high < ap_low, "{ap_high} vs {ap_low}");
    }
}
