//! Synthetic COCO-like scenes with ground-truth annotations.

use edgebol_linalg::stats::normal;
use rand::{Rng, RngExt};

/// Native frame width at 100% resolution (the paper's maximum is 640x480).
pub const FRAME_WIDTH: f64 = 640.0;
/// Native frame height at 100% resolution.
pub const FRAME_HEIGHT: f64 = 480.0;

/// Object categories, loosely mirroring frequent COCO classes.
///
/// Each category carries a characteristic linear size (pixels at 100%
/// resolution) and a detectability ceiling, so that e.g. `Person` is large
/// and easy while `Bottle` is small and hard — which is what makes mAP
/// degrade with downscaling in a structured way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    Person,
    Bicycle,
    Car,
    Bus,
    Dog,
    Chair,
    Bottle,
    Laptop,
    Tv,
    Truck,
}

impl Category {
    /// All categories, in a stable order.
    pub const ALL: [Category; 10] = [
        Category::Person,
        Category::Bicycle,
        Category::Car,
        Category::Bus,
        Category::Dog,
        Category::Chair,
        Category::Bottle,
        Category::Laptop,
        Category::Tv,
        Category::Truck,
    ];

    /// Median linear size in pixels at full (640x480) resolution.
    pub fn median_size(self) -> f64 {
        match self {
            Category::Person => 120.0,
            Category::Bicycle => 90.0,
            Category::Car => 100.0,
            Category::Bus => 180.0,
            Category::Dog => 70.0,
            Category::Chair => 60.0,
            Category::Bottle => 28.0,
            Category::Laptop => 55.0,
            Category::Tv => 85.0,
            Category::Truck => 160.0,
        }
    }

    /// Detectability ceiling: the probability that a *large, clear*
    /// instance is found by the detector. Mirrors per-class AP spread in
    /// COCO results (no class is detected perfectly).
    pub fn detectability(self) -> f64 {
        match self {
            Category::Person => 0.92,
            Category::Bicycle => 0.72,
            Category::Car => 0.86,
            Category::Bus => 0.88,
            Category::Dog => 0.82,
            Category::Chair => 0.62,
            Category::Bottle => 0.58,
            Category::Laptop => 0.78,
            Category::Tv => 0.84,
            Category::Truck => 0.80,
        }
    }

    /// Relative frequency weight in generated scenes (unnormalized).
    pub fn frequency(self) -> f64 {
        match self {
            Category::Person => 4.0,
            Category::Car => 3.0,
            Category::Chair => 2.0,
            Category::Bottle => 2.0,
            Category::Dog => 1.0,
            Category::Bicycle => 1.0,
            Category::Bus => 0.7,
            Category::Laptop => 1.0,
            Category::Tv => 1.0,
            Category::Truck => 0.8,
        }
    }
}

/// An axis-aligned bounding box in pixel coordinates (`x`, `y` = top-left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub x: f64,
    pub y: f64,
    pub w: f64,
    pub h: f64,
}

impl BBox {
    /// Creates a box; width/height are clamped to be non-negative.
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        BBox { x, y, w: w.max(0.0), h: h.max(0.0) }
    }

    /// Box area.
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Intersection-over-Union with another box — the matching criterion
    /// of Performance Indicator 2 (threshold 0.5 in the paper).
    pub fn iou(&self, other: &BBox) -> f64 {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.w).min(other.x + other.w);
        let y2 = (self.y + self.h).min(other.y + other.h);
        let iw = (x2 - x1).max(0.0);
        let ih = (y2 - y1).max(0.0);
        let inter = iw * ih;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// One annotated ground-truth object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    pub category: Category,
    pub bbox: BBox,
}

/// A synthetic scene: a frame full of annotated objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Scene identifier within its dataset.
    pub id: u64,
    pub objects: Vec<GroundTruth>,
    /// Scene "clutter" in [0, 1]; cluttered scenes produce more false
    /// positives in the detector model.
    pub clutter: f64,
}

impl Scene {
    /// Number of annotated objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }
}

/// Configuration of the scene generator.
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    /// Mean number of objects per scene (geometric-like distribution,
    /// at least 1).
    pub mean_objects: f64,
    /// Log-normal spread of object sizes around the category median.
    pub size_sigma: f64,
}

impl Default for SceneGenerator {
    fn default() -> Self {
        // COCO averages ~7 objects/image; keep a similar density.
        SceneGenerator { mean_objects: 6.0, size_sigma: 0.45 }
    }
}

impl SceneGenerator {
    /// Generates one scene with the provided RNG.
    pub fn generate<R: Rng + ?Sized>(&self, id: u64, rng: &mut R) -> Scene {
        let n = self.draw_count(rng);
        let total_freq: f64 = Category::ALL.iter().map(|c| c.frequency()).sum();
        let mut objects = Vec::with_capacity(n);
        for _ in 0..n {
            // Weighted category draw.
            let mut pick = rng.random::<f64>() * total_freq;
            let mut category = Category::Person;
            for c in Category::ALL {
                pick -= c.frequency();
                if pick <= 0.0 {
                    category = c;
                    break;
                }
            }
            // Log-normal size around the category median, clamped to frame.
            let size = (category.median_size() * normal(rng, 0.0, self.size_sigma).exp())
                .clamp(8.0, FRAME_HEIGHT * 0.95);
            let aspect = (0.6 + rng.random::<f64>() * 0.9).min(1.5);
            let w = (size * aspect).min(FRAME_WIDTH * 0.95);
            let h = size;
            let x = rng.random::<f64>() * (FRAME_WIDTH - w).max(1.0);
            let y = rng.random::<f64>() * (FRAME_HEIGHT - h).max(1.0);
            objects.push(GroundTruth { category, bbox: BBox::new(x, y, w, h) });
        }
        Scene { id, objects, clutter: rng.random::<f64>() }
    }

    /// Draws the object count: 1 + geometric-ish around `mean_objects`.
    fn draw_count<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let extra = (self.mean_objects - 1.0).max(0.0);
        let mut n = 1usize;
        // Sum of Bernoulli rounds approximating a Poisson-like spread.
        for _ in 0..(extra.ceil() as usize * 2) {
            if rng.random::<f64>() < 0.5 {
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn iou_identical_boxes_is_one() {
        let b = BBox::new(10.0, 10.0, 50.0, 40.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_disjoint_boxes_is_zero() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(100.0, 100.0, 10.0, 10.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap_known_value() {
        // Two 10x10 boxes offset by 5 in x: inter = 50, union = 150.
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(5.0, 0.0, 10.0, 10.0);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.iou(&b), b.iou(&a));
    }

    #[test]
    fn iou_degenerate_boxes() {
        let a = BBox::new(0.0, 0.0, 0.0, 0.0);
        let b = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.iou(&b), 0.0);
        assert_eq!(a.iou(&a), 0.0);
    }

    #[test]
    fn bbox_clamps_negative_dims() {
        let b = BBox::new(0.0, 0.0, -5.0, 3.0);
        assert_eq!(b.w, 0.0);
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let g = SceneGenerator::default();
        let s1 = g.generate(7, &mut StdRng::seed_from_u64(123));
        let s2 = g.generate(7, &mut StdRng::seed_from_u64(123));
        assert_eq!(s1, s2);
    }

    #[test]
    fn generated_objects_fit_in_frame() {
        let g = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(9);
        for id in 0..200 {
            let s = g.generate(id, &mut rng);
            assert!(s.num_objects() >= 1);
            for o in &s.objects {
                assert!(o.bbox.x >= 0.0 && o.bbox.y >= 0.0);
                assert!(o.bbox.x + o.bbox.w <= FRAME_WIDTH + 1e-9);
                assert!(o.bbox.y + o.bbox.h <= FRAME_HEIGHT + 1e-9);
                assert!(o.bbox.w >= 4.0, "degenerate object");
            }
        }
    }

    #[test]
    fn category_tables_are_sane() {
        for c in Category::ALL {
            assert!(c.median_size() > 0.0);
            assert!((0.0..=1.0).contains(&c.detectability()));
            assert!(c.frequency() > 0.0);
        }
        // Persons are more detectable than bottles: size/visibility prior.
        assert!(Category::Person.detectability() > Category::Bottle.detectability());
    }

    #[test]
    fn mean_object_count_tracks_config() {
        let g = SceneGenerator { mean_objects: 6.0, size_sigma: 0.3 };
        let mut rng = StdRng::seed_from_u64(1);
        let total: usize = (0..500).map(|i| g.generate(i, &mut rng).num_objects()).sum();
        let mean = total as f64 / 500.0;
        assert!((mean - 6.0).abs() < 1.0, "mean objects {mean}");
    }
}
