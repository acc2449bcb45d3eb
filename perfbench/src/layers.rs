//! Direct calls into the `gp` and `linalg` layers at a workload's shape:
//! by default the paper episode's final period — a 200-point window over
//! the 7-dim context × control space and the 2 048-candidate subsample.

use crate::stats::{median, mix};
use edgebol_gp::{GaussianProcess, Kernel};
use edgebol_linalg::{Cholesky, Mat};
use std::hint::black_box;
use std::time::Instant;

/// GP window of the paper episode's last `select`.
pub const WINDOW: usize = 200;
/// Candidates per posterior (the paper's subsample).
pub const CANDIDATES: usize = 2_048;
/// Candidates per posterior of the quick learner the fleet runs.
pub const QUICK_CANDIDATES: usize = 256;
/// Context (3) plus control (4) dimensions.
const DIM: usize = 7;
/// Timed calls per layer function; the median is reported.
const CALLS: usize = 9;

/// Median per-call wall times of the three layer functions, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    /// `GaussianProcess::predict_batch` over the candidates.
    pub predict_batch_s: f64,
    /// `Cholesky::half_solve_mat` on the `WINDOW × CANDIDATES` cross
    /// kernel — the posterior-variance solve.
    pub half_solve_mat_s: f64,
    /// `GaussianProcess::observe` of one point into a full window.
    pub observe_s: f64,
    /// Calls timed per function.
    pub calls: usize,
}

fn unit_points(seed: u64, n: usize) -> Vec<f64> {
    (0..(n * DIM) as u64).map(|i| (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64).collect()
}

/// A GP over `window` seeded synthetic points with the paper's default
/// kernel (Matérn-3/2, prior variance 4, length-scale 0.4, noise 0.02),
/// `candidates` synthetic query points, and one point to observe next.
/// Layer costs depend on these shapes alone, not on the values.
fn synthetic(seed: u64, window: usize, candidates: usize) -> (GaussianProcess, Vec<f64>, Vec<f64>) {
    let xs = unit_points(mix(seed, 10), window + 1);
    let mut gp = GaussianProcess::new(Kernel::matern32(4.0, vec![0.4; DIM]), 0.02)
        .with_max_observations(800);
    for (i, z) in xs.chunks(DIM).take(window).enumerate() {
        let y = z.iter().sum::<f64>() - 3.5 + 0.1 * (i as f64).sin();
        gp.observe(z, y).expect("a noisy kernel accepts every point");
    }
    (gp, unit_points(mix(seed, 11), candidates), xs[window * DIM..].to_vec())
}

/// Median wall time of `f` over [`CALLS`] calls after one warm-up call
/// (which also builds the GP's lazily cached `alpha`).
fn time(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `GaussianProcess::predict_batch` wall time at a given shape.
pub fn predict_batch_s(seed: u64, window: usize, candidates: usize) -> f64 {
    let (mut gp, cands, _) = synthetic(seed, window, candidates);
    time(|| {
        black_box(gp.predict_batch(black_box(&cands)));
    })
}

/// Times the three layer functions at the paper episode's final shape.
pub fn measure(seed: u64) -> LayerTimes {
    let (mut gp, cands, new_point) = synthetic(seed, WINDOW, CANDIDATES);
    let kernel = gp.kernel().clone();
    let predict_batch_s = time(|| {
        black_box(gp.predict_batch(black_box(&cands)));
    });

    let (win, _) = gp.data();
    let mut k = Mat::from_fn(WINDOW, WINDOW, |i, j| {
        kernel.eval(&win[i * DIM..(i + 1) * DIM], &win[j * DIM..(j + 1) * DIM])
    });
    k.add_diagonal(gp.noise_var());
    let chol = Cholesky::factor(&k).expect("noisy kernel matrix is positive definite");
    let kcross = Mat::from_fn(WINDOW, CANDIDATES, |i, j| {
        kernel.eval(&win[i * DIM..(i + 1) * DIM], &cands[j * DIM..(j + 1) * DIM])
    });
    let half_solve_mat_s = time(|| {
        black_box(chol.half_solve_mat(black_box(&kcross)));
    });

    // Observing mutates the window, so each call gets a fresh clone; the
    // clone stays outside the timed region.
    let observe_samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let mut g = gp.clone();
            let start = Instant::now();
            g.observe(black_box(&new_point), 0.5).expect("observe into the window");
            let s = start.elapsed().as_secs_f64();
            black_box(&g);
            s
        })
        .collect();
    let observe_s = median(&observe_samples);

    LayerTimes { predict_batch_s, half_solve_mat_s, observe_s, calls: CALLS }
}
