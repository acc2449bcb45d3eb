//! Property-based tests of the GP layer.

use edgebol_gp::{GaussianProcess, Kernel, KernelKind};
use edgebol_linalg::TILE;
use proptest::prelude::*;

fn kernel_kind() -> impl Strategy<Value = KernelKind> {
    prop_oneof![Just(KernelKind::Matern32), Just(KernelKind::Matern52), Just(KernelKind::Rbf),]
}

proptest! {
    /// Kernels are symmetric, bounded by the signal variance, and maximal
    /// at zero distance.
    #[test]
    fn kernel_axioms(
        kind in kernel_kind(),
        sig in 0.1f64..10.0,
        ls in proptest::collection::vec(0.05f64..3.0, 3),
        a in proptest::collection::vec(-2.0f64..2.0, 3),
        b in proptest::collection::vec(-2.0f64..2.0, 3),
    ) {
        let k = Kernel::new(kind, sig, ls);
        let kab = k.eval(&a, &b);
        prop_assert!((kab - k.eval(&b, &a)).abs() < 1e-12, "symmetry");
        prop_assert!(kab <= sig + 1e-12, "bounded by signal variance");
        prop_assert!(kab >= 0.0, "non-negative for these families");
        prop_assert!((k.eval(&a, &a) - sig).abs() < 1e-12, "maximal at 0");
    }

    /// The posterior mean at an observed point converges to the
    /// observation as noise vanishes; posterior std is bounded by prior.
    #[test]
    fn posterior_sanity(
        kind in kernel_kind(),
        xs in proptest::collection::vec(0.0f64..1.0, 2..10),
        ys in proptest::collection::vec(-5.0f64..5.0, 10),
    ) {
        let mut gp = GaussianProcess::new(Kernel::new(kind, 1.0, vec![0.3]), 1e-6);
        // Enforce a minimum separation of half a length-scale: steep
        // targets across closer designs are numerically near-singular for
        // the RBF kernel (the factorization's rescue jitter then smooths
        // the interpolant), which is a conditioning fact, not a bug this
        // property should fail on.
        let mut seen: Vec<f64> = Vec::new();
        let mut used = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if seen.iter().any(|&s: &f64| (s - x).abs() < 0.15) {
                continue;
            }
            seen.push(x);
            let y = ys[i % ys.len()];
            gp.observe(&[x], y).unwrap();
            used.push((x, y));
        }
        // Tolerance reflects conditioning: strongly correlated designs
        // (many points within one length-scale) force diagonal jitter
        // during factorization, which smooths the interpolant by a few
        // percent of the target range.
        let range = used.iter().map(|&(_, y): &(f64, f64)| y).fold(0.0f64, |a, y| a.max(y.abs()));
        let tol = 0.05 * (2.0 * range).max(1.0);
        for (x, y) in used {
            let (m, s) = gp.predict(&[x]);
            prop_assert!((m - y).abs() < tol, "mean {m} should track obs {y} at {x}");
            prop_assert!(s <= 1.0 + 1e-9, "posterior std above prior");
        }
    }

    /// Batch prediction equals pointwise prediction bit for bit, for every
    /// kernel family, input dimension and window size, batches that end
    /// inside, at and past tile edges, and queries that share their first
    /// `shared` coordinates, some of them whole duplicates of the first.
    #[test]
    fn batch_equals_pointwise(
        kind in kernel_kind(),
        dim in prop_oneof![Just(1usize), Just(7usize)],
        shared in 0usize..=7,
        n in 1usize..40,
        m in 1usize..=3 * TILE + 1,
        xs in proptest::collection::vec(0.0f64..1.0, 39 * 7),
        q in proptest::collection::vec(0.0f64..1.0, (3 * TILE + 1) * 7),
        dup in proptest::collection::vec(any::<bool>(), 3 * TILE + 1),
    ) {
        let shared = shared % (dim + 1);
        let ls: Vec<f64> = (0..dim).map(|k| 0.3 + 0.1 * k as f64).collect();
        let mut gp = GaussianProcess::new(Kernel::new(kind, 2.0, ls), 1e-3);
        for (i, z) in xs.chunks(dim).take(n).enumerate() {
            gp.observe(z, (i as f64).sin()).unwrap();
        }
        let mut q = q[..m * dim].to_vec();
        for (j, &whole) in dup.iter().enumerate().take(m).skip(1) {
            q.copy_within(..if whole { dim } else { shared }, j * dim);
        }
        let (bm, bs) = gp.predict_batch(&q);
        for (j, z) in q.chunks(dim).enumerate() {
            let (mu, s) = gp.predict(z);
            prop_assert_eq!(bm[j].to_bits(), mu.to_bits(), "mean of column {}", j);
            prop_assert_eq!(bs[j].to_bits(), s.to_bits(), "std of column {}", j);
        }
    }

    /// The sliding window never retains more than its capacity and keeps
    /// the most recent observations.
    #[test]
    fn window_semantics(cap in 1usize..6, n in 1usize..20) {
        let mut gp = GaussianProcess::new(Kernel::rbf(1.0, vec![0.5]), 1e-3)
            .with_max_observations(cap);
        for i in 0..n {
            gp.observe(&[i as f64], i as f64).unwrap();
        }
        prop_assert_eq!(gp.len(), n.min(cap));
        let (_, ys) = gp.data();
        if n >= cap {
            prop_assert_eq!(ys[0], (n - cap) as f64);
        }
    }

    /// More observations never increase the posterior variance at a fixed
    /// query (information monotonicity for exact GPs).
    #[test]
    fn variance_monotone_in_data(
        xs in proptest::collection::vec(0.0f64..1.0, 2..10),
        q in 0.0f64..1.0,
    ) {
        let mut gp = GaussianProcess::new(Kernel::matern52(1.5, vec![0.3]), 1e-4);
        let mut prev = f64::INFINITY;
        for (i, &x) in xs.iter().enumerate() {
            gp.observe(&[x], i as f64 * 0.1).unwrap();
            let (_, s) = gp.predict(&[q]);
            prop_assert!(s <= prev + 1e-9, "std grew from {prev} to {s}");
            prev = s;
        }
    }
}
