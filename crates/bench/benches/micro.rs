//! Microbenchmarks of the substrates on EdgeBOL's hot paths.
//!
//! These are the inner loops the per-period budget depends on: Cholesky
//! factorization and incremental appends, batched GP posteriors, the mAP
//! evaluator, both testbed fidelities, the E2 codec and one DDPG training
//! step.

use criterion::{criterion_group, criterion_main, Criterion};
use edgebol_bandit::{Constraints, Ddpg, DdpgConfig};
use edgebol_gp::{EvictStrategy, GaussianProcess, Kernel};
use edgebol_linalg::{Cholesky, Mat};
use edgebol_media::{Dataset, DetectorModel};
use edgebol_oran::{E2Codec, E2Message, KpiReport};
use edgebol_testbed::{Calibration, ControlInput, DesTestbed, FlowTestbed, Scenario};
use std::hint::black_box;

fn spd(n: usize) -> Mat {
    let mut a = Mat::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64).abs();
        (-d / 8.0).exp()
    });
    a.add_diagonal(0.1);
    a
}

fn bench_linalg(c: &mut Criterion) {
    let a = spd(150);
    c.bench_function("cholesky_factor_150", |b| {
        b.iter(|| Cholesky::factor(black_box(&a)).unwrap())
    });

    let base = Cholesky::factor(&spd(150)).unwrap();
    let cross: Vec<f64> = (0..150).map(|i| (-(i as f64) / 8.0).exp()).collect();
    c.bench_function("cholesky_append_row_150", |b| {
        b.iter_with_setup(|| base.clone(), |mut ch| ch.append(black_box(&cross), 1.2).unwrap())
    });

    let big = Cholesky::factor(&spd(200)).unwrap();
    c.bench_function("cholesky_delete_row_200", |b| {
        b.iter(|| black_box(&big).delete_row(0).unwrap())
    });

    let l = big.factor_l();
    let rhs = Mat::from_fn(200, 64, |i, j| ((i * 3 + j) % 17) as f64 * 0.1 - 0.8);
    c.bench_function("solve_lower_mat_200x64", |b| {
        b.iter(|| edgebol_linalg::solve_lower_mat(black_box(l), black_box(&rhs)))
    });
}

fn trained_gp(n: usize) -> GaussianProcess {
    fill_gp(GaussianProcess::new(Kernel::matern32(4.0, vec![0.4; 7]), 0.02), n)
}

/// A GP whose sliding window is exactly full: the next `observe` pays the
/// evict path for the given strategy, then the bordered append.
fn trained_gp_at_cap(cap: usize, strategy: EvictStrategy) -> GaussianProcess {
    fill_gp(
        GaussianProcess::new(Kernel::matern32(4.0, vec![0.4; 7]), 0.02)
            .with_max_observations(cap)
            .with_evict_strategy(strategy),
        cap,
    )
}

fn fill_gp(mut gp: GaussianProcess, n: usize) -> GaussianProcess {
    let mut state = 1u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..n {
        let z: Vec<f64> = (0..7).map(|_| next()).collect();
        let y = z.iter().sum::<f64>();
        gp.observe(&z, y).unwrap();
    }
    gp
}

fn bench_gp(c: &mut Criterion) {
    let mut gp = trained_gp(200);
    let queries: Vec<f64> = (0..1000 * 7).map(|i| (i % 97) as f64 / 97.0).collect();
    c.bench_function("gp_predict_batch_T200_M1000", |b| {
        b.iter(|| gp.predict_batch(black_box(&queries)))
    });
    c.bench_function("gp_observe_T200", |b| {
        b.iter_with_setup(
            || trained_gp(200),
            |mut gp| gp.observe(black_box(&[0.5; 7]), 1.0).unwrap(),
        )
    });
    // The steady-state cost once the sliding window is full, on the
    // default O(T²) delete-row downdate: evict + bordered append, the
    // per-period GP budget of a long-running deployment.
    c.bench_function("gp_evict_downdate_T200", |b| {
        b.iter_with_setup(
            || trained_gp_at_cap(200, EvictStrategy::Downdate),
            |mut gp| gp.observe(black_box(&[0.5; 7]), 1.0).unwrap(),
        )
    });
    // The pre-downdate behaviour, pinned to the rebuild strategy: every
    // observe first evicts the oldest point (O(T²) kernel rebuild +
    // O(T³/3) full re-factorization) and only then pays the O(T²)
    // bordered append. Kept as the baseline the perf gate (`perf_gate`
    // bin) measures the downdate's speedup against.
    c.bench_function("gp_observe_evict_refactor_T200", |b| {
        b.iter_with_setup(
            || trained_gp_at_cap(200, EvictStrategy::Rebuild),
            |mut gp| gp.observe(black_box(&[0.5; 7]), 1.0).unwrap(),
        )
    });
}

fn bench_media(c: &mut Criterion) {
    let ds = Dataset::generate(150, 7);
    let det = DetectorModel::default();
    c.bench_function("map_evaluate_150_scenes", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            ds.evaluate_map(black_box(&det), 0.6, seed)
        })
    });
}

fn bench_testbed(c: &mut Criterion) {
    let flow = FlowTestbed::new(Calibration::default(), Scenario::heterogeneous(4), 1);
    let control = ControlInput::max_resources();
    c.bench_function("flow_steady_state_4_users", |b| {
        b.iter(|| flow.steady_state(black_box(&[30.0, 24.0, 19.2, 15.36]), &control))
    });

    c.bench_function("des_period_single_user_4s", |b| {
        b.iter_with_setup(
            || DesTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 3),
            |mut des| des.run_period_raw(black_box(&control)),
        )
    });
}

fn bench_oran(c: &mut Criterion) {
    let msg = E2Message::Indication(KpiReport {
        t_ms: 123,
        bs_power_mw: 5_600,
        duty_milli: 451,
        mean_mcs_centi: 2_677,
    });
    c.bench_function("e2_codec_roundtrip", |b| {
        b.iter(|| {
            let mut buf = E2Codec::encode(black_box(&msg));
            E2Codec::decode(&mut buf).unwrap().unwrap()
        })
    });
}

fn bench_nn(c: &mut Criterion) {
    c.bench_function("ddpg_update_batch64", |b| {
        b.iter_with_setup(
            || {
                let mut agent = Ddpg::new(
                    DdpgConfig { updates_per_step: 1, ..Default::default() },
                    Constraints { d_max: 0.4, rho_min: 0.5 },
                );
                // Fill the replay buffer past one batch.
                for i in 0..80 {
                    let ctx = [i as f64 / 80.0, 0.5, 0.2];
                    let a = agent.select_action(&ctx);
                    agent.update(
                        &ctx,
                        &a,
                        &edgebol_bandit::Feedback { cost: 100.0, delay_s: 0.3, map: 0.6 },
                    );
                }
                agent
            },
            |mut agent| {
                let ctx = [0.3, 0.5, 0.2];
                let a = agent.select_action(&ctx);
                agent.update(
                    &ctx,
                    &a,
                    &edgebol_bandit::Feedback { cost: 100.0, delay_s: 0.3, map: 0.6 },
                );
            },
        )
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_linalg, bench_gp, bench_media, bench_testbed, bench_oran, bench_nn
}
criterion_main!(benches);
