//! CI perf gate for the GP sliding-window eviction path and the batched
//! posterior.
//!
//! Measures the at-capacity `observe` cost (evict + bordered append) at
//! the paper-scale window `T = 200` under both eviction strategies and
//! fails (exit code 1) when either of two conditions breaks:
//!
//! * **Absolute**: the downdate-path median exceeds
//!   `EDGEBOL_GATE_EVICT_US` (default 161 µs — one tenth of the 1.61 ms
//!   rebuild baseline pinned in EXPERIMENTS.md §GP sliding-window, i.e.
//!   the ≥10× acceptance bar with the measured headroom behind it).
//! * **Relative**: the rebuild/downdate median ratio falls below
//!   `EDGEBOL_GATE_EVICT_RATIO` (default 5). The ratio is
//!   machine-independent, so this arm still bites on CI runners much
//!   slower or faster than the baseline box.
//!
//! The batched posterior at `T = 200`, `M = 1000` rides along with two
//! arms of its own:
//!
//! * **Absolute**: the batch predict must stay under
//!   `EDGEBOL_GATE_BATCH_US` (default 50 000 µs — a coarse tripwire for
//!   accidental de-batching, not a tight regression bound).
//! * **Relative**: it must run at least [`MIN_BATCH_SPEEDUP`] (2×) faster
//!   than 1 000 pointwise `predict` calls on the same GP, timed in the
//!   same process. Both paths must produce the same columns bit for bit
//!   (checked first, a failure of its own), so the ratio measures only
//!   what batching and the cache-tiled posterior save, on any machine.
//!   The two are timed in alternating pairs and the gate reads the median
//!   per-pair ratio, which a shared host's drift within a run moves
//!   least. The gate prints which build of the tile solve ran (`avx2` or
//!   `portable`). The queries share no leading coordinates, so the
//!   distance hoist of `predict_batch` does not apply here.
//!
//! Medians over `EDGEBOL_GATE_SAMPLES` (default 30; at most 10 pairs for
//! the posterior arms) individually-timed steady-state iterations after
//! 3 warm-ups each; deterministic workload, no RNG.

use edgebol_bench::env::usize_knob;
use edgebol_gp::{EvictStrategy, GaussianProcess, Kernel};
use std::hint::black_box;
use std::time::Instant;

/// Least speedup of one batched posterior over the same columns computed
/// pointwise.
const MIN_BATCH_SPEEDUP: f64 = 2.0;

/// Deterministically filled GP at exactly its window capacity.
fn gp_at_cap(cap: usize, strategy: EvictStrategy) -> GaussianProcess {
    let mut gp = GaussianProcess::new(Kernel::matern32(4.0, vec![0.4; 7]), 0.02)
        .with_max_observations(cap)
        .with_evict_strategy(strategy);
    let mut state = 1u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..cap {
        let z: Vec<f64> = (0..7).map(|_| next()).collect();
        let y = z.iter().sum::<f64>();
        gp.observe(&z, y).unwrap();
    }
    gp
}

/// Median of `samples` individually-timed runs of `f` against one
/// long-lived state, in microseconds. Steady-state methodology: at
/// capacity every `observe` is a full evict + append cycle, so timing
/// consecutive calls on one GP measures exactly the per-period cost with
/// no per-sample reconstruction noise.
fn median_us<T>(samples: usize, state: &mut T, mut f: impl FnMut(&mut T)) -> f64 {
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..3 {
        f(state);
    }
    for _ in 0..samples {
        times.push(time_us(state, &mut f));
    }
    median(times)
}

/// Times `a` and `b` alternately, `samples` pairs after 3 warm-up pairs,
/// and returns each side's median in microseconds and the median of the
/// per-pair ratios `b / a`. Each pair runs under the same host load, so
/// the ratio holds steady on a shared machine whose speed drifts within
/// a run.
fn paired_medians_us<T>(
    samples: usize,
    state: &mut T,
    mut a: impl FnMut(&mut T),
    mut b: impl FnMut(&mut T),
) -> (f64, f64, f64) {
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..samples + 3 {
        let (da, db) = (time_us(state, &mut a), time_us(state, &mut b));
        if i >= 3 {
            ta.push(da);
            tb.push(db);
            ratios.push(db / da);
        }
    }
    (median(ta), median(tb), median(ratios))
}

fn time_us<T>(state: &mut T, f: &mut impl FnMut(&mut T)) -> f64 {
    let t0 = Instant::now();
    f(state);
    t0.elapsed().as_secs_f64() * 1e6
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn main() {
    let samples = usize_knob("EDGEBOL_GATE_SAMPLES", 30);
    let evict_bound_us = usize_knob("EDGEBOL_GATE_EVICT_US", 161) as f64;
    let min_ratio = usize_knob("EDGEBOL_GATE_EVICT_RATIO", 5) as f64;
    let batch_bound_us = usize_knob("EDGEBOL_GATE_BATCH_US", 50_000) as f64;

    let mut gp_down = gp_at_cap(200, EvictStrategy::Downdate);
    let mut t = 0.0;
    let downdate = median_us(samples, &mut gp_down, |gp| {
        t += 0.001;
        gp.observe(&[0.5 + t; 7], 1.0).unwrap();
    });
    let mut gp_re = gp_at_cap(200, EvictStrategy::Rebuild);
    let rebuild = median_us(samples, &mut gp_re, |gp| {
        t += 0.001;
        gp.observe(&[0.5 + t; 7], 1.0).unwrap();
    });
    let queries: Vec<f64> = (0..1000 * 7).map(|i| (i % 97) as f64 / 97.0).collect();
    let (means, stds) = gp_down.predict_batch(&queries);
    let identical = queries.chunks(7).zip(means.iter().zip(&stds)).all(|(z, (m, s))| {
        let (pm, ps) = gp_down.predict(z);
        pm.to_bits() == m.to_bits() && ps.to_bits() == s.to_bits()
    });
    let (batch, pointwise, speedup) = paired_medians_us(
        samples.min(10),
        &mut gp_down,
        |gp| {
            black_box(gp.predict_batch(black_box(&queries)));
        },
        |gp| {
            for z in queries.chunks(7) {
                black_box(gp.predict(black_box(z)));
            }
        },
    );

    let tile_path = if edgebol_linalg::avx2_tiles() { "avx2" } else { "portable" };
    let ratio = rebuild / downdate;
    println!("perf gate (median over {samples} samples, window T=200):");
    println!("  gp_evict_downdate_T200          {downdate:10.1} us  (bound {evict_bound_us} us)");
    println!("  gp_observe_evict_refactor_T200  {rebuild:10.1} us");
    println!("  rebuild/downdate ratio          {ratio:10.1}x   (bound >= {min_ratio}x)");
    println!("  gp_predict_batch_T200_M1000     {batch:10.1} us  (bound {batch_bound_us} us)");
    println!("  gp_predict_pointwise_T200_x1000 {pointwise:10.1} us");
    println!("  tile solve path                 {tile_path:>10}");
    println!("  pointwise/batch ratio           {speedup:10.2}x   (bound >= {MIN_BATCH_SPEEDUP}x)");

    let mut failed = false;
    if downdate > evict_bound_us {
        eprintln!("FAIL: downdate evict {downdate:.1} us exceeds the {evict_bound_us} us bound");
        failed = true;
    }
    if ratio < min_ratio {
        eprintln!("FAIL: rebuild/downdate ratio {ratio:.1}x below the {min_ratio}x bound");
        failed = true;
    }
    if batch > batch_bound_us {
        eprintln!("FAIL: batched posterior {batch:.1} us exceeds the {batch_bound_us} us bound");
        failed = true;
    }
    if !identical {
        eprintln!("FAIL: batched and pointwise posteriors differ in some column's bits");
        failed = true;
    }
    if speedup < MIN_BATCH_SPEEDUP {
        eprintln!(
            "FAIL: batched posterior only {speedup:.2}x faster than pointwise, below {MIN_BATCH_SPEEDUP}x"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf gate passed");
}
