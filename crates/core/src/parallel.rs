//! The deterministic scoped thread pool behind the bench harness's
//! repetition runner and the fleet's lockstep fan-out.

use edgebol_metrics::Registry;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Queue-depth bucket bounds: the harness fans out 8–100 repetitions,
/// so powers of two up to 128 resolve the whole drain curve.
const QUEUE_DEPTH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Per-repetition wall-time bucket bounds (seconds): a reduced-size CI
/// repetition takes ~0.1–3 s, a full figure repetition up to ~60 s.
const REP_WALL_BOUNDS: &[f64] = &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0];

/// Runs `job(0..n)` on `threads` scoped worker threads and returns the
/// results in index order.
///
/// Work is handed out through an atomic counter, so threads stay busy
/// even when per-index runtimes differ; results are reassembled by index,
/// so the output is **deterministic and identical to the sequential
/// order** regardless of thread count or scheduling. A panicking job
/// propagates its panic to the caller (after the scope joins the other
/// workers).
///
/// `reg` receives `edgebol_bench_worker_threads`, the work-queue depth
/// observed at each grab (`edgebol_bench_queue_depth` — remaining items
/// including the one taken, a deterministic multiset for a given `n`
/// regardless of thread count), per-job wall time
/// (`edgebol_bench_rep_wall_seconds`) and the fraction of thread-seconds
/// spent inside jobs (`edgebol_bench_runner_utilization`); a disabled
/// registry records nothing.
///
/// ```
/// use edgebol_metrics::Registry;
///
/// let squares = edgebol_core::parallel_map_threads(4, 10, &Registry::disabled(), |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn parallel_map_threads<T, F>(threads: usize, n: usize, reg: &Registry, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    reg.describe("edgebol_bench_queue_depth", "Repetitions still queued when a worker grabs one");
    reg.describe("edgebol_bench_rep_wall_seconds", "Wall-clock seconds per repetition");
    reg.describe("edgebol_bench_worker_threads", "Worker threads in the parallel runner");
    reg.describe(
        "edgebol_bench_runner_utilization",
        "Busy-time fraction of the parallel runner (1.0 = no idle workers)",
    );
    let depth_h = reg.histogram("edgebol_bench_queue_depth", QUEUE_DEPTH_BOUNDS);
    let wall_h = reg.histogram("edgebol_bench_rep_wall_seconds", REP_WALL_BOUNDS);
    let threads = threads.max(1).min(n);
    reg.gauge("edgebol_bench_worker_threads").set(threads as f64);
    let total = reg.stopwatch();
    // One timed execution of `job(i)`, with the queue depth at grab time.
    let timed = |i: usize, busy: &mut f64| -> T {
        depth_h.observe((n - i) as f64);
        let sw = reg.stopwatch();
        let out = job(i);
        if let Some(s) = sw.elapsed_seconds() {
            wall_h.observe(s);
            *busy += s;
        }
        out
    };
    let (out, busy_total) = if threads <= 1 {
        let mut busy = 0.0;
        let out: Vec<T> = (0..n).map(|i| timed(i, &mut busy)).collect();
        (out, busy)
    } else {
        let next = AtomicUsize::new(0);
        let timed = &timed;
        let next = &next;
        let mut tagged: Vec<(usize, T)> = Vec::new();
        let mut busy_total = 0.0;
        let per_thread: Vec<(Vec<(usize, T)>, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || {
                        let mut local = Vec::new();
                        let mut busy = 0.0;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, timed(i, &mut busy)));
                        }
                        (local, busy)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        });
        for (local, busy) in per_thread {
            tagged.extend(local);
            busy_total += busy;
        }
        tagged.sort_by_key(|(i, _)| *i);
        (tagged.into_iter().map(|(_, t)| t).collect(), busy_total)
    };
    if let Some(wall) = total.elapsed_seconds() {
        if wall > 0.0 {
            reg.gauge("edgebol_bench_runner_utilization")
                .set((busy_total / (threads as f64 * wall)).min(1.0));
        }
    }
    out
}
