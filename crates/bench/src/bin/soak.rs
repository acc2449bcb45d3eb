//! Continuous chaos soak: the fleet + flow evaluator run for hours
//! under healing link cuts, scheduled slice kills and periodic
//! checkpointing, restarting every killed slice from its latest
//! snapshot and asserting the whole time that nothing leaks and no
//! learner ever pays a cold start.
//!
//! One *pass* is one fleet run: `EDGEBOL_SOAK_SLICES` slices whose
//! control planes each carry a scheduled E2 cut that heals, plus
//! `EDGEBOL_SOAK_CYCLES` kill/restore cycles spread across the run,
//! each landing after a checkpoint boundary so the restore resumes the
//! learner's GP posterior instead of re-paying warm-up. The pass
//! asserts `cold_restores == 0` and `failed == 0` — a soak that
//! silently degrades to cold learning is a failed soak.
//!
//! `EDGEBOL_SOAK_SECONDS=0` (the default) runs exactly one pass — the
//! bounded deterministic CI mode, whose stdout is byte-stable across
//! thread counts (`cmp`'d in CI at `EDGEBOL_THREADS=1` vs `4`). A
//! positive budget repeats passes (each with a fresh deterministic
//! seed) until the wall clock is spent, watching `/proc/self/status`
//! VmRSS for a leak: memory must plateau after the first pass, not
//! grow with pass count.
//!
//! Deterministic pass summaries go to stdout; wall-clock, throughput
//! and RSS go to stderr only.
//!
//! Knobs: `EDGEBOL_SOAK_SLICES`, `EDGEBOL_SOAK_CYCLES`,
//! `EDGEBOL_SOAK_SECONDS`, `EDGEBOL_CKPT_DIR`, `EDGEBOL_CKPT_EVERY`,
//! `EDGEBOL_FLEET_KILL` (overrides the generated kill schedule), plus
//! the process-wide `EDGEBOL_THREADS`, `EDGEBOL_METRICS`,
//! `EDGEBOL_OPS`, `EDGEBOL_FLIGHT_DIR` (see OPERATIONS.md).

use edgebol_bench::{env, journal, journal_wanted, metrics};
use edgebol_fleet::{Fleet, FleetConfig};
use edgebol_oran::{ChaosConfig, LinkId};
use std::path::PathBuf;
use std::time::Instant;

/// Resident-set size in KiB from `/proc/self/status`, or `None` where
/// the proc filesystem is unavailable (the leak check is then skipped).
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The fleet configuration for one soak pass. Pure in `(pass, slices,
/// cycles)` apart from the thread count and the checkpoint and flight
/// directories, so a pass's report is byte-stable at any thread count.
fn pass_config(pass: usize, slices: usize, cycles: usize, ckpt_dir: PathBuf) -> FleetConfig {
    let mut cfg = FleetConfig::quick(slices);
    cfg.threads = env::threads();
    cfg.flight_dir = env::flight_dir();
    // Lifetime long enough that every scheduled kill lands strictly
    // after at least one checkpoint boundary for its target slice.
    cfg.periods = 8 * (cycles + 2);
    cfg.seed = 7 + pass as u64;
    cfg.ckpt_dir = Some(ckpt_dir);
    cfg.ckpt_every = env::ckpt_every();
    let kills = env::fleet_kill();
    cfg.kill_schedule = if kills.is_empty() {
        // Cycle c kills slice c%N at period 10+8c: past the first
        // checkpoint (t=7) for seed-wave slices and past t=15 for the
        // late wave (spawned at the period-8 stagger).
        (0..cycles).map(|c| ((c % slices) as u64, 10 + 8 * c)).collect()
    } else {
        kills
    };
    // Every slice's control plane additionally loses its E2 link
    // mid-run and heals: the cut/heal half of each chaos cycle. The
    // reconnect supervisor rides it out under local autonomy.
    cfg.chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 60).with_heal(40);
    cfg
}

fn main() {
    let slices = env::soak_slices();
    let cycles = env::soak_cycles();
    let budget_s = env::soak_seconds();
    let ckpt_dir = env::ckpt_dir().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("edgebol-soak-{}", std::process::id()))
    });
    eprintln!(
        "[soak] slices={slices} cycles={cycles} budget={}s ckpt_dir={}",
        budget_s,
        ckpt_dir.display()
    );

    let started = Instant::now();
    let mut rss_baseline: Option<u64> = None;
    let mut pass = 0usize;
    let mut total_slice_periods = 0usize;
    loop {
        let cfg = pass_config(pass, slices, cycles, ckpt_dir.clone());
        let scheduled_kills = cfg.kill_schedule.len() as u64;
        let mut fleet = Fleet::new(cfg).with_metrics(metrics().clone());
        if journal_wanted() {
            fleet = fleet.with_journal(journal().clone());
        }
        let t0 = Instant::now();
        let report = fleet.run();
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        total_slice_periods += report.slice_periods;

        // The deterministic artifact: pass index + fleet summary.
        println!("pass={pass} {}", report.summary());

        // Soak invariants. A kill that found its target already retired
        // is legal (an operator-supplied schedule can aim anywhere), but
        // every kill that fired must have resumed from its checkpoint —
        // a cold restart means checkpointing silently stopped working,
        // and a failed slice means the control plane did not survive
        // its cut/heal cycle.
        assert!(report.kills <= scheduled_kills, "more kills than scheduled");
        assert_eq!(
            report.restores, report.kills,
            "pass {pass}: {} kills but only {} checkpoint restores",
            report.kills, report.restores
        );
        assert_eq!(
            report.cold_restores, 0,
            "pass {pass}: a killed slice restarted cold — checkpointing is broken"
        );
        assert_eq!(report.failed, 0, "pass {pass}: a slice died under chaos");

        eprintln!(
            "[soak] pass={pass}: {} slice-periods in {wall:.2}s ({:.0} slice-periods/s), \
             kills={} restores={} checkpoints={}{}",
            report.slice_periods,
            report.slice_periods as f64 / wall,
            report.kills,
            report.restores,
            report.checkpoints,
            rss_kb().map(|r| format!(", rss={r} KiB")).unwrap_or_default(),
        );

        // Leak plateau: after the first pass has warmed allocators and
        // caches, RSS must stay flat — linear growth per pass is a leak.
        if let Some(rss) = rss_kb() {
            match rss_baseline {
                None => rss_baseline = Some(rss),
                Some(base) => assert!(
                    rss <= 2 * base + 65_536,
                    "pass {pass}: rss {rss} KiB vs baseline {base} KiB — memory is not plateauing"
                ),
            }
        }

        pass += 1;
        if budget_s == 0 || started.elapsed().as_secs() >= budget_s as u64 {
            break;
        }
    }

    eprintln!(
        "[soak] done: {pass} pass(es), {} total slice-periods in {:.2}s",
        total_slice_periods,
        started.elapsed().as_secs_f64(),
    );
    edgebol_bench::metrics_report();
}
