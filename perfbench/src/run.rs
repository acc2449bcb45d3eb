//! One benchmark run: measure a workload for the time budget, check its
//! outputs, and derive the metrics of the requested catalogue.

use crate::report::{self, RunResult};
use crate::stats::{median, percentile, Digest, PeriodTimes};
use crate::workload::{
    build_seed_wave, fleet_config, repeat_for, replay_fleet, run_fleet, run_slice, run_slice_with,
    transfer_times, Episode, FleetReplay, FleetRun, SliceConfig, Workload,
};
use crate::wrap::{self, Span, SpanSink};
use crate::{layers, sys};
use edgebol_fleet::{FleetConfig, FleetReport};
use edgebol_metrics::Registry;
use edgebol_oran::TransportKind;
use edgebol_trace::json::escape;
use std::time::{Duration, Instant};

/// `setup_s` is a low quantile ([`SETUP_QUANTILE`]) of set-up-only
/// builds spread evenly over an untraced run. On a shared host a build,
/// which mostly allocates and fills memory, runs at one of two speeds
/// about 1.8× apart, switching every few seconds; the median follows the
/// share of slow moments in the run, a low quantile over many builds
/// the build's cost at full speed. On the poll transport a build follows
/// every [`SETUP_EVERY`]-th period of each repetition (about every
/// 0.15 s on paper-episode); on the reactor, where a build opens two
/// more loopback connections, and on the fleet, [`SETUP_PER_BOUNDARY`]
/// builds precede each repetition.
const SETUP_EVERY: usize = 5;
/// See [`SETUP_EVERY`].
const SETUP_PER_BOUNDARY: usize = 5;
/// See [`SETUP_EVERY`].
const SETUP_QUANTILE: f64 = 0.05;
/// Samples that must lie beyond a reported high percentile: a tail
/// percentile resting on fewer is noise, not a measurement.
const MIN_TAIL_SAMPLES: usize = 10;
/// Least repetitions of a workload in an untraced run. They form a set
/// whose output digests must be identical; each period's time and the
/// CPU time per period are medians over them, leaving out the first
/// [`WARMUP_REPS`].
const MIN_REPS: usize = 3;
/// Repetitions at the start of a process left out of every timing: the
/// first runs cold (the allocator has not yet adapted to the workload's
/// buffers) and reads 10–20% slow. Their outputs are still checked.
const WARMUP_REPS: usize = 1;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    /// A usage message for unknown flags or malformed values.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { workload: Workload::PaperEpisode, seed: 1, seconds: 10, trace: false };
        let mut workload = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    out.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(|| bad("1.."))?
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }
}

/// A finished run: the result line plus everything the meta line
/// records.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The result line's content.
    pub result: RunResult,
    /// Broken correctness checks (empty when correct).
    pub problems: Vec<String>,
    /// The output digest every repetition reproduced.
    pub digest: String,
    /// Sample count behind each timing.
    pub samples: Vec<(&'static str, usize)>,
    /// Threads the workload ran on.
    pub threads: usize,
    /// Transport carrying A1/E2.
    pub transport: &'static str,
    /// Spans of the first two traced repetitions; on fleet-warm, every
    /// span of the fleet replay.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.result.values.push((name, value));
    }

    /// Requires every digest to equal the first; records it.
    fn same_digests(&mut self, what: &str, digests: impl IntoIterator<Item = Digest>) {
        let all: Vec<Digest> = digests.into_iter().collect();
        let first = all.first().copied().unwrap_or_default();
        self.digest = first.hex();
        let differing = all.iter().filter(|d| **d != first).count();
        self.check(differing == 0, || {
            format!("{what}: {differing} of {} repetitions differ from the first", all.len())
        });
    }
}

/// Runs the workload `args` names.
///
/// # Errors
/// A setup failure or a metric that could not be measured (such as a
/// tail percentile with too few samples beyond it).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let transport = if args.workload == Workload::ControlPlane { "reactor" } else { "poll" };
    let mut out = Outcome { threads: 1, transport, ..Outcome::default() };
    match (args.workload, args.trace) {
        (Workload::PaperEpisode, false) => {
            slice_e2e(&SliceConfig::paper(args.seed), budget, &mut out)?
        }
        (Workload::ControlPlane, false) => {
            slice_e2e(&SliceConfig::control_plane(args.seed), budget, &mut out)?
        }
        (Workload::FleetWarm, false) => fleet_e2e(args.seed, budget, &mut out)?,
        (Workload::PaperEpisode, true) => {
            slice_traced(&SliceConfig::paper(args.seed), budget, &mut out)?
        }
        (Workload::ControlPlane, true) => {
            slice_traced(&SliceConfig::control_plane(args.seed), budget, &mut out)?
        }
        (Workload::FleetWarm, true) => fleet_traced(args.seed, budget, &mut out)?,
    }
    if args.trace {
        layer_probes(args.seed, &mut out)?;
    }
    out.result.correct = out.problems.is_empty();
    Ok(out)
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Sets `period_p50_ms` and `period_p95_ms` from per-period wall times
/// (one per period position: its median repetition).
fn period_quantiles(out: &mut Outcome, step_s: &[f64]) -> Result<(), String> {
    let n = step_s.len();
    let beyond = n - (0.95 * n as f64).ceil() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "period_p95_ms refused: {n} periods leave fewer than {MIN_TAIL_SAMPLES} beyond p95"
        ));
    }
    out.set("period_p50_ms", ms(median(step_s)));
    out.set("period_p95_ms", ms(percentile(step_s, 0.95)));
    out.samples.push(("period_p50_ms", step_s.len()));
    out.samples.push(("period_p95_ms", step_s.len()));
    Ok(())
}

/// [`period_quantiles`] over the per-position median times in `times`;
/// with `throughput`, also `periods_per_s` of the episode they add up to.
fn set_period_times(
    out: &mut Outcome,
    times: &PeriodTimes,
    throughput: bool,
) -> Result<(), String> {
    let medians = times.medians();
    if throughput {
        out.set("periods_per_s", medians.len() as f64 / medians.iter().sum::<f64>());
        out.samples.push(("periods_per_s", times.min_reps()));
    }
    period_quantiles(out, &medians)?;
    out.samples.push(("period_reps", times.min_reps()));
    Ok(())
}

/// Set-up samples of an untraced run.
#[derive(Debug, Default)]
struct Setups {
    samples: Vec<f64>,
}

impl Setups {
    /// Times `n` calls of `build`; what it built is dropped outside the
    /// timed region.
    fn sample<T>(
        &mut self,
        n: usize,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..n {
            let start = Instant::now();
            let built = build()?;
            self.samples.push(start.elapsed().as_secs_f64());
            drop(built);
        }
        Ok(())
    }

    fn set(&self, out: &mut Outcome) {
        out.set("setup_s", percentile(&self.samples, SETUP_QUANTILE));
        out.samples.push(("setup_s", self.samples.len()));
    }
}

/// Wall and process-CPU time of one repetition and the periods it
/// completed (slice-periods on fleet-warm).
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall_s: f64,
    cpu_s: f64,
    periods: usize,
}

fn median_of(timings: &[Timing], f: impl Fn(&Timing) -> f64) -> f64 {
    median(&timings.iter().map(f).collect::<Vec<_>>())
}

/// Median over repetitions of periods per wall second.
fn median_rate(timings: &[Timing]) -> f64 {
    median_of(timings, |t| t.periods as f64 / t.wall_s)
}

/// Sets `cpu_ms_per_period` from per-period process-CPU times (one per
/// period position: its median repetition). CPU time, too, stretches
/// when the shared host runs slow (see [`PeriodTimes`]).
fn set_period_cpu(out: &mut Outcome, cpu: &PeriodTimes) {
    let medians = cpu.medians();
    out.set("cpu_ms_per_period", ms(medians.iter().sum::<f64>() / medians.len() as f64));
    out.samples.push(("cpu_ms_per_period", cpu.min_reps()));
}

/// Median over repetitions of CPU time over wall time × threads.
fn median_utilization(timings: &[Timing], threads: usize) -> f64 {
    median_of(timings, |t| t.cpu_s / (t.wall_s * threads as f64))
}

/// Single-slice repetitions and, when untraced, their set-up samples.
/// From the first after [`WARMUP_REPS`] on, a repetition's per-period
/// wall and CPU times move to `steps` and `cpu`, and its whole-episode
/// timing to `timings`.
#[derive(Debug)]
struct SliceReps {
    eps: Vec<Episode>,
    steps: PeriodTimes,
    cpu: PeriodTimes,
    timings: Vec<Timing>,
    setups: Setups,
}

impl SliceReps {
    fn new(cfg: &SliceConfig) -> Self {
        SliceReps {
            eps: Vec::new(),
            steps: PeriodTimes::new(cfg.periods),
            cpu: PeriodTimes::new(cfg.periods),
            timings: Vec::new(),
            setups: Setups::default(),
        }
    }

    /// Builds and runs one repetition; with `setups`, takes set-up
    /// samples as [`SETUP_EVERY`] describes (the whole-episode timing
    /// then includes them; only traced runs, which take none, use it).
    fn run_one(
        &mut self,
        cfg: &SliceConfig,
        sink: Option<&SpanSink>,
        setups: bool,
    ) -> Result<(), String> {
        let poll = cfg.transport() == TransportKind::Poll;
        if setups && !poll {
            self.setups.sample(SETUP_PER_BOUNDARY, || cfg.build(None, Registry::disabled()))?;
        }
        let rep = self.eps.len() as u32;
        let mut failed_build = None;
        let cpu0 = sys::cpu_seconds();
        let start = Instant::now();
        let mut ep = if setups && poll {
            let s = &mut self.setups;
            run_slice_with(cfg, rep, None, |t| {
                if t % SETUP_EVERY == SETUP_EVERY - 1 {
                    if let Err(e) = s.sample(1, || cfg.build(None, Registry::disabled())) {
                        failed_build.get_or_insert(e);
                    }
                }
            })?
        } else {
            run_slice(cfg, rep, sink)?
        };
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        if let Some(e) = failed_build {
            return Err(e);
        }
        if self.eps.len() >= WARMUP_REPS {
            self.timings.push(Timing { wall_s, cpu_s, periods: ep.periods });
            self.steps.add(0, &std::mem::take(&mut ep.step_s));
            self.cpu.add(0, &std::mem::take(&mut ep.cpu_s));
        }
        self.eps.push(ep);
        Ok(())
    }
}

/// Repeats untraced single-slice episodes for `budget` and at least
/// [`MIN_REPS`] times.
fn slice_reps(cfg: &SliceConfig, budget: Duration) -> Result<SliceReps, String> {
    let mut r = SliceReps::new(cfg);
    repeat_for(budget, || {
        r.run_one(cfg, None, true)?;
        Ok(r.eps.len() >= MIN_REPS)
    })?;
    Ok(r)
}

/// Checks every single-slice episode and records the digest.
fn check_slice(out: &mut Outcome, cfg: &SliceConfig, eps: &[Episode]) {
    for (rep, ep) in eps.iter().enumerate() {
        out.check(ep.failed == 0, || {
            format!("rep {rep}: {} periods returned an OrchestratorError", ep.failed)
        });
        if cfg.control_plane {
            out.check(ep.counters.local_autonomy > 0 && ep.counters.resyncs_ok > 0, || {
                format!("rep {rep}: the E2 cut did not fire and heal")
            });
            out.check(ep.connected, || {
                format!("rep {rep}: the circuit is not Connected after the heal")
            });
        }
    }
    out.same_digests("episode digest", eps.iter().map(|e| e.digest));
}

/// Untraced single-slice run: the end-to-end metrics.
fn slice_e2e(cfg: &SliceConfig, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let r = slice_reps(cfg, budget)?;
    check_slice(out, cfg, &r.eps);
    r.setups.set(out);
    set_period_cpu(out, &r.cpu);
    set_period_times(out, &r.steps, true)?;
    let periods: usize = r.eps.iter().map(|e| e.periods).sum();
    let failed: usize = r.eps.iter().map(|e| e.failed).sum();
    out.result.attempted = periods as u64;
    out.result.failed = failed as u64;
    out.set("peak_rss_mib", sys::peak_rss_mib());
    out.set("ok_ratio", 1.0 - failed as f64 / periods as f64);
    // Outcomes are identical across repetitions (checked by digest).
    let first = &r.eps[0];
    let n = first.periods as f64;
    out.set("undegraded_ratio", 1.0 - first.degraded as f64 / n);
    out.set("mean_cost", first.cost_sum / (n - first.failed as f64).max(1.0));
    out.set("satisfaction", first.satisfied as f64 / n);
    Ok(())
}

/// Per-period means of each span over `periods` periods, in seconds:
/// `(step, context, select, env_step, update)`.
fn stage_means(spans: &[Span], periods: usize) -> [f64; 5] {
    let names = [wrap::STEP, wrap::CONTEXT, wrap::SELECT, wrap::ENV_STEP, wrap::UPDATE];
    names.map(|name| {
        let total: u64 = spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum();
        total as f64 * 1e-9 / periods as f64
    })
}

/// Sets the stage split from spans over `periods` periods.
fn set_stages(out: &mut Outcome, spans: &[Span], periods: usize) {
    let [step, context, select, env_step, update] = stage_means(spans, periods);
    out.set("core.step_ms", ms(step));
    out.set("testbed.context_ms", ms(context));
    out.set("bandit.select_ms", ms(select));
    out.set("testbed.step_ms", ms(env_step));
    out.set("bandit.update_ms", ms(update));
    // Self time of try_step: deploy, the E2 KPI path and the supervisor.
    out.set("oran.control_ms", ms(step - context - select - env_step - update));
    out.samples.push(("core.step_ms", periods));
}

/// Periods at the end of an episode whose `select` spans the posterior
/// share is taken over.
const FINAL_PERIODS: u32 = 10;

/// `bandit.posterior_share`: three posteriors (cost, delay, mAP) over the
/// median `select` of the last [`FINAL_PERIODS`] periods of each lifetime
/// `lifetime` accepts, both at the median window of those periods
/// (`final_window` is the window of the last `select`). The posterior is
/// timed right after the spans were recorded.
fn set_posterior_share(
    out: &mut Outcome,
    spans: &[Span],
    periods: usize,
    lifetime: impl Fn(u32) -> bool,
    final_window: usize,
    candidates: usize,
    seed: u64,
) -> Result<(), String> {
    let last = periods as u32 - FINAL_PERIODS;
    let selects: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == wrap::SELECT && s.period >= last && lifetime(s.rep))
        .map(|s| s.dur_ns as f64 * 1e-9)
        .collect();
    if selects.is_empty() {
        return Err("no final-period select spans".into());
    }
    let select_s = median(&selects);
    let window = final_window - FINAL_PERIODS as usize / 2;
    let predict_s = layers::predict_batch_s(seed, window, candidates);
    out.set("bandit.posterior_share", 3.0 * predict_s / select_s);
    Ok(())
}

/// Sets the control-plane counters from traced episodes.
fn set_counters(out: &mut Outcome, eps: &[Episode]) {
    let periods: usize = eps.iter().map(|e| e.periods).sum();
    let per_period =
        |f: fn(&Episode) -> u64| -> f64 { eps.iter().map(f).sum::<u64>() as f64 / periods as f64 };
    out.set("oran.frames_per_period", per_period(|e| e.counters.frames));
    out.set("oran.bytes_per_period", per_period(|e| e.counters.bytes));
    out.set("oran.reactor_turns_per_period", per_period(|e| e.counters.reactor_turns));
    let first = &eps[0].counters;
    out.set("oran.faults_injected", first.faults as f64);
    out.set("oran.resyncs_failed", first.resyncs_failed as f64);
    out.set("core.local_autonomy_periods", first.local_autonomy as f64);
}

/// Traced single-slice run: untraced repetitions (the overhead baseline)
/// alternate with traced ones, which use timed wrappers and a live
/// registry, so both sample the same machine state.
fn slice_traced(cfg: &SliceConfig, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let sink = SpanSink::new();
    let (mut plain, mut traced) = (SliceReps::new(cfg), SliceReps::new(cfg));
    repeat_for(budget, || {
        plain.run_one(cfg, None, false)?;
        traced.run_one(cfg, Some(&sink), false)?;
        Ok(plain.eps.len() > WARMUP_REPS)
    })?;
    check_slice(out, cfg, &traced.eps);
    out.same_digests(
        "traced vs untraced digest",
        traced.eps.iter().chain(&plain.eps).map(|e| e.digest),
    );
    let periods: usize = traced.eps.iter().map(|e| e.periods).sum();
    out.result.attempted = periods as u64;
    out.result.failed = traced.eps.iter().map(|e| e.failed as u64).sum();

    let spans = sink.spans();
    set_stages(out, &spans, periods);
    set_counters(out, &traced.eps);
    if cfg.control_plane {
        // ε-greedy keeps a table, not a posterior.
        out.set("bandit.posterior_share", 0.0);
    } else {
        // The select of period t sees a t-point window. Only the last
        // repetition's final periods count: they ran just before the
        // synthetic posterior is timed, on the same machine state.
        let (periods, window) = (cfg.periods, cfg.periods - 1);
        let last = traced.eps.len() as u32 - 1;
        let rep = |r: u32| r == last;
        set_posterior_share(out, &spans, periods, rep, window, layers::CANDIDATES, cfg.seed)?;
    }
    for name in ["fleet.lockstep_periods", "fleet.warm_spawns", "fleet.admission_retries"] {
        out.set(name, 0.0);
    }
    out.set("bench.runner_utilization", median_utilization(&plain.timings, 1));
    let overhead = median_rate(&plain.timings) / median_rate(&traced.timings) - 1.0;
    out.set("bench.trace_overhead_pct", 100.0 * overhead);
    out.spans = spans.into_iter().filter(|s| s.rep < 2).collect();
    Ok(())
}

/// Checks fleet runs: no failed slices, full lifetimes, and admission
/// pressure on the late wave.
fn check_fleet(out: &mut Outcome, runs: &[FleetRun]) {
    for (rep, r) in runs.iter().enumerate() {
        let rpt = &r.report;
        out.check(rpt.failed == 0 && rpt.cold_restores == 0, || {
            format!(
                "rep {rep}: {} failed and {} cold-restarted slices",
                rpt.failed, rpt.cold_restores
            )
        });
        let full = rpt.slices.len() * rpt.slices.first().map_or(0, |s| s.periods);
        out.check(
            rpt.slice_periods == full
                && rpt.slices.iter().all(|s| s.periods == rpt.slices[0].periods),
            || {
                format!(
                    "rep {rep}: {} slice-periods, expected slices x periods = {full}",
                    rpt.slice_periods
                )
            },
        );
        out.check(rpt.admission_retries > 0, || {
            format!("rep {rep}: admission never rejected the late wave")
        });
    }
}

fn fleet_timings(runs: &[FleetRun]) -> Vec<Timing> {
    let t =
        |r: &FleetRun| Timing { wall_s: r.wall_s, cpu_s: r.cpu_s, periods: r.report.slice_periods };
    runs.iter().map(t).collect()
}

/// Replays of one fleet run (see [`replay_fleet`]); their per-period
/// times go to `steps`, slice i's lifetime at the positions from
/// i · periods.
struct ReplayStream<'a> {
    cfg: FleetConfig,
    report: FleetReport,
    sink: Option<&'a SpanSink>,
    replays: Vec<FleetReplay>,
    steps: PeriodTimes,
}

impl<'a> ReplayStream<'a> {
    fn new(cfg: &FleetConfig, report: &FleetReport, sink: Option<&'a SpanSink>) -> Self {
        let steps = PeriodTimes::new(report.slice_periods);
        ReplayStream { cfg: cfg.clone(), report: report.clone(), sink, replays: Vec::new(), steps }
    }

    fn run_one(&mut self) -> Result<(), String> {
        let mut r = replay_fleet(&self.cfg, &self.report, self.sink)?;
        let mut first = 0;
        for ep in &mut r.eps {
            self.steps.add(first, &std::mem::take(&mut ep.step_s));
            first += ep.periods;
        }
        self.replays.push(r);
        Ok(())
    }

    /// Requires every replayed slice to fail no period and to reproduce
    /// its mean cost in the fleet's report bit for bit: a replay that
    /// strays from the fleet would time periods `Fleet::run` never ran.
    fn check(&self, out: &mut Outcome) {
        let mut fleet: Vec<(u64, f64)> =
            self.report.slices.iter().map(|s| (s.id, s.mean_cost)).collect();
        fleet.sort_by_key(|&(id, _)| id);
        for (rep, r) in self.replays.iter().enumerate() {
            let failed: usize = r.eps.iter().map(|e| e.failed).sum();
            out.check(failed == 0, || format!("fleet replay {rep}: {failed} periods failed"));
            let strayed = (r.eps.iter().zip(&fleet))
                .filter(|(ep, (_, cost))| {
                    (ep.cost_sum / ep.periods as f64).to_bits() != cost.to_bits()
                })
                .count();
            out.check(strayed == 0, || {
                format!("fleet replay {rep}: {strayed} slices differ from Fleet::run")
            });
        }
    }
}

fn summary_digest(r: &FleetRun) -> Digest {
    let mut d = Digest::new();
    d.bytes(r.report.summary().as_bytes());
    d
}

/// Untraced fleet run: the end-to-end metrics.
fn fleet_e2e(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    out.threads = sys::nproc();
    let cfg = fleet_config(seed, out.threads);
    let mut setups = Setups::default();
    let seed_wave = || build_seed_wave(&cfg);
    setups.sample(SETUP_PER_BOUNDARY, seed_wave)?;
    let mut runs = vec![run_fleet(&cfg, Registry::disabled())];
    // Fleet::run keeps its periods inside; the period quantiles come from
    // replays of its slices, one after each repetition so that they
    // sample the whole run.
    let mut stream = ReplayStream::new(&cfg, &runs[0].report, None);
    repeat_for(budget, || {
        setups.sample(SETUP_PER_BOUNDARY, seed_wave)?;
        stream.run_one()?;
        setups.sample(SETUP_PER_BOUNDARY, seed_wave)?;
        runs.push(run_fleet(&cfg, Registry::disabled()));
        Ok(runs.len() >= MIN_REPS)
    })?;
    setups.set(out);
    stream.check(out);
    set_period_times(out, &stream.steps, false)?;
    check_fleet(out, &runs);
    out.same_digests("fleet summary digest", runs.iter().map(summary_digest));
    let timings = fleet_timings(&runs[WARMUP_REPS..]);
    out.set("periods_per_s", median_rate(&timings));
    out.samples.push(("periods_per_s", timings.len()));
    out.set("cpu_ms_per_period", ms(median_of(&timings, |t| t.cpu_s / t.periods as f64)));
    out.samples.push(("cpu_ms_per_period", timings.len()));
    let rpt = &runs[0].report;
    let failed: u64 = runs.iter().map(|r| r.report.failed + r.report.cold_restores).sum();
    out.result.attempted = (rpt.slices.len() * runs.len()) as u64;
    out.result.failed = failed;
    out.set("ok_ratio", 1.0 - failed as f64 / out.result.attempted as f64);
    out.set("undegraded_ratio", 1.0);
    out.set("mean_cost", rpt.mean_cost());
    out.set("satisfaction", rpt.mean_satisfaction());
    out.set("peak_rss_mib", sys::peak_rss_mib());
    Ok(())
}

/// Traced fleet run: `Fleet::run` untraced and with a live registry, and
/// the stage split from a replay of its slices with timed wrappers.
fn fleet_traced(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    out.threads = sys::nproc();
    let cfg = fleet_config(seed, out.threads);
    // Untraced and live-registry repetitions alternate, so both sample
    // the same machine state.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    repeat_for(budget, || {
        plain.push(run_fleet(&cfg, Registry::disabled()));
        traced.push(run_fleet(&cfg, Registry::new()));
        Ok(plain.len() > WARMUP_REPS)
    })?;
    check_fleet(out, &traced);
    out.same_digests(
        "traced vs untraced fleet summary",
        traced.iter().chain(&plain).map(summary_digest),
    );
    let rpt = &traced[0].report;
    out.result.attempted = traced.iter().map(|r| r.report.slices.len() as u64).sum();
    out.result.failed = traced.iter().map(|r| r.report.failed).sum();
    out.set("fleet.lockstep_periods", rpt.total_periods as f64);
    out.set("fleet.warm_spawns", rpt.warm_spawns as f64);
    out.set("fleet.admission_retries", rpt.admission_retries as f64);
    let (plain, traced) =
        (fleet_timings(&plain[WARMUP_REPS..]), fleet_timings(&traced[WARMUP_REPS..]));
    out.set("bench.runner_utilization", median_utilization(&plain, out.threads));
    let overhead = median_rate(&plain) / median_rate(&traced) - 1.0;
    out.set("bench.trace_overhead_pct", 100.0 * overhead);

    let sink = SpanSink::new();
    let mut stream = ReplayStream::new(&cfg, rpt, Some(&sink));
    stream.run_one()?;
    stream.check(out);
    let replay = &stream.replays[0];
    let periods: usize = replay.eps.iter().map(|e| e.periods).sum();
    let spans = sink.spans();
    set_stages(out, &spans, periods);
    set_counters(out, &replay.eps);
    // The posterior share is taken over the warm slices that imported the
    // median number of points: a warm lifetime's last select sees those
    // points plus one per earlier period.
    let mut warm: Vec<usize> = replay.imported.iter().copied().filter(|&n| n > 0).collect();
    warm.sort_unstable();
    let imported = *warm.get(warm.len() / 2).ok_or("no slice warm started")?;
    let window = imported + cfg.periods - 1;
    let lifetime = |rep: u32| replay.imported[rep as usize] == imported;
    let candidates = layers::QUICK_CANDIDATES;
    set_posterior_share(out, &spans, cfg.periods, lifetime, window, candidates, seed)?;
    out.spans = spans;
    Ok(())
}

/// Timed calls of each experience-transfer function; the median is
/// reported.
const TRANSFER_CALLS: usize = 21;

/// Layer probes every traced run reports: the `gp`/`linalg` calls at the
/// paper episode's final shape, and the fleet's experience export and
/// import on a quick slice at the end of its lifetime.
fn layer_probes(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let t = layers::measure(seed);
    out.set("gp.predict_batch_ms", ms(t.predict_batch_s));
    out.set("linalg.half_solve_mat_ms", ms(t.half_solve_mat_s));
    out.set("gp.observe_us", t.observe_s * 1e6);
    out.samples.push(("gp.predict_batch_ms", t.calls));

    let (export_s, import_s) = transfer_times(&fleet_config(seed, 1), TRANSFER_CALLS)?;
    out.set("fleet.export_ms", ms(median(&export_s)));
    out.set("fleet.import_ms", ms(median(&import_s)));
    out.samples.push(("fleet.export_ms", TRANSFER_CALLS));
    out.samples.push(("fleet.import_ms", TRANSFER_CALLS));
    Ok(())
}

/// The meta line: run identity plus the sample count of every timing.
pub fn meta(args: &Args, out: &Outcome) -> String {
    let samples: Vec<(String, String)> =
        out.samples.iter().map(|(k, n)| (k.to_string(), n.to_string())).collect();
    let problems: Vec<String> = out.problems.iter().map(|p| escape(p)).collect();
    let fields = vec![
        ("workload".to_string(), escape(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), sys::nproc().to_string()),
        ("threads".into(), out.threads.to_string()),
        ("transport".into(), escape(out.transport)),
        ("git_rev".into(), escape(&sys::git_rev())),
        ("source_digest".into(), escape(&sys::source_digest(std::path::Path::new(".")))),
        ("rustc".into(), escape(sys::rustc_version())),
        ("digest".into(), escape(&out.digest)),
        ("samples".into(), report::object(&samples)),
        ("problems".into(), format!("[{}]", problems.join(", "))),
    ];
    report::object(&[("meta".into(), report::object(&fields))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert_eq!(
            args("--workload fleet-warm --seed 9 --seconds 30 --trace 1"),
            Ok(Args { workload: Workload::FleetWarm, seed: 9, seconds: 30, trace: true })
        );
        assert!(args("--seed 9").is_err(), "workload is required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload paper-episode --trace 2").is_err());
        assert!(args("--workload paper-episode --seconds 0").is_err());
        assert!(args("--workload paper-episode --bogus 1").is_err());
    }

    #[test]
    fn period_p95_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let mut out = Outcome::default();
        let few: Vec<f64> = (1..200).map(f64::from).collect();
        let err = period_quantiles(&mut out, &few).expect_err("199 samples leave 9 beyond p95");
        assert!(err.contains("period_p95_ms refused"), "{err}");
        assert!(out.result.values.is_empty(), "nothing reported on refusal");
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        period_quantiles(&mut out, &enough).expect("200 samples leave 10 beyond p95");
        let names: Vec<&str> = out.result.values.iter().map(|(k, _)| *k).collect();
        assert_eq!(names, ["period_p50_ms", "period_p95_ms"]);
        assert_eq!(out.result.values[0].1, 100.5e3, "interpolated median of 1..=200, in ms");
        assert!((out.result.values[1].1 - 190.05e3).abs() < 1e-6, "interpolated p95");
    }
}
