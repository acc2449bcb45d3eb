//! The three workloads and the loops that drive them.
//!
//! Every workload is a closed loop at full speed: a slice's next period
//! starts when the previous `try_step` returns, and the fleet steps all
//! running slices once per lockstep period. Inputs derive from the run's
//! seed alone, so one seed always yields the same episode, bit for bit.

use crate::stats::{mix, Digest};
use crate::wrap::{SpanSink, TimedAgent, TimedEnv, STEP};
use edgebol_core::trace::PeriodRecord;
use edgebol_core::{Agent, EdgeBolAgent, EpsGreedyAgent, Orchestrator, ProblemSpec};
use edgebol_fleet::{Experience, Fleet, FleetConfig, FleetReport, SliceReport};
use edgebol_metrics::{MetricValue, Registry};
use edgebol_oran::{ChaosConfig, CircuitState, LinkId, TransportKind};
use edgebol_testbed::{Calibration, Environment, FlowTestbed, Scenario};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One slice with the paper's EdgeBOL learner until its GP window
    /// passes 200 points: loads `Agent::select` and the GP posterior.
    PaperEpisode,
    /// `Fleet::run` with warm start, admission pressure and lockstep
    /// fan-out: loads the fleet driver and many small GPs.
    FleetWarm,
    /// One slice with the ε-greedy baseline over the reactor transport
    /// under a healing E2 cut: loads the testbed and the O-RAN plane.
    ControlPlane,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperEpisode, Workload::FleetWarm, Workload::ControlPlane];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEpisode => "paper-episode",
            Workload::FleetWarm => "fleet-warm",
            Workload::ControlPlane => "control-plane",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Periods of one paper episode: 12 warm-up rounds build the GPs, after
/// which every period adds one point, so period 201 leaves a 201-point
/// window — past 200 and far below the 800-point cap.
const PAPER_PERIODS: usize = 201;
/// Periods of one control-plane episode: long enough that ε-greedy's
/// exploration phase does not dominate its cost and satisfaction.
const CONTROL_PERIODS: usize = 5_000;
/// Post-arm E2 operations before the cut, and operations until it heals.
const CUT_AFTER_OPS: u64 = 1_200;
/// See [`CUT_AFTER_OPS`].
const HEAL_AFTER_OPS: u64 = 60;
/// Per-frame drop and corrupt probability on each control-plane lane.
const FAULT_RATE: f64 = 0.002;
/// Slices of the fleet workload.
const FLEET_SLICES: usize = 48;
/// Per-cell GPU capacity: the seed wave fits, the late wave overflows
/// the overcommitted budget, and the rest is admitted as slices retire.
const FLEET_GPU_CAPACITY: f64 = 3.0;

/// The single-slice workloads' configuration.
#[derive(Debug, Clone)]
pub struct SliceConfig {
    /// Paper EdgeBOL learner over poll (`false`) or ε-greedy over the
    /// reactor with faults (`true`).
    pub control_plane: bool,
    /// The run's seed.
    pub seed: u64,
    /// Episode length.
    pub periods: usize,
}

impl SliceConfig {
    /// The paper-episode configuration.
    pub fn paper(seed: u64) -> Self {
        SliceConfig { control_plane: false, seed, periods: PAPER_PERIODS }
    }

    /// The control-plane configuration.
    pub fn control_plane(seed: u64) -> Self {
        SliceConfig { control_plane: true, seed, periods: CONTROL_PERIODS }
    }

    /// The transport carrying A1/E2.
    pub fn transport(&self) -> TransportKind {
        if self.control_plane {
            TransportKind::Reactor
        } else {
            TransportKind::Poll
        }
    }

    /// The fault schedule: a seeded low-rate drop/corrupt schedule plus
    /// one E2 cut that heals, on control-plane; none on paper-episode.
    pub fn chaos(&self) -> ChaosConfig {
        if self.control_plane {
            ChaosConfig::drop_corrupt(mix(self.seed, 5), FAULT_RATE)
                .with_cut(LinkId::E2, CUT_AFTER_OPS)
                .with_heal(HEAL_AFTER_OPS)
        } else {
            ChaosConfig::disabled()
        }
    }

    /// Builds the slice: environment, agent and orchestrator, including
    /// the transport and the KPI-subscription handshake.
    ///
    /// # Errors
    /// The orchestrator's setup error, rendered.
    pub fn build(&self, sink: Option<&SpanSink>, reg: Registry) -> Result<Orchestrator, String> {
        // The Fig. 9 spec at δ2 = 8, one user at 35 dB.
        let spec = ProblemSpec::convergence(8.0);
        let scenario = Scenario::single_user(35.0);
        let (env, agent): (FlowTestbed, Box<dyn Agent>) = if self.control_plane {
            let env = FlowTestbed::new(Calibration::fast(), scenario, mix(self.seed, 3));
            (env, Box::new(EpsGreedyAgent::new(&spec, mix(self.seed, 4))))
        } else {
            let env = FlowTestbed::new(Calibration::fast(), scenario, mix(self.seed, 1));
            (env, Box::new(EdgeBolAgent::paper(&spec, mix(self.seed, 2))))
        };
        orchestrate(Box::new(env), agent, spec, self.chaos(), self.transport(), sink, reg)
    }
}

/// Wires an orchestrator, wrapping the agent and environment in timed
/// wrappers when tracing.
fn orchestrate(
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    spec: ProblemSpec,
    chaos: ChaosConfig,
    transport: TransportKind,
    sink: Option<&SpanSink>,
    reg: Registry,
) -> Result<Orchestrator, String> {
    let (env, agent): (Box<dyn Environment>, Box<dyn Agent>) = match sink {
        Some(s) => {
            (Box::new(TimedEnv::new(env, s.clone())), Box::new(TimedAgent::new(agent, s.clone())))
        }
        None => (env, agent),
    };
    Orchestrator::new_with_transport(env, agent, spec, chaos, reg, transport)
        .map_err(|e| format!("orchestrator setup failed: {e}"))
}

/// Control-plane counters of one episode, read from the orchestrator's
/// registry (zero when it is disabled) and getters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// A1 + E2 frames, both directions.
    pub frames: u64,
    /// A1 + E2 payload bytes, both directions.
    pub bytes: u64,
    /// Reactor event-loop turns.
    pub reactor_turns: u64,
    /// Faults the chaos schedule injected.
    pub faults: u64,
    /// Successful resyncs.
    pub resyncs_ok: u64,
    /// Failed resync attempts.
    pub resyncs_failed: u64,
    /// Periods ridden out in local autonomy.
    pub local_autonomy: u64,
}

/// What one single-slice episode produced.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Periods stepped.
    pub periods: usize,
    /// Wall time of every `try_step`, in seconds.
    pub step_s: Vec<f64>,
    /// Process CPU time of every `try_step`, in seconds.
    pub cpu_s: Vec<f64>,
    /// Periods that returned an `OrchestratorError`.
    pub failed: usize,
    /// `degraded_events` at the end of the episode.
    pub degraded: usize,
    /// Sum of the cost `u_t` over successful periods.
    pub cost_sum: f64,
    /// Periods that met both constraints.
    pub satisfied: usize,
    /// Whether the circuit ended `Connected`.
    pub connected: bool,
    /// Control-plane counters.
    pub counters: Counters,
    /// Bit-exact digest of every record and end-of-episode counter.
    pub digest: Digest,
}

fn fold_record(d: &mut Digest, r: &PeriodRecord) {
    d.u64(r.t as u64);
    for v in [r.control.resolution, r.control.airtime, r.control.gpu_speed] {
        d.f64(v);
    }
    d.u64(u64::from(r.control.mcs_cap.0));
    for v in [r.obs.delay_s, r.obs.gpu_delay_s, r.obs.map, r.obs.server_power_w, r.obs.bs_power_w] {
        d.f64(v);
    }
    d.f64(r.cost);
    d.u64(u64::from(r.satisfied));
}

fn counter_sum(reg: &Registry, family: &str) -> u64 {
    reg.snapshot()
        .entries
        .iter()
        .filter(|e| e.name == family || e.name.starts_with(&format!("{family}{{")))
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

impl Episode {
    /// An episode of `periods` periods, none stepped yet.
    fn new(periods: usize) -> Self {
        Episode {
            periods,
            step_s: Vec::with_capacity(periods),
            cpu_s: Vec::with_capacity(periods),
            failed: 0,
            degraded: 0,
            cost_sum: 0.0,
            satisfied: 0,
            connected: false,
            counters: Counters::default(),
            digest: Digest::new(),
        }
    }

    /// Steps period `t` of the episode, timing its `try_step` in wall
    /// and process-CPU time (and recording it as a `core.step` span of
    /// repetition `rep` when tracing).
    fn step(&mut self, orch: &mut Orchestrator, rep: u32, t: u32, sink: Option<&SpanSink>) {
        if let Some(s) = sink {
            s.set_period(rep, t);
        }
        let cpu0 = crate::sys::cpu_seconds();
        let start = Instant::now();
        let r = orch.try_step();
        let dur = start.elapsed();
        self.cpu_s.push(crate::sys::cpu_seconds() - cpu0);
        if let Some(s) = sink {
            s.record(STEP, start, dur);
        }
        self.step_s.push(dur.as_secs_f64());
        match r {
            Ok(rec) => {
                fold_record(&mut self.digest, &rec);
                self.cost_sum += rec.cost;
                self.satisfied += usize::from(rec.satisfied);
            }
            Err(e) => {
                self.failed += 1;
                self.digest.bytes(e.to_string().as_bytes());
            }
        }
    }

    /// Reads the end-of-episode counters off the orchestrator.
    fn finish(&mut self, orch: &Orchestrator) {
        let reg = orch.metrics();
        self.degraded = orch.degraded_events();
        self.connected = orch.circuit_state() == CircuitState::Connected;
        self.counters = Counters {
            frames: counter_sum(reg, "edgebol_oran_frames_total"),
            bytes: counter_sum(reg, "edgebol_oran_bytes_total"),
            reactor_turns: counter_sum(reg, "edgebol_oran_reactor_turns_total"),
            faults: orch.fault_ledger().len() as u64,
            resyncs_ok: orch.reconnects_ok(),
            resyncs_failed: orch.reconnects_failed(),
            local_autonomy: orch.local_autonomy_periods() as u64,
        };
        // Registry-independent outcome counters belong to the digest; the
        // traffic counters stay out (they read zero when untraced).
        for v in [
            self.degraded as u64,
            self.counters.faults,
            self.counters.resyncs_ok,
            self.counters.resyncs_failed,
            self.counters.local_autonomy,
            u64::from(self.connected),
        ] {
            self.digest.u64(v);
        }
    }
}

/// Steps a built orchestrator for `periods` periods, timing every
/// `try_step` (and recording it as a `core.step` span when tracing) and
/// calling `between(t)` after period `t` returns.
pub(crate) fn drive(
    orch: &mut Orchestrator,
    periods: usize,
    rep: u32,
    sink: Option<&SpanSink>,
    mut between: impl FnMut(usize),
) -> Episode {
    let mut ep = Episode::new(periods);
    for t in 0..periods {
        ep.step(orch, rep, t as u32, sink);
        between(t);
    }
    ep.finish(orch);
    ep
}

/// Builds and runs one single-slice episode.
///
/// # Errors
/// The orchestrator's setup error.
pub fn run_slice(cfg: &SliceConfig, rep: u32, sink: Option<&SpanSink>) -> Result<Episode, String> {
    run_slice_with(cfg, rep, sink, |_| {})
}

/// [`run_slice`], calling `between(t)` after period `t` returns.
///
/// # Errors
/// The orchestrator's setup error.
pub fn run_slice_with(
    cfg: &SliceConfig,
    rep: u32,
    sink: Option<&SpanSink>,
    between: impl FnMut(usize),
) -> Result<Episode, String> {
    let mut orch = cfg.build(sink, registry(sink))?;
    Ok(drive(&mut orch, cfg.periods, rep, sink, between))
}

/// A live registry when tracing, else a disabled one.
fn registry(sink: Option<&SpanSink>) -> Registry {
    if sink.is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    }
}

/// The fleet-warm configuration: the quick learner config, warm start,
/// two cells, lockstep fan-out on `threads` threads, poll transport, no
/// faults and no checkpoints.
pub fn fleet_config(seed: u64, threads: usize) -> FleetConfig {
    let mut cfg = FleetConfig::quick(FLEET_SLICES);
    cfg.seed = mix(seed, 6);
    cfg.gpu_capacity = FLEET_GPU_CAPACITY;
    cfg.threads = Some(threads);
    cfg
}

/// One `Fleet::run` with its wall and process-CPU time.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The fleet's deterministic report.
    pub report: FleetReport,
    /// Wall seconds inside `Fleet::run`.
    pub wall_s: f64,
    /// Process CPU seconds inside `Fleet::run`.
    pub cpu_s: f64,
}

/// Runs the fleet once, recording into `reg`.
pub fn run_fleet(cfg: &FleetConfig, reg: Registry) -> FleetRun {
    let mut fleet = Fleet::new(cfg.clone()).with_metrics(reg);
    let cpu0 = crate::sys::cpu_seconds();
    let start = Instant::now();
    let report = fleet.run();
    let wall_s = start.elapsed().as_secs_f64();
    FleetRun { report, wall_s, cpu_s: crate::sys::cpu_seconds() - cpu0 }
}

/// The parts `Fleet::run` builds for slice `id` when it admits it, from
/// the same public constructors and seeds: environment (its context
/// observed once, as the fleet does for donor search), cold quick
/// learner and problem spec.
pub(crate) fn fleet_slice_parts(
    cfg: &FleetConfig,
    id: u64,
) -> (FlowTestbed, EdgeBolAgent, ProblemSpec) {
    let env_seed = cfg.seed.wrapping_add(id.wrapping_mul(0x9E37_79B9));
    let mut env = FlowTestbed::new(Calibration::fast(), Scenario::fleet_slice(id), env_seed);
    env.observe_context();
    let spec = ProblemSpec::new(1.0, 8.0, cfg.d_max, cfg.rho_min);
    (env, EdgeBolAgent::quick_for_tests(&spec, env_seed.wrapping_add(1)), spec)
}

/// The GPU demand the fleet's admission charges slice `id` to its cell.
fn fleet_demand(id: u64) -> f64 {
    0.1 + 0.05 * Scenario::fleet_slice(id).num_users() as f64
}

/// Wires fleet slice `id` like `Fleet::run` does (the fleet's fault
/// schedule, poll transport), warm started from `experience` when
/// given, with timed wrappers when tracing.
fn fleet_slice(
    cfg: &FleetConfig,
    id: u64,
    experience: Option<&[(Vec<f64>, [f64; 3])]>,
    sink: Option<&SpanSink>,
) -> Result<Orchestrator, String> {
    let (env, mut agent, spec) = fleet_slice_parts(cfg, id);
    if let Some(exp) = experience {
        agent = agent.with_experience(exp);
    }
    let (chaos, poll, reg) = (cfg.chaos.clone(), TransportKind::Poll, registry(sink));
    orchestrate(Box::new(env), Box::new(agent), spec, chaos, poll, sink, reg)
}

/// Builds the fleet's seed wave — the slices `Fleet::run` wires before
/// its first lockstep period. Returns how many were built.
///
/// # Errors
/// The first orchestrator setup error.
pub(crate) fn build_seed_wave(cfg: &FleetConfig) -> Result<usize, String> {
    let n = cfg.slices.div_ceil(4).max(1);
    for id in 0..n as u64 {
        std::hint::black_box(fleet_slice(cfg, id, None, None)?);
    }
    Ok(n)
}

/// The newest `transfer_cap` points of an exported experience — what
/// `Fleet::run` hands a warm spawn.
fn newest(cfg: &FleetConfig, exp: &[(Vec<f64>, [f64; 3])]) -> Experience {
    exp[exp.len().saturating_sub(cfg.transfer_cap)..].to_vec()
}

/// Every slice of a fleet run, re-run outside `Fleet::run` so that each
/// `try_step` can be timed. The replay follows the schedule the run's
/// report records: slices are admitted at their `spawned_at` into their
/// cell, in id order; a warm slice imports its donor's experience as it
/// stood at that moment (live, or exported at retirement); every period
/// each running slice gets its cell's contention factor, then steps; a
/// slice retires after its last period. A slice's outputs depend only
/// on its seeds, its donor's experience and its contention factors, so
/// each equals the fleet's bit for bit, although the replay steps the
/// slices one after another on this thread.
#[derive(Debug, Clone)]
pub struct FleetReplay {
    /// Each slice's lifetime, in id order. Spans carry the slice id as
    /// their repetition.
    pub eps: Vec<Episode>,
    /// Points each slice imported (0 for a cold start), in id order.
    pub imported: Vec<usize>,
}

/// Replays the fleet run `rpt` reports (see [`FleetReplay`]).
///
/// # Errors
/// A setup error, a report that is not of `cfg`'s fleet, or a donor
/// that exported no experience.
pub fn replay_fleet(
    cfg: &FleetConfig,
    rpt: &FleetReport,
    sink: Option<&SpanSink>,
) -> Result<FleetReplay, String> {
    let mut slices: Vec<&SliceReport> = rpt.slices.iter().collect();
    slices.sort_by_key(|s| s.id);
    if slices.iter().enumerate().any(|(i, s)| s.id != i as u64 || s.cell >= rpt.cells) {
        return Err("the fleet report does not list slices 0..n".into());
    }
    let n = slices.len();
    let mut live: Vec<Option<Orchestrator>> = (0..n).map(|_| None).collect();
    let mut retired: Vec<Option<Experience>> = vec![None; n];
    let mut eps: Vec<Episode> = slices.iter().map(|s| Episode::new(s.periods)).collect();
    let mut imported = vec![0; n];
    let mut load = vec![0.0f64; rpt.cells];
    for t in 0..rpt.total_periods {
        for s in slices.iter().filter(|s| s.spawned_at == t) {
            let id = s.id as usize;
            // The report names a donor only for warm spawns.
            let exp = match s.donor.map(|d| d as usize) {
                Some(d) => {
                    let exp = match &live[d] {
                        Some(orch) => orch.agent_experience(),
                        None => retired[d].clone(),
                    };
                    Some(newest(cfg, &exp.ok_or("a donor exported no experience")?))
                }
                None => None,
            };
            imported[id] = exp.as_ref().map_or(0, Vec::len);
            live[id] = Some(fleet_slice(cfg, s.id, exp.as_deref(), sink)?);
            load[s.cell] += fleet_demand(s.id);
        }
        for s in &slices {
            let id = s.id as usize;
            if let Some(orch) = &mut live[id] {
                orch.set_gpu_contention((load[s.cell] / cfg.gpu_capacity).max(1.0));
                eps[id].step(orch, id as u32, (t - s.spawned_at) as u32, sink);
            }
        }
        for s in slices.iter().filter(|s| s.spawned_at + s.periods == t + 1) {
            let id = s.id as usize;
            let orch = live[id].take().ok_or("a slice retired before it was admitted")?;
            eps[id].finish(&orch);
            retired[id] = orch.agent_experience();
            load[s.cell] -= fleet_demand(s.id);
        }
    }
    Ok(FleetReplay { eps, imported })
}

/// Per-call wall times of the fleet's experience transfer, `calls` each:
/// `Orchestrator::agent_experience` on fleet slice 0 at the end of its
/// lifetime, and `EdgeBolAgent::with_experience` of its newest
/// `transfer_cap` points into a fresh slice-1 learner. The lifetime runs
/// without the fleet's contention: the transfer's cost depends on how
/// many points move, and every lifetime of `cfg.periods` periods leaves
/// the same number.
///
/// # Errors
/// A setup error, or a cold learner that exported no experience.
pub(crate) fn transfer_times(
    cfg: &FleetConfig,
    calls: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut donor = fleet_slice(cfg, 0, None, None)?;
    drive(&mut donor, cfg.periods, 0, None, |_| {});
    let export_s = (0..calls)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(donor.agent_experience());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let exp = donor.agent_experience().ok_or("the quick EdgeBOL learner exported no experience")?;
    let points = newest(cfg, &exp);
    let import_s = (0..calls)
        .map(|_| {
            let (_, fresh, _) = fleet_slice_parts(cfg, 1);
            let start = Instant::now();
            std::hint::black_box(fresh.with_experience(&points));
            start.elapsed().as_secs_f64()
        })
        .collect();
    Ok((export_s, import_s))
}

/// Runs `body` until `body` last reported that it has collected enough
/// samples and another call, expected to last as long as the last one,
/// would end more than half a call past `budget`; returns the loop's
/// wall seconds. A run thus lasts `budget` give or take half a call.
///
/// # Errors
/// The first error `body` returns.
pub(crate) fn repeat_for(
    budget: Duration,
    mut body: impl FnMut() -> Result<bool, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    loop {
        let call = Instant::now();
        let enough = body()?;
        if enough && start.elapsed() + call.elapsed() / 2 >= budget {
            return Ok(start.elapsed().as_secs_f64());
        }
    }
}
