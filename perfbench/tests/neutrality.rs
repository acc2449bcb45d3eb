//! Tracing observes without changing: the timed wrappers forward every
//! trait method, and a traced and an untraced run of each workload on the
//! same seed produce identical digests.

use edgebol_ckpt::CkptError;
use edgebol_core::Agent;
use edgebol_metrics::Registry;
use edgebol_perfbench::workload::{fleet_config, replay_fleet, run_fleet, run_slice, SliceConfig};
use edgebol_perfbench::wrap::{self, SpanSink, TimedAgent, TimedEnv};
use edgebol_testbed::{ContextObs, ControlInput, Environment, PeriodObservation};
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<&'static str>>>;

fn called(log: &Log) -> Vec<&'static str> {
    let mut v = log.lock().expect("log").clone();
    v.sort_unstable();
    v
}

/// Answers every method with a value no trait default returns.
struct FakeAgent(Log);

impl Agent for FakeAgent {
    fn select(&mut self, _: &ContextObs) -> ControlInput {
        self.0.lock().expect("log").push("select");
        ControlInput::max_resources()
    }
    fn update(&mut self, _: &ContextObs, _: &ControlInput, _: &PeriodObservation) {
        self.0.lock().expect("log").push("update");
    }
    fn set_constraints(&mut self, _: f64, _: f64) {
        self.0.lock().expect("log").push("set_constraints");
    }
    fn safe_set_size(&mut self, _: &ContextObs) -> Option<usize> {
        self.0.lock().expect("log").push("safe_set_size");
        Some(7)
    }
    fn export_experience(&self) -> Option<Vec<(Vec<f64>, [f64; 3])>> {
        self.0.lock().expect("log").push("export_experience");
        Some(vec![(vec![0.5], [1.0, 2.0, 3.0])])
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        self.0.lock().expect("log").push("save_state");
        Some(vec![1, 2, 3])
    }
    fn load_state(&mut self, _: &[u8]) -> Result<(), CkptError> {
        self.0.lock().expect("log").push("load_state");
        Ok(())
    }
    fn name(&self) -> &'static str {
        self.0.lock().expect("log").push("name");
        "fake"
    }
}

/// Answers every method with a value no trait default returns.
struct FakeEnv(Log);

fn ctx() -> ContextObs {
    ContextObs { num_users: 2, mean_cqi: 12.0, var_cqi: 1.0 }
}

fn obs() -> PeriodObservation {
    PeriodObservation {
        delay_s: 0.3,
        gpu_delay_s: 0.1,
        map: 0.6,
        server_power_w: 150.0,
        bs_power_w: 6.0,
    }
}

impl Environment for FakeEnv {
    fn observe_context(&mut self) -> ContextObs {
        self.0.lock().expect("log").push("observe_context");
        ctx()
    }
    fn step(&mut self, _: &ControlInput) -> PeriodObservation {
        self.0.lock().expect("log").push("step");
        obs()
    }
    fn num_users(&self) -> usize {
        self.0.lock().expect("log").push("num_users");
        2
    }
    fn set_gpu_contention(&mut self, _: f64) {
        self.0.lock().expect("log").push("set_gpu_contention");
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        self.0.lock().expect("log").push("save_state");
        Some(vec![4, 5])
    }
    fn load_state(&mut self, _: &[u8]) -> Result<(), CkptError> {
        self.0.lock().expect("log").push("load_state");
        Ok(())
    }
}

#[test]
fn timed_agent_forwards_every_method_and_times_select_and_update() {
    let log = Log::default();
    let sink = SpanSink::new();
    let mut a = TimedAgent::new(Box::new(FakeAgent(log.clone())), sink.clone());
    let c = a.select(&ctx());
    a.update(&ctx(), &c, &obs());
    a.set_constraints(0.4, 0.5);
    assert_eq!(a.safe_set_size(&ctx()), Some(7));
    assert_eq!(a.export_experience(), Some(vec![(vec![0.5], [1.0, 2.0, 3.0])]));
    assert_eq!(a.save_state(), Some(vec![1, 2, 3]));
    assert!(a.load_state(&[1]).is_ok());
    assert_eq!(a.name(), "fake");
    assert_eq!(
        called(&log),
        [
            "export_experience",
            "load_state",
            "name",
            "safe_set_size",
            "save_state",
            "select",
            "set_constraints",
            "update"
        ]
    );
    let names: Vec<&str> = sink.spans().iter().map(|s| s.name).collect();
    assert_eq!(names, [wrap::SELECT, wrap::UPDATE]);
}

#[test]
fn timed_env_forwards_every_method_and_times_context_and_step() {
    let log = Log::default();
    let sink = SpanSink::new();
    let mut e = TimedEnv::new(Box::new(FakeEnv(log.clone())), sink.clone());
    assert_eq!(e.observe_context(), ctx());
    assert_eq!(e.step(&ControlInput::max_resources()), obs());
    assert_eq!(e.num_users(), 2);
    e.set_gpu_contention(1.5);
    assert_eq!(e.save_state(), Some(vec![4, 5]));
    assert!(e.load_state(&[4]).is_ok());
    assert_eq!(
        called(&log),
        ["load_state", "num_users", "observe_context", "save_state", "set_gpu_contention", "step"]
    );
    let names: Vec<&str> = sink.spans().iter().map(|s| s.name).collect();
    assert_eq!(names, [wrap::CONTEXT, wrap::ENV_STEP]);
}

fn traced_equals_untraced(cfg: &SliceConfig) {
    let plain = run_slice(cfg, 0, None).expect("untraced setup");
    let sink = SpanSink::new();
    let traced = run_slice(cfg, 0, Some(&sink)).expect("traced setup");
    assert_eq!(plain.failed, 0);
    assert_eq!(traced.digest, plain.digest, "tracing changed the outputs");
    assert_eq!(traced.counters.faults, plain.counters.faults);
    let spans = sink.spans();
    for name in [wrap::STEP, wrap::CONTEXT, wrap::SELECT, wrap::ENV_STEP, wrap::UPDATE] {
        let n = spans.iter().filter(|s| s.name == name).count();
        assert_eq!(n, cfg.periods, "{name} spans");
    }
    assert!(traced.counters.frames > 0, "the live registry counts frames");
    assert_eq!(plain.counters.frames, 0, "the untraced registry is disabled");
}

#[test]
fn paper_episode_traced_equals_untraced() {
    traced_equals_untraced(&SliceConfig { periods: 30, ..SliceConfig::paper(5) });
}

#[test]
fn control_plane_traced_equals_untraced_through_the_cut_and_heal() {
    let cfg = SliceConfig { periods: 400, ..SliceConfig::control_plane(5) };
    traced_equals_untraced(&cfg);
    let ep = run_slice(&cfg, 0, None).expect("setup");
    assert!(ep.counters.local_autonomy > 0, "the E2 cut fired within 400 periods");
    assert!(ep.connected, "and healed");
}

#[test]
fn fleet_warm_traced_equals_untraced() {
    let mut cfg = fleet_config(5, 2);
    cfg.slices = 12;
    cfg.periods = 12;
    let plain = run_fleet(&cfg, Registry::disabled());
    let traced = run_fleet(&cfg, Registry::new());
    assert_eq!(plain.report.failed, 0);
    assert_eq!(traced.report.summary(), plain.report.summary());

    let sink = SpanSink::new();
    let rpt = &plain.report;
    let untraced = replay_fleet(&cfg, rpt, None).expect("replay");
    let traced = replay_fleet(&cfg, rpt, Some(&sink)).expect("traced replay");
    let digests = |r: &[edgebol_perfbench::workload::Episode]| -> Vec<_> {
        r.iter().map(|e| e.digest).collect()
    };
    assert_eq!(digests(&traced.eps), digests(&untraced.eps), "tracing changed the outputs");
    assert_eq!(traced.imported, untraced.imported);
    let steps = sink.spans().iter().filter(|s| s.name == wrap::STEP).count();
    assert_eq!(steps, rpt.slice_periods, "one core.step span per slice-period");
}

/// The replay re-runs exactly the lifetimes `Fleet::run` ran — cold and
/// warm, under admission delays and cell contention — so the periods it
/// times are the fleet's.
#[test]
fn fleet_replay_reproduces_every_slice_of_the_fleet() {
    let mut cfg = fleet_config(11, 2);
    cfg.slices = 24;
    cfg.periods = 16;
    cfg.stagger = 6;
    cfg.min_donor_periods = 6;
    cfg.gpu_capacity = 1.5;
    let rpt = run_fleet(&cfg, Registry::disabled()).report;
    assert!(rpt.admission_retries > 0, "admission delays part of the late wave");
    assert!(rpt.warm_spawns > 0 && rpt.cold_spawns > 0, "both kinds of lifetime run");
    let slice = |id: u64| rpt.slices.iter().find(|s| s.id == id).expect("donor in report");
    let donor_retired = |s: &edgebol_fleet::SliceReport| {
        s.donor.map(|d| slice(d).spawned_at + slice(d).periods <= s.spawned_at)
    };
    let donors: Vec<bool> = rpt.slices.iter().filter_map(donor_retired).collect();
    assert!(donors.contains(&false), "some warm slices import from a live donor");
    assert!(donors.contains(&true), "and some from a retired donor's snapshot");

    let replay = replay_fleet(&cfg, &rpt, None).expect("replay");
    assert_eq!(replay.eps.len(), rpt.slices.len());
    for s in &rpt.slices {
        let ep = &replay.eps[s.id as usize];
        assert_eq!(ep.failed, 0);
        assert_eq!(ep.periods, s.periods);
        assert_eq!(
            (ep.cost_sum / ep.periods as f64).to_bits(),
            s.mean_cost.to_bits(),
            "slice {} ({}) strayed from the fleet",
            s.id,
            if s.warm { "warm" } else { "cold" }
        );
        assert_eq!(replay.imported[s.id as usize] > 0, s.warm);
    }
}
