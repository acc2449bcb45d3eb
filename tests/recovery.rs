//! Survivable-control-plane suite: the reconnect supervisor under
//! scheduled link cuts (DESIGN.md §9).
//!
//! The invariants pinned here:
//!
//! * **Survival** — a healing cut (`cut=e2@N,heal=e2@M`) costs an outage
//!   window, not the run: every period completes, the supervisor resyncs
//!   at least once, and the loop ends back on the connected path.
//! * **Outage-window-only deviation** — records before the first outage
//!   period are bit-identical to a fault-free run's; the supervisor is
//!   pure bookkeeping until a session actually dies.
//! * **Sticky fallback** — an unhealed cut latches the circuit open and
//!   the run survives indefinitely in local autonomy, probing half-open
//!   on a fixed cadence.
//! * **Fail-fast contract** — the same unhealed cut with fallback
//!   disabled surfaces the typed `CircuitOpen` error at a deterministic
//!   period (pinned in `tests/chaos_pipeline.rs`).
//! * **Determinism** — traces, supervisor counters and metrics are
//!   bit-identical across reruns and across worker-thread counts.
//!
//! `EDGEBOL_CHAOS_SEED` offsets the environment seeds (the CI stress
//! step loops this suite over ten values); every invariant holds per
//! seed.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::parallel_map_threads;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, CircuitState, FallbackMode, LinkId, RecoveryPolicy};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

/// Seed offset for the CI chaos-stress loop (defaults to 0).
fn seed_offset() -> u64 {
    std::env::var("EDGEBOL_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Builds over the `EDGEBOL_TRANSPORT` transport, so the CI pass with
/// `EDGEBOL_TRANSPORT=reactor` runs every orchestrator of this suite
/// over the reactor.
fn build(env_seed: u64, chaos: ChaosConfig, metrics: Registry) -> Orchestrator {
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let env = FlowTestbed::new(Calibration::fast(), Scenario::recovery_suite(), env_seed);
    let agent = EdgeBolAgent::quick_for_tests(&spec, env_seed);
    let transport = edgebol_bench::env::transport();
    let o = Orchestrator::new_with_transport(
        Box::new(env),
        Box::new(agent),
        spec,
        chaos,
        metrics,
        transport,
    )
    .expect("setup never fails pre-arm");
    assert_eq!(o.transport(), transport);
    o
}

/// The acceptance schedule from the issue: cut the E2 link after 40
/// operations, heal it 25 operations later.
fn healing_cut() -> ChaosConfig {
    ChaosConfig::from_spec("cut=e2@40,heal=e2@25").expect("valid spec")
}

#[test]
fn healed_cut_survives_and_the_metrics_tell_the_story() {
    let reg = Registry::new();
    let mut o = build(1 + seed_offset(), healing_cut(), reg.clone());
    let trace = o.try_run(80).expect("a healed cut must not abort the run");
    assert_eq!(trace.len(), 80, "every period completes");

    assert!(o.reconnects_ok() >= 1, "the supervisor must resync at least once");
    assert!(o.session_epoch() >= 1, "each resync bumps the session epoch");
    assert_eq!(o.circuit_state(), CircuitState::Connected, "the run ends reconnected");
    assert!(o.local_autonomy_periods() > 0, "the outage window ran in local autonomy");
    assert!(o.first_outage_period().is_some());

    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("edgebol_oran_reconnects_total{link=\"E2\",outcome=\"ok\"}"),
        Some(o.reconnects_ok()),
    );
    assert_eq!(
        snap.counter("edgebol_oran_reconnects_total{link=\"E2\",outcome=\"failed\"}"),
        Some(o.reconnects_failed()),
    );
    assert_eq!(
        snap.counter("edgebol_core_local_autonomy_periods_total"),
        Some(o.local_autonomy_periods() as u64),
    );
    assert_eq!(snap.gauge("edgebol_oran_circuit_state"), Some(0.0), "gauge back at Connected");
    // Every scheduled backoff interval landed in the histogram: one for
    // the initial loss plus one per failed resync attempt.
    match snap.get("edgebol_oran_backoff_periods") {
        Some(edgebol_metrics::MetricValue::Histogram { count, .. }) => {
            assert_eq!(*count, 1 + o.reconnects_failed());
        }
        other => panic!("expected backoff histogram, got {other:?}"),
    }
    // The healed cut is ledgered once, as a *degrading* fault (the run
    // survived it), keeping the ledger's taxonomy honest.
    let ledger = o.fault_ledger();
    assert_eq!(ledger.len(), 1);
    assert_eq!(ledger.degrading_count(), 1);
}

#[test]
fn trace_deviates_only_inside_the_outage_window() {
    let seed = 2 + seed_offset();
    let mut clean = build(seed, ChaosConfig::disabled(), Registry::disabled());
    let reference = clean.try_run(80).expect("fault-free");

    let mut o = build(seed, healing_cut(), Registry::disabled());
    let trace = o.try_run(80).expect("a healed cut must not abort the run");

    let outage = o.first_outage_period().expect("the cut must open an outage window");
    assert!(outage > 0, "a 40-op budget must survive period 0");
    // Strictly before the outage the two runs are bit-identical — the
    // supervisor machinery is invisible until a session dies.
    for (a, b) in reference.records[..outage].iter().zip(&trace.records[..outage]) {
        assert_eq!(a.t, b.t);
        assert_eq!(a.control.airtime.to_bits(), b.control.airtime.to_bits(), "t={}", a.t);
        assert_eq!(a.control.mcs_cap, b.control.mcs_cap, "t={}", a.t);
        assert_eq!(a.obs.bs_power_w.to_bits(), b.obs.bs_power_w.to_bits(), "t={}", a.t);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "t={}", a.t);
    }
    // And the deviation is real: the outage window exists and perturbs
    // at least one record after its start.
    assert_ne!(reference, trace, "the outage must leave a trace");
}

#[test]
fn sticky_fallback_survives_an_unhealed_cut_with_half_open_probes() {
    let cfg = ChaosConfig::disabled().with_cut(LinkId::E2, 40);
    let mut o = build(3 + seed_offset(), cfg, Registry::disabled());
    let trace = o.try_run(120).expect("sticky fallback never aborts the run");
    assert_eq!(trace.len(), 120);
    assert_eq!(o.reconnects_ok(), 0, "the cut never heals");
    assert!(matches!(o.circuit_state(), CircuitState::Open { .. }), "{:?}", o.circuit_state());
    // After the budget is spent the supervisor keeps probing half-open:
    // strictly more failed attempts than the in-budget retries alone.
    let budget = u64::from(RecoveryPolicy::default().max_retries);
    assert!(
        o.reconnects_failed() > budget,
        "half-open probes must keep trying: {} failed vs budget {}",
        o.reconnects_failed(),
        budget
    );
    assert!(o.local_autonomy_periods() > 0);
}

#[test]
fn recovery_runs_are_bit_identical_across_reruns_and_thread_counts() {
    // A fleet of four healed-cut episodes per thread count, seeds fixed:
    // the supervisor's clocked state machine must not introduce any
    // wall-clock or scheduling dependence.
    let fleet = |threads: usize| -> Vec<(Trace, u64, u64, usize, Option<usize>)> {
        parallel_map_threads(threads, 4, edgebol_bench::metrics(), |i| {
            let mut o = build(10 + i as u64 + seed_offset(), healing_cut(), Registry::disabled());
            let trace = o.try_run(60).expect("a healed cut must not abort the run");
            (
                trace,
                o.reconnects_ok(),
                o.reconnects_failed(),
                o.local_autonomy_periods(),
                o.first_outage_period(),
            )
        })
    };
    let sequential = fleet(1);
    let parallel = fleet(4);
    assert_eq!(sequential.len(), 4);
    for ((t1, ok1, f1, la1, w1), (t2, ok2, f2, la2, w2)) in sequential.iter().zip(&parallel) {
        assert_eq!(t1, t2, "traces must be bit-identical across thread counts");
        assert_eq!((ok1, f1, la1, w1), (ok2, f2, la2, w2));
        assert!(*ok1 >= 1);
    }
    // And a plain rerun reproduces the sequential fleet exactly.
    assert_eq!(sequential, fleet(1));
}

#[test]
fn fallback_mode_parses_the_operator_knob_values() {
    assert_eq!("".parse::<FallbackMode>().unwrap(), FallbackMode::Sticky);
    assert_eq!("sticky".parse::<FallbackMode>().unwrap(), FallbackMode::Sticky);
    assert_eq!("off".parse::<FallbackMode>().unwrap(), FallbackMode::Off);
    assert!("panic".parse::<FallbackMode>().is_err());
}
