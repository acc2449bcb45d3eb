//! End-to-end degraded-mode suite: full learning episodes run under the
//! deterministic chaos layer (`edgebol_oran::chaos`).
//!
//! The invariants pinned here:
//!
//! * **Transparency at rate 0** — a zero-rate chaos plan produces a trace
//!   byte-identical to a fault-free run, with an empty fault ledger.
//! * **Exact accounting** — under schedules whose faults cannot mask one
//!   another (drop + corrupt everywhere; delay only on the E2 receive
//!   lane), `Orchestrator::degraded_events` equals the ledger's
//!   degrading-fault count, and the per-stage counters sum to it.
//! * **Truthfulness** — the policy each trace record reports is exactly
//!   the one the E2 node last applied (or the quantized bootstrap
//!   fallback before any application): enforcement never silently
//!   diverges from the last acknowledged policy, at any fault rate.
//! * **Determinism** — two runs under the same seed yield identical
//!   traces and identical fault ledgers.
//! * **Lost links are circuit-broken, not degraded** — an unhealed link
//!   cut is absorbed by the reconnect supervisor; once the retry budget
//!   is spent, a run with fallback disabled fails fast with the typed
//!   `OrchestratorError::CircuitOpen`, at a deterministic period.
//!   (Healing cuts and sticky survival live in `tests/recovery.rs`.)
//!
//! `EDGEBOL_CHAOS_SEED` offsets every chaos seed (the CI stress step
//! loops it over ten values); the invariants hold for any seed.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::{Orchestrator, OrchestratorError};
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_metrics::Registry;
use edgebol_oran::{
    ChaosConfig, FallbackMode, FaultKind, FaultRecord, LaneConfig, LinkId, MsgClass, RecoveryPolicy,
};
use edgebol_ran::Mcs;
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

/// Seed offset for the CI chaos-stress loop (defaults to 0).
fn seed_offset() -> u64 {
    std::env::var("EDGEBOL_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Builds over the `EDGEBOL_TRANSPORT` transport, so the CI pass with
/// `EDGEBOL_TRANSPORT=reactor` runs every orchestrator of this suite
/// over the reactor.
fn build(env_seed: u64, chaos: ChaosConfig) -> Orchestrator {
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let env = FlowTestbed::new(Calibration::fast(), Scenario::chaos_suite(), env_seed);
    let agent = EdgeBolAgent::quick_for_tests(&spec, env_seed);
    let transport = edgebol_bench::env::transport();
    let o = Orchestrator::new_with_transport(
        Box::new(env),
        Box::new(agent),
        spec,
        chaos,
        Registry::disabled(),
        transport,
    )
    .expect("setup never fails pre-arm");
    assert_eq!(o.transport(), transport);
    o
}

/// One full episode; returns the trace plus the orchestrator for its
/// ledger/counters.
fn episode(env_seed: u64, periods: usize, chaos: ChaosConfig) -> (Trace, Orchestrator) {
    let mut o = build(env_seed, chaos);
    let trace = o.try_run(periods).expect("recoverable-only schedules never abort");
    (trace, o)
}

/// Asserts that every record's policy matches the last one the node
/// applied at that point (or the quantized bootstrap fallback).
fn assert_enforcement_truthful(trace: &Trace, o: &Orchestrator) {
    let log = o.enforcement_log();
    for r in &trace.records {
        match log.iter().rev().find(|&&(stamp, _)| stamp <= r.t) {
            Some(&(_, p)) => {
                assert_eq!(r.control.airtime, p.airtime, "period {}: stale airtime", r.t);
                assert_eq!(
                    r.control.mcs_cap,
                    Mcs::clamped(p.max_mcs as i64),
                    "period {}: stale MCS cap",
                    r.t
                );
            }
            None => {
                // Bootstrap: nothing ever enforced yet; the fallback is
                // the period-0 request, locally milli-quantized.
                let milli = r.control.airtime * 1000.0;
                assert!((milli - milli.round()).abs() < 1e-9, "unquantized bootstrap airtime");
                assert_eq!(r.control.airtime, trace.records[0].control.airtime);
            }
        }
    }
    // The orchestrator's own fallback pointer agrees with the node.
    if let Some(&(_, p)) = log.last() {
        assert_eq!(o.last_enforced(), Some(p));
    }
}

#[test]
fn zero_rate_chaos_is_byte_identical_to_fault_free() {
    let seed = 31 + seed_offset();
    // A plan with a live seed but all-zero rates...
    let (chaotic, o) = episode(seed, 40, ChaosConfig::uniform(777, LaneConfig::off()));
    // ...against a fault-free orchestrator.
    let clean = build(seed, ChaosConfig::disabled()).try_run(40).expect("fault-free control plane");
    assert_eq!(chaotic, clean, "zero-rate chaos must be transparent");
    assert!(o.fault_ledger().is_empty());
    assert_eq!(o.degraded_events(), 0);
    assert_enforcement_truthful(&chaotic, &o);
}

#[test]
fn drop_corrupt_accounting_is_exact_and_deterministic() {
    // A full learning episode at three fault rates (0 is covered above).
    for (i, rate) in [0.05, 0.25].iter().enumerate() {
        let chaos_seed = 100 + i as u64 + seed_offset();
        let cfg = ChaosConfig::drop_corrupt(chaos_seed, *rate);
        let (t1, o1) = episode(17, 40, cfg.clone());
        let ledger = o1.fault_ledger();
        assert!(!ledger.is_empty(), "rate {rate} over 40 periods must inject");
        // Drop and corrupt faults cannot mask one another (nothing ever
        // re-creates a lost frame), so accounting is exact.
        assert_eq!(
            o1.degraded_events(),
            ledger.degrading_count(),
            "rate {rate}: degraded events must equal the ledger's degrading faults\n{:#?}",
            ledger.records()
        );
        assert_eq!(o1.degraded_by_stage().values().sum::<usize>(), o1.degraded_events());
        assert_enforcement_truthful(&t1, &o1);
        // Determinism: the same seeds reproduce trace and ledger exactly.
        let (t2, o2) = episode(17, 40, cfg);
        assert_eq!(t1, t2, "rate {rate}: trace must be reproducible");
        assert_eq!(ledger.records(), o2.fault_ledger().records());
    }
}

#[test]
fn delay_only_on_e2_rx_is_exactly_accounted() {
    // Delays on the xApp's E2 receive lane hit ControlAcks (benign: the
    // node already applied the policy) and Indications (degrading: the
    // period's KPI sample goes missing). No kind on this lane can mask
    // another, so accounting is exact here too.
    let cfg = ChaosConfig {
        seed: 400 + seed_offset(),
        a1_tx: LaneConfig::off(),
        a1_rx: LaneConfig::off(),
        e2_tx: LaneConfig::off(),
        e2_rx: LaneConfig { delay: 0.3, delay_ops: 2, ..LaneConfig::off() },
        cut: None,
        heal: None,
    };
    let (trace, o) = episode(18, 40, cfg);
    let ledger = o.fault_ledger();
    assert!(!ledger.is_empty());
    assert_eq!(o.degraded_events(), ledger.degrading_count());
    for r in ledger.records() {
        assert_eq!(r.kind, FaultKind::Delay);
        assert_eq!(r.link, LinkId::E2);
        // Degrading delayed frames are exactly the lost KPI indications;
        // a delayed (stale) sample must never be credited to a later
        // period, so each one stays a one-period degradation.
        assert_eq!(r.is_degrading(), r.msg == MsgClass::E2Indication, "{r:?}");
    }
    assert_enforcement_truthful(&trace, &o);
}

#[test]
fn all_kinds_with_bursts_never_panics_and_stays_truthful() {
    // Every fault kind at once, with burst windows tripling the rates:
    // exact accounting is impossible (a duplicated or delayed policy can
    // mask a later drop), so the invariants are no-panic, bounds and
    // truthfulness — plus full determinism.
    let mut lane = LaneConfig::all_kinds(0.15);
    lane.burst_every = 40;
    lane.burst_len = 10;
    lane.burst_mult = 3.0;
    let cfg = ChaosConfig { cut: None, ..ChaosConfig::uniform(900 + seed_offset(), lane) };
    let (t1, o1) = episode(19, 50, cfg.clone());
    assert_eq!(t1.len(), 50);
    let ledger = o1.fault_ledger();
    assert!(!ledger.is_empty());
    // Masking can hide a degrading fault but never invent a degraded
    // event without one.
    assert!(
        o1.degraded_events() <= ledger.degrading_count(),
        "degraded {} > degrading faults {}",
        o1.degraded_events(),
        ledger.degrading_count()
    );
    assert_eq!(o1.degraded_by_stage().values().sum::<usize>(), o1.degraded_events());
    // Airtime quantization survives arbitrary fault schedules.
    for r in &t1.records {
        let milli = r.control.airtime * 1000.0;
        assert!((milli - milli.round()).abs() < 1e-9, "airtime {}", r.control.airtime);
    }
    assert_enforcement_truthful(&t1, &o1);
    let (t2, o2) = episode(19, 50, cfg);
    assert_eq!(t1, t2);
    assert_eq!(ledger.records(), o2.fault_ledger().records());
}

#[test]
fn unhealed_link_cut_with_fallback_off_fails_fast_with_circuit_open() {
    let run = |link: LinkId| -> (usize, &'static str, String) {
        let cfg = ChaosConfig::disabled().with_cut(link, 40);
        let mut o = build(20, cfg)
            .with_recovery(RecoveryPolicy::default().with_fallback(FallbackMode::Off));
        for t in 0..200 {
            match o.try_step() {
                Ok(_) => {}
                Err(e) => {
                    assert!(!e.is_recoverable(), "an open circuit is not degraded mode: {e}");
                    assert!(!e.is_session_fatal(), "the verdict itself ends no session: {e}");
                    match e {
                        OrchestratorError::CircuitOpen { link: l, attempts } => {
                            assert_eq!(l, link, "the supervisor must attribute the lost link");
                            assert_eq!(attempts, RecoveryPolicy::default().max_retries);
                        }
                        ref other => panic!("expected CircuitOpen, got {other}"),
                    }
                    assert_eq!(e.stage(), "reconnect supervisor");
                    // The run burned the whole retry budget before giving
                    // up, never reconnecting across an unhealed cut.
                    assert_eq!(o.reconnects_ok(), 0);
                    assert!(
                        o.reconnects_failed() >= u64::from(RecoveryPolicy::default().max_retries)
                    );
                    // The cut is ledgered exactly once, as non-degrading
                    // (no heal scheduled: the outage is permanent).
                    let cuts: Vec<FaultRecord> = o
                        .fault_ledger()
                        .records()
                        .into_iter()
                        .filter(|r| r.kind == FaultKind::LinkCut)
                        .collect();
                    assert_eq!(cuts.len(), 1);
                    assert_eq!(cuts[0].link, link);
                    assert!(!cuts[0].is_degrading());
                    return (t, e.stage(), e.to_string());
                }
            }
        }
        panic!("open circuit never surfaced for {link:?}");
    };
    for link in [LinkId::A1, LinkId::E2] {
        let first = run(link);
        assert!(first.0 > 0, "a 40-op budget must survive period 0");
        // Fully deterministic: the circuit opens at the same period with
        // the same message on a rerun.
        assert_eq!(first, run(link));
    }
}

#[test]
fn distinct_chaos_seeds_yield_distinct_fault_schedules() {
    let (_, o1) = episode(21, 25, ChaosConfig::drop_corrupt(1 + seed_offset(), 0.15));
    let (_, o2) = episode(21, 25, ChaosConfig::drop_corrupt(2 + seed_offset(), 0.15));
    assert_ne!(
        o1.fault_ledger().records(),
        o2.fault_ledger().records(),
        "different seeds must produce different schedules"
    );
}

/// The invariant the whole suite leans on: `try_step` never returns a
/// recoverable error — message-level faults are always absorbed into
/// degraded mode, whatever the schedule throws at the chain.
#[test]
fn recoverable_faults_never_surface_as_errors() {
    let cfg = ChaosConfig::all_kinds(3000 + seed_offset(), 0.45);
    let mut o = build(22, cfg);
    for _ in 0..30 {
        if let Err(e) = o.try_step() {
            panic!("recoverable-only schedule surfaced {e} (stage {})", e.stage());
        }
    }
    assert!(!o.fault_ledger().is_empty());
}

/// `OrchestratorError` helpers used by callers to route recovery: a
/// `ControlPlane` wrapper carries its source and classifies along both
/// axes; a `CircuitOpen` verdict is terminal on both.
#[test]
fn orchestrator_error_classification_is_consistent() {
    let cut = ChaosConfig::disabled().with_cut(LinkId::E2, 10);
    let mut o =
        build(23, cut).with_recovery(RecoveryPolicy::default().with_fallback(FallbackMode::Off));
    let err = loop {
        match o.try_step() {
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    match err {
        OrchestratorError::CircuitOpen { .. } => {
            assert!(!err.is_recoverable());
            assert!(!err.is_session_fatal());
            assert!(std::error::Error::source(&err).is_none(), "the verdict has no source");
        }
        ref other => panic!("fallback off must end in CircuitOpen, got {other}"),
    }
    // The wrapper variant keeps carrying its source and both axes.
    let wrapped = OrchestratorError::ControlPlane {
        stage: "near-RT poll (A1->E2)",
        source: edgebol_oran::OranError::ChannelClosed("chaos: E2 link cut"),
    };
    assert!(!wrapped.is_recoverable());
    assert!(wrapped.is_session_fatal());
    assert!(std::error::Error::source(&wrapped).is_some());
}
