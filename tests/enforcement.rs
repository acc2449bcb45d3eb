//! Pins on what the orchestrator learns back from the E2 node: the
//! policies the node applied, and the one an outage runs under
//! (DESIGN.md §9).
//!
//! * **Golden digest** — a fixed-seed episode under drop/corrupt faults
//!   plus a healing E2 cut folds [`Orchestrator::save_state`] and
//!   [`Orchestrator::enforcement_log`] into one digest, on both
//!   transports. A change to how enforcement is recorded that moves one
//!   bit, reorders one log entry or restamps one period fails here. The
//!   learner's GP and the flow testbed call the platform's `exp`, `ln`
//!   and `cos`; the constant was recorded on x86-64 Linux with glibc
//!   2.36's libm, so a failure on another platform with this code
//!   unchanged points at libm rounding first.
//! * **Applied before the cut** — a cut that fires on the xApp's receive
//!   of the node's `ControlAck` lands after the node applied the period's
//!   policy: that period and the whole outage run under it, not under the
//!   previous period's policy.
//! * **Applied before the error** — a node poll that applies a held-back
//!   `ControlRequest` and then fails on the corrupt frame behind it still
//!   records that policy in that period; a second golden digest pins it.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, LaneConfig, LinkId, RadioPolicy, TransportKind};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};
use edgebol_trace::Journal;
use std::sync::Arc;

const TRANSPORTS: [TransportKind; 2] = [TransportKind::Poll, TransportKind::Reactor];

fn build(seed: u64, chaos: ChaosConfig, transport: TransportKind) -> Orchestrator {
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let env = FlowTestbed::new(Calibration::fast(), Scenario::chaos_suite(), seed);
    let agent = EdgeBolAgent::quick_for_tests(&spec, seed);
    Orchestrator::new_with_transport(
        Box::new(env),
        Box::new(agent),
        spec,
        chaos,
        Registry::disabled(),
        transport,
    )
    .expect("setup never fails pre-arm")
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn chaotic_healed_episode_state_and_enforcement_digest_is_pinned() {
    for transport in TRANSPORTS {
        let chaos = ChaosConfig::drop_corrupt(23, 0.05).with_cut(LinkId::E2, 60).with_heal(25);
        let mut o = build(17, chaos, transport);
        o.try_run(60).expect("recoverable faults and a healing cut never abort the run");
        assert!(o.reconnects_ok() >= 1, "{transport:?}: the cut must fire and heal");
        assert!(o.degraded_events() > 0, "{transport:?}: the lanes must inject");
        let mut h = Digest::new();
        let state = o.save_state();
        h.u64(state.len() as u64);
        for b in state {
            h.u64(u64::from(b));
        }
        let log = o.enforcement_log();
        h.u64(log.len() as u64);
        for (t, p) in log {
            h.u64(t as u64);
            h.u64(p.airtime.to_bits());
            h.u64(u64::from(p.max_mcs));
        }
        assert_eq!(
            h.0, 0x2E1D_DB17_9A37_0982,
            "{transport:?}: state and enforcement digest {:#018x}",
            h.0
        );
    }
}

#[test]
fn a_cut_on_the_ack_receive_runs_the_outage_under_the_policy_the_node_applied() {
    const K: usize = 8;
    let seed = 29;
    // A connected fault-free period makes six operations on the xApp's
    // E2 link: send the ControlRequest, an empty receive, receive the
    // ControlAck, an empty receive, receive the KPI indication, an empty
    // receive. So operation 6K + 2 is period K's ack receive, which comes
    // after the node applied period K's policy.
    let cut = ChaosConfig::disabled().with_cut(LinkId::E2, 6 * K as u64 + 2);
    for transport in TRANSPORTS {
        let reference =
            build(seed, ChaosConfig::disabled(), transport).try_run(K + 1).expect("fault-free run");
        let journal = Arc::new(Journal::with_capacity(1024));
        let mut o = build(seed, cut.clone(), transport).with_journal(journal.clone());
        let trace = o.try_run(K + 8).expect("sticky fallback never aborts the run");

        let lost = journal
            .snapshot()
            .into_iter()
            .find(|e| e.kind == "session_lost")
            .expect("the cut must end the session");
        assert_eq!(lost.period, Some(K as u64), "{transport:?}");
        assert!(
            lost.fields.iter().any(|(k, v)| *k == "stage" && v == "near-RT poll (ack->A1)"),
            "{transport:?}: the cut must land on the ack receive: {:?}",
            lost.fields
        );

        let want = reference.records[K].control;
        let applied = RadioPolicy { airtime: want.airtime, max_mcs: want.mcs_cap.index() as u8 };
        let before = reference.records[K - 1].control;
        assert_ne!(
            (before.airtime.to_bits(), before.mcs_cap),
            (want.airtime.to_bits(), want.mcs_cap),
            "period K must ask for a policy other than period K-1's, or this proves nothing"
        );
        assert_eq!(o.enforcement_log().last(), Some(&(K, applied)), "{transport:?}");
        assert_eq!(o.last_enforced(), Some(applied), "{transport:?}");
        assert_eq!(o.first_outage_period(), Some(K), "{transport:?}");
        assert_eq!(o.local_autonomy_periods(), 8, "{transport:?}");
        for r in &trace.records[K..] {
            assert_eq!(r.control.airtime.to_bits(), want.airtime.to_bits(), "t={}", r.t);
            assert_eq!(r.control.mcs_cap, want.mcs_cap, "t={}", r.t);
        }
    }
}

#[test]
fn a_policy_released_ahead_of_a_corrupt_frame_is_recorded_in_its_period() {
    // The xApp's E2 send lane holds some ControlRequests back for one
    // send and corrupts others, so a node poll can apply a held request
    // and then fail on the corrupt one behind it. The policy it applied
    // must be recorded in that period, before the poll's error counts.
    let lane = LaneConfig { delay: 0.25, corrupt: 0.25, delay_ops: 1, ..LaneConfig::off() };
    for transport in TRANSPORTS {
        let chaos = ChaosConfig { seed: 41, e2_tx: lane, ..ChaosConfig::disabled() };
        let mut o = build(31, chaos, transport);
        o.try_run(60).expect("delays and corruption are recoverable");
        assert!(
            o.degraded_by_stage().get("node poll (apply+ack)").copied().unwrap_or(0) > 0,
            "{transport:?}: some node polls must fail"
        );
        let mut h = Digest::new();
        for b in o.save_state() {
            h.u64(u64::from(b));
        }
        for (t, p) in o.enforcement_log() {
            h.u64(t as u64);
            h.u64(p.airtime.to_bits());
            h.u64(u64::from(p.max_mcs));
        }
        assert_eq!(
            h.0, 0x5D2C_77BF_FE1E_9AC2,
            "{transport:?}: state and enforcement digest {:#018x}",
            h.0
        );
    }
}
