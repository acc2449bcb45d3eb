//! Reactor-transport acceptance suite (DESIGN.md §10).
//!
//! The invariants pinned here:
//!
//! * **Transport equivalence** — a fixed-seed fig09 episode over the
//!   reactor transport is f64-bit-identical to the same episode over the
//!   poll-driven in-process transport, both fault-free and under the
//!   acceptance chaos schedule (`cut=e2@40,heal=e2@25`) with recovery
//!   supervision active on both paths. The quiescence-driven `try_recv`
//!   of [`edgebol_oran::ReactorLink`] is what makes this possible: a
//!   turn-driven socket never *silently* delivers less than the
//!   in-process queue would.
//! * **Scale** — one reactor thread sustains well over 100 concurrent E2
//!   sessions through a [`edgebol_oran::RicServer`], subscribing,
//!   collecting KPI indications and fanning a policy out to every node,
//!   with the session gauge and traffic counters flowing through
//!   `edgebol-metrics` (periods/sec from exactly these series is
//!   recorded in EXPERIMENTS.md).
//! * **Backend independence** — the portable nonblocking-sweep backend
//!   carries the same framed traffic as the epoll backend; readiness is
//!   a latency hint, never a correctness input.
//!
//! `EDGEBOL_CHAOS_SEED` offsets the environment seeds, like the other
//! chaos suites, so the CI stress loop can sweep seeds.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_metrics::Registry;
use edgebol_oran::{
    ChaosConfig, E2Codec, E2Message, FramedTcp, KpiReport, Link, OpsServer, OpsState, RadioPolicy,
    Reactor, ReactorBackend, RicServer, TransportKind,
};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

/// Seed offset for the CI chaos-stress loop (defaults to 0).
fn seed_offset() -> u64 {
    std::env::var("EDGEBOL_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn build(env_seed: u64, chaos: ChaosConfig, transport: TransportKind) -> Orchestrator {
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let env = FlowTestbed::new(Calibration::fast(), Scenario::recovery_suite(), env_seed);
    let agent = EdgeBolAgent::quick_for_tests(&spec, env_seed);
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

/// Asserts two traces agree f64-bit-for-bit on every record.
fn assert_bit_identical(poll: &Trace, reactor: &Trace) {
    assert_eq!(poll.len(), reactor.len(), "period counts diverge");
    for (a, b) in poll.records.iter().zip(&reactor.records) {
        assert_eq!(a.t, b.t);
        assert_eq!(a.control.airtime.to_bits(), b.control.airtime.to_bits(), "t={}", a.t);
        assert_eq!(a.control.mcs_cap, b.control.mcs_cap, "t={}", a.t);
        assert_eq!(a.obs.bs_power_w.to_bits(), b.obs.bs_power_w.to_bits(), "t={}", a.t);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "t={}", a.t);
    }
    assert_eq!(poll, reactor, "full traces must match, not just the spot-checked fields");
}

#[test]
fn fig09_episode_is_bit_identical_across_transports() {
    let seed = 1 + seed_offset();
    let mut poll = build(seed, ChaosConfig::disabled(), TransportKind::Poll);
    let mut reactor = build(seed, ChaosConfig::disabled(), TransportKind::Reactor);
    assert_eq!(poll.transport(), TransportKind::Poll);
    assert_eq!(reactor.transport(), TransportKind::Reactor);

    let t_poll = poll.try_run(60).expect("fault-free poll run");
    let t_reactor = reactor.try_run(60).expect("fault-free reactor run");
    assert_bit_identical(&t_poll, &t_reactor);
}

#[test]
fn chaotic_healed_cut_is_bit_identical_across_transports() {
    // The acceptance schedule: cut E2 after 40 operations, heal 25
    // operations later. The chaos op-clock counts *above* the transport
    // and the reactor's quiescent delivery never reorders or drops
    // traffic, so the fault sequence — and with it the supervisor's
    // entire outage/resync trajectory — lands on the same operations.
    let seed = 2 + seed_offset();
    let chaos = ChaosConfig::from_spec("cut=e2@40,heal=e2@25").expect("valid spec");
    let mut poll = build(seed, chaos.clone(), TransportKind::Poll);
    let mut reactor = build(seed, chaos, TransportKind::Reactor);

    let t_poll = poll.try_run(80).expect("a healed cut must not abort the poll run");
    let t_reactor = reactor.try_run(80).expect("a healed cut must not abort the reactor run");
    assert_bit_identical(&t_poll, &t_reactor);

    // Recovery supervision was active — and identical — on both paths.
    assert!(poll.reconnects_ok() >= 1, "the cut must trigger a resync");
    assert_eq!(poll.reconnects_ok(), reactor.reconnects_ok());
    assert_eq!(poll.reconnects_failed(), reactor.reconnects_failed());
    assert_eq!(poll.local_autonomy_periods(), reactor.local_autonomy_periods());
    assert_eq!(poll.first_outage_period(), reactor.first_outage_period());
    assert_eq!(poll.session_epoch(), reactor.session_epoch());
}

#[test]
fn one_reactor_thread_sustains_a_hundred_e2_sessions() {
    use std::time::{Duration, Instant};

    // >100 concurrent sessions (the acceptance floor), each a real TCP
    // connection speaking framed E2 from its own blocking client thread;
    // the server side is one reactor driven by this thread only.
    const NODES: usize = 112;
    const KPIS_PER_NODE: usize = 3;

    let reg = Registry::new();
    let mut server = RicServer::bind("127.0.0.1:0", 1_000, reg.clone()).expect("bind");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..NODES)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut tcp = FramedTcp::connect(&addr).expect("connect");
                let mut buf = tcp.recv().expect("sub req");
                match E2Codec::decode(&mut buf).expect("decode sub") {
                    Some(E2Message::SubscriptionRequest { ran_function, .. }) => {
                        let resp = E2Message::SubscriptionResponse { ran_function };
                        tcp.send(&E2Codec::encode(&resp)).expect("sub resp");
                    }
                    other => panic!("node {i}: expected subscription, got {other:?}"),
                }
                for k in 0..KPIS_PER_NODE {
                    let kpi = E2Message::Indication(KpiReport {
                        t_ms: (i * KPIS_PER_NODE + k) as u64,
                        bs_power_mw: 5_000 + i as u64,
                        duty_milli: 500,
                        mean_mcs_centi: 2_000,
                    });
                    tcp.send(&E2Codec::encode(&kpi)).expect("kpi");
                }
                buf.extend_from_slice(&tcp.recv().expect("ctrl"));
                match E2Codec::decode(&mut buf).expect("decode ctrl") {
                    Some(E2Message::ControlRequest { .. }) => {
                        tcp.send(&E2Codec::encode(&E2Message::ControlAck)).expect("ack");
                    }
                    other => panic!("node {i}: expected control, got {other:?}"),
                }
            })
        })
        .collect();

    let started = Instant::now();
    let deadline = started + Duration::from_secs(60);
    let mut kpis = 0;
    while server.subscribed_count() < NODES || kpis < NODES * KPIS_PER_NODE {
        kpis += server.poll(1).kpis;
        assert!(
            Instant::now() < deadline,
            "stalled: {}/{NODES} subscribed, {kpis} kpis",
            server.subscribed_count()
        );
    }
    assert_eq!(server.session_count(), NODES, "every session concurrently live");
    // The gauge tracks the peak now, before the nodes hang up and get
    // reaped (which drives it back down — asserted after the join).
    assert_eq!(reg.snapshot().gauge("edgebol_oran_ricserver_sessions"), Some(NODES as f64));
    assert_eq!(
        server.broadcast_policy(RadioPolicy { airtime: 0.5, max_mcs: 20 }),
        NODES,
        "policy must fan out to every session"
    );
    let mut acks = 0;
    while acks < NODES {
        acks += server.poll(1).acks;
        assert!(Instant::now() < deadline, "acks stalled: {acks}/{NODES}");
    }
    for h in handles {
        h.join().expect("node thread");
    }

    // The whole episode flowed through the metrics layer; the smoke-bench
    // numbers in EXPERIMENTS.md are read off exactly these series.
    let elapsed = started.elapsed();
    let snap = reg.snapshot();
    let periods = snap.counter("edgebol_oran_ricserver_periods_total").expect("periods counter");
    assert_eq!(
        snap.counter("edgebol_oran_ricserver_kpi_total"),
        Some((NODES * KPIS_PER_NODE) as u64)
    );
    assert_eq!(snap.counter("edgebol_oran_ricserver_acks_total"), Some(NODES as u64));
    eprintln!(
        "reactor smoke: {NODES} sessions, {periods} server periods in {:.3}s ({:.0} periods/sec)",
        elapsed.as_secs_f64(),
        periods as f64 / elapsed.as_secs_f64().max(1e-9),
    );
}

/// One blocking HTTP GET: connect, request with `Connection: close`,
/// read to EOF. Returns (status code, body).
fn ops_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("ops connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let status = raw.split_whitespace().nth(1).expect("status").parse().expect("code");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn http_churn_recycles_slots_without_disturbing_live_e2_sessions() {
    use std::time::{Duration, Instant};

    // 100+ sequential operator connections (each a full
    // connect/request/close cycle) hammer the ops surface of a RicServer
    // whose reactor is simultaneously holding a live, subscribed E2
    // session. The slab must recycle the vacated HTTP slots through its
    // free list — not grow — and the E2 session must survive untouched.
    const CHURN: usize = 120;

    let reg = Registry::new();
    let mut server = RicServer::bind("127.0.0.1:0", 1_000, reg.clone()).expect("bind");
    let ops = server.serve_ops("127.0.0.1:0", OpsState::new(reg.clone())).expect("ops bind");
    let ops_addr = ops.local_addr().to_string();
    let e2_addr = server.local_addr().to_string();

    // The node subscribes, reports one KPI, then holds its connection
    // open until released — provably alive across the whole churn.
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let node = std::thread::spawn(move || {
        let mut tcp = FramedTcp::connect(&e2_addr).expect("connect");
        let mut buf = tcp.recv().expect("sub req");
        match E2Codec::decode(&mut buf).expect("decode sub") {
            Some(E2Message::SubscriptionRequest { ran_function, .. }) => {
                let resp = E2Message::SubscriptionResponse { ran_function };
                tcp.send(&E2Codec::encode(&resp)).expect("sub resp");
            }
            other => panic!("expected subscription, got {other:?}"),
        }
        let kpi = E2Message::Indication(KpiReport {
            t_ms: 1,
            bs_power_mw: 5_000,
            duty_milli: 500,
            mean_mcs_centi: 2_000,
        });
        tcp.send(&E2Codec::encode(&kpi)).expect("kpi");
        // The post-churn policy fan-out: answer it, then hold the
        // connection open until the main thread is done asserting.
        buf.extend_from_slice(&tcp.recv().expect("ctrl"));
        match E2Codec::decode(&mut buf).expect("decode ctrl") {
            Some(E2Message::ControlRequest { .. }) => {
                tcp.send(&E2Codec::encode(&E2Message::ControlAck)).expect("ack");
            }
            other => panic!("expected control, got {other:?}"),
        }
        release_rx.recv().expect("released");
    });

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut kpis = 0;
    while server.subscribed_count() < 1 || kpis < 1 {
        kpis += server.poll(1).kpis;
        assert!(Instant::now() < deadline, "E2 session never came up");
    }
    let baseline_conns = server.reactor().connections();
    let baseline_slots = server.reactor().slot_count();
    assert_eq!(baseline_conns, 1, "exactly the E2 session");

    let churner = std::thread::spawn(move || {
        for i in 0..CHURN {
            let (code, body) = ops_get(&ops_addr, "/healthz");
            assert_eq!(code, 200, "churn request {i}");
            assert!(body.starts_with("ok"), "churn request {i}: {body:?}");
        }
    });
    while !churner.is_finished() {
        server.poll(1);
        assert!(Instant::now() < deadline, "churn stalled");
    }
    churner.join().expect("churn thread");

    // Drain until the last HTTP connection is reaped, then the slab must
    // be back at its pre-churn shape: same live connections, and at most
    // two extra high-water slots (a fresh accept can land in the same
    // turn before the finished conversation's reap runs) despite 100+
    // registrations having cycled through.
    while server.reactor().connections() > baseline_conns {
        server.poll(1);
        assert!(Instant::now() < deadline, "hangup reaping stalled");
    }
    assert_eq!(server.reactor().connections(), baseline_conns);
    assert!(
        server.reactor().slot_count() <= baseline_slots + 2,
        "slab grew under churn: {} slots from a baseline of {baseline_slots}",
        server.reactor().slot_count()
    );

    // The session rode out the storm: still subscribed, still answering.
    assert_eq!(server.session_count(), 1);
    assert_eq!(server.broadcast_policy(RadioPolicy { airtime: 0.5, max_mcs: 20 }), 1);
    let mut acks = 0;
    while acks < 1 {
        acks += server.poll(1).acks;
        assert!(Instant::now() < deadline, "ack after churn stalled");
    }
    release_tx.send(()).expect("release");
    node.join().expect("node thread");

    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("edgebol_oran_reactor_http_requests_total"),
        Some(CHURN as u64),
        "every churn request was served by the reactor's HTTP path"
    );
    assert!(
        snap.counter("edgebol_oran_reactor_accepts_total").unwrap_or(0) >= (CHURN + 1) as u64,
        "accepts must cover the E2 node and every churn connection"
    );
}

#[test]
fn fixed_seed_episode_is_unperturbed_by_http_churn() {
    // The bench wiring: the figure episode runs over the reactor
    // transport while an in-process ops surface absorbs an operator's
    // connect/request/close storm. The episode's trace must stay
    // f64-bit-identical to a quiet-process run of the same seed.
    const CHURN: usize = 120;
    let seed = 5 + seed_offset();

    let mut quiet = build(seed, ChaosConfig::disabled(), TransportKind::Reactor);
    let t_quiet = quiet.try_run(40).expect("quiet run");

    let reg = Registry::new();
    let ops = OpsServer::spawn("127.0.0.1:0", OpsState::new(reg)).expect("ops server");
    let ops_addr = ops.local_addr().to_string();
    let churner = std::thread::spawn(move || {
        for i in 0..CHURN {
            let (code, _) = ops_get(&ops_addr, if i % 2 == 0 { "/healthz" } else { "/metrics" });
            assert_eq!(code, 200, "churn request {i}");
        }
    });
    let mut stormy = build(seed, ChaosConfig::disabled(), TransportKind::Reactor);
    let t_stormy = stormy.try_run(40).expect("run under churn");
    churner.join().expect("churn thread");

    assert_bit_identical(&t_quiet, &t_stormy);
}

#[test]
fn sweep_backend_carries_the_same_framed_traffic() {
    // The portable fallback backend, pinned explicitly (no env knob, so
    // this holds even when CI exports EDGEBOL_REACTOR_BACKEND=epoll):
    // frames cross a sweep-polled pair exactly as they do under epoll.
    let reactor = Reactor::with_backend(ReactorBackend::Sweep).expect("sweep reactor");
    assert_eq!(reactor.backend(), ReactorBackend::Sweep);
    let (a, b) = reactor.pair().expect("loopback pair");
    for round in 0u32..32 {
        let payload = round.to_be_bytes().repeat(97); // spans several reads
        a.send(payload.clone()).expect("send");
        let got = b.try_recv().expect("recv").expect("frame delivered");
        assert_eq!(&got[..], &payload[..], "round {round}");
    }
    drop(a);
    // Queued-then-closed drains cleanly: nothing was in flight, so the
    // very next receive reports the close.
    assert!(b.try_recv().is_err(), "dropped peer must surface as closed");
}
