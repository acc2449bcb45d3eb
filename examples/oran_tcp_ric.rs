//! Multi-node O-RAN control plane over real TCP sockets.
//!
//! ```text
//! cargo run --release --example oran_tcp_ric
//! EDGEBOL_NODES=128 EDGEBOL_ROUNDS=20 cargo run --release --example oran_tcp_ric
//! ```
//!
//! The Fig. 7 architecture at fleet scale: one [`RicServer`] — a single
//! reactor thread — terminates the E2 interface for `EDGEBOL_NODES`
//! O-eNB agents, each a blocking client thread speaking length-framed E2
//! over its own localhost socket. Every node completes the KPI
//! subscription handshake, then for `EDGEBOL_ROUNDS` rounds the server
//! broadcasts a radio policy to the whole fleet and collects one KPI
//! indication plus one control ack per node per round. Throughput is
//! read off the `edgebol-metrics` registry at the end (the numbers in
//! EXPERIMENTS.md §reactor come from exactly this binary).
//!
//! Knobs:
//!
//! * `EDGEBOL_NODES`  — fleet size (default 64).
//! * `EDGEBOL_ROUNDS` — policy/KPI rounds after the handshake (default 10).
//! * `EDGEBOL_REACTOR_BACKEND` — `epoll` (Linux default) or `sweep`.

use edgebol_metrics::Registry;
use edgebol_oran::{E2Codec, E2Message, FramedTcp, KpiReport, RadioPolicy, RicServer};
use std::thread;
use std::time::{Duration, Instant};

fn knob(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("{name} must be a positive integer: {v:?}")),
        Err(_) => default,
    }
}

/// One O-eNB agent: handshake, then per round send a KPI indication and
/// ack the broadcast policy. Runs on its own blocking thread.
fn cell_site(addr: String, node: usize, rounds: usize) {
    let mut tcp = FramedTcp::connect(&addr).expect("connect to RIC");
    let mut buf = Vec::new();
    let recv_msg = |tcp: &mut FramedTcp, buf: &mut Vec<u8>| -> E2Message {
        loop {
            if let Some(msg) = E2Codec::decode(buf).expect("decode") {
                return msg;
            }
            buf.extend_from_slice(&tcp.recv().expect("recv"));
        }
    };
    match recv_msg(&mut tcp, &mut buf) {
        E2Message::SubscriptionRequest { ran_function, .. } => {
            let resp = E2Message::SubscriptionResponse { ran_function };
            tcp.send(&E2Codec::encode(&resp)).expect("sub resp");
        }
        other => panic!("node {node}: expected subscription, got {other:?}"),
    }
    for round in 0..rounds {
        match recv_msg(&mut tcp, &mut buf) {
            E2Message::ControlRequest { .. } => {
                tcp.send(&E2Codec::encode(&E2Message::ControlAck)).expect("ack");
            }
            other => panic!("node {node}: expected control, got {other:?}"),
        }
        let kpi = E2Message::Indication(KpiReport {
            t_ms: (round * 1_000) as u64,
            bs_power_mw: 5_000 + node as u64,
            duty_milli: 450,
            mean_mcs_centi: 2_600,
        });
        tcp.send(&E2Codec::encode(&kpi)).expect("kpi");
    }
}

fn main() {
    let nodes = knob("EDGEBOL_NODES", 64);
    let rounds = knob("EDGEBOL_ROUNDS", 10);

    let reg = Registry::new();
    let mut server = RicServer::bind("127.0.0.1:0", 1_000, reg.clone()).expect("bind E2 endpoint");
    let addr = server.local_addr().to_string();
    println!(
        "E2-over-TCP listening on {addr} ({:?} backend): {nodes} nodes x {rounds} rounds",
        server.reactor().backend()
    );

    let handles: Vec<_> = (0..nodes)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || cell_site(addr, i, rounds))
        })
        .collect();

    let started = Instant::now();
    let deadline = started + Duration::from_secs(120);
    let overdue = || {
        assert!(Instant::now() < deadline, "fleet stalled — see session counters");
    };

    // Phase 1: the whole fleet connects and completes the KPI handshake.
    while server.subscribed_count() < nodes {
        server.poll(1);
        overdue();
    }
    let handshake = started.elapsed();
    println!(
        "[ric ] {} sessions subscribed on one reactor thread in {:.3}s",
        server.session_count(),
        handshake.as_secs_f64()
    );
    assert_eq!(server.session_count(), nodes, "every node holds a live session");

    // Phase 2: broadcast a policy per round, collect one KPI + one ack
    // per node per round.
    let policies =
        [RadioPolicy { airtime: 1.0, max_mcs: 28 }, RadioPolicy { airtime: 0.6, max_mcs: 22 }];
    let (mut kpis, mut acks) = (0usize, 0usize);
    for round in 0..rounds {
        let reached = server.broadcast_policy(policies[round % policies.len()]);
        assert_eq!(reached, nodes, "round {round}: policy must reach the whole fleet");
        let want = nodes * (round + 1);
        while kpis < want || acks < want {
            let r = server.poll(1);
            kpis += r.kpis;
            acks += r.acks;
            // A node hangs up right after its last ack, so closures are
            // legitimate in the final round (the drain contract delivered
            // its queued traffic first); before that they are a bug.
            if round + 1 < rounds {
                assert_eq!(r.closed, 0, "no session may die mid-run (round {round})");
            }
            overdue();
        }
    }
    let elapsed = started.elapsed();
    for h in handles {
        h.join().expect("cell-site thread");
    }

    // Throughput off the metrics registry — the single source the smoke
    // bench and EXPERIMENTS.md quote.
    let snap = reg.snapshot();
    let polls = snap.counter("edgebol_oran_ricserver_periods_total").unwrap_or(0);
    let kpi_total = snap.counter("edgebol_oran_ricserver_kpi_total").unwrap_or(0);
    let ack_total = snap.counter("edgebol_oran_ricserver_acks_total").unwrap_or(0);
    assert_eq!(kpi_total, (nodes * rounds) as u64);
    assert_eq!(ack_total, (nodes * rounds) as u64);
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "[ric ] {nodes} nodes x {rounds} rounds in {secs:.3}s: \
         {kpi_total} KPIs + {ack_total} acks over {polls} server polls"
    );
    println!(
        "[ric ] {:.0} node-periods/sec, {:.0} E2 frames/sec through one reactor thread",
        (nodes * rounds) as f64 / secs,
        // subscribe hs (2 per node) + per-round control/kpi/ack (3 each)
        (2 * nodes + 3 * nodes * rounds) as f64 / secs,
    );
}
