//! Integration tests of the O-RAN control plane across crate boundaries:
//! A1 JSON and E2 binary frames over both the in-process and the TCP
//! transports, and their use by the orchestrator.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_oran::{
    duplex_pair, A1Message, E2Codec, E2Message, E2Node, FramedTcp, KpiReport, Link, NearRtRic,
    NonRtRic, PolicyStatus, RadioPolicy, RicEvent,
};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread;

#[test]
fn a1_json_interoperates_with_e2_binary_end_to_end() {
    // Full chain: policy in as JSON, control out as binary, ack back up.
    let (a1_up, a1_down) = duplex_pair();
    let (e2_up, e2_down) = duplex_pair();
    let applied = Arc::new(Mutex::new(Vec::new()));
    let sink = applied.clone();
    let mut node = E2Node::new(e2_down, Box::new(move |p| sink.lock().unwrap().push(p)));
    let mut nonrt = NonRtRic::new(a1_up);
    let mut nearrt = NearRtRic::new(a1_down, e2_up);

    for (airtime, mcs) in [(1.0, 28u8), (0.75, 20), (0.5, 12), (0.25, 4)] {
        nonrt.put_policy(RadioPolicy { airtime, max_mcs: mcs }).unwrap();
        nearrt.poll().unwrap();
        node.poll().unwrap();
        nearrt.poll().unwrap();
        let events = nonrt.poll().unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, RicEvent::PolicyFeedback { status: PolicyStatus::Enforced, .. })));
    }
    let applied = applied.lock().unwrap();
    assert_eq!(applied.len(), 4);
    assert_eq!(applied[2], RadioPolicy { airtime: 0.5, max_mcs: 12 });
}

#[test]
fn e2_frames_survive_arbitrary_tcp_fragmentation() {
    // Encode a burst of messages, ship them over TCP in one frame each,
    // decode at the far end from a rolling buffer.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let msgs: Vec<E2Message> = (0..50)
        .map(|i| {
            E2Message::Indication(KpiReport {
                t_ms: i,
                bs_power_mw: 4_000 + i,
                duty_milli: (i % 1000) as u16,
                mean_mcs_centi: (i % 2800) as u16,
            })
        })
        .collect();
    let expect = msgs.clone();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut t = FramedTcp::new(stream);
        let mut rx = Vec::new();
        let mut got = Vec::new();
        while got.len() < expect.len() {
            let frame = t.recv().unwrap();
            rx.extend_from_slice(&frame);
            while let Some(m) = E2Codec::decode(&mut rx).unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, expect);
    });
    let mut client = FramedTcp::connect(&addr.to_string()).unwrap();
    // Batch several E2 frames per TCP frame to force buffer-boundary
    // handling at the receiver.
    let mut batch = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        batch.extend(E2Codec::encode(m));
        if i % 7 == 6 {
            client.send(&batch).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        client.send(&batch).unwrap();
    }
    server.join().unwrap();
}

#[test]
fn a1_frames_cross_tcp_as_utf8_json() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut t = FramedTcp::new(stream);
        let frame = t.recv().unwrap();
        let msg = A1Message::from_json(std::str::from_utf8(&frame).unwrap()).unwrap();
        match msg {
            A1Message::PutPolicy { policy, .. } => {
                assert_eq!(policy.max_mcs, 17);
                // Reply with feedback.
                let fb = A1Message::Feedback {
                    policy_id: edgebol_oran::PolicyId("p".into()),
                    status: PolicyStatus::Enforced,
                };
                t.send(fb.to_json().as_bytes()).unwrap();
            }
            other => panic!("unexpected {other:?}"),
        }
    });
    let mut client = FramedTcp::connect(&addr.to_string()).unwrap();
    let put = A1Message::PutPolicy {
        policy_id: edgebol_oran::PolicyId("p".into()),
        policy_type: edgebol_oran::A1_POLICY_TYPE_RADIO,
        policy: RadioPolicy { airtime: 0.42, max_mcs: 17 },
    };
    client.send(put.to_json().as_bytes()).unwrap();
    let reply = client.recv().unwrap();
    let msg = A1Message::from_json(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(msg, A1Message::Feedback { status: PolicyStatus::Enforced, .. }));
    server.join().unwrap();
}

#[test]
fn orchestrator_policies_actually_transit_the_control_plane() {
    // Every control applied by the orchestrator must have passed the
    // A1 -> E2 chain: airtime is quantized to milli-units and the mcs cap
    // is byte-valued, both artifacts of the wire formats.
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 31);
    let agent = EdgeBolAgent::quick_for_tests(&spec, 31);
    let trace = Orchestrator::new(Box::new(env), Box::new(agent), spec)
        .expect("in-process setup")
        .try_run(15)
        .expect("in-process control plane");
    for r in &trace.records {
        let milli = r.control.airtime * 1000.0;
        assert!(
            (milli - milli.round()).abs() < 1e-9,
            "airtime {} did not pass E2 ControlRequest quantization",
            r.control.airtime
        );
        assert!(r.control.mcs_cap.index() <= 28);
    }
}

#[test]
fn corrupted_e2_stream_is_rejected_not_misparsed() {
    let (up, down) = duplex_pair();
    let mut node = E2Node::new(down, Box::new(|_| {}));
    // A frame with a valid length header but garbage tag.
    let mut buf = 3u32.to_be_bytes().to_vec();
    buf.extend_from_slice(&[0xFF, 0x01, 0x02]);
    up.send(buf).unwrap();
    assert!(node.poll().is_err(), "garbage must surface as a codec error");
}
