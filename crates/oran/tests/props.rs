//! Property-based tests of the O-RAN wire formats.

use edgebol_oran::{A1Message, E2Codec, E2Message, KpiReport, PolicyId, PolicyStatus, RadioPolicy};
use proptest::prelude::*;

fn arb_e2() -> impl Strategy<Value = E2Message> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(f, p)| E2Message::SubscriptionRequest {
            ran_function: f,
            report_period_ms: p,
        }),
        any::<u16>().prop_map(|f| E2Message::SubscriptionResponse { ran_function: f }),
        (any::<u64>(), any::<u64>(), any::<u16>(), any::<u16>()).prop_map(|(t, p, d, m)| {
            E2Message::Indication(KpiReport {
                t_ms: t,
                bs_power_mw: p,
                duty_milli: d,
                mean_mcs_centi: m,
            })
        }),
        (any::<u16>(), any::<u8>())
            .prop_map(|(a, m)| E2Message::ControlRequest { airtime_milli: a, max_mcs: m }),
        Just(E2Message::ControlAck),
    ]
}

proptest! {
    /// Every E2 message round-trips through the codec and leaves no
    /// residue.
    #[test]
    fn e2_roundtrip(msg in arb_e2()) {
        let mut buf = E2Codec::encode(&msg);
        let got = E2Codec::decode(&mut buf).unwrap().unwrap();
        prop_assert_eq!(got, msg);
        prop_assert!(buf.is_empty());
    }

    /// Concatenated frames decode in order regardless of count.
    #[test]
    fn e2_stream_of_frames(msgs in proptest::collection::vec(arb_e2(), 1..20)) {
        let mut buf = Vec::new();
        for m in &msgs {
            buf.extend(E2Codec::encode(m));
        }
        let mut got = Vec::new();
        while let Some(m) = E2Codec::decode(&mut buf).unwrap() {
            got.push(m);
        }
        prop_assert_eq!(got, msgs);
    }

    /// The incremental decoder never yields a message from a truncated
    /// prefix of a valid frame, and never errors on it either.
    #[test]
    fn e2_prefix_safety(msg in arb_e2(), cut_frac in 0.0f64..1.0) {
        let full = E2Codec::encode(&msg);
        let cut = ((full.len() as f64 * cut_frac) as usize).min(full.len() - 1);
        let mut partial = full[..cut].to_vec();
        let r = E2Codec::decode(&mut partial).unwrap();
        prop_assert!(r.is_none(), "decoded from a truncated frame");
    }

    /// Garbage after a valid length header errors rather than misparses.
    #[test]
    fn e2_rejects_unknown_tags(tag in 6u8..=255, body in proptest::collection::vec(any::<u8>(), 0..8)) {
        let mut buf = (1 + body.len() as u32).to_be_bytes().to_vec();
        buf.push(tag);
        buf.extend_from_slice(&body);
        prop_assert!(E2Codec::decode(&mut buf).is_err());
    }

    /// A1 messages survive the JSON round-trip, including odd policy ids.
    #[test]
    fn a1_roundtrip(
        id in "[a-zA-Z0-9_.:-]{1,32}",
        airtime in 0.001f64..=1.0,
        mcs in 0u8..=28,
        t_ms in any::<u64>(),
        mw in any::<u64>(),
    ) {
        let msgs = vec![
            A1Message::PutPolicy {
                policy_id: PolicyId(id.clone()),
                policy_type: edgebol_oran::A1_POLICY_TYPE_RADIO,
                policy: RadioPolicy { airtime, max_mcs: mcs },
            },
            A1Message::DeletePolicy { policy_id: PolicyId(id.clone()) },
            A1Message::Feedback {
                policy_id: PolicyId(id),
                status: PolicyStatus::Enforced,
            },
            A1Message::KpiSample { t_ms, bs_power_mw: mw },
        ];
        for m in msgs {
            let j = m.to_json();
            prop_assert_eq!(A1Message::from_json(&j).unwrap(), m);
        }
    }

    /// Policy validation accepts exactly the schema range.
    #[test]
    fn policy_validation_range(airtime in -1.0f64..2.0, mcs in 0u8..=60) {
        let p = RadioPolicy { airtime, max_mcs: mcs };
        let valid = airtime > 0.0 && airtime <= 1.0 && mcs <= 28;
        prop_assert_eq!(p.is_valid(), valid);
    }
}
