//! A1-P policy documents (O-RAN.WG2.A1AP style).
//!
//! The wire format is JSON with an internal `"msg"` tag, e.g.
//! `{"msg":"PutPolicy","policy_id":"edgebol-0","policy_type":20008,
//! "policy":{"airtime":0.35,"max_mcs":17}}`. The codec is hand-rolled on
//! the workspace's one JSON module (`edgebol_trace::json`: its writers
//! encode, its [`parse`] decodes) so the guarantees the control loop
//! depends on are explicit:
//!
//! * [`A1Message::to_json`] is **panic-free** (it returns a `String` for
//!   every representable message; non-finite floats encode as `null`).
//! * `u64` fields (`t_ms`, `bs_power_mw`) round-trip **exactly** — they
//!   are parsed as integers, never through an `f64`.
//! * `f64` fields round-trip **bit-exactly**: encoding uses Rust's
//!   shortest-roundtrip `Display` and decoding uses the full-precision
//!   `str::parse::<f64>`.
//! * Malformed input surfaces as [`OranError::Codec`], never a panic.

use crate::OranError;
use edgebol_trace::json::{parse, push_escaped, push_f64};
use std::fmt::Write as _;

/// The policy type id this workspace registers for its radio policy
/// (policy types are operator-assigned integers in A1).
pub const A1_POLICY_TYPE_RADIO: u32 = 20_008;

/// Identifier of a deployed policy instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PolicyId(pub String);

/// The radio policy content EdgeBOL deploys through A1: the two §3
/// policies the vBS must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioPolicy {
    /// Policy 2 — uplink airtime fraction in (0, 1].
    pub airtime: f64,
    /// Policy 4 — maximum eligible MCS index (0..=28).
    pub max_mcs: u8,
}

/// Lifecycle status of a policy instance (A1 policy feedback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyStatus {
    /// Accepted and being enforced.
    Enforced,
    /// Rejected (malformed or unenforceable).
    Rejected,
    /// Deleted on request.
    Deleted,
}

impl PolicyStatus {
    fn as_str(&self) -> &'static str {
        match self {
            PolicyStatus::Enforced => "Enforced",
            PolicyStatus::Rejected => "Rejected",
            PolicyStatus::Deleted => "Deleted",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "Enforced" => Ok(PolicyStatus::Enforced),
            "Rejected" => Ok(PolicyStatus::Rejected),
            "Deleted" => Ok(PolicyStatus::Deleted),
            other => Err(format!("unknown policy status {other:?}")),
        }
    }
}

/// Messages of the A1 Policy Management Service (plus the KPI stream the
/// data-collector rApp consumes via the O1/data path, which we carry on
/// the same duplex for simplicity).
#[derive(Debug, Clone, PartialEq)]
pub enum A1Message {
    /// non-RT RIC → near-RT RIC: create/update a policy instance.
    PutPolicy { policy_id: PolicyId, policy_type: u32, policy: RadioPolicy },
    /// non-RT RIC → near-RT RIC: delete a policy instance.
    DeletePolicy { policy_id: PolicyId },
    /// near-RT RIC → non-RT RIC: policy feedback.
    Feedback { policy_id: PolicyId, status: PolicyStatus },
    /// near-RT RIC → non-RT RIC: forwarded vBS KPI sample (the paper's
    /// second xApp "manages data KPIs received from the base station …
    /// and forwards it to the learning agent").
    KpiSample {
        /// Millisecond timestamp within the experiment.
        t_ms: u64,
        /// BS power sample in milliwatts (integer to keep the wire format
        /// exact).
        bs_power_mw: u64,
    },
}

impl A1Message {
    /// Serializes to the JSON wire form. Never panics.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            A1Message::PutPolicy { policy_id, policy_type, policy } => {
                out.push_str("{\"msg\":\"PutPolicy\",\"policy_id\":");
                push_escaped(&mut out, &policy_id.0);
                // The write! sink is a String: infallible by construction.
                let _ = write!(out, ",\"policy_type\":{policy_type},\"policy\":{{\"airtime\":");
                push_f64(&mut out, policy.airtime);
                let _ = write!(out, ",\"max_mcs\":{}}}}}", policy.max_mcs);
            }
            A1Message::DeletePolicy { policy_id } => {
                out.push_str("{\"msg\":\"DeletePolicy\",\"policy_id\":");
                push_escaped(&mut out, &policy_id.0);
                out.push('}');
            }
            A1Message::Feedback { policy_id, status } => {
                out.push_str("{\"msg\":\"Feedback\",\"policy_id\":");
                push_escaped(&mut out, &policy_id.0);
                let _ = write!(out, ",\"status\":\"{}\"}}", status.as_str());
            }
            A1Message::KpiSample { t_ms, bs_power_mw } => {
                let _ = write!(
                    out,
                    "{{\"msg\":\"KpiSample\",\"t_ms\":{t_ms},\"bs_power_mw\":{bs_power_mw}}}"
                );
            }
        }
        out
    }

    /// Peeks the `"msg"` tag of an A1 wire frame without parsing the
    /// document. `None` when the payload is not UTF-8 or carries no
    /// recognizable tag. Used by the chaos layer to classify frames it is
    /// about to drop, delay or corrupt — cheap and non-consuming, unlike
    /// [`A1Message::from_json`].
    pub fn peek_kind(payload: &[u8]) -> Option<&'static str> {
        let text = std::str::from_utf8(payload).ok()?;
        for kind in ["PutPolicy", "DeletePolicy", "Feedback", "KpiSample"] {
            if text.contains(&format!("\"msg\":\"{kind}\"")) {
                return Some(kind);
            }
        }
        None
    }

    /// Parses from the JSON wire form.
    ///
    /// # Errors
    /// [`OranError::Codec`] on malformed JSON, an unknown `"msg"` tag, or
    /// missing/mistyped fields.
    pub fn from_json(s: &str) -> Result<Self, OranError> {
        Self::from_doc(s).map_err(OranError::Codec)
    }

    fn from_doc(s: &str) -> Result<Self, String> {
        let mut obj = parse(s)?.into_object("A1 message")?;
        let tag = obj.get_str("msg")?;
        match tag.as_str() {
            "PutPolicy" => {
                let mut policy = obj.get("policy")?.into_object("policy")?;
                Ok(A1Message::PutPolicy {
                    policy_id: PolicyId(obj.get_str("policy_id")?),
                    policy_type: obj
                        .get_u64("policy_type")?
                        .try_into()
                        .map_err(|_| "policy_type exceeds u32")?,
                    policy: RadioPolicy {
                        airtime: policy.get_f64("airtime")?,
                        max_mcs: policy
                            .get_u64("max_mcs")?
                            .try_into()
                            .map_err(|_| "max_mcs exceeds u8")?,
                    },
                })
            }
            "DeletePolicy" => {
                Ok(A1Message::DeletePolicy { policy_id: PolicyId(obj.get_str("policy_id")?) })
            }
            "Feedback" => Ok(A1Message::Feedback {
                policy_id: PolicyId(obj.get_str("policy_id")?),
                status: PolicyStatus::parse(&obj.get_str("status")?)?,
            }),
            "KpiSample" => Ok(A1Message::KpiSample {
                t_ms: obj.get_u64("t_ms")?,
                bs_power_mw: obj.get_u64("bs_power_mw")?,
            }),
            other => Err(format!("unknown A1 message tag {other:?}")),
        }
    }
}

impl RadioPolicy {
    /// Validates the ranges A1 policy-type schema would enforce.
    pub fn is_valid(&self) -> bool {
        self.airtime > 0.0 && self.airtime <= 1.0 && self.max_mcs <= 28
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_put_policy() {
        let m = A1Message::PutPolicy {
            policy_id: PolicyId("p-7".into()),
            policy_type: A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime: 0.35, max_mcs: 17 },
        };
        let j = m.to_json();
        assert!(j.contains("PutPolicy"), "{j}");
        assert_eq!(A1Message::from_json(&j).unwrap(), m);
    }

    #[test]
    fn every_variant_matches_its_golden_document() {
        let put = |id: &str, airtime: f64, max_mcs: u8| A1Message::PutPolicy {
            policy_id: PolicyId(id.into()),
            policy_type: A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime, max_mcs },
        };
        let id = || PolicyId("edgebol-0".into());
        let cases = [
            (
                put("edgebol-0", 0.35, 17),
                r#"{"msg":"PutPolicy","policy_id":"edgebol-0","policy_type":20008,"policy":{"airtime":0.35,"max_mcs":17}}"#,
            ),
            (
                put("n", f64::NAN, 1),
                r#"{"msg":"PutPolicy","policy_id":"n","policy_type":20008,"policy":{"airtime":null,"max_mcs":1}}"#,
            ),
            (
                A1Message::DeletePolicy { policy_id: id() },
                r#"{"msg":"DeletePolicy","policy_id":"edgebol-0"}"#,
            ),
            (
                A1Message::Feedback { policy_id: id(), status: PolicyStatus::Enforced },
                r#"{"msg":"Feedback","policy_id":"edgebol-0","status":"Enforced"}"#,
            ),
            (
                A1Message::KpiSample { t_ms: 40_000, bs_power_mw: 5_250 },
                r#"{"msg":"KpiSample","t_ms":40000,"bs_power_mw":5250}"#,
            ),
        ];
        for (msg, golden) in cases {
            assert_eq!(msg.to_json(), golden);
        }
    }

    #[test]
    fn json_roundtrip_all_variants() {
        let msgs = [
            A1Message::DeletePolicy { policy_id: PolicyId("a".into()) },
            A1Message::Feedback { policy_id: PolicyId("a".into()), status: PolicyStatus::Enforced },
            A1Message::KpiSample { t_ms: 123, bs_power_mw: 5_250 },
        ];
        for m in msgs {
            assert_eq!(A1Message::from_json(&m.to_json()).unwrap(), m);
        }
    }

    #[test]
    fn u64_fields_roundtrip_exactly_at_the_extremes() {
        // Values above 2^53 are where an f64-based number path loses
        // integers; the raw-text path must not.
        for v in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let m = A1Message::KpiSample { t_ms: v, bs_power_mw: v };
            assert_eq!(A1Message::from_json(&m.to_json()).unwrap(), m);
        }
    }

    #[test]
    fn f64_airtime_roundtrips_bit_exactly() {
        for &airtime in &[0.1, 1.0 / 3.0, 0.001, f64::MIN_POSITIVE, 0.9999999999999999] {
            let m = A1Message::PutPolicy {
                policy_id: PolicyId("x".into()),
                policy_type: A1_POLICY_TYPE_RADIO,
                policy: RadioPolicy { airtime, max_mcs: 1 },
            };
            match A1Message::from_json(&m.to_json()).unwrap() {
                A1Message::PutPolicy { policy, .. } => {
                    assert_eq!(policy.airtime.to_bits(), airtime.to_bits());
                }
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn policy_ids_with_escapes_roundtrip() {
        let id = PolicyId("we\"ird\\id\nwith\tcontrol\u{1}chars".into());
        let m = A1Message::DeletePolicy { policy_id: id };
        assert_eq!(A1Message::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "{\"msg\":\"NoSuch\"}",
            "not json",
            "",
            "{",
            "{\"msg\":\"KpiSample\",\"t_ms\":1}", // missing field
            "{\"msg\":\"KpiSample\",\"t_ms\":\"1\",\"bs_power_mw\":2}", // mistyped field
            "{\"msg\":\"KpiSample\",\"t_ms\":1.5,\"bs_power_mw\":2}", // non-integer u64
            "{\"msg\":\"KpiSample\",\"t_ms\":-1,\"bs_power_mw\":2}", // negative u64
            "{\"msg\":\"KpiSample\",\"t_ms\":1,\"bs_power_mw\":2} x", // trailing data
            "{\"msg\":\"Feedback\",\"policy_id\":\"a\",\"status\":\"Odd\"}",
        ] {
            let r = A1Message::from_json(bad);
            assert!(
                matches!(r, Err(OranError::Codec(_))),
                "{bad:?} must be a codec error, got {r:?}"
            );
        }
    }

    #[test]
    fn field_order_and_whitespace_are_flexible() {
        let j = " { \"bs_power_mw\" : 2 , \"msg\" : \"KpiSample\" , \"t_ms\" : 9 } ";
        assert_eq!(
            A1Message::from_json(j).unwrap(),
            A1Message::KpiSample { t_ms: 9, bs_power_mw: 2 }
        );
    }

    #[test]
    fn non_finite_airtime_encodes_without_panicking() {
        let m = A1Message::PutPolicy {
            policy_id: PolicyId("n".into()),
            policy_type: A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime: f64::NAN, max_mcs: 1 },
        };
        let j = m.to_json();
        assert!(j.contains("null"), "{j}");
        match A1Message::from_json(&j).unwrap() {
            A1Message::PutPolicy { policy, .. } => assert!(policy.airtime.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn policy_validation() {
        assert!(RadioPolicy { airtime: 0.5, max_mcs: 28 }.is_valid());
        assert!(!RadioPolicy { airtime: 0.0, max_mcs: 5 }.is_valid());
        assert!(!RadioPolicy { airtime: 1.2, max_mcs: 5 }.is_valid());
        assert!(!RadioPolicy { airtime: 0.5, max_mcs: 29 }.is_valid());
    }
}
