//! E2AP-style binary codec: tagged, length-delimited frames.
//!
//! E2 carries the near-RT RIC ⇄ O-eNB traffic: subscriptions, KPI
//! indications and control requests. Real E2AP is ASN.1; we keep the
//! protocol shape (message classes, RAN-function ids, subscription →
//! indication flow) over a compact hand-rolled big-endian encoding on
//! plain byte vectors, with incremental length-delimited framing — the
//! canonical pattern for stream transports.
//!
//! Frame layout: `u32 big-endian payload length | u8 tag | payload`.

use crate::OranError;

/// RAN function id for the KPI-monitoring service model.
pub const RAN_FUNC_KPI: u16 = 2;

/// A vBS KPI sample carried in an E2 indication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KpiReport {
    /// Milliseconds since experiment start.
    pub t_ms: u64,
    /// BS (BBU) power in milliwatts.
    pub bs_power_mw: u64,
    /// Realized slice duty cycle in 1/1000 units.
    pub duty_milli: u16,
    /// Mean MCS in use, times 100.
    pub mean_mcs_centi: u16,
}

/// E2 messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum E2Message {
    /// RIC → node: subscribe to periodic KPI indications.
    SubscriptionRequest { ran_function: u16, report_period_ms: u32 },
    /// Node → RIC: subscription accepted.
    SubscriptionResponse { ran_function: u16 },
    /// Node → RIC: periodic KPI indication.
    Indication(KpiReport),
    /// RIC → node: enforce radio policies (airtime in 1/1000, MCS cap).
    ControlRequest { airtime_milli: u16, max_mcs: u8 },
    /// Node → RIC: control acknowledged.
    ControlAck,
}

/// Message tags on the wire (crate-visible so the chaos layer can
/// classify frames it is about to fault without consuming them).
pub(crate) mod tag {
    pub const SUB_REQ: u8 = 1;
    pub const SUB_RESP: u8 = 2;
    pub const INDICATION: u8 = 3;
    pub const CONTROL_REQ: u8 = 4;
    pub const CONTROL_ACK: u8 = 5;
}

/// Big-endian field reader over one complete frame body.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    /// Checks that `n` more bytes remain, so the reads after it cannot
    /// run off the body.
    fn need(&self, n: usize) -> Result<(), OranError> {
        if self.0.len() < n {
            Err(OranError::Codec(format!("truncated body: need {n}, have {}", self.0.len())))
        } else {
            Ok(())
        }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_first_chunk::<N>().expect("length checked by need");
        self.0 = rest;
        *head
    }

    fn u8(&mut self) -> u8 {
        u8::from_be_bytes(self.take())
    }

    fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take())
    }

    fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }

    fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take())
    }
}

/// Stateless encoder/decoder with incremental framing.
#[derive(Debug, Default, Clone)]
pub struct E2Codec;

impl E2Codec {
    /// Encodes one message as a complete frame.
    pub fn encode(msg: &E2Message) -> Vec<u8> {
        // Length placeholder, patched once the body is known.
        let mut out = vec![0; 4];
        match msg {
            E2Message::SubscriptionRequest { ran_function, report_period_ms } => {
                out.push(tag::SUB_REQ);
                out.extend_from_slice(&ran_function.to_be_bytes());
                out.extend_from_slice(&report_period_ms.to_be_bytes());
            }
            E2Message::SubscriptionResponse { ran_function } => {
                out.push(tag::SUB_RESP);
                out.extend_from_slice(&ran_function.to_be_bytes());
            }
            E2Message::Indication(k) => {
                out.push(tag::INDICATION);
                out.extend_from_slice(&k.t_ms.to_be_bytes());
                out.extend_from_slice(&k.bs_power_mw.to_be_bytes());
                out.extend_from_slice(&k.duty_milli.to_be_bytes());
                out.extend_from_slice(&k.mean_mcs_centi.to_be_bytes());
            }
            E2Message::ControlRequest { airtime_milli, max_mcs } => {
                out.push(tag::CONTROL_REQ);
                out.extend_from_slice(&airtime_milli.to_be_bytes());
                out.push(*max_mcs);
            }
            E2Message::ControlAck => out.push(tag::CONTROL_ACK),
        }
        let body_len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&body_len.to_be_bytes());
        out
    }

    /// Peeks the message tag of a standalone frame (as produced by
    /// [`E2Codec::encode`]) without consuming it. `None` when the buffer
    /// is too short to carry a tag. Used by the chaos layer to classify
    /// frames it is about to drop, delay or corrupt.
    pub fn peek_tag(frame: &[u8]) -> Option<u8> {
        frame.get(4).copied()
    }

    /// Attempts to decode one complete frame from the front of `src`.
    ///
    /// Returns `Ok(None)` when more bytes are needed (the incremental
    /// contract: partial frames stay buffered). A complete frame is
    /// consumed whether or not it decodes, so the stream resyncs on the
    /// next one.
    ///
    /// # Errors
    /// [`OranError::Framing`] when the declared length exceeds
    /// [`crate::transport::MAX_FRAME_LEN`] (such a frame could never
    /// complete — no real E2 message comes close); [`OranError::Codec`]
    /// on unknown tags or truncated payloads whose declared length is
    /// complete (a corrupt peer).
    pub fn decode(src: &mut Vec<u8>) -> Result<Option<E2Message>, OranError> {
        let Some(&head) = src.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(head) as usize;
        if len > crate::transport::MAX_FRAME_LEN {
            return Err(OranError::Framing(format!(
                "declared E2 frame length {len} exceeds the {}-byte cap",
                crate::transport::MAX_FRAME_LEN
            )));
        }
        let Some(body) = src.get(4..4 + len) else {
            return Ok(None);
        };
        let msg = Self::parse(Fields(body));
        src.drain(..4 + len);
        msg.map(Some)
    }

    fn parse(mut body: Fields<'_>) -> Result<E2Message, OranError> {
        body.need(1)?;
        let msg = match body.u8() {
            tag::SUB_REQ => {
                body.need(6)?;
                E2Message::SubscriptionRequest {
                    ran_function: body.u16(),
                    report_period_ms: body.u32(),
                }
            }
            tag::SUB_RESP => {
                body.need(2)?;
                E2Message::SubscriptionResponse { ran_function: body.u16() }
            }
            tag::INDICATION => {
                body.need(20)?;
                E2Message::Indication(KpiReport {
                    t_ms: body.u64(),
                    bs_power_mw: body.u64(),
                    duty_milli: body.u16(),
                    mean_mcs_centi: body.u16(),
                })
            }
            tag::CONTROL_REQ => {
                body.need(3)?;
                E2Message::ControlRequest { airtime_milli: body.u16(), max_mcs: body.u8() }
            }
            tag::CONTROL_ACK => E2Message::ControlAck,
            other => return Err(OranError::Codec(format!("unknown tag {other}"))),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<E2Message> {
        vec![
            E2Message::SubscriptionRequest { ran_function: RAN_FUNC_KPI, report_period_ms: 1000 },
            E2Message::SubscriptionResponse { ran_function: RAN_FUNC_KPI },
            E2Message::Indication(KpiReport {
                t_ms: 123_456,
                bs_power_mw: 5_250,
                duty_milli: 350,
                mean_mcs_centi: 2_150,
            }),
            E2Message::ControlRequest { airtime_milli: 500, max_mcs: 17 },
            E2Message::ControlAck,
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for m in all_messages() {
            let mut buf = E2Codec::encode(&m);
            let got = E2Codec::decode(&mut buf).unwrap().unwrap();
            assert_eq!(got, m);
            assert!(buf.is_empty(), "no residue after full decode");
        }
    }

    /// Pins the wire layout itself: a change that encode and decode made
    /// together would still roundtrip, but not match these frames.
    #[test]
    fn every_variant_matches_its_golden_frame() {
        let golden: [&[u8]; 5] = [
            &[0, 0, 0, 7, 0x01, 0, 2, 0, 0, 0x03, 0xe8],
            &[0, 0, 0, 3, 0x02, 0, 2],
            &[
                0, 0, 0, 0x15, 0x03, 0, 0, 0, 0, 0, 0x01, 0xe2, 0x40, 0, 0, 0, 0, 0, 0, 0x14, 0x82,
                0x01, 0x5e, 0x08, 0x66,
            ],
            &[0, 0, 0, 4, 0x04, 0x01, 0xf4, 0x11],
            &[0, 0, 0, 1, 0x05],
        ];
        for (m, want) in all_messages().iter().zip(golden) {
            assert_eq!(&E2Codec::encode(m)[..], want, "{m:?}");
            let mut buf = want.to_vec();
            assert_eq!(E2Codec::decode(&mut buf).unwrap().as_ref(), Some(m));
            assert!(buf.is_empty(), "{m:?} left residue");
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let mut buf = Vec::new();
        for m in all_messages() {
            buf.extend(E2Codec::encode(&m));
        }
        let mut out = Vec::new();
        while let Some(m) = E2Codec::decode(&mut buf).unwrap() {
            out.push(m);
        }
        assert_eq!(out, all_messages());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let full = E2Codec::encode(&E2Message::ControlAck);
        // Feed byte by byte; only the last byte yields the message.
        let mut buf = Vec::new();
        for (i, b) in full.iter().enumerate() {
            buf.push(*b);
            let r = E2Codec::decode(&mut buf).unwrap();
            if i + 1 < full.len() {
                assert!(r.is_none(), "premature decode at byte {i}");
            } else {
                assert_eq!(r, Some(E2Message::ControlAck));
            }
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut buf = vec![0, 0, 0, 1, 0xFF];
        assert!(
            matches!(E2Codec::decode(&mut buf), Err(OranError::Codec(m)) if m == "unknown tag 255")
        );
        assert!(buf.is_empty(), "the bad frame is consumed");
    }

    #[test]
    fn truncated_body_is_an_error() {
        // Declared length 2 but an indication needs 21 bytes of body.
        let mut buf = vec![0, 0, 0, 2, super::tag::INDICATION, 0];
        assert!(matches!(
            E2Codec::decode(&mut buf),
            Err(OranError::Codec(m)) if m == "truncated body: need 20, have 1"
        ));
    }

    #[test]
    fn oversized_declared_length_is_a_framing_error() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.push(super::tag::SUB_REQ);
        assert!(matches!(E2Codec::decode(&mut buf), Err(OranError::Framing(_))));
    }

    #[test]
    fn decoder_resyncs_after_complete_frames() {
        // A good frame followed by a partial one: first decode succeeds,
        // second waits.
        let mut buf = E2Codec::encode(&E2Message::ControlAck);
        // The declared length of an incomplete next frame.
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.push(super::tag::SUB_REQ);
        assert_eq!(E2Codec::decode(&mut buf).unwrap(), Some(E2Message::ControlAck));
        assert_eq!(E2Codec::decode(&mut buf).unwrap(), None);
    }
}
