//! O-RAN control plane for EdgeBOL.
//!
//! The paper deploys EdgeBOL as an O-RAN application (Fig. 7): an **rApp**
//! in the non-RT RIC talks the **A1** Policy Management Service to an
//! **xApp** in the near-RT RIC, which enforces radio policies on the
//! O-eNB over **E2** and returns vBS KPIs (power samples) upstream. This
//! crate implements that control plane:
//!
//! * [`a1`] — A1-P policy documents. O-RAN specifies A1 policies as JSON
//!   against a policy-type schema (O-RAN.WG2.A1AP); the wire codec is
//!   hand-rolled on the workspace's one JSON module
//!   (`edgebol_trace::json`: `push_escaped`/`push_f64` encode, `parse`
//!   decodes) so encoding is panic-free, `u64` fields are exact and `f64`
//!   fields round-trip bit-exactly (shortest-roundtrip encode,
//!   full-precision parse).
//! * [`e2`] — an E2AP-style binary codec on plain `Vec<u8>` frames:
//!   tagged, length-delimited, big-endian frames carrying subscriptions,
//!   KPI indications and radio-control requests. Decoding is
//!   incremental: feed it a byte stream, get complete messages out.
//! * [`transport`] — the [`transport::Link`] seam every actor talks
//!   through (whole `Vec<u8>` messages, one implementation per
//!   transport), its in-process implementation backed by a std
//!   mutex-guarded queue (used by the orchestrator and the tests), and a
//!   blocking length-framed TCP peer (used by the tests and the
//!   networked example to drive the reactor from other threads) that
//!   follows the classic framing pattern of the Tokio tutorial.
//! * [`reactor`] — the fleet-scale transport: a zero-dependency
//!   non-blocking readiness loop (epoll on Linux, a nonblocking sweep
//!   elsewhere) multiplexing many framed-TCP sessions on one thread,
//!   surfaced through the same [`transport::Link`] seam so the chaos and
//!   recovery layers carry over unchanged.
//! * [`ric`] — the actors: [`ric::NonRtRic`] (policy service + data
//!   collector rApps), [`ric::NearRtRic`] (A1⇄E2 translation xApp) and
//!   [`ric::E2Node`] (the O-eNB's E2 agent: applies policies, hands
//!   them out through [`ric::E2Node::take_applied`] and emits KPI
//!   indications), plus [`ric::RicServer`] — the multi-node accept loop
//!   pairing one reactor with many E2 sessions.
//!
//! Everything is synchronous and poll-driven, hence deterministic and
//! testable; the networked example wraps the same actors in threads.

pub mod a1;
pub mod chaos;
pub mod e2;
pub mod ops;
pub mod reactor;
pub mod recovery;
pub mod ric;
pub mod transport;

pub use a1::{A1Message, PolicyId, PolicyStatus, RadioPolicy, A1_POLICY_TYPE_RADIO};
pub use chaos::{
    corrupt_payload, ChaosConfig, ChaosEndpoint, ChaosPlan, Direction, FaultKind, FaultLedger,
    FaultRecord, LaneConfig, LinkId, MsgClass,
};
pub use e2::{E2Codec, E2Message, KpiReport};
pub use ops::{HealthHandle, OpsServer, OpsState};
pub use reactor::{
    HttpHandler, HttpResponse, Reactor, ReactorBackend, ReactorLink, ReactorListener, Token,
};
pub use recovery::{CircuitState, FallbackMode, RecoveryAction, RecoveryPolicy, Supervisor};
pub use ric::{E2Node, NearRtRic, NonRtRic, RicEvent, RicServer};
pub use transport::{duplex_pair, AnyLink, Endpoint, FramedTcp, Link, TransportKind};

/// Errors of the O-RAN layer, split by protocol layer so callers can
/// route recovery: framing and codec errors mean a corrupt peer (drop
/// the message, keep the link), a closed channel means the link itself
/// is gone, and a handshake error means a protocol-state violation.
#[derive(Debug)]
pub enum OranError {
    /// Length-delimited framing violated: an oversized or impossible
    /// declared frame length, or a frame that can never complete.
    Framing(String),
    /// A complete frame failed to decode: unknown E2 tag, truncated
    /// payload, non-UTF-8 or malformed A1 JSON.
    Codec(String),
    /// The peer side of an in-process channel was dropped, or the socket
    /// closed; no further traffic is possible on this link.
    ChannelClosed(&'static str),
    /// A message arrived that the actor's protocol state does not allow
    /// (e.g. an A1 `PutPolicy` delivered to the non-RT RIC).
    Handshake(String),
    /// I/O error from the TCP transport.
    Io(std::io::Error),
}

impl std::fmt::Display for OranError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OranError::Framing(m) => write!(f, "framing error: {m}"),
            OranError::Codec(m) => write!(f, "codec error: {m}"),
            OranError::ChannelClosed(link) => write!(f, "channel closed: {link}"),
            OranError::Handshake(m) => write!(f, "handshake error: {m}"),
            OranError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for OranError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OranError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OranError {
    fn from(e: std::io::Error) -> Self {
        OranError::Io(e)
    }
}

impl OranError {
    /// Whether the link survives this error — `true` for a single corrupt
    /// or out-of-order message on a healthy link, `false` when the link
    /// itself is gone. The orchestrator's degraded mode keys off this:
    /// recoverable errors fall back to the last enforced policy / local
    /// power reading, unrecoverable ones surface to the caller.
    ///
    /// The match is deliberately exhaustive (no wildcard arm): adding an
    /// `OranError` variant without deciding its recovery class must fail
    /// to compile, and `tests::is_recoverable_classifies_every_variant`
    /// pins one assertion per variant.
    pub fn is_recoverable(&self) -> bool {
        match self {
            OranError::Framing(_) => true,
            OranError::Codec(_) => true,
            OranError::Handshake(_) => true,
            OranError::ChannelClosed(_) => false,
            OranError::Io(_) => false,
        }
    }

    /// Whether this error ends the current *session* — the established
    /// link + protocol state — as opposed to damaging one message on a
    /// healthy link.
    ///
    /// This is a different axis than [`OranError::is_recoverable`]:
    /// a `ChannelClosed` is unrecoverable *within* a session (no further
    /// traffic crosses the dead link), yet it is exactly what the
    /// reconnect supervisor ([`recovery::Supervisor`]) retries — it tears
    /// the session down, re-establishes the link and resyncs protocol
    /// state. Message-level damage (`Framing`/`Codec`/`Handshake`) never
    /// requires a new session; degraded mode absorbs it in place.
    ///
    /// The match is deliberately exhaustive (no wildcard arm), like
    /// [`OranError::is_recoverable`], and
    /// `tests::is_session_fatal_classifies_every_variant` pins one
    /// assertion per variant.
    pub fn is_session_fatal(&self) -> bool {
        match self {
            OranError::Framing(_) => false,
            OranError::Codec(_) => false,
            OranError::Handshake(_) => false,
            OranError::ChannelClosed(_) => true,
            OranError::Io(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::OranError;

    /// One assertion per variant: classifying a new variant is forced by
    /// the exhaustive match in `is_recoverable`; getting the class right
    /// is pinned here.
    #[test]
    fn is_recoverable_classifies_every_variant() {
        // Message-level damage on a healthy link: recoverable.
        assert!(OranError::Framing("oversized frame".into()).is_recoverable());
        assert!(OranError::Codec("unknown tag".into()).is_recoverable());
        assert!(OranError::Handshake("unexpected message".into()).is_recoverable());
        // The link itself is gone: unrecoverable.
        assert!(!OranError::ChannelClosed("peer endpoint dropped").is_recoverable());
        assert!(!OranError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe"))
            .is_recoverable());
    }

    /// One assertion per variant, mirroring
    /// `is_recoverable_classifies_every_variant` on the session axis:
    /// message damage keeps the session, link/transport loss ends it.
    #[test]
    fn is_session_fatal_classifies_every_variant() {
        // Message-level damage: the session survives.
        assert!(!OranError::Framing("oversized frame".into()).is_session_fatal());
        assert!(!OranError::Codec("unknown tag".into()).is_session_fatal());
        assert!(!OranError::Handshake("unexpected message".into()).is_session_fatal());
        // Link/transport loss: the session is over — but the supervisor
        // may establish a new one (see `recovery::Supervisor`).
        assert!(OranError::ChannelClosed("peer endpoint dropped").is_session_fatal());
        assert!(OranError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe"))
            .is_session_fatal());
    }

    #[test]
    fn session_fatal_is_the_exact_complement_of_recoverable() {
        let all = [
            OranError::Framing(String::new()),
            OranError::Codec(String::new()),
            OranError::Handshake(String::new()),
            OranError::ChannelClosed("x"),
            OranError::Io(std::io::Error::other("io")),
        ];
        for e in &all {
            // On today's taxonomy the two axes coincide extensionally.
            // The distinction is in what callers do with an error (give
            // up within the session vs hand it to the supervisor), so
            // both names are kept and both matches stay exhaustive.
            assert_ne!(e.is_session_fatal(), e.is_recoverable(), "{e}");
        }
    }
}
