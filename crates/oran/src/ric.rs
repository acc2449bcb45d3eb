//! The RIC actors of Fig. 7: non-RT RIC (rApps), near-RT RIC (xApps) and
//! the O-eNB's E2 agent.
//!
//! All actors are synchronous and poll-driven: each `poll()` drains the
//! actor's inbound endpoints, reacts, and pushes outbound messages. The
//! orchestrator (in `edgebol-core`) polls the chain once per decision; the
//! networked example wraps the same actors in threads over TCP.

use crate::a1::{A1Message, PolicyId, PolicyStatus, RadioPolicy};
use crate::e2::{E2Codec, E2Message, KpiReport, RAN_FUNC_KPI};
use crate::reactor::{Reactor, ReactorLink, ReactorListener};
use crate::transport::{Endpoint, Link};
use crate::OranError;
use edgebol_metrics::{Counter, Gauge, Registry};
use std::collections::HashMap;

/// Events the non-RT RIC surfaces to the learning agent.
#[derive(Debug, Clone, PartialEq)]
pub enum RicEvent {
    /// Policy feedback arrived.
    PolicyFeedback { policy_id: PolicyId, status: PolicyStatus },
    /// A vBS KPI sample arrived via the data-collector rApp.
    Kpi { t_ms: u64, bs_power_w: f64 },
}

/// The non-RT RIC hosting EdgeBOL's two rApps: the policy service and the
/// data collector.
///
/// Generic over the [`Link`] carrying A1 so a fault-injecting
/// [`crate::chaos::ChaosEndpoint`] can stand in for the plain
/// [`Endpoint`] (the default).
#[derive(Debug)]
pub struct NonRtRic<L: Link = Endpoint> {
    a1: L,
    next_policy_seq: u64,
    /// Deployed policies awaiting feedback.
    pending: HashMap<PolicyId, RadioPolicy>,
    /// Policies confirmed enforced.
    enforced: HashMap<PolicyId, RadioPolicy>,
}

impl<L: Link> NonRtRic<L> {
    /// Creates the RIC over its A1 endpoint toward the near-RT RIC.
    pub fn new(a1: L) -> Self {
        NonRtRic { a1, next_policy_seq: 0, pending: HashMap::new(), enforced: HashMap::new() }
    }

    /// Deploys a radio policy; returns its instance id.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the A1 link is down.
    pub fn put_policy(&mut self, policy: RadioPolicy) -> Result<PolicyId, OranError> {
        let id = PolicyId(format!("edgebol-{}", self.next_policy_seq));
        self.next_policy_seq += 1;
        let msg = A1Message::PutPolicy {
            policy_id: id.clone(),
            policy_type: crate::a1::A1_POLICY_TYPE_RADIO,
            policy,
        };
        self.a1.send(msg.to_json().into_bytes())?;
        self.pending.insert(id.clone(), policy);
        Ok(id)
    }

    /// Number of policies confirmed enforced so far.
    pub fn enforced_count(&self) -> usize {
        self.enforced.len()
    }

    /// Resync step after a session loss: drains and discards stale A1
    /// frames from the dead session and forgets deployed-but-unconfirmed
    /// policies (the supervisor re-pushes the last acknowledged policy
    /// under a fresh id). Returns the number of frames discarded.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the A1 link is still down and
    /// nothing was pending — the resync attempt fails and the supervisor
    /// backs off.
    pub fn reset_session(&mut self) -> Result<usize, OranError> {
        let discarded = self.a1.drain()?.len();
        self.pending.clear();
        Ok(discarded)
    }

    /// Drains A1 feedback and KPI samples.
    ///
    /// # Errors
    /// Propagates transport and JSON errors (a malformed peer).
    pub fn poll(&mut self) -> Result<Vec<RicEvent>, OranError> {
        let mut events = Vec::new();
        while let Some(raw) = self.a1.try_recv()? {
            let text = std::str::from_utf8(&raw)
                .map_err(|e| OranError::Codec(format!("non-UTF8 A1 frame: {e}")))?;
            match A1Message::from_json(text)? {
                A1Message::Feedback { policy_id, status } => {
                    if status == PolicyStatus::Enforced {
                        if let Some(p) = self.pending.remove(&policy_id) {
                            self.enforced.insert(policy_id.clone(), p);
                        }
                    } else {
                        self.pending.remove(&policy_id);
                    }
                    events.push(RicEvent::PolicyFeedback { policy_id, status });
                }
                A1Message::KpiSample { t_ms, bs_power_mw } => {
                    events.push(RicEvent::Kpi { t_ms, bs_power_w: bs_power_mw as f64 / 1000.0 });
                }
                other => {
                    return Err(OranError::Handshake(format!(
                        "unexpected A1 message at non-RT RIC: {other:?}"
                    )))
                }
            }
        }
        Ok(events)
    }
}

/// The near-RT RIC: terminates A1 from above and E2 toward the O-eNB.
///
/// Generic over both [`Link`]s; the chaos harness wraps exactly these two
/// endpoints, which covers all four fault lanes (every control-plane
/// message transits the near-RT RIC).
#[derive(Debug)]
pub struct NearRtRic<A: Link = Endpoint, E: Link = Endpoint> {
    a1: A,
    e2: E,
    e2_rx_buf: Vec<u8>,
    /// Policy awaiting a `ControlAck` from the node.
    awaiting_ack: Option<PolicyId>,
}

impl<A: Link, E: Link> NearRtRic<A, E> {
    /// Creates the xApp pair over its two endpoints.
    pub fn new(a1: A, e2: E) -> Self {
        NearRtRic { a1, e2, e2_rx_buf: Vec::new(), awaiting_ack: None }
    }

    /// Subscribes to the node's KPI stream (done once at start-up).
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the E2 link is down.
    pub fn subscribe_kpis(&mut self, period_ms: u32) -> Result<(), OranError> {
        let msg = E2Message::SubscriptionRequest {
            ran_function: RAN_FUNC_KPI,
            report_period_ms: period_ms,
        };
        self.e2.send(E2Codec::encode(&msg))
    }

    /// Resync step after a session loss: drains and discards stale
    /// frames on both links, clears the partial E2 reassembly buffer and
    /// forgets the in-flight ack (the dead session's `ControlAck` must
    /// not confirm a policy pushed under the new epoch). Returns the
    /// number of frames discarded.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when a link is still down and had
    /// nothing pending — the resync attempt fails and the supervisor
    /// backs off.
    pub fn reset_session(&mut self) -> Result<usize, OranError> {
        let discarded = self.a1.drain()?.len() + self.e2.drain()?.len();
        self.e2_rx_buf.clear();
        self.awaiting_ack = None;
        Ok(discarded)
    }

    /// Outage keepalive: one receive attempt per link, discarding
    /// whatever surfaces (anything arriving mid-outage belongs to the
    /// dead session). Errors are swallowed — a cut link is exactly the
    /// expected case. Returns the number of frames discarded.
    ///
    /// The orchestrator calls this once per local-autonomy period so the
    /// links' operation clocks keep ticking during an outage: a healing
    /// window expressed in operations (`heal=e2@M`) elapses even though
    /// no control-plane round trips run.
    pub fn probe_links(&mut self) -> usize {
        let mut discarded = 0;
        if let Ok(Some(_)) = self.a1.try_recv() {
            discarded += 1;
        }
        if let Ok(Some(_)) = self.e2.try_recv() {
            discarded += 1;
        }
        discarded
    }

    /// One poll round: translate inbound A1 policies to E2 control, and
    /// inbound E2 indications to A1 KPI samples / feedback.
    ///
    /// # Errors
    /// Propagates transport/codec/JSON failures.
    pub fn poll(&mut self) -> Result<(), OranError> {
        // A1 (from non-RT RIC) -> E2 control.
        while let Some(raw) = self.a1.try_recv()? {
            let text = std::str::from_utf8(&raw)
                .map_err(|e| OranError::Codec(format!("non-UTF8 A1 frame: {e}")))?;
            match A1Message::from_json(text)? {
                A1Message::PutPolicy { policy_id, policy, .. } => {
                    if !policy.is_valid() {
                        let fb = A1Message::Feedback { policy_id, status: PolicyStatus::Rejected };
                        self.a1.send(fb.to_json().into_bytes())?;
                        continue;
                    }
                    let ctrl = E2Message::ControlRequest {
                        airtime_milli: (policy.airtime * 1000.0).round() as u16,
                        max_mcs: policy.max_mcs,
                    };
                    self.e2.send(E2Codec::encode(&ctrl))?;
                    self.awaiting_ack = Some(policy_id);
                }
                A1Message::DeletePolicy { policy_id } => {
                    let fb = A1Message::Feedback { policy_id, status: PolicyStatus::Deleted };
                    self.a1.send(fb.to_json().into_bytes())?;
                }
                other => {
                    return Err(OranError::Handshake(format!(
                        "unexpected A1 message at near-RT RIC: {other:?}"
                    )))
                }
            }
        }
        // E2 (from node) -> A1 upstream.
        while let Some(raw) = self.e2.try_recv()? {
            self.e2_rx_buf.extend_from_slice(&raw);
        }
        while let Some(msg) = E2Codec::decode(&mut self.e2_rx_buf)? {
            match msg {
                E2Message::ControlAck => {
                    if let Some(policy_id) = self.awaiting_ack.take() {
                        let fb = A1Message::Feedback { policy_id, status: PolicyStatus::Enforced };
                        self.a1.send(fb.to_json().into_bytes())?;
                    }
                }
                E2Message::Indication(k) => {
                    let up = A1Message::KpiSample { t_ms: k.t_ms, bs_power_mw: k.bs_power_mw };
                    self.a1.send(up.to_json().into_bytes())?;
                }
                E2Message::SubscriptionResponse { .. } => {}
                other => {
                    return Err(OranError::Handshake(format!(
                        "unexpected E2 message at near-RT RIC: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// The O-eNB's E2 agent: applies control requests through a hook into the
/// MAC (in this workspace, the testbed's scheduler) and emits KPI
/// indications when asked.
pub struct E2Node<L: Link = Endpoint> {
    e2: L,
    rx_buf: Vec<u8>,
    /// Applied radio policy hook.
    apply: Box<dyn FnMut(RadioPolicy) + Send>,
    /// Whether a KPI subscription is active.
    subscribed: bool,
}

impl<L: Link> std::fmt::Debug for E2Node<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("E2Node").field("subscribed", &self.subscribed).finish()
    }
}

impl<L: Link> E2Node<L> {
    /// Creates the agent with a policy-application hook.
    pub fn new(e2: L, apply: Box<dyn FnMut(RadioPolicy) + Send>) -> Self {
        E2Node { e2, rx_buf: Vec::new(), apply, subscribed: false }
    }

    /// Whether a KPI subscription is active.
    pub fn is_subscribed(&self) -> bool {
        self.subscribed
    }

    /// Resync step after a session loss: drains and discards stale E2
    /// frames, clears the partial reassembly buffer and drops the KPI
    /// subscription (a stale `ControlRequest` from the dead session must
    /// not be applied; the near-RT RIC re-subscribes under the new
    /// epoch). Returns the number of frames discarded.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the E2 link is still down and
    /// nothing was pending — the resync attempt fails and the supervisor
    /// backs off.
    pub fn reset_session(&mut self) -> Result<usize, OranError> {
        let discarded = self.e2.drain()?.len();
        self.rx_buf.clear();
        self.subscribed = false;
        Ok(discarded)
    }

    /// Drains inbound E2 traffic, applying control requests.
    ///
    /// # Errors
    /// Propagates transport/codec failures.
    pub fn poll(&mut self) -> Result<(), OranError> {
        while let Some(raw) = self.e2.try_recv()? {
            self.rx_buf.extend_from_slice(&raw);
        }
        while let Some(msg) = E2Codec::decode(&mut self.rx_buf)? {
            match msg {
                E2Message::SubscriptionRequest { ran_function, .. } => {
                    self.subscribed = true;
                    let resp = E2Message::SubscriptionResponse { ran_function };
                    self.e2.send(E2Codec::encode(&resp))?;
                }
                E2Message::ControlRequest { airtime_milli, max_mcs } => {
                    (self.apply)(RadioPolicy { airtime: airtime_milli as f64 / 1000.0, max_mcs });
                    self.e2.send(E2Codec::encode(&E2Message::ControlAck))?;
                }
                other => {
                    return Err(OranError::Handshake(format!(
                        "unexpected E2 message at node: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Emits one KPI indication (called by the vBS once per report period
    /// when subscribed).
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the E2 link is down.
    pub fn indicate(&mut self, kpi: KpiReport) -> Result<(), OranError> {
        if !self.subscribed {
            return Ok(()); // No subscriber; the sample is dropped.
        }
        self.e2.send(E2Codec::encode(&E2Message::Indication(kpi)))
    }
}

/// One E2 session the [`RicServer`] supervises: the reactor-managed link
/// plus its protocol state (mirror of what [`NearRtRic`] tracks for its
/// single node, kept per-session here).
#[derive(Debug)]
struct E2Session {
    id: u64,
    link: ReactorLink,
    rx_buf: Vec<u8>,
    subscribed: bool,
}

/// Aggregate outcome of one [`RicServer::poll`] round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RicServerRound {
    /// Connections accepted (and immediately subscribed) this round.
    pub accepted: usize,
    /// KPI indications decoded across all sessions this round.
    pub kpis: usize,
    /// Control acks decoded across all sessions this round.
    pub acks: usize,
    /// Sessions that died this round (peer hangup or fatal error).
    pub closed: usize,
}

/// The multi-node near-RT RIC front end: one [`Reactor`] thread
/// multiplexing every E2 session instead of one blocking pair per node.
///
/// E2 nodes connect to the bound address; each accepted session is
/// KPI-subscribed on arrival, and [`RicServer::poll`] drives one reactor
/// turn then drains every session's frames — decoding indications and
/// acks, reaping dead sessions. Policies fan out with
/// [`RicServer::broadcast_policy`]. All counters flow through
/// [`edgebol_metrics`]; the 64-node CI smoke test and the N-node example
/// read periods/sec off exactly these series.
#[derive(Debug)]
pub struct RicServer {
    reactor: Reactor,
    listener: ReactorListener,
    sessions: Vec<E2Session>,
    next_session_id: u64,
    kpi_period_ms: u32,
    m_periods: Counter,
    m_kpis: Counter,
    m_acks: Counter,
    m_closed: Counter,
    g_sessions: Gauge,
}

impl RicServer {
    /// Binds the E2 accept socket on `addr` (use port 0 to let the OS
    /// pick) over a dedicated reactor; `kpi_period_ms` is the report
    /// period each new session is subscribed with.
    ///
    /// # Errors
    /// [`OranError::Io`] when binding or reactor setup fails.
    pub fn bind(addr: &str, kpi_period_ms: u32, metrics: Registry) -> Result<Self, OranError> {
        let reactor = Reactor::new(metrics.clone())?;
        let listener = reactor.bind(addr)?;
        metrics.describe("edgebol_oran_ricserver_periods_total", "RicServer poll calls");
        metrics.describe("edgebol_oran_ricserver_kpi_total", "KPI reports received from E2 nodes");
        metrics.describe("edgebol_oran_ricserver_acks_total", "Control acknowledgements received");
        metrics.describe(
            "edgebol_oran_ricserver_sessions_closed_total",
            "E2 sessions reaped on hangup",
        );
        metrics.describe("edgebol_oran_ricserver_sessions", "E2 sessions currently subscribed");
        Ok(RicServer {
            reactor,
            listener,
            sessions: Vec::new(),
            next_session_id: 0,
            kpi_period_ms,
            m_periods: metrics.counter("edgebol_oran_ricserver_periods_total"),
            m_kpis: metrics.counter("edgebol_oran_ricserver_kpi_total"),
            m_acks: metrics.counter("edgebol_oran_ricserver_acks_total"),
            m_closed: metrics.counter("edgebol_oran_ricserver_sessions_closed_total"),
            g_sessions: metrics.gauge("edgebol_oran_ricserver_sessions"),
        })
    }

    /// The bound accept address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr()
    }

    /// Live E2 sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The reactor multiplexing this server's sessions (shared handle —
    /// e.g. to co-register client-side links in single-process tests).
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Hosts the HTTP ops surface on this server's reactor: the same
    /// thread that multiplexes every E2 session also answers operator
    /// `GET /metrics`, `/healthz`, `/vars` and `/trace` — no extra
    /// thread, no extra event loop. Keep the returned listener alive for
    /// as long as the endpoint should accept connections; requests are
    /// serviced inside [`RicServer::poll`]'s reactor turn.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn serve_ops(
        &self,
        addr: &str,
        state: crate::ops::OpsState,
    ) -> std::io::Result<ReactorListener> {
        crate::ops::serve_on(&self.reactor, addr, state)
    }

    /// One server round: drive a reactor turn (flush + readiness +
    /// reads), claim newly accepted sessions and subscribe them to KPIs,
    /// then drain and decode every session's inbound frames. An
    /// undecodable frame is dropped and its session kept; sessions whose
    /// link died or whose stream lost its framing are reaped (their queued
    /// traffic was drained first — the [`Link::drain`] contract). Never
    /// blocks longer than `timeout_ms` in the readiness wait.
    pub fn poll(&mut self, timeout_ms: u32) -> RicServerRound {
        self.m_periods.inc();
        self.reactor.turn(timeout_ms);
        let mut round = RicServerRound::default();
        while let Some(link) = self.listener.accept() {
            let sub = E2Message::SubscriptionRequest {
                ran_function: RAN_FUNC_KPI,
                report_period_ms: self.kpi_period_ms,
            };
            if link.send(E2Codec::encode(&sub)).is_ok() {
                let id = self.next_session_id;
                self.next_session_id += 1;
                self.sessions.push(E2Session { id, link, rx_buf: Vec::new(), subscribed: false });
                round.accepted += 1;
            }
        }
        let mut dead = Vec::new();
        for s in &mut self.sessions {
            let mut session_dead = false;
            loop {
                match s.link.try_recv() {
                    Ok(Some(raw)) => s.rx_buf.extend_from_slice(&raw),
                    Ok(None) => break,
                    Err(_) => {
                        session_dead = true;
                        break;
                    }
                }
            }
            loop {
                match E2Codec::decode(&mut s.rx_buf) {
                    Ok(Some(E2Message::SubscriptionResponse { .. })) => s.subscribed = true,
                    Ok(Some(E2Message::Indication(_))) => round.kpis += 1,
                    Ok(Some(E2Message::ControlAck)) => round.acks += 1,
                    // Messages only a RIC sends (requests) arriving here
                    // mean a confused peer: drop the frame, keep the
                    // session — message damage is not session-fatal.
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // `decode` consumed the undecodable frame, so the
                    // stream resyncs on the next one. A framing error (an
                    // over-cap declared length) is left unconsumed: fatal.
                    Err(OranError::Codec(_)) => {}
                    Err(_) => {
                        session_dead = true;
                        break;
                    }
                }
            }
            if session_dead {
                dead.push(s.id);
            }
        }
        round.closed = dead.len();
        self.sessions.retain(|s| !dead.contains(&s.id));
        self.m_kpis.add(round.kpis as u64);
        self.m_acks.add(round.acks as u64);
        self.m_closed.add(round.closed as u64);
        self.g_sessions.set(self.sessions.len() as f64);
        round
    }

    /// Fans one radio policy out to every live session as an E2
    /// `ControlRequest`. Returns how many sessions it reached; sessions
    /// whose send fails are left for the next [`RicServer::poll`] to
    /// reap (their inbound side will report the close).
    pub fn broadcast_policy(&mut self, policy: RadioPolicy) -> usize {
        let ctrl = E2Message::ControlRequest {
            airtime_milli: (policy.airtime * 1000.0).round() as u16,
            max_mcs: policy.max_mcs,
        };
        let frame = E2Codec::encode(&ctrl);
        self.sessions.iter().filter(|s| s.link.send(frame.clone()).is_ok()).count()
    }

    /// Sessions that completed the KPI subscription handshake.
    pub fn subscribed_count(&self) -> usize {
        self.sessions.iter().filter(|s| s.subscribed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_pair;
    use std::sync::{Arc, Mutex};

    /// Builds the full chain: NonRtRic =A1= NearRtRic =E2= E2Node.
    fn chain() -> (NonRtRic, NearRtRic, E2Node, Arc<Mutex<Vec<RadioPolicy>>>) {
        let (a1_up, a1_down) = duplex_pair();
        let (e2_up, e2_down) = duplex_pair();
        let applied = Arc::new(Mutex::new(Vec::new()));
        let applied2 = applied.clone();
        let node = E2Node::new(e2_down, Box::new(move |p| applied2.lock().unwrap().push(p)));
        (NonRtRic::new(a1_up), NearRtRic::new(a1_down, e2_up), node, applied)
    }

    #[test]
    fn policy_flows_a1_to_e2_to_mac() {
        let (mut nonrt, mut nearrt, mut node, applied) = chain();
        let p = RadioPolicy { airtime: 0.35, max_mcs: 17 };
        let id = nonrt.put_policy(p).unwrap();
        nearrt.poll().unwrap(); // A1 -> E2
        node.poll().unwrap(); // E2 -> apply + ack
        nearrt.poll().unwrap(); // ack -> A1 feedback
        let events = nonrt.poll().unwrap();
        assert_eq!(applied.lock().unwrap().as_slice(), &[p]);
        assert_eq!(
            events,
            vec![RicEvent::PolicyFeedback { policy_id: id, status: PolicyStatus::Enforced }]
        );
        assert_eq!(nonrt.enforced_count(), 1);
    }

    #[test]
    fn invalid_policy_is_rejected_without_reaching_the_node() {
        let (mut nonrt, mut nearrt, mut node, applied) = chain();
        let bad = RadioPolicy { airtime: 1.5, max_mcs: 99 };
        let id = nonrt.put_policy(bad).unwrap();
        nearrt.poll().unwrap();
        node.poll().unwrap();
        nearrt.poll().unwrap();
        let events = nonrt.poll().unwrap();
        assert!(applied.lock().unwrap().is_empty());
        assert_eq!(
            events,
            vec![RicEvent::PolicyFeedback { policy_id: id, status: PolicyStatus::Rejected }]
        );
        assert_eq!(nonrt.enforced_count(), 0);
    }

    #[test]
    fn kpi_indications_reach_the_learning_agent() {
        let (mut nonrt, mut nearrt, mut node, _) = chain();
        nearrt.subscribe_kpis(1000).unwrap();
        node.poll().unwrap(); // subscription handled
        assert!(node.is_subscribed());
        node.indicate(KpiReport {
            t_ms: 42,
            bs_power_mw: 5_500,
            duty_milli: 200,
            mean_mcs_centi: 2_800,
        })
        .unwrap();
        nearrt.poll().unwrap();
        let events = nonrt.poll().unwrap();
        assert_eq!(events, vec![RicEvent::Kpi { t_ms: 42, bs_power_w: 5.5 }]);
    }

    #[test]
    fn unsubscribed_indications_are_dropped() {
        let (mut nonrt, mut nearrt, mut node, _) = chain();
        node.indicate(KpiReport { t_ms: 1, bs_power_mw: 1, duty_milli: 0, mean_mcs_centi: 0 })
            .unwrap();
        nearrt.poll().unwrap();
        assert!(nonrt.poll().unwrap().is_empty());
    }

    #[test]
    fn delete_policy_round_trip() {
        let (mut nonrt, mut nearrt, _node, _) = chain();
        // Deploy then delete; the near-RT RIC acknowledges deletion.
        let p = RadioPolicy { airtime: 0.5, max_mcs: 10 };
        let id = nonrt.put_policy(p).unwrap();
        let msg = A1Message::DeletePolicy { policy_id: id.clone() };
        nonrt.a1.send(msg.to_json().into_bytes()).unwrap();
        nearrt.poll().unwrap();
        // Two A1 messages pending at non-RT: none for the put (no ack yet,
        // node never polled) and one Deleted feedback.
        let events = nonrt.poll().unwrap();
        assert!(events.iter().any(|e| *e
            == RicEvent::PolicyFeedback { policy_id: id.clone(), status: PolicyStatus::Deleted }));
    }

    #[test]
    fn reset_session_discards_stale_state_across_the_chain() {
        let (mut nonrt, mut nearrt, mut node, applied) = chain();
        nearrt.subscribe_kpis(1000).unwrap();
        node.poll().unwrap();
        assert!(node.is_subscribed());
        // Deploy a policy and stop mid-flight: the ControlRequest is
        // queued toward the node when the session dies.
        nonrt.put_policy(RadioPolicy { airtime: 0.4, max_mcs: 9 }).unwrap();
        nearrt.poll().unwrap();
        assert_eq!(node.reset_session().unwrap(), 1, "stale ControlRequest discarded");
        assert!(!node.is_subscribed(), "subscription does not survive the session");
        assert_eq!(nearrt.reset_session().unwrap(), 0);
        assert_eq!(nonrt.reset_session().unwrap(), 0);
        // The discarded request is never applied, even after new polls.
        node.poll().unwrap();
        assert!(applied.lock().unwrap().is_empty());
        // The chain re-handshakes cleanly under the new session.
        nearrt.subscribe_kpis(1000).unwrap();
        node.poll().unwrap();
        assert!(node.is_subscribed());
    }

    #[test]
    fn probe_links_discards_and_survives_dead_links() {
        let (mut nonrt, mut nearrt, mut node, _) = chain();
        nearrt.subscribe_kpis(1000).unwrap();
        node.poll().unwrap();
        node.indicate(KpiReport { t_ms: 9, bs_power_mw: 10, duty_milli: 0, mean_mcs_centi: 0 })
            .unwrap();
        // Two E2 frames are queued (SubscriptionResponse, Indication):
        // each probe discards at most one per link.
        assert_eq!(nearrt.probe_links(), 1);
        assert!(nonrt.poll().unwrap().is_empty());
        // Dead peers: probing must not error; queued traffic still
        // surfaces (and is discarded), then the dead links yield nothing.
        drop(nonrt);
        drop(node);
        assert_eq!(nearrt.probe_links(), 1);
        assert_eq!(nearrt.probe_links(), 0);
    }

    #[test]
    fn sequential_policies_get_distinct_ids() {
        let (mut nonrt, _nearrt, _node, _) = chain();
        let a = nonrt.put_policy(RadioPolicy { airtime: 0.1, max_mcs: 1 }).unwrap();
        let b = nonrt.put_policy(RadioPolicy { airtime: 0.2, max_mcs: 2 }).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn ric_server_multiplexes_many_nodes_on_one_thread() {
        use crate::transport::FramedTcp;
        use std::time::{Duration, Instant};

        const NODES: usize = 8;
        let reg = Registry::new();
        let mut server = RicServer::bind("127.0.0.1:0", 1_000, reg.clone()).expect("bind");
        let addr = server.local_addr().to_string();

        // Each "node" is a blocking client thread speaking framed E2:
        // answer the subscription, emit one KPI, ack one control request.
        let handles: Vec<_> = (0..NODES)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut tcp = FramedTcp::connect(&addr).expect("connect");
                    let mut buf = tcp.recv().expect("sub req");
                    match E2Codec::decode(&mut buf).expect("decode") {
                        Some(E2Message::SubscriptionRequest { ran_function, .. }) => {
                            let resp = E2Message::SubscriptionResponse { ran_function };
                            tcp.send(&E2Codec::encode(&resp)).expect("sub resp");
                        }
                        other => panic!("node {i}: expected subscription, got {other:?}"),
                    }
                    let kpi = E2Message::Indication(KpiReport {
                        t_ms: i as u64,
                        bs_power_mw: 5_000 + i as u64,
                        duty_milli: 500,
                        mean_mcs_centi: 2_000,
                    });
                    tcp.send(&E2Codec::encode(&kpi)).expect("kpi");
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

        // One thread (this one) drives every session through the server.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut kpis = 0;
        while server.subscribed_count() < NODES || kpis < NODES {
            let round = server.poll(1);
            kpis += round.kpis;
            assert!(Instant::now() < deadline, "handshake stalled: {kpis} kpis");
        }
        assert_eq!(server.session_count(), NODES);
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
        // Metrics flowed through the shared registry.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("edgebol_oran_ricserver_kpi_total"), Some(NODES as u64));
        assert_eq!(snap.counter("edgebol_oran_ricserver_acks_total"), Some(NODES as u64));
        assert!(snap.counter("edgebol_oran_ricserver_periods_total").unwrap_or(0) > 0);
    }

    #[test]
    fn ric_server_keeps_a_session_through_one_undecodable_frame() {
        use crate::transport::FramedTcp;
        use std::time::{Duration, Instant};

        let mut server = RicServer::bind("127.0.0.1:0", 1_000, Registry::disabled()).expect("bind");
        let addr = server.local_addr().to_string();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let node = std::thread::spawn(move || {
            let mut tcp = FramedTcp::connect(&addr).expect("connect");
            let mut buf = tcp.recv().expect("sub req");
            match E2Codec::decode(&mut buf).expect("decode") {
                Some(E2Message::SubscriptionRequest { ran_function, .. }) => {
                    let resp = E2Message::SubscriptionResponse { ran_function };
                    tcp.send(&E2Codec::encode(&resp)).expect("sub resp");
                }
                other => panic!("expected subscription, got {other:?}"),
            }
            // A complete one-byte E2 frame whose tag no message uses.
            tcp.send(&[0, 0, 0, 1, 0xff]).expect("bad frame");
            let kpi = E2Message::Indication(KpiReport {
                t_ms: 1,
                bs_power_mw: 5_000,
                duty_milli: 0,
                mean_mcs_centi: 0,
            });
            tcp.send(&E2Codec::encode(&kpi)).expect("kpi");
            release_rx.recv().ok();
        });

        let deadline = Instant::now() + Duration::from_secs(2);
        let (mut kpis, mut closed) = (0, 0);
        while kpis < 1 && Instant::now() < deadline {
            let round = server.poll(1);
            kpis += round.kpis;
            closed += round.closed;
        }
        assert_eq!((kpis, closed, server.session_count()), (1, 0, 1));
        release_tx.send(()).ok();
        node.join().expect("node thread");
    }

    /// Minimal blocking HTTP client for the ops tests: one GET, read to
    /// EOF (`Connection: close`), return (status, body).
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
    fn ric_server_hosts_ops_surface_on_the_same_reactor() {
        use crate::ops::OpsState;
        use crate::transport::FramedTcp;
        use std::time::{Duration, Instant};

        let reg = Registry::new();
        let mut server = RicServer::bind("127.0.0.1:0", 1_000, reg.clone()).expect("bind");
        let ops = server.serve_ops("127.0.0.1:0", OpsState::new(reg.clone())).expect("ops bind");
        let ops_addr = ops.local_addr().to_string();
        let e2_addr = server.local_addr().to_string();

        // One E2 node and one operator, both served by the same poll
        // loop on this thread — no thread is spawned server-side. The
        // node holds its connection open until released so the session
        // is provably alive while the HTTP traffic flows.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let node = std::thread::spawn(move || {
            let mut tcp = FramedTcp::connect(&e2_addr).expect("connect");
            let mut buf = tcp.recv().expect("sub req");
            match E2Codec::decode(&mut buf).expect("decode") {
                Some(E2Message::SubscriptionRequest { ran_function, .. }) => {
                    let resp = E2Message::SubscriptionResponse { ran_function };
                    tcp.send(&E2Codec::encode(&resp)).expect("sub resp");
                }
                other => panic!("expected subscription, got {other:?}"),
            }
            let kpi = E2Message::Indication(KpiReport {
                t_ms: 1,
                bs_power_mw: 5_000,
                duty_milli: 0,
                mean_mcs_centi: 0,
            });
            tcp.send(&E2Codec::encode(&kpi)).expect("kpi");
            release_rx.recv().ok();
        });
        let operator = std::thread::spawn(move || {
            let (code, metrics) = ops_get(&ops_addr, "/metrics");
            let (hcode, health) = ops_get(&ops_addr, "/healthz");
            (code, metrics, hcode, health)
        });

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut kpis = 0;
        while !(operator.is_finished() && kpis >= 1) {
            kpis += server.poll(1).kpis;
            assert!(Instant::now() < deadline, "stalled: kpis={kpis}");
        }
        assert_eq!(server.session_count(), 1, "the E2 session outlives the HTTP churn");
        release_tx.send(()).ok();
        node.join().expect("node thread");
        let (code, metrics, hcode, health) = operator.join().expect("operator thread");
        assert_eq!(code, 200);
        assert!(metrics.contains("edgebol_oran_ricserver_periods_total"), "{metrics}");
        assert_eq!(hcode, 200);
        assert!(health.contains("circuit=connected"), "{health}");
    }
}
