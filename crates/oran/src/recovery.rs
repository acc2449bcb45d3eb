//! Reconnect supervision for the O-RAN control plane.
//!
//! The chaos layer (and any real deployment) can kill a control-plane
//! link mid-experiment. Before this module, a dead link was the end of
//! the run: every [`crate::OranError::ChannelClosed`] propagated as a fatal
//! `OrchestratorError`. The [`Supervisor`] turns a session loss into a
//! survivable episode instead:
//!
//! * **Deterministic backoff** — retry timing is expressed in the
//!   orchestrator's *period clock* (virtual time), never wall-clock
//!   sleeps, so a replay of the same seed reproduces the same reconnect
//!   schedule bit-exactly. Attempt `k` waits `min(base · 2^k, cap)`
//!   periods.
//! * **Bounded retries + circuit breaker** — after
//!   [`RecoveryPolicy::max_retries`] failed resyncs the circuit latches
//!   [`CircuitState::Open`]: with [`FallbackMode::Sticky`] the caller
//!   keeps running in local-autonomy mode and the supervisor issues
//!   periodic half-open probes; with [`FallbackMode::Off`] the caller is
//!   told to give up with a typed error.
//! * **Session epochs** — each successful resync bumps
//!   [`Supervisor::epoch`]; in-flight frames from a dead session are
//!   drained and discarded by the resync protocol, and the epoch lets
//!   callers (and tests) attribute state to a session.
//! * **KPI watchdog** — [`Supervisor::note_kpi_silent`] counts
//!   consecutive periods without a fresh KPI sample and proactively
//!   trips a resync when the stream has been silent for
//!   [`RecoveryPolicy::watchdog_periods`] periods (0 disables it).
//!
//! The supervisor itself owns no transports: it is a pure, clocked state
//! machine. The orchestrator drives it — [`Supervisor::poll`] once per
//! period, then reports the outcome of any probe it was asked to run
//! ([`Supervisor::on_resync_ok`] / [`Supervisor::on_resync_failed`]).
//! That split keeps the policy logic unit-testable without a control
//! plane and keeps the resync protocol (re-handshake, re-subscribe,
//! re-push) where the actors live.
//!
//! Transitions are mirrored into the registry given to
//! [`Supervisor::new`]:
//! `edgebol_oran_reconnects_total{link,outcome}`, the
//! `edgebol_oran_backoff_periods` histogram, the
//! `edgebol_oran_circuit_state` gauge (0 = connected, 1 = backoff,
//! 2 = open, 3 = half-open probe) and
//! `edgebol_oran_watchdog_trips_total`.

use crate::chaos::LinkId;
use edgebol_metrics::{Counter, Gauge, Histogram, Registry};
use edgebol_trace::{Journal, Layer};
use std::sync::Arc;

/// What happens once the retry budget is exhausted and the circuit
/// latches open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMode {
    /// No fallback: the supervisor tells the caller to give up with a
    /// typed error. Use when a silently-degraded run is worse than a
    /// dead one (CI invariants, accounting suites).
    Off,
    /// Local-autonomy mode, sticky: the caller keeps stepping on local
    /// readings and the last enforced policy while the supervisor issues
    /// periodic half-open probes. The default — a production control
    /// loop must survive its control plane.
    Sticky,
}

impl std::str::FromStr for FallbackMode {
    type Err = String;

    /// Parses the `EDGEBOL_FALLBACK` knob: `off` or `sticky`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim() {
            "off" => Ok(FallbackMode::Off),
            "sticky" | "" => Ok(FallbackMode::Sticky),
            other => Err(format!("invalid fallback mode {other:?}: expected off or sticky")),
        }
    }
}

/// Tunables of the reconnect supervisor. All horizons are measured in
/// orchestrator periods (virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Resync attempts before the circuit opens.
    pub max_retries: u32,
    /// Backoff base: attempt `k` waits `min(base · 2^k, cap)` periods.
    pub backoff_base: u64,
    /// Backoff ceiling in periods.
    pub backoff_cap: u64,
    /// Half-open probe interval (periods) while the circuit is open.
    pub probe_every: u64,
    /// KPI watchdog horizon: consecutive silent periods before a
    /// proactive resync is tripped. `0` disables the watchdog.
    pub watchdog_periods: u64,
    /// What to do when the retry budget is exhausted.
    pub fallback: FallbackMode,
}

impl Default for RecoveryPolicy {
    /// Eight attempts over ~47 periods (1, 2, 4, 8, 8, … period gaps),
    /// half-open probes every 8 periods, watchdog off, sticky fallback.
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 8,
            backoff_base: 1,
            backoff_cap: 8,
            probe_every: 8,
            watchdog_periods: 0,
            fallback: FallbackMode::Sticky,
        }
    }
}

impl RecoveryPolicy {
    /// The backoff for retry attempt `k` (0-based), in periods:
    /// `min(base · 2^k, cap)` with a saturating product, at least 1.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let doubling = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base.saturating_mul(doubling).min(self.backoff_cap).max(1)
    }

    /// Builder: sets the fallback mode.
    pub fn with_fallback(mut self, fallback: FallbackMode) -> Self {
        self.fallback = fallback;
        self
    }

    /// Builder: sets the KPI watchdog horizon (0 disables).
    pub fn with_watchdog(mut self, periods: u64) -> Self {
        self.watchdog_periods = periods;
        self
    }
}

/// The supervisor's circuit, advanced by [`Supervisor::poll`] on the
/// period clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// The control plane is up; traffic flows normally.
    Connected,
    /// A session died; the next resync attempt runs at `retry_at`.
    Backoff {
        /// 0-based resync attempt this backoff leads to.
        attempt: u32,
        /// Period at which the attempt runs.
        retry_at: u64,
    },
    /// The retry budget is exhausted; the circuit is latched open. Under
    /// [`FallbackMode::Sticky`] a half-open probe runs at `probe_at`.
    Open {
        /// Period of the next half-open probe.
        probe_at: u64,
    },
}

impl CircuitState {
    /// The `edgebol_oran_circuit_state` gauge encoding (a half-open
    /// probe in flight is reported by the supervisor as 3).
    fn gauge_value(&self) -> f64 {
        match self {
            CircuitState::Connected => 0.0,
            CircuitState::Backoff { .. } => 1.0,
            CircuitState::Open { .. } => 2.0,
        }
    }
}

/// What the caller must do this period, as decided by
/// [`Supervisor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Connected: run the normal control-plane round trip.
    Proceed,
    /// An outage is in progress and it is not yet time to probe: run on
    /// local autonomy (and keep the link clocks ticking).
    Wait,
    /// Run one resync attempt now and report the outcome via
    /// [`Supervisor::on_resync_ok`] / [`Supervisor::on_resync_failed`].
    Probe {
        /// 0-based attempt number (`max_retries` and beyond are
        /// half-open probes of an open circuit).
        attempt: u32,
        /// Whether this probes an open circuit (half-open) rather than a
        /// budgeted backoff retry.
        half_open: bool,
    },
    /// The budget is gone and fallback is [`FallbackMode::Off`]: surface
    /// a typed error to the operator.
    GiveUp {
        /// The link whose loss opened the circuit.
        link: LinkId,
        /// Resync attempts made before latching open.
        attempts: u32,
    },
}

/// The reconnect supervisor: a deterministic, period-clocked state
/// machine deciding when to retry, when to run on local autonomy and
/// when to give up. See the module docs for the protocol.
#[derive(Debug)]
pub struct Supervisor {
    policy: RecoveryPolicy,
    state: CircuitState,
    /// The link whose session loss started the current (or last) outage.
    lost_link: LinkId,
    /// Bumped on every successful resync; session 0 is the bootstrap.
    epoch: u64,
    /// Consecutive periods without a fresh KPI sample (watchdog input).
    kpi_silent: u64,
    reconnects_ok: u64,
    reconnects_failed: u64,
    watchdog_trips: u64,
    // Metric handles, pre-resolved at construction (no-ops for a
    // disabled registry).
    m_ok_a1: Counter,
    m_ok_e2: Counter,
    m_failed_a1: Counter,
    m_failed_e2: Counter,
    m_backoff: Histogram,
    m_state: Gauge,
    m_trips: Counter,
    /// Optional event journal receiving one event per circuit
    /// transition (see [`Supervisor::set_journal`]).
    journal: Option<Arc<Journal>>,
}

/// Backoff histogram buckets: the default policy caps at 8 periods, but
/// callers may raise the cap, so the ladder runs to 64.
const BACKOFF_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

impl Supervisor {
    /// A supervisor mirroring transitions into `metrics` (see the module
    /// docs for the series it records); [`Registry::disabled`] records
    /// nothing.
    pub fn new(policy: RecoveryPolicy, metrics: &Registry) -> Self {
        metrics.describe(
            "edgebol_oran_reconnects_total",
            "Reconnect attempts, by lost link and outcome",
        );
        metrics.describe("edgebol_oran_backoff_periods", "Backoff episode lengths in periods");
        metrics.describe(
            "edgebol_oran_circuit_state",
            "Circuit state (0 connected, 1 backoff, 2 open, 3 half-open)",
        );
        metrics.describe(
            "edgebol_oran_watchdog_trips_total",
            "KPI-silence watchdog trips that forced a reconnect",
        );
        let reconnect = |link: &'static str, outcome: &'static str| {
            metrics.counter_with(
                "edgebol_oran_reconnects_total",
                &[("link", link), ("outcome", outcome)],
            )
        };
        let s = Supervisor {
            policy,
            state: CircuitState::Connected,
            lost_link: LinkId::E2,
            epoch: 0,
            kpi_silent: 0,
            reconnects_ok: 0,
            reconnects_failed: 0,
            watchdog_trips: 0,
            m_ok_a1: reconnect("A1", "ok"),
            m_ok_e2: reconnect("E2", "ok"),
            m_failed_a1: reconnect("A1", "failed"),
            m_failed_e2: reconnect("E2", "failed"),
            m_backoff: metrics.histogram("edgebol_oran_backoff_periods", BACKOFF_BOUNDS),
            m_state: metrics.gauge("edgebol_oran_circuit_state"),
            m_trips: metrics.counter("edgebol_oran_watchdog_trips_total"),
            journal: None,
        };
        s.m_state.set(0.0);
        s
    }

    /// Attaches an event journal: every circuit transition (session
    /// loss, resync outcome, watchdog trip) is recorded under
    /// [`Layer::Recovery`] in addition to the metrics mirrors.
    pub fn set_journal(&mut self, journal: Arc<Journal>) {
        self.journal = Some(journal);
    }

    fn journal_event(&self, kind: &'static str, period: u64, fields: Vec<(&'static str, String)>) {
        if let Some(j) = &self.journal {
            j.record(Layer::Recovery, kind, Some(period), fields);
        }
    }

    /// The policy this supervisor runs.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// The current circuit state.
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// Whether the control plane is currently usable.
    pub fn is_connected(&self) -> bool {
        self.state == CircuitState::Connected
    }

    /// The current session epoch (bumped on every successful resync).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Successful resyncs so far (metrics-independent, for determinism
    /// assertions).
    pub fn reconnects_ok(&self) -> u64 {
        self.reconnects_ok
    }

    /// Failed resync attempts so far.
    pub fn reconnects_failed(&self) -> u64 {
        self.reconnects_failed
    }

    /// KPI watchdog trips so far.
    pub fn watchdog_trips(&self) -> u64 {
        self.watchdog_trips
    }

    /// Serializes the circuit's evolving state (state machine, lost
    /// link, epoch, watchdog and reconnect counters) for checkpointing.
    /// The policy and metric handles are construction-time configuration
    /// and are not serialized.
    pub fn export_state(&self) -> Vec<u8> {
        let mut e = edgebol_ckpt::Enc::new();
        match self.state {
            CircuitState::Connected => e.u8(0),
            CircuitState::Backoff { attempt, retry_at } => {
                e.u8(1);
                e.u32(attempt);
                e.u64(retry_at);
            }
            CircuitState::Open { probe_at } => {
                e.u8(2);
                e.u64(probe_at);
            }
        }
        e.u8(match self.lost_link {
            LinkId::A1 => 0,
            LinkId::E2 => 1,
        });
        e.u64(self.epoch);
        e.u64(self.kpi_silent);
        e.u64(self.reconnects_ok);
        e.u64(self.reconnects_failed);
        e.u64(self.watchdog_trips);
        e.finish()
    }

    /// Restores state exported by [`Self::export_state`] onto a
    /// supervisor running the same policy, and re-publishes the
    /// circuit-state gauge so `/metrics` tells the truth immediately.
    ///
    /// # Errors
    /// A typed [`edgebol_ckpt::CkptError`] on malformed payloads; the
    /// supervisor is left unchanged on error.
    pub fn import_state(&mut self, bytes: &[u8]) -> Result<(), edgebol_ckpt::CkptError> {
        use edgebol_ckpt::{CkptError, Dec};
        let mut d = Dec::new(bytes);
        let state = match d.u8()? {
            0 => CircuitState::Connected,
            1 => CircuitState::Backoff { attempt: d.u32()?, retry_at: d.u64()? },
            2 => CircuitState::Open { probe_at: d.u64()? },
            other => return Err(CkptError::BadValue(format!("circuit state tag {other}"))),
        };
        let lost_link = match d.u8()? {
            0 => LinkId::A1,
            1 => LinkId::E2,
            other => return Err(CkptError::BadValue(format!("link tag {other}"))),
        };
        let epoch = d.u64()?;
        let kpi_silent = d.u64()?;
        let reconnects_ok = d.u64()?;
        let reconnects_failed = d.u64()?;
        let watchdog_trips = d.u64()?;
        d.expect_end()?;
        self.state = state;
        self.lost_link = lost_link;
        self.epoch = epoch;
        self.kpi_silent = kpi_silent;
        self.reconnects_ok = reconnects_ok;
        self.reconnects_failed = reconnects_failed;
        self.watchdog_trips = watchdog_trips;
        self.m_state.set(state.gauge_value());
        Ok(())
    }

    /// Decides this period's action. Pure with respect to the clock —
    /// the same `(state, period)` always yields the same action; the
    /// only side effect is the circuit-state gauge (3 while a half-open
    /// probe is issued).
    pub fn poll(&mut self, period: u64) -> RecoveryAction {
        match self.state {
            CircuitState::Connected => RecoveryAction::Proceed,
            CircuitState::Backoff { attempt, retry_at } => {
                if period >= retry_at {
                    RecoveryAction::Probe { attempt, half_open: false }
                } else {
                    RecoveryAction::Wait
                }
            }
            CircuitState::Open { probe_at } => match self.policy.fallback {
                FallbackMode::Off => RecoveryAction::GiveUp {
                    link: self.lost_link,
                    attempts: self.policy.max_retries,
                },
                FallbackMode::Sticky => {
                    if period >= probe_at {
                        self.m_state.set(3.0);
                        RecoveryAction::Probe { attempt: self.policy.max_retries, half_open: true }
                    } else {
                        RecoveryAction::Wait
                    }
                }
            },
        }
    }

    /// Reports a session loss on `link` at `period`. Only a `Connected`
    /// circuit transitions (losses reported while already reconnecting
    /// are the same outage); the first resync attempt is scheduled one
    /// backoff step out.
    pub fn on_connection_lost(&mut self, link: LinkId, period: u64) {
        if self.state != CircuitState::Connected {
            return;
        }
        self.lost_link = link;
        let wait = self.policy.backoff(0);
        self.m_backoff.observe(wait as f64);
        self.state = CircuitState::Backoff { attempt: 0, retry_at: period + wait };
        self.m_state.set(self.state.gauge_value());
        self.journal_event(
            "connection_lost",
            period,
            vec![("link", link.label().to_string()), ("retry_at", (period + wait).to_string())],
        );
    }

    /// Reports a successful resync: the circuit closes and a new session
    /// epoch begins.
    pub fn on_resync_ok(&mut self, period: u64) {
        self.epoch += 1;
        self.kpi_silent = 0;
        self.reconnects_ok += 1;
        match self.lost_link {
            LinkId::A1 => self.m_ok_a1.inc(),
            LinkId::E2 => self.m_ok_e2.inc(),
        }
        self.state = CircuitState::Connected;
        self.m_state.set(self.state.gauge_value());
        self.journal_event(
            "resync_ok",
            period,
            vec![("link", self.lost_link.label().to_string()), ("epoch", self.epoch.to_string())],
        );
    }

    /// Reports a failed resync attempt at `period`: schedules the next
    /// attempt one backoff step out, or latches the circuit open once
    /// the budget is spent. A failed *half-open* probe re-arms the next
    /// probe without consuming budget (the circuit is already open).
    pub fn on_resync_failed(&mut self, period: u64) {
        self.reconnects_failed += 1;
        match self.lost_link {
            LinkId::A1 => self.m_failed_a1.inc(),
            LinkId::E2 => self.m_failed_e2.inc(),
        }
        match self.state {
            CircuitState::Connected => {} // spurious report; ignore
            CircuitState::Open { .. } => {
                self.state = CircuitState::Open { probe_at: period + self.policy.probe_every };
                self.m_state.set(self.state.gauge_value());
                self.journal_event(
                    "probe_failed",
                    period,
                    vec![("link", self.lost_link.label().to_string())],
                );
            }
            CircuitState::Backoff { attempt, .. } => {
                let next = attempt + 1;
                if next >= self.policy.max_retries {
                    self.state = CircuitState::Open { probe_at: period + self.policy.probe_every };
                    self.journal_event(
                        "circuit_open",
                        period,
                        vec![
                            ("link", self.lost_link.label().to_string()),
                            ("attempts", next.to_string()),
                        ],
                    );
                } else {
                    let wait = self.policy.backoff(next);
                    self.m_backoff.observe(wait as f64);
                    self.state = CircuitState::Backoff { attempt: next, retry_at: period + wait };
                    self.journal_event(
                        "resync_failed",
                        period,
                        vec![
                            ("link", self.lost_link.label().to_string()),
                            ("attempt", next.to_string()),
                            ("retry_at", (period + wait).to_string()),
                        ],
                    );
                }
                self.m_state.set(self.state.gauge_value());
            }
        }
    }

    /// Reports a fresh KPI sample: the watchdog counter resets.
    pub fn note_kpi_fresh(&mut self) {
        self.kpi_silent = 0;
    }

    /// Reports a period without a fresh KPI sample. When the watchdog is
    /// enabled and the stream has now been silent for
    /// [`RecoveryPolicy::watchdog_periods`] consecutive periods while
    /// the circuit is `Connected`, a proactive E2 resync is tripped (the
    /// first attempt runs next period) and `true` is returned.
    pub fn note_kpi_silent(&mut self, period: u64) -> bool {
        self.kpi_silent += 1;
        if self.policy.watchdog_periods == 0
            || self.kpi_silent < self.policy.watchdog_periods
            || self.state != CircuitState::Connected
        {
            return false;
        }
        self.watchdog_trips += 1;
        self.m_trips.inc();
        self.kpi_silent = 0;
        self.lost_link = LinkId::E2;
        self.state = CircuitState::Backoff { attempt: 0, retry_at: period + 1 };
        self.m_state.set(self.state.gauge_value());
        self.journal_event("watchdog_trip", period, vec![("link", "E2".to_string())]);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff(0), 1);
        assert_eq!(p.backoff(1), 2);
        assert_eq!(p.backoff(2), 4);
        assert_eq!(p.backoff(3), 8);
        assert_eq!(p.backoff(4), 8, "capped");
        assert_eq!(p.backoff(200), 8, "huge attempts stay capped");
        let zero = RecoveryPolicy { backoff_base: 0, ..RecoveryPolicy::default() };
        assert_eq!(zero.backoff(0), 1, "never waits zero periods");
        let wide = RecoveryPolicy { backoff_base: 1 << 30, backoff_cap: 1 << 40, ..zero };
        assert_eq!(wide.backoff(34), 1 << 40, "bits shifted out saturate to the cap");
    }

    #[test]
    fn export_import_resumes_mid_outage() {
        let mut live = Supervisor::new(RecoveryPolicy::default(), &Registry::disabled());
        live.on_connection_lost(LinkId::E2, 10);
        assert_eq!(live.poll(11), RecoveryAction::Probe { attempt: 0, half_open: false });
        live.on_resync_failed(11);
        let snapshot = live.export_state();
        let mut restored = Supervisor::new(RecoveryPolicy::default(), &Registry::disabled());
        restored.import_state(&snapshot).unwrap();
        assert_eq!(restored.state(), live.state());
        assert_eq!(restored.reconnects_failed(), 1);
        // Both walk the identical backoff ladder from here.
        for t in 12..30 {
            assert_eq!(live.poll(t), restored.poll(t), "t={t}");
        }
        // Corrupt payloads are typed errors, not panics, and leave the
        // supervisor unchanged.
        let before = restored.state();
        assert!(restored.import_state(&snapshot[..snapshot.len() - 3]).is_err());
        assert!(restored.import_state(&[9u8]).is_err());
        assert_eq!(restored.state(), before);
    }

    #[test]
    fn happy_path_stays_connected() {
        let mut s = Supervisor::new(RecoveryPolicy::default(), &Registry::disabled());
        for t in 0..100 {
            assert_eq!(s.poll(t), RecoveryAction::Proceed);
        }
        assert_eq!(s.epoch(), 0);
        assert!(s.is_connected());
    }

    #[test]
    fn loss_probes_on_the_deterministic_backoff_schedule() {
        let mut s = Supervisor::new(RecoveryPolicy::default(), &Registry::disabled());
        s.on_connection_lost(LinkId::E2, 10);
        // Attempt k runs at 10 + sum of backoffs: 11, 13, 17, 25, ...
        let mut expected_probe_at = vec![];
        let mut at = 10;
        for k in 0..4u32 {
            at += s.policy().backoff(k);
            expected_probe_at.push(at);
        }
        assert_eq!(expected_probe_at, vec![11, 13, 17, 25]);
        for (k, &probe_at) in expected_probe_at.iter().enumerate() {
            for t in (probe_at - s.policy().backoff(k as u32))..probe_at {
                assert_eq!(s.poll(t), RecoveryAction::Wait, "t={t}");
            }
            assert_eq!(
                s.poll(probe_at),
                RecoveryAction::Probe { attempt: k as u32, half_open: false }
            );
            s.on_resync_failed(probe_at);
        }
        assert_eq!(s.reconnects_failed(), 4);
    }

    #[test]
    fn successful_resync_closes_the_circuit_and_bumps_the_epoch() {
        let mut s = Supervisor::new(RecoveryPolicy::default(), &Registry::disabled());
        s.on_connection_lost(LinkId::A1, 5);
        assert_eq!(s.poll(5), RecoveryAction::Wait);
        assert_eq!(s.poll(6), RecoveryAction::Probe { attempt: 0, half_open: false });
        s.on_resync_ok(6);
        assert!(s.is_connected());
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.reconnects_ok(), 1);
        assert_eq!(s.poll(7), RecoveryAction::Proceed);
        // A second outage starts a fresh backoff ladder.
        s.on_connection_lost(LinkId::A1, 8);
        assert_eq!(s.poll(9), RecoveryAction::Probe { attempt: 0, half_open: false });
    }

    #[test]
    fn exhausted_budget_opens_the_circuit_with_half_open_probes() {
        let policy = RecoveryPolicy { max_retries: 2, probe_every: 5, ..RecoveryPolicy::default() };
        let mut s = Supervisor::new(policy, &Registry::disabled());
        s.on_connection_lost(LinkId::E2, 0);
        assert_eq!(s.poll(1), RecoveryAction::Probe { attempt: 0, half_open: false });
        s.on_resync_failed(1);
        assert_eq!(s.poll(3), RecoveryAction::Probe { attempt: 1, half_open: false });
        s.on_resync_failed(3);
        assert_eq!(s.state(), CircuitState::Open { probe_at: 8 });
        for t in 4..8 {
            assert_eq!(s.poll(t), RecoveryAction::Wait, "t={t}");
        }
        assert_eq!(s.poll(8), RecoveryAction::Probe { attempt: 2, half_open: true });
        s.on_resync_failed(8);
        assert_eq!(s.state(), CircuitState::Open { probe_at: 13 });
        // A half-open probe that succeeds closes the circuit normally.
        assert_eq!(s.poll(13), RecoveryAction::Probe { attempt: 2, half_open: true });
        s.on_resync_ok(13);
        assert!(s.is_connected());
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn fallback_off_gives_up_once_open() {
        let policy = RecoveryPolicy {
            max_retries: 1,
            fallback: FallbackMode::Off,
            ..RecoveryPolicy::default()
        };
        let mut s = Supervisor::new(policy, &Registry::disabled());
        s.on_connection_lost(LinkId::E2, 0);
        assert_eq!(s.poll(1), RecoveryAction::Probe { attempt: 0, half_open: false });
        s.on_resync_failed(1);
        assert_eq!(s.poll(2), RecoveryAction::GiveUp { link: LinkId::E2, attempts: 1 });
        // GiveUp is stable: polling again yields the same verdict.
        assert_eq!(s.poll(50), RecoveryAction::GiveUp { link: LinkId::E2, attempts: 1 });
    }

    #[test]
    fn watchdog_trips_after_n_silent_periods_and_resets_on_fresh() {
        let policy = RecoveryPolicy { watchdog_periods: 3, ..RecoveryPolicy::default() };
        let mut s = Supervisor::new(policy, &Registry::disabled());
        assert!(!s.note_kpi_silent(0));
        assert!(!s.note_kpi_silent(1));
        s.note_kpi_fresh(); // streak broken
        assert!(!s.note_kpi_silent(2));
        assert!(!s.note_kpi_silent(3));
        assert!(s.note_kpi_silent(4), "third consecutive silent period trips");
        assert_eq!(s.watchdog_trips(), 1);
        assert_eq!(s.state(), CircuitState::Backoff { attempt: 0, retry_at: 5 });
        // Already reconnecting: further silence does not re-trip.
        assert!(!s.note_kpi_silent(5));
        assert!(!s.note_kpi_silent(6));
        assert!(!s.note_kpi_silent(7));
    }

    #[test]
    fn watchdog_disabled_by_default() {
        let mut s = Supervisor::new(RecoveryPolicy::default(), &Registry::disabled());
        for t in 0..1000 {
            assert!(!s.note_kpi_silent(t));
        }
        assert!(s.is_connected());
    }

    #[test]
    fn fallback_mode_parses() {
        assert_eq!("off".parse::<FallbackMode>().unwrap(), FallbackMode::Off);
        assert_eq!("sticky".parse::<FallbackMode>().unwrap(), FallbackMode::Sticky);
        assert_eq!("".parse::<FallbackMode>().unwrap(), FallbackMode::Sticky);
        assert!("both".parse::<FallbackMode>().is_err());
    }

    #[test]
    fn metrics_mirror_the_transitions() {
        let reg = Registry::new();
        let mut s = Supervisor::new(
            RecoveryPolicy { max_retries: 1, probe_every: 2, ..RecoveryPolicy::default() },
            &reg,
        );
        s.on_connection_lost(LinkId::E2, 0);
        s.on_resync_failed(1); // budget of 1 spent -> open
        assert_eq!(s.poll(3), RecoveryAction::Probe { attempt: 1, half_open: true });
        s.on_resync_ok(3);
        let snap = reg.snapshot();
        let key = |o: &str| format!("edgebol_oran_reconnects_total{{link=\"E2\",outcome=\"{o}\"}}");
        assert_eq!(snap.counter(&key("ok")), Some(1));
        assert_eq!(snap.counter(&key("failed")), Some(1));
        assert_eq!(snap.gauge("edgebol_oran_circuit_state"), Some(0.0));
    }
}
