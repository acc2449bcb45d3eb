//! The closed orchestration loop over the O-RAN control plane (Fig. 7).
//!
//! Each period the orchestrator:
//!
//! 1. observes the context from the environment,
//! 2. asks the agent for a control policy,
//! 3. deploys the **radio** half (airtime, MCS cap) through the real
//!    rApp → A1 → xApp → E2 → O-eNB chain and waits for the `Enforced`
//!    feedback — the policy that reaches the environment is the one the
//!    E2 node actually applied (including the E2 `ControlRequest` wire
//!    format's milli-unit airtime quantization),
//! 4. runs the period and routes the BS-power KPI back through the E2
//!    indication → data-collector rApp path, exactly as §4.1 describes,
//! 5. feeds the period's outcome to the agent and records it.
//!
//! The GPU-speed policy is applied directly ("the GPU speed is configured
//! in the same machine where the learning agent runs", §4.2) and the image
//! resolution "is indicated to the user using the application of the
//! service" — both bypass the RAN control plane in the paper too.
//!
//! # Failure model
//!
//! The loop is fallible, not panicking: every control-plane interaction
//! returns a typed [`OranError`] which [`Orchestrator::try_step`] either
//! absorbs or surfaces as an [`OrchestratorError`]:
//!
//! * **Recoverable** errors — a corrupt or out-of-order message on a
//!   healthy link (framing/codec/handshake) — trigger **degraded mode**
//!   for that interaction: the radio path reuses the last policy the E2
//!   node is known to have enforced (the node keeps running its current
//!   configuration when a control message is lost), and the KPI path
//!   falls back to the locally measured power reading. Degraded events
//!   are counted in [`Orchestrator::degraded_events`].
//! * **Session-fatal** errors — the channel is closed or the socket
//!   died ([`OranError::is_session_fatal`]) — hand control to the
//!   **reconnect supervisor** ([`edgebol_oran::Supervisor`]): the run
//!   continues in **local-autonomy mode** (last enforced policy, local
//!   power readings, counted in
//!   [`Orchestrator::local_autonomy_periods`]) while the supervisor
//!   schedules resync probes with deterministic exponential backoff on
//!   the period clock. A successful resync discards the dead session's
//!   stale frames, re-runs the KPI subscription handshake, re-pushes
//!   the last acknowledged policy and bumps the session epoch; the loop
//!   then returns to the connected path. When the retry budget is
//!   exhausted the circuit latches open: under the default sticky
//!   fallback the run survives indefinitely with periodic half-open
//!   probes, while [`edgebol_oran::FallbackMode::Off`] surfaces
//!   [`OrchestratorError::CircuitOpen`] to the caller instead.
//! * A **KPI watchdog** (off by default, period budget set via
//!   [`Orchestrator::with_recovery`]) treats an E2 stream that stays
//!   silent for N consecutive periods as a dead session even though no
//!   transport error surfaced, and routes it through the same
//!   supervisor machinery.
//!
//! The failure model is exercised by the deterministic chaos layer
//! (`edgebol_oran::chaos`): [`Orchestrator::new_with_transport`] wraps the
//! near-RT RIC's two endpoints in fault-injecting decorators — which
//! covers all four lanes, since every A1/E2 message transits the xApp —
//! and the per-stage counters ([`Orchestrator::degraded_by_stage`]) plus
//! the shared [`FaultLedger`] let tests assert that every injected
//! recoverable fault is accounted for, not silently absorbed.

use crate::agent::Agent;
use crate::problem::ProblemSpec;
use crate::trace::{PeriodRecord, Trace};
use edgebol_metrics::{Counter, Histogram, Registry};
use edgebol_oran::{
    duplex_pair, AnyLink, ChaosConfig, ChaosEndpoint, ChaosPlan, CircuitState, E2Node, FaultLedger,
    KpiReport, LinkId, NearRtRic, NonRtRic, OranError, RadioPolicy, Reactor, RecoveryAction,
    RecoveryPolicy, RicEvent, Supervisor, TransportKind,
};
use edgebol_ran::Mcs;
use edgebol_testbed::{ControlInput, Environment};
use edgebol_trace::{Journal, Layer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A scheduled constraint change: at period `t`, switch to
/// `(d_max, rho_min)` — the Fig. 14 scenario.
pub type ConstraintEvent = (usize, f64, f64);

/// Errors of the orchestration loop.
///
/// Wraps the O-RAN layer's [`OranError`] together with the stage of the
/// control-plane round trip that failed, so logs can say *where* in the
/// rApp → A1 → xApp → E2 → node chain a link died.
#[derive(Debug)]
pub enum OrchestratorError {
    /// A control-plane interaction failed at `stage` with an
    /// unrecoverable transport error (recoverable ones are absorbed by
    /// degraded mode; session-fatal ones are absorbed by the reconnect
    /// supervisor, so with the default recovery policy this variant no
    /// longer reaches `try_step` callers).
    ControlPlane {
        /// Which hop of the A1/E2 round trip failed.
        stage: &'static str,
        /// The underlying O-RAN layer error.
        source: OranError,
    },
    /// The reconnect supervisor exhausted its retry budget, the circuit
    /// latched open, and the operator disabled local-autonomy fallback
    /// (`FallbackMode::Off`): the run cannot continue.
    CircuitOpen {
        /// The link whose loss opened the circuit.
        link: LinkId,
        /// Resync attempts made before latching open.
        attempts: u32,
    },
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestratorError::ControlPlane { stage, source } => {
                write!(f, "control plane failed at {stage}: {source}")
            }
            OrchestratorError::CircuitOpen { link, attempts } => {
                write!(
                    f,
                    "circuit open: {link} link lost, {attempts} resync attempts exhausted \
                     and fallback is disabled"
                )
            }
        }
    }
}

impl std::error::Error for OrchestratorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestratorError::ControlPlane { source, .. } => Some(source),
            OrchestratorError::CircuitOpen { .. } => None,
        }
    }
}

impl OrchestratorError {
    /// Whether the underlying link is still usable. `try_step` never
    /// returns a recoverable error (those are absorbed by degraded
    /// mode); this exists for callers of the lower-level deploy helpers
    /// and for tests.
    pub fn is_recoverable(&self) -> bool {
        match self {
            OrchestratorError::ControlPlane { source, .. } => source.is_recoverable(),
            OrchestratorError::CircuitOpen { .. } => false,
        }
    }

    /// Whether this error ended a control-plane *session* — exactly what
    /// the reconnect supervisor absorbs and retries
    /// ([`OranError::is_session_fatal`] on the source). A `CircuitOpen`
    /// is not session-fatal: it is the supervisor's own verdict that no
    /// further sessions will be attempted.
    pub fn is_session_fatal(&self) -> bool {
        match self {
            OrchestratorError::ControlPlane { source, .. } => source.is_session_fatal(),
            OrchestratorError::CircuitOpen { .. } => false,
        }
    }

    /// Which hop of the rApp → A1 → xApp → E2 → node chain failed (the
    /// synthetic stage `"reconnect supervisor"` for a latched-open
    /// circuit).
    pub fn stage(&self) -> &'static str {
        match self {
            OrchestratorError::ControlPlane { stage, .. } => stage,
            OrchestratorError::CircuitOpen { .. } => "reconnect supervisor",
        }
    }
}

/// Tags an O-RAN layer result with the chain stage it belongs to.
fn at<T>(stage: &'static str, r: Result<T, OranError>) -> Result<T, OrchestratorError> {
    r.map_err(|source| OrchestratorError::ControlPlane { stage, source })
}

/// Step-latency bucket bounds (seconds). Orchestration periods on the
/// simulated testbed run in fractions of a millisecond to tens of
/// milliseconds depending on agent configuration (full GP sweeps are
/// ~1000× a warm-up step), so the grid is log-spaced from 0.5 ms to 2 s
/// — wide enough that both regimes land in interior buckets.
const STEP_LATENCY_BOUNDS: &[f64] =
    &[0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0];

/// Pre-resolved metric handles for the orchestration loop. Handles are
/// resolved once at construction so the per-period hot path never takes
/// the registry's registration lock; per-stage counters (degraded,
/// errors) are resolved lazily because stages are data-dependent and
/// only hit on the cold (failure) path.
struct OrchestratorMetrics {
    registry: Registry,
    periods: Counter,
    step_seconds: Histogram,
    kpi_stale: Counter,
    stale_frames: Counter,
    local_autonomy: Counter,
}

impl OrchestratorMetrics {
    fn new(registry: Registry) -> Self {
        registry.describe("edgebol_core_periods_total", "Control periods completed");
        registry.describe(
            "edgebol_core_step_latency_seconds",
            "Wall-clock latency of one sense-optimize-deploy-KPI period",
        );
        registry.describe(
            "edgebol_core_kpi_stale_samples_total",
            "Periods that reused the last KPI report because the fresh one was lost",
        );
        registry.describe(
            "edgebol_core_local_autonomy_periods_total",
            "Periods ridden out in local-autonomy fallback (control plane down)",
        );
        registry.describe("edgebol_core_degraded_total", "Degraded periods by failing chain stage");
        registry.describe(
            "edgebol_core_control_plane_errors_total",
            "Fatal control-plane errors by failing chain stage",
        );
        registry.describe(
            "edgebol_core_stale_frames_discarded_total",
            "Pre-outage frames discarded on resync instead of being replayed",
        );
        OrchestratorMetrics {
            periods: registry.counter("edgebol_core_periods_total"),
            step_seconds: registry
                .histogram("edgebol_core_step_latency_seconds", STEP_LATENCY_BOUNDS),
            kpi_stale: registry.counter("edgebol_core_kpi_stale_samples_total"),
            stale_frames: registry.counter("edgebol_core_stale_frames_discarded_total"),
            local_autonomy: registry.counter("edgebol_core_local_autonomy_periods_total"),
            registry,
        }
    }
}

/// Every chain-stage name the orchestrator or its errors can attribute
/// a degraded period to. Checkpoints store stage names as strings;
/// restore re-interns them against this table so `degraded_by_stage`
/// keeps its zero-allocation `&'static str` keys — an unknown name
/// means the checkpoint came from an incompatible build and is
/// rejected as a typed error.
const KNOWN_STAGES: &[&str] = &[
    "A1 put (rApp->xApp)",
    "near-RT poll (A1->E2)",
    "node poll (apply+ack)",
    "near-RT poll (ack->A1)",
    "non-RT poll (feedback)",
    "E2 indicate (node->xApp)",
    "near-RT poll (indication)",
    "non-RT poll (kpi)",
    "radio deploy (silent loss)",
    "KPI path (silent loss)",
    "KPI subscribe (xApp->E2)",
    "KPI subscription handshake (node)",
    "KPI subscription flush (xApp)",
    "reactor setup",
    "reactor pair (A1)",
    "reactor pair (E2)",
    "reconnect supervisor",
];

fn intern_stage(name: &str) -> Option<&'static str> {
    KNOWN_STAGES.iter().find(|s| **s == name).copied()
}

/// The radio half of `control`: the policy the chain deploys.
fn radio_policy(control: &ControlInput) -> RadioPolicy {
    RadioPolicy { airtime: control.airtime, max_mcs: control.mcs_cap.index() as u8 }
}

/// `control` with its radio half replaced by `policy`, the one in force.
fn in_force(control: &ControlInput, policy: RadioPolicy) -> ControlInput {
    ControlInput {
        resolution: control.resolution,
        airtime: policy.airtime,
        gpu_speed: control.gpu_speed,
        mcs_cap: Mcs::clamped(policy.max_mcs as i64),
    }
}

/// The orchestrator.
pub struct Orchestrator {
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    spec: ProblemSpec,
    nonrt: NonRtRic<AnyLink>,
    /// The xApp's two endpoints are chaos-wrapped (transparently, when
    /// the plan is disabled): every control-plane frame transits here, so
    /// these two decorators cover all four fault lanes. The links
    /// underneath are [`AnyLink`], so the same orchestrator type runs
    /// over the in-process poll transport or the reactor-managed TCP
    /// transport — which of the two is a construction-time choice.
    nearrt: NearRtRic<ChaosEndpoint<AnyLink>, ChaosEndpoint<AnyLink>>,
    node: E2Node<AnyLink>,
    /// Which transport carries the A1/E2 links of this instance.
    transport: TransportKind,
    /// The fault schedule in force (disarmed and empty for [`Orchestrator::new`]).
    chaos: ChaosPlan,
    /// The radio policy the E2 node most recently applied (recorded by
    /// `poll_node`, drained once per deployment).
    enforced: Option<RadioPolicy>,
    /// Every policy the node ever applied, stamped with the period it was
    /// applied in — ground truth for "the enforced policy never silently
    /// diverges from the last acknowledged one".
    applied_log: Vec<(usize, RadioPolicy)>,
    /// The last policy known to be enforced — the degraded-mode fallback
    /// when the control plane drops a message.
    last_enforced: Option<RadioPolicy>,
    /// The reconnect supervisor: turns session losses into backoff /
    /// resync / local-autonomy episodes on the period clock.
    supervisor: Supervisor,
    /// Periods that ran in local-autonomy mode (outage in progress:
    /// local power readings, last-enforced policy).
    local_autonomy_periods: usize,
    /// The first period that deviated from the connected path (session
    /// loss or local-autonomy fallback) — the start of the outage
    /// window for trace-prefix comparisons.
    first_outage_period: Option<usize>,
    t: usize,
    degraded_events: usize,
    /// Degraded events keyed by the chain stage that caused them (error
    /// stages verbatim; silent losses under synthetic stage names).
    degraded_by_stage: BTreeMap<&'static str, usize>,
    /// Record the safe-set size each period (full-grid GP sweep —
    /// noticeably slower; used by the Fig. 13 regenerator).
    pub record_safe_set: bool,
    schedule: Vec<ConstraintEvent>,
    metrics: OrchestratorMetrics,
    /// Structured event journal (per-period stage spans, outage
    /// narrative), shared with the supervisor and chaos ledger once
    /// attached via [`Orchestrator::with_journal`].
    journal: Option<Arc<Journal>>,
}

impl Orchestrator {
    /// Wires the agent, environment and O-RAN chain together over the
    /// in-process poll transport, with no faults and no metrics.
    ///
    /// # Errors
    /// [`OrchestratorError::ControlPlane`] when the KPI-subscription
    /// handshake fails — impossible for the in-process transport built
    /// here, but the setup path is fallible like the rest of the loop.
    pub fn new(
        env: Box<dyn Environment>,
        agent: Box<dyn Agent>,
        spec: ProblemSpec,
    ) -> Result<Self, OrchestratorError> {
        Self::new_with_transport(
            env,
            agent,
            spec,
            ChaosConfig::disabled(),
            Registry::disabled(),
            TransportKind::Poll,
        )
    }

    /// The general constructor. Builds the rApp → A1 → xApp → E2 → node
    /// chain over `transport`, wraps the xApp's two links in the chaos
    /// plan, and completes the KPI-subscription handshake before arming
    /// the plan, so bootstrap traffic is never faulted and the first
    /// faultable frame belongs to period 0. Because the chaos op-clock
    /// counts operations *above* the transport and the reactor's paired
    /// links deliver every sent frame before reporting empty, a
    /// fixed-seed episode produces f64-bit-identical traces on both
    /// transports (pinned by `tests/reactor.rs`).
    ///
    /// `metrics` receives per-period step latency
    /// (`edgebol_core_step_latency_seconds`), per-stage degraded and
    /// control-plane-error counters (mirroring
    /// [`Orchestrator::degraded_by_stage`]), stale KPI samples, and —
    /// through the chaos plan — per-link frame/byte traffic plus
    /// per-kind fault counts. [`Registry::disabled`] records nothing.
    ///
    /// # Errors
    /// [`OrchestratorError::ControlPlane`] when transport setup or the
    /// (pre-chaos) subscription handshake fails.
    pub fn new_with_transport(
        env: Box<dyn Environment>,
        agent: Box<dyn Agent>,
        spec: ProblemSpec,
        chaos: ChaosConfig,
        metrics: Registry,
        transport: TransportKind,
    ) -> Result<Self, OrchestratorError> {
        let plan = ChaosPlan::new(chaos, metrics.clone());
        let (a1_up, a1_down, e2_up, e2_down) = match transport {
            TransportKind::Poll => {
                let (a1_up, a1_down) = duplex_pair();
                let (e2_up, e2_down) = duplex_pair();
                (a1_up.into(), a1_down.into(), e2_up.into(), e2_down.into())
            }
            TransportKind::Reactor => {
                let r =
                    at("reactor setup", Reactor::new(metrics.clone()).map_err(OranError::from))?;
                let (a1_up, a1_down) = at("reactor pair (A1)", r.pair().map_err(OranError::from))?;
                let (e2_up, e2_down) = at("reactor pair (E2)", r.pair().map_err(OranError::from))?;
                (a1_up.into(), a1_down.into(), e2_up.into(), e2_down.into())
            }
        };
        let node = E2Node::new(e2_down);
        let nonrt = NonRtRic::new(a1_up);
        let mut nearrt =
            NearRtRic::new(plan.wrap(a1_down, LinkId::A1), plan.wrap(e2_up, LinkId::E2));
        at("KPI subscribe (xApp->E2)", nearrt.subscribe_kpis(1_000))?;
        let supervisor = Supervisor::new(RecoveryPolicy::default(), &metrics);
        let mut orch = Orchestrator {
            env,
            agent,
            spec,
            nonrt,
            nearrt,
            node,
            transport,
            chaos: plan,
            enforced: None,
            applied_log: Vec::new(),
            last_enforced: None,
            supervisor,
            local_autonomy_periods: 0,
            first_outage_period: None,
            t: 0,
            degraded_events: 0,
            degraded_by_stage: BTreeMap::new(),
            record_safe_set: false,
            schedule: Vec::new(),
            metrics: OrchestratorMetrics::new(metrics),
            journal: None,
        };
        // Complete the KPI subscription handshake...
        at("KPI subscription handshake (node)", orch.poll_node())?;
        // ...and flush the SubscriptionResponse out of the xApp's E2
        // queue while the plan is still disarmed, so no bootstrap frame
        // lingers where the fault schedule could hit it.
        at("KPI subscription flush (xApp)", orch.nearrt.poll())?;
        orch.chaos.arm();
        Ok(orch)
    }

    /// Adds a constraint-change schedule (Fig. 14).
    pub fn with_constraint_schedule(mut self, schedule: Vec<ConstraintEvent>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Replaces the reconnect supervisor's policy (default:
    /// [`RecoveryPolicy::default`] — 8 retries, sticky fallback,
    /// watchdog off). Call before stepping: the fresh supervisor starts
    /// `Connected` at epoch 0.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.supervisor = Supervisor::new(policy, &self.metrics.registry);
        if let Some(j) = &self.journal {
            self.supervisor.set_journal(j.clone());
        }
        self
    }

    /// Attaches a structured event journal: the orchestrator emits one
    /// `period_span` event per period (sense → optimize → deploy → KPI
    /// stage timings) plus outage-narrative events, and the same handle
    /// is forwarded to the reconnect supervisor (circuit transitions)
    /// and the chaos ledger (fault injections), so one ring holds the
    /// whole story in order. Order with respect to
    /// [`Orchestrator::with_recovery`] does not matter.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.supervisor.set_journal(journal.clone());
        self.chaos.ledger().set_journal(journal.clone());
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Records an orchestrator-layer journal event stamped with the
    /// current period; a no-op without an attached journal.
    fn journal_event(&self, kind: &'static str, fields: Vec<(&'static str, String)>) {
        if let Some(j) = &self.journal {
            j.record(Layer::Orchestrator, kind, Some(self.t as u64), fields);
        }
    }

    /// The problem spec currently in force.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// Which transport carries this instance's A1/E2 links.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// How many control-plane interactions fell back to degraded mode
    /// (stale policy / local power reading) so far.
    pub fn degraded_events(&self) -> usize {
        self.degraded_events
    }

    /// Degraded events keyed by the chain stage that caused them. Error
    /// stages appear verbatim; losses the chain never reported as errors
    /// are counted under `"radio deploy (silent loss)"` and
    /// `"KPI path (silent loss)"`. The per-stage counts always sum to
    /// [`Orchestrator::degraded_events`].
    pub fn degraded_by_stage(&self) -> &BTreeMap<&'static str, usize> {
        &self.degraded_by_stage
    }

    /// The ledger of faults the chaos schedule has injected so far
    /// (empty for an orchestrator built with [`Orchestrator::new`]).
    pub fn fault_ledger(&self) -> FaultLedger {
        self.chaos.ledger()
    }

    /// Every policy the E2 node actually applied, stamped with the period
    /// in which it applied it, in application order.
    pub fn enforcement_log(&self) -> Vec<(usize, RadioPolicy)> {
        self.applied_log.clone()
    }

    /// The policy the environment is currently running under — the last
    /// acknowledged enforcement (or the locally quantized bootstrap
    /// fallback before any enforcement succeeded).
    pub fn last_enforced(&self) -> Option<RadioPolicy> {
        self.last_enforced
    }

    /// The registry this orchestrator records into (disabled unless
    /// one was passed to [`Orchestrator::new_with_transport`]).
    pub fn metrics(&self) -> &Registry {
        &self.metrics.registry
    }

    /// The reconnect supervisor's circuit state.
    pub fn circuit_state(&self) -> CircuitState {
        self.supervisor.state()
    }

    /// The current control-plane session epoch (bumped by every
    /// successful resync; 0 is the bootstrap session).
    pub fn session_epoch(&self) -> u64 {
        self.supervisor.epoch()
    }

    /// Periods that ran in local-autonomy mode (outage in progress).
    pub fn local_autonomy_periods(&self) -> usize {
        self.local_autonomy_periods
    }

    /// The first period that deviated from the connected path, if any —
    /// the start of the outage window. Records before this index are
    /// bit-identical to a fault-free run's.
    pub fn first_outage_period(&self) -> Option<usize> {
        self.first_outage_period
    }

    /// Successful resyncs so far.
    pub fn reconnects_ok(&self) -> u64 {
        self.supervisor.reconnects_ok()
    }

    /// Failed resync attempts so far.
    pub fn reconnects_failed(&self) -> u64 {
        self.supervisor.reconnects_failed()
    }

    /// KPI watchdog trips so far (0 unless enabled via
    /// [`Orchestrator::with_recovery`]).
    pub fn watchdog_trips(&self) -> u64 {
        self.supervisor.watchdog_trips()
    }

    /// The flight-record meta rows for this orchestrator having died with
    /// `e`: error, stage, transport, circuit and outage accounting. Every
    /// driver that dumps an incident file (the bench harness, the fleet's
    /// early-retire path) uses these rows, so the files share one shape.
    pub fn flight_meta(&self, e: &OrchestratorError) -> Vec<(&'static str, String)> {
        let mut meta = vec![
            ("error", e.to_string()),
            ("stage", e.stage().to_string()),
            ("transport", format!("{:?}", self.transport)),
            ("circuit", format!("{:?}", self.circuit_state())),
            ("local_autonomy_periods", self.local_autonomy_periods.to_string()),
            ("degraded_events", self.degraded_events.to_string()),
        ];
        if let Some(p) = self.first_outage_period {
            meta.push(("first_outage_period", p.to_string()));
        }
        meta
    }

    /// Forwards a cross-slice GPU contention factor to the environment
    /// (see [`Environment::set_gpu_contention`]): the fleet layer's
    /// shared-server model calls this each period on every member slice
    /// whose cell's aggregate load exceeds the server's capacity.
    pub fn set_gpu_contention(&mut self, factor: f64) {
        self.env.set_gpu_contention(factor);
    }

    /// The agent's transferable experience, when it maintains one (see
    /// [`Agent::export_experience`]) — how the fleet layer reads a
    /// running slice's posterior to warm-start a newly spawned one.
    pub fn agent_experience(&self) -> Option<Vec<(Vec<f64>, [f64; 3])>> {
        self.agent.export_experience()
    }

    /// Serializes the orchestrator's evolving state at a period boundary
    /// — counters, enforcement log, supervisor circuit, and (when they
    /// support snapshots) the agent and environment — as a checkpoint
    /// payload for [`Self::restore_state`].
    ///
    /// Construction-time configuration (transport, chaos plan, recovery
    /// policy, metric registry) is not serialized: a restore target is
    /// built with the same constructor arguments and then handed this
    /// payload.
    pub fn save_state(&self) -> Vec<u8> {
        let mut e = edgebol_ckpt::Enc::new();
        e.usize(self.t);
        e.f64(self.spec.d_max);
        e.f64(self.spec.rho_min);
        e.usize(self.local_autonomy_periods);
        e.usize(self.degraded_events);
        e.bool(self.first_outage_period.is_some());
        e.usize(self.first_outage_period.unwrap_or(0));
        e.bool(self.last_enforced.is_some());
        let lp = self.last_enforced.unwrap_or(RadioPolicy { airtime: 0.0, max_mcs: 0 });
        e.f64(lp.airtime);
        e.u8(lp.max_mcs);
        e.usize(self.degraded_by_stage.len());
        for (stage, count) in &self.degraded_by_stage {
            e.str(stage);
            e.usize(*count);
        }
        e.usize(self.applied_log.len());
        for (t, p) in &self.applied_log {
            e.usize(*t);
            e.f64(p.airtime);
            e.u8(p.max_mcs);
        }
        e.bytes(&self.supervisor.export_state());
        match self.agent.save_state() {
            Some(bytes) => {
                e.bool(true);
                e.bytes(&bytes);
            }
            None => e.bool(false),
        }
        match self.env.save_state() {
            Some(bytes) => {
                e.bool(true);
                e.bytes(&bytes);
            }
            None => e.bool(false),
        }
        e.finish()
    }

    /// Restores state saved by [`Self::save_state`] onto a freshly
    /// constructed orchestrator with the same configuration. The run
    /// resumes at the checkpointed period: when neither the live run nor
    /// the restored one hit a GP eviction or an active fault, every
    /// subsequent period is bit-identical to the uninterrupted run.
    ///
    /// # Errors
    /// A typed [`edgebol_ckpt::CkptError`] on any malformed payload — no
    /// panics, no silent partial restore. On error the orchestrator may
    /// have partially absorbed agent or environment state and must be
    /// discarded (callers fall back to a cold start with a fresh
    /// instance).
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), edgebol_ckpt::CkptError> {
        use edgebol_ckpt::{CkptError, Dec};
        let mut d = Dec::new(bytes);
        let t = d.usize()?;
        let d_max = d.f64()?;
        let rho_min = d.f64()?;
        let local_autonomy_periods = d.usize()?;
        let degraded_events = d.usize()?;
        let has_outage = d.bool()?;
        let first_outage_period = {
            let v = d.usize()?;
            has_outage.then_some(v)
        };
        let last_enforced = {
            let has = d.bool()?;
            let p = RadioPolicy { airtime: d.f64()?, max_mcs: d.u8()? };
            has.then_some(p)
        };
        let n_stages = d.usize()?;
        let mut degraded_by_stage = BTreeMap::new();
        for _ in 0..n_stages {
            let name = d.str()?;
            let count = d.usize()?;
            let stage = intern_stage(&name)
                .ok_or_else(|| CkptError::BadValue(format!("unknown chain stage {name:?}")))?;
            degraded_by_stage.insert(stage, count);
        }
        let n_log = d.usize()?;
        let mut applied_log = Vec::new();
        for _ in 0..n_log {
            applied_log.push((d.usize()?, RadioPolicy { airtime: d.f64()?, max_mcs: d.u8()? }));
        }
        let supervisor_bytes = d.byte_vec()?;
        let agent_bytes = if d.bool()? { Some(d.byte_vec()?) } else { None };
        let env_bytes = if d.bool()? { Some(d.byte_vec()?) } else { None };
        d.expect_end()?;
        self.supervisor.import_state(&supervisor_bytes)?;
        if let Some(bytes) = agent_bytes {
            self.agent.load_state(&bytes)?;
        }
        if let Some(bytes) = env_bytes {
            self.env.load_state(&bytes)?;
        }
        self.t = t;
        self.spec.d_max = d_max;
        self.spec.rho_min = rho_min;
        self.local_autonomy_periods = local_autonomy_periods;
        self.degraded_events = degraded_events;
        self.first_outage_period = first_outage_period;
        self.last_enforced = last_enforced;
        self.degraded_by_stage = degraded_by_stage;
        self.applied_log = applied_log;
        self.enforced = None;
        Ok(())
    }

    fn note_degraded(&mut self, stage: &'static str) {
        self.degraded_events += 1;
        *self.degraded_by_stage.entry(stage).or_insert(0) += 1;
        self.metrics
            .registry
            .counter_with("edgebol_core_degraded_total", &[("stage", stage)])
            .inc();
    }

    /// Polls the E2 node and records every policy it applied, stamped
    /// with the running period. Every node poll goes through here. It
    /// records before it propagates the poll's error: a policy the node
    /// applied just before the link died is the one the outage runs under
    /// (see `on_session_lost`).
    fn poll_node(&mut self) -> Result<(), OranError> {
        let polled = self.node.poll();
        for p in self.node.take_applied() {
            self.enforced = Some(p);
            self.applied_log.push((self.t, p));
        }
        polled
    }

    /// Drives one policy document through rApp → A1 → xApp → E2 → node
    /// and back. Any hop may fail; the caller decides whether the error
    /// is absorbable.
    fn push_policy_through_chain(&mut self, policy: RadioPolicy) -> Result<(), OrchestratorError> {
        at("A1 put (rApp->xApp)", self.nonrt.put_policy(policy))?;
        at("near-RT poll (A1->E2)", self.nearrt.poll())?;
        at("node poll (apply+ack)", self.poll_node())?;
        at("near-RT poll (ack->A1)", self.nearrt.poll())?;
        // Feedback may legitimately be missing under fault injection (a
        // dropped ack or feedback frame); enforcement ground truth is what
        // the node applied, not this poll.
        let _events = at("non-RT poll (feedback)", self.nonrt.poll())?;
        Ok(())
    }

    /// Pushes the radio policies through A1/E2; returns the control as
    /// actually enforced by the node.
    ///
    /// Degraded mode: when a hop reports a recoverable error (corrupt or
    /// dropped message on a healthy link), or the round trip completes
    /// without fresh enforcement feedback, the E2 node keeps running its
    /// previous configuration — so the period proceeds under the **last
    /// enforced** policy. Before any policy was ever enforced, the
    /// requested one is applied locally with the same quantization the
    /// E2 `ControlRequest` wire format (`airtime_milli: u16`) would
    /// impose.
    ///
    /// # Errors
    /// [`OrchestratorError::ControlPlane`] when a hop reports a lost
    /// connection (not [`OranError::is_recoverable`]).
    fn deploy_radio_policy(
        &mut self,
        control: &ControlInput,
    ) -> Result<ControlInput, OrchestratorError> {
        let policy = radio_policy(control);
        let mut degraded_at: Option<&'static str> = None;
        match self.push_policy_through_chain(policy) {
            Ok(()) => {}
            Err(e) if e.is_recoverable() => degraded_at = Some(e.stage()),
            Err(e) => return Err(e),
        }
        // Drain this deployment's enforcement, if it reached the node.
        let fresh = self.enforced.take();
        if fresh.is_none() && degraded_at.is_none() {
            // The chain reported success yet nothing reached the node:
            // the policy was silently lost (a dropped/held frame rather
            // than a corrupted one). Still a degraded round trip.
            degraded_at = Some("radio deploy (silent loss)");
        }
        if let Some(stage) = degraded_at {
            // At most one degraded event per deployment round trip,
            // whatever combination of error and loss produced it.
            self.note_degraded(stage);
        }
        // Before anything was ever enforced, apply the E2 ControlRequest's
        // milli-unit quantization locally so the trace stays consistent
        // with what the chain would have delivered. (A1 itself round-trips
        // f64 airtime bit-exactly; the quantization happens at the E2
        // hop.) The degraded event is already counted above.
        let applied = fresh.or(self.last_enforced).unwrap_or_else(|| policy.quantized());
        self.last_enforced = Some(applied);
        Ok(in_force(control, applied))
    }

    /// Routes a BS power reading through the E2 indication path and back
    /// out of the data-collector rApp. Returns the power to use plus
    /// whether this period's sample arrived *fresh* through the chain
    /// (the KPI watchdog's input).
    ///
    /// Degraded mode: a recoverable control-plane error, or an
    /// indication that never surfaces as a KPI event, falls back to the
    /// locally measured `bs_power_w` (the sample the node would have
    /// reported). Stale KPI events left queued by an earlier degraded
    /// interaction are drained and ignored — only the sample stamped
    /// with this period's `t_ms` counts, so a dropped indication skews
    /// one period, not every period after it.
    ///
    /// # Errors
    /// [`OrchestratorError::ControlPlane`] when the link is lost.
    fn bs_power_via_kpi_path(
        &mut self,
        t_ms: u64,
        bs_power_w: f64,
    ) -> Result<(f64, bool), OrchestratorError> {
        let report = KpiReport {
            t_ms,
            bs_power_mw: (bs_power_w * 1000.0).round() as u64,
            duty_milli: 0,
            mean_mcs_centi: 0,
        };
        let roundtrip = (|| {
            at("E2 indicate (node->xApp)", self.node.indicate(report))?;
            at("near-RT poll (indication)", self.nearrt.poll())?;
            at("non-RT poll (kpi)", self.nonrt.poll())
        })();
        match roundtrip {
            Ok(events) => {
                for ev in events {
                    if let RicEvent::Kpi { t_ms: stamp, bs_power_w: w } = ev {
                        if stamp == t_ms {
                            return Ok((w, true));
                        }
                        // A leftover sample from a previous period's
                        // degraded interaction: drop it.
                        self.metrics.kpi_stale.inc();
                    }
                }
                // The round trip reported success but this period's
                // sample never surfaced (silently dropped or held
                // indication / KPI frame): degraded fallback to the
                // local reading.
                self.note_degraded("KPI path (silent loss)");
                Ok((bs_power_w, false))
            }
            Err(e) if e.is_recoverable() => {
                self.note_degraded(e.stage());
                Ok((bs_power_w, false))
            }
            Err(e) => Err(e),
        }
    }

    /// Attributes a session-fatal error to the link it killed: chaos
    /// cuts name their link in the `ChannelClosed` message; otherwise
    /// the failing stage decides (A1-only stages vs the rest).
    fn lost_link(stage: &'static str, source: &OranError) -> LinkId {
        if let OranError::ChannelClosed(msg) = source {
            if msg.contains("A1") {
                return LinkId::A1;
            }
            if msg.contains("E2") {
                return LinkId::E2;
            }
        }
        match stage {
            "A1 put (rApp->xApp)" | "non-RT poll (feedback)" | "non-RT poll (kpi)" => LinkId::A1,
            _ => LinkId::E2,
        }
    }

    /// Marks the current period as the start of the outage window (at
    /// most once per run) and journals the transition.
    fn note_outage_start(&mut self, cause: &'static str) {
        if self.first_outage_period.is_none() {
            self.first_outage_period = Some(self.t);
            self.journal_event("outage_start", vec![("cause", cause.to_string())]);
        }
    }

    /// Reports a session loss to the supervisor and reads what the node
    /// applied: the node may have applied this period's policy *before*
    /// the link died, in which case the outage runs under that policy,
    /// not the previous one.
    fn on_session_lost(&mut self, e: &OrchestratorError) {
        self.note_outage_start("session loss");
        if let OrchestratorError::ControlPlane { stage, source } = e {
            let link = Self::lost_link(stage, source);
            self.journal_event(
                "session_lost",
                vec![("stage", (*stage).to_string()), ("link", link.label().to_string())],
            );
            self.supervisor.on_connection_lost(link, self.t as u64);
        }
        if let Some(p) = self.enforced.take() {
            self.last_enforced = Some(p);
        }
    }

    /// One local-autonomy period: the agent's decision is served from
    /// the last enforced policy (the node keeps running its current
    /// configuration while the control plane is down); non-RAN knobs
    /// (resolution, GPU speed) apply locally as always.
    fn local_autonomy_control(&mut self, wanted: &ControlInput) -> ControlInput {
        self.note_outage_start("local autonomy");
        self.local_autonomy_periods += 1;
        self.metrics.local_autonomy.inc();
        // The same quantized bootstrap fallback as `deploy_radio_policy`.
        let applied = self.last_enforced.unwrap_or_else(|| radio_policy(wanted).quantized());
        self.last_enforced = Some(applied);
        in_force(wanted, applied)
    }

    /// Outage keepalive: one receive attempt per link, discarding
    /// whatever surfaces (it belongs to the dead session). This keeps
    /// the links' operation clocks ticking through the outage, so an
    /// op-denominated healing window (`heal=e2@M`) elapses even though
    /// no round trips run — one op per link per waited period,
    /// deterministically.
    fn tick_outage_links(&mut self) {
        let discarded = self.nearrt.probe_links();
        self.metrics.stale_frames.add(discarded as u64);
    }

    /// One resync attempt: drain-and-discard the dead session's frames
    /// across all three actors, re-run the KPI subscription handshake,
    /// and re-push the last acknowledged policy under the new session.
    /// Any failure (a link still down, a lost handshake frame) fails the
    /// attempt as a whole; the supervisor backs off and retries.
    ///
    /// # Errors
    /// The first [`OranError`] any resync step reports.
    fn try_resync(&mut self) -> Result<(), OranError> {
        // 1. Tear down session state and discard stale in-flight frames.
        let mut discarded = self.nearrt.reset_session()?;
        discarded += self.node.reset_session()?;
        discarded += self.nonrt.reset_session()?;
        self.metrics.stale_frames.add(discarded as u64);
        // 2. Re-handshake the KPI subscription (the node dropped its
        // subscription with the session).
        self.nearrt.subscribe_kpis(1_000)?;
        self.poll_node()?;
        self.nearrt.poll()?;
        if !self.node.is_subscribed() {
            return Err(OranError::Handshake(
                "resync: KPI re-subscription never reached the node".into(),
            ));
        }
        // 3. Re-push the last acknowledged policy so the node provably
        // runs it under the new session.
        if let Some(p) = self.last_enforced {
            self.nonrt.put_policy(p)?;
            self.nearrt.poll()?;
            self.poll_node()?;
            self.nearrt.poll()?;
            self.nonrt.poll()?;
            // The re-push is session bootstrap, not a period deployment:
            // forget it so the next deploy's freshness check is not
            // confused.
            self.enforced = None;
        }
        Ok(())
    }

    /// The supervised radio deployment: consults the supervisor, runs
    /// the normal deploy / a resync probe / local autonomy as directed,
    /// and returns the control in force plus whether the control plane
    /// was used this period (gates the KPI path).
    ///
    /// # Errors
    /// [`OrchestratorError::CircuitOpen`] when the retry budget is
    /// exhausted and fallback is disabled; a non-session error from the
    /// deploy itself.
    fn supervised_deploy(
        &mut self,
        wanted: &ControlInput,
    ) -> Result<(ControlInput, bool), OrchestratorError> {
        let now = self.t as u64;
        match self.supervisor.poll(now) {
            RecoveryAction::Proceed => self.deploy_or_fall_back(wanted),
            RecoveryAction::Wait => {
                self.tick_outage_links();
                Ok((self.local_autonomy_control(wanted), false))
            }
            RecoveryAction::Probe { .. } => match self.try_resync() {
                Ok(()) => {
                    self.supervisor.on_resync_ok(now);
                    self.deploy_or_fall_back(wanted)
                }
                Err(_) => {
                    self.supervisor.on_resync_failed(now);
                    Ok((self.local_autonomy_control(wanted), false))
                }
            },
            RecoveryAction::GiveUp { link, attempts } => {
                Err(OrchestratorError::CircuitOpen { link, attempts })
            }
        }
    }

    /// A connected-path deploy that absorbs a session-fatal failure into
    /// the supervisor + local autonomy instead of aborting the run.
    fn deploy_or_fall_back(
        &mut self,
        wanted: &ControlInput,
    ) -> Result<(ControlInput, bool), OrchestratorError> {
        match self.deploy_radio_policy(wanted) {
            Ok(c) => Ok((c, true)),
            Err(e) if e.is_session_fatal() => {
                self.on_session_lost(&e);
                Ok((self.local_autonomy_control(wanted), false))
            }
            Err(e) => Err(e),
        }
    }

    /// Runs one orchestration period.
    ///
    /// # Errors
    /// [`OrchestratorError::ControlPlane`] when the A1/E2 control plane
    /// loses a link mid-round-trip; recoverable message-level failures
    /// are absorbed by degraded mode (see the module docs).
    pub fn try_step(&mut self) -> Result<PeriodRecord, OrchestratorError> {
        let sw = self.metrics.registry.stopwatch();
        let r = self.step_inner();
        match &r {
            Ok(_) => self.metrics.periods.inc(),
            Err(e) => {
                self.journal_event(
                    "step_error",
                    vec![("stage", e.stage().to_string()), ("error", e.to_string())],
                );
                self.metrics
                    .registry
                    .counter_with(
                        "edgebol_core_control_plane_errors_total",
                        &[("stage", e.stage())],
                    )
                    .inc();
            }
        }
        sw.observe(&self.metrics.step_seconds);
        r
    }

    fn step_inner(&mut self) -> Result<PeriodRecord, OrchestratorError> {
        // Per-period stage span (sense → optimize → deploy → kpi →
        // learn). The Arc clone detaches the span's borrow from `self`
        // so the loop body can keep taking `&mut self`.
        let journal = self.journal.clone();
        let mut span = journal.as_deref().map(|j| j.span(self.t as u64));
        // Scheduled constraint changes (operator reconfiguration).
        for &(at_t, d_max, rho_min) in &self.schedule {
            if at_t == self.t {
                self.spec.d_max = d_max;
                self.spec.rho_min = rho_min;
                self.agent.set_constraints(d_max, rho_min);
                self.journal_event(
                    "constraint_change",
                    vec![("d_max", format!("{d_max}")), ("rho_min", format!("{rho_min}"))],
                );
            }
        }
        let ctx = self.env.observe_context();
        if let Some(s) = span.as_mut() {
            s.stage("sense");
        }
        let wanted = self.agent.select(&ctx);
        if let Some(s) = span.as_mut() {
            s.stage("optimize");
        }
        let (control, connected) = self.supervised_deploy(&wanted)?;
        if let Some(s) = span.as_mut() {
            s.stage("deploy");
        }
        let mut obs = self.env.step(&control);
        // BS power rides the E2 KPI path (mW quantization included) —
        // but only while a session is up; outage periods use the local
        // reading directly (the node could not have indicated anyway).
        if connected {
            match self.bs_power_via_kpi_path((self.t as u64) * 1000, obs.bs_power_w) {
                Ok((w, fresh)) => {
                    obs.bs_power_w = w;
                    if fresh {
                        self.supervisor.note_kpi_fresh();
                    } else if self.supervisor.note_kpi_silent(self.t as u64) {
                        // The KPI watchdog declared the E2 stream dead:
                        // the supervisor is now backing off toward a
                        // resync, and this period opens the outage.
                        self.note_outage_start("kpi watchdog");
                    }
                }
                Err(e) if e.is_session_fatal() => {
                    // The session died between deploy and indication:
                    // the local reading stands in, and the supervisor
                    // takes over from the next period.
                    self.on_session_lost(&e);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(s) = span.as_mut() {
            s.stage("kpi");
        }

        let cost = self.spec.cost(&obs);
        let satisfied = self.spec.satisfied(&obs);
        self.agent.update(&ctx, &control, &obs);
        let safe_set_size =
            if self.record_safe_set { self.agent.safe_set_size(&ctx) } else { None };
        let record =
            PeriodRecord { t: self.t, context: ctx, control, obs, cost, satisfied, safe_set_size };
        self.t += 1;
        if let Some(mut s) = span.take() {
            s.stage("learn");
            s.finish();
        }
        Ok(record)
    }

    /// Runs `periods` periods and returns the trace.
    ///
    /// # Errors
    /// The first [`OrchestratorError`] a period surfaces; records from
    /// completed periods are dropped with it (callers that need partial
    /// traces can loop [`Orchestrator::try_step`] themselves).
    pub fn try_run(&mut self, periods: usize) -> Result<Trace, OrchestratorError> {
        let mut trace = Trace::default();
        for _ in 0..periods {
            let r = self.try_step()?;
            trace.records.push(r);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::EdgeBolAgent;
    use edgebol_oran::{FallbackMode, LaneConfig};
    use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

    fn orch(seed: u64) -> Orchestrator {
        let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
        let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), seed);
        let agent = EdgeBolAgent::quick_for_tests(&spec, seed);
        Orchestrator::new(Box::new(env), Box::new(agent), spec).expect("in-process setup")
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically_to_the_live_run() {
        let mut live = orch(11);
        for _ in 0..15 {
            live.try_step().unwrap();
        }
        let snapshot = live.save_state();
        let mut restored = orch(11);
        restored.restore_state(&snapshot).unwrap();
        assert_eq!(restored.enforcement_log(), live.enforcement_log());
        assert_eq!(restored.last_enforced(), live.last_enforced());
        for p in 0..20 {
            let a = live.try_step().unwrap();
            let b = restored.try_step().unwrap();
            assert_eq!(a.t, b.t);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost diverged at {p}");
            assert_eq!(a.obs.delay_s.to_bits(), b.obs.delay_s.to_bits(), "delay at {p}");
            assert_eq!(a.control.airtime.to_bits(), b.control.airtime.to_bits(), "control at {p}");
        }
        assert_eq!(live.save_state(), restored.save_state(), "windows stay in lockstep");
    }

    #[test]
    fn corrupt_orchestrator_checkpoint_is_a_typed_error() {
        let mut live = orch(12);
        for _ in 0..10 {
            live.try_step().unwrap();
        }
        let snapshot = live.save_state();
        for cut in [0, 1, snapshot.len() / 2, snapshot.len() - 1] {
            let mut target = orch(12);
            target.restore_state(&snapshot[..cut]).expect_err("truncated must fail");
        }
        // An unknown stage name (format drift) is rejected, not silently
        // dropped: corrupt the first stage-map string if one exists —
        // otherwise just verify the full payload restores.
        let mut target = orch(12);
        target.restore_state(&snapshot).unwrap();
        assert_eq!(target.save_state(), snapshot, "restore → save is the identity");
    }

    #[test]
    fn orchestrator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Orchestrator>();
        assert_send::<OrchestratorError>();
    }

    #[test]
    fn reactor_transport_runs_the_same_loop() {
        let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
        let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 1);
        let agent = EdgeBolAgent::quick_for_tests(&spec, 1);
        let mut o = Orchestrator::new_with_transport(
            Box::new(env),
            Box::new(agent),
            spec,
            ChaosConfig::disabled(),
            Registry::disabled(),
            TransportKind::Reactor,
        )
        .expect("reactor setup");
        assert_eq!(o.transport(), TransportKind::Reactor);
        let trace = o.try_run(10).unwrap();
        assert_eq!(trace.len(), 10);
        assert_eq!(o.degraded_events(), 0, "loopback reactor links drop nothing");
    }

    #[test]
    fn runs_periods_and_records() {
        let mut o = orch(1);
        let trace = o.try_run(10).unwrap();
        assert_eq!(trace.len(), 10);
        for (i, r) in trace.records.iter().enumerate() {
            assert_eq!(r.t, i);
            assert!(r.cost > 0.0);
            assert!(r.obs.delay_s > 0.0);
            assert_eq!(r.cost, o.spec().cost(&r.obs));
        }
        // The in-process control plane never drops a message.
        assert_eq!(o.degraded_events(), 0);
    }

    #[test]
    fn radio_policy_quantization_survives_the_chain() {
        // Whatever the agent asks, the enforced airtime is a multiple of
        // 1/1000 (the E2 ControlRequest carries milli-units).
        let mut o = orch(2);
        let trace = o.try_run(5).unwrap();
        for r in &trace.records {
            let milli = r.control.airtime * 1000.0;
            assert!((milli - milli.round()).abs() < 1e-9, "airtime {}", r.control.airtime);
        }
    }

    #[test]
    fn constraint_schedule_fires() {
        let mut o = orch(3).with_constraint_schedule(vec![(3, 0.3, 0.6)]);
        let _ = o.try_run(3).unwrap();
        assert_eq!(o.spec().d_max, 0.5);
        let _ = o.try_run(1).unwrap();
        assert_eq!(o.spec().d_max, 0.3);
        assert_eq!(o.spec().rho_min, 0.6);
    }

    #[test]
    fn safe_set_recording_is_optional_and_works() {
        let mut o = orch(4);
        o.record_safe_set = true;
        let trace = o.try_run(8).unwrap();
        assert!(trace.records.iter().all(|r| r.safe_set_size.is_some()));
        // During warm-up the estimate equals |S_0| = 1 (the max-resources
        // corner is the a-priori safe set).
        assert_eq!(trace.records[0].safe_set_size, Some(1));
    }

    #[test]
    fn learning_reduces_cost_over_time() {
        let mut o = orch(5);
        let trace = o.try_run(60).unwrap();
        let early: f64 = trace.costs()[..6].iter().sum::<f64>() / 6.0;
        let late = trace.tail_mean_cost(10);
        assert!(
            late < early,
            "cost should fall as EdgeBOL learns: early {early:.1} late {late:.1}"
        );
        // And the service constraints hold most of the time after warmup.
        assert!(trace.satisfaction_rate(10) > 0.7, "{}", trace.satisfaction_rate(10));
    }

    #[test]
    fn fault_free_runs_have_an_empty_ledger_and_consistent_log() {
        let mut o = orch(6);
        let trace = o.try_run(8).unwrap();
        assert!(o.fault_ledger().is_empty());
        assert_eq!(o.degraded_events(), 0);
        assert!(o.degraded_by_stage().is_empty());
        // One enforcement per period, and the trace reflects each one.
        let log = o.enforcement_log();
        assert_eq!(log.len(), trace.len());
        for (r, (t, p)) in trace.records.iter().zip(&log) {
            assert_eq!(r.t, *t);
            assert_eq!(r.control.airtime, p.airtime);
            assert_eq!(r.control.mcs_cap.index() as u8, p.max_mcs);
        }
        assert_eq!(o.last_enforced(), log.last().map(|&(_, p)| p));
    }

    #[test]
    fn chaotic_runs_count_exactly_the_degrading_faults() {
        use edgebol_oran::ChaosConfig;
        let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
        let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 7);
        let agent = EdgeBolAgent::quick_for_tests(&spec, 7);
        let mut o = Orchestrator::new_with_transport(
            Box::new(env),
            Box::new(agent),
            spec,
            ChaosConfig::drop_corrupt(7, 0.2),
            Registry::disabled(),
            TransportKind::Poll,
        )
        .expect("in-process setup");
        let trace = o.try_run(25).expect("drop/corrupt faults are all recoverable");
        assert_eq!(trace.len(), 25);
        let ledger = o.fault_ledger();
        assert!(!ledger.is_empty(), "0.2 rates over 25 periods must inject");
        // Drop+corrupt schedules cannot mask one another, so accounting
        // is exact: one degraded event per degrading fault.
        assert_eq!(o.degraded_events(), ledger.degrading_count());
        assert_eq!(o.degraded_by_stage().values().sum::<usize>(), o.degraded_events());
        // The policy in force is always the last one the node applied
        // (or the quantized bootstrap fallback before any application).
        assert_eq!(
            o.last_enforced().map(|p| p.max_mcs),
            o.enforcement_log()
                .last()
                .map(|&(_, p)| p.max_mcs)
                .or(o.last_enforced().map(|p| p.max_mcs))
        );
    }

    fn chaos_orch(seed: u64, chaos: ChaosConfig) -> Orchestrator {
        let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
        let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), seed);
        let agent = EdgeBolAgent::quick_for_tests(&spec, seed);
        Orchestrator::new_with_transport(
            Box::new(env),
            Box::new(agent),
            spec,
            chaos,
            Registry::disabled(),
            TransportKind::Poll,
        )
        .expect("in-process setup")
    }

    #[test]
    fn healed_cut_resyncs_and_matches_the_fault_free_prefix() {
        let seed = 11;
        let mut clean = orch(seed);
        let reference = clean.try_run(60).unwrap();

        let chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 40).with_heal(25);
        let mut o = chaos_orch(seed, chaos);
        let trace = o.try_run(60).expect("a healed cut must not abort the run");
        assert_eq!(trace.len(), 60);

        assert!(o.reconnects_ok() >= 1, "the supervisor must resync at least once");
        assert!(o.session_epoch() >= 1, "a resync bumps the session epoch");
        assert_eq!(
            o.circuit_state(),
            CircuitState::Connected,
            "healed: back on the connected path"
        );
        let outage = o.first_outage_period().expect("the cut must have opened an outage");
        assert!(o.local_autonomy_periods() > 0);
        // Before the outage the two runs are bit-identical — the
        // supervisor is pure bookkeeping until a session dies.
        for (a, b) in reference.records[..outage].iter().zip(&trace.records[..outage]) {
            assert_eq!(a.control.airtime.to_bits(), b.control.airtime.to_bits(), "t={}", a.t);
            assert_eq!(a.obs.bs_power_w.to_bits(), b.obs.bs_power_w.to_bits(), "t={}", a.t);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "t={}", a.t);
        }
    }

    #[test]
    fn unhealed_cut_with_sticky_fallback_survives_in_local_autonomy() {
        let chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 40);
        let mut o = chaos_orch(12, chaos);
        let trace = o.try_run(80).expect("sticky fallback never aborts the run");
        assert_eq!(trace.len(), 80);
        assert_eq!(o.reconnects_ok(), 0, "the cut never heals");
        assert!(
            o.reconnects_failed() >= u64::from(RecoveryPolicy::default().max_retries),
            "the full retry budget is spent: {} failed",
            o.reconnects_failed()
        );
        assert!(matches!(o.circuit_state(), CircuitState::Open { .. }), "{:?}", o.circuit_state());
        assert!(o.local_autonomy_periods() > 0);
        // The run keeps producing coherent records on the last enforced
        // policy (or quantized fallback) all the way through.
        for r in &trace.records {
            assert!(r.cost > 0.0);
        }
    }

    #[test]
    fn unhealed_cut_with_fallback_off_fails_fast_with_circuit_open() {
        let chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 40);
        let mut o = chaos_orch(13, chaos)
            .with_recovery(RecoveryPolicy::default().with_fallback(FallbackMode::Off));
        let mut last = None;
        for _ in 0..200 {
            match o.try_step() {
                Ok(_) => {}
                Err(e) => {
                    last = Some(e);
                    break;
                }
            }
        }
        let e = last.expect("fallback off must surface the open circuit within 200 periods");
        match e {
            OrchestratorError::CircuitOpen { link, attempts } => {
                assert_eq!(link, LinkId::E2);
                assert_eq!(attempts, RecoveryPolicy::default().max_retries);
            }
            other => panic!("expected CircuitOpen, got {other}"),
        }
        assert!(!e.is_recoverable());
        assert!(!e.is_session_fatal());
        assert_eq!(e.stage(), "reconnect supervisor");
        // And the verdict is stable: every further step reports it too.
        assert!(matches!(o.try_step(), Err(OrchestratorError::CircuitOpen { .. })));
    }

    #[test]
    fn kpi_watchdog_trips_on_a_silently_dead_e2_stream() {
        // Drop every frame the xApp receives over E2: deployments degrade
        // (no ack) and no KPI sample ever arrives fresh, yet no transport
        // error surfaces — exactly the blind spot the watchdog covers.
        let chaos = ChaosConfig {
            e2_rx: LaneConfig { drop: 1.0, ..LaneConfig::off() },
            ..ChaosConfig::disabled()
        };
        let mut o = chaos_orch(14, chaos).with_recovery(RecoveryPolicy::default().with_watchdog(3));
        let trace = o.try_run(30).expect("a tripped watchdog recovers via the supervisor");
        assert_eq!(trace.len(), 30);
        assert!(o.watchdog_trips() >= 1, "3 silent periods must trip the watchdog");
        assert!(o.first_outage_period().is_some());

        // Without the watchdog the same schedule never involves the
        // supervisor: silence is absorbed as per-period degraded events.
        let chaos = ChaosConfig {
            e2_rx: LaneConfig { drop: 1.0, ..LaneConfig::off() },
            ..ChaosConfig::disabled()
        };
        let mut o = chaos_orch(14, chaos);
        let _ = o.try_run(30).unwrap();
        assert_eq!(o.watchdog_trips(), 0);
        assert_eq!(o.first_outage_period(), None);
    }

    #[test]
    fn journal_captures_the_whole_outage_narrative_across_layers() {
        use edgebol_trace::{Journal, Layer};
        let journal = std::sync::Arc::new(Journal::with_capacity(4096));
        let chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 10).with_heal(25);
        let mut o = chaos_orch(11, chaos).with_journal(journal.clone());
        let trace = o.try_run(40).expect("a healed cut must not abort the run");
        assert_eq!(trace.len(), 40);
        assert!(o.reconnects_ok() >= 1);

        let events = journal.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        // One period_span per period, in period order, with stage fields.
        let spans: Vec<_> = events.iter().filter(|e| e.kind == "period_span").collect();
        assert_eq!(spans.len(), 40, "one span per period: {kinds:?}");
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.period, Some(i as u64));
            assert_eq!(s.layer, Layer::Orchestrator);
            let keys: Vec<&str> = s.fields.iter().map(|(k, _)| *k).collect();
            assert!(keys.contains(&"sense") && keys.contains(&"deploy"), "{keys:?}");
        }
        // The outage narrative: chaos cut → session lost → recovery
        // backoff → resync — each from its own layer, in causal order.
        let pos = |k: &str| kinds.iter().position(|x| *x == k);
        let fault = pos("fault").expect("chaos layer must journal the cut");
        let lost = pos("session_lost").expect("orchestrator must journal the loss");
        let outage = pos("outage_start").expect("outage window start must be journaled");
        let conn_lost = pos("connection_lost").expect("supervisor must journal the loss");
        let resync = pos("resync_ok").expect("supervisor must journal the heal");
        assert!(fault < lost && lost <= conn_lost && conn_lost < resync);
        assert!(outage <= conn_lost);
        assert_eq!(events[fault].layer, Layer::Chaos, "fault events carry the chaos layer tag");
        assert_eq!(events[conn_lost].layer, Layer::Recovery);
        // Journal attachment must not perturb the episode: same trace
        // as an identically seeded run without a journal.
        let chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 10).with_heal(25);
        let mut bare = chaos_orch(11, chaos);
        let reference = bare.try_run(40).unwrap();
        for (a, b) in reference.records.iter().zip(&trace.records) {
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "t={}", a.t);
        }
    }

    #[test]
    fn fallback_off_journals_the_fatal_step_error() {
        use edgebol_trace::Journal;
        let journal = std::sync::Arc::new(Journal::with_capacity(4096));
        let chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 10);
        let mut o = chaos_orch(13, chaos)
            .with_recovery(RecoveryPolicy::default().with_fallback(FallbackMode::Off))
            .with_journal(journal.clone());
        let mut failed = false;
        for _ in 0..200 {
            if o.try_step().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "fallback off must surface the open circuit");
        let events = journal.snapshot();
        let err = events
            .iter()
            .find(|e| e.kind == "step_error")
            .expect("the fatal step must be journaled");
        assert_eq!(err.period.map(|p| p as usize), o.first_outage_period().map(|_| o.t));
        assert!(err.fields.iter().any(|(k, v)| *k == "stage" && v == "reconnect supervisor"));
        assert!(events.iter().any(|e| e.kind == "circuit_open"), "supervisor journals the latch");
    }

    #[test]
    fn error_display_names_the_stage() {
        let e = OrchestratorError::ControlPlane {
            stage: "A1 put (rApp->xApp)",
            source: edgebol_oran::OranError::ChannelClosed("a1"),
        };
        assert!(e.to_string().contains("A1 put"));
        assert!(!e.is_recoverable());
        let e = OrchestratorError::ControlPlane {
            stage: "non-RT poll (kpi)",
            source: edgebol_oran::OranError::Codec("bad json".into()),
        };
        assert!(e.is_recoverable());
        assert!(std::error::Error::source(&e).is_some());
    }
}
