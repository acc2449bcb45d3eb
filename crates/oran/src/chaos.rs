//! Deterministic fault injection for the O-RAN control plane.
//!
//! The ROADMAP's fault-injection item: the typed error layer
//! ([`OranError`], the orchestrator's degraded mode) must be exercised by
//! *injected* faults, not only hand-built unit cases. This module is the
//! injector: a decorator over the message path that can **drop**,
//! **duplicate**, **corrupt** (bit-flip or truncate), **delay** and
//! **reorder** A1/E2 frames according to a seeded schedule, plus a
//! scheduled **link cut** that turns every later operation into
//! [`OranError::ChannelClosed`].
//!
//! * [`ChaosPlan`] — a seeded fault schedule built from a [`ChaosConfig`]
//!   (per-link, per-direction [`LaneConfig`] rates with optional burst
//!   windows). One plan wraps any number of transports and collects every
//!   injected fault into one shared [`FaultLedger`].
//! * [`ChaosEndpoint`] — the decorator over any [`Link`] (the
//!   in-process [`Endpoint`] or a reactor-managed TCP session),
//!   implementing the same [`Link`] contract the RIC actors are generic
//!   over.
//!
//! # Determinism
//!
//! Every lane (link × direction) owns an RNG seeded from the plan seed
//! and the lane identity, and draws **exactly one** uniform variate per
//! frame (plus extra draws only when a corruption is materialized), so a
//! given `(seed, traffic)` pair always produces the same fault schedule,
//! the same ledger and the same surviving byte stream. Lanes are
//! domain-separated: traffic volume on one link never shifts another
//! link's schedule. With all rates zero the decorator is transparent —
//! the delivered bytes are identical to an unwrapped run.
//!
//! # Fault semantics
//!
//! At most one fault is injected per frame, and injected artifacts
//! (duplicate copies, delayed or reordered frames being re-delivered)
//! are never faulted again — no recursive fault stacking. Corruptions
//! are *guaranteed invalid*: a bit-flip targets the E2 tag byte (unknown
//! tag) or plants an `0xFF` byte in A1 JSON (invalid UTF-8), and a
//! truncation shortens the frame so the decoder must report
//! [`OranError::Codec`]/[`OranError::Framing`] rather than misparse.
//! Reordering applies only on receive lanes (where a successor frame to
//! swap with is observable); a reorder decision with nothing queued
//! behind it injects nothing and records nothing.
//!
//! [`FaultRecord::is_degrading`] classifies each injected fault by
//! whether the orchestrator's round trip that hit it must fall back to
//! degraded mode (see `edgebol-core`); [`FaultLedger::degrading_count`]
//! is what the end-to-end suite compares against
//! `Orchestrator::degraded_events`.

use crate::a1::A1Message;
use crate::e2::{tag, E2Codec};
use crate::transport::{Endpoint, Link};
use crate::OranError;
use edgebol_metrics::{Counter, Registry};
use edgebol_trace::{Journal, Layer};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Which control-plane link a decorated transport carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// The A1 link (non-RT RIC ⇄ near-RT RIC, JSON frames).
    A1,
    /// The E2 link (near-RT RIC ⇄ O-eNB, binary frames).
    E2,
}

impl LinkId {
    /// Stable label used as the `link` metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            LinkId::A1 => "A1",
            LinkId::E2 => "E2",
        }
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Direction of an operation relative to the wrapped endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `send` — traffic leaving the wrapped side.
    Tx,
    /// `try_recv` — traffic arriving at the wrapped side.
    Rx,
}

/// The fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The frame is discarded.
    Drop,
    /// The frame is delivered twice.
    Duplicate,
    /// One byte is mangled so the frame cannot decode (E2: unknown tag;
    /// A1: invalid UTF-8).
    CorruptBitFlip,
    /// The frame is shortened so decoding must fail (length header kept
    /// consistent, so the damage stays confined to this frame).
    CorruptTruncate,
    /// The frame is held for [`LaneConfig::delay_ops`] lane operations
    /// and then delivered.
    Delay,
    /// The frame swaps places with its successor (receive lanes only).
    Reorder,
    /// The link dies: this and every later operation returns
    /// [`OranError::ChannelClosed`] — until the cut heals, if a healing
    /// window was scheduled (see [`ChaosConfig::heal`]).
    LinkCut,
}

impl FaultKind {
    /// Stable snake_case label used as the `kind` metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::CorruptBitFlip => "corrupt_bit_flip",
            FaultKind::CorruptTruncate => "corrupt_truncate",
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
            FaultKind::LinkCut => "link_cut",
        }
    }
}

/// Protocol-level class of a faulted frame, recorded so tests (and the
/// orchestrator's accounting) can reason about a fault's blast radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    A1PutPolicy,
    A1DeletePolicy,
    A1Feedback,
    A1KpiSample,
    E2SubscriptionRequest,
    E2SubscriptionResponse,
    E2Indication,
    E2ControlRequest,
    E2ControlAck,
    /// Unclassifiable payload (or a link-cut record).
    Unknown,
}

/// Classifies a wire frame without consuming it.
pub fn classify(link: LinkId, payload: &[u8]) -> MsgClass {
    match link {
        LinkId::A1 => match A1Message::peek_kind(payload) {
            Some("PutPolicy") => MsgClass::A1PutPolicy,
            Some("DeletePolicy") => MsgClass::A1DeletePolicy,
            Some("Feedback") => MsgClass::A1Feedback,
            Some("KpiSample") => MsgClass::A1KpiSample,
            _ => MsgClass::Unknown,
        },
        LinkId::E2 => match E2Codec::peek_tag(payload) {
            Some(tag::SUB_REQ) => MsgClass::E2SubscriptionRequest,
            Some(tag::SUB_RESP) => MsgClass::E2SubscriptionResponse,
            Some(tag::INDICATION) => MsgClass::E2Indication,
            Some(tag::CONTROL_REQ) => MsgClass::E2ControlRequest,
            Some(tag::CONTROL_ACK) => MsgClass::E2ControlAck,
            _ => MsgClass::Unknown,
        },
    }
}

/// Per-direction fault rates for one lane (link × direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneConfig {
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is duplicated.
    pub duplicate: f64,
    /// Probability a frame is corrupted (bit-flip or truncation, chosen
    /// 50/50 when the fault fires).
    pub corrupt: f64,
    /// Probability a frame is delayed by [`LaneConfig::delay_ops`] lane
    /// operations.
    pub delay: f64,
    /// Probability a frame swaps places with its successor (receive
    /// lanes only; transmit lanes ignore this rate).
    pub reorder: f64,
    /// How many lane operations a delayed frame is held for.
    pub delay_ops: u64,
    /// Burst window period in lane operations (`0` disables bursts).
    pub burst_every: u64,
    /// Burst window length in lane operations.
    pub burst_len: u64,
    /// Rate multiplier inside a burst window.
    pub burst_mult: f64,
}

impl LaneConfig {
    /// No faults on this lane.
    pub const fn off() -> Self {
        LaneConfig {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            reorder: 0.0,
            delay_ops: 3,
            burst_every: 0,
            burst_len: 0,
            burst_mult: 1.0,
        }
    }

    /// Drop + corrupt at `rate` each — the unambiguous degrading kinds,
    /// used by the exact-accounting chaos suite (no fault masking: no
    /// mechanism ever re-creates a copy of a lost frame).
    pub fn drop_corrupt(rate: f64) -> Self {
        LaneConfig { drop: rate, corrupt: rate, ..LaneConfig::off() }
    }

    /// Every message-level fault kind at `rate` each.
    pub fn all_kinds(rate: f64) -> Self {
        LaneConfig {
            drop: rate,
            duplicate: rate,
            corrupt: rate,
            delay: rate,
            reorder: rate,
            ..LaneConfig::off()
        }
    }

    /// Whether this lane can ever inject anything.
    pub fn is_off(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.reorder == 0.0
    }

    /// The burst-window rate multiplier in force at lane operation `op`.
    fn mult_at(&self, op: u64) -> f64 {
        if self.burst_every == 0 {
            1.0
        } else if op % self.burst_every < self.burst_len {
            self.burst_mult
        } else {
            1.0
        }
    }
}

/// The full chaos configuration: a seed, four lanes (A1/E2 × Tx/Rx,
/// directions relative to the wrapped side) and an optional scheduled
/// link cut.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed; lane RNGs are domain-separated from it.
    pub seed: u64,
    pub a1_tx: LaneConfig,
    pub a1_rx: LaneConfig,
    pub e2_tx: LaneConfig,
    pub e2_rx: LaneConfig,
    /// Kill the given link after this many post-arm operations on it.
    pub cut: Option<(LinkId, u64)>,
    /// Heal the cut this many operations after it fired: operations in
    /// `[cut_at, cut_at + heal)` fail with `ChannelClosed`, later ones
    /// pass again. `None` leaves the cut permanent. Meaningless without
    /// [`ChaosConfig::cut`] (and rejected by [`ChaosConfig::from_spec`]).
    pub heal: Option<u64>,
}

impl ChaosConfig {
    /// No faults anywhere; wrapping with this config is transparent.
    pub fn disabled() -> Self {
        ChaosConfig {
            seed: 0,
            a1_tx: LaneConfig::off(),
            a1_rx: LaneConfig::off(),
            e2_tx: LaneConfig::off(),
            e2_rx: LaneConfig::off(),
            cut: None,
            heal: None,
        }
    }

    /// The same lane config on all four lanes.
    pub fn uniform(seed: u64, lane: LaneConfig) -> Self {
        ChaosConfig {
            seed,
            a1_tx: lane,
            a1_rx: lane,
            e2_tx: lane,
            e2_rx: lane,
            cut: None,
            heal: None,
        }
    }

    /// Drop + corrupt everywhere at `rate` (exact-accounting suite).
    pub fn drop_corrupt(seed: u64, rate: f64) -> Self {
        Self::uniform(seed, LaneConfig::drop_corrupt(rate))
    }

    /// Every fault kind everywhere at `rate` (robustness suite).
    pub fn all_kinds(seed: u64, rate: f64) -> Self {
        Self::uniform(seed, LaneConfig::all_kinds(rate))
    }

    /// Adds a scheduled link cut.
    pub fn with_cut(mut self, link: LinkId, after_ops: u64) -> Self {
        self.cut = Some((link, after_ops));
        self
    }

    /// Schedules the cut to heal `after_ops` operations after it fires
    /// (see [`ChaosConfig::heal`]); call on top of
    /// [`ChaosConfig::with_cut`].
    ///
    /// # Panics
    /// Panics when no cut is scheduled or `after_ops` is zero — the spec
    /// parser rejects both with proper errors; the builder asserts.
    pub fn with_heal(mut self, after_ops: u64) -> Self {
        assert!(self.cut.is_some(), "with_heal requires a scheduled cut");
        assert!(after_ops > 0, "heal window must be positive");
        self.heal = Some(after_ops);
        self
    }

    /// Whether any lane (or the cut schedule) can inject anything.
    pub fn enabled(&self) -> bool {
        !(self.a1_tx.is_off()
            && self.a1_rx.is_off()
            && self.e2_tx.is_off()
            && self.e2_rx.is_off()
            && self.cut.is_none())
    }

    /// The same config under a different seed stream (multi-seed
    /// experiment runners mix the repetition seed in with this).
    pub fn reseeded(&self, salt: u64) -> Self {
        let mut c = self.clone();
        c.seed = splitmix(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        c
    }

    /// Parses the `EDGEBOL_CHAOS` knob: comma-separated `key=value`
    /// pairs, applied uniformly to all four lanes.
    ///
    /// Keys: `seed`, `rate` (shorthand for `drop` + `corrupt`), `drop`,
    /// `dup`, `corrupt`, `delay`, `reorder`, `delay_ops`, `burst_every`,
    /// `burst_len`, `burst_mult`, `cut=a1@N` / `cut=e2@N`, and
    /// `heal=a1@M` / `heal=e2@M` (the cut clears `M` operations after it
    /// fires; requires a matching `cut` on the same link and `M > 0`).
    ///
    /// # Errors
    /// A human-readable message naming the offending pair.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut seed = 1u64;
        let mut lane = LaneConfig::off();
        let mut cut = None;
        let mut heal = None;
        let parse_link_at = |key: &'static str, value: &str| -> Result<(LinkId, u64), String> {
            let (link, at) = value
                .split_once('@')
                .ok_or_else(|| format!("{key}: expected a1@N or e2@N, got {value:?}"))?;
            let link = match link {
                "a1" | "A1" => LinkId::A1,
                "e2" | "E2" => LinkId::E2,
                other => return Err(format!("{key}: unknown link {other:?}")),
            };
            let at = at.parse::<u64>().map_err(|_| format!("{key}: not an op count: {at:?}"))?;
            Ok((link, at))
        };
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                pair.split_once('=').ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            let fval =
                || value.parse::<f64>().map_err(|_| format!("{key}: not a number: {value:?}"));
            let uval =
                || value.parse::<u64>().map_err(|_| format!("{key}: not an integer: {value:?}"));
            match key {
                "seed" => seed = uval()?,
                "rate" => {
                    let r = fval()?;
                    lane.drop = r;
                    lane.corrupt = r;
                }
                "drop" => lane.drop = fval()?,
                "dup" | "duplicate" => lane.duplicate = fval()?,
                "corrupt" => lane.corrupt = fval()?,
                "delay" => lane.delay = fval()?,
                "reorder" => lane.reorder = fval()?,
                "delay_ops" => lane.delay_ops = uval()?,
                "burst_every" => lane.burst_every = uval()?,
                "burst_len" => lane.burst_len = uval()?,
                "burst_mult" => lane.burst_mult = fval()?,
                "cut" => cut = Some(parse_link_at("cut", value)?),
                "heal" => heal = Some(parse_link_at("heal", value)?),
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        let heal = match (cut, heal) {
            (_, None) => None,
            (None, Some(_)) => {
                return Err("heal: requires a matching cut=<link>@N".into());
            }
            (Some((cut_link, _)), Some((heal_link, _))) if cut_link != heal_link => {
                return Err(format!(
                    "heal: link {heal_link} does not match the cut link {cut_link}"
                ));
            }
            (Some(_), Some((_, 0))) => {
                return Err("heal: window must be positive (got 0)".into());
            }
            (Some(_), Some((_, after))) => Some(after),
        };
        let mut cfg = ChaosConfig::uniform(seed, lane);
        cfg.cut = cut;
        cfg.heal = heal;
        Ok(cfg)
    }
}

/// One injected fault, exactly as it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Ledger sequence number (injection order across all lanes).
    pub seq: u64,
    /// Which link the fault hit.
    pub link: LinkId,
    /// Which direction of that link.
    pub direction: Direction,
    /// What was injected.
    pub kind: FaultKind,
    /// Protocol class of the victim frame.
    pub msg: MsgClass,
    /// The lane operation index at injection time.
    pub op: u64,
    /// Human-readable specifics ("held until op 12", "byte 7 -> 0xFF").
    pub detail: String,
    /// For [`FaultKind::LinkCut`]: whether a healing window is scheduled
    /// (the link comes back, so the outage is survivable). Always `false`
    /// for other kinds.
    pub heals: bool,
}

impl FaultRecord {
    /// Whether the orchestrator round trip that hit this fault must fall
    /// back to degraded mode (reuse the last enforced policy / the local
    /// power reading).
    ///
    /// * Corruptions always degrade: the poll that meets the mangled
    ///   frame reports a recoverable [`OranError`] and the round trip is
    ///   absorbed by degraded mode.
    /// * Drops and delays degrade exactly when the victim carries the
    ///   round trip's *forward* payload — a `PutPolicy`/`ControlRequest`
    ///   (the policy never reaches the node this period) or an
    ///   `Indication`/`KpiSample` (the power sample never surfaces).
    ///   Losing a `ControlAck` or `Feedback` does **not** degrade: the
    ///   node already applied the policy, and the orchestrator reads the
    ///   enforcement from the node itself.
    /// * Duplicates and reorders are absorbed by the protocol (stale
    ///   acks are ignored, stale KPI stamps are dropped) and never
    ///   degrade on their own.
    /// * A *healing* link cut (see [`ChaosConfig::heal`]) degrades: the
    ///   reconnect supervisor rides the outage in local-autonomy mode,
    ///   so periods ran on fallback state. The single ledgered record
    ///   marks the whole outage; the per-period cost is counted
    ///   separately by the orchestrator's `local_autonomy_periods`.
    ///   An unhealed cut stays non-degrading — it is fatal (or latches
    ///   the circuit open), surfacing as an `OrchestratorError` or a
    ///   permanent fallback instead of a bounded degraded episode.
    ///
    /// Caveat (why the exact-accounting suite uses drop+corrupt only):
    /// a delayed or duplicated frame re-delivered in a *later* period
    /// can mask that period's own loss (the node still hears *a*
    /// policy), so under mixed schedules `degrading_count` is an upper
    /// bound on degraded events, with equality when no masking kind is
    /// enabled on the same lane as a loss kind.
    pub fn is_degrading(&self) -> bool {
        match self.kind {
            FaultKind::CorruptBitFlip | FaultKind::CorruptTruncate => true,
            FaultKind::Drop | FaultKind::Delay => matches!(
                self.msg,
                MsgClass::A1PutPolicy
                    | MsgClass::E2ControlRequest
                    | MsgClass::E2Indication
                    | MsgClass::A1KpiSample
            ),
            FaultKind::LinkCut => self.heals,
            FaultKind::Duplicate | FaultKind::Reorder => false,
        }
    }
}

/// Append-only record of every injected fault, shared by all transports
/// wrapped by one [`ChaosPlan`]. Cloning shares the underlying ledger.
///
/// An *instrumented* ledger (see [`FaultLedger::instrumented`]) also
/// increments `edgebol_oran_faults_total{kind,link}` live on every push
/// — deliberately a second code path next to the record vector, so the
/// metrics test's counter ≡ ledger invariant is a genuine cross-check
/// rather than a tautology.
#[derive(Debug, Clone, Default)]
pub struct FaultLedger {
    inner: Arc<Mutex<Vec<FaultRecord>>>,
    metrics: Registry,
    /// Optional event journal; shared across clones and set at most
    /// once (see [`FaultLedger::set_journal`]).
    journal: Arc<OnceLock<Arc<Journal>>>,
}

impl FaultLedger {
    /// A ledger that mirrors every push into `metrics` as
    /// `edgebol_oran_faults_total{kind,link}` counters.
    pub fn instrumented(metrics: Registry) -> Self {
        metrics.describe("edgebol_oran_faults_total", "Chaos faults injected, by kind and link");
        FaultLedger { inner: Arc::default(), metrics, journal: Arc::default() }
    }

    /// Attaches an event journal: every injected fault is recorded
    /// under [`Layer::Chaos`] in addition to the ledger entry. Shared
    /// by every clone of this ledger; the first call wins.
    pub fn set_journal(&self, journal: Arc<Journal>) {
        let _ = self.journal.set(journal);
    }

    /// Append `record`, overwriting its `seq` with the next ledger index.
    fn push(&self, mut record: FaultRecord) {
        self.metrics
            .counter_with(
                "edgebol_oran_faults_total",
                &[("kind", record.kind.label()), ("link", record.link.label())],
            )
            .inc();
        if let Some(j) = self.journal.get() {
            j.record(
                Layer::Chaos,
                "fault",
                None,
                vec![
                    ("kind", record.kind.label().to_string()),
                    ("link", record.link.label().to_string()),
                    ("msg", format!("{:?}", record.msg)),
                    ("op", record.op.to_string()),
                    ("detail", record.detail.clone()),
                    ("heals", record.heals.to_string()),
                ],
            );
        }
        let mut v = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        record.seq = v.len() as u64;
        v.push(record);
    }

    /// A snapshot of every record, in injection order.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of injected faults so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records of one kind.
    pub fn count_kind(&self, kind: FaultKind) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|r| r.kind == kind)
            .count()
    }

    /// Number of recoverable injected faults that force a degraded-mode
    /// fallback — see [`FaultRecord::is_degrading`].
    pub fn degrading_count(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|r| r.is_degrading())
            .count()
    }
}

/// SplitMix64 finalizer for seed derivation.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-lane seed, domain-separated by link and direction
/// so no lane's traffic shifts another lane's schedule.
fn lane_seed(seed: u64, link: LinkId, dir: Direction) -> u64 {
    let link_tag = match link {
        LinkId::A1 => 0x0A1,
        LinkId::E2 => 0x0E2,
    };
    let dir_tag = match dir {
        Direction::Tx => 0x7,
        Direction::Rx => 0xB,
    };
    splitmix(seed ^ (link_tag << 32) ^ (dir_tag << 48))
}

/// Mangles `payload` so it is guaranteed not to decode, preserving the
/// framing of the *stream* (an E2 truncation rewrites the length header
/// so the damage is confined to this frame). `flip` chooses bit-flip vs
/// truncation; `pos` seeds the mutation position. Returns the mangled
/// bytes, the materialized kind (tiny frames force a bit-flip) and a
/// description. Exposed so the codec property tests can assert the
/// always-invalid guarantee directly.
pub fn corrupt_payload(
    link: LinkId,
    payload: &[u8],
    flip: bool,
    pos: u64,
) -> (Vec<u8>, FaultKind, String) {
    let mut out = payload.to_vec();
    match link {
        LinkId::E2 => {
            // Frame: u32 BE body length | u8 tag | payload.
            if !flip && out.len() > 5 {
                // Truncate the body to a strict prefix and rewrite the
                // length header to match, so the decoder sees a complete
                // but impossible frame (Codec error, then resync).
                let body_len = out.len() - 4;
                let new_len = (pos % body_len as u64) as usize;
                out.truncate(4 + new_len);
                out[..4].copy_from_slice(&(new_len as u32).to_be_bytes());
                (out, FaultKind::CorruptTruncate, format!("body truncated to {new_len} bytes"))
            } else if out.len() >= 5 {
                // Unknown-tag guarantee: valid tags are small, so setting
                // the high bit always leaves decode with a Codec error.
                out[4] |= 0x80;
                let detail = format!("tag bit-flipped to {:#04x}", out[4]);
                (out, FaultKind::CorruptBitFlip, detail)
            } else {
                // Degenerate short frame: mangle the length header.
                if out.is_empty() {
                    out.push(0xFF);
                } else {
                    out[0] ^= 0xFF;
                }
                (out, FaultKind::CorruptBitFlip, "length header mangled".into())
            }
        }
        LinkId::A1 => {
            if !flip && out.len() >= 2 {
                // Any strict prefix of a JSON document fails to parse.
                let new_len = 1 + (pos % (out.len() as u64 - 1)) as usize;
                out.truncate(new_len);
                (out, FaultKind::CorruptTruncate, format!("JSON truncated to {new_len} bytes"))
            } else {
                // 0xFF never occurs in valid UTF-8.
                let at = if out.is_empty() { 0 } else { (pos % out.len() as u64) as usize };
                if out.is_empty() {
                    out.push(0xFF);
                } else {
                    out[at] = 0xFF;
                }
                (out, FaultKind::CorruptBitFlip, format!("byte {at} -> 0xFF"))
            }
        }
    }
}

/// Per-lane mutable state: the RNG, the operation counter and frames
/// being held for later delivery (delays, duplicates, reorders).
#[derive(Debug)]
struct Lane {
    cfg: LaneConfig,
    dir: Direction,
    rng: SmallRng,
    /// Operations on this lane so far (send calls for Tx, recv calls for
    /// Rx — not frames; one recv call may consider several frames).
    op: u64,
    /// Held frames as `(release_at_op, frame)`, release-ordered.
    held: VecDeque<(u64, Vec<u8>)>,
}

impl Lane {
    fn new(mut cfg: LaneConfig, dir: Direction, seed: u64) -> Self {
        if dir == Direction::Tx {
            // A Tx reorder could strand a frame forever if no later send
            // arrives; reordering is only injected where the successor is
            // observable (Rx lanes).
            cfg.reorder = 0.0;
        }
        Lane { cfg, dir, rng: SmallRng::seed_from_u64(seed), op: 0, held: VecDeque::new() }
    }

    /// Draws the fault decision for one frame: exactly one uniform
    /// variate, mapped against the cumulative lane rates (so at most one
    /// fault fires per frame).
    fn decide(&mut self) -> Option<FaultKind> {
        let m = self.cfg.mult_at(self.op);
        let u: f64 = self.rng.random();
        let ladder = [
            (FaultKind::Drop, self.cfg.drop),
            (FaultKind::Duplicate, self.cfg.duplicate),
            (FaultKind::CorruptBitFlip, self.cfg.corrupt),
            (FaultKind::Delay, self.cfg.delay),
            (FaultKind::Reorder, self.cfg.reorder),
        ];
        let mut acc = 0.0;
        for (kind, rate) in ladder {
            acc += (rate * m).max(0.0);
            if u < acc {
                return Some(kind);
            }
        }
        None
    }

    /// Pops the next held frame whose release op has arrived.
    fn pop_due(&mut self) -> Option<Vec<u8>> {
        match self.held.front() {
            Some(&(release, _)) if release <= self.op => self.held.pop_front().map(|(_, f)| f),
            _ => None,
        }
    }
}

/// A seeded fault schedule plus the shared ledger; wraps transports.
///
/// Plans start **disarmed** (transparent), so bootstrap handshakes can
/// complete cleanly; call [`ChaosPlan::arm`] when the experiment proper
/// starts. A plan built from a disabled config never injects even when
/// armed.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    cfg: ChaosConfig,
    ledger: FaultLedger,
    armed: Arc<AtomicBool>,
    metrics: Registry,
}

impl ChaosPlan {
    /// Builds a plan (disarmed) whose wrapped transports record traffic
    /// (`edgebol_oran_frames_total` / `_bytes_total` /
    /// `_redelivered_frames_total`) and whose ledger mirrors faults
    /// (`edgebol_oran_faults_total{kind,link}`) into `metrics`;
    /// [`Registry::disabled`] records nothing.
    pub fn new(cfg: ChaosConfig, metrics: Registry) -> Self {
        metrics
            .describe("edgebol_oran_frames_total", "Control-plane frames, by direction and link");
        metrics.describe("edgebol_oran_bytes_total", "Control-plane bytes, by direction and link");
        metrics.describe(
            "edgebol_oran_redelivered_frames_total",
            "Frames delivered more than once by a duplication fault",
        );
        ChaosPlan {
            cfg,
            ledger: FaultLedger::instrumented(metrics.clone()),
            armed: Arc::new(AtomicBool::new(false)),
            metrics,
        }
    }

    /// The config this plan runs.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// A handle to the shared fault ledger.
    pub fn ledger(&self) -> FaultLedger {
        self.ledger.clone()
    }

    /// Starts injecting (no-op for a disabled config).
    pub fn arm(&self) {
        if self.cfg.enabled() {
            self.armed.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the plan is currently injecting.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Wraps a [`Link`] (the in-process [`Endpoint`] or a
    /// [`crate::reactor::ReactorLink`] — the pipeline is
    /// transport-agnostic); all faults land in this plan's ledger.
    pub fn wrap<L: Link>(&self, inner: L, link: LinkId) -> ChaosEndpoint<L> {
        let (tx_cfg, rx_cfg) = match link {
            LinkId::A1 => (self.cfg.a1_tx, self.cfg.a1_rx),
            LinkId::E2 => (self.cfg.e2_tx, self.cfg.e2_rx),
        };
        let cut_at = match self.cfg.cut {
            Some((l, at)) if l == link => Some(at),
            _ => None,
        };
        let l = link.label();
        ChaosEndpoint {
            inner,
            link,
            armed: self.armed.clone(),
            ledger: self.ledger.clone(),
            cut_at,
            heal_after: if cut_at.is_some() { self.cfg.heal } else { None },
            ops: AtomicU64::new(0),
            cut_latched: AtomicBool::new(false),
            tx: Mutex::new(Lane::new(
                tx_cfg,
                Direction::Tx,
                lane_seed(self.cfg.seed, link, Direction::Tx),
            )),
            rx: Mutex::new(Lane::new(
                rx_cfg,
                Direction::Rx,
                lane_seed(self.cfg.seed, link, Direction::Rx),
            )),
            // Handles resolved once here: per-frame recording must not
            // take the registry's registration lock.
            m_tx_frames: self
                .metrics
                .counter_with("edgebol_oran_frames_total", &[("dir", "tx"), ("link", l)]),
            m_rx_frames: self
                .metrics
                .counter_with("edgebol_oran_frames_total", &[("dir", "rx"), ("link", l)]),
            m_tx_bytes: self
                .metrics
                .counter_with("edgebol_oran_bytes_total", &[("dir", "tx"), ("link", l)]),
            m_rx_bytes: self
                .metrics
                .counter_with("edgebol_oran_bytes_total", &[("dir", "rx"), ("link", l)]),
            m_redelivered: self
                .metrics
                .counter_with("edgebol_oran_redelivered_frames_total", &[("link", l)]),
        }
    }
}

/// The fault-injecting decorator over any [`Link`] (the in-process
/// [`Endpoint`] by default). Same [`Link`] contract; interior mutability
/// keeps the `&self` signatures. The op-denominated fault schedule is
/// counted *above* the transport, which is why a fixed-seed chaos
/// episode injects the identical fault sequence whether the wrapped link
/// is an `Endpoint` or a reactor-managed TCP session.
#[derive(Debug)]
pub struct ChaosEndpoint<L: Link = Endpoint> {
    inner: L,
    link: LinkId,
    armed: Arc<AtomicBool>,
    ledger: FaultLedger,
    /// Kill the link after this many post-arm operations (tx + rx).
    cut_at: Option<u64>,
    /// Bring the link back this many operations after the cut fired
    /// (operations keep counting while it is down — probes advance the
    /// heal clock).
    heal_after: Option<u64>,
    ops: AtomicU64,
    cut_latched: AtomicBool,
    tx: Mutex<Lane>,
    rx: Mutex<Lane>,
    /// Traffic counters, pre-resolved at wrap time (no-ops when the plan
    /// was built without a registry). Tx counts frames *submitted* (so a
    /// dropped frame still counts as offered traffic), rx counts frames
    /// *delivered* to the caller.
    m_tx_frames: Counter,
    m_rx_frames: Counter,
    m_tx_bytes: Counter,
    m_rx_bytes: Counter,
    /// Held frames (delay/duplicate/reorder artifacts) handed back out.
    m_redelivered: Counter,
}

impl<L: Link> ChaosEndpoint<L> {
    fn record(&self, lane: &Lane, kind: FaultKind, payload: &[u8], detail: String) {
        self.ledger.push(FaultRecord {
            seq: 0,
            link: self.link,
            direction: lane.dir,
            kind,
            msg: classify(self.link, payload),
            op: lane.op,
            detail,
            heals: false,
        });
    }

    /// Counts one post-arm operation against the cut schedule. Without a
    /// healing window every operation from `cut_at` on fails; with one,
    /// operations in `[cut_at, cut_at + heal)` fail and later ones pass
    /// — operations keep counting while the link is down, so reconnect
    /// probes advance the heal clock deterministically.
    fn tick_cut(&self, dir: Direction) -> Result<(), OranError> {
        let Some(cut_at) = self.cut_at else { return Ok(()) };
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n >= cut_at {
            let healed = match self.heal_after {
                Some(heal) => n >= cut_at.saturating_add(heal),
                None => false,
            };
            if healed {
                return Ok(());
            }
            if !self.cut_latched.swap(true, Ordering::SeqCst) {
                let detail = match self.heal_after {
                    Some(heal) => {
                        format!("link cut after {cut_at} operations, heals after {heal} more")
                    }
                    None => format!("link cut after {cut_at} operations"),
                };
                self.ledger.push(FaultRecord {
                    seq: 0,
                    link: self.link,
                    direction: dir,
                    kind: FaultKind::LinkCut,
                    msg: MsgClass::Unknown,
                    op: n,
                    detail,
                    heals: self.heal_after.is_some(),
                });
            }
            // The message names the link so the reconnect supervisor can
            // attribute the loss without guessing from the stage.
            return Err(OranError::ChannelClosed(match self.link {
                LinkId::A1 => "chaos: A1 link cut",
                LinkId::E2 => "chaos: E2 link cut",
            }));
        }
        Ok(())
    }

    /// The receive-side fault pipeline behind [`Link::try_recv`], which
    /// counts what it delivers.
    fn try_recv_impl(&self) -> Result<Option<Vec<u8>>, OranError> {
        if !self.armed.load(Ordering::SeqCst) {
            return self.inner.try_recv();
        }
        self.tick_cut(Direction::Rx)?;
        let mut lane = self.rx.lock().unwrap_or_else(PoisonError::into_inner);
        lane.op += 1;
        // Held frames due for re-delivery come first, unfaulted.
        if let Some(f) = lane.pop_due() {
            self.m_redelivered.inc();
            return Ok(Some(f));
        }
        loop {
            let msg = match self.inner.try_recv() {
                Ok(Some(m)) => m,
                // Report the empty/closed link only once no held frame
                // is still pending re-delivery.
                Ok(None) => return Ok(None),
                Err(e) if lane.held.is_empty() => return Err(e),
                Err(_) => return Ok(None),
            };
            match lane.decide() {
                None | Some(FaultKind::LinkCut) => return Ok(Some(msg)),
                Some(FaultKind::Drop) => {
                    self.record(&lane, FaultKind::Drop, &msg, "frame dropped".into());
                    continue;
                }
                Some(FaultKind::Duplicate) => {
                    self.record(&lane, FaultKind::Duplicate, &msg, "frame delivered twice".into());
                    let release = lane.op; // due on the very next op
                    lane.held.push_back((release, msg.clone()));
                    return Ok(Some(msg));
                }
                Some(FaultKind::CorruptBitFlip) | Some(FaultKind::CorruptTruncate) => {
                    let flip = lane.rng.random_bool(0.5);
                    let pos: u64 = lane.rng.random();
                    let (mangled, kind, detail) = corrupt_payload(self.link, &msg, flip, pos);
                    self.record(&lane, kind, &msg, detail);
                    return Ok(Some(mangled));
                }
                Some(FaultKind::Delay) => {
                    let release = lane.op + lane.cfg.delay_ops.max(1);
                    self.record(&lane, FaultKind::Delay, &msg, format!("held until op {release}"));
                    lane.held.push_back((release, msg));
                    continue;
                }
                Some(FaultKind::Reorder) => {
                    match self.inner.try_recv()? {
                        Some(next) => {
                            self.record(
                                &lane,
                                FaultKind::Reorder,
                                &msg,
                                "swapped with successor".into(),
                            );
                            let due = lane.op;
                            lane.held.push_front((due, msg));
                            return Ok(Some(next));
                        }
                        // Nothing queued behind it: no swap happens and
                        // nothing is recorded.
                        None => return Ok(Some(msg)),
                    }
                }
            }
        }
    }
}

impl<L: Link> Link for ChaosEndpoint<L> {
    /// Sends one frame through the fault pipeline.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the peer is gone or the chaos
    /// schedule has cut the link.
    fn send(&self, msg: Vec<u8>) -> Result<(), OranError> {
        self.m_tx_frames.inc();
        self.m_tx_bytes.add(msg.len() as u64);
        if !self.armed.load(Ordering::SeqCst) {
            return self.inner.send(msg);
        }
        self.tick_cut(Direction::Tx)?;
        let mut lane = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        lane.op += 1;
        // Delayed frames whose hold expired go out first (artifacts are
        // never re-faulted).
        while let Some(f) = lane.pop_due() {
            self.inner.send(f)?;
        }
        match lane.decide() {
            None | Some(FaultKind::Reorder) | Some(FaultKind::LinkCut) => self.inner.send(msg),
            Some(FaultKind::Drop) => {
                self.record(&lane, FaultKind::Drop, &msg, "frame dropped".into());
                Ok(())
            }
            Some(FaultKind::Duplicate) => {
                self.record(&lane, FaultKind::Duplicate, &msg, "frame sent twice".into());
                self.inner.send(msg.clone())?;
                self.inner.send(msg)
            }
            Some(FaultKind::CorruptBitFlip) | Some(FaultKind::CorruptTruncate) => {
                let flip = lane.rng.random_bool(0.5);
                let pos: u64 = lane.rng.random();
                let (mangled, kind, detail) = corrupt_payload(self.link, &msg, flip, pos);
                self.record(&lane, kind, &msg, detail);
                self.inner.send(mangled)
            }
            Some(FaultKind::Delay) => {
                let release = lane.op + lane.cfg.delay_ops.max(1);
                self.record(&lane, FaultKind::Delay, &msg, format!("held until op {release}"));
                lane.held.push_back((release, msg));
                Ok(())
            }
        }
    }

    /// Receives the next frame through the fault pipeline.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the peer is gone (and the queue
    /// plus held frames are drained) or the chaos schedule has cut the
    /// link.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, OranError> {
        let got = self.try_recv_impl()?;
        if let Some(f) = &got {
            self.m_rx_frames.inc();
            self.m_rx_bytes.add(f.len() as u64);
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a1::{PolicyId, PolicyStatus, RadioPolicy};
    use crate::e2::{E2Message, KpiReport, RAN_FUNC_KPI};
    use crate::transport::duplex_pair;

    fn armed_pair(cfg: ChaosConfig) -> (Endpoint, ChaosEndpoint, ChaosPlan) {
        let plan = ChaosPlan::new(cfg, Registry::disabled());
        let (a, b) = duplex_pair();
        let wrapped = plan.wrap(b, LinkId::E2);
        plan.arm();
        (a, wrapped, plan)
    }

    fn frame(i: u64) -> Vec<u8> {
        E2Codec::encode(&E2Message::Indication(KpiReport {
            t_ms: i,
            bs_power_mw: 5_000 + i,
            duty_milli: 1,
            mean_mcs_centi: 2,
        }))
    }

    #[test]
    fn classify_recognizes_both_wire_formats() {
        let put = A1Message::PutPolicy {
            policy_id: PolicyId("p".into()),
            policy_type: crate::a1::A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime: 0.5, max_mcs: 10 },
        };
        assert_eq!(classify(LinkId::A1, put.to_json().as_bytes()), MsgClass::A1PutPolicy);
        let fb =
            A1Message::Feedback { policy_id: PolicyId("p".into()), status: PolicyStatus::Enforced };
        assert_eq!(classify(LinkId::A1, fb.to_json().as_bytes()), MsgClass::A1Feedback);
        let sub = E2Codec::encode(&E2Message::SubscriptionRequest {
            ran_function: RAN_FUNC_KPI,
            report_period_ms: 1000,
        });
        assert_eq!(classify(LinkId::E2, &sub), MsgClass::E2SubscriptionRequest);
        assert_eq!(classify(LinkId::E2, &frame(1)), MsgClass::E2Indication);
        assert_eq!(classify(LinkId::E2, b"garbage"), MsgClass::Unknown);
        assert_eq!(classify(LinkId::A1, &[0xFF, 0xFE]), MsgClass::Unknown);
    }

    #[test]
    fn zero_rate_plan_is_transparent_even_armed() {
        let (peer, wrapped, plan) = armed_pair(ChaosConfig::uniform(9, LaneConfig::off()));
        // Disabled config: arm() is a no-op, traffic passes bit-exact.
        for i in 0..50 {
            peer.send(frame(i)).unwrap();
        }
        let got = wrapped.drain().unwrap();
        assert_eq!(got.len(), 50);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &frame(i as u64));
        }
        wrapped.send(frame(99)).unwrap();
        assert_eq!(peer.try_recv().unwrap().unwrap(), frame(99));
        assert!(plan.ledger().is_empty());
    }

    #[test]
    fn identical_seeds_produce_identical_schedules_and_ledgers() {
        let run = |seed: u64| {
            let cfg = ChaosConfig::all_kinds(seed, 0.2);
            let (peer, wrapped, plan) = armed_pair(cfg);
            for i in 0..200 {
                peer.send(frame(i)).unwrap();
            }
            let survivors = wrapped.drain().unwrap();
            (survivors, plan.ledger().records())
        };
        let (s1, l1) = run(42);
        let (s2, l2) = run(42);
        assert_eq!(s1, s2);
        assert_eq!(l1, l2);
        assert!(!l1.is_empty(), "0.2 rates over 200 frames must inject something");
        let (s3, l3) = run(43);
        assert!(s3 != s1 || l3 != l1, "different seeds must differ somewhere");
    }

    #[test]
    fn duplicate_delivers_each_frame_twice_in_order() {
        let lane = LaneConfig { duplicate: 1.0, ..LaneConfig::off() };
        let (peer, wrapped, plan) = armed_pair(ChaosConfig::uniform(1, lane));
        for i in 0..3 {
            peer.send(frame(i)).unwrap();
        }
        let got = wrapped.drain().unwrap();
        let want: Vec<Vec<u8>> = [0u64, 0, 1, 1, 2, 2].iter().map(|&i| frame(i)).collect();
        assert_eq!(got, want);
        assert_eq!(plan.ledger().count_kind(FaultKind::Duplicate), 3);
    }

    #[test]
    fn drop_rate_one_loses_everything_and_ledgers_everything() {
        let lane = LaneConfig { drop: 1.0, ..LaneConfig::off() };
        let (peer, wrapped, plan) = armed_pair(ChaosConfig::uniform(1, lane));
        for i in 0..10 {
            peer.send(frame(i)).unwrap();
        }
        assert!(wrapped.drain().unwrap().is_empty());
        assert_eq!(plan.ledger().count_kind(FaultKind::Drop), 10);
        // All were indications: every drop is degrading.
        assert_eq!(plan.ledger().degrading_count(), 10);
    }

    #[test]
    fn delay_holds_frames_and_releases_them_in_order() {
        let lane = LaneConfig { delay: 1.0, delay_ops: 2, ..LaneConfig::off() };
        let (peer, wrapped, plan) = armed_pair(ChaosConfig::uniform(1, lane));
        peer.send(frame(0)).unwrap();
        peer.send(frame(1)).unwrap();
        // Op 1: both frames get delayed (release at op 3), nothing out.
        assert!(wrapped.try_recv().unwrap().is_none());
        // Op 2: still held.
        assert!(wrapped.try_recv().unwrap().is_none());
        // Ops 3 and 4: released in their original order, unfaulted.
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(0));
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(1));
        assert!(wrapped.try_recv().unwrap().is_none());
        assert_eq!(plan.ledger().count_kind(FaultKind::Delay), 2);
    }

    #[test]
    fn reorder_swaps_adjacent_frames_only_when_a_successor_exists() {
        let lane = LaneConfig { reorder: 1.0, ..LaneConfig::off() };
        let (peer, wrapped, plan) = armed_pair(ChaosConfig::uniform(1, lane));
        peer.send(frame(0)).unwrap();
        peer.send(frame(1)).unwrap();
        // Swap: successor first, victim re-delivered next op.
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(1));
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(0));
        assert_eq!(plan.ledger().count_kind(FaultKind::Reorder), 1);
        // A lone frame has nothing to swap with: delivered, unrecorded.
        peer.send(frame(2)).unwrap();
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(2));
        assert_eq!(plan.ledger().count_kind(FaultKind::Reorder), 1);
        assert_eq!(plan.ledger().degrading_count(), 0);
    }

    #[test]
    fn corrupted_e2_frames_always_fail_to_decode_and_stream_resyncs() {
        let msgs = [
            E2Codec::encode(&E2Message::ControlAck),
            E2Codec::encode(&E2Message::ControlRequest { airtime_milli: 500, max_mcs: 9 }),
            frame(7),
        ];
        for msg in &msgs {
            for flip in [true, false] {
                for pos in [0u64, 1, 5, 17, 9999] {
                    let (mangled, kind, _) = corrupt_payload(LinkId::E2, msg, flip, pos);
                    let mut buf = mangled;
                    // Append a good frame: the corruption must stay
                    // confined so the stream resynchronizes.
                    buf.extend(E2Codec::encode(&E2Message::ControlAck));
                    let first = E2Codec::decode(&mut buf);
                    assert!(
                        matches!(first, Err(OranError::Codec(_)) | Err(OranError::Framing(_))),
                        "{kind:?} at {pos} must invalidate, got {first:?}"
                    );
                    assert_eq!(E2Codec::decode(&mut buf).unwrap(), Some(E2Message::ControlAck));
                }
            }
        }
    }

    #[test]
    fn corrupted_a1_frames_always_fail_to_parse() {
        let msg = A1Message::KpiSample { t_ms: 17, bs_power_mw: 5000 }.to_json();
        for flip in [true, false] {
            for pos in [0u64, 3, 11, 1000] {
                let (mangled, kind, _) = corrupt_payload(LinkId::A1, msg.as_bytes(), flip, pos);
                let parsed = std::str::from_utf8(&mangled)
                    .map_err(|e| OranError::Codec(e.to_string()))
                    .and_then(A1Message::from_json);
                assert!(parsed.is_err(), "{kind:?} at {pos} must invalidate");
            }
        }
    }

    #[test]
    fn link_cut_latches_once_and_fails_every_later_op() {
        let cfg = ChaosConfig::disabled().with_cut(LinkId::E2, 3);
        let plan = ChaosPlan::new(cfg, Registry::disabled());
        let (peer, b) = duplex_pair();
        let wrapped = plan.wrap(b, LinkId::E2);
        plan.arm();
        peer.send(frame(0)).unwrap();
        // Three operations pass, then the link dies for good.
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(0));
        wrapped.send(frame(1)).unwrap();
        assert!(wrapped.try_recv().unwrap().is_none());
        for _ in 0..4 {
            assert!(matches!(wrapped.try_recv(), Err(OranError::ChannelClosed(_))));
            assert!(matches!(wrapped.send(frame(9)), Err(OranError::ChannelClosed(_))));
        }
        let cuts: Vec<_> =
            plan.ledger().records().into_iter().filter(|r| r.kind == FaultKind::LinkCut).collect();
        assert_eq!(cuts.len(), 1, "the cut is ledgered exactly once");
        assert!(!cuts[0].heals, "a permanent cut does not heal");
        assert_eq!(plan.ledger().degrading_count(), 0, "an unhealed cut is fatal, not degrading");
    }

    #[test]
    fn healing_cut_fails_inside_the_window_and_passes_after() {
        // Cut at op 2, heal 3 ops later: ops 0–1 pass, 2–4 fail, 5+ pass.
        let cfg = ChaosConfig::disabled().with_cut(LinkId::E2, 2).with_heal(3);
        let plan = ChaosPlan::new(cfg, Registry::disabled());
        let (peer, b) = duplex_pair();
        let wrapped = plan.wrap(b, LinkId::E2);
        plan.arm();
        peer.send(frame(0)).unwrap();
        peer.send(frame(1)).unwrap();
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(0)); // op 0
        wrapped.send(frame(9)).unwrap(); // op 1
        for _ in 0..3 {
            // Ops 2, 3, 4: the outage window.
            assert!(matches!(wrapped.try_recv(), Err(OranError::ChannelClosed(_))));
        }
        // Op 5: healed — the pre-cut frame is still queued and comes out.
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(1));
        wrapped.send(frame(10)).unwrap();
        assert_eq!(peer.try_recv().unwrap().unwrap(), frame(9));
        assert_eq!(peer.try_recv().unwrap().unwrap(), frame(10));
        let cuts: Vec<_> =
            plan.ledger().records().into_iter().filter(|r| r.kind == FaultKind::LinkCut).collect();
        assert_eq!(cuts.len(), 1, "a healing cut is still ledgered exactly once");
        assert!(cuts[0].heals);
        assert_eq!(plan.ledger().degrading_count(), 1, "a healed outage counts as degrading");
    }

    #[test]
    fn unarmed_plan_injects_nothing() {
        let plan = ChaosPlan::new(ChaosConfig::all_kinds(5, 1.0), Registry::disabled());
        let (peer, b) = duplex_pair();
        let wrapped = plan.wrap(b, LinkId::E2);
        // Not armed: even rate-1.0 lanes are transparent.
        peer.send(frame(0)).unwrap();
        assert_eq!(wrapped.try_recv().unwrap().unwrap(), frame(0));
        assert!(plan.ledger().is_empty());
        assert!(!plan.is_armed());
    }

    #[test]
    fn from_spec_parses_the_env_knob() {
        let cfg = ChaosConfig::from_spec("seed=7, rate=0.1, dup=0.05, cut=e2@120").unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.a1_tx.drop, 0.1);
        assert_eq!(cfg.e2_rx.corrupt, 0.1);
        assert_eq!(cfg.a1_rx.duplicate, 0.05);
        assert_eq!(cfg.cut, Some((LinkId::E2, 120)));
        assert!(cfg.enabled());
        assert!(ChaosConfig::from_spec("").unwrap() == ChaosConfig::uniform(1, LaneConfig::off()));
        assert!(ChaosConfig::from_spec("bogus").is_err());
        assert!(ChaosConfig::from_spec("drop=x").is_err());
        assert!(ChaosConfig::from_spec("cut=lte@5").is_err());
    }

    #[test]
    fn from_spec_parses_healing_cuts_and_rejects_invalid_ones() {
        let cfg = ChaosConfig::from_spec("cut=e2@40,heal=e2@25").unwrap();
        assert_eq!(cfg.cut, Some((LinkId::E2, 40)));
        assert_eq!(cfg.heal, Some(25));
        assert!(cfg.enabled());
        // Spec order must not matter.
        let swapped = ChaosConfig::from_spec("heal=e2@25,cut=e2@40").unwrap();
        assert_eq!(swapped, cfg);
        // heal without a cut.
        let e = ChaosConfig::from_spec("heal=e2@10").unwrap_err();
        assert!(e.contains("requires a matching cut"), "got: {e}");
        // heal on the wrong link.
        let e = ChaosConfig::from_spec("cut=e2@40,heal=a1@10").unwrap_err();
        assert!(e.contains("does not match the cut link"), "got: {e}");
        // heal window must be positive; negatives are not op counts.
        let e = ChaosConfig::from_spec("cut=e2@40,heal=e2@0").unwrap_err();
        assert!(e.contains("must be positive"), "got: {e}");
        assert!(ChaosConfig::from_spec("cut=e2@40,heal=e2@-3").is_err());
        assert!(ChaosConfig::from_spec("heal=lte@5,cut=e2@1").is_err());
        assert!(ChaosConfig::from_spec("heal=e2").is_err());
    }

    #[test]
    fn reseeded_changes_the_stream_deterministically() {
        let base = ChaosConfig::all_kinds(11, 0.3);
        let a = base.reseeded(1);
        let b = base.reseeded(1);
        let c = base.reseeded(2);
        assert_eq!(a, b);
        assert_ne!(a.seed, c.seed);
        assert_ne!(a.seed, base.seed);
    }
}
