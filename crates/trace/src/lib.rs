//! Structured event journal for the EdgeBOL control plane.
//!
//! The journal is the *narrative* counterpart to `edgebol-metrics`:
//! metrics answer "how much / how often" with pre-aggregated counters,
//! while the journal answers "what happened, in which order" with a
//! bounded ring of seq-numbered [`Event`]s. It is designed for the
//! orchestrator hot loop:
//!
//! - **Lock-free claim**: a writer claims a slot with one
//!   `fetch_add`; the per-slot mutex is only held while moving the
//!   event body in (and by snapshot readers), never contended across
//!   writers except when the ring wraps onto a slot being read.
//! - **Fixed memory**: capacity is chosen at construction; once the
//!   ring wraps, the oldest events are overwritten. Nothing in the
//!   hot path allocates beyond the event's own field strings.
//! - **Crash flight-recorder**: [`dump_flight_record`] filters the
//!   last K periods of events and writes them as one JSON incident
//!   file, turning a one-line fatal error into a replayable record.
//!
//! Journals are explicit values (typically `Arc<Journal>`): there is
//! no process-global journal, so parallel test runs cannot
//! cross-pollute each other.
//!
//! The crate also holds the workspace's one JSON module, [`json`]: the
//! writers every renderer uses and the one reader.
//!
//! ```
//! use edgebol_trace::{Journal, Layer};
//!
//! let j = Journal::with_capacity(64);
//! j.record(Layer::Orchestrator, "period_start", Some(0), vec![]);
//! j.record(Layer::Recovery, "backoff", Some(0), vec![("attempt", "1".into())]);
//! let tail = j.tail(10);
//! assert_eq!(tail.len(), 2);
//! assert_eq!(tail[1].kind, "backoff");
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod json;

/// Which subsystem emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The period-clocked control loop in `edgebol-core`.
    Orchestrator,
    /// Reconnect supervisor / circuit-breaker transitions.
    Recovery,
    /// Chaos fault injections.
    Chaos,
    /// Transport / reactor lifecycle.
    Transport,
    /// The HTTP ops surface itself.
    Ops,
    /// Bench harness lifecycle (run start/stop, flight dumps).
    Bench,
    /// Multi-slice fleet lifecycle (spawn, warm-start, admission, retire).
    Fleet,
}

impl Layer {
    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Orchestrator => "orchestrator",
            Layer::Recovery => "recovery",
            Layer::Chaos => "chaos",
            Layer::Transport => "transport",
            Layer::Ops => "ops",
            Layer::Bench => "bench",
            Layer::Fleet => "fleet",
        }
    }
}

/// One journal entry.
///
/// `seq` is globally ordered per journal; `t_ms` is milliseconds since
/// the journal was created (wall-clock free, so two journals never
/// need clock agreement). `period` ties the event to the control-loop
/// period clock when one applies.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// Milliseconds since the owning journal was created.
    pub t_ms: u64,
    /// Control-loop period the event belongs to, if any.
    pub period: Option<u64>,
    /// Emitting subsystem.
    pub layer: Layer,
    /// Short static event name, e.g. `"circuit_open"`.
    pub kind: &'static str,
    /// Free-form key/value payload; keys are static, values owned.
    pub fields: Vec<(&'static str, String)>,
}

impl Event {
    /// Renders this event as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"t_ms\":");
        s.push_str(&self.t_ms.to_string());
        s.push_str(",\"period\":");
        match self.period {
            Some(p) => s.push_str(&p.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"layer\":\"");
        s.push_str(self.layer.as_str());
        s.push_str("\",\"kind\":");
        json::push_escaped(&mut s, self.kind);
        s.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_escaped(&mut s, k);
            s.push(':');
            json::push_escaped(&mut s, v);
        }
        s.push_str("}}");
        s
    }
}

/// Renders a slice of events as a JSON array.
pub fn events_to_json(events: &[Event]) -> String {
    let mut s = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&e.to_json());
    }
    s.push(']');
    s
}

struct Slot {
    /// `seq + 1` of the completed event stored here; 0 = empty.
    ready: AtomicU64,
    ev: Mutex<Option<Event>>,
}

/// Fixed-capacity, seq-numbered ring buffer of [`Event`]s.
///
/// Writers never block each other on the hot path: claiming a slot is
/// a single `fetch_add`, and the per-slot mutex is only taken by the
/// claiming writer and by snapshot readers. When the ring wraps, the
/// oldest events are overwritten (visible as a gap in `seq`).
pub struct Journal {
    start: Instant,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Default ring capacity: enough for several hundred periods of
/// span + recovery + chaos events without exceeding ~1 MiB.
pub const DEFAULT_CAPACITY: usize = 4096;

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal with [`DEFAULT_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a journal holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Slot { ready: AtomicU64::new(0), ev: Mutex::new(None) })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Journal { start: Instant::now(), head: AtomicU64::new(0), slots }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap so far.
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Records one event and returns its sequence number.
    pub fn record(
        &self,
        layer: Layer,
        kind: &'static str,
        period: Option<u64>,
        fields: Vec<(&'static str, String)>,
    ) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let t_ms = self.start.elapsed().as_millis() as u64;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        {
            let mut guard = slot.ev.lock().unwrap_or_else(|e| e.into_inner());
            *guard = Some(Event { seq, t_ms, period, layer, kind, fields });
        }
        slot.ready.store(seq + 1, Ordering::Release);
        seq
    }

    /// Starts a per-period stage span; see [`StageSpan`].
    pub fn span(&self, period: u64) -> StageSpan<'_> {
        let now = Instant::now();
        StageSpan { journal: self, period, started: now, last: now, stages: Vec::with_capacity(4) }
    }

    /// Copies out every live event, ordered by sequence number.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            if slot.ready.load(Ordering::Acquire) == 0 {
                continue;
            }
            let guard = slot.ev.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(ev) = guard.as_ref() {
                out.push(ev.clone());
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }
}

/// Monotonic stage timer for one control-loop period.
///
/// The orchestrator walks sense → optimize → deploy → KPI each period;
/// a span records the duration of each stage and emits them as one
/// `period_span` event when finished:
///
/// ```
/// use edgebol_trace::{Journal, Layer};
/// let j = Journal::with_capacity(8);
/// let mut span = j.span(7);
/// // ... sense ...
/// span.stage("sense");
/// // ... optimize ...
/// span.stage("optimize");
/// span.finish();
/// let ev = j.tail(1).pop().unwrap();
/// assert_eq!(ev.kind, "period_span");
/// assert_eq!(ev.period, Some(7));
/// assert_eq!(ev.fields.iter().filter(|(k, _)| *k == "sense").count(), 1);
/// ```
pub struct StageSpan<'a> {
    journal: &'a Journal,
    period: u64,
    started: Instant,
    last: Instant,
    stages: Vec<(&'static str, u64)>,
}

impl StageSpan<'_> {
    /// Closes the current stage under `name`, recording the
    /// microseconds elapsed since the previous stage boundary.
    pub fn stage(&mut self, name: &'static str) {
        let now = Instant::now();
        self.stages.push((name, now.duration_since(self.last).as_micros() as u64));
        self.last = now;
    }

    /// Emits the accumulated stage timings as one `period_span` event.
    pub fn finish(self) {
        let total = self.started.elapsed().as_micros() as u64;
        let mut fields: Vec<(&'static str, String)> = Vec::with_capacity(self.stages.len() + 1);
        fields.push(("total_us", total.to_string()));
        for (name, us) in self.stages {
            fields.push((name, us.to_string()));
        }
        self.journal.record(Layer::Orchestrator, "period_span", Some(self.period), fields);
    }
}

/// How many trailing periods of journal events a flight record keeps:
/// the `keep_periods` every driver passes to [`dump_flight_record`].
pub const FLIGHT_KEEP_PERIODS: u64 = 16;

/// Filters the last `keep_periods` periods of `journal` and writes
/// them as one JSON incident file under `dir`.
///
/// The file is named `flight-<reason>-p<last_period>.json` (reason
/// sanitized to `[a-z0-9-]`; `pnone` when no event carried a period)
/// so repeated identical failures overwrite rather than accumulate.
/// Events without a period (e.g. chaos arm/fault records) are kept
/// whenever they are newer than the oldest kept period event.
///
/// Returns the path written. `extra` key/values land under `"meta"`
/// as JSON strings.
pub fn dump_flight_record(
    dir: &Path,
    reason: &str,
    keep_periods: u64,
    journal: &Journal,
    extra: &[(&'static str, String)],
) -> std::io::Result<PathBuf> {
    let events = journal.snapshot();
    let last_period = events.iter().filter_map(|e| e.period).max();
    let kept: Vec<&Event> = match last_period {
        None => events.iter().collect(),
        Some(last) => {
            let cutoff = last.saturating_sub(keep_periods.saturating_sub(1));
            let min_seq = events
                .iter()
                .filter(|e| e.period.is_some_and(|p| p >= cutoff))
                .map(|e| e.seq)
                .min()
                .unwrap_or(0);
            events.iter().filter(|e| e.seq >= min_seq).collect()
        }
    };

    let mut body = String::with_capacity(4096);
    body.push_str("{\"version\":1,\"reason\":");
    json::push_escaped(&mut body, reason);
    body.push_str(",\"last_period\":");
    match last_period {
        Some(p) => body.push_str(&p.to_string()),
        None => body.push_str("null"),
    }
    body.push_str(",\"keep_periods\":");
    body.push_str(&keep_periods.to_string());
    body.push_str(",\"recorded\":");
    body.push_str(&journal.recorded().to_string());
    body.push_str(",\"overwritten\":");
    body.push_str(&journal.overwritten().to_string());
    body.push_str(",\"meta\":{");
    for (i, (k, v)) in extra.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::push_escaped(&mut body, k);
        body.push(':');
        json::push_escaped(&mut body, v);
    }
    body.push_str("},\"events\":[");
    for (i, e) in kept.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&e.to_json());
    }
    body.push_str("]}\n");

    std::fs::create_dir_all(dir)?;
    let mut name = String::from("flight-");
    for c in reason.chars() {
        if c.is_ascii_alphanumeric() {
            name.push(c.to_ascii_lowercase());
        } else if !name.ends_with('-') {
            name.push('-');
        }
    }
    if !name.ends_with('-') {
        name.push('-');
    }
    match last_period {
        Some(p) => name.push_str(&format!("p{p}")),
        None => name.push_str("pnone"),
    }
    name.push_str(".json");
    let path = dir.join(name);
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(j: &Journal, kind: &'static str, period: u64) -> u64 {
        j.record(Layer::Orchestrator, kind, Some(period), vec![])
    }

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let j = Journal::with_capacity(16);
        for p in 0..10 {
            ev(&j, "tick", p);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.overwritten(), 0);
    }

    #[test]
    fn ring_wrap_keeps_only_the_newest_events() {
        let j = Journal::with_capacity(8);
        for p in 0..20 {
            ev(&j, "tick", p);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.first().unwrap().seq, 12);
        assert_eq!(snap.last().unwrap().seq, 19);
        assert_eq!(j.overwritten(), 12);
    }

    #[test]
    fn tail_returns_newest_first_ordered_oldest_to_newest() {
        let j = Journal::with_capacity(32);
        for p in 0..6 {
            ev(&j, "tick", p);
        }
        let t = j.tail(3);
        assert_eq!(t.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(j.tail(100).len(), 6);
    }

    #[test]
    fn concurrent_writers_never_lose_sequence_density() {
        let j = std::sync::Arc::new(Journal::with_capacity(4096));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        j.record(Layer::Chaos, "fault", None, vec![]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.recorded(), 2000);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2000);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2000, "duplicate or missing sequence numbers");
    }

    #[test]
    fn event_json_is_valid_and_escapes_hostile_fields() {
        let j = Journal::with_capacity(4);
        j.record(
            Layer::Ops,
            "weird",
            Some(3),
            vec![("msg", "line1\nline2 \"quoted\" back\\slash \u{1}".to_string())],
        );
        let s = events_to_json(&j.snapshot());
        json::validate(&s).expect("events JSON must parse");
        assert!(s.contains("\\n"), "newline must be escaped: {s}");
        assert!(s.contains("\\\""), "quote must be escaped: {s}");
        assert!(s.contains("\\u0001"), "control char must be escaped: {s}");
    }

    #[test]
    fn flight_record_keeps_only_last_k_periods() {
        let dir = std::env::temp_dir().join(format!(
            "edgebol-trace-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let j = Journal::with_capacity(256);
        j.record(Layer::Chaos, "armed", None, vec![]);
        for p in 0..50 {
            ev(&j, "tick", p);
        }
        let path = dump_flight_record(
            &dir,
            "circuit open: E2",
            10,
            &j,
            &[("first_outage_period", "40".to_string())],
        )
        .expect("dump");
        let body = std::fs::read_to_string(&path).expect("read dump");
        json::validate(body.trim_end()).expect("dump must be valid JSON");
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("flight-circuit-open"));
        assert!(body.contains("\"last_period\":49"), "{body}");
        // Periods 0..39 are older than the keep window.
        assert!(!body.contains("\"period\":39,"), "{body}");
        assert!(body.contains("\"period\":40,"), "{body}");
        assert!(body.contains("\"first_outage_period\":\"40\""), "{body}");
        // The periodless chaos event predates the window and is dropped.
        assert!(!body.contains("\"kind\":\"armed\""), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_emits_all_stage_fields() {
        let j = Journal::with_capacity(8);
        let mut span = j.span(11);
        span.stage("sense");
        span.stage("optimize");
        span.stage("deploy");
        span.stage("kpi");
        span.finish();
        let ev = j.tail(1).pop().unwrap();
        assert_eq!(ev.kind, "period_span");
        assert_eq!(ev.period, Some(11));
        let keys: Vec<&str> = ev.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["total_us", "sense", "optimize", "deploy", "kpi"]);
        for (_, v) in &ev.fields {
            v.parse::<u64>().expect("stage timing must be numeric");
        }
    }
}
