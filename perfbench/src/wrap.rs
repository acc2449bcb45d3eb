//! Timed wrappers around the `Agent` and `Environment` trait objects the
//! orchestrator accepts, recording one span per call from outside the
//! program.
//!
//! Every trait method is forwarded — a method left to its trait default
//! would silently change what the wrapped object does — and only the four
//! per-period calls (`observe_context`, `select`, `step`, `update`) are
//! timed.

use edgebol_ckpt::CkptError;
use edgebol_core::Agent;
use edgebol_testbed::{ContextObs, ControlInput, Environment, PeriodObservation};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Span names, one per layer boundary the benchmark times.
pub const STEP: &str = "core.step";
/// `Environment::observe_context` (sense stage).
pub const CONTEXT: &str = "testbed.context";
/// `Agent::select` (optimize stage).
pub const SELECT: &str = "bandit.select";
/// `Environment::step`.
pub const ENV_STEP: &str = "testbed.step";
/// `Agent::update` (learn stage).
pub const UPDATE: &str = "bandit.update";

/// One timed call. `period` identifies the orchestration period (shared
/// by a `core.step` span and the child spans inside it); `rep` the
/// repetition of the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span name (one of the constants above).
    pub name: &'static str,
    /// Repetition of the workload within the run.
    pub rep: u32,
    /// Orchestration period within the repetition.
    pub period: u32,
    /// Start, in nanoseconds since the sink was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct SinkState {
    rep: u32,
    period: u32,
    spans: Vec<Span>,
}

/// In-memory span store shared by the wrappers and the benchmark loop.
#[derive(Debug, Clone)]
pub struct SpanSink {
    origin: Instant,
    state: Arc<Mutex<SinkState>>,
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanSink {
    /// An empty sink whose clock starts now.
    pub fn new() -> Self {
        SpanSink { origin: Instant::now(), state: Arc::default() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        // Spans are plain data; a panic mid-push leaves them valid.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tags subsequent spans with this repetition and period.
    pub fn set_period(&self, rep: u32, period: u32) {
        let mut s = self.lock();
        s.rep = rep;
        s.period = period;
    }

    /// Records a span named `name` that started at `start` and lasted
    /// `dur`.
    pub fn record(&self, name: &'static str, start: Instant, dur: Duration) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur_ns = dur.as_nanos() as u64;
        let mut s = self.lock();
        let (rep, period) = (s.rep, s.period);
        s.spans.push(Span { name, rep, period, start_ns, dur_ns });
    }

    /// Runs `f`, recording it as a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, start.elapsed());
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// An [`Agent`] whose `select` and `update` calls are recorded as spans.
pub struct TimedAgent {
    inner: Box<dyn Agent>,
    sink: SpanSink,
}

impl TimedAgent {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Box<dyn Agent>, sink: SpanSink) -> Self {
        TimedAgent { inner, sink }
    }
}

impl Agent for TimedAgent {
    fn select(&mut self, ctx: &ContextObs) -> ControlInput {
        self.sink.time(SELECT, || self.inner.select(ctx))
    }

    fn update(&mut self, ctx: &ContextObs, control: &ControlInput, obs: &PeriodObservation) {
        self.sink.time(UPDATE, || self.inner.update(ctx, control, obs))
    }

    fn set_constraints(&mut self, d_max: f64, rho_min: f64) {
        self.inner.set_constraints(d_max, rho_min)
    }

    fn safe_set_size(&mut self, ctx: &ContextObs) -> Option<usize> {
        self.inner.safe_set_size(ctx)
    }

    fn export_experience(&self) -> Option<Vec<(Vec<f64>, [f64; 3])>> {
        self.inner.export_experience()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner.load_state(bytes)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An [`Environment`] whose `observe_context` and `step` calls are
/// recorded as spans.
pub struct TimedEnv {
    inner: Box<dyn Environment>,
    sink: SpanSink,
}

impl TimedEnv {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Box<dyn Environment>, sink: SpanSink) -> Self {
        TimedEnv { inner, sink }
    }
}

impl Environment for TimedEnv {
    fn observe_context(&mut self) -> ContextObs {
        self.sink.time(CONTEXT, || self.inner.observe_context())
    }

    fn step(&mut self, control: &ControlInput) -> PeriodObservation {
        self.sink.time(ENV_STEP, || self.inner.step(control))
    }

    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn set_gpu_contention(&mut self, factor: f64) {
        self.inner.set_gpu_contention(factor)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner.load_state(bytes)
    }
}
