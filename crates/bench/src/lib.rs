//! Shared harness for the figure regenerators and Criterion benches.
//!
//! Every evaluation figure of the paper has a regeneration binary in
//! `src/bin/` (see DESIGN.md §4 for the index). Each binary sweeps the
//! same workloads/parameters as the paper, prints the series as an
//! aligned table, and writes a CSV under `results/` so the numbers can be
//! compared against the paper (EXPERIMENTS.md records that comparison).

pub mod env;
pub mod sweep;

use edgebol_core::agent::Agent;
use edgebol_core::orchestrator::{Orchestrator, OrchestratorError};
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, HealthHandle, OpsServer, OpsState, RecoveryPolicy, TransportKind};
use edgebol_testbed::Environment;
use edgebol_trace::{Journal, Layer};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// What the `EDGEBOL_METRICS` knob asked for — see [`metrics_mode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsMode {
    /// Metrics disabled (the default): the shared registry is a no-op.
    Off,
    /// Record, and print the end-of-run summary table to **stderr**
    /// (stdout and the CSV artifacts stay byte-identical to an
    /// uninstrumented run).
    Summary,
    /// [`MetricsMode::Summary`], plus write `metrics.prom` /
    /// `metrics.json` / `metrics.csv` into the given directory.
    Dump(PathBuf),
}

/// The observability mode requested via the `EDGEBOL_METRICS`
/// environment variable: empty/`off`/`0` → [`MetricsMode::Off`],
/// `summary`/`on`/`1` → [`MetricsMode::Summary`], `dump=<dir>` →
/// [`MetricsMode::Dump`]. Parsing lives in [`env::metrics_mode`]; this
/// memoizes the verdict per process.
///
/// # Panics
/// Panics (once) on a malformed value — a misspelled knob must not
/// silently run unobserved, mirroring [`chaos_from_env`].
pub fn metrics_mode() -> &'static MetricsMode {
    static MODE: OnceLock<MetricsMode> = OnceLock::new();
    MODE.get_or_init(env::metrics_mode)
}

/// The process-wide metrics registry every harness run records into —
/// enabled iff [`metrics_mode`] is not [`MetricsMode::Off`] **or** the
/// ops surface is up ([`env::ops_addr`] set): a live `/metrics`
/// endpoint scraping a disabled registry would always read empty. The
/// figure binaries pass it to the orchestrator (so core/oran metrics
/// land here too) and render it via [`metrics_report`] before exiting.
pub fn metrics() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| match metrics_mode() {
        MetricsMode::Off if env::ops_addr().is_none() => Registry::disabled(),
        _ => Registry::new(),
    })
}

/// Renders the end-of-run metrics according to [`metrics_mode`]: nothing
/// when off; the summary table to stderr for `summary`; the table plus
/// `metrics.prom`/`metrics.json`/`metrics.csv` files for `dump=<dir>`.
/// Every figure binary calls this as its last statement.
pub fn metrics_report() {
    let mode = metrics_mode();
    if *mode == MetricsMode::Off {
        return;
    }
    let snap = metrics().snapshot();
    eprint!("{}", snap.render_table("edgebol metrics"));
    if let MetricsMode::Dump(dir) = mode {
        let write_all = || -> std::io::Result<()> {
            fs::create_dir_all(dir)?;
            fs::write(dir.join("metrics.prom"), snap.render_prometheus())?;
            fs::write(dir.join("metrics.json"), snap.to_json())?;
            fs::write(dir.join("metrics.csv"), snap.to_csv())?;
            Ok(())
        };
        match write_all() {
            Ok(()) => eprintln!("[edgebol-bench] metrics dumped to {}", dir.display()),
            Err(e) => eprintln!("[edgebol-bench] metrics dump failed: {e}"),
        }
    }
}

/// The fault schedule requested via the `EDGEBOL_CHAOS` environment
/// variable, if any — every figure regenerator routes its orchestrator
/// runs through [`try_run_once`]/[`try_run_reps`], so setting the knob
/// re-runs any figure under deterministic control-plane faults (see
/// [`ChaosConfig::from_spec`] for the `key=value,...` format, e.g.
/// `EDGEBOL_CHAOS="seed=7,rate=0.05,delay=0.02"`).
///
/// # Panics
/// Panics (once, with the parse message) when the spec is malformed —
/// a misspelled chaos knob must not silently run fault-free.
pub fn chaos_from_env() -> Option<&'static ChaosConfig> {
    static CONFIG: OnceLock<Option<ChaosConfig>> = OnceLock::new();
    CONFIG
        .get_or_init(|| {
            let cfg = env::chaos()?;
            eprintln!(
                "[edgebol-bench] chaos enabled: {}",
                std::env::var("EDGEBOL_CHAOS").unwrap_or_default()
            );
            Some(cfg)
        })
        .as_ref()
}

/// The reconnect-supervisor policy requested via the `EDGEBOL_FALLBACK`
/// environment variable: empty or `sticky` → the default policy (local
/// autonomy survives an exhausted retry budget, with half-open probes),
/// `off` → [`edgebol_oran::FallbackMode::Off`] (an exhausted budget surfaces
/// [`OrchestratorError::CircuitOpen`] and the run fails fast). Every
/// harness run routes through this, so any figure can be re-run under
/// either survival contract.
///
/// # Panics
/// Panics (once) on a malformed value — a misspelled knob must not
/// silently change the survival contract, mirroring [`chaos_from_env`].
pub fn recovery_from_env() -> &'static RecoveryPolicy {
    static POLICY: OnceLock<RecoveryPolicy> = OnceLock::new();
    POLICY.get_or_init(|| {
        let mode = env::fallback();
        if mode == edgebol_oran::FallbackMode::Off {
            eprintln!("[edgebol-bench] fallback disabled: an open circuit aborts the run");
        }
        RecoveryPolicy::default().with_fallback(mode)
    })
}

/// The transport requested via the `EDGEBOL_TRANSPORT` environment
/// variable: empty or `poll` → the in-process poll transport, `reactor`
/// → reactor-managed framed TCP over loopback. Every harness run passes
/// it to [`Orchestrator::new_with_transport`], and a reactor choice is
/// reported once per process, the way [`chaos_from_env`] reports an
/// armed fault schedule — a comparison run whose transport differs
/// silently would be a footgun.
///
/// # Panics
/// Panics (once) on a malformed value, mirroring the other knobs.
pub fn transport_from_env() -> TransportKind {
    static KIND: OnceLock<TransportKind> = OnceLock::new();
    *KIND.get_or_init(|| {
        let kind = env::transport();
        if kind == TransportKind::Reactor {
            eprintln!("[edgebol-bench] transport: reactor (nonblocking framed TCP over loopback)");
        }
        kind
    })
}

/// The process-wide event journal: every orchestrator run the harness
/// starts records its period spans, recovery transitions and chaos
/// faults here (when [`journal_wanted`] — someone must be able to read
/// it), the ops surface serves its tail at `/trace`, and the crash
/// flight-recorder dumps it on a fatal error. The journal never writes
/// to stdout, so fixed-seed stdout/CSV artifacts stay byte-identical
/// with or without it.
pub fn journal() -> &'static Arc<Journal> {
    static J: OnceLock<Arc<Journal>> = OnceLock::new();
    J.get_or_init(|| Arc::new(Journal::new()))
}

/// Whether harness runs should carry the journal: only when a reader
/// exists — the ops surface (`EDGEBOL_OPS`) or the flight recorder
/// (`EDGEBOL_FLIGHT_DIR`). Unobserved journaling is pure overhead.
pub fn journal_wanted() -> bool {
    ops_server().is_some() || env::flight_dir().is_some()
}

/// The health handle `/healthz` reads; [`try_run_once_with_chaos`]
/// refreshes it from the orchestrator's circuit state after every
/// period, so an operator sees 503 while the circuit is latched open.
fn ops_health() -> &'static HealthHandle {
    static H: OnceLock<HealthHandle> = OnceLock::new();
    H.get_or_init(HealthHandle::new)
}

/// The HTTP ops surface, started once per process when `EDGEBOL_OPS`
/// is set: `GET /metrics` (Prometheus exposition of [`metrics`]),
/// `/healthz` (circuit state), `/vars` (JSON snapshot) and `/trace`
/// (recent [`journal`] events). The bound address is reported on
/// stderr (stdout stays clean), which is how CI finds an OS-assigned
/// port when the knob says `127.0.0.1:0`.
///
/// # Panics
/// When the requested address cannot be bound — an operator who asked
/// for an ops surface must not silently run without one.
pub fn ops_server() -> Option<&'static OpsServer> {
    static S: OnceLock<Option<OpsServer>> = OnceLock::new();
    S.get_or_init(|| {
        let addr = env::ops_addr()?;
        let state = OpsState::new(metrics().clone())
            .with_journal(journal().clone())
            .with_health(ops_health().clone());
        let server = OpsServer::spawn(&addr.to_string(), state)
            .unwrap_or_else(|e| panic!("EDGEBOL_OPS={addr}: bind failed: {e}"));
        eprintln!("[edgebol-bench] ops surface listening on http://{}", server.local_addr());
        Some(server)
    })
    .as_ref()
}

/// Dumps the crash flight record for a run that died with `e`, when
/// `EDGEBOL_FLIGHT_DIR` is set: the last
/// [`edgebol_trace::FLIGHT_KEEP_PERIODS`] periods of journal events plus
/// outage accounting ([`Orchestrator::flight_meta`]), as one JSON
/// incident file. Reported on stderr either way.
fn dump_flight_on_error(orch: &Orchestrator, e: &OrchestratorError) {
    let Some(dir) = env::flight_dir() else { return };
    journal().record(
        Layer::Bench,
        "run_failed",
        orch.first_outage_period().map(|p| p as u64),
        vec![("error", e.to_string())],
    );
    let meta = orch.flight_meta(e);
    let keep = edgebol_trace::FLIGHT_KEEP_PERIODS;
    match edgebol_trace::dump_flight_record(&dir, e.stage(), keep, journal(), &meta) {
        Ok(path) => eprintln!("[edgebol-bench] flight record written to {}", path.display()),
        Err(io) => eprintln!("[edgebol-bench] flight record failed: {io}"),
    }
}

/// A printable/serializable results table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (figure id + description).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (stringified values).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV into `results/<name>.csv` (relative to the
    /// workspace root when invoked via cargo, the cwd otherwise).
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        fs::write(&path, s)?;
        Ok(path)
    }
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench -> ../../results
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Formats a float with three significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Number of worker threads for [`parallel_map`]: the `EDGEBOL_THREADS`
/// environment variable when set, otherwise
/// [`std::thread::available_parallelism`].
///
/// # Panics
/// On a malformed `EDGEBOL_THREADS` value ([`env::threads`]).
pub fn worker_threads() -> usize {
    env::threads()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs `job(0..n)` on [`worker_threads`] threads and returns the
/// results in index order: [`edgebol_core::parallel_map_threads`]
/// recording into [`metrics`]. The output is deterministic and
/// identical to the sequential order regardless of thread count.
pub fn parallel_map<T, F>(n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    edgebol_core::parallel_map_threads(worker_threads(), n, metrics(), job)
}

/// Runs one agent/environment pair for `periods` periods, surfacing
/// control-plane failures instead of panicking.
pub fn try_run_once(
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    spec: ProblemSpec,
    periods: usize,
    record_safe_set: bool,
    schedule: Vec<(usize, f64, f64)>,
) -> Result<Trace, OrchestratorError> {
    let chaos = chaos_from_env().cloned().unwrap_or_else(ChaosConfig::disabled);
    try_run_once_with_chaos(env, agent, spec, periods, record_safe_set, schedule, chaos)
}

/// [`try_run_once`] under an explicit fault schedule (the env-knob path
/// and the chaos test suite both land here).
///
/// This is also the observability hub every figure binary inherits:
/// the `EDGEBOL_OPS` server is started (once per process) before the
/// run, the shared [`journal`] is attached when anyone can read it,
/// `/healthz` is refreshed from the circuit state after every period,
/// and a run that dies with an [`OrchestratorError`] leaves a flight
/// record under `EDGEBOL_FLIGHT_DIR`.
///
/// # Errors
/// The first unrecoverable [`OrchestratorError`] (e.g. a scheduled link
/// cut); recoverable faults are absorbed by degraded mode.
pub fn try_run_once_with_chaos(
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    spec: ProblemSpec,
    periods: usize,
    record_safe_set: bool,
    schedule: Vec<(usize, f64, f64)>,
    chaos: ChaosConfig,
) -> Result<Trace, OrchestratorError> {
    let transport = transport_from_env();
    let ops_up = ops_server().is_some();
    let reg = metrics().clone();
    let mut orch = Orchestrator::new_with_transport(env, agent, spec, chaos, reg, transport)?
        .with_constraint_schedule(schedule)
        .with_recovery(*recovery_from_env());
    if journal_wanted() {
        orch = orch.with_journal(journal().clone());
    }
    orch.record_safe_set = record_safe_set;
    let mut trace = Trace::default();
    for _ in 0..periods {
        match orch.try_step() {
            Ok(r) => trace.records.push(r),
            Err(e) => {
                if ops_up {
                    ops_health().set(orch.circuit_state());
                }
                dump_flight_on_error(&orch, &e);
                return Err(e);
            }
        }
        if ops_up {
            ops_health().set(orch.circuit_state());
        }
    }
    let ledger = orch.fault_ledger();
    if !ledger.is_empty() {
        eprintln!(
            "[edgebol-bench] chaos summary: {} faults injected, {} degrading, {} degraded events",
            ledger.len(),
            ledger.degrading_count(),
            orch.degraded_events()
        );
    }
    if orch.local_autonomy_periods() > 0 {
        eprintln!(
            "[edgebol-bench] recovery summary: {} local-autonomy periods, \
             {} resyncs ok, {} failed, final circuit {:?}",
            orch.local_autonomy_periods(),
            orch.reconnects_ok(),
            orch.reconnects_failed(),
            orch.circuit_state()
        );
    }
    Ok(trace)
}

/// Runs one agent/environment pair for `periods` periods.
///
/// # Panics
/// Panics if the orchestrator's control plane fails — impossible for the
/// in-process transport the orchestrator builds; use [`try_run_once`]
/// when the failure should be handled.
pub fn run_once(
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    spec: ProblemSpec,
    periods: usize,
    record_safe_set: bool,
    schedule: Vec<(usize, f64, f64)>,
) -> Trace {
    try_run_once(env, agent, spec, periods, record_safe_set, schedule)
        .expect("in-process control plane")
}

/// Runs `reps` independent repetitions **in parallel** (seed = rep
/// index), collecting per-seed results instead of aborting on the first
/// failure.
///
/// Each repetition builds its environment and agent through the factories
/// inside its worker thread, so repetitions share nothing; the output is
/// seed-ordered and bit-identical to a sequential run (set
/// `EDGEBOL_THREADS=1` to force one).
pub fn try_run_reps(
    reps: usize,
    periods: usize,
    spec: ProblemSpec,
    env_factory: impl Fn(u64) -> Box<dyn Environment> + Sync,
    agent_factory: impl Fn(u64) -> Box<dyn Agent> + Sync,
) -> Vec<Result<Trace, OrchestratorError>> {
    parallel_map(reps, |rep| {
        let seed = rep as u64;
        // Under the EDGEBOL_CHAOS knob every repetition gets its own
        // deterministic fault stream, derived from the spec seed and the
        // repetition seed — reruns stay bit-identical.
        let chaos = match chaos_from_env() {
            Some(cfg) => cfg.reseeded(seed),
            None => ChaosConfig::disabled(),
        };
        try_run_once_with_chaos(
            env_factory(seed),
            agent_factory(seed),
            spec,
            periods,
            false,
            Vec::new(),
            chaos,
        )
    })
}

/// Runs `reps` independent repetitions via the factories, returning all
/// traces (the paper plots medians and 10/90 percentile bands over 10
/// repetitions). Repetitions run in parallel — see [`try_run_reps`].
///
/// # Panics
/// Panics if any repetition's control plane fails (impossible for the
/// in-process transport); the panic message names the seed.
pub fn run_reps(
    reps: usize,
    periods: usize,
    spec: ProblemSpec,
    env_factory: impl Fn(u64) -> Box<dyn Environment> + Sync,
    agent_factory: impl Fn(u64) -> Box<dyn Agent> + Sync,
) -> Vec<Trace> {
    try_run_reps(reps, periods, spec, env_factory, agent_factory)
        .into_iter()
        .enumerate()
        .map(|(seed, r)| match r {
            Ok(t) => t,
            Err(e) => panic!("repetition with seed {seed} failed: {e}"),
        })
        .collect()
}

/// Median of a slice (convenience re-export).
pub fn median(xs: &[f64]) -> f64 {
    edgebol_linalg::stats::percentile(xs, 0.5)
}

/// Percentile helper re-export.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    edgebol_linalg::stats::percentile(xs, q)
}

/// Mean of the last `min(k, len)` values of `series`, the converged
/// level the figures report; NaN for an empty series.
pub fn tail_mean(series: &[f64], k: usize) -> f64 {
    let k = k.min(series.len());
    if k == 0 {
        return f64::NAN;
    }
    series[series.len() - k..].iter().sum::<f64>() / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_arity() {
        let mut t = Table::new("Fig. X", &["a", "b"]);
        t.push_row(vec!["1".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("Fig. X"));
        assert!(s.contains("2.5"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// Short series average what they have; full-length ones keep the
    /// bits of the fixed 20-period expression the figures used.
    #[test]
    fn tail_mean_averages_at_most_the_last_k() {
        assert!(tail_mean(&[], 20).is_nan());
        let s: Vec<f64> = (0..150).map(|i| 150.0 + 40.0 * (i as f64 * 0.37).sin()).collect();
        assert_eq!(tail_mean(&s[..5], 20), s[..5].iter().sum::<f64>() / 5.0);
        for len in [20, 150] {
            let old = s[len - 20..len].iter().sum::<f64>() / 20.0;
            assert_eq!(tail_mean(&s[..len], 20).to_bits(), old.to_bits(), "len {len}");
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        // Uneven per-index work so threads finish out of order; the
        // output must still be index-ordered.
        let out = parallel_map(97, |i| {
            let mut acc = i as u64;
            for _ in 0..(97 - i) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 97);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
