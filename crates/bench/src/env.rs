//! Typed access to every `EDGEBOL_*` environment knob.
//!
//! All knob parsing lives here — the runtime crates read no
//! environment and take their configuration as arguments — so every
//! binary fails the same way on a malformed value:
//! `invalid EDGEBOL_<NAME> value "<v>": expected <what>`. A misspelled
//! knob must never silently run with the default — a comparison run
//! whose chaos schedule, transport or thread count differs silently is
//! a footgun, so every accessor panics on garbage.
//!
//! Each knob has a pure `parse_*` function (unit-testable without
//! touching the process environment) and a one-line accessor that reads
//! the variable through the private `knob` helper, which panics with the
//! uniform message. Process-wide caching and once-per-process reporting
//! stay in the crate root ([`crate::metrics_mode`],
//! [`crate::chaos_from_env`], ...), which delegate here.
//!
//! The knob map (see README "Environment knobs" for semantics):
//!
//! | variable              | accessor        | values                         |
//! |-----------------------|-----------------|--------------------------------|
//! | `EDGEBOL_THREADS`     | [`threads`]     | positive integer               |
//! | `EDGEBOL_METRICS`     | [`metrics_mode`]| `off`/`summary`/`dump=<dir>`   |
//! | `EDGEBOL_CHAOS`       | [`chaos`]       | `key=value,...` fault spec     |
//! | `EDGEBOL_FALLBACK`    | [`fallback`]    | `sticky` (default) / `off`     |
//! | `EDGEBOL_TRANSPORT`   | [`transport`]   | `poll` (default) / `reactor`   |
//! | `EDGEBOL_OPS`         | [`ops_addr`]    | `<ip>:<port>` to serve ops on  |
//! | `EDGEBOL_FLIGHT_DIR`  | [`flight_dir`]  | directory for crash dumps      |
//! | `EDGEBOL_REPS` etc.   | [`usize_knob`]  | non-negative integer           |
//! | `EDGEBOL_FLEET_SLICES` | [`fleet_slices`] | comma list of fleet sizes     |
//! | `EDGEBOL_FLEET_PERIODS` | [`fleet_periods`] | periods each slice runs     |
//! | `EDGEBOL_FLEET_CELLS` | [`fleet_cells`] | number of cells (GPU servers)  |
//! | `EDGEBOL_FLEET_GPU_CAPACITY` | [`fleet_gpu_capacity`] | per-cell capacity (demand units) |
//! | `EDGEBOL_FLEET_MODE`  | [`fleet_mode`]  | `both` (default)/`warm`/`cold` |
//! | `EDGEBOL_CKPT_DIR`    | [`ckpt_dir`]    | directory for slice checkpoints |
//! | `EDGEBOL_CKPT_EVERY`  | [`ckpt_every`]  | checkpoint cadence in periods  |
//! | `EDGEBOL_FLEET_KILL`  | [`fleet_kill`]  | `slice:<id>@<period>,...` kill schedule |
//! | `EDGEBOL_SOAK_CYCLES` | [`soak_cycles`] | kill/restore cycles per soak pass |
//! | `EDGEBOL_SOAK_SECONDS` | [`soak_seconds`] | soak wall-clock budget (0 = one bounded pass) |
//! | `EDGEBOL_SOAK_SLICES` | [`soak_slices`] | fleet size per soak pass       |
//!
//! (The `perf_gate` bin's `EDGEBOL_GATE_*` bounds go through
//! [`usize_knob`]. The one knob read outside this crate is
//! `EDGEBOL_REACTOR_BACKEND`, the reactor's platform-poller override in
//! `edgebol-oran`.)

use crate::MetricsMode;
use edgebol_oran::{ChaosConfig, FallbackMode, TransportKind};
use std::net::SocketAddr;
use std::path::PathBuf;

/// The trimmed value of `key`; `None` when unset or blank (every knob
/// treats an empty value as "use the default").
fn raw(key: &str) -> Option<String> {
    let v = std::env::var(key).ok()?;
    let t = v.trim();
    if t.is_empty() {
        None
    } else {
        Some(t.to_string())
    }
}

/// Reads knob `key` through its `parse_*` function: `None` when unset
/// or blank.
///
/// # Panics
/// On a malformed value, with the uniform shape every knob dies with:
/// `invalid <KEY> value "<v>": expected <what>`.
fn knob<T>(key: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
    let v = raw(key)?;
    match parse(&v) {
        Ok(x) => Some(x),
        Err(expected) => panic!("invalid {key} value {v:?}: expected {expected}"),
    }
}

/// Parses an `EDGEBOL_THREADS`-style worker count.
///
/// # Errors
/// A message naming the expectation when `v` is not a positive integer.
pub fn parse_threads(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("a positive integer".into()),
    }
}

/// `EDGEBOL_THREADS`: worker-thread count for the parallel runner, or
/// `None` to use [`std::thread::available_parallelism`].
///
/// # Panics
/// On a malformed value.
pub fn threads() -> Option<usize> {
    knob("EDGEBOL_THREADS", parse_threads)
}

/// Parses an `EDGEBOL_METRICS`-style observability mode.
///
/// # Errors
/// A message naming the expectation when `v` is none of `off`,
/// `summary` or `dump=<dir>` (with their aliases).
pub fn parse_metrics_mode(v: &str) -> Result<MetricsMode, String> {
    match v.trim() {
        "" | "off" | "0" => Ok(MetricsMode::Off),
        "summary" | "on" | "1" => Ok(MetricsMode::Summary),
        other => match other.strip_prefix("dump=") {
            Some(dir) if !dir.is_empty() => Ok(MetricsMode::Dump(PathBuf::from(dir))),
            _ => Err("off, summary or dump=<dir>".into()),
        },
    }
}

/// `EDGEBOL_METRICS`: the observability mode (uncached — the crate
/// root's [`crate::metrics_mode`] memoizes this per process).
///
/// # Panics
/// On a malformed value.
pub fn metrics_mode() -> MetricsMode {
    knob("EDGEBOL_METRICS", parse_metrics_mode).unwrap_or(MetricsMode::Off)
}

/// Parses an `EDGEBOL_CHAOS`-style fault spec (see
/// [`ChaosConfig::from_spec`] for the `key=value,...` grammar).
///
/// # Errors
/// The spec parser's message.
pub fn parse_chaos(v: &str) -> Result<ChaosConfig, String> {
    ChaosConfig::from_spec(v)
}

/// `EDGEBOL_CHAOS`: the deterministic fault schedule, if any.
///
/// # Panics
/// On a malformed spec.
pub fn chaos() -> Option<ChaosConfig> {
    knob("EDGEBOL_CHAOS", |v| parse_chaos(v).map_err(|e| format!("a fault spec ({e})")))
}

/// Parses an `EDGEBOL_FALLBACK`-style survival mode.
///
/// # Errors
/// A message naming the expectation when `v` is neither `sticky` nor
/// `off`.
pub fn parse_fallback(v: &str) -> Result<FallbackMode, String> {
    v.parse::<FallbackMode>().map_err(|_| "off or sticky".into())
}

/// `EDGEBOL_FALLBACK`: the reconnect supervisor's fallback mode
/// (default [`FallbackMode::Sticky`]).
///
/// # Panics
/// On a malformed value.
pub fn fallback() -> FallbackMode {
    knob("EDGEBOL_FALLBACK", parse_fallback).unwrap_or(FallbackMode::Sticky)
}

/// Parses an `EDGEBOL_TRANSPORT`-style transport kind.
///
/// # Errors
/// A message naming the expectation when `v` is neither `poll` nor
/// `reactor`.
pub fn parse_transport(v: &str) -> Result<TransportKind, String> {
    match v.trim() {
        "" | "poll" => Ok(TransportKind::Poll),
        "reactor" => Ok(TransportKind::Reactor),
        _ => Err("poll or reactor".into()),
    }
}

/// `EDGEBOL_TRANSPORT`: which transport carries the A1/E2 links
/// (default [`TransportKind::Poll`]). The harness passes it to every
/// orchestrator it builds ([`crate::transport_from_env`]).
///
/// # Panics
/// On a malformed value.
pub fn transport() -> TransportKind {
    knob("EDGEBOL_TRANSPORT", parse_transport).unwrap_or(TransportKind::Poll)
}

/// Parses an `EDGEBOL_OPS`-style socket address.
///
/// # Errors
/// A message naming the expectation when `v` is not `<ip>:<port>`.
pub fn parse_ops_addr(v: &str) -> Result<SocketAddr, String> {
    v.trim().parse::<SocketAddr>().map_err(|_| "<ip>:<port>, e.g. 127.0.0.1:9100".into())
}

/// `EDGEBOL_OPS`: the address to serve the HTTP ops surface on
/// (`/metrics`, `/healthz`, `/vars`, `/trace`), or `None` to not serve
/// it. Port 0 asks the OS for a free port (the bound address is
/// reported on stderr).
///
/// # Panics
/// On a malformed address.
pub fn ops_addr() -> Option<SocketAddr> {
    knob("EDGEBOL_OPS", parse_ops_addr)
}

/// `EDGEBOL_FLIGHT_DIR`: the directory the crash flight-recorder dumps
/// incident JSON into when a run dies with an `OrchestratorError`, or
/// `None` to disable the recorder. Any non-empty path is accepted;
/// the directory is created at dump time.
pub fn flight_dir() -> Option<PathBuf> {
    raw("EDGEBOL_FLIGHT_DIR").map(PathBuf::from)
}

/// Parses a sizing knob (`EDGEBOL_REPS`, `EDGEBOL_PERIODS`, ...).
///
/// # Errors
/// A message naming the expectation when `v` is not a non-negative
/// integer.
pub fn parse_usize(v: &str) -> Result<usize, String> {
    v.trim().parse::<usize>().map_err(|_| "a non-negative integer".into())
}

/// Reads a sizing knob (`EDGEBOL_REPS`, `EDGEBOL_PERIODS`,
/// `EDGEBOL_TRAIN`, ...): `default` when unset or blank.
///
/// # Panics
/// On a malformed value — a misspelled sweep size must not silently
/// run the default-sized sweep.
pub fn usize_knob(key: &str, default: usize) -> usize {
    knob(key, parse_usize).unwrap_or(default)
}

/// Which spawn modes the `fleet` bench sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetMode {
    /// Warm-start late slices from the nearest running donor.
    Warm,
    /// Always cold-start (the control arm).
    Cold,
    /// Run both arms and report the convergence saving (default).
    Both,
}

impl FleetMode {
    /// `true` if this mode includes the warm arm.
    pub fn runs_warm(self) -> bool {
        matches!(self, FleetMode::Warm | FleetMode::Both)
    }

    /// `true` if this mode includes the cold arm.
    pub fn runs_cold(self) -> bool {
        matches!(self, FleetMode::Cold | FleetMode::Both)
    }
}

/// Parses an `EDGEBOL_FLEET_SLICES`-style comma list of fleet sizes.
///
/// # Errors
/// A message naming the expectation when any element is not a positive
/// integer (an empty list is also rejected).
pub fn parse_usize_list(v: &str) -> Result<Vec<usize>, String> {
    let out: Result<Vec<usize>, String> = v
        .split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err("a comma-separated list of positive integers".to_string()),
        })
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err("a comma-separated list of positive integers".into());
    }
    Ok(out)
}

/// `EDGEBOL_FLEET_SLICES`: the fleet sizes the `fleet` bench sweeps
/// (default `10,32,100,316,1000` — half-decade steps).
///
/// # Panics
/// On a malformed list.
pub fn fleet_slices() -> Vec<usize> {
    knob("EDGEBOL_FLEET_SLICES", parse_usize_list).unwrap_or_else(|| vec![10, 32, 100, 316, 1000])
}

/// `EDGEBOL_FLEET_PERIODS`: how many control periods each slice lives
/// before retiring (default 48 — enough for quick-config convergence
/// plus a measurable steady tail).
///
/// # Panics
/// On a malformed value.
pub fn fleet_periods() -> usize {
    usize_knob("EDGEBOL_FLEET_PERIODS", 48)
}

/// `EDGEBOL_FLEET_CELLS`: how many cells (each with its own GPU server)
/// the fleet shards slices across (default 4).
///
/// # Panics
/// On a malformed value.
pub fn fleet_cells() -> usize {
    usize_knob("EDGEBOL_FLEET_CELLS", 4)
}

/// Parses an `EDGEBOL_FLEET_GPU_CAPACITY`-style positive float.
///
/// # Errors
/// A message naming the expectation when `v` is not a positive finite
/// number.
pub fn parse_positive_f64(v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err("a positive number".into()),
    }
}

/// `EDGEBOL_FLEET_GPU_CAPACITY`: per-cell GPU admission capacity in
/// aggregate demand units (default 8.0; a slice demands
/// `0.1 + 0.05 x users`, so the default admits roughly 30–50 concurrent
/// slices per cell).
///
/// # Panics
/// On a malformed value.
pub fn fleet_gpu_capacity() -> f64 {
    knob("EDGEBOL_FLEET_GPU_CAPACITY", parse_positive_f64).unwrap_or(8.0)
}

/// Parses an `EDGEBOL_FLEET_MODE`-style arm selector.
///
/// # Errors
/// A message naming the expectation when `v` is none of `warm`, `cold`
/// or `both`.
pub fn parse_fleet_mode(v: &str) -> Result<FleetMode, String> {
    match v.trim() {
        "" | "both" => Ok(FleetMode::Both),
        "warm" => Ok(FleetMode::Warm),
        "cold" => Ok(FleetMode::Cold),
        _ => Err("warm, cold or both".into()),
    }
}

/// `EDGEBOL_FLEET_MODE`: which spawn arms the `fleet` bench runs
/// (default [`FleetMode::Both`], so warm-vs-cold savings are measured
/// in one invocation).
///
/// # Panics
/// On a malformed value.
pub fn fleet_mode() -> FleetMode {
    knob("EDGEBOL_FLEET_MODE", parse_fleet_mode).unwrap_or(FleetMode::Both)
}

/// `EDGEBOL_CKPT_DIR`: the directory the fleet driver writes per-slice
/// checkpoint files (`slice-<id>.ckpt`) into, or `None` to disable
/// checkpointing. Any non-empty path is accepted; the atomic writer
/// creates missing parents at write time.
pub fn ckpt_dir() -> Option<PathBuf> {
    raw("EDGEBOL_CKPT_DIR").map(PathBuf::from)
}

/// `EDGEBOL_CKPT_EVERY`: checkpoint cadence in lockstep periods
/// (default 8). `0` disables the cadence even when `EDGEBOL_CKPT_DIR`
/// is set.
///
/// # Panics
/// On a malformed value.
pub fn ckpt_every() -> usize {
    usize_knob("EDGEBOL_CKPT_EVERY", 8)
}

/// Parses an `EDGEBOL_FLEET_KILL`-style crash schedule:
/// `slice:<id>@<period>` entries, comma-separated — e.g.
/// `slice:3@120,slice:0@40` kills slice 3's runner at the start of
/// lockstep period 120 and slice 0's at period 40.
///
/// # Errors
/// A message naming the expectation when any entry deviates from the
/// grammar.
pub fn parse_kill_schedule(v: &str) -> Result<Vec<(u64, usize)>, String> {
    const EXPECTED: &str = "slice:<id>@<period> entries, comma-separated";
    let mut out = Vec::new();
    for entry in v.split(',') {
        let entry = entry.trim();
        let body = entry.strip_prefix("slice:").ok_or_else(|| EXPECTED.to_string())?;
        let (id, period) = body.split_once('@').ok_or_else(|| EXPECTED.to_string())?;
        let id = id.trim().parse::<u64>().map_err(|_| EXPECTED.to_string())?;
        let period = period.trim().parse::<usize>().map_err(|_| EXPECTED.to_string())?;
        out.push((id, period));
    }
    if out.is_empty() {
        return Err(EXPECTED.into());
    }
    Ok(out)
}

/// `EDGEBOL_FLEET_KILL`: the fleet crash-injection schedule, or an
/// empty schedule when unset. Each entry destroys one slice's control
/// plane at the start of the named lockstep period; the driver then
/// restarts it from its latest checkpoint (cold, counted, when none
/// survives decode).
///
/// # Panics
/// On a malformed schedule.
pub fn fleet_kill() -> Vec<(u64, usize)> {
    knob("EDGEBOL_FLEET_KILL", parse_kill_schedule).unwrap_or_default()
}

/// `EDGEBOL_SOAK_CYCLES`: how many kill/restore cycles (each paired
/// with a link cut + heal) one soak pass injects (default 3, the
/// acceptance floor).
///
/// # Panics
/// On a malformed value.
pub fn soak_cycles() -> usize {
    usize_knob("EDGEBOL_SOAK_CYCLES", 3)
}

/// `EDGEBOL_SOAK_SECONDS`: wall-clock budget for the `soak` binary.
/// `0` (the default) runs exactly one bounded deterministic pass — the
/// CI mode, whose stdout summary is byte-stable across thread counts;
/// any positive value repeats passes until the budget is spent.
///
/// # Panics
/// On a malformed value.
pub fn soak_seconds() -> usize {
    usize_knob("EDGEBOL_SOAK_SECONDS", 0)
}

/// `EDGEBOL_SOAK_SLICES`: fleet size per soak pass (default 8).
///
/// # Panics
/// On a malformed value.
pub fn soak_slices() -> usize {
    usize_knob("EDGEBOL_SOAK_SLICES", 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_accepts_positive_rejects_rest() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 1 "), Ok(1));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("four").is_err());
    }

    #[test]
    fn metrics_mode_parses_all_aliases() {
        assert_eq!(parse_metrics_mode(""), Ok(MetricsMode::Off));
        assert_eq!(parse_metrics_mode("off"), Ok(MetricsMode::Off));
        assert_eq!(parse_metrics_mode("0"), Ok(MetricsMode::Off));
        assert_eq!(parse_metrics_mode("summary"), Ok(MetricsMode::Summary));
        assert_eq!(parse_metrics_mode("on"), Ok(MetricsMode::Summary));
        assert_eq!(parse_metrics_mode("1"), Ok(MetricsMode::Summary));
        assert_eq!(parse_metrics_mode("dump=/tmp/m"), Ok(MetricsMode::Dump("/tmp/m".into())));
        assert!(parse_metrics_mode("dump=").is_err());
        assert!(parse_metrics_mode("verbose").is_err());
    }

    #[test]
    fn fallback_and_transport_parse() {
        assert_eq!(parse_fallback("off"), Ok(FallbackMode::Off));
        assert_eq!(parse_fallback("sticky"), Ok(FallbackMode::Sticky));
        assert!(parse_fallback("both").is_err());
        assert_eq!(parse_transport("poll"), Ok(TransportKind::Poll));
        assert_eq!(parse_transport("reactor"), Ok(TransportKind::Reactor));
        assert_eq!(parse_transport(""), Ok(TransportKind::Poll));
        assert!(parse_transport("udp").is_err());
    }

    #[test]
    fn ops_addr_requires_socket_syntax() {
        assert!(parse_ops_addr("127.0.0.1:0").is_ok());
        assert!(parse_ops_addr("0.0.0.0:9100").is_ok());
        assert!(parse_ops_addr("localhost:9100").is_err(), "no name resolution");
        assert!(parse_ops_addr("9100").is_err());
    }

    #[test]
    fn chaos_spec_delegates_to_the_chaos_parser() {
        assert!(parse_chaos("seed=7,rate=0.05").is_ok());
        assert!(parse_chaos("rate=not-a-number").is_err());
    }

    #[test]
    fn usize_knob_falls_back_only_when_unset() {
        assert_eq!(parse_usize("12"), Ok(12));
        assert!(parse_usize("12.5").is_err());
        assert!(parse_usize("many").is_err());
        // Unset (or blank) keys yield the default without parsing.
        assert_eq!(usize_knob("EDGEBOL_THIS_KNOB_IS_NEVER_SET", 42), 42);
    }

    #[test]
    fn fleet_size_lists_parse_and_reject_garbage() {
        assert_eq!(parse_usize_list("10,32,100"), Ok(vec![10, 32, 100]));
        assert_eq!(parse_usize_list(" 5 "), Ok(vec![5]));
        assert!(parse_usize_list("").is_err());
        assert!(parse_usize_list("10,,32").is_err());
        assert!(parse_usize_list("10,0").is_err());
        assert!(parse_usize_list("ten").is_err());
    }

    #[test]
    fn fleet_capacity_must_be_positive_and_finite() {
        assert_eq!(parse_positive_f64("8.0"), Ok(8.0));
        assert_eq!(parse_positive_f64(" 0.5 "), Ok(0.5));
        assert!(parse_positive_f64("0").is_err());
        assert!(parse_positive_f64("-1").is_err());
        assert!(parse_positive_f64("inf").is_err());
        assert!(parse_positive_f64("lots").is_err());
    }

    #[test]
    fn kill_schedules_parse_and_reject_garbage() {
        assert_eq!(parse_kill_schedule("slice:3@120"), Ok(vec![(3, 120)]));
        assert_eq!(parse_kill_schedule(" slice:3@120 , slice:0@40 "), Ok(vec![(3, 120), (0, 40)]));
        assert!(parse_kill_schedule("").is_err());
        assert!(parse_kill_schedule("3@120").is_err(), "missing slice: prefix");
        assert!(parse_kill_schedule("slice:3").is_err(), "missing @period");
        assert!(parse_kill_schedule("slice:three@120").is_err());
        assert!(parse_kill_schedule("slice:3@").is_err());
        assert!(parse_kill_schedule("slice:3@-1").is_err());
    }

    #[test]
    fn fleet_mode_parses_all_arms() {
        assert_eq!(parse_fleet_mode("warm"), Ok(FleetMode::Warm));
        assert_eq!(parse_fleet_mode("cold"), Ok(FleetMode::Cold));
        assert_eq!(parse_fleet_mode("both"), Ok(FleetMode::Both));
        assert_eq!(parse_fleet_mode(""), Ok(FleetMode::Both));
        assert!(parse_fleet_mode("hot").is_err());
        assert!(FleetMode::Both.runs_warm() && FleetMode::Both.runs_cold());
        assert!(FleetMode::Warm.runs_warm() && !FleetMode::Warm.runs_cold());
        assert!(!FleetMode::Cold.runs_warm() && FleetMode::Cold.runs_cold());
    }
}
