//! Live operator surface: `/metrics`, `/healthz`, `/vars`, `/trace`.
//!
//! The ops surface is a tiny HTTP/1.1 service hosted on a [`Reactor`]
//! (see [`Reactor::bind_http`]): the same epoll loop that multiplexes
//! framed E2/A1 sessions also answers operator GETs, so a `RicServer`
//! or a soak run exposes live state without a second event loop or
//! any new dependency. For poll-transport runs that have no reactor
//! of their own, [`OpsServer::spawn`] hosts the same handler on a
//! dedicated background reactor thread.
//!
//! Endpoints (all `GET`, keep-alive, bounded request heads):
//!
//! - `/metrics` — Prometheus exposition, byte-identical to
//!   [`Snapshot::render_prometheus`] of the same snapshot.
//! - `/healthz` — 200 while the recovery circuit is
//!   `Connected`/`Backoff` (the run still makes progress), 503 once
//!   it latches `Open`. Fed through a [`HealthHandle`].
//! - `/vars` — the full metrics snapshot as JSON.
//! - `/trace?n=K` — the most recent `K` journal events (default 128)
//!   from the attached [`Journal`], as JSON.
//!
//! [`Snapshot::render_prometheus`]: edgebol_metrics::Snapshot::render_prometheus

use crate::reactor::{HttpHandler, HttpResponse, Reactor, ReactorListener};
use crate::recovery::CircuitState;
use edgebol_metrics::Registry;
use edgebol_trace::{events_to_json, Journal};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Circuit codes mirrored into the health endpoint; the encoding is
/// the `edgebol_oran_circuit_state` gauge's (0 connected, 1 backoff,
/// 2 open, 3 half-open probe).
const CODE_CONNECTED: u8 = 0;
const CODE_BACKOFF: u8 = 1;
const CODE_OPEN: u8 = 2;
const CODE_HALF_OPEN: u8 = 3;

/// A cheap shared cell the run updates with its recovery
/// [`CircuitState`] so `/healthz` can answer without touching the
/// orchestrator: 200 while the code is anything but `Open`, 503 once
/// the circuit latches open.
#[derive(Clone, Debug)]
pub struct HealthHandle {
    state: Arc<AtomicU8>,
}

impl Default for HealthHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthHandle {
    /// A handle starting in the `Connected` state.
    pub fn new() -> Self {
        HealthHandle { state: Arc::new(AtomicU8::new(CODE_CONNECTED)) }
    }

    /// Records the current recovery circuit state.
    pub fn set(&self, state: CircuitState) {
        let code = match state {
            CircuitState::Connected => CODE_CONNECTED,
            CircuitState::Backoff { .. } => CODE_BACKOFF,
            CircuitState::Open { .. } => CODE_OPEN,
        };
        self.state.store(code, Ordering::Relaxed);
    }

    /// The last recorded circuit code.
    pub fn code(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    /// Whether `/healthz` currently answers 200.
    pub fn is_healthy(&self) -> bool {
        self.code() != CODE_OPEN
    }
}

/// Everything the ops endpoints read: the shared metrics registry,
/// an optional event journal and the health cell. This is the
/// [`HttpHandler`] given to [`Reactor::bind_http`] /
/// [`OpsServer::spawn`].
pub struct OpsState {
    registry: Registry,
    journal: Option<Arc<Journal>>,
    health: HealthHandle,
}

impl OpsState {
    /// Ops state over `registry`, healthy, with no journal attached.
    pub fn new(registry: Registry) -> Self {
        OpsState { registry, journal: None, health: HealthHandle::new() }
    }

    /// Attaches the journal behind `/trace`.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Uses an externally owned health cell (so the run can keep a
    /// clone and update it each period).
    pub fn with_health(mut self, health: HealthHandle) -> Self {
        self.health = health;
        self
    }

    /// A clone of the health cell feeding `/healthz`.
    pub fn health(&self) -> HealthHandle {
        self.health.clone()
    }
}

/// Returns the raw value of `key` in a query string (`a=1&b=2`).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

impl HttpHandler for OpsState {
    fn handle(&self, path: &str, query: &str) -> HttpResponse {
        match path {
            "/metrics" => {
                let body = self.registry.snapshot().render_prometheus();
                HttpResponse {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    body: body.into_bytes(),
                }
            }
            "/healthz" => {
                let code = self.health.code();
                let circuit = match code {
                    CODE_CONNECTED => "connected",
                    CODE_BACKOFF => "backoff",
                    CODE_OPEN => "open",
                    CODE_HALF_OPEN => "half-open",
                    _ => "unknown",
                };
                if code == CODE_OPEN {
                    HttpResponse::text(503, format!("unavailable circuit={circuit}\n"))
                } else {
                    HttpResponse::text(200, format!("ok circuit={circuit}\n"))
                }
            }
            "/vars" => HttpResponse::json(self.registry.snapshot().to_json()),
            "/trace" => {
                let n =
                    query_param(query, "n").and_then(|v| v.parse::<usize>().ok()).unwrap_or(128);
                let (recorded, overwritten, events) = match &self.journal {
                    Some(j) => (j.recorded(), j.overwritten(), j.tail(n)),
                    None => (0, 0, Vec::new()),
                };
                let body = format!(
                    "{{\"recorded\":{recorded},\"overwritten\":{overwritten},\"events\":{}}}",
                    events_to_json(&events)
                );
                HttpResponse::json(body)
            }
            _ => HttpResponse::text(404, &b"not found\n"[..]),
        }
    }
}

/// Hosts an [`OpsState`] on an existing reactor: operator connections
/// are served by whatever thread drives that reactor's turns (e.g.
/// `RicServer::poll`). Keep the returned listener alive for as long
/// as the surface should accept connections.
///
/// # Errors
/// An [`io::Error`] from binding or registering the listener.
pub fn serve_on(reactor: &Reactor, addr: &str, state: OpsState) -> io::Result<ReactorListener> {
    reactor.bind_http(addr, Arc::new(state))
}

/// A self-contained ops surface: its own reactor driven by one
/// background thread. Used by bench runs on the poll transport (and
/// by reactor-transport runs too, so operator traffic can never
/// perturb the deterministic episode loop). Dropping the server stops
/// the thread and closes the socket.
#[derive(Debug)]
pub struct OpsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the serving
    /// thread.
    ///
    /// # Errors
    /// An [`io::Error`] from creating the reactor or binding.
    pub fn spawn(addr: &str, state: OpsState) -> io::Result<OpsServer> {
        let reactor = Reactor::new(Registry::disabled())?;
        let listener = serve_on(&reactor, addr, state)?;
        let local_addr = listener.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new().name("edgebol-ops".into()).spawn(move || {
            // The listener must live on this thread: dropping it
            // deregisters the accept socket.
            let _listener = listener;
            while !stop_flag.load(Ordering::Relaxed) {
                if reactor.turn(25) == 0 {
                    // Idle: sleep a beat so the sweep backend does not
                    // spin a core (epoll already waited in turn()).
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        })?;
        Ok(OpsServer { local_addr, stop, thread: Some(thread) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Minimal test client: one request over a fresh connection with
    /// `Connection: close`, returning (status, body).
    fn http_get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).expect("read response");
        parse_response(&raw)
    }

    fn parse_response(raw: &[u8]) -> (u16, Vec<u8>) {
        let head_end =
            raw.windows(4).position(|w| w == b"\r\n\r\n").expect("complete response head");
        let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
        let status: u16 =
            head.split(' ').nth(1).expect("status code").parse().expect("numeric status");
        (status, raw[head_end + 4..].to_vec())
    }

    fn spawn_state(state: OpsState) -> OpsServer {
        OpsServer::spawn("127.0.0.1:0", state).expect("spawn ops server")
    }

    #[test]
    fn metrics_endpoint_matches_render_prometheus_byte_for_byte() {
        let reg = Registry::new();
        reg.counter("edgebol_test_requests_total").add(7);
        reg.gauge("edgebol_test_depth").set(2.5);
        let srv = spawn_state(OpsState::new(reg.clone()));
        let (status, body) = http_get(srv.local_addr(), "/metrics");
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), reg.snapshot().render_prometheus());
    }

    #[test]
    fn healthz_flips_to_503_when_the_circuit_opens() {
        let state = OpsState::new(Registry::disabled());
        let health = state.health();
        let srv = spawn_state(state);
        let (status, body) = http_get(srv.local_addr(), "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, b"ok circuit=connected\n");
        health.set(CircuitState::Backoff { attempt: 1, retry_at: 9 });
        let (status, _) = http_get(srv.local_addr(), "/healthz");
        assert_eq!(status, 200, "backoff still makes progress");
        health.set(CircuitState::Open { probe_at: 16 });
        let (status, body) = http_get(srv.local_addr(), "/healthz");
        assert_eq!(status, 503);
        assert_eq!(body, b"unavailable circuit=open\n");
        health.set(CircuitState::Connected);
        let (status, _) = http_get(srv.local_addr(), "/healthz");
        assert_eq!(status, 200);
    }

    #[test]
    fn trace_endpoint_serves_the_journal_tail_as_json() {
        use edgebol_trace::Layer;
        let journal = Arc::new(Journal::with_capacity(64));
        for p in 0..10 {
            journal.record(Layer::Orchestrator, "tick", Some(p), vec![]);
        }
        let srv = spawn_state(OpsState::new(Registry::disabled()).with_journal(journal));
        let (status, body) = http_get(srv.local_addr(), "/trace?n=3");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        edgebol_trace::json::validate(&text).expect("trace body must be valid JSON");
        assert!(text.contains("\"recorded\":10"), "{text}");
        assert_eq!(text.matches("\"kind\":\"tick\"").count(), 3, "{text}");
        assert!(text.contains("\"period\":9"), "{text}");
    }

    #[test]
    fn vars_endpoint_serves_the_snapshot_json() {
        let reg = Registry::new();
        reg.counter("edgebol_test_total").add(3);
        let srv = spawn_state(OpsState::new(reg.clone()));
        let (status, body) = http_get(srv.local_addr(), "/vars");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        edgebol_trace::json::validate(&text).expect("vars body must be valid JSON");
        assert!(text.contains("edgebol_test_total"), "{text}");
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let srv = spawn_state(OpsState::new(Registry::disabled()));
        let (status, _) = http_get(srv.local_addr(), "/nope");
        assert_eq!(status, 404);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let (status, _) = parse_response(&raw);
        assert_eq!(status, 405);
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let reg = Registry::new();
        reg.counter("edgebol_test_total").inc();
        let srv = spawn_state(OpsState::new(reg));
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
        for _ in 0..5 {
            write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (status, body) = read_keep_alive_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(body, b"ok circuit=connected\n");
        }
    }

    /// Reads exactly one response off a keep-alive connection using
    /// its Content-Length.
    fn read_keep_alive_response(r: &mut impl std::io::BufRead) -> (u16, Vec<u8>) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            r.read_line(&mut line).expect("read header line");
            if line == "\r\n" || line.is_empty() {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head.split(' ').nth(1).expect("status").parse().expect("numeric");
        let len: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from))
            .map(|v| v.trim().parse().expect("length"))
            .expect("Content-Length header");
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).expect("read body");
        (status, body)
    }
}
