//! Non-blocking reactor: one thread multiplexing many framed-TCP links.
//!
//! The poll-driven control plane pairs one blocking socket with one
//! actor; fleet-scale orchestration wants one near-RT RIC supervising
//! hundreds of E2 nodes and A1 sessions concurrently. This module is the
//! zero-dependency answer: a [`Reactor`] owns a slab of registered
//! connections ([`Token`] → connection state), runs a readiness loop
//! (epoll through a thin `mio`-style wrapper on Linux, a nonblocking
//! sweep everywhere else), drives partial reads and partial writes
//! through per-connection buffers, and reassembles the same
//! `u32 BE length | payload` framing the blocking [`FramedTcp`]
//! transport speaks — so decoded frames surface to the RIC actors as
//! whole messages through the existing [`Link`] trait.
//!
//! [`ReactorLink`] is that surface: a [`Link`] whose `send` enqueues a
//! framed payload into the connection's write buffer (flushed
//! opportunistically and on every turn) and whose `try_recv` pops the
//! connection's inbound frame queue. For **paired** loopback links
//! (built with [`Reactor::pair`], the orchestrator's construction path)
//! `try_recv` drives the reactor until the pipe is *quiescent* — every
//! frame the peer enqueued has been flushed, crossed the socket and been
//! reassembled — before reporting "nothing pending". That property makes
//! the reactor transport observationally identical to the in-process
//! [`Endpoint`]: the same polls see the same messages, so a fixed-seed
//! episode is f64-bit-identical across the two transports (pinned by
//! `tests/reactor.rs`).
//!
//! Unpaired connections (accepted from a real listener, where the peer
//! lives in another thread or process) make no quiescence promise:
//! `try_recv` performs one nonblocking turn and reports what has
//! arrived. The multi-node `RicServer` (in [`crate::ric`]) drives those
//! with explicit [`Reactor::turn`] calls from its accept loop.
//!
//! [`FramedTcp`]: crate::transport::FramedTcp
//! [`Endpoint`]: crate::transport::Endpoint

use crate::transport::{Link, MAX_FRAME_LEN};
use crate::OranError;
use edgebol_metrics::{Counter, Gauge, Registry};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Identifies one registered connection (or listener) inside a reactor.
///
/// Tokens are slab indices: stable for the lifetime of the registration,
/// recycled after the owning handle is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Readiness backend selection for [`Reactor::with_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorBackend {
    /// Level-triggered `epoll` through the thin FFI wrapper — Linux
    /// only; [`Reactor::with_backend`] reports `Unsupported` elsewhere.
    Epoll,
    /// Portable fallback: sweep every registered connection with
    /// nonblocking reads and let `WouldBlock` filter. O(connections) per
    /// turn instead of O(ready), but std-only.
    Sweep,
}

impl ReactorBackend {
    /// The default backend for this platform: epoll on Linux, the
    /// nonblocking sweep everywhere else. `EDGEBOL_REACTOR_BACKEND`
    /// (`epoll` | `sweep`) overrides, so CI can exercise the portable
    /// path on Linux too.
    ///
    /// # Panics
    /// Panics on a malformed `EDGEBOL_REACTOR_BACKEND` value — a
    /// misspelled knob must not silently select the wrong backend.
    pub fn from_env() -> Self {
        match std::env::var("EDGEBOL_REACTOR_BACKEND").as_deref() {
            Err(_) | Ok("") => {
                if cfg!(target_os = "linux") {
                    ReactorBackend::Epoll
                } else {
                    ReactorBackend::Sweep
                }
            }
            Ok("epoll") => ReactorBackend::Epoll,
            Ok("sweep") => ReactorBackend::Sweep,
            Ok(other) => {
                panic!("invalid EDGEBOL_REACTOR_BACKEND value {other:?}: expected epoll or sweep")
            }
        }
    }
}

/// Thin epoll wrapper: the `mio`-style readiness source on Linux.
///
/// Level-triggered, read-interest only — writes are flushed by sweeping
/// connections with pending bytes each turn, which keeps the interest
/// set static and the wrapper small.
#[cfg(target_os = "linux")]
mod epoll {
    use std::io;
    use std::os::unix::io::RawFd;

    // The kernel packs epoll_event on x86-64 (and x32); other
    // architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An epoll instance holding read interest for registered fds.
    #[derive(Debug)]
    pub struct Epoll {
        epfd: RawFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flag word and returns an fd
            // or -1; no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        /// Registers read/hangup interest for `fd` under `token`.
        pub fn add(&self, fd: RawFd, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent { events: EPOLLIN | EPOLLERR | EPOLLHUP, data: token as u64 };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Removes `fd` from the interest set (must precede closing it).
        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: the event argument is ignored for DEL on modern
            // kernels but must be non-null for pre-2.6.9 compatibility.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits up to `timeout_ms` and appends ready tokens to `out`.
        pub fn wait(&self, out: &mut Vec<usize>, timeout_ms: i32) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            loop {
                // SAFETY: `events` is a valid buffer of 64 entries for
                // the duration of the call.
                let n = unsafe {
                    epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                for ev in &events[..n as usize] {
                    // A packed struct field cannot be borrowed; copy out.
                    let data = ev.data;
                    out.push(data as usize);
                }
                return Ok(());
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd is a valid owned fd; double-close is
            // impossible because Drop runs once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// The readiness source behind a reactor.
#[derive(Debug)]
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Sweep,
}

impl Poller {
    fn new(backend: ReactorBackend) -> io::Result<Poller> {
        match backend {
            #[cfg(target_os = "linux")]
            ReactorBackend::Epoll => Ok(Poller::Epoll(epoll::Epoll::new()?)),
            #[cfg(not(target_os = "linux"))]
            ReactorBackend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend is Linux-only; use ReactorBackend::Sweep",
            )),
            ReactorBackend::Sweep => Ok(Poller::Sweep),
        }
    }

    fn backend(&self) -> ReactorBackend {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => ReactorBackend::Epoll,
            Poller::Sweep => ReactorBackend::Sweep,
        }
    }
}

#[cfg(target_os = "linux")]
fn raw_fd_of(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(target_os = "linux")]
fn raw_fd_of_listener(listener: &TcpListener) -> i32 {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

/// Why an inbound queue will never grow again.
#[derive(Debug)]
enum ClosedKind {
    /// Peer closed between frames — the clean hangup.
    Clean,
    /// Peer closed mid-frame (partial length prefix or payload).
    MidFrame,
    /// The stream declared an impossible frame and was abandoned.
    Framing(String),
    /// The socket itself failed.
    Io(io::ErrorKind, String),
}

impl ClosedKind {
    /// Reproduces the terminal error — called on every post-close
    /// receive, so the error kind persists instead of being one-shot.
    fn to_error(&self) -> OranError {
        match self {
            ClosedKind::Clean | ClosedKind::MidFrame => {
                OranError::ChannelClosed("tcp peer closed the connection")
            }
            ClosedKind::Framing(m) => OranError::Framing(m.clone()),
            ClosedKind::Io(kind, m) => OranError::Io(io::Error::new(*kind, m.clone())),
        }
    }
}

/// The link-facing side of a connection: decoded frames plus the reason
/// the stream ended. Shared between the reactor core (producer) and the
/// [`ReactorLink`] handle (consumer).
#[derive(Debug, Default)]
struct Inbound {
    q: Mutex<VecDeque<Vec<u8>>>,
    closed: Mutex<Option<ClosedKind>>,
}

impl Inbound {
    fn pop(&self) -> Option<Vec<u8>> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }

    fn push(&self, frame: Vec<u8>) {
        self.q.lock().unwrap_or_else(PoisonError::into_inner).push_back(frame);
    }

    fn close(&self, kind: ClosedKind) {
        let mut c = self.closed.lock().unwrap_or_else(PoisonError::into_inner);
        if c.is_none() {
            *c = Some(kind);
        }
    }

    fn closed_error(&self) -> Option<OranError> {
        self.closed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(ClosedKind::to_error)
    }

    fn is_closed(&self) -> bool {
        self.closed.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }
}

/// Maximum bytes of a single HTTP request head the reactor buffers
/// before answering 431 and hanging up — operator GETs are tiny, so
/// anything larger is garbage or abuse.
const MAX_HTTP_HEAD: usize = 16 * 1024;

/// A response produced by an [`HttpHandler`]. The reactor adds the
/// status line, `Content-Length` and `Connection` headers itself.
#[derive(Debug)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `text/plain; charset=utf-8` response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// A 200 `application/json` response.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        HttpResponse { status: 200, content_type: "application/json", body: body.into() }
    }
}

/// Serves `GET` requests arriving on HTTP connections hosted by a
/// reactor (see [`Reactor::bind_http`]). Handlers run on the reactor
/// thread while the core lock is held, so they must be fast and must
/// not call back into the same reactor.
pub trait HttpHandler: Send + Sync {
    /// Produces the response for `GET <path>?<query>`. `query` is the
    /// raw query string without the `?` (empty when absent).
    fn handle(&self, path: &str, query: &str) -> HttpResponse;
}

/// Per-connection state for an HTTP conversation.
struct HttpConnState {
    handler: Arc<dyn HttpHandler>,
    /// The final response has been queued; hang up once it flushes.
    close_after_flush: bool,
}

/// What protocol a connection speaks: the framed E2/A1 byte stream or
/// operator HTTP. HTTP connections are owned by the reactor itself
/// (no [`ReactorLink`] handle exists for them) and are reaped by
/// [`Core::turn`] when their conversation ends.
enum ConnKind {
    Framed,
    Http(HttpConnState),
}

impl fmt::Debug for ConnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnKind::Framed => f.write_str("Framed"),
            ConnKind::Http(h) => {
                f.debug_struct("Http").field("close_after_flush", &h.close_after_flush).finish()
            }
        }
    }
}

/// One registered connection: the nonblocking stream plus its partial
/// read/write state and delivery accounting.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Partial-frame reassembly buffer (bytes read, frames not yet
    /// complete).
    rd: Vec<u8>,
    /// Framed bytes enqueued by the link but not yet written; `wr_pos`
    /// is the flush cursor (compacted when it catches up).
    wr: Vec<u8>,
    wr_pos: usize,
    inbound: Arc<Inbound>,
    /// The other end of a loopback pair built by [`Reactor::pair`]; the
    /// quiescence check needs to see the peer's send accounting.
    peer: Option<Token>,
    /// Frames the local link enqueued on this connection.
    frames_sent: u64,
    /// Frames decoded off this connection into `inbound`.
    frames_delivered: u64,
    /// EOF or a fatal error was seen; no more reads.
    read_closed: bool,
    /// A write failed fatally; sends report the stored error.
    write_dead: bool,
    /// Protocol spoken on this connection (framed E2/A1 or HTTP).
    kind: ConnKind,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wr.len() - self.wr_pos
    }
}

/// A registered listener plus the tokens of freshly accepted (not yet
/// claimed) connections. A listener carrying an HTTP handler serves
/// accepted connections itself instead of queueing them for
/// [`ReactorListener::accept`].
struct ListenerState {
    listener: TcpListener,
    accepted: VecDeque<Token>,
    http: Option<Arc<dyn HttpHandler>>,
}

impl fmt::Debug for ListenerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ListenerState")
            .field("listener", &self.listener)
            .field("accepted", &self.accepted)
            .field("http", &self.http.is_some())
            .finish()
    }
}

/// Slab entries: connections and listeners share one token space.
#[derive(Debug)]
enum Entry {
    Conn(Conn),
    Listener(ListenerState),
}

/// Pre-resolved metric handles (no-ops on a disabled registry).
#[derive(Debug)]
struct ReactorMetrics {
    turns: Counter,
    frames_rx: Counter,
    frames_tx: Counter,
    bytes_rx: Counter,
    bytes_tx: Counter,
    accepts: Counter,
    sessions: Gauge,
    http_requests: Counter,
}

impl ReactorMetrics {
    fn new(reg: &Registry) -> Self {
        reg.describe("edgebol_oran_reactor_turns_total", "Reactor event-loop turns");
        reg.describe(
            "edgebol_oran_reactor_frames_total",
            "Frames moved by the reactor, by direction",
        );
        reg.describe(
            "edgebol_oran_reactor_bytes_total",
            "Payload bytes moved by the reactor, by direction",
        );
        reg.describe(
            "edgebol_oran_reactor_accepts_total",
            "Connections accepted by reactor listeners",
        );
        reg.describe(
            "edgebol_oran_reactor_sessions",
            "Connections currently registered in the slab",
        );
        reg.describe(
            "edgebol_oran_reactor_http_requests_total",
            "HTTP requests served by the ops surface",
        );
        ReactorMetrics {
            turns: reg.counter("edgebol_oran_reactor_turns_total"),
            frames_rx: reg.counter_with("edgebol_oran_reactor_frames_total", &[("dir", "rx")]),
            frames_tx: reg.counter_with("edgebol_oran_reactor_frames_total", &[("dir", "tx")]),
            bytes_rx: reg.counter_with("edgebol_oran_reactor_bytes_total", &[("dir", "rx")]),
            bytes_tx: reg.counter_with("edgebol_oran_reactor_bytes_total", &[("dir", "tx")]),
            accepts: reg.counter("edgebol_oran_reactor_accepts_total"),
            sessions: reg.gauge("edgebol_oran_reactor_sessions"),
            http_requests: reg.counter("edgebol_oran_reactor_http_requests_total"),
        }
    }
}

/// Outcome of scanning the read buffer for one HTTP request head.
enum HttpParse {
    /// The head is not complete yet; wait for more bytes.
    Partial,
    /// One complete, well-formed request head.
    Request {
        method: String,
        path: String,
        query: String,
        /// The client asked to close (or spoke HTTP/1.0).
        close: bool,
        /// The request declares a body, which this server rejects.
        has_body: bool,
        /// Bytes consumed by the head including the blank line.
        head_len: usize,
    },
    /// Unrecoverable garbage; answer 400 and hang up.
    Bad(&'static str),
}

/// Incremental HTTP/1.1 request-head parser: returns as soon as the
/// blank line is present, leaving any pipelined follow-up bytes in
/// the buffer. Only the request line, `Connection` and body-signalling
/// headers are interpreted; everything else is skipped.
fn parse_http_head(buf: &[u8]) -> HttpParse {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return HttpParse::Partial;
    };
    let Ok(head) = std::str::from_utf8(&buf[..end]) else {
        return HttpParse::Bad("request head is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return HttpParse::Bad("malformed request line");
    };
    if method.is_empty() || target.is_empty() {
        return HttpParse::Bad("malformed request line");
    }
    if !version.starts_with("HTTP/1.") {
        return HttpParse::Bad("unsupported HTTP version");
    }
    let mut close = version == "HTTP/1.0";
    let mut has_body = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            has_body = value != "0";
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    HttpParse::Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        close,
        has_body,
        head_len: end + 4,
    }
}

fn http_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Appends one full HTTP/1.1 response to the connection's write
/// buffer; the reactor's normal flush machinery drains it.
fn write_http_response(
    wr: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    let connection = if close { "close" } else { "keep-alive" };
    wr.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {len}\r\nConnection: {connection}\r\n\r\n",
            reason = http_reason(status),
            len = body.len(),
        )
        .as_bytes(),
    );
    wr.extend_from_slice(body);
}

/// Serves every complete request currently sitting in an HTTP
/// connection's read buffer. Keep-alive (and pipelined) requests are
/// answered in arrival order; the first fatal condition — oversized
/// head, malformed request, declared body, or `Connection: close` —
/// queues a final response and marks the connection for reaping once
/// the write buffer drains.
fn service_http(
    rd: &mut Vec<u8>,
    wr: &mut Vec<u8>,
    read_closed: &mut bool,
    http: &mut HttpConnState,
    requests: &Counter,
) {
    loop {
        if http.close_after_flush {
            // The conversation is over; discard anything else the
            // client optimistically pipelined.
            rd.clear();
            return;
        }
        match parse_http_head(rd) {
            HttpParse::Partial => {
                if rd.len() > MAX_HTTP_HEAD {
                    write_http_response(wr, 431, "text/plain", b"request head too large\n", true);
                    http.close_after_flush = true;
                    *read_closed = true;
                    rd.clear();
                }
                return;
            }
            HttpParse::Bad(msg) => {
                let body = format!("bad request: {msg}\n");
                write_http_response(wr, 400, "text/plain", body.as_bytes(), true);
                http.close_after_flush = true;
                *read_closed = true;
                rd.clear();
                return;
            }
            HttpParse::Request { method, path, query, close, has_body, head_len } => {
                rd.drain(..head_len);
                requests.inc();
                if has_body {
                    write_http_response(
                        wr,
                        400,
                        "text/plain",
                        b"request bodies are not supported\n",
                        true,
                    );
                    http.close_after_flush = true;
                    *read_closed = true;
                    rd.clear();
                    return;
                }
                let resp = if method == "GET" {
                    http.handler.handle(&path, &query)
                } else {
                    HttpResponse::text(405, &b"only GET is supported\n"[..])
                };
                write_http_response(wr, resp.status, resp.content_type, &resp.body, close);
                if close {
                    http.close_after_flush = true;
                    *read_closed = true;
                    rd.clear();
                    return;
                }
            }
        }
    }
}

/// The mutable heart of the reactor, behind one mutex.
#[derive(Debug)]
struct Core {
    poller: Poller,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    metrics: ReactorMetrics,
    /// Scratch for poller results, reused across turns.
    ready: Vec<usize>,
}

/// How long a paired `try_recv` keeps driving the loop while frames are
/// provably in flight before giving up. Loopback delivery is microseconds;
/// this bound only matters if the kernel misbehaves, and giving up
/// surfaces as a visible degraded event rather than a hang.
const QUIESCENCE_DEADLINE: Duration = Duration::from_secs(5);

impl Core {
    fn insert(&mut self, entry: Entry) -> Token {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(entry);
                i
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        Token(idx)
    }

    fn conn(&mut self, t: Token) -> Option<&mut Conn> {
        match self.slab.get_mut(t.0) {
            Some(Some(Entry::Conn(c))) => Some(c),
            _ => None,
        }
    }

    fn live_conns(&self) -> usize {
        self.slab.iter().filter(|e| matches!(e, Some(Entry::Conn(_)))).count()
    }

    /// Registers a connected stream; nonblocking + NODELAY are applied
    /// here so every registration path shares the setup.
    fn register_stream(&mut self, stream: TcpStream, peer: Option<Token>) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        // Control-plane frames are tiny; Nagle would batch them against
        // the quiescence-driven delivery the paired links rely on.
        stream.set_nodelay(true)?;
        let inbound = Arc::new(Inbound::default());
        let conn = Conn {
            stream,
            rd: Vec::new(),
            wr: Vec::new(),
            wr_pos: 0,
            inbound,
            peer,
            frames_sent: 0,
            frames_delivered: 0,
            read_closed: false,
            write_dead: false,
            kind: ConnKind::Framed,
        };
        let token = self.insert(Entry::Conn(conn));
        #[cfg(target_os = "linux")]
        if let Poller::Epoll(ep) = &self.poller {
            if let Some(Some(Entry::Conn(c))) = self.slab.get(token.0) {
                ep.add(raw_fd_of(&c.stream), token.0)?;
            }
        }
        self.metrics.sessions.set(self.live_conns() as f64);
        Ok(token)
    }

    fn register_listener(
        &mut self,
        listener: TcpListener,
        http: Option<Arc<dyn HttpHandler>>,
    ) -> io::Result<Token> {
        listener.set_nonblocking(true)?;
        let token = self.insert(Entry::Listener(ListenerState {
            listener,
            accepted: VecDeque::new(),
            http,
        }));
        #[cfg(target_os = "linux")]
        if let Poller::Epoll(ep) = &self.poller {
            if let Some(Some(Entry::Listener(l))) = self.slab.get(token.0) {
                ep.add(raw_fd_of_listener(&l.listener), token.0)?;
            }
        }
        Ok(token)
    }

    /// Tears a connection down: best-effort flush of pending writes,
    /// poller deregistration, fd close (by drop). The peer observes EOF
    /// on its next read.
    fn close_conn(&mut self, t: Token) {
        // Flush what we can so "sent before drop" frames still arrive —
        // the Endpoint contract for queued traffic surviving a hangup.
        let _ = self.flush_conn(t);
        if let Some(Some(entry)) = self.slab.get(t.0) {
            #[cfg(target_os = "linux")]
            if let Poller::Epoll(ep) = &self.poller {
                match entry {
                    Entry::Conn(c) => {
                        let _ = ep.del(raw_fd_of(&c.stream));
                    }
                    Entry::Listener(l) => {
                        let _ = ep.del(raw_fd_of_listener(&l.listener));
                    }
                }
            }
            let _ = entry; // non-Linux: nothing to deregister
        }
        if let Some(slot) = self.slab.get_mut(t.0) {
            if slot.take().is_some() {
                self.free.push(t.0);
            }
        }
        self.metrics.sessions.set(self.live_conns() as f64);
    }

    /// Writes as much of `t`'s pending buffer as the socket accepts.
    /// Returns the number of bytes written this call.
    fn flush_conn(&mut self, t: Token) -> usize {
        let m_bytes_tx = &self.metrics.bytes_tx;
        let Some(Some(Entry::Conn(conn))) = self.slab.get_mut(t.0) else { return 0 };
        if conn.write_dead {
            return 0;
        }
        let mut written = 0;
        while conn.wr_pos < conn.wr.len() {
            match conn.stream.write(&conn.wr[conn.wr_pos..]) {
                Ok(0) => {
                    conn.write_dead = true;
                    break;
                }
                Ok(n) => {
                    conn.wr_pos += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.write_dead = true;
                    break;
                }
            }
        }
        if conn.wr_pos == conn.wr.len() {
            conn.wr.clear();
            conn.wr_pos = 0;
        } else if conn.wr_pos > 64 * 1024 {
            // Compact a long-lived partial buffer so it cannot grow
            // without bound under sustained backpressure.
            conn.wr.drain(..conn.wr_pos);
            conn.wr_pos = 0;
        }
        m_bytes_tx.add(written as u64);
        written
    }

    /// Reads until `WouldBlock`/EOF and reassembles complete frames into
    /// the inbound queue. Returns bytes read.
    fn read_conn(&mut self, t: Token) -> usize {
        let m_bytes_rx = &self.metrics.bytes_rx;
        let m_frames_rx = &self.metrics.frames_rx;
        let m_http_requests = &self.metrics.http_requests;
        let Some(Some(Entry::Conn(conn))) = self.slab.get_mut(t.0) else { return 0 };
        if conn.read_closed {
            return 0;
        }
        let mut total = 0;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    conn.inbound.close(if conn.rd.is_empty() {
                        ClosedKind::Clean
                    } else {
                        ClosedKind::MidFrame
                    });
                    break;
                }
                Ok(n) => {
                    conn.rd.extend_from_slice(&buf[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    conn.read_closed = true;
                    conn.inbound.close(ClosedKind::Io(e.kind(), e.to_string()));
                    break;
                }
            }
        }
        if let ConnKind::Http(http) = &mut conn.kind {
            // Operator traffic: answer complete requests straight from
            // the buffer; the turn's flush machinery sends responses.
            service_http(&mut conn.rd, &mut conn.wr, &mut conn.read_closed, http, m_http_requests);
            m_bytes_rx.add(total as u64);
            return total;
        }
        // Frame reassembly: the same `u32 BE length | payload` framing
        // as FramedTcp, decoded incrementally — a length prefix or
        // payload split across reads (or WouldBlock boundaries) stays
        // buffered until its bytes arrive. Each payload is copied out
        // once; the consumed prefix is dropped after the scan.
        let mut at = 0;
        while let Some(&head) = conn.rd[at..].first_chunk::<4>() {
            let len = u32::from_be_bytes(head) as usize;
            if len > MAX_FRAME_LEN {
                conn.read_closed = true;
                conn.inbound.close(ClosedKind::Framing(format!(
                    "declared frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
                )));
                break;
            }
            let Some(payload) = conn.rd.get(at + 4..at + 4 + len) else { break };
            conn.inbound.push(payload.to_vec());
            at += 4 + len;
            conn.frames_delivered += 1;
            m_frames_rx.inc();
        }
        conn.rd.drain(..at);
        m_bytes_rx.add(total as u64);
        total
    }

    /// Accepts every pending connection on a listener.
    fn accept_ready(&mut self, t: Token) -> usize {
        let mut accepted = Vec::new();
        if let Some(Some(Entry::Listener(l))) = self.slab.get_mut(t.0) {
            loop {
                match l.listener.accept() {
                    Ok((stream, _)) => accepted.push(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        let n = accepted.len();
        let http = match self.slab.get(t.0) {
            Some(Some(Entry::Listener(l))) => l.http.clone(),
            _ => None,
        };
        for stream in accepted {
            if let Ok(token) = self.register_stream(stream, None) {
                match &http {
                    // HTTP listeners serve their connections in-loop;
                    // nobody claims them through accept().
                    Some(handler) => {
                        if let Some(conn) = self.conn(token) {
                            conn.kind = ConnKind::Http(HttpConnState {
                                handler: handler.clone(),
                                close_after_flush: false,
                            });
                        }
                        self.metrics.accepts.inc();
                    }
                    None => {
                        if let Some(Some(Entry::Listener(l))) = self.slab.get_mut(t.0) {
                            l.accepted.push_back(token);
                            self.metrics.accepts.inc();
                        }
                    }
                }
            }
        }
        n
    }

    /// One reactor turn: flush every pending write, collect readiness
    /// (waiting up to `timeout_ms`), then read/accept everything ready.
    /// Returns a progress measure (bytes moved + connections accepted).
    fn turn(&mut self, timeout_ms: u32) -> usize {
        self.metrics.turns.inc();
        let mut progress = 0;
        let tokens: Vec<usize> = (0..self.slab.len()).filter(|&i| self.slab[i].is_some()).collect();
        for &i in &tokens {
            if matches!(self.slab[i], Some(Entry::Conn(_))) {
                progress += self.flush_conn(Token(i));
            }
        }
        self.ready.clear();
        match &self.poller {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                let mut ready = std::mem::take(&mut self.ready);
                if ep.wait(&mut ready, timeout_ms as i32).is_err() {
                    // A failed wait degrades to a sweep: correctness
                    // never depends on the readiness hint.
                    ready.extend(tokens.iter().copied());
                }
                self.ready = ready;
            }
            Poller::Sweep => {
                self.ready.extend(tokens.iter().copied());
            }
        }
        let ready = std::mem::take(&mut self.ready);
        for &i in &ready {
            match self.slab.get(i) {
                Some(Some(Entry::Conn(_))) => progress += self.read_conn(Token(i)),
                Some(Some(Entry::Listener(_))) => progress += self.accept_ready(Token(i)),
                _ => {}
            }
        }
        self.ready = ready;
        // Reap finished HTTP connections: the reactor itself owns them
        // (no ReactorLink ever closes them), so a conversation whose
        // final response has flushed — or whose peer hung up — frees
        // its slab slot here instead of leaking it.
        let dead: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, entry)| match entry {
                Some(Entry::Conn(c)) => match &c.kind {
                    ConnKind::Http(h) => {
                        let flushed = c.pending_write() == 0;
                        let done =
                            c.write_dead || (flushed && (c.read_closed || h.close_after_flush));
                        done.then_some(i)
                    }
                    ConnKind::Framed => None,
                },
                _ => None,
            })
            .collect();
        for i in dead {
            self.close_conn(Token(i));
        }
        if progress == 0 && timeout_ms > 0 && matches!(self.poller, Poller::Sweep) {
            // The sweep backend has no blocking wait; yield briefly so a
            // quiescence-driving caller does not spin a core while the
            // kernel finishes loopback delivery.
            std::thread::sleep(Duration::from_micros(200));
        }
        progress
    }

    /// Drives turns until `t` has an inbound frame, its stream closed,
    /// or — for paired links — the pipe is provably quiescent (peer has
    /// nothing enqueued, buffered, or in flight toward us).
    fn drive_for(&mut self, t: Token) {
        let deadline = Instant::now() + QUIESCENCE_DEADLINE;
        loop {
            self.turn(0);
            let Some(conn) = self.conn(t) else { return };
            if !conn.inbound.q.lock().unwrap_or_else(PoisonError::into_inner).is_empty()
                || conn.inbound.is_closed()
            {
                return;
            }
            let delivered = conn.frames_delivered;
            let peer = conn.peer;
            match peer {
                None => return, // unpaired: one nonblocking sweep only
                Some(p) => match self.conn(p) {
                    // Peer link was dropped and its conn torn down: keep
                    // turning until our side reads the EOF.
                    None => {}
                    Some(pc) if pc.frames_sent == delivered && pc.pending_write() == 0 => {
                        return; // quiescent: nothing in flight
                    }
                    Some(_) => {}
                },
            }
            if Instant::now() >= deadline {
                return;
            }
            // Frames are in flight; wait for the kernel to surface them.
            self.turn(1);
        }
    }
}

/// A handle to a shared reactor. Cheap to clone; the core lives while
/// any handle or link referencing it does.
#[derive(Debug, Clone)]
pub struct Reactor {
    core: Arc<Mutex<Core>>,
}

impl Reactor {
    /// Creates a reactor on the platform-default backend (see
    /// [`ReactorBackend::from_env`]) recording traffic into `metrics`:
    /// `edgebol_oran_reactor_turns_total`, `_frames_total{dir}`,
    /// `_bytes_total{dir}`, `_accepts_total` and the
    /// `edgebol_oran_reactor_sessions` gauge; [`Registry::disabled`]
    /// records nothing.
    ///
    /// # Errors
    /// An [`io::Error`] when the readiness source cannot be created.
    pub fn new(metrics: Registry) -> io::Result<Self> {
        Self::build(ReactorBackend::from_env(), metrics)
    }

    /// Creates a reactor on an explicit backend (tests pin the sweep
    /// fallback this way without touching the environment).
    ///
    /// # Errors
    /// An [`io::Error`] when the backend is unsupported on this platform
    /// or the readiness source cannot be created.
    pub fn with_backend(backend: ReactorBackend) -> io::Result<Self> {
        Self::build(backend, Registry::disabled())
    }

    fn build(backend: ReactorBackend, metrics: Registry) -> io::Result<Self> {
        let poller = Poller::new(backend)?;
        Ok(Reactor {
            core: Arc::new(Mutex::new(Core {
                poller,
                slab: Vec::new(),
                free: Vec::new(),
                metrics: ReactorMetrics::new(&metrics),
                ready: Vec::new(),
            })),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The backend this reactor runs on.
    pub fn backend(&self) -> ReactorBackend {
        self.lock().poller.backend()
    }

    /// Registered live connections (paired + accepted).
    pub fn connections(&self) -> usize {
        self.lock().live_conns()
    }

    /// High-water mark of the registration slab (live + vacated slots).
    /// Vacated slots are recycled through a free list, so this stays
    /// flat under connection churn — pinned by `tests/reactor.rs`.
    pub fn slot_count(&self) -> usize {
        self.lock().slab.len()
    }

    /// Builds a connected loopback pair registered with this reactor.
    /// The two links know each other, so `try_recv` on either side can
    /// drive the loop to quiescence — the property the orchestrator's
    /// bit-identity contract rests on.
    ///
    /// # Errors
    /// An [`io::Error`] from binding, connecting or registering the
    /// loopback sockets.
    pub fn pair(&self) -> io::Result<(ReactorLink, ReactorLink)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let a = TcpStream::connect(addr)?;
        let (b, _) = listener.accept()?;
        let mut core = self.lock();
        let ta = core.register_stream(a, None)?;
        let tb = core.register_stream(b, Some(ta))?;
        if let Some(conn) = core.conn(ta) {
            conn.peer = Some(tb);
        }
        let ia = core.conn(ta).map(|c| c.inbound.clone()).expect("conn just registered");
        let ib = core.conn(tb).map(|c| c.inbound.clone()).expect("conn just registered");
        drop(core);
        Ok((
            ReactorLink { core: self.core.clone(), token: ta, inbound: ia },
            ReactorLink { core: self.core.clone(), token: tb, inbound: ib },
        ))
    }

    /// Binds a listener and registers it: accepted connections surface
    /// through [`ReactorListener::accept`] after a [`Reactor::turn`].
    ///
    /// # Errors
    /// An [`io::Error`] from binding or registering the listener.
    pub fn bind(&self, addr: &str) -> io::Result<ReactorListener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let token = self.lock().register_listener(listener, None)?;
        Ok(ReactorListener { core: self.core.clone(), token, local_addr })
    }

    /// Binds an operator HTTP listener on this reactor: connections it
    /// accepts speak HTTP/1.1 (keep-alive, `GET` only, bounded request
    /// heads) and are served by `handler` during normal reactor turns —
    /// the same thread that multiplexes the framed E2/A1 sessions.
    /// Dropping the returned listener stops accepting; in-flight
    /// connections finish their current exchange and are reaped.
    ///
    /// # Errors
    /// An [`io::Error`] from binding or registering the listener.
    pub fn bind_http(
        &self,
        addr: &str,
        handler: Arc<dyn HttpHandler>,
    ) -> io::Result<ReactorListener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let token = self.lock().register_listener(listener, Some(handler))?;
        Ok(ReactorListener { core: self.core.clone(), token, local_addr })
    }

    /// One explicit reactor turn (flush writes, poll readiness up to
    /// `timeout_ms`, read/accept everything ready). Returns a progress
    /// measure — bytes moved plus connections accepted. Server loops
    /// (e.g. `RicServer`) call this; paired links drive turns
    /// implicitly from `try_recv`.
    pub fn turn(&self, timeout_ms: u32) -> usize {
        self.lock().turn(timeout_ms)
    }
}

/// A registered accepting socket; see [`Reactor::bind`].
#[derive(Debug)]
pub struct ReactorListener {
    core: Arc<Mutex<Core>>,
    token: Token,
    local_addr: SocketAddr,
}

impl ReactorListener {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Claims the next accepted connection, if any. Connections are
    /// accepted during reactor turns; drive [`Reactor::turn`] first.
    pub fn accept(&self) -> Option<ReactorLink> {
        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let token = match core.slab.get_mut(self.token.0) {
            Some(Some(Entry::Listener(l))) => l.accepted.pop_front()?,
            _ => return None,
        };
        let inbound = core.conn(token)?.inbound.clone();
        Some(ReactorLink { core: self.core.clone(), token, inbound })
    }
}

impl Drop for ReactorListener {
    fn drop(&mut self) {
        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        core.close_conn(self.token);
    }
}

/// A [`Link`] carried by a reactor-managed framed-TCP connection.
///
/// `send` frames the payload (`u32 BE length | payload`, the
/// [`FramedTcp`](crate::transport::FramedTcp) wire format) into the
/// connection's write buffer and flushes opportunistically; `try_recv`
/// pops reassembled frames, driving the reactor to quiescence first for
/// paired links. Dropping the link flushes what it can, closes the
/// socket and deregisters the connection — the peer then drains queued
/// traffic and sees [`OranError::ChannelClosed`], exactly like a dropped
/// [`Endpoint`](crate::transport::Endpoint) clone.
#[derive(Debug)]
pub struct ReactorLink {
    core: Arc<Mutex<Core>>,
    token: Token,
    inbound: Arc<Inbound>,
}

impl ReactorLink {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Link for ReactorLink {
    /// Sends one frame (nonblocking: unsent bytes stay buffered).
    ///
    /// # Errors
    /// [`OranError::Framing`] for payloads beyond
    /// [`MAX_FRAME_LEN`]; [`OranError::ChannelClosed`] when the
    /// connection is gone or the peer hung up.
    fn send(&self, msg: Vec<u8>) -> Result<(), OranError> {
        if msg.len() > MAX_FRAME_LEN {
            return Err(OranError::Framing(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                msg.len()
            )));
        }
        // Mirror Endpoint: sending to a peer that already hung up fails
        // even though the kernel might still accept the bytes.
        if self.inbound.is_closed() {
            return Err(OranError::ChannelClosed("tcp peer closed the connection"));
        }
        let mut core = self.lock();
        let Some(conn) = core.conn(self.token) else {
            return Err(OranError::ChannelClosed("reactor connection closed"));
        };
        if conn.write_dead {
            return Err(OranError::ChannelClosed("tcp peer closed the connection"));
        }
        conn.wr.extend_from_slice(&(msg.len() as u32).to_be_bytes());
        conn.wr.extend_from_slice(&msg);
        conn.frames_sent += 1;
        core.metrics.frames_tx.inc();
        core.flush_conn(self.token);
        Ok(())
    }

    /// Receives the next reassembled frame without blocking. For paired
    /// links this first drives the reactor until every in-flight frame
    /// has landed, so `Ok(None)` means *nothing was sent*, not *nothing
    /// has arrived yet*.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the stream ended and the queue
    /// is drained; [`OranError::Framing`]/[`OranError::Io`] reproduce
    /// the terminal stream error on every later call.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, OranError> {
        if let Some(m) = self.inbound.pop() {
            return Ok(Some(m));
        }
        self.lock().drive_for(self.token);
        if let Some(m) = self.inbound.pop() {
            return Ok(Some(m));
        }
        match self.inbound.closed_error() {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }
}

impl Drop for ReactorLink {
    fn drop(&mut self) {
        self.lock().close_conn(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reactors() -> Vec<Reactor> {
        let mut rs = vec![Reactor::with_backend(ReactorBackend::Sweep).expect("sweep reactor")];
        if cfg!(target_os = "linux") {
            rs.push(Reactor::with_backend(ReactorBackend::Epoll).expect("epoll reactor"));
        }
        rs
    }

    #[test]
    fn pair_roundtrip_on_every_backend() {
        for r in reactors() {
            let (a, b) = r.pair().expect("pair");
            a.send(b"one".to_vec()).unwrap();
            a.send(b"two".to_vec()).unwrap();
            assert_eq!(b.try_recv().unwrap().unwrap(), b"one".to_vec());
            assert_eq!(b.try_recv().unwrap().unwrap(), b"two".to_vec());
            assert!(b.try_recv().unwrap().is_none());
            b.send(b"pong".to_vec()).unwrap();
            assert_eq!(a.try_recv().unwrap().unwrap(), b"pong".to_vec());
        }
    }

    #[test]
    fn empty_and_large_frames_cross_the_pair() {
        let r = Reactor::new(Registry::disabled()).unwrap();
        let (a, b) = r.pair().unwrap();
        a.send(Vec::new()).unwrap();
        let big = vec![0xAB; 300_000];
        a.send(big.clone()).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(b.try_recv().unwrap().unwrap(), big);
    }

    #[test]
    fn quiescent_try_recv_never_misses_a_sent_frame() {
        // The bit-identity property in miniature: a frame sent before
        // try_recv is always visible to it, with no sleeps in between.
        let r = Reactor::new(Registry::disabled()).unwrap();
        let (a, b) = r.pair().unwrap();
        for i in 0..200u32 {
            a.send(i.to_be_bytes().to_vec()).unwrap();
            let got = b.try_recv().unwrap().expect("sent frame must be visible");
            assert_eq!(&got[..], i.to_be_bytes());
        }
    }

    #[test]
    fn dropped_peer_drains_then_reports_closed() {
        let r = Reactor::new(Registry::disabled()).unwrap();
        let (a, b) = r.pair().unwrap();
        a.send(b"last words".to_vec()).unwrap();
        drop(a);
        assert_eq!(b.try_recv().unwrap().unwrap(), b"last words".to_vec());
        for _ in 0..3 {
            assert!(matches!(b.try_recv(), Err(OranError::ChannelClosed(_))));
        }
        // And sending toward the dead peer fails like an Endpoint's.
        assert!(matches!(b.send(b"x".to_vec()), Err(OranError::ChannelClosed(_))));
    }

    #[test]
    fn oversized_send_is_a_framing_error() {
        let r = Reactor::new(Registry::disabled()).unwrap();
        let (a, _b) = r.pair().unwrap();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(a.send(huge), Err(OranError::Framing(_))));
    }

    #[test]
    fn oversized_declared_length_kills_the_stream_with_framing() {
        // A hostile peer writing an impossible prefix: the link surfaces
        // Framing, and keeps surfacing it (persistent terminal error).
        let r = Reactor::new(Registry::disabled()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let link = {
            let mut core = r.lock();
            let t = core.register_stream(accepted, None).unwrap();
            let inbound = core.conn(t).unwrap().inbound.clone();
            ReactorLink { core: r.core.clone(), token: t, inbound }
        };
        let mut raw = raw;
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.flush().unwrap();
        // Unpaired link: allow the bytes to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match link.try_recv() {
                Err(OranError::Framing(_)) => break,
                Err(e) => panic!("expected Framing, got {e:?}"),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => panic!("expected Framing, got {other:?}"),
            }
        }
        assert!(matches!(link.try_recv(), Err(OranError::Framing(_))), "error must persist");
    }

    #[test]
    fn listener_accepts_through_turns() {
        let r = Reactor::new(Registry::disabled()).unwrap();
        let listener = r.bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let link = loop {
            r.turn(1);
            if let Some(l) = listener.accept() {
                break l;
            }
            assert!(Instant::now() < deadline, "accept never surfaced");
        };
        // Client speaks the framed protocol over the raw socket.
        client.write_all(&3u32.to_be_bytes()).unwrap();
        client.write_all(b"abc").unwrap();
        client.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            r.turn(1);
            match link.try_recv().unwrap() {
                Some(f) => {
                    assert_eq!(&f[..], b"abc");
                    break;
                }
                None => assert!(Instant::now() < deadline, "frame never surfaced"),
            }
        }
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn partial_frames_across_wouldblock_boundaries_resync() {
        // Satellite contract: a length prefix and payload split across
        // many writes — with try_recv (and thus WouldBlock) observed
        // between every chunk — reassemble without loss.
        let r = Reactor::new(Registry::disabled()).unwrap();
        let listener = r.bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let link = loop {
            r.turn(1);
            if let Some(l) = listener.accept() {
                break l;
            }
            assert!(Instant::now() < deadline, "accept never surfaced");
        };
        let payload = b"split-frame-payload";
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(payload);
        // Dribble one byte at a time; poll the link in between so the
        // decoder sees every possible partial state.
        for (i, byte) in wire.iter().enumerate() {
            client.write_all(std::slice::from_ref(byte)).unwrap();
            client.flush().unwrap();
            if i + 1 < wire.len() {
                // Let the byte land, then confirm no premature frame.
                let settle = Instant::now() + Duration::from_millis(5);
                while Instant::now() < settle {
                    r.turn(0);
                }
                assert_eq!(link.try_recv().unwrap(), None, "partial frame must stay buffered");
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            r.turn(1);
            if let Some(f) = link.try_recv().unwrap() {
                assert_eq!(&f[..], payload);
                break;
            }
            assert!(Instant::now() < deadline, "frame never completed");
        }
        // A second frame immediately after proves the codec resynced.
        client.write_all(&2u32.to_be_bytes()).unwrap();
        client.write_all(b"ok").unwrap();
        client.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            r.turn(1);
            if let Some(f) = link.try_recv().unwrap() {
                assert_eq!(&f[..], b"ok");
                break;
            }
            assert!(Instant::now() < deadline, "second frame never arrived");
        }
    }

    #[test]
    fn token_slots_are_recycled() {
        let r = Reactor::new(Registry::disabled()).unwrap();
        let (a, b) = r.pair().unwrap();
        drop(a);
        drop(b);
        assert_eq!(r.connections(), 0);
        let (c, d) = r.pair().unwrap();
        c.send(b"reused".to_vec()).unwrap();
        assert_eq!(d.try_recv().unwrap().unwrap(), b"reused".to_vec());
        assert_eq!(r.connections(), 2);
    }

    #[test]
    fn links_move_across_threads() {
        let r = Reactor::new(Registry::disabled()).unwrap();
        let (a, b) = r.pair().unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..50u8 {
                a.send(vec![i]).unwrap();
            }
        });
        t.join().unwrap();
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while got < 50 {
            if let Ok(Some(_)) = b.try_recv() {
                got += 1;
            }
            assert!(Instant::now() < deadline, "only {got}/50 frames arrived");
        }
    }
}
