//! Duplex byte transports: in-process channels and framed TCP.

use crate::OranError;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Upper bound on a single framed-TCP payload; anything larger is a
/// corrupt or hostile peer, not a real control-plane message.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A message-oriented duplex link, as the RIC actors see it.
///
/// [`Endpoint`] is the plain in-process implementation,
/// [`crate::reactor::ReactorLink`] the framed-TCP one, and
/// [`crate::chaos::ChaosEndpoint`] the fault-injecting decorator the
/// chaos layer threads underneath the same actors. Methods take `&self`
/// (implementations use interior mutability) so links can be shared the
/// way `Endpoint` clones are.
pub trait Link: Send {
    /// Sends one message.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the link is down.
    fn send(&self, msg: Vec<u8>) -> Result<(), OranError>;

    /// Receives the next pending message without blocking; `Ok(None)`
    /// when the queue is empty but the link is alive.
    ///
    /// Once the link is down and drained, every later call reports the
    /// terminal error again: each implementation re-derives it from its
    /// own state (a dropped peer, a latched close reason, a cut window),
    /// which is what lets [`Link::drain`] defer it.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when the link is down and drained.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, OranError>;

    /// Drains all pending messages.
    ///
    /// Already-queued traffic always comes out: when the link is down but
    /// messages were collected first, those messages are returned and the
    /// error surfaces on the *next* call, with its kind intact.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] (or the link's terminal error) when
    /// the link is down and nothing was pending — a closed-then-drained
    /// link must report, not read as silently empty.
    fn drain(&self) -> Result<Vec<Vec<u8>>, OranError> {
        let mut out = Vec::new();
        loop {
            match self.try_recv() {
                Ok(Some(m)) => out.push(m),
                Ok(None) => return Ok(out),
                Err(e) if out.is_empty() => return Err(e),
                // Deferred close: the next call re-derives the error.
                Err(_) => return Ok(out),
            }
        }
    }
}

/// One direction of the in-process pipe: an unbounded FIFO plus liveness
/// counters so each side can detect the other hanging up.
#[derive(Debug, Default)]
struct Channel {
    queue: Mutex<VecDeque<Vec<u8>>>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl Channel {
    fn push(&self, msg: Vec<u8>) {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).push_back(msg);
    }

    fn pop(&self) -> Option<Vec<u8>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }
}

/// One end of a duplex, message-oriented byte pipe.
///
/// The in-process implementation used throughout the orchestrator and the
/// tests; each `send` delivers one whole message (no framing needed).
/// Clones share both directions (multiple producers/consumers), and the
/// pipe counts live clones per side so a fully dropped peer turns into
/// [`OranError::ChannelClosed`] rather than silence.
#[derive(Debug)]
pub struct Endpoint {
    /// Direction this end sends on.
    out: Arc<Channel>,
    /// Direction this end receives on.
    inc: Arc<Channel>,
}

/// Creates a connected pair of endpoints.
pub fn duplex_pair() -> (Endpoint, Endpoint) {
    let ab = Arc::new(Channel::default());
    let ba = Arc::new(Channel::default());
    let a = Endpoint::attach(ab.clone(), ba.clone());
    let b = Endpoint::attach(ba, ab);
    (a, b)
}

impl Endpoint {
    fn attach(out: Arc<Channel>, inc: Arc<Channel>) -> Self {
        out.senders.fetch_add(1, Ordering::SeqCst);
        inc.receivers.fetch_add(1, Ordering::SeqCst);
        Endpoint { out, inc }
    }
}

impl Link for Endpoint {
    /// Sends one message.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when every clone of the peer endpoint
    /// was dropped.
    fn send(&self, msg: Vec<u8>) -> Result<(), OranError> {
        if self.out.receivers.load(Ordering::SeqCst) == 0 {
            return Err(OranError::ChannelClosed("peer endpoint dropped"));
        }
        self.out.push(msg);
        Ok(())
    }

    /// Receives the next pending message without blocking.
    ///
    /// # Errors
    /// [`OranError::ChannelClosed`] when every clone of the peer endpoint
    /// was dropped and the queue is drained.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, OranError> {
        if let Some(m) = self.inc.pop() {
            return Ok(Some(m));
        }
        if self.inc.senders.load(Ordering::SeqCst) == 0 {
            return Err(OranError::ChannelClosed("peer endpoint dropped"));
        }
        Ok(None)
    }
}

impl Clone for Endpoint {
    fn clone(&self) -> Self {
        Endpoint::attach(self.out.clone(), self.inc.clone())
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.out.senders.fetch_sub(1, Ordering::SeqCst);
        self.inc.receivers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Which transport carries the orchestrator's A1/E2 links.
///
/// Selected per construction (`Orchestrator::new_with_transport`; the
/// bench harness fills it from the `EDGEBOL_TRANSPORT` knob). Both kinds
/// build the same actors over [`AnyLink`], and `tests/reactor.rs` pins
/// that a fixed-seed episode is f64-bit-identical across the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process mutex-guarded queues ([`duplex_pair`]) — the seed
    /// transport, zero syscalls.
    #[default]
    Poll,
    /// Reactor-managed nonblocking framed TCP over loopback
    /// ([`crate::reactor::Reactor::pair`]) — the fleet-scale transport.
    Reactor,
}

/// A [`Link`] over either transport, so the orchestrator's actors are
/// monomorphic regardless of which transport the episode runs on — the
/// same types run the poll-driven seed path and the reactor path, which
/// is what makes the bit-identity comparison meaningful.
#[derive(Debug)]
pub enum AnyLink {
    /// An in-process [`Endpoint`] half.
    InProc(Endpoint),
    /// A reactor-managed framed-TCP link.
    Reactor(crate::reactor::ReactorLink),
}

impl Link for AnyLink {
    fn send(&self, msg: Vec<u8>) -> Result<(), OranError> {
        match self {
            AnyLink::InProc(l) => l.send(msg),
            AnyLink::Reactor(l) => l.send(msg),
        }
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, OranError> {
        match self {
            AnyLink::InProc(l) => l.try_recv(),
            AnyLink::Reactor(l) => l.try_recv(),
        }
    }
}

impl From<Endpoint> for AnyLink {
    fn from(e: Endpoint) -> Self {
        AnyLink::InProc(e)
    }
}

impl From<crate::reactor::ReactorLink> for AnyLink {
    fn from(l: crate::reactor::ReactorLink) -> Self {
        AnyLink::Reactor(l)
    }
}

/// A blocking, length-framed TCP transport: `u32 BE length | payload`.
///
/// The same framing the E2 codec uses internally, applied at the socket
/// boundary so arbitrary transports can carry A1 JSON or E2 frames. It
/// is the independent blocking peer that the tests and the networked RIC
/// example drive a [`crate::reactor::Reactor`] with, one thread per node.
#[derive(Debug)]
pub struct FramedTcp {
    stream: TcpStream,
}

impl FramedTcp {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        FramedTcp { stream }
    }

    /// Connects to `addr` (e.g. `127.0.0.1:36421`).
    pub fn connect(addr: &str) -> Result<Self, OranError> {
        Ok(FramedTcp { stream: TcpStream::connect(addr)? })
    }

    /// Sends one frame.
    ///
    /// # Errors
    /// [`OranError::Framing`] for payloads beyond [`MAX_FRAME_LEN`];
    /// [`OranError::Io`] on socket failure.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), OranError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(OranError::Framing(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                payload.len()
            )));
        }
        let len = payload.len() as u32;
        self.stream.write_all(&len.to_be_bytes())?;
        self.stream.write_all(payload)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Receives one frame (blocking).
    ///
    /// # Errors
    /// [`OranError::Framing`] when the declared length exceeds
    /// [`MAX_FRAME_LEN`]; [`OranError::ChannelClosed`] when the peer
    /// closes the socket cleanly between frames or mid-frame;
    /// [`OranError::Io`] for other socket failures.
    pub fn recv(&mut self) -> Result<Vec<u8>, OranError> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf).map_err(Self::map_eof)?;
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(OranError::Framing(format!(
                "declared frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload).map_err(Self::map_eof)?;
        Ok(payload)
    }

    fn map_eof(e: std::io::Error) -> OranError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            OranError::ChannelClosed("tcp peer closed the connection")
        } else {
            OranError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn duplex_delivers_in_order() {
        let (a, b) = duplex_pair();
        a.send(b"one".to_vec()).unwrap();
        a.send(b"two".to_vec()).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"one".to_vec());
        assert_eq!(b.try_recv().unwrap().unwrap(), b"two".to_vec());
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn duplex_is_bidirectional() {
        let (a, b) = duplex_pair();
        a.send(b"ping".to_vec()).unwrap();
        b.send(b"pong".to_vec()).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"ping".to_vec());
        assert_eq!(a.try_recv().unwrap().unwrap(), b"pong".to_vec());
    }

    #[test]
    fn dropped_peer_is_channel_closed() {
        let (a, b) = duplex_pair();
        drop(b);
        assert!(matches!(a.send(b"x".to_vec()), Err(OranError::ChannelClosed(_))));
        assert!(matches!(a.try_recv(), Err(OranError::ChannelClosed(_))));
    }

    #[test]
    fn queued_messages_survive_peer_drop() {
        // Like crossbeam: already-sent traffic drains before the closed
        // channel reports.
        let (a, b) = duplex_pair();
        a.send(b"last words".to_vec()).unwrap();
        drop(a);
        assert_eq!(b.try_recv().unwrap().unwrap(), b"last words".to_vec());
        assert!(matches!(b.try_recv(), Err(OranError::ChannelClosed(_))));
    }

    #[test]
    fn clones_keep_the_channel_open() {
        let (a, b) = duplex_pair();
        let b2 = b.clone();
        drop(b);
        a.send(b"still here".to_vec()).unwrap();
        assert_eq!(b2.try_recv().unwrap().unwrap(), b"still here".to_vec());
        drop(b2);
        assert!(a.send(b"gone".to_vec()).is_err());
    }

    #[test]
    fn drain_empties_queue() {
        let (a, b) = duplex_pair();
        for i in 0..5u8 {
            a.send(vec![i]).unwrap();
        }
        let msgs = b.drain().unwrap();
        assert_eq!(msgs.len(), 5);
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn try_recv_after_close_drains_then_errors() {
        // Queued traffic first, then ChannelClosed on every later call —
        // never a silent Ok(None).
        let (a, b) = duplex_pair();
        a.send(b"one".to_vec()).unwrap();
        a.send(b"two".to_vec()).unwrap();
        drop(a);
        assert_eq!(b.try_recv().unwrap().unwrap(), b"one".to_vec());
        assert_eq!(b.try_recv().unwrap().unwrap(), b"two".to_vec());
        for _ in 0..3 {
            assert!(matches!(b.try_recv(), Err(OranError::ChannelClosed(_))));
        }
    }

    #[test]
    fn drain_after_close_returns_queued_then_errors() {
        let (a, b) = duplex_pair();
        a.send(b"last".to_vec()).unwrap();
        drop(a);
        // First drain yields the queued traffic; the close surfaces on
        // the next drain instead of a silent empty vec.
        assert_eq!(b.drain().unwrap(), vec![b"last".to_vec()]);
        assert!(matches!(b.drain(), Err(OranError::ChannelClosed(_))));
        assert!(matches!(b.drain(), Err(OranError::ChannelClosed(_))));
    }

    #[test]
    fn drain_on_closed_empty_link_is_channel_closed_not_empty() {
        let (a, b) = duplex_pair();
        drop(a);
        assert!(matches!(b.drain(), Err(OranError::ChannelClosed(_))));
    }

    #[test]
    fn transport_kind_default_is_poll() {
        assert_eq!(TransportKind::default(), TransportKind::Poll);
    }

    #[test]
    fn any_link_wraps_endpoints_transparently() {
        let (a, b) = duplex_pair();
        let (a, b) = (AnyLink::from(a), AnyLink::from(b));
        a.send(b"via any".to_vec()).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"via any".to_vec());
        assert!(b.try_recv().unwrap().is_none());
        drop(a);
        assert!(matches!(b.try_recv(), Err(OranError::ChannelClosed(_))));
    }

    #[test]
    fn endpoints_move_across_threads() {
        let (a, b) = duplex_pair();
        let t = thread::spawn(move || {
            for i in 0..100u8 {
                a.send(vec![i]).unwrap();
            }
        });
        t.join().unwrap();
        assert_eq!(b.drain().unwrap().len(), 100);
    }

    #[test]
    fn framed_tcp_roundtrip_localhost() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut t = FramedTcp::new(stream);
            let m = t.recv().expect("recv");
            // Echo back reversed.
            let rev: Vec<u8> = m.iter().rev().copied().collect();
            t.send(&rev).expect("send");
        });
        let mut client = FramedTcp::connect(&addr.to_string()).expect("connect");
        client.send(b"edgebol").expect("send");
        let echo = client.recv().expect("recv");
        assert_eq!(&echo[..], b"lobegde");
        server.join().unwrap();
    }

    #[test]
    fn framed_tcp_carries_empty_and_large_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::new(stream);
            let a = t.recv().unwrap();
            let b = t.recv().unwrap();
            t.send(&[a.len() as u8]).unwrap();
            t.send(&(b.len() as u32).to_be_bytes()).unwrap();
        });
        let mut client = FramedTcp::connect(&addr.to_string()).unwrap();
        client.send(&[]).unwrap();
        let big = vec![0xAB; 100_000];
        client.send(&big).unwrap();
        assert_eq!(&client.recv().unwrap()[..], &[0]);
        assert_eq!(&client.recv().unwrap()[..], &100_000u32.to_be_bytes());
        server.join().unwrap();
    }

    #[test]
    fn framed_tcp_peer_dropping_mid_frame_is_channel_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Declare a 100-byte frame but hang up after 10 bytes.
            stream.write_all(&100u32.to_be_bytes()).unwrap();
            stream.write_all(&[0xCC; 10]).unwrap();
            stream.flush().unwrap();
        });
        let mut client = FramedTcp::connect(&addr.to_string()).unwrap();
        let err = client.recv().unwrap_err();
        assert!(
            matches!(err, OranError::ChannelClosed(_)),
            "mid-frame hangup must be ChannelClosed, got {err:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn framed_tcp_oversized_declared_length_is_framing_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
            stream.flush().unwrap();
            // Keep the socket open so the error is the length cap, not
            // EOF — and consume the client's whole 5-byte frame, so the
            // socket doesn't close with unread bytes (which would RST
            // the client's in-flight send).
            let mut sink = [0u8; 5];
            let _ = stream.read_exact(&mut sink);
        });
        let mut client = FramedTcp::connect(&addr.to_string()).unwrap();
        let err = client.recv().unwrap_err();
        assert!(matches!(err, OranError::Framing(_)), "got {err:?}");
        client.send(&[1]).unwrap();
        server.join().unwrap();
    }
}
