//! Connection-oriented transports.
//!
//! The R-OSGi layer is written against the [`Transport`] trait, so the same
//! protocol code runs over any medium. The crate ships [`InMemoryNetwork`],
//! a loopback "fabric" in which peers bind listeners under a [`PeerAddr`]
//! and dial each other; each accepted connection yields a pair of reliable,
//! ordered, frame-based channels — the moral equivalent of loopback TCP.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alfredo_sync::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use alfredo_sync::Mutex;
use std::collections::HashMap;

/// A network endpoint address, e.g. `"r-osgi://shop-screen:9278"`.
///
/// Addresses are opaque strings; the in-memory fabric treats them as lookup
/// keys, mirroring how R-OSGi uses URI-style service locations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerAddr(String);

impl PeerAddr {
    /// Creates an address from any string-like value.
    pub fn new(addr: impl Into<String>) -> Self {
        PeerAddr(addr.into())
    }

    /// The address as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PeerAddr {
    fn from(s: &str) -> Self {
        PeerAddr::new(s)
    }
}

impl From<String> for PeerAddr {
    fn from(s: String) -> Self {
        PeerAddr::new(s)
    }
}

/// Errors reported by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection is closed (locally or by the peer).
    Closed,
    /// A blocking receive timed out.
    Timeout,
    /// No listener is bound at the dialed address.
    ConnectionRefused(PeerAddr),
    /// An address is already bound by another listener.
    AddressInUse(PeerAddr),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::ConnectionRefused(addr) => {
                write!(f, "connection refused: no listener at {addr}")
            }
            TransportError::AddressInUse(addr) => write!(f, "address already in use: {addr}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Why a transport stopped working, when the implementation knows.
///
/// Most transports cannot always tell (a peer vanishing behind a dead
/// radio looks like silence), so [`CloseReason::Unknown`] is the default;
/// implementations that *do* know override [`Transport::close_reason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloseReason {
    /// Not closed yet, or the implementation cannot say.
    #[default]
    Unknown,
    /// Closed by a local `close()` call.
    Local,
    /// The peer ended the connection (EOF / clean shutdown).
    Peer,
    /// The byte stream violated the framing protocol (e.g. an impossible
    /// length prefix) and the connection was torn down defensively.
    CorruptStream,
    /// An underlying I/O error ended the connection.
    Io,
}

impl fmt::Display for CloseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CloseReason::Unknown => "unknown",
            CloseReason::Local => "closed locally",
            CloseReason::Peer => "closed by peer",
            CloseReason::CorruptStream => "corrupt stream",
            CloseReason::Io => "i/o error",
        };
        f.write_str(s)
    }
}

enum Packet {
    Frame(Vec<u8>),
    Fin,
}

/// A push-mode consumer of inbound frames, installed with
/// [`Transport::set_sink`].
///
/// Every transport delivers frames by *calling* the sink from a thread
/// of its own instead of queueing them for a blocking `recv()`: a
/// reactor poller for TCP (one I/O thread serves thousands of
/// connections), a per-half pump thread for the in-memory
/// [`ChannelTransport`]. Implementations must uphold:
///
/// * `on_frame` is called once per frame, in arrival order, from one
///   thread at a time (calls are serialized, though not necessarily from
///   the same OS thread over the connection's lifetime).
/// * `on_close` is called exactly once, after the final `on_frame`, no
///   matter how the connection ends (peer EOF, I/O error, corrupt stream,
///   or local `close()`), and the sink is dropped right after it.
/// * Callbacks may run on a shared I/O thread: they may send on any
///   transport and may take locks, but must never block waiting for
///   *another* frame to arrive (that frame could only be delivered by
///   the thread that is blocked), and must not panic.
pub trait FrameSink: Send {
    /// One inbound frame, in order.
    fn on_frame(&mut self, frame: Vec<u8>);
    /// The connection is finished; no more frames will be delivered.
    fn on_close(&mut self);
}

/// A reliable, ordered, frame-based connection endpoint.
///
/// All methods are usable from multiple threads through a shared reference;
/// implementations must be internally synchronized.
pub trait Transport: Send + Sync {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the connection is closed.
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError>;

    /// Receives the next frame, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] once the connection is closed and
    /// drained.
    fn recv(&self) -> Result<Vec<u8>, TransportError>;

    /// Receives the next frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] if no frame arrives in time, or
    /// [`TransportError::Closed`] once the connection is closed and drained.
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError>;

    /// Receives a frame if one is already queued.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] once the connection is closed and
    /// drained.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Closes the connection. Idempotent; the peer observes
    /// [`TransportError::Closed`] after draining in-flight frames.
    fn close(&self);

    /// Returns `true` once the connection is closed (either side).
    fn is_closed(&self) -> bool;

    /// Why the connection stopped, when the implementation knows.
    ///
    /// Defaults to [`CloseReason::Unknown`]; meaningful only once
    /// [`Transport::is_closed`] returns `true`.
    fn close_reason(&self) -> CloseReason {
        CloseReason::Unknown
    }

    /// The address of the remote peer.
    fn peer_addr(&self) -> &PeerAddr;

    /// The address of the local endpoint.
    fn local_addr(&self) -> &PeerAddr;

    /// Switches the transport from pull mode (`recv*`) to push mode: all
    /// frames not yet consumed, and every future frame, are delivered to
    /// `sink` in order, and `sink.on_close` fires exactly once when the
    /// connection ends. From then on the `recv*` methods must no longer
    /// be used. Call it at most once per connection.
    fn set_sink(&self, sink: Box<dyn FrameSink>);
}

/// One half of an in-memory connection.
pub struct ChannelTransport {
    tx: Sender<Packet>,
    rx: Receiver<Packet>,
    /// Sender into our own receive queue, used to wake a blocked local
    /// `recv` when we close the connection ourselves.
    self_tx: Sender<Packet>,
    closed: Arc<AtomicBool>,
    local: PeerAddr,
    peer: PeerAddr,
}

impl fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("local", &self.local)
            .field("peer", &self.peer)
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Closes an in-memory connection: tells the peer once, and always wakes
/// the local reader too — the peer may never reply (it learned of the
/// shared close flag and skips its own `Fin`).
fn close_channel(closed: &AtomicBool, tx: &Sender<Packet>, self_tx: &Sender<Packet>) {
    if !closed.swap(true, Ordering::SeqCst) {
        // Best effort: ignore failure if the peer is gone.
        let _ = tx.send(Packet::Fin);
    }
    let _ = self_tx.send(Packet::Fin);
}

impl ChannelTransport {
    /// A handle that closes this connection exactly as
    /// [`Transport::close`] does, for a thread that does not hold the
    /// transport — a device's handshake reaper, after the wire has moved
    /// into the endpoint being established.
    pub fn closer(&self) -> impl FnOnce() + Send + 'static {
        let closed = Arc::clone(&self.closed);
        let (tx, self_tx) = (self.tx.clone(), self.self_tx.clone());
        move || close_channel(&closed, &tx, &self_tx)
    }

    fn handle_packet(&self, packet: Packet) -> Result<Option<Vec<u8>>, TransportError> {
        match packet {
            Packet::Frame(frame) => Ok(Some(frame)),
            Packet::Fin => {
                self.closed.store(true, Ordering::SeqCst);
                Err(TransportError::Closed)
            }
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        self.tx
            .send(Packet::Frame(frame))
            .map_err(|_| TransportError::Closed)
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        match self.rx.recv() {
            Ok(p) => self.handle_packet(p).map(|f| f.expect("Frame variant")),
            Err(_) => Err(TransportError::Closed),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(p) => self.handle_packet(p).map(|f| f.expect("Frame variant")),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.rx.try_recv() {
            Ok(p) => self.handle_packet(p),
            Err(TryRecvError::Empty) => {
                if self.closed.load(Ordering::SeqCst) {
                    Err(TransportError::Closed)
                } else {
                    Ok(None)
                }
            }
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn close(&self) {
        close_channel(&self.closed, &self.tx, &self.self_tx);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn peer_addr(&self) -> &PeerAddr {
        &self.peer
    }

    fn local_addr(&self) -> &PeerAddr {
        &self.local
    }

    /// Starts this half's pump thread (`net-pump-<local>`): it delivers
    /// queued-then-future frames in order and fires `on_close` on `Fin`
    /// (either side's `close()`, or this half being dropped) or when
    /// every sender is gone. The pump owns a clone of the receive queue
    /// and the `closed` flag, never the transport itself, so a sink that
    /// holds its transport is released as soon as the connection ends.
    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        // The sink travels in a shared slot so a failed spawn (which
        // drops the closure) can still end the connection properly.
        let slot = Arc::new(Mutex::new(Some(sink)));
        let pump = {
            let slot = Arc::clone(&slot);
            let rx = self.rx.clone();
            let closed = Arc::clone(&self.closed);
            move || {
                let Some(mut sink) = slot.lock().take() else {
                    return;
                };
                while let Ok(Packet::Frame(frame)) = rx.recv() {
                    sink.on_frame(frame);
                }
                closed.store(true, Ordering::SeqCst);
                sink.on_close();
            }
        };
        let spawned = std::thread::Builder::new()
            .name(format!("net-pump-{}", self.local))
            .spawn(pump);
        if spawned.is_err() {
            // No thread to deliver on: the connection is over.
            self.close();
            if let Some(mut sink) = slot.lock().take() {
                sink.on_close();
            }
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.close();
    }
}

/// A bound listener from which incoming connections are accepted.
pub struct Listener {
    addr: PeerAddr,
    incoming: Receiver<ChannelTransport>,
    network: InMemoryNetwork,
}

impl fmt::Debug for Listener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Listener")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Listener {
    /// The bound address.
    pub fn addr(&self) -> &PeerAddr {
        &self.addr
    }

    /// Blocks until a connection arrives.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the listener was unbound.
    pub fn accept(&self) -> Result<ChannelTransport, TransportError> {
        self.incoming.recv().map_err(|_| TransportError::Closed)
    }

    /// Waits up to `timeout` for a connection.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] or [`TransportError::Closed`].
    pub fn accept_timeout(&self, timeout: Duration) -> Result<ChannelTransport, TransportError> {
        match self.incoming.recv_timeout(timeout) {
            Ok(t) => Ok(t),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    /// Accepts a connection if one is already pending.
    pub fn try_accept(&self) -> Option<ChannelTransport> {
        self.incoming.try_recv().ok()
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.network.unbind(&self.addr);
    }
}

/// An in-process network fabric: a namespace of listeners plus a dialer.
///
/// Cloning is cheap; clones share the same namespace.
///
/// # Example
///
/// ```
/// use alfredo_net::{InMemoryNetwork, PeerAddr, Transport};
///
/// # fn main() -> Result<(), alfredo_net::TransportError> {
/// let net = InMemoryNetwork::new();
/// let listener = net.bind(PeerAddr::new("screen"))?;
/// let client = net.connect(PeerAddr::new("phone"), PeerAddr::new("screen"))?;
/// let server = listener.accept()?;
///
/// client.send(b"hello".to_vec())?;
/// assert_eq!(server.recv()?, b"hello");
/// assert_eq!(server.peer_addr().as_str(), "phone");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct InMemoryNetwork {
    listeners: Arc<Mutex<HashMap<PeerAddr, Sender<ChannelTransport>>>>,
}

impl fmt::Debug for InMemoryNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InMemoryNetwork")
            .field("listeners", &self.listeners.lock().len())
            .finish()
    }
}

impl InMemoryNetwork {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        InMemoryNetwork::default()
    }

    /// Binds a listener at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::AddressInUse`] if the address is taken.
    pub fn bind(&self, addr: PeerAddr) -> Result<Listener, TransportError> {
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(&addr) {
            return Err(TransportError::AddressInUse(addr));
        }
        let (tx, rx) = channel::unbounded();
        listeners.insert(addr.clone(), tx);
        Ok(Listener {
            addr,
            incoming: rx,
            network: self.clone(),
        })
    }

    /// Dials the listener at `to`, identifying as `from`. Returns the client
    /// half; the server half is delivered to the listener's accept queue.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::ConnectionRefused`] if nothing is bound at
    /// `to`.
    pub fn connect(
        &self,
        from: PeerAddr,
        to: PeerAddr,
    ) -> Result<ChannelTransport, TransportError> {
        let listeners = self.listeners.lock();
        let acceptor = listeners
            .get(&to)
            .ok_or_else(|| TransportError::ConnectionRefused(to.clone()))?;
        let (c2s_tx, c2s_rx) = channel::unbounded();
        let (s2c_tx, s2c_rx) = channel::unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        let client = ChannelTransport {
            tx: c2s_tx.clone(),
            rx: s2c_rx,
            self_tx: s2c_tx.clone(),
            closed: Arc::clone(&closed),
            local: from.clone(),
            peer: to.clone(),
        };
        let server = ChannelTransport {
            tx: s2c_tx,
            rx: c2s_rx,
            self_tx: c2s_tx,
            closed,
            local: to,
            peer: from,
        };
        acceptor
            .send(server)
            .map_err(|_| TransportError::ConnectionRefused(client.peer.clone()))?;
        Ok(client)
    }

    /// Returns the addresses currently bound.
    pub fn bound_addrs(&self) -> Vec<PeerAddr> {
        let mut addrs: Vec<PeerAddr> = self.listeners.lock().keys().cloned().collect();
        addrs.sort();
        addrs
    }

    fn unbind(&self, addr: &PeerAddr) {
        self.listeners.lock().remove(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn pair(net: &InMemoryNetwork, name: &str) -> (ChannelTransport, ChannelTransport) {
        let listener = net.bind(PeerAddr::new(name)).unwrap();
        let client = net
            .connect(PeerAddr::new("client"), PeerAddr::new(name))
            .unwrap();
        let server = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_arrive_in_order() {
        let net = InMemoryNetwork::new();
        let (client, server) = pair(&net, "ordered");
        for i in 0..100u8 {
            client.send(vec![i]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(server.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn bidirectional_traffic() {
        let net = InMemoryNetwork::new();
        let (client, server) = pair(&net, "bidi");
        client.send(b"ping".to_vec()).unwrap();
        assert_eq!(server.recv().unwrap(), b"ping");
        server.send(b"pong".to_vec()).unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
    }

    #[test]
    fn close_is_observed_by_peer() {
        let net = InMemoryNetwork::new();
        let (client, server) = pair(&net, "close");
        client.send(b"last".to_vec()).unwrap();
        client.close();
        // In-flight frame is still delivered, then Closed.
        assert_eq!(server.recv().unwrap(), b"last");
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(
            client.send(b"x".to_vec()).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn closer_closes_a_transport_that_has_moved_away() {
        let net = InMemoryNetwork::new();
        let (client, server) = pair(&net, "closer");
        let close = server.closer();
        let blocked = thread::spawn(move || server.recv());
        close();
        assert_eq!(blocked.join().unwrap().unwrap_err(), TransportError::Closed);
        assert_eq!(client.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn recv_timeout_elapses() {
        let net = InMemoryNetwork::new();
        let (_client, server) = pair(&net, "timeout");
        let err = server.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let net = InMemoryNetwork::new();
        let (client, server) = pair(&net, "try");
        assert_eq!(server.try_recv().unwrap(), None);
        client.send(vec![7]).unwrap();
        assert_eq!(server.try_recv().unwrap(), Some(vec![7]));
    }

    #[test]
    fn connect_to_unbound_addr_is_refused() {
        let net = InMemoryNetwork::new();
        let err = net
            .connect(PeerAddr::new("a"), PeerAddr::new("nowhere"))
            .unwrap_err();
        assert!(matches!(err, TransportError::ConnectionRefused(_)));
    }

    #[test]
    fn double_bind_is_rejected() {
        let net = InMemoryNetwork::new();
        let _l = net.bind(PeerAddr::new("dup")).unwrap();
        assert!(matches!(
            net.bind(PeerAddr::new("dup")),
            Err(TransportError::AddressInUse(_))
        ));
    }

    #[test]
    fn dropping_listener_unbinds() {
        let net = InMemoryNetwork::new();
        {
            let _l = net.bind(PeerAddr::new("temp")).unwrap();
            assert_eq!(net.bound_addrs().len(), 1);
        }
        assert!(net.bound_addrs().is_empty());
        // And the address can be rebound.
        let _l2 = net.bind(PeerAddr::new("temp")).unwrap();
    }

    #[test]
    fn addresses_are_reported() {
        let net = InMemoryNetwork::new();
        let (client, server) = pair(&net, "addrs");
        assert_eq!(client.local_addr().as_str(), "client");
        assert_eq!(client.peer_addr().as_str(), "addrs");
        assert_eq!(server.local_addr().as_str(), "addrs");
        assert_eq!(server.peer_addr().as_str(), "client");
    }

    #[test]
    fn cross_thread_traffic() {
        let net = InMemoryNetwork::new();
        let listener = net.bind(PeerAddr::new("srv")).unwrap();
        let handle = thread::spawn(move || {
            let server = listener.accept().unwrap();
            while let Ok(frame) = server.recv() {
                let mut reply = frame;
                reply.reverse();
                server.send(reply).unwrap();
            }
        });
        let client = net
            .connect(PeerAddr::new("cli"), PeerAddr::new("srv"))
            .unwrap();
        client.send(vec![1, 2, 3]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![3, 2, 1]);
        client.close();
        handle.join().unwrap();
    }

    #[test]
    fn multiple_connections_to_one_listener() {
        let net = InMemoryNetwork::new();
        let listener = net.bind(PeerAddr::new("hub")).unwrap();
        let c1 = net
            .connect(PeerAddr::new("p1"), PeerAddr::new("hub"))
            .unwrap();
        let c2 = net
            .connect(PeerAddr::new("p2"), PeerAddr::new("hub"))
            .unwrap();
        let s1 = listener.accept().unwrap();
        let s2 = listener.accept().unwrap();
        c1.send(b"one".to_vec()).unwrap();
        c2.send(b"two".to_vec()).unwrap();
        assert_eq!(s1.recv().unwrap(), b"one");
        assert_eq!(s2.recv().unwrap(), b"two");
        assert_eq!(s1.peer_addr().as_str(), "p1");
        assert_eq!(s2.peer_addr().as_str(), "p2");
    }
}
