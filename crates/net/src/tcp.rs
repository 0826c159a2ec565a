//! A real TCP transport, multiplexed by the I/O reactor.
//!
//! The paper's R-OSGi speaks its protocol over TCP; this module provides
//! the same for deployments that span actual machines. Frames are
//! length-prefixed (`u32` little-endian). Unlike the original
//! thread-per-connection design, a [`TcpTransport`] costs **zero
//! dedicated threads**: the shared [`Reactor`]
//! reassembles inbound frames with a per-connection state machine and
//! drains outbound frames with vectored writes, so thousands of
//! connections share a handful of poller threads. Semantics match the
//! in-memory transport: reliable, ordered, frame-based, with `close`
//! observable from both ends — and a graceful local `close()` still
//! flushes frames already queued before sending FIN.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::reactor::{Conn, Reactor};
use crate::transport::{CloseReason, FrameSink, PeerAddr, Transport, TransportError};

/// A [`Transport`] over a real TCP connection, driven by the reactor.
pub struct TcpTransport {
    conn: Arc<Conn>,
}

impl TcpTransport {
    /// Connects to a listening [`TcpNetListener`] (or any peer speaking
    /// the framing), registering the socket with the global reactor.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        TcpTransport::from_stream(stream)
    }

    /// Wraps an accepted or connected stream on the global reactor.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if socket metadata is unavailable.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<TcpTransport> {
        TcpTransport::from_stream_on(Reactor::global(), stream)
    }

    /// Wraps a stream on a specific reactor (tests use this to exercise
    /// the `poll(2)` backend without touching the global instance).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if socket metadata is unavailable.
    pub fn from_stream_on(reactor: &Reactor, stream: TcpStream) -> std::io::Result<TcpTransport> {
        Ok(TcpTransport {
            conn: reactor.register(stream)?,
        })
    }
}

impl Transport for TcpTransport {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.conn.send(frame)
    }

    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        self.conn.send_batch(frames)
    }

    /// Queues and writes `frame` as `send` does, but hands it back when
    /// the outbox is at [`crate::reactor::OUTBOX_CAP`] instead of waiting
    /// — on every thread, reactor and timer threads included.
    fn try_send(&self, frame: Vec<u8>) -> Result<Option<Vec<u8>>, TransportError> {
        self.conn.try_send(frame)
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.conn.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.conn.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.conn.try_recv()
    }

    fn close(&self) {
        self.conn.close();
    }

    fn is_closed(&self) -> bool {
        self.conn.is_closed()
    }

    fn close_reason(&self) -> CloseReason {
        self.conn.close_reason()
    }

    fn peer_addr(&self) -> &PeerAddr {
        self.conn.peer_addr()
    }

    fn local_addr(&self) -> &PeerAddr {
        self.conn.local_addr()
    }

    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.conn.set_sink(sink);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.conn.close();
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local", self.local_addr())
            .field("peer", self.peer_addr())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// A TCP listener yielding framed transports.
#[derive(Debug)]
pub struct TcpNetListener {
    listener: TcpListener,
    local: SocketAddr,
}

impl TcpNetListener {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpNetListener> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(TcpNetListener { listener, local })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Accepts the next connection.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn accept(&self) -> std::io::Result<TcpTransport> {
        let (stream, _) = self.listener.accept()?;
        TcpTransport::from_stream(stream)
    }

    /// Accepts the next raw stream without wrapping it (callers that need
    /// a specific reactor use [`TcpTransport::from_stream_on`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn accept_stream(&self) -> std::io::Result<TcpStream> {
        let (stream, _) = self.listener.accept()?;
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || listener.accept().unwrap());
        let client = TcpTransport::connect(addr).unwrap();
        (client, server.join().unwrap())
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let (client, server) = pair();
        for i in 0..50u32 {
            client.send(i.to_le_bytes().to_vec()).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(server.recv().unwrap(), i.to_le_bytes().to_vec());
        }
        server.send(b"pong".to_vec()).unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
    }

    #[test]
    fn large_frames_survive() {
        let (client, server) = pair();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        client.send(big.clone()).unwrap();
        assert_eq!(server.recv().unwrap(), big);
    }

    #[test]
    fn close_is_observed_by_peer() {
        let (client, server) = pair();
        client.send(b"last".to_vec()).unwrap();
        client.close();
        assert!(client.is_closed());
        assert_eq!(server.recv().unwrap(), b"last");
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(
            client.send(b"x".to_vec()).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn recv_timeout_elapses() {
        let (_client, server) = pair();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (client, server) = pair();
        assert_eq!(server.try_recv().unwrap(), None);
        client.send(vec![1]).unwrap();
        // Deterministic readiness instead of a sleep-poll loop: a blocking
        // recv_timeout *is* the readiness wait, and ordering guarantees the
        // frame it returns is the one just sent.
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)).unwrap(),
            vec![1]
        );
        assert_eq!(server.try_recv().unwrap(), None);
    }

    #[test]
    fn corrupt_length_prefix_fails_fast_with_reason() {
        let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || listener.accept().unwrap());
        let mut raw = TcpStream::connect(addr).unwrap();
        let server = server.join().unwrap();
        // An impossible length prefix: the reactor must tear the connection
        // down instead of dying silently with the socket half-open.
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert!(server.is_closed());
        assert_eq!(server.close_reason(), CloseReason::CorruptStream);
        // The writer half observes the teardown promptly too.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match server.send(vec![0u8; 1024]) {
                Err(TransportError::Closed) => break,
                Ok(()) if std::time::Instant::now() < deadline => continue,
                other => panic!("send kept succeeding on a dead socket: {other:?}"),
            }
        }
    }

    #[test]
    fn peer_eof_is_recorded() {
        let (client, server) = pair();
        client.close();
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(server.close_reason(), CloseReason::Peer);
        assert_eq!(client.close_reason(), CloseReason::Local);
    }

    #[test]
    fn addresses_are_tcp_uris() {
        let (client, server) = pair();
        assert!(client.local_addr().as_str().starts_with("tcp://127.0.0.1:"));
        assert_eq!(client.peer_addr(), server.local_addr());
        assert_eq!(server.peer_addr(), client.local_addr());
    }

    /// What a sink saw, in order; `Dropped` is the sink's own `Drop`.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Frame(Vec<u8>),
        Closed,
        Dropped,
    }

    struct Collector {
        tx: mpsc::Sender<Seen>,
    }
    impl FrameSink for Collector {
        fn on_frame(&mut self, frame: Vec<u8>) {
            self.tx.send(Seen::Frame(frame)).unwrap();
        }
        fn on_close(&mut self) {
            self.tx.send(Seen::Closed).unwrap();
        }
    }
    impl Drop for Collector {
        fn drop(&mut self) {
            let _ = self.tx.send(Seen::Dropped);
        }
    }

    type BoxedPair = (Box<dyn Transport>, Box<dyn Transport>);

    /// The one sink contract every transport upholds. Each scenario ends
    /// with the collector's channel disconnected: the sink was dropped, so
    /// nothing can be delivered after `on_close` and it cannot fire twice.
    fn sink_contract(pair: impl Fn() -> BoxedPair) {
        let timeout = Duration::from_secs(5);
        let expect_end = |rx: &mpsc::Receiver<Seen>| {
            assert_eq!(rx.recv_timeout(timeout), Ok(Seen::Closed));
            assert_eq!(rx.recv_timeout(timeout), Ok(Seen::Dropped));
            assert_eq!(
                rx.recv_timeout(timeout),
                Err(mpsc::RecvTimeoutError::Disconnected)
            );
        };

        // Peer close. Frames sent *before* the sink is installed drain
        // into it first, preserving order across the mode switch.
        let (client, server) = pair();
        client.send(b"one".to_vec()).unwrap();
        assert_eq!(server.recv().unwrap(), b"one");
        client.send(b"two".to_vec()).unwrap();
        let (tx, rx) = mpsc::channel();
        server.set_sink(Box::new(Collector { tx }));
        client.send(b"three".to_vec()).unwrap();
        client.close();
        assert_eq!(rx.recv_timeout(timeout), Ok(Seen::Frame(b"two".to_vec())));
        assert_eq!(rx.recv_timeout(timeout), Ok(Seen::Frame(b"three".to_vec())));
        expect_end(&rx);

        // Local close: what the peer sends afterwards goes nowhere.
        let (client, server) = pair();
        let (tx, rx) = mpsc::channel();
        server.set_sink(Box::new(Collector { tx }));
        client.send(b"early".to_vec()).unwrap();
        assert_eq!(rx.recv_timeout(timeout), Ok(Seen::Frame(b"early".to_vec())));
        server.close();
        let _ = client.send(b"late".to_vec());
        expect_end(&rx);

        // Dropping both halves ends delivery and releases the sink.
        let (client, server) = pair();
        let (tx, rx) = mpsc::channel();
        server.set_sink(Box::new(Collector { tx }));
        drop(server);
        drop(client);
        expect_end(&rx);
    }

    #[test]
    fn sink_receives_frames_and_close_in_order() {
        sink_contract(|| {
            let (client, server) = pair();
            (Box::new(client), Box::new(server))
        });
    }

    #[test]
    fn channel_sink_receives_frames_and_close_in_order() {
        let net = crate::InMemoryNetwork::new();
        let listener = net.bind(PeerAddr::new("s")).unwrap();
        sink_contract(|| {
            let client = net.connect(PeerAddr::new("c"), PeerAddr::new("s")).unwrap();
            (Box::new(client), Box::new(listener.accept().unwrap()))
        });
    }

    #[test]
    fn poll_backend_round_trips() {
        // The poll(2) fallback must stay honest even on Linux where epoll
        // is the default: run a private reactor on it.
        let reactor = Reactor::new(1, crate::reactor::Backend::Poll).unwrap();
        let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let accept = std::thread::spawn(move || listener.accept_stream().unwrap());
        let client_stream = TcpStream::connect(addr).unwrap();
        let client = TcpTransport::from_stream_on(&reactor, client_stream).unwrap();
        let server = TcpTransport::from_stream_on(&reactor, accept.join().unwrap()).unwrap();
        for i in 0..20u32 {
            client.send(i.to_le_bytes().to_vec()).unwrap();
        }
        for i in 0..20u32 {
            assert_eq!(server.recv().unwrap(), i.to_le_bytes().to_vec());
        }
        server.send(b"pong".to_vec()).unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
        client.close();
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
    }

    /// Two transports on a private reactor with the given backend.
    fn pair_on(reactor: &Reactor) -> (TcpTransport, TcpTransport) {
        let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let accept = std::thread::spawn(move || listener.accept_stream().unwrap());
        let client = TcpStream::connect(addr).unwrap();
        (
            TcpTransport::from_stream_on(reactor, client).unwrap(),
            TcpTransport::from_stream_on(reactor, accept.join().unwrap()).unwrap(),
        )
    }

    #[test]
    fn frame_ending_on_the_scratch_boundary_is_followed_by_more() {
        // Prefix + body fill the poller's 64 KiB read buffer exactly, so
        // the read that completes the frame is a full one and the poller
        // must go back for what follows; the frames behind it and the EOF
        // come after short reads and must be reported again.
        for &backend in BACKENDS {
            let reactor = Reactor::new(1, backend).unwrap();
            let (client, server) = pair_on(&reactor);
            let exact: Vec<u8> = (0..64 * 1024 - 4).map(|i| (i % 251) as u8).collect();
            for round in 0..4u8 {
                client.send(exact.clone()).unwrap();
                client.send(vec![round]).unwrap();
                assert_eq!(server.recv().unwrap(), exact, "{backend:?}");
                assert_eq!(server.recv().unwrap(), vec![round], "{backend:?}");
            }
            client.send(exact.clone()).unwrap();
            client.close();
            assert_eq!(server.recv().unwrap(), exact, "{backend:?}");
            assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
            assert_eq!(server.close_reason(), CloseReason::Peer);
        }
    }

    const BACKENDS: &[crate::reactor::Backend] = &[
        #[cfg(target_os = "linux")]
        crate::reactor::Backend::Epoll,
        crate::reactor::Backend::Poll,
    ];

    #[test]
    fn batch_arrives_whole_and_in_order_among_single_sends() {
        // Each batch is three 1 MiB frames: far more than a socket buffer
        // takes, so it leaves in partial writes finished by the poller,
        // while a second thread keeps racing single frames into the same
        // outbox until the batches are out, then sends an end marker. The
        // singles go by `send`, or by `try_send`, which meets the full
        // outbox and retries a frame it hands back.
        const ROUNDS: u8 = 4;
        const MIB: usize = 1 << 20;
        const SINGLE: u8 = 0x5A;
        const END: u8 = 0xEE;
        let batches: Vec<Vec<Vec<u8>>> = (0..ROUNDS)
            .map(|round| {
                (0..3u8)
                    .map(|idx| {
                        let mut body: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8 ^ idx).collect();
                        body[..3].copy_from_slice(&[0xB0, round, idx]);
                        body
                    })
                    .collect()
            })
            .collect();
        let runs = BACKENDS.iter().flat_map(|&b| [(b, false), (b, true)]);
        for (backend, try_singles) in runs {
            let reactor = Reactor::new(1, backend).unwrap();
            let (client, server) = pair_on(&reactor);
            let client = Arc::new(client);
            let batching = Arc::new(AtomicBool::new(true));
            let singles = {
                let (client, batching) = (Arc::clone(&client), Arc::clone(&batching));
                std::thread::spawn(move || {
                    let mut seq = 0u32;
                    while batching.load(Ordering::SeqCst) {
                        let mut frame = vec![SINGLE];
                        frame.extend_from_slice(&seq.to_le_bytes());
                        if try_singles {
                            while let Some(back) = client.try_send(frame).unwrap() {
                                std::thread::yield_now();
                                frame = back;
                            }
                        } else {
                            client.send(frame).unwrap();
                        }
                        seq += 1;
                    }
                    client.send(vec![END]).unwrap();
                })
            };
            let sender = {
                let (client, batches) = (Arc::clone(&client), batches.clone());
                std::thread::spawn(move || {
                    for batch in batches {
                        client.send_batch(batch).unwrap();
                    }
                    batching.store(false, Ordering::SeqCst);
                })
            };
            let (mut round, mut next_single, mut ended) = (0usize, 0u32, false);
            while !ended || round < batches.len() {
                let frame = server.recv().unwrap();
                match frame[0] {
                    SINGLE => {
                        assert_eq!(frame[1..], next_single.to_le_bytes(), "{backend:?}");
                        next_single += 1;
                    }
                    END => ended = true,
                    _ => {
                        // The first frame of a batch: the other two follow
                        // with nothing in between.
                        assert!(frame == batches[round][0], "{backend:?} round {round}");
                        for (idx, expected) in batches[round].iter().enumerate().skip(1) {
                            assert!(
                                server.recv().unwrap() == *expected,
                                "{backend:?} round {round}: frame {idx} split off or reordered"
                            );
                        }
                        round += 1;
                    }
                }
            }
            sender.join().unwrap();
            singles.join().unwrap();
        }
    }

    #[test]
    fn batch_after_close_is_refused() {
        for &backend in BACKENDS {
            let reactor = Reactor::new(1, backend).unwrap();
            let (client, _server) = pair_on(&reactor);
            client.close();
            assert_eq!(
                client.send_batch(vec![b"a".to_vec(), b"b".to_vec()]),
                Err(TransportError::Closed),
                "{backend:?}"
            );
            assert_eq!(
                client.try_send(b"a".to_vec()),
                Err(TransportError::Closed),
                "{backend:?}"
            );
        }
        // The in-memory channel never waits: `try_send` sends, until closed.
        let net = crate::InMemoryNetwork::new();
        let listener = net.bind(PeerAddr::new("s")).unwrap();
        let client = net.connect(PeerAddr::new("c"), PeerAddr::new("s")).unwrap();
        let server = listener.accept().unwrap();
        assert_eq!(client.try_send(b"a".to_vec()), Ok(None));
        assert_eq!(server.recv().unwrap(), b"a");
        client.close();
        assert_eq!(client.try_send(b"a".to_vec()), Err(TransportError::Closed));
    }

    #[test]
    fn ended_connection_lets_go_of_a_sink_that_holds_its_transport() {
        // What an endpoint's sink does: it keeps the wire it reads from.
        // Once the stream has ended the connection must drop the sink, or
        // the two keep each other (and the socket) alive for good.
        struct Holding {
            _wire: Arc<TcpTransport>,
            closed: mpsc::Sender<()>,
        }
        impl FrameSink for Holding {
            fn on_frame(&mut self, _frame: Vec<u8>) {}
            fn on_close(&mut self) {
                let _ = self.closed.send(());
            }
        }
        let (closed_tx, closed_rx) = mpsc::channel();
        let mut freed = Vec::new();
        for _ in 0..8 {
            let (client, server) = pair();
            for wire in [Arc::new(client), Arc::new(server)] {
                freed.push(Arc::downgrade(&wire.conn));
                wire.set_sink(Box::new(Holding {
                    _wire: Arc::clone(&wire),
                    closed: closed_tx.clone(),
                }));
                wire.close();
            }
        }
        for _ in 0..freed.len() {
            closed_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // `on_close` runs just before the poller lets go of its own handle.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while freed.iter().any(|conn| conn.upgrade().is_some()) {
            assert!(
                std::time::Instant::now() < deadline,
                "a closed connection is still referenced"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn write_backpressure_blocks_then_drains() {
        let (client, server) = pair();
        // Flood with more than the outbox cap while the peer isn't
        // reading; the sender must block (bounded memory), then complete
        // once the peer drains.
        let frame = vec![7u8; 256 * 1024];
        let n_frames = 32; // 8 MiB total, far over OUTBOX_CAP
        let sent = Arc::new(AtomicUsize::new(0));
        let sent2 = Arc::clone(&sent);
        let f2 = frame.clone();
        let sender = std::thread::spawn(move || {
            for _ in 0..n_frames {
                client.send(f2.clone()).unwrap();
                sent2.fetch_add(1, Ordering::SeqCst);
            }
            client
        });
        for _ in 0..n_frames {
            assert_eq!(server.recv().unwrap(), frame);
        }
        let client = sender.join().unwrap();
        assert_eq!(sent.load(Ordering::SeqCst), n_frames);
        drop(client);
    }

    /// A transport on `reactor` whose peer is a bare socket nobody reads.
    fn plugged_on(reactor: &Reactor) -> (TcpTransport, TcpStream) {
        let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let accept = std::thread::spawn(move || listener.accept_stream().unwrap());
        let client = TcpStream::connect(addr).unwrap();
        (
            TcpTransport::from_stream_on(reactor, client).unwrap(),
            accept.join().unwrap(),
        )
    }

    /// `try_send`s 256 KiB frames until one comes back: the socket buffers
    /// are full and the outbox is at its cap. Returns the bytes taken.
    fn fill_outbox(wire: &TcpTransport) -> usize {
        let mut taken = 0;
        loop {
            match wire.try_send(vec![0xAB; 256 * 1024]).unwrap() {
                None => taken += 4 + 256 * 1024,
                Some(back) => {
                    assert_eq!(back.len(), 256 * 1024, "handed back whole");
                    return taken;
                }
            }
        }
    }

    #[test]
    fn try_send_hands_the_frame_back_at_the_cap_on_any_thread() {
        type TrySent = Result<Option<Vec<u8>>, TransportError>;
        struct Relay {
            target: Arc<TcpTransport>,
            results: mpsc::Sender<(TrySent, Duration)>,
        }
        impl FrameSink for Relay {
            fn on_frame(&mut self, frame: Vec<u8>) {
                // A reactor callback: `send` could exceed the cap here,
                // `try_send` must still refuse.
                let started = std::time::Instant::now();
                let result = self.target.try_send(frame);
                let _ = self.results.send((result, started.elapsed()));
            }
            fn on_close(&mut self) {}
        }
        for &backend in BACKENDS {
            let reactor = Reactor::new(1, backend).unwrap();
            let (wire, mut peer) = plugged_on(&reactor);
            let wire = Arc::new(wire);
            assert!(fill_outbox(&wire) >= crate::reactor::OUTBOX_CAP);

            // An application thread: refused at once.
            let started = std::time::Instant::now();
            assert_eq!(wire.try_send(b"app".to_vec()), Ok(Some(b"app".to_vec())));
            assert!(started.elapsed() < Duration::from_secs(1), "{backend:?}");

            // A reactor thread: the relay's sink runs on the same poller.
            let (relay_in, relay) = pair_on(&reactor);
            let (tx, results) = mpsc::channel();
            relay.set_sink(Box::new(Relay {
                target: Arc::clone(&wire),
                results: tx,
            }));
            relay_in.send(b"reactor".to_vec()).unwrap();
            let (result, took) = results.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(result, Ok(Some(b"reactor".to_vec())), "{backend:?}");
            assert!(took < Duration::from_secs(1), "{backend:?}");

            // Once the peer reads, the outbox drains and frames go out again.
            let reader = std::thread::spawn(move || {
                let mut buf = vec![0u8; 1 << 16];
                let mut total = 0usize;
                while let Ok(n) = peer.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
                total
            });
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while wire.try_send(b"later".to_vec()).unwrap().is_some() {
                assert!(std::time::Instant::now() < deadline, "{backend:?}");
                std::thread::yield_now();
            }
            wire.close();
            assert!(reader.join().unwrap() > crate::reactor::OUTBOX_CAP);
        }
    }
}
