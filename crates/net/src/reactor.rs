//! The I/O reactor: readiness-driven socket multiplexing on a fixed
//! thread budget.
//!
//! A TCP connection costs no thread: a blocking reader per socket (and a
//! heartbeat thread per endpoint) is fine for 16 phones and structurally
//! impossible for thousands, so the reactor multiplexes instead:
//!
//! * **One or a few poller threads** (`min(4, cores)` by default, capped
//!   well under the bench guard of 8) own *all* connections. Sockets are
//!   non-blocking; `epoll(7)` reports readiness on Linux, with a
//!   `poll(2)` fallback (`ALFREDO_FORCE_POLL=1` selects it explicitly).
//!   Both backends are hand-rolled `extern "C"` bindings — the workspace
//!   stays zero-dependency.
//! * **Per-connection state machines** replace the blocking loops: an
//!   inbound reassembly state (length-prefix header, then body, fed from
//!   a shared scratch buffer) and an outbound frame queue drained with
//!   vectored writes.
//! * **A flush-coalescing doorbell** (a non-blocking `UnixStream` pair)
//!   wakes a poller at most once per batch of sends: the first send that
//!   schedules a connection rings the bell, subsequent sends see
//!   `write_scheduled` already set and just enqueue. When the socket
//!   buffer has room, senders skip the reactor entirely and write
//!   directly under the outbox lock.
//! * **A shared timer wheel** ([`TimerWheel`]) runs every heartbeat and
//!   lease TTL in the process on one thread — for endpoints on any
//!   transport, in-memory ones included; it is their only heartbeat
//!   driver.
//!
//! Backpressure: each connection's outbox is capped (1 MiB). Application
//! threads block in `send` until the peer drains; reactor and timer
//! threads never block (they are marked with a thread-local and enqueue
//! unconditionally), because a blocked poller would deadlock the very
//! connections that could relieve the pressure. `try_send` blocks on no
//! thread: at the cap it hands the frame back unsent, even on a reactor
//! or timer thread.
//!
//! Resource accounting is exported through the process-global metrics
//! registry ([`alfredo_obs::global_metrics`]): `net.open_connections`,
//! `net.io_threads`, and `net.timer_entries` gauges, surfaced by the web
//! gateway's `GET /metrics` and by `EndpointStats`, and the
//! `net.tcp.write_calls` counter of `writev` calls (a batch of frames
//! queued together, such as a handshake flight, usually costs one).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use alfredo_sync::{Condvar, Mutex};

use crate::transport::{CloseReason, FrameSink, PeerAddr, TransportError};
use crate::wire::MAX_LENGTH;

/// Cap on buffered-but-unsent bytes per connection before application
/// `send` calls block (reactor/timer threads are exempt — see module docs)
/// and `try_send` calls hand their frame back.
pub const OUTBOX_CAP: usize = 1 << 20;

/// Max `IoSlice`s per vectored write.
const MAX_IOV: usize = 32;

/// Token reserved for a poller's doorbell.
const DOORBELL_TOKEN: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Raw syscall bindings (std already links libc; no crates needed).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    /// Mirror of the kernel's `struct epoll_event`; packed on x86-64,
    /// naturally aligned elsewhere (matching glibc).
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

mod psys {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    pub type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    pub type Nfds = u32;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }
}

/// Raises the process soft `RLIMIT_NOFILE` toward `want` (clamped to the
/// hard limit) and returns the resulting soft limit. Best-effort: on any
/// syscall failure the current (or assumed) limit is returned. Used by the
/// scale bench so 1000-phone sweeps don't die on the default 1024-FD cap.
pub fn raise_nofile_limit(want: u64) -> u64 {
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let target = RLimit {
            cur: want.min(lim.max),
            max: lim.max,
        };
        if setrlimit(RLIMIT_NOFILE, &target) == 0 {
            target.cur
        } else {
            lim.cur
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor-thread marker: sends from these threads must never block.
// ---------------------------------------------------------------------------

thread_local! {
    static IN_REACTOR: Cell<bool> = const { Cell::new(false) };
}

fn mark_reactor_thread() {
    IN_REACTOR.with(|c| c.set(true));
}

fn on_reactor_thread() -> bool {
    IN_REACTOR.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Selector: epoll on Linux, poll(2) fallback.
// ---------------------------------------------------------------------------

/// Which readiness syscall a [`Reactor`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `epoll(7)` — Linux only.
    #[cfg(target_os = "linux")]
    Epoll,
    /// Portable `poll(2)`; rebuilds the fd set every wait.
    Poll,
}

impl Backend {
    /// The platform default (`epoll` on Linux, `poll` elsewhere), unless
    /// `ALFREDO_FORCE_POLL=1` forces the fallback.
    pub fn default_for_platform() -> Backend {
        if std::env::var("ALFREDO_FORCE_POLL").is_ok_and(|v| v == "1") {
            return Backend::Poll;
        }
        #[cfg(target_os = "linux")]
        {
            Backend::Epoll
        }
        #[cfg(not(target_os = "linux"))]
        {
            Backend::Poll
        }
    }
}

/// One readiness event: `(token, readable, writable)`.
type Event = (u64, bool, bool);

enum Selector {
    #[cfg(target_os = "linux")]
    Epoll { epfd: i32 },
    /// `poll(2)` keeps no kernel state; the fd set is rebuilt from the
    /// connection map before every wait.
    Poll,
}

impl Selector {
    fn new(backend: Backend) -> io::Result<Selector> {
        match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => {
                let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(Selector::Epoll { epfd })
            }
            Backend::Poll => Ok(Selector::Poll),
        }
    }

    fn register(&self, fd: i32, token: u64, writable: bool) {
        #[cfg(target_os = "linux")]
        if let Selector::Epoll { epfd } = self {
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN | if writable { sys::EPOLLOUT } else { 0 },
                data: token,
            };
            unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
        }
        let _ = (fd, token, writable);
    }

    fn update(&self, fd: i32, token: u64, writable: bool) {
        #[cfg(target_os = "linux")]
        if let Selector::Epoll { epfd } = self {
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN | if writable { sys::EPOLLOUT } else { 0 },
                data: token,
            };
            unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fd, &mut ev) };
        }
        let _ = (fd, token, writable);
    }

    fn deregister(&self, fd: i32) {
        #[cfg(target_os = "linux")]
        if let Selector::Epoll { epfd } = self {
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
        }
        let _ = fd;
    }

    /// Blocks until at least one fd is ready, filling `out`.
    /// `poll_set` supplies the fd list for the `poll` backend.
    fn wait(&self, out: &mut Vec<Event>, poll_set: &[(i32, u64, bool)]) {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Selector::Epoll { epfd } => {
                let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
                let n = unsafe { sys::epoll_wait(*epfd, events.as_mut_ptr(), 256, -1) };
                for ev in events.iter().take(n.max(0) as usize) {
                    // Copy out of the (possibly packed) struct.
                    let bits = { ev.events };
                    let token = { ev.data };
                    let err = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                    // Errors/hangups surface through a read() that fails
                    // or returns EOF, so report them as readability.
                    out.push((
                        token,
                        bits & sys::EPOLLIN != 0 || err,
                        bits & sys::EPOLLOUT != 0,
                    ));
                }
            }
            Selector::Poll => {
                let mut fds: Vec<psys::PollFd> = poll_set
                    .iter()
                    .map(|&(fd, _, writable)| psys::PollFd {
                        fd,
                        events: psys::POLLIN | if writable { psys::POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                let n = unsafe { psys::poll(fds.as_mut_ptr(), fds.len() as psys::Nfds, -1) };
                if n <= 0 {
                    return;
                }
                for (pfd, &(_, token, _)) in fds.iter().zip(poll_set) {
                    let err = pfd.revents & (psys::POLLERR | psys::POLLHUP) != 0;
                    if pfd.revents != 0 {
                        out.push((
                            token,
                            pfd.revents & psys::POLLIN != 0 || err,
                            pfd.revents & psys::POLLOUT != 0,
                        ));
                    }
                }
            }
        }
    }
}

impl Drop for Selector {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Selector::Epoll { epfd } = self {
            unsafe { sys::close(*epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state machine.
// ---------------------------------------------------------------------------

/// Inbound reassembly: a 4-byte little-endian length prefix, then the body.
struct ReadState {
    hdr: [u8; 4],
    hdr_len: usize,
    body: Vec<u8>,
    /// Total body length once the header is complete; `usize::MAX` while
    /// still reading the header.
    need: usize,
}

impl ReadState {
    fn new() -> ReadState {
        ReadState {
            hdr: [0; 4],
            hdr_len: 0,
            body: Vec::new(),
            need: usize::MAX,
        }
    }

    /// Feeds raw bytes in, appending completed frames to `frames`.
    /// Returns `false` on a framing violation (impossible length prefix).
    fn feed(&mut self, mut buf: &[u8], frames: &mut Vec<Vec<u8>>) -> bool {
        while !buf.is_empty() {
            if self.need == usize::MAX {
                let take = (4 - self.hdr_len).min(buf.len());
                self.hdr[self.hdr_len..self.hdr_len + take].copy_from_slice(&buf[..take]);
                self.hdr_len += take;
                buf = &buf[take..];
                if self.hdr_len < 4 {
                    return true;
                }
                let len = u32::from_le_bytes(self.hdr) as u64;
                if len > MAX_LENGTH {
                    return false;
                }
                self.need = len as usize;
                self.body = Vec::with_capacity(self.need);
            }
            let take = (self.need - self.body.len()).min(buf.len());
            self.body.extend_from_slice(&buf[..take]);
            buf = &buf[take..];
            if self.body.len() == self.need {
                frames.push(std::mem::take(&mut self.body));
                self.hdr_len = 0;
                self.need = usize::MAX;
            }
        }
        true
    }
}

/// The byte stream violated the framing protocol: a length prefix
/// exceeded [`MAX_LENGTH`]. The stream cannot be
/// resynchronized — drop the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramingError;

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("frame length prefix exceeds the maximum frame size")
    }
}

impl std::error::Error for FramingError {}

/// Incremental frame reassembly over the reactor's wire format: a 4-byte
/// little-endian length prefix followed by the body.
///
/// This wraps the exact state machine the reactor feeds socket reads
/// through, exposed so tests and alternative transports can drive it with
/// arbitrary byte streams. Torn input accumulates across `feed` calls;
/// completed frames pop out in order; an impossible length prefix
/// (> [`MAX_LENGTH`]) is a permanent
/// [`FramingError`] — the reassembler rejects all further input rather
/// than allocating an attacker-controlled buffer.
#[derive(Default)]
pub struct FrameReassembler {
    state: Option<ReadState>,
    poisoned: bool,
}

impl FrameReassembler {
    /// An empty reassembler awaiting the first header byte.
    pub fn new() -> FrameReassembler {
        FrameReassembler::default()
    }

    /// Feeds raw bytes in, returning the frames they completed (possibly
    /// none — the input may end mid-header or mid-body).
    ///
    /// # Errors
    ///
    /// Returns [`FramingError`] when a length prefix exceeds the maximum
    /// frame size; the reassembler stays poisoned and every later `feed`
    /// fails too.
    pub fn feed(&mut self, buf: &[u8]) -> Result<Vec<Vec<u8>>, FramingError> {
        if self.poisoned {
            return Err(FramingError);
        }
        let state = self.state.get_or_insert_with(ReadState::new);
        let mut frames = Vec::new();
        if state.feed(buf, &mut frames) {
            Ok(frames)
        } else {
            self.poisoned = true;
            self.state = None;
            Err(FramingError)
        }
    }

    /// Bytes of partial-frame state currently buffered (header bytes plus
    /// body bytes received so far). Bounded by 4 +
    /// [`MAX_LENGTH`] by construction.
    pub fn buffered(&self) -> usize {
        self.state
            .as_ref()
            .map(|s| s.hdr_len + s.body.len())
            .unwrap_or(0)
    }

    /// Capacity of the in-progress body buffer — what `feed` has actually
    /// allocated. Never exceeds [`MAX_LENGTH`]:
    /// the length prefix is validated *before* the allocation.
    pub fn buffered_capacity(&self) -> usize {
        self.state.as_ref().map(|s| s.body.capacity()).unwrap_or(0)
    }
}

struct OutFrame {
    prefix: [u8; 4],
    body: Vec<u8>,
}

impl OutFrame {
    fn len(&self) -> usize {
        4 + self.body.len()
    }
}

struct Outbox {
    q: VecDeque<OutFrame>,
    /// Unwritten bytes across the whole queue.
    bytes: usize,
    /// Bytes of `q[0]` already written (prefix counts first).
    front_off: usize,
    /// Whether the selector is currently watching for writability.
    epollout: bool,
    /// Local close requested: flush what's queued, then FIN.
    closing: bool,
}

impl Outbox {
    /// The one write routine of a connection, for a sender's inline write
    /// and the poller's flush alike: writes the queue front first with
    /// vectored writes (at most [`MAX_IOV`] slices each, held on the
    /// stack) until it is empty (`Ok(true)`) or the socket would block
    /// (`Ok(false)`). Counts every `writev` in `calls`.
    fn write_to(&mut self, stream: &TcpStream, calls: &alfredo_obs::Counter) -> io::Result<bool> {
        while !self.q.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_IOV];
            let mut n = 0;
            for (i, f) in self.q.iter().enumerate() {
                if n + 2 > MAX_IOV {
                    break;
                }
                let off = if i == 0 { self.front_off } else { 0 };
                if off < 4 {
                    slices[n] = IoSlice::new(&f.prefix[off..]);
                    slices[n + 1] = IoSlice::new(&f.body);
                    n += 2;
                } else {
                    slices[n] = IoSlice::new(&f.body[off - 4..]);
                    n += 1;
                }
            }
            calls.inc();
            match (&mut &*stream).write_vectored(&slices[..n]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write zero")),
                Ok(written) => self.consume(written),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Drops `n` written bytes off the front of the queue.
    fn consume(&mut self, mut n: usize) {
        self.bytes -= n;
        while n > 0 {
            let front_remaining = self.q[0].len() - self.front_off;
            if n >= front_remaining {
                n -= front_remaining;
                self.q.pop_front();
                self.front_off = 0;
            } else {
                self.front_off += n;
                n = 0;
            }
        }
    }
}

/// What a sender does when a connection's outbox is at [`OUTBOX_CAP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtCap {
    /// Wait until the poller drains it (application threads' `send`).
    Wait,
    /// Queue anyway (reactor and timer threads' `send`: a blocked poller
    /// would deadlock the very connections that could drain it).
    Exceed,
    /// Hand the frames back unsent (`try_send`, on any thread).
    Refuse,
}

struct Inbox {
    q: VecDeque<Vec<u8>>,
    fin: bool,
    /// `on_close` already delivered to a sink (exactly-once guard).
    fin_delivered: bool,
}

/// One reactor-managed connection. Shared by the owning transport and the
/// poller's connection map; the map entry is removed at teardown. A sink
/// usually holds the transport that owns this connection (an endpoint's
/// sink keeps its wire), which is a second cycle: [`deliver_fin`] breaks
/// it by dropping the sink once the stream has ended.
pub(crate) struct Conn {
    token: u64,
    stream: TcpStream,
    poller: Arc<Poller>,
    local: PeerAddr,
    peer: PeerAddr,
    /// User-visible closed flag: sends fail once set.
    closed: AtomicBool,
    /// Fully torn down (deregistered from the poller).
    dead: AtomicBool,
    reason: Mutex<CloseReason>,
    read: Mutex<ReadState>,
    inbox: Mutex<Inbox>,
    inbox_cv: Condvar,
    /// Lock order: `sink` before `inbox` (never the reverse).
    sink: Mutex<Option<Box<dyn FrameSink>>>,
    out: Mutex<Outbox>,
    out_cv: Condvar,
    /// True while the connection sits in a poller kick queue or has
    /// EPOLLOUT armed — further sends skip the doorbell.
    write_scheduled: AtomicBool,
}

impl Conn {
    fn record_reason(&self, reason: CloseReason) {
        let mut r = self.reason.lock();
        if *r == CloseReason::Unknown {
            *r = reason;
            alfredo_obs::event("net.tcp", "close", || {
                vec![
                    ("peer".to_string(), self.peer.to_string()),
                    ("reason".to_string(), format!("{reason:?}")),
                ]
            });
        }
    }

    pub(crate) fn close_reason(&self) -> CloseReason {
        *self.reason.lock()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    pub(crate) fn local_addr(&self) -> &PeerAddr {
        &self.local
    }

    pub(crate) fn peer_addr(&self) -> &PeerAddr {
        &self.peer
    }

    /// Queues one frame: a batch of one.
    pub(crate) fn send(self: &Arc<Self>, frame: Vec<u8>) -> Result<(), TransportError> {
        self.send_batch(std::iter::once(frame))
    }

    /// Queues `frames` as one flight (see [`Conn::queue`]). Blocks on the
    /// outbox cap unless called from a reactor/timer thread, which may
    /// exceed it.
    pub(crate) fn send_batch(
        self: &Arc<Self>,
        frames: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<(), TransportError> {
        let at_cap = if on_reactor_thread() {
            AtCap::Exceed
        } else {
            AtCap::Wait
        };
        self.queue(frames, at_cap).map(|_| ())
    }

    /// Queues one frame unless the outbox is at its cap: then the frame
    /// comes back unsent, on every thread, reactor and timer threads
    /// included.
    pub(crate) fn try_send(
        self: &Arc<Self>,
        frame: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        let refused = self.queue(std::iter::once(frame), AtCap::Refuse)?;
        Ok(refused.and_then(|mut frame| frame.next()))
    }

    /// The one queueing routine of a connection: queues `frames` back to
    /// back under one outbox lock, so no other sender's frame lands
    /// between them, and writes them directly to the socket when nothing
    /// is queued ahead of them (the common case: no reactor round-trip at
    /// all), in as few vectored writes as the socket takes. An outbox at
    /// [`OUTBOX_CAP`] is met as `at_cap` says; only [`AtCap::Refuse`]
    /// hands `frames` back (`Ok(Some(frames))`), untouched.
    fn queue<I: IntoIterator<Item = Vec<u8>>>(
        self: &Arc<Self>,
        frames: I,
        at_cap: AtCap,
    ) -> Result<Option<I>, TransportError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let mut out = self.out.lock();
        if at_cap == AtCap::Wait {
            while out.bytes >= OUTBOX_CAP && !out.closing && !self.closed.load(Ordering::SeqCst) {
                out = self.out_cv.wait(out);
            }
        }
        if out.closing || self.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        if at_cap == AtCap::Refuse && out.bytes >= OUTBOX_CAP {
            return Ok(Some(frames));
        }
        // Inline when nothing is queued and no writability wait is armed:
        // the socket buffer likely has room, and the outbox lock keeps
        // the write in order with every other sender's.
        let inline = out.q.is_empty() && !out.epollout;
        for body in frames {
            out.bytes += 4 + body.len();
            out.q.push_back(OutFrame {
                prefix: (body.len() as u32).to_le_bytes(),
                body,
            });
        }
        if inline {
            match out.write_to(&self.stream, &self.poller.write_calls) {
                Ok(true) => return Ok(None),
                Ok(false) => {}
                Err(_) => {
                    out.q.clear();
                    out.bytes = 0;
                    drop(out);
                    self.record_reason(CloseReason::Io);
                    self.closed.store(true, Ordering::SeqCst);
                    self.request_teardown();
                    return Err(TransportError::Closed);
                }
            }
        }
        let need_kick = !out.epollout;
        drop(out);
        if need_kick && !self.write_scheduled.swap(true, Ordering::SeqCst) {
            self.poller.kick(Arc::clone(self));
        }
        Ok(None)
    }

    pub(crate) fn recv(&self) -> Result<Vec<u8>, TransportError> {
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(f) = inbox.q.pop_front() {
                return Ok(f);
            }
            if inbox.fin || self.closed.load(Ordering::SeqCst) {
                return Err(TransportError::Closed);
            }
            inbox = self.inbox_cv.wait(inbox);
        }
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(f) = inbox.q.pop_front() {
                return Ok(f);
            }
            if inbox.fin || self.closed.load(Ordering::SeqCst) {
                return Err(TransportError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let (guard, _) = self.inbox_cv.wait_timeout(inbox, deadline - now);
            inbox = guard;
        }
    }

    pub(crate) fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut inbox = self.inbox.lock();
        if let Some(f) = inbox.q.pop_front() {
            return Ok(Some(f));
        }
        if inbox.fin || self.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        Ok(None)
    }

    /// Switches to push-mode delivery; queued frames drain into the sink
    /// first so ordering is preserved across the switch. A sink installed
    /// after the stream ended is told so and not kept (see [`deliver_fin`]).
    pub(crate) fn set_sink(&self, mut new_sink: Box<dyn FrameSink>) {
        let mut sink = self.sink.lock();
        let (drained, fin) = {
            let mut inbox = self.inbox.lock();
            let drained: Vec<Vec<u8>> = inbox.q.drain(..).collect();
            (drained, inbox.fin)
        };
        for f in drained {
            new_sink.on_frame(f);
        }
        if !fin {
            *sink = Some(new_sink);
            return;
        }
        let deliver = {
            let mut inbox = self.inbox.lock();
            let first = !inbox.fin_delivered;
            inbox.fin_delivered = true;
            first
        };
        drop(sink);
        if deliver {
            new_sink.on_close();
        }
    }

    /// Local graceful close: new sends fail immediately, the poller
    /// flushes anything already queued, then sends FIN and tears down.
    pub(crate) fn close(self: &Arc<Self>) {
        self.record_reason(CloseReason::Local);
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut out = self.out.lock();
            out.closing = true;
            self.out_cv.notify_all();
        }
        {
            let _inbox = self.inbox.lock();
            self.inbox_cv.notify_all();
        }
        self.request_teardown();
    }

    /// Asks the owning poller to finish this connection (flush + FIN +
    /// deregister). Safe from any thread.
    fn request_teardown(self: &Arc<Self>) {
        {
            let mut out = self.out.lock();
            out.closing = true;
        }
        if !self.write_scheduled.swap(true, Ordering::SeqCst) {
            self.poller.kick(Arc::clone(self));
        } else {
            // Already scheduled for a flush; make sure the poller actually
            // wakes to observe `closing` even if EPOLLOUT never fires.
            self.poller.ring();
        }
    }

    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// Poller: one I/O thread.
// ---------------------------------------------------------------------------

struct Poller {
    selector: Selector,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    kicks: Mutex<Vec<Arc<Conn>>>,
    /// Coalesces doorbell writes: set when a wake is already pending.
    bell_pending: AtomicBool,
    bell_tx: Mutex<UnixStream>,
    bell_rx: UnixStream,
    stop: Arc<AtomicBool>,
    open_gauge: alfredo_obs::Gauge,
    /// `net.tcp.write_calls`: every `writev` on a connection's socket.
    write_calls: alfredo_obs::Counter,
}

impl Poller {
    fn new(backend: Backend, stop: Arc<AtomicBool>) -> io::Result<Poller> {
        let (bell_tx, bell_rx) = UnixStream::pair()?;
        bell_tx.set_nonblocking(true)?;
        bell_rx.set_nonblocking(true)?;
        let selector = Selector::new(backend)?;
        selector.register(bell_rx.as_raw_fd(), DOORBELL_TOKEN, false);
        Ok(Poller {
            selector,
            conns: Mutex::new(HashMap::new()),
            kicks: Mutex::new(Vec::new()),
            bell_pending: AtomicBool::new(false),
            bell_tx: Mutex::new(bell_tx),
            bell_rx,
            stop,
            open_gauge: alfredo_obs::global_metrics().gauge("net.open_connections"),
            write_calls: alfredo_obs::global_metrics().counter("net.tcp.write_calls"),
        })
    }

    /// Schedules `conn` for a flush/teardown pass and wakes the poller.
    fn kick(&self, conn: Arc<Conn>) {
        self.kicks.lock().push(conn);
        self.ring();
    }

    fn ring(&self) {
        if !self.bell_pending.swap(true, Ordering::SeqCst) {
            let _ = self.bell_tx.lock().write(&[1]);
        }
    }

    fn register(self: &Arc<Self>, conn: &Arc<Conn>) {
        self.conns.lock().insert(conn.token, Arc::clone(conn));
        self.selector.register(conn.fd(), conn.token, false);
        self.open_gauge.add(1);
        // The poll backend rebuilds its fd set per wait, so it must wake
        // to notice the newcomer; epoll picks up new fds while blocked.
        if matches!(self.selector, Selector::Poll) {
            self.ring();
        }
    }

    fn run(self: Arc<Self>) {
        mark_reactor_thread();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut poll_set: Vec<(i32, u64, bool)> = Vec::new();
        // `stop` is read before every wait, not after it: a doorbell ring
        // that found a wake-up already pending writes no byte, so a poller
        // that had checked the flag on its way out of the previous wait
        // would otherwise sleep through the ring that announced it.
        while !self.stop.load(Ordering::SeqCst) {
            poll_set.clear();
            if matches!(self.selector, Selector::Poll) {
                poll_set.push((self.bell_rx.as_raw_fd(), DOORBELL_TOKEN, false));
                for conn in self.conns.lock().values() {
                    let writable = conn.out.lock().epollout;
                    poll_set.push((conn.fd(), conn.token, writable));
                }
            }
            self.selector.wait(&mut events, &poll_set);
            for &(token, readable, writable) in &events {
                if token == DOORBELL_TOKEN {
                    self.drain_bell();
                    continue;
                }
                let conn = self.conns.lock().get(&token).cloned();
                let Some(conn) = conn else { continue };
                if readable {
                    self.handle_readable(&conn, &mut scratch, &mut frames);
                }
                if writable && !conn.dead.load(Ordering::SeqCst) {
                    self.flush(&conn);
                }
            }
            self.process_kicks();
        }
    }

    fn drain_bell(&self) {
        // Drain the pipe *before* clearing the pending flag: a kicker that
        // saw the flag set (and skipped its write) pushed its kick before
        // the flag could clear, so the process_kicks pass that follows
        // this drain is guaranteed to observe it. Clearing first would let
        // the drain swallow a byte whose wakeup was still owed.
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.bell_rx).read(&mut buf) {
            if n < buf.len() {
                break;
            }
        }
        self.bell_pending.store(false, Ordering::SeqCst);
    }

    fn process_kicks(self: &Arc<Self>) {
        loop {
            let batch: Vec<Arc<Conn>> = std::mem::take(&mut *self.kicks.lock());
            if batch.is_empty() {
                return;
            }
            for conn in batch {
                if !conn.dead.load(Ordering::SeqCst) {
                    self.flush(&conn);
                }
            }
        }
    }

    /// Drains the outbox ([`Outbox::write_to`]). Arms/disarms EPOLLOUT as
    /// needed and completes a pending graceful close once drained.
    fn flush(self: &Arc<Self>, conn: &Arc<Conn>) {
        let mut out = conn.out.lock();
        match out.write_to(&conn.stream, &self.write_calls) {
            Ok(true) => {}
            Ok(false) => {
                if out.bytes < OUTBOX_CAP {
                    conn.out_cv.notify_all();
                }
                if !out.epollout {
                    out.epollout = true;
                    self.selector.update(conn.fd(), conn.token, true);
                }
                return;
            }
            Err(_) => {
                drop(out);
                self.teardown(conn, CloseReason::Io);
                return;
            }
        }
        // Outbox drained.
        if out.epollout {
            out.epollout = false;
            self.selector.update(conn.fd(), conn.token, false);
        }
        conn.write_scheduled.store(false, Ordering::SeqCst);
        conn.out_cv.notify_all();
        let closing = out.closing;
        drop(out);
        if closing {
            self.teardown(conn, CloseReason::Local);
        }
    }

    fn handle_readable(
        self: &Arc<Self>,
        conn: &Arc<Conn>,
        scratch: &mut [u8],
        frames: &mut Vec<Vec<u8>>,
    ) {
        let discard = conn.out.lock().closing;
        let mut read = conn.read.lock();
        loop {
            match (&mut &conn.stream).read(scratch) {
                Ok(0) => {
                    drop(read);
                    self.teardown(conn, CloseReason::Peer);
                    return;
                }
                Ok(n) => {
                    if discard {
                        continue;
                    }
                    frames.clear();
                    if !read.feed(&scratch[..n], frames) {
                        drop(read);
                        self.teardown(conn, CloseReason::CorruptStream);
                        return;
                    }
                    for f in frames.drain(..) {
                        deliver_frame(conn, f);
                    }
                    if n < scratch.len() {
                        // A short read emptied the socket buffer; asking
                        // again would only cost an EAGAIN. Both selectors
                        // are level-triggered, so bytes (or the EOF) that
                        // arrive from here on are reported again.
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    drop(read);
                    self.teardown(conn, CloseReason::Io);
                    return;
                }
            }
        }
    }

    /// Final teardown: record the cause, fail senders, FIN the socket,
    /// deregister, and deliver end-of-stream exactly once.
    fn teardown(self: &Arc<Self>, conn: &Arc<Conn>, reason: CloseReason) {
        if conn.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        conn.record_reason(reason);
        conn.closed.store(true, Ordering::SeqCst);
        {
            let mut out = conn.out.lock();
            out.q.clear();
            out.bytes = 0;
            out.closing = true;
            conn.out_cv.notify_all();
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.selector.deregister(conn.fd());
        if self.conns.lock().remove(&conn.token).is_some() {
            self.open_gauge.add(-1);
        }
        deliver_fin(conn);
    }
}

/// Delivers one inbound frame: into the sink when installed, else the
/// pull-mode inbox. The inbox push happens under the sink lock so a
/// concurrent `set_sink` cannot strand a frame behind the mode switch.
fn deliver_frame(conn: &Conn, frame: Vec<u8>) {
    let mut sink = conn.sink.lock();
    if let Some(s) = sink.as_mut() {
        s.on_frame(frame);
    } else {
        let mut inbox = conn.inbox.lock();
        inbox.q.push_back(frame);
        conn.inbox_cv.notify_all();
    }
}

/// Marks end-of-stream and fires `on_close` exactly once if a sink is
/// installed (otherwise pull-mode readers observe `fin`), then lets the
/// sink go: nothing more will be delivered, and a sink that holds this
/// connection's transport would otherwise keep the connection, its
/// socket and itself alive for good.
fn deliver_fin(conn: &Conn) {
    let mut sink = conn.sink.lock();
    let deliver = {
        let mut inbox = conn.inbox.lock();
        inbox.fin = true;
        conn.inbox_cv.notify_all();
        if sink.is_some() && !inbox.fin_delivered {
            inbox.fin_delivered = true;
            true
        } else {
            false
        }
    };
    if deliver {
        if let Some(s) = sink.as_mut() {
            s.on_close();
        }
    }
    let spent = sink.take();
    // Dropped outside the sink lock: the sink's own drop may close the
    // transport, which must not find this lock held.
    drop(sink);
    drop(spent);
}

// ---------------------------------------------------------------------------
// Timer wheel.
// ---------------------------------------------------------------------------

const WHEEL_SLOTS: usize = 256;
/// Idle park bound: a parked wheel re-checks liveness this often so the
/// thread exits once every user handle is dropped.
const WHEEL_IDLE_PARK: Duration = Duration::from_millis(500);

struct TimerEntry {
    rounds: u64,
    f: Box<dyn FnOnce() + Send>,
}

struct WheelState {
    slots: Vec<HashMap<u64, TimerEntry>>,
    cursor: usize,
    next_tick_at: Option<Instant>,
    entries: usize,
    next_id: u64,
    started: bool,
}

struct WheelInner {
    state: Mutex<WheelState>,
    cv: Condvar,
    tick: Duration,
    gauge: alfredo_obs::Gauge,
}

/// Handle to a scheduled timer, used to [`TimerWheel::cancel`] it.
#[derive(Debug, Clone, Copy)]
pub struct TimerKey {
    id: u64,
    slot: usize,
}

/// A hashed timer wheel: every heartbeat and lease TTL in the process
/// runs as a callback on one shared thread, instead of one parked thread
/// per endpoint.
///
/// Callbacks run on the wheel thread, which is marked as a reactor thread
/// — sends from callbacks never block on outbox backpressure. Callbacks
/// must be short; a long callback delays every other timer.
#[derive(Clone)]
pub struct TimerWheel {
    inner: Arc<WheelInner>,
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("entries", &self.inner.state.lock().entries)
            .finish()
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new(Duration::from_millis(8))
    }
}

impl TimerWheel {
    /// Creates a wheel with the given tick granularity. The driving thread
    /// spawns lazily on the first `schedule` and exits once every clone of
    /// the wheel is dropped.
    pub fn new(tick: Duration) -> TimerWheel {
        TimerWheel {
            inner: Arc::new(WheelInner {
                state: Mutex::new(WheelState {
                    slots: (0..WHEEL_SLOTS).map(|_| HashMap::new()).collect(),
                    cursor: 0,
                    next_tick_at: None,
                    entries: 0,
                    next_id: 0,
                    started: false,
                }),
                cv: Condvar::new(),
                tick: tick.max(Duration::from_millis(1)),
                gauge: alfredo_obs::global_metrics().gauge("net.timer_entries"),
            }),
        }
    }

    /// Runs `f` once, roughly `after` from now (rounded up to the tick).
    pub fn schedule(&self, after: Duration, f: Box<dyn FnOnce() + Send>) -> TimerKey {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if !st.started {
            st.started = true;
            let weak = Arc::downgrade(inner);
            std::thread::Builder::new()
                .name("alfredo-timer-wheel".into())
                .spawn(move || wheel_thread(weak))
                .expect("spawn timer wheel thread");
        }
        let ticks = (after.as_nanos().div_ceil(inner.tick.as_nanos()).max(1)) as u64;
        let slot = (st.cursor + ticks as usize) % WHEEL_SLOTS;
        let rounds = (ticks - 1) / WHEEL_SLOTS as u64;
        let id = st.next_id;
        st.next_id += 1;
        st.slots[slot].insert(id, TimerEntry { rounds, f });
        st.entries += 1;
        inner.gauge.add(1);
        if st.next_tick_at.is_none() {
            st.next_tick_at = Some(Instant::now() + inner.tick);
        }
        inner.cv.notify_all();
        TimerKey { id, slot }
    }

    /// Cancels a scheduled timer; returns `false` if it already fired
    /// (or was cancelled before).
    pub fn cancel(&self, key: TimerKey) -> bool {
        let mut st = self.inner.state.lock();
        if st.slots[key.slot].remove(&key.id).is_some() {
            st.entries -= 1;
            self.inner.gauge.add(-1);
            true
        } else {
            false
        }
    }

    /// Number of pending timers.
    pub fn entries(&self) -> usize {
        self.inner.state.lock().entries
    }
}

fn wheel_thread(weak: Weak<WheelInner>) {
    mark_reactor_thread();
    loop {
        let Some(inner) = weak.upgrade() else { return };
        let mut due: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        {
            let mut st = inner.state.lock();
            if st.entries == 0 {
                st.next_tick_at = None;
                let (guard, _) = inner.cv.wait_timeout(st, WHEEL_IDLE_PARK);
                drop(guard);
                continue;
            }
            let target = *st
                .next_tick_at
                .get_or_insert_with(|| Instant::now() + inner.tick);
            let now = Instant::now();
            if now < target {
                let wait = (target - now).min(WHEEL_IDLE_PARK);
                let (guard, _) = inner.cv.wait_timeout(st, wait);
                drop(guard);
                continue;
            }
            // One tick elapsed: advance the cursor and collect due timers.
            st.cursor = (st.cursor + 1) % WHEEL_SLOTS;
            let cursor = st.cursor;
            let fire: Vec<u64> = st.slots[cursor]
                .iter_mut()
                .filter_map(|(id, e)| {
                    if e.rounds == 0 {
                        Some(*id)
                    } else {
                        e.rounds -= 1;
                        None
                    }
                })
                .collect();
            for id in fire {
                if let Some(e) = st.slots[cursor].remove(&id) {
                    due.push(e.f);
                    st.entries -= 1;
                    inner.gauge.add(-1);
                }
            }
            st.next_tick_at = Some(target + inner.tick);
        }
        for f in due {
            f();
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor.
// ---------------------------------------------------------------------------

struct ReactorInner {
    pollers: Vec<Arc<Poller>>,
    next: AtomicUsize,
    next_token: AtomicU64,
    wheel: TimerWheel,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    io_gauge: alfredo_obs::Gauge,
}

/// A readiness-driven I/O core: a fixed set of poller threads plus a
/// shared [`TimerWheel`]. Most code uses [`Reactor::global`]; tests can
/// build private instances (e.g. to exercise the `poll(2)` backend).
pub struct Reactor {
    inner: Arc<ReactorInner>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("io_threads", &self.inner.pollers.len())
            .finish()
    }
}

/// Point-in-time reactor resource counts, read from the process-global
/// gauges (zero until the first reactor/timer activity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections currently registered with any reactor.
    pub open_connections: u64,
    /// Poller threads across all live reactors.
    pub io_threads: u64,
    /// Pending timer-wheel entries.
    pub timer_entries: u64,
}

/// Reads the reactor gauges. Cheap; safe to call even if no reactor has
/// ever started (all zeros).
pub fn current_stats() -> ReactorStats {
    let m = alfredo_obs::global_metrics();
    ReactorStats {
        open_connections: m.gauge("net.open_connections").get().max(0) as u64,
        io_threads: m.gauge("net.io_threads").get().max(0) as u64,
        timer_entries: m.gauge("net.timer_entries").get().max(0) as u64,
    }
}

impl Reactor {
    /// Builds a reactor with `io_threads` pollers on the given backend.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the selector or doorbell cannot
    /// be created.
    pub fn new(io_threads: usize, backend: Backend) -> io::Result<Reactor> {
        let io_threads = io_threads.clamp(1, 8);
        let stop = Arc::new(AtomicBool::new(false));
        let mut pollers = Vec::with_capacity(io_threads);
        let mut threads = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let poller = Arc::new(Poller::new(backend, Arc::clone(&stop))?);
            let runner = Arc::clone(&poller);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("alfredo-io-{i}"))
                    .spawn(move || runner.run())?,
            );
            pollers.push(poller);
        }
        let io_gauge = alfredo_obs::global_metrics().gauge("net.io_threads");
        io_gauge.add(io_threads as i64);
        Ok(Reactor {
            inner: Arc::new(ReactorInner {
                pollers,
                next: AtomicUsize::new(0),
                next_token: AtomicU64::new(0),
                wheel: TimerWheel::default(),
                stop,
                threads: Mutex::new(threads),
                io_gauge,
            }),
        })
    }

    /// The process-wide reactor, started on first use. Thread count comes
    /// from `ALFREDO_IO_THREADS` or defaults to `min(4, cores)`; backend
    /// from [`Backend::default_for_platform`].
    pub fn global() -> &'static Reactor {
        static GLOBAL: OnceLock<Reactor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("ALFREDO_IO_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get().min(4))
                        .unwrap_or(2)
                });
            Reactor::new(threads, Backend::default_for_platform()).expect("start global reactor")
        })
    }

    /// The reactor's shared timer wheel.
    pub fn timer(&self) -> &TimerWheel {
        &self.inner.wheel
    }

    /// Number of poller threads.
    pub fn io_threads(&self) -> usize {
        self.inner.pollers.len()
    }

    /// Adopts a stream: makes it non-blocking and hands it to the
    /// least-recently-used poller.
    pub(crate) fn register(&self, stream: TcpStream) -> io::Result<Arc<Conn>> {
        stream.set_nodelay(true)?;
        let local = PeerAddr::new(format!("tcp://{}", stream.local_addr()?));
        let peer = PeerAddr::new(format!("tcp://{}", stream.peer_addr()?));
        stream.set_nonblocking(true)?;
        let idx = self.inner.next.fetch_add(1, Ordering::Relaxed) % self.inner.pollers.len();
        let poller = Arc::clone(&self.inner.pollers[idx]);
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            token,
            stream,
            poller: Arc::clone(&poller),
            local,
            peer,
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            reason: Mutex::new(CloseReason::Unknown),
            read: Mutex::new(ReadState::new()),
            inbox: Mutex::new(Inbox {
                q: VecDeque::new(),
                fin: false,
                fin_delivered: false,
            }),
            inbox_cv: Condvar::new(),
            sink: Mutex::new(None),
            out: Mutex::new(Outbox {
                q: VecDeque::new(),
                bytes: 0,
                front_off: 0,
                epollout: false,
                closing: false,
            }),
            out_cv: Condvar::new(),
            write_scheduled: AtomicBool::new(false),
        });
        poller.register(&conn);
        Ok(conn)
    }
}

impl Drop for ReactorInner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for p in &self.pollers {
            p.ring();
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        // Fail over any connections still registered so blocked readers
        // and writers observe Closed instead of hanging.
        for p in &self.pollers {
            let conns: Vec<Arc<Conn>> = p.conns.lock().drain().map(|(_, c)| c).collect();
            for conn in conns {
                if !conn.dead.swap(true, Ordering::SeqCst) {
                    conn.record_reason(CloseReason::Local);
                    conn.closed.store(true, Ordering::SeqCst);
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    {
                        let mut out = conn.out.lock();
                        out.q.clear();
                        out.bytes = 0;
                        conn.out_cv.notify_all();
                    }
                    alfredo_obs::global_metrics()
                        .gauge("net.open_connections")
                        .add(-1);
                    deliver_fin(&conn);
                }
            }
        }
        self.io_gauge.add(-(self.pollers.len() as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn read_state_reassembles_across_splits() {
        let mut rs = ReadState::new();
        let mut frames = Vec::new();
        // Two frames, fed one byte at a time.
        let mut wire = Vec::new();
        for body in [&b"hello"[..], &b"world!"[..]] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        for b in &wire {
            assert!(rs.feed(std::slice::from_ref(b), &mut frames));
        }
        assert_eq!(frames, vec![b"hello".to_vec(), b"world!".to_vec()]);
    }

    #[test]
    fn read_state_rejects_oversized_prefix() {
        let mut rs = ReadState::new();
        let mut frames = Vec::new();
        assert!(!rs.feed(&u32::MAX.to_le_bytes(), &mut frames));
        assert!(frames.is_empty());
    }

    #[test]
    fn timer_wheel_fires_and_cancels() {
        let wheel = TimerWheel::new(Duration::from_millis(2));
        let fired = Arc::new(AtomicUsize::new(0));
        let f1 = Arc::clone(&fired);
        let _k1 = wheel.schedule(
            Duration::from_millis(10),
            Box::new(move || {
                f1.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let f2 = Arc::clone(&fired);
        let k2 = wheel.schedule(
            Duration::from_millis(10),
            Box::new(move || {
                f2.fetch_add(100, Ordering::SeqCst);
            }),
        );
        assert!(wheel.cancel(k2));
        assert!(!wheel.cancel(k2));
        let deadline = Instant::now() + Duration::from_secs(2);
        while fired.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(wheel.entries(), 0);
    }

    #[test]
    fn timer_wheel_long_delays_use_rounds() {
        // A delay longer than one wheel revolution must not fire early.
        let wheel = TimerWheel::new(Duration::from_millis(1));
        let fired = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&fired);
        // 300 ticks > 256 slots → rounds > 0.
        wheel.schedule(
            Duration::from_millis(300),
            Box::new(move || f.store(true, Ordering::SeqCst)),
        );
        std::thread::sleep(Duration::from_millis(120));
        assert!(!fired.load(Ordering::SeqCst), "fired a full round early");
        let deadline = Instant::now() + Duration::from_secs(3);
        while !fired.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(fired.load(Ordering::SeqCst));
    }
}
