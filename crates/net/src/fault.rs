//! Deterministic fault injection for transports.
//!
//! AlfredO targets spontaneous interaction over flaky WLAN/Bluetooth links,
//! so the failure modes of the wire — loss, reordering-by-duplication,
//! corruption, latency spikes, partitions — must be first-class and
//! *reproducible*. [`FaultyTransport`] wraps any [`Transport`] and perturbs
//! traffic according to a [`FaultPlan`] driven by a seeded
//! [`alfredo_sim::SimRng`]: the same seed over the same traffic
//! produces the same faults, so chaos tests are deterministic.
//!
//! A [`PartitionHandle`] lets a test sever the link mid-flight and heal it
//! later; while partitioned the link black-holes frames in both directions
//! (the sender cannot tell a partition from a slow network, exactly as on a
//! real radio link).
//!
//! An empty plan ([`FaultPlan::none`]) is a byte-identical passthrough —
//! verified by property tests — so the wrapper can stay in place in
//! fault-free runs.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_sim::SimRng;
use alfredo_sync::Mutex;

use crate::transport::{CloseReason, FrameSink, PeerAddr, Transport, TransportError};

/// How often a blocked `recv` re-checks the partition flag.
const RECV_POLL: Duration = Duration::from_millis(20);

/// A seeded description of the faults to inject on one transport.
///
/// All probabilities are per-frame and independent. Send-side faults apply
/// to frames leaving through the wrapped transport, receive-side faults to
/// frames arriving from it — wrap each side of a connection with its own
/// plan to model asymmetric links.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG. Same seed + same traffic = same faults.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop_send: f64,
    /// Probability a received frame is silently dropped.
    pub drop_recv: f64,
    /// Probability a sent frame is delivered twice.
    pub duplicate_send: f64,
    /// Probability one byte of a sent frame is flipped.
    pub corrupt_send: f64,
    /// Probability a sent frame is delayed before transmission.
    pub delay_send: f64,
    /// Upper bound for injected delays (uniformly drawn).
    pub max_delay: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing: the wrapper becomes a passthrough.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_send: 0.0,
            drop_recv: 0.0,
            duplicate_send: 0.0,
            corrupt_send: 0.0,
            delay_send: 0.0,
            max_delay: Duration::ZERO,
        }
    }

    /// An empty plan with a fault RNG seed; combine with the `with_*`
    /// builders to enable individual fault classes.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the probability of dropping a sent frame.
    #[must_use]
    pub fn with_send_drop(mut self, p: f64) -> Self {
        self.drop_send = p;
        self
    }

    /// Sets the probability of dropping a received frame.
    #[must_use]
    pub fn with_recv_drop(mut self, p: f64) -> Self {
        self.drop_recv = p;
        self
    }

    /// Sets the probability of duplicating a sent frame.
    #[must_use]
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate_send = p;
        self
    }

    /// Sets the probability of corrupting one byte of a sent frame.
    #[must_use]
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_send = p;
        self
    }

    /// Sets the probability and upper bound of delaying a sent frame.
    #[must_use]
    pub fn with_delay(mut self, p: f64, max: Duration) -> Self {
        self.delay_send = p;
        self.max_delay = max;
        self
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.drop_send == 0.0
            && self.drop_recv == 0.0
            && self.duplicate_send == 0.0
            && self.corrupt_send == 0.0
            && self.delay_send == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// A shared switch that severs and heals a [`FaultyTransport`]'s link.
///
/// Cloneable; all clones control the same partition. While partitioned the
/// transport black-holes traffic in both directions — sends still return
/// `Ok` (the sender cannot observe a partition) and receives deliver
/// nothing.
#[derive(Clone, Default)]
pub struct PartitionHandle {
    partitioned: Arc<AtomicBool>,
}

impl PartitionHandle {
    /// Creates a healed (connected) handle.
    pub fn new() -> Self {
        PartitionHandle::default()
    }

    /// Severs the link.
    pub fn partition(&self) {
        self.partitioned.store(true, Ordering::SeqCst);
    }

    /// Restores the link.
    pub fn heal(&self) {
        self.partitioned.store(false, Ordering::SeqCst);
    }

    /// Whether the link is currently severed.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for PartitionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionHandle")
            .field("partitioned", &self.is_partitioned())
            .finish()
    }
}

/// A shared knob that adds a fixed send delay to a [`FaultyTransport`]
/// at runtime — the link-degradation counterpart of [`PartitionHandle`].
///
/// A [`FaultPlan`] is immutable once the transport is built, which keeps
/// chaos runs reproducible but means a test cannot *change* link quality
/// mid-session. `DelayHandle` covers that: cloneable, all clones control
/// the same delay, and setting it to a non-zero duration makes every
/// subsequent send sleep that long before transmission (the frame still
/// arrives — this models a slow link, not a lossy one). Applies to the
/// send side only; wrap each half of a connection to delay both ways.
#[derive(Clone, Default)]
pub struct DelayHandle {
    micros: Arc<AtomicU64>,
}

impl DelayHandle {
    /// Creates a handle with no delay.
    pub fn new() -> Self {
        DelayHandle::default()
    }

    /// Degrades the link: every send now sleeps `delay` first.
    pub fn set_delay(&self, delay: Duration) {
        self.micros.store(
            delay.as_micros().min(u64::MAX as u128) as u64,
            Ordering::SeqCst,
        );
    }

    /// Restores the link to full speed.
    pub fn clear(&self) {
        self.micros.store(0, Ordering::SeqCst);
    }

    /// The currently configured delay, if any.
    pub fn delay(&self) -> Option<Duration> {
        match self.micros.load(Ordering::SeqCst) {
            0 => None,
            us => Some(Duration::from_micros(us)),
        }
    }
}

impl fmt::Debug for DelayHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DelayHandle")
            .field("delay", &self.delay())
            .finish()
    }
}

#[derive(Debug, Default)]
struct FaultCounters {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    blackholed: AtomicU64,
}

/// A snapshot of the faults a [`FaultyTransport`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently dropped (send or receive side).
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames with a flipped byte.
    pub corrupted: u64,
    /// Frames held back by an injected delay.
    pub delayed: u64,
    /// Frames swallowed by an active partition.
    pub blackholed: u64,
}

/// Receive-side fault state, shared between the wrapper and any
/// [`FrameSink`] installed through it (the reactor's push-mode delivery
/// runs the same partition/drop filter as the pull-mode `recv*` path).
struct RecvCore {
    plan: FaultPlan,
    recv_rng: Mutex<SimRng>,
    partition: PartitionHandle,
    delay: DelayHandle,
    counters: FaultCounters,
    peer: PeerAddr,
}

impl RecvCore {
    /// Counts one injected fault and announces it on the structured
    /// event hub (`net.fault` / `inject`), so chaos tests can assert on
    /// the exact faults a run suffered.
    fn note_fault(&self, kind: &'static str, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        alfredo_obs::event("net.fault", "inject", || {
            vec![
                ("kind".to_string(), kind.to_string()),
                ("peer".to_string(), self.peer.to_string()),
            ]
        });
    }

    /// Applies receive-side faults: returns `None` if the frame is to be
    /// swallowed.
    fn filter_recv(&self, frame: Vec<u8>) -> Option<Vec<u8>> {
        if self.partition.is_partitioned() {
            self.note_fault("blackhole", &self.counters.blackholed);
            return None;
        }
        if self.plan.drop_recv > 0.0 && self.recv_rng.lock().next_f64() < self.plan.drop_recv {
            self.note_fault("drop", &self.counters.dropped);
            return None;
        }
        Some(frame)
    }
}

/// A sink wrapper that runs receive-side faults before forwarding.
struct FaultySink {
    core: Arc<RecvCore>,
    inner: Box<dyn FrameSink>,
}

impl FrameSink for FaultySink {
    fn on_frame(&mut self, frame: Vec<u8>) {
        if let Some(frame) = self.core.filter_recv(frame) {
            self.inner.on_frame(frame);
        }
    }

    fn on_close(&mut self) {
        self.inner.on_close();
    }
}

/// A [`Transport`] wrapper that injects faults per a [`FaultPlan`].
///
/// Fault decisions come from two seeded RNG streams (one per direction)
/// split from the plan's seed, so a single-threaded caller replaying the
/// same traffic sees the identical fault sequence. With concurrent senders
/// the *decisions* stay seeded but their assignment to frames follows
/// thread interleaving.
///
/// [`Transport::set_sink`] is forwarded with the receive-side filter
/// (partition black-hole, seeded drops) interposed in front of the
/// caller's sink. Send-side faults are applied before the frame reaches
/// the wrapped transport either way. Note that an injected *delay* sleeps
/// on the sending thread — for a heartbeat ping that is the shared timer
/// wheel, which then ticks nothing else for that long.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    send_rng: Mutex<SimRng>,
    recv: Arc<RecvCore>,
}

impl FaultyTransport {
    /// Wraps `inner` with a fresh (healed) partition handle.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        FaultyTransport::with_partition(inner, plan, PartitionHandle::new())
    }

    /// Wraps `inner`, sharing `partition` — wrap both halves of a
    /// connection with clones of one handle to partition it atomically.
    pub fn with_partition(
        inner: Box<dyn Transport>,
        plan: FaultPlan,
        partition: PartitionHandle,
    ) -> Self {
        let mut root = SimRng::seed_from(plan.seed);
        let send_rng = root.split();
        let recv_rng = root.split();
        let peer = inner.peer_addr().clone();
        FaultyTransport {
            inner,
            send_rng: Mutex::new(send_rng),
            recv: Arc::new(RecvCore {
                plan,
                recv_rng: Mutex::new(recv_rng),
                partition,
                delay: DelayHandle::new(),
                counters: FaultCounters::default(),
                peer,
            }),
        }
    }

    /// A handle controlling this transport's partition state.
    pub fn partition_handle(&self) -> PartitionHandle {
        self.recv.partition.clone()
    }

    /// A handle controlling this transport's runtime send delay.
    pub fn delay_handle(&self) -> DelayHandle {
        self.recv.delay.clone()
    }

    /// The plan this transport injects.
    pub fn plan(&self) -> &FaultPlan {
        &self.recv.plan
    }

    /// Counters of the faults injected so far.
    pub fn stats(&self) -> FaultStats {
        let c = &self.recv.counters;
        FaultStats {
            dropped: c.dropped.load(Ordering::Relaxed),
            duplicated: c.duplicated.load(Ordering::Relaxed),
            corrupted: c.corrupted.load(Ordering::Relaxed),
            delayed: c.delayed.load(Ordering::Relaxed),
            blackholed: c.blackholed.load(Ordering::Relaxed),
        }
    }

    fn note_fault(&self, kind: &'static str, counter: &AtomicU64) {
        self.recv.note_fault(kind, counter);
    }

    fn filter_recv(&self, frame: Vec<u8>) -> Option<Vec<u8>> {
        self.recv.filter_recv(frame)
    }
}

impl fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("plan", &self.recv.plan)
            .field("partitioned", &self.recv.partition.is_partitioned())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Transport for FaultyTransport {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        if self.recv.partition.is_partitioned() {
            if self.inner.is_closed() {
                return Err(TransportError::Closed);
            }
            // A partition black-holes traffic: the sender cannot tell it
            // from a slow network, so the send itself succeeds.
            self.note_fault("blackhole", &self.recv.counters.blackholed);
            return Ok(());
        }
        // The runtime delay knob sits outside the seeded plan (and its
        // noop shortcut): it models link *quality* changing mid-run, not
        // a reproducible fault draw.
        if let Some(d) = self.recv.delay.delay() {
            self.note_fault("delay", &self.recv.counters.delayed);
            std::thread::sleep(d);
        }
        if self.recv.plan.is_noop() {
            return self.inner.send(frame);
        }
        let mut frame = frame;
        let (duplicate, delay_for) = {
            let mut rng = self.send_rng.lock();
            if self.recv.plan.drop_send > 0.0 && rng.next_f64() < self.recv.plan.drop_send {
                self.note_fault("drop", &self.recv.counters.dropped);
                return Ok(());
            }
            let duplicate = self.recv.plan.duplicate_send > 0.0
                && rng.next_f64() < self.recv.plan.duplicate_send;
            if self.recv.plan.corrupt_send > 0.0
                && rng.next_f64() < self.recv.plan.corrupt_send
                && !frame.is_empty()
            {
                let idx = rng.next_below(frame.len() as u64) as usize;
                frame[idx] ^= 0xA5;
                self.note_fault("corrupt", &self.recv.counters.corrupted);
            }
            let delay_for = if self.recv.plan.delay_send > 0.0
                && rng.next_f64() < self.recv.plan.delay_send
                && !self.recv.plan.max_delay.is_zero()
            {
                Some(self.recv.plan.max_delay.mul_f64(rng.next_f64()))
            } else {
                None
            };
            (duplicate, delay_for)
        };
        if let Some(d) = delay_for {
            self.note_fault("delay", &self.recv.counters.delayed);
            std::thread::sleep(d);
        }
        if duplicate {
            self.note_fault("duplicate", &self.recv.counters.duplicated);
            self.inner.send(frame.clone())?;
        }
        self.inner.send(frame)
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        loop {
            // While partitioned, poll in short slices so frames arriving
            // mid-partition are swallowed promptly instead of queueing
            // for delivery after the heal. While healthy, block — every
            // frame still goes through `filter_recv` at delivery time,
            // so a partition engaged mid-wait swallows it all the same,
            // and the healthy path pays no timed-wait overhead.
            if self.recv.partition.is_partitioned() {
                match self.inner.recv_timeout(RECV_POLL) {
                    Ok(frame) => {
                        if let Some(frame) = self.filter_recv(frame) {
                            return Ok(frame);
                        }
                    }
                    Err(TransportError::Timeout) => continue,
                    Err(e) => return Err(e),
                }
                continue;
            }
            match self.inner.recv() {
                Ok(frame) => {
                    if let Some(frame) = self.filter_recv(frame) {
                        return Ok(frame);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            let slice = if self.recv.partition.is_partitioned() {
                remaining.min(RECV_POLL)
            } else {
                remaining
            };
            match self.inner.recv_timeout(slice) {
                Ok(frame) => {
                    if let Some(frame) = self.filter_recv(frame) {
                        return Ok(frame);
                    }
                }
                Err(TransportError::Timeout) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        loop {
            match self.inner.try_recv()? {
                Some(frame) => {
                    if let Some(frame) = self.filter_recv(frame) {
                        return Ok(Some(frame));
                    }
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn close_reason(&self) -> CloseReason {
        self.inner.close_reason()
    }

    fn peer_addr(&self) -> &PeerAddr {
        self.inner.peer_addr()
    }

    fn local_addr(&self) -> &PeerAddr {
        self.inner.local_addr()
    }

    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.inner.set_sink(Box::new(FaultySink {
            core: Arc::clone(&self.recv),
            inner: sink,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryNetwork;

    fn faulty_pair(plan: FaultPlan) -> (FaultyTransport, Box<dyn Transport>) {
        let net = InMemoryNetwork::new();
        let listener = net.bind(PeerAddr::new("srv")).unwrap();
        let client = net
            .connect(PeerAddr::new("cli"), PeerAddr::new("srv"))
            .unwrap();
        let server = listener.accept().unwrap();
        (
            FaultyTransport::new(Box::new(client), plan),
            Box::new(server),
        )
    }

    fn drain(server: &dyn Transport) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(f) = server.recv_timeout(Duration::from_millis(50)) {
            out.push(f);
        }
        out
    }

    #[test]
    fn empty_plan_is_passthrough() {
        let (client, server) = faulty_pair(FaultPlan::none());
        for i in 0..32u8 {
            client.send(vec![i, i.wrapping_mul(3)]).unwrap();
        }
        let got = drain(server.as_ref());
        assert_eq!(got.len(), 32);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f, &vec![i as u8, (i as u8).wrapping_mul(3)]);
        }
        assert_eq!(client.stats(), FaultStats::default());
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let count_delivered = |seed: u64| {
            let (client, server) = faulty_pair(FaultPlan::seeded(seed).with_send_drop(0.3));
            for i in 0..100u8 {
                client.send(vec![i]).unwrap();
            }
            let delivered: Vec<u8> = drain(server.as_ref()).iter().map(|f| f[0]).collect();
            (delivered, client.stats().dropped)
        };
        let (a, dropped_a) = count_delivered(7);
        let (b, dropped_b) = count_delivered(7);
        let (c, _) = count_delivered(8);
        assert_eq!(a, b, "same seed, same drops");
        assert_eq!(dropped_a, dropped_b);
        assert!(dropped_a > 0, "30% of 100 frames should drop some");
        assert_ne!(a, c, "different seed, different drops");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (client, server) = faulty_pair(FaultPlan::seeded(1).with_duplicates(1.0));
        client.send(vec![9]).unwrap();
        let got = drain(server.as_ref());
        assert_eq!(got, vec![vec![9], vec![9]]);
        assert_eq!(client.stats().duplicated, 1);
    }

    #[test]
    fn corruption_flips_one_byte() {
        let (client, server) = faulty_pair(FaultPlan::seeded(2).with_corruption(1.0));
        let original = vec![0u8; 16];
        client.send(original.clone()).unwrap();
        let got = drain(server.as_ref());
        assert_eq!(got.len(), 1);
        let differing = got[0]
            .iter()
            .zip(original.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1);
        assert_eq!(client.stats().corrupted, 1);
    }

    #[test]
    fn partition_blackholes_then_heals() {
        let (client, server) = faulty_pair(FaultPlan::none());
        let handle = client.partition_handle();
        handle.partition();
        client.send(vec![1]).unwrap(); // swallowed, but Ok
        assert!(server
            .recv_timeout(Duration::from_millis(60))
            .is_err_and(|e| e == TransportError::Timeout));
        handle.heal();
        client.send(vec![2]).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![2]
        );
        assert_eq!(client.stats().blackholed, 1);
    }

    #[test]
    fn incoming_frames_during_partition_are_swallowed() {
        let (client, server) = faulty_pair(FaultPlan::none());
        let handle = client.partition_handle();
        handle.partition();
        server.send(vec![7]).unwrap();
        // The faulty side must not deliver a frame that "arrived" while
        // the link was severed, even after the heal.
        assert_eq!(
            client.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            TransportError::Timeout
        );
        handle.heal();
        server.send(vec![8]).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![8]
        );
    }

    #[test]
    fn delay_handle_degrades_and_restores_mid_run() {
        let (client, server) = faulty_pair(FaultPlan::none());
        let delay = client.delay_handle();

        // Healthy phase: passthrough, no fault counted.
        client.send(vec![1]).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![1]
        );
        assert_eq!(client.stats().delayed, 0);

        // Degraded phase: every send sleeps the configured delay first.
        delay.set_delay(Duration::from_millis(25));
        let start = Instant::now();
        client.send(vec![2]).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "send must stall for the configured delay"
        );
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![2]
        );
        assert_eq!(client.stats().delayed, 1);

        // Restored: back to passthrough.
        delay.clear();
        let start = Instant::now();
        client.send(vec![3]).unwrap();
        assert!(start.elapsed() < Duration::from_millis(20));
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![3]
        );
        assert_eq!(client.stats().delayed, 1);
    }

    #[test]
    fn delay_holds_frames_back() {
        let (client, server) =
            faulty_pair(FaultPlan::seeded(3).with_delay(1.0, Duration::from_millis(30)));
        let start = Instant::now();
        client.send(vec![5]).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![5]
        );
        assert_eq!(client.stats().delayed, 1);
        // Not asserting a lower bound on elapsed time (the draw may be
        // near zero); just that the frame survived the delay path.
        let _ = start;
    }
}
