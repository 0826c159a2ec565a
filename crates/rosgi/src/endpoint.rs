//! The symmetric connection endpoint.
//!
//! A [`RemoteEndpoint`] wraps one transport connection between two
//! frameworks. Both sides run the identical state machine (R-OSGi is
//! peer-to-peer): they exchange `Hello` + `Lease` + `EventInterest` on
//! connect, then serve the peer's requests (invocations, fetches,
//! events, streams) while local calls go out through the same transport.
//! Frames are pushed into the endpoint's [`FrameSink`] by the transport's
//! own delivery thread — a reactor poller for TCP, the per-half pump of
//! an in-memory wire — so the endpoint itself keeps no thread per
//! connection. Heartbeats tick on the reactor's shared timer wheel, so
//! an idle TCP endpoint costs two file descriptors and some bookkeeping,
//! not two parked threads.
//!
//! Disconnection — orderly (`Bye`) or abrupt — triggers the cleanup path:
//! every proxy bundle installed for the peer is uninstalled, so local
//! consumers observe plain OSGi service-unregistration events, "which the
//! software can handle gracefully" (paper §2.1).
//!
//! Invocations arriving from the peer are served on the delivery thread
//! (configure a [`ServeQueue`] to hop heavy handlers off a reactor
//! poller) — because
//! R-OSGi's invocations are synchronous and blocking, §2.1 of the
//! AlfredO paper. Consequently a service handler must not invoke
//! *back* over the same connection — that call's response could never be
//! read and both sides would stall until the invocation timeout. Use
//! remote events for device→phone signalling instead, as the prototype
//! applications do.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use alfredo_sync::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use alfredo_sync::{Condvar, Mutex, RwLock};

use alfredo_journal::Journal;
use alfredo_net::{
    BufferPool, ByteWriter, CloseReason, FrameSink, Reactor, Transport, TransportError,
};
use alfredo_obs::{Counter, Gauge, Histogram, MetricsHandle, Obs, Span, SpanCtx};
use alfredo_osgi::events::topic_matches;
use alfredo_osgi::{
    BundleActivator, BundleArtifact, BundleContext, BundleId, CodeRegistry, Event, Framework, Json,
    ListenerId, Manifest, Properties, Service, ServiceCallError, ServiceEvent,
    ServiceInterfaceDesc, Value,
};

use crate::calls::{remaining_budget_ms, CallSlot, CallTable};
use crate::error::RosgiError;
use crate::health::{
    BreakerConfig, CircuitBreaker, DisconnectReason, HealthEvent, HealthMonitor, HealthState,
    HeartbeatConfig, RetryBudget, RetryBudgetConfig, RetryPolicy,
};
use crate::lease::{LeaseTable, RemoteServiceInfo};
use crate::message::{BorrowedInvoke, Message, PROTOCOL_VERSION};
use crate::proxy::{Invoker, RemoteServiceProxy, SmartProxySpec};
use crate::serve::{ServeQueue, SubmitOutcome};
use crate::stream::{
    chunks_of, CreditGate, StreamData, StreamId, StreamReceiver, DEFAULT_CHUNK_SIZE,
    DEFAULT_INITIAL_CREDITS,
};
use crate::types::{TypeDescriptor, TypeRegistry};

/// Registration property naming the smart-proxy factory key offered with a
/// service.
pub const PROP_SMART_PROXY_KEY: &str = "rosgi.smartproxy.key";
/// Registration property listing the smart proxy's locally-served methods.
pub const PROP_SMART_PROXY_METHODS: &str = "rosgi.smartproxy.methods";
/// Registration property carrying encoded injected-type descriptors.
pub const PROP_INJECTED_TYPES: &str = "rosgi.types";
/// Registration property carrying an opaque application descriptor
/// (AlfredO's service descriptor rides here).
pub const PROP_DESCRIPTOR: &str = "alfredo.descriptor";
/// Registration property advertising the content digest of the service's
/// transferable artifact set (interface + injected types + smart-proxy
/// offer + descriptor), as a 16-digit hex string. The digest travels in
/// the lease, so a phone that already holds the artifacts in its tier
/// cache can skip the fetch entirely — the tier-transfer phase collapses
/// to a digest comparison. Compute it with [`ServiceParts::digest`].
pub const PROP_TIER_DIGEST: &str = "alfredo.tier.digest";
/// Property marking a service as imported from a given peer.
pub const PROP_IMPORTED_FROM: &str = "service.imported.from";
/// Property set on forwarded events to prevent forwarding loops.
pub const PROP_EVENT_REMOTE: &str = "event.remote";
/// Registration property listing method names that are safe to retry
/// (idempotent). The list travels in the service's lease entry; the
/// calling side consults it before re-issuing a timed-out or failed
/// invocation under a [`RetryPolicy`]. Unlisted methods are never retried
/// — at-least-once delivery is only safe when re-execution is harmless.
pub const PROP_IDEMPOTENT_METHODS: &str = "rosgi.idempotent.methods";

/// The [`ServiceCallError::Remote`] message used when the circuit breaker
/// fast-fails an invocation locally, without touching the wire. Callers
/// (AlfredO's session layer) match on it to route breaker-open failures
/// into the same degradation path as a detected outage.
pub const ERR_CIRCUIT_OPEN: &str = "circuit open";

/// Endpoint configuration.
#[derive(Clone)]
pub struct EndpointConfig {
    /// The local peer's advertised name.
    pub peer_name: String,
    /// Timeout for the connection handshake.
    pub handshake_timeout: Duration,
    /// Timeout for synchronous remote invocations and fetches.
    pub invoke_timeout: Duration,
    /// Factories for smart-proxy local halves.
    pub code_registry: CodeRegistry,
    /// Whether to accept smart proxies (run shipped logic locally). When
    /// `false` — AlfredO's untrusted default — every method delegates
    /// remotely even if the service offers a smart proxy.
    pub accept_smart_proxies: bool,
    /// Background heartbeat driving the health state machine, ticked on
    /// the reactor's shared timer wheel. `None` (the default) schedules
    /// nothing.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Time-to-live for lease entries. With a TTL, entries are renewed on
    /// every successful heartbeat and purged (their proxies uninstalled)
    /// once nothing has been heard for a TTL. `None` disables expiry.
    pub lease_ttl: Option<Duration>,
    /// Retry policy for idempotent-marked synchronous invocations. The
    /// default (`max_retries == 0`) never retries and adds no cost to the
    /// invoke fast path.
    pub retry: RetryPolicy,
    /// Automatic reconnection. When set, a dead wire makes the endpoint
    /// re-dial, re-run the handshake, and re-bind surviving proxies in
    /// place instead of tearing itself down.
    pub reconnect: Option<ReconnectConfig>,
    /// Observability handle. The default ([`Obs::disabled`]) keeps span
    /// creation a no-op branch on the invoke fast path; a recording
    /// handle traces handshake, invocations (both sides, linked across
    /// the wire), fetches, and reconnects into its sink. The endpoint
    /// always keeps its own per-endpoint metrics registry — only the
    /// tracer is shared.
    pub obs: Obs,
    /// Bounded work queue for *serving* the peer's invocations. `None`
    /// (the default) serves each invocation inline on the delivery thread
    /// — the single-pair fast path with no queue hop. With a queue —
    /// typically one [`ServeQueue`] shared by every endpoint of a device
    /// — invocations are drained by its worker pool with per-peer
    /// fairness, and overload is answered with a `Busy` + retry-after
    /// response instead of unbounded queueing.
    pub serve_queue: Option<ServeQueue>,
    /// Durable lease journal. When set, the endpoint appends a `lease`
    /// stream record for every handshake, service grant, and orderly
    /// goodbye — all off the invoke fast path — so a crashed device can
    /// recover which peers held which services (see
    /// [`crate::lease::recover_lease_grants`]).
    pub journal: Option<Journal>,
    /// Circuit breaker guarding the invoke path. The default (threshold
    /// 0) disables it — one dead branch on the fast path. With a
    /// threshold, consecutive wire-level invoke failures trip the circuit
    /// Open and every further invoke fast-fails locally with
    /// [`ERR_CIRCUIT_OPEN`] until a heartbeat-driven half-open probe
    /// succeeds.
    pub breaker: BreakerConfig,
    /// Retry budget (token bucket) bounding the endpoint's total retry
    /// volume across *all* calls. The default (0 tokens) disables it;
    /// with a capacity, each retry withdraws a token and each success
    /// deposits a fraction of one, so a sustained outage caps retry
    /// amplification instead of multiplying it per call.
    pub retry_budget: RetryBudgetConfig,
    /// Stamp the caller's remaining time budget on every outgoing
    /// `Invoke` as an optional trailing wire field, letting the serving
    /// side shed calls whose deadline already expired *before* executing
    /// them. Off by default: an undeadlined frame stays byte-identical
    /// to the previous wire format.
    pub propagate_deadline: bool,
}

/// Dials a replacement transport for a reconnecting endpoint.
pub type ReconnectFn = Arc<dyn Fn() -> Result<Box<dyn Transport>, TransportError> + Send + Sync>;

/// Automatic reconnection settings.
#[derive(Clone)]
pub struct ReconnectConfig {
    /// Dials a fresh transport to the same peer.
    pub dial: ReconnectFn,
    /// Attempts before giving up and closing the endpoint for good.
    pub max_attempts: u32,
    /// Backoff before the first attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Upper bound for the exponential backoff.
    pub max_backoff: Duration,
}

impl ReconnectConfig {
    /// A config around `dial` with sane defaults (8 attempts, 50 ms
    /// initial backoff capped at 2 s).
    pub fn new(dial: ReconnectFn) -> Self {
        ReconnectConfig {
            dial,
            max_attempts: 8,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }

    fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.initial_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

impl fmt::Debug for ReconnectConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconnectConfig")
            .field("max_attempts", &self.max_attempts)
            .field("initial_backoff", &self.initial_backoff)
            .field("max_backoff", &self.max_backoff)
            .finish()
    }
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            peer_name: "peer".into(),
            handshake_timeout: Duration::from_secs(5),
            invoke_timeout: Duration::from_secs(5),
            code_registry: CodeRegistry::new(),
            accept_smart_proxies: false,
            heartbeat: None,
            lease_ttl: None,
            retry: RetryPolicy::default(),
            reconnect: None,
            obs: Obs::disabled(),
            serve_queue: None,
            journal: None,
            breaker: BreakerConfig::default(),
            retry_budget: RetryBudgetConfig::default(),
            propagate_deadline: false,
        }
    }
}

impl EndpointConfig {
    /// Creates a config with the given peer name and defaults otherwise.
    pub fn named(peer_name: impl Into<String>) -> Self {
        EndpointConfig {
            peer_name: peer_name.into(),
            ..EndpointConfig::default()
        }
    }

    /// Builder-style: enables smart proxies with the given code registry.
    pub fn with_smart_proxies(mut self, code_registry: CodeRegistry) -> Self {
        self.code_registry = code_registry;
        self.accept_smart_proxies = true;
        self
    }

    /// Builder-style: sets the invocation timeout.
    pub fn with_invoke_timeout(mut self, timeout: Duration) -> Self {
        self.invoke_timeout = timeout;
        self
    }

    /// Builder-style: enables the background heartbeat.
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatConfig) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// Builder-style: sets the lease entry time-to-live.
    pub fn with_lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = Some(ttl);
        self
    }

    /// Builder-style: sets the retry policy for idempotent calls.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style: enables automatic reconnection through `reconnect`.
    pub fn with_reconnect(mut self, reconnect: ReconnectConfig) -> Self {
        self.reconnect = Some(reconnect);
        self
    }

    /// Builder-style: attaches an observability handle (span tracing).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Builder-style: serves the peer's invocations through `queue`
    /// (worker pool + `Busy` backpressure) instead of inline on the
    /// delivery thread.
    pub fn with_serve_queue(mut self, queue: ServeQueue) -> Self {
        self.serve_queue = Some(queue);
        self
    }

    /// Builder-style: journals lease-stream events (handshakes, grants,
    /// goodbyes) into `journal` for crash recovery.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Builder-style: guards the invoke path with a circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Builder-style: bounds total retry volume with a token bucket.
    pub fn with_retry_budget(mut self, budget: RetryBudgetConfig) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Builder-style: stamps the remaining time budget on outgoing
    /// invocations (see [`EndpointConfig::propagate_deadline`]).
    pub fn with_deadline_propagation(mut self) -> Self {
        self.propagate_deadline = true;
        self
    }
}

impl fmt::Debug for EndpointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EndpointConfig")
            .field("peer_name", &self.peer_name)
            .field("accept_smart_proxies", &self.accept_smart_proxies)
            .finish()
    }
}

/// Outcome of [`RemoteEndpoint::fetch_service`]: the installed proxy.
#[derive(Debug)]
pub struct FetchedService {
    /// The shipped interface.
    pub interface: ServiceInterfaceDesc,
    /// The locally installed proxy bundle.
    pub bundle: BundleId,
    /// The opaque application descriptor shipped with the service, if any.
    pub descriptor: Option<Vec<u8>>,
    /// Encoded size of the shipped `ServiceBundle` message in bytes (what
    /// travelled over the network).
    pub transferred_bytes: usize,
    /// File footprint of the generated proxy bundle artifact in bytes
    /// (§4.1 reports 6–7 kB for the two prototype apps).
    pub proxy_footprint: usize,
    /// Whether a smart proxy (local logic) was installed.
    pub smart: bool,
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Invocations sent to the peer.
    pub calls_sent: u64,
    /// Invocations served for the peer.
    pub calls_served: u64,
    /// Events forwarded to the peer.
    pub events_forwarded: u64,
    /// Events received from the peer.
    pub events_received: u64,
    /// Frames sent (any type).
    pub frames_sent: u64,
    /// Frames received (any type).
    pub frames_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Outgoing frames served from a recycled wire buffer (allocations
    /// avoided on the send path).
    pub pool_hits: u64,
    /// Outgoing frames that had to allocate a fresh wire buffer.
    pub pool_misses: u64,
    /// Received frames returned to the buffer pool for reuse.
    pub pool_returns: u64,
    /// Total capacity (bytes) of reused wire buffers.
    pub bytes_reused: u64,
    /// Invocations that rode a recycled call-waiter slot instead of
    /// allocating one.
    pub slots_reused: u64,
    /// Idempotent invocations re-issued under the retry policy.
    pub retries: u64,
    /// Successful reconnect + re-handshake cycles.
    pub reconnects: u64,
    /// Lease entries purged because their TTL elapsed.
    pub lease_expiries: u64,
    /// Heartbeat probes sent.
    pub heartbeats_sent: u64,
    /// Heartbeat probes that went unanswered.
    pub heartbeats_missed: u64,
    /// Invocations this side rejected with `Busy` (serve queue full).
    pub busy_sent: u64,
    /// `Busy` rejections received from the peer.
    pub busy_received: u64,
    /// `Busy` retries whose backoff honored the peer's retry-after hint
    /// instead of the fixed schedule.
    pub busy_hint_retries: u64,
    /// Incoming invocations dropped because the caller's propagated
    /// deadline expired before execution (answered with
    /// `DeadlineExceeded`, never run).
    pub shed_expired: u64,
    /// Incoming invocations shed at enqueue because the estimated queue
    /// wait already exceeded the remaining deadline budget.
    pub shed_predicted: u64,
    /// Retries suppressed because the endpoint's retry budget was empty.
    pub retry_budget_exhausted: u64,
    /// Invocations fast-failed locally while the circuit was open.
    pub breaker_fast_fails: u64,
    /// Circuit breaker state: 0 = closed, 1 = open, 2 = half-open.
    pub breaker_state: i64,
    /// Connections currently registered with the reactor. Process-wide
    /// (all endpoints share the reactor), read from the `net.*` gauges.
    pub open_connections: u64,
    /// Reactor poller threads serving the whole process — the fixed I/O
    /// core budget every connection multiplexes onto.
    pub io_threads: u64,
    /// Pending timer-wheel entries (heartbeats, lease TTLs),
    /// process-wide.
    pub timer_entries: u64,
    /// Why the wire last went down ([`DisconnectReason::None`] if never).
    pub last_disconnect: DisconnectReason,
}

type CallResult = Result<Value, ServiceCallError>;
type FetchWaiter = Sender<Result<(ServiceParts, usize), RosgiError>>;

/// The transferable artifact set of one service — exactly what a
/// `ServiceBundle` frame ships on fetch. This is the unit AlfredO's
/// tier cache stores and addresses by content digest.
#[derive(Debug, Clone)]
pub struct ServiceParts {
    /// The shippable interface description.
    pub interface: ServiceInterfaceDesc,
    /// Struct types referenced by the interface.
    pub injected_types: Vec<TypeDescriptor>,
    /// The smart-proxy offer, if the service makes one.
    pub smart_proxy: Option<SmartProxySpec>,
    /// The opaque application descriptor (AlfredO's service descriptor).
    pub descriptor: Option<Vec<u8>>,
}

impl ServiceParts {
    /// The canonical byte encoding: the `ServiceBundle` wire frame these
    /// parts produce. Both sides derive digests from it, so device-side
    /// advertisement and phone-side verification agree byte for byte.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        Message::ServiceBundle {
            interface: self.interface.clone(),
            injected_types: self.injected_types.clone(),
            smart_proxy: self.smart_proxy.clone(),
            descriptor: self.descriptor.clone(),
        }
        .encode()
    }

    /// Content digest of the canonical encoding (FNV-1a, 64-bit). The
    /// value a device advertises under [`PROP_TIER_DIGEST`] and a phone
    /// keys its tier cache with.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.canonical_bytes())
    }
}

/// FNV-1a over `bytes`: tiny, dependency-free, and stable across
/// platforms — content addressing needs agreement, not crypto strength.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The endpoint's instruments, registered in its per-endpoint metrics
/// registry under `rosgi.*` names. Each handle is a relaxed atomic —
/// the same cost the ad-hoc `AtomicU64` fields had — but the values are
/// now also visible through [`MetricsHandle::render_text`] (the web
/// gateway's `/metrics` dump).
struct Counters {
    calls_sent: Counter,
    calls_served: Counter,
    events_forwarded: Counter,
    events_received: Counter,
    frames_sent: Counter,
    frames_received: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    retries: Counter,
    reconnects: Counter,
    lease_expiries: Counter,
    heartbeats_sent: Counter,
    heartbeats_missed: Counter,
    busy_sent: Counter,
    busy_received: Counter,
    busy_hint_retries: Counter,
    shed_expired: Counter,
    shed_predicted: Counter,
    retry_budget_exhausted: Counter,
    breaker_fast_fails: Counter,
    /// Mirrors [`CircuitBreaker::state_code`] so the breaker's state is
    /// visible in the `/metrics` dump alongside the counters it explains.
    breaker_state: Gauge,
    /// Caller-observed invoke round-trip, microseconds. Only recorded
    /// when tracing is enabled (it needs clock reads the disabled fast
    /// path must not pay).
    invoke_rtt_us: Histogram,
    /// Device-side service execution time, microseconds. Same gating.
    serve_us: Histogram,
}

impl Counters {
    fn register(metrics: &MetricsHandle) -> Counters {
        Counters {
            calls_sent: metrics.counter("rosgi.calls_sent"),
            calls_served: metrics.counter("rosgi.calls_served"),
            events_forwarded: metrics.counter("rosgi.events_forwarded"),
            events_received: metrics.counter("rosgi.events_received"),
            frames_sent: metrics.counter("rosgi.frames_sent"),
            frames_received: metrics.counter("rosgi.frames_received"),
            bytes_sent: metrics.counter("rosgi.bytes_sent"),
            bytes_received: metrics.counter("rosgi.bytes_received"),
            retries: metrics.counter("rosgi.retries"),
            reconnects: metrics.counter("rosgi.reconnects"),
            lease_expiries: metrics.counter("rosgi.lease_expiries"),
            heartbeats_sent: metrics.counter("rosgi.heartbeats_sent"),
            heartbeats_missed: metrics.counter("rosgi.heartbeats_missed"),
            busy_sent: metrics.counter("rosgi.busy_sent"),
            busy_received: metrics.counter("rosgi.busy_received"),
            busy_hint_retries: metrics.counter("rosgi.busy_hint_retries"),
            shed_expired: metrics.counter("rosgi.shed_expired"),
            shed_predicted: metrics.counter("rosgi.shed_predicted"),
            retry_budget_exhausted: metrics.counter("rosgi.retry_budget_exhausted"),
            breaker_fast_fails: metrics.counter("rosgi.breaker_fast_fails"),
            breaker_state: metrics.gauge("rosgi.breaker_state"),
            invoke_rtt_us: metrics.histogram("rosgi.invoke_rtt_us"),
            serve_us: metrics.histogram("rosgi.serve_us"),
        }
    }
}

struct Inner {
    /// The live wire. Swapped in place on reconnect — proxies route
    /// through [`EndpointInvoker`]'s weak reference to this `Inner`, so a
    /// swap re-binds every installed proxy to the new transport without
    /// touching the local registry (same `ServiceReference`, new wire).
    transport: RwLock<Arc<dyn Transport>>,
    framework: Framework,
    config: EndpointConfig,
    remote_peer: Mutex<String>,
    leases: Mutex<LeaseTable>,
    /// Held while a lease announcement is computed and sent. A full
    /// `Lease` snapshot overtaken by the `LeaseUpdate` of a registration
    /// it missed would reset the peer to the stale snapshot and lose that
    /// service for good.
    lease_order: Mutex<()>,
    calls: CallTable<CallResult>,
    pool: Arc<BufferPool>,
    pending_fetches: Mutex<HashMap<String, FetchWaiter>>,
    pending_pings: Mutex<HashMap<u64, Sender<()>>>,
    next_id: AtomicU64,
    proxy_bundles: Mutex<HashMap<String, BundleId>>,
    types: Mutex<TypeRegistry>,
    /// `true` once any struct type has been injected. Lets the per-call
    /// validation skip the `types` lock entirely while the registry is
    /// empty (the common case), where validation accepts every value.
    has_types: AtomicBool,
    remote_event_patterns: Mutex<Vec<String>>,
    send_credits: Mutex<HashMap<u64, Arc<CreditGate>>>,
    open_streams: Mutex<HashMap<u64, Sender<StreamData>>>,
    incoming_streams: (Sender<StreamReceiver>, Receiver<StreamReceiver>),
    registry_listener: Mutex<Option<ListenerId>>,
    event_tap: Mutex<Option<u64>>,
    interest_listener: Mutex<Option<u64>>,
    /// Permanently closed: cleanup ran, nothing will reconnect.
    closed: AtomicBool,
    /// Orderly shutdown requested (local `close()` or peer `Bye`): no
    /// reconnection is attempted even if one is configured.
    shutdown: AtomicBool,
    health: HealthMonitor,
    /// Circuit breaker guarding the invoke path (a no-op when disabled).
    breaker: CircuitBreaker,
    /// Token bucket bounding total retry volume (a no-op when disabled).
    retry_budget: RetryBudget,
    disconnect_reason: Mutex<DisconnectReason>,
    /// Signalled once `cleanup` finishes; [`RemoteEndpoint::join`] waits
    /// here.
    done: (Mutex<bool>, Condvar),
    counters: Counters,
    /// Per-endpoint metrics + the (possibly shared) tracer.
    obs: Obs,
    /// Trace context of whatever span was current when the endpoint was
    /// established (e.g. the engine's `interaction` span). Reconnect
    /// spans run on a teardown thread and parent here explicitly.
    conn_ctx: Option<SpanCtx>,
}

/// One side of a live R-OSGi connection. See the crate docs for a complete
/// example.
pub struct RemoteEndpoint {
    inner: Arc<Inner>,
}

impl RemoteEndpoint {
    /// Performs the handshake over `transport` and starts serving.
    ///
    /// Both sides call this (the protocol is symmetric): typically the
    /// client on the transport returned by `connect`, the server on the
    /// transport returned by `accept`.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::Handshake`] on protocol violations, a
    /// transport error if the connection drops mid-handshake, or a wire
    /// error on undecodable frames.
    pub fn establish(
        transport: Box<dyn Transport>,
        framework: Framework,
        config: EndpointConfig,
    ) -> Result<RemoteEndpoint, RosgiError> {
        let transport: Arc<dyn Transport> = Arc::from(transport);
        let mut leases = LeaseTable::new();
        leases.set_ttl(config.lease_ttl);
        // Per-endpoint metrics, shared tracer: two endpoints configured
        // with the same `Obs` contribute spans to one trace while their
        // `rosgi.*` counters stay independent (EndpointStats semantics).
        let obs = config.obs.with_fresh_metrics();
        let counters = Counters::register(obs.metrics());
        let conn_ctx = obs.current();
        let breaker = CircuitBreaker::new(config.breaker);
        let retry_budget = RetryBudget::new(config.retry_budget);
        let inner = Arc::new(Inner {
            transport: RwLock::new(transport),
            framework,
            config,
            remote_peer: Mutex::new(String::new()),
            leases: Mutex::new(leases),
            lease_order: Mutex::new(()),
            calls: CallTable::new(),
            pool: BufferPool::new(),
            pending_fetches: Mutex::new(HashMap::new()),
            pending_pings: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            proxy_bundles: Mutex::new(HashMap::new()),
            types: Mutex::new(TypeRegistry::new()),
            has_types: AtomicBool::new(false),
            remote_event_patterns: Mutex::new(Vec::new()),
            send_credits: Mutex::new(HashMap::new()),
            open_streams: Mutex::new(HashMap::new()),
            incoming_streams: channel::unbounded(),
            registry_listener: Mutex::new(None),
            event_tap: Mutex::new(None),
            interest_listener: Mutex::new(None),
            closed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            health: HealthMonitor::new(),
            breaker,
            retry_budget,
            disconnect_reason: Mutex::new(DisconnectReason::None),
            done: (Mutex::new(false), Condvar::new()),
            counters,
            obs,
            conn_ctx,
        });

        // --- handshake (both directions) ---
        let wire = inner.wire();
        let mut hs_span = inner.obs.span("handshake");
        let (peer, services) = match run_handshake(&inner, &wire) {
            Ok(out) => out,
            Err(e) => {
                hs_span.set("outcome", "error");
                return Err(e);
            }
        };
        hs_span.set_with("peer", || peer.clone());
        drop(hs_span);
        inner.journal_lease("handshake", &peer, None);
        *inner.remote_peer.lock() = peer;
        inner.leases.lock().reset(services);

        // --- keep the peer's lease view in sync with our registry ---
        {
            let weak = Arc::downgrade(&inner);
            let listener = inner.framework.registry().add_listener(None, move |ev| {
                let Some(inner) = weak.upgrade() else { return };
                inner.on_local_service_event(ev);
            });
            *inner.registry_listener.lock() = Some(listener);
            // Services registered between the outgoing lease above and
            // this listener would otherwise be missed forever: re-announce
            // the full lease once. Cheap — every entry shares the
            // registration's Arc-backed interfaces and properties.
            let _order = inner.lease_order.lock();
            inner.send(&Message::Lease {
                services: inner.exportable_services(),
            })?;
        }

        // --- forward local events the peer subscribed to (a tap: sees
        // every event but does not count as application interest) ---
        {
            let weak = Arc::downgrade(&inner);
            let tap = inner.framework.event_admin().add_tap(move |event| {
                let Some(inner) = weak.upgrade() else { return };
                inner.on_local_event(event);
            });
            *inner.event_tap.lock() = Some(tap);
        }

        // --- keep the peer's view of our event interest current ---
        {
            let weak = Arc::downgrade(&inner);
            let token = inner
                .framework
                .event_admin()
                .on_subscriptions_changed(move || {
                    let Some(inner) = weak.upgrade() else { return };
                    if inner.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    let _ = inner.send(&Message::EventInterest {
                        patterns: inner.framework.event_admin().patterns(),
                    });
                });
            *inner.interest_listener.lock() = Some(token);
            // Subscriptions may have changed between the handshake and
            // this registration: re-announce the current set once.
            let _ = inner.send(&Message::EventInterest {
                patterns: inner.framework.event_admin().patterns(),
            });
        }

        // --- frame delivery ---
        // The transport's delivery thread (reactor poller or in-memory
        // pump) calls the sink; frames that arrived since the handshake
        // are drained into it in order. Heavy service handlers behind a
        // reactor-backed wire should be paired with a [`ServeQueue`],
        // which hops invocations off the poller thread.
        install_delivery(&inner);

        // --- heartbeat (opt-in) ---
        if let Some(hb) = inner.config.heartbeat {
            start_heartbeat(&inner, hb);
        }

        Ok(RemoteEndpoint { inner })
    }

    /// The peer's advertised name.
    pub fn remote_peer(&self) -> String {
        self.inner.remote_peer.lock().clone()
    }

    /// The local framework this endpoint serves.
    pub fn framework(&self) -> &Framework {
        &self.inner.framework
    }

    /// The services the peer currently offers (its lease).
    pub fn remote_services(&self) -> Vec<RemoteServiceInfo> {
        self.inner.leases.lock().services()
    }

    /// Whether the connection has been closed (either side).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Number of invocations currently awaiting a response (synchronous
    /// calls in other threads plus unharvested [`CallHandle`]s).
    pub fn in_flight_calls(&self) -> usize {
        self.inner.calls.outstanding()
    }

    /// Blocks until no invocation is awaiting a response, or `timeout`
    /// elapses. Returns `true` when the endpoint drained.
    ///
    /// This is the quiesce step of a live migration: the caller first
    /// diverts *new* work (the session queues UI events while its
    /// `migrating` flag is up), then drains what is already on the wire
    /// so the old placement finishes every call it accepted before the
    /// proxy is torn down. Outstanding calls complete or time out on
    /// their own deadlines — draining never cancels them.
    pub fn drain_in_flight(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inner.calls.outstanding() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return self.inner.calls.outstanding() == 0;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> EndpointStats {
        let c = &self.inner.counters;
        let pool = self.inner.pool.stats();
        let net = alfredo_net::current_stats();
        EndpointStats {
            calls_sent: c.calls_sent.get(),
            calls_served: c.calls_served.get(),
            events_forwarded: c.events_forwarded.get(),
            events_received: c.events_received.get(),
            frames_sent: c.frames_sent.get(),
            frames_received: c.frames_received.get(),
            bytes_sent: c.bytes_sent.get(),
            bytes_received: c.bytes_received.get(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_returns: pool.returns,
            bytes_reused: pool.bytes_reused,
            slots_reused: self.inner.calls.slots_reused(),
            retries: c.retries.get(),
            reconnects: c.reconnects.get(),
            lease_expiries: c.lease_expiries.get(),
            heartbeats_sent: c.heartbeats_sent.get(),
            heartbeats_missed: c.heartbeats_missed.get(),
            busy_sent: c.busy_sent.get(),
            busy_received: c.busy_received.get(),
            busy_hint_retries: c.busy_hint_retries.get(),
            shed_expired: c.shed_expired.get(),
            shed_predicted: c.shed_predicted.get(),
            retry_budget_exhausted: c.retry_budget_exhausted.get(),
            breaker_fast_fails: c.breaker_fast_fails.get(),
            breaker_state: self.inner.breaker.state_code(),
            open_connections: net.open_connections,
            io_threads: net.io_threads,
            timer_entries: net.timer_entries,
            last_disconnect: *self.inner.disconnect_reason.lock(),
        }
    }

    /// The endpoint's observability handle: its per-endpoint metrics
    /// registry (the `rosgi.*` instruments behind [`Self::stats`]) plus
    /// whatever tracer the configuration attached.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// The endpoint's current link health.
    pub fn health(&self) -> HealthState {
        self.inner.health.state()
    }

    /// Subscribes to health transitions; returns a token for
    /// [`RemoteEndpoint::remove_health_listener`].
    ///
    /// Listeners run synchronously on the timer-wheel, delivery or
    /// teardown thread — keep them quick and do not call back into the
    /// endpoint from one
    /// (push into a channel instead).
    pub fn on_health(&self, f: impl Fn(HealthEvent) + Send + Sync + 'static) -> u64 {
        self.inner.health.subscribe(f)
    }

    /// Removes a health listener registered with
    /// [`RemoteEndpoint::on_health`].
    pub fn remove_health_listener(&self, token: u64) {
        self.inner.health.unsubscribe(token);
    }

    /// Fetches the remote service registered under `interface`: ships the
    /// interface, **builds the proxy bundle, installs it, and starts it**
    /// in the local framework — the four phases Table 1 of the paper
    /// measures. After this returns, the service is available from the
    /// local registry under the same interface name.
    ///
    /// Concurrent fetches of *different* interfaces proceed in parallel;
    /// concurrent fetches of the *same* interface are not supported (the
    /// reply is correlated by interface name) — the later call wins and
    /// the earlier one times out. Fetch each interface once per
    /// connection, as AlfredO's engine does.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::NoSuchRemoteService`] if the peer's lease does
    /// not offer the interface, or transport/framework errors.
    pub fn fetch_service(&self, interface: &str) -> Result<FetchedService, RosgiError> {
        self.fetch_service_with_parts(interface)
            .map(|(fetched, _)| fetched)
    }

    /// Like [`Self::fetch_service`], but also returns the shipped
    /// [`ServiceParts`] so the caller can retain them — AlfredO's tier
    /// cache stores them under their content digest and replays them
    /// through [`Self::install_cached_service`] on the next interaction.
    ///
    /// # Errors
    ///
    /// Same as [`Self::fetch_service`].
    pub fn fetch_service_with_parts(
        &self,
        interface: &str,
    ) -> Result<(FetchedService, ServiceParts), RosgiError> {
        let inner = &self.inner;
        if inner.closed.load(Ordering::SeqCst) {
            return Err(RosgiError::Closed);
        }
        let mut span = inner.obs.span_dyn(|| format!("fetch:{interface}"));
        // Note: the local lease table is advisory only — lease updates
        // arrive asynchronously, so a service registered on the peer a
        // moment ago may not be listed yet. The peer is authoritative and
        // answers `FetchFailed` for genuinely unknown interfaces.
        let (tx, rx) = channel::bounded(1);
        inner
            .pending_fetches
            .lock()
            .insert(interface.to_owned(), tx);
        if let Err(e) = inner.send(&Message::FetchService {
            interface: interface.to_owned(),
        }) {
            inner.pending_fetches.lock().remove(interface);
            return Err(e);
        }
        let outcome = rx.recv_timeout(inner.config.invoke_timeout).map_err(|_| {
            inner.pending_fetches.lock().remove(interface);
            RosgiError::InvocationTimeout {
                interface: interface.to_owned(),
                method: "<fetch>".to_owned(),
            }
        })?;
        let (parts, transferred_bytes) = outcome?;
        let fetched = self.install_parts(&parts, transferred_bytes)?;
        span.set_with("transferred_bytes", || transferred_bytes.to_string());
        span.set_with("smart", || fetched.smart.to_string());
        Ok((fetched, parts))
    }

    /// Installs a proxy for `parts` without any wire transfer: the
    /// cache-hit path. The caller is responsible for having verified —
    /// normally by comparing [`ServiceParts::digest`] against the peer's
    /// [`PROP_TIER_DIGEST`] lease property — that the peer still serves
    /// exactly these artifacts. The returned service reports zero
    /// transferred bytes.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::Closed`] if the connection is gone, or
    /// framework errors from the proxy installation.
    pub fn install_cached_service(
        &self,
        parts: &ServiceParts,
    ) -> Result<FetchedService, RosgiError> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(RosgiError::Closed);
        }
        let mut span = self
            .inner
            .obs
            .span_dyn(|| format!("fetch-cached:{}", parts.interface.name));
        let fetched = self.install_parts(parts, 0)?;
        span.set("transferred_bytes", "0");
        span.set_with("smart", || fetched.smart.to_string());
        Ok(fetched)
    }

    /// Type injection + proxy construction + bundle install for shipped
    /// (or cached) service parts. Shared by the wire fetch and the
    /// cache-hit path.
    fn install_parts(
        &self,
        parts: &ServiceParts,
        transferred_bytes: usize,
    ) -> Result<FetchedService, RosgiError> {
        let inner = &self.inner;
        let iface = parts.interface.clone();
        let interface = iface.name.clone();
        let descriptor = parts.descriptor.clone();

        // Type injection.
        if !parts.injected_types.is_empty() {
            let mut types = inner.types.lock();
            for t in &parts.injected_types {
                types.inject(t.clone());
            }
            inner.has_types.store(true, Ordering::Relaxed);
        }

        // Build the proxy (smart if offered, accepted, and resolvable).
        let invoker: Arc<dyn Invoker> = Arc::new(EndpointInvoker {
            inner: Arc::downgrade(inner),
        });
        let mut smart = false;
        let proxy: Arc<dyn Service> = match &parts.smart_proxy {
            Some(spec)
                if inner.config.accept_smart_proxies
                    && inner
                        .config
                        .code_registry
                        .contains_service(&spec.factory_key) =>
            {
                let local = inner
                    .config
                    .code_registry
                    .instantiate_service(&spec.factory_key)?;
                smart = true;
                Arc::new(RemoteServiceProxy::new_smart(
                    iface.clone(),
                    invoker,
                    local,
                    spec.local_methods.clone(),
                ))
            }
            _ => Arc::new(RemoteServiceProxy::new(iface.clone(), invoker)),
        };

        // Build the proxy bundle artifact (its encoded size is the proxy's
        // file footprint, §4.1).
        let mut artifact = BundleArtifact::new(Manifest::new(
            format!("rosgi.proxy.{interface}"),
            "1.0",
            format!("generated proxy for {interface}"),
        ))
        .with_data("interface.bin", iface.encode());
        if let Some(d) = &descriptor {
            artifact = artifact.with_data("descriptor.bin", d.clone());
        }
        let proxy_footprint = artifact.footprint();

        // Install + start.
        let peer = inner.remote_peer.lock().clone();
        let activator = Box::new(ProxyActivator {
            interface: iface.name.clone(),
            service: proxy,
            peer,
        });
        let entries = artifact
            .entries
            .iter()
            .filter_map(|e| match e {
                alfredo_osgi::ArtifactEntry::Data { name, bytes } => {
                    Some((name.clone(), bytes.clone()))
                }
                alfredo_osgi::ArtifactEntry::Activator { .. } => None,
            })
            .collect();
        let bundle = inner.framework.install_with_entries(
            artifact.manifest.symbolic_name.clone(),
            artifact.manifest.version.clone(),
            activator,
            entries,
        );
        inner.framework.start_bundle(bundle)?;
        let replaced = inner.proxy_bundles.lock().insert(interface.clone(), bundle);
        // Re-fetching an interface (a live re-bind: reconnect, migration
        // back to a smart proxy) must retire the previous proxy bundle.
        // The registry's best-pick tie-break prefers the *lowest* bundle
        // id, so leaving the old bundle installed would keep the stale
        // proxy winning every resolution. Install-new-then-uninstall-old
        // ordering means there is never a gap with no provider.
        if let Some(old) = replaced {
            if old != bundle {
                inner.framework.uninstall(old)?;
            }
        }

        Ok(FetchedService {
            interface: iface,
            bundle,
            descriptor,
            transferred_bytes,
            proxy_footprint,
            smart,
        })
    }

    /// Releases a fetched service: uninstalls its proxy bundle (AlfredO
    /// discards interfaces "once the interaction is completed").
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::NoSuchRemoteService`] if no proxy is installed
    /// for `interface`.
    pub fn release_service(&self, interface: &str) -> Result<(), RosgiError> {
        let bundle = self
            .inner
            .proxy_bundles
            .lock()
            .remove(interface)
            .ok_or_else(|| RosgiError::NoSuchRemoteService(interface.to_owned()))?;
        self.inner.framework.uninstall(bundle)?;
        Ok(())
    }

    /// Performs a synchronous remote invocation without a proxy (used by
    /// proxies internally; applications normally go through the registry).
    ///
    /// # Errors
    ///
    /// Returns the remote error, or [`RosgiError`] wrappers for transport
    /// failures and timeouts.
    pub fn invoke(
        &self,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, RosgiError> {
        self.inner
            .invoke_remote_inner(interface, method, args)
            .map_err(|e| match e {
                ServiceCallError::Remote(msg) if msg == "timeout" => {
                    RosgiError::InvocationTimeout {
                        interface: interface.to_owned(),
                        method: method.to_owned(),
                    }
                }
                other => RosgiError::Call(other),
            })
    }

    /// Starts a remote invocation without blocking for the response.
    ///
    /// The returned [`CallHandle`] collects the result via
    /// [`CallHandle::wait`]. Handles are independent, so a caller can keep
    /// many invocations in flight on one connection and harvest them in
    /// any order — the classic way to hide link latency when issuing
    /// bursts of small calls.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::Closed`] if the connection is gone and
    /// argument-validation errors immediately; invocation errors surface
    /// from `wait`.
    pub fn invoke_async(
        &self,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> Result<CallHandle, RosgiError> {
        let deadline = self
            .inner
            .config
            .propagate_deadline
            .then(|| Instant::now() + self.inner.config.invoke_timeout);
        self.inner
            .invoke_async_inner(interface, method, args, deadline)
            .map_err(|e| match e {
                ServiceCallError::ServiceGone => RosgiError::Closed,
                other => RosgiError::Call(other),
            })
    }

    /// Sends an EventAdmin event to the peer unconditionally (bypassing
    /// interest filtering). The peer posts it on its local bus.
    ///
    /// # Errors
    ///
    /// Returns a transport error if the connection is closed.
    pub fn send_event(&self, topic: &str, properties: Properties) -> Result<(), RosgiError> {
        self.inner.send(&Message::RemoteEvent {
            topic: topic.to_owned(),
            properties,
        })
    }

    /// Sends an event whose frame the caller already encoded with
    /// [`Message::encode_remote_event`] — what lets a broadcaster encode
    /// once and send the same bytes to every peer. The bytes are copied
    /// into a pooled buffer; counted in `frames_sent`/`bytes_sent` like
    /// any other frame.
    ///
    /// # Errors
    ///
    /// Returns a transport error if the connection is closed.
    pub fn send_event_frame(&self, frame: &[u8]) -> Result<(), RosgiError> {
        let mut buf = self.inner.pool.take();
        buf.extend_from_slice(frame);
        self.inner.send_frame(buf)
    }

    /// Opens a stream to the peer and sends `data` in flow-controlled
    /// chunks; blocks until fully sent.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::Closed`] if the connection drops, or a
    /// transport error.
    pub fn send_stream(&self, name: &str, data: &[u8]) -> Result<StreamId, RosgiError> {
        let inner = &self.inner;
        let stream = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let gate = Arc::new(CreditGate::new());
        inner.send_credits.lock().insert(stream, Arc::clone(&gate));
        inner.send(&Message::StreamOpen {
            stream,
            name: name.to_owned(),
        })?;
        let chunks = chunks_of(data, DEFAULT_CHUNK_SIZE);
        let last_idx = chunks.len() - 1;
        for (seq, chunk) in chunks.into_iter().enumerate() {
            if !gate.acquire(inner.config.invoke_timeout) {
                inner.send_credits.lock().remove(&stream);
                return Err(RosgiError::Closed);
            }
            // Encode straight from the borrowed slice: no per-chunk copy
            // of the payload into an owned message.
            let mut w = ByteWriter::with_pool(&inner.pool);
            Message::encode_stream_chunk(&mut w, stream, seq as u64, seq == last_idx, chunk);
            inner.send_frame(w.into_bytes())?;
        }
        inner.send_credits.lock().remove(&stream);
        Ok(StreamId(stream))
    }

    /// Waits for the peer to open a stream.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::Closed`] if the endpoint closes, or a
    /// transport timeout error if none arrives in time.
    pub fn accept_stream(&self, timeout: Duration) -> Result<StreamReceiver, RosgiError> {
        match self.inner.incoming_streams.1.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(channel::RecvTimeoutError::Timeout) => {
                Err(RosgiError::Transport(alfredo_net::TransportError::Timeout))
            }
            Err(channel::RecvTimeoutError::Disconnected) => Err(RosgiError::Closed),
        }
    }

    /// Round-trip liveness probe; returns the measured wall-clock RTT.
    ///
    /// # Errors
    ///
    /// Returns [`RosgiError::Transport`] with
    /// [`TransportError::Timeout`] when the peer did not answer in time
    /// (slow ≠ gone), or [`RosgiError::Closed`] once the connection is
    /// actually down.
    pub fn ping(&self, timeout: Duration) -> Result<Duration, RosgiError> {
        self.inner.ping_inner(timeout)
    }

    /// Closes the connection: sends `Bye`, uninstalls all proxy bundles,
    /// and releases listeners. Idempotent. The teardown is complete on
    /// return — also when the wire-down path got to run it first — but
    /// the transport's delivery thread is not joined: it may still be
    /// observing the close.
    pub fn close(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.record_disconnect(DisconnectReason::LocalClose);
        let _ = self.inner.send(&Message::Bye);
        self.inner.wire().close();
        self.inner.cleanup();
        self.join();
    }

    /// Blocks until the connection ends (used by server accept loops).
    pub fn join(&self) {
        let (flag, cv) = &self.inner.done;
        let mut done = flag.lock();
        while !*done {
            done = cv.wait(done);
        }
    }
}

impl fmt::Debug for RemoteEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteEndpoint")
            .field("local", &self.inner.config.peer_name)
            .field("remote", &self.remote_peer())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl Drop for RemoteEndpoint {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wire().close();
        self.inner.cleanup();
    }
}

/// A pending asynchronous invocation started with
/// [`RemoteEndpoint::invoke_async`].
///
/// The call is already on the wire; `wait` blocks until the response is
/// routed back. Dropping the handle without waiting abandons the call:
/// the response (or connection teardown) clears the bookkeeping.
pub struct CallHandle {
    inner: Arc<Inner>,
    call_id: u64,
    slot: Arc<CallSlot<CallResult>>,
    /// The caller-side `rpc:` span; ends (and is recorded) when the
    /// response is harvested or the handle is dropped.
    span: Span,
    /// Set only while tracing: feeds the `rosgi.invoke_rtt_us` histogram.
    started: Option<Instant>,
}

impl CallHandle {
    /// The wire-level call id (diagnostics).
    pub fn call_id(&self) -> u64 {
        self.call_id
    }

    /// Blocks until the response arrives, up to the endpoint's configured
    /// invocation timeout.
    ///
    /// # Errors
    ///
    /// Returns the remote error, or `Remote("timeout")` like the
    /// synchronous path on timeout.
    pub fn wait(self) -> Result<Value, ServiceCallError> {
        let timeout = self.inner.config.invoke_timeout;
        self.wait_timeout(timeout)
    }

    /// Blocks until the response arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// See [`Self::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Value, ServiceCallError> {
        let CallHandle {
            inner,
            call_id,
            slot,
            mut span,
            started,
        } = self;
        let outcome = match slot.wait(timeout) {
            Some(result) => {
                inner.calls.recycle(call_id, slot);
                result
            }
            None => {
                inner.calls.cancel(call_id);
                inner.calls.recycle(call_id, slot);
                Err(ServiceCallError::Remote("timeout".into()))
            }
        };
        inner.record_invoke_outcome(&outcome);
        if let Some(t0) = started {
            inner.counters.invoke_rtt_us.record_duration(t0.elapsed());
        }
        span.set(
            "outcome",
            match &outcome {
                Ok(_) => "ok",
                Err(ServiceCallError::Remote(m)) if m == "timeout" => "timeout",
                Err(_) => "error",
            },
        );
        outcome
    }
}

impl fmt::Debug for CallHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallHandle")
            .field("call_id", &self.call_id)
            .finish()
    }
}

/// [`Invoker`] backed by a (weakly referenced) endpoint.
struct EndpointInvoker {
    inner: std::sync::Weak<Inner>,
}

impl Invoker for EndpointInvoker {
    fn invoke_remote(
        &self,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ServiceCallError> {
        let Some(inner) = self.inner.upgrade() else {
            return Err(ServiceCallError::ServiceGone);
        };
        inner.invoke_remote_inner(interface, method, args)
    }
}

/// Activator of a generated proxy bundle: registers the proxy service on
/// start; the framework sweeps the registration on stop.
struct ProxyActivator {
    interface: String,
    service: Arc<dyn Service>,
    peer: String,
}

impl BundleActivator for ProxyActivator {
    fn start(&mut self, ctx: &BundleContext) -> Result<(), String> {
        let props = Properties::new()
            .with(Properties::REMOTE_PROXY, true)
            .with(PROP_IMPORTED_FROM, self.peer.clone());
        ctx.register_service(&[self.interface.as_str()], Arc::clone(&self.service), props)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    fn stop(&mut self, _ctx: &BundleContext) -> Result<(), String> {
        Ok(())
    }
}

impl Inner {
    /// A strong handle on the current wire. Cheap (one `RwLock` read +
    /// `Arc` clone); callers hold the `Arc`, never the lock, so a
    /// reconnect can swap the wire while calls are blocked in `recv`.
    fn wire(&self) -> Arc<dyn Transport> {
        Arc::clone(&*self.transport.read())
    }

    /// Appends one `lease`-stream record to the configured journal; a
    /// no-op (one `Option` branch) when journaling is off. Only called
    /// from connection-lifecycle paths, never per-invocation.
    fn journal_lease(&self, event: &str, peer: &str, interface: Option<&str>) {
        let Some(journal) = &self.config.journal else {
            return;
        };
        let mut payload = Vec::with_capacity(2);
        payload.push(("peer".to_string(), Json::Str(peer.to_string())));
        if let Some(iface) = interface {
            payload.push(("interface".to_string(), Json::Str(iface.to_string())));
        }
        journal.append("lease", event, &Json::obj(payload).to_json_string());
    }

    fn send(&self, msg: &Message) -> Result<(), RosgiError> {
        self.send_on(&self.wire(), msg)
    }

    /// Encodes `msg` into a pooled buffer and sends it over an explicit
    /// transport (the handshake must not race with a concurrent wire
    /// swap).
    fn send_on(&self, wire: &Arc<dyn Transport>, msg: &Message) -> Result<(), RosgiError> {
        let mut w = ByteWriter::with_pool(&self.pool);
        msg.encode_into(&mut w);
        let frame = w.into_bytes();
        self.counters.frames_sent.inc();
        self.counters.bytes_sent.add(frame.len() as u64);
        wire.send(frame)?;
        Ok(())
    }

    fn send_frame(&self, frame: Vec<u8>) -> Result<(), RosgiError> {
        self.counters.frames_sent.inc();
        self.counters.bytes_sent.add(frame.len() as u64);
        self.wire().send(frame)?;
        Ok(())
    }

    fn ping_inner(&self, timeout: Duration) -> Result<Duration, RosgiError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(RosgiError::Closed);
        }
        let nonce = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.pending_pings.lock().insert(nonce, tx);
        let start = Instant::now();
        if let Err(e) = self.send(&Message::Ping { nonce }) {
            self.pending_pings.lock().remove(&nonce);
            return Err(e);
        }
        let out = rx.recv_timeout(timeout);
        self.pending_pings.lock().remove(&nonce);
        match out {
            Ok(()) => Ok(start.elapsed()),
            // A timeout means "slow or lossy", not "gone": the connection
            // may still recover. Only a dropped waiter channel (teardown
            // cleared `pending_pings`) means the wire is actually down.
            Err(RecvTimeoutError::Timeout) => Err(RosgiError::Transport(TransportError::Timeout)),
            Err(RecvTimeoutError::Disconnected) => Err(RosgiError::Closed),
        }
    }

    /// Pushes the breaker's current state into the `rosgi.breaker_state`
    /// gauge (one relaxed store). Called after any operation that may
    /// have moved the state machine.
    fn sync_breaker_gauge(&self) {
        self.counters.breaker_state.set(self.breaker.state_code());
    }

    /// Feeds one completed invoke outcome to the breaker and the retry
    /// budget. Wire-level failures (send failure, response timeout —
    /// exactly the [`is_retryable`] set) count against the breaker; any
    /// *answered* call — success, `Busy`, `DeadlineExceeded`, or an
    /// application error — proves the peer alive. Only genuine successes
    /// refill the retry budget.
    fn record_invoke_outcome(&self, outcome: &Result<Value, ServiceCallError>) {
        match outcome {
            Ok(_) => {
                self.retry_budget.deposit();
                self.breaker.record_success();
            }
            Err(e) if is_retryable(e) => {
                self.breaker.record_failure();
            }
            Err(_) => self.breaker.record_success(),
        }
        self.sync_breaker_gauge();
    }

    /// Answers `call_id` with `DeadlineExceeded` *without executing it*:
    /// the caller's budget ran out before the call reached a worker.
    /// `predicted` distinguishes enqueue-time shedding (the estimated
    /// queue wait already exceeded the budget) from a deadline that
    /// actually expired before execution.
    fn shed_deadline(&self, call_id: u64, predicted: bool) {
        if predicted {
            self.counters.shed_predicted.inc();
        } else {
            self.counters.shed_expired.inc();
        }
        self.respond(call_id, &Err(ServiceCallError::DeadlineExceeded));
    }

    /// Encodes the response borrowed — the result is written into a
    /// pooled buffer without moving it into a `Message` — and sends it.
    fn respond(&self, call_id: u64, result: &CallResult) {
        let mut w = ByteWriter::with_pool(&self.pool);
        Message::encode_response(&mut w, call_id, result);
        let _ = self.send_frame(w.into_bytes());
    }

    /// Records why the wire went down. The first cause per outage wins
    /// (a peer `Bye` beats the transport-closed error it provokes); a
    /// successful reconnect clears the slot for the next outage.
    fn record_disconnect(&self, reason: DisconnectReason) {
        let mut slot = self.disconnect_reason.lock();
        if *slot == DisconnectReason::None {
            *slot = reason;
            alfredo_obs::event("rosgi.endpoint", "disconnect", || {
                vec![
                    ("peer".to_string(), self.config.peer_name.clone()),
                    ("reason".to_string(), format!("{reason:?}")),
                ]
            });
        }
    }

    /// Whether the peer's lease marks `method` on `interface` as
    /// idempotent (listed under [`PROP_IDEMPOTENT_METHODS`]).
    fn is_idempotent(&self, interface: &str, method: &str) -> bool {
        let leases = self.leases.lock();
        let Some(info) = leases.find(interface) else {
            return false;
        };
        info.properties
            .get(PROP_IDEMPOTENT_METHODS)
            .and_then(Value::as_list)
            .map(|items| items.iter().filter_map(Value::as_str).any(|m| m == method))
            .unwrap_or(false)
    }

    /// The wire just died (the sink saw `on_close`). Fail everything
    /// waiting on it, but keep proxies and leases: a reconnect may revive
    /// them. `cleanup()` does the full teardown if reconnection is not
    /// configured or gives up.
    fn on_wire_down(&self) {
        self.health.transition(HealthState::Disconnected);
        self.calls.fail_all(|| Err(ServiceCallError::ServiceGone));
        for (_, tx) in self.pending_fetches.lock().drain() {
            let _ = tx.send(Err(RosgiError::Closed));
        }
        // Dropping the waiters makes in-flight pings observe Disconnected.
        self.pending_pings.lock().clear();
        for (_, tx) in self.open_streams.lock().drain() {
            let _ = tx.send(StreamData::Aborted);
        }
        self.send_credits.lock().clear();
    }

    /// Adopts a freshly handshaken wire after a reconnect: swaps the
    /// transport in place (re-binding every surviving proxy — they route
    /// through the endpoint, so same `ServiceReference`, new wire), drops
    /// proxies whose services did not survive the outage, and installs
    /// the fresh lease.
    fn adopt_wire(&self, wire: Arc<dyn Transport>, peer: String, fresh: Vec<RemoteServiceInfo>) {
        *self.transport.write() = wire;
        *self.remote_peer.lock() = peer;
        // Diff the fresh lease against installed proxies: a proxy whose
        // interface the peer no longer offers is uninstalled (consumers
        // see a plain unregistration); survivors keep working untouched.
        let orphaned: Vec<(String, BundleId)> = {
            let proxies = self.proxy_bundles.lock();
            proxies
                .iter()
                .filter(|(iface, _)| !fresh.iter().any(|s| s.offers(iface)))
                .map(|(iface, b)| (iface.clone(), *b))
                .collect()
        };
        for (iface, bundle) in orphaned {
            self.proxy_bundles.lock().remove(&iface);
            let _ = self.framework.uninstall(bundle);
        }
        self.leases.lock().reset(fresh);
        self.counters.reconnects.inc();
        // A fresh wire voids the old circuit's evidence: the breaker
        // re-closes and failures are counted from scratch.
        self.breaker.reset();
        self.sync_breaker_gauge();
        *self.disconnect_reason.lock() = DisconnectReason::None;
        self.health.transition(HealthState::Healthy);
    }

    /// Services worth exporting in our lease: everything that is not
    /// itself a proxy imported from somewhere (no transitive re-export).
    fn exportable_services(&self) -> Vec<RemoteServiceInfo> {
        self.framework
            .registry()
            .all_references(None)
            .iter()
            .filter(|r| !r.is_remote_proxy())
            .map(RemoteServiceInfo::from_reference)
            .collect()
    }

    fn invoke_remote_inner(
        self: &Arc<Self>,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ServiceCallError> {
        let retry = self.config.retry;
        if retry.max_retries == 0 {
            // Hot path: no deadline arithmetic, no lease lookup. With
            // deadline propagation on, the wire budget is the invoke
            // timeout — there is no retry schedule to carve it from.
            let deadline = self
                .config
                .propagate_deadline
                .then(|| Instant::now() + self.config.invoke_timeout);
            return self
                .invoke_async_inner(interface, method, args, deadline)?
                .wait();
        }
        let deadline = Instant::now() + retry.deadline;
        let wire_deadline = self.config.propagate_deadline.then_some(deadline);
        let mut attempt = 0u32;
        loop {
            let outcome = self
                .invoke_async_inner(interface, method, args, wire_deadline)
                .and_then(CallHandle::wait);
            match outcome {
                Err(ref e)
                    if attempt < retry.max_retries
                        && !self.closed.load(Ordering::SeqCst)
                        && Instant::now() < deadline
                        && match e {
                            // Backpressure rejections never executed the
                            // call, so they are safe to retry even for
                            // non-idempotent methods.
                            ServiceCallError::Busy { .. } => true,
                            _ => is_retryable(e) && self.is_idempotent(interface, method),
                        } =>
                {
                    // Every retry — Busy included — spends one token from
                    // the endpoint-wide budget. An empty bucket means the
                    // link is already saturated with re-sent traffic;
                    // failing fast here is what caps a synchronized
                    // retry storm's amplification.
                    if !self.retry_budget.try_withdraw() {
                        self.counters.retry_budget_exhausted.inc();
                        return outcome;
                    }
                    self.counters.retries.inc();
                    // A Busy rejection carries the server's own estimate of
                    // when queue space frees up; that hint *replaces* the
                    // fixed exponential schedule — the server knows its
                    // drain rate, the schedule is a blind guess.
                    let backoff = match e {
                        ServiceCallError::Busy { retry_after_ms } if *retry_after_ms > 0 => {
                            self.counters.busy_hint_retries.inc();
                            Duration::from_millis(*retry_after_ms)
                        }
                        _ => retry.backoff_for(attempt),
                    };
                    let backoff = backoff.min(deadline.saturating_duration_since(Instant::now()));
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Fires an invocation and returns the handle to its pending reply.
    ///
    /// The `Invoke` frame is encoded *borrowed* — the interface name,
    /// method name, and argument slice are written straight into a
    /// pooled wire buffer, never cloned into an owned [`Message`] — and
    /// the waiter is a recycled call slot from the sharded table.
    fn invoke_async_inner(
        self: &Arc<Self>,
        interface: &str,
        method: &str,
        args: &[Value],
        deadline: Option<Instant>,
    ) -> Result<CallHandle, ServiceCallError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServiceCallError::ServiceGone);
        }
        // An Open circuit fast-fails before any wire work: no frame, no
        // call slot, no retry fuel burned against a peer known to be
        // failing. One branch when the breaker is disabled.
        if !self.breaker.allow() {
            self.counters.breaker_fast_fails.inc();
            return Err(ServiceCallError::Remote(ERR_CIRCUIT_OPEN.into()));
        }
        // Per-attempt deadline stamp: each attempt ships its *remaining*
        // budget, so a retry after backoff advertises less time than the
        // first attempt did. A deadline that already passed fails here —
        // the frame could only be shed on arrival anyway.
        let deadline_ms = match deadline {
            Some(d) => match remaining_budget_ms(d) {
                Some(ms) => Some(ms),
                None => return Err(ServiceCallError::DeadlineExceeded),
            },
            None => None,
        };
        // Validate injected struct types client-side before paying for the
        // round trip (the server validates again on its side). Skipped
        // while no types have been injected — empty registries accept
        // every value.
        if self.has_types.load(Ordering::Relaxed) {
            let types = self.types.lock();
            for arg in args {
                types
                    .validate_deep(arg)
                    .map_err(|e| ServiceCallError::BadArguments(e.to_string()))?;
            }
        }
        let call_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = self.calls.register(call_id);
        self.counters.calls_sent.inc();
        // Tracing disabled (the default): `span` is `None`, `trace` is
        // `None`, `started` is `None` — three dead branches, no
        // allocation, no clock read, and the frame stays byte-identical.
        let mut span = self.obs.span_dyn(|| format!("rpc:{method}"));
        let trace = span.ctx();
        let started = trace.map(|_| Instant::now());
        span.set_with("interface", || interface.to_owned());
        let mut w = ByteWriter::with_pool(&self.pool);
        Message::encode_invoke(&mut w, call_id, interface, method, args, trace, deadline_ms);
        if self.send_frame(w.into_bytes()).is_err() {
            self.calls.cancel(call_id);
            self.calls.recycle(call_id, slot);
            // A failed send is wire-level evidence, same as a timeout.
            self.breaker.record_failure();
            self.sync_breaker_gauge();
            span.set("outcome", "send-failed");
            return Err(ServiceCallError::ServiceGone);
        }
        Ok(CallHandle {
            inner: Arc::clone(self),
            call_id,
            slot,
            span,
            started,
        })
    }

    fn on_local_service_event(&self, event: &ServiceEvent) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        let reference = event.reference();
        if reference.is_remote_proxy() {
            return; // never re-export imported services
        }
        let msg = match event {
            ServiceEvent::Registered(_) | ServiceEvent::Modified(_) => Message::LeaseUpdate {
                added: vec![RemoteServiceInfo::from_reference(reference)],
                removed: vec![],
            },
            ServiceEvent::Unregistering(_) => Message::LeaseUpdate {
                added: vec![],
                removed: vec![reference.id().as_raw()],
            },
        };
        let _order = self.lease_order.lock();
        let _ = self.send(&msg);
    }

    fn on_local_event(&self, event: &Event) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        // Never bounce a remote-originated event back.
        if event
            .properties
            .get_bool(PROP_EVENT_REMOTE)
            .unwrap_or(false)
        {
            return;
        }
        let interested = {
            let patterns = self.remote_event_patterns.lock();
            patterns.iter().any(|p| topic_matches(p, &event.topic))
        };
        if !interested {
            return;
        }
        self.counters.events_forwarded.inc();
        let _ = self.send(&Message::RemoteEvent {
            topic: event.topic.clone(),
            properties: event.properties.clone(),
        });
    }

    fn handle_message(self: &Arc<Self>, msg: Message) {
        match msg {
            Message::Hello { peer, .. } => {
                *self.remote_peer.lock() = peer;
            }
            Message::Lease { services } => {
                self.leases.lock().reset(services);
            }
            Message::LeaseUpdate { added, removed } => {
                // If a removed remote service backs one of our proxies,
                // uninstall the proxy: consumers see the service vanish.
                let gone_interfaces: Vec<String> = {
                    let leases = self.leases.lock();
                    removed
                        .iter()
                        .filter_map(|id| leases.services().into_iter().find(|s| s.remote_id == *id))
                        .flat_map(|s| s.interfaces.iter().cloned().collect::<Vec<_>>())
                        .collect()
                };
                self.leases.lock().apply_update(added, &removed);
                for iface in gone_interfaces {
                    let bundle = self.proxy_bundles.lock().remove(&iface);
                    if let Some(b) = bundle {
                        let _ = self.framework.uninstall(b);
                    }
                }
            }
            Message::EventInterest { patterns } => {
                *self.remote_event_patterns.lock() = patterns;
            }
            Message::FetchService { interface } => {
                let reply = self.build_service_bundle(&interface);
                // The serving side also records the types it ships, so it
                // can validate struct arguments on later invocations.
                if let Message::ServiceBundle { injected_types, .. } = &reply {
                    if !injected_types.is_empty() {
                        let mut types = self.types.lock();
                        for t in injected_types {
                            types.inject(t.clone());
                        }
                        self.has_types.store(true, Ordering::Relaxed);
                    }
                }
                if matches!(reply, Message::ServiceBundle { .. }) {
                    let peer = self.remote_peer.lock().clone();
                    self.journal_lease("grant", &peer, Some(&interface));
                }
                let _ = self.send(&reply);
            }
            Message::ServiceBundle {
                interface,
                injected_types,
                smart_proxy,
                descriptor,
            } => {
                let parts = ServiceParts {
                    interface,
                    injected_types,
                    smart_proxy,
                    descriptor,
                };
                let size = parts.canonical_bytes().len();
                let waiter = self.pending_fetches.lock().remove(&parts.interface.name);
                if let Some(tx) = waiter {
                    let _ = tx.send(Ok((parts, size)));
                }
            }
            Message::FetchFailed { interface, reason } => {
                let waiter = self.pending_fetches.lock().remove(&interface);
                if let Some(tx) = waiter {
                    let _ = tx.send(Err(RosgiError::NoSuchRemoteService(format!(
                        "{interface}: {reason}"
                    ))));
                }
            }
            // Served straight off the frame bytes in `process_frame`;
            // an `Invoke` never takes the owned decode that leads here.
            Message::Invoke { .. } => {}
            Message::Response { call_id, result } => {
                if matches!(result, Err(ServiceCallError::Busy { .. })) {
                    self.counters.busy_received.inc();
                }
                // Unknown ids (timed-out calls) are dropped.
                self.calls.complete(call_id, result);
            }
            Message::RemoteEvent { topic, properties } => {
                self.counters.events_received.inc();
                let mut props = properties;
                props.insert(PROP_EVENT_REMOTE, true);
                self.framework.event_admin().post(&Event::new(topic, props));
            }
            Message::StreamOpen { stream, name } => {
                let (tx, rx) = channel::unbounded();
                self.open_streams.lock().insert(stream, tx);
                let receiver = StreamReceiver::new(StreamId(stream), name, rx);
                let _ = self.incoming_streams.0.send(receiver);
                let _ = self.send(&Message::StreamCredit {
                    stream,
                    credits: DEFAULT_INITIAL_CREDITS,
                });
            }
            Message::StreamChunk {
                stream,
                seq: _,
                last,
                bytes,
            } => {
                let sender = self.open_streams.lock().get(&stream).cloned();
                if let Some(tx) = sender {
                    let _ = tx.send(StreamData::Chunk(bytes));
                    if last {
                        let _ = tx.send(StreamData::End);
                        self.open_streams.lock().remove(&stream);
                    } else {
                        let _ = self.send(&Message::StreamCredit { stream, credits: 1 });
                    }
                }
            }
            Message::StreamCredit { stream, credits } => {
                let gate = self.send_credits.lock().get(&stream).cloned();
                if let Some(g) = gate {
                    g.grant(credits);
                }
            }
            Message::Ping { nonce } => {
                let _ = self.send(&Message::Pong { nonce });
            }
            Message::Pong { nonce } => {
                let waiter = self.pending_pings.lock().remove(&nonce);
                if let Some(tx) = waiter {
                    let _ = tx.send(());
                }
            }
            Message::Bye => {
                // Orderly goodbye: never reconnect after one.
                let peer = self.remote_peer.lock().clone();
                self.journal_lease("bye", &peer, None);
                self.shutdown.store(true, Ordering::SeqCst);
                self.record_disconnect(DisconnectReason::ByePeer);
                self.wire().close();
            }
        }
    }

    /// Routes one incoming invocation either inline (no serve queue
    /// configured: interface and method stay borrowed from the frame) or
    /// through the bounded [`ServeQueue`]. A queue rejection answers the
    /// caller with [`ServiceCallError::Busy`] *without executing the
    /// call*, which is what makes the caller's unconditional retry of
    /// `Busy` safe; an expired or unmeetable propagated deadline is
    /// answered with `DeadlineExceeded` under the same never-executed
    /// guarantee.
    fn dispatch_invoke(self: &Arc<Self>, inv: BorrowedInvoke<'_>) {
        let (call_id, trace) = (inv.call_id, inv.trace);
        let Some(queue) = &self.config.serve_queue else {
            self.serve_and_respond(call_id, inv.interface, inv.method, &inv.args, trace);
            return;
        };
        // Rebase the caller's relative budget onto the local clock at
        // arrival: from here on the queue ages it.
        let deadline = inv
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        // Queued serving needs owned strings — the job outlives the frame
        // the names are borrowed from. Only this (opted-in) path pays the
        // copy; the args are already owned and move for free.
        let interface = inv.interface.to_owned();
        let method = inv.method.to_owned();
        let args = inv.args;
        let peer = self.remote_peer.lock().clone();
        let this = Arc::clone(self);
        let job = Box::new(move || {
            this.serve_and_respond(call_id, &interface, &method, &args, trace);
        });
        // The expiry responder runs on a worker thread if the deadline
        // lapses while the entry is queued — the job itself never runs.
        let on_expired = deadline.map(|_| {
            let this = Arc::clone(self);
            Box::new(move || this.shed_deadline(call_id, false)) as Box<dyn FnOnce() + Send>
        });
        match queue.submit_with_deadline(&peer, job, deadline, on_expired) {
            SubmitOutcome::Accepted => {}
            SubmitOutcome::Shed => {
                // Shed at enqueue: either the deadline already lapsed in
                // flight, or the predicted queue wait exceeds what's left.
                let predicted = deadline.is_some_and(|d| remaining_budget_ms(d).is_some());
                self.shed_deadline(call_id, predicted);
            }
            SubmitOutcome::Busy => {
                self.counters.busy_sent.inc();
                self.respond(
                    call_id,
                    &Err(ServiceCallError::Busy {
                        retry_after_ms: queue.retry_after_ms(),
                    }),
                );
            }
        }
    }

    /// Serves one incoming invocation against the local registry and
    /// sends the response frame. `trace` is the caller's
    /// wire-propagated span context: when present (and tracing is on
    /// here) the serve span joins the caller's trace as a child of its
    /// `rpc:` span — one connected tree across both endpoints.
    fn serve_and_respond(
        &self,
        call_id: u64,
        interface: &str,
        method: &str,
        args: &[Value],
        trace: Option<SpanCtx>,
    ) {
        self.counters.calls_served.inc();
        let mut span = self.obs.child_dyn(trace, || format!("serve:{method}"));
        let started = span.is_recording().then(Instant::now);
        let result = self.serve_invoke(interface, method, args);
        if let Some(t0) = started {
            self.counters.serve_us.record_duration(t0.elapsed());
        }
        span.set("outcome", if result.is_ok() { "ok" } else { "error" });
        drop(span);
        self.respond(call_id, &result);
    }

    fn serve_invoke(
        &self,
        interface: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ServiceCallError> {
        let service = self
            .framework
            .registry()
            .get_service(interface)
            .ok_or(ServiceCallError::ServiceGone)?;
        // Validate injected struct types on the way in (skipped entirely
        // until a type has been injected — an empty registry accepts
        // every value).
        if self.has_types.load(Ordering::Relaxed) {
            let types = self.types.lock();
            for arg in args {
                types
                    .validate_deep(arg)
                    .map_err(|e| ServiceCallError::BadArguments(e.to_string()))?;
            }
        }
        service.invoke(method, args)
    }

    /// Builds the `ServiceBundle` reply for a fetch of `interface`.
    fn build_service_bundle(&self, interface: &str) -> Message {
        let Some(reference) = self.framework.registry().get_reference(interface) else {
            return Message::FetchFailed {
                interface: interface.to_owned(),
                reason: "no such service".into(),
            };
        };
        let Some(service) = self.framework.registry().get_service_by_id(reference.id()) else {
            return Message::FetchFailed {
                interface: interface.to_owned(),
                reason: "service vanished".into(),
            };
        };
        let Some(iface) = service.describe() else {
            return Message::FetchFailed {
                interface: interface.to_owned(),
                reason: "service has no shippable interface description".into(),
            };
        };
        let props = reference.properties();

        // Injected types: encoded descriptor list in a property.
        let injected_types = props
            .get(PROP_INJECTED_TYPES)
            .and_then(Value::as_bytes)
            .map(decode_type_descriptors)
            .unwrap_or_default();

        // Smart proxy offer.
        let smart_proxy = props.get_str(PROP_SMART_PROXY_KEY).map(|key| {
            let methods = props
                .get(PROP_SMART_PROXY_METHODS)
                .and_then(Value::as_list)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default();
            SmartProxySpec::new(key, methods)
        });

        let descriptor = props
            .get(PROP_DESCRIPTOR)
            .and_then(Value::as_bytes)
            .map(<[u8]>::to_vec);

        Message::ServiceBundle {
            interface: iface,
            injected_types,
            smart_proxy,
            descriptor,
        }
    }

    /// Tears down all connection-scoped state. Idempotent.
    fn cleanup(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.health.transition(HealthState::Disconnected);
        // Stop watching the local registry and event bus.
        if let Some(listener) = self.registry_listener.lock().take() {
            self.framework.registry().remove_listener(listener);
        }
        if let Some(token) = self.interest_listener.lock().take() {
            self.framework.event_admin().remove_change_listener(token);
        }
        if let Some(tap) = self.event_tap.lock().take() {
            self.framework.event_admin().remove_tap(tap);
        }
        // Fail outstanding calls and fetches.
        self.calls.fail_all(|| Err(ServiceCallError::ServiceGone));
        for (_, tx) in self.pending_fetches.lock().drain() {
            let _ = tx.send(Err(RosgiError::Closed));
        }
        self.pending_pings.lock().clear();
        // Abort streams in both directions.
        for (_, tx) in self.open_streams.lock().drain() {
            let _ = tx.send(StreamData::Aborted);
        }
        self.send_credits.lock().clear();
        // Uninstall every proxy bundle: local consumers observe ordinary
        // service-unregistration + bundle events.
        let bundles: Vec<BundleId> = self.proxy_bundles.lock().drain().map(|(_, b)| b).collect();
        for b in bundles {
            let _ = self.framework.uninstall(b);
        }
        self.leases.lock().reset(Vec::new());
        let (flag, cv) = &self.done;
        *flag.lock() = true;
        cv.notify_all();
    }

    /// Purges lease entries whose TTL elapsed and uninstalls their
    /// proxies. Runs on every heartbeat tick.
    fn purge_expired_leases(&self) {
        let expired = self.leases.lock().purge_expired(Instant::now());
        for entry in expired {
            self.counters.lease_expiries.inc();
            alfredo_obs::event("rosgi.endpoint", "lease_expired", || {
                vec![(
                    "interfaces".to_string(),
                    entry
                        .interfaces
                        .iter()
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(","),
                )]
            });
            for iface in entry.interfaces.iter() {
                let bundle = self.proxy_bundles.lock().remove(iface);
                if let Some(b) = bundle {
                    let _ = self.framework.uninstall(b);
                }
            }
        }
    }
}

/// Decodes a [`PROP_INJECTED_TYPES`] property back into type
/// descriptors (the inverse of [`encode_type_descriptors`]). Tolerates
/// malformed input by returning what decoded cleanly.
pub fn decode_type_descriptors(bytes: &[u8]) -> Vec<TypeDescriptor> {
    let mut r = alfredo_net::ByteReader::new(bytes);
    let Ok(n) = r.varint() else { return Vec::new() };
    let mut out = Vec::with_capacity((n as usize).min(256));
    for _ in 0..n {
        match TypeDescriptor::decode(&mut r) {
            Ok(t) => out.push(t),
            Err(_) => return out,
        }
    }
    out
}

/// Encodes type descriptors for the [`PROP_INJECTED_TYPES`] registration
/// property.
pub fn encode_type_descriptors(types: &[TypeDescriptor]) -> Vec<u8> {
    let mut w = alfredo_net::ByteWriter::new();
    w.put_varint(types.len() as u64);
    for t in types {
        t.encode(&mut w);
    }
    w.into_bytes()
}

fn is_retryable(e: &ServiceCallError) -> bool {
    // `ServiceGone` covers "send failed / wire down" (a reconnect may be
    // in flight); `Remote("timeout")` covers a lost request or response.
    // Either way the request may or may not have executed — which is why
    // only idempotent-marked methods are ever retried.
    matches!(e, ServiceCallError::ServiceGone)
        || matches!(e, ServiceCallError::Remote(m) if m == "timeout")
}

/// Sends our half of the handshake on `wire` and reads the peer's half.
/// Returns the peer's name and lease. Used both by `establish` and by the
/// reconnect path (which must handshake on a wire that is not yet the
/// endpoint's current transport).
fn run_handshake(
    inner: &Inner,
    wire: &Arc<dyn Transport>,
) -> Result<(String, Vec<RemoteServiceInfo>), RosgiError> {
    inner.send_on(
        wire,
        &Message::Hello {
            peer: inner.config.peer_name.clone(),
            version: PROTOCOL_VERSION,
        },
    )?;
    inner.send_on(
        wire,
        &Message::Lease {
            services: inner.exportable_services(),
        },
    )?;
    inner.send_on(
        wire,
        &Message::EventInterest {
            patterns: inner.framework.event_admin().patterns(),
        },
    )?;

    let deadline = Instant::now() + inner.config.handshake_timeout;
    let mut peer = None;
    let mut services = None;
    while peer.is_none() || services.is_none() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| RosgiError::Handshake("handshake timed out".into()))?;
        let frame = wire.recv_timeout(remaining)?;
        inner.counters.frames_received.inc();
        inner.counters.bytes_received.add(frame.len() as u64);
        match Message::decode(&frame)? {
            Message::Hello { peer: p, version } => {
                if version != PROTOCOL_VERSION {
                    return Err(RosgiError::Handshake(format!(
                        "protocol version mismatch: ours {PROTOCOL_VERSION}, theirs {version}"
                    )));
                }
                peer = Some(p);
            }
            Message::Lease { services: s } => services = Some(s),
            Message::EventInterest { patterns } => {
                *inner.remote_event_patterns.lock() = patterns;
            }
            other => {
                return Err(RosgiError::Handshake(format!(
                    "unexpected message during handshake: {other:?}"
                )))
            }
        }
    }
    Ok((
        peer.expect("loop exits only with peer"),
        services.expect("loop exits only with services"),
    ))
}

/// The heartbeat: probes the peer, drives the health state machine,
/// renews leases on proof of life, and purges expired entries — as
/// non-blocking ticks so the one shared timer thread can drive every
/// endpoint in the process. A tick launches the probe and a later tick
/// harvests it, so miss detection is quantized to the tick interval.
/// After `disconnected_after` consecutive misses it declares the wire
/// dead by closing it; the sink's close path then owns reconnection.
struct HbTick {
    inner: Weak<Inner>,
    hb: HeartbeatConfig,
    misses: u32,
    /// Outstanding probe: nonce, pong waiter, send time.
    pending: Option<(u64, Receiver<()>, Instant)>,
}

fn start_heartbeat(inner: &Arc<Inner>, hb: HeartbeatConfig) {
    HbTick {
        inner: Arc::downgrade(inner),
        hb,
        misses: 0,
        pending: None,
    }
    .arm();
}

impl HbTick {
    /// Schedules the next tick on the reactor's timer wheel.
    fn arm(self) {
        let interval = self.hb.interval;
        Reactor::global()
            .timer()
            .schedule(interval, Box::new(move || self.run()));
    }

    /// One heartbeat tick. Runs on the wheel thread (a reactor thread —
    /// sends never block on the outbox cap), then re-arms itself unless
    /// the endpoint is gone. Holding only a `Weak` means a dropped
    /// endpoint stops ticking within one interval.
    fn run(mut self) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        if inner.closed.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
            if let Some((nonce, _, _)) = self.pending.take() {
                inner.pending_pings.lock().remove(&nonce);
            }
            return;
        }
        // Lease housekeeping runs every tick, probe or not: entries the
        // peer stopped renewing are purged and their proxies uninstalled,
        // so "an AlfredO client does not store outdated data over time".
        inner.purge_expired_leases();

        // Harvest the outstanding probe, if any.
        if let Some((nonce, rx, sent_at)) = self.pending.take() {
            match rx.try_recv() {
                Ok(()) => {
                    // A pong launched while the circuit was half-open is
                    // the probe outcome that re-closes it.
                    inner.breaker.probe_succeeded();
                    self.misses = 0;
                    inner.leases.lock().renew_all(Instant::now());
                    inner
                        .health
                        .transition_from(HealthState::Degraded, HealthState::Healthy);
                }
                Err(TryRecvError::Empty) if sent_at.elapsed() < self.hb.timeout => {
                    // Still in flight; check again next tick.
                    self.pending = Some((nonce, rx, sent_at));
                }
                Err(_) => {
                    // Timed out — or teardown dropped the waiter, in
                    // which case the reconnect path already owns the
                    // outage and the miss count is moot.
                    inner.breaker.probe_failed();
                    inner.pending_pings.lock().remove(&nonce);
                    self.misses += 1;
                    inner.counters.heartbeats_missed.inc();
                    if self.misses >= self.hb.disconnected_after {
                        inner.record_disconnect(DisconnectReason::HeartbeatTimeout);
                        // Closing the wire triggers the sink's close path,
                        // which runs disconnect + reconnect.
                        inner.wire().close();
                        self.misses = 0;
                    } else if self.misses >= self.hb.degraded_after {
                        inner
                            .health
                            .transition_from(HealthState::Healthy, HealthState::Degraded);
                    }
                }
            }
        }

        // Launch a fresh probe when none is in flight and the wire is up
        // (reconnection owns a Disconnected wire; probing it is noise).
        if self.pending.is_none() && inner.health.state() != HealthState::Disconnected {
            // If the circuit is Open and cooled down, this ping *is* the
            // half-open probe; its harvest above decides the next state.
            inner.breaker.try_probe();
            let nonce = inner.next_id.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = channel::bounded(1);
            inner.pending_pings.lock().insert(nonce, tx);
            inner.counters.heartbeats_sent.inc();
            if inner.send(&Message::Ping { nonce }).is_ok() {
                self.pending = Some((nonce, rx, Instant::now()));
            } else {
                inner.pending_pings.lock().remove(&nonce);
            }
        }

        inner.sync_breaker_gauge();
        drop(inner);
        self.arm();
    }
}

/// Dials, handshakes, and adopts a replacement wire. Returns `true` once
/// the endpoint is healthy again, `false` when every attempt failed or an
/// orderly shutdown intervened.
fn try_reconnect(inner: &Arc<Inner>, rc: &ReconnectConfig) -> bool {
    // Runs on a teardown thread: parent explicitly under whatever span
    // was current when the endpoint was established, so reconnects show
    // up inside the interaction's trace.
    let mut span = inner.obs.child_of(inner.conn_ctx, "reconnect");
    for attempt in 0..rc.max_attempts {
        // Back off in small slices so an orderly close() aborts promptly.
        let mut left = rc.backoff_for(attempt);
        while !left.is_zero() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let step = left.min(Duration::from_millis(20));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let fresh = match (rc.dial)() {
            Ok(t) => t,
            Err(_) => continue,
        };
        let wire: Arc<dyn Transport> = Arc::from(fresh);
        match run_handshake(inner, &wire) {
            Ok((peer, services)) => {
                inner.journal_lease("rehandshake", &peer, None);
                inner.adopt_wire(wire, peer, services);
                span.set_with("attempts", || (attempt + 1).to_string());
                span.set("outcome", "ok");
                return true;
            }
            Err(_) => wire.close(),
        }
    }
    span.set("outcome", "gave-up");
    false
}

/// Handles one received frame: counters, then decode + dispatch. On an
/// undecodable frame it closes `wire` and returns why.
fn process_frame(
    inner: &Arc<Inner>,
    wire: &Arc<dyn Transport>,
    frame: Vec<u8>,
) -> Result<(), DisconnectReason> {
    inner.counters.frames_received.inc();
    inner.counters.bytes_received.add(frame.len() as u64);
    // Either way the frame's allocation goes back to the pool to back a
    // future outgoing frame. Under steady request/response traffic this
    // is what makes the send path allocation-free: each side recycles
    // what it receives.
    let handled = if Message::is_invoke(&frame) {
        // Invocations — the hot frame type — are served straight off
        // the frame bytes: interface and method stay borrowed, no
        // `Message` is materialized.
        let served = Message::decode_invoke_borrowed(&frame).map(|inv| inner.dispatch_invoke(inv));
        inner.pool.give(frame);
        served
    } else {
        let decoded = Message::decode(&frame);
        inner.pool.give(frame);
        decoded.map(|msg| inner.handle_message(msg))
    };
    handled.map_err(|e| {
        // Protocol corruption: fail fast, close the link.
        inner
            .framework
            .emit_framework(alfredo_osgi::FrameworkEvent::Error {
                bundle: None,
                message: format!("undecodable frame from peer: {e}"),
            });
        wire.close();
        DisconnectReason::CorruptFrame
    })
}

/// Frame delivery: the transport's delivery thread calls in here.
/// Everything must stay non-blocking (a reactor poller serves many
/// connections), so teardown and reconnection hop to a short-lived
/// thread.
struct EndpointSink {
    inner: Weak<Inner>,
    wire: Arc<dyn Transport>,
}

impl FrameSink for EndpointSink {
    fn on_frame(&mut self, frame: Vec<u8>) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        if let Err(why) = process_frame(&inner, &self.wire, frame) {
            // `process_frame` closed the wire; `on_close` follows and
            // owns the teardown/reconnect decision. Record the precise
            // cause now — first-cause-wins keeps it over the generic
            // transport-closed reason.
            inner.record_disconnect(why);
        }
    }

    fn on_close(&mut self) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        inner.record_disconnect(match self.wire.close_reason() {
            CloseReason::CorruptStream => DisconnectReason::CorruptStream,
            // `Local` closes record their own (more precise) reason at
            // the closing site: Bye, close(), or the heartbeat;
            // first-cause-wins keeps it.
            _ => DisconnectReason::TransportClosed,
        });
        let down = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name(format!("rosgi-down-{}", inner.config.peer_name))
            .spawn(move || wire_down(down));
        if spawned.is_err() {
            // No thread to reconnect on, and a panic here would take the
            // poller and every connection on it down: tear down inline.
            inner.on_wire_down();
            inner.cleanup();
        }
    }
}

/// Continuation of a dead wire, off the delivery thread: reconnect if
/// configured, full teardown otherwise. The thread lives only for the
/// outage — nothing stays parked per connection.
fn wire_down(inner: Arc<Inner>) {
    inner.on_wire_down();
    if !inner.shutdown.load(Ordering::SeqCst) && !inner.closed.load(Ordering::SeqCst) {
        if let Some(rc) = inner.config.reconnect.clone() {
            if try_reconnect(&inner, &rc) && !inner.closed.load(Ordering::SeqCst) {
                install_delivery(&inner);
                return;
            }
        }
    }
    inner.cleanup();
}

/// Arms frame delivery on the endpoint's current wire.
fn install_delivery(inner: &Arc<Inner>) {
    let wire = inner.wire();
    wire.set_sink(Box::new(EndpointSink {
        inner: Arc::downgrade(inner),
        wire: Arc::clone(&wire),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_descriptor_property_round_trip() {
        use alfredo_osgi::TypeHint;
        let types = vec![
            TypeDescriptor::new("a.A").with_field("x", TypeHint::I64),
            TypeDescriptor::new("b.B").with_field("y", TypeHint::Str),
        ];
        let bytes = encode_type_descriptors(&types);
        assert_eq!(decode_type_descriptors(&bytes), types);
    }

    #[test]
    fn decode_type_descriptors_tolerates_garbage() {
        assert!(decode_type_descriptors(&[]).is_empty());
        assert!(decode_type_descriptors(&[0xff, 0xff]).is_empty());
    }

    #[test]
    fn default_config_is_untrusting() {
        let cfg = EndpointConfig::default();
        assert!(!cfg.accept_smart_proxies, "smart proxies need opt-in");
    }
}
