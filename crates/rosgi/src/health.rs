//! Endpoint health: state machine, listeners, and retry policy.
//!
//! AlfredO runs over flaky WLAN/Bluetooth links, so an endpoint's link
//! quality is a first-class observable. The health state machine is
//! deliberately small:
//!
//! ```text
//! Healthy ──(heartbeat misses)──▶ Degraded ──(more misses / wire down)──▶ Disconnected
//!    ▲                               │                                        │
//!    └──────(heartbeat ok)───────────┘            (reconnect + re-handshake)──┘
//! ```
//!
//! Sessions subscribe to transitions via [`HealthMonitor::subscribe`] and
//! use them to mark remote-bound controls unavailable, queue actions, and
//! replay them on recovery (see `alfredo::session`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_sync::Mutex;

/// The observable health of a remote endpoint's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// The link is up and responsive.
    #[default]
    Healthy,
    /// Heartbeats are being missed; the link may be about to fail. Calls
    /// still go out, but sessions should treat remote-bound controls as
    /// unavailable.
    Degraded,
    /// The wire is down. The endpoint is either reconnecting or closed.
    Disconnected,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Disconnected => "disconnected",
        };
        f.write_str(s)
    }
}

/// One observed health transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// The state before the transition.
    pub from: HealthState,
    /// The state after the transition.
    pub to: HealthState,
}

/// Why an endpoint's wire went down, as recorded in
/// [`EndpointStats`](crate::EndpointStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisconnectReason {
    /// Never disconnected (or no cause known).
    #[default]
    None,
    /// The peer sent an orderly `Bye`.
    ByePeer,
    /// The endpoint was closed locally.
    LocalClose,
    /// The transport reported the connection closed or an I/O failure.
    TransportClosed,
    /// A frame failed to decode (protocol corruption) and the link was
    /// torn down defensively.
    CorruptFrame,
    /// The underlying byte stream violated framing (e.g. an impossible
    /// length prefix on TCP).
    CorruptStream,
    /// The background heartbeat declared the peer unreachable.
    HeartbeatTimeout,
}

impl fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DisconnectReason::None => "none",
            DisconnectReason::ByePeer => "peer said bye",
            DisconnectReason::LocalClose => "closed locally",
            DisconnectReason::TransportClosed => "transport closed",
            DisconnectReason::CorruptFrame => "corrupt frame",
            DisconnectReason::CorruptStream => "corrupt stream",
            DisconnectReason::HeartbeatTimeout => "heartbeat timeout",
        };
        f.write_str(s)
    }
}

type Listener = Arc<dyn Fn(HealthEvent) + Send + Sync>;

/// Tracks a [`HealthState`] and notifies subscribers of transitions.
///
/// Listeners run synchronously on the thread performing the transition
/// (the timer wheel, a delivery thread or a teardown thread), so they
/// must be quick and must not call back into the endpoint — push into a
/// channel and drain elsewhere.
#[derive(Default)]
pub struct HealthMonitor {
    state: Mutex<HealthState>,
    listeners: Mutex<Vec<(u64, Listener)>>,
    next_token: AtomicU64,
}

impl HealthMonitor {
    /// Creates a monitor in the [`HealthState::Healthy`] state.
    pub fn new() -> Self {
        HealthMonitor::default()
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        *self.state.lock()
    }

    /// Registers a transition listener; returns a token for
    /// [`HealthMonitor::unsubscribe`].
    pub fn subscribe(&self, f: impl Fn(HealthEvent) + Send + Sync + 'static) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.listeners.lock().push((token, Arc::new(f)));
        token
    }

    /// Removes a previously registered listener.
    pub fn unsubscribe(&self, token: u64) {
        self.listeners.lock().retain(|(t, _)| *t != token);
    }

    /// Moves to `to` (from any state), notifying listeners if the state
    /// actually changed. Returns `true` on a change.
    pub fn transition(&self, to: HealthState) -> bool {
        let from = {
            let mut state = self.state.lock();
            if *state == to {
                return false;
            }
            std::mem::replace(&mut *state, to)
        };
        self.notify(HealthEvent { from, to });
        true
    }

    /// Moves to `to` only if currently in `from` (compare-and-swap).
    /// Returns `true` if the transition happened.
    pub fn transition_from(&self, from: HealthState, to: HealthState) -> bool {
        {
            let mut state = self.state.lock();
            if *state != from || from == to {
                return false;
            }
            *state = to;
        }
        self.notify(HealthEvent { from, to });
        true
    }

    fn notify(&self, event: HealthEvent) {
        // Structured diagnostics instead of debug prints: tests subscribe
        // to the obs hub and assert on transitions; stdout stays clean.
        alfredo_obs::event("rosgi.health", "transition", || {
            vec![
                ("from".to_string(), format!("{:?}", event.from)),
                ("to".to_string(), format!("{:?}", event.to)),
            ]
        });
        // Snapshot under the lock, call outside it: a listener may
        // subscribe/unsubscribe others.
        let listeners: Vec<Listener> = self
            .listeners
            .lock()
            .iter()
            .map(|(_, f)| Arc::clone(f))
            .collect();
        for f in listeners {
            f(event);
        }
    }
}

impl fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("state", &self.state())
            .field("listeners", &self.listeners.lock().len())
            .finish()
    }
}

/// Background heartbeat settings for an endpoint.
///
/// The heartbeat pings the peer every `interval`; a ping unanswered within
/// `timeout` counts as a miss. After `degraded_after` consecutive misses
/// the endpoint turns [`HealthState::Degraded`]; after
/// `disconnected_after` it declares the wire dead (which triggers
/// reconnection when configured). A successful ping clears the miss count,
/// renews the lease table, and restores [`HealthState::Healthy`].
///
/// The heartbeat runs as non-blocking ticks on the reactor's shared
/// timer wheel, whatever the transport: each tick launches or harvests
/// one probe, so miss detection is quantized to `interval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Time between probes.
    pub interval: Duration,
    /// How long to wait for each pong.
    pub timeout: Duration,
    /// Consecutive misses before `Degraded`.
    pub degraded_after: u32,
    /// Consecutive misses before the wire is declared dead.
    pub disconnected_after: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_secs(2),
            timeout: Duration::from_secs(1),
            degraded_after: 1,
            disconnected_after: 3,
        }
    }
}

/// Retry policy for synchronous invocations of idempotent-marked methods.
///
/// `max_retries == 0` (the default) disables retry entirely — the invoke
/// path then has zero added cost. Backoff is exponential from
/// `initial_backoff`, capped at `max_backoff`; the whole call (all
/// attempts plus backoffs) never exceeds `deadline` past the first
/// attempt's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound for the exponential backoff.
    pub max_backoff: Duration,
    /// Overall per-call deadline across attempts.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `max_retries` times with default backoff.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to sleep before retry number `attempt` (0-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.min(16);
        let factor = 1u32 << shift;
        self.initial_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// The observable state of a [`CircuitBreaker`].
///
/// ```text
/// Closed ──(threshold consecutive failures)──▶ Open
///    ▲                                           │ (cooldown elapses)
///    │                                           ▼
///    └──(probe succeeds)──── HalfOpen ◀──────────┘
///                               │ (probe fails)
///                               └──────▶ Open (cooldown restarts)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are being counted.
    #[default]
    Closed,
    /// Calls fast-fail without touching the wire until the cooldown
    /// elapses and a probe is allowed.
    Open,
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        f.write_str(s)
    }
}

/// Circuit breaker settings for an endpoint.
///
/// `failure_threshold == 0` (the default) disables the breaker entirely;
/// the invoke path then carries no breaker check beyond one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive invoke failures before the circuit opens
    /// (0 = breaker disabled).
    pub failure_threshold: u32,
    /// How long the circuit stays open before a half-open probe may run.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            cooldown: Duration::from_secs(1),
        }
    }
}

impl BreakerConfig {
    /// A breaker that opens after `failure_threshold` consecutive
    /// failures, with the default cooldown.
    pub fn after_failures(failure_threshold: u32) -> Self {
        BreakerConfig {
            failure_threshold,
            ..BreakerConfig::default()
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// A Closed → Open → HalfOpen circuit breaker guarding an endpoint's
/// invoke path.
///
/// While Open every invoke fast-fails locally — no frame is sent, no
/// retry is burned — so a fleet of phones stops hammering a dead or
/// drowning device. Recovery is driven by the heartbeat tick: once the
/// cooldown elapses [`CircuitBreaker::try_probe`]
/// admits exactly one probe, and [`CircuitBreaker::probe_succeeded`] /
/// [`CircuitBreaker::probe_failed`] close or re-open the circuit.
///
/// All transitions emit a `rosgi.breaker` obs event; the endpoint mirrors
/// the state into the `rosgi.breaker_state` gauge (0 = closed, 1 = open,
/// 2 = half-open).
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// Creates a breaker in the Closed state.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }

    /// Whether this breaker can ever trip (threshold > 0).
    pub fn is_enabled(&self) -> bool {
        self.config.failure_threshold > 0
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// The state as a gauge value: 0 = closed, 1 = open, 2 = half-open.
    pub fn state_code(&self) -> i64 {
        match self.state() {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Whether an invoke may proceed right now. `false` means the caller
    /// must fast-fail without touching the wire.
    pub fn allow(&self) -> bool {
        if !self.is_enabled() {
            return true;
        }
        self.inner.lock().state == BreakerState::Closed
    }

    /// Records an invoke that completed successfully (in Closed state this
    /// resets the consecutive-failure count).
    pub fn record_success(&self) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().consecutive_failures = 0;
    }

    /// Records a failed invoke; opens the circuit once the consecutive
    /// count reaches the threshold. Returns `true` if this call tripped
    /// the breaker open.
    pub fn record_failure(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let tripped = {
            let mut inner = self.inner.lock();
            if inner.state != BreakerState::Closed {
                return false;
            }
            inner.consecutive_failures += 1;
            if inner.consecutive_failures < self.config.failure_threshold {
                return false;
            }
            inner.state = BreakerState::Open;
            inner.opened_at = Some(Instant::now());
            true
        };
        if tripped {
            Self::announce(BreakerState::Closed, BreakerState::Open);
        }
        tripped
    }

    /// Called by the heartbeat driver each tick: if the circuit is Open
    /// and the cooldown has elapsed, moves to HalfOpen and returns `true`
    /// — the caller must now run one probe and report its outcome via
    /// [`Self::probe_succeeded`] or [`Self::probe_failed`].
    pub fn try_probe(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let admitted = {
            let mut inner = self.inner.lock();
            if inner.state != BreakerState::Open {
                return false;
            }
            let elapsed = inner
                .opened_at
                .map(|t| t.elapsed() >= self.config.cooldown)
                .unwrap_or(true);
            if !elapsed {
                return false;
            }
            inner.state = BreakerState::HalfOpen;
            true
        };
        if admitted {
            Self::announce(BreakerState::Open, BreakerState::HalfOpen);
        }
        admitted
    }

    /// The half-open probe came back: close the circuit.
    pub fn probe_succeeded(&self) {
        let changed = {
            let mut inner = self.inner.lock();
            if inner.state != BreakerState::HalfOpen {
                return;
            }
            inner.state = BreakerState::Closed;
            inner.consecutive_failures = 0;
            inner.opened_at = None;
            true
        };
        if changed {
            Self::announce(BreakerState::HalfOpen, BreakerState::Closed);
        }
    }

    /// The half-open probe failed: re-open and restart the cooldown.
    pub fn probe_failed(&self) {
        let changed = {
            let mut inner = self.inner.lock();
            if inner.state != BreakerState::HalfOpen {
                return;
            }
            inner.state = BreakerState::Open;
            inner.opened_at = Some(Instant::now());
            true
        };
        if changed {
            Self::announce(BreakerState::HalfOpen, BreakerState::Open);
        }
    }

    /// Forces the circuit Closed (used when the endpoint reconnects with a
    /// fresh wire: the old circuit's evidence no longer applies).
    pub fn reset(&self) {
        let from = {
            let mut inner = self.inner.lock();
            if inner.state == BreakerState::Closed {
                inner.consecutive_failures = 0;
                return;
            }
            let from = inner.state;
            inner.state = BreakerState::Closed;
            inner.consecutive_failures = 0;
            inner.opened_at = None;
            from
        };
        Self::announce(from, BreakerState::Closed);
    }

    fn announce(from: BreakerState, to: BreakerState) {
        alfredo_obs::event("rosgi.breaker", "transition", || {
            vec![
                ("from".to_string(), from.to_string()),
                ("to".to_string(), to.to_string()),
            ]
        });
    }
}

impl fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("state", &self.state())
            .field("config", &self.config)
            .finish()
    }
}

/// Retry budget settings for an endpoint.
///
/// `max_tokens == 0` (the default) disables the budget: retries are then
/// limited only by the per-call [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetConfig {
    /// Bucket capacity in whole retry tokens (also the initial fill;
    /// 0 = budget disabled).
    pub max_tokens: u32,
    /// Hundredths of a token deposited per successful call (e.g. 10 means
    /// ten successes earn one retry).
    pub refill_centitokens: u32,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            max_tokens: 0,
            refill_centitokens: 10,
        }
    }
}

impl RetryBudgetConfig {
    /// A budget holding up to `max_tokens` retries with the default
    /// refill rate.
    pub fn tokens(max_tokens: u32) -> Self {
        RetryBudgetConfig {
            max_tokens,
            ..RetryBudgetConfig::default()
        }
    }
}

/// A token bucket bounding an endpoint's total retry volume.
///
/// Each retry withdraws one token; each successful call deposits a
/// fraction of one. Under a full outage the bucket drains after
/// `max_tokens` retries and every further retry fast-fails — so a fleet
/// of phones retrying in lockstep produces at most
/// `1 + max_tokens/first_attempts` amplification instead of
/// `1 + max_retries`. Successes refill the bucket, so a healthy link
/// regains its retry allowance.
///
/// Lock-free: the balance is an atomic count of centitokens.
pub struct RetryBudget {
    config: RetryBudgetConfig,
    centitokens: AtomicU64,
}

impl RetryBudget {
    /// Creates a budget with a full bucket.
    pub fn new(config: RetryBudgetConfig) -> Self {
        RetryBudget {
            config,
            centitokens: AtomicU64::new(u64::from(config.max_tokens) * 100),
        }
    }

    /// Whether this budget can ever bind (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.config.max_tokens > 0
    }

    /// Withdraws one retry token. Returns `false` — retry must not happen
    /// — when the bucket lacks a whole token. A disabled budget always
    /// grants.
    pub fn try_withdraw(&self) -> bool {
        if !self.is_enabled() {
            return true;
        }
        self.centitokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |have| {
                have.checked_sub(100)
            })
            .is_ok()
    }

    /// Deposits the per-success refill, saturating at the bucket capacity.
    pub fn deposit(&self) {
        if !self.is_enabled() {
            return;
        }
        let cap = u64::from(self.config.max_tokens) * 100;
        let refill = u64::from(self.config.refill_centitokens);
        let _ = self
            .centitokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |have| {
                Some((have + refill).min(cap))
            });
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.centitokens.load(Ordering::Acquire) / 100
    }
}

impl fmt::Debug for RetryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryBudget")
            .field("tokens", &self.tokens())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn starts_healthy_and_notifies_on_change() {
        let m = HealthMonitor::new();
        assert_eq!(m.state(), HealthState::Healthy);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        m.subscribe(move |e| seen2.lock().push(e));
        assert!(m.transition(HealthState::Degraded));
        assert!(!m.transition(HealthState::Degraded), "no-op repeat");
        assert!(m.transition(HealthState::Disconnected));
        assert!(m.transition(HealthState::Healthy));
        let events = seen.lock().clone();
        assert_eq!(
            events,
            vec![
                HealthEvent {
                    from: HealthState::Healthy,
                    to: HealthState::Degraded
                },
                HealthEvent {
                    from: HealthState::Degraded,
                    to: HealthState::Disconnected
                },
                HealthEvent {
                    from: HealthState::Disconnected,
                    to: HealthState::Healthy
                },
            ]
        );
    }

    #[test]
    fn conditional_transition_is_a_cas() {
        let m = HealthMonitor::new();
        assert!(!m.transition_from(HealthState::Degraded, HealthState::Healthy));
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.transition_from(HealthState::Healthy, HealthState::Degraded));
        assert_eq!(m.state(), HealthState::Degraded);
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let m = HealthMonitor::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let token = m.subscribe(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        m.transition(HealthState::Degraded);
        m.unsubscribe(token);
        m.transition(HealthState::Healthy);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(5),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2), Duration::from_millis(40));
        assert_eq!(p.backoff_for(5), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff_for(60), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        assert!(!b.is_enabled());
        for _ in 0..100 {
            assert!(!b.record_failure());
        }
        assert!(b.allow());
        assert!(!b.try_probe());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(0),
        });
        assert!(b.allow());
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success();
        // The success reset the streak: two more failures stay Closed.
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.state_code(), 1);
        assert!(!b.allow(), "open fast-fails");

        // Cooldown of zero: the next tick admits exactly one probe.
        assert!(b.try_probe());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.try_probe(), "only one probe in flight");
        assert!(!b.allow(), "half-open still fast-fails invokes");

        b.probe_succeeded();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn failed_probe_reopens_and_cooldown_gates_the_next() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        });
        assert!(b.record_failure());
        assert!(!b.try_probe(), "cooldown not elapsed");
        // Force the probe by resetting, then trip with a zero cooldown.
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);

        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(0),
        });
        assert!(b.record_failure());
        assert!(b.try_probe());
        b.probe_failed();
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert!(b.try_probe(), "zero cooldown admits the next probe");
    }

    #[test]
    fn retry_budget_drains_and_refills() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            max_tokens: 2,
            refill_centitokens: 50,
        });
        assert!(budget.is_enabled());
        assert_eq!(budget.tokens(), 2);
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw(), "bucket empty");
        // Two successes at 0.5 token each earn one retry back.
        budget.deposit();
        assert!(!budget.try_withdraw(), "half a token is not a token");
        budget.deposit();
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn retry_budget_saturates_at_capacity() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            max_tokens: 1,
            refill_centitokens: 100,
        });
        for _ in 0..50 {
            budget.deposit();
        }
        assert_eq!(budget.tokens(), 1, "deposits cap at max_tokens");
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn disabled_budget_always_grants() {
        let budget = RetryBudget::new(RetryBudgetConfig::default());
        assert!(!budget.is_enabled());
        for _ in 0..1000 {
            assert!(budget.try_withdraw());
        }
    }
}
