//! A live AlfredO interaction: View state + Controller interpreter.
//!
//! The session owns the rendered UI, the mutable [`UiState`], and the
//! interpreted controller. UI events flow in through
//! [`AlfredOSession::handle_event`]; remote events are queued by an
//! EventAdmin subscription and drained by [`AlfredOSession::pump_events`];
//! poll rules fire from [`AlfredOSession::advance_time`]. Closing the
//! session releases every leased service — proxies are uninstalled
//! immediately, "therefore, an AlfredO client does not store outdated
//! data over time" (§4.1).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_journal::Journal;
use alfredo_obs::{Obs, SpanCtx};
use alfredo_sync::channel::{self, Receiver, Sender};
use alfredo_sync::Mutex;

use alfredo_osgi::events::SubscriptionId;
use alfredo_osgi::{Event, Framework, Json, Properties, ServiceCallError, ToJson as _, Value};
use alfredo_rosgi::{HealthEvent, HealthState, RemoteEndpoint, RosgiError, ERR_CIRCUIT_OPEN};
use alfredo_ui::render::{select_renderer, RenderedUi};
use alfredo_ui::{DeviceCapabilities, UiEvent, UiState};

use crate::cache::{Lookup, TierCache};
use crate::controller::{Action, ArgSource, Binding, MethodCall, Rule, Trigger, UiTriggerKind};
use crate::descriptor::ServiceDescriptor;
use crate::engine::{EngineError, OutagePolicy};
use crate::optimizer::{LatencyMonitor, RuntimeOptimizer};
use crate::policy::ClientContext;
use crate::tier::{Placement, TierAssignment};

/// Optional method a stateful logic component implements so live
/// migration can carry its state across placements: takes no arguments
/// and returns the component's state as a single [`Value`]. Components
/// without it are treated as stateless (the
/// [`ServiceCallError::NoSuchMethod`] reply is the "nothing to move"
/// signal, not an error).
///
/// A component offloaded as a smart proxy must list both state methods
/// in its proxy's local methods, so they execute on whichever side owns
/// the live instance.
pub const EXPORT_STATE_METHOD: &str = "export_state";

/// Counterpart of [`EXPORT_STATE_METHOD`]: takes the exported [`Value`]
/// and installs it as the component's state on the new placement.
pub const IMPORT_STATE_METHOD: &str = "import_state";

/// Whether a call failure is an overload signal rather than a genuine
/// fault: the endpoint's circuit breaker fast-failed the call locally,
/// or a deadline expired before the call executed (sent by the device's
/// shed path or stamped client-side). Both are rejected-not-executed, so
/// the event they carried is safe to queue for replay.
fn is_overload(err: &EngineError) -> bool {
    match err {
        EngineError::Call(ServiceCallError::DeadlineExceeded) => true,
        EngineError::Call(ServiceCallError::Remote(msg)) => msg == ERR_CIRCUIT_OPEN,
        _ => false,
    }
}

/// What a controller action did (returned for observability and tests).
#[derive(Debug, Clone, PartialEq)]
pub enum ActionOutcome {
    /// A service method was invoked.
    Invoked {
        /// Service interface.
        service: String,
        /// Method.
        method: String,
        /// The result value (already bound into state if requested).
        result: Value,
    },
    /// A state entry was written.
    Updated {
        /// Control id.
        control: String,
    },
    /// An additional remote service was leased mid-interaction.
    Acquired {
        /// The interface fetched.
        interface: String,
    },
    /// An event was posted on the local bus.
    Emitted {
        /// The topic.
        topic: String,
    },
    /// The link was degraded or down, so the event was queued for replay
    /// once the endpoint heals ([`OutagePolicy::Replay`]).
    Queued {
        /// The unavailable control the event targeted.
        control: String,
    },
    /// The link was degraded or down and the event was dropped
    /// ([`OutagePolicy::Discard`]).
    Discarded {
        /// The unavailable control the event targeted.
        control: String,
    },
}

/// One live interaction between the phone and a target service.
pub struct AlfredOSession {
    framework: Framework,
    endpoint: Arc<RemoteEndpoint>,
    /// Shared with the tier-cache entry it was decoded from, if cached.
    descriptor: Arc<ServiceDescriptor>,
    assignment: Mutex<TierAssignment>,
    /// Shared with the tier-cache entry it was rendered for, if cached.
    rendered: Arc<RenderedUi>,
    capabilities: DeviceCapabilities,
    state: Mutex<UiState>,
    fetched_interfaces: Mutex<Vec<String>>,
    /// (elapsed virtual ms, last-fire ms per poll-rule index)
    clock_ms: Mutex<(u64, HashMap<usize, u64>)>,
    event_rx: Receiver<(String, Properties)>,
    _event_tx: Sender<(String, Properties)>,
    monitor: Mutex<LatencyMonitor>,
    subscription: Option<SubscriptionId>,
    transferred_bytes: usize,
    proxy_footprint: usize,
    outage_policy: OutagePolicy,
    /// Controls whose rules reach out to the remote device (Invoke or
    /// AcquireService actions): exactly the controls that go unavailable
    /// when the link degrades.
    remote_bound: Vec<String>,
    /// Events aimed at remote-bound controls during an outage, awaiting
    /// replay (under [`OutagePolicy::Replay`]).
    pending: Mutex<Vec<UiEvent>>,
    health_log: Arc<Mutex<Vec<HealthEvent>>>,
    health_token: u64,
    closed: AtomicBool,
    obs: Obs,
    /// The connection's `interaction` span: every `invoke:*` span this
    /// session opens is parented under it.
    trace_root: Option<SpanCtx>,
    /// The engine's session journal: every handled UI event (with its
    /// outcomes) and imperative invoke is appended to the `session`
    /// stream — the timeline [`crate::replay`] re-drives.
    journal: Option<Journal>,
    /// The engine's content-addressed tier cache, shared so a migration
    /// back to the phone re-installs a previously fetched artifact
    /// without re-shipping it.
    tier_cache: TierCache,
    /// Raised for the duration of [`Self::migrate_component`]'s pause:
    /// while up, remote-bound UI events queue under the outage policy
    /// exactly as during a link outage.
    migrating: AtomicBool,
}

/// What one completed [`AlfredOSession::migrate_component`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated logic component.
    pub interface: String,
    /// Where it ran before.
    pub from: Placement,
    /// Where it runs now.
    pub to: Placement,
    /// Wall time from quiesce start to placement commit — the window in
    /// which new UI events queued instead of executing.
    pub pause: Duration,
    /// Whether the component exported state that was carried over.
    pub state_transferred: bool,
    /// Whether a phone-bound move installed the artifact from the tier
    /// cache instead of re-fetching it over the wire (always `false`
    /// for device-bound moves).
    pub cache_hit: bool,
    /// UI events that had queued during the pause and were replayed
    /// after the commit.
    pub replayed: usize,
}

/// Clears the session's `migrating` flag when dropped, so every abort
/// path out of `migrate_component` restores normal event flow.
struct MigrationGuard<'a>(&'a AtomicBool);

impl Drop for MigrationGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

impl AlfredOSession {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        framework: Framework,
        endpoint: Arc<RemoteEndpoint>,
        descriptor: Arc<ServiceDescriptor>,
        assignment: TierAssignment,
        rendered: Arc<RenderedUi>,
        capabilities: DeviceCapabilities,
        state: UiState,
        fetched_interfaces: Vec<String>,
        transferred_bytes: usize,
        proxy_footprint: usize,
        outage_policy: OutagePolicy,
        obs: Obs,
        trace_root: Option<SpanCtx>,
        journal: Option<Journal>,
        tier_cache: TierCache,
    ) -> Self {
        let (tx, rx) = channel::unbounded();
        // Queue every bus event whose topic any RemoteEvent rule matches.
        let patterns: Vec<String> = descriptor
            .controller
            .rules()
            .iter()
            .filter_map(|r| match &r.trigger {
                crate::controller::Trigger::RemoteEvent { topic_pattern } => {
                    Some(topic_pattern.clone())
                }
                _ => None,
            })
            .collect();
        let subscription = if patterns.is_empty() {
            None
        } else {
            let tx2 = tx.clone();
            Some(framework.event_admin().subscribe("*", move |event| {
                if patterns
                    .iter()
                    .any(|p| alfredo_osgi::events::topic_matches(p, &event.topic))
                {
                    let _ = tx2.send((event.topic.clone(), event.properties.clone()));
                }
            }))
        };
        let remote_bound: Vec<String> = {
            let mut controls: Vec<String> = descriptor
                .controller
                .rules()
                .iter()
                .filter(|r| {
                    r.actions
                        .iter()
                        .any(|a| matches!(a, Action::Invoke { .. } | Action::AcquireService { .. }))
                })
                .filter_map(|r| ui_trigger_control(&r.trigger).map(str::to_owned))
                .collect();
            controls.sort();
            controls.dedup();
            controls
        };
        let health_log = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&health_log);
        let health_token = endpoint.on_health(move |event| log.lock().push(event));
        AlfredOSession {
            framework,
            endpoint,
            descriptor,
            assignment: Mutex::new(assignment),
            rendered,
            capabilities,
            state: Mutex::new(state),
            fetched_interfaces: Mutex::new(fetched_interfaces),
            clock_ms: Mutex::new((0, HashMap::new())),
            event_rx: rx,
            _event_tx: tx,
            monitor: Mutex::new(LatencyMonitor::new()),
            subscription,
            transferred_bytes,
            proxy_footprint,
            outage_policy,
            remote_bound,
            pending: Mutex::new(Vec::new()),
            health_log,
            health_token,
            closed: AtomicBool::new(false),
            obs,
            trace_root,
            journal,
            tier_cache,
            migrating: AtomicBool::new(false),
        }
    }

    /// The endpoint this session leases through — the re-tiering control
    /// loop samples its `rosgi.invoke_rtt_us` histogram.
    pub(crate) fn endpoint(&self) -> &Arc<RemoteEndpoint> {
        &self.endpoint
    }

    /// The session's observability handle (tracer + phone-side metrics).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A `/metrics`-style text dump of the underlying endpoint's registry
    /// (counters plus rtt/serve histogram quantiles), followed by the
    /// process-wide gauges (reactor connections, I/O threads, timer-wheel
    /// entries), as served by the [`crate::web::HttpGateway`].
    pub fn metrics_text(&self) -> String {
        let mut text = self.endpoint.obs().metrics().render_text();
        text.push_str(&alfredo_obs::global_metrics().render_text());
        text
    }

    /// The shipped descriptor.
    pub fn descriptor(&self) -> &ServiceDescriptor {
        &self.descriptor
    }

    /// The current tier assignment (may change via [`Self::optimize`]).
    pub fn assignment(&self) -> TierAssignment {
        self.assignment.lock().clone()
    }

    /// The View as rendered at acquisition time.
    pub fn rendered(&self) -> &RenderedUi {
        &self.rendered
    }

    /// Re-renders the View with the *current* UI state projected onto the
    /// description (live labels, list contents, selections…). Used by the
    /// servlet gateway so a browser refresh shows the latest state.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Ui`] if rendering fails.
    pub fn rerender(&self) -> Result<RenderedUi, EngineError> {
        let live = self.state.lock().project_onto(&self.descriptor.ui);
        let renderer = select_renderer(&self.capabilities);
        Ok(renderer.render(&live, &self.capabilities)?)
    }

    /// Bytes that travelled to acquire the presentation tier.
    pub fn transferred_bytes(&self) -> usize {
        self.transferred_bytes
    }

    /// File footprint of the generated proxy bundle.
    pub fn proxy_footprint(&self) -> usize {
        self.proxy_footprint
    }

    /// Runs `f` over the current UI state.
    pub fn with_state<R>(&self, f: impl FnOnce(&UiState) -> R) -> R {
        f(&self.state.lock())
    }

    /// Clones the current UI state.
    pub fn state_snapshot(&self) -> UiState {
        self.state.lock().clone()
    }

    /// Approximate runtime memory of the session's application state in
    /// bytes (UI state values + rendered artifact), the quantity §4.1
    /// compares between MouseController and AlfredOShop.
    pub fn memory_footprint(&self) -> usize {
        let state = self.state.lock();
        let mut total = self.rendered.memory_footprint();
        // Sum the state's value footprints through the public API.
        for control in self
            .descriptor
            .ui
            .all_controls()
            .iter()
            .map(|c| c.id.clone())
        {
            if let Some(v) = state.get(&control) {
                total += v.memory_footprint();
            }
            for slot in ["items", "selected", "source", "data"] {
                if let Some(v) = state.get_slot(&control, slot) {
                    total += v.memory_footprint();
                }
            }
        }
        total
    }

    /// Feeds a UI event through the controller.
    ///
    /// # Errors
    ///
    /// Returns the first action error; earlier outcomes are lost (the
    /// interaction is expected to be retried at UI level).
    pub fn handle_event(&self, event: &UiEvent) -> Result<Vec<ActionOutcome>, EngineError> {
        // Graceful degradation: while the link is not healthy — or a
        // tier migration has the session quiesced — events aimed at
        // remote-bound controls are queued or dropped per policy instead
        // of failing deep inside an invocation. Local state is
        // deliberately left untouched — a queued event re-enters here in
        // full on replay. A deliberately closed endpoint is not an
        // outage — nothing will ever replay, so the action must fail.
        if (self.endpoint.health() != HealthState::Healthy || self.is_migrating())
            && !self.endpoint.is_closed()
            && self.is_remote_bound(event.control())
        {
            return Ok(vec![self.degrade(event)]);
        }
        self.state.lock().apply(event);
        let (kind, value): (UiTriggerKind, Value) = match event {
            UiEvent::Click { .. } => (UiTriggerKind::Click, Value::Unit),
            UiEvent::TextChanged { text, .. } => (UiTriggerKind::Text, Value::from(text.as_str())),
            UiEvent::Selected { index, .. } => {
                (UiTriggerKind::Selected, Value::from(*index as i64))
            }
            UiEvent::SliderChanged { value, .. } => (UiTriggerKind::Slider, Value::from(*value)),
            UiEvent::PointerMoved { .. } => (UiTriggerKind::Pointer, Value::Unit),
            UiEvent::Key { ch, .. } => (UiTriggerKind::Text, Value::from(ch.to_string())),
        };
        let (dx, dy) = match event {
            UiEvent::PointerMoved { dx, dy, .. } => (*dx, *dy),
            _ => (0, 0),
        };
        let rules: Vec<Rule> = self
            .descriptor
            .controller
            .matching_ui(event.control(), kind)
            .cloned()
            .collect();
        let mut outcomes = Vec::new();
        for rule in rules {
            match self.run_actions(&rule.actions, &value, dx, dy) {
                Ok(o) => outcomes.extend(o),
                // Overload signals (circuit open, deadline shed) mean the
                // call was rejected without executing — degrade exactly as
                // an unhealthy link does instead of failing the
                // interaction. The event re-enters `handle_event` whole on
                // replay; re-applying its UI state is idempotent.
                Err(e) if is_overload(&e) && self.is_remote_bound(event.control()) => {
                    return Ok(vec![self.degrade(event)]);
                }
                Err(e) => return Err(e),
            }
        }
        self.journal_ui_event(event, &outcomes);
        Ok(outcomes)
    }

    /// Applies the session's [`OutagePolicy`] to a remote-bound event the
    /// link cannot serve right now: queued for replay or discarded.
    fn degrade(&self, event: &UiEvent) -> ActionOutcome {
        let control = event.control().to_owned();
        let outcome = match self.outage_policy {
            OutagePolicy::Replay => {
                self.pending.lock().push(event.clone());
                ActionOutcome::Queued { control }
            }
            OutagePolicy::Discard => ActionOutcome::Discarded { control },
        };
        // Journaled, but marked non-executed: replay skips it — the
        // re-handling after the link heals journals the real run.
        self.journal_ui_event(event, std::slice::from_ref(&outcome));
        outcome
    }

    fn journal_ui_event(&self, event: &UiEvent, outcomes: &[ActionOutcome]) {
        if let Some(journal) = &self.journal {
            journal.append_with("session", "ui_event", |out| {
                crate::replay::encode_ui_event(event, outcomes, out);
            });
        }
    }

    /// Drains queued remote events through the controller. Returns the
    /// outcomes of all fired rules.
    ///
    /// # Errors
    ///
    /// Returns the first action error.
    pub fn pump_events(&self) -> Result<Vec<ActionOutcome>, EngineError> {
        // Outage recovery first: queued interactions replay before any
        // newly arrived remote events are interpreted.
        let mut outcomes = self.replay_pending()?;
        while let Ok((topic, props)) = self.event_rx.try_recv() {
            let rules: Vec<Rule> = self
                .descriptor
                .controller
                .matching_event(&topic)
                .cloned()
                .collect();
            let value = props
                .get("value")
                .cloned()
                .unwrap_or(Value::Str(topic.clone()));
            for rule in rules {
                outcomes.extend(self.run_actions(&rule.actions, &value, 0, 0)?);
            }
        }
        Ok(outcomes)
    }

    /// Advances the interaction clock by `delta_ms`, firing due poll
    /// rules ("the Controller may periodically poll a certain service
    /// method provided by the remote device").
    ///
    /// # Errors
    ///
    /// Returns the first action error.
    pub fn advance_time(&self, delta_ms: u64) -> Result<Vec<ActionOutcome>, EngineError> {
        let due: Vec<Rule> = {
            let mut clock = self.clock_ms.lock();
            clock.0 += delta_ms;
            let now = clock.0;
            let mut due = Vec::new();
            for (idx, rule) in self.descriptor.controller.rules().iter().enumerate() {
                if let crate::controller::Trigger::Poll { interval_ms } = &rule.trigger {
                    let last = clock.1.entry(idx).or_insert(0);
                    if now.saturating_sub(*last) >= *interval_ms {
                        *last = now;
                        due.push(rule.clone());
                    }
                }
            }
            due
        };
        let mut outcomes = Vec::new();
        for rule in due {
            outcomes.extend(self.run_actions(&rule.actions, &Value::Unit, 0, 0)?);
        }
        Ok(outcomes)
    }

    /// The endpoint's current link health.
    pub fn health(&self) -> HealthState {
        self.endpoint.health()
    }

    /// Every health transition observed since the session started, in
    /// order.
    pub fn health_transitions(&self) -> Vec<HealthEvent> {
        self.health_log.lock().clone()
    }

    /// Whether `control` has rules that reach out to the remote device.
    pub fn is_remote_bound(&self, control: &str) -> bool {
        self.remote_bound
            .binary_search_by(|c| c.as_str().cmp(control))
            .is_ok()
    }

    /// The controls currently unavailable: remote-bound controls while
    /// the link is degraded or down, or while a tier migration is
    /// pausing the session; none when healthy. Renderers grey these out.
    pub fn unavailable_controls(&self) -> Vec<String> {
        if self.endpoint.health() == HealthState::Healthy && !self.is_migrating() {
            Vec::new()
        } else {
            self.remote_bound.clone()
        }
    }

    /// Whether a [`Self::migrate_component`] is currently holding the
    /// session quiesced (remote-bound events queue until it finishes).
    pub fn is_migrating(&self) -> bool {
        self.migrating.load(Ordering::SeqCst)
    }

    /// Number of events queued for replay.
    pub fn pending_events(&self) -> usize {
        self.pending.lock().len()
    }

    /// Replays events queued during an outage, in arrival order, through
    /// the normal controller path. A no-op unless the endpoint is healthy
    /// (events queued again mid-replay stay queued). Called automatically
    /// by [`AlfredOSession::pump_events`].
    ///
    /// # Errors
    ///
    /// Returns the first action error; unreplayed events stay queued.
    pub fn replay_pending(&self) -> Result<Vec<ActionOutcome>, EngineError> {
        if self.endpoint.health() != HealthState::Healthy || self.is_migrating() {
            return Ok(Vec::new());
        }
        let queued: Vec<UiEvent> = std::mem::take(&mut *self.pending.lock());
        let mut outcomes = Vec::new();
        for (i, event) in queued.iter().enumerate() {
            match self.handle_event(event) {
                Ok(o) => outcomes.extend(o),
                Err(e) => {
                    // Put the unprocessed tail back at the front of the
                    // queue so nothing is lost.
                    let mut pending = self.pending.lock();
                    let tail: Vec<UiEvent> = queued[i + 1..].to_vec();
                    let existing = std::mem::take(&mut *pending);
                    *pending = tail.into_iter().chain(existing).collect();
                    return Err(e);
                }
            }
        }
        Ok(outcomes)
    }

    /// Directly invokes a method on the leased service (or any locally
    /// visible service), bypassing the rule program. Useful for apps with
    /// imperative needs on top of the declarative controller.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Call`].
    pub fn invoke(
        &self,
        service: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, EngineError> {
        // Entering the invoke span makes the endpoint's per-attempt
        // `rpc:*` spans (retries included) its children.
        let mut span = self
            .obs
            .child_dyn(self.trace_root, || format!("invoke:{method}"));
        let _in_invoke = span.enter();
        span.set_with("service", || service.to_owned());
        let start = Instant::now();
        let out = self.invoke_placed(service, method, args)?;
        self.monitor
            .lock()
            .record(service, start.elapsed().as_secs_f64() * 1e3);
        if let Some(journal) = &self.journal {
            journal.append_with("session", "invoke", |buf| {
                buf.push_str("{\"service\":");
                Json::write_str_to(service, buf);
                buf.push_str(",\"method\":");
                Json::write_str_to(method, buf);
                buf.push_str(",\"args\":[");
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    arg.to_json().write_to(buf);
                }
                buf.push_str("]}");
            });
        }
        Ok(out)
    }

    /// Mean observed invocation latency for `service` in this session.
    pub fn observed_latency_ms(&self, service: &str) -> Option<f64> {
        self.monitor.lock().mean(service)
    }

    /// Sample count and mean of the latency window for `service` — the
    /// local-cost evidence the placement controller scores against.
    pub(crate) fn latency_stats(&self, service: &str) -> (usize, Option<f64>) {
        let monitor = self.monitor.lock();
        (monitor.count(service), monitor.mean(service))
    }

    /// Records an externally measured latency observation (for callers
    /// that invoke services directly rather than through
    /// [`Self::invoke`]).
    pub fn record_latency(&self, service: &str, latency_ms: f64) {
        self.monitor.lock().record(service, latency_ms);
    }

    /// Online re-distribution (the paper's future work, §7): applies the
    /// [`RuntimeOptimizer`]'s recommendation — every offloadable
    /// component whose observed remote latency exceeds the threshold is
    /// leased to the phone now. Returns the interfaces that moved.
    ///
    /// # Errors
    ///
    /// Returns the first fetch failure; components moved before the
    /// failure remain moved.
    pub fn optimize(
        &self,
        optimizer: &RuntimeOptimizer,
        ctx: &ClientContext,
    ) -> Result<Vec<String>, EngineError> {
        let recommendations = {
            let assignment = self.assignment.lock();
            let monitor = self.monitor.lock();
            optimizer.recommend(&self.descriptor, &assignment, &monitor, ctx)
        };
        for interface in &recommendations {
            self.endpoint.fetch_service(interface)?;
            self.fetched_interfaces.lock().push(interface.clone());
            self.assignment
                .lock()
                .set_logic_placement(interface, Placement::Client);
            // Old observations describe the remote configuration.
            self.monitor.lock().reset(interface);
        }
        Ok(recommendations)
    }

    /// Hot-migrates one logic component to the other side of the wire
    /// without dropping the session: quiesce → snapshot → transfer →
    /// re-bind → replay (DESIGN.md §16).
    ///
    /// 1. **Quiesce** — the session's `migrating` flag goes up, so new
    ///    UI events aimed at remote-bound controls queue under the
    ///    [`OutagePolicy`] replay path, then every in-flight call drains
    ///    through the endpoint's call table (nothing is cancelled).
    /// 2. **Snapshot** — the component's state is exported from its
    ///    current placement via [`EXPORT_STATE_METHOD`]; a component
    ///    without that method is stateless and skips the transfer.
    /// 3. **Transfer + re-bind** — a phone-bound move installs the smart
    ///    proxy through the content-addressed tier cache (a repeat
    ///    migration re-installs with zero bytes shipped) and imports the
    ///    state into the fresh local instance; a device-bound move
    ///    imports the state into the device's instance first, then
    ///    uninstalls the local proxy, so invocation routing falls back
    ///    to proxy-less remote calls.
    /// 4. **Commit** — the assignment flips, the latency monitor's
    ///    window for the interface resets (post-migration samples must
    ///    not inherit the old placement's history, or the controller
    ///    immediately re-flaps), and the move is journaled as a
    ///    sequenced `migrate` event — crash recovery replays to the
    ///    *post-migration* placement.
    /// 5. **Replay** — the flag drops and events queued during the
    ///    pause replay in order.
    ///
    /// Every phase before the re-bind aborts cleanly: the flag clears,
    /// the assignment is untouched, and queued events replay on the old
    /// placement — a crash or partition mid-migration degrades to an
    /// ordinary outage.
    ///
    /// # Errors
    ///
    /// [`EngineError::Migration`] when the component is unknown, already
    /// on `to`, another migration is running, the quiesce misses
    /// `deadline`, or a phone-bound move cannot obtain executable code
    /// (untrusted peer); transfer-phase failures surface as their
    /// underlying [`EngineError`].
    pub fn migrate_component(
        &self,
        interface: &str,
        to: Placement,
        deadline: Duration,
    ) -> Result<MigrationReport, EngineError> {
        if !self
            .descriptor
            .dependencies
            .iter()
            .any(|d| d.interface == interface)
        {
            return Err(EngineError::Migration(format!(
                "{interface} is not a declared logic dependency"
            )));
        }
        let from = self.assignment.lock().logic_placement(interface);
        if from == to {
            return Err(EngineError::Migration(format!(
                "{interface} already placed on {to}"
            )));
        }
        if self
            .migrating
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err(EngineError::Migration(
                "another migration is in progress".to_owned(),
            ));
        }
        let guard = MigrationGuard(&self.migrating);
        let started = Instant::now();
        let mut span = self
            .obs
            .child_dyn(self.trace_root, || format!("migrate:{interface}"));
        let _in_migrate = span.enter();
        span.set_with("from", || from.to_string());
        span.set_with("to", || to.to_string());

        // Quiesce: the flag already diverts new remote-bound events into
        // the pending queue; now let what is on the wire finish.
        if !self.endpoint.drain_in_flight(deadline) {
            return Err(EngineError::Migration(format!(
                "quiesce missed its {deadline:?} deadline with {} calls in flight",
                self.endpoint.in_flight_calls()
            )));
        }

        // Snapshot from the old placement.
        let state = match self.invoke_placed(interface, EXPORT_STATE_METHOD, &[]) {
            Ok(v) => Some(v),
            Err(EngineError::Call(ServiceCallError::NoSuchMethod(_))) => None,
            Err(e) => return Err(e),
        };

        // Transfer + re-bind.
        let mut cache_hit = false;
        match to {
            Placement::Client => {
                let (fetched, _, lookup) = self.tier_cache.fetch(&self.endpoint, interface)?;
                cache_hit = lookup == Lookup::Hit;
                if !fetched.smart {
                    // The peer shipped no code or the endpoint refuses
                    // smart proxies (untrusted): a plain proxy would
                    // still call the device, so the "migration" would be
                    // a lie. Undo the install and refuse.
                    let _ = self.endpoint.release_service(interface);
                    return Err(EngineError::Migration(format!(
                        "{interface} cannot move to the phone: no executable artifact \
                         admitted (untrusted peer or no smart proxy offered)"
                    )));
                }
                if let Some(s) = &state {
                    // Resolves to the just-installed smart proxy, whose
                    // local methods must include the state pair.
                    self.invoke_placed(interface, IMPORT_STATE_METHOD, std::slice::from_ref(s))?;
                }
                let mut fetched_list = self.fetched_interfaces.lock();
                if !fetched_list.iter().any(|i| i == interface) {
                    fetched_list.push(interface.to_owned());
                }
            }
            Placement::Target => {
                // Import into the device instance *before* tearing down
                // the local one: if the wire dies here, the local copy —
                // and the session — are intact.
                if let Some(s) = &state {
                    self.endpoint
                        .invoke(interface, IMPORT_STATE_METHOD, std::slice::from_ref(s))
                        .map_err(|e| match e {
                            RosgiError::Call(c) => EngineError::Call(c),
                            other => EngineError::Rosgi(other),
                        })?;
                }
                self.endpoint.release_service(interface)?;
                self.fetched_interfaces.lock().retain(|i| i != interface);
            }
        }

        // Commit: assignment, fresh latency window, sequenced journal
        // record. From here on the migration is observable to recovery.
        self.assignment.lock().set_logic_placement(interface, to);
        self.monitor.lock().reset(interface);
        let state_transferred = state.is_some();
        if let Some(journal) = &self.journal {
            journal.append_with("session", "migrate", |out| {
                crate::replay::encode_migration(interface, from, to, state_transferred, out);
            });
        }
        let pause = started.elapsed();
        span.set_with("pause_us", || pause.as_micros().to_string());
        span.set("state", if state_transferred { "moved" } else { "none" });

        // Resume: clear the flag, then replay what queued during the
        // pause — on the *new* placement.
        drop(guard);
        let replayed = self
            .replay_pending()?
            .iter()
            .filter(|o| matches!(o, ActionOutcome::Invoked { .. }))
            .count();
        Ok(MigrationReport {
            interface: interface.to_owned(),
            from,
            to,
            pause,
            state_transferred,
            cache_hit,
            replayed,
        })
    }

    /// Ends the interaction: releases every leased service (proxy bundles
    /// are uninstalled immediately) and unsubscribes from the bus.
    /// Idempotent.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.endpoint.remove_health_listener(self.health_token);
        if let Some(sub) = self.subscription {
            self.framework.event_admin().unsubscribe(sub);
        }
        for iface in self.fetched_interfaces.lock().drain(..) {
            let _ = self.endpoint.release_service(&iface);
        }
    }

    /// Whether the session has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn run_actions(
        &self,
        actions: &[Action],
        event_value: &Value,
        dx: i64,
        dy: i64,
    ) -> Result<Vec<ActionOutcome>, EngineError> {
        let mut outcomes = Vec::with_capacity(actions.len());
        for action in actions {
            match action {
                Action::Invoke { call, bind } => {
                    let result = self.execute_call(call, event_value, dx, dy)?;
                    if let Some(b) = bind {
                        self.bind_value(b, result.clone());
                    }
                    outcomes.push(ActionOutcome::Invoked {
                        service: call.service.clone(),
                        method: call.method.clone(),
                        result,
                    });
                }
                Action::Update { bind, value } => {
                    let v = self.resolve_arg(value, event_value, dx, dy);
                    self.bind_value(bind, v);
                    outcomes.push(ActionOutcome::Updated {
                        control: bind.control.clone(),
                    });
                }
                Action::AcquireService { interface } => {
                    self.endpoint.fetch_service(interface)?;
                    self.fetched_interfaces.lock().push(interface.clone());
                    outcomes.push(ActionOutcome::Acquired {
                        interface: interface.clone(),
                    });
                }
                Action::EmitEvent { topic, value_key } => {
                    let mut props = Properties::new();
                    if let Some(key) = value_key {
                        props.insert(key.clone(), event_value.clone());
                    }
                    self.framework
                        .event_admin()
                        .post(&Event::new(topic.clone(), props));
                    outcomes.push(ActionOutcome::Emitted {
                        topic: topic.clone(),
                    });
                }
            }
        }
        Ok(outcomes)
    }

    fn execute_call(
        &self,
        call: &MethodCall,
        event_value: &Value,
        dx: i64,
        dy: i64,
    ) -> Result<Value, EngineError> {
        let args: Vec<Value> = call
            .args
            .iter()
            .map(|a| self.resolve_arg(a, event_value, dx, dy))
            .collect();
        let mut span = self
            .obs
            .child_dyn(self.trace_root, || format!("invoke:{}", call.method));
        let _in_invoke = span.enter();
        span.set_with("service", || call.service.clone());
        self.invoke_placed(&call.service, &call.method, &args)
    }

    /// Placement-aware invocation routing. The local registry resolves
    /// first — it holds the proxy (plain or smart) for every fetched
    /// interface plus anything genuinely local. An interface with no
    /// local provider that the descriptor *declares* (the main service
    /// or a listed dependency) is target-placed, so the call goes out as
    /// a proxy-less remote invocation — this is what lets a logic tier
    /// run on either side of the wire and move between them mid-session
    /// without the controller program knowing.
    fn invoke_placed(
        &self,
        service: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, EngineError> {
        if let Some(svc) = self.framework.registry().get_service(service) {
            return Ok(svc.invoke(method, args)?);
        }
        if !self.declares_interface(service) {
            return Err(EngineError::Call(ServiceCallError::ServiceGone));
        }
        self.endpoint
            .invoke(service, method, args)
            .map_err(|e| match e {
                // Keep call-level failures as `Call` so the overload
                // degrade path in `handle_event` sees them.
                RosgiError::Call(c) => EngineError::Call(c),
                other => EngineError::Rosgi(other),
            })
    }

    /// Whether the descriptor names `interface` (main service or a
    /// declared dependency) — the set of interfaces remote routing may
    /// fall back to.
    fn declares_interface(&self, interface: &str) -> bool {
        interface == self.descriptor.service
            || self
                .descriptor
                .dependencies
                .iter()
                .any(|d| d.interface == interface)
    }

    fn resolve_arg(&self, source: &ArgSource, event_value: &Value, dx: i64, dy: i64) -> Value {
        match source {
            ArgSource::Const(v) => v.clone(),
            ArgSource::EventValue => event_value.clone(),
            ArgSource::EventDx => Value::I64(dx),
            ArgSource::EventDy => Value::I64(dy),
            ArgSource::State { control } => self
                .state
                .lock()
                .get(control)
                .cloned()
                .unwrap_or(Value::Unit),
            ArgSource::SelectedItem { control } => {
                let state = self.state.lock();
                let selected = state.selected(control);
                let items = state.items(control);
                match (selected, items) {
                    (Some(i), Some(items)) if i < items.len() => Value::from(items[i].as_str()),
                    _ => Value::Unit,
                }
            }
        }
    }

    fn bind_value(&self, bind: &Binding, value: Value) {
        let mut state = self.state.lock();
        match &bind.slot {
            Some(slot) => state.set_slot(&bind.control, slot, value),
            None => state.set(&bind.control, value),
        }
    }
}

/// The control id a UI-sourced trigger targets, if any.
fn ui_trigger_control(trigger: &Trigger) -> Option<&str> {
    match trigger {
        Trigger::UiClick { control }
        | Trigger::UiSelected { control }
        | Trigger::UiText { control }
        | Trigger::UiSlider { control }
        | Trigger::UiPointer { control } => Some(control),
        Trigger::RemoteEvent { .. } | Trigger::Poll { .. } => None,
    }
}

impl Drop for AlfredOSession {
    fn drop(&mut self) {
        self.close();
    }
}

impl fmt::Debug for AlfredOSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlfredOSession")
            .field("service", &self.descriptor.service)
            .field("assignment", &*self.assignment.lock())
            .field("closed", &self.is_closed())
            .finish()
    }
}
