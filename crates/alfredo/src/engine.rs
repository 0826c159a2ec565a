//! The AlfredOEngine: the phone-side runtime and the target-device host.
//!
//! The engine drives the full interaction of §3.2: discover (or be
//! invited by) a target device, connect and exchange leases, pick a
//! service, lease its presentation tier (interface + descriptor), let the
//! distribution policy decide the tier assignment, optionally pull
//! offloadable logic-tier components, generate the View (renderer) and the
//! Controller (rule interpreter), and hand back a live
//! [`AlfredOSession`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alfredo_journal::{Journal, JournalConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr, Transport, TransportError};
use alfredo_obs::{Obs, Span};
use alfredo_osgi::Json;
use alfredo_osgi::{CodeRegistry, Framework, Properties, Service, ServiceCallError, Value};
use alfredo_rosgi::endpoint::{
    decode_type_descriptors, PROP_DESCRIPTOR, PROP_INJECTED_TYPES, PROP_SMART_PROXY_KEY,
    PROP_SMART_PROXY_METHODS,
};
use alfredo_rosgi::{
    BreakerConfig, DiscoveryDirectory, EndpointConfig, FetchedService, HeartbeatConfig,
    ReconnectConfig, ReconnectFn, RemoteEndpoint, RemoteServiceInfo, RetryBudgetConfig,
    RetryPolicy, RosgiError, ServeQueue, ServiceParts, ServiceUrl, SmartProxySpec,
    PROP_TIER_DIGEST,
};
use alfredo_ui::render::select_renderer;
use alfredo_ui::{DeviceCapabilities, UiError, UiState};

use crate::cache::{TierCache, DEFAULT_TIER_CACHE_BYTES};
use crate::descriptor::{DescriptorError, ServiceDescriptor};
use crate::policy::{ClientContext, DistributionPolicy, ThinClientPolicy};
use crate::room::{LeaseTick, RoomHub};
use crate::security::{SecurityError, SecurityPolicy};
use crate::session::AlfredOSession;
use crate::tier::Placement;

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// The remote-service layer failed.
    Rosgi(RosgiError),
    /// The shipped descriptor was missing or malformed.
    Descriptor(DescriptorError),
    /// The target service shipped no descriptor at all.
    MissingDescriptor(String),
    /// The UI could not be rendered on this device.
    Ui(UiError),
    /// The security policy refused the interaction.
    Security(SecurityError),
    /// A service invocation failed.
    Call(ServiceCallError),
    /// The session journal could not be opened.
    Journal(String),
    /// A served device's accept thread could not be started.
    Spawn(String),
    /// A live tier migration could not run to completion; the message
    /// says which phase refused (see
    /// [`AlfredOSession::migrate_component`]).
    Migration(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rosgi(e) => write!(f, "remote service error: {e}"),
            EngineError::Descriptor(e) => write!(f, "descriptor error: {e}"),
            EngineError::MissingDescriptor(s) => {
                write!(f, "service {s} shipped no AlfredO descriptor")
            }
            EngineError::Ui(e) => write!(f, "ui error: {e}"),
            EngineError::Security(e) => write!(f, "security policy violation: {e}"),
            EngineError::Call(e) => write!(f, "service call failed: {e}"),
            EngineError::Journal(e) => write!(f, "session journal error: {e}"),
            EngineError::Spawn(e) => write!(f, "could not spawn {e}"),
            EngineError::Migration(e) => write!(f, "tier migration failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RosgiError> for EngineError {
    fn from(e: RosgiError) -> Self {
        EngineError::Rosgi(e)
    }
}

impl From<DescriptorError> for EngineError {
    fn from(e: DescriptorError) -> Self {
        EngineError::Descriptor(e)
    }
}

impl From<UiError> for EngineError {
    fn from(e: UiError) -> Self {
        EngineError::Ui(e)
    }
}

impl From<SecurityError> for EngineError {
    fn from(e: SecurityError) -> Self {
        EngineError::Security(e)
    }
}

impl From<ServiceCallError> for EngineError {
    fn from(e: ServiceCallError) -> Self {
        EngineError::Call(e)
    }
}

/// What a session does with UI events aimed at remote-bound controls
/// while the link is degraded or down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutagePolicy {
    /// Queue the events and replay them, in order, once the endpoint is
    /// healthy again (see [`AlfredOSession::replay_pending`]).
    #[default]
    Replay,
    /// Drop the events; the user must repeat the interaction.
    Discard,
}

impl fmt::Display for OutagePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutagePolicy::Replay => "replay",
            OutagePolicy::Discard => "discard",
        })
    }
}

/// Self-healing knobs for engine-established connections.
///
/// When set on [`EngineConfig::resilience`], every endpoint the engine
/// establishes runs a background heartbeat, stamps leases with a TTL,
/// retries idempotent-marked calls, and — for [`AlfredOEngine::connect`],
/// where the engine knows how to redial — reconnects and re-binds the
/// surviving proxies after an outage.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Background heartbeat (probe cadence and miss thresholds).
    pub heartbeat: HeartbeatConfig,
    /// Lease TTL; entries unrefreshed past it are purged together with
    /// their proxies. `None` keeps leases valid until revoked.
    pub lease_ttl: Option<Duration>,
    /// Retry policy for idempotent-marked remote calls.
    pub retry: RetryPolicy,
    /// Reconnection attempts after the wire drops.
    pub reconnect_attempts: u32,
    /// Backoff before the first reconnection attempt (doubles per try).
    pub reconnect_backoff: Duration,
    /// What sessions do with remote-bound UI events during an outage.
    pub outage_policy: OutagePolicy,
    /// Circuit breaker on the invoke path: after the configured number of
    /// consecutive wire-level failures the endpoint fast-fails locally
    /// until a heartbeat probe succeeds. The default (threshold 0)
    /// disables it.
    pub breaker: BreakerConfig,
    /// Token bucket bounding total retry volume across all calls. The
    /// default (0 tokens) disables it — retries are then limited only by
    /// the per-call [`RetryPolicy`].
    pub retry_budget: RetryBudgetConfig,
    /// Stamp each invocation's remaining time budget on the wire so the
    /// device sheds calls whose deadline expired before execution. Off by
    /// default (the wire format stays byte-identical).
    pub propagate_deadline: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            heartbeat: HeartbeatConfig::default(),
            lease_ttl: None,
            retry: RetryPolicy::retries(3),
            reconnect_attempts: 8,
            reconnect_backoff: Duration::from_millis(50),
            outage_policy: OutagePolicy::Replay,
            breaker: BreakerConfig::default(),
            retry_budget: RetryBudgetConfig::default(),
            propagate_deadline: false,
        }
    }
}

/// Phone-side engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// The phone's network name.
    pub device_name: String,
    /// The phone's input/output capabilities (drives rendering).
    pub capabilities: DeviceCapabilities,
    /// The phone's execution context (drives tier distribution).
    pub context: ClientContext,
    /// The sandbox policy.
    pub security: SecurityPolicy,
    /// Factories for smart-proxy local halves (trusted mode).
    pub code_registry: CodeRegistry,
    /// Remote invocation timeout.
    pub invoke_timeout: Duration,
    /// Self-healing configuration; `None` (the default) keeps the legacy
    /// fail-fast behaviour.
    pub resilience: Option<ResilienceConfig>,
    /// Byte budget for the phone's content-addressed tier-artifact cache
    /// ([`TierCache`]); `0` disables caching entirely.
    pub tier_cache_bytes: usize,
    /// Observability handle. The default ([`Obs::disabled`]) keeps every
    /// span a no-op branch; when recording, each connection becomes one
    /// `interaction` span and every phase, RPC and reconnect nests under
    /// it — including device-side serve spans, carried over the wire.
    pub obs: Obs,
    /// Session journaling. When set, the engine opens one
    /// [`Journal`] and appends a `session`
    /// stream record for every connection, lease acquisition, UI event
    /// (with its outcomes), and imperative invoke — the durable timeline
    /// [`crate::replay`] re-drives. `None` (the default) journals
    /// nothing.
    pub journal: Option<JournalConfig>,
}

impl EngineConfig {
    /// A phone in an untrusted environment with the given capabilities.
    pub fn phone(device_name: impl Into<String>, capabilities: DeviceCapabilities) -> Self {
        EngineConfig {
            device_name: device_name.into(),
            capabilities,
            context: ClientContext::untrusted_phone(),
            security: SecurityPolicy::sandbox(),
            code_registry: CodeRegistry::new(),
            invoke_timeout: Duration::from_secs(5),
            resilience: None,
            tier_cache_bytes: DEFAULT_TIER_CACHE_BYTES,
            obs: Obs::disabled(),
            journal: None,
        }
    }

    /// Builder-style: journals the session timeline into `journal`.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Builder-style: enables self-healing connections.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Builder-style: installs an observability handle (tracer + metrics).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Builder-style: marks the environment trusted and provides the code
    /// registry for smart proxies.
    pub fn trusted(mut self, code_registry: CodeRegistry) -> Self {
        self.context = ClientContext {
            trust: crate::security::TrustLevel::Trusted,
            ..self.context
        };
        self.code_registry = code_registry;
        self
    }

    /// Builder-style: overrides the client context.
    pub fn with_context(mut self, context: ClientContext) -> Self {
        self.context = context;
        self
    }

    /// Builder-style: overrides the tier-cache byte budget (`0` disables
    /// caching).
    pub fn with_tier_cache_bytes(mut self, bytes: usize) -> Self {
        self.tier_cache_bytes = bytes;
        self
    }
}

impl fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineConfig")
            .field("device_name", &self.device_name)
            .field("device", &self.capabilities.device)
            .field("trust", &self.context.trust)
            .finish()
    }
}

/// The phone-side AlfredO runtime.
///
/// # Example
///
/// The complete phone-side flow: connect to a serving target device,
/// lease a service (the presentation tier ships as a stateless
/// descriptor), invoke it through the generated proxy, tear down.
///
/// ```
/// # use std::sync::Arc;
/// # use alfredo_core::*;
/// # use alfredo_net::{InMemoryNetwork, PeerAddr};
/// # use alfredo_osgi::{FnService, Framework, MethodSpec, Properties, ServiceInterfaceDesc,
/// #                    TypeHint, Value};
/// # use alfredo_rosgi::DiscoveryDirectory;
/// # use alfredo_ui::{Control, DeviceCapabilities, UiDescription};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let net = InMemoryNetwork::new();
/// # let device_fw = Framework::new();
/// # let greeter = Arc::new(
/// #     FnService::new(|_, _| Ok(Value::from("hello"))).with_description(
/// #         ServiceInterfaceDesc::new(
/// #             "demo.Greeter",
/// #             vec![MethodSpec::new("greet", vec![], TypeHint::Str, "Greets.")],
/// #         ),
/// #     ),
/// # );
/// # let descriptor = ServiceDescriptor::new(
/// #     "demo.Greeter",
/// #     UiDescription::new("greeter").with_control(Control::button("hello", "Say hello")),
/// # );
/// # host_service(&device_fw, "demo.Greeter", greeter, &descriptor, None, Properties::new())?;
/// # let device = Device::new(device_fw).serve(&net, PeerAddr::new("screen"))?;
/// let engine = AlfredOEngine::new(
///     Framework::new(),
///     net,
///     DiscoveryDirectory::new(),
///     EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
/// );
/// let conn = engine.connect(&PeerAddr::new("screen"))?;
/// let session = conn.acquire("demo.Greeter")?;
/// let reply = session.invoke("demo.Greeter", "greet", &[])?;
/// assert_eq!(reply.as_str(), Some("hello"));
/// session.close();
/// conn.close();
/// # device.stop();
/// # Ok(()) }
/// ```
pub struct AlfredOEngine {
    framework: Framework,
    network: InMemoryNetwork,
    discovery: DiscoveryDirectory,
    config: EngineConfig,
    policy: Arc<dyn DistributionPolicy>,
    /// One content-addressed artifact cache per phone, shared by every
    /// connection the engine establishes.
    tier_cache: TierCache,
    /// The session journal, opened eagerly from [`EngineConfig::journal`];
    /// an open failure is kept and surfaced on the first connect.
    journal: Option<Result<Journal, String>>,
}

impl AlfredOEngine {
    /// Creates an engine with the default [`ThinClientPolicy`].
    pub fn new(
        framework: Framework,
        network: InMemoryNetwork,
        discovery: DiscoveryDirectory,
        config: EngineConfig,
    ) -> Self {
        let tier_cache = TierCache::new(config.tier_cache_bytes, &config.obs);
        let journal = config
            .journal
            .clone()
            .map(|cfg| Journal::open(cfg).map_err(|e| e.to_string()));
        AlfredOEngine {
            framework,
            network,
            discovery,
            config,
            policy: Arc::new(ThinClientPolicy),
            tier_cache,
            journal,
        }
    }

    /// The engine's session journal, when configured and healthy.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref().and_then(|r| r.as_ref().ok())
    }

    /// The phone's tier-artifact cache (hit/miss/eviction accounting).
    ///
    /// The cache is content-addressed: the device advertises a digest of
    /// the artifacts a fetch would ship, and a repeat [`acquire`]
    /// (see [`AlfredOConnection::acquire`]) whose digest matches installs
    /// from the cache — zero tier bytes cross the wire.
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use alfredo_core::*;
    /// # use alfredo_net::{InMemoryNetwork, PeerAddr};
    /// # use alfredo_osgi::{FnService, Framework, MethodSpec, Properties, ServiceInterfaceDesc,
    /// #                    TypeHint, Value};
    /// # use alfredo_rosgi::DiscoveryDirectory;
    /// # use alfredo_ui::{Control, DeviceCapabilities, UiDescription};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let net = InMemoryNetwork::new();
    /// # let device_fw = Framework::new();
    /// # let greeter = Arc::new(
    /// #     FnService::new(|_, _| Ok(Value::from("hello"))).with_description(
    /// #         ServiceInterfaceDesc::new(
    /// #             "demo.Greeter",
    /// #             vec![MethodSpec::new("greet", vec![], TypeHint::Str, "Greets.")],
    /// #         ),
    /// #     ),
    /// # );
    /// # let descriptor = ServiceDescriptor::new(
    /// #     "demo.Greeter",
    /// #     UiDescription::new("greeter").with_control(Control::button("hello", "Say hello")),
    /// # );
    /// # host_service(&device_fw, "demo.Greeter", greeter, &descriptor, None, Properties::new())?;
    /// # let device = Device::new(device_fw).serve(&net, PeerAddr::new("screen"))?;
    /// # let engine = AlfredOEngine::new(
    /// #     Framework::new(),
    /// #     net,
    /// #     DiscoveryDirectory::new(),
    /// #     EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
    /// # );
    /// // First interaction: cold, the tier artifacts cross the wire.
    /// let conn = engine.connect(&PeerAddr::new("screen"))?;
    /// let session = conn.acquire("demo.Greeter")?;
    /// assert!(session.transferred_bytes() > 0);
    /// session.close();
    /// conn.close();
    ///
    /// // Repeat interaction: same digest, served from the cache.
    /// let conn = engine.connect(&PeerAddr::new("screen"))?;
    /// let session = conn.acquire("demo.Greeter")?;
    /// assert_eq!(session.transferred_bytes(), 0);
    /// assert_eq!(engine.tier_cache().stats().hits, 1);
    /// session.close();
    /// conn.close();
    /// # device.stop();
    /// # Ok(()) }
    /// ```
    ///
    /// [`acquire`]: AlfredOConnection::acquire
    pub fn tier_cache(&self) -> &TierCache {
        &self.tier_cache
    }

    /// Builder-style: replaces the distribution policy.
    pub fn with_policy(mut self, policy: impl DistributionPolicy + 'static) -> Self {
        self.policy = Arc::new(policy);
        self
    }

    /// The phone's framework.
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Discovers target devices advertising `service_type` (SLP-style).
    pub fn discover(&self, service_type: &str, now: u64) -> Vec<ServiceUrl> {
        self.discovery.find(service_type, now)
    }

    /// All advertised devices (the "information about new devices" shown
    /// to the user).
    pub fn nearby_devices(&self, now: u64) -> Vec<ServiceUrl> {
        self.discovery.all(now)
    }

    /// Connects to a target device.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Rosgi`] on connection or handshake failure.
    pub fn connect(&self, target: &PeerAddr) -> Result<AlfredOConnection, EngineError> {
        let me = PeerAddr::new(self.config.device_name.clone());
        let transport = self
            .network
            .connect(me.clone(), target.clone())
            .map_err(RosgiError::Transport)?;
        // The engine knows how to redial an in-memory peer, so resilient
        // configurations get automatic reconnection for free.
        let network = self.network.clone();
        let target = target.clone();
        let dial: ReconnectFn = Arc::new(move || {
            network
                .connect(me.clone(), target.clone())
                .map(|t| Box::new(t) as Box<dyn Transport>)
        });
        self.connect_with(Box::new(transport), Some(dial))
    }

    /// Connects over an already-established transport (any medium). No
    /// automatic reconnection: the engine cannot redial an arbitrary
    /// medium — use [`AlfredOEngine::connect_transport_with_redial`] to
    /// supply one.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Rosgi`] on handshake failure.
    pub fn connect_transport(
        &self,
        transport: Box<dyn Transport>,
    ) -> Result<AlfredOConnection, EngineError> {
        self.connect_with(transport, None)
    }

    /// Connects over an already-established transport together with a
    /// redial function used for automatic reconnection when
    /// [`EngineConfig::resilience`] is set.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Rosgi`] on handshake failure.
    pub fn connect_transport_with_redial(
        &self,
        transport: Box<dyn Transport>,
        dial: ReconnectFn,
    ) -> Result<AlfredOConnection, EngineError> {
        self.connect_with(transport, Some(dial))
    }

    fn connect_with(
        &self,
        transport: Box<dyn Transport>,
        dial: Option<ReconnectFn>,
    ) -> Result<AlfredOConnection, EngineError> {
        // A configured-but-broken journal must fail loudly, not record a
        // partial timeline.
        let journal = match &self.journal {
            Some(Ok(j)) => Some(j.clone()),
            Some(Err(e)) => return Err(EngineError::Journal(e.clone())),
            None => None,
        };
        // The whole connection is one `interaction` span: entering it here
        // makes the endpoint's handshake span (and, via the endpoint's
        // establish-time capture, later reconnect spans) its children.
        let mut root = self.config.obs.span("interaction");
        root.set_with("device", || self.config.device_name.clone());
        let mut ep_config = EndpointConfig::named(self.config.device_name.clone())
            .with_invoke_timeout(self.config.invoke_timeout)
            .with_obs(self.config.obs.clone());
        if self
            .config
            .security
            .permits_smart_proxies(self.config.context.trust)
        {
            ep_config = ep_config.with_smart_proxies(self.config.code_registry.clone());
        }
        if let Some(res) = &self.config.resilience {
            ep_config = ep_config
                .with_heartbeat(res.heartbeat)
                .with_retry(res.retry)
                .with_breaker(res.breaker)
                .with_retry_budget(res.retry_budget);
            if res.propagate_deadline {
                ep_config = ep_config.with_deadline_propagation();
            }
            if let Some(ttl) = res.lease_ttl {
                ep_config = ep_config.with_lease_ttl(ttl);
            }
            if let Some(dial) = dial {
                let mut reconnect = ReconnectConfig::new(dial);
                reconnect.max_attempts = res.reconnect_attempts;
                reconnect.initial_backoff = res.reconnect_backoff;
                ep_config = ep_config.with_reconnect(reconnect);
            }
        }
        let endpoint = {
            let _in_interaction = root.enter();
            match RemoteEndpoint::establish(transport, self.framework.clone(), ep_config) {
                Ok(ep) => ep,
                Err(e) => {
                    root.set("outcome", "error");
                    return Err(e.into());
                }
            }
        };
        if let Some(journal) = &journal {
            let peer = endpoint.remote_peer();
            journal.append_with("session", "connect", |out| {
                out.push_str("{\"peer\":");
                Json::write_str_to(peer.as_str(), out);
                out.push('}');
            });
        }
        Ok(AlfredOConnection {
            endpoint: Arc::new(endpoint),
            framework: self.framework.clone(),
            config: self.config.clone(),
            policy: Arc::clone(&self.policy),
            tier_cache: self.tier_cache.clone(),
            span: root,
            journal,
        })
    }
}

impl fmt::Debug for AlfredOEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlfredOEngine")
            .field("device", &self.config.device_name)
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// A live connection from the phone to one target device.
pub struct AlfredOConnection {
    endpoint: Arc<RemoteEndpoint>,
    framework: Framework,
    config: EngineConfig,
    policy: Arc<dyn DistributionPolicy>,
    tier_cache: TierCache,
    /// The connection-lifetime `interaction` span; recorded when the
    /// connection is dropped, parent of every phase underneath.
    span: Span,
    /// The engine's session journal, shared by every session this
    /// connection acquires.
    journal: Option<Journal>,
}

impl AlfredOConnection {
    /// The services the target device offers (from the symmetric lease).
    pub fn available_services(&self) -> Vec<RemoteServiceInfo> {
        self.endpoint.remote_services()
    }

    /// Raw access to the underlying endpoint.
    pub fn endpoint(&self) -> &RemoteEndpoint {
        &self.endpoint
    }

    /// A shared handle to the underlying endpoint (for components that
    /// outlive a borrow, e.g. [`crate::DataReplica`]).
    pub fn endpoint_handle(&self) -> Arc<RemoteEndpoint> {
        Arc::clone(&self.endpoint)
    }

    /// Leases `interface` and turns the phone into its tailored client:
    /// fetches interface + descriptor, lets the policy place the tiers,
    /// pulls offloaded logic components, renders the UI, and builds the
    /// controller. This is the paper's "a phone is capable of turning in
    /// a fully operational client of a target service provider in a few
    /// seconds" path, end to end.
    ///
    /// # Example
    ///
    /// Lease a greeter, inspect the self-rendered UI, and press its
    /// button — the declarative controller invokes the remote method and
    /// binds the result into the label:
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use alfredo_core::*;
    /// # use alfredo_net::{InMemoryNetwork, PeerAddr};
    /// # use alfredo_osgi::{FnService, Framework, MethodSpec, Properties, ServiceInterfaceDesc,
    /// #                    TypeHint, Value};
    /// # use alfredo_rosgi::DiscoveryDirectory;
    /// # use alfredo_ui::{Control, DeviceCapabilities, UiDescription, UiEvent};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let net = InMemoryNetwork::new();
    /// # let device_fw = Framework::new();
    /// # let greeter = Arc::new(
    /// #     FnService::new(|_, _| Ok(Value::from("hello"))).with_description(
    /// #         ServiceInterfaceDesc::new(
    /// #             "demo.Greeter",
    /// #             vec![MethodSpec::new("greet", vec![], TypeHint::Str, "Greets.")],
    /// #         ),
    /// #     ),
    /// # );
    /// # let descriptor = ServiceDescriptor::new(
    /// #     "demo.Greeter",
    /// #     UiDescription::new("greeter")
    /// #         .with_control(Control::label("message", "--"))
    /// #         .with_control(Control::button("hello", "Say hello")),
    /// # )
    /// # .with_controller(ControllerProgram::new(vec![Rule::on_click(
    /// #     "hello",
    /// #     MethodCall::new("demo.Greeter", "greet", vec![]),
    /// #     Some(Binding::to("message")),
    /// # )]));
    /// # host_service(&device_fw, "demo.Greeter", greeter, &descriptor, None, Properties::new())?;
    /// # let device = Device::new(device_fw).serve(&net, PeerAddr::new("screen"))?;
    /// # let engine = AlfredOEngine::new(
    /// #     Framework::new(),
    /// #     net,
    /// #     DiscoveryDirectory::new(),
    /// #     EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
    /// # );
    /// let conn = engine.connect(&PeerAddr::new("screen"))?;
    /// let session = conn.acquire("demo.Greeter")?;
    /// println!("{}", session.rendered().as_text());
    /// session.handle_event(&UiEvent::Click { control: "hello".into() })?;
    /// let label = session.with_state(|s| s.text("message").map(str::to_owned));
    /// assert_eq!(label.as_deref(), Some("hello"));
    /// session.close();
    /// conn.close();
    /// # device.stop();
    /// # Ok(()) }
    /// ```
    ///
    /// # Errors
    ///
    /// Any of the [`EngineError`] variants, depending on the failing
    /// stage.
    pub fn acquire(&self, interface: &str) -> Result<AlfredOSession, EngineError> {
        let obs = &self.config.obs;
        let root_ctx = self.span.ctx();

        // 1. Presentation tier: interface + descriptor. The lease phase
        // span is entered so the endpoint's `fetch:*` span (and the
        // device-side serve span, via the wire context) nest under it.
        let fetched = {
            let mut span = obs.child_of(root_ctx, "lease");
            let _in_phase = span.enter();
            span.set_with("interface", || interface.to_owned());
            self.fetch_via_cache(interface, &mut span)?
        };
        let descriptor_bytes = fetched
            .descriptor
            .as_deref()
            .ok_or_else(|| EngineError::MissingDescriptor(interface.to_owned()))?;
        let descriptor = ServiceDescriptor::decode(descriptor_bytes)?;
        descriptor.validate()?;

        // 2. Security: the main fetch may only carry code if trusted.
        self.config.security.admit_artifact(
            fetched.smart,
            self.config.context.trust,
            &self.endpoint.remote_peer(),
        )?;

        // 3. Tier distribution: pull every client-placed logic component.
        let assignment = self.policy.decide(&descriptor, &self.config.context);
        let mut fetched_interfaces = vec![interface.to_owned()];
        {
            let mut span = obs.child_of(root_ctx, "tier_transfer");
            let _in_phase = span.enter();
            let mut moved = 0u32;
            for (dep, placement) in assignment.logic() {
                if *placement == Placement::Client {
                    let dep_fetch = self.fetch_via_cache(dep, &mut span)?;
                    self.config.security.admit_artifact(
                        dep_fetch.smart,
                        self.config.context.trust,
                        &self.endpoint.remote_peer(),
                    )?;
                    fetched_interfaces.push(dep.clone());
                    moved += 1;
                }
            }
            span.set_with("components", || moved.to_string());
        }

        // 4. View: render for this device.
        let (rendered, state) = {
            let mut span = obs.child_of(root_ctx, "render");
            let renderer = select_renderer(&self.config.capabilities);
            let rendered = renderer.render(&descriptor.ui, &self.config.capabilities)?;
            span.set_with("renderer", || renderer.name().to_owned());
            (rendered, UiState::from_description(&descriptor.ui))
        };

        // 5. Controller: interpreted from the descriptor's rule program.
        if let Some(journal) = &self.journal {
            journal.append_with("session", "acquire", |out| {
                out.push_str("{\"interface\":");
                Json::write_str_to(interface, out);
                out.push('}');
            });
        }
        Ok(AlfredOSession::new(
            self.framework.clone(),
            Arc::clone(&self.endpoint),
            descriptor,
            assignment,
            rendered,
            self.config.capabilities.clone(),
            state,
            fetched_interfaces,
            fetched.transferred_bytes,
            fetched.proxy_footprint,
            self.config
                .resilience
                .as_ref()
                .map(|r| r.outage_policy)
                .unwrap_or_default(),
            obs.clone(),
            root_ctx,
            self.journal.clone(),
            self.tier_cache.clone(),
        ))
    }

    /// Fetches the tier artifacts for `interface`, going to the wire only
    /// on a cache miss. The lease's advertised [`PROP_TIER_DIGEST`] is
    /// the cache key: a hit installs the cached parts with zero transfer
    /// (`tier_transfer` collapses to this digest comparison); a miss — or
    /// a device that advertises no digest — pays the full fetch and
    /// populates the cache for the next interaction.
    fn fetch_via_cache(
        &self,
        interface: &str,
        span: &mut Span,
    ) -> Result<FetchedService, EngineError> {
        match self.advertised_digest(interface) {
            Some(digest) => {
                if let Some(parts) = self.tier_cache.get(digest) {
                    span.set("tier_cache", "hit");
                    return Ok(self.endpoint.install_cached_service(&parts)?);
                }
                span.set("tier_cache", "miss");
            }
            None => {
                self.tier_cache.note_miss();
                span.set("tier_cache", "no-digest");
            }
        }
        let (fetched, parts) = self.endpoint.fetch_service_with_parts(interface)?;
        self.tier_cache.insert(parts);
        Ok(fetched)
    }

    /// The content digest the device's live lease advertises for
    /// `interface`, if any.
    fn advertised_digest(&self, interface: &str) -> Option<u64> {
        self.endpoint
            .remote_services()
            .iter()
            .find(|s| s.offers(interface))
            .and_then(|s| {
                s.properties
                    .get(PROP_TIER_DIGEST)
                    .and_then(Value::as_str)
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            })
    }

    /// Closes the connection; all proxies are uninstalled.
    pub fn close(&self) {
        self.endpoint.close();
    }
}

impl fmt::Debug for AlfredOConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlfredOConnection")
            .field("remote", &self.endpoint.remote_peer())
            .field("closed", &self.endpoint.is_closed())
            .finish()
    }
}

/// Registers an AlfredO service on a target device's framework: the
/// service object plus its descriptor (and optional smart-proxy offer) as
/// registration properties that R-OSGi ships on fetch.
///
/// # Example
///
/// The complete target-device side — register, then serve until stopped:
///
/// ```
/// # use std::sync::Arc;
/// # use alfredo_core::*;
/// # use alfredo_net::{InMemoryNetwork, PeerAddr};
/// # use alfredo_osgi::{FnService, Framework, MethodSpec, Properties, ServiceInterfaceDesc,
/// #                    TypeHint, Value};
/// # use alfredo_ui::{Control, UiDescription};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let net = InMemoryNetwork::new();
/// let device_fw = Framework::new();
/// let greeter = Arc::new(
///     FnService::new(|_, _| Ok(Value::from("hello"))).with_description(
///         ServiceInterfaceDesc::new(
///             "demo.Greeter",
///             vec![MethodSpec::new("greet", vec![], TypeHint::Str, "Greets.")],
///         ),
///     ),
/// );
/// let descriptor = ServiceDescriptor::new(
///     "demo.Greeter",
///     UiDescription::new("greeter").with_control(Control::button("hello", "Say hello")),
/// );
/// host_service(&device_fw, "demo.Greeter", greeter, &descriptor, None, Properties::new())?;
/// let device = Device::new(device_fw).serve(&net, PeerAddr::new("screen"))?;
/// // ... phones connect and lease until:
/// device.stop();
/// # Ok(()) }
/// ```
///
/// # Errors
///
/// Returns the registration error if the interface list is empty.
pub fn host_service(
    framework: &Framework,
    interface: &str,
    service: Arc<dyn Service>,
    descriptor: &ServiceDescriptor,
    smart_proxy: Option<(&str, Vec<String>)>,
    extra_props: Properties,
) -> Result<alfredo_osgi::ServiceRegistration, alfredo_osgi::OsgiError> {
    let mut props = extra_props.with(PROP_DESCRIPTOR, descriptor.encode());
    if let Some((key, methods)) = smart_proxy {
        props.insert(PROP_SMART_PROXY_KEY, key);
        props.insert(
            PROP_SMART_PROXY_METHODS,
            alfredo_osgi::Value::List(methods.into_iter().map(alfredo_osgi::Value::Str).collect()),
        );
    }
    // Advertise the content digest of exactly the artifacts a fetch of
    // this registration would ship ([`ServiceParts`], built with the same
    // recipe the endpoint's bundle builder uses). Phones compare it
    // against their tier cache and skip the transfer on a match. Services
    // without a shippable interface description can't be fetched, so they
    // get no digest.
    if let Some(iface) = service.describe() {
        let parts = ServiceParts {
            interface: iface,
            injected_types: props
                .get(PROP_INJECTED_TYPES)
                .and_then(Value::as_bytes)
                .map(decode_type_descriptors)
                .unwrap_or_default(),
            smart_proxy: props.get_str(PROP_SMART_PROXY_KEY).map(|key| {
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
            }),
            descriptor: Some(descriptor.encode()),
        };
        props.insert(PROP_TIER_DIGEST, format!("{:016x}", parts.digest()));
    }
    framework
        .system_context()
        .register_service(&[interface], service, props)
}

/// A target device about to be served: its framework plus the four
/// things a device may be given — an observability handle, a serve
/// queue, a lease journal, a room hub — in any combination, on either
/// listener. One accept loop serves them all.
#[derive(Debug)]
pub struct Device {
    framework: Framework,
    /// What every accepted endpoint is configured with.
    config: EndpointConfig,
    hub: Option<Arc<RoomHub>>,
}

impl Device {
    /// A device serving the services registered on `framework`: every
    /// accepted connection gets a fresh endpoint over it.
    pub fn new(framework: Framework) -> Device {
        Device {
            framework,
            config: EndpointConfig::default(),
            hub: None,
        }
    }

    /// Every accepted endpoint records into `obs` (device-side serve
    /// spans then join the phone's trace via the wire trace context).
    /// Each endpoint still keeps its own metrics registry; only the
    /// tracer is shared.
    pub fn obs(mut self, obs: Obs) -> Device {
        self.config.obs = obs;
        self
    }

    /// Every accepted endpoint serves its invocations through `queue` —
    /// one bounded worker pool shared across all connected phones, with
    /// per-peer fairness and `Busy` backpressure (see [`ServeQueue`]).
    /// This is how one device scales to many phones; over TCP it also
    /// hops invocations off the reactor's poller threads. The queue is
    /// shut down by [`ServedDevice::stop`].
    pub fn queue(mut self, queue: ServeQueue) -> Device {
        self.config.serve_queue = Some(queue);
        self
    }

    /// Every accepted endpoint journals its lease lifecycle — handshakes,
    /// re-handshakes, service grants, goodbyes — into the device's
    /// durability directory. Pair with [`crate::DeviceJournal`]: register
    /// the data tier through [`crate::DeviceJournal::register_store`] and
    /// pass [`crate::DeviceJournal::lease_journal`] here, and the device
    /// can be killed and restarted on the same address with phones
    /// redialing into their recovered sessions.
    pub fn lease_journal(mut self, journal: Journal) -> Device {
        self.config.journal = Some(journal);
        self
    }

    /// The device hosts shared [`Room`](crate::Room) sessions through
    /// `hub` (register its service with [`crate::register_room_hub`] on
    /// the same framework first). Every accepted endpoint is rostered
    /// into the hub under its peer name, so a phone's `join` resolves to
    /// an event sink on its own wire, and runs the `heartbeat` health
    /// machine; [`RoomHub::tick`] runs every 50 ms on the shared timer
    /// wheel. Members whose endpoint stays `Healthy` have their room
    /// leases renewed; a partitioned phone's renewals stop the moment its
    /// health machine trips — lease-TTL eviction reusing the heartbeat
    /// machinery instead of a second failure detector.
    pub fn rooms(mut self, hub: Arc<RoomHub>, heartbeat: HeartbeatConfig) -> Device {
        self.config.heartbeat = Some(heartbeat);
        self.hub = Some(hub);
        self
    }

    /// Binds `addr` on `network` and serves until stopped.
    ///
    /// # Errors
    ///
    /// [`EngineError::Rosgi`] if the address is already bound,
    /// [`EngineError::Spawn`] if the accept thread could not be started.
    pub fn serve(
        self,
        network: &InMemoryNetwork,
        addr: PeerAddr,
    ) -> Result<ServedDevice, EngineError> {
        let door = Door::in_memory(network, &addr).map_err(RosgiError::Transport)?;
        let name = addr.as_str().to_owned();
        self.serve_on(door, addr, name, HANDSHAKE_TIMEOUT)
    }

    /// Serves on `listener` (a real TCP socket) until stopped. Every
    /// accepted endpoint rides the process-wide reactor, so a thousand
    /// connected phones still cost a fixed I/O core budget. Give the
    /// device a [`Device::queue`] when it serves more than a handful.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spawn`] if the accept thread could not be started.
    pub fn serve_tcp(
        self,
        listener: alfredo_net::TcpNetListener,
    ) -> Result<ServedTcpDevice, EngineError> {
        let addr = listener.local_addr();
        let door = Door::tcp(listener);
        self.serve_on(door, addr, format!("tcp://{addr}"), HANDSHAKE_TIMEOUT)
    }

    /// The one way a device comes up: starts the accept thread and the
    /// room lease cadence, and returns the handle that ends both. `name`
    /// is what the device's endpoints call themselves.
    fn serve_on<A>(
        mut self,
        door: Door,
        addr: A,
        name: String,
        handshake_timeout: Duration,
    ) -> Result<ServedDevice<A>, EngineError> {
        let shared = Arc::new(Shared {
            stopped: AtomicBool::new(false),
            endpoints: alfredo_sync::Mutex::new(Vec::new()),
        });
        let (queue, hub) = (self.config.serve_queue.clone(), self.hub.clone());
        let thread = std::thread::Builder::new().name(format!("alfredo-device-{name}"));
        self.config.peer_name = name;
        let accept_thread = {
            let shared = Arc::clone(&shared);
            thread
                .spawn(move || accept_loop(&*door.accept, &shared, self, handshake_timeout))
                .map_err(|e| EngineError::Spawn(format!("device accept thread: {e}")))?
        };
        Ok(ServedDevice {
            shared,
            accept_thread: Some(accept_thread),
            wake: door.wake,
            lease_tick: hub.map(LeaseTick::start),
            addr,
            queue,
        })
    }
}

/// Severs an accepted wire mid-handshake, from the reaper's thread.
type Kill = Box<dyn FnOnce() + Send>;
/// What a listener hands the accept loop: a phone's wire, and its killer.
type Accepted = (Box<dyn Transport>, Kill);

/// All that differs between listeners; the accept loop, the handshake
/// gate, the reaper and the roster are written once on top of it.
struct Door {
    /// Blocks until a phone connects.
    accept: Box<dyn Fn() -> std::io::Result<Accepted> + Send>,
    /// Makes a blocked `accept` return, from the stopping thread. Both
    /// listeners do it with a throwaway connection to themselves.
    wake: Box<dyn Fn() + Send + Sync>,
}

impl Door {
    fn in_memory(network: &InMemoryNetwork, addr: &PeerAddr) -> Result<Door, TransportError> {
        let listener = network.bind(addr.clone())?;
        let (network, addr) = (network.clone(), addr.clone());
        Ok(Door {
            accept: Box::new(move || {
                let wire = listener.accept().map_err(std::io::Error::other)?;
                let kill = Box::new(wire.closer());
                Ok((Box::new(wire) as Box<dyn Transport>, kill as Kill))
            }),
            wake: Box::new(move || drop(network.connect(addr.clone(), addr.clone()))),
        })
    }

    fn tcp(listener: alfredo_net::TcpNetListener) -> Door {
        let addr = listener.local_addr();
        Door {
            accept: Box::new(move || {
                let stream = listener.accept_stream()?;
                // A raw clone of the socket stays behind for the reaper:
                // shutting it down fails the handshake thread's read.
                let raw = stream.try_clone()?;
                let wire = alfredo_net::TcpTransport::from_stream(stream)?;
                let kill = Box::new(move || drop(raw.shutdown(std::net::Shutdown::Both)));
                Ok((Box::new(wire) as Box<dyn Transport>, kill as Kill))
            }),
            wake: Box::new(move || drop(std::net::TcpStream::connect(addr))),
        }
    }
}

/// What a served device's handle, accept thread and handshake threads
/// share.
struct Shared {
    stopped: AtomicBool,
    /// The roster: every endpoint that completed its handshake and has
    /// not been seen closed since.
    endpoints: alfredo_sync::Mutex<Vec<Arc<RemoteEndpoint>>>,
}

/// Most handshake threads a device runs at once. Handshakes finish in a
/// round-trip, so a small pool absorbs any realistic arrival burst; when
/// every permit is taken the accept loop parks and newly arriving
/// connections wait in the listener's accept queue instead of each
/// costing a thread.
const HANDSHAKE_THREAD_CAP: usize = 8;

/// How long an accepted connection may sit without completing its
/// handshake before the device reaps it (closes the wire). Bounds the
/// damage of slowloris-style clients that connect and then stall: each
/// holds a handshake permit for at most this long.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the accept loop waits before it retries after an accept
/// error that the failed connection does not explain.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// How long to pause before the next accept after it failed with `err`.
/// No error ends the accept loop — only shutdown does: one `EMFILE` must
/// not cost the device its listener for good.
///
/// * The error belongs to the connection that was being accepted (the
///   peer reset or aborted it while it sat in the accept queue, or a
///   signal interrupted the call): the next one is unaffected, retry now.
/// * Anything else — above all descriptor or memory exhaustion (`EMFILE`,
///   `ENFILE`, `ENOBUFS`, `ENOMEM`), which lasts until some connection
///   closes — would fail again at once: pause first, so the loop neither
///   spins nor starves the threads that would free the resource.
fn accept_retry_pause(err: &std::io::Error) -> Duration {
    use std::io::ErrorKind;
    match err.kind() {
        ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset | ErrorKind::Interrupted => {
            Duration::ZERO
        }
        _ => ACCEPT_RETRY_PAUSE,
    }
}

/// A counting semaphore bounding concurrent handshake threads. Plain
/// mutex + condvar: handshakes are rare and millisecond-scale, so permit
/// churn is nowhere near a contention concern.
struct HandshakeGate {
    in_flight: alfredo_sync::Mutex<usize>,
    cv: alfredo_sync::Condvar,
    cap: usize,
}

impl HandshakeGate {
    fn new(cap: usize) -> Arc<HandshakeGate> {
        Arc::new(HandshakeGate {
            in_flight: alfredo_sync::Mutex::new(0),
            cv: alfredo_sync::Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Blocks until a permit is free; `None` if `abort` was set while
    /// waiting (device shutdown) so the accept loop can exit even when
    /// every permit is pinned by a stalled handshake.
    fn acquire(self: &Arc<Self>, abort: &AtomicBool) -> Option<HandshakePermit> {
        let mut held = self.in_flight.lock();
        while *held >= self.cap {
            if abort.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout(held, Duration::from_millis(50));
            held = guard;
        }
        *held += 1;
        Some(HandshakePermit(Arc::clone(self)))
    }
}

/// One handshake's place in the pool, given back on drop — also when the
/// handshake thread could not be spawned and the closure owning the
/// permit is dropped unrun.
struct HandshakePermit(Arc<HandshakeGate>);

impl Drop for HandshakePermit {
    fn drop(&mut self) {
        *self.0.in_flight.lock() -= 1;
        self.0.cv.notify_one();
    }
}

/// The accept loop, the same for every listener and every combination of
/// options. Handshakes run on a short-lived thread per accepted
/// connection, so concurrently arriving phones do not serialize behind
/// each other's round-trips and a stalled client never delays the loop;
/// the gate bounds those threads and the reaper (a timer on the shared
/// wheel, counted as `net.handshake_reaped`) bounds how long each may
/// take. Once its handshake thread exits, a connection costs the device
/// no thread at all.
fn accept_loop(
    accept: &dyn Fn() -> std::io::Result<Accepted>,
    shared: &Arc<Shared>,
    device: Device,
    handshake_timeout: Duration,
) {
    let gate = HandshakeGate::new(HANDSHAKE_THREAD_CAP);
    let wheel = alfredo_net::Reactor::global().timer();
    let reaped = alfredo_obs::global_metrics().counter("net.handshake_reaped");
    while !shared.stopped.load(Ordering::SeqCst) {
        let (wire, kill) = match accept() {
            Ok(accepted) => accepted,
            Err(err) => {
                std::thread::sleep(accept_retry_pause(&err));
                continue;
            }
        };
        if shared.stopped.load(Ordering::SeqCst) {
            break; // the wake-up connection
        }
        let Some(permit) = gate.acquire(&shared.stopped) else {
            break;
        };
        let reaped = reaped.clone();
        // If the handshake has not finished when the timer fires, killing
        // the wire unblocks its thread with an error.
        let reap = Box::new(move || {
            kill();
            reaped.inc();
        });
        let reap_key = wheel.schedule(handshake_timeout, reap);
        let (framework, config) = (device.framework.clone(), device.config.clone());
        let (shared, hub) = (Arc::clone(shared), device.hub.clone());
        let handshake = move || {
            let established = RemoteEndpoint::establish(wire, framework, config);
            // Exactly one side gets the connection: a timer that can still
            // be cancelled never fires, one that cannot has fired.
            let lost_to_reaper = !wheel.cancel(reap_key);
            drop(permit);
            let Ok(endpoint) = established else { return };
            let endpoint = Arc::new(endpoint);
            let mut roster = shared.endpoints.lock();
            // Torn down, not rostered: an endpoint whose wire the reaper
            // killed just as the handshake finished, and a straggler past
            // stop(). The flag is checked under the roster lock — stop()
            // sets it *before* taking this lock to drain, so either the
            // push lands before the drain or we see the flag here.
            if lost_to_reaper || shared.stopped.load(Ordering::SeqCst) {
                drop(roster);
                endpoint.close();
                return;
            }
            if let Some(hub) = &hub {
                hub.register_endpoint(Arc::clone(&endpoint));
            }
            roster.retain(|ep| !ep.is_closed());
            roster.push(endpoint);
        };
        // A failed spawn (thread exhaustion) must not take the device
        // down: it drops the closure unrun, which closes the wire and
        // gives the permit back; disarm the reaper and go on accepting.
        let thread = std::thread::Builder::new().name("alfredo-handshake".into());
        if thread.spawn(handshake).is_err() {
            wheel.cancel(reap_key);
        }
    }
}

/// A running target device: accepts connections until stopped. `A` is the
/// listener's address — [`PeerAddr`] on the in-memory fabric,
/// [`SocketAddr`](std::net::SocketAddr) over TCP. The accept loop is the
/// only thread the device owns. Dropping the handle stops the device as
/// [`ServedDevice::stop`] does, short of waiting for that thread and of
/// shutting the serve queue down.
pub struct ServedDevice<A = PeerAddr> {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    wake: Box<dyn Fn() + Send + Sync>,
    lease_tick: Option<Arc<LeaseTick>>,
    addr: A,
    queue: Option<ServeQueue>,
}

/// A device served over TCP. `benchmark/src/device.rs` imports this name;
/// it goes when the benchmark moves onto [`Device`].
pub type ServedTcpDevice = ServedDevice<std::net::SocketAddr>;

impl<A> ServedDevice<A> {
    /// The address the device listens on.
    pub fn addr(&self) -> A
    where
        A: Clone,
    {
        self.addr.clone()
    }

    /// The device's serve queue, when serving queued.
    pub fn queue(&self) -> Option<&ServeQueue> {
        self.queue.as_ref()
    }

    /// The endpoints still connected (closed ones are pruned lazily on
    /// each accept and on this call).
    pub fn endpoints(&self) -> Vec<Arc<RemoteEndpoint>> {
        let mut roster = self.shared.endpoints.lock();
        roster.retain(|ep| !ep.is_closed());
        roster.clone()
    }

    /// How many endpoints are still connected.
    pub fn connections(&self) -> usize {
        self.endpoints().len()
    }

    /// Stops accepting, closes every connected endpoint, joins the accept
    /// loop, and shuts down the serve queue (if any) after it drains.
    pub fn stop(mut self) {
        self.signal_stop();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(queue) = self.queue.take() {
            queue.shutdown();
        }
    }

    /// Raises the stop flag, ends the room lease cadence, wakes the
    /// accept loop so it sees the flag, and closes the roster — a
    /// handshake still in flight sees the flag and closes its own. Runs
    /// once: `stop` does it, then `Drop` finds it done.
    fn signal_stop(&self) {
        if self.shared.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        // After the last tick: a closing device journals no eviction.
        if let Some(tick) = &self.lease_tick {
            tick.stop();
        }
        (self.wake)();
        let roster = std::mem::take(&mut *self.shared.endpoints.lock());
        for endpoint in roster {
            endpoint.close();
        }
        // No tick prunes the hub's own roster any more, and a hub can
        // outlive its device.
        if let Some(tick) = &self.lease_tick {
            tick.hub.forget_closed_endpoints();
        }
    }
}

impl<A> Drop for ServedDevice<A> {
    fn drop(&mut self) {
        self.signal_stop();
    }
}

impl<A: fmt::Debug> fmt::Debug for ServedDevice<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServedDevice")
            .field("addr", &self.addr)
            .finish()
    }
}

/// [`Device::serve_tcp`] under the name and signature
/// `benchmark/src/device.rs` calls; it goes when the benchmark moves onto
/// [`Device`]. Panics if the accept thread cannot be spawned.
pub fn serve_device_tcp(
    listener: alfredo_net::TcpNetListener,
    framework: Framework,
    obs: Obs,
    queue: Option<ServeQueue>,
) -> ServedTcpDevice {
    let mut device = Device::new(framework).obs(obs);
    device.config.serve_queue = queue;
    device
        .serve_tcp(listener)
        .expect("spawn device accept loop")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_error_conversions_display() {
        let e: EngineError = RosgiError::Closed.into();
        assert!(e.to_string().contains("remote service"));
        let e: EngineError = DescriptorError::Malformed("x".into()).into();
        assert!(e.to_string().contains("descriptor"));
        let e = EngineError::MissingDescriptor("a.B".into());
        assert!(e.to_string().contains("a.B"));
        let e: EngineError = ServiceCallError::ServiceGone.into();
        assert!(e.to_string().contains("call"));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn accept_errors_are_retried_with_a_pause_only_when_they_would_repeat() {
        use std::io::Error;
        // Linux errno values: what accept(2) really returns.
        const EINTR: i32 = 4;
        const ENOMEM: i32 = 12;
        const ENFILE: i32 = 23;
        const EMFILE: i32 = 24;
        const ECONNABORTED: i32 = 103;
        const ECONNRESET: i32 = 104;
        const ENOBUFS: i32 = 105;
        for errno in [ECONNABORTED, ECONNRESET, EINTR] {
            let err = Error::from_raw_os_error(errno);
            assert_eq!(accept_retry_pause(&err), Duration::ZERO, "{err}");
        }
        for errno in [EMFILE, ENFILE, ENOBUFS, ENOMEM] {
            let err = Error::from_raw_os_error(errno);
            assert_eq!(accept_retry_pause(&err), ACCEPT_RETRY_PAUSE, "{err}");
        }
        // An error nobody classified must not make the loop spin.
        let err = Error::other("unclassified");
        assert_eq!(accept_retry_pause(&err), ACCEPT_RETRY_PAUSE);
    }

    /// More stalled clients than the gate has permits connect and send
    /// nothing; a phone connects behind them. The reaper gives every
    /// permit back, counting each, and the phone is served.
    fn reaps_the_stalled_and_serves_the_phone_behind_them<S>(
        door: Door,
        stall: impl Fn() -> S,
        dial: impl FnOnce() -> Box<dyn Transport>,
    ) {
        const STALLED: u64 = HANDSHAKE_THREAD_CAP as u64 + 3;
        let device = Device::new(Framework::new())
            .serve_on(door, (), "reaper-dev".into(), Duration::from_millis(250))
            .unwrap();
        let reaped = alfredo_obs::global_metrics().counter("net.handshake_reaped");
        let before = reaped.get();
        let stalled: Vec<S> = (0..STALLED).map(|_| stall()).collect();
        let config = EndpointConfig::named("phone");
        let phone = RemoteEndpoint::establish(dial(), Framework::new(), config)
            .expect("the phone gets a permit once the reaper frees one");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while reaped.get() < before + STALLED || device.connections() != 1 {
            assert!(std::time::Instant::now() < deadline, "{}", reaped.get());
            std::thread::yield_now();
        }
        let alive = phone.ping(Duration::from_secs(5));
        assert!(alive.is_ok(), "the phone's wire was reaped: {alive:?}");
        assert_eq!(reaped.get(), before + STALLED);
        phone.close();
        drop(stalled);
        device.stop();
    }

    /// One test for both listeners: `net.handshake_reaped` is
    /// process-wide, so the two runs must not overlap.
    #[test]
    fn both_listeners_reap_stalled_handshakes_and_keep_serving() {
        let net = InMemoryNetwork::new();
        let addr = PeerAddr::new("reaper-dev");
        reaps_the_stalled_and_serves_the_phone_behind_them(
            Door::in_memory(&net, &addr).unwrap(),
            || net.connect(PeerAddr::new("stalled"), addr.clone()).unwrap(),
            || Box::new(net.connect(PeerAddr::new("phone"), addr.clone()).unwrap()),
        );
        let listener = alfredo_net::TcpNetListener::bind("127.0.0.1:0").unwrap();
        let sock = listener.local_addr();
        reaps_the_stalled_and_serves_the_phone_behind_them(
            Door::tcp(listener),
            || std::net::TcpStream::connect(sock).unwrap(),
            || Box::new(alfredo_net::TcpTransport::connect(sock).unwrap()),
        );
    }

    #[test]
    fn config_builders() {
        let cfg = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i());
        assert_eq!(cfg.context.trust, crate::security::TrustLevel::Untrusted);
        let cfg = cfg.trusted(CodeRegistry::new());
        assert_eq!(cfg.context.trust, crate::security::TrustLevel::Trusted);
    }
}
