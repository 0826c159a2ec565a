#![warn(missing_docs)]

//! # alfredo-core
//!
//! AlfredO: a middleware architecture that lets a mobile phone become, on
//! the fly, a fully tailored client for any encountered electronic device
//! (Rellermeyer, Riva, Alonso — Middleware 2008).
//!
//! Applications on a *target device* (touchscreen, information screen,
//! notebook, appliance) are organized as **decomposable multi-tier
//! services** — a presentation tier, a logic tier, and a data tier — and
//! the tiers can be distributed at will between the device and an
//! interacting phone:
//!
//! * The **data tier** always stays on the target device.
//! * The **presentation tier** always moves to the phone — but as a
//!   *stateless description* ([`ServiceDescriptor`]), not code: the phone
//!   self-renders a UI fitted to its own input/output capabilities
//!   (`alfredo-ui`), which is AlfredO's sandbox security model.
//! * Parts of the **logic tier** optionally move to the phone (R-OSGi
//!   smart proxies) when the environment is trusted and the phone's
//!   resources allow — improving responsiveness on slow links.
//!
//! The crate's pieces:
//!
//! * [`ServiceDescriptor`] — the shipped descriptor: abstract UI, service
//!   dependency list with per-dependency [`ResourceRequirements`], and a
//!   declarative [`ControllerProgram`].
//! * [`DistributionPolicy`] ([`ThinClientPolicy`], [`LogicOffloadPolicy`],
//!   [`AdaptivePolicy`]) — decides the [`TierAssignment`] from the
//!   phone's [`ClientContext`].
//! * [`SecurityPolicy`]/[`TrustLevel`] — sandbox rules: descriptions are
//!   always safe; executable logic needs trust.
//! * [`AlfredOEngine`] — the phone-side runtime: discover, connect, lease
//!   a service, build the proxy, render the UI, run the controller.
//! * [`host_service`]/[`Device`] — the target-device side: register the
//!   services, then one builder (obs, serve queue, lease journal, rooms)
//!   serves them on the in-memory fabric or a TCP socket.
//! * [`AlfredOSession`] — one live interaction: rendered UI, UI state,
//!   controller interpreter, polling, teardown.
//!
//! # Example
//!
//! See `examples/quickstart.rs` for the complete phone-meets-device flow;
//! unit-level examples live on each type.

pub mod cache;
pub mod controller;
pub mod data;
pub mod descriptor;
pub mod durable;
pub mod engine;
pub mod federation;
pub mod footprint;
pub mod optimizer;
pub mod policy;
pub mod replay;
pub mod retier;
pub mod room;
pub mod security;
pub mod session;
pub mod tier;
pub mod web;

pub use cache::{TierCache, TierCacheStats, DEFAULT_TIER_CACHE_BYTES};
pub use controller::{Action, ArgSource, Binding, ControllerProgram, MethodCall, Rule, Trigger};
pub use data::{register_data_store, DataReplica, DataStore, DATA_CHANGED_TOPIC_PREFIX};
pub use descriptor::{DependencySpec, DescriptorError, ResourceRequirements, ServiceDescriptor};
pub use durable::{
    DeviceJournal, DeviceJournalConfig, DeviceRecovery, RecoveredRoom, RecoveredStore,
};
pub use engine::{
    host_service, serve_device_tcp, AlfredOConnection, AlfredOEngine, Device, EngineConfig,
    EngineError, OutagePolicy, ResilienceConfig, ServedDevice, ServedTcpDevice,
};
pub use federation::{project_ui, register_screen, Projection, ScreenService, SCREEN_INTERFACE};
pub use footprint::{FootprintItem, FootprintReport};
pub use optimizer::{LatencyMonitor, RuntimeOptimizer};
pub use policy::{
    AdaptivePolicy, ClientContext, DistributionPolicy, LogicOffloadPolicy, ThinClientPolicy,
};
pub use replay::{decode_migration, decode_ui_event, outcome_kind, record_executed};
pub use retier::{
    PlacementController, PlacementControllerConfig, PlacementSignals, RetierHandle, SignalSampler,
};
pub use room::{
    presence_key, register_room_hub, room_clock_ms, room_update_topic, EndpointRoomSink,
    ReplicaSink, Room, RoomConfig, RoomDelta, RoomError, RoomHub, RoomHubService, RoomOp,
    RoomReplica, RoomSink, RoomStats, RoomUpdate, SharedUpdate, PRESENCE_PREFIX, ROOMS_INTERFACE,
};
pub use security::{SecurityError, SecurityPolicy, TrustLevel};
pub use session::{AlfredOSession, MigrationReport, EXPORT_STATE_METHOD, IMPORT_STATE_METHOD};
pub use tier::{Placement, Tier, TierAssignment};
pub use web::HttpGateway;
