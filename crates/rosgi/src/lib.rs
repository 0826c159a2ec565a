#![warn(missing_docs)]

//! # alfredo-rosgi
//!
//! An R-OSGi-style remote service layer: the middleware that lets OSGi
//! services on different devices interact transparently, reproducing
//! Rellermeyer et al.'s R-OSGi (Middleware'07), which AlfredO builds on.
//!
//! The key mechanics, mirrored from the paper:
//!
//! * **Connection handshake with symmetric leases** — on connect, both
//!   sides exchange [`Lease`](message::Message::Lease)s listing the
//!   services they offer; lease updates keep the views synchronized so
//!   "changes of services or unregistration events are immediately visible
//!   to all connected machines".
//! * **Service proxies** — [`RemoteEndpoint::fetch_service`] ships the
//!   service interface (~2 kB), *builds a proxy bundle* locally, installs
//!   and starts it in the local framework; the proxy registers under the
//!   same interface, so consumers "invoke service functions as if they were
//!   locally implemented".
//! * **Type injection** — struct-shaped values referenced by the interface
//!   travel with it as [`TypeDescriptor`]s and are validated on both sides.
//! * **Smart proxies** — part of the service runs on the client: methods in
//!   the smart-proxy set execute locally (code resolved by key from the
//!   [`alfredo_osgi::CodeRegistry`]), the rest delegate to the remote.
//! * **Remote events** — EventAdmin topics are forwarded when the peer has
//!   a matching subscription.
//! * **Stream proxies** — credit-based chunked transfer for high-volume
//!   data (the MouseController's screen snapshots).
//! * **Discovery** — an SLP-like directory ([`discovery`]) where devices
//!   advertise service URLs and broadcast invitations.
//!
//! Disconnection maps onto the OSGi lifecycle: all proxies for a lost peer
//! are uninstalled, so applications observe ordinary service-unregistration
//! events rather than network exceptions.
//!
//! # Example
//!
//! ```
//! use alfredo_net::{InMemoryNetwork, PeerAddr};
//! use alfredo_osgi::{
//!     FnService, Framework, MethodSpec, ParamSpec, Properties, ServiceInterfaceDesc, TypeHint,
//!     Value,
//! };
//! use alfredo_rosgi::{EndpointConfig, RemoteEndpoint};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = InMemoryNetwork::new();
//!
//! // Target device: register a service (with a shippable interface
//! // description) and accept connections.
//! let interface = ServiceInterfaceDesc::new(
//!     "demo.Adder",
//!     vec![MethodSpec::new(
//!         "add",
//!         vec![
//!             ParamSpec::new("a", TypeHint::I64),
//!             ParamSpec::new("b", TypeHint::I64),
//!         ],
//!         TypeHint::I64,
//!         "Adds two integers.",
//!     )],
//! );
//! let device = Framework::new();
//! device.system_context().register_service(
//!     &["demo.Adder"],
//!     Arc::new(
//!         FnService::new(|_, args| {
//!             Ok(Value::I64(args.iter().filter_map(Value::as_i64).sum()))
//!         })
//!         .with_description(interface),
//!     ),
//!     Properties::new(),
//! )?;
//! let listener = net.bind(PeerAddr::new("device"))?;
//! let device_fw = device.clone();
//! std::thread::spawn(move || {
//!     let conn = listener.accept().expect("accept");
//!     let ep = RemoteEndpoint::establish(Box::new(conn), device_fw, EndpointConfig::default())
//!         .expect("handshake");
//!     ep.join(); // serve until the phone disconnects
//! });
//!
//! // Phone: connect, fetch the service, and call it through the proxy.
//! let phone = Framework::new();
//! let conn = net.connect(PeerAddr::new("phone"), PeerAddr::new("device"))?;
//! let ep = RemoteEndpoint::establish(Box::new(conn), phone.clone(), EndpointConfig::default())?;
//! ep.fetch_service("demo.Adder")?;
//! let adder = phone.registry().get_service("demo.Adder").expect("proxy installed");
//! assert_eq!(adder.invoke("add", &[Value::I64(2), Value::I64(3)])?, Value::I64(5));
//! ep.close();
//! # Ok(())
//! # }
//! ```

pub(crate) mod calls;
pub mod codec;
pub mod discovery;
pub mod endpoint;
pub mod error;
pub mod health;
pub mod lease;
pub mod message;
pub mod proxy;
pub mod serve;
pub mod stream;
pub mod types;

pub use discovery::{DiscoveryDirectory, ServiceUrl};
pub use endpoint::{
    CallHandle, EndpointConfig, EndpointStats, FetchedService, ReconnectConfig, ReconnectFn,
    RemoteEndpoint, ServiceParts, ERR_CIRCUIT_OPEN, PROP_IDEMPOTENT_METHODS, PROP_TIER_DIGEST,
};
pub use error::RosgiError;
pub use health::{
    BreakerConfig, BreakerState, CircuitBreaker, DisconnectReason, HealthEvent, HealthMonitor,
    HealthState, HeartbeatConfig, RetryBudget, RetryBudgetConfig, RetryPolicy,
};
pub use lease::{recover_lease_grants, LeaseGrant, RemoteServiceInfo};
pub use message::{BorrowedInvoke, Message};
pub use proxy::{RemoteServiceProxy, SmartProxySpec};
pub use serve::{ServeJob, ServeQueue, ServeQueueConfig, ServeQueueStats, SubmitOutcome};
pub use stream::{StreamId, StreamReceiver};
pub use types::{TypeDescriptor, TypeRegistry};
