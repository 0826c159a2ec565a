//! End-to-end tests of the R-OSGi endpoint over the in-memory network:
//! handshake, leases, proxies, smart proxies, events, streams, and
//! disconnection semantics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use alfredo_net::{
    InMemoryNetwork, PeerAddr, TcpNetListener, TcpTransport, Transport, TransportError,
};
use alfredo_osgi::{
    BundleState, CodeRegistry, Event, FnService, Framework, MethodSpec, ParamSpec, Properties,
    ServiceCallError, ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::endpoint::{
    encode_type_descriptors, PROP_INJECTED_TYPES, PROP_SMART_PROXY_KEY, PROP_SMART_PROXY_METHODS,
};
use alfredo_rosgi::{EndpointConfig, Message, RemoteEndpoint, RosgiError, TypeDescriptor};

fn adder_interface() -> ServiceInterfaceDesc {
    ServiceInterfaceDesc::new(
        "demo.Adder",
        vec![
            MethodSpec::new(
                "add",
                vec![
                    ParamSpec::new("a", TypeHint::I64),
                    ParamSpec::new("b", TypeHint::I64),
                ],
                TypeHint::I64,
                "Adds two integers.",
            ),
            MethodSpec::new("fail", vec![], TypeHint::Unit, "Always fails."),
        ],
    )
}

fn adder_service() -> Arc<dyn alfredo_osgi::Service> {
    Arc::new(
        FnService::new(|method, args| match method {
            "add" => Ok(Value::I64(args.iter().filter_map(Value::as_i64).sum())),
            "fail" => Err(ServiceCallError::Failed("deliberate".into())),
            other => Err(ServiceCallError::NoSuchMethod(other.into())),
        })
        .with_description(adder_interface()),
    )
}

/// Starts a device framework serving `interfaces` on `addr`; returns the
/// framework. The accept loop serves one connection then exits.
fn spawn_device(net: &InMemoryNetwork, addr: &str, props: Properties) -> Framework {
    let fw = Framework::new();
    fw.system_context()
        .register_service(&["demo.Adder"], adder_service(), props)
        .unwrap();
    let listener = net.bind(PeerAddr::new(addr)).unwrap();
    let fw2 = fw.clone();
    let name = addr.to_owned();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept() {
            let fw3 = fw2.clone();
            let cfg = EndpointConfig::named(name.clone());
            std::thread::spawn(move || {
                if let Ok(ep) = RemoteEndpoint::establish(Box::new(conn), fw3, cfg) {
                    ep.join();
                }
            });
        }
    });
    fw
}

fn connect(net: &InMemoryNetwork, from: &str, to: &str) -> (Framework, RemoteEndpoint) {
    let fw = Framework::new();
    let conn = net.connect(PeerAddr::new(from), PeerAddr::new(to)).unwrap();
    let ep =
        RemoteEndpoint::establish(Box::new(conn), fw.clone(), EndpointConfig::named(from)).unwrap();
    (fw, ep)
}

/// Frames are ordered in each direction and handled in order, so once a
/// ping has come back the peer has handled everything this side sent
/// before it, and this side has handled everything the peer sent before
/// the pong — including what the peer's `establish` sends before it
/// starts answering pings.
fn barrier(ep: &RemoteEndpoint) {
    ep.ping(Duration::from_secs(5)).expect("ping barrier");
}

#[test]
fn handshake_exchanges_symmetric_leases() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-lease", Properties::new());
    let (phone_fw, ep) = connect(&net, "phone", "dev-lease");
    // Phone sees the device's service in the lease.
    let services = ep.remote_services();
    assert!(
        services.iter().any(|s| s.offers("demo.Adder")),
        "{services:?}"
    );
    assert_eq!(ep.remote_peer(), "dev-lease");
    // Phone itself offers nothing.
    assert_eq!(phone_fw.registry().service_count(), 0);
    ep.close();
    assert!(ep.is_closed());
}

#[test]
fn fetch_installs_starts_and_registers_proxy() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-fetch", Properties::new());
    let (phone_fw, ep) = connect(&net, "phone", "dev-fetch");

    let fetched = ep.fetch_service("demo.Adder").unwrap();
    assert_eq!(fetched.interface.name, "demo.Adder");
    assert!(!fetched.smart);
    assert!(
        fetched.transferred_bytes > 50,
        "{}",
        fetched.transferred_bytes
    );
    assert!(fetched.proxy_footprint > 0);

    // The proxy bundle is ACTIVE and the proxy is in the local registry.
    assert_eq!(
        phone_fw.bundle(fetched.bundle).unwrap().state,
        BundleState::Active
    );
    let reference = phone_fw.registry().get_reference("demo.Adder").unwrap();
    assert!(reference.is_remote_proxy());

    // Invoking through the local registry reaches the remote service.
    let svc = phone_fw.registry().get_service("demo.Adder").unwrap();
    assert_eq!(
        svc.invoke("add", &[Value::I64(20), Value::I64(22)])
            .unwrap(),
        Value::I64(42)
    );

    // Remote application errors propagate.
    assert_eq!(
        svc.invoke("fail", &[]).unwrap_err(),
        ServiceCallError::Failed("deliberate".into())
    );

    // Client-side interface checking rejects bad calls without the wire.
    assert!(matches!(
        svc.invoke("add", &[Value::I64(1)]),
        Err(ServiceCallError::BadArguments(_))
    ));
    ep.close();
}

#[test]
fn fetch_of_unknown_interface_fails() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-unknown", Properties::new());
    let (_fw, ep) = connect(&net, "phone", "dev-unknown");
    assert!(matches!(
        ep.fetch_service("not.There"),
        Err(RosgiError::NoSuchRemoteService(_))
    ));
    ep.close();
}

#[test]
fn release_service_uninstalls_proxy() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-release", Properties::new());
    let (phone_fw, ep) = connect(&net, "phone", "dev-release");
    let fetched = ep.fetch_service("demo.Adder").unwrap();
    assert!(phone_fw.registry().get_service("demo.Adder").is_some());
    ep.release_service("demo.Adder").unwrap();
    // Proxy gone from registry and bundle uninstalled.
    assert!(phone_fw.registry().get_service("demo.Adder").is_none());
    assert!(phone_fw.bundle(fetched.bundle).is_none());
    // Double release fails.
    assert!(ep.release_service("demo.Adder").is_err());
    ep.close();
}

#[test]
fn close_uninstalls_all_proxies_and_fails_pending() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-close", Properties::new());
    let (phone_fw, ep) = connect(&net, "phone", "dev-close");
    ep.fetch_service("demo.Adder").unwrap();
    let svc = phone_fw.registry().get_service("demo.Adder").unwrap();
    ep.close();
    // Proxy swept.
    assert!(phone_fw.registry().get_service("demo.Adder").is_none());
    // Further invocations through a stale handle report ServiceGone.
    assert_eq!(
        svc.invoke("add", &[Value::I64(1), Value::I64(2)])
            .unwrap_err(),
        ServiceCallError::ServiceGone
    );
}

#[test]
fn peer_disconnect_maps_to_service_unregistration() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    device_fw
        .system_context()
        .register_service(&["demo.Adder"], adder_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new("dev-drop")).unwrap();
    let dev_fw2 = device_fw.clone();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        RemoteEndpoint::establish(Box::new(conn), dev_fw2, EndpointConfig::named("dev-drop"))
            .unwrap()
    });
    let (phone_fw, ep) = connect(&net, "phone", "dev-drop");
    let device_ep = server.join().unwrap();
    ep.fetch_service("demo.Adder").unwrap();

    // Watch for the unregistration event on the phone.
    let (unregistered_tx, unregistered) = std::sync::mpsc::channel();
    phone_fw.registry().add_listener(None, move |e| {
        if matches!(e, alfredo_osgi::ServiceEvent::Unregistering(_)) {
            let _ = unregistered_tx.send(());
        }
    });

    // The *device* closes the connection.
    device_ep.close();

    // The phone notices and sweeps the proxy; `join` returns once its
    // teardown is complete.
    unregistered
        .recv_timeout(Duration::from_secs(5))
        .expect("the phone sees the proxy service unregister");
    ep.join();
    assert!(phone_fw.registry().get_service("demo.Adder").is_none());
    assert!(
        unregistered.try_recv().is_err(),
        "exactly one unregistration"
    );
}

#[test]
fn lease_updates_track_registry_changes() {
    let net = InMemoryNetwork::new();
    let device_fw = spawn_device(&net, "dev-update", Properties::new());
    let (_phone_fw, ep) = connect(&net, "phone", "dev-update");

    // Register a new service on the device after connect.
    let registration = device_fw
        .system_context()
        .register_service(
            &["demo.Late"],
            Arc::new(FnService::new(|_, _| Ok(Value::Unit))),
            Properties::new(),
        )
        .unwrap();
    // The lease update is on the wire ahead of the pong.
    barrier(&ep);
    assert!(
        ep.remote_services().iter().any(|s| s.offers("demo.Late")),
        "late registration should appear in the lease"
    );

    // Unregister: it disappears.
    registration.unregister().unwrap();
    barrier(&ep);
    assert!(
        !ep.remote_services().iter().any(|s| s.offers("demo.Late")),
        "unregistration should drop from the lease"
    );
    ep.close();
}

/// Busy-waits for `skew`: a sleep would round every offset up to the
/// scheduler's tick and land each change at the same point.
fn spin(skew: Duration) {
    let until = Instant::now() + skew;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// The device's registry and the phone's subscriptions change while both
/// sides run `establish`. Once a ping is back, the phone's lease equals
/// the device's registry, and an event the device posts reaches the
/// subscription the phone added. Each round shifts the two changes
/// against the handshake, so over the rounds they land before, between
/// and after the listeners' install and the snapshots of the flight.
fn changes_during_establish_are_never_lost(
    rounds: u64,
    pair: impl Fn(u64) -> (Box<dyn Transport>, Box<dyn Transport>),
) {
    const TOPIC: &str = "race/tap";
    for round in 0..rounds {
        let device_fw = Framework::new();
        let adder = device_fw
            .system_context()
            .register_service(&["demo.Adder"], adder_service(), Properties::new())
            .unwrap();
        let phone_fw = Framework::new();
        let (phone_wire, device_wire) = pair(round);

        let device = {
            let fw = device_fw.clone();
            let config = EndpointConfig::named("dev-race");
            std::thread::spawn(move || RemoteEndpoint::establish(device_wire, fw, config).unwrap())
        };
        // Even rounds register a service, odd ones unregister the one the
        // device started with.
        let churn = {
            let fw = device_fw.clone();
            let skew = Duration::from_micros(round % 16 * 12);
            std::thread::spawn(move || {
                spin(skew);
                if round % 2 == 0 {
                    let late = Arc::new(FnService::new(|_, _| Ok(Value::Unit)));
                    let registration = fw.system_context().register_service(
                        &["demo.Late"],
                        late,
                        Properties::new(),
                    );
                    Some(registration.unwrap())
                } else {
                    adder.unregister().unwrap();
                    None
                }
            })
        };
        let (hit_tx, hits) = mpsc::channel();
        let subscriber = {
            let fw = phone_fw.clone();
            let skew = Duration::from_micros(round % 13 * 15);
            std::thread::spawn(move || {
                spin(skew);
                fw.event_admin().subscribe(TOPIC, move |_| {
                    let _ = hit_tx.send(());
                });
            })
        };
        let phone =
            RemoteEndpoint::establish(phone_wire, phone_fw.clone(), EndpointConfig::named("phone"))
                .unwrap();
        let _late = churn.join().unwrap();
        subscriber.join().unwrap();
        let device = device.join().unwrap();

        barrier(&phone);
        let mut leased: Vec<u64> = phone
            .remote_services()
            .iter()
            .map(|s| s.remote_id)
            .collect();
        leased.sort_unstable();
        let registered: Vec<u64> = device_fw
            .registry()
            .all_references(None)
            .iter()
            .map(|r| r.id().as_raw())
            .collect();
        assert_eq!(leased, registered, "round {round}: the lease went stale");

        device_fw
            .event_admin()
            .post(&Event::new(TOPIC, Properties::new()));
        hits.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("round {round}: the interest went stale"));
        phone.close();
        device.close();
    }
}

#[test]
fn changes_during_establish_reach_the_peer_in_memory() {
    let net = InMemoryNetwork::new();
    let listener = net.bind(PeerAddr::new("dev-race")).unwrap();
    changes_during_establish_are_never_lost(200, |round| {
        let phone = net
            .connect(
                PeerAddr::new(format!("phone{round}")),
                PeerAddr::new("dev-race"),
            )
            .unwrap();
        let device = listener.accept().unwrap();
        (Box::new(phone), Box::new(device))
    });
}

#[test]
fn changes_during_establish_reach_the_peer_over_tcp() {
    let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    changes_during_establish_are_never_lost(200, |_| {
        let phone = TcpTransport::connect(addr).unwrap();
        let device = listener.accept().unwrap();
        (Box::new(phone), Box::new(device))
    });
}

/// A peer that opens with anything but its half of the handshake — an
/// `Invoke`, a `FetchService`, or a `Hello` of another protocol version
/// — gets a closed connection and nothing else. No call is served, all
/// it reads is the device's own half, and the device's `start` reports a
/// failed handshake instead of an endpoint; a proper half sent after the
/// opener changes none of that.
#[test]
fn frames_before_the_handshake_close_the_connection() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = {
        let calls = Arc::clone(&calls);
        FnService::new(move |_, args| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(Value::I64(args.iter().filter_map(Value::as_i64).sum()))
        })
        .with_description(adder_interface())
    };
    device_fw
        .system_context()
        .register_service(&["demo.Adder"], Arc::new(counting), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new("dev-hostile")).unwrap();
    let openers = [
        Message::Invoke {
            call_id: 1,
            interface: "demo.Adder".into(),
            method: "add".into(),
            args: vec![Value::I64(1), Value::I64(2)],
        },
        Message::FetchService {
            interface: "demo.Adder".into(),
        },
        Message::Hello {
            peer: "future".into(),
            version: 99,
        },
    ];
    for opener in openers {
        let hostile = net
            .connect(PeerAddr::new("hostile"), PeerAddr::new("dev-hostile"))
            .unwrap();
        let (ready_tx, ready) = mpsc::channel();
        RemoteEndpoint::start(
            Box::new(listener.accept().unwrap()),
            device_fw.clone(),
            EndpointConfig::named("dev-hostile"),
            move |outcome| drop(ready_tx.send(outcome.map(|_| ()))),
        );
        hostile.send(opener.encode()).unwrap();
        // The device may have closed by now; these sends may fail.
        let hello = Message::Hello {
            peer: "hostile".into(),
            version: 1,
        };
        for late in [hello, Message::Lease { services: vec![] }, opener.clone()] {
            let _ = hostile.send(late.encode());
        }

        let outcome = ready.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(outcome, Err(RosgiError::Handshake(_))),
            "{opener:?}: {outcome:?}"
        );
        let mut read = Vec::new();
        loop {
            match hostile.recv_timeout(Duration::from_secs(5)) {
                Ok(frame) => read.push(Message::decode(&frame).unwrap()),
                Err(TransportError::Closed) => break,
                Err(e) => panic!("{opener:?}: the device kept the wire open: {e}"),
            }
        }
        assert!(
            read.iter().all(|m| matches!(
                m,
                Message::Hello { .. } | Message::Lease { .. } | Message::EventInterest { .. }
            )),
            "{opener:?}: {read:?}"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 0, "{opener:?} was served");
    }
}

#[test]
fn remote_service_removal_uninstalls_proxy() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let registration = device_fw
        .system_context()
        .register_service(&["demo.Adder"], adder_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new("dev-remove")).unwrap();
    let fw2 = device_fw.clone();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let ep =
            RemoteEndpoint::establish(Box::new(conn), fw2, EndpointConfig::named("dev-remove"))
                .unwrap();
        ep.join();
    });
    let (phone_fw, ep) = connect(&net, "phone", "dev-remove");
    ep.fetch_service("demo.Adder").unwrap();
    assert!(phone_fw.registry().get_service("demo.Adder").is_some());

    // Device unregisters the backing service.
    registration.unregister().unwrap();
    barrier(&ep);
    assert!(
        phone_fw.registry().get_service("demo.Adder").is_none(),
        "proxy must be uninstalled when the remote service goes away"
    );
    ep.close();
}

#[test]
fn smart_proxy_runs_local_methods_locally() {
    let net = InMemoryNetwork::new();
    // Device offers a smart proxy for "add" (runs on the client).
    let props = Properties::new()
        .with(PROP_SMART_PROXY_KEY, "demo.adder.local/v1")
        .with(PROP_SMART_PROXY_METHODS, Value::from(vec!["add"]));
    spawn_device(&net, "dev-smart", props);

    // Client trusts the device and has the factory linked.
    let code = CodeRegistry::new();
    let local_calls = Arc::new(AtomicUsize::new(0));
    let lc = Arc::clone(&local_calls);
    code.register_service("demo.adder.local/v1", move || {
        let lc = Arc::clone(&lc);
        Arc::new(FnService::new(move |method, args| {
            lc.fetch_add(1, Ordering::SeqCst);
            match method {
                "add" => Ok(Value::I64(args.iter().filter_map(Value::as_i64).sum())),
                other => Err(ServiceCallError::NoSuchMethod(other.into())),
            }
        }))
    });
    let phone_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("dev-smart"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("phone").with_smart_proxies(code),
    )
    .unwrap();

    let fetched = ep.fetch_service("demo.Adder").unwrap();
    assert!(fetched.smart, "smart proxy should be installed");
    let svc = phone_fw.registry().get_service("demo.Adder").unwrap();
    assert_eq!(
        svc.invoke("add", &[Value::I64(1), Value::I64(2)]).unwrap(),
        Value::I64(3)
    );
    assert_eq!(local_calls.load(Ordering::SeqCst), 1, "add ran locally");
    assert_eq!(ep.stats().calls_sent, 0, "nothing went over the wire");
    // "fail" is not local: it delegates remotely.
    assert_eq!(
        svc.invoke("fail", &[]).unwrap_err(),
        ServiceCallError::Failed("deliberate".into())
    );
    assert_eq!(ep.stats().calls_sent, 1);
    ep.close();
}

#[test]
fn untrusting_client_falls_back_to_plain_proxy() {
    let net = InMemoryNetwork::new();
    let props = Properties::new()
        .with(PROP_SMART_PROXY_KEY, "demo.adder.local/v1")
        .with(PROP_SMART_PROXY_METHODS, Value::from(vec!["add"]));
    spawn_device(&net, "dev-untrusted", props);
    // Default config: accept_smart_proxies = false.
    let (phone_fw, ep) = connect(&net, "phone", "dev-untrusted");
    let fetched = ep.fetch_service("demo.Adder").unwrap();
    assert!(!fetched.smart, "sandbox default: no shipped logic");
    let svc = phone_fw.registry().get_service("demo.Adder").unwrap();
    assert_eq!(
        svc.invoke("add", &[Value::I64(2), Value::I64(2)]).unwrap(),
        Value::I64(4)
    );
    assert_eq!(ep.stats().calls_sent, 1, "went over the wire");
    ep.close();
}

#[test]
fn type_injection_validates_arguments_server_side() {
    let net = InMemoryNetwork::new();
    // A service taking a struct argument, with an injected type descriptor.
    let iface = ServiceInterfaceDesc::new(
        "demo.Sink",
        vec![MethodSpec::new(
            "put",
            vec![ParamSpec::new("item", TypeHint::Struct)],
            TypeHint::Unit,
            "",
        )],
    );
    let types = vec![TypeDescriptor::new("demo.Item")
        .with_field("name", TypeHint::Str)
        .with_field("qty", TypeHint::I64)];
    let props = Properties::new().with(PROP_INJECTED_TYPES, encode_type_descriptors(&types));
    let device_fw = Framework::new();
    device_fw
        .system_context()
        .register_service(
            &["demo.Sink"],
            Arc::new(FnService::new(|_, _| Ok(Value::Unit)).with_description(iface)),
            props,
        )
        .unwrap();
    let listener = net.bind(PeerAddr::new("dev-types")).unwrap();
    let fw2 = device_fw.clone();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let ep = RemoteEndpoint::establish(Box::new(conn), fw2, EndpointConfig::named("dev-types"))
            .unwrap();
        ep.join();
    });
    let (phone_fw, ep) = connect(&net, "phone", "dev-types");
    ep.fetch_service("demo.Sink").unwrap();
    let svc = phone_fw.registry().get_service("demo.Sink").unwrap();

    // Conforming struct passes.
    let ok = Value::structure(
        "demo.Item",
        [("name", Value::from("bed")), ("qty", Value::from(1i64))],
    );
    assert_eq!(svc.invoke("put", &[ok]).unwrap(), Value::Unit);

    // Non-conforming struct of the injected type is rejected remotely.
    let bad = Value::structure("demo.Item", [("name", Value::from("bed"))]);
    assert!(matches!(
        svc.invoke("put", &[bad]),
        Err(ServiceCallError::BadArguments(_))
    ));
    ep.close();
}

#[test]
fn events_forward_by_interest_without_loops() {
    let net = InMemoryNetwork::new();
    let device_fw = spawn_device(&net, "dev-events", Properties::new());

    // Phone subscribes to mouse/* before connecting so its interest ships
    // in the handshake.
    let phone_fw = Framework::new();
    let received = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&received);
    phone_fw.event_admin().subscribe("mouse/*", move |e| {
        assert_eq!(e.topic, "mouse/snapshot");
        r.fetch_add(1, Ordering::SeqCst);
    });
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("dev-events"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("phone"),
    )
    .unwrap();

    // The device has handled EventInterest and armed its forwarder.
    barrier(&ep);

    // Device posts matching and non-matching events on its local bus.
    device_fw.event_admin().post(&Event::new(
        "mouse/snapshot",
        Properties::new().with("seq", 1i64),
    ));
    device_fw
        .event_admin()
        .post(&Event::new("other/topic", Properties::new()));

    // Whatever the device forwarded is ahead of the pong.
    barrier(&ep);
    assert_eq!(
        received.load(Ordering::SeqCst),
        1,
        "only the matching topic"
    );
    ep.close();
}

#[test]
fn explicit_send_event_reaches_peer_bus() {
    let net = InMemoryNetwork::new();
    let device_fw = spawn_device(&net, "dev-explicit", Properties::new());
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    device_fw.event_admin().subscribe("ctrl/*", move |e| {
        assert_eq!(e.properties.get_i64("x"), Some(7));
        h.fetch_add(1, Ordering::SeqCst);
    });
    let (_fw, ep) = connect(&net, "phone", "dev-explicit");
    ep.send_event("ctrl/button", Properties::new().with("x", 7i64))
        .unwrap();
    barrier(&ep);
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    ep.close();
}

#[test]
fn streams_transfer_bulk_data_with_flow_control() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let listener = net.bind(PeerAddr::new("dev-stream")).unwrap();
    let fw2 = device_fw.clone();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let ep =
            RemoteEndpoint::establish(Box::new(conn), fw2, EndpointConfig::named("dev-stream"))
                .unwrap();
        // Receive one stream fully.
        let receiver = ep.accept_stream(Duration::from_secs(5)).unwrap();
        assert_eq!(receiver.name(), "snapshot");
        let data = receiver.read_to_end(Duration::from_secs(5)).unwrap();
        ep.close();
        data
    });
    let (_fw, ep) = connect(&net, "phone", "dev-stream");
    // 1 MiB: far more than the credit window * chunk size, so flow control
    // must cycle several times.
    let payload: Vec<u8> = (0..1_048_576u32).map(|i| (i % 251) as u8).collect();
    ep.send_stream("snapshot", &payload).unwrap();
    let received = server.join().unwrap();
    assert_eq!(received.len(), payload.len());
    assert_eq!(received, payload);
    ep.close();
}

#[test]
fn empty_stream_terminates() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let listener = net.bind(PeerAddr::new("dev-empty")).unwrap();
    let fw2 = device_fw.clone();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let ep = RemoteEndpoint::establish(Box::new(conn), fw2, EndpointConfig::named("dev-empty"))
            .unwrap();
        let receiver = ep.accept_stream(Duration::from_secs(5)).unwrap();
        let data = receiver.read_to_end(Duration::from_secs(5)).unwrap();
        ep.close();
        data
    });
    let (_fw, ep) = connect(&net, "phone", "dev-empty");
    ep.send_stream("empty", &[]).unwrap();
    assert!(server.join().unwrap().is_empty());
    ep.close();
}

#[test]
fn ping_measures_liveness() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-ping", Properties::new());
    let (_fw, ep) = connect(&net, "phone", "dev-ping");
    let rtt = ep.ping(Duration::from_secs(1)).unwrap();
    assert!(rtt < Duration::from_secs(1));
    ep.close();
    assert!(ep.ping(Duration::from_millis(100)).is_err());
}

#[test]
fn proxies_are_not_reexported() {
    // phone <-> device; phone fetches Adder; a second device connecting to
    // the phone must NOT see demo.Adder in the phone's lease.
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-a", Properties::new());
    let (phone_fw, ep_a) = connect(&net, "phone", "dev-a");
    ep_a.fetch_service("demo.Adder").unwrap();

    // The phone now also acts as a listener.
    let listener = net.bind(PeerAddr::new("phone-listen")).unwrap();
    let phone_fw2 = phone_fw.clone();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let ep = RemoteEndpoint::establish(
            Box::new(conn),
            phone_fw2,
            EndpointConfig::named("phone-listen"),
        )
        .unwrap();
        ep.join();
    });
    let other_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("other"), PeerAddr::new("phone-listen"))
        .unwrap();
    let ep_b = RemoteEndpoint::establish(Box::new(conn), other_fw, EndpointConfig::named("other"))
        .unwrap();
    assert!(
        !ep_b
            .remote_services()
            .iter()
            .any(|s| s.offers("demo.Adder")),
        "imported proxies must not be re-exported"
    );
    ep_b.close();
    ep_a.close();
}

#[test]
fn concurrent_invocations_from_many_threads() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-mt", Properties::new());
    let (phone_fw, ep) = connect(&net, "phone", "dev-mt");
    ep.fetch_service("demo.Adder").unwrap();
    let svc = phone_fw.registry().get_service("demo.Adder").unwrap();
    let mut handles = Vec::new();
    for t in 0..8i64 {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            for i in 0..50i64 {
                let out = svc.invoke("add", &[Value::I64(t), Value::I64(i)]).unwrap();
                assert_eq!(out, Value::I64(t + i));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ep.stats().calls_sent, 400);
    ep.close();
}

#[test]
fn stats_count_traffic() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "dev-stats", Properties::new());
    let (phone_fw, ep) = connect(&net, "phone", "dev-stats");
    ep.fetch_service("demo.Adder").unwrap();
    let svc = phone_fw.registry().get_service("demo.Adder").unwrap();
    svc.invoke("add", &[Value::I64(1), Value::I64(1)]).unwrap();
    let stats = ep.stats();
    assert_eq!(stats.calls_sent, 1);
    assert!(stats.frames_sent >= 4, "hello+lease+interest+fetch+invoke");
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    ep.close();
}
