//! Self-healing endpoints: heartbeats, health transitions, lease expiry,
//! idempotent-call retry, and reconnection with proxy re-binding.
//!
//! These tests run the endpoint over a [`FaultyTransport`] so outages are
//! injected (partition) rather than simulated by killing threads: the
//! endpoint must *detect* the outage via its heartbeat, degrade, declare
//! the wire dead, and — when configured — dial a fresh transport and
//! re-bind the installed proxies in place.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_net::{FaultPlan, FaultyTransport, InMemoryNetwork, PeerAddr, TransportError};
use alfredo_osgi::{
    FnService, Framework, MethodSpec, ParamSpec, Properties, ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::{
    EndpointConfig, HealthState, HeartbeatConfig, ReconnectConfig, RemoteEndpoint, RetryPolicy,
    RosgiError, PROP_IDEMPOTENT_METHODS,
};
use alfredo_sync::Mutex;

fn echo_service() -> Arc<dyn alfredo_osgi::Service> {
    Arc::new(
        FnService::new(|_, args| Ok(args.first().cloned().unwrap_or(Value::Unit)))
            .with_description(ServiceInterfaceDesc::new(
                "t.Echo",
                vec![MethodSpec::new(
                    "echo",
                    vec![ParamSpec::new("v", TypeHint::Any)],
                    TypeHint::Any,
                    "",
                )],
            )),
    )
}

/// Device hosting an echo service (marked idempotent) behind an accept
/// loop that serves every incoming connection — including redials.
fn spawn_device(net: &InMemoryNetwork, addr: &str) -> Framework {
    let fw = Framework::new();
    fw.system_context()
        .register_service(
            &["t.Echo"],
            echo_service(),
            Properties::new().with(PROP_IDEMPOTENT_METHODS, Value::from(vec!["echo"])),
        )
        .unwrap();
    let listener = net.bind(PeerAddr::new(addr)).unwrap();
    let fw2 = fw.clone();
    let label = addr.to_owned();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept() {
            let fw3 = fw2.clone();
            let cfg = EndpointConfig::named(label.clone());
            std::thread::spawn(move || {
                if let Ok(ep) = RemoteEndpoint::establish(Box::new(conn), fw3, cfg) {
                    ep.join();
                }
            });
        }
    });
    fw
}

/// A fast heartbeat for tests: outage detection within ~100 ms.
fn fast_heartbeat() -> HeartbeatConfig {
    HeartbeatConfig {
        interval: Duration::from_millis(25),
        timeout: Duration::from_millis(30),
        degraded_after: 1,
        disconnected_after: 2,
    }
}

fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ok()
}

#[test]
fn ping_timeout_is_distinct_from_closed() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "ping-1");
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("ping-1"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();
    let fw = Framework::new();
    let ep =
        RemoteEndpoint::establish(Box::new(faulty), fw, EndpointConfig::named("phone")).unwrap();

    // Responsive peer: ping succeeds.
    ep.ping(Duration::from_secs(1)).unwrap();

    // Partitioned peer: slow, not gone. The endpoint must say "timeout",
    // not "closed" — callers distinguish a stall from a dead wire.
    partition.partition();
    let err = ep.ping(Duration::from_millis(60)).unwrap_err();
    assert!(
        matches!(err, RosgiError::Transport(TransportError::Timeout)),
        "{err:?}"
    );
    assert!(!ep.is_closed(), "a timed-out ping must not close the link");

    // Healed: pings work again on the same wire.
    partition.heal();
    ep.ping(Duration::from_secs(1)).unwrap();

    // Actually closed: now (and only now) the answer is Closed.
    ep.close();
    let err = ep.ping(Duration::from_millis(60)).unwrap_err();
    assert!(matches!(err, RosgiError::Closed), "{err:?}");
}

#[test]
fn heartbeat_degrades_disconnects_and_reconnects_rebinding_proxies() {
    let net = InMemoryNetwork::new();
    let _device_fw = spawn_device(&net, "hb-1");
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("hb-1"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();

    let net2 = net.clone();
    let dial = Arc::new(move || {
        net2.connect(PeerAddr::new("phone"), PeerAddr::new("hb-1"))
            .map(|t| Box::new(t) as Box<dyn alfredo_net::Transport>)
    });
    let mut reconnect = ReconnectConfig::new(dial);
    reconnect.initial_backoff = Duration::from_millis(10);
    reconnect.max_backoff = Duration::from_millis(40);

    let phone_fw = Framework::new();
    let cfg = EndpointConfig::named("phone")
        .with_heartbeat(fast_heartbeat())
        .with_reconnect(reconnect);
    let ep = RemoteEndpoint::establish(Box::new(faulty), phone_fw.clone(), cfg).unwrap();
    let fetched = ep.fetch_service("t.Echo").unwrap();

    let events = Arc::new(Mutex::new(Vec::new()));
    let events2 = Arc::clone(&events);
    ep.on_health(move |e| events2.lock().push(e));

    let reference_before = phone_fw.registry().get_reference("t.Echo").unwrap();

    // Outage: the heartbeat must notice, degrade, and declare the wire
    // dead; the endpoint then dials the replacement and re-handshakes.
    partition.partition();
    assert!(
        wait_until(Duration::from_secs(5), || ep.health()
            == HealthState::Disconnected
            || ep.stats().reconnects > 0),
        "heartbeat never declared the partition"
    );
    partition.heal(); // irrelevant to the new wire, but tidy
    assert!(
        wait_until(Duration::from_secs(5), || ep.health()
            == HealthState::Healthy),
        "endpoint never recovered; health = {:?}",
        ep.health()
    );

    // The proxy survived in place: same registration, new wire.
    let reference_after = phone_fw.registry().get_reference("t.Echo").unwrap();
    assert_eq!(
        reference_before.id(),
        reference_after.id(),
        "reconnect must re-bind the existing proxy, not reinstall it"
    );
    let svc = phone_fw.registry().get_service("t.Echo").unwrap();
    assert_eq!(svc.invoke("echo", &[Value::I64(7)]).unwrap(), Value::I64(7));

    let stats = ep.stats();
    assert_eq!(stats.reconnects, 1, "{stats:?}");
    assert!(stats.heartbeats_missed >= 2, "{stats:?}");

    // The listener saw the full arc: ... -> Disconnected -> ... -> Healthy.
    let seen = events.lock().clone();
    assert!(
        seen.iter().any(|e| e.to == HealthState::Disconnected),
        "{seen:?}"
    );
    let disc_at = seen
        .iter()
        .position(|e| e.to == HealthState::Disconnected)
        .unwrap();
    assert!(
        seen[disc_at..].iter().any(|e| e.to == HealthState::Healthy),
        "{seen:?}"
    );

    let _ = fetched;
    ep.close();
}

#[test]
fn idempotent_calls_retry_through_an_outage() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "retry-1");
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("retry-1"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();

    let phone_fw = Framework::new();
    let mut cfg = EndpointConfig::named("phone").with_retry(RetryPolicy {
        max_retries: 6,
        initial_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(80),
        deadline: Duration::from_secs(5),
    });
    cfg.invoke_timeout = Duration::from_millis(80);
    let ep = RemoteEndpoint::establish(Box::new(faulty), phone_fw.clone(), cfg).unwrap();
    ep.fetch_service("t.Echo").unwrap();
    let svc = phone_fw.registry().get_service("t.Echo").unwrap();

    // Black-hole the wire, heal it shortly after: the first attempt times
    // out, a retry lands after the heal. The caller sees one slow success.
    partition.partition();
    let healer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        partition.heal();
    });
    let out = svc.invoke("echo", &[Value::I64(42)]).unwrap();
    assert_eq!(out, Value::I64(42));
    healer.join().unwrap();
    let stats = ep.stats();
    assert!(stats.retries >= 1, "{stats:?}");
    ep.close();
}

#[test]
fn unmarked_methods_are_never_retried() {
    let net = InMemoryNetwork::new();
    // Same echo service, but *without* the idempotent marking.
    let fw = Framework::new();
    fw.system_context()
        .register_service(&["t.Echo"], echo_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new("noretry-1")).unwrap();
    let fw2 = fw.clone();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept() {
            let fw3 = fw2.clone();
            std::thread::spawn(move || {
                if let Ok(ep) =
                    RemoteEndpoint::establish(Box::new(conn), fw3, EndpointConfig::named("d"))
                {
                    ep.join();
                }
            });
        }
    });

    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("noretry-1"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();
    let phone_fw = Framework::new();
    let mut cfg = EndpointConfig::named("phone").with_retry(RetryPolicy {
        max_retries: 6,
        initial_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(80),
        deadline: Duration::from_secs(5),
    });
    cfg.invoke_timeout = Duration::from_millis(80);
    let ep = RemoteEndpoint::establish(Box::new(faulty), phone_fw.clone(), cfg).unwrap();
    ep.fetch_service("t.Echo").unwrap();
    let svc = phone_fw.registry().get_service("t.Echo").unwrap();

    partition.partition();
    let start = Instant::now();
    let err = svc.invoke("echo", &[Value::I64(1)]).unwrap_err();
    // One timeout, no retries: at-least-once is only safe when marked.
    assert!(start.elapsed() < Duration::from_millis(500), "{err:?}");
    let stats = ep.stats();
    assert_eq!(stats.retries, 0, "{stats:?}");
    partition.heal();
    ep.close();
}

#[test]
fn lease_ttl_purges_stale_proxies_during_an_outage() {
    let net = InMemoryNetwork::new();
    spawn_device(&net, "ttl-1");
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("ttl-1"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();

    let phone_fw = Framework::new();
    let cfg = EndpointConfig::named("phone")
        .with_heartbeat(HeartbeatConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(30),
            degraded_after: 1,
            // Never declare the wire dead: this test isolates lease
            // expiry from reconnection.
            disconnected_after: u32::MAX,
        })
        .with_lease_ttl(Duration::from_millis(150));
    let ep = RemoteEndpoint::establish(Box::new(faulty), phone_fw.clone(), cfg).unwrap();
    ep.fetch_service("t.Echo").unwrap();
    assert!(phone_fw.registry().get_service("t.Echo").is_some());

    // While healthy, heartbeat renewals keep the lease alive well past
    // its TTL.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        phone_fw.registry().get_service("t.Echo").is_some(),
        "renewed leases must not expire"
    );

    // During an outage nothing renews: the entry expires and the proxy is
    // uninstalled — the client "does not store outdated data over time".
    partition.partition();
    assert!(
        wait_until(Duration::from_secs(5), || phone_fw
            .registry()
            .get_service("t.Echo")
            .is_none()),
        "stale proxy was never purged"
    );
    let stats = ep.stats();
    assert!(stats.lease_expiries >= 1, "{stats:?}");
    assert!(!ep.is_closed(), "expiry is not disconnection");
    partition.heal();
    ep.close();
}
