//! The full AlfredO stack over a *real* TCP connection (loopback): the
//! same protocol the in-memory tests exercise, but with genuine sockets —
//! demonstrating that nothing in the stack depends on the in-memory
//! fabric. TCP transports ride the reactor: frames arrive as poller
//! callbacks (sink mode), heartbeats tick on the shared timer wheel, and
//! no per-connection reader threads exist anywhere in these tests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{
    presence_key, register_room_hub, room_clock_ms, room_update_topic, AlfredOEngine, Device,
    DeviceJournal, DeviceJournalConfig, EngineConfig, ReplicaSink, Room, RoomConfig, RoomHub,
    RoomOp, RoomReplica, RoomUpdate, ServedTcpDevice, ROOMS_INTERFACE,
};
use alfredo_net::{TcpNetListener, TcpTransport, Transport};
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{
    DiscoveryDirectory, EndpointConfig, HeartbeatConfig, RemoteEndpoint, ServeQueue,
    ServeQueueConfig,
};
use alfredo_ui::{DeviceCapabilities, UiEvent};

/// Every test here writes to sockets; the one that counts the process's
/// socket writes runs alone (write lock), the rest side by side (read
/// lock).
static WIRE: RwLock<()> = RwLock::new(());

#[test]
fn shop_session_over_real_tcp() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    // --- device: the engine's TCP host (accept loop + reactor sinks) ----
    let device_fw = Framework::new();
    register_shop(&device_fw, sample_catalog()).unwrap();
    let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let device = Device::new(device_fw)
        .queue(ServeQueue::new(ServeQueueConfig::workers(2)))
        .serve_tcp(listener)
        .unwrap();

    // --- phone: engine over a TCP transport ------------------------------
    let engine = AlfredOEngine::new(
        Framework::new(),
        alfredo_net::InMemoryNetwork::new(), // unused; we connect by transport
        DiscoveryDirectory::new(),
        EngineConfig::phone("tcp-phone", DeviceCapabilities::nokia_9300i()),
    );
    let transport = TcpTransport::connect(addr).unwrap();
    let conn = engine.connect_transport(Box::new(transport)).unwrap();
    assert!(conn
        .available_services()
        .iter()
        .any(|s| s.offers(SHOP_INTERFACE)));

    let session = conn.acquire(SHOP_INTERFACE).unwrap();
    session
        .handle_event(&UiEvent::Click {
            control: "refresh".into(),
        })
        .unwrap();
    let cats = session.with_state(|s| s.items("categories").unwrap());
    assert_eq!(cats, vec!["Beds", "Chairs", "Sofas", "Tables"]);

    // A heavier exchange over the socket: full product details.
    session
        .handle_event(&UiEvent::Selected {
            control: "categories".into(),
            index: 0,
        })
        .unwrap();
    session
        .handle_event(&UiEvent::Selected {
            control: "products".into(),
            index: 0,
        })
        .unwrap();
    let detail = session.with_state(|s| s.get("detail").cloned()).unwrap();
    assert!(detail.field("price_cents").is_some());

    // The /metrics dump (what the web gateway serves) includes the
    // process-wide reactor gauges alongside the endpoint counters.
    let metrics = session.metrics_text();
    assert!(metrics.contains("rosgi.calls_sent"), "{metrics}");
    assert!(metrics.contains("net.io_threads"), "{metrics}");
    assert!(metrics.contains("net.open_connections"), "{metrics}");

    assert_eq!(device.connections(), 1);
    session.close();
    conn.close();
    device.stop();
}

#[test]
fn raw_endpoint_over_tcp_with_events() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    use alfredo_osgi::{Event, Properties};

    let device_fw = Framework::new();
    let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let fw2 = device_fw.clone();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        if let Ok(ep) =
            RemoteEndpoint::establish(Box::new(conn), fw2, EndpointConfig::named("tcp-dev"))
        {
            ep.join();
        }
    });

    let phone_fw = Framework::new();
    let (hit_tx, hit_rx) = mpsc::channel();
    phone_fw.event_admin().subscribe("tcp/topic", move |e| {
        assert_eq!(e.properties.get_i64("n"), Some(7));
        let _ = hit_tx.send(());
    });
    let transport = TcpTransport::connect(addr).unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(transport),
        phone_fw,
        EndpointConfig::named("tcp-phone"),
    )
    .unwrap();

    // A ping round-trip proves the device has processed every frame sent
    // before it (TCP is FIFO) — including our event-interest update.
    ep.ping(Duration::from_secs(5)).unwrap();
    device_fw
        .event_admin()
        .post(&Event::new("tcp/topic", Properties::new().with("n", 7i64)));
    hit_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("event crossed real TCP");
    ep.close();
}

/// A peer that trickles bytes one write(2) at a time — every frame header
/// and body split across many reads — must still produce intact frames:
/// the reactor's per-connection reassembly state machine handles
/// arbitrary fragmentation.
#[test]
fn one_byte_dribble_reassembles_frames() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let t = listener.accept().unwrap();
        let a = t.recv_timeout(Duration::from_secs(10)).unwrap();
        let b = t.recv_timeout(Duration::from_secs(10)).unwrap();
        (a, b)
    });

    let frames: [&[u8]; 2] = [b"hello reactor", &[0u8, 1, 2, 3, 255]];
    let mut wire = Vec::new();
    for f in frames {
        wire.extend_from_slice(&(f.len() as u32).to_le_bytes());
        wire.extend_from_slice(f);
    }
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    for byte in wire {
        raw.write_all(&[byte]).unwrap();
    }
    let (a, b) = server.join().unwrap();
    assert_eq!(a, frames[0]);
    assert_eq!(b, frames[1]);
}

/// A sender outrunning a slow reader fills the socket and then the
/// 1 MiB outbox; `send` blocks (bounded memory) instead of failing, and
/// everything drains once the reader catches up.
#[test]
fn slow_reader_write_backpressure_drains() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    const FRAMES: usize = 48;
    const SIZE: usize = 128 * 1024; // 6 MiB total, far over the outbox cap

    let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let sender = std::thread::spawn(move || {
        let t = listener.accept().unwrap();
        for i in 0..FRAMES {
            t.send(vec![i as u8; SIZE]).unwrap();
        }
        t // keep the connection open until the reader drains it
    });

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    // Give the sender time to hit the outbox cap and block.
    std::thread::sleep(Duration::from_millis(200));
    let expected = FRAMES * (4 + SIZE);
    let mut total = 0usize;
    let mut last = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while total < expected {
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "peer hung up after {total}/{expected} bytes");
        total += n;
        last = buf[..n].to_vec();
    }
    assert_eq!(total, expected);
    // The tail of the stream is the last frame's fill byte.
    assert_eq!(*last.last().unwrap(), (FRAMES - 1) as u8);
    let t = sender.join().unwrap();
    drop(t);
}

/// Chaos composition over real sockets: a `FaultyTransport` wrapping a
/// reactor-backed TCP transport still delivers through the sink path, the
/// timer-wheel heartbeat detects a partition (no reader thread, no
/// heartbeat thread), and reconnection dials a fresh wire through the
/// reactor.
#[test]
fn faulty_tcp_endpoint_reconnects_with_wheel_heartbeat() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    use alfredo_net::{FaultPlan, FaultyTransport, Transport, TransportError};
    use alfredo_rosgi::{HealthState, ReconnectConfig, ReconnectFn};

    let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let device = Device::new(Framework::new()).serve_tcp(listener).unwrap();

    // Phone: faulty wrapper over TCP, wheel heartbeat, reconnect by
    // dialing a fresh (un-wrapped) TCP transport.
    let wire = FaultyTransport::new(
        Box::new(TcpTransport::connect(addr).unwrap()),
        FaultPlan::none(),
    );
    let partition = wire.partition_handle();
    let dial: ReconnectFn = Arc::new(move || {
        TcpTransport::connect(addr)
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .map_err(|_| TransportError::Timeout)
    });
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(25),
        timeout: Duration::from_millis(50),
        degraded_after: 1,
        disconnected_after: 2,
    };
    let ep = RemoteEndpoint::establish(
        Box::new(wire),
        Framework::new(),
        EndpointConfig::named("phone")
            .with_heartbeat(hb)
            .with_reconnect(ReconnectConfig::new(dial)),
    )
    .unwrap();

    // The connection is reactor-served: the stats snapshot shows the
    // fixed I/O budget and at least this one registered connection.
    let stats = ep.stats();
    assert!(stats.io_threads >= 1, "{stats:?}");
    assert!(stats.open_connections >= 1, "{stats:?}");

    let (health_tx, health_rx) = mpsc::channel();
    ep.on_health(move |ev| {
        let _ = health_tx.send(ev.to);
    });

    // Sever the link. Pongs black-hole, the wheel heartbeat misses twice,
    // declares the wire dead, and reconnection dials around the fault.
    partition.partition();
    let mut saw_disconnect = false;
    loop {
        match health_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(HealthState::Disconnected) => saw_disconnect = true,
            Ok(HealthState::Healthy) if saw_disconnect => break,
            Ok(_) => {}
            Err(e) => panic!("no recovery after partition: {e} (saw_disconnect={saw_disconnect})"),
        }
    }
    ep.ping(Duration::from_secs(5)).unwrap();
    let stats = ep.stats();
    assert_eq!(stats.reconnects, 1, "{stats:?}");
    assert!(stats.heartbeats_missed >= 2, "{stats:?}");
    ep.close();
    device.stop();
}

/// The room of the room tests.
const ROOM: &str = "board";

/// A device hosting one journaled room behind a TCP listener: a room hub,
/// a lease journal, and a patient heartbeat (no member of these tests
/// goes silent for long, so none may be taken for dead on a busy
/// machine). With `queue`, the device serves invocations and the room
/// fans out through it; without, both run inline.
fn journaled_room_device(
    dir: &Path,
    queue: Option<ServeQueue>,
) -> (Arc<DeviceJournal>, Arc<Room>, Arc<RoomHub>, ServedTcpDevice) {
    let fw = Framework::new();
    let journal = DeviceJournal::open(DeviceJournalConfig::new(dir)).unwrap();
    let room = journal.register_room(RoomConfig::new(ROOM), queue.clone(), room_clock_ms());
    let hub = RoomHub::new(RoomConfig::new(ROOM));
    hub.adopt(Arc::clone(&room));
    let _reg = register_room_hub(&fw, Arc::clone(&hub)).unwrap();
    let heartbeat = HeartbeatConfig {
        interval: Duration::from_millis(40),
        timeout: Duration::from_millis(250),
        degraded_after: 2,
        disconnected_after: 50,
    };
    let mut device = Device::new(fw)
        .rooms(Arc::clone(&hub), heartbeat)
        .lease_journal(journal.lease_journal().clone());
    if let Some(queue) = queue {
        device = device.queue(queue);
    }
    let device = device
        .serve_tcp(TcpNetListener::bind("127.0.0.1:0").unwrap())
        .unwrap();
    (journal, room, hub, device)
}

/// A room phone dialing `addr`: an endpoint over a TCP transport, a
/// replica fed by its event bus, and a probe that reports every update
/// after the replica has applied it (subscribers run in subscription
/// order).
fn room_phone(
    name: &str,
    addr: SocketAddr,
) -> (
    RemoteEndpoint,
    Arc<RoomReplica>,
    mpsc::Receiver<Option<RoomUpdate>>,
) {
    let fw = Framework::new();
    let replica = RoomReplica::new(ROOM);
    replica.attach(fw.event_admin());
    let (tx, updates) = mpsc::channel();
    fw.event_admin()
        .subscribe(room_update_topic(ROOM), move |event| {
            let _ = tx.send(RoomUpdate::from_properties(&event.properties));
        });
    let wire = TcpTransport::connect(addr).unwrap();
    let ep = RemoteEndpoint::establish(Box::new(wire), fw, EndpointConfig::named(name)).unwrap();
    (ep, replica, updates)
}

/// The cell of the listener × options matrix no device could serve
/// before the builder: a room hub and a lease journal behind a TCP
/// listener. Two phones share a room over real sockets; one walks away
/// and is evicted on the wheel-driven lease cadence; `stop()` closes the
/// survivor's endpoint without journaling it out of the room; a device
/// reopened on the same journal directory has the room as it was left.
#[test]
fn tcp_device_hosts_a_journaled_room() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    use alfredo_rosgi::HealthState;

    const ROUNDS: i64 = 20;
    let timeout = Duration::from_secs(5);
    let dir = std::env::temp_dir().join(format!("alfredo-tcp-room-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let boot = || journaled_room_device(&dir, None);
    let (journal, room, hub, device) = boot();
    let phone = |name: &str| room_phone(name, device.addr());
    let (alice, alice_replica, _alice_updates) = phone("alice");
    let (bob, bob_replica, bob_updates) = phone("bob");

    let call = |(who, ep): (&str, &RemoteEndpoint), method: &str, args: &[Value]| {
        let mut full = vec![Value::Str(ROOM.into()), Value::Str(who.into())];
        full.extend_from_slice(args);
        ep.invoke(ROOMS_INTERFACE, method, &full).unwrap()
    };
    let members = [("alice", &alice), ("bob", &bob)];
    assert_eq!(call(members[0], "join", &[]), Value::I64(1));
    assert_eq!(call(members[1], "join", &[]), Value::I64(2));
    for i in 0..2 * ROUNDS {
        let key = Value::Str(format!("k{}", i % 7));
        let seq = call(members[i as usize % 2], "publish", &[key, Value::I64(i)]);
        assert_eq!(seq, Value::I64(3 + i), "gap-free seqs");
    }
    // Every publish fanned out before it was acknowledged, and frames are
    // handled in order: once a ping is back, so is every delta before it.
    let last = 2 + 2 * ROUNDS as u64;
    assert_eq!(room.seq(), last);
    for (ep, replica) in [(&alice, &alice_replica), (&bob, &bob_replica)] {
        ep.ping(timeout).unwrap();
        assert_eq!(replica.last_seq(), last);
        assert_eq!(replica.state_json(), room.state_json(), "byte-identical");
        assert_eq!((replica.gaps(), replica.duplicates()), (0, 0));
    }

    // Alice walks away. Her endpoint's close expires her lease, the next
    // tick of the lease cadence evicts her, and Bob sees her presence go.
    alice.close();
    loop {
        let update = bob_updates.recv_timeout(timeout).expect("presence delta");
        if let Some(RoomUpdate::Delta(delta)) = update {
            if delta.key == presence_key("alice") {
                assert_eq!((delta.seq, &delta.op), (last + 1, &RoomOp::Remove));
                break;
            }
        }
    }
    assert_eq!(bob_replica.members(), vec!["bob"]);
    // (The counter is bumped just after the delta that Bob saw went out.)
    let deadline = std::time::Instant::now() + timeout;
    while room.stats().evicted != 1 {
        assert!(std::time::Instant::now() < deadline, "{:?}", room.stats());
        std::thread::yield_now();
    }

    // stop() closes the rostered endpoint: Bob's side sees the wire go.
    let (health_tx, health) = mpsc::channel();
    bob.on_health(move |ev| {
        let _ = health_tx.send(ev.to);
    });
    journal.barrier().unwrap();
    let state = room.state_json();
    device.stop();
    while health.recv_timeout(timeout).expect("bob's wire closes") != HealthState::Disconnected {}
    bob.join(); // the teardown that follows the wire going down
    assert!(bob.is_closed());
    // The hub outlives the device and holds on to none of its endpoints.
    assert!(format!("{hub:?}").contains("endpoints: 0"), "{hub:?}");
    drop(room);
    journal.close().unwrap();

    // Reopened on the same directory: same seq, same bytes, and Bob still
    // seated — closing his endpoint at stop() was not journaled as an
    // eviction.
    let (journal, room, _hub, device) = boot();
    let recovered = journal.recovery().rooms.get(ROOM).cloned().unwrap();
    assert_eq!(recovered.seq, last + 1);
    assert_eq!(recovered.members(), vec!["bob"]);
    assert_eq!(room.state_json(), state);
    device.stop();
    journal.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The device rosters a phone as its handshake completes, before it
/// dispatches any later frame of the connection, so a `join` sent right
/// after `establish` finds the phone's sink: no `Busy`, no retry. The
/// phone would retry a `Busy`, and count it; a hundred phones in a row
/// count none.
#[test]
fn room_join_right_after_establish_needs_no_retry() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    use alfredo_rosgi::RetryPolicy;

    let fw = Framework::new();
    let hub = RoomHub::new(RoomConfig::new("board"));
    let _registration = register_room_hub(&fw, Arc::clone(&hub)).unwrap();
    let device = Device::new(fw)
        .rooms(hub, HeartbeatConfig::default())
        .serve_tcp(TcpNetListener::bind("127.0.0.1:0").unwrap())
        .unwrap();
    let retry = RetryPolicy {
        max_retries: 3,
        ..RetryPolicy::default()
    };
    for round in 0..100 {
        let name = format!("phone-{round}");
        let wire = TcpTransport::connect(device.addr()).unwrap();
        let config = EndpointConfig::named(name.clone()).with_retry(retry);
        let phone = RemoteEndpoint::establish(Box::new(wire), Framework::new(), config).unwrap();
        let seat = [Value::from("board"), Value::from(name.as_str())];
        phone
            .invoke(ROOMS_INTERFACE, "join", &seat)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let stats = phone.stats();
        assert_eq!(
            (stats.busy_received, stats.retries),
            (0, 0),
            "round {round}: {stats:?}"
        );
        phone.invoke(ROOMS_INTERFACE, "leave", &seat).unwrap();
        phone.close();
    }
    device.stop();
}

/// Each side's handshake flight (`Hello`, `Lease`, `EventInterest`) is
/// three frames and leaves in one vectored write: an establish over TCP
/// costs two socket writes in all, one per side.
#[test]
fn establish_sends_each_flight_in_one_write() {
    let _alone = WIRE.write().unwrap_or_else(PoisonError::into_inner);
    let writes = alfredo_obs::global_metrics().counter("net.tcp.write_calls");
    for round in 0..20 {
        let listener = TcpNetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let (device_tx, device_rx) = mpsc::channel();
        let before = writes.get();
        let device = std::thread::spawn(move || {
            let wire = listener.accept().unwrap();
            let config = EndpointConfig::named("flight-dev");
            let device = RemoteEndpoint::establish(Box::new(wire), Framework::new(), config);
            device_tx.send(device.unwrap()).unwrap();
        });
        let wire = TcpTransport::connect(addr).unwrap();
        let config = EndpointConfig::named("flight-phone");
        let phone = RemoteEndpoint::establish(Box::new(wire), Framework::new(), config).unwrap();
        let device_ep = device_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        device.join().unwrap();
        assert_eq!(writes.get() - before, 2, "round {round}");
        assert_eq!(phone.stats().frames_sent, 3, "round {round}");
        assert_eq!(device_ep.stats().frames_sent, 3, "round {round}");
        phone.close();
        device_ep.close();
    }
}

/// A TCP relay in front of `target` whose target-to-client direction can
/// be plugged: while `plugged` is set it reads nothing from `target`, so
/// what `target` sends piles up in the socket buffers and then in the
/// target's outbox. Its threads end with the connection.
struct Plug {
    addr: SocketAddr,
    plugged: Arc<AtomicBool>,
    relay: std::thread::JoinHandle<()>,
}

fn plug_in_front_of(target: SocketAddr) -> Plug {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let plugged = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&plugged);
    let relay = std::thread::spawn(move || {
        let (client, _) = listener.accept().unwrap();
        let server = TcpStream::connect(target).unwrap();
        let (mut upstream_in, mut upstream_out) =
            (client.try_clone().unwrap(), server.try_clone().unwrap());
        let upstream = std::thread::spawn(move || {
            let _ = std::io::copy(&mut upstream_in, &mut upstream_out);
            let _ = upstream_out.shutdown(std::net::Shutdown::Write);
        });
        let (mut downstream_in, mut downstream_out) = (server, client);
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            while flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            match downstream_in.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if downstream_out.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = downstream_out.shutdown(std::net::Shutdown::Write);
        upstream.join().unwrap();
    });
    Plug {
        addr,
        plugged,
        relay,
    }
}

/// Waits until every job the queue took has run to its end.
fn settle(queue: &ServeQueue) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = queue.stats();
        if stats.served == stats.submitted {
            return;
        }
        assert!(Instant::now() < deadline, "queue never settled: {stats:?}");
        std::thread::yield_now();
    }
}

/// Backpressure over TCP with the publish delivering inline: one phone
/// stops reading until the device's outbox to it is full. The publisher
/// never waits on that wire (every publish returns), the plugged member
/// falls back to a queued drain and is coalesced, and the healthy phone
/// gets every delta in order. Unplugged, the plugged phone converges to
/// the room's bytes.
#[test]
fn a_plugged_phone_never_blocks_the_publisher_and_converges_once_unplugged() {
    let _wire = WIRE.read().unwrap_or_else(PoisonError::into_inner);
    let timeout = Duration::from_secs(5);
    let dir = std::env::temp_dir().join(format!("alfredo-tcp-plugged-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let queue = ServeQueue::new(ServeQueueConfig::workers(2));
    let (journal, room, _hub, device) = journaled_room_device(&dir, Some(queue.clone()));
    let plug = plug_in_front_of(device.addr());
    let (healthy, healthy_replica, _) = room_phone("healthy", device.addr());
    let (plugged, plugged_replica, _) = room_phone("plugged", plug.addr);
    for (name, ep) in [("healthy", &healthy), ("plugged", &plugged)] {
        let seat = [Value::from(ROOM), Value::from(name)];
        ep.invoke(ROOMS_INTERFACE, "join", &seat).unwrap();
    }
    plugged.ping(timeout).unwrap();
    assert_eq!(plugged_replica.last_seq(), 2);

    // 64 KiB values under four keys, published by the healthy phone until
    // the plugged member's backlog overflowed: its outbox is full and its
    // drain waits on a serve worker. Then as many again behind that.
    plug.plugged.store(true, Ordering::SeqCst);
    let value = Value::Str("v".repeat(64 * 1024));
    let publish = |i: u64| {
        let args = [
            Value::from(ROOM),
            Value::from("healthy"),
            Value::Str(format!("k{}", i % 4)),
            value.clone(),
        ];
        healthy.invoke(ROOMS_INTERFACE, "publish", &args).unwrap();
    };
    let mut published = 0u64;
    while room.stats().coalesced_snapshots == 0 {
        assert!(
            published < 5_000,
            "the outbox never filled: {:?}",
            room.stats()
        );
        publish(published);
        published += 1;
    }
    for _ in 0..100 {
        publish(published);
        published += 1;
    }
    healthy.ping(timeout).unwrap();
    assert_eq!(healthy_replica.last_seq(), room.seq());
    assert_eq!(healthy_replica.state_json(), room.state_json());
    assert_eq!(
        (healthy_replica.gaps(), healthy_replica.duplicates()),
        (0, 0)
    );
    // The join's snapshot, the plugged phone's presence, then each publish.
    assert_eq!(healthy_replica.snapshots_applied(), 1);
    assert_eq!(healthy_replica.deltas_applied(), 1 + published);
    assert_eq!(room.stats().busy_kicks, 0);

    plug.plugged.store(false, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(20);
    while plugged_replica.last_seq() != room.seq() {
        assert!(Instant::now() < deadline, "{plugged_replica:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        plugged_replica.state_json(),
        room.state_json(),
        "byte-identical"
    );
    assert_eq!(
        (plugged_replica.gaps(), plugged_replica.duplicates()),
        (0, 0)
    );
    assert!(
        plugged_replica.snapshots_applied() >= 2,
        "{plugged_replica:?}"
    );

    healthy.close();
    plugged.close();
    device.stop();
    queue.shutdown();
    plug.relay.join().unwrap();
    drop(room);
    journal.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A room tap in exact counts: with two TCP phones and six in-process
/// members in a queued room, each sequential tap delivers to both phones
/// on the publisher's thread (`room.delivered_inline` +2, the actor's own
/// echo included) and puts seven jobs on the serve queue: the invoke and
/// one drain per in-process member.
#[test]
fn a_room_tap_reaches_its_tcp_members_without_a_queue_hop() {
    let _alone = WIRE.write().unwrap_or_else(PoisonError::into_inner);
    const PASSIVE: usize = 6;
    const TAPS: usize = 40;
    let inline = alfredo_obs::global_metrics().counter("room.delivered_inline");
    let dir = std::env::temp_dir().join(format!("alfredo-tcp-counts-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let queue = ServeQueue::new(ServeQueueConfig::workers(2));
    let (journal, room, _hub, device) = journaled_room_device(&dir, Some(queue.clone()));
    let passive: Vec<Arc<RoomReplica>> = (0..PASSIVE)
        .map(|i| {
            let replica = RoomReplica::new(ROOM);
            let sink = Arc::new(ReplicaSink(Arc::clone(&replica)));
            room.join(&format!("passive-{i}"), sink, room_clock_ms());
            replica
        })
        .collect();
    let phones = [
        ("alice", room_phone("alice", device.addr())),
        ("bob", room_phone("bob", device.addr())),
    ];
    for (name, (ep, _, _)) in &phones {
        let seat = [Value::from(ROOM), Value::from(*name)];
        ep.invoke(ROOMS_INTERFACE, "join", &seat).unwrap();
    }
    for tap in 0..TAPS {
        settle(&queue);
        let (inline_before, submitted_before) = (inline.get(), queue.stats().submitted);
        let (name, (ep, _, _)) = &phones[tap % 2];
        let args = [
            Value::from(ROOM),
            Value::from(*name),
            Value::Str(format!("cursor/{name}")),
            Value::I64(tap as i64),
        ];
        ep.invoke(ROOMS_INTERFACE, "publish", &args).unwrap();
        settle(&queue);
        assert_eq!(inline.get() - inline_before, 2, "tap {tap}");
        assert_eq!(queue.stats().submitted - submitted_before, 7, "tap {tap}");
    }
    assert_eq!(room.stats().busy_kicks, 0);
    assert_eq!(room.stats().coalesced_snapshots, 0);
    for (_, (ep, replica, _)) in &phones {
        ep.ping(Duration::from_secs(5)).unwrap();
        assert_eq!(replica.state_json(), room.state_json());
    }
    for replica in &passive {
        assert_eq!(replica.state_json(), room.state_json());
    }

    for (_, (ep, _, _)) in &phones {
        ep.close();
    }
    device.stop();
    queue.shutdown();
    drop(room);
    journal.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
