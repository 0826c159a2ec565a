//! Crash recovery, end to end: a phone pushes 10k journaled data-tier
//! mutations into a target device, the device's in-memory state is killed
//! mid-session, and a restarted device — same address, state rebuilt from
//! its durability directory — serves the *same* phone session after the
//! PR 3 redial path reconnects it. Zero acknowledged mutations are lost:
//! the pre-crash `barrier()` is the acknowledgment watermark, and every
//! mutation at or below it survives bit-for-bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_core::{
    AlfredOEngine, Device, DeviceJournal, DeviceJournalConfig, EngineConfig, OutagePolicy,
    ResilienceConfig, ServedDevice,
};
use alfredo_net::{
    FaultPlan, FaultyTransport, InMemoryNetwork, PeerAddr, Transport, TransportError,
};
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{DiscoveryDirectory, HealthState, HeartbeatConfig, ReconnectFn, RetryPolicy};
use alfredo_ui::DeviceCapabilities;

const STORE: &str = "telemetry";
const INTERFACE: &str = "alfredo.data.telemetry";
const EVENTS: u64 = 10_000;
const KEYS: u64 = 512;

fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        // Generous timeout: this test is about crash recovery, not
        // heartbeat sharpness — a scheduler stall on a loaded single-core
        // runner must not declare the wire dead mid-mutation-loop.
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(40),
            timeout: Duration::from_millis(250),
            degraded_after: 2,
            disconnected_after: 4,
        },
        lease_ttl: Some(Duration::from_secs(30)),
        retry: RetryPolicy {
            max_retries: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(10),
        },
        reconnect_attempts: 100,
        reconnect_backoff: Duration::from_millis(15),
        outage_policy: OutagePolicy::Replay,
        ..ResilienceConfig::default()
    }
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Boots a device instance on `addr`: durability directory opened (and
/// replayed), journaled store registered, durable serving started.
fn boot_device(
    net: &InMemoryNetwork,
    dir: &std::path::Path,
    addr: &str,
) -> (
    Arc<DeviceJournal>,
    Arc<alfredo_core::DataStore>,
    ServedDevice,
) {
    let fw = Framework::new();
    let journal = DeviceJournal::open(
        DeviceJournalConfig::new(dir).with_snapshot_every(2048), // mid-run snapshots
    )
    .unwrap();
    let (store, _reg) = journal.register_store(&fw, STORE).unwrap();
    let device = Device::new(fw)
        .lease_journal(journal.lease_journal().clone())
        .serve(net, PeerAddr::new(addr))
        .unwrap();
    (journal, store, device)
}

#[test]
fn device_crash_recovers_10k_events_and_phone_resumes() {
    let dir = std::env::temp_dir().join(format!("alfredo-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let net = InMemoryNetwork::new();

    // ---- First device incarnation.
    let (journal_a, store_a, device_a) = boot_device(&net, &dir, "screen");

    // Phone: resilient connection over a partitionable wire, redial
    // refusing to dial while "the device is down".
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i())
            .with_resilience(resilience()),
    );
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("screen"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();
    let dial: ReconnectFn = {
        let net = net.clone();
        let partition = partition.clone();
        Arc::new(move || {
            if partition.is_partitioned() {
                return Err(TransportError::Timeout);
            }
            net.connect(PeerAddr::new("phone"), PeerAddr::new("screen"))
                .map(|t| Box::new(t) as Box<dyn Transport>)
        })
    };
    let conn = engine
        .connect_transport_with_redial(Box::new(faulty), dial)
        .unwrap();
    let ep = conn.endpoint_handle();
    // Leasing the store journals the grant — after the crash, recovery
    // knows this phone held this service.
    ep.fetch_service(INTERFACE).unwrap();

    // ---- 10k mutations over the live RPC path.
    for i in 0..EVENTS {
        let version = ep
            .invoke(
                INTERFACE,
                "put",
                &[Value::from(format!("k{}", i % KEYS)), Value::I64(i as i64)],
            )
            .unwrap();
        assert_eq!(version, Value::I64((i + 1) as i64));
    }
    // The acknowledgment watermark: everything enqueued so far is on disk
    // once the barrier returns. "Acknowledged" mutations are exactly
    // these — and none may be lost.
    journal_a.barrier().unwrap();
    assert_eq!(store_a.version(), EVENTS);

    // ---- Crash: partition the phone's wire, then kill every piece of
    // device state. Only the durability directory survives.
    partition.partition();
    wait_until("phone to notice the outage", Duration::from_secs(5), || {
        ep.health() == HealthState::Disconnected
    });
    device_a.stop();
    drop(store_a);
    drop(journal_a); // no clean close: the barrier is all the durability we get

    // ---- Restart on the same address, state rebuilt from the journal.
    let (journal_b, store_b, device_b) = boot_device(&net, &dir, "screen");
    let recovery = journal_b.recovery().clone();
    assert!(
        recovery.data_records < EVENTS,
        "snapshot cadence must have truncated the log (replayed {} records)",
        recovery.data_records
    );
    // Zero lost acknowledged mutations, bit for bit.
    assert_eq!(store_b.version(), EVENTS);
    assert_eq!(store_b.len() as u64, KEYS);
    for j in 0..KEYS {
        // Last write to k{j} was the largest i < EVENTS with i % KEYS == j.
        let last = (EVENTS - 1 - j) / KEYS * KEYS + j;
        assert_eq!(
            store_b.get(&format!("k{j}")),
            Some((Value::I64(last as i64), last + 1)),
            "key k{j} must recover its final acknowledged write"
        );
    }
    // The lease journal knows who was holding what.
    let grant = recovery
        .lease_grants
        .iter()
        .find(|g| g.peer == "phone")
        .expect("recovered lease grants include the phone");
    assert!(
        grant.interfaces.iter().any(|i| i == INTERFACE),
        "the phone's store lease was recovered: {grant:?}"
    );

    // ---- Heal: the phone redials (PR 3 path) and *resumes* — same
    // endpoint, same proxies, no re-fetch — against recovered state.
    partition.heal();
    wait_until(
        "phone to redial into the restarted device",
        Duration::from_secs(5),
        || ep.health() == HealthState::Healthy,
    );
    assert!(ep.stats().reconnects >= 1);
    let read = ep.invoke(INTERFACE, "get", &[Value::from("k0")]).unwrap();
    assert_eq!(
        read,
        Value::I64(((EVENTS - 1) / KEYS * KEYS) as i64),
        "a pre-crash write reads back through the resumed session"
    );
    // New mutations continue the version sequence where the log left off.
    let version = ep
        .invoke(INTERFACE, "put", &[Value::from("post"), Value::I64(-1)])
        .unwrap();
    assert_eq!(version, Value::I64((EVENTS + 1) as i64));
    assert_eq!(store_b.get("post"), Some((Value::I64(-1), EVENTS + 1)));

    conn.close();
    device_b.stop();
    journal_b.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Room crash recovery: the device dies mid-room-session and a cold
/// restart rebuilds the room from its journal — same state bytes, same
/// sequence counter, membership leases re-armed for the TTL-bounded
/// rejoin window. The phone redials, rejoins, and the resumed event log
/// hands out exactly the next seqs: no acknowledged delta is lost, none
/// is duplicated.
#[test]
fn device_crash_mid_room_session_resumes_sequencing_and_leases() {
    use alfredo_core::{
        register_room_hub, room_clock_ms, Device, RoomConfig, RoomHub, RoomReplica, ROOMS_INTERFACE,
    };

    const ROOM: &str = "board";
    const PRE_CRASH: i64 = 100;
    const POST_CRASH: i64 = 50;

    let dir = std::env::temp_dir().join(format!("alfredo-room-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let net = InMemoryNetwork::new();

    // Boots a device incarnation: journal opened (and replayed), the
    // recovered room adopted into a heartbeat-driven hub, rooms served.
    let boot = |net: &InMemoryNetwork| {
        let fw = Framework::new();
        let journal = DeviceJournal::open(DeviceJournalConfig::new(&dir)).unwrap();
        let room = journal.register_room(RoomConfig::new(ROOM), None, room_clock_ms());
        let hub = RoomHub::new(RoomConfig::new(ROOM));
        hub.adopt(Arc::clone(&room));
        let _reg = register_room_hub(&fw, Arc::clone(&hub)).unwrap();
        // Tolerant device-side heartbeat: the crash in this test is the
        // device's, and the partition window must not race an eviction
        // into the journal before the stop lands.
        let heartbeat = HeartbeatConfig {
            interval: Duration::from_millis(40),
            timeout: Duration::from_millis(250),
            degraded_after: 2,
            disconnected_after: 50,
        };
        let device = Device::new(fw)
            .rooms(hub, heartbeat)
            .lease_journal(journal.lease_journal().clone())
            .serve(net, PeerAddr::new("screen"))
            .unwrap();
        (journal, room, device)
    };

    // ---- First incarnation: a phone joins and streams deltas.
    let (journal_a, room_a, device_a) = boot(&net);

    let phone_fw = Framework::new();
    let replica = RoomReplica::new(ROOM);
    replica.attach(phone_fw.event_admin());
    let engine = AlfredOEngine::new(
        phone_fw,
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i())
            .with_resilience(resilience()),
    );
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("screen"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();
    let dial: ReconnectFn = {
        let net = net.clone();
        let partition = partition.clone();
        Arc::new(move || {
            if partition.is_partitioned() {
                return Err(TransportError::Timeout);
            }
            net.connect(PeerAddr::new("phone"), PeerAddr::new("screen"))
                .map(|t| Box::new(t) as Box<dyn Transport>)
        })
    };
    let conn = engine
        .connect_transport_with_redial(Box::new(faulty), dial)
        .unwrap();
    let ep = conn.endpoint_handle();

    let call = |method: &str, args: &[Value]| {
        let mut full = vec![Value::Str(ROOM.into()), Value::Str("phone".into())];
        full.extend_from_slice(args);
        ep.invoke(ROOMS_INTERFACE, method, &full).unwrap()
    };
    call("join", &[]);
    for i in 0..PRE_CRASH {
        let seq = call(
            "publish",
            &[Value::Str(format!("k{}", i % 7)), Value::I64(i)],
        );
        // Presence delta is seq 1; the i-th publish is acknowledged as
        // seq i+2. These acknowledged seqs are what must survive.
        assert_eq!(seq, Value::I64(i + 2));
    }
    // The acknowledgment watermark: every delta at or below it must
    // survive the crash.
    journal_a.barrier().unwrap();
    let pre_crash_seq = room_a.seq();
    assert_eq!(pre_crash_seq, PRE_CRASH as u64 + 1);
    let pre_crash_state = room_a.state_json();
    wait_until(
        "the member replica to converge",
        Duration::from_secs(5),
        || replica.last_seq() == pre_crash_seq,
    );

    // ---- Crash: sever the wire and kill every piece of device state
    // before the health machine can journal an eviction. Only the
    // durability directory survives.
    partition.partition();
    device_a.stop();
    drop(room_a);
    drop(journal_a); // no clean close: the barrier is all the durability we get
    wait_until(
        "the phone to notice the outage",
        Duration::from_secs(5),
        || ep.health() == HealthState::Disconnected,
    );

    // ---- Second incarnation: the room is rebuilt from the journal.
    let (journal_b, room_b, device_b) = boot(&net);
    let recovered = journal_b
        .recovery()
        .rooms
        .get(ROOM)
        .cloned()
        .expect("room recovered from the journal");
    assert_eq!(
        recovered.seq, pre_crash_seq,
        "the sequence counter replays to the acknowledgment watermark"
    );
    assert_eq!(
        recovered.replayed, pre_crash_seq,
        "every acknowledged delta (presence + publishes) replayed"
    );
    assert_eq!(recovered.members(), vec!["phone"], "roster recovered");
    assert_eq!(
        room_b.state_json(),
        pre_crash_state,
        "the rebuilt room is byte-identical at the watermark"
    );
    // Leases re-arm on recovery: the seat survives, sinkless, awaiting a
    // rejoin within a fresh TTL.
    assert!(room_b.is_member("phone"), "membership lease re-armed");

    // ---- The phone redials into the restarted device and rejoins; the
    // log resumes at exactly the next seq.
    partition.heal();
    wait_until("the phone to redial", Duration::from_secs(5), || {
        ep.health() == HealthState::Healthy
    });
    call("join", &[]);
    for i in 0..POST_CRASH {
        let seq = call(
            "publish",
            &[Value::Str(format!("k{}", i % 7)), Value::I64(1000 + i)],
        );
        assert_eq!(
            seq,
            Value::I64(pre_crash_seq as i64 + 1 + i),
            "the resumed log hands out contiguous seqs — nothing lost, nothing duplicated"
        );
    }
    // The rejoin was a seat refresh, not a new join: no extra presence
    // delta, so the final seq is exactly watermark + POST_CRASH.
    assert_eq!(room_b.seq(), pre_crash_seq + POST_CRASH as u64);
    wait_until(
        "the replica to converge post-crash",
        Duration::from_secs(5),
        || replica.last_seq() == room_b.seq(),
    );
    assert_eq!(
        replica.state_json(),
        room_b.state_json(),
        "the member reconstructs the resumed room byte for byte"
    );
    assert_eq!(replica.gaps(), 0, "the rejoin snapshot bridges the crash");
    assert_eq!(replica.duplicates(), 0, "no delta was ever re-delivered");

    conn.close();
    device_b.stop();
    journal_b.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
