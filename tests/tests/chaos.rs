//! Chaos harness: a full MouseController interaction over a faulty link.
//!
//! The phone drives the notebook's pointer through a transport that drops
//! 5% of its frames (seeded, so each seed is a reproducible fault
//! schedule) and suffers a full partition mid-session. The self-healing
//! stack — idempotent retries, heartbeat detection, reconnection with
//! proxy re-binding, and the session's queue-and-replay outage policy —
//! must absorb all of it: the final device state has to match a fault-free
//! run of the identical interaction script.
//!
//! Every chaos run additionally records a session journal (logical clock,
//! so the artifact is byte-deterministic). The journal is the seed's
//! reproduction recipe twice over: re-running the seed regenerates the
//! identical artifact bit for bit, and re-driving the artifact's executed
//! events against a fault-free stack reproduces the same final device
//! state.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_apps::{register_mouse_controller, MOUSE_INTERFACE};
use alfredo_core::session::ActionOutcome;
use alfredo_core::{
    decode_ui_event, record_executed, AlfredOEngine, Device, EngineConfig, EngineError,
    OutagePolicy, ResilienceConfig,
};
use alfredo_journal::{recover, JournalConfig};
use alfredo_net::{
    FaultPlan, FaultyTransport, InMemoryNetwork, PeerAddr, Transport, TransportError,
};
use alfredo_obs::{Obs, RingSink, SpanRecord};
use alfredo_osgi::{Framework, FromJson, Json, ServiceCallError, Value};
use alfredo_rosgi::{
    BreakerConfig, DiscoveryDirectory, HealthState, HeartbeatConfig, ReconnectFn, RetryPolicy,
    ERR_CIRCUIT_OPEN,
};
use alfredo_ui::{DeviceCapabilities, UiEvent};

/// What the interaction must deterministically produce, faults or not.
#[derive(Debug, PartialEq)]
struct FinalState {
    position: (i64, i64),
    clicks: u64,
    moves: u64,
}

fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(40),
            degraded_after: 1,
            disconnected_after: 3,
        },
        // Far longer than the outage: leases must survive reconnection.
        lease_ttl: Some(Duration::from_secs(10)),
        retry: RetryPolicy {
            max_retries: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(10),
        },
        reconnect_attempts: 40,
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

/// Where a chaos run's journal artifact lands (mirrors the trace-artifact
/// layout so CI uploads both on failure).
fn journal_dir(seed: u64, run: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../target/chaos-journal/seed-{seed}/{run}"))
}

/// Runs the scripted interaction; `seed: Some(..)` injects 5% frame drop
/// plus a mid-session partition, `None` is the fault-free baseline.
/// `journal` records the session timeline into that directory (wiped
/// first) with logical-clock timestamps, making the artifact
/// byte-deterministic for a given seed.
///
/// Chaos runs record every span on both endpoints into a shared ring
/// (returned for structural assertions after the connection drops); the
/// baseline runs with tracing disabled, proving the same interaction
/// works in both modes.
fn run_interaction(
    seed: Option<u64>,
    journal: Option<PathBuf>,
) -> (FinalState, Option<Arc<RingSink>>) {
    let (obs, ring) = match seed {
        Some(_) => {
            let (obs, ring) = Obs::ring(65_536);
            (obs, Some(ring))
        }
        None => (Obs::disabled(), None),
    };
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let (service, _reg) = register_mouse_controller(&device_fw, 1280, 800).unwrap();
    let device = Device::new(device_fw)
        .obs(obs.clone())
        .serve(&net, PeerAddr::new("laptop"))
        .unwrap();

    let mut config = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i())
        .with_resilience(resilience())
        .with_obs(obs);
    config.invoke_timeout = Duration::from_millis(200);
    if let Some(dir) = &journal {
        std::fs::remove_dir_all(dir).ok();
        // Logical clock: the artifact's bytes depend only on the event
        // sequence. No fsync: it only needs to outlive the process.
        config = config.with_journal(JournalConfig::new(dir).logical_clock().without_fsync());
    }
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        config,
    );

    // A lossy wire for the chaos run; redialing yields a clean link (the
    // partition is an outage of the *original* wire, and retries already
    // proved the drop handling during the lossy phase).
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("laptop"))
        .unwrap();
    let plan = match seed {
        Some(s) => FaultPlan::seeded(s).with_send_drop(0.05),
        None => FaultPlan::none(),
    };
    let faulty = FaultyTransport::new(Box::new(raw), plan);
    let partition = faulty.partition_handle();
    let dial: ReconnectFn = {
        let net = net.clone();
        let partition = partition.clone();
        Arc::new(move || {
            if partition.is_partitioned() {
                return Err(TransportError::Timeout);
            }
            net.connect(PeerAddr::new("phone"), PeerAddr::new("laptop"))
                .map(|t| Box::new(t) as Box<dyn Transport>)
        })
    };
    let conn = engine
        .connect_transport_with_redial(Box::new(faulty), dial)
        .unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();

    // Phase A — lossy but connected: a burst of absolute pointer warps.
    // `move_to` is idempotent-marked, so every dropped request is retried
    // until it lands; the device serves each warp exactly once.
    for i in 0..120i64 {
        let (x, y) = ((i * 37) % 1280, (i * 17) % 800);
        session
            .invoke(MOUSE_INTERFACE, "move_to", &[Value::I64(x), Value::I64(y)])
            .unwrap();
    }
    let pos = session.invoke(MOUSE_INTERFACE, "position", &[]).unwrap();
    assert_eq!(
        pos.field("x").and_then(Value::as_i64),
        Some(119 * 37 % 1280)
    );

    // Phase B — outage: the user keeps tapping the pad. Under faults the
    // session queues the taps; in the baseline they execute immediately.
    if seed.is_some() {
        partition.partition();
        wait_until(
            "heartbeat to declare the wire dead",
            Duration::from_secs(5),
            || session.health() == HealthState::Disconnected,
        );
        let unavailable = session.unavailable_controls();
        for control in ["up", "down", "left", "right", "click", "pad"] {
            assert!(
                unavailable.iter().any(|c| c == control),
                "{control} should be unavailable during the outage (got {unavailable:?})"
            );
        }
    }
    let taps = [
        UiEvent::Click {
            control: "right".into(),
        },
        UiEvent::Click {
            control: "click".into(),
        },
        UiEvent::Click {
            control: "up".into(),
        },
    ];
    for tap in &taps {
        let outcomes = session.handle_event(tap).unwrap();
        if seed.is_some() {
            assert!(
                matches!(outcomes.as_slice(), [ActionOutcome::Queued { .. }]),
                "taps during an outage must queue, got {outcomes:?}"
            );
        }
    }

    // Phase C — recovery: heal, wait for the reconnect to re-bind the
    // proxy, and replay the queued taps in order.
    if seed.is_some() {
        assert_eq!(session.pending_events(), taps.len());
        partition.heal();
        wait_until("endpoint to reconnect", Duration::from_secs(5), || {
            session.health() == HealthState::Healthy
        });
        let replayed = session.pump_events().unwrap();
        let invoked = replayed
            .iter()
            .filter(|o| matches!(o, ActionOutcome::Invoked { .. }))
            .count();
        assert_eq!(
            invoked,
            taps.len(),
            "every queued tap replays: {replayed:?}"
        );
        assert_eq!(session.pending_events(), 0);

        let stats = conn.endpoint().stats();
        assert!(stats.reconnects >= 1, "the outage must force a reconnect");
        assert!(stats.heartbeats_missed >= 3, "the heartbeat detected it");
        let transitions = session.health_transitions();
        let down = transitions
            .iter()
            .position(|t| t.to == HealthState::Disconnected)
            .expect("session observed the disconnect");
        assert!(
            transitions[down..]
                .iter()
                .any(|t| t.to == HealthState::Healthy),
            "session observed the recovery: {transitions:?}"
        );
    }

    let final_state = FinalState {
        position: service.position(),
        clicks: service.clicks(),
        moves: service.moves(),
    };
    if let Some(j) = engine.journal() {
        j.barrier().expect("journal flush");
    }
    session.close();
    conn.close();
    device.stop();
    (final_state, ring)
}

/// The artifact contract: the log parses completely, re-encodes to the
/// identical bytes, and contains the interaction's full session timeline.
fn assert_journal_artifact(seed: u64, dir: &Path) {
    let raw = std::fs::read_to_string(dir.join("log.jsonl")).expect("journal artifact exists");
    let recovery = recover(dir).expect("journal artifact parses");
    assert!(!recovery.torn_tail, "seed {seed}: artifact fully committed");
    let reencoded: String = recovery.records.iter().map(|r| r.encode()).collect();
    assert_eq!(
        reencoded, raw,
        "seed {seed}: records must re-encode to the artifact's exact bytes"
    );
    let invokes = recovery
        .records
        .iter()
        .filter(|r| r.event == "invoke")
        .count();
    assert_eq!(invokes, 121, "seed {seed}: phase A timeline journaled");
    let queued = recovery
        .records
        .iter()
        .filter(|r| r.event == "ui_event" && !record_executed(&Json::parse(&r.payload).unwrap()))
        .count();
    assert_eq!(queued, 3, "seed {seed}: the outage taps journal as queued");
}

/// Re-drives the artifact's executed events against a fault-free stack:
/// the deterministic-replay contract — no faults, no retries, same final
/// device state.
fn replay_from_artifact(dir: &Path) -> FinalState {
    let recovery = recover(dir).expect("artifact parses");
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let (service, _reg) = register_mouse_controller(&device_fw, 1280, 800).unwrap();
    let device = Device::new(device_fw)
        .serve(&net, PeerAddr::new("laptop"))
        .unwrap();
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
    );
    let conn = engine.connect(&PeerAddr::new("laptop")).unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();
    for record in &recovery.records {
        if record.stream != "session" {
            continue;
        }
        let payload = Json::parse(&record.payload).expect("payload parses");
        match record.event.as_str() {
            "invoke" => {
                let target = payload.get("service").and_then(Json::as_str).unwrap();
                let method = payload.get("method").and_then(Json::as_str).unwrap();
                let args: Vec<Value> = payload
                    .get("args")
                    .and_then(Json::as_arr)
                    .unwrap()
                    .iter()
                    .map(|a| Value::from_json(a).unwrap())
                    .collect();
                session.invoke(target, method, &args).unwrap();
            }
            // Only executed events re-drive: a queued tap's real run was
            // journaled again when the link healed.
            "ui_event" if record_executed(&payload) => {
                let event = decode_ui_event(&payload).expect("event decodes");
                session.handle_event(&event).unwrap();
            }
            _ => {}
        }
    }
    let final_state = FinalState {
        position: service.position(),
        clicks: service.clicks(),
        moves: service.moves(),
    };
    session.close();
    conn.close();
    device.stop();
    final_state
}

/// Structural assertions over the chaos run's trace: one connected tree
/// spanning both endpoints, with the fault handling (retried RPCs,
/// the reconnect) visible as child spans. Always writes the JSONL
/// artifact first, so a failing assertion leaves the evidence on disk
/// for CI to upload.
fn assert_chaos_trace(seed: u64, ring: &RingSink) {
    let spans = ring.snapshot();
    let artifact = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../target/chaos-traces/chaos-seed-{seed}.jsonl"));
    ring.write_jsonl(&artifact).expect("write chaos trace");

    let interactions: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "interaction").collect();
    assert_eq!(interactions.len(), 1, "seed {seed}: one interaction root");
    let trace = interactions[0].trace_id;
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace).collect();
    let ids: std::collections::HashSet<u64> = in_trace.iter().map(|s| s.span_id).collect();

    // Connected: every non-root span's parent lives in the same trace.
    for span in &in_trace {
        match span.parent_id {
            None => assert_eq!(span.span_id, interactions[0].span_id),
            Some(p) => assert!(
                ids.contains(&p),
                "seed {seed}: span {} is orphaned from the tree",
                span.name
            ),
        }
    }

    let count = |prefix: &str| {
        in_trace
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    };
    // Phase A alone issues 121 session invokes; under 5% frame drop the
    // retries show up as *extra* rpc attempt spans beneath them.
    let invokes = count("invoke:");
    let rpcs = count("rpc:");
    assert!(invokes >= 121, "seed {seed}: {invokes} invoke spans");
    assert!(
        rpcs > invokes,
        "seed {seed}: retries must add rpc spans beyond the {invokes} invokes (got {rpcs})"
    );
    // The device's serves joined the same trace across the lossy wire.
    assert!(
        count("serve:") >= 121,
        "seed {seed}: device serves in-trace"
    );
    // The partition's recovery is a span too, hanging off the interaction.
    let reconnects: Vec<&&SpanRecord> = in_trace.iter().filter(|s| s.name == "reconnect").collect();
    assert!(
        !reconnects.is_empty(),
        "seed {seed}: reconnect span present"
    );
    for r in &reconnects {
        assert_eq!(
            r.parent_id,
            Some(interactions[0].span_id),
            "seed {seed}: reconnects are children of the interaction"
        );
    }
    assert_eq!(
        count("handshake"),
        1,
        "seed {seed}: the initial handshake is in-trace"
    );
}

fn chaos_matches_baseline(seed: u64) {
    let (baseline, no_ring) = run_interaction(None, None);
    assert!(no_ring.is_none());
    assert_eq!(baseline.clicks, 1);
    let dir = journal_dir(seed, "run");
    let (chaotic, ring) = run_interaction(Some(seed), Some(dir.clone()));
    assert_eq!(
        chaotic, baseline,
        "seed {seed}: a faulty run must converge to the fault-free state"
    );
    // The journal artifact is checked *before* the trace assertions so a
    // trace failure still leaves a validated reproduction recipe on disk.
    assert_journal_artifact(seed, &dir);
    assert_chaos_trace(seed, &ring.expect("chaos runs record spans"));
}

#[test]
fn chaos_seed_7_converges() {
    chaos_matches_baseline(7);
}

#[test]
fn chaos_seed_1984_converges() {
    chaos_matches_baseline(1984);
}

#[test]
fn chaos_seed_cafe_converges() {
    chaos_matches_baseline(0xCAFE);
}

/// Breaker seed: under a partition the circuit opens after consecutive
/// invoke timeouts and fast-fails further calls locally; after the heal a
/// heartbeat-piggybacked half-open probe re-closes it. The heartbeat is
/// tuned to degrade but never declare the wire dead, so recovery comes
/// from the probe path, not a redial — and the session still converges to
/// the fault-free final state.
#[test]
fn chaos_breaker_trips_and_recovers() {
    fn run(partitioned: bool) -> FinalState {
        let net = InMemoryNetwork::new();
        let device_fw = Framework::new();
        let (service, _reg) = register_mouse_controller(&device_fw, 1280, 800).unwrap();
        let device = Device::new(device_fw)
            .serve(&net, PeerAddr::new("laptop"))
            .unwrap();

        let resilience = ResilienceConfig {
            heartbeat: HeartbeatConfig {
                interval: Duration::from_millis(25),
                timeout: Duration::from_millis(40),
                degraded_after: 1,
                // Never Disconnected: the wire must stay adopted so the
                // breaker's own probe — not a reconnect — is what heals.
                disconnected_after: u32::MAX,
            },
            lease_ttl: None,
            retry: RetryPolicy {
                max_retries: 4,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                deadline: Duration::from_secs(5),
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
            },
            outage_policy: OutagePolicy::Replay,
            ..ResilienceConfig::default()
        };
        let mut config = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i())
            .with_resilience(resilience);
        config.invoke_timeout = Duration::from_millis(100);
        let engine = AlfredOEngine::new(
            Framework::new(),
            net.clone(),
            DiscoveryDirectory::new(),
            config,
        );

        let raw = net
            .connect(PeerAddr::new("phone"), PeerAddr::new("laptop"))
            .unwrap();
        let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
        let partition = faulty.partition_handle();
        let dial: ReconnectFn = Arc::new(|| Err(TransportError::Timeout));
        let conn = engine
            .connect_transport_with_redial(Box::new(faulty), dial)
            .unwrap();
        let session = conn.acquire(MOUSE_INTERFACE).unwrap();

        // Phase A — healthy: a burst of absolute warps.
        for i in 0..20i64 {
            let (x, y) = ((i * 37) % 1280, (i * 17) % 800);
            session
                .invoke(MOUSE_INTERFACE, "move_to", &[Value::I64(x), Value::I64(y)])
                .unwrap();
        }

        if partitioned {
            partition.partition();
            wait_until(
                "heartbeat to degrade the wire",
                Duration::from_secs(5),
                || session.health() == HealthState::Degraded,
            );

            // Doomed call #1: two timed-out attempts trip the breaker
            // (threshold 2); the third attempt fast-fails on the open
            // circuit and that rejection is what the caller sees. The
            // black-holed frames never reach the device, so the warp
            // never executes and the baseline stays comparable.
            let out = session.invoke(MOUSE_INTERFACE, "move_to", &[Value::I64(1), Value::I64(1)]);
            assert!(
                matches!(
                    &out,
                    Err(EngineError::Call(ServiceCallError::Remote(m))) if m == ERR_CIRCUIT_OPEN
                ),
                "tripped breaker must fast-fail the call: {out:?}"
            );
            let stats = conn.endpoint().stats();
            assert_eq!(stats.breaker_state, 1, "circuit open: {stats:?}");
            assert!(stats.breaker_fast_fails >= 1, "{stats:?}");

            // Doomed call #2 burns no retries at all — the breaker answers
            // locally before any frame is sent.
            let retries_before = conn.endpoint().stats().retries;
            let out = session.invoke(MOUSE_INTERFACE, "move_to", &[Value::I64(2), Value::I64(2)]);
            assert!(
                matches!(
                    &out,
                    Err(EngineError::Call(ServiceCallError::Remote(m))) if m == ERR_CIRCUIT_OPEN
                ),
                "open circuit keeps fast-failing: {out:?}"
            );
            assert_eq!(conn.endpoint().stats().retries, retries_before);
        }

        // Taps: executed live in the baseline, queued behind the degraded
        // link in the chaotic run.
        let taps = [
            UiEvent::Click {
                control: "right".into(),
            },
            UiEvent::Click {
                control: "click".into(),
            },
            UiEvent::Click {
                control: "up".into(),
            },
        ];
        for tap in &taps {
            let outcomes = session.handle_event(tap).unwrap();
            if partitioned {
                assert!(
                    matches!(outcomes.as_slice(), [ActionOutcome::Queued { .. }]),
                    "taps during the open-circuit outage must queue: {outcomes:?}"
                );
            }
        }

        if partitioned {
            partition.heal();
            // The next heartbeat tick after the cooldown turns the circuit
            // half-open and doubles as the probe; its pong closes it.
            wait_until(
                "half-open probe to re-close the circuit",
                Duration::from_secs(5),
                || conn.endpoint().stats().breaker_state == 0,
            );
            wait_until("health to recover", Duration::from_secs(5), || {
                session.health() == HealthState::Healthy
            });
            let stats = conn.endpoint().stats();
            assert_eq!(
                stats.reconnects, 0,
                "recovery must come from the probe, not a redial: {stats:?}"
            );
            let replayed = session.pump_events().unwrap();
            let invoked = replayed
                .iter()
                .filter(|o| matches!(o, ActionOutcome::Invoked { .. }))
                .count();
            assert_eq!(invoked, taps.len(), "queued taps replay: {replayed:?}");
            assert_eq!(session.pending_events(), 0);
        }

        let final_state = FinalState {
            position: service.position(),
            clicks: service.clicks(),
            moves: service.moves(),
        };
        session.close();
        conn.close();
        device.stop();
        final_state
    }

    let baseline = run(false);
    assert_eq!(baseline.clicks, 1);
    let chaotic = run(true);
    assert_eq!(
        chaotic, baseline,
        "breaker trip + probe recovery must converge to the fault-free state"
    );
}

/// Room chaos: a member partitions mid-session, the room evicts it when
/// the heartbeat health machine expires its lease, the surviving members
/// keep publishing, and the partitioned member rejoins through the PR 3
/// redial path — converging from a fresh snapshot, never from replayed
/// backlog. The device journals every room delta; after the run, a cold
/// reopen of the journal must reconstruct the room's exact final bytes,
/// making the artifact (left under `target/chaos-journal/` for CI) the
/// run's reproduction recipe.
///
/// The wire is seeded-lossy (2% frame drop) on top of the partition:
/// `join`/`renew`/`seq` retry on the idempotent budget, while dropped
/// `publish` calls are retried by the caller — safe here because every
/// write is an absolute `Put`, so a duplicated retry is a no-op on state.
fn room_chaos_run(seed: u64) {
    use alfredo_core::{
        register_room_hub, room_clock_ms, Device, DeviceJournal, DeviceJournalConfig, RoomConfig,
        RoomHub, RoomReplica, PRESENCE_PREFIX, ROOMS_INTERFACE,
    };

    let dir = journal_dir(seed, "room-device");
    std::fs::remove_dir_all(&dir).ok();
    let net = InMemoryNetwork::new();

    // ---- Device: journaled room behind the heartbeat-driven hub.
    let journal = DeviceJournal::open(
        DeviceJournalConfig::new(&dir)
            .logical_clock()
            .without_fsync(),
    )
    .unwrap();
    let room = journal.register_room(
        RoomConfig::new("board").with_lease_ttl_ms(300),
        None,
        room_clock_ms(),
    );
    let hub = RoomHub::new(RoomConfig::new("board"));
    hub.adopt(Arc::clone(&room));
    let device_fw = Framework::new();
    let _reg = register_room_hub(&device_fw, Arc::clone(&hub)).unwrap();
    let heartbeat = HeartbeatConfig {
        interval: Duration::from_millis(25),
        timeout: Duration::from_millis(40),
        degraded_after: 1,
        disconnected_after: 3,
    };
    let device = Device::new(device_fw)
        .rooms(Arc::clone(&hub), heartbeat)
        .lease_journal(journal.lease_journal().clone())
        .serve(&net, PeerAddr::new("screen"))
        .unwrap();

    // ---- Two phones; Alice's wire is the seeded-lossy, partitionable one.
    let phone = |name: &str, plan: FaultPlan| {
        let fw = Framework::new();
        let replica = RoomReplica::new("board");
        replica.attach(fw.event_admin());
        // The outage spans the eviction plus the survivor's publishing
        // spree — give the redial loop a far longer budget than the
        // scripted interaction needs.
        let mut resilience = resilience();
        resilience.reconnect_attempts = 400;
        let mut config = EngineConfig::phone(name, DeviceCapabilities::nokia_9300i())
            .with_resilience(resilience);
        config.invoke_timeout = Duration::from_millis(200);
        let engine = AlfredOEngine::new(fw, net.clone(), DiscoveryDirectory::new(), config);
        let raw = net
            .connect(PeerAddr::new(name), PeerAddr::new("screen"))
            .unwrap();
        let faulty = FaultyTransport::new(Box::new(raw), plan);
        let partition = faulty.partition_handle();
        let dial: ReconnectFn = {
            let net = net.clone();
            let partition = partition.clone();
            let name = name.to_owned();
            Arc::new(move || {
                if partition.is_partitioned() {
                    return Err(TransportError::Timeout);
                }
                net.connect(PeerAddr::new(&name), PeerAddr::new("screen"))
                    .map(|t| Box::new(t) as Box<dyn Transport>)
            })
        };
        let conn = engine
            .connect_transport_with_redial(Box::new(faulty), dial)
            .unwrap();
        (engine, conn, replica, partition)
    };
    let (_alice_engine, alice, alice_rep, alice_partition) =
        phone("alice", FaultPlan::seeded(seed).with_send_drop(0.02));
    let (_bob_engine, bob, bob_rep, _bob_partition) = phone("bob", FaultPlan::none());

    // Joins are idempotent server-side (a rejoin just refreshes the seat
    // and re-snapshots), so the caller retries them through drop-induced
    // timeouts like any at-least-once client would.
    let join = |conn: &alfredo_core::AlfredOConnection, member: &str| {
        for _ in 0..20 {
            if conn
                .endpoint()
                .invoke(
                    ROOMS_INTERFACE,
                    "join",
                    &[Value::Str("board".into()), Value::Str(member.into())],
                )
                .is_ok()
            {
                return;
            }
        }
        panic!("join as {member} never landed");
    };
    // Publishes survive the lossy wire by caller-side retry (absolute
    // Puts: a duplicate is harmless).
    let publish = |conn: &alfredo_core::AlfredOConnection, member: &str, key: &str, v: i64| {
        for _ in 0..20 {
            if conn
                .endpoint()
                .invoke(
                    ROOMS_INTERFACE,
                    "publish",
                    &[
                        Value::Str("board".into()),
                        Value::Str(member.into()),
                        Value::Str(key.into()),
                        Value::I64(v),
                    ],
                )
                .is_ok()
            {
                return;
            }
        }
        panic!("publish {key}={v} as {member} never landed");
    };

    // ---- Phase A: both members in, both publishing over the lossy wire.
    join(&alice, "alice");
    join(&bob, "bob");
    for i in 0..25i64 {
        publish(&alice, "alice", "cursor/alice", i);
        publish(&bob, "bob", "cursor/bob", i * 2);
    }
    wait_until(
        "both replicas to converge on phase A",
        Duration::from_secs(10),
        || {
            let expected = room.state_json();
            alice_rep.state_json() == expected && bob_rep.state_json() == expected
        },
    );

    // ---- Phase B: Alice partitions; the heartbeat health machine stops
    // her lease renewals and the hub evicts her seat on expiry.
    alice_partition.partition();
    wait_until(
        "the room to evict the partitioned member",
        Duration::from_secs(10),
        // The counter moves after the seat is gone: waiting on the seat
        // alone could read the counter in between.
        || room.stats().evicted >= 1,
    );
    assert!(!room.is_member("alice"), "{:?}", room.stats());
    // Presence is sequenced state: Bob *observes* the eviction.
    wait_until(
        "the survivor to observe the presence removal",
        Duration::from_secs(10),
        || bob_rep.get(&format!("{PRESENCE_PREFIX}alice")).is_none(),
    );
    // The room keeps moving without her.
    for i in 0..15i64 {
        publish(&bob, "bob", "cursor/bob", 100 + i);
        publish(&bob, "bob", &format!("trail/{i}"), i);
    }
    let seq_during_outage = room.seq();

    // ---- Phase C: heal; Alice redials, rejoins, and converges from the
    // join snapshot plus subsequent deltas — she must never see a gap.
    alice_partition.heal();
    wait_until(
        "alice to redial into the device",
        Duration::from_secs(10),
        || alice.endpoint().health() == HealthState::Healthy,
    );
    assert!(alice.endpoint().stats().reconnects >= 1);
    join(&alice, "alice");
    assert!(room.is_member("alice"), "rejoin restores the seat");
    publish(&alice, "alice", "cursor/alice", 999);
    wait_until(
        "everyone to converge after the rejoin",
        Duration::from_secs(10),
        || {
            let expected = room.state_json();
            alice_rep.state_json() == expected && bob_rep.state_json() == expected
        },
    );
    assert!(
        alice_rep.last_seq() > seq_during_outage,
        "alice's replica caught up past the outage window"
    );
    assert_eq!(
        alice_rep.gaps(),
        0,
        "the rejoin snapshot covers the missed deltas — no gap ever surfaces"
    );
    assert!(
        alice_rep.snapshots_applied() >= 2,
        "alice converged via snapshots (join + rejoin), not replayed backlog"
    );
    assert_eq!(bob_rep.gaps(), 0, "the survivor's stream stayed gap-free");
    assert_eq!(bob_rep.duplicates(), 0);
    let members = bob_rep.members();
    assert_eq!(members, vec!["alice", "bob"], "presence reconverged");

    // ---- Replay: a cold reopen of the journal reconstructs the exact
    // final bytes — the artifact under target/chaos-journal is the run's
    // reproduction recipe.
    let final_state = room.state_json();
    let final_seq = room.seq();
    journal.barrier().unwrap();
    alice.close();
    bob.close();
    device.stop();
    drop(journal); // crash-style: no clean close, the barrier is all we rely on

    let reopened = DeviceJournal::open(
        DeviceJournalConfig::new(&dir)
            .logical_clock()
            .without_fsync(),
    )
    .unwrap();
    let recovered = reopened
        .recovery()
        .rooms
        .get("board")
        .expect("room recovered from the chaos journal");
    assert_eq!(recovered.seq, final_seq, "seed {seed}: seq replays exactly");
    let rebuilt = reopened.register_room(RoomConfig::new("board"), None, room_clock_ms());
    assert_eq!(
        rebuilt.state_json(),
        final_state,
        "seed {seed}: journal replay reconstructs the room byte for byte"
    );
    let mut roster = recovered.members();
    roster.sort();
    assert_eq!(roster, vec!["alice", "bob"], "seed {seed}: seats re-armed");
    reopened.close().unwrap();
}

#[test]
fn chaos_room_partition_evicts_then_rejoin_converges_seed_7() {
    room_chaos_run(7);
}

#[test]
fn chaos_room_partition_evicts_then_rejoin_converges_seed_cafe() {
    room_chaos_run(0xCAFE);
}

/// The deterministic-replay contract, end to end: the same seed writes
/// the same artifact byte for byte, and re-driving the artifact's
/// executed events on a fault-free stack lands on the same final device
/// state — a failing seed's journal is its reproduction recipe.
#[test]
fn chaos_journal_replays_bit_exact() {
    let seed = 7;
    let dir_a = journal_dir(seed, "replay-a");
    let dir_b = journal_dir(seed, "replay-b");
    let (state_a, _) = run_interaction(Some(seed), Some(dir_a.clone()));
    let (state_b, _) = run_interaction(Some(seed), Some(dir_b.clone()));
    assert_eq!(state_a, state_b, "seeded runs are deterministic");

    let log_a = std::fs::read(dir_a.join("log.jsonl")).unwrap();
    let log_b = std::fs::read(dir_b.join("log.jsonl")).unwrap();
    assert!(!log_a.is_empty());
    assert_eq!(
        log_a, log_b,
        "same seed, same artifact — bit-exact under the logical clock"
    );

    let replayed = replay_from_artifact(&dir_a);
    assert_eq!(
        replayed, state_a,
        "fault-free replay of the artifact reproduces the chaotic run's state"
    );
}
