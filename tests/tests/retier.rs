//! Live re-tiering: the measurement-driven control loop migrating a logic
//! component mid-session (DESIGN.md §16).
//!
//! The acceptance scenario: a session starts on a fast link with the logic
//! tier on the target device, the link degrades (an injected send delay),
//! and the [`PlacementController`] must notice — windowed RTT p95 — and
//! hot-migrate the component to the phone *without dropping the session*:
//! no lost or duplicated invocations, state carried over, events queued
//! during the pause replayed exactly once, the migration journaled so a
//! crash-recovery replay lands on the post-migration placement, and the
//! interaction latency recovered to the healthy ballpark.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_core::session::ActionOutcome;
use alfredo_core::{
    decode_migration, decode_ui_event, host_service, record_executed, AlfredOConnection,
    AlfredOEngine, AlfredOSession, Binding, ClientContext, ControllerProgram, DependencySpec,
    Device, EngineConfig, MethodCall, OutagePolicy, Placement, PlacementController,
    PlacementControllerConfig, ResilienceConfig, ResourceRequirements, Rule, ServedDevice,
    ServiceDescriptor, SignalSampler, ThinClientPolicy,
};
use alfredo_journal::{recover, JournalConfig};
use alfredo_net::{
    DelayHandle, FaultPlan, FaultyTransport, InMemoryNetwork, PartitionHandle, PeerAddr, Transport,
    TransportError,
};
use alfredo_obs::Obs;
use alfredo_osgi::{
    CodeRegistry, Framework, FromJson, Json, MethodSpec, ParamSpec, Properties, Service,
    ServiceCallError, ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::{DiscoveryDirectory, HealthState, HeartbeatConfig, ReconnectFn, RetryPolicy};
use alfredo_ui::{Control, DeviceCapabilities, UiDescription, UiEvent};

const FACADE_INTERFACE: &str = "ret.Facade";
const COUNTER_INTERFACE: &str = "ret.Counter";
const COUNTER_FACTORY_KEY: &str = "ret.counter/v1";

/// A stateful logic component: the migration must carry its count across
/// placements. `export_state`/`import_state` are the state-transfer hooks
/// [`AlfredOSession::migrate_component`] looks for.
#[derive(Debug, Default)]
struct CounterLogic {
    count: AtomicI64,
    /// Artificial import latency — widens the quiesce window so tests can
    /// deterministically interact with a migration in flight.
    import_delay: Duration,
}

impl CounterLogic {
    fn with_import_delay(delay: Duration) -> Self {
        CounterLogic {
            count: AtomicI64::new(0),
            import_delay: delay,
        }
    }

    fn total(&self) -> i64 {
        self.count.load(Ordering::SeqCst)
    }
}

impl Service for CounterLogic {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, ServiceCallError> {
        match method {
            "bump" => Ok(Value::I64(self.count.fetch_add(1, Ordering::SeqCst) + 1)),
            "total" => Ok(Value::I64(self.total())),
            "export_state" => Ok(Value::I64(self.total())),
            "import_state" => {
                std::thread::sleep(self.import_delay);
                let v = args.first().and_then(Value::as_i64).ok_or_else(|| {
                    ServiceCallError::BadArguments("import_state expects an integer".into())
                })?;
                self.count.store(v, Ordering::SeqCst);
                Ok(Value::Unit)
            }
            other => Err(ServiceCallError::NoSuchMethod(other.to_owned())),
        }
    }

    fn describe(&self) -> Option<ServiceInterfaceDesc> {
        // The state-transfer pair must be part of the shipped interface:
        // the generated proxy rejects methods the interface does not
        // declare before they reach the local half.
        Some(ServiceInterfaceDesc::new(
            COUNTER_INTERFACE,
            vec![
                MethodSpec::new("bump", vec![], TypeHint::I64, "Increment the counter."),
                MethodSpec::new("total", vec![], TypeHint::I64, "Current count."),
                MethodSpec::new("export_state", vec![], TypeHint::I64, "Snapshot the count."),
                MethodSpec::new(
                    "import_state",
                    vec![ParamSpec::new("state", TypeHint::I64)],
                    TypeHint::Unit,
                    "Adopt a snapshot.",
                ),
            ],
        ))
    }
}

/// The facade the session leases; its only job is declaring the counter
/// as an offloadable logic dependency and wiring a button to it.
#[derive(Debug, Default)]
struct FacadeService;

impl Service for FacadeService {
    fn invoke(&self, method: &str, _args: &[Value]) -> Result<Value, ServiceCallError> {
        match method {
            "ping" => Ok(Value::Unit),
            other => Err(ServiceCallError::NoSuchMethod(other.to_owned())),
        }
    }

    fn describe(&self) -> Option<ServiceInterfaceDesc> {
        Some(ServiceInterfaceDesc::new(
            FACADE_INTERFACE,
            vec![MethodSpec::new("ping", vec![], TypeHint::Unit, "Liveness.")],
        ))
    }
}

fn facade_descriptor() -> ServiceDescriptor {
    let ui = UiDescription::new("Retier")
        .with_control(Control::button("bump", "Bump"))
        .with_control(Control::label("count", ""));
    let controller = ControllerProgram::new(vec![Rule::on_click(
        "bump",
        MethodCall::new(COUNTER_INTERFACE, "bump", vec![]),
        Some(Binding::to("count")),
    )]);
    ServiceDescriptor::new(FACADE_INTERFACE, ui)
        .with_dependency(DependencySpec::offloadable(
            COUNTER_INTERFACE,
            ResourceRequirements::none()
                .with_memory(256 << 10)
                .with_cpu_mhz(100),
        ))
        .with_controller(controller)
}

fn register_counter_app(framework: &Framework, counter: Arc<CounterLogic>) {
    host_service(
        framework,
        FACADE_INTERFACE,
        Arc::new(FacadeService) as Arc<dyn Service>,
        &facade_descriptor(),
        None,
        Properties::new(),
    )
    .unwrap();
    // The counter ships to trusted clients as a smart proxy whose methods
    // — including the state-transfer pair — all run locally.
    host_service(
        framework,
        COUNTER_INTERFACE,
        counter as Arc<dyn Service>,
        &ServiceDescriptor::new(COUNTER_INTERFACE, UiDescription::new("counter")),
        Some((
            COUNTER_FACTORY_KEY,
            vec![
                "bump".to_owned(),
                "total".to_owned(),
                "export_state".to_owned(),
                "import_state".to_owned(),
            ],
        )),
        Properties::new(),
    )
    .unwrap();
}

/// Resilience generous enough that an injected 150 ms send delay
/// degrades latency without flipping the health state (the point of
/// re-tiering: the link is *slow*, not down). The heartbeat interval
/// comfortably exceeds the delayed ping round trip — were the endpoint
/// to reach `Disconnected`, the redial would hand it a fresh un-delayed
/// wire and the degradation evidence would vanish mid-test.
fn relaxed_resilience() -> ResilienceConfig {
    ResilienceConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_secs(2),
            degraded_after: 4,
            disconnected_after: 20,
        },
        lease_ttl: Some(Duration::from_secs(30)),
        outage_policy: OutagePolicy::Replay,
        ..ResilienceConfig::default()
    }
}

/// Fast fault detection for the mid-migration crash test.
fn crashy_resilience() -> ResilienceConfig {
    ResilienceConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(100),
            degraded_after: 1,
            disconnected_after: 3,
        },
        lease_ttl: Some(Duration::from_secs(30)),
        retry: RetryPolicy {
            max_retries: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            deadline: Duration::from_millis(300),
        },
        reconnect_attempts: 300,
        reconnect_backoff: Duration::from_millis(10),
        outage_policy: OutagePolicy::Replay,
        ..ResilienceConfig::default()
    }
}

struct Rig {
    counter: Arc<CounterLogic>,
    device: ServedDevice,
    engine: AlfredOEngine,
    conn: AlfredOConnection,
    session: Arc<AlfredOSession>,
    delay: DelayHandle,
    partition: PartitionHandle,
}

impl Rig {
    fn teardown(self) {
        if let Some(j) = self.engine.journal() {
            j.barrier().expect("journal flush");
        }
        self.session.close();
        self.conn.close();
        self.device.stop();
    }
}

fn build_rig(
    addr: &str,
    resilience: ResilienceConfig,
    journal: Option<&Path>,
    import_delay: Duration,
) -> Rig {
    // Obs-enabled: the controller reads the endpoint's RTT histogram,
    // which only records while tracing is on.
    let (obs, _ring) = Obs::ring(65_536);
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let counter = Arc::new(CounterLogic::default());
    register_counter_app(&device_fw, Arc::clone(&counter));
    let device = Device::new(device_fw)
        .obs(obs.clone())
        .serve(&net, PeerAddr::new(addr))
        .unwrap();

    let code = CodeRegistry::new();
    code.register_service(COUNTER_FACTORY_KEY, move || {
        Arc::new(CounterLogic::with_import_delay(import_delay)) as Arc<dyn Service>
    });
    let mut config = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i())
        .trusted(code)
        .with_resilience(resilience)
        .with_obs(obs);
    if let Some(dir) = journal {
        std::fs::remove_dir_all(dir).ok();
        config = config.with_journal(JournalConfig::new(dir).logical_clock().without_fsync());
    }
    // Thin-client start: the counter begins on the target device, so the
    // controller has something to move.
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        config,
    )
    .with_policy(ThinClientPolicy);

    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new(addr))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let partition = faulty.partition_handle();
    let delay = faulty.delay_handle();
    let dial: ReconnectFn = {
        let net = net.clone();
        let partition = partition.clone();
        let addr = addr.to_owned();
        Arc::new(move || {
            if partition.is_partitioned() {
                return Err(TransportError::Timeout);
            }
            net.connect(PeerAddr::new("phone"), PeerAddr::new(&addr))
                .map(|t| Box::new(t) as Box<dyn Transport>)
        })
    };
    let conn = engine
        .connect_transport_with_redial(Box::new(faulty), dial)
        .unwrap();
    let session = Arc::new(conn.acquire(FACADE_INTERFACE).unwrap());
    Rig {
        counter,
        device,
        engine,
        conn,
        session,
        delay,
        partition,
    }
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn p95(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[(samples.len() * 95 / 100).min(samples.len() - 1)]
}

/// A controller tuned for test speed, with margins sized for a loaded
/// CI host: the win threshold is 50 ms (local-cost floor 25 ms × the
/// 2× improvement margin), far above anything the in-process transport
/// produces even when the whole suite competes for cores, while the
/// injected 150 ms delay clears it decisively. Three confirm ticks also
/// mean the two healthy-phase ticks can never accumulate enough
/// consecutive wins to migrate, whatever the noise.
fn test_controller() -> PlacementController {
    PlacementController::new(
        PlacementControllerConfig {
            interval: Duration::from_millis(50),
            min_samples: 6,
            improvement: 1.0,
            confirm_ticks: 3,
            min_dwell: Duration::from_millis(100),
            local_cost_us: 25_000,
            migration_deadline: Duration::from_secs(2),
            ..PlacementControllerConfig::default()
        },
        ClientContext::trusted_phone(),
    )
}

fn journal_dir(run: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../target/retier-journal/{run}"))
}

/// The ISSUE acceptance scenario: fast link, degrade, controller migrates
/// the logic tier to the phone, nothing is lost and latency recovers.
#[test]
fn controller_migrates_to_phone_under_degraded_link() {
    let dir = journal_dir("degraded-link");
    let rig = build_rig(
        "ret-screen-1",
        relaxed_resilience(),
        Some(&dir),
        Duration::ZERO,
    );
    let session = &rig.session;
    assert_eq!(
        session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Target,
        "thin-client start: logic on the device"
    );

    let controller = test_controller();
    let mut sampler = SignalSampler::for_session(session);
    let bumps = std::cell::Cell::new(0i64);
    let bump = |session: &AlfredOSession, timings: &mut Vec<Duration>| {
        let started = Instant::now();
        let n = session.invoke(COUNTER_INTERFACE, "bump", &[]).unwrap();
        timings.push(started.elapsed());
        bumps.set(bumps.get() + 1);
        assert_eq!(n.as_i64(), Some(bumps.get()), "no lost or duplicated bumps");
    };

    // Healthy phase: the link is fast; the controller must sit still.
    let mut healthy = Vec::new();
    for _ in 0..2 {
        for _ in 0..10 {
            bump(session, &mut healthy);
        }
        let moves = controller.tick(session, &mut sampler);
        assert!(
            moves.is_empty(),
            "no migration on a healthy link: {moves:?}"
        );
    }
    let healthy_p95 = p95(&mut healthy);

    // Degrade: every frame the phone sends now takes an extra 150 ms —
    // a congested radio link. Remote invokes crater; the windowed RTT
    // p95 gives the controller the evidence within three ticks.
    rig.delay.set_delay(Duration::from_millis(150));
    let mut degraded = Vec::new();
    let mut report = None;
    for _ in 0..20 {
        for _ in 0..6 {
            bump(session, &mut degraded);
        }
        let mut moves = controller.tick(session, &mut sampler);
        if let Some((interface, outcome)) = moves.pop() {
            assert_eq!(interface, COUNTER_INTERFACE);
            report = Some(outcome.expect("migration succeeds"));
            break;
        }
    }
    let report = report.expect("the controller migrates under a degraded link");
    let device_count_at_migration = rig.counter.total();
    assert_eq!(report.from, Placement::Target);
    assert_eq!(report.to, Placement::Client);
    assert!(report.state_transferred, "the count must carry over");
    assert_eq!(report.replayed, 0, "no events were queued in this phase");
    assert!(
        report.pause < Duration::from_secs(2),
        "bounded pause, got {:?}",
        report.pause
    );
    assert_eq!(
        session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Client
    );
    assert_eq!(
        device_count_at_migration,
        bumps.get(),
        "state exported in full"
    );

    // Recovered phase: bumps now run on the phone — no wire, so the still
    // degraded link no longer matters.
    let calls_before = rig.conn.endpoint().stats().calls_sent;
    let mut recovered = Vec::new();
    for _ in 0..20 {
        bump(session, &mut recovered);
    }
    assert_eq!(
        rig.conn.endpoint().stats().calls_sent,
        calls_before,
        "post-migration bumps are local"
    );
    let recovered_p95 = p95(&mut recovered);
    let degraded_p95 = p95(&mut degraded);
    assert!(
        recovered_p95 <= healthy_p95 * 2 + Duration::from_micros(500),
        "interaction latency recovers: healthy {healthy_p95:?}, recovered {recovered_p95:?}"
    );
    assert!(
        recovered_p95 < degraded_p95,
        "recovered {recovered_p95:?} must beat degraded {degraded_p95:?}"
    );

    // Count integrity across the migration: the session-visible total is
    // exactly the number of bumps issued.
    let total = session.invoke(COUNTER_INTERFACE, "total", &[]).unwrap();
    assert_eq!(total.as_i64(), Some(bumps.get()));

    let total_bumps = bumps.get();
    rig.teardown();

    // The journal must carry the migration as a sequenced event…
    let recovery = recover(&dir).expect("journal parses");
    assert!(!recovery.torn_tail);
    let migrations: Vec<_> = recovery
        .records
        .iter()
        .filter(|r| r.stream == "session" && r.event == "migrate")
        .collect();
    assert_eq!(migrations.len(), 1, "exactly one migration journaled");
    let payload = Json::parse(&migrations[0].payload).unwrap();
    assert_eq!(
        decode_migration(&payload),
        Some((COUNTER_INTERFACE.to_owned(), Placement::Client))
    );

    // …so a crash-recovery replay of the artifact lands on the
    // *post-migration* placement with the same final state.
    let (device_count, session_total, placement) = replay_artifact(&dir, "ret-screen-1r");
    assert_eq!(placement, Placement::Client);
    assert_eq!(session_total, total_bumps);
    assert_eq!(device_count, device_count_at_migration);
}

/// Re-drives a journal artifact against a fresh fault-free stack,
/// executing `migrate` records through the real migration path; returns
/// (device-side count, session-visible total, final counter placement).
fn replay_artifact(dir: &Path, addr: &str) -> (i64, i64, Placement) {
    let recovery = recover(dir).expect("artifact parses");
    let rig = build_rig(addr, relaxed_resilience(), None, Duration::ZERO);
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
                rig.session.invoke(target, method, &args).unwrap();
            }
            "migrate" => {
                let (interface, to) = decode_migration(&payload).expect("migration decodes");
                rig.session
                    .migrate_component(&interface, to, Duration::from_secs(2))
                    .unwrap();
            }
            "ui_event" if record_executed(&payload) => {
                let event = decode_ui_event(&payload).expect("event decodes");
                rig.session.handle_event(&event).unwrap();
            }
            _ => {}
        }
    }
    let device_count = rig.counter.total();
    let session_total = rig
        .session
        .invoke(COUNTER_INTERFACE, "total", &[])
        .unwrap()
        .as_i64()
        .unwrap();
    let placement = rig.session.assignment().logic_placement(COUNTER_INTERFACE);
    rig.teardown();
    (device_count, session_total, placement)
}

/// Taps landing while the session is quiesced queue under the outage
/// policy and replay exactly once when the migration commits.
#[test]
fn events_queued_during_migration_pause_replay_exactly_once() {
    // A 300 ms import delay pins the migration open long enough to
    // interact with it deterministically.
    let rig = build_rig(
        "ret-screen-2",
        relaxed_resilience(),
        None,
        Duration::from_millis(300),
    );
    for _ in 0..5 {
        rig.session.invoke(COUNTER_INTERFACE, "bump", &[]).unwrap();
    }

    let migrator = Arc::clone(&rig.session);
    let handle = std::thread::spawn(move || {
        migrator.migrate_component(COUNTER_INTERFACE, Placement::Client, Duration::from_secs(5))
    });
    wait_until("migration to start", Duration::from_secs(5), || {
        rig.session.is_migrating()
    });
    assert!(
        rig.session
            .unavailable_controls()
            .iter()
            .any(|c| c == "bump"),
        "remote-bound controls are unavailable while quiesced"
    );
    for _ in 0..3 {
        let outcomes = rig
            .session
            .handle_event(&UiEvent::Click {
                control: "bump".into(),
            })
            .unwrap();
        assert!(
            matches!(outcomes.as_slice(), [ActionOutcome::Queued { .. }]),
            "taps during the pause must queue, got {outcomes:?}"
        );
    }
    assert_eq!(rig.session.pending_events(), 3);

    let report = handle.join().unwrap().expect("migration succeeds");
    assert!(report.state_transferred);
    assert_eq!(report.replayed, 3, "each queued tap replays exactly once");
    assert_eq!(rig.session.pending_events(), 0);

    // 5 pre-migration bumps carried over + 3 replayed taps, nothing lost
    // or duplicated.
    let total = rig.session.invoke(COUNTER_INTERFACE, "total", &[]).unwrap();
    assert_eq!(total.as_i64(), Some(8));
    rig.teardown();
}

/// The chaos case from the ISSUE: the wire dies mid-migration. The
/// migration aborts cleanly — placement unchanged, session quiesce flag
/// released — and a retry after the link heals succeeds with state
/// intact.
#[test]
fn mid_migration_crash_aborts_clean_and_retry_succeeds() {
    let dir = journal_dir("mid-migration-crash");
    let rig = build_rig(
        "ret-screen-3",
        crashy_resilience(),
        Some(&dir),
        Duration::ZERO,
    );
    for _ in 0..5 {
        rig.session.invoke(COUNTER_INTERFACE, "bump", &[]).unwrap();
    }

    // The device vanishes; the state-transfer call inside the migration
    // exhausts its retries and the whole move aborts.
    rig.partition.partition();
    let outcome =
        rig.session
            .migrate_component(COUNTER_INTERFACE, Placement::Client, Duration::from_secs(1));
    assert!(outcome.is_err(), "migration over a dead wire must fail");
    assert!(!rig.session.is_migrating(), "abort releases the quiesce");
    assert_eq!(
        rig.session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Target,
        "a failed migration leaves the placement untouched"
    );

    // Heal and retry: the same move now lands, with the full count.
    rig.partition.heal();
    wait_until("endpoint to reconnect", Duration::from_secs(5), || {
        rig.session.health() == HealthState::Healthy
    });
    let report = rig
        .session
        .migrate_component(COUNTER_INTERFACE, Placement::Client, Duration::from_secs(2))
        .expect("retry after heal succeeds");
    assert!(report.state_transferred);
    let total = rig.session.invoke(COUNTER_INTERFACE, "total", &[]).unwrap();
    assert_eq!(total.as_i64(), Some(5), "state survived the failed attempt");

    rig.teardown();

    // Only the successful attempt is journaled: recovery lands on the
    // placement that actually committed.
    let recovery = recover(&dir).expect("journal parses");
    let migrations = recovery
        .records
        .iter()
        .filter(|r| r.stream == "session" && r.event == "migrate")
        .count();
    assert_eq!(migrations, 1, "the aborted attempt must not journal");
}

/// Hysteresis: alternating good/bad ticks never trigger a move
/// (confirmation requires *consecutive* wins), and a freshly migrated
/// component sits out its dwell window even under winning scores.
#[test]
fn hysteresis_never_flaps_and_dwell_blocks_immediate_return() {
    let rig = build_rig("ret-screen-4", relaxed_resilience(), None, Duration::ZERO);
    let controller = PlacementController::new(
        PlacementControllerConfig {
            min_samples: 4,
            improvement: 1.0,
            confirm_ticks: 2,
            min_dwell: Duration::from_secs(60),
            local_cost_us: 2_000,
            ..PlacementControllerConfig::default()
        },
        ClientContext::trusted_phone(),
    );
    // A synthetic RTT source: the test scripts the link conditions the
    // controller sees, tick by tick.
    let (obs, _ring) = Obs::ring(16);
    let hist = obs.metrics().histogram("synthetic.rtt_us");
    let mut sampler = SignalSampler::from_rtt_histogram(hist.clone());

    let record = |us: u64| {
        for _ in 0..8 {
            hist.record(us);
        }
    };

    // slow, fast, slow, fast: one win is never enough.
    for _ in 0..2 {
        record(50_000);
        assert!(controller.tick(&rig.session, &mut sampler).is_empty());
        record(200);
        assert!(controller.tick(&rig.session, &mut sampler).is_empty());
    }
    assert_eq!(
        rig.session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Target,
        "alternating signals must not flap the placement"
    );

    // Two consecutive slow ticks: now the move is justified and runs.
    record(50_000);
    assert!(controller.tick(&rig.session, &mut sampler).is_empty());
    record(50_000);
    let moves = controller.tick(&rig.session, &mut sampler);
    assert_eq!(moves.len(), 1);
    assert!(moves[0].1.is_ok(), "{:?}", moves[0].1);
    assert_eq!(
        rig.session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Client
    );

    // Dwell: local latency now looks terrible, but the component just
    // moved — the controller must hold still for the dwell window.
    for _ in 0..8 {
        rig.session.record_latency(COUNTER_INTERFACE, 200.0);
    }
    for _ in 0..3 {
        assert!(
            controller.tick(&rig.session, &mut sampler).is_empty(),
            "dwell must block an immediate return move"
        );
    }
    assert_eq!(
        rig.session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Client
    );
    rig.teardown();
}

/// A full round trip — device → phone → device — returns the state to
/// the target, and a later re-offload hits the content-addressed tier
/// cache instead of re-fetching the artifact.
#[test]
fn migration_roundtrip_returns_state_and_later_move_hits_cache() {
    let rig = build_rig("ret-screen-5", relaxed_resilience(), None, Duration::ZERO);
    for _ in 0..5 {
        rig.session.invoke(COUNTER_INTERFACE, "bump", &[]).unwrap();
    }

    let to_phone = rig
        .session
        .migrate_component(COUNTER_INTERFACE, Placement::Client, Duration::from_secs(2))
        .unwrap();
    assert!(!to_phone.cache_hit, "first offload fetches the artifact");
    for _ in 0..3 {
        rig.session.invoke(COUNTER_INTERFACE, "bump", &[]).unwrap();
    }
    assert_eq!(rig.counter.total(), 5, "device copy is frozen while away");

    // Back to the device: the locally accumulated count is imported
    // remotely before the phone copy is released.
    let back = rig
        .session
        .migrate_component(COUNTER_INTERFACE, Placement::Target, Duration::from_secs(2))
        .unwrap();
    assert!(back.state_transferred);
    assert_eq!(
        rig.session.assignment().logic_placement(COUNTER_INTERFACE),
        Placement::Target
    );
    assert_eq!(rig.counter.total(), 8, "count returned to the device");
    let n = rig.session.invoke(COUNTER_INTERFACE, "bump", &[]).unwrap();
    assert_eq!(n.as_i64(), Some(9), "remote routing restored");

    // Offload again: same artifact digest, so the tier cache serves it.
    let again = rig
        .session
        .migrate_component(COUNTER_INTERFACE, Placement::Client, Duration::from_secs(2))
        .unwrap();
    assert!(again.cache_hit, "re-offload must hit the tier cache");
    let total = rig.session.invoke(COUNTER_INTERFACE, "total", &[]).unwrap();
    assert_eq!(total.as_i64(), Some(9));
    rig.teardown();
}
