//! Migration benchmark: what does a hot mid-session tier migration cost,
//! and does it buy the latency back?
//!
//! ```text
//! cargo run --release -p alfredo-bench --bin migration_bench
//! cargo run --release -p alfredo-bench --bin migration_bench -- --quick
//! ```
//!
//! The scenario mirrors the live re-tiering acceptance test (DESIGN.md
//! §16) at measurement scale:
//!
//! * **baseline** — a session drives a stateful counter component on the
//!   target device over a fast in-memory link; interaction p95 recorded.
//! * **degraded** — every frame the phone sends is delayed by a fixed
//!   budget (a congested radio link); interaction p95 craters by roughly
//!   that delay.
//! * **migrate** — the [`PlacementController`] notices via the windowed
//!   RTT p95 and hot-migrates the counter to the phone; afterwards the
//!   component is bounced device↔phone for several cycles, recording
//!   each migration's *pause* (quiesce → commit, the window in which new
//!   events queue instead of executing).
//! * **recovered** — interaction p95 with the logic phone-local, the
//!   link still degraded.
//!
//! Guards (in-process, every run): the controller must migrate at all;
//! the pause p95 stays under [`PAUSE_CAP`]; the recovered p95 returns to
//! within [`RECOVERY_FACTOR`]× the healthy baseline; no invocation is
//! lost or duplicated across any of the moves; and every phone-bound
//! migration after the first hits the content-addressed tier cache.
//!
//! Emits `BENCH_migration.json` with every figure the guards checked.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_core::{
    host_service, AlfredOEngine, ClientContext, ControllerProgram, DependencySpec, Device,
    EngineConfig, MethodCall, OutagePolicy, Placement, PlacementController,
    PlacementControllerConfig, ResilienceConfig, ResourceRequirements, Rule, ServiceDescriptor,
    SignalSampler, ThinClientPolicy,
};
use alfredo_net::{FaultPlan, FaultyTransport, InMemoryNetwork, PeerAddr};
use alfredo_obs::Obs;
use alfredo_osgi::{
    CodeRegistry, Framework, Json, MethodSpec, ParamSpec, Properties, Service, ServiceCallError,
    ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::{DiscoveryDirectory, HeartbeatConfig};
use alfredo_ui::{Control, DeviceCapabilities, UiDescription};

const INTERFACE: &str = "bench.MigFacade";
const COUNTER: &str = "bench.MigCounter";
const FACTORY_KEY: &str = "bench.mig-counter/v1";

/// Injected one-way send delay for the degraded phase.
const LINK_DELAY: Duration = Duration::from_millis(10);
/// Migration pause budget the guard enforces (quiesce → commit).
const PAUSE_CAP: Duration = Duration::from_millis(500);
/// Post-migration p95 must return to within this factor of healthy.
const RECOVERY_FACTOR: f64 = 2.0;

/// The stateful logic component being bounced between tiers.
#[derive(Debug, Default)]
struct Counter {
    count: AtomicI64,
}

impl Service for Counter {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, ServiceCallError> {
        match method {
            "bump" => Ok(Value::I64(self.count.fetch_add(1, Ordering::SeqCst) + 1)),
            "total" => Ok(Value::I64(self.count.load(Ordering::SeqCst))),
            "export_state" => Ok(Value::I64(self.count.load(Ordering::SeqCst))),
            "import_state" => {
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
        // State-transfer methods must be declared: the generated proxy
        // rejects undeclared methods client-side.
        Some(ServiceInterfaceDesc::new(
            COUNTER,
            vec![
                MethodSpec::new("bump", vec![], TypeHint::I64, "Increment."),
                MethodSpec::new("total", vec![], TypeHint::I64, "Read."),
                MethodSpec::new("export_state", vec![], TypeHint::I64, "Snapshot."),
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

#[derive(Debug, Default)]
struct Facade;

impl Service for Facade {
    fn invoke(&self, method: &str, _args: &[Value]) -> Result<Value, ServiceCallError> {
        match method {
            "ping" => Ok(Value::Unit),
            other => Err(ServiceCallError::NoSuchMethod(other.to_owned())),
        }
    }

    fn describe(&self) -> Option<ServiceInterfaceDesc> {
        Some(ServiceInterfaceDesc::new(
            INTERFACE,
            vec![MethodSpec::new("ping", vec![], TypeHint::Unit, "Liveness.")],
        ))
    }
}

fn descriptor() -> ServiceDescriptor {
    let ui = UiDescription::new("MigBench").with_control(Control::button("bump", "Bump"));
    ServiceDescriptor::new(INTERFACE, ui)
        .with_dependency(DependencySpec::offloadable(
            COUNTER,
            ResourceRequirements::none()
                .with_memory(256 << 10)
                .with_cpu_mhz(100),
        ))
        .with_controller(ControllerProgram::new(vec![Rule::on_click(
            "bump",
            MethodCall::new(COUNTER, "bump", vec![]),
            None,
        )]))
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (healthy_n, recovered_n, cycles) = if quick { (50, 50, 3) } else { (200, 200, 10) };

    // Obs-enabled engine: the controller reads the RTT histogram, which
    // only records while tracing is on.
    let (obs, _ring) = Obs::ring(65_536);
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    host_service(
        &device_fw,
        INTERFACE,
        Arc::new(Facade) as Arc<dyn Service>,
        &descriptor(),
        None,
        Properties::new(),
    )
    .unwrap();
    host_service(
        &device_fw,
        COUNTER,
        Arc::new(Counter::default()) as Arc<dyn Service>,
        &ServiceDescriptor::new(COUNTER, UiDescription::new("counter")),
        Some((
            FACTORY_KEY,
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
    let device = Device::new(device_fw)
        .obs(obs.clone())
        .serve(&net, PeerAddr::new("mig-screen"))
        .unwrap();

    let code = CodeRegistry::new();
    code.register_service(FACTORY_KEY, || {
        Arc::new(Counter::default()) as Arc<dyn Service>
    });
    // Heartbeats relaxed: the injected delay must read as a *slow* link,
    // not a dead one.
    let resilience = ResilienceConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(100),
            timeout: Duration::from_secs(2),
            degraded_after: 3,
            disconnected_after: 10,
        },
        outage_policy: OutagePolicy::Replay,
        ..ResilienceConfig::default()
    };
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("mig-phone", DeviceCapabilities::nokia_9300i())
            .trusted(code)
            .with_resilience(resilience)
            .with_obs(obs),
    )
    .with_policy(ThinClientPolicy);

    let raw = net
        .connect(PeerAddr::new("mig-phone"), PeerAddr::new("mig-screen"))
        .unwrap();
    let faulty = FaultyTransport::new(Box::new(raw), FaultPlan::none());
    let delay = faulty.delay_handle();
    let conn = engine.connect_transport(Box::new(faulty)).unwrap();
    let session = conn.acquire(INTERFACE).unwrap();
    assert_eq!(
        session.assignment().logic_placement(COUNTER),
        Placement::Target,
        "thin-client start: the logic tier begins on the device"
    );

    let mut issued: i64 = 0;
    let mut bump = |session: &alfredo_core::AlfredOSession| -> Duration {
        let started = Instant::now();
        let n = session.invoke(COUNTER, "bump", &[]).unwrap();
        issued += 1;
        assert_eq!(n.as_i64(), Some(issued), "no lost or duplicated bumps");
        started.elapsed()
    };

    // --- baseline: healthy link, logic on the device ------------------
    let mut healthy: Vec<Duration> = (0..healthy_n).map(|_| bump(&session)).collect();
    healthy.sort();
    let healthy_p95 = percentile(&healthy, 95);
    println!(
        "baseline   n={healthy_n:4}  p50={:>9.1}us  p95={:>9.1}us  (remote, fast link)",
        us(percentile(&healthy, 50)),
        us(healthy_p95)
    );

    // --- degraded: same placement, delayed link -----------------------
    delay.set_delay(LINK_DELAY);
    let controller = PlacementController::new(
        PlacementControllerConfig {
            min_samples: 6,
            improvement: 1.0,
            confirm_ticks: 2,
            min_dwell: Duration::from_millis(100),
            local_cost_us: 2_000,
            migration_deadline: Duration::from_secs(2),
            ..PlacementControllerConfig::default()
        },
        ClientContext::trusted_phone(),
    );
    let mut sampler = SignalSampler::for_session(&session);
    let mut degraded: Vec<Duration> = Vec::new();
    let mut first_migration = None;
    let mut ticks = 0;
    for _ in 0..20 {
        for _ in 0..8 {
            degraded.push(bump(&session));
        }
        ticks += 1;
        let mut moves = controller.tick(&session, &mut sampler);
        if let Some((interface, outcome)) = moves.pop() {
            assert_eq!(interface, COUNTER);
            first_migration = Some(outcome.expect("controller migration succeeds"));
            break;
        }
    }
    let first = first_migration.expect("the controller must migrate under a degraded link");
    degraded.sort();
    let degraded_p95 = percentile(&degraded, 95);
    println!(
        "degraded   n={:4}  p50={:>9.1}us  p95={:>9.1}us  (remote, +{}ms link)",
        degraded.len(),
        us(percentile(&degraded, 50)),
        us(degraded_p95),
        LINK_DELAY.as_millis()
    );
    println!(
        "migrated   {} -> {} after {ticks} ticks: pause={:.1}us state={} cache_hit={}",
        first.from,
        first.to,
        us(first.pause),
        first.state_transferred,
        first.cache_hit
    );

    // --- migration cycles: bounce the tier, record every pause --------
    let mut pauses = vec![first.pause];
    let mut cache_hits = if first.cache_hit { 1 } else { 0 };
    let mut phone_bound = 1;
    for _ in 0..cycles {
        let back = session
            .migrate_component(COUNTER, Placement::Target, Duration::from_secs(2))
            .expect("migration back to the device");
        pauses.push(back.pause);
        let out = session
            .migrate_component(COUNTER, Placement::Client, Duration::from_secs(2))
            .expect("re-offload to the phone");
        pauses.push(out.pause);
        phone_bound += 1;
        if out.cache_hit {
            cache_hits += 1;
        }
    }
    pauses.sort();
    let pause_p95 = percentile(&pauses, 95);
    println!(
        "pauses     n={:4}  p50={:>9.1}us  p95={:>9.1}us  (cap {:.0}ms, {} cache hits / {} offloads)",
        pauses.len(),
        us(percentile(&pauses, 50)),
        us(pause_p95),
        PAUSE_CAP.as_secs_f64() * 1e3,
        cache_hits,
        phone_bound
    );

    // --- recovered: logic phone-local, link still degraded ------------
    let calls_before = conn.endpoint().stats().calls_sent;
    let mut recovered: Vec<Duration> = (0..recovered_n).map(|_| bump(&session)).collect();
    recovered.sort();
    let recovered_p95 = percentile(&recovered, 95);
    assert_eq!(
        conn.endpoint().stats().calls_sent,
        calls_before,
        "recovered-phase bumps must be phone-local"
    );
    println!(
        "recovered  n={recovered_n:4}  p50={:>9.1}us  p95={:>9.1}us  (local, link still degraded)",
        us(percentile(&recovered, 50)),
        us(recovered_p95)
    );

    // --- guards -------------------------------------------------------
    let total = session
        .invoke(COUNTER, "total", &[])
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(
        total,
        issued,
        "state intact across {} migrations",
        pauses.len()
    );
    assert!(
        pause_p95 <= PAUSE_CAP,
        "pause p95 {pause_p95:?} exceeds the {PAUSE_CAP:?} budget"
    );
    let recovery_cap = Duration::from_secs_f64(healthy_p95.as_secs_f64() * RECOVERY_FACTOR)
        + Duration::from_micros(500);
    assert!(
        recovered_p95 <= recovery_cap,
        "recovered p95 {recovered_p95:?} must be within {RECOVERY_FACTOR}x healthy ({healthy_p95:?})"
    );
    assert!(
        recovered_p95 < degraded_p95,
        "migration must actually help: recovered {recovered_p95:?} vs degraded {degraded_p95:?}"
    );
    assert_eq!(
        cache_hits,
        phone_bound - 1,
        "every phone-bound migration after the first must hit the tier cache"
    );
    println!(
        "guards: pause p95 <= {:.0}ms, recovered p95 <= {RECOVERY_FACTOR}x healthy, \
         recovered < degraded, {total} invocations intact, tier cache reused — all hold",
        PAUSE_CAP.as_secs_f64() * 1e3
    );

    let doc = Json::obj(vec![
        ("benchmark", Json::str("migration_bench")),
        ("quick", Json::Bool(quick)),
        (
            "interaction_us",
            Json::obj(vec![
                ("healthy_p50", Json::F64(us(percentile(&healthy, 50)))),
                ("healthy_p95", Json::F64(us(healthy_p95))),
                ("degraded_p50", Json::F64(us(percentile(&degraded, 50)))),
                ("degraded_p95", Json::F64(us(degraded_p95))),
                ("recovered_p50", Json::F64(us(percentile(&recovered, 50)))),
                ("recovered_p95", Json::F64(us(recovered_p95))),
                ("recovery_factor_cap", Json::F64(RECOVERY_FACTOR)),
            ]),
        ),
        (
            "migration",
            Json::obj(vec![
                ("count", Json::I64(pauses.len() as i64)),
                ("ticks_to_detect", Json::I64(ticks)),
                ("pause_p50_us", Json::F64(us(percentile(&pauses, 50)))),
                ("pause_p95_us", Json::F64(us(pause_p95))),
                ("pause_cap_us", Json::F64(us(PAUSE_CAP))),
                ("phone_bound", Json::I64(phone_bound)),
                ("tier_cache_hits", Json::I64(cache_hits)),
                ("link_delay_ms", Json::I64(LINK_DELAY.as_millis() as i64)),
            ]),
        ),
        ("invocations", Json::I64(total)),
    ]);
    std::fs::write("BENCH_migration.json", doc.to_json_string() + "\n")
        .expect("write BENCH_migration.json");
    println!("wrote BENCH_migration.json");

    session.close();
    conn.close();
    device.stop();
}
