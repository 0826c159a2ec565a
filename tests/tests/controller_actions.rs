//! Integration tests for the controller's remaining action types: poll
//! rules, event emission, and runtime service acquisition — the paper's
//! "the client can decide to acquire additional services currently
//! running on remote devices" and "the Controller may periodically poll
//! a certain service method … and react to its changes".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alfredo_core::session::ActionOutcome;
use alfredo_core::{
    host_service, Action, AlfredOEngine, Binding, ControllerProgram, Device, EngineConfig,
    MethodCall, Rule, ServiceDescriptor, Trigger,
};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{
    FnService, Framework, MethodSpec, Properties, ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{Control, DeviceCapabilities, UiDescription, UiEvent};

fn counter_interface(name: &str) -> ServiceInterfaceDesc {
    ServiceInterfaceDesc::new(
        name,
        vec![MethodSpec::new(
            "next",
            vec![],
            TypeHint::I64,
            "Monotone counter.",
        )],
    )
}

fn counter_service(name: &str) -> Arc<dyn alfredo_osgi::Service> {
    let count = AtomicUsize::new(0);
    Arc::new(
        FnService::new(move |method, _| match method {
            "next" => Ok(Value::I64(count.fetch_add(1, Ordering::SeqCst) as i64 + 1)),
            other => Err(alfredo_osgi::ServiceCallError::NoSuchMethod(other.into())),
        })
        .with_description(counter_interface(name)),
    )
}

/// Device hosting a main service with poll/emit/acquire rules, plus a
/// secondary service acquirable at runtime.
fn build_device(fw: &Framework) {
    let descriptor = ServiceDescriptor::new(
        "demo.Main",
        UiDescription::new("main")
            .with_control(Control::label("ticker", "0"))
            .with_control(Control::button("more", "Need more power"))
            .with_control(Control::button("shout", "Shout")),
    )
    .with_controller(ControllerProgram::new(vec![
        // Poll every 250 ms of interaction time; bind into the ticker.
        Rule::new(
            Trigger::Poll { interval_ms: 250 },
            vec![Action::Invoke {
                call: MethodCall::new("demo.Main", "next", vec![]),
                bind: Some(Binding::to("ticker")),
            }],
        ),
        // Clicking "more" leases a second remote service mid-interaction.
        Rule::new(
            Trigger::UiClick {
                control: "more".into(),
            },
            vec![Action::AcquireService {
                interface: "demo.Extra".into(),
            }],
        ),
        // Clicking "shout" emits a local event (forwarded to the device,
        // which subscribed).
        Rule::new(
            Trigger::UiClick {
                control: "shout".into(),
            },
            vec![Action::EmitEvent {
                topic: "demo/shout".into(),
                value_key: Some("volume".into()),
            }],
        ),
    ]));
    host_service(
        fw,
        "demo.Main",
        counter_service("demo.Main"),
        &descriptor,
        None,
        Properties::new(),
    )
    .unwrap();
    host_service(
        fw,
        "demo.Extra",
        counter_service("demo.Extra"),
        &ServiceDescriptor::new("demo.Extra", UiDescription::new("extra")),
        None,
        Properties::new(),
    )
    .unwrap();
}

struct Rig {
    device_fw: Framework,
    engine: AlfredOEngine,
    _device: alfredo_core::engine::ServedDevice,
}

fn rig(addr: &str) -> Rig {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    build_device(&device_fw);
    let device = Device::new(device_fw.clone())
        .serve(&net, PeerAddr::new(addr))
        .unwrap();
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
    );
    Rig {
        device_fw,
        engine,
        _device: device,
    }
}

#[test]
fn poll_rules_fire_on_interaction_time() {
    let r = rig("ctl-1");
    let conn = r.engine.connect(&PeerAddr::new("ctl-1")).unwrap();
    let session = conn.acquire("demo.Main").unwrap();

    // Not yet due.
    assert!(session.advance_time(100).unwrap().is_empty());
    // 250 ms reached: fires once and binds the counter value.
    let outcomes = session.advance_time(150).unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(session.with_state(|s| s.int("ticker")), Some(1));
    // Two more periods in one big step still fire once per rule pass.
    session.advance_time(250).unwrap();
    assert_eq!(session.with_state(|s| s.int("ticker")), Some(2));
    // Idle time below the period: nothing.
    assert!(session.advance_time(10).unwrap().is_empty());
    session.close();
    conn.close();
}

#[test]
fn acquire_service_action_leases_mid_interaction() {
    let r = rig("ctl-2");
    let conn = r.engine.connect(&PeerAddr::new("ctl-2")).unwrap();
    let session = conn.acquire("demo.Main").unwrap();

    // demo.Extra is not installed on the phone yet.
    assert!(r
        .engine
        .framework()
        .registry()
        .get_service("demo.Extra")
        .is_none());

    let outcomes = session
        .handle_event(&UiEvent::Click {
            control: "more".into(),
        })
        .unwrap();
    assert_eq!(
        outcomes,
        vec![ActionOutcome::Acquired {
            interface: "demo.Extra".into()
        }]
    );
    // Its proxy is now live and invocable.
    let extra = r
        .engine
        .framework()
        .registry()
        .get_service("demo.Extra")
        .expect("acquired at runtime");
    assert_eq!(extra.invoke("next", &[]).unwrap(), Value::I64(1));

    // Closing the session releases runtime-acquired services too.
    session.close();
    assert!(r
        .engine
        .framework()
        .registry()
        .get_service("demo.Extra")
        .is_none());
    conn.close();
}

#[test]
fn emit_event_action_reaches_the_device() {
    let r = rig("ctl-3");
    let heard = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&heard);
    r.device_fw.event_admin().subscribe("demo/shout", move |e| {
        // The trigger's value rides under the configured key.
        assert!(e.properties.get("volume").is_some());
        h.fetch_add(1, Ordering::SeqCst);
    });
    let conn = r.engine.connect(&PeerAddr::new("ctl-3")).unwrap();
    let session = conn.acquire("demo.Main").unwrap();
    let outcomes = session
        .handle_event(&UiEvent::Click {
            control: "shout".into(),
        })
        .unwrap();
    assert_eq!(
        outcomes,
        vec![ActionOutcome::Emitted {
            topic: "demo/shout".into()
        }]
    );
    for _ in 0..100 {
        if heard.load(Ordering::SeqCst) == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(heard.load(Ordering::SeqCst), 1, "event forwarded to device");
    session.close();
    conn.close();
}
