//! End-to-end CoffeeMachine interaction: the knob-as-slider capability
//! mapping ("the mouse of a desktop computer is equivalent to the
//! joystick of a phone or the knob of a coffee machine", §3.3), brew
//! control, poll-driven progress, and the completion event.

use std::time::Duration;

use alfredo_apps::{register_coffee_machine, COFFEE_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::capability::ConcreteCapability;
use alfredo_ui::{DeviceCapabilities, UiEvent};

fn rig(
    addr: &str,
    caps: DeviceCapabilities,
) -> (
    std::sync::Arc<alfredo_apps::CoffeeMachineService>,
    AlfredOEngine,
    alfredo_core::engine::ServedDevice,
) {
    let net = InMemoryNetwork::new();
    let machine_fw = Framework::new();
    let (machine, _reg) = register_coffee_machine(&machine_fw).unwrap();
    let device = Device::new(machine_fw)
        .serve(&net, PeerAddr::new(addr))
        .unwrap();
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", caps),
    );
    (machine, engine, device)
}

#[test]
fn knob_maps_to_each_phones_pointing_hardware() {
    // The same abstract slider binds to cursor keys on the Nokia and the
    // touchscreen on the iPhone.
    let (_m, nokia_engine, _d) = rig("coffee-caps-1", DeviceCapabilities::nokia_9300i());
    let conn = nokia_engine
        .connect(&PeerAddr::new("coffee-caps-1"))
        .unwrap();
    let session = conn.acquire(COFFEE_INTERFACE).unwrap();
    let knob = session.rendered().widget_for("strength").unwrap();
    assert_eq!(knob.input, Some(ConcreteCapability::CursorKeys));
    session.close();
    conn.close();

    let (_m, iphone_engine, _d) = rig("coffee-caps-2", DeviceCapabilities::iphone());
    let conn = iphone_engine
        .connect(&PeerAddr::new("coffee-caps-2"))
        .unwrap();
    let session = conn.acquire(COFFEE_INTERFACE).unwrap();
    assert_eq!(session.rendered().backend, "html");
    assert!(
        session.rendered().as_text().contains("type=\"range\""),
        "the knob becomes an HTML range input in the browser"
    );
    session.close();
    conn.close();
}

#[test]
fn brew_via_controller_with_polled_progress_and_ready_event() {
    let (machine, engine, _device) = rig("coffee-1", DeviceCapabilities::nokia_9300i());
    let conn = engine.connect(&PeerAddr::new("coffee-1")).unwrap();
    let session = conn.acquire(COFFEE_INTERFACE).unwrap();

    // Turn the knob through the UI.
    session
        .handle_event(&UiEvent::SliderChanged {
            control: "strength".into(),
            value: 8,
        })
        .unwrap();
    assert_eq!(machine.strength(), 8);

    // Brew an espresso.
    session
        .handle_event(&UiEvent::Click {
            control: "espresso".into(),
        })
        .unwrap();
    assert!(machine.is_brewing());

    // The poll rule drives the progress bar until completion.
    let mut progress = 0;
    for _ in 0..10 {
        session.advance_time(500).unwrap();
        progress = session.with_state(|s| s.int("progress")).unwrap_or(0);
        if progress >= 100 {
            break;
        }
    }
    assert_eq!(progress, 100);
    assert_eq!(machine.brews_completed(), 1);

    // The completion event updates the status label on the phone.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut status = None;
    while std::time::Instant::now() < deadline {
        session.pump_events().unwrap();
        status = session.with_state(|s| s.text("status").map(str::to_owned));
        if status.as_deref() == Some("your espresso is ready") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(status.as_deref(), Some("your espresso is ready"));
    session.close();
    conn.close();
}

#[test]
fn brew_failures_surface_through_the_controller() {
    let (machine, engine, _device) = rig("coffee-2", DeviceCapabilities::nokia_9300i());
    let conn = engine.connect(&PeerAddr::new("coffee-2")).unwrap();
    let session = conn.acquire(COFFEE_INTERFACE).unwrap();

    // Exhaust the water device-side.
    for _ in 0..10 {
        machine.invoke_refillless_brew();
    }
    let err = session
        .handle_event(&UiEvent::Click {
            control: "espresso".into(),
        })
        .unwrap_err();
    assert!(err.to_string().contains("water"), "{err}");
    session.close();
    conn.close();
}

trait TestBrew {
    fn invoke_refillless_brew(&self);
}

impl TestBrew for alfredo_apps::CoffeeMachineService {
    fn invoke_refillless_brew(&self) {
        use alfredo_osgi::{Service, Value};
        self.invoke("brew", &[Value::from("espresso")]).unwrap();
        while self.is_brewing() {
            self.invoke("progress", &[]).unwrap();
        }
    }
}
