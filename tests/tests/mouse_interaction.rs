//! End-to-end MouseController interaction (§5.1): the phone steering a
//! notebook's pointer, including the asynchronous snapshot-event path.

use std::sync::Arc;
use std::time::Duration;

use alfredo_apps::mouse::{SNAPSHOT_HEIGHT, SNAPSHOT_TOPIC, SNAPSHOT_WIDTH};
use alfredo_apps::{register_mouse_controller, MouseControllerService, MOUSE_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{DeviceCapabilities, UiEvent};

struct Rig {
    service: Arc<MouseControllerService>,
    _device: alfredo_core::engine::ServedDevice,
    engine: AlfredOEngine,
}

fn rig(addr: &str, phone_caps: DeviceCapabilities) -> Rig {
    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    let (service, _reg) = register_mouse_controller(&fw, 1280, 800).unwrap();
    let device = Device::new(fw).serve(&net, PeerAddr::new(addr)).unwrap();
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", phone_caps),
    );
    Rig {
        service,
        _device: device,
        engine,
    }
}

#[test]
fn pad_buttons_move_the_remote_pointer() {
    let r = rig("laptop-1", DeviceCapabilities::nokia_9300i());
    let conn = r.engine.connect(&PeerAddr::new("laptop-1")).unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();

    let (x0, y0) = r.service.position();
    session
        .handle_event(&UiEvent::Click {
            control: "right".into(),
        })
        .unwrap();
    session
        .handle_event(&UiEvent::Click {
            control: "right".into(),
        })
        .unwrap();
    session
        .handle_event(&UiEvent::Click {
            control: "down".into(),
        })
        .unwrap();
    assert_eq!(r.service.position(), (x0 + 20, y0 + 10));

    session
        .handle_event(&UiEvent::Click {
            control: "click".into(),
        })
        .unwrap();
    assert_eq!(r.service.clicks(), 1);
    session.close();
    conn.close();
}

#[test]
fn raw_pointer_input_maps_through_the_pad() {
    // On the iPhone, the accelerometer produces PointerMoved events; the
    // controller's UiPointer rule carries dx/dy to the remote service.
    let r = rig("laptop-2", DeviceCapabilities::iphone());
    let conn = r.engine.connect(&PeerAddr::new("laptop-2")).unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();
    let (x0, y0) = r.service.position();
    session
        .handle_event(&UiEvent::PointerMoved {
            control: "pad".into(),
            dx: -30,
            dy: 12,
        })
        .unwrap();
    assert_eq!(r.service.position(), (x0 - 30, y0 + 12));
    session.close();
    conn.close();
}

#[test]
fn snapshot_events_flow_to_the_phone_ui() {
    let r = rig("laptop-3", DeviceCapabilities::nokia_9300i());
    let conn = r.engine.connect(&PeerAddr::new("laptop-3")).unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();

    // The device publishes snapshots periodically on its local bus;
    // R-OSGi forwards them because the phone's session registered
    // interest in the topic (the EventInterest update races the first
    // publications, as on real hardware — later snapshots get through).
    let mut bytes = None;
    for i in 0..100u64 {
        r.service.maybe_publish_snapshot(i, 0);
        session.pump_events().unwrap();
        bytes = session.with_state(|s| {
            s.get_slot("snapshot", "data")
                .and_then(alfredo_osgi::Value::as_bytes)
                .map(<[u8]>::to_vec)
        });
        if bytes.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let bytes = bytes.expect("snapshot should reach the phone UI state");
    assert_eq!(bytes.len(), SNAPSHOT_WIDTH * SNAPSHOT_HEIGHT * 3);

    // §4.1: MouseController's runtime memory is dominated by the bitmap
    // (~200 kB), far above the shop's.
    assert!(session.memory_footprint() > 150_000);
    session.close();
    conn.close();
}

#[test]
fn screenshot_also_available_synchronously() {
    let r = rig("laptop-4", DeviceCapabilities::nokia_9300i());
    let conn = r.engine.connect(&PeerAddr::new("laptop-4")).unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();
    let snap = session.invoke(MOUSE_INTERFACE, "screenshot", &[]).unwrap();
    assert_eq!(
        snap.as_bytes().unwrap().len(),
        SNAPSHOT_WIDTH * SNAPSHOT_HEIGHT * 3
    );
    // The descriptor's image control sources its pixels from the
    // snapshot topic.
    let image = session.descriptor().ui.find("snapshot").unwrap();
    match &image.kind {
        alfredo_ui::ControlKind::Image { source, .. } => {
            assert_eq!(source, SNAPSHOT_TOPIC);
        }
        other => panic!("snapshot control should be an image, got {other:?}"),
    }
    session.close();
    conn.close();
}
