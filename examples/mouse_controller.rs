//! MouseController (§5.1 of the paper): the phone as a universal remote
//! controller for a notebook's mouse pointer, with screen snapshots
//! flowing back as asynchronous events under a bandwidth budget.
//!
//! The same abstract UI is rendered twice — for a Nokia 9300i (cursor
//! keys drive the pointer) and for an iPhone (accelerometer tilt) — the
//! paper's Figure 7 scenario.
//!
//! ```text
//! cargo run -p alfredo-apps --example mouse_controller
//! ```

use alfredo_apps::{register_mouse_controller, MOUSE_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{CapabilityInterface, DeviceCapabilities, UiEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = InMemoryNetwork::new();

    // --- The notebook (target device) ----------------------------------
    let notebook_fw = Framework::new();
    let (mouse, _registration) = register_mouse_controller(&notebook_fw, 1280, 800)?;
    let device = Device::new(notebook_fw).serve(&net, PeerAddr::new("notebook"))?;

    // --- A Nokia 9300i drives the pointer with its cursor keys ---------
    let nokia = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("nokia-9300i", DeviceCapabilities::nokia_9300i()),
    );
    let conn = nokia.connect(&PeerAddr::new("notebook"))?;
    let session = conn.acquire(MOUSE_INTERFACE)?;
    let pointing = nokia
        .config()
        .capabilities
        .best_for(CapabilityInterface::PointingDevice)
        .expect("phone can point");
    println!(
        "Nokia 9300i: PointingDevice implemented by {} (quality {})",
        pointing.0, pointing.1
    );
    println!(
        "--- UI on the Nokia ({} renderer) ---",
        session.rendered().backend
    );
    println!("{}\n", session.rendered().as_text());

    println!("pointer starts at {:?}", mouse.position());
    for _ in 0..3 {
        session.handle_event(&UiEvent::Click {
            control: "right".into(),
        })?;
    }
    session.handle_event(&UiEvent::Click {
        control: "down".into(),
    })?;
    session.handle_event(&UiEvent::Click {
        control: "click".into(),
    })?;
    println!(
        "after 3x right, 1x down, click: pointer {:?}, clicks {}",
        mouse.position(),
        mouse.clicks()
    );

    // Snapshot events: the notebook publishes under a bandwidth budget;
    // the phone's controller binds the bitmap into the image control.
    for t in 0..50u64 {
        mouse.maybe_publish_snapshot(t * 10, 100);
        session.pump_events()?;
        let have = session.with_state(|s| {
            s.get_slot("snapshot", "data")
                .and_then(alfredo_osgi::Value::as_bytes)
                .map(<[u8]>::len)
        });
        if let Some(bytes) = have {
            println!("snapshot received on the phone: {bytes} bytes (RGB bitmap)");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    println!(
        "session runtime memory: {} bytes (the paper's ~200 kB is the bitmap)",
        session.memory_footprint()
    );
    session.close();
    conn.close();

    // --- The same service from an iPhone: accelerometer + HTML ---------
    let iphone = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("iphone", DeviceCapabilities::iphone()),
    );
    let conn = iphone.connect(&PeerAddr::new("notebook"))?;
    let session = conn.acquire(MOUSE_INTERFACE)?;
    println!(
        "\niPhone: renders via {} ({} bytes of HTML), points via accelerometer/touch",
        session.rendered().backend,
        session.rendered().as_text().len()
    );
    // Tilting the phone moves the pointer.
    session.handle_event(&UiEvent::PointerMoved {
        control: "pad".into(),
        dx: -25,
        dy: 40,
    })?;
    println!("after a tilt: pointer {:?}", mouse.position());
    session.close();
    conn.close();
    device.stop();
    Ok(())
}
