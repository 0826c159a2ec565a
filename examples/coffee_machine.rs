//! CoffeeMachine: the paper's archetypal appliance, driven from a phone.
//!
//! Shows the §3.3 capability mapping in action — the machine's strength
//! *knob* is an abstract slider that the Nokia implements with cursor
//! keys and a browser implements as an HTML range input — plus the
//! poll-driven progress bar and the completion event.
//!
//! ```text
//! cargo run -p alfredo-apps --example coffee_machine
//! ```

use alfredo_apps::{register_coffee_machine, COFFEE_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{DeviceCapabilities, UiEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = InMemoryNetwork::new();
    let machine_fw = Framework::new();
    let (machine, _reg) = register_coffee_machine(&machine_fw)?;
    let device = Device::new(machine_fw).serve(&net, PeerAddr::new("kitchen"))?;

    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
    );
    let conn = engine.connect(&PeerAddr::new("kitchen"))?;
    let session = conn.acquire(COFFEE_INTERFACE)?;

    println!("--- coffee machine UI on the phone ---");
    println!("{}", session.rendered().as_text());
    println!(
        "knob implemented by: {:?}\n",
        session
            .rendered()
            .widget_for("strength")
            .and_then(|w| w.input)
    );

    // Turn the knob, start a brew, watch progress via the poll rule.
    session.handle_event(&UiEvent::SliderChanged {
        control: "strength".into(),
        value: 9,
    })?;
    println!("strength set to {}", machine.strength());
    session.handle_event(&UiEvent::Click {
        control: "espresso".into(),
    })?;
    while machine.is_brewing() {
        session.advance_time(500)?;
        let p = session.with_state(|s| s.int("progress")).unwrap_or(0);
        println!("brewing… {p}%");
    }
    // The ready event lands on the phone's bus.
    for _ in 0..100 {
        session.pump_events()?;
        if let Some(status) = session.with_state(|s| s.text("status").map(str::to_owned)) {
            if status.contains("ready") {
                println!("status: {status}");
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    println!(
        "machine: {} brew(s) done, water at {}%",
        machine.brews_completed(),
        machine.water_pct()
    );
    session.close();
    conn.close();
    device.stop();
    Ok(())
}
