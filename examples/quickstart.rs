//! Quickstart: the smallest complete AlfredO interaction.
//!
//! A target device (an information screen) hosts a trivial greeter
//! service; a phone discovers it, leases the presentation tier, renders
//! the UI for its own hardware, and drives the service through the
//! declarative controller.
//!
//! ```text
//! cargo run -p alfredo-apps --example quickstart
//! ```

use std::sync::Arc;

use alfredo_core::{
    host_service, AlfredOEngine, Binding, ControllerProgram, Device, EngineConfig, MethodCall,
    Rule, ServiceDescriptor,
};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{
    FnService, Framework, MethodSpec, Properties, ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::{DiscoveryDirectory, ServiceUrl};
use alfredo_ui::{Control, DeviceCapabilities, UiDescription, UiEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The shared "radio range": an in-memory network and discovery domain.
    let net = InMemoryNetwork::new();
    let discovery = DiscoveryDirectory::new();

    // --- Target device side -------------------------------------------
    let device_fw = Framework::new();
    let interface = ServiceInterfaceDesc::new(
        "demo.Greeter",
        vec![MethodSpec::new(
            "greet",
            vec![],
            TypeHint::Str,
            "Returns a greeting from the device.",
        )],
    );
    let greeter = Arc::new(
        FnService::new(|method, _| match method {
            "greet" => Ok(Value::from("Hello from the information screen!")),
            other => Err(alfredo_osgi::ServiceCallError::NoSuchMethod(other.into())),
        })
        .with_description(interface),
    );
    // The descriptor: an abstract UI (a label and a button) plus one
    // controller rule wiring the button to the service method.
    let descriptor = ServiceDescriptor::new(
        "demo.Greeter",
        UiDescription::new("greeter")
            .with_control(Control::label("message", "— press the button —"))
            .with_control(Control::button("hello", "Say hello")),
    )
    .with_controller(ControllerProgram::new(vec![Rule::on_click(
        "hello",
        MethodCall::new("demo.Greeter", "greet", vec![]),
        Some(Binding::to("message")),
    )]));
    host_service(
        &device_fw,
        "demo.Greeter",
        greeter,
        &descriptor,
        None,
        Properties::new(),
    )?;
    let device = Device::new(device_fw).serve(&net, PeerAddr::new("screen"))?;
    discovery.advertise(
        ServiceUrl::new(
            "service:greeter",
            PeerAddr::new("screen"),
            Properties::new(),
        ),
        300,
        0,
    );

    // --- Phone side ----------------------------------------------------
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        discovery,
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()),
    );

    // Discover, connect, lease.
    let found = engine.discover("service:greeter", 1);
    println!("discovered: {}", found[0]);
    let conn = engine.connect(&found[0].addr)?;
    println!(
        "device offers: {:?}",
        conn.available_services()
            .iter()
            .map(|s| s.interfaces.join(","))
            .collect::<Vec<_>>()
    );
    let session = conn.acquire("demo.Greeter")?;
    println!(
        "acquired {} ({} bytes shipped, tiers: {})",
        session.descriptor().service,
        session.transferred_bytes(),
        session.assignment()
    );

    // The View, rendered for this phone's hardware.
    println!("\n--- rendered UI ({}) ---", session.rendered().backend);
    println!("{}", session.rendered().as_text());

    // Press the button: the Controller invokes the remote method and
    // binds the result into the label.
    session.handle_event(&UiEvent::Click {
        control: "hello".into(),
    })?;
    println!(
        "\nafter click, label shows: {:?}",
        session.with_state(|s| s.text("message").map(str::to_owned))
    );

    // Done: the lease ends, the proxy bundle is uninstalled.
    session.close();
    conn.close();
    device.stop();
    println!("session closed; proxies uninstalled.");
    Ok(())
}
