//! Device federation end-to-end: the phone borrows a notebook's larger
//! screen (§3.3's ScreenDevice example), with input capabilities staying
//! local and frames pushed through the R-OSGi proxy.

use alfredo_core::{project_ui, register_screen, Device, SCREEN_INTERFACE};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::{EndpointConfig, RemoteEndpoint};
use alfredo_ui::capability::ConcreteCapability;
use alfredo_ui::{CapabilityInterface, Control, DeviceCapabilities, UiDescription};

fn shop_ui() -> UiDescription {
    UiDescription::new("federated-shop")
        .with_control(Control::label("title", "Products on the big screen"))
        .with_control(Control::list("products", ["Bed", "Sofa", "Chair"]))
        .with_control(Control::button("details", "Details"))
}

#[test]
fn phone_projects_ui_onto_notebook_screen() {
    let net = InMemoryNetwork::new();
    let notebook_fw = Framework::new();
    let (screen, _reg) = register_screen(&notebook_fw, "Notebook", 1280, 800).unwrap();
    let _device = Device::new(notebook_fw)
        .serve(&net, PeerAddr::new("fed-notebook"))
        .unwrap();

    let phone_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("fed-notebook"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("phone"),
    )
    .unwrap();

    // The Nokia's 640x200 screen loses to the notebook's 1280x800.
    let projection = project_ui(
        &phone_fw,
        &ep,
        &shop_ui(),
        &DeviceCapabilities::nokia_9300i(),
    )
    .unwrap();
    let assignment = projection.screen_assignment().unwrap();
    assert!(assignment.remote, "the notebook's screen should win");
    assert_eq!(assignment.device, "Notebook");
    assert!(projection.plan.is_federated());

    // Input stays local: pointing resolved on the phone.
    let pointing = projection
        .plan
        .assignment(CapabilityInterface::PointingDevice)
        .unwrap();
    assert!(!pointing.remote);
    assert_eq!(pointing.capability, ConcreteCapability::CursorKeys);

    // The frame landed on the notebook, rendered at notebook size
    // (landscape rows preserved).
    let frame = screen.last_frame().expect("frame displayed remotely");
    assert!(frame.contains("Products on the big screen"));
    assert_eq!(frame, projection.rendered.as_text());
    assert_eq!(screen.frames_displayed(), 1);
    ep.close();
}

#[test]
fn big_local_screen_keeps_rendering_local() {
    let net = InMemoryNetwork::new();
    let kiosk_fw = Framework::new();
    // A tiny auxiliary screen on the remote device.
    let (screen, _reg) = register_screen(&kiosk_fw, "Badge display", 160, 80).unwrap();
    let _device = Device::new(kiosk_fw)
        .serve(&net, PeerAddr::new("fed-badge"))
        .unwrap();

    let phone_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("notebook"), PeerAddr::new("fed-badge"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("notebook"),
    )
    .unwrap();

    // A notebook's own 1280x800 screen beats the 160x80 badge display.
    let projection =
        project_ui(&phone_fw, &ep, &shop_ui(), &DeviceCapabilities::notebook()).unwrap();
    let assignment = projection.screen_assignment().unwrap();
    assert!(!assignment.remote, "local screen is better");
    // No frame was pushed to the remote display.
    assert_eq!(screen.frames_displayed(), 0);
    assert!(screen.last_frame().is_none());
    ep.close();
}

#[test]
fn projection_requires_a_remote_screen_service() {
    let net = InMemoryNetwork::new();
    let bare_fw = Framework::new(); // no screen registered
    let _device = Device::new(bare_fw)
        .serve(&net, PeerAddr::new("fed-bare"))
        .unwrap();
    let phone_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("fed-bare"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("phone"),
    )
    .unwrap();
    let err = project_ui(
        &phone_fw,
        &ep,
        &shop_ui(),
        &DeviceCapabilities::nokia_9300i(),
    )
    .unwrap_err();
    assert!(err.to_string().contains(SCREEN_INTERFACE), "{err}");
    ep.close();
}
