//! End-to-end AlfredOShop interaction: the paper's §5.2 scenario driven
//! through the full stack — engine, endpoint, proxies, renderer, and the
//! declarative controller.

use alfredo_apps::shop::{link_comparison_logic, COMPARE_INTERFACE, SHOP_INTERFACE};
use alfredo_apps::{register_shop, sample_catalog};
use alfredo_core::session::ActionOutcome;
use alfredo_core::{AlfredOEngine, Device, EngineConfig, LogicOffloadPolicy};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{CodeRegistry, Framework};
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{DeviceCapabilities, UiEvent};

fn shop_device(net: &InMemoryNetwork, addr: &str) -> alfredo_core::engine::ServedDevice {
    let fw = Framework::new();
    register_shop(&fw, sample_catalog()).unwrap();
    Device::new(fw).serve(net, PeerAddr::new(addr)).unwrap()
}

fn phone_engine(net: &InMemoryNetwork, name: &str) -> AlfredOEngine {
    AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone(name, DeviceCapabilities::nokia_9300i()),
    )
}

#[test]
fn browse_products_through_the_controller() {
    let net = InMemoryNetwork::new();
    let _device = shop_device(&net, "screen-1");
    let engine = phone_engine(&net, "phone");
    let conn = engine.connect(&PeerAddr::new("screen-1")).unwrap();

    // The lease lists the shop.
    assert!(conn
        .available_services()
        .iter()
        .any(|s| s.offers(SHOP_INTERFACE)));

    let session = conn.acquire(SHOP_INTERFACE).unwrap();
    assert_eq!(session.descriptor().service, SHOP_INTERFACE);
    // Default thin client: nothing offloaded.
    assert!(!session.assignment().is_two_tier());
    // The View was rendered for the 9300i (widget renderer, landscape).
    assert_eq!(session.rendered().backend, "widget");
    assert!(session.rendered().as_text().contains("AlfredO Shop"));

    // Click "Refresh": the controller invokes categories() and binds the
    // result into the categories list.
    let outcomes = session
        .handle_event(&UiEvent::Click {
            control: "refresh".into(),
        })
        .unwrap();
    assert!(matches!(
        &outcomes[..],
        [ActionOutcome::Invoked { service, method, .. }]
            if service == SHOP_INTERFACE && method == "categories"
    ));
    let cats = session.with_state(|s| s.items("categories").unwrap());
    assert_eq!(cats, vec!["Beds", "Chairs", "Sofas", "Tables"]);

    // Select "Beds": products list fills.
    session
        .handle_event(&UiEvent::Selected {
            control: "categories".into(),
            index: 0,
        })
        .unwrap();
    let products = session.with_state(|s| s.items("products").unwrap());
    assert_eq!(products.len(), 4);
    assert!(products.iter().any(|p| p.contains("Aurora")));

    // Select the first product: details bound into the detail label.
    session
        .handle_event(&UiEvent::Selected {
            control: "products".into(),
            index: 0,
        })
        .unwrap();
    let detail = session.with_state(|s| s.get("detail").cloned()).unwrap();
    assert_eq!(
        detail
            .field("category")
            .and_then(alfredo_osgi::Value::as_str),
        Some("Beds")
    );

    // Type into search: products list becomes search results.
    session
        .handle_event(&UiEvent::TextChanged {
            control: "search".into(),
            text: "sofa".into(),
        })
        .unwrap();
    let hits = session.with_state(|s| s.items("products").unwrap());
    assert!(hits.len() >= 4, "{hits:?}");
    assert!(hits.iter().all(|h| h.to_lowercase().contains("sofa")));

    // Closing the session releases the proxy.
    session.close();
    assert!(engine
        .framework()
        .registry()
        .get_service(SHOP_INTERFACE)
        .is_none());
    conn.close();
}

#[test]
fn untrusted_phone_stays_thin_and_calls_remotely() {
    let net = InMemoryNetwork::new();
    let _device = shop_device(&net, "screen-2");
    let engine = phone_engine(&net, "phone").with_policy(LogicOffloadPolicy);
    let conn = engine.connect(&PeerAddr::new("screen-2")).unwrap();
    let session = conn.acquire(SHOP_INTERFACE).unwrap();
    // LogicOffloadPolicy degrades to thin client without trust.
    assert!(!session.assignment().is_two_tier());
    // compare() works — remotely, through the shop facade.
    let verdict = session
        .invoke(
            SHOP_INTERFACE,
            "compare",
            &[
                alfredo_osgi::Value::from("Desk 'Nook'"),
                alfredo_osgi::Value::from("Side Table 'Orb'"),
            ],
        )
        .unwrap();
    assert!(verdict.as_str().unwrap().contains("Orb"));
    session.close();
    conn.close();
}

#[test]
fn trusted_phone_offloads_comparison_logic() {
    let net = InMemoryNetwork::new();
    let _device = shop_device(&net, "screen-3");

    let code = CodeRegistry::new();
    link_comparison_logic(&code);
    let config = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()).trusted(code);
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        config,
    )
    .with_policy(LogicOffloadPolicy);
    let conn = engine.connect(&PeerAddr::new("screen-3")).unwrap();
    let session = conn.acquire(SHOP_INTERFACE).unwrap();

    // The comparison component was pulled to the client.
    assert!(session.assignment().is_two_tier());
    assert_eq!(session.assignment().offloaded(), vec![COMPARE_INTERFACE]);
    // Its proxy is installed locally as a *smart* proxy: invoking compare
    // does not cross the network.
    let calls_before = conn.endpoint().stats().calls_sent;
    let catalog = sample_catalog();
    let verdict = session
        .invoke(
            COMPARE_INTERFACE,
            "compare",
            &[
                catalog.get("Desk 'Nook'").unwrap().to_value(),
                catalog.get("Side Table 'Orb'").unwrap().to_value(),
            ],
        )
        .unwrap();
    assert!(verdict.as_str().unwrap().contains("Orb"));
    assert_eq!(
        conn.endpoint().stats().calls_sent,
        calls_before,
        "smart proxy must run compare locally"
    );
    session.close();
    conn.close();
}

#[test]
fn same_service_renders_differently_per_phone() {
    // Figure 8 vs Figure 9: the Nokia gets a widget UI, the iPhone HTML.
    let net = InMemoryNetwork::new();
    let _device = shop_device(&net, "screen-4");

    let nokia = phone_engine(&net, "nokia");
    let conn_nokia = nokia.connect(&PeerAddr::new("screen-4")).unwrap();
    let session_nokia = conn_nokia.acquire(SHOP_INTERFACE).unwrap();

    let iphone_engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("iphone", DeviceCapabilities::iphone()),
    );
    let conn_iphone = iphone_engine.connect(&PeerAddr::new("screen-4")).unwrap();
    let session_iphone = conn_iphone.acquire(SHOP_INTERFACE).unwrap();

    assert_eq!(session_nokia.rendered().backend, "widget");
    assert_eq!(session_iphone.rendered().backend, "html");
    assert!(session_iphone
        .rendered()
        .as_text()
        .contains("<!DOCTYPE html>"));
    assert_ne!(
        session_nokia.rendered().as_text(),
        session_iphone.rendered().as_text()
    );

    session_nokia.close();
    session_iphone.close();
    conn_nokia.close();
    conn_iphone.close();
}

#[test]
fn device_shutdown_tears_down_phone_proxies() {
    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    register_shop(&fw, sample_catalog()).unwrap();
    let device = Device::new(fw)
        .serve(&net, PeerAddr::new("screen-5"))
        .unwrap();

    let engine = phone_engine(&net, "phone");
    let conn = engine.connect(&PeerAddr::new("screen-5")).unwrap();
    let session = conn.acquire(SHOP_INTERFACE).unwrap();
    assert!(engine
        .framework()
        .registry()
        .get_service(SHOP_INTERFACE)
        .is_some());

    // The device goes away mid-interaction (connection closed from its
    // side).
    conn.endpoint().close();
    device.stop();

    // The proxy vanished; the interaction surface reports failures
    // instead of hanging.
    assert!(engine
        .framework()
        .registry()
        .get_service(SHOP_INTERFACE)
        .is_none());
    let err = session
        .handle_event(&UiEvent::Click {
            control: "refresh".into(),
        })
        .unwrap_err();
    assert!(err.to_string().contains("call"), "{err}");
    session.close();
}
