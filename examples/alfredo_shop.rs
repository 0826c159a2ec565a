//! AlfredOShop (§5.2 of the paper): browsing a shop-window information
//! screen from a phone — even when the shop is closed.
//!
//! The catalogue (data tier) never leaves the screen; the phone gets the
//! abstract UI description and self-renders it. The same interaction is
//! shown on a Nokia 9300i (landscape SWT-style widgets) and an iPhone
//! (HTML + AJAX) — Figures 8 and 9.
//!
//! ```text
//! cargo run -p alfredo-apps --example alfredo_shop
//! ```

use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{DiscoveryDirectory, ServiceUrl};
use alfredo_ui::{DeviceCapabilities, UiEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = InMemoryNetwork::new();
    let discovery = DiscoveryDirectory::new();

    // --- The information screen behind the shop window ------------------
    let screen_fw = Framework::new();
    register_shop(&screen_fw, sample_catalog())?;
    let device = Device::new(screen_fw).serve(&net, PeerAddr::new("shop-window"))?;
    discovery.advertise(
        ServiceUrl::new(
            "service:alfredo-shop",
            PeerAddr::new("shop-window"),
            alfredo_osgi::Properties::new().with("shop", "Fjord Furniture"),
        ),
        3600,
        0,
    );

    // --- A passer-by's Nokia 9300i, at night ----------------------------
    let phone = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("nokia", DeviceCapabilities::nokia_9300i()),
    );
    let urls = discovery.find("service:alfredo-shop", 10);
    println!("invitation from: {} ({})", urls[0], urls[0].properties);
    let conn = phone.connect(&urls[0].addr)?;
    let session = conn.acquire(SHOP_INTERFACE)?;
    println!(
        "leased {} — {} bytes shipped, proxy bundle {} bytes on 'disk'",
        SHOP_INTERFACE,
        session.transferred_bytes(),
        session.proxy_footprint()
    );
    println!("\n--- the shop UI on the Nokia ---");
    println!("{}", session.rendered().as_text());

    // Browse: refresh categories, pick Beds, inspect a product, search.
    session.handle_event(&UiEvent::Click {
        control: "refresh".into(),
    })?;
    let cats = session.with_state(|s| s.items("categories").unwrap());
    println!("categories: {cats:?}");
    session.handle_event(&UiEvent::Selected {
        control: "categories".into(),
        index: 0,
    })?;
    let beds = session.with_state(|s| s.items("products").unwrap());
    println!("beds: {beds:?}");
    session.handle_event(&UiEvent::Selected {
        control: "products".into(),
        index: 0,
    })?;
    let detail = session.with_state(|s| s.get("detail").cloned()).unwrap();
    println!(
        "detail: {} — {} cents, stock {}",
        detail.field("name").and_then(Value::as_str).unwrap_or("?"),
        detail
            .field("price_cents")
            .and_then(Value::as_i64)
            .unwrap_or(0),
        detail.field("stock").and_then(Value::as_i64).unwrap_or(0),
    );
    session.handle_event(&UiEvent::TextChanged {
        control: "search".into(),
        text: "sofa".into(),
    })?;
    println!(
        "search 'sofa': {:?}",
        session.with_state(|s| s.items("products").unwrap())
    );
    // Server-side comparison through the facade.
    let verdict = session.invoke(
        SHOP_INTERFACE,
        "compare",
        &[
            Value::from("Sofa 'Ease' 2-seat"),
            Value::from("Corner Sofa 'Fjord'"),
        ],
    )?;
    println!("compare: {}", verdict.as_str().unwrap_or("?"));
    session.close();
    conn.close();

    // --- The same shop from an iPhone (browser client, Figure 9) --------
    let iphone = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("iphone", DeviceCapabilities::iphone()),
    );
    let conn = iphone.connect(&PeerAddr::new("shop-window"))?;
    let session = conn.acquire(SHOP_INTERFACE)?;
    let html = session.rendered().as_text();
    println!(
        "\niPhone gets {} bytes of AJAX-enabled HTML; first lines:",
        html.len()
    );
    for line in html.lines().take(6) {
        println!("  {line}");
    }
    session.close();
    conn.close();
    device.stop();
    Ok(())
}
