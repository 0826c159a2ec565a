//! The future-work extensions (§7 of the paper) working together:
//!
//! 1. **Screen federation** — the phone borrows the notebook's larger
//!    screen for its shop UI (§3.3's ScreenDevice example);
//! 2. **Synchronized data tier** — a price list replicated to the phone,
//!    updated transparently when the shop changes a price;
//! 3. **Online optimization** — the comparison logic migrates to the
//!    phone mid-session once the link is observed to be slow.
//!
//! ```text
//! cargo run -p alfredo-apps --example extensions
//! ```

use std::time::Duration;

use alfredo_apps::shop::{link_comparison_logic, COMPARE_INTERFACE};
use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{
    project_ui, register_data_store, register_screen, AlfredOEngine, ClientContext, DataReplica,
    Device, EngineConfig, RuntimeOptimizer, ThinClientPolicy,
};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{CodeRegistry, Framework, Value};
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{Control, DeviceCapabilities, UiDescription};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = InMemoryNetwork::new();

    // --- The shop's information screen hosts everything ------------------
    let screen_fw = Framework::new();
    register_shop(&screen_fw, sample_catalog())?;
    let (big_screen, _r1) = register_screen(&screen_fw, "Shop window screen", 1024, 768)?;
    let (prices, _r2) = register_data_store(&screen_fw, "prices")?;
    prices.put("Queen Bed 'Aurora'", Value::I64(49_900));
    prices.put("Sofa 'Ease' 3-seat", Value::I64(89_900));
    let device = Device::new(screen_fw).serve(&net, PeerAddr::new("shop"))?;

    // --- A trusted phone connects ----------------------------------------
    let code = CodeRegistry::new();
    link_comparison_logic(&code);
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i()).trusted(code),
    )
    .with_policy(ThinClientPolicy); // start thin; the optimizer may change that
    let conn = engine.connect(&PeerAddr::new("shop"))?;
    let session = conn.acquire(SHOP_INTERFACE)?;
    println!("session starts as: {}", session.assignment());

    // --- 1. Project a companion UI onto the shop's big screen -----------
    let banner = UiDescription::new("banner")
        .with_control(Control::label("headline", "TODAY: beds -10%"))
        .with_control(Control::list("highlights", ["Aurora", "Borealis"]));
    let projection = project_ui(
        engine.framework(),
        conn.endpoint(),
        &banner,
        &engine.config().capabilities,
    )?;
    println!(
        "projected banner to '{}' (remote: {}); screen has {} frame(s)",
        projection.screen_assignment().unwrap().device,
        projection.screen_assignment().unwrap().remote,
        big_screen.frames_displayed()
    );

    // --- 2. Replicated price list ----------------------------------------
    let replica =
        DataReplica::attach(engine.framework().clone(), conn.endpoint_handle(), "prices")?;
    println!(
        "\nreplica seeded with {} price(s); Aurora costs {:?} cents (local read)",
        replica.len(),
        replica.get("Queen Bed 'Aurora'").and_then(|v| v.as_i64())
    );
    // The shop cuts a price on its side; the replica converges via a
    // forwarded change event.
    let v = prices.put("Queen Bed 'Aurora'", Value::I64(44_900));
    replica.wait_for("Queen Bed 'Aurora'", v, Duration::from_secs(5));
    println!(
        "after the shop's price cut: {:?} cents (no polling involved)",
        replica.get("Queen Bed 'Aurora'").and_then(|v| v.as_i64())
    );

    // --- 3. Online optimization ------------------------------------------
    let catalog = sample_catalog();
    let a = catalog.get("Desk 'Nook'").unwrap().to_value();
    let b = catalog.get("Side Table 'Orb'").unwrap().to_value();
    // The session observes the comparison component being slow remotely.
    for _ in 0..10 {
        session.record_latency(COMPARE_INTERFACE, 130.0);
    }
    let moved = session.optimize(
        &RuntimeOptimizer::default(),
        &ClientContext::trusted_phone(),
    )?;
    println!("\noptimizer moved: {moved:?}");
    println!("session now runs as: {}", session.assignment());
    let calls0 = conn.endpoint().stats().calls_sent;
    let verdict = session.invoke(COMPARE_INTERFACE, "compare", &[a, b])?;
    println!(
        "compare -> {:?} ({} network calls)",
        verdict.as_str().unwrap_or("?"),
        conn.endpoint().stats().calls_sent - calls0
    );

    replica.detach();
    session.close();
    conn.close();
    device.stop();
    Ok(())
}
