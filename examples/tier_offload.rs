//! Tier offloading: the same shop service acquired under three different
//! distribution policies, showing how AlfredO moves the boundary between
//! phone and target device (§3.2 of the paper).
//!
//! * untrusted thin client — presentation only (sandbox);
//! * trusted + LogicOffloadPolicy — the comparison logic runs on the
//!   phone as a smart proxy (zero network calls for `compare`);
//! * AdaptivePolicy — offloads only when the link is slow.
//!
//! ```text
//! cargo run -p alfredo-apps --example tier_offload
//! ```

use alfredo_apps::shop::{link_comparison_logic, COMPARE_INTERFACE};
use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{
    AdaptivePolicy, AlfredOEngine, ClientContext, Device, EngineConfig, LogicOffloadPolicy,
    TrustLevel,
};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{CodeRegistry, Framework, Value};
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::DeviceCapabilities;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = InMemoryNetwork::new();
    let screen_fw = Framework::new();
    register_shop(&screen_fw, sample_catalog())?;
    let device = Device::new(screen_fw).serve(&net, PeerAddr::new("screen"))?;

    let catalog = sample_catalog();
    let a = catalog.get("Desk 'Nook'").unwrap().to_value();
    let b = catalog.get("Side Table 'Orb'").unwrap().to_value();

    // --- 1. Untrusted phone: thin client (the AlfredO default) ----------
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("untrusted-phone", DeviceCapabilities::nokia_9300i()),
    )
    .with_policy(LogicOffloadPolicy); // wants to offload, but has no trust
    let conn = engine.connect(&PeerAddr::new("screen"))?;
    let session = conn.acquire(SHOP_INTERFACE)?;
    println!("[untrusted]  tiers: {}", session.assignment());
    // The comparison component never reached the phone, but a direct
    // call on its declared interface still works: the session routes it
    // over the wire to wherever the tier currently lives. Callers never
    // need to know the placement — the transparency the live re-tiering
    // loop (DESIGN.md §16) relies on when it moves tiers mid-session.
    let calls0 = conn.endpoint().stats().calls_sent;
    let direct = session.invoke(COMPARE_INTERFACE, "compare", &[a.clone(), b.clone()])?;
    println!(
        "[untrusted]  direct compare -> {:?} ({} network call — routed to target)",
        direct.as_str().unwrap_or("?"),
        conn.endpoint().stats().calls_sent - calls0
    );
    let calls0 = conn.endpoint().stats().calls_sent;
    let verdict = session.invoke(
        SHOP_INTERFACE,
        "compare",
        &[Value::from("Desk 'Nook'"), Value::from("Side Table 'Orb'")],
    )?;
    println!(
        "[untrusted]  via remote facade -> {:?} ({} network call)",
        verdict.as_str().unwrap_or("?"),
        conn.endpoint().stats().calls_sent - calls0
    );
    session.close();
    conn.close();

    // --- 2. Trusted phone: the comparison logic moves to the phone ------
    let code = CodeRegistry::new();
    link_comparison_logic(&code); // the statically linked "shipped" code
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone("trusted-phone", DeviceCapabilities::nokia_9300i()).trusted(code),
    )
    .with_policy(LogicOffloadPolicy);
    let conn = engine.connect(&PeerAddr::new("screen"))?;
    let session = conn.acquire(SHOP_INTERFACE)?;
    println!("\n[trusted]    tiers: {}", session.assignment());
    let calls0 = conn.endpoint().stats().calls_sent;
    let verdict = session.invoke(COMPARE_INTERFACE, "compare", &[a.clone(), b.clone()])?;
    println!(
        "[trusted]    compare -> {:?} ({} network calls — ran locally)",
        verdict.as_str().unwrap_or("?"),
        conn.endpoint().stats().calls_sent - calls0
    );
    session.close();
    conn.close();

    // --- 3. Adaptive policy: link quality decides ------------------------
    for (label, rtt_ms) in [("fast LAN-like link", 5.0), ("slow lossy link", 120.0)] {
        let code = CodeRegistry::new();
        link_comparison_logic(&code);
        let mut config =
            EngineConfig::phone("adaptive-phone", DeviceCapabilities::nokia_9300i()).trusted(code);
        config.context = ClientContext {
            link_rtt_ms: rtt_ms,
            trust: TrustLevel::Trusted,
            ..ClientContext::trusted_phone()
        };
        let engine = AlfredOEngine::new(
            Framework::new(),
            net.clone(),
            DiscoveryDirectory::new(),
            config,
        )
        .with_policy(AdaptivePolicy::default());
        let conn = engine.connect(&PeerAddr::new("screen"))?;
        let session = conn.acquire(SHOP_INTERFACE)?;
        println!(
            "\n[adaptive]   {label} (rtt {rtt_ms} ms): two-tier = {}",
            session.assignment().is_two_tier()
        );
        session.close();
        conn.close();
    }

    let _ = Value::Unit;
    device.stop();
    Ok(())
}
