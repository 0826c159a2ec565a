//! Integration tests for the future-work extensions (§7 of the paper):
//! online distribution optimization and synchronized data tiers.

use std::sync::Arc;
use std::time::Duration;

use alfredo_apps::shop::{link_comparison_logic, COMPARE_INTERFACE};
use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{
    register_data_store, AlfredOEngine, ClientContext, DataReplica, Device, EngineConfig,
    RuntimeOptimizer, ServedDevice, ThinClientPolicy,
};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{CodeRegistry, Framework, Value};
use alfredo_rosgi::{DiscoveryDirectory, EndpointConfig, RemoteEndpoint};
use alfredo_ui::DeviceCapabilities;

#[test]
fn online_optimizer_moves_slow_component_mid_session() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    register_shop(&device_fw, sample_catalog()).unwrap();
    let _device = Device::new(device_fw)
        .serve(&net, PeerAddr::new("opt-screen"))
        .unwrap();

    // Trusted phone, but starts with the thin-client policy: everything
    // remote.
    let code = CodeRegistry::new();
    link_comparison_logic(&code);
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("opt-phone", DeviceCapabilities::nokia_9300i()).trusted(code),
    )
    .with_policy(ThinClientPolicy);
    let conn = engine.connect(&PeerAddr::new("opt-screen")).unwrap();
    let session = conn.acquire(SHOP_INTERFACE).unwrap();
    assert!(!session.assignment().is_two_tier());

    let optimizer = RuntimeOptimizer {
        latency_threshold_ms: 50.0,
        min_samples: 8,
    };
    let ctx = ClientContext::trusted_phone();

    // Nothing to do yet: no observations.
    assert!(session.optimize(&optimizer, &ctx).unwrap().is_empty());

    // The interaction observes the comparison component being slow (a
    // congested radio link, say — injected here, measured in production).
    for _ in 0..10 {
        session.record_latency(COMPARE_INTERFACE, 120.0);
    }
    let moved = session.optimize(&optimizer, &ctx).unwrap();
    assert_eq!(moved, vec![COMPARE_INTERFACE]);
    assert!(session.assignment().is_two_tier());
    assert_eq!(session.assignment().offloaded(), vec![COMPARE_INTERFACE]);

    // The component now runs locally: compare without network calls.
    let catalog = sample_catalog();
    let calls0 = conn.endpoint().stats().calls_sent;
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
    assert_eq!(conn.endpoint().stats().calls_sent, calls0);

    // A second optimize pass is a no-op (already offloaded; observations
    // were reset).
    assert!(session.optimize(&optimizer, &ctx).unwrap().is_empty());
    session.close();
    conn.close();
}

#[test]
fn optimizer_refuses_in_untrusted_sessions() {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    register_shop(&device_fw, sample_catalog()).unwrap();
    let _device = Device::new(device_fw)
        .serve(&net, PeerAddr::new("opt-screen2"))
        .unwrap();
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("opt-phone2", DeviceCapabilities::nokia_9300i()),
    );
    let conn = engine.connect(&PeerAddr::new("opt-screen2")).unwrap();
    let session = conn.acquire(SHOP_INTERFACE).unwrap();
    for _ in 0..20 {
        session.record_latency(COMPARE_INTERFACE, 500.0);
    }
    let moved = session
        .optimize(
            &RuntimeOptimizer::default(),
            &ClientContext::untrusted_phone(),
        )
        .unwrap();
    assert!(moved.is_empty(), "no code moves without trust");
    session.close();
    conn.close();
}

/// A device + phone pair connected at the raw endpoint level.
struct DataRig {
    device_fw: Framework,
    phone_fw: Framework,
    phone_ep: Arc<RemoteEndpoint>,
    _device: ServedDevice,
}

fn data_rig(addr: &str) -> DataRig {
    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let device = Device::new(device_fw.clone())
        .serve(&net, PeerAddr::new(addr))
        .unwrap();
    let phone_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("data-phone"), PeerAddr::new(addr))
        .unwrap();
    let phone_ep = Arc::new(
        RemoteEndpoint::establish(
            Box::new(conn),
            phone_fw.clone(),
            EndpointConfig::named("data-phone"),
        )
        .unwrap(),
    );
    DataRig {
        device_fw,
        phone_fw,
        phone_ep,
        _device: device,
    }
}

#[test]
fn replica_seeds_from_snapshot() {
    let rig = data_rig("data-dev-1");
    let (store, _reg) = register_data_store(&rig.device_fw, "prices").unwrap();
    store.put("bed", Value::I64(49_900));
    store.put("sofa", Value::I64(89_900));

    let replica =
        DataReplica::attach(rig.phone_fw.clone(), Arc::clone(&rig.phone_ep), "prices").unwrap();
    assert_eq!(replica.len(), 2);
    assert_eq!(replica.get("bed"), Some(Value::I64(49_900)));
    assert_eq!(replica.get("missing"), None);
    replica.detach();
    rig.phone_ep.close();
}

#[test]
fn device_writes_propagate_to_replica() {
    let rig = data_rig("data-dev-2");
    let (store, _reg) = register_data_store(&rig.device_fw, "prices").unwrap();
    let replica =
        DataReplica::attach(rig.phone_fw.clone(), Arc::clone(&rig.phone_ep), "prices").unwrap();
    assert!(replica.is_empty());

    // The shop updates a price on the screen; the phone's replica learns
    // of it through a forwarded change event — no polling.
    let v = store.put("bed", Value::I64(44_900));
    assert!(
        replica.wait_for("bed", v, Duration::from_secs(5)),
        "replica should observe the device write"
    );
    assert_eq!(replica.get("bed"), Some(Value::I64(44_900)));

    // Removal propagates too.
    let v = store.remove("bed");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while replica.get("bed").is_some() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(replica.get("bed"), None);
    assert!(v > 0);
    replica.detach();
    rig.phone_ep.close();
}

#[test]
fn phone_writes_are_write_through_and_versioned() {
    let rig = data_rig("data-dev-3");
    let (store, _reg) = register_data_store(&rig.device_fw, "notes").unwrap();
    let replica =
        DataReplica::attach(rig.phone_fw.clone(), Arc::clone(&rig.phone_ep), "notes").unwrap();

    let v1 = replica.put("memo", Value::from("buy the bed")).unwrap();
    // The device is authoritative and has the write.
    assert_eq!(store.get("memo").unwrap().0, Value::from("buy the bed"));
    assert_eq!(store.get("memo").unwrap().1, v1);
    // The replica reads its own write locally.
    assert_eq!(replica.get("memo"), Some(Value::from("buy the bed")));
    assert_eq!(replica.local_version("memo"), Some(v1));

    // Write-through removal.
    let v2 = replica.remove("memo").unwrap();
    assert!(v2 > v1);
    assert!(store.get("memo").is_none());
    assert_eq!(replica.get("memo"), None);
    replica.detach();
    rig.phone_ep.close();
}

#[test]
fn stale_events_never_regress_the_replica() {
    let rig = data_rig("data-dev-4");
    let (store, _reg) = register_data_store(&rig.device_fw, "prices").unwrap();
    let replica =
        DataReplica::attach(rig.phone_fw.clone(), Arc::clone(&rig.phone_ep), "prices").unwrap();

    // Rapid successive writes: whatever event interleaving occurs, the
    // replica must converge to the highest version.
    let mut last = 0;
    for price in [1i64, 2, 3, 4, 5] {
        last = store.put("bed", Value::I64(price * 100)).max(last);
    }
    assert!(replica.wait_for("bed", last, Duration::from_secs(5)));
    assert_eq!(replica.get("bed"), Some(Value::I64(500)));
    assert_eq!(replica.local_version("bed"), Some(last));

    // Resync is idempotent.
    replica.resync().unwrap();
    assert_eq!(replica.get("bed"), Some(Value::I64(500)));
    replica.detach();
    rig.phone_ep.close();
}
