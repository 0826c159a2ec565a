//! The "universal access point" story (§1): one phone interacting with
//! several devices at once, and one appliance serving several phones —
//! "a service running on a coffee machine … may need to support an
//! average of 2-3 concurrent users" (§4.3).

use std::collections::HashMap;
use std::sync::Arc;

use alfredo_apps::{
    register_coffee_machine, register_mouse_controller, register_shop, sample_catalog,
    COFFEE_INTERFACE, MOUSE_INTERFACE, SHOP_INTERFACE,
};
use alfredo_core::{AlfredOEngine, Device, EngineConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_obs::{Obs, SpanRecord};
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{DiscoveryDirectory, ServeQueue, ServeQueueConfig};
use alfredo_ui::{DeviceCapabilities, UiEvent};

#[test]
fn one_phone_drives_three_devices_concurrently() {
    let net = InMemoryNetwork::new();

    // Three target devices of different kinds.
    let laptop_fw = Framework::new();
    let (mouse, _r) = register_mouse_controller(&laptop_fw, 1280, 800).unwrap();
    let _laptop = Device::new(laptop_fw)
        .serve(&net, PeerAddr::new("md-laptop"))
        .unwrap();

    let screen_fw = Framework::new();
    register_shop(&screen_fw, sample_catalog()).unwrap();
    let _screen = Device::new(screen_fw)
        .serve(&net, PeerAddr::new("md-screen"))
        .unwrap();

    let kitchen_fw = Framework::new();
    let (coffee, _r) = register_coffee_machine(&kitchen_fw).unwrap();
    let _kitchen = Device::new(kitchen_fw)
        .serve(&net, PeerAddr::new("md-kitchen"))
        .unwrap();

    // One phone, one framework, three simultaneous sessions.
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("the-phone", DeviceCapabilities::nokia_9300i()),
    );
    let c_laptop = engine.connect(&PeerAddr::new("md-laptop")).unwrap();
    let c_screen = engine.connect(&PeerAddr::new("md-screen")).unwrap();
    let c_kitchen = engine.connect(&PeerAddr::new("md-kitchen")).unwrap();
    let s_mouse = c_laptop.acquire(MOUSE_INTERFACE).unwrap();
    let s_shop = c_screen.acquire(SHOP_INTERFACE).unwrap();
    let s_coffee = c_kitchen.acquire(COFFEE_INTERFACE).unwrap();

    // All three proxies coexist in the phone's registry.
    let registry = engine.framework().registry();
    assert!(registry.get_service(MOUSE_INTERFACE).is_some());
    assert!(registry.get_service(SHOP_INTERFACE).is_some());
    assert!(registry.get_service(COFFEE_INTERFACE).is_some());

    // Interleaved interactions hit the right devices.
    s_mouse
        .handle_event(&UiEvent::Click {
            control: "right".into(),
        })
        .unwrap();
    s_shop
        .handle_event(&UiEvent::Click {
            control: "refresh".into(),
        })
        .unwrap();
    s_coffee
        .handle_event(&UiEvent::Click {
            control: "espresso".into(),
        })
        .unwrap();
    assert_eq!(mouse.position().0, 650);
    assert_eq!(
        s_shop.with_state(|s| s.items("categories").unwrap()).len(),
        4
    );
    assert!(coffee.is_brewing());

    // Closing one session leaves the others fully operational.
    s_mouse.close();
    c_laptop.close();
    assert!(registry.get_service(MOUSE_INTERFACE).is_none());
    assert!(registry.get_service(SHOP_INTERFACE).is_some());
    let verdict = s_shop
        .invoke(
            SHOP_INTERFACE,
            "compare",
            &[Value::from("Desk 'Nook'"), Value::from("Side Table 'Orb'")],
        )
        .unwrap();
    assert!(verdict.as_str().is_some());
    s_shop.close();
    s_coffee.close();
    c_screen.close();
    c_kitchen.close();
}

#[test]
fn one_appliance_serves_many_phones() {
    let net = InMemoryNetwork::new();
    let kitchen_fw = Framework::new();
    let (coffee, _r) = register_coffee_machine(&kitchen_fw).unwrap();
    let coffee = Arc::new(coffee);
    let _kitchen = Device::new(kitchen_fw)
        .serve(&net, PeerAddr::new("mp-kitchen"))
        .unwrap();

    // Eight phones hammer the machine concurrently: every knob turn and
    // status query must succeed; brews race and exactly the resourced
    // number complete.
    let mut handles = Vec::new();
    for p in 0..8i64 {
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let engine = AlfredOEngine::new(
                Framework::new(),
                net,
                DiscoveryDirectory::new(),
                EngineConfig::phone(
                    format!("phone-{p}"),
                    DeviceCapabilities::sony_ericsson_m600i(),
                ),
            );
            let conn = engine.connect(&PeerAddr::new("mp-kitchen")).unwrap();
            let session = conn.acquire(COFFEE_INTERFACE).unwrap();
            // Everyone fiddles with the knob and reads status.
            for i in 0..10 {
                session
                    .handle_event(&UiEvent::SliderChanged {
                        control: "strength".into(),
                        value: 1 + (p + i) % 10,
                    })
                    .unwrap();
                let status = session.invoke(COFFEE_INTERFACE, "status", &[]).unwrap();
                assert!(status.field("water_pct").is_some());
            }
            // Everyone tries to brew; only one can at a time.
            let brewed = session
                .handle_event(&UiEvent::Click {
                    control: "espresso".into(),
                })
                .is_ok();
            session.close();
            conn.close();
            brewed
        }));
    }
    let successes = handles
        .into_iter()
        .filter(|_| true)
        .map(|h| h.join().unwrap())
        .filter(|b| *b)
        .count();
    // At least one brew started; the machine is consistent afterwards.
    assert!(successes >= 1, "someone should get coffee");
    assert!(coffee.is_brewing() || coffee.brews_completed() > 0);
    let knob = coffee.strength();
    assert!((1..=10).contains(&knob), "knob in range: {knob}");
}

/// Asserts every span of `trace_id` chains up to a single `interaction`
/// root — the tree stays connected (no orphaned parents).
fn assert_connected_trace(spans: &[SpanRecord], trace_id: u64) {
    let by_id: HashMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|s| s.trace_id == trace_id)
        .map(|s| (s.span_id, s))
        .collect();
    let roots: Vec<&&SpanRecord> = by_id.values().filter(|s| s.parent_id.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root per trace, got {roots:?}");
    assert_eq!(roots[0].name, "interaction");
    let root_id = roots[0].span_id;
    for span in by_id.values() {
        // Walk up; every hop must resolve inside the same trace.
        let mut current = *span;
        let mut hops = 0;
        while let Some(pid) = current.parent_id {
            current = by_id
                .get(&pid)
                .unwrap_or_else(|| panic!("span {} has dangling parent {pid}", span.name));
            hops += 1;
            assert!(hops < 64, "parent cycle at span {}", span.name);
        }
        assert_eq!(
            current.span_id, root_id,
            "span {} not under root",
            span.name
        );
    }
}

/// Scale-out story, end to end: eight phones against one queued device.
/// Every session converges; each phone's *second* interaction hits its
/// tier cache (zero tier bytes re-transferred — the `tier_transfer`
/// phase collapses to a digest check); and each interaction's trace is a
/// single connected span tree.
#[test]
fn eight_phones_converge_hit_tier_cache_and_trace_connected() {
    let net = InMemoryNetwork::new();
    let kitchen_fw = Framework::new();
    register_coffee_machine(&kitchen_fw).unwrap();
    let queue = ServeQueue::new(ServeQueueConfig::workers(4));
    let device = Device::new(kitchen_fw)
        .queue(queue)
        .serve(&net, PeerAddr::new("sc-kitchen"))
        .unwrap();

    let mut handles = Vec::new();
    for p in 0..8 {
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let (obs, sink) = Obs::ring(4096);
            let engine = AlfredOEngine::new(
                Framework::new(),
                net,
                DiscoveryDirectory::new(),
                EngineConfig::phone(
                    format!("sc-phone-{p}"),
                    DeviceCapabilities::sony_ericsson_m600i(),
                )
                .with_obs(obs),
            );

            // First interaction: cold — the tier artifacts cross the wire.
            let conn = engine.connect(&PeerAddr::new("sc-kitchen")).unwrap();
            let s1 = conn.acquire(COFFEE_INTERFACE).unwrap();
            let cold_bytes = s1.transferred_bytes();
            assert!(cold_bytes > 0, "first fetch must transfer the tier");
            let status = s1.invoke(COFFEE_INTERFACE, "status", &[]).unwrap();
            assert!(status.field("water_pct").is_some());
            s1.close();
            conn.close();
            drop(conn);

            // Second interaction: the live lease advertises the same
            // digest, so the cache serves the tier — zero bytes moved.
            let conn = engine.connect(&PeerAddr::new("sc-kitchen")).unwrap();
            let s2 = conn.acquire(COFFEE_INTERFACE).unwrap();
            assert_eq!(
                s2.transferred_bytes(),
                0,
                "repeat interaction re-transferred tier bytes"
            );
            let status = s2.invoke(COFFEE_INTERFACE, "status", &[]).unwrap();
            assert!(status.field("water_pct").is_some());
            s2.close();
            conn.close();
            drop(conn);

            let stats = engine.tier_cache().stats();
            assert!(stats.hits >= 1, "second acquire must hit: {stats:?}");
            assert!(stats.entries >= 1, "{stats:?}");

            // Both interaction traces are connected trees.
            let spans = sink.snapshot();
            let mut trace_ids: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == "interaction")
                .map(|s| s.trace_id)
                .collect();
            trace_ids.sort_unstable();
            trace_ids.dedup();
            assert_eq!(trace_ids.len(), 2, "one trace per interaction");
            for tid in trace_ids {
                assert_connected_trace(&spans, tid);
            }
            cold_bytes
        }));
    }
    let cold: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(cold.len(), 8, "all sessions converge");
    // Every phone fetched the same artifacts, so the same byte count.
    assert!(cold.windows(2).all(|w| w[0] == w[1]), "{cold:?}");
    device.stop();
}
