//! Tier-cache behaviour under contention: concurrent acquires sharing
//! one phone's [`TierCache`] while the byte budget forces LRU eviction
//! and the device re-hosts a service mid-run (so its advertised
//! [`PROP_TIER_DIGEST`](alfredo_rosgi::PROP_TIER_DIGEST) changes under
//! the racers' feet). The cache's contract: a hit may only ever serve
//! the artifacts the *live* lease advertises — a digest change must
//! never resurrect stale tiers, no matter how the race interleaves.

use std::sync::Arc;

use alfredo_core::{host_service, AlfredOEngine, Device, EngineConfig, ServiceDescriptor};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{
    FnService, Framework, MethodSpec, ParamSpec, Properties, ServiceInterfaceDesc,
    ServiceRegistration, TypeHint, Value,
};
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{Control, DeviceCapabilities, UiDescription};

/// Hosts an echo service under `interface` whose descriptor carries a
/// visible `marker` label — re-hosting with a new marker changes the
/// bundle's content digest.
fn host_marked(
    fw: &Framework,
    interface: &str,
    marker: &str,
) -> Result<ServiceRegistration, alfredo_osgi::OsgiError> {
    let ui = UiDescription::new("TierCacheRace")
        .with_control(Control::label("marker", marker))
        .with_control(Control::button("go", "Go"));
    host_service(
        fw,
        interface,
        Arc::new(
            FnService::new(|_, args| Ok(args.first().cloned().unwrap_or(Value::Unit)))
                .with_description(ServiceInterfaceDesc::new(
                    interface,
                    vec![MethodSpec::new(
                        "echo",
                        vec![ParamSpec::new("v", TypeHint::I64)],
                        TypeHint::I64,
                        "echo",
                    )],
                )),
        ),
        &ServiceDescriptor::new(interface, ui),
        None,
        Properties::new(),
    )
}

fn phone(net: &InMemoryNetwork, name: &str, cache_bytes: usize) -> AlfredOEngine {
    AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        EngineConfig::phone(name, DeviceCapabilities::nokia_9300i())
            .with_tier_cache_bytes(cache_bytes),
    )
}

/// One bundle's cached cost, measured by acquiring through a throwaway
/// engine with an ample budget.
fn bundle_bytes(net: &InMemoryNetwork, addr: &PeerAddr, interface: &str) -> usize {
    let probe = phone(net, "probe", 1 << 20);
    let conn = probe.connect(addr).expect("probe connect");
    let session = conn.acquire(interface).expect("probe acquire");
    session.close();
    conn.close();
    let bytes = probe.tier_cache().stats().bytes;
    assert!(bytes > 0, "probe acquire must populate the cache");
    bytes
}

/// The satellite scenario: four threads acquire three services through
/// one shared cache whose budget only fits two bundles (constant LRU
/// eviction), while the device concurrently re-hosts one of the
/// services with changed content. Every successful acquire must see a
/// coherent descriptor, and once the churn stops the next acquire must
/// see the final content — never a stale cached tier.
#[test]
fn lru_eviction_races_digest_change_on_rehost() {
    const INTERFACES: [&str; 3] = ["race.A", "race.B", "race.C"];
    const REHOSTS: u64 = 8;

    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    let _a = host_marked(&fw, "race.A", "stable-A").unwrap();
    let b = host_marked(&fw, "race.B", "b-v0").unwrap();
    let _c = host_marked(&fw, "race.C", "stable-C").unwrap();
    let device = Device::new(fw.clone())
        .serve(&net, PeerAddr::new("tc-dev"))
        .unwrap();

    // Budget for two of the three bundles: rotating acquires evict.
    let one = bundle_bytes(&net, &PeerAddr::new("tc-dev"), "race.A");
    let engine = Arc::new(phone(&net, "racer", one * 2 + one / 2));

    let mut workers = Vec::new();
    for w in 0..4usize {
        let engine = Arc::clone(&engine);
        workers.push(std::thread::spawn(move || {
            let (mut ok, mut transient) = (0u64, 0u64);
            for i in 0..24usize {
                let interface = INTERFACES[(w + i) % INTERFACES.len()];
                let conn = engine
                    .connect(&PeerAddr::new("tc-dev"))
                    .expect("connect must always succeed");
                match conn.acquire(interface) {
                    Ok(session) => {
                        let text = session.rendered().as_text().to_owned();
                        // Whatever version won the race, the descriptor
                        // must be one that was actually hosted — stable
                        // marker for A/C, some b-v* for B.
                        match interface {
                            "race.A" => assert!(text.contains("stable-A"), "{text}"),
                            "race.C" => assert!(text.contains("stable-C"), "{text}"),
                            _ => assert!(text.contains("b-v"), "{text}"),
                        }
                        match session.invoke(interface, "echo", &[Value::I64(i as i64)]) {
                            Ok(v) => {
                                assert_eq!(v, Value::I64(i as i64));
                                ok += 1;
                            }
                            // Two benign races surface as "service gone":
                            // the device re-hosting race.B mid-invoke, and
                            // a sibling session's close() uninstalling the
                            // shared proxy (all workers share one phone
                            // framework). Either way the call fails loudly
                            // instead of hitting the wrong generation.
                            Err(_) => transient += 1,
                        }
                        session.close();
                    }
                    // Only the re-hosted service may be momentarily
                    // absent (between unregister and re-register).
                    Err(err) => {
                        assert_eq!(interface, "race.B", "unexpected failure: {err}");
                        transient += 1;
                    }
                }
                conn.close();
            }
            (ok, transient)
        }));
    }

    let rehoster = {
        let fw = fw.clone();
        std::thread::spawn(move || {
            let mut reg = b;
            for n in 1..=REHOSTS {
                reg.unregister().expect("unregister race.B");
                reg = host_marked(&fw, "race.B", &format!("b-v{n}")).expect("re-host race.B");
                std::thread::yield_now();
            }
            reg
        })
    };

    let (mut successes, mut transient_failures) = (0, 0);
    for w in workers {
        let (ok, transient) = w.join().expect("worker must not panic");
        successes += ok;
        transient_failures += transient;
    }
    let _final_reg = rehoster.join().expect("rehoster must not panic");

    // After the churn settles, a fresh acquire must see the final
    // content — the cache may still hold every b-v* generation, but
    // only the digest the live lease advertises can hit.
    let conn = engine.connect(&PeerAddr::new("tc-dev")).unwrap();
    let session = conn.acquire("race.B").expect("post-churn acquire");
    let text = session.rendered().as_text().to_owned();
    assert!(
        text.contains(&format!("b-v{REHOSTS}")),
        "must see the final re-hosted content, got: {text}"
    );
    session.close();
    conn.close();

    let stats = engine.tier_cache().stats();
    assert!(
        stats.evictions > 0,
        "budget of two bundles under three interfaces must evict: {stats:?}"
    );
    assert!(stats.hits > 0, "repeat acquires must hit: {stats:?}");
    assert!(
        stats.bytes <= one * 2 + one / 2,
        "cache must respect its byte budget: {stats:?}"
    );
    // The races must stay the exception, not the rule.
    assert!(
        successes > transient_failures,
        "most invokes must succeed: {successes} ok, {transient_failures} transient"
    );
    device.stop();
}

/// Deterministic core of the race: a cached tier must not survive a
/// digest change. Acquire, re-host with new content, acquire again —
/// the second acquire misses (new digest) and installs the new tier,
/// even though the old bundle is still sitting in the cache.
#[test]
fn digest_change_never_serves_stale_tier() {
    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    let reg = host_marked(&fw, "race.S", "original").unwrap();
    let device = Device::new(fw.clone())
        .serve(&net, PeerAddr::new("tc-dev2"))
        .unwrap();

    let engine = phone(&net, "careful", 1 << 20);
    let conn = engine.connect(&PeerAddr::new("tc-dev2")).unwrap();
    let session = conn.acquire("race.S").unwrap();
    assert!(session.rendered().as_text().contains("original"));
    session.close();
    conn.close();

    reg.unregister().unwrap();
    let _reg2 = host_marked(&fw, "race.S", "replacement").unwrap();

    let conn = engine.connect(&PeerAddr::new("tc-dev2")).unwrap();
    let session = conn.acquire("race.S").unwrap();
    assert!(
        session.rendered().as_text().contains("replacement"),
        "stale tier resurrected: {}",
        session.rendered().as_text()
    );
    session.close();
    conn.close();

    let stats = engine.tier_cache().stats();
    assert_eq!(stats.hits, 0, "both digests were novel: {stats:?}");
    assert_eq!(stats.entries, 2, "both generations cached: {stats:?}");

    // And the cached old generation still hits if the device rolls back.
    device.stop();
}
