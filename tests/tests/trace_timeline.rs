//! Acceptance test for stack-wide tracing: one MouseController
//! interaction under a resilient engine must yield a single connected
//! span tree — handshake, lease, tier transfer, invokes (with their RPC
//! attempts and the device-side serves), render — exportable as JSONL.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use alfredo_apps::{register_mouse_controller, MOUSE_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig, OutagePolicy, ResilienceConfig};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_obs::{Obs, SpanRecord};
use alfredo_osgi::{Framework, Json, Value};
use alfredo_rosgi::{DiscoveryDirectory, HeartbeatConfig, RetryPolicy};
use alfredo_ui::{DeviceCapabilities, UiEvent};

fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(50),
            timeout: Duration::from_millis(80),
            degraded_after: 1,
            disconnected_after: 3,
        },
        lease_ttl: Some(Duration::from_secs(10)),
        retry: RetryPolicy::retries(3),
        reconnect_attempts: 8,
        reconnect_backoff: Duration::from_millis(20),
        outage_policy: OutagePolicy::Replay,
        ..ResilienceConfig::default()
    }
}

/// Spans of one trace, indexed for structural assertions.
struct Tree {
    by_id: HashMap<u64, SpanRecord>,
    root: SpanRecord,
}

impl Tree {
    fn build(spans: &[SpanRecord], trace_id: u64) -> Tree {
        let by_id: HashMap<u64, SpanRecord> = spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .map(|s| (s.span_id, s.clone()))
            .collect();
        let mut roots: Vec<&SpanRecord> =
            by_id.values().filter(|s| s.parent_id.is_none()).collect();
        assert_eq!(
            roots.len(),
            1,
            "exactly one root in the interaction trace, got {roots:?}"
        );
        let root = roots.pop().unwrap().clone();
        Tree { by_id, root }
    }

    fn named(&self, name: &str) -> Vec<&SpanRecord> {
        self.by_id.values().filter(|s| s.name == name).collect()
    }

    fn prefixed(&self, prefix: &str) -> Vec<&SpanRecord> {
        self.by_id
            .values()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    fn parent_of<'a>(&'a self, span: &SpanRecord) -> &'a SpanRecord {
        let pid = span
            .parent_id
            .unwrap_or_else(|| panic!("span {} has no parent", span.name));
        self.by_id
            .get(&pid)
            .unwrap_or_else(|| panic!("span {}'s parent {pid} missing from trace", span.name))
    }
}

#[test]
fn mouse_interaction_produces_one_connected_span_tree() {
    let (obs, ring) = Obs::ring(8192);

    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let (_service, _reg) = register_mouse_controller(&device_fw, 1280, 800).unwrap();
    let device = Device::new(device_fw)
        .obs(obs.clone())
        .serve(&net, PeerAddr::new("laptop"))
        .unwrap();

    let config = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i())
        .with_resilience(resilience())
        .with_obs(obs.clone());
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        config,
    );

    let conn = engine.connect(&PeerAddr::new("laptop")).unwrap();
    let session = conn.acquire(MOUSE_INTERFACE).unwrap();

    // One imperative invoke plus one controller-driven tap: both flavors
    // must appear in the trace.
    session
        .invoke(
            MOUSE_INTERFACE,
            "move_to",
            &[Value::I64(10), Value::I64(20)],
        )
        .unwrap();
    session
        .handle_event(&UiEvent::Click {
            control: "click".into(),
        })
        .unwrap();

    // The per-phase histograms saw the same traffic the spans describe
    // (tracing was enabled, so rtt timing is on).
    let rtt = conn
        .endpoint()
        .obs()
        .metrics()
        .histogram("rosgi.invoke_rtt_us");
    assert!(rtt.count() >= 2, "rtt histogram recorded both invokes");

    session.close();
    conn.close();
    drop(session);
    drop(conn); // records the `interaction` root span
    device.stop();

    let spans = ring.snapshot();
    let interactions: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "interaction").collect();
    assert_eq!(interactions.len(), 1, "one connection, one interaction");
    let trace_id = interactions[0].trace_id;
    let tree = Tree::build(&spans, trace_id);
    assert_eq!(tree.root.name, "interaction");

    // Every span of the trace hangs off the tree (no orphans): walking
    // parents from any span terminates at the root.
    for span in tree.by_id.values() {
        let mut cursor = span.clone();
        let mut hops = 0;
        while cursor.parent_id.is_some() {
            cursor = tree.parent_of(&cursor).clone();
            hops += 1;
            assert!(hops < 100, "parent cycle at {}", span.name);
        }
        assert_eq!(cursor.span_id, tree.root.span_id, "orphan: {}", span.name);
        // Children never start before their parent on the shared
        // process-monotonic clock.
        if let Some(pid) = span.parent_id {
            assert!(
                span.start_us >= tree.by_id[&pid].start_us,
                "{} starts before its parent",
                span.name
            );
        }
    }

    // The phases the paper's interaction walks through, all present and
    // correctly parented.
    for phase in ["handshake", "lease", "tier_transfer", "render"] {
        let found = tree.named(phase);
        assert_eq!(found.len(), 1, "expected one {phase} span");
        assert_eq!(
            tree.parent_of(found[0]).name,
            "interaction",
            "{phase} must be a direct child of the interaction"
        );
    }
    assert!(
        !tree.prefixed("fetch:").is_empty(),
        "the lease phase fetches the presentation tier"
    );

    // Both invokes, each with at least one RPC attempt under it.
    let invokes = tree.prefixed("invoke:");
    assert!(
        invokes.len() >= 2,
        "imperative + controller invokes, got {invokes:?}"
    );
    let rpcs = tree.prefixed("rpc:");
    assert!(!rpcs.is_empty(), "every invoke sends at least one RPC");
    for rpc in &rpcs {
        assert!(
            tree.parent_of(rpc).name.starts_with("invoke:"),
            "rpc attempts nest under session invokes"
        );
    }

    // Device-side serves joined the same trace over the wire, parented
    // under the exact RPC attempt that carried them.
    let serves = tree.prefixed("serve:");
    assert!(!serves.is_empty(), "device-side serve spans cross the wire");
    for serve in &serves {
        assert!(
            tree.parent_of(serve).name.starts_with("rpc:"),
            "serve spans hang off their RPC attempt"
        );
    }

    // JSONL export: one valid JSON object per span, written to disk.
    let jsonl = ring.export_jsonl();
    assert_eq!(jsonl.lines().count(), spans.len());
    for line in jsonl.lines() {
        let json = Json::parse(line).expect("every exported line parses as JSON");
        assert!(json.get("trace_id").is_some());
        assert!(json.get("span_id").is_some());
        assert!(json.get("name").and_then(Json::as_str).is_some());
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../target/trace-timeline/mouse-interaction.jsonl");
    ring.write_jsonl(&path).expect("write JSONL artifact");
    assert!(path.exists());
}

#[test]
fn metrics_surface_over_http() {
    use std::io::{Read as _, Write as _};

    let net = InMemoryNetwork::new();
    let device_fw = Framework::new();
    let (_service, _reg) = register_mouse_controller(&device_fw, 640, 480).unwrap();
    let device = alfredo_core::Device::new(device_fw)
        .serve(&net, PeerAddr::new("tv"))
        .unwrap();

    let config = EngineConfig::phone("phone", DeviceCapabilities::nokia_9300i());
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        config,
    );
    let conn = engine.connect(&PeerAddr::new("tv")).unwrap();
    let session = std::sync::Arc::new(conn.acquire(MOUSE_INTERFACE).unwrap());
    session
        .invoke(MOUSE_INTERFACE, "move_to", &[Value::I64(1), Value::I64(2)])
        .unwrap();

    let gateway =
        alfredo_core::web::HttpGateway::serve(std::sync::Arc::clone(&session), "127.0.0.1:0")
            .unwrap();
    let mut stream = std::net::TcpStream::connect(gateway.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"));
    // The endpoint's counters and the rtt histogram's expansion both
    // surface in the text dump.
    assert!(response.contains("rosgi.calls_sent 1"), "{response}");
    assert!(response.contains("rosgi.invoke_rtt_us_count"), "{response}");
    assert!(response.contains("rosgi.invoke_rtt_us_p95"), "{response}");

    gateway.stop();
    session.close();
    conn.close();
    device.stop();
}
