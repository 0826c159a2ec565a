//! Stress tests for the invocation fast path: many threads hammering one
//! connection, pipelined async calls, and the pooled-buffer / call-slot
//! economics under load.

use std::sync::Arc;
use std::time::Duration;

use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{FnService, Framework, Properties, ServiceCallError, Value};
use alfredo_rosgi::{EndpointConfig, RemoteEndpoint};

const THREADS: u64 = 8;
const CALLS_PER_THREAD: u64 = 500;

fn echo_service() -> Arc<dyn alfredo_osgi::Service> {
    Arc::new(FnService::new(|method, args| match method {
        "echo" => Ok(args.first().cloned().unwrap_or(Value::Unit)),
        "add" => Ok(Value::I64(args.iter().filter_map(Value::as_i64).sum())),
        "slow" => {
            std::thread::sleep(Duration::from_millis(40));
            Ok(args.first().cloned().unwrap_or(Value::Unit))
        }
        other => Err(ServiceCallError::NoSuchMethod(other.into())),
    }))
}

/// Device serving `hammer.Echo` on `addr`; accepts one connection.
fn spawn_device(
    net: &InMemoryNetwork,
    addr: &str,
) -> (Framework, std::thread::JoinHandle<RemoteEndpoint>) {
    let fw = Framework::new();
    fw.system_context()
        .register_service(&["hammer.Echo"], echo_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new(addr)).unwrap();
    let fw2 = fw.clone();
    let name = addr.to_owned();
    let handle = std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        RemoteEndpoint::establish(Box::new(conn), fw2, EndpointConfig::named(name))
            .expect("device handshake")
    });
    (fw, handle)
}

fn connect(net: &InMemoryNetwork, to: &str, config: EndpointConfig) -> RemoteEndpoint {
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new(to))
        .unwrap();
    RemoteEndpoint::establish(Box::new(conn), Framework::new(), config).expect("phone handshake")
}

#[test]
fn hammer_replies_route_to_the_right_caller() {
    let net = InMemoryNetwork::new();
    let (_device_fw, device) = spawn_device(&net, "dev-hammer");
    let phone = Arc::new(connect(&net, "dev-hammer", EndpointConfig::named("phone")));

    let mut workers = Vec::new();
    for t in 0..THREADS {
        let ep = Arc::clone(&phone);
        workers.push(std::thread::spawn(move || {
            for i in 0..CALLS_PER_THREAD {
                // Each call's expected result is unique to (thread, i):
                // any cross-routing of replies fails the assertion.
                let token = (t << 32) | i;
                let out = ep
                    .invoke("hammer.Echo", "echo", &[Value::I64(token as i64)])
                    .unwrap_or_else(|e| panic!("thread {t} call {i}: {e}"));
                assert_eq!(out, Value::I64(token as i64), "thread {t} call {i}");
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let total = THREADS * CALLS_PER_THREAD;
    let stats = phone.stats();
    assert_eq!(stats.calls_sent, total);
    assert_eq!(phone.in_flight_calls(), 0, "every call harvested");
    let device = device.join().unwrap();
    assert_eq!(device.stats().calls_served, total);

    // The fast path actually engaged: sends were served from recycled
    // buffers and waiter slots were reused across calls.
    assert!(stats.pool_hits > 0, "{stats:?}");
    assert!(stats.bytes_reused > 0, "{stats:?}");
    assert!(stats.slots_reused > 0, "{stats:?}");
    phone.close();
}

#[test]
fn pipelined_async_calls_overlap_and_harvest_out_of_order() {
    const IN_FLIGHT: usize = 12;
    let net = InMemoryNetwork::new();
    let (_device_fw, _device) = spawn_device(&net, "dev-pipe");
    let phone = connect(&net, "dev-pipe", EndpointConfig::named("phone"));

    // Issue a burst without waiting: all calls are on the wire at once.
    let mut handles = Vec::new();
    for i in 0..IN_FLIGHT {
        let h = phone
            .invoke_async("hammer.Echo", "slow", &[Value::I64(i as i64)])
            .expect("dispatch");
        handles.push((i, h));
    }
    // The device serves invocations serially (~40 ms each), so the burst
    // is still pending here.
    assert!(
        phone.in_flight_calls() >= 8,
        "expected a deep pipeline, got {}",
        phone.in_flight_calls()
    );

    // Harvest in reverse order: routing is by call id, not arrival order.
    for (i, h) in handles.into_iter().rev() {
        let out = h.wait_timeout(Duration::from_secs(10)).expect("reply");
        assert_eq!(out, Value::I64(i as i64));
    }
    assert_eq!(phone.in_flight_calls(), 0);
    phone.close();
}

#[test]
fn buffer_pool_stabilizes_after_warmup() {
    let net = InMemoryNetwork::new();
    let (_device_fw, _device) = spawn_device(&net, "dev-pool");
    let phone = connect(&net, "dev-pool", EndpointConfig::named("phone"));

    for i in 0..100 {
        phone
            .invoke("hammer.Echo", "add", &[Value::I64(i), Value::I64(1)])
            .unwrap();
    }
    let warm = phone.stats();
    assert!(warm.pool_hits > 0, "{warm:?}");

    for i in 0..400 {
        phone
            .invoke("hammer.Echo", "add", &[Value::I64(i), Value::I64(1)])
            .unwrap();
    }
    let steady = phone.stats();
    // Steady state allocates no new frames: every post-warmup send is a
    // pool hit fed by recycled inbound frames. Allow a little slack for
    // lease/interest frames racing the warmup window.
    assert!(
        steady.pool_misses <= warm.pool_misses + 2,
        "pool kept allocating: warm={warm:?} steady={steady:?}"
    );
    assert!(steady.pool_hits >= warm.pool_hits + 400, "{steady:?}");
    assert!(steady.slots_reused >= 400, "{steady:?}");
    phone.close();
}
