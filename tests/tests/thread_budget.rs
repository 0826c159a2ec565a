//! What an in-memory endpoint costs in threads: one pump per connection
//! half, owned by the transport, and nothing of the endpoint's own — no
//! reader, no heartbeat thread (heartbeats tick on the shared timer
//! wheel), no teardown thread unless a reconnect follows. Closing gives
//! the pumps back. A served device adds one accept thread, whatever the
//! number of phones. Alone in its test binary: it counts the process's
//! threads by name, which tests running beside it would move — its own
//! tests take turns.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alfredo_core::Device;
use alfredo_net::{InMemoryNetwork, PeerAddr, Transport};
use alfredo_osgi::Framework;
use alfredo_rosgi::{EndpointConfig, HeartbeatConfig, ReconnectConfig, RemoteEndpoint};

const PAIRS: usize = 16;

/// Held by whichever test is counting threads.
static COUNTING: Mutex<()> = Mutex::new(());

/// The names (`/proc/<pid>/task/<tid>/comm`, at most 15 bytes) of this
/// process's threads that start with `prefix`, sorted.
fn threads_named(prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        // A thread may exit between the listing and the read.
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with(prefix))
        .collect();
    names.sort();
    names
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn establish(conn: alfredo_net::ChannelTransport, name: String) -> RemoteEndpoint {
    let config = EndpointConfig::named(name).with_heartbeat(HeartbeatConfig::default());
    RemoteEndpoint::establish(Box::new(conn), Framework::new(), config).expect("handshake")
}

#[test]
fn in_memory_endpoints_cost_one_pump_per_half_and_return_it() {
    let _turn = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let net = InMemoryNetwork::new();
    let mut endpoints = Vec::new();
    for i in 0..PAIRS {
        let listener = net.bind(PeerAddr::new(format!("s{i}"))).expect("bind");
        let phone_wire = net
            .connect(
                PeerAddr::new(format!("p{i}")),
                PeerAddr::new(format!("s{i}")),
            )
            .expect("connect");
        let screen_wire = listener.accept().expect("accept");
        let screen = std::thread::spawn(move || establish(screen_wire, format!("screen{i}")));
        endpoints.push(establish(phone_wire, format!("phone{i}")));
        endpoints.push(screen.join().expect("screen handshake thread"));
    }

    // Exactly one pump per half. A thread names itself as it starts, so
    // the last ones spawned may take a moment to show up under theirs.
    let mut expected: Vec<String> = (0..PAIRS)
        .flat_map(|i| [format!("net-pump-p{i}"), format!("net-pump-s{i}")])
        .collect();
    expected.sort();
    wait_until("one pump per half", Duration::from_secs(5), || {
        threads_named("net-pump-") == expected
    });
    // No reader (`rosgi-<peer>`), heartbeat (`rosgi-hb-<peer>`) or
    // teardown (`rosgi-down-<peer>`) thread: the endpoint keeps none.
    assert_eq!(threads_named("rosgi-"), Vec::<String>::new());

    for ep in &endpoints {
        ep.close();
    }
    wait_until("every pump to exit", Duration::from_secs(5), || {
        threads_named("net-pump-").is_empty()
    });
    assert_eq!(threads_named("rosgi-"), Vec::<String>::new());
}

/// The reactor's pollers and its timer wheel (which the handshake reaper
/// runs on) start once per process, with the first served device.
fn process_wide(name: &str) -> bool {
    name.starts_with("alfredo-io-") || name == "alfredo-timer-w"
}

/// The harness's thread for another test (named after it; all start
/// `in_memory_`) may show up at any moment, to park on `COUNTING`.
fn harness(name: &str) -> bool {
    name.starts_with("in_memory_")
}

#[test]
fn in_memory_device_owns_one_accept_thread_however_many_phones() {
    let _turn = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let net = InMemoryNetwork::new();
    let device = Device::new(Framework::new())
        .serve(&net, PeerAddr::new("dev"))
        .expect("serve");
    wait_until("the accept thread", Duration::from_secs(5), || {
        threads_named("alfredo-device-") == ["alfredo-device-"]
    });
    let before = threads_named("");

    let phones: Vec<RemoteEndpoint> = (0..PAIRS)
        .map(|i| {
            let name = format!("ph{i}");
            let wire = net
                .connect(PeerAddr::new(name.clone()), PeerAddr::new("dev"))
                .expect("connect");
            let config = EndpointConfig::named(name);
            RemoteEndpoint::establish(Box::new(wire), Framework::new(), config).expect("handshake")
        })
        .collect();
    wait_until("every phone rostered", Duration::from_secs(5), || {
        device.connections() == PAIRS
    });

    // What 16 connected phones added: the two pumps of each connection,
    // which are the transports'. Still one accept thread, and no thread
    // ever ran a handshake; nothing per connection.
    let mut expected: Vec<String> = (0..PAIRS)
        .flat_map(|i| [format!("net-pump-ph{i}"), "net-pump-dev".to_owned()])
        .collect();
    expected.sort();
    wait_until("only the pumps were added", Duration::from_secs(5), || {
        let mut added = threads_named("");
        added.retain(|name| !process_wide(name) && !harness(name));
        for name in &before {
            // (A thread of `before` may have left: the other test's.)
            if let Some(at) = added.iter().position(|n| n == name) {
                added.remove(at);
            }
        }
        added == expected
    });

    for phone in &phones {
        phone.close();
    }
    device.stop();
    wait_until(
        "the device's threads to exit",
        Duration::from_secs(5),
        || {
            threads_named("alfredo-")
                .iter()
                .all(|name| process_wide(name))
                && threads_named("net-pump-").is_empty()
        },
    );
}

/// A dead wire is torn down on the thread that saw it die; only a
/// reconnect, which backs off and dials, gets a thread of its own, and
/// `rosgi.wire_down_threads` counts those. Sixteen orderly closes, on
/// both sides of each connection, add none; one reconnect-configured
/// phone whose wire is cut adds exactly one.
#[test]
fn in_memory_wire_down_spends_a_thread_only_to_reconnect() {
    let _turn = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let spawned = alfredo_obs::global_metrics().counter("rosgi.wire_down_threads");
    let before = spawned.get();
    let net = InMemoryNetwork::new();
    let device = Device::new(Framework::new())
        .serve(&net, PeerAddr::new("down"))
        .expect("serve");
    let dial = |name: &str| net.connect(PeerAddr::new(name), PeerAddr::new("down"));

    for i in 0..PAIRS {
        let name = format!("orderly{i}");
        let wire = dial(&name).expect("connect");
        let config = EndpointConfig::named(name);
        let phone =
            RemoteEndpoint::establish(Box::new(wire), Framework::new(), config).expect("handshake");
        phone.close();
    }
    wait_until(
        "the device's side of every close",
        Duration::from_secs(5),
        || device.connections() == 0,
    );
    assert_eq!(spawned.get(), before, "an orderly close spent a thread");

    let wire = dial("cut").expect("connect");
    let cut = wire.closer();
    let redial = {
        let net = net.clone();
        Arc::new(move || {
            net.connect(PeerAddr::new("cut"), PeerAddr::new("down"))
                .map(|t| Box::new(t) as Box<dyn Transport>)
        })
    };
    let mut reconnect = ReconnectConfig::new(redial);
    reconnect.initial_backoff = Duration::from_millis(1);
    let config = EndpointConfig::named("cut").with_reconnect(reconnect);
    let phone =
        RemoteEndpoint::establish(Box::new(wire), Framework::new(), config).expect("handshake");
    cut();
    wait_until("the reconnect", Duration::from_secs(5), || {
        phone.stats().reconnects == 1
    });
    assert_eq!(spawned.get(), before + 1);

    phone.close();
    device.stop();
    wait_until(
        "the reconnect thread to exit",
        Duration::from_secs(5),
        || threads_named("rosgi-").is_empty(),
    );
}
