//! Failure injection: transports that die mid-operation, corrupt frames,
//! and handshake pathologies. The R-OSGi layer must fail *as module
//! lifecycle events*, never hang, and never poison the framework.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alfredo_net::{FrameSink, InMemoryNetwork, PeerAddr, Transport, TransportError};
use alfredo_osgi::{
    FnService, Framework, MethodSpec, Properties, ServiceCallError, ServiceInterfaceDesc, TypeHint,
    Value,
};
use alfredo_rosgi::{EndpointConfig, Message, RemoteEndpoint, RosgiError};

fn echo_service() -> Arc<dyn alfredo_osgi::Service> {
    Arc::new(
        FnService::new(|_, args| Ok(args.first().cloned().unwrap_or(Value::Unit)))
            .with_description(ServiceInterfaceDesc::new(
                "t.Echo",
                vec![MethodSpec::new(
                    "echo",
                    vec![alfredo_osgi::ParamSpec::new("v", TypeHint::Any)],
                    TypeHint::Any,
                    "",
                )],
            )),
    )
}

/// A transport wrapper that hard-kills the connection after N sends.
struct DyingTransport {
    inner: Box<dyn Transport>,
    remaining_sends: AtomicU64,
}

impl Transport for DyingTransport {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        if self.remaining_sends.fetch_sub(1, Ordering::SeqCst) == 0 {
            self.inner.close();
            return Err(TransportError::Closed);
        }
        self.inner.send(frame)
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.try_recv()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn peer_addr(&self) -> &PeerAddr {
        self.inner.peer_addr()
    }

    fn local_addr(&self) -> &PeerAddr {
        self.inner.local_addr()
    }

    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.inner.set_sink(sink);
    }
}

/// A transport wrapper that corrupts every frame it sends.
struct CorruptingTransport {
    inner: Box<dyn Transport>,
    after: AtomicU64,
}

impl Transport for CorruptingTransport {
    fn send(&self, mut frame: Vec<u8>) -> Result<(), TransportError> {
        if self.after.fetch_sub(1, Ordering::SeqCst) == 0 {
            // Flip the tag byte to garbage.
            if !frame.is_empty() {
                frame[0] = 0xee;
            }
        }
        self.inner.send(frame)
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.try_recv()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn peer_addr(&self) -> &PeerAddr {
        self.inner.peer_addr()
    }

    fn local_addr(&self) -> &PeerAddr {
        self.inner.local_addr()
    }

    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.inner.set_sink(sink);
    }
}

fn spawn_echo_device(net: &InMemoryNetwork, addr: &str) -> Framework {
    let fw = Framework::new();
    fw.system_context()
        .register_service(&["t.Echo"], echo_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new(addr)).unwrap();
    let fw2 = fw.clone();
    let label = addr.to_owned();
    std::thread::spawn(move || {
        while let Ok(conn) = listener.accept() {
            let fw3 = fw2.clone();
            let cfg = EndpointConfig::named(label.clone());
            std::thread::spawn(move || {
                if let Ok(ep) = RemoteEndpoint::establish(Box::new(conn), fw3, cfg) {
                    ep.join();
                }
            });
        }
    });
    fw
}

#[test]
fn connection_death_mid_invoke_fails_cleanly() {
    let net = InMemoryNetwork::new();
    spawn_echo_device(&net, "die-1");
    let phone_fw = Framework::new();
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("die-1"))
        .unwrap();
    // Enough sends for the handshake and fetch plus a couple of
    // invocations, then death mid-stream.
    let dying = DyingTransport {
        inner: Box::new(raw),
        remaining_sends: AtomicU64::new(8),
    };
    let mut cfg = EndpointConfig::named("phone");
    cfg.invoke_timeout = Duration::from_millis(500);
    let ep = RemoteEndpoint::establish(Box::new(dying), phone_fw.clone(), cfg).unwrap();
    ep.fetch_service("t.Echo").unwrap();
    let svc = phone_fw.registry().get_service("t.Echo").unwrap();
    // Keep invoking until the link dies; every call either succeeds or
    // fails cleanly — no hangs, no panics.
    let mut failure = None;
    for i in 0..20i64 {
        match svc.invoke("echo", &[Value::I64(i)]) {
            Ok(v) => assert_eq!(v, Value::I64(i)),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let err = failure.expect("the dying transport must eventually fail a call");
    assert!(
        matches!(
            err,
            ServiceCallError::ServiceGone | ServiceCallError::Remote(_)
        ),
        "{err:?}"
    );
    // The proxy is swept once the phone notices.
    for _ in 0..100 {
        if phone_fw.registry().get_service("t.Echo").is_none() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(phone_fw.registry().get_service("t.Echo").is_none());
    ep.close();
}

#[test]
fn corrupt_frame_closes_the_link_without_panicking() {
    let net = InMemoryNetwork::new();
    let phone_fw = spawn_echo_device(&net, "corrupt-1"); // device is the victim
    let client_fw = Framework::new();
    let raw = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("corrupt-1"))
        .unwrap();
    // Corrupt the 4th frame we send (the first post-handshake message).
    let corrupting = CorruptingTransport {
        inner: Box::new(raw),
        after: AtomicU64::new(3),
    };
    let mut cfg = EndpointConfig::named("phone");
    cfg.invoke_timeout = Duration::from_millis(500);
    let ep = RemoteEndpoint::establish(Box::new(corrupting), client_fw, cfg).unwrap();
    // This fetch goes out corrupted; the device must reject the frame and
    // close, and our side must observe a clean failure.
    let err = ep.fetch_service("t.Echo").unwrap_err();
    assert!(
        matches!(
            err,
            RosgiError::InvocationTimeout { .. } | RosgiError::Closed | RosgiError::Transport(_)
        ),
        "{err:?}"
    );
    // The device's framework survives for other connections.
    assert!(phone_fw.registry().get_service("t.Echo").is_some());
    ep.close();
}

#[test]
fn handshake_version_mismatch_is_rejected() {
    let net = InMemoryNetwork::new();
    let listener = net.bind(PeerAddr::new("ver-1")).unwrap();
    // A fake peer speaking a future protocol version.
    // Dropped when this test returns, which is what the peer waits for.
    let (_gave_up, client_gave_up) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        conn.send(
            Message::Hello {
                peer: "fake".into(),
                version: 99,
            }
            .encode(),
        )
        .unwrap();
        conn.send(Message::Lease { services: vec![] }.encode())
            .unwrap();
        // Hold the connection open until the client gives up: closing it
        // while the client is still sending its own half of the handshake
        // would turn the version error into a transport one.
        let _ = client_gave_up.recv_timeout(Duration::from_secs(5));
        drop(conn);
    });
    let fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("ver-1"))
        .unwrap();
    let err =
        RemoteEndpoint::establish(Box::new(conn), fw, EndpointConfig::named("phone")).unwrap_err();
    assert!(matches!(err, RosgiError::Handshake(_)), "{err:?}");
}

#[test]
fn handshake_timeout_when_peer_is_silent() {
    let net = InMemoryNetwork::new();
    let listener = net.bind(PeerAddr::new("silent-1")).unwrap();
    std::thread::spawn(move || {
        // Accept, then say nothing.
        let conn = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });
    let fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("silent-1"))
        .unwrap();
    let mut cfg = EndpointConfig::named("phone");
    cfg.handshake_timeout = Duration::from_millis(200);
    let start = std::time::Instant::now();
    let err = RemoteEndpoint::establish(Box::new(conn), fw, cfg).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(1), "must not hang");
    assert!(
        matches!(
            err,
            RosgiError::Transport(TransportError::Timeout) | RosgiError::Handshake(_)
        ),
        "{err:?}"
    );
}

#[test]
fn reconnection_restores_service_after_device_restart() {
    let net = InMemoryNetwork::new();
    // First device incarnation.
    let fw1 = Framework::new();
    fw1.system_context()
        .register_service(&["t.Echo"], echo_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new("restart-1")).unwrap();
    let fw1c = fw1.clone();
    let first = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();

        RemoteEndpoint::establish(Box::new(conn), fw1c, EndpointConfig::named("restart-1")).unwrap()
        // returned so the test can kill it
    });

    let phone_fw = Framework::new();
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("restart-1"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("phone"),
    )
    .unwrap();
    let device_ep = first.join().unwrap();
    ep.fetch_service("t.Echo").unwrap();

    // Device "crashes" (listener was dropped after the first accept;
    // endpoint closes).
    device_ep.close();
    for _ in 0..100 {
        if phone_fw.registry().get_service("t.Echo").is_none() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(phone_fw.registry().get_service("t.Echo").is_none());
    ep.close();

    // Device restarts under the same address.
    let fw2 = Framework::new();
    fw2.system_context()
        .register_service(&["t.Echo"], echo_service(), Properties::new())
        .unwrap();
    let listener = net.bind(PeerAddr::new("restart-1")).unwrap();
    let fw2c = fw2.clone();
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        if let Ok(ep) =
            RemoteEndpoint::establish(Box::new(conn), fw2c, EndpointConfig::named("restart-1"))
        {
            ep.join();
        }
    });

    // The phone reconnects and the interaction works again.
    let conn = net
        .connect(PeerAddr::new("phone"), PeerAddr::new("restart-1"))
        .unwrap();
    let ep = RemoteEndpoint::establish(
        Box::new(conn),
        phone_fw.clone(),
        EndpointConfig::named("phone"),
    )
    .unwrap();
    ep.fetch_service("t.Echo").unwrap();
    let svc = phone_fw.registry().get_service("t.Echo").unwrap();
    assert_eq!(svc.invoke("echo", &[Value::I64(9)]).unwrap(), Value::I64(9));
    ep.close();
}
