//! Connection churn must not leak descriptors. Alone in its test binary:
//! it counts the process's open descriptors, which tests running beside
//! it would move.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use alfredo_net::{FrameSink, TcpNetListener, TcpTransport, Transport};

/// What an endpoint's sink does: it keeps the wire it reads from.
struct Holding {
    _wire: Arc<TcpTransport>,
    closed: mpsc::Sender<()>,
}

impl FrameSink for Holding {
    fn on_frame(&mut self, _frame: Vec<u8>) {}
    fn on_close(&mut self) {
        let _ = self.closed.send(());
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

/// One connect → sink on both ends → close, until both ends saw the end.
/// When it returns only the sinks hold the two transports.
fn cycle(listener: &TcpNetListener) {
    let (closed_tx, closed_rx) = mpsc::channel();
    let client = Arc::new(TcpTransport::connect(listener.local_addr()).expect("connect"));
    let server = Arc::new(listener.accept().expect("accept"));
    for wire in [&client, &server] {
        wire.set_sink(Box::new(Holding {
            _wire: Arc::clone(wire),
            closed: closed_tx.clone(),
        }));
    }
    client.close();
    for _ in 0..2 {
        closed_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("both ends observe the close");
    }
}

#[test]
#[cfg(target_os = "linux")]
fn connect_sink_close_cycles_return_every_descriptor() {
    let listener = TcpNetListener::bind("127.0.0.1:0").expect("bind");
    // The first connection starts the global reactor (selector, doorbell).
    cycle(&listener);
    let before = open_fds();
    for _ in 0..200 {
        cycle(&listener);
    }
    // A poller holds its own handle on a connection for a moment after
    // `on_close` returned.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() > before {
        assert!(
            Instant::now() < deadline,
            "{} descriptors before 200 cycles, {} after",
            before,
            open_fds()
        );
        std::thread::yield_now();
    }
}
