//! Every way the benchmark stands up a target device, in one place.
//!
//! `tap_mouse`, `browse_shop` and `walkup_churn` use the program's own
//! [`serve_device_tcp`], so its handshake gate, reaper timer and roster are
//! inside the measurement. `serve_device_tcp` cannot host a room hub or a
//! journal, so `room_board` alone uses an accept loop owned by this file.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use alfredo_apps::mouse::{register_mouse_controller, MouseControllerService};
use alfredo_apps::rooms::register_multi_cursor;
use alfredo_apps::shop::{register_shop, sample_catalog, ProductCatalog};
use alfredo_core::{
    register_room_hub, room_clock_ms, serve_device_tcp, DeviceJournal, DeviceJournalConfig,
    ReplicaSink, Room, RoomConfig, RoomHub, RoomReplica, ServedTcpDevice,
};
use alfredo_net::TcpNetListener;
use alfredo_obs::Obs;
use alfredo_osgi::Framework;
use alfredo_rosgi::{
    EndpointConfig, HeartbeatConfig, RemoteEndpoint, ServeQueue, ServeQueueConfig, ServeQueueStats,
};
use alfredo_sync::Mutex;

/// Serve-queue workers on every benchmark device.
pub const WORKERS: usize = 2;
/// Notebook screen the pointer and the cursors move on.
pub const SCREEN: (i64, i64) = (1920, 1080);
/// The one room of `room_board`.
pub const ROOM: &str = "board";
/// In-process members of the room beside the two TCP phones (8 seats).
pub const PASSIVE_MEMBERS: usize = 6;

fn bind() -> TcpNetListener {
    TcpNetListener::bind("127.0.0.1:0").expect("bind a loopback port")
}

fn queue() -> ServeQueue {
    ServeQueue::new(ServeQueueConfig::workers(WORKERS))
}

/// A notebook serving the MouseController over `serve_device_tcp`.
pub struct MouseDevice {
    pub device: ServedTcpDevice,
    pub service: Arc<MouseControllerService>,
}

pub fn mouse_device(obs: Obs) -> MouseDevice {
    let fw = Framework::new();
    let (service, _registration) =
        register_mouse_controller(&fw, SCREEN.0, SCREEN.1).expect("register MouseController");
    MouseDevice {
        device: serve_device_tcp(bind(), fw, obs, Some(queue())),
        service,
    }
}

/// An information screen serving the AlfredOShop over `serve_device_tcp`.
pub struct ShopDevice {
    pub device: ServedTcpDevice,
    pub catalog: Arc<ProductCatalog>,
}

pub fn shop_device(obs: Obs) -> ShopDevice {
    let fw = Framework::new();
    let catalog = sample_catalog();
    register_shop(&fw, Arc::clone(&catalog)).expect("register AlfredOShop");
    ShopDevice {
        device: serve_device_tcp(bind(), fw, obs, Some(queue())),
        catalog,
    }
}

/// A shared screen hosting one durable room behind a benchmark-owned accept
/// loop: journaled room, lease journal and heartbeats on every endpoint,
/// fan-out through the serve queue.
pub struct BoardDevice {
    pub addr: SocketAddr,
    pub room: Arc<Room>,
    pub journal: Arc<DeviceJournal>,
    /// Replicas of the passive in-process members, in seat order.
    pub passive: Vec<Arc<RoomReplica>>,
    queue: ServeQueue,
    endpoints: Arc<Mutex<Vec<Arc<RemoteEndpoint>>>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

pub fn board_device(obs: Obs, journal_dir: &Path) -> BoardDevice {
    let queue = queue();
    let journal =
        DeviceJournal::open(DeviceJournalConfig::new(journal_dir)).expect("open device journal");
    let room = journal.register_room(RoomConfig::new(ROOM), Some(queue.clone()), room_clock_ms());
    let hub = RoomHub::with_queue(RoomConfig::new(ROOM), queue.clone());
    hub.adopt(Arc::clone(&room));

    let fw = Framework::new();
    register_room_hub(&fw, Arc::clone(&hub)).expect("register room hub");
    register_multi_cursor(&fw, Arc::clone(&room), SCREEN.0, SCREEN.1)
        .expect("register MultiCursorBoard");

    let passive: Vec<Arc<RoomReplica>> = (0..PASSIVE_MEMBERS)
        .map(|i| {
            let replica = RoomReplica::new(ROOM);
            room.join(
                &passive_name(i),
                Arc::new(ReplicaSink(Arc::clone(&replica))),
                room_clock_ms(),
            );
            replica
        })
        .collect();

    let listener = bind();
    let addr = listener.local_addr();
    let shutdown = Arc::new(AtomicBool::new(false));
    let endpoints: Arc<Mutex<Vec<Arc<RemoteEndpoint>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let (shutdown, endpoints, hub, queue) = (
            Arc::clone(&shutdown),
            Arc::clone(&endpoints),
            Arc::clone(&hub),
            queue.clone(),
        );
        let lease_journal = journal.lease_journal().clone();
        std::thread::spawn(move || loop {
            let Ok(wire) = listener.accept() else { break };
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let cfg = EndpointConfig::named("board-device")
                .with_obs(obs.clone())
                .with_serve_queue(queue.clone())
                .with_journal(lease_journal.clone())
                .with_heartbeat(HeartbeatConfig::default());
            // Two phones connect, one after the other: the handshake runs
            // on the accept thread.
            if let Ok(ep) = RemoteEndpoint::establish(Box::new(wire), fw.clone(), cfg) {
                let ep = Arc::new(ep);
                hub.register_endpoint(Arc::clone(&ep));
                endpoints.lock().push(ep);
            }
        })
    };

    // The lease cadence `serve_device_rooms` runs from its accept loop.
    let ticker = {
        let (shutdown, hub, room) = (Arc::clone(&shutdown), Arc::clone(&hub), Arc::clone(&room));
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                let now = room_clock_ms();
                for i in 0..PASSIVE_MEMBERS {
                    room.renew(&passive_name(i), now);
                }
                hub.tick(now);
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    BoardDevice {
        addr,
        room,
        journal,
        passive,
        queue,
        endpoints,
        shutdown,
        threads: vec![accept, ticker],
    }
}

fn passive_name(i: usize) -> String {
    format!("passive-{i}")
}

impl BoardDevice {
    pub fn queue_stats(&self) -> ServeQueueStats {
        self.queue.stats()
    }

    /// Heartbeat probes sent by the device's endpoints so far.
    pub fn heartbeats_sent(&self) -> u64 {
        self.endpoints
            .lock()
            .iter()
            .map(|ep| ep.stats().heartbeats_sent)
            .sum()
    }

    /// Stops accepting, closes the endpoints, drains the queue and closes
    /// the journal; what was appended is on disk when this returns.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(2); a throwaway connection
        // wakes it so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            t.join().expect("board device thread panicked");
        }
        for ep in self.endpoints.lock().drain(..) {
            ep.close();
        }
        self.queue.shutdown();
        self.journal.close().expect("close device journal");
    }
}
