//! Isolated layer timings: each layer's public functions called from
//! outside, warm-up first, then batches for a fixed budget, median reported.
//! What they add up to on `tap_mouse` is the budget of ROADMAP item 1.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_apps::rooms::cursor_key;
use alfredo_apps::{
    sample_catalog, MouseControllerService, MultiCursorService, ShopService, MOUSE_INTERFACE,
    SHOP_INTERFACE,
};
use alfredo_core::{
    room_update_topic, DeviceJournal, DeviceJournalConfig, ReplicaSink, Room, RoomConfig,
    RoomDelta, RoomOp, RoomReplica, RoomSink, RoomUpdate, ServiceDescriptor,
};
use alfredo_journal::{Journal, JournalConfig};
use alfredo_net::{
    BufferPool, ByteReader, ByteWriter, FrameReassembler, FrameSink, InMemoryNetwork, PeerAddr,
    TcpNetListener, TcpTransport, Transport,
};
use alfredo_obs::Obs;
use alfredo_osgi::{Event, EventAdmin, FnService, Framework, Json, Properties, Service, Value};
use alfredo_rosgi::codec::{decode_properties, decode_value, encode_properties, encode_value};
use alfredo_rosgi::{EndpointConfig, Message, RemoteEndpoint, ServeQueue, ServeQueueConfig};
use alfredo_sync::{channel, Condvar, Mutex};
use alfredo_ui::render::select_renderer;
use alfredo_ui::{DeviceCapabilities, UiDescription, UiEvent};

use crate::device::{self, SCREEN, WORKERS};
use crate::pass::{self, Plan};
use crate::stats::median;
use crate::sys::now_ns;
use crate::workloads::{self, Ctx, TapMouse};

/// Budget slots `run` divides its time into: one per timed loop, four for
/// the end-to-end reference.
pub const COUNT: usize = 50;
const REFERENCE_SLOTS: f64 = 4.0;
/// Iterations of a loop that opens a connection: each leaks two
/// descriptors (see README, known defects), so these are counted, not timed.
const CONNECTION_CYCLES: usize = 120;
/// Appends per journal measurement, so the log stays a few MiB.
const JOURNAL_APPENDS: usize = 40_000;
const NOOP_INTERFACE: &str = "bench.Noop";
const TOPIC: &str = "bench/event";

/// Times `f` for `budget`: a fifth to warm up, then batches of `batch`
/// calls; returns the median nanoseconds per call over the batches.
fn timed_ns(budget: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    let warm_until = Instant::now() + budget / 5;
    while Instant::now() < warm_until {
        f();
    }
    let until = Instant::now() + budget * 4 / 5;
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
        if Instant::now() >= until {
            break;
        }
    }
    median(&samples).expect("at least one batch")
}

/// Median nanoseconds per call over `total / batch` batches of `batch`
/// calls (the first tenth warm up). For calls that leave something behind,
/// which must therefore be counted rather than run for a time.
fn batched_ns(total: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    counted_ns(total / batch, || {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        t.elapsed().as_nanos() as u64
    }) / batch as f64
}

/// Median of the nanoseconds `f` reports for each of `cycles` calls (the
/// first tenth warm up). For loops whose timed part is only a slice of an
/// iteration, or whose iterations must be counted.
fn counted_ns(cycles: usize, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..cycles).map(|_| f() as f64).collect();
    median(&samples[cycles / 10..]).expect("at least one cycle")
}

/// As [`counted_ns`], for as many calls as fit in `budget`.
fn sampled_ns(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let until = Instant::now() + budget;
    let mut samples = Vec::new();
    while Instant::now() < until {
        samples.push(f() as f64);
    }
    median(&samples[samples.len() / 10..]).expect("at least one sample")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    crate::out_dir().join(format!("layers-{tag}-{}", std::process::id()))
}

fn cursor_value() -> Value {
    Value::structure(
        "apps.Cursor",
        [("x", Value::I64(960)), ("y", Value::I64(540))],
    )
}

struct NullSink;

impl RoomSink for NullSink {
    fn deliver(&self, _room: &str, _update: &RoomUpdate) -> bool {
        true
    }
}

/// Echoes every frame back on its own connection, from the reactor thread.
struct EchoSink(Arc<TcpTransport>);

impl FrameSink for EchoSink {
    fn on_frame(&mut self, frame: Vec<u8>) {
        let _ = self.0.send(frame);
    }
    fn on_close(&mut self) {}
}

fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpNetListener::bind("127.0.0.1:0").expect("bind");
    let client = TcpTransport::connect(listener.local_addr()).expect("connect");
    (client, listener.accept().expect("accept"))
}

fn frame_rtt_tcp(budget: Duration, frame: &[u8]) -> f64 {
    let (client, server) = tcp_pair();
    let server = Arc::new(server);
    server.set_sink(Box::new(EchoSink(Arc::clone(&server))));
    let ns = timed_ns(budget, 8, || {
        client.send(frame.to_vec()).expect("send");
        black_box(client.recv().expect("echo"));
    });
    client.close();
    server.close();
    ns
}

fn frame_rtt_channel(budget: Duration, frame: &[u8]) -> f64 {
    let net = InMemoryNetwork::new();
    let listener = net.bind(PeerAddr::new("echo")).expect("bind");
    let client = net
        .connect(PeerAddr::new("client"), PeerAddr::new("echo"))
        .expect("connect");
    let server = listener.accept().expect("accept");
    let echo = std::thread::spawn(move || {
        while let Ok(frame) = server.recv() {
            if server.send(frame).is_err() {
                break;
            }
        }
    });
    let ns = timed_ns(budget, 8, || {
        client.send(frame.to_vec()).expect("send");
        black_box(client.recv().expect("echo"));
    });
    client.close();
    echo.join().expect("echo thread");
    ns
}

/// A device framework with a no-op service, and both ends of one endpoint
/// pair over `wire` (TCP or in-memory), the device optionally queued.
struct EndpointPair {
    phone: RemoteEndpoint,
    device: Arc<RemoteEndpoint>,
    phone_fw: Framework,
    queue: Option<ServeQueue>,
}

fn noop_framework() -> Framework {
    let fw = Framework::new();
    fw.system_context()
        .register_service(
            &[NOOP_INTERFACE],
            Arc::new(FnService::new(|_, _| Ok(Value::Unit))),
            Properties::new(),
        )
        .expect("register no-op service");
    fw
}

fn endpoint_pair(
    phone_wire: Box<dyn Transport>,
    device_wire: Box<dyn Transport>,
    device_fw: Framework,
    queued: bool,
) -> EndpointPair {
    let queue = queued.then(|| ServeQueue::new(ServeQueueConfig::workers(WORKERS)));
    let mut cfg = EndpointConfig::named("device");
    if let Some(q) = &queue {
        cfg = cfg.with_serve_queue(q.clone());
    }
    let device = std::thread::spawn(move || {
        RemoteEndpoint::establish(device_wire, device_fw, cfg).expect("device handshake")
    });
    let phone_fw = Framework::new();
    let phone =
        RemoteEndpoint::establish(phone_wire, phone_fw.clone(), EndpointConfig::named("phone"))
            .expect("phone handshake");
    EndpointPair {
        phone,
        device: Arc::new(device.join().expect("device handshake thread")),
        phone_fw,
        queue,
    }
}

fn tcp_endpoint_pair(device_fw: Framework, queued: bool) -> EndpointPair {
    let (client, server) = tcp_pair();
    endpoint_pair(Box::new(client), Box::new(server), device_fw, queued)
}

impl EndpointPair {
    fn invoke_us(&self, budget: Duration) -> f64 {
        timed_ns(budget, 8, || {
            black_box(
                self.phone
                    .invoke(NOOP_INTERFACE, "noop", &[])
                    .expect("invoke"),
            );
        }) / 1e3
    }

    fn close(self) {
        self.phone.close();
        self.device.close();
        if let Some(q) = self.queue {
            q.shutdown();
        }
    }
}

/// The shop's shipped descriptor and its parts.
struct ShopBlob {
    descriptor: Vec<u8>,
    ui: Vec<u8>,
    meta: String,
}

fn shop_blob() -> ShopBlob {
    let descriptor = ShopService::descriptor().encode();
    let mut r = ByteReader::new(&descriptor);
    r.str().expect("service name");
    let ui = r.bytes().expect("ui part").to_vec();
    let meta =
        String::from_utf8(r.bytes().expect("meta part").to_vec()).expect("meta is JSON text");
    ShopBlob {
        descriptor,
        ui,
        meta,
    }
}

/// Walk-up phases against a `serve_device_tcp` shop, one connection per
/// cycle: connect, acquire, close, each timed on its own.
fn walkup_phases(addr: SocketAddr, ctx: &Ctx, m: &mut BTreeMap<&'static str, f64>) {
    let phone_engine = |name: &str| workloads::phone_engine(name, Framework::new(), ctx, None);
    let regular = phone_engine("regular");
    let mut connect = Vec::new();
    let mut acquire_warm = Vec::new();
    let mut acquire_cold = Vec::new();
    let mut close = Vec::new();
    for i in 0..CONNECTION_CYCLES {
        // Every second cycle is a stranger with a cold tier cache.
        let stranger = (i % 2 == 1).then(|| phone_engine("stranger"));
        let engine = stranger.as_ref().unwrap_or(&regular);
        let wire = TcpTransport::connect(addr).expect("tcp connect");
        let t = Instant::now();
        let conn = engine.connect_transport(Box::new(wire)).expect("handshake");
        connect.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let session = conn.acquire(SHOP_INTERFACE).expect("acquire");
        let acquired = t.elapsed().as_nanos() as f64;
        // The regular's first visit is cold too.
        if session.transferred_bytes() > 0 {
            acquire_cold.push(acquired);
        } else {
            acquire_warm.push(acquired);
        }
        let t = Instant::now();
        session.close();
        conn.close();
        close.push(t.elapsed().as_nanos() as f64);
    }
    let us = |v: &[f64]| median(v).unwrap_or(0.0) / 1e3;
    m.insert("alfredo.engine.connect_us", us(&connect));
    m.insert("alfredo.engine.acquire_warm_us", us(&acquire_warm));
    m.insert("alfredo.engine.acquire_cold_us", us(&acquire_cold));
    m.insert("alfredo.session.close_us", us(&close));
}

/// Runs every isolated timing, `seconds_per_slot` each, and derives the
/// residual and the budget from them.
pub fn run(seconds_per_slot: f64) -> BTreeMap<&'static str, f64> {
    let budget = Duration::from_secs_f64(seconds_per_slot);
    let ctx = crate::ctx(1, Obs::disabled());
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let catalog = sample_catalog();
    let product = catalog.products_in("Beds")[0].clone();

    // --- sync -------------------------------------------------------------
    {
        let (to_echo, echo_rx) = channel::unbounded::<u64>();
        let (to_main, main_rx) = channel::unbounded::<u64>();
        let echo = std::thread::spawn(move || {
            while let Ok(v) = echo_rx.recv() {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let ns = timed_ns(budget, 8, || {
            to_echo.send(1).expect("send");
            black_box(main_rx.recv().expect("echo"));
        });
        m.insert("sync.channel.pingpong_us", ns / 1e3);
        drop(to_echo);
        echo.join().expect("echo thread");
    }

    // --- net ----------------------------------------------------------------
    // The tap_mouse request as it crosses the wire, and a 2 KiB frame.
    let mut w = ByteWriter::with_capacity(64);
    let move_args = [Value::I64(10), Value::I64(0)];
    Message::encode_invoke(&mut w, 7, MOUSE_INTERFACE, "move", &move_args, None, None);
    let invoke_frame = w.as_slice().to_vec();
    let big_frame = vec![0x5a_u8; 2048];
    let prefixed = |frame: &[u8]| {
        let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(frame);
        wire
    };
    {
        let pool = BufferPool::new();
        let ns = timed_ns(budget, 256, || {
            let mut buf = pool.take();
            buf.extend_from_slice(&invoke_frame);
            pool.give(black_box(buf));
        });
        m.insert("net.pool.take_give_ns", ns);

        let wire = prefixed(&invoke_frame);
        let mut reassembler = FrameReassembler::new();
        let ns = timed_ns(budget, 256, || {
            black_box(reassembler.feed(&wire).expect("whole frame"));
        });
        m.insert("net.reassembler.feed_ns", ns);

        let wire = prefixed(&big_frame);
        let (a, b) = (wire.len() / 3, 2 * wire.len() / 3);
        let ns = timed_ns(budget, 64, || {
            black_box(reassembler.feed(&wire[..a]).expect("fragment"));
            black_box(reassembler.feed(&wire[a..b]).expect("fragment"));
            black_box(reassembler.feed(&wire[b..]).expect("fragment"));
        });
        m.insert("net.reassembler.feed_split_ns", ns);
    }
    m.insert(
        "net.tcp.frame_rtt_us",
        frame_rtt_tcp(budget, &invoke_frame) / 1e3,
    );
    m.insert(
        "net.tcp.frame_rtt_2k_us",
        frame_rtt_tcp(budget, &big_frame) / 1e3,
    );
    m.insert(
        "net.channel.frame_rtt_us",
        frame_rtt_channel(budget, &invoke_frame) / 1e3,
    );
    {
        let listener = TcpNetListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr();
        let ns = counted_ns(CONNECTION_CYCLES, || {
            let t = Instant::now();
            let client = TcpTransport::connect(addr).expect("connect");
            let server = listener.accept().expect("accept");
            client.close();
            server.close();
            t.elapsed().as_nanos() as u64
        });
        m.insert("net.tcp.connect_close_us", ns / 1e3);
    }

    // --- rosgi: message and value codec ---------------------------------------
    {
        let ns = timed_ns(budget, 256, || {
            w.clear();
            Message::encode_invoke(&mut w, 7, MOUSE_INTERFACE, "move", &move_args, None, None);
            black_box(w.as_slice());
        });
        m.insert("rosgi.message.encode_invoke_ns", ns);
        let ns = timed_ns(budget, 256, || {
            black_box(Message::decode_invoke_borrowed(&invoke_frame).expect("invoke frame"));
        });
        m.insert("rosgi.message.decode_invoke_ns", ns);

        let unit = Ok(Value::Unit);
        let ns = timed_ns(budget, 256, || {
            w.clear();
            Message::encode_response(&mut w, 7, &unit);
            black_box(w.as_slice());
        });
        m.insert("rosgi.message.encode_response_ns", ns);
        let response_frame = w.as_slice().to_vec();
        let ns = timed_ns(budget, 256, || {
            black_box(Message::decode(&response_frame).expect("response frame"));
        });
        m.insert("rosgi.message.decode_response_ns", ns);

        let details = catalog.get(&product).expect("a bed").to_value();
        let ns = timed_ns(budget, 64, || {
            w.clear();
            encode_value(&mut w, &details);
            black_box(w.as_slice());
        });
        m.insert("rosgi.codec.encode_value_ns", ns);
        let encoded = w.as_slice().to_vec();
        let ns = timed_ns(budget, 64, || {
            black_box(decode_value(&mut ByteReader::new(&encoded)).expect("details"));
        });
        m.insert("rosgi.codec.decode_value_ns", ns);

        let delta = RoomUpdate::Delta(RoomDelta {
            seq: 4711,
            member: "phone-0".into(),
            key: cursor_key("phone-0"),
            op: RoomOp::Put(cursor_value()),
        })
        .to_properties();
        let ns = timed_ns(budget, 64, || {
            w.clear();
            encode_properties(&mut w, &delta);
            black_box(decode_properties(&mut ByteReader::new(w.as_slice())).expect("delta"));
        });
        m.insert("rosgi.codec.properties_roundtrip_ns", ns);
    }

    // --- rosgi: endpoint ------------------------------------------------------
    {
        let net = InMemoryNetwork::new();
        let listener = net.bind(PeerAddr::new("device")).expect("bind");
        let client = net
            .connect(PeerAddr::new("phone"), PeerAddr::new("device"))
            .expect("connect");
        let server = listener.accept().expect("accept");
        let pair = endpoint_pair(Box::new(client), Box::new(server), noop_framework(), false);
        m.insert("rosgi.endpoint.invoke_inmem_us", pair.invoke_us(budget));
        pair.close();

        let pair = tcp_endpoint_pair(noop_framework(), false);
        m.insert("rosgi.endpoint.invoke_tcp_us", pair.invoke_us(budget));

        // Push direction: device sends, the phone's subscriber stamps.
        let (stamped, stamps) = mpsc::channel();
        pair.phone_fw.event_admin().subscribe(TOPIC, move |_| {
            let _ = stamped.send(now_ns());
        });
        let props = Properties::new()
            .with("seq", 1i64)
            .with("value", cursor_value());
        let ns = sampled_ns(budget, || {
            let t0 = now_ns();
            pair.device
                .send_event(TOPIC, props.clone())
                .expect("send event");
            stamps.recv().expect("subscriber ran").saturating_sub(t0)
        });
        m.insert("rosgi.endpoint.send_event_us", ns / 1e3);
        pair.close();

        let pair = tcp_endpoint_pair(noop_framework(), true);
        m.insert(
            "rosgi.endpoint.invoke_tcp_queued_us",
            pair.invoke_us(budget),
        );
        pair.close();

        // Handshake, fetch and close, one connection per cycle.
        let shop = device::shop_device(Obs::disabled());
        let shop_fw = || {
            let fw = Framework::new();
            alfredo_apps::register_shop(&fw, sample_catalog()).expect("register shop");
            fw
        };
        let mut establish = Vec::new();
        let mut fetch = Vec::new();
        let mut close = Vec::new();
        for _ in 0..CONNECTION_CYCLES {
            let t = Instant::now();
            let pair = tcp_endpoint_pair(shop_fw(), false);
            establish.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            black_box(pair.phone.fetch_service(SHOP_INTERFACE).expect("fetch"));
            fetch.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            pair.phone.close();
            while !pair.device.is_closed() {
                std::thread::yield_now();
            }
            close.push(t.elapsed().as_nanos() as f64);
        }
        let us = |v: &[f64]| median(&v[v.len() / 10..]).expect("cycles") / 1e3;
        m.insert("rosgi.endpoint.establish_us", us(&establish));
        m.insert("rosgi.endpoint.fetch_service_us", us(&fetch));
        m.insert("rosgi.endpoint.close_us", us(&close));

        walkup_phases(shop.device.addr(), &ctx, &mut m);
        shop.device.stop();
    }
    {
        let queue = ServeQueue::new(ServeQueueConfig::workers(WORKERS));
        let (started, starts) = mpsc::channel();
        let ns = sampled_ns(budget, || {
            let started = started.clone();
            let t0 = now_ns();
            queue.submit(
                "peer",
                Box::new(move || {
                    let _ = started.send(now_ns());
                }),
            );
            starts.recv().expect("job ran").saturating_sub(t0)
        });
        m.insert("rosgi.serve.submit_run_us", ns / 1e3);
        queue.shutdown();
    }

    // --- osgi, ui, descriptor ---------------------------------------------------
    {
        let fw = Framework::new();
        alfredo_apps::register_mouse_controller(&fw, SCREEN.0, SCREEN.1).expect("mouse");
        alfredo_apps::register_shop(&fw, Arc::clone(&catalog)).expect("shop");
        let ns = timed_ns(budget, 256, || {
            black_box(
                fw.registry()
                    .get_service(MOUSE_INTERFACE)
                    .expect("registered"),
            );
        });
        m.insert("osgi.registry.get_service_ns", ns);

        let bus = EventAdmin::new();
        let hits = Arc::new(AtomicU64::new(0));
        for pattern in ["mouse/*", "shop/*", "data/*", &room_update_topic("board")] {
            let hits = Arc::clone(&hits);
            bus.subscribe(pattern, move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        let event = Event::new(
            room_update_topic("board"),
            Properties::new()
                .with("seq", 1i64)
                .with("value", cursor_value()),
        );
        let ns = timed_ns(budget, 256, || bus.post(black_box(&event)));
        m.insert("osgi.events.post_ns", ns);

        let blob = shop_blob();
        let ns = timed_ns(budget, 8, || {
            black_box(Json::parse(&blob.meta).expect("meta parses"));
        });
        m.insert("osgi.json.parse_us", ns / 1e3);
        let parsed = Json::parse(&blob.meta).expect("meta parses");
        let ns = timed_ns(budget, 8, || {
            black_box(parsed.to_json_string());
        });
        m.insert("osgi.json.write_us", ns / 1e3);

        let ns = timed_ns(budget, 8, || {
            black_box(UiDescription::decode(&blob.ui).expect("ui decodes"));
        });
        m.insert("ui.description.decode_us", ns / 1e3);
        let ui = UiDescription::decode(&blob.ui).expect("ui decodes");
        let caps = DeviceCapabilities::nokia_9300i();
        let ns = timed_ns(budget, 8, || {
            black_box(select_renderer(&caps).render(&ui, &caps).expect("renders"));
        });
        m.insert("ui.render_us", ns / 1e3);
        let ns = timed_ns(budget, 8, || {
            black_box(ServiceDescriptor::decode(&blob.descriptor).expect("descriptor decodes"));
        });
        m.insert("alfredo.descriptor.decode_us", ns / 1e3);
    }

    // --- alfredo: session floor, rooms ------------------------------------------
    {
        let shop = device::shop_device(Obs::disabled());
        let engine = workloads::phone_engine("phone", Framework::new(), &ctx, None);
        let wire = TcpTransport::connect(shop.device.addr()).expect("tcp connect");
        let conn = engine.connect_transport(Box::new(wire)).expect("handshake");
        let session = conn.acquire(SHOP_INTERFACE).expect("acquire");
        // Pure local `Update` rules, no RPC: the controller and UiState
        // floor under every tap.
        let clear = UiEvent::Click {
            control: "clear".into(),
        };
        let ns = timed_ns(budget, 64, || {
            black_box(session.handle_event(&clear).expect("local event"));
        });
        m.insert("alfredo.session.local_event_ns", ns);
        session.close();
        conn.close();
        shop.device.stop();
    }
    {
        let room = Room::new(RoomConfig::new("plain"));
        room.join("m", Arc::new(NullSink), 0);
        let key = cursor_key("m");
        let ns = timed_ns(budget, 64, || {
            black_box(
                room.publish("m", key.clone(), cursor_value())
                    .expect("member"),
            );
        });
        m.insert("alfredo.room.publish_ns", ns);

        let dir = scratch_dir("room");
        let journal = DeviceJournal::open(DeviceJournalConfig::new(&dir)).expect("open journal");
        let room = journal.register_room(RoomConfig::new("durable"), None, 0);
        room.join("m", Arc::new(NullSink), 0);
        let ns = batched_ns(JOURNAL_APPENDS, 64, || {
            black_box(
                room.publish("m", key.clone(), cursor_value())
                    .expect("member"),
            );
        });
        m.insert("alfredo.room.publish_journaled_ns", ns);
        let _ = journal.close();
        let _ = std::fs::remove_dir_all(&dir);

        // Publish -> all eight in-process members applied, via the queue.
        struct Stamping {
            replica: Arc<RoomReplica>,
            seen: Arc<(Mutex<(u32, u64)>, Condvar)>,
        }
        impl RoomSink for Stamping {
            fn deliver(&self, room: &str, update: &RoomUpdate) -> bool {
                ReplicaSink(Arc::clone(&self.replica)).deliver(room, update);
                let (seen, cv) = &*self.seen;
                let mut seen = seen.lock();
                *seen = (seen.0 + 1, now_ns());
                cv.notify_all();
                true
            }
        }
        const MEMBERS: u32 = 8;
        let queue = ServeQueue::new(ServeQueueConfig::workers(WORKERS));
        let room = Room::with_queue(RoomConfig::new("fanout"), queue.clone());
        let seen = Arc::new((Mutex::new((0u32, 0u64)), Condvar::new()));
        let all_seen = |n: u32| {
            let (lock, cv) = &*seen;
            let mut s = lock.lock();
            while s.0 < n {
                s = cv.wait(s);
            }
            let last = s.1;
            *s = (0, 0);
            last
        };
        for i in 0..MEMBERS {
            room.join(
                &format!("m{i}"),
                Arc::new(Stamping {
                    replica: RoomReplica::new("fanout"),
                    seen: Arc::clone(&seen),
                }),
                0,
            );
            // Member i's join reaches the i + 1 members seated so far.
            all_seen(i + 1);
        }
        let key = cursor_key("m0");
        let ns = sampled_ns(budget, || {
            let t0 = now_ns();
            room.publish("m0", key.clone(), cursor_value())
                .expect("member");
            all_seen(MEMBERS).saturating_sub(t0)
        });
        m.insert("alfredo.room.fanout_inproc_us", ns / 1e3);
        queue.shutdown();

        let deltas: Vec<RoomUpdate> = (1..=256)
            .map(|seq| {
                RoomUpdate::Delta(RoomDelta {
                    seq,
                    member: "m".into(),
                    key: key.clone(),
                    op: RoomOp::Put(cursor_value()),
                })
            })
            .collect();
        let ns = sampled_ns(budget, || {
            let replica = RoomReplica::new("apply");
            let t = Instant::now();
            for d in &deltas {
                replica.apply(d);
            }
            t.elapsed().as_nanos() as u64 / deltas.len() as u64
        });
        m.insert("alfredo.room.replica_apply_ns", ns);
    }

    // --- journal ----------------------------------------------------------------
    {
        let dir = scratch_dir("journal");
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
        let payload =
            "{\"key\":\"cursor/phone-0\",\"member\":\"phone-0\",\"seq\":4711,\"x\":960,\"y\":540}";
        let ns = batched_ns(JOURNAL_APPENDS, 64, || {
            black_box(journal.append_with("room", "delta", |out| out.push_str(payload)));
        });
        m.insert("journal.append_ns", ns);
        let _ = journal.barrier();
        let ns = sampled_ns(budget, || {
            let t = Instant::now();
            let seq = journal.append("room", "delta", payload);
            journal.wait_durable(seq).expect("durable");
            t.elapsed().as_nanos() as u64
        });
        m.insert("journal.commit_lag_ms", ns / 1e6);
        let _ = journal.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- apps, obs ----------------------------------------------------------------
    {
        let mouse = MouseControllerService::new(SCREEN.0, SCREEN.1, EventAdmin::new());
        let ns = timed_ns(budget, 256, || {
            black_box(mouse.invoke("move", &move_args).expect("move"));
        });
        m.insert("apps.mouse.move_ns", ns);

        let shop = ShopService::new(Arc::clone(&catalog));
        let args = [Value::from(product.as_str())];
        let ns = timed_ns(budget, 64, || {
            black_box(shop.invoke("details", &args).expect("details"));
        });
        m.insert("apps.shop.details_ns", ns);

        let room = Room::new(RoomConfig::new("cursors"));
        room.join("m", Arc::new(NullSink), 0);
        let board = MultiCursorService::new(room, SCREEN.0, SCREEN.1);
        let args = [Value::from("m"), Value::I64(10), Value::I64(0)];
        let ns = timed_ns(budget, 64, || {
            black_box(board.invoke("move", &args).expect("move"));
        });
        m.insert("apps.cursor.move_ns", ns);

        let (obs, _ring) = Obs::ring(1024);
        let ns = timed_ns(budget, 256, || drop(black_box(obs.span("bench.span"))));
        m.insert("obs.span_ns", ns);
    }

    // --- the budget on tap_mouse -------------------------------------------------
    let reference = pass::run::<TapMouse>(
        &ctx,
        Plan {
            warmup: budget,
            measure: Duration::from_secs_f64(seconds_per_slot * (REFERENCE_SLOTS - 1.0)),
            max_ops: u64::MAX,
            extra_setups: 0,
        },
    );
    m.insert("bench.tap_ref_p50_us", reference.op_p50_us);
    let named = [
        "rosgi.message.encode_invoke_ns",
        "rosgi.message.decode_invoke_ns",
        "rosgi.message.encode_response_ns",
        "rosgi.message.decode_response_ns",
        "osgi.registry.get_service_ns",
    ]
    .iter()
    .map(|k| m[k] / 1e3)
    .sum::<f64>()
        + m["net.tcp.frame_rtt_us"]
        + m["rosgi.serve.submit_run_us"];
    m.insert(
        "rosgi.endpoint.residual_us",
        m["rosgi.endpoint.invoke_tcp_queued_us"] - named,
    );
    let sum = m["alfredo.session.local_event_ns"] / 1e3
        + m["rosgi.endpoint.invoke_tcp_queued_us"]
        + m["apps.mouse.move_ns"] / 1e3;
    m.insert("bench.budget_sum_us", sum);
    m.insert(
        "bench.budget_coverage",
        sum / reference.op_p50_us.max(f64::MIN_POSITIVE),
    );
    m
}
