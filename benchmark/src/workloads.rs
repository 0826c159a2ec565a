//! The four workloads. Each stands up a device (see `device.rs`) and its
//! phones, generates seeded UI events, checks what came back against a
//! model computed here, and reads the layers' public stats. All traffic
//! crosses the host loopback through the real reactor.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_apps::rooms::cursor_key;
use alfredo_apps::{MOUSE_INTERFACE, MULTI_CURSOR_INTERFACE, SHOP_INTERFACE};
use alfredo_core::session::ActionOutcome;
use alfredo_core::{
    room_update_topic, AlfredOConnection, AlfredOEngine, AlfredOSession, DeviceJournal,
    DeviceJournalConfig, EngineConfig, EngineError, RoomReplica, ROOMS_INTERFACE,
};
use alfredo_journal::JournalConfig;
use alfredo_net::{InMemoryNetwork, TcpTransport};
use alfredo_obs::{Obs, SpanCtx};
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{DiscoveryDirectory, EndpointStats};
use alfredo_sim::SimRng;
use alfredo_sync::Mutex;
use alfredo_ui::{DeviceCapabilities, UiEvent};

use crate::device::{self, BoardDevice, MouseDevice, ShopDevice, ROOM, SCREEN};
use crate::oplog::{Loop, Op, OpLog};
use crate::stats::{join_fanout, lateness_ns, Arrival, Schedule};
use crate::sys::{self, now_ns};

/// Walk-ups per second in `walkup_churn`. Each connect->close cycle leaks
/// two descriptors and parks one port in TIME_WAIT; 80/s keeps a run under
/// the descriptor pre-flight and far from the ephemeral-port range.
pub const WALKUP_RATE: u64 = 80;
/// Every n-th walk-up comes from a fresh phone with a cold tier cache.
pub const COLD_EVERY: u64 = 4;
/// Taps per second and phone in `room_board`. A closed loop on the ack
/// outruns delivery and measures a backlog; this rate leaves none.
pub const ROOM_RATE: u64 = 1_000;
/// Pointer and cursor step of one tap, as the apps' controllers define it.
const STEP: i64 = 10;
const PAD: [(&str, i64, i64); 4] = [
    ("up", 0, -STEP),
    ("right", STEP, 0),
    ("down", 0, STEP),
    ("left", -STEP, 0),
];

/// What a pass needs from its caller.
pub struct Ctx {
    pub seed: u64,
    /// `Obs::disabled()` for every end-to-end number; a recording handle in
    /// the traced pass, given to the engines and the device's endpoints.
    pub obs: Obs,
    /// Scratch directory for journals, inside the checkout.
    pub out_dir: PathBuf,
}

/// When generators run and which part is measured, on the `now_ns` clock.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    pub start_ns: u64,
    pub measure_ns: u64,
    pub end_ns: u64,
    /// The measured interval is `windows` windows of `window_ns`.
    pub window_ns: u64,
    pub windows: u32,
    /// Ops one generator may issue; bounds the traced pass's span count.
    pub max_ops: u64,
}

/// Counters and check results of one pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-layer counter metrics read from public stats, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Failed run-level output checks, in words.
    pub errors: Vec<String>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

pub trait Workload {
    /// Closed: each client sends its next op when the last one completed.
    /// Open: ops are due on a schedule, whatever the system does.
    const LOOP: Loop;
    /// How long a measured window is. Every reported latency, rate and CPU
    /// time is taken per window and reduced over the windows (see
    /// `stats::quiet`), so a window is as short as it can be while
    /// it still holds the ops a 90th percentile needs: the shorter, the
    /// fewer windows a disturbance of the host touches.
    const WINDOW: Duration;
    /// Device, phones and models, ready to warm up.
    type Rig;
    fn setup(ctx: &Ctx) -> Self::Rig;
    /// Runs the generators until `timeline.end_ns`; returns every op.
    fn generate(rig: &mut Self::Rig, ctx: &Ctx, timeline: Timeline) -> OpLog;
    /// Quiesces, runs the run-level output checks, reads the counters and
    /// tears everything down. `ops` counts what `generate` logged (0 after a
    /// set-up-only cycle).
    fn finish(rig: Self::Rig, ctx: &Ctx, ops: usize) -> Report;
}

pub fn phone_engine(
    name: &str,
    fw: Framework,
    ctx: &Ctx,
    journal: Option<JournalConfig>,
) -> AlfredOEngine {
    let mut config =
        EngineConfig::phone(name, DeviceCapabilities::nokia_9300i()).with_obs(ctx.obs.clone());
    if let Some(journal) = journal {
        config = config.with_journal(journal);
    }
    AlfredOEngine::new(
        fw,
        InMemoryNetwork::new(),
        DiscoveryDirectory::new(),
        config,
    )
}

/// A phone walking up to a device: TCP connect, handshake, lease, render.
fn walk_up(
    engine: &AlfredOEngine,
    addr: SocketAddr,
    interface: &str,
) -> Result<(AlfredOConnection, AlfredOSession), String> {
    let wire = TcpTransport::connect(addr).map_err(|e| format!("tcp connect: {e}"))?;
    let conn = engine
        .connect_transport(Box::new(wire))
        .map_err(|e| format!("handshake: {e}"))?;
    let session = conn
        .acquire(interface)
        .map_err(|e| format!("acquire {interface}: {e}"))?;
    Ok((conn, session))
}

/// A connected phone. Field order is drop order: session, connection, engine.
struct Phone {
    session: AlfredOSession,
    conn: AlfredOConnection,
    _engine: AlfredOEngine,
    /// Parent of this phone's `bench.op` spans: its `bench.setup` span,
    /// which is also the root of the trace its program spans live in.
    trace: Option<SpanCtx>,
}

fn connect_phone(
    name: &str,
    fw: Framework,
    addr: SocketAddr,
    interface: &str,
    ctx: &Ctx,
    journal: Option<JournalConfig>,
) -> Phone {
    let setup_span = ctx.obs.child_of(None, "bench.setup");
    let _in_setup = setup_span.enter();
    let engine = phone_engine(name, fw, ctx, journal);
    let (conn, session) = walk_up(&engine, addr, interface).expect("phone connects and acquires");
    Phone {
        session,
        conn,
        _engine: engine,
        trace: setup_span.ctx(),
    }
}

fn click(control: &str) -> UiEvent {
    UiEvent::Click {
        control: control.to_owned(),
    }
}

fn pad_events() -> Vec<UiEvent> {
    PAD.iter().map(|(control, _, _)| click(control)).collect()
}

/// The single service call a tap must have made, if it made exactly that.
fn invoked<'a>(
    result: &'a Result<Vec<ActionOutcome>, EngineError>,
    method: &str,
) -> Option<&'a Value> {
    match result.as_deref() {
        Ok(
            [ActionOutcome::Invoked {
                method: m, result, ..
            }, rest @ ..],
        ) if m == method
            && rest
                .iter()
                .all(|o| matches!(o, ActionOutcome::Updated { .. })) =>
        {
            Some(result)
        }
        _ => None,
    }
}

fn sleep_until(due_ns: u64) {
    let now = now_ns();
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Sums the traffic counters of phone endpoints.
#[derive(Debug, Default, Clone, Copy)]
struct Traffic {
    bytes: u64,
    frames: u64,
    pool_hits: u64,
    pool_misses: u64,
    retries: u64,
}

impl Traffic {
    fn add(&mut self, s: &EndpointStats) {
        self.bytes += s.bytes_sent + s.bytes_received;
        self.frames += s.frames_sent + s.frames_received;
        self.pool_hits += s.pool_hits;
        self.pool_misses += s.pool_misses;
        self.retries += s.retries + s.busy_hint_retries;
    }

    fn report(&self, ops: usize, counters: &mut BTreeMap<&'static str, f64>) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        counters.insert("net.bytes_per_op", per_op(self.bytes));
        counters.insert("net.frames_per_op", per_op(self.frames));
        counters.insert("rosgi.endpoint.retries_per_op", per_op(self.retries));
        let takes = self.pool_hits + self.pool_misses;
        counters.insert(
            "net.pool.hit_ratio",
            self.pool_hits as f64 / takes.max(1) as f64,
        );
    }
}

fn queue_counters(q: alfredo_rosgi::ServeQueueStats, counters: &mut BTreeMap<&'static str, f64>) {
    let offered = (q.submitted + q.rejected + q.shed_predicted).max(1) as f64;
    counters.insert("rosgi.serve.rejected_share", q.rejected as f64 / offered);
    counters.insert(
        "rosgi.serve.shed_share",
        (q.shed_expired + q.shed_predicted) as f64 / offered,
    );
}

/// Waits (bounded) for a condition the program reaches asynchronously. It
/// looks often: `room_board`'s timed set-up waits here for the device to
/// roster each phone, and looking every millisecond made `setup_s` a
/// multiple of that (1.7, 2.8 or 3.9 ms, by how the race fell).
fn settles(what: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !what() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    true
}

// ---------------------------------------------------------------------------
// tap_mouse
// ---------------------------------------------------------------------------

/// 1 phone, 1 connection, closed loop, zero think time. The smallest
/// message the stack carries: per-message cost dominates, the service body
/// is a mutex and two additions.
pub struct TapMouse;

pub struct TapMouseRig {
    device: MouseDevice,
    phone: Phone,
    /// Where the pointer must be, computed here from the acknowledged taps.
    pointer: (i64, i64),
    acked: u64,
}

impl Workload for TapMouse {
    const LOOP: Loop = Loop::Closed;
    /// About 12 000 taps.
    const WINDOW: Duration = Duration::from_millis(250);
    type Rig = TapMouseRig;

    fn setup(ctx: &Ctx) -> TapMouseRig {
        let device = device::mouse_device(ctx.obs.clone());
        let addr = device.device.addr();
        let phone = connect_phone(
            "phone-0",
            Framework::new(),
            addr,
            MOUSE_INTERFACE,
            ctx,
            None,
        );
        TapMouseRig {
            device,
            phone,
            pointer: (SCREEN.0 / 2, SCREEN.1 / 2),
            acked: 0,
        }
    }

    fn generate(rig: &mut TapMouseRig, ctx: &Ctx, timeline: Timeline) -> OpLog {
        let events = pad_events();
        let mut rng = SimRng::seed_from(ctx.seed);
        let mut ops = OpLog::new(&timeline, Self::LOOP);
        sleep_until(timeline.start_ns);
        while now_ns() < timeline.end_ns && ops.generated < timeline.max_ops {
            let pick = rng.next_below(PAD.len() as u64) as usize;
            let span = ctx.obs.child_of(rig.phone.trace, "bench.op");
            let t0 = now_ns();
            let result = rig.phone.session.handle_event(&events[pick]);
            let ack_ns = now_ns() - t0;
            drop(span);
            let ok = invoked(&result, "move") == Some(&Value::Unit);
            if ok {
                let (_, dx, dy) = PAD[pick];
                rig.pointer = (
                    (rig.pointer.0 + dx).clamp(0, SCREEN.0 - 1),
                    (rig.pointer.1 + dy).clamp(0, SCREEN.1 - 1),
                );
                rig.acked += 1;
            }
            ops.push(Op {
                t0_ns: t0,
                late_ns: 0,
                ack_ns,
                op_ns: ok.then_some(ack_ns),
            });
        }
        ops
    }

    fn finish(rig: TapMouseRig, _ctx: &Ctx, ops: usize) -> Report {
        let mut report = Report::default();
        let moves = rig.device.service.moves();
        report.check(moves == rig.acked, || {
            format!(
                "device counted {moves} moves, phone had {} acknowledged",
                rig.acked
            )
        });
        let position = rig.device.service.position();
        report.check(position == rig.pointer, || {
            format!(
                "pointer is at {position:?}, the model says {:?}",
                rig.pointer
            )
        });
        let mut traffic = Traffic::default();
        traffic.add(&rig.phone.conn.endpoint().stats());
        traffic.report(ops, &mut report.counters);
        if let Some(q) = rig.device.device.queue() {
            queue_counters(q.stats(), &mut report.counters);
        }
        rig.phone.session.close();
        rig.phone.conn.close();
        rig.device.device.stop();
        report
    }
}

// ---------------------------------------------------------------------------
// browse_shop
// ---------------------------------------------------------------------------

/// 2 phones on 2 threads and connections, closed loop. The same path as
/// `tap_mouse` with payloads: lists and `Product` structs through the value
/// codec and the controller's bindings, and two peers in the serve queue.
pub struct BrowseShop;

pub const SHOP_PHONES: usize = 2;

struct ShopPhone {
    phone: Phone,
    rng: SimRng,
    /// What the phone's `products` list must hold right now.
    products: Vec<String>,
}

pub struct BrowseShopRig {
    device: ShopDevice,
    phones: Vec<ShopPhone>,
    categories: Vec<String>,
    /// Every alphabetic 2-4 letter run of the product names, sorted: the
    /// pool search strings are drawn from, so that a search finds something.
    queries: Vec<String>,
}

fn search_pool(names: &[String]) -> Vec<String> {
    let mut pool = Vec::new();
    for name in names {
        let chars: Vec<char> = name.to_lowercase().chars().collect();
        for len in 2..=4 {
            for run in chars.windows(len) {
                if run.iter().all(|c| c.is_ascii_lowercase()) {
                    pool.push(run.iter().collect::<String>());
                }
            }
        }
    }
    pool.sort();
    pool.dedup();
    pool
}

impl BrowseShopRig {
    /// One seeded op on phone `p`: generates the event, times it, and checks
    /// what it bound into the UI state against the catalogue.
    fn browse(
        phone: &mut ShopPhone,
        device: &ShopDevice,
        categories: &[String],
        queries: &[String],
        obs: &Obs,
    ) -> Op {
        let catalog = &device.catalog;
        let kind = match phone.rng.next_below(4) {
            // A product can only be selected from a list that has one.
            2 if phone.products.is_empty() => 1,
            k => k,
        };
        let (event, method) = match kind {
            0 => (click("refresh"), "categories"),
            1 => {
                let index = phone.rng.next_below(categories.len() as u64) as usize;
                phone.products = catalog.products_in(&categories[index]);
                (
                    UiEvent::Selected {
                        control: "categories".into(),
                        index,
                    },
                    "products",
                )
            }
            2 => {
                let index = phone.rng.next_below(phone.products.len() as u64) as usize;
                (
                    UiEvent::Selected {
                        control: "products".into(),
                        index,
                    },
                    "details",
                )
            }
            _ => {
                let query = &queries[phone.rng.next_below(queries.len() as u64) as usize];
                phone.products = catalog.search(query);
                (
                    UiEvent::TextChanged {
                        control: "search".into(),
                        text: query.clone(),
                    },
                    "search",
                )
            }
        };
        let span = obs.child_of(phone.phone.trace, "bench.op");
        let t0 = now_ns();
        let result = phone.phone.session.handle_event(&event);
        let ack_ns = now_ns() - t0;
        drop(span);
        let bound = invoked(&result, method).is_some()
            && phone.phone.session.with_state(|state| match &event {
                UiEvent::Selected { control, index } if control == "products" => {
                    let want = catalog.get(&phone.products[*index]).map(|p| p.price_cents);
                    let got = state
                        .get("detail")
                        .and_then(|d| d.field("price_cents"))
                        .and_then(Value::as_i64);
                    want.is_some() && got == want
                }
                UiEvent::Click { .. } => state.items("categories").as_deref() == Some(categories),
                _ => state.items("products").as_deref() == Some(&phone.products[..]),
            });
        Op {
            t0_ns: t0,
            late_ns: 0,
            ack_ns,
            op_ns: bound.then_some(ack_ns),
        }
    }
}

impl Workload for BrowseShop {
    const LOOP: Loop = Loop::Closed;
    /// About 11 000 ops.
    const WINDOW: Duration = Duration::from_millis(250);
    type Rig = BrowseShopRig;

    fn setup(ctx: &Ctx) -> BrowseShopRig {
        let device = device::shop_device(ctx.obs.clone());
        let addr = device.device.addr();
        let categories = device.catalog.categories();
        let names: Vec<String> = categories
            .iter()
            .flat_map(|c| device.catalog.products_in(c))
            .collect();
        let mut seeds = SimRng::seed_from(ctx.seed);
        let phones = (0..SHOP_PHONES)
            .map(|p| {
                let phone = connect_phone(
                    &format!("phone-{p}"),
                    Framework::new(),
                    addr,
                    SHOP_INTERFACE,
                    ctx,
                    None,
                );
                // Selecting a category reads the list a refresh bound.
                let first = phone.session.handle_event(&click("refresh"));
                assert!(
                    invoked(&first, "categories").is_some(),
                    "first refresh: {first:?}"
                );
                ShopPhone {
                    phone,
                    rng: seeds.split(),
                    products: Vec::new(),
                }
            })
            .collect();
        BrowseShopRig {
            device,
            phones,
            categories,
            queries: search_pool(&names),
        }
    }

    fn generate(rig: &mut BrowseShopRig, ctx: &Ctx, timeline: Timeline) -> OpLog {
        let BrowseShopRig {
            device,
            phones,
            categories,
            queries,
        } = rig;
        let (device, categories, queries) = (&*device, &categories[..], &queries[..]);
        std::thread::scope(|scope| {
            let generators: Vec<_> = phones
                .iter_mut()
                .map(|phone| {
                    scope.spawn(move || {
                        let mut ops = OpLog::new(&timeline, Self::LOOP);
                        sleep_until(timeline.start_ns);
                        while now_ns() < timeline.end_ns && ops.generated < timeline.max_ops {
                            ops.push(BrowseShopRig::browse(
                                phone, device, categories, queries, &ctx.obs,
                            ));
                        }
                        ops
                    })
                })
                .collect();
            generators
                .into_iter()
                .map(|g| g.join().expect("shop generator panicked"))
                .reduce(|mut all, one| {
                    all.merge(one);
                    all
                })
                .expect("at least one phone")
        })
    }

    fn finish(rig: BrowseShopRig, _ctx: &Ctx, ops: usize) -> Report {
        let mut report = Report::default();
        let mut traffic = Traffic::default();
        for p in &rig.phones {
            traffic.add(&p.phone.conn.endpoint().stats());
        }
        traffic.report(ops, &mut report.counters);
        if let Some(q) = rig.device.device.queue() {
            queue_counters(q.stats(), &mut report.counters);
        }
        for p in &rig.phones {
            p.phone.session.close();
            p.phone.conn.close();
        }
        rig.device.device.stop();
        report
    }
}

// ---------------------------------------------------------------------------
// walkup_churn
// ---------------------------------------------------------------------------

/// Open loop, one generator: a phone walks up, becomes the shop's client,
/// has its first tap acknowledged, and leaves. The paper's Table 1 —
/// handshake, lease, tier cache, descriptor decode, render, connection
/// set-up and tear-down — none of which a steady-state tap touches.
pub struct WalkupChurn;

pub struct WalkupChurnRig {
    device: ShopDevice,
    /// The returning phone: its tier cache is warm after the set-up walk-up.
    regular: AlfredOEngine,
    expect: WalkExpect,
    tally: WalkTally,
}

/// What every walk-up must show, learnt from the set-up walk-up and the
/// catalogue.
struct WalkExpect {
    categories: Vec<String>,
    /// Tier bytes a cold walk-up transfers; a warm one transfers none.
    cold_bytes: usize,
    /// Interactive controls of the shop UI on this phone model.
    interactive: usize,
}

#[derive(Default)]
struct WalkTally {
    traffic: Traffic,
    transferred: usize,
    cache_hits: u64,
    cache_lookups: u64,
    walkups: u64,
}

impl WalkTally {
    fn note_cache(&mut self, engine: &AlfredOEngine) {
        let stats = engine.tier_cache().stats();
        self.cache_hits += stats.hits;
        self.cache_lookups += stats.hits + stats.misses;
    }
}

/// One walk-up by `engine`, timed from `due_ns` and started `late_ns` after
/// it; leaves nothing connected.
#[allow(clippy::too_many_arguments)]
fn walk(
    engine: &AlfredOEngine,
    cold: bool,
    due_ns: u64,
    late_ns: u64,
    addr: SocketAddr,
    expect: &WalkExpect,
    tally: &mut WalkTally,
    obs: &Obs,
) -> Op {
    let span = obs.child_of(None, "bench.op");
    let entered = span.enter();
    let mut ack_ns = 0;
    let walked = walk_up(engine, addr, SHOP_INTERFACE).map(|(conn, session)| {
        let t = now_ns();
        let first = session.handle_event(&click("refresh"));
        ack_ns = now_ns() - t;
        (conn, session, first)
    });
    let done = now_ns();
    drop(entered);
    drop(span);
    tally.walkups += 1;
    let mut ok = false;
    if let Ok((conn, session, first)) = walked {
        let want_bytes = if cold { expect.cold_bytes } else { 0 };
        ok = invoked(&first, "categories").is_some()
            && session.rendered().interactive_count() == expect.interactive
            && session.transferred_bytes() == want_bytes
            && session.with_state(|s| s.items("categories")).as_deref()
                == Some(&expect.categories[..]);
        tally.transferred += session.transferred_bytes();
        tally.traffic.add(&conn.endpoint().stats());
        session.close();
        conn.close();
    }
    Op {
        t0_ns: due_ns,
        late_ns,
        ack_ns,
        op_ns: ok.then(|| done - due_ns),
    }
}

impl Workload for WalkupChurn {
    const LOOP: Loop = Loop::Open;
    /// 160 walk-ups: 16 beyond the 90th percentile.
    const WINDOW: Duration = Duration::from_secs(2);
    type Rig = WalkupChurnRig;

    fn setup(ctx: &Ctx) -> WalkupChurnRig {
        let device = device::shop_device(ctx.obs.clone());
        let regular = phone_engine("regular", Framework::new(), ctx, None);
        // The regular's first visit: fills its tier cache and tells the
        // benchmark what a cold walk-up transfers and renders.
        let (conn, session) =
            walk_up(&regular, device.device.addr(), SHOP_INTERFACE).expect("first walk-up");
        let expect = WalkExpect {
            categories: device.catalog.categories(),
            cold_bytes: session.transferred_bytes(),
            interactive: session.rendered().interactive_count(),
        };
        assert!(
            expect.cold_bytes > 0 && expect.interactive > 0,
            "the first walk-up shipped nothing"
        );
        session.close();
        conn.close();
        WalkupChurnRig {
            device,
            regular,
            expect,
            tally: WalkTally::default(),
        }
    }

    fn generate(rig: &mut WalkupChurnRig, ctx: &Ctx, timeline: Timeline) -> OpLog {
        sys::tighten_timer_slack();
        let schedule = Schedule::at_rate(timeline.start_ns, WALKUP_RATE);
        let addr = rig.device.device.addr();
        let mut ops = OpLog::new(&timeline, Self::LOOP);
        let mut rng = SimRng::seed_from(ctx.seed);
        for i in 0..timeline.max_ops {
            let due = schedule.due_ns(i, rng.next_u64());
            if due >= timeline.end_ns {
                break;
            }
            // A stranger's phone exists before it walks up.
            let stranger = (i % COLD_EVERY == COLD_EVERY - 1)
                .then(|| phone_engine(&format!("stranger-{i}"), Framework::new(), ctx, None));
            sleep_until(due);
            let engine = stranger.as_ref().unwrap_or(&rig.regular);
            ops.push(walk(
                engine,
                stranger.is_some(),
                due,
                lateness_ns(due, now_ns()),
                addr,
                &rig.expect,
                &mut rig.tally,
                &ctx.obs,
            ));
            if let Some(stranger) = &stranger {
                rig.tally.note_cache(stranger);
            }
        }
        ops
    }

    fn finish(rig: WalkupChurnRig, _ctx: &Ctx, ops: usize) -> Report {
        let mut report = Report::default();
        let device = &rig.device.device;
        report.check(settles(|| device.connections() == 0), || {
            format!(
                "{} connections still rostered on the device",
                device.connections()
            )
        });
        let mut tally = rig.tally;
        tally.note_cache(&rig.regular);
        tally.traffic.report(ops, &mut report.counters);
        report.counters.insert(
            "alfredo.cache.hit_ratio",
            tally.cache_hits as f64 / tally.cache_lookups.max(1) as f64,
        );
        report.counters.insert(
            "alfredo.cache.bytes_per_walkup",
            tally.transferred as f64 / tally.walkups.max(1) as f64,
        );
        if let Some(q) = device.queue() {
            queue_counters(q.stats(), &mut report.counters);
        }
        rig.device.device.stop();
        report
    }
}

// ---------------------------------------------------------------------------
// room_board
// ---------------------------------------------------------------------------

/// 2 TCP phones and 6 passive in-process members in one durable room, open
/// loop at `ROOM_RATE` taps/s per phone. The only workload where the
/// journal, the room lock, fan-out and the device->phone push direction
/// work. Fan-out latency is joined after the run on the delta `seq`.
pub struct RoomBoard;

pub const BOARD_PHONES: usize = 2;

struct BoardPhone {
    name: String,
    phone: Phone,
    replica: Arc<RoomReplica>,
    /// What this phone's benchmark subscriber saw on the room's topic.
    arrivals: Arc<Mutex<Vec<Arrival>>>,
    rng: SimRng,
    /// Where this member's cursor must be; `None` until its first tap.
    cursor: Option<(i64, i64)>,
}

pub struct RoomBoardRig {
    device: BoardDevice,
    phones: Vec<BoardPhone>,
    journal_dir: PathBuf,
    heartbeat_epoch: Instant,
}

/// Where this process keeps the journals of its `room_board` rigs.
fn journals_dir(out_dir: &std::path::Path) -> PathBuf {
    out_dir.join(format!("journals-{}", std::process::id()))
}

fn journal_dir(ctx: &Ctx) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    journals_dir(&ctx.out_dir).join(n.to_string())
}

/// Deletes the journals this process's `room_board` rigs have written so
/// far, and waits until the file system has taken that in. Not rig by rig:
/// on a journaling file system (ext4 on a virtual disk mounted with
/// `discard`, here) a delete holds up the file creations and `fsync`s of the
/// next moments, and a rig's set-up creates a dozen files. With a delete
/// after each timed set-up, `setup_s` read 1.7 or 2.8 ms by how many of the
/// set-ups the one before had held up. On memory-backed storage every set-up
/// takes 1.45 ms.
pub fn remove_journals(out_dir: &std::path::Path) {
    if std::fs::remove_dir_all(journals_dir(out_dir)).is_ok() {
        if let Ok(dir) = std::fs::File::open(out_dir) {
            let _ = dir.sync_all();
        }
    }
}

impl BoardPhone {
    fn connect(
        index: usize,
        addr: SocketAddr,
        dir: &std::path::Path,
        rng: SimRng,
        ctx: &Ctx,
    ) -> BoardPhone {
        let name = format!("phone-{index}");
        let fw = Framework::new();
        let replica = RoomReplica::new(ROOM);
        replica.attach(fw.event_admin());
        let arrivals = Arc::new(Mutex::new(Vec::with_capacity(1 << 17)));
        let seen = Arc::clone(&arrivals);
        fw.event_admin()
            .subscribe(room_update_topic(ROOM), move |event| {
                let at_ns = now_ns();
                let Some(seq) = event.properties.get_i64("seq") else {
                    return;
                };
                let seq = seq as u64;
                seen.lock().push(match event.properties.get_str("kind") {
                    Some("snapshot") => Arrival::Snapshot { seq, at_ns },
                    _ => Arrival::Delta { seq, at_ns },
                });
            });
        let phone = connect_phone(
            &name,
            fw,
            addr,
            MULTI_CURSOR_INTERFACE,
            ctx,
            Some(JournalConfig::new(dir.join(&name))),
        );
        // The device rosters the endpoint just after the handshake; until
        // then `join` answers Busy.
        let join = [Value::from(ROOM), Value::from(name.as_str())];
        let joined = settles(|| {
            phone
                .conn
                .endpoint()
                .invoke(ROOMS_INTERFACE, "join", &join)
                .is_ok()
        });
        assert!(joined, "{name} never joined the room");
        phone
            .session
            .handle_event(&UiEvent::TextChanged {
                control: "member".into(),
                text: name.clone(),
            })
            .expect("set the member name");
        BoardPhone {
            name,
            phone,
            replica,
            arrivals,
            rng,
            cursor: None,
        }
    }

    fn taps(&mut self, ctx: &Ctx, timeline: Timeline) -> Vec<Tap> {
        sys::tighten_timer_slack();
        let events = pad_events();
        let schedule = Schedule::at_rate(timeline.start_ns, ROOM_RATE);
        let mut taps = Vec::with_capacity(1 << 16);
        for i in 0..timeline.max_ops {
            let due_ns = schedule.due_ns(i, self.rng.next_u64());
            if due_ns >= timeline.end_ns {
                break;
            }
            let pick = self.rng.next_below(PAD.len() as u64) as usize;
            sleep_until(due_ns);
            let started = now_ns();
            let span = ctx.obs.child_of(self.phone.trace, "bench.op");
            let result = self.phone.session.handle_event(&events[pick]);
            let ack_ns = now_ns() - due_ns;
            drop(span);
            let seq = invoked(&result, "move")
                .and_then(Value::as_i64)
                .map(|seq| seq as u64);
            if seq.is_some() {
                let (_, dx, dy) = PAD[pick];
                let (x, y) = self.cursor.unwrap_or((SCREEN.0 / 2, SCREEN.1 / 2));
                self.cursor = Some((
                    (x + dx).clamp(0, SCREEN.0 - 1),
                    (y + dy).clamp(0, SCREEN.1 - 1),
                ));
            }
            taps.push(Tap {
                due_ns,
                late_ns: lateness_ns(due_ns, started),
                ack_ns,
                seq,
            });
            // The phone applies the room updates that reached it to its UI.
            let _ = self.phone.session.pump_events();
        }
        taps
    }
}

/// One tap on the board, until the seq join turns it into an [`Op`].
struct Tap {
    due_ns: u64,
    late_ns: u64,
    ack_ns: u64,
    /// The seq the room gave the tap's delta; `None` when the tap failed.
    seq: Option<u64>,
}

impl Workload for RoomBoard {
    const LOOP: Loop = Loop::Open;
    /// 500 taps.
    const WINDOW: Duration = Duration::from_millis(250);
    type Rig = RoomBoardRig;

    fn setup(ctx: &Ctx) -> RoomBoardRig {
        let journal_dir = journal_dir(ctx);
        let device = device::board_device(ctx.obs.clone(), &journal_dir.join("device"));
        let mut seeds = SimRng::seed_from(ctx.seed);
        let phones = (0..BOARD_PHONES)
            .map(|i| BoardPhone::connect(i, device.addr, &journal_dir, seeds.split(), ctx))
            .collect();
        RoomBoardRig {
            device,
            phones,
            journal_dir,
            heartbeat_epoch: Instant::now(),
        }
    }

    fn generate(rig: &mut RoomBoardRig, ctx: &Ctx, timeline: Timeline) -> OpLog {
        let per_phone: Vec<Vec<Tap>> = std::thread::scope(|scope| {
            let generators: Vec<_> = rig
                .phones
                .iter_mut()
                .map(|phone| scope.spawn(move || phone.taps(ctx, timeline)))
                .collect();
            generators
                .into_iter()
                .map(|g| g.join().expect("board generator panicked"))
                .collect()
        });
        // Everything published has reached every member, or never will.
        let room = &rig.device.room;
        let replicas: Vec<&Arc<RoomReplica>> = rig
            .phones
            .iter()
            .map(|p| &p.replica)
            .chain(&rig.device.passive)
            .collect();
        settles(|| replicas.iter().all(|r| r.last_seq() == room.seq()));

        // Phone A's taps are timed to phone B's subscriber, and B's to A's.
        let mut ops = OpLog::new(&timeline, Self::LOOP);
        for (i, taps) in per_phone.iter().enumerate() {
            let published: Vec<(u64, u64)> = taps
                .iter()
                .filter_map(|t| Some((t.seq?, t.due_ns)))
                .collect();
            let seen = rig.phones[(i + 1) % BOARD_PHONES].arrivals.lock();
            let mut fanout = join_fanout(&published, &seen).into_iter();
            for t in taps {
                ops.push(Op {
                    t0_ns: t.due_ns,
                    late_ns: t.late_ns,
                    ack_ns: t.ack_ns,
                    op_ns: t.seq.and_then(|_| fanout.next().flatten()),
                });
            }
        }
        ops
    }

    fn finish(rig: RoomBoardRig, _ctx: &Ctx, ops: usize) -> Report {
        let mut report = Report::default();
        let room = &rig.device.room;
        let want = room.state_json();
        let replicas = rig
            .phones
            .iter()
            .map(|p| (p.name.clone(), &p.replica))
            .chain(
                rig.device
                    .passive
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (format!("passive-{i}"), r)),
            );
        for (name, replica) in replicas {
            report.check(replica.gaps() == 0, || {
                format!("{name} saw {} gaps in the room's seq", replica.gaps())
            });
            report.check(replica.state_json() == want, || {
                format!(
                    "{name}'s replica differs from the room at seq {}",
                    room.seq()
                )
            });
        }
        let (_, state) = room.snapshot();
        for p in &rig.phones {
            let at = state.get(&cursor_key(&p.name)).map(|v| {
                (
                    v.field("x").and_then(Value::as_i64),
                    v.field("y").and_then(Value::as_i64),
                )
            });
            let model = p.cursor.map(|(x, y)| (Some(x), Some(y)));
            report.check(at == model, || {
                format!("{}'s cursor is at {at:?}, the model says {model:?}", p.name)
            });
        }
        report.check(rig.device.journal.barrier().is_ok(), || {
            "the device journal's barrier failed".to_owned()
        });

        let mut traffic = Traffic::default();
        for p in &rig.phones {
            traffic.add(&p.phone.conn.endpoint().stats());
        }
        traffic.report(ops, &mut report.counters);
        queue_counters(rig.device.queue_stats(), &mut report.counters);
        let c = &mut report.counters;
        c.insert(
            "rosgi.endpoint.heartbeats_per_s",
            rig.device.heartbeats_sent() as f64 / rig.heartbeat_epoch.elapsed().as_secs_f64(),
        );
        let r = room.stats();
        c.insert(
            "alfredo.room.deliveries_per_delta",
            r.delivered as f64 / r.published.max(1) as f64,
        );
        c.insert(
            "alfredo.room.coalesced_share",
            r.coalesced_snapshots as f64 / r.delivered.max(1) as f64,
        );
        c.insert("alfredo.room.busy_kicks", r.busy_kicks as f64);
        let j = rig.device.journal.room_journal().stats();
        c.insert(
            "journal.appends_per_fsync",
            j.appends as f64 / j.fsyncs.max(1) as f64,
        );
        c.insert(
            "journal.bytes_per_append",
            j.bytes_written as f64 / j.committed.max(1) as f64,
        );
        c.insert("journal.dropped", j.dropped as f64);
        report.check(j.dropped == 0, || {
            format!("the room journal dropped {} records", j.dropped)
        });

        for p in &rig.phones {
            p.phone.session.close();
            p.phone.conn.close();
        }
        drop(rig.phones);
        let room = Arc::clone(room);
        rig.device.stop();
        // Read after the device stopped: the phones' departure is itself
        // sequenced (their seats are evicted), and journaled.
        let final_seq = room.seq();

        // Durability: a cold reopen of the journal directory must come back
        // to the room's final seq.
        let t = Instant::now();
        let reopened =
            DeviceJournal::open(DeviceJournalConfig::new(rig.journal_dir.join("device")));
        report
            .counters
            .insert("journal.recover_ms", t.elapsed().as_secs_f64() * 1e3);
        match reopened {
            Ok(journal) => {
                let recovered = journal.recovery().rooms.get(ROOM).map_or(0, |r| r.seq);
                report.check(recovered == final_seq, || {
                    format!("recovery reached seq {recovered}, the room ended at {final_seq}")
                });
                let _ = journal.close();
            }
            Err(e) => report.errors.push(format!("reopening the journal: {e}")),
        }
        report
    }
}
