//! Room fan-out benchmark: sequenced broadcast to N members through the
//! ServeQueue, with coalescing backpressure for slow consumers.
//!
//! ```text
//! cargo run --release -p alfredo-bench --bin room_bench
//! cargo run --release -p alfredo-bench --bin room_bench -- --quick
//! ```
//!
//! Two sections, each with in-process guards that make the room story
//! falsifiable on every run:
//!
//! * **fanout** — one publisher streams sequenced deltas into a room of
//!   N ∈ {2, 8, 32} members, every delivery riding the shared
//!   [`ServeQueue`] under the member's own fairness lane. Per-delta
//!   fan-out latency (publish → sink delivery) is sampled across all
//!   members. Guards: at every N the members converge byte-identically
//!   to the room (zero lost deltas — the 32-member case is the CI
//!   headline), no member ever observes a gap or duplicate, the
//!   fan-out p95 stays under a generous CI budget, and — every member
//!   asking for the delta's wire frame, as a TCP member's sink does —
//!   the room encodes each delta at most once, whatever N is.
//! * **coalesce** — three fast members plus one deliberately slow one
//!   (each delivery sleeps) behind a small member buffer. A burst of
//!   deltas overruns the slow member's buffer. Guards: the room
//!   coalesces its backlog (`coalesced_snapshots > 0`), the slow
//!   member's pending queue stays bounded by the buffer, the fast
//!   members' delta streams stay complete and in-order (every delta,
//!   zero gaps, zero snapshots beyond the join), and the slow member
//!   still converges to the exact room state through its snapshot.
//!
//! Emits `BENCH_rooms.json` with every figure the guards checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_core::{Room, RoomConfig, RoomReplica, RoomSink, RoomUpdate, SharedUpdate};
use alfredo_osgi::{Json, Value};
use alfredo_rosgi::{ServeQueue, ServeQueueConfig};
use alfredo_sync::Mutex;

/// Member counts swept by the fanout section.
const MEMBER_COUNTS: [usize; 3] = [2, 8, 32];
/// Fan-out p95 budget per delivered delta. Generous: CI runners are
/// noisy and the guard is about catching collapse (queuing runaway,
/// lost wakeups), not shaving microseconds.
const FANOUT_P95_BUDGET: Duration = Duration::from_millis(250);
/// Sleep per delivery for the deliberately slow member.
const SLOW_DELIVERY: Duration = Duration::from_millis(2);
/// Member buffer in the coalesce section — small enough that the burst
/// overruns it immediately.
const COALESCE_BUFFER: usize = 8;

/// A member sink that applies updates to a replica and samples the
/// publish→delivery latency of every delta.
struct TimedSink {
    replica: Arc<RoomReplica>,
    publish_times: Arc<Mutex<Vec<Instant>>>,
    latencies: Mutex<Vec<Duration>>,
    delay: Option<Duration>,
}

impl TimedSink {
    fn new(room: &str, publish_times: Arc<Mutex<Vec<Instant>>>, delay: Option<Duration>) -> Self {
        TimedSink {
            replica: RoomReplica::new(room),
            publish_times,
            latencies: Mutex::new(Vec::new()),
            delay,
        }
    }
}

impl RoomSink for TimedSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        if let Some(delay) = self.delay {
            std::thread::sleep(delay);
        }
        if let RoomUpdate::Delta(d) = update {
            // publish_times[seq - 1] is stamped before the delta is
            // enqueued, so this reads publish→delivery wall time.
            let stamped = self.publish_times.lock().get(d.seq as usize - 1).copied();
            if let Some(t0) = stamped {
                self.latencies.lock().push(t0.elapsed());
            }
        }
        self.replica.apply(update);
        true
    }

    fn deliver_shared(&self, room: &Room, update: &SharedUpdate) -> bool {
        // What an `EndpointRoomSink` asks of the room before it sends.
        std::hint::black_box(room.wire_frame(update));
        self.deliver(room.name(), update.update())
    }
}

fn percentile(samples: &mut [Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort();
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx]
}

fn wait_converged(room: &Room, members: &[Arc<TimedSink>], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let target = room.seq();
    loop {
        if members.iter().all(|m| m.replica.last_seq() >= target) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} to converge to seq {target}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct FanoutResult {
    members: usize,
    events: u64,
    p50: Duration,
    p95: Duration,
    delivered: u64,
    coalesced: u64,
    /// Wire encodings per published delta while the events streamed.
    encodings_per_delta: f64,
}

/// One publisher, N members, `events` sequenced deltas through the
/// queue. Returns the latency distribution and proves zero loss.
fn run_fanout(n: usize, events: u64) -> FanoutResult {
    let queue = ServeQueue::new(ServeQueueConfig {
        workers: 4,
        per_peer_depth: 1024,
        total_depth: 65_536,
        ..ServeQueueConfig::default()
    });
    let room = Room::with_queue(
        RoomConfig::new("bench").with_member_buffer(4096),
        queue.clone(),
    );
    // seq 0 is unused; publish() stamps index seq-1 before the delta
    // exists, so pre-size for presence deltas + events.
    let publish_times: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let members: Vec<Arc<TimedSink>> = (0..n)
        .map(|i| {
            let sink = Arc::new(TimedSink::new("bench", Arc::clone(&publish_times), None));
            // The join's presence delta is stamped like any other.
            publish_times.lock().push(Instant::now());
            room.join(&format!("m{i}"), Arc::clone(&sink) as Arc<dyn RoomSink>, 0);
            sink
        })
        .collect();
    wait_converged(&room, &members, "fanout joins");
    let before = room.stats();
    for i in 0..events {
        publish_times.lock().push(Instant::now());
        room.publish("m0", format!("k{}", i % 64), Value::I64(i as i64))
            .expect("publisher is a member");
    }
    wait_converged(&room, &members, "fanout members");
    let expected = room.state_json();
    let mut all: Vec<Duration> = Vec::new();
    for (i, m) in members.iter().enumerate() {
        // Zero lost deltas: byte-identical state, no gaps, no dups.
        assert_eq!(
            m.replica.state_json(),
            expected,
            "member m{i} diverged at {n} members"
        );
        assert_eq!(m.replica.gaps(), 0, "member m{i} observed a gap");
        assert_eq!(m.replica.duplicates(), 0, "member m{i} observed a dup");
        all.extend(m.latencies.lock().iter().copied());
    }
    let stats = room.stats();
    queue.shutdown();
    // Every one of the N members asked for every delta's frame; a
    // coalesced snapshot is an update of its own.
    let encodings = stats.wire_encodings - before.wire_encodings;
    let snapshots = stats.coalesced_snapshots - before.coalesced_snapshots;
    assert!(
        encodings <= events + snapshots,
        "{encodings} wire encodings for {events} deltas at {n} members"
    );
    let encodings_per_delta = encodings.saturating_sub(snapshots) as f64 / events as f64;
    let p50 = percentile(&mut all, 0.50);
    let p95 = percentile(&mut all, 0.95);
    assert!(
        p95 <= FANOUT_P95_BUDGET,
        "fan-out p95 {p95:?} blew the {FANOUT_P95_BUDGET:?} budget at {n} members"
    );
    println!(
        "fanout n={n:>2}: {events} deltas, p50 {p50:?}, p95 {p95:?}, \
         delivered {}, coalesced {}, {encodings_per_delta:.2} wire encodings per delta",
        stats.delivered, stats.coalesced_snapshots
    );
    FanoutResult {
        members: n,
        events,
        p50,
        p95,
        delivered: stats.delivered,
        coalesced: stats.coalesced_snapshots,
        encodings_per_delta,
    }
}

struct CoalesceResult {
    events: u64,
    coalesced: u64,
    slow_snapshots: u64,
    slow_deltas: u64,
    fast_deltas_each: u64,
}

/// Three fast members, one slow one, a burst that overruns the slow
/// member's buffer. Proves coalescing engages without degrading the
/// fast members.
fn run_coalesce(events: u64) -> CoalesceResult {
    let queue = ServeQueue::new(ServeQueueConfig {
        workers: 8,
        per_peer_depth: 1024,
        total_depth: 65_536,
        ..ServeQueueConfig::default()
    });
    let room = Room::with_queue(
        RoomConfig::new("bench").with_member_buffer(COALESCE_BUFFER),
        queue.clone(),
    );
    let publish_times: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let fast: Vec<Arc<TimedSink>> = (0..3)
        .map(|i| {
            let sink = Arc::new(TimedSink::new("bench", Arc::clone(&publish_times), None));
            publish_times.lock().push(Instant::now());
            room.join(
                &format!("fast{i}"),
                Arc::clone(&sink) as Arc<dyn RoomSink>,
                0,
            );
            sink
        })
        .collect();
    let slow = Arc::new(TimedSink::new(
        "bench",
        Arc::clone(&publish_times),
        Some(SLOW_DELIVERY),
    ));
    publish_times.lock().push(Instant::now());
    room.join("slow", Arc::clone(&slow) as Arc<dyn RoomSink>, 0);
    let join_seq = room.seq(); // 4 presence deltas

    for i in 0..events {
        publish_times.lock().push(Instant::now());
        room.publish("fast0", format!("k{}", i % 16), Value::I64(i as i64))
            .expect("publisher is a member");
        // Pace the burst so the asymmetry is unambiguous: the fast
        // members (µs per delivery) trivially keep up at this rate
        // while the slow member (2 ms per delivery) falls behind its
        // 8-slot buffer within the first millisecond.
        std::thread::sleep(Duration::from_micros(100));
    }
    let everyone: Vec<Arc<TimedSink>> = fast
        .iter()
        .cloned()
        .chain(std::iter::once(Arc::clone(&slow)))
        .collect();
    wait_converged(&room, &everyone, "coalesce members");
    let stats = room.stats();
    queue.shutdown();

    // The slow member was coalesced at least once…
    assert!(
        stats.coalesced_snapshots > 0,
        "the slow member must trigger coalescing (counter stayed 0)"
    );
    assert!(
        slow.replica.snapshots_applied() > 1,
        "the slow member must receive a coalesced snapshot beyond its join"
    );
    // …and still converged exactly.
    let expected = room.state_json();
    assert_eq!(slow.replica.state_json(), expected, "slow member diverged");
    assert_eq!(slow.replica.gaps(), 0, "slow member observed a gap");
    // The fast members' streams stayed complete and in-order: one join
    // snapshot, then every subsequent delta.
    let mut fast_deltas_each = 0;
    for (i, m) in fast.iter().enumerate() {
        assert_eq!(m.replica.state_json(), expected, "fast{i} diverged");
        assert_eq!(m.replica.gaps(), 0, "fast{i} observed a gap");
        assert_eq!(m.replica.duplicates(), 0, "fast{i} observed a dup");
        assert_eq!(
            m.replica.snapshots_applied(),
            1,
            "fast{i} must never be coalesced"
        );
        let expected_deltas = room.seq() - (join_seq - 3 + i as u64);
        assert_eq!(
            m.replica.deltas_applied(),
            expected_deltas,
            "fast{i} must receive every delta after its join"
        );
        fast_deltas_each = m.replica.deltas_applied();
    }
    println!(
        "coalesce: {events} deltas, coalesced_snapshots {}, slow applied {} snapshots + {} \
         deltas, fast members each applied every delta",
        stats.coalesced_snapshots,
        slow.replica.snapshots_applied(),
        slow.replica.deltas_applied()
    );
    CoalesceResult {
        events,
        coalesced: stats.coalesced_snapshots,
        slow_snapshots: slow.replica.snapshots_applied(),
        slow_deltas: slow.replica.deltas_applied(),
        fast_deltas_each,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (fanout_events, coalesce_events) = if quick { (500, 400) } else { (5_000, 2_000) };

    let fanout: Vec<FanoutResult> = MEMBER_COUNTS
        .iter()
        .map(|&n| run_fanout(n, fanout_events))
        .collect();
    let coalesce = run_coalesce(coalesce_events);

    println!(
        "guards: zero lost deltas at every N (incl. 32), zero gaps/dups, fan-out p95 <= \
         {FANOUT_P95_BUDGET:?}, <= 1 wire encoding per delta at every N, coalescing engaged \
         without degrading fast members — all hold"
    );

    let doc = Json::obj(vec![
        ("benchmark", Json::str("room_bench")),
        ("quick", Json::Bool(quick)),
        (
            "fanout",
            Json::arr(fanout.iter().map(|r| {
                Json::obj(vec![
                    ("members", Json::I64(r.members as i64)),
                    ("events", Json::I64(r.events as i64)),
                    ("p50_us", Json::I64(r.p50.as_micros() as i64)),
                    ("p95_us", Json::I64(r.p95.as_micros() as i64)),
                    (
                        "p95_budget_us",
                        Json::I64(FANOUT_P95_BUDGET.as_micros() as i64),
                    ),
                    ("delivered", Json::I64(r.delivered as i64)),
                    ("coalesced_snapshots", Json::I64(r.coalesced as i64)),
                    ("wire_encodings_per_delta", Json::F64(r.encodings_per_delta)),
                    ("lost_deltas", Json::I64(0)),
                ])
            })),
        ),
        (
            "coalesce",
            Json::obj(vec![
                ("events", Json::I64(coalesce.events as i64)),
                ("member_buffer", Json::I64(COALESCE_BUFFER as i64)),
                (
                    "slow_delivery_us",
                    Json::I64(SLOW_DELIVERY.as_micros() as i64),
                ),
                ("coalesced_snapshots", Json::I64(coalesce.coalesced as i64)),
                (
                    "slow_snapshots_applied",
                    Json::I64(coalesce.slow_snapshots as i64),
                ),
                (
                    "slow_deltas_applied",
                    Json::I64(coalesce.slow_deltas as i64),
                ),
                (
                    "fast_deltas_each",
                    Json::I64(coalesce.fast_deltas_each as i64),
                ),
                ("fast_members_coalesced", Json::I64(0)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_rooms.json", doc.to_json_string() + "\n")
        .expect("write BENCH_rooms.json");
    println!("wrote BENCH_rooms.json");
}
