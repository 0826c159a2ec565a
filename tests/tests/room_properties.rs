//! Room property battery: the sequenced-broadcast invariants under
//! concurrency and backpressure.
//!
//! * **Gap-free monotonic sequencing** — eight publisher threads blast a
//!   thousand events each into one room; every member must observe a
//!   strictly contiguous, per-room monotonic delta sequence (no gap, no
//!   duplicate, no reorder) and converge to the exact room state.
//! * **Snapshot equivalence** — a member that fell behind and received a
//!   coalesced snapshot at seq S plus the deltas beyond S must
//!   reconstruct *byte-identical* state (the canonical `state_json`
//!   encoding) to a member that received every delta.
//! * **Backpressure isolation** — one plugged member triggers coalescing
//!   without inflating its serve-queue lane (the drain is single-flight)
//!   and without costing any healthy member a single delta.
//! * **Room isolation** — two rooms sharing one serve queue keep
//!   independent sequence spaces and never leak updates across.
//! * **Encode once** — a delta sent to N endpoint members is encoded into
//!   a wire frame once, and every member is sent the bytes `send_event`
//!   would have encoded for it alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use alfredo_core::{
    room_update_topic, EndpointRoomSink, Room, RoomConfig, RoomDelta, RoomOp, RoomReplica,
    RoomSink, RoomUpdate,
};
use alfredo_net::{CloseReason, FrameSink, InMemoryNetwork, PeerAddr, Transport, TransportError};
use alfredo_osgi::{Framework, Value};
use alfredo_rosgi::{EndpointConfig, Message, RemoteEndpoint, ServeQueue, ServeQueueConfig};

const PUBLISHERS: usize = 8;
const EVENTS_PER_PUBLISHER: usize = 1_000;

fn queue(workers: usize) -> ServeQueue {
    ServeQueue::new(ServeQueueConfig {
        workers,
        per_peer_depth: 1024,
        total_depth: 65_536,
        ..ServeQueueConfig::default()
    })
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A sink that feeds a replica and records the raw update stream, so the
/// test can assert the *wire-order* contract (contiguous seqs), not just
/// the converged end state.
struct RecordingSink {
    replica: Arc<RoomReplica>,
    /// `(is_snapshot, seq)` per delivered update, in delivery order.
    stream: Mutex<Vec<(bool, u64)>>,
}

impl RecordingSink {
    fn new(room: &str) -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            replica: RoomReplica::new(room),
            stream: Mutex::new(Vec::new()),
        })
    }

    /// Asserts the recorded stream is one snapshot followed by strictly
    /// contiguous deltas — the "received every delta" witness.
    fn assert_contiguous(&self, who: &str) {
        let stream = self.stream.lock().unwrap();
        assert!(
            matches!(stream.first(), Some((true, _))),
            "{who}: the join snapshot arrives first"
        );
        let mut last = stream[0].1;
        for (is_snapshot, seq) in &stream[1..] {
            assert!(!is_snapshot, "{who}: healthy members are never coalesced");
            assert_eq!(
                *seq,
                last + 1,
                "{who}: delta stream must be gap-free and in order"
            );
            last = *seq;
        }
    }

    /// The contract of a member that may fall behind a room whose
    /// backlogs hold `buffer` updates: one snapshot first, every delta
    /// exactly one seq after what preceded it, and a later snapshot only
    /// where the member really was more than `buffer` updates behind (it
    /// stands for that many). Returns how many later snapshots there were.
    fn assert_coalesced_only_past(&self, who: &str, buffer: usize) -> u64 {
        let stream = self.stream.lock().unwrap();
        assert!(
            matches!(stream.first(), Some((true, _))),
            "{who}: the join snapshot arrives first"
        );
        let mut last = stream[0].1;
        let mut coalesced = 0;
        for (is_snapshot, seq) in &stream[1..] {
            if *is_snapshot {
                assert!(
                    *seq > last + buffer as u64,
                    "{who}: coalesced at seq {seq} only {} behind (buffer {buffer})",
                    seq - last
                );
                coalesced += 1;
            } else {
                assert_eq!(*seq, last + 1, "{who}: no delta skipped without a snapshot");
            }
            last = *seq;
        }
        coalesced
    }
}

impl RoomSink for RecordingSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        let entry = match update {
            RoomUpdate::Snapshot { seq, .. } => (true, *seq),
            RoomUpdate::Delta(d) => (false, d.seq),
        };
        self.stream.lock().unwrap().push(entry);
        self.replica.apply(update);
        true
    }
}

/// A sink that can be plugged: while plugged, `deliver` parks, wedging
/// the member's single-flight drain (and the queue worker running it).
struct PluggedSink {
    replica: Arc<RoomReplica>,
    plugged: AtomicBool,
    /// Seq of every snapshot the sink delivered, in delivery order.
    snapshot_seqs: Mutex<Vec<u64>>,
}

impl PluggedSink {
    fn new(room: &str) -> Arc<PluggedSink> {
        Arc::new(PluggedSink {
            replica: RoomReplica::new(room),
            plugged: AtomicBool::new(true),
            snapshot_seqs: Mutex::new(Vec::new()),
        })
    }

    fn unplug(&self) {
        self.plugged.store(false, Ordering::SeqCst);
    }
}

impl RoomSink for PluggedSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        while self.plugged.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let RoomUpdate::Snapshot { seq, .. } = update {
            self.snapshot_seqs.lock().unwrap().push(*seq);
        }
        self.replica.apply(update);
        true
    }
}

/// Eight concurrent publishers, three pure observers: every member's
/// stream is gap-free and monotonic, and everyone converges to the exact
/// same bytes. This is the paper-level claim that a shared session shows
/// every participant a single total order of updates.
#[test]
fn concurrent_publishers_yield_gap_free_monotonic_streams() {
    let q = queue(4);
    // A buffer deep enough that no member coalesces: this test is about
    // the ordering property, not backpressure.
    let room = Room::with_queue(
        RoomConfig::new("board").with_member_buffer(65_536),
        q.clone(),
    );
    let observers: Vec<Arc<RecordingSink>> = (0..3)
        .map(|i| {
            let sink = RecordingSink::new("board");
            room.join(
                &format!("observer{i}"),
                Arc::clone(&sink) as Arc<dyn RoomSink>,
                0,
            );
            sink
        })
        .collect();
    let publishers: Vec<Arc<RecordingSink>> = (0..PUBLISHERS)
        .map(|i| {
            let sink = RecordingSink::new("board");
            room.join(&format!("p{i}"), Arc::clone(&sink) as Arc<dyn RoomSink>, 0);
            sink
        })
        .collect();

    let start = Arc::new(Barrier::new(PUBLISHERS));
    let handles: Vec<_> = (0..PUBLISHERS)
        .map(|t| {
            let room = Arc::clone(&room);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..EVENTS_PER_PUBLISHER {
                    // Overlapping keys across threads: the total order is
                    // what makes the end state well-defined at all.
                    let key = format!("cell/{}", (t * 31 + i) % 97);
                    room.publish(&format!("p{t}"), key, Value::I64((t * 10_000 + i) as i64))
                        .expect("publisher is a member");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let members = PUBLISHERS + 3;
    let expected_seq = (members + PUBLISHERS * EVENTS_PER_PUBLISHER) as u64;
    assert_eq!(room.seq(), expected_seq, "one seq per presence + publish");
    let everyone = observers.iter().chain(publishers.iter());
    wait_until("all members to converge", || {
        everyone
            .clone()
            .all(|m| m.replica.last_seq() == expected_seq)
    });

    let expected = room.state_json();
    for (i, m) in everyone.enumerate() {
        m.assert_contiguous(&format!("member {i}"));
        assert_eq!(m.replica.gaps(), 0, "member {i} counted a gap");
        assert_eq!(m.replica.duplicates(), 0, "member {i} counted a duplicate");
        assert_eq!(
            m.replica.state_json(),
            expected,
            "member {i} must reconstruct the room byte for byte"
        );
    }
    let stats = room.stats();
    assert_eq!(
        stats.published,
        (PUBLISHERS * EVENTS_PER_PUBLISHER) as u64 + members as u64,
        "every publish (and presence delta) was sequenced exactly once"
    );
    assert_eq!(stats.coalesced_snapshots, 0, "nobody fell behind");
    q.shutdown();
}

/// One member is plugged mid-session: its backlog must coalesce into a
/// snapshot (bounded memory), its serve-queue lane must stay empty (the
/// drain is single-flight, so room fan-out can never flood the fairness
/// lane the member's own RPCs ride), and — the equivalence property —
/// after unplugging it must reconstruct byte-identical state from
/// "snapshot at S + deltas > S" while a healthy member assembles the
/// same bytes from the deltas (and is itself coalesced only where the
/// unpaced burst left it a whole buffer behind).
#[test]
fn coalesced_snapshot_plus_trailing_deltas_is_byte_identical_to_full_stream() {
    const BUFFER: usize = 8;
    const BURST: usize = 200;
    let q = queue(4);
    let room = Room::with_queue(
        RoomConfig::new("board").with_member_buffer(BUFFER),
        q.clone(),
    );
    let full = RecordingSink::new("board");
    room.join("full", Arc::clone(&full) as Arc<dyn RoomSink>, 0);
    let plugged = PluggedSink::new("board");
    let join_seq = room.join("plugged", Arc::clone(&plugged) as Arc<dyn RoomSink>, 0);

    for i in 0..BURST {
        room.publish("full", format!("k{}", i % 13), Value::I64(i as i64))
            .expect("publisher is a member");
    }
    wait_until("coalescing to engage", || {
        room.stats().coalesced_snapshots > 0
    });
    // The healthy member is not held back by the plugged one.
    wait_until("the healthy member to converge", || {
        full.replica.last_seq() == room.seq()
    });
    // Single-flight drain: the plugged member wedges one in-flight job;
    // nothing stacks up in its per-peer serve lane behind it.
    assert!(
        q.peer_depth("plugged") <= 1,
        "a slow member's fan-out must not flood its serve lane (depth {})",
        q.peer_depth("plugged")
    );

    plugged.unplug();
    wait_until("the plugged member to converge", || {
        plugged.replica.last_seq() == room.seq()
    });

    let expected = room.state_json();
    // The burst is unpaced — 200 publishes take less time than one worker
    // wake-up — so the healthy member may itself fall a buffer behind and
    // be coalesced (a_member_that_keeps_up_... below is the paced case).
    // What it is owed regardless: snapshots only where it was more than a
    // buffer behind, every other delta, in order, and the same bytes.
    let coalesced = full.assert_coalesced_only_past("full", BUFFER);
    assert_eq!(full.replica.snapshots_applied(), 1 + coalesced);
    assert_eq!(full.replica.gaps(), 0, "snapshots cover skipped deltas");
    assert_eq!(full.replica.duplicates(), 0);
    assert_eq!(
        full.replica.state_json(),
        expected,
        "the healthy member reconstructs the room byte for byte"
    );
    // The plugged member converged *through a coalesced snapshot*, not by
    // replaying the backlog: it saw a snapshot newer than its join and
    // far fewer deltas than were published while it was wedged. (The join
    // snapshot itself may have been coalesced away before delivery, so
    // the snapshot count can be 1 — the seq witness is what matters.)
    let snapshot_seqs = plugged.snapshot_seqs.lock().unwrap().clone();
    assert!(
        snapshot_seqs.iter().any(|&s| s > join_seq),
        "the plugged member must converge via a snapshot newer than its \
         join at seq {join_seq} (saw {snapshot_seqs:?})"
    );
    assert!(
        plugged.replica.deltas_applied() < BURST as u64 / 2,
        "the plugged member must skip most deltas ({} applied of {BURST})",
        plugged.replica.deltas_applied()
    );
    assert_eq!(plugged.replica.gaps(), 0, "snapshots cover skipped deltas");
    assert_eq!(
        plugged.replica.state_json(),
        expected,
        "snapshot at S + deltas > S must be byte-identical to the full stream"
    );
    let stats = room.stats();
    assert!(
        stats.coalesced_snapshots > 0,
        "coalescing engaged: {stats:?}"
    );
    q.shutdown();
}

/// The same room, published to no faster than the healthy member takes
/// the deltas: the plugged neighbour overflows all the same (it takes
/// nothing), and its coalescing costs the member that keeps up not one
/// delta and not one snapshot.
#[test]
fn a_member_that_keeps_up_is_never_coalesced_beside_a_plugged_one() {
    const BUFFER: usize = 8;
    const BURST: usize = 200;
    let q = queue(4);
    let room = Room::with_queue(
        RoomConfig::new("board").with_member_buffer(BUFFER),
        q.clone(),
    );
    let full = RecordingSink::new("board");
    room.join("full", Arc::clone(&full) as Arc<dyn RoomSink>, 0);
    let plugged = PluggedSink::new("board");
    room.join("plugged", Arc::clone(&plugged) as Arc<dyn RoomSink>, 0);

    for i in 0..BURST {
        let seq = room
            .publish("full", format!("k{}", i % 13), Value::I64(i as i64))
            .expect("publisher is a member");
        wait_until("the healthy member to take the delta", || {
            full.replica.last_seq() >= seq
        });
    }
    let coalesced = room.stats().coalesced_snapshots;
    assert!(
        coalesced >= (BURST / (BUFFER + 1)) as u64 - 1,
        "the plugged member overflowed again and again ({coalesced} snapshots)"
    );
    plugged.unplug();
    wait_until("the plugged member to converge", || {
        plugged.replica.last_seq() == room.seq()
    });

    let expected = room.state_json();
    full.assert_contiguous("full");
    assert_eq!(full.replica.snapshots_applied(), 1, "join snapshot only");
    assert_eq!(full.replica.state_json(), expected);
    assert_eq!(plugged.replica.gaps(), 0, "snapshots cover skipped deltas");
    assert_eq!(plugged.replica.state_json(), expected);
    q.shutdown();
}

/// Two rooms on one shared queue: independent seq spaces, no cross-talk.
#[test]
fn rooms_sharing_a_queue_keep_independent_sequences() {
    let q = queue(2);
    let red = Room::with_queue(RoomConfig::new("red"), q.clone());
    let blue = Room::with_queue(RoomConfig::new("blue"), q.clone());
    let in_red = RecordingSink::new("red");
    let in_blue = RecordingSink::new("blue");
    red.join("m", Arc::clone(&in_red) as Arc<dyn RoomSink>, 0);
    blue.join("m", Arc::clone(&in_blue) as Arc<dyn RoomSink>, 0);

    for i in 0..50 {
        red.publish("m", "k", Value::I64(i)).unwrap();
        if i % 2 == 0 {
            blue.publish("m", "k", Value::I64(-i)).unwrap();
        }
    }
    assert_eq!(red.seq(), 51, "red: presence + 50 deltas");
    assert_eq!(blue.seq(), 26, "blue: presence + 25 deltas");
    wait_until("both replicas to converge", || {
        in_red.replica.last_seq() == 51 && in_blue.replica.last_seq() == 26
    });
    in_red.assert_contiguous("red member");
    in_blue.assert_contiguous("blue member");
    assert_eq!(in_red.replica.state_json(), red.state_json());
    assert_eq!(in_blue.replica.state_json(), blue.state_json());
    q.shutdown();
}

/// A device-side wire that keeps a copy of every frame it is asked to
/// send.
struct TappedWire<T: Transport> {
    wire: T,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> Transport for TappedWire<T> {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.sent.lock().unwrap().push(frame.clone());
        self.wire.send(frame)
    }
    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.wire.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.wire.recv_timeout(timeout)
    }
    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.wire.try_recv()
    }
    fn close(&self) {
        self.wire.close();
    }
    fn is_closed(&self) -> bool {
        self.wire.is_closed()
    }
    fn close_reason(&self) -> CloseReason {
        self.wire.close_reason()
    }
    fn peer_addr(&self) -> &PeerAddr {
        self.wire.peer_addr()
    }
    fn local_addr(&self) -> &PeerAddr {
        self.wire.local_addr()
    }
    fn set_sink(&self, sink: Box<dyn FrameSink>) {
        self.wire.set_sink(sink);
    }
}

/// N phones on in-memory endpoints, M deltas: the room encodes exactly M
/// frames for them (not N x M), each phone's wire carries exactly the
/// bytes `RemoteEndpoint::send_event` produces for the same update, and
/// every phone's replica converges on the room.
#[test]
fn a_delta_is_encoded_once_for_all_endpoint_members() {
    const PHONES: usize = 5;
    const DELTAS: u64 = 40;
    let net = InMemoryNetwork::new();
    let listener = net.bind(PeerAddr::new("device")).unwrap();
    let q = queue(2);
    let room = Room::with_queue(RoomConfig::new("board"), q.clone());
    let device_fw = Framework::new();

    struct Phone {
        endpoint: RemoteEndpoint,
        replica: Arc<RoomReplica>,
        sent_to_it: Arc<Mutex<Vec<Vec<u8>>>>,
    }
    let mut device_ends = Vec::new();
    let phones: Vec<Phone> = (0..PHONES)
        .map(|i| {
            let name = format!("phone{i}");
            let fw = Framework::new();
            let replica = RoomReplica::new("board");
            replica.attach(fw.event_admin());
            let wire = net
                .connect(PeerAddr::new(name.as_str()), PeerAddr::new("device"))
                .unwrap();
            let sent_to_it = Arc::new(Mutex::new(Vec::new()));
            let tapped = TappedWire {
                wire: listener.accept().unwrap(),
                sent: Arc::clone(&sent_to_it),
            };
            let device_fw = device_fw.clone();
            let accept = std::thread::spawn(move || {
                RemoteEndpoint::establish(Box::new(tapped), device_fw, EndpointConfig::default())
                    .expect("device handshake")
            });
            let endpoint =
                RemoteEndpoint::establish(Box::new(wire), fw, EndpointConfig::named(name.as_str()))
                    .expect("phone handshake");
            let device_end = Arc::new(accept.join().unwrap());
            room.join(
                &name,
                Arc::new(EndpointRoomSink(Arc::clone(&device_end))),
                0,
            );
            device_ends.push(device_end);
            Phone {
                endpoint,
                replica,
                sent_to_it,
            }
        })
        .collect();
    wait_until("the joins to reach every phone", || {
        phones.iter().all(|p| p.replica.last_seq() == room.seq())
    });

    let encodings_before = room.stats().wire_encodings;
    let frames_before: Vec<usize> = phones
        .iter()
        .map(|p| p.sent_to_it.lock().unwrap().len())
        .collect();
    let mut expected_frames = Vec::new();
    for i in 0..DELTAS {
        let key = format!("cursor/{}", i % 3);
        let value = Value::structure("room.Cursor", [("x", Value::I64(i as i64))]);
        let seq = room.publish("phone0", key.clone(), value.clone()).unwrap();
        // What `send_event` encodes for this update: the message, whole.
        expected_frames.push(
            Message::RemoteEvent {
                topic: room_update_topic("board"),
                properties: RoomUpdate::Delta(RoomDelta {
                    seq,
                    member: "phone0".into(),
                    key,
                    op: RoomOp::Put(value),
                })
                .to_properties(),
            }
            .encode(),
        );
    }
    wait_until("the deltas to reach every phone", || {
        phones.iter().all(|p| p.replica.last_seq() == room.seq())
    });

    let stats = room.stats();
    assert_eq!(
        stats.wire_encodings - encodings_before,
        DELTAS,
        "one encoding per delta, whatever the number of members"
    );
    assert_eq!(stats.coalesced_snapshots, 0);
    let expected = room.state_json();
    for (i, (p, before)) in phones.iter().zip(frames_before).enumerate() {
        let sent = p.sent_to_it.lock().unwrap();
        assert_eq!(
            sent[before..],
            expected_frames[..],
            "phone{i} was sent other bytes than send_event encodes"
        );
        assert_eq!(p.replica.state_json(), expected, "phone{i} diverged");
        assert_eq!(p.replica.gaps(), 0);
        assert_eq!(p.replica.duplicates(), 0);
    }
    let device_sent: u64 = device_ends.iter().map(|ep| ep.stats().frames_sent).sum();
    let tapped: usize = phones
        .iter()
        .map(|p| p.sent_to_it.lock().unwrap().len())
        .sum();
    assert_eq!(
        device_sent, tapped as u64,
        "cached frames are counted as sent"
    );
    for p in &phones {
        p.endpoint.close();
    }
    q.shutdown();
}
