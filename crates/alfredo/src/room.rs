//! Rooms: shared multi-user sessions with sequenced broadcast fan-out.
//!
//! The paper's interaction model is strictly 1 phone ↔ 1 device; a
//! [`Room`] is the production generalization — N phones collaboratively
//! driving one app instance (a shared whiteboard, a shared shop cart, a
//! lecture-hall screen). The room layer composes machinery this codebase
//! already has instead of inventing new transport:
//!
//! * **Membership + presence.** Members join with a lease; leases are
//!   renewed while the member's heartbeat health machine reports
//!   `Healthy` and expire (TTL eviction) when it stops — the same
//!   mechanism that purges stale service leases. Presence is *state*:
//!   joining writes a `presence/<member>` key through the sequenced log,
//!   so every replica converges on the member list the same way it
//!   converges on application state.
//! * **A gap-free sequenced event log.** Every mutation is a
//!   [`RoomDelta`] carrying a per-room monotonic `seq` assigned under the
//!   room lock. Deltas are journaled through the PR 6 device journal
//!   (stream `"room"`) *inside* the same critical section, so journal
//!   order equals seq order and a crashed device recovers the log exactly
//!   (see [`crate::DeviceJournal::register_room`]).
//! * **Backpressured broadcast.** A member whose sink can take an update
//!   without blocking ([`RoomSink::try_deliver_shared`]: a TCP phone
//!   whose outbox has room) is delivered on the publisher's own thread,
//!   the other members first and the publisher's echo last. The rest
//!   ride the existing [`ServeQueue`]: each member has one single-flight
//!   drain job, submitted under the member's peer name so room traffic
//!   shares the member's fairness lane with its RPCs. A publish costs one
//!   of each thing however many members listen: one [`SharedUpdate`] that
//!   every backlog holds by `Arc`, one [`ServeQueue::submit_batch`]
//!   transaction for all queued drain jobs, and one wire encoding that
//!   every TCP member's [`EndpointRoomSink`] sends a copy of. A slow or
//!   `Busy` member's backlog is **coalesced** into one state-at-seq
//!   [`RoomUpdate::Snapshot`] instead of growing without bound, while
//!   healthy members receive every delta in order. A member that applied
//!   a snapshot at seq `S` plus the deltas `> S` reconstructs
//!   byte-identical state to a member that saw every delta — the
//!   invariant the room test battery proves.
//!
//! Phone side, a [`RoomReplica`] subscribes to the room's update topic on
//! the local EventAdmin (R-OSGi forwards the device's per-member
//! [`RemoteEndpoint::send_event`] fan-out) and maintains the converged
//! state plus gap/duplicate accounting.
//!
//! # Example (in-process)
//!
//! ```
//! use std::sync::Arc;
//! use alfredo_core::room::{ReplicaSink, Room, RoomConfig, RoomReplica};
//! use alfredo_osgi::Value;
//!
//! let room = Room::new(RoomConfig::new("whiteboard"));
//! let alice = RoomReplica::new("whiteboard");
//! let bob = RoomReplica::new("whiteboard");
//! room.join("alice", Arc::new(ReplicaSink(Arc::clone(&alice))), 0);
//! room.join("bob", Arc::new(ReplicaSink(Arc::clone(&bob))), 0);
//! room.publish("alice", "stroke/1", Value::from("M 0 0 L 9 9")).unwrap();
//! assert_eq!(alice.state_json(), bob.state_json());
//! assert_eq!(alice.members(), vec!["alice".to_string(), "bob".to_string()]);
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use alfredo_net::{ByteWriter, Reactor, TimerKey};
use alfredo_osgi::events::SubscriptionId;
use alfredo_osgi::{
    EventAdmin, Json, MethodSpec, ParamSpec, Properties, Service, ServiceCallError,
    ServiceInterfaceDesc, ToJson, TypeHint, Value,
};
use alfredo_rosgi::{HealthState, Message, RemoteEndpoint, ServeJob, ServeQueue};
use alfredo_sync::Mutex;

use alfredo_journal::Journal;

/// Key prefix under which member presence lives in room state.
pub const PRESENCE_PREFIX: &str = "presence/";

/// The room hub's service interface name (what phones lease and invoke).
pub const ROOMS_INTERFACE: &str = "alfredo.Rooms";

/// The EventAdmin topic carrying a room's updates: `room/<name>/update`.
pub fn room_update_topic(room: &str) -> String {
    format!("room/{room}/update")
}

/// The presence key a member occupies while joined.
pub fn presence_key(member: &str) -> String {
    format!("{PRESENCE_PREFIX}{member}")
}

/// Milliseconds since a process-global monotonic anchor — the room
/// layer's lease clock (tests pass explicit values instead).
pub fn room_clock_ms() -> u64 {
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// What a delta does to its key.
#[derive(Debug, Clone, PartialEq)]
pub enum RoomOp {
    /// Write the value.
    Put(Value),
    /// Remove the key (tombstone).
    Remove,
}

/// One sequenced room mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomDelta {
    /// The room's monotonic sequence number (gap-free per room).
    pub seq: u64,
    /// The member that published it.
    pub member: String,
    /// The state key it mutates.
    pub key: String,
    /// The mutation.
    pub op: RoomOp,
}

/// What the fan-out delivers to a member: an in-order delta, or — when
/// the member fell behind — one coalesced snapshot of the whole room
/// state at a sequence number.
#[derive(Debug, Clone, PartialEq)]
pub enum RoomUpdate {
    /// One sequenced mutation.
    Delta(RoomDelta),
    /// Full state at `seq`; deltas `> seq` follow in order.
    Snapshot {
        /// The log position the state reflects.
        seq: u64,
        /// The complete room state at `seq`.
        state: BTreeMap<String, Value>,
    },
}

impl RoomUpdate {
    /// Encodes the update as event properties for the wire
    /// (`room/<name>/update` topic).
    pub fn to_properties(&self) -> Properties {
        match self {
            RoomUpdate::Delta(d) => {
                let mut props = Properties::new()
                    .with("kind", "delta")
                    .with("seq", d.seq as i64)
                    .with("member", d.member.as_str())
                    .with("key", d.key.as_str());
                match &d.op {
                    RoomOp::Put(v) => {
                        props.insert("value", v.clone());
                    }
                    RoomOp::Remove => {
                        props.insert("removed", true);
                    }
                }
                props
            }
            RoomUpdate::Snapshot { seq, state } => Properties::new()
                .with("kind", "snapshot")
                .with("seq", *seq as i64)
                .with("state", Value::Map(state.clone())),
        }
    }

    /// Decodes an update from event properties; `None` if malformed.
    pub fn from_properties(props: &Properties) -> Option<RoomUpdate> {
        let seq = props.get_i64("seq")? as u64;
        match props.get_str("kind")? {
            "delta" => {
                let member = props.get_str("member")?.to_owned();
                let key = props.get_str("key")?.to_owned();
                let op = if props.get_bool("removed").unwrap_or(false) {
                    RoomOp::Remove
                } else {
                    RoomOp::Put(props.get("value")?.clone())
                };
                Some(RoomUpdate::Delta(RoomDelta {
                    seq,
                    member,
                    key,
                    op,
                }))
            }
            "snapshot" => match props.get("state")? {
                Value::Map(state) => Some(RoomUpdate::Snapshot {
                    seq,
                    state: state.clone(),
                }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Canonical JSON rendering of a room state at a seq — the byte-identity
/// witness the property battery compares across members.
pub fn state_json(seq: u64, state: &BTreeMap<String, Value>) -> String {
    let mut out = String::with_capacity(32 + state.len() * 32);
    let _ = write!(out, "{{\"seq\":{seq},\"state\":{{");
    for (i, (key, value)) in state.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        Json::write_str_to(key, &mut out);
        out.push(':');
        value.to_json().write_to(&mut out);
    }
    out.push_str("}}");
    out
}

/// One update as the fan-out holds it: built once per publish (or per
/// coalesced snapshot) and shared by `Arc` between the backlogs of every
/// member it is owed to, together with its wire encoding once some
/// member needed one (see [`Room::wire_frame`]).
pub struct SharedUpdate {
    update: RoomUpdate,
    frame: OnceLock<Vec<u8>>,
}

impl SharedUpdate {
    fn new(update: RoomUpdate) -> Arc<SharedUpdate> {
        Arc::new(SharedUpdate {
            update,
            frame: OnceLock::new(),
        })
    }

    fn snapshot(seq: u64, state: &BTreeMap<String, Value>) -> Arc<SharedUpdate> {
        SharedUpdate::new(RoomUpdate::Snapshot {
            seq,
            state: state.clone(),
        })
    }

    /// The update itself.
    pub fn update(&self) -> &RoomUpdate {
        &self.update
    }
}

impl fmt::Debug for SharedUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedUpdate")
            .field("update", &self.update)
            .field("encoded", &self.frame.get().is_some())
            .finish()
    }
}

/// Delivers room updates to one member. Return `false` when the sink's
/// wire is gone — the room then drops the sink and holds the membership
/// open (lease-bounded) for a rejoin.
pub trait RoomSink: Send + Sync {
    /// Delivers one update for `room`.
    fn deliver(&self, room: &str, update: &RoomUpdate) -> bool;

    /// Delivers one update as `room`'s fan-out shares it between members
    /// — what a drain calls. The default forwards to [`RoomSink::deliver`];
    /// a sink that puts updates on a wire overrides it to send
    /// [`Room::wire_frame`], which is encoded once for all such sinks.
    fn deliver_shared(&self, room: &Room, update: &SharedUpdate) -> bool {
        self.deliver(room.name(), update.update())
    }

    /// Delivers one update as [`RoomSink::deliver_shared`] does, but only
    /// if that cannot block: `Some(true)` delivered, `Some(false)` the
    /// wire is gone, `None` not delivered because it would have to wait —
    /// or the sink cannot promise it would not. A queued room's publisher
    /// calls this on its own thread before it hands the member to the
    /// [`ServeQueue`]; the default `None` means "queue me".
    fn try_deliver_shared(&self, _room: &Room, _update: &SharedUpdate) -> Option<bool> {
        None
    }
}

/// A [`RoomSink`] that applies updates straight into a [`RoomReplica`] —
/// the in-process path used by tests, benches, and co-located members.
pub struct ReplicaSink(pub Arc<RoomReplica>);

impl RoomSink for ReplicaSink {
    fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
        self.0.apply(update);
        true
    }
}

/// A [`RoomSink`] that forwards updates to a connected phone as R-OSGi
/// remote events on the room's update topic. The phone's
/// [`RoomReplica::attach`] subscription receives them.
pub struct EndpointRoomSink(pub Arc<RemoteEndpoint>);

impl RoomSink for EndpointRoomSink {
    fn deliver(&self, room: &str, update: &RoomUpdate) -> bool {
        self.0
            .send_event(&room_update_topic(room), update.to_properties())
            .is_ok()
    }

    fn deliver_shared(&self, room: &Room, update: &SharedUpdate) -> bool {
        self.0.send_event_frame(room.wire_frame(update)).is_ok()
    }

    /// The cached frame, if the wire takes it without blocking
    /// ([`RemoteEndpoint::try_send_event_frame`]).
    fn try_deliver_shared(&self, room: &Room, update: &SharedUpdate) -> Option<bool> {
        match self.0.try_send_event_frame(room.wire_frame(update)) {
            Ok(true) => Some(true),
            Ok(false) => None,
            Err(_) => Some(false),
        }
    }
}

/// Room errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoomError {
    /// The acting member has not joined (or was evicted).
    NotAMember(String),
}

impl fmt::Display for RoomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoomError::NotAMember(m) => write!(f, "{m:?} is not a room member"),
        }
    }
}

impl std::error::Error for RoomError {}

impl From<RoomError> for ServiceCallError {
    fn from(e: RoomError) -> Self {
        ServiceCallError::Failed(e.to_string())
    }
}

/// Sizing and lease knobs for a [`Room`].
#[derive(Debug, Clone)]
pub struct RoomConfig {
    /// The room's name (also its topic segment).
    pub name: String,
    /// Membership lease TTL in milliseconds; a member not renewed for
    /// this long is evicted by [`Room::tick`].
    pub lease_ttl_ms: u64,
    /// Pending updates buffered per member before the backlog is
    /// coalesced into one snapshot.
    pub member_buffer: usize,
}

impl RoomConfig {
    /// Defaults: 30 s lease TTL, 64-update member buffer.
    pub fn new(name: impl Into<String>) -> Self {
        RoomConfig {
            name: name.into(),
            lease_ttl_ms: 30_000,
            member_buffer: 64,
        }
    }

    /// Builder-style: overrides the lease TTL.
    pub fn with_lease_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.lease_ttl_ms = ttl_ms;
        self
    }

    /// Builder-style: overrides the per-member buffer.
    pub fn with_member_buffer(mut self, updates: usize) -> Self {
        self.member_buffer = updates.max(1);
        self
    }
}

/// The durability hook a journaled room carries (see
/// [`crate::DeviceJournal::register_room`]).
pub(crate) struct RoomJournalHook {
    pub(crate) journal: Journal,
    /// Invoked after each journaled delta, outside the room lock.
    pub(crate) on_mutation: Arc<dyn Fn() + Send + Sync>,
}

struct MemberState {
    /// `None` while the membership is recovered-from-journal or the sink
    /// failed — the lease holds the seat open for a rejoin.
    sink: Option<Arc<dyn RoomSink>>,
    lease_deadline_ms: u64,
    pending: VecDeque<Arc<SharedUpdate>>,
    /// A drain job is queued or running; at most one per member, which is
    /// what keeps per-member delivery in order.
    in_flight: bool,
    /// The last drain submission was rejected (`Busy`); retry on the next
    /// publish or tick.
    kick_failed: bool,
}

impl MemberState {
    /// Replaces the backlog with the state-at-`seq` snapshot. `shared` is
    /// built by the first member coalesced in one pass and reused by the
    /// rest, so a pass that coalesces nobody never copies the state.
    fn coalesce(
        &mut self,
        shared: &mut Option<Arc<SharedUpdate>>,
        seq: u64,
        state: &BTreeMap<String, Value>,
    ) {
        let snapshot = shared.get_or_insert_with(|| SharedUpdate::snapshot(seq, state));
        self.pending.clear();
        self.pending.push_back(Arc::clone(snapshot));
    }

    /// A seat without a sink, leased until `lease_deadline_ms`.
    fn seat(lease_deadline_ms: u64) -> MemberState {
        MemberState {
            sink: None,
            lease_deadline_ms,
            pending: VecDeque::new(),
            in_flight: false,
            kick_failed: false,
        }
    }
}

struct RoomInner {
    state: BTreeMap<String, Value>,
    seq: u64,
    /// Keyed by `Arc<str>`: a kick hands the same allocation to the drain
    /// job and to the serve queue's lane.
    members: HashMap<Arc<str>, MemberState>,
}

/// Counter snapshot of a room's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoomStats {
    /// Deltas applied to the log (including presence changes).
    pub published: u64,
    /// Updates (deltas and snapshots) delivered through sinks.
    pub delivered: u64,
    /// Member backlogs coalesced into a snapshot because the member fell
    /// behind or its serve lane was `Busy`.
    pub coalesced_snapshots: u64,
    /// Members evicted on lease expiry.
    pub evicted: u64,
    /// Successful joins (including rejoins).
    pub joins: u64,
    /// Voluntary leaves.
    pub leaves: u64,
    /// Deliveries that failed (dead sink dropped).
    pub sink_failures: u64,
    /// Drain submissions the [`ServeQueue`] rejected with `Busy`.
    pub busy_kicks: u64,
    /// Updates encoded into a wire frame ([`Room::wire_frame`]): at most
    /// one per update, however many members were sent it.
    pub wire_encodings: u64,
}

/// A device-hosted shared session: sequenced state, leased membership,
/// and backpressured broadcast. See the module docs for the model.
pub struct Room {
    name: String,
    /// [`room_update_topic`] of `name`, formatted once.
    topic: String,
    config: RoomConfig,
    inner: Mutex<RoomInner>,
    queue: Option<ServeQueue>,
    journal: Option<RoomJournalHook>,
    published: AtomicU64,
    delivered: AtomicU64,
    coalesced_snapshots: AtomicU64,
    evicted: AtomicU64,
    joins: AtomicU64,
    leaves: AtomicU64,
    sink_failures: AtomicU64,
    busy_kicks: AtomicU64,
    wire_encodings: AtomicU64,
    /// `room.delivered_inline` on [`alfredo_obs::global_metrics`]: updates
    /// a queued room's publisher delivered on its own thread.
    delivered_inline: alfredo_obs::Counter,
}

impl Room {
    /// Creates an empty room delivering updates inline (no queue).
    pub fn new(config: RoomConfig) -> Arc<Room> {
        Room::build(config, None, None, BTreeMap::new(), 0, &[], 0)
    }

    /// Creates an empty room whose fan-out drains ride `queue` (one
    /// single-flight job per member, submitted under the member's peer
    /// name for fairness).
    pub fn with_queue(config: RoomConfig, queue: ServeQueue) -> Arc<Room> {
        Room::build(config, Some(queue), None, BTreeMap::new(), 0, &[], 0)
    }

    pub(crate) fn build(
        config: RoomConfig,
        queue: Option<ServeQueue>,
        journal: Option<RoomJournalHook>,
        state: BTreeMap<String, Value>,
        seq: u64,
        recovered_members: &[String],
        now_ms: u64,
    ) -> Arc<Room> {
        let mut members = HashMap::new();
        for member in recovered_members {
            // Re-armed seat: no sink until the phone rejoins; the fresh
            // lease gives it a full TTL to do so before eviction.
            members.insert(
                Arc::from(member.as_str()),
                MemberState::seat(now_ms + config.lease_ttl_ms),
            );
        }
        Arc::new(Room {
            topic: room_update_topic(&config.name),
            name: config.name.clone(),
            config,
            inner: Mutex::new(RoomInner {
                state,
                seq,
                members,
            }),
            queue,
            journal,
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            coalesced_snapshots: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            leaves: AtomicU64::new(0),
            sink_failures: AtomicU64::new(0),
            busy_kicks: AtomicU64::new(0),
            wire_encodings: AtomicU64::new(0),
            delivered_inline: alfredo_obs::global_metrics().counter("room.delivered_inline"),
        })
    }

    /// The room's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The room's configuration.
    pub fn config(&self) -> &RoomConfig {
        &self.config
    }

    /// The current log position.
    pub fn seq(&self) -> u64 {
        self.inner.lock().seq
    }

    /// The current state with its log position.
    pub fn snapshot(&self) -> (u64, BTreeMap<String, Value>) {
        let inner = self.inner.lock();
        (inner.seq, inner.state.clone())
    }

    /// Canonical JSON of the current state (see [`state_json`]).
    pub fn state_json(&self) -> String {
        let inner = self.inner.lock();
        state_json(inner.seq, &inner.state)
    }

    /// Current member names, sorted.
    pub fn members(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner.members.keys().map(|m| m.to_string()).collect();
        names.sort();
        names
    }

    /// Whether `member` currently holds a seat (including a recovered
    /// seat awaiting rejoin).
    pub fn is_member(&self, member: &str) -> bool {
        self.inner.lock().members.contains_key(member)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RoomStats {
        RoomStats {
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            coalesced_snapshots: self.coalesced_snapshots.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            joins: self.joins.load(Ordering::Relaxed),
            leaves: self.leaves.load(Ordering::Relaxed),
            sink_failures: self.sink_failures.load(Ordering::Relaxed),
            busy_kicks: self.busy_kicks.load(Ordering::Relaxed),
            wire_encodings: self.wire_encodings.load(Ordering::Relaxed),
        }
    }

    /// `update` as the `RemoteEvent` frame on this room's update topic —
    /// byte for byte what [`RemoteEndpoint::send_event`] would encode
    /// from [`RoomUpdate::to_properties`]. Encoded by the first caller
    /// and cached in the update, so the encode work of a delta does not
    /// grow with the number of TCP members.
    pub fn wire_frame<'u>(&self, update: &'u SharedUpdate) -> &'u [u8] {
        update.frame.get_or_init(|| {
            self.wire_encodings.fetch_add(1, Ordering::Relaxed);
            let mut w = ByteWriter::new();
            Message::encode_remote_event(&mut w, &self.topic, &update.update.to_properties());
            w.into_bytes()
        })
    }

    /// Joins (or rejoins) the room. A first join appends a
    /// `presence/<member>` delta to the log; every join hands the new
    /// sink an initial [`RoomUpdate::Snapshot`] at the current seq, so a
    /// rejoining member converges from the snapshot plus subsequent
    /// deltas. Returns the log position the member's snapshot reflects.
    pub fn join(self: &Arc<Self>, member: &str, sink: Arc<dyn RoomSink>, now_ms: u64) -> u64 {
        let mut kicks = Vec::new();
        let mut first_join = false;
        let seq = {
            let mut inner = self.inner.lock();
            let lease = now_ms + self.config.lease_ttl_ms;
            let name = match inner.members.get_key_value(member) {
                Some((name, _)) => Arc::clone(name),
                None => {
                    first_join = true;
                    // Presence is sequenced state: existing members observe
                    // the join as an ordinary delta.
                    self.apply_delta_locked(
                        &mut inner,
                        member,
                        &presence_key(member),
                        RoomOp::Put(Value::Bool(true)),
                        &mut kicks,
                    );
                    let name: Arc<str> = Arc::from(member);
                    inner
                        .members
                        .insert(Arc::clone(&name), MemberState::seat(lease));
                    name
                }
            };
            let snapshot = SharedUpdate::snapshot(inner.seq, &inner.state);
            let m = inner.members.get_mut(&name).expect("seated above");
            // A rejoin replaces the sink and drops any stale backlog; either
            // way the member starts from a fresh snapshot.
            m.sink = Some(sink);
            m.lease_deadline_ms = lease;
            m.pending.clear();
            m.pending.push_back(snapshot);
            if !m.in_flight {
                m.in_flight = true;
                kicks.push(name);
            }
            inner.seq
        };
        if first_join {
            self.notify_mutation();
        }
        self.joins.fetch_add(1, Ordering::Relaxed);
        self.kick(kicks, Some(member));
        seq
    }

    /// Leaves the room: removes the seat and appends a presence-removal
    /// delta. Returns the delta's seq, or `None` if not a member.
    pub fn leave(self: &Arc<Self>, member: &str) -> Option<u64> {
        let seq = self.remove_member(member)?;
        self.leaves.fetch_add(1, Ordering::Relaxed);
        Some(seq)
    }

    /// Renews `member`'s lease. Returns `false` for non-members.
    pub fn renew(&self, member: &str, now_ms: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.members.get_mut(member) {
            Some(m) => {
                m.lease_deadline_ms = now_ms + self.config.lease_ttl_ms;
                true
            }
            None => false,
        }
    }

    /// Evicts members whose lease expired before `now_ms` and retries
    /// any drain submissions the queue rejected earlier. Returns how
    /// many members were evicted.
    pub fn tick(self: &Arc<Self>, now_ms: u64) -> usize {
        let expired: Vec<Arc<str>> = {
            let inner = self.inner.lock();
            inner
                .members
                .iter()
                .filter(|(_, m)| m.lease_deadline_ms < now_ms)
                .map(|(name, _)| Arc::clone(name))
                .collect()
        };
        for member in &expired {
            if self.remove_member(member).is_some() {
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Re-kick members whose last drain submission bounced off a full
        // serve lane.
        let retries: Vec<Arc<str>> = {
            let mut inner = self.inner.lock();
            let mut retries = Vec::new();
            for (name, m) in inner.members.iter_mut() {
                if m.kick_failed && !m.in_flight && !m.pending.is_empty() {
                    m.kick_failed = false;
                    m.in_flight = true;
                    retries.push(Arc::clone(name));
                }
            }
            retries
        };
        self.kick(retries, None);
        expired.len()
    }

    /// Publishes a key write from `member`; returns the delta's seq.
    ///
    /// # Errors
    ///
    /// [`RoomError::NotAMember`] if `member` has no seat.
    pub fn publish(
        self: &Arc<Self>,
        member: &str,
        key: impl Into<String>,
        value: Value,
    ) -> Result<u64, RoomError> {
        self.mutate(member, &key.into(), RoomOp::Put(value))
    }

    /// Removes a key on behalf of `member`; returns the delta's seq.
    ///
    /// # Errors
    ///
    /// [`RoomError::NotAMember`] if `member` has no seat.
    pub fn retract(self: &Arc<Self>, member: &str, key: &str) -> Result<u64, RoomError> {
        self.mutate(member, key, RoomOp::Remove)
    }

    /// Read-modify-write under the room lock: `f` sees the current value
    /// of `key` (if any) and returns the new one. This is how concurrent
    /// members compose increments (a shared cart's quantities) without a
    /// lost update.
    ///
    /// # Errors
    ///
    /// [`RoomError::NotAMember`] if `member` has no seat.
    pub fn update(
        self: &Arc<Self>,
        member: &str,
        key: &str,
        f: impl FnOnce(Option<&Value>) -> Value,
    ) -> Result<u64, RoomError> {
        let mut kicks = Vec::new();
        let seq = {
            let mut inner = self.inner.lock();
            if !inner.members.contains_key(member) {
                return Err(RoomError::NotAMember(member.to_owned()));
            }
            let next = f(inner.state.get(key));
            self.apply_delta_locked(&mut inner, member, key, RoomOp::Put(next), &mut kicks)
        };
        self.notify_mutation();
        self.kick(kicks, Some(member));
        Ok(seq)
    }

    fn mutate(self: &Arc<Self>, member: &str, key: &str, op: RoomOp) -> Result<u64, RoomError> {
        let mut kicks = Vec::new();
        let seq = {
            let mut inner = self.inner.lock();
            if !inner.members.contains_key(member) {
                return Err(RoomError::NotAMember(member.to_owned()));
            }
            self.apply_delta_locked(&mut inner, member, key, op, &mut kicks)
        };
        self.notify_mutation();
        self.kick(kicks, Some(member));
        Ok(seq)
    }

    /// Removes a member and appends the presence-removal delta (shared by
    /// leave and eviction). Returns the delta's seq.
    fn remove_member(self: &Arc<Self>, member: &str) -> Option<u64> {
        let mut kicks = Vec::new();
        let seq = {
            let mut inner = self.inner.lock();
            inner.members.remove(member)?;
            self.apply_delta_locked(
                &mut inner,
                member,
                &presence_key(member),
                RoomOp::Remove,
                &mut kicks,
            )
        };
        self.notify_mutation();
        self.kick(kicks, None);
        Some(seq)
    }

    /// Assigns the next seq, applies the op to state, journals the delta
    /// (inside the lock: journal order == seq order), and enqueues **one**
    /// shared update on every sinked member — coalescing any backlog that
    /// overflows. Members needing a (re)scheduled drain are pushed into
    /// `kicks`.
    fn apply_delta_locked(
        &self,
        inner: &mut RoomInner,
        member: &str,
        key: &str,
        op: RoomOp,
        kicks: &mut Vec<Arc<str>>,
    ) -> u64 {
        inner.seq += 1;
        let seq = inner.seq;
        match &op {
            RoomOp::Put(v) => {
                inner.state.insert(key.to_owned(), v.clone());
            }
            RoomOp::Remove => {
                inner.state.remove(key);
            }
        }
        self.journal_delta(seq, member, key, &op);
        let update = SharedUpdate::new(RoomUpdate::Delta(RoomDelta {
            seq,
            member: member.to_owned(),
            key: key.to_owned(),
            op,
        }));
        // Fan-out enqueue under the same lock hold: every member's queue
        // receives deltas in seq order.
        let buffer_cap = self.config.member_buffer;
        let mut snapshot = None;
        let mut coalesced = 0u64;
        kicks.reserve(inner.members.len());
        for (name, m) in inner.members.iter_mut() {
            if m.sink.is_none() {
                continue; // seat awaiting rejoin: nothing to deliver to
            }
            m.pending.push_back(Arc::clone(&update));
            if m.pending.len() > buffer_cap {
                // The member fell behind: collapse the whole backlog into
                // one state-at-seq snapshot. Deltas published later queue
                // behind it with seq > this seq, so the member
                // reconstructs identical state with no gap.
                m.coalesce(&mut snapshot, seq, &inner.state);
                coalesced += 1;
            }
            if !m.in_flight {
                m.in_flight = true;
                kicks.push(Arc::clone(name));
            }
        }
        if coalesced > 0 {
            self.coalesced_snapshots
                .fetch_add(coalesced, Ordering::Relaxed);
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        seq
    }

    /// Runs the owner's snapshot-cadence callback, outside the room lock
    /// (the callback may capture a snapshot, which re-locks it).
    fn notify_mutation(&self) {
        if let Some(hook) = &self.journal {
            (hook.on_mutation)();
        }
    }

    fn journal_delta(&self, seq: u64, member: &str, key: &str, op: &RoomOp) {
        let Some(hook) = &self.journal else {
            return;
        };
        let event = match op {
            RoomOp::Put(_) => "put",
            RoomOp::Remove => "remove",
        };
        hook.journal.append_with("room", event, |out| {
            out.push_str("{\"room\":");
            Json::write_str_to(&self.name, out);
            out.push_str(",\"member\":");
            Json::write_str_to(member, out);
            out.push_str(",\"key\":");
            Json::write_str_to(key, out);
            let _ = write!(out, ",\"seq\":{seq}");
            if let RoomOp::Put(v) = op {
                out.push_str(",\"value\":");
                v.to_json().write_to(out);
            }
            out.push('}');
        });
    }

    /// Delivers to the kicked members. Without a queue, each member's
    /// backlog is drained right here. With one, each member's drain first
    /// runs here in non-blocking mode ([`RoomSink::try_deliver_shared`]):
    /// a member whose sink takes its whole backlog without blocking is
    /// done before the publisher returns, with no serve-queue hop. The
    /// other members go first and `actor`'s own echo last, so the
    /// publisher's wire never delays the other phones. The members whose
    /// sink answered `None` stay in flight and get one drain job each: all
    /// of them in one [`ServeQueue::submit_batch`] transaction, each under
    /// its member's peer name. A `Busy` rejection coalesces the member's
    /// backlog into a snapshot (one, shared by every member the batch
    /// bounced) and defers the kick to the next publish or tick.
    fn kick(self: &Arc<Self>, mut members: Vec<Arc<str>>, actor: Option<&str>) {
        let Some(queue) = &self.queue else {
            for member in &members {
                self.drain(member, false);
            }
            return;
        };
        if let Some(i) = actor.and_then(|actor| members.iter().position(|m| &**m == actor)) {
            let echo = members.remove(i);
            members.push(echo);
        }
        members.retain(|member| !self.drain(member, true));
        if members.is_empty() {
            return;
        }
        let jobs = members
            .iter()
            .map(|member| {
                let (room, name) = (Arc::clone(self), Arc::clone(member));
                let job: ServeJob = Box::new(move || {
                    room.drain(&name, false);
                });
                (Arc::clone(member), job)
            })
            .collect();
        let rejected = queue.submit_batch(jobs);
        if rejected.is_empty() {
            return;
        }
        self.busy_kicks
            .fetch_add(rejected.len() as u64, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let RoomInner {
            state,
            seq,
            members: seats,
        } = &mut *inner;
        let mut snapshot = None;
        for i in rejected {
            let Some(m) = seats.get_mut(&members[i]) else {
                continue;
            };
            m.in_flight = false;
            m.kick_failed = true;
            if m.pending.len() > 1 {
                m.coalesce(&mut snapshot, *seq, state);
                self.coalesced_snapshots.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Delivers a member's backlog in order. Single-flight per member
    /// (guarded by `in_flight`), so updates can never interleave; runs on
    /// a serve worker or the publisher's thread, with the room lock
    /// released around each sink call.
    ///
    /// `nonblocking` delivers through [`RoomSink::try_deliver_shared`]
    /// and stops at the first update the sink cannot take without
    /// blocking: the update goes back to the front of the backlog and the
    /// member stays in flight, and the drain returns `false` — the member
    /// still needs a queued drain. Otherwise it returns `true`: the
    /// backlog is empty, or the member or its sink is gone.
    fn drain(self: &Arc<Self>, member: &str, nonblocking: bool) -> bool {
        loop {
            let (update, sink) = {
                let mut inner = self.inner.lock();
                let Some(m) = inner.members.get_mut(member) else {
                    return true; // evicted mid-drain
                };
                let Some(update) = m.pending.pop_front() else {
                    m.in_flight = false;
                    return true;
                };
                let Some(sink) = m.sink.clone() else {
                    // Sink dropped mid-drain (rejoin pending); discard.
                    m.pending.clear();
                    m.in_flight = false;
                    return true;
                };
                (update, sink)
            };
            let ok = if nonblocking {
                let Some(ok) = sink.try_deliver_shared(self, &update) else {
                    let mut inner = self.inner.lock();
                    if let Some(m) = inner.members.get_mut(member) {
                        // Back in front of whatever was queued meanwhile:
                        // deltas in seq order, or a coalesced snapshot,
                        // which then follows it. A rejoin's new sink starts
                        // from its own snapshot and is owed nothing older.
                        if m.sink.as_ref().is_some_and(|s| Arc::ptr_eq(s, &sink)) {
                            m.pending.push_front(update);
                        }
                    }
                    return false;
                };
                if ok {
                    self.delivered_inline.inc();
                }
                ok
            } else {
                sink.deliver_shared(self, &update)
            };
            if ok {
                self.delivered.fetch_add(1, Ordering::Relaxed);
            } else {
                self.sink_failures.fetch_add(1, Ordering::Relaxed);
                let mut inner = self.inner.lock();
                if let Some(m) = inner.members.get_mut(member) {
                    // Dead wire: drop the sink but hold the seat for a
                    // lease-bounded rejoin (the heartbeat health machine
                    // or TTL decides when the seat is truly gone).
                    m.sink = None;
                    m.pending.clear();
                    m.in_flight = false;
                }
                return true;
            }
        }
    }
}

impl fmt::Debug for Room {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Room")
            .field("name", &self.name)
            .field("seq", &inner.seq)
            .field("members", &inner.members.len())
            .field("keys", &inner.state.len())
            .finish()
    }
}

struct ReplicaInner {
    state: BTreeMap<String, Value>,
    last_seq: u64,
    synced: bool,
}

/// The member-side converged view of a room: applies [`RoomUpdate`]s with
/// duplicate suppression and gap accounting. Attach it to a phone's
/// EventAdmin ([`RoomReplica::attach`]) or feed it directly through a
/// [`ReplicaSink`].
pub struct RoomReplica {
    room: String,
    inner: Mutex<ReplicaInner>,
    deltas_applied: AtomicU64,
    snapshots_applied: AtomicU64,
    duplicates: AtomicU64,
    gaps: AtomicU64,
}

impl RoomReplica {
    /// Creates an empty, unsynced replica of `room`.
    pub fn new(room: impl Into<String>) -> Arc<RoomReplica> {
        Arc::new(RoomReplica {
            room: room.into(),
            inner: Mutex::new(ReplicaInner {
                state: BTreeMap::new(),
                last_seq: 0,
                synced: false,
            }),
            deltas_applied: AtomicU64::new(0),
            snapshots_applied: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            gaps: AtomicU64::new(0),
        })
    }

    /// The room this replica mirrors.
    pub fn room(&self) -> &str {
        &self.room
    }

    /// Applies one update. Deltas must arrive in order: `seq <= last` is
    /// counted as a duplicate and dropped, `seq > last + 1` is counted as
    /// a gap and dropped (the gap counter staying zero is the battery's
    /// gap-freedom witness). Snapshots at `seq >= last` replace the state
    /// wholesale; an older snapshot is a duplicate.
    pub fn apply(&self, update: &RoomUpdate) {
        let mut inner = self.inner.lock();
        match update {
            RoomUpdate::Delta(d) => {
                if !inner.synced || d.seq <= inner.last_seq {
                    self.duplicates.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if d.seq > inner.last_seq + 1 {
                    self.gaps.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                match &d.op {
                    RoomOp::Put(v) => {
                        inner.state.insert(d.key.clone(), v.clone());
                    }
                    RoomOp::Remove => {
                        inner.state.remove(&d.key);
                    }
                }
                inner.last_seq = d.seq;
                self.deltas_applied.fetch_add(1, Ordering::Relaxed);
            }
            RoomUpdate::Snapshot { seq, state } => {
                if inner.synced && *seq < inner.last_seq {
                    self.duplicates.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                inner.state = state.clone();
                inner.last_seq = *seq;
                inner.synced = true;
                self.snapshots_applied.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Subscribes the replica to the room's update topic on `events`,
    /// returning the subscription id. Malformed events are ignored.
    pub fn attach(self: &Arc<Self>, events: &EventAdmin) -> SubscriptionId {
        let replica = Arc::clone(self);
        events.subscribe(room_update_topic(&self.room), move |event| {
            if let Some(update) = RoomUpdate::from_properties(&event.properties) {
                replica.apply(&update);
            }
        })
    }

    /// The last applied seq.
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().last_seq
    }

    /// Whether an initial snapshot has been applied.
    pub fn synced(&self) -> bool {
        self.inner.lock().synced
    }

    /// The converged state.
    pub fn state(&self) -> BTreeMap<String, Value> {
        self.inner.lock().state.clone()
    }

    /// One key of the converged state.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.inner.lock().state.get(key).cloned()
    }

    /// Member names derived from presence keys, sorted.
    pub fn members(&self) -> Vec<String> {
        self.inner
            .lock()
            .state
            .keys()
            .filter_map(|k| k.strip_prefix(PRESENCE_PREFIX))
            .map(str::to_owned)
            .collect()
    }

    /// Canonical JSON of the converged state (see [`state_json`]) — the
    /// byte-identity witness.
    pub fn state_json(&self) -> String {
        let inner = self.inner.lock();
        state_json(inner.last_seq, &inner.state)
    }

    /// Deltas applied in order.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied.load(Ordering::Relaxed)
    }

    /// Snapshots applied.
    pub fn snapshots_applied(&self) -> u64 {
        self.snapshots_applied.load(Ordering::Relaxed)
    }

    /// Updates dropped as duplicates (seq at or below the replica's).
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Deltas dropped because they would skip a seq — zero on a healthy
    /// room.
    pub fn gaps(&self) -> u64 {
        self.gaps.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for RoomReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("RoomReplica")
            .field("room", &self.room)
            .field("last_seq", &inner.last_seq)
            .field("keys", &inner.state.len())
            .field("gaps", &self.gaps.load(Ordering::Relaxed))
            .finish()
    }
}

/// The device-side registry of rooms plus the endpoint roster that turns
/// connected phones into room sinks. Register it as the
/// [`ROOMS_INTERFACE`] service (via [`crate::register_room_hub`]) and
/// wire accepted endpoints in with [`RoomHub::register_endpoint`] — a
/// device built with [`crate::Device::rooms`] does the wiring.
pub struct RoomHub {
    rooms: Mutex<HashMap<String, Arc<Room>>>,
    endpoints: Mutex<HashMap<String, Arc<RemoteEndpoint>>>,
    queue: Option<ServeQueue>,
    defaults: RoomConfig,
}

impl RoomHub {
    /// A hub delivering inline (no serve queue); `defaults` seeds the
    /// config (TTL, buffer) of rooms auto-created on first join.
    pub fn new(defaults: RoomConfig) -> Arc<RoomHub> {
        Arc::new(RoomHub {
            rooms: Mutex::new(HashMap::new()),
            endpoints: Mutex::new(HashMap::new()),
            queue: None,
            defaults,
        })
    }

    /// A hub whose rooms fan out through `queue`.
    pub fn with_queue(defaults: RoomConfig, queue: ServeQueue) -> Arc<RoomHub> {
        Arc::new(RoomHub {
            rooms: Mutex::new(HashMap::new()),
            endpoints: Mutex::new(HashMap::new()),
            queue: Some(queue),
            defaults,
        })
    }

    /// Adopts an externally built room (e.g. a journal-recovered one from
    /// [`crate::DeviceJournal::register_room`]), replacing any room of
    /// the same name.
    pub fn adopt(&self, room: Arc<Room>) {
        self.rooms.lock().insert(room.name().to_owned(), room);
    }

    /// Looks a room up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Room>> {
        self.rooms.lock().get(name).cloned()
    }

    /// Returns the room named `name`, creating it from the hub defaults
    /// (and the hub's queue) if it does not exist.
    pub fn get_or_create(&self, name: &str) -> Arc<Room> {
        let mut rooms = self.rooms.lock();
        rooms
            .entry(name.to_owned())
            .or_insert_with(|| {
                let config = RoomConfig {
                    name: name.to_owned(),
                    ..self.defaults.clone()
                };
                Room::build(config, self.queue.clone(), None, BTreeMap::new(), 0, &[], 0)
            })
            .clone()
    }

    /// All rooms.
    pub fn rooms(&self) -> Vec<Arc<Room>> {
        self.rooms.lock().values().cloned().collect()
    }

    /// Rosters a served endpoint under its peer name so joins from that
    /// phone can be answered with an [`EndpointRoomSink`], and arms the
    /// heartbeat health machine for eviction: the moment the endpoint
    /// reports `Disconnected`, the peer's room leases are expired (its
    /// seats survive only as rejoin slots until their TTL lapses).
    pub fn register_endpoint(self: &Arc<Self>, endpoint: Arc<RemoteEndpoint>) {
        let peer = endpoint.remote_peer();
        if peer.is_empty() {
            return;
        }
        let hub = Arc::downgrade(self);
        let peer_for_listener = peer.clone();
        endpoint.on_health(move |ev| {
            if ev.to == HealthState::Disconnected {
                if let Some(hub) = hub.upgrade() {
                    hub.peer_disconnected(&peer_for_listener);
                }
            }
        });
        self.endpoints.lock().insert(peer, endpoint);
    }

    /// The sink for a rostered peer, if its endpoint is still open.
    pub fn endpoint_sink(&self, peer: &str) -> Option<Arc<dyn RoomSink>> {
        let endpoints = self.endpoints.lock();
        let ep = endpoints.get(peer)?;
        if ep.is_closed() {
            return None;
        }
        Some(Arc::new(EndpointRoomSink(Arc::clone(ep))) as Arc<dyn RoomSink>)
    }

    /// Lets go of the rostered endpoints that have closed.
    pub(crate) fn forget_closed_endpoints(&self) {
        self.endpoints.lock().retain(|_, ep| !ep.is_closed());
    }

    /// Drops the peer's sinks in every room (seats stay, lease-bounded,
    /// for a rejoin) — invoked by the health listener on `Disconnected`.
    fn peer_disconnected(&self, peer: &str) {
        for room in self.rooms() {
            let mut inner = room.inner.lock();
            if let Some(m) = inner.members.get_mut(peer) {
                m.sink = None;
                m.pending.clear();
                // Expire the lease now: the next tick evicts unless the
                // phone redials and rejoins first.
                m.lease_deadline_ms = 0;
            }
        }
    }

    /// Drives the lease machinery: members whose endpoint heartbeat
    /// machine still reports `Healthy` are renewed, then every room
    /// evicts what expired. Call periodically (a served device does, from
    /// the shared timer wheel). Returns total evictions.
    pub fn tick(&self, now_ms: u64) -> usize {
        self.forget_closed_endpoints();
        let healthy: Vec<String> = {
            let endpoints = self.endpoints.lock();
            endpoints
                .iter()
                .filter(|(_, ep)| ep.health() == HealthState::Healthy)
                .map(|(peer, _)| peer.clone())
                .collect()
        };
        let mut evicted = 0;
        for room in self.rooms() {
            for peer in &healthy {
                room.renew(peer, now_ms);
            }
            evicted += room.tick(now_ms);
        }
        evicted
    }
}

impl fmt::Debug for RoomHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoomHub")
            .field("rooms", &self.rooms.lock().len())
            .field("endpoints", &self.endpoints.lock().len())
            .finish()
    }
}

/// How often a served device renews and evicts its hub's room leases.
const LEASE_CADENCE: Duration = Duration::from_millis(50);

/// A served device's room lease cadence: a self-re-arming entry on the
/// shared timer wheel that runs [`RoomHub::tick`], so no accept loop has
/// to wake up for it.
pub(crate) struct LeaseTick {
    pub(crate) hub: Arc<RoomHub>,
    /// The armed wheel entry; `None` once stopped. Held across a tick, so
    /// `stop` returns only after a running tick has finished and none
    /// follows it — the endpoints a stopping device then closes must not
    /// be journaled as evictions.
    armed: Mutex<Option<TimerKey>>,
}

impl LeaseTick {
    pub(crate) fn start(hub: Arc<RoomHub>) -> Arc<LeaseTick> {
        let tick = Arc::new(LeaseTick {
            hub,
            armed: Mutex::new(None),
        });
        tick.arm(&mut tick.armed.lock());
        tick
    }

    fn arm(self: &Arc<Self>, armed: &mut Option<TimerKey>) {
        let tick = Arc::clone(self);
        let run = Box::new(move || tick.run());
        *armed = Some(Reactor::global().timer().schedule(LEASE_CADENCE, run));
    }

    fn run(self: Arc<Self>) {
        let mut armed = self.armed.lock();
        if armed.is_some() {
            self.hub.tick(room_clock_ms());
            self.arm(&mut armed);
        }
    }

    pub(crate) fn stop(&self) {
        if let Some(key) = self.armed.lock().take() {
            Reactor::global().timer().cancel(key);
        }
    }
}

/// The [`ROOMS_INTERFACE`] service facade phones invoke over R-OSGi:
/// `join`/`leave`/`renew` manage the caller's seat, `publish`/`retract`
/// append sequenced deltas, `snapshot`/`members`/`seq` read the room.
/// Join resolves the member's sink from the hub's endpoint roster, so a
/// member's id must equal its phone's peer name.
pub struct RoomHubService {
    hub: Arc<RoomHub>,
}

impl RoomHubService {
    /// Wraps a hub for registration under [`ROOMS_INTERFACE`].
    pub fn new(hub: Arc<RoomHub>) -> RoomHubService {
        RoomHubService { hub }
    }

    /// The shippable interface description.
    pub fn interface() -> ServiceInterfaceDesc {
        let room = || ParamSpec::new("room", TypeHint::Str);
        let member = || ParamSpec::new("member", TypeHint::Str);
        ServiceInterfaceDesc::new(
            ROOMS_INTERFACE,
            vec![
                MethodSpec::new(
                    "join",
                    vec![room(), member()],
                    TypeHint::I64,
                    "Join (or rejoin) a room; the caller's peer name must equal the member id.",
                ),
                MethodSpec::new(
                    "leave",
                    vec![room(), member()],
                    TypeHint::I64,
                    "Leave a room; returns the presence-removal seq.",
                ),
                MethodSpec::new(
                    "renew",
                    vec![room(), member()],
                    TypeHint::Bool,
                    "Renew the member's lease.",
                ),
                MethodSpec::new(
                    "publish",
                    vec![
                        room(),
                        member(),
                        ParamSpec::new("key", TypeHint::Str),
                        ParamSpec::new("value", TypeHint::Any),
                    ],
                    TypeHint::I64,
                    "Write a key; returns the delta's seq.",
                ),
                MethodSpec::new(
                    "retract",
                    vec![room(), member(), ParamSpec::new("key", TypeHint::Str)],
                    TypeHint::I64,
                    "Remove a key; returns the delta's seq.",
                ),
                MethodSpec::new(
                    "snapshot",
                    vec![room()],
                    TypeHint::Struct,
                    "The room's state at its current seq.",
                ),
                MethodSpec::new("members", vec![room()], TypeHint::List, "Member names."),
                MethodSpec::new("seq", vec![room()], TypeHint::I64, "The current seq."),
            ],
        )
    }
}

impl Service for RoomHubService {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, ServiceCallError> {
        let str_arg = |i: usize| -> Result<&str, ServiceCallError> {
            args.get(i).and_then(Value::as_str).ok_or_else(|| {
                ServiceCallError::BadArguments(format!("argument {i} must be a string"))
            })
        };
        match method {
            "join" => {
                let (room_name, member) = (str_arg(0)?, str_arg(1)?);
                // A served device rosters a phone's endpoint as its
                // handshake completes, before it dispatches any later
                // frame of the connection, so a phone's own `join` always
                // finds its sink. A missing one means the member id is not
                // a rostered peer name: `Busy`, never executed, bounces
                // the caller until its retry budget gives up.
                let sink = self
                    .hub
                    .endpoint_sink(member)
                    .ok_or(ServiceCallError::Busy { retry_after_ms: 5 })?;
                let room = self.hub.get_or_create(room_name);
                Ok(Value::I64(room.join(member, sink, room_clock_ms()) as i64))
            }
            "leave" => {
                let (room_name, member) = (str_arg(0)?, str_arg(1)?);
                let room = self.room(room_name)?;
                let seq = room
                    .leave(member)
                    .ok_or_else(|| RoomError::NotAMember(member.to_owned()))?;
                Ok(Value::I64(seq as i64))
            }
            "renew" => {
                let (room_name, member) = (str_arg(0)?, str_arg(1)?);
                let room = self.room(room_name)?;
                Ok(Value::Bool(room.renew(member, room_clock_ms())))
            }
            "publish" => {
                let (room_name, member, key) = (str_arg(0)?, str_arg(1)?, str_arg(2)?);
                let value = args
                    .get(3)
                    .cloned()
                    .ok_or_else(|| ServiceCallError::BadArguments("missing value".into()))?;
                let room = self.room(room_name)?;
                Ok(Value::I64(room.publish(member, key, value)? as i64))
            }
            "retract" => {
                let (room_name, member, key) = (str_arg(0)?, str_arg(1)?, str_arg(2)?);
                let room = self.room(room_name)?;
                Ok(Value::I64(room.retract(member, key)? as i64))
            }
            "snapshot" => {
                let room = self.room(str_arg(0)?)?;
                let (seq, state) = room.snapshot();
                Ok(Value::structure(
                    "room.Snapshot",
                    [
                        ("seq", Value::I64(seq as i64)),
                        ("state", Value::Map(state)),
                    ],
                ))
            }
            "members" => {
                let room = self.room(str_arg(0)?)?;
                Ok(Value::from(room.members()))
            }
            "seq" => {
                let room = self.room(str_arg(0)?)?;
                Ok(Value::I64(room.seq() as i64))
            }
            other => Err(ServiceCallError::NoSuchMethod(other.to_owned())),
        }
    }

    fn describe(&self) -> Option<ServiceInterfaceDesc> {
        Some(RoomHubService::interface())
    }
}

impl RoomHubService {
    fn room(&self, name: &str) -> Result<Arc<Room>, ServiceCallError> {
        self.hub
            .get(name)
            .ok_or_else(|| ServiceCallError::Failed(format!("no such room: {name}")))
    }
}

impl fmt::Debug for RoomHubService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoomHubService")
            .field("hub", &self.hub)
            .finish()
    }
}

/// Registers `hub` on `framework` as the [`ROOMS_INTERFACE`] service.
/// The read-side and lease methods are flagged idempotent so the retry
/// budget may replay them; `publish`/`retract` append a fresh seq per
/// call and are not.
///
/// # Errors
///
/// Propagates registration errors.
pub fn register_room_hub(
    framework: &alfredo_osgi::Framework,
    hub: Arc<RoomHub>,
) -> Result<alfredo_osgi::ServiceRegistration, alfredo_osgi::OsgiError> {
    framework.system_context().register_service(
        &[ROOMS_INTERFACE],
        Arc::new(RoomHubService::new(hub)) as Arc<dyn Service>,
        Properties::new().with(
            alfredo_rosgi::PROP_IDEMPOTENT_METHODS,
            Value::List(
                ["join", "leave", "renew", "snapshot", "members", "seq"]
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct RecordingSink {
        replica: Arc<RoomReplica>,
        log: Mutex<Vec<RoomUpdate>>,
    }

    impl RecordingSink {
        fn new(room: &str) -> Arc<RecordingSink> {
            Arc::new(RecordingSink {
                replica: RoomReplica::new(room),
                log: Mutex::new(Vec::new()),
            })
        }
    }

    impl RoomSink for RecordingSink {
        fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
            self.log.lock().push(update.clone());
            self.replica.apply(update);
            true
        }
    }

    #[test]
    fn join_publish_leave_sequences_and_converges() {
        let room = Room::new(RoomConfig::new("r"));
        let a = RecordingSink::new("r");
        let b = RecordingSink::new("r");
        assert_eq!(room.join("a", a.clone(), 0), 1); // presence/a = seq 1
        assert_eq!(room.join("b", b.clone(), 0), 2);
        let s = room.publish("a", "k", Value::I64(7)).unwrap();
        assert_eq!(s, 3);
        assert_eq!(room.retract("a", "k").unwrap(), 4);
        assert_eq!(room.leave("b").unwrap(), 5);
        assert_eq!(a.replica.last_seq(), 5);
        assert_eq!(a.replica.gaps(), 0);
        assert_eq!(a.replica.members(), vec!["a".to_string()]);
        assert_eq!(a.replica.state_json(), room.state_json());
        // b stopped receiving after its seat was removed.
        assert!(b.replica.last_seq() <= 5);
        let stats = room.stats();
        assert_eq!(stats.joins, 2);
        assert_eq!(stats.leaves, 1);
        assert!(stats.published >= 5);
    }

    #[test]
    fn late_joiner_converges_from_snapshot() {
        let room = Room::new(RoomConfig::new("r"));
        let a = RecordingSink::new("r");
        room.join("a", a.clone(), 0);
        for i in 0..10 {
            room.publish("a", format!("k{i}"), Value::I64(i)).unwrap();
        }
        let late = RecordingSink::new("r");
        room.join("late", late.clone(), 0);
        room.publish("a", "after", Value::I64(99)).unwrap();
        assert_eq!(late.replica.state_json(), room.state_json());
        assert_eq!(late.replica.state_json(), a.replica.state_json());
        // The late joiner saw exactly one snapshot, then in-order deltas.
        assert_eq!(late.replica.snapshots_applied(), 1);
        assert_eq!(late.replica.gaps(), 0);
        let log = late.log.lock();
        assert!(matches!(log[0], RoomUpdate::Snapshot { .. }));
    }

    #[test]
    fn rejoin_resyncs_with_fresh_snapshot() {
        let room = Room::new(RoomConfig::new("r"));
        let a = RecordingSink::new("r");
        room.join("a", a, 0);
        room.publish("a", "x", Value::I64(1)).unwrap();
        let a2 = RecordingSink::new("r");
        room.join("a", a2.clone(), 5);
        room.publish("a", "y", Value::I64(2)).unwrap();
        assert_eq!(a2.replica.state_json(), room.state_json());
        assert_eq!(room.stats().joins, 2);
        // Rejoin appended no second presence delta.
        assert_eq!(room.members(), vec!["a".to_string()]);
    }

    #[test]
    fn lease_expiry_evicts_and_removes_presence() {
        let room = Room::new(RoomConfig::new("r").with_lease_ttl_ms(100));
        let a = RecordingSink::new("r");
        let b = RecordingSink::new("r");
        room.join("a", a.clone(), 0);
        room.join("b", b, 0);
        room.renew("a", 500);
        assert_eq!(room.tick(300), 1, "b expired at 100 < 300");
        assert_eq!(room.members(), vec!["a".to_string()]);
        assert_eq!(room.stats().evicted, 1);
        // a observed b's eviction as a presence-removal delta.
        assert_eq!(a.replica.members(), vec!["a".to_string()]);
        assert_eq!(a.replica.gaps(), 0);
    }

    #[test]
    fn slow_member_backlog_coalesces_into_snapshot() {
        // No queue: deliveries are inline, so we simulate slowness by a
        // sink whose member seat has a tiny buffer and a drain that never
        // runs (in_flight pinned by a blocked first delivery is hard to
        // fake inline — instead drop the sink's deliveries into a queue
        // capped by member_buffer=2 and watch the coalesce counter).
        let room = Room::new(RoomConfig::new("r").with_member_buffer(2));
        let slow = RecordingSink::new("r");
        // Seat the member, then pin in_flight manually so publishes only
        // enqueue (exactly what a blocked serve worker produces).
        room.join("slow", slow.clone(), 0);
        {
            let mut inner = room.inner.lock();
            inner.members.get_mut("slow").unwrap().in_flight = true;
        }
        for i in 0..10 {
            room.publish("slow", format!("k{i}"), Value::I64(i))
                .unwrap();
        }
        assert!(room.stats().coalesced_snapshots > 0);
        {
            let inner = room.inner.lock();
            let m = inner.members.get("slow").unwrap();
            assert!(
                m.pending.len() <= room.config.member_buffer + 1,
                "backlog stays bounded: {}",
                m.pending.len()
            );
        }
        // Unpin and drain: the member converges via the snapshot.
        {
            let mut inner = room.inner.lock();
            inner.members.get_mut("slow").unwrap().in_flight = false;
        }
        room.drain("slow", false);
        assert_eq!(slow.replica.state_json(), room.state_json());
        assert_eq!(slow.replica.gaps(), 0);
    }

    #[test]
    fn members_that_overflow_together_share_one_snapshot_and_fast_ones_get_none() {
        let room = Room::new(RoomConfig::new("r").with_member_buffer(4));
        let fast: Vec<_> = (0..3).map(|_| RecordingSink::new("r")).collect();
        for (i, sink) in fast.iter().enumerate() {
            room.join(&format!("fast{i}"), sink.clone(), 0);
        }
        let plugged = [RecordingSink::new("r"), RecordingSink::new("r")];
        let pin = |name: &str, in_flight: bool| {
            room.inner.lock().members.get_mut(name).unwrap().in_flight = in_flight;
        };
        for (i, sink) in plugged.iter().enumerate() {
            room.join(&format!("plugged{i}"), sink.clone(), 0);
        }
        for i in 0..plugged.len() {
            // What a blocked serve worker produces: publishes only enqueue.
            pin(&format!("plugged{i}"), true);
        }
        // Within the buffer nobody is coalesced, and the backlogs of the
        // two plugged members hold the very same allocations.
        for i in 0..4 {
            room.publish("fast0", format!("k{i}"), Value::I64(i))
                .unwrap();
        }
        assert_eq!(room.stats().coalesced_snapshots, 0);
        {
            let inner = room.inner.lock();
            let (a, b) = (&inner.members["plugged0"], &inner.members["plugged1"]);
            assert_eq!(a.pending.len(), 4);
            assert!(a
                .pending
                .iter()
                .zip(&b.pending)
                .all(|(x, y)| Arc::ptr_eq(x, y)));
        }
        // The fifth overflows both at once: one snapshot, held by both.
        let seq = room.publish("fast0", "k4", Value::I64(4)).unwrap();
        assert_eq!(room.stats().coalesced_snapshots, 2);
        {
            let inner = room.inner.lock();
            let (a, b) = (&inner.members["plugged0"], &inner.members["plugged1"]);
            assert_eq!((a.pending.len(), b.pending.len()), (1, 1));
            assert!(Arc::ptr_eq(&a.pending[0], &b.pending[0]));
            assert!(matches!(
                a.pending[0].update(),
                RoomUpdate::Snapshot { seq: at, .. } if *at == seq
            ));
        }
        // Deltas behind the snapshot, then the plugs come out.
        for i in 5..8 {
            room.publish("fast1", format!("k{i}"), Value::I64(i))
                .unwrap();
        }
        for i in 0..plugged.len() {
            pin(&format!("plugged{i}"), false);
            room.drain(&format!("plugged{i}"), false);
        }
        let expected = room.state_json();
        for sink in fast.iter().chain(&plugged) {
            assert_eq!(sink.replica.state_json(), expected);
            assert_eq!(sink.replica.gaps(), 0);
            assert_eq!(sink.replica.duplicates(), 0);
        }
        for sink in &fast {
            assert_eq!(sink.replica.snapshots_applied(), 1, "the join's only");
        }
        for (i, sink) in plugged.iter().enumerate() {
            assert_eq!(sink.replica.snapshots_applied(), 2, "and the shared one");
            // The three behind the snapshot; the five it covers were
            // skipped. (plugged0 also saw plugged1 arrive.)
            assert_eq!(sink.replica.deltas_applied(), 3 + u64::from(i == 0));
        }
        assert_eq!(room.stats().wire_encodings, 0, "nobody is on a wire");
    }

    /// One delivery an [`InlineSink`] saw.
    #[derive(Debug, Clone, PartialEq)]
    struct Delivery {
        /// The update's seq (a snapshot's `seq`).
        seq: u64,
        snapshot: bool,
        /// Through `try_deliver_shared` (the publisher's thread).
        inline: bool,
        thread: std::thread::ThreadId,
    }

    /// A sink that takes updates inline while `accept` says so and
    /// answers `None` otherwise; queued drains reach it through `deliver`.
    /// Every delivery is logged, and its member name is appended to
    /// `order`, which the sinks of one test share.
    struct InlineSink {
        name: String,
        replica: Arc<RoomReplica>,
        log: Mutex<Vec<Delivery>>,
        order: Arc<Mutex<Vec<String>>>,
        accept: Box<dyn Fn() -> bool + Send + Sync>,
    }

    impl InlineSink {
        fn new(
            name: &str,
            order: &Arc<Mutex<Vec<String>>>,
            accept: impl Fn() -> bool + Send + Sync + 'static,
        ) -> Arc<InlineSink> {
            Arc::new(InlineSink {
                name: name.to_owned(),
                replica: RoomReplica::new("r"),
                log: Mutex::new(Vec::new()),
                order: Arc::clone(order),
                accept: Box::new(accept),
            })
        }

        fn record(&self, update: &RoomUpdate, inline: bool) {
            let (seq, snapshot) = match update {
                RoomUpdate::Delta(d) => (d.seq, false),
                RoomUpdate::Snapshot { seq, .. } => (*seq, true),
            };
            self.replica.apply(update);
            self.log.lock().push(Delivery {
                seq,
                snapshot,
                inline,
                thread: std::thread::current().id(),
            });
            self.order.lock().push(self.name.clone());
        }

        /// The seqs of the deltas delivered, in order.
        fn delta_seqs(&self) -> Vec<u64> {
            let log = self.log.lock();
            log.iter().filter(|d| !d.snapshot).map(|d| d.seq).collect()
        }
    }

    impl RoomSink for InlineSink {
        fn deliver(&self, _room: &str, update: &RoomUpdate) -> bool {
            self.record(update, false);
            true
        }

        fn try_deliver_shared(&self, _room: &Room, update: &SharedUpdate) -> Option<bool> {
            if !(self.accept)() {
                return None;
            }
            self.record(update.update(), true);
            Some(true)
        }
    }

    fn queued_room(config: RoomConfig) -> (Arc<Room>, ServeQueue) {
        let queue = ServeQueue::new(alfredo_rosgi::ServeQueueConfig::workers(1));
        (Room::with_queue(config, queue.clone()), queue)
    }

    /// Waits until every drain job the queue took has run to its end.
    fn settle(queue: &ServeQueue) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = queue.stats();
            if stats.served == stats.submitted {
                return;
            }
            assert!(Instant::now() < deadline, "queue never settled: {stats:?}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn inline_sinks_are_delivered_on_the_publishers_thread_before_publish_returns() {
        let (room, queue) = queued_room(RoomConfig::new("r"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let a = InlineSink::new("a", &order, || true);
        let b = InlineSink::new("b", &order, || true);
        room.join("a", a.clone(), 0);
        room.join("b", b.clone(), 0);
        let me = std::thread::current().id();
        for i in 0..20 {
            let seq = room
                .publish(["a", "b"][i % 2], "k", Value::I64(i as i64))
                .unwrap();
            // No waiting: both replicas are there as `publish` returns.
            assert_eq!((a.replica.last_seq(), b.replica.last_seq()), (seq, seq));
        }
        for sink in [&a, &b] {
            let log = sink.log.lock();
            assert!(log.iter().all(|d| d.inline && d.thread == me), "{log:?}");
            assert_eq!(sink.replica.state_json(), room.state_json());
        }
        assert_eq!(queue.stats().submitted, 0, "no drain was queued");
        queue.shutdown();
    }

    #[test]
    fn the_actors_echo_is_delivered_last() {
        let (room, queue) = queued_room(RoomConfig::new("r"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let names = ["m0", "m1", "m2", "m3", "m4"];
        let sinks: Vec<_> = names
            .iter()
            .map(|name| InlineSink::new(name, &order, || true))
            .collect();
        for (name, sink) in names.iter().zip(&sinks) {
            room.join(name, sink.clone(), 0);
        }
        for round in 0..50 {
            let actor = names[round % names.len()];
            order.lock().clear();
            room.publish(actor, "k", Value::I64(round as i64)).unwrap();
            let order = order.lock();
            assert_eq!(order.len(), names.len(), "each member once");
            assert_eq!(order.last().map(String::as_str), Some(actor), "{order:?}");
        }
        queue.shutdown();
    }

    #[test]
    fn a_sink_answering_none_is_served_by_exactly_one_queued_drain() {
        let (room, queue) = queued_room(RoomConfig::new("r"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let tries = Arc::new(AtomicU64::new(0));
        let queued = {
            let tries = Arc::clone(&tries);
            InlineSink::new("queued", &order, move || {
                tries.fetch_add(1, Ordering::SeqCst);
                false
            })
        };
        let inline = InlineSink::new("inline", &order, || true);
        room.join("queued", queued.clone(), 0);
        room.join("inline", inline.clone(), 0);
        settle(&queue);
        let me = std::thread::current().id();
        for i in 0..20 {
            let (before, tried) = (queue.stats().submitted, tries.load(Ordering::SeqCst));
            let seq = room.publish("inline", "k", Value::I64(i)).unwrap();
            settle(&queue);
            assert_eq!(queue.stats().submitted - before, 1, "publish {i}");
            assert_eq!(
                tries.load(Ordering::SeqCst) - tried,
                1,
                "one inline attempt"
            );
            let log = queued.log.lock();
            let last = log.last().unwrap();
            assert_eq!((last.seq, last.inline), (seq, false));
            assert_ne!(last.thread, me, "delivered by a serve worker");
        }
        // `queued` also saw `inline` join (seq 2).
        let published: Vec<u64> = (3..=room.seq()).collect();
        assert_eq!(
            queued.delta_seqs()[1..],
            published,
            "each delta once, in order"
        );
        assert_eq!(inline.delta_seqs(), published);
        assert_eq!(queued.replica.state_json(), room.state_json());
        assert_eq!(room.stats().busy_kicks, 0);
        queue.shutdown();
    }

    #[test]
    fn a_sink_that_starts_refusing_mid_stream_loses_and_duplicates_nothing() {
        // A buffer that holds the whole run: every delta must arrive as
        // itself, none folded into a snapshot.
        let (room, queue) = queued_room(RoomConfig::new("r").with_member_buffer(1 << 12));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Takes two of every five offers inline, from the tenth on.
        let offers = Arc::new(AtomicU64::new(0));
        let fickle = {
            let offers = Arc::clone(&offers);
            InlineSink::new("fickle", &order, move || {
                let n = offers.fetch_add(1, Ordering::SeqCst);
                n < 10 || n % 5 < 2
            })
        };
        let steady = InlineSink::new("steady", &order, || true);
        room.join("fickle", fickle.clone(), 0);
        room.join("steady", steady.clone(), 0);
        std::thread::scope(|scope| {
            for member in ["fickle", "steady"] {
                let room = &room;
                scope.spawn(move || {
                    for i in 0..300 {
                        room.publish(member, format!("k{}", i % 11), Value::I64(i))
                            .unwrap();
                    }
                });
            }
        });
        settle(&queue);
        let log = fickle.log.lock();
        assert!(log.iter().any(|d| d.inline) && log.iter().any(|d| !d.inline));
        drop(log);
        // `fickle` also saw `steady` join (seq 2).
        let published: Vec<u64> = (3..=room.seq()).collect();
        assert_eq!(
            fickle.delta_seqs()[1..],
            published,
            "every delta once, in order"
        );
        assert_eq!(steady.delta_seqs(), published);
        for sink in [&fickle, &steady] {
            assert_eq!(sink.replica.state_json(), room.state_json());
            assert_eq!((sink.replica.gaps(), sink.replica.duplicates()), (0, 0));
        }
        assert_eq!(room.stats().coalesced_snapshots, 0);
        queue.shutdown();
    }

    #[test]
    fn an_overflow_coalesce_racing_an_inline_send_still_delivers_its_snapshot() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        // The inline send of one delta stops half-way until the main
        // thread has overflowed the member's buffer (2) behind it, then
        // takes the delta (`take`) or hands it back.
        for take in [true, false] {
            let (room, queue) = queued_room(RoomConfig::new("r").with_member_buffer(2));
            let order = Arc::new(Mutex::new(Vec::new()));
            let (entered_tx, entered) = mpsc::channel::<()>();
            let (go, go_rx) = mpsc::channel::<()>();
            let gate = Mutex::new((entered_tx, go_rx));
            let armed = Arc::new(AtomicBool::new(false));
            let sink = {
                let armed = Arc::clone(&armed);
                InlineSink::new("m", &order, move || {
                    if !armed.swap(false, Ordering::SeqCst) {
                        return true;
                    }
                    let gate = gate.lock();
                    gate.0.send(()).unwrap();
                    gate.1.recv().unwrap();
                    take
                })
            };
            assert_eq!(room.join("m", sink.clone(), 0), 1);
            armed.store(true, Ordering::SeqCst);
            std::thread::scope(|scope| {
                let stalled = scope.spawn(|| room.publish("m", "k0", Value::I64(0)).unwrap());
                entered.recv_timeout(Duration::from_secs(5)).unwrap();
                // Seqs 3 and 4 fill the buffer behind seq 2, seq 5
                // overflows it into a snapshot at 5, and seq 6 queues
                // behind that.
                for i in 1..5 {
                    room.publish("m", format!("k{i}"), Value::I64(i)).unwrap();
                }
                assert_eq!(room.stats().coalesced_snapshots, 1);
                go.send(()).unwrap();
                assert_eq!(stalled.join().unwrap(), 2);
            });
            settle(&queue);
            let log = sink.log.lock().clone();
            let snapshot = |seq| log.iter().any(|d| d.snapshot && d.seq == seq);
            assert!(snapshot(5), "take={take}: {log:?}");
            // Taken or handed back, the delta stays owed ahead of the
            // snapshot that covers it: nothing lost, nothing twice.
            assert_eq!(sink.delta_seqs(), vec![2, 6], "take={take}");
            assert_eq!(sink.replica.state_json(), room.state_json());
            assert_eq!((sink.replica.gaps(), sink.replica.duplicates()), (0, 0));
            assert_eq!(room.stats().coalesced_snapshots, 1, "no second snapshot");
            queue.shutdown();
        }
    }

    #[test]
    fn an_update_refused_during_a_rejoin_is_not_handed_to_the_new_sink() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        let (room, queue) = queued_room(RoomConfig::new("r"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (entered_tx, entered) = mpsc::channel::<()>();
        let (go, go_rx) = mpsc::channel::<()>();
        let gate = Mutex::new((entered_tx, go_rx));
        let armed = Arc::new(AtomicBool::new(false));
        let old = {
            let armed = Arc::clone(&armed);
            InlineSink::new("m", &order, move || {
                if !armed.swap(false, Ordering::SeqCst) {
                    return true;
                }
                let gate = gate.lock();
                gate.0.send(()).unwrap();
                gate.1.recv().unwrap();
                false
            })
        };
        room.join("m", old.clone(), 0);
        armed.store(true, Ordering::SeqCst);
        let new = InlineSink::new("m", &order, || true);
        std::thread::scope(|scope| {
            // The old sink stalls on seq 2, the member rejoins with a new
            // one meanwhile, and then the old sink hands seq 2 back.
            let stalled = scope.spawn(|| room.publish("m", "k", Value::I64(0)).unwrap());
            entered.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(room.join("m", new.clone(), 0), 2);
            go.send(()).unwrap();
            assert_eq!(stalled.join().unwrap(), 2);
        });
        settle(&queue);
        room.publish("m", "k", Value::I64(1)).unwrap();
        settle(&queue);
        // The new sink starts from its own snapshot, which holds seq 2.
        let log = new.log.lock().clone();
        let seqs: Vec<(u64, bool)> = log.iter().map(|d| (d.seq, d.snapshot)).collect();
        assert_eq!(seqs, vec![(2, true), (3, false)]);
        assert_eq!(new.replica.duplicates(), 0);
        assert_eq!(new.replica.state_json(), room.state_json());
        assert_eq!(old.delta_seqs(), Vec::<u64>::new());
        queue.shutdown();
    }

    #[test]
    fn update_composes_concurrent_increments() {
        let room = Room::new(RoomConfig::new("cart"));
        room.join("a", RecordingSink::new("cart"), 0);
        room.join("b", RecordingSink::new("cart"), 0);
        let bump = |member: &str| {
            room.update(member, "qty", |old| {
                Value::I64(old.and_then(Value::as_i64).unwrap_or(0) + 1)
            })
            .unwrap()
        };
        bump("a");
        bump("b");
        bump("a");
        let (_, state) = room.snapshot();
        assert_eq!(state.get("qty"), Some(&Value::I64(3)));
    }

    #[test]
    fn non_member_rejected() {
        let room = Room::new(RoomConfig::new("r"));
        assert_eq!(
            room.publish("ghost", "k", Value::Unit),
            Err(RoomError::NotAMember("ghost".into()))
        );
        assert!(room.leave("ghost").is_none());
        assert!(!room.renew("ghost", 0));
    }

    #[test]
    fn update_properties_round_trip() {
        let delta = RoomUpdate::Delta(RoomDelta {
            seq: 42,
            member: "a".into(),
            key: "cursor/a".into(),
            op: RoomOp::Put(Value::structure(
                "room.Cursor",
                [("x", Value::I64(3)), ("y", Value::I64(4))],
            )),
        });
        assert_eq!(
            RoomUpdate::from_properties(&delta.to_properties()),
            Some(delta)
        );
        let removal = RoomUpdate::Delta(RoomDelta {
            seq: 43,
            member: "a".into(),
            key: "k".into(),
            op: RoomOp::Remove,
        });
        assert_eq!(
            RoomUpdate::from_properties(&removal.to_properties()),
            Some(removal)
        );
        let snap = RoomUpdate::Snapshot {
            seq: 44,
            state: BTreeMap::from([("k".to_string(), Value::I64(1))]),
        };
        assert_eq!(
            RoomUpdate::from_properties(&snap.to_properties()),
            Some(snap)
        );
        assert_eq!(RoomUpdate::from_properties(&Properties::new()), None);
    }

    #[test]
    fn replica_counts_gaps_and_duplicates() {
        let replica = RoomReplica::new("r");
        replica.apply(&RoomUpdate::Snapshot {
            seq: 5,
            state: BTreeMap::new(),
        });
        let delta = |seq| {
            RoomUpdate::Delta(RoomDelta {
                seq,
                member: "m".into(),
                key: "k".into(),
                op: RoomOp::Put(Value::I64(seq as i64)),
            })
        };
        replica.apply(&delta(6));
        replica.apply(&delta(6)); // duplicate
        replica.apply(&delta(9)); // gap
        assert_eq!(replica.last_seq(), 6);
        assert_eq!(replica.duplicates(), 1);
        assert_eq!(replica.gaps(), 1);
    }

    #[test]
    fn hub_service_methods() {
        let hub = RoomHub::new(RoomConfig::new("default"));
        let svc = RoomHubService::new(Arc::clone(&hub));
        // join requires a rostered endpoint — absent here, so the caller
        // is told to retry.
        assert!(matches!(
            svc.invoke("join", &[Value::from("r"), Value::from("ghost")]),
            Err(ServiceCallError::Busy { .. })
        ));
        // Seed a room directly and exercise the read/write methods.
        let room = hub.get_or_create("r");
        room.join("a", RecordingSink::new("r"), 0);
        let seq = svc
            .invoke(
                "publish",
                &[
                    Value::from("r"),
                    Value::from("a"),
                    Value::from("k"),
                    Value::I64(5),
                ],
            )
            .unwrap();
        assert_eq!(seq, Value::I64(2));
        let snap = svc.invoke("snapshot", &[Value::from("r")]).unwrap();
        assert_eq!(snap.field("seq"), Some(&Value::I64(2)));
        let members = svc.invoke("members", &[Value::from("r")]).unwrap();
        assert_eq!(members.as_list().unwrap().len(), 1);
        assert_eq!(
            svc.invoke("seq", &[Value::from("r")]).unwrap(),
            Value::I64(2)
        );
        assert!(matches!(
            svc.invoke("snapshot", &[Value::from("nope")]),
            Err(ServiceCallError::Failed(_))
        ));
        assert!(matches!(
            svc.invoke("bogus", &[]),
            Err(ServiceCallError::NoSuchMethod(_))
        ));
        // Interface describes every method.
        let iface = RoomHubService::interface();
        for m in [
            "join", "leave", "renew", "publish", "retract", "snapshot", "members", "seq",
        ] {
            assert!(iface.method(m).is_some(), "{m}");
        }
    }
}
