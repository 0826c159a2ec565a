//! The sharded pending-call table.
//!
//! Every outstanding remote invocation needs a rendezvous between the
//! calling thread (which blocks for the response) and the transport's
//! delivery thread (which routes the `Response` frame back by `call_id`:
//! a reactor poller, or an in-memory wire's pump). The original
//! implementation used one global `Mutex<HashMap<u64, Sender>>` plus a
//! fresh bounded channel per call — all concurrent callers serialized on
//! one lock and every call allocated a channel.
//!
//! This table fixes both costs:
//!
//! * **Sharding** — `call_id % N` picks one of N independent shards, so
//!   callers on different threads register and complete calls without
//!   touching each other's locks. Call ids come from one `AtomicU64`
//!   counter, so consecutive calls round-robin across shards by
//!   construction.
//! * **Slot reuse** — the rendezvous itself is a [`CallSlot`]
//!   (mutex + condvar one-shot cell), and each shard keeps a free list
//!   of spent slots. A slot whose outcome arrived is recycled at once —
//!   its one completer has filled it and can only wake it once more. A
//!   slot that timed out is recycled only when the waiter can prove it
//!   holds the last reference (`Arc::strong_count == 1` after the slot
//!   has left the map), so a completer that may still fill it can never
//!   fill a reset slot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alfredo_sync::{Condvar, Mutex};

/// Number of shards. A small power of two: enough that an 8–16 thread
/// caller pool rarely collides, small enough to keep the table compact.
pub(crate) const SHARDS: usize = 16;

/// Maximum spent slots retained per shard.
const MAX_FREE: usize = 32;

/// Milliseconds of budget left until `deadline` — the per-attempt wire
/// stamp for deadline propagation. Each attempt re-stamps its *remaining*
/// time, so a retry after backoff ships a smaller budget than the first
/// attempt. Returns `None` once the deadline has passed (the attempt is
/// pointless and must not be sent); never returns `Some(0)`, which a
/// receiver could not distinguish from already-expired.
pub(crate) fn remaining_budget_ms(deadline: std::time::Instant) -> Option<u64> {
    let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
    let ms = remaining.as_millis().min(u128::from(u64::MAX)) as u64;
    Some(ms.max(1))
}

/// One-shot rendezvous cell for a single outstanding call.
///
/// The lifecycle is `Waiting` → `Done(outcome)`; [`CallTable::register`]
/// resets recycled slots back to `Waiting` before they are visible again.
pub(crate) struct CallSlot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

enum SlotState<T> {
    Waiting,
    Done(T),
}

impl<T> CallSlot<T> {
    fn new() -> Self {
        CallSlot {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        }
    }

    /// Delivers the outcome and wakes the waiter.
    fn fill(&self, outcome: T) {
        *self.state.lock() = SlotState::Done(outcome);
        self.cv.notify_all();
    }

    /// Blocks until the outcome arrives or `timeout` elapses.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<T> {
        let mut state = self.state.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let SlotState::Done(_) = &*state {
                match std::mem::replace(&mut *state, SlotState::Waiting) {
                    SlotState::Done(outcome) => return Some(outcome),
                    SlotState::Waiting => unreachable!("checked Done above"),
                }
            }
            let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, timed_out) = self.cv.wait_timeout(state, remaining);
            state = guard;
            if timed_out {
                // One last look: the completer may have filled the slot
                // between the timeout and reacquiring the lock.
                if let SlotState::Done(_) = &*state {
                    continue;
                }
                return None;
            }
        }
    }
}

struct Shard<T> {
    pending: Mutex<HashMap<u64, Arc<CallSlot<T>>>>,
    free: Mutex<Vec<Arc<CallSlot<T>>>>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            pending: Mutex::new(HashMap::new()),
            free: Mutex::new(Vec::new()),
        }
    }
}

/// Sharded map of outstanding calls, keyed by `call_id`.
pub(crate) struct CallTable<T> {
    shards: Vec<Shard<T>>,
    slots_reused: AtomicU64,
}

impl<T> CallTable<T> {
    pub(crate) fn new() -> Self {
        CallTable {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            slots_reused: AtomicU64::new(0),
        }
    }

    fn shard(&self, call_id: u64) -> &Shard<T> {
        &self.shards[(call_id as usize) % self.shards.len()]
    }

    /// Registers a new outstanding call and returns its waiter slot,
    /// recycled from the shard's free list when possible.
    pub(crate) fn register(&self, call_id: u64) -> Arc<CallSlot<T>> {
        let shard = self.shard(call_id);
        let slot = shard.free.lock().pop();
        let slot = match slot {
            Some(slot) => {
                // A recycled slot is guaranteed idle (strong_count was 1
                // when it entered the free list), but reset defensively:
                // a timed-out call's late response may have filled it.
                *slot.state.lock() = SlotState::Waiting;
                self.slots_reused.fetch_add(1, Ordering::Relaxed);
                slot
            }
            None => Arc::new(CallSlot::new()),
        };
        shard.pending.lock().insert(call_id, Arc::clone(&slot));
        slot
    }

    /// Routes an outcome to the waiter, if the call is still outstanding.
    /// Returns `false` for unknown ids (timed-out or cancelled calls).
    pub(crate) fn complete(&self, call_id: u64, outcome: T) -> bool {
        let slot = self.shard(call_id).pending.lock().remove(&call_id);
        match slot {
            Some(slot) => {
                slot.fill(outcome);
                true
            }
            None => false,
        }
    }

    /// Forgets an outstanding call (timeout / send-failure path).
    pub(crate) fn cancel(&self, call_id: u64) {
        self.shard(call_id).pending.lock().remove(&call_id);
    }

    /// Returns a spent slot to its shard's free list. Call only after
    /// the id has been removed from the map (via a delivered outcome or
    /// [`Self::cancel`]). A slot whose outcome was `delivered` is kept
    /// even while its completer still holds a clone: that completer has
    /// filled it already and only wakes the cell and lets go, which a
    /// later call on the slot takes as a spurious wake-up. An undelivered
    /// slot is kept only if the caller holds the last reference, so a
    /// completer that may still fill it blocks recycling.
    pub(crate) fn recycle(&self, call_id: u64, slot: Arc<CallSlot<T>>, delivered: bool) {
        if !delivered && Arc::strong_count(&slot) != 1 {
            return;
        }
        let mut free = self.shard(call_id).free.lock();
        if free.len() < MAX_FREE {
            free.push(slot);
        }
    }

    /// Completes every outstanding call with an outcome from `make`
    /// (connection teardown).
    pub(crate) fn fail_all(&self, mut make: impl FnMut() -> T) {
        for shard in &self.shards {
            let drained: Vec<_> = shard.pending.lock().drain().collect();
            for (_, slot) in drained {
                slot.fill(make());
            }
        }
    }

    /// Outstanding calls across all shards.
    pub(crate) fn outstanding(&self) -> usize {
        self.shards.iter().map(|s| s.pending.lock().len()).sum()
    }

    /// How many registrations were served from a recycled slot.
    pub(crate) fn slots_reused(&self) -> u64 {
        self.slots_reused.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn remaining_budget_stamps_positive_or_nothing() {
        let future = std::time::Instant::now() + Duration::from_millis(250);
        let ms = remaining_budget_ms(future).expect("future deadline has budget");
        assert!((1..=250).contains(&ms), "{ms}");
        let past = std::time::Instant::now() - Duration::from_millis(1);
        assert_eq!(remaining_budget_ms(past), None);
        // A deadline a hair away stamps at least 1 ms, never 0.
        let hair = std::time::Instant::now() + Duration::from_micros(10);
        if let Some(ms) = remaining_budget_ms(hair) {
            assert!(ms >= 1);
        }
    }

    #[test]
    fn complete_routes_to_waiter() {
        let table = CallTable::new();
        let slot = table.register(7);
        assert!(table.complete(7, 42u32));
        assert_eq!(slot.wait(Duration::from_millis(100)), Some(42));
        table.recycle(7, slot, true);
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn unknown_call_id_is_rejected() {
        let table: CallTable<u32> = CallTable::new();
        assert!(!table.complete(99, 1));
    }

    #[test]
    fn timeout_leaves_table_clean_after_cancel() {
        let table: CallTable<u32> = CallTable::new();
        let slot = table.register(3);
        assert_eq!(slot.wait(Duration::from_millis(10)), None);
        table.cancel(3);
        table.recycle(3, slot, false);
        assert_eq!(table.outstanding(), 0);
        // A late response for the cancelled id is dropped.
        assert!(!table.complete(3, 1));
    }

    #[test]
    fn slots_are_reused_across_sequential_calls() {
        let table = CallTable::new();
        // Same shard: ids congruent mod SHARDS.
        for i in 0..10u64 {
            let id = i * SHARDS as u64;
            let slot = table.register(id);
            assert!(table.complete(id, i));
            assert_eq!(slot.wait(Duration::from_millis(100)), Some(i));
            table.recycle(id, slot, true);
        }
        assert_eq!(table.slots_reused(), 9, "first call allocates, rest reuse");
    }

    #[test]
    fn recycle_refuses_shared_slots() {
        let table: CallTable<u32> = CallTable::new();
        let slot = table.register(1);
        let clone = Arc::clone(&slot); // a completer still holds it
        table.cancel(1);
        table.recycle(1, slot, false);
        let slot2 = table.register(1 + SHARDS as u64);
        assert_eq!(table.slots_reused(), 0, "shared slot must not recycle");
        drop(clone);
        drop(slot2);
    }

    /// The completer still holds its clone when the waiter has the
    /// outcome (it has yet to wake the cell and let go): the slot is
    /// reused all the same, and the late wake-up does not disturb the
    /// next call on it.
    #[test]
    fn delivered_slot_recycles_while_the_completer_lets_go() {
        let table: CallTable<u32> = CallTable::new();
        let slot = table.register(1);
        let completer = Arc::clone(&slot);
        assert!(table.complete(1, 5));
        assert_eq!(slot.wait(Duration::from_millis(100)), Some(5));
        table.recycle(1, slot, true);
        let next = table.register(1 + SHARDS as u64);
        assert_eq!(table.slots_reused(), 1);
        completer.cv.notify_all();
        drop(completer);
        assert_eq!(
            next.wait(Duration::from_millis(20)),
            None,
            "no stale outcome"
        );
        assert!(table.complete(1 + SHARDS as u64, 6));
        assert_eq!(next.wait(Duration::from_millis(100)), Some(6));
    }

    #[test]
    fn fail_all_wakes_every_waiter() {
        let table: Arc<CallTable<Result<u32, &'static str>>> = Arc::new(CallTable::new());
        let mut handles = Vec::new();
        let mut slots = Vec::new();
        for id in 0..20 {
            slots.push((id, table.register(id)));
        }
        for (_, slot) in &slots {
            let slot = Arc::clone(slot);
            handles.push(thread::spawn(move || {
                slot.wait(Duration::from_secs(5)).expect("failed outcome")
            }));
        }
        table.fail_all(|| Err("closed"));
        for h in handles {
            assert_eq!(h.join().unwrap(), Err("closed"));
        }
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn concurrent_callers_route_correctly() {
        let table: Arc<CallTable<u64>> = Arc::new(CallTable::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let table = Arc::clone(&table);
            handles.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let id = t * 1_000 + i;
                    let slot = table.register(id);
                    let completer = {
                        let table = Arc::clone(&table);
                        thread::spawn(move || assert!(table.complete(id, id * 2)))
                    };
                    assert_eq!(slot.wait(Duration::from_secs(5)), Some(id * 2));
                    completer.join().unwrap();
                    table.recycle(id, slot, true);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.outstanding(), 0);
        assert!(table.slots_reused() > 0);
    }
}
