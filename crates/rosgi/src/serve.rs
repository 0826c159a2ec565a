//! The serving side's bounded work queue and worker pool.
//!
//! Without a queue, every endpoint serves incoming invocations inline on
//! its transport's delivery thread (a reactor poller shared with other
//! connections, or an in-memory wire's pump) — fine for one phone per
//! connection, but a device with many phones gets no parallelism within
//! a connection and no bound on queued work. A [`ServeQueue`] gives the
//! device:
//!
//! * **A worker pool** — N workers drain invocations concurrently, so
//!   slow service methods from one call don't block delivery (leases,
//!   pings, and stream frames keep flowing).
//! * **Explicit backpressure** — the queue is bounded per peer and in
//!   total. A rejected invocation is answered with
//!   [`alfredo_osgi::ServiceCallError::Busy`] carrying a retry-after
//!   hint, which the caller's retry machinery honors (a `Busy` rejection
//!   means the call never ran, so retrying is always safe — no
//!   idempotence requirement).
//! * **Per-peer fairness** — workers drain peers round-robin, one job
//!   per turn, so a chatty phone flooding its queue cannot starve the
//!   others; it only ever consumes its own per-peer depth.
//! * **Deadline-aware shedding** — when the caller propagates its
//!   remaining deadline, an entry whose budget has elapsed is dropped
//!   *before execution* (the worker runs its `on_expired` responder —
//!   [`alfredo_osgi::ServiceCallError::DeadlineExceeded`] — instead of
//!   the job), and a call predicted to miss its deadline while queued
//!   (estimated wait from an EWMA of observed service times × depth) is
//!   shed at enqueue. Both sheds mean the call never ran, so they compose
//!   with non-idempotent methods.
//!
//! One queue is shared by every endpoint of a device (pass the same
//! handle to each [`crate::EndpointConfig::with_serve_queue`]). The
//! queue must be [`ServeQueue::shutdown`] when the device stops; workers
//! otherwise stay parked until process exit.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alfredo_sync::{Condvar, Mutex};

/// A queued unit of serving work (decode → invoke → respond).
pub type ServeJob = Box<dyn FnOnce() + Send>;

/// One queued entry: the job, the caller's absolute deadline (when
/// propagated), and the responder to run instead of the job if the
/// deadline expires while queued.
struct Entry {
    job: ServeJob,
    deadline: Option<Instant>,
    on_expired: Option<ServeJob>,
}

/// How [`ServeQueue::submit_with_deadline`] disposed of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued; the job (or its expiry responder) will run on a worker.
    Accepted,
    /// Rejected by backpressure (peer/total depth, or shutdown): answer
    /// `Busy` with the retry-after hint.
    Busy,
    /// Rejected because the caller's deadline has already elapsed or is
    /// predicted to elapse before a worker reaches the entry: answer
    /// `DeadlineExceeded`. The call never ran.
    Shed,
}

/// EWMA weight: new sample counts 1/8, history 7/8 — smooth enough to
/// ignore one outlier, fresh enough to track a load shift in ~10 calls.
const EWMA_SHIFT: u32 = 3;

/// Sizing and backpressure knobs for a [`ServeQueue`].
#[derive(Debug, Clone)]
pub struct ServeQueueConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Maximum invocations queued per peer; the bound that keeps one
    /// chatty phone from monopolizing the queue.
    pub per_peer_depth: usize,
    /// Maximum invocations queued across all peers.
    pub total_depth: usize,
    /// The retry-after hint sent with `Busy` rejections.
    pub retry_after: Duration,
}

impl Default for ServeQueueConfig {
    fn default() -> Self {
        ServeQueueConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            per_peer_depth: 64,
            total_depth: 512,
            retry_after: Duration::from_millis(2),
        }
    }
}

impl ServeQueueConfig {
    /// A config with `workers` worker threads and defaults otherwise.
    /// `workers(1)` is the serialized baseline the scale benchmark
    /// measures against.
    pub fn workers(workers: usize) -> Self {
        ServeQueueConfig {
            workers: workers.max(1),
            ..ServeQueueConfig::default()
        }
    }
}

/// Counter snapshot of a queue's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeQueueStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs rejected with `Busy` (peer or total depth exceeded).
    pub rejected: u64,
    /// Jobs executed by a worker.
    pub served: u64,
    /// Entries dropped by a worker because the caller's deadline expired
    /// while queued — the job never executed.
    pub shed_expired: u64,
    /// Submissions rejected at enqueue because the estimated queue wait
    /// exceeded the caller's remaining budget.
    pub shed_predicted: u64,
    /// Jobs currently queued.
    pub depth: usize,
}

struct QueueState {
    /// Pending jobs per peer. Lanes are keyed by `Arc<str>` so the ring
    /// shares the key and a caller that already owns one (the room
    /// fan-out) enqueues without allocating.
    queues: HashMap<Arc<str>, VecDeque<Entry>>,
    /// Round-robin ring of peers with at least one pending job. A peer
    /// appears at most once; workers pop from the front and re-append
    /// the peer only if it still has work — one job per peer per turn.
    ring: VecDeque<Arc<str>>,
    total: usize,
    /// Set by [`ServeQueue::shutdown`] under the lock, which is what lets
    /// workers park without a timeout: a worker checks it under the same
    /// lock hold in which it decides to wait, so the wake cannot be lost.
    shutdown: bool,
}

impl QueueState {
    /// Appends `entry` to `peer`'s lane, unless the queue is shut down or
    /// the whole queue or the lane is at its depth bound: then the entry
    /// comes back, for the caller to drop once it has let go of the lock
    /// (a job owns what it captured, and that may be the last handle on
    /// anything).
    fn enqueue(
        &mut self,
        config: &ServeQueueConfig,
        peer: Arc<str>,
        entry: Entry,
    ) -> Result<(), Entry> {
        if self.shutdown || self.total >= config.total_depth {
            return Err(entry);
        }
        let lane = self.queues.entry(Arc::clone(&peer)).or_default();
        if lane.len() >= config.per_peer_depth {
            return Err(entry);
        }
        if lane.is_empty() {
            self.ring.push_back(peer);
        }
        lane.push_back(entry);
        self.total += 1;
        Ok(())
    }
}

struct QueueInner {
    config: ServeQueueConfig,
    state: Mutex<QueueState>,
    ready: Condvar,
    submitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    shed_expired: AtomicU64,
    shed_predicted: AtomicU64,
    /// EWMA of observed job service time in nanoseconds (0 = no sample
    /// yet). Workers update it after every executed job; submissions use
    /// it to predict the queue wait for deadline shedding.
    ewma_service_nanos: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A bounded, peer-fair work queue shared by a device's endpoints.
/// Cloning yields another handle to the same queue.
#[derive(Clone)]
pub struct ServeQueue {
    inner: Arc<QueueInner>,
}

impl ServeQueue {
    /// Creates the queue and spawns its workers.
    pub fn new(config: ServeQueueConfig) -> Self {
        let inner = Arc::new(QueueInner {
            config: config.clone(),
            state: Mutex::new(QueueState {
                queues: HashMap::new(),
                ring: VecDeque::new(),
                total: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed_expired: AtomicU64::new(0),
            shed_predicted: AtomicU64::new(0),
            ewma_service_nanos: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = inner.workers.lock();
        for i in 0..config.workers.max(1) {
            let w = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rosgi-serve-{i}"))
                    .spawn(move || worker_loop(&w))
                    .expect("spawn serve worker"),
            );
        }
        drop(workers);
        ServeQueue { inner }
    }

    /// The retry-after hint for `Busy` rejections, in milliseconds.
    pub fn retry_after_ms(&self) -> u64 {
        self.inner.config.retry_after.as_millis() as u64
    }

    /// Enqueues `job` on behalf of `peer`. Returns `false` — reject with
    /// `Busy` — when the peer's queue or the whole queue is full, or the
    /// queue is shut down.
    pub fn submit(&self, peer: &str, job: ServeJob) -> bool {
        self.submit_with_deadline(peer, job, None, None) == SubmitOutcome::Accepted
    }

    /// Enqueues `job` for `peer` with the caller's absolute `deadline`.
    ///
    /// Deadline handling, when `deadline` is `Some`:
    ///
    /// * **Already expired** → [`SubmitOutcome::Shed`], nothing queued.
    /// * **Predicted to expire while queued** (estimated wait — the EWMA
    ///   of observed service times × queued entries per worker — exceeds
    ///   the remaining budget) → [`SubmitOutcome::Shed`], nothing queued.
    /// * **Expires before a worker reaches the entry** → the worker runs
    ///   `on_expired` instead of the job (counted in
    ///   [`ServeQueueStats::shed_expired`]).
    ///
    /// In every shed case the job itself never executes, so shedding is
    /// safe for non-idempotent calls.
    pub fn submit_with_deadline(
        &self,
        peer: &str,
        job: ServeJob,
        deadline: Option<Instant>,
        on_expired: Option<ServeJob>,
    ) -> SubmitOutcome {
        let inner = &self.inner;
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let entry = Entry {
            job,
            deadline,
            on_expired,
        };
        // One lock hold covers the shutdown check, the wait prediction
        // and the enqueue.
        let mut state = inner.state.lock();
        if state.shutdown {
            drop(state);
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Busy;
        }
        if let Some(remaining) = remaining {
            // Entries ahead of this one, spread across the workers, each
            // costing about one EWMA service time (0 = no sample yet).
            let ewma = inner.ewma_service_nanos.load(Ordering::Relaxed);
            let per_worker = state.total as u64 / inner.config.workers.max(1) as u64 + 1;
            let estimated_wait = Duration::from_nanos(ewma.saturating_mul(per_worker));
            if remaining.is_zero() || estimated_wait > remaining {
                drop(state);
                inner.shed_predicted.fetch_add(1, Ordering::Relaxed);
                return SubmitOutcome::Shed;
            }
        }
        let outcome = state.enqueue(&inner.config, Arc::from(peer), entry);
        drop(state);
        if outcome.is_err() {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Busy;
        }
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.ready.notify_one();
        SubmitOutcome::Accepted
    }

    /// Enqueues several jobs, each under its own peer lane, in **one**
    /// queue transaction: the state lock is taken once and the workers
    /// are woken once at the end. Every job is admitted or rejected
    /// exactly as [`ServeQueue::submit`] would have decided it at that
    /// point of the batch (shutdown, total depth, then the peer's depth;
    /// lanes join the round-robin ring in batch order), and the indices
    /// of the rejected jobs are returned — empty when all were accepted.
    /// Rejected jobs are dropped without running.
    pub fn submit_batch(&self, jobs: Vec<(Arc<str>, ServeJob)>) -> Vec<usize> {
        let inner = &self.inner;
        let offered = jobs.len();
        let mut rejected = Vec::new();
        let mut bounced = Vec::new();
        let mut state = inner.state.lock();
        for (i, (peer, job)) in jobs.into_iter().enumerate() {
            let entry = Entry {
                job,
                deadline: None,
                on_expired: None,
            };
            if let Err(entry) = state.enqueue(&inner.config, peer, entry) {
                rejected.push(i);
                bounced.push(entry);
            }
        }
        drop(state);
        drop(bounced);
        let accepted = offered - rejected.len();
        inner
            .submitted
            .fetch_add(accepted as u64, Ordering::Relaxed);
        inner
            .rejected
            .fetch_add(rejected.len() as u64, Ordering::Relaxed);
        for _ in 0..accepted.min(inner.config.workers.max(1)) {
            inner.ready.notify_one();
        }
        rejected
    }

    /// Jobs currently queued for `peer` alone (the fairness lane the
    /// room fan-out shares with the peer's RPCs). Zero for unknown peers.
    pub fn peer_depth(&self, peer: &str) -> usize {
        self.inner
            .state
            .lock()
            .queues
            .get(peer)
            .map_or(0, VecDeque::len)
    }

    /// Lifetime counters and current depth.
    pub fn stats(&self) -> ServeQueueStats {
        ServeQueueStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            served: self.inner.served.load(Ordering::Relaxed),
            shed_expired: self.inner.shed_expired.load(Ordering::Relaxed),
            shed_predicted: self.inner.shed_predicted.load(Ordering::Relaxed),
            depth: self.inner.state.lock().total,
        }
    }

    /// Stops the workers after the queue drains and joins them.
    /// Subsequent submissions are rejected. Idempotent.
    pub fn shutdown(&self) {
        self.inner.state.lock().shutdown = true;
        self.inner.ready.notify_all();
        let workers: Vec<JoinHandle<()>> = self.inner.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ServeQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeQueue")
            .field("workers", &self.inner.config.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

fn worker_loop(inner: &Arc<QueueInner>) {
    loop {
        let entry = {
            let mut state = inner.state.lock();
            loop {
                if let Some(peer) = state.ring.pop_front() {
                    let queue = state.queues.get_mut(&peer).expect("ring peer has a queue");
                    let entry = queue.pop_front().expect("ring peer has a job");
                    if queue.is_empty() {
                        state.queues.remove(&peer);
                    } else {
                        // Round-robin: the peer goes to the back of the
                        // ring so every other waiting peer is drained
                        // once before its next job runs.
                        state.ring.push_back(peer);
                    }
                    state.total -= 1;
                    break entry;
                }
                if state.shutdown {
                    return;
                }
                state = inner.ready.wait(state);
            }
        };
        // The deadline gate sits immediately before execution: expired
        // work is answered (not run), so a caller that already gave up
        // never consumes device time.
        if let Some(deadline) = entry.deadline {
            if Instant::now() >= deadline {
                inner.shed_expired.fetch_add(1, Ordering::Relaxed);
                if let Some(respond) = entry.on_expired {
                    respond();
                }
                continue;
            }
        }
        let started = Instant::now();
        (entry.job)();
        let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // Lossy EWMA update: racing workers may drop each other's sample,
        // which is fine for a load estimate.
        let old = inner.ewma_service_nanos.load(Ordering::Relaxed);
        let new = if old == 0 {
            nanos
        } else {
            old - (old >> EWMA_SHIFT) + (nanos >> EWMA_SHIFT)
        };
        inner
            .ewma_service_nanos
            .store(new.max(1), Ordering::Relaxed);
        inner.served.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_submitted_jobs() {
        let q = ServeQueue::new(ServeQueueConfig::workers(2));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let d = Arc::clone(&done);
            assert!(q.submit(
                "phone",
                Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                })
            ));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 10 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 10);
        let stats = q.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.rejected, 0);
        q.shutdown();
        assert_eq!(q.stats().served, 10);
    }

    #[test]
    fn per_peer_depth_rejects_flood() {
        // One worker blocked on a gate: the flooding peer can queue at
        // most per_peer_depth jobs, then gets rejected, while another
        // peer still gets accepted (total depth not exhausted).
        let q = ServeQueue::new(ServeQueueConfig {
            workers: 1,
            per_peer_depth: 4,
            total_depth: 64,
            retry_after: Duration::from_millis(1),
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(q.submit(
            "chatty",
            Box::new(move || {
                let mut open = g.0.lock();
                while !*open {
                    let (guard, _) = g.1.wait_timeout(open, Duration::from_secs(5));
                    open = guard;
                }
            })
        ));
        // Wait until the worker has picked the blocker up so the queue
        // depth is deterministic.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while q.stats().depth > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..10 {
            if q.submit("chatty", Box::new(|| {})) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert_eq!(accepted, 4, "per-peer depth bounds the flood");
        assert_eq!(rejected, 6);
        assert!(
            q.submit("polite", Box::new(|| {})),
            "other peers unaffected"
        );
        *gate.0.lock() = true;
        gate.1.notify_all();
        q.shutdown();
    }

    #[test]
    fn drains_peers_round_robin() {
        // Single worker; peer A floods first, then peer B adds one job.
        // Fairness: B's job must run after at most one more A job, not
        // behind A's whole backlog.
        let order = Arc::new(Mutex::new(Vec::new()));
        let q = ServeQueue::new(ServeQueueConfig {
            workers: 1,
            per_peer_depth: 16,
            total_depth: 64,
            retry_after: Duration::from_millis(1),
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(q.submit(
            "a",
            Box::new(move || {
                let mut open = g.0.lock();
                while !*open {
                    let (guard, _) = g.1.wait_timeout(open, Duration::from_secs(5));
                    open = guard;
                }
            })
        ));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while q.stats().depth > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        for i in 0..8 {
            let o = Arc::clone(&order);
            assert!(q.submit("a", Box::new(move || o.lock().push(format!("a{i}")))));
        }
        let o = Arc::clone(&order);
        assert!(q.submit("b", Box::new(move || o.lock().push("b0".into()))));
        *gate.0.lock() = true;
        gate.1.notify_all();
        q.shutdown();
        let order = order.lock().clone();
        let b_pos = order.iter().position(|x| x == "b0").unwrap();
        assert!(
            b_pos <= 1,
            "b0 served within one round-robin turn, got order {order:?}"
        );
    }

    /// A queue whose single worker is parked inside a job until the
    /// returned gate opens, so what is submitted meanwhile stays queued.
    fn plugged_queue(per_peer_depth: usize, total_depth: usize) -> (ServeQueue, impl FnOnce()) {
        let q = ServeQueue::new(ServeQueueConfig {
            workers: 1,
            per_peer_depth,
            total_depth,
            retry_after: Duration::from_millis(1),
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(q.submit(
            "plug",
            Box::new(move || {
                let mut open = g.0.lock();
                while !*open {
                    open = g.1.wait(open);
                }
            })
        ));
        let deadline = Instant::now() + Duration::from_secs(5);
        while q.stats().depth > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let unplug = move || {
            *gate.0.lock() = true;
            gate.1.notify_all();
        };
        (q, unplug)
    }

    fn batch_of(peers: &[&str], order: &Arc<Mutex<Vec<String>>>) -> Vec<(Arc<str>, ServeJob)> {
        peers
            .iter()
            .enumerate()
            .map(|(i, peer)| {
                let (o, tag) = (Arc::clone(order), format!("{peer}{i}"));
                let job: ServeJob = Box::new(move || o.lock().push(tag));
                (Arc::from(*peer), job)
            })
            .collect()
    }

    #[test]
    fn batch_reports_the_jobs_over_the_per_peer_depth() {
        let (q, unplug) = plugged_queue(2, 64);
        let order = Arc::new(Mutex::new(Vec::new()));
        // Three for `a` (depth 2: the third bounces), `b` in between.
        let rejected = q.submit_batch(batch_of(&["a", "b", "a", "a", "b"], &order));
        assert_eq!(rejected, vec![3]);
        assert_eq!(q.peer_depth("a"), 2);
        assert_eq!(q.peer_depth("b"), 2);
        let stats = q.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.depth), (5, 1, 4));
        unplug();
        q.shutdown();
        let mut ran = order.lock().clone();
        ran.sort();
        assert_eq!(ran, ["a0", "a2", "b1", "b4"], "a rejected job never runs");
    }

    #[test]
    fn batch_reports_the_jobs_over_the_total_depth() {
        let (q, unplug) = plugged_queue(8, 3);
        let order = Arc::new(Mutex::new(Vec::new()));
        let rejected = q.submit_batch(batch_of(&["a", "b", "c", "d", "e"], &order));
        assert_eq!(rejected, vec![3, 4], "the queue holds three");
        assert!(
            !q.submit("f", Box::new(|| {})),
            "and stays full for a single submit"
        );
        unplug();
        q.shutdown();
        assert_eq!(*order.lock(), ["a0", "b1", "c2"]);
        let stats = q.stats();
        assert_eq!(stats.rejected, 3);
        assert_eq!(
            stats.submitted,
            stats.served + stats.shed_expired + stats.depth as u64
        );
    }

    #[test]
    fn batch_keeps_the_round_robin_order() {
        // `drains_peers_round_robin`, with the flood and the latecomer
        // arriving in one batch: lanes join the ring in batch order and
        // the worker takes one job per peer per turn.
        let (q, unplug) = plugged_queue(16, 64);
        let order = Arc::new(Mutex::new(Vec::new()));
        let rejected = q.submit_batch(batch_of(&["a", "a", "a", "a", "b", "c"], &order));
        assert!(rejected.is_empty());
        unplug();
        q.shutdown();
        assert_eq!(*order.lock(), ["a0", "b4", "c5", "a1", "a2", "a3"]);
        let stats = q.stats();
        assert_eq!(stats.submitted, 7, "the plug and the batch");
        assert_eq!(
            stats.submitted,
            stats.served + stats.shed_expired + stats.depth as u64
        );
    }

    #[test]
    fn batch_wakes_parked_workers() {
        // Workers park without a timeout: only the batch's wake-up gets
        // these jobs run.
        let q = ServeQueue::new(ServeQueueConfig::workers(3));
        let (tx, rx) = std::sync::mpsc::channel();
        let jobs = (0..16)
            .map(|i| {
                let tx = tx.clone();
                let job: ServeJob = Box::new(move || tx.send(i).unwrap());
                (Arc::from(format!("p{}", i % 4)), job)
            })
            .collect();
        assert!(q.submit_batch(jobs).is_empty());
        let mut ran: Vec<i32> = (0..16)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        ran.sort();
        assert_eq!(ran, (0..16).collect::<Vec<_>>());
        q.shutdown();
    }

    #[test]
    fn batch_after_shutdown_is_rejected_whole() {
        let q = ServeQueue::new(ServeQueueConfig::workers(2));
        q.shutdown();
        let order = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(q.submit_batch(batch_of(&["a", "b"], &order)), vec![0, 1]);
        assert!(q.submit_batch(Vec::new()).is_empty());
        let stats = q.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.depth), (0, 2, 0));
        assert!(order.lock().is_empty());
    }

    #[test]
    fn shutdown_wakes_every_parked_worker() {
        // An untimed park must not outlive shutdown: the flag is set under
        // the lock the workers decide to park under.
        for _ in 0..50 {
            let q = ServeQueue::new(ServeQueueConfig::workers(4));
            q.shutdown(); // joins; hangs if a wake-up is lost
        }
    }

    #[test]
    fn shutdown_rejects_and_joins() {
        let q = ServeQueue::new(ServeQueueConfig::workers(2));
        q.shutdown();
        assert!(!q.submit("p", Box::new(|| {})));
        q.shutdown(); // idempotent
    }

    #[test]
    fn already_expired_submission_is_shed_not_busy() {
        let q = ServeQueue::new(ServeQueueConfig::workers(1));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let outcome = q.submit_with_deadline(
            "p",
            Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
            }),
            Some(std::time::Instant::now() - Duration::from_millis(1)),
            None,
        );
        assert_eq!(outcome, SubmitOutcome::Shed);
        q.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "shed call never ran");
        let stats = q.stats();
        assert_eq!(stats.shed_predicted, 1);
        assert_eq!(stats.rejected, 0, "a shed is not a Busy rejection");
    }

    #[test]
    fn queued_entry_expiring_runs_responder_not_job() {
        let q = ServeQueue::new(ServeQueueConfig::workers(1));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(q.submit(
            "blocker",
            Box::new(move || {
                let mut open = g.0.lock();
                while !*open {
                    let (guard, _) = g.1.wait_timeout(open, Duration::from_secs(5));
                    open = guard;
                }
            })
        ));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while q.stats().depth > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let ran = Arc::new(AtomicUsize::new(0));
        let expired = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let e = Arc::clone(&expired);
        assert_eq!(
            q.submit_with_deadline(
                "p",
                Box::new(move || {
                    r.fetch_add(1, Ordering::SeqCst);
                }),
                Some(std::time::Instant::now() + Duration::from_millis(20)),
                Some(Box::new(move || {
                    e.fetch_add(1, Ordering::SeqCst);
                })),
            ),
            SubmitOutcome::Accepted
        );
        // Hold the worker well past the entry's deadline, then release.
        std::thread::sleep(Duration::from_millis(50));
        *gate.0.lock() = true;
        gate.1.notify_all();
        q.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "expired job must not run");
        assert_eq!(expired.load(Ordering::SeqCst), 1, "responder ran instead");
        assert_eq!(q.stats().shed_expired, 1);
    }

    #[test]
    fn predicted_wait_beyond_budget_sheds_at_enqueue() {
        let q = ServeQueue::new(ServeQueueConfig::workers(1));
        // Seed the EWMA with a slow job.
        assert!(q.submit(
            "p",
            Box::new(|| std::thread::sleep(Duration::from_millis(40)))
        ));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while q.stats().served < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        // Park the worker so queued depth is stable.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(q.submit(
            "blocker",
            Box::new(move || {
                let mut open = g.0.lock();
                while !*open {
                    let (guard, _) = g.1.wait_timeout(open, Duration::from_secs(5));
                    open = guard;
                }
            })
        ));
        // A 1 ms budget cannot survive an ~40 ms EWMA estimated wait.
        let outcome = q.submit_with_deadline(
            "p",
            Box::new(|| {}),
            Some(std::time::Instant::now() + Duration::from_millis(1)),
            None,
        );
        assert_eq!(outcome, SubmitOutcome::Shed);
        assert_eq!(q.stats().shed_predicted, 1);
        // A roomy budget still gets in.
        assert_eq!(
            q.submit_with_deadline(
                "p",
                Box::new(|| {}),
                Some(std::time::Instant::now() + Duration::from_secs(60)),
                None,
            ),
            SubmitOutcome::Accepted
        );
        *gate.0.lock() = true;
        gate.1.notify_all();
        q.shutdown();
    }
}
