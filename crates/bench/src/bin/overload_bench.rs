//! Overload-control benchmark: does the deadline/budget/breaker stack
//! keep a saturated device *useful* instead of metastable?
//!
//! ```text
//! cargo run --release -p alfredo-bench --bin overload_bench
//! cargo run --release -p alfredo-bench --bin overload_bench -- --quick
//! ```
//!
//! Three sections, each with in-process guards that make the overload
//! story falsifiable on every run:
//!
//! * **goodput** — a queued device is first measured at its closed-loop
//!   capacity, then driven at 2× that concurrency through
//!   [`FaultyTransport`] send delays (a jittery WLAN), every call
//!   stamped with a wire deadline. Guard: goodput (calls completing
//!   within their deadline) stays >= 70% of the measured capacity —
//!   overload costs queueing, not collapse.
//! * **shed** — the workers are plugged with long stall calls, then a
//!   burst of short-deadline calls queues behind them. Every accepted
//!   burst entry's deadline expires while queued, so the workers drop
//!   them at dequeue (`rosgi.shed_expired`) without executing a single
//!   one. Guards: the queue's accounting closes exactly (submitted ==
//!   served + shed_expired) and the service's own execution counter
//!   equals served — expired work is rejected, never run.
//! * **storm** — 64 phones fire barrier-synchronized bursts at a device
//!   whose queue holds almost nothing, the classic lockstep retry storm.
//!   Each phone carries a small retry budget (token bucket refilled by
//!   successes). Guards: total frames sent stay <= 2× the first-attempt
//!   traffic (`rosgi.retry_budget_exhausted` proves the cap engaged),
//!   every phone terminates with either a result or a clean `Busy`, and
//!   a post-storm probe call succeeds immediately — the storm converges
//!   instead of melting the device.
//!
//! Emits `BENCH_overload.json` with every figure the guards checked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use alfredo_core::{Device, ServedDevice};
use alfredo_net::{FaultPlan, FaultyTransport, InMemoryNetwork, PeerAddr, Transport};
use alfredo_osgi::{
    FnService, Framework, Json, MethodSpec, ParamSpec, Properties, ServiceCallError,
    ServiceInterfaceDesc, TypeHint, Value,
};
use alfredo_rosgi::{
    EndpointConfig, RemoteEndpoint, RetryBudgetConfig, RetryPolicy, RosgiError, ServeQueue,
    ServeQueueConfig,
};

const INTERFACE: &str = "bench.Overload";
/// Worker pool serving the goodput/shed device.
const WORKERS: usize = 4;
/// Nominal service time of one call (the `work` argument, in ms).
const SERVICE_MS: u64 = 2;
/// How long each plug call pins a worker in the shed section.
const STALL_MS: u64 = 150;
/// The burst callers' whole-call budget; expires long before the plugs
/// release the workers.
const BURST_TIMEOUT: Duration = Duration::from_millis(30);
/// Phones in the synchronized retry storm.
const STORM_PHONES: usize = 64;
/// Goodput under 2× load must hold this fraction of measured capacity.
const GOODPUT_FLOOR: f64 = 0.70;
/// The storm's frames-sent amplification cap over first-attempt traffic.
const AMPLIFICATION_CAP: f64 = 2.0;

fn interface_desc() -> ServiceInterfaceDesc {
    ServiceInterfaceDesc::new(
        INTERFACE,
        vec![MethodSpec::new(
            "work",
            vec![ParamSpec::new("ms", TypeHint::I64)],
            TypeHint::I64,
            "Sleeps `ms` milliseconds and returns it.",
        )],
    )
}

/// A device serving `bench.Overload/work` through `queue`. Every
/// execution bumps `execs` — the ground truth for the zero-expired-
/// executions guard.
fn spawn_device(
    net: &InMemoryNetwork,
    addr: &str,
    queue: ServeQueue,
    execs: Arc<AtomicU64>,
) -> ServedDevice {
    let fw = Framework::new();
    fw.system_context()
        .register_service(
            &[INTERFACE],
            Arc::new(
                FnService::new(move |_, args| {
                    let ms = args.first().and_then(Value::as_i64).unwrap_or(0);
                    std::thread::sleep(Duration::from_millis(ms as u64));
                    execs.fetch_add(1, Ordering::Relaxed);
                    Ok(Value::I64(ms))
                })
                .with_description(interface_desc()),
            ),
            Properties::new(),
        )
        .expect("register overload service");
    Device::new(fw)
        .queue(queue)
        .serve(net, PeerAddr::new(addr))
        .expect("serve overload device")
}

/// Connects a phone endpoint, optionally through a seeded faulty wire.
fn connect(
    net: &InMemoryNetwork,
    from: &str,
    to: &str,
    cfg: EndpointConfig,
    plan: Option<FaultPlan>,
) -> RemoteEndpoint {
    let raw = net
        .connect(PeerAddr::new(from), PeerAddr::new(to))
        .expect("connect");
    let transport: Box<dyn Transport> = match plan {
        Some(p) => Box::new(FaultyTransport::new(Box::new(raw), p)),
        None => Box::new(raw),
    };
    RemoteEndpoint::establish(transport, Framework::new(), cfg).expect("handshake")
}

/// Closed-loop drive: every phone issues `calls` invocations of
/// `work(SERVICE_MS)` and reports (successes, failures).
fn drive(eps: &[Arc<RemoteEndpoint>], calls: u64) -> (u64, u64) {
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = eps
        .iter()
        .map(|ep| {
            let ep = Arc::clone(ep);
            let ok = Arc::clone(&ok);
            let failed = Arc::clone(&failed);
            std::thread::spawn(move || {
                for _ in 0..calls {
                    match ep.invoke(INTERFACE, "work", &[Value::I64(SERVICE_MS as i64)]) {
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("driver thread");
    }
    (ok.load(Ordering::Relaxed), failed.load(Ordering::Relaxed))
}

/// Adds the device's connected endpoints to `served`, once each. The
/// device's roster forgets an endpoint when it closes; its counters live
/// on in the handle kept here, so call this before closing a section's
/// phones.
fn keep_serving(served: &mut Vec<Arc<RemoteEndpoint>>, device: &ServedDevice) {
    for ep in device.endpoints() {
        if !served.iter().any(|kept| Arc::ptr_eq(kept, &ep)) {
            served.push(ep);
        }
    }
}

fn wait_for_drain(queue: &ServeQueue, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = queue.stats();
        if s.depth == 0 && s.submitted == s.served + s.shed_expired {
            return;
        }
        assert!(Instant::now() < deadline, "{what} never drained: {s:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (capacity_calls, overload_calls, burst_calls, storm_calls) = if quick {
        (100u64, 100u64, 24u64, 3u64)
    } else {
        (300, 300, 48, 6)
    };

    println!("overload_bench — deadline shedding, retry budgets, storm convergence");
    println!(
        "({WORKERS} workers x {SERVICE_MS}ms service, {capacity_calls} calls/phone capacity, \
         {overload_calls} calls/phone at 2x, {STORM_PHONES}-phone storm)\n"
    );

    let net = InMemoryNetwork::new();
    let execs = Arc::new(AtomicU64::new(0));
    let queue = ServeQueue::new(ServeQueueConfig {
        workers: WORKERS,
        per_peer_depth: 1024,
        total_depth: 1024,
        retry_after: Duration::from_millis(1),
    });
    let device = spawn_device(&net, "overload-dev", queue.clone(), Arc::clone(&execs));
    // Every endpoint that ever served a phone of the first three sections,
    // for the whole-run shed accounting below.
    let mut served: Vec<Arc<RemoteEndpoint>> = Vec::new();

    // --- capacity: closed loop at the worker count, no deadlines -----------
    let phones: Vec<Arc<RemoteEndpoint>> = (0..WORKERS)
        .map(|i| {
            Arc::new(connect(
                &net,
                &format!("cap-phone-{i}"),
                "overload-dev",
                EndpointConfig::named(format!("cap-phone-{i}")),
                None,
            ))
        })
        .collect();
    let started = Instant::now();
    let (ok, failed) = drive(&phones, capacity_calls);
    let capacity = ok as f64 / started.elapsed().as_secs_f64();
    assert_eq!(failed, 0, "capacity phase must not fail calls");
    keep_serving(&mut served, &device);
    for p in &phones {
        p.close();
    }
    println!("capacity: {capacity:>7.0} calls/s at concurrency {WORKERS}");

    // --- goodput: 2x concurrency through a jittery wire, deadlines on ------
    let phones: Vec<Arc<RemoteEndpoint>> = (0..2 * WORKERS)
        .map(|i| {
            Arc::new(connect(
                &net,
                &format!("load-phone-{i}"),
                "overload-dev",
                EndpointConfig::named(format!("load-phone-{i}"))
                    .with_invoke_timeout(Duration::from_millis(50))
                    .with_deadline_propagation(),
                Some(
                    FaultPlan::seeded(0xBEEF ^ i as u64).with_delay(0.3, Duration::from_millis(2)),
                ),
            ))
        })
        .collect();
    let started = Instant::now();
    let (ok, failed) = drive(&phones, overload_calls);
    let goodput = ok as f64 / started.elapsed().as_secs_f64();
    let goodput_ratio = goodput / capacity;
    keep_serving(&mut served, &device);
    for p in &phones {
        p.close();
    }
    println!(
        "goodput:  {goodput:>7.0} calls/s at concurrency {} ({ok} ok, {failed} failed, \
         {:.0}% of capacity)",
        2 * WORKERS,
        goodput_ratio * 100.0
    );

    // --- shed: plug every worker, then queue a doomed short-deadline burst -
    let plugger = connect(
        &net,
        "plug-phone",
        "overload-dev",
        EndpointConfig::named("plug-phone").with_invoke_timeout(Duration::from_secs(5)),
        None,
    );
    let plugs: Vec<_> = (0..WORKERS)
        .map(|_| {
            plugger
                .invoke_async(INTERFACE, "work", &[Value::I64(STALL_MS as i64)])
                .expect("plug submit")
        })
        .collect();
    // Give the workers a beat to pick the plugs up so the burst queues
    // strictly behind them.
    std::thread::sleep(Duration::from_millis(20));
    let burst_phone = connect(
        &net,
        "burst-phone",
        "overload-dev",
        EndpointConfig::named("burst-phone")
            .with_invoke_timeout(BURST_TIMEOUT)
            .with_deadline_propagation(),
        None,
    );
    let executed_before_burst = execs.load(Ordering::Relaxed);
    let burst: Vec<_> = (0..burst_calls)
        .map(|_| {
            burst_phone
                .invoke_async(INTERFACE, "work", &[Value::I64(SERVICE_MS as i64)])
                .expect("burst submit")
        })
        .collect();
    let burst_ok = burst.into_iter().filter_map(|h| h.wait().ok()).count() as u64;
    for plug in plugs {
        plug.wait().expect("plugs run to completion");
    }
    wait_for_drain(&queue, "shed section");
    // The expiry responders bump the endpoint counter just after the
    // queue counter; give them a beat to finish answering.
    std::thread::sleep(Duration::from_millis(50));
    let qs = queue.stats();
    keep_serving(&mut served, &device);
    let wire_shed: u64 = served.iter().map(|ep| ep.stats().shed_expired).sum();
    let executed = execs.load(Ordering::Relaxed);
    println!(
        "shed:     {} expired in queue, {} predicted at enqueue, burst {burst_ok}/{burst_calls} \
         executed, accounting submitted={} served={} executed={}",
        qs.shed_expired, qs.shed_predicted, qs.submitted, qs.served, executed
    );

    // --- storm: synchronized 64-phone bursts against a tiny queue ----------
    let storm_execs = Arc::new(AtomicU64::new(0));
    let storm_queue = ServeQueue::new(ServeQueueConfig {
        workers: 2,
        per_peer_depth: 1,
        total_depth: 8,
        retry_after: Duration::from_millis(2),
    });
    let _storm_device = spawn_device(&net, "storm-dev", storm_queue.clone(), storm_execs);
    let storm_phones: Vec<Arc<RemoteEndpoint>> = (0..STORM_PHONES)
        .map(|i| {
            Arc::new(connect(
                &net,
                &format!("storm-phone-{i}"),
                "storm-dev",
                EndpointConfig::named(format!("storm-phone-{i}"))
                    .with_retry(RetryPolicy {
                        max_retries: 10,
                        initial_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(10),
                        deadline: Duration::from_secs(5),
                    })
                    .with_retry_budget(RetryBudgetConfig::tokens(2)),
                None,
            ))
        })
        .collect();
    let barrier = Arc::new(Barrier::new(STORM_PHONES));
    let storm_ok = Arc::new(AtomicU64::new(0));
    let storm_started = Instant::now();
    let threads: Vec<_> = storm_phones
        .iter()
        .map(|ep| {
            let ep = Arc::clone(ep);
            let barrier = Arc::clone(&barrier);
            let storm_ok = Arc::clone(&storm_ok);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..storm_calls {
                    match ep.invoke(INTERFACE, "work", &[Value::I64(SERVICE_MS as i64)]) {
                        Ok(_) => {
                            storm_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => assert!(
                            matches!(e, RosgiError::Call(ServiceCallError::Busy { .. })),
                            "storm failures must be clean Busy fast-fails, got {e}"
                        ),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("storm thread");
    }
    let storm_elapsed = storm_started.elapsed();
    let mut frames_sent = 0u64;
    let mut retries = 0u64;
    let mut exhausted = 0u64;
    for ep in &storm_phones {
        let s = ep.stats();
        frames_sent += s.calls_sent;
        retries += s.retries;
        exhausted += s.retry_budget_exhausted;
    }
    let first_attempts = (STORM_PHONES as u64) * storm_calls;
    let amplification = frames_sent as f64 / first_attempts as f64;
    // Post-storm probe: the device must be responsive, not metastable.
    let probe = storm_phones[0]
        .invoke(INTERFACE, "work", &[Value::I64(SERVICE_MS as i64)])
        .expect("post-storm probe succeeds");
    assert_eq!(probe, Value::I64(SERVICE_MS as i64));
    let storm_ok = storm_ok.load(Ordering::Relaxed);
    for ep in &storm_phones {
        ep.close();
    }
    println!(
        "storm:    {first_attempts} first attempts -> {frames_sent} frames sent \
         ({amplification:.2}x, {retries} retries, {exhausted} budget-exhausted), \
         {storm_ok} succeeded in {:.0}ms\n",
        storm_elapsed.as_secs_f64() * 1e3
    );

    // --- guards -----------------------------------------------------------
    assert!(
        goodput_ratio >= GOODPUT_FLOOR,
        "goodput at 2x load must stay >= {:.0}% of capacity, got {:.1}% \
         ({goodput:.0} vs {capacity:.0} calls/s)",
        GOODPUT_FLOOR * 100.0,
        goodput_ratio * 100.0
    );
    assert_eq!(
        burst_ok, 0,
        "no burst call may complete within its deadline while the workers are plugged"
    );
    assert!(
        qs.shed_expired > 0,
        "the stalled burst must shed expired entries in-queue: {qs:?}"
    );
    assert_eq!(
        served.len(),
        3 * WORKERS + 2,
        "the shed accounting must cover every phone's serving endpoint"
    );
    assert_eq!(
        wire_shed, qs.shed_expired,
        "every queue shed must be answered on the wire (rosgi.shed_expired)"
    );
    assert_eq!(
        qs.submitted,
        qs.served + qs.shed_expired,
        "queue accounting must close exactly: {qs:?}"
    );
    assert_eq!(
        executed, qs.served,
        "zero expired executions: the service ran exactly the served jobs"
    );
    assert_eq!(
        executed - executed_before_burst,
        WORKERS as u64,
        "only the plugs executed during the burst window — no expired burst call ran"
    );
    assert!(
        amplification <= AMPLIFICATION_CAP,
        "retry budget must cap the storm at <= {AMPLIFICATION_CAP}x first-attempt \
         traffic, got {amplification:.2}x"
    );
    assert!(
        exhausted > 0,
        "the storm must actually exhaust retry budgets (rosgi.retry_budget_exhausted)"
    );
    assert!(
        storm_ok > 0,
        "the storm must still make forward progress, not just fast-fail"
    );
    println!(
        "guards: goodput >= {:.0}% of capacity, shed_expired > 0 with exact accounting \
         and zero expired executions, storm amplification <= {AMPLIFICATION_CAP}x with \
         budget exhaustion observed, post-storm probe ok — all hold",
        GOODPUT_FLOOR * 100.0
    );

    let doc = Json::obj(vec![
        ("benchmark", Json::str("overload_bench")),
        ("quick", Json::Bool(quick)),
        (
            "goodput",
            Json::obj(vec![
                ("workers", Json::I64(WORKERS as i64)),
                ("service_ms", Json::I64(SERVICE_MS as i64)),
                ("capacity_per_sec", Json::F64(capacity)),
                ("goodput_per_sec", Json::F64(goodput)),
                ("goodput_over_capacity", Json::F64(goodput_ratio)),
                ("floor", Json::F64(GOODPUT_FLOOR)),
            ]),
        ),
        (
            "shed",
            Json::obj(vec![
                ("burst_calls", Json::I64(burst_calls as i64)),
                ("shed_expired", Json::I64(qs.shed_expired as i64)),
                ("shed_predicted", Json::I64(qs.shed_predicted as i64)),
                ("submitted", Json::I64(qs.submitted as i64)),
                ("served", Json::I64(qs.served as i64)),
                ("executed", Json::I64(executed as i64)),
                ("expired_executions", Json::I64(0)),
            ]),
        ),
        (
            "storm",
            Json::obj(vec![
                ("phones", Json::I64(STORM_PHONES as i64)),
                ("calls_per_phone", Json::I64(storm_calls as i64)),
                ("first_attempts", Json::I64(first_attempts as i64)),
                ("frames_sent", Json::I64(frames_sent as i64)),
                ("amplification", Json::F64(amplification)),
                ("amplification_cap", Json::F64(AMPLIFICATION_CAP)),
                ("retries", Json::I64(retries as i64)),
                ("retry_budget_exhausted", Json::I64(exhausted as i64)),
                ("succeeded", Json::I64(storm_ok as i64)),
                ("elapsed_ms", Json::F64(storm_elapsed.as_secs_f64() * 1e3)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_overload.json", doc.to_json_string() + "\n")
        .expect("write BENCH_overload.json");
    println!("wrote BENCH_overload.json");
}
