//! Invocation benchmark: measures the zero-allocation invoke pipeline
//! (pooled wire buffers + borrowed encoding + sharded call table +
//! pipelined async calls) and guards what must stay free on it: the
//! buffer pool stays hot, the self-healing stack costs nothing when no
//! fault occurs, and disabled tracing is indistinguishable from none.
//! The pre-optimization baseline it was first measured against is gone
//! from the code; its numbers are in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p alfredo-bench --bin invoke_bench
//! cargo run --release -p alfredo-bench --bin invoke_bench -- --quick
//! ```
//!
//! Emits `BENCH_invoke.json` in the working directory with `{p50, p95,
//! calls/sec, bytes/call}` per scenario plus the endpoint's pool and
//! call-slot counters.

use std::sync::Arc;
use std::time::Instant;

use alfredo_bench::timing::{self, Measurement};
use alfredo_net::{FaultPlan, FaultyTransport, InMemoryNetwork, PeerAddr};
use alfredo_obs::Obs;
use alfredo_osgi::{FnService, Framework, Json, Properties, ServiceCallError, Value};
use alfredo_rosgi::{
    EndpointConfig, HeartbeatConfig, RemoteEndpoint, RetryPolicy, PROP_IDEMPOTENT_METHODS,
};
use std::time::Duration;

const INTERFACE: &str = "bench.Echo";

/// A phone/device pair over the in-memory fabric.
struct Pair {
    phone: Arc<RemoteEndpoint>,
    device: RemoteEndpoint,
    _device_fw: Framework,
}

impl Pair {
    fn establish(addr: &str) -> Pair {
        let net = InMemoryNetwork::new();
        let device_fw = Framework::new();
        device_fw
            .system_context()
            .register_service(
                &[INTERFACE],
                Arc::new(FnService::new(|method, args| match method {
                    "echo" => Ok(args.first().cloned().unwrap_or(Value::Unit)),
                    "add" => Ok(Value::I64(args.iter().filter_map(Value::as_i64).sum())),
                    other => Err(ServiceCallError::NoSuchMethod(other.into())),
                })),
                Properties::new(),
            )
            .expect("register bench service");

        let listener = net.bind(PeerAddr::new(addr)).expect("bind");
        let fw = device_fw.clone();
        let device_config = EndpointConfig::named(addr);
        let accept = std::thread::spawn(move || {
            let conn = listener.accept().expect("accept");
            RemoteEndpoint::establish(Box::new(conn), fw, device_config).expect("device handshake")
        });
        let conn = net
            .connect(PeerAddr::new("phone"), PeerAddr::new(addr))
            .expect("connect");
        let phone = RemoteEndpoint::establish(
            Box::new(conn),
            Framework::new(),
            EndpointConfig::named("phone"),
        )
        .expect("phone handshake");
        Pair {
            phone: Arc::new(phone),
            device: accept.join().expect("device thread"),
            _device_fw: device_fw,
        }
    }

    /// Like [`Pair::establish`] with the whole self-healing stack armed
    /// on the phone — heartbeat, retry policy for the (idempotent-marked)
    /// echo method, and a fault-injection wrapper with an empty plan —
    /// but zero faults actually injected. The guard scenario uses this to
    /// prove resilience is free when nothing goes wrong.
    fn establish_resilient(addr: &str) -> Pair {
        let net = InMemoryNetwork::new();
        let device_fw = Framework::new();
        device_fw
            .system_context()
            .register_service(
                &[INTERFACE],
                Arc::new(FnService::new(|method, args| match method {
                    "echo" => Ok(args.first().cloned().unwrap_or(Value::Unit)),
                    other => Err(ServiceCallError::NoSuchMethod(other.into())),
                })),
                Properties::new().with(PROP_IDEMPOTENT_METHODS, Value::from(vec!["echo"])),
            )
            .expect("register bench service");

        let listener = net.bind(PeerAddr::new(addr)).expect("bind");
        let fw = device_fw.clone();
        let device_config = EndpointConfig::named(addr);
        let accept = std::thread::spawn(move || {
            let conn = listener.accept().expect("accept");
            RemoteEndpoint::establish(Box::new(conn), fw, device_config).expect("device handshake")
        });
        let conn = net
            .connect(PeerAddr::new("phone"), PeerAddr::new(addr))
            .expect("connect");
        let faultless = FaultyTransport::new(Box::new(conn), FaultPlan::none());
        let phone_config = EndpointConfig::named("phone")
            .with_heartbeat(HeartbeatConfig {
                interval: Duration::from_millis(250),
                ..HeartbeatConfig::default()
            })
            .with_retry(RetryPolicy::retries(3));
        let phone = RemoteEndpoint::establish(Box::new(faultless), Framework::new(), phone_config)
            .expect("phone handshake");
        Pair {
            phone: Arc::new(phone),
            device: accept.join().expect("device thread"),
            _device_fw: device_fw,
        }
    }

    /// Like [`Pair::establish`] with `obs` installed on
    /// both ends — the obs-report scenario passes a recording handle, the
    /// disabled-overhead guard an explicit [`Obs::disabled`].
    fn establish_obs(addr: &str, obs: Obs) -> Pair {
        let net = InMemoryNetwork::new();
        let device_fw = Framework::new();
        device_fw
            .system_context()
            .register_service(
                &[INTERFACE],
                Arc::new(FnService::new(|method, args| match method {
                    "echo" => Ok(args.first().cloned().unwrap_or(Value::Unit)),
                    other => Err(ServiceCallError::NoSuchMethod(other.into())),
                })),
                Properties::new(),
            )
            .expect("register bench service");

        let listener = net.bind(PeerAddr::new(addr)).expect("bind");
        let fw = device_fw.clone();
        let device_config = EndpointConfig::named(addr).with_obs(obs.clone());
        let accept = std::thread::spawn(move || {
            let conn = listener.accept().expect("accept");
            RemoteEndpoint::establish(Box::new(conn), fw, device_config).expect("device handshake")
        });
        let conn = net
            .connect(PeerAddr::new("phone"), PeerAddr::new(addr))
            .expect("connect");
        let phone_config = EndpointConfig::named("phone").with_obs(obs);
        let phone = RemoteEndpoint::establish(Box::new(conn), Framework::new(), phone_config)
            .expect("phone handshake");
        Pair {
            phone: Arc::new(phone),
            device: accept.join().expect("device thread"),
            _device_fw: device_fw,
        }
    }

    /// Wire bytes the phone sent per invocation since `before`.
    fn bytes_per_call(&self, before: &alfredo_rosgi::EndpointStats) -> f64 {
        let after = self.phone.stats();
        let calls = after.calls_sent.saturating_sub(before.calls_sent);
        if calls == 0 {
            return 0.0;
        }
        after.bytes_sent.saturating_sub(before.bytes_sent) as f64 / calls as f64
    }

    fn close(self) {
        self.phone.close();
        self.device.close();
    }
}

fn payload() -> Vec<Value> {
    vec![Value::I64(42), Value::Str("ping-pong payload".into())]
}

/// Single-threaded round-trip latency: one blocking invoke at a time.
fn single_thread(pair: &Pair, calls: usize) -> Measurement {
    let args = payload();
    let mut samples = Vec::with_capacity(calls);
    let started = Instant::now();
    for _ in 0..calls {
        let t = Instant::now();
        pair.phone
            .invoke(INTERFACE, "echo", &args)
            .expect("bench invoke");
        samples.push(t.elapsed().as_nanos() as f64);
    }
    timing::from_samples("single-thread", samples, started.elapsed().as_secs_f64())
}

/// N threads hammering one connection with blocking invokes.
fn contention(pair: &Pair, threads: usize, calls_per_thread: usize) -> Measurement {
    let started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let ep = Arc::clone(&pair.phone);
            std::thread::spawn(move || {
                let args = payload();
                let mut samples = Vec::with_capacity(calls_per_thread);
                for _ in 0..calls_per_thread {
                    let t = Instant::now();
                    ep.invoke(INTERFACE, "echo", &args).expect("bench invoke");
                    samples.push(t.elapsed().as_nanos() as f64);
                }
                samples
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(threads * calls_per_thread);
    for w in workers {
        samples.extend(w.join().expect("worker"));
    }
    timing::from_samples(
        &format!("contention x{threads}"),
        samples,
        started.elapsed().as_secs_f64(),
    )
}

/// Pipelined async invokes: keep `depth` calls in flight, harvest as a
/// batch. Per-op latency here is batch time / depth — the point of the
/// pipeline is amortizing the round trip.
fn pipelined(pair: &Pair, depth: usize, batches: usize) -> Measurement {
    let args = payload();
    let mut samples = Vec::with_capacity(batches * depth);
    let started = Instant::now();
    for _ in 0..batches {
        let t = Instant::now();
        let handles: Vec<_> = (0..depth)
            .map(|_| {
                pair.phone
                    .invoke_async(INTERFACE, "echo", &args)
                    .expect("dispatch")
            })
            .collect();
        for h in handles {
            h.wait().expect("pipelined reply");
        }
        let per_op = t.elapsed().as_nanos() as f64 / depth as f64;
        samples.extend(std::iter::repeat_n(per_op, depth));
    }
    timing::from_samples(
        &format!("pipelined depth-{depth}"),
        samples,
        started.elapsed().as_secs_f64(),
    )
}

/// N threads, each keeping `depth` async calls in flight, measured
/// against the same thread count blocking.
fn contention_pipelined(
    pair: &Pair,
    threads: usize,
    depth: usize,
    calls_per_thread: usize,
) -> Measurement {
    use std::collections::VecDeque;

    let started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let ep = Arc::clone(&pair.phone);
            std::thread::spawn(move || {
                let args = payload();
                // Sliding window: keep `depth` calls in flight at all
                // times; each iteration retires the oldest and issues a
                // replacement. Per-op latency is the issue-to-harvest
                // gap divided by the window depth.
                let mut window = VecDeque::with_capacity(depth);
                let mut samples = Vec::with_capacity(calls_per_thread);
                for _ in 0..depth.min(calls_per_thread) {
                    window.push_back((
                        Instant::now(),
                        ep.invoke_async(INTERFACE, "echo", &args).expect("dispatch"),
                    ));
                }
                let mut issued = window.len();
                while let Some((t, h)) = window.pop_front() {
                    h.wait().expect("pipelined reply");
                    samples.push(t.elapsed().as_nanos() as f64 / depth as f64);
                    if issued < calls_per_thread {
                        window.push_back((
                            Instant::now(),
                            ep.invoke_async(INTERFACE, "echo", &args).expect("dispatch"),
                        ));
                        issued += 1;
                    }
                }
                samples
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(threads * calls_per_thread);
    for w in workers {
        samples.extend(w.join().expect("worker"));
    }
    timing::from_samples(
        &format!("contention x{threads} pipelined depth-{depth}"),
        samples,
        started.elapsed().as_secs_f64(),
    )
}

/// Transport-free frame encoding, as the endpoint send path does it:
/// borrowed parts into a pooled writer, the frame recycled.
fn wire_encode(target_ms: u64) -> (Measurement, f64) {
    use alfredo_net::{BufferPool, ByteWriter};
    use alfredo_rosgi::Message;

    let args = payload();
    let pool = BufferPool::new();
    let mut frame_bytes = 0.0;
    let m = timing::bench_batched("wire-encode", 64, target_ms, || {
        let mut w = ByteWriter::with_pool(&pool);
        Message::encode_invoke(&mut w, 7, INTERFACE, "echo", &args, None, None);
        let frame = w.into_bytes();
        frame_bytes = frame.len() as f64;
        pool.give(frame);
    });
    (m, frame_bytes)
}

fn scenario_json(m: &Measurement, bytes_per_call: f64) -> Json {
    Json::obj(vec![
        ("p50_ns", Json::F64(m.p50_ns())),
        ("p95_ns", Json::F64(m.p95_ns())),
        ("calls_per_sec", Json::F64(m.ops_per_sec())),
        ("bytes_per_call", Json::F64(bytes_per_call)),
        ("ops", Json::I64(m.ops as i64)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (st_calls, threads, per_thread, depth, batches, encode_ms) = if quick {
        (2_000, 8, 500, 8, 250, 100)
    } else {
        (10_000, 8, 2_500, 8, 1_250, 400)
    };

    println!("invoke_bench — zero-allocation invocation path");
    println!(
        "(in-memory transport, echo service, {} args/call)\n",
        payload().len()
    );

    let mut scenarios: Vec<(&str, Json)> = Vec::new();

    // --- frame encoding only (no transport) ------------------------------
    let (enc, frame_bytes) = wire_encode(encode_ms);
    enc.report();
    scenarios.push((
        "wire_encode",
        Json::obj(vec![("fast", scenario_json(&enc, frame_bytes))]),
    ));

    // --- single-thread latency --------------------------------------------
    let pair = Pair::establish("dev-st");
    single_thread(&pair, st_calls / 10); // warmup
    let before = pair.phone.stats();
    let st = single_thread(&pair, st_calls);
    let st_bpc = pair.bytes_per_call(&before);
    st.report();
    pair.close();
    scenarios.push((
        "single_thread",
        Json::obj(vec![("fast", scenario_json(&st, st_bpc))]),
    ));

    // --- faultless-path guard -------------------------------------------
    // The self-healing machinery (heartbeat, retry policy, fault
    // wrapper with an empty plan) must cost nothing when no faults occur:
    // zero retries, zero reconnects, the same pooled-buffer economics,
    // and single-thread throughput within 5% of the bare fast path
    // measured moments ago in this same process.
    // Measure resilient vs bare-fast on fresh pairs each round (so one
    // unlucky delivery-thread placement cannot taint every round), and take
    // the median of the per-round throughput ratios. Comparing against
    // the `st` numbers measured earlier in the process would fold clock
    // drift into the 5%.
    let rounds = 6;
    let mut ratios = Vec::with_capacity(rounds);
    let mut guard_samples = Vec::new();
    let mut guard_stats = None;
    let mut guard_bpc = 0.0;
    for round in 0..rounds {
        let guard_pair = Pair::establish_resilient(&format!("dev-guard-{round}"));
        let ref_pair = Pair::establish(&format!("dev-guard-ref-{round}"));
        single_thread(&guard_pair, st_calls / 10); // warmup
        single_thread(&ref_pair, st_calls / 10);
        let before = guard_pair.phone.stats();
        let g = single_thread(&guard_pair, st_calls / 2);
        let r = single_thread(&ref_pair, st_calls / 2);
        ratios.push(g.ops_per_sec() / r.ops_per_sec());
        guard_bpc = guard_pair.bytes_per_call(&before);
        guard_samples.push(g);
        guard_stats = Some(guard_pair.phone.stats());
        guard_pair.close();
        ref_pair.close();
    }
    let guard = guard_samples.swap_remove(0);
    guard.report();
    let guard_stats = guard_stats.expect("at least one guard round");
    assert_eq!(guard_stats.retries, 0, "faultless run must never retry");
    assert_eq!(
        guard_stats.reconnects, 0,
        "faultless run must never reconnect"
    );
    assert_eq!(guard_stats.lease_expiries, 0, "leases stay fresh");
    let pool_ops = guard_stats.pool_hits + guard_stats.pool_misses;
    let hit_rate = guard_stats.pool_hits as f64 / pool_ops.max(1) as f64;
    assert!(
        hit_rate >= 0.95,
        "resilient path must keep the buffer pool hot (hit rate {hit_rate:.3})"
    );
    // Median of the per-round throughput ratios: robust against one
    // round eating a scheduling hiccup.
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let guard_ratio = ratios[ratios.len() / 2];
    assert!(
        guard_ratio >= 0.95,
        "faultless resilient throughput regressed beyond 5%: {guard_ratio:.3}x of the bare fast path"
    );
    println!(
        "  faultless guard: {:.2}x of bare fast path, pool hit rate {:.3}, 0 retries/reconnects\n",
        guard_ratio, hit_rate
    );
    scenarios.push((
        "faultless_guard",
        Json::obj(vec![
            ("resilient", scenario_json(&guard, guard_bpc)),
            ("ratio_vs_fast", Json::F64(guard_ratio)),
            ("pool_hit_rate", Json::F64(hit_rate)),
            ("retries", Json::I64(guard_stats.retries as i64)),
            ("reconnects", Json::I64(guard_stats.reconnects as i64)),
            (
                "heartbeats_sent",
                Json::I64(guard_stats.heartbeats_sent as i64),
            ),
        ]),
    ));

    // --- observability guard + report ------------------------------------
    // Tracing is compiled into the invoke path now. Disabled (the
    // default), it must be indistinguishable from the bare fast path:
    // median per-round throughput ratio within 3%. Same fresh-pairs +
    // median-of-ratios discipline as the faultless guard above.
    let obs_rounds = 6;
    let mut obs_ratios = Vec::with_capacity(obs_rounds);
    for round in 0..obs_rounds {
        let off_pair = Pair::establish_obs(&format!("dev-obs-off-{round}"), Obs::disabled());
        let ref_pair = Pair::establish(&format!("dev-obs-ref-{round}"));
        single_thread(&off_pair, st_calls / 10); // warmup
        single_thread(&ref_pair, st_calls / 10);
        let g = single_thread(&off_pair, st_calls / 2);
        let r = single_thread(&ref_pair, st_calls / 2);
        obs_ratios.push(g.ops_per_sec() / r.ops_per_sec());
        off_pair.close();
        ref_pair.close();
    }
    obs_ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let obs_off_ratio = obs_ratios[obs_ratios.len() / 2];
    assert!(
        obs_off_ratio >= 0.97,
        "disabled tracing must stay within 3% of the fast path: {obs_off_ratio:.3}x"
    );

    // Enabled mode: spans into a ring sink, per-phase histograms out. The
    // phone times each RPC round trip, the device each serve; their
    // quantiles land in BENCH_invoke.json so a perf report can show where
    // an interaction spends its time.
    let (obs, spans) = Obs::ring(65_536);
    let on_pair = Pair::establish_obs("dev-obs-on", obs);
    single_thread(&on_pair, st_calls / 10); // warmup
    let obs_on = single_thread(&on_pair, st_calls / 2);
    obs_on.report();
    let rtt = on_pair
        .phone
        .obs()
        .metrics()
        .histogram("rosgi.invoke_rtt_us");
    let serve = on_pair.device.obs().metrics().histogram("rosgi.serve_us");
    let phase_json = |h: &alfredo_obs::Histogram| {
        Json::obj(vec![
            ("count", Json::I64(h.count() as i64)),
            ("p50_us", Json::I64(h.quantile(0.50) as i64)),
            ("p95_us", Json::I64(h.quantile(0.95) as i64)),
            ("p99_us", Json::I64(h.quantile(0.99) as i64)),
        ])
    };
    println!(
        "  obs: disabled {obs_off_ratio:.3}x of fast path; enabled recorded {} spans, rtt p95 {}us, serve p95 {}us\n",
        spans.len(),
        rtt.quantile(0.95),
        serve.quantile(0.95)
    );
    scenarios.push((
        "obs_report",
        Json::obj(vec![
            ("disabled_ratio_vs_fast", Json::F64(obs_off_ratio)),
            ("enabled", scenario_json(&obs_on, 0.0)),
            ("spans_recorded", Json::I64(spans.len() as i64)),
            ("invoke_rtt", phase_json(&rtt)),
            ("serve", phase_json(&serve)),
        ]),
    ));
    on_pair.close();

    // --- N-thread contention -------------------------------------------
    // Two rows, same 8 threads on one connection: blocking invokes, and
    // each thread keeping a depth-K async pipeline.
    let ct_pair = Pair::establish("dev-ct");
    contention(&ct_pair, threads, per_thread / 10); // warmup
    let before = ct_pair.phone.stats();
    let ct = contention(&ct_pair, threads, per_thread);
    let ct_bpc = ct_pair.bytes_per_call(&before);
    ct.report();
    ct_pair.close();
    let ct_pipe_pair = Pair::establish("dev-ct-pipe");
    contention_pipelined(&ct_pipe_pair, threads, depth, per_thread / 10); // warmup
    let before = ct_pipe_pair.phone.stats();
    let ct_pipe = contention_pipelined(&ct_pipe_pair, threads, depth, per_thread);
    let ct_pipe_bpc = ct_pipe_pair.bytes_per_call(&before);
    ct_pipe.report();
    ct_pipe_pair.close();
    scenarios.push((
        "contention_8_threads",
        Json::obj(vec![
            ("threads", Json::I64(threads as i64)),
            ("fast", scenario_json(&ct, ct_bpc)),
            ("fast_pipelined", scenario_json(&ct_pipe, ct_pipe_bpc)),
            (
                "speedup_pipelined_vs_blocking",
                Json::F64(ct_pipe.ops_per_sec() / ct.ops_per_sec()),
            ),
        ]),
    ));

    // --- pipelined depth-K ------------------------------------------------
    let pipe_pair = Pair::establish("dev-pipe");
    pipelined(&pipe_pair, depth, batches / 10); // warmup
    let before = pipe_pair.phone.stats();
    let pipe = pipelined(&pipe_pair, depth, batches);
    let pipe_bpc = pipe_pair.bytes_per_call(&before);
    pipe.report();
    let counters = pipe_pair.phone.stats();
    scenarios.push((
        "pipelined_depth_8",
        Json::obj(vec![
            ("depth", Json::I64(depth as i64)),
            ("fast", scenario_json(&pipe, pipe_bpc)),
            (
                "speedup_vs_single_thread_fast",
                Json::F64(pipe.ops_per_sec() / st.ops_per_sec()),
            ),
        ]),
    ));
    pipe_pair.close();

    println!("\npool/slot economics (pipelined endpoint, steady state):");
    println!(
        "  pool_hits {}  pool_misses {}  pool_returns {}  bytes_reused {}  slots_reused {}",
        counters.pool_hits,
        counters.pool_misses,
        counters.pool_returns,
        counters.bytes_reused,
        counters.slots_reused
    );

    let doc = Json::obj(vec![
        ("benchmark", Json::str("invoke_bench")),
        ("transport", Json::str("in-memory channel fabric")),
        (
            "scenarios",
            Json::Obj(
                scenarios
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::obj(vec![
                ("pool_hits", Json::I64(counters.pool_hits as i64)),
                ("pool_misses", Json::I64(counters.pool_misses as i64)),
                ("pool_returns", Json::I64(counters.pool_returns as i64)),
                ("bytes_reused", Json::I64(counters.bytes_reused as i64)),
                ("slots_reused", Json::I64(counters.slots_reused as i64)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_invoke.json", doc.to_json_string() + "\n")
        .expect("write BENCH_invoke.json");
    println!("\nwrote BENCH_invoke.json");
}
