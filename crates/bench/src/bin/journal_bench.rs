//! Durability-cost benchmark for the session journal: what does crash
//! recovery cost on the hot path, and how fast does a device come back?
//!
//! ```text
//! cargo run --release -p alfredo-bench --bin journal_bench
//! cargo run --release -p alfredo-bench --bin journal_bench -- --quick
//! ```
//!
//! Three sections, each with in-process guards that make the journal's
//! claims falsifiable on every run:
//!
//! * **append** — the headline throughput guard. One writer appends
//!   representative session records twice over the identical enqueue
//!   path: once with fsync disabled (the fast path — pure group-commit
//!   enqueue) and once with batched fsync (journaling-enabled, the
//!   production configuration). Because appenders hand durability to the
//!   committer thread and never wait on it, enabling fsync must not slow
//!   writers: journaling-enabled throughput must stay >= 95% of the fast
//!   path. Trials are interleaved and the best of each is compared so
//!   scheduler noise cancels instead of accumulating.
//! * **invoke** — end-to-end cost on the invocation path: a phone
//!   driving `session.invoke` against a live device, bare versus fully
//!   journaled (phone session journal + device lease journal, batched
//!   fsync). Two guards: the *fast-path* guard bounds the extra CPU the
//!   invoking thread itself pays per call (the enqueue cost — everything
//!   else is the committer's problem), and a throughput ratio guard
//!   bounds total overhead. The ratio threshold adapts to the machine:
//!   on a multi-core box the committer drains on another core and the
//!   journaled path must hold 95% of bare; on a single core the
//!   committer's own batching work shares the one core with the
//!   benchmark loop, so the bound relaxes to 75%.
//! * **recovery** — a 10k-event journal is replayed cold through
//!   [`DeviceJournal::open`] + store registration. Guard: recovery
//!   completes inside a wall-clock budget.
//!
//! Emits `BENCH_journal.json` with every figure the guards checked.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alfredo_core::{
    host_service, AlfredOEngine, Device, DeviceJournal, DeviceJournalConfig, EngineConfig,
    ServiceDescriptor,
};
use alfredo_journal::{Journal, JournalConfig, JournalStats};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::{
    FnService, Framework, Json, MethodSpec, ParamSpec, Properties, ServiceInterfaceDesc, TypeHint,
    Value,
};
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::{Control, DeviceCapabilities, UiDescription};

const STORE: &str = "bench";
const ECHO_INTERFACE: &str = "bench.JournalEcho";
const KEYS: u64 = 512;
const RECOVERY_EVENTS: u64 = 10_000;
const RECOVERY_BUDGET: Duration = Duration::from_secs(2);
/// Per-invoke CPU the *invoking thread* may spend on journaling — the
/// enqueue is a few hundred nanoseconds; anything near a microsecond
/// means an fsync or allocation leaked back onto the fast path.
const FAST_PATH_CPU_BUDGET_NS: f64 = 1_000.0;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alfredo-journal-bench-{}-{label}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID),
/// in nanoseconds. Thread CPU isolates the invoker's own fast-path cost
/// from committer-thread work and from other processes on the box.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// One writer appending `events` representative session records through
/// the group-commit enqueue path, then a barrier (outside the timed
/// region: the barrier is flush *latency*, not writer throughput).
/// Returns the append rate and the committer's accounting.
fn append_run(durable: bool, events: u64) -> (f64, JournalStats) {
    let dir = scratch_dir("append");
    let mut cfg = JournalConfig::new(&dir);
    if !durable {
        cfg = cfg.without_fsync();
    }
    let journal = Journal::open(cfg).expect("open append journal");
    let started = Instant::now();
    for i in 0..events {
        journal.append_with("session", "ui_event", |out| {
            use std::fmt::Write as _;
            let _ = write!(
                out,
                "{{\"control\":\"slider\",\"kind\":\"slider\",\"value\":{},\"outcomes\":[\"invoked\"]}}",
                i % 100
            );
        });
    }
    let rate = events as f64 / started.elapsed().as_secs_f64();
    journal.barrier().expect("append barrier");
    let stats = journal.stats();
    journal.close().expect("close append journal");
    std::fs::remove_dir_all(&dir).ok();
    (rate, stats)
}

/// A phone driving `invokes` echo calls through a live session, bare or
/// fully journaled (phone session journal + device lease journal, batch
/// fsync). Returns (wall ns/op, invoking-thread CPU ns/op) for the
/// invoke loop; durability barriers run after the timed region.
fn invoke_run(journaled: bool, invokes: u64) -> (f64, f64) {
    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    let dir = scratch_dir("invoke");
    let ui = UiDescription::new("JournalBench").with_control(Control::button("go", "Go"));
    host_service(
        &fw,
        ECHO_INTERFACE,
        Arc::new(
            FnService::new(|_, args| Ok(args.first().cloned().unwrap_or(Value::Unit)))
                .with_description(ServiceInterfaceDesc::new(
                    ECHO_INTERFACE,
                    vec![MethodSpec::new(
                        "echo",
                        vec![ParamSpec::new("v", TypeHint::I64)],
                        TypeHint::I64,
                        "echo",
                    )],
                )),
        ),
        &ServiceDescriptor::new(ECHO_INTERFACE, ui),
        None,
        Properties::new(),
    )
    .expect("host echo service");

    let mut device = Device::new(fw);
    let device_journal = journaled.then(|| {
        DeviceJournal::open(DeviceJournalConfig::new(dir.join("device")))
            .expect("open device journal")
    });
    if let Some(dj) = &device_journal {
        device = device.lease_journal(dj.lease_journal().clone());
    }
    let device = device
        .serve(&net, PeerAddr::new("bench-dev"))
        .expect("serve device");

    let mut cfg = EngineConfig::phone("bench-phone", DeviceCapabilities::nokia_9300i());
    if journaled {
        cfg = cfg.with_journal(JournalConfig::new(dir.join("phone")));
    }
    let engine = AlfredOEngine::new(
        Framework::new(),
        net.clone(),
        DiscoveryDirectory::new(),
        cfg,
    );
    let conn = engine
        .connect(&PeerAddr::new("bench-dev"))
        .expect("connect");
    let session = conn.acquire(ECHO_INTERFACE).expect("acquire echo session");

    let started = Instant::now();
    let cpu_before = thread_cpu_ns();
    for i in 0..invokes {
        let v = session
            .invoke(ECHO_INTERFACE, "echo", &[Value::I64(i as i64)])
            .expect("echo invoke");
        assert_eq!(v, Value::I64(i as i64));
    }
    let cpu = (thread_cpu_ns() - cpu_before) as f64 / invokes as f64;
    let wall = started.elapsed().as_nanos() as f64 / invokes as f64;

    if let Some(j) = engine.journal() {
        j.barrier().expect("session journal barrier");
    }
    if let Some(dj) = &device_journal {
        dj.barrier().expect("device journal barrier");
    }
    session.close();
    conn.close();
    device.stop();
    drop(device_journal);
    std::fs::remove_dir_all(&dir).ok();
    (wall, cpu)
}

/// Writes a 10k-event journal, drops every handle, then times a cold
/// [`DeviceJournal::open`] + store registration replaying all of it.
fn bench_recovery(events: u64) -> (Duration, u64) {
    let dir = scratch_dir("recovery");
    {
        let fw = Framework::new();
        let dj = DeviceJournal::open(DeviceJournalConfig::new(&dir).with_snapshot_every(0))
            .expect("open recording journal");
        let (store, _reg) = dj.register_store(&fw, STORE).expect("register store");
        for i in 0..events {
            store.put(format!("k{}", i % KEYS), Value::I64(i as i64));
        }
        dj.barrier().expect("recording barrier");
        dj.close().expect("close recording journal");
    }

    let fw = Framework::new();
    let started = Instant::now();
    let dj = DeviceJournal::open(DeviceJournalConfig::new(&dir).with_snapshot_every(0))
        .expect("open recovering journal");
    let (store, _reg) = dj.register_store(&fw, STORE).expect("re-register store");
    let elapsed = started.elapsed();

    let replayed = dj.recovery().data_records;
    assert_eq!(replayed, events, "recovery must replay every record");
    assert_eq!(store.version(), events);
    assert_eq!(store.len() as u64, KEYS);
    dj.close().expect("close recovering journal");
    std::fs::remove_dir_all(&dir).ok();
    (elapsed, replayed)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (append_events, invokes, trials) = if quick {
        (50_000u64, 4_000u64, 3usize)
    } else {
        (150_000, 10_000, 5)
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // On one core the committer's batching work shares the core with the
    // benchmark loop itself, so total throughput dips even though the
    // invoking thread's fast path is untouched (the CPU guard holds it
    // to a few hundred ns). With a second core the drain is free.
    let invoke_ratio_floor = if cores > 1 { 0.95 } else { 0.75 };

    println!("journal_bench — durability cost and recovery speed");
    println!(
        "({append_events} appends and {invokes} invokes per trial, best-of-{trials} \
         interleaved, {RECOVERY_EVENTS} recovery events, {cores} core(s))\n"
    );

    // --- append: journaling-enabled vs fast path --------------------------
    // Interleave trials and keep the best of each mode: transient noise
    // only ever makes a trial slower, so the max converges on true cost.
    let mut fast_path = 0.0f64;
    let mut durable = 0.0f64;
    let mut durable_stats = None;
    for _ in 0..trials {
        let (rate, _) = append_run(false, append_events);
        fast_path = fast_path.max(rate);
        let (rate, stats) = append_run(true, append_events);
        if rate > durable {
            durable = rate;
            durable_stats = Some(stats);
        }
    }
    let durable_stats = durable_stats.expect("at least one durable trial");
    let append_ratio = durable / fast_path;
    let appends_per_fsync = durable_stats.appends as f64 / durable_stats.fsyncs.max(1) as f64;
    println!(
        "append: fast path {fast_path:>10.0}/s   journaled {durable:>10.0}/s   \
         ratio {append_ratio:.3}"
    );
    println!(
        "        {} batches, {} fsyncs ({appends_per_fsync:.0} appends/fsync), \
         max batch {}, {} pool misses",
        durable_stats.batches,
        durable_stats.fsyncs,
        durable_stats.max_batch,
        durable_stats.pool_misses
    );

    // --- invoke: bare vs journaled session --------------------------------
    let (mut bare_wall, mut bare_cpu) = (f64::MAX, f64::MAX);
    let (mut j_wall, mut j_cpu) = (f64::MAX, f64::MAX);
    for _ in 0..trials {
        let (wall, cpu) = invoke_run(false, invokes);
        bare_wall = bare_wall.min(wall);
        bare_cpu = bare_cpu.min(cpu);
        let (wall, cpu) = invoke_run(true, invokes);
        j_wall = j_wall.min(wall);
        j_cpu = j_cpu.min(cpu);
    }
    let invoke_ratio = bare_wall / j_wall;
    let fast_path_overhead_ns = (j_cpu - bare_cpu).max(0.0);
    println!(
        "invoke: bare {:>8.0}/s   journaled {:>8.0}/s   ratio {invoke_ratio:.3}   \
         fast-path overhead {fast_path_overhead_ns:.0}ns cpu/invoke",
        1e9 / bare_wall,
        1e9 / j_wall,
    );

    // --- cold recovery -----------------------------------------------------
    let (recovery_elapsed, replayed) = bench_recovery(RECOVERY_EVENTS);
    println!(
        "recovery: {replayed} events replayed in {:.1}ms (budget {}ms)\n",
        recovery_elapsed.as_secs_f64() * 1e3,
        RECOVERY_BUDGET.as_millis()
    );

    // --- guards -----------------------------------------------------------
    assert!(
        append_ratio >= 0.95,
        "journaling-enabled append throughput must stay within 5% of the fast \
         path, got {append_ratio:.3} ({durable:.0} vs {fast_path:.0} records/s)"
    );
    assert!(
        appends_per_fsync >= 2.0,
        "group commit must batch multiple appends per fsync, got {appends_per_fsync:.2}"
    );
    assert!(
        fast_path_overhead_ns <= FAST_PATH_CPU_BUDGET_NS,
        "journaling must cost the invoking thread <= {FAST_PATH_CPU_BUDGET_NS:.0}ns \
         of CPU per invoke, got {fast_path_overhead_ns:.0}ns"
    );
    assert!(
        invoke_ratio >= invoke_ratio_floor,
        "journaled invoke throughput must stay >= {invoke_ratio_floor:.2} of bare \
         on a {cores}-core box, got {invoke_ratio:.3}"
    );
    assert!(
        recovery_elapsed <= RECOVERY_BUDGET,
        "recovering a {RECOVERY_EVENTS}-event journal must finish within {}ms, took {}ms",
        RECOVERY_BUDGET.as_millis(),
        recovery_elapsed.as_millis()
    );
    println!(
        "guards: journaled appends >=95% of fast path, >=2 appends/fsync, \
         fast-path CPU <= {FAST_PATH_CPU_BUDGET_NS:.0}ns/invoke, invoke ratio >= \
         {invoke_ratio_floor:.2}, recovery within {}ms — all hold",
        RECOVERY_BUDGET.as_millis()
    );

    let doc = Json::obj(vec![
        ("benchmark", Json::str("journal_bench")),
        ("quick", Json::Bool(quick)),
        ("cores", Json::I64(cores as i64)),
        (
            "append",
            Json::obj(vec![
                ("events_per_trial", Json::I64(append_events as i64)),
                ("trials", Json::I64(trials as i64)),
                ("fast_path_per_sec", Json::F64(fast_path)),
                ("journaled_per_sec", Json::F64(durable)),
                ("journaled_over_fast_path", Json::F64(append_ratio)),
                ("batches", Json::I64(durable_stats.batches as i64)),
                ("fsyncs", Json::I64(durable_stats.fsyncs as i64)),
                ("appends_per_fsync", Json::F64(appends_per_fsync)),
                ("max_batch", Json::I64(durable_stats.max_batch as i64)),
                ("pool_misses", Json::I64(durable_stats.pool_misses as i64)),
                (
                    "bytes_written",
                    Json::I64(durable_stats.bytes_written as i64),
                ),
            ]),
        ),
        (
            "invoke",
            Json::obj(vec![
                ("invokes_per_trial", Json::I64(invokes as i64)),
                ("trials", Json::I64(trials as i64)),
                ("bare_ns_per_invoke", Json::F64(bare_wall)),
                ("journaled_ns_per_invoke", Json::F64(j_wall)),
                ("journaled_over_bare", Json::F64(invoke_ratio)),
                ("ratio_floor", Json::F64(invoke_ratio_floor)),
                (
                    "fast_path_cpu_overhead_ns",
                    Json::F64(fast_path_overhead_ns),
                ),
            ]),
        ),
        (
            "recovery",
            Json::obj(vec![
                ("events", Json::I64(RECOVERY_EVENTS as i64)),
                (
                    "elapsed_ms",
                    Json::F64(recovery_elapsed.as_secs_f64() * 1e3),
                ),
                ("budget_ms", Json::I64(RECOVERY_BUDGET.as_millis() as i64)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_journal.json", doc.to_json_string() + "\n")
        .expect("write BENCH_journal.json");
    println!("wrote BENCH_journal.json");
}
