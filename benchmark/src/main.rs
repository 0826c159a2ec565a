//! The repo benchmark: phone tap -> device -> UI update, walk-up and room
//! fan-out over loopback TCP, with a per-layer budget. See `README.md`.
//!
//! Two ways in. With `--trace` the program is one run of one workload, as
//! the driver of `BENCHMARK.json` starts it: it prints one JSON result as
//! its last line. Without, it is the whole benchmark: every workload in a
//! child process of its own, every pass, one table and one result file.

mod device;
mod layers;
mod metrics;
mod oplog;
mod pass;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use alfredo_obs::Obs;
use alfredo_osgi::Json;

use metrics::{Metric, END_TO_END, PER_LAYER};
use pass::{Pass, Plan};
use workloads::{BrowseShop, Ctx, RoomBoard, TapMouse, WalkupChurn};

pub const WORKLOADS: [&str; 4] = ["tap_mouse", "browse_shop", "walkup_churn", "room_board"];

/// Seconds one run measures when nothing else is said (`run_seconds`).
const RUN_SECONDS: u64 = 30;
/// Seconds one run measures under `--check`: three windows of 1 s end to
/// end, and a shorter per-layer run, so that the whole check stays under 30 s.
const CHECK_SECONDS: u64 = 3;
const CHECK_TRACE_SECONDS: u64 = 2;
/// `walkup_churn` leaks two descriptors per walk-up; the soft limit the
/// benchmark asks for, and the least it accepts.
const NOFILE_WANTED: u64 = 8192;
const NOFILE_NEEDED: u64 = 6000;
/// Set-up + tear-down cycles timed before the measured one.
const EXTRA_SETUPS: u32 = 49;
/// Ops one generator issues in the traced window (bounds the span count).
const TRACED_OPS: u64 = 10_000;
/// Seconds per isolated layer timing under `--only layers`.
const LAYER_SECONDS_STANDALONE: f64 = 2.0;

const USAGE: &str = "usage: alfredo-benchmark [--seed N] [--seconds S] [--workload NAME] \
[--only e2e|layers|trace] [--check] [--repeat N]
       alfredo-benchmark --workload NAME --seed N --seconds S --trace 0|1   (one run, one JSON result)";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    only: Option<String>,
    check: bool,
    repeat: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        repeat: 1,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.clamp(1, 60)),
            "--trace" => args.trace = Some(number(value()?)? != 0),
            "--only" => {
                let pass = value()?;
                if !["e2e", "layers", "trace"].contains(&pass.as_str()) {
                    return Err(format!("--only {pass}: one of e2e, layers, trace"));
                }
                args.only = Some(pass);
            }
            "--check" => args.check = true,
            "--repeat" => args.repeat = number(value()?)?.max(1) as u32,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_owned());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn ctx(seed: u64, obs: Obs) -> Ctx {
    Ctx {
        seed,
        obs,
        out_dir: out_dir(),
    }
}

fn run_pass(workload: &str, ctx: &Ctx, plan: Plan) -> Pass {
    match workload {
        "tap_mouse" => pass::run::<TapMouse>(ctx, plan),
        "browse_shop" => pass::run::<BrowseShop>(ctx, plan),
        "walkup_churn" => pass::run::<WalkupChurn>(ctx, plan),
        "room_board" => pass::run::<RoomBoard>(ctx, plan),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

/// The result of one run, as the last line of its output carries it.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    fn to_json(&self, table: &[Metric]) -> Json {
        let metrics = table.iter().map(|m| {
            let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
            (
                m.name,
                Json::obj([("value", Json::F64(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::I64(self.attempted as i64)),
            ("failed", Json::I64(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn report_errors(pass: &Pass) {
    for e in &pass.report.errors {
        println!("CHECK FAILED: {e}");
    }
    if pass.failed > 0 {
        println!(
            "CHECK FAILED: {} of {} ops failed",
            pass.failed, pass.attempted
        );
    }
}

/// End-to-end pass, tracing off: timed set-ups, warm-up, then the measured
/// windows.
fn run_e2e(workload: &str, seed: u64, seconds: u64) -> RunResult {
    let plan = Plan {
        warmup: Duration::from_secs((seconds / 12).clamp(1, 2)),
        measure: Duration::from_secs(seconds),
        max_ops: u64::MAX,
        extra_setups: EXTRA_SETUPS,
    };
    let pass = run_pass(workload, &ctx(seed, Obs::disabled()), plan);
    report_errors(&pass);
    let metrics = BTreeMap::from([
        ("op_p50_us", pass.op_p50_us),
        ("op_p90_us", pass.op_p90_us),
        ("ops_per_s", pass.ops_per_s),
        ("cpu_us_per_op", pass.cpu_us_per_op),
        ("peak_rss_mb", pass.peak_rss_mb),
        ("setup_s", pass.setup_s),
    ]);
    let window_p50 = |better| stats::quiet(&pass.window_p50_us, better).unwrap_or(0.0);
    println!(
        "  ({} windows; window p50 {:.1} us in the best twentieth, {:.1} us in the worst, spread {:.3}; p90 {:.1} us, p95 {:.1} us, {} {:.1} us; ack p50 {:.1} us; generator lateness p99 {:.1} us; peak threads {}; fd growth/op {:.2})",
        pass.window_p50_us.len(),
        window_p50(stats::Better::Lower),
        window_p50(stats::Better::Higher),
        stats::window_spread(&pass.window_p50_us),
        pass.op_p90_us,
        pass.op_p95_us,
        pass.tail_name,
        pass.op_p99_us,
        pass.ack_p50_us,
        pass.sched_lag_p99_us,
        pass.threads_peak,
        pass.fd_growth_per_op
    );
    RunResult {
        correct: pass.report.errors.is_empty() && pass.failed == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
    }
}

/// Per-layer run: isolated layer timings, an untraced window for the
/// counters, and a traced window whose spans are written out and read back.
fn run_layers_and_trace(workload: &str, seed: u64, seconds: u64) -> RunResult {
    let s = seconds as f64;
    let mut metrics = layers::run(s / 2.0 / layers::COUNT as f64);

    // The traced window is cut short by its op cap, so it must not spend
    // the cap on a warm-up: the untraced window before it is its warm-up.
    let window = |warmup: f64, max_ops| Plan {
        warmup: Duration::from_secs_f64(warmup),
        measure: Duration::from_secs_f64(s / 5.0),
        max_ops,
        extra_setups: 0,
    };
    let untraced = run_pass(
        workload,
        &ctx(seed, Obs::disabled()),
        window(s / 20.0, u64::MAX),
    );
    report_errors(&untraced);
    metrics.extend(untraced.report.counters.iter().map(|(k, v)| (*k, *v)));
    metrics.extend([
        ("net.fd_growth_per_op", untraced.fd_growth_per_op),
        (
            "net.reactor.open_connections_end",
            untraced.open_connections_end as f64,
        ),
        (
            "net.reactor.io_threads",
            alfredo_net::current_stats().io_threads as f64,
        ),
        ("bench.op_p95_us", untraced.op_p95_us),
        ("bench.op_p99_us", untraced.op_p99_us),
        ("bench.ack_p50_us", untraced.ack_p50_us),
        ("bench.ack_p99_us", untraced.ack_p99_us),
        ("bench.sched_lag_p99_us", untraced.sched_lag_p99_us),
        (
            "bench.window_spread",
            stats::window_spread(&untraced.window_p50_us),
        ),
        ("bench.threads_peak", untraced.threads_peak as f64),
    ]);

    let (obs, ring) = Obs::ring(trace::RING_SPANS);
    let traced = run_pass(workload, &ctx(seed, obs), window(0.0, TRACED_OPS));
    report_errors(&traced);
    // The engines and endpoints are gone; every span has been recorded.
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    match trace::write_and_reduce(&ring, &path) {
        Ok(reduced) => {
            metrics.extend(reduced.self_us);
            metrics.insert(
                "trace.spans_per_op",
                reduced.spans as f64 / traced.generated.max(1) as f64,
            );
        }
        Err(e) => println!("CHECK FAILED: trace {}: {e}", path.display()),
    }
    metrics.insert(
        "trace.overhead_ratio",
        traced.op_p50_us / untraced.op_p50_us.max(f64::MIN_POSITIVE),
    );

    let failed = untraced.failed + traced.failed;
    RunResult {
        correct: untraced.report.errors.is_empty()
            && traced.report.errors.is_empty()
            && failed == 0,
        attempted: untraced.attempted + traced.attempted,
        failed,
        metrics,
    }
}

/// A value with about four significant digits, whatever its magnitude
/// (`setup_s` is a millisecond, `ops_per_s` tens of thousands).
fn shown(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        a if a >= 0.1 => format!("{v:.4}"),
        _ => format!("{v:.6}"),
    }
}

fn print_metrics(title: &str, table: &[Metric], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for m in table {
        if let Some(v) = values.get(m.name) {
            println!(
                "  {:<40} {:>14} {} ({} is better)",
                m.name,
                shown(*v),
                m.unit,
                m.better
            );
        }
    }
}

/// One run of one workload; prints the result line last.
fn run_one(workload: &str, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let nofile = alfredo_net::raise_nofile_limit(NOFILE_WANTED);
    if nofile < NOFILE_NEEDED {
        eprintln!(
            "the soft limit on open files is {nofile} and cannot be raised to {NOFILE_NEEDED}: \
             walkup_churn leaks two descriptors per walk-up and would run out"
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    println!(
        "{workload}: seed {seed}, {seconds} s, tracing {}, commit {}",
        if traced { "on" } else { "off" },
        sys::commit()
    );
    println!("fingerprint {}", sys::fingerprint(nofile).to_json_string());
    let (result, table) = if traced {
        (
            run_layers_and_trace(workload, seed, seconds),
            &PER_LAYER[..],
        )
    } else {
        (run_e2e(workload, seed, seconds), &END_TO_END[..])
    };
    workloads::remove_journals(&out_dir());
    print_metrics(workload, table, &result.metrics);
    println!("{}", result.to_json(table).to_json_string());
    ExitCode::SUCCESS
}

/// Runs `workload` in a child process and returns its parsed result line.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting the {workload} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        println!("  {workload}: {line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("{workload} printed no result: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The whole benchmark, once. Returns the results by `(workload, traced)`
/// and whether every check held.
fn run_all(args: &Args, seed: u64, seconds: u64) -> (BTreeMap<(String, bool), Json>, bool) {
    let passes: &[bool] = match args.only.as_deref() {
        Some("e2e") => &[false],
        Some("trace") => &[true],
        _ => &[false, true],
    };
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        for &traced in passes {
            let seconds = if traced && args.check {
                CHECK_TRACE_SECONDS
            } else {
                seconds
            };
            match run_child(workload, seed, seconds, traced) {
                Ok(result) => {
                    all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    results.insert((workload.to_owned(), traced), result);
                }
                Err(e) => {
                    println!("  {e}");
                    all_correct = false;
                }
            }
        }
    }
    (results, all_correct)
}

fn print_table(results: &BTreeMap<(String, bool), Json>) {
    for (traced, table, title) in [
        (false, &END_TO_END[..], "end to end (tracing off)"),
        (true, &PER_LAYER[..], "per layer"),
    ] {
        let columns: Vec<&String> = results
            .keys()
            .filter(|(_, t)| *t == traced)
            .map(|(w, _)| w)
            .collect();
        if columns.is_empty() {
            continue;
        }
        print!("\n{title:<40} {:<6} {:<6}", "unit", "better");
        for w in &columns {
            print!(" {w:>14}");
        }
        println!();
        for m in table {
            print!("{:<40} {:<6} {:<6}", m.name, m.unit, m.better);
            for w in &columns {
                match metric_value(&results[&((*w).clone(), traced)], m.name) {
                    Some(v) => print!(" {:>14}", shown(v)),
                    None => print!(" {:>14}", "-"),
                }
            }
            println!();
        }
    }
}

fn write_result(results: &BTreeMap<(String, bool), Json>, seed: u64, seconds: u64, nofile: u64) {
    let runs = results.iter().map(|((workload, traced), result)| {
        (
            format!(
                "{workload}.{}",
                if *traced { "per_layer" } else { "end_to_end" }
            ),
            result.clone(),
        )
    });
    let doc = Json::obj([
        ("seed", Json::I64(seed as i64)),
        ("seconds", Json::I64(seconds as i64)),
        ("commit", Json::str(sys::commit())),
        ("fingerprint", sys::fingerprint(nofile)),
        ("runs", Json::obj(runs)),
    ]);
    let path = out_dir().join("result.json");
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.to_json_string() + "\n"))
    {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncannot write {}: {e}", path.display()),
    }
}

/// Run-to-run spread of every end-to-end metric x workload over `runs`, as
/// the driver takes it: quartile distance over the median. Returns whether
/// every pair stays within its bound (`setup_s` is reported, not judged).
fn print_spread(runs: &[BTreeMap<(String, bool), Json>]) -> bool {
    println!(
        "\n{:<14} {:<14} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "range/med", "bound"
    );
    let mut within = true;
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r.get(&(workload.to_owned(), false))?, m.name))
                .collect();
            let Some([q1, q2, q3]) = stats::quartiles(&values) else {
                continue;
            };
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let spread = (q3 - q1) / q2;
            let judged = m.name != "setup_s";
            let flag = if judged && spread > m.bound {
                " <-- over"
            } else {
                ""
            };
            within &= !(judged && spread > m.bound);
            println!(
                "{workload:<14} {:<14} {:>12} {:>12} {:>12} {spread:>9.4} {:>9.4} {:>6.2}{flag}",
                m.name,
                shown(q1),
                shown(q2),
                shown(q3),
                (hi - lo) / q2,
                m.bound
            );
        }
    }
    within
}

fn main() -> ExitCode {
    // Before the first thread is spawned, so that all inherit it.
    sys::pin_to_one_cpu();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.check {
        CHECK_SECONDS
    } else {
        RUN_SECONDS
    });
    if let (Some(workload), Some(traced)) = (&args.workload, args.trace) {
        return run_one(workload, args.seed, seconds, traced);
    }
    if args.only.as_deref() == Some("layers") {
        let per_metric = if args.check {
            0.05
        } else {
            LAYER_SECONDS_STANDALONE
        };
        print_metrics("layers", &PER_LAYER, &layers::run(per_metric));
        return ExitCode::SUCCESS;
    }

    let nofile = alfredo_net::raise_nofile_limit(NOFILE_WANTED);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for i in 0..args.repeat {
        let seed = args.seed + u64::from(i);
        println!(
            "run {} of {}: seed {seed}, {seconds} s per pass",
            i + 1,
            args.repeat
        );
        let (results, correct) = run_all(&args, seed, seconds);
        all_correct &= correct;
        print_table(&results);
        write_result(&results, seed, seconds, nofile);
        runs.push(results);
    }
    let steady = args.repeat < 2 || print_spread(&runs);
    if !all_correct {
        println!("\nFAILED: an output check failed or an op failed (see CHECK FAILED above)");
        return ExitCode::FAILURE;
    }
    if !steady {
        println!("\nFAILED: a metric's run-to-run spread is wider than its bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
