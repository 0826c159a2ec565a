//! One pass of one workload: repeated set-up, warm-up, measured windows,
//! checks, and the reduction of the op log to the reported numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::oplog::{window_rates, Loop, WindowLog};
use crate::stats::{self, quantile, supports, tail, Better};
use crate::sys::{self, now_ns};
use crate::workloads::{self, Ctx, Report, Timeline, Workload};

/// How long a pass warms up and measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    /// The measured interval, cut into windows of about the workload's
    /// [`Workload::WINDOW`].
    pub measure: Duration,
    /// Ops one generator may issue (`u64::MAX`: no cap).
    pub max_ops: u64,
    /// Set-up + tear-down cycles timed before the one the pass runs on.
    pub extra_setups: u32,
}

/// What one pass measured. Latencies are microseconds.
#[derive(Debug)]
pub struct Pass {
    /// Ops the generators issued, warm-up included.
    pub generated: u64,
    /// Ops due (or started) in the measured windows.
    pub attempted: u64,
    pub failed: u64,
    pub op_p50_us: f64,
    pub op_p90_us: f64,
    pub op_p95_us: f64,
    pub op_p99_us: f64,
    /// The percentile `op_p99_us` really holds: `p99` unless the run was
    /// too short for it.
    pub tail_name: &'static str,
    pub ack_p50_us: f64,
    pub ack_p99_us: f64,
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    /// `VmHWM` when the workload was torn down, before the reduction below
    /// allocates its sorted copies.
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub sched_lag_p99_us: f64,
    /// Each window's own op p50, in order.
    pub window_p50_us: Vec<f64>,
    pub threads_peak: u64,
    pub fd_growth_per_op: f64,
    pub open_connections_end: u64,
    pub report: Report,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Each window's `pct` percentile, for the windows that have samples (a
/// capped pass ends early). `windows` holds ascending samples per window.
fn per_window(windows: &[Vec<u64>], pct: f64) -> Vec<f64> {
    windows
        .iter()
        .filter_map(|w| quantile(w, pct).map(us))
        .collect()
}

/// The run's value of a lower-is-better number taken in every window.
fn quiet(each: Vec<f64>) -> f64 {
    stats::quiet(&each, Better::Lower).unwrap_or(0.0)
}

/// A tail percentile: the quiet value (`stats::quiet`) of the windows' own, so that a
/// disturbed spell cannot decide the run. A window that holds fewer than
/// ten samples beyond the percentile is joined with its neighbours until
/// every group does (`walkup_churn`'s p95 is taken over pairs of windows);
/// a pass too short even for one such group reports, by name, the highest
/// percentile all its samples support.
fn tail_of(windows: &[Vec<u64>], pct: f64) -> (&'static str, f64) {
    let used: Vec<&Vec<u64>> = windows.iter().filter(|w| !w.is_empty()).collect();
    let merged = |group: &[&Vec<u64>]| {
        let mut all: Vec<u64> = group.iter().flat_map(|w| w.iter().copied()).collect();
        all.sort_unstable();
        all
    };
    for per_group in 1..=used.len() {
        // Groups of `per_group` windows; the last takes the remainder.
        let groups = used.len() / per_group;
        let group = |g: usize| {
            let end = if g + 1 == groups {
                used.len()
            } else {
                (g + 1) * per_group
            };
            &used[g * per_group..end]
        };
        let samples = |g: usize| group(g).iter().map(|w| w.len()).sum::<usize>();
        if (0..groups).all(|g| supports(samples(g), pct)) {
            let each: Vec<(&str, u64)> = (0..groups)
                .filter_map(|g| tail(&merged(group(g)), pct))
                .collect();
            return (
                each[0].0,
                quiet(each.iter().map(|(_, ns)| us(*ns)).collect()),
            );
        }
    }
    tail(&merged(&used), pct).map_or(("", 0.0), |(name, ns)| (name, us(ns)))
}

/// CPU time per op: the quiet value over the windows of the process's
/// CPU time between the window's edges over the ops due (or started) in it.
/// `cpu_at_edges[w]` is the reading at the start of window `w`; the last
/// reading is the generators' end, which closes the window they ended in
/// (an open loop ends with its last op, just before the last edge; a capped
/// pass ends mid-window).
fn cpu_us_per_op(cpu_at_edges: &[f64], windows: &[WindowLog]) -> f64 {
    let each: Vec<f64> = cpu_at_edges
        .windows(2)
        .zip(windows)
        .filter(|(_, w)| w.attempted() > 0)
        .map(|(edge, w)| (edge[1] - edge[0]) * 1e6 / w.attempted() as f64)
        .collect();
    quiet(each)
}

pub fn run<W: Workload>(ctx: &Ctx, plan: Plan) -> Pass {
    // Set-up, many times over: the reported time is the quiet value of
    // them all, as for the windows. A set-up is a burst of thread wake-ups
    // on an otherwise idle CPU, so it is timed with the CPU kept awake,
    // whatever the workload's loop.
    let mut keep_awake = Some(sys::KeepAwake::start());
    let mut setups = Vec::new();
    for _ in 0..plan.extra_setups {
        let t = Instant::now();
        let rig = W::setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
        W::finish(rig, ctx, 0);
    }
    // Before the rig the pass runs on exists, and a whole run before the
    // next process times its set-ups.
    workloads::remove_journals(&ctx.out_dir);
    let t = Instant::now();
    let mut rig = W::setup(ctx);
    setups.push(t.elapsed().as_secs_f64());
    if W::LOOP == Loop::Closed {
        // A closed loop keeps the CPU busy by itself.
        keep_awake = None;
    }

    let start_ns = now_ns() + 1_000_000;
    let measure_ns = start_ns + plan.warmup.as_nanos() as u64;
    let windows = (plan.measure.as_secs_f64() / W::WINDOW.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let window_ns = plan.measure.as_nanos() as u64 / u64::from(windows);
    let timeline = Timeline {
        start_ns,
        measure_ns,
        end_ns: measure_ns + window_ns * u64::from(windows),
        window_ns,
        windows,
        max_ops: plan.max_ops,
    };

    let fds_before = sys::open_fds();
    // The process's CPU time so far, the keep-awake thread's taken off.
    let cpu_seconds =
        || sys::cpu_seconds() - keep_awake.as_ref().map_or(0.0, sys::KeepAwake::cpu_seconds);
    let generators_done = AtomicBool::new(false);
    let (log, (cpu_at_edges, threads_peak)) = std::thread::scope(|scope| {
        // Reads process CPU time at every edge of the measured windows and
        // watches the thread count, off the generators' threads.
        let sampler = scope.spawn(|| {
            sys::tighten_timer_slack();
            let mut threads_peak = sys::threads();
            let mut cpu_at_edges = Vec::new();
            loop {
                let now = now_ns();
                let next_edge = timeline.measure_ns + window_ns * cpu_at_edges.len() as u64;
                if generators_done.load(Ordering::SeqCst) {
                    cpu_at_edges.push(cpu_seconds());
                    return (cpu_at_edges, threads_peak);
                }
                if now >= next_edge && next_edge <= timeline.end_ns {
                    cpu_at_edges.push(cpu_seconds());
                    continue;
                }
                threads_peak = threads_peak.max(sys::threads());
                let nap = if next_edge <= timeline.end_ns {
                    (next_edge - now).min(50_000_000)
                } else {
                    1_000_000
                };
                std::thread::sleep(Duration::from_nanos(nap));
            }
        });
        let log = W::generate(&mut rig, ctx, timeline);
        generators_done.store(true, Ordering::SeqCst);
        (log, sampler.join().expect("sampler panicked"))
    });
    drop(keep_awake);
    let fds_after = sys::open_fds();
    let report = W::finish(rig, ctx, log.generated as usize);
    let open_connections_end = alfredo_net::current_stats().open_connections;
    let peak_rss_mb = sys::peak_rss_mib();

    // Sorted once per window; everything below reads these.
    let ops: Vec<Vec<u64>> = log.windows.iter().map(WindowLog::sorted_ops).collect();
    let acks: Vec<Vec<u64>> = log.windows.iter().map(WindowLog::sorted_acks).collect();
    let late: Vec<Vec<u64>> = log.windows.iter().map(WindowLog::sorted_lateness).collect();
    let attempted: u64 = log.windows.iter().map(|w| w.attempted() as u64).sum();
    let completed: u64 = ops.iter().map(|w| w.len() as u64).sum();
    let window_p50_us = per_window(&ops, 50.0);
    let (tail_name, op_p99_us) = tail_of(&ops, 99.0);
    Pass {
        generated: log.generated,
        attempted,
        failed: attempted - completed,
        op_p50_us: quiet(window_p50_us.clone()),
        op_p90_us: tail_of(&ops, 90.0).1,
        op_p95_us: tail_of(&ops, 95.0).1,
        op_p99_us,
        tail_name,
        ack_p50_us: quiet(per_window(&acks, 50.0)),
        ack_p99_us: tail_of(&acks, 99.0).1,
        ops_per_s: stats::quiet(&window_rates(&log.windows), Better::Higher).unwrap_or(0.0),
        cpu_us_per_op: cpu_us_per_op(&cpu_at_edges, &log.windows),
        peak_rss_mb,
        setup_s: quiet(setups),
        sched_lag_p99_us: tail_of(&late, 99.0).1,
        window_p50_us,
        threads_peak,
        fd_growth_per_op: fds_after.saturating_sub(fds_before) as f64 / log.generated.max(1) as f64,
        open_connections_end,
        report,
    }
}
