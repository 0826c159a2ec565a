//! The arithmetic every reported number rests on: one quantile function,
//! the median-of-windows reducer, span self time, the open-loop schedule
//! and the `seq` join for room fan-out. Pure functions, unit-tested against
//! hand-computed cases.

use std::collections::HashMap;

/// Percentiles a tail may fall back to, highest first.
const LADDER: [(f64, &str); 5] = [
    (99.0, "p99"),
    (95.0, "p95"),
    (90.0, "p90"),
    (75.0, "p75"),
    (50.0, "p50"),
];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `pct` percent of the samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples hold at least [`MIN_BEYOND`] beyond percentile `pct`.
pub fn supports(n: usize, pct: f64) -> bool {
    n > 0 && n - rank(n, pct) >= MIN_BEYOND
}

/// The highest percentile at or below `wanted` that `sorted` supports, by
/// name, with its value. Falls back to the median when nothing qualifies.
pub fn tail(sorted: &[u64], wanted: f64) -> Option<(&'static str, u64)> {
    let n = sorted.len();
    LADDER
        .iter()
        .filter(|(pct, _)| *pct <= wanted)
        .find(|(pct, _)| supports(n, *pct))
        .or(LADDER.last())
        .and_then(|(pct, name)| quantile(sorted, *pct).map(|v| (*name, v)))
}

/// Median of per-window values (mean of the two middle ones when even), so
/// one noisy window cannot decide a run. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The value of a run, from the values of its windows: the one a twentieth
/// of the way in from the metric's better side, by nearest rank. The sixth
/// best of 120 windows, the third best of 50 set-ups, the best of up to
/// twenty. It is what the program did in the quietest twentieth of the run.
///
/// What disturbs a window on a shared host (a neighbour on the sibling
/// hardware thread, the virtual CPU descheduled or moved to another core, a
/// disk busy for someone else) only ever makes it worse, and lasts from
/// milliseconds to most of a run. The median of the windows follows such a
/// spell as soon as it covers half of them; this value not until it covers
/// nineteen twentieths. A change to the program moves every window, so it
/// moves this value as it moves the median. Where there are many windows it
/// stays clear of the very best one, which a late reading of the CPU clock
/// at a window's edge can flatter at its neighbour's expense. What it
/// cannot show is a stall that comes back less often than every window;
/// `bench.window_spread` flags those. `None` when empty.
pub fn quiet(values: &[f64], better: Better) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let n = v.len();
    (n > 0).then(|| v[n.div_ceil(20) - 1])
}

/// Largest relative deviation of the windows from their median.
pub fn window_spread(values: &[f64]) -> f64 {
    match median(values) {
        Some(m) if m > 0.0 => values.iter().map(|v| (v - m).abs() / m).fold(0.0, f64::max),
        _ => 0.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), which
/// is what the driver uses for the run-to-run spread. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// One recorded span, reduced to what self time needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Re-parents program spans under the benchmark span that was open around
/// them. The program parents its `invoke:*` spans under the connection's
/// `interaction` span, not under the caller's current span, so a `bench.*`
/// span opened around `handle_event` has no children by id. It adopts the
/// spans of its own trace that start inside it and whose parent does not
/// (the top-level work done during the call). Phones generate one op at a
/// time, and each phone has its own trace, so containment is unambiguous.
pub fn adopt_into_bench_spans(spans: &mut [SpanRec]) {
    let start_of: HashMap<u64, u64> = spans.iter().map(|s| (s.span_id, s.start_us)).collect();
    let mut by_trace: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_trace.entry(s.trace_id).or_default().push(i);
    }
    for members in by_trace.values_mut() {
        members.sort_by_key(|&i| spans[i].start_us);
        let adopters: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| spans[i].name.starts_with("bench."))
            .collect();
        for a in adopters {
            let (a_id, lo, hi) = (spans[a].span_id, spans[a].start_us, spans[a].end_us);
            let first = members.partition_point(|&i| spans[i].start_us < lo);
            for &i in &members[first..] {
                if spans[i].start_us > hi {
                    break;
                }
                if i == a || spans[i].name.starts_with("bench.") {
                    continue;
                }
                let parent_inside = spans[i]
                    .parent_id
                    .and_then(|p| start_of.get(&p))
                    .is_some_and(|&ps| ps >= lo && ps <= hi);
                if !parent_inside {
                    spans[i].parent_id = Some(a_id);
                }
            }
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// between children counted once). Returned in the order of `spans`.
pub fn self_times_us(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent_id {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.span_id) {
                kids.sort_unstable();
                let mut cursor = s.start_us;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_us);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
            }
            (s.end_us - s.start_us).saturating_sub(covered)
        })
        .collect()
}

/// An open-loop schedule: op `i` is due in slot `i` of the schedule,
/// `start + i * period` and one period long, at the point of the slot the
/// caller draws for it, whatever the system under test does. Times are
/// nanoseconds on the run's clock.
///
/// Not on the slot's edge: strictly periodic ops lock into one phase against
/// the program's own periodic work (heartbeats, the lease tick, journal
/// batches) and against the other phone's taps, and which phase differs from
/// run to run (`room_board`'s p50 read 86 to 101 us over six runs of one
/// seed; with the draw, 92 to 94 over eight seeds). Independent users do
/// not tap in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub start_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    /// A schedule of `rate_per_s` ops per second starting at `start_ns`.
    pub fn at_rate(start_ns: u64, rate_per_s: u64) -> Schedule {
        Schedule {
            start_ns,
            period_ns: 1_000_000_000 / rate_per_s.max(1),
        }
    }

    /// When op `i` is due: `draw` (any number, seeded) picks the point of
    /// its slot.
    pub fn due_ns(&self, i: u64, draw: u64) -> u64 {
        self.start_ns + i * self.period_ns + draw % self.period_ns
    }
}

/// How late an op started (0 when it started on or before its due time).
pub fn lateness_ns(due_ns: u64, started_ns: u64) -> u64 {
    started_ns.saturating_sub(due_ns)
}

/// What a room member's subscriber saw, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The delta with this `seq`.
    Delta { seq: u64, at_ns: u64 },
    /// A coalesced snapshot of the room at `seq`: it stands in for every
    /// delta up to `seq` that was not delivered on its own.
    Snapshot { seq: u64, at_ns: u64 },
}

/// Joins published deltas to their arrival at the receiving member on the
/// delta `seq`. `published` holds `(seq, due_ns)`; the result holds one
/// entry per publish, `Some(latency_ns)` from due time to arrival, or `None`
/// when the receiver never saw that `seq` (a lost delta).
pub fn join_fanout(published: &[(u64, u64)], arrivals: &[Arrival]) -> Vec<Option<u64>> {
    let mut delta_at: HashMap<u64, u64> = HashMap::new();
    let mut snapshots: Vec<(u64, u64)> = Vec::new();
    for a in arrivals {
        match *a {
            Arrival::Delta { seq, at_ns } => {
                delta_at.entry(seq).or_insert(at_ns);
            }
            Arrival::Snapshot { seq, at_ns } => snapshots.push((seq, at_ns)),
        }
    }
    published
        .iter()
        .map(|&(seq, due_ns)| {
            let by_snapshot = snapshots
                .iter()
                .filter(|(s, _)| *s >= seq)
                .map(|&(_, at)| at)
                .min();
            let at = match (delta_at.get(&seq).copied(), by_snapshot) {
                (Some(d), Some(s)) => Some(d.min(s)),
                (d, s) => d.or(s),
            };
            at.map(|at| at.saturating_sub(due_ns))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 50.0), Some(50));
        assert_eq!(quantile(&v, 99.0), Some(99));
        assert_eq!(quantile(&v, 100.0), Some(100));
        assert_eq!(quantile(&v, 0.0), Some(1));
        // 5 samples: p50 -> rank ceil(2.5) = 3, p90 -> rank ceil(4.5) = 5.
        assert_eq!(quantile(&[10, 20, 30, 40, 50], 50.0), Some(30));
        assert_eq!(quantile(&[10, 20, 30, 40, 50], 90.0), Some(50));
        assert_eq!(quantile(&[], 50.0), None);
    }

    #[test]
    fn tail_refuses_unsupported_percentiles_by_name() {
        // 1000 samples: rank(p99) = 990, 10 beyond -> p99 stands.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 99.0), Some(("p99", 990)));
        // 999 samples: rank(p99) = 990, 9 beyond -> p95 (rank 950, 49 beyond).
        let v: Vec<u64> = (1..=999).collect();
        assert!(!supports(999, 99.0));
        assert_eq!(tail(&v, 99.0), Some(("p95", 950)));
        // 640 walk-ups in a window: p99 leaves 6 beyond, p95 leaves 32.
        let v: Vec<u64> = (1..=640).collect();
        assert_eq!(tail(&v, 99.0), Some(("p95", 608)));
        // 30 samples support only p50 (15 beyond); p75 leaves 7.
        let v: Vec<u64> = (1..=30).collect();
        assert_eq!(tail(&v, 99.0), Some(("p50", 15)));
        // Too few for anything: the median is still reported, by name.
        assert_eq!(tail(&[7, 9], 99.0), Some(("p50", 7)));
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn median_of_windows_ignores_one_noisy_window() {
        assert_eq!(median(&[85.0, 400.0, 87.0]), Some(87.0));
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        // |400 - 87| / 87
        assert!((window_spread(&[85.0, 400.0, 87.0]) - 313.0 / 87.0).abs() < 1e-12);
        assert_eq!(window_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quiet_outlasts_a_spell_over_most_of_the_windows() {
        // Twelve windows, eleven of them in a slow spell: the median (and
        // the second best window, 121) are in the spell, the best is not.
        let windows = [
            127.0, 152.0, 155.0, 165.0, 154.0, 127.0, 125.0, 131.0, 122.0, 89.0, 121.0, 133.0,
        ];
        assert_eq!(median(&windows), Some(129.0));
        assert_eq!(quiet(&windows, Better::Lower), Some(89.0));
        // Up to twenty values: the best one, whichever way is better.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&twenty, Better::Higher), Some(20.0));
        assert_eq!(quiet(&twenty, Better::Lower), Some(1.0));
        assert_eq!(quiet(&[87.0, 400.0, 85.0], Better::Lower), Some(85.0));
        // 21 to 40: the second best. 50 set-ups: the third. 120 windows:
        // the sixth.
        let values = |n: u32| (1..=n).rev().map(f64::from).collect::<Vec<f64>>();
        assert_eq!(quiet(&values(21), Better::Lower), Some(2.0));
        assert_eq!(quiet(&values(50), Better::Lower), Some(3.0));
        assert_eq!(quiet(&values(120), Better::Lower), Some(6.0));
        assert_eq!(quiet(&values(120), Better::Higher), Some(115.0));
        assert_eq!(quiet(&[], Better::Lower), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some([10.0, 20.0, 30.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &str, lo: u64, hi: u64) -> SpanRec {
        SpanRec {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: name.to_owned(),
            start_us: lo,
            end_us: hi,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 1, None, "root", 0, 100),
            // Overlapping children cover [10, 50] once: 40 us.
            span(1, 2, Some(1), "a", 10, 40),
            span(1, 3, Some(1), "b", 30, 50),
            // Runs past the parent's end: clipped to [90, 100], 10 us.
            span(1, 4, Some(1), "c", 90, 130),
            // Grandchild covers 5 us of `a`.
            span(1, 5, Some(2), "a.inner", 12, 17),
        ];
        assert_eq!(self_times_us(&spans), vec![50, 25, 20, 40, 5]);
    }

    #[test]
    fn bench_spans_adopt_the_work_done_inside_them() {
        let mut spans = vec![
            span(7, 1, None, "bench.setup", 0, 50),
            span(7, 2, Some(1), "interaction", 5, 900),
            // Two taps, each with the program's invoke span parented under
            // the interaction, not under the tap.
            span(7, 3, Some(1), "bench.op", 100, 190),
            span(7, 4, Some(2), "invoke:move", 104, 186),
            span(7, 5, Some(4), "rpc:move", 110, 180),
            span(7, 6, Some(1), "bench.op", 200, 300),
            span(7, 7, Some(2), "invoke:move", 205, 290),
            // Another phone's trace, same instants: never adopted.
            span(8, 8, None, "invoke:move", 120, 160),
        ];
        adopt_into_bench_spans(&mut spans);
        assert_eq!(spans[3].parent_id, Some(3));
        assert_eq!(spans[6].parent_id, Some(6));
        // The rpc keeps its parent: that parent starts inside the tap.
        assert_eq!(spans[4].parent_id, Some(4));
        assert_eq!(spans[7].parent_id, None);
        let own = self_times_us(&spans);
        assert_eq!(own[2], 90 - 82); // tap minus its invoke
        assert_eq!(own[3], 82 - 70); // invoke minus its rpc
        assert_eq!(own[5], 100 - 85);
    }

    #[test]
    fn schedule_gives_due_times_and_lateness() {
        let s = Schedule::at_rate(1_000, 80);
        assert_eq!(s.period_ns, 12_500_000);
        assert_eq!(s.due_ns(0, 0), 1_000);
        assert_eq!(s.due_ns(4, 0), 50_001_000);
        // The draw moves an op inside its slot, never out of it.
        assert_eq!(s.due_ns(4, 12_499_999), 62_500_999);
        assert_eq!(s.due_ns(4, 12_500_007), 50_001_007);
        assert_eq!(lateness_ns(50_001_000, 50_001_000), 0);
        assert_eq!(lateness_ns(50_001_000, 50_061_000), 60_000);
        // Starting early is not negative lateness.
        assert_eq!(lateness_ns(50_001_000, 40_000_000), 0);
        assert_eq!(Schedule::at_rate(0, 1_000).period_ns, 1_000_000);
    }

    #[test]
    fn fanout_joins_on_seq() {
        let published = [
            (10, 1_000),
            (11, 2_000),
            (12, 3_000),
            (13, 4_000),
            (14, 5_000),
        ];
        let arrivals = [
            Arrival::Delta {
                seq: 10,
                at_ns: 1_250,
            },
            // seq 11 and 12 were coalesced into one snapshot at seq 12.
            Arrival::Snapshot {
                seq: 12,
                at_ns: 3_900,
            },
            Arrival::Delta {
                seq: 13,
                at_ns: 4_100,
            },
            // A duplicate delivery does not move the first arrival.
            Arrival::Delta {
                seq: 13,
                at_ns: 9_000,
            },
        ];
        assert_eq!(
            join_fanout(&published, &arrivals),
            vec![Some(250), Some(1_900), Some(900), Some(100), None]
        );
        // A snapshot that arrives before the delta's own delivery wins.
        let arrivals = [
            Arrival::Snapshot {
                seq: 20,
                at_ns: 1_100,
            },
            Arrival::Delta {
                seq: 10,
                at_ns: 1_500,
            },
        ];
        assert_eq!(join_fanout(&[(10, 1_000)], &arrivals), vec![Some(100)]);
    }
}
