//! Where generators put their ops. A run records over a million; the log
//! keeps four bytes for each, because the process's peak memory is one of
//! the reported metrics (6 MiB of `tap_mouse`'s 11.7 at 30 s even so).

use crate::workloads::Timeline;

/// One op as its generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Due time (open loop) or start time (closed loop).
    pub t0_ns: u64,
    /// How late the generator started it (open loop only).
    pub late_ns: u64,
    /// `handle_event` call (due time in `room_board`) to its return.
    pub ack_ns: u64,
    /// What the user waits for: the ack for taps, due -> first tap
    /// acknowledged for a walk-up, due -> the other phone's subscriber in
    /// `room_board`. `None` when the op failed.
    pub op_ns: Option<u64>,
}

/// Whether ops carry more than one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Closed loop: never late, and the ack is the op. One number per op.
    Closed,
    /// Open loop: lateness, ack and op latency all differ and are all kept.
    Open,
}

const FAILED: u32 = u32::MAX;

fn packed(ns: u64) -> u32 {
    ns.min(u64::from(FAILED - 1)) as u32
}

/// The ops of one measured window, nanoseconds packed into `u32`
/// (saturating at 4.29 s).
#[derive(Debug, Default)]
pub struct WindowLog {
    /// Op latency per op; [`FAILED`] for a failed one.
    op_ns: Vec<u32>,
    ack_ns: Vec<u32>,
    late_ns: Vec<u32>,
    /// Ops that completed *in* this window (the vectors above hold the ops
    /// that were due or started in it), and when the first and last did.
    done: u64,
    first_done_ns: u64,
    last_done_ns: u64,
}

impl WindowLog {
    pub fn attempted(&self) -> usize {
        self.op_ns.len()
    }

    /// Latencies of the ops that completed, ascending.
    pub fn sorted_ops(&self) -> Vec<u64> {
        sorted(self.op_ns.iter().filter(|&&v| v != FAILED))
    }

    /// Ack latencies, ascending; the op latencies in a closed loop.
    pub fn sorted_acks(&self) -> Vec<u64> {
        if self.ack_ns.is_empty() {
            self.sorted_ops()
        } else {
            sorted(self.ack_ns.iter())
        }
    }

    pub fn sorted_lateness(&self) -> Vec<u64> {
        sorted(self.late_ns.iter())
    }

    /// Counts `count` completions, the first at `first_ns`, the last at
    /// `last_ns`.
    fn note_done(&mut self, count: u64, first_ns: u64, last_ns: u64) {
        if count == 0 {
            return;
        }
        self.first_done_ns = if self.done == 0 {
            first_ns
        } else {
            self.first_done_ns.min(first_ns)
        };
        self.last_done_ns = self.last_done_ns.max(last_ns);
        self.done += count;
    }
}

/// Ops completed per second in each window, from the completions
/// themselves: the ops that completed in a window over the time from the
/// previous window's last completion to this window's last (in the first
/// window, from its own first completion). The intervals tile the run, so a
/// stall is in exactly one of them; a window without completions is skipped
/// and its time falls to the next.
pub fn window_rates(windows: &[WindowLog]) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut since: Option<u64> = None;
    for w in windows.iter().filter(|w| w.done > 0) {
        let (from_ns, ops) = match since {
            Some(last) => (last, w.done),
            None => (w.first_done_ns, w.done - 1),
        };
        if w.last_done_ns > from_ns && ops > 0 {
            rates.push(ops as f64 * 1e9 / (w.last_done_ns - from_ns) as f64);
        }
        since = Some(w.last_done_ns);
    }
    rates
}

fn sorted<'a>(values: impl Iterator<Item = &'a u32>) -> Vec<u64> {
    let mut v: Vec<u64> = values.map(|&v| u64::from(v)).collect();
    v.sort_unstable();
    v
}

#[derive(Debug)]
pub struct OpLog {
    kind: Loop,
    measure_ns: u64,
    end_ns: u64,
    window_ns: u64,
    pub windows: Vec<WindowLog>,
    /// Ops pushed, warm-up included.
    pub generated: u64,
}

impl OpLog {
    pub fn new(timeline: &Timeline, kind: Loop) -> OpLog {
        OpLog {
            kind,
            measure_ns: timeline.measure_ns,
            end_ns: timeline.end_ns,
            window_ns: timeline.window_ns,
            windows: (0..timeline.windows)
                .map(|_| WindowLog::default())
                .collect(),
            generated: 0,
        }
    }

    /// The window `t_ns` falls in, if it is in the measured interval.
    fn window_at(&mut self, t_ns: u64) -> Option<&mut WindowLog> {
        if t_ns < self.measure_ns || t_ns >= self.end_ns {
            return None;
        }
        let last = self.windows.len() - 1;
        let w = ((t_ns - self.measure_ns) / self.window_ns) as usize;
        Some(&mut self.windows[w.min(last)])
    }

    /// Counts the op, keeps it if it was due (or started) in a window, and
    /// counts its completion in the window it completed in.
    pub fn push(&mut self, op: Op) {
        self.generated += 1;
        if let Some(op_ns) = op.op_ns {
            let done_ns = op.t0_ns + op_ns;
            if let Some(window) = self.window_at(done_ns) {
                window.note_done(1, done_ns, done_ns);
            }
        }
        let kind = self.kind;
        let Some(window) = self.window_at(op.t0_ns) else {
            return;
        };
        window.op_ns.push(op.op_ns.map_or(FAILED, packed));
        if kind == Loop::Open {
            window.ack_ns.push(packed(op.ack_ns));
            window.late_ns.push(packed(op.late_ns));
        }
    }

    /// Folds another generator's log of the same pass into this one.
    pub fn merge(&mut self, other: OpLog) {
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.op_ns.extend(theirs.op_ns);
            mine.ack_ns.extend(theirs.ack_ns);
            mine.late_ns.extend(theirs.late_ns);
            mine.note_done(theirs.done, theirs.first_done_ns, theirs.last_done_ns);
        }
        self.generated += other.generated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two windows of 1 s, measured from t = 10 s.
    fn timeline() -> Timeline {
        Timeline {
            start_ns: 9_000_000_000,
            measure_ns: 10_000_000_000,
            end_ns: 12_000_000_000,
            window_ns: 1_000_000_000,
            windows: 2,
            max_ops: u64::MAX,
        }
    }

    fn op(t0_ms: u64, op_ms: Option<u64>) -> Op {
        Op {
            t0_ns: t0_ms * 1_000_000,
            late_ns: 0,
            ack_ns: 1_000_000,
            op_ns: op_ms.map(|ms| ms * 1_000_000),
        }
    }

    #[test]
    fn ops_count_where_they_were_due_and_completions_where_they_completed() {
        let mut log = OpLog::new(&timeline(), Loop::Open);
        log.push(op(9_990, Some(20))); // warm-up op, completes in window 0
        log.push(op(10_900, Some(200))); // due in window 0, completes in window 1
        log.push(op(11_500, None)); // failed: attempted, never completed
        log.push(op(11_990, Some(20))); // completes after the last window
        assert_eq!(log.generated, 4);
        assert_eq!(log.windows[0].attempted(), 1);
        assert_eq!(log.windows[1].attempted(), 2);
        assert_eq!(log.windows[0].done, 1);
        assert_eq!(log.windows[1].done, 1);
        assert_eq!(log.windows[0].sorted_ops(), vec![200_000_000]);
        assert_eq!(log.windows[1].sorted_ops(), vec![20_000_000]);
    }

    #[test]
    fn window_rates_tile_the_run_between_last_completions() {
        let mut log = OpLog::new(&timeline(), Loop::Closed);
        // Window 0: completions at 10.1, 10.3, 10.5 s. The first one opens
        // the interval: 2 ops in 0.4 s.
        for t0 in [10_000, 10_200, 10_400] {
            log.push(op(t0, Some(100)));
        }
        // Window 1: completions at 11.0 and 11.5 s, counted from 10.5 s:
        // 2 ops in 1.0 s. A stall between the windows is in this interval.
        for t0 in [10_900, 11_400] {
            log.push(op(t0, Some(100)));
        }
        let rates = window_rates(&log.windows);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);

        // Two generators' logs fold into the same windows.
        let mut other = OpLog::new(&timeline(), Loop::Closed);
        other.push(op(11_700, Some(100))); // completes at 11.8 s
        log.merge(other);
        let rates = window_rates(&log.windows);
        assert!((rates[1] - 3.0 / 1.3).abs() < 1e-9);

        // A window without completions is skipped; its time falls to the next.
        let mut gap = OpLog::new(&timeline(), Loop::Closed);
        gap.push(op(11_000, Some(100)));
        gap.push(op(11_400, Some(100)));
        assert_eq!(window_rates(&gap.windows), vec![1.0 / 0.4]);
    }
}
