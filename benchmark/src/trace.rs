//! The traced pass's spans: kept in memory while the window runs, written
//! to a JSONL file when it ends, and reduced to per-layer self times from
//! that file (not from live counters).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use alfredo_obs::RingSink;
use alfredo_osgi::Json;

use crate::stats::{adopt_into_bench_spans, median, self_times_us, SpanRec};

/// Spans the ring keeps. A tap records about five (the benchmark's, the
/// session's invoke, the endpoint's rpc, the device's serve); the traced
/// window issues at most 2 x 10 000 taps.
pub const RING_SPANS: usize = 200_000;

/// Span-name families (the part before `:`) and the metric each reports as.
const FAMILIES: [(&str, &str); 9] = [
    ("bench.op", "trace.bench.op.self_us"),
    ("invoke", "trace.invoke.self_us"),
    ("rpc", "trace.rpc.self_us"),
    ("serve", "trace.serve.self_us"),
    ("handshake", "trace.handshake.self_us"),
    ("lease", "trace.lease.self_us"),
    ("tier_transfer", "trace.tier_transfer.self_us"),
    ("render", "trace.render.self_us"),
    ("fetch", "trace.fetch.self_us"),
];

pub struct Reduced {
    /// Median self time per family, by metric name; 0 for a family the
    /// workload never entered.
    pub self_us: Vec<(&'static str, f64)>,
    /// Spans in the file.
    pub spans: usize,
}

fn parse_span(line: &str) -> Option<SpanRec> {
    let j = Json::parse(line).ok()?;
    let start_us = j.get("start_us")?.as_u64()?;
    Some(SpanRec {
        trace_id: j.get("trace_id")?.as_u64()?,
        span_id: j.get("span_id")?.as_u64()?,
        parent_id: j.get("parent_id").and_then(Json::as_u64),
        name: j.get("name")?.as_str()?.to_owned(),
        start_us,
        end_us: start_us + j.get("duration_us")?.as_u64()?,
    })
}

/// Writes the ring to `path`, reads the file back, and computes the median
/// self time of every span family.
pub fn write_and_reduce(ring: &RingSink, path: &Path) -> io::Result<Reduced> {
    ring.write_jsonl(path)?;
    let text = std::fs::read_to_string(path)?;
    let mut spans: Vec<SpanRec> = text.lines().filter_map(parse_span).collect();
    adopt_into_bench_spans(&mut spans);
    let own = self_times_us(&spans);
    let mut by_family: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (span, own_us) in spans.iter().zip(own) {
        let family = span.name.split(':').next().unwrap_or("");
        by_family.entry(family).or_default().push(own_us as f64);
    }
    Ok(Reduced {
        self_us: FAMILIES
            .iter()
            .map(|(family, metric)| {
                let m = by_family.get(family).and_then(|v| median(v));
                (*metric, m.unwrap_or(0.0))
            })
            .collect(),
        spans: spans.len(),
    })
}
