//! The benchmark's metric names, units and directions: the one table the
//! result line, the printed report and `BENCHMARK.json` are checked against.

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, "lower", 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, "higher", 0.0)
}

/// Every end-to-end metric may get worse by a quarter of the parent's median
/// before a change counts as a regression: the widest bound the driver
/// takes. On the shared VM this was built on, whole runs slow down by 15-20 %
/// for minutes at a time (see the README's noise floor); a tighter gate
/// would reject changes for the neighbours' load. A gain is shown by paired
/// runs, not by this bound.
const BOUND: f64 = 0.25;

/// What a user of the system sees. "op" is a tap (`tap_mouse`,
/// `browse_shop`), a walk-up (`walkup_churn`), or a tap on one phone
/// becoming visible on the other (`room_board`).
pub const END_TO_END: [Metric; 6] = [
    e2e("op_p50_us", "us", "lower", BOUND),
    e2e("op_p90_us", "us", "lower", BOUND),
    e2e("ops_per_s", "1/s", "higher", BOUND),
    e2e("cpu_us_per_op", "us", "lower", BOUND),
    e2e("peak_rss_mb", "MiB", "lower", BOUND),
    e2e("setup_s", "s", "lower", BOUND),
];

/// Single layers, named after the crate and module they time or read.
pub const PER_LAYER: [Metric; 86] = [
    // Isolated timings (the layers pass).
    lower("sync.channel.pingpong_us", "us"),
    lower("net.pool.take_give_ns", "ns"),
    lower("net.reassembler.feed_ns", "ns"),
    lower("net.reassembler.feed_split_ns", "ns"),
    lower("net.tcp.frame_rtt_us", "us"),
    lower("net.tcp.frame_rtt_2k_us", "us"),
    lower("net.channel.frame_rtt_us", "us"),
    lower("net.tcp.connect_close_us", "us"),
    lower("rosgi.message.encode_invoke_ns", "ns"),
    lower("rosgi.message.decode_invoke_ns", "ns"),
    lower("rosgi.message.encode_response_ns", "ns"),
    lower("rosgi.message.decode_response_ns", "ns"),
    lower("rosgi.codec.encode_value_ns", "ns"),
    lower("rosgi.codec.decode_value_ns", "ns"),
    lower("rosgi.codec.properties_roundtrip_ns", "ns"),
    lower("rosgi.endpoint.invoke_inmem_us", "us"),
    lower("rosgi.endpoint.invoke_tcp_us", "us"),
    lower("rosgi.endpoint.invoke_tcp_queued_us", "us"),
    lower("rosgi.endpoint.residual_us", "us"),
    lower("rosgi.endpoint.send_event_us", "us"),
    lower("rosgi.endpoint.establish_us", "us"),
    lower("rosgi.endpoint.fetch_service_us", "us"),
    lower("rosgi.endpoint.close_us", "us"),
    lower("rosgi.serve.submit_run_us", "us"),
    lower("osgi.registry.get_service_ns", "ns"),
    lower("osgi.events.post_ns", "ns"),
    lower("osgi.json.parse_us", "us"),
    lower("osgi.json.write_us", "us"),
    lower("ui.description.decode_us", "us"),
    lower("ui.render_us", "us"),
    lower("alfredo.descriptor.decode_us", "us"),
    lower("alfredo.engine.connect_us", "us"),
    lower("alfredo.engine.acquire_cold_us", "us"),
    lower("alfredo.engine.acquire_warm_us", "us"),
    lower("alfredo.session.close_us", "us"),
    lower("alfredo.session.local_event_ns", "ns"),
    lower("alfredo.room.publish_ns", "ns"),
    lower("alfredo.room.publish_journaled_ns", "ns"),
    lower("alfredo.room.fanout_inproc_us", "us"),
    lower("alfredo.room.replica_apply_ns", "ns"),
    lower("journal.append_ns", "ns"),
    lower("journal.commit_lag_ms", "ms"),
    lower("apps.mouse.move_ns", "ns"),
    lower("apps.shop.details_ns", "ns"),
    lower("apps.cursor.move_ns", "ns"),
    lower("obs.span_ns", "ns"),
    lower("bench.tap_ref_p50_us", "us"),
    lower("bench.budget_sum_us", "us"),
    higher("bench.budget_coverage", "ratio"),
    // Counters and ratios read from public stats around an untraced window
    // of the workload.
    higher("net.pool.hit_ratio", "ratio"),
    lower("net.fd_growth_per_op", "count"),
    lower("net.reactor.open_connections_end", "count"),
    lower("net.reactor.io_threads", "count"),
    lower("net.bytes_per_op", "B"),
    lower("net.frames_per_op", "count"),
    lower("rosgi.serve.rejected_share", "ratio"),
    lower("rosgi.serve.shed_share", "ratio"),
    lower("rosgi.endpoint.retries_per_op", "count"),
    lower("rosgi.endpoint.heartbeats_per_s", "1/s"),
    higher("alfredo.cache.hit_ratio", "ratio"),
    lower("alfredo.cache.bytes_per_walkup", "B"),
    lower("alfredo.room.deliveries_per_delta", "count"),
    lower("alfredo.room.coalesced_share", "ratio"),
    lower("alfredo.room.busy_kicks", "count"),
    higher("journal.appends_per_fsync", "count"),
    lower("journal.bytes_per_append", "B"),
    lower("journal.dropped", "count"),
    lower("journal.recover_ms", "ms"),
    lower("bench.op_p95_us", "us"),
    lower("bench.op_p99_us", "us"),
    lower("bench.ack_p50_us", "us"),
    lower("bench.ack_p99_us", "us"),
    lower("bench.sched_lag_p99_us", "us"),
    lower("bench.window_spread", "ratio"),
    lower("bench.threads_peak", "count"),
    // The traced window: median self time per span-name family, computed
    // from the written JSONL.
    lower("trace.bench.op.self_us", "us"),
    lower("trace.invoke.self_us", "us"),
    lower("trace.rpc.self_us", "us"),
    lower("trace.serve.self_us", "us"),
    lower("trace.handshake.self_us", "us"),
    lower("trace.lease.self_us", "us"),
    lower("trace.tier_transfer.self_us", "us"),
    lower("trace.render.self_us", "us"),
    lower("trace.fetch.self_us", "us"),
    lower("trace.spans_per_op", "count"),
    lower("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use alfredo_osgi::Json;

    /// `BENCHMARK.json` at the repo root names exactly this table.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table =
            |metrics: &[Metric], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            m.unit.to_owned(),
                            m.better.to_owned(),
                            bounded.then_some(m.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), table(&END_TO_END, true));
        assert_eq!(listed("per_layer"), table(&PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
