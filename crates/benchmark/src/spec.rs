//! The benchmark's contract: workload names, metric names, units, which
//! direction is better and the regression bounds. `BENCHMARK.json` at the
//! repository root is generated from these tables
//! (`benchmark --print-benchmark-json`) and a unit test keeps the two equal.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// The command `BENCHMARK.json` names.
pub const COMMAND: [&str; 2] = ["bash", "crates/benchmark/run.sh"];

/// The directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["crates/benchmark"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads of `BENCHMARK.json`: the ones the driver runs and holds to
/// the bounds.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "select_hot",
        why: "probe-bound: 50k selection triggers (10% two-arm OR), ~4 fires/token, cache holds all; predindex and the drain loop do the work, storage and wire none",
    },
    WorkloadSpec {
        name: "durable_drain",
        why: "file store and persistent queue, push and drain alternating on one thread, 1-s episodes on a fresh store: WAL group commit and the queue table scan/ack/watermark dominate, predindex does little",
    },
    WorkloadSpec {
        name: "wire_e2e",
        why: "open loop over loopback TCP at 40k tok/s: client flush, frame decode, queue, drain, delivery log, subscriber ack; the only workload through crates/wire",
    },
    WorkloadSpec {
        name: "ddl_churn",
        why: "create/drop triggers in a closed loop beside an open 5k tok/s token stream: index, catalog and cache take writes beside reads, so a DDL that stalls probes shows in fire latency",
    },
];

/// Workloads the command runs like the others (`--workload`, the full set,
/// `--agree`) that are not in `BENCHMARK.json`. Both are bound by memory
/// and by a contended channel, and ten runs of either spread by 17–28 % in
/// a bad hour of the shared host, past any bound the contract allows; and
/// the contract's time limit holds four workloads at a 25-second window or
/// six at 15 seconds. They are for reading, by hand, beside a change to
/// the layers they load.
pub const UNGATED_WORKLOADS: [WorkloadSpec; 2] = [
    WorkloadSpec {
        name: "fanout_heavy",
        why: "match-bound: Zipf symbols fire thousands of triggers per token; pin, action and EventBus fan-out dominate, the probe is noise (bypass for probe optimisations)",
    },
    WorkloadSpec {
        name: "cache_cold",
        why: "working set 20x the trigger cache: nearly every fire misses, so cache load, catalog decode/compile and the buffer pool do the work (select_hot is its all-hits twin)",
    },
];

/// Every workload the command knows, the gated ones first.
pub fn all_workloads() -> impl Iterator<Item = &'static WorkloadSpec> {
    WORKLOADS.iter().chain(&UNGATED_WORKLOADS)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may get worse.
    /// End-to-end metrics carry it into `BENCHMARK.json`; on a per-layer
    /// metric it is used by `--agree` only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 0`; never zero on any of them.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tokens_per_s", "tokens/s", Higher, 0.25),
    e2e("fire_latency_p50_us", "us", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.15),
];

/// Reported by every workload with `--trace 1`. A metric that does not
/// apply to a workload (wire counters without a wire server) reads 0.
/// The `e2e.*` rows are end-to-end in nature but cannot sit in
/// [`END_TO_END`], which must hold on every workload and repeat from run to
/// run: the sustained rate, the DDL numbers and bytes on disk exist on some
/// workloads only, and tail latency on this two-core host does not repeat
/// within any bound the contract allows. `--agree` still shows them
/// against the bound given here.
pub const PER_LAYER: [MetricSpec; 56] = [
    // Notifications per second: `tokens_per_s` times the workload's fires
    // per token, which the reference fixes, so it is not gated a second time.
    e2e("e2e.fires_per_s", "fires/s", Higher, 0.25),
    // Over the whole window, disturbed slices and all: a stall that
    // `tokens_per_s` (the window's better slices) leaves out shows here.
    e2e("e2e.tokens_per_s_mean", "tokens/s", Higher, 0.25),
    e2e("e2e.fire_latency_p99_us", "us", Lower, 0.25),
    // A rung of a fixed ladder: `--agree` allows one rung.
    layer("e2e.sustained_rate_tps", "tokens/s", Higher),
    e2e("e2e.ddl_ops_per_s", "ops/s", Higher, 0.10),
    e2e("e2e.ddl_latency_p50_us", "us", Lower, 0.15),
    e2e("e2e.ddl_latency_p99_us", "us", Lower, 0.25),
    e2e("e2e.disk_bytes_per_token", "B/token", Lower, 0.10),
    layer("lang.parse_ns_per_cmd", "ns", Lower),
    layer("expr.signature_ns_per_cond", "ns", Lower),
    layer("predindex.probe_ns_per_token", "ns", Lower),
    layer("predindex.matches_per_token", "count", Lower),
    layer("predindex.residual_pass_ratio", "ratio", Higher),
    layer("predindex.tag_dedup_per_token", "count", Lower),
    layer("predindex.add_ns_per_entry", "ns", Lower),
    layer("predindex.remove_ns_per_trigger", "ns", Lower),
    layer("predindex.mem_bytes_per_entry", "B", Lower),
    layer("engine.driver.tman_test_self_ns_per_token", "ns", Lower),
    layer("engine.driver.busy_share", "ratio", Lower),
    layer("engine.driver.tokens_per_call", "count", Higher),
    layer("engine.driver.shard_skew", "ratio", Lower),
    layer("engine.driver.speedup_2_over_1", "ratio", Higher),
    layer("engine.queue.enqueue_ns_per_token", "ns", Lower),
    layer("engine.queue.dequeue_ns_per_token", "ns", Lower),
    layer("engine.queue.ack_ns_per_token", "ns", Lower),
    layer("engine.queue.rows_scanned_per_dequeued", "ratio", Lower),
    layer("engine.queue.wait_p50_us", "us", Lower),
    layer("engine.queue.depth_max", "count", Lower),
    layer("engine.cache.pin_ns_per_fire", "ns", Lower),
    layer("engine.cache.hit_ratio", "ratio", Higher),
    layer("engine.cache.evictions_per_token", "count", Lower),
    layer("engine.action.ns_per_fire", "ns", Lower),
    layer("engine.events.recv_self_ns_per_fire", "ns", Lower),
    layer("engine.events.dropped", "count", Lower),
    layer("storage.wal.bytes_per_token", "B", Lower),
    layer("storage.wal.fsyncs_per_ktoken", "count", Lower),
    layer("storage.wal.tokens_per_group_commit", "count", Higher),
    layer("storage.wal.group_commit_p50_us", "us", Lower),
    layer("storage.wal.checkpoints", "count", Lower),
    layer("storage.wal.append_commit_ns_per_page", "ns", Lower),
    layer("storage.buffer.hit_ratio", "ratio", Higher),
    layer("storage.buffer.page_reads_per_token", "count", Lower),
    layer("wire.frame.encode_ns_per_token", "ns", Lower),
    layer("wire.frame.decode_ns_per_token", "ns", Lower),
    layer("wire.frame.bytes_per_token", "B", Lower),
    layer("wire.server.tokens_per_batch", "count", Higher),
    layer("wire.server.backpressure_events", "count", Lower),
    layer("wire.delivery.ingest_to_fire_p50_us", "us", Lower),
    layer("wire.delivery.fire_to_ack_p50_us", "us", Lower),
    layer("wire.delivery.appends_per_fire", "ratio", Lower),
    layer("wire.delivery.redelivery_suppressed", "count", Lower),
    layer("generator.lag_p99_us", "us", Lower),
    layer("generator.worst_slice_p99_us", "us", Lower),
    layer("generator.step2_p99_us", "us", Lower),
    layer("generator.step3_p99_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", tman_telemetry::json_escape(s))
}

fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", json_list(&COMMAND)));
    out.push_str(&format!("  \"paths\": {},\n", json_list(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in all_workloads() {
            assert!(legal(w.name, "_.-", 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(legal(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(legal(m.unit, "_/%.-", 16), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_what_the_tables_say() {
        let committed = include_str!("../../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }
}
