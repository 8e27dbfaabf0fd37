//! Engine-wide observability: the engine's own instruments
//! (`EngineTelemetry`), the benchmark harness's typed view
//! ([`MetricsSnapshot`]), and the families each `show stats` subsystem
//! prints.
//!
//! Every series is registered once, by the subsystem that bumps it, into
//! one [`tman_telemetry::Registry`] — the subsystem's own `Arc`s or
//! computed reads, so exposition reads live values at no hot-path cost.
//! `/metrics`, `/metrics.json` and `show stats` all render that registry,
//! and every other reader reads it by series name.

use crate::{EngineStats, TriggerMan};
use std::sync::Arc;
use tman_common::{Result, TmanError};
use tman_telemetry::{Counter, Histogram, HistogramSummary, Registry};

/// Action-kind slots for `tman_actions_total{kind=...}`.
pub(crate) const ACTION_EXEC_SQL: usize = 0;
pub(crate) const ACTION_RAISE_EVENT: usize = 1;
pub(crate) const ACTION_NOTIFY: usize = 2;
const ACTION_LABELS: [&str; 3] = ["exec_sql", "raise_event", "notify"];

/// `show stats` subsystems.
pub(crate) const SUBSYSTEMS: [&str; 9] = [
    "engine", "queue", "driver", "index", "cache", "storage", "actions", "trace", "wire",
];

/// The `show stats` subsystem a metric family belongs to, by the word
/// after `tman_` (`None` for a family no subsystem claims).
pub(crate) fn subsystem_of(family: &str) -> Option<&'static str> {
    if family == "tman_actions_run_total" {
        return Some("engine");
    }
    Some(match family.strip_prefix("tman_")?.split('_').next()? {
        "tokens" | "firings" | "task" | "window" => "engine",
        "queue" => "queue",
        "test" | "driver" => "driver",
        "index" | "tagged" | "tag" => "index",
        "cache" => "cache",
        "pool" | "page" | "disk" | "io" | "checksum" | "quarantined" | "faults" | "wal" => {
            "storage"
        }
        "actions" | "action" | "notify" | "notifications" => "actions",
        "trace" => "trace",
        "wire" => "wire",
        _ => return None,
    })
}

/// `show stats [<subsystem>]`: the registry's text exposition, limited to
/// the families of `subsystem` (`predindex`, `action` and `drivers` are
/// aliases of `index`, `actions` and `driver`).
pub(crate) fn show_stats(registry: &Registry, subsystem: Option<&str>) -> Result<String> {
    let Some(subsystem) = subsystem.map(str::to_lowercase) else {
        return Ok(registry.render_text());
    };
    let name = match subsystem.as_str() {
        "predindex" => "index",
        "action" => "actions",
        "drivers" => "driver",
        other => other,
    };
    if !SUBSYSTEMS.contains(&name) {
        return Err(TmanError::Invalid(format!(
            "unknown stats subsystem '{name}' (expected one of: {})",
            SUBSYSTEMS.join(", ")
        )));
    }
    Ok(registry.render_text_where(|family| subsystem_of(family) == Some(name)))
}

/// The engine's own instruments, created in its registry: what the drain,
/// the actions and the error path bump that no other subsystem owns.
pub(crate) struct EngineTelemetry {
    /// The registry all instruments live in.
    pub registry: Arc<Registry>,
    /// `tman_test_ns`: duration of each `tman_test` invocation.
    pub tman_test_ns: Arc<Histogram>,
    /// `tman_test_calls_total`.
    pub tman_test_calls: Arc<Counter>,
    /// `tman_test_threshold_expirations_total`: invocations that returned
    /// `TasksRemaining` because THRESHOLD expired.
    pub threshold_expirations: Arc<Counter>,
    /// `tman_action_ns`: time spent on rule actions, one sample per action
    /// run. An `execSQL` action's sample is its own substitution and
    /// statement, under its own clock pair. A `raise event` or `notify`
    /// action's sample is its share of the delivery of the run it left
    /// with — sinks, routing, sends, timed once for the run and divided
    /// evenly (`record_n`) — so `count` is actions run and `sum` the time
    /// spent on them, while the quantiles over those samples are
    /// quantiles of per-run means, not of single deliveries. Building the
    /// notification (evaluating its arguments) is not in it.
    pub action_ns: Arc<Histogram>,
    /// `tman_actions_total{kind=...}`.
    pub actions_by_kind: [Arc<Counter>; 3],
    /// `tman_task_errors_total{kind=...}`, indexed by
    /// [`TmanError::kind_index`]. Bumped beside the unlabelled total, and
    /// only on the failure path.
    pub errors_by_kind: [Arc<Counter>; 10],
    /// `tman_tag_dedup_hits_total`: matches suppressed because another
    /// entry already claimed the tag.
    pub tag_dedup_hits: Arc<Counter>,
    /// `tman_window_fires_total`: windowed-trigger firings admitted.
    pub window_fires: Arc<Counter>,
}

impl EngineTelemetry {
    /// The engine's instruments, and its totals ([`EngineStats`]), created
    /// in a fresh registry.
    pub(crate) fn new() -> (EngineTelemetry, EngineStats) {
        let registry = Arc::new(Registry::new());
        let r = &registry;
        let stats = EngineStats {
            tokens: r.counter("tman_tokens_processed_total", &[]),
            firings: r.counter("tman_firings_total", &[]),
            actions: r.counter("tman_actions_run_total", &[]),
            errors: r.counter("tman_task_errors_total", &[]),
        };
        let telemetry = EngineTelemetry {
            tman_test_ns: r.histogram("tman_test_ns", &[]),
            tman_test_calls: r.counter("tman_test_calls_total", &[]),
            threshold_expirations: r.counter("tman_test_threshold_expirations_total", &[]),
            action_ns: r.histogram("tman_action_ns", &[]),
            actions_by_kind: std::array::from_fn(|i| {
                r.counter("tman_actions_total", &[("kind", ACTION_LABELS[i])])
            }),
            errors_by_kind: std::array::from_fn(|i| {
                r.counter("tman_task_errors_total", &[("kind", TmanError::KINDS[i])])
            }),
            tag_dedup_hits: r.counter("tman_tag_dedup_hits_total", &[]),
            window_fires: r.counter("tman_window_fires_total", &[]),
            registry,
        };
        (telemetry, stats)
    }
}

/// What the benchmark harness reads of the engine's metrics
/// ([`TriggerMan::metrics_snapshot`]): each field is read from the
/// registry by the name of the series an operator reads. Every other
/// reader reads the registry itself ([`TriggerMan::metrics_registry`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Engine totals.
    pub engine: EngineMetrics,
    /// Update-descriptor queue.
    pub queue: QueueMetrics,
    /// `tman_test` and the driver slots.
    pub driver: DriverMetrics,
    /// Predicate index.
    pub index: IndexMetrics,
    /// Trigger cache.
    pub cache: CacheMetrics,
    /// Buffer pool, disk and write-ahead log.
    pub storage: StorageMetrics,
    /// Rule actions and notifications.
    pub actions: ActionMetrics,
    /// TCP wire tier: all zero until a `WireServer` is started on this
    /// engine (the engine crate does not depend on the wire crate).
    pub wire: WireMetrics,
}

/// Engine totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineMetrics {
    /// `tman_tokens_processed_total`.
    pub tokens: u64,
    /// `tman_actions_run_total`.
    pub actions: u64,
}

/// Queue metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueMetrics {
    /// `tman_queue_dequeued_total`.
    pub dequeued: u64,
    /// `tman_queue_wait_ns`.
    pub wait_ns: HistogramSummary,
}

/// `tman_test` and driver-slot metrics.
#[derive(Debug, Clone, Default)]
pub struct DriverMetrics {
    /// `tman_test_calls_total`.
    pub tman_test_calls: u64,
    /// One entry per driver slot. Named `shards` only for the benchmark
    /// harness, which reads it by that name.
    pub shards: Vec<ShardMetrics>,
}

/// One driver slot's activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardMetrics {
    /// `tman_driver_tokens_total{driver=...}`.
    pub tokens: u64,
}

/// Predicate-index metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexMetrics {
    /// `tman_index_matches_all_total`.
    pub matches: u64,
    /// `tman_index_residual_tests_total`.
    pub residual_tests: u64,
    /// `tman_tag_dedup_hits_total`.
    pub tag_dedup_hits: u64,
    /// `tman_index_memory_bytes`.
    pub memory_bytes: usize,
    /// `tman_index_entries`.
    pub entries: usize,
}

/// Trigger-cache metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheMetrics {
    /// `tman_cache_hits_total`.
    pub hits: u64,
    /// `tman_cache_pins_total`.
    pub pins: u64,
    /// `tman_cache_evictions_total`.
    pub evictions: u64,
}

/// Storage metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageMetrics {
    /// `tman_pool_hits_total`.
    pub pool_hits: u64,
    /// `tman_pool_misses_total`.
    pub pool_misses: u64,
    /// `tman_page_reads_total`.
    pub page_reads: u64,
    /// `tman_wal_bytes_total`.
    pub wal_bytes: u64,
    /// `tman_wal_fsyncs_total`.
    pub wal_fsyncs: u64,
    /// `tman_wal_group_commits_total`.
    pub wal_group_commits: u64,
    /// `tman_wal_group_commit_ns`.
    pub wal_group_commit_ns: HistogramSummary,
    /// `tman_wal_checkpoints_total`.
    pub wal_checkpoints: u64,
}

/// Rule-action metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActionMetrics {
    /// `tman_notifications_dropped_total`.
    pub dropped: u64,
    /// `tman_action_ns`.
    pub latency_ns: HistogramSummary,
}

/// TCP wire-tier metrics.
#[derive(Debug, Clone, Default)]
pub struct WireMetrics {
    /// `tman_wire_batches_total`.
    pub batches: u64,
    /// `tman_wire_tokens_total`.
    pub tokens: u64,
    /// `tman_wire_backpressure_total`.
    pub backpressure: u64,
    /// `tman_wire_delivery_appends_total`.
    pub delivery_appends: u64,
    /// `tman_wire_redelivery_suppressed_total`.
    pub redelivery_suppressed: u64,
    /// `tman_wire_ingest_to_fire_ns`.
    pub ingest_to_fire_ns: HistogramSummary,
    /// `tman_wire_fire_to_ack_ns`.
    pub fire_to_ack_ns: HistogramSummary,
}

impl MetricsSnapshot {
    pub(crate) fn collect(tman: &TriggerMan) -> MetricsSnapshot {
        let r = &tman.telemetry.registry;
        let c = |name: &str| r.find_counter(name, &[]);
        let level = |name: &str| r.find_gauge(name, &[]) as usize;
        let h = |name: &str| r.find_histogram(name, &[]);
        let slot = |i: usize| ShardMetrics {
            tokens: r.find_counter("tman_driver_tokens_total", &[("driver", &i.to_string())]),
        };
        MetricsSnapshot {
            engine: EngineMetrics {
                tokens: c("tman_tokens_processed_total"),
                actions: c("tman_actions_run_total"),
            },
            queue: QueueMetrics {
                dequeued: c("tman_queue_dequeued_total"),
                wait_ns: h("tman_queue_wait_ns"),
            },
            driver: DriverMetrics {
                tman_test_calls: c("tman_test_calls_total"),
                shards: (0..tman.num_shards()).map(slot).collect(),
            },
            index: IndexMetrics {
                matches: c("tman_index_matches_all_total"),
                residual_tests: c("tman_index_residual_tests_total"),
                tag_dedup_hits: c("tman_tag_dedup_hits_total"),
                memory_bytes: level("tman_index_memory_bytes"),
                entries: level("tman_index_entries"),
            },
            cache: CacheMetrics {
                hits: c("tman_cache_hits_total"),
                pins: c("tman_cache_pins_total"),
                evictions: c("tman_cache_evictions_total"),
            },
            storage: StorageMetrics {
                pool_hits: c("tman_pool_hits_total"),
                pool_misses: c("tman_pool_misses_total"),
                page_reads: c("tman_page_reads_total"),
                wal_bytes: c("tman_wal_bytes_total"),
                wal_fsyncs: c("tman_wal_fsyncs_total"),
                wal_group_commits: c("tman_wal_group_commits_total"),
                wal_group_commit_ns: h("tman_wal_group_commit_ns"),
                wal_checkpoints: c("tman_wal_checkpoints_total"),
            },
            actions: ActionMetrics {
                dropped: c("tman_notifications_dropped_total"),
                latency_ns: h("tman_action_ns"),
            },
            wire: WireMetrics {
                batches: c("tman_wire_batches_total"),
                tokens: c("tman_wire_tokens_total"),
                backpressure: c("tman_wire_backpressure_total"),
                delivery_appends: c("tman_wire_delivery_appends_total"),
                redelivery_suppressed: c("tman_wire_redelivery_suppressed_total"),
                ingest_to_fire_ns: h("tman_wire_ingest_to_fire_ns"),
                fire_to_ack_ns: h("tman_wire_fire_to_ack_ns"),
            },
        }
    }
}
