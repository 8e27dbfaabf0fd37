//! Engine-wide observability: instrument wiring (`EngineTelemetry`), the
//! typed read surface ([`MetricsSnapshot`]), and the families each
//! `show stats` subsystem prints.
//!
//! Every series is registered once, by the subsystem that owns it, into
//! one [`tman_telemetry::Registry`] — shared `Arc`s or computed reads, so
//! exposition reads live values at no hot-path cost. `/metrics`,
//! `/metrics.json` and `show stats` all render that registry; the engine's
//! own latency histograms and labeled counters are pre-resolved here into
//! handles the hot paths bump directly.

use crate::TriggerMan;
use std::sync::Arc;
use tman_common::{Result, TmanError};
use tman_telemetry::{CounterHandle, HistogramHandle, HistogramSummary, Registry};

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

/// Pre-resolved engine instruments (everything the hot paths bump that is
/// not already a shared subsystem counter).
pub(crate) struct EngineTelemetry {
    /// The registry all instruments live in.
    pub registry: Arc<Registry>,
    /// `tman_test_ns`: duration of each `tman_test` invocation.
    pub tman_test_ns: HistogramHandle,
    /// `tman_test_calls_total`.
    pub tman_test_calls: CounterHandle,
    /// `tman_test_threshold_expirations_total`: invocations that returned
    /// `TasksRemaining` because THRESHOLD expired.
    pub threshold_expirations: CounterHandle,
    /// `tman_action_ns`: time spent on rule actions, one sample per action
    /// run. An `execSQL` action's sample is its own substitution and
    /// statement, under its own clock pair. A `raise event` or `notify`
    /// action's sample is its share of the delivery of the run it left
    /// with — sinks, routing, sends, timed once for the run and divided
    /// evenly (`record_n`) — so `count` is actions run and `sum` the time
    /// spent on them, while the quantiles over those samples are
    /// quantiles of per-run means, not of single deliveries. Building the
    /// notification (evaluating its arguments) is not in it.
    pub action_ns: HistogramHandle,
    /// `tman_actions_total{kind=...}`.
    pub actions_by_kind: [CounterHandle; 3],
    /// `tman_task_errors_total{kind=...}`, indexed by
    /// [`TmanError::kind_index`]. Bumped beside the unlabelled total, and
    /// only on the failure path.
    pub errors_by_kind: [CounterHandle; 10],
}

impl EngineTelemetry {
    pub(crate) fn new(registry: Arc<Registry>) -> EngineTelemetry {
        EngineTelemetry {
            tman_test_ns: registry.histogram("tman_test_ns", &[]),
            tman_test_calls: registry.counter("tman_test_calls_total", &[]),
            threshold_expirations: registry.counter("tman_test_threshold_expirations_total", &[]),
            action_ns: registry.histogram("tman_action_ns", &[]),
            actions_by_kind: std::array::from_fn(|i| {
                registry.counter("tman_actions_total", &[("kind", ACTION_LABELS[i])])
            }),
            errors_by_kind: std::array::from_fn(|i| {
                registry.counter("tman_task_errors_total", &[("kind", TmanError::KINDS[i])])
            }),
            registry,
        }
    }
}

/// Typed point-in-time snapshot of every engine metric
/// ([`TriggerMan::metrics_snapshot`]).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Token / firing / action / error totals.
    pub engine: EngineMetrics,
    /// Update-descriptor queue.
    pub queue: QueueMetrics,
    /// `tman_test` / task execution.
    pub driver: DriverMetrics,
    /// Predicate index.
    pub index: IndexMetrics,
    /// Trigger cache.
    pub cache: CacheMetrics,
    /// Storage buffer pool and physical I/O.
    pub storage: StorageMetrics,
    /// Rule actions and notifications.
    pub actions: ActionMetrics,
    /// Per-token tracing (flight recorder).
    pub trace: TraceMetrics,
    /// TCP wire tier (ingestion + subscriber delivery). All zero until a
    /// `WireServer` is started on this engine.
    pub wire: WireMetrics,
    /// Per-signature detail (id, description, organization, class size).
    pub signatures: Vec<SignatureMetrics>,
}

/// Engine-level totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineMetrics {
    /// Tokens fully processed.
    pub tokens: u64,
    /// Condition matches that reached a P-node.
    pub firings: u64,
    /// Rule actions executed.
    pub actions: u64,
    /// Task failures.
    pub errors: u64,
    /// Task failures by [`TmanError::kind`], indexed like
    /// [`TmanError::KINDS`]; they sum to `errors`.
    pub errors_by_kind: [u64; 10],
    /// Windowed-trigger firings admitted (`count >= K within W` met).
    pub window_fires: u64,
}

/// Queue metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueMetrics {
    /// Current depth (gauge).
    pub depth: i64,
    /// Descriptors enqueued.
    pub enqueued: u64,
    /// Descriptors dequeued.
    pub dequeued: u64,
    /// Enqueue→dequeue wait (volatile mode).
    pub wait_ns: HistogramSummary,
    /// Persistent records that failed validation (skipped, watermarked).
    pub corrupt_rows: u64,
    /// Durable delivery watermark (`None` in volatile mode).
    pub watermark: Option<i64>,
}

/// Driver / `tman_test` metrics.
#[derive(Debug, Clone, Default)]
pub struct DriverMetrics {
    /// `tman_test` invocations.
    pub tman_test_calls: u64,
    /// Invocations that hit THRESHOLD with work remaining.
    pub threshold_expirations: u64,
    /// Invocation duration.
    pub tman_test_ns: HistogramSummary,
    /// Type-1 tasks (token) executed: the sum of the slots' `tokens`.
    pub tasks_token: u64,
    /// Type-3 tasks (signature partition) executed: the sum of the slots'
    /// `tasks`.
    pub tasks_sig_partition: u64,
    /// Per-driver activity, one entry per driver slot. Named `shards`
    /// only for the benchmark harness, which reads it by that name.
    pub shards: Vec<ShardMetrics>,
    /// `tman_driver_parked`: drivers asleep in
    /// [`idle_wait`](TriggerMan::idle_wait) now.
    pub parked: i64,
    /// `tman_driver_parks_total`: idle waits that went to sleep.
    pub parks: u64,
    /// `tman_driver_wakeups_total`: wake-ups sent to parked drivers (by a
    /// push, a fan-out, or a busy driver handing one on).
    pub wakeups: u64,
}

/// One driver slot's activity (`tman_driver_{tasks,tokens}_total`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardMetrics {
    /// Driver slot (`shard` only for the benchmark harness).
    pub shard: usize,
    /// Figure-5 partitions this slot's driver ran.
    pub tasks: u64,
    /// Update-queue tokens this slot's driver drained.
    pub tokens: u64,
}

/// Predicate-index metrics.
#[derive(Debug, Clone, Default)]
pub struct IndexMetrics {
    /// Tokens submitted to the index root.
    pub tokens: u64,
    /// Signature entries visited.
    pub signatures_probed: u64,
    /// Constant-set probes.
    pub probes: u64,
    /// Rest-of-predicate re-tests.
    pub residual_tests: u64,
    /// Full matches produced.
    pub matches: u64,
    /// `residual_tests / probes` (0 before any probe).
    pub retest_rate: f64,
    /// Unique signatures.
    pub signatures: usize,
    /// Predicate entries across all constant sets.
    pub entries: usize,
    /// Approximate constant-set memory.
    pub memory_bytes: usize,
    /// Live tagged (disjunct) entries registered for OR-triggers.
    pub tagged_entries: u64,
    /// Matches suppressed because another disjunct already claimed the
    /// token's tag.
    pub tag_dedup_hits: u64,
    /// Probe/match totals per constant-set organization.
    pub per_org: Vec<OrgMetrics>,
}

/// Per-organization probe/match totals.
#[derive(Debug, Clone, Copy)]
pub struct OrgMetrics {
    /// Organization label (`mem_list`, `mem_index`, ...).
    pub org: &'static str,
    /// Probes against sets in this organization.
    pub probes: u64,
    /// Matches produced by sets in this organization.
    pub matches: u64,
}

/// Trigger-cache metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheMetrics {
    /// Pins satisfied from memory.
    pub hits: u64,
    /// Pins that recompiled from the catalog.
    pub misses: u64,
    /// Descriptions evicted.
    pub evictions: u64,
    /// Total pin calls (== hits + misses).
    pub pins: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Descriptions currently resident.
    pub resident: usize,
}

/// Storage metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageMetrics {
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Pages evicted from the pool.
    pub pool_evictions: u64,
    /// `pool_hits / (pool_hits + pool_misses)`.
    pub pool_hit_rate: f64,
    /// Physical page reads.
    pub page_reads: u64,
    /// Physical page writes.
    pub page_writes: u64,
    /// Explicit durability syncs (group-commit barriers).
    pub syncs: u64,
    /// Transient write errors retried by the buffer pool.
    pub io_retries: u64,
    /// Page-slot reads that failed checksum/version validation.
    pub checksum_failures: u64,
    /// Pages zeroed and quarantined by the open-time recovery pass.
    pub quarantined_pages: u64,
    /// Faults injected by an attached fault plan (test builds only).
    pub faults_injected: u64,
    /// The store has a write-ahead log (file-backed databases).
    pub wal_attached: bool,
    /// WAL redo records (page images/deltas) appended.
    pub wal_appends: u64,
    /// WAL bytes appended (commit frames included).
    pub wal_bytes: u64,
    /// Log fsyncs actually issued.
    pub wal_fsyncs: u64,
    /// Commits made durable by piggybacking on another writer's fsync.
    pub wal_group_commits: u64,
    /// Committed records replayed into the page file at open.
    pub wal_replayed_records: u64,
    /// Checkpoints (write-back + log reset in place).
    pub wal_checkpoints: u64,
    /// Time for one commit to become durable (the group-commit wait).
    pub wal_group_commit_ns: HistogramSummary,
}

/// Rule-action metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActionMetrics {
    /// `execSQL` actions run.
    pub exec_sql: u64,
    /// `raise event` actions run.
    pub raise_event: u64,
    /// `notify` actions run.
    pub notify: u64,
    /// `tman_action_ns`: one sample per action run — an `execSQL`
    /// statement's own time, a notification's even share of its run's
    /// delivery.
    pub latency_ns: HistogramSummary,
    /// `tman_notify_fanout`: subscribers reached per notification.
    pub notify_fanout: HistogramSummary,
    /// Notifications delivered to subscribers.
    pub delivered: u64,
    /// Notifications dropped (dead subscribers).
    pub dropped: u64,
}

/// Per-token tracing counters (zeroed with `enabled == false` when
/// `Config::tracing` is `Off`).
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceMetrics {
    /// Is a tracer attached?
    pub enabled: bool,
    /// Tokens that got a live trace handle.
    pub started: u64,
    /// Tokens whose spans were flushed to the ring.
    pub retained: u64,
    /// Tokens discarded by tail sampling.
    pub discarded: u64,
    /// Tokens retained only because they crossed the slow-token threshold.
    pub slow_retained: u64,
    /// Events ever flushed to the ring.
    pub events_logged: u64,
    /// Events lost to ring overwrite.
    pub events_dropped: u64,
}

/// TCP wire-tier metrics (`crates/wire`): group-commit batching, durable
/// delivery, and the end-to-end latency SLIs. Read by name from the series
/// the wire tier registers when a `WireServer` starts (the engine crate
/// does not depend on the wire crate); all zero before then. `show stats
/// wire` prints every `tman_wire_*` series.
#[derive(Debug, Clone, Default)]
pub struct WireMetrics {
    /// Group-commit batches enqueued.
    pub batches: u64,
    /// Update descriptors ingested over the wire.
    pub tokens: u64,
    /// Credit grants withheld under queue backpressure.
    pub backpressure: u64,
    /// Notifications appended to the durable delivery log.
    pub delivery_appends: u64,
    /// Redeliveries suppressed by the per-subscriber dedup.
    pub redelivery_suppressed: u64,
    /// Ingest stamp → trigger fire (delivery-log append), wall clock.
    pub ingest_to_fire_ns: HistogramSummary,
    /// Trigger fire → subscriber ack, monotonic server clock.
    pub fire_to_ack_ns: HistogramSummary,
}

/// One signature's catalog-style row.
#[derive(Debug, Clone)]
pub struct SignatureMetrics {
    /// Signature id.
    pub id: u32,
    /// Source name the signature is registered on.
    pub source: String,
    /// Signature description (generalized expression text).
    pub desc: String,
    /// Current constant-set organization.
    pub org: &'static str,
    /// Equivalence-class size.
    pub entries: usize,
    /// Approximate constant-set memory.
    pub memory_bytes: usize,
}

impl MetricsSnapshot {
    pub(crate) fn collect(tman: &TriggerMan) -> MetricsSnapshot {
        let t = &tman.telemetry;
        let q = tman.queue.telemetry();
        let es = tman.stats();
        let is = tman.predicate_index().stats();
        let cs = tman.trigger_cache().stats();
        let pool = tman.database().storage().pool();
        let ps = pool.stats();
        let ds = pool.disk().stats();
        let mut signatures = Vec::new();
        for src in tman.published().sources.values() {
            if let Some(ix) = tman.predicate_index().source(src.id) {
                for sig in ix.signatures() {
                    signatures.push(SignatureMetrics {
                        id: sig.id.raw(),
                        source: src.name.clone(),
                        desc: sig.sig.key.desc.clone(),
                        org: sig.org_kind().as_str(),
                        entries: sig.len(),
                        memory_bytes: sig.memory_bytes(),
                    });
                }
            }
        }
        signatures.sort_by_key(|s| s.id);
        let shards: Vec<ShardMetrics> = tman
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| ShardMetrics {
                shard: i,
                tasks: s.tasks.get(),
                tokens: s.tokens.get(),
            })
            .collect();
        let per_org = tman_predindex::ORG_LABELS
            .iter()
            .map(|&org| OrgMetrics {
                org,
                probes: t
                    .registry
                    .find_counter("tman_index_probes_total", &[("org", org)])
                    .get(),
                matches: t
                    .registry
                    .find_counter("tman_index_matches_total", &[("org", org)])
                    .get(),
            })
            .filter(|o| o.probes > 0 || o.matches > 0)
            .collect();
        MetricsSnapshot {
            engine: EngineMetrics {
                tokens: es.tokens.get(),
                firings: es.firings.get(),
                actions: es.actions.get(),
                errors: es.errors.get(),
                errors_by_kind: std::array::from_fn(|i| t.errors_by_kind[i].get()),
                window_fires: tman.window_fires(),
            },
            queue: QueueMetrics {
                depth: q.depth.get(),
                enqueued: q.enqueued.get(),
                dequeued: q.dequeued.get(),
                wait_ns: q.wait_ns.summary(),
                corrupt_rows: tman.queue.corrupt_rows().get(),
                watermark: tman.queue.watermark(),
            },
            driver: DriverMetrics {
                tman_test_calls: t.tman_test_calls.get(),
                threshold_expirations: t.threshold_expirations.get(),
                tman_test_ns: t.tman_test_ns.summary(),
                tasks_token: shards.iter().map(|s| s.tokens).sum(),
                tasks_sig_partition: shards.iter().map(|s| s.tasks).sum(),
                shards,
                parked: tman.idle.asleep.get(),
                parks: tman.idle.parks.get(),
                wakeups: tman.idle.wakeups.get(),
            },
            index: IndexMetrics {
                tokens: is.tokens.get(),
                signatures_probed: is.signatures_probed.get(),
                probes: is.probes.get(),
                residual_tests: is.residual_tests.get(),
                matches: is.matches.get(),
                retest_rate: is.retest_rate(),
                signatures: tman.predicate_index().num_signatures(),
                entries: tman.predicate_index().num_entries(),
                memory_bytes: tman.predicate_index().memory_bytes(),
                tagged_entries: tman.tagged_entries(),
                tag_dedup_hits: tman.tag_dedup_hits(),
                per_org,
            },
            cache: CacheMetrics {
                hits: cs.hits.get(),
                misses: cs.misses.get(),
                evictions: cs.evictions.get(),
                pins: cs.pins.get(),
                hit_rate: cs.hit_rate(),
                resident: tman.trigger_cache().len(),
            },
            storage: {
                let mut sm = StorageMetrics {
                    pool_hits: ps.pool_hits.get(),
                    pool_misses: ps.pool_misses.get(),
                    pool_evictions: ps.evictions.get(),
                    pool_hit_rate: ps.pool_hit_rate(),
                    page_reads: ds.page_reads.get(),
                    page_writes: ds.page_writes.get(),
                    syncs: ds.syncs.get(),
                    io_retries: ps.io_retries.get(),
                    checksum_failures: ds.checksum_failures.get(),
                    quarantined_pages: ds.quarantined_pages.get(),
                    faults_injected: ds.faults_injected.get(),
                    ..StorageMetrics::default()
                };
                if let Some(wal) = pool.wal() {
                    let ws = wal.stats();
                    sm.wal_attached = true;
                    sm.wal_appends = ws.appends.get();
                    sm.wal_bytes = ws.bytes.get();
                    sm.wal_fsyncs = ws.fsyncs.get();
                    sm.wal_group_commits = ws.group_commits.get();
                    sm.wal_replayed_records = ws.replayed_records.get();
                    sm.wal_checkpoints = ws.checkpoints.get();
                    sm.wal_group_commit_ns = ws.group_commit_ns.summary();
                }
                sm
            },
            actions: ActionMetrics {
                exec_sql: t.actions_by_kind[ACTION_EXEC_SQL].get(),
                raise_event: t.actions_by_kind[ACTION_RAISE_EVENT].get(),
                notify: t.actions_by_kind[ACTION_NOTIFY].get(),
                latency_ns: t.action_ns.summary(),
                notify_fanout: tman.events().fanout(),
                delivered: tman.events().delivered(),
                dropped: tman.events().dropped(),
            },
            trace: match tman.tracer() {
                None => TraceMetrics::default(),
                Some(tracer) => {
                    let ts = tracer.stats();
                    TraceMetrics {
                        enabled: true,
                        started: ts.started,
                        retained: ts.retained,
                        discarded: ts.discarded,
                        slow_retained: ts.slow_retained,
                        events_logged: ts.events_logged,
                        events_dropped: ts.events_dropped,
                    }
                }
            },
            wire: {
                let c = |name: &str| t.registry.find_counter(name, &[]).get();
                let h = |name: &str| t.registry.find_histogram(name, &[]).summary();
                WireMetrics {
                    batches: c("tman_wire_batches_total"),
                    tokens: c("tman_wire_tokens_total"),
                    backpressure: c("tman_wire_backpressure_total"),
                    delivery_appends: c("tman_wire_delivery_appends_total"),
                    redelivery_suppressed: c("tman_wire_redelivery_suppressed_total"),
                    ingest_to_fire_ns: h("tman_wire_ingest_to_fire_ns"),
                    fire_to_ack_ns: h("tman_wire_fire_to_ack_ns"),
                }
            },
            signatures,
        }
    }
}
