//! Engine-wide observability: instrument wiring (`EngineTelemetry`) and
//! the typed read surface ([`MetricsSnapshot`], `show stats`).
//!
//! Every subsystem's counters are registered into one
//! [`tman_telemetry::Registry`] at engine construction — shared `Arc`s, so
//! exposition reads live values with zero extra hot-path cost — and the
//! latency/fanout histograms plus labeled task/organization counters are
//! pre-resolved here into handles the hot paths bump directly.

use crate::queue::QueueTelemetry;
use crate::TriggerMan;
use std::sync::Arc;
use tman_common::{Result, TmanError};
use tman_telemetry::{CounterHandle, HistogramHandle, HistogramSummary, Registry};

/// Task-type slots for `tman_tasks_executed_total{type=...}`: whole
/// tokens drained from the update queue, and [`crate::driver::Task`]s.
pub(crate) const TASK_TOKEN: usize = 0;
pub(crate) const TASK_SIG_PARTITION: usize = 1;
const TASK_LABELS: [&str; 2] = ["token", "sig_partition"];

/// Action-kind slots for `tman_actions_total{kind=...}`.
pub(crate) const ACTION_EXEC_SQL: usize = 0;
pub(crate) const ACTION_RAISE_EVENT: usize = 1;
pub(crate) const ACTION_NOTIFY: usize = 2;
const ACTION_LABELS: [&str; 3] = ["exec_sql", "raise_event", "notify"];

/// Pre-resolved engine instruments (everything the hot paths bump that is
/// not already a shared subsystem counter).
pub(crate) struct EngineTelemetry {
    /// The registry all instruments live in.
    pub registry: Arc<Registry>,
    /// Queue instruments (same series the queue itself records through).
    pub queue: QueueTelemetry,
    /// `tman_test_ns`: duration of each `tman_test` invocation.
    pub tman_test_ns: HistogramHandle,
    /// `tman_test_calls_total`.
    pub tman_test_calls: CounterHandle,
    /// `tman_test_threshold_expirations_total`: invocations that returned
    /// `TasksRemaining` because THRESHOLD expired.
    pub threshold_expirations: CounterHandle,
    /// `tman_tasks_executed_total{type=...}`.
    pub tasks_executed: [CounterHandle; 2],
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
    /// `tman_notify_fanout`: subscribers reached, one sample per
    /// notification delivered through the event bus. Read here, recorded
    /// by the bus: a stretch of a run that every subscriber of its route
    /// took whole is one `record_n`.
    pub notify_fanout: HistogramHandle,
    /// `tman_actions_total{kind=...}`.
    pub actions_by_kind: [CounterHandle; 3],
    /// `tman_task_errors_total{kind=...}`, indexed by
    /// [`TmanError::kind_index`]. Bumped beside the unlabelled total, and
    /// only on the failure path.
    pub errors_by_kind: [CounterHandle; 10],
}

/// Wire-tier series pre-created at engine construction so the exposition
/// (and the `wire` snapshot section) shows them as zeros even before a
/// `WireServer` starts. The wire crate resolves the same identities
/// (get-or-create, or `register_counter` replace-at-identity), so both
/// sides read and write one series.
const WIRE_COUNTERS: [(&str, &[(&str, &str)]); 15] = [
    ("tman_wire_connections", &[]),
    ("tman_wire_frames_total", &[("dir", "in")]),
    ("tman_wire_frames_total", &[("dir", "out")]),
    ("tman_wire_protocol_errors_total", &[]),
    ("tman_wire_backpressure_total", &[]),
    ("tman_wire_batches_total", &[]),
    ("tman_wire_tokens_total", &[]),
    ("tman_wire_notifications_sent_total", &[]),
    ("tman_wire_acks_total", &[]),
    ("tman_wire_delivery_appends_total", &[]),
    ("tman_wire_redelivery_suppressed_total", &[]),
    ("tman_wire_delivery_acked_total", &[]),
    ("tman_wire_acks_clamped_total", &[]),
    ("tman_wire_subscriber_stalls_total", &[]),
    ("tman_wire_delivery_errors_total", &[]),
];

/// Wire-tier end-to-end latency histograms (see [`WireMetrics`]).
const WIRE_HISTOGRAMS: [&str; 3] = [
    "tman_wire_ingest_to_fire_ns",
    "tman_wire_fire_to_ack_ns",
    "tman_wire_credit_stall_ns",
];

impl EngineTelemetry {
    pub(crate) fn new(registry: Arc<Registry>) -> EngineTelemetry {
        for (name, labels) in WIRE_COUNTERS {
            registry.counter(name, labels);
        }
        for name in WIRE_HISTOGRAMS {
            registry.histogram(name, &[]);
        }
        EngineTelemetry {
            queue: QueueTelemetry::from_registry(&registry),
            tman_test_ns: registry.histogram("tman_test_ns", &[]),
            tman_test_calls: registry.counter("tman_test_calls_total", &[]),
            threshold_expirations: registry.counter("tman_test_threshold_expirations_total", &[]),
            tasks_executed: std::array::from_fn(|i| {
                registry.counter("tman_tasks_executed_total", &[("type", TASK_LABELS[i])])
            }),
            action_ns: registry.histogram("tman_action_ns", &[]),
            notify_fanout: registry.histogram("tman_notify_fanout", &[]),
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
    /// Type-1 tasks (token) executed.
    pub tasks_token: u64,
    /// Type-3 tasks (signature partition) executed.
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

/// TCP wire-tier metrics (`crates/wire`): ingestion connections, frame
/// traffic, group-commit batching, durable subscriber delivery, and the
/// end-to-end latency SLIs computed from v2 wall-clock stamps. Collected
/// by registry-name reads — the engine crate does not depend on the wire
/// crate, but both resolve the same series identities.
#[derive(Debug, Clone, Default)]
pub struct WireMetrics {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded from peers.
    pub frames_in: u64,
    /// Frames written to peers.
    pub frames_out: u64,
    /// Protocol errors (bad frames, credit overruns, validation).
    pub protocol_errors: u64,
    /// Credit grants withheld under queue backpressure.
    pub backpressure: u64,
    /// Group-commit batches enqueued.
    pub batches: u64,
    /// Update descriptors ingested over the wire.
    pub tokens: u64,
    /// Notifications written to subscriber connections.
    pub notifications: u64,
    /// Subscriber watermark acknowledgements processed.
    pub acks: u64,
    /// Notifications appended to the durable delivery log.
    pub delivery_appends: u64,
    /// Redeliveries suppressed by the per-subscriber dedup.
    pub redelivery_suppressed: u64,
    /// Delivery-log rows retired by subscriber acks.
    pub delivery_acked: u64,
    /// Subscriber acks clamped to the delivered range.
    pub acks_clamped: u64,
    /// Deliveries dropped on stalled subscriber mailboxes.
    pub subscriber_stalls: u64,
    /// Delivery-log encode, append and truncation failures.
    pub delivery_errors: u64,
    /// Ingest stamp → trigger fire (delivery-log append), wall clock.
    pub ingest_to_fire_ns: HistogramSummary,
    /// Trigger fire → subscriber ack, monotonic server clock.
    pub fire_to_ack_ns: HistogramSummary,
    /// Time source connections spent stalled on withheld credit.
    pub credit_stall_ns: HistogramSummary,
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
        let per_org = tman_predindex::ORG_LABELS
            .iter()
            .map(|&org| OrgMetrics {
                org,
                probes: t
                    .registry
                    .counter("tman_index_probes_total", &[("org", org)])
                    .get(),
                matches: t
                    .registry
                    .counter("tman_index_matches_total", &[("org", org)])
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
                depth: t.queue.depth.get(),
                enqueued: t.queue.enqueued.get(),
                dequeued: t.queue.dequeued.get(),
                wait_ns: t.queue.wait_ns.summary(),
                corrupt_rows: tman.queue.corrupt_rows().get(),
                watermark: tman.queue.watermark(),
            },
            driver: DriverMetrics {
                tman_test_calls: t.tman_test_calls.get(),
                threshold_expirations: t.threshold_expirations.get(),
                tman_test_ns: t.tman_test_ns.summary(),
                tasks_token: t.tasks_executed[TASK_TOKEN].get(),
                tasks_sig_partition: t.tasks_executed[TASK_SIG_PARTITION].get(),
                shards: tman
                    .slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| ShardMetrics {
                        shard: i,
                        tasks: s.tasks.get(),
                        tokens: s.tokens.get(),
                    })
                    .collect(),
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
                notify_fanout: t.notify_fanout.summary(),
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
                let c = |name: &str| t.registry.counter(name, &[]).get();
                WireMetrics {
                    connections: c("tman_wire_connections"),
                    frames_in: t
                        .registry
                        .counter("tman_wire_frames_total", &[("dir", "in")])
                        .get(),
                    frames_out: t
                        .registry
                        .counter("tman_wire_frames_total", &[("dir", "out")])
                        .get(),
                    protocol_errors: c("tman_wire_protocol_errors_total"),
                    backpressure: c("tman_wire_backpressure_total"),
                    batches: c("tman_wire_batches_total"),
                    tokens: c("tman_wire_tokens_total"),
                    notifications: c("tman_wire_notifications_sent_total"),
                    acks: c("tman_wire_acks_total"),
                    delivery_appends: c("tman_wire_delivery_appends_total"),
                    redelivery_suppressed: c("tman_wire_redelivery_suppressed_total"),
                    delivery_acked: c("tman_wire_delivery_acked_total"),
                    acks_clamped: c("tman_wire_acks_clamped_total"),
                    subscriber_stalls: c("tman_wire_subscriber_stalls_total"),
                    delivery_errors: c("tman_wire_delivery_errors_total"),
                    ingest_to_fire_ns: t
                        .registry
                        .histogram("tman_wire_ingest_to_fire_ns", &[])
                        .summary(),
                    fire_to_ack_ns: t
                        .registry
                        .histogram("tman_wire_fire_to_ack_ns", &[])
                        .summary(),
                    credit_stall_ns: t
                        .registry
                        .histogram("tman_wire_credit_stall_ns", &[])
                        .summary(),
                }
            },
            signatures,
        }
    }

    /// Subsystem names accepted by `show stats <subsystem>`.
    pub const SUBSYSTEMS: [&'static str; 9] = [
        "engine", "queue", "driver", "index", "cache", "storage", "actions", "trace", "wire",
    ];

    /// Human-readable rendering for the console. `None` renders every
    /// section; otherwise one of [`MetricsSnapshot::SUBSYSTEMS`] (with
    /// `predindex`, `action`, and `drivers` accepted as aliases).
    pub fn format(&self, subsystem: Option<&str>) -> Result<String> {
        let canonical = match subsystem.map(|s| s.to_lowercase()) {
            None => None,
            Some(s) => Some(match s.as_str() {
                "predindex" => "index".to_string(),
                "action" => "actions".to_string(),
                "drivers" => "driver".to_string(),
                other if Self::SUBSYSTEMS.contains(&other) => other.to_string(),
                other => {
                    return Err(TmanError::Invalid(format!(
                        "unknown stats subsystem '{other}' (expected one of: {})",
                        Self::SUBSYSTEMS.join(", ")
                    )))
                }
            }),
        };
        let want = |name: &str| canonical.as_deref().is_none_or(|c| c == name);
        let mut out = String::new();
        let hist = |h: &HistogramSummary| {
            format!(
                "count={} mean={}ns p50={}ns p95={}ns p99={}ns max={}ns",
                h.count,
                h.mean(),
                h.p50,
                h.p95,
                h.p99,
                h.max
            )
        };
        if want("engine") {
            out.push_str("engine:\n");
            out.push_str(&format!("  tokens processed   {}\n", self.engine.tokens));
            out.push_str(&format!("  firings            {}\n", self.engine.firings));
            out.push_str(&format!("  actions run        {}\n", self.engine.actions));
            out.push_str(&format!("  task errors        {}", self.engine.errors));
            let by_kind = TmanError::KINDS.iter().zip(self.engine.errors_by_kind);
            for (kind, n) in by_kind.filter(|&(_, n)| n > 0) {
                out.push_str(&format!(" {kind}={n}"));
            }
            out.push('\n');
            out.push_str(&format!(
                "  windows            fires={}\n",
                self.engine.window_fires
            ));
        }
        if want("queue") {
            out.push_str("queue:\n");
            out.push_str(&format!("  depth              {}\n", self.queue.depth));
            out.push_str(&format!("  enqueued           {}\n", self.queue.enqueued));
            out.push_str(&format!("  dequeued           {}\n", self.queue.dequeued));
            out.push_str(&format!(
                "  wait               {}\n",
                hist(&self.queue.wait_ns)
            ));
            out.push_str(&format!(
                "  corrupt rows       {}\n",
                self.queue.corrupt_rows
            ));
            if let Some(wm) = self.queue.watermark {
                out.push_str(&format!("  watermark          {wm}\n"));
            }
        }
        if want("driver") {
            out.push_str("driver:\n");
            out.push_str(&format!(
                "  tman_test calls    {}\n",
                self.driver.tman_test_calls
            ));
            out.push_str(&format!(
                "  threshold expired  {}\n",
                self.driver.threshold_expirations
            ));
            out.push_str(&format!(
                "  tman_test          {}\n",
                hist(&self.driver.tman_test_ns)
            ));
            out.push_str(&format!(
                "  tasks              token={} sig_partition={}\n",
                self.driver.tasks_token, self.driver.tasks_sig_partition
            ));
            for s in &self.driver.shards {
                out.push_str(&format!(
                    "  driver {:<11} tasks={} tokens={}\n",
                    s.shard, s.tasks, s.tokens
                ));
            }
            out.push_str(&format!(
                "  idle               parked={} parks={} wakeups={}\n",
                self.driver.parked, self.driver.parks, self.driver.wakeups
            ));
        }
        if want("index") {
            out.push_str("index:\n");
            out.push_str(&format!(
                "  signatures         {} ({} entries, ~{} bytes)\n",
                self.index.signatures, self.index.entries, self.index.memory_bytes
            ));
            out.push_str(&format!("  tokens             {}\n", self.index.tokens));
            out.push_str(&format!(
                "  signatures probed  {}\n",
                self.index.signatures_probed
            ));
            out.push_str(&format!("  probes             {}\n", self.index.probes));
            out.push_str(&format!(
                "  residual retests   {} (rate {:.3})\n",
                self.index.residual_tests, self.index.retest_rate
            ));
            out.push_str(&format!("  matches            {}\n", self.index.matches));
            out.push_str(&format!(
                "  tagged disjuncts   entries={} dedup_hits={}\n",
                self.index.tagged_entries, self.index.tag_dedup_hits
            ));
            for o in &self.index.per_org {
                out.push_str(&format!(
                    "  org {:<16} probes={} matches={}\n",
                    o.org, o.probes, o.matches
                ));
            }
        }
        if want("cache") {
            out.push_str("cache:\n");
            out.push_str(&format!(
                "  pins               {} (hits={} misses={} rate {:.3})\n",
                self.cache.pins, self.cache.hits, self.cache.misses, self.cache.hit_rate
            ));
            out.push_str(&format!("  evictions          {}\n", self.cache.evictions));
            out.push_str(&format!("  resident           {}\n", self.cache.resident));
        }
        if want("storage") {
            out.push_str("storage:\n");
            out.push_str(&format!(
                "  pool               hits={} misses={} rate {:.3} evictions={}\n",
                self.storage.pool_hits,
                self.storage.pool_misses,
                self.storage.pool_hit_rate,
                self.storage.pool_evictions
            ));
            out.push_str(&format!(
                "  disk               reads={} writes={} syncs={}\n",
                self.storage.page_reads, self.storage.page_writes, self.storage.syncs
            ));
            out.push_str(&format!(
                "  faults             injected={} retries={} checksum_failures={} quarantined={}\n",
                self.storage.faults_injected,
                self.storage.io_retries,
                self.storage.checksum_failures,
                self.storage.quarantined_pages
            ));
            if self.storage.wal_attached {
                out.push_str(&format!(
                    "  wal                appends={} bytes={} fsyncs={} group_commits={}\n",
                    self.storage.wal_appends,
                    self.storage.wal_bytes,
                    self.storage.wal_fsyncs,
                    self.storage.wal_group_commits
                ));
                out.push_str(&format!(
                    "  wal recovery       replayed={} checkpoints={}\n",
                    self.storage.wal_replayed_records, self.storage.wal_checkpoints
                ));
                out.push_str(&format!(
                    "  wal group commit   {}\n",
                    hist(&self.storage.wal_group_commit_ns)
                ));
            }
        }
        if want("actions") {
            out.push_str("actions:\n");
            out.push_str(&format!(
                "  by kind            exec_sql={} raise_event={} notify={}\n",
                self.actions.exec_sql, self.actions.raise_event, self.actions.notify
            ));
            out.push_str(&format!(
                "  latency            {}\n",
                hist(&self.actions.latency_ns)
            ));
            out.push_str(&format!(
                "  notify fanout      {}\n",
                hist(&self.actions.notify_fanout)
            ));
            out.push_str(&format!(
                "  notifications      delivered={} dropped={}\n",
                self.actions.delivered, self.actions.dropped
            ));
        }
        if want("trace") {
            out.push_str("trace:\n");
            if !self.trace.enabled {
                out.push_str("  tracing off\n");
            } else {
                out.push_str(&format!(
                    "  tokens             started={} retained={} discarded={} slow={}\n",
                    self.trace.started,
                    self.trace.retained,
                    self.trace.discarded,
                    self.trace.slow_retained
                ));
                out.push_str(&format!(
                    "  ring events        logged={} dropped={}\n",
                    self.trace.events_logged, self.trace.events_dropped
                ));
            }
        }
        if want("wire") {
            out.push_str("wire:\n");
            let w = &self.wire;
            out.push_str(&format!("  connections        {}\n", w.connections));
            out.push_str(&format!(
                "  frames             in={} out={}\n",
                w.frames_in, w.frames_out
            ));
            out.push_str(&format!(
                "  ingest             batches={} tokens={} backpressure={} protocol_errors={}\n",
                w.batches, w.tokens, w.backpressure, w.protocol_errors
            ));
            out.push_str(&format!(
                "  delivery           appends={} sent={} acks={} acked_rows={}\n",
                w.delivery_appends, w.notifications, w.acks, w.delivery_acked
            ));
            out.push_str(&format!(
                "  anomalies          suppressed={} clamped={} stalls={} log_errors={}\n",
                w.redelivery_suppressed, w.acks_clamped, w.subscriber_stalls, w.delivery_errors
            ));
            out.push_str(&format!(
                "  ingest->fire       {}\n",
                hist(&w.ingest_to_fire_ns)
            ));
            out.push_str(&format!(
                "  fire->ack          {}\n",
                hist(&w.fire_to_ack_ns)
            ));
            out.push_str(&format!(
                "  credit stall       {}\n",
                hist(&w.credit_stall_ns)
            ));
        }
        Ok(out)
    }
}
