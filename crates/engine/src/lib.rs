//! `triggerman` — the scalable trigger processor.
//!
//! This crate assembles the substrates into the system of the paper's
//! Figure 1:
//!
//! * a database ([`tman_sql::Database`]) hosting base tables, the trigger
//!   catalogs ([`catalog`]), per-signature constant tables, and the
//!   persistent update-descriptor queue ([`queue`]);
//! * update capture (§3): every mutation made through [`TriggerMan::run_sql`]
//!   on a captured table becomes an update descriptor, as do tokens pushed
//!   through the data-source API ([`TriggerMan::push_token`]);
//! * the scalable predicate index ([`tman_predindex`]) with expression
//!   signatures and the four constant-set organizations (§5);
//! * the trigger cache ([`cache`]) with buffer-pool pin/unpin semantics
//!   (§5.1);
//! * A-TREAT (default) / TREAT / Rete discrimination networks
//!   ([`tman_network`]) for join conditions;
//! * rule actions (`execSQL`, `raise event`, `notify`) with `:NEW`/`:OLD`
//!   macro substitution ([`action`]);
//! * drivers calling [`TriggerMan::tman_test`] on a shared task queue with
//!   token- and condition-level concurrency (§6, [`driver`]), parked in
//!   [`TriggerMan::idle_wait`] while there is nothing to do and woken by
//!   the push that ends that; a rule action runs inline on the thread that
//!   matched it.
//!
//! [`TriggerMan`] is split where the paper splits it. DDL (`ddl.rs`) is
//! one critical section over one private `Ddl` value; the drain and the
//! push path (this file) never take that lock — they read the predicate
//! index, the trigger cache, and an immutable `Published` value (sources,
//! set flags) that DDL replaces by swap.
//!
//! ## Quick start
//!
//! ```
//! use triggerman::{Config, TriggerMan};
//!
//! let tman = TriggerMan::open_memory(Config::default()).unwrap();
//! tman.run_sql("create table emp (name varchar(32), salary float)").unwrap();
//! tman.execute_command("define data source emp from table emp").unwrap();
//! let events = tman.subscribe("notify");
//! tman.execute_command(
//!     "create trigger bigpay from emp when emp.salary > 80000 \
//!      do notify 'big salary: :NEW.emp.name'",
//! ).unwrap();
//! tman.run_sql("insert into emp values ('Bob', 90000)").unwrap();
//! tman.run_until_quiescent().unwrap();
//! assert_eq!(events.try_recv().unwrap().message.unwrap(), "big salary: Bob");
//! ```

pub mod action;
pub mod cache;
pub mod catalog;
pub mod compile;
pub mod config;
mod ddl;
pub mod driver;
pub mod events;
pub mod metrics;
pub mod queue;
pub mod shard;
pub mod source;
pub mod window;

pub use cache::{PinnedTrigger, TriggerCache};
pub use compile::{CompiledAction, CompiledTrigger};
pub use config::{Config, QueueMode, TracingMode};
pub use driver::{AckState, DriverPool, Task, TmanTestResult};
pub use events::{EventBus, EventNotification, NotificationSink, Outbox};
pub use metrics::MetricsSnapshot;
pub use shard::{EngineShard, ShardSet};
pub use tman_network::NetworkKind;
pub use tman_predindex::OrgKind;
pub use tman_telemetry::{
    Registry, SpanKind, TraceEvent, TraceSnapshot, TraceTree, Tracer, TracerStats,
};
pub use window::WindowState;

use catalog::{Catalog, TriggerRow};
use compile::compile_trigger;
use crossbeam::queue::SegQueue;
use ddl::{Ddl, Published};
use driver::IdleGate;
use parking_lot::{Mutex, RwLock};
use queue::UpdateQueue;
use source::SourceInfo;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tman_common::fxhash::{FxHashMap, FxHashSet};
use tman_common::stats::Counter;
use tman_common::{
    DataSourceId, EventKind, ExprId, NodeId, Result, Schema, SignatureId, TagClaims, TmanError,
    TokenOp, TriggerId, TriggerSetId, Tuple, UpdateDescriptor,
};
use tman_lang::ast::Command;
use tman_network::Polarity;
use tman_predindex::{MatchPlan, PredicateIndex, Probe};
use tman_sql::{Database, ExecResult};
use tman_telemetry::trace::{now_ns, SpanGuard, ROOT_SPAN};
use tman_telemetry::{HttpResponse, HttpServer, TraceHandle};

/// Capacity, in events, of the bounded trace ring buffer; the oldest
/// retained events are overwritten once it fills.
const TRACE_BUFFER_EVENTS: usize = 65_536;

/// Notifications a drain pass lets wait in its outbox before it delivers
/// at the next token boundary ([`TriggerMan::replay`], invariant 6). A
/// constant, not a setting: all it does is bound what a pass holds — this
/// many notifications, of about 140 bytes and their values each, plus the
/// fires of one more token — and the common run, a batch of tokens with a
/// handful of fires each, ends before it is reached.
const OUTBOX_FLUSH: usize = 1024;

/// Update-queue depth at which `/healthz` reports `overloaded` and the
/// wire tier withholds ingestion credits (backpressure) until the drivers
/// drain the queue below it.
pub const QUEUE_HIGH_WATER: usize = 65_536;

/// Outcome of a TriggerMan command.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutput {
    /// `create trigger`.
    TriggerCreated(TriggerId),
    /// `drop trigger`.
    TriggerDropped(TriggerId),
    /// `create trigger set`.
    SetCreated(TriggerSetId),
    /// `drop trigger set`.
    SetDropped,
    /// `enable` / `disable`.
    EnabledChanged,
    /// `define data source`.
    DataSourceDefined(DataSourceId),
    /// `define connection`.
    ConnectionDefined,
    /// `show stats`: the formatted report.
    Stats(String),
    /// `trace last <n>` / `trace token <id>`: rendered span trees.
    Trace(String),
}

/// Engine-level counters. Held by `Arc` so they double as live registry
/// instruments (see [`metrics`]).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Tokens fully processed.
    pub tokens: Arc<Counter>,
    /// Condition matches that reached a P-node.
    pub firings: Arc<Counter>,
    /// Rule actions executed.
    pub actions: Arc<Counter>,
    /// Task failures (see [`TriggerMan::last_error`]).
    pub errors: Arc<Counter>,
}

/// Execution facts of one predicate-index entry ride in the top bits of
/// its [`ExprId`] — the engine allocates the ids, the id survives
/// organization switches and the DB-backed organizations' row round trip
/// unchanged, and the match itself hands it back — so an entry with
/// neither fact costs the drain one branch ([`TriggerMan::admit`]).
///
/// Tagged execution: the disjunct entries a trigger variable registered
/// share one tag ([`tag_of`]); a token's first matching entry claims it
/// and the rest are duplicates (Kim & Madden's tagged execution).
const EXPR_TAGGED: u64 = 1 << 63;
/// The entry's trigger carries a windowed threshold
/// ([`TriggerMan::windows`]): a claimed match *observes* the window and
/// fires only at or over the threshold.
const EXPR_WINDOWED: u64 = 1 << 62;

/// The tag shared by the disjunct entries of one trigger variable,
/// derived from the match so nothing is stored for it: `node` is the
/// variable's ordinal, below 16 ([`compile_trigger`]).
fn tag_of(trigger: TriggerId, node: NodeId) -> u64 {
    (trigger.raw() << 4) | u64::from(node.raw())
}

/// A flagged index entry with the source and signature it landed in.
type FlaggedEntry = (ExprId, DataSourceId, SignatureId);

/// One token of a run, with the deferred ack of its persistent-queue row.
type RunToken = (UpdateDescriptor, Option<Arc<AckState>>);

/// One deferred step of a token's replay ([`TriggerMan::replay`]).
struct Step {
    /// Index of the token in its run.
    tok: u32,
    kind: StepKind,
}

enum StepKind {
    /// An index match to admit, pin and activate.
    Match {
        expr: ExprId,
        trigger: TriggerId,
        node: NodeId,
        /// The probe's `SigProbe` span: parent of the pin and action spans.
        span: u32,
    },
    /// A Figure-5 fan-out to push: signature `sig` of the run's match
    /// plan, split `parts` ways.
    Split { sig: u32, parts: u32 },
}

impl Step {
    fn matched(tok: usize, e: &tman_predindex::Entry, span: u32) -> Step {
        Step {
            tok: tok as u32,
            kind: StepKind::Match {
                expr: e.expr_id,
                trigger: e.trigger_id,
                node: e.next_node,
                span,
            },
        }
    }
}

/// Stamp an ingest time on a token whose producer left it unset (windowed
/// thresholds read it).
fn stamp_ingest(tok: &mut UpdateDescriptor) {
    if tok.ingest_unix_ns == 0 {
        tok.ingest_unix_ns = tman_telemetry::unix_now_ns();
    }
}

/// [`TriggerMan::validate_token`] against one load of the definitions.
fn check_token(published: &Published, token: &UpdateDescriptor) -> Result<()> {
    let info = published
        .sources
        .get(&token.data_src)
        .ok_or_else(|| TmanError::NotFound(format!("data source {}", token.data_src)))?;
    for t in [&token.old, &token.new].into_iter().flatten() {
        if t.arity() != info.schema.arity() {
            return Err(TmanError::Type(format!(
                "token arity {} does not match '{}' ({} columns)",
                t.arity(),
                info.name,
                info.schema.arity()
            )));
        }
    }
    Ok(())
}

/// The TriggerMan system (Figure 1).
pub struct TriggerMan {
    config: Config,
    db: Arc<Database>,
    catalog: Catalog,
    predindex: Arc<PredicateIndex>,
    cache: Arc<TriggerCache>,
    queue: UpdateQueue,
    /// The §6 task queue, split [`Config::num_shards`] ways (see [`shard`]).
    shards: ShardSet,
    /// Where idle drivers wait ([`idle_wait`](Self::idle_wait)) and a push
    /// wakes one. The task queue holds a clone: a fan-out wakes drivers too.
    idle: Arc<IdleGate>,
    /// The last dequeue failed. What such an update queue holds is not
    /// work a driver can do, so an idle wait does not return for it: a
    /// broken queue is retried once a `driver_period`, not in a spin.
    dequeue_failed: AtomicBool,
    /// Sequence numbers whose token-level work has fully completed (every
    /// [`AckState`] clone dropped), awaiting the next batched
    /// [`UpdateQueue::ack_batch`] barrier (see [`Self::flush_acks`]).
    pending_acks: Arc<SegQueue<i64>>,
    events: EventBus,
    /// Everything only DDL reads, and the lock that makes each DDL command
    /// one critical section (see [`ddl`]). The drain never takes it.
    ddl: Mutex<Ddl>,
    /// What the drain and the push path read of the definitions, replaced
    /// by swap from inside the DDL critical section
    /// ([`published`](Self::published)).
    published: RwLock<Arc<Published>>,
    /// Windowed-threshold state per windowed trigger. It outlives the
    /// trigger's cache residency, so it hangs here rather than on the
    /// compiled description; DDL is the only writer, and the drain reads
    /// it only for a match whose entry is flagged [`EXPR_WINDOWED`].
    windows: RwLock<FxHashMap<TriggerId, Arc<WindowState>>>,
    /// Live tagged entries across the index (`Arc` so the registry can
    /// read it as the `tman_tagged_entries` instrument): a token split
    /// across tasks is given a shared claim set only while this is nonzero.
    tagged_count: Arc<AtomicU64>,
    /// Matches suppressed because another entry already claimed the tag.
    tag_dedup_hits: Arc<Counter>,
    /// Windowed-trigger firings admitted (threshold met).
    window_fires: Arc<Counter>,
    /// Timestamps aged out by the maintenance-path expiry.
    window_evictions: Arc<Counter>,
    stats: EngineStats,
    pub(crate) telemetry: metrics::EngineTelemetry,
    tracer: Option<Arc<Tracer>>,
    last_error: Mutex<Option<String>>,
    /// The HTTP exposition endpoint ([`Config::http_addr`] or
    /// [`serve_http`](Self::serve_http)); stopped at shutdown.
    http: Mutex<Option<HttpServer>>,
    shutdown: AtomicBool,
}

impl TriggerMan {
    /// Open a volatile in-memory instance.
    pub fn open_memory(config: Config) -> Result<Arc<TriggerMan>> {
        let db = Arc::new(Database::open_memory(config.pool_pages));
        Self::with_database(db, config)
    }

    /// Open (or recover) a file-backed instance. When
    /// [`Config::faults`] carries a fault-injection plan it is attached to
    /// the disk manager, and any crash damage found by the open-time
    /// scavenge pass is absorbed before the engine state is rebuilt.
    pub fn open_file(path: &Path, config: Config) -> Result<Arc<TriggerMan>> {
        let db = Arc::new(Database::open_file_opts(
            path,
            config.pool_pages,
            config.faults.clone(),
            tman_storage::WalConfig {
                checkpoint_bytes: config.wal_checkpoint_bytes,
            },
        )?);
        Self::with_database(db, config)
    }

    fn with_database(db: Arc<Database>, config: Config) -> Result<Arc<TriggerMan>> {
        let telemetry = metrics::EngineTelemetry::new(Arc::new(Registry::new()));
        let catalog = Catalog::open(&db)?;
        let mut queue = match config.queue_mode {
            QueueMode::Volatile => UpdateQueue::volatile(),
            QueueMode::Persistent => UpdateQueue::persistent(&db)?,
        };
        queue.attach_telemetry(telemetry.queue.clone());
        let mut events = EventBus::new();
        events.attach_telemetry(&telemetry.registry);
        let mut predindex = PredicateIndex::with_database(config.index.clone(), db.clone());
        predindex.attach_telemetry(&telemetry.registry);
        let predindex = Arc::new(predindex);
        let cache = Arc::new(TriggerCache::new(config.trigger_cache_capacity));
        // One branch per token on the off path: `tracer` stays `None`.
        let tracer = match config.tracing {
            TracingMode::Off => None,
            TracingMode::Sampled(n) => Some(Arc::new(Tracer::new(
                TRACE_BUFFER_EVENTS,
                n,
                config.slow_token_threshold,
            ))),
            TracingMode::Full => Some(Arc::new(Tracer::new(
                TRACE_BUFFER_EVENTS,
                1,
                config.slow_token_threshold,
            ))),
        };
        let idle = Arc::new(IdleGate::default());
        let system = Arc::new(TriggerMan {
            cache,
            predindex,
            queue,
            telemetry,
            tracer,
            shards: ShardSet::new(config.num_shards(), idle.clone()),
            idle,
            dequeue_failed: AtomicBool::new(false),
            pending_acks: Arc::new(SegQueue::new()),
            events,
            ddl: Mutex::default(),
            published: RwLock::default(),
            windows: RwLock::new(FxHashMap::default()),
            tagged_count: Arc::new(AtomicU64::new(0)),
            tag_dedup_hits: Arc::new(Counter::default()),
            window_fires: Arc::new(Counter::default()),
            window_evictions: Arc::new(Counter::default()),
            stats: EngineStats::default(),
            last_error: Mutex::new(None),
            http: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            catalog,
            db,
            config,
        });
        system.register_shared_instruments();
        system.recover()?;
        if let Some(addr) = system.config.http_addr.clone() {
            system.serve_http(&addr)?;
        }
        Ok(system)
    }

    /// Register the per-subsystem counters (engine, cache, buffer pool,
    /// disk, event bus) into the metrics registry as shared instruments:
    /// exposition reads the same `Arc<Counter>`s the hot paths bump, so
    /// these rows cost nothing extra at runtime.
    fn register_shared_instruments(&self) {
        let r = &self.telemetry.registry;
        r.register_counter(
            "tman_tokens_processed_total",
            &[],
            self.stats.tokens.clone(),
        );
        r.register_counter("tman_firings_total", &[], self.stats.firings.clone());
        r.register_counter("tman_actions_run_total", &[], self.stats.actions.clone());
        r.register_counter("tman_task_errors_total", &[], self.stats.errors.clone());
        r.register_counter(
            "tman_tag_dedup_hits_total",
            &[],
            self.tag_dedup_hits.clone(),
        );
        r.register_counter("tman_window_fires_total", &[], self.window_fires.clone());
        r.register_counter(
            "tman_window_evictions_total",
            &[],
            self.window_evictions.clone(),
        );
        // Live tagged-entry population (a level, so a computed read of the
        // shared atomic rather than a monotone counter).
        let tagged = self.tagged_count.clone();
        r.register_counter_fn("tman_tagged_entries", &[], move || {
            tagged.load(Ordering::Relaxed)
        });
        r.register_counter(
            "tman_queue_wm_flushes_total",
            &[],
            self.queue.wm_flushes().clone(),
        );
        self.shards.register_instruments(r);
        r.register_gauge("tman_driver_parked", &[], self.idle.asleep.clone());
        r.register_counter("tman_driver_parks_total", &[], self.idle.parks.clone());
        r.register_counter("tman_driver_wakeups_total", &[], self.idle.wakeups.clone());
        let cs = self.cache.stats();
        r.register_counter("tman_cache_hits_total", &[], cs.hits.clone());
        r.register_counter("tman_cache_misses_total", &[], cs.misses.clone());
        r.register_counter("tman_cache_evictions_total", &[], cs.evictions.clone());
        r.register_counter("tman_cache_pins_total", &[], cs.pins.clone());
        let pool = self.db.storage().pool();
        let ps = pool.stats();
        r.register_counter("tman_pool_hits_total", &[], ps.pool_hits.clone());
        r.register_counter("tman_pool_misses_total", &[], ps.pool_misses.clone());
        r.register_counter("tman_pool_evictions_total", &[], ps.evictions.clone());
        r.register_counter("tman_io_retries_total", &[], ps.io_retries.clone());
        let ds = pool.disk().stats();
        r.register_counter("tman_page_reads_total", &[], ds.page_reads.clone());
        r.register_counter("tman_page_writes_total", &[], ds.page_writes.clone());
        r.register_counter("tman_disk_syncs_total", &[], ds.syncs.clone());
        r.register_counter(
            "tman_checksum_failures_total",
            &[],
            ds.checksum_failures.clone(),
        );
        r.register_counter(
            "tman_quarantined_pages_total",
            &[],
            ds.quarantined_pages.clone(),
        );
        r.register_counter(
            "tman_faults_injected_total",
            &[],
            ds.faults_injected.clone(),
        );
        if let Some(wal) = pool.wal() {
            let ws = wal.stats();
            r.register_counter("tman_wal_appends_total", &[], ws.appends.clone());
            r.register_counter("tman_wal_bytes_total", &[], ws.bytes.clone());
            r.register_counter("tman_wal_fsyncs_total", &[], ws.fsyncs.clone());
            r.register_counter(
                "tman_wal_group_commits_total",
                &[],
                ws.group_commits.clone(),
            );
            r.register_counter(
                "tman_wal_replayed_records_total",
                &[],
                ws.replayed_records.clone(),
            );
            r.register_counter("tman_wal_checkpoints_total", &[], ws.checkpoints.clone());
            r.register_histogram("tman_wal_group_commit_ns", &[], ws.group_commit_ns.clone());
        }
        r.register_counter(
            "tman_queue_corrupt_rows_total",
            &[],
            self.queue.corrupt_rows().clone(),
        );
        // Event-bus delivery counters are registry CounterHandles resolved
        // in `EventBus::attach_telemetry` — nothing to register here.
        //
        // Trace-sampling health: the tracer counts starts/retention/ring
        // overwrites exactly, but those live in its own atomics. Computed
        // counters read them live at exposition time, so silent trace loss
        // (`tman_trace_events_dropped_total` climbing) is scrapeable.
        // Reads of these identities through `Registry::counter` handles
        // see a no-op (type mismatch by design); typed access goes through
        // `Tracer::stats` as before.
        if let Some(tracer) = &self.tracer {
            type Read = fn(&TracerStats) -> u64;
            let series: [(&str, Read); 6] = [
                ("tman_trace_tokens_started_total", |s| s.started),
                ("tman_trace_tokens_retained_total", |s| s.retained),
                ("tman_trace_tokens_discarded_total", |s| s.discarded),
                ("tman_trace_slow_retained_total", |s| s.slow_retained),
                ("tman_trace_events_logged_total", |s| s.events_logged),
                ("tman_trace_events_dropped_total", |s| s.events_dropped),
            ];
            for (name, read) in series {
                let t = tracer.clone();
                r.register_counter_fn(name, &[], move || read(&t.stats()));
            }
        }
    }

    // ----- accessors ---------------------------------------------------------

    /// The backing database (catalog inspection, experiments).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The predicate index.
    pub fn predicate_index(&self) -> &Arc<PredicateIndex> {
        &self.predindex
    }

    /// Durable delivery watermark of the persistent update queue (`None`
    /// in volatile mode): every descriptor at or below it was fully
    /// processed, and a crash can never make one fire again. Crash
    /// harnesses read this after a restart to bound redelivery.
    pub fn queue_watermark(&self) -> Option<i64> {
        self.queue.watermark()
    }

    /// Number of ack/watermark durability barriers the persistent queue
    /// has paid (one per batched group-commit ack). Benchmarks compare
    /// this against tokens processed to show the batch-drain amortization.
    pub fn queue_wm_flushes(&self) -> u64 {
        self.queue.wm_flushes().get()
    }

    /// Did the storage layer's open-time scavenge pass find and absorb
    /// crash damage when this instance was opened?
    pub fn was_recovered(&self) -> bool {
        self.db.storage().was_recovered()
    }

    /// The trigger cache.
    pub fn trigger_cache(&self) -> &Arc<TriggerCache> {
        &self.cache
    }

    /// The event bus.
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The metrics registry.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.telemetry.registry
    }

    /// Typed snapshot of every engine metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::collect(self)
    }

    /// Prometheus-style text exposition of every registered instrument.
    pub fn render_text(&self) -> String {
        self.telemetry.registry.render_text()
    }

    /// JSON object of every registered instrument (bench harness dumps).
    pub fn render_metrics_json(&self) -> String {
        self.telemetry.registry.render_json()
    }

    /// The per-token tracer (`None` when `Config::tracing` is
    /// [`TracingMode::Off`]).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Typed snapshot of every retained trace, assembled into per-token
    /// span trees. Empty (with zeroed stats) when tracing is off.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        match &self.tracer {
            Some(t) => t.snapshot(),
            None => TraceSnapshot::default(),
        }
    }

    /// Chrome trace-event JSON of every retained trace (loadable in
    /// Perfetto / `chrome://tracing`). Valid-but-empty when tracing is off.
    pub fn render_chrome_trace(&self) -> String {
        match &self.tracer {
            Some(t) => t.render_chrome_trace(),
            None => tman_telemetry::trace::render_chrome_trace(&[]),
        }
    }

    /// Start the HTTP exposition endpoint on `addr` (`"127.0.0.1:0"` for
    /// an ephemeral port), returning the bound address. Serves
    /// `GET /metrics` (Prometheus text), `/metrics.json`, `/healthz`, and
    /// `/tracez` (Chrome-trace JSON of retained slow-token span trees).
    /// Called automatically at open time when [`Config::http_addr`] is
    /// set; also the `.serve-http ADDR` console command. Replaces any
    /// endpoint already running. The handler holds only a weak reference,
    /// so the endpoint never keeps a dropped engine alive.
    pub fn serve_http(self: &Arc<Self>, addr: &str) -> Result<std::net::SocketAddr> {
        let weak = Arc::downgrade(self);
        let server = HttpServer::start(
            addr,
            Arc::new(move |path: &str| match weak.upgrade() {
                Some(tman) => tman.http_route(path),
                None => Some(HttpResponse::text(503, "engine is gone\n")),
            }),
        )
        .map_err(|e| TmanError::Internal(format!("http endpoint '{addr}': {e}")))?;
        let local = server.local_addr();
        *self.http.lock() = Some(server);
        Ok(local)
    }

    /// Bound address of the running HTTP endpoint, if any.
    pub fn http_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.lock().as_ref().map(|s| s.local_addr())
    }

    /// Route one HTTP request path (`None` → 404).
    fn http_route(&self, path: &str) -> Option<HttpResponse> {
        match path {
            "/metrics" => Some(HttpResponse::metrics_text(self.render_text())),
            "/metrics.json" => Some(HttpResponse::json(self.render_metrics_json())),
            "/healthz" => Some(self.render_healthz()),
            "/tracez" => Some(HttpResponse::json(self.render_tracez())),
            _ => None,
        }
    }

    /// `/healthz`: liveness plus the operational signals a load balancer
    /// or probe cares about — queue depth against the wire high-water
    /// mark, the durable watermark, and whether the last open recovered
    /// crash damage. 503 when shutting down or overloaded, else 200.
    fn render_healthz(&self) -> HttpResponse {
        let depth = self.queue_len();
        let high = QUEUE_HIGH_WATER;
        let shutdown = self.is_shutdown();
        let overloaded = depth >= high;
        let status = if shutdown {
            "shutting_down"
        } else if overloaded {
            "overloaded"
        } else {
            "ok"
        };
        let watermark = match self.queue_watermark() {
            Some(w) => w.to_string(),
            None => "null".into(),
        };
        let body = format!(
            "{{\"status\":\"{status}\",\"queue_depth\":{depth},\"queue_high_water\":{high},\
             \"queue_watermark\":{watermark},\"recovered\":{},\"shutdown\":{shutdown}}}\n",
            self.was_recovered(),
        );
        HttpResponse {
            status: if shutdown || overloaded { 503 } else { 200 },
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// `/tracez`: Chrome-trace JSON of the retained *slow* span trees
    /// (root carries the slow flag), falling back to every retained tree
    /// when none is slow. Valid-but-empty when tracing is off.
    pub fn render_tracez(&self) -> String {
        let snap = self.trace_snapshot();
        let slow: Vec<&TraceTree> = snap
            .traces
            .iter()
            .filter(|t| t.root().is_some_and(|r| r.arg_a != 0))
            .collect();
        let pick: Vec<&TraceTree> = if slow.is_empty() {
            snap.traces.iter().collect()
        } else {
            slow
        };
        let events: Vec<TraceEvent> = pick.iter().flat_map(|t| t.events.iter().cloned()).collect();
        tman_telemetry::trace::render_chrome_trace(&events)
    }

    /// A live trace handle when tracing is on, else the inert handle. The
    /// single branch here is the entire per-token cost of the off path.
    #[inline]
    fn begin_trace(&self) -> TraceHandle {
        match &self.tracer {
            Some(t) => t.begin(),
            None => TraceHandle::none(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Most recent task failure, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Subscribe to an event name (`"notify"` for notify actions).
    pub fn subscribe(&self, event: &str) -> crossbeam::channel::Receiver<EventNotification> {
        self.events.subscribe(event)
    }

    /// Pending update descriptors (queue depth), across every shard.
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.shards.len()
    }

    /// Shard slots this engine was opened with ([`Config::num_shards`]).
    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// Shards currently active for task placement.
    pub fn active_shards(&self) -> usize {
        self.shards.active()
    }

    /// Steer task placement to `n` shards (clamped to `[1, num_shards]`);
    /// returns the applied value. Public so operators and the differential
    /// oracle can force mid-stream transitions.
    pub fn set_active_shards(&self, n: usize) -> usize {
        self.shards.set_active(n)
    }

    fn record_error(&self, e: &TmanError) {
        self.stats.errors.bump();
        *self.last_error.lock() = Some(e.to_string());
    }

    // ----- commands ------------------------------------------------------------

    /// Execute one TriggerMan command (the console / client API entry).
    pub fn execute_command(self: &Arc<Self>, text: &str) -> Result<CommandOutput> {
        let cmd = tman_lang::parse_command(text)?;
        match cmd {
            Command::CreateTrigger(stmt) => self.create_trigger(&stmt, text),
            Command::DropTrigger(name) => self.drop_trigger(&name),
            Command::CreateTriggerSet(name) => self.create_trigger_set(&name),
            Command::DropTriggerSet(name) => self.drop_trigger_set(&name),
            Command::SetTriggerEnabled { name, enabled } => {
                self.set_trigger_enabled(&name, enabled)
            }
            Command::SetTriggerSetEnabled { name, enabled } => {
                self.set_trigger_set_enabled(&name, enabled)
            }
            Command::DefineDataSource {
                name,
                columns,
                from_table,
                connection,
            } => {
                let schema = match (&columns, &from_table) {
                    (Some(cols), _) => Schema::new(
                        cols.iter()
                            .map(|c| tman_common::Column::new(c.name.clone(), c.ty))
                            .collect(),
                    )?,
                    (None, Some(table)) => self.db.table(table)?.schema().clone(),
                    (None, None) => {
                        return Err(TmanError::Invalid(
                            "data source needs a schema or a table".into(),
                        ))
                    }
                };
                self.define_data_source_on(
                    &name,
                    schema,
                    from_table.as_deref(),
                    connection.as_deref(),
                )
                .map(CommandOutput::DataSourceDefined)
            }
            Command::DefineConnection(def) => {
                self.define_connection(&def)?;
                Ok(CommandOutput::ConnectionDefined)
            }
            Command::ShowStats { subsystem } => {
                let report = self.metrics_snapshot().format(subsystem.as_deref())?;
                Ok(CommandOutput::Stats(report))
            }
            Command::TraceLast { n } => Ok(CommandOutput::Trace(self.render_trace_last(n))),
            Command::TraceToken { id } => self.render_trace_token(id).map(CommandOutput::Trace),
        }
    }

    /// `trace last <n>`: the `n` most recently retained traces, oldest
    /// first, as indented span trees.
    pub fn render_trace_last(&self, n: usize) -> String {
        if self.tracer.is_none() {
            return "tracing is off (start with Config { tracing: TracingMode::Sampled(n) | Full })"
                .into();
        }
        let snap = self.trace_snapshot();
        if snap.traces.is_empty() {
            return format!(
                "no traces retained (started {}, discarded by sampling {})",
                snap.stats.started, snap.stats.discarded
            );
        }
        let skip = snap.traces.len().saturating_sub(n);
        let mut out = String::new();
        for t in &snap.traces[skip..] {
            out.push_str(&t.render());
        }
        out
    }

    /// `trace token <id>`: the retained trace of one token.
    pub fn render_trace_token(&self, id: u64) -> Result<String> {
        if self.tracer.is_none() {
            return Err(TmanError::Invalid(
                "tracing is off (Config { tracing: TracingMode::Off })".into(),
            ));
        }
        self.trace_snapshot()
            .trace(id)
            .map(TraceTree::render)
            .ok_or_else(|| {
                TmanError::NotFound(format!(
                    "trace {id} (discarded by sampling, overwritten in the ring, or never started)"
                ))
            })
    }

    /// The definitions as last published by DDL: a load, never a wait on
    /// the DDL critical section.
    fn published(&self) -> Arc<Published> {
        self.published.read().clone()
    }

    /// Look up a data source by name.
    pub fn source(&self, name: &str) -> Result<Arc<SourceInfo>> {
        self.published()
            .source_named(name)
            .cloned()
            .ok_or_else(|| TmanError::NotFound(format!("data source '{name}'")))
    }

    /// Prime a trigger's network, scanning the memory nodes' base data in
    /// parallel for multi-variable triggers (§6 data-level concurrency).
    fn prime_network(&self, trigger: &CompiledTrigger) -> Result<()> {
        let alpha = self.published();
        if trigger.vars.len() > 1 {
            trigger.network.prime_parallel(&*alpha)
        } else {
            trigger.network.prime(&*alpha)
        }
    }

    fn compile_row(&self, row: &TriggerRow) -> Result<compile::Compiled> {
        let Command::CreateTrigger(stmt) = tman_lang::parse_command(&row.text)? else {
            return Err(TmanError::Internal(format!(
                "catalog text of trigger {} is not a create trigger statement",
                row.id
            )));
        };
        let mut compiled = compile_trigger(
            &stmt,
            row.id,
            row.set,
            &row.text,
            self.config.network,
            &|name| self.source(name),
        )?;
        compiled.trigger.enabled = AtomicBool::new(row.enabled);
        if let Some(flag) = self.published().set_enabled.get(&row.set) {
            compiled.trigger.set_enabled = flag.clone();
        }
        Ok(compiled)
    }

    // ----- data ingestion -------------------------------------------------------

    /// Run a SQL statement against the engine database with update capture:
    /// changes to tables backing data sources produce update descriptors
    /// (the Informix-trigger path of §3). Used both by clients and by
    /// `execSQL` rule actions (which therefore chain).
    pub fn run_sql(&self, sql: &str) -> Result<ExecResult> {
        self.run_stmt(&tman_lang::parse_sql(sql)?)
    }

    /// [`run_sql`](Self::run_sql) for a pre-parsed statement.
    pub fn run_stmt(&self, stmt: &tman_lang::SqlStmt) -> Result<ExecResult> {
        let mut captured = Vec::new();
        let result = tman_sql::execute_with_capture(&self.db, stmt, &mut |c| captured.push(c))?;
        if captured.is_empty() {
            return Ok(result);
        }
        let published = self.published();
        for c in captured {
            let Some(info) = published.capturing(&c.table) else {
                continue; // not a captured table
            };
            let token = UpdateDescriptor {
                data_src: info.id,
                op: tman_common::TokenOp::from_code(c.op)?,
                old: c.old,
                new: c.new,
                trace: self.begin_trace(),
                origin: None,
                claims: TagClaims::none(),
                ingest_unix_ns: tman_telemetry::unix_now_ns(),
            };
            self.queue.enqueue(token)?;
            self.work_published();
        }
        Ok(result)
    }

    /// Called after every enqueue: the update queue has work it may not
    /// have had, so wake a driver if one is parked (at most one — a driver
    /// that finds more than a batch passes the wake-up on, see
    /// [`tman_test_on`](Self::tman_test_on)).
    fn work_published(&self) {
        self.idle.wake_one();
    }

    /// Check a descriptor against the source catalog: the source must
    /// exist and both images must match its schema arity. The wire tier
    /// validates each decoded descriptor with this before batching, so a
    /// bad one is attributed to the connection that sent it instead of
    /// poisoning a whole group commit.
    pub fn validate_token(&self, token: &UpdateDescriptor) -> Result<()> {
        check_token(&self.published(), token)
    }

    /// Data-source API (§3): deliver one update descriptor from a remote
    /// data source program.
    pub fn push_token(&self, mut token: UpdateDescriptor) -> Result<()> {
        self.validate_token(&token)?;
        if !token.trace.is_active() {
            token.trace = self.begin_trace();
        }
        stamp_ingest(&mut token);
        self.queue.enqueue(token)?;
        self.work_published();
        Ok(())
    }

    /// Batched data-source API: validate and enqueue many descriptors
    /// under one group-commit durability barrier (a single sync on the
    /// persistent queue, see [`UpdateQueue::enqueue_batch`]). Validation
    /// failures reject the whole batch before anything is enqueued, so a
    /// caller never has to reason about partial acceptance.
    pub fn push_tokens(&self, tokens: Vec<UpdateDescriptor>) -> Result<()> {
        let mut batch = tokens;
        let published = self.published();
        for token in &mut batch {
            check_token(&published, token)?;
            if !token.trace.is_active() {
                token.trace = self.begin_trace();
            }
            stamp_ingest(token);
        }
        self.queue.enqueue_batch(&batch)?;
        self.work_published();
        Ok(())
    }

    // ----- token processing (§5.4) ------------------------------------------------

    /// Process one token synchronously: the pipeline with a batch of one.
    /// A failure is recorded like any drain's
    /// ([`last_error`](Self::last_error)) and also returned.
    pub fn process_token(self: &Arc<Self>, token: &UpdateDescriptor) -> Result<()> {
        let mut tok = token.clone();
        stamp_ingest(&mut tok);
        self.process_run(0, &[(tok, None)])
    }

    /// The one token-processing pipeline (§5.4, §6), as shard `home`'s
    /// work. Every token reaches the engine's index through here — a
    /// drained batch or [`process_token`](Self::process_token), traced or
    /// not — as a run of tokens of one data source.
    ///
    /// **Probe.** The source's published [`MatchPlan`] is loaded once; from
    /// here on the run asks the catalog nothing. Signature by signature,
    /// every token the signature's event code and update columns accept is
    /// probed in one [`tman_predindex::SignatureRuntime::probe_batch`] call — or, where the
    /// signature takes the Figure-5 fan-out, noted as a split — into one
    /// flat buffer of [`Step`]s, which a stable sort then puts in token
    /// order (signature order, then entry order, within a token). Probes
    /// are pure reads of the constant sets (DDL is the only writer), so all
    /// of them may run before any network is touched.
    ///
    /// **Replay** ([`replay`](Self::replay)) then does everything that
    /// mutates, in strict token order.
    ///
    /// Every failure is recorded as it happens; the first is also returned.
    fn process_run(self: &Arc<Self>, home: usize, run: &[RunToken]) -> Result<()> {
        let n = run.len() as u64;
        self.stats.tokens.add(n);
        // The engine drives the index root inline rather than through
        // `PredicateIndex::match_token`, so the index's token counter is
        // fed here to keep `tman_index_tokens_total` meaning "tokens
        // submitted to the root".
        let istats = self.predindex.stats();
        istats.tokens.add(n);
        let Some(src) = self.predindex.source(run[0].0.data_src) else {
            return Ok(());
        };
        let plan = src.plan();
        // A traced token's `Process` span covers its stay in the run,
        // probe phase through its own replay; its probe, pin and action
        // spans below carry the time that is the token's alone.
        let mut process: Vec<SpanGuard> = Vec::new();
        if self.tracer.is_some() {
            process.extend(run.iter().map(|(tok, _)| {
                let mut span = tok.trace.span(SpanKind::Process, ROOT_SPAN);
                span.set_args(home as u64, 0);
                span
            }));
        }
        let process_id = |idx: usize| process.get(idx).map_or(ROOT_SPAN, SpanGuard::id);
        let mut first_err = None;
        let mut steps: Vec<Step> = Vec::new();
        let mut probes: Vec<Probe<'_>> = Vec::with_capacity(run.len());
        for (s, psig) in plan.sigs.iter().enumerate() {
            let sig = &psig.rt;
            // Condition-level concurrency (Figure 5): split this
            // signature's constant/triggerID sets into tasks.
            let parts = self.config.condition_partitions;
            let fan = parts > 1 && !psig.windowed() && sig.len() >= self.config.partition_min;
            probes.clear();
            let mut accepted = 0u64;
            for (idx, (tok, _)) in run.iter().enumerate() {
                if !sig.sig.key.event.accepts(tok.op) || !tok.touches_columns(&sig.sig.update_cols)
                {
                    continue;
                }
                accepted += 1;
                if fan {
                    let (sig, parts) = (s as u32, parts as u32);
                    steps.push(Step {
                        tok: idx as u32,
                        kind: StepKind::Split { sig, parts },
                    });
                } else {
                    probes.push(Probe {
                        tag: idx,
                        tuple: tok.probe_tuple(),
                        trace: &tok.trace,
                        parent_span: process_id(idx),
                    });
                }
            }
            istats.signatures_probed.add(accepted);
            let probed = sig.probe_batch(&probes, 0, 1, istats, &mut |idx, e, span| {
                steps.push(Step::matched(idx, e, span))
            });
            if let Err(e) = probed {
                self.record_error(&e);
                first_err.get_or_insert(e);
            }
        }
        if run.len() > 1 {
            steps.sort_by_key(|s| s.tok);
        }
        let replayed = self.replay(run, &plan, &mut process, &steps, true);
        first_err.map_or(replayed, Err)
    }

    /// One [`Task`]: the pipeline for one token against partition `part`
    /// of `nparts` of one signature — the same probe routine, the same
    /// replay. Failures are recorded as they happen. The task's
    /// [`AckState`] clone drops when this returns — after the work ran (or
    /// failed), never before — so the originating token's ack fires only
    /// once every partition spawned for it has completed.
    fn execute_task(self: &Arc<Self>, task: Task) {
        self.telemetry.tasks_executed[metrics::TASK_SIG_PARTITION].bump();
        let item: RunToken = (task.token, task.ack);
        let token = &item.0;
        let probe = Probe {
            tag: 0,
            tuple: token.probe_tuple(),
            trace: &token.trace,
            parent_span: task.parent_span,
        };
        let mut steps = Vec::new();
        let istats = self.predindex.stats();
        let probed = task.sig.probe_batch(
            &[probe],
            task.part,
            task.nparts,
            istats,
            &mut |idx, e, span| steps.push(Step::matched(idx, e, span)),
        );
        if let Err(e) = probed {
            self.record_error(&e);
        }
        let run = std::slice::from_ref(&item);
        // `replay` records its own failures.
        let _ = self.replay(run, &MatchPlan::default(), &mut [], &steps, false);
    }

    /// Replay `steps` (sorted by token) over `run` in **strict token
    /// order**. The order within a token is an invariant every oracle
    /// holds the engine to, whatever the batch size, shard count or
    /// fan-out:
    ///
    /// 1. an update token first retracts its old image from stored-memory
    ///    networks (whole tokens only — a partition's token already has);
    /// 2. then its steps run in signature order, entry order within a
    ///    signature;
    /// 3. a match claims its tag *before* its window is observed, so a
    ///    multi-disjunct windowed trigger counts a matching token once;
    /// 4. it is admitted (tag, window) *before* the trigger is pinned, so
    ///    a duplicate or under-threshold match never touches the cache;
    /// 5. every partition a split spawns carries a clone of the token's
    ///    [`AckState`], so the persistent-queue row is acknowledged only
    ///    after every descendant task has run;
    /// 6. an action runs on the thread that replayed its match, before
    ///    the next step: an `execSQL` statement takes effect there and
    ///    then, a `raise event` or `notify` builds its notification there
    ///    and appends it to this call's [`Outbox`]. What the call
    ///    publishes is therefore in match order — token order, then
    ///    signature and entry order — and it is *delivered*
    ///    ([`deliver`](Self::deliver)) in that order before the call
    ///    returns, so before any [`AckState`] of the run can drop: sinks
    ///    have logged every notification of a token before the token can
    ///    be acknowledged. Delivery happens earlier, at a token boundary,
    ///    once more than [`OUTBOX_FLUSH`] notifications wait; where the
    ///    boundaries fall depends on nothing but the run.
    ///
    /// One step's failure is that step's alone: it is recorded, the
    /// token's remaining steps — other triggers' matches — still run, and
    /// the first failure of the call is what it returns.
    ///
    /// Tag claims live in a set on this stack, cleared per token. Only a
    /// token that a split sends to other tasks gets the shared
    /// [`TagClaims`] form, seeded with what it had claimed here.
    fn replay(
        self: &Arc<Self>,
        run: &[RunToken],
        plan: &MatchPlan,
        process: &mut [SpanGuard],
        steps: &[Step],
        whole: bool,
    ) -> Result<()> {
        let mut first_err = None;
        let mut failed = |e: TmanError| {
            self.record_error(&e);
            first_err.get_or_insert(e);
        };
        let mut claimed: FxHashSet<u64> = FxHashSet::default();
        let mut outbox = Outbox::with_capacity(steps.len().min(OUTBOX_FLUSH));
        // Tokens before this one have had their notifications delivered.
        let mut delivered = 0;
        let mut at = 0;
        for (idx, (tok, ack)) in run.iter().enumerate() {
            let mine = steps[at..]
                .iter()
                .take_while(|s| s.tok as usize == idx)
                .count();
            let mine = &steps[at..at + mine];
            at += mine.len();
            let process_id = process.get(idx).map_or(ROOT_SPAN, SpanGuard::id);
            if !claimed.is_empty() {
                claimed.clear();
            }
            // Armed already when this token is itself one part of a split.
            let mut shared = tok.claims.clone();
            if whole && tok.op == TokenOp::Update {
                let _maint = tok.trace.span(SpanKind::Maintenance, process_id);
                if let Err(e) = self.retract_old_image(tok, plan) {
                    failed(e);
                }
            }
            for step in mine {
                match step.kind {
                    StepKind::Split { sig, parts } => {
                        let sig = &plan.sigs[sig as usize].rt;
                        // The fan-out span parents every partition's
                        // probe span, so the tree reassembles across
                        // driver threads.
                        let mut fanout = tok.trace.span(SpanKind::Fanout, process_id);
                        fanout.set_args(sig.id.raw() as u64, u64::from(parts));
                        if !shared.is_active() && self.tagged_count.load(Ordering::Relaxed) > 0 {
                            shared = TagClaims::shared_from(claimed.drain());
                        }
                        let mut token = tok.clone();
                        token.claims = shared.clone();
                        for part in 0..parts as usize {
                            self.shards.push(Task {
                                token: token.clone(),
                                sig: sig.clone(),
                                part,
                                nparts: parts as usize,
                                parent_span: fanout.id(),
                                ack: ack.clone(),
                            });
                        }
                    }
                    StepKind::Match {
                        expr,
                        trigger,
                        node,
                        span,
                    } => {
                        let admitted = self.admit(expr, trigger, node, tok, &mut |tag| {
                            if shared.is_active() {
                                shared.claim(tag)
                            } else {
                                claimed.insert(tag)
                            }
                        });
                        if admitted {
                            if let Err(e) = self.handle_match(trigger, node, tok, span, &mut outbox)
                            {
                                failed(e);
                            }
                        }
                    }
                }
            }
            if outbox.len() > OUTBOX_FLUSH || idx + 1 == run.len() {
                self.deliver(&mut outbox);
                // A token's `Process` span closes once what it published
                // has been delivered.
                for span in process.iter_mut().take(idx + 1).skip(delivered) {
                    *span = SpanGuard::inert();
                }
                delivered = idx + 1;
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Hand a drain pass's outbox to the event bus. `tman_action_ns` gets
    /// the run's delivery time spread evenly over its notifications — one
    /// clock pair for the run, its mean recorded once per notification —
    /// so the histogram's count stays "actions run" and its sum "time
    /// spent on them".
    fn deliver(&self, outbox: &mut Outbox) {
        let n = outbox.len() as u64;
        if n == 0 {
            return;
        }
        let latency = &self.telemetry.action_ns;
        let started = latency.is_enabled().then(std::time::Instant::now);
        self.events.deliver(outbox);
        if let Some(t) = started {
            latency.record_n(t.elapsed().as_nanos() as u64 / n, n);
        }
    }

    /// The tagged-execution / windowed-threshold gate for one index match,
    /// applied before the trigger pin: one branch for an entry flagged
    /// neither ([`EXPR_TAGGED`], [`EXPR_WINDOWED`]). `claim` records a tag
    /// against the token, true the first time only.
    ///
    /// Order matters: the tag is claimed *first*, so a multi-disjunct
    /// windowed trigger observes its window exactly once per matching
    /// token; duplicate disjunct matches are suppressed before they can
    /// double-count.
    fn admit(
        &self,
        expr: ExprId,
        trigger: TriggerId,
        node: NodeId,
        token: &UpdateDescriptor,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> bool {
        let flags = expr.raw() & (EXPR_TAGGED | EXPR_WINDOWED);
        if flags == 0 {
            return true;
        }
        if flags & EXPR_TAGGED != 0 && !claim(tag_of(trigger, node)) {
            self.tag_dedup_hits.bump();
            return false;
        }
        if flags & EXPR_WINDOWED != 0 {
            // No window: a concurrent `drop trigger` retired it, and the
            // pin would find the trigger gone as well.
            let windows = self.windows.read();
            let Some(w) = windows.get(&trigger) else {
                return false;
            };
            if !w.observe(token.ingest_unix_ns) {
                return false;
            }
            self.window_fires.bump();
        }
        true
    }

    fn pin(self: &Arc<Self>, id: TriggerId) -> Result<PinnedTrigger> {
        self.pin_traced(id, &TraceHandle::none(), ROOT_SPAN)
    }

    /// Pin `id`, recording a `CachePin` span (tagged hit/miss) into
    /// `trace` when it is live.
    fn pin_traced(
        self: &Arc<Self>,
        id: TriggerId,
        trace: &TraceHandle,
        parent_span: u32,
    ) -> Result<PinnedTrigger> {
        let mut span = trace.span(SpanKind::CachePin, parent_span);
        let (pinned, hit) = self.cache.pin_report(id, || {
            let row = self
                .catalog
                .trigger_by_id(id)?
                .ok_or_else(|| TmanError::NotFound(format!("trigger {id} in catalog")))?;
            let compiled = self.compile_row(&row)?;
            let trigger = Arc::new(compiled.trigger);
            // Re-prime stored memories lost at eviction (a no-op for the
            // default A-TREAT networks, whose alpha nodes are virtual).
            self.prime_network(&trigger)?;
            Ok(trigger)
        })?;
        span.set_args(id.raw(), u64::from(hit));
        Ok(pinned)
    }

    /// §5.4 for one admitted match: pin the trigger in the trigger cache,
    /// pass the token to the network node the matched expression names,
    /// and run the action of every firing (notifications go to `outbox`).
    fn handle_match(
        self: &Arc<Self>,
        tid: TriggerId,
        node: NodeId,
        token: &UpdateDescriptor,
        parent_span: u32,
        outbox: &mut Outbox,
    ) -> Result<()> {
        // A concurrent `drop trigger` can win the race between the index
        // probe (which saw the entry) and this pin — the trigger is gone
        // from the catalog by design, not broken, so skip instead of
        // erroring.
        let trigger = match self.pin_traced(tid, &token.trace, parent_span) {
            Ok(t) => t,
            Err(TmanError::NotFound(_)) => return Ok(()),
            Err(e) => return Err(e),
        };
        if !trigger.enabled.load(Ordering::Relaxed) || !trigger.set_enabled.load(Ordering::Relaxed)
        {
            return Ok(());
        }
        let var = node.raw() as usize;
        let (polarity, tuple) = match token.op {
            TokenOp::Insert | TokenOp::Update => {
                (Polarity::Plus, token.new.as_ref().expect("new image"))
            }
            TokenOp::Delete => (Polarity::Minus, token.old.as_ref().expect("old image")),
        };
        let run = trigger.runs_action(var, token);
        let mut fire = |bindings: &[Tuple]| -> Result<()> {
            self.stats.firings.bump();
            if !run {
                return Ok(());
            }
            self.stats.actions.bump();
            action::run_action(self, &trigger, bindings, token, parent_span, outbox)
        };
        if trigger.vars.len() == 1 {
            // Straight to the P-node: no base-data scan, and the token's
            // own tuple is the binding — no firing record to build.
            if trigger.network.single_var_fires(tuple)? {
                fire(std::slice::from_ref(tuple))?;
            }
            return Ok(());
        }
        let alpha = self.published();
        let mut firings = Vec::new();
        trigger
            .network
            .activate(var, polarity, tuple, &*alpha, &mut |f| firings.push(f))?;
        for f in firings {
            // A firing of the other polarity is memory maintenance.
            if f.polarity == polarity {
                fire(&f.bindings)?;
            } else {
                self.stats.firings.bump();
            }
        }
        Ok(())
    }

    /// Retract the old image of an update token from triggers with
    /// stored-memory networks (registered under the `any` opcode): a
    /// synthetic delete probe of the plan's `any` signatures with its own
    /// claim set — a multi-variable trigger whose selection was decomposed
    /// into tagged disjuncts must retract the old image exactly once, not
    /// once per matching branch entry.
    fn retract_old_image(
        self: &Arc<Self>,
        token: &UpdateDescriptor,
        plan: &MatchPlan,
    ) -> Result<()> {
        let old = token.old.as_ref().expect("update token has old image");
        let mut matches = Vec::new();
        for sig in plan.sigs.iter().map(|s| &s.rt) {
            if sig.sig.key.event == EventKind::Any {
                sig.probe(old, self.predindex.stats(), &mut |e| {
                    matches.push((e.expr_id, e.trigger_id, e.next_node))
                })?;
            }
        }
        let mut claimed: FxHashSet<u64> = FxHashSet::default();
        for (eid, tid, node) in matches {
            if !self.admit(eid, tid, node, token, &mut |tag| claimed.insert(tag)) {
                continue;
            }
            let trigger = self.pin(tid)?;
            if trigger.vars.len() <= 1 {
                continue;
            }
            // Maintenance only: retraction firings do not run actions.
            trigger.network.activate(
                node.raw() as usize,
                Polarity::Minus,
                old,
                &*self.published(),
                &mut |_| {},
            )?;
        }
        Ok(())
    }

    // ----- task execution / drivers (§6) -------------------------------------------

    /// One bounded-time drain of the task queue — the paper's `TmanTest()`
    /// UDR (§6). Returns whether work remains. Runs as shard 0's work;
    /// driver threads call [`tman_test_on`](Self::tman_test_on) with their
    /// bound shard instead.
    pub fn tman_test(self: &Arc<Self>, threshold: std::time::Duration) -> TmanTestResult {
        self.tman_test_on(0, threshold)
    }

    /// `TmanTest()` as shard `shard`'s driver: drain that shard's task
    /// queue first (stealing from the other shards when it runs dry), then
    /// pull tokens from the update queue [`Config::drain_batch`] at a time.
    /// A batch is processed with the match-plan load, the constant-set lock
    /// holds and the persistent queue's ack/watermark barrier amortized
    /// across it (see `drain_batch_on`). A full batch that leaves tokens
    /// behind passes the pusher's one wake-up on to the next parked driver,
    /// so a burst recruits the pool a driver at a time and the pusher pays
    /// for one.
    pub fn tman_test_on(
        self: &Arc<Self>,
        shard: usize,
        threshold: std::time::Duration,
    ) -> TmanTestResult {
        self.telemetry.tman_test_calls.bump();
        let _duration = self.telemetry.tman_test_ns.start();
        let start = std::time::Instant::now();
        let home = shard % self.shards.num_shards();
        loop {
            if let Some((task, _slot)) = self.shards.pop(home) {
                self.shards.shard(home).tasks.bump();
                self.execute_task(task);
                // Completed acks fold into one batched watermark barrier
                // at every loop boundary instead of one sync per token.
                self.flush_acks();
                // "Yield the processor so other Informix tasks can use
                // it" — cooperative scheduling point.
                std::thread::yield_now();
            } else {
                let max = self.config.drain_batch.max(1);
                let dequeued = self.queue.dequeue_tracked(max);
                if dequeued.is_err() != self.dequeue_failed.load(Ordering::Relaxed) {
                    self.dequeue_failed
                        .store(dequeued.is_err(), Ordering::Relaxed);
                }
                match dequeued {
                    Ok(batch) if !batch.is_empty() => {
                        if batch.len() == max {
                            self.idle.wake_one_if(|| !self.queue.is_empty());
                        }
                        self.shards.shard(home).tokens.add(batch.len() as u64);
                        self.drain_batch_on(home, batch);
                        self.flush_acks();
                        std::thread::yield_now();
                    }
                    other => {
                        if let Err(e) = other {
                            self.record_error(&e);
                        }
                        // Maintenance path: nothing to process.
                        self.expire_windows();
                        self.flush_acks();
                        // Re-check the task queue before reporting
                        // empty. (Only the task queue — a dequeue error
                        // above must not turn into a spin on a broken
                        // update queue.)
                        if self.shards.is_empty() {
                            return TmanTestResult::QueueEmpty;
                        }
                    }
                }
            }
            if start.elapsed() >= threshold {
                // A threshold expiry only means "come back immediately"
                // when something is actually left — e.g. a Figure-5
                // fan-out enqueued by the last token. An expiry with
                // nothing pending is a clean drain, not saturation.
                self.flush_acks();
                if self.has_pending_work() {
                    self.telemetry.threshold_expirations.bump();
                    return TmanTestResult::TasksRemaining;
                }
                return TmanTestResult::QueueEmpty;
            }
        }
    }

    /// Process one dequeued batch as shard `home`'s work. Stamps each
    /// token's durable origin and trace lineage, ties an [`AckState`] to
    /// each tracked sequence number, then hands the batch to the pipeline
    /// ([`process_run`](Self::process_run)) in contiguous same-data-source
    /// runs, global token order preserved.
    fn drain_batch_on(self: &Arc<Self>, home: usize, batch: Vec<queue::QueueItem>) {
        let mut items: Vec<RunToken> = Vec::with_capacity(batch.len());
        for item in batch {
            let mut tok = item.token;
            // Stamp the durable origin so notifications raised by this
            // token carry it (delivery-tier dedup).
            tok.origin = item.seq;
            if tok.trace.is_active() {
                // Queue wait = capture (trace start) to now.
                if let Some(start) = tok.trace.start_ns() {
                    let now = now_ns();
                    tok.trace.record_complete(
                        SpanKind::QueueWait,
                        ROOT_SPAN,
                        start,
                        now.saturating_sub(start),
                        0,
                        0,
                    );
                }
            } else if self.tracer.is_some() {
                // Persistent-queue round trips drop the handle (it is not
                // serialized): lineage restarts at dequeue, so the tree
                // still covers everything from here on.
                tok.trace = self.begin_trace();
            }
            stamp_ingest(&mut tok);
            let ack = item
                .seq
                .map(|seq| AckState::new(seq, self.pending_acks.clone()));
            items.push((tok, ack));
        }
        self.telemetry.tasks_executed[metrics::TASK_TOKEN].add(items.len() as u64);
        for run in items.chunk_by(|a, b| a.0.data_src == b.0.data_src) {
            let _ = self.process_run(home, run); // failures are recorded there
        }
        // `items` drops here: AckState clones not captured by spawned
        // tasks release, queuing their sequence numbers for the caller's
        // `flush_acks`.
    }

    /// Fold every completed ack (sequence numbers whose last [`AckState`]
    /// clone has dropped) into one batched watermark barrier. Called at
    /// drain-loop boundaries and before every `tman_test` return.
    fn flush_acks(&self) {
        if self.pending_acks.is_empty() {
            return;
        }
        let mut seqs = Vec::new();
        while let Some(seq) = self.pending_acks.pop() {
            seqs.push(seq);
        }
        if seqs.is_empty() {
            return;
        }
        // At-least-once for windowed state: dirty windows persist *before*
        // the ack barrier. A crash after the ack with a stale window would
        // lose in-window events for good (lost fires); a crash before it
        // replays the tokens into the recovered window, which can only
        // repeat a fire.
        if let Err(e) = self.persist_windows() {
            self.record_error(&e);
        }
        if let Err(e) = self.queue.ack_batch(&seqs) {
            self.record_error(&e);
        }
    }

    /// Maintenance-path expiry for windowed thresholds: advance every
    /// window to its clamp watermark, dropping aged-out timestamps. Never
    /// consults the wall clock, so it cannot change any firing decision —
    /// the next `observe` would evict the same entries — it just returns
    /// their memory early on idle engines.
    fn expire_windows(&self) {
        let windows = self.windows.read();
        if windows.is_empty() {
            return;
        }
        let mut evicted = 0u64;
        for w in windows.values() {
            w.expire();
            // The drained tally covers observe-time age-outs and capacity
            // drops too, so the counter reflects every timestamp that left
            // a window, whichever path removed it.
            evicted += w.take_evicted();
        }
        if evicted > 0 {
            self.window_evictions.add(evicted);
        }
    }

    /// Write every dirty window's coarse snapshot to the `window_state`
    /// catalog. Called before each ack barrier and at checkpoints.
    fn persist_windows(&self) -> Result<()> {
        let snaps: Vec<(TriggerId, u64, Vec<u64>)> = {
            let windows = self.windows.read();
            if windows.is_empty() {
                return Ok(());
            }
            windows
                .iter()
                .filter_map(|(id, w)| w.snapshot().map(|(last, ring)| (*id, last, ring)))
                .collect()
        };
        for (id, last, ring) in snaps {
            self.catalog.save_window(id, last, &ring)?;
        }
        Ok(())
    }

    /// Live tagged (disjunct) entries in the predicate index.
    pub fn tagged_entries(&self) -> u64 {
        self.tagged_count.load(Ordering::Relaxed)
    }

    /// Matches suppressed because another disjunct entry already claimed
    /// the token's tag.
    pub fn tag_dedup_hits(&self) -> u64 {
        self.tag_dedup_hits.get()
    }

    /// Windowed-trigger firings admitted (threshold met).
    pub fn window_fires(&self) -> u64 {
        self.window_fires.get()
    }

    /// Timestamps evicted from windowed-threshold rings (age-out,
    /// capacity drop, hydration discard), drained by the maintenance pass.
    pub fn window_evictions(&self) -> u64 {
        self.window_evictions.get()
    }

    /// Anything left for a driver to do right now?
    fn has_pending_work(&self) -> bool {
        !self.shards.is_empty() || !self.queue.is_empty()
    }

    /// What a driver does with [`TmanTestResult::QueueEmpty`]: wait until
    /// there is work again, `timeout` at most — `T`,
    /// [`Config::driver_period`], for the engine's own drivers, which is
    /// then the longest an idle driver goes between two `tman_test` calls.
    /// Returns at once when work arrived since that `tman_test` looked, or
    /// the engine is shutting down; otherwise sleeps until a push, a
    /// Figure-5 fan-out, a busy driver's hand-on or
    /// [`shutdown`](Self::shutdown) wakes it. True unless the timeout ran
    /// out. Either way the caller's next step is `tman_test` again.
    ///
    /// Public because `tman_test` is: the paper's drivers are programs
    /// outside the engine, and an embedder that runs its own loop gets the
    /// pool's latency by waiting here instead of sleeping `T`.
    pub fn idle_wait(&self, timeout: std::time::Duration) -> bool {
        self.idle.wait(timeout, || {
            self.is_shutdown()
                || !self.shards.is_empty()
                || (!self.dequeue_failed.load(Ordering::Relaxed) && !self.queue.is_empty())
        })
    }

    /// Drain everything synchronously (tests, examples). Equivalent to a
    /// driver loop with an unbounded THRESHOLD.
    pub fn run_until_quiescent(self: &Arc<Self>) -> Result<()> {
        while self.tman_test(std::time::Duration::from_secs(3600)) == TmanTestResult::TasksRemaining
        {
        }
        Ok(())
    }

    /// Start `N = ceil(NUM_CPUS * TMAN_CONCURRENCY_LEVEL)` driver threads
    /// (§6). Stop them by dropping the returned pool (or `shutdown`).
    /// Placement width starts at `min(num_shards, N)` — fanning placement
    /// wider than the driver pool only adds steal traffic.
    pub fn start_drivers(self: &Arc<Self>) -> DriverPool {
        self.shards
            .set_active(self.config.num_drivers().min(self.shards.num_shards()));
        driver::start(self.clone())
    }

    /// Ask driver threads to exit — parked ones are woken, so this is
    /// prompt whatever `driver_period` is — and stop the HTTP endpoint if
    /// one is serving.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.idle.wake_all();
        // Dropping the server joins its thread.
        self.http.lock().take();
    }

    /// Has [`shutdown`](Self::shutdown) been requested? Embedded services
    /// (driver threads, the wire server) poll this to stop their loops.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Flush dirty pages (catalogs, constant tables, queue) to disk.
    pub fn checkpoint(&self) -> Result<()> {
        self.refresh_signature_catalog()?;
        self.persist_windows()?;
        self.db.checkpoint()
    }

    /// Snapshot a tuple for a source by column values (test/client helper).
    pub fn tuple_for(&self, source: &str, values: Vec<tman_common::Value>) -> Result<Tuple> {
        let info = self.source(source)?;
        Ok(Tuple::new(info.schema.coerce_row(values)?))
    }
}

#[cfg(test)]
mod tests;
