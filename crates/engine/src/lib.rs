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
//! * the trigger cache ([`TriggerCache`]) with buffer-pool pin/unpin semantics
//!   (§5.1);
//! * A-TREAT (default) / TREAT / Rete discrimination networks
//!   ([`tman_network`]) for join conditions;
//! * rule actions (`execSQL`, `raise event`, `notify`) with `:NEW`/`:OLD`
//!   macro substitution (`action.rs`);
//! * drivers calling [`TriggerMan::tman_test`] on a shared task queue with
//!   token- and condition-level concurrency (§6, [`DriverPool`]), parked in
//!   [`TriggerMan::idle_wait`] while there is nothing to do and woken by
//!   the push that ends that; a rule action runs inline on the thread that
//!   matched it.
//!
//! [`TriggerMan`] is split where the paper splits it. DDL (`ddl.rs`) is
//! one critical section over one private `Ddl` value; the drain and the
//! push path (this file) never take that lock — they read the predicate
//! index, the trigger cache, an immutable `Published` value (sources, set
//! flags) that DDL replaces by swap, and the windows DDL edits in place.
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

mod action;
mod cache;
pub mod catalog;
pub mod compile;
mod config;
mod ddl;
mod driver;
pub mod events;
mod metrics;
pub mod queue;
mod source;
mod stats;
mod window;

pub use cache::{CacheStats, PinnedTrigger, TriggerCache};
pub use compile::{ActionArg, CompiledAction, CompiledTrigger};
pub use config::{Config, QueueMode, TracingMode};
pub use driver::{DriverPool, TmanTestResult};
pub use events::{EventBus, EventNotification, NotificationSink, Outbox};
pub use metrics::MetricsSnapshot;
pub use source::SourceInfo;
pub use stats::EngineStats;
pub use tman_network::NetworkKind;
pub use tman_predindex::OrgKind;
pub use tman_telemetry::{
    Registry, SpanKind, TraceEvent, TraceSnapshot, TraceTree, Tracer, TracerStats,
};

use catalog::{Catalog, TriggerRow};
use compile::{compile_trigger, Condition};
use ddl::{Ddl, Published};
use driver::{AckState, Claims, DriverSlot, IdleGate, Task};
use queue::UpdateQueue;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tman_common::fxhash::{FxHashMap, FxHashSet};
use tman_common::{
    DataSourceId, ExprId, NodeId, Result, Schema, TmanError, TokenOp, TriggerId, TriggerSetId,
    Tuple, UpdateDescriptor,
};
use tman_lang::Command;
use tman_network::Polarity;
use tman_predindex::{Entry, Found, PredicateIndex, Probe, SignatureRuntime};
use tman_sql::{Database, ExecResult};
use tman_sync::SegQueue;
use tman_sync::{Mutex, RwLock};
use tman_telemetry::trace::{now_ns, SpanGuard, ROOT_SPAN};
use tman_telemetry::{HttpResponse, HttpServer, TraceHandle};
use window::{DirtyWindows, WindowState};

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

/// Match and retract steps whose triggers a drain pass touches together,
/// read-only, before it fires the first of them ([`TriggerMan::replay`],
/// [`TriggerCache::warm`]). A constant, not a setting: it only bounds how
/// far ahead of the fires the touched lines are read, so that a token with
/// thousands of fires does not read them out of the CPU cache again before
/// its fires get to them.
const WARM: usize = 128;

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

/// The tag shared by the disjunct entries of one trigger variable,
/// derived from the match so nothing is stored for it: `node` is the
/// variable's ordinal, below 16 ([`compile_trigger`]).
fn tag_of(trigger: TriggerId, node: NodeId) -> u64 {
    (trigger.raw() << 4) | u64::from(node.raw())
}

/// One token of a run, with the deferred ack of its persistent-queue row.
type RunToken = (UpdateDescriptor, Option<Arc<AckState>>);

/// An index entry a token matched, as a step needs it: its expression
/// (for the flag bits), its trigger and its network node.
type Hit = (ExprId, TriggerId, NodeId);

/// One deferred step of a token's replay ([`TriggerMan::replay`]).
struct Step {
    /// Index of the token in its run.
    tok: u32,
    kind: StepKind,
}

enum StepKind {
    /// An update token's old image matched an entry of an `any`
    /// signature: retract it from the trigger's stored memories.
    Retract(Hit),
    /// An index match to admit, pin and activate, with the probe's
    /// `SigProbe` span: the parent of the pin and action spans.
    Match(Hit, u32),
    /// A Figure-5 fan-out of this signature to push, split
    /// [`Config::condition_partitions`] ways.
    Split(Arc<SignatureRuntime>),
}

impl Step {
    /// The trigger a match or retract step pins; a split pins none.
    fn trigger(&self) -> Option<TriggerId> {
        match self.kind {
            StepKind::Retract((_, trigger, _)) | StepKind::Match((_, trigger, _), _) => {
                Some(trigger)
            }
            StepKind::Split(_) => None,
        }
    }

    fn new(found: Found<'_>) -> Step {
        let hit = |e: &Entry| (e.expr_id, e.trigger_id, e.next_node);
        let (tok, kind) = match found {
            Found::Match { tok, entry, span } => (tok, StepKind::Match(hit(entry), span)),
            Found::Retract { tok, entry } => (tok, StepKind::Retract(hit(entry))),
            Found::Split { tok, sig } => (tok, StepKind::Split(sig.clone())),
        };
        let tok = tok as u32;
        Step { tok, kind }
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
    /// The §6 task queue, one FIFO that every driver pops. Whole tokens
    /// drain straight from the update queue, so what it carries are
    /// Figure-5 partitions ([`Task`]).
    tasks: SegQueue<Task>,
    /// One activity block per driver slot (`Config::num_drivers`).
    slots: Vec<DriverSlot>,
    /// Where idle drivers wait ([`idle_wait`](Self::idle_wait)) and a push
    /// or a fan-out wakes one.
    idle: Arc<IdleGate>,
    /// The last dequeue failed. What such an update queue holds is not
    /// work a driver can do, so an idle wait does not return for it: a
    /// broken queue is retried once a `driver_period`, not in a spin.
    dequeue_failed: AtomicBool,
    /// Sequence numbers whose token-level work has fully completed (every
    /// [`AckState`] clone dropped), awaiting the next batched
    /// [`UpdateQueue::ack_batch`] (see [`Self::flush_acks`]).
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
    /// trigger's cache residency, so it lives here rather than in the
    /// compiled description; DDL inserts and removes one in place, and the
    /// drain reads one only for a match whose entry is marked
    /// [`ExprId::WINDOWED`], and for persistence.
    windows: RwLock<FxHashMap<TriggerId, Arc<WindowState>>>,
    /// The windows an ack barrier must save: those observed since the last
    /// barrier took the list.
    dirty_windows: DirtyWindows,
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
        // Each subsystem registers its own series in the engine's
        // registry; the engine's own are created there.
        let (telemetry, stats) = metrics::EngineTelemetry::new();
        let registry = &telemetry.registry;
        db.storage().pool().attach_telemetry(registry);
        let catalog = Catalog::open(&db)?;
        let queue = match config.queue_mode {
            QueueMode::Volatile => UpdateQueue::volatile(),
            QueueMode::Persistent => UpdateQueue::persistent(&db)?,
        };
        queue.attach_telemetry(registry);
        let mut events = EventBus::new();
        events.attach_telemetry(registry);
        let predindex = PredicateIndex::with_database(config.index.clone(), db.clone());
        predindex.attach_telemetry(registry);
        let cache = Arc::new(TriggerCache::new(config.trigger_cache_capacity));
        cache.attach_telemetry(registry);
        // One branch per token on the off path: `tracer` stays `None`.
        let tracer = match config.tracing {
            TracingMode::Off => None,
            TracingMode::Sampled(n) => Some(Arc::new(Tracer::new(
                TRACE_BUFFER_EVENTS,
                n,
                config.slow_token_threshold,
            ))),
        };
        if let Some(tracer) = &tracer {
            tracer.attach_telemetry(registry);
        }
        let slots = (0..config.num_drivers())
            .map(|i| DriverSlot::new(registry, i))
            .collect();
        let idle = Arc::new(IdleGate::new(registry));
        let system = Arc::new(TriggerMan {
            cache,
            predindex: Arc::new(predindex),
            queue,
            telemetry,
            tracer,
            tasks: SegQueue::new(),
            slots,
            idle,
            dequeue_failed: AtomicBool::new(false),
            pending_acks: Arc::new(SegQueue::new()),
            events,
            ddl: Mutex::default(),
            published: RwLock::default(),
            windows: RwLock::default(),
            dirty_windows: DirtyWindows::default(),
            stats,
            last_error: Mutex::new(None),
            http: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            catalog,
            db,
            config,
        });
        system.recover()?;
        if let Some(addr) = system.config.http_addr.clone() {
            system.serve_http(&addr)?;
        }
        Ok(system)
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

    /// The benchmark harness's typed view of the registry
    /// ([`MetricsSnapshot`]).
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
    pub fn subscribe(&self, event: &str) -> tman_sync::channel::Receiver<EventNotification> {
        self.events.subscribe(event)
    }

    /// Pending work: update descriptors plus queued Figure-5 partitions.
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.tasks.len()
    }

    /// Driver slots (`Config::num_drivers`). Kept only for the benchmark
    /// harness, which binds its drivers by this count.
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// `n` clamped to `[1, num_shards]`; steers nothing, since every
    /// driver pops the one task queue. Kept only for the benchmark harness.
    pub fn set_active_shards(&self, n: usize) -> usize {
        n.clamp(1, self.num_shards())
    }

    fn record_error(&self, e: &TmanError) {
        self.stats.errors.bump();
        self.telemetry.errors_by_kind[e.kind_index()].bump();
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
                metrics::show_stats(&self.telemetry.registry, subsystem.as_deref())
                    .map(CommandOutput::Stats)
            }
            Command::TraceLast { n } => Ok(CommandOutput::Trace(self.render_trace_last(n))),
            Command::TraceToken { id } => self.render_trace_token(id).map(CommandOutput::Trace),
        }
    }

    /// `trace last <n>`: the `n` most recently retained traces, oldest
    /// first, as indented span trees.
    pub fn render_trace_last(&self, n: usize) -> String {
        if self.tracer.is_none() {
            return "tracing is off (start with Config { tracing: TracingMode::Sampled(n) })"
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

    /// Prime a join trigger's network (§5.1), scanning the memory nodes'
    /// base data in parallel (§6 data-level concurrency). A one-variable
    /// trigger has no network, so nothing to prime and no base table to
    /// scan.
    fn prime_network(&self, trigger: &CompiledTrigger) -> Result<()> {
        match trigger.network() {
            Some(network) => network.prime_parallel(&*self.published()),
            None => Ok(()),
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

    /// The one token-processing pipeline (§5.4, §6), as driver slot
    /// `slot`'s work. Every token reaches the engine's index through here — a
    /// drained batch or [`process_token`](Self::process_token), traced or
    /// not — as a run of tokens of one data source.
    ///
    /// **Probe.** [`PredicateIndex::match_run`] walks the source's
    /// signatures once for the whole run, retractions included, into one
    /// flat buffer of [`Step`]s; what stays here is the Figure-5 decision
    /// of which signatures fan out instead. A stable sort then puts the
    /// steps in token order (signature order, then entry order, within a
    /// token). Probes are pure reads of the constant sets (DDL is the only
    /// writer), so all of them may run before any network is touched.
    ///
    /// **Replay** ([`replay`](Self::replay)) then does everything that
    /// mutates, in strict token order.
    ///
    /// Every failure is recorded as it happens; the first is also returned.
    fn process_run(self: &Arc<Self>, slot: usize, run: &[RunToken]) -> Result<()> {
        self.stats.tokens.add(run.len() as u64);
        // A traced token's `Process` span covers its stay in the run,
        // probe phase through its own replay; its probe, pin and action
        // spans below carry the time that is the token's alone.
        let mut process: Vec<SpanGuard> = Vec::new();
        if self.tracer.is_some() {
            process.extend(run.iter().map(|(tok, _)| {
                let mut span = tok.trace.span(SpanKind::Process, ROOT_SPAN);
                span.set_args(slot as u64, 0);
                span
            }));
        }
        let process_id = |idx: usize| process.get(idx).map_or(ROOT_SPAN, SpanGuard::id);
        // Condition-level concurrency (Figure 5): split a signature's
        // constant/triggerID sets into tasks.
        let parts = self.config.condition_partitions;
        let fan = |sig: &SignatureRuntime| {
            parts > 1 && !sig.windowed() && sig.len() >= self.config.partition_min
        };
        let mut first_err = None;
        let mut steps: Vec<Step> = Vec::new();
        let token = |idx: usize| (&run[idx].0, process_id(idx));
        self.predindex
            .match_run(run.len(), token, true, fan, |found| match found {
                Ok(found) => steps.push(Step::new(found)),
                Err(e) => {
                    self.record_error(&e);
                    first_err.get_or_insert(e);
                }
            });
        if run.len() > 1 {
            steps.sort_by_key(|s| s.tok);
        }
        let replayed = self.replay(run, &mut process, &steps, None);
        first_err.map_or(replayed, Err)
    }

    /// One [`Task`]: the pipeline for one token against partition `part`
    /// of `nparts` of one signature — the same probe routine, the same
    /// replay. Failures are recorded as they happen. The task's
    /// [`AckState`] clone drops when this returns — after the work ran (or
    /// failed), never before — so the originating token's ack fires only
    /// once every partition spawned for it has completed.
    fn execute_task(self: &Arc<Self>, task: Task) {
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
            &mut |tok, entry, span| steps.push(Step::new(Found::Match { tok, entry, span })),
        );
        if let Err(e) = probed {
            self.record_error(&e);
        }
        let run = std::slice::from_ref(&item);
        // `replay` records its own failures.
        let _ = self.replay(run, &mut [], &steps, Some(&task.claims));
    }

    /// Replay `steps` (sorted by token) over `run` in **strict token
    /// order**.
    ///
    /// Before the first step of every [`WARM`] it fires, it makes one
    /// read-only pass over the triggers of those steps
    /// ([`TriggerCache::warm`]): their cache lines are read together, so
    /// the misses of a run's fires overlap instead of each waiting for the
    /// one before. The pass pins, marks and counts nothing, and a trigger
    /// that is not resident is passed over, so every invariant below — the
    /// pins of invariant 4 included — holds as if it did not run.
    ///
    /// The order within a token is an invariant every oracle holds the
    /// engine to, whatever the batch size, driver count or fan-out:
    ///
    /// 1. an update token's retract steps run first, under its
    ///    `Maintenance` span, against a claim set of their own, so a
    ///    multi-variable trigger whose selection was decomposed into tagged
    ///    disjuncts retracts the old image once, not once per matching
    ///    disjunct (whole tokens only — a partition's token already has);
    /// 2. then its match and split steps run in signature order, entry
    ///    order within a signature;
    /// 3. a match claims its tag *before* its window is observed, so a
    ///    multi-disjunct windowed trigger counts a matching token once;
    /// 4. it is admitted (tag, window) *before* the trigger is pinned, so
    ///    a duplicate or under-threshold match is never pinned and moves
    ///    no cache counter or mark;
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
    /// token's remaining steps — other triggers' retractions and matches —
    /// still run, and the first failure of the call is what it returns.
    ///
    /// `split` is `None` for a whole run: its tag claims live in a set on
    /// this stack, cleared per token, and a token that splits moves them
    /// into a fresh shared [`Claims`] that every one of its partitions and
    /// its own later matches claim against. `Some` is one partition of a
    /// split token, claiming against that token's set.
    fn replay(
        self: &Arc<Self>,
        run: &[RunToken],
        process: &mut [SpanGuard],
        steps: &[Step],
        split: Option<&Claims>,
    ) -> Result<()> {
        let mut first_err = None;
        let mut failed = |e: TmanError| {
            self.record_error(&e);
            first_err.get_or_insert(e);
        };
        let mut claimed: FxHashSet<u64> = FxHashSet::default();
        let mut outbox = Outbox::with_capacity(steps.len().min(OUTBOX_FLUSH));
        // Steps before this one have had their triggers touched.
        let mut warmed = 0;
        let mut warm = |step: usize| {
            if step >= warmed {
                warmed = (step + WARM).min(steps.len());
                self.cache
                    .warm(steps[step..warmed].iter().filter_map(Step::trigger));
            }
        };
        // Tokens before this one have had their notifications delivered.
        let mut delivered = 0;
        let mut at = 0;
        for (idx, (tok, ack)) in run.iter().enumerate() {
            let first = at;
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
            let mut shared = split.cloned();
            let retracts = tok.op == TokenOp::Update;
            if retracts && mine.iter().any(|s| matches!(s.kind, StepKind::Retract(_))) {
                let maint = tok.trace.span(SpanKind::Maintenance, process_id);
                let mut retracted: FxHashSet<u64> = FxHashSet::default();
                for (i, step) in mine.iter().enumerate() {
                    if let StepKind::Retract(hit) = step.kind {
                        warm(first + i);
                        if let Err(e) = self.retract(hit, tok, maint.id(), &mut retracted) {
                            failed(e);
                        }
                    }
                }
            }
            for (i, step) in mine.iter().enumerate() {
                match &step.kind {
                    StepKind::Retract(_) => {} // run above, first
                    StepKind::Split(sig) => {
                        let parts = self.config.condition_partitions;
                        // The fan-out span parents every partition's
                        // probe span, so the tree reassembles across
                        // driver threads.
                        let mut fanout = tok.trace.span(SpanKind::Fanout, process_id);
                        fanout.set_args(sig.id.raw() as u64, parts as u64);
                        // Armed at every split, whatever the index holds
                        // now: an OR trigger created before the partitions
                        // run must still fire once.
                        let claims = shared.get_or_insert_with(|| {
                            Arc::new(Mutex::new(std::mem::take(&mut claimed)))
                        });
                        for part in 0..parts {
                            self.tasks.push(Task {
                                token: tok.clone(),
                                sig: sig.clone(),
                                part,
                                nparts: parts,
                                parent_span: fanout.id(),
                                ack: ack.clone(),
                                claims: claims.clone(),
                            });
                            self.idle.wake_one();
                        }
                    }
                    &StepKind::Match((expr, trigger, node), span) => {
                        warm(first + i);
                        let admitted =
                            self.admit(expr, trigger, node, tok, &mut |tag| match &shared {
                                Some(claims) => claims.lock().insert(tag),
                                None => claimed.insert(tag),
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
        let started = std::time::Instant::now();
        self.events.deliver(outbox);
        let mean = started.elapsed().as_nanos() as u64 / n;
        self.telemetry.action_ns.record_n(mean, n);
    }

    /// The tagged-execution / windowed-threshold gate for one index match,
    /// applied before the trigger pin: one branch for an entry marked
    /// neither ([`ExprId::TAGGED`], [`ExprId::WINDOWED`]). `claim` records
    /// a tag against the token, true the first time only.
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
        if expr.raw() & (ExprId::TAGGED | ExprId::WINDOWED) == 0 {
            return true;
        }
        if expr.is_tagged() && !claim(tag_of(trigger, node)) {
            self.telemetry.tag_dedup_hits.bump();
            return false;
        }
        if expr.is_windowed() {
            // No window: a concurrent `drop trigger` retired it, and the
            // pin would find the trigger gone as well.
            let Some(w) = self.window(trigger) else {
                return false;
            };
            if !w.observe(token.ingest_unix_ns, &self.dirty_windows) {
                return false;
            }
            self.telemetry.window_fires.bump();
        }
        true
    }

    /// Pin `id`, recording a `CachePin` span (tagged hit/miss) into
    /// `trace` when it is live. `None` is a trigger gone from the catalog:
    /// a concurrent `drop trigger` can win the race between the index probe
    /// (which saw the entry) and this pin, and the trigger is then gone by
    /// design, not broken, so a match or retraction of it is skipped.
    fn pin_traced(
        self: &Arc<Self>,
        id: TriggerId,
        trace: &TraceHandle,
        parent_span: u32,
    ) -> Result<Option<PinnedTrigger>> {
        let mut span = trace.span(SpanKind::CachePin, parent_span);
        let pinned = self.cache.pin_report(id, || {
            let row = self
                .catalog
                .trigger_by_id(id)?
                .ok_or_else(|| TmanError::NotFound(format!("trigger {id} in catalog")))?;
            let compiled = self.compile_row(&row)?;
            let trigger = Arc::new(compiled.trigger);
            // Re-prime stored memories lost at eviction (a no-op for a
            // one-variable trigger, which has no network, and for the
            // default A-TREAT networks, whose alpha nodes are virtual).
            self.prime_network(&trigger)?;
            Ok(trigger)
        });
        match pinned {
            Ok((pinned, hit)) => {
                span.set_args(id.raw(), u64::from(hit));
                Ok(Some(pinned))
            }
            Err(TmanError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
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
        let Some(trigger) = self.pin_traced(tid, &token.trace, parent_span)? else {
            return Ok(());
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
        let network = match &trigger.condition {
            Condition::Selection(rest) => {
                // Straight to the P-node: no base-data scan, and the
                // token's own tuple is the binding — no firing record to
                // build.
                if compile::rest_holds(rest, tuple)? {
                    fire(std::slice::from_ref(tuple))?;
                }
                return Ok(());
            }
            Condition::Join(network) => network,
        };
        let alpha = self.published();
        let mut firings = Vec::new();
        network.activate(var, polarity, tuple, &*alpha, &mut |f| firings.push(f))?;
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

    /// Invariant 1 for one retract step: admit it against the token's
    /// retraction `claims`, pin the trigger and send the token's old image
    /// into its network as a delete. Memory maintenance only — a
    /// retraction's firings run no actions.
    fn retract(
        self: &Arc<Self>,
        (expr, tid, node): Hit,
        token: &UpdateDescriptor,
        parent_span: u32,
        claims: &mut FxHashSet<u64>,
    ) -> Result<()> {
        if !self.admit(expr, tid, node, token, &mut |tag| claims.insert(tag)) {
            return Ok(());
        }
        let Some(trigger) = self.pin_traced(tid, &token.trace, parent_span)? else {
            return Ok(());
        };
        let Some(network) = trigger.network() else {
            return Ok(());
        };
        let old = token.old.as_ref().expect("update token has old image");
        let alpha = self.published();
        network.activate(
            node.raw() as usize,
            Polarity::Minus,
            old,
            &*alpha,
            &mut |_| {},
        )
    }

    // ----- task execution / drivers (§6) -------------------------------------------

    /// One bounded-time drain of the task queue — the paper's `TmanTest()`
    /// UDR (§6). Returns whether work remains. Counts as driver slot 0's
    /// work; driver threads call [`tman_test_on`](Self::tman_test_on) with
    /// their own slot.
    pub fn tman_test(self: &Arc<Self>, threshold: std::time::Duration) -> TmanTestResult {
        self.tman_test_on(0, threshold)
    }

    /// `TmanTest()` as the driver of slot `slot`: pop the task queue
    /// first, then pull tokens from the update queue
    /// [`Config::drain_batch`] at a time. Every driver pops the same queue;
    /// `slot` only picks the per-driver counters the work is counted in
    /// (modulo the slot count — the parameter stays for the benchmark
    /// harness, which names its drivers by slot).
    /// A batch is processed with the match-plan load, the constant-set lock
    /// holds and the persistent queue's acks amortized
    /// across it (see `drain_batch_on`). A full batch that leaves tokens
    /// behind passes the pusher's one wake-up on to the next parked driver,
    /// so a burst recruits the pool a driver at a time and the pusher pays
    /// for one.
    pub fn tman_test_on(
        self: &Arc<Self>,
        slot: usize,
        threshold: std::time::Duration,
    ) -> TmanTestResult {
        self.telemetry.tman_test_calls.bump();
        let _duration = self.telemetry.tman_test_ns.start();
        let start = std::time::Instant::now();
        let slot = slot % self.slots.len();
        loop {
            if let Some(task) = self.tasks.pop() {
                self.slots[slot].tasks.bump();
                self.execute_task(task);
                // Completed acks fold into the queue's acked set at every
                // loop boundary; the next barrier makes them durable.
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
                        self.slots[slot].tokens.add(batch.len() as u64);
                        self.drain_batch_on(slot, batch);
                        self.flush_acks();
                        std::thread::yield_now();
                    }
                    other => {
                        if let Err(e) = other {
                            self.record_error(&e);
                        }
                        self.flush_acks();
                        // Re-check the task queue before reporting
                        // empty. (Only the task queue — a dequeue error
                        // above must not turn into a spin on a broken
                        // update queue.)
                        if self.tasks.is_empty() {
                            return self.queue_empty();
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
                return self.queue_empty();
            }
        }
    }

    /// Report an empty queue, making the acks of what was drained durable
    /// first: an ack rides the next push's group commit, and an idle
    /// engine has no next push. Free when no ack is outstanding.
    fn queue_empty(&self) -> TmanTestResult {
        if let Err(e) = self.queue.commit_acks() {
            self.record_error(&e);
        }
        TmanTestResult::QueueEmpty
    }

    /// Process one dequeued batch as driver slot `slot`'s work. Stamps each
    /// token's durable origin and trace lineage, ties an [`AckState`] to
    /// each tracked sequence number, then hands the batch to the pipeline
    /// ([`process_run`](Self::process_run)) in contiguous same-data-source
    /// runs, global token order preserved.
    fn drain_batch_on(self: &Arc<Self>, slot: usize, batch: Vec<queue::QueueItem>) {
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
        for run in items.chunk_by(|a, b| a.0.data_src == b.0.data_src) {
            let _ = self.process_run(slot, run); // failures are recorded there
        }
        // `items` drops here: AckState clones not captured by spawned
        // tasks release, queuing their sequence numbers for the caller's
        // `flush_acks`.
    }

    /// Fold every completed ack (sequence numbers whose last [`AckState`]
    /// clone has dropped) into the queue's acked set, where the next
    /// durability barrier picks them up. Called at drain-loop boundaries
    /// and before every `tman_test` return.
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
        // the ack is recorded, so the barrier that makes the ack durable
        // flushes them ahead of it. A crash after the ack with a stale
        // window would lose in-window events for good (lost fires); a
        // crash before it replays the tokens into the recovered window,
        // which can only repeat a fire. So a failed persist leaves the
        // seqs pending, for the next barrier to retry.
        if let Err(e) = self.persist_windows() {
            self.record_error(&e);
            for seq in seqs {
                self.pending_acks.push(seq);
            }
            return;
        }
        if let Err(e) = self.queue.ack_batch(&seqs) {
            self.record_error(&e);
        }
    }

    /// Write every dirty window's ring to its `window_state` row. Called
    /// before each ack barrier and at checkpoints: it visits the windows
    /// on the dirty list, each under its own lock and none under the map's,
    /// and writes each one's row in place. A window whose save fails stays
    /// dirty, and so do the ones after it.
    fn persist_windows(&self) -> Result<()> {
        let dirty = self.dirty_windows.take();
        for (i, &id) in dirty.iter().enumerate() {
            // Gone: its trigger was dropped.
            let Some(w) = self.window(id) else { continue };
            if let Err(e) = w.save(&self.catalog, &self.dirty_windows) {
                self.dirty_windows.put_back(&dirty[i + 1..]);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Windowed trigger `id`'s window, if it has one.
    fn window(&self, id: TriggerId) -> Option<Arc<WindowState>> {
        self.windows.read().get(&id).cloned()
    }

    /// Live tagged (disjunct) entries in the predicate index.
    pub fn tagged_entries(&self) -> u64 {
        self.predindex.tagged_entries()
    }

    /// Matches suppressed because another disjunct entry already claimed
    /// the token's tag.
    pub fn tag_dedup_hits(&self) -> u64 {
        self.telemetry.tag_dedup_hits.get()
    }

    /// Windowed-trigger firings admitted (threshold met).
    pub fn window_fires(&self) -> u64 {
        self.telemetry.window_fires.get()
    }

    /// Anything left for a driver to do right now?
    fn has_pending_work(&self) -> bool {
        !self.tasks.is_empty() || !self.queue.is_empty()
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
                || !self.tasks.is_empty()
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

    /// Start [`Config::num_drivers`] driver threads (§6). Stop them by
    /// dropping the returned pool (or `shutdown`).
    pub fn start_drivers(self: &Arc<Self>) -> DriverPool {
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

    /// Flush dirty pages (catalogs, constant tables, queue) to disk, with
    /// every ack recorded so far.
    pub fn checkpoint(&self) -> Result<()> {
        self.refresh_signature_catalog()?;
        self.persist_windows()?;
        self.queue.commit_acks()?;
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
