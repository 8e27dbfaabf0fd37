//! Per-token trace spans: causal lineage through the §6 task fan-out.
//!
//! Aggregate counters (the rest of this crate) answer "how much work?";
//! they cannot answer "why was *this* token slow?". §6 fans one update
//! descriptor out into signature-partition tasks executed on different
//! driver threads, each running the actions of its own matches, and this
//! module reassembles that execution into one tree per token:
//!
//! * [`TraceEvent`] — one completed span: `(trace_id, span_id, parent_id,
//!   kind, thread, start, duration, two kind-specific args)`;
//! * [`SpanGuard`] — an RAII guard that records a span on drop; spans
//!   created from an inert [`TraceHandle`] cost one branch and never read
//!   the clock (the `tracing: Off` path);
//! * [`TraceRing`] — a bounded flight-recorder ring under one lock that
//!   keeps the newest events and counts overwrites exactly; its writers
//!   are a retained token's last handle, which flushes the whole tree in
//!   one lock hold, and [`Tracer::push_foreign`];
//! * [`Tracer`] — hands out per-token [`TraceHandle`]s and applies
//!   *tail-based* 1-in-N sampling: every active token accumulates spans
//!   privately, and the keep/discard decision is made when the last clone
//!   of the handle drops, so a token whose end-to-end latency crosses the
//!   slow threshold is force-retained even at 1-in-1000 sampling.
//!
//! Surfaces: [`Tracer::snapshot`] (typed trees), [`TraceTree::render`]
//! (indented console tree), [`render_chrome_trace`] (Chrome trace-event
//! JSON, loadable in Perfetto) and [`validate_chrome_trace`] (a serde-free
//! structural parser used by CI's smoke test).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Span id of the per-token root span.
pub const ROOT_SPAN: u32 = 0;
/// Parent id carried by the root span (it has no parent).
pub const NO_PARENT: u32 = u32::MAX;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Wall-clock nanoseconds since the Unix epoch. Used for stamps that
/// cross process boundaries (wire-protocol send/fire times), where the
/// process-local trace epoch is meaningless; a receiver maps a foreign
/// wall stamp into its own trace timeline via
/// `now_ns() - (unix_now_ns() - stamp)`.
#[inline]
pub fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Small dense id for the current OS thread (drivers get 0, 1, 2, ... in
/// first-use order); lets a trace show which spans ran on which driver.
pub fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// What a span measured. The taxonomy follows the token's §3 life cycle:
/// capture → queue → `TmanTest` → predicate-index probe → rest-of-predicate
/// test → trigger-cache pin → (partition fan-out) → action → notify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root span: the token's whole life, from capture to the last task
    /// that referenced it. `arg_a` = 1 if retained by the slow-token rule,
    /// `arg_b` = number of child spans recorded.
    Token,
    /// Capture → dequeue wait in the update-descriptor queue.
    QueueWait,
    /// One `process_token` pass (signature walk + fan-out decisions).
    Process,
    /// Maintenance routing of an update's old image (synthetic delete).
    Maintenance,
    /// One signature probe. `arg_a` = signature id, `arg_b` =
    /// `(partition << 32) | nparts`.
    SigProbe,
    /// Rest-of-predicate (residual) testing within one probe, aggregated:
    /// `arg_b` = number of residual tests run.
    RestTest,
    /// Trigger-cache pin. `arg_a` = trigger id, `arg_b` = 1 on a cache hit.
    CachePin,
    /// Pushing condition-level partition tasks (Figure 5). `arg_a` =
    /// signature id, `arg_b` = partitions pushed.
    Fanout,
    /// One rule-action execution. `arg_a` = trigger id.
    Action,
    /// Event delivery from an action. `arg_b` = subscribers notified.
    Notify,
    /// One wire-tier group-commit batch (decode + batched enqueue + sync).
    /// `arg_a` = tokens in the batch, `arg_b` = connections contributing.
    Wire,
    /// Client-side send of one token over the wire, reconstructed on the
    /// server from the batch's wall-clock send stamp: covers serialize +
    /// TCP transit + server decode. `arg_a` = tokens in the carrying
    /// batch.
    WireSend,
    /// Durable delivery-log append + mailbox push for one notification.
    /// `arg_a` = the per-subscriber sequence number assigned.
    WireDeliver,
    /// Delivery close: fire (log append) → subscriber ack received.
    /// `arg_a` = the acked per-subscriber sequence number.
    WireAck,
}

impl SpanKind {
    /// Snake-case name used in renderings and the Chrome trace export.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Token => "token",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Process => "process",
            SpanKind::Maintenance => "maintenance",
            SpanKind::SigProbe => "sig_probe",
            SpanKind::RestTest => "rest_test",
            SpanKind::CachePin => "cache_pin",
            SpanKind::Fanout => "fanout",
            SpanKind::Action => "action",
            SpanKind::Notify => "notify",
            SpanKind::Wire => "wire",
            SpanKind::WireSend => "wire_send",
            SpanKind::WireDeliver => "wire_deliver",
            SpanKind::WireAck => "wire_ack",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Token this span belongs to.
    pub trace_id: u64,
    /// Span id, unique within the trace ([`ROOT_SPAN`] is the root).
    pub span_id: u32,
    /// Parent span id ([`NO_PARENT`] for the root).
    pub parent_id: u32,
    /// What was measured.
    pub kind: SpanKind,
    /// [`thread_tag`] of the recording thread.
    pub thread: u32,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub arg_a: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub arg_b: u64,
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// Bounded flight-recorder ring for [`TraceEvent`]s: the newest
/// `capacity` events, oldest first, under one lock.
/// [`dropped`](Self::dropped) counts the events pushed out exactly.
pub struct TraceRing {
    capacity: usize,
    state: Mutex<RingState>,
}

#[derive(Default)]
struct RingState {
    events: VecDeque<TraceEvent>,
    /// Events ever pushed.
    pushed: u64,
}

impl TraceRing {
    /// Ring holding the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            state: Mutex::default(),
        }
    }

    /// Event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one event, pushing out the oldest if full.
    pub fn push(&self, ev: &TraceEvent) {
        self.push_all([*ev]);
    }

    /// Append `events` in order under one lock hold, pushing out the
    /// oldest past capacity.
    pub fn push_all(&self, events: impl IntoIterator<Item = TraceEvent>) {
        let mut ring = self.lock();
        for ev in events {
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
            }
            ring.events.push_back(ev);
            ring.pushed += 1;
        }
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.lock().pushed
    }

    /// Events pushed out (exact: everything past capacity).
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity as u64)
    }

    /// Copy out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().copied().collect()
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().expect("trace ring lock")
    }
}

// ---------------------------------------------------------------------------
// Contexts, handles, guards
// ---------------------------------------------------------------------------

/// Private per-token accumulation state. Spans buffer here while the token
/// is in flight; the last [`TraceHandle`] clone to drop makes the
/// tail-sampling decision and either flushes everything into the tracer's
/// ring or discards it.
struct TraceContext {
    trace_id: u64,
    sampled_in: bool,
    start_ns: u64,
    next_span: AtomicU32,
    spans: Mutex<Vec<TraceEvent>>,
    tracer: Arc<Tracer>,
}

impl TraceContext {
    fn alloc_span(&self) -> u32 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, ev: TraceEvent) {
        self.spans.lock().expect("trace spans lock").push(ev);
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        let end = now_ns();
        let dur = end.saturating_sub(self.start_ns);
        let slow = self.tracer.slow_ns > 0 && dur >= self.tracer.slow_ns;
        if !(self.sampled_in || slow) {
            self.tracer.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let spans = self.spans.get_mut().expect("trace spans lock");
        let root = TraceEvent {
            trace_id: self.trace_id,
            span_id: ROOT_SPAN,
            parent_id: NO_PARENT,
            kind: SpanKind::Token,
            thread: thread_tag(),
            start_ns: self.start_ns,
            dur_ns: dur,
            arg_a: u64::from(slow),
            arg_b: spans.len() as u64,
        };
        let tree = std::iter::once(root).chain(spans.drain(..));
        self.tracer.ring.push_all(tree);
        self.tracer.retained.fetch_add(1, Ordering::Relaxed);
        if slow && !self.sampled_in {
            self.tracer.slow_retained.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Cloneable per-token trace handle, carried inside the update descriptor
/// through every queue and task that touches the token. An inert handle
/// ([`TraceHandle::none`], the `tracing: Off` path) is a single `None`
/// check everywhere — no clock reads, no allocation.
#[derive(Clone, Default)]
pub struct TraceHandle {
    ctx: Option<Arc<TraceContext>>,
}

impl TraceHandle {
    /// The inert handle (tracing off / token not traced).
    pub fn none() -> TraceHandle {
        TraceHandle { ctx: None }
    }

    /// Is this token being traced?
    #[inline]
    pub fn is_active(&self) -> bool {
        self.ctx.is_some()
    }

    /// Trace id, if traced.
    pub fn trace_id(&self) -> Option<u64> {
        self.ctx.as_ref().map(|c| c.trace_id)
    }

    /// Capture time (ns since trace epoch), if traced.
    pub fn start_ns(&self) -> Option<u64> {
        self.ctx.as_ref().map(|c| c.start_ns)
    }

    /// Open a child span under `parent` (use [`ROOT_SPAN`] for top-level
    /// spans). The span records itself when the guard drops.
    #[inline]
    pub fn span(&self, kind: SpanKind, parent: u32) -> SpanGuard {
        match &self.ctx {
            None => SpanGuard::inert(),
            Some(ctx) => SpanGuard {
                id: ctx.alloc_span(),
                ctx: Some(ctx.clone()),
                parent,
                kind,
                start_ns: now_ns(),
                arg_a: 0,
                arg_b: 0,
            },
        }
    }

    /// Record an already-measured span (e.g. queue wait, whose start was
    /// stamped by another thread). Returns the span id ([`ROOT_SPAN`] when
    /// inert).
    pub fn record_complete(
        &self,
        kind: SpanKind,
        parent: u32,
        start_ns: u64,
        dur_ns: u64,
        arg_a: u64,
        arg_b: u64,
    ) -> u32 {
        let Some(ctx) = &self.ctx else {
            return ROOT_SPAN;
        };
        let id = ctx.alloc_span();
        ctx.record(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: id,
            parent_id: parent,
            kind,
            thread: thread_tag(),
            start_ns,
            dur_ns,
            arg_a,
            arg_b,
        });
        id
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.trace_id() {
            Some(id) => write!(f, "TraceHandle({id})"),
            None => write!(f, "TraceHandle(-)"),
        }
    }
}

/// RAII span: records one [`TraceEvent`] when dropped. Inert guards (from
/// an inert handle) do nothing and never read the clock.
pub struct SpanGuard {
    ctx: Option<Arc<TraceContext>>,
    id: u32,
    parent: u32,
    kind: SpanKind,
    start_ns: u64,
    arg_a: u64,
    arg_b: u64,
}

impl SpanGuard {
    /// A guard that records nothing.
    pub fn inert() -> SpanGuard {
        SpanGuard {
            ctx: None,
            id: ROOT_SPAN,
            parent: NO_PARENT,
            kind: SpanKind::Token,
            start_ns: 0,
            arg_a: 0,
            arg_b: 0,
        }
    }

    /// Will this guard record a span?
    #[inline]
    pub fn is_active(&self) -> bool {
        self.ctx.is_some()
    }

    /// This span's id — pass as `parent` to child spans / tasks
    /// ([`ROOT_SPAN`] when inert).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Set both kind-specific args.
    pub fn set_args(&mut self, a: u64, b: u64) {
        self.arg_a = a;
        self.arg_b = b;
    }

    /// Record an already-measured child span of this one (used for
    /// aggregated leaves like rest-of-predicate testing).
    pub fn child_complete(
        &self,
        kind: SpanKind,
        start_ns: u64,
        dur_ns: u64,
        arg_a: u64,
        arg_b: u64,
    ) {
        let Some(ctx) = &self.ctx else { return };
        let id = ctx.alloc_span();
        ctx.record(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: id,
            parent_id: self.id,
            kind,
            thread: thread_tag(),
            start_ns,
            dur_ns,
            arg_a,
            arg_b,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(ctx) = &self.ctx {
            let end = now_ns();
            ctx.record(TraceEvent {
                trace_id: ctx.trace_id,
                span_id: self.id,
                parent_id: self.parent,
                kind: self.kind,
                thread: thread_tag(),
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                arg_a: self.arg_a,
                arg_b: self.arg_b,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Aggregate tracer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerStats {
    /// Tokens that got a live trace handle.
    pub started: u64,
    /// Tokens whose spans were flushed to the ring.
    pub retained: u64,
    /// Tokens discarded by sampling.
    pub discarded: u64,
    /// Tokens retained *only* because they crossed the slow threshold.
    pub slow_retained: u64,
    /// Events ever flushed to the ring.
    pub events_logged: u64,
    /// Events lost to ring overwrite.
    pub events_dropped: u64,
}

/// Factory for per-token trace handles plus the flight-recorder ring the
/// retained spans land in.
pub struct Tracer {
    ring: TraceRing,
    sample_every: u64,
    slow_ns: u64,
    next_trace_id: AtomicU64,
    next_foreign_span: AtomicU32,
    sample_clock: AtomicU64,
    started: AtomicU64,
    retained: AtomicU64,
    discarded: AtomicU64,
    slow_retained: AtomicU64,
}

impl Tracer {
    /// `capacity_events`: ring size. `sample_every`: keep 1 in N tokens
    /// (0 or 1 keeps every token). `slow`: end-to-end latency at or above
    /// which a token is retained regardless of sampling (zero disables the
    /// rule).
    pub fn new(capacity_events: usize, sample_every: u64, slow: Duration) -> Tracer {
        Tracer {
            ring: TraceRing::new(capacity_events),
            sample_every: sample_every.max(1),
            slow_ns: slow.as_nanos() as u64,
            next_trace_id: AtomicU64::new(1),
            next_foreign_span: AtomicU32::new(1),
            sample_clock: AtomicU64::new(0),
            started: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            slow_retained: AtomicU64::new(0),
        }
    }

    /// Begin tracing one token. The handle travels with the token; spans
    /// accumulate until the last clone drops, then the tail-sampling
    /// decision flushes or discards them.
    pub fn begin(self: &Arc<Tracer>) -> TraceHandle {
        self.begin_with_id(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Begin tracing a token whose trace id was assigned by a *peer*
    /// process and propagated over the wire. The id is adopted verbatim
    /// (peers use a disjoint id space: wire clients set the high bit,
    /// locally begun traces count up from 1), so spans recorded here and
    /// spans pushed by the peer assemble into one tree. Sampling is the
    /// same tail-based policy as [`begin`](Self::begin).
    pub fn begin_with_id(self: &Arc<Tracer>, trace_id: u64) -> TraceHandle {
        self.started.fetch_add(1, Ordering::Relaxed);
        let n = self.sample_clock.fetch_add(1, Ordering::Relaxed);
        TraceHandle {
            ctx: Some(Arc::new(TraceContext {
                trace_id,
                sampled_in: n.is_multiple_of(self.sample_every),
                start_ns: now_ns(),
                next_span: AtomicU32::new(ROOT_SPAN + 1),
                spans: Mutex::new(Vec::with_capacity(8)),
                tracer: self.clone(),
            })),
        }
    }

    /// Push one already-complete event straight into the ring, bypassing
    /// any per-token context. For spans that finish *after* their token's
    /// trace was finalized (e.g. a wire subscriber's ack closing the
    /// delivery span): the event lands next to the already-flushed tree
    /// with the same trace id. Use span ids from
    /// [`foreign_span_id`](Self::foreign_span_id) so they cannot collide
    /// with context-allocated ids.
    pub fn push_foreign(&self, ev: &TraceEvent) {
        self.ring.push(ev);
    }

    /// Allocate a span id from the foreign (high) range, disjoint from the
    /// per-context low range, for [`push_foreign`](Self::push_foreign).
    pub fn foreign_span_id(&self) -> u32 {
        0x8000_0000 | (self.next_foreign_span.fetch_add(1, Ordering::Relaxed) & 0x7fff_ffff)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            started: self.started.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            slow_retained: self.slow_retained.load(Ordering::Relaxed),
            events_logged: self.ring.pushed(),
            events_dropped: self.ring.dropped(),
        }
    }

    /// Raw retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.snapshot()
    }

    /// Assemble the retained events into per-token trees.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot::assemble(self.ring.snapshot(), self.stats())
    }

    /// Chrome trace-event JSON of everything currently retained.
    pub fn render_chrome_trace(&self) -> String {
        render_chrome_trace(&self.ring.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Snapshot & rendering
// ---------------------------------------------------------------------------

/// Typed view of the flight recorder: complete per-token span trees plus
/// tracer counters.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Traces oldest-first (by root start time).
    pub traces: Vec<TraceTree>,
    /// Tracer counters at snapshot time.
    pub stats: TracerStats,
}

impl TraceSnapshot {
    fn assemble(events: Vec<TraceEvent>, stats: TracerStats) -> TraceSnapshot {
        let mut order: Vec<u64> = Vec::new();
        let mut by_trace: std::collections::HashMap<u64, Vec<TraceEvent>> =
            std::collections::HashMap::new();
        for ev in events {
            let bucket = by_trace.entry(ev.trace_id).or_default();
            if bucket.is_empty() {
                order.push(ev.trace_id);
            }
            bucket.push(ev);
        }
        let mut traces: Vec<TraceTree> = order
            .into_iter()
            .map(|id| {
                let mut events = by_trace.remove(&id).unwrap_or_default();
                events.sort_by_key(|e| (e.start_ns, e.span_id));
                TraceTree {
                    trace_id: id,
                    events,
                }
            })
            .collect();
        traces.sort_by_key(|t| t.root().map(|r| r.start_ns).unwrap_or(u64::MAX));
        TraceSnapshot { traces, stats }
    }

    /// Trace with the given id, if retained.
    pub fn trace(&self, trace_id: u64) -> Option<&TraceTree> {
        self.traces.iter().find(|t| t.trace_id == trace_id)
    }
}

/// One token's spans, reassembled.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The token's trace id.
    pub trace_id: u64,
    /// All spans of the trace, sorted by start time.
    pub events: Vec<TraceEvent>,
}

impl TraceTree {
    /// The root ([`SpanKind::Token`]) span, if it survived in the ring.
    pub fn root(&self) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.span_id == ROOT_SPAN)
    }

    /// Span by id.
    pub fn span(&self, id: u32) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.span_id == id)
    }

    /// End-to-end duration (root span duration, else max child extent).
    pub fn duration_ns(&self) -> u64 {
        match self.root() {
            Some(r) => r.dur_ns,
            None => {
                let start = self.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
                self.events
                    .iter()
                    .map(|e| e.start_ns + e.dur_ns)
                    .max()
                    .unwrap_or(0)
                    .saturating_sub(start)
            }
        }
    }

    /// Indented span tree with durations, for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let slow = self.root().map(|r| r.arg_a != 0).unwrap_or(false);
        out.push_str(&format!(
            "trace {}  ({}, {} spans{})\n",
            self.trace_id,
            human_ns(self.duration_ns()),
            self.events.len(),
            if slow { ", slow" } else { "" }
        ));
        // parent -> children, in start order (events are pre-sorted).
        let ids: std::collections::HashSet<u32> = self.events.iter().map(|e| e.span_id).collect();
        let mut roots: Vec<&TraceEvent> = Vec::new();
        let mut children: std::collections::HashMap<u32, Vec<&TraceEvent>> =
            std::collections::HashMap::new();
        for ev in &self.events {
            if ev.span_id != ROOT_SPAN && ids.contains(&ev.parent_id) {
                children.entry(ev.parent_id).or_default().push(ev);
            } else {
                // The root, plus orphans whose parent was overwritten.
                roots.push(ev);
            }
        }
        let mut stack: Vec<(&TraceEvent, usize)> = Vec::new();
        for r in roots.iter().rev() {
            stack.push((r, 1));
        }
        while let Some((ev, depth)) = stack.pop() {
            out.push_str(&format!(
                "{}{:<12} {:>9}  tid={}{}\n",
                "  ".repeat(depth),
                ev.kind.name(),
                human_ns(ev.dur_ns),
                ev.thread,
                kind_args(ev),
            ));
            if let Some(kids) = children.get(&ev.span_id) {
                for k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
        out
    }
}

fn kind_args(ev: &TraceEvent) -> String {
    match ev.kind {
        SpanKind::SigProbe => format!(
            "  [sig={} part={}/{}]",
            ev.arg_a,
            ev.arg_b >> 32,
            ev.arg_b & 0xffff_ffff
        ),
        SpanKind::RestTest => format!("  [tests={}]", ev.arg_b),
        SpanKind::CachePin => format!(
            "  [trigger={} {}]",
            ev.arg_a,
            if ev.arg_b != 0 { "hit" } else { "miss" }
        ),
        SpanKind::Fanout => format!("  [sig={} parts={}]", ev.arg_a, ev.arg_b),
        SpanKind::Action => format!("  [trigger={}]", ev.arg_a),
        SpanKind::Notify => format!("  [subscribers={}]", ev.arg_b),
        SpanKind::Wire => format!("  [tokens={} conns={}]", ev.arg_a, ev.arg_b),
        SpanKind::WireSend => format!("  [batch_tokens={}]", ev.arg_a),
        SpanKind::WireDeliver => format!("  [seq={}]", ev.arg_a),
        SpanKind::WireAck => format!("  [seq={}]", ev.arg_a),
        _ => String::new(),
    }
}

/// `1234` → `1.23µs`-style humanized nanoseconds.
pub fn human_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export + serde-free validation
// ---------------------------------------------------------------------------

/// Render events as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object form), loadable in Perfetto / `chrome://tracing`. Complete
/// (`"ph":"X"`) events; `pid` is the trace id so Perfetto groups one
/// token's spans together, `tid` is the recording thread's [`thread_tag`].
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"tman\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":{},\"span\":{},\"parent\":{},\
             \"arg_a\":{},\"arg_b\":{}}}}}",
            ev.kind.name(),
            ev.start_ns as f64 / 1_000.0,
            ev.dur_ns as f64 / 1_000.0,
            ev.trace_id,
            ev.thread,
            ev.trace_id,
            ev.span_id,
            ev.parent_id as i64,
            ev.arg_a,
            ev.arg_b,
        ));
    }
    out.push_str("]}");
    out
}

/// Structural validation of Chrome trace-event JSON without serde: parses
/// the JSON with a minimal recursive-descent parser and checks that the
/// root object has a `traceEvents` array whose elements are objects with a
/// string `name`/`ph` and numeric `ts`/`dur`/`pid`/`tid`. Returns the
/// event count. Used by the CI smoke step (`tracecheck`).
pub fn validate_chrome_trace(input: &str) -> Result<usize, String> {
    validate_chrome_trace_names(input).map(|(n, _)| n)
}

/// [`validate_chrome_trace`], additionally returning the sorted, deduped
/// span names seen in the file. Lets `tracecheck` assert that specific
/// span kinds (e.g. `wire_send`) made it into an exported trace, not just
/// that the JSON is well-formed.
pub fn validate_chrome_trace_names(input: &str) -> Result<(usize, Vec<String>), String> {
    let mut p = Json {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    let JsonValue::Object(fields) = root else {
        return Err("root is not an object".into());
    };
    let Some(JsonValue::Array(events)) = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
    else {
        return Err("missing traceEvents array".into());
    };
    let mut names: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let JsonValue::Object(f) = ev else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let get = |k: &str| f.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        match get("name") {
            Some(JsonValue::String(name)) => names.push(name.clone()),
            _ => return Err(format!("traceEvents[{i}]: missing string name")),
        }
        match get("ph") {
            Some(JsonValue::String(ph)) if ph == "X" => {}
            _ => return Err(format!("traceEvents[{i}]: ph is not \"X\"")),
        }
        for k in ["ts", "dur", "pid", "tid"] {
            match get(k) {
                Some(JsonValue::Number) => {}
                _ => return Err(format!("traceEvents[{i}]: missing numeric {k}")),
            }
        }
    }
    let count = names.len();
    names.sort();
    names.dedup();
    Ok((count, names))
}

enum JsonValue {
    Null,
    Bool,
    Number,
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Json<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.lit("true", JsonValue::Bool),
            b'f' => self.lit("false", JsonValue::Bool),
            b'n' => self.lit("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at offset {}", c as char, self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // UTF-8 continuation bytes pass through unchanged.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    if c >= 0x80 {
                        while self
                            .bytes
                            .get(end)
                            .map(|b| b & 0xc0 == 0x80)
                            .unwrap_or(false)
                        {
                            end += 1;
                        }
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid utf-8 in string")?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(|_| JsonValue::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, span: u32, parent: u32, kind: SpanKind) -> TraceEvent {
        TraceEvent {
            trace_id: trace,
            span_id: span,
            parent_id: parent,
            kind,
            thread: 0,
            start_ns: 10 * u64::from(span),
            dur_ns: 5,
            arg_a: 1,
            arg_b: 2,
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops_exactly() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.push(&ev(i, 1, ROOT_SPAN, SpanKind::Process));
        }
        assert_eq!(ring.pushed(), 20);
        assert_eq!(ring.dropped(), 12);
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.trace_id).collect();
        assert_eq!(got, (12..20).collect::<Vec<_>>());
        // A ring that never filled drops nothing.
        let small = TraceRing::new(64);
        small.push(&ev(1, 1, ROOT_SPAN, SpanKind::Process));
        assert_eq!(small.dropped(), 0);
        assert_eq!(small.snapshot().len(), 1);
    }

    #[test]
    fn ring_concurrent_writers_never_yield_torn_events() {
        use std::thread;
        // Small ring + heavy lapping: each writer thread stamps every word
        // of its events with a thread-unique pattern; any cross-thread mix
        // within one decoded event is a torn write.
        let ring = Arc::new(TraceRing::new(64));
        let writers = 4;
        let per_thread = 20_000u64;
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ring = ring.clone();
                let stop = stop.clone();
                thread::spawn(move || {
                    let mut seen = 0usize;
                    while stop.load(Ordering::Acquire) == 0 {
                        for e in ring.snapshot() {
                            // Writer w emits trace_id=w and all args = w.
                            assert_eq!(e.arg_a, e.trace_id, "torn event: {e:?}");
                            assert_eq!(e.arg_b, e.trace_id, "torn event: {e:?}");
                            assert_eq!(u64::from(e.thread), e.trace_id, "torn event: {e:?}");
                            assert_eq!(e.start_ns, e.trace_id * 1_000_003, "torn event: {e:?}");
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let ring = ring.clone();
                thread::spawn(move || {
                    let w = w as u64;
                    for _ in 0..per_thread {
                        ring.push(&TraceEvent {
                            trace_id: w,
                            span_id: 1,
                            parent_id: ROOT_SPAN,
                            kind: SpanKind::SigProbe,
                            thread: w as u32,
                            start_ns: w * 1_000_003,
                            dur_ns: w,
                            arg_a: w,
                            arg_b: w,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(1, Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never observed events");
        }
        assert_eq!(ring.pushed(), writers as u64 * per_thread);
        assert_eq!(ring.dropped(), writers as u64 * per_thread - 64);
        // Final quiescent snapshot: full, all untorn.
        let finals = ring.snapshot();
        assert_eq!(finals.len(), 64);
        for e in finals {
            assert_eq!(e.arg_a, e.trace_id);
        }
    }

    #[test]
    fn tail_sampling_keeps_one_in_n() {
        let tracer = Arc::new(Tracer::new(4096, 10, Duration::ZERO));
        for _ in 0..100 {
            let h = tracer.begin();
            drop(h.span(SpanKind::Process, ROOT_SPAN));
            drop(h);
        }
        let s = tracer.stats();
        assert_eq!(s.started, 100);
        assert_eq!(s.retained, 10);
        assert_eq!(s.discarded, 90);
        assert_eq!(s.slow_retained, 0);
        // Each retained trace = root + 1 span.
        assert_eq!(s.events_logged, 20);
    }

    #[test]
    fn slow_token_force_retention_survives_1_in_1000_sampling() {
        // Sampling keeps only the first token (n=0); the slow rule must
        // keep the artificially slow later token too.
        let tracer = Arc::new(Tracer::new(4096, 1000, Duration::from_millis(50)));
        drop(tracer.begin()); // sampled in
        for _ in 0..5 {
            drop(tracer.begin()); // sampled out, fast -> discarded
        }
        let slow = tracer.begin(); // sampled out (n=6)
        let slow_id = slow.trace_id().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        drop(slow);
        let s = tracer.stats();
        assert_eq!(s.started, 7);
        assert_eq!(s.retained, 2);
        assert_eq!(s.slow_retained, 1);
        let snap = tracer.snapshot();
        let tree = snap.trace(slow_id).expect("slow trace retained");
        assert_eq!(tree.root().unwrap().arg_a, 1, "root carries the slow flag");
        assert!(tree.duration_ns() >= 50_000_000);
    }

    #[test]
    fn span_tree_assembles_with_cross_thread_parents() {
        let tracer = Arc::new(Tracer::new(4096, 1, Duration::ZERO));
        let h = tracer.begin();
        let id = h.trace_id().unwrap();
        let parent_id;
        {
            let mut proc = h.span(SpanKind::Process, ROOT_SPAN);
            proc.set_args(0, 0);
            parent_id = proc.id();
            let probe = h.span(SpanKind::SigProbe, proc.id());
            probe.child_complete(SpanKind::RestTest, now_ns(), 5, 0, 3);
        }
        // Simulate a task finishing on another thread.
        let h2 = h.clone();
        std::thread::spawn(move || {
            let mut a = h2.span(SpanKind::Action, parent_id);
            a.set_args(7, 0);
        })
        .join()
        .unwrap();
        drop(h);
        let snap = tracer.snapshot();
        let tree = snap.trace(id).expect("retained");
        assert!(tree.root().is_some());
        let action = tree
            .events
            .iter()
            .find(|e| e.kind == SpanKind::Action)
            .unwrap();
        assert_eq!(action.parent_id, parent_id);
        let rest = tree
            .events
            .iter()
            .find(|e| e.kind == SpanKind::RestTest)
            .unwrap();
        assert_eq!(rest.arg_b, 3);
        // Every non-root span's parent resolves inside the tree.
        for e in &tree.events {
            if e.span_id != ROOT_SPAN {
                assert!(tree.span(e.parent_id).is_some(), "orphan span {e:?}");
            }
        }
        let rendered = tree.render();
        assert!(rendered.contains("sig_probe"));
        assert!(rendered.contains("action"));
        assert!(rendered.contains("[tests=3]"));
    }

    #[test]
    fn adopted_trace_ids_and_foreign_events_assemble_into_one_tree() {
        let tracer = Arc::new(Tracer::new(4096, 1, Duration::ZERO));
        let wire_id = (1u64 << 63) | 42; // peer-assigned (high-bit) id
        let h = tracer.begin_with_id(wire_id);
        assert_eq!(h.trace_id(), Some(wire_id));
        h.record_complete(SpanKind::WireSend, ROOT_SPAN, now_ns(), 10, 1, 0);
        drop(h.span(SpanKind::Process, ROOT_SPAN));
        drop(h);
        // The subscriber's ack arrives after the trace finalized: a
        // foreign event with the same trace id joins the same tree.
        let fid = tracer.foreign_span_id();
        assert!(fid & 0x8000_0000 != 0, "foreign ids use the high range");
        tracer.push_foreign(&TraceEvent {
            trace_id: wire_id,
            span_id: fid,
            parent_id: ROOT_SPAN,
            kind: SpanKind::WireAck,
            thread: thread_tag(),
            start_ns: now_ns(),
            dur_ns: 7,
            arg_a: 3,
            arg_b: 0,
        });
        let snap = tracer.snapshot();
        let tree = snap.trace(wire_id).expect("adopted trace retained");
        assert!(tree.root().is_some());
        let kinds: Vec<SpanKind> = tree.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&SpanKind::WireSend));
        assert!(kinds.contains(&SpanKind::WireAck));
        let rendered = tree.render();
        assert!(rendered.contains("wire_send") && rendered.contains("wire_ack"));
    }

    #[test]
    fn inert_handles_and_guards_do_nothing() {
        let h = TraceHandle::none();
        assert!(!h.is_active());
        assert_eq!(h.trace_id(), None);
        let g = h.span(SpanKind::Process, ROOT_SPAN);
        assert!(!g.is_active());
        assert_eq!(g.id(), ROOT_SPAN);
        assert_eq!(
            h.record_complete(SpanKind::QueueWait, ROOT_SPAN, 0, 0, 0, 0),
            ROOT_SPAN
        );
        g.child_complete(SpanKind::RestTest, 0, 0, 0, 0);
        assert_eq!(format!("{h:?}"), "TraceHandle(-)");
    }

    #[test]
    fn chrome_trace_renders_and_validates() {
        let events = vec![
            ev(1, 0, NO_PARENT, SpanKind::Token),
            ev(1, 1, 0, SpanKind::QueueWait),
            ev(1, 2, 0, SpanKind::SigProbe),
        ];
        let json = render_chrome_trace(&events);
        assert_eq!(validate_chrome_trace(&json), Ok(3));
        // The name-collecting variant reports sorted, deduped span names.
        let (n, names) = validate_chrome_trace_names(&json).unwrap();
        assert_eq!(n, 3);
        assert_eq!(names, vec!["queue_wait", "sig_probe", "token"]);
        // Empty export is still valid.
        assert_eq!(validate_chrome_trace(&render_chrome_trace(&[])), Ok(0));
        // Structural failures are detected.
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":1}]}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\"}]}").is_err()
        );
    }

    #[test]
    fn json_parser_handles_strings_numbers_nesting() {
        let ok = r#"{"traceEvents":[],"meta":{"a":[1,-2.5,3e2,true,false,null,"A\n✓"]}}"#;
        assert_eq!(validate_chrome_trace(ok), Ok(0));
        assert!(validate_chrome_trace(r#"{"traceEvents":[]} trailing"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":["#).is_err());
    }

    #[test]
    fn human_ns_formats() {
        assert_eq!(human_ns(999), "999ns");
        assert_eq!(human_ns(1_500), "1.50µs");
        assert_eq!(human_ns(2_500_000), "2.50ms");
        assert_eq!(human_ns(3_000_000_000), "3.00s");
    }
}
