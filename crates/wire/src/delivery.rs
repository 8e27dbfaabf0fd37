//! Durable subscriber delivery: the server side of the end-to-end
//! watermark/ack protocol.
//!
//! The engine's update queue already gives *token* processing an
//! at-least-once contract (PR 5): un-acked tokens are re-processed after a
//! crash. That re-processing re-runs rule actions, which re-publishes
//! their notifications — so a naive delivery tier would double-deliver
//! every fire in the redelivery window. The [`DeliveryHub`] closes that
//! window and extends the watermark protocol out to remote subscribers:
//!
//! * It registers as a synchronous [`NotificationSink`] on the engine's
//!   [`EventBus`](triggerman::EventBus), so every notification is appended
//!   to a durable *delivery log* (`wire_delivery_log`) **before** the token
//!   that produced it can be acknowledged back to the update queue.
//! * Each subscriber owns a row in `wire_subscriber` holding its durable
//!   ack **watermark** (highest fully-processed per-subscriber sequence
//!   number). Acks advance the row *first*, then retire the covered log
//!   rows — the same advance-then-delete ordering the queue uses, so a
//!   crash leaves a duplicate row behind the watermark, never a lost one.
//! * An acked log row whose token origin might still be **redelivered**
//!   by the update queue (origin above the queue's processed watermark) is
//!   *retained* in the log rather than deleted: the retained rows are the
//!   durable record of how many of that origin's fires were already
//!   delivered and acked. [`DeliveryHub::gc`] deletes them once the queue
//!   watermark passes the origin — at which point the queue can never
//!   redeliver it.
//! * When a crashed engine re-processes a token, the re-published
//!   notifications are deduplicated by position: for each origin the first
//!   `acked + recovered` re-publishes are suppressed (`acked` rows were
//!   delivered and acked before the crash; `recovered` rows are resident
//!   and will be replayed from the log). Anything beyond that count is a
//!   fire that never reached the log — it is appended and delivered. An
//!   origin is therefore never suppressed wholesale: an ack that lands
//!   between a token's fires, or that covers only a prefix of an origin
//!   before a crash, suppresses exactly the covered fires and no more.
//! * A subscriber reconnecting after a crash presents its own watermark
//!   (`resume_from`), which is applied as an implicit ack — clamped to the
//!   highest sequence number the server ever assigned, so stale client
//!   state can neither wedge the stream nor wrap the durable row. The hub
//!   then replays every resident log row above the effective watermark in
//!   sequence order. The subscriber therefore receives every fire above
//!   its watermark exactly once.
//!
//! A subscriber whose live mailbox backlog exceeds
//! [`MAILBOX_STALL_DEPTH`] is treated as stalled: the mailbox is dropped
//! (bounding server memory) and the wire server closes the connection, so
//! the client reconnects and catches up from the durable log — the same
//! path a crashed subscriber takes.
//!
//! Sequence numbers are reproducible across crash incarnations because
//! per-subscriber appends are origin-ordered (tokens are processed in qid
//! order on the redelivery path) and a token's action order is
//! deterministic — which is what makes a client-side watermark meaningful
//! against a recovered server. Durability granularity is the engine
//! checkpoint, shared with the update queue in one buffer pool.
//!
//! Two ordering hazards shape the contract: (1) a token's queue ack must
//! never become durable before the delivery-log append that preceded it,
//! or the queue never redelivers and the fire is lost. The storage-layer
//! write-ahead log closes this by construction — dirty pages become redo
//! records whose durability is atomic at commit boundaries, and the page
//! file is only written at checkpoint from already-durable records — so a
//! crash either keeps both the ack and the append or neither (pinned by
//! `wal_closes_ack_before_append_gap`, the once-failing
//! `wire_crash_reconnect_full` case 12). (2) With `Config::async_actions`
//! the engine may ack a token to the queue before its detached actions
//! publish; the delivery tier then inherits that weaker contract, exactly
//! as in-process subscribers do — this one is still open.

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use tman_common::fxhash::FxHashMap;
use tman_common::hex::{hex_decode, hex_encode};
use tman_common::stats::Counter;
use tman_common::{Column, DataType, Result, Schema, TmanError, Value};
use tman_sql::{Database, Table};
use tman_storage::RecordId;
use tman_telemetry::trace::{now_ns, thread_tag, unix_now_ns, ROOT_SPAN};
use tman_telemetry::{GaugeHandle, HistogramHandle, Registry, SpanKind, TraceEvent, Tracer};
use triggerman::{EventNotification, NotificationSink};

use crate::frame::encode_notification_body;

/// Durable subscriber registry: `(name, event, watermark)`.
pub const SUBSCRIBER_TABLE: &str = "wire_subscriber";
/// Durable delivery log: `(sub, seq, origin, body)`.
pub const DELIVERY_LOG_TABLE: &str = "wire_delivery_log";

/// Live-mailbox backlog past which a subscriber is considered stalled:
/// the mailbox is dropped (deliveries stay durable in the log) and the
/// connection is closed so the client reconnects and replays. Mirrors the
/// in-process [`SLOW_CHANNEL_DEPTH`](triggerman::events::SLOW_CHANNEL_DEPTH)
/// policy: unbounded channels made bounded by convention.
pub const MAILBOX_STALL_DEPTH: usize = 16_384;

/// One undelivered (or unacked) log row held resident for replay.
struct LogRow {
    /// Token origin qid (`-1` for volatile/untracked tokens).
    origin: i64,
    /// Record id of the durable row (for deletion on ack/gc).
    rid: RecordId,
    /// Encoded notification body (see
    /// [`encode_notification_body`](crate::frame::encode_notification_body)).
    body: Vec<u8>,
    /// Originating token's trace id (0 = untraced, and always 0 for rows
    /// recovered from the durable log — trace context is process-local and
    /// does not survive a restart).
    trace_id: u64,
    /// Wall clock at append, carried to v2 subscribers on the
    /// `Notification` frame (0 for recovered rows).
    fire_unix_ns: u64,
    /// Monotonic stamp at append for the fire→ack latency SLI (0 for
    /// recovered rows, which skip the SLI — their fire predates this
    /// process).
    fire_mono_ns: u64,
}

/// One delivery handed to the wire server (live mailbox or
/// [`Registration::replay`]): the per-subscriber sequence number, the
/// encoded body, and the v2 trace context (`trace_id` / `fire_unix_ns`
/// are 0 when the token was untraced or the row was recovered from the
/// durable log).
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Per-subscriber sequence number.
    pub seq: u64,
    /// Encoded notification body.
    pub body: Vec<u8>,
    /// Originating token's trace id (0 = untraced).
    pub trace_id: u64,
    /// Wall clock at delivery-log append (0 = unknown).
    pub fire_unix_ns: u64,
}

/// Wire-observability bindings, installed once by the server at startup
/// ([`DeliveryHub::bind_instruments`]). The hub's own counters exist from
/// `open` so the unit-testable core never needs a registry; the SLI
/// histograms, per-subscriber lag gauges, and trace ring only exist when
/// a server fronts the hub.
struct WireObs {
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    /// `tman_wire_ingest_to_fire_ns`: source-side ingest stamp → delivery-
    /// log append, recorded once per published notification that carries a
    /// v2 ingest stamp.
    ingest_to_fire: HistogramHandle,
    /// `tman_wire_fire_to_ack_ns`: delivery-log append → durable
    /// subscriber ack, recorded per acked resident row.
    fire_to_ack: HistogramHandle,
}

/// Acked-but-retained log rows of one origin: the durable proof of how
/// many of that origin's fires were already delivered and acked, kept
/// until the queue watermark retires the origin (it can then never be
/// redelivered, so the proof is no longer needed).
#[derive(Default)]
struct AckedOrigin {
    /// Number of acked fires of this origin (suppression prefix length).
    count: u32,
    /// Record ids of the retained rows, deleted by [`DeliveryHub::gc`].
    rids: Vec<RecordId>,
}

/// Per-subscriber delivery state. Resident rows are bounded by how far the
/// subscriber's acks lag its deliveries — the same back-of-queue bound the
/// update queue's in-flight map has. Per-origin maps (`acked`,
/// `recovered`, `replayed`) are bounded by the queue's redelivery window:
/// [`DeliveryHub::gc`] prunes every entry at or below the queue's
/// processed watermark.
struct SubState {
    /// Event filter, lowercased; empty or `"*"` matches every event.
    event: String,
    /// Highest per-subscriber sequence number durably acked.
    watermark: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Record id of this subscriber's `wire_subscriber` row.
    row_rid: RecordId,
    /// Unacked log rows by sequence number, ready for replay.
    resident: BTreeMap<u64, LogRow>,
    /// Acked rows retained per origin until the origin is retired.
    acked: FxHashMap<i64, AckedOrigin>,
    /// Unacked log rows per origin found durable at open — re-publishes of
    /// that origin skip these after the acked prefix (they are already in
    /// `resident` and replay from there).
    recovered: FxHashMap<i64, u32>,
    /// Publishes observed per origin in this incarnation (the `j` index
    /// the acked/recovered counts are compared against).
    replayed: FxHashMap<i64, u32>,
    /// Live outbound channel to the connected subscriber, if any. Dropped
    /// on send failure (connection gone) or when the backlog passes
    /// [`MAILBOX_STALL_DEPTH`] (subscriber stalled).
    mailbox: Option<Sender<Delivery>>,
    /// Registration epoch, bumped on every [`DeliveryHub::register`]: a
    /// detach from a stale connection (reconnect raced the old socket's
    /// EOF) must not clear the new registration's mailbox.
    epoch: u64,
    /// `tman_wire_watermark_lag{sub=…}` gauge, resolved lazily once
    /// instruments are bound.
    lag_gauge: Option<GaugeHandle>,
    /// Last lag value pushed into the gauge (gauges are delta-updated).
    lag_reported: i64,
}

impl SubState {
    fn matches(&self, event: &str) -> bool {
        self.event.is_empty() || self.event == "*" || self.event.eq_ignore_ascii_case(event)
    }

    /// Fires of `origin` already appended to the log in a *previous*
    /// incarnation: the acked prefix plus the recovered resident rows.
    /// Re-publishes up to this count are suppressed.
    fn logged_before(&self, origin: i64) -> u32 {
        self.acked.get(&origin).map(|a| a.count).unwrap_or(0)
            + self.recovered.get(&origin).copied().unwrap_or(0)
    }
}

fn normalize_event(event: &str) -> String {
    let e = event.trim().to_ascii_lowercase();
    if e == "*" {
        String::new()
    } else {
        e
    }
}

/// Result of [`DeliveryHub::register`].
pub struct Registration {
    /// Effective watermark: max of the server's durable row and the
    /// client's `resume_from` (clamped to the highest assigned sequence
    /// number). Deliveries resume strictly above it.
    pub watermark: u64,
    /// Registration epoch to pass back to [`DeliveryHub::detach`].
    pub epoch: u64,
    /// Unacked log rows above the watermark, in order — the exactly-once
    /// catch-up stream.
    pub replay: Vec<Delivery>,
}

/// The durable delivery tier. One per engine; shared between the
/// [`EventBus`](triggerman::EventBus) sink registration and the wire
/// server's subscriber connections.
pub struct DeliveryHub {
    subs_table: Arc<Table>,
    log_table: Arc<Table>,
    state: Mutex<FxHashMap<String, SubState>>,
    /// Highest queue origin known retired: the update queue has processed
    /// it, so it can never be redelivered and its retained rows / dedup
    /// state can be reclaimed. Advanced by [`DeliveryHub::gc`].
    retired_floor: AtomicI64,
    /// `tman_wire_delivery_appends_total`: log rows written.
    appends: Arc<Counter>,
    /// `tman_wire_redelivery_suppressed_total`: re-published notifications
    /// deduplicated against the pre-crash log.
    suppressed: Arc<Counter>,
    /// `tman_wire_delivery_acked_total`: log rows retired by acks.
    acked_rows: Arc<Counter>,
    /// Log rows dropped at open (retired origins, orphaned, or corrupt).
    dedup_dropped: Arc<Counter>,
    /// `tman_wire_acks_clamped_total`: acks (including `resume_from`)
    /// above the highest assigned sequence, clamped instead of applied.
    clamped: Arc<Counter>,
    /// `tman_wire_subscriber_stalls_total`: mailboxes dropped because the
    /// subscriber stopped draining them.
    stalled: Arc<Counter>,
    /// Append/encode failures (the volatile fanout still delivers; durable
    /// replay for that notification is lost).
    errors: Arc<Counter>,
    /// SLI histograms, lag gauges, and trace ring; bound once by the wire
    /// server ([`bind_instruments`](Self::bind_instruments)), absent in
    /// bare unit-test hubs.
    wire: OnceLock<WireObs>,
}

impl DeliveryHub {
    /// Open (or create) the delivery tables in `db` and recover
    /// subscriber state. `queue_watermark` is the update queue's durable
    /// processed watermark (`None` on a volatile queue): origins at or
    /// below it can never be redelivered.
    ///
    /// Log rows at or below a subscriber's ack watermark were acked before
    /// the crash; those whose origin is still redeliverable are kept as
    /// the origin's acked prefix (suppressing exactly that many
    /// re-publishes), the rest — retired origins, untracked tokens,
    /// orphans, torn bodies — are dropped and counted. Rows above the
    /// watermark are indexed for replay and redelivery dedup.
    pub fn open(db: &Database, queue_watermark: Option<i64>) -> Result<Arc<DeliveryHub>> {
        let floor = queue_watermark.unwrap_or(-1);
        let subs_table = if db.has_table(SUBSCRIBER_TABLE) {
            db.table(SUBSCRIBER_TABLE)?
        } else {
            db.create_table(
                SUBSCRIBER_TABLE,
                Schema::new(vec![
                    Column::new("name", DataType::Varchar(255)),
                    Column::new("event", DataType::Varchar(255)),
                    Column::new("watermark", DataType::Int),
                ])?,
            )?
        };
        let log_table = if db.has_table(DELIVERY_LOG_TABLE) {
            db.table(DELIVERY_LOG_TABLE)?
        } else {
            db.create_table(
                DELIVERY_LOG_TABLE,
                Schema::new(vec![
                    Column::new("sub", DataType::Varchar(255)),
                    Column::new("seq", DataType::Int),
                    Column::new("origin", DataType::Int),
                    Column::new("body", DataType::Varchar(65535)),
                ])?,
            )?
        };
        let dedup_dropped = Arc::new(Counter::default());
        let mut subs: FxHashMap<String, SubState> = FxHashMap::default();
        subs_table.scan(|rid, row| {
            let name = row.get(0).as_str().unwrap_or("").to_string();
            if name.is_empty() {
                return Ok(true);
            }
            let watermark = row.get(2).as_i64().unwrap_or(0).max(0) as u64;
            subs.insert(
                name,
                SubState {
                    event: normalize_event(row.get(1).as_str().unwrap_or("")),
                    watermark,
                    next_seq: watermark + 1,
                    row_rid: rid,
                    resident: BTreeMap::new(),
                    acked: FxHashMap::default(),
                    recovered: FxHashMap::default(),
                    replayed: FxHashMap::default(),
                    mailbox: None,
                    epoch: 0,
                    lag_gauge: None,
                    lag_reported: 0,
                },
            );
            Ok(true)
        })?;
        let mut stale: Vec<RecordId> = Vec::new();
        log_table.scan(|rid, row| {
            let sub = row.get(0).as_str().unwrap_or("").to_string();
            let seq = row.get(1).as_i64().unwrap_or(0).max(0) as u64;
            let origin = row.get(2).as_i64().unwrap_or(-1);
            let body = row.get(3).as_str().and_then(|s| hex_decode(s).ok());
            match (subs.get_mut(&sub), body) {
                (Some(st), Some(body)) if seq > st.watermark => {
                    if origin >= 0 {
                        *st.recovered.entry(origin).or_insert(0) += 1;
                    }
                    st.resident.insert(
                        seq,
                        LogRow {
                            origin,
                            rid,
                            body,
                            trace_id: 0,
                            fire_unix_ns: 0,
                            fire_mono_ns: 0,
                        },
                    );
                }
                (Some(st), Some(_)) if origin > floor => {
                    // Acked before the crash, origin still redeliverable:
                    // retain as the origin's acked prefix.
                    let a = st.acked.entry(origin).or_default();
                    a.count += 1;
                    a.rids.push(rid);
                }
                _ => stale.push(rid),
            }
            Ok(true)
        })?;
        for rid in stale {
            log_table.delete(rid)?;
            dedup_dropped.bump();
        }
        for st in subs.values_mut() {
            if let Some((&max_seq, _)) = st.resident.iter().next_back() {
                st.next_seq = max_seq + 1;
            }
        }
        Ok(Arc::new(DeliveryHub {
            subs_table,
            log_table,
            state: Mutex::new(subs),
            retired_floor: AtomicI64::new(floor),
            appends: Arc::new(Counter::default()),
            suppressed: Arc::new(Counter::default()),
            acked_rows: Arc::new(Counter::default()),
            dedup_dropped,
            clamped: Arc::new(Counter::default()),
            stalled: Arc::new(Counter::default()),
            errors: Arc::new(Counter::default()),
            wire: OnceLock::new(),
        }))
    }

    /// Bind the hub to a metrics registry (SLI histograms, per-subscriber
    /// watermark-lag gauges) and optionally the engine's tracer (wire
    /// delivery/ack spans). Called once by
    /// [`WireServer::start`](crate::WireServer::start); later calls are
    /// no-ops, and a hub that is never bound records nothing extra.
    pub fn bind_instruments(&self, registry: &Arc<Registry>, tracer: Option<Arc<Tracer>>) {
        let _ = self.wire.set(WireObs {
            registry: registry.clone(),
            tracer,
            ingest_to_fire: registry.histogram("tman_wire_ingest_to_fire_ns", &[]),
            fire_to_ack: registry.histogram("tman_wire_fire_to_ack_ns", &[]),
        });
    }

    /// Push the subscriber's current watermark lag (assigned frontier
    /// minus durable watermark) into its `tman_wire_watermark_lag{sub=…}`
    /// gauge. Gauges are delta-updated, so the last reported value is
    /// shadowed in the sub state. No-op until instruments are bound.
    fn update_lag(wire: Option<&WireObs>, name: &str, st: &mut SubState) {
        let Some(w) = wire else { return };
        let lag = st.next_seq.saturating_sub(1).saturating_sub(st.watermark) as i64;
        let gauge = st.lag_gauge.get_or_insert_with(|| {
            w.registry
                .gauge("tman_wire_watermark_lag", &[("sub", name)])
        });
        gauge.add(lag - st.lag_reported);
        st.lag_reported = lag;
    }

    /// Register (or re-register after reconnect) a durable subscriber.
    /// `resume_from` is the client's own watermark and is applied as an
    /// implicit ack (clamped to the highest assigned sequence number), so
    /// the effective watermark is the max of both sides'. Live deliveries
    /// arrive on `mailbox`'s receiver end after the returned
    /// [`Registration::replay`] has been consumed.
    pub fn register(
        &self,
        name: &str,
        event: &str,
        resume_from: u64,
        mailbox: Sender<Delivery>,
    ) -> Result<Registration> {
        if name.trim().is_empty() {
            return Err(TmanError::Invalid("subscriber name is empty".into()));
        }
        {
            let mut state = self.state.lock();
            if !state.contains_key(name) {
                let rid = self.subs_table.insert(vec![
                    Value::str(name),
                    Value::str(event),
                    Value::Int(0),
                ])?;
                state.insert(
                    name.to_string(),
                    SubState {
                        event: normalize_event(event),
                        watermark: 0,
                        next_seq: 1,
                        row_rid: rid,
                        resident: BTreeMap::new(),
                        acked: FxHashMap::default(),
                        recovered: FxHashMap::default(),
                        replayed: FxHashMap::default(),
                        mailbox: None,
                        epoch: 0,
                        lag_gauge: None,
                        lag_reported: 0,
                    },
                );
            }
        }
        if resume_from > 0 {
            self.ack(name, resume_from)?;
        }
        let mut state = self.state.lock();
        let st = state.get_mut(name).expect("registered above");
        st.event = normalize_event(event);
        st.mailbox = Some(mailbox);
        st.epoch += 1;
        let replay: Vec<Delivery> = st
            .resident
            .iter()
            .map(|(&seq, row)| Delivery {
                seq,
                body: row.body.clone(),
                trace_id: row.trace_id,
                fire_unix_ns: row.fire_unix_ns,
            })
            .collect();
        Self::update_lag(self.wire.get(), name, st);
        Ok(Registration {
            watermark: st.watermark,
            epoch: st.epoch,
            replay,
        })
    }

    /// Drop a subscriber's live mailbox (connection closed). Durable state
    /// is untouched; deliveries keep accumulating in the log for replay at
    /// the next [`register`](Self::register). A stale `epoch` (the
    /// subscriber already re-registered) is a no-op.
    pub fn detach(&self, name: &str, epoch: u64) {
        if let Some(st) = self.state.lock().get_mut(name) {
            if st.epoch == epoch {
                st.mailbox = None;
            }
        }
    }

    /// Acknowledge every delivery with sequence number at or below
    /// `through`: advance the durable subscriber row *first*, then retire
    /// the covered log rows. `through` is clamped to the highest sequence
    /// number ever assigned (a stale or corrupt client watermark must not
    /// wedge the stream above sequences that do not exist yet). Covered
    /// rows whose origin may still be redelivered are retained in the log
    /// as that origin's acked prefix (see [`gc`](Self::gc)); the rest are
    /// deleted. Idempotent; returns the new watermark.
    pub fn ack(&self, name: &str, through: u64) -> Result<u64> {
        let mut state = self.state.lock();
        let st = state
            .get_mut(name)
            .ok_or_else(|| TmanError::NotFound(format!("unknown subscriber '{name}'")))?;
        let highest = st.next_seq.saturating_sub(1);
        let through = if through > highest {
            self.clamped.bump();
            highest
        } else {
            through
        };
        if through <= st.watermark {
            return Ok(st.watermark);
        }
        let covered: Vec<u64> = st.resident.range(..=through).map(|(&s, _)| s).collect();
        st.watermark = through;
        let (_, new_rid) = self.subs_table.update(
            st.row_rid,
            vec![
                Value::str(name),
                Value::str(st.event.clone()),
                Value::Int(st.watermark as i64),
            ],
        )?;
        st.row_rid = new_rid;
        let floor = self.retired_floor.load(Ordering::Relaxed);
        let wire = self.wire.get();
        let ack_mono = now_ns();
        for seq in covered {
            let row = st.resident.remove(&seq).expect("collected above");
            if let Some(w) = wire {
                if row.fire_mono_ns != 0 {
                    let dur = ack_mono.saturating_sub(row.fire_mono_ns);
                    w.fire_to_ack.record(dur);
                    if row.trace_id != 0 {
                        if let Some(tracer) = &w.tracer {
                            // The producing token's trace context is long
                            // finalized by ack time; close the delivery
                            // span by pushing a foreign event under the
                            // same trace id.
                            tracer.push_foreign(&TraceEvent {
                                trace_id: row.trace_id,
                                span_id: tracer.foreign_span_id(),
                                parent_id: ROOT_SPAN,
                                kind: SpanKind::WireAck,
                                thread: thread_tag(),
                                start_ns: row.fire_mono_ns,
                                dur_ns: dur,
                                arg_a: seq,
                                arg_b: 0,
                            });
                        }
                    }
                }
            }
            if row.origin > floor {
                // The origin can still be redelivered: keep the row as
                // durable proof this fire was already delivered and acked.
                let a = st.acked.entry(row.origin).or_default();
                a.count += 1;
                a.rids.push(row.rid);
            } else {
                self.log_table.delete(row.rid)?;
            }
            self.acked_rows.bump();
        }
        Self::update_lag(wire, name, st);
        Ok(st.watermark)
    }

    /// Reclaim state for retired origins: every origin at or below
    /// `queue_watermark` has been fully processed by the update queue and
    /// can never be redelivered, so its retained acked rows are deleted
    /// and its dedup counters (`acked`/`recovered`/`replayed`) pruned.
    /// Called periodically by the wire server; bounds both the log and the
    /// per-origin maps on a long-running server. Returns the number of
    /// log rows deleted.
    pub fn gc(&self, queue_watermark: Option<i64>) -> usize {
        let Some(wm) = queue_watermark else {
            return 0;
        };
        let floor = self.retired_floor.fetch_max(wm, Ordering::Relaxed).max(wm);
        let mut deleted = 0usize;
        let mut state = self.state.lock();
        for st in state.values_mut() {
            let retired: Vec<i64> = st.acked.keys().copied().filter(|&o| o <= floor).collect();
            for origin in retired {
                let a = st.acked.remove(&origin).expect("collected above");
                for rid in a.rids {
                    match self.log_table.delete(rid) {
                        // A failed delete leaves an orphan row; it is
                        // retired, so the next open drops it as stale.
                        Ok(_) => deleted += 1,
                        Err(_) => self.errors.bump(),
                    }
                }
            }
            st.recovered.retain(|&o, _| o > floor);
            st.replayed.retain(|&o, _| o > floor);
        }
        deleted
    }

    /// A subscriber's durable watermark (`None` if unknown).
    pub fn watermark(&self, name: &str) -> Option<u64> {
        self.state.lock().get(name).map(|st| st.watermark)
    }

    /// Unacked resident log rows for a subscriber (`None` if unknown).
    pub fn resident_len(&self, name: &str) -> Option<usize> {
        self.state.lock().get(name).map(|st| st.resident.len())
    }

    /// Acked log rows retained for possible redelivery dedup (`None` if
    /// the subscriber is unknown). Drains to zero as [`gc`](Self::gc)
    /// retires origins.
    pub fn retained_len(&self, name: &str) -> Option<usize> {
        self.state
            .lock()
            .get(name)
            .map(|st| st.acked.values().map(|a| a.rids.len()).sum())
    }

    /// Log rows written.
    pub fn appends(&self) -> &Arc<Counter> {
        &self.appends
    }
    /// Re-published notifications suppressed by redelivery dedup.
    pub fn suppressed(&self) -> &Arc<Counter> {
        &self.suppressed
    }
    /// Log rows retired by acks.
    pub fn acked_rows(&self) -> &Arc<Counter> {
        &self.acked_rows
    }
    /// Log rows dropped at open.
    pub fn dedup_dropped(&self) -> &Arc<Counter> {
        &self.dedup_dropped
    }
    /// Acks clamped to the highest assigned sequence number.
    pub fn clamped(&self) -> &Arc<Counter> {
        &self.clamped
    }
    /// Mailboxes dropped on stalled subscribers.
    pub fn stalled(&self) -> &Arc<Counter> {
        &self.stalled
    }
    /// Append/encode failures.
    pub fn errors(&self) -> &Arc<Counter> {
        &self.errors
    }
}

impl NotificationSink for DeliveryHub {
    /// Append the notification to every matching subscriber's delivery
    /// log (deduplicating re-publishes of pre-crash origins), then push it
    /// down any live mailbox. Runs synchronously inside
    /// [`EventBus::publish`](triggerman::EventBus::publish), before the
    /// producing token can be acked to the update queue.
    fn on_publish(&self, n: &EventNotification) {
        let mut state = self.state.lock();
        if !state.values().any(|st| st.matches(&n.event)) {
            return;
        }
        let body = match encode_notification_body(n) {
            Ok(b) => b,
            Err(_) => {
                self.errors.bump();
                return;
            }
        };
        let origin = n.token_seq.unwrap_or(-1);
        let wire = self.wire.get();
        let fire_mono = now_ns();
        let fire_unix = unix_now_ns();
        let trace_id = n.trace.trace_id().unwrap_or(0);
        if let Some(w) = wire {
            // Ingest→fire SLI: wall-clock span from the source-side stamp
            // (carried on `UpdateBatch` frames, or stamped at server
            // decode when the client left it unset) to this delivery-log append. One
            // sample per published notification.
            if n.ingest_unix_ns != 0 {
                w.ingest_to_fire
                    .record(fire_unix.saturating_sub(n.ingest_unix_ns));
            }
        }
        for (name, st) in state.iter_mut() {
            if !st.matches(&n.event) {
                continue;
            }
            if origin >= 0 {
                let j = st.replayed.entry(origin).or_insert(0);
                let seen = *j;
                *j += 1;
                if seen < st.logged_before(origin) {
                    // This fire was already appended before the crash:
                    // acked fires were delivered, resident ones replay
                    // from the log. Later fires of the same origin fall
                    // through and append normally.
                    self.suppressed.bump();
                    continue;
                }
            }
            let seq = st.next_seq;
            match self.log_table.insert(vec![
                Value::str(name.as_str()),
                Value::Int(seq as i64),
                Value::Int(origin),
                Value::str(hex_encode(&body)),
            ]) {
                Ok(rid) => {
                    st.next_seq = seq + 1;
                    st.resident.insert(
                        seq,
                        LogRow {
                            origin,
                            rid,
                            body: body.clone(),
                            trace_id,
                            fire_unix_ns: fire_unix,
                            fire_mono_ns: fire_mono,
                        },
                    );
                    self.appends.bump();
                    let mut live = 0u64;
                    if let Some(tx) = st.mailbox.as_ref() {
                        if tx.len() >= MAILBOX_STALL_DEPTH {
                            // Stalled subscriber: stop feeding the
                            // mailbox. The rows are durable; the server
                            // closes the connection and the client
                            // reconnects and replays.
                            self.stalled.bump();
                            st.mailbox = None;
                        } else if tx
                            .send(Delivery {
                                seq,
                                body: body.clone(),
                                trace_id,
                                fire_unix_ns: fire_unix,
                            })
                            .is_err()
                        {
                            st.mailbox = None;
                        } else {
                            live = 1;
                        }
                    }
                    // Per-subscriber delivery span on the producing
                    // token's trace: durable append (+ mailbox handoff).
                    // arg_a = assigned sequence, arg_b = 1 if a live
                    // mailbox took it.
                    n.trace.record_complete(
                        SpanKind::WireDeliver,
                        ROOT_SPAN,
                        fire_mono,
                        now_ns().saturating_sub(fire_mono),
                        seq,
                        live,
                    );
                    Self::update_lag(wire, name, st);
                }
                Err(_) => self.errors.bump(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_notification_body;
    use crossbeam::channel::unbounded;

    fn note(event: &str, origin: Option<i64>, tag: i64) -> EventNotification {
        EventNotification {
            event: event.into(),
            trigger: "t".into(),
            values: vec![Value::Int(tag)],
            message: None,
            token_seq: origin,
            trace: tman_telemetry::TraceHandle::none(),
            ingest_unix_ns: 0,
        }
    }

    #[test]
    fn deliver_ack_and_replay() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, rx) = unbounded();
        let reg = hub.register("dash", "Spike", 0, tx).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (0, 0));
        hub.on_publish(&note("Spike", Some(1), 10));
        hub.on_publish(&note("Other", Some(1), 11)); // filtered out
        hub.on_publish(&note("spike", Some(2), 12)); // case-insensitive
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 1);
        assert_eq!(
            decode_notification_body(&got[0].body).unwrap().values,
            vec![Value::Int(10)]
        );
        // Ack the first; the second survives a reopen and is replayed.
        assert_eq!(hub.ack("dash", 1).unwrap(), 1);
        assert_eq!(hub.resident_len("dash"), Some(1));
        assert_eq!(hub.retained_len("dash"), Some(1)); // origin 1 not retired
        drop(hub);
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("dash", "Spike", 0, tx2).unwrap();
        assert_eq!(reg.watermark, 1);
        assert_eq!(reg.replay.len(), 1);
        assert_eq!(reg.replay[0].seq, 2);
        assert_eq!(
            decode_notification_body(&reg.replay[0].body)
                .unwrap()
                .values,
            vec![Value::Int(12)]
        );
    }

    #[test]
    fn republished_origins_are_deduplicated_after_reopen() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        // Token 1 fires twice (two triggers); token 2 fires once. Subscriber
        // acks through token 1's fires only.
        hub.on_publish(&note("A", Some(1), 1));
        hub.on_publish(&note("B", Some(1), 2));
        hub.on_publish(&note("A", Some(2), 3));
        hub.ack("s", 2).unwrap();
        drop(hub);
        // "Crash": the queue redelivers both tokens, so every notification
        // is re-published. Origin 1's two fires are its retained acked
        // prefix; origin 2's one recovered row suppresses the first
        // re-publish.
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        let (tx2, rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!(reg.watermark, 2);
        assert_eq!(reg.replay.len(), 1); // token 2's fire, from the log
        hub2.on_publish(&note("A", Some(1), 1));
        hub2.on_publish(&note("B", Some(1), 2));
        hub2.on_publish(&note("A", Some(2), 3));
        assert_eq!(rx2.try_iter().count(), 0); // nothing double-delivered
        assert_eq!(hub2.suppressed().get(), 3);
        // A genuinely new token still flows.
        hub2.on_publish(&note("A", Some(3), 4));
        let fresh: Vec<_> = rx2.try_iter().collect();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].seq, 4); // seq continues above the recovered log
    }

    #[test]
    fn ack_between_fires_of_one_origin_does_not_suppress() {
        // Regression: an ack that lands between a token's fires must not
        // suppress the fires that come after it.
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1)); // fire 0 of origin 1
        assert_eq!(rx.try_iter().count(), 1);
        hub.ack("s", 1).unwrap(); // ack lands mid-token
        hub.on_publish(&note("A", Some(1), 2)); // fire 1 of origin 1
        hub.on_publish(&note("A", Some(1), 3)); // fire 2 of origin 1
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.iter().map(|d| d.seq).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(hub.suppressed().get(), 0);
        assert_eq!(hub.resident_len("s"), Some(2));
    }

    #[test]
    fn partial_origin_ack_survives_a_crash_without_losing_fires() {
        // Origin 1 fires twice; only the first fire is acked before the
        // crash. Redelivery must suppress exactly those two appends (one
        // acked, one resident) — and a third, never-logged fire of the
        // same origin must come through.
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1));
        hub.on_publish(&note("A", Some(1), 2));
        hub.ack("s", 1).unwrap(); // prefix of origin 1 only
        drop(hub);
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        let (tx2, rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!(reg.watermark, 1);
        assert_eq!(reg.replay.len(), 1); // the unacked second fire
        assert_eq!(reg.replay[0].seq, 2);
        hub2.on_publish(&note("A", Some(1), 1)); // re-publish, acked
        hub2.on_publish(&note("A", Some(1), 2)); // re-publish, resident
        hub2.on_publish(&note("A", Some(1), 3)); // new fire, never logged
        let got: Vec<_> = rx2.try_iter().collect();
        assert_eq!(got.iter().map(|d| d.seq).collect::<Vec<_>>(), [3]);
        assert_eq!(hub2.suppressed().get(), 2);
    }

    #[test]
    fn client_resume_from_acts_as_implicit_ack() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        for i in 1..=4 {
            hub.on_publish(&note("A", Some(i), i));
        }
        drop(hub);
        // The server never saw an ack, but the client processed through
        // seq 3 before the crash: reconnecting with resume_from=3 replays
        // only seq 4.
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 3, tx2).unwrap();
        assert_eq!(reg.watermark, 3);
        assert_eq!(reg.replay.len(), 1);
        assert_eq!(reg.replay[0].seq, 4);
        assert_eq!(hub2.watermark("s"), Some(3));
    }

    #[test]
    fn resume_from_above_assigned_sequences_is_clamped() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        for i in 1..=2 {
            hub.on_publish(&note("A", Some(i), i));
        }
        // A stale client (or a restored server database) presents a
        // watermark the server never assigned: clamp to the real frontier
        // instead of wedging every future delivery below the watermark.
        let (tx2, _rx2) = unbounded();
        let reg = hub.register("s", "*", u64::MAX, tx2).unwrap();
        assert_eq!(reg.watermark, 2);
        assert_eq!(hub.clamped().get(), 1);
        assert_eq!(hub.watermark("s"), Some(2));
        // New fires keep flowing above the clamped watermark.
        hub.on_publish(&note("A", Some(3), 3));
        assert_eq!(hub.resident_len("s"), Some(1));
        drop(hub);
        // The clamped (not wrapped) watermark is what went durable.
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        assert_eq!(hub2.watermark("s"), Some(2));
        let (tx3, _rx3) = unbounded();
        let reg = hub2.register("s", "*", 0, tx3).unwrap();
        assert_eq!(reg.replay.len(), 1);
        assert_eq!(reg.replay[0].seq, 3);
    }

    #[test]
    fn retired_and_orphaned_rows_are_dropped_at_open() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1));
        // Ack (origin 1 not yet retired, so the row is retained), then add
        // an orphan row for a subscriber that no longer exists.
        hub.ack("s", 1).unwrap();
        hub.log_table
            .insert(vec![
                Value::str("ghost"),
                Value::Int(5),
                Value::Int(2),
                Value::str(hex_encode(b"orphan")),
            ])
            .unwrap();
        drop(hub);
        // Reopen with the queue watermark past origin 1: the retained row
        // is retired (the queue can never redeliver it) and dropped along
        // with the orphan.
        let hub2 = DeliveryHub::open(&db, Some(1)).unwrap();
        assert_eq!(hub2.dedup_dropped().get(), 2);
        assert_eq!(hub2.retained_len("s"), Some(0));
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (1, 0));
    }

    #[test]
    fn gc_retires_acked_rows_and_prunes_origin_state() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, Some(0)).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        for i in 1..=3 {
            hub.on_publish(&note("A", Some(i), i));
        }
        hub.ack("s", 3).unwrap();
        assert_eq!(hub.retained_len("s"), Some(3));
        // Origins 1 and 2 processed by the queue: their rows and counters
        // go; origin 3 is still redeliverable and stays.
        assert_eq!(hub.gc(Some(2)), 2);
        assert_eq!(hub.retained_len("s"), Some(1));
        {
            let state = hub.state.lock();
            let st = state.get("s").unwrap();
            assert_eq!(st.acked.len(), 1);
            assert_eq!(st.replayed.len(), 1); // only origin 3 survives
        }
        assert_eq!(hub.gc(Some(3)), 1);
        assert_eq!(hub.retained_len("s"), Some(0));
        {
            let state = hub.state.lock();
            let st = state.get("s").unwrap();
            assert!(st.acked.is_empty() && st.replayed.is_empty());
        }
        // A volatile queue (no watermark) never retires anything.
        assert_eq!(hub.gc(None), 0);
        // After gc nothing of the retired origins survives a reopen.
        drop(hub);
        let hub2 = DeliveryHub::open(&db, Some(3)).unwrap();
        assert_eq!(hub2.dedup_dropped().get(), 0);
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (3, 0));
    }

    #[test]
    fn acks_behind_the_retired_floor_delete_immediately() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, Some(0)).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1));
        hub.on_publish(&note("A", None, 2)); // volatile fire, origin -1
        hub.gc(Some(5)); // queue already past origin 1
        hub.ack("s", 2).unwrap();
        // Neither row needs retention: origin 1 is retired, origin -1 is
        // untracked. The log is empty on reopen.
        assert_eq!(hub.retained_len("s"), Some(0));
        drop(hub);
        let hub2 = DeliveryHub::open(&db, Some(5)).unwrap();
        assert_eq!(hub2.dedup_dropped().get(), 0);
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (2, 0));
    }

    #[test]
    fn stalled_mailboxes_are_dropped_but_rows_stay_durable() {
        let db = Database::open_memory(4096);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        let n = MAILBOX_STALL_DEPTH + 5;
        for i in 0..n {
            hub.on_publish(&note("A", None, i as i64));
        }
        // The mailbox stopped at the stall depth; everything is still in
        // the durable log for replay.
        assert_eq!(rx.len(), MAILBOX_STALL_DEPTH);
        assert!(hub.stalled().get() >= 1);
        assert_eq!(hub.resident_len("s"), Some(n));
        // Once dropped, the mailbox is not resurrected by later publishes.
        let backlog = rx.len();
        hub.on_publish(&note("A", None, -1));
        assert_eq!(rx.len(), backlog);
        // A reconnect replays the full unacked stream.
        let (tx2, _rx2) = unbounded();
        let reg = hub.register("s", "*", 0, tx2).unwrap();
        assert_eq!(reg.replay.len(), n + 1);
    }

    #[test]
    fn stale_detach_does_not_clobber_a_reconnect() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx1, _rx1) = unbounded();
        let old = hub.register("s", "*", 0, tx1).unwrap();
        let (tx2, rx2) = unbounded();
        let new = hub.register("s", "*", 0, tx2).unwrap();
        // The old connection's EOF lands after the reconnect: no-op.
        hub.detach("s", old.epoch);
        hub.on_publish(&note("A", Some(1), 1));
        assert_eq!(rx2.try_iter().count(), 1);
        // Detaching the live epoch does clear the mailbox.
        hub.detach("s", new.epoch);
        hub.on_publish(&note("A", Some(2), 2));
        assert_eq!(rx2.try_iter().count(), 0);
    }

    #[test]
    fn volatile_origins_always_deliver() {
        let db = Database::open_memory(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", None, 1));
        hub.on_publish(&note("A", None, 2));
        assert_eq!(rx.try_iter().count(), 2);
        assert_eq!(hub.suppressed().get(), 0);
    }
}
