//! Durable subscriber delivery: the server side of the end-to-end
//! watermark/ack protocol.
//!
//! The engine's update queue gives *token* processing an at-least-once
//! contract: un-acked tokens are re-processed after a crash. That
//! re-processing re-runs rule actions, which re-publishes their
//! notifications — so a naive delivery tier would double-deliver every
//! fire in the redelivery window. The [`DeliveryHub`] closes that window
//! and extends the watermark protocol out to remote subscribers:
//!
//! * It registers as a synchronous [`NotificationSink`] on the engine's
//!   [`EventBus`](triggerman::EventBus), so every notification is appended
//!   to the durable *delivery log* of each subscriber it matches **before**
//!   the token that produced it can be acknowledged back to the update
//!   queue.
//! * Each subscriber owns one [`SeqLog`] in the engine's store (the same
//!   mechanism the update queue is) and one row of the `wire_subscriber`
//!   registry. A record is `origin i64 | encoded notification`; its log
//!   sequence number *is* its delivery sequence number (dense from 1, never
//!   reused). The row holds the event filter and the durable ack
//!   **watermark** — the highest sequence number the subscriber has fully
//!   processed.
//! * An ack advances the row *first*, then truncates the log — so a crash
//!   leaves an acked record behind the watermark, never a lost one. (A
//!   commit that catches the truncation without the row is as harmless:
//!   only acked records are ever truncated, so `open` takes the larger of
//!   the two watermarks.)
//! * The log is truncated only through acked records whose token origin
//!   can no longer be **redelivered** by the update queue (origin at or
//!   below the queue's processed watermark, or an untracked fire). Acked
//!   records above that stay live: `(log watermark, ack watermark]` is the
//!   durable record of how many of each origin's fires were already
//!   delivered and acked. [`DeliveryHub::gc`] truncates them once the queue
//!   watermark passes their origins.
//! * When a crashed engine re-processes a token, the re-published
//!   notifications are deduplicated by position: for each origin the first
//!   `acked + recovered` re-publishes are suppressed — that is, as many as
//!   `open` found live in the log (`acked` ones were delivered and acked
//!   before the crash; `recovered` ones replay from the log). Anything
//!   beyond that count is a fire that never reached the log — it is
//!   appended and delivered. An origin is therefore never suppressed
//!   wholesale: an ack that lands between a token's fires, or that covers
//!   only a prefix of an origin before a crash, suppresses exactly the
//!   covered fires and no more.
//! * A subscriber reconnecting after a crash presents its own watermark
//!   (`resume_from`), which is applied as an implicit ack — clamped to the
//!   highest sequence number the server ever assigned, so stale client
//!   state can neither wedge the stream nor wrap the durable row. The hub
//!   then replays every record above the effective watermark, read back
//!   from the log in sequence order. The subscriber therefore receives
//!   every fire above its watermark exactly once.
//!
//! Bodies live in the log only. In memory the hub keeps, per live record,
//! its origin and trace stamps (32 bytes), so a subscriber that is away
//! costs the server log pages, not a copy of everything it has missed.
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
//! deterministic (every firing is published by the thread that matched it,
//! in match order) — which is what makes a client-side watermark meaningful
//! against a recovered server. The hub issues no durability barrier of its
//! own: its pages ride the update queue's barriers and the engine's
//! checkpoints, in one buffer pool. A queue barrier — the next push's group
//! commit, or the one a driver runs before it reports an empty queue —
//! flushes every dirty page before it writes the watermark that acks the
//! fires' tokens, so the log holds each delivery-log append ahead of the
//! ack that retires its token.
//!
//! One ordering hazard shapes the contract: a token's queue ack must
//! never become durable before the delivery-log append that preceded it,
//! or the queue never redelivers and the fire is lost. The storage-layer
//! write-ahead log closes this by construction — dirty pages become redo
//! records whose durability is atomic at commit boundaries, and the page
//! file is only written at checkpoint from already-durable records — so a
//! crash either keeps both the ack and the append or neither (pinned by
//! `wal_closes_ack_before_append_gap`, the once-failing
//! `wire_crash_reconnect_full` case 12).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use tman_common::fxhash::FxHashMap;
use tman_common::{Column, DataType, Result, Schema, TmanError, Value};
use tman_sql::{Database, Table};
use tman_storage::{RecordId, SeqLog};
use tman_sync::channel::Sender;
use tman_sync::Mutex;
use tman_telemetry::trace::{now_ns, thread_tag, unix_now_ns, ROOT_SPAN};
use tman_telemetry::{Counter, Gauge, Histogram, Registry, SpanKind, TraceEvent, Tracer};
use triggerman::{EventNotification, NotificationSink};

use crate::frame::encode_notification_body;

/// Durable subscriber registry: `(name, event, watermark)`. A subscriber's
/// delivery log is the store object `log_wire_subscriber_<name>`.
pub(crate) const SUBSCRIBER_TABLE: &str = "wire_subscriber";
/// The table a store from before the per-subscriber logs kept every
/// delivery in; [`DeliveryHub::open`] refuses a store that has it.
const OLD_LOG_TABLE: &str = "wire_delivery_log";

/// Bytes of token origin in front of each log record's body.
const ORIGIN: usize = 8;

/// Live-mailbox backlog past which a subscriber is considered stalled:
/// the mailbox is dropped (deliveries stay durable in the log) and the
/// connection is closed so the client reconnects and replays. Mirrors the
/// in-process [`SLOW_CHANNEL_DEPTH`](triggerman::events::SLOW_CHANNEL_DEPTH)
/// policy: unbounded channels made bounded by convention.
pub(crate) const MAILBOX_STALL_DEPTH: usize = 16_384;

/// What the hub remembers of one live log record; the body stays in the
/// log. The stamps are 0 for a record recovered at open: trace context is
/// process-local, and its fire predates this process, so it skips the
/// fire→ack SLI.
struct Live {
    /// Token origin qid (`-1` for volatile/untracked tokens).
    origin: i64,
    /// Originating token's trace id (0 = untraced).
    trace_id: u64,
    /// Wall clock at append, carried on the `Notification` frame.
    fire_unix_ns: u64,
    /// Monotonic stamp at append, for the fire→ack latency SLI.
    fire_mono_ns: u64,
}

/// One delivery handed to the wire server (live mailbox or
/// [`Registration::replay`]): the per-subscriber sequence number, the
/// encoded body, and the trace context (`trace_id` / `fire_unix_ns` are 0
/// when the token was untraced or the record was recovered at open).
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
/// ([`DeliveryHub::attach_telemetry`]). The hub's own counters exist from
/// `open` so the unit-testable core never needs a registry; the SLI
/// histograms, per-subscriber lag gauges, and trace ring only exist when
/// a server fronts the hub.
struct WireObs {
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    /// `tman_wire_ingest_to_fire_ns`: source-side ingest stamp → delivery-
    /// log append, recorded once per published notification that carries
    /// an ingest stamp.
    ingest_to_fire: Arc<Histogram>,
    /// `tman_wire_fire_to_ack_ns`: delivery-log append → durable
    /// subscriber ack, recorded per acked record appended by this process.
    fire_to_ack: Arc<Histogram>,
}

/// Per-subscriber delivery state. `live` is bounded by how far the
/// subscriber's acks lag its deliveries plus the acked records the queue
/// could still redeliver; the per-origin maps are bounded by the queue's
/// redelivery window: [`DeliveryHub::gc`] prunes every entry at or below
/// the queue's processed watermark.
struct SubState {
    /// Event filter, lowercased; empty matches every event.
    event: String,
    /// Highest per-subscriber sequence number durably acked.
    watermark: u64,
    /// Record id of this subscriber's `wire_subscriber` row (`None` only
    /// while [`DeliveryHub::register`] is creating the subscriber).
    row_rid: Option<RecordId>,
    /// The delivery log. Its next sequence is the next delivery's; its
    /// watermark trails the ack watermark by the acked records kept for
    /// redelivery dedup.
    log: SeqLog,
    /// One entry per live log record, oldest first: `live[0]` is sequence
    /// `log.watermark() + 1`.
    live: VecDeque<Live>,
    /// Records per origin found live at open, acked or not: re-publishes
    /// of that origin up to this count were already logged by a previous
    /// incarnation and are suppressed.
    logged: FxHashMap<i64, u32>,
    /// Publishes observed per origin in this incarnation (the index the
    /// `logged` count is compared against).
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
    lag_gauge: Option<Arc<Gauge>>,
    /// Last lag value pushed into the gauge (gauges are delta-updated).
    lag_reported: i64,
}

impl SubState {
    /// Rebuild a subscriber's state from its log: one read over the live
    /// range, then retirement of whatever the queue has since passed.
    /// `watermark` is the registry row's.
    fn recover(
        log: SeqLog,
        event: String,
        row_rid: Option<RecordId>,
        watermark: u64,
        floor: i64,
    ) -> Result<SubState> {
        // A commit can seal a row's ack without the page of a record it
        // covers (the pool flushes page by page). Those sequence numbers
        // were delivered and acked; re-create them empty rather than issue
        // them twice.
        while log.next_seq() <= watermark {
            log.append(&[])?;
        }
        let mut st = SubState {
            event,
            // Only acked records are ever truncated, so the log's watermark
            // is an ack watermark too — the later one, if a commit caught
            // the truncation without the row.
            watermark: watermark.max(log.watermark()),
            row_rid,
            log,
            live: VecDeque::new(),
            logged: FxHashMap::default(),
            replayed: FxHashMap::default(),
            mailbox: None,
            epoch: 0,
            lag_gauge: None,
            lag_reported: 0,
        };
        st.log.read_from(0, usize::MAX, |_, rec| {
            let origin = rec
                .first_chunk::<ORIGIN>()
                .map_or(-1, |o| i64::from_le_bytes(*o));
            if origin > floor {
                *st.logged.entry(origin).or_insert(0) += 1;
            }
            st.live.push_back(Live {
                origin,
                trace_id: 0,
                fire_unix_ns: 0,
                fire_mono_ns: 0,
            });
        })?;
        st.retire(floor)?;
        Ok(st)
    }

    fn matches(&self, event: &str) -> bool {
        self.event.is_empty() || self.event.eq_ignore_ascii_case(event)
    }

    /// Highest sequence number assigned so far.
    fn assigned(&self) -> u64 {
        self.log.next_seq() - 1
    }

    /// Truncate the log through the acked records at its head that the
    /// queue can no longer redeliver (`origin <= floor`; an untracked fire
    /// carries `-1`). Returns how many went.
    fn retire(&mut self, floor: i64) -> Result<usize> {
        let base = self.log.watermark();
        let acked = (self.watermark - base) as usize;
        let retired = self.live.iter().take(acked);
        let n = retired.take_while(|r| r.origin <= floor).count();
        if n > 0 {
            self.log.truncate_through(base + n as u64)?;
            self.live.drain(..n);
        }
        Ok(n)
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
    /// Unacked log records above the watermark, in order — the
    /// exactly-once catch-up stream.
    pub replay: Vec<Delivery>,
}

/// The durable delivery tier. One per engine; shared between the
/// [`EventBus`](triggerman::EventBus) sink registration and the wire
/// server's subscriber connections.
pub struct DeliveryHub {
    /// The engine's database: the registry table, and the store new
    /// subscribers' logs are created in.
    db: Arc<Database>,
    subs_table: Arc<Table>,
    state: Mutex<FxHashMap<String, SubState>>,
    /// Highest queue origin known retired: the update queue has processed
    /// it, so it can never be redelivered and its acked records / dedup
    /// state can be reclaimed. Advanced by [`DeliveryHub::gc`].
    retired_floor: AtomicI64,
    /// `tman_wire_delivery_appends_total`: log records written.
    appends: Arc<Counter>,
    /// `tman_wire_redelivery_suppressed_total`: re-published notifications
    /// deduplicated against the pre-crash log.
    suppressed: Arc<Counter>,
    /// `tman_wire_delivery_acked_total`: log records covered by acks.
    acked_rows: Arc<Counter>,
    /// `tman_wire_acks_clamped_total`: acks (including `resume_from`)
    /// above the highest assigned sequence, clamped instead of applied.
    clamped: Arc<Counter>,
    /// `tman_wire_subscriber_stalls_total`: mailboxes dropped because the
    /// subscriber stopped draining them.
    stalled: Arc<Counter>,
    /// `tman_wire_delivery_errors_total`: encode/append failures (durable
    /// replay for that notification is lost) and failed truncations (the
    /// records stay and are retired by a later pass).
    errors: Arc<Counter>,
    /// SLI histograms, lag gauges, and trace ring; bound once by the wire
    /// server ([`attach_telemetry`](Self::attach_telemetry)), absent in
    /// bare unit-test hubs.
    wire: OnceLock<WireObs>,
    /// Wakes whoever drains the live mailboxes
    /// ([`set_waker`](Self::set_waker)).
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl DeliveryHub {
    /// Open (or create) the subscriber registry in `db` and recover every
    /// subscriber's state from its log. `queue_watermark` is the update
    /// queue's durable processed watermark (`None` on a volatile queue):
    /// origins at or below it can never be redelivered.
    ///
    /// Reads each log's live range once, and nothing else. Records at or
    /// below a subscriber's ack watermark were acked before the crash;
    /// those at the head of the log whose origin is retired (or untracked)
    /// are truncated away, the rest count towards their origin's
    /// suppression prefix together with the unacked records above the
    /// watermark, which replay.
    pub fn open(db: &Arc<Database>, queue_watermark: Option<i64>) -> Result<Arc<DeliveryHub>> {
        if db.has_table(OLD_LOG_TABLE) {
            return Err(TmanError::Storage(format!(
                "this store keeps its subscriber deliveries in a '{OLD_LOG_TABLE}' table, \
                 a format this build no longer reads"
            )));
        }
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
        let mut subs: FxHashMap<String, SubState> = FxHashMap::default();
        for (rid, row) in subs_table.scan_all()? {
            let Some(name) = row.get(0).as_str().filter(|n| !n.is_empty()) else {
                continue;
            };
            let event = normalize_event(row.get(1).as_str().unwrap_or(""));
            let watermark = row.get(2).as_i64().unwrap_or(0).max(0) as u64;
            let log = Self::open_log(db, name)?;
            let st = SubState::recover(log, event, Some(rid), watermark, floor)?;
            subs.insert(name.to_string(), st);
        }
        Ok(Arc::new(DeliveryHub {
            db: db.clone(),
            subs_table,
            state: Mutex::new(subs),
            retired_floor: AtomicI64::new(floor),
            appends: Arc::new(Counter::default()),
            suppressed: Arc::new(Counter::default()),
            acked_rows: Arc::new(Counter::default()),
            clamped: Arc::new(Counter::default()),
            stalled: Arc::new(Counter::default()),
            errors: Arc::new(Counter::default()),
            wire: OnceLock::new(),
            waker: Mutex::new(None),
        }))
    }

    /// Open a subscriber's delivery log, creating it if the store has none.
    fn open_log(db: &Database, name: &str) -> Result<SeqLog> {
        let storage = db.storage();
        let log_name = format!("log_{SUBSCRIBER_TABLE}_{name}");
        if storage.dir().exists(&log_name)? {
            storage.open_seqlog(&log_name)
        } else {
            storage.create_seqlog(&log_name)
        }
    }

    /// Register the hub's counters in `registry`, and bind the hub to it
    /// (SLI histograms, per-subscriber watermark-lag gauges) and
    /// optionally to the engine's tracer (wire delivery/ack spans). Called
    /// once by [`WireServer::start`](crate::WireServer::start); later
    /// bindings are no-ops, and a hub that is never bound records nothing
    /// beyond its counters.
    pub fn attach_telemetry(&self, registry: &Arc<Registry>, tracer: Option<Arc<Tracer>>) {
        for (name, counter) in [
            ("tman_wire_delivery_appends_total", &self.appends),
            ("tman_wire_redelivery_suppressed_total", &self.suppressed),
            ("tman_wire_delivery_acked_total", &self.acked_rows),
            ("tman_wire_acks_clamped_total", &self.clamped),
            ("tman_wire_subscriber_stalls_total", &self.stalled),
            ("tman_wire_delivery_errors_total", &self.errors),
        ] {
            registry.register_counter(name, &[], counter.clone());
        }
        let _ = self.wire.set(WireObs {
            registry: registry.clone(),
            tracer,
            ingest_to_fire: registry.histogram("tman_wire_ingest_to_fire_ns", &[]),
            fire_to_ack: registry.histogram("tman_wire_fire_to_ack_ns", &[]),
        });
    }

    /// Have `wake` called after every notification that went into at
    /// least one live mailbox (never for one that only reached logs). The
    /// wire server's I/O thread installs an unpark of itself when it
    /// starts, so a delivery does not wait out the thread's idle park; an
    /// unpark of a thread that is not parked is one atomic swap. A later
    /// call replaces an earlier one.
    pub fn set_waker(&self, wake: impl Fn() + Send + Sync + 'static) {
        *self.waker.lock() = Some(Box::new(wake));
    }

    /// Push the subscriber's current watermark lag (assigned frontier
    /// minus durable watermark) into its `tman_wire_watermark_lag{sub=…}`
    /// gauge. Gauges are delta-updated, so the last reported value is
    /// shadowed in the sub state. No-op until instruments are bound.
    fn update_lag(wire: Option<&WireObs>, name: &str, st: &mut SubState) {
        let Some(w) = wire else { return };
        let lag = (st.assigned() - st.watermark) as i64;
        let gauge = st.lag_gauge.get_or_insert_with(|| {
            w.registry
                .gauge("tman_wire_watermark_lag", &[("sub", name)])
        });
        gauge.add(lag - st.lag_reported);
        st.lag_reported = lag;
    }

    /// Write a subscriber's registry row: inserted if `rid` is `None`,
    /// else replaced. The caller adopts `event` and `watermark` once this
    /// has succeeded.
    fn write_row(
        &self,
        name: &str,
        rid: &mut Option<RecordId>,
        event: &str,
        watermark: u64,
    ) -> Result<()> {
        let row = vec![
            Value::str(name),
            Value::str(event),
            Value::Int(watermark as i64),
        ];
        *rid = Some(match *rid {
            Some(old) => self.subs_table.update(old, row)?.1,
            None => self.subs_table.insert(row)?,
        });
        Ok(())
    }

    /// Register (or re-register after reconnect) a durable subscriber.
    /// `resume_from` is the client's own watermark and is applied as an
    /// implicit ack (clamped to the highest assigned sequence number), so
    /// the effective watermark is the max of both sides'. A changed event
    /// filter is written to the registry row before it takes effect. Live
    /// deliveries arrive on `mailbox`'s receiver end after the returned
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
        let event = normalize_event(event);
        let mut state = self.state.lock();
        if !state.contains_key(name) {
            // Log first, row second: a crash between the two leaves a log
            // nobody reads, which the next registration of the name adopts.
            let log = Self::open_log(&self.db, name)?;
            let floor = self.retired_floor.load(Ordering::Relaxed);
            let mut st = SubState::recover(log, event.clone(), None, 0, floor)?;
            self.write_row(name, &mut st.row_rid, &event, st.watermark)?;
            state.insert(name.to_string(), st);
        }
        let st = state.get_mut(name).expect("registered above");
        if st.event != event {
            self.write_row(name, &mut st.row_rid, &event, st.watermark)?;
            st.event = event;
        }
        if resume_from > 0 {
            self.ack_locked(name, st, resume_from)?;
        }
        st.mailbox = Some(mailbox);
        st.epoch += 1;
        let base = st.log.watermark();
        let mut replay = Vec::with_capacity((st.assigned() - st.watermark) as usize);
        st.log.read_from(st.watermark + 1, usize::MAX, |seq, rec| {
            let live = &st.live[(seq - base - 1) as usize];
            replay.push(Delivery {
                seq,
                body: rec.get(ORIGIN..).unwrap_or_default().to_vec(),
                trace_id: live.trace_id,
                fire_unix_ns: live.fire_unix_ns,
            });
        })?;
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
    /// what the log no longer needs. `through` is clamped to the highest
    /// sequence number ever assigned (a stale or corrupt client watermark
    /// must not wedge the stream above sequences that do not exist yet).
    /// Covered records whose origin may still be redelivered stay in the
    /// log as that origin's acked prefix (see [`gc`](Self::gc)); the log
    /// is truncated through the rest. Idempotent; returns the new
    /// watermark.
    pub fn ack(&self, name: &str, through: u64) -> Result<u64> {
        let mut state = self.state.lock();
        let st = state
            .get_mut(name)
            .ok_or_else(|| TmanError::NotFound(format!("unknown subscriber '{name}'")))?;
        self.ack_locked(name, st, through)
    }

    fn ack_locked(&self, name: &str, st: &mut SubState, through: u64) -> Result<u64> {
        let highest = st.assigned();
        let through = if through > highest {
            self.clamped.bump();
            highest
        } else {
            through
        };
        if through <= st.watermark {
            return Ok(st.watermark);
        }
        self.write_row(name, &mut st.row_rid, &st.event, through)?;
        let before = st.watermark;
        st.watermark = through;
        self.acked_rows.add(through - before);
        let wire = self.wire.get();
        if let Some(w) = wire {
            let ack_mono = now_ns();
            let base = st.log.watermark();
            for seq in before + 1..=through {
                let rec = &st.live[(seq - base - 1) as usize];
                if rec.fire_mono_ns == 0 {
                    continue;
                }
                let dur = ack_mono.saturating_sub(rec.fire_mono_ns);
                w.fire_to_ack.record(dur);
                if let (Some(tracer), true) = (&w.tracer, rec.trace_id != 0) {
                    // The producing token's trace context is long
                    // finalized by ack time; close the delivery span by
                    // pushing a foreign event under the same trace id.
                    tracer.push_foreign(&TraceEvent {
                        trace_id: rec.trace_id,
                        span_id: tracer.foreign_span_id(),
                        parent_id: ROOT_SPAN,
                        kind: SpanKind::WireAck,
                        thread: thread_tag(),
                        start_ns: rec.fire_mono_ns,
                        dur_ns: dur,
                        arg_a: seq,
                        arg_b: 0,
                    });
                }
            }
        }
        // The ack stands whether or not the log lets go of anything now.
        if st
            .retire(self.retired_floor.load(Ordering::Relaxed))
            .is_err()
        {
            self.errors.bump();
        }
        Self::update_lag(wire, name, st);
        Ok(st.watermark)
    }

    /// Reclaim state for retired origins: every origin at or below
    /// `queue_watermark` has been fully processed by the update queue and
    /// can never be redelivered, so each log is truncated through the
    /// acked records at its head that are no newer, and the dedup counters
    /// (`logged`/`replayed`) are pruned. Called periodically by the wire
    /// server; bounds both the logs and the per-origin maps on a
    /// long-running server. Returns the number of log records retired.
    pub fn gc(&self, queue_watermark: Option<i64>) -> usize {
        let Some(wm) = queue_watermark else {
            return 0;
        };
        let floor = self.retired_floor.fetch_max(wm, Ordering::Relaxed).max(wm);
        let mut retired = 0usize;
        for st in self.state.lock().values_mut() {
            st.logged.retain(|&o, _| o > floor);
            st.replayed.retain(|&o, _| o > floor);
            match st.retire(floor) {
                Ok(n) => retired += n,
                Err(_) => self.errors.bump(),
            }
        }
        retired
    }

    /// A subscriber's durable watermark (`None` if unknown).
    pub fn watermark(&self, name: &str) -> Option<u64> {
        self.state.lock().get(name).map(|st| st.watermark)
    }

    /// Unacked log records of a subscriber (`None` if unknown).
    pub fn resident_len(&self, name: &str) -> Option<usize> {
        let state = self.state.lock();
        let st = state.get(name)?;
        Some((st.assigned() - st.watermark) as usize)
    }

    /// Acked log records kept for possible redelivery dedup (`None` if
    /// the subscriber is unknown). Drains to zero as [`gc`](Self::gc)
    /// retires origins.
    pub fn retained_len(&self, name: &str) -> Option<usize> {
        let state = self.state.lock();
        let st = state.get(name)?;
        Some((st.watermark - st.log.watermark()) as usize)
    }

    /// Re-published notifications suppressed by redelivery dedup.
    pub fn suppressed(&self) -> &Arc<Counter> {
        &self.suppressed
    }
    /// Acks clamped to the highest assigned sequence number.
    pub fn clamped(&self) -> &Arc<Counter> {
        &self.clamped
    }
    /// Mailboxes dropped on stalled subscribers.
    pub fn stalled(&self) -> &Arc<Counter> {
        &self.stalled
    }
    /// Encode, append and truncation failures.
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
        let origin = n.token_seq.unwrap_or(-1);
        let rec = match encode_notification_body(n) {
            Ok(body) => [&origin.to_le_bytes()[..], &body].concat(),
            Err(_) => {
                self.errors.bump();
                return;
            }
        };
        let wire = self.wire.get();
        let fire_mono = now_ns();
        let fire_unix = unix_now_ns();
        let trace_id = n.trace.trace_id().unwrap_or(0);
        let mut any_live = false;
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
                if seen < st.logged.get(&origin).copied().unwrap_or(0) {
                    // This fire was already appended before the crash:
                    // acked fires were delivered, unacked ones replay
                    // from the log. Later fires of the same origin fall
                    // through and append normally.
                    self.suppressed.bump();
                    continue;
                }
            }
            let seq = match st.log.append(&rec) {
                Ok(seq) => seq,
                Err(_) => {
                    self.errors.bump();
                    continue;
                }
            };
            st.live.push_back(Live {
                origin,
                trace_id,
                fire_unix_ns: fire_unix,
                fire_mono_ns: fire_mono,
            });
            self.appends.bump();
            let mut live = 0u64;
            if let Some(tx) = st.mailbox.as_ref() {
                let delivery = Delivery {
                    seq,
                    body: rec[ORIGIN..].to_vec(),
                    trace_id,
                    fire_unix_ns: fire_unix,
                };
                match tx.send_up_to([delivery], MAILBOX_STALL_DEPTH) {
                    Ok(1) => {
                        live = 1;
                        any_live = true;
                    }
                    Ok(_) => {
                        // Stalled subscriber: stop feeding the mailbox.
                        // The records are durable; the server closes the
                        // connection and the client reconnects and
                        // replays.
                        self.stalled.bump();
                        st.mailbox = None;
                    }
                    Err(_) => st.mailbox = None,
                }
            }
            // Per-subscriber delivery span on the producing token's
            // trace: durable append (+ mailbox handoff). arg_a = assigned
            // sequence, arg_b = 1 if a live mailbox took it.
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
        drop(state);
        if any_live {
            // Outside the state lock: the woken thread's next step may be
            // an ack, which takes it.
            if let Some(wake) = self.waker.lock().as_ref() {
                wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_notification_body;
    use std::path::{Path, PathBuf};
    use tman_sync::channel::unbounded;

    fn mem_db(pool_pages: usize) -> Arc<Database> {
        Arc::new(Database::open_memory(pool_pages))
    }

    /// A fresh file-store path, and its write-ahead-log sidecar's.
    fn store_files(tag: &str) -> (PathBuf, PathBuf) {
        let name = format!("tman_delivery_{tag}_{}.db", std::process::id());
        let path = std::env::temp_dir().join(name);
        let mut wal = path.as_os_str().to_owned();
        wal.push(".wal");
        let wal = PathBuf::from(wal);
        remove_store(&path, &wal);
        (path, wal)
    }

    fn remove_store(path: &Path, wal: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal);
    }

    fn note(event: &str, origin: Option<i64>, tag: i64) -> EventNotification {
        EventNotification {
            event: event.into(),
            trigger: "t".into(),
            values: vec![Value::Int(tag)].into(),
            message: None,
            token_seq: origin,
            trace: tman_telemetry::TraceHandle::none(),
            ingest_unix_ns: 0,
        }
    }

    fn tag_of(d: &Delivery) -> Value {
        decode_notification_body(&d.body).unwrap().values[0].clone()
    }

    #[test]
    fn deliver_ack_and_replay() {
        let db = mem_db(256);
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
        assert_eq!(tag_of(&got[0]), Value::Int(10));
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
        assert_eq!(tag_of(&reg.replay[0]), Value::Int(12));
    }

    #[test]
    fn republished_origins_are_deduplicated_after_reopen() {
        let db = mem_db(256);
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
        // is re-published. Origin 1's two fires are its acked prefix, still
        // in the log; origin 2's one unacked record suppresses the first
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
        let db = mem_db(256);
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
        // acked, one unacked) — and a third, never-logged fire of the
        // same origin must come through.
        let db = mem_db(256);
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
        hub2.on_publish(&note("A", Some(1), 2)); // re-publish, unacked
        hub2.on_publish(&note("A", Some(1), 3)); // new fire, never logged
        let got: Vec<_> = rx2.try_iter().collect();
        assert_eq!(got.iter().map(|d| d.seq).collect::<Vec<_>>(), [3]);
        assert_eq!(hub2.suppressed().get(), 2);
    }

    #[test]
    fn an_ack_of_a_recovered_fire_does_not_widen_suppression() {
        // Origin 1 fires twice, and the crash comes between the two: only
        // the first fire is in the log. The subscriber reconnects and acks
        // it before the queue redelivers the token. The suppression count
        // is what the log held at open — one — and the ack must not make
        // it two, or the second fire is lost.
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1));
        drop(hub);
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        let (tx2, rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!(reg.replay.len(), 1);
        hub2.ack("s", 1).unwrap();
        hub2.on_publish(&note("A", Some(1), 1)); // re-publish, logged
        hub2.on_publish(&note("A", Some(1), 2)); // never logged
        let got: Vec<_> = rx2.try_iter().collect();
        assert_eq!(got.iter().map(|d| d.seq).collect::<Vec<_>>(), [2]);
        assert_eq!(tag_of(&got[0]), Value::Int(2));
        assert_eq!(hub2.suppressed().get(), 1);
    }

    #[test]
    fn client_resume_from_acts_as_implicit_ack() {
        let db = mem_db(256);
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
        let db = mem_db(256);
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

    /// Was `retired_and_orphaned_rows_are_dropped_at_open`. The orphan
    /// half is gone with what it tested: a log belongs to one subscriber,
    /// so a record for a subscriber that does not exist cannot be written.
    #[test]
    fn retired_records_are_truncated_at_open() {
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1));
        // Origin 1 is not yet retired, so the acked record stays.
        hub.ack("s", 1).unwrap();
        assert_eq!(hub.retained_len("s"), Some(1));
        drop(hub);
        // Reopen with the queue watermark past origin 1: the queue can
        // never redeliver it, and the record goes.
        let hub2 = DeliveryHub::open(&db, Some(1)).unwrap();
        assert_eq!(hub2.retained_len("s"), Some(0));
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (1, 0));
    }

    #[test]
    fn gc_retires_acked_records_and_prunes_origin_state() {
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, Some(0)).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        for i in 1..=3 {
            hub.on_publish(&note("A", Some(i), i));
        }
        hub.ack("s", 3).unwrap();
        assert_eq!(hub.retained_len("s"), Some(3));
        // Origins 1 and 2 processed by the queue: their records and
        // counters go; origin 3 is still redeliverable and stays.
        assert_eq!(hub.gc(Some(2)), 2);
        assert_eq!(hub.retained_len("s"), Some(1));
        assert_eq!(hub.state.lock()["s"].replayed.len(), 1); // origin 3
                                                             // What a reopen counts is what is left.
        drop(hub);
        let hub = DeliveryHub::open(&db, Some(2)).unwrap();
        assert_eq!(hub.retained_len("s"), Some(1));
        assert_eq!(hub.state.lock()["s"].logged.len(), 1);
        assert_eq!(hub.gc(Some(3)), 1);
        assert_eq!(hub.retained_len("s"), Some(0));
        assert!(hub.state.lock()["s"].logged.is_empty());
        // A volatile queue (no watermark) never retires anything.
        assert_eq!(hub.gc(None), 0);
        // After gc nothing of the retired origins survives a reopen.
        drop(hub);
        let hub2 = DeliveryHub::open(&db, Some(3)).unwrap();
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (3, 0));
    }

    #[test]
    fn acks_behind_the_retired_floor_truncate_immediately() {
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, Some(0)).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", Some(1), 1));
        hub.on_publish(&note("A", None, 2)); // volatile fire, origin -1
        hub.gc(Some(5)); // queue already past origin 1
        hub.ack("s", 2).unwrap();
        // Neither record needs retention: origin 1 is retired, origin -1
        // is untracked. The log is empty on reopen.
        assert_eq!(hub.retained_len("s"), Some(0));
        drop(hub);
        let hub2 = DeliveryHub::open(&db, Some(5)).unwrap();
        assert_eq!(hub2.retained_len("s"), Some(0));
        let (tx2, _rx2) = unbounded();
        let reg = hub2.register("s", "*", 0, tx2).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (2, 0));
    }

    #[test]
    fn the_waker_is_called_for_live_deliveries_only_and_the_latest_one_wins() {
        use std::sync::atomic::AtomicUsize;
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let counting = |hits: &Arc<AtomicUsize>| {
            let hits = hits.clone();
            move || {
                hits.fetch_add(1, Ordering::SeqCst);
            }
        };
        let first = Arc::new(AtomicUsize::new(0));
        hub.set_waker(counting(&first));
        let (tx, rx) = unbounded();
        let reg = hub.register("live", "Spike", 0, tx).unwrap();
        // Known to the hub, nobody connected: deliveries go to its log.
        let (tx_away, rx_away) = unbounded();
        let away = hub.register("away", "Drift", 0, tx_away).unwrap();
        hub.detach("away", away.epoch);
        drop(rx_away);

        for i in 0..3 {
            hub.on_publish(&note("Spike", None, i));
        }
        assert_eq!((rx.len(), first.load(Ordering::SeqCst)), (3, 3));
        hub.on_publish(&note("Drift", None, 9)); // logged, no mailbox
        hub.on_publish(&note("Nobody", None, 9)); // no subscriber at all
        assert_eq!(hub.resident_len("away"), Some(1));
        assert_eq!(first.load(Ordering::SeqCst), 3);
        hub.detach("live", reg.epoch);
        hub.on_publish(&note("Spike", None, 4));
        assert_eq!(first.load(Ordering::SeqCst), 3);

        // The server that started last is the one that is woken.
        let second = Arc::new(AtomicUsize::new(0));
        hub.set_waker(counting(&second));
        let (tx, rx) = unbounded();
        hub.register("live", "Spike", 0, tx).unwrap();
        hub.on_publish(&note("Spike", None, 5));
        assert_eq!(rx.len(), 1);
        assert_eq!(
            (first.load(Ordering::SeqCst), second.load(Ordering::SeqCst)),
            (3, 1)
        );
    }

    #[test]
    fn stalled_mailboxes_are_dropped_but_records_stay_durable() {
        let db = mem_db(4096);
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
    fn an_offline_subscriber_replays_from_the_log() {
        const FIRES: i64 = 50_000;
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        let reg = hub.register("s", "*", 0, tx).unwrap();
        hub.detach("s", reg.epoch);
        for i in 1..=FIRES {
            hub.on_publish(&note("A", Some(i), i));
        }
        assert_eq!(hub.resident_len("s"), Some(FIRES as usize));
        // Complete and in order: fire i is sequence i.
        let (tx2, _rx2) = unbounded();
        let replay = hub.register("s", "*", 0, tx2).unwrap().replay;
        assert_eq!(replay.len(), FIRES as usize);
        for (d, i) in replay.iter().zip(1..) {
            assert_eq!((d.seq, tag_of(d)), (i as u64, Value::Int(i)));
        }
        // A restarted server replays the same bytes.
        drop(hub);
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        let (tx3, _rx3) = unbounded();
        let again = hub2.register("s", "*", 0, tx3).unwrap().replay;
        let bytes = |r: &[Delivery]| {
            r.iter()
                .map(|d| (d.seq, d.body.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&again), bytes(&replay));
    }

    #[test]
    fn a_changed_event_filter_is_durable_without_an_ack() {
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, _rx) = unbounded();
        hub.register("s", "A", 0, tx).unwrap();
        let (tx2, _rx2) = unbounded();
        hub.register("s", "B", 0, tx2).unwrap();
        drop(hub); // no ack ever rewrote the row
        let hub2 = DeliveryHub::open(&db, None).unwrap();
        hub2.on_publish(&note("A", None, 1));
        assert_eq!(hub2.resident_len("s"), Some(0));
        hub2.on_publish(&note("B", None, 2));
        assert_eq!(hub2.resident_len("s"), Some(1));
    }

    #[test]
    fn a_row_ahead_of_its_log_never_reissues_a_sequence() {
        // What a commit that sealed an ack's row without the pages of the
        // records it covers leaves behind; here, with no log at all.
        let db = mem_db(256);
        drop(DeliveryHub::open(&db, None).unwrap());
        let subs = db.table(SUBSCRIBER_TABLE).unwrap();
        let row = vec![Value::str("s"), Value::str(""), Value::Int(5)];
        subs.insert(row).unwrap();
        let hub = DeliveryHub::open(&db, None).unwrap();
        assert_eq!(hub.watermark("s"), Some(5));
        assert_eq!(hub.resident_len("s"), Some(0));
        assert_eq!(hub.retained_len("s"), Some(0));
        let (tx, rx) = unbounded();
        let reg = hub.register("s", "*", 0, tx).unwrap();
        assert_eq!((reg.watermark, reg.replay.len()), (5, 0));
        hub.on_publish(&note("A", Some(9), 1));
        assert_eq!(rx.try_iter().map(|d| d.seq).collect::<Vec<_>>(), [6]);
    }

    #[test]
    fn stale_detach_does_not_clobber_a_reconnect() {
        let db = mem_db(256);
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
        let db = mem_db(256);
        let hub = DeliveryHub::open(&db, None).unwrap();
        let (tx, rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        hub.on_publish(&note("A", None, 1));
        hub.on_publish(&note("A", None, 2));
        assert_eq!(rx.try_iter().count(), 2);
        assert_eq!(hub.suppressed().get(), 0);
    }

    #[test]
    fn a_store_with_a_delivery_log_table_is_refused_by_name() {
        let (path, wal) = store_files("refused");
        {
            let db = Database::open_file(&path, 64).unwrap();
            let schema = Schema::new(vec![Column::new("seq", DataType::Int)]).unwrap();
            let old = db.create_table(OLD_LOG_TABLE, schema).unwrap();
            old.insert(vec![Value::Int(1)]).unwrap();
            db.storage().checkpoint().unwrap();
        }
        let files = || (std::fs::read(&path).unwrap(), std::fs::read(&wal).unwrap());
        let before = files();
        {
            let db = Arc::new(Database::open_file(&path, 64).unwrap());
            match DeliveryHub::open(&db, None) {
                Err(TmanError::Storage(msg)) => {
                    assert!(msg.contains("'wire_delivery_log'"), "{msg}")
                }
                Err(e) => panic!("wrong error class: {e}"),
                Ok(_) => panic!("deliveries in the old table would be silently ignored"),
            }
        }
        // Refused before anything was created: the store is as it was.
        assert!(files() == before, "a refused open wrote to the store");
        remove_store(&path, &wal);
    }

    /// The size of the store and the cost of an open depend on how far
    /// acks and the queue lag, not on how many fires were ever logged.
    #[test]
    fn cost_and_size_are_independent_of_history() {
        const FIRES: i64 = 100_000;
        const ACK_LAG: i64 = 512;
        const QUEUE_LAG: i64 = 1_024;
        let (path, wal) = store_files("history");
        let db = Arc::new(Database::open_file(&path, 256).unwrap());
        let pages = || db.storage().pool().disk().num_pages();
        let fetches = || {
            let s = db.storage().pool().stats();
            s.pool_hits.get() + s.pool_misses.get()
        };
        let hub = DeliveryHub::open(&db, Some(0)).unwrap();
        let (tx, rx) = unbounded();
        hub.register("s", "*", 0, tx).unwrap();
        let mut pages_early = 0;
        for i in 1..=FIRES {
            hub.on_publish(&note("A", Some(i), i));
            if i % 256 == 0 {
                assert_eq!(rx.try_iter().count(), 256);
                if i > QUEUE_LAG {
                    hub.ack("s", (i - ACK_LAG) as u64).unwrap();
                    hub.gc(Some(i - QUEUE_LAG));
                }
            }
            if i == 10_000 {
                pages_early = pages();
            }
        }
        assert_eq!(hub.errors().get(), 0);
        assert_eq!(hub.resident_len("s"), Some(ACK_LAG as usize + 160));
        assert_eq!(hub.retained_len("s"), Some((QUEUE_LAG - ACK_LAG) as usize));
        assert_eq!(pages(), pages_early);
        // An open walks and reads the live range — some 1 200 records of
        // 40 bytes, a dozen pages, each fetched twice — plus the registry
        // and the directory. All 100 000 would be a thousand pages.
        drop(hub);
        let before = fetches();
        let hub2 = DeliveryHub::open(&db, Some(FIRES - QUEUE_LAG)).unwrap();
        let cost = fetches() - before;
        assert!(cost <= 64, "{cost} pages fetched to open");
        assert_eq!(hub2.resident_len("s"), Some(ACK_LAG as usize + 160));
        drop(hub2);
        drop(db);
        remove_store(&path, &wal);
    }
}
