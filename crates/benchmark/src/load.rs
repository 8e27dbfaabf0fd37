//! Applying load and observing what comes back: the senders (closed loop,
//! open loop in process, open loop over the wire), the DDL thread, the
//! receivers, and the per-token check of every fire against the reference.
//!
//! At most two generator threads run in a window. The program's driver
//! threads are its own in an end-to-end run; in the traced pass the
//! harness stands in for them with the same loop around the public
//! `tman_test_on`, so that each call can be timed from outside.

use crate::gen::Expected;
use crate::pace::{Pacer, SystemClock};
use crate::spans::{Spans, ThreadSpans, NO_PARENT};
use crate::stats::{LatencyHist, Slices};
use crate::workloads::{Engine, Load, Workload, ACK_EVERY, FLUSH_EVERY, FLUSH_TOKENS};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_common::{UpdateDescriptor, Value};
use tman_wire::{RemoteDataSource, RemoteSubscriber};
use triggerman::{EventNotification, TmanTestResult, TriggerMan};

/// Slots of the in-flight ring; far above any backlog a sender allows.
const RING: usize = 1 << 17;
/// Expected fires a closed-loop sender lets be outstanding: half the
/// EventBus mailbox depth beyond which the program drops notifications
/// for a slow subscriber (`triggerman::events::SLOW_CHANNEL_DEPTH`).
const FIRE_BUDGET: u64 = 32_768;
/// The wire feeder wakes this often, not once per token: it batches into
/// flushes anyway, and a sender waking every few microseconds would take
/// CPU from the program on a two-core host.
const FEEDER_QUANTUM: Duration = Duration::from_micros(250);
/// How long after the last send a window waits for outstanding fires.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Span thread ids in the trace file.
const TID_SENDER: u32 = 1;
const TID_RECEIVER: u32 = 2;
const TID_DDL: u32 = 3;
const TID_DRIVER0: u32 = 10;

/// What the sender tells the receiver about tokens in flight, by
/// `seq % RING`: when the token's clock started and how many fires it
/// must raise. Written before the token is pushed.
struct Flight {
    epoch: Instant,
    stamp_ns: Vec<AtomicU64>,
    expected: Vec<AtomicU32>,
    /// Fires the receiver has seen (for the sender's fire budget).
    received: AtomicU64,
    /// Fires the whole window must raise; `u64::MAX` until sending ends.
    total_expected: AtomicU64,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            epoch: Instant::now(),
            stamp_ns: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            expected: (0..RING).map(|_| AtomicU32::new(0)).collect(),
            received: AtomicU64::new(0),
            total_expected: AtomicU64::new(u64::MAX),
        }
    }

    fn launch(&self, seq: u64, clock_start: Instant, expected: u32) {
        let i = seq as usize % RING;
        let ns = clock_start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.stamp_ns[i].store(ns, Ordering::Relaxed);
        // Release: a receiver that reads this count also sees the stamp.
        self.expected[i].store(expected, Ordering::Release);
    }
}

/// The receiver's books: fires per token against the reference, and the
/// latency of every fire.
struct Tally {
    slot_seq: Vec<u64>,
    slot_got: Vec<u32>,
    slot_expected: Vec<u32>,
    fires: u64,
    tokens_seen: u64,
    mismatched: u64,
    latency: Slices,
}

const EMPTY: u64 = u64::MAX;

impl Tally {
    fn new(window_start: Instant, seconds: u64) -> Tally {
        Tally {
            slot_seq: vec![EMPTY; RING],
            slot_got: vec![0; RING],
            slot_expected: vec![0; RING],
            fires: 0,
            tokens_seen: 0,
            mismatched: 0,
            latency: Slices::new(window_start, seconds),
        }
    }

    fn on_fire(&mut self, flight: &Flight, seq: u64, now: Instant) {
        let i = seq as usize % RING;
        if self.slot_seq[i] != seq {
            self.close_slot(i);
            self.slot_seq[i] = seq;
            self.slot_expected[i] = flight.expected[i].load(Ordering::Acquire);
            self.tokens_seen += 1;
        }
        self.slot_got[i] += 1;
        self.fires += 1;
        let start = flight.epoch + Duration::from_nanos(flight.stamp_ns[i].load(Ordering::Relaxed));
        self.latency
            .record(now, now.saturating_duration_since(start));
    }

    fn close_slot(&mut self, i: usize) {
        if self.slot_seq[i] != EMPTY && self.slot_got[i] != self.slot_expected[i] {
            self.mismatched += 1;
        }
        self.slot_seq[i] = EMPTY;
        self.slot_got[i] = 0;
    }

    fn close_all(&mut self) {
        (0..RING).for_each(|i| self.close_slot(i));
    }
}

fn seq_of(n: &EventNotification) -> Option<u64> {
    match n.values.first() {
        Some(Value::Int(seq)) => Some(*seq as u64),
        _ => None,
    }
}

/// One window's parameters.
#[derive(Clone, Copy)]
pub struct Window {
    pub warm: Duration,
    pub seconds: u64,
    /// Open-loop token rate for this window (the workload's own when
    /// `None`).
    pub rate: Option<f64>,
}

/// Who calls `tman_test`.
pub enum Drivers<'a> {
    /// The program's own pool (`start_drivers`), for this window only:
    /// stopping it shuts the engine down, so the window is the engine's last.
    Program,
    /// Harness driver threads started by [`with_harness_drivers`] are
    /// already running; spans go to this recorder.
    Harness(&'a Spans),
}

/// What one window measured.
pub struct WindowResult {
    /// Tokens pushed, by slice.
    pub sent: Slices,
    /// Whether the sender waits for completions (a closed loop).
    closed: bool,
    /// Fires received and their latency, by slice.
    pub latency: Slices,
    /// One sample per create-then-drop pair of the DDL thread, by slice.
    pub ddl_pairs: Slices,
    /// Tokens sent and fires expected from start to drain, warm-up included.
    pub tokens_sent: u64,
    pub fires_expected: u64,
    pub fires_received: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Most tokens sent and not yet taken up by a driver.
    pub depth_max: u64,
    /// Fewest unprocessed tokens seen around the middle of the window and
    /// over its last tenth: the floor rises when a backlog is growing,
    /// whatever bursts ride on top of it.
    pub backlog_mid: u64,
    pub backlog_end: u64,
    pub disk_bytes_per_token: f64,
    pub generator_lag_p99_us: f64,
}

impl WindowResult {
    /// Tokens per second, from the window's better slices (`rate`) or
    /// over all of it (`mean_rate`). In an open loop, tokens the program
    /// took in as they fell due: the offered rate, unless it pushed back. In
    /// a closed loop, tokens completed: fires received, over the fires one
    /// token raises on average in this run (which the reference fixes). A
    /// fire is the smallest piece of finished work the harness sees; tokens
    /// are pushed and drained by the batch, and one token of `fanout_heavy`
    /// costs from nothing to eight thousand fires, so a count of tokens by
    /// slice steps where the count of fires does not.
    pub fn tokens_per_s(&self, rate: impl Fn(&Slices) -> f64) -> f64 {
        if self.closed {
            rate(&self.latency) * self.tokens_sent as f64 / self.fires_expected.max(1) as f64
        } else {
            rate(&self.sent)
        }
    }

    /// The tail of the fire latency: second by second (median over
    /// seconds) and over the whole window, in microseconds, at the quantile
    /// the seconds support (`Slices::tail`).
    pub fn latency_tail_us(&self) -> f64 {
        self.latency.tail_us(self.latency.tail())
    }

    pub fn overall_tail_us(&self) -> f64 {
        self.latency.overall_quantile_us(self.latency.tail())
    }
}

struct SenderReport {
    sent: Slices,
    tokens_sent: u64,
    fires_expected: u64,
    nonzero_tokens: u64,
    push_failed: u64,
    failures: Vec<String>,
    depth_max: u64,
    backlog_mid: u64,
    backlog_end: u64,
    window: (Instant, Instant),
    lag: LatencyHist,
    next_seq: u64,
}

impl SenderReport {
    fn new(window_start: Instant, seconds: u64, first_seq: u64) -> SenderReport {
        SenderReport {
            sent: Slices::new(window_start, seconds),
            tokens_sent: 0,
            fires_expected: 0,
            nonzero_tokens: 0,
            push_failed: 0,
            failures: Vec::new(),
            depth_max: 0,
            backlog_mid: u64::MAX,
            backlog_end: u64::MAX,
            window: (window_start, window_start + Duration::from_secs(seconds)),
            lag: LatencyHist::default(),
            next_seq: first_seq,
        }
    }

    /// Book token `seq` as sent with its clock started at `clock_start`.
    fn launch(&mut self, flight: &Flight, clock_start: Instant, e: Expected) {
        flight.launch(self.next_seq, clock_start, e.fires);
        self.next_seq += 1;
        self.tokens_sent += 1;
        self.fires_expected += e.fires as u64;
        self.nonzero_tokens += (e.fires > 0) as u64;
    }

    /// Note the backlog `depth` seen at `now` (see
    /// [`WindowResult::backlog_mid`]).
    fn sample_backlog(&mut self, now: Instant, depth: u64) {
        self.depth_max = self.depth_max.max(depth);
        let (start, end) = self.window;
        let tenth = (end - start) / 10;
        if now >= start + 4 * tenth && now < start + 6 * tenth {
            self.backlog_mid = self.backlog_mid.min(depth);
        } else if now >= end - tenth && now < end {
            self.backlog_end = self.backlog_end.min(depth);
        }
    }

    fn fail(&mut self, tokens: u64, what: String) {
        self.push_failed += tokens;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Tokens pushed and not yet taken up by a driver, by the program's own
/// `tokens` counter: pacing only, never a reported number.
struct Backlog<'a> {
    tman: &'a TriggerMan,
    processed_at_start: u64,
    first_seq: u64,
}

impl Backlog<'_> {
    fn now(&self, next_seq: u64) -> u64 {
        let processed = self.tman.stats().tokens.get() - self.processed_at_start;
        (next_seq - self.first_seq).saturating_sub(processed)
    }
}

/// Run one window of the workload's load against a set-up engine.
pub fn run_window(
    engine: &mut Engine,
    w: &Workload,
    window: Window,
    drivers: Drivers<'_>,
) -> WindowResult {
    let tman = engine.tman.clone();
    let src = engine.src;
    let first_seq = engine.next_seq;
    let flight = Flight::new();
    let window_start = Instant::now() + window.warm;
    let window_end = window_start + Duration::from_secs(window.seconds);
    let mut tally = Tally::new(window_start, window.seconds);
    let mut ddl = DdlReport::new(window_start, window.seconds, engine.next_churn);
    let disk_before = engine.page_file_bytes();
    let wal_before = wal_bytes(&tman);
    let dropped_before = dropped(&tman);
    let no_spans = Spans::new();
    let (pool, spans) = match drivers {
        Drivers::Program if w.drivers() > 0 => (Some(tman.start_drivers()), &no_spans),
        Drivers::Program => (None, &no_spans),
        Drivers::Harness(spans) => (None, spans),
    };
    let backlog = Backlog {
        tman: &tman,
        processed_at_start: tman.stats().tokens.get(),
        first_seq,
    };
    let token = |seq: u64| {
        let tok = w.domain.token(w.seed, seq);
        (tok.descriptor(src, seq), w.reference.expected(&tok))
    };
    let mut report = SenderReport::new(window_start, window.seconds, first_seq);
    let mut wire_failures: Vec<String> = Vec::new();

    match (w.load, engine.wire.as_mut(), engine.events.as_ref()) {
        (
            Load::Closed {
                backlog: cap,
                batch,
                sender_drains,
            },
            _,
            Some(rx),
        ) => {
            std::thread::scope(|s| {
                s.spawn(|| receive_in_process(rx, &flight, &mut tally, spans.thread(TID_RECEIVER)));
                send_closed(
                    &tman,
                    &flight,
                    &backlog,
                    &token,
                    (cap, batch, sender_drains),
                    window_end,
                    &mut report,
                    spans,
                );
            });
        }
        (Load::DdlChurn { rate, churn }, _, Some(rx)) => {
            let run = window_end.saturating_duration_since(Instant::now());
            let stop_ddl = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| churn_ddl(&tman, w, churn, &stop_ddl, &mut ddl, spans.thread(TID_DDL)));
                let pacer = Pacer::new(Instant::now(), window.rate.unwrap_or(rate), run);
                send_open_and_receive(
                    &tman,
                    &flight,
                    &backlog,
                    &token,
                    pacer,
                    rx,
                    &mut tally,
                    &mut report,
                    spans,
                );
                stop_ddl.store(true, Ordering::Relaxed);
            });
        }
        (Load::Wire { ladder }, Some(wire), _) => {
            let feeder = &mut wire.feeder;
            let subscriber = &mut wire.subscriber;
            std::thread::scope(|s| {
                let receiver = s.spawn(|| {
                    receive_over_wire(subscriber, &flight, &mut tally, spans.thread(TID_RECEIVER))
                });
                let pacer = Pacer::new(
                    Instant::now(),
                    window.rate.unwrap_or(ladder[0]),
                    window_end.saturating_duration_since(Instant::now()),
                )
                .coarse(FEEDER_QUANTUM);
                send_over_wire(feeder, &flight, &backlog, &token, pacer, &mut report, spans);
                if let Ok(Err(e)) = receiver.join() {
                    wire_failures.push(e);
                }
            });
        }
        _ => wire_failures.push("engine was set up without the receiver its load needs".into()),
    }
    if let Some(pool) = pool {
        pool.stop();
    }
    engine.next_seq = report.next_seq;
    engine.next_churn = ddl.next;
    tally.close_all();

    let unseen = report.nonzero_tokens.saturating_sub(tally.tokens_seen);
    let dropped = dropped(&tman) - dropped_before;
    let mut failures = report.failures;
    failures.extend(wire_failures.iter().cloned());
    failures.extend(ddl.failures.iter().cloned());
    if tally.mismatched > 0 {
        failures.push(format!(
            "{} tokens raised a fire count other than the reference's",
            tally.mismatched
        ));
    }
    if unseen > 0 {
        failures.push(format!("{unseen} tokens that had to fire never did"));
    }
    if dropped > 0 {
        failures.push(format!("the event bus dropped {dropped} notifications"));
    }
    let engine_error = tman.last_error();
    if let Some(e) = &engine_error {
        failures.push(format!("engine last_error: {e}"));
    }
    let disk_growth =
        engine.page_file_bytes().saturating_sub(disk_before) + (wal_bytes(&tman) - wal_before);
    WindowResult {
        tokens_sent: report.tokens_sent,
        fires_expected: report.fires_expected,
        fires_received: tally.fires,
        attempted: report.tokens_sent + ddl.attempted,
        failed: report.push_failed
            + tally.mismatched
            + unseen
            + dropped
            + ddl.failed
            + wire_failures.len() as u64
            + engine_error.is_some() as u64,
        failures,
        depth_max: report.depth_max,
        backlog_mid: report.backlog_mid,
        backlog_end: report.backlog_end,
        disk_bytes_per_token: disk_growth as f64 / report.tokens_sent.max(1) as f64,
        generator_lag_p99_us: report.lag.quantile(0.99) / 1e3,
        sent: report.sent,
        closed: matches!(w.load, Load::Closed { .. }),
        latency: tally.latency,
        ddl_pairs: ddl.pairs,
    }
}

fn wal_bytes(tman: &TriggerMan) -> u64 {
    tman.database()
        .storage()
        .pool()
        .wal()
        .map_or(0, |w| w.stats().bytes.get())
}

fn dropped(tman: &TriggerMan) -> u64 {
    tman.metrics_registry()
        .counter("tman_notifications_dropped_total", &[])
        .get()
}

/// Closed loop: push `batch` tokens whenever fewer than `cap` are
/// unprocessed and fewer than [`FIRE_BUDGET`] expected fires are
/// outstanding; each token's clock starts when its batch is built. When
/// there is no room, wait for the drivers — or, with `sender_drains`, be
/// the driver for one drain batch (`tman_test` with a zero threshold).
#[allow(clippy::too_many_arguments)]
fn send_closed(
    tman: &Arc<TriggerMan>,
    flight: &Flight,
    backlog: &Backlog<'_>,
    token: &dyn Fn(u64) -> (UpdateDescriptor, Expected),
    (cap, batch, sender_drains): (u64, u64, bool),
    window_end: Instant,
    report: &mut SenderReport,
    spans: &Spans,
) {
    let mut log = spans.thread(TID_SENDER);
    let drain = |log: &mut ThreadSpans<'_>, threshold: Duration| {
        let began = Instant::now();
        let result = tman.tman_test(threshold);
        log.record(
            "engine.driver.tman_test",
            spans.latest_root(),
            began,
            Instant::now(),
            0,
        );
        result
    };
    loop {
        let depth = backlog.now(report.next_seq);
        let fires_out = report.fires_expected - flight.received.load(Ordering::Relaxed);
        let now = Instant::now();
        if now >= window_end {
            break;
        }
        report.sample_backlog(now, depth);
        if depth + batch > cap || fires_out > FIRE_BUDGET {
            if sender_drains && depth > 0 {
                drain(&mut log, Duration::ZERO);
                continue;
            }
            // Long enough that a full backlog costs the program no CPU,
            // short against the time any backlog here takes to drain.
            std::thread::sleep(Duration::from_micros(500));
            continue;
        }
        let root = spans.new_id();
        let built = Instant::now();
        let tokens: Vec<UpdateDescriptor> = (0..batch)
            .map(|_| {
                let (d, e) = token(report.next_seq);
                report.launch(flight, built, e);
                d
            })
            .collect();
        let pushing = Instant::now();
        let pushed = tman.push_tokens(tokens);
        let done = Instant::now();
        log.record("engine.push_tokens", root, pushing, done, batch);
        log.record_as(root, "batch", NO_PARENT, built, done, batch);
        spans.set_latest_root(root);
        match pushed {
            Ok(()) => report.sent.count(done, batch),
            Err(e) => report.fail(batch, format!("push_tokens: {e}")),
        }
    }
    if sender_drains {
        while drain(&mut log, DRAIN_TIMEOUT) == TmanTestResult::TasksRemaining {}
    }
    flight
        .total_expected
        .store(report.fires_expected, Ordering::Release);
}

/// Receive on a second thread until every expected fire has arrived, or
/// none has for [`DRAIN_TIMEOUT`] after sending ended.
fn receive_in_process(
    rx: &crossbeam::channel::Receiver<EventNotification>,
    flight: &Flight,
    tally: &mut Tally,
    mut log: ThreadSpans<'_>,
) {
    let mut last_fire = Instant::now();
    loop {
        match rx.recv_timeout(Duration::from_micros(500)) {
            Ok(first) => {
                let began = Instant::now();
                let n = take_fires(Some(first), rx, flight, tally, 256);
                last_fire = Instant::now();
                log.record("engine.events.recv", NO_PARENT, began, last_fire, n);
            }
            Err(_) => {
                let target = flight.total_expected.load(Ordering::Acquire);
                if tally.fires >= target {
                    // A short grace for fires beyond the reference's count.
                    std::thread::sleep(Duration::from_millis(10));
                    take_fires(None, rx, flight, tally, u64::MAX);
                    return;
                }
                if target != u64::MAX && last_fire.elapsed() > DRAIN_TIMEOUT {
                    return;
                }
            }
        }
    }
}

/// Book `first` and whatever else is already in the mailbox, `max` at
/// most; returns how many.
fn take_fires(
    first: Option<EventNotification>,
    rx: &crossbeam::channel::Receiver<EventNotification>,
    flight: &Flight,
    tally: &mut Tally,
    max: u64,
) -> u64 {
    let mut n = 0;
    let mut next = first.or_else(|| rx.try_recv().ok());
    while let Some(note) = next {
        if let Some(seq) = seq_of(&note) {
            tally.on_fire(flight, seq, Instant::now());
        }
        n += 1;
        if n >= max {
            break;
        }
        next = rx.try_recv().ok();
    }
    flight.received.store(tally.fires, Ordering::Relaxed);
    n
}

/// Open loop in one thread: push every token that has fallen due, then
/// poll the receiver, then sleep until the next is due. A token's clock
/// starts the instant it was due.
#[allow(clippy::too_many_arguments)]
fn send_open_and_receive(
    tman: &TriggerMan,
    flight: &Flight,
    backlog: &Backlog<'_>,
    token: &dyn Fn(u64) -> (UpdateDescriptor, Expected),
    mut pacer: Pacer,
    rx: &crossbeam::channel::Receiver<EventNotification>,
    tally: &mut Tally,
    report: &mut SenderReport,
    spans: &Spans,
) {
    let mut log = spans.thread(TID_SENDER);
    let poll = Duration::from_micros(200);
    while let Some((first, n, now)) = pacer.take(&SystemClock, 256, poll) {
        if n > 0 {
            report
                .lag
                .record((now - pacer.due(first)).as_nanos() as u64);
            let root = spans.new_id();
            let tokens: Vec<UpdateDescriptor> = (first..first + n)
                .map(|i| {
                    let (d, e) = token(report.next_seq);
                    report.launch(flight, pacer.due(i), e);
                    d
                })
                .collect();
            let pushed = tman.push_tokens(tokens);
            let done = Instant::now();
            log.record("engine.push_tokens", root, now, done, n);
            log.record_as(root, "batch", NO_PARENT, now, done, n);
            spans.set_latest_root(root);
            match pushed {
                Ok(()) => report.sent.count(done, n),
                Err(e) => report.fail(n, format!("push_tokens: {e}")),
            }
        }
        report.sample_backlog(now, backlog.now(report.next_seq));
        let began = Instant::now();
        let got = take_fires(None, rx, flight, tally, u64::MAX);
        if got > 0 {
            log.record("engine.events.recv", NO_PARENT, began, Instant::now(), got);
        }
    }
    let sending_ended = Instant::now();
    while tally.fires < report.fires_expected && sending_ended.elapsed() < DRAIN_TIMEOUT {
        if let Ok(note) = rx.recv_timeout(Duration::from_millis(1)) {
            take_fires(Some(note), rx, flight, tally, u64::MAX);
        }
    }
    std::thread::sleep(Duration::from_millis(10));
    take_fires(None, rx, flight, tally, u64::MAX);
}

/// Open loop over the wire: buffer every token that has fallen due and
/// flush every [`FLUSH_TOKENS`] tokens or [`FLUSH_EVERY`]. A flush blocks
/// while the server withholds credits; the tokens that fall due meanwhile
/// are still timed from when they were due.
#[allow(clippy::too_many_arguments)]
fn send_over_wire(
    feeder: &mut RemoteDataSource,
    flight: &Flight,
    backlog: &Backlog<'_>,
    token: &dyn Fn(u64) -> (UpdateDescriptor, Expected),
    mut pacer: Pacer,
    report: &mut SenderReport,
    spans: &Spans,
) {
    let mut log = spans.thread(TID_SENDER);
    let mut oldest_buffered: Option<Instant> = None;
    let mut flush = |feeder: &mut RemoteDataSource, report: &mut SenderReport, began: Instant| {
        let n = feeder.buffered() as u64;
        let root = spans.new_id();
        let result = feeder.flush();
        let done = Instant::now();
        log.record("wire.client.flush", root, began, done, n);
        log.record_as(root, "batch", NO_PARENT, began, done, n);
        spans.set_latest_root(root);
        match result {
            Ok(()) => report.sent.count(done, n),
            Err(e) => report.fail(n, format!("wire flush: {e}")),
        }
    };
    loop {
        let wait = oldest_buffered.map_or(FLUSH_EVERY, |t| FLUSH_EVERY.saturating_sub(t.elapsed()));
        let Some((first, n, now)) = pacer.take(&SystemClock, 1_024, wait) else {
            break;
        };
        if n > 0 {
            report
                .lag
                .record((now - pacer.due(first)).as_nanos() as u64);
        }
        for i in first..first + n {
            let (d, e) = token(report.next_seq);
            report.launch(flight, pacer.due(i), e);
            if let Err(e) = feeder.push(d) {
                report.fail(1, format!("wire push: {e}"));
            }
            oldest_buffered.get_or_insert(now);
            if feeder.buffered() >= FLUSH_TOKENS {
                flush(feeder, report, Instant::now());
                oldest_buffered = None;
            }
        }
        if oldest_buffered.is_some_and(|t| t.elapsed() >= FLUSH_EVERY) {
            flush(feeder, report, Instant::now());
            oldest_buffered = None;
        }
        report.sample_backlog(now, backlog.now(report.next_seq));
        if report.push_failed > 0 {
            break; // a failed connection stays failed
        }
    }
    if feeder.buffered() > 0 {
        flush(feeder, report, Instant::now());
    }
    flight
        .total_expected
        .store(report.fires_expected, Ordering::Release);
}

/// The subscriber connection: receive, book, ack every [`ACK_EVERY`].
fn receive_over_wire(
    subscriber: &mut RemoteSubscriber,
    flight: &Flight,
    tally: &mut Tally,
    mut log: ThreadSpans<'_>,
) -> Result<(), String> {
    let mut last_fire = Instant::now();
    let mut last_seq = 0;
    let mut unacked = 0;
    loop {
        match subscriber.next(Duration::from_millis(1)) {
            Ok(Some((delivery, note))) => {
                let now = Instant::now();
                if let Some(seq) = seq_of(&note) {
                    tally.on_fire(flight, seq, now);
                }
                last_fire = now;
                last_seq = delivery;
                unacked += 1;
                if unacked >= ACK_EVERY {
                    subscriber
                        .ack(last_seq)
                        .map_err(|e| format!("wire ack: {e}"))?;
                    unacked = 0;
                }
                // The wait for the frame is the program's time, not the
                // client's: the span covers booking and ack only.
                log.record("wire.client.recv", NO_PARENT, now, Instant::now(), 1);
            }
            Ok(None) => {
                let target = flight.total_expected.load(Ordering::Acquire);
                let timed_out = target != u64::MAX && last_fire.elapsed() > DRAIN_TIMEOUT;
                if tally.fires >= target || timed_out {
                    if unacked > 0 {
                        subscriber
                            .ack(last_seq)
                            .map_err(|e| format!("wire ack: {e}"))?;
                    }
                    return Ok(());
                }
            }
            Err(e) => return Err(format!("wire subscriber: {e}")),
        }
    }
}

/// What the DDL thread of `ddl_churn` did.
struct DdlReport {
    /// Index of the next trigger to create.
    next: u64,
    /// One sample per create-then-drop pair.
    pairs: Slices,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl DdlReport {
    fn new(window_start: Instant, seconds: u64, next: u64) -> DdlReport {
        DdlReport {
            next,
            pairs: Slices::new(window_start, seconds),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }
}

/// Closed-loop DDL: create one trigger, drop the oldest churned one, and
/// again, so the population stays where set-up left it. The created
/// conditions are ones no token meets, which keeps every token's expected
/// fire count exact while index, catalog and cache take the writes.
fn churn_ddl(
    tman: &Arc<TriggerMan>,
    w: &Workload,
    churn: u64,
    stop: &AtomicBool,
    report: &mut DdlReport,
    mut log: ThreadSpans<'_>,
) {
    while !stop.load(Ordering::Relaxed) {
        let next = report.next;
        let create = w.churn_cond(next).create_text(&format!("c{next}"));
        let drop = format!("drop trigger c{}", next - churn);
        // The pair is the unit that is timed: creates and drops cost so
        // differently that a median over single commands would sit on the
        // boundary between the two and flip from run to run.
        let pair_began = Instant::now();
        for (name, text) in [("engine.ddl.create", create), ("engine.ddl.drop", drop)] {
            let began = Instant::now();
            let result = tman.execute_command(&text);
            log.record(name, NO_PARENT, began, Instant::now(), 1);
            report.attempted += 1;
            if let Err(e) = result {
                report.failed += 1;
                if report.failures.len() < 8 {
                    report.failures.push(format!("{text}: {e}"));
                }
            }
        }
        let done = Instant::now();
        report.pairs.record(done, done - pair_began);
        report.next += 1;
    }
}

/// Run `body` with `n` harness threads standing in for the program's
/// driver pool (`Config::num_drivers` of them), each bound to a shard, each
/// looping `tman_test_on(shard, threshold)` and sleeping `driver_period`
/// on an empty queue — `driver::driver_loop`, with a span around the call.
pub fn with_harness_drivers<T>(
    tman: &Arc<TriggerMan>,
    n: usize,
    spans: &Spans,
    body: impl FnOnce() -> T,
) -> T {
    tman.set_active_shards(n.clamp(1, tman.num_shards()));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for i in 0..n {
            let stop = &stop;
            s.spawn(move || {
                let mut log = spans.thread(TID_DRIVER0 + i as u32);
                let shard = i % tman.num_shards();
                let (threshold, period) = (tman.config().threshold, tman.config().driver_period);
                while !stop.load(Ordering::Relaxed) {
                    let began = Instant::now();
                    let result = tman.tman_test_on(shard, threshold);
                    log.record(
                        "engine.driver.tman_test",
                        spans.latest_root(),
                        began,
                        Instant::now(),
                        0,
                    );
                    if result == TmanTestResult::QueueEmpty {
                        std::thread::sleep(period);
                    }
                }
            });
        }
        let out = body();
        stop.store(true, Ordering::Relaxed);
        out
    })
}
