//! The TCP tier: a poll-based event loop serving thousands of source and
//! subscriber connections in front of one [`TriggerMan`] engine.
//!
//! One ordinary thread owns a non-blocking [`TcpListener`] and every
//! accepted stream; each poll pass accepts new connections, reads and
//! decodes whatever bytes arrived, **group-commits** all decoded update
//! descriptors across all connections into the update queue (one
//! [`enqueue_batch`](triggerman::queue::UpdateQueue::enqueue_batch) durability
//! barrier per `BATCH_MAX` tokens — the fsync amortization
//! that lets ingestion scale past per-token durability), pushes pending
//! notifications to subscribers, and flushes write buffers. No async
//! runtime, and the two halves of the loop learn of work differently. The
//! **read** side is timer-driven: `std` has no readiness wait over many
//! sockets, so readiness is discovered by attempting the I/O, which at
//! ingestion rates keeps every pass busy, and an idle server parks for
//! `IDLE_PARK` (200 µs) between passes — the cadence at which bytes a
//! client sent are noticed. The **delivery** side is event-driven: the
//! thread hands its [`DeliveryHub`] an unpark of itself when it starts
//! ([`DeliveryHub::set_waker`]), and the hub calls it after putting a
//! delivery into a live mailbox, so a notification is framed and written
//! when it is fired, not when the park next runs out.
//!
//! **Flow control is credit-based, never drop-based.** A source connection
//! is granted `CREDITS` at hello (one credit = one
//! descriptor); every group commit returns a `BatchAck` that replenishes
//! the window — unless the engine's queue is above
//! [`QUEUE_HIGH_WATER`], in which case the grant is withheld
//! (counted in `tman_wire_backpressure_total`) and the client stalls on
//! zero credits until the drivers drain the backlog and a later ack (or
//! standalone `Credit` frame) reopens the window. Exceeding the window is
//! a protocol violation and closes the connection.
//!
//! Any decode failure (bad magic, CRC mismatch, oversized length, a
//! protocol version other than [`VERSION`](crate::frame::VERSION),
//! malformed payload) is unrecoverable for that connection: the
//! server counts it in `tman_wire_protocol_errors_total`, sends a best-
//! effort [`Frame::Error`], and closes — other connections are unaffected.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, TryRecvError};
use tman_common::{Result, TmanError, UpdateDescriptor};
use tman_telemetry::trace::{now_ns, unix_now_ns, ROOT_SPAN};
use tman_telemetry::{
    CounterHandle, GaugeHandle, HistogramHandle, Registry, SpanKind, TraceHandle,
};
use triggerman::{TriggerMan, QUEUE_HIGH_WATER};

use crate::delivery::{Delivery, DeliveryHub};
use crate::frame::{decode_frame, encode_frame, Frame, ROLE_SOURCE, ROLE_SUBSCRIBER};

/// Decoded descriptors accumulated per poll pass before a group commit
/// (one batched enqueue + one sync) is forced.
const BATCH_MAX: usize = 4096;
/// Ingestion credits granted to a source connection at hello time and
/// replenished on batch acknowledgement (one credit = one update
/// descriptor the client may send).
const CREDITS: u32 = 1024;
/// Read chunk per connection per pass.
const READ_CHUNK: usize = 16 * 1024;
/// Notifications drained from a subscriber mailbox per pass (fairness cap).
const NOTIFY_PER_PASS: usize = 256;
/// Stop draining a subscriber's mailbox while its write buffer is above
/// this: the unflushed bytes already bound what a slow reader can pin, and
/// everything still in the mailbox is durable in the delivery log (it will
/// replay on reconnect if the hub eventually drops the stalled mailbox).
const SUB_WBUF_HIGH_WATER: usize = 256 * 1024;
/// Passes between [`DeliveryHub::gc`] calls, each of which truncates the
/// delivery logs and prunes dedup state up to the origins the update queue
/// has fully processed.
const GC_PASS_INTERVAL: u64 = 256;
/// Idle park between passes when nothing moved.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Error codes carried in [`Frame::Error`].
pub mod error_code {
    /// Framing/decoding failure — the byte stream is unrecoverable.
    pub const PROTOCOL: u16 = 1;
    /// A descriptor or hello failed engine validation.
    pub const VALIDATION: u16 = 2;
    /// The client sent more descriptors than its credit window allows.
    pub const CREDIT_OVERRUN: u16 = 3;
    /// Engine-side failure (storage error during group commit).
    pub const INTERNAL: u16 = 4;
}

/// Wire-tier instruments, resolved once at startup.
struct WireMetrics {
    connections: GaugeHandle,
    frames_in: CounterHandle,
    frames_out: CounterHandle,
    protocol_errors: CounterHandle,
    backpressure: CounterHandle,
    batches: CounterHandle,
    tokens: CounterHandle,
    notifications: CounterHandle,
    acks: CounterHandle,
    /// `tman_wire_credit_stall_ns`: how long each source spent stalled on
    /// a withheld credit window (one sample per stall episode).
    credit_stall: HistogramHandle,
}

impl WireMetrics {
    fn resolve(r: &Registry) -> WireMetrics {
        WireMetrics {
            connections: r.gauge("tman_wire_connections", &[]),
            frames_in: r.counter("tman_wire_frames_total", &[("dir", "in")]),
            frames_out: r.counter("tman_wire_frames_total", &[("dir", "out")]),
            protocol_errors: r.counter("tman_wire_protocol_errors_total", &[]),
            backpressure: r.counter("tman_wire_backpressure_total", &[]),
            batches: r.counter("tman_wire_batches_total", &[]),
            tokens: r.counter("tman_wire_tokens_total", &[]),
            notifications: r.counter("tman_wire_notifications_sent_total", &[]),
            acks: r.counter("tman_wire_acks_total", &[]),
            credit_stall: r.histogram("tman_wire_credit_stall_ns", &[]),
        }
    }
}

/// A token that arrived with a propagated trace id: the adopted handle
/// and its decode stamp.
type Traced = (TraceHandle, u64);

#[derive(PartialEq)]
enum Role {
    Pending,
    Source,
    Subscriber,
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    role: Role,
    /// Remaining credit window (sources).
    credits: u32,
    /// Descriptors received over the connection's lifetime (sources).
    received: u64,
    /// Descriptors decoded this pass, awaiting the group commit (sources).
    pass_tokens: u64,
    /// Monotonic stamp of the moment this source's credit window was
    /// withheld (backpressure); cleared — and the stall duration recorded —
    /// when credits are regranted.
    stall_since: Option<u64>,
    /// Durable subscriber name and registration epoch (subscribers).
    sub_name: Option<(String, u64)>,
    /// Live delivery mailbox from the [`DeliveryHub`] (subscribers).
    mailbox: Option<Receiver<Delivery>>,
    /// `tman_wire_mailbox_depth{sub=…}` gauge plus the last depth pushed
    /// into it (delta-updated each pass, zeroed at retire).
    depth_gauge: Option<(GaugeHandle, i64)>,
    /// Close once `wbuf` drains (clean goodbye or error sent).
    close_after_flush: bool,
    /// Close immediately (peer gone).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            role: Role::Pending,
            credits: 0,
            received: 0,
            pass_tokens: 0,
            stall_since: None,
            sub_name: None,
            mailbox: None,
            depth_gauge: None,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Queue a frame for writing (encode failures kill the connection).
    fn send(&mut self, frame: &Frame<'_>, metrics: &WireMetrics) {
        match encode_frame(frame, &mut self.wbuf) {
            Ok(()) => metrics.frames_out.bump(),
            Err(_) => self.dead = true,
        }
    }

    /// Send a fatal error frame and schedule the close.
    fn fail(&mut self, code: u16, message: String, metrics: &WireMetrics) {
        metrics.protocol_errors.bump();
        self.send(&Frame::Error { code, message }, metrics);
        self.close_after_flush = true;
    }
}

/// The embedded TCP server. Owns one I/O thread; stops (and joins) on
/// [`WireServer::stop`], on drop, or when the engine shuts down.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    hub: Arc<DeliveryHub>,
}

impl WireServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), open the
    /// durable [`DeliveryHub`] in the engine's database, register it as a
    /// notification sink, and spawn the I/O thread.
    pub fn start(system: Arc<TriggerMan>, addr: &str) -> Result<WireServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| TmanError::Io(format!("bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TmanError::Io(format!("set_nonblocking: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| TmanError::Io(format!("local_addr: {e}")))?;
        let hub = DeliveryHub::open(system.database(), system.queue_watermark())?;
        system.events().register_sink(hub.clone());
        let registry = system.metrics_registry();
        registry.register_counter(
            "tman_wire_delivery_appends_total",
            &[],
            hub.appends().clone(),
        );
        registry.register_counter(
            "tman_wire_redelivery_suppressed_total",
            &[],
            hub.suppressed().clone(),
        );
        registry.register_counter(
            "tman_wire_delivery_acked_total",
            &[],
            hub.acked_rows().clone(),
        );
        registry.register_counter("tman_wire_acks_clamped_total", &[], hub.clamped().clone());
        registry.register_counter(
            "tman_wire_subscriber_stalls_total",
            &[],
            hub.stalled().clone(),
        );
        registry.register_counter("tman_wire_delivery_errors_total", &[], hub.errors().clone());
        hub.bind_instruments(registry, system.tracer().cloned());
        let metrics = WireMetrics::resolve(registry);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            let hub = hub.clone();
            std::thread::Builder::new()
                .name("tman-wire".into())
                .spawn(move || run_loop(system, listener, hub, stop, metrics))
                .map_err(|e| TmanError::Io(format!("spawn wire thread: {e}")))?
        };
        Ok(WireServer {
            addr: local,
            stop,
            thread: Some(thread),
            hub,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The durable delivery tier (watermarks, replay state).
    pub fn hub(&self) -> &Arc<DeliveryHub> {
        &self.hub
    }

    /// Stop the I/O thread and wait for it to exit. Idempotent. Durable
    /// subscriber state stays in the engine's database; clients see EOF
    /// and reconnect with their watermark after a restart.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run_loop(
    system: Arc<TriggerMan>,
    listener: TcpListener,
    hub: Arc<DeliveryHub>,
    stop: Arc<AtomicBool>,
    metrics: WireMetrics,
) {
    let this = std::thread::current();
    hub.set_waker(move || this.unpark());
    let mut conns: Vec<Conn> = Vec::new();
    let mut passes: u64 = 0;
    let mut buf = [0u8; READ_CHUNK];
    while !stop.load(Ordering::Relaxed) && !system.is_shutdown() {
        let mut activity = false;
        passes += 1;
        if passes.is_multiple_of(GC_PASS_INTERVAL) {
            hub.gc(system.queue_watermark());
        }

        // Accept everything ready.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream));
                    metrics.connections.inc();
                    activity = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Read + decode every connection; collect this pass's descriptors
        // (plus, for tokens that arrived with a propagated trace id, the
        // adopted handle and its decode stamp).
        let mut pass_batch: Vec<UpdateDescriptor> = Vec::new();
        let mut pass_traced: Vec<Traced> = Vec::new();
        let mut chunks: Vec<(Vec<UpdateDescriptor>, Vec<Traced>)> = Vec::new();
        for conn in conns.iter_mut() {
            if conn.dead || conn.close_after_flush {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&buf[..n]);
                        activity = true;
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            // Decode as many complete frames as the buffer holds.
            let rbuf = std::mem::take(&mut conn.rbuf);
            let mut off = 0usize;
            while off < rbuf.len() {
                match decode_frame(&rbuf[off..]) {
                    Ok(Some((frame, used))) => {
                        off += used;
                        metrics.frames_in.bump();
                        handle_frame(
                            conn,
                            frame,
                            &system,
                            &hub,
                            &metrics,
                            &mut pass_batch,
                            &mut pass_traced,
                        );
                        if conn.dead || conn.close_after_flush {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        conn.fail(error_code::PROTOCOL, e.to_string(), &metrics);
                        break;
                    }
                }
            }
            conn.rbuf = rbuf;
            conn.rbuf.drain(..off);
            // Force a group commit mid-pass rather than letting one
            // firehose connection grow the batch without bound.
            if pass_batch.len() >= BATCH_MAX {
                chunks.push((
                    std::mem::take(&mut pass_batch),
                    std::mem::take(&mut pass_traced),
                ));
            }
        }
        chunks.push((pass_batch, pass_traced));

        // Group-commit this pass's descriptors: one enqueue_batch (one
        // durability barrier on a persistent queue) per chunk, shared by
        // every contributing connection.
        let contributors = conns.iter().filter(|c| c.pass_tokens > 0).count() as u64;
        let mut commit_failed = false;
        for (tokens, traced) in chunks {
            if tokens.is_empty() {
                continue;
            }
            let n = tokens.len() as u64;
            let t0 = now_ns();
            match system.push_tokens(tokens) {
                Ok(()) => {
                    metrics.batches.bump();
                    metrics.tokens.add(n);
                    let t1 = now_ns();
                    if traced.is_empty() {
                        // No propagated trace context in this chunk: keep
                        // the per-batch sample on a fresh trace.
                        if let Some(tracer) = system.tracer() {
                            let handle = tracer.begin();
                            handle.record_complete(
                                SpanKind::Wire,
                                ROOT_SPAN,
                                t0,
                                t1.saturating_sub(t0),
                                n,
                                contributors,
                            );
                        }
                    } else {
                        // Close each propagated token's wire span: decode
                        // through group-commit, on the token's own trace.
                        for (handle, decoded_ns) in traced {
                            handle.record_complete(
                                SpanKind::Wire,
                                ROOT_SPAN,
                                decoded_ns,
                                t1.saturating_sub(decoded_ns),
                                n,
                                contributors,
                            );
                        }
                    }
                }
                Err(_) => commit_failed = true,
            }
            activity = true;
        }
        // Acknowledge every contributing source, replenishing credits
        // unless the engine queue is over the high-water mark.
        if contributors > 0 {
            let full = system.queue_len() >= QUEUE_HIGH_WATER;
            for conn in conns.iter_mut().filter(|c| c.pass_tokens > 0) {
                conn.pass_tokens = 0;
                if commit_failed {
                    conn.fail(error_code::INTERNAL, "group commit failed".into(), &metrics);
                    continue;
                }
                let grant = if full {
                    metrics.backpressure.bump();
                    // Start (or continue) this source's stall episode.
                    conn.stall_since.get_or_insert_with(now_ns);
                    0
                } else {
                    CREDITS.saturating_sub(conn.credits)
                };
                conn.credits += grant;
                if grant > 0 {
                    if let Some(t0) = conn.stall_since.take() {
                        metrics.credit_stall.record(now_ns().saturating_sub(t0));
                    }
                }
                conn.send(
                    &Frame::BatchAck {
                        through: conn.received,
                        credits: grant,
                    },
                    &metrics,
                );
            }
        }
        // A source stalled on withheld credits gets them back as soon as
        // the queue drains, without needing to send anything first.
        if system.queue_len() < QUEUE_HIGH_WATER {
            for conn in conns
                .iter_mut()
                .filter(|c| c.role == Role::Source && c.credits == 0 && !c.dead)
            {
                conn.credits = CREDITS;
                if let Some(t0) = conn.stall_since.take() {
                    metrics.credit_stall.record(now_ns().saturating_sub(t0));
                }
                conn.send(&Frame::Credit { credits: CREDITS }, &metrics);
            }
        }

        // Push pending notifications to connected subscribers. A
        // connection whose write buffer is already above the high-water
        // mark is skipped: its unflushed bytes bound server memory, and
        // everything left in the mailbox is durable in the delivery log.
        for conn in conns.iter_mut() {
            // Clone the handle so draining it can interleave with writes
            // to the same connection (crossbeam receivers are shared).
            let Some(rx) = conn.mailbox.clone() else {
                continue;
            };
            let mut sent = 0usize;
            while sent < NOTIFY_PER_PASS && conn.wbuf.len() < SUB_WBUF_HIGH_WATER {
                match rx.try_recv() {
                    Ok(d) => {
                        let frame = Frame::Notification {
                            seq: d.seq,
                            body: std::borrow::Cow::Owned(d.body),
                            trace_id: d.trace_id,
                            fire_unix_ns: d.fire_unix_ns,
                        };
                        conn.send(&frame, &metrics);
                        metrics.notifications.bump();
                        sent += 1;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // The hub dropped the sender (stalled subscriber):
                        // close so the client reconnects and replays from
                        // its watermark off the durable log.
                        conn.mailbox = None;
                        conn.close_after_flush = true;
                        break;
                    }
                }
            }
            // Publish the post-drain backlog into the subscriber's
            // mailbox-depth gauge (delta-updated).
            if let Some((gauge, last)) = conn.depth_gauge.as_mut() {
                let depth = conn.mailbox.as_ref().map(|rx| rx.len()).unwrap_or(0) as i64;
                gauge.add(depth - *last);
                *last = depth;
            }
            if sent > 0 {
                activity = true;
            }
        }

        // Flush write buffers.
        for conn in conns.iter_mut() {
            while !conn.wbuf.is_empty() && !conn.dead {
                match conn.stream.write(&conn.wbuf) {
                    Ok(0) => {
                        conn.dead = true;
                    }
                    Ok(n) => {
                        conn.wbuf.drain(..n);
                        activity = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => conn.dead = true,
                }
            }
            if conn.close_after_flush && conn.wbuf.is_empty() {
                conn.dead = true;
            }
        }

        // Retire dead connections.
        conns.retain(|c| {
            if c.dead {
                if let Some((name, epoch)) = &c.sub_name {
                    hub.detach(name, *epoch);
                }
                if let Some((gauge, last)) = &c.depth_gauge {
                    gauge.add(-*last);
                }
                metrics.connections.dec();
            }
            !c.dead
        });

        if !activity {
            // Ended early by the hub's unpark when a delivery is waiting.
            std::thread::park_timeout(IDLE_PARK);
        }
    }
    metrics.connections.add(-(conns.len() as i64));
}

/// Handle one decoded frame on one connection.
fn handle_frame(
    conn: &mut Conn,
    frame: Frame<'_>,
    system: &Arc<TriggerMan>,
    hub: &Arc<DeliveryHub>,
    metrics: &WireMetrics,
    pass_batch: &mut Vec<UpdateDescriptor>,
    pass_traced: &mut Vec<Traced>,
) {
    match frame {
        Frame::Hello {
            role,
            name,
            event,
            resume_from,
        } => {
            if conn.role != Role::Pending {
                conn.fail(error_code::PROTOCOL, "duplicate hello".into(), metrics);
                return;
            }
            if role == ROLE_SOURCE {
                match system.source(&name) {
                    Ok(info) => {
                        conn.role = Role::Source;
                        conn.credits = CREDITS;
                        conn.send(
                            &Frame::HelloAck {
                                credits: conn.credits,
                                source_id: info.id.raw(),
                                resume_from: 0,
                            },
                            metrics,
                        );
                    }
                    Err(e) => {
                        conn.fail(error_code::VALIDATION, e.to_string(), metrics);
                    }
                }
            } else {
                debug_assert_eq!(role, ROLE_SUBSCRIBER); // decoder rejects others
                let (tx, rx) = unbounded();
                match hub.register(&name, &event, resume_from, tx) {
                    Ok(reg) => {
                        conn.role = Role::Subscriber;
                        conn.depth_gauge = Some((
                            system
                                .metrics_registry()
                                .gauge("tman_wire_mailbox_depth", &[("sub", &name)]),
                            0,
                        ));
                        conn.sub_name = Some((name, reg.epoch));
                        conn.mailbox = Some(rx);
                        conn.send(
                            &Frame::HelloAck {
                                credits: 0,
                                source_id: 0,
                                resume_from: reg.watermark,
                            },
                            metrics,
                        );
                        // Exactly-once catch-up: replay every unacked log
                        // row above the effective watermark, in order,
                        // before any live delivery.
                        for d in reg.replay {
                            conn.send(
                                &Frame::Notification {
                                    seq: d.seq,
                                    body: std::borrow::Cow::Owned(d.body),
                                    trace_id: d.trace_id,
                                    fire_unix_ns: d.fire_unix_ns,
                                },
                                metrics,
                            );
                            metrics.notifications.bump();
                        }
                    }
                    Err(e) => {
                        conn.fail(error_code::VALIDATION, e.to_string(), metrics);
                    }
                }
            }
        }
        Frame::UpdateBatch {
            descriptors,
            trace_ids,
            sent_unix_ns,
        } => {
            if conn.role != Role::Source {
                conn.fail(
                    error_code::PROTOCOL,
                    "update batch before source hello".into(),
                    metrics,
                );
                return;
            }
            let n = descriptors.len() as u64;
            if n > conn.credits as u64 {
                conn.fail(
                    error_code::CREDIT_OVERRUN,
                    format!("{n} descriptors with {} credits", conn.credits),
                    metrics,
                );
                return;
            }
            // Wall-clock ingest stamp: the client's send stamp, else now for
            // a client that left it unset — either way every wire token gets
            // one, so the ingest→fire SLI covers it (minus the network hop).
            let ingest_unix = if sent_unix_ns != 0 {
                sent_unix_ns
            } else {
                unix_now_ns()
            };
            // Map the client's wall-clock send stamp onto the process-
            // local trace clock: the batch's send "happened" `age` ns ago.
            let age = unix_now_ns().saturating_sub(sent_unix_ns);
            for (i, raw) in descriptors.iter().enumerate() {
                let mut token = match UpdateDescriptor::decode(raw) {
                    Ok(t) => t,
                    Err(e) => {
                        conn.fail(error_code::PROTOCOL, e.to_string(), metrics);
                        return;
                    }
                };
                if let Err(e) = system.validate_token(&token) {
                    conn.fail(error_code::VALIDATION, e.to_string(), metrics);
                    return;
                }
                token.ingest_unix_ns = ingest_unix;
                let trace_id = trace_ids.get(i).copied().unwrap_or(0);
                if trace_id != 0 {
                    if let Some(tracer) = system.tracer() {
                        // Adopt the client's trace id (normal tail
                        // sampling applies) and synthesize the client-side
                        // send span from the batch stamp.
                        let decoded_ns = now_ns();
                        let handle = tracer.begin_with_id(trace_id);
                        if sent_unix_ns != 0 {
                            handle.record_complete(
                                SpanKind::WireSend,
                                ROOT_SPAN,
                                decoded_ns.saturating_sub(age),
                                age,
                                n,
                                0,
                            );
                        }
                        pass_traced.push((handle.clone(), decoded_ns));
                        token.trace = handle;
                    }
                }
                pass_batch.push(token);
            }
            conn.credits -= n as u32;
            conn.received += n;
            conn.pass_tokens += n;
        }
        Frame::Ack { watermark } => {
            let Some((name, _)) = conn.sub_name.clone() else {
                conn.fail(
                    error_code::PROTOCOL,
                    "ack before subscriber hello".into(),
                    metrics,
                );
                return;
            };
            match hub.ack(&name, watermark) {
                Ok(_) => metrics.acks.bump(),
                Err(e) => conn.fail(error_code::VALIDATION, e.to_string(), metrics),
            }
        }
        Frame::Goodbye => {
            conn.close_after_flush = true;
        }
        Frame::Error { .. } => {
            // Client-reported failure: close quietly.
            conn.close_after_flush = true;
        }
        // Server→client frames arriving at the server are protocol errors.
        Frame::HelloAck { .. }
        | Frame::BatchAck { .. }
        | Frame::Notification { .. }
        | Frame::Credit { .. } => {
            conn.fail(
                error_code::PROTOCOL,
                format!("unexpected {} frame", frame.kind_name()),
                metrics,
            );
        }
    }
}
