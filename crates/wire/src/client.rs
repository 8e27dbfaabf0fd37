//! Blocking client side of the wire protocol: [`RemoteDataSource`] feeds
//! update descriptors into a remote engine under credit-based flow
//! control, and [`RemoteSubscriber`] receives durable notification
//! streams with watermark acks.
//!
//! Both are deliberately simple synchronous `TcpStream` wrappers — the
//! scale lives on the server, which multiplexes thousands of these on one
//! poll loop. A data-source program buffers locally and [`flush`]es in
//! credit-window chunks, blocking only when the server withholds credits
//! (engine backpressure); [`sync`] additionally waits until every sent
//! descriptor has been group-committed. A subscriber processes
//! notifications and periodically [`ack`]s its watermark; after a crash on
//! either side it reconnects with that watermark and receives every fire
//! above it exactly once — the replay comes from the server's durable
//! delivery log.
//!
//! [`flush`]: RemoteDataSource::flush
//! [`sync`]: RemoteDataSource::sync
//! [`ack`]: RemoteSubscriber::ack

use std::borrow::Cow;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tman_common::{DataSourceId, Result, TmanError, Tuple, UpdateDescriptor, Value};
use tman_telemetry::unix_now_ns;
use triggerman::EventNotification;

use crate::frame::{
    decode_frame, decode_notification_body, encode_frame, Frame, ROLE_SOURCE, ROLE_SUBSCRIBER,
};

/// One framed, blocking TCP connection.
struct FrameStream {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl FrameStream {
    fn connect(addr: &str) -> Result<FrameStream> {
        let stream =
            TcpStream::connect(addr).map_err(|e| TmanError::Io(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(FrameStream {
            stream,
            rbuf: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame<'_>) -> Result<()> {
        let mut out = Vec::with_capacity(64);
        encode_frame(frame, &mut out)?;
        self.stream
            .write_all(&out)
            .map_err(|e| TmanError::Io(format!("wire send: {e}")))
    }

    /// Receive one frame. `timeout: None` blocks until a frame or EOF;
    /// with a timeout, `Ok(None)` means it elapsed first.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Frame<'static>>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some((frame, used)) = decode_frame(&self.rbuf)? {
                let owned = frame.into_owned();
                self.rbuf.drain(..used);
                return Ok(Some(owned));
            }
            match deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return Ok(None);
                    }
                    let _ = self.stream.set_read_timeout(Some(dl - now));
                }
                None => {
                    let _ = self.stream.set_read_timeout(None);
                }
            }
            let mut buf = [0u8; 8192];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(TmanError::Io("wire connection closed".into())),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(TmanError::Io(format!("wire recv: {e}"))),
            }
        }
    }

    /// Block for a frame (no timeout).
    fn recv_blocking(&mut self) -> Result<Frame<'static>> {
        match self.recv(None)? {
            Some(f) => Ok(f),
            None => Err(TmanError::Io("wire connection closed".into())),
        }
    }
}

fn server_error(code: u16, message: &str) -> TmanError {
    TmanError::Io(format!("server error {code}: {message}"))
}

/// Open a connection and complete the hello handshake.
fn connect_hello(addr: &str, hello: &Frame<'static>) -> Result<(FrameStream, Frame<'static>)> {
    let mut fs = FrameStream::connect(addr)?;
    fs.send(hello)?;
    match fs.recv_blocking()? {
        Frame::Error { code, message } => Err(server_error(code, &message)),
        ack => Ok((fs, ack)),
    }
}

/// Handle to a remote TriggerMan wire endpoint. Cheap; each
/// [`data_source`](RemoteClient::data_source) /
/// [`subscribe`](RemoteClient::subscribe) call opens its own connection.
pub struct RemoteClient {
    addr: String,
}

impl RemoteClient {
    /// Point at a server address (e.g. `"127.0.0.1:7070"`). No I/O yet.
    pub fn new(addr: impl Into<String>) -> RemoteClient {
        RemoteClient { addr: addr.into() }
    }

    /// The configured server address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a feeding connection for the named (already-created) data
    /// source.
    pub fn data_source(&self, source: &str) -> Result<RemoteDataSource> {
        RemoteDataSource::connect(&self.addr, source)
    }

    /// Open a durable subscription. `name` identifies the subscriber
    /// across reconnects; `event` filters (empty or `"*"` for all);
    /// `resume_from` is the client's own watermark — `0` for a fresh
    /// subscriber.
    pub fn subscribe(&self, name: &str, event: &str, resume_from: u64) -> Result<RemoteSubscriber> {
        RemoteSubscriber::connect(&self.addr, name, event, resume_from)
    }
}

/// A source-role connection: buffers descriptors locally and ships them in
/// credit-window batches.
pub struct RemoteDataSource {
    fs: FrameStream,
    source_id: DataSourceId,
    credits: u32,
    /// Descriptors sent over the connection's lifetime.
    sent: u64,
    /// Descriptors the server has group-committed (from `BatchAck`s).
    acked: u64,
    /// Encoded descriptors (plus their trace ids) not yet sent.
    buffer: Vec<(Vec<u8>, u64)>,
    /// Next client-originated trace id. Client ids live in the high-bit
    /// half of the id space (seeded from pid + wall clock), disjoint from
    /// server-originated ids, so adopting one on the server can't collide
    /// with the server tracer's own counter.
    next_trace: u64,
}

impl RemoteDataSource {
    fn connect(addr: &str, source: &str) -> Result<RemoteDataSource> {
        let hello = Frame::Hello {
            role: ROLE_SOURCE,
            name: source.to_string(),
            event: String::new(),
            resume_from: 0,
        };
        let (fs, ack) = connect_hello(addr, &hello)?;
        match ack {
            Frame::HelloAck {
                credits, source_id, ..
            } => Ok(RemoteDataSource {
                fs,
                source_id: DataSourceId(source_id),
                credits,
                sent: 0,
                acked: 0,
                buffer: Vec::new(),
                next_trace: (u64::from(std::process::id()) << 32) ^ unix_now_ns(),
            }),
            other => Err(TmanError::Io(format!(
                "expected hello ack, got {}",
                other.kind_name()
            ))),
        }
    }

    /// The server-resolved catalog id of this source.
    pub fn source_id(&self) -> DataSourceId {
        self.source_id
    }

    /// Buffer an insert of `values` (call [`flush`](Self::flush) to ship).
    /// Returns the descriptor's trace id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<u64> {
        self.push(UpdateDescriptor::insert(self.source_id, Tuple::new(values)))
    }

    /// Buffer an arbitrary pre-built descriptor. Returns the trace id the
    /// descriptor will carry on the wire (a server with tracing enabled
    /// adopts it, so the client can correlate its sends with server-side
    /// span trees).
    pub fn push(&mut self, token: UpdateDescriptor) -> Result<u64> {
        self.next_trace = self.next_trace.wrapping_add(1);
        let trace_id = (1 << 63) | (self.next_trace & (u64::MAX >> 1));
        self.buffer.push((token.encode(), trace_id));
        Ok(trace_id)
    }

    /// Descriptors buffered but not yet sent.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Ship everything buffered, in chunks no larger than the current
    /// credit window. Blocks while the server withholds credits
    /// (backpressure) — never drops.
    pub fn flush(&mut self) -> Result<()> {
        while !self.buffer.is_empty() {
            while self.credits == 0 {
                self.pump(None)?;
            }
            let take = (self.credits as usize).min(self.buffer.len());
            let descriptors: Vec<Cow<'_, [u8]>> = self.buffer[..take]
                .iter()
                .map(|(d, _)| Cow::Borrowed(d.as_slice()))
                .collect();
            let trace_ids: Vec<u64> = self.buffer[..take].iter().map(|(_, t)| *t).collect();
            self.fs.send(&Frame::UpdateBatch {
                descriptors,
                trace_ids,
                sent_unix_ns: unix_now_ns(),
            })?;
            self.buffer.drain(..take);
            self.credits -= take as u32;
            self.sent += take as u64;
        }
        Ok(())
    }

    /// [`flush`](Self::flush), then block until the server has group-
    /// committed every descriptor sent on this connection. After `sync`
    /// returns, the updates are as durable as the engine's queue mode
    /// makes them.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        while self.acked < self.sent {
            self.pump(None)?;
        }
        Ok(())
    }

    /// Descriptors acknowledged as committed so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Process one server frame (acks, credit grants, errors).
    fn pump(&mut self, timeout: Option<Duration>) -> Result<()> {
        let Some(frame) = self.fs.recv(timeout)? else {
            return Ok(());
        };
        match frame {
            Frame::BatchAck { through, credits } => {
                self.acked = self.acked.max(through);
                self.credits += credits;
            }
            Frame::Credit { credits } => self.credits += credits,
            Frame::Error { code, message } => return Err(server_error(code, &message)),
            _ => {} // nothing else is meaningful on a source connection
        }
        Ok(())
    }

    /// Polite close (flushes first).
    pub fn close(mut self) -> Result<()> {
        self.flush()?;
        self.fs.send(&Frame::Goodbye)
    }
}

/// One delivery as received by a subscriber, including the wire-level
/// trace context the server attaches.
#[derive(Debug, Clone)]
pub struct ReceivedNotification {
    /// Per-subscriber sequence number; pass to [`RemoteSubscriber::ack`].
    pub seq: u64,
    /// Trace id of the originating token (0 if untraced).
    pub trace_id: u64,
    /// Server wall clock (unix ns) when the fire was published.
    pub fire_unix_ns: u64,
    /// The decoded notification body.
    pub note: EventNotification,
}

/// A subscriber-role connection: a durable, watermark-acked notification
/// stream.
pub struct RemoteSubscriber {
    fs: FrameStream,
    watermark: u64,
}

impl RemoteSubscriber {
    fn connect(addr: &str, name: &str, event: &str, resume_from: u64) -> Result<RemoteSubscriber> {
        let hello = Frame::Hello {
            role: ROLE_SUBSCRIBER,
            name: name.to_string(),
            event: event.to_string(),
            resume_from,
        };
        let (fs, ack) = connect_hello(addr, &hello)?;
        match ack {
            Frame::HelloAck { resume_from, .. } => Ok(RemoteSubscriber {
                fs,
                watermark: resume_from,
            }),
            other => Err(TmanError::Io(format!(
                "expected hello ack, got {}",
                other.kind_name()
            ))),
        }
    }

    /// The effective watermark negotiated at connect time (max of the
    /// server's durable row and the `resume_from` this client presented):
    /// the first delivery will have sequence number above it.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Receive the next notification, waiting up to `timeout`. Returns the
    /// per-subscriber sequence number (pass it to [`ack`](Self::ack) once
    /// processed) and the decoded notification.
    pub fn next(&mut self, timeout: Duration) -> Result<Option<(u64, EventNotification)>> {
        Ok(self.next_full(timeout)?.map(|r| (r.seq, r.note)))
    }

    /// Like [`next`](Self::next) but exposes the wire trace context
    /// (trace id + server fire timestamp) alongside the notification.
    pub fn next_full(&mut self, timeout: Duration) -> Result<Option<ReceivedNotification>> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            match self.fs.recv(Some(deadline - now))? {
                Some(Frame::Notification {
                    seq,
                    body,
                    trace_id,
                    fire_unix_ns,
                }) => {
                    let note = decode_notification_body(&body)?;
                    return Ok(Some(ReceivedNotification {
                        seq,
                        trace_id,
                        fire_unix_ns,
                        note,
                    }));
                }
                Some(Frame::Error { code, message }) => return Err(server_error(code, &message)),
                Some(_) | None => continue,
            }
        }
    }

    /// Acknowledge every delivery with sequence number at or below
    /// `through`. The server advances the durable watermark; after a crash
    /// and reconnect, delivery resumes strictly above it.
    pub fn ack(&mut self, through: u64) -> Result<()> {
        self.fs.send(&Frame::Ack { watermark: through })
    }

    /// Polite close.
    pub fn close(mut self) -> Result<()> {
        self.fs.send(&Frame::Goodbye)
    }
}
