//! The length-framed binary protocol.
//!
//! Every frame on a TriggerMan wire connection has the same envelope:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x54 0x4D ("TM")
//! 2       1     version (2)
//! 3       1     frame type
//! 4       4     payload length, u32 LE (≤ MAX_PAYLOAD)
//! 8       n     payload
//! 8+n     4     CRC-32 (IEEE) over bytes 2..8+n, u32 LE
//! ```
//!
//! [`decode_frame`] is incremental: fed the front of a receive buffer it
//! returns `Ok(None)` ("need more bytes"), `Ok(Some((frame, consumed)))`,
//! or an error — bad magic, a version other than [`VERSION`] (the error
//! names the version found), an oversized length prefix, a
//! CRC mismatch, an unknown type, or a malformed payload. Any error is a
//! protocol error: the connection must send [`Frame::Error`] and close,
//! because framing can no longer be trusted.
//!
//! # Trace context on the wire
//!
//! Two payloads carry a token's trace across the network hop:
//!
//! * [`Frame::UpdateBatch`] carries a per-descriptor `trace_id` (0 = not
//!   traced) and one wall-clock `sent_unix_ns` send stamp for the batch.
//! * [`Frame::Notification`] carries the originating token's `trace_id`
//!   and the wall-clock `fire_unix_ns` at which the delivery row was
//!   appended.
//!
//! The bulk payloads ([`Frame::UpdateBatch`] descriptor bodies and
//! [`Frame::Notification`] bodies) are [`Cow`] slices: decoding borrows
//! straight out of the receive buffer (zero-copy — the server hands the
//! borrowed bytes to [`UpdateDescriptor::decode`] without an intermediate
//! allocation), while senders build `'static` owned frames.
//!
//! [`UpdateDescriptor::decode`]: tman_common::UpdateDescriptor::decode

use crate::crc::crc32;
use std::borrow::Cow;
use tman_common::{Result, TmanError, Tuple};
use triggerman::EventNotification;

/// Frame magic: "TM".
pub const MAGIC: [u8; 2] = [0x54, 0x4D];
/// The protocol version: [`encode_frame`] writes it and [`decode_frame`]
/// refuses a frame that carries any other.
pub const VERSION: u8 = 2;
/// Envelope bytes before the payload.
pub const HEADER_LEN: usize = 8;
/// CRC trailer bytes.
pub const TRAILER_LEN: usize = 4;
/// Largest accepted payload. A length prefix above this is rejected
/// *before* buffering, so a corrupt length cannot make the server allocate
/// gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Connection role declared in [`Frame::Hello`].
pub const ROLE_SOURCE: u8 = 0;
/// See [`ROLE_SOURCE`].
pub const ROLE_SUBSCRIBER: u8 = 1;

/// One protocol frame. Lifetime `'a` borrows bulk payloads from the
/// receive buffer on decode; owned (`'static`) frames are built for
/// sending.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<'a> {
    /// Connection opener. `role` is [`ROLE_SOURCE`] or [`ROLE_SUBSCRIBER`];
    /// `name` is the data-source name (sources) or the durable subscriber
    /// name (subscribers); `event` is the subscribed event (subscribers;
    /// empty for sources); `resume_from` is the subscriber's last durably
    /// acked sequence number (0 for a fresh subscriber, ignored for
    /// sources).
    Hello {
        role: u8,
        name: String,
        event: String,
        resume_from: u64,
    },
    /// Server reply to [`Frame::Hello`]. For sources: `credits` descriptors
    /// may be sent before waiting for an ack, and `source_id` is the
    /// catalog id to stamp into descriptors. For subscribers: `resume_from`
    /// is the server's durable watermark (delivery resumes above the max of
    /// both sides' watermarks).
    HelloAck {
        credits: u32,
        source_id: u32,
        resume_from: u64,
    },
    /// A batch of encoded update descriptors from a source connection.
    /// Each element of `descriptors` is one
    /// [`UpdateDescriptor::encode`](tman_common::UpdateDescriptor::encode)
    /// body; `trace_ids[i]` is descriptor `i`'s trace id (0 = untraced,
    /// also what a missing tail encodes as) and `sent_unix_ns` is the
    /// client's wall clock when the batch was flushed.
    UpdateBatch {
        descriptors: Vec<Cow<'a, [u8]>>,
        trace_ids: Vec<u64>,
        sent_unix_ns: u64,
    },
    /// Server acknowledgement of ingested descriptors: everything up to
    /// the `through`-th descriptor on this connection has been group-
    /// committed; `credits` replenishes the sender's window (0 = engine
    /// backpressure, wait for a later [`Frame::Credit`]).
    BatchAck { through: u64, credits: u32 },
    /// One event notification pushed to a subscriber: per-subscriber
    /// sequence number plus an encoded body (see
    /// [`encode_notification_body`]). `trace_id` is the originating
    /// token's trace id (0 = untraced) and `fire_unix_ns` is the server
    /// wall clock when the delivery row was appended.
    Notification {
        seq: u64,
        body: Cow<'a, [u8]>,
        trace_id: u64,
        fire_unix_ns: u64,
    },
    /// Subscriber → server: every notification with sequence number at or
    /// below `watermark` is fully processed and need never be redelivered.
    Ack { watermark: u64 },
    /// Standalone credit grant (backpressure release).
    Credit { credits: u32 },
    /// Fatal protocol or validation error; the sender closes after this.
    Error { code: u16, message: String },
    /// Clean shutdown of one direction.
    Goodbye,
}

const FT_HELLO: u8 = 0;
const FT_HELLO_ACK: u8 = 1;
const FT_UPDATE_BATCH: u8 = 2;
const FT_BATCH_ACK: u8 = 3;
const FT_NOTIFICATION: u8 = 4;
const FT_ACK: u8 = 5;
const FT_CREDIT: u8 = 6;
const FT_ERROR: u8 = 7;
const FT_GOODBYE: u8 = 8;

impl Frame<'_> {
    fn type_code(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FT_HELLO,
            Frame::HelloAck { .. } => FT_HELLO_ACK,
            Frame::UpdateBatch { .. } => FT_UPDATE_BATCH,
            Frame::BatchAck { .. } => FT_BATCH_ACK,
            Frame::Notification { .. } => FT_NOTIFICATION,
            Frame::Ack { .. } => FT_ACK,
            Frame::Credit { .. } => FT_CREDIT,
            Frame::Error { .. } => FT_ERROR,
            Frame::Goodbye => FT_GOODBYE,
        }
    }

    /// Detach the frame from the receive buffer it was decoded out of
    /// (clients that buffer frames across reads need owned payloads; the
    /// server consumes borrowed frames in place and never pays this copy).
    pub fn into_owned(self) -> Frame<'static> {
        match self {
            Frame::Hello {
                role,
                name,
                event,
                resume_from,
            } => Frame::Hello {
                role,
                name,
                event,
                resume_from,
            },
            Frame::HelloAck {
                credits,
                source_id,
                resume_from,
            } => Frame::HelloAck {
                credits,
                source_id,
                resume_from,
            },
            Frame::UpdateBatch {
                descriptors,
                trace_ids,
                sent_unix_ns,
            } => Frame::UpdateBatch {
                descriptors: descriptors
                    .into_iter()
                    .map(|d| Cow::Owned(d.into_owned()))
                    .collect(),
                trace_ids,
                sent_unix_ns,
            },
            Frame::BatchAck { through, credits } => Frame::BatchAck { through, credits },
            Frame::Notification {
                seq,
                body,
                trace_id,
                fire_unix_ns,
            } => Frame::Notification {
                seq,
                body: Cow::Owned(body.into_owned()),
                trace_id,
                fire_unix_ns,
            },
            Frame::Ack { watermark } => Frame::Ack { watermark },
            Frame::Credit { credits } => Frame::Credit { credits },
            Frame::Error { code, message } => Frame::Error { code, message },
            Frame::Goodbye => Frame::Goodbye,
        }
    }

    /// Human label for logs/metrics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::UpdateBatch { .. } => "update_batch",
            Frame::BatchAck { .. } => "batch_ack",
            Frame::Notification { .. } => "notification",
            Frame::Ack { .. } => "ack",
            Frame::Credit { .. } => "credit",
            Frame::Error { .. } => "error",
            Frame::Goodbye => "goodbye",
        }
    }
}

// ----- little-endian payload helpers ------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Length-prefixed (u16) UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    if s.len() > u16::MAX as usize {
        return Err(TmanError::Invalid("wire string too long".into()));
    }
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Bounds-checked cursor over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| TmanError::Corrupt("wire payload truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| TmanError::Corrupt("wire string is not UTF-8".into()))
    }
    fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(TmanError::Corrupt("trailing bytes in wire payload".into()));
        }
        Ok(())
    }
}

// ----- frame encode ------------------------------------------------------

/// Append one encoded frame (envelope + payload + CRC) to `out`.
pub fn encode_frame(frame: &Frame<'_>, out: &mut Vec<u8>) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.type_code());
    put_u32(out, 0); // length backpatched below
    let payload_start = out.len();
    match frame {
        Frame::Hello {
            role,
            name,
            event,
            resume_from,
        } => {
            out.push(*role);
            put_str(out, name)?;
            put_str(out, event)?;
            put_u64(out, *resume_from);
        }
        Frame::HelloAck {
            credits,
            source_id,
            resume_from,
        } => {
            put_u32(out, *credits);
            put_u32(out, *source_id);
            put_u64(out, *resume_from);
        }
        Frame::UpdateBatch {
            descriptors,
            trace_ids,
            sent_unix_ns,
        } => {
            if descriptors.len() > u32::MAX as usize {
                return Err(TmanError::Invalid("update batch too large".into()));
            }
            if trace_ids.len() > descriptors.len() {
                return Err(TmanError::Invalid(
                    "more trace ids than descriptors in update batch".into(),
                ));
            }
            put_u32(out, descriptors.len() as u32);
            put_u64(out, *sent_unix_ns);
            for (i, d) in descriptors.iter().enumerate() {
                if d.len() > u32::MAX as usize {
                    return Err(TmanError::Invalid("descriptor too large".into()));
                }
                put_u64(out, trace_ids.get(i).copied().unwrap_or(0));
                put_u32(out, d.len() as u32);
                out.extend_from_slice(d);
            }
        }
        Frame::BatchAck { through, credits } => {
            put_u64(out, *through);
            put_u32(out, *credits);
        }
        Frame::Notification {
            seq,
            body,
            trace_id,
            fire_unix_ns,
        } => {
            put_u64(out, *seq);
            put_u64(out, *trace_id);
            put_u64(out, *fire_unix_ns);
            out.extend_from_slice(body);
        }
        Frame::Ack { watermark } => put_u64(out, *watermark),
        Frame::Credit { credits } => put_u32(out, *credits),
        Frame::Error { code, message } => {
            put_u16(out, *code);
            put_str(out, message)?;
        }
        Frame::Goodbye => {}
    }
    let payload_len = out.len() - payload_start;
    if payload_len > MAX_PAYLOAD {
        out.truncate(start);
        return Err(TmanError::Invalid(format!(
            "frame payload {payload_len} exceeds MAX_PAYLOAD"
        )));
    }
    out[start + 4..start + 8].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&out[start + 2..]);
    put_u32(out, crc);
    Ok(())
}

/// Encode a frame into a fresh buffer (tests, simple clients).
pub fn frame_to_vec(frame: &Frame<'_>) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    encode_frame(frame, &mut out)?;
    Ok(out)
}

// ----- frame decode ------------------------------------------------------

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds only a prefix of a frame; read more bytes.
/// * `Ok(Some((frame, consumed)))` — one complete frame; the caller drops
///   the first `consumed` bytes.
/// * `Err(_)` — the stream is unrecoverable (bad magic, a version other
///   than [`VERSION`], oversized length, CRC mismatch, unknown type,
///   malformed payload); close the connection.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..2] != MAGIC {
        return Err(TmanError::Corrupt("bad frame magic".into()));
    }
    let version = buf[2];
    if version != VERSION {
        return Err(TmanError::Unsupported(format!(
            "wire protocol version {version} (this build speaks {VERSION})"
        )));
    }
    let ftype = buf[3];
    let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(TmanError::Corrupt(format!(
            "frame length {len} exceeds MAX_PAYLOAD"
        )));
    }
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let crc_stored = u32::from_le_bytes(buf[total - 4..total].try_into().unwrap());
    let crc_actual = crc32(&buf[2..HEADER_LEN + len]);
    if crc_stored != crc_actual {
        return Err(TmanError::Corrupt(format!(
            "frame CRC mismatch (stored {crc_stored:08x}, computed {crc_actual:08x})"
        )));
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let mut c = Cursor::new(payload);
    let frame = match ftype {
        FT_HELLO => {
            let role = c.u8()?;
            if role != ROLE_SOURCE && role != ROLE_SUBSCRIBER {
                return Err(TmanError::Corrupt(format!("unknown hello role {role}")));
            }
            let name = c.str()?;
            let event = c.str()?;
            let resume_from = c.u64()?;
            Frame::Hello {
                role,
                name,
                event,
                resume_from,
            }
        }
        FT_HELLO_ACK => Frame::HelloAck {
            credits: c.u32()?,
            source_id: c.u32()?,
            resume_from: c.u64()?,
        },
        FT_UPDATE_BATCH => {
            let n = c.u32()? as usize;
            // Each descriptor needs at least its trace id and its own
            // length prefix, so a hostile count cannot force a huge
            // allocation.
            if n > len / 12 {
                return Err(TmanError::Corrupt(
                    "descriptor count exceeds payload".into(),
                ));
            }
            let sent_unix_ns = c.u64()?;
            let mut descriptors = Vec::with_capacity(n);
            let mut trace_ids = Vec::with_capacity(n);
            for _ in 0..n {
                trace_ids.push(c.u64()?);
                let dn = c.u32()? as usize;
                descriptors.push(Cow::Borrowed(c.take(dn)?));
            }
            Frame::UpdateBatch {
                descriptors,
                trace_ids,
                sent_unix_ns,
            }
        }
        FT_BATCH_ACK => Frame::BatchAck {
            through: c.u64()?,
            credits: c.u32()?,
        },
        FT_NOTIFICATION => {
            let seq = c.u64()?;
            let (trace_id, fire_unix_ns) = (c.u64()?, c.u64()?);
            let body = c.take(payload.len() - c.pos)?;
            Frame::Notification {
                seq,
                body: Cow::Borrowed(body),
                trace_id,
                fire_unix_ns,
            }
        }
        FT_ACK => Frame::Ack {
            watermark: c.u64()?,
        },
        FT_CREDIT => Frame::Credit { credits: c.u32()? },
        FT_ERROR => Frame::Error {
            code: c.u16()?,
            message: c.str()?,
        },
        FT_GOODBYE => Frame::Goodbye,
        other => {
            return Err(TmanError::Corrupt(format!("unknown frame type {other}")));
        }
    };
    c.done()?;
    Ok(Some((frame, total)))
}

// ----- notification bodies ----------------------------------------------

/// Encode a notification *body* (everything except the per-subscriber
/// sequence number, which lives in the [`Frame::Notification`] envelope —
/// the same body is stored in the durable delivery log and replayed to any
/// reconnecting subscriber):
///
/// ```text
/// event    u16 len + UTF-8
/// trigger  u16 len + UTF-8
/// flags    u8 (bit0 = message present, bit1 = token_seq present)
/// [message u16 len + UTF-8]
/// [token_seq i64 LE]
/// values   Tuple encoding
/// ```
pub fn encode_notification_body(n: &EventNotification) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    put_str(&mut out, &n.event)?;
    put_str(&mut out, &n.trigger)?;
    let mut flags = 0u8;
    if n.message.is_some() {
        flags |= 1;
    }
    if n.token_seq.is_some() {
        flags |= 2;
    }
    out.push(flags);
    if let Some(m) = &n.message {
        put_str(&mut out, m)?;
    }
    if let Some(o) = n.token_seq {
        put_i64(&mut out, o);
    }
    Tuple::new(n.values.clone()).encode_into(&mut out);
    Ok(out)
}

/// Inverse of [`encode_notification_body`].
pub fn decode_notification_body(buf: &[u8]) -> Result<EventNotification> {
    let mut c = Cursor::new(buf);
    let event = c.str()?;
    let trigger = c.str()?;
    let flags = c.u8()?;
    let message = if flags & 1 != 0 { Some(c.str()?) } else { None };
    let token_seq = if flags & 2 != 0 { Some(c.i64()?) } else { None };
    let mut pos = c.pos;
    let tuple = Tuple::decode_from(buf, &mut pos)
        .map_err(|e| TmanError::Corrupt(format!("notification values invalid: {e}")))?;
    if pos != buf.len() {
        return Err(TmanError::Corrupt(
            "trailing bytes in notification body".into(),
        ));
    }
    Ok(EventNotification {
        event: event.into(),
        trigger: trigger.into(),
        values: tuple.values().to_vec(),
        message,
        token_seq,
        // Trace context rides the `Notification` envelope, not the
        // durable body; a decoded notification starts trace-less.
        trace: tman_telemetry::TraceHandle::none(),
        ingest_unix_ns: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_common::Value;

    #[test]
    fn envelope_roundtrip() {
        let f = Frame::Hello {
            role: ROLE_SUBSCRIBER,
            name: "dash-1".into(),
            event: "Fired".into(),
            resume_from: 42,
        };
        let bytes = frame_to_vec(&f).unwrap();
        let (got, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(got, f);
        // A prefix decodes to "need more".
        assert!(decode_frame(&bytes[..bytes.len() - 1]).unwrap().is_none());
    }

    #[test]
    fn crc_flip_is_rejected() {
        let f = Frame::Ack { watermark: 7 };
        let mut bytes = frame_to_vec(&f).unwrap();
        let idx = bytes.len() - TRAILER_LEN - 1;
        bytes[idx] ^= 0x01;
        assert!(decode_frame(&bytes).is_err());
    }

    #[test]
    fn notification_body_roundtrip() {
        let n = EventNotification {
            event: "Spike".into(),
            trigger: "t9".into(),
            values: vec![Value::str("AA"), Value::Float(1.5), Value::Null],
            message: Some("hello".into()),
            token_seq: Some(88),
            trace: tman_telemetry::TraceHandle::none(),
            ingest_unix_ns: 0,
        };
        let body = encode_notification_body(&n).unwrap();
        assert_eq!(decode_notification_body(&body).unwrap(), n);
    }

    #[test]
    fn batch_and_notification_carry_trace_context() {
        let batch = Frame::UpdateBatch {
            descriptors: vec![Cow::Owned(vec![1, 2, 3]), Cow::Owned(vec![4])],
            trace_ids: vec![0x8000_0000_0000_0001, 0],
            sent_unix_ns: 1_700_000_000_000_000_000,
        };
        let bytes = frame_to_vec(&batch).unwrap();
        let (got, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(got, batch);

        let note = Frame::Notification {
            seq: 9,
            body: Cow::Owned(vec![7, 7]),
            trace_id: 42,
            fire_unix_ns: 1_700_000_000_000_000_123,
        };
        let bytes = frame_to_vec(&note).unwrap();
        let (got, _) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(got, note);
    }

    #[test]
    fn other_versions_are_refused_by_name() {
        let f = Frame::Ack { watermark: 1 };
        for version in [1, VERSION + 1] {
            let mut bytes = frame_to_vec(&f).unwrap();
            bytes[2] = version;
            let err = decode_frame(&bytes).unwrap_err();
            assert!(matches!(err, TmanError::Unsupported(_)), "{err}");
            let named = format!("wire protocol version {version}");
            assert!(err.to_string().contains(&named), "{err}");
        }
    }
}
