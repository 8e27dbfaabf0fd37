//! Frame-codec property coverage plus the malformed-input suite against a
//! live server.
//!
//! The codec properties are pure: every frame round-trips byte-exactly,
//! any prefix of an encoded frame decodes to "need more", and arbitrary
//! single-bit corruption is always rejected (or deferred for more bytes) —
//! never decoded into a different frame, never a panic. The live-server
//! suite then feeds truncated frames, CRC garbage, oversized length
//! prefixes and frames of another protocol version down real sockets and
//! asserts the server closes that connection cleanly, counts the error in
//! `tman_wire_protocol_errors_total`, and keeps serving everyone else.

use std::borrow::Cow;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_check::prelude::*;

use tman_common::Value;
use tman_wire::{
    crc32, decode_frame, error_code, frame_to_vec, Frame, RemoteClient, WireServer, HEADER_LEN,
    MAGIC, MAX_PAYLOAD, ROLE_SOURCE, ROLE_SUBSCRIBER, TRAILER_LEN, VERSION,
};
use triggerman::{Config, TriggerMan};

fn arb_text() -> impl Strategy<Value = String> {
    tman_check::string::chars(
        &[
            'a'..='z',
            'A'..='Z',
            '0'..='9',
            '_'..='_',
            ' '..=' ',
            '-'..='.',
            ':'..=':',
        ],
        0..=48,
    )
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    tman_check::collection::vec(any::<u8>(), 0..max)
}

fn arb_frame() -> impl Strategy<Value = Frame<'static>> {
    prop_oneof![
        (
            prop_oneof![Just(ROLE_SOURCE), Just(ROLE_SUBSCRIBER)],
            arb_text(),
            arb_text(),
            any::<u64>()
        )
            .prop_map(|(role, name, event, resume_from)| Frame::Hello {
                role,
                name,
                event,
                resume_from,
            }),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(credits, source_id, resume_from)| {
            Frame::HelloAck {
                credits,
                source_id,
                resume_from,
            }
        }),
        // Descriptors paired with their trace ids; `any::<u64>()` covers
        // both absent (0) and present trace context.
        (
            tman_check::collection::vec((arb_bytes(96), any::<u64>()), 0..8),
            any::<u64>()
        )
            .prop_map(|(ds, sent_unix_ns)| {
                let (descriptors, trace_ids): (Vec<_>, Vec<_>) = ds.into_iter().unzip();
                Frame::UpdateBatch {
                    descriptors: descriptors.into_iter().map(Cow::Owned).collect(),
                    trace_ids,
                    sent_unix_ns,
                }
            }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(through, credits)| Frame::BatchAck { through, credits }),
        (any::<u64>(), arb_bytes(160), any::<u64>(), any::<u64>()).prop_map(
            |(seq, body, trace_id, fire_unix_ns)| Frame::Notification {
                seq,
                body: Cow::Owned(body),
                trace_id,
                fire_unix_ns,
            }
        ),
        any::<u64>().prop_map(|watermark| Frame::Ack { watermark }),
        any::<u32>().prop_map(|credits| Frame::Credit { credits }),
        (any::<u16>(), arb_text()).prop_map(|(code, message)| Frame::Error { code, message }),
        Just(Frame::Goodbye),
    ]
}

/// Re-stamp an encoded frame with another protocol version, CRC re-sealed.
fn at_version(frame: &[u8], version: u8) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    bytes[2] = version;
    let body = bytes.len() - TRAILER_LEN;
    let crc = crc32(&bytes[2..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #[test]
    fn every_frame_roundtrips(frame in arb_frame()) {
        let bytes = frame_to_vec(&frame).unwrap();
        let (decoded, used) = decode_frame(&bytes).unwrap().expect("complete frame");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn any_prefix_asks_for_more(frame in arb_frame(), keep in any::<prop::sample::Index>()) {
        let bytes = frame_to_vec(&frame).unwrap();
        let keep = keep.index(bytes.len()); // 0..len, strictly short of a full frame
        prop_assert!(decode_frame(&bytes[..keep]).unwrap().is_none());
    }

    #[test]
    fn frames_decode_back_to_back(a in arb_frame(), b in arb_frame()) {
        let mut bytes = frame_to_vec(&a).unwrap();
        bytes.extend_from_slice(&frame_to_vec(&b).unwrap());
        let (da, used) = decode_frame(&bytes).unwrap().expect("first frame");
        prop_assert_eq!(da, a);
        let (db, used2) = decode_frame(&bytes[used..]).unwrap().expect("second frame");
        prop_assert_eq!(db, b);
        prop_assert_eq!(used + used2, bytes.len());
    }

    /// A well-formed frame of any other protocol version — valid CRC, as a
    /// peer that really speaks that version would send — is refused with an
    /// error naming the version, never decoded.
    #[test]
    fn other_versions_are_refused_by_name(frame in arb_frame(), v in 0u8..255) {
        let version = if v >= VERSION { v + 1 } else { v };
        let bytes = at_version(&frame_to_vec(&frame).unwrap(), version);
        match decode_frame(&bytes) {
            Err(e) => prop_assert!(
                e.to_string().contains(&format!("wire protocol version {version}")),
                "error does not name the version: {}", e
            ),
            Ok(_) => prop_assert!(false, "version {} frame accepted", version),
        }
    }

    /// A single flipped bit is never silently accepted: the decoder
    /// returns an error (magic/version/CRC/length check) or withholds
    /// judgement for more bytes — and never panics.
    #[test]
    fn bit_flips_are_rejected(
        frame in arb_frame(),
        at in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let mut bytes = frame_to_vec(&frame).unwrap();
        let at = at.index(bytes.len());
        bytes[at] ^= 1 << bit;
        match decode_frame(&bytes) {
            Err(_) | Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "corrupt frame decoded successfully"),
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in arb_bytes(256)) {
        let _ = decode_frame(&bytes);
    }
}

// ----- malformed input against a live server ----------------------------

fn serve() -> (Arc<TriggerMan>, WireServer) {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source s (k int, v varchar(16))")
        .unwrap();
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    (tman, server)
}

/// Send raw bytes and require the server to close the connection (clean
/// EOF or reset) well before the deadline — never hang, never crash.
fn expect_close(addr: SocketAddr, bytes: &[u8]) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    s.write_all(bytes).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = [0u8; 1024];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue, // the best-effort Error frame
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                assert!(
                    Instant::now() < deadline,
                    "server failed to close a poisoned connection"
                );
            }
            Err(_) => return, // reset counts as closed
        }
    }
}

fn wait_for(counter: &tman_telemetry::Counter, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter.get() < at_least {
        assert!(
            Instant::now() < deadline,
            "protocol error was never counted (have {}, want {at_least})",
            counter.get()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Hand-build a frame envelope with a valid CRC around raw payload bytes.
fn raw_frame(version: u8, ftype: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(ftype);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[2..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn malformed_input_fails_the_connection_not_the_server() {
    let (tman, server) = serve();
    let addr = server.local_addr();
    let errors = tman
        .metrics_registry()
        .counter("tman_wire_protocol_errors_total", &[]);
    let mut expected = errors.get();

    // Bad magic.
    expect_close(addr, b"XXim not a frame at all....");
    expected += 1;
    wait_for(&errors, expected);

    // Another protocol version (here with a stale CRC; the sealed case is
    // `a_peer_on_another_version_is_refused_by_name_and_alone`).
    let hello = frame_to_vec(&Frame::Hello {
        role: ROLE_SOURCE,
        name: "s".into(),
        event: String::new(),
        resume_from: 0,
    })
    .unwrap();
    let mut skewed = hello.clone();
    skewed[2] = VERSION + 1;
    expect_close(addr, &skewed);
    expected += 1;
    wait_for(&errors, expected);

    // Oversized length prefix: rejected from the 8-byte header alone,
    // before the server buffers a single payload byte.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&MAGIC);
    oversized.push(VERSION);
    oversized.push(0);
    oversized.extend_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
    expect_close(addr, &oversized);
    expected += 1;
    wait_for(&errors, expected);

    // CRC mismatch: flip a payload bit of a valid frame.
    let mut corrupt = hello.clone();
    corrupt[HEADER_LEN] ^= 0x40;
    expect_close(addr, &corrupt);
    expected += 1;
    wait_for(&errors, expected);

    // Unknown frame type with a *valid* CRC.
    expect_close(addr, &raw_frame(VERSION, 0xEE, b""));
    expected += 1;
    wait_for(&errors, expected);

    // Out-of-order protocol: an update batch before any hello.
    expect_close(
        addr,
        &frame_to_vec(&Frame::UpdateBatch {
            descriptors: vec![Cow::Owned(vec![1, 2, 3])],
            trace_ids: vec![0],
            sent_unix_ns: 0,
        })
        .unwrap(),
    );
    expected += 1;
    wait_for(&errors, expected);

    // A truncated frame followed by EOF closes cleanly (no hang) without
    // poisoning anything.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello[..hello.len() - 3]).unwrap();
    drop(s);

    assert_eq!(
        errors.get(),
        expected,
        "truncation-then-EOF is not a protocol error"
    );

    // The server is still healthy: a real client round-trips.
    let client = RemoteClient::new(addr.to_string());
    let mut src = client.data_source("s").unwrap();
    src.insert(vec![Value::Int(1), Value::str("ok")]).unwrap();
    src.sync().unwrap();
    assert_eq!(src.acked(), 1);
    tman.shutdown();
}

/// Read frames off a raw socket until the server closes it.
fn frames_until_close(s: &mut TcpStream) -> Vec<Frame<'static>> {
    let (mut got, mut frames) = (Vec::new(), Vec::new());
    let mut buf = [0u8; 1024];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => return frames,
            Ok(n) => got.extend_from_slice(&buf[..n]),
        }
        while let Some((frame, used)) = decode_frame(&got).unwrap() {
            frames.push(frame.into_owned());
            got.drain(..used);
        }
    }
}

/// A peer on any protocol version but [`VERSION`] — at hello, or on a
/// later frame of an established connection — gets a protocol error that
/// names its version and is disconnected. Connections opened before and
/// after it keep being served.
#[test]
fn a_peer_on_another_version_is_refused_by_name_and_alone() {
    let (tman, server) = serve();
    let addr = server.local_addr();
    let errors = tman
        .metrics_registry()
        .counter("tman_wire_protocol_errors_total", &[]);
    let client = RemoteClient::new(addr.to_string());
    let mut bystander = client.data_source("s").unwrap();

    let hello = frame_to_vec(&Frame::Hello {
        role: ROLE_SOURCE,
        name: "s".into(),
        event: String::new(),
        resume_from: 0,
    })
    .unwrap();
    let batch = frame_to_vec(&Frame::UpdateBatch {
        descriptors: Vec::new(),
        trace_ids: Vec::new(),
        sent_unix_ns: 0,
    })
    .unwrap();
    // (bytes sent, version the refusal must name, frames served before it)
    let cases = [
        (at_version(&hello, 1), 1, 0),
        (at_version(&hello, VERSION + 1), VERSION + 1, 0),
        ([hello.clone(), at_version(&batch, 1)].concat(), 1, 1),
    ];
    for (i, (bytes, version, served)) in cases.iter().enumerate() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(bytes).unwrap();
        let frames = frames_until_close(&mut s);
        assert_eq!(frames.len(), served + 1, "case {i}: {frames:?}");
        if *served == 1 {
            assert!(matches!(frames[0], Frame::HelloAck { .. }), "{frames:?}");
        }
        match frames.last().unwrap() {
            Frame::Error { code, message } => {
                assert_eq!(*code, error_code::PROTOCOL);
                assert!(
                    message.contains(&format!("wire protocol version {version}")),
                    "case {i}: {message}"
                );
            }
            other => panic!("case {i}: expected error, got {}", other.kind_name()),
        }
        wait_for(&errors, i as u64 + 1);
    }

    // The connection opened before the refusals and a fresh one both work.
    bystander
        .insert(vec![Value::Int(1), Value::str("before")])
        .unwrap();
    bystander.sync().unwrap();
    assert_eq!(bystander.acked(), 1);
    let mut fresh = client.data_source("s").unwrap();
    fresh
        .insert(vec![Value::Int(2), Value::str("after")])
        .unwrap();
    fresh.sync().unwrap();
    assert_eq!(fresh.acked(), 1);
    tman.shutdown();
}

#[test]
fn unknown_source_name_is_rejected_with_an_error_frame() {
    let (tman, server) = serve();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        &frame_to_vec(&Frame::Hello {
            role: ROLE_SOURCE,
            name: "no_such_source".into(),
            event: String::new(),
            resume_from: 0,
        })
        .unwrap(),
    )
    .unwrap();
    // Read until one whole frame arrives; it must be an Error.
    let mut got = Vec::new();
    let frame = loop {
        if let Some((frame, _)) = decode_frame(&got).unwrap() {
            break frame.into_owned();
        }
        let mut buf = [0u8; 256];
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed before the error frame");
        got.extend_from_slice(&buf[..n]);
    };
    match frame {
        Frame::Error { message, .. } => {
            assert!(message.contains("no_such_source"), "message: {message}")
        }
        other => panic!("expected error frame, got {}", other.kind_name()),
    }
    tman.shutdown();
}
