//! End-to-end wire observability: one token driven from
//! `RemoteDataSource::insert` through fire, delivery, and subscriber ack
//! reassembles into a single span tree (client send → wire group commit →
//! queue wait → process → deliver → ack), the ingest→fire and fire→ack
//! SLI histograms fill in, and the engine's HTTP endpoint serves it all
//! as Prometheus text while the server is live.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tman_common::Value;
use tman_telemetry::SpanKind;
use tman_wire::{RemoteClient, WireServer};
use triggerman::{Config, TracingMode, TriggerMan};

fn engine() -> Arc<TriggerMan> {
    let tman = TriggerMan::open_memory(Config {
        tracing: TracingMode::Full,
        http_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    })
    .unwrap();
    tman.execute_command("define data source quotes (symbol varchar(12), price float)")
        .unwrap();
    tman.execute_command(
        "create trigger spike from quotes when quotes.price > 100 \
         do raise event Spike(quotes.symbol, quotes.price)",
    )
    .unwrap();
    tman
}

/// Plain HTTP/1.0 GET over a raw socket; returns (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn one_token_reassembles_into_one_span_tree_with_slis_and_http() {
    let tman = engine();
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    let drivers = tman.start_drivers();
    let client = RemoteClient::new(server.local_addr().to_string());

    let mut sub = client.subscribe("dash", "Spike", 0).unwrap();
    let mut src = client.data_source("quotes").unwrap();
    let trace_id = src
        .insert(vec![Value::str("ACME"), Value::Float(500.0)])
        .unwrap();
    assert_ne!(trace_id, 0, "client assigns a nonzero trace id");
    src.sync().unwrap();

    // The notification carries the originating token's trace context.
    let deadline = Instant::now() + Duration::from_secs(30);
    let got = loop {
        assert!(Instant::now() < deadline, "notification never arrived");
        if let Some(r) = sub.next_full(Duration::from_millis(500)).unwrap() {
            break r;
        }
    };
    assert_eq!(&*got.note.event, "Spike");
    assert_eq!(got.trace_id, trace_id, "notification names the origin");
    assert!(got.fire_unix_ns > 0, "fire carries a wall-clock stamp");

    // Ack closes the delivery span on the server.
    sub.ack(got.seq).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.hub().watermark("dash") != Some(got.seq) {
        assert!(Instant::now() < deadline, "ack never reached the hub");
        std::thread::sleep(Duration::from_millis(5));
    }

    // ONE reassembled tree holds the whole journey: client send, wire
    // group commit, queue wait, processing, delivery, and the ack.
    let want = [
        SpanKind::WireSend,
        SpanKind::Wire,
        SpanKind::QueueWait,
        SpanKind::Process,
        SpanKind::WireDeliver,
        SpanKind::WireAck,
    ];
    let deadline = Instant::now() + Duration::from_secs(10);
    let tree = loop {
        let snap = tman.trace_snapshot();
        let matching: Vec<_> = snap
            .traces
            .iter()
            .filter(|t| t.trace_id == trace_id)
            .collect();
        assert!(
            matching.len() <= 1,
            "trace id split across {} trees",
            matching.len()
        );
        if let Some(t) = matching.first() {
            if want.iter().all(|k| t.events.iter().any(|e| e.kind == *k)) {
                break (*t).clone();
            }
        }
        assert!(
            Instant::now() < deadline,
            "span tree never completed: have {:?}",
            matching
                .first()
                .map(|t| t.events.iter().map(|e| e.kind).collect::<Vec<_>>())
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    for kind in want {
        assert_eq!(
            tree.events.iter().filter(|e| e.kind == kind).count(),
            1,
            "expected exactly one {kind:?} span"
        );
    }

    // Both end-to-end SLI histograms are non-empty.
    let registry = tman.metrics_registry();
    let ingest_to_fire = registry
        .histogram("tman_wire_ingest_to_fire_ns", &[])
        .summary();
    assert!(ingest_to_fire.count >= 1, "ingest→fire SLI is empty");
    let fire_to_ack = registry
        .histogram("tman_wire_fire_to_ack_ns", &[])
        .summary();
    assert!(fire_to_ack.count >= 1, "fire→ack SLI is empty");

    // And the HTTP endpoint serves them as Prometheus text, live.
    let http = tman.http_local_addr().expect("http endpoint is serving");
    let (status, body) = http_get(http, "/metrics");
    assert!(status.contains("200"), "GET /metrics: {status}");
    assert!(
        body.contains("tman_wire_ingest_to_fire_ns"),
        "ingest→fire histogram missing from exposition"
    );
    assert!(
        body.contains("tman_wire_fire_to_ack_ns"),
        "fire→ack histogram missing from exposition"
    );
    let (status, body) = http_get(http, "/healthz");
    assert!(status.contains("200"), "GET /healthz: {status}");
    assert!(body.contains("ok"), "healthz body: {body}");
    let (status, body) = http_get(http, "/tracez");
    assert!(status.contains("200"), "GET /tracez: {status}");
    assert!(body.contains("traceEvents"), "tracez is not a chrome trace");

    drivers.stop();
    tman.shutdown();
}

#[test]
fn subscriber_gauges_and_trace_health_counters_export() {
    let tman = engine();
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    let drivers = tman.start_drivers();
    let client = RemoteClient::new(server.local_addr().to_string());

    let mut sub = client.subscribe("lagger", "Spike", 0).unwrap();
    let mut src = client.data_source("quotes").unwrap();
    const FIRES: usize = 10;
    for i in 0..FIRES {
        src.insert(vec![Value::str("ACME"), Value::Float(200.0 + i as f64)])
            .unwrap();
    }
    src.sync().unwrap();

    let mut seqs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while seqs.len() < FIRES {
        assert!(Instant::now() < deadline, "fires never arrived");
        if let Some((seq, _)) = sub.next(Duration::from_millis(500)).unwrap() {
            seqs.push(seq);
        }
    }

    // Everything delivered, nothing acked: the lag gauge reads the gap.
    let registry = tman.metrics_registry();
    let lag = registry.gauge("tman_wire_watermark_lag", &[("sub", "lagger")]);
    assert_eq!(lag.get(), FIRES as i64, "unacked fires show as lag");

    sub.ack(*seqs.last().unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while lag.get() != 0 {
        assert!(Instant::now() < deadline, "lag gauge never drained");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Trace-sampling health: full tracing retained every token, dropping
    // none — and the computed counters export it in the exposition.
    let stats = tman.trace_snapshot().stats;
    assert!(stats.events_logged > 0, "no trace events logged");
    assert_eq!(
        stats.events_dropped, 0,
        "ring dropped events under light load"
    );

    let http = tman.http_local_addr().expect("http endpoint is serving");
    let (status, body) = http_get(http, "/metrics");
    assert!(status.contains("200"), "GET /metrics: {status}");
    assert!(body.contains("tman_trace_events_logged_total"));
    assert!(body.contains("tman_trace_events_dropped_total"));
    assert!(body.contains("tman_wire_watermark_lag"));

    drivers.stop();
    tman.shutdown();
}
