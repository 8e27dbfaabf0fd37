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
use triggerman::{Config, QueueMode, TracingMode, TriggerMan};

fn engine() -> Arc<TriggerMan> {
    let tman = TriggerMan::open_memory(Config {
        tracing: TracingMode::Sampled(1),
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

/// `tman_wire_connections` is the wire tier's gauge of open connections:
/// it reads 2 while two sources are connected and 0 once both close.
#[test]
fn connections_gauge_counts_open_connections() {
    let tman = engine();
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    let client = RemoteClient::new(server.local_addr().to_string());
    let wait_for = |open: i64| {
        let line = format!("\ntman_wire_connections {open}\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = tman.render_text();
            if text.contains(&line) {
                return text;
            }
            assert!(Instant::now() < deadline, "never read {open}:\n{text}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let a = client.data_source("quotes").unwrap();
    let b = client.data_source("quotes").unwrap();
    let text = wait_for(2);
    assert!(
        text.contains("# TYPE tman_wire_connections gauge\n"),
        "{text}"
    );
    a.close().unwrap();
    b.close().unwrap();
    wait_for(0);
    tman.shutdown();
}

/// The exposition's shape: every (family, type, label keys) that
/// `render_text` prints for a file store with a persistent queue, full
/// tracing, and a wire server whose one source and one subscriber have
/// exchanged a token. A series that moves owner keeps its place here; one
/// that disappears, changes type or changes labels fails this test.
#[test]
fn exposition_families_types_and_label_keys_are_pinned() {
    let path = std::env::temp_dir().join(format!("tman_wire_exposition_{}.db", std::process::id()));
    let wal = path.with_extension("db.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let tman = TriggerMan::open_file(
        &path,
        Config {
            queue_mode: QueueMode::Persistent,
            tracing: TracingMode::Sampled(1),
            ..Default::default()
        },
    )
    .unwrap();
    tman.execute_command("define data source quotes (symbol varchar(12), price float)")
        .unwrap();
    tman.execute_command(
        "create trigger spike from quotes when quotes.price > 100 \
         do raise event Spike(quotes.symbol, quotes.price)",
    )
    .unwrap();
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    let drivers = tman.start_drivers();
    let client = RemoteClient::new(server.local_addr().to_string());
    let mut sub = client.subscribe("dash", "Spike", 0).unwrap();
    let mut src = client.data_source("quotes").unwrap();
    src.insert(vec![Value::str("ACME"), Value::Float(500.0)])
        .unwrap();
    src.sync().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let (seq, _) = loop {
        assert!(Instant::now() < deadline, "notification never arrived");
        if let Some(got) = sub.next(Duration::from_millis(500)).unwrap() {
            break got;
        }
    };
    sub.ack(seq).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.hub().watermark("dash") != Some(seq) {
        assert!(Instant::now() < deadline, "ack never reached the hub");
        std::thread::sleep(Duration::from_millis(5));
    }
    drivers.stop();

    let text = tman.render_text();
    let mut got = std::collections::BTreeSet::new();
    let mut family = ("", "");
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').unwrap();
            family = (name, kind);
            continue;
        }
        let series = line.split_once(' ').unwrap().0;
        let (name, labels) = series.split_once('{').unwrap_or((series, ""));
        assert!(name.starts_with(family.0), "{line} outside {}", family.0);
        let mut keys: Vec<&str> = labels
            .split(',')
            .filter_map(|pair| pair.split_once('=').map(|(k, _)| k))
            .filter(|&k| k != "quantile")
            .collect();
        keys.sort_unstable();
        let entry = format!("{} {} {}", family.0, family.1, keys.join(","));
        got.insert(entry.trim_end().to_string());
    }
    let want: std::collections::BTreeSet<String> =
        PINNED_EXPOSITION.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing {missing:#?}\nextra {extra:#?}"
    );

    drop(server);
    tman.shutdown();
    drop(tman);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

/// `family type [label-keys]`: keys comma-separated, `quantile` left out.
const PINNED_EXPOSITION: &[&str] = &[
    "tman_action_ns summary",
    "tman_actions_run_total counter",
    "tman_actions_total counter kind",
    "tman_cache_evictions_total counter",
    "tman_cache_hits_total counter",
    "tman_cache_misses_total counter",
    "tman_cache_pins_total counter",
    "tman_cache_resident gauge",
    "tman_checksum_failures_total counter",
    "tman_disk_syncs_total counter",
    "tman_driver_parked gauge",
    "tman_driver_parks_total counter",
    "tman_driver_tasks_total counter driver",
    "tman_driver_tokens_total counter driver",
    "tman_driver_wakeups_total counter",
    "tman_faults_injected_total counter",
    "tman_firings_total counter",
    "tman_index_entries gauge",
    "tman_index_matches_all_total counter",
    "tman_index_matches_total counter org",
    "tman_index_memory_bytes gauge",
    "tman_index_probes_all_total counter",
    "tman_index_probes_total counter org",
    "tman_index_residual_tests_total counter",
    "tman_index_signatures gauge",
    "tman_index_signatures_probed_total counter",
    "tman_index_tokens_total counter",
    "tman_io_retries_total counter",
    "tman_notifications_delivered_total counter",
    "tman_notifications_dropped_total counter",
    "tman_notify_fanout summary",
    "tman_page_reads_total counter",
    "tman_page_writes_total counter",
    "tman_pool_evictions_total counter",
    "tman_pool_hits_total counter",
    "tman_pool_misses_total counter",
    "tman_quarantined_pages_total counter",
    "tman_queue_corrupt_rows_total counter",
    "tman_queue_depth gauge",
    "tman_queue_dequeued_total counter",
    "tman_queue_enqueued_total counter",
    "tman_queue_wait_ns summary",
    "tman_queue_watermark gauge",
    "tman_queue_wm_flushes_total counter",
    "tman_tag_dedup_hits_total counter",
    "tman_tagged_entries gauge",
    "tman_task_errors_total counter",
    "tman_task_errors_total counter kind",
    "tman_test_calls_total counter",
    "tman_test_ns summary",
    "tman_test_threshold_expirations_total counter",
    "tman_tokens_processed_total counter",
    "tman_trace_events_dropped_total counter",
    "tman_trace_events_logged_total counter",
    "tman_trace_slow_retained_total counter",
    "tman_trace_tokens_discarded_total counter",
    "tman_trace_tokens_retained_total counter",
    "tman_trace_tokens_started_total counter",
    "tman_wal_appends_total counter",
    "tman_wal_bytes_total counter",
    "tman_wal_checkpoints_total counter",
    "tman_wal_fsyncs_total counter",
    "tman_wal_group_commit_ns summary",
    "tman_wal_group_commits_total counter",
    "tman_wal_replayed_records_total counter",
    "tman_window_fires_total counter",
    "tman_wire_acks_clamped_total counter",
    "tman_wire_acks_total counter",
    "tman_wire_backpressure_total counter",
    "tman_wire_batches_total counter",
    "tman_wire_connections gauge",
    "tman_wire_credit_stall_ns summary",
    "tman_wire_delivery_acked_total counter",
    "tman_wire_delivery_appends_total counter",
    "tman_wire_delivery_errors_total counter",
    "tman_wire_fire_to_ack_ns summary",
    "tman_wire_frames_total counter dir",
    "tman_wire_ingest_to_fire_ns summary",
    "tman_wire_mailbox_depth gauge sub",
    "tman_wire_notifications_sent_total counter",
    "tman_wire_protocol_errors_total counter",
    "tman_wire_redelivery_suppressed_total counter",
    "tman_wire_subscriber_stalls_total counter",
    "tman_wire_tokens_total counter",
    "tman_wire_watermark_lag gauge sub",
];
