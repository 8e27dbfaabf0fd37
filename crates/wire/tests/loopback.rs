//! End-to-end loopback: remote sources feed a live engine over TCP,
//! triggers fire, a remote subscriber receives the notifications, acks
//! its watermark, and reconnecting never redelivers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tman_common::Value;
use tman_wire::{RemoteClient, RemoteSubscriber, WireServer};
use triggerman::{Config, QueueMode, TriggerMan};

fn engine(cfg: Config) -> Arc<TriggerMan> {
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source quotes (symbol varchar(12), price float)")
        .unwrap();
    tman.execute_command(
        "create trigger spike from quotes when quotes.price > 100 \
         do raise event Spike(quotes.symbol, quotes.price)",
    )
    .unwrap();
    tman
}

fn collect(sub: &mut RemoteSubscriber, n: usize) -> Vec<(u64, f64)> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::new();
    while got.len() < n {
        assert!(
            Instant::now() < deadline,
            "timed out with {}/{n} notifications",
            got.len()
        );
        if let Some((seq, note)) = sub.next(Duration::from_millis(500)).unwrap() {
            assert_eq!(&*note.event, "Spike");
            let price = match note.values[1] {
                Value::Float(f) => f,
                ref v => panic!("unexpected value {v:?}"),
            };
            got.push((seq, price));
        }
    }
    got
}

#[test]
fn insert_fire_notify_ack_roundtrip() {
    let tman = engine(Config::default());
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    let drivers = tman.start_drivers();
    let client = RemoteClient::new(server.local_addr().to_string());

    let mut sub = client.subscribe("dash", "Spike", 0).unwrap();
    assert_eq!(sub.watermark(), 0);

    let mut src = client.data_source("quotes").unwrap();
    const FIRES: usize = 40;
    for i in 0..FIRES {
        src.insert(vec![Value::str("ACME"), Value::Float(200.0 + i as f64)])
            .unwrap();
        // Interleave tokens that match nothing.
        src.insert(vec![Value::str("ACME"), Value::Float(1.0)])
            .unwrap();
    }
    src.sync().unwrap();
    assert_eq!(src.acked(), (FIRES * 2) as u64);

    // Every spike arrives, with contiguous sequence numbers from 1.
    let got = collect(&mut sub, FIRES);
    let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (1..=FIRES as u64).collect::<Vec<_>>());

    // Ack the lot; the durable watermark catches up.
    let last = *seqs.last().unwrap();
    sub.ack(last).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.hub().watermark("dash") != Some(last) {
        assert!(Instant::now() < deadline, "ack never reached the hub");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.hub().resident_len("dash"), Some(0));
    assert!(sub.next(Duration::from_millis(200)).unwrap().is_none());

    // Reconnecting — with or without a client-side watermark — redelivers
    // nothing at or below the ack.
    drop(sub);
    let mut again = client.subscribe("dash", "Spike", last).unwrap();
    assert_eq!(again.watermark(), last);
    assert!(again.next(Duration::from_millis(200)).unwrap().is_none());
    let mut fresh = client.subscribe("dash", "Spike", 0).unwrap();
    assert_eq!(fresh.watermark(), last, "server watermark wins");
    assert!(fresh.next(Duration::from_millis(200)).unwrap().is_none());

    drivers.stop();
}

#[test]
fn many_sources_share_group_commits() {
    let tman = engine(Config::default());
    let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
    let drivers = tman.start_drivers();
    let addr = server.local_addr().to_string();

    let mut sub = RemoteClient::new(addr.clone())
        .subscribe("agg", "Spike", 0)
        .unwrap();

    const SOURCES: usize = 8;
    const PER_SOURCE: usize = 64;
    let feeders: Vec<_> = (0..SOURCES)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = RemoteClient::new(addr);
                let mut src = client.data_source("quotes").unwrap();
                for i in 0..PER_SOURCE {
                    src.insert(vec![
                        Value::str(format!("S{t}")),
                        Value::Float(101.0 + i as f64),
                    ])
                    .unwrap();
                    if i % 16 == 15 {
                        src.flush().unwrap();
                    }
                }
                src.sync().unwrap();
                src.close().unwrap();
            })
        })
        .collect();
    for f in feeders {
        f.join().unwrap();
    }

    let total = SOURCES * PER_SOURCE;
    let got = collect(&mut sub, total);
    // One durable stream: contiguous seqs regardless of which connection
    // produced the token.
    let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (1..=total as u64).collect::<Vec<_>>());
    sub.ack(total as u64).unwrap();

    let registry = tman.metrics_registry();
    assert_eq!(
        registry.counter("tman_wire_tokens_total", &[]).get(),
        total as u64
    );
    let batches = registry.counter("tman_wire_batches_total", &[]).get();
    assert!(batches >= 1, "no group commit recorded");
    assert!(
        batches
            <= registry
                .counter("tman_wire_frames_total", &[("dir", "in")])
                .get(),
        "sanity: batches bounded by inbound frames"
    );
    // The delivery log took every fire and none of its writes failed,
    // read where an operator would; and the error series is the hub's own
    // counter.
    assert_eq!(tman.metrics_snapshot().wire.delivery_appends, total as u64);
    let errors = || {
        registry
            .counter("tman_wire_delivery_errors_total", &[])
            .get()
    };
    assert_eq!(errors(), 0);
    server.hub().errors().bump();
    assert_eq!(errors(), 1);
    assert!(tman
        .render_text()
        .contains("tman_wire_delivery_errors_total 1"));
    drivers.stop();
}

#[test]
fn persistent_queue_pays_sub_token_syncs() {
    let path = std::env::temp_dir().join(format!("tman_wire_loopback_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let tman = TriggerMan::open_file(
        &path,
        Config {
            queue_mode: QueueMode::Persistent,
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
    let client = RemoteClient::new(server.local_addr().to_string());
    // Since the WAL refactor the durability barrier on enqueue is the log
    // fsync; the page file is written only at checkpoint.
    let syncs = tman
        .metrics_registry()
        .counter("tman_wal_fsyncs_total", &[]);
    let before = syncs.get();

    const TOKENS: usize = 100;
    let mut src = client.data_source("quotes").unwrap();
    for i in 0..TOKENS {
        src.insert(vec![Value::str("ACME"), Value::Float(150.0 + i as f64)])
            .unwrap();
    }
    src.sync().unwrap();

    // Group commit: the whole burst is durable for a handful of fsyncs,
    // not one per token.
    let spent = syncs.get() - before;
    assert!(spent >= 1, "persistent enqueue never synced");
    assert!(
        spent <= 10,
        "{spent} syncs for {TOKENS} tokens — group commit is not amortizing"
    );

    // And the durably queued tokens actually fire.
    let mut sub = client.subscribe("dash", "Spike", 0).unwrap();
    let drivers = tman.start_drivers();
    let got = collect(&mut sub, TOKENS);
    sub.ack(got.last().unwrap().0).unwrap();
    drivers.stop();
    drop(server);
    let _ = std::fs::remove_file(&path);
}
