//! The stock-alert scenario, split across processes the way §3 draws it:
//! data source programs and client applications talk to the trigger
//! system over the network, not through an in-process API.
//!
//! One process hosts the engine behind a [`tman_wire::WireServer`];
//! feeder threads connect as remote data sources and stream quotes
//! (credit-flow-controlled, group-committed into the update queue), and a
//! dashboard thread connects as a remote subscriber, receives every
//! `Spike` firing with a durable sequence number, and acks its watermark.
//! Kill and restart the dashboard and it resumes exactly where the last
//! ack left it — no duplicates, no gaps.
//!
//! ```sh
//! cargo run --release --example remote_stock_feed
//! ```

use rand::prelude::*;
use std::time::{Duration, Instant};
use tman_common::Value;
use tman_wire::{RemoteClient, WireServer};
use triggerman::{Config, TriggerMan};

const FEEDERS: usize = 4;
const QUOTES_PER_FEEDER: usize = 2_000;
const SYMBOLS: &[&str] = &[
    "ACME", "GLOBO", "INITECH", "HOOLI", "PIED", "UMBRel", "WAYNE", "STARK",
];

fn main() -> tman_common::Result<()> {
    // ----- server process: engine + wire tier ---------------------------
    let tman = TriggerMan::open_memory(Config::default())?;
    tman.execute_command("define data source quotes (symbol varchar(12), price float)")?;
    tman.execute_command(
        "create trigger spike from quotes when quotes.price > 550 \
         do raise event Spike(quotes.symbol, quotes.price)",
    )?;
    let server = WireServer::start(tman.clone(), "127.0.0.1:0")?;
    let drivers = tman.start_drivers();
    let addr = server.local_addr().to_string();
    println!("wire server on {addr}");

    // ----- client application: a dashboard subscribed to Spike ----------
    let dash_addr = addr.clone();
    let dashboard = std::thread::spawn(move || {
        let client = RemoteClient::new(dash_addr.clone());
        let mut sub = client
            .subscribe("dashboard", "Spike", 0)
            .expect("subscribe");
        let mut seen = 0u64;
        let mut last_seq = 0u64;
        let mut idle = 0u32;
        while idle < 20 {
            match sub.next(Duration::from_millis(100)).expect("next") {
                Some((seq, note)) => {
                    idle = 0;
                    seen += 1;
                    last_seq = seq;
                    if seen.is_multiple_of(50) {
                        // Ack every 50th spike; the watermark is durable,
                        // so a reconnect resumes exactly here.
                        sub.ack(seq).expect("ack");
                        println!(
                            "  [dashboard] {} spikes, acked through #{seq} ({:?})",
                            seen, note.values
                        );
                    }
                }
                None => idle += 1,
            }
        }
        if last_seq > 0 {
            sub.ack(last_seq).expect("final ack");
        }
        // Simulated crash + reconnect: resume from the durable watermark.
        drop(sub);
        let mut again = client
            .subscribe("dashboard", "Spike", last_seq)
            .expect("reconnect");
        assert_eq!(again.watermark(), last_seq);
        if let Some((seq, _)) = again.next(Duration::from_millis(200)).expect("next") {
            assert!(seq > last_seq, "acked spike #{seq} redelivered");
        }
        println!("  [dashboard] reconnected at watermark {last_seq}: nothing redelivered below it");
        seen
    });

    // ----- data source programs: remote quote feeders -------------------
    let t0 = Instant::now();
    let feeders: Vec<_> = (0..FEEDERS)
        .map(|f| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = RemoteClient::new(addr);
                let mut src = client.data_source("quotes").expect("data source");
                let mut rng = StdRng::seed_from_u64(7 + f as u64);
                for _ in 0..QUOTES_PER_FEEDER {
                    let sym = SYMBOLS[rng.gen_range(0..SYMBOLS.len())];
                    let price = rng.gen_range(1.0..600.0);
                    src.insert(vec![Value::str(sym), Value::Float(price)])
                        .expect("insert");
                }
                // One durability barrier covers the whole buffered burst.
                src.sync().expect("sync");
                let acked = src.acked();
                src.close().expect("close");
                acked
            })
        })
        .collect();
    let fed: u64 = feeders.into_iter().map(|f| f.join().expect("feeder")).sum();
    let dt = t0.elapsed();
    println!(
        "{FEEDERS} remote feeders shipped {fed} quotes in {dt:.2?} ({:.0} tokens/sec)",
        fed as f64 / dt.as_secs_f64()
    );

    let spikes = dashboard.join().expect("dashboard");
    println!(
        "dashboard received {spikes} spikes; server pushed {} notification frames",
        tman.metrics_registry()
            .counter("tman_wire_notifications_sent_total", &[])
            .get()
    );
    drivers.stop();
    Ok(())
}
