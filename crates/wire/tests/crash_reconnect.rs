//! End-to-end crash/reconnect contract for the wire tier.
//!
//! Mirrors `tests/crash_recovery.rs`, but the tokens arrive over TCP and
//! the fires leave over TCP. Each case:
//!
//! * **Phase A** (reliable disk): a remote source feeds N tokens, a remote
//!   subscriber receives all N fires and acks its watermark, and a
//!   checkpoint makes the whole prefix durable.
//! * **Phase B** (armed [`FaultPlan`]): the subscriber is gone; more
//!   tokens stream in over the wire with **no acks** until the seeded
//!   crash point freezes the disk mid-workload. Serials whose wire-level
//!   batch ack arrived before a successful checkpoint form the durable
//!   oracle, exactly like the in-process harness.
//! * **Restart**: the disk thaws, a fresh engine + server come up on a new
//!   port, and the subscriber reconnects presenting its old watermark. It
//!   must receive the fire of every durable phase-B token **exactly
//!   once**, every delivered sequence number strictly above the watermark,
//!   and nothing at or below it (no phase-A redelivery).
//! * **Clean restart**: after acking and checkpointing, one more
//!   stop/start cycle delivers nothing at all.
//!
//! Every schedule derives from the case number, so a failure replays
//! exactly. `WIRE_CRASH_CASES` bounds the default run; the `#[ignore]`d
//! sweep covers 32 cases. Case 12 — the schedule that once persisted a
//! queue ack ahead of its delivery-log append — additionally runs
//! unconditionally as `wal_closes_ack_before_append_gap`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tman_common::Value;
use tman_storage::{FaultConfig, FaultPlan};
use tman_wire::{RemoteClient, RemoteDataSource, RemoteSubscriber, WireServer};
use triggerman::{Config, QueueMode, TriggerMan};

/// Phase-A prefix: every one of these is fired, acked, and checkpointed.
const PHASE_A: u64 = 24;
/// Safety valve: give up on a case if the crash point somehow never fires.
const MAX_OPS: u64 = 2_000;

/// Thread id in the name keeps concurrently-running tests (e.g. the full
/// sweep and the named case-12 regression under `--include-ignored`) from
/// sharing a database file.
fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tman_wire_crash_{tag}_{}_{:?}.db",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Remove a database file and its write-ahead-log sidecar.
fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

/// Unique identity of the `serial`-th insert, as observed in a `Fired`
/// event (`values[1]` carries the row's varchar tag).
fn token_id(serial: u64) -> String {
    format!("{:?}", Value::str(format!("t{serial}")))
}

fn insert_serial(src: &mut RemoteDataSource, serial: u64) -> bool {
    src.insert(vec![
        Value::Int(serial as i64),
        Value::str(format!("t{serial}")),
    ])
    .is_ok()
        && src.sync().is_ok()
}

/// Drain the subscriber until it stays silent for one timeout window,
/// recording `(seq, token id)` pairs in delivery order.
fn drain(sub: &mut RemoteSubscriber) -> Vec<(u64, String)> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match sub.next(Duration::from_millis(400)).unwrap() {
            Some((seq, note)) => {
                assert_eq!(&*note.event, "Fired");
                got.push((seq, format!("{:?}", note.values[1])));
                assert!(Instant::now() < deadline, "subscriber never went idle");
            }
            None => return got,
        }
    }
}

fn wait_watermark(server: &WireServer, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.hub().watermark(name) != Some(want) {
        assert!(
            Instant::now() < deadline,
            "ack watermark never reached {want} (have {:?})",
            server.hub().watermark(name)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn crash_case(case: u64) {
    let path = tmpfile(&format!("case{case}"));
    cleanup(&path);
    let plan = FaultPlan::new(FaultConfig {
        seed: 0x511E ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        crash_after_writes: Some(5 + (case * 11) % 160),
        torn_per_mille: 25,
        transient_per_mille: 40,
        ..Default::default()
    });
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        faults: Some(plan.clone()),
        ..Default::default()
    };

    // Serials whose wire batch ack landed, partitioned by whether a later
    // checkpoint succeeded (durable) or not yet (pending) at crash time.
    let mut durable: Vec<u64> = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    let client_watermark;
    {
        let tman = TriggerMan::open_file(&path, cfg).unwrap();
        let mut server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
        let client = RemoteClient::new(server.local_addr().to_string());

        // ----- phase A: reliable disk, all of this becomes durable -------
        tman.execute_command("define data source s (k int, v varchar(16))")
            .unwrap();
        tman.execute_command(
            "create trigger fired from s when s.k >= 0 do raise event Fired(s.k, s.v)",
        )
        .unwrap();
        let mut sub = client.subscribe("dash", "Fired", 0).unwrap();
        let mut src = client.data_source("s").unwrap();
        for serial in 0..PHASE_A {
            assert!(insert_serial(&mut src, serial), "phase-A insert failed");
        }
        tman.run_until_quiescent().unwrap();
        let got = drain(&mut sub);
        assert_eq!(got.len() as u64, PHASE_A, "case {case}: phase-A fires");
        sub.ack(PHASE_A).unwrap();
        wait_watermark(&server, "dash", PHASE_A);
        assert_eq!(server.hub().resident_len("dash"), Some(0));
        tman.checkpoint().unwrap();
        client_watermark = PHASE_A;
        // The subscriber disappears before the faults arm: everything from
        // here on is delivered only through the durable log after restart.
        drop(sub);

        // ----- phase B: armed; failures tolerated, successes tracked -----
        plan.arm();
        let mut live = Some(src);
        let mut serial = PHASE_A;
        while !plan.crashed() && serial < MAX_OPS {
            if live.is_none() {
                live = client.data_source("s").ok();
            }
            if let Some(s) = live.as_mut() {
                if insert_serial(s, serial) {
                    pending.push(serial);
                } else {
                    live = None; // the server failed the connection; retry
                }
            }
            serial += 1;
            if serial.is_multiple_of(4) && tman.checkpoint().is_ok() {
                durable.append(&mut pending);
            }
            if serial.is_multiple_of(7) {
                let _ = tman.run_until_quiescent();
            }
        }
        assert!(plan.crashed(), "case {case}: crash point never fired");
        // Tear the server down with the disk still frozen, then drop the
        // engine — a process kill, as the storage layer sees it.
        server.stop();
    }

    // ----- restart: thaw the disk, reopen + reconnect --------------------
    plan.reset_crash();
    plan.disarm();
    let cfg_clean = Config {
        queue_mode: QueueMode::Persistent,
        ..Default::default()
    };
    let final_watermark;
    {
        let tman = TriggerMan::open_file(&path, cfg_clean.clone()).unwrap();
        let mut server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
        let client = RemoteClient::new(server.local_addr().to_string());

        // Reconnect presenting the pre-crash watermark; the server's
        // durable watermark must agree.
        let mut sub = client.subscribe("dash", "Fired", client_watermark).unwrap();
        assert_eq!(
            sub.watermark(),
            client_watermark,
            "case {case}: durable watermark diverged from the client's"
        );

        // Replay everything the queue redelivers, then drain the wire.
        tman.run_until_quiescent().unwrap();
        assert_eq!(tman.queue_len(), 0, "case {case}: queue not drained");
        let got = drain(&mut sub);

        // Sequences: strictly ascending, all above the ack watermark.
        let mut prev = client_watermark;
        for &(seq, _) in &got {
            assert!(
                seq > prev,
                "case {case}: seq {seq} not above {prev} — redelivery below \
                 the watermark or out of order"
            );
            prev = seq;
        }

        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (_, id) in &got {
            *counts.entry(id.clone()).or_default() += 1;
        }
        // No phase-A token is ever redelivered.
        for serial in 0..PHASE_A {
            assert!(
                !counts.contains_key(&token_id(serial)),
                "case {case}: acked phase-A token t{serial} redelivered"
            );
        }
        // Exactly-once: nothing arrives twice...
        for (id, &n) in &counts {
            assert!(
                n == 1,
                "case {case}: token {id} delivered {n} times after reconnect"
            );
        }
        // ...and every durable phase-B token arrives.
        for &serial in &durable {
            assert!(
                counts.contains_key(&token_id(serial)),
                "case {case}: durable token t{serial} was lost across the crash"
            );
        }

        // Ack the new frontier and make it durable.
        final_watermark = got.last().map(|&(seq, _)| seq).unwrap_or(client_watermark);
        if final_watermark > client_watermark {
            sub.ack(final_watermark).unwrap();
            wait_watermark(&server, "dash", final_watermark);
        }
        tman.checkpoint().unwrap();
        drop(sub);
        server.stop();
    }

    // ----- a clean restart after a drained checkpoint delivers nothing ---
    {
        let tman = TriggerMan::open_file(&path, cfg_clean).unwrap();
        let server = WireServer::start(tman.clone(), "127.0.0.1:0").unwrap();
        let client = RemoteClient::new(server.local_addr().to_string());
        let mut sub = client.subscribe("dash", "Fired", final_watermark).unwrap();
        assert_eq!(sub.watermark(), final_watermark);
        tman.run_until_quiescent().unwrap();
        assert!(
            sub.next(Duration::from_millis(400)).unwrap().is_none(),
            "case {case}: clean restart redelivered tokens"
        );
        drop(server);
    }
    cleanup(&path);
}

fn budget() -> u64 {
    std::env::var("WIRE_CRASH_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn wire_crash_reconnect_bounded() {
    for case in 0..budget() {
        crash_case(case);
    }
}

/// Case 12's schedule used to lose a fire: the buffer pool persisted a
/// token's queue-ack page while the delivery-log append that preceded it
/// was still dirty, so after the crash the queue never redelivered and
/// the subscriber never saw the fire. The storage WAL closes the gap —
/// evictions append redo records instead of writing pages, durability is
/// atomic at commit boundaries, and the page file is only written at
/// checkpoint from durable records — so the ack can no longer outrun the
/// append. Always-on regression for that ordering invariant.
#[test]
fn wal_closes_ack_before_append_gap() {
    crash_case(12);
}

/// The full pinned-seed sweep. Slow; run with `cargo test -- --ignored`.
#[test]
#[ignore]
fn wire_crash_reconnect_full() {
    for case in 0..32 {
        crash_case(case);
    }
}
