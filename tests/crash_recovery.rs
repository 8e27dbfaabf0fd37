//! Crash-recovery differential harness.
//!
//! Each case runs a mixed workload (trigger DDL churn, data-source
//! inserts, token processing, checkpoints) against a file-backed engine
//! whose disk manager carries a seeded [`FaultPlan`] with a hard crash
//! point and a sprinkling of torn/transient write faults. File-backed
//! engines run on write-ahead-logged storage, so the faults land on log
//! appends, group-commit fsyncs, and checkpoint write-back alike, and the
//! reopen exercises recovery-time replay of the committed log tail. When
//! the crash point fires the disk freezes mid-workload; the engine is
//! dropped, thawed, and reopened, and the harness checks the recovery
//! contract:
//!
//! * **No lost tokens** — every update descriptor that was enqueued and
//!   covered by a successful checkpoint before the crash fires either
//!   before the crash or after the restart (at-least-once).
//! * **No double delivery after restart** — each descriptor fires at most
//!   once post-restart; rows at or below the durable queue watermark are
//!   deduplicated at open instead of redelivered.
//! * **Catalogs survive** — phase-A triggers and their
//!   `expression_signature` rows come back intact, and any extra trigger
//!   present after recovery is one the workload actually created.
//! * **Clean restarts are silent** — after draining and checkpointing,
//!   another restart delivers nothing.
//!
//! Every schedule derives from the case number, so a failure replays
//! exactly. `CRASH_CASES` bounds the default run; the `#[ignore]`d sweep
//! covers the full 64 cases (run it with `cargo test -- --ignored`).
//!
//! The **tagged** sweep re-runs the same schedule with every trigger
//! shaped as a two-arm disjunction whose arms BOTH match the trigger's
//! rows (`s.k = i or s.d = 'di'`): under tagged execution each fire is a
//! multi-disjunct fire deduplicated by a per-token tag claim, so the
//! post-restart "delivered at most once" assertion now also proves that
//! the redelivery paths (per-token, batched replay) re-arm claims — a
//! restart must not turn one logical fire into one per disjunct.

use std::collections::BTreeMap;
use tman_common::Value;
use tman_storage::{FaultConfig, FaultPlan};
use triggerman::{Config, QueueMode, TriggerMan};

/// Phase-A triggers r0..r{N-1}; inserts cycle k through 0..N so every
/// token matches exactly one trigger.
const TRIGGERS: usize = 12;
/// Safety valve: give up on a case if the crash point somehow never fires.
const MAX_OPS: u64 = 5_000;

fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tman_crash_{tag}_{}.db", std::process::id()))
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

fn drain_fires(
    rx: &crossbeam::channel::Receiver<triggerman::EventNotification>,
    into: &mut BTreeMap<String, usize>,
) {
    for n in rx.try_iter() {
        let id = format!("{:?}", n.values[1]);
        *into.entry(id).or_default() += 1;
    }
}

/// How the sweep's rows and triggers are shaped. The plain family uses
/// one single-equality condition per trigger; the tagged family gives
/// every trigger two selectable disjuncts that both match its rows, so
/// every delivery exercises the tag-claim dedup.
struct Shape {
    table_sql: &'static str,
    trigger_ddl: fn(usize) -> String,
    insert_sql: fn(u64, usize) -> String,
    /// Predicate-index entries each phase-A trigger contributes (one per
    /// selectable disjunct under tagged execution).
    entries_per_trigger: usize,
    tagged: bool,
}

fn plain_trigger(i: usize) -> String {
    format!("create trigger r{i} from s when s.k = {i} do raise event Fired(s.k, s.v)")
}

fn plain_insert(serial: u64, k: usize) -> String {
    format!("insert into s values ({k}, 't{serial}')")
}

const PLAIN: Shape = Shape {
    table_sql: "create table s (k int, v varchar(16))",
    trigger_ddl: plain_trigger,
    insert_sql: plain_insert,
    entries_per_trigger: 1,
    tagged: false,
};

/// Both arms match every row the trigger fires on (`k = i` and
/// `d = 'di'`), and no other trigger's arm matches it, so the schedule's
/// one-trigger-per-token accounting carries over unchanged.
fn tagged_trigger(i: usize) -> String {
    format!(
        "create trigger r{i} from s when s.k = {i} or s.d = 'd{i}' \
         do raise event Fired(s.k, s.v)"
    )
}

fn tagged_insert(serial: u64, k: usize) -> String {
    format!("insert into s values ({k}, 't{serial}', 'd{k}')")
}

const TAGGED: Shape = Shape {
    table_sql: "create table s (k int, v varchar(16), d varchar(8))",
    trigger_ddl: tagged_trigger,
    insert_sql: tagged_insert,
    entries_per_trigger: 2,
    tagged: true,
};

fn crash_case(case: u64) {
    crash_case_cfg(case, Config::default(), "case", &PLAIN);
}

/// Same schedule, drained in 16-token batches across 4 shards: the crash
/// can now land *mid-batch* — after some of a batch's tokens executed and
/// fired but before the single group ack/watermark barrier that covers
/// the whole batch. Recovery must treat every token of the interrupted
/// batch as unacked and redeliver it (at-least-once), while tokens
/// covered by a completed barrier stay deduplicated (no double delivery).
fn crash_case_batched(case: u64) {
    let cfg = Config {
        shards: Some(4),
        drain_batch: 16,
        ..Default::default()
    };
    crash_case_cfg(case, cfg, "batched", &PLAIN);
}

/// The tagged-execution sweep: multi-disjunct triggers, alternating
/// between per-token and sharded/batched drain so the batch-replay path
/// also proves it re-arms tag claims on redelivered tokens.
fn crash_case_tagged(case: u64) {
    let cfg = if case.is_multiple_of(2) {
        Config::default()
    } else {
        Config {
            shards: Some(4),
            drain_batch: 16,
            ..Default::default()
        }
    };
    crash_case_cfg(case, cfg, "tagged", &TAGGED);
}

fn crash_case_cfg(case: u64, base: Config, tag: &str, shape: &Shape) {
    let path = tmpfile(&format!("{tag}{case}"));
    cleanup(&path);
    // Every case pins its own schedule: a distinct RNG seed, a distinct
    // crash point, and mild background write faults.
    let plan = FaultPlan::new(FaultConfig {
        seed: 0xC0FFEE ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        crash_after_writes: Some(3 + (case * 7) % 120),
        torn_per_mille: 25,
        transient_per_mille: 40,
        ..Default::default()
    });
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        faults: Some(plan.clone()),
        ..base.clone()
    };

    let mut pre: BTreeMap<String, usize> = BTreeMap::new();
    // Serials whose insert succeeded, partitioned by whether a later
    // checkpoint succeeded (durable) or not yet (pending) at crash time.
    let mut durable: Vec<u64> = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    let mut tmp_attempted: Vec<String> = Vec::new();
    let (oracle_triggers, oracle_signatures) = {
        let tman = TriggerMan::open_file(&path, cfg).unwrap();
        let rx = tman.subscribe("Fired");
        // ----- phase A: reliable disk, all of this is durable ------------
        tman.run_sql(shape.table_sql).unwrap();
        tman.execute_command("define data source s from table s")
            .unwrap();
        for i in 0..TRIGGERS {
            tman.execute_command(&(shape.trigger_ddl)(i)).unwrap();
        }
        tman.checkpoint().unwrap();
        let oracle_triggers = tman.trigger_names();
        let oracle_signatures = format!(
            "{:?}",
            tman.run_sql("select * from expression_signature")
                .unwrap()
                .rows()
        );
        // ----- phase B: armed; failures tolerated, successes tracked -----
        plan.arm();
        let mut serial = 0u64;
        while !plan.crashed() && serial < MAX_OPS {
            let k = serial as usize % TRIGGERS;
            if tman.run_sql(&(shape.insert_sql)(serial, k)).is_ok() {
                pending.push(serial);
            }
            serial += 1;
            if serial.is_multiple_of(4) && tman.checkpoint().is_ok() {
                durable.append(&mut pending);
            }
            if serial.is_multiple_of(7) {
                let _ = tman.run_until_quiescent();
            }
            if serial.is_multiple_of(11) {
                // DDL churn under fire: an ephemeral trigger that shares
                // the phase-A signature comes and (usually) goes.
                let name = format!("tmp{serial}");
                if tman
                    .execute_command(&format!(
                        "create trigger {name} from s when s.k = 999 do notify '{name}'"
                    ))
                    .is_ok()
                {
                    tmp_attempted.push(name.clone());
                    let _ = tman.execute_command(&format!("drop trigger {name}"));
                }
            }
        }
        assert!(plan.crashed(), "case {case}: crash point never fired");
        drain_fires(&rx, &mut pre);
        // The engine is dropped with the disk still frozen — exactly what
        // a process kill looks like to the storage layer.
        (oracle_triggers, oracle_signatures)
    };

    // ----- restart: thaw the disk, reopen without fault injection --------
    plan.reset_crash();
    plan.disarm();
    let cfg_clean = Config {
        queue_mode: QueueMode::Persistent,
        ..base
    };
    {
        let tman = TriggerMan::open_file(&path, cfg_clean.clone()).unwrap();
        let rx = tman.subscribe("Fired");

        // Watermark sanity: acknowledgements never outrun observed fires.
        let wm = tman
            .queue_watermark()
            .expect("persistent queue exposes a watermark");
        let pre_total: usize = pre.values().sum();
        assert!(
            wm >= 0 && wm as usize <= pre_total,
            "case {case}: durable watermark {wm} outran the {pre_total} fires \
             observed before the crash — an ack was recorded for a token that \
             never executed"
        );

        // Catalog recovery. Phase-A triggers must all be back; anything
        // else present must be a tmp trigger the workload really created.
        let survivors = tman.trigger_names();
        let (tmps, rs): (Vec<String>, Vec<String>) =
            survivors.into_iter().partition(|n| n.starts_with("tmp"));
        assert_eq!(
            rs, oracle_triggers,
            "case {case}: phase-A trigger catalog diverged after recovery"
        );
        for t in &tmps {
            assert!(
                tmp_attempted.contains(t),
                "case {case}: phantom trigger {t} appeared after recovery"
            );
        }
        // The tmp triggers are single-equality in both shapes; the phase-A
        // population contributes one entry per selectable disjunct.
        assert_eq!(
            tman.predicate_index().num_entries(),
            TRIGGERS * shape.entries_per_trigger + tmps.len(),
            "case {case}: predicate index out of step with the catalog"
        );
        if tmps.is_empty() {
            // No phase-B DDL survived, so the signature catalog must be
            // byte-identical to the phase-A oracle.
            let sigs = format!(
                "{:?}",
                tman.run_sql("select * from expression_signature")
                    .unwrap()
                    .rows()
            );
            assert_eq!(
                sigs, oracle_signatures,
                "case {case}: expression_signature rows diverged after recovery"
            );
        }

        // Drain everything the queue redelivers.
        tman.run_until_quiescent().unwrap();
        let mut post: BTreeMap<String, usize> = BTreeMap::new();
        drain_fires(&rx, &mut post);
        assert!(
            tman.last_error().is_none(),
            "case {case}: clean replay errored: {:?}",
            tman.last_error()
        );
        assert_eq!(tman.queue_len(), 0, "case {case}: queue not drained");

        // No lost tokens: every checkpoint-covered descriptor fired on at
        // least one side of the crash.
        for &serial in &durable {
            let id = token_id(serial);
            assert!(
                pre.contains_key(&id) || post.contains_key(&id),
                "case {case}: durable token t{serial} was lost"
            );
        }
        // No double delivery after restart. Under the tagged shape every
        // fire is a multi-disjunct fire, so this is also the proof that
        // replayed tokens claim their tags: an unarmed claim set admits
        // both arms and delivers twice.
        for (id, &n) in &post {
            assert!(
                n <= 1,
                "case {case}: token {id} delivered {n} times after restart"
            );
        }
        if shape.tagged {
            let post_total: usize = post.values().sum();
            assert!(
                tman.tag_dedup_hits() as usize >= post_total,
                "case {case}: {post_total} replayed multi-disjunct fires but only \
                 {} tag-dedup hits — a redelivered token ran with inert claims",
                tman.tag_dedup_hits()
            );
        }
        tman.checkpoint().unwrap();
    }

    // ----- a clean restart after a drained checkpoint delivers nothing ---
    {
        let tman = TriggerMan::open_file(&path, cfg_clean).unwrap();
        let rx = tman.subscribe("Fired");
        tman.run_until_quiescent().unwrap();
        assert_eq!(
            rx.try_iter().count(),
            0,
            "case {case}: clean shutdown redelivered tokens"
        );
    }
    cleanup(&path);
}

fn budget() -> u64 {
    std::env::var("CRASH_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

#[test]
fn crash_sweep_bounded() {
    for case in 0..budget() {
        crash_case(case);
    }
}

#[test]
fn crash_sweep_batched_drain() {
    for case in 0..budget() {
        crash_case_batched(case);
    }
}

#[test]
fn crash_sweep_tagged_disjunctions() {
    for case in 0..budget() {
        crash_case_tagged(case);
    }
}

/// The full pinned-seed sweep. Slow; run with `cargo test -- --ignored`.
#[test]
#[ignore]
fn crash_sweep_full() {
    for case in 0..64 {
        crash_case(case);
        crash_case_batched(case);
        crash_case_tagged(case);
    }
}
