//! Concurrency stress for the sharded, batch-draining engine: live driver
//! threads bound to different shards drain batches while other threads
//! churn triggers (create/drop races against in-flight probes and pins),
//! switch the signature class through all four organizations with
//! `set_org`, and toggle the active-shard width. Probes fan out two ways
//! by `expr_id % nparts` throughout. The invariants: every token is processed, the sentinel
//! fires exactly once per matching token (no entry visited twice or not at
//! all), no task dies with an error, and the per-shard token counters
//! account for the whole stream.
//!
//! The fast variant keeps CI under a few seconds; the `--ignored` soak
//! runs the same schedule long enough to surface rare interleavings.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use triggerman::{Config, OrgKind, TriggerMan};

fn sharded_stress(tokens: usize, churn_iters: usize) {
    let cfg = Config {
        shards: Some(4),
        drain_batch: 16,
        num_cpus: Some(4),
        condition_partitions: 2,
        partition_min: 1,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.run_sql("create table emp (name varchar(32), salary float, dept int)")
        .unwrap();
    tman.execute_command("define data source emp from table emp")
        .unwrap();
    let rx = tman.subscribe("Hit");
    tman.execute_command(
        "create trigger sentinel from emp when emp.dept = 777 do raise event Hit(emp.name)",
    )
    .unwrap();
    // Siblings in the sentinel's signature class so partitioned probes and
    // shard routing both see >1 entry.
    for i in 0..16 {
        tman.execute_command(&format!(
            "create trigger seed{i} from emp when emp.dept = {i} do notify 's'"
        ))
        .unwrap();
    }
    let pool = tman.start_drivers();
    let stop = Arc::new(AtomicBool::new(false));

    // DDL churn racing the drivers' probe/pin path.
    let churn = {
        let tman = tman.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            for i in 0..churn_iters {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let name = format!("churn{}", 1000 + i % 8);
                let _ = tman.execute_command(&format!(
                    "create trigger {name} from emp when emp.dept = {} do notify 'c'",
                    100 + i % 8
                ));
                std::thread::yield_now();
                let _ = tman.execute_command(&format!("drop trigger {name}"));
            }
        })
    };
    // Organization switches + active-shard toggling, all racing the drain
    // loop (and the churn thread's insert-time promotions).
    let toggle = {
        let tman = tman.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let kinds = [
                OrgKind::MemIndex,
                OrgKind::DbIndexed,
                OrgKind::MemList,
                OrgKind::DbTable,
            ];
            let mut w = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for sig in tman.predicate_index().all_signatures() {
                    sig.set_org(kinds[w % 4]).unwrap();
                }
                tman.set_active_shards([1, 4, 2, 3][w % 4]);
                w += 1;
                std::thread::yield_now();
            }
        })
    };

    for i in 0..tokens {
        // Every third token matches the sentinel.
        let dept = if i % 3 == 0 { 777 } else { (i % 8) as i64 };
        tman.run_sql(&format!("insert into emp values ('t{i}', 1, {dept})"))
            .unwrap();
    }
    let expected = tokens.div_ceil(3) as u64;

    // Drivers drain asynchronously; wait (bounded) for quiescence.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while (tman.metrics_snapshot().engine.tokens < tokens as u64 || tman.queue_len() > 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    toggle.join().unwrap();
    drop(pool); // joins driver threads; hanging here would be a deadlock
    tman.run_until_quiescent().unwrap(); // flush any still-queued actions

    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    let m = tman.metrics_snapshot();
    assert_eq!(m.engine.tokens, tokens as u64, "tokens processed");
    let per_shard: u64 = m.driver.shards.iter().map(|s| s.tokens).sum();
    assert_eq!(per_shard, tokens as u64, "per-shard counters cover stream");
    assert!(m.driver.shards.iter().all(|s| s.queue_depth == 0));
    let hits = rx.try_iter().count() as u64;
    assert_eq!(hits, expected, "sentinel fires exactly once per match");
    // The engine is still functional after the storm.
    let rx2 = tman.subscribe("Hit");
    tman.run_sql("insert into emp values ('after', 1, 777)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx2.try_iter().count(), 1);
}

#[test]
fn sharded_drain_survives_churn_org_switches_and_width_toggles() {
    sharded_stress(200, 50);
}

#[test]
#[ignore = "long sharded concurrency soak; run with --ignored"]
fn sharded_drain_soak() {
    sharded_stress(4000, 800);
}
