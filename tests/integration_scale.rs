//! Scalability smoke tests: large trigger populations, concurrency under
//! drivers, and the asymptotic shape (work per token must not grow
//! linearly with the number of triggers).

use std::time::Duration;
use tman_common::Value;
use triggerman::{Config, TriggerMan};

#[test]
fn ten_thousand_triggers_constant_probe_work() {
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.run_sql("create table q (sym varchar(8), price float)")
        .unwrap();
    tman.execute_command("define data source q from table q")
        .unwrap();

    for i in 0..10_000 {
        tman.execute_command(&format!(
            "create trigger s{i} from q when q.sym = 'S{}' and q.price > {} do notify 'x'",
            i % 500,
            (i % 97) * 10
        ))
        .unwrap();
    }
    assert_eq!(tman.predicate_index().num_signatures(), 1);
    assert_eq!(tman.predicate_index().num_entries(), 10_000);

    let rx = tman.subscribe("notify");
    tman.run_sql("insert into q values ('S7', 5000)").unwrap();
    tman.run_until_quiescent().unwrap();
    // 20 triggers watch S7 (i ≡ 7 mod 500); all have thresholds < 5000.
    assert_eq!(rx.try_iter().count(), 20);
    // Residual tests only ran for the S7 equivalence-class candidates —
    // constant in the total trigger population.
    assert!(
        tman.predicate_index().stats().residual_tests.get() <= 20,
        "residual tests = {}",
        tman.predicate_index().stats().residual_tests.get()
    );
}

#[test]
fn driver_pool_under_concurrent_load() {
    let cfg = Config {
        num_cpus: Some(4),
        threshold: Duration::from_millis(10),
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source feed (k int, v float)")
        .unwrap();
    let src = tman.source("feed").unwrap().id;
    let rx = tman.subscribe("Hit");
    for i in 0..100 {
        tman.execute_command(&format!(
            "create trigger f{i} from feed when feed.k = {} do raise event Hit(feed.k)",
            i % 10
        ))
        .unwrap();
    }
    let pool = tman.start_drivers();
    // Producers push tokens concurrently through the data-source API.
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let tman = tman.clone();
            std::thread::spawn(move || {
                for i in 0..250u32 {
                    let k = ((p * 250 + i) % 10) as i64;
                    tman.push_token(tman_common::UpdateDescriptor::insert(
                        src,
                        tman_common::Tuple::new(vec![Value::Int(k), Value::Float(0.0)]),
                    ))
                    .unwrap();
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while tman.queue_len() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let in-flight actions finish.
    std::thread::sleep(Duration::from_millis(50));
    pool.stop();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(tman.stats().tokens.get(), 1000);
    // 1000 tokens × 10 triggers per key value.
    assert_eq!(rx.try_iter().count(), 10_000);
}

#[test]
fn work_per_token_stays_flat_as_triggers_grow() {
    // The paper's central claim, as a behavioural (not timing) assertion:
    // doubling the trigger population must not double the per-token
    // predicate evaluations when constants are distinct.
    let mut residuals = Vec::new();
    for n in [1_000usize, 2_000, 4_000] {
        let tman = TriggerMan::open_memory(Config::default()).unwrap();
        tman.run_sql("create table z (k int)").unwrap();
        tman.execute_command("define data source z from table z")
            .unwrap();
        for i in 0..n {
            tman.execute_command(&format!(
                "create trigger z{i} from z when z.k = {i} do notify 'x'"
            ))
            .unwrap();
        }
        for k in 0..50 {
            tman.run_sql(&format!("insert into z values ({k})"))
                .unwrap();
        }
        tman.run_until_quiescent().unwrap();
        // Each token matches exactly one trigger; residual work is zero
        // (fully indexable) and probes are one per token per signature.
        assert_eq!(tman.stats().firings.get(), 50);
        residuals.push(tman.predicate_index().stats().probes.get());
    }
    assert_eq!(residuals[0], residuals[1]);
    assert_eq!(residuals[1], residuals[2]);
}

#[test]
fn wide_signature_population() {
    // "perhaps a few hundred or a few thousand [signatures] at most":
    // ensure the per-source signature list handles hundreds gracefully.
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.run_sql("create table w (a int, b int, c int, d float, e varchar(8))")
        .unwrap();
    tman.execute_command("define data source w from table w")
        .unwrap();
    let cols = ["a", "b", "c"];
    let mut id = 0;
    for c1 in cols {
        for c2 in cols {
            if c1 == c2 {
                continue;
            }
            for op in ["=", ">", "<", ">=", "<="] {
                for op2 in ["=", ">"] {
                    tman.execute_command(&format!(
                        "create trigger w{id} from w when w.{c1} {op} {id} and w.{c2} {op2} {}
                         do notify 'x'",
                        id * 2
                    ))
                    .unwrap();
                    id += 1;
                }
            }
        }
    }
    // 6 column pairs × 5 ops × 2 ops = 60 distinct signatures.
    assert_eq!(tman.predicate_index().num_signatures(), 60);
    let rx = tman.subscribe("notify");
    tman.run_sql("insert into w values (0, 0, 0, 0, 'x')")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    // Every signature was probed once for the token.
    assert_eq!(tman.predicate_index().stats().signatures_probed.get(), 60);
    let _ = rx.try_iter().count();
}
