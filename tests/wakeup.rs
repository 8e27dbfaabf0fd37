//! The hand-off between a push and a parked driver: what an idle pool
//! costs, how long a token pushed into one waits, that a busy or absent
//! pool is never signalled, and that a Figure-5 fan-out wakes the pool.
//! The lost-wake-up stress is `stress_wakeup.rs`.
//!
//! These tests read the wall clock, so they take turns ([`quiet`]): a
//! 20 ms bound means nothing beside a sibling test that is saturating the
//! host.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tman_common::{DataSourceId, Tuple, UpdateDescriptor, Value};
use triggerman::{Config, TmanTestResult, TriggerMan};

fn quiet() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed sibling must not fail the rest by poisoning.
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// An engine with one source `q (k int)` and a trigger firing `Seen(k)`
/// for every token.
fn engine(cfg: Config) -> (Arc<TriggerMan>, DataSourceId) {
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source q (k int)")
        .unwrap();
    tman.execute_command("create trigger every from q when q.k >= 0 do raise event Seen(q.k)")
        .unwrap();
    let src = tman.source("q").unwrap().id;
    (tman, src)
}

fn token(src: DataSourceId, k: i64) -> UpdateDescriptor {
    UpdateDescriptor::insert(src, Tuple::new(vec![Value::Int(k)]))
}

/// The value of the unlabelled counter series `name`.
fn counter(tman: &TriggerMan, name: &str) -> u64 {
    tman.metrics_registry().find_counter(name, &[])
}

/// `tman_driver_parked`: drivers asleep in the idle wait now.
fn parked(tman: &TriggerMan) -> i64 {
    tman.metrics_registry()
        .find_gauge("tman_driver_parked", &[])
}

/// `tman_driver_{parks,wakeups}_total`.
fn parks_and_wakeups(tman: &TriggerMan) -> (u64, u64) {
    let parks = counter(tman, "tman_driver_parks_total");
    (parks, counter(tman, "tman_driver_wakeups_total"))
}

/// Wait until `n` drivers are asleep in the idle wait.
fn wait_parked(tman: &TriggerMan, n: i64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while parked(tman) < n {
        assert!(Instant::now() < deadline, "drivers never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn an_idle_pool_costs_no_wakeups_and_stops_promptly_at_any_period() {
    let _turn = quiet();
    let (tman, _) = engine(Config {
        num_cpus: Some(4),
        driver_period: Duration::from_secs(10),
        ..Default::default()
    });
    let pool = tman.start_drivers();
    assert_eq!(pool.len(), 4);
    wait_parked(&tman, 4);
    // Every wake-up of a driver is a `tman_test` call: an idle second
    // makes none.
    let calls = counter(&tman, "tman_test_calls_total");
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(counter(&tman, "tman_test_calls_total"), calls);
    assert_eq!(parks_and_wakeups(&tman), (4, 0));
    assert_eq!(parked(&tman), 4);
    // Ten seconds of period left to sleep; `stop` does not wait for it.
    let began = Instant::now();
    pool.stop();
    let took = began.elapsed();
    assert!(took < Duration::from_millis(100), "stop took {took:?}");
    assert_eq!(parked(&tman), 0);
}

#[test]
fn a_token_pushed_into_an_idle_pool_fires_at_once_at_the_default_period() {
    let _turn = quiet();
    let (tman, src) = engine(Config {
        num_cpus: Some(2),
        ..Default::default()
    });
    assert_eq!(tman.config().driver_period, Duration::from_millis(250));
    let rx = tman.subscribe("Seen");
    let pool = tman.start_drivers();
    wait_parked(&tman, 2);
    let mut worst = Duration::ZERO;
    for k in 0..20 {
        std::thread::sleep(Duration::from_millis(30));
        let began = Instant::now();
        tman.push_token(token(src, k)).unwrap();
        rx.recv_timeout(Duration::from_secs(2))
            .expect("the token never fired");
        worst = worst.max(began.elapsed());
    }
    let wait = tman
        .metrics_registry()
        .find_histogram("tman_queue_wait_ns", &[]);
    eprintln!(
        "idle push→fire: worst {worst:?}; tman_queue_wait_ns p50 {} ns, max {} ns",
        wait.p50, wait.max
    );
    assert!(
        worst < Duration::from_millis(20),
        "worst push→fire {worst:?}"
    );
    pool.stop();
}

#[test]
fn a_driverless_or_saturated_engine_is_never_signalled() {
    let _turn = quiet();
    // No pool: the pusher's check is a load that finds nobody.
    let (tman, src) = engine(Config::default());
    for round in 0..50 {
        tman.push_tokens((0..100).map(|k| token(src, round * 100 + k)).collect())
            .unwrap();
        tman.push_token(token(src, 0)).unwrap();
        tman.run_until_quiescent().unwrap();
    }
    assert_eq!(parks_and_wakeups(&tman), (0, 0));

    // A pool that never sees the queue empty: a closed loop keeps tens
    // of thousands of tokens ahead of the drivers, pushing all the
    // while. Nobody parks, so nobody is woken — not by the pushes, not by
    // a full batch handing on.
    let (tman, src) = engine(Config {
        num_cpus: Some(2),
        ..Default::default()
    });
    let batch = |from: i64| (from..from + 1_000).map(|k| token(src, k)).collect();
    for i in 0..60 {
        tman.push_tokens(batch(i * 1_000)).unwrap();
    }
    let pool = tman.start_drivers();
    let mut pushed = 60_000;
    while pushed < 250_000 {
        if tman.queue_len() < 50_000 {
            tman.push_tokens(batch(pushed)).unwrap();
            pushed += 1_000;
        } else {
            std::thread::yield_now();
        }
    }
    let wakes = parks_and_wakeups(&tman);
    assert!(tman.queue_len() > 0, "the drain caught up: premise lost");
    assert_eq!(wakes, (0, 0));
    pool.stop();
}

#[test]
fn a_fanout_from_one_busy_driver_wakes_parked_ones() {
    let _turn = quiet();
    let cfg = Config {
        num_cpus: Some(4),
        condition_partitions: 4,
        partition_min: 1,
        driver_period: Duration::from_secs(10),
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source q (k int)")
        .unwrap();
    // One signature, one constant, thousands of triggers: each token
    // splits into four partitions of a few thousand fires each —
    // milliseconds of work a partition, so the driver that drew the token
    // cannot finish all four before a woken one pops one.
    for i in 0..8_000 {
        tman.execute_command(&format!(
            "create trigger t{i} from q when q.k = 1 do raise event E{}(q.k)",
            i % 7
        ))
        .unwrap();
    }
    let src = tman.source("q").unwrap().id;
    let pool = tman.start_drivers();
    for round in 1..=5u64 {
        wait_parked(&tman, 4);
        // One token: less than a batch, so no driver hands a wake-up on
        // for the update queue — whoever else runs was woken by a task.
        tman.push_token(token(src, 1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while tman.stats().firings.get() < round * 8_000 {
            assert!(Instant::now() < deadline, "the fan-out never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let tasks: Vec<u64> = (0..tman.num_shards())
        .map(|i| {
            let driver = i.to_string();
            let labels = &[("driver", driver.as_str())];
            tman.metrics_registry()
                .find_counter("tman_driver_tasks_total", labels)
        })
        .collect();
    assert_eq!(tasks.iter().sum::<u64>(), 20);
    let busy = tasks.iter().filter(|&&n| n > 0).count();
    assert!(busy > 1, "one driver ran every partition: {tasks:?}");
    pool.stop();
}

#[test]
fn an_embedders_loop_waits_on_the_same_gate() {
    let _turn = quiet();
    let (tman, src) = engine(Config::default());
    let rx = tman.subscribe("Seen");
    // Nothing queued, nobody pushing: the wait runs out.
    assert!(!tman.idle_wait(Duration::from_millis(20)));
    // Work already queued: it does not start.
    tman.push_token(token(src, 1)).unwrap();
    let began = Instant::now();
    assert!(tman.idle_wait(Duration::from_secs(10)));
    assert!(began.elapsed() < Duration::from_secs(1));
    tman.run_until_quiescent().unwrap();
    // The paper's driver, as a program outside the pool.
    let driver = {
        let tman = tman.clone();
        std::thread::spawn(move || {
            while !tman.is_shutdown() {
                if tman.tman_test(Duration::from_millis(250)) == TmanTestResult::QueueEmpty {
                    tman.idle_wait(Duration::from_secs(10));
                }
            }
        })
    };
    wait_parked(&tman, 1);
    let began = Instant::now();
    tman.push_token(token(src, 2)).unwrap();
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(2)).unwrap().values,
        [Value::Int(1)]
    );
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(2)).unwrap().values,
        [Value::Int(2)]
    );
    assert!(began.elapsed() < Duration::from_secs(1));
    tman.shutdown();
    driver.join().unwrap();
}
