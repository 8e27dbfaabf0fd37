//! Lost wake-up stress for the idle gate (`TriggerMan::idle_wait`, the
//! push path's `wake_one`). `driver_period` is ten seconds, so a wake-up
//! that goes missing is a ten-second stall and not something the timeout
//! hides. Each producer pushes a single token or a small batch, waits for
//! its own fires, spins a seeded random gap of 0–300 µs and pushes again:
//! the pool goes idle after every push, so the next one lands in or near
//! the window between a driver's last look at the queue and its sleep —
//! the window the announce / re-check / wait protocol closes — thousands
//! of times a second, and with one producer there is no later push to
//! paper over a miss. The invariant is that every fire is received within
//! a second of its push and that the queue is empty at the end.
//!
//! The fast variants run two seconds per producer count; the `--ignored`
//! sweep runs more seeds, more producers and longer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_common::rng::SplitMix64;
use tman_common::{Tuple, UpdateDescriptor, Value};
use triggerman::{Config, QueueMode, TriggerMan};

fn wakeup_stress(mode: QueueMode, producers: usize, run_for: Duration, seed: u64) {
    let cfg = Config {
        queue_mode: mode,
        // One producer faces one driver: with a second, parked, there is
        // always somebody for the push to wake and nothing to lose.
        num_cpus: Some(producers.min(2)),
        driver_period: Duration::from_secs(10),
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source q (producer int, k int)")
        .unwrap();
    let src = tman.source("q").unwrap().id;
    for p in 0..producers {
        tman.execute_command(&format!(
            "create trigger mine{p} from q when q.producer = {p} do raise event Seen{p}(q.k)"
        ))
        .unwrap();
    }
    let pool = tman.start_drivers();
    let began = Instant::now();
    let pushed = Arc::new(AtomicU64::new(0));
    let worst_ns = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let (tman, pushed, worst_ns) = (tman.clone(), pushed.clone(), worst_ns.clone());
            let rx = tman.subscribe(&format!("Seen{p}"));
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ ((p as u64 + 1) << 32));
                let mut k = 0i64;
                let mut token = || {
                    k += 1;
                    let row = vec![Value::Int(p as i64), Value::Int(k)];
                    UpdateDescriptor::insert(src, Tuple::new(row))
                };
                while began.elapsed() < run_for {
                    let r = rng.next_u64();
                    // Three pushes in ten are a batch of 2–8.
                    let n = if r % 10 < 3 { 2 + (r >> 8) % 7 } else { 1 };
                    let at = Instant::now();
                    if n == 1 {
                        tman.push_token(token()).unwrap();
                    } else {
                        tman.push_tokens((0..n).map(|_| token()).collect()).unwrap();
                    }
                    // Poll, do not block: the fire is seen while the
                    // driver that sent it is still on its way to sleep.
                    // (Yielding, so that on a host with fewer cores than
                    // threads the driver gets to run at all.)
                    let mut fired = 0;
                    while fired < n {
                        match rx.try_recv() {
                            Ok(_) => fired += 1,
                            Err(_) => std::thread::yield_now(),
                        }
                        assert!(
                            at.elapsed() < Duration::from_secs(1),
                            "producer {p}: {fired} of {n} fires a second after push {}",
                            pushed.load(Ordering::Relaxed)
                        );
                    }
                    worst_ns.fetch_max(at.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    pushed.fetch_add(n, Ordering::Relaxed);
                    // Half the gaps are under 4 µs — the driver is between
                    // its last look and its sleep — the rest up to 300 µs.
                    let gap = (r >> 16) % if r & 1 == 0 { 4_096 } else { 300_000 };
                    let fired_at = Instant::now();
                    while fired_at.elapsed() < Duration::from_nanos(gap) {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let lost = handles
        .into_iter()
        .filter_map(|h| h.join().err())
        .map(|e| *e.downcast::<String>().expect("panic message"))
        .collect::<Vec<_>>();

    let r = tman.metrics_registry();
    let parks = r.find_counter("tman_driver_parks_total", &[]);
    let wakeups = r.find_counter("tman_driver_wakeups_total", &[]);
    let what = format!(
        "{mode:?} queue, {producers} producers, seed {seed}: pushed {}, worst push→fire {:?}, \
         parks {}, wake-ups {}",
        pushed.load(Ordering::Relaxed),
        Duration::from_nanos(worst_ns.load(Ordering::Relaxed)),
        parks,
        wakeups
    );
    eprintln!("{what}");
    assert!(lost.is_empty(), "a wake-up was lost — {what}: {lost:?}");
    assert_eq!(
        tman.stats().tokens.get(),
        pushed.load(Ordering::Relaxed),
        "{what}"
    );
    assert_eq!(tman.queue_len(), 0, "{what}");
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    // The run did exercise the hand-off.
    assert!(parks > 0 && wakeups > 0, "drivers never parked — {what}");
    pool.stop();
}

#[test]
fn no_wakeup_is_lost_volatile_queue() {
    for producers in [1, 2, 4] {
        wakeup_stress(QueueMode::Volatile, producers, Duration::from_secs(2), 7);
    }
}

#[test]
fn no_wakeup_is_lost_persistent_queue() {
    for producers in [1, 2, 4] {
        wakeup_stress(QueueMode::Persistent, producers, Duration::from_secs(2), 7);
    }
}

#[test]
#[ignore = "long lost-wake-up sweep; run with --ignored"]
fn no_wakeup_is_lost_sweep() {
    for seed in [1, 2, 3] {
        for mode in [QueueMode::Volatile, QueueMode::Persistent] {
            for producers in [1, 2, 4, 8] {
                wakeup_stress(mode, producers, Duration::from_secs(5), seed);
            }
        }
    }
}
