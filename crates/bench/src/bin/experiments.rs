//! The experiment harness: regenerates every series in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p tman-bench --bin experiments            # all, full size
//! cargo run --release -p tman-bench --bin experiments -- --quick # smaller sweeps
//! cargo run --release -p tman-bench --bin experiments -- e3 e9   # selected
//! ```

use std::hint::black_box;
use std::mem::size_of;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tman_bench::*;
use tman_common::{EventKind, UpdateDescriptor, Value};
use tman_expr::IndexPlan;
use tman_predindex::{Entry, IndexConfig, OrgKind, PredicateIndex};
use tman_sql::Database;
use tman_telemetry::Registry;
use triggerman::{Config, NetworkKind, QueueMode, TriggerMan};

struct Opts {
    quick: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let opts = Opts { quick };
    type Experiment = fn(&Opts);
    let all: &[(&str, Experiment)] = &[
        ("e1", e1_scaling),
        ("e2", e2_cse),
        ("e3", e3_orgs),
        ("e4", e4_concurrency),
        ("e5", e5_cache),
        ("e6", e6_driver),
        ("e7", e7_create),
        ("e8", e8_networks),
        ("e9", e9_ranges),
        ("e10", e10_design),
        ("e15", e15_disjunctions),
    ];
    for (name, f) in all {
        if selected.is_empty() || selected.contains(name) {
            println!(
                "\n## {} {}\n",
                name.to_uppercase(),
                if quick { "(quick)" } else { "" }
            );
            f(&opts);
        }
    }
}

/// E1 — tokens/sec vs number of triggers: signature predicate index vs
/// naive ECA scan vs query-based (RPL/DIPS). Paper anchor: §1/§8, Figure 3.
fn e1_scaling(o: &Opts) {
    let sizes: &[usize] = if o.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    let n_syms = 200;
    let mut table = Table::new(&[
        "triggers",
        "index tok/s",
        "eca tok/s",
        "query tok/s",
        "matches/tok",
        "index evals/tok",
        "eca evals/tok",
    ]);
    let mut metrics_json = String::new();
    for &n in sizes {
        // --- predicate index ---
        let registry = Arc::new(Registry::new());
        let mut ix = PredicateIndex::new(IndexConfig::default());
        ix.attach_telemetry(&registry);
        build_index(&ix, n, Template::all(), n_syms, 1);
        let tokens = quote_tokens(if o.quick { 2_000 } else { 5_000 }, n_syms, 2);
        let mut matches = 0usize;
        let (_, d_ix) = time_it(|| {
            for t in &tokens {
                ix.match_token(t, &mut |_| matches += 1).unwrap();
            }
        });
        let evals_per_tok = ix.stats().residual_tests.get() as f64 / tokens.len() as f64;
        let matches_per_tok = matches as f64 / tokens.len() as f64;

        // --- naive ECA ---
        let eca = tman_baseline::NaiveEca::new();
        let schema = quotes_schema();
        let mut r = rng(1);
        for i in 0..n {
            let t = Template::all()[i % Template::all().len()];
            eca.add_trigger(
                tman_common::TriggerId(i as u64),
                QUOTES,
                EventKind::Insert,
                "q",
                &schema,
                &t.condition(&mut r, n_syms),
            )
            .unwrap();
        }
        // The naive scan is O(n) per token: bound total work.
        let eca_tokens = (2_000_000 / n.max(1)).clamp(20, 2_000);
        let (_, d_eca) = time_it(|| {
            for t in tokens.iter().take(eca_tokens) {
                eca.match_token(t).unwrap();
            }
        });

        // --- query-based --- (bounded even harder; it re-parses per trigger)
        let qb_tokens = (200_000 / n.max(1)).clamp(5, 200);
        let db = Arc::new(Database::open_memory(512));
        let qb = tman_baseline::QueryBased::new(db);
        qb.register_source(QUOTES, &schema).unwrap();
        let mut r = rng(1);
        for i in 0..n {
            let t = Template::all()[i % Template::all().len()];
            let cond = t.condition(&mut r, n_syms).replace("q.", "");
            qb.add_trigger(
                tman_common::TriggerId(i as u64),
                QUOTES,
                EventKind::Insert,
                &cond,
            )
            .unwrap();
        }
        let (_, d_qb) = time_it(|| {
            for t in tokens.iter().take(qb_tokens) {
                qb.match_token(t).unwrap();
            }
        });

        table.row(vec![
            n.to_string(),
            human(rate(tokens.len(), d_ix)),
            human(rate(eca_tokens, d_eca)),
            human(rate(qb_tokens, d_qb)),
            format!("{matches_per_tok:.1}"),
            format!("{evals_per_tok:.1}"),
            n.to_string(),
        ]);
        metrics_json = registry.render_json();
    }
    table.print();
    dump_metrics("e1", &metrics_json);
}

/// E2 — Figure 4 ablation: normalized (CSE) vs denormalized constant sets.
/// The normalized side is the engine's list organization. The denormalized
/// layout is not one the engine can be put in; it is counted over the same
/// class's entries: every entry holds its own copy of the constants, and a
/// miss compares every entry's key.
fn e2_cse(o: &Opts) {
    let sizes: &[usize] = if o.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "triggers (same constant)",
        "norm bytes",
        "denorm bytes",
        "norm miss ns",
        "denorm miss ns",
    ]);
    let mut metrics_json = String::new();
    for &n in sizes {
        let registry = Arc::new(Registry::new());
        let mut ix = PredicateIndex::new(IndexConfig {
            list_to_index: usize::MAX, // stay a list: the Figure-4 layout
            ..Default::default()
        });
        ix.attach_telemetry(&registry);
        for i in 0..n {
            add_to_index(&ix, i as u64, "q.sym = 'HOT'", EventKind::Insert);
        }
        // The constant set's own bytes: the index's total also counts its
        // removal directory, which is the same under either layout.
        let class = ix.source(QUOTES).unwrap().signatures()[0].clone();
        // The denormalized layout of the same class: every entry beside its
        // own copy of the constant vector.
        let mut denorm: Vec<(Entry, Vec<Value>)> = Vec::new();
        class
            .for_each_entry(&mut |e| denorm.push((*e, vec![Value::str("HOT")])))
            .unwrap();
        let denorm_bytes: usize = denorm
            .iter()
            .map(|(_, consts)| {
                size_of::<(Entry, Vec<Value>)>()
                    + consts.iter().map(Value::heap_size).sum::<usize>()
            })
            .sum();
        let IndexPlan::Equality { cols, const_slots } = &class.sig.index_plan else {
            unreachable!("an equality signature");
        };
        let miss = UpdateDescriptor::insert(
            QUOTES,
            tman_common::Tuple::new(vec![Value::str("COLD"), Value::Float(1.0), Value::Int(1)]),
        );
        let probes = 2_000;
        let (_, d_norm) = time_it(|| {
            for _ in 0..probes {
                ix.match_token(&miss, &mut |_| {}).unwrap();
            }
        });
        let key: Vec<&Value> = cols.iter().map(|&c| miss.probe_tuple().get(c)).collect();
        let (_, d_denorm) = time_it(|| {
            for _ in 0..probes {
                let hits = denorm.iter().filter(|(_, consts)| {
                    let own_key = const_slots.iter().map(|&s| &consts[s]);
                    own_key.eq(key.iter().copied())
                });
                black_box(hits.count());
            }
        });
        table.row(vec![
            n.to_string(),
            human_bytes(class.memory_bytes()),
            human_bytes(denorm_bytes),
            format!("{:.0}", nanos_per(probes, d_norm)),
            format!("{:.0}", nanos_per(probes, d_denorm)),
        ]);
        metrics_json = registry.render_json();
    }
    table.print();
    dump_metrics("e2", &metrics_json);
}

/// E3 — §5.2: the four constant-set organizations across equivalence-class
/// sizes: probe latency, memory, page I/O.
fn e3_orgs(o: &Opts) {
    let sizes: &[usize] = if o.quick {
        &[10, 1_000, 10_000]
    } else {
        &[10, 100, 1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "class size",
        "org",
        "probe ns",
        "memory",
        "pages read/probe",
    ]);
    let mut metrics_json = String::new();
    for &n in sizes {
        let registry = Arc::new(Registry::new());
        let db = Arc::new(Database::open_memory(1024));
        let mut ix = PredicateIndex::with_database(IndexConfig::default(), db.clone());
        ix.attach_telemetry(&registry);
        for i in 0..n {
            add_to_index(&ix, i as u64, &format!("q.vol = {i}"), EventKind::Insert);
        }
        let sig = ix.source(QUOTES).unwrap().signatures()[0].clone();
        let probes = if n >= 10_000 { 200 } else { 2_000 };
        let tokens = quote_tokens(probes, 4, 7);
        for kind in [
            OrgKind::MemList,
            OrgKind::MemIndex,
            OrgKind::DbTable,
            OrgKind::DbIndexed,
        ] {
            if kind == OrgKind::DbTable && n > 10_000 {
                // The full-scan org at 100k entries × probes is pointless
                // pain; report one decade less often.
                table.row(vec![
                    n.to_string(),
                    kind.as_str().into(),
                    "(skipped)".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            sig.set_org(kind).unwrap();
            let reads0 = db.storage().pool().disk().stats().page_reads.get()
                + db.storage().pool().stats().pool_hits.get();
            let (_, d) = time_it(|| {
                for t in &tokens {
                    ix.match_token(t, &mut |_| {}).unwrap();
                }
            });
            let reads1 = db.storage().pool().disk().stats().page_reads.get()
                + db.storage().pool().stats().pool_hits.get();
            table.row(vec![
                n.to_string(),
                kind.as_str().into(),
                format!("{:.0}", nanos_per(probes, d)),
                human_bytes(sig.memory_bytes()),
                format!("{:.1}", (reads1 - reads0) as f64 / probes as f64),
            ]);
        }
        metrics_json = registry.render_json();
    }
    table.print();
    dump_metrics("e3", &metrics_json);
}

/// E4 — §6 / Figure 5: token- and condition-level concurrency.
fn e4_concurrency(o: &Opts) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "host parallelism: {cpus} CPU(s).{}",
        if cpus == 1 {
            " NOTE: with one CPU no speedup is possible; this experiment then \
             measures the *overhead* of the concurrency machinery (flat ≈1.0x = good)."
        } else {
            ""
        }
    );
    let n_tokens = if o.quick { 10_000 } else { 40_000 };

    let mut metrics_json = String::new();

    // (a) token-level: P drivers drain a shared queue.
    let tokens = quote_tokens(n_tokens, 100, 4);
    let actions = alert_matches(2_000, Template::all(), 100, 3, &tokens);
    let mut ta = Table::new(&["drivers", "tokens/s", "speedup"]);
    let mut base = 0.0;
    for p in [1, 2, 4, 8] {
        let cfg = Config {
            num_cpus: Some(p),
            threshold: Duration::from_millis(20),
            ..Default::default()
        };
        let (tman, src) = engine_with_alerts(traced(cfg), 2_000, Template::all(), 100, 3);
        push_all(&tman, src, &tokens);
        let pool = tman.start_drivers();
        let t0 = Instant::now();
        wait_for_actions(&tman, actions);
        let d = t0.elapsed();
        pool.stop();
        let r = rate(n_tokens, d);
        if base == 0.0 {
            base = r;
        }
        ta.row(vec![p.to_string(), human(r), format!("{:.2}x", r / base)]);
    }
    println!("(a) token-level concurrency");
    ta.print();

    // (b) condition-level (Figure 5): M triggers on one condition with a
    // residual constant each, so a token probes one class of M entries and
    // fires `fires(price)` of them. The cache holds the whole class: the
    // class, not cache misses, sets the cost. At each driver count the
    // class is probed whole and split `max(2, drivers)` ways: throughput
    // over a burst queued before the pool starts, then the median latency
    // of single tokens pushed into the idle pool.
    let m = if o.quick { 20_000 } else { 50_000 };
    let burst = if o.quick { 200 } else { 400 };
    let fires = |price: i64| (0..m).filter(|i| ((i % 997) as i64) < price).count() as u64;
    let mut tb = Table::new(&["drivers", "partitions", "tokens/s", "idle p50 (ms)"]);
    for p in [1, 2, 4] {
        for parts in [1, p.max(2)] {
            let cfg = Config {
                num_cpus: Some(p),
                condition_partitions: parts,
                trigger_cache_capacity: m,
                ..Default::default()
            };
            let tman = TriggerMan::open_memory(traced(cfg)).unwrap();
            tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
                .unwrap();
            let src = tman.source("q").unwrap().id;
            for i in 0..m {
                tman.execute_command(&format!(
                    "create trigger c{i} from q when q.sym = 'HOT' and q.price > {} \
                     do raise event E{i}(q.price)",
                    i % 997
                ))
                .unwrap();
            }
            let hot = |price: i64| {
                UpdateDescriptor::insert(
                    src,
                    tman_common::Tuple::new(vec![
                        Value::str("HOT"),
                        Value::Float(price as f64),
                        Value::Int(0),
                    ]),
                )
            };
            for i in 0..burst {
                tman.push_token(hot(i)).unwrap();
            }
            let mut done: u64 = (0..burst).map(fires).sum();
            let pool = tman.start_drivers();
            let t0 = Instant::now();
            wait_for_actions(&tman, done);
            let r = rate(burst as usize, t0.elapsed());
            let mut idle: Vec<Duration> = (0..21)
                .map(|_| {
                    std::thread::sleep(Duration::from_millis(20));
                    done += fires(500);
                    let t0 = Instant::now();
                    tman.push_token(hot(500)).unwrap();
                    wait_for_actions(&tman, done);
                    t0.elapsed()
                })
                .collect();
            pool.stop();
            idle.sort();
            tb.row(vec![
                p.to_string(),
                parts.to_string(),
                human(r),
                format!("{:.2}", idle[idle.len() / 2].as_secs_f64() * 1e3),
            ]);
            metrics_json = tman.render_metrics_json();
            dump_trace("e4", &tman);
        }
    }
    println!("\n(b) condition-level concurrency (M = {m} same-condition triggers)");
    tb.print();
    dump_metrics("e4", &metrics_json);
}

/// E5 — §5.1: trigger-cache hit rate and throughput vs capacity under
/// Zipf-skewed trigger access.
fn e5_cache(o: &Opts) {
    let n_triggers = if o.quick { 20_000 } else { 50_000 };
    let caps: &[usize] = &[64, 1_024, 8_192, n_triggers];
    let mut table = Table::new(&["cache capacity", "hit rate", "tokens/s"]);
    let tokens = {
        let zipf = Zipf::new(n_triggers, 0.9);
        let mut r = rng(11);
        let n = if o.quick { 20_000 } else { 50_000 };
        (0..n)
            .map(|_| zipf.sample(&mut r) as i64)
            .collect::<Vec<_>>()
    };
    let mut metrics_json = String::new();
    for &cap in caps {
        let cfg = Config {
            trigger_cache_capacity: cap,
            ..Default::default()
        };
        let tman = TriggerMan::open_memory(traced(cfg)).unwrap();
        tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
            .unwrap();
        let src = tman.source("q").unwrap().id;
        for i in 0..n_triggers {
            tman.execute_command(&format!(
                "create trigger z{i} from q when q.vol = {i} do raise event Z(q.vol)"
            ))
            .unwrap();
        }
        for &k in &tokens {
            tman.push_token(UpdateDescriptor::insert(
                src,
                tman_common::Tuple::new(vec![Value::str("X"), Value::Float(0.0), Value::Int(k)]),
            ))
            .unwrap();
        }
        let (_, d) = time_it(|| tman.run_until_quiescent().unwrap());
        table.row(vec![
            cap.to_string(),
            format!("{:.3}", tman.trigger_cache().stats().hit_rate()),
            human(rate(tokens.len(), d)),
        ]);
        metrics_json = tman.render_metrics_json();
        dump_trace("e5", &tman);
    }
    table.print();
    dump_metrics("e5", &metrics_json);
}

/// E6 — §6: the driver loop. Burst drain time and idle-arrival latency vs
/// THRESHOLD and T; persistent vs volatile queue.
fn e6_driver(o: &Opts) {
    let burst = if o.quick { 5_000 } else { 20_000 };
    let mut metrics_json = String::new();
    let mut table = Table::new(&["THRESHOLD", "T", "burst drain tok/s", "idle latency (ms)"]);
    let tokens = quote_tokens(burst, 50, 22);
    let actions = alert_matches(1_000, Template::all(), 50, 21, &tokens);
    for (threshold_ms, t_ms) in [(250u64, 250u64), (50, 50), (10, 10), (250, 10), (10, 250)] {
        let cfg = Config {
            num_cpus: Some(2),
            threshold: Duration::from_millis(threshold_ms),
            driver_period: Duration::from_millis(t_ms),
            ..Default::default()
        };
        let (tman, src) = engine_with_alerts(traced(cfg), 1_000, Template::all(), 50, 21);
        push_all(&tman, src, &tokens);
        let pool = tman.start_drivers();
        let t0 = Instant::now();
        wait_for_actions(&tman, actions);
        let drain = t0.elapsed();
        // Idle latency: wait for drivers to go idle, then time a single
        // token to visibility.
        std::thread::sleep(Duration::from_millis(t_ms.min(300) + 20));
        let rx = tman.subscribe("Matched");
        let mut lat = Duration::ZERO;
        let probes = 5;
        for _ in 0..probes {
            std::thread::sleep(Duration::from_millis(t_ms.min(300)));
            let t0 = Instant::now();
            tman.push_token(UpdateDescriptor::insert(
                src,
                tman_common::Tuple::new(vec![Value::str("S1"), Value::Float(999.0), Value::Int(1)]),
            ))
            .unwrap();
            while rx.try_recv().is_err() {
                if t0.elapsed() > Duration::from_secs(5) {
                    break;
                }
                std::thread::yield_now();
            }
            lat += t0.elapsed();
        }
        pool.stop();
        table.row(vec![
            format!("{threshold_ms} ms"),
            format!("{t_ms} ms"),
            human(rate(burst, drain)),
            format!("{:.1}", lat.as_secs_f64() * 1000.0 / probes as f64),
        ]);
    }
    table.print();

    // Queue-mode comparison.
    let mut tq = Table::new(&["queue mode", "enqueue+drain tok/s"]);
    for (label, mode) in [
        ("volatile (memory)", QueueMode::Volatile),
        ("persistent (log)", QueueMode::Persistent),
    ] {
        let cfg = Config {
            queue_mode: mode,
            ..Default::default()
        };
        let (tman, src) = engine_with_alerts(traced(cfg), 500, Template::all(), 50, 23);
        let tokens = quote_tokens(if o.quick { 2_000 } else { 5_000 }, 50, 24);
        let (_, d) = time_it(|| {
            push_all(&tman, src, &tokens);
            tman.run_until_quiescent().unwrap();
        });
        tq.row(vec![label.into(), human(rate(tokens.len(), d))]);
        metrics_json = tman.render_metrics_json();
        dump_trace("e6", &tman);
    }
    println!("\nqueue modes (§3: persistent queue vs main-memory queue)");
    tq.print();
    dump_metrics("e6", &metrics_json);
}

/// E7 — §5.1: create-trigger cost stays flat as the population grows
/// (signature reuse = one constant-table row), and what an index entry
/// costs in memory as it does.
fn e7_create(o: &Opts) {
    let total = if o.quick { 20_000 } else { 100_000 };
    let step = total / 5;
    let mut table = Table::new(&[
        "existing triggers",
        "creates/s (repeat signature)",
        "index bytes/entry",
    ]);
    let tman = TriggerMan::open_memory(Config::default()).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    let mut r = rng(31);
    let mut created = 0usize;
    while created < total {
        let (_, d) = time_it(|| {
            for _ in 0..step {
                let t = Template::all()[created % Template::all().len()];
                let cond = t.condition(&mut r, 500);
                tman.execute_command(&format!(
                    "create trigger n{created} from q when {cond} do raise event N(q.sym)"
                ))
                .unwrap();
                created += 1;
            }
        });
        let ix = tman.predicate_index();
        let per_entry = ix.memory_bytes() as f64 / ix.num_entries().max(1) as f64;
        table.row(vec![
            (created - step).to_string(),
            human(rate(step, d)),
            format!("{per_entry:.1}"),
        ]);
    }
    table.print();
    println!(
        "{} triggers → {} signatures, {} entries",
        created,
        tman.predicate_index().num_signatures(),
        tman.predicate_index().num_entries()
    );
    dump_metrics("e7", &tman.render_metrics_json());
}

/// E8 — §3/§4: discrimination networks on the real-estate join workload.
fn e8_networks(o: &Opts) {
    let n_sales = 200;
    let n_reps = 800;
    let n_houses = if o.quick { 1_000 } else { 3_000 };
    let mut metrics_json = String::new();
    let mut table = Table::new(&[
        "network",
        "house tokens/s",
        "stored tuples",
        "rep-churn tok/s",
    ]);
    for kind in [
        NetworkKind::ATreat,
        NetworkKind::Treat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let cfg = Config {
            network: kind,
            ..Default::default()
        };
        let tman = TriggerMan::open_memory(traced(cfg)).unwrap();
        for (ddl, src) in [
            (
                "create table salesperson (spno int, name varchar(20))",
                "salesperson",
            ),
            (
                "create table house (hno int, price float, nno int)",
                "house",
            ),
            ("create table represents (spno int, nno int)", "represents"),
        ] {
            tman.run_sql(ddl).unwrap();
            tman.execute_command(&format!("define data source {src} from table {src}"))
                .unwrap();
        }
        let mut r = rng(41);
        for s in 0..n_sales {
            tman.run_sql(&format!("insert into salesperson values ({s}, 'P{s}')"))
                .unwrap();
        }
        for _ in 0..n_reps {
            tman.run_sql(&format!(
                "insert into represents values ({}, {})",
                r.range(0..n_sales),
                r.range(0..500)
            ))
            .unwrap();
        }
        tman.run_until_quiescent().unwrap();
        tman.execute_command(
            "create trigger watch on insert to house from salesperson s, house h, represents r \
             when s.name = 'P7' and s.spno = r.spno and r.nno = h.nno \
             do raise event W(h.hno)",
        )
        .unwrap();
        // House insert stream.
        let (_, d) = time_it(|| {
            for h in 0..n_houses {
                tman.run_sql(&format!(
                    "insert into house values ({h}, {}, {})",
                    r.range(1.0..100.0),
                    r.range(0..500)
                ))
                .unwrap();
            }
            tman.run_until_quiescent().unwrap();
        });
        let stored = tman
            .trigger_cache()
            .peek(tman_common::TriggerId(1))
            .and_then(|t| t.network().map(|n| n.memory_tuples()))
            .unwrap_or(0);
        // Represents churn (non-event tokens: memory maintenance only).
        let churn = if o.quick { 300 } else { 1_000 };
        let (_, d2) = time_it(|| {
            for _ in 0..churn {
                tman.run_sql(&format!(
                    "insert into represents values ({}, {})",
                    r.range(0..n_sales),
                    r.range(0..500)
                ))
                .unwrap();
                tman.run_until_quiescent().unwrap();
            }
        });
        table.row(vec![
            format!("{kind:?}"),
            human(rate(n_houses, d)),
            stored.to_string(),
            human(rate(churn, d2)),
        ]);
        metrics_json = tman.render_metrics_json();
        dump_trace("e8", &tman);
    }
    table.print();
    dump_metrics("e8", &metrics_json);
}

/// E9 — range-predicate indexing: interval index vs linear list as the
/// equivalence class grows (\[Hans96b\]; the paper's §9 future work).
fn e9_ranges(o: &Opts) {
    let sizes: &[usize] = if o.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "range triggers",
        "mem list ns/probe",
        "interval index ns/probe",
    ]);
    let mut metrics_json = String::new();
    for &n in sizes {
        let registry = Arc::new(Registry::new());
        let mut ix = PredicateIndex::new(IndexConfig {
            list_to_index: usize::MAX,
            ..Default::default()
        });
        ix.attach_telemetry(&registry);
        let mut r = rng(51);
        for i in 0..n {
            let lo = r.range(0..100_000);
            add_to_index(
                &ix,
                i as u64,
                &format!("q.vol >= {lo} and q.vol < {}", lo + r.range(1..500)),
                EventKind::Insert,
            );
        }
        let sig = ix.source(QUOTES).unwrap().signatures()[0].clone();
        let probes = if n >= 100_000 { 200 } else { 2_000 };
        let tokens = quote_tokens(probes, 4, 52);
        let mut timings = Vec::new();
        for kind in [OrgKind::MemList, OrgKind::MemIndex] {
            sig.set_org(kind).unwrap();
            let (_, d) = time_it(|| {
                for t in &tokens {
                    ix.match_token(t, &mut |_| {}).unwrap();
                }
            });
            timings.push(nanos_per(probes, d));
        }
        table.row(vec![
            n.to_string(),
            format!("{:.0}", timings[0]),
            format!("{:.0}", timings[1]),
        ]);
        metrics_json = registry.render_json();
    }
    table.print();
    dump_metrics("e9", &metrics_json);
}

/// E10 — §7 trigger application design: M triggers vs one parameterized
/// trigger joining a parameters table.
fn e10_design(o: &Opts) {
    let ms: &[usize] = if o.quick {
        &[100, 2_000]
    } else {
        &[100, 2_000, 20_000]
    };
    let mut table = Table::new(&["alert rules", "design", "setup time", "tokens/s"]);
    let mut metrics_json = String::new();
    for &m in ms {
        // Design A: M triggers (the scalable-trigger-system way). Size the
        // trigger cache to the population — at M=20k the default 16,384
        // capacity would otherwise measure cache thrash (that effect is
        // E5's subject), not the design tradeoff.
        {
            let cfg = Config {
                trigger_cache_capacity: m.max(16_384),
                ..Default::default()
            };
            let tman = TriggerMan::open_memory(traced(cfg)).unwrap();
            tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
                .unwrap();
            let src = tman.source("q").unwrap().id;
            let mut r = rng(61);
            let (_, setup) = time_it(|| {
                for i in 0..m {
                    tman.execute_command(&format!(
                        "create trigger d{i} from q \
                         when q.sym = 'S{}' and q.price > {} do raise event D(q.sym)",
                        r.range(0..200),
                        r.range(0..1000)
                    ))
                    .unwrap();
                }
            });
            let tokens = quote_tokens(if o.quick { 2_000 } else { 5_000 }, 200, 62);
            push_all(&tman, src, &tokens);
            let (_, d) = time_it(|| tman.run_until_quiescent().unwrap());
            table.row(vec![
                m.to_string(),
                "M triggers".into(),
                format!("{setup:.2?}"),
                human(rate(tokens.len(), d)),
            ]);
            dump_trace("e10", &tman);
        }
        // Design B: one trigger + a parameters table (§7's alternative).
        {
            let tman = TriggerMan::open_memory(Config::default()).unwrap();
            tman.run_sql("create table params (sym varchar(12), threshold float)")
                .unwrap();
            tman.execute_command("define data source params from table params")
                .unwrap();
            tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
                .unwrap();
            let src = tman.source("q").unwrap().id;
            let mut r = rng(61);
            let (_, setup) = time_it(|| {
                for _ in 0..m {
                    tman.run_sql(&format!(
                        "insert into params values ('S{}', {})",
                        r.range(0..200),
                        r.range(0..1000)
                    ))
                    .unwrap();
                }
                tman.run_until_quiescent().unwrap();
                tman.execute_command(
                    "create trigger para on insert to q from q, params p \
                     when q.sym = p.sym and q.price > p.threshold do raise event D(q.sym)",
                )
                .unwrap();
            });
            let n_tok = if o.quick { 200 } else { 500 }; // join scan is O(M) per token
            let tokens = quote_tokens(n_tok, 200, 62);
            push_all(&tman, src, &tokens);
            let (_, d) = time_it(|| tman.run_until_quiescent().unwrap());
            table.row(vec![
                m.to_string(),
                "1 trigger + table".into(),
                format!("{setup:.2?}"),
                human(rate(n_tok, d)),
            ]);
            metrics_json = tman.render_metrics_json();
        }
    }
    table.print();
    dump_metrics("e10", &metrics_json);
}

/// E15 — indexed disjunctions (tagged execution) vs residual-scan OR
/// triggers on a Zipf-skewed OR workload. Tagged, each selectable disjunct
/// registers as its own indexable entry (equality/range classes; a shared
/// per-trigger tag claim dedupes multi-arm matches), so per-token cost
/// tracks the match count. The residual-scan baseline is the same engine
/// given each condition with one more arm, `q.vol <> q.vol`, false on
/// every generated token and not selectable: the decomposer cannot split
/// the disjunction, so it stays one entry whose whole condition is a
/// residual test in an unindexable class — every token evaluates every OR
/// trigger, and per-token cost is O(population). Paper anchor: §5's
/// predicate decomposition, extended to disjunctions.
fn e15_disjunctions(o: &Opts) {
    let sizes: &[usize] = if o.quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let n_syms = 200;
    let mut table = Table::new(&[
        "OR triggers",
        "config",
        "tokens/s",
        "resid evals/tok",
        "dedup hits",
        "fires/tok",
    ]);
    let mut metrics_json = String::new();
    for &m in sizes {
        for tagged in [false, true] {
            let tman = TriggerMan::open_memory(Config::default()).unwrap();
            tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
                .unwrap();
            let src = tman.source("q").unwrap().id;
            // Zipf arms: hot symbols appear in many triggers' disjuncts,
            // so multi-arm matches (the tag-dedup path) are common.
            let zipf = Zipf::new(n_syms, 0.9);
            let mut r = rng(71);
            let pad = if tagged { "" } else { " or q.vol <> q.vol" };
            for i in 0..m {
                let a = zipf.sample(&mut r);
                let b = zipf.sample(&mut r);
                tman.execute_command(&format!(
                    "create trigger o{i} from q \
                     when q.sym = 'S{a}' or q.sym = 'S{b}' or q.vol = {}{pad} \
                     do raise event O(q.sym)",
                    r.range(0..100_000)
                ))
                .unwrap();
            }
            // The residual scan is O(m) per token: bound its stream the
            // way E1 bounds the naive ECA baseline.
            let n_tok = if tagged {
                if o.quick {
                    2_000
                } else {
                    5_000
                }
            } else {
                (2_000_000 / m.max(1)).clamp(50, 2_000)
            };
            let tokens: Vec<UpdateDescriptor> = {
                let mut tr = rng(72);
                (0..n_tok)
                    .map(|_| {
                        UpdateDescriptor::insert(
                            src,
                            tman_common::Tuple::new(vec![
                                Value::str(format!("S{}", zipf.sample(&mut tr))),
                                Value::Float(tr.range(0.0..1000.0)),
                                Value::Int(tr.range(0..100_000)),
                            ]),
                        )
                    })
                    .collect()
            };
            let rx = tman.subscribe("O");
            push_all(&tman, src, &tokens);
            let resid0 = tman.predicate_index().stats().residual_tests.get();
            let (_, d) = time_it(|| tman.run_until_quiescent().unwrap());
            let resid = tman.predicate_index().stats().residual_tests.get() - resid0;
            let fires = rx.try_iter().count();
            table.row(vec![
                m.to_string(),
                if tagged {
                    format!("tagged ({} entries)", tman.tagged_entries())
                } else {
                    "residual scan".into()
                },
                human(rate(n_tok, d)),
                format!("{:.1}", resid as f64 / n_tok as f64),
                tman.tag_dedup_hits().to_string(),
                format!("{:.2}", fires as f64 / n_tok as f64),
            ]);
            if tagged {
                metrics_json = tman.render_metrics_json();
            }
        }
    }
    table.print();
    dump_metrics("e15", &metrics_json);
}
