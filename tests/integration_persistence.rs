//! Durability: catalogs, constant tables, the persistent update queue and
//! trigger recompilation across restarts.

use tman_common::Value;
use triggerman::{Config, QueueMode, TriggerMan};

fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tman_it_{tag}_{}.db", std::process::id()))
}

#[test]
fn full_restart_cycle_with_many_triggers() {
    let path = tmpfile("many");
    let _ = std::fs::remove_file(&path);
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        ..Default::default()
    };
    {
        let tman = TriggerMan::open_file(&path, cfg.clone()).unwrap();
        tman.run_sql("create table s (k int, v varchar(16))")
            .unwrap();
        tman.execute_command("define data source s from table s")
            .unwrap();
        for i in 0..300 {
            tman.execute_command(&format!(
                "create trigger r{i} from s when s.k = {i} do notify 'r{i}'"
            ))
            .unwrap();
        }
        // Base data + unprocessed updates.
        tman.run_sql("insert into s values (42, 'pending')")
            .unwrap();
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, cfg.clone()).unwrap();
        assert_eq!(tman.trigger_names().len(), 300);
        assert_eq!(tman.predicate_index().num_entries(), 300);
        assert_eq!(tman.predicate_index().num_signatures(), 1);
        let rx = tman.subscribe("notify");
        // The queued token from before the restart processes now.
        tman.run_until_quiescent().unwrap();
        let msgs: Vec<String> = rx.try_iter().filter_map(|n| n.message).collect();
        assert_eq!(msgs, vec!["r42".to_string()]);
        // Base table rows survived too.
        assert_eq!(tman.run_sql("select * from s").unwrap().rows().len(), 1);
        // Drop some triggers, restart again.
        for i in 0..100 {
            tman.execute_command(&format!("drop trigger r{i}")).unwrap();
        }
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, cfg).unwrap();
        assert_eq!(tman.trigger_names().len(), 200);
        let rx = tman.subscribe("notify");
        tman.run_sql("insert into s values (50, 'x')").unwrap();
        tman.run_sql("insert into s values (150, 'y')").unwrap();
        tman.run_until_quiescent().unwrap();
        let mut msgs: Vec<String> = rx.try_iter().filter_map(|n| n.message).collect();
        msgs.sort();
        assert_eq!(msgs, vec!["r150".to_string()]); // r50 was dropped
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn enabled_flags_survive_restart() {
    let path = tmpfile("flags");
    let _ = std::fs::remove_file(&path);
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        tman.run_sql("create table t (x int)").unwrap();
        tman.execute_command("define data source t from table t")
            .unwrap();
        tman.execute_command("create trigger on_t from t when t.x = 1 do notify 'hit'")
            .unwrap();
        tman.execute_command("disable trigger on_t").unwrap();
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        let rx = tman.subscribe("notify");
        tman.run_sql("insert into t values (1)").unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(rx.try_recv().is_err(), "disabled flag must persist");
        tman.execute_command("enable trigger on_t").unwrap();
        tman.run_sql("insert into t values (1)").unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(rx.try_recv().is_ok());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn signature_catalog_reflects_organizations() {
    let path = tmpfile("sigcat");
    let _ = std::fs::remove_file(&path);
    {
        let cfg = Config {
            index: tman_predindex::IndexConfig {
                list_to_index: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let tman = TriggerMan::open_file(&path, cfg).unwrap();
        tman.run_sql("create table t (x int)").unwrap();
        tman.execute_command("define data source t from table t")
            .unwrap();
        for i in 0..50 {
            tman.execute_command(&format!(
                "create trigger g{i} from t when t.x = {i} do notify 'x'"
            ))
            .unwrap();
        }
        tman.checkpoint().unwrap();
        // Catalog rows carry size + organization.
        let rows = tman
            .run_sql("select constantSetSize, constantSetOrganization from expression_signature")
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(50));
        assert_eq!(rows[0].get(1), &Value::str("mem_index"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn join_triggers_reprime_after_restart() {
    let path = tmpfile("joins");
    let _ = std::fs::remove_file(&path);
    let cfg = Config {
        network: triggerman::NetworkKind::Treat,
        ..Default::default()
    };
    {
        let tman = TriggerMan::open_file(&path, cfg.clone()).unwrap();
        tman.run_sql("create table l (x int)").unwrap();
        tman.run_sql("create table r (y int)").unwrap();
        tman.execute_command("define data source l from table l")
            .unwrap();
        tman.execute_command("define data source r from table r")
            .unwrap();
        tman.run_sql("insert into r values (7)").unwrap();
        tman.run_until_quiescent().unwrap();
        tman.execute_command("create trigger lr from l, r when l.x = r.y do raise event LR(l.x)")
            .unwrap();
        tman.checkpoint().unwrap();
    }
    {
        // After restart the TREAT alpha memories must be re-primed from the
        // base table (r still holds 7).
        let tman = TriggerMan::open_file(&path, cfg).unwrap();
        let rx = tman.subscribe("LR");
        tman.run_sql("insert into l values (7)").unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(rx.try_recv().unwrap().values, vec![Value::Int(7)]);
    }
    let _ = std::fs::remove_file(&path);
}

/// `BufferPool::flush_all` used to hold the pool mutex while it took each
/// dirty page's lock, and `HeapFile::insert_framed` holds the tail page's
/// lock while it asks the pool for a page: a producer on the persistent
/// queue beside drivers acking it hung within a second (three runs of this
/// test in four, before the fix). Runs that shape for two seconds under a
/// watchdog, which fails the test where the deadlock would hang it.
#[test]
fn concurrent_enqueue_and_ack_on_a_wal_backed_store_do_not_deadlock() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    use tman_common::{Tuple, UpdateDescriptor};

    let path = tmpfile("flushorder");
    let _ = std::fs::remove_file(&path);
    let (done_tx, done_rx) = mpsc::channel();
    let worker_path = path.clone();
    let worker = std::thread::spawn(move || {
        let cfg = Config {
            queue_mode: QueueMode::Persistent,
            ..Default::default()
        };
        let tman = TriggerMan::open_file(&worker_path, cfg).unwrap();
        tman.execute_command("define data source q (k int, pad varchar(64))")
            .unwrap();
        tman.execute_command("create trigger every from q when q.k >= 0 do raise event Seen(q.k)")
            .unwrap();
        let src = tman.source("q").unwrap().id;
        let rx = tman.subscribe("Seen");
        let drivers = tman.start_drivers();
        let (mut pushed, mut seen) = (0u64, 0u64);
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(2) {
            // Closed loop: the queue table is scanned on every dequeue, so
            // an unbounded backlog would only make the drain slow.
            if tman.queue_len() > 4_096 {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            let batch = (pushed..pushed + 256)
                .map(|k| {
                    let row = vec![Value::Int(k as i64), Value::str("x".repeat(48))];
                    UpdateDescriptor::insert(src, Tuple::new(row))
                })
                .collect();
            tman.push_tokens(batch).unwrap();
            pushed += 256;
            seen += rx.try_iter().count() as u64;
        }
        while seen < pushed {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("drivers stopped draining");
            seen += 1;
        }
        drivers.stop();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        println!("{pushed} tokens pushed beside the drivers, all fired");
        done_tx.send(pushed).unwrap();
    });
    // At-least-once: a fire may repeat, none may be missing — the worker
    // returns only once every token pushed has fired.
    let pushed = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("producer and drivers hung (or the worker panicked): see flush_all's lock order");
    assert!(pushed > 0);
    worker.join().unwrap();
    let _ = std::fs::remove_file(&path);
}
