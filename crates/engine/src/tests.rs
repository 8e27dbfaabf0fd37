use super::*;
use std::time::Duration;
use tman_common::Value;

fn system() -> Arc<TriggerMan> {
    TriggerMan::open_memory(Config::default()).unwrap()
}

fn setup_emp(tman: &Arc<TriggerMan>) {
    tman.run_sql("create table emp (name varchar(32), salary float, dept int)")
        .unwrap();
    tman.execute_command("define data source emp from table emp")
        .unwrap();
}

fn setup_real_estate(tman: &Arc<TriggerMan>) {
    for (ddl, src) in [
        (
            "create table salesperson (spno int, name varchar(20), phone varchar(16))",
            "salesperson",
        ),
        (
            "create table house (hno int, address varchar(40), price float, nno int)",
            "house",
        ),
        ("create table represents (spno int, nno int)", "represents"),
        (
            "create table neighborhood (nno int, name varchar(20), location varchar(20))",
            "neighborhood",
        ),
    ] {
        tman.run_sql(ddl).unwrap();
        tman.execute_command(&format!("define data source {src} from table {src}"))
            .unwrap();
    }
}

#[test]
fn paper_example_update_fred() {
    // §2: "This rule sets the salary of Fred to the salary of Bob."
    let tman = system();
    setup_emp(&tman);
    tman.run_sql("insert into emp values ('Fred', 1000, 1)")
        .unwrap();
    tman.run_sql("insert into emp values ('Bob', 2000, 1)")
        .unwrap();
    tman.run_until_quiescent().unwrap();

    tman.execute_command(
        "create trigger updateFred from emp on update(emp.salary) \
         when emp.name = 'Bob' \
         do execSQL 'update emp set salary=:NEW.emp.salary where emp.name= ''Fred'''",
    )
    .unwrap();

    tman.run_sql("update emp set salary = 95000 where name = 'Bob'")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());

    let rows = tman
        .run_sql("select salary from emp where name = 'Fred'")
        .unwrap()
        .rows();
    assert_eq!(rows[0].get(0), &Value::Float(95000.0));
    assert_eq!(tman.stats().actions.get(), 1);

    // A name-only update must NOT fire (update(emp.salary) event).
    tman.run_sql("update emp set name = 'Robert' where name = 'Bob'")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(tman.stats().actions.get(), 1);
}

#[test]
fn paper_example_iris_house_alert() {
    let tman = system();
    setup_real_estate(&tman);
    tman.run_sql("insert into salesperson values (1, 'Iris', '555-1234')")
        .unwrap();
    tman.run_sql("insert into salesperson values (2, 'Bob', '555-9999')")
        .unwrap();
    tman.run_sql("insert into represents values (1, 10)")
        .unwrap();
    tman.run_sql("insert into represents values (2, 11)")
        .unwrap();
    tman.run_until_quiescent().unwrap();

    let rx = tman.subscribe("NewHouseInIrisNeighborhood");
    tman.execute_command(
        "create trigger IrisHouseAlert on insert to house \
         from salesperson s, house h, represents r \
         when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno \
         do raise event NewHouseInIrisNeighborhood(h.hno, h.address)",
    )
    .unwrap();

    // House in Iris's neighborhood fires; Bob's does not.
    tman.run_sql("insert into house values (100, '12 Oak St', 250000, 10)")
        .unwrap();
    tman.run_sql("insert into house values (101, '9 Elm St', 150000, 11)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());

    let n = rx.try_recv().unwrap();
    assert_eq!(&*n.trigger, "IrisHouseAlert");
    assert_eq!(n.values, vec![Value::Int(100), Value::str("12 Oak St")]);
    assert!(rx.try_recv().is_err(), "Bob's house must not fire");

    // Inserting a represents row must not raise (event is insert to house).
    tman.run_sql("insert into represents values (1, 11)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_err());
    // ... but now a house in nno 11 fires (Iris represents it too).
    tman.run_sql("insert into house values (102, '1 Pine St', 99000, 11)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_recv().unwrap().values[0], Value::Int(102));
}

#[test]
fn notify_action_substitutes_macros() {
    let tman = system();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command(
        "create trigger bigpay from emp when emp.salary > 80000 \
         do notify 'big: :NEW.emp.name earns :NEW.emp.salary'",
    )
    .unwrap();
    tman.run_sql("insert into emp values ('Ann', 90000, 2)")
        .unwrap();
    tman.run_sql("insert into emp values ('Bo', 50000, 2)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    let n = rx.try_recv().unwrap();
    assert_eq!(n.message.as_deref(), Some("big: Ann earns 90000"));
    assert!(rx.try_recv().is_err());
}

#[test]
fn delete_event_uses_old_image() {
    let tman = system();
    setup_emp(&tman);
    let rx = tman.subscribe("Gone");
    tman.execute_command(
        "create trigger leaver from emp on delete from emp \
         when emp.dept = 7 do raise event Gone(:OLD.emp.name)",
    )
    .unwrap();
    tman.run_sql("insert into emp values ('Kim', 100, 7)")
        .unwrap();
    tman.run_sql("insert into emp values ('Lee', 100, 8)")
        .unwrap();
    tman.run_sql("delete from emp where dept = 7").unwrap();
    tman.run_sql("delete from emp where dept = 8").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    let n = rx.try_recv().unwrap();
    assert_eq!(n.values, vec![Value::str("Kim")]);
    assert!(rx.try_recv().is_err());
}

#[test]
fn trigger_chaining_via_execsql() {
    // updateFred-style chaining: trigger A's execSQL fires trigger B.
    let tman = system();
    setup_emp(&tman);
    tman.run_sql("create table audit (who varchar(32), sal float)")
        .unwrap();
    tman.execute_command("define data source audit from table audit")
        .unwrap();
    let rx = tman.subscribe("Audited");
    tman.execute_command(
        "create trigger log_raises from emp on update(emp.salary) \
         do execSQL 'insert into audit values (:NEW.emp.name, :NEW.emp.salary)'",
    )
    .unwrap();
    tman.execute_command(
        "create trigger audit_watch from audit on insert to audit \
         do raise event Audited(audit.who)",
    )
    .unwrap();
    tman.run_sql("insert into emp values ('Zoe', 10, 1)")
        .unwrap();
    tman.run_sql("update emp set salary = 20 where name = 'Zoe'")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_recv().unwrap().values, vec![Value::str("Zoe")]);
    assert_eq!(tman.run_sql("select * from audit").unwrap().rows().len(), 1);
}

/// One trigger's failing action is that trigger's alone: the other
/// triggers the token matched still fire, the failure is recorded once and
/// named, and the call returns it.
#[test]
fn a_failing_action_does_not_swallow_the_other_triggers_fires() {
    let tman = system();
    setup_emp(&tman);
    tman.run_sql("create table audit (who varchar(32))")
        .unwrap();
    let rx = tman.subscribe("Seen");
    // Matched in this order: the `execSQL` first.
    tman.execute_command(
        "create trigger logs from emp when emp.dept = 1 \
         do execSQL 'insert into audit values (:NEW.emp.name)'",
    )
    .unwrap();
    tman.execute_command(
        "create trigger sees from emp when emp.dept = 1 do raise event Seen(emp.name)",
    )
    .unwrap();
    tman.run_sql("drop table audit").unwrap();
    let src = tman.source("emp").unwrap().id;
    let row = vec![Value::str("Ann"), Value::Float(1.0), Value::Int(1)];
    let token = UpdateDescriptor::insert(src, tman.tuple_for("emp", row).unwrap());
    let err = tman.process_token(&token).unwrap_err();
    assert_eq!(rx.try_recv().unwrap().values, vec![Value::str("Ann")]);
    let recorded = tman.last_error().expect("the failure is recorded");
    assert_eq!(recorded, err.to_string());
    assert!(recorded.contains("audit"), "{recorded}");
    assert_eq!(tman.stats().errors.get(), 1);
    assert_eq!(tman.stats().actions.get(), 2, "both actions ran");
}

/// Logged before acked, by the run: every notification of a drained run
/// reaches a registered sink before the first queue ack of that run —
/// with the persistent queue's watermark still below every token of it —
/// whether a run is one token or sixty-four.
#[test]
fn sinks_see_a_run_before_its_first_queue_ack() {
    struct Log {
        tman: std::sync::OnceLock<std::sync::Weak<TriggerMan>>,
        /// (token sequence, watermark when the sink was called)
        seen: Mutex<Vec<(i64, i64)>>,
    }
    impl NotificationSink for Log {
        fn on_publish(&self, n: &EventNotification) {
            let tman = self.tman.get().and_then(|t| t.upgrade()).expect("engine");
            let watermark = tman.queue_watermark().expect("persistent queue");
            let seq = n.token_seq.expect("durable origin");
            self.seen.lock().push((seq, watermark));
        }
    }
    for drain_batch in [1, 64] {
        let tman = TriggerMan::open_memory(Config {
            queue_mode: QueueMode::Persistent,
            drain_batch,
            ..Default::default()
        })
        .unwrap();
        tman.execute_command("define data source q (k int)")
            .unwrap();
        for t in 0..3 {
            tman.execute_command(&format!(
                "create trigger t{t} from q when q.k >= 0 do raise event E{t}(q.k)"
            ))
            .unwrap();
        }
        let log = Arc::new(Log {
            tman: Default::default(),
            seen: Default::default(),
        });
        log.tman.set(Arc::downgrade(&tman)).unwrap();
        tman.events().register_sink(log.clone());
        let src = tman.source("q").unwrap().id;
        let tokens = (0..64)
            .map(|k| UpdateDescriptor::insert(src, Tuple::new(vec![Value::Int(k)])))
            .collect();
        tman.push_tokens(tokens).unwrap();
        let before = tman.queue_watermark().unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());

        let seen = log.seen.lock();
        assert_eq!(seen.len(), 64 * 3);
        for &(seq, watermark) in seen.iter() {
            assert!(
                watermark < seq,
                "drain_batch {drain_batch}: token {seq} acked (watermark {watermark}) \
                 before a sink saw what it fired"
            );
        }
        if drain_batch == 64 {
            // One run: no ack at all before its last notification.
            assert!(seen.iter().all(|&(_, watermark)| watermark == before));
        }
        let last = seen.iter().map(|&(seq, _)| seq).max().unwrap();
        assert_eq!(tman.queue_watermark(), Some(last), "and then acked");
    }
}

#[test]
fn enable_disable_trigger_and_set() {
    let tman = system();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger set alerts").unwrap();
    tman.execute_command("create trigger t1 in alerts from emp when emp.dept = 1 do notify 't1'")
        .unwrap();

    tman.run_sql("insert into emp values ('a', 1, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_ok());

    tman.execute_command("disable trigger t1").unwrap();
    tman.run_sql("insert into emp values ('b', 1, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_err(), "disabled trigger must not fire");

    tman.execute_command("enable trigger t1").unwrap();
    tman.execute_command("disable trigger set alerts").unwrap();
    tman.run_sql("insert into emp values ('c', 1, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_err(), "disabled set must not fire");

    tman.execute_command("enable trigger set alerts").unwrap();
    tman.run_sql("insert into emp values ('d', 1, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_ok());
}

#[test]
fn drop_trigger_stops_matching_and_cleans_index() {
    let tman = system();
    setup_emp(&tman);
    tman.execute_command("create trigger t from emp when emp.dept = 1 do notify 'x'")
        .unwrap();
    assert_eq!(tman.predicate_index().num_entries(), 1);
    tman.execute_command("drop trigger t").unwrap();
    assert_eq!(tman.predicate_index().num_entries(), 0);
    assert!(tman.execute_command("drop trigger t").is_err());
    // Recreating under the same name works.
    tman.execute_command("create trigger t from emp when emp.dept = 2 do notify 'y'")
        .unwrap();
}

#[test]
fn signatures_shared_and_catalogued() {
    let tman = system();
    setup_emp(&tman);
    for i in 0..50 {
        tman.execute_command(&format!(
            "create trigger w{i} from emp when emp.salary > {} do notify 'hi'",
            1000 * i
        ))
        .unwrap();
    }
    assert_eq!(tman.predicate_index().num_signatures(), 1);
    assert_eq!(tman.predicate_index().num_entries(), 50);
    tman.refresh_signature_catalog().unwrap();
    let sigs = tman.catalog.signatures().unwrap();
    assert_eq!(sigs.len(), 1);
    assert_eq!(sigs[0].4, 50); // constantSetSize
    assert!(sigs[0].2.contains("CONSTANT1")); // signatureDesc
}

#[test]
fn duplicate_names_and_bad_commands_error() {
    let tman = system();
    setup_emp(&tman);
    tman.execute_command("create trigger t from emp do notify 'x'")
        .unwrap();
    assert!(tman
        .execute_command("create trigger t from emp do notify 'x'")
        .is_err());
    assert!(tman
        .execute_command("create trigger u from nosource do notify 'x'")
        .is_err());
    assert!(tman
        .execute_command("create trigger v from emp when emp.bogus = 1 do notify 'x'")
        .is_err());
    assert!(tman
        .execute_command("create trigger w from emp group by emp.dept do notify 'x'")
        .is_err());
    // A failed create leaves no residue.
    assert!(tman
        .execute_command("create trigger u from emp do notify 'ok'")
        .is_ok());
}

/// Capture routes a table's changes to one data source, so a second
/// source over an already-captured table is refused and the first keeps
/// receiving tokens.
#[test]
fn second_source_over_a_captured_table_is_refused() {
    let tman = system();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger t from emp when emp.dept = 1 do notify 'hit'")
        .unwrap();
    let second = tman.execute_command("define data source emp2 from table EMP");
    assert!(
        matches!(second, Err(TmanError::AlreadyExists(_))),
        "{second:?}"
    );
    assert!(
        tman.source("emp2").is_err(),
        "a refused define leaves no residue"
    );
    tman.run_sql("insert into emp values ('a', 1, 1)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 1);
}

#[test]
fn remote_data_source_via_push_token() {
    let tman = system();
    tman.execute_command("define data source quotes (symbol varchar(8), price float)")
        .unwrap();
    let rx = tman.subscribe("Cheap");
    tman.execute_command(
        "create trigger cheap from quotes when quotes.price < 10 \
         do raise event Cheap(quotes.symbol, quotes.price)",
    )
    .unwrap();
    let src = tman.source("quotes").unwrap().id;
    tman.push_token(UpdateDescriptor::insert(
        src,
        tman.tuple_for("quotes", vec![Value::str("ACME"), Value::Float(5.0)])
            .unwrap(),
    ))
    .unwrap();
    tman.push_token(UpdateDescriptor::insert(
        src,
        tman.tuple_for("quotes", vec![Value::str("BIG"), Value::Float(500.0)])
            .unwrap(),
    ))
    .unwrap();
    // An update descriptor (old → new images) that crosses the threshold.
    let image = |px| {
        tman.tuple_for("quotes", vec![Value::str("BIG"), Value::Float(px)])
            .unwrap()
    };
    tman.push_token(UpdateDescriptor::update(src, image(500.0), image(2.0)))
        .unwrap();
    tman.run_until_quiescent().unwrap();
    let got: Vec<Value> = rx.try_iter().map(|n| n.values[0].clone()).collect();
    assert_eq!(got, vec![Value::str("ACME"), Value::str("BIG")]);
    // What a data-source program may not send: a row of the wrong arity or
    // type, a row for a source that does not exist, a descriptor addressed
    // to one; a batch with one such descriptor is refused whole.
    let short = UpdateDescriptor::insert(src, Tuple::new(vec![Value::Int(1)]));
    assert!(matches!(
        tman.push_token(short.clone()),
        Err(TmanError::Type(_))
    ));
    let refused = |source, row| tman.tuple_for(source, row).is_err();
    assert!(refused("quotes", vec![Value::str("A"), Value::str("dear")]));
    assert!(refused(
        "quotes",
        vec![Value::str("A"), 1.0.into(), 2.into()]
    ));
    assert!(refused("missing", vec![Value::Int(1)]));
    let stray = UpdateDescriptor::insert(DataSourceId(999), image(1.0));
    assert!(matches!(
        tman.push_token(stray.clone()),
        Err(TmanError::NotFound(_))
    ));
    let good = UpdateDescriptor::insert(src, image(1.0));
    assert!(tman.push_tokens(vec![good.clone(), stray]).is_err());
    assert!(tman.push_tokens(vec![good, short]).is_err());
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 0, "nothing of a refused batch ran");
}

#[test]
fn persistent_recovery_restores_triggers_and_queue() {
    let path = std::env::temp_dir().join(format!("tman_engine_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        ..Default::default()
    };
    {
        let tman = TriggerMan::open_file(&path, cfg.clone()).unwrap();
        setup_emp(&tman);
        tman.execute_command(
            "create trigger persisted from emp when emp.dept = 3 do notify 'dept3: :NEW.emp.name'",
        )
        .unwrap();
        // Enqueue but do NOT process: must survive the restart.
        tman.run_sql("insert into emp values ('Pat', 1, 3)")
            .unwrap();
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, cfg).unwrap();
        assert_eq!(tman.trigger_names(), vec!["persisted".to_string()]);
        assert_eq!(tman.predicate_index().num_entries(), 1);
        let rx = tman.subscribe("notify");
        tman.run_until_quiescent().unwrap();
        assert_eq!(
            rx.try_recv().unwrap().message.as_deref(),
            Some("dept3: Pat")
        );
        // And the machinery still works for fresh updates.
        tman.run_sql("insert into emp values ('Quinn', 1, 3)")
            .unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(rx.try_recv().is_ok());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drivers_process_in_background() {
    let cfg = Config {
        num_cpus: Some(2),
        threshold: Duration::from_millis(5),
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger t from emp when emp.dept = 1 do notify 'hit'")
        .unwrap();
    let pool = tman.start_drivers();
    assert_eq!(pool.len(), 2);
    for i in 0..200 {
        tman.run_sql(&format!("insert into emp values ('p{i}', 1, {})", i % 4))
            .unwrap();
    }
    // Wait for the drivers to drain the queue.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while tman.queue_len() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    pool.stop();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 50);
}

#[test]
fn join_triggers_work_on_all_network_kinds() {
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
        let tman = TriggerMan::open_memory(cfg).unwrap();
        setup_real_estate(&tman);
        tman.run_sql("insert into salesperson values (1, 'Iris', 'x')")
            .unwrap();
        tman.run_sql("insert into represents values (1, 10)")
            .unwrap();
        tman.run_until_quiescent().unwrap();

        let rx = tman.subscribe("Hit");
        tman.execute_command(
            "create trigger j on insert to house from salesperson s, house h, represents r \
             when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno \
             do raise event Hit(h.hno)",
        )
        .unwrap();

        tman.run_sql("insert into house values (7, 'a', 1, 10)")
            .unwrap();
        tman.run_sql("insert into house values (8, 'b', 1, 99)")
            .unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(
            tman.last_error().is_none(),
            "{kind:?}: {:?}",
            tman.last_error()
        );
        assert_eq!(
            rx.try_recv().unwrap().values,
            vec![Value::Int(7)],
            "{kind:?}"
        );
        assert!(rx.try_recv().is_err(), "{kind:?}");

        // Represents-row churn maintains memories without firing.
        tman.run_sql("delete from represents where nno = 10")
            .unwrap();
        tman.run_sql("insert into house values (9, 'c', 1, 10)")
            .unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(rx.try_recv().is_err(), "{kind:?}: no rep row anymore");
    }
}

#[test]
fn update_tokens_maintain_stored_memories() {
    // TREAT: an update that moves a row out of the selection must retract
    // it from the alpha memory (via the synthetic-delete maintenance path).
    let cfg = Config {
        network: NetworkKind::Treat,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_real_estate(&tman);
    tman.run_sql("insert into salesperson values (1, 'Iris', 'x')")
        .unwrap();
    tman.run_sql("insert into represents values (1, 10)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    let rx = tman.subscribe("Hit");
    tman.execute_command(
        "create trigger j on insert to house from salesperson s, house h, represents r \
         when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno \
         do raise event Hit(h.hno)",
    )
    .unwrap();
    // Rename Iris: the selection s.name='Iris' no longer holds.
    tman.run_sql("update salesperson set name = 'Irene' where spno = 1")
        .unwrap();
    tman.run_sql("insert into house values (1, 'a', 1, 10)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_err(), "stale alpha memory fired");
    // Rename back: updates must re-admit her.
    tman.run_sql("update salesperson set name = 'Iris' where spno = 1")
        .unwrap();
    tman.run_sql("insert into house values (2, 'b', 1, 10)")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_recv().unwrap().values, vec![Value::Int(2)]);
}

#[test]
fn condition_level_concurrency_partitions() {
    let cfg = Config {
        condition_partitions: 4,
        partition_min: 10,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    // Many triggers with the same condition, different actions (the §6
    // partitioning example).
    for i in 0..40 {
        tman.execute_command(&format!(
            "create trigger p{i} from emp when emp.dept = 5 do notify 'p{i}'"
        ))
        .unwrap();
    }
    tman.run_sql("insert into emp values ('x', 1, 5)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 40, "all partitions processed");
}

#[test]
fn trigger_cache_eviction_and_reload() {
    let cfg = Config {
        trigger_cache_capacity: 4,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    for i in 0..20 {
        tman.execute_command(&format!(
            "create trigger c{i} from emp when emp.dept = {i} do notify 'c{i}'"
        ))
        .unwrap();
    }
    assert!(tman.trigger_cache().len() <= 4);
    assert!(tman.trigger_cache().stats().evictions.get() >= 16);
    // Firing an evicted trigger reloads (recompiles) it from the catalog.
    tman.run_sql("insert into emp values ('a', 1, 2)").unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_recv().unwrap().message.as_deref(), Some("c2"));
    assert!(tman.trigger_cache().stats().misses.get() > 0);
}

/// The drain takes no DDL lock. With the `Ddl` mutex held here, another
/// thread drains a resident trigger (cache hit), an evicted one (cache
/// miss: row fetch, recompile against the published sources and set flags,
/// re-prime), a join (alpha source), a captured `execSQL` and a windowed
/// match, then validates a token and takes a metrics snapshot.
#[test]
fn drain_completes_while_the_ddl_mutex_is_held() {
    let tman = TriggerMan::open_memory(Config {
        trigger_cache_capacity: 1,
        ..Config::default()
    })
    .unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.run_sql("create table audit (name varchar(32))")
        .unwrap();
    for text in [
        "define data source audit from table audit",
        "create trigger set s",
        "create trigger hit in s from emp when emp.dept = 1 do notify 'one'",
        "create trigger miss from emp when emp.dept = 2 \
         do execSQL 'insert into audit values (:NEW.emp.name)'",
        "create trigger logged from audit do notify 'audited'",
        "create trigger pair from emp e, audit a \
         when e.name = a.name and e.dept = 3 do notify 'joined'",
        "create trigger burst from emp when emp.dept = 4 count >= 2 within 1 hours \
         do notify 'burst'",
    ] {
        tman.execute_command(text).unwrap();
    }
    let src = tman.source("emp").unwrap().id;
    let tokens =
        [("a", 1), ("b", 2), ("a", 1), ("b", 3), ("c", 4), ("d", 4)].map(|(name, dept)| {
            let row = vec![Value::str(name), Value::Float(1.0), Value::Int(dept)];
            UpdateDescriptor::insert(src, tman.tuple_for("emp", row).unwrap())
        });

    let held = tman.ddl.lock();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let drain = tman.clone();
    let drain = std::thread::spawn(move || {
        for tok in &tokens {
            drain.process_token(tok).unwrap();
        }
        // The captured `audit` insert, through the queue and the
        // maintenance path (window expiry, ack flush).
        drain.run_until_quiescent().unwrap();
        drain.validate_token(&tokens[0]).unwrap();
        let _ = drain.metrics_snapshot();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the drain waited on the Ddl mutex");
    drop(held);
    drain.join().unwrap();
    let misses = tman.trigger_cache().stats().misses.get();
    assert!(misses >= 2, "capacity 1: the drain reloaded triggers");
    let mut got: Vec<String> = rx.try_iter().filter_map(|n| n.message).collect();
    got.sort();
    assert_eq!(got, ["audited", "burst", "joined", "one", "one"]);
}

#[test]
fn implicit_insert_or_update_event() {
    let tman = system();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    // No on clause: fires on insert and update, not delete.
    tman.execute_command("create trigger any from emp when emp.dept = 1 do notify 'hit'")
        .unwrap();
    tman.run_sql("insert into emp values ('a', 1, 1)").unwrap();
    tman.run_sql("update emp set salary = 2 where name = 'a'")
        .unwrap();
    tman.run_sql("delete from emp where name = 'a'").unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 2);
}

#[test]
fn tman_test_reports_threshold_expiry() {
    // drain_batch 1: each drain pass pulls exactly one token, so the zero
    // threshold expires after precisely one unit of work.
    let tman = TriggerMan::open_memory(Config {
        drain_batch: 1,
        ..Default::default()
    })
    .unwrap();
    setup_emp(&tman);
    tman.execute_command("create trigger t from emp when emp.dept >= 0 do notify 'x'")
        .unwrap();
    for i in 0..500 {
        tman.run_sql(&format!("insert into emp values ('p{i}', 1, 1)"))
            .unwrap();
    }
    // A zero threshold processes exactly one task then reports more work.
    assert_eq!(
        tman.tman_test(Duration::ZERO),
        TmanTestResult::TasksRemaining
    );
    assert_eq!(tman.stats().tokens.get(), 1);
    tman.run_until_quiescent().unwrap();
    assert_eq!(
        tman.tman_test(Duration::from_millis(1)),
        TmanTestResult::QueueEmpty
    );
    assert_eq!(tman.stats().tokens.get(), 500);
}

#[test]
fn connections_catalog_and_defaults() {
    let tman = system();
    // The local connection pre-exists and is the default.
    assert_eq!(tman.default_connection().unwrap(), "local");
    assert_eq!(tman.connections().unwrap().len(), 1);

    tman.execute_command(
        "define connection wallst type 'informix' host 'nyse.example.com' \
         server 'quotes1' user 'feed'",
    )
    .unwrap();
    assert_eq!(tman.connections().unwrap().len(), 2);
    assert_eq!(tman.default_connection().unwrap(), "local");
    assert!(
        tman.execute_command("define connection wallst type 'oracle'")
            .is_err(),
        "duplicate connection"
    );

    // A stream source on the remote connection works via push_token...
    tman.execute_command("define data source ticks (sym varchar(8), px float) via wallst")
        .unwrap();
    assert_eq!(tman.source("ticks").unwrap().connection, "wallst");
    // ...but captured local tables are local-connection only.
    tman.run_sql("create table t (x int)").unwrap();
    assert!(tman
        .execute_command("define data source t from table t via wallst")
        .is_err());
    assert!(tman
        .execute_command("define data source t from table t")
        .is_ok());

    // Changing the default connection affects subsequent sources.
    tman.execute_command("define connection lse type 'db2' default")
        .unwrap();
    assert_eq!(tman.default_connection().unwrap(), "lse");
    tman.execute_command("define data source lseticks (sym varchar(8), px float)")
        .unwrap();
    assert_eq!(tman.source("lseticks").unwrap().connection, "lse");
}

#[test]
fn connections_survive_restart() {
    let path = std::env::temp_dir().join(format!("tman_conn_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        tman.execute_command("define connection feed type 'sybase' host 'h1' default")
            .unwrap();
        tman.execute_command("define data source s (x int) via feed")
            .unwrap();
        tman.checkpoint().unwrap();
    }
    {
        let tman = TriggerMan::open_file(&path, Config::default()).unwrap();
        assert_eq!(tman.default_connection().unwrap(), "feed");
        assert_eq!(tman.connections().unwrap().len(), 2);
        assert_eq!(tman.source("s").unwrap().connection, "feed");
    }
    let _ = std::fs::remove_file(&path);
}

// ----- observability (tman-telemetry wiring) ---------------------------------

/// Drive a small but representative workload: two triggers (notify +
/// raise event), 40 matching / 20 non-matching tokens.
fn run_observed_workload(tman: &Arc<TriggerMan>) {
    setup_emp(tman);
    let _keep = tman.subscribe("Big");
    tman.execute_command(
        "create trigger obs1 from emp when emp.dept = 1 do notify 'd1: :NEW.emp.name'",
    )
    .unwrap();
    tman.execute_command(
        "create trigger obs2 from emp when emp.salary > 100 do raise event Big(emp.name)",
    )
    .unwrap();
    for i in 0..60 {
        tman.run_sql(&format!(
            "insert into emp values ('p{i}', {}, {})",
            i * 10,
            i % 3
        ))
        .unwrap();
    }
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
}

#[test]
fn metrics_snapshot_invariants_after_quiescence() {
    let tman = system();
    run_observed_workload(&tman);
    let m = tman.metrics_snapshot();

    // Every enqueued token was dequeued and processed; the depth gauge is
    // back to zero.
    assert_eq!(m.queue.enqueued, 60);
    assert_eq!(m.queue.dequeued, m.queue.enqueued);
    assert_eq!(m.queue.depth, 0);
    assert_eq!(m.engine.tokens, m.queue.enqueued);
    assert_eq!(m.queue.wait_ns.count, 60);

    // Cache accounting: every pin was either a hit or a miss.
    assert_eq!(m.cache.pins, m.cache.hits + m.cache.misses);
    assert!(m.cache.pins > 0);

    // Driver task accounting: inline actions mean every task was a token.
    assert_eq!(m.driver.tasks_token, 60);
    assert!(m.driver.tman_test_calls > 0);
    assert_eq!(m.driver.tman_test_ns.count, m.driver.tman_test_calls);

    // Index: 60 tokens reached the root; probes found the matches that
    // became engine firings.
    assert_eq!(m.index.tokens, 60);
    assert!(m.index.matches >= m.engine.firings);
    let org_probes: u64 = m.index.per_org.iter().map(|o| o.probes).sum();
    let org_matches: u64 = m.index.per_org.iter().map(|o| o.matches).sum();
    assert_eq!(org_probes, m.index.probes);
    assert_eq!(org_matches, m.index.matches);

    // Actions: obs1 (notify) fires for dept=1 (20 tokens), obs2
    // (raise event) for salary>100 (49 tokens: i in 11..60).
    assert_eq!(m.actions.notify, 20);
    assert_eq!(m.actions.raise_event, 49);
    assert_eq!(m.engine.actions, 69);
    assert_eq!(m.actions.latency_ns.count, 69);
    assert_eq!(m.actions.notify_fanout.count, 69);
    // One live "Big" subscriber; notify has none.
    assert_eq!(m.actions.delivered, 49);

    // Storage served catalog reads.
    assert!(m.storage.pool_hits > 0);
    assert!((m.storage.pool_hit_rate - 1.0).abs() < 1e-9 || m.storage.pool_misses > 0);

    // Fault-path counters exist and stay zero without an armed fault plan.
    assert_eq!(m.storage.faults_injected, 0);
    assert_eq!(m.storage.io_retries, 0);
    assert_eq!(m.storage.checksum_failures, 0);
    assert_eq!(m.storage.quarantined_pages, 0);
    assert_eq!(m.queue.corrupt_rows, 0);
    // Volatile queue mode: no delivery watermark.
    assert_eq!(m.queue.watermark, None);

    // Signature rows exist for both triggers' signatures.
    assert!(!m.signatures.is_empty());
}

#[test]
fn render_text_exposes_all_subsystems() {
    let tman = system();
    run_observed_workload(&tman);
    let text = tman.render_text();
    for series in [
        "# TYPE tman_queue_depth gauge",
        "# TYPE tman_queue_wait_ns summary",
        "tman_queue_enqueued_total 60",
        "tman_tokens_processed_total 60",
        "tman_tasks_executed_total{type=\"token\"} 60",
        "tman_test_calls_total",
        "tman_index_probes_total{org=",
        "tman_index_tokens_total 60",
        "tman_cache_pins_total",
        "tman_pool_hits_total",
        "tman_actions_total{kind=\"notify\"} 20",
        "tman_action_ns_count 69",
        "tman_notifications_delivered_total 49",
        "tman_faults_injected_total 0",
        "tman_io_retries_total 0",
        "tman_checksum_failures_total 0",
        "tman_quarantined_pages_total 0",
        "tman_queue_corrupt_rows_total 0",
        // Wire-tier series are pre-registered so scrapers see the family
        // (at zero) before the first remote connection.
        "tman_wire_tokens_total 0",
        "tman_wire_delivery_errors_total 0",
        "tman_wire_frames_total{dir=\"in\"} 0",
        "# TYPE tman_wire_ingest_to_fire_ns summary",
        "tman_wire_fire_to_ack_ns_count 0",
        "tman_wire_credit_stall_ns_count 0",
    ] {
        assert!(text.contains(series), "missing '{series}' in:\n{text}");
    }
    // JSON rendering parses the same families.
    let json = tman.render_metrics_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"tman_tokens_processed_total\":60"));
}

#[test]
fn show_stats_command_formats_report() {
    let tman = system();
    run_observed_workload(&tman);
    let CommandOutput::Stats(all) = tman.execute_command("show stats").unwrap() else {
        panic!("expected stats output");
    };
    for section in [
        "engine:", "queue:", "driver:", "index:", "cache:", "storage:", "actions:", "wire:",
    ] {
        assert!(
            all.contains(section),
            "missing section {section} in:\n{all}"
        );
    }
    assert!(all.contains("tokens processed   60"));
    // The crash-tolerance counters show up in their sections.
    assert!(all.contains("faults             injected=0"));
    assert!(all.contains("corrupt rows       0"));

    let CommandOutput::Stats(cache_only) = tman.execute_command("show stats cache").unwrap() else {
        panic!("expected stats output");
    };
    assert!(cache_only.contains("cache:") && !cache_only.contains("queue:"));
    // The wire subsystem is selectable on its own, with the SLI rows.
    let CommandOutput::Stats(wire_only) = tman.execute_command("show stats wire").unwrap() else {
        panic!("expected stats output");
    };
    assert!(wire_only.contains("wire:") && !wire_only.contains("queue:"));
    assert!(
        wire_only.contains("ingest->fire") && wire_only.contains("fire->ack"),
        "missing SLI rows in:\n{wire_only}"
    );
    // predindex is accepted as an alias for index.
    assert!(tman.execute_command("show stats predindex").is_ok());
    assert!(tman.execute_command("show stats bogus").is_err());
}

/// `Config { http_addr }` serves the exposition endpoints over plain
/// HTTP/1.0 for the engine's lifetime: `/metrics` is the Prometheus text,
/// `/metrics.json` and `/tracez` are JSON, `/healthz` reports liveness,
/// anything else is 404 — and shutdown stops the listener.
#[test]
fn http_endpoint_serves_metrics_health_and_traces() {
    use std::io::{Read, Write};

    let tman = TriggerMan::open_memory(Config {
        tracing: TracingMode::Full,
        http_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    })
    .unwrap();
    run_observed_workload(&tman);

    let addr = tman.http_local_addr().expect("endpoint started at open");
    let get = |path: &str| -> (String, String) {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status = raw.lines().next().unwrap_or_default().to_string();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    };

    let (status, body) = get("/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("tman_tokens_processed_total 60"), "{body}");
    let (status, body) = get("/metrics.json");
    assert!(status.contains("200"), "{status}");
    assert!(body.starts_with('{') && body.contains("\"tman_tokens_processed_total\":60"));
    let (status, body) = get("/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("ok"), "{body}");
    let (status, body) = get("/tracez");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("traceEvents"), "{body}");
    let (status, _) = get("/nope");
    assert!(status.contains("404"), "{status}");

    tman.shutdown();
    assert!(
        tman.http_local_addr().is_none(),
        "listener survived shutdown"
    );
    assert!(
        std::net::TcpStream::connect(addr).is_err()
            || std::net::TcpStream::connect(addr)
                .and_then(|mut s| {
                    s.set_read_timeout(Some(Duration::from_secs(5)))?;
                    write!(s, "GET /healthz HTTP/1.0\r\n\r\n")?;
                    let mut raw = String::new();
                    s.read_to_string(&mut raw).map(|_| s)
                })
                .is_err(),
        "endpoint still answering after shutdown"
    );
}

/// A multi-conjunct trigger population run with condition partitioning
/// yields one trace tree per token covering the queue wait, every
/// partition probe, the cache pin, and the action — with parent links
/// that survive the §6 task hand-offs — and the tree is reachable from the
/// console and exports as valid Chrome trace JSON.
#[test]
fn trace_tree_covers_partitioned_fanout() {
    use tman_telemetry::trace::NO_PARENT;
    let cfg = Config {
        tracing: TracingMode::Full,
        condition_partitions: 2,
        partition_min: 1,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    let src = tman.source("q").unwrap().id;
    for i in 0..8 {
        tman.execute_command(&format!(
            "create trigger p{i} from q when q.sym = 'S{i}' and q.price > 10 \
             do raise event Hit(q.sym)"
        ))
        .unwrap();
    }
    let rx = tman.subscribe("Hit");
    tman.push_token(UpdateDescriptor::insert(
        src,
        Tuple::new(vec![Value::str("S3"), Value::Float(50.0), Value::Int(1)]),
    ))
    .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 1);

    let snap = tman.trace_snapshot();
    assert_eq!(snap.stats.started, 1);
    assert_eq!(snap.stats.retained, 1);
    assert_eq!(snap.traces.len(), 1);
    let tree = &snap.traces[0];
    let root = tree.root().expect("root token span survived");
    assert_eq!(root.parent_id, NO_PARENT);

    let count = |k: SpanKind| tree.events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(SpanKind::QueueWait), 1, "{}", tree.render());
    assert_eq!(count(SpanKind::Process), 1);
    assert_eq!(count(SpanKind::Fanout), 1);
    assert_eq!(count(SpanKind::SigProbe), 2, "one probe per partition");
    assert!(count(SpanKind::RestTest) >= 1, "residual tests aggregated");
    assert!(count(SpanKind::CachePin) >= 1);
    assert_eq!(count(SpanKind::Action), 1);
    assert_eq!(count(SpanKind::Notify), 1);

    // Partition probes carry (part, nparts) and parent to the fan-out span
    // even though the partition tasks went back through the task queue.
    let fanout = tree
        .events
        .iter()
        .find(|e| e.kind == SpanKind::Fanout)
        .unwrap();
    let probes: Vec<_> = tree
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::SigProbe)
        .collect();
    let mut parts: Vec<u64> = probes.iter().map(|p| p.arg_b >> 32).collect();
    parts.sort_unstable();
    assert_eq!(parts, vec![0, 1]);
    for p in &probes {
        assert_eq!(p.parent_id, fanout.span_id);
        assert_eq!(p.arg_b & 0xffff_ffff, 2, "nparts");
    }
    // Every span's parent resolves inside the same tree: no dangling links
    // across the enqueue → probe → pin → action chain.
    for ev in &tree.events {
        if ev.span_id != tman_telemetry::trace::ROOT_SPAN {
            assert!(
                tree.span(ev.parent_id).is_some(),
                "dangling parent for {ev:?}"
            );
        }
    }

    // Console surfaces render the same tree.
    let CommandOutput::Trace(text) = tman
        .execute_command(&format!("trace token {}", tree.trace_id))
        .unwrap()
    else {
        panic!("expected trace output");
    };
    assert!(text.contains("sig_probe"), "{text}");
    assert!(text.contains("action"), "{text}");
    let CommandOutput::Trace(last) = tman.execute_command("trace last 5").unwrap() else {
        panic!("expected trace output");
    };
    assert!(last.contains(&format!("trace {}", tree.trace_id)));
    assert!(tman.execute_command("trace token 999999").is_err());

    // The Perfetto export round-trips through the serde-free validator.
    let json = tman.render_chrome_trace();
    let n = tman_telemetry::trace::validate_chrome_trace(&json).unwrap();
    assert_eq!(n, tree.events.len());
}

/// Tracing does not change which code runs: a sampled token inside a
/// 64-token drained run gets its span tree from the one pipeline —
/// `process → sig_probe → {cache_pin, action → notify}` — and the index
/// counts exactly the probes and matches it counts for the same run with
/// tracing off.
#[test]
fn traced_token_in_a_batched_run_stays_on_the_pipeline() {
    let run = |tracing: TracingMode| {
        let tman = TriggerMan::open_memory(Config {
            tracing,
            drain_batch: 64,
            // Retention by sampling alone: no token counts as slow.
            slow_token_threshold: Duration::from_secs(3600),
            ..Default::default()
        })
        .unwrap();
        tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
            .unwrap();
        for i in 0..8 {
            tman.execute_command(&format!(
                "create trigger p{i} from q when q.sym = 'S{i}' and q.price > 10 \
                 do raise event Hit(q.sym)"
            ))
            .unwrap();
        }
        tman.execute_command("create trigger v from q when q.vol = 1000 do raise event Vol(q.vol)")
            .unwrap();
        let src = tman.source("q").unwrap().id;
        let rx = tman.subscribe("Hit");
        let batch: Vec<UpdateDescriptor> = (0..64)
            .map(|i| {
                let row = vec![
                    Value::str(format!("S{}", i % 16)),
                    Value::Float(50.0),
                    Value::Int(i),
                ];
                UpdateDescriptor::insert(src, Tuple::new(row))
            })
            .collect();
        // One dequeue takes all 64 (`drain_batch`): one run of the pipeline.
        tman.push_tokens(batch).unwrap();
        tman.run_until_quiescent().unwrap();
        assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
        assert_eq!(rx.try_iter().count(), 32, "S0..S7 of 16 syms, four each");
        tman
    };
    let counted = |tman: &TriggerMan| {
        let stats = tman.predicate_index().stats();
        (stats.probes.get(), stats.matches.get())
    };
    let tman = run(TracingMode::Sampled(64));
    assert_eq!(counted(&tman), counted(&run(TracingMode::Off)));
    assert_eq!(counted(&tman), (2 * 64, 32), "two signatures a token");

    let snap = tman.trace_snapshot();
    assert_eq!(snap.stats.started, 64, "every token of the run is traced");
    assert_eq!(snap.traces.len(), 1, "one of 64 is sampled in");
    let tree = &snap.traces[0];
    let of =
        |k: SpanKind| -> Vec<&TraceEvent> { tree.events.iter().filter(|e| e.kind == k).collect() };
    let one = |k: SpanKind| -> &TraceEvent {
        let spans = of(k);
        assert_eq!(spans.len(), 1, "{k:?} in\n{}", tree.render());
        spans[0]
    };
    let process = one(SpanKind::Process);
    assert_eq!(process.parent_id, tman_telemetry::trace::ROOT_SPAN);
    let probes = of(SpanKind::SigProbe);
    assert_eq!(
        probes.len(),
        2,
        "one probe per signature:\n{}",
        tree.render()
    );
    assert!(probes.iter().all(|p| p.parent_id == process.span_id));
    // The sampled token is the run's first: `S0`, price 50 — one match.
    let (pin, action, notify) = (
        one(SpanKind::CachePin),
        one(SpanKind::Action),
        one(SpanKind::Notify),
    );
    assert_eq!(
        pin.parent_id, action.parent_id,
        "pin and action under one probe"
    );
    assert!(probes.iter().any(|p| p.span_id == pin.parent_id));
    assert_eq!(notify.parent_id, action.span_id);
    // The notification left with its run, after the action that built it,
    // and the token's `Process` span stayed open until it had.
    let end = |e: &TraceEvent| e.start_ns + e.dur_ns;
    assert!(notify.start_ns >= end(action), "delivered at the flush");
    assert!(end(process) >= end(notify));
    assert_eq!(notify.arg_b, 1, "fanout: the one subscriber");
    assert_eq!(
        of(SpanKind::RestTest).len(),
        1,
        "`price > 10` is a residual test"
    );
}

#[test]
fn tracing_off_is_inert() {
    let tman = system(); // default Config: TracingMode::Off
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    let src = tman.source("q").unwrap().id;
    tman.execute_command("create trigger t from q when q.vol > 0 do raise event E(q.vol)")
        .unwrap();
    tman.push_token(UpdateDescriptor::insert(
        src,
        Tuple::new(vec![Value::str("A"), Value::Float(1.0), Value::Int(5)]),
    ))
    .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(tman.stats().tokens.get(), 1);

    assert!(tman.tracer().is_none());
    let snap = tman.trace_snapshot();
    assert!(snap.traces.is_empty());
    assert_eq!(snap.stats.started, 0);
    let CommandOutput::Trace(s) = tman.execute_command("trace last 3").unwrap() else {
        panic!("expected trace output");
    };
    assert!(s.contains("tracing is off"));
    assert!(tman.execute_command("trace token 1").is_err());
    // The empty export is still a valid (zero-event) Chrome trace.
    let json = tman.render_chrome_trace();
    assert_eq!(
        tman_telemetry::trace::validate_chrome_trace(&json).unwrap(),
        0
    );
    // Metrics report the subsystem as disabled.
    assert!(!tman.metrics_snapshot().trace.enabled);
}

// ----- Figure-5 condition-level fan-out ---------------------------------------

/// Regression for the `TmanTestResult` threshold semantics: partition
/// tasks enqueued by the last token before THRESHOLD expires are pending
/// work, so the call must report `TasksRemaining` — stranding them until
/// the next driver period serializes exactly the fan-out that was supposed
/// to add parallelism. Conversely, an expiry with nothing left is a clean
/// drain and must *not* count as a threshold expiration.
#[test]
fn sig_partition_fanout_near_threshold_not_stranded() {
    let cfg = Config {
        condition_partitions: 4,
        partition_min: 1,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger t from emp when emp.dept >= 0 do notify 'x'")
        .unwrap();
    tman.run_sql("insert into emp values ('a', 1, 1)").unwrap();

    // A zero threshold expires right after the first task: the token's
    // probe fans out into 4 partition tasks that are still queued.
    assert_eq!(
        tman.tman_test(Duration::ZERO),
        TmanTestResult::TasksRemaining
    );
    assert!(!tman.shards.is_empty(), "fan-out tasks must be queued");
    assert_eq!(tman.telemetry.threshold_expirations.get(), 1);
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_iter().count(), 1);

    // Tiny threshold on a drained engine: expiry with nothing pending is
    // QueueEmpty, and the expiration counter must not move.
    assert_eq!(tman.tman_test(Duration::ZERO), TmanTestResult::QueueEmpty);
    assert_eq!(tman.telemetry.threshold_expirations.get(), 1);
}

/// Stress: partitioned fan-out while triggers in the same
/// signature class are created/dropped (insert-time promotion included),
/// the class is switched through all four organizations with `set_org`,
/// and task placement is narrowed and widened mid-stream. Partitions are
/// assigned by `expr_id % nparts`, so every matching token must fire the
/// sentinel exactly once — no lost and no duplicated firings — and the run
/// must not deadlock.
fn partition_churn_stress(tokens: usize, churn_iters: usize) {
    let cfg = Config {
        condition_partitions: 4,
        partition_min: 1,
        index: tman_predindex::IndexConfig {
            list_to_index: 8,
            ..Default::default()
        },
        threshold: Duration::from_millis(5),
        num_cpus: Some(4),
        shards: Some(4),
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("Hit");
    tman.execute_command(
        "create trigger sentinel from emp when emp.dept = 777 do raise event Hit(emp.name)",
    )
    .unwrap();
    // Seed the class with siblings so partitioned probes see >1 entry.
    for i in 0..16 {
        tman.execute_command(&format!(
            "create trigger seed{i} from emp when emp.dept = {i} do notify 's'"
        ))
        .unwrap();
    }
    let pool = tman.start_drivers();
    let stop = Arc::new(AtomicBool::new(false));

    // Churn: create/drop triggers in the sentinel's signature class.
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
    // Organization + placement toggling: switch the class through the
    // four organizations and the active-shard count through 1..=4.
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
                tman.set_active_shards(1 + w % 4);
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
    while (tman.stats().tokens.get() < tokens as u64 || tman.queue_len() > 0)
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
    assert_eq!(tman.stats().tokens.get(), tokens as u64, "tokens processed");
    let hits = rx.try_iter().count() as u64;
    assert_eq!(hits, expected, "sentinel must fire exactly once per match");
}

#[test]
fn partitioned_fanout_stress_with_churn_and_org_switches() {
    partition_churn_stress(150, 40);
}

#[test]
#[ignore = "long partition/churn stress; run with --ignored"]
fn partitioned_fanout_stress_long() {
    partition_churn_stress(3000, 600);
}

// ----- sharded engine + batched token drain ----------------------------------

/// A K-token batch pays exactly one ack/watermark durability barrier
/// (`UpdateQueue::ack_batch`), not one per token as the per-token drain
/// did: the whole point of the batched drain on a persistent queue.
#[test]
fn batched_drain_pays_one_ack_barrier_per_batch() {
    let path = std::env::temp_dir().join(format!("tman_batch_ack_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        drain_batch: 64,
        ..Default::default()
    };
    let tman = TriggerMan::open_file(&path, cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger t from emp when emp.dept >= 0 do notify 'x'")
        .unwrap();
    for i in 0..32 {
        tman.run_sql(&format!("insert into emp values ('p{i}', 1, {i})"))
            .unwrap();
    }
    let flushes_before = tman.queue.wm_flushes().get();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 32);
    // 32 tokens fit one drain batch: exactly one watermark barrier.
    assert_eq!(tman.queue.wm_flushes().get() - flushes_before, 1);
    assert_eq!(tman.queue.watermark(), Some(32));
    drop(tman);
    let _ = std::fs::remove_file(&path);
}

/// One `tman_test` over a deep persistent backlog costs the batch it
/// drains, not the backlog: a 64-token dequeue, the ack's one meta-page
/// write and the O(1) pending-work check together fetch a handful of
/// pages, where a scanned queue table fetched every page of the backlog
/// twice per call. Counted on the pool's own fetch counters, which repeat
/// exactly from run to run.
#[test]
fn tman_test_on_a_deep_backlog_touches_only_its_batch() {
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        drain_batch: 64,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int)")
        .unwrap();
    tman.execute_command("create trigger v from q when q.vol = 7 do raise event Vol(q.vol)")
        .unwrap();
    let src = tman.source("q").unwrap().id;
    let rx = tman.subscribe("Vol");
    let backlog: Vec<UpdateDescriptor> = (0..4_096)
        .map(|i| {
            let row = vec![Value::str("S"), Value::Float(1.0), Value::Int(i % 64)];
            UpdateDescriptor::insert(src, Tuple::new(row))
        })
        .collect();
    tman.push_tokens(backlog).unwrap();
    assert_eq!(tman.queue_len(), 4_096);

    let stats = tman.database().storage().pool().stats().clone();
    let fetches = || stats.pool_hits.get() + stats.pool_misses.get();
    let before = fetches();
    // A zero threshold expires after the first batch: one dequeue, one
    // run, one ack barrier, one look at what is left.
    let result = tman.tman_test(Duration::ZERO);
    let touched = fetches() - before;
    assert_eq!(result, TmanTestResult::TasksRemaining);
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 1);
    assert_eq!(tman.queue_len(), 4_096 - 64);
    assert_eq!(tman.queue.watermark(), Some(64));
    // The backlog lies on some forty pages of the log. The batch lies on
    // one or two; the ack fetches the log's meta page.
    assert!(
        touched <= 3,
        "{touched} page fetches for one 64-token batch"
    );
}

/// With fan-out, a token's ack is deferred until every partition task
/// spawned for it has run — and all of them do complete under
/// `run_until_quiescent`, leaving the watermark fully advanced (no row is
/// acked early, none is stranded in-flight).
#[test]
fn deferred_acks_complete_across_fanout() {
    let path = std::env::temp_dir().join(format!("tman_defer_ack_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = Config {
        queue_mode: QueueMode::Persistent,
        drain_batch: 8,
        shards: Some(4),
        condition_partitions: 4,
        partition_min: 1,
        ..Default::default()
    };
    let tman = TriggerMan::open_file(&path, cfg).unwrap();
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger t from emp when emp.dept >= 0 do notify 'x'")
        .unwrap();
    for i in 0..20 {
        tman.run_sql(&format!("insert into emp values ('p{i}', 1, {i})"))
            .unwrap();
    }
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), 20);
    assert_eq!(tman.queue.watermark(), Some(20));
    assert!(tman.queue.is_empty());
    drop(tman);
    let _ = std::fs::remove_file(&path);
}

/// Narrowing/widening the active-shard set mid-stream only redirects task
/// placement — every queued task still drains (steal scan), every firing
/// still happens exactly once.
#[test]
fn set_active_shards_mid_stream_is_lossless() {
    let cfg = Config {
        shards: Some(4),
        drain_batch: 16,
        condition_partitions: 2,
        partition_min: 1,
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    assert_eq!(tman.num_shards(), 4);
    setup_emp(&tman);
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger t from emp when emp.dept = 1 do notify 'hit'")
        .unwrap();
    let mut expected = 0;
    for (round, width) in [(0usize, 4usize), (1, 1), (2, 3), (3, 2)] {
        assert_eq!(tman.set_active_shards(width), width);
        assert_eq!(tman.active_shards(), width);
        for i in 0..10 {
            let dept = i % 2; // half the tokens match
            expected += dept; // dept==1 fires
            tman.run_sql(&format!(
                "insert into emp values ('r{round}i{i}', 1, {dept})"
            ))
            .unwrap();
        }
        tman.run_until_quiescent().unwrap();
    }
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_iter().count(), expected);
    // Clamping: 0 and over-wide requests land in [1, num_shards].
    assert_eq!(tman.set_active_shards(0), 1);
    assert_eq!(tman.set_active_shards(100), 4);
}

/// `show stats drivers` exposes the per-shard rows and the active-shard
/// gauge; the snapshot mirrors them as typed data.
#[test]
fn show_stats_drivers_reports_shard_rows() {
    let cfg = Config {
        shards: Some(2),
        ..Default::default()
    };
    let tman = TriggerMan::open_memory(cfg).unwrap();
    setup_emp(&tman);
    tman.execute_command("create trigger t from emp when emp.dept >= 0 do notify 'x'")
        .unwrap();
    for i in 0..6 {
        tman.run_sql(&format!("insert into emp values ('p{i}', 1, 1)"))
            .unwrap();
    }
    tman.run_until_quiescent().unwrap();
    let m = tman.metrics_snapshot();
    assert_eq!(m.driver.shards.len(), 2);
    assert_eq!(m.driver.active_shards, 2);
    // Single-threaded drain: shard 0 drained every token.
    let tokens: u64 = m.driver.shards.iter().map(|s| s.tokens).sum();
    assert_eq!(tokens, 6);
    assert!(m.driver.shards.iter().all(|s| s.queue_depth == 0));
    let CommandOutput::Stats(report) = tman.execute_command("show stats drivers").unwrap() else {
        panic!("expected stats output")
    };
    assert!(report.contains("shards active      2/2"), "{report}");
    assert!(report.contains("shard 0"), "{report}");
    assert!(report.contains("shard 1"), "{report}");
    // The labeled series are scrapeable through the registry, too.
    let text = tman.render_text();
    assert!(
        text.contains("tman_shard_tokens_total{shard=\"0\"}"),
        "{text}"
    );
    assert!(text.contains("tman_shards_active 2"), "{text}");
}
