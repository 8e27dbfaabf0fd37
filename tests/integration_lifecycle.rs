//! End-to-end trigger lifecycle across all crates: language → compilation →
//! signatures → predicate index → networks → actions → events.

use tman_common::Value;
use triggerman::{Config, NetworkKind, TriggerMan};

fn fresh() -> std::sync::Arc<TriggerMan> {
    TriggerMan::open_memory(Config::default()).unwrap()
}

#[test]
fn full_lifecycle_create_fire_disable_drop() {
    let tman = fresh();
    tman.run_sql("create table orders (oid int, amount float, region varchar(8))")
        .unwrap();
    tman.execute_command("define data source orders from table orders")
        .unwrap();
    let rx = tman.subscribe("BigOrder");

    tman.execute_command(
        "create trigger big on insert to orders from orders \
         when orders.amount > 1000 do raise event BigOrder(orders.oid, orders.amount)",
    )
    .unwrap();

    // Fire.
    tman.run_sql("insert into orders values (1, 5000, 'east')")
        .unwrap();
    tman.run_sql("insert into orders values (2, 10, 'west')")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_recv().unwrap().values[0], Value::Int(1));
    assert!(rx.try_recv().is_err());

    // Disable → silent.
    tman.execute_command("disable trigger big").unwrap();
    tman.run_sql("insert into orders values (3, 9999, 'east')")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_err());

    // Re-enable → fires again.
    tman.execute_command("enable trigger big").unwrap();
    tman.run_sql("insert into orders values (4, 2000, 'east')")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert_eq!(rx.try_recv().unwrap().values[0], Value::Int(4));

    // Drop → gone, index clean.
    tman.execute_command("drop trigger big").unwrap();
    tman.run_sql("insert into orders values (5, 3000, 'east')")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(rx.try_recv().is_err());
    assert_eq!(tman.predicate_index().num_entries(), 0);
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
}

#[test]
fn many_triggers_one_signature_index_scales() {
    let tman = fresh();
    tman.run_sql("create table m (k int, v float)").unwrap();
    tman.execute_command("define data source m from table m")
        .unwrap();
    for i in 0..2000 {
        tman.execute_command(&format!(
            "create trigger t{i} from m when m.k = {i} do notify 'k{i}'"
        ))
        .unwrap();
    }
    assert_eq!(tman.predicate_index().num_signatures(), 1);
    assert_eq!(tman.predicate_index().num_entries(), 2000);
    // The equivalence class should have been promoted off the linear list.
    let sig = &tman
        .predicate_index()
        .source(tman.source("m").unwrap().id)
        .unwrap()
        .signatures()[0];
    assert_eq!(sig.org_kind(), triggerman::OrgKind::MemIndex);

    let rx = tman.subscribe("notify");
    tman.run_sql("insert into m values (777, 1.0)").unwrap();
    tman.run_until_quiescent().unwrap();
    let msgs: Vec<_> = rx.try_iter().collect();
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].message.as_deref(), Some("k777"));
    // Probe work is constant-ish: one signature probed per token.
    assert_eq!(tman.predicate_index().stats().signatures_probed.get(), 1);
}

#[test]
fn mixed_signatures_and_sql_actions_cooperate() {
    let tman = fresh();
    tman.run_sql("create table inv (item varchar(16), qty int)")
        .unwrap();
    tman.run_sql("create table reorders (item varchar(16), qty int)")
        .unwrap();
    tman.execute_command("define data source inv from table inv")
        .unwrap();
    tman.execute_command("define data source reorders from table reorders")
        .unwrap();

    // Low-stock triggers write into another captured table; a second
    // trigger watches that one (chaining).
    tman.execute_command(
        "create trigger lowstock from inv on update(inv.qty) when inv.qty < 10 \
         do execSQL 'insert into reorders values (:NEW.inv.item, 100)'",
    )
    .unwrap();
    let rx = tman.subscribe("Reordered");
    tman.execute_command(
        "create trigger confirm from reorders on insert to reorders \
         do raise event Reordered(reorders.item)",
    )
    .unwrap();

    tman.run_sql("insert into inv values ('widget', 50)")
        .unwrap();
    tman.run_sql("update inv set qty = 5 where item = 'widget'")
        .unwrap();
    tman.run_until_quiescent().unwrap();
    assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
    assert_eq!(rx.try_recv().unwrap().values, vec![Value::str("widget")]);
    assert_eq!(
        tman.run_sql("select * from reorders").unwrap().rows().len(),
        1
    );
}

#[test]
fn join_trigger_lifecycle_on_every_network() {
    for kind in [
        NetworkKind::ATreat,
        NetworkKind::Treat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let tman = TriggerMan::open_memory(Config {
            network: kind,
            ..Default::default()
        })
        .unwrap();
        tman.run_sql("create table a (x int)").unwrap();
        tman.run_sql("create table b (y int)").unwrap();
        tman.execute_command("define data source a from table a")
            .unwrap();
        tman.execute_command("define data source b from table b")
            .unwrap();
        let rx = tman.subscribe("Pair");
        tman.execute_command(
            "create trigger pair from a, b when a.x = b.y do raise event Pair(a.x)",
        )
        .unwrap();
        // Drain between correlated inserts: trigger processing is
        // asynchronous (§3), and A-TREAT's *virtual* alpha nodes scan live
        // base data — batching correlated updates would let a token see
        // rows inserted after it (double-counting the pair). Stored-memory
        // networks (TREAT/Rete) are insensitive to batching because their
        // memories advance in token order. Documented in DESIGN.md.
        for stmt in [
            "insert into a values (1)",
            "insert into b values (1)",
            "insert into b values (2)",
            "insert into a values (2)",
        ] {
            tman.run_sql(stmt).unwrap();
            tman.run_until_quiescent().unwrap();
        }
        assert!(
            tman.last_error().is_none(),
            "{kind:?}: {:?}",
            tman.last_error()
        );
        assert_eq!(rx.try_iter().count(), 2, "{kind:?}");
        // Deleting breaks future matches.
        tman.run_sql("delete from b where y = 1").unwrap();
        tman.run_sql("insert into a values (1)").unwrap();
        tman.run_until_quiescent().unwrap();
        assert_eq!(rx.try_iter().count(), 0, "{kind:?}");
    }
}

/// When A-TREAT reads its sources: a virtual alpha scans the base table
/// when the token is processed, not as it stood when the token was
/// captured. A house inserted before its salesperson finds no partner if
/// it is drained first, on every network; drained together with the
/// salesperson's insert, A-TREAT finds the salesperson already in the
/// table and fires, while the stored memories, which advance in token
/// order, do not (DESIGN.md, "A-TREAT and asynchronous batching").
#[test]
fn a_treat_reads_its_sources_when_the_token_is_processed() {
    for kind in [
        NetworkKind::ATreat,
        NetworkKind::Treat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        for drain_between in [true, false] {
            let tman = TriggerMan::open_memory(Config {
                network: kind,
                ..Default::default()
            })
            .unwrap();
            tman.run_sql("create table s (spno int, name varchar(20))")
                .unwrap();
            tman.run_sql("create table h (hno int, spno int)").unwrap();
            tman.execute_command("define data source s from table s")
                .unwrap();
            tman.execute_command("define data source h from table h")
                .unwrap();
            let rx = tman.subscribe("Hit");
            tman.execute_command(
                "create trigger hit on insert to h from s, h when s.spno = h.spno \
                 do raise event Hit(h.hno)",
            )
            .unwrap();
            tman.run_sql("insert into h values (10, 1)").unwrap();
            if drain_between {
                tman.run_until_quiescent().unwrap();
            }
            tman.run_sql("insert into s values (1, 'Ann')").unwrap();
            tman.run_until_quiescent().unwrap();
            assert!(tman.last_error().is_none(), "{:?}", tman.last_error());
            let expected = usize::from(kind == NetworkKind::ATreat && !drain_between);
            assert_eq!(
                rx.try_iter().count(),
                expected,
                "{kind:?}, drain between: {drain_between}"
            );
        }
    }
}

#[test]
fn trigger_set_grouping() {
    let tman = fresh();
    tman.run_sql("create table t (x int)").unwrap();
    tman.execute_command("define data source t from table t")
        .unwrap();
    tman.execute_command("create trigger set batch_a").unwrap();
    tman.execute_command("create trigger set batch_b").unwrap();
    let rx = tman.subscribe("notify");
    tman.execute_command("create trigger a1 in batch_a from t when t.x = 1 do notify 'a1'")
        .unwrap();
    tman.execute_command("create trigger b1 in batch_b from t when t.x = 1 do notify 'b1'")
        .unwrap();
    tman.execute_command("disable trigger set batch_a").unwrap();
    tman.run_sql("insert into t values (1)").unwrap();
    tman.run_until_quiescent().unwrap();
    let msgs: Vec<String> = rx.try_iter().filter_map(|n| n.message).collect();
    assert_eq!(msgs, vec!["b1".to_string()]);
    // Dropping a non-empty set is refused.
    assert!(tman.execute_command("drop trigger set batch_b").is_err());
    tman.execute_command("drop trigger b1").unwrap();
    tman.execute_command("drop trigger set batch_b").unwrap();
}
