use super::*;
use tman_common::{DataType, Schema, Value};
use tman_expr::cnf::to_cnf;
use tman_expr::BindCtx;
use tman_lang::parse_expression;

// The paper's real-estate schema (§2).
const SP: DataSourceId = DataSourceId(1); // salesperson(spno, name)
const HOUSE: DataSourceId = DataSourceId(2); // house(hno, price, nno)
const REP: DataSourceId = DataSourceId(3); // represents(spno, nno)

fn schemas() -> (Schema, Schema, Schema) {
    (
        Schema::from_pairs(&[("spno", DataType::Int), ("name", DataType::Varchar(20))]),
        Schema::from_pairs(&[
            ("hno", DataType::Int),
            ("price", DataType::Float),
            ("nno", DataType::Int),
        ]),
        Schema::from_pairs(&[("spno", DataType::Int), ("nno", DataType::Int)]),
    )
}

/// Build the IrisHouseAlert condition graph:
/// `s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno`
/// with vars [s, h, r] and event on h (insert to house).
fn iris_graph(extra: &str) -> ConditionGraph {
    let (s, h, r) = schemas();
    let ctx = BindCtx::new(vec![("s".into(), &s), ("h".into(), &h), ("r".into(), &r)]);
    let cond = if extra.is_empty() {
        "s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno".to_string()
    } else {
        format!("s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno and {extra}")
    };
    let cnf = to_cnf(&ctx.pred(&parse_expression(&cond).unwrap()).unwrap()).unwrap();
    ConditionGraph::build(cnf, 3)
}

fn sp_row(spno: i64, name: &str) -> Tuple {
    Tuple::new(vec![Value::Int(spno), Value::str(name)])
}

fn house_row(hno: i64, price: f64, nno: i64) -> Tuple {
    Tuple::new(vec![Value::Int(hno), Value::Float(price), Value::Int(nno)])
}

fn rep_row(spno: i64, nno: i64) -> Tuple {
    Tuple::new(vec![Value::Int(spno), Value::Int(nno)])
}

fn base_data() -> MemSource {
    let src = MemSource::new();
    src.set(SP, vec![sp_row(1, "Iris"), sp_row(2, "Bob")]);
    src.set(REP, vec![rep_row(1, 10), rep_row(1, 11), rep_row(2, 12)]);
    src.set(HOUSE, vec![house_row(100, 50_000.0, 10)]);
    src
}

fn build(kind: NetworkKind, extra: &str) -> Network {
    Network::build(kind, iris_graph(extra), vec![SP, HOUSE, REP], 1).unwrap()
}

fn fire_all(n: &Network, src: &MemSource, var: usize, pol: Polarity, t: &Tuple) -> Vec<Firing> {
    let mut out = Vec::new();
    n.activate(var, pol, t, src, &mut |f| out.push(f)).unwrap();
    out
}

#[test]
fn all_kinds_fire_on_matching_house_insert() {
    for kind in [
        NetworkKind::Treat,
        NetworkKind::ATreat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let src = base_data();
        let n = build(kind, "");
        n.prime(&src).unwrap();
        // New house in neighborhood 11 — Iris represents 11.
        let h = house_row(101, 80_000.0, 11);
        src.push(HOUSE, h.clone());
        let fires = fire_all(&n, &src, 1, Polarity::Plus, &h);
        assert_eq!(fires.len(), 1, "{kind:?}");
        assert_eq!(fires[0].polarity, Polarity::Plus);
        assert_eq!(fires[0].bindings[0], sp_row(1, "Iris"), "{kind:?}");
        assert_eq!(fires[0].bindings[1], h, "{kind:?}");
        assert_eq!(fires[0].bindings[2], rep_row(1, 11), "{kind:?}");

        // A house in Bob's neighborhood does not fire (selection on s).
        let h2 = house_row(102, 10_000.0, 12);
        src.push(HOUSE, h2.clone());
        assert!(
            fire_all(&n, &src, 1, Polarity::Plus, &h2).is_empty(),
            "{kind:?}"
        );
    }
}

#[test]
fn non_event_var_updates_flow_too() {
    // Inserting a `represents` row can complete a match with an existing
    // house (token-driven from any variable).
    for kind in [
        NetworkKind::Treat,
        NetworkKind::ATreat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let src = base_data();
        let n = build(kind, "");
        n.prime(&src).unwrap();
        // Iris starts representing neighborhood 10, where house 100 is.
        let r = rep_row(1, 10);
        // (base_data already has rep(1,10): use a new neighborhood link to
        // keep the relation set-consistent.)
        let r13 = rep_row(1, 13);
        src.push(REP, r13.clone());
        assert!(
            fire_all(&n, &src, 2, Polarity::Plus, &r13).is_empty(),
            "{kind:?}"
        );
        // Now a house shows up in 13.
        let h = house_row(103, 5.0, 13);
        src.push(HOUSE, h.clone());
        assert_eq!(
            fire_all(&n, &src, 1, Polarity::Plus, &h).len(),
            1,
            "{kind:?}"
        );
        let _ = r;
    }
}

#[test]
fn minus_tokens_retract_matches() {
    for kind in [
        NetworkKind::Treat,
        NetworkKind::ATreat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let src = base_data();
        let n = build(kind, "");
        n.prime(&src).unwrap();
        let h = house_row(101, 80_000.0, 11);
        src.push(HOUSE, h.clone());
        assert_eq!(
            fire_all(&n, &src, 1, Polarity::Plus, &h).len(),
            1,
            "{kind:?}"
        );
        // Delete the house: one minus firing with the same bindings.
        src.remove(HOUSE, &h);
        let fires = fire_all(&n, &src, 1, Polarity::Minus, &h);
        assert_eq!(fires.len(), 1, "{kind:?}");
        assert_eq!(fires[0].polarity, Polarity::Minus);
        assert_eq!(fires[0].bindings[1], h, "{kind:?}");
    }
}

#[test]
fn multiple_matches_from_one_token() {
    // Two salespeople named Iris... rather: Iris represents two
    // neighborhoods; a house whose neighborhood both map to — instead give
    // REP two rows to nno 11.
    for kind in [
        NetworkKind::Treat,
        NetworkKind::ATreat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let src = base_data();
        src.push(SP, sp_row(3, "Iris")); // second Iris
        src.push(REP, rep_row(3, 11)); // base data already has rep(1, 11)
        let n = build(kind, "");
        n.prime(&src).unwrap();
        let h = house_row(101, 80_000.0, 11);
        src.push(HOUSE, h.clone());
        let fires = fire_all(&n, &src, 1, Polarity::Plus, &h);
        // Iris#1 via rep(1,11) and Iris#3 via rep(3,11).
        assert_eq!(fires.len(), 2, "{kind:?}");
    }
}

#[test]
fn selection_on_event_var_is_callers_job_but_checkable() {
    let src = base_data();
    let n = build(NetworkKind::ATreat, "h.price > 60000");
    n.prime(&src).unwrap();
    let cheap = house_row(101, 10_000.0, 11);
    assert!(!n.selection_matches(1, &cheap).unwrap());
    let pricey = house_row(102, 99_000.0, 11);
    assert!(n.selection_matches(1, &pricey).unwrap());
}

#[test]
fn treat_and_rete_memories_grow_atreat_stays_empty() {
    let src = base_data();
    let treat = build(NetworkKind::Treat, "");
    let atreat = build(NetworkKind::ATreat, "");
    let rete = build(NetworkKind::Rete, "");
    for n in [&treat, &atreat, &rete] {
        n.prime(&src).unwrap();
    }
    assert_eq!(atreat.memory_tuples(), 0, "virtual alphas store nothing");
    assert!(treat.memory_tuples() > 0);
    assert!(
        rete.memory_tuples() >= treat.memory_tuples(),
        "betas add memory"
    );
}

#[test]
fn rete_betas_stay_consistent_through_plus_minus_churn() {
    let src = base_data();
    let rete = build(NetworkKind::Rete, "");
    let treat = build(NetworkKind::Treat, "");
    let gator = build(NetworkKind::Gator, "");
    rete.prime(&src).unwrap();
    treat.prime(&src).unwrap();
    gator.prime(&src).unwrap();
    let mut rng: u64 = 99;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut houses: Vec<Tuple> = vec![];
    for step in 0..200 {
        let add = houses.is_empty() || next() % 3 != 0;
        if add {
            let h = house_row(1000 + step, 1.0, (next() % 5 + 9) as i64);
            houses.push(h.clone());
            src.push(HOUSE, h.clone());
            let a = fire_all(&rete, &src, 1, Polarity::Plus, &h);
            let b = fire_all(&treat, &src, 1, Polarity::Plus, &h);
            let c = fire_all(&gator, &src, 1, Polarity::Plus, &h);
            assert_eq!(a.len(), b.len(), "step {step}");
            assert_eq!(a.len(), c.len(), "gator step {step}");
        } else {
            let h = houses.remove((next() % houses.len() as u64) as usize);
            src.remove(HOUSE, &h);
            let a = fire_all(&rete, &src, 1, Polarity::Minus, &h);
            let b = fire_all(&treat, &src, 1, Polarity::Minus, &h);
            let c = fire_all(&gator, &src, 1, Polarity::Minus, &h);
            assert_eq!(a.len(), b.len(), "step {step}");
            assert_eq!(a.len(), c.len(), "gator step {step}");
        }
    }
}

#[test]
fn single_variable_network_fires_directly() {
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    let ctx = BindCtx::new(vec![("t".into(), &schema)]);
    let cnf = to_cnf(&ctx.pred(&parse_expression("t.x > 5").unwrap()).unwrap()).unwrap();
    let g = ConditionGraph::build(cnf, 1);
    let n = Network::build(NetworkKind::ATreat, g, vec![DataSourceId(9)], 0).unwrap();
    let src = MemSource::new();
    let t = Tuple::new(vec![Value::Int(10)]);
    let fires = fire_all(&n, &src, 0, Polarity::Plus, &t);
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0].bindings, vec![t]);
}

#[test]
fn hyper_join_catch_all_is_enforced() {
    // s.spno + r.spno = h.hno is a 3-variable conjunct → catch-all.
    for kind in [
        NetworkKind::Treat,
        NetworkKind::ATreat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let src = base_data();
        let n = build(kind, "s.spno + r.spno = h.hno");
        n.prime(&src).unwrap();
        // Iris: spno 1, rep(1,11): 1+1=2 ⇒ only hno=2 fires.
        let good = house_row(2, 1.0, 11);
        src.push(HOUSE, good.clone());
        assert_eq!(
            fire_all(&n, &src, 1, Polarity::Plus, &good).len(),
            1,
            "{kind:?}"
        );
        let bad = house_row(3, 1.0, 11);
        src.push(HOUSE, bad.clone());
        assert!(
            fire_all(&n, &src, 1, Polarity::Plus, &bad).is_empty(),
            "{kind:?}"
        );
    }
}

#[test]
fn priming_makes_preexisting_rows_visible() {
    // TREAT without priming misses the pre-existing salesperson rows.
    let src = base_data();
    let n = build(NetworkKind::Treat, "");
    // No prime: inserting a matching house finds empty alpha memories.
    let h = house_row(101, 1.0, 11);
    src.push(HOUSE, h.clone());
    assert!(fire_all(&n, &src, 1, Polarity::Plus, &h).is_empty());
    // After priming, the same insert fires.
    let n2 = build(NetworkKind::Treat, "");
    n2.prime(&src).unwrap();
    let h2 = house_row(102, 1.0, 11);
    src.push(HOUSE, h2.clone());
    assert_eq!(fire_all(&n2, &src, 1, Polarity::Plus, &h2).len(), 1);
}

#[test]
fn build_validations() {
    let g = iris_graph("");
    assert!(Network::build(NetworkKind::Treat, g.clone(), vec![SP], 0).is_err());
    let empty = ConditionGraph::build(tman_expr::Cnf::truth(), 0);
    assert!(Network::build(NetworkKind::Treat, empty, vec![], 0).is_err());
}

#[test]
fn join_order_prefers_connected_variables() {
    let n = build(NetworkKind::Treat, "");
    // Starting from h (var 1), r (var 2) joins h directly; s only joins r.
    assert_eq!(n.join_order(1), vec![2, 0]);
    assert_eq!(n.join_order(0), vec![2, 1]);
}

#[test]
fn cartesian_disconnected_variables_still_enumerate() {
    // Two variables with no join predicate: cross product semantics.
    let sa = Schema::from_pairs(&[("x", DataType::Int)]);
    let sb = Schema::from_pairs(&[("y", DataType::Int)]);
    let ctx = BindCtx::new(vec![("a".into(), &sa), ("b".into(), &sb)]);
    let cnf = to_cnf(
        &ctx.pred(&parse_expression("a.x > 0 and b.y > 0").unwrap())
            .unwrap(),
    )
    .unwrap();
    let g = ConditionGraph::build(cnf, 2);
    let (da, db) = (DataSourceId(20), DataSourceId(21));
    let n = Network::build(NetworkKind::ATreat, g, vec![da, db], 0).unwrap();
    let src = MemSource::new();
    src.set(
        db,
        vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Int(2)]),
            Tuple::new(vec![Value::Int(-1)]),
        ],
    );
    let t = Tuple::new(vec![Value::Int(5)]);
    src.push(da, t.clone());
    let fires = fire_all(&n, &src, 0, Polarity::Plus, &t);
    assert_eq!(fires.len(), 2, "two positive b rows");
}

#[test]
fn parallel_priming_matches_sequential() {
    // §6 data-level concurrency: parallel priming produces the same
    // memories (alpha contents are per-variable independent scans).
    for kind in [NetworkKind::Treat, NetworkKind::Rete, NetworkKind::Gator] {
        let src = base_data();
        let seq = build(kind, "");
        let par = build(kind, "");
        seq.prime(&src).unwrap();
        par.prime_parallel(&src).unwrap();
        assert_eq!(seq.memory_tuples(), par.memory_tuples(), "{kind:?}");
        // Both fire identically afterwards.
        let h = house_row(101, 80_000.0, 11);
        src.push(HOUSE, h.clone());
        assert_eq!(
            fire_all(&seq, &src, 1, Polarity::Plus, &h).len(),
            fire_all(&par, &src, 1, Polarity::Plus, &h).len(),
            "{kind:?}"
        );
    }
}

/// Deleting one of two identical rows retracts one copy's matches and
/// keeps the other's: a stored node removes one equal entry per delta
/// entry, never every entry holding the deleted tuple.
#[test]
fn deleting_one_of_two_identical_rows_keeps_the_other_copy() {
    for kind in [
        NetworkKind::Treat,
        NetworkKind::ATreat,
        NetworkKind::Rete,
        NetworkKind::Gator,
    ] {
        let src = MemSource::new();
        let iris = sp_row(1, "Iris");
        src.set(SP, vec![iris.clone(), iris.clone()]);
        src.set(REP, vec![rep_row(1, 7)]);
        src.set(HOUSE, vec![house_row(1, 1.0, 7)]);
        let n = build(kind, "");
        n.prime(&src).unwrap();
        let count = |var: usize, pol: Polarity, t: &Tuple| {
            let fires = fire_all(&n, &src, var, pol, t);
            assert!(fires.iter().all(|f| f.polarity == pol), "{kind:?}");
            fires.len()
        };

        src.remove(SP, &iris);
        assert_eq!(count(0, Polarity::Minus, &iris), 1, "{kind:?}: the delete");
        let h = house_row(2, 1.0, 7);
        src.push(HOUSE, h.clone());
        assert_eq!(count(1, Polarity::Plus, &h), 1, "{kind:?}: the house");
        let r = rep_row(1, 7);
        src.push(REP, r.clone());
        assert_eq!(count(2, Polarity::Plus, &r), 2, "{kind:?}: the rep");
    }
}
