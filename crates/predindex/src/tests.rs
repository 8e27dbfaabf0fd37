use super::*;
use tman_common::{DataType, EventKind, TokenOp};
use tman_expr::cnf::{remap_var, to_cnf};
use tman_expr::BindCtx;
use tman_lang::parse_expression;

fn emp_schema() -> Schema {
    Schema::from_pairs(&[
        ("name", DataType::Varchar(32)),
        ("salary", DataType::Float),
        ("dept", DataType::Int),
    ])
}

const EMP: DataSourceId = DataSourceId(1);

/// The signature and the constants of `cond` (over the emp schema).
fn analyze(cond: &str, event: EventKind) -> (SelectionSignature, Vec<Value>) {
    let schema = emp_schema();
    let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
    let cnf = to_cnf(&ctx.pred(&parse_expression(cond).unwrap()).unwrap()).unwrap();
    let canon = remap_var(&cnf, 0, 0, "emp");
    tman_expr::signature::analyze_selection(&canon, EMP, event, vec![])
}

/// Register `cond` (over the emp schema) as trigger `tid`'s predicate.
fn add(ix: &PredicateIndex, cond: &str, event: EventKind, tid: u64) -> Arc<SignatureRuntime> {
    let (sig, consts) = analyze(cond, event);
    let (rt, _) = ix
        .add_predicate(
            EMP,
            &emp_schema(),
            sig,
            consts,
            ExprId(tid),
            TriggerId(tid),
            NodeId(0),
        )
        .unwrap();
    rt
}

fn ins(name: &str, salary: f64, dept: i64) -> UpdateDescriptor {
    UpdateDescriptor::insert(
        EMP,
        Tuple::new(vec![
            Value::str(name),
            Value::Float(salary),
            Value::Int(dept),
        ]),
    )
}

/// The triggers whose entries in partition `part` of `nparts` of `rt`
/// `tuple` matches: a `probe_batch` of one.
fn probe_ids(
    ix: &PredicateIndex,
    rt: &SignatureRuntime,
    tuple: &Tuple,
    part: usize,
    nparts: usize,
) -> Vec<u64> {
    let probe = Probe {
        tag: 0,
        tuple,
        trace: &tman_telemetry::TraceHandle::none(),
        parent_span: 0,
    };
    let mut ids = Vec::new();
    rt.probe_batch(&[probe], part, nparts, ix.stats(), &mut |_, e, _| {
        ids.push(e.trigger_id.raw())
    })
    .unwrap();
    ids
}

fn matched_ids(ix: &PredicateIndex, tok: &UpdateDescriptor) -> Vec<u64> {
    let mut ids: Vec<u64> = ix
        .match_token_vec(tok)
        .unwrap()
        .into_iter()
        .map(|m| m.trigger_id.raw())
        .collect();
    ids.sort();
    ids
}

#[test]
fn signatures_are_shared_across_triggers() {
    let ix = PredicateIndex::new(IndexConfig::default());
    for t in 0..100u64 {
        add(
            &ix,
            &format!("emp.salary > {}", 1000 * t),
            EventKind::Insert,
            t,
        );
    }
    assert_eq!(ix.num_signatures(), 1, "one signature for 100 triggers");
    assert_eq!(ix.num_entries(), 100);
    // A token with salary 5500 matches triggers with threshold < 5500.
    assert_eq!(
        matched_ids(&ix, &ins("x", 5500.0, 1)),
        (0..=5).collect::<Vec<_>>()
    );
}

#[test]
fn equality_matching_is_exact() {
    let ix = PredicateIndex::new(IndexConfig::default());
    for t in 0..50u64 {
        add(&ix, &format!("emp.dept = {}", t % 10), EventKind::Insert, t);
    }
    assert_eq!(ix.num_signatures(), 1);
    let hits = matched_ids(&ix, &ins("x", 0.0, 7));
    assert_eq!(hits, vec![7, 17, 27, 37, 47]);
    assert!(matched_ids(&ix, &ins("x", 0.0, 99)).is_empty());
}

#[test]
fn event_codes_filter_tokens() {
    let ix = PredicateIndex::new(IndexConfig::default());
    add(&ix, "emp.dept = 1", EventKind::Insert, 1);
    add(&ix, "emp.dept = 1", EventKind::Delete, 2);
    add(&ix, "emp.dept = 1", EventKind::InsertOrUpdate, 3);
    assert_eq!(ix.num_signatures(), 3, "event is part of the signature");

    let t = Tuple::new(vec![Value::str("x"), Value::Float(1.0), Value::Int(1)]);
    let ins_tok = UpdateDescriptor::insert(EMP, t.clone());
    let del_tok = UpdateDescriptor::delete(EMP, t.clone());
    let upd_tok = UpdateDescriptor::update(EMP, t.clone(), t.clone());
    assert_eq!(matched_ids(&ix, &ins_tok), vec![1, 3]);
    assert_eq!(matched_ids(&ix, &del_tok), vec![2]);
    assert_eq!(matched_ids(&ix, &upd_tok), vec![3]);
}

#[test]
fn update_column_events_require_a_change() {
    let schema = emp_schema();
    let ix = PredicateIndex::new(IndexConfig::default());
    let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
    let cnf = to_cnf(
        &ctx.pred(&parse_expression("emp.dept = 5").unwrap())
            .unwrap(),
    )
    .unwrap();
    // `on update(emp.salary)` — salary is column 1.
    let (sig, consts) = tman_expr::signature::analyze_selection(
        &cnf,
        EMP,
        EventKind::Update(vec!["salary".into()]),
        vec![1],
    );
    ix.add_predicate(
        EMP,
        &schema,
        sig,
        consts,
        ExprId(1),
        TriggerId(1),
        NodeId(0),
    )
    .unwrap();

    let old = Tuple::new(vec![Value::str("a"), Value::Float(10.0), Value::Int(5)]);
    let new_salary = Tuple::new(vec![Value::str("a"), Value::Float(20.0), Value::Int(5)]);
    let new_name = Tuple::new(vec![Value::str("b"), Value::Float(10.0), Value::Int(5)]);
    assert_eq!(
        matched_ids(&ix, &UpdateDescriptor::update(EMP, old.clone(), new_salary)),
        vec![1]
    );
    assert!(matched_ids(&ix, &UpdateDescriptor::update(EMP, old, new_name)).is_empty());
}

#[test]
fn residual_is_tested_after_index_probe() {
    let ix = PredicateIndex::new(IndexConfig::default());
    // dept is indexable; the salary range is residual.
    add(
        &ix,
        "emp.dept = 3 and emp.salary > 50000",
        EventKind::Insert,
        1,
    );
    assert_eq!(matched_ids(&ix, &ins("a", 60000.0, 3)), vec![1]);
    assert!(matched_ids(&ix, &ins("a", 40000.0, 3)).is_empty());
    assert!(matched_ids(&ix, &ins("a", 60000.0, 4)).is_empty());
    assert!(ix.stats().residual_tests.get() >= 2);
}

#[test]
fn range_signatures_stab() {
    let ix = PredicateIndex::new(IndexConfig::default());
    for t in 0..100u64 {
        let lo = t * 10;
        add(
            &ix,
            &format!("emp.salary > {lo} and emp.salary <= {}", lo + 50),
            EventKind::Insert,
            t,
        );
    }
    assert_eq!(ix.num_signatures(), 1);
    let hits = matched_ids(&ix, &ins("x", 105.0, 1));
    // intervals (lo, lo+50] containing 105: lo in {60,...,100} by tens ⇒
    // t in {6..=10}.
    assert_eq!(hits, vec![6, 7, 8, 9, 10]);
}

#[test]
fn or_predicates_fall_back_to_full_evaluation() {
    let ix = PredicateIndex::new(IndexConfig::default());
    add(&ix, "emp.dept = 1 or emp.dept = 2", EventKind::Insert, 1);
    add(&ix, "emp.dept = 3 or emp.dept = 4", EventKind::Insert, 2);
    assert_eq!(
        ix.num_signatures(),
        1,
        "same OR structure, different constants"
    );
    assert_eq!(matched_ids(&ix, &ins("x", 0.0, 2)), vec![1]);
    assert_eq!(matched_ids(&ix, &ins("x", 0.0, 4)), vec![2]);
    assert!(matched_ids(&ix, &ins("x", 0.0, 9)).is_empty());
}

#[test]
fn null_token_values_never_match_equality_or_range() {
    let ix = PredicateIndex::new(IndexConfig::default());
    add(&ix, "emp.dept = 1", EventKind::Insert, 1);
    add(&ix, "emp.salary > 0", EventKind::Insert, 2);
    let tok = UpdateDescriptor::insert(
        EMP,
        Tuple::new(vec![Value::str("x"), Value::Null, Value::Null]),
    );
    assert!(matched_ids(&ix, &tok).is_empty());
}

#[test]
fn org_promotion_list_to_index() {
    let cfg = IndexConfig {
        list_to_index: 10,
        ..Default::default()
    };
    let ix = PredicateIndex::new(cfg);
    let mut rt = None;
    for t in 0..25u64 {
        rt = Some(add(&ix, &format!("emp.dept = {t}"), EventKind::Insert, t));
    }
    let rt = rt.unwrap();
    assert_eq!(rt.org_kind(), OrgKind::MemIndex);
    assert_eq!(rt.len(), 25);
    // Still matches correctly after promotion.
    assert_eq!(matched_ids(&ix, &ins("x", 0.0, 13)), vec![13]);
}

#[test]
fn org_promotion_to_database() {
    let db = Arc::new(Database::open_memory(256));
    let cfg = IndexConfig {
        list_to_index: 4,
        index_to_db: 10,
    };
    let ix = PredicateIndex::with_database(cfg, db.clone());
    let mut rt = None;
    for t in 0..30u64 {
        rt = Some(add(&ix, &format!("emp.dept = {t}"), EventKind::Insert, t));
    }
    let rt = rt.unwrap();
    assert_eq!(rt.org_kind(), OrgKind::DbIndexed);
    assert_eq!(rt.len(), 30);
    // The constant table exists in the database with one row per trigger.
    let table = db.table(&rt.const_table_name()).unwrap();
    assert_eq!(table.count().unwrap(), 30);
    // Matching goes through the database index.
    let probes_before = table.stats().index_probes.get();
    assert_eq!(matched_ids(&ix, &ins("x", 0.0, 22)), vec![22]);
    assert!(table.stats().index_probes.get() > probes_before);
}

#[test]
fn forced_org_kinds_all_agree() {
    let db = Arc::new(Database::open_memory(1024));
    for kind in [
        OrgKind::MemList,
        OrgKind::MemIndex,
        OrgKind::DbTable,
        OrgKind::DbIndexed,
    ] {
        let ix = PredicateIndex::with_database(IndexConfig::default(), db.clone());
        let mut rt = None;
        for t in 0..40u64 {
            rt = Some(add(
                &ix,
                &format!("emp.dept = {}", t % 8),
                EventKind::Insert,
                t,
            ));
        }
        let rt = rt.unwrap();
        rt.set_org(kind).unwrap();
        assert_eq!(rt.org_kind(), kind, "{kind:?}");
        assert_eq!(rt.len(), 40, "{kind:?}");
        let hits = matched_ids(&ix, &ins("x", 0.0, 3));
        assert_eq!(hits, vec![3, 11, 19, 27, 35], "{kind:?}");
    }
}

#[test]
fn forced_org_kinds_agree_for_ranges() {
    let db = Arc::new(Database::open_memory(1024));
    for kind in [
        OrgKind::MemList,
        OrgKind::MemIndex,
        OrgKind::DbTable,
        OrgKind::DbIndexed,
    ] {
        let ix = PredicateIndex::with_database(IndexConfig::default(), db.clone());
        let mut rt = None;
        for t in 0..30u64 {
            rt = Some(add(
                &ix,
                &format!(
                    "emp.salary >= {} and emp.salary < {}",
                    t * 100,
                    t * 100 + 250
                ),
                EventKind::Insert,
                t,
            ));
        }
        let rt = rt.unwrap();
        rt.set_org(kind).unwrap();
        let hits = matched_ids(&ix, &ins("x", 520.0, 0));
        // [t*100, t*100+250) containing 520 ⇒ t ∈ {3, 4, 5}.
        assert_eq!(hits, vec![3, 4, 5], "{kind:?}");
    }
}

#[test]
fn remove_trigger_cleans_all_orgs() {
    let db = Arc::new(Database::open_memory(256));
    let ix = PredicateIndex::with_database(IndexConfig::default(), db);
    for t in 0..10u64 {
        add(&ix, &format!("emp.dept = {t}"), EventKind::Insert, t);
        add(&ix, &format!("emp.salary > {t}"), EventKind::Insert, t);
    }
    assert_eq!(ix.num_entries(), 20);
    assert_eq!(ix.remove_trigger(TriggerId(4)).unwrap(), 2);
    assert_eq!(ix.num_entries(), 18);
    assert!(matched_ids(&ix, &ins("x", 100.0, 4))
        .iter()
        .all(|&t| t != 4));
}

/// A switch that fails keeps the class whole: a database organization
/// asked of a memory-only index is refused before any entry leaves the
/// list, so every trigger still matches and the count agrees with them.
/// A class counts its windowed and tagged entries itself: a windowed entry joining an
/// existing class leaves the published plan as it is, and removal takes
/// both counts back exactly.
#[test]
fn windowed_and_tagged_entries_are_counted_without_republishing_the_plan() {
    let ix = PredicateIndex::new(IndexConfig::default());
    let rt = add(&ix, "emp.dept = 1", EventKind::Insert, 1);
    let src = ix.source(EMP).unwrap();
    let before = src.plan();
    assert!(!rt.windowed());
    let join = |cond: &str, expr: u64, tid: u64| {
        let (_, consts) = analyze(cond, EventKind::Insert);
        ix.add_to_class(&rt, consts, ExprId(expr), TriggerId(tid), NodeId(0))
            .unwrap();
    };
    join("emp.dept = 2", 2 | ExprId::WINDOWED, 2);
    join("emp.dept = 3", 3 | ExprId::WINDOWED | ExprId::TAGGED, 2);
    join("emp.dept = 4", 4 | ExprId::TAGGED, 3);
    assert!(Arc::ptr_eq(&before, &src.plan()), "plan republished");
    assert!(rt.windowed());
    assert_eq!(ix.tagged_entries(), 2);
    assert_eq!(ix.remove_trigger(TriggerId(2)).unwrap(), 2);
    assert!(!rt.windowed());
    assert_eq!(ix.tagged_entries(), 1);
    assert_eq!(ix.remove_trigger(TriggerId(3)).unwrap(), 1);
    assert_eq!((ix.tagged_entries(), ix.num_entries()), (0, 1));
    assert!(Arc::ptr_eq(&before, &src.plan()), "plan republished");
    // A record holds no constants and no flag bits: the removed entries
    // carry their flags.
    assert_eq!(std::mem::size_of::<Record>(), 16);
}

#[test]
fn a_failed_set_org_keeps_every_entry() {
    let ix = PredicateIndex::new(IndexConfig::default());
    let mut rt = None;
    for t in 0..10u64 {
        rt = Some(add(&ix, "emp.dept = 7", EventKind::Insert, t));
    }
    let rt = rt.unwrap();
    for kind in [OrgKind::DbIndexed, OrgKind::DbTable] {
        assert!(rt.set_org(kind).is_err(), "{kind:?} without a database");
        assert_eq!(rt.org_kind(), OrgKind::MemList);
        assert_eq!(ix.num_entries(), 10);
        assert_eq!(
            matched_ids(&ix, &ins("x", 0.0, 7)),
            (0..10).collect::<Vec<_>>()
        );
    }
}

#[test]
fn partitioned_probe_covers_all_entries_exactly_once() {
    let ix = PredicateIndex::new(IndexConfig::default());
    let mut rt = None;
    for t in 0..100u64 {
        rt = Some(add(&ix, "emp.dept = 7", EventKind::Insert, t));
    }
    let rt = rt.unwrap();
    let tuple = Tuple::new(vec![Value::str("x"), Value::Float(0.0), Value::Int(7)]);
    let nparts = 4;
    let mut seen = Vec::new();
    for part in 0..nparts {
        seen.extend(probe_ids(&ix, &rt, &tuple, part, nparts));
    }
    seen.sort();
    assert_eq!(seen, (0..100).collect::<Vec<_>>());
}

#[test]
fn batched_probe_equals_per_token_probes() {
    // Mixed predicate shapes: equality + residual (a one-column key,
    // borrowed from the tuple), a two-column key over non-adjacent columns
    // (gathered), a range plan, and an unindexable full-test signature.
    // Batched probing must deliver, per token, exactly the entries (in the
    // same order) as a batch of one per token, and count as many probes.
    for cond in [
        "emp.dept = 7 and emp.salary > 10",
        "emp.name = 'x' and emp.dept = 7",
        "emp.salary > 25.0",
        "emp.name <> 'q'",
    ] {
        let ix = PredicateIndex::new(IndexConfig {
            list_to_index: 4, // force MemIndex where a plan exists
            ..Default::default()
        });
        let mut rt = None;
        for t in 0..24u64 {
            rt = Some(add(&ix, cond, EventKind::Insert, t));
        }
        let rt = rt.unwrap();
        let tuples: Vec<Tuple> = (0..13)
            .map(|i| {
                Tuple::new(vec![
                    Value::str(if i % 5 == 0 { "q" } else { "x" }),
                    Value::Float((i * 7 % 40) as f64),
                    Value::Int(if i % 3 == 0 { 7 } else { i }),
                ])
            })
            .collect();
        // Duplicate keys on purpose: they must share a lookup yet match
        // independently.
        let mut reference: Vec<Vec<u64>> = Vec::new();
        for t in &tuples {
            reference.push(probe_ids(&ix, &rt, t, 0, 1));
        }
        let untraced = tman_telemetry::TraceHandle::none();
        let probes: Vec<Probe<'_>> = tuples
            .iter()
            .enumerate()
            .map(|(tag, tuple)| Probe {
                tag,
                tuple,
                trace: &untraced,
                parent_span: 0,
            })
            .collect();
        let mut batched: Vec<Vec<u64>> = vec![Vec::new(); tuples.len()];
        let before = (ix.stats().probes.get(), ix.stats().matches.get());
        rt.probe_batch(&probes, 0, 1, ix.stats(), &mut |tag, e, _| {
            batched[tag].push(e.trigger_id.raw())
        })
        .unwrap();
        assert_eq!(batched, reference, "cond: {cond}");
        assert_eq!(ix.stats().probes.get() - before.0, tuples.len() as u64);
        let matches: usize = reference.iter().map(Vec::len).sum();
        assert_eq!(ix.stats().matches.get() - before.1, matches as u64);
    }
}

/// The one signature walk: an update's new image is matched, its old
/// image is retracted from the `any` signature (fanned or not), a fanned
/// signature reports a split instead of its match probe, and the walk
/// counts the run's tokens and accepted signatures once.
#[test]
fn match_run_reports_matches_retractions_and_splits() {
    let ix = PredicateIndex::new(IndexConfig::default());
    let any = add(&ix, "emp.dept = 7", EventKind::Any, 1);
    add(&ix, "emp.salary > 10", EventKind::InsertOrUpdate, 2);
    let emp = |salary: f64, dept: i64| {
        Tuple::new(vec![
            Value::str("x"),
            Value::Float(salary),
            Value::Int(dept),
        ])
    };
    let runs = [
        UpdateDescriptor::update(EMP, emp(0.0, 7), emp(20.0, 8)),
        ins("y", 5.0, 7),
    ];
    let walk = |retract: bool, fan: &dyn Fn(&SignatureRuntime) -> bool| {
        let mut found = Vec::new();
        let token = |i: usize| (&runs[i], ROOT_SPAN);
        ix.match_run(runs.len(), token, retract, fan, |f: Result<Found<'_>>| {
            found.push(match f.unwrap() {
                Found::Match { tok, entry, .. } => ("match", tok, entry.trigger_id.raw()),
                Found::Retract { tok, entry } => ("retract", tok, entry.trigger_id.raw()),
                Found::Split { tok, sig } => ("split", tok, u64::from(sig.id.raw())),
            })
        });
        found.sort();
        found
    };
    let stats = ix.stats();
    let before = (stats.tokens.get(), stats.signatures_probed.get());
    let never = |_: &SignatureRuntime| false;
    assert_eq!(
        walk(true, &never),
        [("match", 0, 2), ("match", 1, 1), ("retract", 0, 1)]
    );
    assert_eq!(walk(false, &never), [("match", 0, 2), ("match", 1, 1)]);
    let fan_any = |sig: &SignatureRuntime| sig.id == any.id;
    let any_id = u64::from(any.id.raw());
    assert_eq!(
        walk(true, &fan_any),
        [
            ("match", 0, 2),
            ("retract", 0, 1),
            ("split", 0, any_id),
            ("split", 1, any_id)
        ]
    );
    // Three walks of two tokens, each accepted by both signatures; a
    // split counts as probed, a retraction does not.
    let after = (stats.tokens.get(), stats.signatures_probed.get());
    assert_eq!((after.0 - before.0, after.1 - before.1), (6, 12));
}

#[test]
fn unknown_source_matches_nothing() {
    let ix = PredicateIndex::new(IndexConfig::default());
    add(&ix, "emp.dept = 1", EventKind::Insert, 1);
    let tok = UpdateDescriptor::insert(DataSourceId(99), Tuple::new(vec![Value::Int(1)]));
    assert!(ix.match_token_vec(&tok).unwrap().is_empty());
}

#[test]
fn stats_accumulate() {
    let ix = PredicateIndex::new(IndexConfig::default());
    add(&ix, "emp.dept = 1", EventKind::Insert, 1);
    add(&ix, "emp.salary > 10", EventKind::Insert, 2);
    for _ in 0..5 {
        ix.match_token_vec(&ins("x", 20.0, 1)).unwrap();
    }
    assert_eq!(ix.stats().tokens.get(), 5);
    assert_eq!(ix.stats().signatures_probed.get(), 10);
    assert_eq!(ix.stats().matches.get(), 10);
}

#[test]
fn like_and_event_only_predicates() {
    let ix = PredicateIndex::new(IndexConfig::default());
    add(&ix, "emp.name like 'Ir%'", EventKind::Insert, 1);
    // Event-only (no when clause): signature "true".
    let schema = emp_schema();
    let (sig, consts) = tman_expr::signature::analyze_selection(
        &tman_expr::Cnf::truth(),
        EMP,
        EventKind::Insert,
        vec![],
    );
    ix.add_predicate(
        EMP,
        &schema,
        sig,
        consts,
        ExprId(2),
        TriggerId(2),
        NodeId(0),
    )
    .unwrap();

    assert_eq!(matched_ids(&ix, &ins("Iris", 1.0, 1)), vec![1, 2]);
    assert_eq!(matched_ids(&ix, &ins("Bob", 1.0, 1)), vec![2]);
}

#[test]
fn many_signatures_on_one_source() {
    let ix = PredicateIndex::new(IndexConfig::default());
    // K distinct structures, N/K triggers each — the paper's premise.
    let mut t = 0u64;
    for _ in 0..20 {
        add(&ix, &format!("emp.dept = {}", t % 3), EventKind::Insert, t);
        t += 1;
        add(&ix, &format!("emp.salary > {t}"), EventKind::Insert, t);
        t += 1;
        add(&ix, &format!("emp.name = 'p{t}'"), EventKind::Insert, t);
        t += 1;
        add(
            &ix,
            &format!("emp.dept = {} and emp.salary > {t}", t % 5),
            EventKind::Insert,
            t,
        );
        t += 1;
    }
    assert_eq!(ix.num_signatures(), 4);
    assert_eq!(ix.num_entries(), 80);
}

#[test]
fn concurrent_matching_is_safe() {
    let ix = Arc::new(PredicateIndex::new(IndexConfig::default()));
    for t in 0..200u64 {
        add(&ix, &format!("emp.dept = {}", t % 20), EventKind::Insert, t);
    }
    let handles: Vec<_> = (0..8)
        .map(|w| {
            let ix = ix.clone();
            std::thread::spawn(move || {
                let mut total = 0usize;
                for i in 0..500 {
                    let d = ((w * 7 + i) % 20) as i64;
                    total += ix.match_token_vec(&ins("x", 0.0, d)).unwrap().len();
                }
                total
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 500 * 10); // 10 triggers per dept value
    }
}

#[test]
fn token_op_is_distinct_from_event_kind() {
    // Sanity: TokenOp::Update satisfies Update and InsertOrUpdate events.
    assert!(EventKind::InsertOrUpdate.accepts(TokenOp::Update));
    assert!(EventKind::Update(vec![]).accepts(TokenOp::Update));
}

#[test]
fn constant_table_slots_are_typed_from_the_signature() {
    // A class emptied before it is switched to a database organization has
    // no member to sample: the slot types come from the columns the
    // placeholders are compared with.
    for kind in [OrgKind::DbTable, OrgKind::DbIndexed] {
        let db = Arc::new(Database::open_memory(256));
        let ix = PredicateIndex::with_database(IndexConfig::default(), db);
        let rt = add(
            &ix,
            "emp.name = 'Ann' and emp.dept = 3",
            EventKind::Insert,
            1,
        );
        ix.remove_trigger(TriggerId(1)).unwrap();
        assert!(rt.is_empty());
        rt.set_org(kind).unwrap();
        add(
            &ix,
            "emp.name = 'Bob' and emp.dept = 7",
            EventKind::Insert,
            2,
        );
        add(
            &ix,
            "emp.name = 'Bob' and emp.dept = 8",
            EventKind::Insert,
            3,
        );
        assert_eq!(rt.org_kind(), kind);
        assert_eq!(matched_ids(&ix, &ins("Bob", 0.0, 7)), vec![2], "{kind:?}");
        assert_eq!(matched_ids(&ix, &ins("Bob", 0.0, 8)), vec![3], "{kind:?}");
        assert!(matched_ids(&ix, &ins("Ann", 0.0, 7)).is_empty(), "{kind:?}");
    }
}

#[test]
fn org_switches_under_concurrent_probe_insert_remove() {
    use std::sync::atomic::AtomicBool;

    let triggers = 500u64;
    let db = Arc::new(Database::open_memory(4096));
    let cfg = IndexConfig {
        list_to_index: 32,
        index_to_db: 600,
    };
    let ix = Arc::new(PredicateIndex::with_database(cfg, db));
    // A stable population that must match throughout, plus a churn band
    // the mutator thread inserts and removes.
    let mut rt = None;
    for t in 0..triggers {
        rt = Some(add(
            &ix,
            &format!("emp.dept = {}", t % 50),
            EventKind::Insert,
            t,
        ));
    }
    let rt = rt.unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let expected_per_dept = triggers / 50;

    let mut handles = Vec::new();
    for w in 0..4u64 {
        let ix = ix.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut probes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let d = ((w * 13 + probes) % 50) as i64;
                let hits = ix.match_token_vec(&ins("x", 0.0, d)).unwrap();
                // Stable triggers (id % 50 == d, id < triggers) must all be
                // present exactly once — no missed, duplicated, or phantom
                // matches while the organization is switched.
                let mut stable: Vec<u64> = hits
                    .iter()
                    .map(|m| m.trigger_id.raw())
                    .filter(|&t| t < triggers)
                    .collect();
                let n = stable.len() as u64;
                stable.sort_unstable();
                stable.dedup();
                assert_eq!(n, expected_per_dept, "dept {d}: missed or duplicated");
                assert_eq!(stable.len() as u64, expected_per_dept, "dept {d}");
                probes += 1;
            }
            probes
        }));
    }
    // Mutator: churns extra triggers so the class size crosses the
    // insert-time promotion thresholds while switches are in flight.
    let churn = {
        let ix = ix.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let tid = 1_000_000 + (n % 2_000);
                add(
                    &ix,
                    &format!("emp.dept = {}", tid % 50),
                    EventKind::Insert,
                    tid,
                );
                if n % 3 == 2 {
                    ix.remove_trigger(TriggerId(1_000_000 + (n.wrapping_sub(2) % 2_000)))
                        .unwrap();
                }
                n += 1;
            }
        })
    };

    let kinds = [
        OrgKind::MemIndex,
        OrgKind::DbIndexed,
        OrgKind::MemList,
        OrgKind::DbTable,
    ];
    for round in 0..12 {
        rt.set_org(kinds[round % kinds.len()]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    churn.join().unwrap();
    assert!(total > 0, "probers made progress");

    // After the storm the directory and the sets agree: one record per
    // entry, and removing every trigger the directory knows leaves every
    // set empty.
    let recorded = || {
        let directory = ix.directory.lock();
        let mut n = 0;
        for (_, &head) in directory.heads.iter() {
            let mut at = head;
            while at != END {
                n += 1;
                at = directory.records[at as usize].next;
            }
        }
        n
    };
    assert_eq!(ix.num_entries(), recorded());
    let mut walked = 0;
    rt.for_each_entry(&mut |_| walked += 1).unwrap();
    assert_eq!(walked, rt.len());
    let known: Vec<TriggerId> = ix.directory.lock().heads.iter().map(|(t, _)| t).collect();
    let removed: usize = known.iter().map(|&t| ix.remove_trigger(t).unwrap()).sum();
    assert_eq!(removed, walked);
    assert_eq!((ix.num_entries(), recorded()), (0, 0));
    for class in ix.all_signatures() {
        assert!(class.is_empty());
        class
            .for_each_entry(&mut |e| panic!("{e:?} outlived its trigger"))
            .unwrap();
    }
}

/// Work this thread did, by [`Work`] kind, while `f` ran.
fn work_in<R>(f: impl FnOnce() -> R) -> (R, [u64; 4]) {
    let before = WORK.with(|w| w.get());
    let r = f();
    let after = WORK.with(|w| w.get());
    (r, std::array::from_fn(|i| after[i] - before[i]))
}

/// What a probe and a removal cost depends on what they touch, not on how
/// many entries the signature holds: counted in keys compared, intervals
/// looked at, entries visited and sets write-locked, at 1 k and at 64 k
/// entries per signature.
#[test]
fn probe_and_removal_cost_is_independent_of_population() {
    let schema = emp_schema();
    // Many constant vectors are filed under each signature without
    // parsing a condition for each.
    let by_dept = analyze("emp.dept = 1", EventKind::Insert).0;
    let by_salary = analyze("emp.salary > 1 and emp.salary <= 2", EventKind::Insert).0;
    // Trigger t keys on dept t and holds the salary band (10t, 10t + 5]:
    // all keys and all low endpoints distinct.
    let populate = |n: u64| {
        let ix = PredicateIndex::new(IndexConfig::default());
        let add = |sig: &SelectionSignature, consts: Vec<Value>, t: u64, e: u64| {
            let (expr, trigger) = (ExprId(2 * t + e), TriggerId(t));
            ix.add_predicate(EMP, &schema, sig.clone(), consts, expr, trigger, NodeId(0))
                .unwrap();
        };
        for t in 0..n {
            add(&by_dept, vec![Value::Int(t as i64)], t, 0);
            let lo = 10 * t as i64;
            add(&by_salary, vec![Value::Int(lo), Value::Int(lo + 5)], t, 1);
        }
        ix
    };
    let [k, nodes, visits, locks] = [
        Work::KeyCompare,
        Work::IntervalNode,
        Work::RemoveVisit,
        Work::WriteLock,
    ]
    .map(|w| w as usize);

    let mut costs = Vec::new();
    for n in [1_000u64, 64_000] {
        let ix = populate(n);
        let classes = ix.all_signatures();
        assert!(classes.iter().all(|c| c.org_kind() == OrgKind::MemIndex));
        assert!(classes.iter().all(|c| c.len() == n as usize));
        // A hit: trigger 500's key and band. One key compared, for the one
        // answer of the equality class; the stab looks at a few intervals
        // per level of each run.
        let (hits, probe) = work_in(|| matched_ids(&ix, &ins("x", 5003.0, 500)));
        assert_eq!(hits, vec![500, 500]);
        assert!(probe[k] <= 2, "{} keys compared, one answer", probe[k]);
        let levels = 64 - n.leading_zeros() as u64;
        assert!(
            probe[nodes] <= 4 * levels,
            "{} intervals, n = {n}",
            probe[nodes]
        );
        // A miss compares no key at all, short of a 32-bit tag collision.
        let (misses, miss) = work_in(|| matched_ids(&ix, &ins("x", -1.0, -1)));
        assert!(misses.is_empty());
        assert!(miss[k] <= 1, "{} keys compared on a miss", miss[k]);
        // A removal goes to the trigger's two entries and write-locks the
        // two sets they are in.
        let (removed, removal) = work_in(|| ix.remove_trigger(TriggerId(500)).unwrap());
        assert_eq!(removed, 2);
        assert_eq!((removal[visits], removal[locks]), (2, 2));
        assert!(removal[k] <= 1);
        assert!(matched_ids(&ix, &ins("x", 5003.0, 500)).is_empty());
        // A trigger the index does not know costs nothing.
        let (removed, unknown) = work_in(|| ix.remove_trigger(TriggerId(n + 9)).unwrap());
        assert_eq!((removed, unknown), (0, [0; 4]));
        costs.push((probe[k], miss[k], removal[visits], removal[locks]));
    }
    assert_eq!(costs[0], costs[1], "1 k entries against 64 k");
}

/// A removal write-locks the sets its trigger has entries in and no
/// other: while one set is held, probes and removals that do not need it
/// go through.
#[test]
fn a_held_set_stalls_only_its_own_probes_and_removals() {
    let ix = Arc::new(PredicateIndex::new(IndexConfig::default()));
    let held = add(&ix, "emp.dept = 1", EventKind::Insert, 1);
    let free = add(&ix, "emp.salary > 10", EventKind::Insert, 2);
    add(&ix, "emp.salary > 20", EventKind::Insert, 3);
    // As a removal from `held` would, mid-way.
    let guard = held.org.write();
    let (done, finished) = std::sync::mpsc::channel();
    let worker = {
        let (ix, free) = (ix.clone(), free.clone());
        std::thread::spawn(move || {
            let tuple = Tuple::new(vec![Value::str("x"), Value::Float(15.0), Value::Int(1)]);
            let hits = probe_ids(&ix, &free, &tuple, 0, 1);
            let removed = ix.remove_trigger(TriggerId(3)).unwrap();
            done.send((hits, removed)).unwrap();
        })
    };
    let outcome = finished.recv_timeout(std::time::Duration::from_secs(20));
    drop(guard);
    worker.join().unwrap();
    assert_eq!(
        outcome.expect("stalled behind a set it does not touch"),
        (vec![2], 1)
    );
    assert_eq!((held.len(), free.len()), (1, 1));
}

/// An entry is a row of its class, not a heap object: a class's memory
/// (its structure, the cells and the rows) is at most 96 bytes an entry at
/// 1 k and at 64 k entries, for each shape of the `select_hot` mix. Keys,
/// bounds and constants are all distinct, so no entry shares a group with
/// another. The removal directory, one record an entry and one head slot a
/// trigger in a page of trigger ids, comes on top: at most
/// [`DIRECTORY_BYTES`] an entry at 1 k and 64 k entries, and at 64 k after
/// 64 k triggers were created and dropped before them (51.2 B while the
/// heads were a hash map).
#[test]
fn an_entry_costs_a_row_of_its_class() {
    const DIRECTORY_BYTES: f64 = 26.0;
    let schema = emp_schema();
    let sig = |cond: &str| analyze(cond, EventKind::Insert).0;
    fn name(t: u64) -> Value {
        Value::Str(format!("S{t}"))
    }
    fn int(t: u64) -> Value {
        Value::Int(t as i64)
    }
    // (shape, condition, constants of trigger t); a tagged `or` is two
    // entries of one trigger, in two classes.
    type Arm<'a> = (&'a str, fn(u64) -> Vec<Value>);
    let shapes: [(&str, Vec<Arm>); 4] = [
        ("equality", vec![("emp.name = 'S1'", |t| vec![name(t)])]),
        (
            "range",
            vec![("emp.salary > 1 and emp.salary <= 2", |t| {
                vec![int(10 * t), int(10 * t + 5)]
            })],
        ),
        (
            "equality and residual",
            vec![("emp.name = 'S1' and emp.salary > 2", |t| {
                vec![name(t), int(t)]
            })],
        ),
        (
            "tagged or",
            vec![
                ("emp.name = 'S1'", |t| vec![name(t)]),
                ("emp.dept = 1", |t| vec![int(t)]),
            ],
        ),
    ];
    for (shape, arms) in &shapes {
        let tagged = if arms.len() > 1 { ExprId::TAGGED } else { 0 };
        let arms: Vec<_> = arms
            .iter()
            .map(|(cond, consts)| (sig(cond), consts))
            .collect();
        for (n, dropped) in [(1_000u64, 0u64), (64_000, 0), (64_000, 64_000)] {
            let ix = PredicateIndex::new(IndexConfig::default());
            let add = |t: u64| {
                for (arm, (sig, consts)) in arms.iter().enumerate() {
                    let expr = ExprId((2 * t + arm as u64) | tagged);
                    let (trigger, node) = (TriggerId(t), NodeId(0));
                    ix.add_predicate(EMP, &schema, sig.clone(), consts(t), expr, trigger, node)
                        .unwrap();
                }
            };
            for t in 0..dropped {
                add(t);
            }
            for t in 0..dropped {
                assert_eq!(ix.remove_trigger(TriggerId(t)).unwrap(), arms.len());
            }
            (dropped..dropped + n).for_each(add);
            let entries = ix.num_entries();
            assert_eq!(entries, n as usize * arms.len());
            let classes: usize = ix.all_signatures().iter().map(|c| c.memory_bytes()).sum();
            let per_entry = classes as f64 / entries as f64;
            let directory = (ix.memory_bytes() - classes) as f64 / entries as f64;
            println!(
                "{shape}, {entries} entries after {dropped} dropped: {per_entry:.1} B an entry, \
                 directory {directory:.1}"
            );
            // A class keeps the room its dropped entries took; the
            // directory gives its pages back.
            assert!(
                dropped > 0 || per_entry <= 96.0,
                "{shape}, {entries} entries: {per_entry:.1} B an entry"
            );
            assert!(
                directory <= DIRECTORY_BYTES,
                "{shape}, {entries} entries after {dropped} dropped: directory {directory:.1} B \
                 an entry"
            );
        }
    }
}

/// The constants a class keeps outside its index structure — a string
/// residual's under an equality plan, every one of a class with no plan —
/// come through every organization switch and removal whole: after each
/// switch the class matches what the conditions say, with a trigger
/// dropped after each.
#[test]
fn rows_survive_every_switch_and_removal() {
    let db = Arc::new(Database::open_memory(1024));
    let ix = PredicateIndex::with_database(IndexConfig::default(), db);
    let (n, mut live) = (60u64, Vec::new());
    let (mut keyed, mut unplanned) = (None, None);
    for t in 0..n {
        let (dept, name) = (t % 5, t % 3);
        let cond = format!("emp.dept = {dept} and emp.name <> 'N{name}'");
        keyed = Some(add(&ix, &cond, EventKind::Insert, t));
        let cond = format!("emp.name = 'N{name}' or emp.dept = {dept}");
        unplanned = Some(add(&ix, &cond, EventKind::Insert, n + t));
        live.push(t);
    }
    let (keyed, unplanned) = (keyed.unwrap(), unplanned.unwrap());
    assert!(matches!(unplanned.sig.index_plan, IndexPlan::None));
    let check = |live: &[u64], what: &str| {
        for (name, dept) in [(0, 0), (1, 3), (2, 4), (7, 1)] {
            let got = matched_ids(&ix, &ins(&format!("N{name}"), 0.0, dept));
            let mut want: Vec<u64> = live
                .iter()
                .filter(|&&t| t % 5 == dept as u64 && t % 3 != name)
                .copied()
                .collect();
            let other = live
                .iter()
                .filter(|&&t| t % 3 == name || t % 5 == dept as u64);
            want.extend(other.map(|t| n + t));
            want.sort_unstable();
            assert_eq!(got, want, "{what}: token (N{name}, {dept})");
        }
    };
    check(&live, "as created");
    let kinds = [
        OrgKind::MemIndex,
        OrgKind::DbTable,
        OrgKind::MemList,
        OrgKind::DbIndexed,
        OrgKind::MemIndex,
        OrgKind::MemList,
    ];
    for (round, kind) in kinds.into_iter().enumerate() {
        keyed.set_org(kind).unwrap();
        unplanned.set_org(kind).unwrap();
        check(&live, &format!("{kind:?}"));
        let t = live.remove(7 * round % live.len());
        assert_eq!(ix.remove_trigger(TriggerId(t)).unwrap(), 1, "{kind:?}");
        assert_eq!(ix.remove_trigger(TriggerId(n + t)).unwrap(), 1, "{kind:?}");
        check(&live, &format!("{kind:?} less trigger {t}"));
    }
}
