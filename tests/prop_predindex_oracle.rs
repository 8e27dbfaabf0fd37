//! Differential test oracle for the predicate index.
//!
//! A naive reference implementation — a flat `Vec` of
//! `(trigger, event, predicate)` evaluated in full against every token —
//! is driven through the same randomized trigger create/drop and token
//! streams as the real `PredicateIndex`, and the two must produce
//! identical match sets:
//!
//! * under the organization each class happens to be in,
//! * with every class **forced** into each of the §5.2 organizations
//!   (mem list, denormalized list, mem index, db table, db indexed), and
//! * across every transition between two of the four organizations, each
//!   made with `set_org` on the populated class,
//!
//! with triggers dropped (and some ids created again, under another
//! condition) before the first forced organization and one more dropped
//! after every switch, so `remove_trigger` meets every organization. The
//! conditions cover what the flat strategy-2 structures must get right:
//! composite keys over non-adjacent columns, the same constants under
//! many triggers, string-valued ranges, float bounds stabbed by int
//! values and the reverse, and one-sided and unbounded ranges around
//! narrow ones.
//!
//! The suite runs on a fixed RNG seed (`SEED`) so CI is deterministic;
//! shrinking still works because the cases run under a regular proptest
//! `TestRunner`.

mod oracle_common;

use oracle_common::{env_cases, seeded_runner};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestError};
use std::sync::Arc;
use tman_common::{
    DataSourceId, DataType, EventKind, ExprId, NodeId, Result, Schema, TriggerId, Tuple,
    UpdateDescriptor, Value,
};
use tman_expr::cnf::{remap_var, to_cnf, Cnf};
use tman_expr::scalar::Env;
use tman_expr::signature::IndexPlan;
use tman_expr::BindCtx;
use tman_lang::parse_expression;
use tman_predindex::{IndexConfig, OrgKind, PredicateIndex, SignatureRuntime};
use tman_sql::Database;

const SRC: DataSourceId = DataSourceId(7);
/// Pinned so the CI run is reproducible; change deliberately, not casually.
const SEED: [u8; 32] = *b"tman-predindex-oracle-seed-0001!";

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("sym", DataType::Varchar(12)),
        ("price", DataType::Float),
        ("vol", DataType::Int),
    ])
}

/// The reference: every predicate of every live trigger, evaluated in
/// full for every token. No organizations, no indexes, no sharing.
#[derive(Default)]
struct Oracle {
    preds: Vec<(TriggerId, EventKind, Cnf)>,
}

impl Oracle {
    fn add(&mut self, id: TriggerId, event: EventKind, pred: Cnf) {
        self.preds.push((id, event, pred));
    }

    fn remove(&mut self, id: TriggerId) {
        self.preds.retain(|(t, _, _)| *t != id);
    }

    fn matches(&self, token: &UpdateDescriptor) -> Result<Vec<u64>> {
        let tuple = token.probe_tuple();
        let bind = Some(tuple);
        let env = Env {
            tuples: std::slice::from_ref(&bind),
            consts: &[],
        };
        let mut out = Vec::new();
        for (id, event, pred) in &self.preds {
            if token.data_src == SRC && event.accepts(token.op) && pred.matches(&env)? {
                out.push(id.raw());
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

/// One randomized trigger: condition text + event kind.
#[derive(Debug, Clone)]
struct TriggerDef {
    cond: String,
    event: EventKind,
}

fn arb_event() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        3 => Just(EventKind::Insert),
        1 => Just(EventKind::Delete),
        1 => Just(EventKind::Update(vec![])),
        1 => Just(EventKind::InsertOrUpdate),
    ]
}

fn arb_trigger() -> impl Strategy<Value = TriggerDef> {
    let sym = 0u32..5;
    let price = 0i64..100;
    let cond = prop_oneof![
        // Equality signatures (shared classes: few distinct shapes).
        sym.clone().prop_map(|s| format!("q.sym = 'S{s}'")),
        (0i64..40).prop_map(|v| format!("q.vol = {v}")),
        // A composite key over columns 0 and 2.
        (sym.clone(), 0i64..6).prop_map(|(s, v)| format!("q.sym = 'S{s}' and q.vol = {v}")),
        // Range signatures: int bounds on the float column...
        price.clone().prop_map(|p| format!("q.price > {p}")),
        (price.clone(), 1i64..30)
            .prop_map(|(p, w)| format!("q.price >= {p} and q.price < {}", p + w)),
        // ...one-sided from above, and narrow ones for the wide to nest,
        price.clone().prop_map(|p| format!("q.price <= {p}")),
        price
            .clone()
            .prop_map(|p| format!("q.price > {p} and q.price <= {}.5", p)),
        // float bounds on the int column,
        (0i64..40, 0i64..12).prop_map(|(v, w)| format!("q.vol >= {v}.5 and q.vol < {}.25", v + w)),
        (0i64..40).prop_map(|v| format!("q.vol < {v}.5")),
        // and string-valued bounds.
        sym.clone().prop_map(|s| format!("q.sym > 'S{s}'")),
        (sym.clone(), 1u32..4)
            .prop_map(|(s, w)| format!("q.sym >= 'S{s}' and q.sym < 'S{}x'", s + w)),
        // Composite: indexable equality + residual; the second arm is one
        // constant vector under many triggers.
        (sym.clone(), price.clone())
            .prop_map(|(s, p)| format!("q.sym = 'S{s}' and q.price >= {p}")),
        Just("q.sym = 'S1' and q.price >= 10".to_string()),
        // OR: no indexable part (IndexPlan::None, list organizations only).
        (sym.clone(), sym).prop_map(|(a, b)| format!("q.sym = 'S{a}' or q.sym = 'S{b}'")),
        // Negation.
        price.prop_map(|p| format!("not (q.price <= {p})")),
    ];
    (cond, arb_event()).prop_map(|(cond, event)| TriggerDef { cond, event })
}

/// (sym, price in quarters, vol-or-null, op selector)
fn arb_token() -> impl Strategy<Value = (u32, i64, Option<i64>, u8)> {
    (
        0u32..6,
        0i64..440,
        proptest::option::weighted(0.9, 0i64..45),
        0u8..4,
    )
}

fn mk_token(s: u32, p: i64, v: Option<i64>, op: u8) -> UpdateDescriptor {
    let tuple = Tuple::new(vec![
        Value::str(format!("S{s}")),
        Value::Float(p as f64 / 4.0),
        v.map(Value::Int).unwrap_or(Value::Null),
    ]);
    match op {
        0 | 1 => UpdateDescriptor::insert(SRC, tuple),
        2 => UpdateDescriptor::delete(SRC, tuple),
        _ => {
            let old = Tuple::new(vec![
                Value::str(format!("S{}", (s + 1) % 6)),
                Value::Float((p + 4) as f64 / 4.0),
                Value::Int(-1),
            ]);
            UpdateDescriptor::update(SRC, old, tuple)
        }
    }
}

/// Register a trigger in the index and the oracle.
fn add_both(ix: &PredicateIndex, oracle: &mut Oracle, def: &TriggerDef, tid: u64) {
    let schema = schema();
    let ctx = BindCtx::new(vec![("q".into(), &schema)]);
    let cnf = to_cnf(&ctx.pred(&parse_expression(&def.cond).unwrap()).unwrap()).unwrap();
    let canon = remap_var(&cnf, 0, 0, "q");
    oracle.add(TriggerId(tid), def.event.clone(), canon.clone());
    let (sig, consts) =
        tman_expr::signature::analyze_selection(&canon, SRC, def.event.clone(), vec![]);
    ix.add_predicate(
        SRC,
        &schema,
        sig,
        consts,
        ExprId(tid),
        TriggerId(tid),
        NodeId(0),
    )
    .unwrap();
}

fn index_matches(ix: &PredicateIndex, token: &UpdateDescriptor) -> Vec<u64> {
    let mut ids: Vec<u64> = ix
        .match_token_vec(token)
        .unwrap()
        .into_iter()
        .map(|m| m.trigger_id.raw())
        .collect();
    ids.sort_unstable();
    ids
}

fn check_all(
    ix: &PredicateIndex,
    oracle: &Oracle,
    tokens: &[UpdateDescriptor],
    ctxt: &str,
) -> std::result::Result<(), TestCaseError> {
    for tok in tokens {
        let got = index_matches(ix, tok);
        let want = oracle.matches(tok).unwrap();
        prop_assert_eq!(got, want, "{}: token {:?}", ctxt, tok);
    }
    Ok(())
}

/// Force every signature whose plan supports it into `kind`.
fn force_org(sigs: &[Arc<SignatureRuntime>], kind: OrgKind) {
    for rt in sigs {
        if kind == OrgKind::MemIndex && matches!(rt.sig.index_plan, IndexPlan::None) {
            continue; // no index plan, no index to build
        }
        rt.set_org(kind).unwrap();
    }
}

/// The property: index == oracle through create/drop/re-create, every
/// forced organization, and a gauntlet of organization transitions with a
/// drop after each.
fn run_case(
    triggers: &[TriggerDef],
    drops: &[proptest::sample::Index],
    recreated: &[TriggerDef],
    tokens: &[(u32, i64, Option<i64>, u8)],
) -> std::result::Result<(), TestCaseError> {
    let db = Arc::new(Database::open_memory(512));
    let ix = PredicateIndex::with_database(IndexConfig::default(), db);
    let mut oracle = Oracle::default();
    let tokens: Vec<UpdateDescriptor> = tokens
        .iter()
        .map(|&(s, p, v, op)| mk_token(s, p, v, op))
        .collect();

    for (i, def) in triggers.iter().enumerate() {
        add_both(&ix, &mut oracle, def, i as u64);
    }
    check_all(&ix, &oracle, &tokens, "fresh")?;

    // Drop a random subset of triggers from both sides.
    let drop_both = |oracle: &mut Oracle, tid: u64| {
        let held = oracle.preds.iter().filter(|(t, ..)| t.raw() == tid).count();
        oracle.remove(TriggerId(tid));
        assert_eq!(ix.remove_trigger(TriggerId(tid)).unwrap(), held);
    };
    let dropped: Vec<u64> = drops
        .iter()
        .map(|d| d.index(triggers.len()) as u64)
        .collect();
    for &tid in &dropped {
        drop_both(&mut oracle, tid);
    }
    check_all(&ix, &oracle, &tokens, "after drops")?;

    // Create some of the dropped ids again, under other conditions.
    for (&tid, def) in dropped.iter().zip(recreated) {
        drop_both(&mut oracle, tid); // the id may repeat among the drops
        add_both(&ix, &mut oracle, def, tid);
    }
    check_all(&ix, &oracle, &tokens, "after re-creation")?;
    prop_assert_eq!(ix.num_entries(), oracle.preds.len());

    // Every §5.2 organization, forced; then one more trigger goes.
    let sigs = ix.all_signatures();
    let mut next_drop = (0..triggers.len() as u64).rev();
    for kind in [
        OrgKind::MemList,
        OrgKind::MemListDenorm,
        OrgKind::MemIndex,
        OrgKind::DbTable,
        OrgKind::DbIndexed,
    ] {
        force_org(&sigs, kind);
        check_all(&ix, &oracle, &tokens, kind.as_str())?;
        if let Some(tid) = next_drop.next() {
            drop_both(&mut oracle, tid);
        }
        check_all(&ix, &oracle, &tokens, &format!("{}, drop", kind.as_str()))?;
    }

    // Transition gauntlet: every ordered pair of the four organizations
    // (an Euler circuit of the complete digraph on them), checked after
    // each switch and after a drop under it.
    use OrgKind::{DbIndexed as X, DbTable as T, MemIndex as I, MemList as L};
    for kind in [L, I, L, T, L, X, I, T, I, X, T, X, L] {
        force_org(&sigs, kind);
        check_all(&ix, &oracle, &tokens, &format!("-> {}", kind.as_str()))?;
        if let Some(tid) = next_drop.next() {
            drop_both(&mut oracle, tid);
        }
        check_all(
            &ix,
            &oracle,
            &tokens,
            &format!("-> {}, drop", kind.as_str()),
        )?;
    }
    prop_assert_eq!(ix.num_entries(), oracle.preds.len());

    Ok(())
}

#[test]
fn predicate_index_agrees_with_naive_oracle() {
    let mut runner = seeded_runner(&SEED, env_cases("ORACLE_CASES", 256));
    let strategy = (
        proptest::collection::vec(arb_trigger(), 1..32),
        proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
        proptest::collection::vec(arb_trigger(), 0..4),
        proptest::collection::vec(arb_token(), 1..16),
    );
    let result = runner.run(&strategy, |(triggers, drops, recreated, tokens)| {
        run_case(&triggers, &drops, &recreated, &tokens)
    });
    match result {
        Ok(()) => {}
        Err(TestError::Fail(why, (triggers, drops, recreated, tokens))) => panic!(
            "oracle divergence: {why}\nshrunken case:\n  triggers: {triggers:#?}\n  \
             drops: {drops:?}\n  recreated: {recreated:#?}\n  tokens: {tokens:?}"
        ),
        Err(e) => panic!("oracle run aborted: {e}"),
    }
}

/// Long-run variant for the scheduled CI job: more cases, bigger scenarios.
#[test]
#[ignore = "long-running oracle sweep; run with --ignored"]
fn predicate_index_oracle_long() {
    let mut runner = seeded_runner(&SEED, 1024);
    let strategy = (
        proptest::collection::vec(arb_trigger(), 1..64),
        proptest::collection::vec(any::<proptest::sample::Index>(), 0..24),
        proptest::collection::vec(arb_trigger(), 0..12),
        proptest::collection::vec(arb_token(), 1..32),
    );
    let result = runner.run(&strategy, |(triggers, drops, recreated, tokens)| {
        run_case(&triggers, &drops, &recreated, &tokens)
    });
    if let Err(e) = result {
        panic!("oracle long run failed: {e}");
    }
}
