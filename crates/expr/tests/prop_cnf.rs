//! Property tests on the CNF conversion and signature machinery:
//!
//! * CNF conversion preserves three-valued semantics for arbitrary
//!   predicate trees over arbitrary tuples;
//! * generalization + constant re-binding is semantics-preserving
//!   (the heart of the expression-signature idea: evaluating the
//!   generalized expression with the extracted constants must equal
//!   evaluating the original).

use tman_check::prelude::*;
use tman_check::string::chars;
use tman_common::{Tuple, Value};
use tman_expr::cnf::to_cnf;
use tman_expr::{AtomicPred, CmpOp, Pred};
use tman_expr::{Env, Scalar};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(|i| Value::Float(i as f64 / 2.0)),
        chars(&['a'..='b'], 0..=3).prop_map(Value::str),
    ]
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    prop_oneof![
        arb_value().prop_map(Scalar::Const),
        (0usize..3).prop_map(|col| Scalar::Col {
            var: 0,
            col,
            name: format!("t.c{col}")
        }),
    ]
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let atom = (arb_cmp(), arb_scalar(), arb_scalar())
        .prop_map(|(op, l, r)| Pred::Atom(AtomicPred::cmp(op, l, r)));
    atom.prop_recursive(5, 40, 3, |inner| {
        prop_oneof![
            tman_check::collection::vec(inner.clone(), 1..3).prop_map(Pred::And),
            tman_check::collection::vec(inner.clone(), 1..3).prop_map(Pred::Or),
            inner.clone().prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        prop_oneof![Just(Value::Null), (-20i64..20).prop_map(Value::Int)],
        prop_oneof![
            Just(Value::Null),
            (-20i64..20).prop_map(|i| Value::Float(i as f64 / 2.0))
        ],
        prop_oneof![
            Just(Value::Null),
            chars(&['a'..='b'], 0..=3).prop_map(Value::str)
        ],
    )
        .prop_map(|(a, b, s)| Tuple::new(vec![a, b, s]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cnf_preserves_three_valued_semantics(p in arb_pred(), t in arb_tuple()) {
        let Ok(cnf) = to_cnf(&p) else { return Ok(()) }; // blow-up guard hit
        let bind = Some(&t);
        let env = Env { tuples: std::slice::from_ref(&bind), consts: &[] };
        // Comparing strings to numbers can be a bind-time type error in the
        // engine, but the runtime comparator totals the order instead of
        // failing, so evaluation always succeeds here.
        let orig = p.eval(&env).unwrap();
        let normd = cnf.eval(&env).unwrap();
        prop_assert_eq!(orig, normd, "pred: {:?} cnf: {}", p, cnf);
    }

    #[test]
    fn generalization_is_semantics_preserving(p in arb_pred(), t in arb_tuple()) {
        let Ok(cnf) = to_cnf(&p) else { return Ok(()) };
        let (sig, consts) = tman_expr::signature::analyze_selection(
            &cnf,
            tman_common::DataSourceId(1),
            tman_common::EventKind::Insert,
            vec![],
        );
        prop_assert_eq!(sig.num_consts, consts.len());
        let bind = Some(&t);
        let env_orig = Env { tuples: std::slice::from_ref(&bind), consts: &[] };
        let env_gen = Env { tuples: std::slice::from_ref(&bind), consts: &consts };
        prop_assert_eq!(
            cnf.eval(&env_orig).unwrap(),
            sig.generalized.eval(&env_gen).unwrap(),
            "cnf: {} generalized: {}",
            cnf,
            sig.generalized
        );
    }

    #[test]
    fn indexable_split_covers_whole_predicate(p in arb_pred(), t in arb_tuple()) {
        // E = E_I AND E_NI: a tuple satisfies the generalized predicate iff
        // it satisfies the plan's conjuncts AND the residual.
        let Ok(cnf) = to_cnf(&p) else { return Ok(()) };
        let (sig, consts) = tman_expr::signature::analyze_selection(
            &cnf,
            tman_common::DataSourceId(1),
            tman_common::EventKind::Insert,
            vec![],
        );
        let bind = Some(&t);
        let env = Env { tuples: std::slice::from_ref(&bind), consts: &consts };
        let full = sig.generalized.matches(&env).unwrap();
        let residual_ok = match &sig.residual {
            None => true,
            Some(r) => r.matches(&env).unwrap(),
        };
        let plan_ok = plan_matches(&sig.index_plan, &consts, &t);
        prop_assert_eq!(full, residual_ok && plan_ok,
            "plan: {:?} residual: {:?}", sig.index_plan, sig.residual.as_ref().map(|r| r.to_string()));
    }
}

/// Re-evaluate the index plan directly (mirrors what the constant-set
/// organizations do during a probe).
fn plan_matches(plan: &tman_expr::IndexPlan, consts: &[Value], t: &Tuple) -> bool {
    match plan {
        tman_expr::IndexPlan::None => true,
        tman_expr::IndexPlan::Equality { cols, const_slots } => {
            cols.iter().zip(const_slots).all(|(&c, &s)| {
                let v = t.get(c);
                !v.is_null() && !consts[s].is_null() && v == &consts[s]
            })
        }
        tman_expr::IndexPlan::Range { col, lo, hi } => {
            let v = t.get(*col);
            if v.is_null() {
                return false;
            }
            let lo_ok = match lo {
                None => true,
                Some((s, inc)) => {
                    let b = &consts[*s];
                    !b.is_null()
                        && match v.total_cmp(b) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Equal => *inc,
                            std::cmp::Ordering::Less => false,
                        }
                }
            };
            let hi_ok = match hi {
                None => true,
                Some((s, inc)) => {
                    let b = &consts[*s];
                    !b.is_null()
                        && match v.total_cmp(b) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => *inc,
                            std::cmp::Ordering::Greater => false,
                        }
                }
            };
            lo_ok && hi_ok
        }
    }
}
