//! Expression signatures (§5).
//!
//! "An expression signature for a general selection or join predicate
//! expression is a triple consisting of a data source ID, an operation
//! code, and a generalized expression" where every constant is replaced by
//! a numbered placeholder. A signature defines an equivalence class of all
//! instantiations with different constants.
//!
//! [`analyze_selection`] performs the per-predicate work of §5.1 step 5:
//! generalization, the `E = E_I AND E_NI` indexable/residual split, and the
//! most-selective-conjunct choice of \[Hans90\].

use crate::cnf::{Cnf, Conjunct};
use crate::pred::{AtomKind, AtomicPred, CmpOp};
use crate::resolve::{BindCtx, TypeClass};
use crate::scalar::{Func, Scalar};
use std::fmt;
use tman_common::{DataSourceId, DataType, EventKind, Schema, Value};

/// Upper bound on the number of disjuncts tagged execution will split a
/// predicate into. Beyond this, multi-set membership stops paying for
/// itself (every branch is a physical entry in some constant set) and the
/// residual scan is kept instead.
pub const MAX_TAGGED_DISJUNCTS: usize = 8;

/// Identity of a signature: `(data source, operation code, generalized
/// expression)`. The generalized expression is identified by its canonical
/// description string (also stored in the catalog as `signatureDesc`), so
/// structural equality is string equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignatureKey {
    /// The data source the predicate applies to.
    pub data_src: DataSourceId,
    /// Operation code: insert / delete / update / insertOrUpdate, plus the
    /// update column list when present (part of the event condition).
    pub event: EventKind,
    /// Canonical display of the generalized expression.
    pub desc: String,
}

impl fmt::Display for SignatureKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[src={} on {}: {}]",
            self.data_src.raw(),
            self.event,
            self.desc
        )
    }
}

/// How the indexable part `E_I` of a signature's predicates can be probed.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexPlan {
    /// `attr1 = CONSTANT_i1 AND ... AND attrK = CONSTANT_iK`: probe with
    /// the token's values of `cols`, matching rows whose constants at
    /// `const_slots` equal them. This is the composite-key clustered-index
    /// form of §5.1.
    Equality {
        /// Column ordinals of the data source, in key order.
        cols: Vec<usize>,
        /// Placeholder slots (into the constant vector) paired with `cols`.
        const_slots: Vec<usize>,
    },
    /// A (possibly one-sided) range on a single column:
    /// `lo <[=] attr <[=] hi` where lo/hi are constants. Probed by
    /// stabbing an interval structure with the token's value of `col` (the
    /// interface of \[Hans96b\]'s interval skip list; `tman-predindex`
    /// keeps sorted runs with a max-upper-bound augmentation).
    Range {
        /// Column ordinal being ranged over.
        col: usize,
        /// Lower bound: (placeholder slot, inclusive).
        lo: Option<(usize, bool)>,
        /// Upper bound: (placeholder slot, inclusive).
        hi: Option<(usize, bool)>,
    },
    /// No indexable conjunct: every expression in the equivalence class is
    /// evaluated against the token (still grouped under the signature so
    /// the work is shared structurally).
    None,
}

/// The analysis result for one selection predicate occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionSignature {
    /// Signature identity.
    pub key: SignatureKey,
    /// The full generalized expression (placeholders everywhere).
    pub generalized: Cnf,
    /// Number of placeholders (`m` in the paper).
    pub num_consts: usize,
    /// The indexable part `E_I` as a probe plan.
    pub index_plan: IndexPlan,
    /// The non-indexable part `E_NI` (conjuncts not covered by the plan),
    /// still referring to the shared placeholder numbering. `None` when the
    /// entire predicate is indexable ("restOfPredicate is NULL").
    pub residual: Option<Cnf>,
    /// Column ordinals for `update(col, ...)` events (empty = any column).
    pub update_cols: Vec<usize>,
}

impl SelectionSignature {
    /// Column types of the signature's constant table (§5.2 strategies 3
    /// and 4), one per placeholder slot, read off the generalized
    /// expression and the data source's `schema`: bind-time type checking
    /// pins a placeholder to the type class of what it is compared with
    /// or is an operand of, so every member of the equivalence class
    /// stores that class in the slot. Numeric slots are `FLOAT` (an
    /// integer constant coerces losslessly), the rest `VARCHAR`.
    pub fn slot_types(&self, schema: &Schema) -> Vec<DataType> {
        let ctx = BindCtx::new(vec![(String::new(), schema)]);
        let mut numeric = vec![false; self.num_consts];
        for atom in self.generalized.conjuncts.iter().flat_map(|c| &c.atoms) {
            match &atom.kind {
                AtomKind::Cmp { op, left, right } => {
                    for (side, other) in [(left, right), (right, left)] {
                        let num = *op != CmpOp::Like && ctx.class_of(other) == TypeClass::Num;
                        type_placeholders(side, num, &mut numeric);
                    }
                }
                AtomKind::IsNull(s) => type_placeholders(s, false, &mut numeric),
                AtomKind::Const(_) => {}
            }
        }
        numeric
            .iter()
            .map(|&num| {
                if num {
                    DataType::Float
                } else {
                    DataType::Varchar(65535)
                }
            })
            .collect()
    }
}

/// Record the type class of every placeholder in `s`, which stands where a
/// numeric (`num`) or string value is expected.
fn type_placeholders(s: &Scalar, num: bool, numeric: &mut [bool]) {
    match s {
        Scalar::Placeholder(slot) => numeric[*slot] = num,
        Scalar::Neg(inner) => type_placeholders(inner, true, numeric),
        Scalar::Arith { left, right, .. } => {
            type_placeholders(left, true, numeric);
            type_placeholders(right, true, numeric);
        }
        Scalar::Call { func, args } => {
            let num = !matches!(func, Func::Length | Func::Lower | Func::Upper);
            for a in args {
                type_placeholders(a, num, numeric);
            }
        }
        Scalar::Const(_) | Scalar::Col { .. } => {}
    }
}

/// Estimated selectivity of a conjunct — lower is more selective. The
/// ranking (equality ≪ two-sided range < one-sided range < LIKE < other)
/// follows the usual System-R style heuristics; the paper's \[Hans90\]
/// technique needs only the *ordering*, not calibrated values.
pub fn conjunct_selectivity(c: &Conjunct) -> f64 {
    // A disjunction is as selective as the sum of its branches.
    c.atoms
        .iter()
        .map(|a| {
            if a.negated {
                return 0.9;
            }
            match &a.kind {
                AtomKind::Const(_) => 1.0,
                AtomKind::IsNull(_) => 0.1,
                AtomKind::Cmp { op, left, right } => {
                    let has_const_side = is_col_vs_const(left, right).is_some();
                    match (op, has_const_side) {
                        (CmpOp::Eq, true) => 0.01,
                        (CmpOp::Eq, false) => 0.05,
                        (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, _) => 0.3,
                        (CmpOp::Like, _) => 0.25,
                        (CmpOp::Ne, _) => 0.9,
                    }
                }
            }
        })
        .sum::<f64>()
        .min(1.0)
}

/// If the atom compares a bare column of variable 0 against a placeholder
/// or constant, return `(col, placeholder_slot, op_with_col_on_left)`.
fn atom_col_vs_slot(op: CmpOp, left: &Scalar, right: &Scalar) -> Option<(usize, usize, CmpOp)> {
    if op == CmpOp::Like {
        return None; // LIKE is not index-probable here
    }
    if let (Some((0, col)), Some(slot)) = (left.as_column(), right.as_placeholder()) {
        return Some((col, slot, op));
    }
    if let (Some(slot), Some((0, col))) = (left.as_placeholder(), right.as_column()) {
        return Some((col, slot, op.flip()));
    }
    None
}

fn is_col_vs_const(left: &Scalar, right: &Scalar) -> Option<()> {
    let konst = |s: &Scalar| matches!(s, Scalar::Const(_) | Scalar::Placeholder(_));
    match (left.as_column(), right.as_column()) {
        (Some(_), None) if konst(right) => Some(()),
        (None, Some(_)) if konst(left) => Some(()),
        _ => None,
    }
}

/// Classify one generalized conjunct for indexability.
enum ConjunctClass {
    /// `col = CONSTANT_slot`
    Eq {
        col: usize,
        slot: usize,
    },
    /// `col op CONSTANT_slot` with an ordered operator.
    Range {
        col: usize,
        slot: usize,
        op: CmpOp,
    },
    Other,
}

fn classify(c: &Conjunct) -> ConjunctClass {
    // Only single-clause (no OR), non-negated conjuncts are indexable,
    // matching the paper's "most selection predicates will not contain ORs".
    if c.atoms.len() != 1 || c.atoms[0].negated {
        return ConjunctClass::Other;
    }
    let AtomKind::Cmp { op, left, right } = &c.atoms[0].kind else {
        return ConjunctClass::Other;
    };
    match atom_col_vs_slot(*op, left, right) {
        Some((col, slot, CmpOp::Eq)) => ConjunctClass::Eq { col, slot },
        Some((col, slot, op @ (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge))) => {
            ConjunctClass::Range { col, slot, op }
        }
        _ => ConjunctClass::Other,
    }
}

/// Is this atom individually index-selectable — a non-negated ordered or
/// equality comparison between a bare column of variable 0 and a constant?
/// Exactly the atoms [`classify`] would accept as a standalone conjunct
/// after generalization (the constant becomes a placeholder).
fn atom_selectable(a: &AtomicPred) -> bool {
    if a.negated {
        return false;
    }
    let AtomKind::Cmp { op, left, right } = &a.kind else {
        return false;
    };
    if matches!(op, CmpOp::Like | CmpOp::Ne) {
        return false;
    }
    let is_const = |s: &Scalar| matches!(s, Scalar::Const(_));
    (matches!(left.as_column(), Some((0, _))) && is_const(right))
        || (is_const(left) && matches!(right.as_column(), Some((0, _))))
}

/// Tagged-execution decomposition of a disjunctive selection predicate
/// (Kim & Madden, "Optimizing Disjunctive Queries with Tagged Execution").
///
/// If the CNF contains a conjunct `(a1 OR ... OR an)` whose atoms are each
/// individually index-selectable (column-vs-constant equality or range),
/// rewrite `(a1 ∨ ... ∨ an) ∧ R` as the n branch predicates `ai ∧ R` — an
/// equivalence because conjunction distributes over disjunction. Each
/// branch is then analyzable into a signature with a real index plan keyed
/// by `ai`, so the trigger enters one constant set per disjunct instead of
/// falling into the residual linear scan. Branches can overlap on a token
/// (`x = 1 or x < 5` both match `x = 1`), which is why every branch entry
/// must carry a shared *tag* the engine dedupes per token.
///
/// Returns the branch CNFs (original conjunct order preserved, with the
/// decomposed conjunct replaced in place by the single atom), or `None`
/// when no conjunct qualifies: the predicate has no multi-atom disjunction,
/// the best candidate has a non-selectable atom (negation, `LIKE`, `<>`,
/// arithmetic on the column), or it exceeds [`MAX_TAGGED_DISJUNCTS`].
/// Only the *first* qualifying conjunct is decomposed — splitting several
/// would multiply entries combinatorially; the remaining disjunctions stay
/// residual inside every branch, which is still correct.
///
/// Operates on the concrete (pre-generalization) selection so the engine
/// can feed each branch straight back through [`analyze_selection`]; each
/// branch renumbers its own placeholders independently.
pub fn decompose_disjunction(selection: &Cnf) -> Option<Vec<Cnf>> {
    let target = selection.conjuncts.iter().position(|c| {
        c.atoms.len() >= 2
            && c.atoms.len() <= MAX_TAGGED_DISJUNCTS
            && c.atoms.iter().all(atom_selectable)
    })?;
    let mut branches: Vec<Cnf> = Vec::with_capacity(selection.conjuncts[target].atoms.len());
    let mut seen: Vec<String> = Vec::new();
    for atom in &selection.conjuncts[target].atoms {
        let mut conjuncts = selection.conjuncts.clone();
        conjuncts[target] = Conjunct {
            atoms: vec![atom.clone()],
        };
        let branch = Cnf { conjuncts };
        // Duplicate atoms (`x = 1 or x = 1`) would register two identical
        // entries under one tag — harmless under dedup, but wasteful.
        let desc = branch.to_string();
        if seen.contains(&desc) {
            continue;
        }
        seen.push(desc);
        branches.push(branch);
    }
    Some(branches)
}

/// A selection predicate generalized (§5): its signature's identity, the
/// generalized expression, and the constants lifted out of it — what
/// finds the equivalence class a predicate belongs to.
/// [`Generalized::into_signature`] adds the index plan and the residual,
/// which only a class being created needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Generalized {
    /// Signature identity.
    pub key: SignatureKey,
    /// The full generalized expression (placeholders everywhere).
    pub expr: Cnf,
    /// The constant vector for the constant table.
    pub consts: Vec<Value>,
}

impl Generalized {
    /// The whole signature, and the constant vector.
    pub fn into_signature(self, update_cols: Vec<usize>) -> (SelectionSignature, Vec<Value>) {
        let (index_plan, residual) = split_indexable(&self.expr);
        let sig = SelectionSignature {
            key: self.key,
            num_consts: self.consts.len(),
            generalized: self.expr,
            index_plan,
            residual,
            update_cols,
        };
        (sig, self.consts)
    }
}

/// Generalize one selection predicate (already canonicalized onto variable
/// 0; see [`crate::cnf::remap_var`]).
pub fn generalize_selection(
    selection: &Cnf,
    data_src: DataSourceId,
    event: EventKind,
) -> Generalized {
    let mut consts = Vec::new();
    let expr = selection.generalize(&mut consts);
    let key = SignatureKey {
        data_src,
        event,
        desc: expr.to_string(),
    };
    Generalized { key, expr, consts }
}

/// Analyze one selection predicate (already canonicalized onto variable 0;
/// see [`crate::cnf::remap_var`]). Returns the signature and the extracted
/// constant vector (the row for the signature's constant table).
pub fn analyze_selection(
    selection: &Cnf,
    data_src: DataSourceId,
    event: EventKind,
    update_cols: Vec<usize>,
) -> (SelectionSignature, Vec<Value>) {
    generalize_selection(selection, data_src, event).into_signature(update_cols)
}

/// The `E = E_I AND E_NI` split of a generalized expression: the index
/// plan of its indexable part, chosen most-selective-conjunct first
/// (\[Hans90\]), and the conjuncts the plan leaves over.
fn split_indexable(generalized: &Cnf) -> (IndexPlan, Option<Cnf>) {
    // Classify conjuncts.
    let mut eqs: Vec<(usize, usize, usize)> = Vec::new(); // (col, slot, conjunct idx)
    let mut ranges: Vec<(usize, usize, CmpOp, usize)> = Vec::new();
    for (i, c) in generalized.conjuncts.iter().enumerate() {
        match classify(c) {
            ConjunctClass::Eq { col, slot } => eqs.push((col, slot, i)),
            ConjunctClass::Range { col, slot, op } => ranges.push((col, slot, op, i)),
            ConjunctClass::Other => {}
        }
    }

    let mut covered: Vec<usize> = Vec::new();
    let index_plan = if !eqs.is_empty() {
        // All equality conjuncts form the composite key, ordered by column
        // ordinal for determinism. Duplicate columns (x = 1 AND x = 2)
        // keep only the first occurrence; the rest stay residual.
        eqs.sort_by_key(|&(col, _, idx)| (col, idx));
        let mut cols = Vec::new();
        let mut slots = Vec::new();
        for (col, slot, idx) in eqs {
            if cols.last() == Some(&col) {
                continue;
            }
            cols.push(col);
            slots.push(slot);
            covered.push(idx);
        }
        IndexPlan::Equality {
            cols,
            const_slots: slots,
        }
    } else if !ranges.is_empty() {
        // Pick the column with the most range conjuncts (two-sided ranges
        // are more selective), then lowest ordinal for determinism.
        let mut best_col = ranges[0].0;
        let mut best_count = 0usize;
        for &(col, ..) in &ranges {
            let n = ranges.iter().filter(|r| r.0 == col).count();
            if n > best_count || (n == best_count && col < best_col) {
                best_col = col;
                best_count = n;
            }
        }
        let mut lo: Option<(usize, bool)> = None;
        let mut hi: Option<(usize, bool)> = None;
        for &(col, slot, op, idx) in &ranges {
            if col != best_col {
                continue;
            }
            match op {
                CmpOp::Gt if lo.is_none() => {
                    lo = Some((slot, false));
                    covered.push(idx);
                }
                CmpOp::Ge if lo.is_none() => {
                    lo = Some((slot, true));
                    covered.push(idx);
                }
                CmpOp::Lt if hi.is_none() => {
                    hi = Some((slot, false));
                    covered.push(idx);
                }
                CmpOp::Le if hi.is_none() => {
                    hi = Some((slot, true));
                    covered.push(idx);
                }
                _ => {}
            }
        }
        IndexPlan::Range {
            col: best_col,
            lo,
            hi,
        }
    } else {
        IndexPlan::None
    };

    // Residual = conjuncts not covered by the plan.
    let residual_conjuncts: Vec<Conjunct> = generalized
        .conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| !covered.contains(i))
        .map(|(_, c)| c.clone())
        .collect();
    let residual = if residual_conjuncts.is_empty() {
        None
    } else {
        Some(Cnf {
            conjuncts: residual_conjuncts,
        })
    };

    (index_plan, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::to_cnf;
    use crate::resolve::BindCtx;
    use tman_common::{DataType, Schema};
    use tman_lang::parse_expression;

    fn emp() -> Schema {
        Schema::from_pairs(&[
            ("name", DataType::Varchar(32)),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ])
    }

    fn analyze(cond: &str) -> (SelectionSignature, Vec<Value>) {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        let cnf = to_cnf(&ctx.pred(&parse_expression(cond).unwrap()).unwrap()).unwrap();
        analyze_selection(&cnf, DataSourceId(1), EventKind::Insert, vec![])
    }

    #[test]
    fn paper_figure2_signature() {
        // "on insert to emp when emp.salary > 80000" and the same with
        // 50000 have the same signature but different constants (§5).
        let (sig_a, consts_a) = analyze("emp.salary > 80000");
        let (sig_b, consts_b) = analyze("emp.salary > 50000");
        assert_eq!(sig_a.key, sig_b.key);
        assert_eq!(sig_a.key.desc, "emp.salary > CONSTANT1");
        assert_eq!(consts_a, vec![Value::Int(80000)]);
        assert_eq!(consts_b, vec![Value::Int(50000)]);
        // And a structurally different predicate has a different signature.
        let (sig_c, _) = analyze("emp.salary >= 80000");
        assert_ne!(sig_a.key, sig_c.key);
    }

    #[test]
    fn slot_types_follow_what_each_placeholder_is_compared_with() {
        let types = |cond: &str| analyze(cond).0.slot_types(&emp());
        let (num, text) = (DataType::Float, DataType::Varchar(65535));
        assert_eq!(types("emp.name = 'Bob' and emp.dept = 7"), vec![text, num]);
        assert_eq!(types("80000 < emp.salary"), vec![num]);
        assert_eq!(types("emp.salary * 2 > 100"), vec![num, num]);
        assert_eq!(
            types("emp.name like 'B%' or lower(emp.name) = 'bob'"),
            vec![text, text]
        );
        assert_eq!(
            types("length(emp.name) > 3 and mod(emp.dept, 2) = 1"),
            vec![num, num, num]
        );
        // The constant's own value does not matter: NULL takes the column's.
        assert_eq!(types("emp.dept = null"), vec![num]);
    }

    #[test]
    fn event_is_part_of_the_key() {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        let cnf = to_cnf(
            &ctx.pred(&parse_expression("emp.dept = 5").unwrap())
                .unwrap(),
        )
        .unwrap();
        let (a, _) = analyze_selection(&cnf, DataSourceId(1), EventKind::Insert, vec![]);
        let (b, _) = analyze_selection(&cnf, DataSourceId(1), EventKind::InsertOrUpdate, vec![]);
        let (c, _) = analyze_selection(&cnf, DataSourceId(2), EventKind::Insert, vec![]);
        assert_ne!(a.key, b.key);
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn equality_plan_with_composite_key() {
        let (sig, consts) = analyze("emp.dept = 7 and emp.name = 'Bob'");
        let IndexPlan::Equality { cols, const_slots } = &sig.index_plan else {
            panic!("expected equality plan, got {:?}", sig.index_plan)
        };
        // Ordered by column ordinal: name(0), dept(2).
        assert_eq!(cols, &vec![0, 2]);
        // Constants numbered left to right in the original expression:
        // 7 first, then 'Bob'; slots follow the column order.
        assert_eq!(consts, vec![Value::Int(7), Value::str("Bob")]);
        assert_eq!(const_slots, &vec![1, 0]);
        assert!(sig.residual.is_none(), "fully indexable");
    }

    #[test]
    fn equality_beats_range_and_residual_keeps_rest() {
        let (sig, _) = analyze("emp.salary > 50000 and emp.dept = 3");
        assert!(matches!(sig.index_plan, IndexPlan::Equality { .. }));
        let resid = sig.residual.expect("range conjunct is residual");
        assert_eq!(resid.conjuncts.len(), 1);
        assert_eq!(resid.to_string(), "emp.salary > CONSTANT1");
    }

    #[test]
    fn two_sided_range_plan() {
        let (sig, consts) = analyze("emp.salary > 50000 and emp.salary <= 90000");
        let IndexPlan::Range { col, lo, hi } = sig.index_plan else {
            panic!()
        };
        assert_eq!(col, 1);
        assert_eq!(lo, Some((0, false)));
        assert_eq!(hi, Some((1, true)));
        assert_eq!(consts, vec![Value::Int(50000), Value::Int(90000)]);
        assert!(sig.residual.is_none());
    }

    #[test]
    fn between_produces_range_plan() {
        let (sig, consts) = analyze("emp.salary between 1000 and 2000");
        let IndexPlan::Range { lo, hi, .. } = sig.index_plan else {
            panic!()
        };
        assert_eq!(lo, Some((0, true)));
        assert_eq!(hi, Some((1, true)));
        assert_eq!(consts.len(), 2);
    }

    #[test]
    fn reversed_operand_order_normalizes() {
        // `80000 < emp.salary` is the same probe as `emp.salary > 80000`
        // (but a distinct signature string — the paper's equivalence is
        // syntactic, so that is correct).
        let (sig, _) = analyze("80000 < emp.salary");
        let IndexPlan::Range { col, lo, hi } = sig.index_plan else {
            panic!()
        };
        assert_eq!(col, 1);
        assert_eq!(lo, Some((0, false)));
        assert!(hi.is_none());
    }

    #[test]
    fn or_and_not_are_not_indexable() {
        let (sig, _) = analyze("emp.dept = 1 or emp.dept = 2");
        assert!(matches!(sig.index_plan, IndexPlan::None));
        assert!(sig.residual.is_some());

        let (sig, _) = analyze("emp.name <> 'Bob'");
        assert!(matches!(sig.index_plan, IndexPlan::None));
    }

    #[test]
    fn arithmetic_on_column_is_not_indexable() {
        let (sig, consts) = analyze("emp.salary * 2 > 100");
        assert!(matches!(sig.index_plan, IndexPlan::None));
        assert_eq!(consts, vec![Value::Int(2), Value::Int(100)]);
        assert_eq!(sig.key.desc, "(emp.salary * CONSTANT1) > CONSTANT2");
    }

    #[test]
    fn aliases_do_not_change_signatures() {
        // Same predicate via differently-named tuple variables, after
        // canonicalization onto the data-source name.
        let schema = emp();
        let mk = |var: &str, cond: &str| {
            let ctx = BindCtx::new(vec![(var.to_string(), &schema)]);
            let cnf = to_cnf(&ctx.pred(&parse_expression(cond).unwrap()).unwrap()).unwrap();
            let canon = crate::cnf::remap_var(&cnf, 0, 0, "emp");
            analyze_selection(&canon, DataSourceId(1), EventKind::Insert, vec![]).0
        };
        let a = mk("e", "e.salary > 10");
        let b = mk("worker", "worker.salary > 99");
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn selectivity_ordering() {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        let sel = |cond: &str| {
            let cnf = to_cnf(&ctx.pred(&parse_expression(cond).unwrap()).unwrap()).unwrap();
            conjunct_selectivity(&cnf.conjuncts[0])
        };
        assert!(sel("emp.dept = 1") < sel("emp.salary > 5"));
        assert!(sel("emp.salary > 5") < sel("emp.dept <> 1"));
        assert!(sel("emp.dept = 1") < sel("emp.dept = 1 or emp.dept = 2"));
    }

    fn cnf_of(cond: &str) -> Cnf {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        to_cnf(&ctx.pred(&parse_expression(cond).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn decompose_splits_selectable_disjunction() {
        let branches = decompose_disjunction(&cnf_of("emp.dept = 1 or emp.dept = 2")).unwrap();
        assert_eq!(branches.len(), 2);
        for b in &branches {
            let (sig, _) = analyze_selection(b, DataSourceId(1), EventKind::Insert, vec![]);
            assert!(matches!(sig.index_plan, IndexPlan::Equality { .. }));
            assert!(sig.residual.is_none(), "single-atom branch fully indexed");
        }
        // The two branches carry different constants and different keys.
        let (sa, ca) = analyze_selection(&branches[0], DataSourceId(1), EventKind::Insert, vec![]);
        let (sb, cb) = analyze_selection(&branches[1], DataSourceId(1), EventKind::Insert, vec![]);
        assert_eq!(sa.key, sb.key, "same shape, same signature class");
        assert_eq!(ca, vec![Value::Int(1)]);
        assert_eq!(cb, vec![Value::Int(2)]);
    }

    #[test]
    fn decompose_keeps_residual_in_every_branch() {
        let branches = decompose_disjunction(&cnf_of(
            "(emp.dept = 1 or emp.salary > 100) and emp.name like 'B%'",
        ))
        .unwrap();
        assert_eq!(branches.len(), 2);
        let (s0, _) = analyze_selection(&branches[0], DataSourceId(1), EventKind::Insert, vec![]);
        assert!(matches!(s0.index_plan, IndexPlan::Equality { .. }));
        assert!(s0.residual.is_some(), "LIKE conjunct stays residual");
        let (s1, _) = analyze_selection(&branches[1], DataSourceId(1), EventKind::Insert, vec![]);
        assert!(matches!(s1.index_plan, IndexPlan::Range { .. }));
        assert!(s1.residual.is_some());
    }

    #[test]
    fn decompose_dedupes_identical_disjuncts() {
        let branches = decompose_disjunction(&cnf_of("emp.dept = 1 or emp.dept = 1"));
        // Simplification may collapse the duplicate before we ever see it;
        // either way at most one branch per distinct atom survives.
        if let Some(branches) = branches {
            assert_eq!(branches.len(), 1);
        }
    }

    #[test]
    fn decompose_refuses_unselectable_disjuncts() {
        // A LIKE, negation, or arithmetic disjunct poisons the whole
        // disjunction: one branch would need a linear scan anyway.
        assert!(decompose_disjunction(&cnf_of("emp.name like 'B%' or emp.dept = 1")).is_none());
        assert!(decompose_disjunction(&cnf_of("emp.dept <> 1 or emp.dept = 2")).is_none());
        assert!(decompose_disjunction(&cnf_of("emp.salary * 2 > 10 or emp.dept = 1")).is_none());
        // No disjunction at all.
        assert!(decompose_disjunction(&cnf_of("emp.dept = 1")).is_none());
        assert!(decompose_disjunction(&cnf_of("emp.dept = 1 and emp.salary > 5")).is_none());
    }

    #[test]
    fn decompose_respects_branch_cap() {
        let wide = (0..MAX_TAGGED_DISJUNCTS + 1)
            .map(|i| format!("emp.dept = {i}"))
            .collect::<Vec<_>>()
            .join(" or ");
        assert!(decompose_disjunction(&cnf_of(&wide)).is_none());
        let ok = (0..MAX_TAGGED_DISJUNCTS)
            .map(|i| format!("emp.dept = {i}"))
            .collect::<Vec<_>>()
            .join(" or ");
        assert_eq!(
            decompose_disjunction(&cnf_of(&ok)).unwrap().len(),
            MAX_TAGGED_DISJUNCTS
        );
    }

    #[test]
    fn duplicate_equality_on_same_column() {
        // x = 1 AND x = 2: only one becomes the key; the other is residual
        // (and can never match, which is the trigger author's problem).
        let (sig, _) = analyze("emp.dept = 1 and emp.dept = 2");
        let IndexPlan::Equality { cols, .. } = &sig.index_plan else {
            panic!()
        };
        assert_eq!(cols, &vec![2]);
        assert!(sig.residual.is_some());
    }

    #[test]
    fn empty_selection_is_event_only_signature() {
        let cnf = Cnf::truth();
        let (sig, consts) = analyze_selection(&cnf, DataSourceId(3), EventKind::Delete, vec![]);
        assert_eq!(sig.key.desc, "true");
        assert_eq!(sig.num_consts, 0);
        assert!(consts.is_empty());
        assert!(matches!(sig.index_plan, IndexPlan::None));
        assert!(sig.residual.is_none());
    }
}
