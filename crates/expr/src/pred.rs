//! Predicates with SQL three-valued logic.
//!
//! The `when` clause is a boolean expression over scalars. Evaluation
//! returns `Option<bool>` — `None` is SQL *unknown* — and a predicate
//! "matches" a token only when it evaluates to `Some(true)`.

use crate::scalar::{Env, Scalar};
use std::cmp::Ordering;
use std::fmt;
use tman_common::{Result, TmanError, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` (pattern with `%` / `_`)
    Like,
}

impl CmpOp {
    /// The operator such that `a op b == b.flip(op) a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Like => CmpOp::Like, // not flippable; callers must not flip LIKE
        }
    }

    /// Logical negation (`NOT (a op b)` ⇒ `a op.negate() b`).
    pub fn negate(self) -> Option<CmpOp> {
        match self {
            CmpOp::Eq => Some(CmpOp::Ne),
            CmpOp::Ne => Some(CmpOp::Eq),
            CmpOp::Lt => Some(CmpOp::Ge),
            CmpOp::Le => Some(CmpOp::Gt),
            CmpOp::Gt => Some(CmpOp::Le),
            CmpOp::Ge => Some(CmpOp::Lt),
            CmpOp::Like => None, // represented with an explicit negation flag
        }
    }

    /// Symbol for signature descriptions.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Like => "like",
        }
    }
}

/// The kind of an atomic predicate (no boolean operators inside, per §5's
/// definition of a clause).
#[derive(Debug, Clone, PartialEq)]
pub enum AtomKind {
    /// `left op right`.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left scalar.
        left: Scalar,
        /// Right scalar.
        right: Scalar,
    },
    /// `expr IS NULL`.
    IsNull(Scalar),
    /// Constant truth value (from folding).
    Const(bool),
}

/// An atomic predicate, possibly negated (§5 allows NOT on clauses).
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicPred {
    /// Negation flag (only needed for `NOT LIKE` / `IS NOT NULL`; ordered
    /// comparisons fold negation into the operator).
    pub negated: bool,
    /// The atom.
    pub kind: AtomKind,
}

impl AtomicPred {
    /// Positive atom.
    pub fn pos(kind: AtomKind) -> AtomicPred {
        AtomicPred {
            negated: false,
            kind,
        }
    }

    /// Comparison helper.
    pub fn cmp(op: CmpOp, left: Scalar, right: Scalar) -> AtomicPred {
        AtomicPred::pos(AtomKind::Cmp { op, left, right })
    }

    /// Three-valued evaluation.
    pub fn eval(&self, env: &Env<'_>) -> Result<Option<bool>> {
        let base = match &self.kind {
            AtomKind::Const(b) => Some(*b),
            AtomKind::IsNull(s) => Some(s.eval(env)?.is_null()),
            AtomKind::Cmp { op, left, right } => {
                let l = left.eval(env)?;
                let r = right.eval(env)?;
                if l.is_null() || r.is_null() {
                    None
                } else {
                    Some(compare(*op, &l, &r)?)
                }
            }
        };
        Ok(match (base, self.negated) {
            (Some(b), true) => Some(!b),
            (b, _) => b,
        })
    }

    /// Variables referenced.
    pub fn var_mask(&self) -> u64 {
        match &self.kind {
            AtomKind::Const(_) => 0,
            AtomKind::IsNull(s) => s.var_mask(),
            AtomKind::Cmp { left, right, .. } => left.var_mask() | right.var_mask(),
        }
    }

    /// Replace constants with placeholders (see [`Scalar::generalize`]).
    pub fn generalize(&self, consts: &mut Vec<Value>) -> AtomicPred {
        let kind = match &self.kind {
            AtomKind::Const(b) => AtomKind::Const(*b),
            AtomKind::IsNull(s) => AtomKind::IsNull(s.generalize(consts)),
            AtomKind::Cmp { op, left, right } => AtomKind::Cmp {
                op: *op,
                left: left.generalize(consts),
                right: right.generalize(consts),
            },
        };
        AtomicPred {
            negated: self.negated,
            kind,
        }
    }
}

impl fmt::Display for AtomicPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "not ")?;
        }
        match &self.kind {
            AtomKind::Const(b) => write!(f, "{b}"),
            AtomKind::IsNull(s) => write!(f, "{s} is null"),
            AtomKind::Cmp { op, left, right } => {
                write!(f, "{left} {} {right}", op.symbol())
            }
        }
    }
}

/// A resolved boolean expression tree (pre-CNF).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// An atomic predicate.
    Atom(AtomicPred),
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Constant truth.
    pub fn truth(b: bool) -> Pred {
        Pred::Atom(AtomicPred::pos(AtomKind::Const(b)))
    }

    /// Three-valued evaluation (Kleene logic: AND short-circuits on false,
    /// OR on true, unknown otherwise propagates).
    pub fn eval(&self, env: &Env<'_>) -> Result<Option<bool>> {
        match self {
            Pred::Atom(a) => a.eval(env),
            Pred::Not(p) => Ok(p.eval(env)?.map(|b| !b)),
            Pred::And(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval(env)? {
                        Some(false) => return Ok(Some(false)),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                Ok(if unknown { None } else { Some(true) })
            }
            Pred::Or(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval(env)? {
                        Some(true) => return Ok(Some(true)),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                Ok(if unknown { None } else { Some(false) })
            }
        }
    }

    /// Does the predicate hold (`Some(true)`)?
    pub fn matches(&self, env: &Env<'_>) -> Result<bool> {
        Ok(self.eval(env)? == Some(true))
    }

    /// Variables referenced.
    pub fn var_mask(&self) -> u64 {
        match self {
            Pred::Atom(a) => a.var_mask(),
            Pred::Not(p) => p.var_mask(),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().map(Pred::var_mask).fold(0, |a, b| a | b),
        }
    }
}

/// Evaluate one comparison on non-null values.
pub(crate) fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<bool> {
    if op == CmpOp::Like {
        let (Value::Str(s), Value::Str(p)) = (l, r) else {
            return Err(TmanError::Type(format!("LIKE on non-strings {l}, {r}")));
        };
        return Ok(like_match(s, p));
    }
    // Comparisons across type classes (number vs string) are type errors,
    // matching the engine's strict checking at bind time; at run time we
    // fall back to total ordering so corrupt data cannot panic.
    let ord = l.total_cmp(r);
    Ok(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Like => unreachable!(),
    })
}

/// SQL LIKE: `%` matches any run (including empty), `_` any single char.
/// Iterative two-pointer algorithm with backtracking to the last `%`.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pi after %, si at %)
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            // Backtrack: let the last % absorb one more char.
            pi = sp;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_common::Tuple;

    fn atom(op: CmpOp, l: Value, r: Value) -> Pred {
        Pred::Atom(AtomicPred::cmp(op, Scalar::Const(l), Scalar::Const(r)))
    }

    #[test]
    fn comparisons() {
        let env = Env::default();
        assert_eq!(
            atom(CmpOp::Eq, Value::Int(1), Value::Float(1.0))
                .eval(&env)
                .unwrap(),
            Some(true)
        );
        assert_eq!(
            atom(CmpOp::Lt, Value::str("abc"), Value::str("abd"))
                .eval(&env)
                .unwrap(),
            Some(true)
        );
        assert_eq!(
            atom(CmpOp::Ge, Value::Int(5), Value::Int(9))
                .eval(&env)
                .unwrap(),
            Some(false)
        );
    }

    #[test]
    fn null_gives_unknown_and_kleene_logic() {
        let env = Env::default();
        let unknown = atom(CmpOp::Eq, Value::Null, Value::Int(1));
        assert_eq!(unknown.eval(&env).unwrap(), None);
        // false AND unknown = false
        let p = Pred::And(vec![Pred::truth(false), unknown.clone()]);
        assert_eq!(p.eval(&env).unwrap(), Some(false));
        // true AND unknown = unknown
        let p = Pred::And(vec![Pred::truth(true), unknown.clone()]);
        assert_eq!(p.eval(&env).unwrap(), None);
        // true OR unknown = true
        let p = Pred::Or(vec![Pred::truth(true), unknown.clone()]);
        assert_eq!(p.eval(&env).unwrap(), Some(true));
        // false OR unknown = unknown
        let p = Pred::Or(vec![Pred::truth(false), unknown.clone()]);
        assert_eq!(p.eval(&env).unwrap(), None);
        // NOT unknown = unknown; and matches() treats it as non-match.
        let p = Pred::Not(Box::new(unknown));
        assert_eq!(p.eval(&env).unwrap(), None);
        assert!(!p.matches(&env).unwrap());
    }

    #[test]
    fn is_null_atom() {
        let t = Tuple::new(vec![Value::Null, Value::Int(3)]);
        let bind = Some(&t);
        let env = Env {
            tuples: std::slice::from_ref(&bind),
            consts: &[],
        };
        let isnull = |c: usize| {
            Pred::Atom(AtomicPred::pos(AtomKind::IsNull(Scalar::Col {
                var: 0,
                col: c,
                name: format!("t.c{c}"),
            })))
        };
        assert_eq!(isnull(0).eval(&env).unwrap(), Some(true));
        assert_eq!(isnull(1).eval(&env).unwrap(), Some(false));
        // IS NOT NULL via negation flag.
        let mut a = AtomicPred::pos(AtomKind::IsNull(Scalar::Col {
            var: 0,
            col: 1,
            name: "t.c1".into(),
        }));
        a.negated = true;
        assert_eq!(a.eval(&env).unwrap(), Some(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Iris", "Ir%"));
        assert!(like_match("Iris", "%s"));
        assert!(like_match("Iris", "I_i%"));
        assert!(like_match("Iris", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("Iris", "ir%")); // case-sensitive
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("mississippi", "%iss%ppi"));
        assert!(!like_match("mississippi", "%issx%"));
        assert!(like_match("abc", "a%%c"));
        assert!(!like_match("ab", "a_c"));
    }

    #[test]
    fn like_type_error() {
        let env = Env::default();
        assert!(atom(CmpOp::Like, Value::Int(1), Value::str("%"))
            .eval(&env)
            .is_err());
    }

    #[test]
    fn operator_algebra() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), Some(CmpOp::Gt));
        assert_eq!(CmpOp::Like.negate(), None);
    }

    #[test]
    fn display_forms() {
        let a = AtomicPred::cmp(
            CmpOp::Gt,
            Scalar::Col {
                var: 0,
                col: 1,
                name: "emp.salary".into(),
            },
            Scalar::Placeholder(0),
        );
        assert_eq!(a.to_string(), "emp.salary > CONSTANT1");
    }
}
