//! `tman-expr` — compiled trigger conditions and expression signatures.
//!
//! This crate implements §4 and the analysis half of §5 of the paper:
//!
//! * [`Scalar`] / [`Pred`] — typed, resolved scalar expressions and
//!   predicates with SQL three-valued logic, evaluated against tuples.
//! * [`BindCtx`] — binding of parsed [`tman_lang::Expr`] trees against
//!   tuple-variable schemas.
//! * [`cnf`] — conversion of `when` clauses to conjunctive normal form and
//!   grouping of conjuncts "by the set of data sources they refer to" into
//!   selection / join / trivial / hyper-join predicates, producing the
//!   *trigger condition graph* of §5.1 step 3.
//! * [`signature`] — *expression signatures*: the generalized expression
//!   with constants replaced by numbered placeholders, the constant vector,
//!   the signature description string (the catalog `signatureDesc`), the
//!   indexable/residual split `E = E_I AND E_NI`, and the most-selective-
//!   conjunct choice (\[Hans90\]).

pub mod cnf;
mod pred;
mod resolve;
mod scalar;
pub mod signature;

pub use cnf::{Cnf, ConditionGraph, Conjunct, JoinEdge};
pub use pred::{AtomKind, AtomicPred, CmpOp, Pred};
pub use resolve::BindCtx;
pub use scalar::{Env, Func, Scalar};
pub use signature::{
    decompose_disjunction, generalize_selection, Generalized, IndexPlan, SelectionSignature,
    SignatureKey, MAX_TAGGED_DISJUNCTS,
};
