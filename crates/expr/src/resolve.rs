//! Binding parsed expressions against tuple-variable schemas.

use crate::pred::{AtomKind, AtomicPred, CmpOp, Pred};
use crate::scalar::{ArithOp, Func, Scalar};
use tman_common::{DataType, Result, Schema, TmanError, Value};
use tman_lang::{BinaryOp, Expr, Literal, UnaryOp};

/// Scalar type classes used for bind-time checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TypeClass {
    Num,
    Str,
    Unknown,
}

fn class_of_type(t: DataType) -> TypeClass {
    match t {
        DataType::Int | DataType::Float => TypeClass::Num,
        DataType::Char(_) | DataType::Varchar(_) => TypeClass::Str,
    }
}

/// Binding context: the trigger's tuple variables, in `from`-list order.
///
/// For rule *actions*, transition references (`:OLD.x.y`) are allowed and
/// resolve to a second bank of variable slots: variable `i`'s NEW image is
/// slot `i`, its OLD image slot `num_vars + i`. Token processing fills the
/// environment accordingly.
pub struct BindCtx<'a> {
    vars: Vec<(String, &'a Schema)>,
    allow_transitions: bool,
}

impl<'a> BindCtx<'a> {
    /// Context for trigger conditions (`when` clauses): transitions are
    /// rejected.
    pub fn new(vars: Vec<(String, &'a Schema)>) -> BindCtx<'a> {
        BindCtx {
            vars,
            allow_transitions: false,
        }
    }

    /// The same variables as the context for rule actions, where
    /// `:NEW`/`:OLD` references resolve: one context binds a trigger's
    /// condition and then its action.
    pub fn into_actions(self) -> BindCtx<'a> {
        BindCtx {
            allow_transitions: true,
            ..self
        }
    }

    /// Number of tuple variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Ordinal of a tuple variable by name.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    fn lookup(&self, qualifier: Option<&str>, column: &str) -> Result<(usize, usize, String)> {
        match qualifier {
            Some(q) => {
                let var = self
                    .var_index(q)
                    .ok_or_else(|| TmanError::Invalid(format!("unknown tuple variable '{q}'")))?;
                let col = self.vars[var]
                    .1
                    .index_of(column)
                    .ok_or_else(|| TmanError::Invalid(format!("no column '{column}' in '{q}'")))?;
                Ok((var, col, format!("{}.{}", self.vars[var].0, column)))
            }
            None => {
                // Unqualified: must be unambiguous across all variables.
                let mut hit = None;
                for (var, (name, schema)) in self.vars.iter().enumerate() {
                    if let Some(col) = schema.index_of(column) {
                        if hit.is_some() {
                            return Err(TmanError::Invalid(format!("ambiguous column '{column}'")));
                        }
                        hit = Some((var, col, format!("{name}.{column}")));
                    }
                }
                hit.ok_or_else(|| TmanError::Invalid(format!("unknown column '{column}'")))
            }
        }
    }

    pub(crate) fn class_of(&self, s: &Scalar) -> TypeClass {
        match s {
            Scalar::Const(Value::Int(_)) | Scalar::Const(Value::Float(_)) => TypeClass::Num,
            Scalar::Const(Value::Str(_)) => TypeClass::Str,
            Scalar::Const(Value::Null) | Scalar::Placeholder(_) => TypeClass::Unknown,
            Scalar::Col { var, col, .. } => {
                // OLD-image slots mirror the NEW-image schemas.
                let v = *var % self.vars.len().max(1);
                self.vars
                    .get(v)
                    .map(|(_, s)| class_of_type(s.column(*col).ty))
                    .unwrap_or(TypeClass::Unknown)
            }
            Scalar::Neg(_) | Scalar::Arith { .. } => TypeClass::Num,
            Scalar::Call { func, .. } => match func {
                Func::Lower | Func::Upper => TypeClass::Str,
                _ => TypeClass::Num,
            },
        }
    }

    /// Resolve an expression expected to be a scalar.
    pub fn scalar(&self, e: &Expr) -> Result<Scalar> {
        match e {
            Expr::Literal(l) => Ok(Scalar::Const(match l {
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(f) => Value::Float(*f),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Null => Value::Null,
            })),
            Expr::Column { qualifier, column } => {
                let (var, col, name) = self.lookup(qualifier.as_deref(), column)?;
                Ok(Scalar::Col { var, col, name })
            }
            Expr::Transition {
                new,
                source,
                column,
            } => {
                if !self.allow_transitions {
                    return Err(TmanError::Invalid(
                        ":NEW/:OLD references are only allowed in rule actions".into(),
                    ));
                }
                let (var, col, name) = self.lookup(Some(source), column)?;
                let slot = if *new { var } else { self.vars.len() + var };
                Ok(Scalar::Col {
                    var: slot,
                    col,
                    name: format!(":{}.{name}", if *new { "NEW" } else { "OLD" }),
                })
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                let inner = self.scalar(expr)?;
                if self.class_of(&inner) == TypeClass::Str {
                    return Err(TmanError::Type("cannot negate a string".into()));
                }
                Ok(Scalar::Neg(Box::new(inner)))
            }
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => Err(TmanError::Type("NOT used in scalar position".into())),
            Expr::Binary { op, left, right } => {
                let aop = match op {
                    BinaryOp::Add => ArithOp::Add,
                    BinaryOp::Sub => ArithOp::Sub,
                    BinaryOp::Mul => ArithOp::Mul,
                    BinaryOp::Div => ArithOp::Div,
                    _ => {
                        return Err(TmanError::Type(format!(
                            "boolean operator '{}' in scalar position",
                            op.symbol()
                        )))
                    }
                };
                let l = self.scalar(left)?;
                let r = self.scalar(right)?;
                for s in [&l, &r] {
                    if self.class_of(s) == TypeClass::Str {
                        return Err(TmanError::Type(format!(
                            "arithmetic on string operand '{s}'"
                        )));
                    }
                }
                Ok(Scalar::Arith {
                    op: aop,
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }
            Expr::Call { name, args } => {
                if name.eq_ignore_ascii_case("is_null") {
                    return Err(TmanError::Type("IS NULL used in scalar position".into()));
                }
                let func = Func::by_name(name)
                    .ok_or_else(|| TmanError::Invalid(format!("unknown function '{name}'")))?;
                if args.len() != func.arity() {
                    return Err(TmanError::Type(format!(
                        "{name} takes {} argument(s), got {}",
                        func.arity(),
                        args.len()
                    )));
                }
                Ok(Scalar::Call {
                    func,
                    args: args.iter().map(|a| self.scalar(a)).collect::<Result<_>>()?,
                })
            }
        }
    }

    /// Resolve an expression expected to be a predicate.
    pub fn pred(&self, e: &Expr) -> Result<Pred> {
        match e {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => Ok(Pred::And(vec![self.pred(left)?, self.pred(right)?])),
            Expr::Binary {
                op: BinaryOp::Or,
                left,
                right,
            } => Ok(Pred::Or(vec![self.pred(left)?, self.pred(right)?])),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => Ok(Pred::Not(Box::new(self.pred(expr)?))),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let cmp = match op {
                    BinaryOp::Eq => CmpOp::Eq,
                    BinaryOp::Ne => CmpOp::Ne,
                    BinaryOp::Lt => CmpOp::Lt,
                    BinaryOp::Le => CmpOp::Le,
                    BinaryOp::Gt => CmpOp::Gt,
                    BinaryOp::Ge => CmpOp::Ge,
                    BinaryOp::Like => CmpOp::Like,
                    _ => unreachable!(),
                };
                let l = self.scalar(left)?;
                let r = self.scalar(right)?;
                let (lc, rc) = (self.class_of(&l), self.class_of(&r));
                if lc != TypeClass::Unknown && rc != TypeClass::Unknown && lc != rc {
                    return Err(TmanError::Type(format!(
                        "comparing incompatible types: {l} {} {r}",
                        cmp.symbol()
                    )));
                }
                if cmp == CmpOp::Like && (lc == TypeClass::Num || rc == TypeClass::Num) {
                    return Err(TmanError::Type("LIKE requires string operands".into()));
                }
                Ok(Pred::Atom(AtomicPred::cmp(cmp, l, r)))
            }
            Expr::Call { name, args } if name.eq_ignore_ascii_case("is_null") => {
                if args.len() != 1 {
                    return Err(TmanError::Type("is_null takes one argument".into()));
                }
                Ok(Pred::Atom(AtomicPred::pos(AtomKind::IsNull(
                    self.scalar(&args[0])?,
                ))))
            }
            Expr::Literal(Literal::Int(i)) => Ok(Pred::truth(*i != 0)),
            _ => Err(TmanError::Type(
                "expected a boolean condition, found scalar expression".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Env;
    use tman_common::{DataType, Tuple};
    use tman_lang::parse_expression;

    fn emp() -> Schema {
        Schema::from_pairs(&[
            ("name", DataType::Varchar(32)),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ])
    }

    fn eval_on(cond: &str, row: Vec<Value>) -> Option<bool> {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        let p = ctx.pred(&parse_expression(cond).unwrap()).unwrap();
        let t = Tuple::new(row);
        let bind = Some(&t);
        let env = Env {
            tuples: std::slice::from_ref(&bind),
            consts: &[],
        };
        p.eval(&env).unwrap()
    }

    #[test]
    fn paper_condition_salary_over_80000() {
        assert_eq!(
            eval_on(
                "emp.salary > 80000",
                vec![Value::str("Bob"), Value::Float(90000.0), Value::Int(1)]
            ),
            Some(true)
        );
        assert_eq!(
            eval_on(
                "emp.salary > 80000",
                vec![Value::str("Bob"), Value::Float(70000.0), Value::Int(1)]
            ),
            Some(false)
        );
    }

    #[test]
    fn unqualified_columns_resolve_when_unambiguous() {
        assert_eq!(
            eval_on(
                "name = 'Bob' and dept = 7",
                vec![Value::str("Bob"), Value::Float(1.0), Value::Int(7)]
            ),
            Some(true)
        );
    }

    #[test]
    fn type_errors_at_bind_time() {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        for bad in [
            "emp.salary = 'abc'",
            "emp.name > 5",
            "emp.name + 1 = 2",
            "emp.salary like 'x%'",
            "-emp.name = 3",
        ] {
            assert!(
                ctx.pred(&parse_expression(bad).unwrap()).is_err(),
                "expected bind error for {bad}"
            );
        }
    }

    #[test]
    fn unknown_names_rejected() {
        let schema = emp();
        let ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        assert!(ctx
            .pred(&parse_expression("emp.bogus = 1").unwrap())
            .is_err());
        assert!(ctx.pred(&parse_expression("dept2.x = 1").unwrap()).is_err());
        assert!(ctx
            .scalar(&parse_expression("frobnicate(1)").unwrap())
            .is_err());
    }

    #[test]
    fn transitions_only_in_actions() {
        let schema = emp();
        let cond_ctx = BindCtx::new(vec![("emp".into(), &schema)]);
        let e = parse_expression(":NEW.emp.salary").unwrap();
        assert!(cond_ctx.scalar(&e).is_err());

        let act_ctx = cond_ctx.into_actions();
        let s = act_ctx.scalar(&e).unwrap();
        assert_eq!(s.as_column(), Some((0, 1)));
        let s_old = act_ctx
            .scalar(&parse_expression(":OLD.emp.salary").unwrap())
            .unwrap();
        assert_eq!(s_old.as_column(), Some((1, 1))); // num_vars + 0
    }

    #[test]
    fn multi_variable_join_condition() {
        let sp = Schema::from_pairs(&[("spno", DataType::Int), ("name", DataType::Varchar(20))]);
        let rep = Schema::from_pairs(&[("spno", DataType::Int), ("nno", DataType::Int)]);
        let ctx = BindCtx::new(vec![("s".into(), &sp), ("r".into(), &rep)]);
        let p = ctx
            .pred(&parse_expression("s.name = 'Iris' and s.spno = r.spno").unwrap())
            .unwrap();
        assert_eq!(p.var_mask(), 0b11);
        let ts = Tuple::new(vec![Value::Int(3), Value::str("Iris")]);
        let tr = Tuple::new(vec![Value::Int(3), Value::Int(9)]);
        let binds = [Some(&ts), Some(&tr)];
        let env = Env {
            tuples: &binds,
            consts: &[],
        };
        assert_eq!(p.eval(&env).unwrap(), Some(true));
    }

    #[test]
    fn is_null_resolves() {
        assert_eq!(
            eval_on(
                "emp.name is null",
                vec![Value::Null, Value::Float(0.0), Value::Int(0)]
            ),
            Some(true)
        );
        assert_eq!(
            eval_on(
                "emp.name is not null",
                vec![Value::Null, Value::Float(0.0), Value::Int(0)]
            ),
            Some(false)
        );
    }
}
