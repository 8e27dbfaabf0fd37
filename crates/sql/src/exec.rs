//! SQL-subset execution with an index-aware filter planner.

use crate::{Database, Table};
use std::sync::Arc;
use tman_common::{Result, Schema, TmanError, Tuple, Value};
use tman_expr::cnf::to_cnf;
use tman_expr::BindCtx;
use tman_expr::{AtomKind, Pred};
use tman_expr::{Env, Scalar};
use tman_lang::{ColumnDef, Expr, SelectCols, SqlStmt};
use tman_storage::RecordId;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// DDL succeeded.
    Ok,
    /// Rows affected by INSERT/UPDATE/DELETE.
    Affected(usize),
    /// Rows produced by SELECT.
    Rows(Vec<Tuple>),
}

impl ExecResult {
    /// The row set (empty for non-SELECT).
    pub fn rows(self) -> Vec<Tuple> {
        match self {
            ExecResult::Rows(r) => r,
            _ => Vec::new(),
        }
    }

    /// The affected-row count (0 for DDL/SELECT).
    pub fn affected(&self) -> usize {
        match self {
            ExecResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// One row-level change made by a statement — what the paper's Informix
/// update-capture triggers observe. `op` mirrors the token operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    /// Table the change happened on.
    pub table: String,
    /// 0 = insert, 1 = delete, 2 = update (token op codes).
    pub op: u8,
    /// Pre-image for delete/update.
    pub old: Option<Tuple>,
    /// Post-image for insert/update.
    pub new: Option<Tuple>,
}

/// Execute one parsed statement.
pub fn execute(db: &Database, stmt: &SqlStmt) -> Result<ExecResult> {
    execute_with_capture(db, stmt, &mut |_| {})
}

/// Execute one parsed statement, reporting every row-level change to
/// `capture` (the update-capture path of the TriggerMan architecture, §3).
pub fn execute_with_capture(
    db: &Database,
    stmt: &SqlStmt,
    capture: &mut dyn FnMut(RowChange),
) -> Result<ExecResult> {
    match stmt {
        SqlStmt::CreateTable { name, columns } => {
            db.create_table(name, schema_from_defs(columns)?)?;
            Ok(ExecResult::Ok)
        }
        SqlStmt::DropTable(name) => {
            db.drop_table(name)?;
            Ok(ExecResult::Ok)
        }
        SqlStmt::CreateIndex {
            name,
            table,
            columns,
        } => {
            db.create_index(name, table, columns)?;
            Ok(ExecResult::Ok)
        }
        SqlStmt::Insert { table, values } => {
            let t = db.table(table)?;
            let ctx = BindCtx::new(vec![]);
            let env = Env::default();
            let vals: Vec<Value> = values
                .iter()
                .map(|e| ctx.scalar(e)?.eval(&env))
                .collect::<Result<_>>()?;
            let rid = t.insert(vals)?;
            capture(RowChange {
                table: t.name().to_string(),
                op: 0,
                old: None,
                new: Some(t.get(rid)?),
            });
            Ok(ExecResult::Affected(1))
        }
        SqlStmt::Update {
            table,
            sets,
            filter,
        } => {
            let t = db.table(table)?;
            let ctx = BindCtx::new(vec![(t.name().to_string(), t.schema())]);
            let set_plan: Vec<(usize, Scalar)> = sets
                .iter()
                .map(|(col, e)| {
                    let idx = t
                        .schema()
                        .index_of(col)
                        .ok_or_else(|| TmanError::Invalid(format!("no column '{col}'")))?;
                    Ok((idx, ctx.scalar(e)?))
                })
                .collect::<Result<_>>()?;
            let matches = find_matching(&t, &ctx, filter.as_ref())?;
            let n = matches.len();
            for (rid, row) in matches {
                let bind = Some(&row);
                let env = Env {
                    tuples: std::slice::from_ref(&bind),
                    consts: &[],
                };
                let mut new_vals: Vec<Value> = row.values().to_vec();
                for (col, s) in &set_plan {
                    new_vals[*col] = s.eval(&env)?;
                }
                let (old, new_rid) = t.update(rid, new_vals)?;
                capture(RowChange {
                    table: t.name().to_string(),
                    op: 2,
                    old: Some(old),
                    new: Some(t.get(new_rid)?),
                });
            }
            Ok(ExecResult::Affected(n))
        }
        SqlStmt::Delete { table, filter } => {
            let t = db.table(table)?;
            let ctx = BindCtx::new(vec![(t.name().to_string(), t.schema())]);
            let matches = find_matching(&t, &ctx, filter.as_ref())?;
            let n = matches.len();
            for (rid, _) in matches {
                let old = t.delete(rid)?;
                capture(RowChange {
                    table: t.name().to_string(),
                    op: 1,
                    old: Some(old),
                    new: None,
                });
            }
            Ok(ExecResult::Affected(n))
        }
        SqlStmt::Select {
            cols,
            table,
            filter,
        } => {
            let t = db.table(table)?;
            let ctx = BindCtx::new(vec![(t.name().to_string(), t.schema())]);
            let matches = find_matching(&t, &ctx, filter.as_ref())?;
            let rows = match cols {
                SelectCols::Star => matches.into_iter().map(|(_, r)| r).collect(),
                SelectCols::Exprs(es) => {
                    let scalars: Vec<Scalar> =
                        es.iter().map(|e| ctx.scalar(e)).collect::<Result<_>>()?;
                    matches
                        .into_iter()
                        .map(|(_, row)| {
                            let bind = Some(&row);
                            let env = Env {
                                tuples: std::slice::from_ref(&bind),
                                consts: &[],
                            };
                            Ok(Tuple::new(
                                scalars
                                    .iter()
                                    .map(|s| s.eval(&env))
                                    .collect::<Result<Vec<_>>>()?,
                            ))
                        })
                        .collect::<Result<Vec<_>>>()?
                }
            };
            Ok(ExecResult::Rows(rows))
        }
    }
}

/// Convenience: parse and execute.
pub fn execute_str(db: &Database, sql: &str) -> Result<ExecResult> {
    execute(db, &tman_lang::parse_sql(sql)?)
}

fn schema_from_defs(defs: &[ColumnDef]) -> Result<Schema> {
    Schema::new(
        defs.iter()
            .map(|d| tman_common::Column::new(d.name.clone(), d.ty))
            .collect(),
    )
}

/// Rows satisfying `filter`: equality-prefix index probe when possible,
/// full scan otherwise. The predicate is always re-verified on candidates.
fn find_matching(
    t: &Arc<Table>,
    ctx: &BindCtx<'_>,
    filter: Option<&Expr>,
) -> Result<Vec<(RecordId, Tuple)>> {
    let Some(filter) = filter else {
        return t.scan_all();
    };
    let pred = ctx.pred(filter)?;
    let cnf = to_cnf(&pred)?;

    // Collect `col = <constant>` conjuncts.
    let mut eq_cols: Vec<(usize, Value)> = Vec::new();
    for c in &cnf.conjuncts {
        if c.atoms.len() != 1 || c.atoms[0].negated {
            continue;
        }
        let AtomKind::Cmp {
            op: tman_expr::CmpOp::Eq,
            left,
            right,
        } = &c.atoms[0].kind
        else {
            continue;
        };
        let pair = match (left.as_column(), right.is_constant()) {
            (Some((0, col)), true) => Some((col, right)),
            _ => match (right.as_column(), left.is_constant()) {
                (Some((0, col)), true) => Some((col, left)),
                _ => None,
            },
        };
        if let Some((col, konst)) = pair {
            let v = konst.eval(&Env::default())?;
            if !eq_cols.iter().any(|(c2, _)| *c2 == col) {
                eq_cols.push((col, v));
            }
        }
    }

    // Best index = longest equality-covered prefix.
    let mut best: Option<(Arc<crate::Index>, Vec<Value>)> = None;
    for idx in t.indexes() {
        let mut key = Vec::new();
        for c in idx.cols() {
            match eq_cols.iter().find(|(col, _)| col == c) {
                Some((_, v)) => key.push(v.clone()),
                None => break,
            }
        }
        if !key.is_empty() && best.as_ref().map(|(_, k)| k.len()).unwrap_or(0) < key.len() {
            best = Some((idx, key));
        }
    }

    let candidates = match &best {
        Some((idx, key)) => t.index_prefix_lookup(idx, key)?,
        None => t.scan_all()?,
    };
    let mut out = Vec::new();
    for (rid, row) in candidates {
        let bind = Some(&row);
        let env = Env {
            tuples: std::slice::from_ref(&bind),
            consts: &[],
        };
        if pred_matches(&pred, &env)? {
            out.push((rid, row));
        }
    }
    Ok(out)
}

fn pred_matches(p: &Pred, env: &Env<'_>) -> Result<bool> {
    p.matches(env)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_emps() -> Database {
        let db = Database::open_memory(128);
        execute_str(
            &db,
            "create table emp (name varchar(32), salary float, dept int)",
        )
        .unwrap();
        for (n, s, d) in [
            ("Bob", 80000.0, 7),
            ("Alice", 90000.0, 7),
            ("Eve", 50000.0, 3),
            ("Fred", 60000.0, 3),
        ] {
            execute_str(&db, &format!("insert into emp values ('{n}', {s}, {d})")).unwrap();
        }
        db
    }

    #[test]
    fn select_with_filter_and_projection() {
        let db = db_with_emps();
        let rows = execute_str(&db, "select name from emp where salary > 70000")
            .unwrap()
            .rows();
        let mut names: Vec<String> = rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Alice", "Bob"]);
        // Star select.
        let rows = execute_str(&db, "select * from emp where dept = 3")
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].arity(), 3);
    }

    #[test]
    fn paper_action_update_fred_to_bobs_salary() {
        // The SQL inside the updateFred trigger action, post macro
        // substitution of :NEW.emp.salary with 95000.
        let db = db_with_emps();
        let n = execute_str(&db, "update emp set salary = 95000 where emp.name = 'Fred'")
            .unwrap()
            .affected();
        assert_eq!(n, 1);
        let rows = execute_str(&db, "select salary from emp where name = 'Fred'")
            .unwrap()
            .rows();
        assert_eq!(rows[0].get(0), &Value::Float(95000.0));
    }

    #[test]
    fn update_expression_references_row() {
        let db = db_with_emps();
        execute_str(&db, "update emp set salary = salary * 2 where dept = 3").unwrap();
        let rows = execute_str(&db, "select salary from emp where name = 'Eve'")
            .unwrap()
            .rows();
        assert_eq!(rows[0].get(0), &Value::Float(100000.0));
    }

    #[test]
    fn delete_with_and_without_filter() {
        let db = db_with_emps();
        assert_eq!(
            execute_str(&db, "delete from emp where dept = 7")
                .unwrap()
                .affected(),
            2
        );
        assert_eq!(execute_str(&db, "delete from emp").unwrap().affected(), 2);
        assert!(execute_str(&db, "select * from emp")
            .unwrap()
            .rows()
            .is_empty());
    }

    #[test]
    fn index_is_used_for_equality() {
        let db = db_with_emps();
        execute_str(&db, "create index emp_dept on emp (dept)").unwrap();
        let t = db.table("emp").unwrap();
        let scans_before = t.stats().rows_scanned.get();
        let rows = execute_str(&db, "select * from emp where dept = 7 and salary > 0")
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(t.stats().index_probes.get(), 1);
        assert_eq!(t.stats().rows_scanned.get(), scans_before, "no full scan");
    }

    #[test]
    fn composite_index_prefix_match() {
        let db = Database::open_memory(128);
        execute_str(&db, "create table c (sig int, c1 int, c2 varchar(8))").unwrap();
        execute_str(&db, "create index c_key on c (c1, c2)").unwrap();
        for i in 0..50 {
            execute_str(
                &db,
                &format!("insert into c values ({i}, {}, 'v{}')", i % 5, i % 3),
            )
            .unwrap();
        }
        // Full-key probe.
        let rows = execute_str(&db, "select * from c where c1 = 2 and c2 = 'v1'")
            .unwrap()
            .rows();
        assert!(rows.iter().all(|r| r.get(1) == &Value::Int(2)));
        // Prefix probe (only c1 bound) still uses the index.
        let t = db.table("c").unwrap();
        let probes = t.stats().index_probes.get();
        let rows = execute_str(&db, "select * from c where c1 = 2")
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(t.stats().index_probes.get(), probes + 1);
    }

    #[test]
    fn insert_values_may_be_expressions() {
        let db = db_with_emps();
        execute_str(&db, "insert into emp values ('Zed', 1000 * 55, 2 + 3)").unwrap();
        let rows = execute_str(&db, "select salary, dept from emp where name = 'Zed'")
            .unwrap()
            .rows();
        assert_eq!(rows[0].get(0), &Value::Float(55000.0));
        assert_eq!(rows[0].get(1), &Value::Int(5));
    }

    #[test]
    fn errors_surface() {
        let db = db_with_emps();
        assert!(execute_str(&db, "select * from nosuch").is_err());
        assert!(execute_str(&db, "insert into emp values (1)").is_err());
        assert!(execute_str(&db, "update emp set bogus = 1").is_err());
        assert!(execute_str(&db, "select * from emp where name > 5").is_err());
    }

    #[test]
    fn null_semantics_in_filters() {
        let db = db_with_emps();
        execute_str(&db, "insert into emp values (null, 10000, 1)").unwrap();
        // NULL name doesn't match equality either way.
        assert_eq!(
            execute_str(&db, "delete from emp where name = 'Bob' or name <> 'Bob'")
                .unwrap()
                .affected(),
            4
        );
        let rows = execute_str(&db, "select * from emp where name is null")
            .unwrap()
            .rows();
        assert_eq!(rows.len(), 1);
    }
}
