//! Rule-action execution (§2, §5.4 "if the trigger condition is satisfied,
//! the trigger action is executed").
//!
//! "Values matching the trigger condition are substituted into the trigger
//! action using macro substitution. After substitution, the trigger action
//! is evaluated. This procedure binds the rule condition to the rule
//! action."

use crate::compile::{CompiledAction, CompiledTrigger};
use crate::events::{EventNotification, Outbox};
use crate::metrics::{ACTION_EXEC_SQL, ACTION_NOTIFY, ACTION_RAISE_EVENT};
use crate::TriggerMan;
use std::sync::{Arc, OnceLock};
use tman_common::{Result, TmanError, TokenOp, Tuple, UpdateDescriptor, Value};
use tman_expr::Env;
use tman_lang::{Expr, Literal, SelectCols, SqlStmt};
use tman_telemetry::SpanKind;

/// Execute one action for one condition match.
///
/// `bindings` holds the matched tuple per variable; the token supplies the
/// `:OLD` image of the event variable for update/delete events.
/// `parent_span` links the `Action` span into the token's trace — it is
/// the span id of the probe that produced the firing.
///
/// An `execSQL` statement runs here and now, under its own clock pair
/// (`tman_action_ns`). `raise event` and `notify` *build* their
/// notification here and leave it in `outbox`: the drain pass that owns the
/// outbox delivers it, and times the delivery, with the rest of its run
/// (`TriggerMan::replay`, invariant 6).
pub(crate) fn run_action(
    system: &TriggerMan,
    trigger: &CompiledTrigger,
    bindings: &[Tuple],
    token: &UpdateDescriptor,
    parent_span: u32,
    outbox: &mut Outbox,
) -> Result<()> {
    let mut span = token.trace.span(SpanKind::Action, parent_span);
    span.set_args(trigger.id.raw(), 0);
    let old_of_event_var = match token.op {
        TokenOp::Update | TokenOp::Delete => token.old.as_ref(),
        TokenOp::Insert => None,
    };
    let (key, event, values, message) = match &trigger.action {
        CompiledAction::ExecSql(stmt) => {
            system.telemetry.actions_by_kind[ACTION_EXEC_SQL].bump();
            let _latency = system.telemetry.action_ns.start();
            return substitute_stmt(stmt, trigger, bindings, old_of_event_var)
                .and_then(|substituted| system.run_stmt(&substituted))
                .map(drop);
        }
        CompiledAction::RaiseEvent { name, key, args } => {
            system.telemetry.actions_by_kind[ACTION_RAISE_EVENT].bump();
            // Action environment: NEW images in slots 0..n, OLD images in
            // slots n..2n (only the event variable has one). On the stack:
            // a trigger has at most 16 variables (`compile_trigger`).
            let n = trigger.vars.len();
            let mut slots: [Option<&Tuple>; 32] = [None; 32];
            for (slot, b) in slots.iter_mut().zip(bindings) {
                *slot = Some(b);
            }
            slots[n + trigger.event_var()] = old_of_event_var;
            let env = Env {
                tuples: &slots[..2 * n],
                consts: &[],
            };
            let values = args
                .iter()
                .map(|a| a.eval(&env))
                .collect::<Result<Vec<_>>>()?;
            (key.clone(), name.clone(), values, None)
        }
        CompiledAction::Notify(template) => {
            system.telemetry.actions_by_kind[ACTION_NOTIFY].bump();
            let msg = substitute_text(template, trigger, bindings, old_of_event_var);
            static NOTIFY: OnceLock<Arc<str>> = OnceLock::new();
            let event = NOTIFY.get_or_init(|| "notify".into());
            (event.clone(), event.clone(), Vec::new(), Some(msg))
        }
    };
    outbox.push(
        key,
        span.id(),
        EventNotification {
            event,
            trigger: trigger.name.clone(),
            values,
            message,
            token_seq: token.origin,
            trace: token.trace.clone(),
            ingest_unix_ns: token.ingest_unix_ns,
        },
    );
    Ok(())
}

/// Resolve a transition reference to a concrete value.
fn transition_value(
    trigger: &CompiledTrigger,
    bindings: &[Tuple],
    old_event: Option<&Tuple>,
    new: bool,
    source: &str,
    column: &str,
) -> Result<Value> {
    let var = trigger
        .vars
        .iter()
        .position(|v| {
            v.name().eq_ignore_ascii_case(source) || v.source.name.eq_ignore_ascii_case(source)
        })
        .ok_or_else(|| TmanError::Invalid(format!("unknown source '{source}' in action")))?;
    let col = trigger.vars[var]
        .source
        .schema
        .index_of(column)
        .ok_or_else(|| TmanError::Invalid(format!("no column '{column}' in '{source}'")))?;
    let tuple = if new {
        &bindings[var]
    } else if var == trigger.event_var() {
        match old_event {
            Some(t) => t,
            // :OLD on an insert event: fall back to the new image, which is
            // the only image that exists.
            None => &bindings[var],
        }
    } else {
        // Non-event variables were not updated by this token; OLD == NEW.
        &bindings[var]
    };
    Ok(tuple.get(col).clone())
}

fn value_to_literal(v: Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Float(f) => Literal::Float(f),
        Value::Str(s) => Literal::Str(s),
    }
}

fn substitute_expr(
    e: &Expr,
    trigger: &CompiledTrigger,
    bindings: &[Tuple],
    old_event: Option<&Tuple>,
) -> Result<Expr> {
    Ok(match e {
        Expr::Transition {
            new,
            source,
            column,
        } => Expr::Literal(value_to_literal(transition_value(
            trigger, bindings, old_event, *new, source, column,
        )?)),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_expr(expr, trigger, bindings, old_event)?),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute_expr(left, trigger, bindings, old_event)?),
            right: Box::new(substitute_expr(right, trigger, bindings, old_event)?),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| substitute_expr(a, trigger, bindings, old_event))
                .collect::<Result<_>>()?,
        },
        other => other.clone(),
    })
}

/// Macro-substitute `:NEW`/`:OLD` references in an `execSQL` statement
/// template, producing a runnable statement.
pub(crate) fn substitute_stmt(
    stmt: &SqlStmt,
    trigger: &CompiledTrigger,
    bindings: &[Tuple],
    old_event: Option<&Tuple>,
) -> Result<SqlStmt> {
    let sub = |e: &Expr| substitute_expr(e, trigger, bindings, old_event);
    Ok(match stmt {
        SqlStmt::Insert { table, values } => SqlStmt::Insert {
            table: table.clone(),
            values: values.iter().map(sub).collect::<Result<_>>()?,
        },
        SqlStmt::Update {
            table,
            sets,
            filter,
        } => SqlStmt::Update {
            table: table.clone(),
            sets: sets
                .iter()
                .map(|(c, e)| Ok((c.clone(), sub(e)?)))
                .collect::<Result<_>>()?,
            filter: filter.as_ref().map(&sub).transpose()?,
        },
        SqlStmt::Delete { table, filter } => SqlStmt::Delete {
            table: table.clone(),
            filter: filter.as_ref().map(&sub).transpose()?,
        },
        SqlStmt::Select {
            cols,
            table,
            filter,
        } => SqlStmt::Select {
            cols: match cols {
                SelectCols::Star => SelectCols::Star,
                SelectCols::Exprs(es) => {
                    SelectCols::Exprs(es.iter().map(sub).collect::<Result<_>>()?)
                }
            },
            table: table.clone(),
            filter: filter.as_ref().map(&sub).transpose()?,
        },
        ddl => ddl.clone(),
    })
}

fn value_to_plain(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Textual `:NEW.src.col` / `:OLD.src.col` substitution for `notify`
/// message templates.
pub(crate) fn substitute_text(
    template: &str,
    trigger: &CompiledTrigger,
    bindings: &[Tuple],
    old_event: Option<&Tuple>,
) -> String {
    let mut out = template.to_string();
    for var in trigger.vars.iter() {
        for col in var.source.schema.columns() {
            for (tag, new) in [(":NEW", true), (":OLD", false)] {
                let pattern = format!("{tag}.{}.{}", var.name(), col.name);
                if out.contains(&pattern) {
                    let val =
                        transition_value(trigger, bindings, old_event, new, var.name(), &col.name)
                            .map(|v| value_to_plain(&v))
                            .unwrap_or_else(|_| "?".into());
                    out = out.replace(&pattern, &val);
                }
            }
        }
    }
    out
}
