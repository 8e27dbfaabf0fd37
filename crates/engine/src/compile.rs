//! Trigger compilation: §5.1 steps 1–4.
//!
//! Parsing and validation, CNF conversion, conjunct grouping into the
//! trigger condition graph, A-TREAT network construction, and extraction of
//! one selection-predicate registration per tuple variable (step 5 — the
//! actual predicate-index insertion — is performed by the system, which
//! owns expression ids).

use crate::source::SourceInfo;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use tman_common::{EventKind, Result, TmanError, TriggerId, TriggerSetId, Value};
use tman_expr::cnf::{remap_var, to_cnf, Cnf, ConditionGraph};
use tman_expr::scalar::Scalar;
use tman_expr::signature::analyze_selection;
use tman_expr::{BindCtx, SelectionSignature};
use tman_lang::ast::{Action, CreateTrigger, EventSpecKind, WindowSpec};
use tman_lang::SqlStmt;
use tman_network::{Network, NetworkKind};

/// One tuple variable of a compiled trigger.
pub struct VarBinding {
    /// The tuple-variable name (`from salesperson s` → `s`).
    pub name: String,
    /// The data source it ranges over.
    pub source: Arc<SourceInfo>,
}

/// A compiled rule action.
pub enum CompiledAction {
    /// `execSQL` — statement template with `:NEW`/`:OLD` transition
    /// references still embedded; substituted per firing.
    ExecSql(SqlStmt),
    /// `raise event` — name plus argument scalars resolved against the
    /// action environment (`num_vars` NEW slots then `num_vars` OLD slots).
    RaiseEvent {
        /// Event name, shared into every notification the action raises.
        name: Arc<str>,
        /// `name` lower-cased once: the event bus's routing key.
        key: Arc<str>,
        /// Argument expressions.
        args: Vec<Scalar>,
    },
    /// `notify` — message template with textual `:NEW.src.col` /
    /// `:OLD.src.col` macro substitution (§2's "macro substitution").
    Notify(String),
}

/// The in-memory trigger description held by the trigger cache: §5.1's
/// "complete descriptions of a set of recently accessed triggers,
/// including the trigger ID and name, references to data sources relevant
/// to the trigger, and the syntax tree and [...] network skeleton".
pub struct CompiledTrigger {
    /// Trigger id.
    pub id: TriggerId,
    /// Trigger name, shared into every notification the trigger raises.
    pub name: Arc<str>,
    /// Owning set.
    pub set: TriggerSetId,
    /// The owning set's enabled flag. [`compile_trigger`] leaves a
    /// detached flag that is always on; the engine swaps in the set's own,
    /// so `disable trigger set` reaches every cached trigger at once.
    pub set_enabled: Arc<AtomicBool>,
    /// Source text (the catalog's `trigger_text`).
    pub text: String,
    /// Tuple variables, in `from` order.
    pub vars: Vec<VarBinding>,
    /// Ordinal of the variable the `on` clause names (0 if none).
    pub event_var: usize,
    /// The `on` event (InsertOrUpdate when no `on` clause).
    pub event: EventKind,
    /// Column ordinals for `update(col,...)` events.
    pub update_col_ords: Vec<usize>,
    /// Whether the trigger had an explicit `on` clause (changes which
    /// variables may run the action).
    pub explicit_event: bool,
    /// The discrimination network.
    pub network: Network,
    /// The action.
    pub action: CompiledAction,
    /// Windowed threshold (`when [pred] count >= K within W`): the action
    /// runs only while at least K matching events arrived inside the
    /// trailing window. Restricted to single-variable triggers.
    pub window: Option<WindowSpec>,
    /// In-memory enabled flag (mirrors the catalog's isEnabled).
    pub enabled: AtomicBool,
}

/// A selection predicate to register in the predicate index (one per
/// tuple variable; step 5 of §5.1).
pub struct PredicateReg {
    /// Which variable this predicate guards.
    pub var: usize,
    /// The variable's data source.
    pub source: Arc<SourceInfo>,
    /// The analyzed signature.
    pub sig: SelectionSignature,
    /// The constant vector for the constant table.
    pub consts: Vec<Value>,
    /// The concrete (pre-generalization) selection CNF the signature was
    /// analyzed from. The system needs it to re-analyze per-disjunct
    /// branches for tagged execution (it, not the compiler, owns the
    /// indexing policy).
    pub canon: Cnf,
}

/// Output of compilation.
pub struct Compiled {
    /// The trigger description.
    pub trigger: CompiledTrigger,
    /// Predicate registrations for the index.
    pub predicates: Vec<PredicateReg>,
}

/// Compile a parsed `create trigger` statement.
///
/// `resolve_source` maps a data-source name to its [`SourceInfo`].
pub fn compile_trigger(
    stmt: &CreateTrigger,
    id: TriggerId,
    set: TriggerSetId,
    text: &str,
    network_kind: NetworkKind,
    resolve_source: &dyn Fn(&str) -> Result<Arc<SourceInfo>>,
) -> Result<Compiled> {
    // Step 1: validation.
    if stmt.from.is_empty() {
        return Err(TmanError::Invalid(format!(
            "trigger '{}' needs a from clause",
            stmt.name
        )));
    }
    if stmt.from.len() > 16 {
        return Err(TmanError::Unsupported(
            "more than 16 tuple variables per trigger".into(),
        ));
    }
    if !stmt.group_by.is_empty() || stmt.having.is_some() {
        return Err(TmanError::Unsupported(
            "group by / having trigger conditions (temporal & aggregate \
             processing is the paper's future work, §9)"
                .into(),
        ));
    }
    if let Some(w) = &stmt.window {
        if stmt.from.len() != 1 {
            return Err(TmanError::Unsupported(
                "windowed thresholds (count >= K within W) require exactly \
                 one tuple variable"
                    .into(),
            ));
        }
        if w.count == 0 || w.within_ns == 0 {
            return Err(TmanError::Invalid(
                "windowed threshold needs count >= 1 and a positive window".into(),
            ));
        }
    }
    let mut vars = Vec::with_capacity(stmt.from.len());
    for item in &stmt.from {
        let source = resolve_source(&item.source)?;
        let name = item.var_name().to_string();
        if vars
            .iter()
            .any(|v: &VarBinding| v.name.eq_ignore_ascii_case(&name))
        {
            return Err(TmanError::Invalid(format!(
                "duplicate tuple variable '{name}'"
            )));
        }
        vars.push(VarBinding { name, source });
    }

    // Event clause.
    let (event_var, event, update_col_ords) = match &stmt.on {
        None => (0, EventKind::InsertOrUpdate, Vec::new()),
        Some(spec) => {
            let var = vars
                .iter()
                .position(|v| {
                    v.name.eq_ignore_ascii_case(&spec.target)
                        || v.source.name.eq_ignore_ascii_case(&spec.target)
                })
                .ok_or_else(|| {
                    TmanError::Invalid(format!(
                        "on-clause target '{}' is not in the from list",
                        spec.target
                    ))
                })?;
            let (kind, ords) = match &spec.kind {
                EventSpecKind::Insert => (EventKind::Insert, Vec::new()),
                EventSpecKind::Delete => (EventKind::Delete, Vec::new()),
                EventSpecKind::Update(cols) => {
                    let schema = &vars[var].source.schema;
                    let ords = cols
                        .iter()
                        .map(|c| {
                            schema.index_of(c).ok_or_else(|| {
                                TmanError::Invalid(format!(
                                    "no column '{c}' in '{}'",
                                    vars[var].source.name
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    (EventKind::Update(cols.clone()), ords)
                }
            };
            (var, kind, ords)
        }
    };

    // Step 2: when-clause → CNF.
    let schemas: Vec<(String, &tman_common::Schema)> = vars
        .iter()
        .map(|v| (v.name.clone(), &v.source.schema))
        .collect();
    let ctx = BindCtx::new(schemas);
    let cnf = match &stmt.when {
        None => Cnf::truth(),
        Some(e) => to_cnf(&ctx.pred(e)?)?,
    };

    // Step 3: condition graph.
    let graph = ConditionGraph::build(cnf, vars.len());

    // Step 5-prep: per-variable selection predicate analysis (the actual
    // index insertion happens in the system, which assigns exprIDs).
    let stored_memories = vars.len() > 1
        && matches!(
            network_kind,
            NetworkKind::Treat | NetworkKind::Rete | NetworkKind::Gator
        );
    let mut predicates = Vec::new();
    for (v, binding) in vars.iter().enumerate() {
        // Per-variable event for index registration (see DESIGN.md):
        //  * the on-clause variable gets the on event,
        //  * other variables get insertOrUpdate (implicit event, §5) —
        //    except that stored-memory networks additionally need deletes
        //    for memory maintenance, so every variable is registered with
        //    the catch-all `any` opcode and event filtering moves to
        //    action time.
        let reg_event = if stored_memories {
            EventKind::Any
        } else if v == event_var && stmt.on.is_some() {
            event.clone()
        } else if stmt.on.is_some() && vars.len() > 1 {
            // A-TREAT: tokens on non-event variables of an explicit-event
            // trigger neither fire actions nor maintain memories; skip
            // registration entirely.
            continue;
        } else {
            EventKind::InsertOrUpdate
        };
        let reg_update_cols = if v == event_var && !stored_memories {
            update_col_ords.clone()
        } else {
            Vec::new()
        };
        let canon = remap_var(&graph.selections[v], v, 0, &binding.source.name);
        let (sig, consts) =
            analyze_selection(&canon, binding.source.id, reg_event, reg_update_cols);
        predicates.push(PredicateReg {
            var: v,
            source: binding.source.clone(),
            sig,
            consts,
            canon,
        });
    }

    // Step 4: build the network.
    let var_sources = vars.iter().map(|v| v.source.id).collect();
    let network = Network::build(network_kind, graph, var_sources, event_var)?;

    // Action compilation.
    let action = compile_action(&stmt.action, &vars)?;

    Ok(Compiled {
        trigger: CompiledTrigger {
            id,
            name: stmt.name.as_str().into(),
            set,
            set_enabled: Arc::new(AtomicBool::new(true)),
            text: text.to_string(),
            vars,
            event_var,
            event,
            update_col_ords,
            explicit_event: stmt.on.is_some(),
            network,
            action,
            window: stmt.window.clone(),
            enabled: AtomicBool::new(true),
        },
        predicates,
    })
}

fn compile_action(action: &Action, vars: &[VarBinding]) -> Result<CompiledAction> {
    match action {
        Action::ExecSql(text) => {
            let stmt = tman_lang::parse_sql(text)?;
            // Validate transition references now (against the trigger's
            // variables) so errors surface at create-trigger time; keep the
            // template for per-firing substitution.
            validate_transitions(&stmt, vars)?;
            Ok(CompiledAction::ExecSql(stmt))
        }
        Action::RaiseEvent { name, args } => {
            let schemas: Vec<(String, &tman_common::Schema)> = vars
                .iter()
                .map(|v| (v.name.clone(), &v.source.schema))
                .collect();
            let ctx = BindCtx::for_actions(schemas);
            let args = args
                .iter()
                .map(|a| ctx.scalar(a))
                .collect::<Result<Vec<_>>>()?;
            Ok(CompiledAction::RaiseEvent {
                name: name.as_str().into(),
                key: name.to_lowercase().into(),
                args,
            })
        }
        Action::Notify(msg) => Ok(CompiledAction::Notify(msg.clone())),
    }
}

fn validate_transitions(stmt: &SqlStmt, vars: &[VarBinding]) -> Result<()> {
    use tman_lang::ast::Expr;
    fn walk(e: &Expr, vars: &[VarBinding]) -> Result<()> {
        match e {
            Expr::Transition { source, column, .. } => {
                let var = vars
                    .iter()
                    .find(|v| {
                        v.name.eq_ignore_ascii_case(source)
                            || v.source.name.eq_ignore_ascii_case(source)
                    })
                    .ok_or_else(|| {
                        TmanError::Invalid(format!(
                            "transition reference to unknown source '{source}'"
                        ))
                    })?;
                var.source.schema.index_of(column).ok_or_else(|| {
                    TmanError::Invalid(format!("no column '{column}' in '{}'", var.source.name))
                })?;
                Ok(())
            }
            Expr::Unary { expr, .. } => walk(expr, vars),
            Expr::Binary { left, right, .. } => {
                walk(left, vars)?;
                walk(right, vars)
            }
            Expr::Call { args, .. } => {
                for a in args {
                    walk(a, vars)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
    let check = |exprs: &mut dyn Iterator<Item = &Expr>| -> Result<()> {
        for e in exprs {
            walk(e, vars)?;
        }
        Ok(())
    };
    match stmt {
        SqlStmt::Insert { values, .. } => check(&mut values.iter()),
        SqlStmt::Update { sets, filter, .. } => {
            check(&mut sets.iter().map(|(_, e)| e))?;
            check(&mut filter.iter())
        }
        SqlStmt::Delete { filter, .. } => check(&mut filter.iter()),
        SqlStmt::Select { filter, .. } => check(&mut filter.iter()),
        _ => Ok(()),
    }
}

impl CompiledTrigger {
    /// Is `var` allowed to run the action for `op` (as opposed to pure
    /// memory maintenance)?
    pub fn runs_action(&self, var: usize, token: &tman_common::UpdateDescriptor) -> bool {
        if self.explicit_event {
            var == self.event_var
                && self.event.accepts(token.op)
                && token.touches_columns(&self.update_col_ords)
        } else {
            // Implicit insert-or-update on every variable.
            EventKind::InsertOrUpdate.accepts(token.op)
        }
    }
}
