//! Trigger compilation: §5.1 steps 1–4.
//!
//! Parsing and validation, CNF conversion, conjunct grouping into the
//! trigger condition graph, A-TREAT network construction for joins, and
//! extraction of one selection-predicate registration per tuple variable
//! (step 5 — the actual predicate-index insertion — is performed by the
//! system, which owns expression ids).
//!
//! A [`CompiledTrigger`] is what the trigger cache holds, and it holds only
//! what the fire path reads (`handle_match`, [`CompiledTrigger::runs_action`]
//! and `action::run_action`): no source text (the catalog row keeps
//! it), no network for a one-variable trigger (the predicate index tested
//! its selection; what is left is a list of conjuncts over no variable,
//! nearly always empty), no window (registration reads it from
//! [`Compiled`]), no routing key (the event bus lower-cases an event name
//! once a stretch), and the rare parts — an `on` clause, an `execSQL`
//! statement, an argument that is not a column — behind a box each. The
//! variable list and a `raise event`'s arguments are [`SmallSlice`]s and
//! the trigger's and the event's names are [`Name`]s, inline up to 22
//! bytes, so a one-variable `raise event` trigger with one column argument
//! is one heap block: the description. DESIGN.md's decision records "A
//! cached trigger is what its fire path reads", "A description is three
//! blocks" and "Names are inline; trigger state is paged by id" have the
//! sizes.

use crate::catalog::MAX_WINDOW_COUNT;
use crate::source::SourceInfo;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use tman_common::{EventKind, Name, Result, SmallSlice, TmanError, TriggerId, TriggerSetId, Tuple};
use tman_expr::cnf::{remap_var, to_cnf, Cnf, ConditionGraph, Conjunct};
use tman_expr::BindCtx;
use tman_expr::{Env, Scalar};
use tman_lang::{Action, CreateTrigger, EventSpecKind, SqlStmt, WindowSpec};
use tman_network::{Network, NetworkKind};

/// One tuple variable of a compiled trigger.
pub struct VarBinding {
    /// The data source it ranges over.
    pub source: Arc<SourceInfo>,
    /// The variable's name where it is not the source's own
    /// (`from salesperson s` → `s`; `from q` → none).
    alias: Option<Box<str>>,
}

impl VarBinding {
    /// The tuple-variable name.
    pub fn name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.source.name)
    }
}

/// A compiled rule action.
pub enum CompiledAction {
    /// `execSQL` — statement template with `:NEW`/`:OLD` transition
    /// references still embedded; substituted per firing.
    ExecSql(Box<SqlStmt>),
    /// `raise event` — name plus arguments read from the action
    /// environment (`num_vars` NEW slots then `num_vars` OLD slots).
    RaiseEvent {
        /// Event name, copied into every notification the action raises.
        name: Name,
        /// Arguments, in order.
        args: SmallSlice<ActionArg>,
    },
    /// `notify` — message template with textual `:NEW.src.col` /
    /// `:OLD.src.col` macro substitution (§2's "macro substitution").
    Notify(Box<str>),
}

/// One `raise event` argument.
pub enum ActionArg {
    /// A column of one slot of the action environment, read straight from
    /// the tuple bound there: the argument nearly every trigger has.
    Col {
        /// Slot: a variable's NEW image, or `num_vars` + its OLD image.
        slot: u32,
        /// Column ordinal within that variable's schema.
        col: u32,
    },
    /// Any other expression, evaluated against the action environment.
    Expr(Box<Scalar>),
}

impl From<Scalar> for ActionArg {
    fn from(arg: Scalar) -> ActionArg {
        let ordinals = arg
            .as_column()
            .and_then(|(slot, col)| Some((u32::try_from(slot).ok()?, u32::try_from(col).ok()?)));
        match ordinals {
            Some((slot, col)) => ActionArg::Col { slot, col },
            None => ActionArg::Expr(Box::new(arg)),
        }
    }
}

/// A trigger's `on` clause. Without one, every variable's insert or update
/// runs the action.
pub struct OnClause {
    /// Ordinal of the variable the clause names.
    pub var: usize,
    /// The event.
    pub event: EventKind,
    /// Column ordinals of an `update(col, ...)` event.
    pub update_col_ords: Vec<usize>,
}

/// What is left to test once the predicate index has matched one of a
/// trigger's variables.
pub enum Condition {
    /// A one-variable trigger. The index tested its selection; these are
    /// the conjuncts over no variable (§5.1's trivial conjuncts), tested on
    /// the token's tuple — empty for nearly every trigger, which then fires
    /// on the match alone.
    Selection(Box<[Conjunct]>),
    /// A join: the discrimination network.
    Join(Box<Network>),
}

/// The in-memory trigger description held by the trigger cache: §5.1's
/// "complete descriptions of a set of recently accessed triggers,
/// including the trigger ID and name, references to data sources relevant
/// to the trigger, and the syntax tree and [...] network skeleton" — the
/// parts of them a fire reads.
pub struct CompiledTrigger {
    /// Trigger id.
    pub id: TriggerId,
    /// Trigger name, copied into every notification the trigger raises.
    pub name: Name,
    /// The owning set's enabled flag. [`compile_trigger`] leaves a
    /// detached flag that is always on; the engine swaps in the set's own,
    /// so `disable trigger set` reaches every cached trigger at once.
    pub set_enabled: Arc<AtomicBool>,
    /// In-memory enabled flag (mirrors the catalog's isEnabled).
    pub enabled: AtomicBool,
    /// Tuple variables, in `from` order.
    pub vars: SmallSlice<VarBinding>,
    /// The `on` clause, if the trigger has one.
    pub on: Option<Box<OnClause>>,
    /// What a match still has to pass.
    pub condition: Condition,
    /// The action.
    pub action: CompiledAction,
    /// The trigger cache's clock mark: set by a hit, cleared by the hand
    /// (see [`crate::cache`]).
    pub(crate) referenced: AtomicBool,
}

/// A selection predicate to register in the predicate index (one per
/// tuple variable; step 5 of §5.1). The system, not the compiler,
/// generalizes and analyzes it: it owns the indexing policy (tagged
/// execution splits a disjunction into branches), and only a predicate
/// that founds a new equivalence class needs a signature of its own.
pub struct PredicateReg {
    /// Which variable this predicate guards.
    pub var: usize,
    /// The variable's data source.
    pub source: Arc<SourceInfo>,
    /// The operation code it is registered under.
    pub event: EventKind,
    /// Column ordinals of an `update(col, ...)` event (empty = any column).
    pub update_cols: Vec<usize>,
    /// The concrete (pre-generalization) selection CNF, canonicalized
    /// onto variable 0 (see [`remap_var`]).
    pub canon: Cnf,
}

/// Output of compilation.
pub struct Compiled {
    /// The trigger description.
    pub trigger: CompiledTrigger,
    /// Predicate registrations for the index.
    pub predicates: Vec<PredicateReg>,
    /// Windowed threshold (`when [pred] count >= K within W`): the action
    /// runs only while at least K matching events arrived inside the
    /// trailing window. Restricted to single-variable triggers. Not part of
    /// the description: registration reads it once, and the drain reads the
    /// window's state, which outlives cache residency.
    pub window: Option<WindowSpec>,
}

/// Compile a parsed `create trigger` statement.
///
/// `resolve_source` maps a data-source name to its [`SourceInfo`]. The
/// set and the statement's text are not kept: the catalog row holds them,
/// and the engine gives the description its set's enabled flag.
pub fn compile_trigger(
    stmt: &CreateTrigger,
    id: TriggerId,
    _set: TriggerSetId,
    _text: &str,
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
        if w.count > MAX_WINDOW_COUNT {
            return Err(TmanError::Invalid(format!(
                "windowed threshold count {} is above MAX_WINDOW_COUNT = {MAX_WINDOW_COUNT} \
                 (a full window is one catalog row)",
                w.count
            )));
        }
    }
    let mut vars = Vec::with_capacity(stmt.from.len());
    for item in &stmt.from {
        let source = resolve_source(&item.source)?;
        let name = item.var_name();
        if vars
            .iter()
            .any(|v: &VarBinding| v.name().eq_ignore_ascii_case(name))
        {
            return Err(TmanError::Invalid(format!(
                "duplicate tuple variable '{name}'"
            )));
        }
        let alias = (name != source.name).then(|| name.into());
        vars.push(VarBinding { source, alias });
    }

    // Event clause.
    let on = match &stmt.on {
        None => None,
        Some(spec) => {
            let var = vars
                .iter()
                .position(|v| {
                    v.name().eq_ignore_ascii_case(&spec.target)
                        || v.source.name.eq_ignore_ascii_case(&spec.target)
                })
                .ok_or_else(|| {
                    TmanError::Invalid(format!(
                        "on-clause target '{}' is not in the from list",
                        spec.target
                    ))
                })?;
            let (event, update_col_ords) = match &spec.kind {
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
            Some(Box::new(OnClause {
                var,
                event,
                update_col_ords,
            }))
        }
    };
    let event_var = on.as_ref().map_or(0, |on| on.var);

    // Step 2: when-clause → CNF.
    let schemas: Vec<(String, &tman_common::Schema)> = vars
        .iter()
        .map(|v| (v.name().to_string(), &v.source.schema))
        .collect();
    let ctx = BindCtx::new(schemas);
    let cnf = match &stmt.when {
        None => Cnf::truth(),
        Some(e) => to_cnf(&ctx.pred(e)?)?,
    };

    // Step 3: condition graph.
    let mut graph = ConditionGraph::build(cnf, vars.len());

    // Step 5-prep: per-variable selection predicate analysis (the actual
    // index insertion happens in the system, which assigns exprIDs).
    let stored_memories = vars.len() > 1 && network_kind.stores_memories();
    let mut predicates = Vec::new();
    for (v, binding) in vars.iter().enumerate() {
        // Per-variable event for index registration (see DESIGN.md):
        //  * the on-clause variable gets the on event,
        //  * other variables get insertOrUpdate (implicit event, §5) —
        //    except that stored-memory networks additionally need deletes
        //    for memory maintenance, so every variable is registered with
        //    the catch-all `any` opcode and event filtering moves to
        //    action time.
        let (reg_event, reg_update_cols) = match &on {
            _ if stored_memories => (EventKind::Any, Vec::new()),
            Some(on) if v == on.var => (on.event.clone(), on.update_col_ords.clone()),
            // A-TREAT: tokens on non-event variables of an explicit-event
            // trigger neither fire actions nor maintain memories; skip
            // registration entirely.
            Some(_) if vars.len() > 1 => continue,
            _ => (EventKind::InsertOrUpdate, Vec::new()),
        };
        let canon = if v == 0 && binding.alias.is_none() {
            // `BindCtx` names a column `<variable>.<column>`, and this
            // variable's name is its source's: `remap_var` would copy it
            // unchanged.
            match vars.len() {
                // A one-variable trigger's network is no network.
                1 => std::mem::take(&mut graph.selections[0]),
                _ => graph.selections[0].clone(),
            }
        } else {
            remap_var(&graph.selections[v], v, 0, &binding.source.name)
        };
        predicates.push(PredicateReg {
            var: v,
            source: binding.source.clone(),
            event: reg_event,
            update_cols: reg_update_cols,
            canon,
        });
    }

    // Step 4: a network for a join. A one-variable trigger keeps only its
    // trivial conjuncts: its selection is the index's to test, and a
    // network would hold a second copy of it (and, under TREAT, Rete and
    // Gator, a stored alpha memory nothing reads).
    let condition = if vars.len() == 1 {
        Condition::Selection(std::mem::take(&mut graph.catch_all).into())
    } else {
        let var_sources = vars.iter().map(|v| v.source.id).collect();
        let network = Network::build(network_kind, graph, var_sources, event_var)?;
        Condition::Join(Box::new(network))
    };

    // Action compilation, in the condition's binding context.
    let action = compile_action(&stmt.action, &vars, ctx)?;

    Ok(Compiled {
        trigger: CompiledTrigger {
            id,
            name: stmt.name.as_str().into(),
            set_enabled: Arc::new(AtomicBool::new(true)),
            enabled: AtomicBool::new(true),
            vars: vars.into(),
            on,
            condition,
            action,
            referenced: AtomicBool::new(false),
        },
        predicates,
        window: stmt.window.clone(),
    })
}

fn compile_action(action: &Action, vars: &[VarBinding], ctx: BindCtx) -> Result<CompiledAction> {
    match action {
        Action::ExecSql(text) => {
            let stmt = tman_lang::parse_sql(text)?;
            // Validate transition references now (against the trigger's
            // variables) so errors surface at create-trigger time; keep the
            // template for per-firing substitution.
            validate_transitions(&stmt, vars)?;
            Ok(CompiledAction::ExecSql(Box::new(stmt)))
        }
        Action::RaiseEvent { name, args } => {
            let ctx = ctx.into_actions();
            let args = args
                .iter()
                .map(|a| ctx.scalar(a).map(ActionArg::from))
                .collect::<Result<_>>()?;
            Ok(CompiledAction::RaiseEvent {
                name: name.as_str().into(),
                args,
            })
        }
        Action::Notify(msg) => Ok(CompiledAction::Notify(msg.as_str().into())),
    }
}

fn validate_transitions(stmt: &SqlStmt, vars: &[VarBinding]) -> Result<()> {
    use tman_lang::Expr;
    fn walk(e: &Expr, vars: &[VarBinding]) -> Result<()> {
        match e {
            Expr::Transition { source, column, .. } => {
                let var = vars
                    .iter()
                    .find(|v| {
                        v.name().eq_ignore_ascii_case(source)
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
        match &self.on {
            Some(on) => {
                var == on.var
                    && on.event.accepts(token.op)
                    && token.touches_columns(&on.update_col_ords)
            }
            // Implicit insert-or-update on every variable.
            None => EventKind::InsertOrUpdate.accepts(token.op),
        }
    }

    /// Ordinal of the variable the `on` clause names (0 if none): the one
    /// variable whose token carries an `:OLD` image into the action.
    pub fn event_var(&self) -> usize {
        self.on.as_ref().map_or(0, |on| on.var)
    }

    /// The discrimination network, for a join.
    pub fn network(&self) -> Option<&Network> {
        match &self.condition {
            Condition::Selection(_) => None,
            Condition::Join(network) => Some(network),
        }
    }

    /// Read one byte of each block a fire of this trigger reads — the
    /// description's flags (its variables, a `raise event`'s arguments and
    /// both names up to 22 bytes are inline beside them), a longer name's
    /// buffer and a `notify`'s template — and fold them into the result,
    /// so that a caller who touches a batch of triggers ahead of firing
    /// them has their cache misses overlap
    /// ([`crate::cache::TriggerCache::warm`]). Reads bytes, writes nothing.
    pub(crate) fn touch(&self) -> u64 {
        let first = |s: &[u8]| u64::from(s.first().copied().unwrap_or(0));
        let flags = u64::from(self.enabled.load(std::sync::atomic::Ordering::Relaxed));
        let action = match &self.action {
            CompiledAction::RaiseEvent { name, .. } => first(name.as_bytes()),
            CompiledAction::Notify(template) => first(template.as_bytes()),
            CompiledAction::ExecSql(_) => 0,
        };
        flags + first(self.name.as_bytes()) + action
    }
}

/// Does a match of a one-variable trigger on `tuple` fire? The predicate
/// index has tested the selection; `rest` — [`Condition::Selection`]'s
/// trivial conjuncts — must all hold.
pub(crate) fn rest_holds(rest: &[Conjunct], tuple: &Tuple) -> Result<bool> {
    let env = Env {
        tuples: &[Some(tuple)],
        consts: &[],
    };
    for c in rest {
        if c.eval(&env)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A bare description for unit tests of the cache and its counters: a
/// `notify` trigger over no variable, named `t<id>`.
#[cfg(test)]
pub(crate) fn dummy_trigger(id: u64) -> Arc<CompiledTrigger> {
    Arc::new(CompiledTrigger {
        id: TriggerId(id),
        name: format!("t{id}").into(),
        set_enabled: Arc::new(AtomicBool::new(true)),
        enabled: AtomicBool::new(true),
        vars: SmallSlice::default(),
        on: None,
        condition: Condition::Selection(Box::new([])),
        action: CompiledAction::Notify("x".into()),
        referenced: AtomicBool::new(false),
    })
}
