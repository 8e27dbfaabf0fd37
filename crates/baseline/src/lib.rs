//! `tman-baseline` — the comparators the paper argues against (§8).
//!
//! * [`NaiveEca`] — "Most active database systems follow the
//!   event-condition-action (ECA) model ... testing the condition of every
//!   applicable trigger whenever an update event occurs. The cost of this
//!   is always at least linear in the number of triggers associated with
//!   the relevant event since no predicate indexing is normally used."
//!   It is also the one reference that defines which trigger fires on
//!   which token: every differential oracle in `tests/` compares the
//!   engine (or the predicate index) against it. Its join triggers keep a
//!   row multiset per source they read, updated from the tokens in token
//!   order, and fire by nested loops over it — no network at all.
//! * [`QueryBased`] — the RPL/DIPS approach [Delc88a, Sell88]: "an
//!   approach that runs database queries to test rule conditions as
//!   updates occur. This type of approach has limited scalability due to
//!   the potentially large number of queries that could be generated if
//!   there are many rules." Each token is materialized into a one-row
//!   delta table and every trigger's condition is executed as a fresh SQL
//!   query (parse + bind + execute), which is the cost model of those
//!   systems.
//!
//! Both baselines share trigger definitions with the real engine via the
//! same condition language, so experiment E1 compares *selection-predicate
//! matching strategies* and nothing else.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use tman_common::{
    DataSourceId, EventKind, Result, Schema, TmanError, TriggerId, Tuple, UpdateDescriptor,
};
use tman_expr::cnf::{remap_var, to_cnf, Cnf};
use tman_expr::BindCtx;
use tman_expr::Env;
use tman_lang::parse_expression;
use tman_lang::WindowSpec;
use tman_sql::Database;
use tman_sync::{Mutex, RwLock};
use tman_telemetry::Counter;

/// A trigger as [`NaiveEca`] holds it.
struct NaiveTrigger {
    id: TriggerId,
    data_src: DataSourceId,
    event: EventKind,
    /// Ordinals of the columns an `update(cols)` event names.
    update_cols: Vec<usize>,
    /// Compiled selection predicate (variable 0 = the token's tuple).
    pred: Cnf,
    window: Option<NaiveWindow>,
}

/// A windowed threshold `count >= K within W`, kept the plain way: the
/// effective time of every matching event still inside the window.
struct NaiveWindow {
    count: u64,
    within_ns: u64,
    /// Effective timestamps, oldest first.
    ring: VecDeque<u64>,
    /// The latest effective timestamp: an event stamped earlier is taken
    /// to happen now, so the window never moves back.
    last_ts: u64,
}

impl NaiveWindow {
    /// Count one matching event stamped `ts`. The window is `(eff − W,
    /// eff]`, half open; the trigger fires iff it holds at least K events,
    /// this one included.
    fn observe(&mut self, ts: u64) -> bool {
        let eff = ts.max(self.last_ts);
        self.last_ts = eff;
        let cutoff = eff.saturating_sub(self.within_ns);
        self.ring.retain(|&t| t > cutoff);
        self.ring.push_back(eff);
        self.ring.len() as u64 >= self.count
    }
}

/// A join trigger as [`NaiveEca`] holds it.
struct NaiveJoin {
    id: TriggerId,
    /// The data source of each tuple variable, in `from`-list order; no
    /// source twice.
    sources: Vec<DataSourceId>,
    /// The `on` clause: the variable it names, its event, and the ordinals
    /// of the columns an `update(cols)` event names. `None` is the implicit
    /// event, an insert or update on any variable.
    on: Option<(usize, EventKind, Vec<usize>)>,
    /// The whole condition, over every variable.
    pred: Cnf,
}

impl NaiveJoin {
    /// Does a token of variable `var` run the action?
    fn fires_on(&self, var: usize, token: &UpdateDescriptor) -> bool {
        match &self.on {
            Some((v, event, cols)) => {
                *v == var && event.accepts(token.op) && token.touches_columns(cols)
            }
            None => EventKind::InsertOrUpdate.accepts(token.op),
        }
    }
}

/// Resolve the columns an `update(cols)` event names against `schema`.
fn update_ordinals(event: &EventKind, schema: &Schema) -> Result<Vec<usize>> {
    let EventKind::Update(cols) = event else {
        return Ok(Vec::new());
    };
    cols.iter()
        .map(|c| {
            schema
                .index_of(c)
                .ok_or_else(|| TmanError::Invalid(format!("no column '{c}'")))
        })
        .collect()
}

/// Linear-scan ECA trigger processing: every applicable trigger's condition
/// is evaluated against every token.
#[derive(Default)]
pub struct NaiveEca {
    triggers: Mutex<Vec<NaiveTrigger>>,
    joins: Mutex<Vec<NaiveJoin>>,
    /// The rows of every source a join trigger reads, as a multiset kept
    /// from the tokens since its first join trigger was added.
    rows: Mutex<HashMap<DataSourceId, Vec<Tuple>>>,
    /// Conditions evaluated (the linear-cost evidence for E1).
    pub conditions_tested: Counter,
}

impl NaiveEca {
    /// Empty processor.
    pub fn new() -> NaiveEca {
        NaiveEca::default()
    }

    /// Register a trigger with condition `cond` (over `var_name` bound to
    /// `schema`). The columns an `update(cols)` event names are resolved
    /// against `schema`.
    pub fn add_trigger(
        &self,
        id: TriggerId,
        data_src: DataSourceId,
        event: EventKind,
        var_name: &str,
        schema: &Schema,
        cond: &str,
    ) -> Result<()> {
        let ctx = BindCtx::new(vec![(var_name.to_string(), schema)]);
        let cnf = to_cnf(&ctx.pred(&parse_expression(cond)?)?)?;
        let update_cols = update_ordinals(&event, schema)?;
        self.triggers.lock().push(NaiveTrigger {
            id,
            data_src,
            event,
            update_cols,
            pred: remap_var(&cnf, 0, 0, var_name),
            window: None,
        });
        Ok(())
    }

    /// Register a join trigger with condition `cond` over the tuple
    /// variables `vars` (name, source, schema), in `from`-list order. `on`
    /// names the event variable and its event; `None` is the implicit
    /// event, an insert or update on any variable. No source may appear
    /// twice. From now on the rows of its sources are kept, and a token
    /// fires the trigger once per combination, its own image at its
    /// variable and the kept rows at the others, that satisfies `cond`.
    pub fn add_join_trigger(
        &self,
        id: TriggerId,
        vars: &[(&str, DataSourceId, &Schema)],
        on: Option<(usize, EventKind)>,
        cond: &str,
    ) -> Result<()> {
        let sources: Vec<DataSourceId> = vars.iter().map(|&(_, src, _)| src).collect();
        if (1..sources.len()).any(|i| sources[..i].contains(&sources[i])) {
            return Err(TmanError::Invalid(
                "a naive join reads each source once".into(),
            ));
        }
        let ctx = BindCtx::new(vars.iter().map(|&(n, _, s)| (n.to_string(), s)).collect());
        let pred = to_cnf(&ctx.pred(&parse_expression(cond)?)?)?;
        let on = match on {
            Some((v, event)) => {
                let cols = update_ordinals(&event, vars[v].2)?;
                Some((v, event, cols))
            }
            None => None,
        };
        let mut rows = self.rows.lock();
        for &src in &sources {
            rows.entry(src).or_default();
        }
        self.joins.lock().push(NaiveJoin {
            id,
            sources,
            on,
            pred,
        });
        Ok(())
    }

    /// Put trigger `id` behind a windowed threshold: from now on it fires
    /// on a matching event only while at least `window.count` matching
    /// events, that one included, arrived within the trailing
    /// `window.within_ns` of token time (`ingest_unix_ns`).
    pub fn set_window(&self, id: TriggerId, window: &WindowSpec) -> Result<()> {
        let mut triggers = self.triggers.lock();
        let t = triggers
            .iter_mut()
            .find(|t| t.id == id)
            .ok_or_else(|| TmanError::NotFound(format!("trigger {id}")))?;
        t.window = Some(NaiveWindow {
            count: window.count,
            within_ns: window.within_ns,
            ring: VecDeque::new(),
            last_ts: 0,
        });
        Ok(())
    }

    /// Drop trigger `id` and its window. Was it registered?
    pub fn remove_trigger(&self, id: TriggerId) -> bool {
        let mut triggers = self.triggers.lock();
        let before = triggers.len();
        triggers.retain(|t| t.id != id);
        triggers.len() < before
    }

    /// Number of registered triggers.
    pub fn len(&self) -> usize {
        self.triggers.lock().len()
    }

    /// Is the processor empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Match one token: evaluate *every* applicable trigger's condition.
    /// Returns the triggers that fire: the one-variable ones in
    /// registration order, then a join trigger once per combination (see
    /// [`fire`](Self::fire)). A windowed trigger's match counts toward its
    /// window and fires only at or over the threshold.
    pub fn match_token(&self, token: &UpdateDescriptor) -> Result<Vec<TriggerId>> {
        let mut out = self.match_selections(token)?;
        out.extend(self.fire_joins(token)?.into_iter().map(|(id, _)| id));
        Ok(out)
    }

    /// [`match_token`](Self::match_token) with each firing's bindings: the
    /// token's tuple for a one-variable trigger, one tuple per variable in
    /// `from`-list order for a join trigger.
    pub fn fire(&self, token: &UpdateDescriptor) -> Result<Vec<(TriggerId, Vec<Tuple>)>> {
        let mut out: Vec<(TriggerId, Vec<Tuple>)> = self
            .match_selections(token)?
            .into_iter()
            .map(|id| (id, vec![token.probe_tuple().clone()]))
            .collect();
        out.extend(self.fire_joins(token)?);
        Ok(out)
    }

    /// The join firings of `token`, by nested loops over the kept rows;
    /// then take the token into the kept rows of its source.
    fn fire_joins(&self, token: &UpdateDescriptor) -> Result<Vec<(TriggerId, Vec<Tuple>)>> {
        let mut out = Vec::new();
        let mut rows = self.rows.lock();
        if !rows.contains_key(&token.data_src) {
            return Ok(out);
        }
        for j in self.joins.lock().iter() {
            let Some(var) = j.sources.iter().position(|&s| s == token.data_src) else {
                continue;
            };
            if !j.fires_on(var, token) {
                continue;
            }
            self.conditions_tested.bump();
            let mut binds: Vec<Option<&Tuple>> = vec![None; j.sources.len()];
            binds[var] = Some(token.probe_tuple());
            nested_loops(j, &rows, 0, &mut binds, &mut |b| {
                out.push((j.id, b.iter().map(|t| t.unwrap().clone()).collect()))
            })?;
        }
        let kept = rows.get_mut(&token.data_src).expect("kept above");
        if let Some(old) = &token.old {
            if let Some(i) = kept.iter().position(|t| t == old) {
                kept.remove(i);
            }
        }
        if let Some(new) = &token.new {
            kept.push(new.clone());
        }
        Ok(out)
    }

    /// The one-variable triggers `token` fires, in registration order.
    fn match_selections(&self, token: &UpdateDescriptor) -> Result<Vec<TriggerId>> {
        let tuple = token.probe_tuple();
        let bind = Some(tuple);
        let env = Env {
            tuples: std::slice::from_ref(&bind),
            consts: &[],
        };
        let mut out = Vec::new();
        for t in self.triggers.lock().iter_mut() {
            if t.data_src != token.data_src
                || !t.event.accepts(token.op)
                || !token.touches_columns(&t.update_cols)
            {
                continue;
            }
            self.conditions_tested.bump();
            if !t.pred.matches(&env)? {
                continue;
            }
            if let Some(w) = &mut t.window {
                if !w.observe(token.ingest_unix_ns) {
                    continue;
                }
            }
            out.push(t.id);
        }
        Ok(out)
    }
}

/// Bind every unbound variable of `j` from the kept rows of its source,
/// in turn, and `emit` each full binding that satisfies the condition.
fn nested_loops<'a>(
    j: &NaiveJoin,
    rows: &'a HashMap<DataSourceId, Vec<Tuple>>,
    var: usize,
    binds: &mut [Option<&'a Tuple>],
    emit: &mut dyn FnMut(&[Option<&Tuple>]),
) -> Result<()> {
    if var == binds.len() {
        let env = Env {
            tuples: binds,
            consts: &[],
        };
        if j.pred.matches(&env)? {
            emit(binds);
        }
        return Ok(());
    }
    if binds[var].is_some() {
        return nested_loops(j, rows, var + 1, binds, emit);
    }
    for t in &rows[&j.sources[var]] {
        binds[var] = Some(t);
        nested_loops(j, rows, var + 1, binds, emit)?;
    }
    binds[var] = None;
    Ok(())
}

/// A trigger as [`QueryBased`] holds it: its condition as SQL text.
struct QueryTrigger {
    id: TriggerId,
    data_src: DataSourceId,
    event: EventKind,
    cond: String,
}

/// Query-per-trigger condition testing (RPL/DIPS style): the token is
/// inserted into a per-source one-row delta table, and each trigger's
/// condition runs as a standalone SQL query.
pub struct QueryBased {
    db: Arc<Database>,
    triggers: RwLock<Vec<QueryTrigger>>,
    /// Queries issued (the per-trigger query-cost evidence for E1).
    pub queries_run: Counter,
}

impl QueryBased {
    /// Processor over its own scratch database.
    pub fn new(db: Arc<Database>) -> QueryBased {
        QueryBased {
            db,
            triggers: RwLock::new(Vec::new()),
            queries_run: Counter::new(),
        }
    }

    fn delta_table(&self, src: DataSourceId) -> String {
        format!("delta_{}", src.raw())
    }

    /// Register a data source (creates its delta table).
    pub fn register_source(&self, src: DataSourceId, schema: &Schema) -> Result<()> {
        let name = self.delta_table(src);
        if !self.db.has_table(&name) {
            self.db.create_table(&name, schema.clone())?;
        }
        Ok(())
    }

    /// Register a trigger. `cond` must reference the delta table by its
    /// `delta_<srcid>` name or unqualified columns.
    pub fn add_trigger(
        &self,
        id: TriggerId,
        data_src: DataSourceId,
        event: EventKind,
        cond: &str,
    ) -> Result<()> {
        self.triggers.write().push(QueryTrigger {
            id,
            data_src,
            event,
            cond: cond.to_string(),
        });
        Ok(())
    }

    /// Number of registered triggers.
    pub fn len(&self) -> usize {
        self.triggers.read().len()
    }

    /// Is the processor empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Match one token by running one query per applicable trigger.
    pub fn match_token(&self, token: &UpdateDescriptor) -> Result<Vec<TriggerId>> {
        let delta = self.delta_table(token.data_src);
        if !self.db.has_table(&delta) {
            return Ok(Vec::new());
        }
        // Replace the delta table's contents with this token's tuple.
        tman_sql::execute_str(&self.db, &format!("delete from {delta}"))?;
        {
            let t = self.db.table(&delta)?;
            t.insert(token.probe_tuple().values().to_vec())?;
        }
        let mut out = Vec::new();
        for trig in self.triggers.read().iter() {
            if trig.data_src != token.data_src || !trig.event.accepts(token.op) {
                continue;
            }
            self.queries_run.bump();
            // Parse + plan + execute per trigger — the RPL cost model.
            let sql = format!("select * from {delta} where {}", trig.cond);
            let rows = tman_sql::execute_str(&self.db, &sql)?.rows();
            if !rows.is_empty() {
                out.push(trig.id);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_common::{DataType, Tuple, Value};

    fn emp() -> Schema {
        Schema::from_pairs(&[
            ("name", DataType::Varchar(32)),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ])
    }

    const SRC: DataSourceId = DataSourceId(1);

    fn row(name: &str, sal: f64, dept: i64) -> Tuple {
        Tuple::new(vec![Value::str(name), Value::Float(sal), Value::Int(dept)])
    }

    fn tok(name: &str, sal: f64, dept: i64) -> UpdateDescriptor {
        UpdateDescriptor::insert(SRC, row(name, sal, dept))
    }

    #[test]
    fn naive_eca_matches_and_counts_linear_work() {
        let eca = NaiveEca::new();
        let schema = emp();
        for i in 0..100u64 {
            eca.add_trigger(
                TriggerId(i),
                SRC,
                EventKind::Insert,
                "emp",
                &schema,
                &format!("emp.salary > {}", i * 1000),
            )
            .unwrap();
        }
        let hits = eca.match_token(&tok("x", 5_500.0, 1)).unwrap();
        assert_eq!(hits.len(), 6); // thresholds 0..=5000
                                   // Linear: all 100 conditions evaluated for one token.
        assert_eq!(eca.conditions_tested.get(), 100);
    }

    #[test]
    fn naive_eca_filters_by_source_and_event() {
        let eca = NaiveEca::new();
        let schema = emp();
        eca.add_trigger(
            TriggerId(1),
            SRC,
            EventKind::Delete,
            "emp",
            &schema,
            "emp.dept = 1",
        )
        .unwrap();
        eca.add_trigger(
            TriggerId(2),
            DataSourceId(9),
            EventKind::Insert,
            "emp",
            &schema,
            "emp.dept = 1",
        )
        .unwrap();
        assert!(eca.match_token(&tok("x", 1.0, 1)).unwrap().is_empty());
        assert_eq!(
            eca.conditions_tested.get(),
            0,
            "non-applicable triggers skipped"
        );
    }

    /// `on update(salary)` fires on an update that changes the salary and
    /// on no other, as the engine's event test does.
    #[test]
    fn naive_eca_update_columns_require_a_change() {
        let eca = NaiveEca::new();
        let event = EventKind::Update(vec!["salary".into()]);
        eca.add_trigger(TriggerId(1), SRC, event, "emp", &emp(), "emp.dept = 5")
            .unwrap();
        let old = row("a", 10.0, 5);
        let dept_only = UpdateDescriptor::update(SRC, old.clone(), row("a", 10.0, 6));
        let name_only = UpdateDescriptor::update(SRC, old.clone(), row("b", 10.0, 5));
        let salary = UpdateDescriptor::update(SRC, old, row("a", 20.0, 5));
        assert!(eca.match_token(&dept_only).unwrap().is_empty());
        assert!(eca.match_token(&name_only).unwrap().is_empty());
        assert_eq!(eca.match_token(&salary).unwrap(), vec![TriggerId(1)]);
        let unknown = EventKind::Update(vec!["bonus".into()]);
        assert!(eca
            .add_trigger(TriggerId(2), SRC, unknown, "emp", &emp(), "emp.dept = 5")
            .is_err());
    }

    #[test]
    fn naive_eca_removes_a_trigger() {
        let eca = NaiveEca::new();
        for i in 0..3u64 {
            eca.add_trigger(TriggerId(i), SRC, EventKind::Insert, "emp", &emp(), "1 = 1")
                .unwrap();
        }
        assert!(eca.remove_trigger(TriggerId(1)));
        assert!(!eca.remove_trigger(TriggerId(1)), "already gone");
        let hits = eca.match_token(&tok("x", 1.0, 1)).unwrap();
        assert_eq!(hits, vec![TriggerId(0), TriggerId(2)]);
        assert_eq!(eca.len(), 2);
    }

    /// The window's documented semantics: a late event is clamped to the
    /// latest time seen, the window `(eff − W, eff]` is half open, and a
    /// match fires iff at least K events are in it, its own included.
    #[test]
    fn naive_eca_windows_clamp_evict_half_open_and_fire_at_k() {
        let eca = NaiveEca::new();
        eca.add_trigger(
            TriggerId(7),
            SRC,
            EventKind::Insert,
            "emp",
            &emp(),
            "emp.dept = 1",
        )
        .unwrap();
        eca.set_window(
            TriggerId(7),
            &WindowSpec {
                count: 2,
                within_ns: 100,
            },
        )
        .unwrap();
        let fires = |dept: i64, ts: u64| {
            let mut t = tok("x", 1.0, dept);
            t.ingest_unix_ns = ts;
            !eca.match_token(&t).unwrap().is_empty()
        };
        assert!(!fires(1, 100), "one of two");
        assert!(!fires(2, 150), "a non-matching event does not count");
        assert!(!fires(1, 200), "100 sits on the cutoff 200 − 100: evicted");
        assert!(fires(1, 250), "200 and 250");
        assert!(fires(1, 5), "a late event lands at 250, beside it");
        assert!(!fires(1, 1_000), "everything aged out");
        assert!(eca
            .set_window(
                TriggerId(8),
                &WindowSpec {
                    count: 1,
                    within_ns: 1
                }
            )
            .is_err());
    }

    /// A join trigger fires once per combination of the token's image with
    /// the rows its earlier tokens left, duplicates included, and only on
    /// its `on` variable's event.
    #[test]
    fn naive_eca_joins_fire_per_combination_of_kept_rows() {
        let eca = NaiveEca::new();
        let (sp, h) = (DataSourceId(1), DataSourceId(2));
        let s_schema = Schema::from_pairs(&[("spno", DataType::Int)]);
        let h_schema = Schema::from_pairs(&[("hno", DataType::Int), ("spno", DataType::Int)]);
        let vars = [("s", sp, &s_schema), ("h", h, &h_schema)];
        eca.add_join_trigger(
            TriggerId(7),
            &vars,
            Some((1, EventKind::Insert)),
            "s.spno = h.spno",
        )
        .unwrap();
        let s1 = Tuple::new(vec![Value::Int(1)]);
        let house = |hno| Tuple::new(vec![Value::Int(hno), Value::Int(1)]);
        for _ in 0..2 {
            let fires = eca.fire(&UpdateDescriptor::insert(sp, s1.clone())).unwrap();
            assert!(fires.is_empty(), "s is not the event variable");
        }
        let fires = eca.fire(&UpdateDescriptor::insert(h, house(10))).unwrap();
        assert_eq!(fires, vec![(TriggerId(7), vec![s1.clone(), house(10)]); 2]);
        eca.fire(&UpdateDescriptor::delete(sp, s1.clone())).unwrap();
        assert_eq!(
            eca.match_token(&UpdateDescriptor::insert(h, house(11)))
                .unwrap(),
            vec![TriggerId(7)]
        );
        assert!(eca
            .add_join_trigger(TriggerId(8), &[vars[0], vars[0]], None, "1 = 1")
            .is_err());
    }

    #[test]
    fn query_based_matches_via_queries() {
        let db = Arc::new(Database::open_memory(256));
        let qb = QueryBased::new(db);
        qb.register_source(SRC, &emp()).unwrap();
        for i in 0..20u64 {
            qb.add_trigger(
                TriggerId(i),
                SRC,
                EventKind::Insert,
                &format!("dept = {}", i % 4),
            )
            .unwrap();
        }
        let hits = qb.match_token(&tok("x", 1.0, 2)).unwrap();
        assert_eq!(hits.len(), 5); // ids 2, 6, 10, 14, 18
        assert_eq!(qb.queries_run.get(), 20, "one query per trigger per token");
        // Second token reuses the delta table.
        let hits = qb.match_token(&tok("y", 1.0, 3)).unwrap();
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn baselines_agree_with_each_other() {
        let schema = emp();
        let eca = NaiveEca::new();
        let db = Arc::new(Database::open_memory(256));
        let qb = QueryBased::new(db);
        qb.register_source(SRC, &schema).unwrap();
        for i in 0..30u64 {
            let cond_eca = format!("emp.dept = {} and emp.salary > {}", i % 3, i * 100);
            let cond_qb = format!("dept = {} and salary > {}", i % 3, i * 100);
            eca.add_trigger(
                TriggerId(i),
                SRC,
                EventKind::Insert,
                "emp",
                &schema,
                &cond_eca,
            )
            .unwrap();
            qb.add_trigger(TriggerId(i), SRC, EventKind::Insert, &cond_qb)
                .unwrap();
        }
        for t in [tok("a", 500.0, 0), tok("b", 5000.0, 1), tok("c", 0.0, 2)] {
            let mut a = eca.match_token(&t).unwrap();
            let mut b = qb.match_token(&t).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }
}
