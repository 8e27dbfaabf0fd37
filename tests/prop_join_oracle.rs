//! Differential oracle for join triggers: every discrimination network
//! against `tman_baseline::NaiveEca`'s nested loops.
//!
//! A case is a handful of 2–3-variable equi-join triggers over three
//! captured tables `a`, `b`, `c` (`k int, v int`, never the same table
//! twice in one trigger), with selections (a decomposable OR arm among
//! them) and an `on insert`, `on delete`, `on update(cols)` or implicit
//! event; then a stream of SQL inserts, updates and deletes over small
//! domains, so duplicate rows are common and an update often rewrites a
//! row to itself. Each trigger raises an event carrying every bound
//! column, so a firing names its trigger and its bindings.
//!
//! The reference runs every statement on a mirror database, feeds the
//! captured row changes to `NaiveEca` in order, and fires each join by
//! nested loops over the row multisets those tokens leave. Some rows are
//! inserted before the triggers exist, so priming is checked too.
//!
//! Columns: TREAT, Rete and Gator at `drain_batch` 1 and 64, drained in
//! chunks of statements — stored memories advance in token order, so a
//! chunk's drain sees what a token-by-token reference sees. A-TREAT at 1
//! and 64, drained after every statement: a virtual alpha reads the base
//! table when the token is processed, not when it was captured
//! (DESIGN.md, "A-TREAT and asynchronous batching"), so its reference
//! point is the end of the statement. A statement's tokens all fall on one
//! table, and no trigger reads a table twice, so no token reads rows of
//! its own statement.
//!
//! Deterministic: pinned seed; `JOIN_CASES` sets the case count.
//!
//! Mutation check: a `Minus` that drops every stored join entry holding
//! the deleted tuple, instead of one equal entry per delta entry (how Rete
//! and Gator once retracted), fails at case 18 of the pinned seed. Two equal
//! rows that an update rewrites to themselves each retract one copy; the
//! first retraction then took the other copy's join entries with it, and a
//! later token on the third table missed them.

mod oracle_common;

use oracle_common::{env_cases, seeded_runner};
use tman_baseline::NaiveEca;
use tman_check::prelude::*;
use tman_common::{DataSourceId, DataType, EventKind, Schema, TriggerId, Tuple, UpdateDescriptor};
use tman_sql::{execute_with_capture, Database, RowChange};
use triggerman::{Config, NetworkKind, TriggerMan};

const SEED: u64 = 0x501_0001;
/// Statements per drain for the stored-memory columns.
const CHUNK_SIZES: [usize; 5] = [1, 3, 7, 2, 5];
const TABLES: [&str; 3] = ["a", "b", "c"];
const COLS: [&str; 2] = ["k", "v"];
/// The from-list orders of the three tables.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];
/// The join edges between from-list positions for three variables: two
/// chains and a star, so Rete's first binary join is sometimes a cross
/// product.
const SHAPES: [[(usize, usize); 2]; 3] = [[(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 2), (1, 2)]];

/// One join trigger.
#[derive(Debug, Clone)]
struct JoinTrigger {
    /// Tables in from-list order; the variable is named after its table.
    tables: Vec<usize>,
    /// The `when` condition.
    cond: String,
    /// The `on` clause: the event variable and its event; `None` for the
    /// implicit event.
    on: Option<(usize, EventKind)>,
}

impl JoinTrigger {
    fn ddl(&self, i: usize) -> String {
        let vars: Vec<&str> = self.tables.iter().map(|&t| TABLES[t]).collect();
        let on = match &self.on {
            None => String::new(),
            Some((v, EventKind::Insert)) => format!("on insert to {} ", vars[*v]),
            Some((v, EventKind::Delete)) => format!("on delete from {} ", vars[*v]),
            Some((v, _)) => format!("on update({}.v) ", vars[*v]),
        };
        let args: Vec<String> = vars.iter().map(|x| format!("{x}.k, {x}.v")).collect();
        format!(
            "create trigger j{i} {on}from {} when {} do raise event J{i}({})",
            vars.join(", "),
            self.cond,
            args.join(", ")
        )
    }
}

fn arb_trigger() -> impl Strategy<Value = JoinTrigger> {
    (
        (2usize..4, 0usize..6, 0usize..3),
        tman_check::collection::vec((0usize..2, 0usize..2), 2),
        tman_check::collection::vec((0u8..6, 0i64..2), 3),
        (0u8..4, 0usize..3),
    )
        .prop_map(|((n, order, shape), cols, sels, (event, event_var))| {
            let tables = ORDERS[order][..n].to_vec();
            let var = |p: usize| TABLES[tables[p]];
            let edges: &[(usize, usize)] = if n == 2 { &[(0, 1)] } else { &SHAPES[shape] };
            let mut conjuncts: Vec<String> = edges
                .iter()
                .zip(&cols)
                .map(|(&(x, y), &(cx, cy))| {
                    format!("{}.{} = {}.{}", var(x), COLS[cx], var(y), COLS[cy])
                })
                .collect();
            for (p, &(kind, c)) in sels.iter().take(n).enumerate() {
                let x = var(p);
                match kind {
                    1 => conjuncts.push(format!("{x}.v > {c}")),
                    2 => conjuncts.push(format!("{x}.k <> {c}")),
                    3 => conjuncts.push(format!("({x}.v = {c} or {x}.k = {c})")),
                    _ => {}
                }
            }
            let event_var = event_var % n;
            let on = match event {
                0 => None,
                1 => Some((event_var, EventKind::Insert)),
                2 => Some((event_var, EventKind::Delete)),
                _ => Some((event_var, EventKind::Update(vec!["v".into()]))),
            };
            JoinTrigger {
                tables,
                cond: conjuncts.join(" and "),
                on,
            }
        })
}

/// Inserts, updates and deletes over `k` in 0..2 and `v` in 0..3. The last
/// kind rewrites rows to themselves: a retraction and a re-insert each.
fn arb_statement() -> impl Strategy<Value = String> {
    let row = (0usize..3, 0i64..2, 0i64..3);
    prop_oneof![
        3 => row.clone().prop_map(|(t, k, v)| format!("insert into {} values ({k}, {v})", TABLES[t])),
        3 => row.clone().prop_map(|(t, k, v)| format!("update {} set v = {v} where k = {k}", TABLES[t])),
        2 => row.clone().prop_map(|(t, k, v)| format!("update {} set k = {k} where v = {v}", TABLES[t])),
        1 => row.clone().prop_map(|(t, k, v)| format!("delete from {} where k = {k} and v = {v}", TABLES[t])),
        2 => row.prop_map(|(t, k, _)| format!("update {} set v = v where k = {k}", TABLES[t])),
    ]
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

/// `J{i}[values…]`: a firing of trigger `i` with its bindings' columns.
fn firing(i: u64, bindings: &[Tuple]) -> String {
    let values: Vec<_> = bindings.iter().flat_map(|t| t.values().to_vec()).collect();
    format!("J{i}{values:?}")
}

/// The reference: a mirror database and `NaiveEca` fed its row changes.
struct Reference {
    db: Database,
    eca: NaiveEca,
}

impl Reference {
    fn new(triggers: &[JoinTrigger]) -> Reference {
        let db = Database::open_memory(256);
        let eca = NaiveEca::new();
        let schema = schema();
        for t in TABLES {
            db.create_table(t, schema.clone()).unwrap();
        }
        for (i, trig) in triggers.iter().enumerate() {
            let vars: Vec<(&str, DataSourceId, &Schema)> = trig
                .tables
                .iter()
                .map(|&t| (TABLES[t], DataSourceId(t as u32 + 1), &schema))
                .collect();
            eca.add_join_trigger(TriggerId(i as u64), &vars, trig.on.clone(), &trig.cond)
                .unwrap();
        }
        Reference { db, eca }
    }

    /// Run `sql` and return the firings of its tokens, in token order.
    fn run(&self, sql: &str) -> Vec<String> {
        let mut changes: Vec<RowChange> = Vec::new();
        let stmt = tman_lang::parse_sql(sql).unwrap();
        execute_with_capture(&self.db, &stmt, &mut |c| changes.push(c)).unwrap();
        let mut fired = Vec::new();
        for c in changes {
            let src = DataSourceId(TABLES.iter().position(|&t| t == c.table).unwrap() as u32 + 1);
            let token = match (c.old, c.new) {
                (None, Some(new)) => UpdateDescriptor::insert(src, new),
                (Some(old), None) => UpdateDescriptor::delete(src, old),
                (Some(old), Some(new)) => UpdateDescriptor::update(src, old, new),
                (None, None) => unreachable!("a change has an image"),
            };
            for (id, bindings) in self.eca.fire(&token).unwrap() {
                fired.push(firing(id.raw(), &bindings));
            }
        }
        fired
    }
}

/// One engine column.
struct Column {
    label: String,
    tman: std::sync::Arc<TriggerMan>,
    rx: tman_sync::channel::Receiver<triggerman::EventNotification>,
    /// Drain after every statement instead of after every chunk.
    per_statement: bool,
}

impl Column {
    fn new(kind: NetworkKind, batch: usize, init: &[String], triggers: &[JoinTrigger]) -> Column {
        let tman = TriggerMan::open_memory(Config {
            network: kind,
            drain_batch: batch,
            ..Config::default()
        })
        .unwrap();
        for t in TABLES {
            tman.run_sql(&format!("create table {t} (k int, v int)"))
                .unwrap();
            tman.execute_command(&format!("define data source {t} from table {t}"))
                .unwrap();
        }
        for sql in init {
            tman.run_sql(sql).unwrap();
        }
        tman.run_until_quiescent().unwrap();
        for (i, trig) in triggers.iter().enumerate() {
            tman.execute_command(&trig.ddl(i)).unwrap();
        }
        let rx = tman.events().subscribe_all();
        Column {
            label: format!("{kind:?} b={batch}"),
            tman,
            rx,
            per_statement: kind == NetworkKind::ATreat,
        }
    }

    /// Run a chunk of statements and drain; the sorted firings.
    fn run(&self, chunk: &[String]) -> Vec<String> {
        for sql in chunk {
            self.tman.run_sql(sql).unwrap();
            if self.per_statement {
                self.tman.run_until_quiescent().unwrap();
            }
        }
        self.tman.run_until_quiescent().unwrap();
        assert!(
            self.tman.last_error().is_none(),
            "[{}] {:?}",
            self.label,
            self.tman.last_error()
        );
        let mut fired: Vec<String> = self
            .rx
            .try_iter()
            .map(|n| format!("{}{:?}", n.event, n.values))
            .collect();
        fired.sort();
        fired
    }
}

fn run_oracle(num_cases: u32) {
    let mut runner = seeded_runner(SEED, num_cases);
    let strategy = (
        tman_check::collection::vec(arb_trigger(), 2..7),
        tman_check::collection::vec(arb_statement(), 0..8),
        tman_check::collection::vec(arb_statement(), 8..48),
    );
    let result = runner.run(&strategy, |(triggers, init, stmts)| {
        let reference = Reference::new(&triggers);
        for sql in &init {
            // Rows from before the triggers: they prime, and fire nothing.
            reference.run(sql);
        }
        let mut columns = Vec::new();
        for kind in [
            NetworkKind::Treat,
            NetworkKind::Rete,
            NetworkKind::Gator,
            NetworkKind::ATreat,
        ] {
            for batch in [1, 64] {
                columns.push(Column::new(kind, batch, &init, &triggers));
            }
        }
        let mut pos = 0;
        for (chunk_no, &size) in CHUNK_SIZES.iter().cycle().enumerate() {
            if pos == stmts.len() {
                break;
            }
            let chunk = &stmts[pos..(pos + size).min(stmts.len())];
            let mut expected: Vec<String> =
                chunk.iter().flat_map(|sql| reference.run(sql)).collect();
            expected.sort();
            for c in &columns {
                prop_assert_eq!(
                    &c.run(chunk),
                    &expected,
                    "{} diverged from the naive reference on chunk {} ({:?})",
                    c.label,
                    chunk_no,
                    chunk
                );
            }
            pos += chunk.len();
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("join oracle failed: {e}");
    }
}

#[test]
fn join_triggers_on_every_network_match_the_naive_reference() {
    run_oracle(env_cases("JOIN_CASES", 96));
}
