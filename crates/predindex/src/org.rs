//! The four constant-set organization strategies of §5.2:
//!
//! 1. **main memory list** — [`Org::MemList`], normalized as in Figure 4
//!    (the denormalized layout is a count E2 takes from its entries, not an
//!    organization),
//! 2. **main memory index** — [`Org::MemHash`] (a flat [`EqTable`]) for
//!    equality signatures, [`Org::MemInterval`] (a flat [`IntervalIndex`])
//!    for range signatures,
//! 3. **non-indexed database table** and
//! 4. **indexed database table** (the paper's clustered index on
//!    `[const1, ... constK]`) — both [`Org::Db`]: one constant table, with
//!    or without the index ([`DbOrg`]).
//!
//! A deviation documented in DESIGN.md: the paper stores `restOfPredicate`
//! per row; since the *generalized* residual is identical for every member
//! of an equivalence class, we store it once on the signature and keep all
//! `m` constants in the row (`const1..constm`), which is equivalent and
//! normalizes the catalog.
//!
//! Strategies 3 and 4 write that whole row to the constant table. A memory
//! organization stores each of its constants once, where it reads it: the
//! key in its group (the hash table's key arena, or a list group's key),
//! the bounds in the interval index, and the rest in the entry's row of
//! [`Rows`]. An [`Entry`] is then a 24-byte cell of ids and a row number,
//! and a switch between organizations moves rows ([`Org::for_each_row`]).

use crate::eqtable::{key_hash, tag_of, EqTable};
use crate::interval::{Bound, IntervalIndex};
use crate::row::{Rows, View};
use std::cmp::Ordering;
use std::sync::Arc;
use tman_common::{ExprId, NodeId, Result, TmanError, TriggerId, Tuple, Value};
use tman_expr::{IndexPlan, SelectionSignature};
use tman_sql::{Database, Index, Table};

/// One selection-predicate occurrence inside an equivalence class: a cell
/// of the paper's `const_tableN` (`exprID`, `triggerID`,
/// `nextNetworkNode`), whose constants its organization holds — in its
/// index structure and in the entry's row.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Entry {
    /// Unique id of this predicate expression.
    pub expr_id: ExprId,
    /// Trigger the predicate belongs to.
    pub trigger_id: TriggerId,
    /// A-TREAT node to hand matching tokens to.
    pub next_node: NodeId,
    /// The entry's row in its organization's [`Rows`] (unused in a
    /// database organization, whose table row holds every constant).
    pub(crate) row: u32,
}

/// The slots of a constant vector that make its key: an equality plan's
/// `const_slots`, none under any other plan.
fn key_slots(plan: &IndexPlan) -> &[usize] {
    match plan {
        IndexPlan::Equality { const_slots, .. } => const_slots,
        _ => &[],
    }
}

/// The key of `consts` under `plan`.
fn key_of<'a>(plan: &'a IndexPlan, consts: &'a [Value]) -> impl Iterator<Item = &'a Value> + Clone {
    key_slots(plan).iter().map(move |&s| &consts[s])
}

/// The slot and inclusivity of one side of a range plan's interval.
fn side(plan: &IndexPlan, upper: bool) -> Option<(usize, bool)> {
    match plan {
        IndexPlan::Range { lo, hi, .. } => *if upper { hi } else { lo },
        _ => None,
    }
}

/// One side of the interval `consts` describes under a range plan.
fn bound(plan: &IndexPlan, consts: &[Value], upper: bool) -> Bound {
    side(plan, upper).map_or(Bound::Open, |(slot, inclusive)| Bound::At {
        value: consts[slot].clone(),
        inclusive,
    })
}

/// Where an entry with constants `consts` is filed under `plan`, in every
/// organization: its low bound's rank under a range plan, else its key's
/// hash (the empty key's, without an equality plan). A removal goes there
/// and looks at nothing else.
pub(crate) fn locator(plan: &IndexPlan, consts: &[Value]) -> u64 {
    match plan {
        IndexPlan::Range { .. } => bound(plan, consts, false).rank_or(0),
        _ => key_hash(key_of(plan, consts)),
    }
}

/// The constant slots an organization of `kind` keeps in its rows: all but
/// those its own structure holds — the key of an equality plan (a list
/// group's or the hash table's), the bounds of a range plan in the
/// interval index.
fn row_slots(kind: OrgKind, plan: &IndexPlan, num_consts: usize) -> Vec<usize> {
    let held: Vec<usize> = match (kind, plan) {
        (OrgKind::MemList | OrgKind::MemIndex, IndexPlan::Equality { const_slots, .. }) => {
            const_slots.clone()
        }
        (OrgKind::MemIndex, IndexPlan::Range { lo, hi, .. }) => {
            lo.iter().chain(hi).map(|&(slot, _)| slot).collect()
        }
        _ => Vec::new(),
    };
    (0..num_consts).filter(|s| !held.contains(s)).collect()
}

/// Which strategy a constant set currently uses (reported in catalogs as
/// `constantSetOrganization`, and forceable for experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgKind {
    /// Strategy 1.
    MemList,
    /// Strategy 2 (hash for equality plans, interval index for ranges).
    MemIndex,
    /// Strategy 3.
    DbTable,
    /// Strategy 4.
    DbIndexed,
}

/// Catalog string of each [`OrgKind`], in declaration order (also the
/// `org` label of the per-organization counters).
pub const ORG_LABELS: [&str; 4] = ["mem_list", "mem_index", "db_table", "db_indexed_table"];

impl OrgKind {
    /// Catalog string.
    pub fn as_str(self) -> &'static str {
        ORG_LABELS[self as usize]
    }

    /// Strategy 3 or 4: the class lives in its constant table.
    pub(crate) fn in_db(self) -> bool {
        matches!(self, OrgKind::DbTable | OrgKind::DbIndexed)
    }
}

/// A normalized constant-set group: one constant (tuple) plus its
/// triggerID set (Figure 4).
pub(crate) struct Group {
    key: Vec<Value>,
    entries: Vec<Entry>,
}

/// Database-backed organization state: strategy 3, or strategy 4 when it
/// has its index.
pub(crate) struct DbOrg {
    /// Which of the two strategies.
    kind: OrgKind,
    table: Arc<Table>,
    /// Strategy 4's index: over the key columns under an equality plan,
    /// over the low-bound column under a range plan. `None` for strategy 3,
    /// and for strategy 4 under a plan with nothing to index, which then
    /// probes as strategy 3 does.
    index: Option<Arc<Index>>,
}

/// The storage behind one expression signature's equivalence class. Each
/// memory organization keeps, beside its structure, the rows of what that
/// structure does not hold ([`row_slots`]).
pub(crate) enum Org {
    /// Strategy 1 (normalized).
    MemList { groups: Vec<Group>, rows: Rows },
    /// Strategy 2, equality plans.
    MemHash { table: EqTable, rows: Rows },
    /// Strategy 2, range plans: entries by the interval their constants
    /// describe.
    MemInterval {
        index: IntervalIndex<Entry>,
        rows: Rows,
    },
    /// Strategies 3 and 4.
    Db(DbOrg),
}

/// Where a probed entry's other constants are: its organization's rows,
/// or (in a database organization) the whole constant vector at hand.
#[derive(Clone, Copy)]
pub(crate) enum Consts<'a> {
    Rows(&'a Rows),
    All(&'a [Value]),
}

impl Consts<'_> {
    /// Write the constants `e` keeps outside its organization's structure
    /// into their slots of `out`, a constant vector; a residual reads no
    /// other slot.
    pub(crate) fn fill(self, e: &Entry, out: &mut [Value]) {
        match self {
            Consts::Rows(rows) => rows.fill(e.row, out),
            Consts::All(consts) => out.clone_from_slice(consts),
        }
    }
}

impl Org {
    /// Fresh, empty organization of the given kind. `slot_types` describes
    /// the constant columns for database-backed strategies (see
    /// [`SelectionSignature::slot_types`]).
    pub(crate) fn new(
        kind: OrgKind,
        sig: &SelectionSignature,
        slot_types: &[tman_common::DataType],
        sig_table_name: &str,
        db: Option<&Arc<Database>>,
    ) -> Result<Org> {
        let plan = &sig.index_plan;
        let rows = || Rows::new(row_slots(kind, plan, sig.num_consts));
        Ok(match kind {
            OrgKind::MemList => Org::MemList {
                groups: Vec::new(),
                rows: rows(),
            },
            OrgKind::MemIndex => match plan {
                IndexPlan::Range { .. } => Org::MemInterval {
                    index: IntervalIndex::new(),
                    rows: rows(),
                },
                plan => Org::MemHash {
                    table: EqTable::new(key_slots(plan).len()),
                    rows: rows(),
                },
            },
            OrgKind::DbTable | OrgKind::DbIndexed => {
                let db = db.ok_or_else(|| {
                    TmanError::Invalid(
                        "database-backed constant set requires an attached database".into(),
                    )
                })?;
                let table = create_const_table(db, slot_types, sig_table_name)?;
                let column = |slot: &usize| format!("const{}", slot + 1);
                let indexed: Option<(&str, Vec<String>)> = match (kind, &sig.index_plan) {
                    (OrgKind::DbTable, _) => None,
                    (_, IndexPlan::Equality { const_slots, .. }) => {
                        Some(("key", const_slots.iter().map(column).collect()))
                    }
                    (
                        _,
                        IndexPlan::Range {
                            lo: Some((slot, _)),
                            ..
                        },
                    ) => Some(("lo", vec![column(slot)])),
                    _ => None,
                };
                let index = match indexed {
                    Some((suffix, cols)) => {
                        let name = format!("{sig_table_name}_{suffix}");
                        db.create_index(&name, sig_table_name, &cols)?;
                        table.index(&name)
                    }
                    None => None,
                };
                Org::Db(DbOrg { kind, table, index })
            }
        })
    }

    /// Current strategy.
    pub(crate) fn kind(&self) -> OrgKind {
        match self {
            Org::MemList { .. } => OrgKind::MemList,
            Org::MemHash { .. } | Org::MemInterval { .. } => OrgKind::MemIndex,
            Org::Db(org) => org.kind,
        }
    }

    /// Insert one predicate occurrence: `entry`'s ids (its row is set
    /// here) with its constant vector `consts`, whose [`locator`] is
    /// `at`.
    pub(crate) fn insert(
        &mut self,
        plan: &IndexPlan,
        entry: Entry,
        consts: &[Value],
        at: u64,
    ) -> Result<()> {
        match self {
            Org::MemList { groups, rows } => {
                let entry = Entry {
                    row: rows.insert(consts),
                    ..entry
                };
                let key = key_of(plan, consts);
                match groups.iter_mut().find(|g| g.key.iter().eq(key.clone())) {
                    Some(g) => g.entries.push(entry),
                    None => groups.push(Group {
                        key: key.cloned().collect(),
                        entries: vec![entry],
                    }),
                }
            }
            Org::MemHash { table, rows } => {
                let entry = Entry {
                    row: rows.insert(consts),
                    ..entry
                };
                table.insert(at, key_of(plan, consts), entry);
            }
            Org::MemInterval { index, rows } => {
                let entry = Entry {
                    row: rows.insert(consts),
                    ..entry
                };
                index.insert(bound(plan, consts, false), bound(plan, consts, true), entry);
            }
            Org::Db(org) => {
                let mut row = vec![
                    Value::Int(entry.expr_id.raw() as i64),
                    Value::Int(entry.trigger_id.raw() as i64),
                    Value::Int(entry.next_node.raw() as i64),
                ];
                row.extend(consts.iter().cloned());
                org.table.insert(row)?;
            }
        }
        Ok(())
    }

    /// Remove `trigger_id`'s entries, handing each to `gone`. The
    /// strategy-2 structures go straight to where `locator` — the
    /// [`locator`] of one of the trigger's entries — files it and look at
    /// nothing else; the lists and tables are searched whole, so they also
    /// remove entries the trigger holds under other constants. Returns how
    /// many were removed.
    pub(crate) fn remove(
        &mut self,
        trigger_id: TriggerId,
        locator: u64,
        gone: &mut dyn FnMut(&Entry),
    ) -> Result<usize> {
        let mut n = 0;
        match self {
            Org::MemList { groups, rows } => {
                for g in groups.iter_mut() {
                    g.entries.retain(|e| {
                        let keep = e.trigger_id != trigger_id;
                        if !keep {
                            rows.remove(e.row);
                            gone(e);
                            n += 1;
                        }
                        keep
                    });
                }
                groups.retain(|g| !g.entries.is_empty());
            }
            Org::MemHash { table, rows } => {
                n = table.remove(tag_of(locator), trigger_id, &mut |e| {
                    rows.remove(e.row);
                    gone(e);
                })
            }
            Org::MemInterval { index, rows } => {
                for e in index.remove_at_rank(locator, |e| e.trigger_id == trigger_id) {
                    rows.remove(e.row);
                    gone(&e);
                    n += 1;
                }
            }
            Org::Db(org) => {
                let mut dead = Vec::new();
                org.table.scan(|rid, row| {
                    if row.get(1) == &Value::Int(trigger_id.raw() as i64) {
                        dead.push((rid, entry_from_row(row).0));
                    }
                    Ok(true)
                })?;
                n = dead.len();
                for (rid, e) in dead {
                    org.table.delete(rid)?;
                    gone(&e);
                }
            }
        }
        Ok(n)
    }

    /// Main-memory footprint in bytes: the capacity of the memory
    /// organizations' arrays and their rows, in constant time for strategy
    /// 2; database organizations report only their handle, which is the
    /// point of strategies 3/4.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Org::MemList { groups, rows } => {
                let group = |g: &Group| {
                    g.key.iter().map(Value::heap_size).sum::<usize>()
                        + g.entries.capacity() * std::mem::size_of::<Entry>()
                };
                groups.capacity() * std::mem::size_of::<Group>()
                    + groups.iter().map(group).sum::<usize>()
                    + rows.memory_bytes()
            }
            Org::MemHash { table, rows } => table.memory_bytes() + rows.memory_bytes(),
            Org::MemInterval { index, rows } => index.memory_bytes() + rows.memory_bytes(),
            Org::Db(_) => std::mem::size_of::<DbOrg>(),
        }
    }

    /// Visit every entry (diagnostics), in the order a probe that matches
    /// them all would deliver them.
    pub(crate) fn for_each_entry(&self, visit: &mut dyn FnMut(&Entry)) -> Result<()> {
        match self {
            Org::MemList { groups, .. } => groups.iter().flat_map(|g| &g.entries).for_each(visit),
            Org::MemHash { table, .. } => table.for_each(visit),
            Org::MemInterval { index, .. } => index.for_each(visit),
            Org::Db(org) => {
                org.table.scan(|_, row| {
                    visit(&entry_from_row(row).0);
                    Ok(true)
                })?;
            }
        }
        Ok(())
    }

    /// Visit every entry with its whole constant vector, of `num_consts`
    /// slots, put back together (organization switches), in
    /// [`for_each_entry`](Self::for_each_entry)'s order.
    pub(crate) fn for_each_row(
        &self,
        plan: &IndexPlan,
        num_consts: usize,
        visit: &mut dyn FnMut(&Entry, Vec<Value>),
    ) -> Result<()> {
        // `e`'s constant vector: what its organization's structure holds of
        // it (`held`, by slot), then its row.
        let whole = |e: &Entry, rows: &Rows, held: &mut dyn Iterator<Item = (usize, Value)>| {
            let mut consts = vec![Value::Null; num_consts];
            held.for_each(|(slot, v)| consts[slot] = v);
            rows.fill(e.row, &mut consts);
            consts
        };
        let keyed = |key: &[Value]| key_slots(plan).iter().copied().zip(key.to_vec());
        match self {
            Org::MemList { groups, rows } => {
                for g in groups {
                    for e in &g.entries {
                        visit(e, whole(e, rows, &mut keyed(&g.key)));
                    }
                }
            }
            Org::MemHash { table, rows } => {
                table.for_each_keyed(&mut |key, e| visit(e, whole(e, rows, &mut keyed(key))))
            }
            Org::MemInterval { index, rows } => index.for_each_interval(&mut |lo, hi, e| {
                let bounds = [(lo, false), (hi, true)].into_iter();
                let mut held = bounds.filter_map(|(b, upper)| match (side(plan, upper), b) {
                    (Some((slot, _)), Bound::At { value, .. }) => Some((slot, value)),
                    _ => None,
                });
                visit(e, whole(e, rows, &mut held))
            }),
            Org::Db(org) => {
                org.table.scan(|_, row| {
                    let (e, consts) = entry_from_row(row);
                    visit(&e, consts);
                    Ok(true)
                })?;
            }
        }
        Ok(())
    }

    /// Probe for candidate entries matching `probe`:
    /// * `Equality` plans get the token's key,
    /// * `Range` plans get the token's single attribute value,
    /// * `None` plans visit every entry (the caller evaluates the full
    ///   generalized predicate).
    ///
    /// Visited entries are *candidates*: the indexable part E_I has matched
    /// (exactly for mem orgs; conservatively for db orgs, which re-check),
    /// and the caller must still test the residual E_NI, whose constants
    /// the [`Consts`] handed along with the entry hold.
    pub(crate) fn probe(
        &self,
        plan: &IndexPlan,
        probe: &ProbeValues<'_>,
        visit: &mut dyn FnMut(&Entry, Consts<'_>),
    ) -> Result<()> {
        match (self, probe) {
            (Org::MemList { groups, rows }, _) => {
                let consts = Consts::Rows(rows);
                for g in groups {
                    if let ProbeValues::Key(key) = probe {
                        if g.key.iter().eq(key.values()) {
                            g.entries.iter().for_each(|e| visit(e, consts));
                        }
                        continue;
                    }
                    for e in &g.entries {
                        let hit = match probe {
                            ProbeValues::Stab(v) => {
                                interval_contains(plan, v, |slot| rows.view(e.row, slot))
                            }
                            _ => true,
                        };
                        if hit {
                            visit(e, consts);
                        }
                    }
                }
            }
            (Org::MemHash { table, rows }, ProbeValues::Key(key)) => {
                table.probe(key.hash, key.values(), &mut |e| {
                    visit(e, Consts::Rows(rows))
                })
            }
            (Org::MemHash { table, rows }, ProbeValues::All) => {
                table.for_each(&mut |e| visit(e, Consts::Rows(rows)))
            }
            (Org::MemInterval { index, rows }, ProbeValues::Stab(v)) => {
                index.stab(v, &mut |e| visit(e, Consts::Rows(rows)))
            }
            (Org::Db(org), _) => org.probe(plan, probe, visit)?,
            (org, probe) => {
                return Err(TmanError::Internal(format!(
                    "organization {:?} cannot serve probe {:?}",
                    org.kind(),
                    probe.kind()
                )))
            }
        }
        Ok(())
    }
}

impl DbOrg {
    /// [`Org::probe`] of a constant table.
    fn probe(
        &self,
        plan: &IndexPlan,
        probe: &ProbeValues<'_>,
        visit: &mut dyn FnMut(&Entry, Consts<'_>),
    ) -> Result<()> {
        // Is the row a candidate? (The organizations without an index ask
        // this of every row.)
        let hit = |consts: &[Value]| match probe {
            ProbeValues::Key(key) => key_of(plan, consts).eq(key.values()),
            ProbeValues::Stab(v) => {
                interval_contains(plan, v, |slot| Some(View::of(&consts[slot])))
            }
            ProbeValues::All => true,
        };
        let mut offer = |row: &Tuple| {
            let (e, consts) = entry_from_row(row);
            if hit(&consts) {
                visit(&e, Consts::All(&consts));
            }
        };
        match (&self.index, probe) {
            (Some(idx), ProbeValues::Key(key)) => {
                let key: Vec<Value> = key.values().cloned().collect();
                for (_, row) in self.table.index_prefix_lookup(idx, &key)? {
                    offer(&row);
                }
            }
            (Some(idx), ProbeValues::Stab(v)) => {
                // All rows whose lo bound <= v; hi re-checked by `hit`.
                for (_, row) in self.table.index_range_lookup(idx, None, Some((v, true)))? {
                    offer(&row);
                }
            }
            // Strategy 3, and strategy 4 where no index serves the probe
            // (open lower bounds everywhere, or no plan): full scan,
            // compare in the loop.
            _ => self.table.scan(|_, row| {
                offer(row);
                Ok(true)
            })?,
        }
        Ok(())
    }
}

/// A probe's equality key: the token's values at the plan's key columns,
/// read in place, with the hash they file under.
#[derive(Clone, Copy)]
pub(crate) struct KeyRef<'a> {
    /// [`key_hash`](crate::eqtable::key_hash) of [`values`](Self::values).
    pub hash: u64,
    /// The token's probe image.
    pub tuple: &'a Tuple,
    /// The plan's key columns.
    pub cols: &'a [usize],
}

impl<'a> KeyRef<'a> {
    /// The key's values, in plan column order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &'a Value> + Clone {
        let tuple = self.tuple;
        self.cols.iter().map(move |&c| tuple.get(c))
    }
}

/// What a probe carries, derived from the token and the index plan.
pub(crate) enum ProbeValues<'a> {
    /// Equality key.
    Key(KeyRef<'a>),
    /// Single attribute value for range stabbing.
    Stab(&'a Value),
    /// No indexable part: visit all.
    All,
}

impl ProbeValues<'_> {
    fn kind(&self) -> &'static str {
        match self {
            ProbeValues::Key(_) => "key",
            ProbeValues::Stab(_) => "stab",
            ProbeValues::All => "all",
        }
    }
}

/// Does the interval a range plan's bounds describe contain `v`? `at`
/// reads the bound in a slot.
fn interval_contains<'a>(
    plan: &IndexPlan,
    v: &Value,
    at: impl Fn(usize) -> Option<View<'a>>,
) -> bool {
    let v = View::of(v);
    let admits = |upper: bool| {
        let Some((slot, inclusive)) = side(plan, upper) else {
            return true;
        };
        let Some(bound) = at(slot) else {
            return false;
        };
        match v.cmp(bound) {
            Ordering::Equal => inclusive,
            Ordering::Greater => !upper,
            Ordering::Less => upper,
        }
    };
    matches!(plan, IndexPlan::Range { .. }) && admits(false) && admits(true)
}

/// A constant-table row as the entry it holds and its constant vector.
fn entry_from_row(row: &Tuple) -> (Entry, Vec<Value>) {
    let entry = Entry {
        expr_id: ExprId(row.get(0).as_i64().unwrap_or(0) as u64),
        trigger_id: TriggerId(row.get(1).as_i64().unwrap_or(0) as u64),
        next_node: NodeId(row.get(2).as_i64().unwrap_or(0) as u32),
        row: 0,
    };
    (entry, row.values()[3..].to_vec())
}

/// Create the paper's `const_tableN` for a signature:
/// `(exprID, triggerID, nextNetworkNode, const1, ..., constm)`.
fn create_const_table(
    db: &Arc<Database>,
    slot_types: &[tman_common::DataType],
    name: &str,
) -> Result<Arc<Table>> {
    use tman_common::{Column, DataType, Schema};
    let mut cols = vec![
        Column::new("exprID", DataType::Int),
        Column::new("triggerID", DataType::Int),
        Column::new("nextNetworkNode", DataType::Int),
    ];
    for (i, ty) in slot_types.iter().enumerate() {
        cols.push(Column::new(format!("const{}", i + 1), *ty));
    }
    let schema = Schema::new(cols)?;
    db.create_table(name, schema)?;
    db.table(name)
}
