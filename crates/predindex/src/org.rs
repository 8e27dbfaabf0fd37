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

use crate::eqtable::{consts_heap, EqTable};
use crate::interval::{Bound, IntervalIndex};
use std::sync::Arc;
use tman_common::{ExprId, NodeId, Result, TmanError, TriggerId, Tuple, Value};
use tman_expr::{IndexPlan, SelectionSignature};
use tman_sql::{Database, Index, Table};

/// One selection-predicate occurrence inside an equivalence class: a row of
/// the paper's `const_tableN` (`exprID`, `triggerID`, `nextNetworkNode`,
/// constants).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Unique id of this predicate expression.
    pub expr_id: ExprId,
    /// Trigger the predicate belongs to.
    pub trigger_id: TriggerId,
    /// A-TREAT node to hand matching tokens to.
    pub next_node: NodeId,
    /// The full constant vector (placeholder slot → value).
    pub consts: Arc<[Value]>,
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

/// One side of the interval `consts` describes under a range plan.
fn bound(plan: &IndexPlan, consts: &[Value], upper: bool) -> Bound {
    let side = match plan {
        IndexPlan::Range { lo, hi, .. } => *if upper { hi } else { lo },
        _ => None,
    };
    side.map_or(Bound::Open, |(slot, inclusive)| Bound::At {
        value: consts[slot].clone(),
        inclusive,
    })
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

/// The storage behind one expression signature's equivalence class.
pub(crate) enum Org {
    /// Strategy 1 (normalized).
    MemList(Vec<Group>),
    /// Strategy 2, equality plans.
    MemHash(EqTable),
    /// Strategy 2, range plans.
    MemInterval {
        /// Entries by the interval their constants describe.
        index: IntervalIndex<Entry>,
        /// Heap bytes of the entries' constant vectors.
        consts_bytes: usize,
    },
    /// Strategies 3 and 4.
    Db(DbOrg),
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
        Ok(match kind {
            OrgKind::MemList => Org::MemList(Vec::new()),
            OrgKind::MemIndex => match &sig.index_plan {
                IndexPlan::Range { .. } => Org::MemInterval {
                    index: IntervalIndex::new(),
                    consts_bytes: 0,
                },
                plan => Org::MemHash(EqTable::new(key_slots(plan).to_vec())),
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
            Org::MemList(_) => OrgKind::MemList,
            Org::MemHash(_) | Org::MemInterval { .. } => OrgKind::MemIndex,
            Org::Db(org) => org.kind,
        }
    }

    /// Insert one predicate occurrence. Returns the constant vector the
    /// stored entry holds.
    ///
    /// In the normalized organizations (Figure 4), members of the same
    /// constant group whose *entire* constant vector is identical share one
    /// allocation — the common-sub-expression elimination the paper's
    /// normalization buys.
    pub(crate) fn insert(&mut self, plan: &IndexPlan, mut entry: Entry) -> Result<Arc<[Value]>> {
        if let Org::MemList(groups) = self {
            let group = groups
                .iter()
                .filter(|g| g.key.iter().eq(key_of(plan, &entry.consts)));
            let mut members = group.flat_map(|g| &g.entries);
            let owner = members.find(|e| e.consts == entry.consts);
            if let Some(shared) = owner.map(|e| e.consts.clone()) {
                entry.consts = shared;
            }
        }
        let held = entry.consts.clone();
        match self {
            Org::MemList(groups) => {
                let group = groups
                    .iter_mut()
                    .find(|g| g.key.iter().eq(key_of(plan, &held)));
                match group {
                    Some(g) => g.entries.push(entry),
                    None => groups.push(Group {
                        key: key_of(plan, &held).cloned().collect(),
                        entries: vec![entry],
                    }),
                }
            }
            Org::MemHash(table) => return Ok(table.insert(entry)),
            Org::MemInterval {
                index,
                consts_bytes,
            } => {
                *consts_bytes += consts_heap(&held);
                index.insert(bound(plan, &held, false), bound(plan, &held, true), entry);
            }
            Org::Db(org) => {
                let mut row = vec![
                    Value::Int(entry.expr_id.raw() as i64),
                    Value::Int(entry.trigger_id.raw() as i64),
                    Value::Int(entry.next_node.raw() as i64),
                ];
                row.extend(entry.consts.iter().cloned());
                org.table.insert(row)?;
            }
        }
        Ok(held)
    }

    /// Remove `trigger_id`'s entries. The strategy-2 structures go straight
    /// to the group (or the low endpoint) `consts` — the constant vector of
    /// one of the trigger's entries — files under and look at nothing
    /// else; the lists and tables are searched whole, so they also remove
    /// entries the trigger holds under other constants. Returns how many
    /// were removed.
    pub(crate) fn remove(
        &mut self,
        plan: &IndexPlan,
        trigger_id: TriggerId,
        consts: &[Value],
    ) -> Result<usize> {
        let mut n = 0;
        match self {
            Org::MemList(groups) => {
                for g in groups.iter_mut() {
                    let before = g.entries.len();
                    g.entries.retain(|e| e.trigger_id != trigger_id);
                    n += before - g.entries.len();
                }
                groups.retain(|g| !g.entries.is_empty());
            }
            Org::MemHash(table) => n = table.remove(consts, trigger_id),
            Org::MemInterval {
                index,
                consts_bytes,
            } => {
                let lo = bound(plan, consts, false);
                for e in index.remove_at(&lo, |e| e.trigger_id == trigger_id) {
                    *consts_bytes -= consts_heap(&e.consts);
                    n += 1;
                }
            }
            Org::Db(org) => {
                let mut dead = Vec::new();
                org.table.scan(|rid, row| {
                    if row.get(1) == &Value::Int(trigger_id.raw() as i64) {
                        dead.push(rid);
                    }
                    Ok(true)
                })?;
                n = dead.len();
                for rid in dead {
                    org.table.delete(rid)?;
                }
            }
        }
        Ok(n)
    }

    /// Main-memory footprint in bytes. The strategy-2 structures report
    /// the capacity of their backing arrays plus their entries' constant
    /// vectors, in constant time; the lists count what they hold, shared
    /// constant vectors (normalized layout) once; database organizations
    /// report only their handle, which is the point of strategies 3/4.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Org::MemList(groups) => groups
                .iter()
                .map(|g| {
                    std::mem::size_of::<Group>()
                        + g.key.iter().map(Value::heap_size).sum::<usize>()
                        + group_bytes(&g.entries)
                })
                .sum(),
            Org::MemHash(table) => table.memory_bytes(),
            Org::MemInterval {
                index,
                consts_bytes,
            } => index.memory_bytes() + consts_bytes,
            Org::Db(_) => std::mem::size_of::<DbOrg>(),
        }
    }

    /// Visit every entry (diagnostics and organization switches), in the
    /// order a probe that matches them all would deliver them.
    pub(crate) fn for_each_entry(&self, visit: &mut dyn FnMut(&Entry)) -> Result<()> {
        match self {
            Org::MemList(groups) => groups.iter().flat_map(|g| &g.entries).for_each(visit),
            Org::MemHash(table) => table.for_each(visit),
            Org::MemInterval { index, .. } => index.for_each(visit),
            Org::Db(org) => {
                org.table.scan(|_, row| {
                    visit(&entry_from_row(row));
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
    /// and the caller must still test the residual E_NI.
    pub(crate) fn probe(
        &self,
        plan: &IndexPlan,
        probe: &ProbeValues<'_>,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<()> {
        // Is `e` a candidate? (The organizations without an index ask this
        // of every entry.)
        let hit = |e: &Entry| match probe {
            ProbeValues::Key(key) => key_of(plan, &e.consts).eq(key.values()),
            ProbeValues::Stab(v) => interval_contains(plan, e, v),
            ProbeValues::All => true,
        };
        match (self, probe) {
            (Org::MemList(groups), ProbeValues::Key(key)) => {
                let group = groups.iter().filter(|g| g.key.iter().eq(key.values()));
                group.flat_map(|g| &g.entries).for_each(visit);
            }
            (Org::MemList(groups), _) => {
                let all = groups.iter().flat_map(|g| &g.entries);
                all.filter(|e| hit(e)).for_each(visit);
            }
            (Org::MemHash(table), ProbeValues::Key(key)) => {
                table.probe(key.hash, key.values(), visit)
            }
            (Org::MemHash(table), ProbeValues::All) => table.for_each(visit),
            (Org::MemInterval { index, .. }, ProbeValues::Stab(v)) => index.stab(v, visit),
            (
                Org::Db(DbOrg {
                    table,
                    index: Some(idx),
                    ..
                }),
                ProbeValues::Key(key),
            ) => {
                let key: Vec<Value> = key.values().cloned().collect();
                for (_, row) in table.index_prefix_lookup(idx, &key)? {
                    visit(&entry_from_row(&row));
                }
            }
            (
                Org::Db(DbOrg {
                    table,
                    index: Some(idx),
                    ..
                }),
                ProbeValues::Stab(v),
            ) => {
                // All rows whose lo bound <= v; hi re-checked by `hit`.
                for (_, row) in table.index_range_lookup(idx, None, Some((v, true)))? {
                    let e = entry_from_row(&row);
                    if hit(&e) {
                        visit(&e);
                    }
                }
            }
            // Strategy 3, and strategy 4 where no index serves the probe
            // (open lower bounds everywhere, or no plan): full scan,
            // compare in the loop.
            (Org::Db(org), _) => {
                org.table.scan(|_, row| {
                    let e = entry_from_row(row);
                    if hit(&e) {
                        visit(&e);
                    }
                    Ok(true)
                })?;
            }
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

/// Bytes for a group of entries, counting each distinct constant
/// allocation once.
fn group_bytes(entries: &[Entry]) -> usize {
    let mut total = std::mem::size_of_val(entries);
    for (i, e) in entries.iter().enumerate() {
        let shared_earlier = entries[..i]
            .iter()
            .any(|p| Arc::ptr_eq(&p.consts, &e.consts));
        if !shared_earlier {
            total += e.consts.iter().map(Value::heap_size).sum::<usize>();
        }
    }
    total
}

/// Does the entry's interval (per a Range plan) contain `v`?
fn interval_contains(plan: &IndexPlan, e: &Entry, v: &Value) -> bool {
    let IndexPlan::Range { lo, hi, .. } = plan else {
        return false;
    };
    let lo_ok = match lo {
        None => true,
        Some((slot, inc)) => {
            let b = &e.consts[*slot];
            match v.total_cmp(b) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *inc,
                std::cmp::Ordering::Less => false,
            }
        }
    };
    let hi_ok = match hi {
        None => true,
        Some((slot, inc)) => {
            let b = &e.consts[*slot];
            match v.total_cmp(b) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *inc,
                std::cmp::Ordering::Greater => false,
            }
        }
    };
    lo_ok && hi_ok
}

fn entry_from_row(row: &tman_common::Tuple) -> Entry {
    let consts: Vec<Value> = row.values()[3..].to_vec();
    Entry {
        expr_id: tman_common::ExprId(row.get(0).as_i64().unwrap_or(0) as u64),
        trigger_id: TriggerId(row.get(1).as_i64().unwrap_or(0) as u64),
        next_node: NodeId(row.get(2).as_i64().unwrap_or(0) as u32),
        consts: consts.into(),
    }
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
