//! The four constant-set organization strategies of §5.2:
//!
//! 1. **main memory list** — [`Org::MemList`] (and a denormalized variant
//!    used for the Figure-4 common-sub-expression-elimination ablation),
//! 2. **main memory index** — [`Org::MemHash`] (a flat [`EqTable`]) for
//!    equality signatures, [`Org::MemInterval`] (a flat [`IntervalIndex`])
//!    for range signatures,
//! 3. **non-indexed database table** — [`Org::DbTable`],
//! 4. **indexed database table** — [`Org::DbIndexed`] (the paper's
//!    clustered index on `[const1, ... constK]`).
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
    /// Strategy 1 without common-sub-expression elimination (Fig 4
    /// ablation only).
    MemListDenorm,
    /// Strategy 2 (hash for equality plans, interval index for ranges).
    MemIndex,
    /// Strategy 3.
    DbTable,
    /// Strategy 4.
    DbIndexed,
}

impl OrgKind {
    /// Catalog string.
    pub fn as_str(self) -> &'static str {
        match self {
            OrgKind::MemList => "mem_list",
            OrgKind::MemListDenorm => "mem_list_denorm",
            OrgKind::MemIndex => "mem_index",
            OrgKind::DbTable => "db_table",
            OrgKind::DbIndexed => "db_indexed_table",
        }
    }
}

/// A normalized constant-set group: one constant (tuple) plus its
/// triggerID set (Figure 4).
pub struct Group {
    key: Vec<Value>,
    entries: Vec<Entry>,
}

/// Database-backed organization state.
pub struct DbOrg {
    table: Arc<Table>,
    /// Index over the plan's key columns (strategy 4 only).
    index: Option<Arc<Index>>,
    /// For range plans: index over the lo-bound column.
    range_index: Option<Arc<Index>>,
}

/// The storage behind one expression signature's equivalence class.
pub enum Org {
    /// Strategy 1 (normalized).
    MemList(Vec<Group>),
    /// Strategy 1, denormalized (no constant grouping).
    MemListDenorm(Vec<Entry>),
    /// Strategy 2, equality plans.
    MemHash(EqTable),
    /// Strategy 2, range plans.
    MemInterval {
        /// Entries by the interval their constants describe.
        index: IntervalIndex<Entry>,
        /// Heap bytes of the entries' constant vectors.
        consts_bytes: usize,
    },
    /// Strategy 3.
    DbTable(DbOrg),
    /// Strategy 4.
    DbIndexed(DbOrg),
}

impl Org {
    /// Fresh, empty organization of the given kind. `slot_types` describes
    /// the constant columns for database-backed strategies (see
    /// [`SelectionSignature::slot_types`]).
    pub fn new(
        kind: OrgKind,
        sig: &SelectionSignature,
        slot_types: &[tman_common::DataType],
        sig_table_name: &str,
        db: Option<&Arc<Database>>,
    ) -> Result<Org> {
        Ok(match kind {
            OrgKind::MemList => Org::MemList(Vec::new()),
            OrgKind::MemListDenorm => Org::MemListDenorm(Vec::new()),
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
                let mut org = DbOrg {
                    table,
                    index: None,
                    range_index: None,
                };
                if kind == OrgKind::DbIndexed {
                    match &sig.index_plan {
                        IndexPlan::Equality { const_slots, .. } => {
                            let cols: Vec<String> = const_slots
                                .iter()
                                .map(|s| format!("const{}", s + 1))
                                .collect();
                            db.create_index(
                                &format!("{sig_table_name}_key"),
                                sig_table_name,
                                &cols,
                            )?;
                            org.index = org.table.index(&format!("{sig_table_name}_key"));
                        }
                        IndexPlan::Range {
                            lo: Some((slot, _)),
                            ..
                        } => {
                            db.create_index(
                                &format!("{sig_table_name}_lo"),
                                sig_table_name,
                                &[format!("const{}", slot + 1)],
                            )?;
                            org.range_index = org.table.index(&format!("{sig_table_name}_lo"));
                        }
                        // No indexable part: strategy 4 degenerates to 3.
                        _ => {}
                    }
                }
                if kind == OrgKind::DbIndexed {
                    Org::DbIndexed(org)
                } else {
                    Org::DbTable(org)
                }
            }
        })
    }

    /// Current strategy.
    pub fn kind(&self) -> OrgKind {
        match self {
            Org::MemList(_) => OrgKind::MemList,
            Org::MemListDenorm(_) => OrgKind::MemListDenorm,
            Org::MemHash(_) | Org::MemInterval { .. } => OrgKind::MemIndex,
            Org::DbTable(_) => OrgKind::DbTable,
            Org::DbIndexed(_) => OrgKind::DbIndexed,
        }
    }

    /// Insert one predicate occurrence. Returns the constant vector the
    /// stored entry holds.
    ///
    /// In the normalized organizations (Figure 4), members of the same
    /// constant group whose *entire* constant vector is identical share one
    /// allocation — the common-sub-expression elimination the paper's
    /// normalization buys.
    pub fn insert(&mut self, plan: &IndexPlan, mut entry: Entry) -> Result<Arc<[Value]>> {
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
            Org::MemListDenorm(list) => list.push(entry),
            Org::MemHash(table) => return Ok(table.insert(entry)),
            Org::MemInterval {
                index,
                consts_bytes,
            } => {
                *consts_bytes += consts_heap(&held);
                index.insert(bound(plan, &held, false), bound(plan, &held, true), entry);
            }
            Org::DbTable(org) | Org::DbIndexed(org) => {
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
    pub fn remove(
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
            Org::MemListDenorm(list) => {
                let before = list.len();
                list.retain(|e| e.trigger_id != trigger_id);
                n = before - list.len();
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
            Org::DbTable(org) | Org::DbIndexed(org) => {
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
    pub fn memory_bytes(&self) -> usize {
        match self {
            Org::MemList(groups) => groups
                .iter()
                .map(|g| {
                    std::mem::size_of::<Group>()
                        + g.key.iter().map(Value::heap_size).sum::<usize>()
                        + group_bytes(&g.entries)
                })
                .sum(),
            Org::MemListDenorm(list) => group_bytes_unshared(list),
            Org::MemHash(table) => table.memory_bytes(),
            Org::MemInterval {
                index,
                consts_bytes,
            } => index.memory_bytes() + consts_bytes,
            Org::DbTable(_) | Org::DbIndexed(_) => std::mem::size_of::<DbOrg>(),
        }
    }

    /// Drain all entries (used when switching organization strategies).
    pub fn drain_entries(&mut self) -> Result<Vec<Entry>> {
        Ok(match self {
            Org::MemList(groups) => groups.drain(..).flat_map(|g| g.entries).collect(),
            Org::MemListDenorm(list) => std::mem::take(list),
            Org::MemHash(table) => table.drain(),
            Org::MemInterval {
                index,
                consts_bytes,
            } => {
                *consts_bytes = 0;
                index.drain()
            }
            Org::DbTable(org) | Org::DbIndexed(org) => {
                let mut out = Vec::new();
                let mut rids = Vec::new();
                org.table.scan(|rid, row| {
                    out.push(entry_from_row(row));
                    rids.push(rid);
                    Ok(true)
                })?;
                for rid in rids {
                    org.table.delete(rid)?;
                }
                out
            }
        })
    }

    /// Visit every entry (diagnostics), in the order a probe that matches
    /// them all would deliver them.
    pub fn for_each_entry(&self, visit: &mut dyn FnMut(&Entry)) -> Result<()> {
        match self {
            Org::MemList(groups) => groups.iter().flat_map(|g| &g.entries).for_each(visit),
            Org::MemListDenorm(list) => list.iter().for_each(visit),
            Org::MemHash(table) => table.for_each(visit),
            Org::MemInterval { index, .. } => index.for_each(visit),
            Org::DbTable(org) | Org::DbIndexed(org) => {
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
    pub fn probe(
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
            (Org::MemListDenorm(list), _) => list.iter().filter(|e| hit(e)).for_each(visit),
            (Org::MemHash(table), ProbeValues::Key(key)) => {
                table.probe(key.hash, key.values(), visit)
            }
            (Org::MemHash(table), ProbeValues::All) => table.for_each(visit),
            (Org::MemInterval { index, .. }, ProbeValues::Stab(v)) => index.stab(v, visit),
            (Org::DbIndexed(org), ProbeValues::Key(key)) => match &org.index {
                Some(idx) => {
                    let key: Vec<Value> = key.values().cloned().collect();
                    for (_, row) in org.table.index_prefix_lookup(idx, &key)? {
                        visit(&entry_from_row(&row));
                    }
                }
                None => {
                    return Err(TmanError::Internal(
                        "indexed db org missing its key index".into(),
                    ))
                }
            },
            (
                Org::DbIndexed(DbOrg {
                    table,
                    range_index: Some(idx),
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
            (Org::DbTable(org) | Org::DbIndexed(org), _) => {
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
pub struct KeyRef<'a> {
    /// [`key_hash`](crate::eqtable::key_hash) of [`values`](Self::values).
    pub hash: u64,
    /// The token's probe image.
    pub tuple: &'a Tuple,
    /// The plan's key columns.
    pub cols: &'a [usize],
}

impl<'a> KeyRef<'a> {
    /// The key's values, in plan column order.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> + Clone {
        let tuple = self.tuple;
        self.cols.iter().map(move |&c| tuple.get(c))
    }
}

/// What a probe carries, derived from the token and the index plan.
pub enum ProbeValues<'a> {
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

/// Bytes counting every entry's constants separately (denormalized).
fn group_bytes_unshared(entries: &[Entry]) -> usize {
    entries
        .iter()
        .map(|e| {
            std::mem::size_of::<Entry>() + e.consts.iter().map(Value::heap_size).sum::<usize>()
        })
        .sum()
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
