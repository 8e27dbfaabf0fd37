//! The four constant-set organization strategies of §5.2:
//!
//! 1. **main memory list** — [`Org::MemList`] (and a denormalized variant
//!    used for the Figure-4 common-sub-expression-elimination ablation),
//! 2. **main memory index** — [`Org::MemHash`] for equality signatures,
//!    [`Org::MemInterval`] for range signatures,
//! 3. **non-indexed database table** — [`Org::DbTable`],
//! 4. **indexed database table** — [`Org::DbIndexed`] (the paper's
//!    clustered index on `[const1, ... constK]`).
//!
//! A deviation documented in DESIGN.md: the paper stores `restOfPredicate`
//! per row; since the *generalized* residual is identical for every member
//! of an equivalence class, we store it once on the signature and keep all
//! `m` constants in the row (`const1..constm`), which is equivalent and
//! normalizes the catalog.

use crate::interval::{Bound, IntervalIndex};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::{ExprId, NodeId, Result, TmanError, TriggerId, Value};
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

impl Entry {
    fn key(&self, plan: &IndexPlan) -> Vec<Value> {
        match plan {
            IndexPlan::Equality { const_slots, .. } => const_slots
                .iter()
                .map(|&s| self.consts[s].clone())
                .collect(),
            _ => Vec::new(),
        }
    }

    fn interval(&self, plan: &IndexPlan) -> (Bound, Bound) {
        let IndexPlan::Range { lo, hi, .. } = plan else {
            return (Bound::Open, Bound::Open);
        };
        let b = |side: &Option<(usize, bool)>| match side {
            None => Bound::Open,
            Some((slot, inclusive)) => Bound::At {
                value: self.consts[*slot].clone(),
                inclusive: *inclusive,
            },
        };
        (b(lo), b(hi))
    }
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
    MemHash(FxHashMap<Vec<Value>, Vec<Entry>>),
    /// Strategy 2, range plans.
    MemInterval(IntervalIndex<Entry>),
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
                IndexPlan::Range { .. } => Org::MemInterval(IntervalIndex::new()),
                _ => Org::MemHash(FxHashMap::default()),
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
            Org::MemHash(_) | Org::MemInterval(_) => OrgKind::MemIndex,
            Org::DbTable(_) => OrgKind::DbTable,
            Org::DbIndexed(_) => OrgKind::DbIndexed,
        }
    }

    /// Insert one predicate occurrence.
    ///
    /// In the normalized organizations (Figure 4), members of the same
    /// constant group whose *entire* constant vector is identical share one
    /// allocation — the common-sub-expression elimination the paper's
    /// normalization buys.
    pub fn insert(&mut self, plan: &IndexPlan, mut entry: Entry) -> Result<()> {
        match self {
            Org::MemList(groups) => {
                let key = entry.key(plan);
                match groups.iter_mut().find(|g| g.key == key) {
                    Some(g) => {
                        share_consts(&mut entry, &g.entries);
                        g.entries.push(entry);
                    }
                    None => groups.push(Group {
                        key,
                        entries: vec![entry],
                    }),
                }
            }
            Org::MemListDenorm(list) => list.push(entry),
            Org::MemHash(map) => {
                let group = map.entry(entry.key(plan)).or_default();
                share_consts(&mut entry, group);
                group.push(entry);
            }
            Org::MemInterval(ix) => {
                let (lo, hi) = entry.interval(plan);
                ix.insert(lo, hi, entry);
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
        Ok(())
    }

    /// Remove every entry of `trigger_id`. Returns how many were removed.
    pub fn remove_trigger(&mut self, trigger_id: TriggerId) -> Result<usize> {
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
            Org::MemHash(map) => {
                for v in map.values_mut() {
                    let before = v.len();
                    v.retain(|e| e.trigger_id != trigger_id);
                    n += before - v.len();
                }
                map.retain(|_, v| !v.is_empty());
            }
            Org::MemInterval(ix) => {
                while ix.remove_where(|e| e.trigger_id == trigger_id).is_some() {
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

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        match self {
            Org::MemList(groups) => groups.iter().map(|g| g.entries.len()).sum(),
            Org::MemListDenorm(list) => list.len(),
            Org::MemHash(map) => map.values().map(Vec::len).sum(),
            Org::MemInterval(ix) => ix.len(),
            Org::DbTable(org) | Org::DbIndexed(org) => org.table.count().unwrap_or(0),
        }
    }

    /// Is the organization empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate main-memory footprint in bytes (database organizations
    /// report only their handle, which is the point of strategies 3/4).
    /// Shared constant vectors (normalized layout) are counted once.
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
            Org::MemHash(map) => {
                map.iter()
                    .map(|(k, v)| {
                        k.iter().map(Value::heap_size).sum::<usize>()
                            + group_bytes(v)
                            + std::mem::size_of::<Vec<Entry>>()
                    })
                    .sum::<usize>()
                    + map.capacity() * std::mem::size_of::<u64>()
            }
            Org::MemInterval(ix) => ix.memory_bytes(),
            Org::DbTable(_) | Org::DbIndexed(_) => std::mem::size_of::<DbOrg>(),
        }
    }

    /// Drain all entries (used when switching organization strategies).
    pub fn drain_entries(&mut self) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        self.for_each_entry(&mut |e| out.push(e.clone()))?;
        match self {
            Org::MemList(g) => g.clear(),
            Org::MemListDenorm(l) => l.clear(),
            Org::MemHash(m) => m.clear(),
            Org::MemInterval(ix) => while ix.remove_where(|_| true).is_some() {},
            Org::DbTable(org) | Org::DbIndexed(org) => {
                let mut rids = Vec::new();
                org.table.scan(|rid, _| {
                    rids.push(rid);
                    Ok(true)
                })?;
                for rid in rids {
                    org.table.delete(rid)?;
                }
            }
        }
        Ok(out)
    }

    /// Visit every entry (diagnostics, org switching).
    pub fn for_each_entry(&self, visit: &mut dyn FnMut(&Entry)) -> Result<()> {
        match self {
            Org::MemList(groups) => {
                for g in groups {
                    for e in &g.entries {
                        visit(e);
                    }
                }
            }
            Org::MemListDenorm(list) => {
                for e in list {
                    visit(e);
                }
            }
            Org::MemHash(map) => {
                for v in map.values() {
                    for e in v {
                        visit(e);
                    }
                }
            }
            Org::MemInterval(ix) => {
                // No iteration API on the interval index; use a full-range
                // stab via collect on an unbounded probe is not possible,
                // so walk by repeated removal on a clone-free path is
                // avoided — instead we keep it simple: stab can't
                // enumerate, so MemInterval stores nothing else; enumerate
                // via internal visitor.
                ix.for_each(&mut |e| visit(e));
            }
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
    /// * `Equality` plans get the token's key values,
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
        match (self, probe) {
            (Org::MemList(groups), ProbeValues::Key(key)) => {
                for g in groups {
                    if g.key.as_slice() == *key {
                        for e in &g.entries {
                            visit(e);
                        }
                    }
                }
            }
            (Org::MemList(groups), ProbeValues::All) => {
                for g in groups {
                    for e in &g.entries {
                        visit(e);
                    }
                }
            }
            (Org::MemList(groups), ProbeValues::Stab(v)) => {
                // List organization of a range signature: linear check.
                for g in groups {
                    for e in &g.entries {
                        if interval_contains(plan, e, v) {
                            visit(e);
                        }
                    }
                }
            }
            (Org::MemListDenorm(list), ProbeValues::Key(key)) => {
                for e in list {
                    if e.key(plan).as_slice() == *key {
                        visit(e);
                    }
                }
            }
            (Org::MemListDenorm(list), ProbeValues::All) => {
                for e in list {
                    visit(e);
                }
            }
            (Org::MemListDenorm(list), ProbeValues::Stab(v)) => {
                for e in list {
                    if interval_contains(plan, e, v) {
                        visit(e);
                    }
                }
            }
            (Org::MemHash(map), ProbeValues::Key(key)) => {
                if let Some(v) = map.get(*key) {
                    for e in v {
                        visit(e);
                    }
                }
            }
            (Org::MemHash(map), ProbeValues::All) => {
                for v in map.values() {
                    for e in v {
                        visit(e);
                    }
                }
            }
            (Org::MemInterval(ix), ProbeValues::Stab(v)) => {
                ix.stab(v, visit);
            }
            (Org::DbTable(org), _) => {
                // Strategy 3: full scan, compare in the loop.
                org.table.scan(|_, row| {
                    let e = entry_from_row(row);
                    let hit = match probe {
                        ProbeValues::Key(key) => e.key(plan).as_slice() == *key,
                        ProbeValues::Stab(v) => interval_contains(plan, &e, v),
                        ProbeValues::All => true,
                    };
                    if hit {
                        visit(&e);
                    }
                    Ok(true)
                })?;
            }
            (Org::DbIndexed(org), ProbeValues::Key(key)) => match &org.index {
                Some(idx) => {
                    for (_, row) in org.table.index_prefix_lookup(idx, key)? {
                        visit(&entry_from_row(&row));
                    }
                }
                None => {
                    return Err(TmanError::Internal(
                        "indexed db org missing its key index".into(),
                    ))
                }
            },
            (Org::DbIndexed(org), ProbeValues::Stab(v)) => {
                match &org.range_index {
                    Some(idx) => {
                        // All rows whose lo bound <= v; hi re-checked below.
                        let rows = org.table.index_range_lookup(idx, None, Some((v, true)))?;
                        for (_, row) in rows {
                            let e = entry_from_row(&row);
                            if interval_contains(plan, &e, v) {
                                visit(&e);
                            }
                        }
                    }
                    None => {
                        // Open lower bounds everywhere: fall back to scan.
                        org.table.scan(|_, row| {
                            let e = entry_from_row(row);
                            if interval_contains(plan, &e, v) {
                                visit(&e);
                            }
                            Ok(true)
                        })?;
                    }
                }
            }
            (Org::DbIndexed(org), ProbeValues::All) => {
                org.table.scan(|_, row| {
                    visit(&entry_from_row(row));
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

/// What a probe carries, derived from the token and the index plan.
pub enum ProbeValues<'a> {
    /// Equality key values (plan column order).
    Key(&'a [Value]),
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

/// If an existing group member carries the same constant vector, share its
/// allocation (Figure-4 normalization).
fn share_consts(entry: &mut Entry, group: &[Entry]) {
    if let Some(owner) = group.iter().find(|e| e.consts == entry.consts) {
        entry.consts = owner.consts.clone();
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
