//! `tman-predindex` — the scalable selection predicate index (§5, Figures
//! 3 & 4).
//!
//! Structure, top to bottom:
//!
//! * [`PredicateIndex`] — root: a hash table on data source ID,
//! * [`DataSourceIndex`] — one per source: the *expression signature
//!   list*,
//! * [`SignatureRuntime`] — one per unique expression signature: the
//!   *constant set* organized by one of the four §5.2 strategies
//!   ([`OrgKind`]), each constant linked to its *triggerID set* (the
//!   normalized Figure-4 form),
//! * [`Entry`] — one per predicate occurrence: `(exprID, triggerID,
//!   nextNetworkNode, row)` — a cell of the `const_tableN` row, whose
//!   constants are stored once, where the organization reads them: an
//!   equality key in the hash table's key arena, a range bound in the
//!   interval index's endpoint array, what the residual reads in the
//!   entry's row of typed slots.
//!
//! A token is matched (§5.4) by locating its data source index, then for
//! each signature whose operation code accepts the token (and whose update
//! column list is touched), probing the constant-set organization with the
//! values the index plan extracts from the token, and finally testing the
//! residual predicate `E_NI` of every candidate.
//!
//! Organizations are promoted automatically as equivalence classes grow
//! (list → index → indexed database table, thresholds in [`IndexConfig`]),
//! and can be forced for experiments via [`SignatureRuntime::set_org`].
//! Figure 5's partitioned probing for condition-level concurrency is a
//! partition argument of [`SignatureRuntime::probe_batch`].
//!
//! What the paper measures the index against is not in it: the naive ECA
//! scan is `tman-baseline`'s `NaiveEca`, which the differential oracles
//! also take as the definition of firing; Figure 4's denormalized layout is
//! a count experiment E2 takes over a normalized list's entries; an OR
//! trigger left to a residual scan is E15's condition with an arm the
//! disjunction decomposer cannot split.

mod eqtable;
mod interval;
mod org;
mod row;

pub use interval::{Bound, IntervalIndex};
pub use org::{Entry, OrgKind, ORG_LABELS};

use org::{locator, KeyRef, Org, ProbeValues};

use eqtable::key_hash;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::{
    DataSourceId, DataType, EventKind, ExprId, IdTable, NodeId, Result, Schema, SignatureId,
    TokenOp, TriggerId, Tuple, UpdateDescriptor, Value,
};
use tman_expr::Env;
use tman_expr::{IndexPlan, SelectionSignature, SignatureKey};
use tman_sql::Database;
use tman_sync::{Mutex, RwLock};
use tman_telemetry::trace::{now_ns, ROOT_SPAN};
use tman_telemetry::{Counter, Registry, SpanKind, TraceHandle};

/// The units the cost tests count (`tests.rs`): they hold a probe's and a
/// removal's work to what the operation touches, whatever the population.
#[derive(Clone, Copy)]
pub(crate) enum Work {
    /// A key read and compared on a hash hit.
    KeyCompare,
    /// An interval looked at by a stab.
    IntervalNode,
    /// An entry looked at by a removal.
    RemoveVisit,
    /// A constant set write-locked by a removal.
    WriteLock,
}

#[cfg(test)]
thread_local! {
    /// Work done on this thread, by [`Work`] kind.
    pub(crate) static WORK: std::cell::Cell<[u64; 4]> = const { std::cell::Cell::new([0; 4]) };
}

/// Count one unit of `work` — in this crate's unit tests; it compiles to
/// nothing anywhere else.
#[inline(always)]
pub(crate) fn tick(_work: Work) {
    #[cfg(test)]
    WORK.with(|w| {
        let mut counts = w.get();
        counts[_work as usize] += 1;
        w.set(counts);
    });
}

/// Predicate-index counters.
#[derive(Debug, Default)]
pub struct IndexStats {
    /// Tokens submitted to the root of the predicate index.
    pub tokens: Arc<Counter>,
    /// Signature entries visited (one per signature per token).
    pub signatures_probed: Arc<Counter>,
    /// Constant-set probes that used an organization's fast path.
    pub probes: Arc<Counter>,
    /// "Rest of predicate" re-tests performed after an indexed match.
    pub residual_tests: Arc<Counter>,
    /// Full predicate matches produced.
    pub matches: Arc<Counter>,
}

/// Per-organization probe/match counters (`tman_index_probes_total{org=..}`
/// / `tman_index_matches_total{org=..}`): one pair per [`OrgKind`], shared
/// by every signature, so the hot probe path never touches the registry.
#[derive(Clone, Default)]
pub struct OrgCounters {
    /// By [`OrgKind`], labeled [`ORG_LABELS`].
    probes: [Arc<Counter>; 4],
    matches: [Arc<Counter>; 4],
}

impl OrgCounters {
    #[inline]
    fn probes(&self, kind: OrgKind, n: u64) {
        self.probes[kind as usize].add(n);
    }

    #[inline]
    fn matches(&self, kind: OrgKind, n: u64) {
        self.matches[kind as usize].add(n);
    }
}

/// Tuning knobs for organization promotion (§5.2: strategies 1/2 "make the
/// common case fast", 3/4 "are mandatory in a scalable trigger system").
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Entries above which a memory list becomes a memory index.
    pub list_to_index: usize,
    /// Entries above which a memory index spills to an indexed database
    /// table (requires an attached database; `usize::MAX` disables).
    pub index_to_db: usize,
}

impl Default for IndexConfig {
    fn default() -> IndexConfig {
        IndexConfig {
            list_to_index: 32,
            index_to_db: usize::MAX,
        }
    }
}

/// A match produced by the predicate index: a token fully satisfied the
/// selection predicate `expr_id` of trigger `trigger_id`; the token should
/// next be delivered to `next_node` of that trigger's A-TREAT network.
#[derive(Debug, Clone, PartialEq)]
pub struct PredMatch {
    /// The matched predicate occurrence.
    pub expr_id: ExprId,
    /// Owning trigger.
    pub trigger_id: TriggerId,
    /// Where the token goes next.
    pub next_node: NodeId,
}

/// What [`PredicateIndex::match_run`] finds for token `tok` of its run.
pub enum Found<'a> {
    /// The token's probe image fully satisfies `entry`; `span` is the
    /// probe's `SigProbe` span, which what the match leads to is parented
    /// to.
    Match {
        tok: usize,
        entry: &'a Entry,
        span: u32,
    },
    /// The old image of an update token fully satisfies `entry`, of an
    /// `any` signature: a stored memory may hold that image.
    Retract { tok: usize, entry: &'a Entry },
    /// `sig` accepts the token, and the walk's `fan` took it out: the
    /// token was not probed against it.
    Split {
        tok: usize,
        sig: &'a Arc<SignatureRuntime>,
    },
}

/// One probe of a [`SignatureRuntime::probe_batch`] call.
pub struct Probe<'a> {
    /// The caller's handle for this probe, passed back with every match.
    pub tag: usize,
    /// The tuple to match: the token's probe image.
    pub tuple: &'a Tuple,
    /// The token's trace (inert unless the token is traced).
    pub trace: &'a TraceHandle,
    /// Span the probe's `SigProbe` span is opened under.
    pub parent_span: u32,
}

/// One unique expression signature and its equivalence class.
pub struct SignatureRuntime {
    /// Dense id (order of first appearance).
    pub id: SignatureId,
    /// The analyzed signature (key, generalized expression, plan, residual).
    pub sig: SelectionSignature,
    org: RwLock<Org>,
    /// Entries in `org`; written under its write lock, read without it.
    len: AtomicUsize,
    /// Entries marked [`ExprId::WINDOWED`]: counted up before such an
    /// entry is inserted and down once it is removed, so a drain never
    /// finds a windowed entry in a class that reads as unwindowed.
    windowed: AtomicUsize,
    config: IndexConfig,
    db: Option<Arc<Database>>,
    org_counters: OrgCounters,
    /// Column type of each placeholder slot in the class's constant table.
    slot_types: Vec<DataType>,
}

impl SignatureRuntime {
    /// Current number of expressions in the equivalence class
    /// (`constantSetSize` in the catalog).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Is the class empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does a windowed trigger's entry live in this class? Such a class
    /// never takes the Figure-5 fan-out, whose partition tasks run after
    /// the drain position and would feed windows out of token order.
    pub fn windowed(&self) -> bool {
        self.windowed.load(Ordering::Relaxed) > 0
    }

    /// Current organization strategy (`constantSetOrganization`).
    pub fn org_kind(&self) -> OrgKind {
        self.org.read().kind()
    }

    /// Main-memory bytes used by the constant set (a database organization
    /// counts only its handle).
    pub fn memory_bytes(&self) -> usize {
        self.org.read().memory_bytes()
    }

    /// Name of the constant table used by db-backed strategies.
    pub fn const_table_name(&self) -> String {
        format!("const_table_{}", self.id.raw())
    }

    /// Add `entry`, whose constant vector is `consts`, to the class;
    /// returns its [`locator`].
    fn insert(&self, entry: Entry, consts: &[Value]) -> Result<u64> {
        let plan = &self.sig.index_plan;
        let at = locator(plan, consts);
        let mut org = self.org.write();
        org.insert(plan, entry, consts, at)?;
        // Promotion thresholds.
        let len = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        let kind = org.kind();
        let next_kind = match kind {
            OrgKind::MemList if len > self.config.list_to_index => {
                // A signature with no indexable part has no index to build.
                if matches!(self.sig.index_plan, IndexPlan::None) {
                    None
                } else {
                    Some(OrgKind::MemIndex)
                }
            }
            OrgKind::MemIndex if len > self.config.index_to_db && self.db.is_some() => {
                Some(OrgKind::DbIndexed)
            }
            _ => None,
        };
        if let Some(next) = next_kind {
            self.switch_locked(&mut org, next)?;
        }
        Ok(at)
    }

    /// Force a specific organization (experiments and tests; organizations
    /// are otherwise chosen only by promotion as the class grows).
    pub fn set_org(&self, kind: OrgKind) -> Result<()> {
        let mut org = self.org.write();
        if org.kind() == kind {
            return Ok(());
        }
        self.switch_locked(&mut org, kind)
    }

    /// Move the class into a fresh organization of `kind`. `org` is left as
    /// it was until the fresh one holds every entry, so a switch that fails
    /// — a target that cannot be built, an insert that fails — loses none.
    fn switch_locked(&self, org: &mut Org, kind: OrgKind) -> Result<()> {
        // Strategies 3 and 4 are the class's one constant table, so from
        // one to the other the entries go through memory.
        if kind.in_db() && org.kind().in_db() {
            self.switch_locked(org, OrgKind::MemList)?;
            return self.switch_locked(org, kind);
        }
        let table_name = self.const_table_name();
        let db = self.db.as_ref();
        // The class's own table is dropped when it leaves the database, so
        // a table found under its name is left over from an earlier run.
        if let Some(db) = db.filter(|db| kind.in_db() && db.has_table(&table_name)) {
            db.drop_table(&table_name)?;
        }
        let mut fresh = Org::new(kind, &self.sig, &self.slot_types, &table_name, db)?;
        let (plan, mut rows) = (&self.sig.index_plan, Vec::with_capacity(self.len()));
        org.for_each_row(plan, self.sig.num_consts, &mut |e, consts| {
            rows.push((*e, consts))
        })?;
        for (e, consts) in rows {
            fresh.insert(plan, e, &consts, locator(plan, &consts))?;
        }
        let left_db = org.kind().in_db();
        *org = fresh;
        match db {
            Some(db) if left_db => db.drop_table(&table_name),
            _ => Ok(()),
        }
    }

    /// The one probe routine: match every probe of `probes` against
    /// partition `part` of `nparts` of the constant set under a **single**
    /// organization read-lock hold, delivering `(tag, entry, span)` for
    /// every full match — `span` being the id of the probe's `SigProbe`
    /// trace span ([`ROOT_SPAN`] for an untraced token), which the caller
    /// parents its pin and action spans to.
    ///
    /// Keys are read in place, never gathered. Under an equality plan a
    /// probe's key columns are hashed once, here; the hash finds the
    /// probes whose keys repeat inside the batch (by sorting — a batch of
    /// distinct keys pays a hash and a `u64` sort and nothing else), which
    /// then share one organization lookup, and goes down with the lookup,
    /// so the table the key is filed in never hashes it again. Range
    /// and scan plans loop per probe, still amortizing the lock hold and
    /// the counter updates, which are added once per call.
    ///
    /// Figure 5's partitioned probe: only entries in partition `part` of
    /// `nparts` are considered (`0` of `1` is the whole class). Partition
    /// assignment hashes the entry's **stable** `expr_id`
    /// (`expr_id % nparts`), not its position in the candidate set:
    /// positions shift under concurrent inserts/removes and organization
    /// switches, which would let one fan-out's partition tasks visit an
    /// entry twice or not at all. By identity, the assignment is the same
    /// for every task of a fan-out regardless of interleaved mutations, and
    /// the union over all `nparts` partitions is exactly the unpartitioned
    /// candidate set.
    ///
    /// For any one tag the delivered entries and their order are identical
    /// to those of a batch holding that probe alone; tags are delivered
    /// in no particular order. A traced probe always runs alone, so its
    /// `SigProbe` span (and the aggregated
    /// [`RestTest`](SpanKind::RestTest) child: summed residual-test time,
    /// `arg_b` the test count) measures that token's lookup only; the
    /// clock is read only then.
    pub fn probe_batch(
        &self,
        probes: &[Probe<'_>],
        part: usize,
        nparts: usize,
        stats: &IndexStats,
        visit: &mut dyn FnMut(usize, &Entry, u32),
    ) -> Result<()> {
        if probes.is_empty() {
            return Ok(());
        }
        let org = self.org.read();
        let org_kind = org.kind();
        let n = probes.len() as u64;
        stats.probes.add(n);
        self.org_counters.probes(org_kind, n);
        let plan = &self.sig.index_plan;
        let needs_full = matches!(plan, IndexPlan::None);
        let resid = if needs_full {
            Some(&self.sig.generalized)
        } else {
            self.sig.residual.as_ref()
        };
        // The constant vector a residual test reads: each candidate's row is
        // written into it, over the last one's. On the stack up to
        // `INLINE_CONSTS` constants, so a probe of one token allocates
        // nothing for it.
        const INLINE_CONSTS: usize = 8;
        let (mut inline, mut spilled) = (None, Vec::new());
        let consts: &mut [Value] = match resid {
            None => &mut [],
            Some(_) if self.sig.num_consts <= INLINE_CONSTS => {
                let inline = inline.insert([const { Value::Null }; INLINE_CONSTS]);
                &mut inline[..self.sig.num_consts]
            }
            Some(_) => {
                spilled.resize(self.sig.num_consts, Value::Null);
                &mut spilled
            }
        };
        let (mut residual_tests, mut matched) = (0u64, 0u64);
        // One organization lookup shared by every probe in `members`
        // (indices into `probes`; several only for an untraced repeat key).
        let mut run = |vals: &ProbeValues<'_>, members: &[u32]| -> Result<()> {
            let lead = &probes[members[0] as usize];
            let mut span = lead.trace.span(SpanKind::SigProbe, lead.parent_span);
            span.set_args(
                self.id.raw() as u64,
                ((part as u64) << 32) | (nparts as u64 & 0xffff_ffff),
            );
            let timed = span.is_active();
            let (mut rest_count, mut rest_ns, mut rest_start) = (0u64, 0u64, 0u64);
            let mut err: Option<tman_common::TmanError> = None;
            org.probe(plan, vals, &mut |e, held| {
                if err.is_some() || (nparts > 1 && e.expr_id.raw() % nparts as u64 != part as u64) {
                    return;
                }
                if resid.is_some() {
                    held.fill(e, consts);
                }
                for &m in members {
                    let p = &probes[m as usize];
                    let passed = match resid {
                        None => true,
                        Some(resid) => {
                            residual_tests += 1;
                            let bind = Some(p.tuple);
                            let env = Env {
                                tuples: std::slice::from_ref(&bind),
                                consts,
                            };
                            let t0 = if timed { now_ns() } else { 0 };
                            let verdict = resid.matches(&env);
                            if timed {
                                if rest_count == 0 {
                                    rest_start = t0;
                                }
                                rest_count += 1;
                                rest_ns += now_ns().saturating_sub(t0);
                            }
                            match verdict {
                                Ok(b) => b,
                                Err(e2) => {
                                    err = Some(e2);
                                    return;
                                }
                            }
                        }
                    };
                    if passed {
                        matched += 1;
                        visit(p.tag, e, span.id());
                    }
                }
            })?;
            if rest_count > 0 {
                span.child_complete(SpanKind::RestTest, rest_start, rest_ns, 0, rest_count);
            }
            err.map_or(Ok(()), Err)
        };
        let result = (|| -> Result<()> {
            match plan {
                IndexPlan::Equality { cols, .. } => {
                    let key = |i: u32, hash: u64| KeyRef {
                        hash,
                        tuple: probes[i as usize].tuple,
                        cols,
                    };
                    // (key hash, probe index) of every probe that may share a
                    // lookup; equal keys end up adjacent, in arrival order.
                    let mut order: Vec<(u64, u32)> = Vec::new();
                    for (i, p) in probes.iter().enumerate() {
                        let hash = key_hash(cols.iter().map(|&c| p.tuple.get(c)));
                        let key = key(i as u32, hash);
                        if key.values().any(Value::is_null) {
                            continue; // NULL never satisfies equality
                        }
                        if probes.len() == 1 || p.trace.is_active() {
                            run(&ProbeValues::Key(key), &[i as u32])?;
                        } else {
                            order.push((hash, i as u32));
                        }
                    }
                    order.sort_unstable();
                    let mut members: Vec<u32> = Vec::new();
                    for same_hash in order.chunk_by(|a, b| a.0 == b.0) {
                        let (hash, first) = same_hash[0];
                        let lead = key(first, hash);
                        members.clear();
                        members.push(first);
                        for &(_, m) in &same_hash[1..] {
                            let key = key(m, hash);
                            if key.values().eq(lead.values()) {
                                members.push(m);
                            } else {
                                // A different key under the same hash.
                                run(&ProbeValues::Key(key), &[m])?;
                            }
                        }
                        run(&ProbeValues::Key(lead), &members)?;
                    }
                    Ok(())
                }
                IndexPlan::Range { col, .. } => {
                    for (i, p) in probes.iter().enumerate() {
                        let v = p.tuple.get(*col);
                        if !v.is_null() {
                            run(&ProbeValues::Stab(v), &[i as u32])?;
                        }
                    }
                    Ok(())
                }
                IndexPlan::None => {
                    for i in 0..probes.len() {
                        run(&ProbeValues::All, &[i as u32])?;
                    }
                    Ok(())
                }
            }
        })();
        if residual_tests > 0 {
            stats.residual_tests.add(residual_tests);
        }
        if matched > 0 {
            stats.matches.add(matched);
            self.org_counters.matches(org_kind, matched);
        }
        result
    }

    /// Remove the entries `trigger_id` holds where `locator` says (see
    /// [`Org::remove`]), handing each to `gone`.
    fn remove(
        &self,
        trigger_id: TriggerId,
        locator: u64,
        gone: &mut dyn FnMut(&Entry),
    ) -> Result<usize> {
        tick(Work::WriteLock);
        let mut org = self.org.write();
        let n = org.remove(trigger_id, locator, gone)?;
        self.len.fetch_sub(n, Ordering::Relaxed);
        Ok(n)
    }

    /// Visit all entries (diagnostics / tests).
    pub fn for_each_entry(&self, visit: &mut dyn FnMut(&Entry)) -> Result<()> {
        self.org.read().for_each_entry(visit)
    }
}

/// What a drain needs to know about one data source, decided by DDL and
/// immutable once published: the signature list of Figure 3, in
/// registration order. A drain loads it once per batch
/// ([`DataSourceIndex::plan`]) and walks it without a lock. It is
/// republished — a copy of this list, never of anything population-sized
/// — only when a signature is founded; adding or dropping a trigger inside
/// existing signatures touches the constant sets (and their counts, such
/// as [`SignatureRuntime::windowed`]) alone.
#[derive(Default)]
pub struct MatchPlan {
    /// The source's signatures: event code, update columns and index plan
    /// are immutable fields of each one's `sig`, read without a lock.
    pub sigs: Vec<Arc<SignatureRuntime>>,
}

/// The per-data-source index: the expression signature list of Figure 3.
pub struct DataSourceIndex {
    /// The source this index serves.
    pub data_src: DataSourceId,
    /// The source's schema (update-column resolution, probe typing).
    pub schema: Schema,
    plan: RwLock<Arc<MatchPlan>>,
}

impl DataSourceIndex {
    /// The published match plan.
    pub fn plan(&self) -> Arc<MatchPlan> {
        self.plan.read().clone()
    }

    /// Signatures registered on this source (DDL and diagnostics; a drain
    /// reads [`plan`](Self::plan)).
    pub fn signatures(&self) -> Vec<Arc<SignatureRuntime>> {
        self.plan().sigs.clone()
    }
}

/// Where each trigger's entries are: what [`PredicateIndex::remove_trigger`]
/// looks up instead of searching every constant set. One record per entry
/// — the class it is in and where in it ([`locator`]), no constants —
/// chained per trigger through one arena.
#[derive(Default)]
struct Directory {
    /// Trigger → its first record in `records`, paged by trigger id.
    heads: IdTable<u32>,
    records: Vec<Record>,
    /// First record of the free chain.
    free: Option<u32>,
    /// The classes records name, by [`SignatureId`].
    classes: Vec<Option<Arc<SignatureRuntime>>>,
}

/// The `next` of a chain's last record.
const END: u32 = u32::MAX;

struct Record {
    /// The entry's [`locator`] in its class.
    locator: u64,
    /// The class, by [`SignatureId`].
    class: u32,
    /// Next record of the same trigger (or of the free chain), or [`END`].
    next: u32,
}

impl Directory {
    fn push(&mut self, trigger: TriggerId, class: &Arc<SignatureRuntime>, locator: u64) {
        let id = class.id.raw();
        if self.classes.len() <= id as usize {
            self.classes.resize(id as usize + 1, None);
        }
        self.classes[id as usize].get_or_insert_with(|| class.clone());
        let record = Record {
            locator,
            class: id,
            next: self.heads.get(trigger).copied().unwrap_or(END),
        };
        let at = match self.free {
            Some(at) => {
                let next = std::mem::replace(&mut self.records[at as usize], record).next;
                self.free = (next != END).then_some(next);
                at
            }
            None => {
                self.records.push(record);
                // A length that fits a `u32` leaves the index below `END`.
                u32::try_from(self.records.len()).expect("fewer than 4 Gi index entries") - 1
            }
        };
        self.heads.insert(trigger, at);
    }

    /// Take `trigger`'s records out, newest first: each entry's class and
    /// locator.
    fn take(&mut self, trigger: TriggerId) -> Vec<(Arc<SignatureRuntime>, u64)> {
        let mut out = Vec::new();
        let mut next = self.heads.remove(trigger).unwrap_or(END);
        while next != END {
            let freed = Record {
                locator: 0,
                class: 0,
                next: self.free.unwrap_or(END),
            };
            let record = std::mem::replace(&mut self.records[next as usize], freed);
            self.free = Some(next);
            next = record.next;
            let class = self.classes[record.class as usize].clone();
            out.push((class.expect("a record's class"), record.locator));
        }
        out
    }

    /// Heap bytes held: the heads' pages and the arenas' capacity.
    fn memory_bytes(&self) -> usize {
        self.heads.memory_bytes()
            + self.records.capacity() * std::mem::size_of::<Record>()
            + self.classes.capacity() * std::mem::size_of::<Option<Arc<SignatureRuntime>>>()
    }
}

/// The root predicate index (Figure 3).
pub struct PredicateIndex {
    config: IndexConfig,
    db: Option<Arc<Database>>,
    /// `Arc`, like `directory`, so the registry's computed reads of the
    /// population (`tman_index_{signatures,entries,memory_bytes}`) can
    /// hold it.
    sources: Arc<SourceMap>,
    /// Held across an entry's insertion or a trigger's removal, so it and
    /// the constant sets always agree. Probes never take it.
    directory: Arc<Mutex<Directory>>,
    /// Live entries marked [`ExprId::TAGGED`] (`Arc` so the registry can
    /// read it as the `tman_tagged_entries` instrument).
    tagged: Arc<AtomicU64>,
    next_sig: AtomicU32,
    stats: IndexStats,
    org_counters: OrgCounters,
}

impl PredicateIndex {
    /// Memory-only index (strategies 3/4 unavailable).
    pub fn new(config: IndexConfig) -> PredicateIndex {
        PredicateIndex {
            config,
            db: None,
            sources: Arc::default(),
            directory: Arc::default(),
            tagged: Arc::default(),
            next_sig: AtomicU32::new(1),
            stats: IndexStats::default(),
            org_counters: OrgCounters::default(),
        }
    }

    /// Index with a database attached for the disk-backed organizations.
    pub fn with_database(config: IndexConfig, db: Arc<Database>) -> PredicateIndex {
        let mut ix = Self::new(config);
        ix.db = Some(db);
        ix
    }

    /// Match/probe counters.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Register the index's series in `registry`: its counters, labeled
    /// by organization where they are counted by one, and computed reads
    /// of the levels it keeps.
    pub fn attach_telemetry(&self, registry: &Registry) {
        let s = &self.stats;
        for (name, counter) in [
            ("tman_index_tokens_total", &s.tokens),
            ("tman_index_signatures_probed_total", &s.signatures_probed),
            ("tman_index_probes_all_total", &s.probes),
            ("tman_index_residual_tests_total", &s.residual_tests),
            ("tman_index_matches_all_total", &s.matches),
        ] {
            registry.register_counter(name, &[], counter.clone());
        }
        let orgs = &self.org_counters;
        for (i, org) in ORG_LABELS.iter().enumerate() {
            let label = &[("org", *org)];
            registry.register_counter("tman_index_probes_total", label, orgs.probes[i].clone());
            registry.register_counter("tman_index_matches_total", label, orgs.matches[i].clone());
        }
        // Levels, so computed reads of what the index already keeps.
        let tagged = self.tagged.clone();
        registry.register_gauge_fn("tman_tagged_entries", &[], move || {
            tagged.load(Ordering::Relaxed) as i64
        });
        let sources = self.sources.clone();
        registry.register_gauge_fn("tman_index_signatures", &[], move || {
            num_signatures(&sources) as i64
        });
        let sources = self.sources.clone();
        registry.register_gauge_fn("tman_index_entries", &[], move || {
            num_entries(&sources) as i64
        });
        let (sources, directory) = (self.sources.clone(), self.directory.clone());
        registry.register_gauge_fn("tman_index_memory_bytes", &[], move || {
            memory_bytes(&sources, &directory) as i64
        });
    }

    /// Register (or look up) a data source.
    pub fn register_source(&self, data_src: DataSourceId, schema: &Schema) -> Arc<DataSourceIndex> {
        let mut sources = self.sources.write();
        sources
            .entry(data_src)
            .or_insert_with(|| {
                Arc::new(DataSourceIndex {
                    data_src,
                    schema: schema.clone(),
                    plan: RwLock::default(),
                })
            })
            .clone()
    }

    /// The index for a source, if registered.
    pub fn source(&self, data_src: DataSourceId) -> Option<Arc<DataSourceIndex>> {
        self.sources.read().get(&data_src).cloned()
    }

    /// §5.1 step 5: register one selection predicate. Finds or creates the
    /// signature (comparing against the source's expression signature
    /// list), then adds the constants row to the signature's constant set.
    /// Returns the signature runtime and whether it was newly created.
    #[allow(clippy::too_many_arguments)] // mirrors the const_tableN row
    pub fn add_predicate(
        &self,
        data_src: DataSourceId,
        schema: &Schema,
        sig: SelectionSignature,
        consts: Vec<Value>,
        expr_id: ExprId,
        trigger_id: TriggerId,
        next_node: NodeId,
    ) -> Result<(Arc<SignatureRuntime>, bool)> {
        let src = self.register_source(data_src, schema);
        // The write lock serializes registrations; drains hold the plan
        // they loaded, not the lock.
        let mut plan = src.plan.write();
        let existing = plan.sigs.iter().find(|s| s.sig.key == sig.key);
        let (rt, is_new) = match existing {
            Some(s) => (s.clone(), false),
            None => {
                let id = SignatureId(self.next_sig.fetch_add(1, Ordering::Relaxed));
                let rt = Arc::new(SignatureRuntime {
                    id,
                    org: RwLock::new(Org::new(
                        OrgKind::MemList,
                        &sig,
                        &[],
                        &format!("const_table_{}", id.raw()),
                        self.db.as_ref(),
                    )?),
                    len: AtomicUsize::new(0),
                    windowed: AtomicUsize::new(0),
                    slot_types: sig.slot_types(schema),
                    sig,
                    config: self.config.clone(),
                    db: self.db.clone(),
                    org_counters: self.org_counters.clone(),
                });
                let mut sigs = plan.sigs.clone();
                sigs.push(rt.clone());
                *plan = Arc::new(MatchPlan { sigs });
                (rt, true)
            }
        };
        drop(plan);
        self.add_to_class(&rt, consts, expr_id, trigger_id, next_node)?;
        Ok((rt, is_new))
    }

    /// The equivalence class `key` names, if it has been created. A
    /// predicate whose class exists joins it through
    /// [`add_to_class`](Self::add_to_class) and needs no
    /// [`SelectionSignature`] of its own.
    pub fn class(&self, key: &SignatureKey) -> Option<Arc<SignatureRuntime>> {
        let plan = self.source(key.data_src)?.plan();
        plan.sigs.iter().find(|s| s.sig.key == *key).cloned()
    }

    /// Add one entry to `class`, a class of this index: the second half of
    /// [`add_predicate`](Self::add_predicate). The index counts the flag
    /// bits of `expr_id` ([`ExprId::is_tagged`], [`ExprId::is_windowed`])
    /// until the entry is removed.
    pub fn add_to_class(
        &self,
        class: &Arc<SignatureRuntime>,
        consts: Vec<Value>,
        expr_id: ExprId,
        trigger_id: TriggerId,
        next_node: NodeId,
    ) -> Result<()> {
        let mut directory = self.directory.lock();
        let windowed = usize::from(expr_id.is_windowed());
        class.windowed.fetch_add(windowed, Ordering::Relaxed);
        let entry = Entry {
            expr_id,
            trigger_id,
            next_node,
            row: 0,
        };
        let at = class
            .insert(entry, &consts)
            .inspect_err(|_| _ = class.windowed.fetch_sub(windowed, Ordering::Relaxed))?;
        let tagged = u64::from(expr_id.is_tagged());
        self.tagged.fetch_add(tagged, Ordering::Relaxed);
        directory.push(trigger_id, class, at);
        Ok(())
    }

    /// Remove all predicates of a trigger. Returns the number of entries
    /// removed. The directory says which classes hold them and under which
    /// constants, so only those classes are write-locked, each for the
    /// time it takes to reach the entry. Signatures whose equivalence
    /// class becomes empty are kept (the paper keeps catalog rows too;
    /// re-creation is cheap either way).
    pub fn remove_trigger(&self, trigger_id: TriggerId) -> Result<usize> {
        let mut directory = self.directory.lock();
        let mut records = directory.take(trigger_id).into_iter();
        let mut n = 0;
        while let Some((class, at)) = records.next() {
            // The flag bits of what goes, counted down as it goes.
            let (mut windowed, mut tagged) = (0, 0);
            let mut gone = |e: &Entry| {
                windowed += usize::from(e.expr_id.is_windowed());
                tagged += u64::from(e.expr_id.is_tagged());
            };
            let removed = class.remove(trigger_id, at, &mut gone);
            class.windowed.fetch_sub(windowed, Ordering::Relaxed);
            self.tagged.fetch_sub(tagged, Ordering::Relaxed);
            match removed {
                Ok(removed) => n += removed,
                Err(e) => {
                    // What was not removed stays findable, for a retry.
                    directory.push(trigger_id, &class, at);
                    records.for_each(|(class, at)| directory.push(trigger_id, &class, at));
                    return Err(e);
                }
            }
        }
        Ok(n)
    }

    /// §5.4 for a run of `n` tokens of one data source — the one walk over
    /// a source's signature list. `token(i)` is the run's `i`th token and
    /// the span its probes are opened under. The source's [`MatchPlan`] is
    /// loaded once; then, signature by signature, every token whose
    /// operation the event code accepts and whose update columns it
    /// touches is probed with its [`probe_tuple`](UpdateDescriptor::probe_tuple)
    /// in one [`probe_batch`](SignatureRuntime::probe_batch) call — unless
    /// `fan` takes the signature out of the walk, which then reports the
    /// token as [`Found::Split`] instead. With `retract`, the same call
    /// also probes the old image of every update token against each `any`
    /// signature, fanned or not (a stored memory holds that image), and
    /// reports what it matches as [`Found::Retract`].
    ///
    /// For any one token, what it finds comes in signature order, entry
    /// order within a signature. A signature whose probe fails is reported
    /// as an `Err` and the walk goes on with the next one.
    pub fn match_run<'t>(
        &self,
        n: usize,
        token: impl Fn(usize) -> (&'t UpdateDescriptor, u32),
        retract: bool,
        fan: impl Fn(&SignatureRuntime) -> bool,
        mut visit: impl FnMut(Result<Found<'_>>),
    ) {
        if n == 0 {
            return;
        }
        self.stats.tokens.add(n as u64);
        let Some(src) = self.source(token(0).0.data_src) else {
            return;
        };
        let plan = src.plan();
        // A retraction is maintenance, never traced: only the match probe
        // opens a `SigProbe` span.
        let untraced = TraceHandle::none();
        let mut probes: Vec<Probe<'_>> = Vec::with_capacity(n);
        for sig in &plan.sigs {
            let split = fan(sig);
            let retracts = retract && sig.sig.key.event == EventKind::Any;
            probes.clear();
            let mut accepted = 0u64;
            for i in 0..n {
                let (tok, parent_span) = token(i);
                if sig.sig.key.event.accepts(tok.op) && tok.touches_columns(&sig.sig.update_cols) {
                    accepted += 1;
                    if split {
                        visit(Ok(Found::Split { tok: i, sig }));
                    } else {
                        probes.push(Probe {
                            tag: i << 1,
                            tuple: tok.probe_tuple(),
                            trace: &tok.trace,
                            parent_span,
                        });
                    }
                }
                if let (true, TokenOp::Update, Some(old)) = (retracts, tok.op, &tok.old) {
                    probes.push(Probe {
                        tag: (i << 1) | 1,
                        tuple: old,
                        trace: &untraced,
                        parent_span: ROOT_SPAN,
                    });
                }
            }
            self.stats.signatures_probed.add(accepted);
            let probed = sig.probe_batch(&probes, 0, 1, &self.stats, &mut |tag, entry, span| {
                let tok = tag >> 1;
                visit(Ok(match tag & 1 {
                    0 => Found::Match { tok, entry, span },
                    _ => Found::Retract { tok, entry },
                }))
            });
            if let Err(e) = probed {
                visit(Err(e));
            }
        }
    }

    /// §5.4: take an update descriptor and identify all predicates that
    /// match it — [`match_run`](Self::match_run) over a run of one.
    pub fn match_token(
        &self,
        token: &UpdateDescriptor,
        visit: &mut dyn FnMut(PredMatch),
    ) -> Result<()> {
        let mut failed = None;
        let never = |_: &SignatureRuntime| false;
        self.match_run(
            1,
            |_| (token, ROOT_SPAN),
            false,
            never,
            |found| match found {
                Ok(Found::Match { entry: e, .. }) => visit(PredMatch {
                    expr_id: e.expr_id,
                    trigger_id: e.trigger_id,
                    next_node: e.next_node,
                }),
                Ok(_) => {}
                Err(e) => _ = failed.get_or_insert(e),
            },
        );
        failed.map_or(Ok(()), Err)
    }

    /// Collect matches into a vector (tests / simple callers).
    pub fn match_token_vec(&self, token: &UpdateDescriptor) -> Result<Vec<PredMatch>> {
        let mut out = Vec::new();
        self.match_token(token, &mut |m| out.push(m))?;
        Ok(out)
    }

    /// Total number of unique signatures across all sources.
    pub fn num_signatures(&self) -> usize {
        num_signatures(&self.sources)
    }

    /// Live entries marked [`ExprId::TAGGED`] (the `tman_tagged_entries`
    /// level).
    pub fn tagged_entries(&self) -> u64 {
        self.tagged.load(Ordering::Relaxed)
    }

    /// Total number of predicate entries.
    pub fn num_entries(&self) -> usize {
        num_entries(&self.sources)
    }

    /// Main-memory footprint of all constant sets and of the removal
    /// directory.
    pub fn memory_bytes(&self) -> usize {
        memory_bytes(&self.sources, &self.directory)
    }

    /// Every signature runtime across all sources.
    pub fn all_signatures(&self) -> Vec<Arc<SignatureRuntime>> {
        all_signatures(&self.sources)
    }
}

/// The per-source indexes, by data source.
type SourceMap = RwLock<FxHashMap<DataSourceId, Arc<DataSourceIndex>>>;

fn all_signatures(sources: &SourceMap) -> Vec<Arc<SignatureRuntime>> {
    sources
        .read()
        .values()
        .flat_map(|s| s.signatures())
        .collect()
}

fn num_signatures(sources: &SourceMap) -> usize {
    sources.read().values().map(|s| s.plan().sigs.len()).sum()
}

fn num_entries(sources: &SourceMap) -> usize {
    all_signatures(sources).iter().map(|rt| rt.len()).sum()
}

fn memory_bytes(sources: &SourceMap, directory: &Mutex<Directory>) -> usize {
    let sets = all_signatures(sources)
        .into_iter()
        .map(|rt| rt.memory_bytes());
    sets.sum::<usize>() + directory.lock().memory_bytes()
}

#[cfg(test)]
mod tests;
