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
//!   nextNetworkNode, constants)` — the `const_tableN` row.
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
//! Figure 5's partitioned probing for condition-level concurrency is
//! exposed through [`SignatureRuntime::probe_partition`].

pub mod eqtable;
pub mod interval;
pub mod org;

pub use org::{Entry, KeyRef, Org, OrgKind, ProbeValues};

use eqtable::key_hash;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::stats::IndexStats;
use tman_common::{
    DataSourceId, DataType, ExprId, NodeId, Result, Schema, SignatureId, TriggerId, Tuple,
    UpdateDescriptor, Value,
};
use tman_expr::scalar::Env;
use tman_expr::{IndexPlan, SelectionSignature};
use tman_sql::Database;
use tman_telemetry::trace::{now_ns, ROOT_SPAN};
use tman_telemetry::{CounterHandle, Registry, SpanKind, TraceHandle};

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

/// Per-organization probe/match counters (`tman_index_probes_total{org=..}`
/// / `tman_index_matches_total{org=..}`): one pre-resolved handle pair per
/// [`OrgKind`], so the hot probe path never touches the registry. Default
/// (telemetry not attached) is all no-op handles.
#[derive(Clone)]
pub struct OrgCounters {
    probes: [CounterHandle; 5],
    matches: [CounterHandle; 5],
}

/// Fixed slot per organization kind.
fn org_slot(kind: OrgKind) -> usize {
    match kind {
        OrgKind::MemList => 0,
        OrgKind::MemListDenorm => 1,
        OrgKind::MemIndex => 2,
        OrgKind::DbTable => 3,
        OrgKind::DbIndexed => 4,
    }
}

/// Label values used for the `org` dimension, index-aligned with
/// [`OrgCounters`]'s slots.
pub const ORG_LABELS: [&str; 5] = [
    "mem_list",
    "mem_list_denorm",
    "mem_index",
    "db_table",
    "db_indexed_table",
];

impl Default for OrgCounters {
    fn default() -> OrgCounters {
        OrgCounters {
            probes: std::array::from_fn(|_| CounterHandle::noop()),
            matches: std::array::from_fn(|_| CounterHandle::noop()),
        }
    }
}

impl OrgCounters {
    /// Resolve the labeled counter families from a registry.
    pub fn from_registry(registry: &Registry) -> OrgCounters {
        OrgCounters {
            probes: std::array::from_fn(|i| {
                registry.counter("tman_index_probes_total", &[("org", ORG_LABELS[i])])
            }),
            matches: std::array::from_fn(|i| {
                registry.counter("tman_index_matches_total", &[("org", ORG_LABELS[i])])
            }),
        }
    }

    #[inline]
    fn probes(&self, kind: OrgKind, n: u64) {
        self.probes[org_slot(kind)].add(n);
    }

    #[inline]
    fn matches(&self, kind: OrgKind, n: u64) {
        self.matches[org_slot(kind)].add(n);
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
    /// Tagged execution of disjunctions (Kim & Madden): when a selection
    /// predicate's only obstacle to indexing is an OR over individually
    /// selectable atoms, the engine registers one entry per disjunct —
    /// each with a shared per-predicate tag deduped per token — instead of
    /// one residual-scan entry. Disable to force the legacy residual-scan
    /// behavior (the E15 baseline and the disjunction oracle's reference).
    pub tagged_disjunctions: bool,
}

impl Default for IndexConfig {
    fn default() -> IndexConfig {
        IndexConfig {
            list_to_index: 32,
            index_to_db: usize::MAX,
            tagged_disjunctions: true,
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

    /// Current organization strategy (`constantSetOrganization`).
    pub fn org_kind(&self) -> OrgKind {
        self.org.read().kind()
    }

    /// Main-memory bytes used by the constant set (see
    /// [`Org::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.org.read().memory_bytes()
    }

    /// Name of the constant table used by db-backed strategies.
    pub fn const_table_name(&self) -> String {
        format!("const_table_{}", self.id.raw())
    }

    /// Add `entry` to the class; returns the constant vector it holds
    /// there.
    fn insert(&self, entry: Entry) -> Result<Arc<[Value]>> {
        let mut org = self.org.write();
        let consts = org.insert(&self.sig.index_plan, entry)?;
        // Promotion thresholds.
        let len = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        let kind = org.kind();
        let next_kind = match kind {
            OrgKind::MemList | OrgKind::MemListDenorm if len > self.config.list_to_index => {
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
        Ok(consts)
    }

    /// Force a specific organization (experiments; also used at recovery to
    /// restore the catalog's recorded organization).
    pub fn set_org(&self, kind: OrgKind) -> Result<()> {
        let mut org = self.org.write();
        if org.kind() == kind {
            return Ok(());
        }
        self.switch_locked(&mut org, kind)
    }

    fn switch_locked(&self, org: &mut Org, kind: OrgKind) -> Result<()> {
        let table_name = self.const_table_name();
        let entries = org.drain_entries()?;
        // Reuse an existing constant table when switching between db
        // strategies repeatedly: drop it first if present.
        if matches!(kind, OrgKind::DbTable | OrgKind::DbIndexed) {
            if let Some(db) = &self.db {
                if db.has_table(&table_name) {
                    db.drop_table(&table_name)?;
                }
            }
        }
        let mut fresh = Org::new(
            kind,
            &self.sig,
            &self.slot_types,
            &table_name,
            self.db.as_ref(),
        )?;
        for e in entries {
            fresh.insert(&self.sig.index_plan, e)?;
        }
        *org = fresh;
        Ok(())
    }

    /// Probe the constant set with a token tuple, delivering fully-matched
    /// entries (indexable part *and* residual) to `visit`.
    pub fn probe(
        &self,
        tuple: &Tuple,
        stats: &IndexStats,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<()> {
        self.probe_partition(tuple, 0, 1, stats, visit)
    }

    /// Figure-5 partitioned probe: only entries in partition `part` of
    /// `nparts` are considered. Partition assignment hashes the entry's
    /// **stable** `expr_id` (`expr_id % nparts`), not its position in the
    /// candidate set: positions shift under concurrent inserts/removes and
    /// organization switches, which would let one fan-out's partition tasks
    /// visit an entry twice or not at all. By identity, the assignment is
    /// the same for every task of a fan-out regardless of interleaved
    /// mutations, and the union over all `nparts` partitions is exactly
    /// the unpartitioned candidate set. `probe(t, ...)` is equivalent to
    /// `probe_partition(t, 0, 1, ...)`.
    pub fn probe_partition(
        &self,
        tuple: &Tuple,
        part: usize,
        nparts: usize,
        stats: &IndexStats,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<()> {
        let probe = Probe {
            tag: 0,
            tuple,
            trace: &TraceHandle::none(),
            parent_span: ROOT_SPAN,
        };
        self.probe_batch(&[probe], part, nparts, stats, &mut |_, e, _| visit(e))
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
    /// For any one tag the delivered entries and their order are identical
    /// to `probe_partition(tuple, part, nparts, ...)`; tags are delivered
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
            org.probe(plan, vals, &mut |e| {
                if err.is_some() || (nparts > 1 && e.expr_id.raw() % nparts as u64 != part as u64) {
                    return;
                }
                let resid = if needs_full {
                    Some(&self.sig.generalized)
                } else {
                    self.sig.residual.as_ref()
                };
                for &m in members {
                    let p = &probes[m as usize];
                    let passed = match resid {
                        None => true,
                        Some(resid) => {
                            residual_tests += 1;
                            let bind = Some(p.tuple);
                            let env = Env {
                                tuples: std::slice::from_ref(&bind),
                                consts: &e.consts,
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

    /// Stable shard assignment: which engine shard owns this signature's
    /// async fan-out work. Hashes the dense signature id — the same
    /// stable-identity discipline as the `expr_id % nparts` partition
    /// filter, so the owner never moves under inserts, drops, or
    /// organization switches.
    pub fn shard_of(&self, nshards: usize) -> usize {
        if nshards <= 1 {
            0
        } else {
            self.id.raw() as usize % nshards
        }
    }

    /// Remove the entries `trigger_id` holds under `consts` (see
    /// [`Org::remove`]).
    fn remove(&self, trigger_id: TriggerId, consts: &[Value]) -> Result<usize> {
        tick(Work::WriteLock);
        let mut org = self.org.write();
        let n = org.remove(&self.sig.index_plan, trigger_id, consts)?;
        self.len.fetch_sub(n, Ordering::Relaxed);
        Ok(n)
    }

    /// Visit all entries (diagnostics / tests).
    pub fn for_each_entry(&self, visit: &mut dyn FnMut(&Entry)) -> Result<()> {
        self.org.read().for_each_entry(visit)
    }
}

/// One signature of a source's [`MatchPlan`].
#[derive(Clone)]
pub struct PlanSig {
    /// The signature: event code, update columns and index plan are
    /// immutable fields of `rt.sig`, read without a lock.
    pub rt: Arc<SignatureRuntime>,
    /// Windowed-threshold entries the engine registered in this signature
    /// (see [`DataSourceIndex::add_windowed`]).
    windowed_entries: usize,
}

impl PlanSig {
    /// Does a windowed trigger's entry live in this signature? Such a
    /// signature never takes the Figure-5 fan-out, whose partition tasks
    /// run after the drain position and would feed windows out of token
    /// order.
    pub fn windowed(&self) -> bool {
        self.windowed_entries > 0
    }
}

/// What a drain needs to know about one data source, decided by DDL and
/// immutable once published: the signature list of Figure 3, in
/// registration order. A drain loads it once per batch
/// ([`DataSourceIndex::plan`]) and walks it without a lock. It is
/// republished — a copy of this list, never of anything population-sized
/// — only when a signature is added or a signature-level fact changes;
/// adding or dropping a trigger inside existing signatures touches the
/// constant sets alone.
#[derive(Default)]
pub struct MatchPlan {
    /// The source's signatures.
    pub sigs: Vec<PlanSig>,
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
        self.plan().sigs.iter().map(|s| s.rt.clone()).collect()
    }

    /// Note `delta` more (or fewer) windowed-threshold entries in
    /// signature `sig` and republish the plan.
    pub fn add_windowed(&self, sig: SignatureId, delta: isize) {
        let mut plan = self.plan.write();
        let mut sigs = plan.sigs.clone();
        if let Some(s) = sigs.iter_mut().find(|s| s.rt.id == sig) {
            s.windowed_entries = s.windowed_entries.saturating_add_signed(delta);
        }
        *plan = Arc::new(MatchPlan { sigs });
    }
}

/// Where each trigger's entries are: what [`PredicateIndex::remove_trigger`]
/// looks up instead of searching every constant set. One record per entry
/// — the class it is in and the constant vector it holds there (the
/// entry's own allocation, shared, not a copy) — chained per trigger
/// through one arena.
#[derive(Default)]
struct Directory {
    /// Trigger → its first record in `records`.
    heads: FxHashMap<TriggerId, u32>,
    records: Vec<Record>,
    /// First record of the free chain.
    free: Option<u32>,
}

struct Record {
    /// `None` while the record is on the free chain.
    entry: Option<(Arc<SignatureRuntime>, Arc<[Value]>)>,
    /// Next record of the same trigger (or of the free chain).
    next: Option<u32>,
}

impl Directory {
    fn push(&mut self, trigger: TriggerId, class: Arc<SignatureRuntime>, consts: Arc<[Value]>) {
        let record = Record {
            entry: Some((class, consts)),
            next: self.heads.get(&trigger).copied(),
        };
        let at = match self.free {
            Some(at) => {
                self.free = std::mem::replace(&mut self.records[at as usize], record).next;
                at
            }
            None => {
                self.records.push(record);
                u32::try_from(self.records.len() - 1).expect("fewer than 4 Gi index entries")
            }
        };
        self.heads.insert(trigger, at);
    }

    /// Take `trigger`'s records out, newest first.
    fn take(&mut self, trigger: TriggerId) -> Vec<(Arc<SignatureRuntime>, Arc<[Value]>)> {
        let mut out = Vec::new();
        let mut next = self.heads.remove(&trigger);
        while let Some(at) = next {
            let freed = Record {
                entry: None,
                next: self.free,
            };
            let record = std::mem::replace(&mut self.records[at as usize], freed);
            self.free = Some(at);
            next = record.next;
            out.extend(record.entry);
        }
        out
    }

    /// Heap bytes held: the capacity of the map and of the arena.
    fn memory_bytes(&self) -> usize {
        // A hashbrown table of capacity c has 8c/7 buckets of one pair and
        // one control byte each.
        self.heads.capacity() * 8 / 7 * (std::mem::size_of::<(TriggerId, u32)>() + 1)
            + self.records.capacity() * std::mem::size_of::<Record>()
    }
}

/// The root predicate index (Figure 3).
pub struct PredicateIndex {
    config: IndexConfig,
    db: Option<Arc<Database>>,
    sources: RwLock<FxHashMap<DataSourceId, Arc<DataSourceIndex>>>,
    /// Held across an entry's insertion or a trigger's removal, so it and
    /// the constant sets always agree. Probes never take it.
    directory: Mutex<Directory>,
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
            sources: RwLock::new(FxHashMap::default()),
            directory: Mutex::default(),
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

    /// Wire per-organization probe/match counters into `registry` and
    /// register the aggregate [`IndexStats`] counters there too. Call
    /// before the first [`PredicateIndex::add_predicate`] — signatures
    /// capture the handles at creation time.
    pub fn attach_telemetry(&mut self, registry: &Arc<Registry>) {
        self.org_counters = OrgCounters::from_registry(registry);
        registry.register_counter("tman_index_tokens_total", &[], self.stats.tokens.clone());
        registry.register_counter(
            "tman_index_signatures_probed_total",
            &[],
            self.stats.signatures_probed.clone(),
        );
        registry.register_counter(
            "tman_index_probes_all_total",
            &[],
            self.stats.probes.clone(),
        );
        registry.register_counter(
            "tman_index_residual_tests_total",
            &[],
            self.stats.residual_tests.clone(),
        );
        registry.register_counter(
            "tman_index_matches_all_total",
            &[],
            self.stats.matches.clone(),
        );
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
        let existing = plan.sigs.iter().find(|s| s.rt.sig.key == sig.key);
        let (rt, is_new) = match existing {
            Some(s) => (s.rt.clone(), false),
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
                    slot_types: sig.slot_types(schema),
                    sig,
                    config: self.config.clone(),
                    db: self.db.clone(),
                    org_counters: self.org_counters.clone(),
                });
                let mut sigs = plan.sigs.clone();
                sigs.push(PlanSig {
                    rt: rt.clone(),
                    windowed_entries: 0,
                });
                *plan = Arc::new(MatchPlan { sigs });
                (rt, true)
            }
        };
        drop(plan);
        let mut directory = self.directory.lock();
        let consts = rt.insert(Entry {
            expr_id,
            trigger_id,
            next_node,
            consts: consts.into(),
        })?;
        directory.push(trigger_id, rt.clone(), consts);
        Ok((rt, is_new))
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
        while let Some((class, consts)) = records.next() {
            match class.remove(trigger_id, &consts) {
                Ok(removed) => n += removed,
                Err(e) => {
                    // What was not removed stays findable, for a retry.
                    directory.push(trigger_id, class, consts);
                    records.for_each(|(class, consts)| directory.push(trigger_id, class, consts));
                    return Err(e);
                }
            }
        }
        Ok(n)
    }

    /// §5.4: take an update descriptor and identify all predicates that
    /// match it.
    pub fn match_token(
        &self,
        token: &UpdateDescriptor,
        visit: &mut dyn FnMut(PredMatch),
    ) -> Result<()> {
        self.stats.tokens.bump();
        let Some(src) = self.source(token.data_src) else {
            return Ok(());
        };
        let tuple = token.probe_tuple();
        for sig in src.plan().sigs.iter().map(|s| &s.rt) {
            if !sig.sig.key.event.accepts(token.op) {
                continue;
            }
            if !token.touches_columns(&sig.sig.update_cols) {
                continue;
            }
            self.stats.signatures_probed.bump();
            sig.probe(tuple, &self.stats, &mut |e| {
                visit(PredMatch {
                    expr_id: e.expr_id,
                    trigger_id: e.trigger_id,
                    next_node: e.next_node,
                })
            })?;
        }
        Ok(())
    }

    /// Collect matches into a vector (tests / simple callers).
    pub fn match_token_vec(&self, token: &UpdateDescriptor) -> Result<Vec<PredMatch>> {
        let mut out = Vec::new();
        self.match_token(token, &mut |m| out.push(m))?;
        Ok(out)
    }

    /// Total number of unique signatures across all sources.
    pub fn num_signatures(&self) -> usize {
        self.sources
            .read()
            .values()
            .map(|s| s.plan().sigs.len())
            .sum()
    }

    /// Total number of predicate entries.
    pub fn num_entries(&self) -> usize {
        self.all_signatures().into_iter().map(|rt| rt.len()).sum()
    }

    /// Main-memory footprint of all constant sets and of the removal
    /// directory.
    pub fn memory_bytes(&self) -> usize {
        let sets = self
            .all_signatures()
            .into_iter()
            .map(|rt| rt.memory_bytes());
        sets.sum::<usize>() + self.directory.lock().memory_bytes()
    }

    /// Every signature runtime across all sources.
    pub fn all_signatures(&self) -> Vec<Arc<SignatureRuntime>> {
        self.sources
            .read()
            .values()
            .flat_map(|s| s.signatures())
            .collect()
    }
}

#[cfg(test)]
mod tests;
