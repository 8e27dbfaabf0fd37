//! DDL is one critical section (§5.1; DESIGN.md has the decision record).
//!
//! [`Ddl`] is every piece of state only DDL reads — sets by name with
//! their member counts, trigger names, the flagged index entries a drop
//! walks, the four id counters — behind one `Mutex` on `TriggerMan`. Every
//! command here, `define_*` and `recover` holds it from its first check to
//! its last insert, so a name tested is the name inserted and a set looked
//! up cannot be dropped before the trigger joining it is counted. Its
//! fields are private to this module: the drain, in `lib.rs`, cannot read
//! them, locked or not.
//!
//! [`Published`] is what the drain and the push path read instead — a
//! source by id, a set's enabled flag by id — replaced by swap from inside
//! the critical section ([`TriggerMan::republish`]), the way a source's
//! match plan is, so a reader loads an `Arc` and never waits on DDL.
//!
//! The catalog is *not* inside the mutex: its tables synchronise
//! themselves, and the drain's two calls (`trigger_by_id` on a cache miss,
//! `save_window` before an ack barrier) must not queue behind a `create
//! trigger` that is priming a join network.

use crate::catalog::{ConnectionRow, DataSourceRow, TriggerRow, TriggerSetRow};
use crate::compile::{self, compile_trigger};
use crate::source::{self, SourceInfo};
use crate::{CommandOutput, FlaggedEntry, TriggerMan, WindowState, EXPR_TAGGED, EXPR_WINDOWED};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::{
    DataSourceId, ExprId, NodeId, Result, Schema, TmanError, TriggerId, TriggerSetId,
};
use tman_expr::signature::analyze_selection;
use tman_expr::{decompose_disjunction, IndexPlan};
use tman_predindex::SignatureRuntime;

/// A trigger set as DDL holds it.
struct SetEntry {
    id: TriggerSetId,
    /// Shared by every trigger compiled into the set
    /// ([`CompiledTrigger::set_enabled`](crate::CompiledTrigger::set_enabled))
    /// and published by id.
    enabled: Arc<AtomicBool>,
    /// Triggers in the set: a set drops only at zero.
    members: usize,
}

/// A defined trigger: what `drop` and `enable` need from its name.
struct TriggerEntry {
    id: TriggerId,
    set: TriggerSetId,
}

/// DDL-only state. One value per engine, behind `TriggerMan::ddl`.
#[derive(Default)]
pub(crate) struct Ddl {
    /// Trigger sets by lower-cased name. Sets are few: the one lookup by
    /// id (a dropped trigger leaving its set) walks the values.
    sets: FxHashMap<String, SetEntry>,
    /// Triggers by lower-cased name.
    triggers: FxHashMap<String, TriggerEntry>,
    /// Tagged or windowed entries per trigger, with the source and
    /// signature each landed in — the drop-trigger cleanup walk.
    flagged: FxHashMap<TriggerId, Vec<FlaggedEntry>>,
    /// The last id issued of each kind (the catalog's "default" set is 1).
    last_trigger: u64,
    last_source: u32,
    last_set: u32,
    last_expr: u64,
}

/// What the drain and the push path read of the definitions. Readers
/// hold it by `Arc`, so it is immutable once published.
#[derive(Clone, Default)]
pub(crate) struct Published {
    /// The one source table. By-name and by-table lookups walk it: DDL and
    /// update capture issue them, over a handful of sources.
    pub(crate) sources: FxHashMap<DataSourceId, Arc<SourceInfo>>,
    /// Each trigger set's enabled flag.
    pub(crate) set_enabled: FxHashMap<TriggerSetId, Arc<AtomicBool>>,
}

impl Published {
    pub(crate) fn source_named(&self, name: &str) -> Option<&Arc<SourceInfo>> {
        let mut all = self.sources.values();
        all.find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// The source that captures changes to local table `table`.
    pub(crate) fn capturing(&self, table: &str) -> Option<&Arc<SourceInfo>> {
        let captures = |t: &Arc<tman_sql::Table>| t.name().eq_ignore_ascii_case(table);
        let mut all = self.sources.values();
        all.find(|s| s.local_table.as_ref().is_some_and(captures))
    }
}

/// The designated default connection among `conns` (§2).
fn default_of(conns: &[ConnectionRow]) -> String {
    conns
        .iter()
        .find(|c| c.is_default)
        .map_or_else(|| "local".into(), |c| c.name.clone())
}

impl TriggerMan {
    /// Replace the published values with an edited copy. Taking the
    /// guarded [`Ddl`] is the proof that the caller is inside the critical
    /// section, so two edits never start from the same copy.
    fn republish(&self, _ddl: &Ddl, edit: impl FnOnce(&mut Published)) {
        let mut next = Published::clone(&self.published());
        edit(&mut next);
        *self.published.write() = Arc::new(next);
    }

    /// A `data_source` row as the engine holds it, its captured table open.
    fn open_source(&self, row: DataSourceRow) -> Result<Arc<SourceInfo>> {
        let local_table = match &row.local_table {
            Some(t) => Some(self.db.table(t)?),
            None => None,
        };
        Ok(Arc::new(SourceInfo {
            id: row.id,
            name: row.name,
            schema: row.schema,
            local_table,
            connection: row.connection,
        }))
    }

    /// Rebuild in-memory state from the catalogs (system start, §5.1:
    /// triggers live on disk as text; descriptions are cached on demand).
    pub(crate) fn recover(&self) -> Result<()> {
        let mut ddl = self.ddl.lock();
        let mut published = Published::default();
        for row in self.catalog.sets()? {
            ddl.last_set = ddl.last_set.max(row.id.raw());
            let enabled = Arc::new(AtomicBool::new(row.enabled));
            published.set_enabled.insert(row.id, enabled.clone());
            let entry = SetEntry {
                id: row.id,
                enabled,
                members: 0,
            };
            ddl.sets.insert(row.name.to_lowercase(), entry);
        }
        for row in self.catalog.data_sources()? {
            ddl.last_source = ddl.last_source.max(row.id.raw());
            published.sources.insert(row.id, self.open_source(row)?);
        }
        *self.published.write() = Arc::new(published);
        // Triggers: recompile each to re-register its predicates; cache
        // descriptions up to capacity.
        for row in self.catalog.triggers()? {
            ddl.last_trigger = ddl.last_trigger.max(row.id.raw());
            let entry = TriggerEntry {
                id: row.id,
                set: row.set,
            };
            ddl.triggers.insert(row.name.to_lowercase(), entry);
            if let Some(set) = ddl.sets.values_mut().find(|s| s.id == row.set) {
                set.members += 1;
            }
            let compiled = self.compile_row(&row)?;
            self.register_predicates(&mut ddl, &compiled)?;
            let trigger = Arc::new(compiled.trigger);
            self.prime_network(&trigger)?;
            self.cache.insert(trigger);
        }
        // Windowed-threshold state: re-arm the coarsely persisted rings
        // (at-least-once — a crash between an observe and the next
        // durability barrier replays the token into an older window, so a
        // fire may repeat but is never lost). Rows of dropped triggers are
        // skipped.
        let windows = self.windows.read();
        for (tid, last_ts, ring) in self.catalog.windows()? {
            if let Some(w) = windows.get(&tid) {
                w.hydrate(last_ts, &ring);
            }
        }
        Ok(())
    }

    // ----- connections and data sources ----------------------------------------

    /// Register a connection (§2). The engine's own database is the
    /// pre-defined `local` connection; remote connections exist as catalog
    /// metadata whose sources ingest through the data-source API.
    pub fn define_connection(&self, def: &tman_lang::ast::ConnectionDef) -> Result<()> {
        let _ddl = self.ddl.lock();
        let taken = self.catalog.connections()?;
        if taken.iter().any(|c| c.name.eq_ignore_ascii_case(&def.name)) {
            return Err(TmanError::AlreadyExists(format!(
                "connection '{}'",
                def.name
            )));
        }
        self.catalog.insert_connection(&ConnectionRow {
            name: def.name.clone(),
            dbtype: def.dbtype.clone(),
            host: def.host.clone(),
            server: def.server.clone(),
            user: def.user.clone(),
            is_default: def.is_default,
        })
    }

    /// All registered connections, as the `connection` catalog holds them
    /// (read inside the critical section: `define connection … default`
    /// moves the default flag in two row writes).
    pub fn connections(&self) -> Result<Vec<ConnectionRow>> {
        let _ddl = self.ddl.lock();
        self.catalog.connections()
    }

    /// The designated default connection (§2).
    pub fn default_connection(&self) -> Result<String> {
        Ok(default_of(&self.connections()?))
    }

    /// Register a data source on a named connection (`None` = default).
    /// Captured local tables are only possible on the `local` connection;
    /// sources on remote connections ingest via [`TriggerMan::push_token`].
    pub fn define_data_source_on(
        &self,
        name: &str,
        schema: Schema,
        local_table: Option<&str>,
        connection: Option<&str>,
    ) -> Result<DataSourceId> {
        let mut ddl = self.ddl.lock();
        let published = self.published();
        if published.source_named(name).is_some() {
            return Err(TmanError::AlreadyExists(format!("data source '{name}'")));
        }
        let conns = self.catalog.connections()?;
        let conn_name = match connection {
            Some(c) => conns
                .iter()
                .find(|r| r.name.eq_ignore_ascii_case(c))
                .map(|r| r.name.clone())
                .ok_or_else(|| TmanError::NotFound(format!("connection '{c}'")))?,
            None => default_of(&conns),
        };
        if local_table.is_some() && !conn_name.eq_ignore_ascii_case("local") {
            return Err(TmanError::Invalid(format!(
                "update capture from a table requires the local connection, not '{conn_name}'"
            )));
        }
        // Capture routes a table's changes to one source: a second source
        // over the same table would take the first one's tokens.
        if let Some(owner) = local_table.and_then(|t| published.capturing(t)) {
            return Err(TmanError::AlreadyExists(format!(
                "data source '{}' already captures that table",
                owner.name
            )));
        }
        if let Some(t) = local_table {
            source::ensure_local_table(&self.db, t, &schema)?;
        }
        ddl.last_source += 1;
        let id = DataSourceId(ddl.last_source);
        let row = DataSourceRow {
            id,
            name: name.to_string(),
            schema,
            local_table: local_table.map(|s| s.to_string()),
            connection: conn_name,
        };
        self.catalog.insert_data_source(&row)?;
        let info = self.open_source(row)?;
        self.republish(&ddl, |p| {
            p.sources.insert(id, info);
        });
        Ok(id)
    }

    // ----- triggers and trigger sets ----------------------------------------------

    /// §5.1: register a compiled trigger's selection predicates in the
    /// predicate index and refresh the `expression_signature` catalog.
    ///
    /// Two execution facts ride on registration, each as a flag bit of
    /// the entry's [`ExprId`]:
    ///
    /// * **Indexed disjunctions (tagged execution).** When a variable's
    ///   signature has no index plan — an OR across selectable atoms
    ///   survives CNF only as a residual test — the concrete CNF is
    ///   decomposed into per-disjunct branches, each individually
    ///   indexable, registered as separate entries flagged
    ///   [`EXPR_TAGGED`]. A token claims their common tag at its first
    ///   matching entry ([`TriggerMan::admit`]), so the trigger still fires
    ///   at most once per token even when several disjuncts match. Each
    ///   branch is an ordinary entry in whatever constant set it lands in.
    /// * **Windowed thresholds.** A `count >= K within W` trigger gets one
    ///   shared [`WindowState`]; its entries are flagged
    ///   [`EXPR_WINDOWED`], and the signatures they land in are marked in
    ///   the source's match plan, which excludes them from Figure-5
    ///   fan-out to keep window advances in token order.
    fn register_predicates(&self, ddl: &mut Ddl, compiled: &compile::Compiled) -> Result<()> {
        let tid = compiled.trigger.id;
        let mut window_flag = 0;
        if let Some(w) = &compiled.trigger.window {
            let state = Arc::new(WindowState::new(w.count, w.within_ns));
            self.windows.write().insert(tid, state);
            window_flag = EXPR_WINDOWED;
        }
        let mut tracked = Vec::new();
        let mut tagged_added = 0u64;
        for reg in &compiled.predicates {
            let branches = if self.config.index.tagged_disjunctions
                && matches!(reg.sig.index_plan, IndexPlan::None)
            {
                decompose_disjunction(&reg.canon).filter(|b| b.len() > 1)
            } else {
                None
            };
            // One (signature, constants) per index entry: the predicate
            // itself, or one per disjunct.
            let (flags, entries) = match branches {
                Some(branches) => (
                    EXPR_TAGGED | window_flag,
                    branches
                        .iter()
                        .map(|branch| {
                            analyze_selection(
                                branch,
                                reg.source.id,
                                reg.sig.key.event.clone(),
                                reg.sig.update_cols.clone(),
                            )
                        })
                        .collect(),
                ),
                None => (window_flag, vec![(reg.sig.clone(), reg.consts.clone())]),
            };
            for (sig, consts) in entries {
                ddl.last_expr += 1;
                let expr_id = ExprId(ddl.last_expr | flags);
                let (rt, _is_new) = self.predindex.add_predicate(
                    reg.source.id,
                    &reg.source.schema,
                    sig,
                    consts,
                    expr_id,
                    tid,
                    NodeId(reg.var as u32),
                )?;
                self.catalog_signature(reg.source.id, &rt)?;
                if flags != 0 {
                    tracked.push((expr_id, reg.source.id, rt.id));
                    tagged_added += u64::from(flags & EXPR_TAGGED != 0);
                }
                if window_flag != 0 {
                    if let Some(src) = self.predindex.source(reg.source.id) {
                        src.add_windowed(rt.id, 1);
                    }
                }
            }
        }
        if !tracked.is_empty() {
            ddl.flagged.insert(tid, tracked);
        }
        if tagged_added > 0 {
            self.tagged_count.fetch_add(tagged_added, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Write `rt`'s `expression_signature` row as the class stands now.
    fn catalog_signature(&self, src: DataSourceId, rt: &SignatureRuntime) -> Result<()> {
        let (table, org) = (rt.const_table_name(), rt.org_kind().as_str());
        self.catalog
            .upsert_signature(rt.id, src, &rt.sig.key.desc, &table, rt.len(), org)
    }

    pub(crate) fn create_trigger(
        &self,
        stmt: &tman_lang::ast::CreateTrigger,
        text: &str,
    ) -> Result<CommandOutput> {
        let mut ddl = self.ddl.lock();
        let name = stmt.name.to_lowercase();
        if ddl.triggers.contains_key(&name) {
            return Err(TmanError::AlreadyExists(format!("trigger '{}'", stmt.name)));
        }
        let set_name = stmt.set.as_deref().unwrap_or("default");
        let set_key = set_name.to_lowercase();
        let (set, set_enabled) = ddl
            .sets
            .get(&set_key)
            .map(|s| (s.id, s.enabled.clone()))
            .ok_or_else(|| TmanError::NotFound(format!("trigger set '{set_name}'")))?;
        ddl.last_trigger += 1;
        let id = TriggerId(ddl.last_trigger);
        let mut compiled = compile_trigger(stmt, id, set, text, self.config.network, &|name| {
            self.source(name)
        })?;
        compiled.trigger.set_enabled = set_enabled;
        self.register_predicates(&mut ddl, &compiled)?;
        let trigger = Arc::new(compiled.trigger);
        // "Prime" the trigger (§5.1) so stored memories see existing rows.
        self.prime_network(&trigger)?;
        self.catalog.insert_trigger(&TriggerRow {
            id,
            set,
            name: trigger.name.to_string(),
            text: text.to_string(),
            created: 0, // stamped by the catalog
            enabled: true,
        })?;
        ddl.triggers.insert(name, TriggerEntry { id, set });
        if let Some(set) = ddl.sets.get_mut(&set_key) {
            set.members += 1;
        }
        self.cache.insert(trigger);
        Ok(CommandOutput::TriggerCreated(id))
    }

    pub(crate) fn drop_trigger(&self, name: &str) -> Result<CommandOutput> {
        let mut ddl = self.ddl.lock();
        let TriggerEntry { id, set } = ddl
            .triggers
            .remove(&name.to_lowercase())
            .ok_or_else(|| TmanError::NotFound(format!("trigger '{name}'")))?;
        if let Some(set) = ddl.sets.values_mut().find(|s| s.id == set) {
            set.members -= 1;
        }
        self.predindex.remove_trigger(id)?;
        self.catalog.delete_trigger(id)?;
        self.cache.remove(id);
        // Tagged/windowed execution metadata.
        if let Some(exprs) = ddl.flagged.remove(&id) {
            let mut tagged_removed = 0u64;
            for (eid, src, sig) in exprs {
                tagged_removed += u64::from(eid.raw() & EXPR_TAGGED != 0);
                if eid.raw() & EXPR_WINDOWED != 0 {
                    if let Some(src) = self.predindex.source(src) {
                        src.add_windowed(sig, -1);
                    }
                }
            }
            if tagged_removed > 0 {
                self.tagged_count
                    .fetch_sub(tagged_removed, Ordering::Relaxed);
            }
        }
        if self.windows.write().remove(&id).is_some() {
            self.catalog.delete_window(id)?;
        }
        Ok(CommandOutput::TriggerDropped(id))
    }

    pub(crate) fn create_trigger_set(&self, name: &str) -> Result<CommandOutput> {
        let mut ddl = self.ddl.lock();
        // "default" is in the map: the catalog creates it and `recover`
        // loads it.
        if ddl.sets.contains_key(&name.to_lowercase()) {
            return Err(TmanError::AlreadyExists(format!("trigger set '{name}'")));
        }
        ddl.last_set += 1;
        let id = TriggerSetId(ddl.last_set);
        self.catalog.insert_set(&TriggerSetRow {
            id,
            name: name.to_string(),
            enabled: true,
        })?;
        let enabled = Arc::new(AtomicBool::new(true));
        self.republish(&ddl, |p| {
            p.set_enabled.insert(id, enabled.clone());
        });
        let entry = SetEntry {
            id,
            enabled,
            members: 0,
        };
        ddl.sets.insert(name.to_lowercase(), entry);
        Ok(CommandOutput::SetCreated(id))
    }

    pub(crate) fn drop_trigger_set(&self, name: &str) -> Result<CommandOutput> {
        if name.eq_ignore_ascii_case("default") {
            return Err(TmanError::Invalid(
                "cannot drop the default trigger set".into(),
            ));
        }
        let mut ddl = self.ddl.lock();
        let set = ddl
            .sets
            .get(&name.to_lowercase())
            .ok_or_else(|| TmanError::NotFound(format!("trigger set '{name}'")))?;
        if set.members > 0 {
            return Err(TmanError::Invalid(format!(
                "trigger set '{name}' still contains triggers"
            )));
        }
        let id = set.id;
        self.catalog.delete_set(id)?;
        ddl.sets.remove(&name.to_lowercase());
        self.republish(&ddl, |p| {
            p.set_enabled.remove(&id);
        });
        Ok(CommandOutput::SetDropped)
    }

    pub(crate) fn set_trigger_enabled(&self, name: &str, enabled: bool) -> Result<CommandOutput> {
        let ddl = self.ddl.lock();
        let id = ddl
            .triggers
            .get(&name.to_lowercase())
            .ok_or_else(|| TmanError::NotFound(format!("trigger '{name}'")))?
            .id;
        self.catalog.set_trigger_enabled(id, enabled)?;
        if let Some(t) = self.cache.peek(id) {
            t.enabled.store(enabled, Ordering::Relaxed);
        }
        Ok(CommandOutput::EnabledChanged)
    }

    pub(crate) fn set_trigger_set_enabled(
        &self,
        name: &str,
        enabled: bool,
    ) -> Result<CommandOutput> {
        let ddl = self.ddl.lock();
        let set = ddl
            .sets
            .get(&name.to_lowercase())
            .ok_or_else(|| TmanError::NotFound(format!("trigger set '{name}'")))?;
        self.catalog.set_set_enabled(set.id, enabled)?;
        set.enabled.store(enabled, Ordering::Relaxed);
        Ok(CommandOutput::EnabledChanged)
    }

    /// Trigger names currently defined.
    pub fn trigger_names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.ddl.lock().triggers.keys().cloned().collect();
        out.sort();
        out
    }

    /// Refresh `expression_signature` catalog rows (sizes/organizations
    /// change as triggers come and go); called by checkpoints. A catalog
    /// write, so inside the critical section: beside a `create trigger`
    /// the same signature's row would be inserted twice.
    pub fn refresh_signature_catalog(&self) -> Result<()> {
        let _ddl = self.ddl.lock();
        for src in self.published().sources.values() {
            if let Some(ix) = self.predindex.source(src.id) {
                for sig in ix.signatures() {
                    self.catalog_signature(src.id, &sig)?;
                }
            }
        }
        Ok(())
    }
}
