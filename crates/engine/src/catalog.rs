//! Trigger system catalogs (§5.1).
//!
//! The primary tables, exactly as the paper lists them:
//!
//! ```text
//! trigger_set(tsID, name, comments, creation_date, isEnabled)
//! trigger(triggerID, tsID, name, comments, trigger_text, creation_date, isEnabled)
//! expression_signature(sigID, dataSrcID, signatureDesc, constTableName,
//!                      constantSetSize, constantSetOrganization)
//! data_source(dsID, name, schemaDesc, localTable)   -- connection metadata
//! ```
//!
//! Triggers are persisted as their *text* plus metadata; the trigger cache
//! recompiles a description on demand (pin miss) — exactly the division the
//! paper describes between disk-based catalogs and the in-memory cache.

use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};
use tman_common::{
    DataSourceId, Result, Schema, SignatureId, TmanError, TriggerId, TriggerSetId, Tuple, Value,
};
use tman_sql::{decode_schema, encode_schema, Database, Table};
use tman_storage::RecordId;

/// One `expression_signature` row: `(sigID, dataSrcID, signatureDesc,
/// constTableName, constantSetSize, constantSetOrganization)`.
pub type SignatureRow = (SignatureId, DataSourceId, String, String, i64, String);

/// Width, in bytes, of the catalogs' text columns.
const TEXT_WIDTH: u16 = 65_535;

/// Hex digits per timestamp in a `window_state` ring: a `u64`, zero-padded.
const STAMP_DIGITS: usize = 16;

/// The largest K a `count >= K within W` trigger may have: a full ring of
/// K stamps fills at most one `window_state.ring` value.
pub const MAX_WINDOW_COUNT: u64 = TEXT_WIDTH as u64 / STAMP_DIGITS as u64;

/// A `window_state.ring` value back to its stamps; `None` unless it is
/// whole [`STAMP_DIGITS`]-digit lowercase hex stamps.
fn decode_ring(text: &str) -> Option<Vec<u64>> {
    let digits = text.as_bytes();
    if !digits.len().is_multiple_of(STAMP_DIGITS)
        || !digits
            .iter()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    {
        return None;
    }
    let stamp = |c: &[u8]| u64::from_str_radix(std::str::from_utf8(c).ok()?, 16).ok();
    digits.chunks(STAMP_DIGITS).map(stamp).collect()
}

/// Handle to the system catalog tables.
pub struct Catalog {
    trigger_set: Arc<Table>,
    trigger: Arc<Table>,
    expression_signature: Arc<Table>,
    data_source: Arc<Table>,
    connection: Arc<Table>,
    window_state: Arc<Table>,
}

/// A row of the `connection` catalog (§2's connection description).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionRow {
    /// Connection name (unique).
    pub name: String,
    /// Database system type (`local` = this engine's own database).
    pub dbtype: String,
    /// Host name.
    pub host: Option<String>,
    /// Database server name.
    pub server: Option<String>,
    /// User id.
    pub user: Option<String>,
    /// Designated default connection.
    pub is_default: bool,
}

/// A row of the `trigger` catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerRow {
    /// Trigger id.
    pub id: TriggerId,
    /// Owning trigger set.
    pub set: TriggerSetId,
    /// Trigger name (unique).
    pub name: String,
    /// Full `create trigger` text — the unit of recompilation.
    pub text: String,
    /// Creation time (unix seconds), stamped by
    /// [`Catalog::insert_trigger`]: what a caller passes there is ignored.
    pub created: i64,
    /// Eligibility to fire.
    pub enabled: bool,
}

/// A row of the `trigger_set` catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerSetRow {
    /// Set id.
    pub id: TriggerSetId,
    /// Set name (unique; "default" is created automatically).
    pub name: String,
    /// Eligibility of the whole set.
    pub enabled: bool,
}

/// A row of the `data_source` catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSourceRow {
    /// Source id.
    pub id: DataSourceId,
    /// Source name (unique).
    pub name: String,
    /// Schema (encoded as in `tman-sql`).
    pub schema: Schema,
    /// Local captured table name, if this source wraps one.
    pub local_table: Option<String>,
    /// Connection the source is defined on (§2).
    pub connection: String,
}

fn now_secs() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// The one lookup the catalogs have: a heap scan for the first row whose
/// integer `column` holds `id`. Only DDL and a trigger-cache miss come
/// here; names are resolved to ids before they do (`ddl.rs`).
fn find(table: &Table, column: usize, id: u64) -> Result<Option<(RecordId, Tuple)>> {
    let mut hit = None;
    table.scan(|rid, row| {
        let same = row.get(column).as_i64() == Some(id as i64);
        if same {
            hit = Some((rid, row.clone()));
        }
        Ok(!same)
    })?;
    Ok(hit)
}

/// Store `value` in `column` of the row [`find`] returns. False if missing.
fn set_column(table: &Table, at: usize, id: u64, column: usize, value: Value) -> Result<bool> {
    let Some((rid, row)) = find(table, at, id)? else {
        return Ok(false);
    };
    let mut vals = row.values().to_vec();
    vals[column] = value;
    table.update(rid, vals)?;
    Ok(true)
}

/// Delete the row whose column 0 holds `id`. False if missing.
fn delete(table: &Table, id: u64) -> Result<bool> {
    match find(table, 0, id)? {
        Some((rid, _)) => table.delete(rid).map(|_| true),
        None => Ok(false),
    }
}

/// Replace the row whose column 0 holds `vals[0]` (an id), or insert one.
fn upsert(table: &Table, vals: Vec<Value>) -> Result<()> {
    let id = vals[0].as_i64().unwrap_or(0) as u64;
    match find(table, 0, id)? {
        Some((rid, _)) => table.update(rid, vals).map(|_| ()),
        None => table.insert(vals).map(|_| ()),
    }
}

impl Catalog {
    /// Open the catalogs, creating them (plus the "default" trigger set) on
    /// first use.
    pub fn open(db: &Database) -> Result<Catalog> {
        use tman_common::{Column, DataType};
        let mk = |name: &str, cols: &[(&str, DataType)]| -> Result<Arc<Table>> {
            if db.has_table(name) {
                db.table(name)
            } else {
                db.create_table(
                    name,
                    Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())?,
                )
            }
        };
        let v = DataType::Varchar(TEXT_WIDTH);
        let cat = Catalog {
            trigger_set: mk(
                "trigger_set",
                &[
                    ("tsID", DataType::Int),
                    ("name", v),
                    ("comments", v),
                    ("creation_date", DataType::Int),
                    ("isEnabled", DataType::Int),
                ],
            )?,
            trigger: mk(
                "trigger",
                &[
                    ("triggerID", DataType::Int),
                    ("tsID", DataType::Int),
                    ("name", v),
                    ("comments", v),
                    ("trigger_text", v),
                    ("creation_date", DataType::Int),
                    ("isEnabled", DataType::Int),
                ],
            )?,
            expression_signature: mk(
                "expression_signature",
                &[
                    ("sigID", DataType::Int),
                    ("dataSrcID", DataType::Int),
                    ("signatureDesc", v),
                    ("constTableName", v),
                    ("constantSetSize", DataType::Int),
                    ("constantSetOrganization", v),
                ],
            )?,
            data_source: mk(
                "data_source",
                &[
                    ("dsID", DataType::Int),
                    ("name", v),
                    ("schemaDesc", v),
                    ("localTable", v),
                    ("connection", v),
                ],
            )?,
            connection: mk(
                "connection",
                &[
                    ("name", v),
                    ("dbtype", v),
                    ("host", v),
                    ("server", v),
                    ("userID", v),
                    ("isDefault", DataType::Int),
                ],
            )?,
            window_state: mk("window_state", &[("triggerID", DataType::Int), ("ring", v)])?,
        };
        if cat.connections()?.is_empty() {
            // The engine's own database is the initial default connection.
            cat.insert_connection(&ConnectionRow {
                name: "local".into(),
                dbtype: "local".into(),
                host: None,
                server: None,
                user: None,
                is_default: true,
            })?;
        }
        if find(&cat.trigger_set, 0, 1)?.is_none() {
            cat.insert_set(&TriggerSetRow {
                id: TriggerSetId(1),
                name: "default".into(),
                enabled: true,
            })?;
        }
        Ok(cat)
    }

    // ----- trigger sets ----------------------------------------------------

    /// Insert a trigger-set row.
    pub fn insert_set(&self, row: &TriggerSetRow) -> Result<()> {
        self.trigger_set.insert(vec![
            Value::Int(row.id.raw() as i64),
            Value::str(&*row.name),
            Value::str(""),
            Value::Int(now_secs()),
            Value::Int(row.enabled as i64),
        ])?;
        Ok(())
    }

    /// All trigger sets.
    pub fn sets(&self) -> Result<Vec<TriggerSetRow>> {
        let rows = self.trigger_set.scan_all()?;
        let set = |(_, row): &(RecordId, Tuple)| TriggerSetRow {
            id: TriggerSetId(row.get(0).as_i64().unwrap_or(0) as u32),
            name: row.get(1).as_str().unwrap_or("").to_string(),
            enabled: row.get(4) == &Value::Int(1),
        };
        Ok(rows.iter().map(set).collect())
    }

    /// Flip a set's isEnabled flag. Returns false if missing.
    pub fn set_set_enabled(&self, id: TriggerSetId, enabled: bool) -> Result<bool> {
        let flag = Value::Int(enabled as i64);
        set_column(&self.trigger_set, 0, id.raw().into(), 4, flag)
    }

    /// Remove a set row (callers ensure it is empty).
    pub fn delete_set(&self, id: TriggerSetId) -> Result<bool> {
        delete(&self.trigger_set, id.raw().into())
    }

    // ----- triggers ---------------------------------------------------------

    /// Insert a trigger row, created now. The name and text move into it.
    /// Returns where the row is: the handle the row's delete and enable
    /// flip take, so neither scans the catalog for it.
    pub fn insert_trigger(&self, row: TriggerRow) -> Result<RecordId> {
        self.trigger.insert(vec![
            Value::Int(row.id.raw() as i64),
            Value::Int(row.set.raw() as i64),
            Value::Str(row.name),
            Value::str(""),
            Value::Str(row.text),
            Value::Int(now_secs()),
            Value::Int(row.enabled as i64),
        ])
    }

    fn trigger_from_row(row: &Tuple) -> TriggerRow {
        TriggerRow {
            id: TriggerId(row.get(0).as_i64().unwrap_or(0) as u64),
            set: TriggerSetId(row.get(1).as_i64().unwrap_or(0) as u32),
            name: row.get(2).as_str().unwrap_or("").to_string(),
            text: row.get(4).as_str().unwrap_or("").to_string(),
            created: row.get(5).as_i64().unwrap_or(0),
            enabled: row.get(6) == &Value::Int(1),
        }
    }

    /// All trigger rows, each with where it is.
    pub fn triggers(&self) -> Result<Vec<(RecordId, TriggerRow)>> {
        let rows = self.trigger.scan_all()?;
        Ok(rows
            .iter()
            .map(|(at, r)| (*at, Self::trigger_from_row(r)))
            .collect())
    }

    /// Fetch one trigger row by id.
    pub fn trigger_by_id(&self, id: TriggerId) -> Result<Option<TriggerRow>> {
        let hit = find(&self.trigger, 0, id.raw())?;
        Ok(hit.map(|(_, row)| Self::trigger_from_row(&row)))
    }

    /// Remove the trigger row at `at`, returning it.
    pub fn delete_trigger(&self, at: RecordId) -> Result<TriggerRow> {
        Ok(Self::trigger_from_row(&self.trigger.delete(at)?))
    }

    /// Flip the isEnabled flag of the trigger row at `at`. Returns where
    /// the row is now.
    pub fn set_trigger_enabled(&self, at: RecordId, enabled: bool) -> Result<RecordId> {
        let mut vals = self.trigger.get(at)?.values().to_vec();
        vals[6] = Value::Int(enabled as i64);
        Ok(self.trigger.update(at, vals)?.1)
    }

    // ----- connections --------------------------------------------------------

    /// Insert a connection row; when it is the new default, clear the flag
    /// on the previous default.
    pub fn insert_connection(&self, row: &ConnectionRow) -> Result<()> {
        if row.is_default {
            // Clear the flag wherever it is set: `find` by a flag of 1.
            while set_column(&self.connection, 5, 1, 5, Value::Int(0))? {}
        }
        let opt = |o: &Option<String>| match o {
            Some(s) => Value::str(&**s),
            None => Value::Null,
        };
        self.connection.insert(vec![
            Value::str(&*row.name),
            Value::str(&*row.dbtype),
            opt(&row.host),
            opt(&row.server),
            opt(&row.user),
            Value::Int(row.is_default as i64),
        ])?;
        Ok(())
    }

    /// All connection rows.
    pub fn connections(&self) -> Result<Vec<ConnectionRow>> {
        let rows = self.connection.scan_all()?;
        let connection = |(_, row): &(RecordId, Tuple)| ConnectionRow {
            name: row.get(0).as_str().unwrap_or("").to_string(),
            dbtype: row.get(1).as_str().unwrap_or("").to_string(),
            host: row.get(2).as_str().map(|s| s.to_string()),
            server: row.get(3).as_str().map(|s| s.to_string()),
            user: row.get(4).as_str().map(|s| s.to_string()),
            is_default: row.get(5) == &Value::Int(1),
        };
        Ok(rows.iter().map(connection).collect())
    }

    // ----- data sources -----------------------------------------------------

    /// Insert a data-source row.
    pub fn insert_data_source(&self, row: &DataSourceRow) -> Result<()> {
        self.data_source.insert(vec![
            Value::Int(row.id.raw() as i64),
            Value::str(&*row.name),
            Value::str(encode_schema(&row.schema)),
            match &row.local_table {
                Some(t) => Value::str(&**t),
                None => Value::Null,
            },
            Value::str(&*row.connection),
        ])?;
        Ok(())
    }

    /// All data-source rows.
    pub fn data_sources(&self) -> Result<Vec<DataSourceRow>> {
        let rows = self.data_source.scan_all()?;
        let source = |(_, row): &(RecordId, Tuple)| {
            Ok(DataSourceRow {
                id: DataSourceId(row.get(0).as_i64().unwrap_or(0) as u32),
                name: row.get(1).as_str().unwrap_or("").to_string(),
                schema: decode_schema(row.get(2).as_str().unwrap_or(""))?,
                local_table: row.get(3).as_str().map(|s| s.to_string()),
                connection: row.get(4).as_str().unwrap_or("local").to_string(),
            })
        };
        rows.iter().map(source).collect()
    }

    // ----- expression signatures ---------------------------------------------

    /// Upsert an `expression_signature` row (refresh of `constantSetSize`
    /// and `constantSetOrganization`).
    pub fn upsert_signature(
        &self,
        id: SignatureId,
        data_src: DataSourceId,
        desc: &str,
        const_table: &str,
        size: usize,
        organization: &str,
    ) -> Result<()> {
        upsert(
            &self.expression_signature,
            vec![
                Value::Int(id.raw() as i64),
                Value::Int(data_src.raw() as i64),
                Value::str(desc),
                Value::str(const_table),
                Value::Int(size as i64),
                Value::str(organization),
            ],
        )
    }

    // ----- windowed-threshold state -------------------------------------------

    /// Upsert a trigger's persisted window: its ring, exactly, as
    /// [`STAMP_DIGITS`] lowercase hex digits per timestamp, oldest first.
    /// The ring is persisted at durability barriers, not per event, so
    /// recovery restores it as of the last barrier.
    pub(crate) fn save_window(&self, id: TriggerId, ring: &[u64]) -> Result<()> {
        let encoded: String = ring.iter().map(|t| format!("{t:016x}")).collect();
        upsert(
            &self.window_state,
            vec![Value::Int(id.raw() as i64), Value::str(encoded)],
        )
    }

    /// Every persisted window as `(triggerID, ring)`. A row that is not
    /// whole [`STAMP_DIGITS`]-digit stamps is an error naming its trigger.
    pub(crate) fn windows(&self) -> Result<Vec<(TriggerId, Vec<u64>)>> {
        let rows = self.window_state.scan_all()?;
        let window = |(_, row): &(RecordId, Tuple)| {
            let id = row.get(0).as_i64().ok_or_else(|| {
                TmanError::Corrupt("window_state row without a trigger id".into())
            })?;
            let ring = row.get(1).as_str().and_then(decode_ring).ok_or_else(|| {
                TmanError::Corrupt(format!(
                    "window_state row of trigger {id}: not whole {STAMP_DIGITS}-digit hex stamps"
                ))
            })?;
            Ok((TriggerId(id as u64), ring))
        };
        rows.iter().map(window).collect()
    }

    /// Remove a trigger's window state. Returns false if missing.
    pub(crate) fn delete_window(&self, id: TriggerId) -> Result<bool> {
        delete(&self.window_state, id.raw())
    }

    /// All signature rows as `(sigID, dataSrcID, desc, constTable, size,
    /// organization)`.
    pub fn signatures(&self) -> Result<Vec<SignatureRow>> {
        let rows = self.expression_signature.scan_all()?;
        let signature = |(_, row): &(RecordId, Tuple)| {
            (
                SignatureId(row.get(0).as_i64().unwrap_or(0) as u32),
                DataSourceId(row.get(1).as_i64().unwrap_or(0) as u32),
                row.get(2).as_str().unwrap_or("").to_string(),
                row.get(3).as_str().unwrap_or("").to_string(),
                row.get(4).as_i64().unwrap_or(0),
                row.get(5).as_str().unwrap_or("").to_string(),
            )
        };
        Ok(rows.iter().map(signature).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_roundtrips() {
        let path = std::env::temp_dir().join(format!("tman_catalog_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let db = Database::open_file(&path, 256).unwrap();
        let cat = Catalog::open(&db).unwrap();
        // Default set exists.
        assert_eq!(cat.sets().unwrap()[0].name, "default");

        cat.insert_set(&TriggerSetRow {
            id: TriggerSetId(2),
            name: "alerts".into(),
            enabled: true,
        })
        .unwrap();
        let t = TriggerRow {
            id: TriggerId(10),
            set: TriggerSetId(2),
            name: "t10".into(),
            text: "create trigger t10 from emp do notify 'x'".into(),
            created: 0,
            enabled: true,
        };
        let at = cat.insert_trigger(t).unwrap();
        let stored = cat.trigger_by_id(TriggerId(10)).unwrap().unwrap();
        assert_eq!(stored.name, "t10");
        assert!(
            stored.created > 0,
            "insert_trigger stamps the creation date"
        );

        // The date is the stored one, not the time of the read.
        db.checkpoint().unwrap();
        drop((cat, db));
        let db = Database::open_file(&path, 256).unwrap();
        let cat = Catalog::open(&db).unwrap();
        assert_eq!(cat.trigger_by_id(TriggerId(10)).unwrap(), Some(stored));

        let at = cat.set_trigger_enabled(at, false).unwrap();
        assert!(!cat.trigger_by_id(TriggerId(10)).unwrap().unwrap().enabled);
        assert_eq!(cat.delete_trigger(at).unwrap().id, TriggerId(10));
        assert!(cat.trigger_by_id(TriggerId(10)).unwrap().is_none());
        assert!(cat.delete_trigger(at).is_err());
        assert!(cat.set_trigger_enabled(at, true).is_err());
        drop((cat, db));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn signature_upsert_updates_in_place() {
        let db = Database::open_memory(256);
        let cat = Catalog::open(&db).unwrap();
        cat.upsert_signature(
            SignatureId(1),
            DataSourceId(1),
            "emp.x = CONSTANT1",
            "const_table_1",
            1,
            "mem_list",
        )
        .unwrap();
        cat.upsert_signature(
            SignatureId(1),
            DataSourceId(1),
            "emp.x = CONSTANT1",
            "const_table_1",
            500,
            "mem_index",
        )
        .unwrap();
        let sigs = cat.signatures().unwrap();
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].4, 500);
        assert_eq!(sigs[0].5, "mem_index");
    }

    #[test]
    fn window_state_roundtrips() {
        let db = Database::open_memory(256);
        let cat = Catalog::open(&db).unwrap();
        assert!(cat.windows().unwrap().is_empty());
        cat.save_window(TriggerId(7), &[400, 700, 1_000]).unwrap();
        cat.save_window(TriggerId(7), &[1_500, 2_000]).unwrap(); // upsert
        cat.save_window(TriggerId(9), &[]).unwrap();
        // A full ring of real-width stamps is one row.
        let full: Vec<u64> = (0..MAX_WINDOW_COUNT).map(|i| u64::MAX - i).collect();
        cat.save_window(TriggerId(11), &full).unwrap();
        let mut rows = cat.windows().unwrap();
        rows.sort_by_key(|(id, _)| id.raw());
        assert_eq!(
            rows,
            vec![
                (TriggerId(7), vec![1_500, 2_000]),
                (TriggerId(9), vec![]),
                (TriggerId(11), full),
            ]
        );
        assert!(cat.delete_window(TriggerId(7)).unwrap());
        assert!(!cat.delete_window(TriggerId(7)).unwrap());
        assert_eq!(cat.windows().unwrap().len(), 2);
        // A torn row — one stamp and a 15-digit tail — is an error naming
        // its trigger, not a shorter ring.
        let torn = format!("{:016x}{:015x}", 1, 2);
        upsert(&cat.window_state, vec![Value::Int(9), Value::str(torn)]).unwrap();
        let err = cat.windows().unwrap_err();
        assert!(
            matches!(&err, TmanError::Corrupt(m) if m.contains("trigger 9")),
            "{err:?}"
        );
        for foreign in ["00000000000003E8", "+0000000000003e8", "1000,2000"] {
            upsert(&cat.window_state, vec![Value::Int(9), Value::str(foreign)]).unwrap();
            assert!(cat.windows().is_err(), "{foreign}");
        }
    }

    #[test]
    fn data_sources_persist_schema() {
        let db = Database::open_memory(256);
        let cat = Catalog::open(&db).unwrap();
        let schema = Schema::from_pairs(&[
            ("a", tman_common::DataType::Int),
            ("b", tman_common::DataType::Varchar(10)),
        ]);
        cat.insert_data_source(&DataSourceRow {
            id: DataSourceId(3),
            name: "quotes".into(),
            schema: schema.clone(),
            local_table: Some("quotes_tbl".into()),
            connection: "local".into(),
        })
        .unwrap();
        let rows = cat.data_sources().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].schema, schema);
        assert_eq!(rows[0].local_table.as_deref(), Some("quotes_tbl"));
    }
}
