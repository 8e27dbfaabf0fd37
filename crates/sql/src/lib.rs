//! `tman-sql` — a minimal relational executor over `tman-storage`.
//!
//! This is the "Informix" stand-in: the paper needs its host DBMS for the
//! trigger catalogs, the per-signature constant tables (with optional
//! clustered indexes), the persistent update-descriptor queue, and for
//! running `execSQL` rule actions. This crate provides exactly that
//! surface:
//!
//! * [`Database`] — named tables with persistent schemas over a
//!   [`tman_storage::Storage`],
//! * [`Table`] — heap rows plus any number of secondary B+tree indexes,
//!   maintained on every mutation,
//! * [`exec`] — execution of the parsed SQL subset
//!   (`CREATE TABLE` / `CREATE INDEX` / `INSERT` / `UPDATE` / `DELETE` /
//!   `SELECT`) with an index-aware filter planner.
//!
//! The executor re-verifies the full predicate on every index-qualified row
//! (standard practice, and it also papers over the documented f64 key
//! encoding lossiness in `tman_storage::keyenc`).

pub mod exec;
pub mod table;

pub use exec::{execute, execute_with_capture, ExecResult, RowChange};
pub use table::{Index, Table};

use parking_lot::RwLock;
use std::path::Path;
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::{Column, Result, Schema, TmanError, Tuple, Value};
use tman_storage::Storage;

/// Name of the heap holding table/index definitions.
const SCHEMA_CATALOG: &str = "__schema";

/// A database: named tables over one storage instance.
pub struct Database {
    storage: Storage,
    tables: RwLock<FxHashMap<String, Arc<Table>>>,
}

impl Database {
    /// Open (or create) a file-backed database.
    pub fn open_file(path: &Path, pool_pages: usize) -> Result<Database> {
        Self::open_file_with(path, pool_pages, None)
    }

    /// Open a file-backed database with an optional fault-injection plan
    /// attached to the disk manager (test builds). When the storage layer
    /// reports crash recovery, every secondary index is rebuilt from its
    /// base heap — indexes are derived state and may lag the heap after a
    /// torn checkpoint.
    pub fn open_file_with(
        path: &Path,
        pool_pages: usize,
        faults: Option<tman_storage::FaultPlan>,
    ) -> Result<Database> {
        Self::open_file_opts(path, pool_pages, faults, tman_storage::WalConfig::default())
    }

    /// [`open_file_with`](Self::open_file_with) plus write-ahead-log
    /// tuning (checkpoint threshold), passed through to the storage layer.
    pub fn open_file_opts(
        path: &Path,
        pool_pages: usize,
        faults: Option<tman_storage::FaultPlan>,
        wal_cfg: tman_storage::WalConfig,
    ) -> Result<Database> {
        let storage = Storage::open_file_opts(path, pool_pages, faults, wal_cfg)?;
        let recovered = storage.was_recovered();
        let db = Self::with_storage(storage)?;
        if recovered {
            db.rebuild_indexes()?;
        }
        Ok(db)
    }

    /// Rebuild every secondary index from its base heap (crash recovery).
    /// B+tree insertion overwrites exact-duplicate keys, so re-inserting
    /// entries that already survived is harmless.
    fn rebuild_indexes(&self) -> Result<()> {
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        for t in tables {
            for idx in t.indexes() {
                t.backfill_index(&idx)?;
            }
        }
        Ok(())
    }

    /// Create a volatile in-memory database.
    pub fn open_memory(pool_pages: usize) -> Database {
        Self::with_storage(Storage::open_memory(pool_pages)).expect("memory db")
    }

    fn with_storage(storage: Storage) -> Result<Database> {
        if !storage.dir().exists(SCHEMA_CATALOG)? {
            storage.create_heap(SCHEMA_CATALOG)?;
        }
        let db = Database {
            storage,
            tables: RwLock::new(FxHashMap::default()),
        };
        db.load_catalog()?;
        Ok(db)
    }

    /// Reload table handles from the schema catalog (called at open).
    fn load_catalog(&self) -> Result<()> {
        let cat = self.storage.open_heap(SCHEMA_CATALOG)?;
        // First pass: tables. Second: indexes (they reference tables).
        let mut defs: Vec<Tuple> = Vec::new();
        cat.scan(|_, rec| {
            defs.push(Tuple::decode(rec)?);
            Ok(true)
        })?;
        let mut tables = self.tables.write();
        for def in defs.iter().filter(|d| d.get(0) == &Value::Int(0)) {
            let name = def.get(1).as_str().unwrap().to_string();
            let schema = decode_schema(def.get(2).as_str().unwrap())?;
            let heap = self.storage.open_heap(&format!("tbl_{name}"))?;
            tables.insert(
                name.to_lowercase(),
                Arc::new(Table::new(name, schema, heap)),
            );
        }
        for def in defs.iter().filter(|d| d.get(0) == &Value::Int(1)) {
            let idx_name = def.get(1).as_str().unwrap().to_string();
            let table_name = def.get(2).as_str().unwrap().to_lowercase();
            let cols: Vec<usize> = def
                .get(3)
                .as_str()
                .unwrap()
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse()
                        .map_err(|_| TmanError::Storage("bad index cols".into()))
                })
                .collect::<Result<_>>()?;
            let table = tables.get(&table_name).ok_or_else(|| {
                TmanError::Storage(format!("index on missing table {table_name}"))
            })?;
            let tree = self.storage.open_btree(&format!("idx_{idx_name}"))?;
            table.attach_index(Arc::new(Index::new(idx_name, cols, tree)));
        }
        Ok(())
    }

    /// The underlying storage (for I/O statistics).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let key = name.to_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(TmanError::AlreadyExists(format!("table '{name}'")));
        }
        let heap = self.storage.create_heap(&format!("tbl_{name}"))?;
        let cat = self.storage.open_heap(SCHEMA_CATALOG)?;
        cat.insert(
            &Tuple::new(vec![
                Value::Int(0),
                Value::str(name),
                Value::str(encode_schema(&schema)),
                Value::Null,
            ])
            .encode(),
        )?;
        let t = Arc::new(Table::new(name.to_string(), schema, heap));
        tables.insert(key, t.clone());
        Ok(t)
    }

    /// Look up a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| TmanError::NotFound(format!("table '{name}'")))
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_lowercase())
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .read()
            .values()
            .map(|t| t.name().to_string())
            .collect()
    }

    /// Create a secondary index on `columns` of `table`, backfilling it
    /// from existing rows.
    pub fn create_index(&self, name: &str, table: &str, columns: &[String]) -> Result<()> {
        let t = self.table(table)?;
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                t.schema()
                    .index_of(c)
                    .ok_or_else(|| TmanError::Invalid(format!("no column '{c}' in '{table}'")))
            })
            .collect::<Result<_>>()?;
        if t.index(name).is_some() {
            return Err(TmanError::AlreadyExists(format!("index '{name}'")));
        }
        let tree = self.storage.create_btree(&format!("idx_{name}"))?;
        let idx = Arc::new(Index::new(name.to_string(), cols, tree));
        t.backfill_index(&idx)?;
        let cat = self.storage.open_heap(SCHEMA_CATALOG)?;
        cat.insert(
            &Tuple::new(vec![
                Value::Int(1),
                Value::str(name),
                Value::str(t.name()),
                Value::str(
                    idx.cols()
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ])
            .encode(),
        )?;
        t.attach_index(idx);
        Ok(())
    }

    /// Drop a table (its pages are leaked; catalog entry removed).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_lowercase();
        let mut tables = self.tables.write();
        let t = tables
            .remove(&key)
            .ok_or_else(|| TmanError::NotFound(format!("table '{name}'")))?;
        self.storage.drop_object(&format!("tbl_{}", t.name()))?;
        // Remove catalog rows for the table and its indexes.
        let cat = self.storage.open_heap(SCHEMA_CATALOG)?;
        let mut dead = Vec::new();
        cat.scan(|rid, rec| {
            let tup = Tuple::decode(rec)?;
            let is_table_row = tup.get(0) == &Value::Int(0)
                && tup.get(1).as_str().map(|s| s.eq_ignore_ascii_case(name)) == Some(true);
            let is_index_row = tup.get(0) == &Value::Int(1)
                && tup.get(2).as_str().map(|s| s.eq_ignore_ascii_case(name)) == Some(true);
            if is_table_row || is_index_row {
                dead.push(rid);
            }
            Ok(true)
        })?;
        for rid in dead {
            cat.delete(rid)?;
        }
        for idx in t.indexes() {
            let _ = self.storage.drop_object(&format!("idx_{}", idx.name()));
        }
        Ok(())
    }

    /// Flush all dirty pages.
    pub fn checkpoint(&self) -> Result<()> {
        self.storage.checkpoint()
    }
}

/// A schema as catalog text: `name type;name type;…`.
pub fn encode_schema(schema: &Schema) -> String {
    schema
        .columns()
        .iter()
        .map(|c| {
            let ty = match c.ty {
                tman_common::DataType::Int => "int".to_string(),
                tman_common::DataType::Float => "float".to_string(),
                tman_common::DataType::Char(n) => format!("char({n})"),
                tman_common::DataType::Varchar(n) => format!("varchar({n})"),
            };
            format!("{} {}", c.name, ty)
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse [`encode_schema`]'s text back into a schema.
pub fn decode_schema(s: &str) -> Result<Schema> {
    let mut cols = Vec::new();
    for part in s.split(';').filter(|p| !p.is_empty()) {
        let (name, ty) = part
            .split_once(' ')
            .ok_or_else(|| TmanError::Storage(format!("bad schema entry '{part}'")))?;
        let ty = if ty == "int" {
            tman_common::DataType::Int
        } else if ty == "float" {
            tman_common::DataType::Float
        } else if let Some(n) = ty.strip_prefix("char(").and_then(|t| t.strip_suffix(')')) {
            tman_common::DataType::Char(
                n.parse()
                    .map_err(|_| TmanError::Storage("bad char len".into()))?,
            )
        } else if let Some(n) = ty
            .strip_prefix("varchar(")
            .and_then(|t| t.strip_suffix(')'))
        {
            tman_common::DataType::Varchar(
                n.parse()
                    .map_err(|_| TmanError::Storage("bad varchar len".into()))?,
            )
        } else {
            return Err(TmanError::Storage(format!("bad schema type '{ty}'")));
        };
        cols.push(Column::new(name, ty));
    }
    Schema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_common::DataType;

    fn emp_schema() -> Schema {
        Schema::from_pairs(&[
            ("name", DataType::Varchar(32)),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ])
    }

    #[test]
    fn create_and_lookup_tables() {
        let db = Database::open_memory(64);
        db.create_table("emp", emp_schema()).unwrap();
        assert!(db.has_table("EMP"));
        assert!(db.table("emp").is_ok());
        assert!(db.create_table("emp", emp_schema()).is_err());
        assert!(db.table("nope").is_err());
    }

    #[test]
    fn schema_roundtrip() {
        let s = emp_schema();
        assert_eq!(decode_schema(&encode_schema(&s)).unwrap(), s);
    }

    #[test]
    fn drop_table_removes_everything() {
        let db = Database::open_memory(64);
        db.create_table("t", emp_schema()).unwrap();
        db.create_index("t_dept", "t", &["dept".into()]).unwrap();
        db.drop_table("t").unwrap();
        assert!(!db.has_table("t"));
        // Recreate under the same name works.
        db.create_table("t", emp_schema()).unwrap();
        db.create_index("t_dept2", "t", &["dept".into()]).unwrap();
    }

    #[test]
    fn persistence_of_tables_and_indexes() {
        let path = std::env::temp_dir().join(format!("tman_sql_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open_file(&path, 32).unwrap();
            let t = db.create_table("emp", emp_schema()).unwrap();
            t.insert(vec![
                Value::str("Bob"),
                Value::Float(80000.0),
                Value::Int(7),
            ])
            .unwrap();
            db.create_index("emp_dept", "emp", &["dept".into()])
                .unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = Database::open_file(&path, 32).unwrap();
            let t = db.table("emp").unwrap();
            assert_eq!(t.schema(), &emp_schema());
            let rows = t.scan_all().unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].1.get(0), &Value::str("Bob"));
            // Index survived and finds the row.
            let hits = t.index_lookup("emp_dept", &[Value::Int(7)]).unwrap();
            assert_eq!(hits.len(), 1);
        }
        let _ = std::fs::remove_file(&path);
    }
}
