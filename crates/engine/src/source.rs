//! Data sources and update capture (§3).
//!
//! A data source "normally corresponds to a table". Local sources wrap a
//! table in the engine's database: every mutation made through the engine
//! (including `execSQL` rule actions) is captured as an update descriptor —
//! the role Informix row triggers play in the paper. Remote/stream sources
//! have only a schema; their programs push descriptors through the data
//! source API ([`crate::TriggerMan::push_token`]).

use crate::ddl::Published;
use std::sync::Arc;
use tman_common::{DataSourceId, Result, Schema, Tuple};
use tman_network::AlphaSource;
use tman_sql::{Database, Table};

/// A registered data source.
pub struct SourceInfo {
    /// Source id (catalog `dsID`).
    pub id: DataSourceId,
    /// Source name.
    pub name: String,
    /// Row schema.
    pub schema: Schema,
    /// Captured local table, if any.
    pub local_table: Option<Arc<Table>>,
    /// Connection the source is defined on (§2; `"local"` = this engine).
    pub connection: String,
}

/// [`AlphaSource`] over the engine's local tables: virtual alpha nodes
/// (A-TREAT) and trigger priming scan base relations through one load of
/// the published sources.
impl AlphaSource for Published {
    fn scan_source(
        &self,
        data_src: DataSourceId,
        visit: &mut dyn FnMut(&Tuple) -> Result<()>,
    ) -> Result<()> {
        let Some(info) = self.sources.get(&data_src) else {
            return Ok(()); // remote source with no local data: nothing to scan
        };
        let Some(table) = &info.local_table else {
            return Ok(());
        };
        let mut err = None;
        table.scan(|_, row| {
            if let Err(e) = visit(row) {
                err = Some(e);
                return Ok(false);
            }
            Ok(true)
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Create (or open) the local table behind a captured source.
pub fn ensure_local_table(db: &Database, table: &str, schema: &Schema) -> Result<Arc<Table>> {
    if db.has_table(table) {
        let t = db.table(table)?;
        if t.schema() != schema {
            return Err(tman_common::TmanError::Invalid(format!(
                "table '{table}' exists with a different schema"
            )));
        }
        Ok(t)
    } else {
        db.create_table(table, schema.clone())
    }
}
