//! Tables: heap rows plus maintained secondary indexes.

use std::sync::Arc;
use tman_common::stats::Counter;
use tman_common::{Result, Schema, TmanError, Tuple, Value};
use tman_storage::encode_key;
use tman_storage::{BTree, HeapFile, RecordId};
use tman_sync::RwLock;

/// A secondary index: a B+tree keyed on the keyenc encoding of a column
/// subset, valued with packed record ids.
pub struct Index {
    name: String,
    cols: Vec<usize>,
    tree: BTree,
}

impl Index {
    /// Wrap an existing tree.
    pub fn new(name: String, cols: Vec<usize>, tree: BTree) -> Index {
        Index { name, cols, tree }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column ordinals, in key order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The underlying tree.
    pub fn tree(&self) -> &BTree {
        &self.tree
    }

    fn key_of(&self, row: &Tuple) -> Vec<u8> {
        let vals: Vec<Value> = self.cols.iter().map(|&c| row.get(c).clone()).collect();
        encode_key(&vals)
    }

    fn insert_row(&self, row: &Tuple, rid: RecordId) -> Result<()> {
        self.tree.insert(&self.key_of(row), rid.to_u64())
    }

    fn delete_row(&self, row: &Tuple, rid: RecordId) -> Result<()> {
        self.tree.delete(&self.key_of(row), rid.to_u64())?;
        Ok(())
    }
}

/// Per-table access counters (the experiments report scans vs probes).
#[derive(Debug, Default)]
pub struct TableStats {
    /// Rows visited by full scans.
    pub rows_scanned: Counter,
    /// Index point/range probes.
    pub index_probes: Counter,
}

/// A named, schema'd collection of rows.
pub struct Table {
    name: String,
    schema: Schema,
    heap: HeapFile,
    indexes: RwLock<Vec<Arc<Index>>>,
    stats: TableStats,
}

impl Table {
    /// Wrap a heap as a table.
    pub fn new(name: String, schema: Schema, heap: HeapFile) -> Table {
        Table {
            name,
            schema,
            heap,
            indexes: RwLock::new(Vec::new()),
            stats: TableStats::default(),
        }
    }

    /// Table name (original case).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Access counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Attached indexes.
    pub fn indexes(&self) -> Vec<Arc<Index>> {
        self.indexes.read().clone()
    }

    /// Index by name.
    pub fn index(&self, name: &str) -> Option<Arc<Index>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
            .cloned()
    }

    /// Register an index handle (already backfilled / loaded).
    pub fn attach_index(&self, idx: Arc<Index>) {
        self.indexes.write().push(idx);
    }

    /// Populate a fresh index from existing rows.
    pub fn backfill_index(&self, idx: &Index) -> Result<()> {
        self.heap.scan(|rid, rec| {
            let row = Tuple::decode(rec)?;
            idx.insert_row(&row, rid)?;
            Ok(true)
        })
    }

    /// Insert a row (values coerced against the schema). Returns its rid.
    pub fn insert(&self, values: Vec<Value>) -> Result<RecordId> {
        let row = Tuple::new(self.schema.coerce_row(values)?);
        let rid = self.heap.insert(&row.encode())?;
        for idx in self.indexes.read().iter() {
            idx.insert_row(&row, rid)?;
        }
        Ok(rid)
    }

    /// Fetch a row.
    pub fn get(&self, rid: RecordId) -> Result<Tuple> {
        Tuple::decode(&self.heap.get(rid)?)
    }

    /// Delete a row, returning its old value.
    pub fn delete(&self, rid: RecordId) -> Result<Tuple> {
        let row = self.get(rid)?;
        self.heap.delete(rid)?;
        for idx in self.indexes.read().iter() {
            idx.delete_row(&row, rid)?;
        }
        Ok(row)
    }

    /// Replace a row, returning `(old, new_rid)` (the rid changes only if
    /// the row had to move pages).
    pub fn update(&self, rid: RecordId, values: Vec<Value>) -> Result<(Tuple, RecordId)> {
        let old = self.get(rid)?;
        let new_row = Tuple::new(self.schema.coerce_row(values)?);
        let new_rid = self.heap.update(rid, &new_row.encode())?;
        for idx in self.indexes.read().iter() {
            idx.delete_row(&old, rid)?;
            idx.insert_row(&new_row, new_rid)?;
        }
        Ok((old, new_rid))
    }

    /// Visit every row; `f` returns false to stop.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &Tuple) -> Result<bool>) -> Result<()> {
        self.heap.scan(|rid, rec| {
            self.stats.rows_scanned.bump();
            let row = Tuple::decode(rec)?;
            f(rid, &row)
        })
    }

    /// Materialize all rows.
    pub fn scan_all(&self) -> Result<Vec<(RecordId, Tuple)>> {
        let mut out = Vec::new();
        self.scan(|rid, row| {
            out.push((rid, row.clone()));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Number of rows.
    pub fn count(&self) -> Result<usize> {
        let mut n = 0;
        self.heap.scan(|_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// Point lookup on a named index: rows whose indexed columns equal
    /// `key` (a full-key match when `key` covers all index columns, a
    /// prefix match otherwise).
    pub fn index_lookup(&self, index: &str, key: &[Value]) -> Result<Vec<(RecordId, Tuple)>> {
        let idx = self
            .index(index)
            .ok_or_else(|| TmanError::NotFound(format!("index '{index}'")))?;
        self.index_prefix_lookup(&idx, key)
    }

    /// Prefix lookup against a specific index handle.
    pub fn index_prefix_lookup(
        &self,
        idx: &Index,
        key: &[Value],
    ) -> Result<Vec<(RecordId, Tuple)>> {
        if key.len() > idx.cols.len() {
            return Err(TmanError::Invalid(format!(
                "key of {} values for {}-column index",
                key.len(),
                idx.cols.len()
            )));
        }
        self.stats.index_probes.bump();
        let prefix = encode_key(key);
        let hi = tman_storage::prefix_upper_bound(&prefix);
        let mut rids = Vec::new();
        idx.tree.scan_range(&prefix, &hi, |_, v| {
            rids.push(RecordId::from_u64(v));
            Ok(true)
        })?;
        rids.into_iter()
            .map(|rid| Ok((rid, self.get(rid)?)))
            .collect()
    }

    /// Range lookup `lo <[=] key <[=] hi` on a single-column prefix of an
    /// index. `None` bounds are open.
    pub fn index_range_lookup(
        &self,
        idx: &Index,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Result<Vec<(RecordId, Tuple)>> {
        self.stats.index_probes.bump();
        let lo_key = match lo {
            Some((v, _)) => encode_key(std::slice::from_ref(v)),
            None => Vec::new(),
        };
        let hi_key = match hi {
            Some((v, _)) => {
                let k = encode_key(std::slice::from_ref(v));
                // Upper bound must include composite keys extending `v`
                // when inclusive.
                tman_storage::prefix_upper_bound(&k)
            }
            None => vec![0xFF; 16],
        };
        let mut rids = Vec::new();
        idx.tree.scan_range(&lo_key, &hi_key, |_, v| {
            rids.push(RecordId::from_u64(v));
            Ok(true)
        })?;
        // The byte range over-approximates at both ends (exclusive bounds,
        // lossy f64 keys); re-check against the real row values.
        let col = idx.cols[0];
        let mut out = Vec::new();
        for rid in rids {
            let row = self.get(rid)?;
            let v = row.get(col);
            let lo_ok = match lo {
                None => true,
                Some((b, true)) => v >= b,
                Some((b, false)) => v > b,
            };
            let hi_ok = match hi {
                None => true,
                Some((b, true)) => v <= b,
                Some((b, false)) => v < b,
            };
            if lo_ok && hi_ok {
                out.push((rid, row));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use tman_common::DataType;
    use tman_storage::{BufferPool, DiskManager};

    fn table_with_index() -> (Table, StdArc<Index>) {
        let pool = StdArc::new(BufferPool::new(
            StdArc::new(DiskManager::open_memory()),
            128,
        ));
        let heap = HeapFile::create(pool.clone()).unwrap();
        let schema = Schema::from_pairs(&[
            ("name", DataType::Varchar(32)),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ]);
        let t = Table::new("emp".into(), schema, heap);
        let tree = BTree::create(pool).unwrap();
        let idx = StdArc::new(Index::new("emp_dept".into(), vec![2], tree));
        t.attach_index(idx.clone());
        (t, idx)
    }

    fn row(name: &str, sal: f64, dept: i64) -> Vec<Value> {
        vec![Value::str(name), Value::Float(sal), Value::Int(dept)]
    }

    #[test]
    fn crud_with_index_maintenance() {
        let (t, _) = table_with_index();
        let r1 = t.insert(row("Bob", 80000.0, 7)).unwrap();
        let _r2 = t.insert(row("Alice", 90000.0, 7)).unwrap();
        let _r3 = t.insert(row("Eve", 50000.0, 3)).unwrap();

        assert_eq!(
            t.index_lookup("emp_dept", &[Value::Int(7)]).unwrap().len(),
            2
        );
        assert_eq!(
            t.index_lookup("emp_dept", &[Value::Int(3)]).unwrap().len(),
            1
        );

        // Update moves Bob to dept 3.
        t.update(r1, row("Bob", 80000.0, 3)).unwrap();
        assert_eq!(
            t.index_lookup("emp_dept", &[Value::Int(7)]).unwrap().len(),
            1
        );
        assert_eq!(
            t.index_lookup("emp_dept", &[Value::Int(3)]).unwrap().len(),
            2
        );

        // Delete Bob.
        let hits = t.index_lookup("emp_dept", &[Value::Int(3)]).unwrap();
        let bob = hits
            .iter()
            .find(|(_, r)| r.get(0) == &Value::str("Bob"))
            .unwrap()
            .0;
        t.delete(bob).unwrap();
        assert_eq!(
            t.index_lookup("emp_dept", &[Value::Int(3)]).unwrap().len(),
            1
        );
        assert_eq!(t.count().unwrap(), 2);
    }

    #[test]
    fn schema_coercion_on_insert() {
        let (t, _) = table_with_index();
        // Int salary coerces to float.
        let rid = t
            .insert(vec![Value::str("X"), Value::Int(100), Value::Int(1)])
            .unwrap();
        assert_eq!(t.get(rid).unwrap().get(1), &Value::Float(100.0));
        // Wrong arity / type rejected.
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::Int(5), Value::Float(1.0), Value::Int(1)])
            .is_err());
    }

    #[test]
    fn range_lookup_bounds() {
        let (t, idx) = table_with_index();
        for d in 0..20 {
            t.insert(row(&format!("p{d}"), 1000.0 * d as f64, d))
                .unwrap();
        }
        let got = t
            .index_range_lookup(
                &idx,
                Some((&Value::Int(5), true)),
                Some((&Value::Int(8), false)),
            )
            .unwrap();
        let mut depts: Vec<i64> = got
            .iter()
            .map(|(_, r)| r.get(2).as_i64().unwrap())
            .collect();
        depts.sort();
        assert_eq!(depts, vec![5, 6, 7]);
        // Open-ended.
        let got = t
            .index_range_lookup(&idx, Some((&Value::Int(18), false)), None)
            .unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn backfill_existing_rows() {
        let pool = StdArc::new(BufferPool::new(
            StdArc::new(DiskManager::open_memory()),
            128,
        ));
        let heap = HeapFile::create(pool.clone()).unwrap();
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let t = Table::new("t".into(), schema, heap);
        for i in 0..50 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        let tree = BTree::create(pool).unwrap();
        let idx = StdArc::new(Index::new("t_k".into(), vec![0], tree));
        t.backfill_index(&idx).unwrap();
        t.attach_index(idx);
        assert_eq!(t.index_lookup("t_k", &[Value::Int(25)]).unwrap().len(), 1);
    }

    #[test]
    fn stats_count_scans_and_probes() {
        let (t, _) = table_with_index();
        for i in 0..10 {
            t.insert(row("x", 1.0, i)).unwrap();
        }
        t.scan_all().unwrap();
        assert_eq!(t.stats().rows_scanned.get(), 10);
        t.index_lookup("emp_dept", &[Value::Int(1)]).unwrap();
        assert_eq!(t.stats().index_probes.get(), 1);
    }
}
