//! Disk-backed B+tree over memcmp-comparable byte keys.
//!
//! This is the index behind the paper's "indexed database table" constant-set
//! organization and the "clustered index on [const1, ... constK]" (§5.1).
//!
//! Entries are stored as `kv = key_bytes ++ value_be8` and compared as the
//! `(key, value)` pair (see `BTree::cmp_kv` — plain byte comparison of
//! the concatenation would mis-order keys that prefix each other).
//! Embedding the value makes every entry unique (values are record ids),
//! which gives clean duplicate-key support: `lookup` is a range scan.
//!
//! Simplifications relative to a production tree (documented in DESIGN.md):
//! nodes are rewritten wholesale on modification (simple, still O(log n)
//! I/O), deletes never rebalance (underflowed nodes are allowed; empty
//! leaves are skipped by scans), and there is a single writer at a time per
//! tree (enforced by an internal mutex — the engine's catalogs serialize
//! DDL anyway).

use crate::buffer::BufferPool;
use crate::disk::{PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;
use tman_common::{Result, TmanError};

const MAGIC: &[u8; 4] = b"BTRE";
const LEAF: u8 = 0;
const INTERNAL: u8 = 1;
const HDR: usize = 7; // type u8, count u16, link u32

/// Maximum encoded key length accepted (keeps ≥3 entries per node).
pub const MAX_KEY: usize = 1024;

#[derive(Debug, Clone)]
struct Node {
    kind: u8,
    /// Leaf: next-leaf link. Internal: leftmost child.
    link: PageId,
    /// Leaf: kv entries. Internal: (separator kv, right child) pairs.
    entries: Vec<(Vec<u8>, u32)>,
}

impl Node {
    fn leaf() -> Node {
        Node {
            kind: LEAF,
            link: PageId::NULL,
            entries: Vec::new(),
        }
    }

    fn bytes_used(&self) -> usize {
        let per_entry_overhead = if self.kind == LEAF { 2 } else { 2 + 4 };
        HDR + self
            .entries
            .iter()
            .map(|(kv, _)| kv.len() + per_entry_overhead)
            .sum::<usize>()
    }

    fn fits(&self) -> bool {
        self.bytes_used() <= PAGE_SIZE
    }

    fn write_to(&self, buf: &mut [u8; PAGE_SIZE]) {
        buf[0] = self.kind;
        buf[1..3].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        buf[3..7].copy_from_slice(&self.link.0.to_le_bytes());
        let mut off = HDR;
        for (kv, child) in &self.entries {
            buf[off..off + 2].copy_from_slice(&(kv.len() as u16).to_le_bytes());
            off += 2;
            buf[off..off + kv.len()].copy_from_slice(kv);
            off += kv.len();
            if self.kind == INTERNAL {
                buf[off..off + 4].copy_from_slice(&child.to_le_bytes());
                off += 4;
            }
        }
    }

    fn read_from(buf: &[u8; PAGE_SIZE]) -> Result<Node> {
        let kind = buf[0];
        if kind != LEAF && kind != INTERNAL {
            return Err(TmanError::Corrupt(format!("bad btree node kind {kind}")));
        }
        let count = u16::from_le_bytes(buf[1..3].try_into().unwrap()) as usize;
        let link = PageId(u32::from_le_bytes(buf[3..7].try_into().unwrap()));
        let mut entries = Vec::with_capacity(count.min(PAGE_SIZE / 2));
        let mut off = HDR;
        // Every length field comes off disk: bounds-check rather than trust,
        // so a page that is not really a btree node surfaces as a
        // recoverable `Corrupt` instead of a slice panic.
        for _ in 0..count {
            if off + 2 > PAGE_SIZE {
                return Err(TmanError::Corrupt("btree entry count overruns page".into()));
            }
            let len = u16::from_le_bytes(buf[off..off + 2].try_into().unwrap()) as usize;
            off += 2;
            let trailing = if kind == INTERNAL { 4 } else { 0 };
            if len < 8 || off + len + trailing > PAGE_SIZE {
                return Err(TmanError::Corrupt(format!(
                    "btree entry length {len} overruns page"
                )));
            }
            let kv = buf[off..off + len].to_vec();
            off += len;
            let child = if kind == INTERNAL {
                let c = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
                off += 4;
                c
            } else {
                0
            };
            entries.push((kv, child));
        }
        Ok(Node {
            kind,
            link,
            entries,
        })
    }
}

/// A persistent ordered map from byte keys to `u64` values, duplicates
/// allowed (distinct values under the same key).
pub struct BTree {
    pool: Arc<BufferPool>,
    meta: PageId,
    write_lock: Mutex<()>,
}

impl BTree {
    /// Create an empty tree (meta page + empty root leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        let (meta_pid, meta) = pool.allocate()?;
        let (root_pid, root) = pool.allocate()?;
        Node::leaf().write_to(&mut root.write());
        {
            let mut m = meta.write();
            m[0..4].copy_from_slice(MAGIC);
            m[4..8].copy_from_slice(&root_pid.0.to_le_bytes());
        }
        Ok(BTree {
            pool,
            meta: meta_pid,
            write_lock: Mutex::new(()),
        })
    }

    /// Open an existing tree by meta page.
    pub fn open(pool: Arc<BufferPool>, meta: PageId) -> Result<BTree> {
        let g = pool.fetch(meta)?;
        if &g.read()[0..4] != MAGIC {
            return Err(TmanError::Storage(format!(
                "page {} is not a btree meta page",
                meta.0
            )));
        }
        drop(g);
        Ok(BTree {
            pool,
            meta,
            write_lock: Mutex::new(()),
        })
    }

    /// The meta page id (stable identity for the directory).
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    /// Crash-recovery revalidation: make the tree at `meta` structurally
    /// openable again. A quarantined (zeroed) meta page gets its magic and
    /// a fresh empty root leaf back; an unreadable or out-of-bounds root is
    /// replaced by a fresh empty leaf. Returns `true` when anything was
    /// rebuilt — the caller is then expected to backfill the index from its
    /// source of truth.
    pub fn repair(pool: &Arc<BufferPool>, meta: PageId) -> Result<bool> {
        let fresh_root = |pool: &Arc<BufferPool>| -> Result<PageId> {
            let (pid, g) = pool.allocate()?;
            Node::leaf().write_to(&mut g.write());
            Ok(pid)
        };
        let g = pool.fetch(meta)?;
        let magic_ok = &g.read()[0..4] == MAGIC;
        if !magic_ok {
            let root = fresh_root(pool)?;
            let mut m = g.write();
            m[0..4].copy_from_slice(MAGIC);
            m[4..8].copy_from_slice(&root.0.to_le_bytes());
            return Ok(true);
        }
        let root = PageId(u32::from_le_bytes(g.read()[4..8].try_into().unwrap()));
        drop(g);
        let root_ok = !root.is_null()
            && root.0 < pool.disk().num_pages()
            && pool
                .fetch(root)
                .and_then(|rg| Node::read_from(&rg.read()).map(|_| ()))
                .is_ok();
        if !root_ok {
            let new_root = fresh_root(pool)?;
            let mg = pool.fetch(meta)?;
            mg.write()[4..8].copy_from_slice(&new_root.0.to_le_bytes());
            return Ok(true);
        }
        Ok(false)
    }

    fn root(&self) -> Result<PageId> {
        let g = self.pool.fetch(self.meta)?;
        let r = g.read();
        Ok(PageId(u32::from_le_bytes(r[4..8].try_into().unwrap())))
    }

    fn set_root(&self, pid: PageId) -> Result<()> {
        let g = self.pool.fetch(self.meta)?;
        g.write()[4..8].copy_from_slice(&pid.0.to_le_bytes());
        Ok(())
    }

    fn load(&self, pid: PageId) -> Result<Node> {
        let g = self.pool.fetch(pid)?;
        let r = g.read();
        Node::read_from(&r)
    }

    fn store(&self, pid: PageId, node: &Node) -> Result<()> {
        let g = self.pool.fetch(pid)?;
        node.write_to(&mut g.write());
        Ok(())
    }

    /// Compare two stored entries as `(key, value)` pairs. Plain byte
    /// comparison of the concatenated form would be wrong when one key is
    /// a proper prefix of another (the value suffix would leak into the
    /// key comparison) — keyenc-encoded keys are prefix-free, but the tree
    /// accepts arbitrary byte keys, so split and compare properly.
    fn cmp_kv(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        let (ka, va) = Self::split_kv(a);
        let (kb, vb) = Self::split_kv(b);
        ka.cmp(kb).then(va.cmp(&vb))
    }

    fn make_kv(key: &[u8], value: u64) -> Vec<u8> {
        let mut kv = Vec::with_capacity(key.len() + 8);
        kv.extend_from_slice(key);
        kv.extend_from_slice(&value.to_be_bytes());
        kv
    }

    fn split_kv(kv: &[u8]) -> (&[u8], u64) {
        let at = kv.len() - 8;
        (&kv[..at], u64::from_be_bytes(kv[at..].try_into().unwrap()))
    }

    /// Child index to descend into for `kv`: the rightmost child whose
    /// separator is `<= kv`, or the leftmost child when all are greater.
    fn child_for(node: &Node, kv: &[u8]) -> (usize, PageId) {
        let idx = node
            .entries
            .partition_point(|(sep, _)| Self::cmp_kv(sep, kv) != std::cmp::Ordering::Greater);
        if idx == 0 {
            (0, node.link)
        } else {
            (idx, PageId(node.entries[idx - 1].1))
        }
    }

    /// Descend to the leaf where `kv` belongs, recording the path of
    /// internal pages visited.
    fn descend(&self, kv: &[u8]) -> Result<(Vec<PageId>, PageId)> {
        let mut path = Vec::new();
        let mut pid = self.root()?;
        loop {
            let node = self.load(pid)?;
            if node.kind == LEAF {
                return Ok((path, pid));
            }
            path.push(pid);
            pid = Self::child_for(&node, kv).1;
        }
    }

    /// Insert `(key, value)`. Duplicate keys are fine; inserting the exact
    /// same `(key, value)` pair twice is idempotent.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<()> {
        if key.len() > MAX_KEY {
            return Err(TmanError::Storage(format!(
                "index key of {} bytes exceeds max {MAX_KEY}",
                key.len()
            )));
        }
        let _w = self.write_lock.lock();
        let kv = Self::make_kv(key, value);
        let (path, leaf_pid) = self.descend(&kv)?;
        let mut node = self.load(leaf_pid)?;
        let pos = node
            .entries
            .partition_point(|(e, _)| Self::cmp_kv(e, &kv) == std::cmp::Ordering::Less);
        if node
            .entries
            .get(pos)
            .map(|(e, _)| e == &kv)
            .unwrap_or(false)
        {
            return Ok(()); // exact duplicate
        }
        node.entries.insert(pos, (kv, 0));
        if node.fits() {
            return self.store(leaf_pid, &node);
        }
        self.split_and_propagate(path, leaf_pid, node)
    }

    fn split_and_propagate(&self, mut path: Vec<PageId>, pid: PageId, node: Node) -> Result<()> {
        // Split `node` (oversized, in memory) into itself + a new right
        // sibling; then insert the separator into the parent, recursing if
        // the parent overflows too.
        let mid = node.entries.len() / 2;
        let mut left = node.clone();
        let right_entries = left.entries.split_off(mid);
        let (right_pid, right_guard) = self.pool.allocate()?;
        let mut right = Node {
            kind: node.kind,
            link: PageId::NULL,
            entries: right_entries,
        };
        let sep = right.entries[0].0.clone();
        if node.kind == LEAF {
            right.link = left.link;
            left.link = right_pid;
        } else {
            // Internal split: the separator moves *up*; its child becomes
            // the right node's leftmost child.
            let (sep_kv, sep_child) = right.entries.remove(0);
            right.link = PageId(sep_child);
            debug_assert_eq!(sep_kv, sep);
        }
        right.write_to(&mut right_guard.write());
        drop(right_guard);
        self.store(pid, &left)?;

        match path.pop() {
            None => {
                // Split the root: make a new root above.
                let (new_root_pid, g) = self.pool.allocate()?;
                let new_root = Node {
                    kind: INTERNAL,
                    link: pid,
                    entries: vec![(sep, right_pid.0)],
                };
                new_root.write_to(&mut g.write());
                drop(g);
                self.set_root(new_root_pid)
            }
            Some(parent_pid) => {
                let mut parent = self.load(parent_pid)?;
                let pos = parent
                    .entries
                    .partition_point(|(e, _)| Self::cmp_kv(e, &sep) == std::cmp::Ordering::Less);
                parent.entries.insert(pos, (sep, right_pid.0));
                if parent.fits() {
                    self.store(parent_pid, &parent)
                } else {
                    self.split_and_propagate(path, parent_pid, parent)
                }
            }
        }
    }

    /// Remove `(key, value)`. Returns true if it was present.
    pub fn delete(&self, key: &[u8], value: u64) -> Result<bool> {
        let _w = self.write_lock.lock();
        let kv = Self::make_kv(key, value);
        let (_, leaf_pid) = self.descend(&kv)?;
        let mut node = self.load(leaf_pid)?;
        let pos = node
            .entries
            .partition_point(|(e, _)| Self::cmp_kv(e, &kv) == std::cmp::Ordering::Less);
        if node
            .entries
            .get(pos)
            .map(|(e, _)| e == &kv)
            .unwrap_or(false)
        {
            node.entries.remove(pos);
            self.store(leaf_pid, &node)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// All values stored under exactly `key`.
    pub fn lookup(&self, key: &[u8]) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        // The prefix range can include longer keys that extend `key` when
        // raw (non-keyenc) byte keys are used, so filter for exact equality.
        self.scan_range(key, &crate::keyenc::prefix_upper_bound(key), |k, v| {
            if k == key {
                out.push(v);
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// Visit entries with `lo <= key < hi` in order. `f` returns false to
    /// stop. Keys passed to `f` have the value suffix stripped.
    pub fn scan_range(
        &self,
        lo: &[u8],
        hi: &[u8],
        mut f: impl FnMut(&[u8], u64) -> Result<bool>,
    ) -> Result<()> {
        let lo_kv = Self::make_kv(lo, 0);
        let (_, mut leaf_pid) = self.descend(&lo_kv)?;
        loop {
            let node = self.load(leaf_pid)?;
            for (kv, _) in &node.entries {
                let (key, value) = Self::split_kv(kv);
                if Self::cmp_kv(kv, &lo_kv) == std::cmp::Ordering::Less {
                    continue;
                }
                if key >= hi {
                    return Ok(());
                }
                if !f(key, value)? {
                    return Ok(());
                }
            }
            if node.link.is_null() {
                return Ok(());
            }
            leaf_pid = node.link;
        }
    }

    /// Visit every entry in key order.
    pub fn scan_all(&self, f: impl FnMut(&[u8], u64) -> Result<bool>) -> Result<()> {
        self.scan_range(&[], &[0xFF; MAX_KEY + 1], f)
    }

    /// Total number of entries (full scan; tests only).
    pub fn count(&self) -> Result<usize> {
        let mut n = 0;
        self.scan_all(|_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// Tree height (1 = just a root leaf).
    pub fn height(&self) -> Result<usize> {
        let mut h = 1;
        let mut pid = self.root()?;
        loop {
            let node = self.load(pid)?;
            if node.kind == LEAF {
                return Ok(h);
            }
            h += 1;
            pid = node.link;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use rand::prelude::*;

    fn tree(pool_pages: usize) -> BTree {
        let pool = Arc::new(BufferPool::new(
            Arc::new(DiskManager::open_memory()),
            pool_pages,
        ));
        BTree::create(pool).unwrap()
    }

    #[test]
    fn insert_lookup_delete() {
        let t = tree(64);
        t.insert(b"apple", 1).unwrap();
        t.insert(b"banana", 2).unwrap();
        t.insert(b"apple", 3).unwrap(); // duplicate key, new value
        assert_eq!(t.lookup(b"apple").unwrap(), vec![1, 3]);
        assert_eq!(t.lookup(b"banana").unwrap(), vec![2]);
        assert_eq!(t.lookup(b"cherry").unwrap(), Vec::<u64>::new());
        assert!(t.delete(b"apple", 1).unwrap());
        assert!(!t.delete(b"apple", 1).unwrap());
        assert_eq!(t.lookup(b"apple").unwrap(), vec![3]);
    }

    #[test]
    fn idempotent_duplicate_insert() {
        let t = tree(64);
        t.insert(b"k", 9).unwrap();
        t.insert(b"k", 9).unwrap();
        assert_eq!(t.lookup(b"k").unwrap(), vec![9]);
        assert_eq!(t.count().unwrap(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree(512);
        let mut keys: Vec<u32> = (0..5000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(42));
        for &k in &keys {
            t.insert(&k.to_be_bytes(), k as u64).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "tree should have split");
        assert_eq!(t.count().unwrap(), 5000);
        // In-order scan yields sorted keys.
        let mut prev: Option<Vec<u8>> = None;
        t.scan_all(|k, v| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k);
            }
            assert_eq!(u32::from_be_bytes(k.try_into().unwrap()) as u64, v);
            prev = Some(k.to_vec());
            Ok(true)
        })
        .unwrap();
        // Point lookups all work.
        for k in (0..5000u32).step_by(37) {
            assert_eq!(t.lookup(&k.to_be_bytes()).unwrap(), vec![k as u64]);
        }
    }

    #[test]
    fn range_scan_bounds() {
        let t = tree(128);
        for k in 0..100u32 {
            t.insert(&k.to_be_bytes(), k as u64).unwrap();
        }
        let mut got = vec![];
        t.scan_range(&10u32.to_be_bytes(), &20u32.to_be_bytes(), |_, v| {
            got.push(v);
            Ok(true)
        })
        .unwrap();
        assert_eq!(got, (10..20).collect::<Vec<u64>>());
        // Early stop.
        let mut n = 0;
        t.scan_range(&0u32.to_be_bytes(), &100u32.to_be_bytes(), |_, _| {
            n += 1;
            Ok(n < 5)
        })
        .unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn deletes_through_splits() {
        let t = tree(256);
        for k in 0..2000u32 {
            t.insert(&k.to_be_bytes(), k as u64).unwrap();
        }
        for k in (0..2000u32).step_by(2) {
            assert!(t.delete(&k.to_be_bytes(), k as u64).unwrap());
        }
        assert_eq!(t.count().unwrap(), 1000);
        for k in 0..2000u32 {
            let want = if k % 2 == 1 { vec![k as u64] } else { vec![] };
            assert_eq!(t.lookup(&k.to_be_bytes()).unwrap(), want, "key {k}");
        }
    }

    #[test]
    fn variable_length_keys() {
        let t = tree(256);
        let mut rng = StdRng::seed_from_u64(7);
        let mut entries = vec![];
        for i in 0..800u64 {
            let len = rng.gen_range(0..200);
            let key: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            t.insert(&key, i).unwrap();
            entries.push((key, i));
        }
        for (key, v) in &entries {
            assert!(t.lookup(key).unwrap().contains(v));
        }
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree(64);
        assert!(t.insert(&vec![0u8; MAX_KEY + 1], 1).is_err());
        assert!(t.insert(&vec![0u8; MAX_KEY], 1).is_ok());
    }

    #[test]
    fn duplicate_heavy_keys_span_leaves() {
        // One key with enough values to span multiple leaves exercises the
        // cross-leaf prefix scan.
        let t = tree(512);
        for v in 0..3000u64 {
            t.insert(b"hot", v).unwrap();
        }
        let vals = t.lookup(b"hot").unwrap();
        assert_eq!(vals.len(), 3000);
        assert_eq!(vals, (0..3000).collect::<Vec<u64>>());
    }

    #[test]
    fn survives_small_buffer_pool() {
        // Pool far smaller than the tree forces eviction during operations.
        let t = tree(8);
        for k in 0..3000u32 {
            t.insert(&k.to_be_bytes(), k as u64).unwrap();
        }
        for k in (0..3000u32).step_by(100) {
            assert_eq!(t.lookup(&k.to_be_bytes()).unwrap(), vec![k as u64]);
        }
        assert!(t.pool.stats().evictions.get() > 0);
    }

    #[test]
    fn persistence_across_reopen() {
        let path = std::env::temp_dir().join(format!("tman_btree_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let meta;
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(DiskManager::open_file(&path).unwrap()),
                32,
            ));
            let t = BTree::create(pool.clone()).unwrap();
            meta = t.meta_page();
            for k in 0..500u32 {
                t.insert(&k.to_be_bytes(), k as u64).unwrap();
            }
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(DiskManager::open_file(&path).unwrap()),
                32,
            ));
            let t = BTree::open(pool, meta).unwrap();
            assert_eq!(t.count().unwrap(), 500);
            assert_eq!(t.lookup(&123u32.to_be_bytes()).unwrap(), vec![123]);
        }
        let _ = std::fs::remove_file(&path);
    }
}
