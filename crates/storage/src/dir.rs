//! Persistent object directory.
//!
//! Maps object names to their meta pages, rooted at page 0 (the
//! superblock), spilling onto chained pages when full. Heaps, B+trees and
//! sequence logs are addressed by an immutable *meta page*, so directory entries
//! never need updating after creation.
//!
//! Record layout: `[kind u8][root u32][name utf8...]`.

use crate::buffer::BufferPool;
use crate::disk::PageId;
use crate::page::{SlottedPage, SlottedPageRef};
use std::sync::Arc;
use tman_common::{Result, TmanError};
use tman_sync::Mutex;

/// What a directory entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjectKind {
    /// A [`crate::heap::HeapFile`] meta page.
    Heap,
    /// A [`crate::btree::BTree`] meta page.
    BTree,
    /// A [`crate::seqlog::SeqLog`] meta page.
    SeqLog,
}

impl ObjectKind {
    fn code(self) -> u8 {
        match self {
            ObjectKind::Heap => 0,
            ObjectKind::BTree => 1,
            ObjectKind::SeqLog => 2,
        }
    }

    fn from_code(c: u8) -> Result<ObjectKind> {
        match c {
            0 => Ok(ObjectKind::Heap),
            1 => Ok(ObjectKind::BTree),
            2 => Ok(ObjectKind::SeqLog),
            _ => Err(TmanError::Storage(format!("bad object kind {c}"))),
        }
    }
}

/// A directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirEntry {
    /// Object name (unique, case-sensitive).
    pub(crate) name: String,
    /// Object kind.
    pub(crate) kind: ObjectKind,
    /// Meta page of the object.
    pub(crate) root: PageId,
}

/// The name → object map for one store.
pub struct Directory {
    pool: Arc<BufferPool>,
    lock: Mutex<()>,
}

impl Directory {
    /// Open the directory of a store; formats page 0 if the store is fresh.
    pub(crate) fn open(pool: Arc<BufferPool>) -> Result<Directory> {
        {
            let g = pool.fetch(PageId(0))?;
            let mut w = g.write();
            // A fresh zero-filled page 0 has free_end == 0, impossible for a
            // formatted slotted page — use that to detect first open.
            let formatted = u16::from_le_bytes(w[6..8].try_into().unwrap()) != 0;
            if !formatted {
                SlottedPage::init(&mut w);
            }
        }
        Ok(Directory {
            pool,
            lock: Mutex::new(()),
        })
    }

    fn encode(entry: &DirEntry) -> Vec<u8> {
        let mut rec = Vec::with_capacity(5 + entry.name.len());
        rec.push(entry.kind.code());
        rec.extend_from_slice(&entry.root.0.to_le_bytes());
        rec.extend_from_slice(entry.name.as_bytes());
        rec
    }

    fn decode(rec: &[u8]) -> Result<DirEntry> {
        if rec.len() < 5 {
            return Err(TmanError::Storage("truncated directory entry".into()));
        }
        Ok(DirEntry {
            kind: ObjectKind::from_code(rec[0])?,
            root: PageId(u32::from_le_bytes(rec[1..5].try_into().unwrap())),
            name: String::from_utf8(rec[5..].to_vec())
                .map_err(|e| TmanError::Storage(format!("bad directory name: {e}")))?,
        })
    }

    /// Visit each entry; `f` returns false to stop. Returns the location of
    /// the last visited entry when stopped early.
    fn scan_entries(&self, mut f: impl FnMut(&DirEntry) -> bool) -> Result<Option<(PageId, u16)>> {
        let mut pid = PageId(0);
        loop {
            let g = self.pool.fetch(pid)?;
            let r = g.read();
            let sp = SlottedPageRef::new(&r);
            for (slot, rec) in sp.records() {
                let entry = Self::decode(rec)?;
                if !f(&entry) {
                    return Ok(Some((pid, slot)));
                }
            }
            let next = sp.next_page();
            if next.is_null() {
                return Ok(None);
            }
            pid = next;
        }
    }

    /// Register a new object. Errors if the name is taken.
    pub(crate) fn create(&self, name: &str, kind: ObjectKind, root: PageId) -> Result<()> {
        let _l = self.lock.lock();
        let mut exists = false;
        self.scan_entries(|e| {
            if e.name == name {
                exists = true;
                false
            } else {
                true
            }
        })?;
        if exists {
            return Err(TmanError::AlreadyExists(format!("object '{name}'")));
        }
        let rec = Self::encode(&DirEntry {
            name: name.to_string(),
            kind,
            root,
        });
        // Walk the chain looking for room, extending it at the end.
        let mut pid = PageId(0);
        loop {
            let g = self.pool.fetch(pid)?;
            let mut w = g.write();
            let mut sp = SlottedPage::new(&mut w);
            if sp.insert(&rec).is_some() {
                return Ok(());
            }
            let next = sp.next_page();
            if !next.is_null() {
                drop(w);
                pid = next;
                continue;
            }
            let (new_pid, ng) = self.pool.allocate()?;
            let mut nw = ng.write();
            let mut np = SlottedPage::init(&mut nw);
            np.insert(&rec)
                .ok_or_else(|| TmanError::Storage("directory entry too large".into()))?;
            drop(nw);
            sp.set_next_page(new_pid);
            return Ok(());
        }
    }

    /// Look up an entry by name.
    pub(crate) fn get(&self, name: &str) -> Result<DirEntry> {
        let mut found = None;
        self.scan_entries(|e| {
            if e.name == name {
                found = Some(e.clone());
                false
            } else {
                true
            }
        })?;
        found.ok_or_else(|| TmanError::NotFound(format!("object '{name}'")))
    }

    /// True if the name exists.
    pub fn exists(&self, name: &str) -> Result<bool> {
        Ok(self.get(name).is_ok())
    }

    /// Remove an entry (the object's pages are leaked).
    pub(crate) fn remove(&self, name: &str) -> Result<()> {
        let _l = self.lock.lock();
        let loc = self.scan_entries(|e| e.name != name)?;
        let Some((pid, slot)) = loc else {
            return Err(TmanError::NotFound(format!("object '{name}'")));
        };
        let g = self.pool.fetch(pid)?;
        let mut w = g.write();
        SlottedPage::new(&mut w).delete(slot);
        Ok(())
    }

    /// Crash-recovery revalidation: re-initialize quarantined (zeroed)
    /// directory chain pages, cut chain links pointing out of bounds, and
    /// prune entries whose meta page is out of bounds (an object whose
    /// creation never fully reached disk). Returns the pruned names.
    pub(crate) fn repair(&self, num_pages: u32) -> Result<Vec<String>> {
        {
            let _l = self.lock.lock();
            let mut visited = std::collections::HashSet::new();
            let mut pid = PageId(0);
            loop {
                if !visited.insert(pid) {
                    break;
                }
                let g = self.pool.fetch(pid)?;
                let mut w = g.write();
                let free_end = u16::from_le_bytes(w[6..8].try_into().unwrap());
                if free_end == 0 {
                    SlottedPage::init(&mut w);
                }
                let mut sp = SlottedPage::new(&mut w);
                let next = sp.next_page();
                if next.is_null() {
                    break;
                }
                if next.0 >= num_pages {
                    sp.set_next_page(PageId::NULL);
                    break;
                }
                pid = next;
            }
        }
        let mut bad = Vec::new();
        self.scan_entries(|e| {
            if e.root.is_null() || e.root.0 >= num_pages {
                bad.push(e.name.clone());
            }
            true
        })?;
        for name in &bad {
            self.remove(name)?;
        }
        Ok(bad)
    }

    /// All entries, in storage order.
    pub(crate) fn list(&self) -> Result<Vec<DirEntry>> {
        let mut out = Vec::new();
        self.scan_entries(|e| {
            out.push(e.clone());
            true
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn dir() -> Directory {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::open_memory()), 32));
        Directory::open(pool).unwrap()
    }

    #[test]
    fn create_get_remove() {
        let d = dir();
        d.create("emp", ObjectKind::Heap, PageId(10)).unwrap();
        d.create("emp_idx", ObjectKind::BTree, PageId(11)).unwrap();
        let e = d.get("emp").unwrap();
        assert_eq!(e.kind, ObjectKind::Heap);
        assert_eq!(e.root, PageId(10));
        assert!(d.exists("emp_idx").unwrap());
        assert!(matches!(
            d.create("emp", ObjectKind::Heap, PageId(12)),
            Err(TmanError::AlreadyExists(_))
        ));
        d.remove("emp").unwrap();
        assert!(!d.exists("emp").unwrap());
        assert!(d.remove("emp").is_err());
    }

    #[test]
    fn spills_across_pages() {
        let d = dir();
        // Enough entries to overflow page 0 (each ~40 bytes incl. slot).
        for i in 0..300 {
            d.create(
                &format!("const_table_signature_number_{i:04}"),
                ObjectKind::Heap,
                PageId(100 + i),
            )
            .unwrap();
        }
        assert_eq!(d.list().unwrap().len(), 300);
        assert_eq!(
            d.get("const_table_signature_number_0250").unwrap().root,
            PageId(350)
        );
    }

    #[test]
    fn reopen_preserves_entries() {
        let path = std::env::temp_dir().join(format!("tman_dir_{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(DiskManager::open_file_with(&path, None).unwrap()),
                8,
            ));
            let d = Directory::open(pool.clone()).unwrap();
            d.create("catalog", ObjectKind::Heap, PageId(5)).unwrap();
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(DiskManager::open_file_with(&path, None).unwrap()),
                8,
            ));
            let d = Directory::open(pool).unwrap();
            assert_eq!(d.get("catalog").unwrap().root, PageId(5));
        }
        let _ = std::fs::remove_file(&path);
    }
}
