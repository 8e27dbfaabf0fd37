//! Heap files: unordered record storage over a page chain.
//!
//! Layout: one *meta page* (its id is the heap's stable identity in the
//! directory) holding the first/last page of a chain of slotted data pages
//! plus a free-space hint. Records larger than a page spill to an overflow
//! chain. Record ids (`page`, `slot`) are stable across intra-page
//! compaction; updates keep the rid when the new value fits on the same
//! page and return a fresh rid otherwise.

use crate::buffer::BufferPool;
use crate::disk::{PageId, PAGE_SIZE};
use crate::page::{SlottedPage, SlottedPageRef, MAX_RECORD};
use std::sync::Arc;
use tman_common::{Result, TmanError};

/// Stable address of a record in a heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Data page holding the record (or its overflow stub).
    pub(crate) page: PageId,
    /// Slot within the page.
    pub(crate) slot: u16,
}

impl RecordId {
    /// Pack into a u64 (for storing rids inside index entries).
    pub fn to_u64(self) -> u64 {
        ((self.page.0 as u64) << 16) | self.slot as u64
    }

    /// Unpack from [`to_u64`](Self::to_u64).
    pub fn from_u64(v: u64) -> RecordId {
        RecordId {
            page: PageId((v >> 16) as u32),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

// Meta page layout (not slotted):
//   0..4   magic "HEAP"
//   4..8   first data page
//   8..12  last data page (insert hint)
//   12..16 free-space hint page (0 = none)
const MAGIC: &[u8; 4] = b"HEAP";

// Record header byte.
const REC_INLINE: u8 = 0;
const REC_OVERFLOW: u8 = 1;

// Overflow page layout: 0..4 next page, 4..8 chunk length, 8.. chunk bytes.
const OVF_HDR: usize = 8;
const OVF_CAP: usize = PAGE_SIZE - OVF_HDR;

/// An unordered record file.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    meta: PageId,
}

impl HeapFile {
    /// Create a fresh heap (meta page + one empty data page).
    pub fn create(pool: Arc<BufferPool>) -> Result<HeapFile> {
        let (meta_pid, meta) = pool.allocate()?;
        let (first_pid, first) = pool.allocate()?;
        SlottedPage::init(&mut first.write());
        {
            let mut m = meta.write();
            m[0..4].copy_from_slice(MAGIC);
            m[4..8].copy_from_slice(&first_pid.0.to_le_bytes());
            m[8..12].copy_from_slice(&first_pid.0.to_le_bytes());
            m[12..16].copy_from_slice(&0u32.to_le_bytes());
        }
        Ok(HeapFile {
            pool,
            meta: meta_pid,
        })
    }

    /// Open an existing heap by its meta page.
    pub(crate) fn open(pool: Arc<BufferPool>, meta: PageId) -> Result<HeapFile> {
        let g = pool.fetch(meta)?;
        if &g.read()[0..4] != MAGIC {
            return Err(TmanError::Storage(format!(
                "page {} is not a heap meta page",
                meta.0
            )));
        }
        drop(g);
        Ok(HeapFile { pool, meta })
    }

    /// The meta page id (stable identity for the directory).
    pub(crate) fn meta_page(&self) -> PageId {
        self.meta
    }

    /// Rebuild a heap whose meta page was lost (quarantined): rewrite the
    /// meta in place pointing at a fresh empty data page. Previous rows are
    /// unreachable without the meta; callers repopulate from their source
    /// of truth.
    pub(crate) fn reformat(pool: Arc<BufferPool>, meta: PageId) -> Result<HeapFile> {
        let (first_pid, first) = pool.allocate()?;
        SlottedPage::init(&mut first.write());
        let g = pool.fetch(meta)?;
        {
            let mut m = g.write();
            m[0..4].copy_from_slice(MAGIC);
            m[4..8].copy_from_slice(&first_pid.0.to_le_bytes());
            m[8..12].copy_from_slice(&first_pid.0.to_le_bytes());
            m[12..16].copy_from_slice(&0u32.to_le_bytes());
        }
        Ok(HeapFile { pool, meta })
    }

    /// Crash-recovery revalidation: re-initialize quarantined (zeroed)
    /// chain pages so inserts cannot underflow, cut chain links that point
    /// out of bounds, re-find the true tail, and clear dangling free-space
    /// hints. Bounded by a visited set so a damaged chain cannot loop.
    /// Returns `true` when anything was fixed.
    pub(crate) fn repair(&self) -> Result<bool> {
        let (first, last, free_hint) = self.read_meta()?;
        let num_pages = self.pool.disk().num_pages();
        let mut changed = false;
        let mut visited = std::collections::HashSet::new();
        let mut pid = first;
        let mut tail = first;
        while !pid.is_null() && visited.insert(pid) {
            let g = self.pool.fetch(pid)?;
            let mut w = g.write();
            let free_end = u16::from_le_bytes(w[6..8].try_into().unwrap());
            if free_end == 0 {
                // Never formatted / zeroed by quarantine: re-init so the
                // insert path sees a well-formed empty page.
                SlottedPage::init(&mut w);
                changed = true;
            }
            let mut sp = SlottedPage::new(&mut w);
            let next = sp.next_page();
            if !next.is_null() && next.0 >= num_pages {
                sp.set_next_page(PageId::NULL);
                changed = true;
                tail = pid;
                break;
            }
            tail = pid;
            drop(w);
            pid = next;
        }
        if last != tail {
            self.write_meta_field(8, tail)?;
            changed = true;
        }
        if !free_hint.is_null() && !visited.contains(&free_hint) {
            self.write_meta_field(12, PageId::NULL)?;
            changed = true;
        }
        Ok(changed)
    }

    fn read_meta(&self) -> Result<(PageId, PageId, PageId)> {
        let g = self.pool.fetch(self.meta)?;
        let m = g.read();
        Ok((
            PageId(u32::from_le_bytes(m[4..8].try_into().unwrap())),
            PageId(u32::from_le_bytes(m[8..12].try_into().unwrap())),
            PageId(u32::from_le_bytes(m[12..16].try_into().unwrap())),
        ))
    }

    fn write_meta_field(&self, offset: usize, pid: PageId) -> Result<()> {
        let g = self.pool.fetch(self.meta)?;
        g.write()[offset..offset + 4].copy_from_slice(&pid.0.to_le_bytes());
        Ok(())
    }

    /// Insert a record, returning its id.
    pub fn insert(&self, rec: &[u8]) -> Result<RecordId> {
        if rec.len() + 1 > MAX_RECORD {
            let stub = self.write_overflow(rec)?;
            return self.insert_framed(&stub);
        }
        let mut framed = Vec::with_capacity(rec.len() + 1);
        framed.push(REC_INLINE);
        framed.extend_from_slice(rec);
        self.insert_framed(&framed)
    }

    fn insert_framed(&self, framed: &[u8]) -> Result<RecordId> {
        let (_, last, free_hint) = self.read_meta()?;
        // Try the free-space hint first (reuses holes left by deletes),
        // then the tail, then extend the chain.
        if !free_hint.is_null() && free_hint != last {
            let g = self.pool.fetch(free_hint)?;
            let mut w = g.write();
            let mut sp = SlottedPage::new(&mut w);
            if let Some(slot) = sp.insert(framed) {
                return Ok(RecordId {
                    page: free_hint,
                    slot,
                });
            }
            drop(w);
            // Hint exhausted; clear it.
            self.write_meta_field(12, PageId::NULL)?;
        }
        let mut pid = last;
        loop {
            let g = self.pool.fetch(pid)?;
            let mut w = g.write();
            let mut sp = SlottedPage::new(&mut w);
            if let Some(slot) = sp.insert(framed) {
                if pid != last {
                    self.write_meta_field(8, pid)?;
                }
                return Ok(RecordId { page: pid, slot });
            }
            let next = sp.next_page();
            if !next.is_null() {
                drop(w);
                pid = next;
                continue;
            }
            // Extend the chain while holding the tail's write lock so
            // concurrent inserts cannot both link a new tail.
            let (new_pid, new_guard) = self.pool.allocate()?;
            let mut nw = new_guard.write();
            let mut np = SlottedPage::init(&mut nw);
            let slot = np
                .insert(framed)
                .ok_or_else(|| TmanError::Storage("record too large for empty page".into()))?;
            drop(nw);
            sp.set_next_page(new_pid);
            drop(w);
            self.write_meta_field(8, new_pid)?;
            return Ok(RecordId {
                page: new_pid,
                slot,
            });
        }
    }

    fn write_overflow(&self, rec: &[u8]) -> Result<Vec<u8>> {
        // Build the chain back-to-front so each page can link to the next.
        let mut next = PageId::NULL;
        for chunk in rec.chunks(OVF_CAP).rev() {
            let (pid, g) = self.pool.allocate()?;
            let mut w = g.write();
            w[0..4].copy_from_slice(&next.0.to_le_bytes());
            w[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            w[OVF_HDR..OVF_HDR + chunk.len()].copy_from_slice(chunk);
            next = pid;
        }
        let mut stub = Vec::with_capacity(9);
        stub.push(REC_OVERFLOW);
        stub.extend_from_slice(&next.0.to_le_bytes());
        stub.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        Ok(stub)
    }

    fn read_overflow(&self, stub: &[u8]) -> Result<Vec<u8>> {
        let mut pid = PageId(u32::from_le_bytes(stub[1..5].try_into().unwrap()));
        let total = u32::from_le_bytes(stub[5..9].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(total);
        while !pid.is_null() {
            let g = self.pool.fetch(pid)?;
            let r = g.read();
            let next = PageId(u32::from_le_bytes(r[0..4].try_into().unwrap()));
            let len = u32::from_le_bytes(r[4..8].try_into().unwrap()) as usize;
            out.extend_from_slice(&r[OVF_HDR..OVF_HDR + len]);
            pid = next;
        }
        if out.len() != total {
            return Err(TmanError::Storage(format!(
                "overflow chain length {} != {}",
                out.len(),
                total
            )));
        }
        Ok(out)
    }

    fn unframe(&self, framed: &[u8]) -> Result<Vec<u8>> {
        match framed.first() {
            Some(&REC_INLINE) => Ok(framed[1..].to_vec()),
            Some(&REC_OVERFLOW) => self.read_overflow(framed),
            _ => Err(TmanError::Storage("corrupt record header".into())),
        }
    }

    /// Fetch a record by id.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        let g = self.pool.fetch(rid.page)?;
        let r = g.read();
        let sp = SlottedPageRef::new(&r);
        let framed = sp
            .get(rid.slot)
            .ok_or_else(|| TmanError::NotFound(format!("record {rid:?}")))?
            .to_vec();
        drop(r);
        self.unframe(&framed)
    }

    /// Delete a record. Overflow pages, if any, are leaked (no free-page
    /// list in this reproduction).
    pub fn delete(&self, rid: RecordId) -> Result<()> {
        let g = self.pool.fetch(rid.page)?;
        let mut w = g.write();
        let mut sp = SlottedPage::new(&mut w);
        if !sp.delete(rid.slot) {
            return Err(TmanError::NotFound(format!("record {rid:?}")));
        }
        drop(w);
        // Remember this page as having space for future inserts.
        self.write_meta_field(12, rid.page)?;
        Ok(())
    }

    /// Update a record. Returns the (possibly new) record id.
    pub fn update(&self, rid: RecordId, rec: &[u8]) -> Result<RecordId> {
        let framed = if rec.len() + 1 > MAX_RECORD {
            self.write_overflow(rec)?
        } else {
            let mut f = Vec::with_capacity(rec.len() + 1);
            f.push(REC_INLINE);
            f.extend_from_slice(rec);
            f
        };
        {
            let g = self.pool.fetch(rid.page)?;
            let mut w = g.write();
            let mut sp = SlottedPage::new(&mut w);
            if sp.get(rid.slot).is_none() {
                return Err(TmanError::NotFound(format!("record {rid:?}")));
            }
            if sp.update(rid.slot, &framed) {
                return Ok(rid);
            }
            // No room on this page: tombstone here, reinsert elsewhere.
            sp.delete(rid.slot);
        }
        self.insert_framed(&framed)
    }

    /// Visit every live record. `f` returns `false` to stop early.
    /// Records are copied out page-at-a-time so no page lock is held while
    /// `f` runs (f may call back into the heap).
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8]) -> Result<bool>) -> Result<()> {
        let (first, _, _) = self.read_meta()?;
        let mut pid = first;
        let mut page_recs: Vec<(u16, Vec<u8>)> = Vec::new();
        while !pid.is_null() {
            let next;
            {
                let g = self.pool.fetch(pid)?;
                let r = g.read();
                let sp = SlottedPageRef::new(&r);
                next = sp.next_page();
                page_recs.clear();
                for (slot, rec) in sp.records() {
                    page_recs.push((slot, rec.to_vec()));
                }
            }
            for (slot, framed) in page_recs.drain(..) {
                let rec = self.unframe(&framed)?;
                if !f(RecordId { page: pid, slot }, &rec)? {
                    return Ok(());
                }
            }
            pid = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    impl HeapFile {
        /// Materialize all records (tests / small tables).
        fn scan_all(&self) -> Result<Vec<(RecordId, Vec<u8>)>> {
            let mut out = Vec::new();
            self.scan(|rid, rec| {
                out.push((rid, rec.to_vec()));
                Ok(true)
            })?;
            Ok(out)
        }

        /// Number of live records (full scan).
        fn count(&self) -> Result<usize> {
            let mut n = 0;
            self.scan(|_, _| {
                n += 1;
                Ok(true)
            })?;
            Ok(n)
        }
    }

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::open_memory()), 64));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_get_delete_update() {
        let h = heap();
        let a = h.insert(b"aaa").unwrap();
        let b = h.insert(b"bbb").unwrap();
        assert_eq!(h.get(a).unwrap(), b"aaa");
        assert_eq!(h.get(b).unwrap(), b"bbb");
        let a2 = h.update(a, b"AAAA").unwrap();
        assert_eq!(a2, a, "in-place update keeps rid");
        assert_eq!(h.get(a).unwrap(), b"AAAA");
        h.delete(b).unwrap();
        assert!(h.get(b).is_err());
        assert!(h.delete(b).is_err());
    }

    #[test]
    fn spans_many_pages() {
        let h = heap();
        let mut rids = vec![];
        for i in 0..2000u32 {
            rids.push(h.insert(format!("record-{i:06}").as_bytes()).unwrap());
        }
        let pages: std::collections::HashSet<_> = rids.iter().map(|r| r.page).collect();
        assert!(pages.len() > 5, "should span pages, got {}", pages.len());
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), format!("record-{i:06}").as_bytes());
        }
        assert_eq!(h.count().unwrap(), 2000);
    }

    #[test]
    fn scan_sees_all_live_records() {
        let h = heap();
        let mut rids = vec![];
        for i in 0..100u32 {
            rids.push(h.insert(&i.to_le_bytes()).unwrap());
        }
        for rid in rids.iter().step_by(3) {
            h.delete(*rid).unwrap();
        }
        let seen = h.scan_all().unwrap();
        assert_eq!(seen.len(), 100 - 100usize.div_ceil(3));
        for (rid, _) in &seen {
            assert!(!rids.iter().step_by(3).any(|d| d == rid));
        }
    }

    #[test]
    fn deleted_space_is_reused() {
        let h = heap();
        let mut rids = vec![];
        for _ in 0..500 {
            rids.push(h.insert(&[7u8; 64]).unwrap());
        }
        let pages_before = h.pool.disk().num_pages();
        for rid in &rids {
            h.delete(*rid).unwrap();
        }
        for _ in 0..200 {
            h.insert(&[8u8; 64]).unwrap();
        }
        // Reuse at least some holes rather than growing the file linearly.
        let grown = h.pool.disk().num_pages() - pages_before;
        assert!(grown <= 4, "grew {grown} pages despite free space");
    }

    #[test]
    fn overflow_records_roundtrip() {
        let h = heap();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        // Update to a different big value.
        let big2: Vec<u8> = (0..15_000u32).map(|i| (i % 13) as u8).collect();
        let rid2 = h.update(rid, &big2).unwrap();
        assert_eq!(h.get(rid2).unwrap(), big2);
        // And shrink back to a small inline record.
        let rid3 = h.update(rid2, b"tiny").unwrap();
        assert_eq!(h.get(rid3).unwrap(), b"tiny");
        // Scan returns the full overflow payload too.
        let all = h.scan_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, b"tiny");
    }

    #[test]
    fn update_that_moves_returns_new_rid() {
        let h = heap();
        // Fill a page almost completely so a grow-update must relocate.
        let first = h.insert(&[1u8; 1500]).unwrap();
        let _fill1 = h.insert(&[2u8; 1500]).unwrap();
        let _fill2 = h.insert(&[3u8; 1000]).unwrap();
        let moved = h.update(first, &[9u8; 2500]).unwrap();
        assert_ne!(moved.page, first.page);
        assert_eq!(h.get(moved).unwrap(), vec![9u8; 2500]);
        assert!(h.get(first).is_err(), "old rid is dead after relocation");
    }

    #[test]
    fn concurrent_inserts_are_all_visible() {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::open_memory()), 256));
        let h = Arc::new(HeapFile::create(pool).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut rids = vec![];
                    for i in 0..300u32 {
                        let payload = format!("t{t}-{i}");
                        rids.push((h.insert(payload.as_bytes()).unwrap(), payload));
                    }
                    rids
                })
            })
            .collect();
        let mut all = vec![];
        for t in threads {
            all.extend(t.join().unwrap());
        }
        assert_eq!(h.count().unwrap(), 2400);
        for (rid, payload) in all {
            assert_eq!(h.get(rid).unwrap(), payload.as_bytes());
        }
    }
}
