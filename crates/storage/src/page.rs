//! Slotted-page layout.
//!
//! Every data page (heap pages, B+tree nodes reuse only the raw bytes)
//! follows the classic slotted layout so records can be variable length and
//! slots are stable under intra-page compaction:
//!
//! ```text
//! 0..4    next_page  u32   page-chain link (0 = none; page 0 is the
//!                          directory superblock and never a chain target)
//! 4..6    num_slots  u16
//! 6..8    free_end   u16   records occupy [free_end .. PAGE_SIZE)
//! 8..     slot array       4 bytes per slot: rec_offset u16, rec_len u16
//! ```
//!
//! A deleted slot keeps its array entry with `rec_offset == TOMBSTONE` so
//! record ids held elsewhere stay stable; the slot is reused by later
//! inserts.

use crate::disk::{PageId, PAGE_SIZE};

const HDR: usize = 8;
const SLOT: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Largest record a page can hold (one slot, empty page).
pub(crate) const MAX_RECORD: usize = PAGE_SIZE - HDR - SLOT;

/// Read-only slotted-page view over a raw page buffer.
pub(crate) struct SlottedPageRef<'a> {
    buf: &'a [u8; PAGE_SIZE],
}

impl<'a> SlottedPageRef<'a> {
    /// Wrap an existing, already-initialized page for reading.
    pub(crate) fn new(buf: &'a [u8; PAGE_SIZE]) -> SlottedPageRef<'a> {
        SlottedPageRef { buf }
    }

    /// Page-chain link.
    pub(crate) fn next_page(&self) -> PageId {
        PageId(u32::from_le_bytes(self.buf[0..4].try_into().unwrap()))
    }

    /// Number of slot-array entries (live + tombstoned).
    pub(crate) fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.buf[4..6].try_into().unwrap())
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let off = HDR + i as usize * SLOT;
        (
            u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap()),
            u16::from_le_bytes(self.buf[off + 2..off + 4].try_into().unwrap()),
        )
    }

    /// Record bytes at `slot`, or `None` if deleted / out of range.
    pub(crate) fn get(&self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Iterate live `(slot, record)` pairs.
    pub(crate) fn records(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        let me = SlottedPageRef { buf: self.buf };
        (0..self.slot_count()).filter_map(move |i| me.get(i).map(|r| (i, r)))
    }
}

/// Mutable slotted-page view over a raw page buffer.
pub(crate) struct SlottedPage<'a> {
    buf: &'a mut [u8; PAGE_SIZE],
}

impl<'a> SlottedPage<'a> {
    /// Wrap an existing, already-initialized page.
    pub(crate) fn new(buf: &'a mut [u8; PAGE_SIZE]) -> SlottedPage<'a> {
        SlottedPage { buf }
    }

    /// Wrap and format a fresh page (zero slots, empty record area).
    pub(crate) fn init(buf: &'a mut [u8; PAGE_SIZE]) -> SlottedPage<'a> {
        buf[0..4].copy_from_slice(&0u32.to_le_bytes());
        buf[4..6].copy_from_slice(&0u16.to_le_bytes());
        buf[6..8].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        SlottedPage { buf }
    }

    /// Page-chain link.
    pub(crate) fn next_page(&self) -> PageId {
        PageId(u32::from_le_bytes(self.buf[0..4].try_into().unwrap()))
    }

    /// Set the page-chain link.
    pub(crate) fn set_next_page(&mut self, pid: PageId) {
        self.buf[0..4].copy_from_slice(&pid.0.to_le_bytes());
    }

    /// Number of slot-array entries (live + tombstoned).
    pub(crate) fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.buf[4..6].try_into().unwrap())
    }

    fn set_slot_count(&mut self, n: u16) {
        self.buf[4..6].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> usize {
        u16::from_le_bytes(self.buf[6..8].try_into().unwrap()) as usize
    }

    fn set_free_end(&mut self, v: usize) {
        self.buf[6..8].copy_from_slice(&(v as u16).to_le_bytes());
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let off = HDR + i as usize * SLOT;
        (
            u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap()),
            u16::from_le_bytes(self.buf[off + 2..off + 4].try_into().unwrap()),
        )
    }

    fn set_slot(&mut self, i: u16, rec_off: u16, rec_len: u16) {
        let off = HDR + i as usize * SLOT;
        self.buf[off..off + 2].copy_from_slice(&rec_off.to_le_bytes());
        self.buf[off + 2..off + 4].copy_from_slice(&rec_len.to_le_bytes());
    }

    /// Bytes of contiguous free space (between slot array and record area).
    pub(crate) fn contiguous_free(&self) -> usize {
        self.free_end() - (HDR + self.slot_count() as usize * SLOT)
    }

    /// Total reclaimable free space, counting holes left by deletions.
    pub(crate) fn total_free(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|i| {
                let (o, l) = self.slot(i);
                (o != TOMBSTONE).then_some(l as usize)
            })
            .sum();
        PAGE_SIZE - HDR - self.slot_count() as usize * SLOT - live
    }

    /// Does `len` bytes fit (possibly after compaction / slot reuse)?
    pub(crate) fn fits(&self, len: usize) -> bool {
        let slot_cost = if self.has_free_slot() { 0 } else { SLOT };
        self.total_free() >= len + slot_cost
    }

    fn has_free_slot(&self) -> bool {
        (0..self.slot_count()).any(|i| self.slot(i).0 == TOMBSTONE)
    }

    /// Insert a record, returning its slot, or `None` if it cannot fit.
    pub(crate) fn insert(&mut self, rec: &[u8]) -> Option<u16> {
        if rec.len() > MAX_RECORD || !self.fits(rec.len()) {
            return None;
        }
        let need_new_slot = !self.has_free_slot();
        let slot_cost = if need_new_slot { SLOT } else { 0 };
        if self.contiguous_free() < rec.len() + slot_cost {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= rec.len() + slot_cost);
        let slot_idx = if need_new_slot {
            let i = self.slot_count();
            self.set_slot_count(i + 1);
            i
        } else {
            (0..self.slot_count())
                .find(|&i| self.slot(i).0 == TOMBSTONE)
                .expect("free slot exists")
        };
        let new_end = self.free_end() - rec.len();
        self.buf[new_end..new_end + rec.len()].copy_from_slice(rec);
        self.set_free_end(new_end);
        self.set_slot(slot_idx, new_end as u16, rec.len() as u16);
        Some(slot_idx)
    }

    /// Record bytes at `slot`, or `None` if deleted / out of range.
    pub(crate) fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Tombstone a record. Returns false if it was already dead.
    pub(crate) fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() || self.slot(slot).0 == TOMBSTONE {
            return false;
        }
        self.set_slot(slot, TOMBSTONE, 0);
        true
    }

    /// Replace the record in `slot`. Succeeds if the new bytes fit in the
    /// page (possibly after compaction); the slot number is preserved.
    pub(crate) fn update(&mut self, slot: u16, rec: &[u8]) -> bool {
        if slot >= self.slot_count() || rec.len() > MAX_RECORD {
            return false;
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return false;
        }
        if rec.len() <= len as usize {
            // Shrink / same-size: rewrite in place.
            let off = off as usize;
            self.buf[off..off + rec.len()].copy_from_slice(rec);
            self.set_slot(slot, off as u16, rec.len() as u16);
            return true;
        }
        // Grows: tombstone, check space, then place like an insert but into
        // the existing slot.
        self.set_slot(slot, TOMBSTONE, 0);
        if self.total_free() < rec.len() {
            self.set_slot(slot, off, len); // roll back
            return false;
        }
        if self.contiguous_free() < rec.len() {
            self.compact();
        }
        let new_end = self.free_end() - rec.len();
        self.buf[new_end..new_end + rec.len()].copy_from_slice(rec);
        self.set_free_end(new_end);
        self.set_slot(slot, new_end as u16, rec.len() as u16);
        true
    }

    /// Rewrite the record area to squeeze out holes. Slot numbers are
    /// preserved (only offsets change).
    pub(crate) fn compact(&mut self) {
        let mut live: Vec<(u16, Vec<u8>)> = (0..self.slot_count())
            .filter_map(|i| self.get(i).map(|r| (i, r.to_vec())))
            .collect();
        // Pack from the end of the page downward.
        let mut end = PAGE_SIZE;
        for (slot, rec) in live.drain(..) {
            end -= rec.len();
            self.buf[end..end + rec.len()].copy_from_slice(&rec);
            self.set_slot(slot, end as u16, rec.len() as u16);
        }
        self.set_free_end(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tman_check::prelude::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        Box::new([0u8; PAGE_SIZE])
    }

    #[test]
    fn insert_get_delete() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"bravo!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"alpha");
        assert_eq!(p.get(b).unwrap(), b"bravo!");
        assert!(p.delete(a));
        assert!(p.get(a).is_none());
        assert!(!p.delete(a)); // double delete
        assert_eq!(
            (0..p.slot_count()).filter(|&i| p.get(i).is_some()).count(),
            1
        );
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a);
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "tombstoned slot should be reused");
        assert_eq!(p.get(c).unwrap(), b"three");
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 104 bytes per record (100 + 4 slot) into 4088 usable.
        assert_eq!(n, (PAGE_SIZE - HDR) / 104);
        assert!(!p.fits(100));
        assert!(p.fits(10)); // smaller still fits
    }

    #[test]
    fn oversized_record_rejected() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        assert!(p.insert(&vec![0u8; MAX_RECORD + 1]).is_none());
        assert!(p.insert(&vec![1u8; MAX_RECORD]).is_some());
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let mut slots = vec![];
        let rec = [9u8; 200];
        while let Some(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Delete every other record; contiguous space is still tiny but
        // total free space is large.
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        assert!(p.contiguous_free() < 400);
        let big = [1u8; 350];
        let s = p.insert(&big).expect("compaction should make room");
        assert_eq!(p.get(s).unwrap(), &big[..]);
        // Survivors intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn update_shrink_grow() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abc"));
        assert_eq!(p.get(s).unwrap(), b"abc");
        assert!(p.update(s, b"abcdefghijklmnop"));
        assert_eq!(p.get(s).unwrap(), b"abcdefghijklmnop");
    }

    #[test]
    fn update_too_big_rolls_back() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        // Nearly fill the page.
        let s = p.insert(&vec![3u8; 2000]).unwrap();
        p.insert(&vec![4u8; 2000]).unwrap();
        assert!(!p.update(s, &vec![5u8; 3000]));
        assert_eq!(p.get(s).unwrap(), &vec![3u8; 2000][..], "rolled back");
    }

    #[test]
    fn next_page_link() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        assert!(p.next_page().is_null());
        p.set_next_page(PageId(42));
        assert_eq!(p.next_page(), PageId(42));
    }

    proptest! {
        // Random op sequence vs. a Vec<Option<Vec<u8>>> model.
        #[test]
        fn prop_model_check(ops in tman_check::collection::vec(op_strategy(), 1..80)) {
            let mut buf = fresh();
            let mut p = SlottedPage::init(&mut buf);
            let mut model: Vec<Option<Vec<u8>>> = vec![];
            for op in ops {
                match op {
                    Op::Insert(rec) => {
                        if let Some(slot) = p.insert(&rec) {
                            let slot = slot as usize;
                            if slot == model.len() {
                                model.push(Some(rec));
                            } else {
                                prop_assert!(model[slot].is_none());
                                model[slot] = Some(rec);
                            }
                        }
                    }
                    Op::Delete(i) => {
                        let slot = if model.is_empty() { 0 } else { i % model.len() };
                        let expect = model.get(slot).map(|m| m.is_some()).unwrap_or(false);
                        prop_assert_eq!(p.delete(slot as u16), expect);
                        if let Some(m) = model.get_mut(slot) {
                            *m = None;
                        }
                    }
                    Op::Update(i, rec) => {
                        let slot = if model.is_empty() { 0 } else { i % model.len() };
                        let alive = model.get(slot).map(|m| m.is_some()).unwrap_or(false);
                        let ok = p.update(slot as u16, &rec);
                        if ok {
                            prop_assert!(alive);
                            model[slot] = Some(rec);
                        }
                    }
                }
                // Full consistency check against the model.
                for (i, m) in model.iter().enumerate() {
                    prop_assert_eq!(p.get(i as u16).map(|r| r.to_vec()), m.clone());
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(usize),
        Update(usize, Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            tman_check::collection::vec(any::<u8>(), 0..300).prop_map(Op::Insert),
            any::<usize>().prop_map(Op::Delete),
            (
                any::<usize>(),
                tman_check::collection::vec(any::<u8>(), 0..300)
            )
                .prop_map(|(i, r)| Op::Update(i, r)),
        ]
    }
}
