//! [`IdTable`]: state kept by trigger id, in pages.

use crate::TriggerId;

/// Slots a page holds.
const PAGE: usize = 256;

/// A table keyed by trigger id. Trigger ids are dense and never reused,
/// so a lookup is an index, not a hash probe: the id's page, then its slot
/// in the page. A page is allocated by the first id that lands in it and
/// freed when its last slot empties, and the page list spans the held
/// pages only, at its exact length. So the memory a table holds is a
/// function of its live ids alone — not of every id ever issued, and not
/// of the order they came and went in.
pub struct IdTable<T> {
    /// Page number of `pages[0]`.
    base: u64,
    /// Pages `base..base + pages.len()`. The first and the last are held;
    /// a page between may be empty (`None`). Its capacity is its length.
    pages: Vec<Option<Box<Page<T>>>>,
    /// Occupied slots.
    len: usize,
}

struct Page<T> {
    /// Occupied slots in `slots`.
    live: u32,
    slots: [Option<T>; PAGE],
}

/// `id`'s page number and slot in it.
#[inline]
fn split(id: TriggerId) -> (u64, usize) {
    (id.raw() / PAGE as u64, (id.raw() % PAGE as u64) as usize)
}

impl<T> Default for IdTable<T> {
    fn default() -> IdTable<T> {
        IdTable {
            base: 0,
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T> IdTable<T> {
    /// Index of page `page` in `pages`, if it is in the span.
    #[inline]
    fn at(&self, page: u64) -> Option<usize> {
        let at = usize::try_from(page.checked_sub(self.base)?).ok()?;
        (at < self.pages.len()).then_some(at)
    }

    /// The value kept for `id`.
    #[inline]
    pub fn get(&self, id: TriggerId) -> Option<&T> {
        let (page, slot) = split(id);
        self.pages[self.at(page)?].as_ref()?.slots[slot].as_ref()
    }

    /// The value kept for `id`, to edit.
    #[inline]
    pub fn get_mut(&mut self, id: TriggerId) -> Option<&mut T> {
        let (page, slot) = split(id);
        let at = self.at(page)?;
        self.pages[at].as_mut()?.slots[slot].as_mut()
    }

    /// Keep `value` for `id`, returning what was kept before. Ids may come
    /// in any order.
    pub fn insert(&mut self, id: TriggerId, value: T) -> Option<T> {
        let (page, slot) = split(id);
        let page = self.page_mut(page);
        let old = page.slots[slot].replace(value);
        if old.is_none() {
            page.live += 1;
            self.len += 1;
        }
        old
    }

    /// Take `id`'s value out. Emptying a page frees it.
    pub fn remove(&mut self, id: TriggerId) -> Option<T> {
        let (page, slot) = split(id);
        let at = self.at(page)?;
        let held = self.pages[at].as_mut()?;
        let old = held.slots[slot].take()?;
        held.live -= 1;
        self.len -= 1;
        if held.live == 0 {
            self.pages[at] = None;
            if at == 0 || at == self.pages.len() - 1 {
                self.trim();
            }
        }
        Some(old)
    }

    /// Page `page`, allocated if it is not held, the span grown to reach
    /// it.
    fn page_mut(&mut self, page: u64) -> &mut Page<T> {
        if self.pages.is_empty() {
            self.base = page;
        }
        if page < self.base {
            let before = usize::try_from(self.base - page).expect("a span that fits in memory");
            let mut pages = Vec::with_capacity(before + self.pages.len());
            pages.resize_with(before, || None);
            pages.append(&mut self.pages);
            (self.base, self.pages) = (page, pages);
        }
        let at = usize::try_from(page - self.base).expect("a span that fits in memory");
        if at >= self.pages.len() {
            self.pages.reserve_exact(at + 1 - self.pages.len());
            self.pages.resize_with(at + 1, || None);
        }
        self.pages[at].get_or_insert_with(|| {
            Box::new(Page {
                live: 0,
                slots: std::array::from_fn(|_| None),
            })
        })
    }

    /// Drop the empty pages at either end of the span and give back the
    /// room they took.
    fn trim(&mut self) {
        let Some(first) = self.pages.iter().position(Option::is_some) else {
            self.pages = Vec::new();
            return;
        };
        let last = self.pages.iter().rposition(Option::is_some);
        self.pages.truncate(last.expect("a held page") + 1);
        self.pages.drain(..first);
        self.base += first as u64;
        self.pages.shrink_to_fit();
    }

    /// Ids with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does no id have a value?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every id with its value, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TriggerId, &T)> {
        let held = self.pages.iter().zip(self.base..);
        held.filter_map(|(page, n)| Some((n, page.as_deref()?)))
            .flat_map(|(n, page)| {
                let first = n * PAGE as u64;
                let slots = page.slots.iter().zip(first..);
                slots.filter_map(|(slot, id)| Some((TriggerId(id), slot.as_ref()?)))
            })
    }

    /// Pages allocated.
    fn pages_held(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Heap bytes held: the pages and the page list.
    pub fn memory_bytes(&self) -> usize {
        self.pages_held() * std::mem::size_of::<Page<T>>()
            + self.pages.capacity() * std::mem::size_of::<Option<Box<Page<T>>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use crate::rng::SplitMix64;

    /// Get, insert and remove against a hash map, from one seed. Ids are
    /// issued in order but inserted in shuffled batches, as `recover`
    /// inserts them in catalog order; inserts also overwrite, and removes
    /// and gets also name ids that are gone or were never issued.
    #[test]
    fn agrees_with_a_hash_map_model() {
        const SEED: u64 = 0x1D7A_B1E5;
        /// Live ids past this turn a batch into a remove.
        const CAP: usize = 3_000;
        let mut rng = SplitMix64::new(SEED);
        let mut table: IdTable<u64> = IdTable::default();
        let mut model: FxHashMap<TriggerId, u64> = FxHashMap::default();
        // The model's keys, to draw live ids from.
        let mut live: Vec<TriggerId> = Vec::new();
        let mut issued = 0u64;
        for step in 0..200_000u64 {
            let any = TriggerId(rng.below(issued + 3 * PAGE as u64));
            match rng.below(8) {
                0..=1 if live.len() < CAP => {
                    let n = 1 + rng.below(PAGE as u64);
                    let mut batch: Vec<u64> = (issued..issued + n).collect();
                    rng.shuffle(&mut batch);
                    issued += n;
                    for id in batch.into_iter().map(TriggerId) {
                        assert_eq!(table.insert(id, step), model.insert(id, step));
                        live.push(id);
                    }
                }
                2 if any.raw() < issued => {
                    let old = model.insert(any, step);
                    assert_eq!(table.insert(any, step), old, "insert {any}");
                    if old.is_none() {
                        live.push(any);
                    }
                }
                0..=5 if !live.is_empty() => {
                    let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                    assert_eq!(table.remove(id), model.remove(&id), "remove {id}");
                }
                6 => {
                    let old = model.remove(&any);
                    assert_eq!(table.remove(any), old, "remove {any}");
                    if old.is_some() {
                        live.retain(|&id| id != any);
                    }
                }
                _ => {
                    assert_eq!(table.get(any), model.get(&any), "get {any}");
                    if let (Some(v), Some(m)) = (table.get_mut(any), model.get_mut(&any)) {
                        (*v, *m) = (step, step);
                    }
                }
            }
            assert_eq!(table.len(), model.len(), "step {step}");
            if step % 4_096 == 0 {
                let mut expected: Vec<_> = model.iter().map(|(&id, &v)| (id, v)).collect();
                expected.sort_unstable();
                let got: Vec<_> = table.iter().map(|(id, &v)| (id, v)).collect();
                assert_eq!(got, expected, "step {step}");
            }
        }
        assert!(issued > 50_000, "{issued} ids issued");
    }

    /// 100 000 ids pass through a live set of at most 1 000, oldest out
    /// first: the pages held never exceed what the live ids span, and at
    /// the end the table holds what a fresh one holding the same ids does.
    #[test]
    fn memory_follows_the_live_ids_through_churn() {
        const IDS: u64 = 100_000;
        const LIVE: u64 = 1_000;
        let mut rng = SplitMix64::new(52);
        let mut table: IdTable<u64> = IdTable::default();
        let mut oldest = 0;
        let mut most_pages = 0;
        for id in 0..IDS {
            assert_eq!(table.insert(TriggerId(id), id), None);
            // The live set grows by half an id a step for 5 000 steps,
            // then shrinks as fast, within 1..=LIVE.
            let growing = (id / 5_000) % 2 == 0;
            let mut out = rng.below(2) + u64::from(!growing);
            while table.len() as u64 > LIVE || (out > 0 && table.len() > 1) {
                assert_eq!(table.remove(TriggerId(oldest)), Some(oldest));
                oldest += 1;
                out = out.saturating_sub(1);
            }
            let bound = table.len().div_ceil(PAGE) + 1;
            assert!(
                table.pages_held() <= bound,
                "{} pages for {} live ids",
                table.pages_held(),
                table.len()
            );
            most_pages = most_pages.max(table.pages_held());
        }
        assert!(
            most_pages >= LIVE as usize / PAGE,
            "the live set neared 1 000"
        );

        let mut fresh: IdTable<u64> = IdTable::default();
        for (id, &v) in table.iter() {
            fresh.insert(id, v);
        }
        assert_eq!(fresh.len(), table.len());
        assert_eq!(fresh.pages_held(), table.pages_held());
        assert_eq!(fresh.memory_bytes(), table.memory_bytes());
        assert_eq!(fresh.pages.capacity(), table.pages.capacity());

        // Emptied, it holds nothing.
        while oldest < IDS {
            table.remove(TriggerId(oldest));
            oldest += 1;
        }
        assert_eq!((table.len(), table.memory_bytes()), (0, 0));
    }
}
