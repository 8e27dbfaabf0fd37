//! The trigger cache (§5.1, §5.4).
//!
//! "A data structure called the *trigger cache* is maintained in main
//! memory. This contains complete descriptions of a set of recently
//! accessed triggers ... The pin operation is analogous to the pin
//! operation in a traditional buffer pool; it checks to see if the trigger
//! is in memory, and if it is not, it brings it in from the disk-based
//! trigger catalog."
//!
//! Loading = fetching `trigger_text` from the catalog and recompiling. With
//! the default A-TREAT networks, descriptions are stateless (virtual alpha
//! nodes), so eviction loses no data; stored-memory networks (TREAT/Rete)
//! are re-primed from base tables on reload.
//!
//! Concurrency: pinning happens once per predicate match, which §6 runs
//! from many driver threads at once — so a hit writes nothing that two
//! slots share. It is the map's read lock, the lookup, a clone of the
//! slot's `Arc` and a store to the slot's reference mark when the mark is
//! clear (a hot slot's mark is set, so its line stays shared). A slot is
//! *pinned* while anyone but the cache holds its `Arc`: the pin is the
//! clone, the unpin is its drop, and there is no second count to keep.
//!
//! Replacement is a clock: a hand walks the slots in a ring, passes a
//! pinned slot, clears a set mark (the second chance a recent hit bought)
//! and evicts the first slot it finds unpinned and unmarked. An insert
//! over capacity therefore costs the slots the hand passes — evicted plus
//! marks cleared plus pinned — not a scan of the cache. Both happen under
//! the write lock, which only misses, inserts and removals take.

use crate::compile::CompiledTrigger;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::stats::CacheStats;
use tman_common::{Result, TriggerId};

struct Slot {
    trigger: Arc<CompiledTrigger>,
    /// The clock's reference mark: set by a hit, cleared by the hand.
    referenced: AtomicBool,
}

/// The resident slots, and the ring of their ids the clock hand walks.
/// A slot's map entry carries its place in the ring, so a hit reads one
/// map entry and nothing of the ring.
#[derive(Default)]
struct Resident {
    slots: FxHashMap<TriggerId, (Arc<Slot>, usize)>,
    ring: Vec<TriggerId>,
    hand: usize,
}

impl Resident {
    /// Take the slot at `pos` of the ring out of the cache; the ring's
    /// last id moves into its place.
    fn take(&mut self, pos: usize) {
        let gone = self.ring.swap_remove(pos);
        self.slots.remove(&gone);
        if let Some(moved) = self.ring.get(pos) {
            self.slots.get_mut(moved).expect("in the ring").1 = pos;
        }
    }
}

/// The units the cache's cost tests count.
#[derive(Clone, Copy)]
enum Work {
    /// The map write-locked.
    WriteLock,
    /// A slot the clock hand looked at.
    SlotPassed,
}

#[cfg(test)]
thread_local! {
    /// Work done on this thread, by [`Work`] kind.
    static WORK: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Count one unit of `work` — in this crate's unit tests; it compiles to
/// nothing anywhere else.
#[inline(always)]
fn tick(_work: Work) {
    #[cfg(test)]
    WORK.with(|w| {
        let mut counts = w.get();
        counts[_work as usize] += 1;
        w.set(counts);
    });
}

/// Buffer-pool-style cache of compiled trigger descriptions.
pub struct TriggerCache {
    capacity: usize,
    resident: RwLock<Resident>,
    stats: CacheStats,
}

/// A pinned trigger; dropping unpins.
pub struct PinnedTrigger {
    slot: Arc<Slot>,
}

impl PinnedTrigger {
    /// The compiled description.
    pub fn get(&self) -> &Arc<CompiledTrigger> {
        &self.slot.trigger
    }
}

impl std::ops::Deref for PinnedTrigger {
    type Target = CompiledTrigger;

    fn deref(&self) -> &CompiledTrigger {
        &self.slot.trigger
    }
}

impl TriggerCache {
    /// Cache holding at most `capacity` descriptions.
    pub fn new(capacity: usize) -> TriggerCache {
        TriggerCache {
            capacity: capacity.max(1),
            resident: RwLock::default(),
            stats: CacheStats::default(),
        }
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of resident descriptions.
    pub fn len(&self) -> usize {
        self.resident.read().ring.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pin a trigger, loading (compiling) it via `load` on a miss. The
    /// loader runs outside any lock — concurrent pinners of the same
    /// missing trigger may both compile; the first install wins.
    pub fn pin(
        self: &Arc<Self>,
        id: TriggerId,
        load: impl FnOnce() -> Result<Arc<CompiledTrigger>>,
    ) -> Result<PinnedTrigger> {
        self.pin_report(id, load).map(|(p, _)| p)
    }

    /// [`pin`](Self::pin) that also reports whether the pin was a cache hit
    /// (the trace layer tags `CachePin` spans with it).
    pub fn pin_report(
        self: &Arc<Self>,
        id: TriggerId,
        load: impl FnOnce() -> Result<Arc<CompiledTrigger>>,
    ) -> Result<(PinnedTrigger, bool)> {
        self.stats.pins.bump();
        {
            let resident = self.resident.read();
            if let Some((slot, _)) = resident.slots.get(&id) {
                self.stats.hits.bump();
                let slot = slot.clone();
                if !slot.referenced.load(Ordering::Relaxed) {
                    slot.referenced.store(true, Ordering::Relaxed);
                }
                return Ok((PinnedTrigger { slot }, true));
            }
        }
        self.stats.misses.bump();
        let trigger = load()?;
        Ok((self.install(trigger), false))
    }

    /// Insert without pinning (used at create-trigger time so the fresh
    /// description is warm).
    pub fn insert(self: &Arc<Self>, trigger: Arc<CompiledTrigger>) {
        self.install(trigger);
    }

    /// Make `trigger` resident, unless a concurrent loader's install of
    /// the same id got there first, and evict down to capacity. The
    /// returned pin is taken before the hand moves, so the slot survives
    /// its own install.
    fn install(&self, trigger: Arc<CompiledTrigger>) -> PinnedTrigger {
        tick(Work::WriteLock);
        let mut resident = self.resident.write();
        let id = trigger.id;
        let slot = match resident.slots.get(&id) {
            Some((slot, _)) => slot.clone(),
            None => {
                let slot = Arc::new(Slot {
                    trigger,
                    referenced: AtomicBool::new(false),
                });
                let pos = resident.ring.len();
                resident.ring.push(id);
                resident.slots.insert(id, (slot.clone(), pos));
                slot
            }
        };
        self.evict_over_capacity(&mut resident);
        PinnedTrigger { slot }
    }

    /// Look up without loading (tests / stats).
    pub fn peek(&self, id: TriggerId) -> Option<Arc<CompiledTrigger>> {
        let resident = self.resident.read();
        resident.slots.get(&id).map(|(s, _)| s.trigger.clone())
    }

    /// Drop a trigger from the cache (after `drop trigger`).
    pub fn remove(&self, id: TriggerId) {
        tick(Work::WriteLock);
        let mut resident = self.resident.write();
        if let Some(&(_, pos)) = resident.slots.get(&id) {
            resident.take(pos);
        }
    }

    /// Advance the clock hand until the cache is back at capacity. Two
    /// laps find every slot that can go — the first clears the marks, the
    /// second takes what is unpinned — so when the hand has gone round
    /// twice without an eviction everything left is pinned, and the cache
    /// stays over capacity until a later install finds a pin released.
    fn evict_over_capacity(&self, resident: &mut Resident) {
        let mut since_eviction = 0;
        while resident.ring.len() > self.capacity && since_eviction < 2 * resident.ring.len() {
            if resident.hand >= resident.ring.len() {
                resident.hand = 0;
            }
            tick(Work::SlotPassed);
            let (slot, _) = &resident.slots[&resident.ring[resident.hand]];
            // Nobody can pin under the write lock: a count of one is the
            // cache's own and stays one.
            let pinned = Arc::strong_count(slot) > 1;
            if !pinned && !slot.referenced.swap(false, Ordering::Relaxed) {
                // The ring's last slot — the one being installed — takes
                // the victim's place, behind the hand: a full lap away.
                resident.take(resident.hand);
                self.stats.evictions.bump();
                since_eviction = 0;
            } else {
                since_eviction += 1;
            }
            resident.hand += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledAction;
    use std::sync::atomic::AtomicBool;
    use tman_common::TriggerSetId;
    use tman_expr::cnf::ConditionGraph;
    use tman_network::{Network, NetworkKind};

    fn dummy_trigger(id: u64) -> Arc<CompiledTrigger> {
        let graph = ConditionGraph::build(tman_expr::Cnf::truth(), 1);
        Arc::new(CompiledTrigger {
            id: TriggerId(id),
            name: format!("t{id}").into(),
            set: TriggerSetId(1),
            set_enabled: Arc::new(AtomicBool::new(true)),
            text: String::new(),
            vars: Vec::new(),
            event_var: 0,
            event: tman_common::EventKind::InsertOrUpdate,
            update_col_ords: Vec::new(),
            explicit_event: false,
            network: Network::build(
                NetworkKind::ATreat,
                graph,
                vec![tman_common::DataSourceId(1)],
                0,
            )
            .unwrap(),
            action: CompiledAction::Notify("x".into()),
            window: None,
            enabled: AtomicBool::new(true),
        })
    }

    #[test]
    fn pin_loads_once_then_hits() {
        let cache = Arc::new(TriggerCache::new(10));
        let mut loads = 0;
        {
            let p = cache
                .pin(TriggerId(1), || {
                    loads += 1;
                    Ok(dummy_trigger(1))
                })
                .unwrap();
            assert_eq!(&*p.name, "t1");
        }
        let _p = cache
            .pin(TriggerId(1), || panic!("should not reload"))
            .unwrap();
        assert_eq!(loads, 1);
        assert_eq!(cache.stats().hits.get(), 1);
        assert_eq!(cache.stats().misses.get(), 1);
        assert_eq!(cache.stats().pins.get(), 2);
    }

    #[test]
    fn lru_eviction_of_unpinned() {
        let cache = Arc::new(TriggerCache::new(3));
        for id in 1..=3u64 {
            cache.insert(dummy_trigger(id));
        }
        // Touch 1 so 2 is LRU.
        drop(cache.pin(TriggerId(1), || unreachable!()).unwrap());
        cache.insert(dummy_trigger(4));
        assert!(cache.peek(TriggerId(2)).is_none(), "LRU evicted");
        assert!(cache.peek(TriggerId(1)).is_some());
        assert_eq!(cache.stats().evictions.get(), 1);
    }

    #[test]
    fn pinned_triggers_survive_pressure() {
        let cache = Arc::new(TriggerCache::new(2));
        let p1 = cache.pin(TriggerId(1), || Ok(dummy_trigger(1))).unwrap();
        let p2 = cache.pin(TriggerId(2), || Ok(dummy_trigger(2))).unwrap();
        cache.insert(dummy_trigger(3)); // over capacity, everything pinned
        assert!(cache.peek(TriggerId(1)).is_some());
        assert!(cache.peek(TriggerId(2)).is_some());
        drop(p1);
        drop(p2);
        cache.insert(dummy_trigger(4));
        assert!(cache.len() <= 2);
    }

    #[test]
    fn remove_forgets() {
        let cache = Arc::new(TriggerCache::new(4));
        cache.insert(dummy_trigger(7));
        cache.remove(TriggerId(7));
        assert!(cache.peek(TriggerId(7)).is_none());
    }

    #[test]
    fn hit_rate_reporting() {
        let cache = Arc::new(TriggerCache::new(4));
        for _ in 0..3 {
            drop(cache.pin(TriggerId(1), || Ok(dummy_trigger(1))).unwrap());
        }
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_pins_are_consistent() {
        let cache = Arc::new(TriggerCache::new(64));
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let id = (w * 7 + i) % 32;
                        let p = cache.pin(TriggerId(id), || Ok(dummy_trigger(id))).unwrap();
                        assert_eq!(p.id, TriggerId(id));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All pins released: the cache's own is the only hold left.
        let resident = cache.resident.read();
        assert_eq!(resident.ring.len(), 32);
        for (pos, id) in resident.ring.iter().enumerate() {
            let (slot, at) = &resident.slots[id];
            assert_eq!((slot.trigger.id, *at), (*id, pos));
            assert_eq!(Arc::strong_count(slot), 1);
        }
    }

    /// Work this thread did, by [`Work`] kind, while `f` ran.
    fn work_in<R>(f: impl FnOnce() -> R) -> (R, [u64; 2]) {
        let before = WORK.with(|w| w.get());
        let r = f();
        let after = WORK.with(|w| w.get());
        (r, std::array::from_fn(|i| after[i] - before[i]))
    }

    /// What a hit and an insert over capacity cost does not depend on how
    /// many triggers are resident: a hit takes no write lock and moves no
    /// hand — what it writes is its own slot's count and mark — and an
    /// insert passes the slots it evicts and the marks it clears, at 1 k
    /// and at 64 k alike.
    #[test]
    fn hit_and_eviction_cost_is_independent_of_capacity() {
        let mut costs = Vec::new();
        for capacity in [1_000u64, 64_000] {
            let cache = Arc::new(TriggerCache::new(capacity as usize));
            for id in 0..capacity {
                cache.insert(dummy_trigger(id));
            }
            assert_eq!(cache.len(), capacity as usize);
            assert_eq!(cache.stats().evictions.get(), 0);

            // Hits on the ten slots the hand will come to first.
            let marked = 10;
            let (_, hits) = work_in(|| {
                for id in 0..marked {
                    for _ in 0..3 {
                        let (p, hit) = cache.pin_report(TriggerId(id), || unreachable!()).unwrap();
                        assert!(hit && p.id == TriggerId(id));
                    }
                }
            });
            assert_eq!(hits, [0, 0], "a hit write-locks nothing and passes no slot");
            let marks = || {
                let resident = cache.resident.read();
                let set = |s: &&(Arc<Slot>, usize)| s.0.referenced.load(Ordering::Relaxed);
                resident.slots.values().filter(set).count() as u64
            };
            assert_eq!(marks(), marked);

            // Over capacity: the hand clears the ten marks and takes the
            // eleventh slot; the slot that was hit survives.
            let (_, first) = work_in(|| cache.insert(dummy_trigger(capacity)));
            assert_eq!(first, [1, marked + 1]);
            assert_eq!(marks(), 0);
            assert!(cache.peek(TriggerId(marked)).is_none(), "the victim");
            assert!(cache.peek(TriggerId(0)).is_some(), "recently used");
            assert!(cache.peek(TriggerId(capacity)).is_some(), "just installed");
            // No marks in the way: one slot passed for one evicted.
            let (_, second) = work_in(|| cache.insert(dummy_trigger(capacity + 1)));
            assert_eq!(second, [1, 1]);
            // A miss installs the same way.
            let (_, miss) = work_in(|| {
                cache
                    .pin(TriggerId(capacity + 2), || Ok(dummy_trigger(capacity + 2)))
                    .map(drop)
                    .unwrap()
            });
            assert_eq!(miss, [1, 1]);
            assert_eq!(cache.len(), capacity as usize);
            assert_eq!(cache.stats().evictions.get(), 3);
            costs.push((hits, first, second, miss));
        }
        assert_eq!(costs[0], costs[1], "capacity 1 k against 64 k");
    }

    /// With every slot pinned the hand gives up after two laps, and the
    /// next install after the pins are released evicts the overflow too.
    #[test]
    fn all_pinned_overflows_for_two_laps_then_recovers() {
        let cache = Arc::new(TriggerCache::new(4));
        let pins: Vec<_> = (0..6u64)
            .map(|id| cache.pin(TriggerId(id), || Ok(dummy_trigger(id))).unwrap())
            .collect();
        assert_eq!(cache.len(), 6, "temporary overflow");
        let (_, stuck) = work_in(|| cache.insert(dummy_trigger(6)));
        assert_eq!(stuck[Work::SlotPassed as usize], 2 * 7);
        assert_eq!(cache.stats().evictions.get(), 0);
        drop(pins);
        cache.insert(dummy_trigger(7));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions.get(), 4);
        assert!(cache.peek(TriggerId(7)).is_some());
    }
}
