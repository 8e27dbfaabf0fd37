//! The trigger cache (§5.1, §5.4).
//!
//! "A data structure called the *trigger cache* is maintained in main
//! memory. This contains complete descriptions of a set of recently
//! accessed triggers ... The pin operation is analogous to the pin
//! operation in a traditional buffer pool; it checks to see if the trigger
//! is in memory, and if it is not, it brings it in from the disk-based
//! trigger catalog."
//!
//! Loading = fetching `trigger_text` from the catalog and recompiling. A
//! description is what the fire path reads and nothing more
//! ([`crate::compile`]): one-variable triggers hold no network at all, and
//! with the default A-TREAT join networks (virtual alpha nodes) eviction
//! loses no data; stored-memory join networks (TREAT/Rete/Gator) are
//! re-primed from base tables on reload.
//!
//! The table holds each description's `Arc<CompiledTrigger>` in a slot of
//! an [`IdTable`] page, found by the trigger id's index and not by a hash
//! probe, and the clock's reference mark is a field of the description, so
//! a resident trigger is one allocation of its own plus what its fields
//! point to.
//!
//! Concurrency: pinning happens once per predicate match, which §6 runs
//! from many driver threads at once — so a hit writes nothing that two
//! triggers share. It is the table's read lock, the indexed load, a clone
//! of the description's `Arc` and a store to its reference mark when the
//! mark is clear (a hot trigger's mark is set, so its line stays shared).
//! A trigger is *pinned* while anyone but the cache holds its `Arc`: the
//! pin is the clone, the unpin is its drop, and there is no second count
//! to keep.
//!
//! Replacement is a clock: a hand walks the resident triggers in a ring,
//! passes a pinned one, clears a set mark (the second chance a recent hit
//! bought) and evicts the first it finds unpinned and unmarked. An insert
//! over capacity therefore costs the triggers the hand passes — evicted
//! plus marks cleared plus pinned — not a scan of the cache. Both happen
//! under the write lock, which only misses, inserts and removals take.

use crate::compile::CompiledTrigger;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tman_common::{IdTable, Result, TriggerId};
use tman_sync::RwLock;
use tman_telemetry::{Counter, Registry};

/// The resident descriptions, and the ring of their ids the clock hand
/// walks. A description's slot carries its place in the ring, so a hit
/// reads one slot and nothing of the ring.
#[derive(Default)]
struct Resident {
    triggers: IdTable<(Arc<CompiledTrigger>, usize)>,
    ring: Vec<TriggerId>,
    hand: usize,
}

impl Resident {
    /// Take the description at `pos` of the ring out of the cache; the
    /// ring's last id moves into its place.
    fn take(&mut self, pos: usize) {
        let gone = self.ring.swap_remove(pos);
        self.triggers.remove(gone);
        if let Some(&moved) = self.ring.get(pos) {
            self.triggers.get_mut(moved).expect("in the ring").1 = pos;
        }
    }
}

/// The units the cache's cost tests count.
#[derive(Clone, Copy)]
enum Work {
    /// The table write-locked.
    WriteLock,
    /// A resident trigger the clock hand looked at.
    TriggerPassed,
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

/// Trigger-cache counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Pin requests satisfied from memory.
    pub hits: Arc<Counter>,
    /// Pin requests that loaded from the catalog.
    pub misses: Arc<Counter>,
    /// Cached triggers discarded by the clock hand.
    pub evictions: Arc<Counter>,
    /// Total pin calls (hits + misses, counted at the pin entry point so
    /// the invariant `pins == hits + misses` is testable).
    pub pins: Arc<Counter>,
}

/// Buffer-pool-style cache of compiled trigger descriptions.
pub struct TriggerCache {
    capacity: usize,
    resident: RwLock<Resident>,
    stats: CacheStats,
}

/// A pinned trigger; dropping unpins.
pub struct PinnedTrigger {
    trigger: Arc<CompiledTrigger>,
}

impl PinnedTrigger {
    /// The compiled description.
    pub fn get(&self) -> &Arc<CompiledTrigger> {
        &self.trigger
    }
}

impl std::ops::Deref for PinnedTrigger {
    type Target = CompiledTrigger;

    fn deref(&self) -> &CompiledTrigger {
        &self.trigger
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

    /// Register the cache's series in `registry`: its counters, and its
    /// residency as a computed read.
    pub fn attach_telemetry(self: &Arc<Self>, registry: &Registry) {
        let s = &self.stats;
        for (name, counter) in [
            ("tman_cache_hits_total", &s.hits),
            ("tman_cache_misses_total", &s.misses),
            ("tman_cache_evictions_total", &s.evictions),
            ("tman_cache_pins_total", &s.pins),
        ] {
            registry.register_counter(name, &[], counter.clone());
        }
        let cache = self.clone();
        registry.register_gauge_fn("tman_cache_resident", &[], move || cache.len() as i64);
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
            if let Some((trigger, _)) = resident.triggers.get(id) {
                self.stats.hits.bump();
                let trigger = trigger.clone();
                if !trigger.referenced.load(Ordering::Relaxed) {
                    trigger.referenced.store(true, Ordering::Relaxed);
                }
                return Ok((PinnedTrigger { trigger }, true));
            }
        }
        self.stats.misses.bump();
        let trigger = load()?;
        Ok((self.install(trigger), false))
    }

    /// Read what a fire of each resident trigger of `ids` will read — its
    /// slot and [`CompiledTrigger::touch`]'s blocks — under one read
    /// lock, ahead of pinning them: the lookups are independent, so their
    /// cache misses overlap instead of each waiting for the one before
    /// (group prefetching, Chen et al., ICDE 2004). Nothing is pinned,
    /// marked, counted or loaded; an id that is not resident is passed
    /// over.
    pub(crate) fn warm(&self, ids: impl IntoIterator<Item = TriggerId>) {
        let resident = self.resident.read();
        let mut folded = 0u64;
        for id in ids {
            if let Some((trigger, _)) = resident.triggers.get(id) {
                folded = folded.wrapping_add(trigger.touch());
            }
        }
        std::hint::black_box(folded);
    }

    /// Insert without pinning (used at create-trigger time so the fresh
    /// description is warm).
    pub fn insert(self: &Arc<Self>, trigger: Arc<CompiledTrigger>) {
        self.install(trigger);
    }

    /// Make `trigger` resident, unless a concurrent loader's install of
    /// the same id got there first, and evict down to capacity. The
    /// returned pin is taken before the hand moves, so the trigger survives
    /// its own install.
    fn install(&self, trigger: Arc<CompiledTrigger>) -> PinnedTrigger {
        tick(Work::WriteLock);
        let mut resident = self.resident.write();
        let id = trigger.id;
        let trigger = match resident.triggers.get(id) {
            Some((resident, _)) => resident.clone(),
            None => {
                let pos = resident.ring.len();
                resident.ring.push(id);
                resident.triggers.insert(id, (trigger.clone(), pos));
                trigger
            }
        };
        self.evict_over_capacity(&mut resident);
        PinnedTrigger { trigger }
    }

    /// Look up without loading (tests / stats).
    pub fn peek(&self, id: TriggerId) -> Option<Arc<CompiledTrigger>> {
        let resident = self.resident.read();
        resident.triggers.get(id).map(|(t, _)| t.clone())
    }

    /// Drop a trigger from the cache (after `drop trigger`).
    pub fn remove(&self, id: TriggerId) {
        tick(Work::WriteLock);
        let mut resident = self.resident.write();
        if let Some(&(_, pos)) = resident.triggers.get(id) {
            resident.take(pos);
        }
    }

    /// Advance the clock hand until the cache is back at capacity. Two
    /// laps find every trigger that can go — the first clears the marks,
    /// the second takes what is unpinned — so when the hand has gone round
    /// twice without an eviction everything left is pinned, and the cache
    /// stays over capacity until a later install finds a pin released.
    fn evict_over_capacity(&self, resident: &mut Resident) {
        let mut since_eviction = 0;
        while resident.ring.len() > self.capacity && since_eviction < 2 * resident.ring.len() {
            if resident.hand >= resident.ring.len() {
                resident.hand = 0;
            }
            tick(Work::TriggerPassed);
            let at = resident.ring[resident.hand];
            let (trigger, _) = resident.triggers.get(at).expect("in the ring");
            // Nobody can pin under the write lock: a count of one is the
            // cache's own and stays one.
            let pinned = Arc::strong_count(trigger) > 1;
            if !pinned && !trigger.referenced.swap(false, Ordering::Relaxed) {
                // The ring's last trigger — the one being installed — takes
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
    use crate::compile::dummy_trigger;

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
        let stats = cache.stats();
        assert_eq!((stats.hits.get(), stats.misses.get()), (2, 1));
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
        for (pos, &id) in resident.ring.iter().enumerate() {
            let (trigger, at) = resident.triggers.get(id).unwrap();
            assert_eq!((trigger.id, *at), (id, pos));
            assert_eq!(Arc::strong_count(trigger), 1);
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
    /// hand — what it writes is its own trigger's count and mark — and an
    /// insert passes the triggers it evicts and the marks it clears, at 1 k
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

            // Hits on the ten triggers the hand will come to first.
            let marked = 10;
            let (_, hits) = work_in(|| {
                for id in 0..marked {
                    for _ in 0..3 {
                        let (p, hit) = cache.pin_report(TriggerId(id), || unreachable!()).unwrap();
                        assert!(hit && p.id == TriggerId(id));
                    }
                }
            });
            assert_eq!(
                hits,
                [0, 0],
                "a hit write-locks nothing and passes no trigger"
            );
            let marks = || {
                let resident = cache.resident.read();
                let set = |(_, t): &(TriggerId, &(Arc<CompiledTrigger>, usize))| {
                    t.0.referenced.load(Ordering::Relaxed)
                };
                resident.triggers.iter().filter(set).count() as u64
            };
            assert_eq!(marks(), marked);

            // Over capacity: the hand clears the ten marks and takes the
            // eleventh trigger; the trigger that was hit survives.
            let (_, first) = work_in(|| cache.insert(dummy_trigger(capacity)));
            assert_eq!(first, [1, marked + 1]);
            assert_eq!(marks(), 0);
            assert!(cache.peek(TriggerId(marked)).is_none(), "the victim");
            assert!(cache.peek(TriggerId(0)).is_some(), "recently used");
            assert!(cache.peek(TriggerId(capacity)).is_some(), "just installed");
            // No marks in the way: one trigger passed for one evicted.
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

    /// A warm reads and nothing else: over resident, evicted and unknown
    /// ids it takes no write lock, passes no trigger, moves no counter,
    /// mark or residency and runs no loader — and the pins that follow it
    /// count, mark and evict exactly as they do on a cache nobody warmed.
    #[test]
    fn warm_pins_marks_counts_and_loads_nothing() {
        let capacity = 8u64;
        let fill = |cache: &Arc<TriggerCache>| {
            // 0..4 are evicted by 8..12; 12.. were never created.
            for id in 0..capacity + 4 {
                cache.insert(dummy_trigger(id));
            }
            // Marks on two of the residents, so the hand has some to clear.
            for id in [4, 6] {
                drop(cache.pin(TriggerId(id), || unreachable!()).unwrap());
            }
        };
        let counts = |cache: &TriggerCache| {
            let stats = cache.stats();
            let resident = cache.resident.read();
            let mut marks: Vec<(u64, bool)> = resident
                .triggers
                .iter()
                .map(|(_, (t, _))| (t.id.raw(), t.referenced.load(Ordering::Relaxed)))
                .collect();
            marks.sort_unstable();
            (
                [
                    stats.pins.get(),
                    stats.hits.get(),
                    stats.misses.get(),
                    stats.evictions.get(),
                ],
                resident.ring.clone(),
                resident.hand,
                marks,
            )
        };
        let (warmed, cold) = (
            Arc::new(TriggerCache::new(capacity as usize)),
            Arc::new(TriggerCache::new(capacity as usize)),
        );
        fill(&warmed);
        fill(&cold);
        let ids: Vec<TriggerId> = (0..capacity + 8).map(TriggerId).collect();
        let before = counts(&warmed);
        assert_eq!(before, counts(&cold));
        let (_, work) = work_in(|| warmed.warm(ids.iter().copied()));
        assert_eq!(
            work,
            [0, 0],
            "a warm write-locks nothing and passes no trigger"
        );
        assert_eq!(
            counts(&warmed),
            before,
            "pins, hits, misses, evictions, residents, hand, marks"
        );

        // Each id warmed and pinned, against pinned alone: the same hits,
        // misses, loads, evictions, marks and work.
        for &id in &ids {
            let pin = |cache: &Arc<TriggerCache>| {
                let mut loads = 0;
                let (pinned, work) = work_in(|| {
                    cache
                        .pin_report(id, || {
                            loads += 1;
                            Ok(dummy_trigger(id.raw()))
                        })
                        .map(|(_, hit)| hit)
                        .unwrap()
                });
                (pinned, work, loads)
            };
            warmed.warm([id]);
            assert_eq!(pin(&warmed), pin(&cold), "pin of {id}");
            assert_eq!(counts(&warmed), counts(&cold), "after the pin of {id}");
        }
        assert_eq!(warmed.stats().pins.get(), before.0[0] + ids.len() as u64);
    }

    /// With every trigger pinned the hand gives up after two laps, and the
    /// next install after the pins are released evicts the overflow too.
    #[test]
    fn all_pinned_overflows_for_two_laps_then_recovers() {
        let cache = Arc::new(TriggerCache::new(4));
        let pins: Vec<_> = (0..6u64)
            .map(|id| cache.pin(TriggerId(id), || Ok(dummy_trigger(id))).unwrap())
            .collect();
        assert_eq!(cache.len(), 6, "temporary overflow");
        let (_, stuck) = work_in(|| cache.insert(dummy_trigger(6)));
        assert_eq!(stuck[Work::TriggerPassed as usize], 2 * 7);
        assert_eq!(cache.stats().evictions.get(), 0);
        drop(pins);
        cache.insert(dummy_trigger(7));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions.get(), 4);
        assert!(cache.peek(TriggerId(7)).is_some());
    }
}
