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
//! from many driver threads at once — so the hit path is a shared read
//! lock plus two relaxed atomics (pin count, LRU timestamp). The write
//! lock is taken only for misses and eviction, which scans for the
//! least-recently-used unpinned slot (misses are already paying a
//! recompilation, so the scan is noise).

use crate::compile::CompiledTrigger;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use tman_common::fxhash::FxHashMap;
use tman_common::stats::CacheStats;
use tman_common::{Result, TriggerId};

struct Slot {
    trigger: Arc<CompiledTrigger>,
    pins: AtomicU32,
    last_used: AtomicU64,
}

/// Buffer-pool-style cache of compiled trigger descriptions.
pub struct TriggerCache {
    capacity: usize,
    map: RwLock<FxHashMap<TriggerId, Arc<Slot>>>,
    tick: AtomicU64,
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

impl Drop for PinnedTrigger {
    fn drop(&mut self) {
        self.slot.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

impl TriggerCache {
    /// Cache holding at most `capacity` descriptions.
    pub fn new(capacity: usize) -> TriggerCache {
        TriggerCache {
            capacity: capacity.max(1),
            map: RwLock::new(FxHashMap::default()),
            tick: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of resident descriptions.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn pin_slot(&self, slot: &Arc<Slot>) -> PinnedTrigger {
        slot.pins.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        PinnedTrigger { slot: slot.clone() }
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
        if let Some(slot) = self.map.read().get(&id) {
            self.stats.hits.bump();
            return Ok((self.pin_slot(slot), true));
        }
        self.stats.misses.bump();
        let trigger = load()?;
        let mut map = self.map.write();
        let slot = map
            .entry(id)
            .or_insert_with(|| {
                Arc::new(Slot {
                    trigger,
                    pins: AtomicU32::new(0),
                    last_used: AtomicU64::new(0),
                })
            })
            .clone();
        let pinned = self.pin_slot(&slot);
        Self::evict_over_capacity(&mut map, self.capacity, &self.stats);
        Ok((pinned, false))
    }

    /// Insert without pinning (used at create-trigger time so the fresh
    /// description is warm).
    pub fn insert(self: &Arc<Self>, trigger: Arc<CompiledTrigger>) {
        let id = trigger.id;
        let slot = Arc::new(Slot {
            trigger,
            pins: AtomicU32::new(0),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
        });
        let mut map = self.map.write();
        map.insert(id, slot);
        Self::evict_over_capacity(&mut map, self.capacity, &self.stats);
    }

    /// Look up without loading (tests / stats).
    pub fn peek(&self, id: TriggerId) -> Option<Arc<CompiledTrigger>> {
        self.map.read().get(&id).map(|s| s.trigger.clone())
    }

    /// Drop a trigger from the cache (after `drop trigger`).
    pub fn remove(&self, id: TriggerId) {
        self.map.write().remove(&id);
    }

    /// Evict in a batch down to ~7/8 of capacity: one O(n log n) sweep
    /// amortized over capacity/8 subsequent inserts, so sustained trigger
    /// creation past the cache size doesn't pay a full scan per insert.
    fn evict_over_capacity(
        map: &mut FxHashMap<TriggerId, Arc<Slot>>,
        capacity: usize,
        stats: &CacheStats,
    ) {
        if map.len() <= capacity {
            return;
        }
        let target = capacity - capacity / 8;
        let mut candidates: Vec<(u64, TriggerId)> = map
            .iter()
            .filter(|(_, s)| s.pins.load(Ordering::Relaxed) == 0)
            .map(|(id, s)| (s.last_used.load(Ordering::Relaxed), *id))
            .collect();
        candidates.sort_unstable();
        for (_, id) in candidates {
            if map.len() <= target {
                break;
            }
            map.remove(&id);
            stats.evictions.bump();
        }
        // If everything is pinned we allow temporary overflow.
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
        // All pins released.
        for (_, slot) in cache.map.read().iter() {
            assert_eq!(slot.pins.load(Ordering::Relaxed), 0);
        }
    }
}
