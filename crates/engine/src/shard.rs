//! Engine shards: the §6 task queue split N ways for multi-core scaling.
//!
//! One shared `SegQueue<Task>` that every driver thread pops makes the
//! queue head the single point of contention on many cores. A
//! [`ShardSet`] partitions the task queue into `Config::num_shards()`
//! slots. Placement is deterministic and has one rule: a [`Task`] (a
//! Figure-5 signature partition, the only kind of task there is) routes to
//! `sig.shard_of(active)` — the same stable `id % n` discipline the
//! fan-out uses for partition ordinals, so one signature's constant-set
//! probes always land on one shard.
//!
//! Drivers bind to a home shard and *steal* from the others only when
//! their own queue is empty. Stealing keeps the set work-conserving: a
//! single-threaded `run_until_quiescent` drains every shard, and narrowing
//! the active count mid-stream never strands queued tasks on a
//! deactivated shard — the remaining drivers steal them.

use crate::driver::{IdleGate, Task};
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tman_telemetry::{Counter, Gauge, Registry};

/// One shard: a task queue plus its per-shard instruments. The instrument
/// cells live here, where the differential oracle reads placement from
/// them; [`ShardSet::register_instruments`] shares the same cells into a
/// [`Registry`] as `tman_shard_*{shard="i"}` series.
pub struct EngineShard {
    queue: SegQueue<Task>,
    /// Tasks executed by drivers homed on (or stealing into) this shard.
    pub tasks: Arc<Counter>,
    /// Update-queue tokens drained by this shard's drivers.
    pub tokens: Arc<Counter>,
    /// Tasks this shard's drivers stole from other shards' queues.
    pub steals: Arc<Counter>,
    /// Current queued-task depth of this shard.
    pub depth: Arc<Gauge>,
}

impl EngineShard {
    fn new() -> EngineShard {
        EngineShard {
            queue: SegQueue::new(),
            tasks: Arc::new(Counter::new()),
            tokens: Arc::new(Counter::new()),
            steals: Arc::new(Counter::new()),
            depth: Arc::new(Gauge::new()),
        }
    }
}

/// The sharded task queue. `active` bounds *placement* (new tasks route
/// only to shards `0..active`), never *draining* — pops scan all `N`
/// slots, so shrinking the active set is always safe.
pub struct ShardSet {
    shards: Vec<EngineShard>,
    active: AtomicUsize,
    /// `tman_shards_active` gauge cell (shared into the registry).
    active_gauge: Arc<Gauge>,
    /// The engine's idle gate: every task pushed wakes a parked driver.
    idle: Arc<IdleGate>,
}

impl ShardSet {
    /// A set of `n` shards (clamped to at least 1), all initially active,
    /// whose pushes wake drivers parked on `idle`.
    pub(crate) fn new(n: usize, idle: Arc<IdleGate>) -> ShardSet {
        let n = n.max(1);
        let active_gauge = Arc::new(Gauge::new());
        active_gauge.add(n as i64);
        ShardSet {
            shards: (0..n).map(|_| EngineShard::new()).collect(),
            active: AtomicUsize::new(n),
            active_gauge,
            idle,
        }
    }

    /// Total shard slots (fixed at construction).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards currently eligible for task placement.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Steer placement to `n` shards, clamped to `[1, num_shards]`.
    /// Returns the applied value. Narrowing never strands tasks already
    /// queued on higher shards: draining scans all slots.
    pub fn set_active(&self, n: usize) -> usize {
        let n = n.clamp(1, self.shards.len());
        self.active.store(n, Ordering::Relaxed);
        let cur = self.active_gauge.get();
        self.active_gauge.add(n as i64 - cur);
        n
    }

    /// Route `task` to its owning shard: the signature's stable home,
    /// `sig.shard_of(active)`. Wakes one parked driver, whatever its home:
    /// it steals. One wake-up a task, so a fan-out of `k` partitions
    /// recruits up to `k` drivers.
    pub fn push(&self, task: Task) {
        let slot = task.sig.shard_of(self.active());
        self.shards[slot].depth.inc();
        self.shards[slot].queue.push(task);
        self.idle.wake_one();
    }

    /// Pop a task for a driver homed on `shard`: own queue first, then a
    /// steal scan over the other slots (all `N`, not just active ones).
    /// Returns the task and the slot it came from.
    pub fn pop(&self, shard: usize) -> Option<(Task, usize)> {
        let n = self.shards.len();
        let home = shard % n;
        if let Some(t) = self.shards[home].queue.pop() {
            self.shards[home].depth.dec();
            return Some((t, home));
        }
        for off in 1..n {
            let slot = (home + off) % n;
            if let Some(t) = self.shards[slot].queue.pop() {
                self.shards[slot].depth.dec();
                self.shards[home].steals.bump();
                return Some((t, slot));
            }
        }
        None
    }

    /// Queued tasks across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// True when no shard has queued tasks.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.queue.is_empty())
    }

    /// Borrow shard `i`'s instrument block (metrics snapshots).
    pub fn shard(&self, i: usize) -> &EngineShard {
        &self.shards[i]
    }

    /// Share the per-shard instrument cells into `r` as labeled series:
    /// `tman_shard_tasks_total{shard="i"}`, `tman_shard_tokens_total`,
    /// `tman_shard_steals_total`, `tman_shard_queue_depth`, plus the
    /// scalar `tman_shards_active` gauge.
    pub fn register_instruments(&self, r: &Registry) {
        for (i, s) in self.shards.iter().enumerate() {
            let label = i.to_string();
            let l: &[(&str, &str)] = &[("shard", &label)];
            r.register_counter("tman_shard_tasks_total", l, s.tasks.clone());
            r.register_counter("tman_shard_tokens_total", l, s.tokens.clone());
            r.register_counter("tman_shard_steals_total", l, s.steals.clone());
            r.register_gauge("tman_shard_queue_depth", l, s.depth.clone());
        }
        r.register_gauge("tman_shards_active", &[], self.active_gauge.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, TriggerMan};
    use tman_common::{DataSourceId, Tuple, UpdateDescriptor};
    use tman_predindex::SignatureRuntime;

    /// Signatures with the dense ids `1..=n`, in id order: signature `i`
    /// homes on shard `i % active`.
    fn signatures(n: usize) -> Vec<Arc<SignatureRuntime>> {
        let tman = TriggerMan::open_memory(Config::default()).unwrap();
        let cols: Vec<String> = (0..n).map(|i| format!("c{i} int")).collect();
        tman.execute_command(&format!("define data source q ({})", cols.join(", ")))
            .unwrap();
        for i in 0..n {
            tman.execute_command(&format!(
                "create trigger t{i} from q when q.c{i} = 1 do raise event E(q.c0)"
            ))
            .unwrap();
        }
        let mut sigs = tman.predicate_index().all_signatures();
        sigs.sort_by_key(|s| s.id.raw());
        assert_eq!(
            sigs.iter().map(|s| s.id.raw() as usize).collect::<Vec<_>>(),
            (1..=n).collect::<Vec<_>>()
        );
        sigs
    }

    fn task(sig: &Arc<SignatureRuntime>) -> Task {
        Task {
            token: UpdateDescriptor::insert(DataSourceId(7), Tuple::new(vec![])),
            sig: sig.clone(),
            part: 0,
            nparts: 1,
            parent_span: 0,
            ack: None,
        }
    }

    #[test]
    fn pop_drains_own_queue_before_stealing() {
        let sigs = signatures(4);
        let set = ShardSet::new(4, Arc::default());
        set.push(task(&sigs[1])); // id 2 lands on shard 2
        set.push(task(&sigs[3])); // id 4 lands on shard 0
                                  // Driver homed on 2 takes its own task first, then steals 0's.
        let (_, slot) = set.pop(2).unwrap();
        assert_eq!(slot, 2);
        assert_eq!(set.shard(2).steals.get(), 0);
        let (_, slot) = set.pop(2).unwrap();
        assert_eq!(slot, 0);
        assert_eq!(set.shard(2).steals.get(), 1);
        assert!(set.pop(2).is_none());
        assert!(set.is_empty());
    }

    #[test]
    fn set_active_clamps_and_narrowed_shards_still_drain() {
        let sigs = signatures(3);
        let set = ShardSet::new(4, Arc::default());
        assert_eq!(set.set_active(0), 1);
        assert_eq!(set.set_active(99), 4);
        // Queue a task on shard 3, then narrow to 1: pops from shard 0
        // must still reach it via the steal scan, and new tasks of the
        // same signature now land on shard 0.
        set.push(task(&sigs[2]));
        set.set_active(1);
        assert_eq!(set.len(), 1);
        let (_, slot) = set.pop(0).unwrap();
        assert_eq!(slot, 3);
        set.push(task(&sigs[2]));
        let (_, slot) = set.pop(0).unwrap();
        assert_eq!(slot, 0);
    }

    #[test]
    fn depth_gauge_tracks_push_pop() {
        let sigs = signatures(1);
        let set = ShardSet::new(2, Arc::default());
        set.push(task(&sigs[0]));
        set.push(task(&sigs[0]));
        assert_eq!(set.shard(1).depth.get(), 2);
        set.pop(1).unwrap();
        assert_eq!(set.shard(1).depth.get(), 1);
        set.pop(1).unwrap();
        assert_eq!(set.shard(1).depth.get(), 0);
    }
}
