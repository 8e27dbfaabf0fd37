//! Driver processes and the shared task queue (§6).
//!
//! "The concurrent processing architecture ... will make use of N driver
//! processes" where `N = ceil(NUM_CPUS * TMAN_CONCURRENCY_LEVEL)`. "Each
//! driver process will call TriggerMan's TmanTest() function every T time
//! units. Each driver will also call back immediately after one execution
//! of TmanTest() if work is still left to do."
//!
//! The paper's drivers are separate programs polling a DataBlade routine,
//! so between two polls nothing can reach them. Ours are threads in the
//! engine's own process, and a push can: a driver that finds the queue
//! empty parks on the engine's idle gate ([`TriggerMan::idle_wait`]) and
//! whoever publishes work wakes one. `T`
//! ([`Config::driver_period`](crate::Config::driver_period)) keeps its
//! paper meaning — the longest an idle driver goes between two `TmanTest()`
//! calls — as the timeout of that wait: it is the maintenance tick, and the
//! bound on the damage should a wake-up ever be missed. It is no longer a
//! floor under fire latency.

use crate::TriggerMan;
use crossbeam::queue::SegQueue;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use tman_common::UpdateDescriptor;
use tman_predindex::SignatureRuntime;
use tman_telemetry::{Counter, Gauge};

/// Where idle drivers wait and publishers of work wake them: an
/// eventcount over `std`'s mutex and condition variable.
///
/// A **waiter** ([`wait`](Self::wait)) reads the epoch, *announces*
/// itself (`parked + 1`), *re-checks* for work, and only then sleeps until
/// the epoch moves. A **publisher** ([`wake_one`](Self::wake_one)) makes
/// its work visible first, then loads `parked`, and only when it is
/// non-zero moves the epoch and notifies. Both sides put a `SeqCst` fence
/// between their write and their read, so of the announcement and the
/// published work at least one is seen by the other side: either the
/// publisher sees the waiter and moves the epoch — which the waiter
/// compares with what it read *before* announcing, so a notification that
/// arrives before the sleep is not lost — or the waiter's re-check sees
/// the work. With anything weaker both could read the old value (store
/// buffering) and the push would sit out a whole `driver_period`.
///
/// A publisher on an engine whose drivers are all busy, or that has none,
/// pays the fence and one load.
#[derive(Default)]
pub(crate) struct IdleGate {
    /// Drivers between their announcement and their return from the wait.
    parked: AtomicUsize,
    /// Moved by every wake-up.
    epoch: Mutex<u64>,
    moved: Condvar,
    /// `tman_driver_parked`: drivers asleep in the wait now.
    pub(crate) asleep: Arc<Gauge>,
    /// `tman_driver_parks_total`: waits that went to sleep (the re-check
    /// found nothing).
    pub(crate) parks: Arc<Counter>,
    /// `tman_driver_wakeups_total`: notifications sent.
    pub(crate) wakeups: Arc<Counter>,
}

impl IdleGate {
    /// The epoch is one integer, valid after any update: a poisoned lock
    /// is taken over rather than passed on.
    fn epoch(&self) -> MutexGuard<'_, u64> {
        self.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for a wake-up, `timeout` at most, unless `ready()` holds once
    /// this thread has announced itself. True when there was something to
    /// return for — `ready()` held or the epoch moved — false on timeout.
    pub(crate) fn wait(&self, timeout: Duration, ready: impl FnOnce() -> bool) -> bool {
        let seen = *self.epoch();
        self.parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let woken = ready() || {
            self.parks.bump();
            self.asleep.inc();
            let (_epoch, wait) = self
                .moved
                .wait_timeout_while(self.epoch(), timeout, |epoch| *epoch == seen)
                .unwrap_or_else(PoisonError::into_inner);
            self.asleep.dec();
            !wait.timed_out()
        };
        self.parked.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// Wake one waiter, if there is one and `more()` holds. The caller has
    /// already published the work `more()` looks for.
    pub(crate) fn wake_one_if(&self, more: impl FnOnce() -> bool) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) == 0 || !more() {
            return;
        }
        *self.epoch() += 1;
        self.moved.notify_one();
        self.wakeups.bump();
    }

    /// Wake one waiter, if there is one: new work was just published.
    pub(crate) fn wake_one(&self) {
        self.wake_one_if(|| true);
    }

    /// Wake every waiter (shutdown).
    pub(crate) fn wake_all(&self) {
        *self.epoch() += 1;
        self.moved.notify_all();
    }
}

/// Deferred acknowledgement of one persistent-queue token.
///
/// A token dequeued from the persistent queue may fan out into signature
/// partitions that run on other shards. The token must not be acked —
/// i.e. must survive a crash and be redelivered — until *all* of that work
/// has run. Every partition spawned for the token clones one
/// `Arc<AckState>`; when the last clone drops (the originating drain pass
/// included), the sequence number is pushed onto the engine's pending-ack
/// queue, and the next drain-loop boundary folds it into one batched
/// [`UpdateQueue::ack_batch`](crate::queue::UpdateQueue::ack_batch)
/// durability barrier. A partition that errors still acks on drop: the
/// failure is recorded in `last_error`, and the token is not redelivered.
pub struct AckState {
    seq: i64,
    pending: Arc<SegQueue<i64>>,
}

impl AckState {
    /// Tie queue sequence `seq` to a completion set; the returned handle
    /// (and its clones) push `seq` onto `pending` when the last one drops.
    pub fn new(seq: i64, pending: Arc<SegQueue<i64>>) -> Arc<AckState> {
        Arc::new(AckState { seq, pending })
    }
}

impl Drop for AckState {
    fn drop(&mut self) {
        self.pending.push(self.seq);
    }
}

/// The one unit of work in the shared task queue: match one token against
/// one partition of a signature's constant/triggerID sets (Figure 5, §6's
/// task type 3). Whole tokens (type 1) are drained straight from the
/// update queue and never re-queued, and a rule action (types 2 and 4)
/// runs inline on the thread that matched it, in match order.
///
/// A partition carries the span id of the fan-out that spawned it
/// (`parent_span`), so the spans it emits — possibly on a different
/// driver thread — link back into the originating token's trace tree. The
/// trace id itself rides inside the token's `trace` handle.
pub struct Task {
    /// The token.
    pub token: UpdateDescriptor,
    /// The signature whose equivalence class is partitioned.
    pub sig: Arc<SignatureRuntime>,
    /// Partition ordinal.
    pub part: usize,
    /// Total partitions.
    pub nparts: usize,
    /// Trace span that fanned this partition out.
    pub parent_span: u32,
    /// Deferred persistent-queue ack shared by the token and every
    /// partition spawned for it; `None` for volatile tokens.
    pub ack: Option<Arc<AckState>>,
}

/// Result of one `tman_test` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmanTestResult {
    /// The THRESHOLD expired with work still queued — call back
    /// immediately.
    TasksRemaining,
    /// Nothing to do — call again after
    /// [`idle_wait(T)`](TriggerMan::idle_wait), which returns as soon as
    /// there is.
    QueueEmpty,
}

/// Handle over the running driver threads. Dropping the pool shuts the
/// drivers down and joins them.
pub struct DriverPool {
    system: Arc<TriggerMan>,
    handles: Vec<JoinHandle<()>>,
}

impl DriverPool {
    /// Number of driver threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Never empty (at least one driver).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Stop and join all drivers.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.system.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DriverPool {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Spawn the driver threads. Driver `i` binds to shard `i % num_shards`:
/// it drains its own shard's task queue first and steals from the others
/// only when its own is empty, so with `num_drivers >= num_shards` the hot
/// probe path takes no cross-shard contention.
pub fn start(system: Arc<TriggerMan>) -> DriverPool {
    let n = system.config().num_drivers();
    let nshards = system.config().num_shards();
    let threshold = system.config().threshold;
    let period = system.config().driver_period;
    let handles = (0..n)
        .map(|i| {
            let system = system.clone();
            let shard = i % nshards;
            std::thread::Builder::new()
                .name(format!("tman-driver-{i}"))
                .spawn(move || driver_loop(system, shard, threshold, period))
                .expect("spawn driver")
        })
        .collect();
    DriverPool { system, handles }
}

fn driver_loop(system: Arc<TriggerMan>, shard: usize, threshold: Duration, period: Duration) {
    while !system.is_shutdown() {
        if system.tman_test_on(shard, threshold) == TmanTestResult::QueueEmpty {
            system.idle_wait(period);
        }
    }
}
