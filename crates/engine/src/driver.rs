//! Driver processes and the shared task queue (§6).
//!
//! "The concurrent processing architecture ... will make use of N driver
//! processes" where `N = ceil(NUM_CPUS * TMAN_CONCURRENCY_LEVEL)`. "Each
//! driver process will call TriggerMan's TmanTest() function every T time
//! units. Each driver will also call back immediately after one execution
//! of TmanTest() if work is still left to do."

use crate::TriggerMan;
use crossbeam::queue::SegQueue;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tman_common::UpdateDescriptor;
use tman_predindex::SignatureRuntime;

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
    /// Nothing to do — wait `T` before calling again.
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
        match system.tman_test_on(shard, threshold) {
            TmanTestResult::TasksRemaining => continue,
            TmanTestResult::QueueEmpty => {
                // Wait T, in small slices so shutdown is prompt.
                let slice = period.min(Duration::from_millis(5));
                let mut waited = Duration::ZERO;
                while waited < period && !system.is_shutdown() {
                    std::thread::sleep(slice);
                    waited += slice;
                }
            }
        }
    }
}
