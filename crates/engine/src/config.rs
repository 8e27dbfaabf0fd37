//! Engine configuration.

use std::time::Duration;
use tman_network::NetworkKind;
use tman_predindex::IndexConfig;

/// How update descriptors are queued between capture and processing (§3:
/// "data source programs or triggers can place update descriptors in a
/// table acting as a queue ... We plan to allow updates to be delivered
/// into a main-memory queue as well ... the safety of persistent update
/// queuing will be lost").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// Update descriptors go to a database table; they survive restarts.
    Persistent,
    /// Update descriptors go to an in-memory queue; faster, volatile.
    Volatile,
}

/// Per-token trace capture mode. `Off` reduces the hot path to a single
/// branch (tokens carry an inert handle, no allocation); `Sampled` gives
/// every token a live trace whose retention is decided *after* it
/// finishes (tail sampling), so a slow token is never lost to the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracingMode {
    /// No tracing.
    Off,
    /// Trace every token, retain roughly 1 in `n` — plus every token whose
    /// end-to-end latency exceeds [`Config::slow_token_threshold`].
    /// `Sampled(1)` retains every token's trace.
    Sampled(u64),
}

/// TriggerMan configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Trigger-cache capacity, in triggers (§5.1's example: 16,384
    /// descriptions in 64 MB at ~4 KB each).
    pub trigger_cache_capacity: usize,
    /// Discrimination network used for join triggers (the paper's default
    /// is A-TREAT).
    pub network: NetworkKind,
    /// Predicate-index tuning.
    pub index: IndexConfig,
    /// Update-descriptor queue mode.
    pub queue_mode: QueueMode,
    /// Override for NUM_CPUS, and so for the driver count (§6's
    /// `TMAN_CONCURRENCY_LEVEL` below 1 is this at a smaller count);
    /// `None` = detect.
    pub num_cpus: Option<usize>,
    /// `T`: the longest an idle driver goes between two `TmanTest()` calls
    /// (§6 proposes 250 ms). It is the timeout of the idle wait
    /// ([`TriggerMan::idle_wait`](crate::TriggerMan::idle_wait)), not a
    /// sleep: a push wakes a parked driver at once, so `T` is no floor
    /// under fire latency. What it still sets is the maintenance tick of an
    /// idle engine and the most a missed wake-up could cost.
    pub driver_period: Duration,
    /// `THRESHOLD`: maximum time one `tman_test` invocation may run (§6).
    pub threshold: Duration,
    /// Split a signature probe into this many condition-level tasks when
    /// its triggerID set is at least `partition_min` entries (Figure 5);
    /// 1 disables condition-level concurrency.
    pub condition_partitions: usize,
    /// Minimum triggerID-set size before partitioned probing kicks in.
    pub partition_min: usize,
    /// Buffer-pool pages for the backing database. On a file store it
    /// bounds the catalog and queue pages held in memory: a page past it is
    /// evicted (written to the log first if dirty) and read back on its
    /// next use. On a memory store (`TriggerMan::open_memory`) every page
    /// is in memory once whatever the setting, in its frame or on the
    /// volatile disk; it bounds only how many are in frames, and an
    /// eviction moves a page's buffer rather than copying it.
    pub pool_pages: usize,
    /// Per-token trace capture (span trees across the §6 task fan-out).
    pub tracing: TracingMode,
    /// A token whose end-to-end latency reaches this threshold has its
    /// trace retained even when `TracingMode::Sampled(n)` would discard it.
    pub slow_token_threshold: Duration,
    /// Fault-injection plan attached to the disk manager (test builds
    /// only; `None` in production). See [`tman_storage::FaultPlan`] — the
    /// plan starts disarmed, so merely attaching it costs nothing until a
    /// harness arms it. Ignored by `open_memory`.
    pub faults: Option<tman_storage::FaultPlan>,
    /// Write-ahead-log size (bytes) that triggers an automatic checkpoint
    /// on the next durability barrier: dirty pages are written back to the
    /// page file and the log is reset in place. Smaller values bound recovery
    /// replay time; larger ones amortize checkpoint write-back further.
    /// Ignored by `open_memory` (no WAL).
    pub wal_checkpoint_bytes: u64,
    /// HTTP exposition endpoint (`GET /metrics`, `/metrics.json`,
    /// `/healthz`, `/tracez`), e.g. `"127.0.0.1:9100"` (port 0 for
    /// ephemeral). `None` (the default) serves nothing; an address starts
    /// the dependency-free responder at open time and stops it at
    /// [`shutdown`](crate::TriggerMan::shutdown).
    pub http_addr: Option<String>,
    /// Maximum tokens one drain pass dequeues and processes as a batch:
    /// the match-plan load, one constant-set lock hold per signature, and
    /// the persistent queue's ack/watermark durability barrier are
    /// amortized across the batch. 1 drains a run of one through the same
    /// pipeline.
    pub drain_batch: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            trigger_cache_capacity: 16_384,
            network: NetworkKind::ATreat,
            index: IndexConfig::default(),
            queue_mode: QueueMode::Volatile,
            num_cpus: None,
            driver_period: Duration::from_millis(250),
            threshold: Duration::from_millis(250),
            condition_partitions: 1,
            partition_min: 1024,
            pool_pages: 4096,
            tracing: TracingMode::Off,
            slow_token_threshold: Duration::from_millis(10),
            faults: None,
            wal_checkpoint_bytes: 1 << 20,
            http_addr: None,
            drain_batch: 64,
        }
    }
}

impl Config {
    /// Number of driver threads: §6's `N = ceil(NUM_CPUS *
    /// TMAN_CONCURRENCY_LEVEL)` at level 1, so NUM_CPUS — detected, or
    /// [`num_cpus`](Self::num_cpus) — and at least one.
    pub fn num_drivers(&self) -> usize {
        let cpus = self.num_cpus.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        cpus.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_count_formula() {
        let cpus = |num_cpus| Config {
            num_cpus,
            ..Default::default()
        };
        assert_eq!(cpus(Some(8)).num_drivers(), 8);
        assert_eq!(cpus(Some(3)).num_drivers(), 3);
        assert_eq!(cpus(Some(0)).num_drivers(), 1);
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cpus(None).num_drivers(), detected);
    }

    #[test]
    fn drain_batch_default_is_batched() {
        assert!(Config::default().drain_batch > 1);
    }

    /// Every field named, no `..`: a field added to `Config` fails to
    /// compile here, so a new setting is a decision this test records.
    #[test]
    fn config_has_sixteen_fields() {
        let Config {
            trigger_cache_capacity: _,
            network: _,
            index: _,
            queue_mode: _,
            num_cpus: _,
            driver_period: _,
            threshold: _,
            condition_partitions: _,
            partition_min: _,
            pool_pages: _,
            tracing: _,
            slow_token_threshold: _,
            faults: _,
            wal_checkpoint_bytes: _,
            http_addr: _,
            drain_batch: _,
        } = Config::default();
    }
}
