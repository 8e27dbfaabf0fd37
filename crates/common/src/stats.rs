//! Per-subsystem operation-counter groups.
//!
//! The experiments in EXPERIMENTS.md compare *work done* (pages read,
//! predicates evaluated, cache hits) as well as wall time, because the
//! paper's disk-vs-memory arguments are about I/O and probe counts.
//!
//! The counter implementation itself lives in [`tman_telemetry`] (it grew
//! gauges, histograms, and a labeled registry around it); this module
//! re-exports it so existing `tman_common::stats::Counter` imports keep
//! working, and keeps the per-subsystem stat groups. Counters are held by
//! `Arc` so the engine can register the *same* instances into a telemetry
//! [`tman_telemetry::Registry`] — `show stats` and the Prometheus
//! exposition then read live values with zero extra hot-path work.

use std::sync::Arc;

pub use tman_telemetry::{Counter, Histogram};

/// Storage-layer counters (owned by each `DiskManager`/`BufferPool`, but the
/// struct lives here so non-storage crates can report them).
#[derive(Debug, Default, Clone)]
pub struct StorageStats {
    /// Physical page reads from the backing file / simulated disk.
    pub page_reads: Arc<Counter>,
    /// Physical page writes.
    pub page_writes: Arc<Counter>,
    /// Buffer pool hits (page already resident).
    pub pool_hits: Arc<Counter>,
    /// Buffer pool misses (page had to be read).
    pub pool_misses: Arc<Counter>,
    /// Pages evicted to make room.
    pub evictions: Arc<Counter>,
    /// Transient write errors that were retried by the buffer pool.
    pub io_retries: Arc<Counter>,
    /// Page-slot reads whose checksum or version trailer failed validation.
    pub checksum_failures: Arc<Counter>,
    /// Pages zeroed and quarantined by the open-time recovery pass because
    /// neither physical slot held a valid copy.
    pub quarantined_pages: Arc<Counter>,
    /// Faults injected by an attached `FaultPlan` (test builds only).
    pub faults_injected: Arc<Counter>,
    /// Explicit durability syncs (`fdatasync` on the file backend; a
    /// counted no-op on the memory backend). Group commit amortizes these:
    /// the wire tier's batched enqueue pays one sync per batch, so
    /// `syncs / tokens` is the number the E13 experiment watches.
    pub syncs: Arc<Counter>,
}

/// Write-ahead-log counters (owned by each `Wal`; the struct lives here so
/// the engine can register the same instances into the telemetry registry
/// as `tman_wal_*_total` series).
#[derive(Debug, Default, Clone)]
pub struct WalStats {
    /// Page frames (full images or deltas) appended to the log.
    pub appends: Arc<Counter>,
    /// Bytes appended to the log, commit records included.
    pub bytes: Arc<Counter>,
    /// `fdatasync` calls issued on the log file.
    pub fsyncs: Arc<Counter>,
    /// Commits made durable by piggybacking on another writer's fsync —
    /// the group-commit win: `group_commits / fsyncs` is the amortization
    /// factor.
    pub group_commits: Arc<Counter>,
    /// Committed redo records replayed into the page file at open.
    pub replayed_records: Arc<Counter>,
    /// Checkpoints that wrote dirty pages back and truncated the log.
    pub checkpoints: Arc<Counter>,
    /// Latency of making one commit durable (nanoseconds): the fsync wait,
    /// whether this writer issued it or piggybacked on a neighbor's.
    pub group_commit_ns: Arc<Histogram>,
}

impl StorageStats {
    /// Buffer-pool hit rate in \[0,1\]; zero before any fetch.
    pub fn pool_hit_rate(&self) -> f64 {
        let h = self.pool_hits.get() as f64;
        let m = self.pool_misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Predicate-index counters.
#[derive(Debug, Default, Clone)]
pub struct IndexStats {
    /// Tokens submitted to the root of the predicate index.
    pub tokens: Arc<Counter>,
    /// Signature entries visited (one per signature per token).
    pub signatures_probed: Arc<Counter>,
    /// Constant-set probes that used an organization's fast path.
    pub probes: Arc<Counter>,
    /// "Rest of predicate" re-tests performed after an indexed match.
    pub residual_tests: Arc<Counter>,
    /// Full predicate matches produced.
    pub matches: Arc<Counter>,
}

impl IndexStats {
    /// Fraction of fast-path probes that required a rest-of-predicate
    /// retest; zero before any probe.
    pub fn retest_rate(&self) -> f64 {
        let p = self.probes.get() as f64;
        if p == 0.0 {
            0.0
        } else {
            self.residual_tests.get() as f64 / p
        }
    }
}

/// Trigger-cache counters.
#[derive(Debug, Default, Clone)]
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

impl CacheStats {
    /// Hit rate in \[0,1\]; zero when nothing was pinned yet.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.get() as f64;
        let m = self.misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.bump();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn cache_hit_rate() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits.add(3);
        s.misses.add(1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn stats_clone_shares_counters() {
        let s = IndexStats::default();
        let t = s.clone();
        s.probes.add(2);
        s.residual_tests.bump();
        assert_eq!(t.probes.get(), 2);
        assert!((s.retest_rate() - 0.5).abs() < 1e-9);
    }
}
