//! Deterministic storage fault injection.
//!
//! A [`FaultPlan`] wraps the file backend of a [`crate::DiskManager`] and
//! injects failures into `write_page` from a pinned RNG, so every failure
//! schedule is replayable from its seed. Five fault kinds are modeled:
//!
//! * **Torn write** — a prefix of the physical slot reaches disk, then the
//!   write returns an I/O error (an interrupted `write(2)`). The previous
//!   version of the page survives in the other slot.
//! * **Short write** — like a torn write but the tear lands in the final
//!   eighth of the slot (the kernel accepted most of the buffer).
//! * **Dropped sync** — the write reports success but nothing reaches the
//!   platter (a lying `fsync`). The only fault that lies; the page silently
//!   stays at its previous durable version.
//! * **Transient error** — nothing is written and an I/O error is returned;
//!   retrying succeeds. Exercises the buffer pool's bounded retry path.
//! * **Crash** — at the Nth armed write, a prefix of the slot is written and
//!   the disk *freezes*: every subsequent read, write, or allocate returns
//!   an I/O error until the store is reopened. This simulates pulling the
//!   plug without killing the test process.
//!
//! Decisions are drawn under the disk manager's file lock, so a
//! single-threaded workload replays bit-identically. The plan only applies
//! to the file backend; the in-memory backend never faults.
//!
//! Since the write-ahead log landed, the same plan covers **log appends**
//! (each WAL frame write draws a [`decide_write`](FaultPlan::decide_write)
//! over the frame length, so torn/short/dropped/crash faults land on the
//! log, not just on page writes) and **fsyncs**
//! ([`decide_sync`](FaultPlan::decide_sync): a sync counts toward the
//! crash point and can fail transiently). Recovery-time replay writes go
//! through `write_page` and therefore draw from the same schedule when a
//! test arms the plan across a reopen.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tman_common::rng::SplitMix64;
use tman_sync::Mutex;

/// Which failure a write decision produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Prefix written, error returned.
    TornWrite,
    /// Most of the slot written, error returned.
    ShortWrite,
    /// Success reported, nothing written.
    DroppedSync,
    /// Nothing written, error returned; retry succeeds.
    TransientError,
    /// Prefix written, then the disk freezes until reopen.
    Crash,
}

/// The action the disk manager must take for one `write_page` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteFault {
    /// Fault category.
    pub(crate) kind: FaultKind,
    /// Bytes of the physical slot to actually write before failing
    /// (ignored for [`FaultKind::DroppedSync`] / [`FaultKind::TransientError`]).
    pub(crate) tear_at: usize,
}

/// Seeded fault schedule. Per-mille rates are per armed `write_page` call.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// RNG seed; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Freeze the disk at the Nth armed write (1-based), if set.
    pub crash_after_writes: Option<u64>,
    /// Torn-write probability, in 1/1000 per write.
    pub torn_per_mille: u32,
    /// Short-write probability.
    pub short_per_mille: u32,
    /// Dropped-sync probability.
    pub dropped_sync_per_mille: u32,
    /// Transient-error probability.
    pub transient_per_mille: u32,
}

#[derive(Debug)]
struct Inner {
    config: FaultConfig,
    rng: Mutex<SplitMix64>,
    armed: AtomicBool,
    crashed: AtomicBool,
    writes_seen: AtomicU64,
    torn: AtomicU64,
    short: AtomicU64,
    dropped: AtomicU64,
    transient: AtomicU64,
    crashes: AtomicU64,
}

/// Shared handle to a fault schedule. Cloning shares state, so the harness
/// keeps one handle while the engine's disk manager holds another.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// Build a plan from a config. Plans start *disarmed*: no faults fire
    /// until [`arm`](Self::arm) is called, so tests can run setup phases
    /// (schema creation, checkpoints) on a reliable disk.
    pub fn new(config: FaultConfig) -> FaultPlan {
        let seed = config.seed;
        FaultPlan {
            inner: Arc::new(Inner {
                config,
                rng: Mutex::new(SplitMix64::new(seed)),
                armed: AtomicBool::new(false),
                crashed: AtomicBool::new(false),
                writes_seen: AtomicU64::new(0),
                torn: AtomicU64::new(0),
                short: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                transient: AtomicU64::new(0),
                crashes: AtomicU64::new(0),
            }),
        }
    }

    /// Start injecting faults.
    pub fn arm(&self) {
        self.inner.armed.store(true, Ordering::SeqCst);
    }

    /// Stop injecting faults (counters and crash state are kept).
    pub fn disarm(&self) {
        self.inner.armed.store(false, Ordering::SeqCst);
    }

    /// Whether faults are currently being injected.
    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::SeqCst)
    }

    /// Whether a crash point fired and froze the disk.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Clear the frozen state (the harness calls this before reopening the
    /// store, standing in for a process restart).
    pub fn reset_crash(&self) {
        self.inner.crashed.store(false, Ordering::SeqCst);
    }

    /// True while the disk is frozen by a crash point.
    pub(crate) fn frozen(&self) -> bool {
        self.crashed()
    }

    /// Decide the fate of one `write_page` call over a physical slot of
    /// `phys_len` bytes. Must be called under the disk manager's file lock
    /// so the RNG stream (and therefore the schedule) is deterministic.
    pub(crate) fn decide_write(&self, phys_len: usize) -> Option<WriteFault> {
        if !self.is_armed() || self.crashed() {
            return None;
        }
        let n = self.inner.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let mut rng = self.inner.rng.lock();
        if let Some(at) = self.inner.config.crash_after_writes {
            if n >= at {
                self.inner.crashed.store(true, Ordering::SeqCst);
                self.inner.crashes.fetch_add(1, Ordering::SeqCst);
                let tear_at = rng.below(phys_len as u64) as usize;
                return Some(WriteFault {
                    kind: FaultKind::Crash,
                    tear_at,
                });
            }
        }
        let roll = rng.below(1000) as u32;
        let c = &self.inner.config;
        let mut edge = c.torn_per_mille;
        if roll < edge {
            self.inner.torn.fetch_add(1, Ordering::SeqCst);
            let tear_at = rng.below(phys_len as u64) as usize;
            return Some(WriteFault {
                kind: FaultKind::TornWrite,
                tear_at,
            });
        }
        edge += c.short_per_mille;
        if roll < edge {
            self.inner.short.fetch_add(1, Ordering::SeqCst);
            // A short write got most of the buffer down: tear in the last
            // eighth of the slot.
            let window = (phys_len / 8).max(1);
            let tear_at = phys_len - 1 - rng.below(window as u64) as usize;
            return Some(WriteFault {
                kind: FaultKind::ShortWrite,
                tear_at,
            });
        }
        edge += c.dropped_sync_per_mille;
        if roll < edge {
            self.inner.dropped.fetch_add(1, Ordering::SeqCst);
            return Some(WriteFault {
                kind: FaultKind::DroppedSync,
                tear_at: 0,
            });
        }
        edge += c.transient_per_mille;
        if roll < edge {
            self.inner.transient.fetch_add(1, Ordering::SeqCst);
            return Some(WriteFault {
                kind: FaultKind::TransientError,
                tear_at: 0,
            });
        }
        None
    }

    /// Decide the fate of one durability sync (`fdatasync` of the WAL or
    /// page file). Syncs count toward the crash point like writes — a
    /// crash can land *between* an append and the fsync that would have
    /// made it durable — and can fail transiently (retry succeeds). Torn,
    /// short, and dropped faults carry no data here and never fire.
    pub(crate) fn decide_sync(&self) -> Option<FaultKind> {
        if !self.is_armed() || self.crashed() {
            return None;
        }
        let n = self.inner.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let mut rng = self.inner.rng.lock();
        if let Some(at) = self.inner.config.crash_after_writes {
            if n >= at {
                self.inner.crashed.store(true, Ordering::SeqCst);
                self.inner.crashes.fetch_add(1, Ordering::SeqCst);
                return Some(FaultKind::Crash);
            }
        }
        let roll = rng.below(1000) as u32;
        if roll < self.inner.config.transient_per_mille {
            self.inner.transient.fetch_add(1, Ordering::SeqCst);
            return Some(FaultKind::TransientError);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Armed writes observed so far.
        fn writes_seen(&self) -> u64 {
            self.inner.writes_seen.load(Ordering::SeqCst)
        }

        /// Faults injected so far, by kind.
        fn count(&self, kind: FaultKind) -> u64 {
            let c = match kind {
                FaultKind::TornWrite => &self.inner.torn,
                FaultKind::ShortWrite => &self.inner.short,
                FaultKind::DroppedSync => &self.inner.dropped,
                FaultKind::TransientError => &self.inner.transient,
                FaultKind::Crash => &self.inner.crashes,
            };
            c.load(Ordering::SeqCst)
        }

        /// Total faults injected so far.
        fn injected_total(&self) -> u64 {
            [
                FaultKind::TornWrite,
                FaultKind::ShortWrite,
                FaultKind::DroppedSync,
                FaultKind::TransientError,
                FaultKind::Crash,
            ]
            .iter()
            .map(|&k| self.count(k))
            .sum()
        }
    }

    fn drain(plan: &FaultPlan, n: usize) -> Vec<Option<WriteFault>> {
        (0..n).map(|_| plan.decide_write(4112)).collect()
    }

    #[test]
    fn disarmed_plan_never_faults() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            torn_per_mille: 1000,
            ..Default::default()
        });
        assert!(drain(&plan, 100).iter().all(Option::is_none));
        assert_eq!(plan.writes_seen(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            seed: 42,
            torn_per_mille: 100,
            short_per_mille: 50,
            dropped_sync_per_mille: 30,
            transient_per_mille: 120,
            ..Default::default()
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        a.arm();
        b.arm();
        assert_eq!(drain(&a, 500), drain(&b, 500));
        assert!(a.injected_total() > 0, "rates high enough to fire");
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let p = FaultPlan::new(FaultConfig {
                seed,
                torn_per_mille: 200,
                ..Default::default()
            });
            p.arm();
            drain(&p, 300)
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn crash_freezes_at_nth_write() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            crash_after_writes: Some(5),
            ..Default::default()
        });
        plan.arm();
        for i in 1..=4u64 {
            assert_eq!(plan.decide_write(4112), None, "write {i} clean");
        }
        let f = plan.decide_write(4112).expect("5th write crashes");
        assert_eq!(f.kind, FaultKind::Crash);
        assert!(f.tear_at < 4112);
        assert!(plan.crashed());
        // Frozen: no further decisions are drawn.
        assert_eq!(plan.decide_write(4112), None);
        assert_eq!(plan.count(FaultKind::Crash), 1);
        plan.reset_crash();
        assert!(!plan.crashed());
    }

    #[test]
    fn short_write_tears_late() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            short_per_mille: 1000,
            ..Default::default()
        });
        plan.arm();
        for _ in 0..50 {
            let f = plan.decide_write(4096).expect("always short");
            assert_eq!(f.kind, FaultKind::ShortWrite);
            assert!(f.tear_at >= 4096 - 512, "tear_at {} too early", f.tear_at);
            assert!(f.tear_at < 4096);
        }
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 9,
            transient_per_mille: 1000,
            ..Default::default()
        });
        let other = plan.clone();
        plan.arm();
        assert!(other.is_armed());
        other.decide_write(4112);
        assert_eq!(plan.count(FaultKind::TransientError), 1);
    }
}
