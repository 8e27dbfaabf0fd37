//! Windowed-threshold state: `when [pred] count >= K within W`.
//!
//! One [`WindowState`] per windowed trigger holds the timestamps of the
//! matching events currently inside the trailing window. The rule fires on
//! every matching event observed while the window holds at least K events
//! (threshold semantics in the style of Bonifati et al.'s threshold
//! queries); expiry is O(1) amortized — each timestamp is pushed and popped
//! exactly once.
//!
//! # Determinism under out-of-order timestamps
//!
//! Event timestamps come from ingestion wall clocks
//! (`UpdateDescriptor::ingest_unix_ns`), which are not guaranteed monotone
//! across sources or shards. To keep firing decisions a pure function of
//! the *token sequence* (what the differential oracles replay), the window
//! advances on a monotone clamp: an event's effective time is
//! `max(its timestamp, the previous effective time)`. A late timestamp
//! therefore never rewinds the window — it lands at the current edge — and
//! every engine organization/shard/batch arrangement that preserves token
//! order computes the identical firing multiset.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Hard cap on in-window timestamps retained per trigger. A window is a
/// *threshold* gate, not an aggregate: once K is reached the exact
/// population above K only matters for how long the gate stays open, so
/// dropping the oldest entries beyond the cap is a bounded-memory
/// approximation that can only shorten (never extend) an open gate — and
/// only for triggers receiving > 65536 events per window width.
const RING_CAP: usize = 65_536;

/// How many ring timestamps [`WindowState::snapshot`] persists. Recovery
/// needs at most K entries to re-arm the gate; persisting a small multiple
/// keeps catalog rows bounded while restoring the common case exactly.
const PERSIST_CAP: usize = 4_096;

struct Inner {
    /// In-window effective timestamps, oldest first (monotone by
    /// construction of the clamp).
    ring: VecDeque<u64>,
    /// The monotone clamp watermark: the largest effective timestamp
    /// observed so far.
    last_ts: u64,
    /// Set by [`observe`](WindowState::observe) / eviction, cleared by
    /// [`snapshot`](WindowState::snapshot) — lets durability barriers skip
    /// untouched windows.
    dirty: bool,
    /// Timestamps evicted (aged out, capacity-dropped, or discarded at
    /// hydration) since the last [`take_evicted`](WindowState::take_evicted)
    /// drain — the maintenance pass moves this into
    /// `tman_window_evictions_total`.
    evicted: u64,
}

/// Shared, thread-safe window state for one windowed trigger.
///
/// A plain mutex (not a lock-free structure) is deliberate: windowed
/// triggers serialize on their window by definition, and the critical
/// section is a few queue operations.
pub struct WindowState {
    /// Threshold K.
    pub count: u64,
    /// Window width in nanoseconds.
    pub within_ns: u64,
    inner: Mutex<Inner>,
}

impl WindowState {
    /// Fresh, empty window.
    pub fn new(count: u64, within_ns: u64) -> WindowState {
        WindowState {
            count,
            within_ns,
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                last_ts: 0,
                dirty: false,
                evicted: 0,
            }),
        }
    }

    /// Rebuild from a persisted snapshot (recovery). Timestamps outside
    /// the window of `last_ts` or beyond the caps are discarded.
    pub fn restore(count: u64, within_ns: u64, last_ts: u64, ts: &[u64]) -> WindowState {
        let w = WindowState::new(count, within_ns);
        w.hydrate(last_ts, ts);
        w
    }

    /// Replace this window's contents with a persisted snapshot (in-place
    /// form of [`restore`](Self::restore), for states already shared by
    /// `Arc` at recovery time).
    pub fn hydrate(&self, last_ts: u64, ts: &[u64]) {
        let mut g = self.inner.lock().expect("window poisoned");
        g.ring.clear();
        let cutoff = last_ts.saturating_sub(self.within_ns);
        let mut prev = 0u64;
        for &t in ts {
            let eff = t.max(prev); // re-apply the monotone clamp
            prev = eff;
            if eff > cutoff && g.ring.len() < RING_CAP {
                g.ring.push_back(eff);
            } else {
                g.evicted += 1;
            }
        }
        g.last_ts = last_ts.max(prev);
        g.dirty = false;
    }

    /// Record one matching event at `ts` and decide whether the trigger
    /// fires: evict entries older than the window, admit the event, fire
    /// iff at least K events remain in-window.
    pub fn observe(&self, ts: u64) -> bool {
        let mut g = self.inner.lock().expect("window poisoned");
        let eff = ts.max(g.last_ts);
        g.last_ts = eff;
        let cutoff = eff.saturating_sub(self.within_ns);
        while g.ring.front().is_some_and(|&t| t <= cutoff) {
            g.ring.pop_front();
            g.evicted += 1;
        }
        if g.ring.len() == RING_CAP {
            g.ring.pop_front();
            g.evicted += 1;
        }
        g.ring.push_back(eff);
        g.dirty = true;
        g.ring.len() as u64 >= self.count
    }

    /// Evict entries that have aged out of the window relative to the
    /// clamp watermark (maintenance-time expiry; never consults the wall
    /// clock, so it cannot change any firing decision — `observe` would
    /// evict the same entries on the next event). Returns how many were
    /// evicted.
    pub fn expire(&self) -> usize {
        let mut g = self.inner.lock().expect("window poisoned");
        let cutoff = g.last_ts.saturating_sub(self.within_ns);
        let before = g.ring.len();
        while g.ring.front().is_some_and(|&t| t <= cutoff) {
            g.ring.pop_front();
        }
        let evicted = before - g.ring.len();
        if evicted > 0 {
            g.dirty = true;
            g.evicted += evicted as u64;
        }
        evicted
    }

    /// Drain the eviction tally accumulated since the last call
    /// ([`observe`](Self::observe) age-outs and capacity drops,
    /// [`hydrate`](Self::hydrate) discards, [`expire`](Self::expire)) —
    /// the maintenance pass feeds it to `tman_window_evictions_total`.
    pub fn take_evicted(&self) -> u64 {
        let mut g = self.inner.lock().expect("window poisoned");
        std::mem::take(&mut g.evicted)
    }

    /// Number of events currently in-window.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("window poisoned").ring.len()
    }

    /// Is the window empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// If the state changed since the last snapshot, return
    /// `(last_ts, newest timestamps)` for persistence and clear the dirty
    /// flag; `None` when clean. At most `PERSIST_CAP` newest entries are
    /// returned — enough to re-arm any threshold up to that size exactly.
    pub fn snapshot(&self) -> Option<(u64, Vec<u64>)> {
        let mut g = self.inner.lock().expect("window poisoned");
        if !g.dirty {
            return None;
        }
        g.dirty = false;
        let skip = g.ring.len().saturating_sub(PERSIST_CAP);
        Some((g.last_ts, g.ring.iter().skip(skip).copied().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_threshold_and_slides() {
        let w = WindowState::new(3, 100);
        assert!(!w.observe(10));
        assert!(!w.observe(20));
        assert!(w.observe(30)); // 3 in [−70, 30]
        assert!(w.observe(40)); // keeps firing while over threshold
        assert!(!w.observe(200)); // 10..=40 all aged out (<= 200-100)
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn out_of_order_timestamps_clamp_forward() {
        let w = WindowState::new(2, 100);
        assert!(!w.observe(1_000));
        // A late event (ts 5) lands at the clamp edge, inside the window.
        assert!(w.observe(5));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn window_boundary_is_half_open() {
        let w = WindowState::new(2, 100);
        assert!(!w.observe(100));
        // 200 - 100 = 100: the event at 100 is exactly at the cutoff and
        // is evicted ((eff-W, eff] is half-open).
        assert!(!w.observe(200));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn expire_matches_observe_eviction_and_reports_dirty() {
        let w = WindowState::new(2, 200);
        w.observe(10);
        w.observe(90);
        w.snapshot(); // clear dirty
                      // Observe-time eviction keeps the ring tight against the clamp
                      // watermark, so maintenance expiry ordinarily finds nothing.
        assert_eq!(w.expire(), 0);
        assert!(w.snapshot().is_none(), "no-op expiry stays clean");
        // Advance the watermark without an observe (no public path does
        // this today; expire() is the backstop if one appears).
        w.inner.lock().unwrap().last_ts = 250;
        assert_eq!(w.expire(), 1); // 10 <= 250-200; 90 stays
        assert_eq!(w.len(), 1);
        let (last, ring) = w.snapshot().expect("expiry dirties the window");
        assert_eq!((last, ring), (250, vec![90]));
    }

    #[test]
    fn restore_reapplies_clamp_and_cutoff() {
        let w = WindowState::restore(3, 100, 250, &[100, 200, 180, 240]);
        // 100 <= 250-100 is out; 200 stays; 180 clamps to 200; 240 stays.
        assert_eq!(w.len(), 3);
        // One more event within the window crosses the threshold of 3... it
        // already holds 3, so the next observe fires.
        assert!(w.observe(260));
    }

    #[test]
    fn snapshot_roundtrips_through_restore() {
        let w = WindowState::new(2, 1_000);
        w.observe(500);
        w.observe(900);
        let (last, ring) = w.snapshot().unwrap();
        let r = WindowState::restore(2, 1_000, last, &ring);
        assert_eq!(r.len(), 2);
        assert!(w.snapshot().is_none(), "snapshot clears dirty");
    }

    #[test]
    fn eviction_tally_drains_once() {
        let w = WindowState::new(2, 100);
        w.observe(10);
        w.observe(20);
        w.observe(300); // ages out both earlier entries
        assert_eq!(w.take_evicted(), 2);
        assert_eq!(w.take_evicted(), 0, "tally drains");
        // Hydration discards count too.
        w.hydrate(500, &[10, 450]);
        assert_eq!(w.take_evicted(), 1);
    }

    #[test]
    fn ring_is_bounded() {
        let w = WindowState::new(1, u64::MAX / 2);
        for i in 0..(RING_CAP + 10) {
            w.observe(i as u64 + 1);
        }
        assert_eq!(w.len(), RING_CAP);
    }
}
