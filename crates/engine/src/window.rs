//! Windowed-threshold state: `when [pred] count >= K within W`.
//!
//! A threshold only asks whether the K-th newest matching event is still
//! inside the trailing window (Bonifati et al.'s threshold queries), so one
//! [`WindowState`] per windowed trigger holds the min(K, seen) newest
//! effective timestamps and nothing else. [`observe`](WindowState::observe)
//! is O(1): drop the oldest stamp if the ring holds K, push the new one, and
//! fire iff the ring holds K stamps and the oldest is later than `eff − W`
//! (the window `(eff − W, eff]` is half open). The newest event always
//! counts, so `count >= 1` fires on every match, even when `eff − W`
//! saturates to 0.
//!
//! The persisted form is the ring itself, exactly, and
//! [`MAX_WINDOW_COUNT`](crate::catalog::MAX_WINDOW_COUNT) bounds K so a full
//! ring fits one catalog row. A window therefore fires the same before and
//! after a restart, at any K it accepts.
//!
//! # Determinism under out-of-order timestamps
//!
//! Event timestamps come from ingestion wall clocks
//! (`UpdateDescriptor::ingest_unix_ns`), which are not guaranteed monotone
//! across sources or drivers. To keep firing decisions a pure function of
//! the *token sequence* (what the differential oracles replay), the window
//! advances on a monotone clamp: an event's effective time is
//! `max(its timestamp, the newest effective time)`. A late timestamp
//! therefore never rewinds the window — it lands at the current edge — and
//! every engine organization/batch arrangement that preserves token
//! order computes the identical firing multiset.

use crate::catalog::Catalog;
use std::collections::VecDeque;
use tman_common::{Result, TriggerId};
use tman_storage::RecordId;
use tman_sync::{Mutex, MutexGuard};

struct Ring {
    /// The min(K, seen) newest effective timestamps, oldest first
    /// (monotone by construction of the clamp).
    stamps: VecDeque<u64>,
    /// Set by [`observe`](WindowState::observe), cleared by
    /// [`snapshot`](WindowState::snapshot). A window turning dirty puts its
    /// id on the [`DirtyWindows`] list, so a durability barrier visits the
    /// windows it must save and no other.
    dirty: bool,
}

/// Where a window's `window_state` row is.
enum Row {
    /// Nowhere yet: the first save inserts it.
    New,
    /// At this handle: a save rewrites it there.
    At(RecordId),
    /// A save failed partway, and the row may have moved or gone: the next
    /// save finds it by trigger id.
    Lost,
    /// The trigger was dropped: no save writes the row again.
    Retired,
}

/// Shared, thread-safe window state for one windowed trigger.
///
/// A plain mutex (not a lock-free structure) is deliberate: windowed
/// triggers serialize on their window by definition, and the critical
/// section is a pop and a push.
pub(crate) struct WindowState {
    /// The windowed trigger.
    id: TriggerId,
    /// Threshold K.
    count: u64,
    /// Window width in nanoseconds.
    within_ns: u64,
    ring: Mutex<Ring>,
    /// Held by a save across its catalog write, and by a drop: one
    /// window's saves reach the catalog in snapshot order, and none after
    /// its drop. Locked before `ring`, never while `ring` is held.
    row: Mutex<Row>,
}

/// The ids of windows that turned dirty since a barrier last took them:
/// each id once per clean → dirty turn, so every dirty window is on this
/// list or on the list of the barrier saving it.
#[derive(Default)]
pub(crate) struct DirtyWindows(Mutex<Vec<TriggerId>>);

impl DirtyWindows {
    /// Take the list, leaving it empty.
    pub(crate) fn take(&self) -> Vec<TriggerId> {
        std::mem::take(&mut *self.0.lock())
    }

    /// Return ids a barrier took and did not get to: their windows are
    /// still dirty.
    pub(crate) fn put_back(&self, ids: &[TriggerId]) {
        self.0.lock().extend_from_slice(ids);
    }
}

#[cfg(test)]
thread_local! {
    /// Ring locks taken on this thread.
    static RING_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Ring locks this thread has taken — in this crate's unit tests.
#[cfg(test)]
pub(crate) fn ring_locks() -> u64 {
    RING_LOCKS.with(|n| n.get())
}

impl WindowState {
    /// Fresh, empty window of trigger `id`, with no row yet.
    pub(crate) fn new(id: TriggerId, count: u64, within_ns: u64) -> WindowState {
        WindowState {
            id,
            count,
            within_ns,
            ring: Mutex::new(Ring {
                stamps: VecDeque::new(),
                dirty: false,
            }),
            row: Mutex::new(Row::New),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        #[cfg(test)]
        RING_LOCKS.with(|n| n.set(n.get() + 1));
        self.ring.lock()
    }

    /// Replace this window's ring with a persisted one (recovery): its
    /// newest K stamps, oldest first, read from the row at `at`.
    pub(crate) fn hydrate(&self, at: RecordId, stamps: &[u64]) {
        *self.row.lock() = Row::At(at);
        let mut g = self.ring();
        let newest = stamps.len().saturating_sub(self.count as usize);
        g.stamps = stamps[newest..].iter().copied().collect();
        g.dirty = false;
    }

    /// Record one matching event at `ts` and decide whether the trigger
    /// fires: K events lie in `(eff − W, eff]`, this one included. A
    /// window that turns dirty goes on `dirty`.
    pub(crate) fn observe(&self, ts: u64, dirty: &DirtyWindows) -> bool {
        let mut g = self.ring();
        let eff = ts.max(g.stamps.back().copied().unwrap_or(0));
        if g.stamps.len() as u64 == self.count {
            g.stamps.pop_front();
        }
        g.stamps.push_back(eff);
        self.turn_dirty(&mut g, dirty);
        g.stamps.len() as u64 == self.count
            && (self.count == 1 || g.stamps[0] > eff.saturating_sub(self.within_ns))
    }

    /// Mark the ring dirty, and list the window if it was clean.
    fn turn_dirty(&self, g: &mut Ring, dirty: &DirtyWindows) {
        if !std::mem::replace(&mut g.dirty, true) {
            dirty.0.lock().push(self.id);
        }
    }

    /// The ring, oldest first, if it changed since the last snapshot;
    /// the window counts as clean from here until it turns dirty again.
    fn snapshot(&self) -> Option<Vec<u64>> {
        let mut g = self.ring();
        if !g.dirty {
            return None;
        }
        g.dirty = false;
        Some(g.stamps.iter().copied().collect())
    }

    /// The last snapshot did not reach the catalog: persist again at the
    /// next barrier.
    fn mark_dirty(&self, dirty: &DirtyWindows) {
        self.turn_dirty(&mut self.ring(), dirty);
    }

    /// Where the row is: `None` if there is none.
    fn locate(&self, catalog: &Catalog, row: &Row) -> Result<Option<RecordId>> {
        match *row {
            Row::New | Row::Retired => Ok(None),
            Row::At(at) => Ok(Some(at)),
            Row::Lost => catalog.find_window(self.id),
        }
    }

    /// Write the ring to its `window_state` row if it changed since the
    /// last save, in place once the row exists. A failed write leaves the
    /// window dirty, back on `dirty`.
    pub(crate) fn save(&self, catalog: &Catalog, dirty: &DirtyWindows) -> Result<()> {
        let mut row = self.row.lock();
        if matches!(*row, Row::Retired) {
            return Ok(());
        }
        let Some(stamps) = self.snapshot() else {
            return Ok(());
        };
        let saved = self
            .locate(catalog, &row)
            .and_then(|at| catalog.save_window(self.id, at, &stamps));
        match saved {
            Ok(at) => {
                *row = Row::At(at);
                Ok(())
            }
            Err(e) => {
                *row = Row::Lost;
                self.mark_dirty(dirty);
                Err(e)
            }
        }
    }

    /// The trigger is dropped: no save writes its row from here on, and
    /// the row, if a save wrote one, is deleted.
    pub(crate) fn retire(&self, catalog: &Catalog) -> Result<()> {
        let mut row = self.row.lock();
        let was = std::mem::replace(&mut *row, Row::Retired);
        match self.locate(catalog, &was)? {
            Some(at) => catalog.delete_window(at),
            None => Ok(()),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.ring().stamps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MAX_WINDOW_COUNT;
    use tman_baseline::NaiveEca;
    use tman_check::prelude::*;
    use tman_check::test_runner::{Config, TestRunner};
    use tman_common::{
        DataSourceId, DataType, EventKind, Schema, TriggerId, Tuple, UpdateDescriptor, Value,
    };
    use tman_lang::WindowSpec;

    /// A row handle for windows that are never saved.
    fn at() -> RecordId {
        RecordId::from_u64(1 << 16)
    }

    #[test]
    fn fires_at_threshold_and_slides() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 3, 100);
        assert!(!w.observe(10, &dirty));
        assert!(!w.observe(20, &dirty));
        assert!(w.observe(30, &dirty)); // 3 in [−70, 30]
        assert!(w.observe(40, &dirty)); // keeps firing while over threshold
        assert!(!w.observe(200, &dirty)); // 30 and 40 aged out (<= 200-100)
        assert!(!w.observe(210, &dirty));
        assert!(w.observe(220, &dirty)); // 200, 210, 220
    }

    #[test]
    fn out_of_order_timestamps_clamp_forward() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 2, 100);
        assert!(!w.observe(1_000, &dirty));
        // A late event (ts 5) lands at the clamp edge, inside the window.
        assert!(w.observe(5, &dirty));
        assert_eq!(w.snapshot(), Some(vec![1_000, 1_000]));
    }

    #[test]
    fn window_boundary_is_half_open() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 2, 100);
        assert!(!w.observe(100, &dirty));
        // 200 - 100 = 100: the event at 100 is exactly at the cutoff and
        // is out ((eff-W, eff] is half-open).
        assert!(!w.observe(200, &dirty));
        assert!(w.observe(299, &dirty));
    }

    #[test]
    fn count_of_one_fires_on_every_event_even_at_time_zero() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 1, 100);
        assert!(
            w.observe(0, &dirty),
            "eff − W saturates to 0: the newest counts"
        );
        assert!(w.observe(0, &dirty));
        assert!(w.observe(5_000, &dirty));
        let w = WindowState::new(TriggerId(1), 2, 100);
        assert!(!w.observe(0, &dirty));
        assert!(!w.observe(0, &dirty), "0 is not later than 0 − W");
        assert!(!w.observe(1, &dirty), "nor than 1 − W, saturated");
        assert!(w.observe(2, &dirty));
    }

    #[test]
    fn ring_holds_at_most_k_stamps() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 3, u64::MAX);
        for ts in 1..=10_000 {
            assert_eq!(w.observe(ts, &dirty), ts >= 3);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.snapshot(), Some(vec![9_998, 9_999, 10_000]));
    }

    #[test]
    fn hydrate_reapplies_clamp_and_cutoff() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 3, 100);
        w.hydrate(at(), &[100, 200, 200, 240]);
        assert_eq!(w.len(), 3, "the newest K stamps");
        // 200 > 260 − 100: three in the window.
        assert!(w.observe(260, &dirty));
        // A late stamp clamps to 260 against the hydrated ring.
        assert!(w.observe(5, &dirty));
        assert_eq!(w.snapshot(), Some(vec![240, 260, 260]));
        // 260 <= 360 − 100: out.
        assert!(!w.observe(360, &dirty));
    }

    #[test]
    fn snapshot_roundtrips_through_restore() {
        let dirty = DirtyWindows::default();
        let w = WindowState::new(TriggerId(1), 2, 1_000);
        w.observe(500, &dirty);
        w.observe(900, &dirty);
        assert_eq!(dirty.take(), [TriggerId(1)], "listed once a turn dirty");
        let ring = w.snapshot().unwrap();
        assert!(w.snapshot().is_none(), "snapshot clears dirty");
        let r = WindowState::new(TriggerId(1), 2, 1_000);
        r.hydrate(at(), &ring);
        assert!(r.snapshot().is_none(), "a hydrated window is clean");
        assert!(r.observe(1_400, &dirty), "900 and 1 400");
        assert_eq!(
            dirty.take(),
            [TriggerId(1)],
            "the restored window turned dirty"
        );
        w.mark_dirty(&dirty);
        assert_eq!(
            dirty.take(),
            [TriggerId(1)],
            "a failed save is listed again"
        );
        assert_eq!(w.snapshot(), Some(vec![500, 900]), "a failed save retries");
    }

    /// One random stream for [`windows_agree_with_naive_eca`].
    #[derive(Debug, Clone)]
    struct Stream {
        count: u64,
        within_ns: u64,
        start: u64,
        /// Signed steps of the stamp cursor, cycled until the stream is
        /// `len` events long.
        steps: Vec<i64>,
        len: usize,
        /// Rebuild the window from its snapshot after every this many
        /// events.
        restart_every: usize,
    }

    fn arb_stream() -> impl Strategy<Value = Stream> {
        let count = prop_oneof![
            12 => 1u64..=8,
            2 => 9u64..=MAX_WINDOW_COUNT,
            1 => Just(MAX_WINDOW_COUNT),
        ];
        let within_ns = prop_oneof![4 => 1u64..=50, 1 => Just(u64::MAX)];
        let start = prop_oneof![
            2 => Just(0u64),
            1 => 0u64..100,
            1 => Just(1_760_000_000_000_000_000u64),
        ];
        // Ties, out-of-order steps and gaps longer than most windows.
        let steps = tman_check::collection::vec(-30i64..=80, 1..40);
        (count, within_ns, start, steps, 1usize..80, 1usize..=24).prop_map(
            |(count, within_ns, start, steps, extra, restart_every)| Stream {
                count,
                within_ns,
                start,
                len: count as usize + extra,
                steps,
                restart_every,
            },
        )
    }

    /// The ring of K agrees, event by event, with `NaiveEca`'s window —
    /// every in-window stamp kept and counted — and keeps agreeing when
    /// it is rebuilt from its snapshot mid-stream.
    #[test]
    fn windows_agree_with_naive_eca() {
        let src = DataSourceId(1);
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut runner = TestRunner::new(Config::with_cases(256), 0x3D0_0002);
        let result = runner.run(&arb_stream(), |s| {
            let eca = NaiveEca::new();
            eca.add_trigger(TriggerId(1), src, EventKind::Insert, "q", &schema, "1 = 1")
                .unwrap();
            let spec = WindowSpec {
                count: s.count,
                within_ns: s.within_ns,
            };
            eca.set_window(TriggerId(1), &spec).unwrap();
            let dirty = DirtyWindows::default();
            let mut w = WindowState::new(TriggerId(1), s.count, s.within_ns);
            let mut ts = s.start;
            for (i, &step) in s.steps.iter().cycle().take(s.len).enumerate() {
                let mut tok = UpdateDescriptor::insert(src, Tuple::new(vec![Value::Int(0)]));
                tok.ingest_unix_ns = ts;
                let naive = !eca.match_token(&tok).unwrap().is_empty();
                prop_assert_eq!(w.observe(ts, &dirty), naive, "event {} at {}", i, ts);
                if i % s.restart_every == s.restart_every - 1 {
                    let ring = w.snapshot().expect("an observe dirties the window");
                    w = WindowState::new(TriggerId(1), s.count, s.within_ns);
                    w.hydrate(at(), &ring);
                }
                ts = ts.saturating_add_signed(step);
            }
            Ok(())
        });
        if let Err(e) = result {
            panic!("window differential failed: {e}");
        }
    }
}
