//! Flat interval index for range-predicate signatures.
//!
//! The mem-index organization of a *range* signature (`lo <[=] attr <[=]
//! hi`) needs stabbing queries: given a token's attribute value, find every
//! expression whose interval contains it. \[Hans96b\] uses the interval
//! skip list; this is the same interface over flat storage, with no
//! allocation per interval:
//!
//! * **sorted runs** — each a pair of parallel arrays ordered by low
//!   endpoint. The first holds three integers per interval: order-
//!   preserving 64-bit images (`rank`) of its two endpoints and of the
//!   highest high endpoint in its subtree, the array being read as an
//!   *implicit* balanced tree (the root of `[l, r)` is its midpoint). A
//!   stab descends that array alone, pruning whole subtrees, for
//!   O(log n + answers) integer comparisons per run; the second array —
//!   the endpoints themselves and the item — is read only where the images
//!   say the interval contains the value, to make sure.
//! * an **unsorted tail** of the last few inserts, the same two arrays
//!   scanned front to back.
//!
//! An insert goes to the tail. A tail of `FAN` (16) intervals is sorted
//! into a new run, and a run is merged into the one before it while it
//! holds more than `1/FAN` of it — so there are O(log_FAN n) runs, each
//! older and at least `FAN` times larger than the next, and an interval is
//! moved O(FAN · log_FAN n) times over its life. A removal from a run
//! leaves a tombstone; a run that is more tombstones than intervals is
//! rebuilt, and one with no interval left is dropped.
//!
//! Stabs deliver run by run, oldest first, each in low-endpoint order
//! (insertion order among equal low endpoints), then the tail in insertion
//! order.

use crate::{tick, Work};
use std::cmp::Ordering;
use tman_common::Value;

/// Tail capacity and run size ratio. One number for both because both
/// trade the same two things — a stab pays one descent per run plus the
/// tail scan, an insert pays `FAN` moves per level — and the trade has a
/// flat bottom: over 11 250 narrow bands a stab costs 343, 266, 253, 220
/// and 292 ns at 4, 8, 16, 32 and 64 while an insert rises from 0.8 to
/// 3.6 µs (DESIGN.md, "Strategy 2 is flat"), so there is nothing for an
/// operator to tune.
const FAN: usize = 16;

/// An order-preserving 64-bit image of a value: `a < b` under
/// [`Value::total_cmp`] implies `rank(a) <= rank(b)`. Two bits of class
/// (NULL, number, string) over 62 of payload — a number's `f64` image in
/// total order, less its two lowest bits, or a string's first seven bytes
/// — so distinct values may share a rank, and a comparison of ranks can
/// only rule a value out, never in.
fn rank(v: &Value) -> u64 {
    let number = |f: f64| {
        let bits = f.to_bits();
        let ordered = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        1 << 62 | ordered >> 2
    };
    match v {
        Value::Null => 0,
        Value::Int(i) => number(*i as f64),
        Value::Float(f) => number(*f),
        Value::Str(s) => {
            let mut head = [0u8; 8];
            let n = s.len().min(7);
            head[..n].copy_from_slice(&s.as_bytes()[..n]);
            2 << 62 | u64::from_be_bytes(head) >> 2
        }
    }
}

/// An interval endpoint: a bound value plus inclusivity, or unbounded.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// No bound on this side.
    Open,
    /// Bound at `value`; `inclusive` controls `<=` vs `<`.
    At {
        /// The bound value.
        value: Value,
        /// Whether the endpoint itself is inside the interval.
        inclusive: bool,
    },
}

impl Bound {
    /// Does a lower bound admit `v`?
    fn lo_admits(&self, v: &Value) -> bool {
        match self {
            Bound::Open => true,
            Bound::At { value, inclusive } => match v.total_cmp(value) {
                Ordering::Greater => true,
                Ordering::Equal => *inclusive,
                Ordering::Less => false,
            },
        }
    }

    /// Does an upper bound admit `v`?
    fn hi_admits(&self, v: &Value) -> bool {
        match self {
            Bound::Open => true,
            Bound::At { value, inclusive } => match v.total_cmp(value) {
                Ordering::Less => true,
                Ordering::Equal => *inclusive,
                Ordering::Greater => false,
            },
        }
    }

    /// The bound's [`rank`]: `open` if there is no bound.
    fn rank_or(&self, open: u64) -> u64 {
        match self {
            Bound::Open => open,
            Bound::At { value, .. } => rank(value),
        }
    }

    /// Bytes the bound keeps on the heap (a string value's buffer).
    fn heap_bytes(&self) -> usize {
        match self {
            Bound::At {
                value: Value::Str(s),
                ..
            } => s.capacity(),
            _ => 0,
        }
    }
}

/// Order lower bounds: Open (= -inf) first, then by value; at equal values
/// an inclusive bound starts earlier than an exclusive one.
fn cmp_lo(a: &Bound, b: &Bound) -> Ordering {
    match (a, b) {
        (Bound::Open, Bound::Open) => Ordering::Equal,
        (Bound::Open, _) => Ordering::Less,
        (_, Bound::Open) => Ordering::Greater,
        (
            Bound::At {
                value: x,
                inclusive: xi,
            },
            Bound::At {
                value: y,
                inclusive: yi,
            },
        ) => x.total_cmp(y).then_with(|| yi.cmp(xi)),
    }
}

/// What a stab reads of one interval: [`rank`]s, so the interval may
/// contain `v` only if `lo <= rank(v) <= hi`.
struct Key {
    /// Of the low endpoint; 0 if there is none.
    lo: u64,
    /// Of the high endpoint; `u64::MAX` if there is none.
    hi: u64,
    /// In a sorted run, the highest `hi` among the intervals of the
    /// implicit subtree this one roots (tombstones included, which only
    /// costs a visit).
    max_hi: u64,
}

/// The interval itself.
struct Slot<T> {
    lo: Bound,
    hi: Bound,
    /// `None` once removed.
    item: Option<T>,
}

impl<T> Slot<T> {
    fn heap_bytes(&self) -> usize {
        self.lo.heap_bytes() + self.hi.heap_bytes()
    }
}

/// `keys[i]` and `slots[i]` are one interval; a sorted run, or the tail.
struct Run<T> {
    keys: Vec<Key>,
    slots: Vec<Slot<T>>,
    /// Slots that still hold an item.
    live: usize,
}

impl<T> Run<T> {
    /// An unsorted run with room for `n` intervals.
    fn with_capacity(n: usize) -> Run<T> {
        Run {
            keys: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            live: 0,
        }
    }

    fn push(&mut self, lo: Bound, hi: Bound, item: T) {
        let (lo_rank, hi_rank) = (lo.rank_or(0), hi.rank_or(u64::MAX));
        self.keys.push(Key {
            lo: lo_rank,
            hi: hi_rank,
            max_hi: hi_rank,
        });
        self.slots.push(Slot {
            lo,
            hi,
            item: Some(item),
        });
        self.live += 1;
    }

    /// A sorted run over the `n` `intervals`, which are in low-endpoint
    /// order.
    fn sorted(n: usize, intervals: impl Iterator<Item = (Bound, Bound, T)>) -> Run<T> {
        let mut run = Run::with_capacity(n);
        intervals.for_each(|(lo, hi, item)| run.push(lo, hi, item));
        run.augment(0, run.keys.len());
        run
    }

    /// Set `max_hi` throughout the implicit tree on `[l, r)`; returns the
    /// subtree's maximum.
    fn augment(&mut self, l: usize, r: usize) -> u64 {
        if l >= r {
            return 0;
        }
        let m = l + (r - l) / 2;
        let below = self.augment(l, m).max(self.augment(m + 1, r));
        self.keys[m].max_hi = self.keys[m].hi.max(below);
        self.keys[m].max_hi
    }

    /// Deliver interval `i` if it holds an item and contains `v`.
    fn check(&self, i: usize, v: &Value, visit: &mut dyn FnMut(&T)) {
        let slot = &self.slots[i];
        if let Some(item) = &slot.item {
            if slot.lo.lo_admits(v) && slot.hi.hi_admits(v) {
                visit(item);
            }
        }
    }

    /// Stab the implicit tree on `[l, r)` of a sorted run; `at` is
    /// `rank(v)`.
    fn stab(&self, mut l: usize, r: usize, v: &Value, at: u64, visit: &mut dyn FnMut(&T)) {
        while l < r {
            tick(Work::IntervalNode);
            let m = l + (r - l) / 2;
            let key = &self.keys[m];
            if key.max_hi < at {
                return; // nothing in this subtree reaches v
            }
            self.stab(l, m, v, at, visit);
            if key.lo > at {
                return; // m and everything right of it start after v
            }
            if key.hi >= at {
                self.check(m, v, visit);
            }
            l = m + 1;
        }
    }

    /// Stab an unsorted run: every interval, in order.
    fn scan(&self, v: &Value, at: u64, visit: &mut dyn FnMut(&T)) {
        for (i, key) in self.keys.iter().enumerate() {
            tick(Work::IntervalNode);
            if key.lo <= at && at <= key.hi {
                self.check(i, v, visit);
            }
        }
    }

    /// Tombstone the intervals among positions `among` whose low endpoint
    /// is `lo` and whose item matches `pred`, handing the items to `out`.
    /// Returns the bytes their bounds held on the heap.
    fn take_matching(
        &mut self,
        among: std::ops::Range<usize>,
        lo: &Bound,
        pred: &mut impl FnMut(&T) -> bool,
        out: &mut Vec<T>,
    ) -> usize {
        let (at, mut bytes) = (lo.rank_or(0), 0);
        for i in among {
            if self.keys[i].lo != at {
                continue;
            }
            tick(Work::RemoveVisit);
            let slot = &mut self.slots[i];
            if slot.lo == *lo && slot.item.as_ref().is_some_and(&mut *pred) {
                out.extend(slot.item.take());
                bytes += slot.heap_bytes();
                self.live -= 1;
            }
        }
        bytes
    }

    /// The run with its tombstones gone, leaving it empty.
    fn take_live(&mut self) -> impl Iterator<Item = (Bound, Bound, T)> {
        std::mem::replace(self, Run::with_capacity(0)).into_live()
    }

    /// The live intervals, in order.
    fn into_live(self) -> impl Iterator<Item = (Bound, Bound, T)> {
        self.slots
            .into_iter()
            .filter_map(|s| s.item.map(|item| (s.lo, s.hi, item)))
    }

    /// `older` and `newer` as one run, tombstones dropped; at equal low
    /// endpoints `older`'s intervals come first.
    fn merge(older: Run<T>, newer: Run<T>) -> Run<T> {
        let n = older.live + newer.live;
        let (mut a, mut b) = (older.into_live().peekable(), newer.into_live().peekable());
        let merged = std::iter::from_fn(move || match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if cmp_lo(&y.0, &x.0) == Ordering::Less => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        });
        Run::sorted(n, merged)
    }

    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<Key>()
            + self.slots.capacity() * std::mem::size_of::<Slot<T>>()
    }
}

/// A set of `(interval, item)` pairs supporting stabbing queries.
pub struct IntervalIndex<T> {
    /// Sorted runs, oldest (and largest) first.
    runs: Vec<Run<T>>,
    /// The newest intervals, in insertion order, no tombstones.
    tail: Run<T>,
    len: usize,
    /// Heap bytes of string-valued bounds (those of tombstones are
    /// forgotten at once, freed at the run's next rebuild).
    str_bytes: usize,
}

impl<T> Default for IntervalIndex<T> {
    fn default() -> Self {
        IntervalIndex::new()
    }
}

impl<T> IntervalIndex<T> {
    /// Empty index.
    pub fn new() -> IntervalIndex<T> {
        IntervalIndex {
            runs: Vec::new(),
            tail: Run::with_capacity(0),
            len: 0,
            str_bytes: 0,
        }
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an interval.
    pub fn insert(&mut self, lo: Bound, hi: Bound, item: T) {
        self.str_bytes += lo.heap_bytes() + hi.heap_bytes();
        self.tail.push(lo, hi, item);
        self.len += 1;
        if self.tail.live >= FAN {
            self.flush_tail();
        }
    }

    /// Sort the tail into a run, then restore the size ratio between
    /// neighbouring runs from the young end.
    fn flush_tail(&mut self) {
        let mut tail: Vec<_> = self.tail.take_live().collect();
        self.tail = Run::with_capacity(FAN);
        tail.sort_by(|a, b| cmp_lo(&a.0, &b.0)); // stable: ties stay in insertion order
        self.runs.push(Run::sorted(tail.len(), tail.into_iter()));
        while let [.., older, newer] = self.runs.as_slice() {
            if newer.live * FAN <= older.live {
                break;
            }
            let (newer, older) = (self.runs.pop(), self.runs.pop());
            let merged = Run::merge(older.expect("two runs"), newer.expect("two runs"));
            self.runs.push(merged);
        }
    }

    /// Remove the first interval (in delivery order) whose item matches
    /// `pred`, looking at every interval. Returns the removed item.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut matches = |s: &&mut Slot<T>| s.item.as_ref().is_some_and(&mut pred);
        let mut removed = None;
        for run in self.runs.iter_mut().chain([&mut self.tail]) {
            if let Some(slot) = run.slots.iter_mut().find(&mut matches) {
                removed = slot.item.take();
                self.str_bytes -= slot.heap_bytes();
                self.len -= 1;
                run.live -= 1;
                break;
            }
        }
        self.settle();
        removed
    }

    /// Remove every interval whose low endpoint is `lo` and whose item
    /// matches `pred`, looking only at the intervals whose low endpoint
    /// has `lo`'s rank. Returns the removed items.
    pub fn remove_at(&mut self, lo: &Bound, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let at = lo.rank_or(0);
        let (mut out, mut bytes) = (Vec::new(), 0);
        for run in &mut self.runs {
            let same_rank =
                run.keys.partition_point(|k| k.lo < at)..run.keys.partition_point(|k| k.lo <= at);
            bytes += run.take_matching(same_rank, lo, &mut pred, &mut out);
        }
        let tail = 0..self.tail.keys.len();
        bytes += self.tail.take_matching(tail, lo, &mut pred, &mut out);
        self.str_bytes -= bytes;
        self.len -= out.len();
        self.settle();
        out
    }

    /// After removals: drop the runs with no interval left, rebuild those
    /// that are more tombstones than intervals, and keep the tail free of
    /// tombstones.
    fn settle(&mut self) {
        self.runs.retain(|run| run.live > 0);
        for run in &mut self.runs {
            if run.live * 2 < run.keys.len() {
                *run = Run::sorted(run.live, run.take_live());
            }
        }
        if self.tail.live < self.tail.keys.len() {
            let live = self.tail.take_live();
            self.tail = Run::with_capacity(FAN);
            live.for_each(|(lo, hi, item)| self.tail.push(lo, hi, item));
        }
    }

    /// Visit every item whose interval contains `v`.
    pub fn stab(&self, v: &Value, visit: &mut dyn FnMut(&T)) {
        let at = rank(v);
        for run in &self.runs {
            run.stab(0, run.keys.len(), v, at, visit);
        }
        self.tail.scan(v, at, visit);
    }

    /// Visit every stored item, in delivery order.
    pub fn for_each(&self, visit: &mut dyn FnMut(&T)) {
        let runs = self.runs.iter().chain([&self.tail]);
        let slots = runs.flat_map(|r| &r.slots);
        slots.filter_map(|s| s.item.as_ref()).for_each(visit)
    }

    /// Take every item out, in delivery order, leaving the index empty.
    pub fn drain(&mut self) -> Vec<T> {
        let all = std::mem::take(self);
        let runs = all.runs.into_iter().chain([all.tail]);
        runs.flat_map(|r| r.slots).filter_map(|s| s.item).collect()
    }

    /// Heap bytes held: the capacity of every backing array, plus the
    /// buffers of string-valued bounds.
    pub fn memory_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run<T>>()
            + self.runs.iter().map(Run::heap_bytes).sum::<usize>()
            + self.tail.heap_bytes()
            + self.str_bytes
    }

    /// How many sorted runs there are (tests).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(v: i64, inclusive: bool) -> Bound {
        Bound::At {
            value: Value::Int(v),
            inclusive,
        }
    }

    fn naive_stab(items: &[(Bound, Bound, u32)], v: &Value) -> Vec<u32> {
        let mut out: Vec<u32> = items
            .iter()
            .filter(|(lo, hi, _)| lo.lo_admits(v) && hi.hi_admits(v))
            .map(|(_, _, id)| *id)
            .collect();
        out.sort();
        out
    }

    fn index_stab(ix: &IntervalIndex<u32>, v: &Value) -> Vec<u32> {
        let mut out = Vec::new();
        ix.stab(v, &mut |id| out.push(*id));
        out.sort();
        out
    }

    #[test]
    fn basic_stabbing() {
        let mut ix = IntervalIndex::new();
        ix.insert(at(10, true), at(20, true), 1u32);
        ix.insert(at(15, false), at(30, true), 2);
        ix.insert(Bound::Open, at(12, false), 3);
        ix.insert(at(25, true), Bound::Open, 4);

        assert_eq!(index_stab(&ix, &Value::Int(11)), vec![1, 3]);
        assert_eq!(index_stab(&ix, &Value::Int(15)), vec![1]); // 2 is exclusive at 15
        assert_eq!(index_stab(&ix, &Value::Int(16)), vec![1, 2]);
        assert_eq!(index_stab(&ix, &Value::Int(26)), vec![2, 4]);
        assert_eq!(index_stab(&ix, &Value::Int(1000)), vec![4]);
        assert_eq!(index_stab(&ix, &Value::Int(-50)), vec![3]);
    }

    #[test]
    fn inclusivity_at_endpoints() {
        let mut ix = IntervalIndex::new();
        ix.insert(at(5, true), at(10, false), 1u32);
        assert_eq!(index_stab(&ix, &Value::Int(5)), vec![1]);
        assert_eq!(index_stab(&ix, &Value::Int(10)), Vec::<u32>::new());
        assert_eq!(index_stab(&ix, &Value::Int(9)), vec![1]);
    }

    #[test]
    fn removal() {
        let mut ix = IntervalIndex::new();
        for i in 0..10 {
            ix.insert(at(i, true), at(i + 5, true), i as u32);
        }
        assert_eq!(ix.len(), 10);
        let removed = ix.remove_where(|&id| id == 3);
        assert_eq!(removed, Some(3));
        assert_eq!(ix.len(), 9);
        assert!(!index_stab(&ix, &Value::Int(4)).contains(&3));
        assert!(ix.remove_where(|&id| id == 99).is_none());
    }

    #[test]
    fn randomized_against_naive() {
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut ix = IntervalIndex::new();
        let mut model: Vec<(Bound, Bound, u32)> = Vec::new();
        for id in 0..500u32 {
            let a = (next() % 1000) as i64;
            let b = a + (next() % 100) as i64;
            let lo_inc = next() % 2 == 0;
            let hi_inc = next() % 2 == 0;
            let lo = if next() % 10 == 0 {
                Bound::Open
            } else {
                at(a, lo_inc)
            };
            let hi = if next() % 10 == 0 {
                Bound::Open
            } else {
                at(b, hi_inc)
            };
            ix.insert(lo.clone(), hi.clone(), id);
            model.push((lo, hi, id));
        }
        // Random removals.
        for _ in 0..100 {
            let victim = (next() % 500) as u32;
            let in_model = model.iter().position(|(_, _, id)| *id == victim);
            let removed = ix.remove_where(|&id| id == victim);
            match in_model {
                Some(pos) => {
                    assert!(removed.is_some());
                    model.remove(pos);
                }
                None => assert!(removed.is_none()),
            }
        }
        for probe in (0..1100).step_by(7) {
            let v = Value::Int(probe);
            assert_eq!(index_stab(&ix, &v), naive_stab(&model, &v), "probe {probe}");
        }
    }

    #[test]
    fn float_and_cross_type_values() {
        let mut ix = IntervalIndex::new();
        ix.insert(
            Bound::At {
                value: Value::Float(0.5),
                inclusive: true,
            },
            Bound::At {
                value: Value::Float(1.5),
                inclusive: true,
            },
            7u32,
        );
        assert_eq!(index_stab(&ix, &Value::Int(1)), vec![7]);
        assert_eq!(index_stab(&ix, &Value::Float(0.4)), Vec::<u32>::new());
    }

    #[test]
    fn runs_stay_few_and_geometric() {
        let mut ix = IntervalIndex::new();
        for i in 0..50_000i64 {
            ix.insert(at(i % 997, true), at(i % 997 + 3, true), i as u32);
        }
        // log_FAN(50 000 / FAN) + 1 < 4.
        assert!(ix.num_runs() <= 4, "{} runs", ix.num_runs());
        for pair in ix.runs.windows(2) {
            assert!(pair[1].live * FAN <= pair[0].live);
        }
        assert_eq!(ix.len(), 50_000);
        assert_eq!(index_stab(&ix, &Value::Int(0)).len(), 51);
    }
}
