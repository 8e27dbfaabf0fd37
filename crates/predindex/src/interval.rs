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
//! An endpoint is stored in 16 bytes: a number in place, a string as an id
//! into the index's own dictionary ([`Dict`]), which holds it once.
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

use crate::row::{Const, Dict, View};
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
pub(crate) fn rank(v: &Value) -> u64 {
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
    /// The bound's [`rank`]: `open` if there is no bound.
    pub(crate) fn rank_or(&self, open: u64) -> u64 {
        match self {
            Bound::Open => open,
            Bound::At { value, .. } => rank(value),
        }
    }
}

/// A [`Bound`] as a slot stores it, or the mark of a removed interval.
#[derive(Clone, Copy)]
enum End {
    Open,
    /// The low end of an interval that has been removed.
    Dead,
    /// A bound and whether it is inclusive.
    Null(bool),
    Int(i64, bool),
    Float(f64, bool),
    /// An id in the index's [`Dict`].
    Str(u32, bool),
}

impl End {
    fn new(b: &Bound, dict: &mut Dict) -> End {
        let Bound::At { value, inclusive } = b else {
            return End::Open;
        };
        match Const::intern(value, dict) {
            Const::Null => End::Null(*inclusive),
            Const::Int(i) => End::Int(i, *inclusive),
            Const::Float(f) => End::Float(f, *inclusive),
            Const::Str(id) => End::Str(id, *inclusive),
        }
    }

    /// The bound's constant and inclusivity; `None` for no bound.
    fn at(self) -> Option<(Const, bool)> {
        match self {
            End::Open | End::Dead => None,
            End::Null(inc) => Some((Const::Null, inc)),
            End::Int(i, inc) => Some((Const::Int(i), inc)),
            End::Float(f, inc) => Some((Const::Float(f), inc)),
            End::Str(id, inc) => Some((Const::Str(id), inc)),
        }
    }

    fn bound(self, dict: &Dict) -> Bound {
        match self.at() {
            None => Bound::Open,
            Some((c, inclusive)) => Bound::At {
                value: c.value(dict),
                inclusive,
            },
        }
    }

    fn release(self, dict: &mut Dict) {
        if let Some((c, _)) = self.at() {
            c.release(dict);
        }
    }

    /// Is this the bound `b`?
    fn is(self, b: &Bound, dict: &Dict) -> bool {
        match (self.at(), b) {
            (None, Bound::Open) => matches!(self, End::Open),
            (Some((c, inc)), Bound::At { value, inclusive }) => {
                inc == *inclusive && View::of(value).cmp(c.view(dict)) == Ordering::Equal
            }
            _ => false,
        }
    }

    /// Does `v` lie on the inside of this end: above it for a lower end
    /// (`upper` false), below it for an upper one?
    fn admits(self, v: &Value, upper: bool, dict: &Dict) -> bool {
        let Some((c, inclusive)) = self.at() else {
            return true;
        };
        match View::of(v).cmp(c.view(dict)) {
            Ordering::Equal => inclusive,
            Ordering::Greater => !upper,
            Ordering::Less => upper,
        }
    }
}

/// Order lower ends: Open (= -inf) first, then by value; at equal values
/// an inclusive end starts earlier than an exclusive one.
fn cmp_lo(a: End, b: End, dict: &Dict) -> Ordering {
    match (a.at(), b.at()) {
        (None, None) => Ordering::Equal,
        (None, _) => Ordering::Less,
        (_, None) => Ordering::Greater,
        (Some((x, xi)), Some((y, yi))) => x.view(dict).cmp(y.view(dict)).then_with(|| yi.cmp(&xi)),
    }
}

/// What a stab reads of one interval: [`rank`]s, so the interval may
/// contain `v` only if `lo <= rank(v) <= hi`.
#[derive(Clone, Copy)]
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

/// The interval itself. `lo` is [`End::Dead`] once it is removed.
struct Slot<T> {
    lo: End,
    hi: End,
    item: T,
}

impl<T> Slot<T> {
    fn live(&self) -> bool {
        !matches!(self.lo, End::Dead)
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

    fn push(&mut self, key: Key, slot: Slot<T>) {
        self.keys.push(Key {
            max_hi: key.hi,
            ..key
        });
        self.slots.push(slot);
        self.live += 1;
    }

    /// A sorted run over the `n` `intervals`, which are in low-endpoint
    /// order.
    fn sorted(n: usize, intervals: impl Iterator<Item = (Key, Slot<T>)>) -> Run<T> {
        let mut run = Run::with_capacity(n);
        intervals.for_each(|(key, slot)| run.push(key, slot));
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

    /// Deliver interval `i` if it is live and contains `v`.
    fn check(&self, i: usize, v: &Value, dict: &Dict, visit: &mut dyn FnMut(&T)) {
        let slot = &self.slots[i];
        if slot.live() && slot.lo.admits(v, false, dict) && slot.hi.admits(v, true, dict) {
            visit(&slot.item);
        }
    }

    /// Stab the implicit tree on `[l, r)` of a sorted run; `at` is
    /// `rank(v)`.
    fn stab(
        &self,
        mut l: usize,
        r: usize,
        v: &Value,
        at: u64,
        dict: &Dict,
        visit: &mut dyn FnMut(&T),
    ) {
        while l < r {
            tick(Work::IntervalNode);
            let m = l + (r - l) / 2;
            let key = &self.keys[m];
            if key.max_hi < at {
                return; // nothing in this subtree reaches v
            }
            self.stab(l, m, v, at, dict, visit);
            if key.lo > at {
                return; // m and everything right of it start after v
            }
            if key.hi >= at {
                self.check(m, v, dict, visit);
            }
            l = m + 1;
        }
    }

    /// Stab an unsorted run: every interval, in order.
    fn scan(&self, v: &Value, at: u64, dict: &Dict, visit: &mut dyn FnMut(&T)) {
        for (i, key) in self.keys.iter().enumerate() {
            tick(Work::IntervalNode);
            if key.lo <= at && at <= key.hi {
                self.check(i, v, dict, visit);
            }
        }
    }

    /// The run with its tombstones gone, leaving it empty.
    fn take_live(&mut self) -> impl Iterator<Item = (Key, Slot<T>)> {
        std::mem::replace(self, Run::with_capacity(0)).into_live()
    }

    /// The live intervals, in order.
    fn into_live(self) -> impl Iterator<Item = (Key, Slot<T>)> {
        self.keys
            .into_iter()
            .zip(self.slots)
            .filter(|(_, s)| s.live())
    }

    /// `older` and `newer` as one run, tombstones dropped; at equal low
    /// endpoints `older`'s intervals come first.
    fn merge(older: Run<T>, newer: Run<T>, dict: &Dict) -> Run<T> {
        let n = older.live + newer.live;
        let (mut a, mut b) = (older.into_live().peekable(), newer.into_live().peekable());
        let merged = std::iter::from_fn(move || match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if cmp_lo(y.1.lo, x.1.lo, dict) == Ordering::Less => b.next(),
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
    /// The strings of string-valued endpoints.
    dict: Dict,
}

impl<T: Clone> Default for IntervalIndex<T> {
    fn default() -> Self {
        IntervalIndex::new()
    }
}

impl<T: Clone> IntervalIndex<T> {
    /// Empty index.
    pub fn new() -> IntervalIndex<T> {
        IntervalIndex {
            runs: Vec::new(),
            tail: Run::with_capacity(0),
            len: 0,
            dict: Dict::default(),
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
        let (lo_rank, hi_rank) = (lo.rank_or(0), hi.rank_or(u64::MAX));
        let key = Key {
            lo: lo_rank,
            hi: hi_rank,
            max_hi: hi_rank,
        };
        let (lo, hi) = (End::new(&lo, &mut self.dict), End::new(&hi, &mut self.dict));
        self.tail.push(key, Slot { lo, hi, item });
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
        let dict = &self.dict;
        tail.sort_by(|a, b| cmp_lo(a.1.lo, b.1.lo, dict)); // stable: ties stay in insertion order
        self.runs.push(Run::sorted(tail.len(), tail.into_iter()));
        while let [.., older, newer] = self.runs.as_slice() {
            if newer.live * FAN <= older.live {
                break;
            }
            let (newer, older) = (self.runs.pop(), self.runs.pop());
            let merged = Run::merge(older.expect("two runs"), newer.expect("two runs"), dict);
            self.runs.push(merged);
        }
    }

    /// Tombstone `slot`, handing its item out.
    fn kill(slot: &mut Slot<T>, run_live: &mut usize, dict: &mut Dict) -> T {
        slot.lo.release(dict);
        slot.hi.release(dict);
        slot.lo = End::Dead;
        *run_live -= 1;
        slot.item.clone()
    }

    /// Remove the first interval (in delivery order) whose item matches
    /// `pred`, looking at every interval. Returns the removed item.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut removed = None;
        for run in self.runs.iter_mut().chain([&mut self.tail]) {
            let found = run.slots.iter_mut().find(|s| s.live() && pred(&s.item));
            if let Some(slot) = found {
                removed = Some(Self::kill(slot, &mut run.live, &mut self.dict));
                self.len -= 1;
                break;
            }
        }
        self.settle();
        removed
    }

    /// Remove every interval whose low endpoint is `lo` and whose item
    /// matches `pred`, looking only at the intervals whose low endpoint
    /// has `lo`'s rank. Returns the removed items.
    pub fn remove_at(&mut self, lo: &Bound, pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let at = lo.rank_or(0);
        self.remove_ranked(at, |end, dict| end.is(lo, dict), pred)
    }

    /// Remove every interval whose low endpoint has rank `at` (0 for none)
    /// and whose item matches `pred`, looking only at those. Returns the
    /// removed items.
    pub(crate) fn remove_at_rank(&mut self, at: u64, pred: impl FnMut(&T) -> bool) -> Vec<T> {
        self.remove_ranked(at, |_, _| true, pred)
    }

    fn remove_ranked(
        &mut self,
        at: u64,
        mut lo_is: impl FnMut(End, &Dict) -> bool,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Vec<T> {
        let mut out = Vec::new();
        let tail_len = self.tail.keys.len();
        let runs = self.runs.iter_mut().map(|run| {
            let same_rank =
                run.keys.partition_point(|k| k.lo < at)..run.keys.partition_point(|k| k.lo <= at);
            (run, same_rank)
        });
        for (run, among) in runs.chain([(&mut self.tail, 0..tail_len)]) {
            for i in among {
                if run.keys[i].lo != at {
                    continue;
                }
                tick(Work::RemoveVisit);
                let slot = &mut run.slots[i];
                if slot.live() && lo_is(slot.lo, &self.dict) && pred(&slot.item) {
                    out.push(Self::kill(slot, &mut run.live, &mut self.dict));
                }
            }
        }
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
            live.for_each(|(key, slot)| self.tail.push(key, slot));
        }
    }

    /// Visit every item whose interval contains `v`.
    pub fn stab(&self, v: &Value, visit: &mut dyn FnMut(&T)) {
        let at = rank(v);
        for run in &self.runs {
            run.stab(0, run.keys.len(), v, at, &self.dict, visit);
        }
        self.tail.scan(v, at, &self.dict, visit);
    }

    /// Visit every stored item, in delivery order.
    pub fn for_each(&self, visit: &mut dyn FnMut(&T)) {
        let runs = self.runs.iter().chain([&self.tail]);
        let slots = runs.flat_map(|r| &r.slots).filter(|s| s.live());
        slots.for_each(|s| visit(&s.item))
    }

    /// Visit every stored interval with its item, in delivery order.
    pub(crate) fn for_each_interval(&self, visit: &mut dyn FnMut(Bound, Bound, &T)) {
        let runs = self.runs.iter().chain([&self.tail]);
        let slots = runs.flat_map(|r| &r.slots).filter(|s| s.live());
        slots.for_each(|s| visit(s.lo.bound(&self.dict), s.hi.bound(&self.dict), &s.item))
    }

    /// Heap bytes held: the capacity of every backing array, plus the
    /// strings of string-valued endpoints.
    pub fn memory_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run<T>>()
            + self.runs.iter().map(Run::heap_bytes).sum::<usize>()
            + self.tail.heap_bytes()
            + self.dict.memory_bytes()
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

    /// Does `b` admit `v`, as a lower bound or (`upper`) an upper one?
    fn admits(b: &Bound, v: &Value, upper: bool) -> bool {
        match b {
            Bound::Open => true,
            Bound::At { value, inclusive } => match v.total_cmp(value) {
                Ordering::Equal => *inclusive,
                Ordering::Greater => !upper,
                Ordering::Less => upper,
            },
        }
    }

    fn naive_stab(items: &[(Bound, Bound, u32)], v: &Value) -> Vec<u32> {
        let mut out: Vec<u32> = items
            .iter()
            .filter(|(lo, hi, _)| admits(lo, v, false) && admits(hi, v, true))
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
