//! Model-based test of the flat interval index.
//!
//! Each case drives one [`IntervalIndex`] through a seeded sequence of
//! inserts, removals (by low endpoint and by full search) and stabs, and
//! holds it against a `Vec` of the intervals it should contain, filtered
//! naively. Bounds are ints and floats mixed (stabbed by both), or
//! strings; a tenth of them are open, and a few intervals span the whole
//! domain around the narrow rest. Every case also empties the unsorted
//! tail by removal, then a whole sorted run, and ends by removing
//! everything in random order: the index must shed its runs as they empty
//! and hold nothing at the end.
//!
//! Every schedule is a function of the case number. The default run covers
//! a few dozen cases; the `#[ignore]`d sweep covers many more.

use tman_common::Value;
use tman_predindex::interval::{Bound, IntervalIndex};

/// SplitMix64, not `rand`: a case must replay the same schedule on every
/// build of `rand` this workspace is tested against.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const DOMAIN: u64 = 400;

/// Point `k` of the case's domain: a string, or a number that is an int
/// or a float (of the same or of a fractional value) by the draw.
fn point(rng: &mut Rng, strings: bool, k: u64) -> Value {
    if strings {
        // Shared prefixes longer than the seven bytes a rank sees.
        return Value::str(format!("prefix-{:03}-{}", k / 4, k % 4));
    }
    match rng.below(3) {
        0 => Value::Int(k as i64),
        1 => Value::Float(k as f64),
        _ => Value::Float(k as f64 + 0.5),
    }
}

fn interval(rng: &mut Rng, strings: bool) -> (Bound, Bound) {
    let wide = rng.below(16) == 0;
    let a = if wide { 0 } else { rng.below(DOMAIN) };
    let b = if wide { DOMAIN } else { a + rng.below(12) };
    let mut end = |k: u64| {
        if rng.below(10) == 0 {
            return Bound::Open;
        }
        Bound::At {
            value: point(rng, strings, k),
            inclusive: rng.below(2) == 0,
        }
    };
    (end(a), end(b))
}

fn contains(lo: &Bound, hi: &Bound, v: &Value) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let above = match lo {
        Bound::Open => true,
        Bound::At { value, inclusive } => match v.total_cmp(value) {
            Greater => true,
            Equal => *inclusive,
            Less => false,
        },
    };
    let below = match hi {
        Bound::Open => true,
        Bound::At { value, inclusive } => match v.total_cmp(value) {
            Less => true,
            Equal => *inclusive,
            Greater => false,
        },
    };
    above && below
}

struct Harness {
    ix: IntervalIndex<u32>,
    model: Vec<(Bound, Bound, u32)>,
    next_id: u32,
    strings: bool,
}

impl Harness {
    fn insert(&mut self, rng: &mut Rng) {
        let (lo, hi) = interval(rng, self.strings);
        self.ix.insert(lo.clone(), hi.clone(), self.next_id);
        self.model.push((lo, hi, self.next_id));
        self.next_id += 1;
    }

    /// Remove model position `at` — by full search, by its low endpoint,
    /// or together with every interval of its low endpoint whose id has
    /// its parity.
    fn remove(&mut self, rng: &mut Rng, at: usize) {
        let (lo, _, id) = self.model.remove(at);
        let mut want = vec![id];
        let mut removed = match rng.below(4) {
            0 => Vec::from_iter(self.ix.remove_where(|&x| x == id)),
            1 => {
                let goes = |x: u32| x % 2 == id % 2;
                let with_it = |(l, _, x): &(Bound, Bound, u32)| *l == lo && goes(*x);
                want.extend(self.model.iter().filter(|m| with_it(m)).map(|m| m.2));
                self.model.retain(|m| !with_it(m));
                self.ix.remove_at(&lo, |&x| goes(x))
            }
            _ => self.ix.remove_at(&lo, |&x| x == id),
        };
        removed.sort_unstable();
        want.sort_unstable();
        assert_eq!(removed, want);
        // It is gone, wherever one looks for it.
        assert_eq!(self.ix.remove_at(&lo, |&x| x == id), []);
    }

    fn check(&self, rng: &mut Rng, stabs: u64, ctx: &str) {
        assert_eq!(self.ix.len(), self.model.len(), "{ctx}: len");
        for _ in 0..stabs {
            let k = rng.below(DOMAIN + 20);
            let v = point(rng, self.strings, k);
            let mut got = Vec::new();
            self.ix.stab(&v, &mut |&id| got.push(id));
            got.sort_unstable();
            let want: Vec<u32> = self
                .model
                .iter()
                .filter(|(lo, hi, _)| contains(lo, hi, &v))
                .map(|(_, _, id)| *id)
                .collect();
            assert_eq!(got, want, "{ctx}: stab {v:?}");
        }
        let mut all = Vec::new();
        self.ix.for_each(&mut |&id| all.push(id));
        all.sort_unstable();
        let want: Vec<u32> = self.model.iter().map(|(_, _, id)| *id).collect();
        assert_eq!(all, want, "{ctx}: for_each");
    }
}

fn run_case(case: u64, steps: u64) {
    let mut rng = Rng(0x1A7E_57AB ^ case.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut h = Harness {
        ix: IntervalIndex::new(),
        model: Vec::new(),
        next_id: 0,
        strings: case % 3 == 2,
    };

    // A tail that removals empty before it ever becomes a run.
    for _ in 0..5 {
        h.insert(&mut rng);
    }
    h.check(&mut rng, 20, "tail only");
    assert_eq!(h.ix.num_runs(), 0);
    while !h.model.is_empty() {
        let at = rng.below(h.model.len() as u64) as usize;
        h.remove(&mut rng, at);
    }
    h.check(&mut rng, 5, "tail emptied");

    // One run, emptied: the index drops it.
    while h.ix.num_runs() == 0 {
        h.insert(&mut rng);
    }
    while !h.model.is_empty() {
        let at = rng.below(h.model.len() as u64) as usize;
        h.remove(&mut rng, at);
        h.check(&mut rng, 2, "run draining");
    }
    assert_eq!(h.ix.num_runs(), 0, "an emptied run is dropped");

    // The random walk: growth, then churn, then mostly removal.
    for step in 0..steps {
        let removing = match step * 3 / steps {
            0 => 10,
            1 => 50,
            _ => 70,
        };
        if !h.model.is_empty() && rng.below(100) < removing {
            let at = rng.below(h.model.len() as u64) as usize;
            h.remove(&mut rng, at);
        } else {
            h.insert(&mut rng);
        }
        if step % 16 == 0 {
            h.check(&mut rng, 8, &format!("case {case} step {step}"));
        }
    }
    h.check(&mut rng, 50, "after the walk");

    // An interval no removal names is not found, by either route.
    let absent = h.next_id + 7;
    assert_eq!(h.ix.remove_where(|&x| x == absent), None);
    assert_eq!(h.ix.remove_at(&Bound::Open, |&x| x == absent), []);

    // The drain hands back what is left; the index is empty after.
    let kept = h.model.len() / 2;
    while h.model.len() > kept {
        let at = rng.below(h.model.len() as u64) as usize;
        h.remove(&mut rng, at);
    }
    h.check(&mut rng, 20, "half removed");
    let mut drained = h.ix.drain();
    drained.sort_unstable();
    let want: Vec<u32> = h.model.iter().map(|(_, _, id)| *id).collect();
    assert_eq!(drained, want);
    assert!(h.ix.is_empty());
    assert_eq!(h.ix.num_runs(), 0);
    h.model.clear();
    h.check(&mut rng, 5, "drained");
}

#[test]
fn interval_index_agrees_with_the_naive_filter() {
    for case in 0..48 {
        run_case(case, 600);
    }
}

/// Long-run variant for the scheduled CI job.
#[test]
#[ignore = "long-running model sweep; run with --ignored"]
fn interval_index_model_long() {
    for case in 0..600 {
        run_case(1_000 + case, 4_000);
    }
}
