//! Lock-free instruments: striped [`Counter`], [`Gauge`], and a
//! log2-bucketed [`Histogram`].
//!
//! All three share one layout discipline: per-thread *stripes*, each padded
//! to its own cache line, written with `Ordering::Relaxed`. Increments from
//! different driver threads land on different lines, so the hot path is a
//! single uncontended atomic add. Reads sum the stripes — they see every
//! write that happened-before the read via the usual synchronization points
//! (thread join, channel receive), which is exactly what the tests and the
//! `show stats` surface need. Totals are *exact* once writers have joined;
//! mid-flight reads are monotone approximations.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of stripes. Enough to spread a few dozen driver threads; small
/// enough that summing on read is trivial.
const STRIPES: usize = 16;

/// One cache line per stripe so concurrent bumps never false-share.
#[repr(align(64))]
#[derive(Default)]
struct StripeU64(AtomicU64);

#[repr(align(64))]
#[derive(Default)]
struct StripeI64(AtomicI64);

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

#[inline]
fn stripe_id() -> usize {
    STRIPE.with(|s| *s)
}

/// Monotonically increasing event count, striped across cache lines.
#[derive(Default)]
pub struct Counter {
    stripes: [StripeU64; STRIPES],
}

impl Counter {
    /// Fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum across stripes. Exact once writers have joined.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset to zero, returning the previous value (tests / bench warm-up).
    pub fn reset(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.swap(0, Ordering::Relaxed))
            .sum()
    }
}

impl Clone for Counter {
    /// Cloning snapshots the current value into stripe 0 of the copy.
    fn clone(&self) -> Counter {
        let c = Counter::new();
        c.stripes[0].0.store(self.get(), Ordering::Relaxed);
        c
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A signed up/down quantity (e.g. queue depth), striped like [`Counter`].
///
/// Each thread's increments and decrements land on its own stripe; the
/// value is the sum of all stripes, so an `inc` on one thread paired with a
/// `dec` on another still nets to zero.
#[derive(Default)]
pub struct Gauge {
    stripes: [StripeI64; STRIPES],
}

impl Gauge {
    /// Fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.stripes[stripe_id()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Sum across stripes.
    pub fn get(&self) -> i64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset to zero.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Number of log2 buckets: bucket `i` holds values whose bit length is `i`,
/// i.e. the range `[2^(i-1), 2^i - 1]` (bucket 0 holds the value 0). 64
/// buckets cover the full `u64` range — at nanosecond resolution that is
/// ~584 years, so nothing ever clips.
const BUCKETS: usize = 64;

/// Per-stripe bucket array, padded so stripes never share a line. An
/// `[AtomicU64; 64]` is 8 cache lines; alignment keeps the *boundaries*
/// between stripes off shared lines.
#[repr(align(64))]
struct BucketStripe([AtomicU64; BUCKETS]);

impl Default for BucketStripe {
    fn default() -> BucketStripe {
        BucketStripe(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// Log2-bucketed distribution of `u64` samples (typically nanoseconds).
///
/// `record` is two relaxed adds on the caller's stripe plus a relaxed
/// `fetch_max` for the running maximum. `summary` folds the stripes and
/// reports count/sum/max and p50/p95/p99, where a quantile is the upper
/// bound of the cumulative bucket containing it — i.e. quantiles are exact
/// to within a factor of 2, which is the right fidelity for "did drain time
/// stay bounded" questions; count and sum are exact.
#[derive(Default)]
pub struct Histogram {
    buckets: [BucketStripe; STRIPES],
    sum: Counter,
    max: AtomicU64,
}

/// Point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Samples recorded. Exact.
    pub count: u64,
    /// Sum of all samples. Exact.
    pub sum: u64,
    /// Largest sample seen. Exact.
    pub max: u64,
    /// Median (upper bound of its log2 bucket).
    pub p50: u64,
    /// 95th percentile (upper bound of its log2 bucket).
    pub p95: u64,
    /// 99th percentile (upper bound of its log2 bucket).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[inline]
fn bucket_of(value: u64) -> usize {
    // Bit length: 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...
    // Bit length 64 (values >= 2^63) clamps into the top bucket.
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, used as the quantile estimate.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` samples of `value` at the cost of one: what `n` calls of
    /// [`record`](Self::record) would leave, in count, sum, max and
    /// quantiles. A caller that timed a run of `n` like operations with one
    /// clock pair records their mean this way.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[stripe_id()].0[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        self.sum.add(value.wrapping_mul(n));
        // `max` is the one word every thread shares: write it only for a
        // new maximum, so the common case is a load of a line that stays
        // shared instead of a read-modify-write that takes it exclusive.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Start a wall-clock timer whose elapsed nanoseconds are recorded
    /// here when the guard drops.
    #[inline]
    pub fn start(&self) -> Timer<'_> {
        Timer {
            hist: self,
            started: Instant::now(),
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        let mut total = 0u64;
        for stripe in &self.buckets {
            for b in &stripe.0 {
                total += b.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Fold stripes into a digest.
    pub fn summary(&self) -> HistogramSummary {
        let mut merged = [0u64; BUCKETS];
        for stripe in &self.buckets {
            for (i, b) in stripe.0.iter().enumerate() {
                merged[i] += b.load(Ordering::Relaxed);
            }
        }
        let count: u64 = merged.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-th sample, 1-based, clamped into range.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in merged.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(BUCKETS - 1)
        };
        HistogramSummary {
            count,
            sum: self.sum.get(),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }

    /// Reset all state to empty.
    pub fn reset(&self) {
        for stripe in &self.buckets {
            for b in &stripe.0 {
                b.store(0, Ordering::Relaxed);
            }
        }
        self.sum.reset();
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Drop guard from [`Histogram::start`]: records elapsed nanoseconds into
/// the histogram on drop.
pub struct Timer<'a> {
    hist: &'a Histogram,
    started: Instant,
}

impl Timer<'_> {
    /// Record now instead of at scope end.
    pub fn stop(self) {}
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.hist.record(self.started.elapsed().as_nanos() as u64);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        write!(
            f,
            "Histogram(count={} sum={} p50={} p95={} p99={} max={})",
            s.count, s.sum, s.p50, s.p95, s.p99, s.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_bump_add_get_reset() {
        let c = Counter::new();
        c.bump();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.reset(), 42);
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
    fn counter_clone_snapshots_value() {
        let c = Counter::new();
        c.add(7);
        let d = c.clone();
        c.add(1);
        assert_eq!(d.get(), 7);
        assert_eq!(c.get(), 8);
    }

    #[test]
    fn gauge_nets_across_threads() {
        let g = Arc::new(Gauge::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    if t % 2 == 0 {
                        g.inc();
                    } else {
                        g.dec();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_of(1u64 << 62), 63);
    }

    #[test]
    fn histogram_quantiles_within_factor_of_two() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // p50 sample is 500 -> bucket 9 (256..511), upper bound 511.
        assert_eq!(s.p50, 511);
        // p95 sample is 950 -> bucket 10 (512..1023), upper bound 1023.
        assert_eq!(s.p95, 1023);
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn histogram_empty_summary_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h.summary().mean(), 0);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (one, many) = (Histogram::new(), Histogram::new());
        // Values across buckets, so the quantiles land on different ones.
        for (value, n) in [(0u64, 3u64), (7, 1), (900, 40), (65_000, 5), (3, 0)] {
            for _ in 0..n {
                one.record(value);
            }
            many.record_n(value, n);
        }
        assert_eq!(many.summary(), one.summary());
        assert_eq!(many.count(), 49);
        assert_eq!(many.summary().max, 65_000);
    }

    /// Satellite requirement: N writer threads, totals exact after join.
    #[test]
    fn histogram_striped_totals_exact_after_join() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread samples over many buckets.
                    h.record(t * PER_THREAD + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = h.summary();
        let n = THREADS * PER_THREAD;
        assert_eq!(s.count, n);
        assert_eq!(s.sum, n * (n - 1) / 2);
        assert_eq!(s.max, n - 1);
        assert!(
            s.p50 >= s.count / 4,
            "median should be in the upper buckets"
        );
    }
}
