//! Timing statistics: a fixed-size latency histogram, a window cut into
//! slices, and the percentile a sample count supports.
//!
//! A window's events are cut into slices of a quarter of a second. A rate or
//! a median latency is reported from the window's better slices (see
//! [`upper_band`]): on a shared host the worse ones say what the
//! neighbours were doing. A tail latency is taken second by second and
//! reported as the median over seconds.

use std::time::{Duration, Instant};

/// Sub-buckets per power of two: values are kept to within 1/64.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = SUB * (MAX_EXP - SUB_BITS + 1) as usize;

/// Log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    SUB * (exp - SUB_BITS + 1) as usize + sub
}

/// Midpoint of a bucket's value range.
fn value_of(bucket: usize) -> f64 {
    if bucket < SUB {
        return bucket as f64;
    }
    let exp = (bucket / SUB) as u32 + SUB_BITS - 1;
    let sub = (bucket % SUB) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let low = (1u64 << exp) + sub * width;
    low as f64 + (width as f64 - 1.0) / 2.0
}

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The value at quantile `q` in `[0, 1]`, in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return value_of(b);
            }
        }
        value_of(BUCKETS - 1)
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
    }
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n`; `None` under twenty samples.
pub fn supported_tail(n: u64) -> Option<f64> {
    // (quantile, one sample in this many lies beyond it)
    [(0.999, 1_000), (0.99, 100), (0.9, 10), (0.5, 2)]
        .into_iter()
        .find(|&(_, one_in)| n / one_in >= 10)
        .map(|(q, _)| q)
}

/// The tail quantile a set of slices reports as "p99": 0.99 when every
/// slice supports it, else the highest quantile the smallest slice does.
pub fn reported_tail(slice_counts: impl Iterator<Item = u64>) -> f64 {
    let least = slice_counts.min().unwrap_or(0);
    supported_tail(least).unwrap_or(0.5).min(0.99)
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The ranks of the slices a window reports, as shares of the sorted
/// slices: the band from the 80th to the 95th percentile of the better end.
const BAND: (f64, f64) = (0.80, 0.95);

fn band_mean(sorted: &[f64], from: f64, to: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let lo = ((from * n as f64) as usize).min(n - 1);
    let hi = ((to * n as f64) as usize).clamp(lo + 1, n);
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// What a window's slices say of a quantity where more is better: the mean
/// of the slices between the 80th and the 95th percentile.
///
/// The host is shared, and what its other tenants do to memory and disk
/// only ever takes speed away, for seconds at a time: a mean or a median
/// over the slices moves by a fifth from run to run with it. The better
/// slices are the ones the host left alone, so they say what the program
/// does and repeat; the best twentieth is set aside as luck (a slice that
/// caught a burst), and fifteen hundredths of the window are averaged so
/// that no single slice is the result.
pub fn upper_band(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    band_mean(&v, BAND.0, BAND.1)
}

/// [`upper_band`] for a quantity where less is better (a latency): the
/// mean of the slices between the 5th and the 20th percentile.
pub fn lower_band(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    band_mean(&v, BAND.0, BAND.1)
}

/// Length of a slice, and slices to the second.
pub const SLICE: Duration = Duration::from_millis(250);
const PER_SECOND: usize = 4;

/// A measured window cut into slices of [`SLICE`], each with an event
/// count and a latency histogram. Events outside `[start, start + len)` —
/// the warm-up before, the drain after — are dropped.
pub struct Slices {
    start: Instant,
    counts: Vec<f64>,
    /// Allocated by the first latency recorded into the slice.
    hists: Vec<Option<LatencyHist>>,
    /// When [`Slices::count`] was last called.
    counted_at: Option<Instant>,
}

impl Slices {
    pub fn new(start: Instant, seconds: u64) -> Slices {
        let n = seconds as usize * PER_SECOND;
        Slices {
            start,
            counts: vec![0.0; n],
            hists: (0..n).map(|_| None).collect(),
            counted_at: None,
        }
    }

    /// Seconds from the window's start to `at`, negative before it.
    fn offset(&self, at: Instant) -> f64 {
        match at.checked_duration_since(self.start) {
            Some(d) => d.as_secs_f64(),
            None => -(self.start - at).as_secs_f64(),
        }
    }

    fn index(&self, at: Instant) -> Option<usize> {
        let i = (self.offset(at) / SLICE.as_secs_f64()).floor();
        (i >= 0.0 && (i as usize) < self.counts.len()).then_some(i as usize)
    }

    /// Count a batch of `n` events that completed at `at`, spread evenly
    /// over the time since the batch before it: the events came about
    /// during that time, and booked whole into the slice the batch ended in
    /// they would make slice counts step by a batch.
    pub fn count(&mut self, at: Instant, n: u64) {
        let (from, to) = (self.counted_at.replace(at).unwrap_or(at), at);
        let (t0, t1) = (self.offset(from), self.offset(to));
        if t1 <= t0 {
            if let Some(i) = self.index(at) {
                self.counts[i] += n as f64;
            }
            return;
        }
        let slice = SLICE.as_secs_f64();
        let first = (t0 / slice).floor().max(0.0) as usize;
        for i in first..self.counts.len() {
            let (begins, ends) = (i as f64 * slice, (i + 1) as f64 * slice);
            if begins >= t1 {
                break;
            }
            let overlap = (t1.min(ends) - t0.max(begins)).max(0.0);
            self.counts[i] += n as f64 * overlap / (t1 - t0);
        }
    }

    /// Count one event at `at` that took `latency`.
    pub fn record(&mut self, at: Instant, latency: Duration) {
        if let Some(i) = self.index(at) {
            self.counts[i] += 1.0;
            self.hists[i]
                .get_or_insert_with(LatencyHist::default)
                .record(latency.as_nanos() as u64);
        }
    }

    /// Every slice's event count.
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.round() as u64).collect()
    }

    /// Events per second in the window's better slices ([`upper_band`]).
    pub fn rate(&self) -> f64 {
        upper_band(&self.counts) / SLICE.as_secs_f64()
    }

    /// Events per second over the whole window.
    pub fn mean_rate(&self) -> f64 {
        self.counts.iter().sum::<f64>() / (self.counts.len().max(1) as f64 * SLICE.as_secs_f64())
    }

    /// Every slice's quantile `q`, in microseconds; slices without samples
    /// are left out.
    pub fn per_slice_us(&self, q: f64) -> Vec<f64> {
        self.hists
            .iter()
            .flatten()
            .map(|h| h.quantile(q) / 1e3)
            .collect()
    }

    /// Quantile `q` in the window's better slices ([`lower_band`] of the
    /// per-slice quantile), in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        lower_band(&self.per_slice_us(q))
    }

    /// The window's samples second by second.
    fn seconds(&self) -> Vec<LatencyHist> {
        self.hists
            .chunks(PER_SECOND)
            .map(|second| {
                let mut all = LatencyHist::default();
                second.iter().flatten().for_each(|h| all.merge(h));
                all
            })
            .collect()
    }

    /// The tail quantile the window's seconds can report (see
    /// [`reported_tail`]).
    pub fn tail(&self) -> f64 {
        reported_tail(self.seconds().iter().map(|s| s.count()))
    }

    /// Every second's quantile `q`, in microseconds. A tail is taken by
    /// the second and not by the slice, which holds too few samples for one.
    pub fn per_second_us(&self, q: f64) -> Vec<f64> {
        self.seconds()
            .iter()
            .filter(|s| s.count() > 0)
            .map(|s| s.quantile(q) / 1e3)
            .collect()
    }

    /// The median over seconds of each second's quantile `q`, in
    /// microseconds: a stall moves the seconds it hit and not this.
    pub fn tail_us(&self, q: f64) -> f64 {
        median(&self.per_second_us(q))
    }

    /// Quantile `q` of every sample in the window, in microseconds.
    pub fn overall_quantile_us(&self, q: f64) -> f64 {
        let mut all = LatencyHist::default();
        self.hists.iter().flatten().for_each(|h| all.merge(h));
        all.quantile(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_keeps_values_within_one_sixty_fourth() {
        for v in [0u64, 1, 63, 64, 65, 1_000, 123_456, 9_999_999, 1 << 39] {
            let got = value_of(bucket_of(v));
            let err = (got - v as f64).abs();
            assert!(err <= v as f64 / 64.0 + 0.5, "{v} read back as {got}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_known_sample() {
        let mut h = LatencyHist::default();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let near = |got: f64, want: f64| (got - want).abs() <= want / 50.0;
        assert!(near(h.quantile(0.5), 500_000.0), "{}", h.quantile(0.5));
        assert!(near(h.quantile(0.99), 990_000.0), "{}", h.quantile(0.99));
        assert!(near(h.quantile(1.0), 1_000_000.0));
        assert_eq!(LatencyHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        // A window reports what its thinnest slice supports, never above p99.
        assert_eq!(reported_tail([5_000, 150, 2_000].into_iter()), 0.9);
        assert_eq!(reported_tail([50_000, 20_000].into_iter()), 0.99);
    }

    #[test]
    fn median_and_the_bands() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // A hundred slices 1..=100: the upper band is ranks 81..=95, the
        // lower band ranks 6..=20, whatever the order they came in.
        let slices: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(upper_band(&slices), 88.0);
        assert_eq!(lower_band(&slices), 13.0);
        // Disturbed slices do not reach the band: a third of the window at
        // half speed, and one slice that caught a burst.
        let mut disturbed = vec![100.0; 60];
        disturbed.extend([50.0; 30]);
        disturbed.push(400.0);
        assert_eq!(upper_band(&disturbed), 100.0);
        // Too few slices for a band: the slice at its lower end.
        assert_eq!(upper_band(&[1.0, 2.0, 6.0]), 6.0);
        assert_eq!(lower_band(&[1.0, 2.0, 6.0]), 1.0);
        assert_eq!(upper_band(&[]), 0.0);
    }

    #[test]
    fn slices_drop_events_outside_the_window() {
        let t0 = Instant::now();
        let mut s = Slices::new(t0 + Duration::from_secs(1), 3);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        s.record(at(500), Duration::from_micros(999)); // warm-up: dropped
        for (second, lat_us) in [(0u64, 10u64), (1, 20), (2, 1_000)] {
            for slice in 0..PER_SECOND as u64 {
                for _ in 0..100 {
                    let t = at(1_000 + second * 1_000 + slice * SLICE.as_millis() as u64 + 5);
                    s.record(t, Duration::from_micros(lat_us));
                }
            }
        }
        s.record(at(4_500), Duration::from_micros(999)); // drain: dropped
        assert_eq!(s.counts(), [100; 3 * PER_SECOND]);
        let per_second = 100.0 * PER_SECOND as f64;
        assert_eq!((s.rate(), s.mean_rate()), (per_second, per_second));
        // The better slices are those of the first second.
        assert!((s.quantile_us(0.5) - 10.0).abs() < 0.5);
        assert!((s.per_second_us(0.5)[2] - 1_000.0).abs() < 20.0);
        assert!((s.tail_us(0.5) - 20.0).abs() < 0.5);
        assert!((s.overall_quantile_us(0.5) - 20.0).abs() < 0.5);
        // Four hundred samples a second support p90.
        assert_eq!(s.tail(), 0.9);
    }

    #[test]
    fn a_batch_is_spread_over_the_time_since_the_one_before() {
        let t0 = Instant::now();
        let mut s = Slices::new(t0, 2);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Batches of 300 ending every 150 ms: two events to the millisecond.
        for k in 0..=14 {
            s.count(at(k * 150), 300);
        }
        // The first batch has no predecessor and is booked where it ended;
        // the last one ends at 2.1 s and a third of it lies in the window.
        let per_slice = 2 * SLICE.as_millis() as u64;
        let mut want = [per_slice; 2 * PER_SECOND];
        want[0] += 300;
        assert_eq!(s.counts(), want);
        // Booked whole, slices would have read 600, 300, 600, 300, ...
        assert!((s.rate() - 2_000.0).abs() < 1e-6);
    }
}
