//! Named, optionally labeled instruments and the cheap handles that
//! subsystems record through.
//!
//! The [`Registry`] is consulted only at *setup* time: a subsystem resolves
//! each instrument once into a [`CounterHandle`] / [`GaugeHandle`] /
//! [`HistogramHandle`] and records through that handle forever after — no
//! name lookup, no lock, no allocation per event. Handles are `Option`s
//! around `Arc`s: a subsystem built without a registry holds `None`
//! handles (`noop()`), whose recording methods are a single predictable
//! branch.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::instruments::{Counter, Gauge, Histogram};
use crate::render::{MetricSample, SampleValue};

/// Owned label set: `(key, value)` pairs, sorted for stable identity.
pub(crate) type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// One registered instrument.
#[derive(Clone)]
pub(crate) enum Instrument {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Up/down gauge.
    Gauge(Arc<Gauge>),
    /// Log2 latency/size histogram.
    Histogram(Arc<Histogram>),
    /// Computed counter: exposition invokes the closure for a live value.
    /// For monotonic quantities a subsystem already tracks internally
    /// (e.g. the trace ring's exact overwrite count), where mirroring into
    /// a second instrument would be a shadow copy that can lag.
    CounterFn(Arc<dyn Fn() -> u64 + Send + Sync>),
    /// Computed gauge: a level a subsystem already keeps (the predicate
    /// index's entry count), read the same way.
    GaugeFn(Arc<dyn Fn() -> i64 + Send + Sync>),
}

/// Process-wide set of named instruments keyed by `(name, labels)`.
///
/// Two identities with the same name but different labels are distinct
/// series of one family (Prometheus-style). Lookups get-or-create, so any
/// subsystem can resolve `("tman_probes_total", org="mem_index")` without
/// coordinating about who creates it first.
pub struct Registry {
    map: RwLock<BTreeMap<(String, LabelSet), Instrument>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = (name.to_string(), label_set(labels));
        if let Some(existing) = self.map.read().unwrap().get(&key) {
            return existing.clone();
        }
        let mut map = self.map.write().unwrap();
        map.entry(key).or_insert_with(make).clone()
    }

    /// Resolve (creating if absent) a counter series.
    ///
    /// If the identity already exists as a different instrument type, the
    /// returned handle is a no-op — a registration bug should not panic a
    /// driver thread.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.get_or_insert(name, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => CounterHandle(Some(c)),
            _ => CounterHandle(None),
        }
    }

    /// Resolve (creating if absent) a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        match self.get_or_insert(name, labels, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => GaugeHandle(Some(g)),
            _ => GaugeHandle(None),
        }
    }

    /// Resolve (creating if absent) a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.get_or_insert(name, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => HistogramHandle(Some(h)),
            _ => HistogramHandle(None),
        }
    }

    /// Register a counter that already lives inside a subsystem's stats
    /// struct (e.g. the trigger cache's hit counter), so exposition reads
    /// the live value without a second instrument on the hot path.
    /// Replaces any previous instrument at the same identity.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], counter: Arc<Counter>) {
        self.insert(name, labels, Instrument::Counter(counter));
    }

    /// Register a histogram that already lives inside a subsystem's stats
    /// struct (e.g. the WAL's group-commit latency), so exposition reads
    /// the live buckets without a second instrument on the hot path.
    /// Replaces any previous instrument at the same identity.
    pub fn register_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        histogram: Arc<Histogram>,
    ) {
        self.insert(name, labels, Instrument::Histogram(histogram));
    }

    /// Register a computed counter: every exposition pass
    /// ([`render_text`](Self::render_text), [`render_json`](Self::render_json)) calls
    /// `f()` for the live value. Replaces any previous instrument at the
    /// same identity. The closure must be cheap and non-blocking — it runs
    /// with the registry's read lock held.
    pub fn register_counter_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.insert(name, labels, Instrument::CounterFn(Arc::new(f)));
    }

    /// Register a computed gauge (see [`Registry::register_counter_fn`]).
    pub fn register_gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.insert(name, labels, Instrument::GaugeFn(Arc::new(f)));
    }

    /// Register an existing shared gauge (see [`Registry::register_counter`]).
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], gauge: Arc<Gauge>) {
        self.insert(name, labels, Instrument::Gauge(gauge));
    }

    /// The counter series at `(name, labels)` if one is registered; unlike
    /// [`counter`](Self::counter) it never creates one, so a reader of
    /// another subsystem's series does not declare it. No-op when absent.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.find(name, labels) {
            Some(Instrument::Counter(c)) => CounterHandle(Some(c)),
            _ => CounterHandle(None),
        }
    }

    /// The histogram series at `(name, labels)` if one is registered (see
    /// [`find_counter`](Self::find_counter)).
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.find(name, labels) {
            Some(Instrument::Histogram(h)) => HistogramHandle(Some(h)),
            _ => HistogramHandle(None),
        }
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<Instrument> {
        let key = (name.to_string(), label_set(labels));
        self.map.read().unwrap().get(&key).cloned()
    }

    /// Put `instrument` at `(name, labels)`, replacing what was there.
    fn insert(&self, name: &str, labels: &[(&str, &str)], instrument: Instrument) {
        let key = (name.to_string(), label_set(labels));
        self.map.write().unwrap().insert(key, instrument);
    }

    /// Snapshot every series, sorted by `(name, labels)`.
    pub(crate) fn samples(&self) -> Vec<MetricSample> {
        self.samples_where(|_| true)
    }

    /// [`samples`](Self::samples) of the families whose name `keep`
    /// accepts.
    fn samples_where(&self, keep: impl Fn(&str) -> bool) -> Vec<MetricSample> {
        let map = self.map.read().unwrap();
        map.iter()
            .filter(|((name, _), _)| keep(name))
            .map(|((name, labels), inst)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match inst {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SampleValue::Histogram(h.summary()),
                    Instrument::CounterFn(f) => SampleValue::Counter(f()),
                    Instrument::GaugeFn(f) => SampleValue::Gauge(f()),
                },
            })
            .collect()
    }

    /// Prometheus-style text exposition of every series.
    pub fn render_text(&self) -> String {
        self.render_text_where(|_| true)
    }

    /// [`render_text`](Self::render_text) limited to the families whose
    /// name `keep` accepts.
    pub fn render_text_where(&self, keep: impl Fn(&str) -> bool) -> String {
        crate::render::render_text(&self.samples_where(keep))
    }

    /// JSON object (`{"name{labels}": value-or-summary, ...}`) of every
    /// series; hand-rolled, no serde dependency.
    pub fn render_json(&self) -> String {
        crate::render::render_json(&self.samples())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.map.read().unwrap().len();
        write!(f, "Registry(series={n})")
    }
}

/// Cheap recording handle for a counter series. `None` (no registry
/// attached) makes every method a single branch.
#[derive(Clone, Default)]
pub struct CounterHandle(pub(crate) Option<Arc<Counter>>);

impl CounterHandle {
    /// A handle that records nowhere.
    pub fn noop() -> CounterHandle {
        CounterHandle(None)
    }

    /// Add one.
    #[inline]
    pub fn bump(&self) {
        if let Some(c) = &self.0 {
            c.bump();
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }

    /// Whether this handle records for real.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Cheap recording handle for a gauge series.
#[derive(Clone, Default)]
pub struct GaugeHandle(pub(crate) Option<Arc<Gauge>>);

impl GaugeHandle {
    /// A handle that records nowhere.
    pub fn noop() -> GaugeHandle {
        GaugeHandle(None)
    }

    /// Add a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.add(delta);
        }
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

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }

    /// Whether this handle records for real.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Cheap recording handle for a histogram series.
#[derive(Clone, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<Histogram>>);

impl HistogramHandle {
    /// A handle that records nowhere.
    pub fn noop() -> HistogramHandle {
        HistogramHandle(None)
    }

    /// Record one sample (nanoseconds, bytes, fanout, ...).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Record `n` samples of `value` ([`Histogram::record_n`]).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if let Some(h) = &self.0 {
            h.record_n(value, n);
        }
    }

    /// Start a wall-clock timer whose elapsed nanoseconds are recorded when
    /// the guard drops. A no-op handle never reads the clock.
    #[inline]
    pub fn start(&self) -> Timer {
        Timer {
            hist: self.0.clone(),
            started: if self.0.is_some() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Digest of this series (empty for a no-op handle).
    pub fn summary(&self) -> crate::instruments::HistogramSummary {
        self.0
            .as_ref()
            .map_or_else(Default::default, |h| h.summary())
    }

    /// Whether this handle records for real.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Drop guard from [`HistogramHandle::start`]: records elapsed nanoseconds
/// into the histogram on drop.
pub struct Timer {
    hist: Option<Arc<Histogram>>,
    started: Option<Instant>,
}

impl Timer {
    /// Record now instead of at scope end.
    pub fn stop(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let (Some(h), Some(t0)) = (&self.hist, self.started) {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_series() {
        let r = Registry::new();
        let a = r.counter("tokens_total", &[]);
        let b = r.counter("tokens_total", &[]);
        a.bump();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labels_distinguish_series_regardless_of_order() {
        let r = Registry::new();
        let a = r.counter("probes", &[("org", "mem_list"), ("sig", "1")]);
        let b = r.counter("probes", &[("sig", "1"), ("org", "mem_list")]);
        let c = r.counter("probes", &[("org", "mem_index"), ("sig", "1")]);
        a.bump();
        assert_eq!(b.get(), 1, "label order must not split a series");
        assert_eq!(c.get(), 0);
        assert_eq!(r.samples().len(), 2);
    }

    #[test]
    fn noop_handles_record_nothing() {
        let c = CounterHandle::noop();
        let g = GaugeHandle::noop();
        let h = HistogramHandle::noop();
        c.bump();
        g.inc();
        h.record(5);
        {
            let _t = h.start();
        }
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn type_conflict_yields_noop_not_panic() {
        let r = Registry::new();
        let _c = r.counter("same_name", &[]);
        let g = r.gauge("same_name", &[]);
        g.inc();
        assert!(!g.is_enabled());
    }

    #[test]
    fn registered_shared_counter_is_read_live() {
        let r = Registry::new();
        let shared = Arc::new(Counter::new());
        r.register_counter("cache_hits_total", &[], shared.clone());
        shared.add(9);
        let samples = r.samples();
        assert_eq!(samples.len(), 1);
        assert!(matches!(samples[0].value, SampleValue::Counter(9)));
    }

    #[test]
    fn computed_counters_are_read_live() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = Registry::new();
        let v = Arc::new(AtomicU64::new(0));
        let src = v.clone();
        r.register_counter_fn("computed_total", &[], move || src.load(Ordering::Relaxed));
        v.store(7, Ordering::Relaxed);
        let samples = r.samples();
        assert_eq!(samples.len(), 1);
        assert!(matches!(samples[0].value, SampleValue::Counter(7)));
        v.store(9, Ordering::Relaxed);
        assert!(r.render_text().contains("computed_total"));
        let samples = r.samples();
        assert!(matches!(samples[0].value, SampleValue::Counter(9)));
    }

    #[test]
    fn find_reads_without_creating() {
        let r = Registry::new();
        assert!(!r.find_counter("c_total", &[]).is_enabled());
        assert!(!r.find_histogram("h_ns", &[]).is_enabled());
        assert_eq!(r.render_text(), "", "a find created a series");
        r.counter("c_total", &[]).add(4);
        r.histogram("h_ns", &[]).record(3);
        assert_eq!(r.find_counter("c_total", &[]).get(), 4);
        assert_eq!(r.find_histogram("h_ns", &[]).summary().count, 1);
        assert!(!r.find_counter("h_ns", &[]).is_enabled());
    }

    #[test]
    fn computed_gauges_are_read_live_and_filtered_by_family() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let r = Registry::new();
        let v = Arc::new(AtomicI64::new(3));
        let src = v.clone();
        r.register_gauge_fn("level", &[], move || src.load(Ordering::Relaxed));
        r.counter("other_total", &[]).bump();
        v.store(-2, Ordering::Relaxed);
        assert_eq!(
            r.render_text_where(|name| name == "level"),
            "# TYPE level gauge\nlevel -2\n"
        );
        assert!(r.render_text().contains("other_total 1\n"));
    }

    #[test]
    fn timer_records_elapsed() {
        let r = Registry::new();
        let h = r.histogram("lat_ns", &[]);
        {
            let _t = h.start();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 1_000_000, "slept 1ms, recorded {}ns", s.sum);
    }
}
