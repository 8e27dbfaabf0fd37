//! Named, optionally labeled instruments.
//!
//! An instrument is a plain `Arc<Counter|Gauge|Histogram>`. The subsystem
//! that bumps it creates it — with [`Registry::counter`] & co. when it is
//! handed the registry, or on its own when it must count without one — and
//! registers it under its name. The [`Registry`] is consulted only at
//! *setup* time; recording goes straight to the instrument: no name
//! lookup, no lock, no allocation, no branch per event. Readers read the
//! registry: the exposition, or one series by name
//! ([`Registry::find_counter`] & co.).

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::instruments::{Counter, Gauge, Histogram, HistogramSummary};
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

    /// The counter series at `(name, labels)`, created if absent.
    ///
    /// The identity registered as another instrument type is a
    /// programming error: it panics rather than hand out a counter that
    /// reads zero in the exposition.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || Instrument::Counter(Arc::default())) {
            Instrument::Counter(c) => c,
            _ => clash(name, "counter"),
        }
    }

    /// The gauge series at `(name, labels)`, created if absent (see
    /// [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Instrument::Gauge(Arc::default())) {
            Instrument::Gauge(g) => g,
            _ => clash(name, "gauge"),
        }
    }

    /// The histogram series at `(name, labels)`, created if absent (see
    /// [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || Instrument::Histogram(Arc::default())) {
            Instrument::Histogram(h) => h,
            _ => clash(name, "histogram"),
        }
    }

    /// Register a counter its subsystem created before it was handed the
    /// registry (e.g. the trigger cache's hit counter), so exposition
    /// reads the live value. Replaces any previous instrument at the same
    /// identity.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], counter: Arc<Counter>) {
        self.insert(name, labels, Instrument::Counter(counter));
    }

    /// Register a histogram its subsystem created (see
    /// [`register_counter`](Self::register_counter)).
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

    /// Register a gauge its subsystem created (see
    /// [`register_counter`](Self::register_counter)).
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], gauge: Arc<Gauge>) {
        self.insert(name, labels, Instrument::Gauge(gauge));
    }

    /// The value of the counter series at `(name, labels)`, stored or
    /// computed; 0 when none is registered. Unlike
    /// [`counter`](Self::counter) it never creates one, so a reader of
    /// another subsystem's series does not declare it.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels) {
            None => 0,
            Some(Instrument::Counter(c)) => c.get(),
            Some(Instrument::CounterFn(f)) => f(),
            Some(_) => clash(name, "counter"),
        }
    }

    /// The level of the gauge series at `(name, labels)`, stored or
    /// computed; 0 when none is registered (see
    /// [`find_counter`](Self::find_counter)).
    pub fn find_gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.find(name, labels) {
            None => 0,
            Some(Instrument::Gauge(g)) => g.get(),
            Some(Instrument::GaugeFn(f)) => f(),
            Some(_) => clash(name, "gauge"),
        }
    }

    /// The digest of the histogram series at `(name, labels)`; empty when
    /// none is registered (see [`find_counter`](Self::find_counter)).
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSummary {
        match self.find(name, labels) {
            None => HistogramSummary::default(),
            Some(Instrument::Histogram(h)) => h.summary(),
            Some(_) => clash(name, "histogram"),
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

/// A series asked for as another instrument type than it is registered
/// as: two subsystems disagree about a name.
#[cold]
fn clash(name: &str, wanted: &str) -> ! {
    panic!("metric '{name}' is registered as another instrument type than {wanted}")
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
    fn a_type_clash_is_a_programming_error() {
        let r = Registry::new();
        let _c = r.counter("same_name", &[]);
        let clash = std::panic::catch_unwind(|| r.gauge("same_name", &[])).unwrap_err();
        let msg = clash.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("registered as another instrument type"),
            "{msg}"
        );
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
        assert_eq!(r.find_counter("c_total", &[]), 0);
        assert_eq!(r.find_gauge("g", &[]), 0);
        assert_eq!(r.find_histogram("h_ns", &[]).count, 0);
        assert_eq!(r.render_text(), "", "a find created a series");
        r.counter("c_total", &[]).add(4);
        r.gauge("g", &[]).add(-2);
        r.histogram("h_ns", &[]).record(3);
        r.register_gauge_fn("level", &[], || 5);
        assert_eq!(r.find_counter("c_total", &[]), 4);
        assert_eq!(r.find_gauge("g", &[]), -2);
        assert_eq!(r.find_gauge("level", &[]), 5);
        assert_eq!(r.find_histogram("h_ns", &[]).count, 1);
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
        let h = Histogram::new();
        {
            let _t = h.start();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 1_000_000, "slept 1ms, recorded {}ns", s.sum);
    }
}
