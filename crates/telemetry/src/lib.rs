//! `tman-telemetry` — the engine-wide observability kit.
//!
//! The paper's scalability claims are arguments about *measured work*:
//! probe counts, cache hits, page I/O, and bounded `TmanTest()` drain time
//! (§5–§7). This crate supplies the instruments every subsystem reports
//! through:
//!
//! * [`Counter`] — monotonically increasing, thread-striped so hot-path
//!   increments never share a cache line across driver threads;
//! * [`Gauge`] — a signed up/down quantity (queue depth), striped the same
//!   way;
//! * [`Histogram`] — log2-bucketed latency/size distribution (record in
//!   nanoseconds; report count, sum, p50/p95/p99, max);
//! * [`Registry`] — a process-wide set of *named, optionally labeled*
//!   instruments (labels: constant-set organization, task type, action
//!   kind, ...) with two read surfaces: typed [`Registry::samples`] and a
//!   Prometheus-style text exposition [`Registry::render_text`].
//!
//! ## Overhead design
//!
//! Everything on a record path is a relaxed atomic add on a per-thread
//! stripe — the same discipline as the original `tman_common::stats`
//! counters (which now live here). Subsystems hold pre-resolved
//! [`CounterHandle`]/[`GaugeHandle`]/[`HistogramHandle`]s, so no name
//! lookup or lock is ever taken per event. A subsystem built without a
//! registry holds empty handles whose record calls are a single
//! predictable branch — timers don't even read the clock.
//!
//! This crate is dependency-free (std only) so every other crate in the
//! workspace can use it.

pub mod http;
pub mod instruments;
pub mod registry;
pub mod render;
pub mod trace;

pub use http::{HttpHandler, HttpResponse, HttpServer};
pub use instruments::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, Instrument, Registry, Timer};
pub use render::{json_escape, MetricSample, SampleValue};
pub use trace::{
    unix_now_ns, SpanGuard, SpanKind, TraceEvent, TraceHandle, TraceRing, TraceSnapshot, TraceTree,
    Tracer, TracerStats,
};
