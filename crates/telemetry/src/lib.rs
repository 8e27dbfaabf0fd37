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
//!   kind, ...) read as a Prometheus-style text exposition
//!   ([`Registry::render_text`]) or as JSON ([`Registry::render_json`]).
//!
//! ## Overhead design
//!
//! Everything on a record path is a relaxed atomic add on a per-thread
//! stripe. A subsystem holds its instruments as plain `Arc`s that it
//! creates and registers under their names at setup, so no name lookup,
//! lock or branch is ever taken per event, and a subsystem built without
//! a registry counts all the same.
//!
//! This crate is dependency-free (std only) so every other crate in the
//! workspace can use it.

mod http;
mod instruments;
mod registry;
mod render;
pub mod trace;

pub use http::{HttpHandler, HttpResponse, HttpServer};
pub use instruments::{Counter, Gauge, Histogram, HistogramSummary, Timer};
pub use registry::Registry;
pub use render::json_escape;
pub use trace::{
    unix_now_ns, SpanGuard, SpanKind, TraceEvent, TraceHandle, TraceRing, TraceSnapshot, TraceTree,
    Tracer, TracerStats,
};
