//! Harness spans: the traced pass wraps its own calls into the program
//! (`push_tokens`, `tman_test`, notification receives, wire flushes) in
//! `{name, start, end, parent}` records. They stay in memory and are
//! written out once, as Chrome trace-event JSON, when the pass is over.
//! Nothing here turns on the program's own tracing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span id 0: no parent.
pub const NO_PARENT: u32 = 0;
/// Spans kept for the trace file; later ones still count in the totals
/// callers keep themselves.
const KEEP: usize = 400_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the span handled (tokens pushed, fires received, ...).
    pub items: u64,
}

pub struct Spans {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    /// The batch root most recently pushed: the parent of driver spans.
    latest_root: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            latest_root: AtomicU32::new(NO_PARENT),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn new_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_latest_root(&self, id: u32) {
        self.latest_root.store(id, Ordering::Relaxed);
    }

    pub fn latest_root(&self) -> u32 {
        self.latest_root.load(Ordering::Relaxed)
    }

    /// A per-thread log; its spans reach the shared list when it drops.
    pub fn thread(&self, tid: u32) -> ThreadSpans<'_> {
        ThreadSpans {
            shared: self,
            tid,
            buf: Vec::new(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.done.lock().expect("span list poisoned"))
    }
}

pub struct ThreadSpans<'a> {
    shared: &'a Spans,
    tid: u32,
    buf: Vec<Span>,
}

impl ThreadSpans<'_> {
    /// Record a finished span under a fresh id; a no-op while spans are off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        if self.shared.is_on() {
            let id = self.shared.new_id();
            self.record_as(id, name, parent, start, end, items);
        }
    }

    /// Record a finished span under an id taken earlier with
    /// [`Spans::new_id`] (a root whose children were recorded first).
    pub fn record_as(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        if !self.shared.is_on() || self.buf.len() >= KEEP {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.shared.epoch).as_nanos() as u64;
        self.buf.push(Span {
            name,
            id,
            parent,
            tid: self.tid,
            start_ns: ns(start),
            end_ns: ns(end),
            items,
        });
    }
}

impl Drop for ThreadSpans<'_> {
    fn drop(&mut self) {
        if let Ok(mut done) = self.shared.done.lock() {
            let room = KEEP.saturating_sub(done.len());
            done.extend(self.buf.drain(..).take(room));
        }
    }
}

/// Per span name: how many, their total duration, their total self time
/// (duration minus the part their children cover) and the items handled.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
        t.items += s.items;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"items\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.items
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = Spans::new();
        spans.set_on(true);
        let t = |us: u64| spans.epoch + Duration::from_micros(us);
        {
            let mut log = spans.thread(1);
            let root = spans.new_id();
            // Two overlapping children cover 10..40 of a 0..100 root.
            log.record("child", root, t(10), t(30), 3);
            log.record("child", root, t(20), t(40), 4);
            log.record_as(root, "batch", NO_PARENT, t(0), t(100), 7);
        }
        let all = spans.take();
        assert_eq!(all.len(), 3);
        let by = totals_by_name(&all);
        assert_eq!(by["batch"].total_ns, 100_000);
        assert_eq!(by["batch"].self_ns, 70_000);
        assert_eq!(by["child"].self_ns, 40_000);
        assert_eq!(by["child"].items, 7);
        let json = chrome_trace(&all);
        assert_eq!(tman_telemetry::trace::validate_chrome_trace(&json), Ok(3));
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let spans = Spans::new();
        let now = Instant::now();
        spans.thread(1).record("x", NO_PARENT, now, now, 1);
        assert!(spans.take().is_empty());
        let empty = chrome_trace(&[]);
        assert_eq!(tman_telemetry::trace::validate_chrome_trace(&empty), Ok(0));
    }
}
