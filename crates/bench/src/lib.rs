//! `tman-bench` — workload generators and measurement helpers for the
//! `experiments` binary (see EXPERIMENTS.md for the experiment index
//! E1–E15).

pub mod workload;

pub use workload::*;

use std::time::{Duration, Instant};

/// Write one experiment's metrics snapshot as JSON, to
/// `$TMAN_METRICS_DIR/{experiment}.json` (default `target/metrics/`), so
/// runs can be diffed and the engine-internal numbers behind a table
/// (probe counts, cache hit rates, queue waits) survive alongside it.
pub fn dump_metrics(experiment: &str, json: &str) {
    let dir = std::env::var("TMAN_METRICS_DIR").unwrap_or_else(|_| "target/metrics".into());
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("metrics: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("metrics snapshot → {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
    }
}

/// When `TMAN_TRACE_DIR` is set, enable per-token tracing on `cfg` so the
/// experiment emits a Chrome trace (see [`dump_trace`]); identity
/// otherwise. Sampling keeps the flight-recorder overhead negligible while
/// still retaining every slow token.
pub fn traced(mut cfg: triggerman::Config) -> triggerman::Config {
    if std::env::var_os("TMAN_TRACE_DIR").is_some() {
        cfg.tracing = triggerman::TracingMode::Sampled(97);
    }
    cfg
}

/// Write one experiment's retained trace spans as Chrome trace-event JSON
/// to `$TMAN_TRACE_DIR/{experiment}.json` (loadable in Perfetto /
/// `chrome://tracing`). No-op when the variable is unset, so default runs
/// pay nothing.
pub fn dump_trace(experiment: &str, tman: &triggerman::TriggerMan) {
    let Ok(dir) = std::env::var("TMAN_TRACE_DIR") else {
        return;
    };
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    match std::fs::write(&path, tman.render_chrome_trace()) {
        Ok(()) => println!("chrome trace → {}", path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// Time one closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Ops/second for `n` operations over `d`.
pub fn rate(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64().max(1e-12)
}

/// Nanoseconds per operation.
pub fn nanos_per(n: usize, d: Duration) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// Render a markdown table (used by the experiments binary so output can be
/// pasted into EXPERIMENTS.md).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print as markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            println!("{s}");
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&sep);
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human-friendly numbers (`12.3k`, `4.56M`).
pub fn human(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Human-friendly byte counts.
pub fn human_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}
