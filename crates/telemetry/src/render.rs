//! Read surfaces: typed samples, Prometheus-style text exposition, and a
//! hand-rolled JSON encoding (the workspace carries no serde).

use crate::instruments::HistogramSummary;
use crate::registry::LabelSet;

/// One snapshotted series.
#[derive(Debug, Clone)]
pub(crate) struct MetricSample {
    /// Family name, e.g. `tman_index_probes_total`.
    pub name: String,
    /// Sorted `(key, value)` label pairs; empty for unlabeled series.
    pub labels: LabelSet,
    /// The value at snapshot time.
    pub value: SampleValue,
}

/// Snapshot value of one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram digest.
    Histogram(HistogramSummary),
}

impl SampleValue {
    fn type_name(&self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "summary",
        }
    }
}

/// Escape a label value for the text exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `{k="v",...}`, with room for extra pairs (quantile labels);
/// empty string when there are no labels at all.
fn label_block(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{}=\"{}\"", k, escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Prometheus-style text exposition. Samples must be sorted by name (the
/// registry's BTreeMap guarantees it) so each family gets one `# TYPE`
/// line. Histograms render as summaries: `_count`, `_sum`, quantile
/// series, and a non-standard `_max` gauge line.
pub(crate) fn render_text(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for s in samples {
        if last_family != Some(s.name.as_str()) {
            out.push_str(&format!("# TYPE {} {}\n", s.name, s.value.type_name()));
            last_family = Some(s.name.as_str());
        }
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    v
                ));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    v
                ));
            }
            SampleValue::Histogram(h) => {
                let plain = label_block(&s.labels, None);
                out.push_str(&format!("{}_count{} {}\n", s.name, plain, h.count));
                out.push_str(&format!("{}_sum{} {}\n", s.name, plain, h.sum));
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, Some(("quantile", q))),
                        v
                    ));
                }
                out.push_str(&format!("{}_max{} {}\n", s.name, plain, h.max));
            }
        }
    }
    out
}

/// Escape a string for JSON output.
pub fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON object mapping each series key (`name` or `name{k=v,...}`) to its
/// value — a bare number for counters/gauges, an object for histograms.
pub(crate) fn render_json(samples: &[MetricSample]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(samples.len());
    for s in samples {
        let key = if s.labels.is_empty() {
            s.name.clone()
        } else {
            let labels: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("{}={}", k, v))
                .collect();
            format!("{}{{{}}}", s.name, labels.join(","))
        };
        let value = match &s.value {
            SampleValue::Counter(v) => v.to_string(),
            SampleValue::Gauge(v) => v.to_string(),
            SampleValue::Histogram(h) => format!(
                "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                h.count, h.sum, h.p50, h.p95, h.p99, h.max
            ),
        };
        parts.push(format!("\"{}\":{}", json_escape(&key), value));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("tman_tokens_total", &[]).add(5);
        r.counter("tman_index_probes_total", &[("org", "mem_list")])
            .add(3);
        r.counter("tman_index_probes_total", &[("org", "mem_index")])
            .add(7);
        r.gauge("tman_queue_depth", &[]).add(2);
        let h = r.histogram("tman_test_ns", &[]);
        h.record(100);
        h.record(900);
        r
    }

    #[test]
    fn text_exposition_shape() {
        let text = sample_registry().render_text();
        assert!(text.contains("# TYPE tman_tokens_total counter\n"));
        assert!(text.contains("tman_tokens_total 5\n"));
        assert!(text.contains("tman_index_probes_total{org=\"mem_index\"} 7\n"));
        assert!(text.contains("tman_index_probes_total{org=\"mem_list\"} 3\n"));
        assert!(text.contains("# TYPE tman_queue_depth gauge\n"));
        assert!(text.contains("tman_queue_depth 2\n"));
        assert!(text.contains("# TYPE tman_test_ns summary\n"));
        assert!(text.contains("tman_test_ns_count 2\n"));
        assert!(text.contains("tman_test_ns_sum 1000\n"));
        assert!(text.contains("tman_test_ns{quantile=\"0.5\"}"));
        assert!(text.contains("tman_test_ns_max 900\n"));
        // Exactly one TYPE line per family even with multiple series.
        assert_eq!(text.matches("# TYPE tman_index_probes_total").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c", &[("k", "a\"b\\c\nd")]).bump();
        let text = r.render_text();
        assert!(text.contains("c{k=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn json_is_wellformed_and_complete() {
        let json = sample_registry().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"tman_tokens_total\":5"));
        assert!(json.contains("\"tman_index_probes_total{org=mem_index}\":7"));
        assert!(json.contains("\"tman_queue_depth\":2"));
        assert!(json.contains("\"tman_test_ns\":{\"count\":2,\"sum\":1000"));
    }

    #[test]
    fn empty_registry_renders_empty() {
        let r = Registry::new();
        assert_eq!(r.render_text(), "");
        assert_eq!(r.render_json(), "{}");
    }
}
