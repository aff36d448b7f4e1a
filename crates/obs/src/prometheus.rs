//! Prometheus text-format (version 0.0.4) exposition.

use std::fmt::Write as _;
use std::sync::PoisonError;

use crate::registry::{Instrument, Registry};
use crate::MetricKind;

/// Escape a label value: backslash, double-quote, and newline must be
/// backslash-escaped inside the quoted value.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Escape a HELP text: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Render a float the way Prometheus clients do: integers without a
/// trailing `.0`, everything else via the shortest round-trip form.
fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        return if v > 0.0 { "+Inf".into() } else { "-Inf".into() };
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render an OpenMetrics-style exemplar annotation for a bucket line:
/// ` # {trace_id="<hex>"} <value>`, or the empty string when the bucket
/// has never been stamped. The trace id is zero-padded to 32 hex chars
/// to match the `X-Texid-Trace-Id` wire format.
fn fmt_exemplar(ex: Option<(u128, f64)>) -> String {
    match ex {
        Some((tid, v)) => format!(" # {{trace_id=\"{tid:032x}\"}} {}", fmt_value(v)),
        None => String::new(),
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    /// Render every registered family in Prometheus text exposition
    /// format 0.0.4: `# HELP` / `# TYPE` headers, counters with their
    /// `_total` suffix, gauges bare, histograms as cumulative
    /// `_bucket{le=...}` series ending in `+Inf` plus `_sum` / `_count`.
    /// Output order is deterministic (sorted by family name, then label
    /// set), so scrapes diff cleanly.
    pub fn render_prometheus(&self) -> String {
        let families = self.inner.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = match family.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, inst) in family.series.iter() {
                match inst {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", fmt_labels(labels, None), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            fmt_labels(labels, None),
                            fmt_value(g.get())
                        );
                    }
                    Instrument::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, (bound, n)) in h.bounds().iter().zip(h.bucket_counts()).enumerate() {
                            cum += n;
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}{}",
                                fmt_labels(labels, Some(("le", &fmt_value(*bound)))),
                                fmt_exemplar(h.exemplar(i))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}{}",
                            fmt_labels(labels, Some(("le", "+Inf"))),
                            h.count(),
                            fmt_exemplar(h.exemplar(h.bounds().len()))
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            fmt_labels(labels, None),
                            fmt_value(h.sum())
                        );
                        let _ = writeln!(out, "{name}_count{} {}", fmt_labels(labels, None), h.count());
                        let _ = writeln!(
                            out,
                            "{name}_max{} {}",
                            fmt_labels(labels, None),
                            fmt_value(h.max())
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_like_prometheus() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(0.5), "0.5");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(-1.0), "-1");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn histograms_render_max_and_exemplars() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("texid_demo_us", "demo", &[], &[10.0, 100.0]);
        h.observe_traced(5.0, Some(0xabc));
        h.observe_traced(250.0, Some(0xdef));
        let text = reg.render_prometheus();
        assert!(
            text.contains("texid_demo_us_bucket{le=\"10\"} 1 # {trace_id=\"00000000000000000000000000000abc\"} 5"),
            "finite bucket carries its exemplar:\n{text}"
        );
        assert!(
            text.contains("texid_demo_us_bucket{le=\"+Inf\"} 2 # {trace_id=\"00000000000000000000000000000def\"} 250"),
            "+Inf bucket carries its exemplar:\n{text}"
        );
        assert!(
            text.contains("texid_demo_us_bucket{le=\"100\"} 1\n"),
            "unstamped bucket renders bare:\n{text}"
        );
        assert!(text.contains("texid_demo_us_max 250"), "running max rendered:\n{text}");
    }
}
