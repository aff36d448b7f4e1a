//! Chrome trace-event ("Perfetto JSON") export.
//!
//! Emits the legacy JSON object format understood by both
//! `chrome://tracing` and <https://ui.perfetto.dev>: complete duration
//! events (`"ph":"X"`) with microsecond timestamps, plus
//! `process_name`/`thread_name` metadata events so tracks come up
//! labeled. The two-clock convention is structural: every sim-clock
//! event lives in process [`ChromeTrace::SIM_PID`] and every wall-clock
//! event in process [`ChromeTrace::WALL_PID`], so a viewer can never
//! visually conflate simulated device time with measured host time.

use std::collections::BTreeMap;

use crate::trace::{Clock, SpanRecord};

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Builder for one Chrome trace-event JSON document.
///
/// Tracks (pid, tid) pairs: request one per logical timeline via
/// [`ChromeTrace::track`] (which also emits its `thread_name` metadata),
/// then place duration events on it with [`ChromeTrace::add_complete`].
/// [`ChromeTrace::add_spans`] converts ring-buffer [`SpanRecord`]s,
/// routing each to the process matching its clock.
pub struct ChromeTrace {
    events: Vec<String>,
    tracks: BTreeMap<(u32, String), u32>,
    next_tid: BTreeMap<u32, u32>,
}

impl ChromeTrace {
    /// Process id hosting all sim-clock tracks (timestamps are modeled
    /// device microseconds starting at 0).
    pub const SIM_PID: u32 = 1;
    /// Process id hosting all wall-clock tracks (timestamps are measured
    /// microseconds since process start).
    pub const WALL_PID: u32 = 2;

    /// An empty trace with both clock processes pre-named.
    pub fn new() -> ChromeTrace {
        let mut t = ChromeTrace {
            events: Vec::new(),
            tracks: BTreeMap::new(),
            next_tid: BTreeMap::new(),
        };
        t.name_process(Self::SIM_PID, "sim clock (modeled device time, us)");
        t.name_process(Self::WALL_PID, "wall clock (measured host time, us)");
        t
    }

    fn push_meta(&mut self, meta_name: &str, pid: u32, tid: Option<u32>, value: &str) {
        let tid_part = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
        self.events.push(format!(
            "{{\"name\":\"{meta_name}\",\"ph\":\"M\",\"pid\":{pid},{tid_part}\"args\":{{\"name\":\"{}\"}}}}",
            esc(value)
        ));
    }

    /// Name a process (one per clock by convention).
    fn name_process(&mut self, pid: u32, name: &str) {
        self.push_meta("process_name", pid, None, name);
    }

    /// Get (or allocate) the tid of the named track inside `pid`,
    /// emitting its `thread_name` metadata on first use. Tids are
    /// assigned in first-request order starting at 1, so pre-registering
    /// tracks fixes their on-screen order.
    pub fn track(&mut self, pid: u32, name: &str) -> u32 {
        if let Some(&tid) = self.tracks.get(&(pid, name.to_string())) {
            return tid;
        }
        let next = self.next_tid.entry(pid).or_insert(1);
        let tid = *next;
        *next += 1;
        self.tracks.insert((pid, name.to_string()), tid);
        self.push_meta("thread_name", pid, Some(tid), name);
        tid
    }

    /// Append a complete duration event (`"ph":"X"`) on the
    /// `(pid, tid)` track. `ts_us`/`dur_us` are microseconds on the clock
    /// implied by the track's pid.
    pub fn add_complete(
        &mut self,
        (pid, tid): (u32, u32),
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let args_json = args
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
            .collect::<Vec<_>>()
            .join(",");
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args_json}}}}}",
            esc(name),
            esc(cat),
            fmt_f64(ts_us),
            fmt_f64(dur_us.max(0.0)),
        ));
    }

    /// Convert ring-buffer span records into duration events. Each span
    /// goes to the process matching its clock ([`Clock::Sim`] →
    /// [`Self::SIM_PID`], [`Clock::Wall`] → [`Self::WALL_PID`]) on the
    /// track named by its `track` tag (falling back to the span name), so
    /// the two clocks can never share a timeline. Span lineage rides
    /// along in `args` as hex ids.
    pub fn add_spans(&mut self, spans: &[SpanRecord]) {
        for rec in spans {
            let pid = match rec.clock {
                Clock::Sim => Self::SIM_PID,
                Clock::Wall => Self::WALL_PID,
            };
            let track_name = rec.tag("track").unwrap_or(&rec.name).to_string();
            let tid = self.track(pid, &track_name);
            let mut args: Vec<(&str, String)> = vec![
                ("trace_id", format!("{:032x}", rec.trace_id)),
                ("span_id", format!("{:016x}", rec.span_id)),
                ("parent_id", format!("{:016x}", rec.parent_id)),
            ];
            for (k, v) in &rec.tags {
                if k != "track" {
                    args.push((k.as_str(), v.clone()));
                }
            }
            self.add_complete((pid, tid), &rec.name, rec.clock.as_str(), rec.start_us, rec.dur_us, &args);
        }
    }

    /// Render the trace as a Chrome trace-event JSON document (the
    /// `{"traceEvents":[...]}` object form). Load it by dragging the file
    /// into <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    #[test]
    fn track_tids_are_stable_and_ordered() {
        let mut t = ChromeTrace::new();
        let a = t.track(ChromeTrace::SIM_PID, "engine: H2D");
        let b = t.track(ChromeTrace::SIM_PID, "engine: compute");
        let a2 = t.track(ChromeTrace::SIM_PID, "engine: H2D");
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(a, a2);
        // Separate pid gets its own tid space.
        assert_eq!(t.track(ChromeTrace::WALL_PID, "request"), 1);
    }

    #[test]
    fn json_is_object_form_with_events() {
        let mut t = ChromeTrace::new();
        let tid = t.track(ChromeTrace::SIM_PID, "stream 0");
        t.add_complete((ChromeTrace::SIM_PID, tid), "h2d", "sim", 0.0, 12.5, &[("chunk", "0".into())]);
        let json = t.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"dur\":12.5"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn names_are_escaped() {
        let mut t = ChromeTrace::new();
        let tid = t.track(ChromeTrace::WALL_PID, "a\"b\\c");
        t.add_complete((ChromeTrace::WALL_PID, tid), "x\ny", "wall", 0.0, 1.0, &[]);
        let json = t.to_json();
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("x\\ny"));
    }

    #[test]
    fn spans_route_by_clock() {
        let ctx = TraceContext::root();
        let wall = crate::trace::SpanRecord {
            trace_id: ctx.trace_id,
            span_id: 1,
            parent_id: 0,
            name: "request".to_string(),
            clock: Clock::Wall,
            start_us: 5.0,
            dur_us: 100.0,
            tags: vec![("track".to_string(), "request".to_string())],
        };
        let sim = crate::trace::SpanRecord {
            trace_id: ctx.trace_id,
            span_id: 2,
            parent_id: 1,
            name: "gemm".to_string(),
            clock: Clock::Sim,
            start_us: 0.0,
            dur_us: 42.0,
            tags: vec![("track".to_string(), "shard 0 (sim)".to_string())],
        };
        let mut t = ChromeTrace::new();
        t.add_spans(&[wall, sim]);
        let json = t.to_json();
        assert!(json.contains(&format!("\"cat\":\"wall\",\"ph\":\"X\",\"ts\":5,\"dur\":100,\"pid\":{}", ChromeTrace::WALL_PID)));
        assert!(json.contains(&format!("\"cat\":\"sim\",\"ph\":\"X\",\"ts\":0,\"dur\":42,\"pid\":{}", ChromeTrace::SIM_PID)));
        assert!(json.contains("\"span_id\":\"0000000000000002\""));
    }
}
