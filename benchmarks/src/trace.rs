//! Benchmark-side spans: recorded around calls into each layer's public
//! functions, kept in memory, reduced to self times, and written out as a
//! Chrome trace-event file when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;
use texid_obs::ChromeTrace;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u32,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Single-threaded span recorder. Switched off it calls straight through,
/// which is how the traced run prices its own overhead.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn begin_request(&mut self, id: u32) {
        self.request = id;
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (one thread), so that part is the sum of their durations.
pub fn self_times_us(spans: &[SpanRec]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(SpanRec::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

/// Self times grouped by span name, restricted to the trees under roots
/// named `root`.
pub fn self_times_by_name(spans: &[SpanRec], root: &str) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times_us(spans);
    let mut under = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Parents precede children, so one forward pass settles membership.
    for (i, s) in spans.iter().enumerate() {
        under[i] = match s.parent {
            None => s.name == root,
            Some(p) => under[p],
        };
        if under[i] {
            out.entry(s.name).or_default().push(own[i]);
        }
    }
    out
}

/// Render the spans as a Chrome trace-event document: request trees on one
/// track, replays on another, lineage and request id in `args`.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = ChromeTrace::new();
    let requests = (
        ChromeTrace::WALL_PID,
        out.track(ChromeTrace::WALL_PID, "edge, played in process"),
    );
    let replays = (
        ChromeTrace::WALL_PID,
        out.track(ChromeTrace::WALL_PID, "replays (not in the ledger)"),
    );
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    };
    for (i, s) in spans.iter().enumerate() {
        let track = if root_of(i) == crate::layers::REQUEST_ROOT {
            requests
        } else {
            replays
        };
        let args = [
            ("request", s.request.to_string()),
            ("span", i.to_string()),
            (
                "parent",
                s.parent.map_or("-".to_string(), |p| p.to_string()),
            ),
        ];
        out.add_complete(track, s.name, "bench", s.start_us, s.dur_us(), &args);
    }
    out.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_us: start,
            end_us: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // request [0,100] ⊃ parse [10,30], search [30,90] ⊃ gemm [40,80].
        let spans = vec![
            rec("request", 0.0, 100.0, None),
            rec("parse", 10.0, 30.0, Some(0)),
            rec("search", 30.0, 90.0, Some(0)),
            rec("gemm", 40.0, 80.0, Some(2)),
            rec("replay", 200.0, 260.0, None),
            rec("gemm", 210.0, 250.0, Some(4)),
        ];
        assert_eq!(
            self_times_us(&spans),
            vec![20.0, 20.0, 20.0, 40.0, 20.0, 40.0]
        );
        // Self times of one tree sum to its root's duration: nothing is
        // counted twice, nothing is lost.
        let by_name = self_times_by_name(&spans, "request");
        let total: f64 = by_name.values().flatten().sum();
        assert_eq!(total, 100.0);
        assert_eq!(
            by_name["gemm"],
            vec![40.0],
            "the replay's gemm stays out of the request ledger"
        );
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(true);
        t.begin_request(9);
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].request), ("outer", None, 9));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());

        t.span("replay", |t| t.span("gemm", |_| ()));
        let s = t.spans();
        assert_eq!((s[2].name, s[2].parent), ("replay", None));
        assert_eq!((s[3].name, s[3].parent), ("gemm", Some(2)));
        assert!(chrome_json(s).contains("\"name\":\"gemm\""));
    }
}
