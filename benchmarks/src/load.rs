//! The load generator: closed-loop and scheduled (open-loop) request
//! streams over real TCP, one `Connection: close` request per call exactly
//! as `http::http_call` makes them, every response checked.

use crate::data::{features_b64, Dataset, N_REFS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use texid_distrib::http::{http_call, Response};
use texid_distrib::json::{parse, Json};

/// Request kinds the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /search`, `top = 5`.
    Search,
    /// `POST /verify`, default thresholds.
    Verify,
    /// `PUT /textures/{id}` with the id's own features.
    Put,
}

/// What a correct `/search` answer looks like on a workload.
#[derive(Clone, Copy, Debug)]
pub struct SearchCheck {
    /// `comparisons` must equal this (exhaustive sweep of a fixed gallery).
    pub comparisons: Option<u64>,
    /// `comparisons` must be below the gallery size (the probe pruned).
    pub pruned: bool,
    /// Top-1 must be the re-imaged texture. Off where the index is
    /// approximate; recall@1 is then reported, not required.
    pub top1_is_truth: bool,
    /// The same query must get the same `results` every time (no writes
    /// run beside it).
    pub repeatable: bool,
}

/// Pre-encoded request bodies: the generator does no encoding while timing.
pub struct Bodies {
    pub search: Vec<String>,
    pub verify: Vec<String>,
    /// `POST /textures` bodies, by texture.
    pub enroll: Vec<String>,
    /// `PUT /textures/{id}` bodies, by position in `Dataset::unqueried`.
    pub put: Vec<String>,
}

impl Bodies {
    pub fn new(data: &Dataset, with_put: bool) -> Bodies {
        let b64: Vec<String> = data.refs.iter().map(features_b64).collect();
        Bodies {
            search: data
                .queries
                .iter()
                .map(|q| {
                    format!(
                        r#"{{"features": "{}", "top": 5}}"#,
                        features_b64(&q.features)
                    )
                })
                .collect(),
            verify: data
                .queries
                .iter()
                .map(|q| {
                    format!(
                        r#"{{"id": {}, "features": "{}"}}"#,
                        q.claim,
                        features_b64(&q.features)
                    )
                })
                .collect(),
            enroll: b64
                .iter()
                .enumerate()
                .map(|(t, f)| format!(r#"{{"id": {t}, "features": "{f}"}}"#))
                .collect(),
            put: if with_put {
                data.unqueried
                    .iter()
                    .map(|&t| format!(r#"{{"features": "{}"}}"#, b64[t]))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// One stream of requests of one kind.
pub struct Stream {
    pub op: Op,
    /// Connections (= generator threads) this stream may have in flight.
    pub conns: usize,
    /// Intended send times in seconds from the start of the drive, or
    /// `None` for a closed loop (next request when the previous returns).
    pub schedule: Option<Vec<f64>>,
    /// Sequence number of the stream's first request: a drive continuing an
    /// earlier one goes on cycling queries and ids where that one stopped.
    pub first: usize,
}

/// One issued request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Request id: `stream · 1_000_000 + sequence number in the stream`.
    pub req: u32,
    pub op: Op,
    /// When the request was due (closed loop: when it was sent).
    pub intended_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    /// Non-2xx, 503 or I/O error.
    pub failed: bool,
    /// Answered, but the answer fails the workload's checks.
    pub incorrect: bool,
    /// Search only: top-1 is the re-imaged texture.
    pub top1_hit: bool,
    /// Search only: `comparisons` of the response.
    pub comparisons: u64,
    /// Search only: the simulated-clock makespan, `wall_us` of the response.
    pub sim_wall_us: f64,
    /// Search only: the server shed this request with a 503.
    pub shed: bool,
}

impl Sample {
    /// A request about to be sent, nothing known of its answer yet.
    pub fn new(req: u32, op: Op, intended_s: f64, sent_s: f64) -> Sample {
        Sample {
            req,
            op,
            intended_s,
            sent_s,
            done_s: 0.0,
            failed: false,
            incorrect: false,
            top1_hit: false,
            comparisons: 0,
            sim_wall_us: 0.0,
            shed: false,
        }
    }

    /// Latency from the intended send time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.intended_s) * 1e3
    }
}

/// Response checking shared by every generator thread.
pub struct Checker<'a> {
    pub data: &'a Dataset,
    pub search: SearchCheck,
    /// First `results` seen per query, for `SearchCheck::repeatable`.
    first_results: Mutex<Vec<Option<String>>>,
    /// First few offenders, `request id: reason`.
    offenders: Mutex<Vec<String>>,
}

/// Offenders printed per run.
const MAX_OFFENDERS: usize = 5;

impl<'a> Checker<'a> {
    pub fn new(data: &'a Dataset, search: SearchCheck) -> Checker<'a> {
        Checker {
            data,
            search,
            first_results: Mutex::new(vec![None; data.queries.len()]),
            offenders: Mutex::new(Vec::new()),
        }
    }

    pub fn offenders(&self) -> Vec<String> {
        self.offenders.lock().expect("offender list").clone()
    }

    fn offend(&self, req: u32, why: String) {
        let mut o = self.offenders.lock().expect("offender list");
        if o.len() < MAX_OFFENDERS {
            o.push(format!("request {req}: {why}"));
        }
    }

    /// Check a `/search` response for query `qi`; `Err` carries the reason.
    fn check_search(&self, qi: usize, v: &Json, s: &mut Sample) -> Result<(), String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("no `{k}` in response"));
        let results = field("results")?
            .as_arr()
            .ok_or("`results` is not an array")?;
        s.comparisons = field("comparisons")?.as_u64().ok_or("bad `comparisons`")?;
        s.sim_wall_us = field("wall_us")?.as_f64().ok_or("bad `wall_us`")?;
        let top1 = results
            .first()
            .and_then(|r| r.get("id"))
            .and_then(Json::as_u64);
        s.top1_hit = top1 == Some(self.data.queries[qi].truth);
        if field("degraded")?.as_bool() != Some(false) {
            return Err("degraded answer".into());
        }
        let shards = field("shards_ok")?.as_u64();
        if shards != Some(crate::workload::CONTAINERS as u64) {
            return Err(format!("shards_ok = {shards:?}"));
        }
        if self.search.comparisons.is_some_and(|c| c != s.comparisons) {
            return Err(format!(
                "comparisons = {}, want {:?}",
                s.comparisons, self.search.comparisons
            ));
        }
        if self.search.pruned && !(1..N_REFS as u64).contains(&s.comparisons) {
            return Err(format!(
                "comparisons = {} is not a pruned sweep",
                s.comparisons
            ));
        }
        if self.search.top1_is_truth && !s.top1_hit {
            return Err(format!(
                "top-1 = {top1:?}, truth = {}",
                self.data.queries[qi].truth
            ));
        }
        if self.search.repeatable {
            let text = field("results")?.to_string();
            let mut first = self.first_results.lock().expect("first results");
            match &first[qi] {
                None => first[qi] = Some(text),
                Some(seen) if *seen != text => {
                    return Err(format!("query {qi} answered {text}, earlier {seen}"));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Classify one response into `s`.
    fn check(&self, op: Op, index: usize, resp: std::io::Result<Response>, s: &mut Sample) {
        let resp = match resp {
            Ok(r) if (200..300).contains(&r.status) => r,
            Ok(r) => {
                s.failed = true;
                s.shed = r.status == 503;
                return self.offend(
                    s.req,
                    format!("{op:?} answered HTTP {}: {}", r.status, r.text()),
                );
            }
            Err(e) => {
                s.failed = true;
                return self.offend(s.req, format!("{op:?} I/O error: {e}"));
            }
        };
        let verdict = match parse(&resp.text()) {
            Err(e) => Err(format!("unparseable body: {e}")),
            Ok(v) => match op {
                Op::Search => self.check_search(index, &v, s),
                Op::Verify => {
                    let q = &self.data.queries[index];
                    let accepted = v.get("accepted").and_then(Json::as_bool);
                    if accepted == Some(q.claim == q.truth) {
                        Ok(())
                    } else {
                        Err(format!(
                            "accepted = {accepted:?} for claim {} of texture {}",
                            q.claim, q.truth
                        ))
                    }
                }
                Op::Put => match v.get("ok").and_then(Json::as_bool) {
                    Some(true) => Ok(()),
                    other => Err(format!("ok = {other:?}")),
                },
            },
        };
        if let Err(why) = verdict {
            s.incorrect = true;
            self.offend(s.req, format!("{op:?} {why}"));
        }
    }
}

/// Send request number `k` of a stream of `op` and check the answer into `s`.
pub fn issue(
    addr: SocketAddr,
    op: Op,
    k: usize,
    bodies: &Bodies,
    checker: &Checker<'_>,
    s: &mut Sample,
) {
    let (index, resp) = match op {
        Op::Search => {
            let i = k % bodies.search.len();
            (
                i,
                http_call(addr, "POST", "/search", bodies.search[i].as_bytes()),
            )
        }
        Op::Verify => {
            let i = k % bodies.verify.len();
            (
                i,
                http_call(addr, "POST", "/verify", bodies.verify[i].as_bytes()),
            )
        }
        Op::Put => {
            let i = k % bodies.put.len();
            let path = format!("/textures/{}", checker.data.unqueried[i]);
            (i, http_call(addr, "PUT", &path, bodies.put[i].as_bytes()))
        }
    };
    checker.check(op, index, resp, s);
}

/// What a drive produced.
pub struct Drive {
    /// Samples per stream, in completion order per connection.
    pub samples: Vec<Vec<Sample>>,
    /// Scheduled requests that were due before the end but never sent
    /// (every connection was still busy): the open loop's closing backlog.
    pub backlog_end: usize,
    /// Seconds until the last response was read.
    pub elapsed_s: f64,
}

/// Run all `streams` for `total_s` seconds, then wait for the requests in
/// flight. `send(op, k, sample)` performs request `k` of a stream and marks
/// the sample; it returns when the response has been read.
pub fn drive(
    streams: &[Stream],
    total_s: f64,
    send: &(dyn Fn(Op, usize, &mut Sample) + Sync),
) -> Drive {
    let t0 = Instant::now();
    let cursors: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
    let samples: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let workers: Vec<Vec<_>> = streams
            .iter()
            .zip(&cursors)
            .enumerate()
            .map(|(si, (stream, cursor))| {
                (0..stream.conns)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut mine = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let k = stream.first + i;
                                let intended_s = match &stream.schedule {
                                    None => t0.elapsed().as_secs_f64(),
                                    Some(times) => match times.get(i) {
                                        Some(&t) => t,
                                        None => break,
                                    },
                                };
                                if intended_s >= total_s {
                                    break;
                                }
                                let now = t0.elapsed().as_secs_f64();
                                if now >= total_s {
                                    break; // due, but the window closed first: backlog
                                }
                                if intended_s > now {
                                    std::thread::sleep(Duration::from_secs_f64(intended_s - now));
                                }
                                let mut sample = Sample::new(
                                    (si * 1_000_000 + k) as u32,
                                    stream.op,
                                    intended_s,
                                    t0.elapsed().as_secs_f64(),
                                );
                                send(stream.op, k, &mut sample);
                                sample.done_s = t0.elapsed().as_secs_f64();
                                mine.push(sample);
                            }
                            mine
                        })
                    })
                    .collect()
            })
            .collect();
        workers
            .into_iter()
            .map(|conns| {
                conns
                    .into_iter()
                    .flat_map(|w| w.join().expect("generator thread panicked"))
                    .collect()
            })
            .collect()
    });
    let backlog_end = streams
        .iter()
        .zip(&samples)
        .filter_map(|(stream, got)| {
            let due = stream
                .schedule
                .as_ref()?
                .iter()
                .filter(|&&t| t < total_s)
                .count();
            Some(due.saturating_sub(got.len()))
        })
        .sum();
    Drive {
        samples,
        backlog_end,
        elapsed_s: t0.elapsed().as_secs_f64(),
    }
}

/// A Poisson process of `rate_per_s` over `[from_s, to_s)`, conditioned on
/// its expected count: `round(rate · length)` arrival times drawn uniformly
/// and sorted. Every seed offers the same number of requests, so sample
/// counts do not vary with the seed while the gaps stay exponential.
pub fn poisson_schedule(rate_per_s: f64, from_s: f64, to_s: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9015_50a1 ^ from_s.to_bits());
    let n = (rate_per_s * (to_s - from_s)).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.gen_range(from_s..to_s)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times
}

/// Evenly spaced sends at `rate_per_s`, the first half a gap in.
pub fn fixed_schedule(rate_per_s: f64, total_s: f64) -> Vec<f64> {
    let n = (rate_per_s * total_s).floor() as usize;
    (0..n).map(|k| (k as f64 + 0.5) / rate_per_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = poisson_schedule(6.0, 1.5, 13.5, 42);
        assert_eq!(a, poisson_schedule(6.0, 1.5, 13.5, 42));
        assert_ne!(a, poisson_schedule(6.0, 1.5, 13.5, 43));
        assert_eq!(a.len(), 72, "every seed offers rate x length requests");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (1.5..13.5).contains(&t)));
    }

    #[test]
    fn latency_counts_from_the_intended_send_time() {
        // Three requests due at once on one connection, 30 ms of service
        // each: the third waited in the generator's queue for 60 ms, and
        // its latency must say ≥ 90 ms, not 30.
        let stream = Stream {
            op: Op::Search,
            conns: 1,
            schedule: Some(vec![0.0, 0.0, 0.0, 5.0]),
            first: 0,
        };
        let out = drive(&[stream], 1.0, &|_, _, _| {
            std::thread::sleep(Duration::from_millis(30))
        });
        let got = &out.samples[0];
        assert_eq!(
            got.len(),
            3,
            "the arrival due after the window is never sent"
        );
        assert_eq!(out.backlog_end, 0);
        for (k, s) in got.iter().enumerate() {
            assert_eq!(s.req as usize, k);
            assert_eq!(s.intended_s, 0.0);
            assert!(
                s.latency_ms() >= 30.0 * (k + 1) as f64,
                "request {k}: {} ms",
                s.latency_ms()
            );
            assert!(
                (s.sent_s - s.intended_s) * 1e3 >= 30.0 * k as f64,
                "lag of request {k}"
            );
        }
    }

    #[test]
    fn arrivals_due_but_unsent_at_the_close_are_backlog() {
        // One connection, 80 ms of service, four arrivals due at once in a
        // 100 ms window: two go out before the close, two are backlog.
        let stream = Stream {
            op: Op::Search,
            conns: 1,
            schedule: Some(vec![0.0; 4]),
            first: 40,
        };
        let out = drive(&[stream], 0.1, &|_, _, _| {
            std::thread::sleep(Duration::from_millis(80))
        });
        assert_eq!(out.samples[0].len(), 2);
        assert_eq!(out.backlog_end, 2);
        assert_eq!(
            out.samples[0][1].req, 41,
            "numbering continues from `first`"
        );
    }

    #[test]
    fn fixed_schedule_is_evenly_spaced_inside_the_window() {
        let s = fixed_schedule(3.0, 2.0);
        assert_eq!(s.len(), 6);
        assert!((s[0] - 1.0 / 6.0).abs() < 1e-12 && (s[5] - 11.0 / 6.0).abs() < 1e-12);
    }
}
