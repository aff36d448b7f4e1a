//! Allocations per REST route, pinned: what one request of each route
//! costs the heap — allocations made, bytes allocated, and the peak of
//! live bytes above where the request started — across **every thread**
//! of the process. A `/search` scatters its legs to the cluster's pool
//! workers, so the per-thread counter the other allocation binaries share
//! (`linalg/tests/support/counting_alloc.rs`) would miss most of it.
//!
//! The counts are deterministic where wall time is not: a change that adds
//! a buffer, a copy or slack to a route moves its row, whatever the host's
//! clock does. A change that moves a cell updates [`TABLE`] and says why.
//! On a mismatch the test prints the whole measured table in the format of
//! [`TABLE`].
//!
//! The shape is the served one (m 384 reference features, n 768 query
//! features, 4 containers, `ClusterConfig::default()` otherwise) over a
//! small gallery, driven through `api::handle` with one request in flight,
//! after one warm-up round of every route. Panels are f16 where the tile
//! widens in register and f32 under the scalar tile, so each kernel
//! backend has its own rows.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide, and one test alone so that no other test allocates beside
//! the measured request.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

use texid_distrib::api::handle;
use texid_distrib::b64;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::Request;
use texid_distrib::wire;
use texid_image::TextureGenerator;
use texid_linalg::active_backend;
use texid_sift::{extract, SiftConfig};

/// Process-wide counters. `LIVE` follows every allocation and free; the
/// others count only while `OPEN`.
struct ProcessAlloc;

static OPEN: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every allocation and free is `System`'s, passed the caller's
// layout unchanged; the bookkeeping around them is atomics only.
unsafe impl GlobalAlloc for ProcessAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards the caller's `alloc` contract to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size() as isize, Relaxed) + layout.size() as isize;
            if OPEN.load(Relaxed) {
                ALLOCS.fetch_add(1, Relaxed);
                BYTES.fetch_add(layout.size() as u64, Relaxed);
                PEAK.fetch_max(live, Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`, as the caller's `dealloc` contract promises.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ProcessAlloc = ProcessAlloc;

/// One route's cost: allocations, bytes allocated, peak live bytes above
/// the live bytes at the request's start.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cost {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

/// Run `f` with the counters open.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    OPEN.store(true, Relaxed);
    let out = f();
    OPEN.store(false, Relaxed);
    let peak = (PEAK.load(Relaxed) - start).max(0) as u64;
    (out, Cost { allocs: ALLOCS.load(Relaxed), bytes: BYTES.load(Relaxed), peak })
}

/// The committed table: backend, route, allocations, bytes, peak live
/// bytes. Every cell must hold within [`BAND`] (`cargo test --release -q
/// -p texid-distrib --test route_alloc` reads the same cells as the dev
/// profile).
const TABLE: &str = "\
avx512  POST /textures              45    1150075     819830
avx512  PUT /textures/{id}          39    1050994     819822
avx512  GET /textures/{id}          49     925574     654737
avx512  DELETE /textures/{id}       20        668        506
avx512  POST /search               384    2227861    1585616
avx512  POST /verify               137    2469531    1435652
avx2    POST /textures              45    1150075     819830
avx2    PUT /textures/{id}          39    1050994     819822
avx2    GET /textures/{id}          49     925574     654737
avx2    DELETE /textures/{id}       20        668        506
avx2    POST /search               384    2227859    1585616
avx2    POST /verify               137    2469531    1435652
scalar  POST /textures              45    1248635     819830
scalar  PUT /textures/{id}          39    1051250     819822
scalar  GET /textures/{id}          49     925574     654737
scalar  DELETE /textures/{id}       20        668        506
scalar  POST /search               384    2227862    1585616
scalar  POST /verify               137    2568091    1513912
";

/// How far a measured cell may sit from its committed value: ±2 %, and
/// never less than [`SLACK`].
const BAND: f64 = 0.02;

/// The absolute slack of an allocation count and of a byte cell. About one
/// window in ten counts one small allocation more than the others (seen on
/// `POST /textures` and on the 20-allocation `DELETE` row), which ±2 % of a
/// small row cannot absorb.
const SLACK: (u64, u64) = (1, 64);

/// Gallery size: two references per shard.
const GALLERY: u64 = 8;

fn request(method: &str, path: &str, body: String) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

/// The six routes that carry or return a feature payload, in the order
/// one round sends them: `id` is enrolled, rewritten, read and deleted,
/// then the gallery is searched and verified against.
fn round(id: u64, reference: &str, rewrite: &str, query: &str) -> Vec<(&'static str, Request)> {
    vec![
        (
            "POST /textures",
            request("POST", "/textures", format!(r#"{{"id": {id}, "features": "{reference}"}}"#)),
        ),
        (
            "PUT /textures/{id}",
            request("PUT", &format!("/textures/{id}"), format!(r#"{{"features": "{rewrite}"}}"#)),
        ),
        ("GET /textures/{id}", request("GET", &format!("/textures/{id}"), String::new())),
        ("DELETE /textures/{id}", request("DELETE", &format!("/textures/{id}"), String::new())),
        ("POST /search", request("POST", "/search", format!(r#"{{"features": "{query}"}}"#))),
        (
            "POST /verify",
            request("POST", "/verify", format!(r#"{{"id": 0, "features": "{query}"}}"#)),
        ),
    ]
}

fn render(backend: &str, rows: &[(&str, Cost)]) -> String {
    rows.iter()
        .map(|(route, c)| {
            format!("{backend:<7} {route:<22} {:>7} {:>10} {:>10}\n", c.allocs, c.bytes, c.peak)
        })
        .collect()
}

/// The committed rows of `backend`, parsed from [`TABLE`].
fn committed(backend: &str) -> Vec<(String, Cost)> {
    TABLE
        .lines()
        .filter(|line| line.starts_with(&format!("{backend} ")))
        .map(|line| {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let n = cells.len();
            let num = |i: usize| cells[i].parse::<u64>().expect("a count");
            let cost = Cost { allocs: num(n - 3), bytes: num(n - 2), peak: num(n - 1) };
            (cells[1..n - 3].join(" "), cost)
        })
        .collect()
}

#[test]
fn every_route_allocates_what_the_table_says() {
    let backend = active_backend().name();
    let gen = TextureGenerator::with_size(256);
    let payload = |id: u64, m: usize| {
        let features =
            extract(&gen.generate(id), &SiftConfig { max_features: m, ..SiftConfig::default() });
        b64::encode(&wire::encode_features(&features))
    };
    let cluster = Cluster::new(ClusterConfig { containers: 4, ..ClusterConfig::default() });
    for id in 0..GALLERY {
        let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, payload(id, 384));
        assert_eq!(handle(&cluster, &request("POST", "/textures", body)).status, 201);
    }
    let (reference, rewrite, query) =
        (payload(GALLERY, 384), payload(GALLERY + 1, 384), payload(0, 768));

    // Warm-up: the pool's workers start, lazily grown buffers and rings
    // reach their size.
    for (route, req) in round(GALLERY, &reference, &rewrite, &query) {
        let status = handle(&cluster, &req).status;
        assert!(status < 300, "warm-up {route}: {status}");
    }
    let mut rows = Vec::new();
    for (route, req) in round(GALLERY + 1, &reference, &rewrite, &query) {
        let (resp, cost) = measure(|| handle(&cluster, &req));
        assert!(resp.status < 300, "{route}: {} {}", resp.status, resp.text());
        rows.push((route, cost));
    }

    let measured = render(backend, &rows);
    let table = committed(backend);
    let within = |got: u64, want: u64, slack: u64| {
        got.abs_diff(want) as f64 <= (BAND * want as f64).max(slack as f64)
    };
    let matches = table.len() == rows.len()
        && table.iter().zip(&rows).all(|((route, want), (got_route, got))| {
            route == got_route
                && within(got.allocs, want.allocs, SLACK.0)
                && within(got.bytes, want.bytes, SLACK.1)
                && within(got.peak, want.peak, SLACK.1)
        });
    assert!(
        matches,
        "allocations per route moved beyond ±{}% on the {backend} backend; measured:\n{measured}",
        BAND * 100.0
    );
}
