//! Minimal HTTP/1.1 server and client over `std::net`.
//!
//! Just enough protocol for the REST API containers of Fig. 6: request-line
//! plus headers plus `Content-Length` bodies, `Connection: close` semantics,
//! served by a **bounded worker pool** behind an accept queue. No TLS,
//! chunking, or keep-alive — deliberately small, fully tested.
//!
//! Hardening: request bodies are capped at [`MAX_BODY_BYTES`] (the server
//! answers 413 instead of allocating attacker-controlled sizes), the request
//! line plus headers at 64 KiB (431 — a peer that never sends a newline
//! cannot grow a line for `IO_TIMEOUT`), a `Content-Length` that is not a
//! number is a 400 rather than a body left in the socket; after each of
//! those three refusals the worker discards what the peer still sends, up
//! to 16 MiB or one second, so the kernel's RST cannot overtake the
//! reply; every
//! accepted connection gets read/write timeouts so a stalled peer cannot
//! pin a handler thread forever, and concurrency is bounded — a burst of
//! clients beyond [`PoolConfig::workers`] waits in a queue of at most
//! [`PoolConfig::queue_depth`] connections, beyond which the server sheds
//! load with an immediate 503 instead of spawning unbounded threads. Queue
//! occupancy is exported as the `texid_search_queue_depth` gauge.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest accepted request body. A full 384-feature matrix is ~200 KiB on
/// the wire (~270 KiB base64 inside JSON), so 64 MiB leaves two orders of
/// magnitude of headroom while bounding per-connection allocations.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// What a declared `Content-Length` reserves before any body byte arrives:
/// a `/verify` body (≈ 560 KB) fits, so a real request is still one
/// exactly-sized allocation, while a lie costs at most this much.
const BODY_RESERVE: u64 = 1 << 20;

/// Largest accepted head — request (or status) line plus headers — on
/// either side of a connection. Real heads here are a few hundred bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Per-connection socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What a worker reads and discards after an error reply, at most: the
/// bytes, and the time. A peer that keeps sending past either gets the
/// kernel's RST, but costs the worker no more.
const DRAIN_BYTES: u64 = 16 << 20;
const DRAIN_TIME: Duration = Duration::from_secs(1);

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method verb (uppercase).
    pub method: String,
    /// Path including leading slash (query strings are kept verbatim).
    pub path: String,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type (defaults to JSON).
    pub content_type: String,
    /// Extra response headers (e.g. `Allow`, `X-Texid-Trace-Id`), written
    /// verbatim after `Content-Type`/`Content-Length`. On a client-parsed
    /// response, all received headers land here lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON Lines response (`application/x-ndjson`): one complete JSON
    /// object per line, tail-friendly (`GET /events`).
    pub fn ndjson(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/x-ndjson".to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response in Prometheus exposition content type
    /// (`GET /metrics`).
    pub fn prometheus(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4".to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Attach an extra response header (chainable).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge {
        /// The declared length.
        declared: u64,
    },
    /// The request line and headers did not end within 64 KiB.
    HeadTooLarge,
    /// Transport-level failure (including timeouts), or — as
    /// [`std::io::ErrorKind::InvalidData`] — bytes that are not an HTTP
    /// request: a bad request line, a `Content-Length` that is no number.
    Io(std::io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge { declared } => {
                write!(f, "declared body of {declared} bytes exceeds {MAX_BODY_BYTES}")
            }
            RequestError::HeadTooLarge => {
                write!(f, "request line and headers exceed {MAX_HEAD_BYTES} bytes")
            }
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

fn invalid(what: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// A message head: its first line, and its headers with lower-cased names.
type Head = (String, Vec<(String, String)>);

/// Read a message head — the first line, then `name: value` lines up to
/// the blank one (or EOF) — as the first line and the headers, names
/// lower-cased. `None` on immediate EOF. The head is gathered into one
/// buffer of at most [`MAX_HEAD_BYTES`] and only split once it is whole, so
/// neither one endless line nor ten thousand short ones allocate beyond it.
fn read_head(reader: &mut impl BufRead) -> Result<Option<Head>, RequestError> {
    let mut bounded = reader.take(MAX_HEAD_BYTES as u64);
    let mut head = String::new();
    loop {
        let line_at = head.len();
        let n = bounded.read_line(&mut head)?;
        let line = &head[line_at..];
        if line.ends_with('\n') && line.trim_end().is_empty() {
            break;
        }
        if bounded.limit() == 0 {
            return Err(RequestError::HeadTooLarge);
        }
        if n == 0 {
            break;
        }
    }
    let mut lines = head.lines();
    let Some(first) = lines.next() else { return Ok(None) };
    let headers = lines
        .filter_map(|h| h.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Some((first.to_string(), headers)))
}

/// Read one request from a stream. Returns `None` on immediate EOF.
///
/// # Errors
/// [`RequestError::TooLarge`] when the declared `Content-Length` exceeds
/// [`MAX_BODY_BYTES`] — the body is *not* read, let alone allocated (a
/// body that is read grows with the bytes that arrive, past at most 1 MiB
/// reserved up front);
/// [`RequestError::HeadTooLarge`] when the head does not end within 64 KiB;
/// [`RequestError::Io`] on transport failures, and with kind `InvalidData`
/// on a request line or `Content-Length` that cannot be parsed.
pub fn read_request(stream: &mut impl Read) -> Result<Option<Request>, RequestError> {
    let mut reader = BufReader::new(stream);
    let Some((line, headers)) = read_head(&mut reader)? else { return Ok(None) };
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| invalid("bad request line"))?.to_uppercase();
    let path = parts.next().ok_or_else(|| invalid("bad request line"))?.to_string();
    let mut req = Request { method, path, headers, body: Vec::new() };
    let content_length: u64 = match req.header("content-length") {
        Some(v) => v.parse().map_err(|_| invalid("bad content-length"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES as u64 {
        return Err(RequestError::TooLarge { declared: content_length });
    }
    req.body = Vec::with_capacity(content_length.min(BODY_RESERVE) as usize);
    reader.take(content_length).read_to_end(&mut req.body)?;
    if req.body.len() as u64 != content_length {
        let short = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "body cut short");
        return Err(short.into());
    }
    Ok(Some(req))
}

/// Write a response with `Connection: close`.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    write_response_opts(stream, resp, true)
}

/// [`write_response`] with body control: `include_body = false` answers a
/// `HEAD` request — status, headers, and the *real* `Content-Length` go
/// out, the body does not (RFC 9110 §9.3.2).
pub fn write_response_opts(
    stream: &mut impl Write,
    resp: &Response,
    include_body: bool,
) -> std::io::Result<()> {
    // The whole head goes out in one write, the body in another: one
    // syscall each on a socket instead of one per formatted fragment.
    let mut head = Vec::with_capacity(256);
    write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    for (k, v) in &resp.headers {
        write!(head, "{k}: {v}\r\n")?;
    }
    head.extend_from_slice(b"Connection: close\r\n\r\n");
    stream.write_all(&head)?;
    if include_body {
        stream.write_all(&resp.body)?;
    }
    Ok(())
}

/// Worker-pool sizing for [`HttpServer`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Handler threads serving requests concurrently.
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker; beyond
    /// this the server answers 503 immediately (load shedding).
    pub queue_depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { workers: 8, queue_depth: 64 }
    }
}

/// Serve one accepted connection: parse, dispatch, respond.
fn serve_connection(mut stream: TcpStream, handler: &(dyn Fn(&Request) -> Response + Send + Sync)) {
    // A stalled or malicious peer only costs this worker IO_TIMEOUT,
    // never an unbounded hang.
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut is_head = false;
    let (resp, unread) = match read_request(&mut stream) {
        Ok(Some(req)) => {
            is_head = req.method == "HEAD";
            // A handler that panics has a bug, and that bug costs its one
            // request a 500 — not the pool a worker, which is never
            // replaced.
            let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&req)))
                .unwrap_or_else(|_| {
                    Response::json(500, r#"{"error":"internal error"}"#.to_string())
                });
            (resp, false)
        }
        Ok(None) => return,
        Err(RequestError::TooLarge { .. }) => {
            (Response::json(413, r#"{"error":"request body too large"}"#.to_string()), true)
        }
        Err(RequestError::HeadTooLarge) => {
            (Response::json(431, r#"{"error":"request head too large"}"#.to_string()), true)
        }
        Err(RequestError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData => {
            (Response::json(400, format!(r#"{{"error":"malformed request: {e}"}}"#)), true)
        }
        Err(RequestError::Io(_)) => return,
    };
    // HEAD gets the same status line, headers, and Content-Length as the
    // GET would — minus the body.
    let _ = write_response_opts(&mut stream, &resp, !is_head);
    let _ = stream.flush();
    if unread {
        // Closing a socket over unread bytes makes the kernel send RST,
        // which can destroy the reply before the client reads it.
        drain(&mut stream);
    }
}

/// Half-close `stream` — the reply is all the peer gets — then read and
/// discard until EOF, [`DRAIN_BYTES`] or [`DRAIN_TIME`], whichever comes
/// first.
fn drain(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = std::time::Instant::now() + DRAIN_TIME;
    let mut left = DRAIN_BYTES;
    let mut buf = [0u8; 16 * 1024];
    while left > 0 {
        let now = std::time::Instant::now();
        if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => left = left.saturating_sub(n as u64),
        }
    }
}

/// A running HTTP server; dropped or `stop()`ed, it shuts down.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `handler`
    /// with the default worker pool ([`PoolConfig::default`]).
    pub fn spawn(
        addr: &str,
        handler: Arc<dyn Fn(&Request) -> Response + Send + Sync>,
    ) -> std::io::Result<HttpServer> {
        HttpServer::spawn_pooled(addr, handler, PoolConfig::default())
    }

    /// [`HttpServer::spawn`] with explicit pool sizing: a background accept
    /// loop feeds a bounded queue drained by `pool.workers` handler
    /// threads. A connection arriving with the queue full is answered 503
    /// from the accept thread instead of waiting unboundedly.
    ///
    /// # Panics
    /// Panics if `pool.workers` is zero.
    pub fn spawn_pooled(
        addr: &str,
        handler: Arc<dyn Fn(&Request) -> Response + Send + Sync>,
        pool: PoolConfig,
    ) -> std::io::Result<HttpServer> {
        assert!(pool.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();

        let (tx, rx) = sync_channel::<TcpStream>(pool.queue_depth.max(1));
        let rx: Arc<Mutex<Receiver<TcpStream>>> = Arc::new(Mutex::new(rx));
        let depth = Arc::new(AtomicUsize::new(0));
        let depth_gauge = texid_obs::global().gauge(
            "texid_search_queue_depth",
            "Accepted connections queued for a free HTTP worker thread.",
            &[],
        );

        let workers = (0..pool.workers)
            .map(|_| {
                let rx = rx.clone();
                let handler = handler.clone();
                let depth = depth.clone();
                let gauge = depth_gauge.clone();
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the pop, never while
                    // serving, so workers drain the queue concurrently.
                    let conn = { rx.lock().expect("queue lock").recv() };
                    let Ok(stream) = conn else { break };
                    gauge.set(depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1) as f64);
                    serve_connection(stream, handler.as_ref());
                })
            })
            .collect();

        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                depth_gauge.set(depth.fetch_add(1, Ordering::Relaxed) as f64 + 1.0);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        // Queue full: shed load right here rather than
                        // letting the backlog grow without bound. The 503
                        // goes out before a byte of the request is read, and
                        // the accept thread then gives the peer at most
                        // `drain`'s bound: a slow or endless request costs it
                        // `DRAIN_TIME`, not `IO_TIMEOUT` per byte.
                        depth_gauge.set(depth.fetch_sub(1, Ordering::Relaxed) as f64 - 1.0);
                        let _ = stream.set_write_timeout(Some(DRAIN_TIME));
                        let resp =
                            Response::json(503, r#"{"error":"server overloaded"}"#.to_string())
                                .with_header("Retry-After", "1");
                        let _ = write_response(&mut stream, &resp);
                        let _ = stream.flush();
                        // Closing a socket with unread bytes in its receive
                        // buffer makes the kernel send RST, which can destroy
                        // the in-flight 503 before the client reads it.
                        drain(&mut stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Dropping `tx` here wakes every idle worker out of recv().
        });
        Ok(HttpServer { addr: local, shutdown, handle: Some(handle), workers })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the pool, and join all threads.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Write a client request with `Connection: close`: the head in one write,
/// the body in another (see [`write_response_opts`]).
fn write_request(
    stream: &mut impl Write,
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(256);
    write!(
        head,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    )?;
    for (k, v) in extra_headers {
        write!(head, "{k}: {v}\r\n")?;
    }
    head.extend_from_slice(b"Connection: close\r\n\r\n");
    stream.write_all(&head)?;
    stream.write_all(body)
}

/// Blocking HTTP client call (`Connection: close`).
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<Response> {
    http_call_with_headers(addr, method, path, &[], body)
}

/// [`http_call`] with extra request headers (e.g. `X-Texid-Trace-Id`).
/// The returned [`Response`] carries all received headers lower-cased in
/// `Response::headers`. A `HEAD` call never reads a body, whatever the
/// announced `Content-Length`.
pub fn http_call_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write_request(&mut stream, addr, method, path, extra_headers, body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let (line, headers) = match read_head(&mut reader) {
        Ok(head) => head.unwrap_or_default(),
        Err(RequestError::Io(e)) => return Err(e),
        Err(_) => return Err(invalid("response head too large")),
    };
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut resp = Response { status, content_type: String::new(), headers, body: Vec::new() };
    resp.content_type = resp.header("content-type").unwrap_or_default().to_string();
    if !method.eq_ignore_ascii_case("HEAD") {
        match resp.header("content-length").and_then(|v| v.parse::<usize>().ok()) {
            Some(len) => {
                resp.body = vec![0u8; len];
                reader.read_exact(&mut resp.body)?;
            }
            None => {
                reader.read_to_end(&mut resp.body)?;
            }
        }
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::spawn(
            "127.0.0.1:0",
            Arc::new(|req: &Request| {
                Response::json(
                    200,
                    format!(
                        r#"{{"method":"{}","path":"{}","len":{}}}"#,
                        req.method,
                        req.path,
                        req.body.len()
                    ),
                )
            }),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_get() {
        let server = echo_server();
        let resp = http_call(server.addr(), "GET", "/hello", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        assert!(resp.text().contains(r#""method":"GET""#));
        assert!(resp.text().contains(r#""path":"/hello""#));
    }

    #[test]
    fn roundtrip_post_with_body() {
        let server = echo_server();
        let body = vec![0x41u8; 10_000];
        let resp = http_call(server.addr(), "POST", "/data", &body).unwrap();
        assert!(resp.text().contains(r#""len":10000"#));
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let resp =
                        http_call(addr, "POST", &format!("/r{i}"), format!("{i}").as_bytes())
                            .unwrap();
                    assert_eq!(resp.status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pool_bounds_concurrency_and_sheds_load() {
        // One worker, one queue slot, a handler that blocks until released:
        // the third concurrent connection must be turned away with 503.
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let server = {
            let gate = gate.clone();
            HttpServer::spawn_pooled(
                "127.0.0.1:0",
                Arc::new(move |_req: &Request| {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    Response::json(200, "{}".to_string())
                }),
                PoolConfig { workers: 1, queue_depth: 1 },
            )
            .unwrap()
        };
        let addr = server.addr();
        // If an assertion below fails while the gate is still closed, the
        // worker thread stays parked in the handler and `HttpServer::drop`
        // would deadlock joining it. Open the gate during unwind (guard
        // drops before `server`, which was declared earlier).
        struct OpenOnDrop(Arc<(Mutex<bool>, std::sync::Condvar)>);
        impl Drop for OpenOnDrop {
            fn drop(&mut self) {
                let (lock, cv) = &*self.0;
                *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                cv.notify_all();
            }
        }
        let _gate_guard = OpenOnDrop(gate.clone());
        // Four concurrent clients against capacity 2 (1 worker + 1 queue
        // slot). While the gate is closed an admitted request cannot
        // complete, so the only responses that can arrive are 503s from the
        // accept loop. At least two connections must be shed (2 > capacity);
        // a third is shed too if the worker thread has not dequeued its
        // first connection yet. Wait for the shed responses, open the gate,
        // and the admitted remainder must all finish 200.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Response>();
        for i in 0..4 {
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                done_tx.send(http_call(addr, "GET", &format!("/c{i}"), b"").unwrap()).unwrap();
            });
        }
        drop(done_tx);
        let mut shed = 0usize;
        while shed < 2 {
            let resp = done_rx.recv_timeout(Duration::from_secs(30)).expect("shed response");
            assert_eq!(resp.status, 503, "{}", resp.text());
            assert_eq!(resp.header("retry-after"), Some("1"));
            shed += 1;
        }
        // One more connection may have raced the worker startup and been
        // shed as well; give it a moment to surface.
        if let Ok(resp) = done_rx.recv_timeout(Duration::from_secs(2)) {
            assert_eq!(resp.status, 503, "{}", resp.text());
            shed += 1;
        }
        assert!(shed == 2 || shed == 3, "shed {shed} of 4 at capacity 2");
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let mut admitted = 0usize;
        while admitted + shed < 4 {
            let resp = done_rx.recv_timeout(Duration::from_secs(30)).expect("admitted response");
            assert_eq!(resp.status, 200, "{}", resp.text());
            admitted += 1;
        }
        assert!(admitted >= 1, "at least the worker-held connection succeeds");
    }

    /// A one-worker, one-slot server whose worker is parked in its handler
    /// and whose queue slot is taken, so every further connection is shed.
    /// Dropped, it opens the gate first (a parked worker would deadlock the
    /// server's join), then stops the server.
    struct Saturated {
        gate: Arc<(Mutex<bool>, std::sync::Condvar)>,
        _held: [TcpStream; 2],
        server: HttpServer,
    }

    impl Saturated {
        fn new() -> Saturated {
            let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
            let (entered, parked) = std::sync::mpsc::channel();
            let handler_gate = gate.clone();
            let server = HttpServer::spawn_pooled(
                "127.0.0.1:0",
                Arc::new(move |_req: &Request| {
                    let _ = entered.send(());
                    let (lock, cv) = &*handler_gate;
                    let mut open = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    while !*open {
                        open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    Response::json(200, "{}".to_string())
                }),
                PoolConfig { workers: 1, queue_depth: 1 },
            )
            .unwrap();
            let request = |path: &str| {
                let mut s = TcpStream::connect(server.addr()).unwrap();
                s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
                s
            };
            // The worker takes the first; the second waits in the queue,
            // and the accept loop handles connections in arrival order.
            let first = request("/worker");
            parked.recv_timeout(Duration::from_secs(10)).expect("the worker parks");
            let second = request("/queued");
            Saturated { gate, _held: [first, second], server }
        }
    }

    impl Drop for Saturated {
        fn drop(&mut self) {
            let (lock, cv) = &*self.gate;
            *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
            cv.notify_all();
        }
    }

    #[test]
    fn a_shed_peer_always_reads_its_503() {
        // The pool is full, so the accept thread answers. A client that sends
        // its whole request — a head declaring 100 MB and 4 MiB of it —
        // before it reads the reply must get to read the 503, every time.
        let saturated = Saturated::new();
        let head = "POST /search HTTP/1.1\r\nContent-Length: 100000000\r\n\r\n";
        for rep in 0..50 {
            let mut stream = TcpStream::connect(saturated.server.addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
            let chunk = [b'a'; 64 * 1024];
            let pushed = stream
                .write_all(head.as_bytes())
                .and_then(|()| (0..64).try_for_each(|_| stream.write_all(&chunk)))
                .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
            let mut status_line = String::new();
            let read = BufReader::new(&stream).read_line(&mut status_line);
            assert!(
                pushed.is_ok() && read.is_ok() && status_line.contains("503"),
                "repetition {rep}: push {pushed:?}, read {read:?} {status_line:?}"
            );
        }
    }

    #[test]
    fn a_slow_drip_holds_the_accept_thread_no_longer_than_the_drain() {
        // A shed peer declares a 100 MB body and then drips its head a byte
        // at a time, never ending it. It reads its 503 at once, and the
        // accept thread is free to shed the next connection after at most
        // `DRAIN_TIME` (not `IO_TIMEOUT` per byte, for as long as it drips).
        let saturated = Saturated::new();
        let addr = saturated.server.addr();
        let started = std::time::Instant::now();
        let mut drip = TcpStream::connect(addr).unwrap();
        drip.write_all(b"POST /search HTTP/1.1\r\nContent-Length: 100000000\r\nX-Drip: ").unwrap();
        let mut writer = drip.try_clone().unwrap();
        let dripping = std::thread::spawn(move || {
            let until = std::time::Instant::now() + Duration::from_secs(6);
            while std::time::Instant::now() < until && writer.write_all(b"a").is_ok() {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        drip.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let mut status_line = String::new();
        let read = BufReader::new(&drip).read_line(&mut status_line);
        assert!(read.is_ok() && status_line.contains("503"), "{read:?} {status_line:?}");

        let mut next = TcpStream::connect(addr).unwrap();
        next.write_all(b"GET /next HTTP/1.1\r\n\r\n").unwrap();
        next.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut status_line = String::new();
        let read = BufReader::new(&next).read_line(&mut status_line);
        let held = started.elapsed();
        assert!(read.is_ok() && status_line.contains("503"), "{read:?} {status_line:?}");
        assert!(
            held < DRAIN_TIME + Duration::from_millis(1500),
            "the next shed answered {held:?} after the drip began"
        );
        drop(drip);
        dripping.join().unwrap();
    }

    #[test]
    fn a_panicking_handler_costs_a_500_not_a_worker() {
        let server = HttpServer::spawn_pooled(
            "127.0.0.1:0",
            Arc::new(|req: &Request| {
                assert_ne!(req.path, "/boom", "a handler bug");
                Response::json(200, "{}".to_string())
            }),
            PoolConfig { workers: 2, queue_depth: 4 },
        )
        .unwrap();
        // One more panic than there are workers, each answered; then an
        // ordinary request still finds a worker to serve it.
        for _ in 0..3 {
            assert_eq!(http_call(server.addr(), "GET", "/boom", b"").unwrap().status, 500);
        }
        assert_eq!(http_call(server.addr(), "GET", "/fine", b"").unwrap().status, 200);
    }

    #[test]
    fn stop_terminates_accept_loop() {
        let mut server = echo_server();
        let addr = server.addr();
        server.stop();
        // After stop, new connections either fail or get no response.
        let result = http_call(addr, "GET", "/", b"");
        if let Ok(resp) = result {
            assert_ne!(resp.status, 200);
        }
    }

    #[test]
    fn request_parsing_headers() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nX-Custom: hi\r\n\r\nabc";
        let req = read_request(&mut &raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("x-custom"), Some("hi"));
        assert_eq!(req.header("X-CUSTOM"), Some("hi"));
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn eof_yields_none() {
        let raw: &[u8] = b"";
        assert!(read_request(&mut &raw[..]).unwrap().is_none());
    }

    #[test]
    fn oversized_content_length_rejected_without_allocation() {
        // Declares 1 TiB; read_request must refuse before reading a body.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n";
        match read_request(&mut &raw[..]) {
            Err(RequestError::TooLarge { declared }) => {
                assert_eq!(declared, 1_099_511_627_776);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // At the limit exactly, the size is accepted (body read then fails
        // on EOF, which is an Io error, not TooLarge).
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        assert!(matches!(read_request(&mut raw.as_bytes()), Err(RequestError::Io(_))));
    }

    #[test]
    fn server_answers_413_for_huge_declared_body() {
        let server = echo_server();
        // Hand-rolled requests, none with a body behind it: a huge
        // Content-Length; a head that fills its 64 KiB without ever ending a
        // line; a Content-Length that is no number.
        let endless = format!("GET /{}", "a".repeat(MAX_HEAD_BYTES - 5));
        for (raw, status, text) in [
            (
                "POST /big HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
                "413",
                "Payload Too Large",
            ),
            (endless.as_str(), "431", "Request Header Fields Too Large"),
            ("POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n", "400", "Bad Request"),
        ] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            assert!(status_line.contains(status), "{status_line}");
            assert!(status_line.contains(text), "{status_line}");
        }
    }

    #[test]
    fn a_refusal_reaches_a_peer_that_keeps_sending() {
        // The server refuses after reading the head, with megabytes of the
        // request still on their way. A client that sends its whole request
        // before it reads the reply (as `http_call` does) must get to read
        // it: its upload is not reset halfway, and the reply is there.
        let server = echo_server();
        let big_body = "POST /big HTTP/1.1\r\nContent-Length: 100000000\r\n\r\n".to_string();
        let long_head = format!("GET / HTTP/1.1\r\nX-Pad: {}", "a".repeat(MAX_HEAD_BYTES));
        for (head, status) in [(big_body, "413"), (long_head, "431")] {
            for rep in 0..50 {
                let mut stream = TcpStream::connect(server.addr()).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
                let chunk = [b'a'; 64 * 1024];
                let pushed = stream
                    .write_all(head.as_bytes())
                    .and_then(|()| (0..64).try_for_each(|_| stream.write_all(&chunk))) // 4 MiB
                    .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
                let mut status_line = String::new();
                let read = BufReader::new(&stream).read_line(&mut status_line);
                assert!(
                    pushed.is_ok() && read.is_ok() && status_line.contains(status),
                    "{status}, repetition {rep}: push {pushed:?}, read {read:?} {status_line:?}"
                );
            }
        }
    }

    #[test]
    fn head_gets_headers_and_length_but_no_body() {
        let server = echo_server();
        let head = http_call(server.addr(), "HEAD", "/hello", b"").unwrap();
        assert_eq!(head.status, 200);
        assert!(head.body.is_empty(), "HEAD must carry no body");
        // Content-Length matches what the equivalent GET would send.
        let get = http_call(server.addr(), "GET", "/hello", b"").unwrap();
        let announced: usize = head.header("content-length").unwrap().parse().unwrap();
        // The echo handler includes the method name, so lengths differ by
        // exactly len("HEAD") - len("GET").
        assert_eq!(announced, get.body.len() + 1);
        assert_eq!(head.content_type, "application/json");
    }

    #[test]
    fn extra_request_and_response_headers_roundtrip() {
        let server = HttpServer::spawn(
            "127.0.0.1:0",
            Arc::new(|req: &Request| {
                let echoed = req.header("x-texid-trace-id").unwrap_or("none").to_string();
                Response::json(200, "{}".to_string()).with_header("X-Texid-Trace-Id", &echoed)
            }),
        )
        .unwrap();
        let resp = http_call_with_headers(
            server.addr(),
            "GET",
            "/",
            &[("X-Texid-Trace-Id", "deadbeef")],
            b"",
        )
        .unwrap();
        assert_eq!(resp.header("x-texid-trace-id"), Some("deadbeef"));
        assert_eq!(resp.header("X-TEXID-TRACE-ID"), Some("deadbeef"));
    }

    #[test]
    fn allow_header_is_written() {
        let server = HttpServer::spawn(
            "127.0.0.1:0",
            Arc::new(|_req: &Request| {
                Response::json(405, r#"{"error":"method not allowed"}"#.to_string())
                    .with_header("Allow", "GET, HEAD")
            }),
        )
        .unwrap();
        let resp = http_call(server.addr(), "PATCH", "/x", b"").unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header("allow"), Some("GET, HEAD"));
    }

    /// Records each `write` call, so a test sees both the bytes and how
    /// many writes carried them.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_byte_for_byte_in_two_writes() {
        let resp = Response::json(405, r#"{"error":"x"}"#.to_string())
            .with_header("Allow", "GET, HEAD")
            .with_header("X-Texid-Trace-Id", "abc");
        let head = "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
                    Content-Length: 13\r\nAllow: GET, HEAD\r\nX-Texid-Trace-Id: abc\r\n\
                    Connection: close\r\n\r\n";
        let mut log = WriteLog::default();
        write_response(&mut log, &resp).unwrap();
        assert_eq!(log.0, [head.as_bytes(), br#"{"error":"x"}"#]);
        // HEAD: the same head, real Content-Length included, and nothing else.
        let mut log = WriteLog::default();
        write_response_opts(&mut log, &resp, false).unwrap();
        assert_eq!(log.0, [head.as_bytes()]);
    }

    #[test]
    fn request_goes_out_byte_for_byte_in_two_writes() {
        let addr: SocketAddr = "127.0.0.1:8099".parse().unwrap();
        let mut log = WriteLog::default();
        write_request(&mut log, addr, "POST", "/verify", &[("X-Texid-Trace-Id", "abc")], b"{}")
            .unwrap();
        let head = "POST /verify HTTP/1.1\r\nHost: 127.0.0.1:8099\r\n\
                    Content-Type: application/json\r\nContent-Length: 2\r\n\
                    X-Texid-Trace-Id: abc\r\nConnection: close\r\n\r\n";
        assert_eq!(log.0, [head.as_bytes(), b"{}"]);
        // What the server reads back is what was asked for.
        let wire = log.0.concat();
        let req = read_request(&mut &wire[..]).unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/verify"));
        assert_eq!(req.header("x-texid-trace-id"), Some("abc"));
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn status_texts_cover_resilience_codes() {
        assert_eq!(status_text(413), "Payload Too Large");
        assert_eq!(status_text(503), "Service Unavailable");
        assert_eq!(status_text(999), "Unknown");
    }
}
