//! The TCP server: accept thread, bounded connection queue, fixed
//! worker pool, reload watcher, and graceful drain.
//!
//! Threading model (all `std`):
//!
//! - **accept thread** — blocking `accept()`; pushes connections onto a
//!   bounded queue or, when the queue is full, writes the static
//!   [`SHED_RESPONSE`](crate::proto::SHED_RESPONSE) and closes. It
//!   never parses requests, so overload cannot stall the listener.
//! - **N workers** — pop connections, speak either protocol until the
//!   peer closes, a limit fires, or a drain begins. Both protocols are
//!   framings over one request core, [`respond`], which counts, looks
//!   up, and renders; each worker reuses its own scratch and response
//!   buffers.
//! - **watcher** (optional) — polls the artifact file's `(mtime, len)`;
//!   on change parses off to the side and epoch-swaps the shared index.
//!   A corrupt file increments `serve.reload.err` and keeps the old
//!   index serving.
//!
//! ## Robustness
//!
//! Every connection is read through [`ConnReader`] under
//! [`ConnLimits`]: idle reaping, per-request completion deadlines, a
//! slow-client byte-rate floor, and caps on line/header/body sizes. A
//! hostile peer therefore always resolves — served, rejected with an
//! explicit response (`400`/`408`/`413`), or cut by a deadline. How a
//! read that stopped short ends the connection is one table,
//! [`read_failure`], and every such path lands in one counter family:
//!
//! - `serve.timeout.read` / `serve.timeout.write` — deadlines fired
//! - `serve.conn.reaped` — idle keep-alive connections closed
//! - `serve.conn.budget` — per-connection request budget exhausted
//! - `serve.reject.oversize` / `.truncated` / `.slow` / `.malformed`
//! - `serve.shed.queue_full` / `serve.shed.draining` — refused before
//!   a worker ever saw the stream
//!
//! All counters are pre-registered at [`Server::start`], so `/metrics`
//! accounts for every refused byte stream even when the count is 0.
//!
//! Shutdown (`{"cmd":"shutdown"}`, `POST /shutdown`, or
//! [`Server::shutdown`]) is a drain: the accept thread stops accepting
//! (woken by a self-connection), queued connections still get answers,
//! workers finish the request in hand, connections idle between
//! requests are closed, and `Server::wait` joins everything.

use crate::index::{LookupIndex, SharedIndex};
use crate::limits::{ConnLimits, ConnReader, ReadOutcome};
use crate::proto::{self, Request};
use hoiho_obs::{Counter, Histogram};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Hot-reload settings: which file to watch and how often.
#[derive(Debug, Clone)]
pub struct ReloadConfig {
    /// The artifact file to poll.
    pub path: PathBuf,
    /// Poll period.
    pub every: Duration,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `HOST:PORT`; port 0 binds an ephemeral port (read
    /// it back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker thread count.
    pub threads: usize,
    /// Bounded accept-queue depth; connections beyond it are shed.
    pub queue_cap: usize,
    /// Per-connection robustness limits (deadlines, size caps, request
    /// budget, byte-rate floor).
    pub limits: ConnLimits,
    /// Artifact hot-reload, if any.
    pub reload: Option<ReloadConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_cap: 128,
            limits: ConnLimits::default(),
            reload: None,
        }
    }
}

/// Counter families pre-registered at startup so `/metrics` exposes the
/// full vocabulary from the first scrape, zeros included.
const COUNTERS: &[&str] = &[
    "serve.conn.accepted",
    "serve.conn.reaped",
    "serve.conn.budget",
    "serve.timeout.read",
    "serve.timeout.write",
    "serve.reject.oversize",
    "serve.reject.truncated",
    "serve.reject.slow",
    "serve.reject.malformed",
    "serve.shed.queue_full",
    "serve.shed.draining",
    "serve.reload.ok",
    "serve.reload.err",
    "serve.requests",
    "serve.requests.batch",
    "serve.requests.http",
    "serve.lookups",
    "serve.hits",
];

/// After an explicit rejection the server keeps reading (and dropping)
/// what the peer still sends for at most this long and this many bytes.
/// Closing a socket with unread input makes the kernel send a reset,
/// and a reset can discard the reply before the peer has read it.
const LINGER: Duration = Duration::from_millis(500);
const LINGER_BYTES: usize = 64 * 1024;

struct Shared {
    index: Arc<SharedIndex>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cap: usize,
    cv: Condvar,
    shutdown: AtomicBool,
    limits: ConnLimits,
    local_addr: SocketAddr,
    /// `serve.request_us`, held so a request costs no registry lookup.
    request_us: Arc<Histogram>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.cv.notify_all();
        // Wake the accept thread out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running lookup service. Dropping the handle without calling
/// [`Server::shutdown`] or [`Server::wait`] detaches the threads.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `index` per `cfg`.
    pub fn start(index: Arc<SharedIndex>, cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        for name in COUNTERS {
            let _ = hoiho_obs::global().counter(name);
        }
        let shared = Arc::new(Shared {
            index,
            queue: Mutex::new(VecDeque::new()),
            queue_cap: cfg.queue_cap.max(1),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            limits: cfg.limits.clone(),
            local_addr,
            request_us: hoiho_obs::global().histogram("serve.request_us"),
        });
        let mut threads = Vec::with_capacity(cfg.threads + 2);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || accept_loop(&shared, listener))?,
            );
        }
        for i in 0..cfg.threads.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        if let Some(reload) = cfg.reload.clone() {
            // Stamp the file the index was built from now, not when the
            // watcher first runs: a rewrite landing in between would
            // otherwise become the baseline and never be loaded.
            let last = stamp(&reload.path);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-watcher".to_string())
                    .spawn(move || watcher_loop(&shared, &reload, last))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The index handle this server reads through.
    pub fn index(&self) -> Arc<SharedIndex> {
        Arc::clone(&self.shared.index)
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Block until the server drains (a protocol shutdown, or a prior
    /// [`Server::shutdown`] from another handle).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Begin a graceful drain and block until every thread exits.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
        };
        if shared.draining() {
            // The wake-up self-connection (or a late client) during
            // drain: refuse politely.
            hoiho_obs::counter!("serve.shed.draining").inc();
            shed(stream);
            return;
        }
        hoiho_obs::counter!("serve.conn.accepted").inc();
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if queue.len() >= shared.queue_cap {
            drop(queue);
            hoiho_obs::counter!("serve.shed.queue_full").inc();
            shed(stream);
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.cv.notify_one();
    }
}

/// Write the static 503 payload without letting a slow client stall the
/// caller.
fn shed(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    let _ = stream.write_all(proto::SHED_RESPONSE);
}

fn worker_loop(shared: &Shared) {
    let mut scratch = String::new();
    let mut out = String::new();
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.draining() {
                    break None;
                }
                let (q, _) = shared
                    .cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue poisoned");
                queue = q;
            }
        };
        match conn {
            Some(stream) => handle_connection(shared, stream, &mut scratch, &mut out),
            None => return,
        }
    }
}

/// Whether a write error means the send deadline fired (as opposed to a
/// peer reset).
fn write_timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Send `bytes`, counting a fired write deadline.
fn send(out: &mut TcpStream, bytes: &[u8]) -> bool {
    match out.write_all(bytes).and_then(|()| out.flush()) {
        Ok(()) => true,
        Err(e) => {
            if write_timed_out(&e) {
                hoiho_obs::counter!("serve.timeout.write").inc();
            }
            false
        }
    }
}

/// Where in a request a read stopped short.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// A line-protocol request, or the request line of an HTTP one.
    Line,
    /// An HTTP header line.
    Header,
    /// An HTTP request body.
    Body,
}

/// How a connection ends early: the counter to bump and the reply, if
/// any, the peer is owed.
type Ending = (Option<&'static Arc<Counter>>, Option<Vec<u8>>);

/// The one table of how a read that did not complete ends the
/// connection. `partial` is what the read delivered — on `TooLarge` in
/// the line phase, a prefix that tells which protocol's error to speak.
fn read_failure(phase: Phase, outcome: ReadOutcome, partial: &str) -> Ending {
    use Phase::{Body, Header, Line};
    use ReadOutcome as R;
    let timeout = Some(hoiho_obs::counter!("serve.timeout.read"));
    let oversize = Some(hoiho_obs::counter!("serve.reject.oversize"));
    let truncated = Some(hoiho_obs::counter!("serve.reject.truncated"));
    let bad = |msg| Some(proto::error_response("400 Bad Request", msg));
    let late = |msg| Some(proto::error_response("408 Request Timeout", msg));
    let http_prefix = proto::looks_like_http_prefix(partial);
    match (phase, outcome) {
        (_, R::Complete) | (Line, R::Eof) | (Line | Header, R::Failed) => (None, None),
        (Line, R::Idle) => (Some(hoiho_obs::counter!("serve.conn.reaped")), None),
        (Line, R::TimedOut) => (timeout, None),
        (Header, R::Idle | R::TimedOut) => (timeout, late("request timed out")),
        (Body, R::Idle | R::TimedOut) => (timeout, late("body timed out")),
        (_, R::TooSlow) => (Some(hoiho_obs::counter!("serve.reject.slow")), None),
        (Line, R::TooLarge) if http_prefix => (oversize, bad("request line too long")),
        (Line, R::TooLarge) => (oversize, Some(line_error("request too large"))),
        (Header, R::TooLarge) => (oversize, bad("header line too long")),
        // The peer closed mid-request; for a body, any short read means
        // Content-Length promised more than the peer delivered.
        (Line, R::Truncated) | (Header, R::Eof | R::Truncated) | (Body, _) => (truncated, None),
    }
}

/// A line-protocol error reply.
fn line_error(msg: &str) -> Vec<u8> {
    format!("{}\n", proto::render_error(msg)).into_bytes()
}

/// End a connection early: bump the counter and, if a reply is owed,
/// send it, half-close, and drain what the peer is still sending (see
/// [`LINGER`]) so the reply is not lost to a reset.
fn end(conn: &mut TcpStream, (counter, reply): Ending) {
    if let Some(c) = counter {
        c.inc();
    }
    let Some(reply) = reply else { return };
    if !send(conn, &reply) || conn.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER;
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, scratch: &mut String, out: &mut String) {
    let limits = &shared.limits;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = ConnReader::new(read_half);
    let mut write_half = stream;
    let mut line = String::new();
    let mut served: u64 = 0;
    loop {
        line.clear();
        // Between requests a drain closes the connection; a connection
        // queued before the drain still gets its first request answered.
        let stop = (served > 0).then_some(&shared.shutdown);
        let outcome = reader.read_line(&mut line, limits, None, stop);
        if outcome != ReadOutcome::Complete {
            return end(&mut write_half, read_failure(Phase::Line, outcome, &line));
        }
        let line = line.trim_end();
        if served == 0 && proto::looks_like_http(line) {
            return serve_http(shared, line, &mut reader, &mut write_half, scratch, out);
        }
        // Line protocol: keep answering until EOF, a limit fires, or a
        // drain begins.
        let start = Instant::now();
        respond(shared, &proto::parse_request(line), scratch, out);
        shared.request_us.record(start.elapsed().as_micros() as u64);
        served += 1;
        let draining = shared.draining();
        if !send(&mut write_half, out.as_bytes()) || draining {
            return;
        }
        if served >= limits.max_requests {
            hoiho_obs::counter!("serve.conn.budget").inc();
            return;
        }
    }
}

/// The protocol-neutral request core: count `req`, answer it, and leave
/// the newline-terminated JSON body in `out` (cleared first). Returns
/// `false` for [`Request::Malformed`], whose body is the error object.
fn respond(shared: &Shared, req: &Request, scratch: &mut String, out: &mut String) -> bool {
    out.clear();
    let ok = match req {
        Request::Lookup(host) => {
            hoiho_obs::counter!("serve.requests").inc();
            hoiho_obs::counter!("serve.lookups").inc();
            lookup_into(&shared.index.load(), host, scratch, out);
            true
        }
        Request::Batch(hosts) => {
            hoiho_obs::counter!("serve.requests.batch").inc();
            hoiho_obs::counter!("serve.lookups").add(hosts.len() as u64);
            let index = shared.index.load();
            out.push_str("{\"results\":[");
            for (i, host) in hosts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                lookup_into(&index, &host, scratch, out);
            }
            out.push_str("]}");
            true
        }
        Request::Ping => {
            let (epoch, shards) = (shared.index.epoch(), shared.index.load().len());
            let _ = write!(out, "{{\"ok\":true,\"epoch\":{epoch},\"shards\":{shards}}}");
            true
        }
        Request::Shutdown => {
            out.push_str("{\"ok\":true,\"draining\":true}");
            shared.begin_shutdown();
            true
        }
        Request::Malformed(msg) => {
            hoiho_obs::counter!("serve.reject.malformed").inc();
            out.push_str(&proto::render_error(msg));
            false
        }
    };
    out.push('\n');
    ok
}

/// Geolocate `host` and append its result object, counting a hit.
fn lookup_into(index: &LookupIndex, host: &str, scratch: &mut String, out: &mut String) {
    let inf = index.lookup(host, scratch);
    if inf.is_some() {
        hoiho_obs::counter!("serve.hits").inc();
    }
    proto::render_result(index.db(), host, inf.as_ref(), out);
}

/// Serve one HTTP-lite request (`Connection: close`): read the headers
/// and body under one *hard* deadline, so a peer trickling header lines
/// cannot reset the clock, map the route onto a [`Request`], and frame
/// [`respond`]'s body with a status line.
fn serve_http(
    shared: &Shared,
    request_line: &str,
    reader: &mut ConnReader,
    conn: &mut TcpStream,
    scratch: &mut String,
    out: &mut String,
) {
    let start = Instant::now();
    let limits = &shared.limits;
    let hard = start + limits.read_timeout;
    hoiho_obs::counter!("serve.requests.http").inc();
    let oversize = hoiho_obs::counter!("serve.reject.oversize");
    let http = proto::parse_http_request(request_line);
    // Headers: only Content-Length matters, but every line is bounded
    // and the block as a whole is capped.
    let mut content_length: usize = 0;
    let mut header_bytes = 0usize;
    let mut header = String::new();
    loop {
        header.clear();
        let outcome = reader.read_line(&mut header, limits, Some(hard), None);
        if outcome != ReadOutcome::Complete {
            return end(conn, read_failure(Phase::Header, outcome, &header));
        }
        header_bytes += header.len();
        if header_bytes > limits.max_header_bytes {
            let reply = proto::error_response("400 Bad Request", "header block too large");
            return end(conn, (Some(oversize), Some(reply)));
        }
        let h = header.trim_end().to_ascii_lowercase();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("content-length:") {
            let Ok(n) = v.trim().parse() else {
                let malformed = hoiho_obs::counter!("serve.reject.malformed");
                let reply = proto::error_response("400 Bad Request", "bad content-length");
                return end(conn, (Some(malformed), Some(reply)));
            };
            content_length = n;
        }
    }
    let route = (http.method.as_str(), http.path.as_str());
    // A batch body outlives the request that borrows its hostnames.
    let body: Vec<u8>;
    let body_text;
    let req = match route {
        ("GET", "/lookup") => Some(match proto::query_param(&http.query, "h") {
            Some(host) => Request::Lookup(host.into()),
            None => Request::Malformed("missing h parameter".to_string()),
        }),
        ("POST", "/batch") => {
            if content_length > limits.max_body_bytes {
                let reply = proto::error_response("413 Payload Too Large", "body exceeds limit");
                return end(conn, (Some(oversize), Some(reply)));
            }
            let mut raw = Vec::with_capacity(content_length);
            let outcome = reader.read_body(&mut raw, content_length, limits, Some(hard));
            if outcome != ReadOutcome::Complete {
                return end(conn, read_failure(Phase::Body, outcome, ""));
            }
            body = raw;
            body_text = String::from_utf8_lossy(&body);
            Some(Request::Batch(proto::Hosts::lines(&body_text)))
        }
        ("GET", "/healthz") => Some(Request::Ping),
        ("POST", "/shutdown") => Some(Request::Shutdown),
        _ => None,
    };
    let response = match req {
        Some(req) => {
            let ok = respond(shared, &req, scratch, out);
            let status = if ok { "200 OK" } else { "400 Bad Request" };
            proto::http_response(status, "application/json", out)
        }
        None if route == ("GET", "/metrics") => {
            *out = hoiho_obs::global().snapshot().render_prometheus();
            let (epoch, shards) = (shared.index.epoch(), shared.index.load().len());
            let _ = write!(
                out,
                "# TYPE hoiho_serve_epoch gauge\nhoiho_serve_epoch {epoch}\n\
                 # TYPE hoiho_serve_shards gauge\nhoiho_serve_shards {shards}\n"
            );
            proto::http_response("200 OK", "text/plain; version=0.0.4", out)
        }
        None => proto::error_response("404 Not Found", "not found"),
    };
    let _ = send(conn, &response);
    shared.request_us.record(start.elapsed().as_micros() as u64);
}

/// The artifact file's `(mtime, len)`, the watcher's change signal.
fn stamp(path: &Path) -> Option<(SystemTime, u64)> {
    let m = std::fs::metadata(path).ok()?;
    Some((m.modified().ok()?, m.len()))
}

/// Poll `cfg.path` and swap in every version that parses. `last` is
/// the stamp of the version already serving.
fn watcher_loop(shared: &Shared, cfg: &ReloadConfig, mut last: Option<(SystemTime, u64)>) {
    loop {
        // Sleep in small steps so a drain is not held up by the poll
        // period.
        let mut slept = Duration::ZERO;
        while slept < cfg.every {
            if shared.draining() {
                return;
            }
            let step = Duration::from_millis(25).min(cfg.every - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let now = stamp(&cfg.path);
        if now.is_none() || now == last {
            continue;
        }
        last = now;
        match std::fs::read_to_string(&cfg.path) {
            Ok(text) => {
                let current = shared.index.load();
                match LookupIndex::from_artifacts(current.shared_db(), current.shared_psl(), &text)
                {
                    Ok(index) => {
                        let shards = index.len();
                        let epoch = shared.index.swap(index);
                        hoiho_obs::counter!("serve.reload.ok").inc();
                        hoiho_obs::progress(format!(
                            "reloaded {} (epoch {epoch}, {shards} shards)",
                            cfg.path.display()
                        ));
                    }
                    Err(e) => {
                        hoiho_obs::counter!("serve.reload.err").inc();
                        eprintln!(
                            "serve: reload of {} failed, keeping old index: {e}",
                            cfg.path.display()
                        );
                    }
                }
            }
            Err(e) => {
                hoiho_obs::counter!("serve.reload.err").inc();
                eprintln!(
                    "serve: cannot read {} for reload, keeping old index: {e}",
                    cfg.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_geodb::GeoDb;
    use hoiho_psl::PublicSuffixList;
    use std::io::{BufRead, BufReader, Read};

    fn test_index() -> LookupIndex {
        let db = Arc::new(GeoDb::builtin());
        let psl = Arc::new(PublicSuffixList::builtin());
        let text = "hoiho-artifacts-v1\n\
                    suffix gtt.net good\n\
                    regex iata ^.+\\.([a-z]{3})\\d+\\.gtt\\.net$\n";
        LookupIndex::from_artifacts(db, psl, text).expect("parse")
    }

    fn boot(limits: ConnLimits) -> Server {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue_cap: 16,
            limits,
            reload: None,
        };
        Server::start(Arc::new(SharedIndex::new(test_index())), &cfg).expect("start")
    }

    fn tight() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(300),
            max_line_bytes: 256,
            max_header_bytes: 512,
            max_body_bytes: 1024,
            max_requests: 3,
            min_bytes_per_sec: 0,
        }
    }

    fn connect(server: &Server) -> TcpStream {
        let s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("rt");
        s
    }

    /// Read to EOF, returning everything the server sent.
    fn slurp(s: &mut TcpStream) -> String {
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
                Err(_) => break,
            }
        }
        out
    }

    #[test]
    fn truncated_request_line_closes_without_response() {
        let server = boot(tight());
        let mut s = connect(&server);
        s.write_all(b"GET /look").expect("write");
        // Half-close: the server sees EOF mid-line and must drop the
        // connection (no partial parse, no hang).
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        assert_eq!(slurp(&mut s), "");
        server.shutdown();
    }

    #[test]
    fn oversized_header_block_is_rejected_with_400() {
        let server = boot(tight());
        let mut s = connect(&server);
        s.write_all(b"GET /healthz HTTP/1.1\r\n").expect("write");
        // Individually-small header lines whose sum blows the block cap.
        for i in 0..16 {
            s.write_all(format!("X-Pad-{i}: {}\r\n", "y".repeat(60)).as_bytes())
                .expect("write");
        }
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("header block too large"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn rejection_reaches_a_peer_that_is_still_writing() {
        let server = boot(tight()); // max_header_bytes: 512
        let mut s = connect(&server);
        s.write_all(b"GET /healthz HTTP/1.1\r\n").expect("write");
        // Go on writing well after the header block cap is blown: the
        // server must keep reading after its 400, so that none of these
        // writes meets a reset and the 400 still arrives.
        for i in 0..32 {
            s.write_all(format!("X-Pad-{i}: {}\r\n", "y".repeat(60)).as_bytes())
                .expect("write");
            std::thread::sleep(Duration::from_millis(5));
        }
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("header block too large"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn oversized_content_length_is_rejected_with_413() {
        let server = boot(tight());
        let mut s = connect(&server);
        s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
            .expect("write");
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn content_length_mismatch_closes_without_a_200() {
        let server = boot(tight());
        let mut s = connect(&server);
        // Promise 100 bytes, deliver 9, half-close.
        s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort.net")
            .expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let resp = slurp(&mut s);
        assert!(!resp.contains("200 OK"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn pipelined_line_requests_each_get_a_response() {
        let server = boot(ConnLimits {
            max_requests: 10,
            ..tight()
        });
        let mut s = connect(&server);
        s.write_all(b"ae1.lhr2.gtt.net\n{\"cmd\":\"ping\"}\nae9.par1.gtt.net\n")
            .expect("write");
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            lines.push(line);
        }
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[1].contains("\"epoch\":1"), "{}", lines[1]);
        assert!(
            lines[2].contains("\"host\":\"ae9.par1.gtt.net\""),
            "{}",
            lines[2]
        );
        server.shutdown();
    }

    #[test]
    fn request_budget_closes_the_connection_after_max_requests() {
        let server = boot(tight()); // max_requests: 3
        let mut s = connect(&server);
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        for _ in 0..3 {
            s.write_all(b"ae1.lhr2.gtt.net\n").expect("write");
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
        }
        // Fourth request: the budget has closed the stream.
        let _ = s.write_all(b"ae1.lhr2.gtt.net\n");
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line}");
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_reaped() {
        let server = boot(tight()); // idle_timeout: 200ms
        let mut s = connect(&server);
        let started = Instant::now();
        assert_eq!(slurp(&mut s), "", "reap closes silently");
        assert!(started.elapsed() < Duration::from_secs(3));
        server.shutdown();
    }

    #[test]
    fn oversized_line_gets_a_protocol_appropriate_error() {
        let server = boot(tight()); // max_line_bytes: 256
                                    // Line protocol: JSON error object.
        let mut s = connect(&server);
        s.write_all("x".repeat(400).as_bytes()).expect("write");
        s.write_all(b"\n").expect("write");
        let resp = slurp(&mut s);
        assert!(resp.contains("request too large"), "{resp}");
        // HTTP: a 400 status line.
        let mut s = connect(&server);
        s.write_all(format!("GET /{} HTTP/1.1\r\n", "y".repeat(400)).as_bytes())
            .expect("write");
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        server.shutdown();
    }
}
