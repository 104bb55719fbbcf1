//! The serve workloads. Both drive a `hoiho serve --threads 2` process
//! on the pinned 200k-router artifact with a seeded stream drawn from
//! the pinned hostname sample, and check every answer byte for byte
//! against the in-process `proto::render_result(LookupIndex::lookup(h))`.
//!
//! - `serve_line_batch32`: closed loop, one persistent line-JSON
//!   connection, 32 hostnames per request.
//! - `serve_http_single`: `GET /lookup?h=…`, one connection per
//!   request, at most `nproc` connections in flight: closed-loop
//!   capacity windows, each followed by an open-loop climb of a fixed
//!   ladder of offered rates.
//!
//! CPU placement (see [`util::CpuPin`]). On `serve_line_batch32` the
//! server and its client share one CPU at a time: one request is in
//! flight, so the server's parallelism cannot show anyway, and on a
//! small virtual machine wake-ups that cross CPUs made that loop vary by
//! a fifth from run to run. On `serve_http_single`, with `nproc`
//! requests in flight, the server gets its own half of the CPUs, so the
//! client's connect and compare work does not take the server's CPU.

use crate::util::{self, digest, wait_child, ChildExit, SplitMix};
use crate::{Ctx, Report};
use hoiho::apply::GeoInference;
use hoiho_baselines::harness::CORRECT_RADIUS_KM;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::Coordinates;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{proto, LookupIndex};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PINNED_DIR: &str = "perfbench/pinned";
/// Hostnames in one cycle of the query stream.
pub const STREAM_LEN: usize = 32_768;
/// Hostnames per line-protocol request.
pub const BATCH: usize = 32;
/// Worker threads of the server under test.
pub const SERVER_THREADS: usize = 2;
/// Server spawns per run; `setup_s` is the median spawn → port-file time.
pub const SETUP_REPEATS: usize = 9;
/// Warm-up before the measured window, not counted in any metric.
const WARMUP: Duration = Duration::from_millis(500);
/// The line workload moves client and server to the next CPU this often.
const ROTATE_S: f64 = 2.0;
/// The line workload's window is cut into slices this long and reports
/// the median slice, so a few seconds in which another tenant of a
/// shared machine slows the CPU do not move the result.
const SLICE_S: f64 = 0.5;
/// Offered rates of the HTTP ladder, requests per second. The top rungs
/// lie above what the server sustains on a 2-vCPU machine, so the
/// highest rate that meets the objective falls inside the ladder.
pub const LADDER: &[f64] = &[
    2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 14000.0, 20000.0, 28000.0, 40000.0,
];
/// Times the HTTP workload cycles through a capacity window and the
/// ladder per run.
pub const HTTP_PASSES: usize = 5;
/// Share of the HTTP workload's window spent in the closed-loop capacity
/// windows; the ladder gets the rest.
const CAPACITY_SHARE: f64 = 0.4;
/// Slices each capacity window is cut into; `throughput_per_s` on
/// `serve_http_single` is the median slice rate over all passes.
const CAPACITY_SLICES: usize = 4;
/// The ladder rates whose visits `latency_ms` reports on
/// `serve_http_single` (4,000–10,000/s): the middle of the ladder, below
/// saturation even while the machine runs slow, so they read service
/// latency rather than queueing.
pub const LATENCY_RUNGS: std::ops::RangeInclusive<usize> = 1..=4;
/// The rate the traced run reads the load generator's lateness at.
pub const LATENCY_RUNG: usize = 2;
/// A rung meets the objective when its p99 is at most this, and its
/// backlog is not growing: about ten times the p99 of a request to an
/// idle server on a 2-vCPU machine (0.1–0.2 ms).
pub const SLO_P99_MS: f64 = 2.0;

/// The benchmark's fixed serve inputs, produced once by `perfbench pin`
/// and verified against `MANIFEST` at load.
pub struct Pinned {
    pub artifact_path: PathBuf,
    pub artifact: String,
    pub hosts: Vec<String>,
    /// The true location of each sampled hostname's router.
    pub truth: Vec<Coordinates>,
}

fn manifest_digest(manifest: &str, file: &str) -> Option<String> {
    manifest.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == file).then(|| f.next()?.strip_prefix("fnv1a64=").map(str::to_string))?
    })
}

pub fn load_pinned() -> Result<Pinned, String> {
    let dir = Path::new(PINNED_DIR);
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("cannot read {}/{name}: {e}", PINNED_DIR))
    };
    let manifest = read("MANIFEST")?;
    let artifact = read("artifact.txt")?;
    let hosts_tsv = read("hosts.tsv")?;
    for (name, text) in [("artifact.txt", &artifact), ("hosts.tsv", &hosts_tsv)] {
        let want = manifest_digest(&manifest, name)
            .ok_or_else(|| format!("MANIFEST has no digest for {name}"))?;
        let got = digest(text.as_bytes());
        if got != want {
            return Err(format!(
                "pinned {name} digest {got} does not match MANIFEST {want}"
            ));
        }
    }
    let mut hosts = Vec::new();
    let mut truth = Vec::new();
    for (i, line) in hosts_tsv.lines().enumerate() {
        let mut f = line.split('\t');
        let (Some(h), Some(lat), Some(lon)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("hosts.tsv line {}: expected host, lat, lon", i + 1));
        };
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("hosts.tsv line {}: bad number", i + 1))
        };
        hosts.push(h.to_string());
        truth.push(Coordinates::new(num(lat)?, num(lon)?));
    }
    if hosts.is_empty() {
        return Err("hosts.tsv is empty".into());
    }
    Ok(Pinned {
        artifact_path: dir.join("artifact.txt"),
        artifact,
        hosts,
        truth,
    })
}

/// The query stream: `STREAM_LEN` indices into the pinned sample, a
/// pure function of the seed.
pub fn query_stream(seed: u64, hosts: usize) -> Vec<u32> {
    let mut rng = SplitMix::new(seed);
    (0..STREAM_LEN)
        .map(|_| rng.below(hosts as u64) as u32)
        .collect()
}

/// The in-process reference: the index the server should be serving,
/// and the exact bytes it should answer for each pinned hostname.
pub struct Reference {
    pub index: LookupIndex,
    pub inferences: Vec<Option<GeoInference>>,
    pub rendered: Vec<String>,
}

pub fn reference(pinned: &Pinned) -> Result<Reference, String> {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let index = LookupIndex::from_artifacts(db, psl, &pinned.artifact)
        .map_err(|e| format!("pinned artifact: {e}"))?;
    let mut scratch = String::new();
    let mut inferences = Vec::with_capacity(pinned.hosts.len());
    let mut rendered = Vec::with_capacity(pinned.hosts.len());
    for h in &pinned.hosts {
        let inf = index.lookup(h, &mut scratch);
        let mut s = String::new();
        proto::render_result(index.db(), h, inf.as_ref(), &mut s);
        inferences.push(inf);
        rendered.push(s);
    }
    Ok(Reference {
        index,
        inferences,
        rendered,
    })
}

/// Answer quality over one cycle of the stream: answered hostnames
/// within 40 km of truth ÷ answered, and answered ÷ asked.
pub fn stream_accuracy(pinned: &Pinned, r: &Reference, stream: &[u32]) -> (f64, f64) {
    let (mut answered, mut tp) = (0usize, 0usize);
    for &i in stream {
        if let Some(inf) = &r.inferences[i as usize] {
            answered += 1;
            let d = r
                .index
                .db()
                .location(inf.location)
                .coords
                .distance_km(&pinned.truth[i as usize]);
            tp += (d <= CORRECT_RADIUS_KM) as usize;
        }
    }
    (
        tp as f64 / answered.max(1) as f64,
        answered as f64 / stream.len() as f64,
    )
}

/// A running `hoiho serve` child. Dropped without [`stop_server`] (an
/// early error or a panic), it is killed and reaped.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub setup_s: f64,
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            let _ = wait_child(child, Instant::now());
        }
    }
}

pub fn spawn_server(ctx: &Ctx, artifact: &Path, tag: usize) -> Result<ServerProc, String> {
    let port_file = ctx.work.join(format!("port-{tag}"));
    let _ = std::fs::remove_file(&port_file);
    let t = Instant::now();
    let child = Command::new(&ctx.hoiho)
        .arg("serve")
        .arg("--artifacts")
        .arg(artifact)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            &SERVER_THREADS.to_string(),
        ])
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", ctx.hoiho.display()))?;
    let limit = t + Duration::from_secs(20);
    loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if let Some(port) = s
                .strip_suffix('\n')
                .and_then(|p| p.trim().parse::<u16>().ok())
            {
                return Ok(ServerProc {
                    child: Some(child),
                    addr: SocketAddr::from(([127, 0, 0, 1], port)),
                    setup_s: t.elapsed().as_secs_f64(),
                });
            }
        }
        if Instant::now() > limit {
            let _ = wait_child(child, Instant::now());
            return Err("hoiho serve did not write its port file within 20 s".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Ask the server to drain over the line protocol and reap it.
pub fn stop_server(mut s: ServerProc) -> Result<ChildExit, String> {
    let ack = TcpStream::connect(s.addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.write_all(b"{\"cmd\":\"shutdown\"}\n")?;
        let mut line = String::new();
        BufReader::new(c).read_line(&mut line)?;
        Ok(line)
    });
    let child = s.child.take().expect("server not yet stopped");
    let exit =
        wait_child(child, Instant::now() + Duration::from_secs(15)).map_err(|e| e.to_string())?;
    match ack {
        Ok(l) if l.contains("\"draining\":true") && exit.ok() => Ok(exit),
        _ => Err(format!("hoiho serve did not drain cleanly: {exit:?}")),
    }
}

/// Spawn the server `SETUP_REPEATS` times, keep the last one running.
pub fn setup_server(ctx: &Ctx, artifact: &Path) -> Result<(ServerProc, f64), String> {
    let mut times = Vec::new();
    for i in 0..SETUP_REPEATS - 1 {
        let s = spawn_server(ctx, artifact, i)?;
        times.push(s.setup_s);
        stop_server(s)?;
    }
    let s = spawn_server(ctx, artifact, SETUP_REPEATS)?;
    times.push(s.setup_s);
    Ok((s, util::median(&times)))
}

fn shared_metrics(
    report: &mut Report,
    setup_s: f64,
    exit: &ChildExit,
    pinned: &Pinned,
    r: &Reference,
    stream: &[u32],
) {
    let (ppv, coverage) = stream_accuracy(pinned, r, stream);
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", exit.peak_rss_mb, "MiB");
    report.metric("ppv", ppv, "ratio");
    report.metric("coverage", coverage, "ratio");
    report.note_num("server_peak_rss_mb", exit.peak_rss_mb);
    report.note_num("server_cpu_s", exit.cpu_s);
    report.note(
        "query_stream_digest",
        format!("\"{}\"", stream_digest(pinned, stream)),
    );
}

pub fn stream_digest(pinned: &Pinned, stream: &[u32]) -> String {
    let mut h = util::Fnv::new();
    for &i in stream {
        h.update(pinned.hosts[i as usize].as_bytes());
        h.update(b"\n");
    }
    h.hex()
}

/// The stream must be a pure function of the seed: build it twice.
pub fn check_stream(report: &mut Report, seed: u64, hosts: usize) -> Vec<u32> {
    let a = query_stream(seed, hosts);
    if a != query_stream(seed, hosts) {
        report.fail("query stream differs between two builds from one seed".into());
    }
    a
}

pub fn run_line(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let pinned = load_pinned()?;
    let r = reference(&pinned)?;
    let stream = check_stream(&mut report, ctx.seed, pinned.hosts.len());
    let batches: Vec<(Vec<u8>, Vec<u8>)> = stream
        .chunks(BATCH)
        .map(|c| {
            let req: Vec<String> = c
                .iter()
                .map(|&i| format!("\"{}\"", proto::json_escape(&pinned.hosts[i as usize])))
                .collect();
            let resp: Vec<&str> = c.iter().map(|&i| r.rendered[i as usize].as_str()).collect();
            (
                format!("{{\"batch\":[{}]}}\n", req.join(",")).into_bytes(),
                format!("{{\"results\":[{}]}}\n", resp.join(",")).into_bytes(),
            )
        })
        .collect();

    let pin = util::pin_cpu(false).map_err(|e| format!("cannot pin to a CPU: {e}"))?;
    report.note_num("cpus_rotated", pin.cpus.len() as f64);
    report.note_num("server_cpus", pin.server_cpus() as f64);
    let (server, setup_s) = setup_server(ctx, &pinned.artifact_path)?;
    let mut reconnects = 0;
    let client_cpu0 = util::self_cpu_s();
    let outcome = line_closed_loop(
        &server,
        &pin,
        &batches,
        ctx.seconds,
        &mut report,
        &mut reconnects,
    );
    report.note_num("reconnects", reconnects as f64);
    let client_cpu_s = util::self_cpu_s() - client_cpu0;
    let exit = stop_server(server)?;
    report.note_num(
        "client_cpu_share",
        client_cpu_s / (client_cpu_s + exit.cpu_s).max(1e-9),
    );
    let done = outcome?;
    if done.is_empty() {
        return Err("no request completed in the measured window".into());
    }
    let slices = (ctx.seconds / SLICE_S).floor().max(1.0) as usize;
    let slice_s = ctx.seconds / slices as f64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at_s, lat) in &done {
        per_slice[((at_s / slice_s) as usize).min(slices - 1)].push(lat);
    }
    let per_slice: Vec<&Vec<f64>> = per_slice.iter().filter(|s| !s.is_empty()).collect();
    let rates: Vec<f64> = per_slice
        .iter()
        .map(|s| (s.len() * BATCH) as f64 / slice_s)
        .collect();
    let slice_p50: Vec<f64> = per_slice.iter().map(|s| util::median(s)).collect();
    let lat_us: Vec<f64> = done.iter().map(|d| d.1).collect();
    let lookups = util::median(&rates);
    let p50 = util::median(&slice_p50);
    let p99 = util::quantile(&lat_us, 0.99);
    shared_metrics(&mut report, setup_s, &exit, &pinned, &r, &stream);
    report.metric("throughput_per_s", lookups, "1/s");
    report.metric("latency_ms", p50 / 1e3, "ms");
    report.note_num("lookups_per_s", lookups);
    report.note_num("request_p50_us", p50);
    report.note_num("request_p99_us", p99);
    report.note_num("requests_measured", lat_us.len() as f64);
    report.note_num(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}

/// One persistent connection, one request in flight: a warm-up, then
/// `seconds` of measured requests. Returns, for each request answered
/// correctly in the window, when it completed (seconds into the window)
/// and its latency (µs).
fn line_closed_loop(
    server: &ServerProc,
    pin: &util::CpuPin,
    batches: &[(Vec<u8>, Vec<u8>)],
    seconds: f64,
    report: &mut Report,
    reconnects: &mut u64,
) -> Result<Vec<(f64, f64)>, String> {
    let addr = server.addr;
    let connect = || -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let r = BufReader::with_capacity(1 << 16, s.try_clone()?);
        Ok((s, r))
    };
    let (mut w, mut rd) = connect().map_err(|e| format!("connect {addr}: {e}"))?;
    let mut line = Vec::with_capacity(1 << 14);
    let mut done = Vec::with_capacity(1 << 20);
    let window = Instant::now() + WARMUP;
    let mut i = 0usize;
    let mut turn = None;
    loop {
        let now = Instant::now();
        let measuring = now >= window;
        let into = now.saturating_duration_since(window).as_secs_f64();
        if measuring && into >= seconds {
            return Ok(done);
        }
        let t = (into / ROTATE_S) as usize;
        if turn != Some(t) {
            pin.rotate(t, server.pid())
                .map_err(|e| format!("cannot move to a CPU: {e}"))?;
            turn = Some(t);
        }
        let (req, want) = &batches[i % batches.len()];
        i += 1;
        report.attempted += 1;
        line.clear();
        let t = Instant::now();
        let mut io = w
            .write_all(req)
            .and_then(|_| rd.read_until(b'\n', &mut line));
        if line.is_empty() && !matches!(io, Ok(n) if n > 0) {
            // The server closed the connection between requests (its
            // per-connection request budget): reconnect, resend once.
            *reconnects += 1;
            (w, rd) = connect().map_err(|e| format!("reconnect {addr}: {e}"))?;
            io = w
                .write_all(req)
                .and_then(|_| rd.read_until(b'\n', &mut line));
        }
        let end = Instant::now();
        match io {
            Ok(_) if line == *want => {
                if measuring {
                    done.push((
                        end.duration_since(window).as_secs_f64(),
                        (end - t).as_secs_f64() * 1e6,
                    ));
                }
            }
            Ok(_) => {
                report.failed += 1;
                if report.failed <= 3 {
                    report.fail(format!(
                        "line response {i} differs from the in-process answer: {}",
                        String::from_utf8_lossy(&line[..line.len().min(200)])
                    ));
                }
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("line request {i}: {e}"));
                (w, rd) = connect().map_err(|e| format!("reconnect {addr}: {e}"))?;
            }
        }
    }
}

/// One HTTP request/response pair of the stream.
pub struct HttpCase {
    pub request: Vec<u8>,
    pub expected: Vec<u8>,
}

pub fn http_cases(pinned: &Pinned, r: &Reference, stream: &[u32]) -> Vec<HttpCase> {
    stream
        .iter()
        .map(|&i| {
            let h = &pinned.hosts[i as usize];
            HttpCase {
                request: format!("GET /lookup?h={h} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
                    .into_bytes(),
                expected: proto::http_response(
                    "200 OK",
                    "application/json",
                    &format!("{}\n", r.rendered[i as usize]),
                ),
            }
        })
        .collect()
}

/// Send one request on its own connection and read the whole reply.
pub fn http_exchange(addr: SocketAddr, request: &[u8], buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(request)?;
    s.read_to_end(buf)?;
    Ok(())
}

/// What one open-loop rung observed.
pub struct Rung {
    pub rate: f64,
    pub sent: usize,
    pub failed: usize,
    /// Latency of every request, µs, in due order. The clock starts
    /// when the request was due if a connection slot was not free by
    /// then (the wait a backlog imposes), else when the generator woke
    /// to send it. Failures are infinite, so they miss any limit.
    pub lat_us: Vec<f64>,
    /// How long each request waited for a free connection slot past
    /// its due time, µs, in due order.
    pub wait_us: Vec<f64>,
    /// How late the generator woke for requests that found a slot free,
    /// µs: the load generator's own timing error.
    pub gen_late_us: Vec<f64>,
    /// Completed requests per second of the rung.
    pub delivered: f64,
}

impl Rung {
    /// Whether this rung meets the latency objective without a growing
    /// backlog (its last tenth of requests did not wait for a slot).
    pub fn in_slo(&self) -> bool {
        if self.lat_us.is_empty() {
            return false;
        }
        let tail = &self.wait_us[self.wait_us.len() * 9 / 10..];
        util::quantile(&self.lat_us, 0.99) <= SLO_P99_MS * 1e3
            && (tail.is_empty() || util::median(tail) <= SLO_P99_MS * 1e3)
    }
}

/// One request as a load-generator thread saw it.
struct Sample {
    k: usize,
    lat_us: f64,
    wait_us: f64,
    gen_late_us: Option<f64>,
}

/// Offer `rate` requests/s for `dur`, each due at a fixed time, with at
/// most `workers` connections in flight. `next` is the running position
/// in `cases`, shared across rungs so every rung sees fresh hostnames.
pub fn open_loop(
    addr: SocketAddr,
    cases: &[HttpCase],
    next: &AtomicUsize,
    rate: f64,
    dur: Duration,
    workers: usize,
    mismatches: &mut Vec<String>,
) -> Rung {
    let base = next.load(Ordering::Relaxed);
    let claimed = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + dur;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let per: Vec<(Vec<Sample>, Vec<String>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let claimed = &claimed;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut bad = Vec::new();
                    let mut buf = Vec::with_capacity(512);
                    let mut last = t0;
                    loop {
                        let k = claimed.fetch_add(1, Ordering::Relaxed);
                        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                        if due >= end {
                            break;
                        }
                        let free = Instant::now();
                        let (start, gen_late_us) = if free >= due {
                            (due, None)
                        } else {
                            std::thread::sleep(due - free);
                            let woke = Instant::now();
                            (woke, Some(us(woke - due)))
                        };
                        let wait_us = us(free.saturating_duration_since(due));
                        let case = &cases[(base + k) % cases.len()];
                        let io = http_exchange(addr, &case.request, &mut buf);
                        last = Instant::now();
                        let lat_us = match io {
                            Ok(()) if buf == case.expected => us(last - start),
                            Ok(()) => {
                                bad.push(format!(
                                    "http response differs from the in-process answer: {}",
                                    String::from_utf8_lossy(&buf[..buf.len().min(200)])
                                ));
                                f64::INFINITY
                            }
                            Err(e) => {
                                bad.push(format!("http request: {e}"));
                                f64::INFINITY
                            }
                        };
                        out.push(Sample {
                            k,
                            lat_us,
                            wait_us,
                            gen_late_us,
                        });
                    }
                    (out, bad, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut last = t0;
    let mut failed = 0;
    for (s, bad, l) in per {
        failed += bad.len();
        mismatches.extend(bad);
        last = last.max(l);
        samples.extend(s);
    }
    // Due order, so the backlog check reads the end of the rung.
    samples.sort_by_key(|s| s.k);
    let sent = samples.len();
    next.fetch_add(sent, Ordering::Relaxed);
    let span = last.duration_since(t0).as_secs_f64().max(dur.as_secs_f64());
    Rung {
        rate,
        sent,
        failed,
        lat_us: samples.iter().map(|s| s.lat_us).collect(),
        wait_us: samples.iter().map(|s| s.wait_us).collect(),
        gen_late_us: samples.iter().filter_map(|s| s.gen_late_us).collect(),
        delivered: (sent - failed) as f64 / span,
    }
}

/// Closed loop at capacity: `conns` clients, each sending its next
/// one-connection request as soon as its last one is answered, for
/// `dur`. `next` is the running position in `cases`. Returns when each
/// correct answer arrived (seconds after the start) and how many
/// requests were sent.
pub fn capacity(
    addr: SocketAddr,
    cases: &[HttpCase],
    next: &AtomicUsize,
    dur: Duration,
    conns: usize,
    mismatches: &mut Vec<String>,
) -> (Vec<f64>, usize) {
    let t0 = Instant::now();
    let end = t0 + dur;
    let per: Vec<(Vec<f64>, usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || {
                    let (mut done, mut sent, mut bad) = (Vec::new(), 0, Vec::new());
                    let mut buf = Vec::with_capacity(512);
                    while Instant::now() < end {
                        let case = &cases[next.fetch_add(1, Ordering::Relaxed) % cases.len()];
                        sent += 1;
                        match http_exchange(addr, &case.request, &mut buf) {
                            Ok(()) if buf == case.expected => {
                                done.push(t0.elapsed().as_secs_f64());
                            }
                            Ok(()) => bad.push(format!(
                                "http response differs from the in-process answer: {}",
                                String::from_utf8_lossy(&buf[..buf.len().min(200)])
                            )),
                            Err(e) => bad.push(format!("http request: {e}")),
                        }
                    }
                    (done, sent, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity client thread panicked"))
            .collect()
    });
    let (mut done, mut sent) = (Vec::new(), 0);
    for (d, n, bad) in per {
        done.extend(d);
        sent += n;
        mismatches.extend(bad);
    }
    (done, sent)
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn run_http(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let pinned = load_pinned()?;
    let r = reference(&pinned)?;
    let stream = check_stream(&mut report, ctx.seed, pinned.hosts.len());
    let cases = http_cases(&pinned, &r, &stream);
    let in_flight = workers();
    let pin = util::pin_cpu(true).map_err(|e| format!("cannot pin to a CPU: {e}"))?;
    report.note_num("cpus_rotated", pin.cpus.len() as f64);
    report.note_num("server_cpus", pin.server_cpus() as f64);
    report.note_num("connections_in_flight_max", in_flight as f64);
    let (server, setup_s) = setup_server(ctx, &pinned.artifact_path)?;
    let next = AtomicUsize::new(0);
    let mut mismatches = Vec::new();
    let client_cpu0 = util::self_cpu_s();
    pin.rotate(0, server.pid())
        .map_err(|e| format!("cannot move to a CPU: {e}"))?;
    let warm = open_loop(
        server.addr,
        &cases,
        &next,
        LADDER[0],
        WARMUP,
        in_flight,
        &mut mismatches,
    );
    report.attempted += warm.sent as u64;
    report.failed += warm.failed as u64;
    // Each pass is a capacity window, then one climb of the ladder. A
    // rate meets the objective when one of its visits does, and the
    // timing metrics are medians over slices and visits, so a stretch of
    // interference from other tenants of the machine spoils one pass,
    // not the run.
    let pass_s = ctx.seconds / HTTP_PASSES as f64;
    let cap_dur = Duration::from_secs_f64(pass_s * CAPACITY_SHARE);
    let slice_s = cap_dur.as_secs_f64() / CAPACITY_SLICES as f64;
    let dur = Duration::from_secs_f64(pass_s * (1.0 - CAPACITY_SHARE) / LADDER.len() as f64);
    let mut cap_rates = Vec::new();
    let mut visits: Vec<Vec<Rung>> = LADDER.iter().map(|_| Vec::new()).collect();
    for pass in 0..HTTP_PASSES {
        pin.rotate(pass, server.pid())
            .map_err(|e| format!("cannot move to a CPU: {e}"))?;
        let before = mismatches.len();
        let (done, sent) = capacity(
            server.addr,
            &cases,
            &next,
            cap_dur,
            in_flight,
            &mut mismatches,
        );
        report.attempted += sent as u64;
        report.failed += (mismatches.len() - before) as u64;
        let mut per_slice = [0usize; CAPACITY_SLICES];
        for at in done {
            per_slice[((at / slice_s) as usize).min(CAPACITY_SLICES - 1)] += 1;
        }
        cap_rates.extend(per_slice.iter().map(|&n| n as f64 / slice_s));
        std::thread::sleep(Duration::from_millis(20));
        for (i, &rate) in LADDER.iter().enumerate() {
            let rung = open_loop(
                server.addr,
                &cases,
                &next,
                rate,
                dur,
                in_flight,
                &mut mismatches,
            );
            report.attempted += rung.sent as u64;
            report.failed += rung.failed as u64;
            visits[i].push(rung);
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let client_cpu_s = util::self_cpu_s() - client_cpu0;
    let exit = stop_server(server)?;
    for m in mismatches.iter().take(3) {
        report.fail(m.clone());
    }
    shared_metrics(&mut report, setup_s, &exit, &pinned, &r, &stream);
    report.note_num(
        "client_cpu_share",
        client_cpu_s / (client_cpu_s + exit.cpu_s).max(1e-9),
    );
    let best = visits.iter().rev().find_map(|v| {
        v.iter()
            .filter(|g| g.in_slo())
            .max_by(|a, b| a.delivered.total_cmp(&b.delivered))
    });
    // Each visit's p50, then the median visit: one visit spoiled by a
    // slow stretch of the machine does not move it.
    let mid = &visits[LATENCY_RUNGS];
    let mid_p50: Vec<f64> = mid
        .iter()
        .flatten()
        .map(|g| util::quantile(&g.lat_us, 0.5))
        .collect();
    let mid_p99: Vec<f64> = mid
        .iter()
        .flatten()
        .map(|g| util::quantile(&g.lat_us, 0.99))
        .collect();
    let p50 = util::median(&mid_p50);
    let capacity_rps = util::median(&cap_rates);
    report.metric("throughput_per_s", capacity_rps, "1/s");
    report.metric("latency_ms", p50 / 1e3, "ms");
    report.note_num("capacity_rps", capacity_rps);
    // 0 when no visit to any rate met the objective.
    report.note_num("max_rate_in_slo_rps", best.map_or(0.0, |g| g.rate));
    report.note_num(
        "max_rate_in_slo_delivered_rps",
        best.map_or(0.0, |g| g.delivered),
    );
    report.note_num("request_p50_us", p50);
    report.note_num("request_p99_us_median_visit", util::median(&mid_p99));
    report.note_num(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let ladder: Vec<String> = visits
        .iter()
        .flatten()
        .map(|g| {
            format!(
                "{{\"rate\":{},\"sent\":{},\"failed\":{},\"delivered\":{},\"p50_us\":{},\"p99_us\":{},\"wait_p99_us\":{},\"gen_late_p99_us\":{},\"in_slo\":{}}}",
                g.rate,
                g.sent,
                g.failed,
                crate::json_num(g.delivered),
                crate::json_num(util::quantile(&g.lat_us, 0.5)),
                crate::json_num(util::quantile(&g.lat_us, 0.99)),
                crate::json_num(util::quantile(&g.wait_us, 0.99)),
                crate::json_num(util::quantile(&g.gen_late_us, 0.99)),
                g.in_slo()
            )
        })
        .collect();
    report.note("ladder", format!("[{}]", ladder.join(",")));
    Ok(report)
}
