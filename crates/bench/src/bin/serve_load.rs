//! Deterministic load generator for the `hoiho serve` lookup service.
//!
//! Boots an in-process server (corpus → learn → artifacts → index),
//! hammers it over real TCP connections with the line-JSON batch
//! protocol, and records client-observed throughput and latency
//! quantiles as one JSON object (stdout, plus `--out FILE` — the
//! `BENCH_serve.json` baseline comes from here).
//!
//! Mid-run the artifact file is rewritten (forcing a hot reload) and
//! then corrupted (forcing a rejected reload); both must complete with
//! **zero** failed client requests, which is the point of the epoch-swap
//! design. The workload is deterministic: hostname selection uses the
//! workspace xoshiro PRNG with a fixed seed, so two runs issue the same
//! request stream (timings, of course, differ).
//!
//! ```text
//! serve_load [--routers N] [--seed S] [--clients N] [--threads N]
//!            [--batch N] [--requests N] [--no-reload] [--out FILE]
//!            [--addr HOST:PORT]
//! ```
//!
//! `--addr` targets an already-running server instead of booting one
//! (the reload exercise is skipped — the file is not ours to touch).

use hoiho_bench::quantile;
use hoiho_bench::support::{push_batch, Flags, ServeFixture};
use hoiho_rtt::rng::{Rng, StdRng};
use hoiho_serve::{ConnLimits, ReloadConfig, ServeConfig, Server, SharedIndex};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    routers: usize,
    seed: u64,
    clients: usize,
    threads: usize,
    batch: usize,
    requests: usize,
    reload: bool,
    out: Option<String>,
    addr: Option<String>,
}

fn parse_args() -> Args {
    let f = Flags::from_env();
    Args {
        routers: f.num("--routers", 4000),
        seed: f.num("--seed", 7) as u64,
        clients: f.num("--clients", 4),
        threads: f.num("--threads", 4),
        batch: f.num("--batch", 8).max(1),
        requests: f.num("--requests", 20_000),
        reload: !f.has("--no-reload"),
        out: f.value("--out"),
        addr: f.value("--addr"),
    }
}

/// One client's tally.
#[derive(Default)]
struct ClientStats {
    latency_us: Vec<f64>,
    hits: u64,
    lookups: u64,
    errors: u64,
}

fn main() {
    let args = parse_args();
    // Corpus: the hostname pool the clients draw from (and, when we run
    // the server ourselves, the training set for its artifacts).
    let fixture = ServeFixture::generate(args.routers, args.seed);

    // Either boot an in-process server on an ephemeral port or target
    // an external one.
    let mut server = None;
    let mut artifact_path = None;
    let reload = args.reload && args.addr.is_none();
    let addr = match &args.addr {
        Some(a) => a.clone(),
        None => {
            let learned = fixture.learn("serve-load");
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: args.threads,
                queue_cap: 128,
                limits: ConnLimits {
                    read_timeout: Duration::from_secs(10),
                    idle_timeout: Duration::from_secs(10),
                    ..ConnLimits::default()
                },
                reload: reload.then(|| ReloadConfig {
                    path: learned.path.clone(),
                    every: Duration::from_millis(30),
                }),
            };
            let s = Server::start(Arc::new(SharedIndex::new(learned.index)), &cfg).expect("bind");
            let a = s.local_addr().to_string();
            server = Some(s);
            artifact_path = Some((learned.path, learned.text));
            a
        }
    };

    // Fixed total request count, spread over the clients; hostname
    // selection is seeded per client, so the request stream is
    // reproducible run to run.
    let done = Arc::new(AtomicUsize::new(0));
    let hosts = Arc::new(fixture.hosts);
    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..args.clients {
        let n = args.requests / args.clients
            + if c < args.requests % args.clients {
                1
            } else {
                0
            };
        let hosts = Arc::clone(&hosts);
        let done = Arc::clone(&done);
        let addr = addr.clone();
        let batch = args.batch;
        let seed = args.seed ^ (0xC11E57 + c as u64);
        workers.push(
            std::thread::Builder::new()
                .name(format!("load-client-{c}"))
                .spawn(move || client_loop(&addr, &hosts, seed, n, batch, &done))
                .expect("spawn client"),
        );
    }

    // The reload exercise: a benign rewrite at ~1/3 of the run (epoch
    // must advance), a corrupt rewrite at ~2/3 (epoch must NOT advance,
    // the old index keeps serving). Zero client errors either way.
    if reload {
        let (path, text) = artifact_path.as_ref().expect("in-process mode");
        let shared = server.as_ref().expect("in-process mode").index();
        let wait_until = |target: usize| {
            while done.load(Ordering::Relaxed) < target {
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        wait_until(args.requests / 3);
        std::fs::write(path, text).expect("rewrite artifacts");
        // Let the good reload land before corrupting the file —
        // otherwise a fast run overwrites it within one poll period and
        // the watcher only ever sees the corrupt version.
        let deadline = Instant::now() + Duration::from_secs(3);
        while shared.epoch() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until(args.requests * 2 / 3);
        std::fs::write(path, "hoiho-artifacts-v1\nsuffix broken.net\n").expect("corrupt artifacts");
    }

    let mut total = ClientStats::default();
    for w in workers {
        let s = w.join().expect("client thread");
        total.latency_us.extend_from_slice(&s.latency_us);
        total.hits += s.hits;
        total.lookups += s.lookups;
        total.errors += s.errors;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Settle and verify the reload outcome before tearing down.
    let (mut reload_ok, mut reload_err, mut epoch) = (0, 0, 0);
    if let Some(s) = server {
        if reload {
            let deadline = Instant::now() + Duration::from_secs(3);
            while Instant::now() < deadline {
                let c = hoiho_obs::global().snapshot().counters;
                if c.get("serve.reload.err").copied().unwrap_or(0) >= 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let counters = hoiho_obs::global().snapshot().counters;
        reload_ok = counters.get("serve.reload.ok").copied().unwrap_or(0);
        reload_err = counters.get("serve.reload.err").copied().unwrap_or(0);
        epoch = s.index().epoch();
        s.shutdown();
    }
    if let Some((path, _)) = &artifact_path {
        std::fs::remove_file(path).ok();
    }

    let ms = |q| quantile(&total.latency_us, q) / 1e3;
    let record = format!(
        "{{\"bench\":\"serve_load\",\"seed\":{},\"routers\":{},\"clients\":{},\
         \"server_threads\":{},\"batch\":{},\"requests\":{},\"lookups\":{},\
         \"hits\":{},\"errors\":{},\"elapsed_s\":{:.3},\"lookups_per_sec\":{:.1},\
         \"latency_ms\":{{\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3},\"max\":{:.3}}},\
         \"reload\":{{\"exercised\":{},\"ok\":{},\"err\":{},\"epoch\":{}}}}}",
        args.seed,
        args.routers,
        args.clients,
        args.threads,
        args.batch,
        args.requests,
        total.lookups,
        total.hits,
        total.errors,
        elapsed,
        total.lookups as f64 / elapsed,
        ms(0.5),
        ms(0.9),
        ms(0.99),
        ms(1.0),
        reload,
        reload_ok,
        reload_err,
        epoch,
    );
    println!("{record}");
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{record}\n")).expect("write --out");
        eprintln!("wrote {out}");
    }

    // Hard checks: the epoch-swap design promises no failed requests
    // across both reloads, and the corrupt file must have been rejected
    // while the good one swapped in.
    let mut failed = Vec::new();
    if total.errors > 0 {
        failed.push(format!("{} client requests failed", total.errors));
    }
    if reload {
        if epoch < 2 || reload_ok < 1 {
            failed.push(format!("hot reload never landed (epoch {epoch})"));
        }
        if reload_err < 1 {
            failed.push("corrupt reload was not rejected".to_string());
        }
    }
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Drive one persistent connection: `n` batch requests of `batch`
/// hostnames each, drawn deterministically from `hosts`.
fn client_loop(
    addr: &str,
    hosts: &[String],
    seed: u64,
    n: usize,
    batch: usize,
    done: &AtomicUsize,
) -> ClientStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = ClientStats::default();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            stats.errors = n as u64;
            return stats;
        }
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut req = String::new();
    let mut resp = String::new();
    stats.latency_us.reserve(n);
    for _ in 0..n {
        req.clear();
        if batch == 1 {
            // A bare hostname line is the cheapest lookup form.
            req.push_str(&hosts[rng.random_range(0..hosts.len())]);
        } else {
            push_batch(
                &mut req,
                (0..batch).map(|_| hosts[rng.random_range(0..hosts.len())].as_str()),
            );
        }
        req.push('\n');
        let t = Instant::now();
        resp.clear();
        let ok = writer.write_all(req.as_bytes()).is_ok()
            && reader.read_line(&mut resp).is_ok_and(|r| r > 0);
        if !ok {
            stats.errors += 1;
            break;
        }
        stats.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        stats.lookups += batch as u64;
        stats.hits += resp.matches("\"ok\":true").count() as u64;
        done.fetch_add(1, Ordering::Relaxed);
    }
    stats
}
