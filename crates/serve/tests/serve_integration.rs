//! End-to-end service tests: a real listener on an ephemeral port,
//! both protocols, load shedding, artifact hot reload (including a
//! corrupt reload), and graceful drain.

use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{ConnLimits, LookupIndex, ReloadConfig, ServeConfig, Server, SharedIndex};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn artifacts(suffixes: &[&str]) -> String {
    let mut text = String::from("hoiho-artifacts-v1\n");
    for s in suffixes {
        text.push_str(&format!(
            "suffix {s} good\nregex iata ^.+\\.([a-z]{{3}})\\d+\\.{}$\n",
            s.replace('.', "\\.")
        ));
    }
    text
}

fn index_for(suffixes: &[&str]) -> LookupIndex {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    LookupIndex::from_artifacts(db, psl, &artifacts(suffixes)).expect("artifacts parse")
}

fn start(cfg: &ServeConfig, suffixes: &[&str]) -> Server {
    Server::start(Arc::new(SharedIndex::new(index_for(suffixes))), cfg).expect("bind")
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Send one line, read one line back.
fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    out
}

/// One-shot HTTP request; returns (status line, body).
fn http(server: &Server, request: &str) -> (String, String) {
    let mut stream = connect(server);
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Held by every test that can count `serve.reject.malformed`, so one
/// of them can assert the counter's exact moves.
static MALFORMED: Mutex<()> = Mutex::new(());

fn malformed_count() -> u64 {
    hoiho_obs::global().counter("serve.reject.malformed").get()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hoiho-serve-test-{}-{name}", std::process::id()))
}

#[test]
fn line_protocol_single_batch_malformed() {
    let _serial = MALFORMED.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(&ServeConfig::default(), &["gtt.net", "zayo.com"]);
    let mut conn = connect(&server);

    // Single lookup, JSON form.
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.gtt.net"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains("London"), "{r}");
    assert!(r.contains(r#""suffix":"gtt.net""#), "{r}");

    // Bare-hostname form on the same connection (persistent).
    let r = roundtrip(&mut conn, "ae1.lhr2.zayo.com");
    assert!(r.contains(r#""ok":true"#), "{r}");

    // Unknown suffix and non-matching shape miss, not error.
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.unknown.org"}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");

    // Batch: one line back, results in order.
    let r = roundtrip(
        &mut conn,
        r#"{"batch":["ae1.lhr2.gtt.net","nomatch.gtt.net","ae1.sfo3.gtt.net"]}"#,
    );
    assert!(r.starts_with(r#"{"results":["#), "{r}");
    assert_eq!(r.matches("\"host\"").count(), 3, "{r}");
    assert_eq!(r.matches(r#""ok":true"#).count(), 2, "{r}");

    // Malformed JSON answers an error object and keeps the connection.
    let r = roundtrip(&mut conn, r#"{"lookup":}"#);
    assert!(r.starts_with(r#"{"error":"#), "{r}");
    let r = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
    assert!(r.contains(r#""epoch":1"#), "{r}");

    drop(conn);
    server.shutdown();
}

#[test]
fn http_front_end() {
    let _serial = MALFORMED.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(&ServeConfig::default(), &["gtt.net"]);

    let (status, body) = http(
        &server,
        "GET /lookup?h=ae1.lhr2.gtt.net HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("London"), "{body}");

    let (status, body) = http(&server, "GET /lookup HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("missing h parameter"), "{body}");

    let payload = "ae1.lhr2.gtt.net\nnomatch.gtt.net\n";
    let (status, body) = http(
        &server,
        &format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        ),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body.matches("\"host\"").count(), 2, "{body}");

    let (status, body) = http(&server, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains(r#""epoch":1"#), "{body}");

    let (status, body) = http(&server, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("hoiho_serve_epoch 1"), "{body}");
    assert!(body.contains("hoiho_serve_shards 1"), "{body}");

    let (status, _) = http(&server, "GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    server.shutdown();
}

#[test]
fn both_protocols_answer_from_one_core() {
    let _serial = MALFORMED.lock().unwrap_or_else(|e| e.into_inner());
    let server = start(&ServeConfig::default(), &["gtt.net", "zayo.com"]);
    let mut conn = connect(&server);

    // Hit, miss, uppercase, unknown suffix: the line answer is the HTTP
    // body, byte for byte.
    let hosts = [
        "ae1.lhr2.gtt.net",
        "nomatch.gtt.net",
        "AE1.SFO3.ZAYO.COM",
        "ae1.lhr2.unknown.org",
    ];
    for h in hosts {
        let line = roundtrip(&mut conn, &format!(r#"{{"lookup":"{h}"}}"#));
        let (status, body) = http(&server, &format!("GET /lookup?h={h} HTTP/1.1\r\n\r\n"));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(line, body, "{h}");
    }

    let quoted: Vec<String> = hosts.iter().map(|h| format!("\"{h}\"")).collect();
    let line = roundtrip(&mut conn, &format!(r#"{{"batch":[{}]}}"#, quoted.join(",")));
    let payload = hosts.join("\n");
    let (status, body) = http(
        &server,
        &format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        ),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(line, body);
    assert_eq!(body.matches(r#""ok":true"#).count(), 2, "{body}");

    let line = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
    let (status, body) = http(&server, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(line, body);

    // The one counter the shared core changed: a missing `h` is a
    // malformed request on HTTP too, counted like a malformed line.
    let before = malformed_count();
    let (status, body) = http(&server, "GET /lookup HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert_eq!(body, "{\"error\":\"missing h parameter\"}\n");
    assert_eq!(malformed_count(), before + 1);
    let line = roundtrip(&mut conn, r#"{"lookup":}"#);
    assert!(line.starts_with(r#"{"error":"#), "{line}");
    assert_eq!(malformed_count(), before + 2);

    server.shutdown();
}

#[test]
fn drain_closes_idle_keep_alive_connections() {
    // The default idle window is 30 s; the drain must not wait it out.
    let server = start(&ServeConfig::default(), &["gtt.net"]);
    let mut conn = connect(&server);
    let r = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
    assert!(r.contains(r#""epoch":1"#), "{r}");

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    let mut rest = String::new();
    assert_eq!(conn.read_to_string(&mut rest).expect("closed"), 0);
}

#[test]
fn drain_still_answers_a_connection_accepted_before_it() {
    // A connection accepted before the drain whose request arrives
    // after it is answered: only connections idle *between* requests
    // are cut.
    let cfg = ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    };
    let server = start(&cfg, &["gtt.net"]);
    let mut early = connect(&server);
    let mut admin = connect(&server);
    assert!(roundtrip(&mut admin, r#"{"cmd":"ping"}"#).contains(r#""ok":true"#));
    let r = roundtrip(&mut admin, r#"{"cmd":"shutdown"}"#);
    assert!(r.contains(r#""draining":true"#), "{r}");
    std::thread::sleep(Duration::from_millis(300));
    let r = roundtrip(&mut early, r#"{"cmd":"ping"}"#);
    assert!(r.contains(r#""epoch":1"#), "{r}");
    server.wait();
}

#[test]
fn overload_sheds_with_503() {
    // One worker, queue of one. Jam the worker with a connection that
    // sends nothing; the next connection fills the queue; further ones
    // must be shed explicitly rather than queued or stalled.
    let cfg = ServeConfig {
        threads: 1,
        queue_cap: 1,
        limits: ConnLimits {
            idle_timeout: Duration::from_secs(2),
            ..ConnLimits::default()
        },
        ..ServeConfig::default()
    };
    let server = start(&cfg, &["gtt.net"]);

    let jam = connect(&server);
    std::thread::sleep(Duration::from_millis(200)); // worker picks jam up
    let queued = connect(&server);
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = connect(&server);
    let mut got = String::new();
    shed.read_to_string(&mut got).expect("read shed response");
    assert!(got.starts_with("HTTP/1.1 503"), "{got}");
    assert!(got.contains(r#"{"error":"overloaded"}"#), "{got}");

    // The jammed and queued connections still work once the worker
    // frees up.
    drop(jam);
    let mut queued = queued;
    let r = roundtrip(&mut queued, r#"{"lookup":"ae1.lhr2.gtt.net"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    drop(queued);
    server.shutdown();
}

#[test]
fn hot_reload_swaps_epoch_and_survives_corruption() {
    let path = tmp("reload-artifacts.txt");
    std::fs::write(&path, artifacts(&["gtt.net"])).unwrap();
    let cfg = ServeConfig {
        reload: Some(ReloadConfig {
            path: path.clone(),
            every: Duration::from_millis(50),
        }),
        ..ServeConfig::default()
    };
    let server = start(&cfg, &["gtt.net"]);
    let mut conn = connect(&server);

    // Not served yet: zayo.com is not in epoch 1.
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");

    // Rewrite the artifact file; the watcher must swap it in.
    std::fs::write(&path, artifacts(&["gtt.net", "zayo.com"])).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.index().epoch() < 2 {
        assert!(Instant::now() < deadline, "reload never happened");
        std::thread::sleep(Duration::from_millis(20));
    }
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    // Corrupt the file: a truncated block must fail loudly in the
    // watcher and keep the old index serving.
    std::fs::write(&path, "hoiho-artifacts-v1\nsuffix broken.net good\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = http(&server, "GET /metrics HTTP/1.1\r\n\r\n");
        if body.contains("hoiho_serve_reload_err 1") {
            break;
        }
        assert!(Instant::now() < deadline, "corrupt reload never reported");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.index().epoch(), 2, "corrupt file must not swap");
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":true"#), "old index keeps serving: {r}");

    drop(conn);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn protocol_shutdown_drains_gracefully() {
    let cfg = ServeConfig {
        limits: ConnLimits {
            read_timeout: Duration::from_secs(1),
            ..ConnLimits::default()
        },
        ..ServeConfig::default()
    };
    let server = start(&cfg, &["gtt.net"]);
    let addr = server.local_addr();

    let mut conn = connect(&server);
    let r = roundtrip(&mut conn, r#"{"cmd":"shutdown"}"#);
    assert!(r.contains(r#""draining":true"#), "{r}");
    drop(conn);

    // wait() returns: every thread exited.
    server.wait();

    // The listener is gone — a fresh connect must fail (or be reset
    // immediately), not hang.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = String::new();
            // Closed or shed immediately; never a successful lookup.
            let _ = s.write_all(b"{\"cmd\":\"ping\"}\n");
            let n = s.read_to_string(&mut buf).unwrap_or(0);
            assert!(n == 0 || buf.starts_with("HTTP/1.1 503"), "{buf}");
        }
    }
}
