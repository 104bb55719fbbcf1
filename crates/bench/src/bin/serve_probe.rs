//! Minimal client for `hoiho serve` — the CI smoke test's fallback when
//! `curl` is absent, and the canonical line-JSON probe either way.
//!
//! ```text
//! serve_probe --addr HOST:PORT --http "GET /metrics"     # HTTP-lite
//! serve_probe --addr HOST:PORT --line '{"cmd":"ping"}'   # line JSON
//! ```
//!
//! HTTP mode prints the response body and exits 0 only for a 2xx
//! status (mirroring `curl -f`). Line mode sends one request line and
//! prints the one response line. Every socket operation is bounded by
//! `--timeout-ms` (default 5000), so a wedged server fails the probe
//! instead of hanging CI.

use hoiho_bench::support::{read_until_close, Flags};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let flags = Flags::from_env();
    let Some(addr) = flags.value("--addr") else {
        eprintln!("usage: serve_probe --addr HOST:PORT (--http \"METHOD /path\" | --line TEXT) [--timeout-ms N]");
        return ExitCode::from(2);
    };
    let timeout = Duration::from_millis(flags.num("--timeout-ms", 5000).max(1) as u64);
    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_probe: cannot connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(timeout))
        .expect("write timeout");
    match (flags.value("--http"), flags.value("--line")) {
        (Some(req), None) => http(stream, &req),
        (None, Some(line)) => line_json(stream, &line),
        _ => {
            eprintln!("serve_probe: exactly one of --http or --line is required");
            ExitCode::from(2)
        }
    }
}

/// One HTTP-lite exchange: `req` is `"METHOD /path"`; body to stdout,
/// non-2xx (or no parseable status) fails.
fn http(mut stream: TcpStream, req: &str) -> ExitCode {
    let wire = format!("{req} HTTP/1.1\r\nHost: hoiho\r\nConnection: close\r\n\r\n");
    if let Err(e) = stream.write_all(wire.as_bytes()) {
        eprintln!("serve_probe: write failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut raw = Vec::new();
    if let Err(e) = read_until_close(&mut stream, &mut raw) {
        eprintln!("serve_probe: read failed: {e}");
        return ExitCode::FAILURE;
    }
    let raw = String::from_utf8_lossy(&raw);
    let Some((head, body)) = raw.split_once("\r\n\r\n") else {
        eprintln!("serve_probe: no header/body separator in response");
        return ExitCode::FAILURE;
    };
    print!("{body}");
    // Status line: "HTTP/1.1 200 OK".
    let ok = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .is_some_and(|c| (200..300).contains(&c));
    if !ok {
        eprintln!(
            "serve_probe: non-2xx status: {}",
            head.lines().next().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One line-protocol exchange: send `line`, print the one response line.
fn line_json(mut stream: TcpStream, line: &str) -> ExitCode {
    let mut wire = line.to_string();
    wire.push('\n');
    if let Err(e) = stream.write_all(wire.as_bytes()) {
        eprintln!("serve_probe: write failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(0) => {
            eprintln!("serve_probe: server closed without a response");
            ExitCode::FAILURE
        }
        Ok(_) => {
            print!("{resp}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve_probe: read failed: {e}");
            ExitCode::FAILURE
        }
    }
}
