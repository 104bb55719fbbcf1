//! Per-connection robustness limits and the bounded, deadline-aware
//! reader that enforces them.
//!
//! The server's threat model is a faulty or hostile peer, not a fast
//! one: a client that connects and never speaks, trickles one byte per
//! poll interval (slowloris), sends a gigabyte-long "line", or declares
//! a `Content-Length` it never delivers. Plain `BufReader::read_line`
//! defends against none of these — every byte resets `SO_RCVTIMEO` and
//! the buffer grows without bound. [`ConnReader`] replaces it with
//! explicit policy:
//!
//! - **idle window** — a connection (or a keep-alive gap between
//!   requests) may be silent for at most [`ConnLimits::idle_timeout`]
//!   before it is reaped.
//! - **completion deadline** — once the first byte of a request
//!   arrives, the whole line/body must complete within
//!   [`ConnLimits::read_timeout`], no matter how steadily bytes
//!   trickle in. HTTP handlers additionally pass one *hard* deadline
//!   covering request line + headers + body, so a peer cannot reset
//!   the clock per header line.
//! - **byte-rate floor** — after a short grace period, a transfer
//!   slower than [`ConnLimits::min_bytes_per_sec`] is cut off early
//!   (no need to wait out the full deadline).
//! - **size caps** — lines, header blocks, and bodies beyond their
//!   caps surface [`ReadOutcome::TooLarge`] instead of buffering.
//!
//! Every outcome is explicit so the server can respond (`400`/`413`),
//! count (`serve.timeout.read`, `serve.reject.oversize`, …), and close
//! — a connection always resolves by *serve*, *reject*, or *timeout*.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a slow transfer runs before the byte-rate floor applies.
const RATE_GRACE: Duration = Duration::from_millis(500);

/// Upper bound on one blocking wait, so rate-floor checks happen even
/// while bytes keep (slowly) arriving.
const READ_TICK: Duration = Duration::from_millis(100);

/// Per-connection robustness limits (deadlines, size caps, budget).
#[derive(Debug, Clone)]
pub struct ConnLimits {
    /// Completion deadline for one request once its first byte arrived.
    pub read_timeout: Duration,
    /// How long a connection may sit silent before being reaped —
    /// before its first request, or between keep-alive requests.
    pub idle_timeout: Duration,
    /// `SO_SNDTIMEO`: a peer that stops draining its receive window
    /// fails the write instead of pinning the worker.
    pub write_timeout: Duration,
    /// Cap on one protocol line (request line, header line, or
    /// line-protocol request).
    pub max_line_bytes: usize,
    /// Cap on an HTTP request's cumulative header block.
    pub max_header_bytes: usize,
    /// Cap on an HTTP request body (`Content-Length` beyond it → 413).
    pub max_body_bytes: usize,
    /// Requests served on one connection before it is closed (a
    /// keep-alive budget; well-behaved clients just reconnect).
    pub max_requests: u64,
    /// Byte-rate floor for an in-flight request after a grace period;
    /// 0 disables the check.
    pub min_bytes_per_sec: u64,
}

impl Default for ConnLimits {
    fn default() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            max_line_bytes: 64 * 1024,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1 << 20,
            max_requests: 100_000,
            min_bytes_per_sec: 256,
        }
    }
}

/// How one bounded read resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The requested line/body is complete and delivered.
    Complete,
    /// Clean close before any byte of this item arrived, or a raised
    /// stop flag while waiting for that first byte.
    Eof,
    /// No first byte within the idle window (reap the connection).
    Idle,
    /// First byte arrived but the item missed its completion deadline.
    TimedOut,
    /// The transfer ran below the byte-rate floor.
    TooSlow,
    /// The item exceeded its size cap.
    TooLarge,
    /// The peer closed mid-item (partial line or short body).
    Truncated,
    /// A non-timeout I/O error.
    Failed,
}

/// A buffered reader over one `TcpStream` whose every read is bounded
/// in size *and* time. Leftover bytes carry across calls, so pipelined
/// requests written in one burst are served one by one.
pub struct ConnReader {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
}

impl ConnReader {
    /// Wrap a stream. Timeouts are set per read; the stream needs no
    /// prior configuration.
    pub fn new(stream: TcpStream) -> ConnReader {
        ConnReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// Read one `\n`-terminated line (newline included) into `out`.
    /// `hard`, when set, is an absolute deadline that overrides both
    /// windows — HTTP uses it to bound the whole request. `stop`, when
    /// set and raised, ends a wait for the line's first byte with
    /// [`ReadOutcome::Eof`] at the next read tick — the server's drain
    /// closing a connection idle between requests.
    ///
    /// On [`ReadOutcome::TooLarge`] a short prefix of the oversized
    /// line is delivered so the caller can sniff the protocol for its
    /// error response.
    pub fn read_line(
        &mut self,
        out: &mut String,
        limits: &ConnLimits,
        hard: Option<Instant>,
        stop: Option<&AtomicBool>,
    ) -> ReadOutcome {
        let opened = Instant::now();
        let mut first_byte = if self.buf.is_empty() {
            None
        } else {
            Some(opened)
        };
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(i) = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| self.scanned + i)
            {
                if i + 1 > limits.max_line_bytes {
                    self.deliver_prefix(out);
                    return ReadOutcome::TooLarge;
                }
                out.push_str(&String::from_utf8_lossy(&self.buf[..=i]));
                self.buf.drain(..=i);
                self.scanned = 0;
                return ReadOutcome::Complete;
            }
            self.scanned = self.buf.len();
            if self.buf.len() > limits.max_line_bytes {
                self.deliver_prefix(out);
                return ReadOutcome::TooLarge;
            }
            let now = Instant::now();
            let phase = match first_byte {
                None => opened + limits.idle_timeout,
                Some(fb) => fb + limits.read_timeout,
            };
            let deadline = hard.map_or(phase, |h| phase.min(h));
            if now >= deadline {
                // A blown *hard* deadline is a timeout even if the peer
                // never sent a byte of this item; otherwise silence
                // before the first byte is mere idleness.
                return if first_byte.is_some() || hard.is_some_and(|h| now >= h) {
                    ReadOutcome::TimedOut
                } else {
                    ReadOutcome::Idle
                };
            }
            if let Some(fb) = first_byte {
                if limits.min_bytes_per_sec > 0 {
                    let elapsed = now - fb;
                    if elapsed >= RATE_GRACE {
                        let floor = limits.min_bytes_per_sec as f64 * elapsed.as_secs_f64();
                        if (self.buf.len() as f64) < floor {
                            return ReadOutcome::TooSlow;
                        }
                    }
                }
            }
            match self.read_step(deadline - now, &mut chunk) {
                Step::Bytes(n) => {
                    if first_byte.is_none() {
                        first_byte = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Step::Eof => {
                    return if self.buf.is_empty() {
                        ReadOutcome::Eof
                    } else {
                        ReadOutcome::Truncated
                    };
                }
                Step::Wait => {
                    if first_byte.is_none() && stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        return ReadOutcome::Eof;
                    }
                }
                Step::Fail => return ReadOutcome::Failed,
            }
        }
    }

    /// Read exactly `n` body bytes into `out`, bounded by the
    /// completion deadline (`hard`, or `read_timeout` from now) and the
    /// byte-rate floor. The caller has already checked `n` against
    /// [`ConnLimits::max_body_bytes`].
    pub fn read_body(
        &mut self,
        out: &mut Vec<u8>,
        n: usize,
        limits: &ConnLimits,
        hard: Option<Instant>,
    ) -> ReadOutcome {
        let started = Instant::now();
        let deadline = hard.unwrap_or(started + limits.read_timeout);
        let mut chunk = [0u8; 8192];
        loop {
            if self.buf.len() >= n {
                out.extend_from_slice(&self.buf[..n]);
                self.buf.drain(..n);
                self.scanned = 0;
                return ReadOutcome::Complete;
            }
            let now = Instant::now();
            if now >= deadline {
                return ReadOutcome::TimedOut;
            }
            if limits.min_bytes_per_sec > 0 {
                let elapsed = now - started;
                if elapsed >= RATE_GRACE {
                    let floor = limits.min_bytes_per_sec as f64 * elapsed.as_secs_f64();
                    if (self.buf.len() as f64) < floor {
                        return ReadOutcome::TooSlow;
                    }
                }
            }
            match self.read_step(deadline - now, &mut chunk) {
                Step::Bytes(got) => self.buf.extend_from_slice(&chunk[..got]),
                Step::Eof => return ReadOutcome::Truncated,
                Step::Wait => {}
                Step::Fail => return ReadOutcome::Failed,
            }
        }
    }

    /// One bounded read: at most `remaining` (capped at [`READ_TICK`]
    /// so deadline and rate checks re-run), never a zero timeout
    /// (`SO_RCVTIMEO` of zero means "block forever").
    fn read_step(&mut self, remaining: Duration, chunk: &mut [u8]) -> Step {
        let wait = remaining.min(READ_TICK).max(Duration::from_millis(1));
        let _ = self.stream.set_read_timeout(Some(wait));
        match self.stream.read(chunk) {
            Ok(0) => Step::Eof,
            Ok(n) => Step::Bytes(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Step::Wait
            }
            Err(_) => Step::Fail,
        }
    }

    /// Deliver a sniffable prefix of an oversized item (enough to tell
    /// an HTTP request line from a line-protocol one).
    fn deliver_prefix(&self, out: &mut String) {
        let end = self.buf.len().min(80);
        out.push_str(&String::from_utf8_lossy(&self.buf[..end]));
    }
}

enum Step {
    Bytes(usize),
    Eof,
    Wait,
    Fail,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// A connected (client, server-side-reader) pair on loopback.
    fn pair() -> (TcpStream, ConnReader) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, ConnReader::new(server))
    }

    fn fast() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_millis(200),
            idle_timeout: Duration::from_millis(120),
            max_line_bytes: 64,
            max_body_bytes: 128,
            min_bytes_per_sec: 0,
            ..ConnLimits::default()
        }
    }

    #[test]
    fn pipelined_lines_come_back_one_by_one() {
        let (mut client, mut reader) = pair();
        client.write_all(b"one\ntwo\nthree\n").expect("write");
        let limits = fast();
        let mut out = String::new();
        for want in ["one\n", "two\n", "three\n"] {
            out.clear();
            assert_eq!(
                reader.read_line(&mut out, &limits, None, None),
                ReadOutcome::Complete
            );
            assert_eq!(out, want);
        }
    }

    #[test]
    fn idle_and_timeout_are_distinguished() {
        let (mut client, mut reader) = pair();
        let limits = fast();
        let mut out = String::new();
        // Nothing sent: the idle window reaps it.
        assert_eq!(
            reader.read_line(&mut out, &limits, None, None),
            ReadOutcome::Idle
        );
        // A partial line then silence: the completion deadline fires.
        client.write_all(b"partial").expect("write");
        assert_eq!(
            reader.read_line(&mut out, &limits, None, None),
            ReadOutcome::TimedOut
        );
    }

    #[test]
    fn oversized_line_is_cut_off_with_a_sniffable_prefix() {
        let (mut client, mut reader) = pair();
        let limits = fast();
        let long = "x".repeat(300);
        client.write_all(long.as_bytes()).expect("write");
        client.write_all(b"\n").expect("write");
        let mut out = String::new();
        assert_eq!(
            reader.read_line(&mut out, &limits, None, None),
            ReadOutcome::TooLarge
        );
        assert!(!out.is_empty() && out.len() <= 80, "prefix: {}", out.len());
    }

    #[test]
    fn stop_flag_ends_only_the_wait_for_a_first_byte() {
        let (mut client, mut reader) = pair();
        let limits = ConnLimits {
            idle_timeout: Duration::from_secs(30),
            ..fast()
        };
        let stop = AtomicBool::new(true);
        // A line already sent is still read and delivered.
        client.write_all(b"one\n").expect("write");
        let mut out = String::new();
        assert_eq!(
            reader.read_line(&mut out, &limits, None, Some(&stop)),
            ReadOutcome::Complete
        );
        // Silence: the raised flag ends the idle wait within a tick.
        let started = Instant::now();
        assert_eq!(
            reader.read_line(&mut out, &limits, None, Some(&stop)),
            ReadOutcome::Eof
        );
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn truncated_line_and_clean_eof() {
        let (mut client, mut reader) = pair();
        let limits = fast();
        client.write_all(b"no newline").expect("write");
        drop(client);
        let mut out = String::new();
        assert_eq!(
            reader.read_line(&mut out, &limits, None, None),
            ReadOutcome::Truncated
        );
        let (client, mut reader) = pair();
        drop(client);
        assert_eq!(
            reader.read_line(&mut out, &limits, None, None),
            ReadOutcome::Eof
        );
    }

    #[test]
    fn body_short_read_is_truncated_and_full_read_completes() {
        let (mut client, mut reader) = pair();
        let limits = fast();
        client.write_all(b"abcdef").expect("write");
        let mut body = Vec::new();
        assert_eq!(
            reader.read_body(&mut body, 4, &limits, None),
            ReadOutcome::Complete
        );
        assert_eq!(body, b"abcd");
        // Remaining two bytes, then EOF before the declared length.
        drop(client);
        body.clear();
        assert_eq!(
            reader.read_body(&mut body, 10, &limits, None),
            ReadOutcome::Truncated
        );
    }

    #[test]
    fn rate_floor_cuts_a_trickling_writer() {
        let (mut client, mut reader) = pair();
        let limits = ConnLimits {
            read_timeout: Duration::from_secs(10),
            min_bytes_per_sec: 10_000,
            ..fast()
        };
        let writer = std::thread::spawn(move || {
            // One byte every 40 ms can never hit 10 kB/s.
            for _ in 0..100 {
                if client.write_all(b"y").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let mut out = String::new();
        let started = Instant::now();
        assert_eq!(
            reader.read_line(&mut out, &limits, None, None),
            ReadOutcome::TooSlow
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "rate floor fired early, not at the deadline"
        );
        drop(reader);
        writer.join().expect("writer");
    }

    #[test]
    fn hard_deadline_bounds_even_idle_waits() {
        let (_client, mut reader) = pair();
        let limits = ConnLimits {
            idle_timeout: Duration::from_secs(30),
            ..fast()
        };
        let mut out = String::new();
        let hard = Instant::now() + Duration::from_millis(80);
        let started = Instant::now();
        assert_eq!(
            reader.read_line(&mut out, &limits, Some(hard), None),
            ReadOutcome::TimedOut
        );
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
