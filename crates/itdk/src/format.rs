//! Text formats for corpora.
//!
//! Two families:
//!
//! - **Interop** writers for the real ITDK file shapes: a `.nodes` file
//!   (`node N1:  10.0.0.1 10.0.0.2`) and a `.dns-names` file
//!   (`<ip> <hostname>`), so downstream tools expecting CAIDA's layout
//!   can consume generated corpora.
//! - A **native** single-file format (`corpus-v1`) that round-trips
//!   everything including RTT samples and generator ground truth.

use crate::{Corpus, HostnameTruth, Interface, Router, RouterId};
use hoiho_geotypes::{Coordinates, LocationId, Rtt};
use hoiho_rtt::{RouterRtts, VpId, VpSet};
use std::fmt::Write as _;
use std::io::BufRead;

/// Error from the native-format parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub msg: String,
}

impl std::fmt::Display for CorpusParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corpus parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CorpusParseError {}

/// Render the ITDK-style `.nodes` file: one line per router listing its
/// interface addresses.
pub fn write_nodes(corpus: &Corpus) -> String {
    let mut out = String::new();
    for (id, r) in corpus.iter() {
        let addrs: Vec<&str> = r.interfaces.iter().map(|i| i.addr.as_str()).collect();
        let _ = writeln!(out, "node N{}:  {}", id.0 + 1, addrs.join(" "));
    }
    out
}

/// Render the ITDK-style `.dns-names` file: `<address> <hostname>` for
/// every interface that has one.
pub fn write_dns_names(corpus: &Corpus) -> String {
    let mut out = String::new();
    for (_, r) in corpus.iter() {
        for i in &r.interfaces {
            if let Some(h) = &i.hostname {
                let _ = writeln!(out, "{} {}", i.addr, h);
            }
        }
    }
    out
}

/// Parse a `.nodes` file into per-router address lists.
pub fn parse_nodes(text: &str) -> Result<Vec<Vec<String>>, CorpusParseError> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rest = line.strip_prefix("node ").ok_or(CorpusParseError {
            line: ln + 1,
            msg: "expected 'node N<id>: ...'".into(),
        })?;
        let (_, addrs) = rest.split_once(':').ok_or(CorpusParseError {
            line: ln + 1,
            msg: "missing ':'".into(),
        })?;
        out.push(addrs.split_whitespace().map(String::from).collect());
    }
    Ok(out)
}

/// Parse a `.dns-names` file into `(address, hostname)` pairs.
pub fn parse_dns_names(text: &str) -> Result<Vec<(String, String)>, CorpusParseError> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(addr), Some(host)) = (it.next(), it.next()) else {
            return Err(CorpusParseError {
                line: ln + 1,
                msg: "expected '<addr> <hostname>'".into(),
            });
        };
        out.push((addr.to_string(), host.to_string()));
    }
    Ok(out)
}

/// Serialize a corpus (with ground truth) to the native `corpus-v1`
/// format.
pub fn write_corpus(corpus: &Corpus) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "corpus-v1 {}", corpus.label);
    for (_, vp) in corpus.vps.iter() {
        let _ = writeln!(
            out,
            "vp {} {:.6} {:.6}",
            vp.name,
            vp.coords.lat(),
            vp.coords.lon()
        );
    }
    for (id, r) in corpus.iter() {
        let _ = writeln!(out, "node N{} loc={}", id.0, r.location.0);
        for i in &r.interfaces {
            match &i.hostname {
                Some(h) => {
                    let _ = writeln!(out, "iface {} {}", i.addr, h);
                }
                None => {
                    let _ = writeln!(out, "iface {}", i.addr);
                }
            }
            if let Some(t) = &i.truth {
                let hint = t.hint.as_deref().unwrap_or("-");
                let loc = t
                    .hint_location
                    .map(|l| l.0.to_string())
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "truth {} {} {} {}",
                    hint,
                    loc,
                    if t.stale { "stale" } else { "fresh" },
                    if t.provider_side { "provider" } else { "own" }
                );
            }
        }
        let _ = write_rtts(&mut out, "rtt", &r.rtts);
        let _ = write_rtts(&mut out, "trtt", &r.traceroute_rtts);
    }
    out
}

fn write_rtts(out: &mut String, tag: &str, rtts: &RouterRtts) -> std::fmt::Result {
    if rtts.is_empty() {
        return Ok(());
    }
    write!(out, "{tag}")?;
    for (vp, rtt) in rtts.samples() {
        write!(out, " {}:{}", vp.0, rtt.as_us())?;
    }
    writeln!(out)
}

/// Parse the native `corpus-v1` format from a string; see
/// [`read_corpus`].
pub fn parse_corpus(text: &str) -> Result<Corpus, CorpusParseError> {
    read_corpus(text.as_bytes())
}

/// One line at a time from a reader, numbered from 1, without its line
/// ending (`\n` or `\r\n`).
struct NumberedLines<R> {
    reader: R,
    buf: String,
    line: usize,
}

impl<R: BufRead> NumberedLines<R> {
    fn next(&mut self) -> Result<Option<(usize, &str)>, CorpusParseError> {
        self.buf.clear();
        self.line += 1;
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| CorpusParseError {
                line: self.line,
                msg: format!("read failed: {e}"),
            })?;
        if n == 0 {
            return Ok(None);
        }
        let text = self.buf.strip_suffix('\n').unwrap_or(&self.buf);
        let text = text.strip_suffix('\r').unwrap_or(text);
        Ok(Some((self.line, text)))
    }
}

/// Parse the native `corpus-v1` format as a stream: only the current
/// line of the input is held in memory, so a corpus file never sits in
/// memory beside the corpus it describes. Every router's RTT sample
/// vectors end at exact capacity.
///
/// An `rtt`/`trtt` value must fit [`Rtt`]'s range (`u32` µs); a larger
/// one is a parse error rather than a silently saturated sample.
pub fn read_corpus<R: BufRead>(reader: R) -> Result<Corpus, CorpusParseError> {
    let _span = hoiho_obs::span("itdk.parse_corpus");
    let err = |line: usize, msg: &str| CorpusParseError {
        line,
        msg: msg.to_string(),
    };
    let mut lines = NumberedLines {
        reader,
        buf: String::new(),
        line: 0,
    };
    let (_, header) = lines.next()?.ok_or_else(|| err(1, "empty input"))?;
    let label = header
        .strip_prefix("corpus-v1")
        .ok_or_else(|| err(1, "missing corpus-v1 header"))?
        .trim()
        .to_string();

    let mut corpus = Corpus {
        routers: Vec::new(),
        vps: VpSet::new(),
        label,
    };
    // One RTT line's samples, reused across lines.
    let mut batch: Vec<(VpId, Rtt)> = Vec::new();

    while let Some((ln, line)) = lines.next()? {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next().expect("nonempty line") {
            "vp" => {
                let name = parts.next().ok_or_else(|| err(ln, "vp: missing name"))?;
                let lat: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "vp: bad latitude"))?;
                let lon: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "vp: bad longitude"))?;
                corpus.vps.add(name, Coordinates::new(lat, lon));
            }
            "node" => {
                let _id = parts.next().ok_or_else(|| err(ln, "node: missing id"))?;
                let loc = parts
                    .next()
                    .and_then(|s| s.strip_prefix("loc="))
                    .and_then(|s| s.parse::<u32>().ok())
                    .ok_or_else(|| err(ln, "node: bad loc="))?;
                corpus.routers.push(Router {
                    location: LocationId(loc),
                    interfaces: Vec::new(),
                    rtts: RouterRtts::new(),
                    traceroute_rtts: RouterRtts::new(),
                });
            }
            "iface" => {
                let r = corpus
                    .routers
                    .last_mut()
                    .ok_or_else(|| err(ln, "iface before node"))?;
                let addr = parts.next().ok_or_else(|| err(ln, "iface: missing addr"))?;
                let hostname = parts.next().map(String::from);
                r.interfaces.push(Interface {
                    addr: addr.to_string(),
                    hostname,
                    truth: None,
                });
            }
            "truth" => {
                let r = corpus
                    .routers
                    .last_mut()
                    .ok_or_else(|| err(ln, "truth before node"))?;
                let i = r
                    .interfaces
                    .last_mut()
                    .ok_or_else(|| err(ln, "truth before iface"))?;
                let hint = parts.next().ok_or_else(|| err(ln, "truth: missing hint"))?;
                let loc = parts.next().ok_or_else(|| err(ln, "truth: missing loc"))?;
                let stale = parts
                    .next()
                    .ok_or_else(|| err(ln, "truth: missing stale"))?;
                let prov = parts
                    .next()
                    .ok_or_else(|| err(ln, "truth: missing provider"))?;
                i.truth = Some(HostnameTruth {
                    hint: (hint != "-").then(|| hint.to_string()),
                    hint_location: if loc == "-" {
                        None
                    } else {
                        Some(LocationId(
                            loc.parse().map_err(|_| err(ln, "truth: bad location id"))?,
                        ))
                    },
                    stale: stale == "stale",
                    provider_side: prov == "provider",
                });
            }
            tag @ ("rtt" | "trtt") => {
                let r = corpus
                    .routers
                    .last_mut()
                    .ok_or_else(|| err(ln, "rtt before node"))?;
                let target = if tag == "rtt" {
                    &mut r.rtts
                } else {
                    &mut r.traceroute_rtts
                };
                batch.clear();
                for tok in parts {
                    let (vp, us) = tok
                        .split_once(':')
                        .ok_or_else(|| err(ln, "rtt: expected vp:us"))?;
                    let vp: u16 = vp.parse().map_err(|_| err(ln, "rtt: bad vp"))?;
                    // u32 µs is exactly Rtt's range: a value past it
                    // fails here instead of saturating.
                    let us: u32 = us.parse().map_err(|_| err(ln, "rtt: bad us"))?;
                    batch.push((VpId(vp), Rtt::from_us(u64::from(us))));
                }
                target.record_all(&batch);
            }
            other => return Err(err(ln, &format!("unknown record '{other}'"))),
        }
    }
    hoiho_obs::add("itdk.parse.vps", corpus.vps.len() as u64);
    hoiho_obs::add("itdk.parse.routers", corpus.routers.len() as u64);
    hoiho_obs::add(
        "itdk.parse.interfaces",
        corpus
            .routers
            .iter()
            .map(|r| r.interfaces.len() as u64)
            .sum(),
    );
    hoiho_obs::add(
        "itdk.parse.hostnames",
        corpus
            .routers
            .iter()
            .flat_map(|r| &r.interfaces)
            .filter(|i| i.hostname.is_some())
            .count() as u64,
    );
    hoiho_obs::add(
        "itdk.parse.rtt_samples",
        corpus
            .routers
            .iter()
            .map(|r| (r.rtts.len() + r.traceroute_rtts.len()) as u64)
            .sum(),
    );
    Ok(corpus)
}

/// Convenience: the router ids in a corpus (used by format tests).
pub fn router_ids(corpus: &Corpus) -> Vec<RouterId> {
    (0..corpus.len() as u32).map(RouterId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;
    use hoiho_geodb::GeoDb;

    fn sample() -> Corpus {
        let db = GeoDb::builtin();
        let spec = CorpusSpec {
            label: "fmt-test".into(),
            seed: 5,
            operators: 6,
            routers: 120,
            geo_operator_fraction: 0.7,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.8,
            rtt_response_rate: 0.9,
            vps: 8,
            custom_hint_operator_fraction: 0.5,
            custom_hint_rate: 0.25,
            stale_fraction: 0.02,
            provider_side_fraction: 0.02,
            ipv6: false,
        };
        crate::generate(&db, &spec).corpus
    }

    #[test]
    fn native_roundtrip_preserves_everything() {
        let c = sample();
        let text = write_corpus(&c);
        let back = parse_corpus(&text).expect("parse");
        assert_eq!(back.label, c.label);
        assert_eq!(back.len(), c.len());
        assert_eq!(back.vps.len(), c.vps.len());
        for (a, b) in c.routers.iter().zip(back.routers.iter()) {
            assert_eq!(a.location, b.location);
            assert_eq!(a.rtts, b.rtts);
            assert_eq!(a.traceroute_rtts, b.traceroute_rtts);
            assert_eq!(a.interfaces.len(), b.interfaces.len());
            for (ia, ib) in a.interfaces.iter().zip(b.interfaces.iter()) {
                assert_eq!(ia.addr, ib.addr);
                assert_eq!(ia.hostname, ib.hostname);
                assert_eq!(ia.truth, ib.truth);
            }
        }
    }

    #[test]
    fn itdk_nodes_roundtrip() {
        let c = sample();
        let text = write_nodes(&c);
        let nodes = parse_nodes(&text).expect("parse");
        assert_eq!(nodes.len(), c.len());
        assert_eq!(nodes[0].len(), c.routers[0].interfaces.len());
    }

    #[test]
    fn itdk_dns_names_roundtrip() {
        let c = sample();
        let text = write_dns_names(&c);
        let pairs = parse_dns_names(&text).expect("parse");
        let expected: usize = c.routers.iter().map(|r| r.hostnames().count()).sum();
        assert_eq!(pairs.len(), expected);
    }

    /// `read_corpus` through a deliberately tiny buffer, so lines
    /// straddle buffer refills.
    fn read_small(text: &str) -> Result<Corpus, CorpusParseError> {
        read_corpus(std::io::BufReader::with_capacity(7, text.as_bytes()))
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        for parse in [parse_corpus, read_small] {
            assert!(parse("").is_err());
            assert!(parse("bogus-header\n").is_err());
            let e = parse("corpus-v1 x\niface 1.2.3.4\n").unwrap_err();
            assert_eq!(e.line, 2);
            let e = parse("corpus-v1 x\nnode N0 loc=zzz\n").unwrap_err();
            assert_eq!(e.line, 2);
            let e = parse("corpus-v1 x\nwhatisthis\n").unwrap_err();
            assert!(e.msg.contains("unknown record"));
        }
    }

    #[test]
    fn streamed_parse_matches_string_parse() {
        let text = write_corpus(&sample());
        // The same corpus with CRLF endings, comments and blank lines
        // sprinkled between records.
        let mut noisy = String::new();
        for (i, line) in text.lines().enumerate() {
            noisy.push_str(line);
            noisy.push_str("\r\n");
            if i % 7 == 1 {
                noisy.push_str("# a comment\r\n\r\n");
            }
            if i % 11 == 3 {
                noisy.push('\n');
            }
        }
        // Writing back covers every field the format carries.
        for streamed in [read_small(&text), read_small(&noisy), parse_corpus(&noisy)] {
            assert_eq!(write_corpus(&streamed.expect("parse")), text);
        }
    }

    #[test]
    fn parsed_rtt_vectors_are_exactly_sized() {
        let c = parse_corpus(&write_corpus(&sample())).expect("parse");
        assert!(c.routers.iter().any(|r| r.rtts.len() > 4));
        for r in &c.routers {
            assert_eq!(r.rtts.capacity(), r.rtts.len());
            assert_eq!(r.traceroute_rtts.capacity(), r.traceroute_rtts.len());
        }
        assert_eq!(std::mem::size_of::<(VpId, Rtt)>(), 8);
        // Repeated and out-of-order samples merge to the minimum per VP,
        // across lines too, still at exact capacity.
        let c = parse_corpus("corpus-v1 x\nnode N0 loc=0\nrtt 3:900 1:500 3:700\nrtt 0:40 3:800\n")
            .expect("parse");
        let r = &c.routers[0].rtts;
        let us: Vec<(u16, u64)> = r.samples().iter().map(|(v, t)| (v.0, t.as_us())).collect();
        assert_eq!(us, vec![(0, 40), (1, 500), (3, 700)]);
        assert_eq!(r.capacity(), r.len());
    }

    #[test]
    fn rtt_past_u32_microseconds_is_rejected_not_saturated() {
        let max = u32::MAX;
        for tag in ["rtt", "trtt"] {
            let ok = format!("corpus-v1 x\nnode N0 loc=0\n{tag} 0:{max}\n");
            let c = read_small(&ok).expect("u32::MAX fits");
            let r = if tag == "rtt" {
                &c.routers[0].rtts
            } else {
                &c.routers[0].traceroute_rtts
            };
            assert_eq!(r.samples()[0].1.as_us(), u64::from(max));

            let over = u64::from(max) + 1;
            let bad = format!("corpus-v1 x\nvp a 0 0\nnode N0 loc=0\n{tag} 0:5 1:{over}\n");
            for e in [parse_corpus(&bad), read_small(&bad)] {
                let e = e.unwrap_err();
                assert_eq!(e.line, 4, "{tag}");
                assert_eq!(e.msg, "rtt: bad us");
            }
        }
    }

    #[test]
    fn nodes_parser_rejects_garbage() {
        assert!(parse_nodes("nonsense line\n").is_err());
        assert!(parse_nodes("node N1  10.0.0.1\n").is_err()); // missing ':'
        assert_eq!(parse_nodes("# comment\n\n").unwrap().len(), 0);
    }
}
