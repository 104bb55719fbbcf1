//! `/metrics` cardinality is bounded: the number of exposed series does
//! not grow with the number of suffixes an artifact covers. Its own test
//! binary, so no other test registers series in the process-wide
//! registry between the two boots.

use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{LookupIndex, ServeConfig, Server, SharedIndex};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn artifacts(n: usize) -> String {
    let mut text = String::from("hoiho-artifacts-v1\n");
    for i in 0..n {
        text.push_str(&format!(
            "suffix op{i}.net good\nregex iata ^.+\\.([a-z]{{3}})\\d+\\.op{i}\\.net$\n"
        ));
    }
    text
}

fn get(server: &Server, path: &str) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// Boot on an artifact of `n` suffixes, answer a hit and a miss on
/// every suffix, and count the series `/metrics` then exposes.
fn series_after_lookups(n: usize) -> usize {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let index = LookupIndex::from_artifacts(db, psl, &artifacts(n)).expect("parse");
    assert_eq!(index.len(), n);
    let server =
        Server::start(Arc::new(SharedIndex::new(index)), &ServeConfig::default()).expect("bind");
    for i in 0..n {
        assert!(get(&server, &format!("/lookup?h=ae1.lhr2.op{i}.net")).contains("London"));
        assert!(get(&server, &format!("/lookup?h=nomatch.op{i}.net")).contains("\"ok\":false"));
    }
    let _ = get(&server, "/metrics");
    let body = get(&server, "/metrics");
    server.shutdown();
    body.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count()
}

#[test]
fn metrics_series_do_not_grow_with_suffix_count() {
    let one = series_after_lookups(1);
    let many = series_after_lookups(600);
    assert!(one > 0);
    assert_eq!(many, one, "series with 600 suffixes vs with 1");
}
