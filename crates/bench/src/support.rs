//! What the serve and learn bench bins share: a `--flag value` reader,
//! the seeded serve fixture (corpus hostnames, learned artifact text,
//! lookup index), the line-protocol batch request, and a
//! read-until-close client helper.

use hoiho::artifact::write_artifacts;
use hoiho::{Geolocator, Hoiho, HoihoOptions};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::LookupIndex;
use std::io::{ErrorKind, Read};
use std::path::PathBuf;
use std::sync::Arc;

/// A bin's command line, read as `--flag value` pairs and bare switches.
pub struct Flags(Vec<String>);

impl Flags {
    /// The process's arguments.
    pub fn from_env() -> Flags {
        Flags(std::env::args().skip(1).collect())
    }

    /// The value after `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<String> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1).cloned())
    }

    /// The number after `flag`, or `default` when the flag is absent;
    /// anything but a number panics.
    pub fn num(&self, flag: &str, default: usize) -> usize {
        self.value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} must be a number, got {v}"))
        })
    }

    /// Whether the bare switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// A seeded corpus: its hostnames for clients to query, and what
/// learning artifacts from it needs.
pub struct ServeFixture {
    /// Every interface hostname, lowercased: the pool clients draw from.
    pub hosts: Vec<String>,
    db: Arc<GeoDb>,
    psl: Arc<PublicSuffixList>,
    seed: u64,
    corpus: Corpus,
}

/// Artifacts learned from a [`ServeFixture`]'s corpus, written to a
/// file a server can hot-reload.
pub struct Learned {
    /// The artifact file (in the temp directory; the caller removes it).
    pub path: PathBuf,
    /// Its contents.
    pub text: String,
    /// The index built from `text`.
    pub index: LookupIndex,
}

impl ServeFixture {
    /// Generate the `routers`-router corpus for `seed`.
    pub fn generate(routers: usize, seed: u64) -> ServeFixture {
        let db = Arc::new(GeoDb::builtin());
        let psl = Arc::new(PublicSuffixList::builtin());
        eprintln!("generating {routers}-router corpus…");
        let mut spec = CorpusSpec::ipv4_aug2020(routers);
        spec.seed = seed;
        let corpus = hoiho_itdk::generate(&db, &spec).corpus;
        let hosts: Vec<String> = corpus
            .routers
            .iter()
            .flat_map(|r| r.hostnames())
            .map(str::to_ascii_lowercase)
            .collect();
        assert!(!hosts.is_empty(), "corpus generated no hostnames");
        ServeFixture {
            hosts,
            db,
            psl,
            seed,
            corpus,
        }
    }

    /// Learn artifacts from the corpus, write them to
    /// `hoiho-<name>-<pid>-<seed>.artifacts` in the temp directory, and
    /// index them.
    pub fn learn(&self, name: &str) -> Learned {
        eprintln!("learning artifacts…");
        let hoiho = Hoiho::with_options(&self.db, &self.psl, HoihoOptions::default());
        let report = hoiho.learn_corpus(&self.corpus);
        let text = write_artifacts(&Geolocator::from_report(&report), &self.db);
        let path = std::env::temp_dir().join(format!(
            "hoiho-{name}-{}-{}.artifacts",
            std::process::id(),
            self.seed
        ));
        std::fs::write(&path, &text).expect("write artifacts");
        let index = LookupIndex::from_artifacts(Arc::clone(&self.db), Arc::clone(&self.psl), &text)
            .expect("fresh artifacts parse");
        eprintln!("index: {} suffix shards", index.len());
        Learned { path, text, index }
    }
}

/// Append the line-protocol request `{"batch":[…]}` for `hosts`, with
/// no newline. Hostnames go in unescaped: corpus hostnames need none.
pub fn push_batch<'a>(out: &mut String, hosts: impl IntoIterator<Item = &'a str>) {
    out.push_str("{\"batch\":[");
    for (i, host) in hosts.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(host);
        out.push('"');
    }
    out.push_str("]}");
}

/// Read until the peer closes the connection, appending everything
/// received to `got`. Only a clean close (EOF) is `Ok`; a reset or a
/// fired read deadline is the error, with what arrived before it
/// already in `got`.
pub fn read_until_close(s: &mut impl Read, got: &mut Vec<u8>) -> std::io::Result<()> {
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_line_shape() {
        let mut s = String::new();
        push_batch(&mut s, ["a.net", "b.net"]);
        assert_eq!(s, r#"{"batch":["a.net","b.net"]}"#);
        s.clear();
        push_batch(&mut s, []);
        assert_eq!(s, r#"{"batch":[]}"#);
    }

    #[test]
    fn read_until_close_keeps_everything_before_eof() {
        let mut input: &[u8] = b"HTTP/1.1 200 OK\r\n\r\nbody\n";
        let mut got = Vec::new();
        read_until_close(&mut input, &mut got).expect("eof");
        assert_eq!(got, b"HTTP/1.1 200 OK\r\n\r\nbody\n");
    }

    /// Yields `data`, then fails with `err`.
    struct ThenFail(&'static [u8], ErrorKind);

    impl Read for ThenFail {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(self.1.into());
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn a_reset_is_an_error_not_a_close() {
        for kind in [ErrorKind::ConnectionReset, ErrorKind::WouldBlock] {
            let mut got = Vec::new();
            let err = read_until_close(&mut ThenFail(b"partial", kind), &mut got)
                .expect_err("not a clean close");
            assert_eq!(err.kind(), kind);
            assert_eq!(got, b"partial");
        }
    }
}
