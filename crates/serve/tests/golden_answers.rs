//! The pinned benchmark inputs answer exactly as they did when the
//! golden digest below was recorded: `render_result(lookup(h))` plus a
//! newline for every hostname of `perfbench/pinned/hosts.tsv`, in file
//! order, against `perfbench/pinned/artifact.txt`, hashed with FNV-1a
//! 64. The benchmark compares the server with the in-process renderer
//! of the same build, so it cannot see an answer change; this test can.
//! Both input files are only read.

use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{proto, LookupIndex};
use std::path::PathBuf;
use std::sync::Arc;

const GOLDEN_FNV1A64: u64 = 0xc34f_ee85_2b36_af45;
const GOLDEN_BYTES: usize = 575_721;

fn pinned(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../perfbench/pinned")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn pinned_hosts_render_the_golden_answers() {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let index = LookupIndex::from_artifacts(db, psl, &pinned("artifact.txt")).expect("artifact");
    let hosts = pinned("hosts.tsv");
    let mut scratch = String::new();
    let mut out = String::new();
    for line in hosts.lines() {
        let host = line.split('\t').next().expect("hostname column");
        let inf = index.lookup(host, &mut scratch);
        proto::render_result(index.db(), host, inf.as_ref(), &mut out);
        out.push('\n');
    }
    assert_eq!(out.lines().count(), 8192);
    assert_eq!(
        (out.len(), fnv1a64(out.as_bytes())),
        (GOLDEN_BYTES, GOLDEN_FNV1A64)
    );
}
