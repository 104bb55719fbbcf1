//! The line-protocol hot path allocates nothing per hostname once warm:
//! `parse_request`, `LookupIndex::lookup` and `render_result` of a
//! 32-host batch against the pinned benchmark artifact, counted by a
//! global allocator. A shard miss and a regex miss cost no allocation; a
//! hit may cost at most two (the inference's owned hint, and the
//! country/state token list of a plan that extracts one).
//!
//! The counter is thread-local, so tests running on other threads of
//! this binary cannot perturb it.

use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::proto::{self, Request};
use hoiho_serve::LookupIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: usize = 32;

fn pinned(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../perfbench/pinned")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Answer one batch line the way the server does, into `out`.
fn answer(index: &LookupIndex, line: &str, scratch: &mut String, out: &mut String) {
    out.clear();
    let Request::Batch(hosts) = proto::parse_request(line) else {
        panic!("not a batch: {line}");
    };
    out.push_str("{\"results\":[");
    for (i, host) in hosts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let inf = index.lookup(&host, scratch);
        proto::render_result(index.db(), &host, inf.as_ref(), out);
    }
    out.push_str("]}\n");
}

/// Allocations made by answering `line` once the same line has been
/// answered before (fragments rendered, buffers grown).
fn warm_allocations(index: &LookupIndex, line: &str) -> u64 {
    let (mut scratch, mut out) = (String::new(), String::new());
    answer(index, line, &mut scratch, &mut out);
    let before = ALLOCATIONS.with(Cell::get);
    answer(index, line, &mut scratch, &mut out);
    ALLOCATIONS.with(Cell::get) - before
}

fn batch_line(hosts: &[&str]) -> String {
    assert_eq!(hosts.len(), BATCH, "too few pinned hosts of this kind");
    let quoted: Vec<String> = hosts.iter().map(|h| format!("\"{h}\"")).collect();
    format!("{{\"batch\":[{}]}}", quoted.join(","))
}

#[test]
fn warm_batches_stay_within_the_allocation_budget() {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let index = LookupIndex::from_artifacts(db, psl, &pinned("artifact.txt")).expect("artifact");
    let text = pinned("hosts.tsv");
    let hosts: Vec<&str> = text.lines().filter_map(|l| l.split('\t').next()).collect();
    let mut scratch = String::new();
    let kind = |h: &&str| match index.route(h) {
        None => "shard miss",
        Some(_) if index.lookup(h, &mut String::new()).is_none() => "regex miss",
        Some(_) => "hit",
    };
    let of_kind = |want: &str| -> Vec<&str> {
        hosts
            .iter()
            .filter(|h| kind(h) == want)
            .take(BATCH)
            .copied()
            .collect()
    };
    let shard_misses = of_kind("shard miss");
    let regex_misses = of_kind("regex miss");
    let hits = of_kind("hit");
    // Every hit kind the artifact's plans produce: with and without a
    // country/state token, and a split CLLI.
    assert!(hits.iter().any(|h| index
        .lookup(h, &mut scratch)
        .is_some_and(|i| i.ty == hoiho_geotypes::GeohintType::Clli)));

    assert_eq!(warm_allocations(&index, &batch_line(&shard_misses)), 0);
    assert_eq!(warm_allocations(&index, &batch_line(&regex_misses)), 0);
    let per_hit = warm_allocations(&index, &batch_line(&hits));
    assert!(
        per_hit <= 2 * BATCH as u64,
        "{per_hit} allocations for {BATCH} hits"
    );
}
