//! Learning is deterministic in its work, not only in its output: one
//! learn adds the same counter values run to run and whatever the
//! thread count. This binary holds a single test because it reads the
//! process-wide registry, which a second test learning in parallel
//! would also write to.

use hoiho::{Hoiho, HoihoOptions};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use std::collections::BTreeMap;

fn counters() -> BTreeMap<String, u64> {
    hoiho_obs::global().snapshot().counters
}

/// What each counter gained between two snapshots (counters that did
/// not move are left out).
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0)))
        .filter(|(_, d)| *d > 0)
        .collect()
}

#[test]
fn counters_are_identical_across_runs_and_thread_counts() {
    hoiho_obs::global().set_enabled(true);
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec {
        label: "work-determinism".into(),
        seed: 13,
        operators: 12,
        routers: 800,
        geo_operator_fraction: 0.75,
        sloppy_operator_fraction: 0.1,
        hostname_rate: 0.9,
        rtt_response_rate: 0.9,
        vps: 25,
        custom_hint_operator_fraction: 0.4,
        custom_hint_rate: 0.25,
        stale_fraction: 0.01,
        provider_side_fraction: 0.02,
        ipv6: false,
    };
    let g = hoiho_itdk::generate(&db, &spec);
    let learn = |threads: usize| {
        let opts = HoihoOptions {
            threads,
            ..Default::default()
        };
        let before = counters();
        Hoiho::with_options(&db, &psl, opts).learn_corpus(&g.corpus);
        delta(&before, &counters())
    };

    let one = learn(1);
    let four = learn(4);
    let again = learn(1);
    for name in [
        "builder.base_regexes",
        "eval.evaluations",
        "eval.hosts",
        "evalctx.feas.miss",
        "learn.candidates_deduped",
    ] {
        assert!(one.contains_key(name), "{name} never moved: {one:?}");
    }
    assert_eq!(one, four, "threads 1 vs 4");
    assert_eq!(one, again, "threads 1, run 1 vs run 2");
}
