//! Hand-rolled benches for the learning pipeline: stage-2 tagging
//! throughput, per-suffix learning, full-corpus learning, and the
//! downstream apply hot path, plus the constraints ablation DESIGN.md
//! calls out (all-VP pings vs traceroute-only, the DRoP design flaw).
//!
//! Offline build — no criterion; `hoiho_bench::run_bench` times each
//! closure and prints median/mean per-iteration wall time.

use hoiho::train::build_training_sets;
use hoiho::{Geolocator, Hoiho};
use hoiho_bench::run_bench;
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::ConsistencyPolicy;
use std::hint::black_box;

fn small_corpus(db: &GeoDb) -> hoiho_itdk::generate::Generated {
    let spec = CorpusSpec {
        label: "bench".into(),
        seed: 0xBE9C,
        operators: 12,
        routers: 1200,
        geo_operator_fraction: 0.7,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.8,
        rtt_response_rate: 0.9,
        vps: 30,
        custom_hint_operator_fraction: 0.4,
        custom_hint_rate: 0.2,
        stale_fraction: 0.005,
        provider_side_fraction: 0.01,
        ipv6: false,
    };
    hoiho_itdk::generate(db, &spec)
}

fn main() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = small_corpus(&db);
    let hoiho = Hoiho::new(&db, &psl);

    run_bench("stage2_tag_corpus", 10, || {
        let sets = build_training_sets(&db, &psl, black_box(&g.corpus), &ConsistencyPolicy::STRICT);
        sets.len()
    });

    let sets = build_training_sets(&db, &psl, &g.corpus, &ConsistencyPolicy::STRICT);
    // Sets are sorted by host count; the biggest *tagged* one is the
    // first that clears `min_tagged` (an untagged set returns before any
    // learning runs).
    let biggest = sets
        .iter()
        .find(|s| s.tagged() >= hoiho.options().min_tagged)
        .expect("a learnable suffix");
    run_bench("stage3to5_learn_biggest_suffix", 10, || {
        hoiho.learn_suffix(&g.corpus.vps, black_box(biggest))
    });

    run_bench("learn_corpus_1200_routers", 3, || {
        hoiho.learn_corpus(black_box(&g.corpus))
    });

    let report = hoiho.learn_corpus(&g.corpus);
    let geo = Geolocator::from_report(&report);
    let hostnames: Vec<String> = g
        .corpus
        .routers
        .iter()
        .flat_map(|r| r.hostnames().map(String::from).collect::<Vec<_>>())
        .take(512)
        .collect();
    run_bench("apply_geolocate_512_hostnames", 20, || {
        let mut n = 0usize;
        for h in &hostnames {
            if geo.geolocate(&db, &psl, black_box(h)).is_some() {
                n += 1;
            }
        }
        n
    });

    // DESIGN.md ablation 2: learning accuracy/work under all-VP ping
    // constraints vs coarse traceroute-only constraints is evaluated in
    // repro_fig9; here we measure the *cost* of the strict policy's
    // extra feasibility checks.
    for (name, policy) in [
        ("consistency_policy/strict", ConsistencyPolicy::STRICT),
        ("consistency_policy/continent", ConsistencyPolicy::CONTINENT),
    ] {
        run_bench(name, 10, || {
            build_training_sets(&db, &psl, black_box(&g.corpus), &policy).len()
        });
    }
}
