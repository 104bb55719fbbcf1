//! §5.1.4: spoofing vantage points poison RTT constraints unless they
//! are filtered. The paper discarded seven such VPs by hand; the
//! pipeline automates the filter, and this test measures its effect
//! end to end.

use hoiho::{Hoiho, HoihoOptions, SuffixResult};
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, Rtt};
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::fault::{detect_spoofing_vps_blind, inject_spoofing, strip_vps};
use hoiho_rtt::rng::StdRng;
use hoiho_rtt::{RouterRtts, VpId, VpSet};

fn poisoned_corpus(db: &GeoDb) -> hoiho_itdk::Corpus {
    let spec = CorpusSpec {
        label: "spoof-test".into(),
        seed: 0x5100F,
        operators: 8,
        routers: 600,
        geo_operator_fraction: 1.0,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.9,
        rtt_response_rate: 0.95,
        vps: 30,
        custom_hint_operator_fraction: 0.0,
        custom_hint_rate: 0.0,
        stale_fraction: 0.0,
        provider_side_fraction: 0.0,
        ipv6: false,
    };
    let mut g = hoiho_itdk::generate(db, &spec);
    // Three access routers spoof TCP resets: every probe from these VPs
    // comes back in 1–2 ms regardless of target distance.
    let bad = vec![VpId(3), VpId(11), VpId(19)];
    let mut rng = StdRng::seed_from_u64(7);
    for r in &mut g.corpus.routers {
        if !r.rtts.is_empty() {
            inject_spoofing(&mut r.rtts, &bad, &mut rng);
        }
    }
    g.corpus
}

#[test]
fn filter_recovers_learning_from_spoofed_campaign() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = poisoned_corpus(&db);

    let unfiltered = Hoiho::with_options(
        &db,
        &psl,
        HoihoOptions {
            filter_spoofed_vps: false,
            ..Default::default()
        },
    )
    .learn_corpus(&corpus);
    let filtered = Hoiho::new(&db, &psl).learn_corpus(&corpus); // filter on by default

    // The filter identifies exactly the poisoned VPs.
    let mut found = filtered.spoofed_vps.clone();
    found.sort();
    assert_eq!(found, vec![VpId(3), VpId(11), VpId(19)]);
    assert!(unfiltered.spoofed_vps.is_empty());

    // Spoofed 1–2 ms RTTs make every true geohint RTT-infeasible, so
    // unfiltered learning collapses; filtering restores it.
    assert!(
        filtered.routers_geolocated > 2 * unfiltered.routers_geolocated.max(1),
        "filtered {} vs unfiltered {}",
        filtered.routers_geolocated,
        unfiltered.routers_geolocated
    );
    assert!(filtered.usable().count() >= unfiltered.usable().count());
}

#[test]
fn filter_is_inert_on_clean_measurements() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec {
        label: "clean".into(),
        seed: 0xC1EA2,
        operators: 6,
        routers: 400,
        geo_operator_fraction: 0.8,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.85,
        rtt_response_rate: 0.9,
        vps: 25,
        custom_hint_operator_fraction: 0.3,
        custom_hint_rate: 0.2,
        stale_fraction: 0.005,
        provider_side_fraction: 0.0,
        ipv6: false,
    };
    let corpus = hoiho_itdk::generate(&db, &spec).corpus;
    let on = Hoiho::new(&db, &psl).learn_corpus(&corpus);
    let off = Hoiho::with_options(
        &db,
        &psl,
        HoihoOptions {
            filter_spoofed_vps: false,
            ..Default::default()
        },
    )
    .learn_corpus(&corpus);
    assert!(on.spoofed_vps.is_empty(), "no false flags on clean data");
    assert_eq!(on.routers_geolocated, off.routers_geolocated);
}

/// The spoof filter as it stood before samples were scattered as
/// integer µs: per-VP `Vec<f64>` buckets of `as_ms()` values, median
/// and extremes taken on the floats. Kept as the reference the current
/// filter must agree with exactly.
fn detect_blind_f64_reference(
    vps: &VpSet,
    campaigns: &[&RouterRtts],
    max_spread_ms: f64,
    max_median_ms: f64,
    min_targets: usize,
) -> Vec<VpId> {
    let mut per_vp: Vec<Vec<f64>> = vec![Vec::new(); vps.len()];
    for samples in campaigns {
        for (vp, rtt) in samples.samples() {
            if let Some(bucket) = per_vp.get_mut(vp.0 as usize) {
                bucket.push(rtt.as_ms());
            }
        }
    }
    let mut flagged = Vec::new();
    for (vp_id, _) in vps.iter() {
        let rtts = &mut per_vp[vp_id.0 as usize];
        if rtts.len() < min_targets {
            continue;
        }
        let mid = rtts.len() / 2;
        let (_, &mut median, _) = rtts.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        let mut lo = rtts[0];
        let mut hi = rtts[0];
        for &v in rtts.iter() {
            if v.total_cmp(&lo).is_lt() {
                lo = v;
            }
            if v.total_cmp(&hi).is_gt() {
                hi = v;
            }
        }
        if hi - lo <= max_spread_ms && median <= max_median_ms {
            flagged.push(vp_id);
        }
    }
    flagged
}

#[test]
fn integer_scatter_flags_the_same_vps_as_the_f64_reference() {
    let db = GeoDb::builtin();
    let corpus = poisoned_corpus(&db);
    let refs: Vec<&RouterRtts> = corpus.routers.iter().map(|r| &r.rtts).collect();
    // The thresholds learn_corpus uses, then tighter and looser ones so
    // that borderline VPs flip on both sides.
    for (spread, median, min_targets) in [
        (5.0, 5.0, 20),
        (0.5, 1.5, 20),
        (1.0, 2.0, 1),
        (50.0, 40.0, 5),
        (500.0, 500.0, 100),
        (5.0, 5.0, corpus.len() + 1),
    ] {
        assert_eq!(
            detect_spoofing_vps_blind(&corpus.vps, &refs, spread, median, min_targets),
            detect_blind_f64_reference(&corpus.vps, &refs, spread, median, min_targets),
            "spread {spread} median {median} min_targets {min_targets}"
        );
    }
    assert_eq!(
        detect_spoofing_vps_blind(&corpus.vps, &refs, 5.0, 5.0, 20),
        vec![VpId(3), VpId(11), VpId(19)]
    );
}

#[test]
fn integer_scatter_matches_reference_on_boundaries() {
    let mut vps = VpSet::new();
    for name in ["a", "b", "c", "d", "e"] {
        vps.add(name, Coordinates::new(0.0, 0.0));
    }
    // Per VP, the RTTs (ms) it saw across targets:
    // a: spread exactly 5.0 ms; b: exactly three samples;
    // c: two samples; d: median exactly 2.5 ms; e: spread 5.001 ms.
    let per_vp: [&[f64]; 5] = [
        &[1.0, 6.0, 3.0],
        &[1.2, 1.4, 1.3],
        &[1.0, 1.1],
        &[2.5, 2.0, 3.0, 2.6],
        &[1.0, 6.001, 2.0],
    ];
    let targets = per_vp.iter().map(|s| s.len()).max().unwrap();
    let owned: Vec<RouterRtts> = (0..targets)
        .map(|t| {
            let mut r = RouterRtts::new();
            for (vp, seen) in per_vp.iter().enumerate() {
                if let Some(&ms) = seen.get(t) {
                    r.record(VpId(vp as u16), Rtt::from_ms(ms));
                }
            }
            r
        })
        .collect();
    let refs: Vec<&RouterRtts> = owned.iter().collect();
    let check = |spread: f64, median: f64, min_targets: usize| {
        let got = detect_spoofing_vps_blind(&vps, &refs, spread, median, min_targets);
        let want = detect_blind_f64_reference(&vps, &refs, spread, median, min_targets);
        assert_eq!(
            got, want,
            "spread {spread} median {median} min {min_targets}"
        );
        got
    };
    // A spread exactly at the limit is flagged; 1 µs past it is not.
    assert!(check(5.0, 100.0, 3).contains(&VpId(0)));
    assert!(!check(5.0, 100.0, 3).contains(&VpId(4)));
    // Exactly min_targets samples qualify; one fewer does not.
    assert!(check(1.0, 5.0, 3).contains(&VpId(1)));
    assert!(!check(1.0, 5.0, 3).contains(&VpId(2)));
    assert!(check(1.0, 5.0, 2).contains(&VpId(2)));
    // A median exactly at the limit is flagged (sorted 2.0 2.5 2.6 3.0,
    // upper median 2.6), just below it is not.
    assert!(check(5.0, 2.6, 4).contains(&VpId(3)));
    assert!(!check(5.0, 2.599, 4).contains(&VpId(3)));
    // No campaigns: nothing to flag.
    assert!(detect_spoofing_vps_blind(&vps, &[], 5.0, 5.0, 1).is_empty());
    assert!(detect_blind_f64_reference(&vps, &[], 5.0, 5.0, 1).is_empty());
}

/// When the filter finds spoofers, learning must equal learning on a
/// corpus whose samples were stripped by hand.
#[test]
fn filtered_learning_equals_learning_on_a_stripped_clone() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = poisoned_corpus(&db);
    let bad = vec![VpId(3), VpId(11), VpId(19)];
    let mut stripped = corpus.clone();
    for r in &mut stripped.routers {
        r.rtts = strip_vps(&r.rtts, &bad);
        r.traceroute_rtts = strip_vps(&r.traceroute_rtts, &bad);
    }

    let filtered = Hoiho::new(&db, &psl).learn_corpus(&corpus);
    let manual = Hoiho::with_options(
        &db,
        &psl,
        HoihoOptions {
            filter_spoofed_vps: false,
            ..Default::default()
        },
    )
    .learn_corpus(&stripped);

    assert_eq!(filtered.spoofed_vps, bad);
    assert!(manual.spoofed_vps.is_empty());
    assert_eq!(filtered.total_routers, manual.total_routers);
    assert_eq!(filtered.routers_with_hostname, manual.routers_with_hostname);
    assert_eq!(filtered.routers_with_apparent, manual.routers_with_apparent);
    assert_eq!(filtered.routers_geolocated, manual.routers_geolocated);
    assert_eq!(filtered.routers_extrapolated, manual.routers_extrapolated);
    assert_eq!(filtered.results.len(), manual.results.len());
    let patterns = |r: &SuffixResult| {
        r.nc.as_ref().map(|nc| {
            nc.regexes
                .iter()
                .map(|g| g.regex.as_pattern())
                .collect::<Vec<_>>()
        })
    };
    for (a, b) in filtered.results.iter().zip(&manual.results) {
        assert_eq!(a.suffix, b.suffix);
        assert_eq!(a.hosts, b.hosts, "{}", a.suffix);
        assert_eq!(a.tagged_hosts, b.tagged_hosts, "{}", a.suffix);
        assert_eq!(a.class, b.class, "{}", a.suffix);
        assert_eq!(a.metrics, b.metrics, "{}", a.suffix);
        assert_eq!(a.unique_hints, b.unique_hints, "{}", a.suffix);
        assert_eq!(a.learned, b.learned, "{}", a.suffix);
        assert_eq!(patterns(a), patterns(b), "{}", a.suffix);
        assert_eq!(a.geolocated_routers, b.geolocated_routers, "{}", a.suffix);
        assert_eq!(
            a.extrapolated_routers, b.extrapolated_routers,
            "{}",
            a.suffix
        );
    }
    assert!(filtered.usable().count() > 0);
}
