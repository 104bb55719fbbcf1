//! Stage 2: identify apparent geohints in hostnames (§5.2).
//!
//! For every alphabetic string before the suffix, consult the dictionary
//! for interpretations whose location is *RTT-consistent* — the
//! theoretical best-case RTT from every VP with a measurement does not
//! exceed the measured RTT. Handles split CLLI prefixes (fig 6e), long
//! CLLI embeddings (fig 6d), facility street addresses (fig 6f), and
//! tags adjacent country/state codes as part of the hint (fig 6a).

use crate::evalctx::FeasibilityCache;
use crate::tokenize::{tokenize, Token, TokenKind};
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{GeohintType, LocationId};
use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpSet};

/// An apparent geohint tagged on a hostname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tag {
    /// Byte span of the hint within the prefix.
    pub start: usize,
    /// End of the span (exclusive). For split CLLI hints this covers
    /// only the 4-letter half.
    pub end: usize,
    /// The hint text (split CLLI halves joined: `mtgmal`).
    pub text: String,
    /// The dictionary that interpreted it.
    pub ty: GeohintType,
    /// RTT-consistent interpretations.
    pub locations: Vec<LocationId>,
    /// Country/state tokens elsewhere in the hostname that corroborate
    /// the hint; a regex must extract these too to score a TP.
    pub cc_texts: Vec<String>,
    /// Span of the 2-letter half of a split CLLI prefix.
    pub split: Option<(usize, usize)>,
}

/// Tag the apparent geohints of one hostname prefix.
///
/// Routers without RTT samples produce no tags: without constraints the
/// method cannot distinguish a geohint from a coincidence.
pub fn tag_prefix(
    db: &GeoDb,
    vps: &VpSet,
    rtts: &RouterRtts,
    prefix: &str,
    policy: &ConsistencyPolicy,
) -> Vec<Tag> {
    // Transient cache: single-prefix callers (tests, ad-hoc tagging)
    // still dedup repeated interpretations within one prefix.
    let feas = FeasibilityCache::new();
    tag_prefix_cached(db, vps, rtts, prefix, policy, &feas, 0)
}

/// [`tag_prefix`] with a caller-owned [`FeasibilityCache`]. Corpus-wide
/// callers (`build_training_sets`, `detect_stale`) pass one cache keyed
/// by router id so every prefix of a router shares feasibility answers.
pub fn tag_prefix_cached(
    db: &GeoDb,
    vps: &VpSet,
    rtts: &RouterRtts,
    prefix: &str,
    policy: &ConsistencyPolicy,
    feas: &FeasibilityCache,
    key: u64,
) -> Vec<Tag> {
    if rtts.is_empty() || prefix.is_empty() {
        return Vec::new();
    }
    let tokens = tokenize(prefix);
    let mut tags = Vec::new();

    // Plain alphabetic tokens against every dictionary that fits.
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Alpha {
            continue;
        }
        let mut cands = db.lookup(t.text);
        cands.extend(db.lookup_clli_head(t.text));
        push_consistent(db, vps, rtts, policy, feas, key, &mut tags, t, None, cands);

        // Split CLLI: a 4-letter token whose next alphabetic neighbour
        // (across digits/punctuation, within the same label) is a
        // 2-letter token forming a known prefix.
        if t.text.len() == 4 {
            if let Some(two) = next_alpha_in_label(&tokens, i) {
                if two.text.len() == 2 {
                    let cands = db.lookup_clli_split(t.text, two.text);
                    push_consistent(
                        db,
                        vps,
                        rtts,
                        policy,
                        feas,
                        key,
                        &mut tags,
                        t,
                        Some(two),
                        cands,
                    );
                }
            }
        }
    }

    // Facility street addresses: whole labels that mix digits and
    // letters (e.g. `1118thave`).
    for (start, end) in crate::tokenize::labels(prefix) {
        let label = &prefix[start..end];
        if label.bytes().any(|b| b.is_ascii_digit())
            && label.bytes().any(|b| b.is_ascii_alphabetic())
            && label.bytes().all(|b| b.is_ascii_alphanumeric())
        {
            let locs = db.lookup_typed(label, GeohintType::Facility);
            let consistent: Vec<LocationId> = locs
                .into_iter()
                .filter(|id| feas.feasible(db, vps, policy, key, rtts, *id))
                .collect();
            if !consistent.is_empty() {
                tags.push(Tag {
                    start,
                    end,
                    text: label.to_string(),
                    ty: GeohintType::Facility,
                    locations: consistent,
                    cc_texts: Vec::new(),
                    split: None,
                });
            }
        }
    }

    // Country/state corroboration: standalone 2–3 letter labels that
    // match a tagged location's codes become part of the hint.
    let standalone: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Alpha
                && (2..=3).contains(&t.text.len())
                && label_is_exactly(prefix, t)
        })
        .collect();
    for tag in &mut tags {
        for t in &standalone {
            if t.start == tag.start {
                continue; // the hint itself
            }
            let matching: Vec<LocationId> = tag
                .locations
                .iter()
                .copied()
                .filter(|id| db.location(*id).matches_cc_or_state(t.text))
                .collect();
            if !matching.is_empty() {
                tag.locations = matching;
                tag.cc_texts.push(t.text.to_string());
            }
        }
    }

    tags.sort_by_key(|t| (t.start, t.end));
    tags
}

#[allow(clippy::too_many_arguments)]
fn push_consistent(
    db: &GeoDb,
    vps: &VpSet,
    rtts: &RouterRtts,
    policy: &ConsistencyPolicy,
    feas: &FeasibilityCache,
    key: u64,
    tags: &mut Vec<Tag>,
    token: &Token<'_>,
    split_two: Option<&Token<'_>>,
    cands: Vec<hoiho_geodb::HintMatch>,
) {
    use std::collections::BTreeMap;
    // Ordered by type, so tags sharing a span keep one order run to run.
    let mut by_type: BTreeMap<GeohintType, Vec<LocationId>> = BTreeMap::new();
    for c in cands {
        if feas.feasible(db, vps, policy, key, rtts, c.location) {
            by_type.entry(c.hint_type).or_default().push(c.location);
        }
    }
    for (ty, locations) in by_type {
        let (text, split) = match split_two {
            Some(two) if ty == GeohintType::Clli => (
                format!("{}{}", token.text, two.text),
                Some((two.start, two.end)),
            ),
            _ => {
                // A long token interpreted as a CLLI head: the hint span
                // is the first six characters.
                if ty == GeohintType::Clli && token.text.len() > 6 {
                    (token.text[..6].to_string(), None)
                } else {
                    (token.text.to_string(), None)
                }
            }
        };
        let end = if ty == GeohintType::Clli && token.text.len() > 6 && split_two.is_none() {
            token.start + 6
        } else {
            token.end
        };
        tags.push(Tag {
            start: token.start,
            end,
            text,
            ty,
            locations,
            cc_texts: Vec::new(),
            split,
        });
    }
}

/// The next alphabetic token after index `i` within the same label,
/// skipping digits and punctuation (but not dots — same label only).
fn next_alpha_in_label<'a>(tokens: &'a [Token<'a>], i: usize) -> Option<&'a Token<'a>> {
    let label = tokens[i].label;
    tokens[i + 1..]
        .iter()
        .take_while(|t| t.label == label)
        .find(|t| t.kind == TokenKind::Alpha)
}

/// Whether a token spans its entire label (`uk` in `.uk.`).
fn label_is_exactly(prefix: &str, t: &Token<'_>) -> bool {
    let before_ok = t.start == 0 || prefix.as_bytes()[t.start - 1] == b'.';
    let after_ok = t.end == prefix.len() || prefix.as_bytes()[t.end] == b'.';
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_geotypes::{Coordinates, Rtt};
    use hoiho_rtt::VpId;

    struct World {
        db: GeoDb,
        vps: VpSet,
    }

    fn world() -> World {
        let mut vps = VpSet::new();
        vps.add("dca-us", Coordinates::new(38.9, -77.0)); // VP 0 near DC
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05)); // VP 1 London
        vps.add("sjc-us", Coordinates::new(37.34, -121.89)); // VP 2 San Jose
        World {
            db: GeoDb::builtin(),
            vps,
        }
    }

    fn rtts(pairs: &[(u16, f64)]) -> RouterRtts {
        let mut r = RouterRtts::new();
        for (vp, ms) in pairs {
            r.record(VpId(*vp), Rtt::from_ms(*ms));
        }
        r
    }

    fn tags_for(w: &World, rtt: &RouterRtts, prefix: &str) -> Vec<Tag> {
        tag_prefix(&w.db, &w.vps, rtt, prefix, &ConsistencyPolicy::STRICT)
    }

    #[test]
    fn zayo_hostname_tags_lhr_and_uk() {
        let w = world();
        // Router in London: 2ms from the London VP, 75ms from DC.
        let r = rtts(&[(0, 75.0), (1, 2.0)]);
        let tags = tags_for(&w, &r, "zayo-ntt.mpr1.lhr15.uk.zip");
        let lhr = tags
            .iter()
            .find(|t| t.text == "lhr" && t.ty == GeohintType::Iata)
            .expect("lhr tagged");
        assert_eq!(lhr.cc_texts, vec!["uk"]);
        // "ntt" is an alpha token but decodes to nothing in our dict, so
        // no tag; and nothing with 2ms London constraints admits distant
        // interpretations.
        assert!(tags.iter().all(|t| t.text != "ntt"));
    }

    #[test]
    fn inconsistent_hint_not_tagged() {
        let w = world();
        // Router near DC: 3ms from the DC VP. "lhr" (London) is not
        // feasible.
        let r = rtts(&[(0, 3.0)]);
        let tags = tags_for(&w, &r, "cr1.lhr15");
        assert!(tags.iter().all(|t| t.text != "lhr"));
    }

    #[test]
    fn clli_prefix_tagged_with_country() {
        let w = world();
        let r = rtts(&[(2, 2.5)]); // 2.5ms from San Jose
        let tags = tags_for(&w, &r, "xe-0-0-28-0.a02.snjsca04.us.bb");
        let clli = tags
            .iter()
            .find(|t| t.ty == GeohintType::Clli)
            .expect("snjsca tagged");
        assert_eq!(clli.text, "snjsca");
        assert_eq!(clli.cc_texts, vec!["us"]);
    }

    #[test]
    fn long_clli_token_uses_first_six() {
        let w = world();
        let r = rtts(&[(2, 2.5)]);
        let tags = tags_for(&w, &r, "0.af0.snjsca83-mse01-a-ie1");
        // No 'snjsca83' token exists because digits split runs; the
        // 6-letter run is an exact CLLI hit.
        let clli = tags.iter().find(|t| t.ty == GeohintType::Clli).unwrap();
        assert_eq!(clli.text, "snjsca");
    }

    #[test]
    fn split_clli_tagged() {
        let w = world();
        // Montgomery AL is ~1,200km from the DC VP; 15ms allows it.
        let r = rtts(&[(0, 15.0)]);
        let tags = tags_for(&w, &r, "ae2-0.agr02-mtgm01-al");
        let split = tags
            .iter()
            .find(|t| t.ty == GeohintType::Clli && t.split.is_some())
            .expect("split clli tagged");
        assert_eq!(split.text, "mtgmal");
    }

    #[test]
    fn facility_address_tagged() {
        let w = world();
        let r = rtts(&[(0, 5.0)]); // NYC feasible from DC at 5ms
        let tags = tags_for(&w, &r, "be-232.1118thave.ny");
        let fac = tags
            .iter()
            .find(|t| t.ty == GeohintType::Facility)
            .expect("facility tagged");
        assert_eq!(fac.text, "1118thave");
    }

    #[test]
    fn city_name_tagged_and_narrowed_by_state() {
        let w = world();
        let r = rtts(&[(0, 4.0)]);
        let tags = tags_for(&w, &r, "core1.washington.dc.us");
        let city = tags
            .iter()
            .find(|t| t.ty == GeohintType::CityName)
            .expect("washington tagged");
        assert!(city.cc_texts.contains(&"dc".to_string()));
        assert!(city.cc_texts.contains(&"us".to_string()));
        // Narrowed to DC (all locations match state dc).
        for id in &city.locations {
            assert_eq!(w.db.location(*id).state.unwrap().as_str(), "dc");
        }
    }

    #[test]
    fn unresponsive_router_gets_no_tags() {
        let w = world();
        let tags = tags_for(&w, &RouterRtts::new(), "cr1.lhr15");
        assert!(tags.is_empty());
    }

    #[test]
    fn cc_token_must_be_standalone_label() {
        let w = world();
        let r = rtts(&[(2, 2.5)]);
        // "us" buried in a label with digits ("us01") must not count as
        // a country tag.
        let tags = tags_for(&w, &r, "a02.snjsca04.us01.bb");
        let clli = tags.iter().find(|t| t.ty == GeohintType::Clli).unwrap();
        assert!(clli.cc_texts.is_empty());
    }

    #[test]
    fn multiple_feasible_tags_kept() {
        let w = world();
        // A very loose constraint keeps multiple interpretations alive
        // (fig 6b: the next stage disambiguates).
        let r = rtts(&[(1, 30.0)]);
        let tags = tags_for(&w, &r, "gw1.edge2.brussels1");
        // "edge" is a GB town and "brussels" the Belgian capital; both
        // feasible at 30ms from London.
        assert!(tags.iter().any(|t| t.text == "edge"));
        assert!(tags.iter().any(|t| t.text == "brussels"));
    }
}
