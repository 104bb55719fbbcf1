//! Applying learned conventions: the downstream-user API.
//!
//! A [`Geolocator`] holds the usable naming conventions from a learning
//! run (or loaded regexes) and geolocates arbitrary hostnames — the
//! paper's headline use case: regexes are portable and work without
//! access to measurement infrastructure.

use crate::convention::NamingConvention;
use crate::learned::LearnedHints;
use crate::pipeline::LearnReport;
use crate::rank::NcClass;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, GeohintType, LocationId};
use hoiho_psl::PublicSuffixList;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

/// One suffix's deployable artifacts.
#[derive(Debug, Clone)]
pub struct SuffixGeo {
    /// The naming convention.
    pub nc: NamingConvention,
    /// Suffix-specific learned geohints.
    pub learned: LearnedHints,
    /// The quality class at training time.
    pub class: NcClass,
}

impl SuffixGeo {
    /// The borrowable apply path: extract, decode, and disambiguate a
    /// hostname that has already been routed to this suffix's artifacts.
    ///
    /// `hostname` must be lowercase (regexes are learned over lowercase
    /// names) and should group under [`NamingConvention::suffix`]:
    /// [`Geolocator::route`] yields both.
    pub fn geolocate(&self, db: &GeoDb, hostname: &str) -> Option<GeoInference> {
        let obs = hoiho_obs::enabled();
        let e = self.nc.extract(hostname)?;
        if obs {
            hoiho_obs::counter!("apply.matched").inc();
        }
        // The suffix-specific learned dictionary decodes first, then the
        // reference dictionary, whose list is read in place.
        let learned = self.learned.get(&e.hint, e.ty);
        let locs = match &learned {
            Some(loc) => std::slice::from_ref(loc),
            None => db.locations_of(&e.hint, e.ty),
        };
        // Country/state tokens narrow ambiguous hints, unless no
        // candidate matches them all.
        let described = |id: &LocationId| {
            e.cc_tokens
                .iter()
                .all(|t| db.location(*id).matches_cc_or_state(t))
        };
        let narrow = !e.cc_tokens.is_empty() && locs.iter().any(described);
        // Facility first, then population; `min_by_key` keeps the first
        // of equal candidates, so ties go to decode order.
        let location = locs
            .iter()
            .copied()
            .filter(|id| !narrow || described(id))
            .min_by_key(|&id| {
                (
                    Reverse(db.has_facility(id)),
                    Reverse(db.location(id).population),
                )
            })?;
        if obs {
            hoiho_obs::counter!("apply.resolved").inc();
            if learned.is_some() {
                hoiho_obs::counter!("apply.resolved_learned_hint").inc();
            }
        }
        Some(GeoInference {
            location,
            coords: db.location(location).coords,
            hint: e.hint.into_owned(),
            ty: e.ty,
            learned_hint: learned.is_some(),
            suffix: Arc::clone(&self.nc.suffix),
        })
    }
}

/// A geolocation inference for one hostname.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoInference {
    /// The inferred location.
    pub location: LocationId,
    /// Its coordinates.
    pub coords: Coordinates,
    /// The extracted hint string.
    pub hint: String,
    /// The dictionary that decoded it.
    pub ty: GeohintType,
    /// Whether the hint was a suffix-specific learned geohint.
    pub learned_hint: bool,
    /// The suffix whose NC produced the inference, shared with the NC.
    pub suffix: Arc<str>,
}

/// Applies learned conventions to hostnames.
#[derive(Debug, Clone, Default)]
pub struct Geolocator {
    map: HashMap<String, SuffixGeo>,
}

impl Geolocator {
    /// Empty geolocator.
    pub fn new() -> Geolocator {
        Geolocator::default()
    }

    /// Collect the usable NCs from a learning report.
    pub fn from_report(report: &LearnReport) -> Geolocator {
        let mut g = Geolocator::new();
        for r in report.usable() {
            if let Some(nc) = &r.nc {
                g.insert(SuffixGeo {
                    nc: nc.clone(),
                    learned: r.learned.clone(),
                    class: r.class,
                });
            }
        }
        g
    }

    /// Register one suffix's artifacts.
    pub fn insert(&mut self, geo: SuffixGeo) {
        self.map.insert(geo.nc.suffix.to_string(), geo);
    }

    /// Number of suffixes covered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no suffixes are covered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The artifacts for one suffix.
    pub fn suffix(&self, suffix: &str) -> Option<&SuffixGeo> {
        self.map.get(suffix)
    }

    /// Iterate all artifacts.
    pub fn iter(&self) -> impl Iterator<Item = &SuffixGeo> {
        self.map.values()
    }

    /// The one route from a hostname to the convention that answers it,
    /// shared by [`Geolocator::geolocate`] and the `hoiho-serve` index:
    /// trim whitespace, lowercase into `scratch`, one PSL walk, one map
    /// lookup. `scratch` is left holding the normalised hostname to pass
    /// to [`SuffixGeo::geolocate`]; a caller that reuses it routes
    /// without allocating.
    pub fn route(
        &self,
        psl: &PublicSuffixList,
        hostname: &str,
        scratch: &mut String,
    ) -> Option<&SuffixGeo> {
        scratch.clear();
        scratch.push_str(hostname.trim());
        scratch.make_ascii_lowercase();
        self.map.get(psl.registerable_suffix_of(scratch)?)
    }

    /// Geolocate a hostname: route it to its suffix's NC, extract,
    /// decode, and disambiguate (facility first, then population — the
    /// stage-4 ranking).
    pub fn geolocate(
        &self,
        db: &GeoDb,
        psl: &PublicSuffixList,
        hostname: &str,
    ) -> Option<GeoInference> {
        if hoiho_obs::enabled() {
            hoiho_obs::counter!("apply.lookups").inc();
        }
        let mut host = String::new();
        self.route(psl, hostname, &mut host)?.geolocate(db, &host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convention::{CaptureRole, GeoRegex, Plan};
    use crate::learned::LearnedHint;
    use hoiho_regex::Regex;

    fn geolocator(db: &GeoDb) -> Geolocator {
        let mut learned = LearnedHints::new();
        // Simulate a stage-4 result: ash → Ashburn VA.
        let ash = db
            .lookup("ashburn")
            .into_iter()
            .find(|h| {
                h.hint_type == GeohintType::CityName && db.location(h.location).population > 10_000
            })
            .unwrap()
            .location;
        learned_insert(&mut learned, "ash", GeohintType::Iata, ash);
        let mut g = Geolocator::new();
        g.insert(SuffixGeo {
            nc: NamingConvention {
                suffix: "example.net".into(),
                regexes: vec![GeoRegex {
                    regex: Regex::parse(r"^.+\.core\d+\.([a-z]{3})\d+\.he\.example\.net$").unwrap(),
                    plan: Plan {
                        roles: vec![CaptureRole::Hint(GeohintType::Iata)],
                    },
                }],
            },
            learned,
            class: NcClass::Good,
        });
        g
    }

    fn learned_insert(l: &mut LearnedHints, token: &str, ty: GeohintType, loc: LocationId) {
        // Test helper: go through the public shape.
        let mut tmp = LearnedHints::new();
        std::mem::swap(l, &mut tmp);
        let mut hints = tmp.hints;
        hints.push(LearnedHint {
            token: token.into(),
            ty,
            location: loc,
            tp: 3,
            fp: 0,
            existing_tp: 0,
        });
        *l = LearnedHints::from_hints(hints);
    }

    #[test]
    fn geolocates_with_learned_hint() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        let inf = g
            .geolocate(&db, &psl, "10ge1-2.core1.ash1.he.example.net")
            .expect("geolocated");
        assert_eq!(db.location(inf.location).name, "Ashburn");
        assert!(inf.learned_hint);
        assert_eq!(inf.ty, GeohintType::Iata);
    }

    #[test]
    fn dictionary_hint_used_when_not_learned() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        let inf = g
            .geolocate(&db, &psl, "x.core1.lhr1.he.example.net")
            .expect("geolocated");
        assert_eq!(db.location(inf.location).name, "London");
        assert!(!inf.learned_hint);
    }

    #[test]
    fn unknown_suffix_or_shape_returns_none() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        assert!(g.geolocate(&db, &psl, "x.core1.lhr1.other.net").is_none());
        assert!(g
            .geolocate(&db, &psl, "weird-shape.he.example.net")
            .is_none());
    }

    /// Candidates rank facility first, then population; equal ones go to
    /// the first in decode order, and country/state tokens narrow them
    /// only when some candidate matches.
    #[test]
    fn disambiguation_keeps_decode_order_on_ties() {
        use hoiho_geodb::GeoDbBuilder;
        use hoiho_geotypes::Coordinates;
        let mut b = GeoDbBuilder::new();
        let il = b.add_city(
            "Springfield",
            "us",
            "il",
            Coordinates::new(39.8, -89.6),
            100,
        );
        let ma = b.add_city(
            "Springfield",
            "us",
            "ma",
            Coordinates::new(42.1, -72.6),
            100,
        );
        let mo = b.add_city("Springfield", "us", "mo", Coordinates::new(37.2, -93.3), 50);
        let db = b.build();
        assert_eq!(
            db.locations_of("springfield", GeohintType::CityName),
            [il, ma, mo]
        );
        let geo = SuffixGeo {
            nc: NamingConvention {
                suffix: "example.net".into(),
                regexes: vec![GeoRegex {
                    regex: Regex::parse(r"^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.example\.net$")
                        .unwrap(),
                    plan: Plan {
                        roles: vec![
                            CaptureRole::Hint(GeohintType::CityName),
                            CaptureRole::CcOrState,
                        ],
                    },
                }],
            },
            learned: LearnedHints::new(),
            class: NcClass::Good,
        };
        let at = |host: &str| geo.geolocate(&db, host).map(|i| i.location);
        assert_eq!(at("cr1.springfield1.us.example.net"), Some(il));
        assert_eq!(at("cr1.springfield1.ma.example.net"), Some(ma));
        assert_eq!(at("cr1.springfield1.mo.example.net"), Some(mo));
        assert_eq!(at("cr1.springfield1.de.example.net"), Some(il));
    }

    #[test]
    fn case_insensitive_application() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        assert!(g
            .geolocate(&db, &psl, "X.CORE1.LHR1.HE.EXAMPLE.NET")
            .is_some());
    }
}
