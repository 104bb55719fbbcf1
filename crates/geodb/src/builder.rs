//! Assembling a [`GeoDb`] from rows, with deterministic derivation of
//! CLLI prefixes and LOCODEs for cities that have no explicit override.
//!
//! Derivation mirrors the *structure* of the real code systems (§2):
//! a CLLI prefix is a 4-letter city abbreviation plus a 2-letter
//! state/country code; a LOCODE is the ISO country plus a 3-letter
//! location code (the IATA code where the location has an airport).

use crate::data;
use crate::GeoDb;
use hoiho_geotypes::{Coordinates, CountryCode, Location, LocationId, LocationKind, StateCode};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Incremental builder for [`GeoDb`].
#[derive(Debug, Default)]
pub struct GeoDbBuilder {
    db: GeoDb,
    /// `(lowercased name, country)` → candidate city ids, for resolving
    /// override rows; ambiguity is resolved by population.
    by_name: HashMap<(String, String), Vec<LocationId>>,
}

impl GeoDbBuilder {
    /// An empty builder.
    pub fn new() -> GeoDbBuilder {
        GeoDbBuilder::default()
    }

    /// A builder pre-loaded with the embedded curated dataset
    /// ([`crate::data`]), including derived CLLI prefixes and LOCODEs.
    pub fn with_builtin_data() -> GeoDbBuilder {
        let mut b = GeoDbBuilder::new();
        b.load_builtin();
        b
    }

    fn load_builtin(&mut self) {
        for &(name, cc, state, lat, lon, pop, iata, icao) in data::CITIES {
            let id = self.add_city(name, cc, state, Coordinates::new(lat, lon), pop);
            if !iata.is_empty() {
                // The primary airport: located at the city for the
                // curated rows (the real offset is below RTT resolution).
                self.add_airport(iata, icao, name, cc, state, Coordinates::new(lat, lon));
            }
            let _ = id;
        }
        for &(iata, icao, city, cc, lat, lon) in data::EXTRA_AIRPORTS {
            let state = self
                .resolve_city(city, cc)
                .and_then(|id| self.db.locations[id.0 as usize].state)
                .map(|s| s.as_str().to_string())
                .unwrap_or_default();
            self.add_airport(iata, icao, city, cc, &state, Coordinates::new(lat, lon));
        }
        for &(clli, city, cc) in data::CLLI_OVERRIDES {
            if let Some(id) = self.resolve_city(city, cc) {
                self.add_clli(clli, id);
            }
        }
        for &(code, city, cc) in data::LOCODE_OVERRIDES {
            if let Some(id) = self.resolve_city(city, cc) {
                self.add_locode(code, id);
            }
        }
        for &(name, token, city, cc) in data::FACILITIES {
            if let Some(city_id) = self.resolve_city(city, cc) {
                self.add_facility(name, token, city_id);
            }
        }
        self.derive_missing_codes();
    }

    /// Add a city; returns its id.
    pub fn add_city(
        &mut self,
        name: &str,
        cc: &str,
        state: &str,
        coords: Coordinates,
        population: u64,
    ) -> LocationId {
        let country = CountryCode::new(cc)
            .expect("valid country code")
            .canonical();
        let state = if state.is_empty() {
            None
        } else {
            Some(StateCode::new(state).expect("valid state code"))
        };
        let loc = Location {
            name: name.to_string(),
            country,
            state,
            coords,
            population,
            kind: LocationKind::City,
        };
        let key = loc.hostname_form();
        // Operators often write only the head word of a long city name
        // ("frankfurt" for Frankfurt am Main); index that form too.
        let first_word: Option<String> = {
            let words: Vec<&str> = name
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|w| !w.is_empty())
                .collect();
            if words.len() >= 2 && words[0].len() >= 4 {
                Some(words[0].to_ascii_lowercase())
            } else {
                None
            }
        };
        let id = self.push(loc);
        self.db.city.entry(key).or_default().push(id);
        if let Some(fw) = first_word {
            self.db.city.entry(fw).or_default().push(id);
        }
        self.by_name
            .entry((name.to_ascii_lowercase(), cc.to_ascii_lowercase()))
            .or_default()
            .push(id);
        id
    }

    /// Add an airport serving `city_served`; indexes its IATA (and ICAO,
    /// when nonempty) codes.
    pub fn add_airport(
        &mut self,
        iata: &str,
        icao: &str,
        city_served: &str,
        cc: &str,
        state: &str,
        coords: Coordinates,
    ) -> LocationId {
        let country = CountryCode::new(cc)
            .expect("valid country code")
            .canonical();
        let state = if state.is_empty() {
            None
        } else {
            Some(StateCode::new(state).expect("valid state code"))
        };
        // Airports inherit the population of the city they serve so
        // stage-4 population ranking works uniformly.
        let population = self
            .resolve_city(city_served, cc)
            .map(|id| self.db.locations[id.0 as usize].population)
            .unwrap_or(0);
        let loc = Location {
            name: city_served.to_string(),
            country,
            state,
            coords,
            population,
            kind: LocationKind::Airport,
        };
        let id = self.push(loc);
        self.db
            .iata
            .entry(iata.to_ascii_lowercase())
            .or_default()
            .push(id);
        if !icao.is_empty() {
            self.db
                .icao
                .entry(icao.to_ascii_lowercase())
                .or_default()
                .push(id);
        }
        id
    }

    /// Register a CLLI prefix for a location.
    pub fn add_clli(&mut self, prefix: &str, loc: LocationId) {
        debug_assert_eq!(prefix.len(), 6, "CLLI prefixes are six characters");
        self.db
            .clli
            .entry(prefix.to_ascii_lowercase())
            .or_default()
            .push(loc);
    }

    /// Register a LOCODE for a location.
    pub fn add_locode(&mut self, code: &str, loc: LocationId) {
        debug_assert_eq!(code.len(), 5, "LOCODEs are five characters");
        self.db
            .locode
            .entry(code.to_ascii_lowercase())
            .or_default()
            .push(loc);
    }

    /// Add a facility in `city`; indexes its street token and marks the
    /// city as hosting a facility.
    pub fn add_facility(&mut self, name: &str, street_token: &str, city: LocationId) -> LocationId {
        let city_loc = self.db.locations[city.0 as usize].clone();
        let loc = Location {
            name: name.to_string(),
            country: city_loc.country,
            state: city_loc.state,
            coords: city_loc.coords,
            population: 0,
            kind: LocationKind::Facility,
        };
        let id = self.push(loc);
        let token = street_token.to_ascii_lowercase();
        self.db
            .facility_token
            .entry(token.clone())
            .or_default()
            .push(id);
        self.db.facility_cities.insert(city);
        self.db
            .facility_by_city
            .entry(city)
            .or_default()
            .push((token, id));
        id
    }

    /// For every city without a CLLI prefix or LOCODE, derive one
    /// following the real systems' structure. Idempotent.
    pub fn derive_missing_codes(&mut self) {
        let mut have_clli: HashMap<LocationId, ()> = HashMap::new();
        for ids in self.db.clli.values() {
            for id in ids {
                have_clli.insert(*id, ());
            }
        }
        let mut have_locode: HashMap<LocationId, ()> = HashMap::new();
        for ids in self.db.locode.values() {
            for id in ids {
                have_locode.insert(*id, ());
            }
        }
        // IATA by (served name, country), to embed in derived LOCODEs.
        let mut iata_for: HashMap<(String, String), String> = HashMap::new();
        for (code, ids) in &self.db.iata {
            for id in ids {
                let l = &self.db.locations[id.0 as usize];
                iata_for
                    .entry((l.name.to_ascii_lowercase(), l.country.as_str().to_string()))
                    .or_insert_with(|| code.clone());
            }
        }

        let city_ids: Vec<LocationId> = self
            .db
            .iter()
            .filter(|(_, l)| l.kind == LocationKind::City)
            .map(|(id, _)| id)
            .collect();

        for id in city_ids {
            let l = self.db.locations[id.0 as usize].clone();
            if !have_clli.contains_key(&id) {
                let city4 = derive_clli_city4(&l.name);
                let region = clli_region(&l);
                let prefix = format!("{city4}{region}");
                if prefix.len() == 6 && !self.db.clli.contains_key(&prefix) {
                    self.add_clli(&prefix, id);
                }
            }
            if !have_locode.contains_key(&id) {
                let key = (l.name.to_ascii_lowercase(), l.country.as_str().to_string());
                let tail = iata_for
                    .get(&key)
                    .cloned()
                    .or_else(|| self.free_locode_tail(&l));
                if let Some(tail) = tail {
                    let code = format!("{}{}", l.country.as_str(), tail);
                    if code.len() == 5 && !self.db.locode.contains_key(&code) {
                        self.add_locode(&code, id);
                    }
                }
            }
        }
    }

    /// Finish and return the dictionary.
    pub fn build(mut self) -> GeoDb {
        self.db.rendered = self.db.locations.iter().map(|_| OnceLock::new()).collect();
        self.db
    }

    fn push(&mut self, loc: Location) -> LocationId {
        let id = LocationId(self.db.locations.len() as u32);
        self.db.locations.push(loc);
        id
    }

    /// Resolve `(city name, country)` to the most populous matching city.
    fn resolve_city(&self, name: &str, cc: &str) -> Option<LocationId> {
        let cands = self
            .by_name
            .get(&(name.to_ascii_lowercase(), cc.to_ascii_lowercase()))?;
        cands
            .iter()
            .copied()
            .max_by_key(|id| self.db.locations[id.0 as usize].population)
    }

    /// A 3-letter LOCODE tail not yet used in this country.
    fn free_locode_tail(&self, l: &Location) -> Option<String> {
        let form = l.hostname_form();
        let cc = l.country.as_str();
        let mut candidates = Vec::new();
        if form.len() >= 3 {
            candidates.push(form[..3].to_string());
        }
        // First char + two consonants.
        let consonants: String = form
            .chars()
            .skip(1)
            .filter(|c| !"aeiou".contains(*c))
            .take(2)
            .collect();
        if consonants.len() == 2 {
            candidates.push(format!("{}{}", &form[..1], consonants));
        }
        // First char + sliding later pairs.
        let rest: Vec<char> = form.chars().skip(1).collect();
        for w in rest.windows(2) {
            candidates.push(format!("{}{}{}", &form[..1], w[0], w[1]));
        }
        candidates.retain(|t| t.len() == 3 && t.chars().all(|c| c.is_ascii_lowercase()));
        candidates
            .into_iter()
            .find(|t| !self.db.locode.contains_key(&format!("{cc}{t}")))
    }
}

/// Derive the 4-letter city part of a CLLI prefix: the first character of
/// the name followed by its consonants, padding with skipped vowels when
/// the name is consonant-poor (`richmond` → `rcmd`, `edge` → `edge`).
pub fn derive_clli_city4(name: &str) -> String {
    let form: String = name
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    if form.is_empty() {
        return "xxxx".to_string();
    }
    let mut out = String::new();
    let mut skipped = Vec::new();
    for (i, c) in form.chars().enumerate() {
        if out.len() == 4 {
            break;
        }
        if i == 0 || !"aeiou".contains(c) {
            out.push(c);
        } else {
            skipped.push((out.len(), c));
        }
    }
    // Pad with the earliest skipped vowels, in name order, at their
    // relative positions as closely as possible (append is sufficient for
    // the structure; exactness is not required).
    for (_, v) in skipped {
        if out.len() >= 4 {
            break;
        }
        out.push(v);
    }
    while out.len() < 4 {
        out.push('x');
    }
    out.truncate(4);
    out
}

/// The 2-letter region part of a CLLI prefix: the state for locations
/// that have one, a country-specific region code otherwise (`londen` uses
/// `en` for England).
pub fn clli_region(l: &Location) -> String {
    if let Some(st) = l.state {
        let s = st.as_str();
        if s.len() == 2 {
            return s.to_string();
        }
        // 3-letter ISO subdivisions (GB nations) map to traditional
        // 2-letter CLLI regions.
        return match s {
            "eng" => "en".to_string(),
            "sct" => "sc".to_string(),
            "wls" => "wl".to_string(),
            _ => s[..2].to_string(),
        };
    }
    match l.country.as_str() {
        "gb" => "en".to_string(),
        cc => cc.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_clli_examples() {
        assert_eq!(derive_clli_city4("Richmond"), "rchm");
        assert_eq!(derive_clli_city4("Ashburn"), "ashb");
        assert_eq!(derive_clli_city4("London"), "lndn");
        assert_eq!(derive_clli_city4("Edge"), "edge");
        assert_eq!(derive_clli_city4("Io"), "ioxx");
    }

    #[test]
    fn derived_clli_has_region() {
        let db = GeoDb::builtin();
        // Eugene OR got the explicit override eugnor.
        let hits = db.lookup("eugnor");
        assert!(!hits.is_empty());
        assert_eq!(db.location(hits[0].location).name, "Eugene");
    }

    #[test]
    fn every_city_reachable_by_some_code() {
        let db = GeoDb::builtin();
        // All big cities should have at least a city-name entry.
        for (_, l) in db.iter() {
            if l.kind == LocationKind::City {
                assert!(
                    !db.lookup(&l.hostname_form()).is_empty(),
                    "{} unreachable",
                    l.name
                );
            }
        }
    }

    #[test]
    fn derived_locode_embeds_iata() {
        let db = GeoDb::builtin();
        // Zurich has airport zrh and no override: locode should be chzrh.
        let hits = db.lookup("chzrh");
        assert!(
            hits.iter()
                .any(|h| db.location(h.location).name == "Zurich"),
            "chzrh should decode to Zurich"
        );
    }

    #[test]
    fn builder_is_reusable_programmatically() {
        let mut b = GeoDbBuilder::new();
        let c = b.add_city("Testville", "us", "ks", Coordinates::new(38.0, -97.0), 1000);
        b.add_clli("tstvks", c);
        b.add_locode("ustsv", c);
        let db = b.build();
        assert_eq!(db.lookup("testville").len(), 1);
        assert_eq!(db.lookup("tstvks").len(), 1);
        assert_eq!(db.lookup("ustsv").len(), 1);
    }

    #[test]
    fn washington_override_resolves_to_dc() {
        // Several Washingtons exist; washdc must map to the populous one.
        let db = GeoDb::builtin();
        let hits = db.lookup("washdc");
        assert!(!hits.is_empty());
        let l = db.location(hits[0].location);
        assert_eq!(l.state.unwrap().as_str(), "dc");
    }
}
