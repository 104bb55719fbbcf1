//! Publishing and loading learned artifacts.
//!
//! The paper's contribution includes *releasing* the inferred regexes
//! and learned geohints so that others — without measurement
//! infrastructure — can geolocate hostnames. This module defines that
//! release format: a line-oriented text file carrying, per suffix, the
//! NC's regexes (with their capture plans) and the learned
//! suffix-specific geohints (with coordinates, so the file is portable
//! across dictionary versions).
//!
//! ```text
//! hoiho-artifacts-v1
//! suffix zayo.com good
//! regex iata,cc ^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$
//! hint iata tor 43.6532 -79.3832 Toronto
//! ```

use crate::apply::{Geolocator, SuffixGeo};
use crate::convention::{CaptureRole, GeoRegex, NamingConvention, Plan};
use crate::learned::{LearnedHint, LearnedHints};
use crate::rank::NcClass;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, GeohintType};
use hoiho_regex::Regex;
use std::fmt::Write as _;

/// Error from [`parse_artifacts`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "artifact parse error at line {}: {}",
            self.line, self.msg
        )
    }
}

impl std::error::Error for ArtifactError {}

fn role_label(r: CaptureRole) -> &'static str {
    match r {
        CaptureRole::Hint(t) => match t {
            GeohintType::Iata => "iata",
            GeohintType::Icao => "icao",
            GeohintType::Locode => "locode",
            GeohintType::Clli => "clli",
            GeohintType::CityName => "city",
            GeohintType::Facility => "facility",
        },
        CaptureRole::ClliFour => "clli4",
        CaptureRole::ClliTwo => "clli2",
        CaptureRole::CcOrState => "cc",
    }
}

fn role_from_label(s: &str) -> Option<CaptureRole> {
    Some(match s {
        "iata" => CaptureRole::Hint(GeohintType::Iata),
        "icao" => CaptureRole::Hint(GeohintType::Icao),
        "locode" => CaptureRole::Hint(GeohintType::Locode),
        "clli" => CaptureRole::Hint(GeohintType::Clli),
        "city" => CaptureRole::Hint(GeohintType::CityName),
        "facility" => CaptureRole::Hint(GeohintType::Facility),
        "clli4" => CaptureRole::ClliFour,
        "clli2" => CaptureRole::ClliTwo,
        "cc" => CaptureRole::CcOrState,
        _ => return None,
    })
}

/// Serialize every suffix's artifacts.
pub fn write_artifacts(geo: &Geolocator, db: &GeoDb) -> String {
    let mut out = String::from("hoiho-artifacts-v1\n");
    let mut suffixes: Vec<&SuffixGeo> = geo.iter().collect();
    suffixes.sort_by(|a, b| a.nc.suffix.cmp(&b.nc.suffix));
    for s in suffixes {
        let _ = writeln!(out, "suffix {} {}", s.nc.suffix, s.class);
        for r in &s.nc.regexes {
            let roles: Vec<&str> = r.plan.roles.iter().map(|&x| role_label(x)).collect();
            let _ = writeln!(out, "regex {} {}", roles.join(","), r.regex.as_pattern());
        }
        for h in &s.learned.hints {
            let l = db.location(h.location);
            let _ = writeln!(
                out,
                "hint {} {} {:.4} {:.4} {}",
                role_label(CaptureRole::Hint(h.ty)),
                h.token,
                l.coords.lat(),
                l.coords.lon(),
                l.name
            );
        }
    }
    out
}

/// Parse a release file back into a [`Geolocator`], re-anchoring each
/// learned hint to the nearest location in `db`.
pub fn parse_artifacts(text: &str, db: &GeoDb) -> Result<Geolocator, ArtifactError> {
    let err = |line: usize, msg: &str| ArtifactError {
        line,
        msg: msg.to_string(),
    };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if header.trim() != "hoiho-artifacts-v1" {
        return Err(err(1, "missing hoiho-artifacts-v1 header"));
    }

    let mut geo = Geolocator::new();
    // The open block carries the line its `suffix` record appeared on so
    // a truncated block (no regexes by the time it closes) is reported
    // against that line.
    let mut current: Option<(NamingConvention, Vec<LearnedHint>, NcClass, usize)> = None;
    let flush = |geo: &mut Geolocator,
                 current: &mut Option<(NamingConvention, Vec<LearnedHint>, NcClass, usize)>|
     -> Result<(), ArtifactError> {
        if let Some((nc, hints, class, opened_ln)) = current.take() {
            if nc.regexes.is_empty() {
                return Err(ArtifactError {
                    line: opened_ln,
                    msg: format!(
                        "suffix {} has no regex records (truncated file?)",
                        nc.suffix
                    ),
                });
            }
            geo.insert(SuffixGeo {
                nc,
                learned: LearnedHints::from_hints(hints),
                class,
            });
        }
        Ok(())
    };

    for (ln0, line) in lines {
        let ln = ln0 + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(2, ' ');
        let tag = parts.next().expect("nonempty");
        let rest = parts.next().unwrap_or("");
        match tag {
            "suffix" => {
                flush(&mut geo, &mut current)?;
                let mut f = rest.split_whitespace();
                let sfx = f.next().ok_or_else(|| err(ln, "suffix: missing name"))?;
                let class = match f.next() {
                    Some("good") => NcClass::Good,
                    Some("promising") => NcClass::Promising,
                    Some("poor") => NcClass::Poor,
                    _ => return Err(err(ln, "suffix: bad class")),
                };
                if f.next().is_some() {
                    return Err(err(ln, "suffix: trailing garbage after class"));
                }
                if geo.suffix(sfx).is_some() {
                    return Err(err(ln, &format!("duplicate suffix block '{sfx}'")));
                }
                current = Some((
                    NamingConvention {
                        suffix: sfx.into(),
                        regexes: Vec::new(),
                    },
                    Vec::new(),
                    class,
                    ln,
                ));
            }
            "regex" => {
                let (nc, _, _, _) = current
                    .as_mut()
                    .ok_or_else(|| err(ln, "regex before suffix"))?;
                let mut f = rest.splitn(2, ' ');
                let roles_s = f.next().ok_or_else(|| err(ln, "regex: missing plan"))?;
                let pattern = f.next().ok_or_else(|| err(ln, "regex: missing pattern"))?;
                let roles = roles_s
                    .split(',')
                    .map(role_from_label)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| err(ln, "regex: bad plan role"))?;
                let regex = Regex::parse(pattern).map_err(|e| err(ln, &format!("regex: {e}")))?;
                if regex.capture_count() != roles.len() {
                    return Err(err(ln, "regex: plan does not match capture count"));
                }
                nc.regexes.push(GeoRegex {
                    regex,
                    plan: Plan { roles },
                });
            }
            "hint" => {
                let (_, hints, _, _) = current
                    .as_mut()
                    .ok_or_else(|| err(ln, "hint before suffix"))?;
                let mut f = rest.splitn(5, ' ');
                let ty = f
                    .next()
                    .and_then(role_from_label)
                    .and_then(|r| match r {
                        CaptureRole::Hint(t) => Some(t),
                        _ => None,
                    })
                    .ok_or_else(|| err(ln, "hint: bad type"))?;
                let token = f.next().ok_or_else(|| err(ln, "hint: missing token"))?;
                let lat: f64 = f
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "hint: bad latitude"))?;
                let lon: f64 = f
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "hint: bad longitude"))?;
                let _name = f.next().unwrap_or("");
                let coords = Coordinates::new(lat, lon);
                let location = nearest_location(db, &coords)
                    .ok_or_else(|| err(ln, "hint: empty dictionary"))?;
                hints.push(LearnedHint {
                    token: token.to_string(),
                    ty,
                    location,
                    tp: 0,
                    fp: 0,
                    existing_tp: 0,
                });
            }
            other => return Err(err(ln, &format!("unknown record '{other}'"))),
        }
    }
    flush(&mut geo, &mut current)?;
    Ok(geo)
}

/// The dictionary location closest to `coords` (re-anchoring published
/// hints onto the local dictionary).
fn nearest_location(db: &GeoDb, coords: &Coordinates) -> Option<hoiho_geotypes::LocationId> {
    db.iter()
        .filter(|(_, l)| l.kind == hoiho_geotypes::LocationKind::City)
        .min_by(|a, b| {
            a.1.coords
                .distance_km(coords)
                .total_cmp(&b.1.coords.distance_km(coords))
        })
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_psl::PublicSuffixList;

    fn sample_geolocator(db: &GeoDb) -> Geolocator {
        let ash = nearest_location(db, &Coordinates::new(39.0438, -77.4874)).unwrap();
        let mut g = Geolocator::new();
        g.insert(SuffixGeo {
            nc: NamingConvention {
                suffix: "example.net".into(),
                regexes: vec![GeoRegex {
                    regex: Regex::parse(r"^.+\.core\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
                    plan: Plan {
                        roles: vec![CaptureRole::Hint(GeohintType::Iata)],
                    },
                }],
            },
            learned: LearnedHints::from_hints(vec![LearnedHint {
                token: "ash".into(),
                ty: GeohintType::Iata,
                location: ash,
                tp: 4,
                fp: 0,
                existing_tp: 1,
            }]),
            class: NcClass::Good,
        });
        g
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = sample_geolocator(&db);
        let text = write_artifacts(&g, &db);
        let back = parse_artifacts(&text, &db).expect("parse");
        assert_eq!(back.len(), 1);
        for host in [
            "a.core1.ash1.example.net",
            "b.core2.lhr3.example.net",
            "nomatch.example.net",
        ] {
            let a = g.geolocate(&db, &psl, host).map(|i| i.location);
            let b = back.geolocate(&db, &psl, host).map(|i| i.location);
            assert_eq!(a, b, "{host}");
        }
    }

    #[test]
    fn format_is_humanly_stable() {
        let db = GeoDb::builtin();
        let g = sample_geolocator(&db);
        let text = write_artifacts(&g, &db);
        assert!(text.starts_with("hoiho-artifacts-v1\n"));
        assert!(text.contains("suffix example.net good"));
        assert!(text.contains("regex iata ^.+"));
        assert!(text.contains("hint iata ash 39.04"));
    }

    #[test]
    fn parse_errors_are_located() {
        let db = GeoDb::builtin();
        assert!(parse_artifacts("", &db).is_err());
        assert!(parse_artifacts("wrong-header\n", &db).is_err());
        let e = parse_artifacts("hoiho-artifacts-v1\nregex iata ^a$\n", &db).unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_artifacts(
            "hoiho-artifacts-v1\nsuffix x.net good\nregex iata,cc ^([a-z]{3})\\.x\\.net$\n",
            &db,
        )
        .unwrap_err();
        assert!(e.msg.contains("capture count"), "{e}");
        let e = parse_artifacts("hoiho-artifacts-v1\nsuffix x.net weird\n", &db).unwrap_err();
        assert!(e.msg.contains("class"));
    }

    #[test]
    fn hints_reanchor_to_nearest_city() {
        let db = GeoDb::builtin();
        let text = "hoiho-artifacts-v1\nsuffix x.net good\nregex iata ^([a-z]{3})\\.x\\.net$\nhint iata zzz 48.8566 2.3522 Paris\n";
        let g = parse_artifacts(text, &db).expect("parse");
        let s = g.suffix("x.net").expect("suffix");
        let loc = s.learned.get("zzz", GeohintType::Iata).expect("hint");
        assert_eq!(db.location(loc).name, "Paris");
    }

    #[test]
    fn duplicate_suffix_blocks_rejected() {
        let db = GeoDb::builtin();
        let text = "hoiho-artifacts-v1\n\
                    suffix x.net good\nregex iata ^([a-z]{3})\\.x\\.net$\n\
                    suffix y.net good\nregex iata ^([a-z]{3})\\.y\\.net$\n\
                    suffix x.net poor\nregex iata ^([a-z]{3})\\.x\\.net$\n";
        let e = parse_artifacts(text, &db).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.msg.contains("duplicate suffix block 'x.net'"), "{e}");
    }

    #[test]
    fn trailing_garbage_on_suffix_line_rejected() {
        let db = GeoDb::builtin();
        let text =
            "hoiho-artifacts-v1\nsuffix x.net good junk\nregex iata ^([a-z]{3})\\.x\\.net$\n";
        let e = parse_artifacts(text, &db).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("trailing garbage"), "{e}");
    }

    #[test]
    fn truncated_block_without_regexes_rejected() {
        let db = GeoDb::builtin();
        // A file cut off right after a suffix record: the block carries
        // no regexes, so a hot reload must fail loudly rather than load
        // a partial index.
        let e = parse_artifacts("hoiho-artifacts-v1\nsuffix x.net good\n", &db).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("no regex records"), "{e}");
        // Same when the empty block is mid-file.
        let text = "hoiho-artifacts-v1\nsuffix a.net good\n\
                    suffix b.net good\nregex iata ^([a-z]{3})\\.b\\.net$\n";
        let e = parse_artifacts(text, &db).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let db = GeoDb::builtin();
        let text = "hoiho-artifacts-v1\n# comment\n\nsuffix x.net promising\nregex city ^([a-z]+)\\.x\\.net$\n";
        let g = parse_artifacts(text, &db).expect("parse");
        assert_eq!(g.len(), 1);
        assert_eq!(g.suffix("x.net").unwrap().class, NcClass::Promising);
    }
}
