//! Naming conventions: regexes plus extraction plans.
//!
//! A *naming convention* (NC) is "one or more regexes that extract
//! geohints for a given suffix" (§5.3). Each regex carries a *plan*
//! annotating what its capture groups mean — e.g. regex #3 in figure 13
//! "extracts a city name and country code".

use hoiho_geotypes::GeohintType;
use hoiho_regex::Regex;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The meaning of one capture group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaptureRole {
    /// The geohint itself, decoded via the named dictionary.
    Hint(GeohintType),
    /// The 4-letter half of a split CLLI prefix (fig. 6e).
    ClliFour,
    /// The 2-letter half of a split CLLI prefix.
    ClliTwo,
    /// A 2-letter code that may be a country or a state; validated
    /// against the decoded location.
    CcOrState,
}

/// The capture plan of one regex: roles in capture-group order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    /// `roles[i]` is the meaning of capture group `i + 1`.
    pub roles: Vec<CaptureRole>,
}

impl Plan {
    /// The hint dictionary this plan decodes with.
    pub fn hint_type(&self) -> Option<GeohintType> {
        for r in &self.roles {
            match r {
                CaptureRole::Hint(t) => return Some(*t),
                CaptureRole::ClliFour => return Some(GeohintType::Clli),
                _ => {}
            }
        }
        None
    }

    /// Whether the plan extracts a country/state code alongside the
    /// hint (this halves the stage-4 congruence requirement, §5.4).
    pub fn extracts_cc(&self) -> bool {
        self.roles
            .iter()
            .any(|r| matches!(r, CaptureRole::CcOrState))
    }

    /// Short label like `IATA` / `City, CC` as figure 13 annotates.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for r in &self.roles {
            match r {
                CaptureRole::Hint(t) => parts.push(match t {
                    GeohintType::Iata => "IATA".to_string(),
                    GeohintType::Icao => "ICAO".to_string(),
                    GeohintType::Locode => "LOCODE".to_string(),
                    GeohintType::Clli => "CLLI".to_string(),
                    GeohintType::CityName => "City".to_string(),
                    GeohintType::Facility => "Facility".to_string(),
                }),
                CaptureRole::ClliFour => parts.push("CLLI".to_string()),
                CaptureRole::ClliTwo => {}
                CaptureRole::CcOrState => parts.push("CC".to_string()),
            }
        }
        parts.join(", ")
    }
}

/// What one regex pulled out of a hostname. The hint and the
/// country/state tokens borrow their capture spans from the hostname;
/// a split CLLI, whose halves are joined, is the one owned hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extraction<'h> {
    /// The geohint string (split CLLI halves joined).
    pub hint: Cow<'h, str>,
    /// The dictionary to decode with.
    pub ty: GeohintType,
    /// Extracted country/state tokens, in order.
    pub cc_tokens: Vec<&'h str>,
}

/// A regex with its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRegex {
    /// The compiled pattern.
    pub regex: Regex,
    /// Capture-group meanings.
    pub plan: Plan,
}

impl GeoRegex {
    /// Run against a hostname (the full name; patterns embed the
    /// suffix). Returns the extraction on match.
    pub fn extract<'h>(&self, hostname: &'h str) -> Option<Extraction<'h>> {
        let caps = self.regex.captures(hostname).ok()??;
        let mut hint = "";
        let mut four = "";
        let mut two = "";
        let mut ty = None;
        let mut cc_tokens = Vec::new();
        for (i, role) in self.plan.roles.iter().enumerate() {
            let text = caps.get(i + 1)?;
            match role {
                CaptureRole::Hint(t) => {
                    hint = text;
                    ty = Some(*t);
                }
                CaptureRole::ClliFour => {
                    four = text;
                    ty = Some(GeohintType::Clli);
                }
                CaptureRole::ClliTwo => two = text,
                CaptureRole::CcOrState => cc_tokens.push(text),
            }
        }
        Some(Extraction {
            hint: if !four.is_empty() {
                Cow::Owned([four, two].concat())
            } else {
                Cow::Borrowed(hint)
            },
            ty: ty?,
            cc_tokens,
        })
    }
}

impl fmt::Display for GeoRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}  [{}]", self.regex.as_pattern(), self.plan.describe())
    }
}

/// A naming convention for one suffix: an ordered set of regexes. The
/// first matching regex provides the extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct NamingConvention {
    /// The suffix this NC belongs to (e.g. `ntt.net`), shared with every
    /// inference the NC answers.
    pub suffix: Arc<str>,
    /// The regexes, in priority order.
    pub regexes: Vec<GeoRegex>,
}

impl NamingConvention {
    /// Apply the NC to a hostname: first matching regex wins.
    pub fn extract<'h>(&self, hostname: &'h str) -> Option<Extraction<'h>> {
        self.regexes.iter().find_map(|r| r.extract(hostname))
    }
}

impl fmt::Display for NamingConvention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "NC for {}:", self.suffix)?;
        for r in &self.regexes {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_regex::Regex;

    fn zayo_regex() -> GeoRegex {
        GeoRegex {
            regex: Regex::parse(r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata), CaptureRole::CcOrState],
            },
        }
    }

    #[test]
    fn extraction_with_cc() {
        let r = zayo_regex();
        let e = r.extract("zayo-ntt.mpr1.lhr15.uk.zip.zayo.com").unwrap();
        assert_eq!(e.hint, "lhr");
        assert_eq!(e.ty, GeohintType::Iata);
        assert_eq!(e.cc_tokens, vec!["uk"]);
    }

    #[test]
    fn no_match_no_extraction() {
        let r = zayo_regex();
        assert!(r.extract("cr1.lhr.gtt.net").is_none());
    }

    #[test]
    fn split_clli_joins() {
        let r = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.[a-z]+\d+-([a-z]{4})\d+-([a-z]{2})\.windstream\.net$")
                .unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::ClliFour, CaptureRole::ClliTwo],
            },
        };
        let e = r.extract("ae2-0.agr02-mtgm01-al.windstream.net").unwrap();
        assert_eq!(e.hint, "mtgmal");
        assert_eq!(e.ty, GeohintType::Clli);
    }

    #[test]
    fn nc_first_match_wins() {
        let iata = zayo_regex();
        let city = GeoRegex {
            regex: Regex::parse(r"^.+\.([a-z]+)\d*\.zayo\.com$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::CityName)],
            },
        };
        let nc = NamingConvention {
            suffix: "zayo.com".into(),
            regexes: vec![iata, city],
        };
        // Matches the first (IATA) form.
        let e = nc.extract("zayo-ntt.mpr1.lhr15.uk.zip.zayo.com").unwrap();
        assert_eq!(e.ty, GeohintType::Iata);
        // Falls through to the city form.
        let e = nc.extract("a.b.ashburn1.zayo.com").unwrap();
        assert_eq!(e.ty, GeohintType::CityName);
        assert_eq!(e.hint, "ashburn");
    }

    #[test]
    fn plan_metadata() {
        let p = Plan {
            roles: vec![
                CaptureRole::Hint(GeohintType::CityName),
                CaptureRole::CcOrState,
            ],
        };
        assert_eq!(p.hint_type(), Some(GeohintType::CityName));
        assert!(p.extracts_cc());
        assert_eq!(p.describe(), "City, CC");
        let p2 = Plan {
            roles: vec![CaptureRole::ClliFour, CaptureRole::ClliTwo],
        };
        assert_eq!(p2.hint_type(), Some(GeohintType::Clli));
        assert!(!p2.extracts_cc());
    }
}
