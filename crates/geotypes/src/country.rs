//! ISO-3166 country and subdivision (state) codes.
//!
//! The dictionary (§5.1.1 of the paper) annotates locations with ISO-3166
//! codes, and stage 2 uses them to recognise when an operator embeds a
//! country or state code adjacent to a geohint (e.g. `lhr15.uk`). The paper
//! explicitly handles the `uk` ↔ `gb` alias; we also accept the common
//! operator spellings in [`CountryCode::matches_token`].

use std::fmt;
use std::str::FromStr;

/// A two-letter ISO-3166-1 alpha-2 country code, stored lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode([u8; 2]);

/// Error returned when parsing a [`CountryCode`] or [`StateCode`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeParseError {
    what: &'static str,
    input: String,
}

impl fmt::Display for CodeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {:?}", self.what, self.input)
    }
}

impl std::error::Error for CodeParseError {}

impl CountryCode {
    /// Build from exactly two ASCII letters (any case).
    pub fn new(code: &str) -> Result<Self, CodeParseError> {
        let bytes = code.as_bytes();
        if bytes.len() == 2 && bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            Ok(CountryCode([
                bytes[0].to_ascii_lowercase(),
                bytes[1].to_ascii_lowercase(),
            ]))
        } else {
            Err(CodeParseError {
                what: "country code",
                input: code.to_string(),
            })
        }
    }

    /// The lowercase two-letter code.
    pub fn as_str(&self) -> &str {
        // SAFETY: constructor guarantees ASCII letters.
        std::str::from_utf8(&self.0).expect("country code is ASCII")
    }

    /// True if `token` (from a hostname) refers to this country, accepting
    /// the `uk` alias for `gb` (and vice versa) that the paper handles.
    pub fn matches_token(&self, token: &str) -> bool {
        let cc = self.as_str();
        token.eq_ignore_ascii_case(cc)
            || (cc == "gb" && token.eq_ignore_ascii_case("uk"))
            || (cc == "uk" && token.eq_ignore_ascii_case("gb"))
    }

    /// Canonicalise `uk` to `gb` so dictionary keys are unique.
    pub fn canonical(&self) -> CountryCode {
        if self.as_str() == "uk" {
            CountryCode(*b"gb")
        } else {
            *self
        }
    }
}

impl FromStr for CountryCode {
    type Err = CodeParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CountryCode::new(s)
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An ISO-3166-2 subdivision code without the country prefix, e.g. `va` for
/// US-VA or `eng` for GB-ENG. Two or three ASCII letters, stored lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateCode {
    buf: [u8; 3],
    len: u8,
}

impl StateCode {
    /// Build from two or three ASCII letters (any case).
    pub fn new(code: &str) -> Result<Self, CodeParseError> {
        let bytes = code.as_bytes();
        if (bytes.len() == 2 || bytes.len() == 3) && bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            let mut buf = [0u8; 3];
            for (i, b) in bytes.iter().enumerate() {
                buf[i] = b.to_ascii_lowercase();
            }
            Ok(StateCode {
                buf,
                len: bytes.len() as u8,
            })
        } else {
            Err(CodeParseError {
                what: "state code",
                input: code.to_string(),
            })
        }
    }

    /// The lowercase code.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("state code is ASCII")
    }

    /// True if `token` (from a hostname) refers to this subdivision.
    pub fn matches_token(&self, token: &str) -> bool {
        token.eq_ignore_ascii_case(self.as_str())
    }
}

impl FromStr for StateCode {
    type Err = CodeParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StateCode::new(s)
    }
}

impl fmt::Display for StateCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_code_lowercases() {
        assert_eq!(CountryCode::new("US").unwrap().as_str(), "us");
    }

    #[test]
    fn country_code_rejects_bad_input() {
        assert!(CountryCode::new("usa").is_err());
        assert!(CountryCode::new("u").is_err());
        assert!(CountryCode::new("u1").is_err());
        assert!(CountryCode::new("").is_err());
    }

    #[test]
    fn uk_gb_equivalence() {
        let gb = CountryCode::new("gb").unwrap();
        assert!(gb.matches_token("uk"));
        assert!(gb.matches_token("GB"));
        assert!(!gb.matches_token("de"));
        let uk = CountryCode::new("uk").unwrap();
        assert!(uk.matches_token("gb"));
        assert_eq!(uk.canonical().as_str(), "gb");
        assert_eq!(gb.canonical().as_str(), "gb");
    }

    #[test]
    fn state_code_two_and_three_letters() {
        assert_eq!(StateCode::new("VA").unwrap().as_str(), "va");
        assert_eq!(StateCode::new("ENG").unwrap().as_str(), "eng");
        assert!(StateCode::new("v").is_err());
        assert!(StateCode::new("abcd").is_err());
        assert!(StateCode::new("v1").is_err());
    }

    #[test]
    fn state_matches_token_case_insensitive() {
        let va = StateCode::new("va").unwrap();
        assert!(va.matches_token("VA"));
        assert!(!va.matches_token("vt"));
    }

    #[test]
    fn codes_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(CountryCode::new("us").unwrap(), 1);
        assert_eq!(m[&CountryCode::new("US").unwrap()], 1);
    }
}
