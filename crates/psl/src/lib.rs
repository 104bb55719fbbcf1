#![warn(missing_docs)]

//! Public-suffix-list handling (§5.1.2 of the paper).
//!
//! Hoiho groups router hostnames by the *registerable suffix*: the domain
//! an operator registers under an effective TLD (`ntt.net` under `net`,
//! `ccnw.net.au` under `net.au`). This crate parses the Mozilla public
//! suffix list format — comments, wildcard rules (`*.ck`) and exception
//! rules (`!www.ck`) — and answers "what suffix does this hostname group
//! under".
//!
//! There is one walk of the list,
//! [`PublicSuffixList::registerable_suffix_of`]: it takes a lowercase
//! hostname of any label count and borrows the registerable suffix from
//! it. Every other method delegates to it, so learning, `hoiho apply`
//! and `hoiho serve` group a hostname identically. A name with an empty
//! interior label (`a..b.com`) is not a hostname and has no suffix.
//!
//! A built-in list covering the effective TLDs that appear in router
//! hostname corpora is embedded via [`PublicSuffixList::builtin`]; the
//! full Mozilla list can be loaded with [`PublicSuffixList::parse`].

mod list;

pub use list::BUILTIN_RULES;

use std::collections::HashMap;

/// One rule from the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// A normal rule: the labels themselves are a public suffix.
    Normal,
    /// A wildcard rule `*.<labels>`: any single label under this is a
    /// public suffix.
    Wildcard,
    /// An exception `!<labels>`: this exact domain is *not* a public
    /// suffix even though a wildcard covers it.
    Exception,
}

/// A parsed public suffix list.
#[derive(Debug, Clone)]
pub struct PublicSuffixList {
    /// Keyed by the rule's labels joined with dots (without `*.`/`!`).
    rules: HashMap<String, Rule>,
    /// Labels in the longest key: no longer candidate suffix can match.
    max_labels: usize,
}

impl PublicSuffixList {
    /// Parse the Mozilla file format: one rule per line, `//` comments,
    /// blank lines ignored. Later duplicate rules overwrite earlier ones.
    pub fn parse(text: &str) -> PublicSuffixList {
        let mut rules = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            // The official list terminates rules at whitespace.
            let token = line.split_whitespace().next().expect("nonempty line");
            let token = token.to_ascii_lowercase();
            if let Some(rest) = token.strip_prefix('!') {
                rules.insert(rest.to_string(), Rule::Exception);
            } else if let Some(rest) = token.strip_prefix("*.") {
                rules.insert(rest.to_string(), Rule::Wildcard);
            } else {
                rules.insert(token, Rule::Normal);
            }
        }
        let max_labels = rules.keys().map(|k| k.split('.').count()).max();
        PublicSuffixList {
            rules,
            max_labels: max_labels.unwrap_or(0),
        }
    }

    /// The embedded list of effective TLDs.
    pub fn builtin() -> PublicSuffixList {
        PublicSuffixList::parse(BUILTIN_RULES)
    }

    /// Number of rules loaded.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The *registerable suffix* (public suffix + one label) of a
    /// hostname, lowercased — the grouping key Hoiho learns conventions
    /// per. Surrounding whitespace is ignored. Returns `None` when the
    /// hostname is itself a public suffix, empty, or has an empty
    /// interior label (`a..b.com` is not a hostname).
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.registerable_suffix("r1.lon.gtt.net"), Some("gtt.net".to_string()));
    /// assert_eq!(psl.registerable_suffix("core.ccnw.net.au"), Some("ccnw.net.au".to_string()));
    /// assert_eq!(psl.registerable_suffix("com"), None);
    /// ```
    pub fn registerable_suffix(&self, hostname: &str) -> Option<String> {
        let lower = hostname.trim().to_ascii_lowercase();
        self.registerable_suffix_of(&lower).map(str::to_string)
    }

    /// The registerable suffix of an **already-lowercased** hostname, as
    /// a tail slice borrowed from it — the one walk of the list, which
    /// every other method delegates to.
    ///
    /// Leading and trailing dots are ignored and any number of labels is
    /// answered. A hostname containing ASCII uppercase returns `None`
    /// rather than a wrong-cased grouping key, as does one with an empty
    /// interior label.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.registerable_suffix_of("r1.lon.gtt.net"), Some("gtt.net"));
    /// assert_eq!(psl.registerable_suffix_of("com"), None);
    /// assert_eq!(psl.registerable_suffix_of("a..b.gtt.net"), None);
    /// ```
    pub fn registerable_suffix_of<'h>(&self, hostname: &'h str) -> Option<&'h str> {
        let host = hostname.trim_matches('.');
        let bytes = host.as_bytes();
        let mut best = 1; // prevailing default rule: "*"
        let mut exception = None;
        // One pass right to left. At each label start, the `k`-th label
        // from the right, the tail from there is a candidate suffix.
        let (mut k, mut end) = (0, bytes.len());
        for start in (0..=bytes.len()).rev() {
            if start > 0 {
                match bytes[start - 1] {
                    b'.' => {}
                    b if b.is_ascii_uppercase() => return None,
                    _ => continue,
                }
            }
            if start == end {
                return None; // empty label
            }
            k += 1;
            end = start.saturating_sub(1);
            if k > self.max_labels {
                continue;
            }
            match self.rules.get(&host[start..]) {
                Some(Rule::Normal) => best = best.max(k),
                // The wildcard extends one label further left.
                Some(Rule::Wildcard) if start > 0 => best = best.max(k + 1),
                // The longest exception wins outright: the public suffix
                // is the rule minus its leftmost label.
                Some(Rule::Exception) => exception = Some(k - 1),
                _ => {}
            }
        }
        // The registerable suffix is the public suffix plus one label.
        let ps = exception.unwrap_or(best);
        if ps >= k {
            return None;
        }
        let at = host
            .rmatch_indices('.')
            .nth(ps)
            .map_or(0, |(dot, _)| dot + 1);
        Some(&host[at..])
    }

    /// Split an already-lowercased hostname into `(prefix, registerable
    /// suffix)`, both borrowed from it and taken from one walk, for
    /// callers that need both halves. The prefix excludes the joining
    /// dot and is empty when the hostname *is* its registerable suffix.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.split("r1.lon.gtt.net."), Some(("r1.lon", "gtt.net")));
    /// assert_eq!(psl.split("gtt.net"), Some(("", "gtt.net")));
    /// ```
    pub fn split<'h>(&self, hostname: &'h str) -> Option<(&'h str, &'h str)> {
        let suffix = self.registerable_suffix_of(hostname)?;
        let host = hostname.trim_matches('.');
        let prefix = &host[..host.len() - suffix.len()];
        Some((prefix.strip_suffix('.').unwrap_or(prefix), suffix))
    }

    /// The prefix half of [`PublicSuffixList::split`]: `r1.lon` for
    /// `r1.lon.gtt.net`.
    pub fn prefix_of<'h>(&self, hostname: &'h str) -> Option<&'h str> {
        self.split(hostname).map(|(prefix, _)| prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tld() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("foo.bar.example.com"),
            Some("example.com".to_string())
        );
    }

    #[test]
    fn two_level_etld() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("core1.syd.ccnw.net.au"),
            Some("ccnw.net.au".to_string())
        );
        assert_eq!(
            psl.registerable_suffix("r.x.isp.co.uk"),
            Some("isp.co.uk".to_string())
        );
    }

    #[test]
    fn bare_public_suffix_is_none() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(psl.registerable_suffix("com"), None);
        assert_eq!(psl.registerable_suffix("net.au"), None);
        assert_eq!(psl.registerable_suffix(""), None);
    }

    #[test]
    fn unknown_tld_uses_default_rule() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("a.b.frobnicate"),
            Some("b.frobnicate".to_string())
        );
    }

    #[test]
    fn wildcard_and_exception() {
        let psl = PublicSuffixList::parse("*.ck\n!www.ck\n");
        // Anything one label under .ck is a public suffix...
        assert_eq!(
            psl.registerable_suffix("host.shop.example.ck"),
            Some("shop.example.ck".to_string())
        );
        // ...except www.ck, which is registerable itself.
        assert_eq!(
            psl.registerable_suffix("host.www.ck"),
            Some("www.ck".to_string())
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let psl = PublicSuffixList::parse("// comment\n\ncom\n");
        assert_eq!(psl.len(), 1);
        assert!(!psl.is_empty());
    }

    #[test]
    fn case_and_trailing_dot_normalised() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("R1.LON.GTT.NET."),
            Some("gtt.net".to_string())
        );
    }

    #[test]
    fn prefix_of_splits_correctly() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(psl.prefix_of("r1.lon.gtt.net"), Some("r1.lon"));
        assert_eq!(psl.prefix_of("gtt.net"), Some(""));
        assert_eq!(psl.prefix_of("net"), None);
    }

    #[test]
    fn builtin_is_nontrivial() {
        assert!(PublicSuffixList::builtin().len() > 50);
    }

    /// The allocating walk that preceded the borrowed one (one joined
    /// key per candidate suffix), kept as the reference the one walk
    /// must agree with.
    fn reference_suffix(psl: &PublicSuffixList, hostname: &str) -> Option<String> {
        let lower = hostname.trim_end_matches('.').to_ascii_lowercase();
        let labels: Vec<&str> = lower.split('.').filter(|l| !l.is_empty()).collect();
        if labels.is_empty() {
            return None;
        }
        let mut ps = 1;
        for start in 0..labels.len() {
            match psl.rules.get(&labels[start..].join(".")) {
                Some(Rule::Normal) => ps = ps.max(labels.len() - start),
                Some(Rule::Wildcard) if start > 0 => ps = ps.max(labels.len() - start + 1),
                Some(Rule::Exception) => {
                    ps = labels.len() - start - 1;
                    break;
                }
                _ => {}
            }
        }
        (labels.len() > ps).then(|| labels[labels.len() - ps - 1..].join("."))
    }

    fn assert_matches_reference(psl: &PublicSuffixList, host: &str) {
        let want = reference_suffix(psl, host);
        assert_eq!(psl.registerable_suffix(host), want, "{host}");
        let lower = host.to_ascii_lowercase();
        let split = psl.split(&lower);
        assert_eq!(split.map(|(_, s)| s), want.as_deref(), "{host}");
        // The prefix is the rest of the dot-trimmed hostname.
        if let Some((prefix, suffix)) = split.filter(|(p, _)| !p.is_empty()) {
            assert_eq!(
                format!("{prefix}.{suffix}"),
                lower.trim_matches('.'),
                "{host}"
            );
        }
    }

    #[test]
    fn borrowed_variant_matches_allocating_path() {
        let psl = PublicSuffixList::builtin();
        let ck = PublicSuffixList::parse("*.ck\n!www.ck\n");
        let deep = PublicSuffixList::parse("com\n*.compute.amazonaws.com\n");
        let long = "x.".repeat(40) + "gtt.net";
        for (l, host) in [
            (&psl, "foo.bar.example.com"),
            (&psl, "core1.syd.ccnw.net.au"),
            (&psl, "r.x.isp.co.uk"),
            (&psl, "a.b.frobnicate"),
            (&psl, "com"),
            (&psl, "net.au"),
            (&psl, "gtt.net."),
            (&psl, ".leading.gtt.net"),
            (&psl, "R1.LON.GTT.NET."),
            (&psl, long.as_str()),
            (&psl, ""),
            (&psl, "..."),
            (&ck, "host.shop.example.ck"),
            (&ck, "host.www.ck"),
            (&ck, "www.ck"),
            (&ck, "example.ck"),
            (&deep, "a.b.eu-west-1.compute.amazonaws.com"),
            (&deep, "eu-west-1.compute.amazonaws.com"),
            (&deep, "a.b.amazonaws.com"),
        ] {
            assert_matches_reference(l, host);
        }
    }

    #[test]
    fn one_walk_matches_the_reference_on_a_generated_corpus() {
        let psl = PublicSuffixList::builtin();
        let db = hoiho_geodb::GeoDb::builtin();
        let g = hoiho_itdk::generate(&db, &hoiho_itdk::spec::CorpusSpec::ipv4_aug2020(3_000));
        let mut n = 0;
        for (_, router) in g.corpus.iter() {
            for host in router.hostnames() {
                assert_matches_reference(&psl, host);
                n += 1;
            }
        }
        assert!(n > 1_000, "only {n} hostnames generated");
    }

    #[test]
    fn borrowed_variant_rejects_unsupported_inputs() {
        let psl = PublicSuffixList::builtin();
        // Uppercase: would produce a wrong-cased grouping key.
        assert_eq!(psl.registerable_suffix_of("R1.LON.GTT.NET"), None);
        // Empty interior label: not a hostname.
        assert_eq!(psl.registerable_suffix_of("a..b.gtt.net"), None);
        assert_eq!(psl.registerable_suffix_of(""), None);
        assert_eq!(psl.registerable_suffix_of("..."), None);
        // Any number of labels is answered.
        let long = "x.".repeat(33) + "gtt.net";
        assert_eq!(psl.registerable_suffix_of(&long), Some("gtt.net"));
        // The allocating path lowercases, and rejects what the walk does.
        assert_eq!(psl.registerable_suffix("a..b.gtt.net"), None);
        assert_eq!(psl.registerable_suffix(&long), Some("gtt.net".to_string()));
    }

    #[test]
    fn borrowed_suffix_is_a_tail_of_the_input() {
        let psl = PublicSuffixList::builtin();
        let host = "r1.lon.gtt.net";
        let suffix = psl.registerable_suffix_of(host).unwrap();
        // Borrowed from the same buffer: usable for zero-copy routing.
        let host_ptr = host.as_ptr() as usize;
        let sfx_ptr = suffix.as_ptr() as usize;
        assert_eq!(sfx_ptr + suffix.len(), host_ptr + host.len());
    }
}
