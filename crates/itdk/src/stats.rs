//! Corpus summary statistics (table 1 of the paper).

use crate::Corpus;

/// Table-1-style summary of a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Corpus label.
    pub label: String,
    /// Total routers.
    pub routers: usize,
    /// Routers with at least one hostname.
    pub with_hostname: usize,
    /// Routers with at least one ping RTT sample.
    pub with_rtt: usize,
    /// Vantage points.
    pub vps: usize,
}

impl CorpusStats {
    /// Compute the summary.
    pub fn of(corpus: &Corpus) -> CorpusStats {
        CorpusStats {
            label: corpus.label.clone(),
            routers: corpus.len(),
            with_hostname: corpus.routers.iter().filter(|r| r.has_hostname()).count(),
            with_rtt: corpus.routers.iter().filter(|r| !r.rtts.is_empty()).count(),
            vps: corpus.vps.len(),
        }
    }

    /// Percentage of routers with hostnames.
    pub fn hostname_pct(&self) -> f64 {
        pct(self.with_hostname, self.routers)
    }

    /// Percentage of routers with RTT samples.
    pub fn rtt_pct(&self) -> f64 {
        pct(self.with_rtt, self.routers)
    }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;
    use hoiho_geodb::GeoDb;

    #[test]
    fn stats_match_corpus_shape() {
        let db = GeoDb::builtin();
        let spec = CorpusSpec {
            label: "stats-test".into(),
            seed: 6,
            operators: 8,
            routers: 300,
            geo_operator_fraction: 0.5,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.55,
            rtt_response_rate: 0.82,
            vps: 12,
            custom_hint_operator_fraction: 0.3,
            custom_hint_rate: 0.2,
            stale_fraction: 0.005,
            provider_side_fraction: 0.0,
            ipv6: false,
        };
        let g = crate::generate(&db, &spec);
        let s = CorpusStats::of(&g.corpus);
        assert_eq!(s.routers, g.corpus.len());
        assert_eq!(s.vps, 12);
        // Rates should land near the configured probabilities.
        assert!(
            (40.0..70.0).contains(&s.hostname_pct()),
            "{}",
            s.hostname_pct()
        );
        assert!((70.0..95.0).contains(&s.rtt_pct()), "{}", s.rtt_pct());
    }

    #[test]
    fn pct_handles_zero_denominator() {
        let s = CorpusStats {
            label: "x".into(),
            routers: 0,
            with_hostname: 0,
            with_rtt: 0,
            vps: 0,
        };
        assert_eq!(s.hostname_pct(), 0.0);
        assert_eq!(s.rtt_pct(), 0.0);
    }
}
