//! The RTT-consistency predicate (§5.2).
//!
//! *"For each router-VP pair, our method calculates the theoretical
//! best-case RTT between the candidate geohint's location and the VP's
//! location according to the speed of light in a fiber optic cable. If
//! the theoretical best-case RTT is smaller than the measured RTT for
//! all VPs, then the measured RTT is RTT-consistent."*

use crate::{RouterRtts, VpSet};
use hoiho_geotypes::{rtt::best_case_rtt_ms, Coordinates};

/// Tunables for the feasibility test.
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyPolicy {
    /// Additive slack in milliseconds granted to the measured RTT before
    /// comparison. 0 reproduces the paper's strict test; DRoP-style
    /// continent-scale constraints use a large value.
    pub slack_ms: f64,
    /// Multiplicative slack on the best-case RTT (1.0 = none). Values
    /// below 1.0 loosen the test (the best case must be under
    /// `measured / factor`).
    pub bestcase_factor: f64,
}

impl Default for ConsistencyPolicy {
    fn default() -> Self {
        ConsistencyPolicy {
            slack_ms: 0.0,
            bestcase_factor: 1.0,
        }
    }
}

impl ConsistencyPolicy {
    /// The strict test used by Hoiho.
    pub const STRICT: ConsistencyPolicy = ConsistencyPolicy {
        slack_ms: 0.0,
        bestcase_factor: 1.0,
    };

    /// A deliberately coarse, continent-scale test approximating DRoP's
    /// traceroute-RTT-only constraints (§3.3: "their RTT measurements
    /// roughly constrained locations to within a continent").
    pub const CONTINENT: ConsistencyPolicy = ConsistencyPolicy {
        slack_ms: 35.0,
        bestcase_factor: 1.0,
    };
}

/// The pure feasibility predicate: whether `candidate` is feasible for
/// a router given all of its RTT samples. A router with no samples is
/// vacuously consistent (the paper can only tag hints on routers with
/// constraints; callers decide how to treat the unconstrained case).
///
/// This is a pure function of `(samples, candidate, policy)` — no
/// observability side effects — which is what makes it safe to memoize:
/// `hoiho`'s per-suffix `FeasibilityCache` stores one bit per
/// `(router, location)` pair and every cache layer answers exactly what
/// this function would.
pub fn feasibility(
    vps: &VpSet,
    samples: &RouterRtts,
    candidate: &Coordinates,
    policy: &ConsistencyPolicy,
) -> bool {
    samples.samples().iter().all(|(vp, measured)| {
        let best = best_case_rtt_ms(&vps.get(*vp).coords, candidate) * policy.bestcase_factor;
        best <= measured.as_ms() + policy.slack_ms
    })
}

/// [`feasibility`] plus accept/reject observability counters — the
/// uncached entry point for code outside the memoized learn path.
pub fn rtt_consistent(
    vps: &VpSet,
    samples: &RouterRtts,
    candidate: &Coordinates,
    policy: &ConsistencyPolicy,
) -> bool {
    let ok = feasibility(vps, samples, candidate, policy);
    // This predicate runs in the innermost learner loops, so even a
    // cached atomic add is only paid when observability is on.
    if hoiho_obs::enabled() {
        if ok {
            hoiho_obs::counter!("rtt.consistency.accept").inc();
        } else {
            hoiho_obs::counter!("rtt.consistency.reject").inc();
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VpSet;
    use hoiho_geotypes::Rtt;

    fn world() -> (VpSet, Coordinates, Coordinates) {
        let mut vps = VpSet::new();
        vps.add("dca-us", Coordinates::new(38.9, -77.0));
        let ashburn = Coordinates::new(39.04, -77.49);
        let london = Coordinates::new(51.5, -0.1);
        (vps, ashburn, london)
    }

    #[test]
    fn nearby_hint_is_consistent_with_small_rtt() {
        let (vps, ashburn, _) = world();
        let mut s = RouterRtts::new();
        s.record(crate::VpId(0), Rtt::from_ms(3.0));
        assert!(rtt_consistent(
            &vps,
            &s,
            &ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn faraway_hint_is_inconsistent_with_small_rtt() {
        // Figure 3a: 3ms from a VP near College Park MD rules out Las
        // Vegas; here 3ms rules out London.
        let (vps, _, london) = world();
        let mut s = RouterRtts::new();
        s.record(crate::VpId(0), Rtt::from_ms(3.0));
        assert!(!rtt_consistent(
            &vps,
            &s,
            &london,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn any_single_violating_vp_rejects() {
        let (mut vps, ashburn, _) = world();
        let ams = vps.add("ams-nl", Coordinates::new(52.4, 4.9));
        let mut s = RouterRtts::new();
        s.record(crate::VpId(0), Rtt::from_ms(500.0)); // loose
        s.record(ams, Rtt::from_ms(2.0)); // impossible from Amsterdam
        assert!(!rtt_consistent(
            &vps,
            &s,
            &ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn no_samples_is_vacuously_consistent() {
        let (vps, ashburn, _) = world();
        assert!(rtt_consistent(
            &vps,
            &RouterRtts::new(),
            &ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn continent_policy_is_looser() {
        let (vps, _, london) = world();
        let mut s = RouterRtts::new();
        // 45ms from DC: strictly rules out London (best case ~59ms) but
        // the continent-scale policy lets it through.
        s.record(crate::VpId(0), Rtt::from_ms(45.0));
        assert!(!rtt_consistent(
            &vps,
            &s,
            &london,
            &ConsistencyPolicy::STRICT
        ));
        assert!(rtt_consistent(
            &vps,
            &s,
            &london,
            &ConsistencyPolicy::CONTINENT
        ));
    }
}
